//! The full simulation driver: the per-PM-step loop of Fig. 2.
//!
//! Per global PM step:
//!
//! 1. migrate + overload refresh (all-to-all; phase `Misc`);
//! 2. long-range spectral solve and half-kick (`LongRange`);
//! 3. one chaining-mesh/tree build (`TreeBuild`);
//! 4. the short-range subcycle block — gravity + CRKSPH + subgrid,
//!    chained-KDK at the deepest occupied rung (`ShortRange`);
//! 5. in-situ analysis at its cadence (`Analysis`);
//! 6. a full tiered checkpoint every step (`Io`);
//! 7. closing long-range half-kick.
//!
//! Integration note (documented reproduction simplification): the rung
//! machinery assigns per-particle rungs and drives all workload and
//! utilization accounting, but the *executed* integration advances every
//! particle at the deepest occupied rung — the paper's own "low-z Flat"
//! mode. Block-selective kicks change integration error, not the
//! architecture under study.

use crate::config::{Physics, SimConfig};
use crate::ic::generate_ics;
use crate::kicks::KickDrift;
use crate::overload::{exchange_overload, migrate};
use crate::particles::{ParticleStore, Species};
use crate::timestep::{n_substeps, rung_for, RungStats};
use hacc_analysis::power::PowerBin;
use hacc_analysis::twopoint::XiBin;
use hacc_analysis::{
    compton_y_map, correlation_function, fof_halos, measure_power, populate, HodParams, Lbvh,
};
use hacc_fault::{FaultPlan, FaultProbe, FaultState};
use hacc_gpusim::{execute_with_relaunch, ExecutionModel, KernelCounters, ProfileTable};
use hacc_grav::{grav_step, GravConfig};
use hacc_iosim::format::Block;
use hacc_iosim::{IoStats, TieredConfig, TieredWriter};
use hacc_mesh::{PmConfig, PmSolver};
use hacc_ranks::{CartDecomp, Comm, World};
use hacc_telem::{
    CommCounters, ConservationLedger, FaultCounters, FaultKind, GpuKernelRow, LedgerRecord, Phase,
    RankTelemetry, Span, TelemetryReport, Tracer,
};
use hacc_sph::pipeline::{cfl_timestep, sph_step, SphConfig, SphInput};
use hacc_sph::CubicSpline;
use hacc_subgrid::{AgnModel, BlackHole, CoolingModel, StarFormationModel, SupernovaModel};
use hacc_tree::{ChainingMesh, CmConfig};
use hacc_units::constants::G_NEWTON;
use hacc_units::Background;
use hacc_rt::rand::{self, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-PM-step record.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Scale factor at step start.
    pub a: f64,
    /// Redshift at step start.
    pub z: f64,
    /// Substeps executed.
    pub substeps: u32,
    /// Adaptive-vs-flat workload statistics of the rung assignment.
    pub rung_stats: RungStats,
    /// Owned particles on this rank at step start (rank 0's view of the
    /// global sum).
    pub particles: u64,
    /// Stars formed this step (global).
    pub stars_formed: u64,
    /// Modeled GPU kernel seconds this step (max over ranks).
    pub gpu_seconds_modeled: f64,
    /// Modeled blocking I/O seconds (Frontier-scale).
    pub io_blocking_s: f64,
    /// Wall-clock seconds of the whole step span (max over ranks).
    pub wall_seconds: f64,
}

/// End-of-run report (assembled on rank 0).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Rank count the run used.
    pub n_ranks: usize,
    /// Global particle count.
    pub total_particles: u64,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Merged GPU counters across ranks.
    pub counters: KernelCounters,
    /// Per-kernel profile (rocprof-style), merged across ranks.
    pub profile: ProfileTable,
    /// Per-rank modeled device utilizations (Fig. 6 distributions).
    pub utilizations: Vec<f64>,
    /// I/O statistics (rank 0's writer, machine-scaled).
    pub io: IoStats,
    /// Final matter power spectrum.
    pub power: Vec<PowerBin>,
    /// FOF halo count at the final analysis.
    pub n_halos: usize,
    /// Mass of the largest halo (M_sun/h; zero when none).
    pub largest_halo: f64,
    /// Two-point correlation function of the final matter field
    /// (rank-0 subsample).
    pub xi: Vec<XiBin>,
    /// Mock galaxies from the HOD population of the final halo catalog.
    pub n_galaxies: u64,
    /// Concentration of the final Compton-y map (fraction of the SZ
    /// signal in the brightest 1% of pixels) — the halo-dominance
    /// diagnostic behind the mm-wave mocks.
    pub y_map_concentration: f64,
    /// Stars formed over the whole run (global).
    pub total_stars: u64,
    /// Particle updates (all ranks) per second of step wall time (the
    /// sum of `steps[].wall_seconds`).
    pub particles_per_second: f64,
    /// Total momentum at the end (conservation diagnostic).
    pub total_momentum: [f64; 3],
    /// Gross momentum scale `sum m |p|` (denominator for the diagnostic).
    pub momentum_scale: f64,
    /// Per-step conservation ledger, globally reduced in rank order
    /// (identical on every rank).
    pub ledger: ConservationLedger,
    /// The unified telemetry bundle: per-rank spans and counters, merged
    /// GPU kernel rows, and the ledger. Per-phase wall time derives from
    /// its spans ([`hacc_telem::phase_seconds`]).
    pub telemetry: TelemetryReport,
    /// FNV-1a hash over the id-sorted final particle state (exact f64
    /// bit patterns) — the bitwise recovery contract: a supervised run
    /// that survived faults must report the same hash as an
    /// uninterrupted same-seed run.
    pub final_state_hash: u64,
    /// Supervisor attempts this run took (1 = no fatal fault).
    pub attempts: u64,
    /// Rollback recoveries the supervisor performed.
    pub rollbacks: u64,
    /// Dynamic sanitizer report (`cfg.sanitize`); `None` when the run
    /// was not sanitized.
    pub sanitizer: Option<hacc_san::SanReport>,
}

/// Hard cap on smoothing lengths, in units of the interparticle spacing.
/// Keeps the SPH support inside the fixed chaining-mesh bin width and the
/// overload depth for the whole PM step.
const H_CAP_SPACING: f64 = 1.75;

/// Reusable SoA gather buffers for the per-kick hydro solve. The gas
/// subset is re-gathered every kick (positions drift, `u`/`h` update),
/// but the allocations are step-invariant, so they live outside the
/// step loop.
#[derive(Default)]
struct GasGather {
    pos: Vec<[f64; 3]>,
    vpec: Vec<[f64; 3]>,
    mass: Vec<f64>,
    h: Vec<f64>,
    u: Vec<f64>,
}

impl GasGather {
    /// Refill from `store` at the gas indices; velocities are converted
    /// to peculiar (`v / a`) on the way in.
    fn gather(&mut self, store: &ParticleStore, gas_idx: &[usize], a: f64) {
        self.pos.clear();
        self.vpec.clear();
        self.mass.clear();
        self.h.clear();
        self.u.clear();
        for &i in gas_idx {
            self.pos.push(store.pos[i]);
            let v = store.vel[i];
            self.vpec.push([v[0] / a, v[1] / a, v[2] / a]);
            self.mass.push(store.mass[i]);
            self.h.push(store.h[i]);
            self.u.push(store.u[i]);
        }
    }
}

struct RankOutput {
    steps: Vec<StepRecord>,
    spans: Vec<Span>,
    comm: CommCounters,
    ledger: ConservationLedger,
    counters: KernelCounters,
    profile: ProfileTable,
    utilization: f64,
    io: Option<IoStats>,
    power: Vec<PowerBin>,
    n_halos: usize,
    largest_halo: f64,
    xi: Vec<XiBin>,
    n_galaxies: u64,
    y_map_concentration: f64,
    total_stars: u64,
    updates: u64,
    momentum: [f64; 3],
    momentum_scale: f64,
    faults: FaultCounters,
    state_hash: u64,
}

/// Where a rank's initial state comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ResumeMode {
    /// Fresh start from initial conditions.
    Fresh,
    /// Resume from this rank's newest CRC-valid checkpoint (the CLI
    /// `--resume` path; panics when none exists).
    Latest,
    /// Supervisor rollback: resume from the newest checkpoint that is
    /// CRC-valid on *every* rank (a torn or corrupted file on one rank
    /// invalidates that step globally). Falls back to a cold start from
    /// the initial conditions when no common step survives.
    Consistent,
}

/// A failure in the step loop's checkpoint/IO path, carried to the
/// fault supervisor as a typed panic payload instead of an anonymous
/// `.expect` string. [`run_supervised`] downcasts the payload on catch
/// to log which path failed before rolling back.
#[derive(Debug, Clone)]
enum StepError {
    /// `--resume` found no CRC-valid checkpoint on this rank's PFS.
    NoValidCheckpoint,
    /// A checkpoint step validated in the cross-rank intersection could
    /// not be decoded when actually loaded.
    CheckpointLoad { step: u64 },
    /// A CRC-valid checkpoint decoded but is missing a required field
    /// (format-version mismatch).
    CheckpointDecode { field: String },
    /// The tiered writer could not create its staging directories.
    IoSetup(String),
    /// Writing a checkpoint failed mid-run.
    CheckpointWrite { step: u64, cause: String },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::NoValidCheckpoint => {
                write!(f, "no valid checkpoint to resume from")
            }
            StepError::CheckpointLoad { step } => {
                write!(f, "checkpoint for step {step} failed to load after validating")
            }
            StepError::CheckpointDecode { field } => {
                write!(f, "checkpoint is missing required field `{field}`")
            }
            StepError::IoSetup(e) => write!(f, "tiered writer setup failed: {e}"),
            StepError::CheckpointWrite { step, cause } => {
                write!(f, "checkpoint write at step {step} failed: {cause}")
            }
        }
    }
}

/// Abort the current attempt with a typed payload the supervisor can
/// identify. Unwinding is the only exit from `rank_main` that reaches
/// the `catch_unwind` in [`run_supervised`], so the escalation is a
/// panic by design — but one carrying a [`StepError`] the supervisor
/// downcasts, not a bare string. The message is mirrored to stderr for
/// the unsupervised paths (`resume_simulation`) where nothing catches.
fn escalate(e: StepError) -> ! {
    eprintln!("step-loop escalation: {e}");
    std::panic::panic_any(e)
}

/// Run the configured simulation on `n_ranks` simulated ranks.
///
/// With `cfg.sanitize` set the world runs under the hacc-san dynamic
/// sanitizer; the findings report is attached to the returned
/// [`SimReport`] and mirrored into the telemetry golden section. A
/// sanitizer abort (confirmed deadlock or payload mismatch) panics with
/// the rendered report, since there are no rank results to assemble.
pub fn run_simulation(cfg: &SimConfig, n_ranks: usize) -> SimReport {
    cfg.validate();
    let io_base = IoBase::resolve(cfg);
    if cfg.sanitize {
        let (outputs, report) =
            World::run_sanitized_with(cfg.rank_backend(), n_ranks, |comm| {
                rank_main(cfg, comm, &io_base.path, ResumeMode::Fresh, None)
            });
        let outputs = outputs.unwrap_or_else(|| {
            panic!("sanitizer aborted the run:\n{}", report.render_text())
        });
        return assemble_report(cfg, outputs, 1, 0, Some(report));
    }
    let outputs = World::run_with(cfg.rank_backend(), n_ranks, |comm| {
        rank_main(cfg, comm, &io_base.path, ResumeMode::Fresh, None)
    });
    assemble_report(cfg, outputs, 1, 0, None)
}

/// Resume an interrupted run from the newest CRC-valid checkpoint on the
/// (simulated) PFS — the paper's fault-tolerance path. Every rank loads
/// its own checkpoint; the run continues from the following PM step
/// through `cfg.pm_steps`. Panics if no valid checkpoint exists.
pub fn resume_simulation(cfg: &SimConfig, n_ranks: usize) -> SimReport {
    cfg.validate();
    assert!(
        cfg.io_dir.is_some(),
        "resume requires cfg.io_dir pointing at the interrupted run"
    );
    let io_base = IoBase::resolve(cfg);
    let outputs = World::run_with(cfg.rank_backend(), n_ranks, |comm| {
        rank_main(cfg, comm, &io_base.path, ResumeMode::Latest, None)
    });
    assemble_report(cfg, outputs, 1, 0, None)
}

/// Run under the fault supervisor: parse `cfg.chaos` into a [`FaultPlan`]
/// and execute the simulation with per-rank fault probes armed through
/// the whole stack (comm transport, tiered writer, GPU launches, step
/// loop). Transient faults recover in place; a fatal fault (rank panic)
/// tears the world down, and the supervisor rolls back to the newest
/// globally consistent checkpoint and re-runs — planned events fire
/// exactly once per supervised run, so the replay converges and the
/// recovered run reports the same `final_state_hash` as an uninterrupted
/// same-seed run.
///
/// With no chaos spec (or an empty plan) this delegates to
/// [`run_simulation`]: no probes are armed and behavior is identical to
/// the unsupervised path.
pub fn run_supervised(cfg: &SimConfig, n_ranks: usize) -> SimReport {
    cfg.validate();
    let plan = match cfg.chaos.as_deref() {
        Some(spec) => FaultPlan::parse(spec, cfg.seed, cfg.pm_steps as u64, n_ranks)
            .unwrap_or_else(|e| panic!("invalid chaos spec: {e}")),
        None => FaultPlan::empty(),
    };
    if plan.is_empty() {
        return run_simulation(cfg, n_ranks);
    }
    let io_base = IoBase::resolve(cfg);
    // Each fatal event can kill at most one attempt (consumed flags
    // survive rollbacks), so the event count bounds the retries; +1 for
    // the final clean attempt.
    let max_attempts = plan.events.len() as u64 + 1;
    let state = std::sync::Arc::new(FaultState::new(plan, n_ranks));
    let mut resume_mode = ResumeMode::Fresh;
    loop {
        state.begin_attempt();
        let st = std::sync::Arc::clone(&state);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::run_with(cfg.rank_backend(), n_ranks, |comm| {
                let probe = FaultProbe::new(std::sync::Arc::clone(&st), comm.rank());
                rank_main(cfg, comm, &io_base.path, resume_mode, Some(probe))
            })
        }));
        match result {
            Ok(outputs) => {
                return assemble_report(
                    cfg,
                    outputs,
                    state.attempts(),
                    state.rollbacks(),
                    None,
                );
            }
            Err(cause) => {
                // Typed escalations from the checkpoint/IO path carry a
                // StepError payload; log the decoded cause so rollback
                // triage doesn't start from an anonymous panic string.
                if let Some(e) = cause.downcast_ref::<StepError>() {
                    eprintln!(
                        "supervisor: attempt {} failed in the checkpoint/IO path: {e}",
                        state.attempts()
                    );
                }
                if state.attempts() >= max_attempts {
                    std::panic::resume_unwind(cause);
                }
                state.record_rollback();
                resume_mode = ResumeMode::Consistent;
            }
        }
    }
}

/// A run's I/O root: `cfg.io_dir`, or else a temp dir of the run's own,
/// which is removed when the run ends (by return or by unwinding).
struct IoBase {
    path: std::path::PathBuf,
    temp: bool,
}

impl IoBase {
    fn resolve(cfg: &SimConfig) -> Self {
        // Unique per run: concurrent same-seed runs in one process must
        // not share checkpoint files.
        static RUNS: AtomicU64 = AtomicU64::new(0);
        match &cfg.io_dir {
            Some(dir) => Self {
                path: dir.clone(),
                temp: false,
            },
            None => Self {
                path: std::env::temp_dir().join(format!(
                    "frontier-sim-{}-{}-{}",
                    std::process::id(),
                    cfg.seed,
                    RUNS.fetch_add(1, Ordering::Relaxed)
                )),
                temp: true,
            },
        }
    }
}

impl Drop for IoBase {
    fn drop(&mut self) {
        if self.temp {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn assemble_report(
    cfg: &SimConfig,
    outputs: Vec<RankOutput>,
    attempts: u64,
    rollbacks: u64,
    sanitizer: Option<hacc_san::SanReport>,
) -> SimReport {
    let n_ranks = outputs.len();
    let mut counters = KernelCounters::default();
    let mut profile = ProfileTable::new();
    let mut utilizations = Vec::with_capacity(n_ranks);
    let mut updates = 0u64;
    let mut momentum = [0.0f64; 3];
    let mut momentum_scale = 0.0f64;
    for o in &outputs {
        counters.merge(&o.counters);
        profile.merge(&o.profile);
        utilizations.push(o.utilization);
        updates += o.updates;
        momentum_scale += o.momentum_scale;
        for d in 0..3 {
            momentum[d] += o.momentum[d];
        }
    }
    let first = &outputs[0];
    let wall: f64 = first.steps.iter().map(|s| s.wall_seconds).sum();

    // Unified telemetry bundle. GPU rows come from the merged profile
    // table; sorted by name so the golden artifact has a stable order.
    let model = ExecutionModel::new(cfg.device);
    let mut gpu: Vec<GpuKernelRow> = profile
        .rows(&model)
        .iter()
        .map(|r| GpuKernelRow {
            name: r.name.clone(),
            launches: r.launches,
            flops: r.flops,
            bytes: r.bytes,
            pairs: r.pairs,
        })
        .collect();
    gpu.sort_by(|a, b| a.name.cmp(&b.name));
    let telemetry = TelemetryReport {
        ranks: outputs
            .iter()
            .enumerate()
            .map(|(rank, o)| RankTelemetry {
                rank,
                spans: o.spans.clone(),
                comm: o.comm.clone(),
                io: o.io.as_ref().map(|s| s.to_telem()).unwrap_or_default(),
                faults: o.faults.clone(),
            })
            .collect(),
        gpu,
        ledger: first.ledger.clone(),
        attempts,
        rollbacks,
        sanitizer: sanitizer
            .as_ref()
            .map(hacc_san::SanReport::golden_lines)
            .unwrap_or_default(),
    };
    SimReport {
        n_ranks,
        total_particles: cfg.total_particles(),
        steps: first.steps.clone(),
        counters,
        profile,
        utilizations,
        io: first.io.clone().unwrap_or_default(),
        power: first.power.clone(),
        n_halos: first.n_halos,
        largest_halo: first.largest_halo,
        xi: first.xi.clone(),
        n_galaxies: outputs.iter().map(|o| o.n_galaxies).sum(),
        y_map_concentration: first.y_map_concentration,
        total_stars: first.total_stars,
        particles_per_second: updates as f64 / wall.max(1e-12),
        total_momentum: momentum,
        momentum_scale,
        ledger: first.ledger.clone(),
        telemetry,
        final_state_hash: first.state_hash,
        attempts,
        rollbacks,
        sanitizer,
    }
}

#[allow(clippy::too_many_lines)]
fn rank_main(
    cfg: &SimConfig,
    comm: &mut Comm,
    io_base: &std::path::Path,
    resume_mode: ResumeMode,
    probe: Option<FaultProbe>,
) -> RankOutput {
    if let Some(p) = &probe {
        comm.arm_faults(p.clone());
    }
    let bg = Background::new(cfg.cosmology);
    let kd = KickDrift::new(cfg.cosmology);
    let decomp = CartDecomp::new(comm.size());
    let pfs = io_base.join("pfs").join(format!("rank-{}", comm.rank()));
    let (mut store, start_step) = match resume_mode {
        ResumeMode::Fresh => (generate_ics(cfg, &bg, &decomp, comm.rank()), 0),
        ResumeMode::Latest => {
            let (step, blocks) = TieredWriter::load_latest_valid(&pfs)
                .unwrap_or_else(|| escalate(StepError::NoValidCheckpoint));
            (store_from_blocks(&blocks), step as usize + 1)
        }
        ResumeMode::Consistent => {
            // A checkpoint step only counts if every rank can read it:
            // intersect the per-rank valid sets (deterministic — pure
            // function of the on-disk files).
            let mine = TieredWriter::valid_checkpoint_steps(&pfs);
            let all = comm.all_gather(mine);
            let common = all
                .iter()
                .skip(1)
                .fold(all[0].clone(), |acc, v| {
                    acc.into_iter().filter(|s| v.contains(s)).collect()
                });
            match common.last() {
                Some(&step) => {
                    let blocks = TieredWriter::load_checkpoint_at(&pfs, step)
                        .unwrap_or_else(|| escalate(StepError::CheckpointLoad { step }));
                    (store_from_blocks(&blocks), step as usize + 1)
                }
                // No surviving common checkpoint: cold-start from the
                // ICs. Convergent because consumed fault events never
                // re-fire on the replay.
                None => (generate_ics(cfg, &bg, &decomp, comm.rank()), 0),
            }
        }
    };
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (comm.rank() as u64) << 32 | 1);

    // Long-range PM solver: prefactor 4 pi G; the 1/a of the comoving
    // Poisson equation is applied per step.
    let pm = PmSolver::new(
        comm,
        PmConfig {
            n: cfg.ngrid,
            box_size: cfg.box_size,
            prefactor: 4.0 * std::f64::consts::PI * G_NEWTON,
            split_scale: cfg.split_scale(),
            deconvolve_cic: true,
        },
    );
    let softening = cfg.softening_frac * cfg.particle_spacing();
    let hydro = cfg.physics != Physics::GravityOnly;
    let subgrid_on = cfg.physics == Physics::Hydro;
    let sph_cfg: SphConfig<CubicSpline> = SphConfig {
        kernel: CubicSpline,
        eos: Default::default(),
        opts: Default::default(),
        device: cfg.device,
        mode: cfg.exec_mode,
    };
    let cooling = CoolingModel::new(cfg.cosmology.h);
    let mut sf = StarFormationModel::new(cfg.cosmology.h);
    sf.nh_threshold = cfg.sf_nh_threshold;
    let sn = SupernovaModel::new();
    let agn = AgnModel::new();
    let mut black_holes: Vec<BlackHole> = Vec::new();

    // I/O: every rank stages to its own local dir; rank 0's writer keeps
    // the machine-scale statistics.
    let tiered_cfg = TieredConfig {
        local_dir: io_base.join(format!("nvme-{}", comm.rank())),
        pfs_dir: io_base.join("pfs").join(format!("rank-{}", comm.rank())),
        window: cfg.checkpoint_window.max(1),
        ..TieredConfig::frontier(io_base)
    };
    let mut writer = (cfg.checkpoint_every > 0).then(|| {
        TieredWriter::new(tiered_cfg)
            .unwrap_or_else(|e| escalate(StepError::IoSetup(e.to_string())))
    });
    if let (Some(p), Some(w)) = (&probe, writer.as_mut()) {
        w.arm_faults(p.clone());
    }

    let mut tracer = Tracer::new(comm.rank());
    let mut ledger = ConservationLedger::new();
    let mut counters = KernelCounters::default();
    let mut profile = ProfileTable::new();
    let model = ExecutionModel::new(cfg.device);
    let mut steps = Vec::with_capacity(cfg.pm_steps);
    let mut total_stars = 0u64;
    let mut updates = 0u64;
    let overload_width = cfg.overload_cells * cfg.cell_size();
    let mut vsig_prev: Vec<f64> = Vec::new();

    // Short-range gravity configuration. Loop-invariant, and its embedded
    // force-split table (8192 erf/exp evaluations) is built exactly once
    // here instead of per grav_step call.
    let grav_cfg = {
        let mut g = GravConfig::new(G_NEWTON, cfg.split_scale(), softening);
        g.device = cfg.device;
        g.mode = cfg.exec_mode; // G itself is scaled by 1/a at kick time
        g
    };
    // Per-step scratch reused across steps: gas index list and the SoA
    // gather buffers handed to the hydro solver each kick.
    let mut gas_idx: Vec<usize> = Vec::new();
    let mut gas_gather = GasGather::default();
    // More per-step scratch: contiguous owned-only slices for the PM
    // solve (it must not see overload ghosts) and the halo-catalog
    // staging columns. Refilled in place each step (lint rule P1).
    let mut lr_pos: Vec<[f64; 3]> = Vec::new();
    let mut lr_mass: Vec<f64> = Vec::new();
    let mut halo_cols: [Vec<f64>; 4] = Default::default();

    // Sanitizer region for this rank's overload (ghost) buffer: the
    // exchange writes it once per step and the node-local solve reads
    // it. One region per rank — ghosts are rank-private, and the
    // detector checks the write-then-read ordering across steps.
    let ghost_region = hacc_san::armed().then(|| hacc_san::region("ghost-exchange"));

    let da_pm = cfg.da_pm();
    // p1: hot-loop
    for step in start_step..cfg.pm_steps {
        let a0 = cfg.a_init + step as f64 * da_pm;
        let a1 = a0 + da_pm;
        let counters_step_start = counters.clone();
        tracer.set_step(step as u64);
        if let Some(p) = &probe {
            p.set_step(step as u64);
        }
        // p1: allow: per-step trace label, one small allocation per PM step
        let sp_step = tracer.begin(Phase::Step, &format!("step-{step}"));

        // --- 1. migrate + overload refresh ---
        let sp = tracer.begin(Phase::Misc, "migrate+overload");
        migrate(comm, &decomp, &mut store, cfg.box_size);
        exchange_overload(comm, &decomp, &mut store, cfg.box_size, overload_width);
        if let Some(reg) = ghost_region {
            hacc_san::annotate_write(reg);
        }
        tracer.end(sp);

        let n_owned_global =
            comm.all_reduce_sum_u64(store.n_owned as u64);

        // --- 2. long-range solve + opening half-kick ---
        let sp = tracer.begin(Phase::LongRange, "pm-solve+half-kick");
        lr_pos.clear();
        lr_pos.extend_from_slice(&store.pos[..store.n_owned]);
        lr_mass.clear();
        lr_mass.extend_from_slice(&store.mass[..store.n_owned]);
        let lr_acc = pm.accelerations(comm, &lr_pos, &lr_mass);
        let half_kick = kd.kick_factor(a0, a1) / 2.0;
        for i in 0..store.n_owned {
            for d in 0..3 {
                store.vel[i][d] += lr_acc[i][d] / a0 * half_kick;
            }
        }
        tracer.end(sp);

        // --- 3. chaining mesh + trees (once per PM step) ---
        let r_cut = 7.0 * cfg.split_scale();
        // Smoothing lengths are clamped to H_CAP x spacing (below), so
        // the chaining-mesh bin width can be fixed for the whole step.
        let h_cap = H_CAP_SPACING * cfg.particle_spacing();
        let cutoff = if hydro { r_cut.max(2.0 * h_cap) } else { r_cut };
        let (lo, hi) = decomp.subdomain(comm.rank());
        let dom_lo = [
            lo[0] * cfg.box_size - overload_width,
            lo[1] * cfg.box_size - overload_width,
            lo[2] * cfg.box_size - overload_width,
        ];
        let dom_hi = [
            hi[0] * cfg.box_size + overload_width,
            hi[1] * cfg.box_size + overload_width,
            hi[2] * cfg.box_size + overload_width,
        ];
        let cm_cfg = CmConfig {
            bin_width: cutoff.max(1e-3),
            max_leaf: 128,
        };
        let sp = tracer.begin(Phase::TreeBuild, "chaining-mesh");
        if let Some(reg) = ghost_region {
            // The node-local solve starts consuming the ghosts here.
            hacc_san::annotate_read(reg);
        }
        let mut cm_all = ChainingMesh::build(&store.pos, dom_lo, dom_hi, &cm_cfg);
        tracer.end(sp);

        // --- rung assignment (gas CFL; collisionless on rung 0) ---
        store.indices_of_all_into(Species::Gas, &mut gas_idx);
        for i in 0..store.len() {
            store.rung[i] = 0;
        }
        if hydro && !gas_idx.is_empty() {
            for (gi, &i) in gas_idx.iter().enumerate() {
                let vsig = vsig_prev.get(gi).copied().unwrap_or(0.0);
                let cs_proxy = (sph_cfg.eos.gamma * (sph_cfg.eos.gamma - 1.0)
                    * store.u[i].max(1e-10))
                .sqrt();
                let dt_code = cfl_timestep(
                    &[store.h[i]],
                    &[vsig],
                    &[cs_proxy],
                    cfg.cfl,
                );
                let da_desired = dt_code * a0 * kd.hubble(a0);
                store.rung[i] = rung_for(da_desired, da_pm, cfg.max_rung);
            }
        }
        let deepest = if cfg.flat_stepping {
            cfg.max_rung
        } else {
            store.rung[..store.len()].iter().copied().max().unwrap_or(0)
        };
        let rung_stats = RungStats::from_rungs(&store.rung[..store.n_owned], deepest.max(1));
        let nsub = n_substeps(deepest);
        let da_s = da_pm / nsub as f64;

        // --- 4. short-range subcycle block (chained KDK) ---
        let sp_sr = tracer.begin(Phase::ShortRange, "subcycle-block");
        // Planned rank loss fires here — mid-step, after this step's
        // migrate/PM work but before its checkpoint, so the newest
        // checkpoint on disk predates the killed step (the node-loss
        // shape the Frontier-E campaign actually survived).
        if let Some(p) = &probe {
            if p.fire(FaultKind::RankPanic) {
                panic!(
                    "injected fault: rank {} lost at step {step}",
                    comm.rank()
                );
            }
        }
        let mut stars_this_step = 0u64;
        let gas_gather = &mut gas_gather;
        let mut kick_with_forces = |store: &mut ParticleStore,
                                    cm: &ChainingMesh,
                                    counters: &mut KernelCounters,
                                    profile: &mut ProfileTable,
                                    vsig_out: &mut Vec<f64>,
                                    a: f64,
                                    width: f64|
         -> u64 {
            // Short-range gravity for everyone. Launches go through the
            // relaunch harness: an injected launch failure discards the
            // attempt and recomputes — deterministic inputs make the
            // retry bit-identical, so physics is unaffected.
            let mut launch_counters = KernelCounters::default();
            let g = execute_with_relaunch(
                4,
                &mut launch_counters,
                |_| {
                    probe
                        .as_ref()
                        .map(|p| p.fire(FaultKind::GpuLaunch))
                        .unwrap_or(false)
                },
                || {
                    let g = grav_step(&store.pos, &store.mass, cm, &grav_cfg);
                    let c = g.counters.clone();
                    (g, c)
                },
            );
            if let Some(p) = &probe {
                for _ in 0..launch_counters.relaunches {
                    p.recovered(FaultKind::GpuLaunch);
                }
            }
            counters.merge(&launch_counters);
            profile.record("grav_short_range", &launch_counters);
            let mut upd = store.n_owned as u64;
            for i in 0..store.n_owned {
                for d in 0..3 {
                    store.vel[i][d] += g.accel[i][d] / a * width;
                }
            }
            // CRKSPH for the gas.
            if hydro && !gas_idx.is_empty() {
                gas_gather.gather(store, &gas_idx, a);
                let gas_cm = ChainingMesh::build(&gas_gather.pos, dom_lo, dom_hi, &cm_cfg);
                let input = SphInput {
                    pos: &gas_gather.pos,
                    vel: &gas_gather.vpec,
                    mass: &gas_gather.mass,
                    h: &gas_gather.h,
                    u: &gas_gather.u,
                };
                let r = sph_step(&input, &gas_cm, &sph_cfg);
                counters.merge(&r.counters.merged());
                r.counters.record_into(profile);
                vsig_out.clear();
                vsig_out.extend_from_slice(&r.vsig);
                for (gi, &i) in gas_idx.iter().enumerate() {
                    if i >= store.n_owned {
                        continue;
                    }
                    for d in 0..3 {
                        store.vel[i][d] += r.accel[gi][d] * width;
                    }
                    store.u[i] = (store.u[i] + r.du_dt[gi] * width).max(1e-10);
                    // Update smoothing length from the fresh density.
                    let target = cfg.sph_eta
                        * (store.mass[i] / r.rho[gi].max(1e-30)).cbrt();
                    let spacing = cfg.particle_spacing();
                    store.h[i] = target.clamp(0.5 * spacing, H_CAP_SPACING * spacing);
                }
                upd += gas_idx.iter().filter(|&&i| i < store.n_owned).count() as u64;
            }
            upd
        };

        // Opening half-kick with fresh forces.
        updates += kick_with_forces(
            &mut store,
            &cm_all,
            &mut counters,
            &mut profile,
            &mut vsig_prev,
            a0,
            kd.kick_factor(a0, a0 + da_s) / 2.0,
        );
        for s in 0..nsub {
            let as0 = a0 + s as f64 * da_s;
            let as1 = as0 + da_s;
            // Drift everyone (owned; ghosts stay frozen within the step,
            // their error bounded by the overload slack).
            let drift = kd.drift_factor(as0, as1);
            for i in 0..store.n_owned {
                for d in 0..3 {
                    store.pos[i][d] += store.vel[i][d] * drift;
                }
            }
            // Hubble expansion cooling of the gas.
            if hydro {
                let f = kd.hubble_cooling_factor(as0, as1);
                for &i in &gas_idx {
                    if i < store.n_owned {
                        store.u[i] *= f;
                    }
                }
            }
            // Subgrid sources at substep granularity.
            if subgrid_on {
                stars_this_step += apply_subgrid(
                    &mut store,
                    &gas_idx,
                    &vsig_prev,
                    &cooling,
                    &sf,
                    &sn,
                    &kd,
                    &mut rng,
                    as0,
                    as1,
                );
            }
            // Grow leaf boxes instead of rebuilding (Section IV-B1).
            cm_all.grow_aabbs(&store.pos, None);
            // Closing kick: half on the last substep, full otherwise.
            let w = if s + 1 == nsub {
                kd.kick_factor(as0, as1) / 2.0
            } else {
                kd.kick_factor(as0, as1)
            };
            updates += kick_with_forces(
                &mut store,
                &cm_all,
                &mut counters,
                &mut profile,
                &mut vsig_prev,
                as1.min(a1),
                w,
            );
        }
        tracer.end(sp_sr);

        // --- 5. in-situ analysis (+ science output through the tiers) ---
        if cfg.analysis_every > 0 && (step + 1) % cfg.analysis_every == 0 {
            let sp = tracer.begin(Phase::Analysis, "in-situ-analysis");
            let halos =
                run_analysis_step(cfg, comm, &store, &agn, &mut black_holes, &kd, a1);
            tracer.end(sp);
            // Halo catalogs are the paper's ~12 PB science side channel:
            // written through the same tiers, never pruned.
            if let Some(w) = writer.as_mut() {
                let sp = tracer.begin(Phase::Io, "halo-catalog");
                let frac = step as f64 / cfg.pm_steps.max(1) as f64;
                for c in halo_cols.iter_mut() {
                    c.clear();
                }
                halo_cols[0].extend(halos.iter().map(|h| h.mass));
                halo_cols[1].extend(halos.iter().map(|h| h.center[0]));
                halo_cols[2].extend(halos.iter().map(|h| h.center[1]));
                halo_cols[3].extend(halos.iter().map(|h| h.center[2]));
                let blocks = [
                    Block::from_f64("mass", &halo_cols[0]),
                    Block::from_f64("x", &halo_cols[1]),
                    Block::from_f64("y", &halo_cols[2]),
                    Block::from_f64("z", &halo_cols[3]),
                ];
                let _ = w.write_output(
                    // p1: allow: per-step catalog filename on the I/O path
                    &format!("halos_{step:08}.gio"),
                    &blocks,
                    frac * 0.8,
                    1.3,
                );
                tracer.end(sp);
            }
        }

        // --- 6. closing long-range half-kick ---
        let sp = tracer.begin(Phase::LongRange, "pm-solve+closing-half-kick");
        lr_pos.clear();
        lr_pos.extend_from_slice(&store.pos[..store.n_owned]);
        lr_mass.clear();
        lr_mass.extend_from_slice(&store.mass[..store.n_owned]);
        let lr_acc = pm.accelerations(comm, &lr_pos, &lr_mass);
        for i in 0..store.n_owned {
            for d in 0..3 {
                store.vel[i][d] += lr_acc[i][d] / a1 * half_kick;
            }
        }
        tracer.end(sp);

        // --- 7. tiered checkpoint of the completed step ---
        let gpu_s = model.kernel_time_s(&counters) - model.kernel_time_s(&counters_step_start);
        let mut io_blocking = 0.0;
        if let Some(w) = writer.as_mut() {
            if (step + 1) % cfg.checkpoint_every == 0 {
                let sp = tracer.begin(Phase::Io, "checkpoint");
                // Low-z clustering raises PFS contention and grows the
                // node data imbalance toward ~2x (Section VI-B); analysis
                // output steps dip the NVMe bandwidth by up to 30%.
                let frac = step as f64 / cfg.pm_steps.max(1) as f64;
                let phase = frac * 0.8;
                let imbalance = 1.0 + frac;
                let analysis_dip = if cfg.analysis_every > 0
                    && (step + 1) % cfg.analysis_every == 0
                {
                    1.3
                } else {
                    1.0
                };
                w.advance_time(gpu_s.max(60.0));
                let blocks = checkpoint_blocks(&store, cfg.box_size);
                io_blocking = w
                    .write_checkpoint(step as u64, &blocks, phase, imbalance * analysis_dip)
                    .unwrap_or_else(|e| {
                        escalate(StepError::CheckpointWrite {
                            step: step as u64,
                            // p1: allow: cold path — only runs when a checkpoint write fails, right before unwinding
                            cause: e.to_string(),
                        })
                    });
                tracer.end(sp);
            }
        }

        // --- conservation ledger: globally reduced end-of-step totals ---
        // Ownership only changes at migrate (next step's entry), so the
        // count reduced after migration is the end-of-step count too. The
        // f64 sums reduce elementwise in rank order — deterministic for a
        // fixed rank count.
        let sp = tracer.begin(Phase::Misc, "ledger-reduce");
        let mut local = [0.0f64; 7];
        for i in 0..store.n_owned {
            let m = store.mass[i];
            local[0] += m;
            let mut v2 = 0.0;
            for d in 0..3 {
                let p = m * store.vel[i][d];
                local[1 + d] += p;
                local[4] += p.abs();
                v2 += store.vel[i][d] * store.vel[i][d];
            }
            local[5] += 0.5 * m * v2;
            if store.species[i] == Species::Gas {
                local[6] += m * store.u[i];
            }
        }
        let tot = comm.all_reduce(local, |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        // p1: allow: conservation ledger, one bounded record per PM step
        ledger.push(LedgerRecord {
            step: step as u64,
            count: n_owned_global,
            mass: tot[0],
            momentum: [tot[1], tot[2], tot[3]],
            momentum_scale: tot[4],
            kinetic: tot[5],
            internal: tot[6],
        });
        tracer.end(sp);

        total_stars += comm.all_reduce_sum_u64(stars_this_step);
        let stars_formed = comm.all_reduce_sum_u64(stars_this_step);
        let gpu_max = comm.all_reduce_f64(gpu_s, f64::max);
        // The step span is the wall-clock authority here: the tracer is
        // the blessed measurement point (lint rule D1 bans raw
        // Instant::now in the driver) and wall_s stays non-golden.
        let wall = tracer.end(sp_step);
        let wall_max = comm.all_reduce_f64(wall, f64::max);
        // p1: allow: appends into capacity preallocated to pm_steps
        steps.push(StepRecord {
            step,
            a: a0,
            z: 1.0 / a0 - 1.0,
            substeps: nsub,
            rung_stats,
            particles: n_owned_global,
            stars_formed,
            gpu_seconds_modeled: gpu_max,
            io_blocking_s: io_blocking,
            wall_seconds: wall_max,
        });
    }

    // --- final analysis: P(k), FOF, xi(r), HOD galaxies, SZ map ---
    let sp = tracer.begin(Phase::Analysis, "final-analysis");
    let (power, n_halos, largest_halo, xi, n_galaxies, y_conc) =
        final_analysis(cfg, comm, &store, &mut rng);
    tracer.end(sp);

    let state_hash = global_state_hash(comm, &store, cfg.box_size);
    let faults = probe.as_ref().map(|p| p.counters()).unwrap_or_default();
    let io = writer.map(|w| w.finish());
    let utilization = model.utilization(&counters);
    let mut momentum = [0.0f64; 3];
    let mut momentum_scale = 0.0f64;
    for i in 0..store.n_owned {
        for d in 0..3 {
            momentum[d] += store.mass[i] * store.vel[i][d];
            momentum_scale += (store.mass[i] * store.vel[i][d]).abs();
        }
    }
    RankOutput {
        steps,
        spans: tracer.into_spans(),
        comm: comm.telemetry(),
        ledger,
        counters,
        profile,
        utilization,
        io,
        power,
        n_halos,
        largest_halo,
        xi,
        n_galaxies,
        y_map_concentration: y_conc,
        total_stars,
        updates,
        momentum,
        momentum_scale,
        faults,
        state_hash,
    }
}

/// FNV-1a over a byte slice (streaming).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x1_0000_01b3);
    }
}

/// Bitwise hash of the global particle state: rows of (id, box-wrapped
/// position, velocity, mass, u, metals, h) gathered to rank 0, sorted by
/// particle id, and folded with FNV-1a over the exact little-endian f64
/// bit patterns. The id sort makes the hash independent of ownership and
/// in-rank ordering; the wrap makes it match the checkpoint's canonical
/// form, so a recovered run and its uninterrupted reference agree
/// bit-for-bit or not at all. Every rank returns the same value.
fn global_state_hash(comm: &mut Comm, store: &ParticleStore, box_size: f64) -> u64 {
    let n = store.n_owned;
    let rows: Vec<(u64, [u64; 10])> = (0..n)
        .map(|i| {
            (
                store.id[i],
                [
                    store.pos[i][0].rem_euclid(box_size).to_bits(),
                    store.pos[i][1].rem_euclid(box_size).to_bits(),
                    store.pos[i][2].rem_euclid(box_size).to_bits(),
                    store.vel[i][0].to_bits(),
                    store.vel[i][1].to_bits(),
                    store.vel[i][2].to_bits(),
                    store.mass[i].to_bits(),
                    store.u[i].to_bits(),
                    store.metals[i].to_bits(),
                    store.h[i].to_bits(),
                ],
            )
        })
        .collect();
    let gathered = comm.gather(0, rows);
    let hash = if let Some(per_rank) = gathered {
        let mut flat: Vec<(u64, [u64; 10])> =
            per_rank.into_iter().flatten().collect();
        flat.sort_by_key(|r| r.0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, words) in flat {
            fnv1a(&mut h, &id.to_le_bytes());
            for w in words {
                fnv1a(&mut h, &w.to_le_bytes());
            }
        }
        h
    } else {
        0
    };
    comm.broadcast(0, hash)
}

/// Cooling, star formation, and SN feedback over one substep.
#[allow(clippy::too_many_arguments)]
fn apply_subgrid(
    store: &mut ParticleStore,
    gas_idx: &[usize],
    _vsig: &[f64],
    cooling: &CoolingModel,
    sf: &StarFormationModel,
    sn: &SupernovaModel,
    kd: &KickDrift,
    rng: &mut rand::rngs::StdRng,
    a0: f64,
    a1: f64,
) -> u64 {
    let dt_gyr = kd.dt_gyr(a0, a1);
    let a = 0.5 * (a0 + a1);
    // Approximate local comoving density from the smoothing length
    // (rho = m (eta/h)^3) — the cheap estimate the subgrid models key on.
    let rho_of = |store: &ParticleStore, i: usize, eta: f64| {
        let h = store.h[i].max(1e-6);
        store.mass[i] * (eta / h).powi(3)
    };
    let eta = 1.6;
    let mut new_stars: Vec<usize> = Vec::new();
    for &i in gas_idx {
        if i >= store.n_owned {
            continue;
        }
        let rho = rho_of(store, i, eta);
        let z_metal = store.metals[i];
        store.u[i] = cooling.cool_particle(rho, store.u[i], z_metal, a, dt_gyr);
        if sf.try_form_star(rng, rho, store.u[i], a, dt_gyr) {
            new_stars.push(i);
        }
    }
    // Convert and inject feedback.
    let stars = new_stars.len() as u64;
    if !new_stars.is_empty() {
        // Gas positions for the neighbor search.
        let gas_owned: Vec<usize> = gas_idx
            .iter()
            .copied()
            .filter(|&i| i < store.n_owned)
            .collect();
        let pos: Vec<[f64; 3]> = gas_owned.iter().map(|&i| store.pos[i]).collect();
        let bvh = Lbvh::build(&pos);
        for &i in &new_stars {
            store.species[i] = Species::Star;
            let m_star = store.mass[i];
            let neighbors = bvh.query_radius(&store.pos[i], 2.0 * store.h[i]);
            let targets: Vec<usize> = neighbors
                .iter()
                .map(|&g| gas_owned[g as usize])
                .filter(|&j| j != i && store.species[j] == Species::Gas)
                .collect();
            if targets.is_empty() {
                continue;
            }
            let weights = vec![1.0; targets.len()];
            let masses: Vec<f64> = targets.iter().map(|&j| store.mass[j]).collect();
            let (du, dz) = sn.distribute(m_star, &weights, &masses);
            for (k, &j) in targets.iter().enumerate() {
                store.u[j] += du[k];
                store.metals[j] =
                    (store.metals[j] * store.mass[j] + dz[k]) / store.mass[j];
            }
        }
    }
    stars
}

/// Periodic in-situ analysis: FOF + AGN bookkeeping. Returns the halo
/// catalog for the science-output channel.
fn run_analysis_step(
    cfg: &SimConfig,
    _comm: &mut Comm,
    store: &ParticleStore,
    agn: &AgnModel,
    black_holes: &mut Vec<BlackHole>,
    kd: &KickDrift,
    a: f64,
) -> Vec<hacc_analysis::Halo> {
    let n = store.n_owned;
    if n == 0 {
        return vec![];
    }
    let pos: Vec<[f64; 3]> = store.pos[..n].to_vec();
    let vel: Vec<[f64; 3]> = store.vel[..n].to_vec();
    let mass: Vec<f64> = store.mass[..n].to_vec();
    let b_link = 0.2 * cfg.particle_spacing();
    let halos = fof_halos(&pos, &vel, &mass, b_link, 10);
    // AGN: seed in massive halos lacking a nearby black hole; accrete.
    let dt_gyr = kd.dt_gyr((a - cfg.da_pm()).max(1e-3), a);
    for h in &halos {
        if !agn.should_seed(h.mass) {
            continue;
        }
        let near = black_holes.iter().any(|bh| {
            let d2: f64 = (0..3).map(|d| (bh.pos[d] - h.center[d]).powi(2)).sum();
            d2 < (2.0 * b_link).powi(2)
        });
        if !near {
            black_holes.push(agn.seed(h.center));
        }
    }
    for bh in black_holes.iter_mut() {
        // Crude local gas state: cosmic mean density boosted by halo
        // overdensity ~200, cold-phase sound speed.
        let rho = 200.0 * cfg.cosmology.omega_b * hacc_units::constants::RHO_CRIT0
            / a.powi(3);
        agn.accrete(bh, rho, 30.0, 50.0, dt_gyr);
        let _ = agn.try_dump(bh, mass.first().copied().unwrap_or(1.0));
    }
    halos
}

/// Final-state analysis.
fn final_analysis(
    cfg: &SimConfig,
    comm: &mut Comm,
    store: &ParticleStore,
    rng: &mut rand::rngs::StdRng,
) -> (Vec<PowerBin>, usize, f64, Vec<XiBin>, u64, f64) {
    let n = store.n_owned;
    let pos: Vec<[f64; 3]> = store.pos[..n].to_vec();
    let vel: Vec<[f64; 3]> = store.vel[..n].to_vec();
    let mass: Vec<f64> = store.mass[..n].to_vec();
    // P(k) over all ranks through the PM deposit path.
    let pm = PmSolver::new(
        comm,
        PmConfig {
            n: cfg.ngrid,
            box_size: cfg.box_size,
            prefactor: 1.0,
            split_scale: 0.0,
            deconvolve_cic: false,
        },
    );
    let (delta_k, y0, ny) = pm.density_k(comm, &pos, &mass);
    let power = measure_power(comm, &delta_k, cfg.ngrid, y0, ny, cfg.box_size);
    // Local FOF (per-rank; the global count is the reduced sum).
    let b_link = 0.2 * cfg.particle_spacing();
    let halos = fof_halos(&pos, &vel, &mass, b_link, 10);
    let local_max = halos.first().map(|h| h.mass).unwrap_or(0.0);
    let n_halos = comm.all_reduce_sum_u64(halos.len() as u64) as usize;
    let largest = comm.all_reduce_f64(local_max, f64::max);

    // HOD galaxy mock: scale M_min to the resolved halo masses (a few
    // tens of particles) so miniature boxes populate at all.
    let m_particle = mass.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut hod = HodParams::fiducial();
    if m_particle.is_finite() && m_particle > 0.0 {
        hod.log_m_min = (20.0 * m_particle).log10();
        hod.log_m0 = hod.log_m_min + 0.2;
        hod.log_m1 = hod.log_m_min + 1.0;
    }
    let spacing = cfg.particle_spacing();
    let galaxies = populate(rng, &halos, &hod, |_| spacing);
    let n_galaxies = comm.all_reduce_sum_u64(galaxies.len() as u64);

    // Two-point correlation function on a rank-0 subsample (the
    // decomposition-independent statistic is P(k); xi is a local
    // diagnostic here).
    let xi = if comm.rank() == 0 && pos.len() > 50 {
        let stride = (pos.len() / 1500).max(1);
        let sample: Vec<[f64; 3]> = pos.iter().step_by(stride).copied().collect();
        correlation_function(
            &sample,
            cfg.box_size,
            0.3 * spacing,
            0.25 * cfg.box_size,
            8,
        )
    } else {
        vec![]
    };

    // Compton-y mock map of the gas, for the SZ concentration diagnostic.
    let gas: Vec<usize> = store.indices_of(Species::Gas);
    let y_conc = if gas.len() > 10 {
        let gpos: Vec<[f64; 3]> = gas.iter().map(|&i| store.pos[i]).collect();
        let gmass: Vec<f64> = gas.iter().map(|&i| store.mass[i]).collect();
        let gu: Vec<f64> = gas.iter().map(|&i| store.u[i]).collect();
        compton_y_map(&gpos, &gmass, &gu, cfg.box_size, 64).concentration(0.01)
    } else {
        0.0
    };
    (power, n_halos, largest, xi, n_galaxies, y_conc)
}

/// Serialize the owned particles into checkpoint blocks (the complete
/// restart state: a resumed run reconstructs the store exactly).
///
/// Positions are wrapped into the periodic box at write time: the last
/// substep drift runs after migration, so in-memory positions can sit
/// slightly outside `[0, box)` until the next step's wrap — but the
/// checkpoint is the restart contract and must be canonical.
fn checkpoint_blocks(store: &ParticleStore, box_size: f64) -> Vec<Block> {
    let n = store.n_owned;
    let flat = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..n).map(f).collect() };
    vec![
        Block::from_f64("x", &flat(&|i| store.pos[i][0].rem_euclid(box_size))),
        Block::from_f64("y", &flat(&|i| store.pos[i][1].rem_euclid(box_size))),
        Block::from_f64("z", &flat(&|i| store.pos[i][2].rem_euclid(box_size))),
        Block::from_f64("vx", &flat(&|i| store.vel[i][0])),
        Block::from_f64("vy", &flat(&|i| store.vel[i][1])),
        Block::from_f64("vz", &flat(&|i| store.vel[i][2])),
        Block::from_f64("mass", &flat(&|i| store.mass[i])),
        Block::from_f64("u", &flat(&|i| store.u[i])),
        Block::from_f64("metals", &flat(&|i| store.metals[i])),
        Block::from_f64("h", &flat(&|i| store.h[i])),
        Block::from_u64("id", &store.id[..n].to_vec()),
        Block::from_u64(
            "species",
            &store.species[..n]
                .iter()
                .map(|&sp| sp as u64)
                .collect::<Vec<_>>(),
        ),
        Block::from_u64("rung", &store.rung[..n].iter().map(|&r| r as u64).collect::<Vec<_>>()),
    ]
}

/// Rebuild a particle store from checkpoint blocks.
fn store_from_blocks(blocks: &[Block]) -> ParticleStore {
    let find = |name: &str| -> &Block {
        blocks.iter().find(|b| b.name == name).unwrap_or_else(|| {
            escalate(StepError::CheckpointDecode { field: name.to_string() })
        })
    };
    let get = |name: &str| -> Vec<f64> { find(name).as_f64() };
    let get_u = |name: &str| -> Vec<u64> { find(name).as_u64() };
    let (x, y, z) = (get("x"), get("y"), get("z"));
    let (vx, vy, vz) = (get("vx"), get("vy"), get("vz"));
    let (mass, u, metals, h) = (get("mass"), get("u"), get("metals"), get("h"));
    let (id, species, rung) = (get_u("id"), get_u("species"), get_u("rung"));
    let n = x.len();
    let mut store = ParticleStore::new();
    for i in 0..n {
        let sp = match species[i] {
            0 => Species::DarkMatter,
            1 => Species::Gas,
            _ => Species::Star,
        };
        store.push([x[i], y[i], z[i]], [vx[i], vy[i], vz[i]], mass[i], sp, u[i], h[i], id[i]);
        store.metals[i] = metals[i];
        store.rung[i] = rung[i] as u32;
    }
    store.seal_owned();
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telem::{phase_seconds, PHASES};

    fn quick_cfg(np: usize, physics: Physics) -> SimConfig {
        let mut c = SimConfig::small(np);
        c.physics = physics;
        c.pm_steps = 2;
        c.max_rung = 1;
        c.analysis_every = 2;
        c.checkpoint_every = 1;
        c
    }

    #[test]
    fn gravity_only_run_completes_and_conserves_momentum() {
        let cfg = quick_cfg(8, Physics::GravityOnly);
        let report = run_simulation(&cfg, 2);
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.total_particles, 512);
        // Momentum: the ICs have exactly zero net momentum; forces are
        // pairwise antisymmetric, so the net should stay a small fraction
        // of the gross scale sum m|p| (stale-ghost asymmetry within a PM
        // step bounds it away from roundoff).
        for d in 0..3 {
            assert!(
                report.total_momentum[d].abs() < 0.05 * report.momentum_scale,
                "runaway momentum {:?} vs scale {}",
                report.total_momentum,
                report.momentum_scale
            );
        }
        assert!(report.counters.flops > 0);
        assert!(phase_seconds(&report.telemetry.ranks).iter().sum::<f64>() > 0.0);
        assert!(!report.power.is_empty());
    }

    #[test]
    fn hydro_run_completes_with_positive_energies() {
        let cfg = quick_cfg(8, Physics::Hydro);
        let report = run_simulation(&cfg, 2);
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.total_particles, 1024);
        assert!(report.utilizations.len() == 2);
        assert!(report.utilizations.iter().all(|&u| u > 0.0 && u < 1.0));
        assert!(report.io.checkpoints >= 2);
        assert!(report.io.effective_bandwidth_tbs() > 0.0);
    }

    #[test]
    fn particles_stay_in_box() {
        let cfg = quick_cfg(8, Physics::HydroAdiabatic);
        let report = run_simulation(&cfg, 1);
        // The run completing with finite stats is the wrapping check
        // (migrate asserts owners exist for every wrapped position).
        assert!(report.particles_per_second.is_finite());
    }

    #[test]
    fn flat_stepping_forces_max_substeps() {
        let mut cfg = quick_cfg(8, Physics::HydroAdiabatic);
        cfg.flat_stepping = true;
        cfg.max_rung = 2;
        let report = run_simulation(&cfg, 1);
        assert!(report.steps.iter().all(|s| s.substeps == 4));
    }

    #[test]
    fn short_range_dominates_runtime() {
        // The Fig. 2 structural claim at miniature scale: the short-range
        // solver is the largest phase. Wall-clock phase totals need the
        // un-multiplexed reference backend: under cooperative scheduling
        // a rank's comm-wait time is charged to the blocking phase,
        // which inflates the comm-heavy long-range solve when ranks
        // oversubscribe the host cores.
        let mut cfg = quick_cfg(10, Physics::Hydro);
        cfg.backend = Some(hacc_ranks::Backend::Threads);
        let report = run_simulation(&cfg, 2);
        let secs = phase_seconds(&report.telemetry.ranks);
        let sr = secs[Phase::ShortRange as usize];
        for (p, s) in PHASES.iter().zip(secs) {
            assert!(
                sr >= s,
                "{} ({s:.3}s) exceeds short-range ({sr:.3}s)",
                p.name()
            );
        }
    }

    #[test]
    fn phase_seconds_partition_each_ranks_traced_wall() {
        let cfg = quick_cfg(8, Physics::Hydro);
        let report = run_simulation(&cfg, 2);
        for rt in &report.telemetry.ranks {
            let phases: f64 = phase_seconds(std::slice::from_ref(rt)).iter().sum();
            let traced: f64 = rt
                .spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| s.wall_s)
                .sum();
            assert!(traced > 0.0);
            assert!(
                (phases - traced).abs() <= 1e-9 * traced,
                "rank {}: phases {phases:.9}s != traced wall {traced:.9}s",
                rt.rank
            );
        }
    }

    #[test]
    fn particles_per_second_is_updates_per_step_wall_second() {
        // particles/s x the summed step wall is the update count, which
        // no backend changes — however the ranks share the host's cores.
        let updates = |backend| {
            let mut cfg = quick_cfg(8, Physics::Hydro);
            cfg.backend = Some(backend);
            let report = run_simulation(&cfg, 4);
            let wall: f64 = report.steps.iter().map(|s| s.wall_seconds).sum();
            report.particles_per_second * wall
        };
        let coop = updates(hacc_ranks::Backend::Cooperative);
        let threads = updates(hacc_ranks::Backend::Threads);
        assert!(coop > 0.0);
        assert!(
            (coop - threads).abs() <= 1e-9 * coop,
            "coop {coop} vs threads {threads} updates"
        );
    }

    #[test]
    fn default_io_dir_is_removed_when_the_run_ends() {
        // A seed no other test uses, so the prefix names only this
        // test's directories.
        let seed = 90_210_777;
        let prefix = format!("frontier-sim-{}-{seed}", std::process::id());
        let leftovers = || -> Vec<String> {
            std::fs::read_dir(std::env::temp_dir())
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| *n == prefix || n.starts_with(&format!("{prefix}-")))
                .collect()
        };
        let mut cfg = quick_cfg(8, Physics::GravityOnly);
        cfg.seed = seed;
        assert!(cfg.io_dir.is_none());
        let plain = run_simulation(&cfg, 2);
        assert!(plain.io.checkpoints >= 2);
        assert_eq!(leftovers(), Vec::<String>::new());
        // Supervised: the directory outlives the failed attempt (the
        // rollback reads its checkpoints) and goes after the last one.
        cfg.chaos = Some("panic@1:0".into());
        let recovered = run_supervised(&cfg, 2);
        assert_eq!(recovered.rollbacks, 1);
        assert_eq!(recovered.final_state_hash, plain.final_state_hash);
        assert_eq!(leftovers(), Vec::<String>::new());
    }

    #[test]
    fn profile_table_names_the_hot_kernels() {
        let cfg = quick_cfg(8, Physics::Hydro);
        let report = run_simulation(&cfg, 1);
        // All four hydro stages plus gravity are recorded.
        for name in ["grav_short_range", "sph_density", "crk_moments", "crk_force"] {
            assert!(
                report.profile.get(name).map(|c| c.flops > 0).unwrap_or(false),
                "kernel {name} missing from profile"
            );
        }
        // The force kernel dominates the hydro stages (most FLOPs/pair).
        let force = report.profile.get("crk_force").unwrap().flops;
        let dens = report.profile.get("sph_density").unwrap().flops;
        assert!(force > dens, "force {force} should exceed density {dens}");
    }
}
