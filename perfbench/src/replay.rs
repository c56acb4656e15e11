//! The traced replay: one workload's PM steps, driven from the benchmark
//! through the simulator's public entry points in the driver's order,
//! with a span around every call into a layer.
//!
//! The replay repeats the driver's arithmetic (kicks, drifts, rung
//! assignment, subgrid sources) so its work counts can be checked against
//! the driver's own counters for the same seed. Two kinds of call are the
//! benchmark's own and are kept out of that check: a barrier before every
//! timed call that contains collectives (its span is `comm.wait`) and a
//! forward + inverse `DistFft3d` round trip per PM step (`fft.roundtrip`),
//! which times the distributed FFT alone.

use crate::spans::{Span, SpanRecorder};
use hacc_analysis::{correlation_function, fof_halos, measure_power, Lbvh};
use hacc_core::ic::generate_ics;
use hacc_core::kicks::KickDrift;
use hacc_core::overload::{exchange_overload, migrate};
use hacc_core::timestep::{n_substeps, rung_for};
use hacc_core::{ParticleStore, Physics, SimConfig, Species};
use hacc_gpusim::{ExecutionModel, KernelCounters, ProfileTable};
use hacc_grav::{grav_step, GravConfig};
use hacc_iosim::{Block, IoStats, TieredConfig, TieredWriter};
use hacc_mesh::{PmConfig, PmSolver};
use hacc_ranks::{CartDecomp, Comm};
use hacc_rt::rand::rngs::StdRng;
use hacc_rt::rand::SeedableRng;
use hacc_sph::pipeline::{cfl_timestep, sph_step, SphConfig, SphInput};
use hacc_sph::CubicSpline;
use hacc_subgrid::{CoolingModel, StarFormationModel, SupernovaModel};
use hacc_swfft::{Complex64, DistFft3d};
use hacc_tree::{ChainingMesh, CmConfig};
use hacc_units::constants::G_NEWTON;
use hacc_units::Background;
use std::path::Path;
use std::time::Instant;

/// Smoothing-length cap in interparticle spacings (the driver's value).
const H_CAP_SPACING: f64 = 1.75;

/// Message, byte and collective totals of one communicator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommTotals {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Collective entries, all kinds.
    pub collectives: u64,
}

impl CommTotals {
    fn of(comm: &Comm) -> Self {
        let t = comm.telemetry();
        Self {
            messages: t.sends,
            bytes: t.bytes_sent,
            collectives: t.total_collectives(),
        }
    }

    fn add_since(&mut self, before: CommTotals, now: CommTotals) {
        self.messages += now.messages - before.messages;
        self.bytes += now.bytes - before.bytes;
        self.collectives += now.collectives - before.collectives;
    }

    fn minus(self, o: CommTotals) -> CommTotals {
        CommTotals {
            messages: self.messages - o.messages,
            bytes: self.bytes - o.bytes,
            collectives: self.collectives - o.collectives,
        }
    }
}

/// Work one rank did during the replay.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Short-range kernel counters by the driver's profile names.
    pub profile: ProfileTable,
    /// All short-range kernel counters merged.
    pub kernels: KernelCounters,
    /// Chaining-mesh builds.
    pub tree_builds: u64,
    /// Particles binned over all builds.
    pub tree_particles: u64,
    /// Gravity leaf-pair interactions listed per step-start build.
    pub leaf_pairs: u64,
    /// Long-range PM solves.
    pub pm_solves: u64,
    /// FFTs of the benchmark's round trips.
    pub fft_transforms: u64,
    /// Owned particles summed over steps (after the overload exchange).
    pub owned: u64,
    /// Ghost particles summed over steps.
    pub ghosts: u64,
    /// Traffic of the calls the driver also makes.
    pub comm_driver: CommTotals,
    /// Traffic of the benchmark's own barriers and FFT round trips.
    pub comm_bench: CommTotals,
    /// Checkpoint payload bytes read back.
    pub ckpt_bytes_read: u64,
    /// FOF halos found by the final analysis (global).
    pub halos: u64,
}

/// Everything one rank's replay produced.
#[derive(Debug)]
pub struct RankReplay {
    /// Spans, in opening order.
    pub spans: Vec<Span>,
    /// Work counts.
    pub work: Work,
    /// This rank's tiered-writer statistics.
    pub io: IoStats,
    /// Final-state hash, computed as the driver computes it.
    pub state_hash: u64,
}

/// Replay `cfg` on this rank, doing I/O under `io_base`.
pub fn replay_rank(
    cfg: &SimConfig,
    comm: &mut Comm,
    io_base: &Path,
    workload: &'static str,
    epoch: Instant,
) -> RankReplay {
    let rank = comm.rank();
    let mut rec = SpanRecorder::new(epoch, rank, workload);
    let root = rec.begin("replay");
    let bg = Background::new(cfg.cosmology);
    let decomp = CartDecomp::new(comm.size());
    let mut store = rec.time("core.ics", || generate_ics(cfg, &bg, &decomp, rank));
    let mut r = Replayer::new(cfg, comm, io_base, rec);
    for step in 0..cfg.pm_steps {
        r.step(comm, &decomp, &mut store, step);
    }
    r.rec.set_step(None);
    let state_hash = r.final_analysis(comm, &store);
    let Replayer {
        mut rec,
        mut work,
        writer,
        ..
    } = r;
    let io = rec.time("io.drain", || writer.finish());
    work.comm_driver = CommTotals::of(comm).minus(work.comm_bench);
    rec.end(root);
    RankReplay {
        spans: rec.into_spans(),
        work,
        io,
        state_hash,
    }
}

/// The driver's long-range solver configuration.
fn pm_config(cfg: &SimConfig) -> PmConfig {
    PmConfig {
        n: cfg.ngrid,
        box_size: cfg.box_size,
        prefactor: 4.0 * std::f64::consts::PI * G_NEWTON,
        split_scale: cfg.split_scale(),
        deconvolve_cic: true,
    }
}

/// The driver's short-range gravity configuration (builds the force-split
/// table).
fn grav_config(cfg: &SimConfig) -> GravConfig {
    let mut g = GravConfig::new(
        G_NEWTON,
        cfg.split_scale(),
        cfg.softening_frac * cfg.particle_spacing(),
    );
    g.device = cfg.device;
    g.mode = cfg.exec_mode;
    g
}

/// The driver's per-rank tiered-I/O layout under `io_base`.
fn tiered_config(cfg: &SimConfig, io_base: &Path, rank: usize) -> TieredConfig {
    TieredConfig {
        local_dir: io_base.join(format!("nvme-{rank}")),
        pfs_dir: io_base.join("pfs").join(format!("rank-{rank}")),
        window: cfg.checkpoint_window.max(1),
        ..TieredConfig::frontier(io_base)
    }
}

/// Time this rank's share of the driver's set-up before the first PM
/// step: initial conditions, the PM solver, the force-split table and the
/// tiered writer. The writer is shut down outside the timed part.
pub fn time_setup(cfg: &SimConfig, comm: &mut Comm, io_base: &Path) -> f64 {
    comm.barrier();
    let t0 = Instant::now();
    let bg = Background::new(cfg.cosmology);
    let store = generate_ics(cfg, &bg, &CartDecomp::new(comm.size()), comm.rank());
    let pm = PmSolver::new(comm, pm_config(cfg));
    let grav = grav_config(cfg);
    let writer = TieredWriter::new(tiered_config(cfg, io_base, comm.rank()))
        .unwrap_or_else(|e| panic!("tiered writer setup failed: {e}"));
    let elapsed = t0.elapsed().as_secs_f64();
    drop((store, pm, grav));
    writer.finish();
    elapsed
}

struct Replayer<'a> {
    cfg: &'a SimConfig,
    rec: SpanRecorder,
    work: Work,
    kd: KickDrift,
    pm: PmSolver,
    fft: DistFft3d,
    grav_cfg: GravConfig,
    sph_cfg: SphConfig<CubicSpline>,
    cooling: CoolingModel,
    sf: StarFormationModel,
    sn: SupernovaModel,
    model: ExecutionModel,
    writer: TieredWriter,
    pfs: std::path::PathBuf,
    rng: StdRng,
    vsig_prev: Vec<f64>,
    gas_idx: Vec<usize>,
}

impl<'a> Replayer<'a> {
    fn new(cfg: &'a SimConfig, comm: &Comm, io_base: &Path, rec: SpanRecorder) -> Self {
        let rank = comm.rank();
        let mut sf = StarFormationModel::new(cfg.cosmology.h);
        sf.nh_threshold = cfg.sf_nh_threshold;
        let tiered = tiered_config(cfg, io_base, rank);
        let pfs = tiered.pfs_dir.clone();
        let writer =
            TieredWriter::new(tiered).unwrap_or_else(|e| panic!("tiered writer setup failed: {e}"));
        Self {
            cfg,
            rec,
            work: Work::default(),
            kd: KickDrift::new(cfg.cosmology),
            pm: PmSolver::new(comm, pm_config(cfg)),
            fft: DistFft3d::new(comm, cfg.ngrid),
            grav_cfg: grav_config(cfg),
            sph_cfg: SphConfig {
                kernel: CubicSpline,
                eos: Default::default(),
                opts: Default::default(),
                device: cfg.device,
                mode: cfg.exec_mode,
            },
            cooling: CoolingModel::new(cfg.cosmology.h),
            sf,
            sn: SupernovaModel::new(),
            model: ExecutionModel::new(cfg.device),
            writer,
            pfs,
            // The driver's per-rank subgrid stream.
            rng: StdRng::seed_from_u64((cfg.seed ^ ((rank as u64) << 32)) | 1),
            vsig_prev: Vec::new(),
            gas_idx: Vec::new(),
        }
    }

    /// The benchmark's barrier before a timed call with collectives.
    fn wait(&mut self, comm: &mut Comm) {
        let before = CommTotals::of(comm);
        self.rec.time("comm.wait", || comm.barrier());
        self.work.comm_bench.add_since(before, CommTotals::of(comm));
    }

    fn long_range(&mut self, comm: &mut Comm, store: &ParticleStore) -> Vec<[f64; 3]> {
        let n = store.n_owned;
        let (pos, mass) = (&store.pos[..n], &store.mass[..n]);
        self.wait(comm);
        self.work.pm_solves += 1;
        let pm = &self.pm;
        self.rec
            .time("pm.accelerations", || pm.accelerations(comm, pos, mass))
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        comm: &mut Comm,
        decomp: &CartDecomp,
        store: &mut ParticleStore,
        step: usize,
    ) {
        let cfg = self.cfg;
        let kd = self.kd;
        let da_pm = cfg.da_pm();
        let a0 = cfg.a_init + step as f64 * da_pm;
        let a1 = a0 + da_pm;
        let hydro = cfg.physics != Physics::GravityOnly;
        let counters_step_start = self.work.kernels.clone();
        self.rec.set_step(Some(step));
        let sp_step = self.rec.begin("step");

        // 1. migrate + overload refresh.
        let overload_width = cfg.overload_cells * cfg.cell_size();
        self.wait(comm);
        self.rec.time("overload.exchange", || {
            migrate(comm, decomp, store, cfg.box_size);
            exchange_overload(comm, decomp, store, cfg.box_size, overload_width);
        });
        self.work.owned += store.n_owned as u64;
        self.work.ghosts += (store.len() - store.n_owned) as u64;
        let _n_owned_global = comm.all_reduce_sum_u64(store.n_owned as u64);

        // 2. long-range solve + opening half-kick, then the FFT alone.
        let lr_acc = self.long_range(comm, store);
        let half_kick = kd.kick_factor(a0, a1) / 2.0;
        kick(&mut store.vel, &lr_acc, a0, half_kick);
        self.wait(comm);
        let before = CommTotals::of(comm);
        let mut grid = vec![Complex64::new(1.0, 0.0); self.fft.local_len()];
        let fft = &self.fft;
        self.rec.time("fft.roundtrip", || {
            fft.forward(comm, &mut grid);
            fft.inverse(comm, &mut grid);
        });
        self.work.fft_transforms += 2;
        self.work.comm_bench.add_since(before, CommTotals::of(comm));

        // 3. chaining mesh over owned + ghosts.
        let r_cut = 7.0 * cfg.split_scale();
        let h_cap = H_CAP_SPACING * cfg.particle_spacing();
        let cutoff = if hydro { r_cut.max(2.0 * h_cap) } else { r_cut };
        let (lo, hi) = decomp.subdomain(comm.rank());
        let dom_lo: [f64; 3] = std::array::from_fn(|d| lo[d] * cfg.box_size - overload_width);
        let dom_hi: [f64; 3] = std::array::from_fn(|d| hi[d] * cfg.box_size + overload_width);
        let cm_cfg = CmConfig {
            bin_width: cutoff.max(1e-3),
            max_leaf: 128,
        };
        let mut cm_all = self.build_mesh(&store.pos, dom_lo, dom_hi, &cm_cfg);
        self.work.leaf_pairs += cm_all
            .interaction_pairs(self.grav_cfg.table().r_cut(), None)
            .len() as u64;

        // Rung assignment: gas CFL, collisionless on rung 0.
        let mut gas_idx = std::mem::take(&mut self.gas_idx);
        store.indices_of_all_into(Species::Gas, &mut gas_idx);
        let n_all = store.len();
        store.rung[..n_all].fill(0);
        if hydro && !gas_idx.is_empty() {
            let eos = self.sph_cfg.eos;
            for (gi, &i) in gas_idx.iter().enumerate() {
                let vsig = self.vsig_prev.get(gi).copied().unwrap_or(0.0);
                let cs_proxy = (eos.gamma * (eos.gamma - 1.0) * store.u[i].max(1e-10)).sqrt();
                let dt_code = cfl_timestep(&[store.h[i]], &[vsig], &[cs_proxy], cfg.cfl);
                let da_desired = dt_code * a0 * kd.hubble(a0);
                store.rung[i] = rung_for(da_desired, da_pm, cfg.max_rung);
            }
        }
        let deepest = if cfg.flat_stepping {
            cfg.max_rung
        } else {
            store.rung[..store.len()].iter().copied().max().unwrap_or(0)
        };
        let nsub = n_substeps(deepest);
        let da_s = da_pm / nsub as f64;

        // 4. short-range subcycle block (chained KDK).
        let geom = (dom_lo, dom_hi, cm_cfg);
        self.kick_with_forces(
            store,
            &cm_all,
            &gas_idx,
            &geom,
            a0,
            kd.kick_factor(a0, a0 + da_s) / 2.0,
        );
        let mut stars = 0u64;
        for s in 0..nsub {
            let as0 = a0 + s as f64 * da_s;
            let as1 = as0 + da_s;
            let drift = kd.drift_factor(as0, as1);
            for i in 0..store.n_owned {
                for d in 0..3 {
                    store.pos[i][d] += store.vel[i][d] * drift;
                }
            }
            if hydro {
                let f = kd.hubble_cooling_factor(as0, as1);
                for &i in &gas_idx {
                    if i < store.n_owned {
                        store.u[i] *= f;
                    }
                }
            }
            if cfg.physics == Physics::Hydro {
                stars += self.subgrid(store, &gas_idx, as0, as1);
            }
            cm_all.grow_aabbs(&store.pos, None);
            let w = if s + 1 == nsub {
                kd.kick_factor(as0, as1) / 2.0
            } else {
                kd.kick_factor(as0, as1)
            };
            self.kick_with_forces(store, &cm_all, &gas_idx, &geom, as1.min(a1), w);
        }
        self.gas_idx = gas_idx;

        // 5. in-situ analysis and the halo catalog.
        if cfg.analysis_every > 0 && (step + 1).is_multiple_of(cfg.analysis_every) {
            let n = store.n_owned;
            let b_link = 0.2 * cfg.particle_spacing();
            let (pos, vel, mass) = (&store.pos[..n], &store.vel[..n], &store.mass[..n]);
            let halos = if n == 0 {
                Vec::new()
            } else {
                self.rec
                    .time("analysis.fof", || fof_halos(pos, vel, mass, b_link, 10))
            };
            let cols: [Vec<f64>; 4] = [
                halos.iter().map(|h| h.mass).collect(),
                halos.iter().map(|h| h.center[0]).collect(),
                halos.iter().map(|h| h.center[1]).collect(),
                halos.iter().map(|h| h.center[2]).collect(),
            ];
            let blocks = [
                Block::from_f64("mass", &cols[0]),
                Block::from_f64("x", &cols[1]),
                Block::from_f64("y", &cols[2]),
                Block::from_f64("z", &cols[3]),
            ];
            let frac = step as f64 / cfg.pm_steps.max(1) as f64;
            let writer = &mut self.writer;
            self.rec.time("io.output", || {
                let _ =
                    writer.write_output(&format!("halos_{step:08}.gio"), &blocks, frac * 0.8, 1.3);
            });
        }

        // 6. closing long-range half-kick.
        let lr_acc = self.long_range(comm, store);
        kick(&mut store.vel, &lr_acc, a1, half_kick);

        // 7. checkpoint, then read back the newest valid one.
        let gpu_s = self.model.kernel_time_s(&self.work.kernels)
            - self.model.kernel_time_s(&counters_step_start);
        if (step + 1).is_multiple_of(cfg.checkpoint_every.max(1)) {
            let frac = step as f64 / cfg.pm_steps.max(1) as f64;
            let dip = if cfg.analysis_every > 0 && (step + 1).is_multiple_of(cfg.analysis_every) {
                1.3
            } else {
                1.0
            };
            self.writer.advance_time(gpu_s.max(60.0));
            let blocks = checkpoint_blocks(store, cfg.box_size);
            let writer = &mut self.writer;
            self.rec.time("io.ckpt_write", || {
                writer
                    .write_checkpoint(step as u64, &blocks, frac * 0.8, (1.0 + frac) * dip)
                    .unwrap_or_else(|e| panic!("checkpoint write at step {step} failed: {e}"))
            });
            let pfs = &self.pfs;
            let loaded = self
                .rec
                .time("io.ckpt_read", || TieredWriter::load_latest_valid(pfs));
            self.work.ckpt_bytes_read += loaded.map_or(0, |(_, blocks)| {
                blocks.iter().map(|b| b.data.len() as u64).sum()
            });
        }

        // The driver's end-of-step reductions: ledger, stars, GPU time.
        let mut local = [0.0f64; 7];
        for i in 0..store.n_owned {
            let m = store.mass[i];
            local[0] += m;
            for d in 0..3 {
                local[1 + d] += m * store.vel[i][d];
            }
        }
        let _ledger = comm.all_reduce(local, |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        comm.all_reduce_sum_u64(stars);
        comm.all_reduce_sum_u64(stars);
        comm.all_reduce_f64(gpu_s, f64::max);
        let wall = self.rec.end(sp_step);
        comm.all_reduce_f64(wall, f64::max);
    }

    fn build_mesh(
        &mut self,
        pos: &[[f64; 3]],
        lo: [f64; 3],
        hi: [f64; 3],
        cm_cfg: &CmConfig,
    ) -> ChainingMesh {
        self.work.tree_builds += 1;
        self.work.tree_particles += pos.len() as u64;
        self.rec
            .time("tree.build", || ChainingMesh::build(pos, lo, hi, cm_cfg))
    }

    /// Short-range gravity for all, CRKSPH for the gas; kicks the owned
    /// particles by `width`.
    fn kick_with_forces(
        &mut self,
        store: &mut ParticleStore,
        cm: &ChainingMesh,
        gas_idx: &[usize],
        geom: &([f64; 3], [f64; 3], CmConfig),
        a: f64,
        width: f64,
    ) {
        let grav_cfg = &self.grav_cfg;
        let g = self.rec.time("grav.step", || {
            grav_step(&store.pos, &store.mass, cm, grav_cfg)
        });
        self.work.kernels.merge(&g.counters);
        self.work.profile.record("grav_short_range", &g.counters);
        for i in 0..store.n_owned {
            for d in 0..3 {
                store.vel[i][d] += g.accel[i][d] / a * width;
            }
        }
        if self.cfg.physics == Physics::GravityOnly || gas_idx.is_empty() {
            return;
        }
        let pos: Vec<[f64; 3]> = gas_idx.iter().map(|&i| store.pos[i]).collect();
        let vel: Vec<[f64; 3]> = gas_idx
            .iter()
            .map(|&i| store.vel[i].map(|v| v / a))
            .collect();
        let mass: Vec<f64> = gas_idx.iter().map(|&i| store.mass[i]).collect();
        let h: Vec<f64> = gas_idx.iter().map(|&i| store.h[i]).collect();
        let u: Vec<f64> = gas_idx.iter().map(|&i| store.u[i]).collect();
        let gas_cm = self.build_mesh(&pos, geom.0, geom.1, &geom.2);
        let input = SphInput {
            pos: &pos,
            vel: &vel,
            mass: &mass,
            h: &h,
            u: &u,
        };
        let sph_cfg = &self.sph_cfg;
        let r = self
            .rec
            .time("sph.step", || sph_step(&input, &gas_cm, sph_cfg));
        self.work.kernels.merge(&r.counters.merged());
        r.counters.record_into(&mut self.work.profile);
        self.vsig_prev.clear();
        self.vsig_prev.extend_from_slice(&r.vsig);
        let spacing = self.cfg.particle_spacing();
        for (gi, &i) in gas_idx.iter().enumerate() {
            if i >= store.n_owned {
                continue;
            }
            for d in 0..3 {
                store.vel[i][d] += r.accel[gi][d] * width;
            }
            store.u[i] = (store.u[i] + r.du_dt[gi] * width).max(1e-10);
            let target = self.cfg.sph_eta * (store.mass[i] / r.rho[gi].max(1e-30)).cbrt();
            store.h[i] = target.clamp(0.5 * spacing, H_CAP_SPACING * spacing);
        }
    }

    /// Cooling, star formation and supernova feedback over one substep,
    /// as the driver applies them. Returns the stars formed.
    fn subgrid(&mut self, store: &mut ParticleStore, gas_idx: &[usize], a0: f64, a1: f64) -> u64 {
        let dt_gyr = self.kd.dt_gyr(a0, a1);
        let a = 0.5 * (a0 + a1);
        let eta = 1.6;
        let rho_of =
            |store: &ParticleStore, i: usize| store.mass[i] * (eta / store.h[i].max(1e-6)).powi(3);
        let mut new_stars = Vec::new();
        for &i in gas_idx {
            if i >= store.n_owned {
                continue;
            }
            let rho = rho_of(store, i);
            store.u[i] = self
                .cooling
                .cool_particle(rho, store.u[i], store.metals[i], a, dt_gyr);
            if self
                .sf
                .try_form_star(&mut self.rng, rho, store.u[i], a, dt_gyr)
            {
                new_stars.push(i);
            }
        }
        if new_stars.is_empty() {
            return 0;
        }
        let gas_owned: Vec<usize> = gas_idx
            .iter()
            .copied()
            .filter(|&i| i < store.n_owned)
            .collect();
        let pos: Vec<[f64; 3]> = gas_owned.iter().map(|&i| store.pos[i]).collect();
        let bvh = Lbvh::build(&pos);
        for &i in &new_stars {
            store.species[i] = Species::Star;
            let targets: Vec<usize> = bvh
                .query_radius(&store.pos[i], 2.0 * store.h[i])
                .iter()
                .map(|&g| gas_owned[g as usize])
                .filter(|&j| j != i && store.species[j] == Species::Gas)
                .collect();
            if targets.is_empty() {
                continue;
            }
            let masses: Vec<f64> = targets.iter().map(|&j| store.mass[j]).collect();
            let (du, dz) = self
                .sn
                .distribute(store.mass[i], &vec![1.0; targets.len()], &masses);
            for (k, &j) in targets.iter().enumerate() {
                store.u[j] += du[k];
                store.metals[j] = (store.metals[j] * store.mass[j] + dz[k]) / store.mass[j];
            }
        }
        new_stars.len() as u64
    }

    /// The driver's final analysis (P(k), FOF, xi) and state hash, with
    /// the same collectives. Returns the hash.
    fn final_analysis(&mut self, comm: &mut Comm, store: &ParticleStore) -> u64 {
        let cfg = self.cfg;
        let n = store.n_owned;
        let (pos, vel, mass) = (&store.pos[..n], &store.vel[..n], &store.mass[..n]);
        self.wait(comm);
        self.rec.time("analysis.power", || {
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
            let (delta_k, y0, ny) = pm.density_k(comm, pos, mass);
            measure_power(comm, &delta_k, cfg.ngrid, y0, ny, cfg.box_size)
        });
        let b_link = 0.2 * cfg.particle_spacing();
        let halos = self
            .rec
            .time("analysis.fof", || fof_halos(pos, vel, mass, b_link, 10));
        self.work.halos = comm.all_reduce_sum_u64(halos.len() as u64);
        comm.all_reduce_f64(halos.first().map_or(0.0, |h| h.mass), f64::max);
        // The driver reduces its HOD galaxy count here.
        comm.all_reduce_sum_u64(0);
        if comm.rank() == 0 && n > 50 {
            let spacing = cfg.particle_spacing();
            let sample: Vec<[f64; 3]> = pos.iter().step_by((n / 1500).max(1)).copied().collect();
            self.rec.time("analysis.xi", || {
                correlation_function(&sample, cfg.box_size, 0.3 * spacing, 0.25 * cfg.box_size, 8)
            });
        }
        state_hash(comm, store, cfg.box_size)
    }
}

/// The long-range kick of the owned particles (the first `acc.len()`):
/// `v += acc / a * width`.
fn kick(vel: &mut [[f64; 3]], acc: &[[f64; 3]], a: f64, width: f64) {
    for (v, g) in vel.iter_mut().zip(acc) {
        for (vd, gd) in v.iter_mut().zip(g) {
            *vd += gd / a * width;
        }
    }
}

/// The checkpoint blocks the driver writes: owned particles, positions
/// wrapped into the box.
fn checkpoint_blocks(store: &ParticleStore, box_size: f64) -> Vec<Block> {
    let n = store.n_owned;
    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..n).map(f).collect() };
    vec![
        Block::from_f64("x", &col(&|i| store.pos[i][0].rem_euclid(box_size))),
        Block::from_f64("y", &col(&|i| store.pos[i][1].rem_euclid(box_size))),
        Block::from_f64("z", &col(&|i| store.pos[i][2].rem_euclid(box_size))),
        Block::from_f64("vx", &col(&|i| store.vel[i][0])),
        Block::from_f64("vy", &col(&|i| store.vel[i][1])),
        Block::from_f64("vz", &col(&|i| store.vel[i][2])),
        Block::from_f64("mass", &col(&|i| store.mass[i])),
        Block::from_f64("u", &col(&|i| store.u[i])),
        Block::from_f64("metals", &col(&|i| store.metals[i])),
        Block::from_f64("h", &col(&|i| store.h[i])),
        Block::from_u64("id", &store.id[..n]),
        Block::from_u64(
            "species",
            &store.species[..n]
                .iter()
                .map(|&s| s as u64)
                .collect::<Vec<_>>(),
        ),
        Block::from_u64(
            "rung",
            &store.rung[..n]
                .iter()
                .map(|&r| r as u64)
                .collect::<Vec<_>>(),
        ),
    ]
}

/// FNV-1a over (id, wrapped position, velocity, mass, u, metals, h) rows
/// sorted by id, gathered to rank 0 and broadcast: the driver's
/// `final_state_hash`.
fn state_hash(comm: &mut Comm, store: &ParticleStore, box_size: f64) -> u64 {
    let rows: Vec<(u64, [u64; 10])> = (0..store.n_owned)
        .map(|i| {
            let p = store.pos[i].map(|x| x.rem_euclid(box_size).to_bits());
            let v = store.vel[i].map(f64::to_bits);
            let rest = [store.mass[i], store.u[i], store.metals[i], store.h[i]].map(f64::to_bits);
            let mut w = [0u64; 10];
            w[..3].copy_from_slice(&p);
            w[3..6].copy_from_slice(&v);
            w[6..].copy_from_slice(&rest);
            (store.id[i], w)
        })
        .collect();
    let hash = comm.gather(0, rows).map_or(0, |per_rank| {
        let mut flat: Vec<(u64, [u64; 10])> = per_rank.into_iter().flatten().collect();
        flat.sort_by_key(|r| r.0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, words) in flat {
            for w in std::iter::once(id).chain(words) {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x1_0000_01b3);
                }
            }
        }
        h
    });
    comm.broadcast(0, hash)
}
