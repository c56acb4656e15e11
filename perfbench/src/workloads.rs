//! The fixed workloads. Only the seed varies between runs.

use hacc_core::{Physics, SimConfig};
use std::path::Path;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Production physics; the CRKSPH and gravity kernels dominate.
    Hydro,
    /// Gravity only on a fine PM grid; FFT, CIC and transposes dominate.
    GravityPm,
    /// One rank to z = 2, clustered; recovery from a lost rank.
    LowzRestart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Hydro, Workload::GravityPm, Workload::LowzRestart];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hydro => "hydro",
            Workload::GravityPm => "gravity-pm",
            Workload::LowzRestart => "lowz-restart",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated ranks.
    pub fn ranks(self) -> usize {
        match self {
            Workload::LowzRestart => 1,
            _ => 2,
        }
    }

    /// The run configuration for `seed`, doing its I/O under `io_dir`.
    pub fn config(self, seed: u64, io_dir: &Path) -> SimConfig {
        let (np, ngrid, physics, z_final, steps, analysis_every) = match self {
            Workload::Hydro => (16, 16, Physics::Hydro, 4.0, 4, 2),
            Workload::GravityPm => (32, 64, Physics::GravityOnly, 4.0, 4, 2),
            Workload::LowzRestart => (24, 24, Physics::GravityOnly, 2.0, 8, 1),
        };
        let mut cfg = SimConfig::small(np);
        cfg.ngrid = ngrid;
        cfg.physics = physics;
        cfg.a_init = 1.0 / (1.0 + 9.0);
        cfg.a_final = 1.0 / (1.0 + z_final);
        cfg.pm_steps = steps;
        cfg.analysis_every = analysis_every;
        cfg.checkpoint_every = 1;
        cfg.seed = seed;
        cfg.io_dir = Some(io_dir.to_path_buf());
        cfg
    }

    /// The fault plan of the supervised run: rank 0 is lost mid-run, in
    /// the `--chaos` grammar.
    pub fn chaos_plan(self, cfg: &SimConfig) -> String {
        format!("panic@{}:0", cfg.pm_steps / 2)
    }

    /// Whether the supervised run must land on the clean run's state hash
    /// bit for bit. That is the contract of gravity-only physics; hydro
    /// draws star formation from an RNG stream that a rollback does not
    /// rewind.
    pub fn bitwise_recovery(self) -> bool {
        !matches!(self, Workload::Hydro)
    }

    /// Realisations in the workload's fixed ensemble. A small box's cost
    /// depends on its initial conditions (cosmic variance). Over seeds
    /// 1-12 the interquartile spread of `lowz-restart`'s CPU time was 9%
    /// of its median, and over seeds 1-8 that of the pair counts was 7%
    /// on `hydro` and 1% on `gravity-pm`, so the first two average over
    /// several realisations.
    pub fn ensemble(self) -> u64 {
        match self {
            Workload::Hydro => 2,
            Workload::GravityPm => 1,
            Workload::LowzRestart => 4,
        }
    }

    /// The simulation seeds this workload runs for benchmark seed `seed`:
    /// `seed` itself, then `seed + k * 1000003` for the other ensemble
    /// members. Every invocation runs all of them, whatever its time
    /// budget, so a faster and a slower build time the same inputs.
    pub fn inputs(self, seed: u64) -> Vec<u64> {
        (0..self.ensemble())
            .map(|k| seed.wrapping_add(k * MEMBER_STRIDE))
            .collect()
    }

    /// Whether the run must find at least one FOF halo.
    pub fn needs_halos(self) -> bool {
        matches!(self, Workload::LowzRestart)
    }
}

/// Seeds of the ensemble members after the first are spaced this far
/// apart, so the ensembles of neighbouring `--seed`s do not overlap.
const MEMBER_STRIDE: u64 = 1_000_003;
