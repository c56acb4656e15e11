//! Simulation configuration.

use hacc_gpusim::{DeviceSpec, ExecMode};
use hacc_units::CosmologyParams;

/// Which physics modules run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    /// Gravity-only N-body (the 16×-cheaper baseline of Section VI-B).
    GravityOnly,
    /// Full hydrodynamics with subgrid astrophysics.
    Hydro,
    /// Hydrodynamics without subgrid sources (adiabatic).
    HydroAdiabatic,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Comoving box size, Mpc/h.
    pub box_size: f64,
    /// Particles per dimension *per species* (total gas = dm = np³ when
    /// hydro is on; gravity-only carries np³ particles).
    pub np: usize,
    /// Global PM mesh size per dimension.
    pub ngrid: usize,
    /// Cosmology.
    pub cosmology: CosmologyParams,
    /// Physics selection.
    pub physics: Physics,
    /// Initial scale factor.
    pub a_init: f64,
    /// Final scale factor.
    pub a_final: f64,
    /// Number of global PM steps.
    pub pm_steps: usize,
    /// Maximum subcycle rung (substeps per PM step = 2^max_rung).
    pub max_rung: u32,
    /// Force all particles onto the deepest rung (the paper's "low-z
    /// Flat" measurement mode).
    pub flat_stepping: bool,
    /// CFL coefficient for gas timesteps.
    pub cfl: f64,
    /// Gaussian force-split scale in units of PM cells.
    pub split_cells: f64,
    /// Plummer softening in units of the interparticle spacing.
    pub softening_frac: f64,
    /// SPH smoothing: h = eta * interparticle spacing.
    pub sph_eta: f64,
    /// Overload (ghost-zone) width in units of PM cells.
    pub overload_cells: f64,
    /// Simulated GPU device.
    pub device: DeviceSpec,
    /// Kernel formulation.
    pub exec_mode: ExecMode,
    /// In-situ analysis cadence (every k-th PM step; 0 disables).
    pub analysis_every: usize,
    /// Checkpoint cadence (every k-th PM step; 0 disables I/O).
    pub checkpoint_every: usize,
    /// Checkpoints retained on the PFS (the paper prunes with a
    /// time-window function; 2 at production scale).
    pub checkpoint_window: usize,
    /// Star-formation hydrogen-density threshold in cm⁻³ (production:
    /// 0.13; miniature boxes need a far lower value to resolve any
    /// star-forming gas at all).
    pub sf_nh_threshold: f64,
    /// RNG seed (initial conditions + stochastic subgrid).
    pub seed: u64,
    /// Scratch directory for I/O; `None` uses a fresh temp dir that the
    /// run removes when it ends.
    pub io_dir: Option<std::path::PathBuf>,
    /// Fault-injection spec for the supervised chaos path (the `--chaos`
    /// flag; see `hacc_fault::FaultPlan::parse` for the grammar). `None`
    /// or an empty plan runs the plain unsupervised path.
    pub chaos: Option<String>,
    /// Run the world under the hacc-san dynamic sanitizer (the
    /// `--sanitize` flag): happens-before race detection over annotated
    /// shared regions, MUST-style collective matching, and wait-graph
    /// deadlock detection. The findings report rides on [`SimReport`]
    /// and the telemetry golden section.
    ///
    /// [`SimReport`]: crate::driver::SimReport
    pub sanitize: bool,
    /// Rank execution backend (the `--backend` flag). `None` defers to
    /// `HACC_RANK_BACKEND` (default: cooperative multiplexing). Pin
    /// [`Backend::Threads`] for wall-clock phase timings: under the
    /// cooperative scheduler, time a rank spends parked on communication
    /// is charged to the blocking phase, which inflates comm-heavy
    /// phases when ranks oversubscribe the host cores.
    ///
    /// [`Backend::Threads`]: hacc_ranks::Backend::Threads
    pub backend: Option<hacc_ranks::Backend>,
}

impl SimConfig {
    /// A small full-physics test box: `2 × np³` particles in
    /// `box_size = np` Mpc/h (1 Mpc/h interparticle spacing), sized so a
    /// laptop runs it in seconds.
    pub fn small(np: usize) -> Self {
        Self {
            box_size: np as f64,
            np,
            ngrid: np,
            cosmology: CosmologyParams::planck2018(),
            physics: Physics::Hydro,
            a_init: 0.1,
            a_final: 0.2,
            pm_steps: 4,
            max_rung: 2,
            flat_stepping: false,
            cfl: 0.25,
            // Aggressively short handover keeps the pair counts of tiny
            // test boxes tractable; production uses ~1.5 cells.
            split_cells: 0.5,
            softening_frac: 0.05,
            sph_eta: 1.6,
            overload_cells: 4.0,
            device: DeviceSpec::mi250x_gcd(),
            exec_mode: ExecMode::WarpSplit,
            analysis_every: 2,
            checkpoint_every: 1,
            checkpoint_window: 2,
            sf_nh_threshold: 1.0e-5,
            seed: 8675309,
            io_dir: None,
            chaos: None,
            sanitize: false,
            backend: None,
        }
    }

    /// The Frontier-E configuration (for documentation and machine-level
    /// extrapolation — not runnable at laptop scale).
    pub fn frontier_e() -> Self {
        Self {
            box_size: 4700.0 * 0.6766, // 4.7 Gpc in Mpc/h
            np: 12_600,
            ngrid: 12_600,
            cosmology: CosmologyParams::planck2018(),
            physics: Physics::Hydro,
            a_init: 1.0 / 201.0,
            a_final: 1.0,
            pm_steps: 625,
            max_rung: 6,
            flat_stepping: false,
            cfl: 0.25,
            split_cells: 1.5,
            softening_frac: 0.05,
            sph_eta: 2.0, // ~270 neighbors (Section IV-B1)
            overload_cells: 8.0,
            device: DeviceSpec::mi250x_gcd(),
            exec_mode: ExecMode::WarpSplit,
            analysis_every: 10,
            checkpoint_every: 1,
            checkpoint_window: 2,
            sf_nh_threshold: 0.13,
            seed: 42,
            io_dir: None,
            chaos: None,
            sanitize: false,
            backend: None,
        }
    }

    /// Resolved rank backend: the explicit [`Self::backend`] override,
    /// else `HACC_RANK_BACKEND`, else cooperative.
    pub fn rank_backend(&self) -> hacc_ranks::Backend {
        self.backend.unwrap_or_else(hacc_ranks::Backend::from_env)
    }

    /// PM cell size, Mpc/h.
    pub fn cell_size(&self) -> f64 {
        self.box_size / self.ngrid as f64
    }

    /// Mean interparticle spacing per species, Mpc/h.
    pub fn particle_spacing(&self) -> f64 {
        self.box_size / self.np as f64
    }

    /// Force-split scale `r_s` in Mpc/h.
    pub fn split_scale(&self) -> f64 {
        self.split_cells * self.cell_size()
    }

    /// Total particle count (both species for hydro).
    pub fn total_particles(&self) -> u64 {
        let per_species = (self.np as u64).pow(3);
        match self.physics {
            Physics::GravityOnly => per_species,
            _ => 2 * per_species,
        }
    }

    /// Scale-factor increment per PM step.
    pub fn da_pm(&self) -> f64 {
        (self.a_final - self.a_init) / self.pm_steps as f64
    }

    /// Validate internal consistency (panics with a description).
    pub fn validate(&self) {
        assert!(self.np >= 2 && self.ngrid >= 4, "problem too small");
        assert!(self.a_init > 0.0 && self.a_final > self.a_init);
        assert!(self.pm_steps >= 1);
        assert!(self.max_rung <= 10, "rung hierarchy too deep");
        assert!(
            self.overload_cells * self.cell_size() >= 7.0 * self.split_scale() * 0.99,
            "overload must cover the short-range cutoff"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        SimConfig::small(16).validate();
    }

    #[test]
    fn frontier_matches_paper_numbers() {
        let c = SimConfig::frontier_e();
        // 2 x 12,600^3 particles = 4.0 trillion.
        let total = c.total_particles() as f64;
        assert!((total / 4.0e12 - 1.0).abs() < 0.01, "total = {total:.3e}");
        // 12,600^3 = two trillion PM cells.
        let cells = (c.ngrid as f64).powi(3);
        assert!((cells / 2.0e12 - 1.0).abs() < 0.01);
        // 625 PM steps.
        assert_eq!(c.pm_steps, 625);
    }

    #[test]
    fn derived_scales() {
        let c = SimConfig::small(16);
        assert!((c.cell_size() - 1.0).abs() < 1e-12);
        assert!((c.split_scale() - 0.5).abs() < 1e-12);
        assert_eq!(c.total_particles(), 2 * 16u64.pow(3));
        let mut g = c.clone();
        g.physics = Physics::GravityOnly;
        assert_eq!(g.total_particles(), 16u64.pow(3));
    }

    #[test]
    #[should_panic(expected = "overload")]
    fn validation_catches_thin_overload() {
        let mut c = SimConfig::small(16);
        c.overload_cells = 1.0;
        c.validate();
    }
}
