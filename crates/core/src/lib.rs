//! `hacc-core` — the CRK-HACC simulation driver.
//!
//! Glues every substrate into the full code of Fig. 2: the spectral
//! long-range solver (`hacc-mesh`/`hacc-swfft`) over all ranks
//! (`hacc-ranks`), GPU-resident short-range physics (`hacc-grav`,
//! `hacc-sph` on `hacc-gpusim`) inside chaining-mesh trees (`hacc-tree`),
//! astrophysical subgrid sources (`hacc-subgrid`), in-situ analysis
//! (`hacc-analysis`), and multi-tiered I/O (`hacc-iosim`).
//!
//! The integration scheme is the paper's separation of scales: per global
//! PM step, a long-range half-kick, a block of adaptive short-range
//! subcycles (rung-based, FAST-style), and a closing long-range half-kick
//! — with overload refresh and a single tree build per PM step, full
//! checkpoints every step, and in-situ analysis at a configurable cadence.
//!
//! Entry points:
//! * [`driver::run_simulation`] / [`driver::resume_simulation`] /
//!   [`driver::run_supervised`] — the full run (plus chaos supervision);
//! * [`scaling`] — the weak/strong scaling harness (Fig. 4) and the
//!   machine-scale extrapolation model.

pub mod config;
pub mod driver;
pub mod ic;
pub mod kicks;
pub mod overload;
pub mod particles;
pub mod scaling;
pub mod timestep;

pub use config::{Physics, SimConfig};
pub use driver::{resume_simulation, run_simulation, run_supervised, SimReport, StepRecord};
pub use particles::{ParticleStore, Species};
