//! Quickstart: evolve a tiny cosmological hydrodynamics box end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Runs a 2×12³-particle CRK-HACC-style simulation (gravity + CRKSPH +
//! subgrid astrophysics) on two simulated ranks, then prints the timing
//! breakdown, device utilization, I/O record, and final analysis.

use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::telem::{phase_seconds, PHASES};

fn main() {
    // A laptop-sized configuration: 12^3 sites -> 3,456 particles
    // (gas + dark matter), 4 global PM steps from z = 9 to z = 4.
    let mut cfg = SimConfig::small(12);
    cfg.physics = Physics::Hydro;
    cfg.pm_steps = 4;
    cfg.a_init = 0.10;
    cfg.a_final = 0.20;

    println!(
        "Running {} particles in a ({:.0} Mpc/h)^3 box, {} PM steps, 2 ranks...",
        cfg.total_particles(),
        cfg.box_size,
        cfg.pm_steps
    );
    let report = run_simulation(&cfg, 2);

    println!("\n-- per-step summary --");
    for s in &report.steps {
        println!(
            "  step {:>2}  z = {:>5.2}  substeps = {}  wall = {:.2}s  stars = {}",
            s.step, s.z, s.substeps, s.wall_seconds, s.stars_formed
        );
    }

    println!("\n-- time-to-solution breakdown (cf. paper Fig. 2) --");
    let secs = phase_seconds(&report.telemetry.ranks);
    let total: f64 = secs.iter().sum();
    for (phase, s) in PHASES.iter().zip(secs) {
        println!("  {:<12} {:>5.1}%", phase.name(), s / total * 100.0);
    }

    println!("\n-- device model --");
    println!(
        "  kernel FLOPs: {:.3e}   pair interactions: {:.3e}",
        report.counters.flops, report.counters.pairs
    );
    for (r, u) in report.utilizations.iter().enumerate() {
        println!("  rank {r}: modeled GPU utilization {:.1}%", u * 100.0);
    }

    println!("\n-- multi-tier I/O --");
    println!(
        "  {} checkpoints, {} bled to PFS, {} pruned, effective bandwidth {:.1} TB/s (modeled at 9,000 nodes)",
        report.io.checkpoints,
        report.io.files_bled,
        report.io.files_pruned,
        report.io.effective_bandwidth_tbs()
    );

    println!("\n-- in-situ analysis --");
    println!(
        "  FOF halos: {}   largest: {:.2e} Msun/h   P(k) bins: {}",
        report.n_halos,
        report.largest_halo,
        report.power.len()
    );
    if let Some(b) = report.power.first() {
        println!(
            "  largest-scale power: P({:.3} h/Mpc) = {:.2e} (Mpc/h)^3",
            b.k, b.power
        );
    }
    println!("\ndone.");
}
