//! Section VI-B headline — the cost of hydrodynamics.
//!
//! Paper: the full-physics Frontier-E run took 196 h; an identical
//! gravity-only configuration took just under 12 h — hydro is ~16× more
//! expensive. We run the same miniature box in all three physics modes
//! and compare solver cost.

use hacc_bench::{baseline, compare, mini_run, print_table};
use hacc_core::Physics;
use hacc_telem::{phase_seconds, Phase};

fn main() {
    let np = 12;
    let steps = 3;
    let solver = |r: &hacc_core::SimReport| {
        let secs = phase_seconds(&r.telemetry.ranks);
        secs[Phase::ShortRange as usize]
            + secs[Phase::LongRange as usize]
            + secs[Phase::TreeBuild as usize]
    };
    let gravity = mini_run(np, 2, steps, Physics::GravityOnly);
    let adiabatic = mini_run(np, 2, steps, Physics::HydroAdiabatic);
    let full = mini_run(np, 2, steps, Physics::Hydro);

    let t_g = solver(&gravity);
    let t_a = solver(&adiabatic);
    let t_h = solver(&full);
    let rows = vec![
        vec![
            "gravity-only".into(),
            format!("{}", gravity.total_particles),
            format!("{:.2}", t_g),
            format!("{:.2e}", gravity.counters.flops),
            "1.0x".into(),
        ],
        vec![
            "hydro (adiabatic)".into(),
            format!("{}", adiabatic.total_particles),
            format!("{:.2}", t_a),
            format!("{:.2e}", adiabatic.counters.flops),
            format!("{:.1}x", t_a / t_g),
        ],
        vec![
            "hydro + subgrid".into(),
            format!("{}", full.total_particles),
            format!("{:.2}", t_h),
            format!("{:.2e}", full.counters.flops),
            format!("{:.1}x", t_h / t_g),
        ],
    ];
    print_table(
        "Section VI-B — physics cost comparison (same box, 2 ranks)",
        &["mode", "particles", "solver [s]", "FLOPs", "cost vs gravity"],
        &rows,
    );
    compare(
        "hydro much more expensive than gravity-only",
        "~16x (196 h vs 12 h)",
        &format!("{:.1}x", t_h / t_g),
        t_h > 3.0 * t_g,
    );
    compare(
        "subgrid adds depth over adiabatic",
        "subcycling + feedback cost",
        &format!("{:.1}x vs {:.1}x", t_h / t_g, t_a / t_g),
        t_h >= t_a * 0.9,
    );
    // Substep depth: full physics should subcycle at least as deep.
    let max_sub = |r: &hacc_core::SimReport| {
        r.steps.iter().map(|s| s.substeps).max().unwrap_or(1)
    };
    compare(
        "hydro subcycles deeper than gravity-only",
        "thousands of substeps per PM step (at scale)",
        &format!("{} vs {}", max_sub(&full), max_sub(&gravity)),
        max_sub(&full) >= max_sub(&gravity),
    );
    // CPU-vs-GPU contrast (Section VI-B "roughly a year" remark): from
    // the modeled GPU seconds and a 100x CPU slowdown assumption.
    let gpu_s: f64 = full.steps.iter().map(|s| s.gpu_seconds_modeled).sum();
    println!(
        "\n  modeled GPU seconds (this run): {gpu_s:.3e}; paper scale: 196 h GPU-resident vs ~1 year CPU-only"
    );

    // Machine-readable baselines: headline short-range throughput (the
    // end-to-end number the symmetric-tile fix moves — credited pair
    // terms per wall second spent in the short-range phase, full-physics
    // run) plus the physics cost multiples for the record.
    let sr_s = phase_seconds(&full.telemetry.ranks)[Phase::ShortRange as usize].max(1e-9);
    baseline::record(&[
        (
            "headline_short_range_pairs_per_s",
            full.counters.pairs as f64 / sr_s,
        ),
        ("headline_hydro_cost_multiple", t_h / t_g),
        ("headline_adiabatic_cost_multiple", t_a / t_g),
    ]);
}
