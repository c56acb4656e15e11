//! Fig. 2 (caption) — end-to-end time-to-solution breakdown.
//!
//! Paper: long-range 1.7%, tree build 1.7%, short-range 79.6%, in-situ
//! analysis 11.6%, I/O 2.6%; >90% of solver time on the GPU. We run the
//! miniature full-physics configuration and check the *ordering and
//! dominance structure*: short-range ≫ analysis ≫ (long-range ≈ tree ≈
//! I/O).

use hacc_bench::{compare, mini_run, print_table};
use hacc_core::Physics;
use hacc_telem::{phase_seconds, Phase, PHASES};

fn main() {
    let report = mini_run(16, 4, 4, Physics::Hydro);
    let secs = phase_seconds(&report.telemetry.ranks);
    let total: f64 = secs.iter().sum();
    let get = |p: Phase| secs[p as usize] / total;
    let paper = [
        (Phase::LongRange, 1.7),
        (Phase::TreeBuild, 1.7),
        (Phase::ShortRange, 79.6),
        (Phase::Analysis, 11.6),
        (Phase::Io, 2.6),
        (Phase::Misc, 2.8),
    ];
    let rows: Vec<Vec<String>> = PHASES
        .iter()
        .map(|&p| {
            let paper_f = paper.iter().find(|(q, _)| *q == p).unwrap().1;
            vec![
                p.name().to_string(),
                format!("{paper_f:.1}%"),
                format!("{:.1}%", get(p) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 — time-to-solution fractions (2x16^3 particles, 4 ranks, full physics)",
        &["phase", "paper (Frontier-E)", "measured (miniature)"],
        &rows,
    );

    compare(
        "short-range solver dominates",
        "79.6% (largest)",
        &format!("{:.1}% (largest: {})", get(Phase::ShortRange) * 100.0, {
            let max = PHASES
                .iter()
                .max_by(|a, b| get(**a).partial_cmp(&get(**b)).unwrap())
                .unwrap();
            max.name()
        }),
        PHASES.iter().all(|&p| get(Phase::ShortRange) >= get(p)),
    );
    compare(
        "long-range + tree are subdominant",
        "~3.4% combined",
        &format!("{:.1}% combined", (get(Phase::LongRange) + get(Phase::TreeBuild)) * 100.0),
        get(Phase::LongRange) + get(Phase::TreeBuild) < get(Phase::ShortRange),
    );
    compare(
        "I/O is subdominant",
        "2.6%",
        &format!("{:.1}%", get(Phase::Io) * 100.0),
        get(Phase::Io) < 0.5 * get(Phase::ShortRange),
    );

    // GPU residency: fraction of runtime in phases the paper executes on
    // device (short-range + analysis).
    let gpu_frac = get(Phase::ShortRange) + get(Phase::Analysis);
    compare(
        "GPU-resident fraction (short-range + analysis)",
        "91.2%",
        &format!("{:.1}%", gpu_frac * 100.0),
        gpu_frac > 0.5,
    );
    println!(
        "\n  solver FLOPs: {:.3e}; pair interactions: {:.3e}; ranks: {}",
        report.counters.flops, report.counters.pairs, report.n_ranks
    );
}
