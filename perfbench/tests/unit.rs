//! Unit tests of the benchmark's statistics, span accounting and the
//! replay-vs-driver cross-check.

use hacc_core::{run_simulation, Physics, SimConfig};
use hacc_ranks::World;
use perfbench::check::{failures, CountCheck};
use perfbench::host::{net_of_steal, steal_share};
use perfbench::layers::cross_check;
use perfbench::replay::replay_rank;
use perfbench::spans::{self_times, Span, SpanRecorder};
use perfbench::stats::{mean_of_medians, median, quartiles, tail_percentile};
use std::time::Instant;

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn mean_of_medians_weighs_every_group_once() {
    // Medians 2 and 10: the group with more samples does not count more.
    let groups = vec![vec![1.0, 2.0, 3.0, 100.0, 0.0], vec![10.0]];
    assert_eq!(mean_of_medians(&groups), Some(6.0));
    assert_eq!(mean_of_medians(&[vec![4.0], vec![]]), Some(4.0));
    assert_eq!(mean_of_medians(&[vec![], vec![]]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's statistics.quantiles(xs, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
    // Two samples extrapolate, as Python does.
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    // 40 samples: p90 has only 4 beyond it, p75 has exactly 10.
    let forty: Vec<f64> = (1..=40).map(f64::from).collect();
    let t = tail_percentile(&forty, 10).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.n), (75.0, 30.0, 10, 40));
    // 1000 samples reach p99 (10 beyond) but not p99.9 (1 beyond).
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail_percentile(&thousand, 10).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
    // Nine samples: not even the median has ten beyond it.
    let nine: Vec<f64> = (1..=9).map(f64::from).collect();
    assert_eq!(tail_percentile(&nine, 10), None);
    // Ties at the percentile value are not "beyond" it.
    let flat = vec![1.0; 50];
    assert_eq!(tail_percentile(&flat, 10), None);
}

#[test]
fn steal_is_a_share_of_busy_time_and_comes_off_wall_time() {
    // 20 of 200 busy ticks stolen.
    assert_eq!(steal_share((1000, 50), (1200, 70)), 0.1);
    // An idle host: nothing to steal from.
    assert_eq!(steal_share((1000, 50), (1000, 50)), 0.0);
    assert!((net_of_steal(2.0, 0.1) - 1.8).abs() < 1e-12);
    assert_eq!(net_of_steal(2.0, 0.0), 2.0);
    // Unknown steal leaves the wall time as measured.
    assert_eq!(net_of_steal(2.0, f64::NAN), 2.0);
}

fn span(id: usize, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
    Span {
        id,
        parent,
        name: "test.span",
        rank: 0,
        workload: "test",
        step: None,
        start_s,
        end_s,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span(0, None, 0.0, 10.0),
        span(1, Some(0), 1.0, 4.0),
        span(2, Some(1), 2.0, 3.0),
        span(3, Some(0), 5.0, 6.0),
        // A child that outlives its parent only counts inside it.
        span(4, Some(0), 9.0, 12.0),
    ];
    let st = self_times(&spans);
    let want = [10.0 - 3.0 - 1.0 - 1.0, 3.0 - 1.0, 1.0, 1.0, 3.0];
    for (got, want) in st.iter().zip(want) {
        assert!((got - want).abs() < 1e-12, "{st:?}");
    }
}

#[test]
fn overlapping_children_are_not_subtracted_twice() {
    let spans = [
        span(0, None, 0.0, 10.0),
        span(1, Some(0), 1.0, 5.0),
        span(2, Some(0), 3.0, 7.0),
    ];
    assert!((self_times(&spans)[0] - 4.0).abs() < 1e-12);
}

#[test]
fn recorder_links_nested_spans_to_their_parents() {
    let mut rec = SpanRecorder::new(Instant::now(), 1, "test");
    let outer = rec.begin("outer");
    rec.set_step(Some(3));
    rec.time("layer.inner", || std::hint::black_box(1 + 1));
    rec.end(outer);
    let spans = rec.into_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!((spans[1].step, spans[1].rank), (Some(3), 1));
    assert_eq!(spans[1].layer(), "layer");
    assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
    let st = self_times(&spans);
    assert!((st[0] + st[1] - spans[0].duration()).abs() < 1e-9);
}

#[test]
fn count_check_bounds() {
    assert!(CountCheck::new("a", 101.0, 100.0, 0.01).passes());
    assert!(!CountCheck::new("b", 102.0, 100.0, 0.01).passes());
    assert!(CountCheck::new("c", 7.0, 7.0, 0.0).passes());
    assert!(!CountCheck::new("d", 8.0, 7.0, 0.0).passes());
    assert!(CountCheck::new("e", 0.0, 0.0, 0.0).passes());
    assert!(!CountCheck::new("f", 1.0, 0.0, 0.5).passes());
}

fn tiny(dir: &std::path::Path, steps: usize) -> SimConfig {
    let mut c = SimConfig::small(8);
    c.physics = Physics::Hydro;
    c.pm_steps = steps;
    c.max_rung = 1;
    c.analysis_every = 1;
    c.checkpoint_every = 1;
    c.seed = 99;
    c.io_dir = Some(dir.to_path_buf());
    c
}

/// Run the driver and the replay, each in its own I/O directory under
/// the build's scratch space, and cross-check their counts.
fn cross_check_tiny(tag: &str, replay_steps: usize) -> (Vec<CountCheck>, u64, u64) {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&base);
    let run_cfg = tiny(&base.join("run"), 2);
    let replay_cfg = tiny(&base.join("replay"), replay_steps);
    let report = run_simulation(&run_cfg, 2);
    let io = replay_cfg.io_dir.clone().unwrap();
    let epoch = Instant::now();
    let replays = World::run_with(replay_cfg.rank_backend(), 2, |comm| {
        replay_rank(&replay_cfg, comm, &io, "tiny", epoch)
    });
    let _ = std::fs::remove_dir_all(&base);
    for r in &replays {
        let layers: std::collections::BTreeSet<&str> = r.spans.iter().map(|s| s.layer()).collect();
        for layer in [
            "sph", "grav", "tree", "pm", "fft", "comm", "overload", "io", "analysis", "core",
        ] {
            assert!(
                layers.contains(layer),
                "no {layer} span on rank {}",
                r.spans[0].rank
            );
        }
    }
    (
        cross_check(&replays, &report),
        replays[0].state_hash,
        report.final_state_hash,
    )
}

#[test]
fn replay_reproduces_the_driver_counts() {
    let (checks, replay_hash, driver_hash) = cross_check_tiny("cross-ok", 2);
    assert!(failures(&checks).is_empty(), "{checks:#?}");
    assert!(checks
        .iter()
        .any(|c| c.name == "pairs.crk_force" && c.driver > 0.0));
    assert_eq!(replay_hash, driver_hash);
}

#[test]
fn replay_of_a_different_run_fails_the_cross_check() {
    // One PM step more than the driver ran: every count drifts.
    let (checks, _, _) = cross_check_tiny("cross-fail", 3);
    let failed: Vec<&str> = failures(&checks).iter().map(|c| c.name.as_str()).collect();
    for name in [
        "pairs.grav_short_range",
        "comm.collectives",
        "io.ckpt_bytes.rank0",
    ] {
        assert!(failed.contains(&name), "{name} should fail: {checks:#?}");
    }
}
