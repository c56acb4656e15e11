//! Per-layer metrics of one traced replay, and its cross-check against
//! the driver's own counters for the same run.

use crate::check::{CountCheck, COLLECTIVE_COUNT_BOUND, WORK_COUNT_BOUND};
use crate::replay::RankReplay;
use crate::spans::self_times;
use crate::Metric;
use hacc_core::{SimConfig, SimReport};
use hacc_gpusim::{ExecutionModel, KernelCounters, ProfileTable};
use hacc_iosim::{IoStats, TieredConfig};

/// Kernel names in the driver's profile.
const GRAV_KERNELS: [&str; 1] = ["grav_short_range"];
const SPH_KERNELS: [&str; 4] = ["sph_density", "crk_moments", "vel_gradients", "crk_force"];

/// Checkpoint payload bytes this writer put on the node-local tier.
fn ckpt_bytes(io: &IoStats, n_nodes: usize) -> u64 {
    io.per_step.iter().map(|s| s.machine_bytes).sum::<u64>() / n_nodes as u64
}

fn pairs(profile: &ProfileTable, names: &[&str]) -> u64 {
    names
        .iter()
        .filter_map(|n| profile.get(n))
        .map(|c| c.pairs)
        .sum()
}

fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// The replay's work counts against the driver's for the same config and
/// seed: pairs per kernel, collective entries, rank 0's checkpoint bytes.
pub fn cross_check(replays: &[RankReplay], report: &SimReport) -> Vec<CountCheck> {
    let mut profile = ProfileTable::new();
    for r in replays {
        profile.merge(&r.work.profile);
    }
    let mut checks: Vec<CountCheck> = GRAV_KERNELS
        .iter()
        .chain(&SPH_KERNELS)
        .filter_map(|&name| {
            let driver = report.profile.get(name).map_or(0, |c| c.pairs);
            let replay = profile.get(name).map_or(0, |c| c.pairs);
            (driver > 0 || replay > 0).then(|| {
                CountCheck::new(
                    format!("pairs.{name}"),
                    replay as f64,
                    driver as f64,
                    WORK_COUNT_BOUND,
                )
            })
        })
        .collect();
    let driver_coll: u64 = report
        .telemetry
        .ranks
        .iter()
        .map(|r| r.comm.total_collectives())
        .sum();
    let replay_coll: u64 = replays.iter().map(|r| r.work.comm_driver.collectives).sum();
    checks.push(CountCheck::new(
        "comm.collectives",
        replay_coll as f64,
        driver_coll as f64,
        COLLECTIVE_COUNT_BOUND,
    ));
    let n_nodes = n_nodes();
    checks.push(CountCheck::new(
        "io.ckpt_bytes.rank0",
        ckpt_bytes(&replays[0].io, n_nodes) as f64,
        ckpt_bytes(&report.io, n_nodes) as f64,
        WORK_COUNT_BOUND,
    ));
    checks
}

fn n_nodes() -> usize {
    TieredConfig::frontier(std::path::Path::new(".")).n_nodes
}

/// Per-layer metrics. Times are span self times summed over ranks
/// (rank-seconds); counts are summed over ranks; rates are work per
/// rank-second of the layer's own busy time.
pub fn layer_metrics(
    cfg: &SimConfig,
    replays: &[RankReplay],
    replay_s: f64,
    run_s: f64,
) -> Vec<Metric> {
    // Self time keyed both by span name (`io.ckpt_write`) and by layer
    // (`io`); call counts by span name.
    let mut busy = std::collections::BTreeMap::<&str, f64>::new();
    let mut calls = std::collections::BTreeMap::<&str, u64>::new();
    for r in replays {
        for (span, self_s) in r.spans.iter().zip(self_times(&r.spans)) {
            *busy.entry(span.name).or_default() += self_s;
            *busy.entry(span.layer()).or_default() += self_s;
            *calls.entry(span.name).or_default() += 1;
        }
    }
    let t = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let n = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;
    let sum = |f: &dyn Fn(&RankReplay) -> u64| replays.iter().map(f).sum::<u64>() as f64;

    let mut profile = ProfileTable::new();
    let mut kernels = KernelCounters::default();
    for r in replays {
        profile.merge(&r.work.profile);
        kernels.merge(&r.work.kernels);
    }
    let sph_pairs = pairs(&profile, &SPH_KERNELS) as f64;
    let grav_pairs = pairs(&profile, &GRAV_KERNELS) as f64;
    let bytes_computed = kernels.global_bytes() as f64;
    let issued = kernels.issued_flops() as f64;

    let n_ranks = replays.len() as f64;
    let grid_cells = (cfg.ngrid as f64).powi(3);
    let pm_cells = sum(&|r| r.work.pm_solves) * grid_cells / n_ranks;
    let fft_points = sum(&|r| r.work.fft_transforms) * grid_cells / n_ranks;
    let n_nodes = n_nodes();
    let written = sum(&|r| ckpt_bytes(&r.io, n_nodes));
    let read = sum(&|r| r.work.ckpt_bytes_read);
    let owned = sum(&|r| r.work.owned);

    let m = Metric::new;
    vec![
        m("sph.busy_s", t("sph"), "s"),
        m("sph.calls", n("sph.step"), "count"),
        m("sph.pairs", sph_pairs, "count"),
        m("sph.pairs_per_s", rate(sph_pairs, t("sph")), "1/s"),
        m("grav.busy_s", t("grav"), "s"),
        m("grav.calls", n("grav.step"), "count"),
        m("grav.pairs", grav_pairs, "count"),
        m("grav.pairs_per_s", rate(grav_pairs, t("grav")), "1/s"),
        m("gpusim.flops", kernels.flops as f64, "flop"),
        m("gpusim.bytes_computed", bytes_computed, "B"),
        m(
            "gpusim.flops_per_byte",
            rate(kernels.flops as f64, bytes_computed),
            "flop/B",
        ),
        m(
            "gpusim.masked_lane_frac",
            rate(kernels.masked_lane_flops as f64, issued),
            "frac",
        ),
        m(
            "gpusim.modeled_util",
            ExecutionModel::new(cfg.device).utilization(&kernels),
            "frac",
        ),
        m("tree.build_s", t("tree"), "s"),
        m("tree.build_calls", n("tree.build"), "count"),
        m(
            "tree.particles_per_s",
            rate(sum(&|r| r.work.tree_particles), t("tree")),
            "1/s",
        ),
        m("tree.leaf_pairs", sum(&|r| r.work.leaf_pairs), "count"),
        m("pm.busy_s", t("pm"), "s"),
        m("pm.solves", sum(&|r| r.work.pm_solves), "count"),
        m("pm.cells_per_s", rate(pm_cells, t("pm")), "1/s"),
        m("fft.busy_s", t("fft"), "s"),
        m("fft.transforms", sum(&|r| r.work.fft_transforms), "count"),
        m("fft.points_per_s", rate(fft_points, t("fft")), "1/s"),
        m("comm.bytes", sum(&|r| r.work.comm_driver.bytes), "B"),
        m(
            "comm.messages",
            sum(&|r| r.work.comm_driver.messages),
            "count",
        ),
        m(
            "comm.collectives",
            sum(&|r| r.work.comm_driver.collectives),
            "count",
        ),
        m("comm.wait_s", t("comm"), "s"),
        m("overload.busy_s", t("overload"), "s"),
        m(
            "overload.ghost_frac",
            rate(sum(&|r| r.work.ghosts), owned),
            "frac",
        ),
        m("io.ckpt_bytes", written, "B"),
        m("io.ckpt_write_s", t("io.ckpt_write"), "s"),
        m(
            "io.ckpt_write_bytes_per_s",
            rate(written, t("io.ckpt_write")),
            "B/s",
        ),
        m("io.ckpt_read_s", t("io.ckpt_read"), "s"),
        m(
            "io.ckpt_read_bytes_per_s",
            rate(read, t("io.ckpt_read")),
            "B/s",
        ),
        m(
            "io.modeled_effective_tbs",
            replays[0].io.effective_bandwidth_tbs(),
            "TB/s",
        ),
        m("analysis.fof_s", t("analysis.fof"), "s"),
        m("analysis.halos", replays[0].work.halos as f64, "count"),
        m("analysis.power_s", t("analysis.power"), "s"),
        m("analysis.xi_s", t("analysis.xi"), "s"),
        m("core.ic_s", t("core.ics"), "s"),
        m("trace.overhead_frac", rate(replay_s - run_s, run_s), "frac"),
    ]
}
