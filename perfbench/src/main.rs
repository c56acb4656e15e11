//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): times whole driver calls, each in a child
//! process of its own so its peak RSS is its own, and prints the
//! end-to-end metrics. Traced (`--trace 1`): alternates an untraced
//! driver run with a traced replay in this process and prints the
//! per-layer metrics. Both check the outputs; the last stdout line is the
//! JSON result.

use hacc_core::{run_simulation, run_supervised, SimConfig, SimReport};
use hacc_ranks::{Backend, World};
use perfbench::check::{check_report, failures};
use perfbench::host::{self, net_of_steal, Host};
use perfbench::layers::{cross_check, layer_metrics};
use perfbench::replay::{replay_rank, time_setup};
use perfbench::spans::chrome_trace;
use perfbench::stats::{mean_of_medians, median, quartiles, tail_percentile};
use perfbench::workloads::Workload;
use perfbench::{result_json, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set-up samples taken before each child run; the median of all of them
/// is reported, so they span the whole invocation and short bursts of
/// host noise do not decide it.
const SETUP_REPS: usize = 8;
/// Fewest rounds over the workload's inputs, whatever `--seconds` says.
const MIN_ROUNDS: usize = 1;
/// `hacc_rt::par` workers per rank. One keeps ranks x workers within the
/// cores of a 2-core host on every workload, makes `lowz-restart` the
/// plain single-threaded baseline, and keeps each run's allocator arenas
/// (and so its peak RSS) independent of thread timing.
const PAR_WORKERS: usize = 1;
/// glibc's mmap threshold in the run that measures peak RSS, in bytes:
/// its default starting value. Left alone, glibc raises the threshold as
/// large blocks are freed, and a run's peak then lands in one of two
/// states about 3 MiB apart, chosen by the seed and even by the
/// binary's layout. Pinned, the peak follows the live data.
const PINNED_MMAP_THRESHOLD: &str = "131072";
/// Marks the result lines of a child run on its stdout.
const CHILD_TAG: &str = "perfbench-child";

/// What one invocation does.
enum Mode {
    /// The benchmark proper.
    Bench { seconds: f64, trace: bool },
    /// One driver run in a child process (`--child run|supervised`).
    Child { supervised: bool, io_dir: PathBuf },
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let mode = if argv.iter().any(|a| a == "--child") {
        Mode::Child {
            supervised: get("--child")? == "supervised",
            io_dir: PathBuf::from(get("--io-dir")?),
        }
    } else {
        Mode::Bench {
            seconds: get("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
        }
    };
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        mode,
    })
}

/// Set while a supervised run is in flight: its planned rank loss tears
/// the world down with a cascade of panics that the supervisor catches.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Silence panic messages while [`QUIET`] is set. A panic that escapes
/// the supervisor is still reported, as a failed run.
fn quiet_supervised_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET.load(Ordering::Relaxed) {
            default(info);
        }
    }));
}

/// Run `cfg` through the driver and remove its I/O directory; a panic
/// that escapes the driver becomes `Err`.
fn drive(cfg: &SimConfig, ranks: usize, supervised: bool) -> Result<(f64, SimReport), String> {
    QUIET.store(supervised, Ordering::Relaxed);
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(|| {
        if supervised {
            run_supervised(cfg, ranks)
        } else {
            run_simulation(cfg, ranks)
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    QUIET.store(false, Ordering::Relaxed);
    remove_run_dir(cfg);
    result.map(|r| (wall, r)).map_err(|cause| {
        let msg = cause
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// One driver run in this (child) process. Prints tagged result lines;
/// exits non-zero only if the driver panicked.
fn child_main(workload: Workload, seed: u64, supervised: bool, io_dir: &Path) -> i32 {
    let mut cfg = workload.config(seed, io_dir);
    if supervised {
        cfg.chaos = Some(workload.chaos_plan(&cfg));
    }
    let ticks = host::cpu_ticks();
    match drive(&cfg, workload.ranks(), supervised) {
        Err(e) => {
            println!("{CHILD_TAG} problem {e}");
            3
        }
        Ok((wall, report)) => {
            println!("{CHILD_TAG} wall_s {wall:?}");
            println!(
                "{CHILD_TAG} cpu_s {:?}",
                host::process_cpu_s().unwrap_or(f64::NAN)
            );
            println!("{CHILD_TAG} steal {:?}", host::steal_since(ticks));
            println!(
                "{CHILD_TAG} peak_rss_mb {:?}",
                host::peak_rss_mb().unwrap_or(0.0)
            );
            println!("{CHILD_TAG} hash {:016x}", report.final_state_hash);
            for s in &report.steps {
                println!("{CHILD_TAG} step_s {:?}", s.wall_seconds);
            }
            for p in check_report(&cfg, &report, supervised, workload.needs_halos()) {
                println!("{CHILD_TAG} problem {p}");
            }
            0
        }
    }
}

/// What the benchmark keeps of one child run.
struct ChildRun {
    wall_s: f64,
    cpu_s: f64,
    steal: f64,
    peak_rss_mb: f64,
    hash: u64,
    step_s: Vec<f64>,
}

/// Runs of one workload and their correctness record.
struct Bench {
    workload: Workload,
    /// The `--seed` argument.
    seed: u64,
    /// Simulation seed of the current run, one of
    /// [`Workload::inputs`].
    input: u64,
    io_root: PathBuf,
    runs: usize,
    attempted: u64,
    failed: u64,
    /// First clean run's state hash per simulation seed.
    clean_hashes: BTreeMap<u64, u64>,
}

impl Bench {
    /// A fresh, explicit I/O directory for one run. Its path has the same
    /// length for every run, process and checkout: the driver's peak RSS
    /// moves by megabytes with the length of the I/O path.
    fn io_dir(&mut self) -> PathBuf {
        self.runs += 1;
        let dir = self.io_root.join(format!(
            "{}-{:010}-{:06}",
            self.workload.name(),
            std::process::id(),
            self.runs
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(&mut self) -> SimConfig {
        let dir = self.io_dir();
        self.workload.config(self.input, &dir)
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {}: {what}", self.workload.name());
    }

    /// Compare a run's hash with the first clean run of the same input:
    /// repeats must match it, and so must a recovered run where the
    /// workload's physics promises bitwise recovery.
    fn hash_problem(&mut self, hash: u64, supervised: bool) -> Option<String> {
        if supervised && !self.clean_hashes.contains_key(&self.input) {
            return None;
        }
        let first = *self.clean_hashes.entry(self.input).or_insert(hash);
        let must_match = !supervised || self.workload.bitwise_recovery();
        (must_match && hash != first).then(|| {
            let what = if supervised { "recovered" } else { "repeat" };
            format!("{what} hash {hash:016x} != clean hash {first:016x}")
        })
    }

    /// One driver run in a child process: the clean `run_simulation`, or
    /// `run_supervised` losing rank 0 mid-run. `pin_mmap` pins glibc's
    /// mmap threshold in the child (see [`PINNED_MMAP_THRESHOLD`]).
    fn run_child(&mut self, supervised: bool, pin_mmap: bool) -> Option<ChildRun> {
        let io_dir = self.io_dir();
        self.attempted += 1;
        let kind = if supervised { "supervised" } else { "run" };
        let out = std::env::current_exe().and_then(|exe| {
            let mut child = std::process::Command::new(exe);
            if pin_mmap {
                child.env("MALLOC_MMAP_THRESHOLD_", PINNED_MMAP_THRESHOLD);
            }
            child
                .args(["--child", kind, "--workload", self.workload.name()])
                .args(["--seed", &self.input.to_string()])
                .arg("--io-dir")
                .arg(&io_dir)
                .stderr(std::process::Stdio::inherit())
                .output()
        });
        let _ = std::fs::remove_dir_all(&io_dir);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.fail(&format!("cannot start a child run: {e}"));
                return None;
            }
        };
        let mut run = ChildRun {
            wall_s: f64::NAN,
            cpu_s: f64::NAN,
            steal: f64::NAN,
            peak_rss_mb: f64::NAN,
            hash: 0,
            step_s: Vec::new(),
        };
        let mut problems = Vec::new();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let Some(rest) = line.strip_prefix(CHILD_TAG) else {
                continue;
            };
            let (key, val) = rest.trim().split_once(' ').unwrap_or((rest.trim(), ""));
            let num = || val.parse::<f64>().unwrap_or(f64::NAN);
            match key {
                "wall_s" => run.wall_s = num(),
                "cpu_s" => run.cpu_s = num(),
                "steal" => run.steal = num(),
                "peak_rss_mb" => run.peak_rss_mb = num(),
                "hash" => run.hash = u64::from_str_radix(val, 16).unwrap_or(0),
                "step_s" => run.step_s.push(num()),
                _ => problems.push(val.to_string()),
            }
        }
        if !out.status.success() || !run.wall_s.is_finite() {
            problems.push(format!("child exited with {}", out.status));
        } else if let Some(p) = self.hash_problem(run.hash, supervised) {
            problems.push(p);
        }
        if problems.is_empty() {
            Some(run)
        } else {
            self.fail(&format!("{kind}: {}", problems.join("; ")));
            None
        }
    }

    /// The slowest rank's set-up time, `SETUP_REPS` times, always of the
    /// `--seed` input itself: set-up does the same work for every seed,
    /// and one input keeps the figure's input fixed whichever samples
    /// are kept.
    fn setup_samples(&mut self) -> Vec<f64> {
        let ranks = self.workload.ranks();
        (0..SETUP_REPS)
            .map(|_| {
                let dir = self.io_dir();
                let cfg = self.workload.config(self.seed, &dir);
                let io_base = cfg.io_dir.clone().expect("explicit io_dir");
                let per_rank = World::run_with(cfg.rank_backend(), ranks, |comm| {
                    time_setup(&cfg, comm, &io_base)
                });
                remove_run_dir(&cfg);
                per_rank.into_iter().fold(0.0, f64::max)
            })
            .collect()
    }
}

fn remove_run_dir(cfg: &SimConfig) {
    if let Some(dir) = &cfg.io_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Median, quartiles, the highest percentile with ten samples beyond it,
/// and the sample count, for the reader.
fn describe(name: &str, xs: &[f64]) {
    let Some(med) = median(xs) else {
        return;
    };
    let quart = quartiles(xs).map_or(String::new(), |(q1, q3)| {
        format!("  q1 {q1:.6}  q3 {q3:.6}")
    });
    let tail = tail_percentile(xs, 10).map_or(
        "  (no percentile above the median has 10 samples beyond it)".to_string(),
        |t| {
            format!(
                "  p{} {:.6} ({} of {} beyond)",
                t.pct, t.value, t.beyond, t.n
            )
        },
    );
    println!(
        "# {name:<16} median {med:.6} over n={}{quart}{tail}",
        xs.len()
    );
}

/// Keep going until `seconds` would be overrun by one more round of the
/// mean length, after at least `MIN_ROUNDS`. Each round runs every input
/// of the workload once, so every input gets the same number of runs.
fn another_round(done: usize, t0: Instant, seconds: f64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    done < MIN_ROUNDS || elapsed + elapsed / done as f64 <= seconds
}

/// On a shared virtual machine the hypervisor can hand the host's CPUs to
/// other guests mid-run ("steal"), which stretches wall time. Every time
/// is reported net of the steal measured while it ran, and samples are
/// kept if that steal was at most this share of the host's busy CPU
/// time, or at most the median steal of their set: all of them on a
/// quiet host, the less disturbed half on a busy one. Samples are only
/// ever filtered against samples of the same input, so this never
/// changes which inputs a figure covers.
const MAX_STEAL_FRAC: f64 = 0.02;

/// The items the hypervisor disturbed least (see [`MAX_STEAL_FRAC`]);
/// items whose steal is unknown (NaN) are kept.
fn least_disturbed<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let all: Vec<f64> = items.iter().map(&steal).collect();
    let limit = median(&all).unwrap_or(0.0).max(MAX_STEAL_FRAC);
    items
        .iter()
        .filter(|x| steal(x).is_nan() || steal(x) <= limit)
        .collect()
}

/// The child runs of one input.
#[derive(Default)]
struct InputRuns {
    clean: Vec<ChildRun>,
    recovered: Vec<ChildRun>,
}

/// Every run is a fresh process, as a user's run of the simulator is, so
/// there is no warm-up: each timed run pays the start-up a user pays.
/// Every time is the mean over the workload's inputs of the input's
/// median, so it covers the same inputs however many rounds fit.
fn untraced(b: &mut Bench, seconds: f64) -> Vec<Metric> {
    let inputs = b.workload.inputs(b.seed);
    let mut runs: Vec<InputRuns> = inputs.iter().map(|_| InputRuns::default()).collect();
    let mut setup = Vec::new();
    let t0 = Instant::now();
    let (mut rounds, mut clean_passes) = (0, 0);
    // Seconds spent on clean and on supervised runs, set-up samples
    // included, to predict what one more pass costs.
    let mut spent = [0.0f64; 2];
    while b.attempted < 2 * b.failed + 64 {
        let left = seconds - t0.elapsed().as_secs_f64();
        let clean_cost = spent[0] / (rounds + clean_passes).max(1) as f64;
        let round_cost = clean_cost + spent[1] / rounds.max(1) as f64;
        let kinds: &[bool] = if rounds < MIN_ROUNDS || (clean_passes == 0 && round_cost <= left) {
            &[false, true]
        } else if clean_cost <= left {
            &[false]
        } else {
            break;
        };
        if kinds.len() == 2 {
            rounds += 1;
        } else {
            clean_passes += 1;
        }
        for (of_input, &input) in runs.iter_mut().zip(&inputs) {
            b.input = input;
            for &supervised in kinds {
                let t = Instant::now();
                let ticks = host::cpu_ticks();
                let samples = b.setup_samples();
                let run = b.run_child(supervised, false);
                // The set-up samples last a few of the host's 10 ms
                // ticks, too few to measure steal over; the steal over
                // them and the run after them stands for theirs.
                setup.push((samples, host::steal_since(ticks)));
                if supervised {
                    of_input.recovered.extend(run);
                } else {
                    of_input.clean.extend(run);
                }
                spent[supervised as usize] += t.elapsed().as_secs_f64();
            }
        }
    }
    // Determinism and memory: the first input once more, untimed, with
    // glibc's mmap threshold pinned. Its hash must match the first run's,
    // and its peak RSS is the workload's.
    b.input = inputs[0];
    let peak_rss_mb = b.run_child(false, true).map_or(0.0, |r| r.peak_rss_mb);

    let steal: Vec<f64> = runs
        .iter()
        .flat_map(|i| i.clean.iter().chain(&i.recovered))
        .map(|r| r.steal)
        .collect();
    // Per input: the kept runs' values of one figure.
    let kept = |pick: &dyn Fn(&InputRuns) -> &Vec<ChildRun>,
                value: &dyn Fn(&ChildRun) -> Vec<f64>|
     -> Vec<Vec<f64>> {
        runs.iter()
            .map(|i| {
                least_disturbed(pick(i), |r| r.steal)
                    .into_iter()
                    .flat_map(value)
                    .collect()
            })
            .collect()
    };
    // Every time is net of the steal measured while it ran.
    let run_s = kept(&|i| &i.clean, &|r| vec![net_of_steal(r.wall_s, r.steal)]);
    let recovered_s = kept(&|i| &i.recovered, &|r| {
        vec![net_of_steal(r.wall_s, r.steal)]
    });
    let step_s = kept(&|i| &i.clean, &|r| {
        r.step_s.iter().map(|&s| net_of_steal(s, r.steal)).collect()
    });
    let raw_run_s = kept(&|i| &i.clean, &|r| vec![r.wall_s]);
    let cpu_s = kept(&|i| &i.clean, &|r| vec![r.cpu_s]);
    let setup_s: Vec<f64> = least_disturbed(&setup, |s| s.1)
        .into_iter()
        .flat_map(|(samples, steal)| samples.iter().map(|&s| net_of_steal(s, *steal)))
        .collect();
    println!(
        "# inputs {inputs:?}, {rounds} round(s) of clean and supervised runs, \
         {clean_passes} more of clean runs; times are means over inputs of per-input medians"
    );
    // For the reader: the kept samples of all inputs together.
    let pooled = |xs: &[Vec<f64>]| xs.concat();
    describe("run_s", &pooled(&run_s));
    describe("recovered_run_s", &pooled(&recovered_s));
    describe("step_s", &pooled(&step_s));
    describe("setup_s", &setup_s);
    // Diagnostics: the hypervisor's steal during each run, the wall time
    // before it was taken out, and CPU time, which excludes it.
    describe("host_steal_frac", &steal);
    describe("raw_run_s", &pooled(&raw_run_s));
    describe("run_cpu_s", &pooled(&cpu_s));
    // How much the inputs differ: their own medians.
    let medians = |xs: &[Vec<f64>]| -> Vec<String> {
        xs.iter()
            .map(|x| median(x).map_or("-".into(), |m| format!("{m:.4}")))
            .collect()
    };
    println!("# per-input run_s     {}", medians(&run_s).join(" "));
    println!("# per-input raw_run_s {}", medians(&raw_run_s).join(" "));
    println!("# per-input run_cpu_s {}", medians(&cpu_s).join(" "));
    let particles = b.workload.config(b.seed, &b.io_root).total_particles() as f64;
    let per_input = |xs: &[Vec<f64>]| mean_of_medians(xs).unwrap_or(0.0);
    let step = per_input(&step_s);
    vec![
        Metric::new("run_s", per_input(&run_s), "s"),
        Metric::new("step_s", step, "s"),
        Metric::new(
            "particles_per_s",
            if step > 0.0 { particles / step } else { 0.0 },
            "1/s",
        ),
        Metric::new("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("recovered_run_s", per_input(&recovered_s), "s"),
    ]
}

/// An untraced driver run of the current input, then a traced replay of
/// it; the replay's per-layer metrics, or `None` if either panicked.
/// `first` prints the cross-check and writes the span file.
fn trace_one(b: &mut Bench, first: bool) -> Option<Vec<Metric>> {
    let ranks = b.workload.ranks();
    let name = b.workload.name();
    let cfg = b.config();
    b.attempted += 1;
    let (run_s, report) = match drive(&cfg, ranks, false) {
        Ok(ok) => ok,
        Err(e) => {
            b.fail(&format!("run {e}"));
            return None;
        }
    };
    let mut problems = check_report(&cfg, &report, false, b.workload.needs_halos());
    problems.extend(b.hash_problem(report.final_state_hash, false));
    if !problems.is_empty() {
        b.fail(&format!("run: {}", problems.join("; ")));
    }

    let cfg = b.config();
    let io_base = cfg.io_dir.clone().expect("explicit io_dir");
    b.attempted += 1;
    let epoch = Instant::now();
    let replays = std::panic::catch_unwind(|| {
        World::run_with(cfg.rank_backend(), ranks, |comm| {
            replay_rank(&cfg, comm, &io_base, name, epoch)
        })
    });
    let replay_s = epoch.elapsed().as_secs_f64();
    remove_run_dir(&cfg);
    let Ok(replays) = replays else {
        b.fail("traced replay panicked");
        return None;
    };
    let checks = cross_check(&replays, &report);
    let (replay_hash, driver_hash) = (replays[0].state_hash, report.final_state_hash);
    if first {
        for c in &checks {
            println!(
                "# cross-check {:<24} replay {:>14} driver {:>14} drift {:.2e} bound {:.0e} {}",
                c.name,
                c.replay,
                c.driver,
                c.rel_diff(),
                c.bound,
                if c.passes() { "ok" } else { "FAIL" }
            );
        }
        println!(
            "# cross-check state hash: replay {replay_hash:016x} driver {driver_hash:016x} {}",
            if replay_hash == driver_hash {
                "ok"
            } else {
                "FAIL"
            }
        );
        let spans: Vec<_> = replays
            .iter()
            .flat_map(|r| r.spans.iter().cloned())
            .collect();
        let path = b.io_root.join(format!("trace-{name}-seed{}.json", b.seed));
        match std::fs::write(&path, chrome_trace(&spans)) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let mut drifted: Vec<&str> = failures(&checks).iter().map(|c| c.name.as_str()).collect();
    // The replay repeats the driver's arithmetic, so it must land on the
    // driver's state bit for bit.
    if replay_hash != driver_hash {
        drifted.push("state hash");
    }
    if !drifted.is_empty() {
        b.fail(&format!(
            "replay of seed {} drifts from the driver's run: {}",
            b.input,
            drifted.join(", ")
        ));
    }
    Some(layer_metrics(&cfg, &replays, replay_s, run_s))
}

/// Rounds over the workload's inputs; per metric, the mean over inputs of
/// the input's median.
fn traced(b: &mut Bench, seconds: f64) -> Vec<Metric> {
    let inputs = b.workload.inputs(b.seed);
    let mut samples: Vec<Vec<Vec<Metric>>> = inputs.iter().map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    let mut rounds = 0;
    'rounds: while another_round(rounds, t0, seconds) {
        rounds += 1;
        for (k, &input) in inputs.iter().enumerate() {
            b.input = input;
            match trace_one(b, rounds == 1 && k == 0) {
                Some(metrics) => samples[k].push(metrics),
                None => break 'rounds,
            }
        }
    }
    println!("# inputs {inputs:?}, {rounds} round(s)");
    let Some(first) = samples.iter().flatten().next() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let xs: Vec<Vec<f64>> = samples
                .iter()
                .map(|of_input| of_input.iter().map(|s| s[i].value).collect())
                .collect();
            Metric::new(m.name, mean_of_medians(&xs).unwrap_or(0.0), m.unit)
        })
        .collect()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    quiet_supervised_panics();
    let workload = args.workload;
    hacc_rt::par::set_num_threads(PAR_WORKERS);
    let (seconds, trace) = match args.mode {
        Mode::Child { supervised, io_dir } => {
            std::process::exit(child_main(workload, args.seed, supervised, &io_dir))
        }
        Mode::Bench { seconds, trace } => (seconds, trace),
    };
    let mut bench = Bench {
        workload,
        seed: args.seed,
        input: args.seed,
        // Relative, so the checkout's own path does not enter the runs.
        io_root: PathBuf::from(".bench_io"),
        runs: 0,
        attempted: 0,
        failed: 0,
        clean_hashes: BTreeMap::new(),
    };
    if let Err(e) = std::fs::create_dir_all(&bench.io_root) {
        eprintln!("perfbench: cannot create {}: {e}", bench.io_root.display());
        std::process::exit(2);
    }
    println!(
        "# perfbench {} seed {} ({}) for {seconds} s",
        workload.name(),
        args.seed,
        if trace { "traced" } else { "untraced" },
    );
    let metrics = if trace {
        traced(&mut bench, seconds)
    } else {
        untraced(&mut bench, seconds)
    };
    let host = Host::probe(Backend::from_env(), PAR_WORKERS);
    let working_set = metrics
        .iter()
        .find(|m| m.name == "peak_rss_mb")
        .map_or_else(|| host::peak_rss_mb().unwrap_or(0.0), |m| m.value);
    println!("# host {}", host.to_json(working_set));
    println!("# gpusim flops and bytes are computed by the device model, not measured");
    for m in &metrics {
        println!("# {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# failed_frac {} ({} of {} runs failed)",
        bench.failed as f64 / bench.attempted.max(1) as f64,
        bench.failed,
        bench.attempted
    );
    // Removed only when empty: traced runs leave their span files here.
    let _ = std::fs::remove_dir(&bench.io_root);
    println!("{}", result_json(bench.attempted, bench.failed, &metrics));
}
