//! `frontier-sim` — command-line driver for the CRK-HACC reproduction.
//!
//! ```text
//! frontier-sim run   [--np N] [--ranks R] [--steps S] [--physics hydro|adiabatic|gravity]
//!                    [--zi Z] [--zf Z] [--seed S] [--out DIR] [--flat] [--resume]
//!                    [--telemetry DIR] [--chaos SPEC] [--sanitize] [--backend B]
//! frontier-sim ranks [--ranks R] [--rounds K] [--seed S] [--backend B] [--sanitize]
//! frontier-sim scaling [--ranks-max R]
//! frontier-sim lint  [--root DIR] [--allow FILE] [--json]
//! frontier-sim info
//! ```

use frontier_sim::core::scaling::{strong_scaling, weak_scaling};
use frontier_sim::core::{resume_simulation, run_supervised, Physics, SimConfig};
use frontier_sim::ranks::{smoke, Backend, World};
use frontier_sim::telem::{phase_seconds, PHASES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ranks") => cmd_ranks(&args[1..]),
        Some("scaling") => cmd_scaling(&args[1..]),
        Some("lint") => std::process::exit(frontier_sim::lint::cli_main(&args[1..])),
        Some("info") => cmd_info(),
        _ => {
            eprintln!(
                "usage: frontier-sim <run|ranks|scaling|lint|info> [options]\n\
                 \n\
                 run options:\n\
                 \x20 --np N          particles per dimension per species (default 12)\n\
                 \x20 --ranks R       simulated ranks (default 2)\n\
                 \x20 --steps S       global PM steps (default 4)\n\
                 \x20 --physics P     hydro | adiabatic | gravity (default hydro)\n\
                 \x20 --zi Z          initial redshift (default 9)\n\
                 \x20 --zf Z          final redshift (default 4)\n\
                 \x20 --seed S        RNG seed\n\
                 \x20 --out DIR       I/O directory (enables restart)\n\
                 \x20 --flat          synchronized deepest-rung stepping\n\
                 \x20 --resume        resume from the newest checkpoint in --out\n\
                 \x20 --telemetry DIR write trace.json + report.txt to DIR\n\
                 \x20 --chaos SPEC    inject faults and supervise recovery;\n\
                 \x20                 SPEC = site@step:rank,... | auto@N with sites\n\
                 \x20                 panic comm-delay comm-dup comm-trunc ckpt-torn\n\
                 \x20                 ckpt-crc nvme-err gpu-launch\n\
                 \x20 --sanitize      run under the hacc-san dynamic sanitizer\n\
                 \x20                 (races, collective matching, deadlock); findings\n\
                 \x20                 honor <root>/san.allow and exit 1 when unsuppressed\n\
                 \x20 --backend B     rank backend: coop (default) multiplexes ranks\n\
                 \x20                 onto a bounded worker pool; threads runs one OS\n\
                 \x20                 thread per rank (reference model)\n\
                 \n\
                 ranks options (self-checking communication smoke world):\n\
                 \x20 --ranks R       world size (default 256; 4096 works on a laptop\n\
                 \x20                 under the coop backend)\n\
                 \x20 --rounds K      rounds of the full collective suite (default 2)\n\
                 \x20 --seed S        workload seed (default 2026)\n\
                 \x20 --backend B     coop (default) | threads\n\
                 \x20 --sanitize      run under hacc-san; output is deterministic and\n\
                 \x20                 byte-comparable across repeated invocations\n\
                 \n\
                 scaling options:\n\
                 \x20 --ranks-max R   largest rank count in the sweep (default 4)\n\
                 \n\
                 lint options:\n\
                 \x20 --root DIR      workspace to lint (default: walk up from cwd)\n\
                 \x20 --allow FILE    suppression file (default: <root>/lint.allow)\n\
                 \x20 --json          machine-readable findings on stdout\n\
                 \x20 --strict        also fail on stale lint.allow entries"
            );
            std::process::exit(2);
        }
    }
}

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_opt<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            if let Some(v) = it.next() {
                if let Ok(parsed) = v.parse() {
                    return parsed;
                }
                eprintln!("bad value for {name}: {v}");
                std::process::exit(2);
            }
        }
    }
    default
}

fn parse_backend(args: &[String]) -> Option<Backend> {
    match parse_opt(args, "--backend", String::new()).as_str() {
        "" => None,
        "coop" | "cooperative" => Some(Backend::Cooperative),
        "threads" | "thread" => Some(Backend::Threads),
        other => {
            eprintln!("unknown backend {other:?} (coop|threads)");
            std::process::exit(2);
        }
    }
}

/// `frontier-sim ranks`: stand up an R-rank SPMD world running the
/// self-checking collective smoke workload and print a deterministic
/// summary. Every payload is closed-form in `(seed, size, rank)`, so the
/// digest — and with `--sanitize` the whole report — is byte-identical
/// across repeated runs and across backends; the verify scaling tier
/// compares exactly that.
fn cmd_ranks(args: &[String]) {
    let ranks: usize = parse_opt(args, "--ranks", 256);
    let rounds: usize = parse_opt(args, "--rounds", 2);
    let seed: u64 = parse_opt(args, "--seed", 2026);
    let backend = parse_backend(args).unwrap_or_else(Backend::from_env);
    let backend_name = match backend {
        Backend::Cooperative => "coop",
        Backend::Threads => "threads",
    };
    println!("# frontier-sim ranks");
    println!("ranks               : {ranks}");
    println!("backend             : {backend_name}");
    println!("rounds              : {rounds}");
    println!("seed                : {seed}");
    let digest_of = |digests: &[u64]| {
        // Order-sensitive FNV-1a over the per-rank digests.
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for v in digests {
            for b in v.to_le_bytes() {
                d ^= u64::from(b);
                d = d.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        d
    };
    if parse_flag(args, "--sanitize") {
        let (digests, report) = World::run_sanitized_with(backend, ranks, |comm| {
            smoke::smoke(comm, seed, rounds)
        });
        let digests = digests.unwrap_or_else(|| {
            panic!("sanitizer aborted the run:\n{}", report.render_text())
        });
        println!("digest              : {:016x}", digest_of(&digests));
        print!("{}", report.render_text());
        if !report.is_clean() {
            std::process::exit(1);
        }
    } else {
        let digests =
            World::run_with(backend, ranks, |comm| smoke::smoke(comm, seed, rounds));
        println!("digest              : {:016x}", digest_of(&digests));
    }
}

fn cmd_run(args: &[String]) {
    let np: usize = parse_opt(args, "--np", 12);
    let ranks: usize = parse_opt(args, "--ranks", 2);
    let steps: usize = parse_opt(args, "--steps", 4);
    let physics = match parse_opt(args, "--physics", "hydro".to_string()).as_str() {
        "hydro" => Physics::Hydro,
        "adiabatic" => Physics::HydroAdiabatic,
        "gravity" => Physics::GravityOnly,
        other => {
            eprintln!("unknown physics {other:?} (hydro|adiabatic|gravity)");
            std::process::exit(2);
        }
    };
    let zi: f64 = parse_opt(args, "--zi", 9.0);
    let zf: f64 = parse_opt(args, "--zf", 4.0);

    let mut cfg = SimConfig::small(np);
    cfg.physics = physics;
    cfg.pm_steps = steps;
    cfg.a_init = 1.0 / (1.0 + zi);
    cfg.a_final = 1.0 / (1.0 + zf);
    cfg.seed = parse_opt(args, "--seed", cfg.seed);
    cfg.flat_stepping = parse_flag(args, "--flat");
    let out: String = parse_opt(args, "--out", String::new());
    if !out.is_empty() {
        cfg.io_dir = Some(out.clone().into());
    }
    let chaos: String = parse_opt(args, "--chaos", String::new());
    if !chaos.is_empty() {
        cfg.chaos = Some(chaos);
    }
    cfg.sanitize = parse_flag(args, "--sanitize");
    cfg.backend = parse_backend(args);
    if cfg.sanitize && (cfg.chaos.is_some() || parse_flag(args, "--resume")) {
        // The supervised-rollback and resume paths run plain worlds; arm
        // them with HACC_SAN=1 instead of the flag.
        eprintln!("--sanitize combines with neither --chaos nor --resume (use HACC_SAN=1)");
        std::process::exit(2);
    }

    println!(
        "frontier-sim: {} particles, {:.0} Mpc/h box, {} PM steps, z = {:.1} -> {:.1}, {} ranks",
        cfg.total_particles(),
        cfg.box_size,
        cfg.pm_steps,
        zi,
        zf,
        ranks
    );
    let t0 = std::time::Instant::now();
    let mut report = if parse_flag(args, "--resume") {
        if cfg.io_dir.is_none() {
            eprintln!("--resume requires --out DIR");
            std::process::exit(2);
        }
        resume_simulation(&cfg, ranks)
    } else {
        // Supervised path; with no --chaos spec this is exactly
        // run_simulation.
        run_supervised(&cfg, ranks)
    };
    let wall = t0.elapsed().as_secs_f64();

    // Partition sanitizer findings through <workspace>/san.allow before
    // anything renders, so the console summary, the telemetry golden
    // lines, and sanitizer.txt all agree on the suppressed count.
    if let Some(san) = &mut report.sanitizer {
        let root = frontier_sim::lint::find_workspace_root(std::path::Path::new("."));
        let allow_path = root.map(|r| r.join("san.allow"));
        if let Some(path) = allow_path.filter(|p| p.is_file()) {
            let text = std::fs::read_to_string(&path).expect("read san.allow");
            let mut allow = frontier_sim::lint::AllowList::parse(&text, &path.to_string_lossy())
                .unwrap_or_else(|e| {
                    eprintln!("san.allow: {e}");
                    std::process::exit(2);
                });
            san.apply_allow(&mut allow);
        }
        report.telemetry.sanitizer = san.golden_lines();
    }

    let telemetry_dir: String = parse_opt(args, "--telemetry", String::new());
    if !telemetry_dir.is_empty() {
        let dir = std::path::Path::new(&telemetry_dir);
        std::fs::create_dir_all(dir).expect("create telemetry dir");
        std::fs::write(dir.join("trace.json"), report.telemetry.chrome_trace())
            .expect("write trace.json");
        std::fs::write(dir.join("report.txt"), report.telemetry.text_report())
            .expect("write report.txt");
        println!(
            "telemetry: wrote {} and {}",
            dir.join("trace.json").display(),
            dir.join("report.txt").display()
        );
        if let Some(san) = &report.sanitizer {
            std::fs::write(dir.join("sanitizer.txt"), san.render_text())
                .expect("write sanitizer.txt");
            std::fs::write(
                dir.join("sanitizer.json"),
                frontier_sim::lint::diag::render_json(&san.findings, san.suppressed),
            )
            .expect("write sanitizer.json");
            println!(
                "telemetry: wrote {} (+ .json)",
                dir.join("sanitizer.txt").display()
            );
        }
    }

    println!("\ncompleted {} step(s) in {wall:.1} s", report.steps.len());
    println!(
        "state hash: {:016x} (attempts {}, rollbacks {})",
        report.final_state_hash, report.attempts, report.rollbacks
    );
    if report.rollbacks > 0 {
        let injected: u64 = report
            .telemetry
            .ranks
            .iter()
            .map(|r| r.faults.total_injected())
            .sum();
        println!("supervisor: recovered from {injected} injected fault(s)");
    }
    println!("\nphase breakdown:");
    let secs = phase_seconds(&report.telemetry.ranks);
    let total: f64 = secs.iter().sum();
    for (phase, s) in PHASES.iter().zip(secs) {
        println!("  {:<12} {:>5.1}%", phase.name(), s / total * 100.0);
    }
    println!("\nper-kernel profile (modeled on {}):", 
        frontier_sim::gpusim::DeviceSpec::mi250x_gcd().name);
    let model = frontier_sim::gpusim::ExecutionModel::new(
        frontier_sim::gpusim::DeviceSpec::mi250x_gcd(),
    );
    for r in report.profile.rows(&model) {
        println!(
            "  {:<18} {:>10.2e} FLOPs  {:>9.2e} pairs  {:>5.1}% util  {:>5.1}% of time",
            r.name,
            r.flops as f64,
            r.pairs as f64,
            r.utilization * 100.0,
            r.time_share * 100.0
        );
    }
    println!("\nsolver:");
    println!("  FLOPs            : {:.3e}", report.counters.flops);
    println!("  pair interactions: {:.3e}", report.counters.pairs);
    println!(
        "  particles/s      : {:.3e}",
        report.particles_per_second
    );
    let mean_util =
        report.utilizations.iter().sum::<f64>() / report.utilizations.len().max(1) as f64;
    println!("  mean utilization : {:.1}% (modeled)", mean_util * 100.0);
    if report.io.checkpoints > 0 {
        println!("\nI/O (modeled at 9,000 nodes):");
        println!("  checkpoints      : {}", report.io.checkpoints);
        println!(
            "  effective BW     : {:.1} TB/s",
            report.io.effective_bandwidth_tbs()
        );
    }
    println!("\nscience:");
    println!("  FOF halos        : {}", report.n_halos);
    println!("  HOD galaxies     : {}", report.n_galaxies);
    println!("  stars formed     : {}", report.total_stars);
    println!(
        "  SZ concentration : {:.2} (top-1% pixel share)",
        report.y_map_concentration
    );
    if let Some(b) = report.power.first() {
        println!(
            "  P(k={:.3})        : {:.3e} (Mpc/h)^3",
            b.k, b.power
        );
    }
    if let Some(x) = report.xi.first() {
        println!("  xi(r={:.2})        : {:.3}", x.r, x.xi);
    }
    if let Some(san) = &report.sanitizer {
        println!("\nsanitizer:");
        for line in san.render_text().lines() {
            println!("  {line}");
        }
        if !san.is_clean() {
            std::process::exit(1);
        }
    }
}

fn cmd_scaling(args: &[String]) {
    let rmax: usize = parse_opt(args, "--ranks-max", 4);
    let mut ranks = vec![1usize];
    while *ranks.last().unwrap() * 2 <= rmax {
        ranks.push(ranks.last().unwrap() * 2);
    }
    let mut base = SimConfig::small(8);
    base.physics = Physics::GravityOnly;
    base.pm_steps = 1;
    base.max_rung = 0;
    base.analysis_every = 0;
    base.checkpoint_every = 0;

    println!("weak scaling:");
    for p in weak_scaling(&base, 8, &ranks) {
        println!(
            "  ranks {:>3}: {:.2e} p/s, raw {:>4.0}%, core-adjusted {:>4.0}%",
            p.ranks,
            p.particles_per_second,
            p.efficiency * 100.0,
            p.adjusted_efficiency * 100.0
        );
    }
    println!("strong scaling:");
    for p in strong_scaling(&base, 12, &ranks) {
        println!(
            "  ranks {:>3}: {:.3} s solver, raw {:>4.0}%, core-adjusted {:>4.0}%",
            p.ranks,
            p.solver_seconds,
            p.efficiency * 100.0,
            p.adjusted_efficiency * 100.0
        );
    }
}

fn cmd_info() {
    let paper = SimConfig::frontier_e();
    println!("frontier-sim — CRK-HACC / Frontier-E reproduction");
    println!("\npaper configuration (documented, not locally runnable):");
    println!("  particles : {:.2e}", paper.total_particles() as f64);
    println!(
        "  box       : {:.0} Mpc/h ({:.1} Gpc)",
        paper.box_size,
        paper.box_size / 1000.0 / paper.cosmology.h
    );
    println!("  PM mesh   : {}^3", paper.ngrid);
    println!("  PM steps  : {}", paper.pm_steps);
    println!("\ndevice catalog:");
    for d in frontier_sim::gpusim::DeviceSpec::catalog() {
        println!(
            "  {:<28} warp {:>2}, {:>5.1} TFLOPs FP32",
            d.name, d.warp_width, d.peak_tflops_fp32
        );
    }
    println!(
        "\nFrontier partition peak: {:.3} EFLOPs FP32 (9,000 nodes x 8 GCDs)",
        frontier_sim::gpusim::device::frontier::partition_peak_pflops() / 1000.0
    );
}
