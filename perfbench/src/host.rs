//! Host fingerprint: numbers from different hosts are never comparable.

/// What the figures depend on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model string.
    pub cpu: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Last-level cache size in bytes, if the OS reports it.
    pub llc_bytes: Option<u64>,
    /// Compiler the benchmark was built with.
    pub rustc: &'static str,
    /// Rank backend the runs use (`coop` or `threads`).
    pub backend: &'static str,
    /// `hacc_rt::par` workers per rank.
    pub par_workers: usize,
}

impl Host {
    /// Probe the running host.
    pub fn probe(backend: hacc_ranks::Backend, par_workers: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            nproc: nproc(),
            llc_bytes: llc_bytes(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            backend: match backend {
                hacc_ranks::Backend::Cooperative => "coop",
                hacc_ranks::Backend::Threads => "threads",
            },
            par_workers,
        }
    }

    /// One JSON object, for the line before the result.
    pub fn to_json(&self, peak_rss_mb: f64) -> String {
        let llc_mib = self.llc_bytes.map(|b| b as f64 / (1 << 20) as f64);
        let fits = llc_mib.map_or("unknown".to_string(), |l| (peak_rss_mb <= l).to_string());
        format!(
            "{{\"cpu\":\"{}\",\"nproc\":{},\"llc_mib\":{},\"rustc\":\"{}\",\
             \"rank_backend\":\"{}\",\"par_workers_per_rank\":{},\
             \"working_set_mib\":{:.1},\"working_set_fits_llc\":\"{}\"}}",
            self.cpu.replace('"', "'"),
            self.nproc,
            llc_mib.map_or("null".to_string(), |m| format!("{m:.1}")),
            self.rustc,
            self.backend,
            self.par_workers,
            peak_rss_mb,
            fits,
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the highest-level cache of CPU 0, from sysfs.
fn llc_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) this process and its reaped threads have
/// used, from `/proc/self/stat`, in seconds.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS_PER_S)
}

/// `USER_HZ`, the unit of `/proc` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Host-wide CPU ticks so far: (busy, stolen by the hypervisor), from the
/// first line of `/proc/stat`. Busy is every state but idle and iowait,
/// steal included: an idle virtual CPU halts, so the hypervisor only takes
/// time from one that has work, and a single-threaded run on a 2-CPU host
/// loses the share of *busy* time that was stolen, not of all time.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let v: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    let busy = v.get(..8)?.iter().sum::<u64>() - v[3] - v[4];
    Some((busy, v[7]))
}

/// Share of the host's busy CPU time the hypervisor stole since `before`
/// (a [`cpu_ticks`] reading); NaN where the host does not report it.
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_ticks()) {
        (Some(a), Some(b)) => steal_share(a, b),
        _ => f64::NAN,
    }
}

/// Share of busy ticks that were stolen between two [`cpu_ticks`]
/// readings; 0 when the host was idle throughout.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0);
    if busy == 0 {
        0.0
    } else {
        after.1.saturating_sub(before.1) as f64 / busy as f64
    }
}

/// Wall time net of the hypervisor's steal: the time the run would have
/// taken had its CPUs not been handed to other guests, to first order.
/// `steal` is [`steal_since`] over the run; where it is unknown (NaN) the
/// wall time is returned as measured.
pub fn net_of_steal(wall_s: f64, steal: f64) -> f64 {
    if steal.is_finite() {
        wall_s * (1.0 - steal.clamp(0.0, 1.0))
    } else {
        wall_s
    }
}
