//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Mean over groups of each group's median, skipping empty groups; `None`
/// when every group is empty. A workload's inputs are the groups: each
/// counts once, however many samples it has.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        // Cut point i of 4 sits at position i*(n+1)/4 (1-based). Like
        // Python, the weight is not clamped, so tiny samples extrapolate.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// A high percentile that has enough samples beyond it to mean something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPercentile {
    /// The percentile, e.g. 90.0.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Percentiles tried from the highest down.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of p99.9/p99/p95/p90/p75/p50 with at least `min_beyond`
/// samples strictly above it, or `None` if even the median has fewer.
pub fn tail_percentile(xs: &[f64], min_beyond: usize) -> Option<TailPercentile> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    TAIL_PCTS.iter().find_map(|&pct| {
        // Nearest rank: the smallest value with at least pct% at or below.
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        let value = s[rank.min(n) - 1];
        let beyond = s.iter().filter(|&&x| x > value).count();
        (beyond >= min_beyond).then_some(TailPercentile {
            pct,
            value,
            beyond,
            n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
