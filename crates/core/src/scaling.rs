//! Scaling harness (Fig. 4) and the machine-scale extrapolation model.
//!
//! Weak scaling holds the per-rank load fixed while ranks grow; strong
//! scaling fixes the total problem. We measure the solver phases only
//! (short-range + spectral), exactly like the paper's Fig. 4, and report
//! particles processed per second. An analytic efficiency model —
//! calibrated to the measured multi-rank efficiencies — extrapolates to
//! the 9,000-node Frontier partition for the headline comparisons.

use crate::config::SimConfig;
use crate::driver::run_simulation;
use hacc_telem::{phase_seconds, Phase};

/// One scaling measurement point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Simulated ranks.
    pub ranks: usize,
    /// Total particles.
    pub particles: u64,
    /// Solver seconds (short-range + long-range + tree), averaged per
    /// rank.
    pub solver_seconds: f64,
    /// Particle updates per step wall second, aggregated.
    pub particles_per_second: f64,
    /// Raw wall-clock efficiency relative to the smallest point.
    pub efficiency: f64,
    /// Core-oversubscription-adjusted efficiency: simulated ranks share
    /// this machine's physical cores, so `R` ranks on `C < R` cores
    /// serialize by construction. Multiplying the raw efficiency by the
    /// oversubscription factor isolates the *algorithmic* overhead
    /// (communication, ghost duplication, imbalance) — the quantity the
    /// paper's Fig. 4 measures on a machine whose cores grow with ranks.
    pub adjusted_efficiency: f64,
}

/// Oversubscription factor: ranks per available core (>= 1).
pub fn oversubscription(ranks: usize) -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (ranks as f64 / cores as f64).max(1.0)
}

/// Run a weak-scaling sweep: per-rank load fixed at `np_per_rank³` sites,
/// box grown with rank count.
pub fn weak_scaling(base: &SimConfig, np_per_rank: usize, rank_counts: &[usize]) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &ranks in rank_counts {
        let np = (np_per_rank as f64 * (ranks as f64).cbrt()).round() as usize;
        let mut cfg = scaled_config(base, np);
        cfg.seed = base.seed + ranks as u64;
        points.push(measure(&cfg, ranks));
    }
    normalize_weak(&mut points);
    points
}

/// Run a strong-scaling sweep: total problem fixed at `np³` sites.
pub fn strong_scaling(base: &SimConfig, np: usize, rank_counts: &[usize]) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &ranks in rank_counts {
        let cfg = scaled_config(base, np);
        points.push(measure(&cfg, ranks));
    }
    normalize_strong(&mut points);
    points
}

fn scaled_config(base: &SimConfig, np: usize) -> SimConfig {
    let mut cfg = base.clone();
    let spacing = base.particle_spacing();
    cfg.np = np;
    cfg.ngrid = np;
    cfg.box_size = np as f64 * spacing;
    cfg
}

fn measure(cfg: &SimConfig, ranks: usize) -> ScalePoint {
    let report = run_simulation(cfg, ranks);
    let secs = phase_seconds(&report.telemetry.ranks);
    let solver = (secs[Phase::ShortRange as usize]
        + secs[Phase::LongRange as usize]
        + secs[Phase::TreeBuild as usize])
        / ranks as f64;
    ScalePoint {
        ranks,
        particles: report.total_particles,
        solver_seconds: solver,
        particles_per_second: report.particles_per_second,
        efficiency: 1.0,
        adjusted_efficiency: 1.0,
    }
}

/// Weak efficiency: per-rank throughput relative to the smallest point.
fn normalize_weak(points: &mut [ScalePoint]) {
    if points.is_empty() {
        return;
    }
    let per_rank0 = points[0].particles_per_second / points[0].ranks as f64;
    let o0 = oversubscription(points[0].ranks);
    for p in points.iter_mut() {
        let per_rank = p.particles_per_second / p.ranks as f64;
        p.efficiency = per_rank / per_rank0.max(1e-300);
        p.adjusted_efficiency =
            per_rank * oversubscription(p.ranks) / (per_rank0 * o0).max(1e-300);
    }
}

/// Strong efficiency: speedup over the smallest point relative to ideal.
fn normalize_strong(points: &mut [ScalePoint]) {
    if points.is_empty() {
        return;
    }
    let (r0, t0) = (points[0].ranks as f64, points[0].solver_seconds);
    let o0 = oversubscription(points[0].ranks);
    for p in points.iter_mut() {
        let ideal = t0 * r0 / p.ranks as f64;
        p.efficiency = ideal / p.solver_seconds.max(1e-12);
        let ideal_adj = ideal * oversubscription(p.ranks) / o0;
        p.adjusted_efficiency = ideal_adj / p.solver_seconds.max(1e-12);
    }
}

/// Machine-scale extrapolation (the Frontier-E star in Fig. 4).
///
/// Given a measured per-rank update rate and a weak-scaling efficiency,
/// predict the full-partition rate; with the paper's parameters
/// (72,000 ranks, 95% weak efficiency) the model reproduces the
/// 46.6 × 10⁹ particles/s headline when fed the paper's per-GCD rate.
pub fn extrapolate_rate(per_rank_rate: f64, ranks: usize, weak_efficiency: f64) -> f64 {
    per_rank_rate * ranks as f64 * weak_efficiency.clamp(0.0, 1.0)
}

/// The paper's own numbers as a consistency check: 46.6e9 particles/s on
/// 72,000 GCD-ranks implies ~0.68e6 particles/s/rank at 95% efficiency.
pub fn frontier_per_rank_rate() -> f64 {
    46.6e9 / (72_000.0 * 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Physics;

    fn base() -> SimConfig {
        let mut c = SimConfig::small(8);
        c.physics = Physics::GravityOnly;
        c.pm_steps = 1;
        c.max_rung = 0;
        c.analysis_every = 0;
        c.checkpoint_every = 0;
        c
    }

    #[test]
    fn weak_scaling_efficiency_reasonable() {
        let points = weak_scaling(&base(), 8, &[1, 2]);
        assert_eq!(points.len(), 2);
        assert!((points[0].efficiency - 1.0).abs() < 1e-12);
        // Thread-simulated ranks on shared cores can even superscale;
        // just require a sane band.
        assert!(
            points[1].efficiency > 0.3 && points[1].efficiency < 3.0,
            "efficiency {}",
            points[1].efficiency
        );
    }

    #[test]
    fn strong_scaling_reduces_solver_time_per_rank() {
        let points = strong_scaling(&base(), 10, &[1, 2]);
        assert_eq!(points[0].particles, points[1].particles);
        assert!(points[1].efficiency > 0.2, "eff {}", points[1].efficiency);
    }

    #[test]
    fn extrapolation_reproduces_headline() {
        let rate = extrapolate_rate(frontier_per_rank_rate(), 72_000, 0.95);
        assert!((rate / 46.6e9 - 1.0).abs() < 1e-9);
    }
}
