//! Correctness checks and the replay-vs-driver work-count cross-check.

/// One work count the traced replay must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CountCheck {
    /// What is counted, e.g. `pairs.crk_force`.
    pub name: String,
    /// The replay's count.
    pub replay: f64,
    /// The driver's own count for the same run.
    pub driver: f64,
    /// Largest allowed |replay - driver| / driver.
    pub bound: f64,
}

impl CountCheck {
    /// A check of `replay` against `driver` within relative `bound`.
    pub fn new(name: impl Into<String>, replay: f64, driver: f64, bound: f64) -> Self {
        Self {
            name: name.into(),
            replay,
            driver,
            bound,
        }
    }

    /// |replay - driver| / driver; 0 when both are 0, infinite when only
    /// the driver's is.
    pub fn rel_diff(&self) -> f64 {
        let d = (self.replay - self.driver).abs();
        if d == 0.0 {
            0.0
        } else if self.driver == 0.0 {
            f64::INFINITY
        } else {
            d / self.driver.abs()
        }
    }

    /// Whether the replay stays within the bound.
    pub fn passes(&self) -> bool {
        self.rel_diff() <= self.bound
    }
}

/// The checks that fail.
pub fn failures(checks: &[CountCheck]) -> Vec<&CountCheck> {
    checks.iter().filter(|c| !c.passes()).collect()
}

/// Relative drift the replay may show on pair and byte counts. The replay
/// repeats the driver's arithmetic through the same public calls, so it
/// lands on the same counts unless a layer's behaviour changes under it.
pub const WORK_COUNT_BOUND: f64 = 0.01;

/// Collective counts are structural (a fixed sequence per PM step), so
/// they must match exactly.
pub const COLLECTIVE_COUNT_BOUND: f64 = 0.0;

/// Largest relative drift of the ledger's total mass; the bound of the
/// repo's own ledger tests (`tests/hydro_physics.rs`).
pub const MASS_DRIFT_BOUND: f64 = 1e-12;

/// Largest |Σ m v| / Σ m|v| at any step; the bound of the repo's own
/// tests for both gravity-only and hydro physics.
pub const MOMENTUM_FRAC_BOUND: f64 = 0.05;

/// The checks one driver report must pass on its own: particle count and
/// mass conserved per the ledger, net momentum within bound, every step
/// reported, and halos where the workload needs them. A recovered run
/// (`supervised`) must also show the planned rollback; it reports only
/// the steps of its last attempt, which resumed after the newest common
/// checkpoint. Returns one line per failed check.
pub fn check_report(
    cfg: &hacc_core::SimConfig,
    r: &hacc_core::SimReport,
    supervised: bool,
    needs_halos: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let ledger = &r.ledger;
    let last_step = ledger.records().last().map(|rec| rec.step);
    let full = ledger.len() == cfg.pm_steps && r.steps.len() == cfg.pm_steps;
    if last_step != Some(cfg.pm_steps as u64 - 1) || (!supervised && !full) {
        bad.push(format!(
            "{} ledger records and {} step records for {} steps",
            ledger.len(),
            r.steps.len(),
            cfg.pm_steps
        ));
    }
    if !ledger.count_conserved()
        || ledger
            .records()
            .iter()
            .any(|rec| rec.count != r.total_particles)
    {
        bad.push(format!(
            "particle count not conserved ({} expected)",
            r.total_particles
        ));
    }
    let drift = ledger.mass_drift();
    if drift.is_nan() || drift >= MASS_DRIFT_BOUND {
        bad.push(format!("mass drift {drift:e} >= {MASS_DRIFT_BOUND:e}"));
    }
    let frac = ledger.max_momentum_fraction();
    if frac.is_nan() || frac >= MOMENTUM_FRAC_BOUND {
        bad.push(format!(
            "|sum p| / sum |p| = {frac:e} >= {MOMENTUM_FRAC_BOUND}"
        ));
    }
    if needs_halos && r.n_halos == 0 {
        bad.push("no FOF halos found".into());
    }
    if supervised && r.rollbacks == 0 {
        bad.push("the planned rank loss never fired".into());
    }
    bad
}
