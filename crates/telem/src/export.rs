//! Exporters: Chrome-trace JSON and the per-rank/per-phase text report.
//!
//! The Chrome trace (`chrome://tracing` / Perfetto "trace event" format)
//! is golden in its entirety: timestamps are the tracer's logical
//! sequence numbers, one lane (`tid`) per rank. The text report carries a
//! golden region delimited by [`GOLDEN_BEGIN`]/[`GOLDEN_END`] followed by
//! a non-golden wall-clock appendix. Regression tests and the
//! `scripts/verify.sh` lint compare golden regions byte-for-byte.

use crate::counters::{
    CommCounters, FaultCounters, GpuKernelRow, IoCounters, COLLECTIVE_KINDS, FAULT_KINDS,
};
use crate::ledger::ConservationLedger;
use crate::span::{Span, PHASES};
use std::fmt::Write as _;

/// First line of the golden region of a text report.
pub const GOLDEN_BEGIN: &str = "# === GOLDEN BEGIN ===";
/// Last line of the golden region of a text report.
pub const GOLDEN_END: &str = "# === GOLDEN END ===";

/// One rank's telemetry bundle.
#[derive(Debug, Clone)]
pub struct RankTelemetry {
    /// Rank index.
    pub rank: usize,
    /// Span records, in open order.
    pub spans: Vec<Span>,
    /// Communication counters.
    pub comm: CommCounters,
    /// Tiered-I/O counters.
    pub io: IoCounters,
    /// Fault-injection counters (all zero unless the chaos harness was
    /// armed; accumulated across supervisor attempts).
    pub faults: FaultCounters,
}

/// The assembled whole-run telemetry (all ranks).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-rank bundles, in rank order.
    pub ranks: Vec<RankTelemetry>,
    /// Per-kernel GPU rows, merged across ranks, in name order.
    pub gpu: Vec<GpuKernelRow>,
    /// The conservation ledger (globally reduced; identical on every
    /// rank).
    pub ledger: ConservationLedger,
    /// Supervisor attempts the run took (1 = no fault required a
    /// restart). Golden: the attempt sequence is seed-deterministic.
    pub attempts: u64,
    /// Rollbacks to a valid checkpoint the supervisor performed.
    pub rollbacks: u64,
    /// Sanitizer summary lines (empty unless the run was sanitized).
    /// Golden: hacc-san's checks are deterministic for a fixed seed, so
    /// the summary is byte-identical run to run.
    pub sanitizer: Vec<String>,
}

/// Escape a string for a JSON literal (names are ASCII identifiers, but
/// be safe).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TelemetryReport {
    /// Render the Chrome "trace event" JSON. Fully golden: `ts`/`dur`
    /// are logical sequence numbers, `tid` is the rank.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for rt in &self.ranks {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                rt.rank, rt.rank
            ));
            for s in &rt.spans {
                let dur = s.seq_close.saturating_sub(s.seq_open);
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"step\":{},\
                     \"depth\":{}}}}}",
                    json_escape(&s.name),
                    json_escape(s.phase.name()),
                    s.seq_open,
                    dur,
                    rt.rank,
                    s.step,
                    s.depth
                ));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Render the plain-text per-rank/per-phase report: golden counters,
    /// ledger, and span tree first, then the non-golden wall-clock
    /// appendix.
    pub fn text_report(&self) -> String {
        let mut o = String::new();
        let w = &mut o;
        let _ = writeln!(w, "# frontier-sim telemetry report");
        let _ = writeln!(
            w,
            "# the golden region below is byte-identical across same-seed runs"
        );
        let _ = writeln!(w, "{GOLDEN_BEGIN}");
        let _ = writeln!(w, "[meta]");
        let _ = writeln!(w, "ranks = {}", self.ranks.len());
        let _ = writeln!(w, "ledger_steps = {}", self.ledger.len());
        let _ = writeln!(w, "attempts = {}", self.attempts);
        let _ = writeln!(w, "rollbacks = {}", self.rollbacks);
        for line in &self.sanitizer {
            let _ = writeln!(w, "{line}");
        }
        let _ = writeln!(w);

        let _ = writeln!(
            w,
            "[ledger] step count mass px py pz p_scale kinetic internal"
        );
        for r in self.ledger.records() {
            let _ = writeln!(
                w,
                "{} {} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e}",
                r.step,
                r.count,
                r.mass,
                r.momentum[0],
                r.momentum[1],
                r.momentum[2],
                r.momentum_scale,
                r.kinetic,
                r.internal
            );
        }
        let _ = writeln!(w);

        for rt in &self.ranks {
            let _ = writeln!(w, "[comm rank {}]", rt.rank);
            let _ = writeln!(w, "sends = {}", rt.comm.sends);
            let _ = writeln!(w, "recvs = {}", rt.comm.recvs);
            let _ = writeln!(w, "bytes_sent = {}", rt.comm.bytes_sent);
            for k in COLLECTIVE_KINDS {
                let _ = writeln!(w, "{} = {}", k.name(), rt.comm.collective(k));
            }
            let _ = writeln!(w);
        }

        for rt in &self.ranks {
            let _ = writeln!(w, "[io rank {}]", rt.rank);
            let _ = writeln!(w, "nvme_bytes = {}", rt.io.nvme_bytes);
            let _ = writeln!(w, "pfs_bytes = {}", rt.io.pfs_bytes);
            let _ = writeln!(w, "nvme_writes = {}", rt.io.nvme_writes);
            let _ = writeln!(w, "files_bled = {}", rt.io.files_bled);
            let _ = writeln!(w, "files_pruned = {}", rt.io.files_pruned);
            let _ = writeln!(w, "stalls = {}", rt.io.stalls);
            let _ = writeln!(w, "faults = {}", rt.io.faults);
            let _ = writeln!(w);
        }

        for rt in &self.ranks {
            let _ = writeln!(w, "[faults rank {}] kind injected recovered", rt.rank);
            for k in FAULT_KINDS {
                let _ = writeln!(
                    w,
                    "{} {} {}",
                    k.name(),
                    rt.faults.injected(k),
                    rt.faults.recovered(k)
                );
            }
            let _ = writeln!(w);
        }

        let _ = writeln!(w, "[gpu kernels] name launches flops bytes pairs");
        for g in &self.gpu {
            let _ = writeln!(
                w,
                "{} {} {} {} {}",
                g.name, g.launches, g.flops, g.bytes, g.pairs
            );
        }
        let _ = writeln!(w);

        for rt in &self.ranks {
            let _ = writeln!(w, "[spans rank {}] seq_open..seq_close name (phase)", rt.rank);
            for s in &rt.spans {
                let _ = writeln!(
                    w,
                    "{:indent$}{}..{} {} ({})",
                    "",
                    s.seq_open,
                    s.seq_close,
                    s.name,
                    s.phase.name(),
                    indent = 2 * (s.depth as usize + 1)
                );
            }
            let _ = writeln!(w);
        }
        let _ = writeln!(w, "{GOLDEN_END}");

        let _ = writeln!(w);
        let _ = writeln!(w, "# non-golden appendix: wall-clock seconds (vary run to run)");
        let _ = writeln!(w, "[wall-clock phases, summed over ranks]");
        for (p, s) in PHASES.iter().zip(phase_seconds(&self.ranks)) {
            let _ = writeln!(w, "{} = {s:.6}s", p.name());
        }
        o
    }
}

/// Wall seconds per phase, summed over `ranks` and indexed like
/// [`PHASES`] — **non-golden**. Each span contributes its self time (its
/// `wall_s` minus its direct children's) to its phase; the `step`
/// envelope's self time counts as `misc`. Self times partition the wall
/// time, so per rank the phases sum to the wall time of its depth-0
/// spans.
pub fn phase_seconds(ranks: &[RankTelemetry]) -> [f64; PHASES.len()] {
    let mut secs = [0.0; PHASES.len()];
    for rt in ranks {
        for s in &rt.spans {
            secs[s.phase.slot()] += s.wall_s;
            if let Some(parent) = s.parent {
                secs[rt.spans[parent].phase.slot()] -= s.wall_s;
            }
        }
    }
    secs
}

/// Extract the golden region (inclusive of its markers) from a text
/// report. Panics if the markers are missing or out of order — a report
/// without a golden region is malformed.
pub fn golden_section(report: &str) -> &str {
    let begin = report
        .find(GOLDEN_BEGIN)
        .expect("report missing GOLDEN BEGIN marker");
    let end = report
        .find(GOLDEN_END)
        .expect("report missing GOLDEN END marker");
    assert!(begin < end, "golden markers out of order");
    &report[begin..end + GOLDEN_END.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerRecord;
    use crate::span::{Phase, Tracer};

    fn sample_report(sleep: bool) -> TelemetryReport {
        let mut tr = Tracer::new(0);
        tr.set_step(0);
        let a = tr.begin(Phase::Misc, "migrate");
        if sleep {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        tr.end(a);
        let (_, _) = tr.scope(Phase::Io, "checkpoint", || ());
        let mut comm = CommCounters::default();
        comm.record_send(64);
        comm.record_collective(crate::CollectiveKind::AllReduce);
        let mut ledger = ConservationLedger::new();
        ledger.push(LedgerRecord {
            step: 0,
            count: 512,
            mass: 1.5e12,
            momentum: [0.25, -0.5, 0.125],
            momentum_scale: 3.0e4,
            kinetic: 7.5e3,
            internal: 1.25e2,
        });
        TelemetryReport {
            ranks: vec![RankTelemetry {
                rank: 0,
                spans: tr.into_spans(),
                comm,
                io: IoCounters::default(),
                faults: {
                    let mut f = FaultCounters::default();
                    f.record_injected(crate::FaultKind::CommDup);
                    f.record_recovered(crate::FaultKind::CommDup);
                    f
                },
            }],
            gpu: vec![GpuKernelRow {
                name: "crk_force".into(),
                launches: 4,
                flops: 1000,
                bytes: 512,
                pairs: 99,
            }],
            ledger,
            attempts: 1,
            rollbacks: 0,
            sanitizer: Vec::new(),
        }
    }

    #[test]
    fn fault_rows_render_in_golden_region() {
        let txt = sample_report(false).text_report();
        let golden = golden_section(&txt);
        assert!(golden.contains("[faults rank 0] kind injected recovered"));
        assert!(golden.contains("comm_dup 1 1"));
        assert!(golden.contains("rank_panic 0 0"));
        assert!(golden.contains("attempts = 1"));
        assert!(golden.contains("rollbacks = 0"));
    }

    #[test]
    fn golden_region_is_wall_clock_invariant() {
        let a = sample_report(false).text_report();
        let b = sample_report(true).text_report();
        assert_ne!(a, b, "wall appendix should differ");
        assert_eq!(golden_section(&a), golden_section(&b));
    }

    #[test]
    fn golden_region_mentions_no_wall_clock() {
        let txt = sample_report(true).text_report();
        let golden = golden_section(&txt);
        assert!(!golden.to_lowercase().contains("wall"));
        // The appendix does.
        assert!(txt.to_lowercase().contains("wall-clock"));
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let a = sample_report(false).chrome_trace();
        let b = sample_report(true).chrome_trace();
        assert_eq!(a, b, "chrome trace must be fully golden");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"migrate\""));
        assert!(!a.contains("wall"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn ledger_rows_render_full_precision() {
        let txt = sample_report(false).text_report();
        assert!(txt.contains("1.500000000000e12"));
        assert!(txt.contains("512"));
    }

    fn rank_of(rank: usize, tracer: Tracer) -> RankTelemetry {
        RankTelemetry {
            rank,
            spans: tracer.into_spans(),
            comm: CommCounters::default(),
            io: IoCounters::default(),
            faults: FaultCounters::default(),
        }
    }

    fn nap(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn phases_index_their_slots() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.slot(), i, "{}", p.name());
        }
        assert_eq!(Phase::Step.slot(), Phase::Misc.slot());
    }

    #[test]
    fn nested_spans_attribute_time_to_exactly_one_phase() {
        // A misc span opened inside a long-range span claims its own wall
        // time exclusively: the per-phase totals sum to the elapsed time
        // of the outer span, with no double-counting.
        let mut tr = Tracer::new(0);
        let outer = tr.begin(Phase::LongRange, "outer");
        nap(5);
        let inner = tr.begin(Phase::Misc, "inner");
        nap(10);
        let inner_s = tr.end(inner);
        nap(5);
        let outer_s = tr.end(outer);
        let secs = phase_seconds(&[rank_of(0, tr)]);

        let get = |p: Phase| secs[p.slot()];
        assert!(inner_s >= 0.010);
        assert!(get(Phase::Misc) >= 0.010);
        assert!(get(Phase::LongRange) > 0.0);
        let total: f64 = secs.iter().sum();
        assert!(
            (total - outer_s).abs() < 1e-9,
            "phases {secs:?} != outer {outer_s:.6}"
        );
    }

    #[test]
    fn deeply_nested_spans_sum_to_elapsed() {
        let mut tr = Tracer::new(0);
        let a = tr.begin(Phase::ShortRange, "a");
        let b = tr.begin(Phase::TreeBuild, "b");
        let c = tr.begin(Phase::Analysis, "c");
        nap(3);
        tr.end(c);
        tr.end(b);
        let outer_s = tr.end(a);
        let total: f64 = phase_seconds(&[rank_of(0, tr)]).iter().sum();
        assert!((total - outer_s).abs() < 1e-9);
    }

    #[test]
    fn step_envelope_self_time_counts_as_misc_and_ranks_add() {
        let run = |rank: usize| {
            let mut tr = Tracer::new(rank);
            let step = tr.begin(Phase::Step, "step-0");
            nap(4);
            let sr = tr.begin(Phase::ShortRange, "subcycle-block");
            nap(2);
            let sr_s = tr.end(sr);
            let step_s = tr.end(step);
            (rank_of(rank, tr), step_s - sr_s, step_s)
        };
        let (r0, misc0, wall0) = run(0);
        let (r1, misc1, wall1) = run(1);
        let one = phase_seconds(std::slice::from_ref(&r0));
        assert!((one[Phase::Misc.slot()] - misc0).abs() < 1e-12);
        assert!(misc0 >= 0.004);
        let both = phase_seconds(&[r0, r1]);
        assert!((both[Phase::Misc.slot()] - (misc0 + misc1)).abs() < 1e-12);
        let total: f64 = both.iter().sum();
        assert!((total - (wall0 + wall1)).abs() < 1e-9);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\tend"), "tab\\u0009end");
    }
}
