//! D1 — determinism.
//!
//! Two lexical checks back the golden-run contract:
//!
//! 1. **Hash-ordered collections in golden paths.** Iterating a
//!    `HashMap`/`HashSet` visits entries in hasher order, which varies
//!    with `RandomState` — any value that flows from such an iteration
//!    into telemetry, analysis output, or a cross-rank reduction breaks
//!    bitwise reproducibility. The rule flags *any* mention of a hash
//!    collection in the scoped golden paths (`crates/telem/src`,
//!    `crates/analysis/src`, `crates/core/src/driver.rs`): in those
//!    files the fix is always `BTreeMap`/`BTreeSet` or a sort before
//!    iteration, so mere presence is the signal.
//!
//! 2. **Wall-clock reads outside the blessed modules.** `Instant::now`
//!    and `SystemTime` are how wall time leaks into what should be a
//!    pure function of the seed. Only `telem::span` (the span tracer,
//!    the simulation's one clock: phase totals derive from its span
//!    self times), `rt::bench`, and the `crates/bench` harness may read
//!    clocks; anything else needs a reviewed `lint.allow` entry.
//!
//! 3. **Environment reads in golden paths.** `std::env::var` (and
//!    `var_os` / `vars` / `option_env!`) is ambient configuration: two
//!    runs of the same seed on different machines silently diverge.
//!    In the golden scopes every knob must arrive through the parsed
//!    config; only `core::config` (the blessed ingestion point) may
//!    read the environment.
//!
//! `#[cfg(test)]` regions and `tests/`/`benches/` trees are exempt —
//! test scaffolding may time itself without touching golden artifacts.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::Kind;
use crate::{SourceFile, Workspace};

/// Paths where hash-ordered collections are output-affecting.
const GOLDEN_SCOPES: [&str; 3] = [
    "crates/telem/src/",
    "crates/analysis/src/",
    "crates/core/src/driver.rs",
];

/// Modules blessed to read wall clocks.
const CLOCK_ALLOWED: [&str; 3] = [
    "crates/telem/src/span.rs",
    "crates/rt/src/bench.rs",
    "crates/bench/",
];

/// The one module blessed to read the process environment: all ambient
/// configuration funnels through the parsed config it produces.
const ENV_ALLOWED: [&str; 1] = ["crates/core/src/config.rs"];

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes
        .iter()
        .any(|s| rel == s.trim_end_matches('/') || rel.starts_with(s))
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        if in_scope(&f.rel, &GOLDEN_SCOPES) {
            hash_collections(f, &mut out);
            if !in_scope(&f.rel, &ENV_ALLOWED) {
                env_reads(f, &mut out);
            }
        }
        if !in_scope(&f.rel, &CLOCK_ALLOWED) && !is_test_path(&f.rel) {
            wall_clock(f, &mut out);
        }
    }
    out
}

fn hash_collections(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &f.toks {
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(Diagnostic { witness: Vec::new(),
                file: f.rel.clone(),
                line: t.line,
                rule: Rule::D1,
                message: format!(
                    "`{}` in a golden/reduction path: iteration order depends on \
                     hasher state; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            });
        }
    }
}

fn env_reads(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks: Vec<_> = f.toks.iter().filter(|t| t.kind != Kind::Comment).collect();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        let what = if t.text == "option_env"
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('!')
        {
            "option_env!"
        } else if t.text == "env"
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && matches!(toks[i + 3].text.as_str(), "var" | "var_os" | "vars")
        {
            "std::env::var"
        } else {
            continue;
        };
        out.push(Diagnostic { witness: Vec::new(),
            file: f.rel.clone(),
            line: t.line,
            rule: Rule::D1,
            message: format!(
                "`{what}` in a golden path: ambient environment must not steer \
                 deterministic output — plumb the knob through core::config instead"
            ),
        });
    }
}

fn wall_clock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks: Vec<_> = f
        .toks
        .iter()
        .filter(|t| t.kind != Kind::Comment)
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        if t.text == "SystemTime" {
            out.push(Diagnostic { witness: Vec::new(),
                file: f.rel.clone(),
                line: t.line,
                rule: Rule::D1,
                message: "`SystemTime` outside the blessed clock modules \
                          (telem::span, rt::bench, crates/bench): wall time must \
                          not reach deterministic state"
                    .into(),
            });
        }
        if t.text == "Instant"
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
        {
            out.push(Diagnostic { witness: Vec::new(),
                file: f.rel.clone(),
                line: t.line,
                rule: Rule::D1,
                message: "`Instant::now` outside the blessed clock modules \
                          (telem::span, rt::bench, crates/bench): route timing \
                          through the span tracer"
                    .into(),
            });
        }
    }
}
