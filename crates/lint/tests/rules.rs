//! Rule fixtures and the clean-workspace self-check.
//!
//! Every rule is demonstrated twice: a seeded fixture that MUST fire,
//! and a neighboring clean fixture that must NOT (the no-false-positive
//! half is what makes the gate adoptable). Fixture code lives inside
//! string literals, which the lexer treats as opaque — so nothing in
//! this file can trip the self-check that lints the repository itself.

use hacc_lint::{lint, rules, AllowList, Rule, Workspace};

fn findings(ws: &Workspace, rule: Rule) -> Vec<String> {
    rules::run_all(ws)
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.render())
        .collect()
}

// ---------------------------------------------------------------- D1 --

#[test]
fn d1_hash_collection_in_golden_path_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/telem/src/fixture.rs",
        r#"
            use std::collections::HashMap;
            pub fn report(m: &HashMap<u32, u64>) -> String {
                let mut out = String::new();
                for (k, v) in m.iter() {
                    out.push_str(&format!("{k}={v}\n"));
                }
                out
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::D1);
    assert!(!hits.is_empty(), "seeded HashMap iteration must fire");
    assert!(hits[0].contains("crates/telem/src/fixture.rs"));
}

#[test]
fn d1_btreemap_and_out_of_scope_hashmap_are_clean() {
    let ws = Workspace::from_sources(&[
        (
            "crates/telem/src/fixture.rs",
            r#"
                use std::collections::BTreeMap;
                pub fn report(m: &BTreeMap<u32, u64>) -> usize { m.len() }
                // A HashMap mentioned in a comment is not a finding.
                pub fn s() -> &'static str { "HashMap in a string is fine" }
            "#,
        ),
        (
            // mesh is not a golden-output path: scratch hash maps are fine.
            "crates/mesh/src/fixture.rs",
            "use std::collections::HashMap;\npub fn f() { let _m: HashMap<u8, u8> = HashMap::new(); }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

#[test]
fn d1_stray_wall_clock_in_telem_fires() {
    // The acceptance fixture: a stray Instant::now() in crates/telem.
    let ws = Workspace::from_sources(&[(
        "crates/telem/src/stray.rs",
        "pub fn t() -> f64 { let t0 = std::time::Instant::now(); t0.elapsed().as_secs_f64() }",
    )]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("Instant::now"));
}

#[test]
fn d1_wall_clock_is_allowed_in_blessed_modules_and_tests() {
    let ws = Workspace::from_sources(&[
        (
            "crates/telem/src/span.rs",
            "pub fn t() { let _ = std::time::Instant::now(); }",
        ),
        (
            "crates/rt/src/bench.rs",
            "pub fn t() { let _ = std::time::Instant::now(); }",
        ),
        (
            "crates/bench/benches/b.rs",
            "pub fn t() { let _ = std::time::SystemTime::now(); }",
        ),
        (
            "crates/iosim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}",
        ),
        (
            "tests/integration.rs",
            "fn t() { let _ = std::time::Instant::now(); }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

// ---------------------------------------------------------------- C1 --

#[test]
fn c1_collective_under_rank_guard_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn f(comm: &mut Comm, n: u64) {
                if comm.rank() == 0 {
                    let _total = comm.all_reduce_sum_u64(n);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("all_reduce_sum_u64"));
}

#[test]
fn c1_else_branch_and_match_arms_inherit_the_taint() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn f(comm: &mut Comm) {
                if comm.rank() == 0 {
                    log();
                } else {
                    comm.barrier();
                }
                match comm.rank() {
                    0 => comm.all_gather(1u8),
                    _ => Vec::new(),
                };
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn c1_rank_uniform_code_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn f(comm: &mut Comm, step: usize) {
                comm.barrier();
                let total = comm.all_reduce_sum_u64(1);
                // Rank-guarded non-collective work is fine.
                if comm.rank() == 0 {
                    println!("{total}");
                }
                // Rank-uniform guards around collectives are fine.
                if step > 0 {
                    comm.barrier();
                }
                // `per_rank` is not a rank identity (exact-ident match).
                if let Some(per_rank) = maybe(total) {
                    comm.broadcast(0, per_rank);
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_wrapper_collective_under_rank_guard_fires() {
    // The lexical rule's classic false negative: the collective hides
    // one call deep, in another file.
    let ws = Workspace::from_sources(&[
        (
            "crates/core/src/helpers.rs",
            r#"
                pub fn sync_all(comm: &mut Comm) {
                    comm.barrier();
                }
            "#,
        ),
        (
            "crates/core/src/fixture.rs",
            r#"
                pub fn f(comm: &mut Comm) {
                    if comm.rank() == 0 {
                        sync_all(comm);
                    }
                }
            "#,
        ),
    ]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("sync_all"), "{hits:?}");
    assert!(hits[0].contains("fixture.rs"), "{hits:?}");
}

#[test]
fn c1_taint_is_transitive_through_helper_chains() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            fn reduce_totals(comm: &mut Comm, n: u64) -> u64 {
                comm.all_reduce_sum_u64(n)
            }
            fn publish_stats(comm: &mut Comm) {
                let _ = reduce_totals(comm, 1);
            }
            pub fn f(comm: &mut Comm) {
                if comm.rank() == 0 {
                    publish_stats(comm);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("publish_stats"), "{hits:?}");
}

#[test]
fn c1_ambiguous_names_do_not_taint() {
    // Name-keyed matching taints only when EVERY definition of the name
    // reaches a collective; a second collective-free `merge` keeps the
    // guarded call quiet.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            impl Ledger {
                fn merge(&mut self, comm: &mut Comm) {
                    self.total = comm.all_reduce_sum_u64(self.total);
                }
            }
            impl Timers {
                fn merge(&mut self, other: &Timers) {
                    self.wall += other.wall;
                }
            }
            pub fn f(comm: &mut Comm, t: &mut Timers, o: &Timers) {
                if comm.rank() == 0 {
                    t.merge(o);
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_test_fixtures_are_exempt() {
    // Seeded-violation fixtures for the dynamic sanitizer deliberately
    // put collectives under rank guards; the runtime tier owns tests.
    let ws = Workspace::from_sources(&[(
        "crates/ranks/src/fixture.rs",
        r#"
            #[cfg(test)]
            mod tests {
                fn wrapped(comm: &mut Comm) { comm.barrier(); }
                #[test]
                fn skipped_barrier_fixture() {
                    World::run(2, |comm| {
                        if comm.rank() == 0 {
                            comm.barrier();
                            wrapped(comm);
                        }
                    });
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

// ---------------------------------------------------------------- H1 --

#[test]
fn h1_external_and_banned_dependencies_fire() {
    let ws = Workspace::from_sources(&[(
        "crates/x/Cargo.toml",
        "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nserde = { version = \"1\" }\n",
    )]);
    let hits = findings(&ws, Rule::H1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("banned crate `rand`")));
    assert!(hits.iter().any(|h| h.contains("`serde`")));
}

#[test]
fn h1_extern_crate_and_use_root_escapes_fire() {
    let ws = Workspace::from_sources(&[
        ("crates/x/Cargo.toml", "[package]\nname = \"hacc-x\"\n"),
        (
            "crates/x/src/lib.rs",
            "extern crate libc;\nuse ::left_pad::pad;\n",
        ),
    ]);
    let hits = findings(&ws, Rule::H1);
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn h1_path_workspace_and_builtin_roots_are_clean() {
    let ws = Workspace::from_sources(&[
        (
            "crates/x/Cargo.toml",
            "[package]\nname = \"hacc-x\"\n[dependencies]\nhacc-rt = { path = \"../rt\" }\nhacc-core.workspace = true\n",
        ),
        (
            "crates/x/src/lib.rs",
            "extern crate std;\nuse ::std::fmt;\nuse ::hacc_x::thing;\n",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::H1), Vec::<String>::new());
}

// ---------------------------------------------------------------- S1 --

#[test]
fn s1_undocumented_unsafe_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/x/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }",
    )]);
    let hits = findings(&ws, Rule::S1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("SAFETY"));
}

#[test]
fn s1_safety_comment_within_window_is_clean_beyond_it_fires() {
    let ws = Workspace::from_sources(&[
        (
            "crates/x/src/ok.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}",
        ),
        (
            "crates/x/src/far.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: too far away to count.\n    //\n    //\n    //\n    //\n    unsafe { *p }\n}",
        ),
    ]);
    let hits = findings(&ws, Rule::S1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("far.rs"));
}

// ---------------------------------------------------------------- F1 --

#[test]
fn f1_uninjectable_fault_site_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/fault/src/fixture.rs",
        r#"
            pub enum FaultKind { Alpha = 0, Beta = 1 }
            pub fn g(p: &Probe) {
                if p.fire(FaultKind::Alpha) { panic!("alpha"); }
            }
            #[cfg(test)]
            mod tests {
                // Test-only references do not count as injection coverage.
                fn t(p: &Probe) { p.fire(FaultKind::Beta); }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::F1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("FaultKind::Beta"));
}

#[test]
fn f1_fully_covered_enum_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/fault/src/fixture.rs",
        r#"
            pub enum FaultKind { Alpha = 0, Beta = 1 }
            pub fn g(p: &Probe) {
                p.fire(FaultKind::Alpha);
                p.fire(FaultKind::Beta);
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::F1), Vec::<String>::new());
}

// ---------------------------------------------- allowlist + exit codes --

#[test]
fn allowlist_requires_justification_and_suppresses_by_file_and_rule() {
    assert!(AllowList::parse("crates/x/src/lib.rs: S1:\n", "lint.allow").is_err());

    let ws = Workspace::from_sources(&[(
        "crates/x/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }",
    )]);
    let mut allow = AllowList::parse(
        "crates/x/src/lib.rs: S1: fixture — soundness reviewed in this test\n",
        "lint.allow",
    )
    .unwrap();
    let report = lint(&ws, &mut allow);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_allows.is_empty());
}

#[test]
fn cli_rejects_unknown_options_with_exit_2() {
    assert_eq!(hacc_lint::cli_main(&["--bogus".to_string()]), 2);
}

// ---------------------------------------------------------------- K1 --

#[test]
fn k1_undercounted_table_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub x: f64, pub y: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn state_words(&self) -> u64 { 2 }
                fn pair_flops(&self) -> PairFlops {
                    PairFlops { adds: 1, muls: 1, fmas: 0, trans: 0 }
                }
                fn interact(&self, si: &S, _p: &(), sj: &S, _q: &(), out: &mut f64) {
                    *out += si.x * sj.y;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::K1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("pair_flops` disagrees"), "{hits:?}");
    assert!(hits[0].contains("fmas"), "{hits:?}");
}

#[test]
fn k1_exact_table_and_tolerance_are_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub x: f64, pub y: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn state_words(&self) -> u64 { 2 }
                // The guard below costs one data-dependent mul per
                // side, carried by the tolerance annotation (pair path
                // = 2x interact) rather than the table.
                // k1: tolerance(muls = 2)
                fn pair_flops(&self) -> PairFlops {
                    PairFlops { adds: 0, muls: 0, fmas: 2, trans: 0 }
                }
                fn interact(&self, si: &S, _p: &(), sj: &S, _q: &(), out: &mut f64) {
                    if si.x * 2.0 > sj.y {
                        return;
                    }
                    *out += si.x * sj.y;
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::K1), Vec::<String>::new());
}

#[test]
fn k1_state_words_mismatch_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub pos: [f64; 3], pub m: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn state_words(&self) -> u64 { 3 }
                fn pair_flops(&self) -> PairFlops {
                    PairFlops { adds: 0, muls: 0, fmas: 2, trans: 0 }
                }
                fn interact(&self, si: &S, _p: &(), sj: &S, _q: &(), out: &mut f64) {
                    *out += si.m * sj.m;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::K1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("declares 3 but"), "{hits:?}");
    assert!(hits[0].contains("4 f64 words"), "{hits:?}");
}

#[test]
fn k1_symmetric_override_outside_bracket_fires() {
    // An interact_pair that costs MORE than two one-sided calls:
    // sharing the pair term may only save work.
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub x: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn state_words(&self) -> u64 { 1 }
                fn pair_flops(&self) -> PairFlops {
                    PairFlops { adds: 0, muls: 5, fmas: 0, trans: 0 }
                }
                fn interact(&self, si: &S, _p: &(), sj: &S, _q: &(), out: &mut f64) {
                    *out = si.x * sj.x;
                }
                fn interact_pair(&self, si: &S, _p: &(), sj: &S, _q: &(),
                                 oi: &mut f64, oj: &mut f64) {
                    *oi = si.x * sj.x * si.x * sj.x * si.x;
                    *oj = *oi;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::K1);
    assert!(
        hits.iter().any(|h| h.contains("outside the one-sided bracket")),
        "{hits:?}"
    );
}

// ---------------------------------------------------------------- P1 --

#[test]
fn p1_allocation_in_kernel_body_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub x: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn interact(&self, si: &S, _p: &(), _sj: &S, _q: &(), out: &mut f64) {
                    let mut tmp = Vec::new();
                    tmp.push(si.x);
                    *out += tmp[0];
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("per-pair kernel body"), "{hits:?}");
}

#[test]
fn p1_push_in_tile_driver_loop_fires_but_setup_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf_tiles(n: usize) -> Vec<f64> {
                let mut out = Vec::new(); // setup, outside the loop: fine
                for i in 0..n {
                    out.push(i as f64);
                }
                out
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains(".push(..)"), "{hits:?}");
    assert!(hits[0].contains("interaction-tile loop"), "{hits:?}");
}

#[test]
fn p1_marked_loop_fires_and_allow_suppresses() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn step(n: usize) {\n\
         // p1: hot-loop\n\
         for s in 0..n {\n\
             let a = format!(\"a{s}\");\n\
             // p1: allow: per-step label, one small allocation per step\n\
             let b = format!(\"b{s}\");\n\
             drop((a, b));\n\
         }\n\
         }\n",
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("format!"), "{hits:?}");
    assert!(hits[0].contains("marked loop"), "{hits:?}");
}

#[test]
fn p1_unmarked_loops_and_scratch_reuse_are_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn setup(n: usize) -> Vec<f64> {\n\
         let mut out = Vec::with_capacity(n);\n\
         for i in 0..n {\n\
             out.push(i as f64); // cold setup loop: not a hot context\n\
         }\n\
         out\n\
         }\n\
         pub fn hot(n: usize, scratch: &mut Vec<f64>) {\n\
         // p1: hot-loop\n\
         for i in 0..n {\n\
             scratch.clear();\n\
             scratch.extend((0..i).map(|j| j as f64));\n\
         }\n\
         }\n",
    )]);
    assert_eq!(findings(&ws, Rule::P1), Vec::<String>::new());
}

// ---------------------------------------------------------------- L1 --

#[test]
fn l1_ab_ba_lock_pair_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/rt/src/fixture.rs",
        r#"
            use std::sync::Mutex;
            pub struct Pair { a: Mutex<u64>, b: Mutex<u64> }
            impl Pair {
                pub fn ab(&self) -> u64 {
                    let ga = self.a.lock().unwrap();
                    let gb = self.b.lock().unwrap();
                    *ga + *gb
                }
                pub fn ba(&self) -> u64 {
                    let gb = self.b.lock().unwrap();
                    let ga = self.a.lock().unwrap();
                    *ga + *gb
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::L1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("lock-order cycle"), "{hits:?}");
    assert!(hits[0].contains("Pair.a") && hits[0].contains("Pair.b"), "{hits:?}");
}

#[test]
fn l1_reacquire_while_held_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/rt/src/fixture.rs",
        r#"
            use std::sync::Mutex;
            pub struct Cell { v: Mutex<u64> }
            impl Cell {
                pub fn double_lock(&self) -> u64 {
                    let g1 = self.v.lock().unwrap();
                    let g2 = self.v.lock().unwrap();
                    *g1 + *g2
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::L1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("re-acquired while already held"), "{hits:?}");
}

#[test]
fn l1_wrapper_guard_carries_key_through_caller() {
    // The rt::channel / rt::sched shape: a poison-recovery wrapper
    // returns the guard; callers holding it must still order correctly.
    let ws = Workspace::from_sources(&[(
        "crates/rt/src/fixture.rs",
        r#"
            use std::sync::{Mutex, MutexGuard};
            pub struct W { m: Mutex<u64>, n: Mutex<u64> }
            impl W {
                fn lock_m(&self) -> MutexGuard<'_, u64> {
                    self.m.lock().unwrap()
                }
                pub fn forward(&self) -> u64 {
                    let g = self.lock_m();
                    let h = self.n.lock().unwrap();
                    *g + *h
                }
                pub fn backward(&self) -> u64 {
                    let h = self.n.lock().unwrap();
                    let g = self.lock_m();
                    *g + *h
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::L1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("W.m") && hits[0].contains("W.n"), "{hits:?}");
}

#[test]
fn l1_drop_before_reacquire_is_clean() {
    // Same locks, but the first guard is dropped (or scope-ended)
    // before the second acquisition — the rt::channel discipline.
    let ws = Workspace::from_sources(&[(
        "crates/rt/src/fixture.rs",
        r#"
            use std::sync::Mutex;
            pub struct Pair { a: Mutex<u64>, b: Mutex<u64> }
            impl Pair {
                pub fn ab(&self) -> u64 {
                    let x = {
                        let ga = self.a.lock().unwrap();
                        *ga
                    };
                    let gb = self.b.lock().unwrap();
                    x + *gb
                }
                pub fn ba(&self) -> u64 {
                    let gb = self.b.lock().unwrap();
                    let y = *gb;
                    drop(gb);
                    let ga = self.a.lock().unwrap();
                    y + *ga
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::L1), Vec::<String>::new());
}

// --------------------------------------------------------- D1 (env) --

#[test]
fn d1_env_read_in_golden_path_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/analysis/src/fixture.rs",
        r#"
            pub fn bins() -> usize {
                match std::env::var("HACC_BINS") {
                    Ok(v) => v.parse().unwrap_or(64),
                    Err(_) => 64,
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("std::env::var"), "{hits:?}");
    assert!(hits[0].contains("core::config"), "{hits:?}");
}

#[test]
fn d1_env_read_in_config_and_non_golden_paths_is_clean() {
    let ws = Workspace::from_sources(&[
        (
            // The blessed ingestion point.
            "crates/core/src/config.rs",
            "pub fn knob() -> Option<String> { std::env::var(\"HACC_KNOB\").ok() }",
        ),
        (
            // rt is not a golden-output path.
            "crates/rt/src/fixture.rs",
            "pub fn lanes() -> Option<String> { std::env::var(\"HACC_LANES\").ok() }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

// ---------------------------------------------------------------- E1 --

#[test]
fn e1_unwrap_reachable_from_marked_root_fires_with_witness() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(v: &[f64]) -> f64 { helper(v) }
            fn helper(v: &[f64]) -> f64 { deep(v) }
            fn deep(v: &[f64]) -> f64 { *v.first().unwrap() }
        "#,
    )]);
    let hits = findings(&ws, Rule::E1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("2 call hops"), "{}", hits[0]);
    assert!(hits[0].contains("supervised root `step_loop`"), "{}", hits[0]);
    assert!(hits[0].contains("panics via `.unwrap()`"), "{}", hits[0]);
}

#[test]
fn e1_panic_macro_in_the_root_itself_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(n: usize) {
                if n == 0 {
                    panic!("empty tile");
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::E1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`panic!`"), "{}", hits[0]);
}

#[test]
fn e1_allow_comment_with_reason_suppresses() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(v: &[f64]) -> f64 {
                // e1: allow: fixture-justified invariant
                *v.first().unwrap()
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

#[test]
fn e1_fault_guarded_panic_is_a_registered_site() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(k: FaultProbe) {
                if k.fire(FaultKind::GpuLaunch) {
                    panic!("injected fault");
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

#[test]
fn e1_panics_outside_the_reachable_set_are_quiet() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(x: u64) -> u64 { x + 1 }
            pub fn orphan() { panic!("never called from the step loop"); }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

// ---------------------------------------------------------------- V1 --

#[test]
fn v1_early_return_in_kernel_body_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r == 0.0 {
                        return;
                    }
                    out[0] -= r;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`return`"), "{}", hits[0]);
    assert!(hits[0].contains("per-pair kernel body `interact`"), "{}", hits[0]);
}

#[test]
fn v1_masked_lane_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r != 0.0 {
                        out[0] -= r;
                    }
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_unguarded_index_in_lane_loop_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf(xs: &[f64], idx: &[usize], out: &mut [f64]) {
                for k in 0..idx.len() {
                    let j = idx[k];
                    out[j] += xs[j];
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("no \n    dominating slice-length guard")
        || hits[0].contains("dominating slice-length guard"), "{}", hits[0]);
}

#[test]
fn v1_dominating_length_guard_discharges_the_index() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf(xs: &[f64], idx: &[usize], out: &mut [f64]) {
                assert!(out.len() >= xs.len());
                for k in 0..idx.len() {
                    let j = idx[k];
                    out[j] += xs[j];
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_opaque_call_in_kernel_body_fires_with_witness() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub fn heavy(x: f64) -> f64 {
                let mut s = 0.0;
                for _i in 0..10 {
                    s = s + x;
                }
                s
            }
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    out[0] -= heavy(r);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("neither"), "{}", hits[0]);
    assert!(hits[0].contains("defined without `#[inline]`"), "{}", hits[0]);
}

#[test]
fn v1_inline_and_leaf_trivial_callees_are_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            #[inline]
            pub fn fast(x: f64) -> f64 { x * 2.0 }
            pub fn tiny(x: f64) -> f64 { x + 1.0 }
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    out[0] -= fast(r) + tiny(r);
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_float_local_accumulation_fires_but_int_counters_are_exempt() {
    let fire = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    let mut acc = 0.0;
                    acc += r;
                    out[0] -= acc;
                }
            }
        "#,
    )]);
    let hits = findings(&fire, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("order-dependent accumulation"), "{}", hits[0]);

    let quiet = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    let mut evals: u64 = 0;
                    evals += 1;
                    out[0] -= r;
                }
            }
        "#,
    )]);
    assert_eq!(findings(&quiet, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_allow_comment_suppresses_the_exit() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r == 0.0 {
                        // v1: allow: measured — the branch predictor wins here
                        return;
                    }
                    out[0] -= r;
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

// ---------------------------------------------------------------- C2 --

#[test]
fn c2_rank_guarded_collective_diverges() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn exchange(comm: &mut Comm) {
                if comm.rank() == 0 {
                    comm.barrier();
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C2);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("rank-dependent"), "{}", hits[0]);
    assert!(hits[0].contains("[barrier]"), "{}", hits[0]);
    assert!(hits[0].contains("path A"), "witness paths missing: {}", hits[0]);
}

#[test]
fn c2_rank_uniform_collective_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn exchange(comm: &mut Comm, n: usize) {
                let mut local = n;
                if comm.rank() == 0 {
                    local += 1;
                }
                comm.barrier();
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C2), Vec::<String>::new());
}

#[test]
fn c2_data_branch_divergence_is_not_compared() {
    // Both paths differ on a *data* decision, so they land in different
    // groups: skipping a collective behind `n > 0` is the caller's
    // contract, not rank divergence.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn maybe(comm: &mut Comm, n: usize) {
                if n > 0 {
                    comm.barrier();
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C2), Vec::<String>::new());
}

#[test]
fn c2_divergence_through_a_callee_is_spliced_into_the_trace() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn sync_all(comm: &mut Comm) {
                comm.barrier();
            }
            pub fn step(comm: &mut Comm) {
                let me = comm.rank();
                if me == 0 {
                    sync_all(comm);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C2);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("via `sync_all`"), "{}", hits[0]);
}

#[test]
fn c2_error_propagation_exit_is_not_divergence() {
    // The `?` exit skips the barrier, but an Err is per-rank data the
    // supervisor handles — grouped away, not compared.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn guarded(comm: &mut Comm) -> Result<(), String> {
                let v = probe()?;
                comm.barrier();
                Ok(v)
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C2), Vec::<String>::new());
}

#[test]
fn c2_allow_comment_on_the_fn_suppresses() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // c2: allow: rank 0 coordinates the tiered flush intentionally
            pub fn exchange(comm: &mut Comm) {
                if comm.rank() == 0 {
                    comm.barrier();
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C2), Vec::<String>::new());
}

// ------------------------------------------------------- self-check --

/// The acceptance bar: `frontier-sim lint` reports zero unsuppressed
/// findings on HEAD, with every suppression in `lint.allow` justified
/// and live. Linting the real repository also exercises the lexer on
/// ~130 real files every `cargo test`.
#[test]
fn clean_workspace_self_check() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::load(&root).expect("load workspace");
    assert!(
        ws.files.len() > 100,
        "expected the full workspace, got {} files",
        ws.files.len()
    );
    let allow_text =
        std::fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let mut allow = AllowList::parse(&allow_text, "lint.allow").expect("lint.allow parses");
    let report = lint(&ws, &mut allow);
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings on HEAD:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale lint.allow entries: {:?}",
        report.unused_allows
    );
}
