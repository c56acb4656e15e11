#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build and test fully
# offline, with no dependency outside the repository. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

canary=crates/telem/src/__lint_canary.rs
k1_canary=crates/gpusim/src/__k1_canary.rs
p1_canary=crates/gpusim/src/__p1_canary.rs
l1_canary=crates/rt/src/__l1_canary.rs
e1_canary=crates/core/src/__e1_canary.rs
v1_canary=crates/gpusim/src/__v1_canary.rs
c2_canary=crates/ranks/src/__c2_canary.rs
trap 'rm -f "$canary" "$k1_canary" "$p1_canary" "$l1_canary" "$e1_canary" "$v1_canary" "$c2_canary"' EXIT

echo "== tier 0: hacc-lint static analysis =="
# The lint gate runs before the workspace build: hacc-lint is std-only,
# so this compiles in seconds and fails fast on determinism (D1),
# collective-safety (C1), hermeticity (H1), unsafe-audit (S1),
# fault-coverage (F1), cost-model (K1), hot-loop allocation (P1),
# lock-order (L1), panic-surface (E1), vectorization-blocker (V1),
# and path-divergent-collective (C2) findings. --strict additionally fails on stale
# lint.allow entries, so the suppression file can only shrink.
cargo build -q --release --offline -p hacc-lint
tier0_start=$SECONDS
./target/release/hacc-lint --root . --strict
# Gate self-tests: each seeded violation must fail the lint. The canary
# files sit outside the module tree (cargo never compiles them), but
# the lint walks the filesystem and must flag every one.
#
# D1: a stray wall-clock read in a telemetry source.
echo 'pub fn leak() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }' \
    > "$canary"
if ./target/release/hacc-lint --root . > /dev/null 2>&1; then
    echo "error: lint gate missed a seeded Instant::now() in crates/telem" >&2
    exit 1
fi
rm -f "$canary"
# K1: a kernel whose declared pair_flops table undercounts its body.
cat > "$k1_canary" <<'EOF'
pub struct CanaryState { pub x: f64 }
pub struct CanaryKernel;
impl SplitKernel for CanaryKernel {
    type State = CanaryState;
    type Partial = ();
    type Accum = f64;
    fn state_words(&self) -> u64 { 1 }
    fn pair_flops(&self) -> PairFlops {
        PairFlops { adds: 0, muls: 0, fmas: 0, trans: 0 }
    }
    fn interact(&self, si: &CanaryState, _p: &(), sj: &CanaryState, _q: &(), out: &mut f64) {
        *out += si.x * sj.x;
    }
}
EOF
if ./target/release/hacc-lint --root . > /dev/null 2>&1; then
    echo "error: lint gate missed a seeded undercounted pair_flops table (K1)" >&2
    exit 1
fi
rm -f "$k1_canary"
# P1: a heap allocation inside an interaction-tile loop.
cat > "$p1_canary" <<'EOF'
pub fn execute_leaf_canary(n: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(i as f64);
    }
    out
}
EOF
if ./target/release/hacc-lint --root . > /dev/null 2>&1; then
    echo "error: lint gate missed a seeded tile-loop allocation (P1)" >&2
    exit 1
fi
rm -f "$p1_canary"
# L1: an AB/BA lock-order cycle.
cat > "$l1_canary" <<'EOF'
use std::sync::Mutex;
pub struct CanaryLocks { a: Mutex<u64>, b: Mutex<u64> }
impl CanaryLocks {
    pub fn ab(&self) -> u64 {
        let g = self.a.lock().unwrap();
        let h = self.b.lock().unwrap();
        *g + *h
    }
    pub fn ba(&self) -> u64 {
        let h = self.b.lock().unwrap();
        let g = self.a.lock().unwrap();
        *g + *h
    }
}
EOF
if ./target/release/hacc-lint --root . > /dev/null 2>&1; then
    echo "error: lint gate missed a seeded AB/BA lock pair (L1)" >&2
    exit 1
fi
rm -f "$l1_canary"
# E1: an unwrap reachable from a marked supervised root. The grep pins
# the finding to the interprocedural rule (the call is one hop deep),
# not just any nonzero exit.
cat > "$e1_canary" <<'EOF'
// e1: root
pub fn canary_step_loop(v: &[f64]) -> f64 {
    canary_helper(v)
}
fn canary_helper(v: &[f64]) -> f64 {
    *v.first().unwrap()
}
EOF
if ! { ./target/release/hacc-lint --root . 2> /dev/null || true; } | grep -q '\[E1\]'; then
    echo "error: lint gate missed a seeded supervised-loop unwrap (E1)" >&2
    exit 1
fi
rm -f "$e1_canary"
# V1: a data-dependent early exit inside a tile lane loop.
cat > "$v1_canary" <<'EOF'
pub fn execute_leaf_canary2(xs: &[f64], out: &mut [f64; 4]) {
    for i in 0..xs.len() {
        if xs[i] < 0.0 {
            break;
        }
        out[0] += xs[i];
    }
}
EOF
if ! { ./target/release/hacc-lint --root . 2> /dev/null || true; } | grep -q '\[V1\]'; then
    echo "error: lint gate missed a seeded lane-loop early exit (V1)" >&2
    exit 1
fi
rm -f "$v1_canary"
# C2: rank-dependent branching that reorders the collective sequence.
cat > "$c2_canary" <<'EOF'
pub fn canary_exchange(comm: &mut Comm) {
    if comm.rank() == 0 {
        comm.barrier();
        comm.all_reduce_f64(1.0);
    } else {
        comm.all_reduce_f64(1.0);
        comm.barrier();
    }
}
EOF
if ! { ./target/release/hacc-lint --root . 2> /dev/null || true; } | grep -q '\[C2\]'; then
    echo "error: lint gate missed seeded path-divergent collectives (C2)" >&2
    exit 1
fi
rm -f "$c2_canary"
# The lint tier must stay cheap enough to run on every commit: the
# clean pass plus all seven canary passes share a 5 s budget (compile
# time excluded — that is cargo's cache, not the analyzer).
tier0_elapsed=$(( SECONDS - tier0_start ))
if [ "$tier0_elapsed" -ge 5 ]; then
    echo "error: lint tier took ${tier0_elapsed}s, budget is <5s" >&2
    exit 1
fi
echo "ok: zero unsuppressed findings; all seeded violations caught (${tier0_elapsed}s)"

echo "== build (offline) =="
cargo build --release --offline

echo "== test (offline) =="
# --workspace: the crates' own unit and integration tests (hacc-core,
# hacc-telem, hacc-lint's clean-workspace self-check, ...) run too, not
# just the root package's.
cargo test -q --offline --workspace

echo "== tier 2: warnings-as-errors build =="
# Benches and examples are built too, so they cannot rot unnoticed.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets

echo "== tier 2: release test suite =="
cargo test --release -q --offline

echo "== tier 2: telemetry golden-section determinism =="
# Two identical runs must produce byte-identical Chrome traces and
# byte-identical golden regions of the text report; wall-clock content
# is confined to the non-golden appendix.
tdir=$(mktemp -d)
trap 'rm -rf "$tdir"; rm -f "$canary" "$k1_canary" "$p1_canary" "$l1_canary" "$e1_canary" "$v1_canary" "$c2_canary"' EXIT
for run in a b; do
    ./target/release/frontier-sim run \
        --np 8 --ranks 2 --steps 2 --physics gravity --seed 4242 \
        --out "$tdir/io-$run" --telemetry "$tdir/telem-$run" \
        > "$tdir/stdout-$run.log"
done
cmp "$tdir/telem-a/trace.json" "$tdir/telem-b/trace.json" || {
    echo "error: chrome traces differ between identical runs" >&2
    exit 1
}
golden() {
    sed -n '/# === GOLDEN BEGIN ===/,/# === GOLDEN END ===/p' "$1"
}
golden "$tdir/telem-a/report.txt" > "$tdir/golden-a.txt"
golden "$tdir/telem-b/report.txt" > "$tdir/golden-b.txt"
[ -s "$tdir/golden-a.txt" ] || {
    echo "error: report.txt has no golden region" >&2
    exit 1
}
cmp "$tdir/golden-a.txt" "$tdir/golden-b.txt" || {
    echo "error: golden report regions differ between identical runs" >&2
    exit 1
}
# (The grep-based wall-clock-leak lint that lived here moved into
# hacc-lint rule D1, which polices the *sources* of wall time instead
# of its artifacts; the byte-diff above still catches any leak that
# makes two identical runs differ.)
echo "ok: telemetry golden sections are byte-identical"

echo "== tier 3: chaos gate — supervised recovery is bitwise-exact =="
# For each rank count, run an uninterrupted reference, then the same
# seed under several fault plans. Every recovered run must report the
# reference's exact final state hash, and chaos telemetry itself must
# be deterministic (same seed + same spec -> same golden region).
chaos_specs=(
    "panic@2:1,ckpt-crc@1:0"
    "panic@1:0,ckpt-torn@0:1"
    "comm-delay@1:0,comm-dup@1:1,comm-trunc@2:0,nvme-err@1:0,gpu-launch@2:1"
)
for ranks in 1 2; do
    ref_dir="$tdir/chaos-ref-r$ranks"
    ./target/release/frontier-sim run \
        --np 8 --ranks "$ranks" --steps 3 --physics gravity --seed 4242 \
        --out "$ref_dir" > "$ref_dir.log"
    ref_hash=$(grep -o 'state hash: [0-9a-f]*' "$ref_dir.log")
    [ -n "$ref_hash" ] || {
        echo "error: reference run printed no state hash" >&2
        exit 1
    }
    for i in "${!chaos_specs[@]}"; do
        spec="${chaos_specs[$i]}"
        # Rank-count-specific specs: clamp rank indices for --ranks 1.
        [ "$ranks" -eq 1 ] && spec="${spec//:1/:0}"
        run_dir="$tdir/chaos-r$ranks-$i"
        ./target/release/frontier-sim run \
            --np 8 --ranks "$ranks" --steps 3 --physics gravity --seed 4242 \
            --out "$run_dir" --chaos "$spec" \
            > "$run_dir.log" 2> /dev/null
        hash=$(grep -o 'state hash: [0-9a-f]*' "$run_dir.log")
        if [ "$hash" != "$ref_hash" ]; then
            echo "error: chaos spec '$spec' on $ranks rank(s) diverged:" >&2
            echo "  reference: $ref_hash" >&2
            echo "  recovered: ${hash:-<missing>}" >&2
            exit 1
        fi
    done
done
# Chaos golden determinism: two identical faulted runs, identical goldens.
for run in a b; do
    ./target/release/frontier-sim run \
        --np 8 --ranks 2 --steps 3 --physics gravity --seed 4242 \
        --out "$tdir/chaos-det-$run" --telemetry "$tdir/chaos-telem-$run" \
        --chaos "panic@2:1,ckpt-crc@1:0" \
        > /dev/null 2>&1
done
golden "$tdir/chaos-telem-a/report.txt" > "$tdir/chaos-golden-a.txt"
golden "$tdir/chaos-telem-b/report.txt" > "$tdir/chaos-golden-b.txt"
grep -q '\[faults rank' "$tdir/chaos-golden-a.txt" || {
    echo "error: chaos golden region carries no fault ledger" >&2
    exit 1
}
cmp "$tdir/chaos-golden-a.txt" "$tdir/chaos-golden-b.txt" || {
    echo "error: chaos telemetry goldens differ between identical runs" >&2
    exit 1
}
echo "ok: all fault plans recovered to the reference state hash"

echo "== tier 4: hacc-san dynamic sanitizer gate =="
# The whole release suite again with the sanitizer armed on every
# World::run (HACC_SAN=1): happens-before race detection, MUST-style
# collective matching, and wait-graph deadlock detection, all live.
# Justified suppressions come from the checked-in san.allow.
HACC_SAN=1 HACC_SAN_ALLOW="$PWD/san.allow" cargo test --release -q --offline
# Gate self-test: the armed gate must FAIL on the seeded canary race
# (an `#[ignore]`d fixture only this gate runs). If it passes, the
# sanitizer has silently lost its teeth.
if HACC_SAN=1 cargo test --release -q --offline --test sanitizer \
    canary_seeded_race_must_fail -- --ignored > /dev/null 2>&1; then
    echo "error: sanitizer gate missed the seeded canary race" >&2
    exit 1
fi
# Clean sanitized CLI runs at every test-tier rank count; the sanitizer
# report must be finding-free and byte-identical run to run.
for ranks in 1 2 4 8; do
    for run in a b; do
        ./target/release/frontier-sim run \
            --np 8 --ranks "$ranks" --steps 2 --physics gravity --seed 4242 \
            --sanitize --telemetry "$tdir/san-r$ranks-$run" \
            > /dev/null
    done
    grep -q '^findings            : 0$' "$tdir/san-r$ranks-a/sanitizer.txt" || {
        echo "error: sanitized $ranks-rank run is not clean:" >&2
        cat "$tdir/san-r$ranks-a/sanitizer.txt" >&2
        exit 1
    }
    cmp "$tdir/san-r$ranks-a/sanitizer.txt" "$tdir/san-r$ranks-b/sanitizer.txt" || {
        echo "error: sanitizer reports differ between identical $ranks-rank runs" >&2
        exit 1
    }
done
echo "ok: armed suite clean, canary caught, 1/2/4/8-rank reports byte-stable"

echo "== tier 5: perf ratchet — short-range symmetric kernels =="
# The tiled symmetric executors must hold their blessed throughput: any
# higher-is-better metric (*_per_s, *_speedup) in BENCH_kernels.json that
# regresses more than 15% fails the gate with a delta table, and the
# kernels_micro run additionally asserts the headline crk_force symmetric
# speedup stays >= 2x. Re-bless deliberate performance changes with
# scripts/bench_update.sh. HACC_RT_BENCH_FAST only shortens the
# criterion-style groups; the ratcheted symmetric group always measures
# at its full fixed budget.
HACC_RT_BENCH_FAST=1 \
HACC_BENCH_BASELINE="$PWD/BENCH_kernels.json" \
HACC_BENCH_JSON="$tdir/bench_fresh.json" \
    cargo bench -q --offline -p hacc-bench --bench kernels_micro \
    > "$tdir/ratchet-micro.log" 2>&1 || {
    echo "error: kernels_micro perf ratchet failed:" >&2
    tail -n 25 "$tdir/ratchet-micro.log" >&2
    exit 1
}
grep -E "short_range_symmetric|ratchet" "$tdir/ratchet-micro.log" | sed 's/^/  /'
HACC_BENCH_BASELINE="$PWD/BENCH_kernels.json" \
HACC_BENCH_JSON="$tdir/bench_fresh.json" \
    cargo bench -q --offline -p hacc-bench --bench headline_hydro_vs_gravity \
    > "$tdir/ratchet-headline.log" 2>&1 || {
    echo "error: headline perf ratchet failed:" >&2
    tail -n 25 "$tdir/ratchet-headline.log" >&2
    exit 1
}
grep -E "^metric" "$tdir/ratchet-headline.log" | sed 's/^/  /'
echo "ok: perf ratchet green against BENCH_kernels.json"

echo "== tier 6: cooperative-scheduler scaling gate =="
# The multiplexing contract at full scale: world sizes that oversubscribe
# the host by orders of magnitude must stay exact, sanitized, and
# byte-stable. All runs use the default cooperative backend.
#
# (a) 1024-rank sanitized smoke, twice: finding-free and byte-identical.
for run in a b; do
    ./target/release/frontier-sim ranks \
        --ranks 1024 --rounds 1 --seed 4242 --sanitize \
        > "$tdir/ranks-1024-$run.txt"
done
grep -q '^findings            : 0$' "$tdir/ranks-1024-a.txt" || {
    echo "error: sanitized 1024-rank world is not clean:" >&2
    cat "$tdir/ranks-1024-a.txt" >&2
    exit 1
}
cmp "$tdir/ranks-1024-a.txt" "$tdir/ranks-1024-b.txt" || {
    echo "error: 1024-rank sanitized output differs between identical runs" >&2
    exit 1
}
# (b) 4096-rank smoke: every collective kind completes on this host.
./target/release/frontier-sim ranks --ranks 4096 --rounds 1 --seed 4242 \
    > "$tdir/ranks-4096.txt"
grep -q '^digest' "$tdir/ranks-4096.txt" || {
    echo "error: 4096-rank smoke printed no digest" >&2
    exit 1
}
# (c) Gate self-test: a wait cycle buried in a 256-rank multiplexed
# world must FAIL (diagnosed deadlock), never hang the gate.
if timeout 120 cargo test --release -q --offline --test sanitizer \
    canary_multiplexed_deadlock_must_fail -- --ignored > /dev/null 2>&1; then
    echo "error: multiplexed deadlock canary passed — detection lost its teeth" >&2
    exit 1
fi
# (d) The release-tier scaling tests: 4096-rank collectives, driver
# decomposition invariance across 64 ranks (48 of them zero-plane FFT
# ranks), 256-rank chaos recovery, and 1024-rank bitwise agreement
# between the cooperative and thread backends.
cargo test --release -q --offline --test rank_scaling -- --ignored
cargo test --release -q --offline -p hacc-ranks --test collective_properties \
    -- --ignored
echo "ok: 1024-rank sanitized world byte-stable, 4096-rank world exact"

echo "verify.sh: all checks passed"
