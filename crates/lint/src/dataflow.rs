//! Generic fixpoint dataflow framework.
//!
//! Two solvers live here:
//!
//! * [`solve`] — an intraprocedural worklist solver over a [`FnCfg`],
//!   parameterized by a [`Lattice`], a [`Direction`], and a per-block
//!   transfer function. May vs Must analyses differ only in the
//!   lattice's `join` (union vs intersection); the solver itself is
//!   agnostic. Termination: every `join` either leaves the element
//!   unchanged or strictly grows it, block states are only ever joined
//!   (monotone), and a hard iteration cap (`32 * blocks + 64` sweeps)
//!   backstops lattices of unbounded height — the solution then
//!   reports `converged: false` instead of spinning.
//!
//! * [`solve_summaries`] — an interprocedural bottom-up summary solver
//!   over a [`CallGraph`]. SCCs are processed callees-first; inside an
//!   SCC (mutual recursion) the members are re-evaluated until their
//!   summaries stop changing or a round cap trips. Summaries are
//!   context-insensitive; context sensitivity is layered on by the
//!   rules where it pays (witness materialization, C2's trace
//!   splicing) via bounded call strings — see [`CallStrings`].

use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{BlockId, FnCfg};

/// A join-semilattice element. `bottom` is the neutral start state;
/// `join` folds another element in and reports whether `self` changed
/// (the solver's convergence signal).
pub trait Lattice: Clone {
    fn bottom() -> Self;
    fn join(&mut self, other: &Self) -> bool;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// Result of an intraprocedural solve: per-block input and output
/// states (in CFG block order), plus convergence telemetry.
pub struct Solution<L> {
    pub inb: Vec<L>,
    pub outb: Vec<L>,
    /// Full sweeps over the block list before stabilizing.
    pub sweeps: u32,
    pub converged: bool,
}

/// Round-robin worklist solver. `transfer(block, input) -> output`.
/// The boundary state seeds ENTRY (forward) or EXIT (backward).
pub fn solve<L: Lattice>(
    cfg: &FnCfg<'_>,
    dir: Direction,
    boundary: L,
    transfer: &mut dyn FnMut(BlockId, &L) -> L,
) -> Solution<L> {
    let n = cfg.blocks.len();
    let mut inb = vec![L::bottom(); n];
    let mut outb = vec![L::bottom(); n];
    let preds = cfg.preds();
    let rpo = cfg.rpo();
    // Visit order that respects the flow direction: RPO forward,
    // reverse-RPO backward. Blocks unreachable in RPO (possible with
    // dead code after `return`) are appended so they still get a state.
    let mut order: Vec<BlockId> = rpo.clone();
    let mut seen = vec![false; n];
    for &b in &rpo {
        seen[b] = true;
    }
    for b in 0..n {
        if !seen[b] {
            order.push(b);
        }
    }
    if dir == Direction::Backward {
        order.reverse();
    }

    let cap = 32 * (n as u32) + 64;
    let mut sweeps = 0u32;
    let mut changed = true;
    while changed && sweeps < cap {
        changed = false;
        sweeps += 1;
        for &b in &order {
            // Gather the meet-over-edges input.
            let mut input = L::bottom();
            match dir {
                Direction::Forward => {
                    if b == FnCfg::ENTRY {
                        input.join(&boundary);
                    }
                    for &p in &preds[b] {
                        input.join(&outb[p]);
                    }
                }
                Direction::Backward => {
                    if b == FnCfg::EXIT {
                        input.join(&boundary);
                    }
                    for (s, _) in &cfg.blocks[b].succs {
                        input.join(&outb[*s]);
                    }
                }
            }
            let out = transfer(b, &input);
            inb[b] = input;
            if outb[b].join(&out) {
                changed = true;
            }
        }
    }
    Solution { inb, outb, sweeps, converged: !changed }
}

/// Bottom-up interprocedural summary fixpoint. `compute(fid, get)`
/// produces `fid`'s summary, reading callee summaries through `get`
/// (which returns the current approximation — `bottom` on first
/// touch). SCCs run callees-first; members of a cyclic SCC iterate to
/// a local fixpoint (equality via `eq`) with a round cap.
pub fn solve_summaries<S: Clone + PartialEq>(
    cg: &CallGraph<'_>,
    initial: S,
    compute: &mut dyn FnMut(FnId, &dyn Fn(FnId) -> S) -> S,
) -> Vec<S> {
    let mut summaries = vec![initial; cg.nodes.len()];
    for comp in cg.sccs() {
        let cap = 8 * comp.len() as u32 + 8;
        let mut rounds = 0u32;
        loop {
            let mut changed = false;
            for &fid in &comp {
                let s = compute(fid, &|id: FnId| summaries[id].clone());
                if s != summaries[fid] {
                    summaries[fid] = s;
                    changed = true;
                }
            }
            rounds += 1;
            if !changed || rounds >= cap {
                break;
            }
        }
    }
    summaries
}

/// k-bounded call strings: the context policy for the layers that are
/// context-sensitive. A context is the suffix of the call stack,
/// truncated to the `k` most recent frames; `extend` pushes a callee
/// and re-truncates. With finitely many functions there are at most
/// `|F|^k` contexts, so any per-context fixpoint stays finite.
#[derive(Debug, Clone, Copy)]
pub struct CallStrings {
    pub k: usize,
}

impl CallStrings {
    pub fn extend(&self, ctx: &[FnId], callee: FnId) -> Vec<FnId> {
        let mut next: Vec<FnId> = ctx.to_vec();
        next.push(callee);
        if next.len() > self.k {
            let drop = next.len() - self.k;
            next.drain(..drop);
        }
        next
    }

    /// True when pushing `callee` would revisit a frame already in the
    /// bounded context — the recursion guard used when splicing callee
    /// summaries inline (C2).
    pub fn would_cycle(&self, ctx: &[FnId], callee: FnId) -> bool {
        ctx.contains(&callee)
    }
}

/// Set-of-strings May lattice (union join) — the workhorse for E1's
/// panic-surface bits and the framework tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetLattice(pub std::collections::BTreeSet<String>);

impl Lattice for SetLattice {
    fn bottom() -> Self {
        SetLattice(std::collections::BTreeSet::new())
    }
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        for s in &other.0 {
            if !self.0.contains(s) {
                self.0.insert(s.clone());
            }
        }
        self.0.len() != before
    }
}

/// Must lattice over string sets: `Top` (everything, the bottom of
/// the *information* order) intersects away. Used for
/// dominating-guard style facts where a property must hold on every
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MustSet {
    /// No path reached yet — intersection identity.
    Top,
    Known(std::collections::BTreeSet<String>),
}

impl Lattice for MustSet {
    fn bottom() -> Self {
        MustSet::Top
    }
    fn join(&mut self, other: &Self) -> bool {
        match (&mut *self, other) {
            (_, MustSet::Top) => false,
            (MustSet::Top, MustSet::Known(k)) => {
                *self = MustSet::Known(k.clone());
                true
            }
            (MustSet::Known(a), MustSet::Known(b)) => {
                let before = a.len();
                a.retain(|s| b.contains(s));
                a.len() != before
            }
        }
    }
}
