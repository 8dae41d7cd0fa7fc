//! The saturation engine: closure of a partial order under
//! reads-from-maximality and lock-mutual-exclusion rules.
//!
//! Given a trace, a reads-from map, and a partial-order index, the
//! engine repeatedly infers *necessary* orderings (§1.1: "the process
//! of inferring such orderings is known as saturation, and is used
//! widely in dynamic analyses"):
//!
//! * **Reads-from maximality** — if read `r` observes write `w`, every
//!   conflicting write `w'` must be ordered either before `w` or after
//!   `r`; when the current order places `w'` before `r`, the edge
//!   `w' → w` becomes mandatory, and when it places `w` before `w'`,
//!   the edge `r → w'` becomes mandatory.
//! * **Lock mutual exclusion** — two critical sections on the same
//!   lock cannot overlap: once one acquire is ordered before the other
//!   section's release, the first release must precede the second
//!   acquire.
//!
//! The fixpoint works on *frontiers*: each rule asks the index for the
//! latest predecessor / earliest successor per chain (the
//! `predecessor`/`successor` operations of §2.2) and relates only the
//! boundary event — all others follow by program order. This is how
//! the real tools drive the data structure, and it keeps the query
//! count proportional to the constraint count.
//!
//! The engine also runs in *prefix-restricted* mode, the workhorse of
//! the predictive witness checks (race/deadlock/memory bugs): a witness
//! is a correct reordering of a *prefix* of the trace that co-enables
//! the candidate events, so only prefix events participate in the
//! rules, sections left open by the prefix must not collide, and closed
//! sections must complete before open ones begin.
//!
//! Witness checks run once per candidate over a fresh index, so all
//! trace-level preprocessing (per-variable write tables, section lists,
//! the grouped reads-from list) is hoisted into a [`ClosureCtx`] built
//! once per analysis.

use crate::common::{require_order, OrderOutcome};
use csst_core::{NodeId, PartialOrderIndex, Pos, ThreadId};
use csst_trace::{CriticalSection, EventKind, LockId, Trace, VarId};
use std::collections::{HashMap, HashSet};

/// Saturation statistics and verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationOutcome {
    /// `false` if a rule derived a contradiction (the observation is
    /// infeasible under the current constraints).
    pub consistent: bool,
    /// Number of edges inserted across all rounds.
    pub inserted: usize,
    /// Number of fixpoint rounds executed.
    pub rounds: usize,
}

impl SaturationOutcome {
    fn inconsistent(inserted: usize, rounds: usize) -> Self {
        SaturationOutcome {
            consistent: false,
            inserted,
            rounds,
        }
    }
}

/// Configuration of the saturation engine.
#[derive(Debug, Clone)]
pub struct SaturationCfg {
    /// Apply the lock mutual-exclusion rule.
    pub locks: bool,
    /// Only relate events whose trace-order distance is below this
    /// window (mirrors the windowing of practical predictive tools);
    /// `None` disables windowing.
    pub window: Option<u32>,
    /// Safety valve: stop after this many rounds.
    pub max_rounds: usize,
}

impl Default for SaturationCfg {
    fn default() -> Self {
        SaturationCfg {
            locks: true,
            window: None,
            max_rounds: 64,
        }
    }
}

/// Per-thread exclusive prefix bounds: event `⟨t, i⟩` belongs to the
/// prefix iff `i < bounds[t]`.
pub type PrefixBounds = Vec<u32>;

/// Trace-level tables shared by every closure/witness computation of
/// one analysis run: the reads-from map grouped per variable, the
/// per-(variable, chain) write positions, the thread-locality filter,
/// the critical sections, and the fork structure.
#[derive(Debug)]
pub struct ClosureCtx<'t> {
    /// The underlying trace.
    pub trace: &'t Trace,
    /// The observation: read → writer.
    pub rf: HashMap<NodeId, NodeId>,
    /// rf pairs grouped by (variable, read position): the closure
    /// engine works constraint-by-constraint, *not* in trace order —
    /// every variable group restarts from the beginning of the trace,
    /// so insertions repeatedly target events deep inside the partial
    /// order (the non-streaming pattern of §1.1). The streaming
    /// alternative is the trace-order base order that
    /// [`BaseOrderBuilder::observing`](crate::BaseOrderBuilder::observing)
    /// builds.
    rf_grouped: Vec<(NodeId, NodeId)>,
    /// Sorted write positions per (variable, chain).
    writes_at: HashMap<(VarId, usize), Vec<Pos>>,
    /// Variables accessed by more than one thread; all others are
    /// skipped by the rules (the standard thread-local filter).
    multi_vars: HashSet<VarId>,
    /// All critical sections of the trace.
    sections: Vec<CriticalSection>,
    /// Fork event per child thread.
    forker: Vec<Option<NodeId>>,
    /// All fork/join events, for prefix-restricted edge insertion.
    fork_join: Vec<(NodeId, EventKind)>,
}

impl<'t> ClosureCtx<'t> {
    /// Builds the context (one linear pass over the trace, plus the
    /// trace's own reads-from map if `rf` is `None`).
    pub fn new(trace: &'t Trace, rf: Option<HashMap<NodeId, NodeId>>) -> Self {
        let rf = rf.unwrap_or_else(|| trace.reads_from());
        let k = trace.num_threads();
        let mut writes_at: HashMap<(VarId, usize), Vec<Pos>> = HashMap::new();
        let mut var_thread: HashMap<VarId, Option<ThreadId>> = HashMap::new();
        let mut forker: Vec<Option<NodeId>> = vec![None; k];
        let mut fork_join = Vec::new();
        for (id, ev) in trace.iter_order() {
            if let Some(var) = ev.kind.var() {
                var_thread
                    .entry(var)
                    .and_modify(|t| {
                        if *t != Some(id.thread) {
                            *t = None;
                        }
                    })
                    .or_insert(Some(id.thread));
            }
            match ev.kind {
                EventKind::Write { var, .. } => {
                    writes_at
                        .entry((var, id.thread.index()))
                        .or_default()
                        .push(id.pos);
                }
                EventKind::Fork { child } => {
                    if child.index() < k && forker[child.index()].is_none() {
                        forker[child.index()] = Some(id);
                    }
                    fork_join.push((id, ev.kind));
                }
                EventKind::Join { .. } => fork_join.push((id, ev.kind)),
                _ => {}
            }
        }
        let multi_vars: HashSet<VarId> = var_thread
            .iter()
            .filter(|(_, t)| t.is_none())
            .map(|(&v, _)| v)
            .collect();
        // Thread-local reads are no-ops for every rule (their rf edge
        // is implied by program order and no cross-chain constraint can
        // involve them), so they are filtered out once and for all.
        let mut rf_grouped: Vec<(NodeId, NodeId)> = rf
            .iter()
            .filter(|(r, _)| {
                trace
                    .kind(**r)
                    .var()
                    .is_some_and(|v| multi_vars.contains(&v))
            })
            .map(|(&r, &w)| (r, w))
            .collect();
        rf_grouped
            .sort_unstable_by_key(|&(r, _)| (trace.kind(r).var().map(|v| v.0), trace.trace_pos(r)));
        ClosureCtx {
            trace,
            rf,
            rf_grouped,
            writes_at,
            multi_vars,
            sections: trace.critical_sections(),
            forker,
            fork_join,
        }
    }
}

/// Computes a downward-closed prefix containing, for each root
/// `⟨t, i⟩`, the events `⟨t, 0⟩ … ⟨t, i−1⟩`, closed under:
///
/// * **reads-from** — a read in the prefix pulls in its writer;
/// * **fork** — a thread with prefix events pulls in its forking event;
/// * **join** — a join in the prefix pulls in the entire joined thread;
/// * **section rounding** — a cut landing inside a critical section of
///   a *non-root* thread is extended past the release (the thread can
///   always be run until it drops its locks; only the root threads are
///   frozen at their roots, deliberately holding whatever they hold).
///
/// Returns `None` when the closure is forced to include a root itself —
/// the roots cannot be co-enabled.
pub fn prefix_closure(ctx: &ClosureCtx<'_>, roots: &[NodeId]) -> Option<PrefixBounds> {
    let trace = ctx.trace;
    let k = trace.num_threads();
    let mut root_thread = vec![false; k];
    for r in roots {
        root_thread[r.thread.index()] = true;
    }
    let mut upto: PrefixBounds = vec![0; k];
    for r in roots {
        upto[r.thread.index()] = upto[r.thread.index()].max(r.pos);
    }
    let mut scanned: Vec<u32> = vec![0; k];
    let grow = |upto: &mut PrefixBounds, t: usize, bound: u32| {
        if bound > upto[t] {
            upto[t] = bound;
        }
    };
    loop {
        let mut changed = false;
        for t in 0..k {
            let tid = ThreadId(t as u32);
            let hi = upto[t].min(trace.thread_len(tid) as u32);
            while scanned[t] < hi {
                let id = NodeId::new(tid, scanned[t]);
                scanned[t] += 1;
                match *trace.kind(id) {
                    EventKind::Read { .. } => {
                        if let Some(&w) = ctx.rf.get(&id) {
                            if w.pos + 1 > upto[w.thread.index()] {
                                grow(&mut upto, w.thread.index(), w.pos + 1);
                                changed = true;
                            }
                        }
                    }
                    EventKind::Join { child } if child.index() < k => {
                        let len = trace.thread_len(child) as u32;
                        if len > upto[child.index()] {
                            grow(&mut upto, child.index(), len);
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
            // Fork rule: any included event needs its thread forked.
            if upto[t] > 0 {
                if let Some(f) = ctx.forker[t] {
                    if f.pos + 1 > upto[f.thread.index()] {
                        grow(&mut upto, f.thread.index(), f.pos + 1);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            // Section rounding for non-root threads.
            for cs in &ctx.sections {
                let t = cs.acquire.thread.index();
                if root_thread[t] || cs.acquire.pos >= upto[t] {
                    continue;
                }
                if let Some(rel) = cs.release {
                    if rel.pos >= upto[t] {
                        grow(&mut upto, t, rel.pos + 1);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    for r in roots {
        if upto[r.thread.index()] > r.pos {
            return None;
        }
    }
    Some(upto)
}

/// Runs saturation of `po` under the observation of `ctx` until
/// fixpoint, optionally restricted to a prefix.
///
/// The rf edges themselves are inserted first (restricted to the
/// prefix when one is given). With a prefix, critical sections left
/// *open* by it participate specially: two open sections on one lock
/// are an immediate contradiction, and closed sections must complete
/// before open ones begin.
pub fn saturate_within<P: PartialOrderIndex>(
    po: &mut P,
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
    prefix: Option<&PrefixBounds>,
) -> SaturationOutcome {
    let trace = ctx.trace;
    let in_prefix = |id: NodeId| -> bool {
        match prefix {
            None => true,
            Some(upto) => id.pos < upto[id.thread.index()],
        }
    };
    let prefix_bound = |t: usize| -> Pos {
        match prefix {
            None => Pos::MAX,
            Some(upto) => upto[t],
        }
    };
    let mut inserted = 0usize;

    // Observation edges, constraint-grouped (see ClosureCtx docs).
    for &(r, w) in &ctx.rf_grouped {
        if !in_prefix(r) {
            continue;
        }
        debug_assert!(in_prefix(w), "prefix closure must include writers");
        match require_order(po, w, r) {
            OrderOutcome::Inserted => inserted += 1,
            OrderOutcome::AlreadyOrdered => {}
            OrderOutcome::Contradiction => return SaturationOutcome::inconsistent(inserted, 0),
        }
    }

    // Critical sections, split by the prefix into closed and open.
    let mut closed_at: HashMap<(LockId, usize), Vec<(Pos, Pos)>> = HashMap::new();
    let mut closed_flat: Vec<(LockId, NodeId, NodeId)> = Vec::new();
    if cfg.locks {
        let mut open: HashMap<LockId, Vec<NodeId>> = HashMap::new();
        for cs in &ctx.sections {
            if !in_prefix(cs.acquire) {
                continue;
            }
            match cs.release.filter(|&r| in_prefix(r)) {
                Some(rel) => {
                    closed_at
                        .entry((cs.lock, cs.acquire.thread.index()))
                        .or_default()
                        .push((cs.acquire.pos, rel.pos));
                    closed_flat.push((cs.lock, cs.acquire, rel));
                }
                None => open.entry(cs.lock).or_default().push(cs.acquire),
            }
        }
        // Two sections left open on the same lock cannot both hold it.
        for acquires in open.values() {
            for (i, a) in acquires.iter().enumerate() {
                if acquires[i + 1..].iter().any(|b| b.thread != a.thread) {
                    return SaturationOutcome::inconsistent(inserted, 0);
                }
            }
        }
        // Closed sections complete before open ones begin.
        for (lock, acquires) in &open {
            for &oa in acquires {
                for &(_, ca, crel) in closed_flat.iter().filter(|&&(l, _, _)| l == *lock) {
                    if ca.thread == oa.thread {
                        continue;
                    }
                    match require_order(po, crel, oa) {
                        OrderOutcome::Inserted => inserted += 1,
                        OrderOutcome::AlreadyOrdered => {}
                        OrderOutcome::Contradiction => {
                            return SaturationOutcome::inconsistent(inserted, 0)
                        }
                    }
                }
            }
        }
        // Release-sorted per (lock, chain) for frontier lookups;
        // acquire-sorted flat list for deterministic iteration.
        for v in closed_at.values_mut() {
            v.sort_unstable_by_key(|&(_, rel)| rel);
        }
        closed_flat.sort_unstable_by_key(|&(_, a, _)| trace.trace_pos(a));
    }

    let in_window = |a: NodeId, b: NodeId| -> bool {
        match cfg.window {
            None => true,
            Some(win) => trace.trace_pos(a).abs_diff(trace.trace_pos(b)) <= win,
        }
    };
    let k = trace.num_threads();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        let apply = |po: &mut P, from: NodeId, to: NodeId| -> Result<bool, ()> {
            match require_order(po, from, to) {
                OrderOutcome::Inserted => Ok(true),
                OrderOutcome::AlreadyOrdered => Ok(false),
                OrderOutcome::Contradiction => Err(()),
            }
        };

        // Rule 1: reads-from maximality (frontier form).
        for &(r, w) in &ctx.rf_grouped {
            if !in_prefix(r) {
                continue;
            }
            let var = trace
                .kind(r)
                .var()
                .expect("rf keys are reads of a variable");
            if !ctx.multi_vars.contains(&var) {
                continue;
            }
            for t in 0..k {
                // (a) The latest conflicting write reaching r (per
                // chain) must be ordered before the observed writer.
                if let Some(p) = po.predecessor(r, ThreadId(t as u32)) {
                    if let Some(ws) = ctx.writes_at.get(&(var, t)) {
                        let i = ws.partition_point(|&x| x <= p);
                        if i > 0 {
                            let w2 = NodeId::new(t as u32, ws[i - 1]);
                            if w2 != w && in_window(w2, r) {
                                match apply(po, w2, w) {
                                    Ok(ins) => {
                                        inserted += ins as usize;
                                        changed |= ins;
                                    }
                                    Err(()) => {
                                        return SaturationOutcome::inconsistent(inserted, rounds)
                                    }
                                }
                            }
                        }
                    }
                }
                // (b) The earliest conflicting write reachable from the
                // observed writer (per chain) must be ordered after r.
                if let Some(s) = po.successor(w, ThreadId(t as u32)) {
                    if let Some(ws) = ctx.writes_at.get(&(var, t)) {
                        let mut i = ws.partition_point(|&x| x < s);
                        if i < ws.len() && NodeId::new(t as u32, ws[i]) == w {
                            i += 1;
                        }
                        if i < ws.len() && ws[i] < prefix_bound(t) {
                            let w2 = NodeId::new(t as u32, ws[i]);
                            if in_window(w2, r) {
                                match apply(po, r, w2) {
                                    Ok(ins) => {
                                        inserted += ins as usize;
                                        changed |= ins;
                                    }
                                    Err(()) => {
                                        return SaturationOutcome::inconsistent(inserted, rounds)
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Rule 2: lock mutual exclusion. For each closed section and
        // chain, the first same-lock section whose release is
        // reachable from our acquire overlaps us unless it starts
        // after our release.
        for &(lock, a1, r1) in &closed_flat {
            for t in 0..k {
                if t == a1.thread.index() {
                    continue;
                }
                let Some(s) = po.successor(a1, ThreadId(t as u32)) else {
                    continue;
                };
                let Some(sects) = closed_at.get(&(lock, t)) else {
                    continue;
                };
                let i = sects.partition_point(|&(_, rel)| rel < s);
                if i >= sects.len() {
                    continue;
                }
                let a2 = NodeId::new(t as u32, sects[i].0);
                if !in_window(a1, a2) {
                    continue;
                }
                match apply(po, r1, a2) {
                    Ok(ins) => {
                        inserted += ins as usize;
                        changed |= ins;
                    }
                    Err(()) => return SaturationOutcome::inconsistent(inserted, rounds),
                }
            }
        }

        if !changed || rounds >= cfg.max_rounds {
            break;
        }
    }

    SaturationOutcome {
        consistent: true,
        inserted,
        rounds,
    }
}

/// Full-trace saturation (no prefix restriction).
pub fn saturate<P: PartialOrderIndex>(
    po: &mut P,
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
) -> SaturationOutcome {
    saturate_within(po, ctx, cfg, None)
}

/// The witness check shared by the predictive analyses: are the `roots`
/// co-enabled by some correct reordering of a trace prefix?
///
/// Computes the prefix closure of the roots, then builds a *fresh*
/// index over the prefix (fork/join edges, reads-from, saturation,
/// open-section constraints) and reports whether it stayed acyclic.
/// This per-candidate reconstruction is exactly the non-streaming
/// workload the paper's Table 1–3 analyses impose on the data
/// structure.
pub fn witness_co_enabled<P: PartialOrderIndex>(
    ctx: &ClosureCtx<'_>,
    cfg: &SaturationCfg,
    roots: &[NodeId],
) -> bool {
    let Some(upto) = prefix_closure(ctx, roots) else {
        return false;
    };
    let trace = ctx.trace;
    let mut po = P::with_capacity(trace.num_threads().max(1), trace.max_chain_len().max(1));
    // Fork/join edges restricted to the prefix.
    for &(id, kind) in &ctx.fork_join {
        if id.pos >= upto[id.thread.index()] {
            continue;
        }
        match kind {
            EventKind::Fork { child } if child != id.thread && upto[child.index()] > 0 => {
                let _ = po.insert_edge_checked(id, NodeId::new(child, 0));
            }
            EventKind::Join { child } => {
                let len = trace.thread_len(child) as u32;
                if child != id.thread && len > 0 {
                    let _ = po.insert_edge_checked(NodeId::new(child, len - 1), id);
                }
            }
            _ => {}
        }
    }
    saturate_within(&mut po, ctx, cfg, Some(&upto)).consistent
}

/// `true` if the two events hold a common lock in the observed trace
/// (a cheap pre-filter used by the predictive analyses).
pub fn common_lock(trace: &Trace, a: NodeId, b: NodeId) -> bool {
    let la = trace.locks_held_at(a);
    if la.is_empty() {
        return false;
    }
    let lb = trace.locks_held_at(b);
    la.iter().any(|l| lb.contains(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{IncrementalCsst, NodeId};
    use csst_trace::TraceBuilder;

    fn n(t: u32, i: u32) -> NodeId {
        NodeId::new(t, i)
    }

    fn fresh<'t>(trace: &'t Trace) -> (IncrementalCsst, ClosureCtx<'t>) {
        (IncrementalCsst::new(), ClosureCtx::new(trace, None))
    }

    #[test]
    fn rf_edges_inserted() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0)
        b.on(1).read(x, 1); // (1,0)
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(po.reachable(n(0, 0), n(1, 0)));
    }

    #[test]
    fn maximality_orders_interfering_write() {
        // w1(x)=1 [t0]; w2(x)=2 [t1]; r(x)=2 [t2]  (r observes w2).
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w1
        b.on(1).write(x, 2); // (1,0) = w2
        b.on(2).read(x, 2); // (2,0) = r
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        // Force w1 → r (e.g. discovered by an analysis), then saturate.
        po.insert_edge(n(0, 0), n(2, 0)).unwrap();
        assert_eq!(ctx.rf[&n(2, 0)], n(1, 0));
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(
            po.reachable(n(0, 0), n(1, 0)),
            "saturation must order w1 before w2"
        );
    }

    #[test]
    fn read_before_later_write() {
        // r observes w, and w is ordered before w': then r → w'.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w
        b.on(1).read(x, 1); // (1,0) = r
        b.on(2).write(x, 2); // (2,0) = w'
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(0, 0), n(2, 0)).unwrap(); // w → w'
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(po.reachable(n(1, 0), n(2, 0)), "r must precede w'");
    }

    #[test]
    fn lock_rule_orders_sections() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m); // (0,0)
        b.on(0).write(x, 1); // (0,1)
        b.on(0).release(m); // (0,2)
        b.on(1).acquire(m); // (1,0)
        b.on(1).read(x, 1); // (1,1)
        b.on(1).release(m); // (1,2)
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(out.consistent);
        assert!(
            po.reachable(n(0, 2), n(1, 0)),
            "release of CS1 must precede acquire of CS2"
        );
    }

    #[test]
    fn contradiction_detected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1); // (0,0) = w
        b.on(1).read(x, 1); // (1,0) = r
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(1, 0), n(0, 0)).unwrap(); // r → w
        let out = saturate(&mut po, &ctx, &SaturationCfg::default());
        assert!(!out.consistent);
    }

    #[test]
    fn prefix_closure_follows_rf_fork_join() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1); // (0,0)
        b.on(0).fork(1); // (0,1)
        b.on(1).write(y, 1); // (1,0)
        b.on(2).read(y, 1); // (2,0)
        b.on(2).write(x, 9); // (2,1)  ← root
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        let upto = prefix_closure(&ctx, &[n(2, 1)]).unwrap();
        // (2,1)'s prefix contains (2,0) which reads (1,0); thread 1
        // needs its fork (0,1).
        assert_eq!(upto[2], 1);
        assert_eq!(upto[1], 1);
        assert_eq!(upto[0], 2);
    }

    #[test]
    fn prefix_closure_detects_uncoenablable_roots() {
        // Root e1 = (0,0); root e2's prefix reads a write po-after e1.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1); // (0,0) — root 1
        b.on(0).write(y, 1); // (0,1)
        b.on(1).read(y, 1); // (1,0) observes (0,1)
        b.on(1).write(x, 2); // (1,1) — root 2
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert_eq!(prefix_closure(&ctx, &[n(0, 0), n(1, 1)]), None);
    }

    #[test]
    fn witness_open_sections_conflict() {
        // Both roots sit inside sections on the same lock: not
        // co-enabled.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m); // (0,0)
        b.on(0).write(x, 1); // (0,1) — root 1
        b.on(0).release(m);
        b.on(1).acquire(m); // (1,0)
        b.on(1).write(x, 2); // (1,1) — root 2
        b.on(1).release(m);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert!(!witness_co_enabled::<IncrementalCsst>(
            &ctx,
            &SaturationCfg::default(),
            &[n(0, 1), n(1, 1)]
        ));
    }

    #[test]
    fn witness_feasible_for_plain_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(1).write(x, 2);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert!(witness_co_enabled::<IncrementalCsst>(
            &ctx,
            &SaturationCfg::default(),
            &[n(0, 0), n(1, 0)]
        ));
    }

    #[test]
    fn sections_partition() {
        // A prefix splits the sections it starts into closed ones
        // (release inside) and open ones: two open sections on one lock
        // contradict, and a closed one completes before an open one
        // begins.
        let mut b = TraceBuilder::new();
        let m = b.lock("m");
        let g = b.lock("g");
        b.on(0).acquire(m); // (0,0)
        b.on(0).release(m); // (0,1)
        b.on(0).acquire(g); // (0,2)
        b.on(0).release(g); // (0,3)
        b.on(1).acquire(g); // (1,0)
        b.on(1).release(g); // (1,1)
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        let run = |upto: PrefixBounds| {
            let mut po = IncrementalCsst::new();
            let out = saturate_within(&mut po, &ctx, &SaturationCfg::default(), Some(&upto));
            (out, po)
        };
        assert!(!run(vec![3, 1]).0.consistent, "both g sections open");
        let (out, po) = run(vec![4, 1]);
        assert!(out.consistent);
        assert!(po.reachable(n(0, 3), n(1, 0)), "closed g before open g");
        let (out, _) = run(vec![3, 0]);
        assert!(out.consistent, "one open g section");
        assert_eq!(out.inserted, 0);
    }

    #[test]
    fn windowing_skips_far_pairs() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        for _ in 0..50 {
            b.on(2).read(x, 1);
        }
        b.on(1).write(x, 2);
        b.on(2).read(x, 2);
        let trace = b.build();
        let (mut po, ctx) = fresh(&trace);
        po.insert_edge(n(0, 0), n(2, 50)).unwrap();
        let narrow = saturate(
            &mut po,
            &ctx,
            &SaturationCfg {
                window: Some(1),
                ..Default::default()
            },
        );
        assert!(narrow.consistent);
    }

    #[test]
    fn thread_local_variables_are_filtered() {
        let mut b = TraceBuilder::new();
        let private = b.var("private");
        let shared = b.var("shared");
        b.on(0).write(private, 1);
        b.on(0).read(private, 1);
        b.on(0).write(shared, 1);
        b.on(1).read(shared, 1);
        let trace = b.build();
        let ctx = ClosureCtx::new(&trace, None);
        assert!(ctx.multi_vars.contains(&shared));
        assert!(!ctx.multi_vars.contains(&private));
    }

    #[test]
    fn common_lock_prefilter() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m);
        let a = b.on(0).write(x, 1);
        b.on(0).release(m);
        b.on(1).acquire(m);
        let c = b.on(1).write(x, 2);
        b.on(1).release(m);
        let d = b.on(1).write(x, 3); // outside any lock
        let trace = b.build();
        assert!(common_lock(&trace, a, c));
        assert!(!common_lock(&trace, a, d));
    }
}
