//! x86-TSO consistency checking (Table 4).
//!
//! Following the polynomial-time heuristic of \[Roy et al. 2006\], the
//! checker verifies that a history of loads and stores (with a
//! reads-from map recovered from unique written values) is consistent
//! with the TSO memory model.
//!
//! The chain DAG has **two chains per thread** (§5.2(4) of the CSSTs
//! paper): the *issue* chain carries the thread's instructions in
//! program order; the *commit* chain carries its stores' commits to
//! memory (the store buffer drains FIFO, so commit order equals issue
//! order of stores). TSO's `W→R` relaxation falls out naturally: a
//! load is ordered after earlier loads (issue chain) and before later
//! commits (`issue(s) → commit(s)`), but nothing forces it after the
//! commit of an earlier own store.
//!
//! Saturation rules per load `l` observing store `s`, against every
//! other store `s'` on the same variable:
//!
//! * `commit(s') →* l`  ⟹  `commit(s') → commit(s)` (coherence);
//! * `commit(s) →* commit(s')`  ⟹  `l → commit(s')` (no overwrite
//!   before the read);
//! * `l` reads the initial value  ⟹  `l → commit(s')` for all `s'`.
//!
//! A derived cycle means the history is not TSO-consistent. These
//! insertions hit events deep inside the partial order, which is why
//! Table 4 shows the largest vector-clock blowups.
//!
//! **Classification:** predictive. *Detects* violations of the x86-TSO
//! memory model in a load/store history. *Base order:* `issue → commit`
//! per store and `commit → issue` reads-from edges, built online per
//! event over two chains per thread. *Buffering:* per-window load and
//! commit tables for the coherence fixpoint at `finish`, or
//! **windowed** via [`TsoCheckCfg::window`].
//!
//! ```
//! use csst_analyses::tso::{self, TsoCheckCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.on(0).write(x, 1);
//! b.on(1).read(x, 1);
//! b.on(1).read(x, 0); // stale after fresh: coherence violation
//! let report = tso::check::<IncrementalCsst>(&b.build(), &TsoCheckCfg::default());
//! assert!(!report.consistent);
//! ```

use crate::common::{BaseOrderBuilder, OrderOutcome, WindowStats};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, Pos, ThreadId};
use csst_trace::{EventKind, Trace, VarId};
use std::collections::HashMap;

/// Configuration of [`check`].
#[derive(Debug, Clone)]
pub struct TsoCheckCfg {
    /// Safety valve for the saturation fixpoint.
    pub max_rounds: usize,
    /// Tumbling-window size bounding the per-window load/commit
    /// tables; `None` checks the whole history at once. See the
    /// [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

impl Default for TsoCheckCfg {
    fn default() -> Self {
        TsoCheckCfg {
            max_rounds: 64,
            window: None,
        }
    }
}

/// Result of a TSO consistency check.
#[derive(Debug, Clone)]
pub struct TsoReport<P> {
    /// The final partial order over `2k` chains: issue chain `2t` and
    /// commit chain `2t + 1` of the `t`-th thread to appear.
    pub po: P,
    /// Whether the history is TSO-consistent (no derived cycle).
    pub consistent: bool,
    /// Edges inserted (rf + saturation).
    pub inserted: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Issue-chain node of event `⟨t, i⟩`.
#[inline]
fn issue(id: NodeId) -> NodeId {
    NodeId::new(ThreadId(id.thread.0 * 2), id.pos)
}

/// Commit-chain node of the `idx`-th store of thread `t`.
#[inline]
fn commit(t: ThreadId, idx: u32) -> NodeId {
    NodeId::new(ThreadId(t.0 * 2 + 1), idx)
}

/// Streaming form of [`check`]: the base order — `issue(s) → commit(s)`
/// per store and the reads-from edge `commit(s) → issue(l)` per load —
/// grows per event inside `feed`; only the coherence fixpoint runs over
/// the window's load/commit tables at `finish` (or per window when
/// [`TsoCheckCfg::window`] is set).
///
/// A read returning a value no store has produced *so far* is flagged
/// as a value-from-nowhere inconsistency — faithful recordings always
/// write a value before any read returns it. A windowed read observing
/// a store of an earlier (retired) window contributes no constraint.
#[derive(Debug)]
pub struct TsoChecker<P> {
    cfg: TsoCheckCfg,
    builder: BaseOrderBuilder<P>,
    /// Dense id of every recorded thread id seen so far (`u32::MAX`
    /// when unseen). Threads are numbered in order of first appearance,
    /// so chains `2t`/`2t + 1` stay in the index's range for any thread
    /// id the trace formats admit; the base order and the report's
    /// `po` are over dense ids.
    dense: Vec<u32>,
    /// Recorded thread id of each dense id.
    recorded: Vec<ThreadId>,
    /// Global number of stores per dense thread (the next commit
    /// position).
    store_count: Vec<u32>,
    /// value → (store event, variable); persists across windows so
    /// cross-window observations are recognized (and skipped) rather
    /// than misread as values from nowhere.
    writer_of_value: HashMap<u64, (NodeId, VarId)>,
    /// Current window's stores: store event → commit node.
    commit_of: HashMap<NodeId, NodeId>,
    /// Current window's sorted commit positions per (variable, thread).
    commits_at: HashMap<(VarId, usize), Vec<Pos>>,
    /// Current window's loads.
    loads: Vec<(NodeId, VarId, u64)>,
    inconsistent: bool,
    inserted: usize,
    rounds: usize,
}

impl<P: PartialOrderIndex> TsoChecker<P> {
    /// Frontier-based coherence saturation over the current window: per
    /// load and per commit chain, only the boundary store is related;
    /// the rest follow by the FIFO order of the commit chain.
    fn fixpoint(&mut self) {
        // Visit commit chains by recorded thread id, so the rules fire
        // in the same order whatever the dense numbering.
        let mut chains: Vec<usize> = (0..self.recorded.len()).collect();
        chains.sort_unstable_by_key(|&t| self.recorded[t]);
        // Detach the lookup table so rule applications can borrow
        // `self` mutably; `apply` never touches it.
        let commits_at = std::mem::take(&mut self.commits_at);
        while !self.inconsistent {
            self.rounds += 1;
            let mut changed = false;
            'loads: for li in 0..self.loads.len() {
                let (l, var, value) = self.loads[li];
                let li = issue(l);
                let observed = if value == 0 {
                    None
                } else {
                    // A retired writer (not in `commit_of`) is a
                    // cross-window observation: no constraint.
                    match self.writer_of_value.get(&value) {
                        Some(&(s, _)) if self.commit_of.contains_key(&s) => Some(s),
                        Some(_) => continue 'loads,
                        None => continue 'loads,
                    }
                };
                match observed {
                    None => {
                        // Initial read: every store to the variable
                        // commits after the load; the first store per
                        // chain covers the rest through the FIFO commit
                        // order.
                        for &t in &chains {
                            let Some(cps) = commits_at.get(&(var, t)) else {
                                continue;
                            };
                            let first = NodeId::new(ThreadId(t as u32 * 2 + 1), cps[0]);
                            if self.apply(li, first) {
                                changed = true;
                            }
                            if self.inconsistent {
                                break 'loads;
                            }
                        }
                    }
                    Some(s) => {
                        let cs = self.commit_of[&s];
                        for &t in &chains {
                            let cchain = ThreadId(t as u32 * 2 + 1);
                            let Some(cps) = commits_at.get(&(var, t)) else {
                                continue;
                            };
                            // (a) The latest same-variable commit
                            // reaching the load is coherence-before the
                            // observed store's commit.
                            if let Some(p) = self.builder.po().predecessor(li, cchain) {
                                let i = cps.partition_point(|&x| x <= p);
                                if i > 0 {
                                    let c2 = NodeId::new(cchain, cps[i - 1]);
                                    if c2 != cs && self.apply(c2, cs) {
                                        changed = true;
                                    }
                                    if self.inconsistent {
                                        break 'loads;
                                    }
                                }
                            }
                            // (b) The earliest same-variable commit
                            // reachable from the observed store's
                            // commit must come after the load.
                            if let Some(su) = self.builder.po().successor(cs, cchain) {
                                let mut i = cps.partition_point(|&x| x < su);
                                if i < cps.len() && NodeId::new(cchain, cps[i]) == cs {
                                    i += 1;
                                }
                                if i < cps.len() {
                                    let c2 = NodeId::new(cchain, cps[i]);
                                    if self.apply(li, c2) {
                                        changed = true;
                                    }
                                    if self.inconsistent {
                                        break 'loads;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if !changed || self.rounds >= self.cfg.max_rounds {
                break;
            }
        }
        self.commits_at = commits_at;
    }

    /// Enforces `from → to`, tracking insertions and contradictions.
    fn apply(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.builder.require_logged(from, to) {
            OrderOutcome::Inserted => {
                self.inserted += 1;
                true
            }
            OrderOutcome::AlreadyOrdered => false,
            OrderOutcome::Contradiction => {
                self.inconsistent = true;
                false
            }
        }
    }

    /// The dense id of `thread`, assigned on first appearance.
    fn intern(&mut self, thread: ThreadId) -> ThreadId {
        let i = thread.index();
        if i >= self.dense.len() {
            self.dense.resize(i + 1, u32::MAX);
        }
        if self.dense[i] == u32::MAX {
            self.dense[i] = self.recorded.len() as u32;
            self.recorded.push(thread);
            self.store_count.push(0);
        }
        ThreadId(self.dense[i])
    }

    fn retire(&mut self) {
        self.builder.retire_window();
        self.commit_of.clear();
        self.commits_at.clear();
        self.loads.clear();
    }
}

impl<P: PartialOrderIndex> Analysis for TsoChecker<P> {
    type Cfg = TsoCheckCfg;
    type Report = TsoReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        TsoChecker {
            builder: BaseOrderBuilder::counting(cfg.window),
            cfg,
            dense: Vec::new(),
            recorded: Vec::new(),
            store_count: Vec::new(),
            writer_of_value: HashMap::new(),
            commit_of: HashMap::new(),
            commits_at: HashMap::new(),
            loads: Vec::new(),
            inconsistent: false,
            inserted: 0,
            rounds: 0,
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        let thread = self.intern(thread);
        let id = self.builder.feed(thread, event);
        match event {
            EventKind::Write { var, value } => {
                let c = commit(thread, self.store_count[thread.index()]);
                self.store_count[thread.index()] += 1;
                self.commit_of.insert(id, c);
                self.writer_of_value.insert(value, (id, var));
                self.commits_at
                    .entry((var, thread.index()))
                    .or_default()
                    .push(c.pos);
                // Base edge: issue(s) → commit(s).
                self.builder
                    .insert_logged(issue(id), c)
                    .expect("issue → commit is valid");
                self.inserted += 1;
            }
            EventKind::Read { var, value } => {
                self.loads.push((id, var, value));
                // Reads-from edge: remote reads happen after the
                // commit (the initial value needs none).
                if value != 0 {
                    match self.writer_of_value.get(&value) {
                        None => self.inconsistent = true, // value from nowhere
                        Some(&(s, wvar)) => {
                            if wvar != var {
                                self.inconsistent = true;
                            } else if s.thread != thread {
                                if let Some(&c) = self.commit_of.get(&s) {
                                    self.apply(c, issue(id));
                                }
                                // A retired writer is a cross-window
                                // observation: no constraint.
                            } else if s.pos >= id.pos {
                                self.inconsistent = true; // future store
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        self.builder
            .note_buffered(self.loads.len() + self.commit_of.len());
        if self.builder.window_full() {
            self.fixpoint();
            self.retire();
        }
    }

    fn finish(mut self) -> TsoReport<P> {
        self.fixpoint();
        TsoReport {
            consistent: !self.inconsistent,
            inserted: self.inserted,
            rounds: self.rounds,
            window: self.builder.stats(),
            po: self.builder.into_po(),
        }
    }
}

/// Runs the TSO consistency check over a history of plain reads and
/// writes with unique written values (as produced by
/// [`csst_trace::gen::tso_history`]). Non-access events are ignored.
/// A thin wrapper streaming the trace through [`TsoChecker`].
pub fn check<P: PartialOrderIndex>(trace: &Trace, cfg: &TsoCheckCfg) -> TsoReport<P> {
    TsoChecker::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{tso_history, TsoCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn generated_histories_are_consistent() {
        for seed in 0..5 {
            let trace = tso_history(&csst_trace::gen::TsoCfg {
                threads: 4,
                events_per_thread: 120,
                vars: 4,
                seed,
                ..Default::default()
            });
            let r = check::<IncrementalCsst>(&trace, &TsoCheckCfg::default());
            assert!(r.consistent, "seed {seed}: TSO machine output rejected");
            assert!(r.inserted > 0);
        }
    }

    #[test]
    fn coherence_violation_detected() {
        // T0: w(x,1). T1: r(x,1); r(x,0) — reading the initial value
        // after the new one violates coherence.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(1).read(x, 1);
        b.on(1).read(x, 0);
        let trace = b.build();
        let r = check::<IncrementalCsst>(&trace, &TsoCheckCfg::default());
        assert!(!r.consistent);
    }

    #[test]
    fn store_buffering_is_allowed() {
        // The classic SB litmus outcome r1 = r2 = 0 IS allowed on TSO:
        // T0: w(x,1); r(y,0). T1: w(y,1); r(x,0).
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1);
        b.on(0).read(y, 0);
        b.on(1).write(y, 2);
        b.on(1).read(x, 0);
        let trace = b.build();
        let r = check::<IncrementalCsst>(&trace, &TsoCheckCfg::default());
        assert!(r.consistent, "SB relaxed outcome must be TSO-consistent");
    }

    #[test]
    fn value_from_wrong_variable_rejected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1);
        b.on(1).read(y, 1); // value 1 was written to x, not y
        let trace = b.build();
        let r = check::<IncrementalCsst>(&trace, &TsoCheckCfg::default());
        assert!(!r.consistent);
    }

    #[test]
    fn forwarding_from_future_store_rejected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).read(x, 1); // reads own store that has not issued yet
        b.on(0).write(x, 1);
        let trace = b.build();
        let r = check::<IncrementalCsst>(&trace, &TsoCheckCfg::default());
        assert!(!r.consistent);
    }

    #[test]
    fn representations_agree() {
        for seed in 0..3 {
            let trace = tso_history(&TsoCfg {
                threads: 3,
                events_per_thread: 80,
                vars: 3,
                seed,
                ..Default::default()
            });
            let cfg = TsoCheckCfg::default();
            let a = check::<IncrementalCsst>(&trace, &cfg);
            let b = check::<SegTreeIndex>(&trace, &cfg);
            let c = check::<VectorClockIndex>(&trace, &cfg);
            let d = check::<GraphIndex>(&trace, &cfg);
            assert_eq!(a.consistent, b.consistent);
            assert_eq!(a.consistent, c.consistent);
            assert_eq!(a.consistent, d.consistent);
            assert_eq!(a.inserted, b.inserted, "same op sequence");
        }
    }
}
