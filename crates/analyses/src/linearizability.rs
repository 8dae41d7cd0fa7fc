//! Root-causing linearizability violations (Table 7).
//!
//! The analysis of \[Çirisci et al. 2020\] takes a violating history of
//! a concurrent object and searches for the root cause by exploring
//! linearizations: operations are committed one at a time against the
//! sequential specification, each commitment inserting ordering edges;
//! dead ends *delete* those edges and backtrack.
//!
//! This is the paper's only fully dynamic workload — both incremental
//! and decremental updates — so vector clocks and the incremental
//! structures are out, and the baseline is a plain graph (the
//! representation used by the original tool). Table 7 shows CSSTs
//! beating it by orders of magnitude as histories grow.
//!
//! **Classification:** predictive. *Detects* non-linearizable
//! histories of a concurrent set and root-causes them. *Base order:*
//! the op-level real-time order, built online as operations complete.
//! *Buffering:* completed operations until the backtracking search at
//! `finish`, or **windowed** via [`LinCfg::window`] (the witnessed
//! specification state carries across windows).
//!
//! ```
//! use csst_analyses::linearizability::{self, LinCfg, LinVerdict};
//! use csst_core::Csst;
//! use csst_trace::{Method, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let (_, add) = b.on(0).invoke(Method::Add, 5);
//! b.on(0).respond(add, 1);
//! let (_, has) = b.on(1).invoke(Method::Contains, 5);
//! b.on(1).respond(has, 1);
//! let report = linearizability::analyze::<Csst>(&b.build(), &LinCfg::default());
//! assert!(matches!(report.verdict, LinVerdict::Linearizable(_)));
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, Method, OpId, Trace};
use std::collections::{HashMap, HashSet};

/// One operation interval of the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// The operation instance id.
    pub op: OpId,
    /// The method.
    pub method: Method,
    /// The argument.
    pub arg: u64,
    /// The recorded result.
    pub result: u64,
    /// Invocation event in the trace.
    pub invoke: NodeId,
    /// Response event in the trace.
    pub response: NodeId,
    /// The operation's node in the op-level chain DAG: chain = thread,
    /// position = index among the thread's operations.
    pub node: NodeId,
}

/// Configuration of [`analyze`].
#[derive(Debug, Clone)]
pub struct LinCfg {
    /// Abort the search after this many committed steps (safety valve
    /// for adversarial histories; shared across windows).
    pub max_steps: u64,
    /// Tumbling-window size bounding the buffered operations: every
    /// `n` events the completed operations are searched and retired,
    /// carrying the witnessed specification state into the next window.
    /// An operation belongs to the window of its *response* — an
    /// invocation interval may span boundaries, in which case the
    /// real-time edges from retired operations are dropped (they are
    /// satisfied by the window concatenation anyway). `None` searches
    /// the whole history at once. See the [`Analysis`] soundness
    /// contract.
    pub window: Option<usize>,
}

impl Default for LinCfg {
    fn default() -> Self {
        LinCfg {
            max_steps: 2_000_000,
            window: None,
        }
    }
}

/// Verdict of the linearizability analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinVerdict {
    /// A legal linearization exists (op ids in order).
    Linearizable(Vec<OpId>),
    /// No linearization exists; the root cause is reported as the
    /// frontier at the deepest point of the search.
    Violation(RootCause),
    /// The step budget was exhausted.
    Unknown,
}

/// The deepest failure the search encountered: after linearizing
/// `executed` operations, none of `blocked` could be committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootCause {
    /// Length of the longest legal linearization prefix found.
    pub executed: usize,
    /// The frontier operations that all failed the specification at
    /// that point.
    pub blocked: Vec<OpId>,
}

/// Result of [`analyze`], with the op mix the search issued.
#[derive(Debug, Clone)]
pub struct LinReport<P> {
    /// The partial order at the end of the search.
    pub po: P,
    /// The verdict.
    pub verdict: LinVerdict,
    /// Committed search steps (each inserts frontier edges).
    pub steps: u64,
    /// Backtracks (each deletes the edges of the undone step).
    pub backtracks: u64,
    /// Edges inserted over the search.
    pub inserted: u64,
    /// Edges deleted over the search.
    pub deleted: u64,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Extracts the per-thread operation sequences of a history trace.
pub fn operations(trace: &Trace) -> Vec<Operation> {
    let mut pending: std::collections::HashMap<OpId, (NodeId, Method, u64)> =
        std::collections::HashMap::new();
    let mut per_thread_count = vec![0u32; trace.num_threads()];
    let mut ops = Vec::new();
    for (id, ev) in trace.iter_order() {
        match ev.kind {
            EventKind::Invoke { op, method, arg } => {
                pending.insert(op, (id, method, arg));
            }
            EventKind::Response { op, result } => {
                // A response without a matching invoke (e.g. an
                // operation cut in half by a window boundary) is
                // skipped: only complete operations participate.
                let Some((invoke, method, arg)) = pending.remove(&op) else {
                    continue;
                };
                let t = invoke.thread;
                let node = NodeId::new(t, per_thread_count[t.index()]);
                per_thread_count[t.index()] += 1;
                ops.push(Operation {
                    op,
                    method,
                    arg,
                    result,
                    invoke,
                    response: id,
                    node,
                });
            }
            _ => {}
        }
    }
    ops
}

/// One completed operation with its global response arrival position
/// (what real-time edge construction compares invocations against).
#[derive(Debug, Clone, Copy)]
struct CompletedOp {
    op: Operation,
    resp_pos: u64,
}

/// Streaming form of [`analyze`]: the real-time base order grows inside
/// `feed` as operations complete; the backtracking search runs over the
/// buffered operations at `finish` — or per window when
/// [`LinCfg::window`] bounds the buffer, carrying the witnessed
/// specification state from one window into the next.
#[derive(Debug)]
pub struct LinAnalyzer<P> {
    cfg: LinCfg,
    builder: BaseOrderBuilder<P>,
    /// Global arrival counter (the trace position of batch runs).
    arrival: u64,
    /// Invoked but not yet responded operations (global invoke ids).
    pending: HashMap<OpId, (NodeId, u64, Method, u64)>,
    /// Completed operations of the current window.
    ops: Vec<CompletedOp>,
    /// Indices into `ops` per thread, in completion order: the op-level
    /// node of the next completion of thread `t` is
    /// `⟨t, per_thread[t].len()⟩`.
    per_thread: Vec<Vec<usize>>,
    /// Specification state carried across windows (the set contents
    /// along the committed linearization witness).
    set: HashSet<u64>,
    /// Sticky verdict: the first violation (or budget exhaustion) ends
    /// the analysis — later windows' initial state is unknown.
    verdict: Option<LinVerdict>,
    /// Concatenated linearization witness across windows.
    lin_order: Vec<OpId>,
    steps: u64,
    backtracks: u64,
    inserted: u64,
    deleted: u64,
}
impl<P: PartialOrderIndex> LinAnalyzer<P> {
    /// Runs the backtracking search over the current window's completed
    /// operations, continuing from the carried specification state.
    fn search_window(&mut self) {
        if self.verdict.is_some() || self.ops.is_empty() {
            return;
        }
        let k = self.per_thread.len();
        let ops = &self.ops;
        let per_thread = &self.per_thread;
        let po = self.builder.po_mut();
        let set = &mut self.set;
        // Window-local cursors: committed operations per thread.
        let mut cursor = vec![0usize; k];
        let mut executed = 0usize;
        let total = ops.len();

        // Per depth: (op chosen, tried-set, edges inserted, spec-undo).
        struct Frame {
            candidates: Vec<usize>, // op indices still to try
            committed: Option<Committed>,
            /// Memoization key of the state this frame explores:
            /// (per-thread cursors, sorted set contents). Sound because
            /// committed frontier edges always originate from already
            /// executed operations and thus never block future
            /// candidates — the remaining search depends only on this
            /// key.
            key: (Vec<usize>, Vec<u64>),
        }
        struct Committed {
            op_idx: usize,
            edges: Vec<(NodeId, NodeId)>,
            set_delta: SetDelta,
        }
        #[derive(Clone, Copy)]
        enum SetDelta {
            None,
            Added(u64),
            Removed(u64),
        }
        let mut best_executed = 0usize;
        let mut best_blocked: Vec<OpId> = Vec::new();

        // Enumerate current frontier candidates (per-thread cursor ops
        // with all cross-thread predecessors executed).
        let frontier = |po: &P, cursor: &[usize]| {
            let mut c = Vec::new();
            for t in 0..k {
                let Some(&i) = per_thread[t].get(cursor[t]) else {
                    continue;
                };
                let node = ops[i].op.node;
                let ready = (0..k).filter(|&t2| t2 != t).all(|t2| {
                    po.predecessor(node, ThreadId(t2 as u32))
                        .is_none_or(|p| (p as usize) < cursor[t2])
                });
                if ready {
                    c.push(i);
                }
            }
            c
        };

        let state_key = |cursor: &[usize], set: &HashSet<u64>| -> (Vec<usize>, Vec<u64>) {
            let mut s: Vec<u64> = set.iter().copied().collect();
            s.sort_unstable();
            (cursor.to_vec(), s)
        };
        // States whose entire subtree was explored without success.
        let mut dead: HashSet<(Vec<usize>, Vec<u64>)> = HashSet::new();

        let mut stack: Vec<Frame> = vec![Frame {
            candidates: frontier(po, &cursor),
            committed: None,
            key: state_key(&cursor, set),
        }];

        let verdict = loop {
            if self.steps >= self.cfg.max_steps {
                break LinVerdict::Unknown;
            }
            let Some(frame) = stack.last_mut() else {
                // Root exhausted: violation.
                break LinVerdict::Violation(RootCause {
                    executed: best_executed,
                    blocked: best_blocked.clone(),
                });
            };
            // Undo the previous commitment at this frame, if any.
            if let Some(c) = frame.committed.take() {
                let op = &ops[c.op_idx].op;
                let t = op.node.thread.index();
                cursor[t] -= 1;
                executed -= 1;
                match c.set_delta {
                    SetDelta::None => {}
                    SetDelta::Added(v) => {
                        set.remove(&v);
                    }
                    SetDelta::Removed(v) => {
                        set.insert(v);
                    }
                }
                for (u, v) in c.edges.iter().rev() {
                    po.delete_edge(*u, *v).expect("undo of inserted edge");
                    self.deleted += 1;
                }
            }
            // Try the next candidate.
            let Some(op_idx) = frame.candidates.pop() else {
                let exhausted = stack.pop().expect("frame exists");
                dead.insert(exhausted.key);
                self.backtracks += 1;
                continue;
            };
            let op = ops[op_idx].op;
            // Specification check.
            let (applies, set_delta) = match op.method {
                Method::Add => {
                    let fresh = !set.contains(&op.arg);
                    if (fresh as u64) == op.result {
                        if fresh {
                            set.insert(op.arg);
                            (true, SetDelta::Added(op.arg))
                        } else {
                            (true, SetDelta::None)
                        }
                    } else {
                        (false, SetDelta::None)
                    }
                }
                Method::Remove => {
                    let present = set.contains(&op.arg);
                    if (present as u64) == op.result {
                        if present {
                            set.remove(&op.arg);
                            (true, SetDelta::Removed(op.arg))
                        } else {
                            (true, SetDelta::None)
                        }
                    } else {
                        (false, SetDelta::None)
                    }
                }
                Method::Contains => (set.contains(&op.arg) as u64 == op.result, SetDelta::None),
            };
            if !applies {
                continue;
            }
            // Commit: the chosen op precedes every other thread's
            // frontier.
            self.steps += 1;
            let t = op.node.thread.index();
            let mut edges = Vec::new();
            for t2 in 0..k {
                if t2 == t {
                    continue;
                }
                let Some(&j) = per_thread[t2].get(cursor[t2]) else {
                    continue;
                };
                let next = ops[j].op.node;
                if !po.reachable(op.node, next) {
                    po.insert_edge(op.node, next)
                        .expect("frontier edge is valid");
                    self.inserted += 1;
                    edges.push((op.node, next));
                }
            }
            cursor[t] += 1;
            executed += 1;
            if executed > best_executed {
                best_executed = executed;
                best_blocked.clear();
            }
            stack.last_mut().expect("frame exists").committed = Some(Committed {
                op_idx,
                edges,
                set_delta,
            });
            if executed == total {
                // Reconstruct the linearization from the stack.
                let order: Vec<OpId> = stack
                    .iter()
                    .filter_map(|f| f.committed.as_ref())
                    .map(|c| ops[c.op_idx].op.op)
                    .collect();
                self.lin_order.extend(order);
                // In windowed runs the committed frontier edges must
                // not outlive the window: the search owns them, so it
                // removes them before retirement.
                if self.cfg.window.is_some() {
                    for f in stack.iter().rev() {
                        if let Some(c) = f.committed.as_ref() {
                            for (u, v) in c.edges.iter().rev() {
                                po.delete_edge(*u, *v).expect("undo of committed edge");
                                self.deleted += 1;
                            }
                        }
                    }
                }
                return;
            }
            let key = state_key(&cursor, set);
            let next_candidates = if dead.contains(&key) {
                Vec::new() // already proven fruitless: force a backtrack
            } else {
                frontier(po, &cursor)
            };
            if executed == best_executed {
                // Record the blocked frontier at the deepest point.
                best_blocked = (0..k)
                    .filter_map(|t2| per_thread[t2].get(cursor[t2]))
                    .map(|&j| ops[j].op.op)
                    .collect();
            }
            stack.push(Frame {
                candidates: next_candidates,
                committed: None,
                key,
            });
        };
        // A Violation exits with an empty, fully unwound stack, but a
        // budget-exhausted search (Unknown) breaks mid-descent with its
        // committed frontier edges still in the index. Mirror the
        // success path: in windowed runs, search edges must not outlive
        // the window.
        if self.cfg.window.is_some() {
            for f in stack.iter().rev() {
                if let Some(c) = f.committed.as_ref() {
                    for (u, v) in c.edges.iter().rev() {
                        po.delete_edge(*u, *v).expect("undo of committed edge");
                        self.deleted += 1;
                    }
                }
            }
        }
        self.verdict = Some(verdict);
    }

    /// Retires the searched window: drops the logged real-time edges,
    /// and the next window's op-level nodes restart at 0.
    fn retire(&mut self) {
        self.builder.retire_window();
        self.per_thread.iter_mut().for_each(Vec::clear);
        self.ops.clear();
    }
}

impl<P: PartialOrderIndex> Analysis for LinAnalyzer<P> {
    type Cfg = LinCfg;
    type Report = LinReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        let builder: BaseOrderBuilder<P> = BaseOrderBuilder::counting(cfg.window);
        assert!(
            builder.po().supports_deletion(),
            "linearizability root-causing needs a fully dynamic index"
        );
        LinAnalyzer {
            builder,
            cfg,
            arrival: 0,
            pending: HashMap::new(),
            ops: Vec::new(),
            per_thread: Vec::new(),
            set: HashSet::new(),
            verdict: None,
            lin_order: Vec::new(),
            steps: 0,
            backtracks: 0,
            inserted: 0,
            deleted: 0,
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        let local = self.builder.feed(thread, event);
        let id = self.builder.to_global(local);
        let pos = self.arrival;
        self.arrival += 1;
        match event {
            EventKind::Invoke { op, method, arg } => {
                self.pending.insert(op, (id, pos, method, arg));
            }
            EventKind::Response { op, result } => {
                // An operation belongs to the window of its *response*;
                // `pending` survives retirement, so an op whose invoke
                // fell into an earlier window still completes here
                // (dropping it would corrupt the carried specification
                // state). Responses with no invoke at all are skipped.
                if let Some((invoke, invoke_pos, method, arg)) = self.pending.remove(&op) {
                    self.complete(op, method, arg, result, invoke, invoke_pos, id, pos);
                }
            }
            _ => {}
        }
        if self.builder.window_full() {
            self.search_window();
            self.retire();
        }
    }

    fn finish(mut self) -> LinReport<P> {
        self.search_window();
        let verdict = self
            .verdict
            .unwrap_or(LinVerdict::Linearizable(self.lin_order));
        LinReport {
            verdict,
            steps: self.steps,
            backtracks: self.backtracks,
            inserted: self.inserted,
            deleted: self.deleted,
            window: self.builder.stats(),
            po: self.builder.into_po(),
        }
    }
}

impl<P: PartialOrderIndex> LinAnalyzer<P> {
    /// Completes an operation: assigns its op-level node, inserts its
    /// real-time edges into the base order (the incremental part of the
    /// analysis) and buffers it for the window's search.
    #[allow(clippy::too_many_arguments)] // one call site, plain data
    fn complete(
        &mut self,
        op: OpId,
        method: Method,
        arg: u64,
        result: u64,
        invoke: NodeId,
        invoke_pos: u64,
        response: NodeId,
        resp_pos: u64,
    ) {
        let t = invoke.thread;
        if t.index() >= self.per_thread.len() {
            self.per_thread.resize(t.index() + 1, Vec::new());
        }
        let node = NodeId::new(t, self.per_thread[t.index()].len() as u32);
        // Real-time order: one edge from the latest op of every other
        // thread that responded before this op invoked (earlier ones
        // follow transitively through the chain). Operations of retired
        // windows are already ordered before this one by construction.
        // All edges target `node` — a freshly minted op with no
        // outgoing order — so redundancy is checked against the current
        // order plus the batch itself (exactly what inserting one at a
        // time would see) and the survivors go in as one batch.
        let mut batch: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.per_thread.len());
        for t2 in 0..self.per_thread.len() {
            if t2 == t.index() {
                continue;
            }
            let list = &self.per_thread[t2];
            let i = list.partition_point(|&j| self.ops[j].resp_pos < invoke_pos);
            if i > 0 {
                let prev = self.ops[list[i - 1]].op.node;
                let ordered = self.builder.po().reachable(prev, node)
                    || batch
                        .iter()
                        .any(|&(p, _)| self.builder.po().reachable(prev, p));
                if !ordered {
                    batch.push((prev, node));
                }
            }
        }
        if !batch.is_empty() {
            self.inserted += batch.len() as u64;
            self.builder
                .insert_batch_logged(&batch)
                .expect("real-time edges are acyclic");
        }
        let idx = self.ops.len();
        self.ops.push(CompletedOp {
            op: Operation {
                op,
                method,
                arg,
                result,
                invoke,
                response,
                node,
            },
            resp_pos,
        });
        self.per_thread[t.index()].push(idx);
        self.builder.note_buffered(self.ops.len());
    }
}

/// Runs the root-cause analysis over a history trace using the fully
/// dynamic representation `P` (must support deletion): a thin wrapper
/// streaming the trace through [`LinAnalyzer`].
///
/// # Panics
///
/// Panics if `P` does not support deletion.
pub fn analyze<P: PartialOrderIndex>(trace: &Trace, cfg: &LinCfg) -> LinReport<P> {
    LinAnalyzer::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{Csst, GraphIndex};
    use csst_trace::gen::{object_history, ObjectHistoryCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn sequential_history_linearizes() {
        let mut b = TraceBuilder::new();
        let (_, op1) = b.on(0).invoke(Method::Add, 5);
        b.on(0).respond(op1, 1);
        let (_, op2) = b.on(0).invoke(Method::Contains, 5);
        b.on(0).respond(op2, 1);
        let (_, op3) = b.on(0).invoke(Method::Remove, 5);
        b.on(0).respond(op3, 1);
        let trace = b.build();
        let r = analyze::<Csst>(&trace, &LinCfg::default());
        assert!(matches!(r.verdict, LinVerdict::Linearizable(_)));
    }

    #[test]
    fn concurrent_history_linearizes_out_of_real_time_order() {
        // T0: add(1) → true   overlapping   T1: contains(1) → true.
        // Only the order add < contains explains the results.
        let mut b = TraceBuilder::new();
        let (_, op_c) = b.on(1).invoke(Method::Contains, 1);
        let (_, op_a) = b.on(0).invoke(Method::Add, 1);
        b.on(0).respond(op_a, 1);
        b.on(1).respond(op_c, 1);
        let trace = b.build();
        let r = analyze::<Csst>(&trace, &LinCfg::default());
        match r.verdict {
            LinVerdict::Linearizable(order) => {
                let pa = order.iter().position(|&o| o == op_a).unwrap();
                let pc = order.iter().position(|&o| o == op_c).unwrap();
                assert!(pa < pc, "add must linearize before contains");
            }
            v => panic!("expected linearizable, got {v:?}"),
        }
    }

    #[test]
    fn real_time_violation_detected() {
        // contains(1) → true completes strictly BEFORE add(1) → true
        // begins: no linearization.
        let mut b = TraceBuilder::new();
        let (_, op_c) = b.on(1).invoke(Method::Contains, 1);
        b.on(1).respond(op_c, 1);
        let (_, op_a) = b.on(0).invoke(Method::Add, 1);
        b.on(0).respond(op_a, 1);
        let trace = b.build();
        let r = analyze::<Csst>(&trace, &LinCfg::default());
        assert!(
            matches!(r.verdict, LinVerdict::Violation(_)),
            "{:?}",
            r.verdict
        );
        assert!(r.backtracks > 0 || r.steps > 0);
    }

    #[test]
    fn generated_clean_histories_linearize() {
        for seed in 0..4 {
            let trace = object_history(&ObjectHistoryCfg {
                threads: 3,
                ops_per_thread: 15,
                seed,
                ..Default::default()
            });
            let r = analyze::<Csst>(&trace, &LinCfg::default());
            assert!(
                matches!(r.verdict, LinVerdict::Linearizable(_)),
                "seed {seed}: {:?}",
                r.verdict
            );
        }
    }

    #[test]
    fn injected_violations_are_detected() {
        let mut found = 0;
        let mut total_deleted = 0;
        for seed in 0..6 {
            let trace = object_history(&ObjectHistoryCfg {
                threads: 3,
                ops_per_thread: 12,
                key_range: 4,
                violation: true,
                seed,
            });
            let r = analyze::<Csst>(&trace, &LinCfg::default());
            match r.verdict {
                LinVerdict::Violation(rc) => {
                    found += 1;
                    total_deleted += r.deleted;
                    assert!(rc.executed < operations(&trace).len());
                }
                LinVerdict::Linearizable(_) => {
                    // A flipped result can occasionally still be
                    // explainable; that is fine for some seeds.
                }
                LinVerdict::Unknown => panic!("budget exhausted on tiny history"),
            }
        }
        assert!(found >= 3, "most corrupted histories must be violations");
        assert!(
            total_deleted > 0,
            "backtracking across the violating seeds must delete edges"
        );
    }

    #[test]
    fn graph_and_csst_agree() {
        for seed in 0..4 {
            let trace = object_history(&ObjectHistoryCfg {
                threads: 3,
                ops_per_thread: 10,
                key_range: 3,
                violation: seed % 2 == 0,
                seed,
            });
            let cfg = LinCfg::default();
            let a = analyze::<Csst>(&trace, &cfg);
            let b = analyze::<GraphIndex>(&trace, &cfg);
            assert_eq!(a.verdict, b.verdict, "seed {seed}");
            assert_eq!(a.steps, b.steps, "identical search paths");
            assert_eq!(a.inserted, b.inserted);
            assert_eq!(a.deleted, b.deleted);
        }
    }

    #[test]
    #[should_panic(expected = "fully dynamic")]
    fn incremental_index_rejected() {
        let trace = object_history(&ObjectHistoryCfg::default());
        let _ = analyze::<csst_core::IncrementalCsst>(&trace, &LinCfg::default());
    }
}
