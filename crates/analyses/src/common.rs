//! Shared infrastructure for the analyses: streaming base-order
//! construction, windowed retirement, and ordering primitives.
//!
//! The centerpiece is [`BaseOrderBuilder`], the component every
//! predictive analysis embeds to grow its *base order* incrementally
//! while events are [fed](crate::Analysis::feed), and to bound its
//! event buffer with a tumbling window whose retirement resets the
//! base order to a fresh index.

use csst_core::{NodeId, PartialOrderIndex, PoError, Pos, ThreadId};
use csst_trace::{EventKind, Trace, VarId};
use std::collections::HashMap;

/// Outcome of [`require_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderOutcome {
    /// The ordering already held (or is implied by program order).
    AlreadyOrdered,
    /// A new edge was inserted.
    Inserted,
    /// The ordering contradicts the current partial order (a cycle):
    /// the constraint set is infeasible.
    Contradiction,
}

/// Enforces `from → to` in `po`, classifying the result. This is the
/// primitive all saturation rules are built from.
pub fn require_order<P: PartialOrderIndex>(po: &mut P, from: NodeId, to: NodeId) -> OrderOutcome {
    if from.thread == to.thread {
        return if from.pos <= to.pos {
            OrderOutcome::AlreadyOrdered
        } else {
            OrderOutcome::Contradiction
        };
    }
    if po.reachable(from, to) {
        return OrderOutcome::AlreadyOrdered;
    }
    match po.insert_edge_checked(from, to) {
        Ok(()) => OrderOutcome::Inserted,
        Err(PoError::WouldCycle { .. }) => OrderOutcome::Contradiction,
        Err(e) => panic!("unexpected partial-order error: {e}"),
    }
}

/// Counters describing one streaming run of a windowed analysis.
///
/// Unwindowed runs keep `windows`, `retired_events` and `deleted_edges`
/// at zero; `peak_buffered` then equals the total stream length for
/// buffering analyses (and zero for genuinely online ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Completed windows retired so far.
    pub windows: usize,
    /// Peak number of simultaneously buffered events.
    pub peak_buffered: usize,
    /// Events whose buffered bodies were dropped by retirement.
    pub retired_events: usize,
    /// Edges the base order held when its windows were retired (each
    /// retirement drops them all by resetting the index).
    pub deleted_edges: usize,
}

/// Streaming builder of an analysis's *base order*: a growable
/// partial-order index that is extended one event at a time inside
/// [`Analysis::feed`](crate::Analysis::feed), plus the bounded-memory
/// windowing layer shared by all seven predictive analyses.
///
/// # Modes
///
/// * [`observing`](Self::observing) — the builder buffers events and
///   inserts the *observation* edges (fork → the child's first event,
///   the child's last event → join, and each read's latest write →
///   the read) online as events arrive. Used by `race`, `deadlock`,
///   `membug` and `uaf`.
/// * [`counting`](Self::counting) — no event bodies are stored at
///   all; the builder only assigns ids, tracks the window boundary and
///   counts the edges the analysis inserts through
///   [`require_logged`](Self::require_logged) /
///   [`insert_logged`](Self::insert_logged). Used by the genuinely
///   online `c11` and by `tso` and `linearizability`, which buffer
///   their own derived tables (loads/commits, completed operations)
///   instead of raw events, reporting them via
///   [`note_buffered`](Self::note_buffered).
///
/// # Windowing
///
/// With `window = Some(n)` the stream is cut into consecutive
/// *tumbling* windows of `n` events. When a window fills, the analysis
/// runs its per-window core over the buffered events and then calls
/// [`retire_window`](Self::retire_window): the base order drops every
/// edge ([`PartialOrderIndex::clear_edges`]), the buffered event bodies
/// are dropped, and the per-thread retirement offsets advance.
///
/// The index speaks **window-local** ids, the ids of the buffered
/// trace: [`feed`](Self::feed) returns the event's local id, and every
/// `*_logged` method takes local ids. A thread's positions restart at 0
/// in each window, so no chain of the index grows longer than `n`, and
/// the index's memory is bounded by the window on every
/// representation. State that outlives a retirement (the builder's
/// latest writes and pending forks, an analysis's cross-window tables,
/// every report) keeps *global* ids: [`to_global`](Self::to_global)
/// maps a local id out, and [`local`](Self::local) maps a global id
/// back in, or to `None` once its window is retired.
///
/// Constraints that would span a window boundary (a read observing a
/// retired writer, a fork/join edge to a retired event) are dropped:
/// each window is analyzed as an independent execution. See the
/// [`Analysis`](crate::Analysis) docs for the resulting soundness
/// contract.
#[derive(Debug)]
pub struct BaseOrderBuilder<P> {
    po: P,
    /// Window-local buffered events (empty in counting mode).
    buf: Trace,
    /// Global number of events fed per thread.
    counts: Vec<Pos>,
    /// Global number of retired events per thread; the global id of
    /// local event `⟨t, i⟩` is `⟨t, retired[t] + i⟩`.
    retired: Vec<Pos>,
    window: Option<usize>,
    /// Events fed since the last retirement.
    in_window: usize,
    observation: bool,
    store_events: bool,
    /// Latest plain write per variable (global id), for online rf.
    last_write: HashMap<VarId, NodeId>,
    /// Fork events (global ids) whose child has not produced an event
    /// yet.
    pending_forks: HashMap<ThreadId, Vec<NodeId>>,
    /// Edges inserted for the current window, dropped at retirement.
    window_edges: usize,
    /// Reads-from edges actually inserted (the base-order statistic
    /// the predictive reports expose).
    base_inserted: usize,
    stats: WindowStats,
}

impl<P: PartialOrderIndex> BaseOrderBuilder<P> {
    fn with_modes(window: Option<usize>, observation: bool, store_events: bool) -> Self {
        BaseOrderBuilder {
            po: P::new(),
            buf: Trace::new(0),
            counts: Vec::new(),
            retired: Vec::new(),
            window: window.map(|n| n.max(1)),
            in_window: 0,
            observation,
            store_events,
            last_write: HashMap::new(),
            pending_forks: HashMap::new(),
            window_edges: 0,
            base_inserted: 0,
            stats: WindowStats::default(),
        }
    }

    /// Builder that buffers events and maintains the observation order
    /// (fork/join + reads-from) online.
    pub fn observing(window: Option<usize>) -> Self {
        Self::with_modes(window, true, true)
    }

    /// Builder that stores no event bodies: it only assigns ids, tracks
    /// the window boundary and counts edges.
    pub fn counting(window: Option<usize>) -> Self {
        Self::with_modes(window, false, false)
    }

    /// The configured window size.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Feeds one event and returns its window-local id: appends it to
    /// the buffer (unless counting), grows the index's witnessed
    /// domain, and — in observation mode — inserts the fork/join and
    /// reads-from edges it induces.
    pub fn feed(&mut self, thread: ThreadId, event: EventKind) -> NodeId {
        if thread.index() >= self.counts.len() {
            self.counts.resize(thread.index() + 1, 0);
        }
        let id = NodeId::new(thread, self.counts[thread.index()] - self.offset(thread));
        self.counts[thread.index()] += 1;
        if self.store_events {
            self.buf.push(thread, event);
        }
        self.in_window += 1;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buf.total_events());
        if self.observation {
            self.po.ensure_len(thread, id.pos as usize + 1);
            self.observe(id, event);
        }
        id
    }

    fn observe(&mut self, id: NodeId, event: EventKind) {
        // A chain's first event of the window resolves the forks
        // waiting for it. All resolved edges target `id` — a fresh
        // event with no outgoing order yet — so they are filtered
        // against the current order plus the batch itself (exactly what
        // sequential `require_order` calls would see) and inserted
        // through the batched [`PartialOrderIndex::insert_edges`] path.
        if id.pos == 0 {
            let forks = self.pending_forks.remove(&id.thread).unwrap_or_default();
            let mut batch: Vec<(NodeId, NodeId)> = Vec::with_capacity(forks.len());
            for fork in forks.into_iter().filter_map(|f| self.local(f)) {
                let ordered = self.po.reachable(fork, id)
                    || batch.iter().any(|&(f, _)| self.po.reachable(fork, f));
                if !ordered {
                    batch.push((fork, id));
                }
            }
            if !batch.is_empty() {
                self.insert_batch_logged(&batch)
                    .expect("pending fork edges are valid");
            }
        }
        match event {
            EventKind::Write { var, .. } => {
                self.last_write.insert(var, self.to_global(id));
            }
            EventKind::Read { var, .. } => {
                if let Some(w) = self.last_write.get(&var).and_then(|&w| self.local(w)) {
                    if self.log_require(w, id) == OrderOutcome::Inserted {
                        self.base_inserted += 1;
                    }
                }
            }
            EventKind::Fork { child } if child != id.thread => {
                // The fork precedes the child's first event *of this
                // window* — exactly the edge per-window batch analysis
                // derives from the window's sub-trace.
                if self.counts.get(child.index()).copied().unwrap_or(0) > self.offset(child) {
                    self.log_require(id, NodeId::new(child, 0));
                } else {
                    let fork = self.to_global(id);
                    self.pending_forks.entry(child).or_default().push(fork);
                }
            }
            EventKind::Join { child } if child != id.thread => {
                let len = self.counts.get(child.index()).copied().unwrap_or(0);
                if let Some(last) = len
                    .checked_sub(1)
                    .and_then(|p| self.local(NodeId::new(child, p)))
                {
                    self.log_require(last, id);
                }
            }
            _ => {}
        }
    }

    fn log_require(&mut self, from: NodeId, to: NodeId) -> OrderOutcome {
        let out = require_order(&mut self.po, from, to);
        if out == OrderOutcome::Inserted {
            self.window_edges += 1;
        }
        out
    }

    /// Enforces `from → to` in the base order (local ids), counting the
    /// edge for retirement if it was inserted. The entry point for
    /// analyses that maintain their own edge structure.
    pub fn require_logged(&mut self, from: NodeId, to: NodeId) -> OrderOutcome {
        self.log_require(from, to)
    }

    /// Inserts `from → to` unconditionally (local ids), counting it for
    /// retirement.
    ///
    /// # Errors
    ///
    /// Propagates [`PartialOrderIndex::insert_edge`] validation errors.
    pub fn insert_logged(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.po.insert_edge(from, to)?;
        self.window_edges += 1;
        Ok(())
    }

    /// Inserts `from → to` unless it would close a cycle (local ids),
    /// counting it for retirement.
    ///
    /// # Errors
    ///
    /// Propagates [`PartialOrderIndex::insert_edge_checked`] errors.
    pub fn insert_logged_checked(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.po.insert_edge_checked(from, to)?;
        self.window_edges += 1;
        Ok(())
    }

    /// Inserts a batch of edges (local ids) through the amortized
    /// [`PartialOrderIndex::insert_edges`] path, counting every edge for
    /// retirement. The batch is applied atomically: on a validation
    /// error nothing is inserted or counted.
    ///
    /// Like `insert_edges`, there is no cycle check — callers batch
    /// edge sets that are acyclic by construction (e.g. all edges
    /// targeting a freshly created event).
    ///
    /// # Errors
    ///
    /// Propagates [`PartialOrderIndex::insert_edges`] validation
    /// errors.
    pub fn insert_batch_logged(&mut self, edges: &[(NodeId, NodeId)]) -> Result<(), PoError> {
        self.po.insert_edges(edges)?;
        self.window_edges += edges.len();
        Ok(())
    }

    /// Counts `edges` inserted directly into the index (through
    /// [`split`](Self::split) or [`po_mut`](Self::po_mut)) for
    /// retirement.
    pub fn note_inserted(&mut self, edges: usize) {
        self.window_edges += edges;
    }

    /// `true` once the current window holds `window` events — time to
    /// run the per-window core and [`retire_window`](Self::retire_window).
    pub fn window_full(&self) -> bool {
        self.window.is_some_and(|n| self.in_window >= n)
    }

    /// Retires the current window: drops every edge of the base order
    /// ([`PartialOrderIndex::clear_edges`]), drops the buffered event
    /// bodies and advances the retirement offsets, so the next window's
    /// local positions restart at 0.
    pub fn retire_window(&mut self) {
        self.stats.deleted_edges += std::mem::take(&mut self.window_edges);
        self.po.clear_edges();
        self.stats.windows += 1;
        self.stats.retired_events += self.in_window;
        self.in_window = 0;
        self.retired.clear();
        self.retired.extend_from_slice(&self.counts);
        if self.store_events {
            self.buf = Trace::new(self.buf.num_threads());
        }
    }

    /// Number of retired events of `thread`: its local positions start
    /// here.
    fn offset(&self, thread: ThreadId) -> Pos {
        self.retired.get(thread.index()).copied().unwrap_or(0)
    }

    /// The window-local id of a global event id, `None` once the event
    /// is retired.
    pub fn local(&self, global: NodeId) -> Option<NodeId> {
        let pos = global.pos.checked_sub(self.offset(global.thread))?;
        Some(NodeId::new(global.thread, pos))
    }

    /// Translates a window-local id (as used by the buffered trace and
    /// the index) to the event's global id.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        NodeId::new(local.thread, local.pos + self.offset(local.thread))
    }

    /// The window-local buffered trace (empty in counting mode).
    pub fn buffered(&self) -> &Trace {
        &self.buf
    }

    /// Splits the builder into the buffered window trace and the base
    /// order, both in window-local ids, for per-window cores that
    /// extend the order. Count their inserts with
    /// [`note_inserted`](Self::note_inserted).
    pub fn split(&mut self) -> (&Trace, &mut P) {
        (&self.buf, &mut self.po)
    }

    /// Records analysis-private buffering (e.g. pending operations)
    /// into [`WindowStats::peak_buffered`].
    pub fn note_buffered(&mut self, buffered: usize) {
        self.stats.peak_buffered = self.stats.peak_buffered.max(buffered);
    }

    /// Reads-from edges inserted into the base order so far.
    pub fn base_inserted(&self) -> usize {
        self.base_inserted
    }

    /// The streaming counters accumulated so far.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// The base order (window-local ids).
    pub fn po(&self) -> &P {
        &self.po
    }

    /// Mutable access to the base order for queries and *unlogged*
    /// structural growth. Edges inserted through this reference are
    /// not counted, but retirement drops them like any other; analyses
    /// use the `*_logged` methods for a window's edges.
    pub fn po_mut(&mut self) -> &mut P {
        &mut self.po
    }

    /// Consumes the builder, returning the base order.
    pub fn into_po(self) -> P {
        self.po
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{Csst, GraphIndex, IncrementalCsst};
    use csst_trace::{gen, TraceBuilder};

    #[test]
    fn require_order_classification() {
        let mut po = Csst::new();
        let u = NodeId::new(0, 1);
        let v = NodeId::new(1, 2);
        assert_eq!(require_order(&mut po, u, v), OrderOutcome::Inserted);
        assert_eq!(require_order(&mut po, u, v), OrderOutcome::AlreadyOrdered);
        assert_eq!(
            require_order(&mut po, v, u),
            OrderOutcome::Contradiction,
            "reverse edge closes a cycle"
        );
        // Same-chain cases.
        assert_eq!(
            require_order(&mut po, NodeId::new(0, 1), NodeId::new(0, 5)),
            OrderOutcome::AlreadyOrdered
        );
        assert_eq!(
            require_order(&mut po, NodeId::new(0, 5), NodeId::new(0, 1)),
            OrderOutcome::Contradiction
        );
    }

    #[test]
    fn fork_join_structure() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).fork(1);
        b.on(1).write(x, 1);
        b.on(1).write(x, 2);
        b.on(0).join(1);
        let mut builder = BaseOrderBuilder::<IncrementalCsst>::observing(None);
        for (id, ev) in b.build().iter_order() {
            builder.feed(id.thread, ev.kind);
        }
        let po = builder.po();
        // fork (0,0) → first of child (1,0); last of child (1,1) → join (0,1).
        assert!(po.reachable(NodeId::new(0, 0), NodeId::new(1, 1)));
        assert!(po.reachable(NodeId::new(1, 0), NodeId::new(0, 1)));
        assert!(!po.reachable(NodeId::new(0, 1), NodeId::new(1, 0)));
    }

    #[test]
    fn retirement_resets_an_insert_only_base_order() {
        // The first trace adds at most one base-order edge per window; the
        // second, with two unlocked variables, several.
        let sparse = csst_trace::gen::RacyProgramCfg {
            threads: 4,
            events_per_thread: 80,
            shared_frac: 0.6,
            ..Default::default()
        };
        let dense = csst_trace::gen::RacyProgramCfg {
            vars: 2,
            lock_frac: 0.0,
            ..sparse.clone()
        };
        for cfg in [sparse, dense] {
            let trace = csst_trace::gen::racy_program(&cfg);
            retirement_resets_the_base_order::<IncrementalCsst>(&trace);
            retirement_resets_the_base_order::<Csst>(&trace);
        }
    }

    /// Checks every cross-chain `successor`, `predecessor` and
    /// `reachable` of `po`'s witnessed nodes against `other`.
    fn assert_same_answers(po: &impl PartialOrderIndex, other: &impl PartialOrderIndex) {
        for a in (0..po.chains() as u32).map(ThreadId) {
            for u in (0..po.chain_len(a) as u32).map(|i| NodeId::new(a, i)) {
                for b in (0..po.chains() as u32).map(ThreadId).filter(|&b| b != a) {
                    assert_eq!(po.successor(u, b), other.successor(u, b), "{u} → {b:?}");
                    assert_eq!(po.predecessor(u, b), other.predecessor(u, b));
                    for v in (0..po.chain_len(b) as u32).map(|i| NodeId::new(b, i)) {
                        assert_eq!(po.reachable(u, v), other.reachable(u, v), "{u} → {v}");
                    }
                }
            }
        }
    }

    /// After every retirement the base order answers like a fresh index
    /// grown to the same chain lengths. Once per window, after the next
    /// window's first inserts, it also answers like a `GraphIndex` base
    /// order fed the same stream: right after a retirement an emptied
    /// adjacency can hide arrays the reset missed, but the new inserts
    /// expose them.
    fn retirement_resets_the_base_order<P: PartialOrderIndex>(trace: &csst_trace::Trace) {
        let mut builder = BaseOrderBuilder::<P>::observing(Some(37));
        let mut oracle = BaseOrderBuilder::<GraphIndex>::observing(Some(37));
        let (mut checked, mut compared) = (0, 0);
        let mut compare_next = false;
        for (id, ev) in trace.iter_order() {
            builder.feed(id.thread, ev.kind);
            oracle.feed(id.thread, ev.kind);
            if compare_next && builder.window_edges > 0 {
                compare_next = false;
                compared += 1;
                assert_same_answers(builder.po(), oracle.po());
            }
            if !builder.window_full() {
                continue;
            }
            builder.retire_window();
            oracle.retire_window();
            checked += 1;
            compare_next = true;
            let po = builder.po();
            for a in (0..po.chains() as u32).map(ThreadId) {
                assert!(po.chain_len(a) <= 37, "chain {a:?} outgrew the window");
            }
            assert_same_answers(po, &P::new());
        }
        assert_eq!(checked, builder.stats().windows);
        assert!(checked >= 8 && builder.stats().deleted_edges > 0);
        assert!(
            compared >= 3,
            "only {compared} of {checked} windows compared"
        );
    }

    /// Retirement counts every edge the base order held, including the
    /// ones uaf's saturation inserts straight into the index. The
    /// expected counters were recorded before the base order moved to
    /// window-local ids.
    #[test]
    fn windowed_stats_are_pinned() {
        let seed = 11;
        let window = Some(37);
        let alloc = gen::alloc_program(&gen::AllocProgramCfg {
            threads: 4,
            objects: 40,
            protected_frac: 0.8,
            confined_frac: 0.1,
            remote_free_frac: 0.5,
            seed,
            ..Default::default()
        });
        let racy = gen::racy_program(&gen::RacyProgramCfg {
            threads: 4,
            events_per_thread: 80,
            vars: 2,
            shared_frac: 0.6,
            seed,
            ..Default::default()
        });
        let history = gen::tso_history(&gen::TsoCfg {
            threads: 4,
            events_per_thread: 80,
            vars: 3,
            seed,
            ..Default::default()
        });
        let stats = |windows, retired_events, deleted_edges| WindowStats {
            windows,
            peak_buffered: 37,
            retired_events,
            deleted_edges,
        };
        let uaf_cfg = crate::uaf::UafCfg {
            window,
            ..Default::default()
        };
        let uaf = crate::uaf::generate::<IncrementalCsst>(&alloc, &uaf_cfg);
        assert_eq!(uaf.window, stats(20, 740, 25), "uaf");
        let race_cfg = crate::race::RaceCfg {
            window,
            ..Default::default()
        };
        let race = crate::race::predict::<IncrementalCsst>(&racy, &race_cfg);
        assert_eq!(race.window, stats(8, 296, 28), "race");
        let tso_cfg = crate::tso::TsoCheckCfg {
            window,
            ..Default::default()
        };
        let tso = crate::tso::check::<IncrementalCsst>(&history, &tso_cfg);
        assert_eq!(tso.window, stats(8, 296, 180), "tso");
    }
}
