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
///   all; the builder only assigns global [`NodeId`]s, tracks the
///   window boundary and counts the edges the analysis inserts through
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
/// edge and keeps its chain lengths
/// ([`PartialOrderIndex::clear_edges`]), the buffered event bodies are
/// dropped, and the per-thread retirement offsets advance. Earlier
/// windows' edges went at their own retirement, so the index holds
/// only the current window's edges and the reset drops exactly those.
/// Retirement therefore needs no [`PartialOrderIndex::delete_edge`],
/// and insert-only indexes can be windowed. Peak buffered events never
/// exceed `n`, and the index's edge set only ever spans one window.
/// Events keep their *global* ids — chains grow monotonically — so
/// reports from different windows are directly comparable.
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
    /// buffered local event `⟨t, i⟩` is `⟨t, retired[t] + i⟩`.
    retired: Vec<Pos>,
    window: Option<usize>,
    /// Events fed since the last retirement.
    in_window: usize,
    observation: bool,
    store_events: bool,
    /// Latest plain write per variable (global id), for online rf.
    last_write: HashMap<VarId, NodeId>,
    /// Fork events whose child has not produced an event yet.
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

    /// Builder that stores no event bodies: it only assigns global ids,
    /// tracks the window boundary and counts edges.
    pub fn counting(window: Option<usize>) -> Self {
        Self::with_modes(window, false, false)
    }

    /// The configured window size.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Feeds one event: assigns its global id, appends it to the
    /// buffer (unless counting), grows the index's witnessed domain,
    /// and — in observation mode — inserts the fork/join and
    /// reads-from edges it induces.
    pub fn feed(&mut self, thread: ThreadId, event: EventKind) -> NodeId {
        if thread.index() >= self.counts.len() {
            self.counts.resize(thread.index() + 1, 0);
        }
        let id = NodeId::new(thread, self.counts[thread.index()]);
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
        // A chain's first *live* event resolves the forks waiting for
        // it (in the current window, a chain restarts at its retirement
        // offset). All resolved edges target `id` — a fresh event with
        // no outgoing order yet — so they are filtered against the
        // current order plus the batch itself (exactly what sequential
        // `require_order` calls would see) and inserted through the
        // batched [`PartialOrderIndex::insert_edges`] path.
        if id.pos == self.retired.get(id.thread.index()).copied().unwrap_or(0) {
            let forks = self.pending_forks.remove(&id.thread).unwrap_or_default();
            if !forks.is_empty() {
                let mut batch: Vec<(NodeId, NodeId)> = Vec::with_capacity(forks.len());
                for fork in forks {
                    if !self.live(fork) {
                        continue;
                    }
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
        }
        match event {
            EventKind::Write { var, .. } => {
                self.last_write.insert(var, id);
            }
            EventKind::Read { var, .. } => {
                if let Some(&w) = self.last_write.get(&var) {
                    if self.live(w) && self.log_require(w, id) == OrderOutcome::Inserted {
                        self.base_inserted += 1;
                    }
                }
            }
            EventKind::Fork { child } if child != id.thread => {
                // The fork precedes the child's first event *of this
                // window* — exactly the edge per-window batch analysis
                // derives from the window's sub-trace.
                let live_start = self.retired.get(child.index()).copied().unwrap_or(0);
                if self.counts.get(child.index()).copied().unwrap_or(0) > live_start {
                    self.log_require(id, NodeId::new(child, live_start));
                } else {
                    self.pending_forks.entry(child).or_default().push(id);
                }
            }
            EventKind::Join { child } if child != id.thread => {
                let len = self.counts.get(child.index()).copied().unwrap_or(0);
                if len > 0 {
                    let last = NodeId::new(child, len - 1);
                    if self.live(last) {
                        self.log_require(last, id);
                    }
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

    /// Enforces `from → to` in the base order (global ids), counting the
    /// edge for retirement if it was inserted. The entry point for
    /// analyses that maintain their own edge structure.
    pub fn require_logged(&mut self, from: NodeId, to: NodeId) -> OrderOutcome {
        self.log_require(from, to)
    }

    /// Inserts `from → to` unconditionally (global ids), counting it for
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

    /// Inserts `from → to` unless it would close a cycle (global ids),
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

    /// Inserts a batch of edges (global ids) through the amortized
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

    /// `true` once the current window holds `window` events — time to
    /// run the per-window core and [`retire_window`](Self::retire_window).
    pub fn window_full(&self) -> bool {
        self.window.is_some_and(|n| self.in_window >= n)
    }

    /// Retires the current window: drops every edge of the base order
    /// ([`PartialOrderIndex::clear_edges`]), drops the buffered event
    /// bodies and advances the retirement offsets.
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

    /// `true` if the (global) event id has not been retired.
    pub fn live(&self, id: NodeId) -> bool {
        id.pos >= self.retired.get(id.thread.index()).copied().unwrap_or(0)
    }

    /// Translates a window-local id (as used by the buffered trace) to
    /// the event's global id.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        NodeId::new(
            local.thread,
            local.pos + self.retired.get(local.thread.index()).copied().unwrap_or(0),
        )
    }

    /// The window-local buffered trace (empty in counting mode).
    pub fn buffered(&self) -> &Trace {
        &self.buf
    }

    /// Splits the builder into the buffered window trace and a
    /// [`WindowIndex`] over the base order, so per-window cores can
    /// keep working entirely in window-local coordinates.
    pub fn split(&mut self) -> (&Trace, WindowIndex<'_, P>) {
        (
            &self.buf,
            WindowIndex {
                po: &mut self.po,
                retired: &self.retired,
                window_edges: &mut self.window_edges,
            },
        )
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

    /// The base order (global coordinates).
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

/// A window-local view of a [`BaseOrderBuilder`]'s base order: every
/// operation translates positions by the per-thread retirement offsets,
/// so analysis cores written against window-local event ids (the ids of
/// the buffered trace) can query — and, for saturation, extend — the
/// incrementally built base order directly. Edges inserted through the
/// view are counted for retirement like any other window edge.
#[derive(Debug)]
pub struct WindowIndex<'a, P> {
    po: &'a mut P,
    retired: &'a [Pos],
    window_edges: &'a mut usize,
}

impl<P: PartialOrderIndex> WindowIndex<'_, P> {
    fn offset(&self, chain: ThreadId) -> Pos {
        self.retired.get(chain.index()).copied().unwrap_or(0)
    }

    /// Translates a window-local id to the event's global id.
    pub fn to_global(&self, id: NodeId) -> NodeId {
        NodeId::new(id.thread, id.pos + self.offset(id.thread))
    }
}

impl<P: PartialOrderIndex> PartialOrderIndex for WindowIndex<'_, P> {
    fn new() -> Self {
        panic!("WindowIndex views a BaseOrderBuilder; obtain one via BaseOrderBuilder::split")
    }

    fn name(&self) -> &'static str {
        self.po.name()
    }

    fn chains(&self) -> usize {
        self.po.chains()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.po
            .chain_len(chain)
            .saturating_sub(self.offset(chain) as usize)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        self.po.ensure_chain(chain);
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.po.ensure_len(chain, len + self.offset(chain) as usize);
    }

    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        *self.window_edges += 1;
        self.po
            .insert_edge_raw(self.to_global(from), self.to_global(to));
    }

    fn delete_edge_raw(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.po
            .delete_edge_raw(self.to_global(from), self.to_global(to))?;
        *self.window_edges -= 1;
        Ok(())
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from.thread == to.thread {
            return from.pos <= to.pos;
        }
        self.po.reachable(self.to_global(from), self.to_global(to))
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let p = self.po.successor(self.to_global(from), chain)?;
        let off = self.offset(chain);
        // A pre-window answer names a retired event the view cannot
        // represent; report "no in-window successor" instead of
        // clamping to local position 0 (which would alias a live
        // event). Stale base-order edges can produce these in release
        // builds where the old `debug_assert` compiled away.
        if p < off {
            return None;
        }
        Some(p - off)
    }

    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let p = self.po.predecessor(self.to_global(from), chain)?;
        let off = self.offset(chain);
        // Same retired-position guard as `successor`: clamping a
        // pre-window predecessor to 0 would fabricate an ordering from
        // a live event that does not have one.
        if p < off {
            return None;
        }
        Some(p - off)
    }

    fn reachable_batch(&self, probes: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        out.clear();
        out.resize(probes.len(), false);
        let mut fwd = Vec::with_capacity(probes.len());
        let mut idx = Vec::with_capacity(probes.len());
        for (i, &(from, to)) in probes.iter().enumerate() {
            if from.thread == to.thread {
                out[i] = from.pos <= to.pos;
            } else {
                fwd.push((self.to_global(from), self.to_global(to)));
                idx.push(i);
            }
        }
        let mut inner = Vec::new();
        self.po.reachable_batch(&fwd, &mut inner);
        for (&i, v) in idx.iter().zip(inner) {
            out[i] = v;
        }
    }

    fn successor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        let fwd: Vec<(NodeId, ThreadId)> = probes
            .iter()
            .map(|&(from, chain)| (self.to_global(from), chain))
            .collect();
        self.po.successor_batch(&fwd, out);
        for (o, &(_, chain)) in out.iter_mut().zip(probes) {
            let off = self.offset(chain);
            *o = o.filter(|&p| p >= off).map(|p| p - off);
        }
    }

    fn predecessor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        let fwd: Vec<(NodeId, ThreadId)> = probes
            .iter()
            .map(|&(from, chain)| (self.to_global(from), chain))
            .collect();
        self.po.predecessor_batch(&fwd, out);
        for (o, &(_, chain)) in out.iter_mut().zip(probes) {
            let off = self.offset(chain);
            *o = o.filter(|&p| p >= off).map(|p| p - off);
        }
    }

    fn supports_deletion(&self) -> bool {
        self.po.supports_deletion()
    }

    fn memory_bytes(&self) -> usize {
        self.po.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{Csst, GraphIndex, IncrementalCsst};
    use csst_trace::TraceBuilder;

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
                assert_eq!(po.chain_len(a), builder.counts[a.index()] as usize);
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

    #[test]
    fn window_index_hides_retired_answers() {
        // Global picture: chain 0's first 3 positions are retired;
        // stale base-order edges still land on them.
        let mut po = Csst::with_capacity(2, 16);
        po.insert_edge(NodeId::new(0, 1), NodeId::new(1, 5))
            .unwrap(); // both ends pre-window on chain 0
        po.insert_edge(NodeId::new(1, 2), NodeId::new(0, 3))
            .unwrap(); // lands exactly on the boundary
        let retired = vec![3, 0];
        let mut edges = 0;
        let win = WindowIndex {
            po: &mut po,
            retired: &retired,
            window_edges: &mut edges,
        };
        // The latest chain-0 predecessor of ⟨1,5⟩ is the retired ⟨0,1⟩:
        // the view must report None, not clamp to live local 0.
        assert_eq!(win.predecessor(NodeId::new(1, 5), ThreadId(0)), None);
        // The earliest chain-0 successor of ⟨1,2⟩ is global 3 == the
        // offset: first live position, local 0.
        assert_eq!(win.successor(NodeId::new(1, 2), ThreadId(0)), Some(0));
        // Batched answers agree with the sequential ones, including the
        // retired→None translation.
        let node_probes = [
            (NodeId::new(1, 5), ThreadId(0)),
            (NodeId::new(1, 2), ThreadId(0)),
            (NodeId::new(1, 1), ThreadId(1)),
        ];
        let (mut s, mut p) = (vec![], vec![]);
        win.successor_batch(&node_probes, &mut s);
        win.predecessor_batch(&node_probes, &mut p);
        for (i, &(u, c)) in node_probes.iter().enumerate() {
            assert_eq!(s[i], win.successor(u, c), "successor probe {i}");
            assert_eq!(p[i], win.predecessor(u, c), "predecessor probe {i}");
        }
        let reach_probes = [
            (NodeId::new(1, 2), NodeId::new(0, 0)),
            (NodeId::new(0, 0), NodeId::new(1, 5)),
            (NodeId::new(1, 1), NodeId::new(1, 4)),
        ];
        let mut r = vec![];
        win.reachable_batch(&reach_probes, &mut r);
        for (i, &(u, v)) in reach_probes.iter().enumerate() {
            assert_eq!(r[i], win.reachable(u, v), "reachable probe {i}");
        }
    }
}
