//! Streaming happens-before race detection (FastTrack-style).
//!
//! Not one of the paper's seven evaluated analyses, but its explicit
//! *counterpoint* (§1): "in the streaming setting, Vector Clocks are
//! arguably the best data structure to represent a partial order."
//! Here every ordering targets the event currently being processed —
//! release-to-acquire edges per lock, fork/join edges — so insertions
//! never propagate and `O(1)` VC queries shine.
//!
//! [`HbDetector`] is *genuinely* streaming: it holds no event buffer.
//! Each [`feed`](crate::Analysis::feed) appends the event to a growable
//! [`PartialOrderIndex`] (via [`PartialOrderIndex::append`]), inserts
//! the synchronization edges it induces, and checks conflicting
//! accesses immediately — memory tracks the synchronization structure,
//! not the trace length, so it can serve an unbounded live stream.
//!
//! Running this module over the same traces as [`crate::race`] shows
//! the two regimes side by side: sound-but-incomplete streaming HB
//! detection (only races adjacent in the synchronization order) versus
//! predictive reordering with per-candidate closures.
//!
//! **Classification:** genuinely online. *Detects* happens-before
//! races between conflicting accesses adjacent in the synchronization
//! order. *Base order:* happens-before from lock and fork/join
//! synchronization, built online per event — no event is ever
//! buffered, so windowing does not apply.
//!
//! ```
//! use csst_analyses::hb;
//! use csst_core::VectorClockIndex;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.on(0).write(x, 1);
//! b.on(1).write(x, 2);
//! let report = hb::detect::<VectorClockIndex>(&b.build());
//! assert_eq!(report.races.len(), 1);
//! ```

use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, LockId, Trace, VarId};
use std::collections::HashMap;

/// Result of a streaming HB pass.
#[derive(Debug, Clone)]
pub struct HbReport<P> {
    /// The final happens-before order.
    pub hb: P,
    /// HB-races: conflicting plain accesses unordered at detection
    /// time.
    pub races: Vec<(NodeId, NodeId)>,
    /// Synchronization edges inserted (all targeting the current
    /// event: the streaming pattern).
    pub sync_edges: usize,
}

/// Derives the synchronization edges a streamed event induces, with no
/// index attached: event-id assignment (one append per event), lock
/// release→acquire matching, and fork/join resolution are pure
/// bookkeeping over per-thread counters.
///
/// [`HbDetector`] runs one of these in front of its index.
#[derive(Debug, Default)]
pub struct SyncTracker {
    /// Events seen so far per thread (the next event's position),
    /// indexed by thread id (grown on demand; decoders bound thread
    /// ids by `MAX_CHAINS`).
    counts: Vec<u32>,
    last_release: HashMap<LockId, NodeId>,
    /// Fork events whose child has not produced an event yet: the
    /// fork→first-event edge is emitted when (and if) the child
    /// starts, mirroring the batch rule "fork edges only into
    /// non-empty chains".
    pending_forks: HashMap<ThreadId, Vec<NodeId>>,
}

impl SyncTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        SyncTracker::default()
    }

    /// Assigns the next [`NodeId`] for an event of `thread` and appends
    /// the synchronization edges it induces to `edges`: pending-fork
    /// edges into a freshly started chain first, then the event's own
    /// edge (release→acquire, fork→first, last→join), matching the
    /// online detector's insertion order. Guards (`child != thread`,
    /// cross-thread release) replicate [`HbDetector`] exactly.
    pub fn feed(
        &mut self,
        thread: ThreadId,
        event: &EventKind,
        edges: &mut Vec<(NodeId, NodeId)>,
    ) -> NodeId {
        if thread.index() >= self.counts.len() {
            self.counts.resize(thread.index() + 1, 0);
        }
        let id = NodeId::new(thread, self.counts[thread.index()]);
        self.counts[thread.index()] += 1;
        // A freshly started chain resolves the forks waiting for it.
        if id.pos == 0 {
            for fork in self.pending_forks.remove(&thread).unwrap_or_default() {
                edges.push((fork, id));
            }
        }
        match *event {
            EventKind::Acquire { lock } => {
                if let Some(rel) = self.last_release.get(&lock) {
                    if rel.thread != thread {
                        edges.push((*rel, id));
                    }
                }
            }
            EventKind::Release { lock } => {
                self.last_release.insert(lock, id);
            }
            EventKind::Fork { child } if child != thread => {
                let started = self.chain_len(child);
                if started > 0 {
                    edges.push((id, NodeId::new(child, 0)));
                } else {
                    self.pending_forks.entry(child).or_default().push(id);
                }
            }
            EventKind::Join { child } => {
                let len = self.chain_len(child);
                if child != thread && len > 0 {
                    edges.push((NodeId::new(child, len - 1), id));
                }
            }
            _ => {}
        }
        id
    }

    /// Events `thread` has produced so far.
    fn chain_len(&self, thread: ThreadId) -> u32 {
        self.counts.get(thread.index()).copied().unwrap_or(0)
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.counts.capacity() * size_of::<u32>()
            + self.last_release.capacity() * size_of::<(LockId, NodeId)>()
            + self.pending_forks.capacity() * size_of::<(ThreadId, Vec<NodeId>)>()
    }
}

#[derive(Debug, Default)]
struct VarState {
    last_write: Option<NodeId>,
    /// Each thread's last read since `last_write`, one entry per
    /// reading thread, sorted by thread: the footprint follows the
    /// readers, not the largest thread id.
    readers: Vec<NodeId>,
}

/// The per-variable access frontier of the streaming detector: the last
/// write plus every thread's last read, checked against each new access
/// by reachability probes into a caller-supplied index. [`HbDetector`]
/// and [`C11Detector`](crate::c11::C11Detector) share it.
#[derive(Debug, Default)]
pub(crate) struct AccessFrontier {
    vars: HashMap<VarId, VarState>,
    /// Scratch for the write-case frontier check: the last write plus
    /// every thread's last read, probed in one
    /// [`reachable_batch`](PartialOrderIndex::reachable_batch) call.
    probe_buf: Vec<(NodeId, NodeId)>,
    reach_buf: Vec<bool>,
}

impl AccessFrontier {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        AccessFrontier::default()
    }

    /// Checks access `id` to `var` against the frontier over `po`,
    /// pushing `(src, id)` onto `races` for every unordered conflicting
    /// source (last write first, then last reads by thread), then
    /// advances the frontier.
    pub fn on_access<P: PartialOrderIndex>(
        &mut self,
        po: &P,
        id: NodeId,
        var: VarId,
        is_write: bool,
        races: &mut Vec<(NodeId, NodeId)>,
    ) {
        let st = self.vars.entry(var).or_default();
        if !is_write {
            if let Some(w) = st.last_write {
                if w.thread != id.thread && !po.reachable(w, id) {
                    races.push((w, id));
                }
            }
            match st.readers.binary_search_by_key(&id.thread, |r| r.thread) {
                Ok(i) => st.readers[i] = id,
                Err(i) => st.readers.insert(i, id),
            }
            return;
        }
        // The write conflicts with the whole access frontier
        // (last write + last read of every thread); probe it in
        // one batched call (answered per probe on every index but
        // the graph baseline).
        self.probe_buf.clear();
        if let Some(w) = st.last_write {
            if w.thread != id.thread {
                self.probe_buf.push((w, id));
            }
        }
        for r in &st.readers {
            if r.thread != id.thread {
                self.probe_buf.push((*r, id));
            }
        }
        po.reachable_batch(&self.probe_buf, &mut self.reach_buf);
        for (&probe, &ordered) in self.probe_buf.iter().zip(&self.reach_buf) {
            if !ordered {
                races.push(probe);
            }
        }
        st.last_write = Some(id);
        st.readers.clear();
    }

    /// Forgets every variable's accesses (a window boundary).
    pub fn clear(&mut self) {
        self.vars.clear();
    }

    /// Approximate heap footprint in bytes.
    #[cfg(test)]
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self
                .vars
                .values()
                .map(|st| {
                    size_of::<(VarId, VarState)>() + st.readers.capacity() * size_of::<NodeId>()
                })
                .sum::<usize>()
            + self.probe_buf.capacity() * size_of::<(NodeId, NodeId)>()
            + self.reach_buf.capacity()
    }
}

/// Online happens-before detector over a growable partial-order index.
///
/// See the [module docs](self) for the streaming/batch contrast; batch
/// [`detect`] is a thin wrapper feeding a recorded trace through this
/// type. Internally it composes the two reusable halves of the
/// analysis: a [`SyncTracker`] deriving synchronization edges and a
/// per-variable access frontier probing conflicting accesses.
#[derive(Debug)]
pub struct HbDetector<P> {
    hb: P,
    sync: SyncTracker,
    frontier: AccessFrontier,
    races: Vec<(NodeId, NodeId)>,
    sync_edges: usize,
    edge_buf: Vec<(NodeId, NodeId)>,
}

impl<P: PartialOrderIndex> HbDetector<P> {
    /// The happens-before index built so far (for online ordering
    /// queries against the live detector — `csst-serve`'s hb sessions
    /// answer `ordered` queries from here).
    pub fn index(&self) -> &P {
        &self.hb
    }

    /// The races found so far.
    pub fn races(&self) -> &[(NodeId, NodeId)] {
        &self.races
    }

    /// Synchronization edges inserted so far.
    pub fn sync_edges(&self) -> usize {
        self.sync_edges
    }
}

impl<P: PartialOrderIndex> Analysis for HbDetector<P> {
    type Cfg = ();
    type Report = HbReport<P>;

    fn new(_cfg: ()) -> Self {
        HbDetector {
            hb: P::new(),
            sync: SyncTracker::new(),
            frontier: AccessFrontier::new(),
            races: Vec::new(),
            sync_edges: 0,
            edge_buf: Vec::new(),
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        self.edge_buf.clear();
        let id = self.sync.feed(thread, &event, &mut self.edge_buf);
        let appended = self.hb.append(thread);
        debug_assert_eq!(appended, id, "tracker and index disagree on ids");
        for &(src, dst) in &self.edge_buf {
            if self.hb.insert_edge_checked(src, dst).is_ok() {
                self.sync_edges += 1;
            }
        }
        match event {
            EventKind::Read { var, .. } | EventKind::Write { var, .. } => {
                let is_write = matches!(event, EventKind::Write { .. });
                self.frontier
                    .on_access(&self.hb, id, var, is_write, &mut self.races);
            }
            _ => {}
        }
    }

    fn finish(self) -> HbReport<P> {
        HbReport {
            hb: self.hb,
            races: self.races,
            sync_edges: self.sync_edges,
        }
    }
}

/// Processes the trace in order, building hb from lock and fork/join
/// synchronization and flagging unordered conflicting accesses: a thin
/// wrapper streaming the trace through [`HbDetector`].
pub fn detect<P: PartialOrderIndex>(trace: &Trace) -> HbReport<P> {
    HbDetector::<P>::run(trace, ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{racy_program, RacyProgramCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn lock_ordering_prevents_hb_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.on(0).acquire(m);
        b.on(0).write(x, 1);
        b.on(0).release(m);
        b.on(1).acquire(m);
        b.on(1).write(x, 2);
        b.on(1).release(m);
        let trace = b.build();
        let r = detect::<VectorClockIndex>(&trace);
        assert!(r.races.is_empty());
        assert_eq!(r.sync_edges, 1, "one release→acquire edge");
    }

    #[test]
    fn unordered_conflicts_are_races() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(1).read(x, 1);
        let trace = b.build();
        let r = detect::<VectorClockIndex>(&trace);
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn fork_join_synchronize() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(0).fork(1);
        b.on(1).write(x, 2);
        b.on(0).join(1);
        b.on(0).write(x, 3);
        let trace = b.build();
        let r = detect::<VectorClockIndex>(&trace);
        assert!(r.races.is_empty(), "{:?}", r.races);
        assert_eq!(r.sync_edges, 2);
    }

    #[test]
    fn detector_consumes_a_live_stream_without_a_trace() {
        // No Trace is ever built: events are fed as they "happen".
        use csst_trace::EventKind as K;
        let (x, m) = (VarId(0), LockId(0));
        let mut hb = HbDetector::<VectorClockIndex>::new(());
        hb.feed(ThreadId(0), K::Acquire { lock: m });
        hb.feed(ThreadId(0), K::Write { var: x, value: 1 });
        hb.feed(ThreadId(0), K::Release { lock: m });
        hb.feed(ThreadId(1), K::Acquire { lock: m });
        hb.feed(ThreadId(1), K::Write { var: x, value: 2 });
        // Unprotected third thread races with the protected writes.
        hb.feed(ThreadId(2), K::Write { var: x, value: 3 });
        hb.feed(ThreadId(1), K::Release { lock: m });
        let r = hb.finish();
        assert_eq!(r.sync_edges, 1);
        assert_eq!(r.races, vec![(NodeId::new(1, 1), NodeId::new(2, 0))]);
        assert_eq!(r.hb.chains(), 3, "the index grew with the stream");
    }

    #[test]
    fn reader_tables_follow_readers_not_thread_ids() {
        use csst_trace::EventKind as K;
        let mut hb = HbDetector::<VectorClockIndex>::new(());
        for v in 0..200 {
            hb.feed(
                ThreadId(0),
                K::Write {
                    var: VarId(v),
                    value: 1,
                },
            );
        }
        for v in 0..200 {
            hb.feed(
                ThreadId(60_000),
                K::Read {
                    var: VarId(v),
                    value: 1,
                },
            );
        }
        assert!(
            hb.frontier.memory_bytes() < 64 * 1024,
            "frontier holds {} bytes for one reader of 200 variables",
            hb.frontier.memory_bytes()
        );
        assert_eq!(hb.races().len(), 200);
    }

    #[test]
    fn representations_agree_on_generated_traces() {
        for seed in 0..3 {
            let trace = racy_program(&RacyProgramCfg {
                threads: 5,
                events_per_thread: 200,
                vars: 5,
                locks: 2,
                lock_frac: 0.6,
                shared_frac: 0.3,
                seed,
                ..Default::default()
            });
            let vc = detect::<VectorClockIndex>(&trace);
            let csst = detect::<IncrementalCsst>(&trace);
            let st = detect::<SegTreeIndex>(&trace);
            assert_eq!(vc.races, csst.races, "seed {seed}");
            assert_eq!(vc.races, st.races, "seed {seed}");
            assert_eq!(vc.sync_edges, csst.sync_edges);
            // Streaming HB finds races on these workloads (it checks
            // only adjacent conflicting pairs, but unprotected sharing
            // produces plenty).
            assert!(!vc.races.is_empty(), "seed {seed}: no HB races found");
        }
    }
}
