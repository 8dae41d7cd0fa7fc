//! C11Tester-style race detection for the C11 memory model (Table 6).
//!
//! C11Tester \[Luo & Demsky 2021\] constructs a trace incrementally,
//! mapping each atomic read to a write and maintaining a happens-before
//! partial order. The crucial structural property — and the paper's own
//! *negative result* — is that almost every ordering it inserts targets
//! the **current** event: a synchronizes-with edge from a release store
//! to the acquire load being processed. Such streaming insertions cost
//! vector clocks `O(k)` (no propagation), so VCs win on most Table 6
//! rows.
//!
//! The exception (`readerswriters`, `atomicblocks`) are programs whose
//! consistency constraints force orderings between *middle* events:
//! when a load observes an already-overwritten (stale) value, the
//! from-read constraint orders the load before the overwriting store,
//! which sits in the middle of the order and has many successors. The
//! [`middle_sync_frac`](csst_trace::gen::C11Cfg::middle_sync_frac) knob
//! of the generator controls how often that happens.
//!
//! **Classification:** genuinely online. *Detects* plain-access races
//! under C11 synchronization. *Base order:* happens-before from
//! synchronizes-with and from-read edges, built online per event — no
//! event is ever buffered. *Buffering:* none; **windowed** runs
//! ([`C11Cfg::window`]) only reset the synchronization state and
//! retire the window's edges to bound the live edge set.
//!
//! ```
//! use csst_analyses::c11::{self, C11Cfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::{MemOrder, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let (data, flag) = (b.var("data"), b.var("flag"));
//! b.on(0).write(data, 1);
//! b.on(0).atomic_store(flag, MemOrder::Release, 1);
//! b.on(1).atomic_load(flag, MemOrder::Acquire, 1);
//! b.on(1).read(data, 1);
//! let report = c11::detect::<IncrementalCsst>(&b.build(), &C11Cfg::default());
//! assert!(report.races.is_empty());
//! assert_eq!(report.window.peak_buffered, 0); // nothing is buffered
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::hb::AccessFrontier;
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, Trace, VarId};
use std::collections::HashMap;

/// Configuration of [`detect`].
#[derive(Debug, Clone, Default)]
pub struct C11Cfg {
    /// Also treat relaxed reads-from edges as ordering (off in C11).
    pub relaxed_orders: bool,
    /// Tumbling-window size: every `n` events the synchronization
    /// state is reset and the window's hb edges are retired, so the
    /// live edge set stays bounded. The detector itself buffers no
    /// events in any mode. See the [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

/// Result of a C11 race detection run.
#[derive(Debug, Clone)]
pub struct C11Report<P> {
    /// The final happens-before order.
    pub hb: P,
    /// Races between plain accesses (pairs unordered by hb).
    pub races: Vec<(NodeId, NodeId)>,
    /// Synchronizes-with edges inserted (streaming: target is current).
    pub sw_edges: usize,
    /// From-read edges inserted (non-streaming: target is a middle
    /// event with successors).
    pub fr_edges: usize,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Atomic-store bookkeeping: the writing event and whether it carries
/// release semantics.
#[derive(Debug)]
struct StoreInfo {
    event: NodeId,
    release: bool,
}

/// Genuinely online C11Tester-style detector: every [`feed`] updates
/// the happens-before index and checks conflicting plain accesses
/// immediately — no event is ever buffered, exactly like
/// [`crate::hb::HbDetector`]. With [`C11Cfg::window`] set, the
/// synchronization state resets every `n` events and the window's hb
/// edges are retired, bounding the live edge set.
///
/// [`feed`]: Analysis::feed
#[derive(Debug)]
pub struct C11Detector<P> {
    cfg: C11Cfg,
    builder: BaseOrderBuilder<P>,
    store_of_value: HashMap<u64, StoreInfo>,
    /// Coherence bookkeeping: the latest value of each atomic variable
    /// and, per value, the value that overwrote it.
    latest_of_var: HashMap<VarId, u64>,
    overwritten_by: HashMap<u64, u64>,
    /// Plain-access bookkeeping for the race check: per variable, the
    /// last write and each thread's last read (hb's frontier).
    plain: AccessFrontier,
    races: Vec<(NodeId, NodeId)>,
    sw_edges: usize,
    fr_edges: usize,
}

impl<P: PartialOrderIndex> C11Detector<P> {
    /// Handles an atomic read (load or the read half of an RMW):
    /// inserts the synchronizes-with edge (streaming) and, for stale
    /// observations, the from-read edge (middle-of-trace).
    fn handle_atomic_read(&mut self, id: NodeId, value: u64, acquire: bool) {
        if value == 0 {
            return;
        }
        let Some(info) = self.store_of_value.get(&value) else {
            return;
        };
        let s = info.event;
        // Synchronizes-with: release store → acquire load. The target
        // is the current event: a streaming insertion.
        if s.thread != id.thread
            && (info.release && acquire || self.cfg.relaxed_orders)
            && self.builder.insert_logged_checked(s, id).is_ok()
        {
            self.sw_edges += 1;
        }
        // From-read: if the observed value is stale, the load is
        // coherence-ordered before the overwriting store — a
        // middle-of-trace target with successors.
        if let Some(&next) = self.overwritten_by.get(&value) {
            let s_next = self.store_of_value[&next].event;
            if s_next.thread != id.thread && self.builder.insert_logged_checked(id, s_next).is_ok()
            {
                self.fr_edges += 1;
            }
        }
    }

    fn record_store(&mut self, id: NodeId, var: VarId, value: u64, release: bool) {
        self.store_of_value
            .insert(value, StoreInfo { event: id, release });
        if let Some(prev) = self.latest_of_var.insert(var, value) {
            self.overwritten_by.insert(prev, value);
        }
    }
}

impl<P: PartialOrderIndex> Analysis for C11Detector<P> {
    type Cfg = C11Cfg;
    type Report = C11Report<P>;

    fn new(cfg: Self::Cfg) -> Self {
        C11Detector {
            builder: BaseOrderBuilder::counting(cfg.window),
            cfg,
            store_of_value: HashMap::new(),
            latest_of_var: HashMap::new(),
            overwritten_by: HashMap::new(),
            plain: AccessFrontier::new(),
            races: Vec::new(),
            sw_edges: 0,
            fr_edges: 0,
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        let id = self.builder.feed(thread, event);
        match event {
            EventKind::AtomicLoad { order, value, .. } => {
                self.handle_atomic_read(id, value, order.is_acquire());
            }
            EventKind::AtomicRmw {
                var,
                order,
                read,
                write,
            } => {
                self.handle_atomic_read(id, read, order.is_acquire());
                self.record_store(id, var, write, order.is_release());
            }
            EventKind::AtomicStore { var, order, value } => {
                self.record_store(id, var, value, order.is_release());
            }
            EventKind::Read { var, .. } | EventKind::Write { var, .. } => {
                let is_write = matches!(event, EventKind::Write { .. });
                self.plain
                    .on_access(self.builder.po(), id, var, is_write, &mut self.races);
            }
            _ => {}
        }
        if self.builder.window_full() {
            // Window boundary: retire the window's hb edges and reset
            // the synchronization state, so later events never pair
            // with retired ones.
            self.builder.retire_window();
            self.store_of_value.clear();
            self.latest_of_var.clear();
            self.overwritten_by.clear();
            self.plain.clear();
        }
    }

    fn finish(self) -> C11Report<P> {
        C11Report {
            races: self.races,
            sw_edges: self.sw_edges,
            fr_edges: self.fr_edges,
            window: self.builder.stats(),
            hb: self.builder.into_po(),
        }
    }
}

/// Processes the trace in order, maintaining hb and checking plain
/// accesses for races, mirroring the C11Tester op mix: a thin wrapper
/// streaming the trace through [`C11Detector`].
pub fn detect<P: PartialOrderIndex>(trace: &Trace, cfg: &C11Cfg) -> C11Report<P> {
    C11Detector::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{c11_program, C11Cfg as GenCfg};
    use csst_trace::{MemOrder, TraceBuilder};

    #[test]
    fn message_passing_with_release_acquire_is_race_free() {
        // T0: w(data); store-rel(flag, 1). T1: load-acq(flag)=1; r(data).
        let mut b = TraceBuilder::new();
        let data = b.var("data");
        let flag = b.var("flag");
        b.on(0).write(data, 1);
        b.on(0).atomic_store(flag, MemOrder::Release, 1);
        b.on(1).atomic_load(flag, MemOrder::Acquire, 1);
        b.on(1).read(data, 1);
        let trace = b.build();
        let r = detect::<IncrementalCsst>(&trace, &C11Cfg::default());
        assert_eq!(r.sw_edges, 1);
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn relaxed_flag_leaves_race() {
        let mut b = TraceBuilder::new();
        let data = b.var("data");
        let flag = b.var("flag");
        b.on(0).write(data, 1);
        b.on(0).atomic_store(flag, MemOrder::Relaxed, 1);
        b.on(1).atomic_load(flag, MemOrder::Relaxed, 1);
        b.on(1).read(data, 1);
        let trace = b.build();
        let r = detect::<IncrementalCsst>(&trace, &C11Cfg::default());
        assert_eq!(r.races.len(), 1, "relaxed sync does not order the reads");
    }

    #[test]
    fn stale_read_inserts_fr_edge() {
        let mut b = TraceBuilder::new();
        let flag = b.var("flag");
        b.on(0).atomic_store(flag, MemOrder::Release, 1);
        b.on(0).atomic_store(flag, MemOrder::Release, 2);
        // T1 observes the overwritten value 1: fr edge load → store(2).
        b.on(1).atomic_load(flag, MemOrder::Acquire, 1);
        let trace = b.build();
        let r = detect::<IncrementalCsst>(&trace, &C11Cfg::default());
        assert_eq!(r.sw_edges, 1);
        assert_eq!(r.fr_edges, 1);
    }

    #[test]
    fn rmw_chains_synchronize() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let data = b.var("d");
        b.on(0).write(data, 1);
        b.on(0).atomic_store(x, MemOrder::Release, 1);
        b.on(1).atomic_rmw(x, MemOrder::AcqRel, 1, 2);
        b.on(1).read(data, 1);
        let trace = b.build();
        let r = detect::<IncrementalCsst>(&trace, &C11Cfg::default());
        assert!(r.races.is_empty());
        assert_eq!(r.sw_edges, 1);
    }

    #[test]
    fn representations_agree_on_generated_traces() {
        for (seed, middle) in [(0u64, 0.0f64), (1, 0.0), (2, 0.3)] {
            let trace = c11_program(&GenCfg {
                threads: 4,
                events_per_thread: 150,
                middle_sync_frac: middle,
                seed,
                ..Default::default()
            });
            let cfg = C11Cfg::default();
            let a = detect::<IncrementalCsst>(&trace, &cfg);
            let b = detect::<SegTreeIndex>(&trace, &cfg);
            let c = detect::<VectorClockIndex>(&trace, &cfg);
            assert_eq!(a.races, b.races, "seed {seed}");
            assert_eq!(a.races, c.races, "seed {seed}");
            assert_eq!(a.sw_edges, b.sw_edges);
            assert_eq!(a.fr_edges, c.fr_edges);
        }
    }

    #[test]
    fn middle_sync_generates_fr_edges() {
        let trace = c11_program(&GenCfg {
            threads: 4,
            events_per_thread: 200,
            middle_sync_frac: 0.3,
            plain_frac: 0.2,
            seed: 9,
            ..Default::default()
        });
        let r = detect::<IncrementalCsst>(&trace, &C11Cfg::default());
        assert!(r.fr_edges > 0, "middle-sync workload must exercise fr");
    }
}
