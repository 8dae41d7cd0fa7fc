//! UFO-style use-after-free query generation (Table 5).
//!
//! UFO \[Huang 2018\] is an SMT-based predictive detector: it encodes
//! reorderings as constraints and asks a solver whether a use can
//! follow a free. The expensive pre-solver phase — the one the paper
//! measures — relies on partial-order reasoning to *generate* the SMT
//! queries: for every (alloc, use, free) triple it issues reachability
//! queries to prune infeasible candidates and to collect the ordering
//! constraints that must be encoded.
//!
//! Unlike the ConVulPOE core ([`crate::membug`]), this analysis is
//! query-dominated: one saturated base order, then a large batch of
//! `reachable`/`predecessor` queries and constraint counting, with few
//! further insertions. This matches the paper's observation that the
//! UFO speedups are more modest — the data structure is a smaller
//! fraction of the total work.
//!
//! **Classification:** predictive. *Detects* (generates SMT queries
//! for) use-after-free candidates the partial order cannot refute.
//! *Base order:* the observation (fork/join + reads-from) built online
//! per event, saturated to a fixpoint before query generation.
//! *Buffering:* buffered query generation at `finish`, or **windowed**
//! via [`UafCfg::window`].
//!
//! ```
//! use csst_analyses::uaf::{self, UafCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let o = b.obj("o");
//! b.on(0).alloc(o);
//! b.on(0).deref(o, true);
//! b.on(1).free(o);
//! let report = uaf::generate::<IncrementalCsst>(&b.build(), &UafCfg::default());
//! assert_eq!(report.candidates.len(), 1);
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::saturation::{saturate, ClosureCtx, SaturationCfg};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, ObjId, Trace};
use std::collections::HashMap;

/// One candidate use-after-free pair to be encoded for the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UafCandidate {
    /// The object.
    pub obj: ObjId,
    /// The dereference.
    pub use_event: NodeId,
    /// The free.
    pub free_event: NodeId,
    /// Number of ordering constraints the encoding would emit for this
    /// pair (the size of the frontier between the two events).
    pub constraints: usize,
}

/// Configuration of [`generate`].
#[derive(Debug, Clone, Default)]
pub struct UafCfg {
    /// Saturation settings for the base order.
    pub saturation: SaturationCfg,
    /// Tumbling-window size bounding the event buffer; `None` buffers
    /// the whole stream. See the [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

/// Result of the query-generation phase.
#[derive(Debug, Clone)]
pub struct UafReport<P> {
    /// The saturated base partial order (final window's edges only in
    /// windowed runs).
    pub base: P,
    /// Candidate pairs surviving the partial-order pruning (global
    /// event ids).
    pub candidates: Vec<UafCandidate>,
    /// Pairs pruned because the base order already orders them.
    pub pruned: usize,
    /// Total constraints across all candidates.
    pub total_constraints: usize,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Streaming form of [`generate`]: the observation base order (fork/
/// join + reads-from) grows per event inside `feed`; the saturation
/// fixpoint and the query generation run over the buffered events at
/// `finish` — or per window when [`UafCfg::window`] bounds the buffer.
#[derive(Debug)]
pub struct UafGenerator<P> {
    cfg: UafCfg,
    builder: BaseOrderBuilder<P>,
    candidates: Vec<UafCandidate>,
    pruned: usize,
    total_constraints: usize,
}

impl<P: PartialOrderIndex> UafGenerator<P> {
    fn analyze_window(&mut self) {
        let (trace, po) = self.builder.split();
        if trace.total_events() == 0 {
            return;
        }
        // Saturate the incrementally built observation order up to the
        // fixpoint the UFO encoding assumes (the fork/join and rf edges
        // are already in place from `feed`).
        let out = saturate(po, &ClosureCtx::new(trace, None), &self.cfg.saturation);
        debug_assert!(out.consistent);
        self.builder.note_inserted(out.inserted);
        let (trace, po) = (self.builder.buffered(), self.builder.po());

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

        // This phase is query-dominated (the paper's Table 5 point), so
        // all of it goes through the batched API: reachability pruning
        // prefetches both directions per chunk, and the surviving
        // pairs' 2k-per-pair predecessor frontiers are fetched in one
        // batch per chunk.
        let k = trace.num_threads();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut probes: Vec<(NodeId, NodeId)> = Vec::new();
        let mut ordered: Vec<bool> = Vec::new();
        let mut pred_probes: Vec<(NodeId, ThreadId)> = Vec::new();
        let mut preds = Vec::new();
        let mut survivors: Vec<usize> = Vec::new();
        for (&obj, life) in objs {
            pairs.clear();
            for &f in &life.frees {
                for &u in &life.uses {
                    if u.thread == f.thread {
                        self.pruned += 1; // program order decides
                    } else {
                        pairs.push((u, f));
                    }
                }
            }
            for chunk in pairs.chunks(64) {
                probes.clear();
                for &(u, f) in chunk {
                    probes.push((u, f));
                    probes.push((f, u));
                }
                po.reachable_batch(&probes, &mut ordered);
                // Constraint counting: the encoding relates the
                // per-thread frontiers of the two events — for every
                // thread, the latest event that must precede `u` and
                // the latest that must precede `f` (predecessor
                // queries), each becoming an ordering constraint.
                pred_probes.clear();
                survivors.clear();
                for (ci, &(u, f)) in chunk.iter().enumerate() {
                    if ordered[2 * ci] || ordered[2 * ci + 1] {
                        self.pruned += 1;
                        continue;
                    }
                    survivors.push(ci);
                    for t in 0..k {
                        pred_probes.push((u, ThreadId(t as u32)));
                        pred_probes.push((f, ThreadId(t as u32)));
                    }
                }
                po.predecessor_batch(&pred_probes, &mut preds);
                for (si, &ci) in survivors.iter().enumerate() {
                    let (u, f) = chunk[ci];
                    let constraints = preds[si * 2 * k..(si + 1) * 2 * k]
                        .iter()
                        .filter(|p| p.is_some())
                        .count();
                    self.total_constraints += constraints;
                    self.candidates.push(UafCandidate {
                        obj,
                        use_event: self.builder.to_global(u),
                        free_event: self.builder.to_global(f),
                        constraints,
                    });
                }
            }
        }
    }
}

impl<P: PartialOrderIndex> Analysis for UafGenerator<P> {
    type Cfg = UafCfg;
    type Report = UafReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        UafGenerator {
            builder: BaseOrderBuilder::observing(cfg.window),
            cfg,
            candidates: Vec::new(),
            pruned: 0,
            total_constraints: 0,
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        self.builder.feed(thread, event);
        if self.builder.window_full() {
            self.analyze_window();
            self.builder.retire_window();
        }
    }

    fn finish(mut self) -> UafReport<P> {
        self.analyze_window();
        UafReport {
            candidates: self.candidates,
            pruned: self.pruned,
            total_constraints: self.total_constraints,
            window: self.builder.stats(),
            base: self.builder.into_po(),
        }
    }
}

/// Runs the UFO-style query generation over `trace`: a thin wrapper
/// streaming the trace through [`UafGenerator`].
pub fn generate<P: PartialOrderIndex>(trace: &Trace, cfg: &UafCfg) -> UafReport<P> {
    UafGenerator::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{alloc_program, AllocProgramCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn unsynchronized_pair_becomes_candidate() {
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        b.on(0).alloc(o);
        b.on(0).deref(o, true);
        b.on(1).free(o);
        let trace = b.build();
        let r = generate::<IncrementalCsst>(&trace, &UafCfg::default());
        assert_eq!(r.candidates.len(), 1);
        assert_eq!(r.pruned, 0);
        assert!(r.total_constraints >= 1);
    }

    #[test]
    fn ordered_pair_is_pruned() {
        let mut b = TraceBuilder::new();
        let o = b.obj("o");
        let x = b.var("flag");
        b.on(0).alloc(o);
        b.on(0).deref(o, false);
        b.on(0).write(x, 1);
        b.on(1).read(x, 1);
        b.on(1).free(o);
        let trace = b.build();
        let r = generate::<IncrementalCsst>(&trace, &UafCfg::default());
        assert!(r.candidates.is_empty());
        assert_eq!(r.pruned, 1);
    }

    #[test]
    fn representations_agree() {
        for seed in 0..3 {
            let trace = alloc_program(&AllocProgramCfg {
                threads: 4,
                objects: 25,
                derefs_per_object: 5,
                protected_frac: 0.3,
                seed,
                ..Default::default()
            });
            let cfg = UafCfg::default();
            let a = generate::<IncrementalCsst>(&trace, &cfg);
            let b = generate::<SegTreeIndex>(&trace, &cfg);
            let c = generate::<VectorClockIndex>(&trace, &cfg);
            let d = generate::<GraphIndex>(&trace, &cfg);
            assert_eq!(a.candidates, b.candidates, "seed {seed}");
            assert_eq!(a.candidates, c.candidates, "seed {seed}");
            assert_eq!(a.candidates, d.candidates, "seed {seed}");
            assert_eq!(a.pruned, b.pruned);
            assert_eq!(a.total_constraints, d.total_constraints);
        }
    }
}
