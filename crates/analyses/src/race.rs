//! M2-style dynamic data race prediction (Table 1).
//!
//! The M2 detector \[Pavlogiannis 2019\] observes (possibly race-free)
//! traces and attempts to *permute* them into correct reorderings that
//! expose a race. Its partial-order core:
//!
//! 1. build the light observed order (fork/join + reads-from) used to
//!    filter ordered pairs;
//! 2. enumerate conflicting access pairs within a trace window
//!    (candidates);
//! 3. for each candidate, check the feasibility of a correct
//!    reordering of a trace prefix that co-enables both accesses
//!    ([`witness_co_enabled`]): the closure is rebuilt and saturated
//!    *per candidate*, exactly like M2's per-race closure computation.
//!
//! Step 3 inserts orderings between events in the middle of the trace —
//! the non-streaming pattern where vector clocks degrade to `O(n)` per
//! insertion and CSSTs stay logarithmic.
//!
//! **Classification:** predictive. *Detects* data races exposable by
//! reordering the observed trace. *Base order:* the light observation
//! (fork/join + reads-from), built online per event. *Buffering:*
//! buffered candidate generation at `finish`, or **windowed** via
//! [`RaceCfg::window`].
//!
//! ```
//! use csst_analyses::race::{self, RaceCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.on(0).write(x, 1);
//! b.on(1).write(x, 2);
//! let report = race::predict::<IncrementalCsst>(&b.build(), &RaceCfg::default());
//! assert_eq!(report.races.len(), 1);
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::saturation::{common_lock, witness_co_enabled, ClosureCtx, SaturationCfg};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, Trace, VarId};
use std::collections::HashMap;

/// Configuration of [`predict`].
#[derive(Debug, Clone)]
pub struct RaceCfg {
    /// Maximum number of candidate pairs to witness-check (in trace
    /// order, across all windows); practical tools window their search
    /// the same way.
    pub max_candidates: usize,
    /// Pair every access with at most this many preceding accesses of
    /// the same variable (the candidate window).
    pub recent: usize,
    /// Saturation settings used by the per-candidate witness checks.
    pub saturation: SaturationCfg,
    /// Tumbling-window size bounding the event buffer; `None` buffers
    /// the whole stream. See the [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

impl Default for RaceCfg {
    fn default() -> Self {
        RaceCfg {
            max_candidates: 200,
            recent: 24,
            saturation: SaturationCfg::default(),
            window: None,
        }
    }
}

/// Result of a race prediction run.
#[derive(Debug, Clone)]
pub struct RaceReport<P> {
    /// The light observed base order (useful for density stats). In
    /// windowed runs only the final window's edges are still live.
    pub base: P,
    /// Number of candidate pairs examined (witness-checked).
    pub candidates: usize,
    /// Predicted races: conflicting pairs with a feasible witness
    /// (global event ids).
    pub races: Vec<(NodeId, NodeId)>,
    /// Edges inserted while building the base order.
    pub base_inserted: usize,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Enumerates candidate pairs: conflicting plain accesses to the same
/// variable within the `recent`-access recency window, from different
/// threads, in trace order.
///
/// Pure over the (window-local) trace — no index involved.
fn enumerate_candidates(trace: &Trace, recent: usize) -> Vec<(NodeId, NodeId)> {
    let mut buf_by_var: HashMap<VarId, Vec<(NodeId, bool)>> = HashMap::new();
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for (id, ev) in trace.iter_order() {
        let Some(var) = ev.kind.var() else { continue };
        if !(ev.kind.is_plain_read() || ev.kind.is_plain_write()) {
            continue;
        }
        let is_write = ev.kind.is_plain_write();
        let buf = buf_by_var.entry(var).or_default();
        for &(prev, prev_write) in buf.iter() {
            if prev.thread != id.thread && (is_write || prev_write) {
                candidates.push((prev, id));
            }
        }
        buf.push((id, is_write));
        if buf.len() > recent {
            buf.remove(0);
        }
    }
    candidates
}

/// Filters `candidates` down to the pairs that reach the witness check:
/// unordered in the base order `po` (both directions probed through
/// the batched API), not protected by a common lock, and within the
/// first `cap` survivors (the candidate budget).
///
/// Deterministic and independent of any witness outcome.
fn select_candidates<P: PartialOrderIndex>(
    po: &P,
    trace: &Trace,
    candidates: &[(NodeId, NodeId)],
    cap: usize,
) -> Vec<(NodeId, NodeId)> {
    // The ordered-pair filter needs both directions per candidate;
    // prefetch them in chunks of 128 probes through the batched API
    // (per probe on every index but the graph baseline, which shares
    // one traversal per source). The cap counts only pairs that reach
    // the witness check, so prefetching reachability (a pure query)
    // cannot change which candidates are examined.
    let mut selected: Vec<(NodeId, NodeId)> = Vec::new();
    let mut probes: Vec<(NodeId, NodeId)> = Vec::new();
    let mut ordered: Vec<bool> = Vec::new();
    'chunks: for chunk in candidates.chunks(64) {
        if selected.len() >= cap {
            break;
        }
        probes.clear();
        for &(e1, e2) in chunk {
            probes.push((e1, e2));
            probes.push((e2, e1));
        }
        po.reachable_batch(&probes, &mut ordered);
        for (ci, &(e1, e2)) in chunk.iter().enumerate() {
            if selected.len() >= cap {
                break 'chunks;
            }
            if ordered[2 * ci] || ordered[2 * ci + 1] {
                continue; // ordered: not a candidate
            }
            if common_lock(trace, e1, e2) {
                continue; // protected: cannot be co-enabled
            }
            selected.push((e1, e2));
        }
    }
    selected
}

/// Streaming form of [`predict`]: the observation base order (fork/
/// join and reads-from) grows per event inside `feed`; candidate
/// generation and the M2-style witness checks run over the buffered
/// events at `finish` — or per window when [`RaceCfg::window`] bounds
/// the buffer.
///
/// `P` is the type of the base order and of each witness closure (a
/// fresh insert-only index per candidate).
#[derive(Debug)]
pub struct RacePredictor<P> {
    cfg: RaceCfg,
    builder: BaseOrderBuilder<P>,
    races: Vec<(NodeId, NodeId)>,
    candidates: usize,
}

impl<P: PartialOrderIndex> RacePredictor<P> {
    /// Races predicted so far: those of completed windows (none before
    /// [`finish`](Analysis::finish) when unwindowed), in report order.
    pub fn races_so_far(&self) -> &[(NodeId, NodeId)] {
        &self.races
    }

    /// Runs candidate generation + witness checks over the buffered
    /// window (the whole trace when unwindowed).
    fn analyze_window(&mut self) {
        let (trace, po) = (self.builder.buffered(), self.builder.po());
        if trace.total_events() == 0 {
            return;
        }
        let candidates = enumerate_candidates(trace, self.cfg.recent);
        let remaining = self.cfg.max_candidates.saturating_sub(self.candidates);
        let checked = select_candidates(po, trace, &candidates, remaining);
        if checked.is_empty() {
            return;
        }
        let ctx = ClosureCtx::new(trace, None);
        for &(e1, e2) in &checked {
            self.candidates += 1;
            if witness_co_enabled::<P>(&ctx, &self.cfg.saturation, &[e1, e2]) {
                let race = (self.builder.to_global(e1), self.builder.to_global(e2));
                self.races.push(race);
            }
        }
    }
}

impl<P: PartialOrderIndex> Analysis for RacePredictor<P> {
    type Cfg = RaceCfg;
    type Report = RaceReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        RacePredictor {
            builder: BaseOrderBuilder::observing(cfg.window),
            cfg,
            races: Vec::new(),
            candidates: 0,
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        self.builder.feed(thread, event);
        if self.builder.window_full() {
            self.analyze_window();
            self.builder.retire_window();
        }
    }

    fn finish(mut self) -> RaceReport<P> {
        self.analyze_window();
        RaceReport {
            candidates: self.candidates,
            races: self.races,
            base_inserted: self.builder.base_inserted(),
            window: self.builder.stats(),
            base: self.builder.into_po(),
        }
    }
}

/// Runs race prediction over `trace` using partial-order representation
/// `P`: a thin wrapper streaming the trace through [`RacePredictor`].
pub fn predict<P: PartialOrderIndex>(trace: &Trace, cfg: &RaceCfg) -> RaceReport<P> {
    RacePredictor::<P>::run(trace, cfg.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{racy_program, RacyProgramCfg};
    use csst_trace::TraceBuilder;

    #[test]
    fn detects_textbook_race() {
        // Two unprotected writes to x from different threads.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(1).write(x, 2);
        let trace = b.build();
        let report = predict::<IncrementalCsst>(&trace, &RaceCfg::default());
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn lock_protected_accesses_are_not_races() {
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
        let report = predict::<IncrementalCsst>(&trace, &RaceCfg::default());
        assert!(report.races.is_empty());
    }

    #[test]
    fn fork_join_ordering_prevents_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.on(0).write(x, 1);
        b.on(0).fork(1);
        b.on(1).write(x, 2);
        b.on(0).join(1);
        b.on(0).write(x, 3);
        let trace = b.build();
        let report = predict::<IncrementalCsst>(&trace, &RaceCfg::default());
        assert!(
            report.races.is_empty(),
            "fork/join orders all accesses: {:?}",
            report.races
        );
    }

    #[test]
    fn rf_constraint_can_rule_out_witness() {
        // The second access's prefix observes a write that po-follows
        // the first access: the prefix closure pulls the first access
        // in, so the pair cannot be co-enabled.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.on(0).write(x, 1); // (0,0) — candidate access 1
        b.on(0).write(y, 1); // (0,1)
        b.on(1).read(y, 1); // (1,0) observes (0,1)
        b.on(1).write(x, 2); // (1,1) — candidate access 2
        let trace = b.build();
        let report = predict::<IncrementalCsst>(&trace, &RaceCfg::default());
        assert!(
            report.races.is_empty(),
            "rf chain must rule out the race: {:?}",
            report.races
        );
    }

    #[test]
    fn representations_agree_on_generated_traces() {
        for seed in 0..3 {
            let trace = racy_program(&RacyProgramCfg {
                threads: 4,
                events_per_thread: 60,
                vars: 4,
                locks: 2,
                lock_frac: 0.5,
                write_frac: 0.5,
                shared_frac: 0.6,
                seed,
            });
            let cfg = RaceCfg {
                max_candidates: 50,
                ..Default::default()
            };
            let a = predict::<IncrementalCsst>(&trace, &cfg);
            let b = predict::<SegTreeIndex>(&trace, &cfg);
            let c = predict::<VectorClockIndex>(&trace, &cfg);
            let d = predict::<GraphIndex>(&trace, &cfg);
            assert_eq!(a.races, b.races, "seed {seed}: CSST vs ST");
            assert_eq!(a.races, c.races, "seed {seed}: CSST vs VC");
            assert_eq!(a.races, d.races, "seed {seed}: CSST vs Graph");
            assert_eq!(a.candidates, b.candidates);
        }
    }

    #[test]
    fn candidate_cap_respected() {
        let trace = racy_program(&RacyProgramCfg {
            threads: 4,
            events_per_thread: 80,
            lock_frac: 0.0,
            ..Default::default()
        });
        let report = predict::<IncrementalCsst>(
            &trace,
            &RaceCfg {
                max_candidates: 5,
                ..Default::default()
            },
        );
        assert!(report.candidates <= 5);
    }

    #[test]
    fn private_variables_never_race() {
        let trace = racy_program(&RacyProgramCfg {
            threads: 3,
            events_per_thread: 50,
            shared_frac: 0.0, // all accesses thread-private
            lock_frac: 0.0,
            ..Default::default()
        });
        let report = predict::<IncrementalCsst>(&trace, &RaceCfg::default());
        assert_eq!(report.candidates, 0);
        assert!(report.races.is_empty());
    }
}
