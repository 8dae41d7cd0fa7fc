//! SeqCheck-style dynamic deadlock prediction (Table 2).
//!
//! The analysis of \[Cai et al. 2021\] identifies *potential* deadlock
//! patterns from lock-acquisition orders — pairs of threads that nest
//! the same two locks in opposite orders — and then tries to witness
//! each pattern by a valid reordering of the observed trace. The
//! witness check reasons over an incrementally maintained partial
//! order: both inner acquisitions must be co-enabled while each thread
//! already holds the other thread's requested lock.
//!
//! **Classification:** predictive. *Detects* deadlocks witnessable by
//! reordering the observed trace (inverse lock nestings that can be
//! co-enabled). *Base order:* the observation (fork/join +
//! reads-from), built online per event. *Buffering:* buffered pattern
//! mining at `finish`, or **windowed** via [`DeadlockCfg::window`].
//!
//! ```
//! use csst_analyses::deadlock::{self, DeadlockCfg};
//! use csst_core::IncrementalCsst;
//! use csst_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let (la, lb) = (b.lock("a"), b.lock("b"));
//! b.on(0).acquire(la);
//! b.on(0).acquire(lb);
//! b.on(0).release(lb);
//! b.on(0).release(la);
//! b.on(1).acquire(lb);
//! b.on(1).acquire(la);
//! b.on(1).release(la);
//! b.on(1).release(lb);
//! let report = deadlock::predict::<IncrementalCsst>(&b.build(), &DeadlockCfg::default());
//! assert_eq!(report.deadlocks.len(), 1);
//! ```

use crate::common::{BaseOrderBuilder, WindowStats};
use crate::saturation::{witness_co_enabled, ClosureCtx, SaturationCfg};
use crate::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, LockId, Trace};
use std::collections::{HashMap, HashSet};

/// One nested acquisition: thread holds `outer` (acquired at
/// `outer_acq`) while acquiring `inner` at `inner_acq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nesting {
    /// The lock held.
    pub outer: LockId,
    /// The lock being acquired under `outer`.
    pub inner: LockId,
    /// Acquire event of `outer`.
    pub outer_acq: NodeId,
    /// Acquire event of `inner`.
    pub inner_acq: NodeId,
}

/// A predicted deadlock: two nestings of the same lock pair in opposite
/// orders, witnessed as co-enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlock {
    /// First thread's nesting.
    pub first: Nesting,
    /// Second thread's (inverted) nesting.
    pub second: Nesting,
}

/// Configuration of [`predict`].
#[derive(Debug, Clone, Default)]
pub struct DeadlockCfg {
    /// Saturation settings.
    pub saturation: SaturationCfg,
    /// Maximum number of patterns to witness-check (across windows).
    pub max_patterns: usize,
    /// Tumbling-window size bounding the event buffer; `None` buffers
    /// the whole stream. See the [`Analysis`] soundness contract.
    pub window: Option<usize>,
}

/// Result of a deadlock prediction run.
#[derive(Debug, Clone)]
pub struct DeadlockReport<P> {
    /// The observed base partial order (final window's edges only in
    /// windowed runs).
    pub base: P,
    /// Potential patterns found from lock orders alone.
    pub patterns: usize,
    /// Patterns with a feasible co-enabling witness (global event ids).
    pub deadlocks: Vec<Deadlock>,
    /// Streaming/windowing counters of the run.
    pub window: WindowStats,
}

/// Extracts all nested acquisitions from the trace.
pub fn nestings(trace: &Trace) -> Vec<Nesting> {
    let mut result = Vec::new();
    for t in 0..trace.num_threads() {
        let tid = csst_core::ThreadId(t as u32);
        let mut stack: Vec<(LockId, NodeId)> = Vec::new();
        for (i, ev) in trace.events_of(tid).iter().enumerate() {
            let here = NodeId::new(tid, i as u32);
            match ev.kind {
                EventKind::Acquire { lock } => {
                    for &(outer, outer_acq) in &stack {
                        result.push(Nesting {
                            outer,
                            inner: lock,
                            outer_acq,
                            inner_acq: here,
                        });
                    }
                    stack.push((lock, here));
                }
                EventKind::Release { lock } => {
                    if let Some(i) = stack.iter().rposition(|&(l, _)| l == lock) {
                        stack.remove(i);
                    }
                }
                _ => {}
            }
        }
    }
    result
}

/// Streaming form of [`predict`]: the observation base order grows per
/// event inside `feed`; pattern mining and the SeqCheck-style witness
/// checks run over the buffered events at `finish` — or per window when
/// [`DeadlockCfg::window`] bounds the buffer.
///
/// `P` is the type of the base order and of each witness closure (a
/// fresh insert-only index per candidate).
#[derive(Debug)]
pub struct DeadlockPredictor<P> {
    cfg: DeadlockCfg,
    builder: BaseOrderBuilder<P>,
    patterns: usize,
    deadlocks: Vec<Deadlock>,
    reported: HashSet<(NodeId, NodeId)>,
}

impl<P: PartialOrderIndex> DeadlockPredictor<P> {
    fn analyze_window(&mut self) {
        let (trace, po) = (self.builder.buffered(), self.builder.po());
        if trace.total_events() == 0 {
            return;
        }
        let ctx = ClosureCtx::new(trace, None);
        let globalize = |n: &Nesting| Nesting {
            outer_acq: self.builder.to_global(n.outer_acq),
            inner_acq: self.builder.to_global(n.inner_acq),
            ..*n
        };

        let all = nestings(trace);
        // Group by unordered lock pair.
        let mut by_pair: HashMap<(LockId, LockId), Vec<&Nesting>> = HashMap::new();
        for n in &all {
            if n.outer != n.inner {
                let key = (n.outer.min(n.inner), n.outer.max(n.inner));
                by_pair.entry(key).or_default().push(n);
            }
        }

        let max_patterns = if self.cfg.max_patterns == 0 {
            usize::MAX
        } else {
            self.cfg.max_patterns
        };
        let mut groups: Vec<(&(LockId, LockId), &Vec<&Nesting>)> = by_pair.iter().collect();
        groups.sort_unstable_by_key(|(k, _)| **k);
        'outer: for (_, group) in groups {
            for (i, &a) in group.iter().enumerate() {
                for &b in group.iter().skip(i + 1) {
                    if self.patterns >= max_patterns {
                        break 'outer;
                    }
                    // Opposite nesting orders in different threads.
                    if a.inner_acq.thread == b.inner_acq.thread
                        || a.outer != b.inner
                        || a.inner != b.outer
                    {
                        continue;
                    }
                    // Guarded by a common lock (other than the pair):
                    // the inversion is benign.
                    if guarded(trace, a, b) {
                        continue;
                    }
                    self.patterns += 1;
                    let (ga, gb) = (globalize(a), globalize(b));
                    if witness(po, &ctx, &self.cfg.saturation, a, b)
                        && self.reported.insert((ga.inner_acq, gb.inner_acq))
                    {
                        self.deadlocks.push(Deadlock {
                            first: ga,
                            second: gb,
                        });
                    }
                }
            }
        }
    }
}

impl<P: PartialOrderIndex> Analysis for DeadlockPredictor<P> {
    type Cfg = DeadlockCfg;
    type Report = DeadlockReport<P>;

    fn new(cfg: Self::Cfg) -> Self {
        DeadlockPredictor {
            builder: BaseOrderBuilder::observing(cfg.window),
            cfg,
            patterns: 0,
            deadlocks: Vec::new(),
            reported: HashSet::new(),
        }
    }

    fn feed(&mut self, thread: ThreadId, event: EventKind) {
        self.builder.feed(thread, event);
        if self.builder.window_full() {
            self.analyze_window();
            self.builder.retire_window();
        }
    }

    fn finish(mut self) -> DeadlockReport<P> {
        self.analyze_window();
        DeadlockReport {
            patterns: self.patterns,
            deadlocks: self.deadlocks,
            window: self.builder.stats(),
            base: self.builder.into_po(),
        }
    }
}

/// Runs deadlock prediction over `trace` using representation `P`: a
/// thin wrapper streaming the trace through [`DeadlockPredictor`].
pub fn predict<P: PartialOrderIndex>(trace: &Trace, cfg: &DeadlockCfg) -> DeadlockReport<P> {
    DeadlockPredictor::<P>::run(trace, cfg.clone())
}

/// `true` if both inner acquisitions happen while holding a common lock
/// other than the inverted pair itself.
fn guarded(trace: &Trace, a: &Nesting, b: &Nesting) -> bool {
    let ha: HashSet<LockId> = trace
        .locks_held_at(a.inner_acq)
        .into_iter()
        .filter(|&l| l != a.outer && l != a.inner)
        .collect();
    if ha.is_empty() {
        return false;
    }
    trace
        .locks_held_at(b.inner_acq)
        .into_iter()
        .filter(|&l| l != b.outer && l != b.inner)
        .any(|l| ha.contains(&l))
}

/// Witness check: both inner acquires co-enabled by a correct
/// reordering of a trace prefix. The prefix keeps each thread's outer
/// section open (the thread holds the lock the other thread requests),
/// so the open-section rules of [`witness_co_enabled`] enforce the
/// deadlock semantics. `base` filters ordered pairs; the fresh witness
/// index is built over `P`.
fn witness<P: PartialOrderIndex>(
    base: &P,
    ctx: &ClosureCtx<'_>,
    sat: &SaturationCfg,
    a: &Nesting,
    b: &Nesting,
) -> bool {
    // Already ordered: the two sections can never overlap.
    if base.reachable(a.inner_acq, b.outer_acq) || base.reachable(b.inner_acq, a.outer_acq) {
        return false;
    }
    witness_co_enabled::<P>(ctx, sat, &[a.inner_acq, b.inner_acq])
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_core::{GraphIndex, IncrementalCsst, SegTreeIndex, VectorClockIndex};
    use csst_trace::gen::{lock_program, LockProgramCfg};
    use csst_trace::TraceBuilder;

    fn classic_inversion() -> Trace {
        // T0: acq(a) acq(b) rel(b) rel(a); T1: acq(b) acq(a) rel(a) rel(b).
        let mut b = TraceBuilder::new();
        let la = b.lock("a");
        let lb = b.lock("b");
        b.on(0).acquire(la);
        b.on(0).acquire(lb);
        b.on(0).release(lb);
        b.on(0).release(la);
        b.on(1).acquire(lb);
        b.on(1).acquire(la);
        b.on(1).release(la);
        b.on(1).release(lb);
        b.build()
    }

    #[test]
    fn nesting_extraction() {
        let trace = classic_inversion();
        let ns = nestings(&trace);
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[0].outer, LockId(0));
        assert_eq!(ns[0].inner, LockId(1));
        assert_eq!(ns[1].outer, LockId(1));
        assert_eq!(ns[1].inner, LockId(0));
    }

    #[test]
    fn detects_classic_deadlock() {
        let trace = classic_inversion();
        let report = predict::<IncrementalCsst>(&trace, &DeadlockCfg::default());
        assert_eq!(report.patterns, 1);
        assert_eq!(report.deadlocks.len(), 1);
    }

    #[test]
    fn gate_lock_suppresses_deadlock() {
        // Same inversion but both nestings guarded by gate lock g.
        let mut b = TraceBuilder::new();
        let la = b.lock("a");
        let lb = b.lock("b");
        let g = b.lock("g");
        b.on(0).acquire(g);
        b.on(0).acquire(la);
        b.on(0).acquire(lb);
        b.on(0).release(lb);
        b.on(0).release(la);
        b.on(0).release(g);
        b.on(1).acquire(g);
        b.on(1).acquire(lb);
        b.on(1).acquire(la);
        b.on(1).release(la);
        b.on(1).release(lb);
        b.on(1).release(g);
        let trace = b.build();
        let report = predict::<IncrementalCsst>(&trace, &DeadlockCfg::default());
        assert!(report.deadlocks.is_empty(), "gate lock makes it benign");
    }

    #[test]
    fn ordering_suppresses_deadlock() {
        // The inversion exists but a fork edge orders T0's section
        // entirely before T1 starts: no witness.
        let mut b = TraceBuilder::new();
        let la = b.lock("a");
        let lb = b.lock("b");
        b.on(0).acquire(la);
        b.on(0).acquire(lb);
        b.on(0).release(lb);
        b.on(0).release(la);
        b.on(0).fork(1);
        b.on(1).acquire(lb);
        b.on(1).acquire(la);
        b.on(1).release(la);
        b.on(1).release(lb);
        let trace = b.build();
        let report = predict::<IncrementalCsst>(&trace, &DeadlockCfg::default());
        assert!(report.deadlocks.is_empty());
    }

    #[test]
    fn representations_agree_on_generated_traces() {
        for seed in 0..3 {
            let trace = lock_program(&LockProgramCfg {
                threads: 4,
                blocks_per_thread: 20,
                inversion_frac: 0.3,
                seed,
                ..Default::default()
            });
            let cfg = DeadlockCfg {
                max_patterns: 40,
                ..Default::default()
            };
            let a = predict::<IncrementalCsst>(&trace, &cfg);
            let b = predict::<SegTreeIndex>(&trace, &cfg);
            let c = predict::<VectorClockIndex>(&trace, &cfg);
            let d = predict::<GraphIndex>(&trace, &cfg);
            fn key<P>(r: &DeadlockReport<P>) -> Vec<(NodeId, NodeId)> {
                r.deadlocks
                    .iter()
                    .map(|d| (d.first.inner_acq, d.second.inner_acq))
                    .collect()
            }
            assert_eq!(key(&a), key(&b), "seed {seed}");
            assert_eq!(key(&a), key(&c), "seed {seed}");
            assert_eq!(key(&a), key(&d), "seed {seed}");
        }
    }
}
