//! The unified streaming interface of all analyses.
//!
//! An [`Analysis`] consumes one event at a time ([`feed`]) and produces
//! its report when the stream ends ([`finish`]) — the shape an online
//! system serving live event streams needs. Three kinds of analyses
//! implement it:
//!
//! * **Genuinely streaming** analyses ([`crate::hb::HbDetector`],
//!   [`crate::c11::C11Detector`]) update a growable
//!   [`csst_core::PartialOrderIndex`] per event and keep no event
//!   buffer: memory tracks the synchronization structure, not the
//!   trace length.
//! * **Predictive** analyses (races, deadlocks, memory bugs, …)
//!   fundamentally reason about *reorderings of the trace*. Their
//!   streaming form still builds the **base order** — fork/join,
//!   reads-from, issue/commit or real-time edges — incrementally per
//!   event through a [`crate::BaseOrderBuilder`]; only the candidate
//!   generation and witness checks run over buffered events at
//!   [`finish`] (or per window, below).
//! * **Windowed** predictive analyses bound that buffer: with
//!   `window: Some(n)` in their configuration, the stream is analyzed
//!   as consecutive *tumbling* windows of `n` events, candidates are
//!   emitted per window, and retirement resets the base order to a
//!   fresh index, dropping the window's edges. The base order speaks
//!   window-local ids, so neither peak buffered events nor any chain
//!   of the index exceed `n`.
//!
//! Every batch entry point (`predict`, `detect`, `check`, `generate`,
//! `analyze`) is a thin wrapper that streams the given trace through
//! [`feed`], so batch and streaming runs are the same code path by
//! construction.
//!
//! # Windowing soundness contract
//!
//! Windowed runs trade completeness for bounded memory under a precise
//! contract:
//!
//! * **Each window is analyzed as an independent execution.** Every
//!   report is witnessed by a correct reordering of the events of its
//!   own window under the constraints observed *within* that window —
//!   no false positives with respect to the windowed observation, in
//!   exactly the sense that any predictive tool's report is relative to
//!   the trace it was shown.
//! * **No report spans a window boundary.** Candidate pairs, deadlock
//!   patterns and consistency violations involving events of different
//!   windows are never examined: reports beyond the window are
//!   *missed*, never misreported.
//! * **Boundary constraints are dropped conservatively for the
//!   window.** A read observing a retired writer contributes no
//!   reads-from constraint, a fork/join edge to a retired event is
//!   skipped, and a lock section spanning the boundary loses its
//!   mutual-exclusion pairing — each window sees exactly the
//!   constraints its own events generate.
//! * **Window-respecting traces lose nothing.** If every constraint
//!   and candidate pair of the trace falls within single windows (in
//!   particular, whenever the trace fits in one window), the windowed
//!   run produces exactly the batch report.
//!
//! [`feed`]: Analysis::feed
//! [`finish`]: Analysis::finish

use csst_core::ThreadId;
use csst_trace::{EventKind, Trace};

/// A dynamic concurrency analysis consuming an event stream.
///
/// ```
/// use csst_analyses::hb::HbDetector;
/// use csst_analyses::Analysis;
/// use csst_core::{ThreadId, VectorClockIndex};
/// use csst_trace::{EventKind, VarId};
///
/// let mut hb = HbDetector::<VectorClockIndex>::new(());
/// hb.feed(ThreadId(0), EventKind::Write { var: VarId(0), value: 1 });
/// hb.feed(ThreadId(1), EventKind::Read { var: VarId(0), value: 1 });
/// let report = hb.finish();
/// assert_eq!(report.races.len(), 1);
/// ```
pub trait Analysis: Sized {
    /// Configuration consumed at construction time.
    type Cfg;
    /// The analysis result produced by [`finish`](Self::finish).
    type Report;

    /// Creates the analysis in its initial state.
    fn new(cfg: Self::Cfg) -> Self;

    /// Consumes the next event of the stream: the event is appended to
    /// `thread`'s chain (positions are assigned in arrival order).
    ///
    /// Predictive analyses extend their base order here; windowed runs
    /// additionally emit the window's candidates and retire it when the
    /// window fills.
    fn feed(&mut self, thread: ThreadId, event: EventKind);

    /// Ends the stream and produces the report (analyzing the final —
    /// possibly partial — window first).
    fn finish(self) -> Self::Report;

    /// Streams a recorded trace through [`feed`](Self::feed) in its
    /// observed total order — what the batch entry points do.
    fn run(trace: &Trace, cfg: Self::Cfg) -> Self::Report {
        let mut analysis = Self::new(cfg);
        for (id, ev) in trace.iter_order() {
            analysis.feed(id.thread, ev.kind);
        }
        analysis.finish()
    }
}
