//! Sharded M2-style race prediction.
//!
//! [`ShardedRace`] is the multi-core form of
//! [`csst_analyses::race::RacePredictor`]. The analysis splits
//! naturally:
//!
//! * the streaming base order (fork/join + reads-from) is cheap and
//!   inherently sequential — the router builds it with the same
//!   [`BaseOrderBuilder`] as the sequential predictor;
//! * candidate enumeration and selection
//!   ([`enumerate_candidates`]/[`select_candidates`]) are deterministic
//!   and *independent of witness outcomes*, so the set of pairs to
//!   check is fixed before any parallel work starts;
//! * the per-candidate witness checks — rebuilding and saturating a
//!   closure per pair, the expensive part — fan out across N workers
//!   in contiguous ranges of the selected list. Each worker builds its
//!   own [`ClosureCtx`] over the shared window trace and a fresh
//!   witness index per check; results merge back in candidate order.
//!   As in the sequential predictor, the base order is a `P` and each
//!   witness closure an insert-only `W` (by default `P`).
//!
//! Because the checked-candidate list and each individual verdict are
//! exactly the sequential predictor's, the merged race list is
//! bit-identical to the sequential report for every shard count —
//! windowed or not.
//!
//! ## Fault containment
//!
//! Witness workers are panic-isolation boundaries: each chunk runs
//! under [`catch_unwind`], and a panicked
//! chunk is *re-checked sequentially* on the caller thread — witness
//! checks are pure functions of the window trace, so the retried
//! verdicts (and therefore the report) are identical to a run where no
//! worker died. Only a panic that reproduces in the sequential retry
//! surfaces, as a typed [`ServeError::WorkerPanic`].

use crate::error::{panic_message, ServeError};
use crate::fault::FaultPlan;
use csst_analyses::race::{enumerate_candidates, select_candidates, RaceCfg};
use csst_analyses::saturation::{witness_co_enabled, ClosureCtx, SaturationCfg};
use csst_analyses::{BaseOrderBuilder, WindowStats};
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, Trace};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Report of a sharded race-prediction run; identical in content to
/// the sequential [`RaceReport`](csst_analyses::race::RaceReport).
#[derive(Debug, Clone)]
pub struct ShardedRaceReport {
    /// Predicted races (global event ids), in the sequential report
    /// order.
    pub races: Vec<(NodeId, NodeId)>,
    /// Candidate pairs witness-checked.
    pub candidates: usize,
    /// Edges inserted while building the base order.
    pub base_inserted: usize,
    /// Streaming/windowing counters.
    pub window: WindowStats,
    /// Worker count the witness checks fanned out over.
    pub shards: usize,
}

/// The sharded race predictor (see the [module docs](self)).
pub struct ShardedRace<P, W = P> {
    cfg: RaceCfg,
    shards: usize,
    faults: FaultPlan,
    builder: BaseOrderBuilder<P>,
    races: Vec<(NodeId, NodeId)>,
    candidates: usize,
    /// Witness chunks that panicked and were recovered sequentially.
    recovered_chunks: usize,
    witness: PhantomData<fn() -> W>,
}

/// Checks one chunk of candidate pairs, writing verdicts in place.
/// Pure modulo the injected faults, so a panicked chunk can be redone
/// from scratch.
fn check_chunk<W: PartialOrderIndex>(
    ctx: &ClosureCtx<'_>,
    sat: &SaturationCfg,
    faults: &FaultPlan,
    slot: usize,
    pairs: &[(NodeId, NodeId)],
    out: &mut [bool],
) {
    for (&(e1, e2), v) in pairs.iter().zip(out.iter_mut()) {
        faults.on_witness_check(slot);
        *v = witness_co_enabled::<W>(ctx, sat, &[e1, e2]);
    }
}

impl<P: PartialOrderIndex, W: PartialOrderIndex> ShardedRace<P, W> {
    /// Creates a predictor fanning witness checks over `shards`
    /// workers.
    pub fn new(cfg: RaceCfg, shards: usize) -> Self {
        Self::with_faults(cfg, shards, FaultPlan::none())
    }

    /// [`new`](Self::new) with a deterministic fault-injection plan
    /// exercising the witness-worker containment boundary.
    pub fn with_faults(cfg: RaceCfg, shards: usize, faults: FaultPlan) -> Self {
        ShardedRace {
            builder: BaseOrderBuilder::observing(cfg.window),
            cfg,
            shards: shards.max(1),
            faults,
            races: Vec::new(),
            candidates: 0,
            recovered_chunks: 0,
            witness: PhantomData,
        }
    }

    /// Races found in completed (retired) windows so far.
    pub fn races_so_far(&self) -> &[(NodeId, NodeId)] {
        &self.races
    }

    /// Witness chunks whose worker panicked and whose checks were
    /// recovered by the sequential retry.
    pub fn recovered_chunks(&self) -> usize {
        self.recovered_chunks
    }

    /// Ingests one event, analyzing and retiring the window when full.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanic`] when a witness check panics even in
    /// the sequential retry (see [the module docs](self)).
    pub fn feed(&mut self, thread: ThreadId, event: EventKind) -> Result<(), ServeError> {
        self.builder.feed(thread, event);
        if self.builder.window_full() {
            self.analyze_window()?;
            self.builder.retire_window();
        }
        Ok(())
    }

    /// Candidate generation sequentially, witness checks in parallel;
    /// chunks whose worker panicked are redone sequentially inline.
    fn analyze_window(&mut self) -> Result<(), ServeError> {
        let shards = self.shards;
        let sat = self.cfg.saturation.clone();
        let faults = self.faults.clone();
        let (trace, win) = self.builder.split();
        if trace.total_events() == 0 {
            return Ok(());
        }
        let candidates = enumerate_candidates(trace, self.cfg.recent);
        let remaining = self.cfg.max_candidates.saturating_sub(self.candidates);
        let checked = select_candidates(&win, trace, &candidates, remaining);
        self.candidates += checked.len();
        if checked.is_empty() {
            return Ok(());
        }
        let chunk = checked.len().div_ceil(shards);
        let mut verdicts = vec![false; checked.len()];
        let n_chunks = checked.len().div_ceil(chunk);
        let panicked: Vec<AtomicBool> = (0..n_chunks).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|s| {
            for (slot, (pairs, out)) in checked
                .chunks(chunk)
                .zip(verdicts.chunks_mut(chunk))
                .enumerate()
            {
                let sat = &sat;
                let faults = &faults;
                let panicked = &panicked[slot];
                s.spawn(move || {
                    // Each worker saturates its own closure context —
                    // contexts are pure functions of the window trace.
                    // A panicking check unwinds no further than this
                    // chunk: the verdicts are recomputed sequentially
                    // by the caller (partial writes to `out` are fine,
                    // the retry overwrites the whole chunk).
                    let chunk_body = AssertUnwindSafe(|| {
                        let ctx = ClosureCtx::new(trace, None);
                        check_chunk::<W>(&ctx, sat, faults, slot, pairs, out);
                    });
                    if catch_unwind(chunk_body).is_err() {
                        panicked.store(true, Ordering::Release);
                    }
                });
            }
        });
        // Degraded mode: redo panicked chunks on this thread. The
        // one-shot fault triggers have already fired, so an injected
        // panic does not reproduce; a *real* deterministic panic does,
        // and is surfaced as a typed error instead of unwinding.
        for (slot, flag) in panicked.iter().enumerate() {
            if !flag.load(Ordering::Acquire) {
                continue;
            }
            self.recovered_chunks += 1;
            let pairs = &checked[slot * chunk..((slot + 1) * chunk).min(checked.len())];
            let out = &mut verdicts[slot * chunk..((slot + 1) * chunk).min(checked.len())];
            let retry = AssertUnwindSafe(|| {
                let ctx = ClosureCtx::new(trace, None);
                check_chunk::<W>(&ctx, &sat, &faults, slot, pairs, out);
            });
            if let Err(payload) = catch_unwind(retry) {
                return Err(ServeError::WorkerPanic(format!(
                    "witness worker {slot}: {}",
                    panic_message(payload.as_ref())
                )));
            }
        }
        for (&(e1, e2), &racy) in checked.iter().zip(&verdicts) {
            if racy {
                self.races.push((win.to_global(e1), win.to_global(e2)));
            }
        }
        Ok(())
    }

    /// Analyzes the final window and produces the merged report.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanic`] when the final window's witness
    /// checks panic even in the sequential retry.
    pub fn finish(mut self) -> Result<ShardedRaceReport, ServeError> {
        self.analyze_window()?;
        Ok(ShardedRaceReport {
            races: self.races,
            candidates: self.candidates,
            base_inserted: self.builder.base_inserted(),
            window: self.builder.stats(),
            shards: self.shards,
        })
    }

    /// Batch convenience: streams a recorded trace through the
    /// predictor.
    ///
    /// # Errors
    ///
    /// The errors of [`feed`](Self::feed) and [`finish`](Self::finish).
    pub fn run(
        trace: &Trace,
        cfg: RaceCfg,
        shards: usize,
    ) -> Result<ShardedRaceReport, ServeError> {
        let mut r = Self::new(cfg, shards);
        for (id, ev) in trace.iter_order() {
            r.feed(id.thread, ev.kind)?;
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csst_analyses::race;
    use csst_core::{Csst, IncrementalCsst};
    use csst_trace::gen::{racy_program, RacyProgramCfg};

    #[test]
    fn matches_sequential_predictor_across_shard_counts() {
        for seed in 0..2 {
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
                max_candidates: 60,
                ..Default::default()
            };
            let seq = race::predict::<IncrementalCsst>(&trace, &cfg);
            for shards in [1, 2, 4] {
                let sharded =
                    ShardedRace::<IncrementalCsst>::run(&trace, cfg.clone(), shards).unwrap();
                assert_eq!(sharded.races, seq.races, "seed {seed} shards {shards}");
                assert_eq!(sharded.candidates, seq.candidates, "seed {seed}");
            }
        }
    }

    #[test]
    fn windowed_runs_match_too() {
        let trace = racy_program(&RacyProgramCfg {
            threads: 4,
            events_per_thread: 80,
            lock_frac: 0.3,
            shared_frac: 0.5,
            ..Default::default()
        });
        let cfg = RaceCfg {
            window: Some(64),
            ..Default::default()
        };
        let seq = race::predict::<Csst>(&trace, &cfg);
        let sharded = ShardedRace::<Csst>::run(&trace, cfg.clone(), 3).unwrap();
        assert_eq!(sharded.races, seq.races);
        assert_eq!(sharded.candidates, seq.candidates);
        assert_eq!(sharded.window.windows, seq.window.windows);
        // The windowed `csst` session engine: incremental witnesses.
        let mixed = ShardedRace::<Csst, IncrementalCsst>::run(&trace, cfg, 3).unwrap();
        assert_eq!(mixed.races, seq.races);
        assert_eq!(mixed.candidates, seq.candidates);
    }

    #[test]
    fn panicked_witness_chunk_is_recovered_sequentially() {
        let trace = racy_program(&RacyProgramCfg {
            threads: 4,
            events_per_thread: 60,
            vars: 4,
            locks: 2,
            lock_frac: 0.5,
            write_frac: 0.5,
            shared_frac: 0.6,
            seed: 1,
        });
        let cfg = RaceCfg {
            max_candidates: 60,
            window: Some(64),
            ..Default::default()
        };
        let seq = race::predict::<Csst>(&trace, &cfg);
        let faults = FaultPlan::parse("panic-witness=0@1").unwrap();
        let mut sharded = ShardedRace::<Csst>::with_faults(cfg.clone(), 2, faults);
        for (id, ev) in trace.iter_order() {
            sharded.feed(id.thread, ev.kind).unwrap();
        }
        assert_eq!(sharded.recovered_chunks(), 1, "the chunk must have died");
        let report = sharded.finish().unwrap();
        // Degraded-mode verdicts are identical to the sequential run.
        assert_eq!(report.races, seq.races);
        assert_eq!(report.candidates, seq.candidates);
    }
}
