//! Sharded streaming happens-before detection.
//!
//! [`ShardedHb`] is the multi-core form of
//! [`csst_analyses::hb::HbDetector`]: the same analysis, with the
//! expensive half — the per-variable access-frontier reachability
//! probes — partitioned across N shard workers, each owning a full
//! index replica it probes locally.
//!
//! ## Why the sharded and sequential detectors agree bit-for-bit
//!
//! * The router runs the *same* [`SyncTracker`] as the sequential
//!   detector, so both derive the same synchronization edges in the
//!   same order, and counts `sync_edges` by checked insertion into its
//!   own replica — the identical code path.
//! * Edges are broadcast to every worker through its FIFO channel,
//!   interleaved with the routed accesses in global stream order, so
//!   the probe for the access with sequence number `s` sees exactly
//!   the edges the sequential detector had inserted before event `s` —
//!   and by the core's growth-invariance guarantee, the replica
//!   answering with shorter chains (it never appends) gives the same
//!   reachability answers as the sequential index.
//! * Each reported race is tagged `(seq, probe_idx)` — the event's
//!   global sequence number and its position in the event's
//!   deterministic probe order — so sorting the merged race list
//!   reproduces the sequential report order exactly.
//!
//! Accesses are routed by variable (`var % shards`): all probes of one
//! variable's frontier land on one worker, which therefore owns that
//! frontier outright — no cross-shard state, only cross-shard *edges*,
//! which flow through the channels.
//!
//! ## Fault containment
//!
//! A shard worker is a panic-isolation boundary: its loop runs under
//! [`catch_unwind`](std::panic::catch_unwind). A panicking worker
//! flushes nothing further, records its panic message in the shared
//! failure cell, *poisons* its watermark slot (so router barriers fail
//! fast instead of spinning) and then keeps draining its channel into
//! the void so the router's bounded sends never wedge on a dead
//! peer. Every router-side operation returns a
//! [`ServeError`] instead of panicking: sends time out into
//! [`ServeError::Backpressure`], barriers into
//! [`ServeError::Deadline`], and worker death surfaces as
//! [`ServeError::WorkerPanic`].
//!
//! `csst-serve` does not use this type: its hb sessions run the
//! sequential [`HbDetector`](csst_analyses::hb::HbDetector), which
//! matched or beat every shard count measured so far. `ShardedHb`
//! stays as a library type for the end-to-end benchmark's per-layer
//! pipeline spans and the `ingest_shards*` bench cells.

use crate::error::{panic_message, ServeError};
use crate::shard::{drain, BatchSender, ShardCfg, Watermarks};
use csst_analyses::hb::{AccessFrontier, SyncTracker};
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::{EventKind, Trace, VarId};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A race observation tagged for deterministic merging: the reporting
/// access's global sequence number and the probe's position within
/// that access's frontier sweep.
type RaceTag = (u64, usize, NodeId, NodeId);

/// Locks the shared race buffer, recovering from mutex poisoning: the
/// buffer's invariant (a list of independently-appended observations)
/// survives a panicking appender, so the poison flag carries no
/// information the failure cell does not already carry.
fn lock_races(races: &Mutex<Vec<RaceTag>>) -> MutexGuard<'_, Vec<RaceTag>> {
    races
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum HbMsg {
    /// A synchronization edge (broadcast to every shard).
    Edge(NodeId, NodeId),
    /// A plain access routed to the shard owning `var`'s frontier.
    Access {
        seq: u64,
        id: NodeId,
        var: VarId,
        write: bool,
    },
    /// Stream position marker: publish to the watermark slot once
    /// everything before it is merged.
    Watermark(u64),
}

struct Worker {
    tx: BatchSender<HbMsg>,
    join: JoinHandle<usize>,
}

/// Report of a sharded HB run; identical in content to the sequential
/// [`HbReport`](csst_analyses::hb::HbReport) over the same stream.
#[derive(Debug, Clone)]
pub struct ShardedHbReport {
    /// HB-races in the sequential detector's report order.
    pub races: Vec<(NodeId, NodeId)>,
    /// Synchronization edges inserted.
    pub sync_edges: usize,
    /// Events ingested.
    pub events: u64,
    /// Worker count the pipeline ran with.
    pub shards: usize,
    /// Approximate heap footprint per shard (replica + frontier).
    pub shard_bytes: Vec<usize>,
}

/// The sharded streaming HB detector (see the [module docs](self)).
pub struct ShardedHb<P> {
    cfg: ShardCfg,
    sync: SyncTracker,
    /// The router's own replica: answers online ordering queries and
    /// counts `sync_edges` through the same checked-insert path as the
    /// sequential detector.
    router: P,
    sync_edges: usize,
    seq: u64,
    edge_buf: Vec<(NodeId, NodeId)>,
    workers: Vec<Worker>,
    watermarks: Watermarks,
    races: Arc<Mutex<Vec<RaceTag>>>,
    /// First worker panic message, if any (shared with the workers).
    failure: Arc<Mutex<Option<String>>>,
    /// Sequence number of the last broadcast watermark.
    last_watermark: u64,
}

/// The happy-path worker body; panics unwind into [`worker_loop`]'s
/// containment wrapper.
fn worker_body<P: PartialOrderIndex>(
    rx: &std::sync::mpsc::Receiver<Vec<HbMsg>>,
    watermarks: &Watermarks,
    slot: usize,
    races: &Mutex<Vec<RaceTag>>,
    cfg: &ShardCfg,
) -> usize {
    let mut replica = P::new();
    let mut frontier = AccessFrontier::new();
    let mut local: Vec<RaceTag> = Vec::new();
    drain(rx, |msg| {
        cfg.faults.on_worker_msg(slot);
        match msg {
            HbMsg::Edge(src, dst) => {
                replica.ensure_len(src.thread, src.pos as usize + 1);
                replica.ensure_len(dst.thread, dst.pos as usize + 1);
                // The router already validated the edge on its replica;
                // checked insert keeps the replicas identical even for
                // edges the router rejected.
                let _ = replica.insert_edge_checked(src, dst);
            }
            HbMsg::Access {
                seq,
                id,
                var,
                write,
            } => {
                replica.ensure_len(id.thread, id.pos as usize + 1);
                frontier.on_access(&replica, id, var, write, |probe_idx, src| {
                    local.push((seq, probe_idx, src, id));
                });
            }
            HbMsg::Watermark(seq) => {
                // Everything before the marker is merged; make the local
                // observations visible before publishing the watermark so
                // a router that saw the watermark also sees the races.
                if !local.is_empty() {
                    lock_races(races).append(&mut local);
                }
                watermarks.publish(slot, seq);
            }
        }
    });
    if !local.is_empty() {
        lock_races(races).append(&mut local);
    }
    replica.memory_bytes() + frontier.memory_bytes()
}

/// Panic-isolation wrapper around [`worker_body`]: a panic records its
/// message, poisons the watermark slot (routers waiting on it fail
/// fast) and leaves a drain-and-discard loop behind so the router's
/// bounded sends never block on a dead worker.
fn worker_loop<P: PartialOrderIndex>(
    rx: std::sync::mpsc::Receiver<Vec<HbMsg>>,
    watermarks: Watermarks,
    slot: usize,
    races: Arc<Mutex<Vec<RaceTag>>>,
    failure: Arc<Mutex<Option<String>>>,
    cfg: ShardCfg,
) -> usize {
    let body =
        std::panic::AssertUnwindSafe(|| worker_body::<P>(&rx, &watermarks, slot, &races, &cfg));
    match std::panic::catch_unwind(body) {
        Ok(bytes) => bytes,
        Err(payload) => {
            let msg = format!("shard worker {slot}: {}", panic_message(payload.as_ref()));
            failure
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get_or_insert(msg);
            watermarks.poison(slot);
            while rx.recv().is_ok() {}
            0
        }
    }
}

impl<P: PartialOrderIndex + 'static> ShardedHb<P> {
    /// Spawns the shard workers and returns a pipeline ready to ingest.
    pub fn new(cfg: ShardCfg) -> Self {
        let shards = cfg.shards.max(1);
        let watermarks = Watermarks::new(shards);
        let races: Arc<Mutex<Vec<RaceTag>>> = Arc::new(Mutex::new(Vec::new()));
        let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let workers = (0..shards)
            .map(|slot| {
                let (tx, rx) = sync_channel::<Vec<HbMsg>>(cfg.channel_capacity.max(1));
                let wm = watermarks.clone();
                let races = Arc::clone(&races);
                let failure = Arc::clone(&failure);
                let worker_cfg = cfg.clone();
                let join = std::thread::Builder::new()
                    .name(format!("csst-hb-shard-{slot}"))
                    .spawn(move || worker_loop::<P>(rx, wm, slot, races, failure, worker_cfg))
                    .expect("spawn shard worker");
                Worker {
                    tx: BatchSender::new(tx, slot, &cfg),
                    join,
                }
            })
            .collect();
        ShardedHb {
            sync: SyncTracker::new(),
            router: P::new(),
            sync_edges: 0,
            seq: 0,
            edge_buf: Vec::new(),
            workers,
            watermarks,
            races,
            failure,
            last_watermark: 0,
            cfg,
        }
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// The first worker panic message, if any worker has died.
    pub fn failure(&self) -> Option<String> {
        self.failure
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Ingests one event: derives its sync edges on the router,
    /// broadcasts them to every shard, and routes its access work to
    /// the shard owning the variable.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when a worker channel stays full
    /// past the send timeout. (A *dead* worker does not error here —
    /// its channel drains into the void; death is surfaced as
    /// [`ServeError::WorkerPanic`] by the next barrier.)
    pub fn feed(&mut self, thread: ThreadId, event: EventKind) -> Result<(), ServeError> {
        self.seq += 1;
        let seq = self.seq;
        self.edge_buf.clear();
        let id = self.sync.feed(thread, &event, &mut self.edge_buf);
        let appended = self.router.append(thread);
        debug_assert_eq!(appended, id, "tracker and router replica disagree");
        for &(src, dst) in &self.edge_buf {
            if self.router.insert_edge_checked(src, dst).is_ok() {
                self.sync_edges += 1;
            }
            for w in &mut self.workers {
                w.tx.push(HbMsg::Edge(src, dst))?;
            }
        }
        if let EventKind::Read { var, .. } | EventKind::Write { var, .. } = event {
            let shard = var.0 as usize % self.workers.len();
            self.workers[shard].tx.push(HbMsg::Access {
                seq,
                id,
                var,
                write: matches!(event, EventKind::Write { .. }),
            })?;
        }
        if seq - self.last_watermark >= self.cfg.epoch_events as u64 {
            self.broadcast_watermark(seq)?;
        }
        Ok(())
    }

    fn broadcast_watermark(&mut self, seq: u64) -> Result<(), ServeError> {
        self.last_watermark = seq;
        for w in &mut self.workers {
            w.tx.push(HbMsg::Watermark(seq))?;
            w.tx.flush()?;
        }
        Ok(())
    }

    /// Barrier: every shard merges the full prefix ingested so far.
    /// Queries answered after a flush observe no half-merged state.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanic`] when a shard worker has died,
    /// [`ServeError::Deadline`] when the barrier misses the configured
    /// flush deadline, [`ServeError::Backpressure`] on a wedged
    /// channel.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        let seq = self.seq;
        self.broadcast_watermark(seq)?;
        self.watermarks
            .wait_until(seq, self.cfg.flush_deadline)
            .map_err(|e| self.attach_failure(e))
    }

    /// Swaps the generic poisoned-watermark message for the worker's
    /// actual panic message when it is already available.
    fn attach_failure(&self, e: ServeError) -> ServeError {
        match (&e, self.failure()) {
            (ServeError::WorkerPanic(_), Some(msg)) => ServeError::WorkerPanic(msg),
            _ => e,
        }
    }

    /// Online ordering query against the fully-merged prefix: is `a`
    /// ordered before `b` in the happens-before order built so far?
    /// Flushes first, so the answer is final for the current prefix.
    ///
    /// # Errors
    ///
    /// The flush barrier's errors ([`flush`](Self::flush)).
    pub fn ordered(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServeError> {
        self.flush()?;
        Ok(self.router.reachable(a, b))
    }

    /// Snapshot of the races found in the fully-merged prefix, in the
    /// sequential detector's report order.
    ///
    /// # Errors
    ///
    /// The flush barrier's errors ([`flush`](Self::flush)).
    pub fn races_snapshot(&mut self) -> Result<Vec<(NodeId, NodeId)>, ServeError> {
        self.flush()?;
        let mut tagged = lock_races(&self.races).clone();
        tagged.sort_by_key(|&(seq, probe, _, _)| (seq, probe));
        Ok(tagged
            .into_iter()
            .map(|(_, _, src, dst)| (src, dst))
            .collect())
    }

    /// Flushes, stops the workers and produces the merged report.
    ///
    /// Always joins every worker thread — even on error, no thread is
    /// leaked — and a worker-join failure is reported as a
    /// [`ServeError::WorkerPanic`], never propagated as a panic.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanic`] when any worker died (the report
    /// would be missing that shard's races), plus the flush barrier's
    /// errors.
    pub fn finish(mut self) -> Result<ShardedHbReport, ServeError> {
        let flushed = self.flush();
        let shards = self.workers.len();
        let mut shard_bytes = Vec::with_capacity(shards);
        let mut join_failure: Option<ServeError> = None;
        for w in std::mem::take(&mut self.workers) {
            drop(w.tx); // hang up: the worker drains and returns
            match w.join.join() {
                Ok(bytes) => shard_bytes.push(bytes),
                // Unreachable in practice (the worker catches its own
                // panics), but a join failure must stay a report-level
                // error, not a propagated panic.
                Err(payload) => {
                    join_failure = Some(ServeError::WorkerPanic(panic_message(payload.as_ref())))
                }
            }
        }
        if let Some(msg) = self.failure() {
            return Err(ServeError::WorkerPanic(msg));
        }
        if let Some(e) = join_failure {
            return Err(e);
        }
        flushed?;
        let mut tagged = std::mem::take(&mut *lock_races(&self.races));
        tagged.sort_by_key(|&(seq, probe, _, _)| (seq, probe));
        Ok(ShardedHbReport {
            races: tagged
                .into_iter()
                .map(|(_, _, src, dst)| (src, dst))
                .collect(),
            sync_edges: self.sync_edges,
            events: self.seq,
            shards,
            shard_bytes,
        })
    }

    /// Batch convenience: streams a recorded trace through the
    /// pipeline.
    ///
    /// # Errors
    ///
    /// The errors of [`feed`](Self::feed) and [`finish`](Self::finish).
    pub fn run(trace: &Trace, cfg: ShardCfg) -> Result<ShardedHbReport, ServeError> {
        let mut hb = ShardedHb::<P>::new(cfg);
        for (id, ev) in trace.iter_order() {
            hb.feed(id.thread, ev.kind)?;
        }
        hb.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use csst_analyses::hb;
    use csst_core::{IncrementalCsst, VectorClockIndex};
    use csst_trace::gen::{racy_program, RacyProgramCfg};
    use std::time::Duration;

    #[test]
    fn matches_sequential_detector_across_shard_counts() {
        for seed in 0..2 {
            let trace = racy_program(&RacyProgramCfg {
                threads: 5,
                events_per_thread: 300,
                vars: 6,
                locks: 2,
                lock_frac: 0.5,
                shared_frac: 0.4,
                seed,
                ..Default::default()
            });
            let seq = hb::detect::<VectorClockIndex>(&trace);
            for shards in [1, 2, 4] {
                let cfg = ShardCfg {
                    batch: 8,
                    epoch_events: 64,
                    ..ShardCfg::with_shards(shards)
                };
                let sharded = ShardedHb::<VectorClockIndex>::run(&trace, cfg).unwrap();
                assert_eq!(sharded.races, seq.races, "seed {seed} shards {shards}");
                assert_eq!(sharded.sync_edges, seq.sync_edges, "seed {seed}");
                assert_eq!(sharded.shard_bytes.len(), shards);
            }
        }
    }

    #[test]
    fn online_queries_observe_merged_prefixes() {
        use csst_trace::{EventKind as K, LockId, VarId};
        let mut hb = ShardedHb::<IncrementalCsst>::new(ShardCfg::with_shards(2));
        hb.feed(
            ThreadId(0),
            K::Write {
                var: VarId(0),
                value: 1,
            },
        )
        .unwrap();
        hb.feed(ThreadId(0), K::Release { lock: LockId(0) })
            .unwrap();
        hb.feed(ThreadId(1), K::Acquire { lock: LockId(0) })
            .unwrap();
        hb.feed(
            ThreadId(1),
            K::Write {
                var: VarId(0),
                value: 2,
            },
        )
        .unwrap();
        assert!(hb.ordered(NodeId::new(0, 0), NodeId::new(1, 1)).unwrap());
        assert!(!hb.ordered(NodeId::new(1, 0), NodeId::new(0, 0)).unwrap());
        assert!(hb.races_snapshot().unwrap().is_empty());
        hb.feed(
            ThreadId(2),
            K::Write {
                var: VarId(0),
                value: 3,
            },
        )
        .unwrap();
        assert_eq!(
            hb.races_snapshot().unwrap(),
            vec![(NodeId::new(1, 1), NodeId::new(2, 0))]
        );
        let report = hb.finish().unwrap();
        assert_eq!(report.events, 5);
        assert_eq!(report.sync_edges, 1);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_reported() {
        let trace = racy_program(&RacyProgramCfg {
            threads: 4,
            events_per_thread: 100,
            vars: 4,
            shared_frac: 0.6,
            ..Default::default()
        });
        let cfg = ShardCfg {
            epoch_events: 16,
            flush_deadline: Duration::from_secs(5),
            faults: FaultPlan::parse("panic-worker=0@10").unwrap(),
            ..ShardCfg::with_shards(2)
        };
        // The panic must neither unwind into this thread nor hang the
        // pipeline: it surfaces as a typed WorkerPanic at the barrier
        // or at finish.
        match ShardedHb::<VectorClockIndex>::run(&trace, cfg) {
            Err(ServeError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected fault"), "{msg}");
            }
            Ok(_) => panic!("a dead shard must not produce a clean report"),
            Err(other) => panic!("want WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn dropped_watermark_times_out_instead_of_hanging() {
        use csst_trace::{EventKind as K, VarId};
        let cfg = ShardCfg {
            flush_deadline: Duration::from_millis(30),
            faults: FaultPlan::parse("drop-send=0@1").unwrap(),
            ..ShardCfg::with_shards(1)
        };
        let mut hb = ShardedHb::<VectorClockIndex>::new(cfg);
        hb.feed(
            ThreadId(0),
            K::Write {
                var: VarId(0),
                value: 1,
            },
        )
        .unwrap();
        // The first send to shard 0 carries this flush's watermark and
        // is dropped: the barrier must time out, not spin forever.
        match hb.flush() {
            Err(ServeError::Deadline { what, .. }) => assert_eq!(what, "flush barrier"),
            other => panic!("want Deadline, got {other:?}"),
        }
        // The next flush broadcasts a fresh watermark that does get
        // through; the pipeline recovers. (The dropped access makes the
        // report incomplete, which is exactly what the fault models —
        // the *structure* stays live.)
        hb.flush().unwrap();
        drop(hb.finish());
    }
}
