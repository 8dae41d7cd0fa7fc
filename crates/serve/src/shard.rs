//! Shared plumbing of the sharded ingest pipeline: configuration,
//! bounded per-worker channels with message batching, and the
//! epoch/watermark protocol that lets the router tell when every shard
//! has merged a prefix of the event stream.
//!
//! The pipeline is a router/worker design. The **router** (the thread
//! calling [`feed`](crate::ShardedHb::feed)) assigns each event its
//! global sequence number, derives the synchronization edges it induces
//! and decides which shard owns its expensive work; **workers** own the
//! per-shard state (an index replica plus the frontier of the variables
//! routed to them) and apply messages strictly in stream order. All
//! cross-shard information — sync edges, fork/join resolution — flows
//! through the same bounded MPSC channels as the routed work, so a
//! worker that processes message `n` has, by construction, merged every
//! edge the first `n` messages carried.
//!
//! **Watermarks.** Every [`ShardCfg::epoch_events`] events (and on
//! every explicit flush) the router broadcasts the current sequence
//! number; each worker publishes it to its atomic watermark slot after
//! draining everything before it. `Watermarks::wait_until` then gives
//! the router a barrier: once every slot is ≥ `seq`, the prefix up to
//! `seq` is fully merged on every shard, and query answers drawn from
//! the merged state are final. Queries never observe a half-merged
//! suffix because they are answered only behind that barrier.
//!
//! **Fault containment.** Nothing here blocks forever: sends time out
//! into [`ServeError::Backpressure`], barrier waits time out into
//! [`ServeError::Deadline`], and a worker that dies *poisons* its
//! watermark slot ([`Watermarks::poison`]) so a waiting router fails
//! fast with [`ServeError::WorkerPanic`] instead of spinning on a
//! watermark that will never advance.

use crate::error::ServeError;
use crate::fault::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Watermark value a dying worker publishes: any barrier waiting on the
/// slot fails fast with a [`ServeError::WorkerPanic`].
pub const POISONED: u64 = u64::MAX;

/// Configuration of a sharded ingest pipeline.
#[derive(Debug, Clone)]
pub struct ShardCfg {
    /// Number of shard workers (each owns one index replica and one
    /// slice of the per-variable state). `1` degenerates to a pipeline
    /// with a single worker — useful as the scaling baseline.
    pub shards: usize,
    /// Messages per channel send: the router coalesces up to this many
    /// messages per worker before paying a channel round-trip.
    pub batch: usize,
    /// Bound of each worker channel, in batches. Backpressure: a full
    /// channel blocks the router rather than growing a queue.
    pub channel_capacity: usize,
    /// Watermark broadcast period, in events.
    pub epoch_events: usize,
    /// How long a send may wait on a full channel before it fails with
    /// [`ServeError::Backpressure`].
    pub send_timeout: Duration,
    /// How long a flush barrier may wait for the workers' watermarks
    /// before it fails with [`ServeError::Deadline`].
    pub flush_deadline: Duration,
    /// Deterministic fault injection plan (empty in production).
    pub faults: FaultPlan,
}

impl Default for ShardCfg {
    fn default() -> Self {
        ShardCfg {
            shards: 2,
            batch: 128,
            channel_capacity: 64,
            epoch_events: 1024,
            send_timeout: Duration::from_secs(10),
            flush_deadline: Duration::from_secs(30),
            faults: FaultPlan::none(),
        }
    }
}

impl ShardCfg {
    /// A pipeline with `shards` workers and default batching.
    pub fn with_shards(shards: usize) -> Self {
        ShardCfg {
            shards: shards.max(1),
            ..Default::default()
        }
    }
}

/// One atomic watermark slot per worker; the router's view of how far
/// every shard has merged the stream.
#[derive(Debug, Clone)]
pub struct Watermarks {
    slots: Arc<Vec<AtomicU64>>,
}

impl Watermarks {
    /// Creates `n` zeroed slots.
    pub fn new(n: usize) -> Self {
        Watermarks {
            slots: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Publishes worker `i`'s merged prefix (called by the worker after
    /// draining every message before the watermark).
    pub fn publish(&self, i: usize, seq: u64) {
        self.slots[i].store(seq, Ordering::Release);
    }

    /// Marks worker `i` dead: barriers waiting on the slot fail fast
    /// instead of spinning forever.
    pub fn poison(&self, i: usize) {
        self.slots[i].store(POISONED, Ordering::Release);
    }

    /// Blocks (spinning with yields; watermark gaps are bounded by the
    /// channel capacity, so waits are short) until every worker has
    /// merged the prefix up to `seq`, a slot is poisoned, or `deadline`
    /// elapses.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanic`] on a poisoned slot,
    /// [`ServeError::Deadline`] when the barrier misses `deadline`.
    pub fn wait_until(&self, seq: u64, deadline: Duration) -> Result<(), ServeError> {
        let start = Instant::now();
        for (i, slot) in self.slots.iter().enumerate() {
            loop {
                let mark = slot.load(Ordering::Acquire);
                if mark == POISONED {
                    return Err(ServeError::WorkerPanic(format!(
                        "shard worker {i} died before merging the stream prefix"
                    )));
                }
                if mark >= seq {
                    break;
                }
                if start.elapsed() > deadline {
                    return Err(ServeError::Deadline {
                        what: "flush barrier",
                        after: deadline,
                    });
                }
                thread::yield_now();
            }
        }
        Ok(())
    }
}

/// Router-side handle of one worker channel: a bounded sender plus the
/// pending batch being coalesced.
#[derive(Debug)]
pub struct BatchSender<M> {
    tx: SyncSender<Vec<M>>,
    pending: Vec<M>,
    batch: usize,
    slot: usize,
    timeout: Duration,
    faults: FaultPlan,
}

impl<M> BatchSender<M> {
    /// Wraps worker `slot`'s bounded sender; batches of up to
    /// `cfg.batch` messages, sends bounded by `cfg.send_timeout`.
    pub fn new(tx: SyncSender<Vec<M>>, slot: usize, cfg: &ShardCfg) -> Self {
        BatchSender {
            tx,
            pending: Vec::with_capacity(cfg.batch),
            batch: cfg.batch.max(1),
            slot,
            timeout: cfg.send_timeout,
            faults: cfg.faults.clone(),
        }
    }

    /// Queues one message, sending the batch when full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the channel stays full past
    /// the send timeout (the worker is wedged, not merely busy).
    pub fn push(&mut self, msg: M) -> Result<(), ServeError> {
        self.pending.push(msg);
        if self.pending.len() >= self.batch {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends the pending batch, if any. A disconnected channel (the
    /// worker panicked and its discard loop also ended) is *not* an
    /// error here — worker death is detected and reported through the
    /// poisoned watermark, and dropping the batch is then harmless.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] on a send-timeout.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(&mut self.pending, Vec::with_capacity(self.batch));
        if self.faults.on_send(self.slot) {
            return Ok(()); // injected drop-send: the batch vanishes
        }
        let mut batch = batch;
        let start = Instant::now();
        loop {
            match self.tx.try_send(batch) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Ok(()),
                Err(TrySendError::Full(b)) => {
                    if start.elapsed() > self.timeout {
                        return Err(ServeError::Backpressure {
                            shard: self.slot,
                            waited: start.elapsed(),
                        });
                    }
                    batch = b;
                    thread::yield_now();
                }
            }
        }
    }
}

/// Worker-side batch iterator: drains batches off the channel until the
/// router hangs up, yielding messages in stream order.
pub fn drain<M>(rx: &Receiver<Vec<M>>, mut apply: impl FnMut(M)) {
    while let Ok(batch) = rx.recv() {
        for msg in batch {
            apply(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn poisoned_watermark_fails_the_barrier_fast() {
        let wm = Watermarks::new(2);
        wm.publish(0, 10);
        wm.poison(1);
        match wm.wait_until(5, Duration::from_secs(5)) {
            Err(ServeError::WorkerPanic(msg)) => assert!(msg.contains("worker 1"), "{msg}"),
            other => panic!("want WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn barrier_times_out_into_a_deadline_error() {
        let wm = Watermarks::new(1);
        match wm.wait_until(1, Duration::from_millis(20)) {
            Err(ServeError::Deadline { what, .. }) => assert_eq!(what, "flush barrier"),
            other => panic!("want Deadline, got {other:?}"),
        }
        wm.publish(0, 1);
        assert!(wm.wait_until(1, Duration::from_millis(20)).is_ok());
    }

    #[test]
    fn full_channel_times_out_into_backpressure() {
        let (tx, _rx) = sync_channel::<Vec<u8>>(1);
        let cfg = ShardCfg {
            batch: 1,
            send_timeout: Duration::from_millis(20),
            ..Default::default()
        };
        let mut sender = BatchSender::new(tx, 3, &cfg);
        sender.push(1).unwrap(); // fills the only slot (receiver never drains)
        match sender.push(2) {
            Err(ServeError::Backpressure { shard, .. }) => assert_eq!(shard, 3),
            other => panic!("want Backpressure, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_channel_is_not_a_send_error() {
        let (tx, rx) = sync_channel::<Vec<u8>>(1);
        drop(rx);
        let cfg = ShardCfg {
            batch: 1,
            ..Default::default()
        };
        let mut sender = BatchSender::new(tx, 0, &cfg);
        assert!(sender.push(1).is_ok(), "death is reported via watermarks");
    }
}
