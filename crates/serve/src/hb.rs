//! [`ShardedHb`]: a forwarder to the sequential [`HbDetector`], kept
//! because the end-to-end benchmark's traced hb pass calls it; that
//! pass's `serve.pipeline_*` spans therefore time the detector
//! `csst-serve`'s hb sessions run. The forwarder and [`ShardCfg`] go
//! when the benchmark drops those spans.

use csst_analyses::hb::{HbDetector, HbReport};
use csst_analyses::Analysis;
use csst_core::{NodeId, PartialOrderIndex, ThreadId};
use csst_trace::EventKind;
use std::convert::Infallible;

/// A shard count, ignored: every count the retired sharded pipeline
/// ran gave reports identical to the sequential detector's. It goes,
/// with [`ShardedHb`], when the benchmark drops its `serve.pipeline_*`
/// spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCfg;

impl ShardCfg {
    /// The configuration for `shards` workers; the count is ignored.
    pub fn with_shards(_shards: usize) -> Self {
        ShardCfg
    }
}

/// Streaming hb detection through [`HbDetector`]; no method can fail.
pub struct ShardedHb<P> {
    det: HbDetector<P>,
}

impl<P: PartialOrderIndex> ShardedHb<P> {
    /// An empty detector.
    pub fn new(_cfg: ShardCfg) -> Self {
        ShardedHb {
            det: HbDetector::new(()),
        }
    }

    /// Feeds one event.
    pub fn feed(&mut self, thread: ThreadId, event: EventKind) -> Result<(), Infallible> {
        self.det.feed(thread, event);
        Ok(())
    }

    /// Is `a` ordered before `b` in the happens-before order so far?
    pub fn ordered(&self, a: NodeId, b: NodeId) -> Result<bool, Infallible> {
        Ok(self.det.index().reachable(a, b))
    }

    /// The races found so far, in report order.
    pub fn races_snapshot(&self) -> Result<Vec<(NodeId, NodeId)>, Infallible> {
        Ok(self.det.races().to_vec())
    }

    /// The final report.
    pub fn finish(self) -> Result<HbReport<P>, Infallible> {
        Ok(self.det.finish())
    }
}
