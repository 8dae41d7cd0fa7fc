//! The Vector Clocks baseline ("VCs" in the paper's tables).
//!
//! Vector clocks summarize, per event, the whole backward set of the
//! event as a `k`-entry integer array \[Mattern 1989\]. Reachability
//! queries are then `O(1)` lookups, but inserting an ordering between
//! events in the *middle* of the partial order requires propagating the
//! source's clock across up to `n` later events — the `O(nk)` cost the
//! paper's CSSTs eliminate.
//!
//! [`VectorClockIndex`] is the paper-faithful baseline, including both
//! §5.1 optimizations:
//!
//! 1. **Early-stop propagation** — pushing a clock forward along a
//!    chain stops as soon as a join no longer changes anything.
//! 2. **Lazy chain suffixes** — clocks are only materialized up to the
//!    last event of a chain with an incoming direct ordering; later
//!    events derive their clock from that high-water mark.
//!
//! Even with both optimizations, propagation walks the chain *event by
//! event*, which is the linear cost visible throughout the paper's
//! tables.
//!
//! The index is capacity-free: clocks are allocated at a strided
//! width that doubles as chains are witnessed, so adding a chain
//! re-lays out existing clocks only `O(log k)` times overall.
//!
//! It does not support deletion: a clock merges its inputs
//! irreversibly, which is precisely why fully dynamic analyses cannot
//! use VCs (§1.1).
//!
//! Query paths are **allocation-free** by construction (audited
//! alongside the worklist query engine of
//! [`DynamicPo`](crate::DynamicPo)): `reachable`/`predecessor` read one
//! clock entry and `successor` binary-searches the materialized rows in
//! place. Only *updates* build owned clocks (`full_clock`), which is
//! inherent to clock propagation.

use crate::error::PoError;
use crate::index::{NodeId, Pos, ThreadId};
use crate::reach::{Domain, PartialOrderIndex};
use std::collections::{BTreeMap, VecDeque};

type Clock = Box<[Pos]>;

/// Vector-clock representation of a chain-DAG partial order (the
/// paper's "VCs" baseline).
///
/// Clock convention: `clock[t] = c` means the first `c` events of
/// chain `t` (positions `0..c`) happen at-or-before this event.
///
/// ```
/// use csst_core::{NodeId, PartialOrderIndex, VectorClockIndex};
/// # fn main() -> Result<(), csst_core::PoError> {
/// let mut po = VectorClockIndex::new();
/// po.insert_edge(NodeId::new(0, 10), NodeId::new(1, 20))?;
/// assert!(po.reachable(NodeId::new(0, 3), NodeId::new(1, 20)));
/// assert!(po.delete_edge(NodeId::new(0, 10), NodeId::new(1, 20)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VectorClockIndex {
    dom: Domain,
    /// Allocated clock width (`≥ chains()`), doubled on growth.
    stride: usize,
    /// Per chain: flattened materialized clock rows
    /// (`mat_len × stride`).
    rows: Vec<Vec<Pos>>,
    /// Per chain: outgoing cross edges by source position.
    out: Vec<BTreeMap<Pos, Vec<NodeId>>>,
    edges: usize,
    join_work: u64,
}

impl VectorClockIndex {
    #[inline]
    fn k(&self) -> usize {
        self.dom.chains()
    }

    #[inline]
    fn mat_len(&self, t: usize) -> usize {
        self.rows[t].len().checked_div(self.stride).unwrap_or(0)
    }

    /// Clock entry of event `⟨t, j⟩` in dimension `dim`.
    fn entry(&self, t: usize, j: Pos, dim: usize) -> Pos {
        let m = self.mat_len(t);
        let base = if m == 0 {
            0
        } else {
            let row = (j as usize).min(m - 1);
            self.rows[t][row * self.stride + dim]
        };
        if dim == t {
            base.max(j + 1)
        } else {
            base
        }
    }

    /// Full clock of event `⟨t, j⟩` as an owned vector.
    fn full_clock(&self, t: usize, j: Pos) -> Clock {
        let mut clock: Clock = vec![0; self.stride].into_boxed_slice();
        let m = self.mat_len(t);
        if m > 0 {
            let row = (j as usize).min(m - 1);
            clock.copy_from_slice(&self.rows[t][row * self.stride..(row + 1) * self.stride]);
        }
        clock[t] = clock[t].max(j + 1);
        clock
    }

    /// Materializes clock rows of chain `t` up to position `upto`
    /// (inclusive) — §5.1 optimization 2 creates clocks only up to the
    /// last event with an incoming direct ordering.
    fn materialize(&mut self, t: usize, upto: Pos) {
        let s = self.stride;
        let mut m = self.mat_len(t);
        while m <= upto as usize {
            let mut row = if m == 0 {
                vec![0; s]
            } else {
                self.rows[t][(m - 1) * s..m * s].to_vec()
            };
            row[t] = m as Pos + 1;
            self.rows[t].extend_from_slice(&row);
            m += 1;
        }
    }

    /// Joins `src` into row `j` of chain `t`; returns whether anything
    /// changed.
    fn join_row(&mut self, t: usize, j: usize, src: &[Pos]) -> bool {
        let s = self.stride;
        let row = &mut self.rows[t][j * s..(j + 1) * s];
        let mut changed = false;
        for (d, &v) in row.iter_mut().zip(src) {
            self.join_work += 1;
            if v > *d {
                *d = v;
                changed = true;
            }
        }
        changed
    }

    /// Propagates from the freshly inserted edge `src → dst`,
    /// event-by-event along each receiving chain with early stop.
    fn propagate(&mut self, src: NodeId, dst: NodeId) {
        let mut queue: VecDeque<(NodeId, NodeId)> = VecDeque::new();
        queue.push_back((src, dst));
        while let Some((src, dst)) = queue.pop_front() {
            let src_clock = self.full_clock(src.thread.index(), src.pos);
            let t = dst.thread.index();
            debug_assert!((dst.pos as usize) < self.mat_len(t), "target materialized");
            let m = self.mat_len(t);
            let mut j = dst.pos as usize;
            // Event-by-event walk with early stop (optimization 1).
            while j < m {
                if !self.join_row(t, j, &src_clock) {
                    break;
                }
                if let Some(targets) = self.out[t].get(&(j as Pos)) {
                    for &tgt in targets.clone().iter() {
                        queue.push_back((NodeId::new(dst.thread, j as Pos), tgt));
                    }
                }
                j += 1;
            }
            if j == m {
                // The propagation reached the lazy suffix: derived
                // clocks changed, so edges leaving it must re-fire.
                let suffix: Vec<(Pos, Vec<NodeId>)> = self.out[t]
                    .range(m as Pos..)
                    .map(|(&p, v)| (p, v.clone()))
                    .collect();
                for (p, targets) in suffix {
                    for tgt in targets {
                        queue.push_back((NodeId::new(dst.thread, p), tgt));
                    }
                }
            }
        }
    }

    /// Widens every materialized clock to `new_stride` entries (new
    /// dimensions start at 0: nothing is known about fresh chains).
    fn grow_stride(&mut self, new_stride: usize) {
        let old = self.stride;
        for row_buf in &mut self.rows {
            if row_buf.is_empty() {
                continue;
            }
            let m = row_buf.len() / old;
            let mut widened = Vec::with_capacity(m * new_stride);
            for r in 0..m {
                widened.extend_from_slice(&row_buf[r * old..(r + 1) * old]);
                widened.resize((r + 1) * new_stride, 0);
            }
            *row_buf = widened;
        }
        self.stride = new_stride;
    }

    /// Total number of per-entry clock joins performed — the
    /// propagation work the paper's analysis of VCs predicts to be
    /// `O(nk)` per insertion.
    pub fn join_work(&self) -> u64 {
        self.join_work
    }

    /// Number of materialized clock rows across all chains.
    pub fn materialized_rows(&self) -> usize {
        (0..self.k()).map(|t| self.mat_len(t)).sum()
    }
}

impl PartialOrderIndex for VectorClockIndex {
    fn new() -> Self {
        VectorClockIndex {
            dom: Domain::new(),
            stride: 0,
            rows: Vec::new(),
            out: Vec::new(),
            edges: 0,
            join_work: 0,
        }
    }

    fn name(&self) -> &'static str {
        "VCs"
    }

    fn chains(&self) -> usize {
        self.dom.chains()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.dom.chain_len(chain)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        if !self.dom.ensure_chain(chain) {
            return;
        }
        let k = self.dom.chains();
        if k > self.stride {
            self.grow_stride(k.next_power_of_two());
        }
        self.rows.resize(k, Vec::new());
        self.out.resize(k, BTreeMap::new());
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        // Positions need no physical storage: clocks materialize
        // lazily, so only the witnessed length advances.
        self.ensure_chain(chain);
        self.dom.ensure_len(chain, len);
    }

    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        self.out[from.thread.index()]
            .entry(from.pos)
            .or_default()
            .push(to);
        self.materialize(to.thread.index(), to.pos);
        self.propagate(from, to);
        self.edges += 1;
    }

    fn delete_edge_raw(&mut self, _from: NodeId, _to: NodeId) -> Result<(), PoError> {
        Err(PoError::DeletionUnsupported {
            structure: "vector clocks",
        })
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from.thread == to.thread {
            return from.pos <= to.pos;
        }
        if from.thread.index() >= self.k() || to.thread.index() >= self.k() {
            return false;
        }
        self.entry(to.thread.index(), to.pos, from.thread.index()) > from.pos
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let t1 = from.thread.index();
        let t2 = chain.index();
        if t1 == t2 {
            return Some(from.pos);
        }
        if t1 >= self.k() || t2 >= self.k() {
            return None;
        }
        // Rows are monotone along the chain: binary search for the
        // first event whose clock covers `from`.
        let s = self.stride;
        let m = self.mat_len(t2);
        let mut lo = 0usize;
        let mut hi = m;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.rows[t2][mid * s + t1] > from.pos {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo < m {
            Some(lo as Pos)
        } else {
            None // lazy suffix derives from the last row: same entry
        }
    }

    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let t1 = from.thread.index();
        let t2 = chain.index();
        if t1 == t2 {
            return Some(from.pos);
        }
        if t1 >= self.k() || t2 >= self.k() {
            return None;
        }
        match self.entry(t1, from.pos, t2) {
            0 => None,
            c => Some(c - 1),
        }
    }

    fn memory_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .map(|r| r.capacity() * std::mem::size_of::<Pos>())
            .sum();
        let out: usize = self
            .out
            .iter()
            .map(|m| {
                m.values()
                    .map(|v| {
                        std::mem::size_of::<Pos>()
                            + std::mem::size_of::<Vec<NodeId>>()
                            + v.capacity() * std::mem::size_of::<NodeId>()
                    })
                    .sum::<usize>()
            })
            .sum();
        std::mem::size_of::<Self>() + self.dom.memory_bytes() + rows + out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(t: u32, i: u32) -> NodeId {
        NodeId::new(t, i)
    }

    fn basic_suite<P: PartialOrderIndex>() {
        let po = P::with_capacity(2, 10);
        assert!(po.reachable(n(0, 0), n(0, 5)));
        assert!(po.reachable(n(1, 3), n(1, 3)));
        assert!(!po.reachable(n(0, 5), n(0, 0)));
        assert!(!po.reachable(n(0, 0), n(1, 0)));

        let mut po = P::new();
        po.insert_edge(n(0, 10), n(1, 20)).unwrap();
        assert!(po.reachable(n(0, 10), n(1, 20)));
        assert!(po.reachable(n(0, 0), n(1, 99)));
        assert!(!po.reachable(n(0, 11), n(1, 99)));
        assert!(!po.reachable(n(0, 10), n(1, 19)));
        assert_eq!(po.successor(n(0, 7), ThreadId(1)), Some(20));
        assert_eq!(po.predecessor(n(1, 20), ThreadId(0)), Some(10));
        assert_eq!(po.predecessor(n(1, 19), ThreadId(0)), None);
        assert!(po.delete_edge(n(0, 10), n(1, 20)).is_err());
        assert!(!po.supports_deletion());

        // Transitive propagation through existing middle edges, with
        // chains witnessed on demand.
        let mut po = P::new();
        po.insert_edge(n(1, 50), n(2, 60)).unwrap();
        po.insert_edge(n(0, 10), n(1, 20)).unwrap();
        assert!(po.reachable(n(0, 10), n(2, 60)));
        assert!(po.reachable(n(0, 0), n(2, 99)));
        assert!(!po.reachable(n(0, 11), n(2, 60)));
        assert_eq!(po.successor(n(0, 10), ThreadId(2)), Some(60));
        assert_eq!(po.predecessor(n(2, 60), ThreadId(0)), Some(10));

        // Diamond joins.
        let mut po = P::with_capacity(4, 50);
        po.insert_edge(n(0, 1), n(1, 2)).unwrap();
        po.insert_edge(n(0, 2), n(2, 3)).unwrap();
        po.insert_edge(n(1, 5), n(3, 8)).unwrap();
        po.insert_edge(n(2, 6), n(3, 7)).unwrap();
        assert!(po.reachable(n(0, 1), n(3, 8)));
        assert!(po.reachable(n(0, 2), n(3, 7)));
        assert!(!po.reachable(n(0, 3), n(3, 49)));
        assert_eq!(po.successor(n(0, 2), ThreadId(3)), Some(7));
        assert_eq!(po.predecessor(n(3, 7), ThreadId(0)), Some(2));
    }

    #[test]
    fn dense_vc_suite() {
        basic_suite::<VectorClockIndex>();
    }

    #[test]
    fn names() {
        assert_eq!(VectorClockIndex::new().name(), "VCs");
    }

    /// Insert edges on 2 chains, then pull in chain 5: old clocks
    /// must widen and answers stay consistent across the growth.
    fn growth_suite<P: PartialOrderIndex>() {
        let mut po = P::new();
        po.insert_edge(n(0, 4), n(1, 9)).unwrap();
        assert_eq!(po.chains(), 2);
        po.insert_edge(n(1, 12), n(5, 3)).unwrap();
        assert_eq!(po.chains(), 6);
        assert!(po.reachable(n(0, 4), n(5, 3)));
        assert!(po.reachable(n(0, 0), n(5, 40)));
        assert!(!po.reachable(n(0, 5), n(5, 40)));
        assert_eq!(po.successor(n(0, 4), ThreadId(5)), Some(3));
        assert_eq!(po.predecessor(n(5, 3), ThreadId(0)), Some(4));
        // Unwitnessed chains stay unconnected.
        assert!(!po.reachable(n(0, 0), n(9, 0)));
        assert_eq!(po.successor(n(0, 0), ThreadId(9)), None);
    }

    #[test]
    fn chain_growth_widens_existing_clocks() {
        growth_suite::<VectorClockIndex>();
    }

    #[test]
    fn dense_vc_materializes_whole_prefix() {
        let mut po = VectorClockIndex::new();
        po.insert_edge(n(0, 10), n(1, 50_000)).unwrap();
        // The paper's optimization 2 avoids the *suffix* only: the
        // target chain pays one clock row per event up to the edge.
        assert_eq!(po.materialized_rows(), 50_001);
        assert!(po.reachable(n(0, 3), n(1, 99_999)));
    }

    #[test]
    fn dense_propagation_walks_the_chain() {
        // An edge into the very beginning of a long materialized chain
        // propagates across every later clock row.
        let n_events = 5_000u32;
        let mut po = VectorClockIndex::with_capacity(3, n_events as usize);
        // Materialize the chain by a late incoming edge first.
        po.insert_edge(n(0, 1), n(1, n_events - 1)).unwrap();
        let before = po.join_work();
        po.insert_edge(n(2, 0), n(1, 0)).unwrap();
        let work = po.join_work() - before;
        assert!(
            work > (n_events as u64) * 2,
            "dense propagation must walk the chain: {work}"
        );
        for j in [0u32, 1, 2_500, n_events - 1] {
            assert!(po.reachable(n(2, 0), n(1, j)));
        }
    }

    #[test]
    fn early_stop_limits_join_work() {
        let mut po = VectorClockIndex::with_capacity(2, 1000);
        // A ladder of edges inserted back to front: each insertion's
        // propagation stops quickly because later events already
        // dominate.
        for i in (0..100).rev() {
            po.insert_edge(n(0, i * 10), n(1, i * 10 + 5)).unwrap();
        }
        // Without the early stop this would be ~100 walks over the
        // full suffix (≈ 100·1000·2 joins); with it, far less.
        assert!(po.join_work() < 150_000, "join work: {}", po.join_work());
    }
}
