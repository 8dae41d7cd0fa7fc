//! Incremental CSSTs (§4, Algorithm 3).
//!
//! Most dynamic analyses only ever *insert* orderings. The incremental
//! specialization stores **transitive** reachability in the per-pair
//! suffix-minima arrays (Lemmas 5–6): each `insertEdge` performs a
//! closure over chain pairs, after which every query is a single
//! suffix-minima operation. Compared to the fully dynamic variant this
//! moves the `k` dependency from queries to updates while shaving a
//! factor `k` (Theorem 2 vs Theorem 1).
//!
//! The paper states the closure as a dense `O(k²)` sweep; the
//! implementation walks only the **non-empty** chain pairs (the same
//! sparsity idea as the fully dynamic worklist engine in
//! [`crate::dynamic`]): a chain can contribute a predecessor of `from`
//! only if some array *into* `from`'s chain is non-empty, and a
//! successor of `to` only if some array *out of* `to`'s chain is. The
//! frontier lists are reusable scratch buffers, so steady-state inserts
//! allocate nothing.
//!
//! Despite storing transitive edges, the density of every array remains
//! bounded by the cross-chain density `d` of the underlying graph
//! (Lemma 7): new entries are only ever written at positions that
//! already carry a direct cross-chain edge.
//!
//! Like every index in this crate, the domain is capacity-free: chains
//! and positions are witnessed on demand.

use crate::error::PoError;
use crate::index::{NodeId, Pos, ThreadId, INF};
use crate::matrix::PairMatrix;
use crate::reach::PartialOrderIndex;
use crate::segtree::SegmentTree;
use crate::sst::SparseSegmentTree;
use crate::stats::DensityStats;
use crate::suffix::SuffixMinima;

/// Incremental chain-DAG reachability over a pluggable suffix-minima
/// structure (Algorithm 3). Use [`IncrementalCsst`] for the paper's
/// structure and [`SegTreeIndex`] for the `STs` baseline of M2.
#[derive(Debug, Clone)]
pub struct IncrementalPo<S> {
    /// Transitively closed suffix-minima arrays (`(t1, t2)` is
    /// `A_{t1}^{t2}`).
    arrays: PairMatrix<S>,
    edges: usize,
    /// Stride of `pair_live` (kept equal to the matrix's `kslots`).
    adj_stride: usize,
    /// `pair_live[t1 * adj_stride + t2]`: array `A_{t1}^{t2}` has at
    /// least one entry. Insert-only, so pairs never go dead again.
    pair_live: Vec<bool>,
    /// Per target chain `t2`: every `t1` with a live `A_{t1}^{t2}`.
    src_adj: Vec<Vec<u32>>,
    /// Per source chain `t1`: every `t2` with a live `A_{t1}^{t2}`.
    tgt_adj: Vec<Vec<u32>>,
    /// Reusable closure frontiers: `(chain, position)` lists of the
    /// predecessors of `from` / successors of `to`, rebuilt per insert
    /// without allocating.
    preds_scratch: Vec<(u32, Pos)>,
    succs_scratch: Vec<(u32, Pos)>,
}

/// The paper's incremental CSST: [`IncrementalPo`] over
/// [`SparseSegmentTree`] arrays.
pub type IncrementalCsst = IncrementalPo<SparseSegmentTree>;

/// The `STs` baseline of \[Pavlogiannis 2019\]: the same incremental
/// architecture over dense [`SegmentTree`] arrays.
pub type SegTreeIndex = IncrementalPo<SegmentTree>;

impl<S: SuffixMinima> IncrementalPo<S> {
    #[inline]
    fn k(&self) -> usize {
        self.arrays.k()
    }

    /// Number of `insert_edge` calls performed so far.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Per-array density statistics (the `q` column of the tables).
    pub fn density_stats(&self) -> DensityStats {
        self.arrays.density_stats()
    }

    /// Earliest node of chain `t2` reachable from `⟨t1, j1⟩`
    /// (cross-chain; [`INF`] if none). A single suffix-minima query
    /// thanks to transitive closure.
    #[inline]
    fn successor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Pos {
        self.arrays.get(t1, t2).suffix_min(j1 as usize)
    }

    /// Latest node of chain `t2` reaching `⟨t1, j1⟩` (cross-chain;
    /// `None` if none).
    #[inline]
    fn predecessor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Option<Pos> {
        self.arrays.get(t2, t1).argleq(j1).map(|p| p as Pos)
    }

    /// Re-sizes the pair adjacency after the matrix grew (amortized
    /// doubling, mirroring the matrix stride). No-op otherwise.
    fn sync_adj(&mut self) {
        let kslots = self.arrays.kslots();
        if kslots <= self.adj_stride {
            return;
        }
        let old = self.adj_stride;
        let mut live = vec![false; kslots * kslots];
        for (i, &l) in self.pair_live.iter().enumerate() {
            if l {
                live[(i / old) * kslots + (i % old)] = true;
            }
        }
        self.pair_live = live;
        self.src_adj.resize_with(kslots, Vec::new);
        self.tgt_adj.resize_with(kslots, Vec::new);
        self.adj_stride = kslots;
    }

    /// Records that `A_{t1}^{t2}` gained its first entry.
    #[inline]
    fn mark_pair(&mut self, t1: usize, t2: usize) {
        let slot = &mut self.pair_live[t1 * self.adj_stride + t2];
        if !*slot {
            *slot = true;
            self.src_adj[t2].push(t1 as u32);
            self.tgt_adj[t1].push(t2 as u32);
        }
    }
}

impl<S: SuffixMinima> PartialOrderIndex for IncrementalPo<S> {
    fn new() -> Self {
        IncrementalPo {
            arrays: PairMatrix::new(),
            edges: 0,
            adj_stride: 0,
            pair_live: Vec::new(),
            src_adj: Vec::new(),
            tgt_adj: Vec::new(),
            preds_scratch: Vec::new(),
            succs_scratch: Vec::new(),
        }
    }

    fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        let mut po = IncrementalPo {
            arrays: PairMatrix::with_capacity(chains, chain_capacity),
            edges: 0,
            adj_stride: 0,
            pair_live: Vec::new(),
            src_adj: Vec::new(),
            tgt_adj: Vec::new(),
            preds_scratch: Vec::new(),
            succs_scratch: Vec::new(),
        };
        po.sync_adj();
        po
    }

    fn name(&self) -> &'static str {
        // Distinguish the two instantiations used in the tables.
        if S::structure_name() == "STs" {
            "STs"
        } else {
            "CSSTs"
        }
    }

    fn chains(&self) -> usize {
        self.arrays.k()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.arrays.chain_len(chain)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        self.arrays.ensure_chain(chain);
        self.sync_adj();
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.arrays.ensure_len(chain, len);
        self.sync_adj();
    }

    /// Inserts `from → to` and closes the arrays transitively
    /// (Algorithm 3): for every chain pair `(t1', t2')`, the latest
    /// predecessor of `from` in `t1'` gets connected to the earliest
    /// successor of `to` in `t2'` unless a path already exists.
    ///
    /// The frontiers are computed over *live* pairs only — a chain can
    /// hold a predecessor of `from` only if its array into `from`'s
    /// chain is non-empty, and a successor of `to` only if `to`'s
    /// chain has an array into it — and are built in reusable scratch
    /// buffers, so the insert allocates nothing in steady state. The
    /// relaxation set (and therefore every array state) is identical
    /// to the dense sweep's: pairs it skips could only have produced
    /// `None`/[`INF`] frontier entries, which the dense loop skips too.
    ///
    /// The caller must keep the relation acyclic (use
    /// [`PartialOrderIndex::insert_edge_checked`] when unsure); an
    /// undetected cycle leaves the structure in an unspecified state.
    ///
    /// Batching note: the incremental closure reads the post-state of
    /// every earlier insert (the `preds`/`succs` frontiers), so
    /// [`PartialOrderIndex::insert_edges`] keeps the sequential
    /// default here — reordering or fusing closures would change which
    /// redundant entries get written, breaking the batch-equals-
    /// sequential contract the property tests pin.
    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        let (t1, j1) = (from.thread.index(), from.pos);
        let (t2, j2) = (to.thread.index(), to.pos);
        // Pre-compute, from the pre-insert state, the frontier of
        // predecessors of `from` (lines 10–11) and successors of `to`
        // (lines 12–13), walking live pairs only.
        let mut preds = std::mem::take(&mut self.preds_scratch);
        preds.clear();
        preds.push((t1 as u32, j1));
        for &t in &self.src_adj[t1] {
            if let Some(p) = self.arrays.get(t as usize, t1).argleq(j1) {
                preds.push((t, p as Pos));
            }
        }
        let mut succs = std::mem::take(&mut self.succs_scratch);
        succs.clear();
        succs.push((t2 as u32, j2));
        for &t in &self.tgt_adj[t2] {
            let v = self.arrays.get(t2, t as usize).suffix_min(j2 as usize);
            if v != INF {
                succs.push((t, v));
            }
        }
        for &(tp1, jp1) in &preds {
            let tp1 = tp1 as usize;
            for &(tp2, jp2) in &succs {
                let tp2 = tp2 as usize;
                if tp1 == tp2 {
                    continue;
                }
                if self.successor_raw(tp1, jp1, tp2) > jp2 {
                    self.arrays.get_mut(tp1, tp2).update(jp1 as usize, jp2);
                    self.mark_pair(tp1, tp2);
                }
            }
        }
        self.edges += 1;
        self.preds_scratch = preds;
        self.succs_scratch = succs;
    }

    fn delete_edge_raw(&mut self, _from: NodeId, _to: NodeId) -> Result<(), PoError> {
        Err(PoError::DeletionUnsupported {
            structure: "incremental CSSTs / segment trees",
        })
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let t1 = from.thread.index();
        let t2 = chain.index();
        if t1 == t2 {
            return Some(from.pos);
        }
        if t1 >= self.k() || t2 >= self.k() {
            return None; // unwitnessed chains carry no edges
        }
        match self.successor_raw(t1, from.pos, t2) {
            INF => None,
            v => Some(v),
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
        self.predecessor_raw(t1, from.pos, t2)
    }

    fn memory_bytes(&self) -> usize {
        let adj = self.pair_live.capacity()
            + self
                .src_adj
                .iter()
                .chain(self.tgt_adj.iter())
                .map(|a| {
                    std::mem::size_of::<Vec<u32>>() + a.capacity() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
            + (self.preds_scratch.capacity() + self.succs_scratch.capacity())
                * std::mem::size_of::<(u32, Pos)>();
        std::mem::size_of::<Self>() + self.arrays.memory_bytes() + adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(t: u32, i: u32) -> NodeId {
        NodeId::new(t, i)
    }

    #[test]
    fn example_7_transitive_insert() {
        // Figure 9: inserting ⟨1,1⟩ → ⟨2,0⟩ must infer ⟨0,1⟩ →* ⟨3,2⟩.
        let mut po = IncrementalCsst::with_capacity(4, 3);
        po.insert_edge(n(0, 1), n(1, 1)).unwrap(); // A_0^1[1] = 1
        po.insert_edge(n(2, 0), n(3, 2)).unwrap(); // A_2^3[0] = 2
        po.insert_edge(n(1, 1), n(2, 0)).unwrap();
        assert!(po.reachable(n(0, 1), n(3, 2)));
        assert_eq!(po.successor(n(0, 1), ThreadId(3)), Some(2));
        assert_eq!(po.predecessor(n(3, 2), ThreadId(0)), Some(1));
        assert!(!po.reachable(n(0, 2), n(3, 2)));
        assert!(!po.reachable(n(0, 1), n(3, 1)));
    }

    #[test]
    fn growth_interleaved_with_closure() {
        // Chains appear one at a time while transitive inserts land;
        // the closure must keep covering the enlarged domain.
        let mut po = IncrementalCsst::new();
        po.insert_edge(n(0, 1), n(1, 1)).unwrap();
        po.insert_edge(n(1, 1), n(2, 0)).unwrap(); // chain 2 appears here
        po.insert_edge(n(2, 0), n(3, 2)).unwrap(); // chain 3 appears here
        assert!(po.reachable(n(0, 1), n(3, 2)));
        assert_eq!(po.successor(n(0, 0), ThreadId(3)), Some(2));
        assert_eq!(po.predecessor(n(3, 2), ThreadId(0)), Some(1));
        assert_eq!(po.chains(), 4);
    }

    #[test]
    fn matches_dynamic_on_chains() {
        use crate::dynamic::Csst;
        let mut inc = IncrementalCsst::with_capacity(3, 20);
        let mut dy = Csst::with_capacity(3, 20);
        let edges = [
            (n(0, 2), n(1, 4)),
            (n(1, 6), n(2, 3)),
            (n(2, 5), n(0, 9)),
            (n(1, 1), n(0, 4)),
        ];
        for (u, v) in edges {
            inc.insert_edge(u, v).unwrap();
            dy.insert_edge(u, v).unwrap();
        }
        for t1 in 0..3u32 {
            for i in 0..20u32 {
                for t2 in 0..3u32 {
                    let u = n(t1, i);
                    assert_eq!(
                        inc.successor(u, ThreadId(t2)),
                        dy.successor(u, ThreadId(t2)),
                        "successor({u}, t{t2})"
                    );
                    assert_eq!(
                        inc.predecessor(u, ThreadId(t2)),
                        dy.predecessor(u, ThreadId(t2)),
                        "predecessor({u}, t{t2})"
                    );
                }
            }
        }
    }

    #[test]
    fn deletion_unsupported() {
        let mut po = IncrementalCsst::with_capacity(2, 4);
        po.insert_edge(n(0, 0), n(1, 0)).unwrap();
        assert!(matches!(
            po.delete_edge(n(0, 0), n(1, 0)),
            Err(PoError::DeletionUnsupported { .. })
        ));
        assert!(!po.supports_deletion());
    }

    #[test]
    fn names_distinguish_instantiations() {
        let a = IncrementalCsst::with_capacity(2, 4);
        let b = SegTreeIndex::with_capacity(2, 4);
        assert_eq!(a.name(), "CSSTs");
        assert_eq!(b.name(), "STs");
    }

    #[test]
    fn segtree_index_agrees_with_csst_index() {
        let mut a = IncrementalCsst::with_capacity(4, 30);
        let mut b = SegTreeIndex::new(); // grown entirely on demand
        let edges = [
            (n(0, 5), n(1, 7)),
            (n(1, 8), n(2, 2)),
            (n(2, 9), n(3, 1)),
            (n(3, 3), n(0, 20)),
            (n(0, 25), n(2, 29)),
        ];
        for (u, v) in edges {
            a.insert_edge(u, v).unwrap();
            b.insert_edge(u, v).unwrap();
        }
        for t1 in 0..4u32 {
            for i in (0..30u32).step_by(3) {
                for t2 in 0..4u32 {
                    let u = n(t1, i);
                    assert_eq!(a.successor(u, ThreadId(t2)), b.successor(u, ThreadId(t2)));
                    assert_eq!(
                        a.predecessor(u, ThreadId(t2)),
                        b.predecessor(u, ThreadId(t2))
                    );
                }
            }
        }
    }

    #[test]
    fn batched_matches_sequential() {
        let mut po = IncrementalCsst::with_capacity(4, 30);
        for (u, v) in [
            (n(0, 5), n(1, 7)),
            (n(1, 8), n(2, 2)),
            (n(2, 9), n(3, 1)),
            (n(3, 3), n(0, 20)),
            (n(0, 25), n(2, 29)),
        ] {
            po.insert_edge(u, v).unwrap();
        }
        let mut reach_probes = vec![];
        let mut node_probes = vec![];
        for t1 in 0..5u32 {
            // t = 4 exercises the unwitnessed-chain path
            for i in [0u32, 5, 9, 26] {
                for t2 in 0..5u32 {
                    reach_probes.push((n(t1, i), n(t2, i + 2)));
                    node_probes.push((n(t1, i), ThreadId(t2)));
                }
            }
        }
        let (mut r, mut s, mut p) = (vec![], vec![], vec![]);
        po.reachable_batch(&reach_probes, &mut r);
        po.successor_batch(&node_probes, &mut s);
        po.predecessor_batch(&node_probes, &mut p);
        for (i, &(u, v)) in reach_probes.iter().enumerate() {
            assert_eq!(r[i], po.reachable(u, v), "reachable probe {i}");
        }
        for (i, &(u, c)) in node_probes.iter().enumerate() {
            assert_eq!(s[i], po.successor(u, c), "successor probe {i}");
            assert_eq!(p[i], po.predecessor(u, c), "predecessor probe {i}");
        }
    }

    #[test]
    fn redundant_edges_do_not_grow_density() {
        let mut po = IncrementalCsst::with_capacity(2, 100);
        po.insert_edge(n(0, 10), n(1, 10)).unwrap();
        let before = po.density_stats().max_peak;
        // An implied ordering: already reachable, no array growth.
        po.insert_edge(n(0, 5), n(1, 20)).unwrap();
        assert_eq!(po.density_stats().max_peak, before);
        assert_eq!(po.edge_count(), 2);
    }

    #[test]
    fn lemma_7_density_bounded_by_cross_chain_density() {
        // All cross-chain edges leave positions {10, 20} of each chain,
        // so the cross-chain density is 2 and every array must stay at
        // density ≤ 2 even after transitive closure.
        let mut po = IncrementalCsst::with_capacity(4, 100);
        let mut sources = vec![];
        for t in 0..4u32 {
            for &j in &[10u32, 20] {
                sources.push((t, j));
            }
        }
        // Insert a web of edges between the sources (acyclic by
        // construction: edges go from position 10s to 20s or to later
        // chains' 10s).
        po.insert_edge(n(0, 10), n(1, 20)).unwrap();
        po.insert_edge(n(1, 10), n(2, 20)).unwrap();
        po.insert_edge(n(2, 10), n(3, 20)).unwrap();
        po.insert_edge(n(0, 10), n(2, 20)).unwrap();
        po.insert_edge(n(1, 10), n(3, 20)).unwrap();
        let stats = po.density_stats();
        assert!(
            stats.max_peak <= 2,
            "Lemma 7 violated: density {} > cross-chain density 2",
            stats.max_peak
        );
    }
}
