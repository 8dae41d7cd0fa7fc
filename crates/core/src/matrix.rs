//! Internal helper: the chain-pair layout shared by
//! [`DynamicPo`](crate::DynamicPo) and
//! [`IncrementalPo`](crate::IncrementalPo), and its only owner.
//!
//! The matrix entry `(t1, t2)` is the paper's array `A_{t1}^{t2}`,
//! indexed by positions of chain `t1`, plus a per-pair *companion* `H`
//! stored under the same stride: the edge heaps of the pair for
//! `DynamicPo`, nothing (`()`) for `IncrementalPo`. Chains are added
//! lazily with amortized doubling of the allocated stride, and one
//! restride moves arrays and companions together. Each *row*'s array
//! length grows by doubling as positions on that chain are witnessed —
//! sparse arrays ([`SparseSegmentTree`](crate::SparseSegmentTree)) pay
//! nothing for the untouched capacity, dense ones
//! ([`SegmentTree`](crate::SegmentTree)) pay exactly once per doubling.
//!
//! The matrix also keeps the **live-pair adjacency**: per chain, the
//! unsorted lists of counterpart chains whose array holds at least one
//! entry. Arrays change only through [`PairMatrix::update`], which adds
//! a pair when its array's density leaves 0 and removes it when the
//! density returns to 0, so the adjacency cannot drift from the arrays.
//! `DynamicPo`'s worklist queries and `IncrementalPo`'s closure walk
//! these lists instead of all `k²` pairs, and
//! [`PairMatrix::clear_edges`] resets only the pairs they name.

use crate::index::{Pos, ThreadId};
use crate::reach::Domain;
use crate::stats::DensityStats;
use crate::suffix::SuffixMinima;

/// Growable matrix of per-chain-pair suffix-minima arrays and
/// companions, with the live-pair adjacency over them.
#[derive(Debug, Clone)]
pub(crate) struct PairMatrix<S, H = ()> {
    dom: Domain,
    /// Allocated stride of the matrix (`arrays.len() == kslots²`);
    /// doubles as chains are added.
    kslots: usize,
    /// Per witnessed chain: the current array length of its row
    /// (always ≥ the witnessed chain length).
    row_len: Vec<usize>,
    /// Row length given to newly witnessed chains (the capacity hint).
    row_hint: usize,
    /// `kslots × kslots` arrays; unwitnessed and diagonal slots are
    /// zero-length placeholders.
    arrays: Vec<S>,
    /// `kslots × kslots` companions, slot for slot with `arrays`.
    companions: Vec<H>,
    /// Per source chain `t1`: every `t2` whose `A_{t1}^{t2}` is
    /// non-empty.
    out_adj: Vec<Vec<u32>>,
    /// Per target chain `t2`: every `t1` whose `A_{t1}^{t2}` is
    /// non-empty.
    in_adj: Vec<Vec<u32>>,
}

impl<S: SuffixMinima, H: Default> PairMatrix<S, H> {
    pub(crate) fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    pub(crate) fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        let mut m = PairMatrix {
            dom: Domain::new(),
            kslots: 0,
            row_len: Vec::new(),
            row_hint: chain_capacity,
            arrays: Vec::new(),
            companions: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        };
        if chains > 0 {
            m.ensure_chain(ThreadId::from_index(chains - 1));
        }
        m
    }

    /// Number of witnessed chains.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.dom.chains()
    }

    #[inline]
    pub(crate) fn chain_len(&self, chain: ThreadId) -> usize {
        self.dom.chain_len(chain)
    }

    /// Flat index of the pair `(t1, t2)`; both chains must be
    /// witnessed.
    #[inline]
    fn idx(&self, t1: usize, t2: usize) -> usize {
        debug_assert!(t1 < self.k() && t2 < self.k());
        t1 * self.kslots + t2
    }

    #[inline]
    pub(crate) fn get(&self, t1: usize, t2: usize) -> &S {
        &self.arrays[self.idx(t1, t2)]
    }

    #[inline]
    pub(crate) fn companion_mut(&mut self, t1: usize, t2: usize) -> &mut H {
        let i = self.idx(t1, t2);
        &mut self.companions[i]
    }

    /// Sets `A_{t1}^{t2}[i] = v` ([`INF`](crate::INF) erases) and keeps
    /// the live-pair adjacency exact: the pair joins it when the
    /// array's density goes from 0 to positive and leaves it when the
    /// density returns to 0.
    #[inline]
    pub(crate) fn update(&mut self, t1: usize, t2: usize, i: usize, v: Pos) {
        let a = self.idx(t1, t2);
        let a = &mut self.arrays[a];
        let was_live = a.density() > 0;
        a.update(i, v);
        match (was_live, a.density() > 0) {
            (false, true) => {
                self.out_adj[t1].push(t2 as u32);
                self.in_adj[t2].push(t1 as u32);
            }
            (true, false) => {
                // Rare transition (the pair's last entry): a linear
                // scan over the short chain-degree list is cheaper than
                // keeping positional indexes on the hot insert path.
                let o = &mut self.out_adj[t1];
                o.swap_remove(o.iter().position(|&t| t == t2 as u32).expect("in out_adj"));
                let i = &mut self.in_adj[t2];
                i.swap_remove(i.iter().position(|&t| t == t1 as u32).expect("in in_adj"));
            }
            _ => {}
        }
    }

    /// Chains `t2` whose array `A_{t1}^{t2}` is non-empty (unsorted).
    /// Empty for unwitnessed chains.
    #[inline]
    pub(crate) fn out_neighbors(&self, t1: usize) -> &[u32] {
        self.out_adj.get(t1).map_or(&[], Vec::as_slice)
    }

    /// Chains `t1` whose array `A_{t1}^{t2}` is non-empty (unsorted).
    /// Empty for unwitnessed chains.
    #[inline]
    pub(crate) fn in_neighbors(&self, t2: usize) -> &[u32] {
        self.in_adj.get(t2).map_or(&[], Vec::as_slice)
    }

    /// Drops every entry, keeping the stride and the row lengths:
    /// resets only the live pairs' arrays and companions, in place, and
    /// empties the adjacency. O(live pairs), where a rebuild would
    /// allocate all `k²` slots.
    pub(crate) fn clear_edges(&mut self) {
        for (t1, out) in self.out_adj.iter_mut().enumerate() {
            for t2 in out.drain(..) {
                let i = t1 * self.kslots + t2 as usize;
                self.arrays[i] = S::with_len(self.row_len[t1]);
                self.companions[i] = H::default();
            }
        }
        self.in_adj.iter_mut().for_each(Vec::clear);
    }

    pub(crate) fn ensure_chain(&mut self, chain: ThreadId) {
        let old_k = self.k();
        if !self.dom.ensure_chain(chain) {
            return;
        }
        let new_k = self.k();
        if new_k > self.kslots {
            self.grow_kslots(new_k.next_power_of_two());
        }
        for c in old_k..new_k {
            self.row_len.push(self.row_hint);
            // The new chain's row covers its (hinted) positions…
            for t2 in 0..new_k {
                if t2 != c {
                    let i = c * self.kslots + t2;
                    self.arrays[i].ensure_len(self.row_hint);
                }
            }
            // …and every existing row gains a column at its own length.
            for t1 in 0..c {
                let len = self.row_len[t1];
                let i = t1 * self.kslots + c;
                self.arrays[i].ensure_len(len);
            }
        }
    }

    pub(crate) fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.ensure_chain(chain);
        self.dom.ensure_len(chain, len);
        let t = chain.index();
        if len <= self.row_len[t] {
            return;
        }
        // Grow rows to the next power of two, clamped to the
        // addressable universe (positions ≤ MAX_POS). Like doubling,
        // dense arrays re-allocate O(log n) times — but the new length
        // is a pure function of the requested length, so growing to a
        // position in one step or in many lands on identical storage
        // (what keeps `insert_edges` bit-for-bit equal to sequential
        // insertion).
        let new_len = len
            .next_power_of_two()
            .min(crate::index::MAX_POS as usize + 1)
            .max(self.row_len[t]);
        self.row_len[t] = new_len;
        for t2 in 0..self.k() {
            if t2 != t {
                let i = t * self.kslots + t2;
                self.arrays[i].ensure_len(new_len);
            }
        }
    }

    /// Re-strides arrays and companions to `new_slots`. Adjacency
    /// entries are chain indices, not slots: growth only appends empty
    /// lists for the new chains.
    fn grow_kslots(&mut self, new_slots: usize) {
        let old_slots = self.kslots;
        self.arrays = restride(
            std::mem::take(&mut self.arrays),
            old_slots,
            new_slots,
            || S::with_len(0),
        );
        self.companions = restride(
            std::mem::take(&mut self.companions),
            old_slots,
            new_slots,
            H::default,
        );
        self.out_adj.resize_with(new_slots, Vec::new);
        self.in_adj.resize_with(new_slots, Vec::new);
        self.kslots = new_slots;
    }

    /// Per-array density statistics over the witnessed pairs.
    pub(crate) fn density_stats(&self) -> DensityStats {
        let k = self.k();
        DensityStats::from_arrays((0..k).flat_map(|t1| {
            (0..k).filter_map(move |t2| {
                if t1 == t2 {
                    None
                } else {
                    let a = &self.arrays[t1 * self.kslots + t2];
                    Some((a.peak_density(), a.len()))
                }
            })
        }))
    }

    /// Exact heap footprint: the domain, every array, the companion
    /// slots plus what `companion_bytes` reports for each, and the
    /// adjacency lists.
    pub(crate) fn memory_bytes(&self, companion_bytes: impl Fn(&H) -> usize) -> usize {
        self.dom.memory_bytes()
            + self.row_len.capacity() * std::mem::size_of::<usize>()
            + self.arrays.iter().map(|a| a.memory_bytes()).sum::<usize>()
            + self.companions.capacity() * std::mem::size_of::<H>()
            + self.companions.iter().map(companion_bytes).sum::<usize>()
            + self
                .out_adj
                .iter()
                .chain(self.in_adj.iter())
                .map(|a| {
                    std::mem::size_of::<Vec<u32>>() + a.capacity() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }
}

/// Moves the `old_slots × old_slots` matrix `old` into a
/// `new_slots × new_slots` one, filling the new slots with `fill`.
fn restride<T>(old: Vec<T>, old_slots: usize, new_slots: usize, fill: impl FnMut() -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(new_slots * new_slots);
    out.resize_with(new_slots * new_slots, fill);
    for (i, x) in old.into_iter().enumerate() {
        out[(i / old_slots) * new_slots + i % old_slots] = x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::INF;
    use crate::segtree::SegmentTree;
    use crate::sst::SparseSegmentTree;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Checks the adjacency against the arrays it indexes: each
    /// `out_neighbors(t1)`, as a set, is `{t2 : density(t1, t2) > 0}`
    /// with no duplicates, `in_neighbors` is its transpose, and chains
    /// past the witnessed ones read empty.
    fn assert_adjacency_exact<S: SuffixMinima, H: Default>(m: &PairMatrix<S, H>) {
        let k = m.k();
        let live = |t1: usize, t2: usize| t1 != t2 && m.get(t1, t2).density() > 0;
        let sorted = |s: &[u32]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v
        };
        for t in 0..k {
            let outs: Vec<u32> = (0..k)
                .filter(|&t2| live(t, t2))
                .map(|t2| t2 as u32)
                .collect();
            let ins: Vec<u32> = (0..k)
                .filter(|&t1| live(t1, t))
                .map(|t1| t1 as u32)
                .collect();
            assert_eq!(sorted(m.out_neighbors(t)), outs, "out_neighbors({t})");
            assert_eq!(sorted(m.in_neighbors(t)), ins, "in_neighbors({t})");
        }
        for t in k..k + 3 {
            assert!(m.out_neighbors(t).is_empty() && m.in_neighbors(t).is_empty());
        }
    }

    /// Random scripts of updates (erases and same-position rewrites
    /// included), chain and row growth across restrides, and clears.
    fn run_scripts<S: SuffixMinima>() {
        for seed in 0..24 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m: PairMatrix<S> = PairMatrix::new();
            for _ in 0..300 {
                match rng.gen_range(0..20u32) {
                    0..=11 => {
                        let (t1, t2) = (rng.gen_range(0..9usize), rng.gen_range(0..9usize));
                        if t1 == t2 {
                            continue;
                        }
                        let i = rng.gen_range(0..6usize);
                        m.ensure_len(ThreadId::from_index(t1), i + 1);
                        m.ensure_chain(ThreadId::from_index(t2));
                        let v = if rng.gen_range(0..3u32) == 0 {
                            INF
                        } else {
                            rng.gen_range(0..6u32)
                        };
                        m.update(t1, t2, i, v);
                    }
                    12..=14 => m.ensure_chain(ThreadId::from_index(rng.gen_range(0..9usize))),
                    15..=18 => {
                        let t = ThreadId::from_index(rng.gen_range(0..9usize));
                        m.ensure_len(t, rng.gen_range(0..40usize));
                    }
                    _ => m.clear_edges(),
                }
                assert_adjacency_exact(&m);
            }
        }
    }

    #[test]
    fn adjacency_equals_the_live_pairs_under_random_scripts() {
        run_scripts::<SparseSegmentTree>();
        run_scripts::<SegmentTree>();
    }

    #[test]
    fn chains_grow_and_rows_keep_their_length() {
        let mut m: PairMatrix<SparseSegmentTree> = PairMatrix::new();
        assert_eq!(m.k(), 0);
        m.ensure_len(ThreadId(0), 100);
        m.ensure_chain(ThreadId(1));
        assert_eq!(m.k(), 2);
        m.update(0, 1, 42, 7);
        // Adding a later chain must give (0, 2) a row covering 0's
        // positions and leave the stored entry intact.
        m.ensure_chain(ThreadId(5));
        assert_eq!(m.k(), 6);
        assert!(m.get(0, 5).len() >= 100);
        assert_eq!(m.get(0, 1).suffix_min(0), 7);
        assert_eq!(m.get(0, 1).suffix_min(43), INF);
    }

    #[test]
    fn doubling_clamps_to_the_addressable_universe() {
        use crate::index::MAX_POS;
        let mut m: PairMatrix<SparseSegmentTree> = PairMatrix::new();
        m.ensure_chain(ThreadId(1));
        // A first row length past 2^30 makes naive doubling overshoot
        // the 2^31 SST limit; the clamp must keep it addressable.
        m.ensure_len(ThreadId(0), (1 << 30) + 1);
        m.ensure_len(ThreadId(0), (1 << 30) + 6);
        assert!(m.row_len[0] <= MAX_POS as usize + 1);
        m.ensure_len(ThreadId(0), MAX_POS as usize + 1); // largest valid
    }

    #[test]
    fn with_capacity_pre_creates_chains() {
        let m: PairMatrix<SparseSegmentTree> = PairMatrix::with_capacity(3, 50);
        assert_eq!(m.k(), 3);
        assert_eq!(m.chain_len(ThreadId(0)), 0, "capacity is not length");
        assert_eq!(m.get(0, 1).len(), 50);
        assert_eq!(m.get(2, 0).len(), 50);
    }

    #[test]
    fn restride_preserves_pairs_and_adjacency() {
        let mut m: PairMatrix<SparseSegmentTree, u32> = PairMatrix::with_capacity(2, 8);
        m.update(0, 1, 7, 3);
        m.update(1, 0, 2, 9);
        *m.companion_mut(0, 1) = 11;
        m.ensure_chain(ThreadId(5)); // stride 2 → 8
        assert_eq!(m.out_neighbors(0), &[1]);
        assert_eq!(m.in_neighbors(0), &[1]);
        assert_eq!(m.get(0, 1).suffix_min(0), 3);
        assert_eq!(m.get(1, 0).argleq(9), Some(2));
        assert_eq!(*m.companion_mut(0, 1), 11);
        assert_eq!(*m.companion_mut(1, 0), 0);
        m.update(0, 1, 7, INF);
        m.update(1, 0, 2, INF);
        assert!(m.out_neighbors(0).is_empty());
        assert!(m.in_neighbors(1).is_empty());
    }

    #[test]
    fn adjacency_tracks_live_pairs_only() {
        let mut m: PairMatrix<SparseSegmentTree> = PairMatrix::with_capacity(4, 16);
        assert!(m.out_neighbors(0).is_empty());
        // First entry of a pair adds it once; more entries and
        // rewrites of a position don't.
        m.update(0, 1, 10, 50);
        m.update(0, 1, 11, 60);
        m.update(0, 1, 11, 55);
        m.update(0, 2, 3, 7);
        let mut out = m.out_neighbors(0).to_vec();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(m.in_neighbors(1), &[0]);
        assert_eq!(m.in_neighbors(2), &[0]);
        // Erasing one entry leaves the pair live.
        m.update(0, 1, 10, INF);
        assert_eq!(m.in_neighbors(1), &[0]);
        // Erasing the last entry removes the pair from both sides.
        m.update(0, 1, 11, INF);
        assert_eq!(m.out_neighbors(0), &[2]);
        assert!(m.in_neighbors(1).is_empty());
        // Erasing an empty entry never touches the adjacency.
        m.update(0, 1, 11, INF);
        assert_eq!(m.out_neighbors(0), &[2]);
        // Re-inserting adds the pair back exactly once.
        m.update(0, 1, 5, 9);
        let mut out = m.out_neighbors(0).to_vec();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn out_of_range_neighbor_queries_are_empty() {
        let m: PairMatrix<SparseSegmentTree> = PairMatrix::new();
        assert!(m.out_neighbors(3).is_empty());
        assert!(m.in_neighbors(0).is_empty());
    }

    #[test]
    fn clear_edges_resets_live_arrays_and_companions() {
        let mut m: PairMatrix<SparseSegmentTree, u32> = PairMatrix::with_capacity(3, 4);
        m.ensure_len(ThreadId(2), 100);
        m.update(0, 1, 2, 3);
        m.update(2, 0, 90, 1);
        *m.companion_mut(0, 1) = 5;
        *m.companion_mut(2, 0) = 6;
        m.clear_edges();
        assert_adjacency_exact(&m);
        for (t1, t2) in [(0, 1), (2, 0)] {
            assert_eq!(m.get(t1, t2).density(), 0);
            assert_eq!(m.get(t1, t2).suffix_min(0), INF);
            assert_eq!(*m.companion_mut(t1, t2), 0);
        }
        // Rows keep their length, so the old positions stay writable.
        assert!(m.get(2, 0).len() >= 100);
        m.update(2, 0, 90, 4);
        assert_eq!(m.in_neighbors(0), &[2]);
    }
}
