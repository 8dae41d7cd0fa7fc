//! Internal helper: the growable `k × k` matrix of suffix-minima
//! arrays shared by [`DynamicPo`](crate::DynamicPo) and
//! [`IncrementalPo`](crate::IncrementalPo).
//!
//! The matrix entry `(t1, t2)` is the paper's array `A_{t1}^{t2}`,
//! indexed by positions of chain `t1`. Chains are added lazily with
//! amortized doubling of the allocated stride, and each *row*'s array
//! length grows by doubling as positions on that chain are witnessed —
//! sparse arrays ([`SparseSegmentTree`](crate::SparseSegmentTree)) pay
//! nothing for the untouched capacity, dense ones
//! ([`SegmentTree`](crate::SegmentTree)) pay exactly once per doubling.

use crate::index::ThreadId;
use crate::reach::Domain;
use crate::stats::DensityStats;
use crate::suffix::SuffixMinima;

/// Growable matrix of per-chain-pair suffix-minima arrays.
#[derive(Debug, Clone)]
pub(crate) struct PairMatrix<S> {
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
}

impl<S: SuffixMinima> PairMatrix<S> {
    pub(crate) fn new() -> Self {
        PairMatrix {
            dom: Domain::new(),
            kslots: 0,
            row_len: Vec::new(),
            row_hint: 0,
            arrays: Vec::new(),
        }
    }

    pub(crate) fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        let mut m = PairMatrix {
            dom: Domain::new(),
            kslots: 0,
            row_len: Vec::new(),
            row_hint: chain_capacity,
            arrays: Vec::new(),
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

    /// Allocated stride of the matrix. Companion stores (the edge-heap
    /// store of `DynamicPo`) mirror this stride so a single
    /// `t1 * kslots + t2` product addresses both structures.
    #[inline]
    pub(crate) fn kslots(&self) -> usize {
        self.kslots
    }

    #[inline]
    pub(crate) fn chain_len(&self, chain: ThreadId) -> usize {
        self.dom.chain_len(chain)
    }

    /// Flat index of the array `A_{t1}^{t2}`; both chains must be
    /// witnessed.
    #[inline]
    pub(crate) fn idx(&self, t1: usize, t2: usize) -> usize {
        debug_assert!(t1 < self.k() && t2 < self.k());
        t1 * self.kslots + t2
    }

    #[inline]
    pub(crate) fn get(&self, t1: usize, t2: usize) -> &S {
        &self.arrays[self.idx(t1, t2)]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, t1: usize, t2: usize) -> &mut S {
        let i = self.idx(t1, t2);
        &mut self.arrays[i]
    }

    /// Replaces `A_{t1}^{t2}` by an empty array of its row's length.
    pub(crate) fn clear(&mut self, t1: usize, t2: usize) {
        let i = self.idx(t1, t2);
        self.arrays[i] = S::with_len(self.row_len[t1]);
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

    fn grow_kslots(&mut self, new_slots: usize) {
        let old_slots = self.kslots;
        let mut arrays = Vec::with_capacity(new_slots * new_slots);
        for _ in 0..new_slots * new_slots {
            arrays.push(S::with_len(0));
        }
        for (i, a) in std::mem::take(&mut self.arrays).into_iter().enumerate() {
            let (t1, t2) = (i / old_slots, i % old_slots);
            arrays[t1 * new_slots + t2] = a;
        }
        self.arrays = arrays;
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

    pub(crate) fn memory_bytes(&self) -> usize {
        self.dom.memory_bytes()
            + self.row_len.capacity() * std::mem::size_of::<usize>()
            + self.arrays.iter().map(|a| a.memory_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::INF;
    use crate::sst::SparseSegmentTree;

    #[test]
    fn chains_grow_and_rows_keep_their_length() {
        let mut m: PairMatrix<SparseSegmentTree> = PairMatrix::new();
        assert_eq!(m.k(), 0);
        m.ensure_len(ThreadId(0), 100);
        m.ensure_chain(ThreadId(1));
        assert_eq!(m.k(), 2);
        m.get_mut(0, 1).update(42, 7);
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
}
