//! The `edgeHeap` of fully dynamic CSSTs (§3.1/§3.3).
//!
//! Fully dynamic CSSTs must remember *all* parallel edges from a node
//! into a chain, so that deleting the earliest one can restore the next
//! earliest in the suffix-minima array (Lemma 3). The paper uses a
//! min-heap per `(node, target chain)`; we use an ordered multiset,
//! which offers the same `O(log δ)` bounds plus deletion of arbitrary
//! values (binary heaps only pop their root).
//!
//! Because the overwhelmingly common case is δ ∈ {0, 1} (one direct
//! edge per node and target chain), [`MinMultiset`] is
//! **allocation-lean**: zero or one stored value lives inline with no
//! heap allocation at all, and only genuinely parallel edges spill
//! into a sorted `Vec`. The crate-private `EdgeHeapStore` packs the
//! per-node heaps of one chain pair into a single position-sorted
//! vector — the flat layout [`DynamicPo`](crate::DynamicPo) indexes
//! directly by chain pair, with no hash lookups on the insert/delete
//! hot path.

use crate::index::Pos;

/// An ordered multiset of chain positions with `O(log δ)` minimum
/// queries and `O(δ)` insert/delete (δ is tiny in practice: parallel
/// edges from one node into one chain are rare). Zero or one stored
/// values live inline without allocating.
///
/// ```
/// use csst_core::heap::MinMultiset;
/// let mut h = MinMultiset::new();
/// h.insert(7);
/// h.insert(3);
/// h.insert(3);
/// assert_eq!(h.min(), Some(3));
/// assert!(h.remove(3));
/// assert_eq!(h.min(), Some(3)); // one copy of 3 remains
/// assert!(h.remove(3));
/// assert_eq!(h.min(), Some(7));
/// assert!(!h.remove(99));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinMultiset {
    repr: Repr,
}

/// Inline-first storage. Invariant: `Many` holds a sorted (ascending,
/// duplicates allowed) vector of length ≥ 2, so the derived equality
/// never compares a one-element `Many` against a `One`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Repr {
    #[default]
    Empty,
    One(Pos),
    Many(Vec<Pos>),
}

impl MinMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored values, counting multiplicity.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(v) => v.len(),
        }
    }

    /// `true` if no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Empty)
    }

    /// Adds one occurrence of `v`.
    pub fn insert(&mut self, v: Pos) {
        self.repr = match std::mem::take(&mut self.repr) {
            Repr::Empty => Repr::One(v),
            Repr::One(a) => Repr::Many(if v < a { vec![v, a] } else { vec![a, v] }),
            Repr::Many(mut vals) => {
                let i = vals.partition_point(|&x| x <= v);
                vals.insert(i, v);
                Repr::Many(vals)
            }
        };
    }

    /// Removes one occurrence of `v`; returns `false` (and leaves the
    /// set unchanged) if `v` is not present.
    pub fn remove(&mut self, v: Pos) -> bool {
        match &mut self.repr {
            Repr::Empty => false,
            Repr::One(a) => {
                if *a == v {
                    self.repr = Repr::Empty;
                    true
                } else {
                    false
                }
            }
            Repr::Many(vals) => {
                let i = vals.partition_point(|&x| x < v);
                if vals.get(i) != Some(&v) {
                    return false;
                }
                vals.remove(i);
                if vals.len() == 1 {
                    self.repr = Repr::One(vals[0]);
                }
                true
            }
        }
    }

    /// The smallest stored value, if any.
    #[inline]
    pub fn min(&self) -> Option<Pos> {
        match &self.repr {
            Repr::Empty => None,
            Repr::One(a) => Some(*a),
            Repr::Many(vals) => vals.first().copied(),
        }
    }

    /// Number of occurrences of `v`.
    pub fn count(&self, v: Pos) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::One(a) => usize::from(*a == v),
            Repr::Many(vals) => {
                vals.partition_point(|&x| x <= v) - vals.partition_point(|&x| x < v)
            }
        }
    }

    /// Heap footprint in bytes beyond the inline struct (zero unless
    /// parallel edges spilled into a vector).
    pub fn memory_bytes(&self) -> usize {
        match &self.repr {
            Repr::Many(vals) => vals.capacity() * std::mem::size_of::<Pos>(),
            _ => 0,
        }
    }
}

/// The edge heaps of **one** ordered chain pair `(t1, t2)`: a vector of
/// `(source position, heap)` entries kept sorted by position, indexed
/// by binary search.
///
/// Emptied heaps become *tombstones* (key kept, heap empty) so hot
/// delete paths never shift the vector; tombstones are compacted away
/// once they outnumber the live entries. Streaming workloads insert at
/// monotonically increasing positions, so the sorted insert is an
/// amortized-`O(1)` push in practice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PairHeaps {
    /// Sorted by position (unique keys); empty heaps are tombstones.
    entries: Vec<(Pos, MinMultiset)>,
    /// Number of tombstones currently in `entries`.
    tombs: usize,
}

impl PairHeaps {
    /// Number of positions currently holding at least one live edge
    /// (tombstones excluded). The pair participates in the query
    /// engine's adjacency exactly while this is non-zero.
    #[inline]
    pub(crate) fn live_count(&self) -> usize {
        self.entries.len() - self.tombs
    }

    /// Adds edge value `v` to the heap at source position `pos`;
    /// returns `true` when `v` became the unique new minimum (i.e. the
    /// suffix-minima array must be updated).
    pub(crate) fn insert(&mut self, pos: Pos, v: Pos) -> bool {
        let i = self.entries.partition_point(|e| e.0 < pos);
        match self.entries.get_mut(i) {
            Some(e) if e.0 == pos => {
                let h = &mut e.1;
                if h.is_empty() {
                    self.tombs -= 1;
                }
                let improves = h.min().is_none_or(|m| v < m);
                h.insert(v);
                improves
            }
            _ => {
                let mut h = MinMultiset::new();
                h.insert(v);
                self.entries.insert(i, (pos, h));
                true
            }
        }
    }

    /// Removes one occurrence of edge value `v` from the heap at
    /// position `pos`. Returns `Some((old_min, new_min))` when the edge
    /// was present, `None` otherwise.
    pub(crate) fn remove(&mut self, pos: Pos, v: Pos) -> Option<(Option<Pos>, Option<Pos>)> {
        let i = self.entries.partition_point(|e| e.0 < pos);
        let e = self.entries.get_mut(i).filter(|e| e.0 == pos)?;
        let h = &mut e.1;
        let old_min = h.min();
        if !h.remove(v) {
            return None;
        }
        let new_min = h.min();
        if h.is_empty() {
            self.tombs += 1;
            self.compact();
        }
        Some((old_min, new_min))
    }

    /// Drops tombstones once they dominate, releasing their memory;
    /// a fully emptied pair gives its allocation back entirely.
    fn compact(&mut self) {
        if self.tombs * 2 > self.entries.len() {
            self.entries.retain(|e| !e.1.is_empty());
            self.tombs = 0;
            if self.entries.len() * 4 <= self.entries.capacity() {
                self.entries.shrink_to_fit();
            }
        }
    }

    /// Exact heap footprint: the entry vector plus every spilled heap.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(Pos, MinMultiset)>()
            + self
                .entries
                .iter()
                .map(|e| e.1.memory_bytes())
                .sum::<usize>()
    }
}

/// Flat store of all per-chain-pair edge heaps of a
/// [`DynamicPo`](crate::DynamicPo), laid out exactly like the
/// suffix-minima matrix: slot `t1 * kslots + t2` holds the heaps of
/// pair `(t1, t2)`. Lookup is two integer multiplications — the nested
/// `HashMap<(u32, u32), HashMap<Pos, _>>` this replaces paid two
/// SipHash probes per insert/delete.
///
/// The store additionally maintains the **live-pair adjacency**: per
/// chain, the unsorted lists of counterpart chains whose pair currently
/// holds at least one live edge. The worklist query engine of
/// [`DynamicPo`](crate::DynamicPo) walks these lists instead of all
/// `k²` chain pairs, which is what makes query cost proportional to the
/// sparse structure actually present. Membership transitions happen
/// only here — in [`insert`](Self::insert) when a pair gains its first
/// live entry and in [`remove`](Self::remove) when it loses its last —
/// so the adjacency can never drift from the heaps (compaction only
/// drops tombstones, which were already excluded).
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeHeapStore {
    /// Allocated stride; kept identical to the owning `PairMatrix`'s.
    kslots: usize,
    /// `kslots × kslots` pair heaps; diagonal and unwitnessed slots
    /// stay empty (and cost only the inline struct).
    pairs: Vec<PairHeaps>,
    /// Per source chain `t1`: every `t2` with a live pair `(t1, t2)`.
    out_adj: Vec<Vec<u32>>,
    /// Per target chain `t2`: every `t1` with a live pair `(t1, t2)`.
    in_adj: Vec<Vec<u32>>,
}

impl EdgeHeapStore {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Re-strides the store to `new_kslots` (amortized-doubling growth,
    /// mirroring `PairMatrix::grow_kslots`). No-op when already wide
    /// enough.
    pub(crate) fn sync_kslots(&mut self, new_kslots: usize) {
        if new_kslots <= self.kslots {
            return;
        }
        let old = self.kslots;
        let mut pairs = Vec::with_capacity(new_kslots * new_kslots);
        pairs.resize_with(new_kslots * new_kslots, PairHeaps::default);
        for (i, p) in std::mem::take(&mut self.pairs).into_iter().enumerate() {
            let (t1, t2) = (i / old, i % old);
            pairs[t1 * new_kslots + t2] = p;
        }
        self.pairs = pairs;
        // Adjacency entries are chain indices, not slots: growth only
        // appends empty lists for the new chains.
        self.out_adj.resize_with(new_kslots, Vec::new);
        self.in_adj.resize_with(new_kslots, Vec::new);
        self.kslots = new_kslots;
    }

    /// Adds edge value `v` to the heap of pair `(t1, t2)` at source
    /// position `pos`, maintaining the live-pair adjacency; returns
    /// `true` when `v` became the unique new minimum (i.e. the
    /// suffix-minima array must be updated).
    #[inline]
    pub(crate) fn insert(&mut self, t1: usize, t2: usize, pos: Pos, v: Pos) -> bool {
        debug_assert!(t1 < self.kslots && t2 < self.kslots);
        let pair = &mut self.pairs[t1 * self.kslots + t2];
        let was_dead = pair.live_count() == 0;
        let improved = pair.insert(pos, v);
        if was_dead {
            self.out_adj[t1].push(t2 as u32);
            self.in_adj[t2].push(t1 as u32);
        }
        improved
    }

    /// Removes one occurrence of edge value `v` from the heap of pair
    /// `(t1, t2)` at position `pos`, maintaining the live-pair
    /// adjacency. Returns `Some((old_min, new_min))` of that heap when
    /// the edge was present, `None` otherwise.
    #[inline]
    pub(crate) fn remove(
        &mut self,
        t1: usize,
        t2: usize,
        pos: Pos,
        v: Pos,
    ) -> Option<(Option<Pos>, Option<Pos>)> {
        debug_assert!(t1 < self.kslots && t2 < self.kslots);
        let pair = &mut self.pairs[t1 * self.kslots + t2];
        let removed = pair.remove(pos, v)?;
        if pair.live_count() == 0 {
            // Rare transition (last live edge of the pair): a linear
            // scan over the short chain-degree list is cheaper than
            // maintaining positional indexes on the hot insert path.
            let o = &mut self.out_adj[t1];
            o.swap_remove(o.iter().position(|&t| t == t2 as u32).expect("in out_adj"));
            let i = &mut self.in_adj[t2];
            i.swap_remove(i.iter().position(|&t| t == t1 as u32).expect("in in_adj"));
        }
        Some(removed)
    }

    /// Drops every edge, keeping the stride: resets only the live pairs
    /// (found through the adjacency) and empties the adjacency lists.
    /// A pair whose last edge was removed is already empty.
    pub(crate) fn clear(&mut self) {
        for (t1, out) in self.out_adj.iter_mut().enumerate() {
            for t2 in out.drain(..) {
                self.pairs[t1 * self.kslots + t2 as usize] = PairHeaps::default();
            }
        }
        self.in_adj.iter_mut().for_each(Vec::clear);
    }

    /// Chains `t2` whose pair `(t1, t2)` holds at least one live edge
    /// (unsorted). Empty for unwitnessed chains.
    #[inline]
    pub(crate) fn out_neighbors(&self, t1: usize) -> &[u32] {
        self.out_adj.get(t1).map_or(&[], Vec::as_slice)
    }

    /// Chains `t1` whose pair `(t1, t2)` holds at least one live edge
    /// (unsorted). Empty for unwitnessed chains.
    #[inline]
    pub(crate) fn in_neighbors(&self, t2: usize) -> &[u32] {
        self.in_adj.get(t2).map_or(&[], Vec::as_slice)
    }

    /// Exact heap footprint: the slot vector, every pair's heaps, and
    /// the adjacency lists.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.pairs.capacity() * std::mem::size_of::<PairHeaps>()
            + self.pairs.iter().map(|p| p.memory_bytes()).sum::<usize>()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = MinMultiset::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.memory_bytes(), 0, "empty multiset allocates nothing");
    }

    #[test]
    fn multiplicity() {
        let mut h = MinMultiset::new();
        h.insert(5);
        assert_eq!(h.memory_bytes(), 0, "single value stays inline");
        h.insert(5);
        h.insert(2);
        assert_eq!(h.len(), 3);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.min(), Some(2));
        assert!(h.remove(2));
        assert_eq!(h.min(), Some(5));
        assert!(h.remove(5));
        assert!(h.remove(5));
        assert!(!h.remove(5));
        assert!(h.is_empty());
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut h = MinMultiset::new();
        h.insert(1);
        assert!(!h.remove(2));
        assert_eq!(h.len(), 1);
        assert_eq!(h.min(), Some(1));
        h.insert(3);
        h.insert(7);
        assert!(!h.remove(2));
        assert!(!h.remove(9));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn spill_and_return_to_inline() {
        let mut h = MinMultiset::new();
        h.insert(4);
        h.insert(9);
        assert!(h.memory_bytes() > 0, "two values spill into a vec");
        assert!(h.remove(4));
        assert_eq!(h.min(), Some(9));
        assert_eq!(
            h.memory_bytes(),
            0,
            "back to one value: inline representation restored"
        );
        // Inline round-trips keep equality semantics.
        let mut other = MinMultiset::new();
        other.insert(9);
        assert_eq!(h, other);
    }

    #[test]
    fn pair_heaps_insert_reports_improvements() {
        let mut p = PairHeaps::default();
        assert!(p.insert(10, 50), "first edge always improves");
        assert!(p.insert(10, 40), "smaller value improves");
        assert!(!p.insert(10, 40), "duplicate of the min does not");
        assert!(!p.insert(10, 60), "larger value does not");
        assert!(p.insert(3, 7), "fresh position improves");
    }

    #[test]
    fn pair_heaps_remove_reports_minima() {
        let mut p = PairHeaps::default();
        p.insert(10, 50);
        p.insert(10, 40);
        assert_eq!(p.remove(10, 99), None, "absent value");
        assert_eq!(p.remove(11, 40), None, "absent position");
        assert_eq!(p.remove(10, 40), Some((Some(40), Some(50))));
        assert_eq!(p.remove(10, 50), Some((Some(50), None)));
        assert_eq!(p.remove(10, 50), None, "heap emptied");
    }

    #[test]
    fn pair_heaps_compact_releases_memory() {
        let mut p = PairHeaps::default();
        for pos in 0..64u32 {
            p.insert(pos, pos + 100);
        }
        let full = p.memory_bytes();
        assert!(full > 0);
        for pos in 0..64u32 {
            assert!(p.remove(pos, pos + 100).is_some());
        }
        assert_eq!(
            p.memory_bytes(),
            0,
            "fully drained pair returns its allocation"
        );
        // And it keeps working after the reset.
        assert!(p.insert(5, 9));
        assert_eq!(p.remove(5, 9), Some((Some(9), None)));
    }

    #[test]
    fn store_restride_preserves_pairs_and_adjacency() {
        let mut s = EdgeHeapStore::new();
        s.sync_kslots(2);
        s.insert(0, 1, 7, 3);
        s.insert(1, 0, 2, 9);
        s.sync_kslots(8);
        assert_eq!(s.out_neighbors(0), &[1]);
        assert_eq!(s.in_neighbors(0), &[1]);
        assert_eq!(s.remove(0, 1, 7, 3), Some((Some(3), None)));
        assert_eq!(s.remove(1, 0, 2, 9), Some((Some(9), None)));
        assert_eq!(s.remove(5, 6, 0, 0), None);
        assert!(s.out_neighbors(0).is_empty());
        assert!(s.in_neighbors(1).is_empty());
    }

    #[test]
    fn adjacency_tracks_live_pairs_only() {
        let mut s = EdgeHeapStore::new();
        s.sync_kslots(4);
        assert!(s.out_neighbors(0).is_empty());
        // First live entry of a pair adds it once; more entries don't.
        s.insert(0, 1, 10, 50);
        s.insert(0, 1, 11, 60);
        s.insert(0, 2, 3, 7);
        let mut out: Vec<u32> = s.out_neighbors(0).to_vec();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(s.in_neighbors(1), &[0]);
        assert_eq!(s.in_neighbors(2), &[0]);
        // Draining one position leaves the pair live (tombstone).
        assert!(s.remove(0, 1, 10, 50).is_some());
        assert_eq!(s.in_neighbors(1), &[0]);
        // Draining the last live entry removes the pair from both sides.
        assert!(s.remove(0, 1, 11, 60).is_some());
        assert_eq!(s.out_neighbors(0), &[2]);
        assert!(s.in_neighbors(1).is_empty());
        // Removing an absent edge never touches the adjacency.
        assert!(s.remove(0, 1, 11, 60).is_none());
        assert_eq!(s.out_neighbors(0), &[2]);
        // Re-inserting resurrects the pair exactly once.
        s.insert(0, 1, 5, 9);
        let mut out: Vec<u32> = s.out_neighbors(0).to_vec();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn out_of_range_neighbor_queries_are_empty() {
        let s = EdgeHeapStore::new();
        assert!(s.out_neighbors(3).is_empty());
        assert!(s.in_neighbors(0).is_empty());
    }

    #[test]
    fn pair_heaps_live_count_excludes_tombstones() {
        let mut p = PairHeaps::default();
        assert_eq!(p.live_count(), 0);
        p.insert(1, 10);
        p.insert(2, 20);
        p.insert(3, 30);
        assert_eq!(p.live_count(), 3);
        p.remove(2, 20); // tombstoned (1/3 dead: no compaction yet)
        assert_eq!(p.live_count(), 2);
        p.remove(1, 10); // 2/3 dead: compacted away
        assert_eq!(p.live_count(), 1);
        p.remove(3, 30);
        assert_eq!(p.live_count(), 0);
    }
}
