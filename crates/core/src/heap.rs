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
//! into a sorted `Vec`. The crate-private `PairHeaps` packs the
//! per-node heaps of one chain pair into a single position-sorted
//! vector; [`DynamicPo`](crate::DynamicPo) keeps one per chain pair as
//! the companion of that pair's suffix-minima array in its pair matrix,
//! so the insert/delete hot path does no hash lookups.

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
    fn pair_heaps_live_count_excludes_tombstones() {
        // Live positions are the entries minus the tombstones.
        let live = |p: &PairHeaps| p.entries.len() - p.tombs;
        let mut p = PairHeaps::default();
        assert_eq!(live(&p), 0);
        p.insert(1, 10);
        p.insert(2, 20);
        p.insert(3, 30);
        assert_eq!(live(&p), 3);
        p.remove(2, 20); // tombstoned (1/3 dead: no compaction yet)
        assert_eq!((p.entries.len(), p.tombs), (3, 1));
        assert!(p.insert(2, 25), "a tombstone revives with a new minimum");
        assert_eq!((p.entries.len(), p.tombs), (3, 0));
        p.remove(2, 25);
        assert_eq!(live(&p), 2);
        p.remove(1, 10); // 2/3 dead: compacted away
        assert_eq!((p.entries.len(), p.tombs), (1, 0));
        p.remove(3, 30);
        assert_eq!(live(&p), 0);
        assert_eq!(p, PairHeaps::default(), "a drained pair is a default pair");
    }
}
