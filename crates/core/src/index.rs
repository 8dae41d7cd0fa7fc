//! Node identifiers for chain DAGs.
//!
//! A chain DAG (§2.2 of the paper) has nodes `⟨t, i⟩ ∈ [k] × [n]`: `t`
//! identifies one of `k` totally ordered chains (normally a thread) and
//! `i` is the position of the event within its chain. Consecutive
//! positions of the same chain are implicitly ordered (program order),
//! so only *cross-chain* edges are ever materialized.

use std::fmt;

/// Position of an event within its chain, or a value stored in a
/// suffix-minima array. [`INF`] is the reserved "empty" sentinel.
pub type Pos = u32;

/// The `∞` sentinel of the paper's suffix-minima arrays: an array entry
/// with this value is *empty* and does not participate in queries.
pub const INF: Pos = Pos::MAX;

/// Largest addressable chain position. Positions live in
/// `[0, MAX_POS]` so that chain lengths stay within the `2^31`-entry
/// limit of the sparse segment trees; larger positions are *genuinely
/// invalid* and rejected with
/// [`PoError::OutOfRange`](crate::PoError::OutOfRange).
pub const MAX_POS: Pos = (1 << 31) - 1;

/// Largest addressable number of chains. Chain ids at or beyond this
/// are *genuinely invalid* and rejected with
/// [`PoError::OutOfRange`](crate::PoError::OutOfRange); within it, the
/// witnessed domain grows on demand.
pub const MAX_CHAINS: usize = 1 << 16;

/// Identifier of a chain of the DAG.
///
/// In most analyses a chain is a thread; in weak-memory settings a
/// thread may contribute several chains (e.g. x86-TSO uses one chain
/// for the program order and one for the store buffer, §5.2(4)).
///
/// ```
/// use csst_core::ThreadId;
/// let t = ThreadId(3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The chain index as a `usize`, for indexing per-chain tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `ThreadId` from a `usize` table index (the inverse of
    /// [`index`](Self::index)).
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in a `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        ThreadId(u32::try_from(i).expect("chain index fits in u32"))
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for ThreadId {
    fn from(v: u32) -> Self {
        ThreadId(v)
    }
}

impl TryFrom<i32> for ThreadId {
    type Error = std::num::TryFromIntError;

    /// Fallible conversion from signed integers (negative ids are
    /// rejected instead of panicking).
    ///
    /// Bare integer literals keep working everywhere an
    /// `impl Into<ThreadId>` is accepted — `From<u32>` is the unique
    /// integer impl, so `NodeId::new(0, 42)` infers `0: u32`:
    ///
    /// ```
    /// use csst_core::{NodeId, ThreadId};
    /// assert_eq!(NodeId::new(0, 42).thread, ThreadId(0));
    /// assert!(ThreadId::try_from(-1i32).is_err());
    /// assert_eq!(ThreadId::try_from(7i32), Ok(ThreadId(7)));
    /// ```
    fn try_from(v: i32) -> Result<Self, Self::Error> {
        u32::try_from(v).map(ThreadId)
    }
}

/// A node `⟨t, i⟩` of a chain DAG: event `i` of chain `t`.
///
/// Two nodes of the same chain are implicitly ordered by their
/// positions; nodes of different chains are ordered only through
/// explicitly inserted cross-chain edges (and their transitive
/// consequences).
///
/// ```
/// use csst_core::{NodeId, ThreadId};
/// let u = NodeId::new(0, 42);
/// assert_eq!(u.thread, ThreadId(0));
/// assert_eq!(u.pos, 42);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeId {
    /// The chain this event belongs to.
    pub thread: ThreadId,
    /// The position of the event within its chain.
    pub pos: Pos,
}

impl NodeId {
    /// Creates the node `⟨thread, pos⟩`.
    #[inline]
    pub fn new(thread: impl Into<ThreadId>, pos: Pos) -> Self {
        NodeId {
            thread: thread.into(),
            pos,
        }
    }

    /// `true` if `self` and `other` belong to the same chain.
    #[inline]
    pub fn same_chain(self, other: NodeId) -> bool {
        self.thread == other.thread
    }

    /// Program-order comparison: `true` iff both nodes are on the same
    /// chain and `self` is at `other` or earlier.
    ///
    /// This is the *reflexive* intra-chain order `≤po`.
    #[inline]
    pub fn po_before_eq(self, other: NodeId) -> bool {
        self.thread == other.thread && self.pos <= other.pos
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.thread.0, self.pos)
    }
}

impl From<(u32, u32)> for NodeId {
    fn from((t, i): (u32, u32)) -> Self {
        NodeId::new(t, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        let t: ThreadId = 7u32.into();
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "t7");
        assert_eq!(ThreadId::from_index(7), t);
    }

    #[test]
    fn thread_id_try_from_signed() {
        assert_eq!(ThreadId::try_from(5i32), Ok(ThreadId(5)));
        assert!(ThreadId::try_from(-3i32).is_err());
    }

    #[test]
    fn addressable_limits() {
        const { assert!(MAX_POS < INF) };
        const { assert!(MAX_CHAINS <= u32::MAX as usize) };
    }

    #[test]
    fn node_id_basics() {
        let u = NodeId::new(1, 5);
        let v = NodeId::new(1, 9);
        let w = NodeId::new(2, 0);
        assert!(u.same_chain(v));
        assert!(!u.same_chain(w));
        assert!(u.po_before_eq(v));
        assert!(u.po_before_eq(u));
        assert!(!v.po_before_eq(u));
        assert!(!u.po_before_eq(w));
        assert_eq!(u.to_string(), "⟨1, 5⟩");
    }

    #[test]
    fn node_id_from_tuple() {
        let u: NodeId = (3, 4).into();
        assert_eq!(u, NodeId::new(3, 4));
    }

    #[test]
    fn inf_is_max() {
        assert_eq!(INF, u32::MAX);
    }
}
