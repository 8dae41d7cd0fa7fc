//! The dynamic-reachability interface shared by every partial-order
//! representation (§2.2).
//!
//! A chain DAG over a *growable* set of chains is maintained under the
//! five operations of the paper: `insertEdge`, `deleteEdge`,
//! `reachable`, `successor` and `predecessor`. Analyses in
//! `csst-analyses` are generic over this trait, which is how the
//! paper's per-analysis comparisons (Tables 1–7) plug different data
//! structures into the same analysis.
//!
//! ## Capacity-free domains
//!
//! The domain is not fixed at construction time: [`PartialOrderIndex::new`]
//! creates an empty index and chains/positions materialize on demand —
//! explicitly through [`ensure_chain`]/[`append`], or implicitly when an
//! edge touches a node the index has not seen yet.
//! [`PartialOrderIndex::with_capacity`] pre-sizes internal storage for a
//! known workload, but the hint is *not* a bound: growing past it is
//! always legal. [`PoError::OutOfRange`] is reserved for genuinely
//! invalid inputs — nodes beyond the addressable universe of
//! [`MAX_CHAINS`] chains × [`MAX_POS`]+1 positions.
//!
//! ## Validation in one place
//!
//! All input validation happens in the provided methods of this trait
//! ([`insert_edge`], [`delete_edge`], [`insert_edge_checked`]), which
//! then delegate to the unvalidated `*_raw` hooks each structure
//! implements. Implementations must not re-validate.
//!
//! [`ensure_chain`]: PartialOrderIndex::ensure_chain
//! [`append`]: PartialOrderIndex::append
//! [`insert_edge`]: PartialOrderIndex::insert_edge
//! [`delete_edge`]: PartialOrderIndex::delete_edge
//! [`insert_edge_checked`]: PartialOrderIndex::insert_edge_checked

use crate::error::PoError;
use crate::index::{NodeId, Pos, ThreadId, MAX_CHAINS, MAX_POS};

/// A dynamic-reachability index over a growable chain DAG.
///
/// # Conventions
///
/// * Nodes `⟨t, i⟩` live in a conceptually unbounded domain; each chain
///   is totally ordered, so `reachable` is reflexive and
///   `⟨t, i⟩ → ⟨t, j⟩` holds whenever `i ≤ j`. The *witnessed* part of
///   the domain ([`chains`]/[`chain_len`]) grows as nodes are touched.
/// * Updates connect nodes of **different** chains only
///   ([`PoError::SameChain`] otherwise).
/// * The maintained relation must stay acyclic. Plain `insert_edge`
///   trusts the caller; [`insert_edge_checked`] refuses edges whose
///   target already reaches their source.
///
/// # Example: one analysis, many representations
///
/// Analyses written against this trait run unchanged on every
/// structure — exactly how the paper's per-analysis comparisons work:
///
/// ```
/// use csst_core::{
///     GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, ThreadId, VectorClockIndex,
/// };
///
/// fn earliest_downstream<P: PartialOrderIndex>() -> Option<u32> {
///     let mut po = P::new(); // no capacity needed: the domain grows on demand
///     po.insert_edge(NodeId::new(0, 5), NodeId::new(1, 7)).ok()?;
///     po.insert_edge(NodeId::new(1, 9), NodeId::new(2, 2)).ok()?;
///     po.successor(NodeId::new(0, 0), ThreadId(2))
/// }
///
/// assert_eq!(earliest_downstream::<IncrementalCsst>(), Some(2));
/// assert_eq!(earliest_downstream::<VectorClockIndex>(), Some(2));
/// assert_eq!(earliest_downstream::<GraphIndex>(), Some(2));
/// ```
///
/// # Send-safety
///
/// The trait requires [`Send`]: an analysis session owns its index and
/// is itself `Send` (`csst-serve` runs each session on its own thread),
/// so every representation must be movable into another thread.
/// Interior mutability inside an index (query scratch) is fine —
/// [`RefCell`](std::cell::RefCell) is `Send` — but thread-pinned state
/// (`Rc`, thread locals) is not.
///
/// [`chains`]: PartialOrderIndex::chains
/// [`chain_len`]: PartialOrderIndex::chain_len
/// [`insert_edge_checked`]: PartialOrderIndex::insert_edge_checked
pub trait PartialOrderIndex: Send {
    /// Creates an empty index with no chains. Chains and positions
    /// materialize on demand.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates an index pre-sized for `chains` chains of about
    /// `chain_capacity` events each.
    ///
    /// The hint is **not** a bound: the index starts with `chains`
    /// (empty) chains and grows freely past both numbers. Migrating
    /// from the old fixed-domain API: `P::new(k, n)` becomes
    /// `P::with_capacity(k, n)`.
    ///
    /// The default implementation pre-creates the chains and ignores
    /// the capacity hint; structures whose storage is sized by
    /// positions override it.
    fn with_capacity(chains: usize, chain_capacity: usize) -> Self
    where
        Self: Sized,
    {
        let _ = chain_capacity;
        let mut po = Self::new();
        if chains > 0 {
            po.ensure_chain(ThreadId::from_index(chains - 1));
        }
        po
    }

    /// Short human-readable name of the representation (used in the
    /// benchmark tables: `"CSSTs"`, `"STs"`, `"VCs"`, `"Graphs"`).
    fn name(&self) -> &'static str;

    /// Number of chains witnessed so far (the current `k`).
    fn chains(&self) -> usize;

    /// Number of events witnessed on `chain` so far: the next
    /// [`append`](Self::append) on this chain returns this position.
    fn chain_len(&self, chain: ThreadId) -> usize;

    /// Grows the domain so that `chain` exists (possibly still with
    /// zero events). No-op if it already does.
    ///
    /// # Panics
    ///
    /// Panics if `chain` lies beyond [`MAX_CHAINS`] — growth is
    /// infallible inside the addressable universe; validate untrusted
    /// input with [`check_node`](Self::check_node) first.
    fn ensure_chain(&mut self, chain: ThreadId);

    /// Grows `chain` so that it holds at least `len` events (implies
    /// [`ensure_chain`](Self::ensure_chain)). No-op if it already does.
    ///
    /// # Panics
    ///
    /// Panics if `chain` or `len` lies beyond the addressable universe
    /// ([`MAX_CHAINS`] chains of at most [`MAX_POS`]` + 1` events).
    fn ensure_len(&mut self, chain: ThreadId, len: usize);

    /// Appends one event to `chain` (creating the chain if needed) and
    /// returns its node — the streaming entry point of the API.
    ///
    /// # Panics
    ///
    /// Panics if the append would leave the addressable universe (see
    /// [`ensure_len`](Self::ensure_len)).
    ///
    /// ```
    /// use csst_core::{Csst, NodeId, PartialOrderIndex};
    /// let mut po = Csst::new();
    /// assert_eq!(po.append(0), NodeId::new(0, 0));
    /// assert_eq!(po.append(0), NodeId::new(0, 1));
    /// assert_eq!(po.append(3), NodeId::new(3, 0));
    /// assert_eq!(po.chains(), 4);
    /// ```
    fn append(&mut self, chain: impl Into<ThreadId>) -> NodeId
    where
        Self: Sized,
    {
        let chain = chain.into();
        self.ensure_chain(chain);
        let pos = self.chain_len(chain);
        self.ensure_len(chain, pos + 1);
        NodeId::new(chain, pos as Pos)
    }

    /// Inserts the cross-chain edge `from → to`, growing the domain to
    /// cover both endpoints.
    ///
    /// # Errors
    ///
    /// [`PoError::OutOfRange`] if an endpoint is outside the
    /// addressable universe, [`PoError::SameChain`] if both endpoints
    /// share a chain.
    fn insert_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.check_edge(from, to)?;
        self.ensure_len(from.thread, from.pos as usize + 1);
        self.ensure_len(to.thread, to.pos as usize + 1);
        self.insert_edge_raw(from, to);
        Ok(())
    }

    /// Inserts a batch of cross-chain edges, amortizing validation and
    /// domain growth over the whole batch.
    ///
    /// Semantically equivalent to calling
    /// [`insert_edge`](Self::insert_edge) for each pair in order, with
    /// one strengthening: the **whole batch is validated first**, and
    /// on a validation error *nothing* is inserted (sequential
    /// insertion would have applied the prefix before failing).
    /// Successful batches leave the index in exactly the state the
    /// sequential calls would — same reachability, same density
    /// statistics, same edge count — which
    /// `crates/core/tests/proptests.rs` pins against the oracles.
    ///
    /// Like `insert_edge`, the caller is responsible for keeping the
    /// relation acyclic (there is no batched cycle check; use
    /// [`insert_edge_checked`](Self::insert_edge_checked) per edge when
    /// unsure).
    ///
    /// # Errors
    ///
    /// The first [`PoError::OutOfRange`] or [`PoError::SameChain`] in
    /// batch order; the index is unchanged on error.
    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<(), PoError> {
        for &(from, to) in edges {
            self.check_edge(from, to)?;
        }
        // Grow each touched chain once, to its batch-wide maximum —
        // not twice per edge. Chains are few; a linear scratch scan
        // beats hashing.
        let mut maxima: Vec<(ThreadId, Pos)> = Vec::new();
        for &(from, to) in edges {
            for node in [from, to] {
                match maxima.iter_mut().find(|(t, _)| *t == node.thread) {
                    Some((_, max)) => *max = (*max).max(node.pos),
                    None => maxima.push((node.thread, node.pos)),
                }
            }
        }
        for (chain, max) in maxima {
            self.ensure_len(chain, max as usize + 1);
        }
        self.insert_edges_raw(edges);
        Ok(())
    }

    /// Deletes a previously inserted edge `from → to`.
    ///
    /// # Errors
    ///
    /// [`PoError::DeletionUnsupported`] for insert-only structures,
    /// [`PoError::EdgeNotFound`] if the edge is not present, plus the
    /// same validation errors as [`insert_edge`](Self::insert_edge).
    fn delete_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.check_edge(from, to)?;
        self.delete_edge_raw(from, to)
    }

    /// Drops every edge but keeps the witnessed chains and lengths:
    /// afterwards the index answers like a fresh one grown to the same
    /// domain. Insert-only structures support it too. The default
    /// rebuilds the index.
    fn clear_edges(&mut self)
    where
        Self: Sized,
    {
        let old = std::mem::replace(self, Self::new());
        for t in (0..old.chains()).map(ThreadId::from_index) {
            self.ensure_len(t, old.chain_len(t));
        }
    }

    /// Inserts `from → to` unless `to` already reaches `from`.
    ///
    /// # Errors
    ///
    /// [`PoError::WouldCycle`] when the insertion would close a cycle,
    /// plus any error of [`insert_edge`](Self::insert_edge).
    fn insert_edge_checked(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.check_edge(from, to)?;
        if self.reachable(to, from) {
            return Err(PoError::WouldCycle { from, to });
        }
        self.ensure_len(from.thread, from.pos as usize + 1);
        self.ensure_len(to.thread, to.pos as usize + 1);
        self.insert_edge_raw(from, to);
        Ok(())
    }

    /// Records the pre-validated cross-chain edge `from → to`.
    ///
    /// Called by the provided [`insert_edge`](Self::insert_edge) /
    /// [`insert_edge_checked`](Self::insert_edge_checked) after
    /// validation and domain growth; implementations must not
    /// re-validate. Calling this directly with same-chain or
    /// out-of-universe endpoints leaves the structure in an
    /// unspecified state.
    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId);

    /// Records a pre-validated batch of cross-chain edges, in order.
    ///
    /// Called by the provided [`insert_edges`](Self::insert_edges)
    /// after validation and domain growth. The default delegates to
    /// [`insert_edge_raw`](Self::insert_edge_raw) per edge; an
    /// override must remain observationally identical to it.
    fn insert_edges_raw(&mut self, edges: &[(NodeId, NodeId)]) {
        for &(from, to) in edges {
            self.insert_edge_raw(from, to);
        }
    }

    /// Removes the pre-validated edge `from → to`.
    ///
    /// Called by the provided [`delete_edge`](Self::delete_edge) after
    /// validation; implementations must not re-validate, and report
    /// only [`PoError::EdgeNotFound`] or
    /// [`PoError::DeletionUnsupported`].
    fn delete_edge_raw(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError>;

    /// `true` iff `from` reaches `to` through program order and inserted
    /// edges (reflexively: every node reaches itself).
    ///
    /// # Complexity
    ///
    /// The default delegates to [`successor`](Self::successor) and
    /// inherits its cost. Representations override it when a bound
    /// check is cheaper than the exact frontier: vector clocks answer
    /// in `O(1)` (one clock entry), and the fully dynamic CSST's
    /// worklist engine stops as soon as *any* crossing path lands at
    /// or before `to` — or provably none can — rather than finding the
    /// earliest one (see `csst_core::dynamic`).
    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from.thread == to.thread {
            return from.pos <= to.pos;
        }
        self.successor(from, to.thread).is_some_and(|j| j <= to.pos)
    }

    /// Position of the earliest node of `chain` reachable from `from`,
    /// or `None` if `from` reaches no node of that chain. On `from`'s
    /// own chain this is `from.pos` (reflexivity). Querying nodes or
    /// chains beyond the witnessed domain is legal and treats them as
    /// unconnected.
    ///
    /// # Complexity
    ///
    /// Per representation (`k` chains, `n` events/chain, `m` edges,
    /// `d` cross-chain density, `p` live chain pairs reached from
    /// `from`):
    ///
    /// * fully dynamic CSSTs: `O(p·min(log n, d))` sparse-worklist
    ///   propagation (`p ≤ k²`; the paper's dense bound is
    ///   `O(k³·min(log n, d))`), recomputed on every query;
    /// * incremental CSSTs / STs: one suffix-minima query,
    ///   `O(min(log n, d))` resp. `O(log n)`;
    /// * VCs: `O(log n)` binary search over materialized clock rows;
    /// * Graphs: `O(m + k)` chain-aware traversal.
    ///
    /// All implementations answer without allocating in steady state.
    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos>;

    /// Position of the latest node of `chain` that reaches `from`, or
    /// `None` if no node of that chain does. On `from`'s own chain this
    /// is `from.pos` (reflexivity). Querying nodes or chains beyond the
    /// witnessed domain is legal and treats them as unconnected.
    ///
    /// # Complexity
    ///
    /// The backward dual of [`successor`](Self::successor): identical
    /// bounds per representation, with `argleq` taking the place of
    /// the suffix-minimum (vector clocks answer from one clock entry,
    /// `O(1)`).
    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos>;

    /// Answers a batch of [`reachable`](Self::reachable) probes,
    /// appending one `bool` per probe to `out` (in probe order, after
    /// clearing `out`).
    ///
    /// Semantically identical to issuing every probe through
    /// `reachable` — the property tests pin batched == sequential for
    /// every representation. The default answers per probe, which is
    /// what every representation except [`GraphIndex`] uses; the graph
    /// baseline overrides it to share one traversal per distinct
    /// source node.
    ///
    /// [`GraphIndex`]: crate::GraphIndex
    ///
    /// The out-parameter style keeps the hot path allocation-lean:
    /// callers reuse one `Vec` across batches.
    ///
    /// ```
    /// use csst_core::{Csst, NodeId, PartialOrderIndex};
    /// # fn main() -> Result<(), csst_core::PoError> {
    /// let mut po = Csst::new();
    /// po.insert_edge(NodeId::new(0, 3), NodeId::new(1, 4))?;
    /// let probes = [
    ///     (NodeId::new(0, 0), NodeId::new(1, 9)),
    ///     (NodeId::new(0, 4), NodeId::new(1, 9)),
    ///     (NodeId::new(0, 1), NodeId::new(0, 2)),
    /// ];
    /// let mut out = Vec::new();
    /// po.reachable_batch(&probes, &mut out);
    /// assert_eq!(out, vec![true, false, true]);
    /// # Ok(())
    /// # }
    /// ```
    fn reachable_batch(&self, probes: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(probes.len());
        out.extend(probes.iter().map(|&(from, to)| self.reachable(from, to)));
    }

    /// Answers a batch of [`successor`](Self::successor) probes,
    /// appending one `Option<Pos>` per probe to `out` (in probe order,
    /// after clearing `out`).
    ///
    /// Same contract as [`reachable_batch`](Self::reachable_batch):
    /// batched answers are identical to per-probe answers.
    ///
    /// ```
    /// use csst_core::{Csst, NodeId, PartialOrderIndex, ThreadId};
    /// # fn main() -> Result<(), csst_core::PoError> {
    /// let mut po = Csst::new();
    /// po.insert_edge(NodeId::new(0, 3), NodeId::new(1, 4))?;
    /// let probes = [
    ///     (NodeId::new(0, 0), ThreadId(1)),
    ///     (NodeId::new(0, 4), ThreadId(1)),
    ///     (NodeId::new(0, 7), ThreadId(0)), // own chain: reflexive
    /// ];
    /// let mut out = Vec::new();
    /// po.successor_batch(&probes, &mut out);
    /// assert_eq!(out, vec![Some(4), None, Some(7)]);
    /// # Ok(())
    /// # }
    /// ```
    fn successor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        out.clear();
        out.reserve(probes.len());
        out.extend(
            probes
                .iter()
                .map(|&(from, chain)| self.successor(from, chain)),
        );
    }

    /// Answers a batch of [`predecessor`](Self::predecessor) probes,
    /// appending one `Option<Pos>` per probe to `out` (in probe order,
    /// after clearing `out`).
    ///
    /// The backward dual of
    /// [`successor_batch`](Self::successor_batch), with the same
    /// batched == sequential contract.
    ///
    /// ```
    /// use csst_core::{Csst, NodeId, PartialOrderIndex, ThreadId};
    /// # fn main() -> Result<(), csst_core::PoError> {
    /// let mut po = Csst::new();
    /// po.insert_edge(NodeId::new(0, 3), NodeId::new(1, 4))?;
    /// let probes = [
    ///     (NodeId::new(1, 9), ThreadId(0)),
    ///     (NodeId::new(1, 2), ThreadId(0)),
    /// ];
    /// let mut out = Vec::new();
    /// po.predecessor_batch(&probes, &mut out);
    /// assert_eq!(out, vec![Some(3), None]);
    /// # Ok(())
    /// # }
    /// ```
    fn predecessor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        out.clear();
        out.reserve(probes.len());
        out.extend(
            probes
                .iter()
                .map(|&(from, chain)| self.predecessor(from, chain)),
        );
    }

    /// Whether [`delete_edge`](Self::delete_edge) is supported.
    fn supports_deletion(&self) -> bool {
        false
    }

    /// Approximate heap footprint in bytes, for the paper's memory
    /// comparisons (Figure 10). Sparse structures must not charge for
    /// untouched capacity.
    fn memory_bytes(&self) -> usize;

    /// Validates that `node` lies inside the addressable universe of
    /// [`MAX_CHAINS`] chains × [`MAX_POS`]`+1` positions.
    ///
    /// # Errors
    ///
    /// [`PoError::OutOfRange`] otherwise.
    fn check_node(&self, node: NodeId) -> Result<(), PoError> {
        if node.thread.index() >= MAX_CHAINS || node.pos > MAX_POS {
            return Err(PoError::OutOfRange { node });
        }
        Ok(())
    }

    /// Validates an edge: both endpoints addressable and on distinct
    /// chains. This is the **single** validation path of the trait.
    ///
    /// # Errors
    ///
    /// [`PoError::OutOfRange`] or [`PoError::SameChain`].
    fn check_edge(&self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from.thread == to.thread {
            return Err(PoError::SameChain { from, to });
        }
        Ok(())
    }
}

/// Witnessed-domain bookkeeping shared by the index implementations:
/// the set of known chains and the number of events seen per chain.
///
/// Implementations embed a `Domain` and layer their own storage growth
/// on top of its `ensure_*` primitives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Domain {
    lens: Vec<Pos>,
}

impl Domain {
    /// An empty domain (no chains).
    pub fn new() -> Self {
        Domain::default()
    }

    /// A domain with `chains` chains of zero events each.
    ///
    /// # Panics
    ///
    /// Panics if `chains` exceeds [`MAX_CHAINS`].
    pub fn with_chains(chains: usize) -> Self {
        assert!(
            chains <= MAX_CHAINS,
            "{chains} chains beyond the addressable universe of {MAX_CHAINS}"
        );
        Domain {
            lens: vec![0; chains],
        }
    }

    /// Number of witnessed chains.
    #[inline]
    pub fn chains(&self) -> usize {
        self.lens.len()
    }

    /// Number of witnessed events on `chain` (0 for unknown chains).
    #[inline]
    pub fn chain_len(&self, chain: ThreadId) -> usize {
        self.lens.get(chain.index()).map_or(0, |&l| l as usize)
    }

    /// Ensures `chain` exists; returns `true` if new chains were added.
    ///
    /// # Panics
    ///
    /// Panics if `chain` lies beyond [`MAX_CHAINS`] — growth is
    /// infallible inside the addressable universe, and out-of-universe
    /// inputs are programming errors (use
    /// [`PartialOrderIndex::check_node`] to validate untrusted input).
    pub fn ensure_chain(&mut self, chain: ThreadId) -> bool {
        assert!(
            chain.index() < MAX_CHAINS,
            "chain {chain} beyond the addressable universe of {MAX_CHAINS} chains"
        );
        if chain.index() < self.lens.len() {
            return false;
        }
        self.lens.resize(chain.index() + 1, 0);
        true
    }

    /// Ensures `chain` holds at least `len` events; returns `true` if
    /// the chain grew (in chains or in length).
    ///
    /// # Panics
    ///
    /// Panics if `chain` or `len` lies beyond the addressable universe
    /// (see [`Domain::ensure_chain`]; `len` is capped at
    /// [`MAX_POS`]` + 1` events).
    pub fn ensure_len(&mut self, chain: ThreadId, len: usize) -> bool {
        assert!(
            len <= MAX_POS as usize + 1,
            "chain length {len} beyond the addressable universe of {} positions",
            MAX_POS as usize + 1
        );
        let grew_chains = self.ensure_chain(chain);
        let slot = &mut self.lens[chain.index()];
        if (*slot as usize) < len {
            *slot = len as Pos;
            true
        } else {
            grew_chains
        }
    }

    /// Heap footprint of the bookkeeping itself.
    pub fn memory_bytes(&self) -> usize {
        self.lens.capacity() * std::mem::size_of::<Pos>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_growth() {
        let mut d = Domain::new();
        assert_eq!(d.chains(), 0);
        assert_eq!(d.chain_len(ThreadId(3)), 0);
        assert!(d.ensure_chain(ThreadId(2)));
        assert_eq!(d.chains(), 3);
        assert!(!d.ensure_chain(ThreadId(1)));
        assert!(d.ensure_len(ThreadId(1), 5));
        assert_eq!(d.chain_len(ThreadId(1)), 5);
        assert!(!d.ensure_len(ThreadId(1), 4), "shrinking is a no-op");
        assert_eq!(d.chain_len(ThreadId(1)), 5);
        assert!(d.ensure_len(ThreadId(7), 1), "new chain via ensure_len");
        assert_eq!(d.chains(), 8);
    }

    #[test]
    #[should_panic(expected = "addressable universe")]
    fn ensure_chain_rejects_out_of_universe_chains() {
        let mut d = Domain::new();
        d.ensure_chain(ThreadId(MAX_CHAINS as u32));
    }

    #[test]
    #[should_panic(expected = "addressable universe")]
    fn ensure_len_rejects_out_of_universe_lengths() {
        let mut d = Domain::new();
        d.ensure_len(ThreadId(0), MAX_POS as usize + 2);
    }

    #[test]
    fn with_chains_pre_creates_empty_chains() {
        let d = Domain::with_chains(4);
        assert_eq!(d.chains(), 4);
        for t in 0..4u32 {
            assert_eq!(d.chain_len(ThreadId(t)), 0);
        }
    }
}
