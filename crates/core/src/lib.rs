//! # csst-core — Collective Sparse Segment Trees
//!
//! A faithful Rust implementation of the data structures from
//! *CSSTs: A Dynamic Data Structure for Partial Orders in Concurrent
//! Execution Analysis* (Tunç, Deshmukh, Çirisci, Enea, Pavlogiannis;
//! ASPLOS 2024).
//!
//! Dynamic analyses of concurrent programs maintain a partial order `P`
//! ("happens-before") over the events of a trace. `P` is a *chain DAG*:
//! `k` totally ordered chains (one per thread, or per thread component)
//! plus cross-chain edges inserted, queried, and — in fully dynamic
//! analyses — deleted as the analysis explores reorderings.
//!
//! This crate provides five interchangeable representations of such a
//! partial order, all implementing [`PartialOrderIndex`]:
//!
//! * [`Csst`] — the paper's fully dynamic Collective Sparse Segment
//!   Trees (Algorithm 2): `O(max(log δ, min(log n, d)))` updates and
//!   supports edge deletion. Queries run the paper's
//!   `O(k³ min(log n, d))` crossing-path fixpoint as a sparse worklist
//!   over the chain pairs that actually hold edges, recomputed on every
//!   query as in the paper (see the module docs of `dynamic`).
//! * [`IncrementalCsst`] — the purely incremental specialization
//!   (Algorithm 3): `O(k² min(log n, d))` inserts and
//!   `O(min(log n, d))` queries.
//! * [`SegTreeIndex`] — the "STs" baseline of the M2 race detector
//!   \[Pavlogiannis 2019\]: the same incremental architecture over dense
//!   (non-sparse) segment trees.
//! * [`VectorClockIndex`] — the "VCs" baseline: vector clocks with the
//!   two optimizations described in §5.1 of the paper (early-stop edge
//!   propagation and lazy clock materialization).
//! * [`GraphIndex`] — the "Graphs" baseline: a plain, non-transitively
//!   closed graph answering queries by BFS; the only classic structure
//!   that supports deletions.
//!
//! The underlying algorithmic workhorse is the *dynamic suffix minima*
//! problem (§3.1), solved by [`SparseSegmentTree`] (Algorithm 1) with
//! the paper's two novelties: **minima indexing** and a **sparse tree
//! representation** with flattened block leaves.
//!
//! ## Quickstart
//!
//! Indexes are *capacity-free*: start empty and let the domain grow as
//! events and orderings arrive — exactly what an online analysis over a
//! live event stream needs.
//!
//! ```
//! use csst_core::{Csst, NodeId, PartialOrderIndex, ThreadId};
//!
//! # fn main() -> Result<(), csst_core::PoError> {
//! let mut po = Csst::new(); // no chain count, no capacity
//!
//! // Stream events in: `append` hands out the next node of a chain.
//! let a = po.append(0);
//! let b = po.append(1);
//! assert_eq!((a, b), (NodeId::new(0, 0), NodeId::new(1, 0)));
//!
//! // Or address nodes directly — the domain grows to cover them.
//! po.insert_edge(NodeId::new(0, 10), NodeId::new(1, 20))?;
//! po.insert_edge(NodeId::new(1, 20), NodeId::new(2, 5))?;
//! assert_eq!(po.chains(), 3);
//! assert!(po.reachable(NodeId::new(0, 10), NodeId::new(2, 5)));
//! assert_eq!(po.successor(NodeId::new(0, 10), ThreadId(2)), Some(5));
//!
//! po.delete_edge(NodeId::new(1, 20), NodeId::new(2, 5))?; // fully dynamic
//! assert!(!po.reachable(NodeId::new(0, 10), NodeId::new(2, 5)));
//! # Ok(())
//! # }
//! ```
//!
//! When the workload shape is known in advance,
//! [`PartialOrderIndex::with_capacity`] pre-sizes internal storage —
//! a hint, not a bound. **Migration from the fixed-domain API:** the
//! old `P::new(k, n)` constructor is now `P::with_capacity(k, n)`, and
//! `PoError::OutOfRange` is reserved for genuinely invalid inputs
//! (beyond [`MAX_CHAINS`]/[`MAX_POS`]) instead of every node past the
//! construction-time domain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod heap;
pub mod index;
pub mod naive;
pub mod reach;
pub mod segtree;
pub mod sst;
pub mod stats;
pub mod suffix;
pub mod vc;

mod dynamic;
mod incremental;
mod matrix;

pub use dynamic::{Csst, DynamicPo};
pub use error::PoError;
pub use graph::GraphIndex;
pub use incremental::{IncrementalCsst, IncrementalPo, SegTreeIndex};
pub use index::{NodeId, Pos, ThreadId, INF, MAX_CHAINS, MAX_POS};
pub use naive::NaiveIndex;
pub use reach::{Domain, PartialOrderIndex};
pub use segtree::SegmentTree;
pub use sst::SparseSegmentTree;
pub use stats::DensityStats;
pub use suffix::{NaiveSuffixArray, SuffixMinima};
pub use vc::VectorClockIndex;
