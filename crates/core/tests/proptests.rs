//! Property tests for the core data structures, checking the paper's
//! lemmas and the pairwise agreement of all representations against
//! the naive oracle.

use csst_core::{
    AnchoredVectorClockIndex, Csst, GraphIndex, IncrementalCsst, NaiveIndex, NaiveSuffixArray,
    NodeId, PartialOrderIndex, SegTreeIndex, SegmentTree, SparseSegmentTree, SuffixMinima,
    ThreadId, VectorClockIndex, INF,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Suffix minima: SST and dense segment tree vs the naive array.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SufOp {
    Update(usize, u32),
    Erase(usize),
    Min(usize),
    Argleq(u32),
}

fn suf_ops(len: usize) -> impl Strategy<Value = Vec<SufOp>> {
    let op = prop_oneof![
        (0..len, 0u32..64).prop_map(|(i, v)| SufOp::Update(i, v)),
        (0..len).prop_map(SufOp::Erase),
        (0..=len).prop_map(SufOp::Min),
        (0u32..70).prop_map(SufOp::Argleq),
    ];
    prop::collection::vec(op, 1..200)
}

fn check_suffix_impl<S: SuffixMinima + std::fmt::Debug>(
    len: usize,
    block: Option<u32>,
    ops: &[SufOp],
) {
    let mut s: Box<dyn SuffixMinima> = match block {
        Some(b) => Box::new(SparseSegmentTree::with_block_size(len, b)),
        None => Box::new(S::with_len(len)),
    };
    let mut oracle = NaiveSuffixArray::with_len(len);
    for op in ops {
        match *op {
            SufOp::Update(i, v) => {
                s.update(i, v);
                oracle.update(i, v);
            }
            SufOp::Erase(i) => {
                s.update(i, INF);
                oracle.update(i, INF);
            }
            SufOp::Min(i) => {
                assert_eq!(s.suffix_min(i), oracle.suffix_min(i), "suffix_min({i})");
            }
            SufOp::Argleq(v) => {
                assert_eq!(s.argleq(v), oracle.argleq(v), "argleq({v})");
            }
        }
        assert_eq!(s.density(), oracle.density());
    }
    // Final exhaustive sweep.
    for i in 0..=len {
        assert_eq!(s.suffix_min(i), oracle.suffix_min(i));
    }
    for v in 0..70 {
        assert_eq!(s.argleq(v), oracle.argleq(v));
    }
    assert_eq!(s.argleq(INF), oracle.argleq(INF));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sst_matches_oracle(len in 1usize..120, ops in suf_ops(120), block in 1u32..64) {
        let ops: Vec<_> = ops
            .into_iter()
            .map(|op| match op {
                SufOp::Update(i, v) => SufOp::Update(i % len, v),
                SufOp::Erase(i) => SufOp::Erase(i % len),
                SufOp::Min(i) => SufOp::Min(i.min(len)),
                o => o,
            })
            .collect();
        check_suffix_impl::<SparseSegmentTree>(len, Some(block), &ops);
    }

    #[test]
    fn segtree_matches_oracle(len in 1usize..120, ops in suf_ops(120)) {
        let ops: Vec<_> = ops
            .into_iter()
            .map(|op| match op {
                SufOp::Update(i, v) => SufOp::Update(i % len, v),
                SufOp::Erase(i) => SufOp::Erase(i % len),
                SufOp::Min(i) => SufOp::Min(i.min(len)),
                o => o,
            })
            .collect();
        check_suffix_impl::<SegmentTree>(len, None, &ops);
    }

    #[test]
    fn sst_height_bounded_by_density(
        updates in prop::collection::vec((0usize..4096, 0u32..1000), 1..24)
    ) {
        // Lemma 1 with block size 1 (pure sparse tree).
        let mut sst = SparseSegmentTree::with_block_size(4096, 1);
        for (i, v) in updates {
            sst.update(i, v);
            let d = sst.density();
            prop_assert!(sst.height() <= d.min(13),
                "height {} > min(log n, d={})", sst.height(), d);
        }
    }

    #[test]
    fn sst_node_count_equals_density_without_blocks(
        ops in prop::collection::vec((0usize..256, prop::option::of(0u32..50)), 1..150)
    ) {
        let mut sst = SparseSegmentTree::with_block_size(256, 1);
        let mut oracle = NaiveSuffixArray::with_len(256);
        for (i, v) in ops {
            let v = v.unwrap_or(INF);
            sst.update(i, v);
            oracle.update(i, v);
            prop_assert_eq!(sst.node_count(), oracle.density());
        }
    }

    #[test]
    fn sst_structural_invariants_hold_under_churn(
        len in 1usize..300,
        block in 1u32..64,
        ops in prop::collection::vec((0usize..300, prop::option::of(0u32..200)), 1..200)
    ) {
        // assert_invariants checks canonical ranges, the value heap,
        // exact block caches, uniqueness, and the density counter
        // after every single mutation.
        let mut sst = SparseSegmentTree::with_block_size(len, block);
        for (i, v) in ops {
            sst.update(i % len, v.unwrap_or(INF));
            sst.assert_invariants();
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-order indexes vs the naive oracle.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum PoOp {
    /// Insert edge between (t1, j1) and (t2, j2); skipped if cyclic.
    Insert(u32, u32, u32, u32),
    /// Delete the i-th currently live edge (mod count).
    Delete(usize),
}

fn po_ops(k: u32, cap: u32, deletions: bool) -> impl Strategy<Value = Vec<PoOp>> {
    let ins =
        (0..k, 0..cap, 0..k, 0..cap).prop_map(|(t1, j1, t2, j2)| PoOp::Insert(t1, j1, t2, j2));
    let op = if deletions {
        prop_oneof![3 => ins, 1 => (0usize..64).prop_map(PoOp::Delete)].boxed()
    } else {
        ins.boxed()
    };
    prop::collection::vec(op, 1..60)
}

/// Issues the oracle scripts' query grid through the batched API and
/// asserts every answer equals the sequential one — the batched ==
/// sequential contract on the exact probe mix the scripts use,
/// including unwitnessed chains (`t = k`).
fn assert_batched_matches_sequential<P: PartialOrderIndex>(po: &P, k: u32, cap: u32) {
    let mut node_probes: Vec<(NodeId, ThreadId)> = Vec::new();
    let mut reach_probes: Vec<(NodeId, NodeId)> = Vec::new();
    for t1 in 0..=k {
        for j1 in (0..cap).step_by(3) {
            let u = NodeId::new(t1, j1);
            for t2 in 0..=k {
                node_probes.push((u, ThreadId(t2)));
                reach_probes.push((u, NodeId::new(t2, (j1 * 7 + t2) % cap)));
            }
        }
    }
    let (mut s, mut p, mut r) = (Vec::new(), Vec::new(), Vec::new());
    po.successor_batch(&node_probes, &mut s);
    po.predecessor_batch(&node_probes, &mut p);
    po.reachable_batch(&reach_probes, &mut r);
    for (i, &(u, c)) in node_probes.iter().enumerate() {
        assert_eq!(
            s[i],
            po.successor(u, c),
            "{}: batched successor({u}, {c})",
            po.name()
        );
        assert_eq!(
            p[i],
            po.predecessor(u, c),
            "{}: batched predecessor({u}, {c})",
            po.name()
        );
    }
    for (i, &(u, v)) in reach_probes.iter().enumerate() {
        assert_eq!(
            r[i],
            po.reachable(u, v),
            "{}: batched reachable({u}, {v})",
            po.name()
        );
    }
}

/// Applies ops to the structure under test and the oracle, checking all
/// queries after every step on a subsampled grid.
fn run_po_against_oracle<P: PartialOrderIndex>(k: u32, cap: u32, ops: &[PoOp]) {
    let mut sut = P::with_capacity(k as usize, cap as usize);
    let mut oracle = NaiveIndex::with_capacity(k as usize, cap as usize);
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    for &op in ops {
        match op {
            PoOp::Insert(t1, j1, t2, j2) => {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 {
                    continue;
                }
                let u = NodeId::new(t1, j1);
                let v = NodeId::new(t2, j2);
                // Keep the relation acyclic: the oracle decides.
                if oracle.reachable(v, u) {
                    continue;
                }
                sut.insert_edge(u, v).unwrap();
                oracle.insert_edge(u, v).unwrap();
                live.push((u, v));
            }
            PoOp::Delete(i) => {
                if live.is_empty() || !sut.supports_deletion() {
                    continue;
                }
                let (u, v) = live.swap_remove(i % live.len());
                sut.delete_edge(u, v).unwrap();
                oracle.delete_edge(u, v).unwrap();
            }
        }
        // Check a grid of queries.
        for t1 in 0..k {
            for j1 in (0..cap).step_by(3) {
                let u = NodeId::new(t1, j1);
                for t2 in 0..k {
                    let c = ThreadId(t2);
                    assert_eq!(
                        sut.successor(u, c),
                        oracle.successor(u, c),
                        "{}: successor({u}, {c}) after {} edges",
                        sut.name(),
                        live.len()
                    );
                    assert_eq!(
                        sut.predecessor(u, c),
                        oracle.predecessor(u, c),
                        "{}: predecessor({u}, {c})",
                        sut.name()
                    );
                    for j2 in (0..cap).step_by(4) {
                        let v = NodeId::new(t2, j2);
                        assert_eq!(
                            sut.reachable(u, v),
                            oracle.reachable(u, v),
                            "{}: reachable({u}, {v})",
                            sut.name()
                        );
                    }
                }
            }
        }
        assert_batched_matches_sequential(&sut, k, cap);
    }
}

/// Applies one random insert/delete/query script to *all five*
/// representations simultaneously and checks that every `reachable` and
/// `successor` answer is identical across them (and the naive oracle).
///
/// The incremental structures ([`IncrementalCsst`], [`SegTreeIndex`],
/// [`VectorClockIndex`]) cannot delete, so after every deletion they
/// are rebuilt from the surviving edge set — which by definition must
/// leave them agreeing with the fully dynamic structures.
fn run_cross_structure_script(k: u32, cap: u32, ops: &[PoOp]) {
    let (ku, capu) = (k as usize, cap as usize);
    let mut csst = Csst::with_capacity(ku, capu);
    let mut graph = GraphIndex::with_capacity(ku, capu);
    let mut oracle = NaiveIndex::with_capacity(ku, capu);
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    for &op in ops {
        match op {
            PoOp::Insert(t1, j1, t2, j2) => {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 {
                    continue;
                }
                let u = NodeId::new(t1, j1);
                let v = NodeId::new(t2, j2);
                if oracle.reachable(v, u) {
                    continue; // keep the relation acyclic
                }
                csst.insert_edge(u, v).unwrap();
                graph.insert_edge(u, v).unwrap();
                oracle.insert_edge(u, v).unwrap();
                live.push((u, v));
            }
            PoOp::Delete(i) => {
                if live.is_empty() {
                    continue;
                }
                let (u, v) = live.swap_remove(i % live.len());
                csst.delete_edge(u, v).unwrap();
                graph.delete_edge(u, v).unwrap();
                oracle.delete_edge(u, v).unwrap();
            }
        }
        // Rebuild the insert-only structures over the surviving edges.
        let mut inc = IncrementalCsst::with_capacity(ku, capu);
        let mut st = SegTreeIndex::with_capacity(ku, capu);
        let mut vc = VectorClockIndex::with_capacity(ku, capu);
        for &(u, v) in &live {
            inc.insert_edge(u, v).unwrap();
            st.insert_edge(u, v).unwrap();
            vc.insert_edge(u, v).unwrap();
        }
        // Every structure must answer every query identically.
        for t1 in 0..k {
            for j1 in (0..cap).step_by(3) {
                let u = NodeId::new(t1, j1);
                for t2 in 0..k {
                    let c = ThreadId(t2);
                    let expect = oracle.successor(u, c);
                    for (name, got) in [
                        ("Csst", csst.successor(u, c)),
                        ("GraphIndex", graph.successor(u, c)),
                        ("IncrementalCsst", inc.successor(u, c)),
                        ("SegTreeIndex", st.successor(u, c)),
                        ("VectorClockIndex", vc.successor(u, c)),
                    ] {
                        assert_eq!(got, expect, "{name}: successor({u}, {c})");
                    }
                    for j2 in (0..cap).step_by(4) {
                        let v = NodeId::new(t2, j2);
                        let expect = oracle.reachable(u, v);
                        for (name, got) in [
                            ("Csst", csst.reachable(u, v)),
                            ("GraphIndex", graph.reachable(u, v)),
                            ("IncrementalCsst", inc.reachable(u, v)),
                            ("SegTreeIndex", st.reachable(u, v)),
                            ("VectorClockIndex", vc.reachable(u, v)),
                        ] {
                            assert_eq!(got, expect, "{name}: reachable({u}, {v})");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Capacity-free growth: random scripts interleaving append/ensure_chain
// with inserts, deletes, and queries.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum GrowthOp {
    /// Append one event to chain `t` via the streaming entry point.
    Append(u32),
    /// Witness chain `t` (possibly far beyond the current count).
    EnsureChain(u32),
    /// Witness `len` events on chain `t`.
    EnsureLen(u32, u32),
    /// Insert edge `(t1, j1) → (t2, j2)`; positions may lie well past
    /// anything witnessed so far (implicit growth). Skipped if cyclic.
    Insert(u32, u32, u32, u32),
    /// Delete the i-th currently live edge (mod count).
    Delete(usize),
}

fn growth_ops(k: u32, deletions: bool) -> impl Strategy<Value = Vec<GrowthOp>> {
    let op = prop_oneof![
        2 => (0..k).prop_map(GrowthOp::Append),
        1 => (0..k).prop_map(GrowthOp::EnsureChain),
        1 => (0..k, 1u32..40).prop_map(|(t, l)| GrowthOp::EnsureLen(t, l)),
        4 => (0..k, 0u32..30, 0..k, 0u32..30)
            .prop_map(|(t1, j1, t2, j2)| GrowthOp::Insert(t1, j1, t2, j2)),
        if deletions { 1 } else { 0 } => (0usize..64).prop_map(GrowthOp::Delete),
    ];
    prop::collection::vec(op, 1..50)
}

/// Answers of `po` over a query grid covering the witnessed domain and
/// a margin beyond it.
fn query_grid<P: PartialOrderIndex>(
    po: &P,
    k: u32,
    cap: u32,
) -> Vec<(Option<u32>, Option<u32>, bool)> {
    let mut out = Vec::new();
    for t1 in 0..k {
        for j1 in (0..cap).step_by(4) {
            let u = NodeId::new(t1, j1);
            for t2 in 0..k {
                let c = ThreadId(t2);
                out.push((
                    po.successor(u, c),
                    po.predecessor(u, c),
                    po.reachable(u, NodeId::new(t2, (j1 * 7 + t2) % cap)),
                ));
            }
        }
    }
    out
}

/// Runs one growth script on `P`, cross-validated against the naive and
/// graph oracles after every step, and asserts that *pure growth* of
/// the domain never changes any query answer.
fn run_growth_script<P: PartialOrderIndex>(ops: &[GrowthOp]) {
    let (k, cap) = (6u32, 36u32);
    let mut sut = P::new();
    let mut naive = NaiveIndex::new();
    let mut graph = GraphIndex::new();
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    for &op in ops {
        match op {
            GrowthOp::Append(t) => {
                let a = sut.append(t);
                assert_eq!(a, naive.append(t), "{}: append", sut.name());
                assert_eq!(a, graph.append(t));
                assert_eq!(sut.chain_len(ThreadId(t)), naive.chain_len(ThreadId(t)));
            }
            GrowthOp::EnsureChain(t) => {
                sut.ensure_chain(ThreadId(t));
                naive.ensure_chain(ThreadId(t));
                graph.ensure_chain(ThreadId(t));
                assert!(sut.chains() > t as usize);
            }
            GrowthOp::EnsureLen(t, len) => {
                sut.ensure_len(ThreadId(t), len as usize);
                naive.ensure_len(ThreadId(t), len as usize);
                graph.ensure_len(ThreadId(t), len as usize);
                assert!(sut.chain_len(ThreadId(t)) >= len as usize);
            }
            GrowthOp::Insert(t1, j1, t2, j2) => {
                if t1 == t2 {
                    continue;
                }
                let u = NodeId::new(t1, j1);
                let v = NodeId::new(t2, j2);
                if naive.reachable(v, u) {
                    continue; // keep the relation acyclic
                }
                sut.insert_edge(u, v).unwrap();
                naive.insert_edge(u, v).unwrap();
                graph.insert_edge(u, v).unwrap();
                live.push((u, v));
            }
            GrowthOp::Delete(i) => {
                if live.is_empty() || !sut.supports_deletion() {
                    continue;
                }
                let (u, v) = live.swap_remove(i % live.len());
                sut.delete_edge(u, v).unwrap();
                naive.delete_edge(u, v).unwrap();
                graph.delete_edge(u, v).unwrap();
            }
        }
        // Cross-validate every query against both oracles, including
        // nodes and chains beyond anything witnessed.
        for t1 in 0..k {
            for j1 in (0..cap).step_by(5) {
                let u = NodeId::new(t1, j1);
                for t2 in 0..=k {
                    let c = ThreadId(t2);
                    let expect = naive.successor(u, c);
                    assert_eq!(
                        sut.successor(u, c),
                        expect,
                        "{}: successor({u}, {c})",
                        sut.name()
                    );
                    assert_eq!(graph.successor(u, c), expect, "graph: successor({u}, {c})");
                    let expect = naive.predecessor(u, c);
                    assert_eq!(
                        sut.predecessor(u, c),
                        expect,
                        "{}: predecessor({u}, {c})",
                        sut.name()
                    );
                    assert_eq!(graph.predecessor(u, c), expect);
                    let v = NodeId::new(t2, (j1 * 3 + t2) % cap);
                    let expect = naive.reachable(u, v);
                    assert_eq!(
                        sut.reachable(u, v),
                        expect,
                        "{}: reachable({u}, {v})",
                        sut.name()
                    );
                    assert_eq!(graph.reachable(u, v), expect);
                }
            }
        }
    }
    // Pure growth must never change an answer: snapshot, grow far past
    // the witnessed domain, and compare.
    let before = query_grid(&sut, k, cap);
    for t in 0..k {
        sut.ensure_len(ThreadId(t), 4 * cap as usize);
    }
    sut.ensure_chain(ThreadId(2 * k));
    let after = query_grid(&sut, k, cap);
    assert_eq!(
        before,
        after,
        "{}: growth changed query answers",
        sut.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_five_structures_agree_on_random_scripts(
        k in 2u32..5,
        ops in po_ops(5, 10, true)
    ) {
        run_cross_structure_script(k, 10, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_csst_matches_oracle(k in 2u32..5, ops in po_ops(5, 12, true)) {
        run_po_against_oracle::<Csst>(k, 12, &ops);
    }

    #[test]
    fn graph_matches_oracle(k in 2u32..5, ops in po_ops(5, 12, true)) {
        run_po_against_oracle::<GraphIndex>(k, 12, &ops);
    }

    #[test]
    fn incremental_csst_matches_oracle(k in 2u32..5, ops in po_ops(5, 12, false)) {
        run_po_against_oracle::<IncrementalCsst>(k, 12, &ops);
    }

    #[test]
    fn segtree_index_matches_oracle(k in 2u32..5, ops in po_ops(5, 12, false)) {
        run_po_against_oracle::<SegTreeIndex>(k, 12, &ops);
    }

    #[test]
    fn vector_clock_matches_oracle(k in 2u32..5, ops in po_ops(5, 12, false)) {
        run_po_against_oracle::<VectorClockIndex>(k, 12, &ops);
    }

    #[test]
    fn insert_then_delete_is_identity(
        k in 2u32..5,
        base in po_ops(5, 12, false),
        extra in po_ops(5, 12, false)
    ) {
        // Build a base partial order, snapshot all reachability
        // answers, push extra edges, delete them in reverse, and check
        // the snapshot is restored (the Figure 1c workflow).
        let cap = 12u32;
        let mut po = Csst::with_capacity(k as usize, cap as usize);
        let mut oracle = NaiveIndex::with_capacity(k as usize, cap as usize);
        for &op in &base {
            if let PoOp::Insert(t1, j1, t2, j2) = op {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 { continue; }
                let (u, v) = (NodeId::new(t1, j1), NodeId::new(t2, j2));
                if oracle.reachable(v, u) { continue; }
                po.insert_edge(u, v).unwrap();
                oracle.insert_edge(u, v).unwrap();
            }
        }
        let snapshot: Vec<bool> = (0..k)
            .flat_map(|t1| (0..cap).map(move |j1| (t1, j1)))
            .flat_map(|(t1, j1)| {
                (0..k).flat_map(move |t2| (0..cap).map(move |j2| (t1, j1, t2, j2)))
            })
            .map(|(t1, j1, t2, j2)| po.reachable(NodeId::new(t1, j1), NodeId::new(t2, j2)))
            .collect();
        let mut pushed = Vec::new();
        for &op in &extra {
            if let PoOp::Insert(t1, j1, t2, j2) = op {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 { continue; }
                let (u, v) = (NodeId::new(t1, j1), NodeId::new(t2, j2));
                if oracle.reachable(v, u) { continue; }
                po.insert_edge(u, v).unwrap();
                oracle.insert_edge(u, v).unwrap();
                pushed.push((u, v));
            }
        }
        for (u, v) in pushed.into_iter().rev() {
            po.delete_edge(u, v).unwrap();
        }
        let restored: Vec<bool> = (0..k)
            .flat_map(|t1| (0..cap).map(move |j1| (t1, j1)))
            .flat_map(|(t1, j1)| {
                (0..k).flat_map(move |t2| (0..cap).map(move |j2| (t1, j1, t2, j2)))
            })
            .map(|(t1, j1, t2, j2)| po.reachable(NodeId::new(t1, j1), NodeId::new(t2, j2)))
            .collect();
        prop_assert_eq!(snapshot, restored);
    }

    #[test]
    fn growth_scripts_match_oracles(ops in growth_ops(6, true)) {
        run_growth_script::<Csst>(&ops);
        run_growth_script::<GraphIndex>(&ops);
    }

    #[test]
    fn growth_scripts_match_oracles_insert_only(ops in growth_ops(6, false)) {
        run_growth_script::<IncrementalCsst>(&ops);
        run_growth_script::<SegTreeIndex>(&ops);
        run_growth_script::<VectorClockIndex>(&ops);
    }

    #[test]
    fn lemma_7_incremental_density_bound(ops in po_ops(4, 24, false)) {
        // The density of every transitive array stays bounded by the
        // cross-chain density d of the direct-edge graph.
        let k = 4usize;
        let cap = 24usize;
        let mut po = IncrementalCsst::with_capacity(k, cap);
        let mut oracle = NaiveIndex::with_capacity(k, cap);
        // Direct out-edge source positions per chain.
        let mut sources: Vec<std::collections::HashSet<u32>> =
            vec![std::collections::HashSet::new(); k];
        for &op in &ops {
            if let PoOp::Insert(t1, j1, t2, j2) = op {
                if t1 == t2 { continue; }
                let (u, v) = (NodeId::new(t1, j1), NodeId::new(t2, j2));
                if oracle.reachable(v, u) { continue; }
                po.insert_edge(u, v).unwrap();
                oracle.insert_edge(u, v).unwrap();
                sources[t1 as usize].insert(j1);
            }
        }
        let d = sources.iter().map(|s| s.len()).max().unwrap_or(0);
        let stats = po.density_stats();
        prop_assert!(
            stats.max_peak <= d,
            "array density {} exceeds cross-chain density {}",
            stats.max_peak,
            d
        );
    }
}

// ---------------------------------------------------------------------------
// The worklist query engine: memoized and memo-free CSSTs against the
// naive and graph oracles, with epochs rolling mid-script.
// ---------------------------------------------------------------------------

/// Runs one insert/delete script on a memoized CSST, a memo-disabled
/// CSST, and both oracles, interleaving a query grid after every
/// update. Every query is issued **twice** per index so the memoized
/// one answers the repeat from its closure cache at that exact epoch —
/// inserts and deletes in the script then genuinely roll the epoch
/// between bursts. With `forward_only`, target positions are rewritten
/// past their sources so the engine's Dijkstra mode (single-pop
/// finalization, bounded early exit) answers; otherwise backward edges
/// keep it on the chaotic-iteration fallback.
fn run_query_engine_script(k: u32, cap: u32, ops: &[PoOp], forward_only: bool) {
    let mut memoized = Csst::new();
    let mut bare = Csst::new();
    bare.set_query_memo_capacity(0);
    let mut naive = NaiveIndex::new();
    let mut graph = GraphIndex::new();
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    for &op in ops {
        match op {
            PoOp::Insert(t1, j1, t2, j2) => {
                let (t1, t2) = (t1 % k, t2 % k);
                if t1 == t2 {
                    continue;
                }
                let j2 = if forward_only { j1 + 1 + j2 % 5 } else { j2 };
                let (u, v) = (NodeId::new(t1, j1), NodeId::new(t2, j2));
                if naive.reachable(v, u) {
                    continue; // keep the relation acyclic
                }
                for po in [&mut memoized, &mut bare] {
                    po.insert_edge(u, v).unwrap();
                }
                naive.insert_edge(u, v).unwrap();
                graph.insert_edge(u, v).unwrap();
                live.push((u, v));
            }
            PoOp::Delete(i) => {
                if live.is_empty() {
                    continue;
                }
                let (u, v) = live.swap_remove(i % live.len());
                for po in [&mut memoized, &mut bare] {
                    po.delete_edge(u, v).unwrap();
                }
                naive.delete_edge(u, v).unwrap();
                graph.delete_edge(u, v).unwrap();
            }
        }
        for t1 in 0..k {
            for j1 in (0..cap).step_by(3) {
                let u = NodeId::new(t1, j1);
                for t2 in 0..=k {
                    let c = ThreadId(t2);
                    let exp_s = naive.successor(u, c);
                    let exp_p = naive.predecessor(u, c);
                    assert_eq!(graph.successor(u, c), exp_s, "graph successor({u}, {c})");
                    assert_eq!(graph.predecessor(u, c), exp_p);
                    for _ in 0..2 {
                        assert_eq!(memoized.successor(u, c), exp_s, "memo successor({u}, {c})");
                        assert_eq!(bare.successor(u, c), exp_s, "bare successor({u}, {c})");
                        assert_eq!(memoized.predecessor(u, c), exp_p);
                        assert_eq!(bare.predecessor(u, c), exp_p);
                    }
                    let v = NodeId::new(t2, (j1 * 7 + t2) % cap);
                    let exp_r = naive.reachable(u, v);
                    assert_eq!(graph.reachable(u, v), exp_r);
                    for _ in 0..2 {
                        assert_eq!(memoized.reachable(u, v), exp_r, "memo reachable({u}, {v})");
                        assert_eq!(bare.reachable(u, v), exp_r);
                    }
                }
            }
        }
        // The same grid through the batched API, with the memo both
        // hot (memoized, just warmed by the sequential queries above)
        // and disabled (bare).
        assert_batched_matches_sequential(&memoized, k, cap);
        assert_batched_matches_sequential(&bare, k, cap);
        assert_batched_matches_sequential(&graph, k, cap);
    }
}

/// Pins the per-probe engine beyond the bitset frontier width to the
/// oracle: with `k > MAX_BITSET_CHAINS` the worklist takes the
/// stamped-list fallback path. Edges are applied in `insert_edges`
/// bursts so query epochs roll mid-script; after every burst the whole
/// query grid is checked against `NaiveIndex`, one probe at a time and
/// through the batched API.
fn run_wide_k_batched_script(k: u32, cap: u32, ops: &[PoOp]) {
    let mut po = Csst::new();
    let mut naive = NaiveIndex::new();
    let mut burst: Vec<(NodeId, NodeId)> = Vec::new();
    for chunk in ops.chunks(5) {
        burst.clear();
        for &op in chunk {
            let PoOp::Insert(t1, j1, t2, j2) = op else {
                continue;
            };
            let (t1, t2) = (t1 % k, t2 % k);
            if t1 == t2 {
                continue;
            }
            let (u, v) = (NodeId::new(t1, j1 % cap), NodeId::new(t2, j2 % cap));
            if naive.reachable(v, u) {
                continue; // keep the relation acyclic
            }
            naive.insert_edge(u, v).unwrap();
            burst.push((u, v));
        }
        po.insert_edges(&burst).unwrap(); // rolls the query epoch
        assert_grid_matches_oracle(&po, &naive, k, cap);
        assert_batched_matches_sequential(&po, k, cap);
    }
}

/// Checks `successor`, `predecessor` and `reachable` of `po` against
/// the oracle on the query grid of
/// [`assert_batched_matches_sequential`], unwitnessed chains included.
fn assert_grid_matches_oracle<P: PartialOrderIndex>(po: &P, oracle: &NaiveIndex, k: u32, cap: u32) {
    for t1 in 0..=k {
        for j1 in (0..cap).step_by(3) {
            let u = NodeId::new(t1, j1);
            for t2 in 0..=k {
                let c = ThreadId(t2);
                assert_eq!(
                    po.successor(u, c),
                    oracle.successor(u, c),
                    "successor({u}, {c})"
                );
                assert_eq!(
                    po.predecessor(u, c),
                    oracle.predecessor(u, c),
                    "predecessor({u}, {c})"
                );
                let v = NodeId::new(t2, (j1 * 7 + t2) % cap);
                assert_eq!(
                    po.reachable(u, v),
                    oracle.reachable(u, v),
                    "reachable({u}, {v})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn query_engine_matches_oracles_with_and_without_memo(
        k in 2u32..5,
        ops in po_ops(5, 12, true)
    ) {
        run_query_engine_script(k, 12, &ops, false);
    }

    #[test]
    fn query_engine_dijkstra_mode_matches_oracles(
        k in 2u32..5,
        ops in po_ops(5, 12, true)
    ) {
        run_query_engine_script(k, 12, &ops, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn wide_k_batched_matches_sequential(ops in po_ops(66, 6, false)) {
        // 66 chains > MAX_BITSET_CHAINS (64): the stamped-list
        // fallback frontier, not the u64 bitset, answers every probe.
        run_wide_k_batched_script(66, 6, &ops);
    }
}

// ---------------------------------------------------------------------------
// Batched insertion: insert_edges(batch) == sequential insert_edge.
// ---------------------------------------------------------------------------

/// Query-grid snapshot used to compare two indexes exhaustively.
fn po_snapshot<P: PartialOrderIndex>(
    po: &P,
    k: u32,
    cap: u32,
) -> Vec<(Option<u32>, Option<u32>, bool)> {
    let mut out = Vec::new();
    for t1 in 0..=k {
        for j1 in 0..cap {
            let u = NodeId::new(t1, j1);
            for t2 in 0..=k {
                let c = ThreadId(t2);
                out.push((
                    po.successor(u, c),
                    po.predecessor(u, c),
                    po.reachable(u, NodeId::new(t2, (j1 * 5 + t2) % cap)),
                ));
            }
        }
    }
    out
}

/// Applies the same acyclic batches to `P` twice — once through
/// `insert_edges`, once edge-by-edge — and to the naive and graph
/// oracles, asserting all four agree on every query after every batch.
fn run_batch_vs_sequential<P: PartialOrderIndex>(
    k: u32,
    cap: u32,
    raw: &[Vec<(u32, u32, u32, u32)>],
) {
    let mut batched = P::new();
    let mut sequential = P::new();
    let mut naive = NaiveIndex::new();
    let mut graph = GraphIndex::new();
    // The planner replays sequential-application semantics to keep the
    // relation acyclic, considering earlier edges of the same batch.
    let mut planner = NaiveIndex::new();
    for ops in raw {
        let mut batch: Vec<(NodeId, NodeId)> = Vec::new();
        for &(t1, j1, t2, j2) in ops {
            let (t1, t2) = (t1 % k, t2 % k);
            if t1 == t2 {
                continue;
            }
            let (u, v) = (NodeId::new(t1, j1 % cap), NodeId::new(t2, j2 % cap));
            if planner.reachable(v, u) {
                continue;
            }
            planner.insert_edge(u, v).unwrap();
            batch.push((u, v));
        }
        batched.insert_edges(&batch).unwrap();
        for &(u, v) in &batch {
            sequential.insert_edge(u, v).unwrap();
            naive.insert_edge(u, v).unwrap();
            graph.insert_edge(u, v).unwrap();
        }
        assert_eq!(
            po_snapshot(&batched, k, cap),
            po_snapshot(&sequential, k, cap),
            "{}: batch != sequential",
            batched.name()
        );
        assert_eq!(
            po_snapshot(&batched, k, cap),
            po_snapshot(&naive, k, cap),
            "{}: batch != naive oracle",
            batched.name()
        );
        assert_eq!(
            po_snapshot(&batched, k, cap),
            po_snapshot(&graph, k, cap),
            "{}: batch != graph oracle",
            batched.name()
        );
        assert_eq!(batched.chains(), sequential.chains());
        for t in 0..k {
            assert_eq!(
                batched.chain_len(ThreadId(t)),
                sequential.chain_len(ThreadId(t)),
                "{}: batch grew the domain differently",
                batched.name()
            );
        }
    }
}

fn batch_scripts(k: u32, cap: u32) -> impl Strategy<Value = Vec<Vec<(u32, u32, u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0..k, 0..cap, 0..k, 0..cap), 1..12),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_inserts_match_sequential(raw in batch_scripts(5, 14)) {
        run_batch_vs_sequential::<Csst>(5, 14, &raw);
        run_batch_vs_sequential::<GraphIndex>(5, 14, &raw);
        run_batch_vs_sequential::<IncrementalCsst>(5, 14, &raw);
        run_batch_vs_sequential::<SegTreeIndex>(5, 14, &raw);
        run_batch_vs_sequential::<VectorClockIndex>(5, 14, &raw);
        run_batch_vs_sequential::<AnchoredVectorClockIndex>(5, 14, &raw);
    }

    #[test]
    fn batched_inserts_preserve_density_stats(raw in batch_scripts(4, 12)) {
        // Density statistics (the q column) must not depend on whether
        // edges arrived batched or sequentially.
        let mut batched = Csst::new();
        let mut sequential = Csst::new();
        let mut inc_batched = IncrementalCsst::new();
        let mut inc_sequential = IncrementalCsst::new();
        let mut planner = NaiveIndex::new();
        for ops in &raw {
            let mut batch: Vec<(NodeId, NodeId)> = Vec::new();
            for &(t1, j1, t2, j2) in ops {
                let (t1, t2) = (t1 % 4, t2 % 4);
                if t1 == t2 {
                    continue;
                }
                let (u, v) = (NodeId::new(t1, j1 % 12), NodeId::new(t2, j2 % 12));
                if planner.reachable(v, u) {
                    continue;
                }
                planner.insert_edge(u, v).unwrap();
                batch.push((u, v));
            }
            batched.insert_edges(&batch).unwrap();
            inc_batched.insert_edges(&batch).unwrap();
            for &(u, v) in &batch {
                sequential.insert_edge(u, v).unwrap();
                inc_sequential.insert_edge(u, v).unwrap();
            }
            prop_assert_eq!(batched.density_stats(), sequential.density_stats());
            prop_assert_eq!(batched.edge_count(), sequential.edge_count());
            prop_assert_eq!(inc_batched.density_stats(), inc_sequential.density_stats());
            prop_assert_eq!(batched.memory_bytes(), sequential.memory_bytes());
        }
    }
}

#[test]
fn batched_insert_errors_match_sequential_and_are_atomic() {
    use csst_core::{PoError, MAX_CHAINS};
    let good = (NodeId::new(0, 1), NodeId::new(1, 2));
    let same_chain = (NodeId::new(2, 1), NodeId::new(2, 5));
    let out_of_range = (NodeId::new(MAX_CHAINS as u32, 0), NodeId::new(0, 0));

    // The reported error is the first the sequential loop would hit…
    let mut po = Csst::new();
    let err = po
        .insert_edges(&[good, same_chain, out_of_range])
        .unwrap_err();
    let mut seq = Csst::new();
    let seq_err = [good, same_chain, out_of_range]
        .iter()
        .find_map(|&(u, v)| seq.insert_edge(u, v).err())
        .expect("sequential loop errors too");
    assert_eq!(err, seq_err);
    assert!(matches!(err, PoError::SameChain { .. }));

    // …but unlike the sequential loop, nothing was applied.
    assert_eq!(po.edge_count(), 0);
    assert_eq!(
        po.chains(),
        0,
        "validation failure must not grow the domain"
    );
    assert!(!po.reachable(good.0, good.1));

    // A valid batch then applies cleanly.
    po.insert_edges(&[good]).unwrap();
    assert_eq!(po.edge_count(), 1);
    assert!(po.reachable(good.0, good.1));

    // Empty batches are a no-op.
    po.insert_edges(&[]).unwrap();
    assert_eq!(po.edge_count(), 1);
}
