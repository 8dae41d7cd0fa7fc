//! Cross-structure stress tests: all five representations must agree
//! on every query under randomized workloads, including the fully
//! dynamic insert/delete interleavings only CSSTs, Graphs, and the
//! naive oracle support.

use csst_core::{
    Csst, GraphIndex, IncrementalCsst, NaiveIndex, NodeId, PartialOrderIndex, SegTreeIndex,
    ThreadId, VectorClockIndex,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_cross_edge(rng: &mut SmallRng, k: u32, cap: u32) -> (NodeId, NodeId) {
    let t1 = rng.gen_range(0..k);
    let mut t2 = rng.gen_range(0..k);
    while t2 == t1 {
        t2 = rng.gen_range(0..k);
    }
    (
        NodeId::new(t1, rng.gen_range(0..cap)),
        NodeId::new(t2, rng.gen_range(0..cap)),
    )
}

#[test]
fn incremental_structures_agree_under_random_inserts() {
    for seed in 0..6u64 {
        let (k, cap) = (6u32, 30u32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut naive = NaiveIndex::with_capacity(k as usize, cap as usize);
        let mut csst = IncrementalCsst::with_capacity(k as usize, cap as usize);
        let mut st = SegTreeIndex::with_capacity(k as usize, cap as usize);
        let mut vc = VectorClockIndex::with_capacity(k as usize, cap as usize);
        let mut dy = Csst::with_capacity(k as usize, cap as usize);
        for _ in 0..80 {
            let (u, v) = random_cross_edge(&mut rng, k, cap);
            if naive.reachable(v, u) {
                continue; // keep it a DAG
            }
            naive.insert_edge(u, v).unwrap();
            csst.insert_edge(u, v).unwrap();
            st.insert_edge(u, v).unwrap();
            vc.insert_edge(u, v).unwrap();
            dy.insert_edge(u, v).unwrap();
        }
        for _ in 0..500 {
            let (u, v) = random_cross_edge(&mut rng, k, cap);
            let expect = naive.reachable(u, v);
            assert_eq!(csst.reachable(u, v), expect, "seed {seed}: CSST {u}→{v}");
            assert_eq!(st.reachable(u, v), expect, "seed {seed}: ST {u}→{v}");
            assert_eq!(vc.reachable(u, v), expect, "seed {seed}: VC {u}→{v}");
            assert_eq!(dy.reachable(u, v), expect, "seed {seed}: dyn {u}→{v}");
            let t = ThreadId(rng.gen_range(0..k));
            let expect_s = naive.successor(u, t);
            assert_eq!(csst.successor(u, t), expect_s, "seed {seed}: succ");
            assert_eq!(st.successor(u, t), expect_s);
            assert_eq!(vc.successor(u, t), expect_s);
            assert_eq!(dy.successor(u, t), expect_s);
            let expect_p = naive.predecessor(u, t);
            assert_eq!(csst.predecessor(u, t), expect_p, "seed {seed}: pred");
            assert_eq!(st.predecessor(u, t), expect_p);
            assert_eq!(vc.predecessor(u, t), expect_p);
            assert_eq!(dy.predecessor(u, t), expect_p);
        }
    }
}

#[test]
fn dynamic_structures_agree_under_insert_delete_mix() {
    for seed in 10..16u64 {
        let (k, cap) = (5u32, 24u32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut naive = NaiveIndex::with_capacity(k as usize, cap as usize);
        let mut csst = Csst::with_capacity(k as usize, cap as usize);
        let mut graph = GraphIndex::with_capacity(k as usize, cap as usize);
        let mut live: Vec<(NodeId, NodeId)> = Vec::new();
        for step in 0..400 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                naive.delete_edge(u, v).unwrap();
                csst.delete_edge(u, v).unwrap();
                graph.delete_edge(u, v).unwrap();
            } else {
                let (u, v) = random_cross_edge(&mut rng, k, cap);
                if naive.reachable(v, u) {
                    continue;
                }
                naive.insert_edge(u, v).unwrap();
                csst.insert_edge(u, v).unwrap();
                graph.insert_edge(u, v).unwrap();
                live.push((u, v));
            }
            if step % 10 == 0 {
                for _ in 0..60 {
                    let (u, v) = random_cross_edge(&mut rng, k, cap);
                    let expect = naive.reachable(u, v);
                    assert_eq!(csst.reachable(u, v), expect, "seed {seed} step {step}");
                    assert_eq!(graph.reachable(u, v), expect, "seed {seed} step {step}");
                    let t = ThreadId(rng.gen_range(0..k));
                    assert_eq!(csst.successor(u, t), naive.successor(u, t));
                    assert_eq!(graph.predecessor(u, t), naive.predecessor(u, t));
                }
            }
        }
        // Drain all edges: everything must return to pure program order.
        for (u, v) in live.drain(..) {
            naive.delete_edge(u, v).unwrap();
            csst.delete_edge(u, v).unwrap();
            graph.delete_edge(u, v).unwrap();
        }
        for _ in 0..100 {
            let (u, v) = random_cross_edge(&mut rng, k, cap);
            let expect = u.thread == v.thread && u.pos <= v.pos;
            assert_eq!(csst.reachable(u, v), expect);
            assert_eq!(graph.reachable(u, v), expect);
        }
    }
}

#[test]
fn parallel_and_duplicate_edges_delete_cleanly() {
    let mut csst = Csst::with_capacity(3, 20);
    let mut graph = GraphIndex::with_capacity(3, 20);
    let u = NodeId::new(0, 5);
    let v = NodeId::new(1, 7);
    for _ in 0..3 {
        csst.insert_edge(u, v).unwrap();
        graph.insert_edge(u, v).unwrap();
    }
    for i in 0..3 {
        assert!(csst.reachable(u, v), "copy {i} still present");
        assert!(graph.reachable(u, v));
        csst.delete_edge(u, v).unwrap();
        graph.delete_edge(u, v).unwrap();
    }
    assert!(!csst.reachable(u, v));
    assert!(!graph.reachable(u, v));
    assert!(csst.delete_edge(u, v).is_err());
    assert!(graph.delete_edge(u, v).is_err());
}

#[test]
fn memory_ordering_between_structures_on_sparse_workload() {
    // With few cross edges over long chains, CSST memory must be far
    // below the dense segment-tree baseline and below dense VCs.
    let (k, cap) = (8usize, 50_000usize);
    let mut csst = IncrementalCsst::with_capacity(k, cap);
    let mut st = SegTreeIndex::with_capacity(k, cap);
    let mut vc = VectorClockIndex::with_capacity(k, cap);
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..64 {
        let t1 = rng.gen_range(0..k) as u32;
        let mut t2 = rng.gen_range(0..k) as u32;
        while t2 == t1 {
            t2 = rng.gen_range(0..k) as u32;
        }
        let i = rng.gen_range(0..cap as u32 - 1000);
        let u = NodeId::new(t1, i);
        let v = NodeId::new(t2, i + rng.gen_range(0..1000u32));
        if !csst.reachable(v, u) {
            let _ = csst.insert_edge_checked(u, v);
            let _ = st.insert_edge_checked(u, v);
            let _ = vc.insert_edge_checked(u, v);
        }
    }
    let (m_csst, m_st, m_vc) = (csst.memory_bytes(), st.memory_bytes(), vc.memory_bytes());
    assert!(
        m_csst * 10 < m_st,
        "CSST {m_csst}B should be ≪ dense ST {m_st}B"
    );
    assert!(
        m_csst < m_vc,
        "CSST {m_csst}B should be below dense VC {m_vc}B"
    );
}
