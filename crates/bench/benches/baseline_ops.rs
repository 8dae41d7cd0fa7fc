//! Per-operation costs of the baselines (VCs, STs, Graphs) against
//! incremental CSSTs — the microscopic view behind Figure 11 and the
//! Table 7 Graphs comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csst_core::{
    GraphIndex, IncrementalCsst, NodeId, PartialOrderIndex, SegTreeIndex, VectorClockIndex,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ELL: u32 = 50_000;
const WINDOW: u32 = 5_000;
const K: u32 = 10;

fn random_edge(rng: &mut SmallRng) -> (NodeId, NodeId) {
    let t1 = rng.gen_range(0..K);
    let mut t2 = rng.gen_range(0..K);
    while t2 == t1 {
        t2 = rng.gen_range(0..K);
    }
    let i = rng.gen_range(0..ELL);
    let lo = i.saturating_sub(WINDOW);
    let hi = (i + WINDOW).min(ELL - 1);
    (NodeId::new(t1, i), NodeId::new(t2, rng.gen_range(lo..=hi)))
}

fn prefill<P: PartialOrderIndex>(edges: usize, seed: u64) -> (P, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut po = P::with_capacity(K as usize, ELL as usize);
    let mut n = 0;
    while n < edges {
        let (u, v) = random_edge(&mut rng);
        if !po.reachable(u, v) && !po.reachable(v, u) {
            po.insert_edge(u, v).expect("valid edge");
            n += 1;
        }
    }
    (po, rng)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/insert_unordered");
    group.sample_size(15);

    fn run<P: PartialOrderIndex>(b: &mut criterion::Bencher<'_>) {
        let (mut po, mut rng) = prefill::<P>(1000, 3);
        b.iter(|| {
            let (u, v) = random_edge(&mut rng);
            if !po.reachable(u, v) && !po.reachable(v, u) {
                po.insert_edge(u, v).expect("valid edge");
            }
        });
    }
    group.bench_function(BenchmarkId::new("CSSTs", K), run::<IncrementalCsst>);
    group.bench_function(BenchmarkId::new("STs", K), run::<SegTreeIndex>);
    group.bench_function(BenchmarkId::new("VCs", K), run::<VectorClockIndex>);
    group.bench_function(BenchmarkId::new("Graphs", K), run::<GraphIndex>);
    group.finish();
}

fn bench_reachable(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/reachable");
    group.sample_size(15);

    fn run<P: PartialOrderIndex>(b: &mut criterion::Bencher<'_>) {
        let (po, mut rng) = prefill::<P>(3000, 5);
        b.iter(|| {
            let (u, v) = random_edge(&mut rng);
            po.reachable(u, v)
        });
    }
    group.bench_function(BenchmarkId::new("CSSTs", K), run::<IncrementalCsst>);
    group.bench_function(BenchmarkId::new("STs", K), run::<SegTreeIndex>);
    group.bench_function(BenchmarkId::new("VCs", K), run::<VectorClockIndex>);
    group.bench_function(BenchmarkId::new("Graphs", K), run::<GraphIndex>);
    group.finish();
}

criterion_group!(benches, bench_insert, bench_reachable);
criterion_main!(benches);
