//! Figure 11 — controlled scalability of insertions and queries.
//!
//! Partial orders of `k ∈ {10, 20}` chains with `ℓ` events each,
//! initially without cross edges. Random cross-chain edges
//! `⟨t, i⟩ → ⟨t', j⟩` with unordered endpoints and `|i − j| ≤ b`
//! (window `b = 10⁴`: cross-chain orderings connect events that
//! execute within the same time window) are inserted, then random
//! reachability queries are issued. The paper inserts `20ℓ` edges and
//! runs 10⁶ queries; this harness scales both.

use csst_core::{IncrementalCsst, NodeId, PartialOrderIndex, SegTreeIndex, VectorClockIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured point of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalPoint {
    /// Number of chains.
    pub k: usize,
    /// Events per chain.
    pub ell: usize,
    /// Structure name.
    pub structure: String,
    /// Mean time per insertion attempt (seconds).
    pub insert_s: f64,
    /// Mean time per reachability query (seconds).
    pub query_s: f64,
    /// Edges actually inserted (attempts with unordered endpoints).
    pub inserted: usize,
}

/// Parameters of the scalability sweep.
#[derive(Debug, Clone)]
pub struct ScalCfg {
    /// Chain counts to sweep (paper: 10 and 20).
    pub ks: Vec<usize>,
    /// Events-per-chain values to sweep.
    pub ells: Vec<usize>,
    /// Edge-insertion attempts as a multiple of ℓ (paper: 20).
    pub edge_factor: usize,
    /// Number of random queries (paper: 10⁶).
    pub queries: usize,
    /// The time-window bound `b` on `|i − j|` (paper: 10⁴).
    pub window: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScalCfg {
    fn default() -> Self {
        ScalCfg {
            ks: vec![10, 20],
            ells: vec![10_000, 20_000, 40_000, 80_000],
            edge_factor: 2,
            queries: 100_000,
            window: 10_000,
            seed: 0xF16,
        }
    }
}

fn run_structure<P: PartialOrderIndex>(k: usize, ell: usize, cfg: &ScalCfg) -> (f64, f64, usize) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut po = P::with_capacity(k, ell);
    let attempts = cfg.edge_factor * ell;
    let mut inserted = 0usize;
    let start = Instant::now();
    for _ in 0..attempts {
        let t1 = rng.gen_range(0..k as u32);
        let mut t2 = rng.gen_range(0..k as u32);
        while t2 == t1 {
            t2 = rng.gen_range(0..k as u32);
        }
        let i = rng.gen_range(0..ell as u32);
        let lo = i.saturating_sub(cfg.window);
        let hi = (i + cfg.window).min(ell as u32 - 1);
        let j = rng.gen_range(lo..=hi);
        let u = NodeId::new(t1, i);
        let v = NodeId::new(t2, j);
        // Insert only between unordered endpoints (keeps the order
        // partial); the checks are part of the measured workload for
        // every structure alike.
        if !po.reachable(u, v) && !po.reachable(v, u) {
            po.insert_edge(u, v).expect("valid cross edge");
            inserted += 1;
        }
    }
    let insert_s = start.elapsed().as_secs_f64() / attempts as f64;

    let start = Instant::now();
    let mut hits = 0usize;
    for _ in 0..cfg.queries {
        let t1 = rng.gen_range(0..k as u32);
        let mut t2 = rng.gen_range(0..k as u32);
        while t2 == t1 {
            t2 = rng.gen_range(0..k as u32);
        }
        let u = NodeId::new(t1, rng.gen_range(0..ell as u32));
        let v = NodeId::new(t2, rng.gen_range(0..ell as u32));
        hits += po.reachable(u, v) as usize;
    }
    let query_s = start.elapsed().as_secs_f64() / cfg.queries as f64;
    std::hint::black_box(hits);
    (insert_s, query_s, inserted)
}

/// Runs a sweep over the named structures (`"VCs"`, `"STs"`,
/// `"CSSTs"`).
pub fn sweep(cfg: &ScalCfg, structures: &[&str]) -> Vec<ScalPoint> {
    let mut points = Vec::new();
    for &k in &cfg.ks {
        for &ell in &cfg.ells {
            for &structure in structures {
                let (insert_s, query_s, inserted) = match structure {
                    "VCs" => run_structure::<VectorClockIndex>(k, ell, cfg),
                    "STs" => run_structure::<SegTreeIndex>(k, ell, cfg),
                    "CSSTs" => run_structure::<IncrementalCsst>(k, ell, cfg),
                    other => panic!("unknown structure {other}"),
                };
                points.push(ScalPoint {
                    k,
                    ell,
                    structure: structure.into(),
                    insert_s,
                    query_s,
                    inserted,
                });
            }
        }
    }
    points
}

/// Runs the Figure 11 sweep over CSSTs, STs and VCs.
pub fn figure11(cfg: &ScalCfg) -> Vec<ScalPoint> {
    sweep(cfg, &["VCs", "STs", "CSSTs"])
}

/// Renders the sweep as the four panels of Figure 11 (insert/query ×
/// k = 10/20).
pub fn render(points: &[ScalPoint]) -> String {
    let mut out = String::new();
    let ks: Vec<usize> = {
        let mut v: Vec<usize> = points.iter().map(|p| p.k).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut structures: Vec<String> = Vec::new();
    for p in points {
        if !structures.contains(&p.structure) {
            structures.push(p.structure.clone());
        }
    }
    for metric in ["insert", "query"] {
        for &k in &ks {
            let _ = writeln!(out, "-- {metric} time (s/op), k = {k} --");
            let _ = write!(out, "{:>10}", "ell");
            for s in &structures {
                let _ = write!(out, " {:>12}", s);
            }
            let _ = writeln!(out);
            let mut ells: Vec<usize> = points.iter().filter(|p| p.k == k).map(|p| p.ell).collect();
            ells.sort_unstable();
            ells.dedup();
            for ell in ells {
                let _ = write!(out, "{:>10}", ell);
                for s in &structures {
                    let p = points
                        .iter()
                        .find(|p| p.k == k && p.ell == ell && &p.structure == s)
                        .expect("point measured");
                    let v = if metric == "insert" {
                        p.insert_s
                    } else {
                        p.query_s
                    };
                    let _ = write!(out, " {:>12.3e}", v);
                }
                let _ = writeln!(out);
            }
        }
    }
    out
}

/// CSV export of the sweep.
pub fn to_csv(points: &[ScalPoint]) -> String {
    let mut out = String::from("k,ell,structure,insert_s,query_s,inserted\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.9},{:.9},{}",
            p.k, p.ell, p.structure, p.insert_s, p.query_s, p.inserted
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_runs() {
        let cfg = ScalCfg {
            ks: vec![3],
            ells: vec![200, 400],
            edge_factor: 1,
            queries: 500,
            window: 100,
            seed: 1,
        };
        let points = figure11(&cfg);
        assert_eq!(points.len(), 2 * 3);
        for p in &points {
            assert!(p.insert_s > 0.0);
            assert!(p.query_s > 0.0);
            assert!(p.inserted > 0);
        }
        // Same seed ⇒ same accepted edge count across structures.
        let by_ell = |ell: usize| -> Vec<usize> {
            points
                .iter()
                .filter(|p| p.ell == ell)
                .map(|p| p.inserted)
                .collect()
        };
        for ell in [200, 400] {
            let v = by_ell(ell);
            assert!(v.windows(2).all(|w| w[0] == w[1]), "{v:?}");
        }
        let txt = render(&points);
        assert!(txt.contains("insert time"));
        let csv = to_csv(&points);
        assert_eq!(csv.lines().count(), 1 + 6);
    }
}
