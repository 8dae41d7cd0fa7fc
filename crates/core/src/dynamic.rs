//! Fully dynamic Collective Sparse Segment Trees (§3.3, Algorithm 2).
//!
//! For every ordered pair of distinct chains `(t1, t2)` the structure
//! keeps a suffix-minima array `A_{t1}^{t2}` holding, per node
//! `⟨t1, j1⟩`, the earliest **direct** neighbour of that node in chain
//! `t2` (invariant Eq. (1) / Lemma 3). A multiset "edge heap" per node
//! and chain pair remembers all parallel edges so deletions can restore
//! the next-earliest neighbour.
//!
//! Since arrays store direct edges only, queries must discover
//! transitive reachability (Algorithm 2, Lemma 4). The paper bounds
//! that crossing-path fixpoint by `O(k³)` suffix-minima operations; the
//! implementation here reaches the same fixpoint with a **sparse
//! worklist**: relaxations run only along chain pairs that currently
//! hold at least one live edge (the adjacency maintained by
//! [`EdgeHeapStore`]), and only from chains whose bound actually
//! improved. On real traces most chain pairs are empty and the
//! propagation converges after a handful of relaxations, so query cost
//! tracks the *live* structure instead of the `k³` worst case — and
//! remains, as in the paper, independent of the trace length `n`.
//!
//! Three further ingredients make the read path allocation-free and
//! burst-friendly (see the "query engine" chapter of
//! `docs/ARCHITECTURE.md`):
//!
//! * per-index scratch buffers ([`QueryScratch`], behind a `RefCell`)
//!   reused across queries, with stamp-based invalidation so a query
//!   touches only the chains it visits;
//! * an **epoch-guarded memo**: every successful update bumps an edge
//!   version; complete fixpoint closures are cached per source node
//!   and served until the epoch rolls, so query bursts between updates
//!   (the `hb`/`race` pattern) pay the propagation once;
//! * bound-aware early exit: [`PartialOrderIndex::reachable`] stops as
//!   soon as the target chain's bound is good enough, rather than
//!   running the fixpoint to completion.
//!
//! While the domain has at most [`MAX_BITSET_CHAINS`] chains — every
//! workload the paper evaluates — the worklist membership set is a
//! single packed `u64` word ([`BitFrontier`]) instead of the stamped
//! arrays.
//!
//! The batched query API ([`PartialOrderIndex::reachable_batch`] and
//! friends) keeps the trait's per-probe defaults: every probe is one
//! run of the engine above, memo and early exits included, so batched
//! answers equal sequential ones by construction.
//!
//! The domain is capacity-free: chains and positions are witnessed on
//! demand (see [`PartialOrderIndex`]), and the sparse arrays grow for
//! free.

use crate::error::PoError;
use crate::heap::EdgeHeapStore;
use crate::index::{NodeId, Pos, ThreadId, INF, MAX_BITSET_CHAINS};
use crate::matrix::PairMatrix;
use crate::reach::{BitFrontier, PartialOrderIndex};
use crate::sst::SparseSegmentTree;
use crate::stats::DensityStats;
use crate::suffix::SuffixMinima;
use std::cell::RefCell;

/// Default number of source-node closures the epoch-guarded query memo
/// retains (see [`DynamicPo::set_query_memo_capacity`]).
const DEFAULT_MEMO_CAPACITY: usize = 16;

/// Reusable buffers of the worklist query engine. One instance lives in
/// each index behind a `RefCell`, so steady-state queries allocate
/// nothing: per-chain slots are invalidated by bumping a stamp, never
/// by clearing, and a query touches only the chains it actually visits.
#[derive(Debug, Clone, Default)]
struct QueryScratch {
    /// Per chain: the current closure bound (earliest reachable
    /// position forward, latest predecessor backward). Meaningful only
    /// when the matching `val_stamp` entry equals `cur`.
    vals: Vec<Pos>,
    val_stamp: Vec<u32>,
    /// Worklist membership stamps (`== cur` while queued); used only
    /// in wide mode.
    on_list: Vec<u32>,
    /// Stamp of the query in flight; `0` is never a live stamp.
    cur: u32,
    list: Vec<u32>,
    /// Packed worklist membership for domains of at most
    /// [`MAX_BITSET_CHAINS`] chains: one bit per chain in a single
    /// word, so push/clear are bit ops and the pop scan walks only set
    /// bits.
    word: BitFrontier,
    /// `k > MAX_BITSET_CHAINS`: fall back to the stamped
    /// `on_list`/`list` worklist.
    wide: bool,
}

impl QueryScratch {
    /// Starts a new query over `k` chains: grows the buffers if the
    /// domain grew and invalidates all previous slots by stamp.
    fn begin(&mut self, k: usize) {
        if self.vals.len() < k {
            self.vals.resize(k, 0);
            self.val_stamp.resize(k, 0);
            self.on_list.resize(k, 0);
        }
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Stamp wrap (once per 2³² queries): hard-reset so stale
            // stamps cannot collide with the new generation.
            self.val_stamp.fill(0);
            self.on_list.fill(0);
            self.cur = 1;
        }
        self.list.clear();
        self.word.clear();
        self.wide = k > MAX_BITSET_CHAINS;
    }

    #[inline]
    fn get(&self, t: usize) -> Option<Pos> {
        (self.val_stamp[t] == self.cur).then(|| self.vals[t])
    }

    #[inline]
    fn set(&mut self, t: usize, v: Pos) {
        self.vals[t] = v;
        self.val_stamp[t] = self.cur;
    }

    #[inline]
    fn push(&mut self, t: usize) {
        if !self.wide {
            self.word.insert(t); // idempotent: no membership check needed
        } else if self.on_list[t] != self.cur {
            self.on_list[t] = self.cur;
            self.list.push(t as u32);
        }
    }

    /// Pops the queued chain with the **smallest** bound (linear scan:
    /// the active set is at most `k` chains, and each scan step is two
    /// array reads — noise next to one suffix-minima query). In bitset
    /// mode the scan visits only set bits of the packed word.
    #[inline]
    fn pop_min(&mut self) -> Option<usize> {
        if !self.wide {
            let mut best: Option<usize> = None;
            for t in self.word.iter() {
                if best.is_none_or(|b| self.vals[t] < self.vals[b]) {
                    best = Some(t);
                }
            }
            let t = best?;
            self.word.remove(t);
            return Some(t);
        }
        let mut best = 0;
        for i in 1..self.list.len() {
            if self.vals[self.list[i] as usize] < self.vals[self.list[best] as usize] {
                best = i;
            }
        }
        let t = (*self.list.get(best)?) as usize;
        self.list.swap_remove(best);
        self.on_list[t] = 0;
        Some(t)
    }

    /// Pops the queued chain with the **largest** bound (the backward
    /// dual of [`pop_min`](Self::pop_min)).
    #[inline]
    fn pop_max(&mut self) -> Option<usize> {
        if !self.wide {
            let mut best: Option<usize> = None;
            for t in self.word.iter() {
                if best.is_none_or(|b| self.vals[t] > self.vals[b]) {
                    best = Some(t);
                }
            }
            let t = best?;
            self.word.remove(t);
            return Some(t);
        }
        let mut best = 0;
        for i in 1..self.list.len() {
            if self.vals[self.list[i] as usize] > self.vals[self.list[best] as usize] {
                best = i;
            }
        }
        let t = (*self.list.get(best)?) as usize;
        self.list.swap_remove(best);
        self.on_list[t] = 0;
        Some(t)
    }

    fn memory_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Pos>()
            + (self.val_stamp.capacity() + self.on_list.capacity() + self.list.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// Direction of a memoized closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Fwd,
    Bwd,
}

/// One cached fixpoint closure: for source node `⟨t1, j1⟩`, the bound
/// per chain (forward: earliest reachable position, backward: latest
/// predecessor; [`INF`] encodes "none" in both directions). Valid only
/// while `epoch` matches the index's edge version.
#[derive(Debug, Clone)]
struct MemoEntry {
    epoch: u64,
    dir: Dir,
    t1: u32,
    j1: Pos,
    vals: Vec<Pos>,
}

/// Epoch-guarded closure cache: a tiny direct-scan store with
/// round-robin replacement. Chains beyond `vals.len()` read as
/// unconnected, so pure domain growth (which never changes answers)
/// does not invalidate entries — only edge updates roll the epoch.
#[derive(Debug, Clone)]
struct QueryMemo {
    entries: Vec<MemoEntry>,
    cap: usize,
    next: usize,
}

impl QueryMemo {
    fn new(cap: usize) -> Self {
        QueryMemo {
            entries: Vec::new(),
            cap,
            next: 0,
        }
    }

    /// The cached bound of chain `t2` for source `⟨t1, j1⟩`, if a
    /// closure of the right direction and epoch is cached.
    fn lookup(&self, epoch: u64, dir: Dir, t1: usize, j1: Pos, t2: usize) -> Option<Pos> {
        self.entries
            .iter()
            .find(|e| e.epoch == epoch && e.dir == dir && e.t1 == t1 as u32 && e.j1 == j1)
            .map(|e| e.vals.get(t2).copied().unwrap_or(INF))
    }

    /// Caches the complete closure held in `scratch` (unvisited chains
    /// are stored as [`INF`]), reusing a replaced entry's allocation.
    fn store(&mut self, epoch: u64, dir: Dir, t1: usize, j1: Pos, k: usize, s: &QueryScratch) {
        if self.cap == 0 {
            return;
        }
        let fill = |vals: &mut Vec<Pos>| {
            vals.clear();
            vals.extend((0..k).map(|t| s.get(t).unwrap_or(INF)));
        };
        if self.entries.len() < self.cap {
            let mut vals = Vec::new();
            fill(&mut vals);
            self.entries.push(MemoEntry {
                epoch,
                dir,
                t1: t1 as u32,
                j1,
                vals,
            });
        } else {
            let e = &mut self.entries[self.next];
            e.epoch = epoch;
            e.dir = dir;
            e.t1 = t1 as u32;
            e.j1 = j1;
            fill(&mut e.vals);
            self.next = (self.next + 1) % self.cap;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<MemoEntry>()
            + self
                .entries
                .iter()
                .map(|e| e.vals.capacity() * std::mem::size_of::<Pos>())
                .sum::<usize>()
    }
}

/// Fully dynamic chain-DAG reachability over a pluggable suffix-minima
/// structure (Algorithm 2). Use the [`Csst`] alias for the paper's data
/// structure.
#[derive(Debug, Clone)]
pub struct DynamicPo<S> {
    arrays: PairMatrix<S>,
    /// Edge heaps: per chain pair and source position, the multiset of
    /// direct successors in the target chain. Flat: slots share the
    /// matrix stride, so `(t1, t2)` resolves without hashing. Also owns
    /// the live-pair adjacency the query worklist walks.
    heaps: EdgeHeapStore,
    edges: usize,
    /// Edge version: bumped by every successful insert/delete so cached
    /// closures and in-flight assumptions can be invalidated cheaply.
    epoch: u64,
    /// Number of live edges that go *backward* in position
    /// (`to.pos < from.pos`). While zero — true for every
    /// streaming/windowed workload in this repo — relaxed bounds are
    /// monotone along crossing paths, and the query engine upgrades
    /// from chaotic worklist iteration to Dijkstra-style processing
    /// with single-pop finalization and sound early termination.
    backward_edges: usize,
    scratch: RefCell<QueryScratch>,
    memo: RefCell<QueryMemo>,
}

/// The paper's fully dynamic CSST: [`DynamicPo`] over
/// [`SparseSegmentTree`] arrays.
pub type Csst = DynamicPo<SparseSegmentTree>;

impl<S: SuffixMinima> DynamicPo<S> {
    #[inline]
    fn k(&self) -> usize {
        self.arrays.k()
    }

    /// Number of currently stored edges (counting parallel edges).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The current update epoch: bumped by every successful edge
    /// insert/delete. Cached query closures are valid exactly while the
    /// epoch stands still, so shard replicas exposing this number let a
    /// coordinator cheaply detect whether two replicas of the same edge
    /// stream have applied the same prefix of updates.
    pub fn update_epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-array density statistics (the `q` column of the tables).
    pub fn density_stats(&self) -> DensityStats {
        self.arrays.density_stats()
    }

    /// Sets the capacity (number of cached source-node closures) of the
    /// epoch-guarded query memo; `0` disables memoization entirely.
    ///
    /// The memo is transparent — answers are identical with any
    /// capacity (the property tests pin this) — so the knob exists for
    /// benchmarking and for workloads known to never repeat a source
    /// node between updates. Changing the capacity drops all cached
    /// closures.
    pub fn set_query_memo_capacity(&mut self, cap: usize) {
        *self.memo.borrow_mut() = QueryMemo::new(cap);
    }

    /// The forward crossing-path fixpoint of Algorithm 2, as a sparse
    /// worklist: returns a position of chain `t2` reachable from
    /// `⟨t1, j1⟩` via at least one cross-chain edge ([`INF`] if none) —
    /// the *earliest* one when `exact` is set, any one `≤ stop_at`
    /// otherwise (callers that only test reachability against a bound
    /// pass `exact = false`, `stop_at = pos`; exact callers pass
    /// `stop_at = 0`, below which no bound can improve).
    ///
    /// Relaxations run only along live chain pairs
    /// ([`EdgeHeapStore::out_neighbors`]) and only from chains whose
    /// bound improved, so convergence costs `O(r·δ_out)` suffix-minima
    /// queries where `r` is the number of bound improvements (≤ `k²`,
    /// Lemma 4; a handful in practice) and `δ_out` the live
    /// out-degree. The worklist pops the smallest bound first; while
    /// the index holds no backward edge (`to.pos < from.pos` — see
    /// [`Self::backward_edges`]) every relaxation yields a bound `≥`
    /// the popped one, so the pop order is Dijkstra's and two stronger
    /// exits apply, both without visiting the rest of the graph:
    ///
    /// * a popped chain's bound is **final** — popping `t2` answers an
    ///   exact query immediately;
    /// * once the smallest queued bound exceeds `stop_at`, no chain —
    ///   in particular `t2` — can ever reach a bound `≤ stop_at`,
    ///   answering a reachability query negatively.
    ///
    /// Only complete runs (worklist drained, no early exit) are
    /// memoized, since an interrupted run leaves other chains'
    /// bounds unconverged.
    fn forward_fixpoint(&self, t1: usize, j1: Pos, t2: usize, stop_at: Pos, exact: bool) -> Pos {
        let epoch = self.epoch;
        if let Some(v) = self.memo.borrow().lookup(epoch, Dir::Fwd, t1, j1, t2) {
            return v;
        }
        let k = self.k();
        let mut s = self.scratch.borrow_mut();
        s.begin(k);
        for &t in self.heaps.out_neighbors(t1) {
            let t = t as usize;
            let v = self.arrays.get(t1, t).suffix_min(j1 as usize);
            if v != INF {
                if t == t2 && v <= stop_at {
                    return v; // a direct edge already satisfies the bound
                }
                s.set(t, v);
                s.push(t);
            }
        }
        let dijkstra = self.backward_edges == 0;
        while let Some(t) = s.pop_min() {
            let base = s.vals[t];
            if dijkstra {
                if exact && t == t2 {
                    return base; // popped bounds are final
                }
                if !exact && base > stop_at {
                    return s.get(t2).unwrap_or(INF); // nothing can land ≤ stop_at anymore
                }
            }
            for &tp in self.heaps.out_neighbors(t) {
                let tp = tp as usize;
                if tp == t1 {
                    continue;
                }
                let cur = s.get(tp).unwrap_or(INF);
                if cur == 0 {
                    continue; // already minimal
                }
                let v = self.arrays.get(t, tp).suffix_min(base as usize);
                if v < cur {
                    if tp == t2 && v <= stop_at {
                        return v;
                    }
                    s.set(tp, v);
                    s.push(tp);
                }
            }
        }
        let result = s.get(t2).unwrap_or(INF);
        self.memo.borrow_mut().store(epoch, Dir::Fwd, t1, j1, k, &s);
        result
    }

    /// Earliest node of chain `t2` reachable from `⟨t1, j1⟩` via at
    /// least one cross-chain edge ([`INF`] if none).
    #[inline]
    fn successor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Pos {
        self.forward_fixpoint(t1, j1, t2, 0, true)
    }

    /// Latest node of chain `t2` that reaches `⟨t1, j1⟩` via at least
    /// one cross-chain edge (`None` if there is none): the symmetric
    /// backward worklist over [`EdgeHeapStore::in_neighbors`], using
    /// `argleq` and maximizing bounds instead of minimizing. Pops the
    /// largest bound first; with no backward edges the popped bound is
    /// final (the backward dual of the Dijkstra argument in
    /// [`forward_fixpoint`](Self::forward_fixpoint)), so popping `t2`
    /// answers immediately.
    fn predecessor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Option<Pos> {
        let epoch = self.epoch;
        if let Some(v) = self.memo.borrow().lookup(epoch, Dir::Bwd, t1, j1, t2) {
            return (v != INF).then_some(v);
        }
        let k = self.k();
        let mut s = self.scratch.borrow_mut();
        s.begin(k);
        for &t in self.heaps.in_neighbors(t1) {
            let t = t as usize;
            if let Some(v) = self.arrays.get(t, t1).argleq(j1) {
                s.set(t, v as Pos);
                s.push(t);
            }
        }
        let dijkstra = self.backward_edges == 0;
        while let Some(t) = s.pop_max() {
            let base = s.vals[t];
            if dijkstra && t == t2 {
                return Some(base); // popped bounds are final
            }
            for &tp in self.heaps.in_neighbors(t) {
                let tp = tp as usize;
                if tp == t1 {
                    continue;
                }
                let Some(v) = self.arrays.get(tp, t).argleq(base) else {
                    continue;
                };
                let v = v as Pos;
                if s.get(tp).is_none_or(|cur| v > cur) {
                    s.set(tp, v);
                    s.push(tp);
                }
            }
        }
        let result = s.get(t2);
        self.memo.borrow_mut().store(epoch, Dir::Bwd, t1, j1, k, &s);
        result
    }

    /// The original dense `O(k³)` Bellman–Ford fixpoint of Algorithm 2,
    /// kept as a reference implementation: the property tests pin the
    /// worklist engine against it under random scripts.
    #[cfg(test)]
    fn dense_successor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Pos {
        let k = self.k();
        let mut closure = vec![INF; k];
        for (t, slot) in closure.iter_mut().enumerate() {
            if t != t1 {
                *slot = self.arrays.get(t1, t).suffix_min(j1 as usize);
            }
        }
        // Lemma 4: after the i-th iteration, closure[t] is the earliest
        // node of t reachable via a crossing path of length ≤ i + 1;
        // crossing paths need at most k hops.
        loop {
            let mut changed = false;
            for tp1 in 0..k {
                if tp1 == t1 {
                    continue;
                }
                for tp2 in 0..k {
                    if tp2 == t1 || tp2 == tp1 || closure[tp2] == INF {
                        continue;
                    }
                    let v = self.arrays.get(tp2, tp1).suffix_min(closure[tp2] as usize);
                    if v < closure[tp1] {
                        closure[tp1] = v;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        closure[t2]
    }

    /// Dense counterpart of [`predecessor_raw`](Self::predecessor_raw);
    /// see [`dense_successor_raw`](Self::dense_successor_raw).
    #[cfg(test)]
    fn dense_predecessor_raw(&self, t1: usize, j1: Pos, t2: usize) -> Option<Pos> {
        let k = self.k();
        let mut closure: Vec<Option<Pos>> = vec![None; k];
        for (t, slot) in closure.iter_mut().enumerate() {
            if t != t1 {
                *slot = self.arrays.get(t, t1).argleq(j1).map(|p| p as Pos);
            }
        }
        loop {
            let mut changed = false;
            for tp1 in 0..k {
                if tp1 == t1 {
                    continue;
                }
                for tp2 in 0..k {
                    if tp2 == t1 || tp2 == tp1 {
                        continue;
                    }
                    let Some(c) = closure[tp2] else { continue };
                    let v = self.arrays.get(tp1, tp2).argleq(c).map(|p| p as Pos);
                    if v > closure[tp1] {
                        closure[tp1] = v;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        closure[t2]
    }
}

impl<S: SuffixMinima> PartialOrderIndex for DynamicPo<S> {
    fn new() -> Self {
        DynamicPo {
            arrays: PairMatrix::new(),
            heaps: EdgeHeapStore::new(),
            edges: 0,
            epoch: 0,
            backward_edges: 0,
            scratch: RefCell::new(QueryScratch::default()),
            memo: RefCell::new(QueryMemo::new(DEFAULT_MEMO_CAPACITY)),
        }
    }

    fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        let arrays = PairMatrix::with_capacity(chains, chain_capacity);
        let mut heaps = EdgeHeapStore::new();
        heaps.sync_kslots(arrays.kslots());
        DynamicPo {
            arrays,
            heaps,
            edges: 0,
            epoch: 0,
            backward_edges: 0,
            scratch: RefCell::new(QueryScratch::default()),
            memo: RefCell::new(QueryMemo::new(DEFAULT_MEMO_CAPACITY)),
        }
    }

    fn name(&self) -> &'static str {
        "CSSTs"
    }

    fn chains(&self) -> usize {
        self.arrays.k()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.arrays.chain_len(chain)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        self.arrays.ensure_chain(chain);
        self.heaps.sync_kslots(self.arrays.kslots());
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.arrays.ensure_len(chain, len);
        self.heaps.sync_kslots(self.arrays.kslots());
    }

    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        let (t1, j1) = (from.thread.index(), from.pos);
        let (t2, j2) = (to.thread.index(), to.pos);
        if self.heaps.insert(t1, t2, j1, j2) {
            self.arrays.get_mut(t1, t2).update(j1 as usize, j2);
        }
        if j2 < j1 {
            self.backward_edges += 1;
        }
        self.edges += 1;
        self.epoch += 1;
    }

    fn insert_edges_raw(&mut self, edges: &[(NodeId, NodeId)]) {
        // Visit the batch grouped by chain pair (stable sort, so the
        // per-pair insertion order — and therefore every heap and
        // array state — matches the sequential path exactly): one warm
        // pair/array working set per group.
        let kslots = self.arrays.kslots();
        let mut order: Vec<u32> = (0..edges.len() as u32).collect();
        order.sort_by_key(|&i| {
            let (from, to) = edges[i as usize];
            from.thread.index() * kslots + to.thread.index()
        });
        for &i in &order {
            let (from, to) = edges[i as usize];
            let (ft, tt) = (from.thread.index(), to.thread.index());
            if self.heaps.insert(ft, tt, from.pos, to.pos) {
                self.arrays
                    .get_mut(ft, tt)
                    .update(from.pos as usize, to.pos);
            }
            if to.pos < from.pos {
                self.backward_edges += 1;
            }
            self.edges += 1;
        }
        if !edges.is_empty() {
            self.epoch += 1;
        }
    }

    fn delete_edge_raw(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        let (t1, j1) = (from.thread.index(), from.pos);
        let (t2, j2) = (to.thread.index(), to.pos);
        if t1 >= self.k() || t2 >= self.k() {
            return Err(PoError::EdgeNotFound { from, to });
        }
        let Some((old_min, new_min)) = self.heaps.remove(t1, t2, j1, j2) else {
            return Err(PoError::EdgeNotFound { from, to });
        };
        if old_min == Some(j2) && new_min != Some(j2) {
            self.arrays
                .get_mut(t1, t2)
                .update(j1 as usize, new_min.unwrap_or(INF));
        }
        if j2 < j1 {
            self.backward_edges -= 1;
        }
        self.edges -= 1;
        self.epoch += 1;
        Ok(())
    }

    /// Bound-aware reachability: runs the forward worklist with the
    /// target position as the stop bound, so propagation halts as soon
    /// as *any* path lands at or before `to` — no need to find the
    /// earliest one.
    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from.thread == to.thread {
            return from.pos <= to.pos;
        }
        let t1 = from.thread.index();
        let t2 = to.thread.index();
        if t1 >= self.k() || t2 >= self.k() {
            return false; // unwitnessed chains carry no edges
        }
        self.forward_fixpoint(t1, from.pos, t2, to.pos, false) <= to.pos
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let t1 = from.thread.index();
        let t2 = chain.index();
        if t1 == t2 {
            return Some(from.pos);
        }
        if t1 >= self.k() || t2 >= self.k() {
            return None; // unwitnessed chains carry no edges
        }
        match self.successor_raw(t1, from.pos, t2) {
            INF => None,
            v => Some(v),
        }
    }

    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        let t1 = from.thread.index();
        let t2 = chain.index();
        if t1 == t2 {
            return Some(from.pos);
        }
        if t1 >= self.k() || t2 >= self.k() {
            return None;
        }
        self.predecessor_raw(t1, from.pos, t2)
    }

    fn supports_deletion(&self) -> bool {
        true
    }

    fn memory_bytes(&self) -> usize {
        // The store accounts for itself exactly: the flat slot vector
        // (the analogue of the outer hash map this layout replaced,
        // whose bucket overhead the old accounting missed) plus every
        // pair's entry vector and spilled heap. The query engine's
        // scratch and memo are O(k) side buffers but are charged too.
        std::mem::size_of::<Self>()
            + self.arrays.memory_bytes()
            + self.heaps.memory_bytes()
            + self.scratch.borrow().memory_bytes()
            + self.memo.borrow().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(t: u32, i: u32) -> NodeId {
        NodeId::new(t, i)
    }

    #[test]
    fn reflexive_and_program_order() {
        let po = Csst::with_capacity(3, 10);
        assert!(po.reachable(n(0, 3), n(0, 3)));
        assert!(po.reachable(n(0, 2), n(0, 9)));
        assert!(!po.reachable(n(0, 9), n(0, 2)));
        assert!(!po.reachable(n(0, 0), n(1, 9)));
        assert_eq!(po.successor(n(1, 4), ThreadId(1)), Some(4));
        assert_eq!(po.predecessor(n(1, 4), ThreadId(1)), Some(4));
        assert_eq!(po.successor(n(1, 4), ThreadId(0)), None);
        assert_eq!(po.predecessor(n(1, 4), ThreadId(0)), None);
    }

    #[test]
    fn empty_index_answers_like_program_order() {
        let po = Csst::new();
        assert_eq!(po.chains(), 0);
        assert!(
            po.reachable(n(4, 1), n(4, 8)),
            "program order needs no setup"
        );
        assert!(!po.reachable(n(0, 0), n(1, 0)));
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), None);
        assert_eq!(po.predecessor(n(2, 5), ThreadId(0)), None);
    }

    #[test]
    fn append_and_ensure_chain_grow_the_domain() {
        let mut po = Csst::new();
        let a = po.append(0);
        let b = po.append(1);
        let b2 = po.append(1);
        assert_eq!((a, b, b2), (n(0, 0), n(1, 0), n(1, 1)));
        assert_eq!(po.chains(), 2);
        assert_eq!(po.chain_len(ThreadId(1)), 2);
        po.ensure_chain(ThreadId(4));
        assert_eq!(po.chains(), 5);
        assert_eq!(po.chain_len(ThreadId(4)), 0);
        po.insert_edge(a, b2).unwrap();
        assert!(po.reachable(a, n(1, 1)));
    }

    #[test]
    fn insert_grows_past_any_hint() {
        let mut po = Csst::with_capacity(2, 4);
        // Both the chain count and the positions exceed the hint.
        po.insert_edge(n(0, 1_000_000), n(5, 2_000_000)).unwrap();
        assert_eq!(po.chains(), 6);
        assert_eq!(po.chain_len(ThreadId(0)), 1_000_001);
        assert!(po.reachable(n(0, 0), n(5, 2_000_000)));
        assert!(!po.reachable(n(0, 1_000_001), n(5, 2_000_000)));
        assert_eq!(po.successor(n(0, 3), ThreadId(5)), Some(2_000_000));
    }

    #[test]
    fn sparse_growth_stays_cheap_in_memory() {
        let mut po = Csst::new();
        for t in 0..8u32 {
            po.ensure_len(ThreadId(t), 1 << 20);
        }
        po.insert_edge(n(0, 500_000), n(1, 700_000)).unwrap();
        assert!(
            po.memory_bytes() < 256 * 1024,
            "sparse arrays must not pay for untouched capacity: {}B",
            po.memory_bytes()
        );
    }

    #[test]
    fn direct_edge_with_suffix_semantics() {
        let mut po = Csst::with_capacity(2, 10);
        po.insert_edge(n(0, 5), n(1, 5)).unwrap();
        // Earlier events of chain 0 inherit the edge via program order.
        assert!(po.reachable(n(0, 0), n(1, 5)));
        assert!(po.reachable(n(0, 5), n(1, 9)));
        assert!(!po.reachable(n(0, 6), n(1, 9)));
        assert!(!po.reachable(n(0, 5), n(1, 4)));
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(5));
        assert_eq!(po.predecessor(n(1, 9), ThreadId(0)), Some(5));
        assert_eq!(po.predecessor(n(1, 4), ThreadId(0)), None);
    }

    #[test]
    fn example_6_transitive_query() {
        // Figure 8: successor(⟨0,0⟩, 3) = ⟨3,1⟩ discovered through a
        // crossing path of length 4.
        let mut po = Csst::with_capacity(4, 3);
        po.insert_edge(n(0, 0), n(1, 0)).unwrap(); // edge 1
        po.insert_edge(n(0, 1), n(3, 2)).unwrap(); // edge 2
        po.insert_edge(n(1, 1), n(2, 1)).unwrap(); // edge 3
        po.insert_edge(n(2, 2), n(3, 1)).unwrap(); // edge 4
        assert_eq!(po.successor(n(0, 0), ThreadId(3)), Some(1));
        assert!(po.reachable(n(0, 0), n(3, 1)));
        assert!(!po.reachable(n(0, 0), n(3, 0)));
        // Backward: the latest node of chain 0 reaching ⟨3,1⟩ is ⟨0,0⟩.
        assert_eq!(po.predecessor(n(3, 1), ThreadId(0)), Some(0));
        assert_eq!(po.predecessor(n(3, 2), ThreadId(0)), Some(1));
    }

    #[test]
    fn delete_restores_previous_state() {
        let mut po = Csst::with_capacity(3, 100);
        po.insert_edge(n(0, 10), n(1, 20)).unwrap();
        po.insert_edge(n(1, 30), n(2, 40)).unwrap();
        assert!(po.reachable(n(0, 5), n(2, 99)));
        po.delete_edge(n(1, 30), n(2, 40)).unwrap();
        assert!(!po.reachable(n(0, 5), n(2, 99)));
        assert!(po.reachable(n(0, 5), n(1, 99)));
        po.delete_edge(n(0, 10), n(1, 20)).unwrap();
        assert!(!po.reachable(n(0, 5), n(1, 99)));
        assert_eq!(po.edge_count(), 0);
    }

    #[test]
    fn parallel_edges_and_heap_restoration() {
        let mut po = Csst::with_capacity(2, 50);
        po.insert_edge(n(0, 3), n(1, 20)).unwrap();
        po.insert_edge(n(0, 3), n(1, 10)).unwrap();
        po.insert_edge(n(0, 3), n(1, 10)).unwrap(); // duplicate edge
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(10));
        po.delete_edge(n(0, 3), n(1, 10)).unwrap();
        // One copy of the 10-edge remains.
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(10));
        po.delete_edge(n(0, 3), n(1, 10)).unwrap();
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(20));
        po.delete_edge(n(0, 3), n(1, 20)).unwrap();
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), None);
    }

    #[test]
    fn delete_errors() {
        let mut po = Csst::with_capacity(2, 10);
        assert_eq!(
            po.delete_edge(n(0, 1), n(1, 2)),
            Err(PoError::EdgeNotFound {
                from: n(0, 1),
                to: n(1, 2)
            })
        );
        po.insert_edge(n(0, 1), n(1, 2)).unwrap();
        assert_eq!(
            po.delete_edge(n(0, 1), n(1, 3)),
            Err(PoError::EdgeNotFound {
                from: n(0, 1),
                to: n(1, 3)
            })
        );
        // Deleting on never-witnessed chains is not-found, not a panic.
        assert_eq!(
            po.delete_edge(n(7, 0), n(8, 0)),
            Err(PoError::EdgeNotFound {
                from: n(7, 0),
                to: n(8, 0)
            })
        );
    }

    #[test]
    fn validation_errors() {
        use crate::index::{MAX_CHAINS, MAX_POS};
        let mut po = Csst::new();
        assert!(matches!(
            po.insert_edge(n(0, 1), n(0, 2)),
            Err(PoError::SameChain { .. })
        ));
        // Genuinely invalid inputs: beyond the addressable universe.
        assert!(matches!(
            po.insert_edge(n(0, 1), n(MAX_CHAINS as u32, 2)),
            Err(PoError::OutOfRange { .. })
        ));
        assert!(matches!(
            po.insert_edge(n(0, MAX_POS + 1), n(1, 2)),
            Err(PoError::OutOfRange { .. })
        ));
        // In-universe nodes never error: the domain grows instead.
        assert!(po.insert_edge(n(0, 10), n(1, 2)).is_ok());
    }

    #[test]
    fn checked_insert_rejects_cycles() {
        let mut po = Csst::with_capacity(2, 10);
        po.insert_edge_checked(n(0, 5), n(1, 5)).unwrap();
        assert_eq!(
            po.insert_edge_checked(n(1, 5), n(0, 5)),
            Err(PoError::WouldCycle {
                from: n(1, 5),
                to: n(0, 5)
            })
        );
        // A non-cyclic back edge is fine.
        po.insert_edge_checked(n(1, 5), n(0, 6)).unwrap();
    }

    #[test]
    fn density_stats_reflect_direct_edges() {
        let mut po = Csst::with_capacity(3, 100);
        for j in 0..10 {
            po.insert_edge(n(0, j), n(1, j)).unwrap();
        }
        let stats = po.density_stats();
        assert_eq!(stats.arrays, 6, "3 witnessed chains → 6 ordered pairs");
        assert_eq!(stats.max_peak, 10);
        assert!(stats.q > 0.0 && stats.q <= 1.0);
    }

    #[test]
    fn memory_bytes_monotone_under_inserts_and_shrinks_after_deletes() {
        // Append-style streaming (every edge touches a fresh source
        // position): memory may only grow while inserting, and must
        // genuinely fall once deletions drain the edge heaps and
        // release the SSTs' block extents.
        let mut po = Csst::new();
        let mut prev = po.memory_bytes();
        let mut edges = Vec::new();
        for i in 0..256u32 {
            let (u, v) = (n(i % 4, i), n((i + 1) % 4, i + 1));
            po.insert_edge(u, v).unwrap();
            edges.push((u, v));
            let m = po.memory_bytes();
            assert!(m >= prev, "memory fell from {prev} to {m} on insert {i}");
            prev = m;
        }
        let peak = prev;
        for (u, v) in edges.into_iter().rev() {
            po.delete_edge(u, v).unwrap();
        }
        assert_eq!(po.edge_count(), 0);
        let drained = po.memory_bytes();
        assert!(
            drained < peak / 2,
            "draining all edges must release heap entries and block \
             extents: {drained}B vs peak {peak}B"
        );
    }

    #[test]
    fn supports_deletion_flag() {
        let po = Csst::with_capacity(2, 4);
        assert!(po.supports_deletion());
        assert_eq!(po.name(), "CSSTs");
    }

    #[test]
    fn batched_queries_match_sequential_basics() {
        let mut po = Csst::with_capacity(4, 50);
        po.insert_edge(n(0, 5), n(1, 10)).unwrap();
        po.insert_edge(n(1, 12), n(2, 7)).unwrap();
        let probes = [
            (n(0, 0), ThreadId(2)), // transitive crossing path
            (n(0, 6), ThreadId(1)), // past the only edge
            (n(1, 3), ThreadId(1)), // reflexive same-chain
            (n(9, 0), ThreadId(0)), // unwitnessed source chain
            (n(0, 0), ThreadId(9)), // unwitnessed target chain
            (n(0, 5), ThreadId(2)),
            (n(0, 5), ThreadId(2)), // duplicate source position
        ];
        let mut out = Vec::new();
        po.successor_batch(&probes, &mut out);
        assert_eq!(out[0], Some(7));
        assert_eq!(out[2], Some(3));
        for (p, got) in probes.iter().zip(&out) {
            assert_eq!(*got, po.successor(p.0, p.1), "successor probe {p:?}");
        }
        po.predecessor_batch(&probes, &mut out);
        for (p, got) in probes.iter().zip(&out) {
            assert_eq!(*got, po.predecessor(p.0, p.1), "predecessor probe {p:?}");
        }
        let rprobes = [
            (n(0, 0), n(2, 7)),
            (n(0, 0), n(2, 6)),
            (n(2, 1), n(2, 4)),  // same chain, program order
            (n(0, 6), n(1, 50)), // source past the only edge
            (n(7, 0), n(8, 1)),  // unwitnessed chains
        ];
        let mut rout = Vec::new();
        po.reachable_batch(&rprobes, &mut rout);
        assert_eq!(rout, vec![true, false, true, false, false]);
        for (p, got) in rprobes.iter().zip(&rout) {
            assert_eq!(*got, po.reachable(p.0, p.1), "reachable probe {p:?}");
        }
        // Empty batches are a no-op that clears the output buffer.
        po.successor_batch(&[], &mut out);
        assert!(out.is_empty());
        po.reachable_batch(&[], &mut rout);
        assert!(rout.is_empty());
    }

    #[test]
    fn batched_matches_sequential_beyond_bitset_width() {
        use crate::index::MAX_BITSET_CHAINS;
        // More chains than fit a bitset word: the worklist runs in
        // wide (stamped-list) mode and must answer identically.
        let k = MAX_BITSET_CHAINS as u32 + 6;
        let mut po = Csst::new();
        po.ensure_chain(ThreadId(k - 1));
        assert!(po.chains() > MAX_BITSET_CHAINS);
        let edges: Vec<_> = (0..k - 1).map(|t| (n(t, t + 1), n(t + 1, t + 2))).collect();
        po.insert_edges(&edges).unwrap();
        let succ_probes: Vec<_> = (0..k)
            .flat_map(|t2| [(n(0, 0), ThreadId(t2)), (n(3, 0), ThreadId(t2))])
            .collect();
        let mut out = Vec::new();
        po.successor_batch(&succ_probes, &mut out);
        for (p, got) in succ_probes.iter().zip(&out) {
            assert_eq!(*got, po.successor(p.0, p.1), "successor probe {p:?}");
        }
        assert_eq!(
            out[2 * (k as usize - 1)],
            Some(k),
            "end of the crossing chain"
        );
        po.predecessor_batch(&succ_probes, &mut out);
        for (p, got) in succ_probes.iter().zip(&out) {
            assert_eq!(*got, po.predecessor(p.0, p.1), "predecessor probe {p:?}");
        }
        let reach_probes: Vec<_> = (0..k).map(|t2| (n(0, 0), n(t2, t2 + 1))).collect();
        let mut rout = Vec::new();
        po.reachable_batch(&reach_probes, &mut rout);
        for (p, got) in reach_probes.iter().zip(&rout) {
            assert_eq!(*got, po.reachable(p.0, p.1), "reachable probe {p:?}");
        }
    }

    #[test]
    fn memo_serves_bursts_and_rolls_with_the_epoch() {
        let mut po = Csst::with_capacity(3, 50);
        po.insert_edge(n(0, 10), n(1, 20)).unwrap();
        po.insert_edge(n(1, 25), n(2, 30)).unwrap();
        // A burst of queries from one source node: the second call is
        // served from the memo and must agree with the first.
        let first = po.successor(n(0, 5), ThreadId(2));
        assert_eq!(first, Some(30));
        assert_eq!(po.successor(n(0, 5), ThreadId(2)), first);
        assert_eq!(po.successor(n(0, 5), ThreadId(1)), Some(20));
        // An update rolls the epoch: the cached closure must not leak.
        po.delete_edge(n(1, 25), n(2, 30)).unwrap();
        assert_eq!(po.successor(n(0, 5), ThreadId(2)), None);
        assert_eq!(po.successor(n(0, 5), ThreadId(1)), Some(20));
        po.insert_edge(n(1, 21), n(2, 40)).unwrap();
        assert_eq!(po.successor(n(0, 5), ThreadId(2)), Some(40));
        // Backward closures roll identically.
        assert_eq!(po.predecessor(n(2, 45), ThreadId(0)), Some(10));
        po.delete_edge(n(0, 10), n(1, 20)).unwrap();
        assert_eq!(po.predecessor(n(2, 45), ThreadId(0)), None);
    }

    #[test]
    fn memo_survives_pure_domain_growth() {
        // Pure growth never changes answers, so it must not invalidate
        // cached closures — and cached closures must answer queries
        // about chains younger than the cache entry as "unconnected".
        let mut po = Csst::with_capacity(2, 10);
        po.insert_edge(n(0, 3), n(1, 4)).unwrap();
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(4));
        po.ensure_chain(ThreadId(7));
        po.ensure_len(ThreadId(1), 1 << 16);
        assert_eq!(po.successor(n(0, 0), ThreadId(1)), Some(4));
        assert_eq!(po.successor(n(0, 0), ThreadId(7)), None);
        assert_eq!(po.predecessor(n(1, 9), ThreadId(7)), None);
    }

    #[test]
    fn disabling_the_memo_changes_no_answers() {
        let mut with = Csst::with_capacity(4, 30);
        let mut without = Csst::with_capacity(4, 30);
        without.set_query_memo_capacity(0);
        let edges = [
            (n(0, 2), n(1, 4)),
            (n(1, 6), n(2, 3)),
            (n(2, 5), n(3, 9)),
            (n(3, 1), n(0, 8)),
        ];
        for (u, v) in edges {
            with.insert_edge(u, v).unwrap();
            without.insert_edge(u, v).unwrap();
        }
        for t1 in 0..4u32 {
            for j1 in 0..30u32 {
                let u = n(t1, j1);
                for t2 in 0..4u32 {
                    let c = ThreadId(t2);
                    // Repeat so the memoized index actually hits.
                    for _ in 0..2 {
                        assert_eq!(with.successor(u, c), without.successor(u, c));
                        assert_eq!(with.predecessor(u, c), without.predecessor(u, c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod worklist_engine {
    //! The worklist + memo query engine against the paper's dense
    //! `O(k³)` fixpoint (kept above behind `#[cfg(test)]`), under
    //! random insert/delete/query scripts so epochs genuinely roll.

    use super::*;
    use crate::naive::NaiveIndex;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, u32, u32, u32),
        Delete(usize),
    }

    fn scripts(k: u32, cap: u32) -> impl Strategy<Value = Vec<Op>> {
        let ins =
            (0..k, 0..cap, 0..k, 0..cap).prop_map(|(t1, j1, t2, j2)| Op::Insert(t1, j1, t2, j2));
        let op = prop_oneof![3 => ins, 1 => (0usize..64).prop_map(Op::Delete)];
        prop::collection::vec(op, 1..40)
    }

    /// Runs one script on a memoized and a memo-free index, checking
    /// both against the dense fixpoint after every update. With
    /// `forward_only`, targets are rewritten to `to.pos ≥ from.pos`, so
    /// the index never holds a backward edge and the Dijkstra mode
    /// (single-pop finalization + bounded early exit) is what answers;
    /// otherwise backward edges force the chaotic-iteration fallback.
    fn run_script(ops: &[Op], cap: u32, forward_only: bool) -> Result<(), TestCaseError> {
        let mut memoized = Csst::new();
        let mut bare = Csst::new();
        bare.set_query_memo_capacity(0);
        let mut planner = NaiveIndex::new();
        let mut live: Vec<(NodeId, NodeId)> = Vec::new();
        for &op in ops {
            match op {
                Op::Insert(t1, j1, t2, j2) => {
                    if t1 == t2 {
                        continue;
                    }
                    let j2 = if forward_only { j1 + 1 + j2 % 6 } else { j2 };
                    let (u, v) = (NodeId::new(t1, j1), NodeId::new(t2, j2));
                    if planner.reachable(v, u) {
                        continue; // keep the relation acyclic
                    }
                    planner.insert_edge(u, v).unwrap();
                    memoized.insert_edge(u, v).unwrap();
                    bare.insert_edge(u, v).unwrap();
                    live.push((u, v));
                }
                Op::Delete(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (u, v) = live.swap_remove(i % live.len());
                    planner.delete_edge(u, v).unwrap();
                    memoized.delete_edge(u, v).unwrap();
                    bare.delete_edge(u, v).unwrap();
                }
            }
            // Query in between every update, twice per node so the
            // memo path (second call hits the cache) is exercised
            // at every epoch.
            let kk = memoized.chains();
            let mut node_probes = Vec::new();
            let mut reach_probes = Vec::new();
            for t1 in 0..kk {
                for j1 in (0..cap).step_by(3) {
                    for t2 in 0..kk {
                        if t1 == t2 {
                            continue;
                        }
                        let ds = memoized.dense_successor_raw(t1, j1, t2);
                        let dp = memoized.dense_predecessor_raw(t1, j1, t2);
                        for po in [&memoized, &bare] {
                            prop_assert_eq!(po.successor_raw(t1, j1, t2), ds);
                            prop_assert_eq!(po.predecessor_raw(t1, j1, t2), dp);
                        }
                        let u = NodeId::new(t1 as u32, j1);
                        node_probes.push((u, ThreadId(t2 as u32)));
                        // The bound-aware reachable must agree with
                        // the successor-derived default semantics.
                        for j2 in (0..cap).step_by(4) {
                            let v = NodeId::new(t2 as u32, j2);
                            let expect = ds != INF && ds <= j2;
                            prop_assert_eq!(memoized.reachable(u, v), expect);
                            prop_assert_eq!(bare.reachable(u, v), expect);
                            reach_probes.push((u, v));
                        }
                    }
                }
            }
            // The whole probe grid again through the batched API, at
            // this same (freshly rolled) epoch: batched answers must
            // agree with the per-probe engine, memo on or off.
            let (mut bs, mut bp, mut br) = (Vec::new(), Vec::new(), Vec::new());
            for po in [&memoized, &bare] {
                po.successor_batch(&node_probes, &mut bs);
                po.predecessor_batch(&node_probes, &mut bp);
                po.reachable_batch(&reach_probes, &mut br);
                prop_assert_eq!(bs.len(), node_probes.len());
                for (i, &(u, c)) in node_probes.iter().enumerate() {
                    prop_assert_eq!(bs[i], po.successor(u, c));
                    prop_assert_eq!(bp[i], po.predecessor(u, c));
                }
                for (i, &(u, v)) in reach_probes.iter().enumerate() {
                    prop_assert_eq!(br[i], po.reachable(u, v));
                }
            }
        }
        if forward_only {
            prop_assert_eq!(
                memoized.backward_edges,
                0,
                "forward-only script grew a backward edge"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn worklist_matches_dense_fixpoint(ops in scripts(5, 12)) {
            run_script(&ops, 12, false)?;
        }

        #[test]
        fn dijkstra_mode_matches_dense_fixpoint(ops in scripts(5, 12)) {
            run_script(&ops, 12, true)?;
        }
    }
}
