//! Sparse Segment Trees (§3.2 of the paper, Algorithm 1).
//!
//! A Sparse Segment Tree (SST) solves the dynamic suffix-minima problem
//! with two optimizations over classic segment trees:
//!
//! * **Minima indexing** — every node `nd` stores a pair
//!   `(nd.min, nd.pos)` satisfying Eq. (2): `nd.pos` is the largest
//!   index of the minimum entry of its subtree, after excluding the
//!   indices already claimed by its ancestors. Suffix queries can then
//!   stop as soon as they meet a node with `nd.pos ≥ i`.
//! * **Sparse representation** — empty (`∞`) array entries are never
//!   represented. Every node holds exactly one non-empty entry, so the
//!   tree height is bounded by `min(log n, d)` where `d` is the number
//!   of non-empty entries (Lemma 1). Nodes carry *canonical* (dyadic)
//!   ranges; missing intermediate levels are materialized on demand via
//!   the lowest-common-ancestor construction of Algorithm 1.
//!
//! Additionally, subtrees whose canonical range is at most the block
//! size `b` are flattened into **block nodes** storing the subarray
//! directly (Figure 7); the paper's stress test selects `b = 32`.
//!
//! The implementation is allocation-lean (no `unsafe`): tree nodes live
//! in an index-based arena, and block subarrays live in a second shared
//! **block arena** — one flat `Vec<Pos>` carved into power-of-two
//! extents addressed by `u32` handles, with per-size-class free lists —
//! so neither structural churn nor block formation touches the global
//! allocator. Every query and update walks the tree iteratively, and
//! the min-heap invariant *value(parent) ≤ value(descendants)*
//! underpins the early stopping of both queries. Child links are a
//! two-element slot array and descents select the slot arithmetically
//! from the range compare (branchless binary search), so the hot walks
//! are straight-line index chases the branch predictor never has to
//! guess.
//!
//! **Tail bound.** The tree keeps `hi`, an upper bound on its largest
//! stored index: every store raises it, an erase leaves it alone (it
//! stays a valid bound, just possibly stale), and it resets when the
//! tree empties. A suffix query starting past `hi` has nothing to find
//! and answers `∞` in `O(1)` instead of walking root to leaf. Streaming
//! analyses ask exactly this query all the time: a cycle probe or
//! successor query from a freshly appended event reads every pair
//! array of its chain from the newest position, past every stored edge
//! source. A query between a stale `hi` and the live maximum takes the
//! ordinary walk, which is still exact.

use crate::index::{Pos, INF};
use crate::suffix::SuffixMinima;

/// Sentinel for "no node" / "no block" links in the arenas.
const NIL: u32 = u32::MAX;

/// Default block-size threshold `b`; §5.1 selects 32 by stress testing
/// (reproduced by `repro -- blocksize`).
pub const DEFAULT_BLOCK_SIZE: u32 = 32;

#[derive(Debug, Clone)]
struct Node {
    /// Inclusive canonical (dyadic) range start.
    start: Pos,
    /// Inclusive canonical (dyadic) range end.
    end: Pos,
    /// Index of the entry stored at this node (for block nodes: the
    /// cached best index).
    pos: Pos,
    /// Value of the entry stored at this node (for block nodes: the
    /// cached minimum).
    min: Pos,
    /// Child links: slot 0 covers the lower half of the range, slot 1
    /// the upper. Descents compute the slot arithmetically
    /// (`usize::from(i > mid)`) and index this array, so the hot
    /// search loops carry no data-dependent branch on the compare.
    children: [u32; 2],
    /// Block-arena handle of the flattened subarray for block nodes
    /// ([`NIL`] for ordinary nodes). The extent's length is the node's
    /// range size `end - start + 1`.
    block: u32,
}

impl Node {
    #[inline]
    fn contains(&self, i: Pos) -> bool {
        self.start <= i && i <= self.end
    }

    #[inline]
    fn mid(&self) -> Pos {
        self.start + (self.end - self.start) / 2
    }

    #[inline]
    fn is_block(&self) -> bool {
        self.block != NIL
    }

    /// The child slot whose half-range contains `i` (0 = lower half,
    /// 1 = upper): the branchless descent step.
    #[inline]
    fn slot_of(&self, i: Pos) -> usize {
        usize::from(i > self.mid())
    }

    #[inline]
    fn block_len(&self) -> u32 {
        self.end - self.start + 1
    }
}

/// Entry ordering used throughout: smaller value wins; on equal values
/// the larger index wins (Eq. (2) takes the *largest* arg-min, which
/// maximizes the chance of early stops on suffix queries).
#[inline]
fn better(v1: Pos, p1: Pos, v2: Pos, p2: Pos) -> bool {
    v1 < v2 || (v1 == v2 && p1 > p2)
}

/// Shared storage for every block node's subarray: one flat `Vec<Pos>`
/// carved into power-of-two extents. Released extents are recycled
/// through per-size-class free lists; an extent released from the tail
/// shrinks the vector's length instead (keeping its capacity as
/// working-set slack — `memory_bytes` reports capacity), and an
/// emptied arena drops its whole allocation, so draining a tree
/// genuinely returns its block memory.
#[derive(Debug, Clone, Default)]
struct BlockArena {
    data: Vec<Pos>,
    /// Free extents per size class (`class = log2(len)`).
    free: Vec<Vec<u32>>,
    /// Cells sitting on free lists (for the accounting sanity checks).
    free_cells: usize,
}

impl BlockArena {
    /// Allocates an all-`INF` extent of `len` cells (`len` a power of
    /// two) and returns its handle.
    fn alloc(&mut self, len: u32) -> u32 {
        debug_assert!(len.is_power_of_two());
        let class = len.trailing_zeros() as usize;
        if let Some(off) = self.free.get_mut(class).and_then(Vec::pop) {
            self.free_cells -= len as usize;
            return off; // released extents are wiped to INF eagerly
        }
        let off = self.data.len() as u32;
        self.data.resize(self.data.len() + len as usize, INF);
        off
    }

    /// Returns the extent at `off` to the arena.
    fn release(&mut self, off: u32, len: u32) {
        let (o, l) = (off as usize, len as usize);
        if o + l == self.data.len() {
            self.data.truncate(o);
            return;
        }
        self.data[o..o + l].fill(INF);
        let class = len.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(off);
        self.free_cells += l;
    }

    /// Drops every allocation (used once the tree holds no blocks).
    fn reset(&mut self) {
        *self = BlockArena::default();
    }

    #[inline]
    fn cells(&self, off: u32, len: u32) -> &[Pos] {
        &self.data[off as usize..(off + len) as usize]
    }

    fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Pos>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// A Sparse Segment Tree over an array of `len` entries in
/// `ℕ ∪ {∞}` (Algorithm 1).
///
/// ```
/// use csst_core::{SparseSegmentTree, SuffixMinima, INF};
///
/// let mut sst = SparseSegmentTree::with_len(8);
/// // Figure 6: A[2] = 65, A[3] = 42, A[0] = 59, A[7] = 13.
/// sst.update(2, 65);
/// sst.update(3, 42);
/// sst.update(0, 59);
/// sst.update(7, 13);
/// assert_eq!(sst.suffix_min(0), 13);
/// assert_eq!(sst.suffix_min(4), 13);
/// assert_eq!(sst.argleq(42), Some(7));
/// sst.update(7, INF); // erase
/// assert_eq!(sst.suffix_min(4), INF);
/// assert_eq!(sst.argleq(42), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct SparseSegmentTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    blocks: BlockArena,
    root: u32,
    len: usize,
    /// Upper bound on the largest stored index: raised by every store,
    /// never lowered by an erase, reset to 0 when the tree empties. A
    /// suffix query starting past it has nothing to find and answers
    /// [`INF`] without a walk.
    hi: Pos,
    block_size: u32,
    density: usize,
    peak_density: usize,
    live_nodes: usize,
    peak_nodes: usize,
}

impl SparseSegmentTree {
    /// Creates an SST with a custom block-size threshold `b`.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0` or `len > 2^31`.
    pub fn with_block_size(len: usize, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(len <= 1 << 31, "SST supports arrays up to 2^31 entries");
        SparseSegmentTree {
            nodes: Vec::new(),
            free: Vec::new(),
            blocks: BlockArena::default(),
            root: NIL,
            len,
            hi: 0,
            block_size,
            density: 0,
            peak_density: 0,
            live_nodes: 0,
            peak_nodes: 0,
        }
    }

    /// Number of live arena nodes (block nodes count once).
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Largest number of live nodes reached so far.
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// Height of the tree (0 for an empty tree); bounded by
    /// `min(log n, d)` per Lemma 1.
    pub fn height(&self) -> usize {
        fn rec(sst: &SparseSegmentTree, nd: u32) -> usize {
            if nd == NIL {
                return 0;
            }
            let n = &sst.nodes[nd as usize];
            1 + rec(sst, n.children[0]).max(rec(sst, n.children[1]))
        }
        rec(self, self.root)
    }

    /// Validates the structural invariants the query algorithms rely
    /// on; used by the test suite after every mutation step.
    ///
    /// Checked invariants:
    /// 1. node ranges are canonical (power-of-two sized and aligned)
    ///    and children lie strictly within their parent's halves;
    /// 2. the min-heap property: a node's cached value is ≤ every value
    ///    in its subtree (what lets `min`/`argleq` stop early);
    /// 3. every node's `pos` lies in its range and, for block nodes,
    ///    the `(min, pos)` cache matches the block contents exactly
    ///    (ties broken toward the larger index, per Eq. (2));
    /// 4. each array index is represented at most once;
    /// 5. the tracked density equals the number of stored entries;
    /// 6. live block extents and free-listed extents tile the block
    ///    arena exactly (no leaked or double-booked cells);
    /// 7. every stored index is ≤ the tail bound `hi` (which lets
    ///    `suffix_min` answer past it without a walk).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        fn canonical(start: Pos, end: Pos) -> bool {
            let size = (end - start) as u64 + 1;
            size.is_power_of_two() && (start as u64).is_multiple_of(size)
        }
        fn rec(
            sst: &SparseSegmentTree,
            nd: u32,
            seen: &mut std::collections::HashSet<Pos>,
            block_cells: &mut usize,
        ) {
            let n = &sst.nodes[nd as usize];
            assert!(
                canonical(n.start, n.end),
                "range [{}, {}] is not canonical",
                n.start,
                n.end
            );
            if n.is_block() {
                *block_cells += n.block_len() as usize;
                let mut best: Option<(Pos, Pos)> = None;
                for (off, &v) in sst.blocks.cells(n.block, n.block_len()).iter().enumerate() {
                    if v == INF {
                        continue;
                    }
                    let p = n.start + off as Pos;
                    assert!(seen.insert(p), "index {p} stored twice");
                    best = match best {
                        Some((bv, bp)) if !better(v, p, bv, bp) => Some((bv, bp)),
                        _ => Some((v, p)),
                    };
                }
                let (bv, bp) = best.expect("live block node must be non-empty");
                assert_eq!((n.min, n.pos), (bv, bp), "stale block cache");
                assert!(n.children == [NIL; 2], "block node with children");
                return;
            }
            assert!(n.contains(n.pos), "entry index outside node range");
            assert!(seen.insert(n.pos), "index {} stored twice", n.pos);
            let mid = n.mid();
            for (child, is_left) in [(n.children[0], true), (n.children[1], false)] {
                if child == NIL {
                    continue;
                }
                let c = &sst.nodes[child as usize];
                if is_left {
                    assert!(
                        c.end <= mid,
                        "left child [{}, {}] beyond mid {mid}",
                        c.start,
                        c.end
                    );
                } else {
                    assert!(
                        c.start > mid,
                        "right child [{}, {}] before mid {mid}",
                        c.start,
                        c.end
                    );
                }
                // The early stops of `min`/`argleq` rely on the value
                // heap; the tie direction of Eq. (2) is a best-effort
                // optimization and not asserted.
                assert!(
                    n.min <= c.min,
                    "heap violation: parent value {} above child value {}",
                    n.min,
                    c.min
                );
                rec(sst, child, seen, block_cells);
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut block_cells = 0usize;
        if self.root != NIL {
            rec(self, self.root, &mut seen, &mut block_cells);
        }
        assert_eq!(seen.len(), self.density, "density counter out of sync");
        if let Some(&max) = seen.iter().max() {
            assert!(
                max <= self.hi,
                "stored index {max} past the tail bound {}",
                self.hi
            );
        }
        assert_eq!(
            block_cells + self.blocks.free_cells,
            self.blocks.data.len(),
            "block arena cells leaked or double-booked"
        );
    }

    /// Returns the value stored at index `i` ([`INF`] if empty).
    pub fn get(&self, i: usize) -> Pos {
        if i >= self.len {
            return INF;
        }
        let target = i as Pos;
        let mut nd = self.root;
        while nd != NIL {
            let n = &self.nodes[nd as usize];
            if !n.contains(target) {
                return INF;
            }
            if n.is_block() {
                return self.blocks.data[(n.block + (target - n.start)) as usize];
            }
            if n.pos == target {
                return n.min;
            }
            nd = n.children[n.slot_of(target)];
        }
        INF
    }

    /// All non-empty `(index, value)` entries, in no particular order.
    /// Intended for tests and diagnostics.
    pub fn entries(&self) -> Vec<(usize, Pos)> {
        let mut out = Vec::with_capacity(self.density);
        let mut stack = vec![self.root];
        while let Some(nd) = stack.pop() {
            if nd == NIL {
                continue;
            }
            let n = &self.nodes[nd as usize];
            if n.is_block() {
                for (off, &v) in self.blocks.cells(n.block, n.block_len()).iter().enumerate() {
                    if v != INF {
                        out.push((n.start as usize + off, v));
                    }
                }
                continue;
            }
            out.push((n.pos as usize, n.min));
            stack.push(n.children[0]);
            stack.push(n.children[1]);
        }
        out
    }

    // ----- arena plumbing -------------------------------------------------

    fn alloc(&mut self, node: Node) -> u32 {
        self.live_nodes += 1;
        self.peak_nodes = self.peak_nodes.max(self.live_nodes);
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        self.live_nodes -= 1;
        let n = &mut self.nodes[idx as usize];
        if n.block != NIL {
            let (off, len) = (n.block, n.block_len());
            n.block = NIL;
            self.blocks.release(off, len);
        }
        self.free.push(idx);
        if self.live_nodes == 0 {
            // An emptied tree returns the whole block arena to the
            // allocator (the node arena keeps its slots for reuse).
            self.blocks.reset();
        }
    }

    fn new_leaf(&mut self, pos: Pos, v: Pos) -> u32 {
        self.alloc(Node {
            start: pos,
            end: pos,
            pos,
            min: v,
            children: [NIL; 2],
            block: NIL,
        })
    }

    /// Repoints the link through which `nd` was reached: child `slot`
    /// of `parent`, or the root when `parent` is `NIL`.
    #[inline]
    fn relink(&mut self, parent: u32, slot: usize, child: u32) {
        if parent == NIL {
            self.root = child;
        } else {
            self.nodes[parent as usize].children[slot] = child;
        }
    }

    // ----- dyadic range arithmetic ----------------------------------------

    /// Smallest canonical (power-of-two aligned) range containing both
    /// the canonical range `[s, e]` and the index `pos`.
    #[inline]
    fn dyadic_lca(s: Pos, e: Pos, pos: Pos) -> (Pos, Pos) {
        let mut size = e - s + 1;
        let mut ns = s;
        while !(ns <= pos && pos <= ns + (size - 1)) {
            size <<= 1;
            ns &= !(size - 1);
        }
        (ns, ns + size - 1)
    }

    // ----- insertion (Algorithm 1: update / updateHelper / createLCA) -----

    /// Inserts `(pos, v)` into the subtree rooted at `nd`, which must
    /// contain `pos` in its range; maintains the heap invariant by
    /// swapping entries downward. A single iterative descent.
    fn insert(&mut self, nd: u32, mut pos: Pos, mut v: Pos) {
        let mut cur = nd;
        loop {
            debug_assert!(self.nodes[cur as usize].contains(pos));
            if self.nodes[cur as usize].is_block() {
                self.block_write(cur, pos, v);
                return;
            }
            let (slot, child) = {
                let n = &mut self.nodes[cur as usize];
                debug_assert!(
                    n.pos != pos,
                    "insert precondition: entry at pos was erased first"
                );
                if better(v, pos, n.min, n.pos) {
                    std::mem::swap(&mut n.min, &mut v);
                    std::mem::swap(&mut n.pos, &mut pos);
                }
                let slot = n.slot_of(pos);
                (slot, n.children[slot])
            };
            if child == NIL {
                let leaf = self.new_leaf(pos, v);
                self.relink(cur, slot, leaf);
                return;
            }
            if self.nodes[child as usize].contains(pos) {
                cur = child;
                continue;
            }
            let joined = self.join_lca(child, pos, v);
            self.relink(cur, slot, joined);
            return;
        }
    }

    /// `createLowestCommonAncestor` of Algorithm 1: `pos` lies outside
    /// the canonical range of `child`; build the node whose range is the
    /// dyadic LCA of the two. When that range is at most the block-size
    /// threshold the subtree is flattened into a block node instead.
    fn join_lca(&mut self, child: u32, pos: Pos, v: Pos) -> u32 {
        let (cs, ce) = {
            let c = &self.nodes[child as usize];
            (c.start, c.end)
        };
        let (ns, ne) = Self::dyadic_lca(cs, ce, pos);
        if ne - ns < self.block_size {
            let extent = self.blocks.alloc(ne - ns + 1);
            let block_idx = self.alloc(Node {
                start: ns,
                end: ne,
                pos: INF,
                min: INF,
                children: [NIL; 2],
                block: extent,
            });
            self.flatten_into(child, block_idx);
            self.block_write(block_idx, pos, v);
            return block_idx;
        }
        let mid = ns + (ne - ns) / 2;
        let child_slot = usize::from(cs > mid);
        let (cv, cp) = {
            let c = &self.nodes[child as usize];
            (c.min, c.pos)
        };
        if better(v, pos, cv, cp) {
            // New entry claims the LCA node; the existing subtree hangs
            // below unchanged.
            let mut children = [NIL; 2];
            children[child_slot] = child;
            self.alloc(Node {
                start: ns,
                end: ne,
                pos,
                min: v,
                children,
                block: NIL,
            })
        } else {
            // The existing subtree's top entry moves up to the LCA node
            // (preserving the heap invariant); the new entry becomes a
            // fresh leaf on the opposite side.
            let new_child = self.remove_top(child);
            let leaf = self.new_leaf(pos, v);
            let mut children = [NIL; 2];
            children[child_slot] = new_child;
            children[1 - child_slot] = leaf;
            self.alloc(Node {
                start: ns,
                end: ne,
                pos: cp,
                min: cv,
                children,
                block: NIL,
            })
        }
    }

    /// Walks `sub` with an explicit stack, moving every entry into the
    /// block node `block_idx` and releasing `sub`'s nodes (block
    /// extents included). The block cache is refreshed by the
    /// subsequent [`Self::block_write`].
    fn flatten_into(&mut self, sub: u32, block_idx: u32) {
        let mut stack = vec![sub];
        while let Some(nd) = stack.pop() {
            if nd == NIL {
                continue;
            }
            let n = &self.nodes[nd as usize];
            let kids = n.children;
            if n.is_block() {
                let (src, len, sub_start) = (n.block, n.block_len(), n.start);
                for off in 0..len {
                    let v = self.blocks.data[(src + off) as usize];
                    if v != INF {
                        self.block_set_raw(block_idx, sub_start + off, v);
                    }
                }
            } else {
                let (p, v) = (n.pos, n.min);
                self.block_set_raw(block_idx, p, v);
            }
            stack.push(kids[0]);
            stack.push(kids[1]);
            self.release(nd);
        }
    }

    /// Raw cell write into a block, updating the cache opportunistically.
    #[inline]
    fn block_set_raw(&mut self, block_idx: u32, pos: Pos, v: Pos) {
        let n = &self.nodes[block_idx as usize];
        let cell = (n.block + (pos - n.start)) as usize;
        self.blocks.data[cell] = v;
        let n = &mut self.nodes[block_idx as usize];
        if better(v, pos, n.min, n.pos) {
            n.min = v;
            n.pos = pos;
        }
    }

    /// Writes a (fresh) entry into a block node and keeps the cache
    /// exact. The cell must be empty (public `update` erases first).
    fn block_write(&mut self, block_idx: u32, pos: Pos, v: Pos) {
        debug_assert_eq!(
            {
                let n = &self.nodes[block_idx as usize];
                self.blocks.data[(n.block + (pos - n.start)) as usize]
            },
            INF,
            "block cell must be empty on insert"
        );
        self.block_set_raw(block_idx, pos, v);
    }

    /// Rescans a block to restore the exact `(min, pos)` cache.
    fn block_recache(&mut self, block_idx: u32) {
        let n = &self.nodes[block_idx as usize];
        let start = n.start;
        let mut best_v = INF;
        let mut best_p = INF;
        for (off, &v) in self.blocks.cells(n.block, n.block_len()).iter().enumerate() {
            if v == INF {
                continue;
            }
            let p = start + off as Pos;
            if best_v == INF || better(v, p, best_v, best_p) {
                best_v = v;
                best_p = p;
            }
        }
        let n = &mut self.nodes[block_idx as usize];
        n.min = best_v;
        n.pos = best_p;
    }

    // ----- removal ---------------------------------------------------------

    /// Removes the top entry of the subtree rooted at `nd`, promoting
    /// entries upward along the cheaper child in one iterative walk;
    /// returns the new subtree root (`NIL` if the subtree became
    /// empty).
    fn remove_top(&mut self, nd: u32) -> u32 {
        if self.nodes[nd as usize].is_block() {
            return self.block_remove_top(nd);
        }
        let mut kids = self.nodes[nd as usize].children;
        if kids == [NIL; 2] {
            self.release(nd);
            return NIL;
        }
        let mut cur = nd;
        loop {
            let pick_slot = match kids {
                [l, NIL] => {
                    debug_assert_ne!(l, NIL);
                    0
                }
                [NIL, _] => 1,
                [l, r] => {
                    let ln = &self.nodes[l as usize];
                    let rn = &self.nodes[r as usize];
                    usize::from(!better(ln.min, ln.pos, rn.min, rn.pos))
                }
            };
            let pick = kids[pick_slot];
            // Promote the child's entry into `cur`…
            let (pv, pp) = {
                let p = &self.nodes[pick as usize];
                (p.min, p.pos)
            };
            let n = &mut self.nodes[cur as usize];
            n.min = pv;
            n.pos = pp;
            // …then remove that entry from the child's subtree.
            if self.nodes[pick as usize].is_block() {
                let sub = self.block_remove_top(pick);
                self.relink(cur, pick_slot, sub);
                return nd;
            }
            let pk = self.nodes[pick as usize].children;
            if pk == [NIL; 2] {
                self.release(pick);
                self.relink(cur, pick_slot, NIL);
                return nd;
            }
            cur = pick;
            kids = pk;
        }
    }

    /// Removes a block node's cached best entry, recaching (and
    /// releasing the node when it empties). Returns the node or `NIL`.
    fn block_remove_top(&mut self, nd: u32) -> u32 {
        let n = &self.nodes[nd as usize];
        debug_assert_ne!(n.pos, INF, "remove_top on empty block");
        let cell = (n.block + (n.pos - n.start)) as usize;
        self.blocks.data[cell] = INF;
        self.block_recache(nd);
        if self.nodes[nd as usize].min == INF {
            self.release(nd);
            return NIL;
        }
        nd
    }

    /// Removes the entry at index `i` if present, descending
    /// iteratively; returns whether an entry was removed.
    fn erase(&mut self, i: Pos) -> bool {
        let mut parent = NIL;
        let mut slot = 0usize;
        let mut nd = self.root;
        loop {
            if nd == NIL {
                return false;
            }
            let n = &self.nodes[nd as usize];
            if !n.contains(i) {
                return false;
            }
            if n.is_block() {
                let cell = (n.block + (i - n.start)) as usize;
                if self.blocks.data[cell] == INF {
                    return false;
                }
                self.blocks.data[cell] = INF;
                if self.nodes[nd as usize].pos == i {
                    self.block_recache(nd);
                    if self.nodes[nd as usize].min == INF {
                        self.release(nd);
                        self.relink(parent, slot, NIL);
                    }
                }
                return true;
            }
            if n.pos == i {
                let sub = self.remove_top(nd);
                self.relink(parent, slot, sub);
                return true;
            }
            slot = n.slot_of(i);
            parent = nd;
            nd = n.children[slot];
        }
    }

    // ----- queries (Algorithm 1: min / argleq) ------------------------------

    /// Iterative suffix-minimum walk. At a node whose range intersects
    /// the suffix: stop early when the cached entry index is ≥ `i`
    /// (minima indexing); otherwise the right child lies entirely in
    /// the suffix — its cached minimum is its subtree's answer by the
    /// heap invariant — and only the left child needs descending.
    fn min_from(&self, i: Pos) -> Pos {
        let mut best = INF;
        let mut nd = self.root;
        while nd != NIL {
            let n = &self.nodes[nd as usize];
            if i > n.end {
                break;
            }
            if n.pos >= i && n.pos != INF {
                best = best.min(n.min);
                break;
            }
            if n.is_block() {
                let lo = i.max(n.start) - n.start;
                let cells = self.blocks.cells(n.block, n.block_len());
                best = best.min(cells[lo as usize..].iter().copied().min().unwrap_or(INF));
                break;
            }
            let slot = n.slot_of(i);
            if slot == 0 && n.children[1] != NIL {
                // The upper half lies entirely in the suffix: its
                // cached minimum is its subtree's answer by the heap
                // invariant.
                best = best.min(self.nodes[n.children[1] as usize].min);
            }
            nd = n.children[slot];
        }
        best
    }

    /// Iterative arg-leq walk, accumulating the best qualifying index.
    /// Every visited node's own entry qualifies (its value is the
    /// subtree minimum, checked ≤ `v` before visiting), so the walk
    /// descends toward larger indices: into the right child whenever it
    /// can still qualify, into the left otherwise.
    fn argleq_from(&self, v: Pos) -> Option<Pos> {
        let mut best: Option<Pos> = None;
        let mut nd = self.root;
        while nd != NIL {
            let n = &self.nodes[nd as usize];
            if n.min > v {
                // Heap invariant: every entry below is ≥ n.min > v.
                break;
            }
            if n.is_block() {
                let cells = self.blocks.cells(n.block, n.block_len());
                for off in (0..cells.len()).rev() {
                    if cells[off] <= v {
                        let p = n.start + off as Pos;
                        best = Some(best.map_or(p, |b| b.max(p)));
                        break;
                    }
                }
                break;
            }
            best = Some(best.map_or(n.pos, |b| b.max(n.pos)));
            let ends = n.children.map(|c| {
                if c == NIL {
                    None
                } else {
                    Some(self.nodes[c as usize].end)
                }
            });
            // Line 29: no child range extends past our own entry's
            // index, so nothing below can improve the answer.
            if ends.iter().all(|end| end.is_none_or(|e| n.pos >= e)) {
                break;
            }
            let right = n.children[1];
            nd = if right != NIL && self.nodes[right as usize].min <= v {
                right
            } else {
                n.children[0]
            };
        }
        best
    }
}

impl SuffixMinima for SparseSegmentTree {
    fn with_len(len: usize) -> Self {
        Self::with_block_size(len, DEFAULT_BLOCK_SIZE)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn ensure_len(&mut self, len: usize) {
        // Sparsity makes growth free: only the logical bound moves, no
        // node is touched and no memory is allocated.
        assert!(len <= 1 << 31, "SST supports arrays up to 2^31 entries");
        self.len = self.len.max(len);
    }

    fn update(&mut self, i: usize, v: Pos) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let pos = i as Pos;
        if self.erase(pos) {
            self.density -= 1;
            if self.density == 0 {
                self.hi = 0;
            }
        }
        if v == INF {
            return;
        }
        self.density += 1;
        self.peak_density = self.peak_density.max(self.density);
        self.hi = self.hi.max(pos);
        if self.root == NIL {
            self.root = self.new_leaf(pos, v);
        } else if self.nodes[self.root as usize].contains(pos) {
            self.insert(self.root, pos, v);
        } else {
            self.root = self.join_lca(self.root, pos, v);
        }
    }

    #[inline]
    fn suffix_min(&self, i: usize) -> Pos {
        // The tail bound: nothing is stored past `hi` (nor at or past
        // `len`, which `hi` stays below), so the walk is skipped. An
        // empty tree has `hi = 0` and no root, so it never walks.
        if i > self.hi as usize {
            return INF;
        }
        self.min_from(i as Pos)
    }

    #[inline]
    fn argleq(&self, v: Pos) -> Option<usize> {
        // INF entries are "empty"; clamping below the sentinel keeps
        // them from qualifying (stored values are positions < INF).
        let v = v.min(INF - 1);
        self.argleq_from(v).map(|p| p as usize)
    }

    fn density(&self) -> usize {
        self.density
    }

    fn peak_density(&self) -> usize {
        self.peak_density
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.blocks.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix::NaiveSuffixArray;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_equiv(sst: &SparseSegmentTree, oracle: &NaiveSuffixArray) {
        let n = oracle.len();
        for i in 0..=n {
            assert_eq!(
                sst.suffix_min(i),
                oracle.suffix_min(i),
                "suffix_min({i}) mismatch"
            );
        }
        for v in [0, 1, 2, 3, 5, 10, 100, 1000, INF - 1, INF] {
            assert_eq!(sst.argleq(v), oracle.argleq(v), "argleq({v}) mismatch");
        }
        assert_eq!(sst.density(), oracle.density(), "density mismatch");
    }

    #[test]
    fn example_1_segment_tree_semantics() {
        let mut sst = SparseSegmentTree::with_len(4);
        for (i, v) in [6, 9, 8, 10].into_iter().enumerate() {
            sst.update(i, v);
        }
        assert_eq!(sst.suffix_min(0), 6);
        assert_eq!(sst.suffix_min(1), 8);
        assert_eq!(sst.suffix_min(2), 8);
        assert_eq!(sst.suffix_min(3), 10);
        assert_eq!(sst.argleq(7), Some(0));
        assert_eq!(sst.argleq(9), Some(2));
        assert_eq!(sst.argleq(11), Some(3));
        sst.update(3, 7);
        assert_eq!(sst.suffix_min(2), 7);
        assert_eq!(sst.argleq(7), Some(3));
    }

    #[test]
    fn example_4_sparse_node_counts() {
        // Use a block size of 1 so no block node forms and we can
        // observe the sparse tree shape of Figure 6.
        let mut sst = SparseSegmentTree::with_block_size(8, 1);
        sst.update(2, 65);
        assert_eq!(sst.node_count(), 1, "single-entry tree has one node");
        sst.update(3, 42);
        assert_eq!(sst.node_count(), 2);
        assert_eq!(sst.get(2), 65);
        assert_eq!(sst.get(3), 42);
        sst.update(0, 59);
        assert_eq!(sst.node_count(), 3);
        sst.update(7, 13);
        assert_eq!(sst.node_count(), 4);
        assert_eq!(sst.suffix_min(0), 13);
        assert_eq!(sst.suffix_min(1), 13);
        assert_eq!(sst.suffix_min(4), 13);
        assert_eq!(sst.argleq(50), Some(7));
        assert_eq!(sst.argleq(12), None);
    }

    #[test]
    fn example_5_blocks_flatten_dense_regions() {
        // Figure 7: one lone entry plus a dense far-away cluster.
        let mut sst = SparseSegmentTree::with_block_size(64, 8);
        sst.update(1, 50);
        for (i, v) in [
            (32, 11),
            (33, 10),
            (34, 15),
            (36, 13),
            (37, 22),
            (38, 24),
            (39, 29),
        ] {
            sst.update(i, v);
        }
        // The dense cluster shares one block node, so the node count
        // stays far below the number of entries.
        assert!(
            sst.node_count() <= 4,
            "dense cluster should flatten into a block: {} nodes",
            sst.node_count()
        );
        assert_eq!(sst.suffix_min(0), 10);
        assert_eq!(sst.suffix_min(34), 13);
        assert_eq!(sst.suffix_min(38), 24);
        assert_eq!(sst.argleq(10), Some(33));
        assert_eq!(sst.argleq(30), Some(39));
    }

    #[test]
    fn get_and_entries() {
        let mut sst = SparseSegmentTree::with_len(16);
        sst.update(3, 7);
        sst.update(12, 4);
        sst.update(5, 9);
        assert_eq!(sst.get(3), 7);
        assert_eq!(sst.get(12), 4);
        assert_eq!(sst.get(5), 9);
        assert_eq!(sst.get(0), INF);
        assert_eq!(sst.get(100), INF);
        let mut e = sst.entries();
        e.sort_unstable();
        assert_eq!(e, vec![(3, 7), (5, 9), (12, 4)]);
    }

    #[test]
    fn overwrite_and_erase() {
        let mut sst = SparseSegmentTree::with_len(8);
        sst.update(4, 10);
        sst.update(4, 3);
        assert_eq!(sst.get(4), 3);
        assert_eq!(sst.density(), 1);
        sst.update(4, INF);
        assert_eq!(sst.get(4), INF);
        assert_eq!(sst.density(), 0);
        assert_eq!(sst.node_count(), 0);
        assert_eq!(sst.suffix_min(0), INF);
        assert_eq!(sst.argleq(INF), None);
    }

    #[test]
    fn erase_root_promotes_children() {
        let mut sst = SparseSegmentTree::with_block_size(8, 1);
        sst.update(0, 1); // smallest value: sits at the (current) root
        sst.update(5, 2);
        sst.update(7, 3);
        sst.update(0, INF);
        assert_eq!(sst.suffix_min(0), 2);
        assert_eq!(sst.density(), 2);
        assert_eq!(sst.argleq(3), Some(7));
        sst.update(5, INF);
        assert_eq!(sst.suffix_min(0), 3);
        sst.update(7, INF);
        assert_eq!(sst.suffix_min(0), INF);
        assert_eq!(sst.node_count(), 0);
    }

    #[test]
    fn duplicate_values_prefer_largest_index() {
        let mut sst = SparseSegmentTree::with_len(16);
        sst.update(2, 5);
        sst.update(9, 5);
        sst.update(14, 5);
        assert_eq!(sst.argleq(5), Some(14));
        assert_eq!(sst.suffix_min(10), 5);
        sst.update(14, INF);
        assert_eq!(sst.argleq(5), Some(9));
    }

    #[test]
    fn len_one_and_zero() {
        let sst = SparseSegmentTree::with_len(0);
        assert_eq!(sst.suffix_min(0), INF);
        assert_eq!(sst.argleq(0), None);

        let mut sst = SparseSegmentTree::with_len(1);
        sst.update(0, 42);
        assert_eq!(sst.suffix_min(0), 42);
        assert_eq!(sst.argleq(42), Some(0));
        assert_eq!(sst.argleq(41), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn update_out_of_bounds_panics() {
        let mut sst = SparseSegmentTree::with_len(4);
        sst.update(4, 0);
    }

    #[test]
    fn height_respects_lemma_1() {
        // d entries far apart: height must stay ≤ min(log n, d) + O(1).
        let n = 1 << 16;
        let mut sst = SparseSegmentTree::with_block_size(n, 1);
        let mut rng = SmallRng::seed_from_u64(7);
        for d in 1..=14usize {
            let i = rng.gen_range(0..n);
            sst.update(i, rng.gen_range(0..1000));
            let height = sst.height();
            let log_n = (usize::BITS - (n - 1).leading_zeros()) as usize;
            assert!(
                height <= d.min(log_n) + 1,
                "height {height} exceeds bound at density {}",
                sst.density()
            );
        }
    }

    #[test]
    fn node_count_matches_density_without_blocks() {
        let mut sst = SparseSegmentTree::with_block_size(1 << 12, 1);
        let mut oracle = NaiveSuffixArray::with_len(1 << 12);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..2000 {
            let i = rng.gen_range(0..1 << 12);
            let v = if rng.gen_bool(0.3) {
                INF
            } else {
                rng.gen_range(0..500)
            };
            sst.update(i, v);
            oracle.update(i, v);
            assert_eq!(sst.node_count(), oracle.density());
        }
        assert_equiv(&sst, &oracle);
    }

    #[test]
    fn randomized_against_oracle_various_block_sizes() {
        for &bs in &[1u32, 2, 4, 8, 32, 256] {
            for n in [1usize, 2, 7, 64, 100, 257] {
                let mut sst = SparseSegmentTree::with_block_size(n, bs);
                let mut oracle = NaiveSuffixArray::with_len(n);
                let mut rng = SmallRng::seed_from_u64(n as u64 * 31 + bs as u64);
                for step in 0..600 {
                    let i = rng.gen_range(0..n);
                    let v = if rng.gen_bool(0.25) {
                        INF
                    } else {
                        rng.gen_range(0..50)
                    };
                    sst.update(i, v);
                    oracle.update(i, v);
                    if step % 7 == 0 {
                        assert_equiv(&sst, &oracle);
                    }
                }
                assert_equiv(&sst, &oracle);
                // Tail-bound inputs: erase the max (the bound goes
                // stale), drain to empty (it resets), refill (it
                // rises again). Past the live max there is nothing.
                let max_of =
                    |oracle: &NaiveSuffixArray| (0..n).rfind(|&i| oracle.suffix_min(i) != INF);
                let check_tail = |sst: &SparseSegmentTree, oracle: &NaiveSuffixArray| {
                    sst.assert_invariants();
                    assert_equiv(sst, oracle);
                    assert_eq!(sst.suffix_min(max_of(oracle).map_or(0, |m| m + 1)), INF);
                };
                while let Some(max) = max_of(&oracle) {
                    sst.update(max, INF);
                    oracle.update(max, INF);
                    check_tail(&sst, &oracle);
                }
                for i in (0..n).step_by(3) {
                    let v = rng.gen_range(0..50);
                    sst.update(i, v);
                    oracle.update(i, v);
                    check_tail(&sst, &oracle);
                }
            }
        }
    }

    #[test]
    fn ensure_len_is_free_and_preserves_entries() {
        let mut sst = SparseSegmentTree::with_len(4);
        sst.update(3, 9);
        let before = sst.memory_bytes();
        sst.ensure_len(1 << 20);
        assert_eq!(sst.len(), 1 << 20);
        assert_eq!(
            sst.memory_bytes(),
            before,
            "sparse growth allocates nothing"
        );
        assert_eq!(sst.suffix_min(0), 9);
        assert_eq!(sst.suffix_min(4), INF);
        sst.update(500_000, 2);
        assert_eq!(sst.suffix_min(4), 2);
        assert_eq!(sst.argleq(2), Some(500_000));
    }

    #[test]
    fn memory_shrinks_with_sparsity() {
        let n = 1 << 20;
        let mut sparse = SparseSegmentTree::with_len(n);
        for i in 0..8 {
            sparse.update(i * 1000, i as Pos);
        }
        // A dense segment tree over 2^20 entries costs ~8 MiB; the SST
        // should be orders of magnitude below that.
        assert!(sparse.memory_bytes() < 64 * 1024);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = SparseSegmentTree::with_len(32);
        a.update(5, 1);
        let mut b = a.clone();
        b.update(5, INF);
        assert_eq!(a.get(5), 1);
        assert_eq!(b.get(5), INF);
    }

    #[test]
    fn block_arena_recycles_extents() {
        let mut sst = SparseSegmentTree::with_block_size(1 << 12, 32);
        // Two dense clusters form two block nodes sharing the arena.
        for i in 0..16usize {
            sst.update(i, 100 + i as Pos);
            sst.update(512 + i, 200 + i as Pos);
        }
        sst.assert_invariants();
        let populated = sst.memory_bytes();
        // Erase one whole cluster: its extent is released (and the
        // arena bookkeeping stays exact).
        for i in 0..16usize {
            sst.update(512 + i, INF);
        }
        sst.assert_invariants();
        // Rebuild it: the recycled extent must be clean.
        for i in 0..16usize {
            sst.update(512 + i, 300 + i as Pos);
        }
        sst.assert_invariants();
        assert_eq!(sst.suffix_min(512), 300);
        assert!(
            sst.memory_bytes() <= populated,
            "recycled extent must not grow the arena"
        );
    }

    #[test]
    fn emptied_tree_releases_the_block_arena() {
        let mut sst = SparseSegmentTree::with_block_size(1 << 10, 32);
        for i in 0..64usize {
            sst.update(i, i as Pos + 1);
        }
        assert!(sst.memory_bytes() > std::mem::size_of::<SparseSegmentTree>());
        for i in 0..64usize {
            sst.update(i, INF);
        }
        assert_eq!(sst.node_count(), 0);
        assert_eq!(
            sst.blocks.data.capacity(),
            0,
            "emptied tree returns the block arena allocation"
        );
        sst.assert_invariants();
    }
}
