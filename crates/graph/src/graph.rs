//! A simple undirected graph over a fixed vertex set `0..n`.

use crate::{GraphError, NodeId};

/// An undirected edge, stored in canonical (sorted) order.
///
/// Two `Edge` values compare equal iff they connect the same pair of nodes,
/// regardless of the order in which the endpoints were supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// The smaller endpoint.
    pub a: NodeId,
    /// The larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a canonical edge between `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; the model only allows simple graphs.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed in the model");
        if u < v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// Returns the endpoint opposite `node`, or `None` if `node` is not an
    /// endpoint of this edge.
    pub fn other(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Returns true if `node` is an endpoint of this edge.
    pub fn touches(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }
}

/// Smallest capacity a freshly allocated block receives.
const MIN_BLOCK_CAP: usize = 4;

/// Compaction trigger: at least this many dead slots *and* at least a
/// quarter of the arena dead. The floor keeps tiny graphs from compacting
/// on every relocation; the ratio bounds dead space at a third of live
/// capacity. (A relocated block that doubled up to capacity `C` abandons
/// only `C - MIN_BLOCK_CAP` slots along the way — always less than the
/// live capacity it leaves behind — so a half-arena threshold would never
/// fire under organic growth.)
const COMPACT_MIN_DEAD: usize = 64;

/// Value written into never-read slack slots (`len..cap` of a block) so a
/// stray read shows up as an obviously-broken node id instead of a
/// plausible one.
const PAD: NodeId = NodeId(usize::MAX);

/// A simple undirected graph on the fixed vertex set `{0, …, n-1}`.
///
/// This is the snapshot `D(i) = (V, E(i))` of the paper's temporal graph:
/// the vertex set never changes (except under simulated churn), only the
/// edge set does.
///
/// Adjacency is a CSR-style arena in struct-of-arrays form: three dense
/// per-node columns (`start`, `len`, `cap`) describe one *block* per node
/// inside a single shared `arena` of neighbour ids. A node's neighbours
/// are the sorted, duplicate-free slice `arena[start..start + len]`, so
/// iteration order is identical to the previous per-node `Vec<NodeId>`
/// (and original `BTreeSet`) representations — ascending — and every
/// deterministic execution is preserved. Mutations work in place while a
/// block has slack (`len < cap`); a block that overflows is relocated to
/// the arena tail with doubled capacity, abandoning its old slots, and a
/// `dead`-slot counter triggers a periodic compaction that rewrites the
/// blocks tightly in node order. The trigger depends only on the operation
/// sequence, so layout management is deterministic; layout itself is never
/// observable (equality, iteration and lookups all go through the block
/// slices).
pub struct Graph {
    n: usize,
    /// Per-node block offset into `arena`.
    start: Vec<usize>,
    /// Per-node live neighbour count.
    len: Vec<usize>,
    /// Per-node block capacity (slots reserved at `start`).
    cap: Vec<usize>,
    /// Shared neighbour storage; every slot belongs to exactly one block's
    /// capacity or is counted in `dead`.
    arena: Vec<NodeId>,
    /// Slots abandoned by block relocations, reclaimed at compaction.
    dead: usize,
    edge_count: usize,
    /// Grouping scratch of the batch edits, allocated on the first batch
    /// and boxed, so a graph that never batches pays one pointer for it.
    /// Not part of the graph's value: equality and `Debug` ignore it and
    /// a clone starts without one.
    batch: Option<Box<BatchScratch>>,
}

/// Hand-written so a clone starts without the batch scratch.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            n: self.n,
            start: self.start.clone(),
            len: self.len.clone(),
            cap: self.cap.clone(),
            arena: self.arena.clone(),
            dead: self.dead,
            edge_count: self.edge_count,
            batch: None,
        }
    }
}

/// Hand-written so the batch scratch stays out of the output, which is
/// otherwise exactly the derived form.
impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("start", &self.start)
            .field("len", &self.len)
            .field("cap", &self.cap)
            .field("arena", &self.arena)
            .field("dead", &self.dead)
            .field("edge_count", &self.edge_count)
            .finish()
    }
}

/// The scratch that groups a batch's directed entries by endpoint in
/// linear time (see [`BatchScratch::group`]). Between batches `count` and
/// both bitmap levels are all zero; the other columns hold stale values
/// that are only read after `group` rewrites them.
#[derive(Default)]
struct BatchScratch {
    /// Per-node entry count of the batch being grouped.
    count: Vec<u32>,
    /// Per-node end offset of the node's bucket in `grouped`.
    end: Vec<u32>,
    /// Touched-node bitmap, one bit per node.
    words: Vec<u64>,
    /// One bit per word of `words`, set when the word is nonzero.
    summary: Vec<u64>,
    /// The touched nodes, ascending.
    touched: Vec<NodeId>,
    /// Every endpoint's batch neighbours, bucketed by endpoint in input
    /// order.
    by_input: Vec<NodeId>,
    /// The same buckets, each in ascending neighbour order.
    grouped: Vec<NodeId>,
}

impl BatchScratch {
    /// Groups the directed entries `(a, b)` and `(b, a)` of every edge by
    /// their first node, in two stable counting scatters that share one
    /// count: the first buckets each endpoint's batch neighbours in input
    /// order, the second walks those buckets in ascending endpoint order
    /// and scatters again, which leaves every bucket ascending. Touched
    /// nodes are read off a two-level bitmap (one summary bit per 64-bit
    /// word), so the cost is O(batch + n/4096), with no n/64-word scan.
    ///
    /// Afterwards the bucket of `x = touched[i]` is `grouped[lo..end[x]]`,
    /// where `lo` is the previous touched node's `end` (0 for the first),
    /// and `count` is all zero again.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    fn group(&mut self, n: usize, edges: &[Edge]) {
        assert!(
            2 * edges.len() <= u32::MAX as usize,
            "batch of {} edges exceeds the grouping offsets",
            edges.len()
        );
        if self.count.len() < n {
            self.count.resize(n, 0);
            self.end.resize(n, 0);
            self.words.resize(n.div_ceil(64), 0);
            self.summary.resize(n.div_ceil(64 * 64), 0);
        }
        for e in edges {
            assert!(
                e.a.index() < n && e.b.index() < n,
                "edge {{{}, {}}} out of range (n = {n})",
                e.a,
                e.b
            );
            for x in [e.a.index(), e.b.index()] {
                self.count[x] += 1;
                self.words[x / 64] |= 1 << (x % 64);
                self.summary[x / 4096] |= 1 << (x / 64 % 64);
            }
        }
        // Prefix offsets in ascending node order, clearing both bitmap
        // levels on the way. `end[x]` starts as the bucket's first slot
        // and is the write cursor of the first scatter.
        self.touched.clear();
        let mut offset = 0u32;
        for (si, summary) in self.summary.iter_mut().enumerate() {
            let mut s = std::mem::take(summary);
            while s != 0 {
                let wi = si * 64 + s.trailing_zeros() as usize;
                s &= s - 1;
                let mut w = std::mem::take(&mut self.words[wi]);
                while w != 0 {
                    let x = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    self.touched.push(NodeId(x));
                    self.end[x] = offset;
                    offset += self.count[x];
                }
            }
        }
        let total = offset as usize;
        self.by_input.clear();
        self.by_input.resize(total, PAD);
        for e in edges {
            for (x, y) in [(e.a, e.b), (e.b, e.a)] {
                let slot = &mut self.end[x.index()];
                self.by_input[*slot as usize] = y;
                *slot += 1;
            }
        }
        // `end` now holds bucket ends. Walking the endpoints `x` in
        // ascending order and filling bucket `y` front to back (its next
        // slot is `end[y] - count[y]`) writes every bucket ascending.
        self.grouped.clear();
        self.grouped.resize(total, PAD);
        let mut lo = 0usize;
        for &x in &self.touched {
            let hi = self.end[x.index()] as usize;
            for &y in &self.by_input[lo..hi] {
                let left = &mut self.count[y.index()];
                self.grouped[(self.end[y.index()] - *left) as usize] = x;
                *left -= 1;
            }
            lo = hi;
        }
    }
}

/// Structural equality: same vertex set, same edge set. Arena layout
/// (block placement, slack, dead space) is an implementation detail two
/// equal graphs may disagree on.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.n == other.n
            && self.edge_count == other.edge_count
            && (0..self.n).all(|u| self.block(u) == other.block(u))
    }
}

impl Eq for Graph {}

/// Doubles `cap` (from the minimum block size) until it holds `need`.
fn grow_cap(cap: usize, need: usize) -> usize {
    let mut c = cap.max(MIN_BLOCK_CAP);
    while c < need {
        c *= 2;
    }
    c
}

/// Shifts `slots` one place right: `first` lands in `slots[0]` and the
/// last entry falls off. The values travel in a register, one load and
/// one store per slot, so the compiler emits no `memmove` call, which
/// costs more than the move for the few entries of a short block; a long
/// block moves faster through `copy_within`.
#[inline]
fn shift_right(slots: &mut [NodeId], first: NodeId) {
    let mut carry = first;
    for slot in slots {
        carry = std::mem::replace(slot, carry);
    }
}

/// Shifts `slots` one place left: `last` lands in the last slot and the
/// first entry falls off, as [`shift_right`] does it.
#[inline]
fn shift_left(slots: &mut [NodeId], last: NodeId) {
    let mut carry = last;
    for slot in slots.iter_mut().rev() {
        carry = std::mem::replace(slot, carry);
    }
}

impl Graph {
    /// Creates an empty graph (no edges) on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            start: vec![0; n],
            len: vec![0; n],
            cap: vec![0; n],
            arena: Vec::new(),
            dead: 0,
            edge_count: 0,
            batch: None,
        }
    }

    /// Creates a graph on `n` nodes from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or a self-loop is
    /// requested. Duplicate edges are silently collapsed (the model forbids
    /// multi-edges).
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Appends a fresh, isolated node to the vertex set and returns its id.
    ///
    /// The base model keeps the vertex set fixed; this exists for the
    /// *churn* faults of the deterministic simulation-testing layer
    /// (`adn_sim::dst`), where an adversary may let nodes join the network
    /// between rounds. The new node's block is zero-capacity: its first
    /// edge allocates at the arena tail.
    pub fn add_node(&mut self) -> NodeId {
        self.start.push(0);
        self.len.push(0);
        self.cap.push(0);
        self.n += 1;
        NodeId(self.n - 1)
    }

    /// Number of edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns true if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count == 0
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u.index() >= self.n {
            Err(GraphError::NodeOutOfRange { node: u, n: self.n })
        } else {
            Ok(())
        }
    }

    /// The live neighbour slice of node `u` (by raw index).
    #[inline]
    fn block(&self, u: usize) -> &[NodeId] {
        &self.arena[self.start[u]..self.start[u] + self.len[u]]
    }

    /// Inserts `v` at `pos` of `u`'s sorted block, relocating on overflow.
    fn insert_at(&mut self, u: usize, pos: usize, v: NodeId) {
        let l = self.len[u];
        if l < self.cap[u] {
            let s = self.start[u];
            self.arena.copy_within(s + pos..s + l, s + pos + 1);
            self.arena[s + pos] = v;
            self.len[u] = l + 1;
        } else {
            self.relocate_insert(u, pos, v);
        }
    }

    /// [`Graph::insert_at`] for the short blocks of a pointer jump: the
    /// tail shifts in a register carry chain (see [`shift_right`]).
    fn insert_short(&mut self, u: usize, pos: usize, v: NodeId) {
        let l = self.len[u];
        if l < self.cap[u] {
            let s = self.start[u];
            shift_right(&mut self.arena[s + pos..=s + l], v);
            self.len[u] = l + 1;
        } else {
            self.relocate_insert(u, pos, v);
        }
    }

    /// Moves `u`'s full block to the arena tail with grown capacity,
    /// folding the insertion of `v` at `pos` into the copy. The old slots
    /// become dead space.
    fn relocate_insert(&mut self, u: usize, pos: usize, v: NodeId) {
        let s = self.start[u];
        let l = self.len[u];
        let new_cap = grow_cap(self.cap[u], l + 1);
        let new_start = self.arena.len();
        self.arena.reserve(new_cap);
        self.arena.extend_from_within(s..s + pos);
        self.arena.push(v);
        self.arena.extend_from_within(s + pos..s + l);
        self.arena.resize(new_start + new_cap, PAD);
        self.dead += self.cap[u];
        self.start[u] = new_start;
        self.len[u] = l + 1;
        self.cap[u] = new_cap;
        self.maybe_compact();
    }

    /// Removes the element at `pos` of `u`'s block (capacity is retained
    /// as slack for future insertions; only relocations create dead
    /// space).
    fn remove_at(&mut self, u: usize, pos: usize) {
        let s = self.start[u];
        let l = self.len[u];
        self.arena.copy_within(s + pos + 1..s + l, s + pos);
        self.len[u] = l - 1;
    }

    /// [`Graph::remove_at`] for the short blocks of a pointer jump, in a
    /// register carry chain (see [`shift_left`]).
    fn remove_short(&mut self, u: usize, pos: usize) {
        let s = self.start[u];
        let l = self.len[u];
        shift_left(&mut self.arena[s + pos..s + l], PAD);
        self.len[u] = l - 1;
    }

    /// Merges the entries of `add` (sorted ascending; any repeated entry
    /// already in the block) that `u`'s sorted block lacks, and overwrites
    /// the others in `add` with `PAD`. One backward in-place pass while the
    /// block has room for all of `add`, otherwise a merge into the arena
    /// tail, which becomes the block's new home only if the entries the
    /// block lacked overflow it.
    fn merge_block_additions(&mut self, u: usize, add: &mut [NodeId]) {
        let s = self.start[u];
        let l = self.len[u];
        let need = l + add.len();
        if need <= self.cap[u] {
            let block = &mut self.arena[s..s + need];
            let (mut i, mut j, mut w) = (l, add.len(), need);
            while j > 0 {
                let v = add[j - 1];
                if i > 0 && block[i - 1] >= v {
                    if block[i - 1] == v {
                        add[j - 1] = PAD;
                        j -= 1;
                        continue;
                    }
                    block[w - 1] = block[i - 1];
                    i -= 1;
                } else {
                    block[w - 1] = v;
                    j -= 1;
                }
                w -= 1;
            }
            // Entries already present leave `w - i` free slots between
            // the untouched prefix and the merged tail.
            if w > i {
                block.copy_within(w..need, i);
            }
            self.len[u] = need - (w - i);
        } else {
            let new_start = self.arena.len();
            self.arena.reserve(grow_cap(self.cap[u], need));
            let (mut i, mut j) = (0usize, 0usize);
            while i < l && j < add.len() {
                let x = self.arena[s + i];
                if x < add[j] {
                    self.arena.push(x);
                    i += 1;
                } else {
                    if x == add[j] {
                        add[j] = PAD;
                    } else {
                        self.arena.push(add[j]);
                    }
                    j += 1;
                }
            }
            self.arena.extend_from_within(s + i..s + l);
            self.arena.extend_from_slice(&add[j..]);
            let merged = self.arena.len() - new_start;
            if merged <= self.cap[u] {
                // The entries already present leave room after all: the
                // merged run goes back into the block, which stays put.
                self.arena.copy_within(new_start.., s);
                self.arena.truncate(new_start);
                self.len[u] = merged;
                return;
            }
            let new_cap = grow_cap(self.cap[u], merged);
            self.arena.resize(new_start + new_cap, PAD);
            self.dead += self.cap[u];
            self.start[u] = new_start;
            self.len[u] = merged;
            self.cap[u] = new_cap;
            self.maybe_compact();
        }
    }

    /// Removes the entries of `del` (sorted ascending; any repeated entry
    /// absent from the block) that `u`'s sorted block holds, in one forward
    /// pass from the first of them, and overwrites the others in `del`
    /// with `PAD`.
    fn remove_block_elements(&mut self, u: usize, del: &mut [NodeId]) {
        let s = self.start[u];
        let l = self.len[u];
        let mut r = self.block(u).partition_point(|&v| v < del[0]);
        let (mut j, mut w) = (0usize, r);
        while r < l && j < del.len() {
            let v = self.arena[s + r];
            if del[j] < v {
                del[j] = PAD;
                j += 1;
                continue;
            }
            if del[j] == v {
                j += 1;
            } else {
                self.arena[s + w] = v;
                w += 1;
            }
            r += 1;
        }
        if w < r {
            self.arena.copy_within(s + r..s + l, s + w);
        }
        del[j..].fill(PAD);
        self.len[u] = w + (l - r);
    }

    /// Compacts the arena if relocations have abandoned enough slots.
    fn maybe_compact(&mut self) {
        if self.dead >= COMPACT_MIN_DEAD && self.dead * 4 >= self.arena.len() {
            self.compact();
        }
    }

    /// Rewrites every block tightly (capacity = length) in node order,
    /// reclaiming all dead space. Runs automatically when relocations have
    /// abandoned at least a quarter of the arena; exposed for callers that want to
    /// pack before a read-heavy phase or measure tight memory use.
    pub fn compact(&mut self) {
        let live: usize = self.len.iter().sum();
        let mut packed: Vec<NodeId> = Vec::with_capacity(live);
        for u in 0..self.n {
            let s = self.start[u];
            let l = self.len[u];
            self.start[u] = packed.len();
            self.cap[u] = l;
            packed.extend_from_slice(&self.arena[s..s + l]);
        }
        self.arena = packed;
        self.dead = 0;
    }

    /// Number of arena slots currently abandoned by block relocations
    /// (reclaimed at the next compaction).
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Total arena slots (live neighbours + per-block slack + dead space).
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// Bytes of adjacency storage currently held: the neighbour arena, the
    /// three SoA columns and the batch edits' grouping scratch (empty
    /// until the first batch), at allocated (not just used) size.
    pub fn memory_footprint_bytes(&self) -> usize {
        let scratch = self.batch.as_deref().map_or(0, |b| {
            std::mem::size_of::<BatchScratch>()
                + (b.touched.capacity() + b.by_input.capacity() + b.grouped.capacity())
                    * std::mem::size_of::<NodeId>()
                + (b.count.capacity() + b.end.capacity()) * std::mem::size_of::<u32>()
                + (b.words.capacity() + b.summary.capacity()) * std::mem::size_of::<u64>()
        });
        self.arena.capacity() * std::mem::size_of::<NodeId>()
            + (self.start.capacity() + self.len.capacity() + self.cap.capacity())
                * std::mem::size_of::<usize>()
            + scratch
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was
    /// newly inserted, `false` if it was already present.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        match self.block(u.index()).binary_search(&v) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.insert_at(u.index(), pos, v);
                let back = self
                    .block(v.index())
                    .binary_search(&u)
                    .expect_err("adjacency must stay symmetric");
                self.insert_at(v.index(), back, u);
                self.edge_count += 1;
                Ok(true)
            }
        }
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if the edge was
    /// present and removed, `false` if it was absent.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        match self.block(u.index()).binary_search(&v) {
            Err(_) => Ok(false),
            Ok(pos) => {
                let back = match self.block(v.index()).binary_search(&u) {
                    Ok(b) => b,
                    Err(_) => {
                        return Err(GraphError::BrokenInvariant {
                            reason: format!("edge ({u}, {v}) present forward but not backward"),
                        })
                    }
                };
                self.remove_at(u.index(), pos);
                self.remove_at(v.index(), back);
                self.edge_count -= 1;
                Ok(true)
            }
        }
    }

    /// Moves `u`'s edge from `from` to `to` in one edit: the pointer jump
    /// of Proposition 2.2. With `drop`, `{u, from}` is removed and
    /// `{u, to}` inserted: the entry `from` of `u`'s block becomes `to` by
    /// shifting the entries between the two positions, so `u`'s block
    /// keeps its length and never relocates; then `from`'s block loses `u`
    /// and `to`'s gains it, which relocates a full block (and may compact
    /// the arena) as [`Graph::add_edge`] does. Without `drop`, `{u, to}`
    /// is inserted on both sides and `from` is not read. Entries move in
    /// register carry chains rather than `memmove` calls, which cost more
    /// than the few entries a short block moves.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range, if `{u, to}` is present or a
    /// self-loop, or, with `drop`, if `{u, from}` is absent: the caller
    /// has checked all of these.
    pub fn jump(&mut self, u: NodeId, from: NodeId, to: NodeId, drop: bool) {
        assert_ne!(u, to, "self-loops are not allowed in the model");
        let ui = u.index();
        let block = self.block(ui);
        let to_pos = block
            .binary_search(&to)
            .expect_err("a jump's target is not adjacent yet");
        if drop {
            let from_pos = block
                .binary_search(&from)
                .expect("a dropping jump leaves a present edge");
            let s = self.start[ui];
            if from_pos < to_pos {
                shift_left(&mut self.arena[s + from_pos..s + to_pos], to);
            } else {
                shift_right(&mut self.arena[s + to_pos..=s + from_pos], to);
            }
            let back = self
                .block(from.index())
                .binary_search(&u)
                .expect("adjacency must stay symmetric");
            self.remove_short(from.index(), back);
        } else {
            self.insert_short(ui, to_pos, to);
            self.edge_count += 1;
        }
        let back = self
            .block(to.index())
            .binary_search(&u)
            .expect_err("adjacency must stay symmetric");
        self.insert_short(to.index(), back, u);
    }

    /// Inserts a batch of canonical edges, in any order, with one merge
    /// pass per touched node, and calls `on_insert` for every edge that
    /// was newly inserted, in ascending canonical order whatever the order
    /// of `edges`. Returns the number of new edges.
    ///
    /// Costs O(batch + n/4096) to group the batch by endpoint, with no
    /// sort, plus one merge per touched node, amortized O(degree +
    /// entries), versus one O(degree) memmove per edge for repeated
    /// [`Graph::add_edge`]. The grouping scratch is allocated on the
    /// first batch of two or more edges and reused after. A one-edge
    /// batch, the shape of almost every commit of the asynchronous
    /// runtime, skips the grouping: it costs what [`Graph::add_edge`]
    /// costs, one binary search and one in-block insertion per endpoint,
    /// and relocates and compacts as it does; unlike a grouped merge, it
    /// never relocates a full block for an edge that is already there.
    ///
    /// # Panics
    ///
    /// Panics, before anything is mutated, if an endpoint is out of range
    /// or `edges` contains duplicate not-yet-present edges — the case that
    /// would corrupt the adjacency (callers stage through set-semantics
    /// vectors, so a duplicate is a logic error, not data). Duplicates of
    /// already present edges are skipped with them.
    pub fn add_edges_batch<F: FnMut(Edge)>(&mut self, edges: &[Edge], on_insert: F) -> usize {
        self.apply_batch(edges, true, on_insert)
    }

    /// Removes a batch of canonical edges, in any order, with one merge
    /// pass per touched node, and calls `on_remove` for every edge that
    /// was present, in ascending canonical order whatever the order of
    /// `edges`. Returns the number of edges removed. Costs the same as
    /// [`Graph::add_edges_batch`]; a one-edge batch skips the grouping
    /// and costs what [`Graph::remove_edge`] costs, one binary search and
    /// one in-block removal per endpoint.
    ///
    /// # Panics
    ///
    /// Panics, before anything is mutated, if an endpoint is out of range
    /// or `edges` contains duplicate present edges — the case that would
    /// corrupt the adjacency; duplicates of absent edges are skipped with
    /// them.
    pub fn remove_edges_batch<F: FnMut(Edge)>(&mut self, edges: &[Edge], on_remove: F) -> usize {
        self.apply_batch(edges, false, on_remove)
    }

    /// The body of both batch edits. A one-edge batch of two distinct
    /// endpoints goes to [`Graph::apply_one`]; any other groups `edges`
    /// by endpoint and rejects repeated entries that would change the
    /// graph (absent ones when `insert`, present ones otherwise) before
    /// the first mutation. Then each touched node, ascending, gets one
    /// merge pass that also drops the entries that change nothing, and
    /// reports the changed edges it is the smaller endpoint of: ascending
    /// canonical order.
    fn apply_batch(
        &mut self,
        edges: &[Edge],
        insert: bool,
        mut on_edge: impl FnMut(Edge),
    ) -> usize {
        match edges {
            [] => return 0,
            &[e] if e.a != e.b => return self.apply_one(e, insert, on_edge),
            _ => {}
        }
        // Taken out for the batch, so a panic drops it and the next batch
        // starts from a zeroed one.
        let mut scratch = self.batch.take().unwrap_or_default();
        scratch.group(self.n, edges);
        let BatchScratch {
            end,
            touched,
            grouped,
            ..
        } = &mut *scratch;
        // A repeated entry sits next to its twin in its ascending bucket.
        let mut lo = 0usize;
        for &x in touched.iter() {
            let hi = end[x.index()] as usize;
            for pair in grouped[lo..hi].windows(2) {
                if pair[0] == pair[1] {
                    let present = self.block(x.index()).binary_search(&pair[0]).is_ok();
                    assert!(present == insert, "duplicate edges in batch");
                }
            }
            lo = hi;
        }
        let mut changed = 0usize;
        lo = 0;
        for &x in touched.iter() {
            let hi = end[x.index()] as usize;
            let entries = &mut grouped[lo..hi];
            if insert {
                self.merge_block_additions(x.index(), entries);
            } else {
                self.remove_block_elements(x.index(), entries);
            }
            for &v in entries.iter().filter(|&&v| v > x && v != PAD) {
                on_edge(Edge { a: x, b: v });
                changed += 1;
            }
            lo = hi;
        }
        if insert {
            self.edge_count += changed;
        } else {
            self.edge_count -= changed;
        }
        self.batch = Some(scratch);
        changed
    }

    /// A one-edge batch without the grouping pass: one binary search per
    /// endpoint and the in-block edit of [`Graph::add_edge`] or
    /// [`Graph::remove_edge`], smaller endpoint first, the order the
    /// grouped path edits nodes in. An insertion into a full block
    /// relocates it and may compact the arena, as `add_edge` does; an edge
    /// that changes nothing touches no block and is not reported.
    fn apply_one(&mut self, e: Edge, insert: bool, mut on_edge: impl FnMut(Edge)) -> usize {
        assert!(
            e.a.index() < self.n && e.b.index() < self.n,
            "edge {{{}, {}}} out of range (n = {})",
            e.a,
            e.b,
            self.n
        );
        let (a, b) = (e.a.min(e.b), e.a.max(e.b));
        let pos = match (self.block(a.index()).binary_search(&b), insert) {
            (Err(pos), true) | (Ok(pos), false) => pos,
            _ => return 0,
        };
        if insert {
            self.insert_at(a.index(), pos, b);
            let back = self
                .block(b.index())
                .binary_search(&a)
                .expect_err("adjacency must stay symmetric");
            self.insert_at(b.index(), back, a);
            self.edge_count += 1;
        } else {
            let back = self
                .block(b.index())
                .binary_search(&a)
                .expect("adjacency must stay symmetric");
            self.remove_at(a.index(), pos);
            self.remove_at(b.index(), back);
            self.edge_count -= 1;
        }
        on_edge(Edge { a, b });
        1
    }

    /// Severs every edge incident to `u` in one pass (one in-block removal
    /// per neighbour plus zeroing `u`'s own length) and calls `on_remove`
    /// for each severed edge in ascending neighbour order. Returns the
    /// number of severed edges. Used by the DST crash-stop fault.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] when `u` is outside the vertex set;
    /// [`GraphError::BrokenInvariant`] when a neighbour's block is missing
    /// the back-edge (validated up front, so an error leaves the graph
    /// unmodified).
    pub fn remove_incident_edges<F: FnMut(Edge)>(
        &mut self,
        u: NodeId,
        mut on_remove: F,
    ) -> Result<usize, GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        let neighbors: Vec<NodeId> = self.block(u.index()).to_vec();
        let mut back_positions: Vec<usize> = Vec::with_capacity(neighbors.len());
        for &v in &neighbors {
            match self.block(v.index()).binary_search(&u) {
                Ok(pos) => back_positions.push(pos),
                Err(_) => {
                    return Err(GraphError::BrokenInvariant {
                        reason: format!("edge ({u}, {v}) present forward but not backward"),
                    })
                }
            }
        }
        self.len[u.index()] = 0;
        for (&v, &pos) in neighbors.iter().zip(&back_positions) {
            self.remove_at(v.index(), pos);
        }
        self.edge_count -= neighbors.len();
        for &v in &neighbors {
            on_remove(Edge::new(u, v));
        }
        Ok(neighbors.len())
    }

    /// Returns true if the edge `{u, v}` is present.
    ///
    /// Out-of-range queries simply return `false`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.n {
            return false;
        }
        self.block(u.index()).binary_search(&v).is_ok()
    }

    /// Neighbours of `u` (the paper's `N_1(u)`), in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.block(u.index()).iter().copied()
    }

    /// Neighbours of `u` as a sorted slice — the zero-cost form of
    /// [`Graph::neighbors`] for hot scans. With the arena representation
    /// this is one contiguous sub-slice of the shared neighbour storage.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors_slice(&self, u: NodeId) -> &[NodeId] {
        self.block(u.index())
    }

    /// Returns true if `u` and `w` are at distance exactly two (share a
    /// common neighbour and are not adjacent).
    pub fn at_distance_two(&self, u: NodeId, w: NodeId) -> bool {
        if u == w || self.has_edge(u, w) {
            return false;
        }
        self.common_neighbor(u, w).is_some()
    }

    /// A common neighbour of `u` and `w`, if any (a witness for the
    /// distance-2 activation rule). Both lists are sorted, so this is a
    /// two-pointer intersection probe; the witness returned is the
    /// smallest common neighbour, exactly as the old linear scan found.
    pub fn common_neighbor(&self, u: NodeId, w: NodeId) -> Option<NodeId> {
        if u.index() >= self.n || w.index() >= self.n {
            return None;
        }
        let a = self.block(u.index());
        let b = self.block(w.index());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some(a[i]),
            }
        }
        None
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.len[u.index()]
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.len.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over all edges in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n).flat_map(move |u| {
            self.block(u)
                .iter()
                .filter(move |v| v.index() > u)
                .map(move |&v| Edge::new(NodeId(u), v))
        })
    }

    /// Collects the edge set into a vector (canonical order).
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Checks that the internal structure is consistent: every block is
    /// in-bounds with `len <= cap`, blocks do not overlap, every arena
    /// slot is owned by exactly one block or counted dead, neighbour
    /// slices are sorted, duplicate-free and symmetric, and the edge count
    /// matches. Used by property tests.
    pub fn check_invariants(&self) -> bool {
        if self.start.len() != self.n || self.len.len() != self.n || self.cap.len() != self.n {
            return false;
        }
        let mut cap_total = 0usize;
        let mut owned = vec![false; self.arena.len()];
        let mut count = 0usize;
        for u in 0..self.n {
            let (s, l, c) = (self.start[u], self.len[u], self.cap[u]);
            if l > c {
                return false;
            }
            let Some(end) = s.checked_add(c) else {
                return false;
            };
            if end > self.arena.len() {
                return false;
            }
            cap_total += c;
            for slot in &mut owned[s..end] {
                if *slot {
                    return false; // overlapping blocks
                }
                *slot = true;
            }
            let adj = self.block(u);
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return false; // unsorted or duplicated
            }
            for &v in adj {
                if v.index() >= self.n || v.index() == u {
                    return false;
                }
                if self.block(v.index()).binary_search(&NodeId(u)).is_err() {
                    return false;
                }
                if v.index() > u {
                    count += 1;
                }
            }
        }
        cap_total + self.dead == self.arena.len() && count == self.edge_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    use crate::generators;

    #[test]
    fn edge_is_canonical() {
        let e1 = Edge::new(nid(3), nid(1));
        let e2 = Edge::new(nid(1), nid(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.a, nid(1));
        assert_eq!(e1.b, nid(3));
        assert_eq!(e1.other(nid(1)), Some(nid(3)));
        assert_eq!(e1.other(nid(3)), Some(nid(1)));
        assert_eq!(e1.other(nid(5)), None);
        assert!(e1.touches(nid(1)));
        assert!(!e1.touches(nid(2)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(nid(2), nid(2));
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(nid(0), nid(1)).unwrap());
        assert!(!g.add_edge(nid(1), nid(0)).unwrap(), "duplicate collapses");
        assert!(g.add_edge(nid(1), nid(2)).unwrap());
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(nid(0), nid(1)));
        assert!(g.has_edge(nid(1), nid(0)));
        assert!(!g.has_edge(nid(0), nid(2)));
        assert!(g.remove_edge(nid(0), nid(1)).unwrap());
        assert!(!g.remove_edge(nid(0), nid(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert!(g.check_invariants());
    }

    #[test]
    fn rejects_out_of_range_and_self_loops() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(nid(0), nid(3)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(nid(1), nid(1)),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn batch_add_and_remove_match_singles() {
        let stream = [
            (0usize, 1usize),
            (1, 2),
            (0, 2),
            (3, 5),
            (2, 5),
            (0, 1), // duplicate of an earlier edge: skipped, not fresh
        ];
        let mut singles = Graph::new(6);
        for &(u, v) in &stream {
            let _ = singles.add_edge(nid(u), nid(v)).unwrap();
        }
        let mut batched = Graph::new(6);
        // Set semantics: feed the deduplicated edge list.
        let edges: Vec<Edge> = vec![
            Edge::new(nid(0), nid(1)),
            Edge::new(nid(1), nid(2)),
            Edge::new(nid(0), nid(2)),
            Edge::new(nid(3), nid(5)),
            Edge::new(nid(2), nid(5)),
        ];
        let mut inserted = Vec::new();
        let fresh = batched.add_edges_batch(&edges, |e| inserted.push(e));
        assert_eq!(fresh, 5);
        let mut ascending = edges.clone();
        ascending.sort_unstable();
        assert_eq!(inserted, ascending, "canonical order, not input order");
        assert_eq!(batched, singles);
        assert!(batched.check_invariants());

        // Batch-inserting again finds nothing fresh.
        assert_eq!(batched.add_edges_batch(&edges, |_| panic!("no fresh")), 0);

        // Remove a sub-batch plus one absent edge, out of order.
        let removals = vec![
            Edge::new(nid(3), nid(5)),
            Edge::new(nid(3), nid(4)), // absent: skipped
            Edge::new(nid(0), nid(2)),
        ];
        let mut removed = Vec::new();
        let gone = batched.remove_edges_batch(&removals, |e| removed.push(e));
        assert_eq!(gone, 2);
        assert_eq!(
            removed,
            vec![Edge::new(nid(0), nid(2)), Edge::new(nid(3), nid(5))]
        );
        singles.remove_edge(nid(0), nid(2)).unwrap();
        singles.remove_edge(nid(3), nid(5)).unwrap();
        assert_eq!(batched, singles);
        assert!(batched.check_invariants());
    }

    #[test]
    #[should_panic(expected = "duplicate edges in batch")]
    fn add_batch_rejects_a_fresh_edge_given_twice() {
        let mut g = Graph::new(4);
        let e = |u, v| Edge::new(nid(u), nid(v));
        g.add_edges_batch(&[e(0, 1), e(2, 3), e(0, 1)], |_| {});
    }

    #[test]
    #[should_panic(expected = "duplicate edges in batch")]
    fn remove_batch_rejects_a_present_edge_given_twice() {
        let mut g = generators::line(4);
        let e = |u, v| Edge::new(nid(u), nid(v));
        g.remove_edges_batch(&[e(1, 2), e(0, 1), e(1, 2)], |_| {});
    }

    #[test]
    fn batch_duplicates_that_change_nothing_are_skipped() {
        let mut g = generators::line(4);
        let e = |u, v| Edge::new(nid(u), nid(v));
        let mut seen = Vec::new();
        // {0, 1} is present: both copies are skipped, {0, 2} is inserted.
        let added = g.add_edges_batch(&[e(0, 1), e(0, 2), e(0, 1)], |x| seen.push(x));
        assert_eq!((added, &seen[..]), (1, &[e(0, 2)][..]));
        // {1, 3} is absent: both copies are skipped, {2, 3} is removed.
        seen.clear();
        let removed = g.remove_edges_batch(&[e(1, 3), e(2, 3), e(1, 3)], |x| seen.push(x));
        assert_eq!((removed, &seen[..]), (1, &[e(2, 3)][..]));
        assert_eq!(g.edge_vec(), vec![e(0, 1), e(0, 2), e(1, 2)]);
        assert!(g.check_invariants());
    }

    #[test]
    fn a_batch_of_present_edges_relocates_nothing() {
        // Node 0's block is full (4 slots for 1–4). Re-adding two of its
        // edges grows no block, so no block may move to the arena tail.
        let mut g = Graph::new(6);
        for v in 1..5 {
            g.add_edge(nid(0), nid(v)).unwrap();
        }
        let (slots, dead) = (g.arena_slots(), g.dead_slots());
        assert_eq!((slots, dead), (20, 0));
        let e = |u, v| Edge::new(nid(u), nid(v));
        assert_eq!(g.add_edges_batch(&[e(0, 1), e(0, 2)], |_| {}), 0);
        assert_eq!((g.arena_slots(), g.dead_slots()), (slots, dead));
        // Without {0, 4}, node 0 holds three entries in four slots: a
        // batch that repeats two of them beside the fresh {0, 5} merges
        // in place, and only node 5's empty block is allocated.
        g.remove_edge(nid(0), nid(4)).unwrap();
        assert_eq!(g.add_edges_batch(&[e(0, 1), e(0, 5), e(0, 2)], |_| {}), 1);
        assert_eq!((g.arena_slots(), g.dead_slots()), (slots + 4, 0));
        assert_eq!(g.neighbors_slice(nid(0)), &[nid(1), nid(2), nid(3), nid(5)]);
        assert!(g.check_invariants());
    }

    #[test]
    fn jump_moves_one_edge_in_either_direction() {
        let e = |u, v| Edge::new(nid(u), nid(v));
        // Node 3 on a star-like block: neighbours 0, 1, 5, 6.
        let mut g = Graph::from_edges(
            8,
            [(3, 0), (3, 1), (3, 5), (3, 6), (1, 2), (6, 7)].map(|(u, v)| (nid(u), nid(v))),
        )
        .unwrap();
        // Upwards: 1 → 7 shifts 5 and 6 left.
        g.jump(nid(3), nid(1), nid(7), true);
        assert_eq!(g.neighbors_slice(nid(3)), &[nid(0), nid(5), nid(6), nid(7)]);
        // Downwards: 6 → 2 shifts 5 right.
        g.jump(nid(3), nid(6), nid(2), true);
        assert_eq!(g.neighbors_slice(nid(3)), &[nid(0), nid(2), nid(5), nid(7)]);
        // In place: 5 → 4 keeps its slot.
        g.jump(nid(3), nid(5), nid(4), true);
        assert_eq!(g.neighbors_slice(nid(3)), &[nid(0), nid(2), nid(4), nid(7)]);
        assert_eq!(g.edge_count(), 6);
        // Without a drop the block grows past its four slots.
        g.jump(nid(3), nid(4), nid(6), false);
        assert_eq!(
            g.edge_vec(),
            [
                e(0, 3),
                e(1, 2),
                e(2, 3),
                e(3, 4),
                e(3, 6),
                e(3, 7),
                e(6, 7)
            ]
        );
        assert!(g.check_invariants());
    }

    #[test]
    #[should_panic(expected = "not adjacent yet")]
    fn jump_onto_a_present_edge_panics() {
        let mut g = generators::line(3);
        g.add_edge(nid(0), nid(2)).unwrap();
        g.jump(nid(0), nid(1), nid(2), true);
    }

    #[test]
    fn a_rejected_batch_mutates_nothing() {
        let mut g = generators::line(5);
        let before = g.clone();
        let e = |u, v| Edge::new(nid(u), nid(v));
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add_edges_batch(&[e(0, 2), e(2, 4), e(0, 2)], |_| {})
        }));
        assert!(rejected.is_err());
        assert_eq!(g, before);
        assert!(g.check_invariants());
        // The next batch starts from a fresh scratch and applies cleanly.
        assert_eq!(g.add_edges_batch(&[e(2, 4), e(0, 2)], |_| {}), 2);
        assert!(g.check_invariants());
    }

    #[test]
    fn remove_incident_edges_isolates_a_node() {
        let mut g = Graph::from_edges(
            5,
            vec![
                (nid(0), nid(1)),
                (nid(0), nid(2)),
                (nid(0), nid(3)),
                (nid(2), nid(3)),
            ],
        )
        .unwrap();
        let mut severed = Vec::new();
        let k = g.remove_incident_edges(nid(0), |e| severed.push(e));
        assert_eq!(k, Ok(3));
        assert_eq!(
            severed,
            vec![
                Edge::new(nid(0), nid(1)),
                Edge::new(nid(0), nid(2)),
                Edge::new(nid(0), nid(3)),
            ]
        );
        assert_eq!(g.degree(nid(0)), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(nid(2), nid(3)));
        assert!(g.check_invariants());
        // Severing an isolated node is a no-op.
        assert_eq!(
            g.remove_incident_edges(nid(0), |_| panic!("no edges")),
            Ok(0)
        );
    }

    #[test]
    fn neighbors_slice_matches_iterator() {
        let g = Graph::from_edges(4, vec![(nid(1), nid(0)), (nid(1), nid(3))]).unwrap();
        assert_eq!(g.neighbors_slice(nid(1)), &[nid(0), nid(3)]);
        let collected: Vec<NodeId> = g.neighbors(nid(1)).collect();
        assert_eq!(collected, g.neighbors_slice(nid(1)));
    }

    #[test]
    fn degrees_and_edges() {
        let g = Graph::from_edges(
            5,
            vec![(nid(0), nid(1)), (nid(0), nid(2)), (nid(0), nid(3))],
        )
        .unwrap();
        assert_eq!(g.degree(nid(0)), 3);
        assert_eq!(g.degree(nid(4)), 0);
        assert_eq!(g.max_degree(), 3);
        let edges = g.edge_vec();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&Edge::new(nid(0), nid(3))));
    }

    #[test]
    fn nodes_iterator_covers_vertex_set() {
        let g = Graph::new(3);
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes, vec![nid(0), nid(1), nid(2)]);
        assert!(g.is_empty());
    }

    #[test]
    fn equality_is_layout_independent() {
        // The same edge set reached through different operation orders
        // produces different arena layouts (relocations, slack, dead
        // space) but equal graphs.
        let mut a = Graph::new(6);
        for v in 1..6 {
            a.add_edge(nid(0), nid(v)).unwrap(); // hub grows: relocations
        }
        let mut b = Graph::new(6);
        for v in (1..6).rev() {
            b.add_edge(nid(0), nid(v)).unwrap();
        }
        b.add_edge(nid(1), nid(2)).unwrap();
        b.remove_edge(nid(1), nid(2)).unwrap();
        assert_eq!(a, b);
        b.compact();
        assert_eq!(a, b, "compaction preserves equality");
        assert!(a.check_invariants() && b.check_invariants());
    }

    #[test]
    fn overflow_relocation_and_compaction_keep_invariants() {
        // Grow one hub past several capacity doublings, forcing
        // relocations and eventually an automatic compaction.
        let n = 600;
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(nid(0), nid(v)).unwrap();
            assert_eq!(g.degree(nid(0)), v);
        }
        assert!(g.check_invariants());
        assert_eq!(g.neighbors_slice(nid(0)).len(), n - 1);
        assert!(
            g.neighbors_slice(nid(0)).windows(2).all(|w| w[0] < w[1]),
            "hub block stays sorted across relocations"
        );
        // Explicit compaction packs tight: no dead slots, arena == live.
        g.compact();
        assert_eq!(g.dead_slots(), 0);
        assert_eq!(g.arena_slots(), 2 * g.edge_count());
        assert!(g.check_invariants());
        // A compacted block has no slack: the next insert relocates and
        // the structure stays consistent.
        let w = g.add_node();
        g.add_edge(nid(1), w).unwrap();
        g.add_edge(nid(0), w).unwrap();
        assert!(g.check_invariants());
        assert!(g.memory_footprint_bytes() > 0);
    }

    #[test]
    fn removing_before_adding_reuses_a_packed_block() {
        // Nodes 0 and 2 of a packed ring each lose one neighbour and gain
        // each other: a swap of one edge for another. Removing first frees
        // the slot the addition fills, so no block moves.
        let ring = |n: usize| Graph::from_edges(n, (0..n).map(|i| (nid(i), nid((i + 1) % n))));
        let e = |a: usize, b: usize| Edge::new(nid(a), nid(b));
        let mut g = ring(8).unwrap();
        g.compact();
        g.remove_edges_batch(&[e(0, 1), e(2, 3)], |_| {});
        g.add_edges_batch(&[e(0, 2)], |_| {});
        assert_eq!(g.dead_slots(), 0);
        assert_eq!(g.neighbors_slice(nid(0)), &[nid(2), nid(7)]);
        assert!(g.check_invariants());
        // Adding first overflows both packed blocks, which move to the
        // arena tail and leave their old slots dead.
        let mut h = ring(8).unwrap();
        h.compact();
        h.add_edges_batch(&[e(0, 2)], |_| {});
        h.remove_edges_batch(&[e(0, 1), e(2, 3)], |_| {});
        assert!(h.dead_slots() > 0);
        assert_eq!(g, h);
    }

    #[test]
    fn churn_node_starts_with_zero_capacity_block() {
        let mut g = Graph::new(2);
        g.add_edge(nid(0), nid(1)).unwrap();
        let v = g.add_node();
        assert_eq!(g.degree(v), 0);
        assert_eq!(g.neighbors_slice(v), &[] as &[NodeId]);
        g.add_edge(v, nid(0)).unwrap();
        assert_eq!(g.neighbors_slice(v), &[nid(0)]);
        assert!(g.check_invariants());
    }
}
