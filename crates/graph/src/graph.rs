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
#[derive(Debug, Clone)]
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

    /// Merges `add` (sorted ascending, duplicate-free, disjoint from the
    /// block) into `u`'s sorted block: one backward in-place pass while
    /// the block has room, otherwise a relocation that interleaves the
    /// merge with the copy to the tail.
    fn merge_block_additions(&mut self, u: usize, add: &[NodeId]) {
        if add.is_empty() {
            return;
        }
        let s = self.start[u];
        let l = self.len[u];
        let need = l + add.len();
        if need <= self.cap[u] {
            let block = &mut self.arena[s..s + need];
            let mut i = l;
            let mut j = add.len();
            let mut w = need;
            while j > 0 {
                if i > 0 && block[i - 1] > add[j - 1] {
                    block[w - 1] = block[i - 1];
                    i -= 1;
                } else {
                    block[w - 1] = add[j - 1];
                    j -= 1;
                }
                w -= 1;
            }
            self.len[u] = need;
        } else {
            let new_cap = grow_cap(self.cap[u], need);
            let new_start = self.arena.len();
            self.arena.reserve(new_cap);
            let mut i = 0usize;
            let mut j = 0usize;
            while i < l && j < add.len() {
                let x = self.arena[s + i];
                if x < add[j] {
                    self.arena.push(x);
                    i += 1;
                } else {
                    self.arena.push(add[j]);
                    j += 1;
                }
            }
            self.arena.extend_from_within(s + i..s + l);
            self.arena.extend_from_slice(&add[j..]);
            self.arena.resize(new_start + new_cap, PAD);
            self.dead += self.cap[u];
            self.start[u] = new_start;
            self.len[u] = need;
            self.cap[u] = new_cap;
            self.maybe_compact();
        }
    }

    /// Removes every element of `del` (sorted ascending, duplicate-free,
    /// all present) from `u`'s sorted block in one forward pass.
    fn remove_block_elements(&mut self, u: usize, del: &[NodeId]) {
        if del.is_empty() {
            return;
        }
        let s = self.start[u];
        let l = self.len[u];
        let mut j = 0usize;
        let mut w = 0usize;
        for r in 0..l {
            let v = self.arena[s + r];
            if j < del.len() && del[j] == v {
                j += 1;
            } else {
                self.arena[s + w] = v;
                w += 1;
            }
        }
        self.len[u] = w;
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

    /// Bytes of adjacency storage currently held: the neighbour arena plus
    /// the three SoA columns, at allocated (not just used) size.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<NodeId>()
            + (self.start.capacity() + self.len.capacity() + self.cap.capacity())
                * std::mem::size_of::<usize>()
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

    /// Inserts a batch of canonical edges in one merge pass per touched
    /// node and calls `on_insert` for every edge that was newly inserted
    /// (in the order of `edges`). Returns the number of new edges.
    ///
    /// Amortized cost is `O(degree + batch)` per touched node, versus one
    /// `O(degree)` memmove per edge for repeated [`Graph::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `edges` contains
    /// duplicate not-yet-present edges — the case that would corrupt the
    /// adjacency (callers stage through set-semantics vectors, so a
    /// duplicate is a logic error, not data). Duplicates of already
    /// present edges are harmlessly skipped by the freshness pre-filter.
    pub fn add_edges_batch<F: FnMut(Edge)>(&mut self, edges: &[Edge], mut on_insert: F) -> usize {
        if edges.is_empty() {
            return 0;
        }
        let mut fresh: Vec<Edge> = Vec::with_capacity(edges.len());
        for &e in edges {
            assert!(
                e.a.index() < self.n && e.b.index() < self.n,
                "edge {{{}, {}}} out of range (n = {})",
                e.a,
                e.b,
                self.n
            );
            if !self.has_edge(e.a, e.b) {
                fresh.push(e);
            }
        }
        // One directed entry per endpoint, grouped by source node.
        let mut directed: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * fresh.len());
        for &e in &fresh {
            directed.push((e.a, e.b));
            directed.push((e.b, e.a));
        }
        directed.sort_unstable();
        assert!(
            directed.windows(2).all(|w| w[0] != w[1]),
            "duplicate edges in batch"
        );
        let mut i = 0;
        let mut add: Vec<NodeId> = Vec::new();
        while i < directed.len() {
            let u = directed[i].0;
            add.clear();
            while i < directed.len() && directed[i].0 == u {
                add.push(directed[i].1);
                i += 1;
            }
            self.merge_block_additions(u.index(), &add);
        }
        self.edge_count += fresh.len();
        for &e in &fresh {
            on_insert(e);
        }
        fresh.len()
    }

    /// Removes a batch of canonical edges in one merge pass per touched
    /// node and calls `on_remove` for every edge that was present (in the
    /// order of `edges`). Returns the number of edges removed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `edges` contains
    /// duplicate present edges — the case that would corrupt the
    /// adjacency; duplicates of absent edges are harmlessly skipped.
    pub fn remove_edges_batch<F: FnMut(Edge)>(
        &mut self,
        edges: &[Edge],
        mut on_remove: F,
    ) -> usize {
        if edges.is_empty() {
            return 0;
        }
        let mut present: Vec<Edge> = Vec::with_capacity(edges.len());
        for &e in edges {
            assert!(
                e.a.index() < self.n && e.b.index() < self.n,
                "edge {{{}, {}}} out of range (n = {})",
                e.a,
                e.b,
                self.n
            );
            if self.has_edge(e.a, e.b) {
                present.push(e);
            }
        }
        let mut directed: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * present.len());
        for &e in &present {
            directed.push((e.a, e.b));
            directed.push((e.b, e.a));
        }
        directed.sort_unstable();
        assert!(
            directed.windows(2).all(|w| w[0] != w[1]),
            "duplicate edges in batch"
        );
        let mut i = 0;
        let mut del: Vec<NodeId> = Vec::new();
        while i < directed.len() {
            let u = directed[i].0;
            del.clear();
            while i < directed.len() && directed[i].0 == u {
                del.push(directed[i].1);
                i += 1;
            }
            self.remove_block_elements(u.index(), &del);
        }
        self.edge_count -= present.len();
        for &e in &present {
            on_remove(e);
        }
        present.len()
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

    /// The set of nodes at distance exactly two from `u` (the paper's
    /// `N_2(u)`, the *potential neighbours*): nodes `w` such that some `v`
    /// is adjacent to both `u` and `w`, and `w` is not adjacent to `u` and
    /// `w != u`. Returned sorted ascending, the same order the old
    /// `BTreeSet` form iterated in.
    ///
    /// Linear in the candidate count `D = Σ_{v ∈ N_1(u)} deg(v)`. A node
    /// adjacent to every other node has none. When the `n / 64` words of a
    /// vertex bitmap cost no more than the candidates (`64·D ≥ n`) and
    /// there are at least two lists to union, the lists are OR-ed into the
    /// bitmap, `{u} ∪ N_1(u)` is cleared, and the set bits are read off in
    /// ascending order. Otherwise (sparse neighbourhoods, or one list that
    /// has no duplicates) the lists are gathered, sorted and deduplicated
    /// if there is more than one, and `{u} ∪ N_1(u)` is subtracted in one
    /// forward pass.
    pub fn potential_neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let n1 = self.block(u.index());
        if n1.len() + 1 == self.n {
            return Vec::new();
        }
        let candidates: usize = n1.iter().map(|v| self.len[v.index()]).sum();
        let out = if n1.len() >= 2 && 64 * candidates >= self.n {
            let mut bits = vec![0u64; self.n.div_ceil(64)];
            for &v in n1 {
                for &w in self.block(v.index()) {
                    bits[w.index() / 64] |= 1 << (w.index() % 64);
                }
            }
            for &w in n1.iter().chain([&u]) {
                bits[w.index() / 64] &= !(1 << (w.index() % 64));
            }
            let count = bits.iter().map(|b| b.count_ones() as usize).sum();
            let mut out = Vec::with_capacity(count);
            for (i, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    out.push(NodeId(i * 64 + word.trailing_zeros() as usize));
                    word &= word - 1;
                }
            }
            out
        } else {
            let mut out = Vec::with_capacity(candidates);
            for &v in n1 {
                out.extend_from_slice(self.block(v.index()));
            }
            if n1.len() > 1 {
                out.sort_unstable();
                out.dedup();
            }
            // Subtract `{u} ∪ N_1(u)` in one forward pass (both sides sorted).
            let mut j = 0usize;
            out.retain(|&w| {
                while j < n1.len() && n1[j] < w {
                    j += 1;
                }
                w != u && !(j < n1.len() && n1[j] == w)
            });
            out
        };

        // Differential check against the old BTreeSet-based semantics.
        #[cfg(debug_assertions)]
        {
            let mut reference = std::collections::BTreeSet::new();
            for v in self.neighbors(u) {
                for w in self.neighbors(v) {
                    if w != u && !self.has_edge(u, w) {
                        reference.insert(w);
                    }
                }
            }
            debug_assert!(
                out.iter().copied().eq(reference.iter().copied()),
                "potential_neighbors diverged from reference for {u}: \
                 {out:?} vs {reference:?}"
            );
        }
        out
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

    /// Returns the union of this graph with `other` (same vertex set).
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different node counts.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(
            self.n, other.n,
            "graph union requires identical vertex sets"
        );
        let mut g = self.clone();
        for e in other.edges() {
            let _ = g.add_edge(e.a, e.b);
        }
        g
    }

    /// Returns the graph containing exactly the edges of `self` that are
    /// not in `other` (same vertex set). This is the paper's
    /// `D(i) \ D(1)` used to define the *maximum activated degree*.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different node counts.
    pub fn difference(&self, other: &Graph) -> Graph {
        assert_eq!(
            self.n, other.n,
            "graph difference requires identical vertex sets"
        );
        let mut g = Graph::new(self.n);
        for e in self.edges() {
            if !other.has_edge(e.a, e.b) {
                let _ = g.add_edge(e.a, e.b);
            }
        }
        g
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
    fn potential_neighbors_are_distance_two() {
        // Path 0 - 1 - 2 - 3
        let g = Graph::from_edges(
            4,
            vec![(nid(0), nid(1)), (nid(1), nid(2)), (nid(2), nid(3))],
        )
        .unwrap();
        let p0 = g.potential_neighbors(nid(0));
        assert_eq!(p0, vec![nid(2)]);
        assert!(g.at_distance_two(nid(0), nid(2)));
        assert!(!g.at_distance_two(nid(0), nid(3)));
        assert!(!g.at_distance_two(nid(0), nid(1)));
        assert_eq!(g.common_neighbor(nid(0), nid(2)), Some(nid(1)));
        assert_eq!(g.common_neighbor(nid(0), nid(3)), None);
    }

    #[test]
    fn potential_neighbors_match_the_distance_two_definition_on_every_branch() {
        // Checked against `at_distance_two` directly, so release builds
        // (where the debug oracle inside `potential_neighbors` is compiled
        // out) test the same thing.
        use crate::generators;
        let mut cases: Vec<(String, Graph)> = vec![
            // Overlapping lists: many duplicates, a block subtracted.
            ("lollipop".into(), generators::lollipop(4, 4)),
            // Empty centre (degree n - 1) and single-list leaves.
            ("star 200".into(), generators::star(200)),
            // Sparse gather branch.
            ("line 4096".into(), generators::line(4096)),
            ("grid 4096".into(), generators::grid(64, 64)),
            // Bitmap branch.
            (
                "dense_random 128".into(),
                crate::GraphFamily::DenseRandom.generate(128, 7),
            ),
            ("hypercube 128".into(), generators::hypercube(7)),
            ("isolated 1".into(), Graph::new(1)),
            ("isolated 2".into(), Graph::new(2)),
            ("edge 2".into(), generators::line(2)),
        ];
        // Empty short-circuit, and bitmaps that end exactly on, one past
        // and one short of a word boundary.
        for n in [63usize, 64, 65, 129] {
            let complete = generators::complete(n);
            let mut unmatched = complete.clone();
            for i in (0..n - 1).step_by(2) {
                unmatched.remove_edge(nid(i), nid(i + 1)).unwrap();
            }
            cases.push((format!("K_{n}"), complete));
            cases.push((format!("K_{n} minus a matching"), unmatched));
        }
        for (label, g) in &cases {
            for u in g.nodes() {
                let got = g.potential_neighbors(u);
                let expect: Vec<NodeId> = g.nodes().filter(|&w| g.at_distance_two(u, w)).collect();
                assert_eq!(got, expect, "{label}: node {u}");
                assert!(
                    got.windows(2).all(|w| w[0] < w[1]),
                    "{label}: sorted, no dups"
                );
            }
        }
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
        assert_eq!(inserted, edges);
        assert_eq!(batched, singles);
        assert!(batched.check_invariants());

        // Batch-inserting again finds nothing fresh.
        assert_eq!(batched.add_edges_batch(&edges, |_| panic!("no fresh")), 0);

        // Remove a sub-batch plus one absent edge.
        let removals = vec![
            Edge::new(nid(0), nid(2)),
            Edge::new(nid(3), nid(4)), // absent: skipped
            Edge::new(nid(3), nid(5)),
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
    fn union_and_difference() {
        let a = Graph::from_edges(4, vec![(nid(0), nid(1)), (nid(1), nid(2))]).unwrap();
        let b = Graph::from_edges(4, vec![(nid(1), nid(2)), (nid(2), nid(3))]).unwrap();
        let u = a.union(&b);
        assert_eq!(u.edge_count(), 3);
        let d = u.difference(&a);
        assert_eq!(d.edge_count(), 1);
        assert!(d.has_edge(nid(2), nid(3)));
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
