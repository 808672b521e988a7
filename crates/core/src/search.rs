//! The k-NN network expansion — Figure 2 of the paper, generalised.
//!
//! [`Expander::expand`] retrieves the k nearest objects of a root position
//! by expanding the network around it (Dijkstra), interleaving object
//! scanning with node settlement, and building the expansion tree as it
//! goes. The [`Expander`] owns everything an expansion works with — the
//! network handle, the Dijkstra engine, the candidate scratch and the arena
//! the trees live in — so every monitor searches through one struct.
//!
//! The same routine implements every (re-)computation in the system:
//!
//! * **initial result computation** (§4.1): `kept = None`;
//! * **IMA re-expansion after updates** (§4.2–4.5): `kept` carries the
//!   still-valid part of the expansion tree; its nodes are pre-settled (the
//!   paper's "consider all nodes in the current q.tree as verified") and
//!   expansion resumes from the frontier marks;
//! * **OVH** (§6): `kept = None` every timestamp;
//! * **GMA active-node monitoring** (§5): a [`RootPos::Node`] root.
//!
//! Termination follows the paper (line 7): expansion stops when the next
//! heap key is no smaller than the distance of the current k-th candidate.

use std::sync::Arc;

use rnn_roadnet::{
    DijkstraEngine, EdgeId, EdgeWeights, FxHashSet, NetPoint, NodeId, ObjectId, RoadNetwork,
};

use crate::counters::OpCounters;
use crate::state::NetworkState;
use crate::tree::{ExpansionTree, TreePool};
use crate::types::{sort_neighbors, Neighbor, RootPos};

/// The still-valid part of an expansion tree handed to a re-expansion.
pub struct KeptTree<'a> {
    /// The surviving tree (distances must be valid under the *current*
    /// weights, and the handle must belong to the pool passed to the
    /// search). Consumed and extended into the outcome tree.
    pub tree: ExpansionTree,
    /// When set to `(old_knn, changed_edges)`, kept-region edges that are
    /// *strictly fully covered* within `old_knn` from one of their kept
    /// endpoints — and whose weight is not in `changed_edges` — are **not**
    /// re-scanned for objects. Every object on such an edge had distance
    /// strictly below `old_knn`, hence was in the previous result, so the
    /// caller must pass the previous result (with re-derived distances) via
    /// `extra_candidates`. This turns the kept-region re-scan from
    /// O(region) into O(frontier ring + changed edges).
    pub selective: Option<(f64, &'a FxHashSet<EdgeId>)>,
}

impl KeptTree<'_> {
    /// Full re-scan of the kept region (always correct, no preconditions).
    pub fn full(tree: ExpansionTree) -> Self {
        KeptTree {
            tree,
            selective: None,
        }
    }
}

/// Result of an [`Expander::expand`].
#[derive(Debug)]
pub struct SearchOutcome {
    /// The k best objects, sorted by `(dist, id)`. May contain fewer than
    /// `k` entries when the network holds fewer reachable objects.
    pub result: Vec<Neighbor>,
    /// Distance of the k-th neighbor (`q.kNN_dist`), or `∞` when fewer than
    /// `k` objects were found.
    pub knn_dist: f64,
    /// The expansion tree, pruned to `knn_dist` — a handle into the pool
    /// the search ran against; callers that discard it must release it
    /// back to that pool.
    pub tree: ExpansionTree,
}

/// One slot of a [`StampTable`].
#[derive(Clone, Copy)]
struct StampSlot<V> {
    /// Epoch the slot was last written in (0 = never; epochs start at 1).
    stamp: u32,
    object: ObjectId,
    val: V,
}

impl<V: Default> StampSlot<V> {
    fn never_written() -> Self {
        Self {
            stamp: 0,
            object: ObjectId(0),
            val: V::default(),
        }
    }
}

/// Flat open-addressing `ObjectId → V` scratch table that is invalidated
/// in O(1) between uses via epoch stamping — the same trick as the
/// [`DijkstraEngine`] node arrays. Power-of-two sized, linear probing, kept
/// at most half full.
///
/// One long-lived table per owner serves every use allocation-free in
/// steady state: the only allocations are high-water-mark growth, counted
/// in [`StampTable::take_alloc_events`] and surfaced through
/// `OpCounters::alloc_events`. It backs the per-object minimum of
/// [`BestK`] (`V = f64`) and the seen-set of GMA's merge (`V = ()`).
pub(crate) struct StampTable<V> {
    slots: Vec<StampSlot<V>>,
    /// Current epoch; slots with an older stamp read as empty.
    epoch: u32,
    /// Slots occupied in the current epoch (drives load-factor growth).
    live: usize,
    /// Table growth events since the last take.
    allocs: u64,
}

impl<V: Copy + Default> Default for StampTable<V> {
    /// An empty table that has **allocated nothing**. The epoch starts at
    /// 1: epoch 0 is reserved as the never-written slot stamp, so fresh
    /// slots always read as empty.
    fn default() -> Self {
        Self {
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; growth happens in grow_to(), which charges alloc_events
            slots: Vec::new(),
            epoch: 1,
            live: 0,
            allocs: 0,
        }
    }
}

impl<V: Copy + Default> StampTable<V> {
    /// Forgets every entry in O(1) **without releasing capacity**.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: physically clear the stamps once every 2^32
                // uses so stale slots can never alias.
                self.slots.fill(StampSlot::never_written());
                1
            }
        };
    }

    /// Table growth events since the last take.
    pub(crate) fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Approximate resident size in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<StampSlot<V>>()
    }

    /// Slot index to probe first for `object` (Fibonacci hashing).
    #[inline]
    fn home(&self, object: ObjectId) -> usize {
        debug_assert!(self.slots.len().is_power_of_two());
        let h = (object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Room for `entries` entries: after this, that many fit without the
    /// table growing (a growth here is charged like any other).
    pub(crate) fn reserve(&mut self, entries: usize) {
        if entries * 2 > self.slots.len() {
            self.grow_to((entries * 2).next_power_of_two());
        }
    }

    /// Re-homes the current-epoch entries in a table of `new_cap` slots —
    /// ×4 when an insertion outgrows it (see `push_charged` for why so
    /// steeply).
    #[cold]
    fn grow_to(&mut self, new_cap: usize) {
        let new_cap = new_cap.max(64);
        // lint: allow(hot-path-alloc): amortized capacity growth; counted by alloc_events and pinned by the zero-alloc CI gate
        let old = std::mem::replace(&mut self.slots, vec![StampSlot::never_written(); new_cap]);
        self.allocs += 1;
        let mask = new_cap - 1;
        for s in old {
            if s.stamp != self.epoch {
                continue;
            }
            let mut i = self.home(s.object);
            while self.slots[i].stamp == self.epoch {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// The value stored for `object` in the current epoch, or `None` after
    /// storing `val` for its first sighting.
    #[inline]
    pub(crate) fn entry(&mut self, object: ObjectId, val: V) -> Option<&mut V> {
        // Keep the table at most half full so linear probes stay short.
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow_to(self.slots.len() * 4);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(object);
        loop {
            if self.slots[i].stamp != self.epoch {
                self.slots[i] = StampSlot {
                    stamp: self.epoch,
                    object,
                    val,
                };
                self.live += 1;
                return None;
            }
            if self.slots[i].object == object {
                return Some(&mut self.slots[i].val);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `object`; whether this was its first sighting since the
    /// last [`Self::clear`].
    #[inline]
    pub(crate) fn first_sighting(&mut self, object: ObjectId) -> bool {
        self.entry(object, V::default()).is_none()
    }
}

/// Bounded best-k candidate accumulator with object de-duplication.
///
/// Objects may be offered several times with different distances (an edge is
/// scanned from both endpoints; Figure 3(b)) — the minimum wins, exactly as
/// the paper's "keep only the instance with the smallest distance".
///
/// The best known distance per object lives in a `StampTable`, so one
/// long-lived `BestK` per monitor serves every search allocation-free in
/// steady state: the only allocations are high-water-mark table/top-list
/// growth, counted in [`BestK::take_alloc_events`] and surfaced through
/// `OpCounters::alloc_events`.
///
/// Its live k-th bound is what tells [`Expander::expand`] when to stop
/// expanding.
pub struct BestK {
    k: usize,
    /// Best known distance of every object that got past the k-th bound.
    known: StampTable<f64>,
    /// The current k smallest, sorted ascending by `(dist, id)`.
    top: Vec<Neighbor>,
    /// Top-list capacity growth events since the last take.
    allocs: u64,
}

impl Default for BestK {
    /// A completely empty accumulator that has **allocated nothing** —
    /// cheap enough to create as a `mem::take` placeholder on the hot
    /// path. Immediately usable as a 1-best accumulator; callers normally
    /// [`Self::reset`] it to their `k` first.
    fn default() -> Self {
        Self {
            k: 1,
            known: StampTable::default(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; reset() reserves the top list and charges alloc_events
            top: Vec::new(),
            allocs: 0,
        }
    }
}

impl BestK {
    /// An accumulator for the `k` best candidates, ready for its first
    /// search. Reuse it across searches with [`Self::reset`].
    pub fn new(k: usize) -> Self {
        let mut b = Self::default();
        b.reset(k);
        b.allocs = 0; // construction is not a steady-state alloc event
        b
    }

    /// Restarts the accumulator for a new `k`-best search **without
    /// releasing any capacity**: the top list is cleared and the dedup
    /// table is invalidated in O(1) by bumping the epoch stamp.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.top.clear();
        if self.top.capacity() < k + 1 {
            self.allocs += 1;
            self.top.reserve(k + 1 - self.top.len());
        }
        self.known.clear();
    }

    /// Table/top-list capacity growth events since the last take. Zero
    /// across a tick proves the tick's searches deduplicated entirely in
    /// reused capacity.
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs) + self.known.take_alloc_events()
    }

    /// Distance of the k-th candidate, `∞` while fewer than k are known.
    #[inline]
    pub fn kth(&self) -> f64 {
        if self.top.len() == self.k {
            self.top[self.k - 1].dist
        } else {
            f64::INFINITY
        }
    }

    /// Offers a candidate; keeps the minimum distance per object.
    pub fn offer(&mut self, object: ObjectId, dist: f64) {
        // Not better than the current k-th: it cannot enter the top list
        // now, and the k-th only falls — so the outer ring of every
        // expansion is turned away before the table probe. A later, smaller
        // offer of the same object is then simply its first sighting.
        if self.top.len() == self.k && dist >= self.kth() {
            return;
        }
        if let Some(known) = self.known.entry(object, dist) {
            if *known <= dist {
                return; // not an improvement
            }
            *known = dist;
            // Remove the previous (worse) entry of the same object from the
            // top list before re-inserting in order.
            if let Some(p) = self.top.iter().position(|n| n.object == object) {
                self.top.remove(p);
            }
        }
        let key = (dist, object);
        let at = self.top.partition_point(|n| (n.dist, n.object) < key);
        self.top.insert(at, Neighbor { object, dist });
        self.top.truncate(self.k);
    }

    /// The accumulated k best, sorted ascending by `(dist, id)`, as an
    /// owned copy; the accumulator is untouched (the scratch keeps its
    /// state and capacity for the next search).
    pub fn clone_result(&self) -> Vec<Neighbor> {
        self.top.clone()
    }

    /// The accumulated k best, consuming the accumulator (kept for tests
    /// and one-shot callers; long-lived scratches use [`Self::clone_result`]).
    pub fn into_result(self) -> Vec<Neighbor> {
        self.top
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.known.memory_bytes() + self.top.capacity() * std::mem::size_of::<Neighbor>()
    }
}

/// Scans the objects of edge `e` as seen from endpoint `n` settled at
/// distance `d`, offering each to the candidate set.
#[inline]
fn scan_edge_from(
    net: &RoadNetwork,
    state: &NetworkState,
    best: &mut BestK,
    counters: &mut OpCounters,
    e: EdgeId,
    n: NodeId,
    d: f64,
) {
    counters.edges_scanned += 1;
    let objs = state.objects.on_edge(e);
    if objs.is_empty() {
        return;
    }
    let w = state.weights.get(e);
    let from_start = net.edge(e).start == n;
    for &(obj, frac) in objs {
        let along = if from_start {
            frac * w
        } else {
            (1.0 - frac) * w
        };
        counters.objects_considered += 1;
        best.offer(obj, d + along);
    }
}

/// The one owner of an expansion's working set: the network, the Dijkstra
/// engine, the candidate scratch shared by every search (a flat
/// epoch-stamped dedup table) and the arena all expansion trees of its
/// monitor live in (one slab of intrusive nodes with a free list, see
/// [`crate::tree`]). All three are reused from search to search, so
/// steady-state expansions never touch the heap; what growth there is
/// comes out through [`Self::harvest`].
pub struct Expander {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) engine: DijkstraEngine,
    best: BestK,
    pub(crate) pool: TreePool,
}

impl Expander {
    /// An expander over `net` that has run no search yet.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Self {
            engine: DijkstraEngine::new(net.num_nodes()),
            net,
            best: BestK::default(),
            pool: TreePool::new(),
        }
    }

    /// The k-NN expansion (Figure 2; see the module docs for the
    /// generalised modes) over the weights and objects of `state`, counted
    /// as one re-evaluation. `kept` is consumed and extended into the
    /// outcome tree, whose nodes come from the pool's free list.
    /// `extra_candidates` pre-loads known-valid neighbors (the surviving
    /// NNs of §4.2) without a region rescan; a [`KeptTree::full`] has the
    /// whole kept region re-scanned for objects (used whenever tree surgery
    /// may have invalidated stored NN distances).
    pub fn expand(
        &mut self,
        state: &NetworkState,
        root: RootPos,
        k: usize,
        kept: Option<KeptTree<'_>>,
        extra_candidates: &[Neighbor],
        counters: &mut OpCounters,
    ) -> SearchOutcome {
        assert!(k >= 1, "k must be at least 1");
        let Self {
            net,
            engine,
            best,
            pool,
        } = self;
        let net: &RoadNetwork = net;
        let weights = &state.weights;
        counters.reevaluations += 1;
        best.reset(k);
        for n in extra_candidates {
            counters.objects_considered += 1;
            best.offer(n.object, n.dist);
        }

        engine.begin();
        let (mut tree, selective) = match kept {
            Some(kt) => (kt.tree, kt.selective),
            None => (pool.new_tree(), None),
        };

        // Pre-settle the valid tree and seed the frontier from it.
        if !tree.is_empty() {
            for (n, dist) in tree.iter(pool) {
                engine.presettle(n, dist);
            }
            for (n, dist) in tree.iter(pool) {
                // Re-scan the kept region for result candidates
                // (selectively, see [`KeptTree::selective`]) and push the
                // frontier (edges leading out of the kept set).
                for &(e, m) in net.adjacent(n) {
                    let scan = match selective {
                        None => true,
                        Some((old_knn, changed)) => {
                            let w = weights.get(e);
                            let slack = crate::anchor::interval_slack(old_knn);
                            // Strictly fully covered from this side → every
                            // object on `e` was strictly inside the old
                            // result region → already among
                            // `extra_candidates`.
                            old_knn - dist <= w + slack || changed.contains(&e)
                        }
                    };
                    if scan {
                        scan_edge_from(net, state, best, counters, e, n, dist);
                    }
                    if !tree.contains(m) {
                        counters.relaxations += 1;
                        engine.seed_via(m, dist + weights.get(e), Some(n), Some(e));
                    }
                }
            }
        }

        // Root contributions.
        match root {
            RootPos::Point(p) => {
                // Objects on the root edge at their direct along-edge
                // distance (around-the-network paths are found via the
                // endpoints later).
                let w = weights.get(p.edge);
                counters.edges_scanned += 1;
                for &(obj, frac) in state.objects.on_edge(p.edge) {
                    counters.objects_considered += 1;
                    best.offer(obj, (frac - p.frac).abs() * w);
                }
                let rec = net.edge(p.edge);
                if !tree.contains(rec.start) {
                    engine.seed(rec.start, p.frac * w, None);
                }
                if !tree.contains(rec.end) {
                    engine.seed(rec.end, (1.0 - p.frac) * w, None);
                }
            }
            RootPos::Node(n) => {
                if !tree.contains(n) {
                    engine.seed(n, 0.0, None);
                }
            }
        }

        // Main expansion loop (Figure 2, lines 7–23).
        while let Some(next_d) = engine.peek_dist() {
            if next_d >= best.kth() {
                break;
            }
            let (n, d) = engine.pop_settle().expect("peek guaranteed an entry");
            counters.nodes_settled += 1;
            pool.insert(&mut tree, n, d, engine.parent_link_of(n));
            for &(e, m) in net.adjacent(n) {
                scan_edge_from(net, state, best, counters, e, n, d);
                counters.relaxations += 1;
                engine.relax_via(m, n, Some(e), d + weights.get(e));
            }
        }

        let mut result = best.clone_result();
        sort_neighbors(&mut result);
        let knn_dist = if result.len() == k {
            result[k - 1].dist
        } else {
            f64::INFINITY
        };
        // Figure 2 line 24 / §4.5 line 26: drop tree parts beyond kNN_dist.
        counters.tree_nodes_pruned += pool.retain_within(&mut tree, knn_dist) as u64;
        SearchOutcome {
            result,
            knn_dist,
            tree,
        }
    }

    /// Folds what the searches since the last harvest grew (engine heap,
    /// candidate table, tree pool), the Dijkstra steps they took and the
    /// tree slots they recycled into `c`.
    pub fn harvest(&mut self, c: &mut OpCounters) {
        c.alloc_events += self.engine.take_alloc_events()
            + self.best.take_alloc_events()
            + self.pool.take_alloc_events();
        c.expansion_steps += self.engine.take_expansion_steps();
        c.tree_nodes_recycled += self.pool.take_recycled();
    }

    /// Resident bytes of the search scratch (Dijkstra engine + candidate
    /// dedup table); the tree pool reports its own.
    pub fn scratch_bytes(&self) -> usize {
        self.engine.memory_bytes() + self.best.memory_bytes()
    }

    /// Exact network distance from a root to a point, *given* that the
    /// point is within the root's expansion tree region (i.e. at distance
    /// ≤ kNN_dist): the minimum over the point's edge endpoints in the
    /// tree, plus the direct along-edge path when the point shares the
    /// root's edge.
    ///
    /// For points outside the region the returned value is an upper bound
    /// that is guaranteed to exceed `kNN_dist`, which is exactly what
    /// update classification needs (§4.2).
    pub fn dist_via_tree(
        &self,
        weights: &EdgeWeights,
        tree: &ExpansionTree,
        root: RootPos,
        p: NetPoint,
    ) -> f64 {
        let mut best = f64::INFINITY;
        if let RootPos::Point(rp) = root {
            if rp.edge == p.edge {
                best = (rp.frac - p.frac).abs() * weights.get(p.edge);
            }
        }
        let rec = self.net.edge(p.edge);
        let w = weights.get(p.edge);
        if let Some(d) = tree.dist(&self.pool, rec.start) {
            best = best.min(d + p.frac * w);
        }
        if let Some(d) = tree.dist(&self.pool, rec.end) {
            best = best.min(d + (1.0 - p.frac) * w);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::generators;

    /// Line 0-1-2-3-4, spacing 1; objects at the midpoints of edges 0..4.
    fn line_ctx() -> (Expander, NetworkState) {
        let net = Arc::new(generators::line_network(5, 1.0));
        let mut state = NetworkState::new(&net);
        for e in net.edge_ids() {
            state.objects.insert(ObjectId(e.0), NetPoint::new(e, 0.5));
        }
        (Expander::new(net), state)
    }

    #[test]
    fn initial_search_on_line() {
        let (mut ex, state) = line_ctx();
        let mut c = OpCounters::default();
        // Query at frac 0.5 of edge 1 (x = 1.5). Object distances:
        // o1: 0, o0: 1, o2: 1, o3: 2, o4: 3.
        let root = RootPos::Point(NetPoint::new(EdgeId(1), 0.5));
        let out = ex.expand(&state, root, 3, None, &[], &mut c);
        assert_eq!(out.result.len(), 3);
        assert_eq!(
            out.result[0],
            Neighbor {
                object: ObjectId(1),
                dist: 0.0
            }
        );
        // Objects 0 and 2 tie at distance 1; id ascending.
        assert_eq!(
            out.result[1],
            Neighbor {
                object: ObjectId(0),
                dist: 1.0
            }
        );
        assert_eq!(
            out.result[2],
            Neighbor {
                object: ObjectId(2),
                dist: 1.0
            }
        );
        assert_eq!(out.knn_dist, 1.0);
        // Tree: all nodes within distance 1 of x=1.5 -> nodes 1 (x=1) and
        // 2 (x=2), at distance 0.5 each.
        assert_eq!(out.tree.len(), 2);
        assert_eq!(out.tree.dist(&ex.pool, NodeId(1)), Some(0.5));
        assert_eq!(out.tree.dist(&ex.pool, NodeId(2)), Some(0.5));
        ex.pool.check_invariants(&out.tree, &ex.net, &state.weights);
        assert!(c.nodes_settled >= 2);
        // One expansion is one re-evaluation; the harvest folds its steps.
        assert_eq!(c.reevaluations, 1);
        ex.harvest(&mut c);
        assert!(c.expansion_steps >= 2);
    }

    #[test]
    fn node_root_search() {
        let (mut ex, state) = line_ctx();
        let mut c = OpCounters::default();
        let out = ex.expand(&state, RootPos::Node(NodeId(0)), 2, None, &[], &mut c);
        // From node 0: o0 at 0.5, o1 at 1.5.
        assert_eq!(
            out.result[0],
            Neighbor {
                object: ObjectId(0),
                dist: 0.5
            }
        );
        assert_eq!(
            out.result[1],
            Neighbor {
                object: ObjectId(1),
                dist: 1.5
            }
        );
        assert_eq!(out.knn_dist, 1.5);
        // Root node itself is in the tree at distance 0.
        assert_eq!(out.tree.dist(&ex.pool, NodeId(0)), Some(0.0));
    }

    #[test]
    fn underflow_returns_fewer_than_k() {
        let (mut ex, _) = line_ctx();
        let mut state = NetworkState::new(&ex.net);
        state
            .objects
            .insert(ObjectId(0), NetPoint::new(EdgeId(0), 0.5));
        let mut c = OpCounters::default();
        let out = ex.expand(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            5,
            None,
            &[],
            &mut c,
        );
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.knn_dist, f64::INFINITY);
        // The tree covers the whole (reachable) network.
        assert_eq!(out.tree.len(), ex.net.num_nodes());
    }

    #[test]
    fn kept_tree_resumes_identically() {
        // Run a fresh search; then re-run with the pruned tree of a smaller
        // search as the kept part — results must match the fresh search.
        let (mut ex, state) = line_ctx();
        let mut c = OpCounters::default();
        let root = RootPos::Point(NetPoint::new(EdgeId(0), 0.1));

        let small = ex.expand(&state, root, 2, None, &[], &mut c);
        let fresh = ex.expand(&state, root, 4, None, &[], &mut c);
        let resumed = ex.expand(
            &state,
            root,
            4,
            Some(KeptTree::full(small.tree)),
            &[],
            &mut c,
        );
        assert_eq!(fresh.result, resumed.result);
        assert_eq!(fresh.knn_dist, resumed.knn_dist);
        assert_eq!(fresh.tree.len(), resumed.tree.len());
        ex.pool
            .check_invariants(&resumed.tree, &ex.net, &state.weights);
    }

    #[test]
    fn extra_candidates_seed_result() {
        let (mut ex, state) = line_ctx();
        let mut c = OpCounters::default();
        let root = RootPos::Point(NetPoint::new(EdgeId(1), 0.5));
        // Claim a fake very-near candidate; it must appear in the result.
        let out = ex.expand(
            &state,
            root,
            2,
            None,
            &[Neighbor {
                object: ObjectId(99),
                dist: 0.25,
            }],
            &mut c,
        );
        assert!(out.result.iter().any(|n| n.object == ObjectId(99)));
    }

    #[test]
    fn best_k_dedups_and_keeps_minimum() {
        let mut b = BestK::new(2);
        b.offer(ObjectId(1), 5.0);
        b.offer(ObjectId(2), 3.0);
        b.offer(ObjectId(1), 2.0); // improves
        b.offer(ObjectId(3), 10.0); // too far
        assert_eq!(b.kth(), 3.0);
        let r = b.into_result();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r[0],
            Neighbor {
                object: ObjectId(1),
                dist: 2.0
            }
        );
        assert_eq!(
            r[1],
            Neighbor {
                object: ObjectId(2),
                dist: 3.0
            }
        );
    }

    #[test]
    fn best_k_reuse_is_allocation_free_and_isolated() {
        // The epoch-stamped scratch must (a) forget everything on reset and
        // (b) stop allocating once its high-water capacity is reached.
        let mut b = BestK::new(3);
        for i in 0..40u32 {
            b.offer(ObjectId(i), f64::from(i));
        }
        let first = b.clone_result();
        assert_eq!(first.len(), 3);
        b.take_alloc_events();
        for round in 0..50u32 {
            b.reset(3);
            // Same objects, different distances each round: stale slots
            // from earlier epochs must never leak through.
            for i in 0..40u32 {
                b.offer(ObjectId(i), f64::from((i + round) % 40));
            }
            let r = b.clone_result();
            assert_eq!(r.len(), 3);
            assert_eq!(r[0].dist, 0.0);
            for w in r.windows(2) {
                assert!(w[0].sort_key() <= w[1].sort_key());
            }
        }
        assert_eq!(
            b.take_alloc_events(),
            0,
            "reused searches must not grow the dedup scratch"
        );
    }

    /// The accumulator as it was when every offer went through the table
    /// first and was only then held against the k-th: the behaviour
    /// [`BestK::offer`]'s early rejection must reproduce exactly.
    struct ProbeFirst {
        k: usize,
        known: std::collections::HashMap<ObjectId, f64>,
        top: Vec<Neighbor>,
    }

    impl ProbeFirst {
        fn offer(&mut self, object: ObjectId, dist: f64) {
            match self.known.get_mut(&object) {
                None => {
                    self.known.insert(object, dist);
                }
                Some(known) if *known <= dist => return,
                Some(known) => {
                    *known = dist;
                    self.top.retain(|n| n.object != object);
                }
            }
            if self.top.len() == self.k && dist >= self.top[self.k - 1].dist {
                return;
            }
            let at = self
                .top
                .partition_point(|n| (n.dist, n.object) < (dist, object));
            self.top.insert(at, Neighbor { object, dist });
            self.top.truncate(self.k);
        }
    }

    #[test]
    fn best_k_early_rejection_changes_no_answer() {
        // Random offer sequences with repeated objects and tied distances
        // (few distinct values of each), checked after every single offer.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % below
        };
        let mut b = BestK::default();
        for round in 0..400 {
            let k = 1 + next(8) as usize;
            let objects = 1 + next(24);
            let dists = 1 + next(12);
            b.reset(k);
            let mut reference = ProbeFirst {
                k,
                known: Default::default(),
                top: Vec::new(),
            };
            for step in 0..next(120) {
                let object = ObjectId(next(objects) as u32);
                let dist = next(dists) as f64 * 0.5;
                b.offer(object, dist);
                reference.offer(object, dist);
                assert_eq!(b.top, reference.top, "round {round}, offer {step}");
                assert_eq!(
                    b.kth(),
                    reference.top.get(k - 1).map_or(f64::INFINITY, |n| n.dist)
                );
            }
        }
    }

    #[test]
    fn best_k_worse_offer_ignored() {
        let mut b = BestK::new(1);
        b.offer(ObjectId(1), 1.0);
        b.offer(ObjectId(1), 2.0);
        assert_eq!(b.kth(), 1.0);
    }

    #[test]
    fn best_k_default_is_usable_without_reset() {
        // Regression: the default epoch must not alias the never-written
        // slot stamp (0), or the first offer's probe loop would see every
        // fresh slot as occupied and spin forever.
        let mut b = BestK::default();
        b.offer(ObjectId(7), 2.0);
        b.offer(ObjectId(3), 1.0);
        let r = b.clone_result();
        assert_eq!(r.len(), 1, "default accumulates 1-best");
        assert_eq!(r[0].object, ObjectId(3));
    }

    #[test]
    fn dist_via_tree_matches_search_distances() {
        let (mut ex, state) = line_ctx();
        let mut c = OpCounters::default();
        let root = RootPos::Point(NetPoint::new(EdgeId(1), 0.5));
        let out = ex.expand(&state, root, 3, None, &[], &mut c);
        for n in &out.result {
            let pos = state.objects.position(n.object).unwrap();
            let d = ex.dist_via_tree(&state.weights, &out.tree, root, pos);
            assert!((d - n.dist).abs() < 1e-12, "object {:?}", n.object);
        }
        // A far object is reported beyond knn_dist.
        let far = state.objects.position(ObjectId(3)).unwrap();
        assert!(ex.dist_via_tree(&state.weights, &out.tree, root, far) > out.knn_dist);
    }

    #[test]
    fn search_on_generated_network_matches_oracle() {
        // Brute-force oracle: distance from the query to every object via
        // the engine's point-to-point distance.
        let net = Arc::new(generators::grid_city(&generators::GridCityConfig {
            nx: 5,
            ny: 5,
            seed: 11,
            ..Default::default()
        }));
        let mut state = NetworkState::new(&net);
        for (i, e) in net.edge_ids().enumerate() {
            if i % 2 == 0 {
                state
                    .objects
                    .insert(ObjectId(i as u32), NetPoint::new(e, 0.3));
            }
        }
        let mut ex = Expander::new(net.clone());
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let mut c = OpCounters::default();
        let q = NetPoint::new(EdgeId(7), 0.6);
        let out = ex.expand(&state, RootPos::Point(q), 5, None, &[], &mut c);

        let mut oracle: Vec<Neighbor> = state
            .objects
            .iter()
            .map(|(id, pos)| Neighbor {
                object: id,
                dist: eng.dist_between_points(&net, &state.weights, q, pos),
            })
            .collect();
        sort_neighbors(&mut oracle);
        oracle.truncate(5);
        for (a, b) in out.result.iter().zip(&oracle) {
            assert!((a.dist - b.dist).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }
}
