//! The incremental-monitoring machinery (§4), shared by IMA and GMA.
//!
//! An **anchor** is anything whose k-NN set is continuously maintained with
//! an expansion tree and influence lists: a user query in [`crate::ima::Ima`]
//! (rooted at a point, movable), or an active intersection node in
//! [`crate::gma::Gma`] (rooted at a node, static — §5: "Monitoring the NNs
//! of active nodes is performed with IMA, except that [the query-movement
//! lines] are never executed").
//!
//! [`AnchorSet::tick`] implements the complete IMA update schedule
//! (Figure 10): root moves out of their trees first, then edge-weight
//! changes, then root moves within trees, then object updates, and finally
//! one re-expansion per affected anchor that reuses the surviving part of
//! its expansion tree.
//!
//! ## Deviation from the paper's §4.4 pruning (documented)
//!
//! For decreasing weights the paper keeps (i) the subtree under the updated
//! edge with shifted distances and (ii) the rest of the tree up to the
//! updated edge's far endpoint. With several simultaneous updates the
//! interactions of rule (i) are subtle (the paper prescribes a processing
//! order to stay correct), so this implementation uses the *batched
//! conservative* form of rule (ii): all decreases affecting an anchor are
//! folded into one radius `θ = min over decreased edges e of
//! (min distance of e's verified endpoints + new weight of e)` and the tree
//! is pruned to `θ` in one step. Every kept distance is provably still
//! optimal under the post-tick weights (any improved path must cross a
//! decreased edge, paying at least `θ` to do so), for any number of
//! concurrent increases and decreases. The cost is a somewhat smaller kept
//! tree than the paper's rule (i) would retain; correctness is validated
//! differentially against from-scratch recomputation in the test suite.

use std::sync::Arc;

use rnn_roadnet::{EdgeId, FxHashMap, FxHashSet, NetPoint, NodeId, ObjectId, RoadNetwork};

use crate::counters::{push_charged, refill_charged, reserve_charged, OpCounters, SCRATCH_ROOM};
use crate::influence::{InfluenceTable, IntervalSet};
use crate::search::{Expander, KeptTree, SearchOutcome};
use crate::state::{EdgeDelta, NetworkState, ObjectDelta};
use crate::tree::ExpansionTree;
use crate::types::{cmp_neighbors, Neighbor, RootPos};

/// Handle to an anchor within an [`AnchorSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AnchorKey(pub u32);

/// Per-anchor monitored state (one row of the paper's **QT** / **NT**).
pub struct AnchorRec {
    /// Where the expansion is rooted.
    pub root: RootPos,
    /// Number of neighbors monitored.
    pub k: usize,
    /// Current k-NN set, sorted by `(dist, id)`.
    pub result: Vec<Neighbor>,
    /// Distance of the k-th NN (`∞` when fewer than k objects exist).
    pub knn_dist: f64,
    /// The expansion tree — a handle into the pool of the set's
    /// [`Expander`].
    pub tree: ExpansionTree,
    /// Edges currently carrying this anchor in their influence lists.
    pub influenced: Vec<EdgeId>,
    /// What the tick in progress has found for this anchor to do
    /// ([`Pending::IDLE`] between ticks).
    work: Pending,
}

/// A set of anchors maintained incrementally over a shared
/// [`NetworkState`].
pub struct AnchorSet {
    anchors: FxHashMap<AnchorKey, AnchorRec>,
    il: InfluenceTable<AnchorKey>,
    /// Runs every expansion of the set; its pool is the arena all anchors'
    /// expansion trees live in, so tree surgery (subtree cuts, θ-prunes,
    /// re-expansion inserts) recycles slots instead of touching the heap.
    expander: Expander,
    /// Scratch for the tick's shared multi-k expansion outcomes (cleared
    /// every tick; a field so its capacity is reused).
    shared_outcomes: Vec<SearchOutcome>,
    /// Expansion work charged to the partition cell (edge) of each
    /// expansion root since the last take — the load signal the sharded
    /// engine's rebalance planner ranks candidate cells by. Reused
    /// capacity; cleared by the owning monitor at the start of each tick.
    cell_charges: Vec<(EdgeId, u64)>,
    /// The anchors whose reported result changed in the last tick.
    changed: Vec<AnchorKey>,
    /// The tick's other lists, emptied and refilled every tick; their
    /// growth is charged to `alloc_events`.
    scratch: TickScratch,
    next_key: u32,
    /// Ablation switch: with influence lists disabled, every anchor is
    /// treated as affected by every update (used to quantify the paper's
    /// "process only updates that may invalidate" claim).
    pub use_influence_lists: bool,
}

impl AnchorSet {
    /// Creates an empty set over the given network.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Self {
            // lint: allow(hot-path-alloc): construction; grows when anchors are added
            anchors: FxHashMap::default(),
            il: InfluenceTable::new(net.num_edges()),
            expander: Expander::new(net),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; it holds one outcome per co-rooted group of a tick
            shared_outcomes: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; one entry per expansion of a tick
            cell_charges: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; the tick charges its growth
            changed: Vec::new(),
            scratch: TickScratch::new(),
            next_key: 0,
            use_influence_lists: true,
        }
    }

    /// Folds the expander's and the influence table's allocation/step
    /// counters (accumulated by out-of-tick work such as query installs)
    /// into `c`. [`Self::tick`] harvests its own share automatically.
    pub fn harvest_scratch_counters(&mut self, c: &mut OpCounters) {
        self.expander.harvest(c);
        c.alloc_events += self.il.take_alloc_events();
    }

    /// Drops the accumulated per-cell expansion charges (called by the
    /// owning monitor at the start of each tick so the buffer holds
    /// exactly one tick of attribution).
    pub fn clear_cell_charges(&mut self) {
        self.cell_charges.clear();
    }

    /// Drains the per-cell expansion charges recorded since the last
    /// drain — `(cell edge of the expansion root, Dijkstra steps)` per
    /// search — into `into`. The internal buffer keeps its capacity, so
    /// per-tick recording never re-allocates; the sharded engine folds
    /// the drained charges into its per-cell load estimates.
    pub fn drain_cell_charges(&mut self, into: &mut Vec<(EdgeId, u64)>) {
        into.append(&mut self.cell_charges);
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.expander.net
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Iterates over anchor keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = AnchorKey> + '_ {
        self.anchors.keys().copied()
    }

    /// The record of anchor `key`.
    pub fn get(&self, key: AnchorKey) -> Option<&AnchorRec> {
        self.anchors.get(&key)
    }

    /// Installs a new anchor and computes its initial result (§4.1).
    ///
    /// Allocation accounting: scratch events pending from earlier work are
    /// first drained into `counters.alloc_events` (maintenance), then the
    /// install's own allocations — a brand-new entity legitimately
    /// materialises fresh state — go to `counters.install_alloc_events`,
    /// keeping the steady-state maintenance guarantee clean.
    pub fn add(
        &mut self,
        state: &NetworkState,
        root: RootPos,
        k: usize,
        counters: &mut OpCounters,
    ) -> AnchorKey {
        self.harvest_scratch_counters(counters);
        let maintenance = counters.alloc_events;
        let key = AnchorKey(self.next_key);
        self.next_key += 1;
        let out = self.expander.expand(state, root, k, None, &[], counters);
        let mut rec = AnchorRec {
            root,
            k,
            // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
            result: Vec::new(),
            knn_dist: 0.0,
            tree: ExpansionTree::new(),
            // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
            influenced: Vec::new(),
            work: Pending::IDLE,
        };
        self.store_outcome(&mut rec, out);
        self.rebuild_influence(state, key, &mut rec, counters);
        self.anchors.insert(key, rec);
        // The tick's lists of anchors hold each anchor at most once (twice
        // where an update's old and new position are looked up): sized
        // here, they never grow in a tick.
        let n = self.anchors.len();
        let allocs = &mut counters.alloc_events;
        reserve_charged(&mut self.scratch.queued, n, allocs);
        reserve_charged(&mut self.scratch.by_root, n, allocs);
        reserve_charged(&mut self.scratch.affected, 2 * n, allocs);
        reserve_charged(&mut self.changed, n, allocs);
        reserve_charged(&mut self.shared_outcomes, n / 2, allocs);
        self.harvest_scratch_counters(counters);
        // Everything allocated since the first harvest was the install's.
        counters.install_alloc_events +=
            std::mem::replace(&mut counters.alloc_events, maintenance) - maintenance;
        key
    }

    /// Removes an anchor, clearing its influence-list entries and
    /// returning its tree nodes to the pool.
    pub fn remove(&mut self, key: AnchorKey) -> bool {
        match self.anchors.remove(&key) {
            Some(rec) => {
                for e in rec.influenced {
                    self.il.remove(e, key);
                }
                self.expander.pool.release(rec.tree);
                true
            }
            None => false,
        }
    }

    /// Changes the number of monitored neighbors (GMA adjusts `n.k` as
    /// queries with different `k` enter/leave a node's sequences).
    pub fn set_k(
        &mut self,
        state: &NetworkState,
        key: AnchorKey,
        k: usize,
        counters: &mut OpCounters,
    ) {
        // The records are set aside so that one of them and the rest of
        // the set can be borrowed together (as in `tick`).
        let mut anchors = std::mem::take(&mut self.anchors);
        if let Some(rec) = anchors.get_mut(&key).filter(|rec| rec.k != k) {
            let grow = k > rec.k;
            rec.k = k;
            if grow {
                // Re-expand, reusing the whole current tree (full re-scan:
                // the result region is about to widen).
                let kept = KeptTree::full(std::mem::take(&mut rec.tree));
                let out = self
                    .expander
                    .expand(state, rec.root, k, Some(kept), &[], counters);
                self.store_outcome(rec, out);
            } else {
                // Keep the k best, tighten tree and intervals.
                rec.result.truncate(k);
                rec.knn_dist = if rec.result.len() == k {
                    rec.result[k - 1].dist
                } else {
                    f64::INFINITY
                };
                counters.tree_nodes_pruned +=
                    self.expander
                        .pool
                        .retain_within(&mut rec.tree, rec.knn_dist) as u64;
            }
            self.rebuild_influence(state, key, rec, counters);
        }
        self.anchors = anchors;
    }

    /// The anchors whose reported result (ids or distances) changed in the
    /// last [`Self::tick`], in ascending key order.
    pub fn changed(&self) -> &[AnchorKey] {
        &self.changed
    }

    /// The anchors whose influencing intervals cover `(edge, frac)` —
    /// exactly the set an object update at that position would be checked
    /// against. Exposed for tests and debugging.
    pub fn covering(&self, edge: EdgeId, frac: f64) -> Vec<AnchorKey> {
        // lint: allow(hot-path-alloc): covering() is materialized only for install/resync callers, not per tick; charged to alloc_events under the runtime gate
        self.il.covering(edge, frac).collect()
    }

    /// The influence-list entries on `edge` (anchor, intervals). Exposed
    /// for tests and debugging.
    pub fn influence_on_edge(&self, edge: EdgeId) -> &[(AnchorKey, IntervalSet)] {
        self.il.on_edge(edge)
    }

    /// Validates the structural invariants of every anchor (tests and
    /// debugging):
    ///
    /// * expansion-tree links and distances are consistent,
    /// * every tree distance equals the true network distance from the root
    ///   (verified with an independent Dijkstra),
    /// * results are sorted and `knn_dist` matches the k-th entry,
    /// * every result distance equals the true root→object distance.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn validate(&mut self, state: &NetworkState) {
        // Pool hygiene: every slab slot is owned by exactly one live tree
        // (no leaks from dropped handles, no double-frees).
        let owned: usize = self.anchors.values().map(|r| r.tree.len()).sum();
        let Expander {
            net, engine, pool, ..
        } = &mut self.expander;
        let net: &RoadNetwork = net;
        assert_eq!(
            pool.live_nodes(),
            owned,
            "tree pool leaked slots: {} live vs {} owned by anchors",
            pool.live_nodes(),
            owned
        );
        for (key, rec) in &self.anchors {
            pool.check_invariants(&rec.tree, net, &state.weights);
            // Results sorted, deduplicated, and knn_dist consistent.
            for w in rec.result.windows(2) {
                assert!(
                    w[0].sort_key() <= w[1].sort_key(),
                    "result not sorted for {key:?}"
                );
                assert_ne!(w[0].object, w[1].object, "duplicate object in result");
            }
            if rec.result.len() == rec.k {
                assert_eq!(rec.knn_dist, rec.result[rec.k - 1].dist);
            } else {
                assert!(rec.result.len() < rec.k);
                assert_eq!(rec.knn_dist, f64::INFINITY);
            }
            // Tree distances are true shortest distances from the root.
            // The tree may legitimately extend beyond the current kNN_dist
            // (shrinks skip re-tightening), so bound the oracle expansion
            // by the deepest tree node instead.
            let deepest = rec
                .tree
                .iter(pool)
                .map(|(_, d)| d)
                .fold(rec.knn_dist.min(1e300), f64::max);
            engine.begin();
            match rec.root {
                RootPos::Node(n) => engine.seed(n, 0.0, None),
                RootPos::Point(p) => {
                    let e = net.edge(p.edge);
                    engine.seed(e.start, p.dist_to_start(&state.weights), None);
                    engine.seed(e.end, p.dist_to_end(&state.weights), None);
                }
            }
            while let Some((n, d)) = engine.pop_settle() {
                if d > deepest * (1.0 + 1e-9) + 1e-9 {
                    break;
                }
                for &(e, m) in net.adjacent(n) {
                    engine.relax(m, n, d + state.weights.get(e));
                }
            }
            for (n, d) in rec.tree.iter(pool) {
                let truth = engine.dist_of(n).expect("tree node reachable");
                assert!(
                    (d - truth).abs() <= 1e-9 * truth.max(1.0),
                    "stale tree distance at {n:?} for {key:?}: {} vs {}",
                    d,
                    truth
                );
            }
            // Result distances are true distances.
            for nb in &rec.result {
                let pos = state
                    .objects
                    .position(nb.object)
                    .expect("result object exists");
                let truth = engine.dist_between_points(
                    net,
                    &state.weights,
                    match rec.root {
                        RootPos::Point(p) => p,
                        RootPos::Node(n) => {
                            rnn_roadnet::NetPoint::at_node(net, n).expect("non-isolated")
                        }
                    },
                    pos,
                );
                assert!(
                    (nb.dist - truth).abs() <= 1e-9 * truth.max(1.0),
                    "wrong result distance for {:?} at {key:?}: {} vs {}",
                    nb.object,
                    nb.dist,
                    truth
                );
            }
        }
    }

    /// Total resident bytes of trees, influence lists and anchor records.
    /// Tree bytes cover the shared node slab (pool) plus each anchor's
    /// directory handle.
    pub fn memory_breakdown(&self) -> (usize, usize, usize) {
        let mut trees = self.expander.pool.memory_bytes();
        let mut table = 0;
        for rec in self.anchors.values() {
            trees += rec.tree.memory_bytes();
            table += std::mem::size_of::<AnchorRec>()
                + rec.result.capacity() * std::mem::size_of::<Neighbor>()
                + rec.influenced.capacity() * std::mem::size_of::<EdgeId>();
        }
        (table, trees, self.il.memory_bytes())
    }

    /// Scratch (Dijkstra engine + candidate dedup table) bytes.
    pub fn scratch_bytes(&self) -> usize {
        self.expander.scratch_bytes()
    }
}

/// Per-anchor work accumulated while scanning a tick's updates.
#[derive(Clone, Copy)]
struct Pending {
    /// The anchor is in the tick's list of anchors to resolve.
    queued: bool,
    /// Re-run the initial computation from scratch …
    full: bool,
    /// … served from this shared multi-k expansion of the tick, if any.
    group: Option<usize>,
    /// Conservative decrease radius (∞ = no decrease affects this anchor).
    theta: f64,
    /// Child-side nodes of increased tree-link edges (subtrees to cut).
    cuts: Chain,
    /// Tree surgery happened → stored NN distances may be stale.
    dirty_tree: bool,
    /// Object deltas touching this anchor: `(object, new position)`.
    objects: Chain,
    /// New root, when the anchor moved within its tree this tick.
    moved_root: Option<RootPos>,
}

impl Pending {
    const IDLE: Self = Self {
        queued: false,
        full: false,
        group: None,
        theta: f64::INFINITY,
        cuts: Chain::EMPTY,
        dirty_tree: false,
        objects: Chain::EMPTY,
        moved_root: None,
    };
}

/// Many short append-only lists in one reused buffer: what a tick collects
/// *per anchor* (a handful of entries each, for hundreds of anchors) costs
/// no `Vec` per anchor, and anchors that come and go bring no buffers of
/// their own to grow. Entries link to their successor; every list is
/// dropped at once by clearing the buffer.
struct Chains<T> {
    entries: Vec<(T, u32)>,
}

/// One list of a [`Chains`] (meaningless once that is cleared).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    /// Past-the-end link; no buffer gets that long.
    const NIL: u32 = u32::MAX;
    const EMPTY: Self = Self {
        head: Self::NIL,
        tail: Self::NIL,
    };
}

impl<T: Copy> Chains<T> {
    fn new() -> Self {
        Self {
            entries: Vec::with_capacity(SCRATCH_ROOM),
        }
    }

    /// Appends `x` to `chain`, charging buffer growth to `allocs`.
    fn push(&mut self, chain: &mut Chain, x: T, allocs: &mut u64) {
        let at = self.entries.len() as u32;
        push_charged(&mut self.entries, (x, Chain::NIL), allocs);
        match chain.tail {
            Chain::NIL => chain.head = at,
            tail => self.entries[tail as usize].1 = at,
        }
        chain.tail = at;
    }

    /// The entries of `chain`, in the order they were appended.
    fn iter(&self, chain: Chain) -> impl Iterator<Item = T> + '_ {
        let mut at = chain.head;
        std::iter::from_fn(move || {
            let &(x, next) = self.entries.get(at as usize)?;
            at = next;
            Some(x)
        })
    }
}

/// Reused buffers of [`AnchorSet::tick`] and of the anchor resolutions it
/// runs. Each starts with [`SCRATCH_ROOM`], and the lists of anchors are
/// given room for every anchor whenever one is added; a tick that still
/// outgrows one charges that to `alloc_events`.
struct TickScratch {
    /// Anchors with pending work, each once; sorted before resolution.
    queued: Vec<AnchorKey>,
    /// The lists their work records refer to.
    objects: Chains<(ObjectId, Option<NetPoint>)>,
    cuts: Chains<NodeId>,
    /// Anchors one update affects.
    affected: Vec<AnchorKey>,
    /// Edges whose weight changed this tick.
    changed_edges: FxHashSet<EdgeId>,
    /// `(root identity, anchor)` of every anchor due a from-scratch
    /// recomputation, sorted: co-rooted anchors are adjacent.
    by_root: Vec<((u8, u32, u64), AnchorKey)>,
    /// Survivor candidates of the resolution in progress (§4.2) …
    candidates: Vec<Neighbor>,
    /// … and, sorted, the objects this tick's updates touch, which are
    /// not survivors.
    touched: Vec<ObjectId>,
    /// `(edge, interval)` pairs of the influence rebuild in progress.
    intervals: Vec<(EdgeId, IntervalSet)>,
}

impl TickScratch {
    fn new() -> Self {
        Self {
            queued: Vec::with_capacity(SCRATCH_ROOM),
            objects: Chains::new(),
            cuts: Chains::new(),
            affected: Vec::with_capacity(SCRATCH_ROOM),
            changed_edges: FxHashSet::with_capacity_and_hasher(SCRATCH_ROOM, Default::default()),
            by_root: Vec::with_capacity(SCRATCH_ROOM),
            candidates: Vec::with_capacity(SCRATCH_ROOM),
            touched: Vec::with_capacity(SCRATCH_ROOM),
            intervals: Vec::with_capacity(SCRATCH_ROOM),
        }
    }
}

impl AnchorSet {
    /// Processes one timestamp of updates and returns the work it took;
    /// [`Self::changed`] then lists the anchors whose result changed.
    /// `state` must already reflect the post-tick weights and object
    /// placement (see [`NetworkState::apply_batch`]); `objects` / `edges`
    /// carry the coalesced deltas with old values; `root_moves` carries
    /// anchor movements (IMA queries; empty for GMA's static nodes).
    pub fn tick(
        &mut self,
        state: &NetworkState,
        objects: &[ObjectDelta],
        edges: &[EdgeDelta],
        root_moves: &[(AnchorKey, RootPos)],
    ) -> OpCounters {
        let mut counters = OpCounters::default();
        // The records are set aside for the tick, so that a record and the
        // rest of the set — what resolves it — can be borrowed together.
        let mut anchors = std::mem::take(&mut self.anchors);
        let scratch = &mut self.scratch;
        scratch.queued.clear();
        scratch.cuts.entries.clear();
        // Most object deltas are handed to at most one anchor: room for one
        // entry per delta up front keeps the list from creeping up to that
        // size one re-allocation at a time. (With no anchor to hand them
        // to — a population being loaded — the list is left as it is.)
        scratch.objects.entries.clear();
        if !anchors.is_empty() && scratch.objects.entries.capacity() < objects.len() {
            counters.alloc_events += 1;
            scratch.objects.entries.reserve(objects.len());
        }

        // ---- Figure 10, lines 1-3: roots moving outside their trees.
        for &(key, new_root) in root_moves {
            let Some(rec) = anchors.get_mut(&key) else {
                continue;
            };
            let outside = !root_within_tree(&self.expander.net, rec, new_root);
            let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
            p.moved_root = Some(new_root);
            if outside {
                p.full = true;
            }
        }

        // ---- Lines 4-13: edge updates.
        //
        // Per affected anchor, a weight change is first tested for
        // *harmlessness to the expansion tree*: if no shortest path in the
        // tree region can improve through the updated edge, the stored
        // distances all stay valid and only the objects **on** that edge
        // change distance — those are funneled into the cheap object
        // fast path. Otherwise the conservative batched rule applies: θ
        // across all decreases, subtree cuts for increased tree links.
        for d in edges {
            scratch.affected.clear();
            if self.use_influence_lists {
                for &(k, _) in self.il.on_edge(d.edge) {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            } else {
                for &k in anchors.keys() {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            }
            if scratch.affected.is_empty() {
                counters.updates_ignored += 1;
                continue;
            }
            for &key in &scratch.affected {
                let Some(rec) = anchors.get_mut(&key) else {
                    continue;
                };
                let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
                if p.full {
                    continue; // recomputation already scheduled
                }
                if rec.root.edge() == Some(d.edge) {
                    // Weight change on the root's own edge rescales both
                    // root branches; recompute (documented simplification
                    // of the paper's §4.4 special case).
                    p.full = true;
                    continue;
                }
                let erec = self.expander.net.edge(d.edge);
                let da = rec.tree.dist(&self.expander.pool, erec.start);
                let db = rec.tree.dist(&self.expander.pool, erec.end);
                if d.new_w < d.old_w {
                    // A decrease can only invalidate tree distances by
                    // creating a shortcut through the edge; entering at a
                    // verified endpoint and crossing costs at least
                    // `d(endpoint) + new_w`.
                    let harmless = match (da, db) {
                        (Some(a), Some(b)) => a + d.new_w >= b && b + d.new_w >= a,
                        (Some(a), None) => a + d.new_w >= rec.knn_dist,
                        (None, Some(b)) => b + d.new_w >= rec.knn_dist,
                        // No verified endpoint: strictly beyond kNN_dist.
                        (None, None) => true,
                    };
                    if harmless {
                        requeue_objects_on(d.edge, state, p, &mut scratch.objects, &mut counters);
                        // The stored influencing interval is a *fraction*
                        // of the edge computed under the old weight; with a
                        // smaller weight the same fraction covers less
                        // distance, i.e. it would under-cover. Re-derive it
                        // from the tree distances and the new weight
                        // (increases over-cover, which is safe, so only
                        // decreases need this).
                        let slack = interval_slack(rec.knn_dist);
                        let mut ivs = IntervalSet::empty();
                        if let Some(a) = da {
                            let f = ((rec.knn_dist - a + slack) / d.new_w).min(1.0);
                            ivs.add(0.0, f);
                        }
                        if let Some(b) = db {
                            let f = ((rec.knn_dist - b + slack) / d.new_w).min(1.0);
                            ivs.add(1.0 - f, 1.0);
                        }
                        self.il.insert(d.edge, key, ivs);
                    } else {
                        p.dirty_tree = true;
                        let d_min = [da, db].into_iter().flatten().fold(f64::INFINITY, f64::min);
                        if d_min.is_finite() {
                            p.theta = p.theta.min(d_min + d.new_w);
                        }
                    }
                } else if let Some(child) =
                    rec.tree
                        .link_child_of_edge(&self.expander.pool, &self.expander.net, d.edge)
                {
                    // Increase of a tree link: the subtree below it may be
                    // reachable on cheaper alternate paths (§4.4).
                    scratch
                        .cuts
                        .push(&mut p.cuts, child, &mut counters.alloc_events);
                    p.dirty_tree = true;
                } else {
                    // Increase of a non-link edge: no shortest path used
                    // it, so the tree is untouched; only the objects on the
                    // edge drift away.
                    requeue_objects_on(d.edge, state, p, &mut scratch.objects, &mut counters);
                }
            }
        }

        // ---- Lines 16-19: object updates, classified via influence lists.
        for d in objects {
            scratch.affected.clear();
            if self.use_influence_lists {
                for p in [d.old, d.new].into_iter().flatten() {
                    for k in self.il.covering(p.edge, p.frac) {
                        push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                    }
                }
            } else {
                for &k in anchors.keys() {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            }
            if scratch.affected.is_empty() {
                counters.updates_ignored += 1;
                continue;
            }
            // Deterministic order, duplicates dropped (an anchor may cover
            // both the old and the new position).
            scratch.affected.sort_unstable();
            scratch.affected.dedup();
            for &key in &scratch.affected {
                let Some(rec) = anchors.get_mut(&key) else {
                    continue;
                };
                let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
                if !p.full {
                    scratch
                        .objects
                        .push(&mut p.objects, (d.id, d.new), &mut counters.alloc_events);
                }
            }
        }

        // ---- Lines 20-26: resolve every affected anchor, in key order.
        let edge_set_capacity = scratch.changed_edges.capacity();
        scratch.changed_edges.clear();
        scratch.changed_edges.extend(edges.iter().map(|d| d.edge));
        counters.alloc_events += u64::from(scratch.changed_edges.capacity() > edge_set_capacity);
        scratch.queued.sort_unstable();
        self.changed.clear();

        // Shared multi-k expansion: anchors that need a *from-scratch*
        // recomputation this tick and sit at bit-identical roots run ONE
        // expansion at the group's largest k; every member is served from
        // that outcome (its own top-k prefix plus the tree pruned to its
        // own kNN_dist — exactly what an independent expansion returns).
        scratch.by_root.clear();
        for &key in &scratch.queued {
            let rec = &anchors[&key];
            if rec.work.full {
                let root = rec.work.moved_root.unwrap_or(rec.root);
                push_charged(
                    &mut scratch.by_root,
                    (root_group_key(root), key),
                    &mut counters.alloc_events,
                );
            }
        }
        scratch.by_root.sort_unstable();
        // Groups expand in the order of their first (smallest) member:
        // deterministic counters and engine epochs.
        for i in 0..self.scratch.queued.len() {
            let first = &anchors[&self.scratch.queued[i]];
            if !first.work.full || first.work.group.is_some() {
                continue;
            }
            let root = first.work.moved_root.unwrap_or(first.root);
            let id = root_group_key(root);
            let members = {
                let by_root = &self.scratch.by_root;
                let lo = by_root.partition_point(|g| g.0 < id);
                let hi = by_root.partition_point(|g| g.0 <= id);
                &by_root[lo..hi]
            };
            if members.len() < 2 {
                continue;
            }
            let k_max = members
                .iter()
                .map(|(_, k)| anchors[k].k)
                .max()
                .expect("non-empty group");
            counters.shared_expansions += members.len() as u64 - 1;
            let out = self
                .expander
                .expand(state, root, k_max, None, &[], &mut counters);
            let steps = out.steps;
            let group = Some(self.shared_outcomes.len());
            push_charged(&mut self.shared_outcomes, out, &mut counters.alloc_events);
            for (_, member) in members {
                anchors
                    .get_mut(member)
                    .expect("group members are queued anchors")
                    .work
                    .group = group;
            }
            self.charge_cell(root, steps);
        }

        for i in 0..self.scratch.queued.len() {
            let key = self.scratch.queued[i];
            let rec = anchors.get_mut(&key).expect("queued anchors exist");
            let work = std::mem::replace(&mut rec.work, Pending::IDLE);
            let did_change = match work.group {
                Some(group) => {
                    self.serve_from_shared(state, key, rec, work.moved_root, group, &mut counters)
                }
                None => self.resolve_anchor(state, key, rec, work, &mut counters),
            };
            if did_change {
                push_charged(&mut self.changed, key, &mut counters.alloc_events);
            }
        }
        self.anchors = anchors;
        for out in self.shared_outcomes.drain(..) {
            self.expander.pool.release(out.tree);
        }

        self.harvest_scratch_counters(&mut counters);
        counters
    }
}

/// Puts `key` on the tick's list of anchors to resolve (once) and returns
/// the work record to add to.
fn enqueue<'a>(
    key: AnchorKey,
    work: &'a mut Pending,
    queued: &mut Vec<AnchorKey>,
    counters: &mut OpCounters,
) -> &'a mut Pending {
    if !work.queued {
        work.queued = true;
        push_charged(queued, key, &mut counters.alloc_events);
    }
    work
}

/// A weight change that leaves the tree as it is still moves the objects
/// on the edge: hands them to the object fast path at their (unchanged)
/// positions.
fn requeue_objects_on(
    edge: EdgeId,
    state: &NetworkState,
    work: &mut Pending,
    objects: &mut Chains<(ObjectId, Option<NetPoint>)>,
    counters: &mut OpCounters,
) {
    for &(obj, frac) in state.objects.on_edge(edge) {
        let at = Some(NetPoint::new(edge, frac));
        objects.push(&mut work.objects, (obj, at), &mut counters.alloc_events);
    }
}

/// Hashable identity of a root position. Point roots group only on
/// bit-identical fractions — the precondition for two expansions being the
/// same expansion.
fn root_group_key(root: RootPos) -> (u8, u32, u64) {
    match root {
        RootPos::Node(n) => (0, n.0, 0),
        RootPos::Point(p) => (1, p.edge.0, p.frac.to_bits()),
    }
}

/// Whether `new_root` falls inside the anchor's current expansion-tree
/// region (§4.3: "if q′ falls in some edge of q.tree" — including partial
/// edges, detected via the tree distances of the edge endpoints).
fn root_within_tree(net: &RoadNetwork, rec: &AnchorRec, new_root: RootPos) -> bool {
    match new_root {
        RootPos::Node(n) => rec.tree.contains(n),
        RootPos::Point(p) => {
            // Within the old root's own edge is always "inside".
            if rec.root.edge() == Some(p.edge) {
                return true;
            }
            let erec = net.edge(p.edge);
            rec.tree.contains(erec.start) || rec.tree.contains(erec.end)
        }
    }
}

impl AnchorSet {
    /// Serves one anchor of a root group from the group's shared multi-k
    /// expansion: its result is the top-`k` prefix of the shared result
    /// (the top-`k` of a top-`k_max` is the top-`k`), and its tree is the
    /// shared tree pruned to its own `kNN_dist` — the region an independent
    /// expansion would have verified. Returns whether the reported result
    /// changed.
    fn serve_from_shared(
        &mut self,
        state: &NetworkState,
        key: AnchorKey,
        rec: &mut AnchorRec,
        moved_root: Option<RootPos>,
        group: usize,
        counters: &mut OpCounters,
    ) -> bool {
        let (out, pool) = (&self.shared_outcomes[group], &mut self.expander.pool);
        if let Some(r) = moved_root {
            rec.root = r;
        }
        let served = &out.result[..rec.k.min(out.result.len())];
        let did_change = results_differ(&rec.result, served);
        refill_charged(&mut rec.result, served, &mut counters.alloc_events);
        rec.knn_dist = if served.len() == rec.k {
            rec.result[rec.k - 1].dist
        } else {
            f64::INFINITY
        };
        // Copy in place: the member's own cleared tree (slots + directory)
        // absorbs the shared outcome, so serving a group member never
        // touches the spare stack.
        let mut tree = std::mem::take(&mut rec.tree);
        pool.clone_into(&mut tree, &out.tree);
        rec.tree = tree;
        counters.tree_nodes_pruned += pool.retain_within(&mut rec.tree, rec.knn_dist) as u64;
        self.rebuild_influence(state, key, rec, counters);
        did_change
    }

    /// Applies pending work to one anchor and refreshes its result, reusing
    /// the surviving tree. Returns whether the reported result changed.
    fn resolve_anchor(
        &mut self,
        state: &NetworkState,
        key: AnchorKey,
        rec: &mut AnchorRec,
        work: Pending,
        counters: &mut OpCounters,
    ) -> bool {
        let mut old_result = std::mem::take(&mut rec.result);

        if work.full {
            if let Some(r) = work.moved_root {
                rec.root = r;
            }
            // Hand the invalidated tree to the search *cleared*: an empty kept
            // tree behaves exactly like a from-scratch expansion, but the
            // anchor's own slots and directory serve the recomputation
            // directly — no spare-stack round-trip, no allocation.
            let mut tree = std::mem::take(&mut rec.tree);
            counters.tree_nodes_pruned += self.expander.pool.clear(&mut tree) as u64;
            let kept = Some(KeptTree::full(tree));
            let out = self
                .expander
                .expand(state, rec.root, rec.k, kept, &[], counters);
            self.store_outcome(rec, out);
            self.rebuild_influence(state, key, rec, counters);
            return results_differ(&old_result, &rec.result);
        }

        let (ex, scratch) = (&mut self.expander, &mut self.scratch);
        let (candidates, touched) = (&mut scratch.candidates, &mut scratch.touched);

        // kNN_dist of the last structural rebuild: the selective re-scan rule
        // is stated relative to the region the tree/intervals were built for.
        let old_knn = rec.knn_dist;
        // Coverage radius for the selective re-scan. Re-rooting shifts every
        // kept distance down by the old distance of the new root, so the
        // radius must shift identically for the "strictly fully covered" test
        // to keep referring to the *old* region.
        let mut coverage_knn = old_knn;
        let mut dirty = work.dirty_tree;

        // Tree surgery from edge updates — pointer unlinks and free-list
        // pushes in the shared pool, no heap traffic.
        if work.theta < f64::INFINITY {
            counters.tree_nodes_pruned += ex.pool.retain_within(&mut rec.tree, work.theta) as u64;
        }
        for c in scratch.cuts.iter(work.cuts) {
            counters.tree_nodes_pruned += ex.pool.remove_subtree(&mut rec.tree, c) as u64;
        }

        // Root movement within the tree (queries only).
        if let Some(new_root) = work.moved_root {
            match valid_subtree_after_move(ex, &state.weights, rec, new_root) {
                Some((sub, shift)) => {
                    counters.tree_nodes_pruned +=
                        ex.pool.reroot_at_subtree(&mut rec.tree, sub, shift) as u64;
                    coverage_knn -= shift;
                }
                None => {
                    counters.tree_nodes_pruned += ex.pool.clear(&mut rec.tree) as u64;
                }
            }
            rec.root = new_root;
            dirty = true;
        }

        // Survivor candidates: previous NNs (and any incoming objects), with
        // distances re-derived from the surviving tree under current weights.
        // `dist_via_tree` only produces achievable path lengths, so a stale
        // survivor can never rank better than the truth; objects whose optimal
        // path now runs through re-expanded territory are re-found exactly by
        // the expansion itself.
        candidates.clear();
        touched.clear();
        for (id, _) in scratch.objects.iter(work.objects) {
            push_charged(touched, id, &mut counters.alloc_events);
        }
        touched.sort_unstable();
        for n in &old_result {
            if touched.binary_search(&n.object).is_ok() {
                continue;
            }
            if dirty {
                // Stored distance may be stale — re-derive (exact within the
                // kept region, a safe over-estimate outside it).
                if let Some(p) = state.objects.position(n.object) {
                    let d = ex.dist_via_tree(&state.weights, &rec.tree, rec.root, p);
                    counters.objects_considered += 1;
                    if d.is_finite() {
                        let survivor = Neighbor {
                            object: n.object,
                            dist: d,
                        };
                        push_charged(candidates, survivor, &mut counters.alloc_events);
                    }
                }
            } else {
                push_charged(candidates, *n, &mut counters.alloc_events);
            }
        }
        let slack = interval_slack(old_knn);
        for (id, new_pos) in scratch.objects.iter(work.objects) {
            let Some(p) = new_pos else { continue };
            let d = ex.dist_via_tree(&state.weights, &rec.tree, rec.root, p);
            counters.objects_considered += 1;
            let within = if dirty {
                d.is_finite()
            } else {
                d <= old_knn + slack
            };
            if within {
                let incoming = Neighbor {
                    object: id,
                    dist: d,
                };
                push_charged(candidates, incoming, &mut counters.alloc_events);
            }
        }
        candidates.sort_unstable_by(cmp_neighbors);
        candidates.dedup_by_key(|n| n.object);

        if !dirty && candidates.len() >= rec.k {
            // Object-only fast path (§4.2) with outgoing ≤ incoming: at least k
            // objects within the old kNN_dist, and the tree is intact so every
            // candidate distance above is exact.
            candidates.truncate(rec.k);
            rec.knn_dist = candidates[rec.k - 1].dist;
            let did_change = results_differ(&old_result, candidates);
            // The new result is written over the old one, in the anchor's own
            // buffer: nothing is allocated or freed.
            refill_charged(&mut old_result, candidates, &mut counters.alloc_events);
            rec.result = old_result;
            // The tree and the influence intervals are deliberately *not*
            // shrunk here even though kNN_dist may have decreased: a too-wide
            // influence region is always safe (it can only cause a spurious
            // affected-check later), and skipping the rebuild makes the §4.2
            // fast path allocation-free. The next structural re-expansion
            // re-tightens both.
            return did_change;
        }

        // Structural case (tree surgery and/or result underflow): re-expand
        // from the surviving tree. Kept-region edges strictly inside the old
        // result region need no re-scan — their objects are all among the
        // survivor candidates (see `KeptTree::selective`).
        let tree = std::mem::take(&mut rec.tree);
        let kept = if tree.is_empty() {
            ex.pool.release(tree);
            None
        } else {
            Some(KeptTree {
                tree,
                selective: Some((coverage_knn, &scratch.changed_edges)),
            })
        };
        let out = ex.expand(state, rec.root, rec.k, kept, candidates, counters);
        self.store_outcome(rec, out);
        self.rebuild_influence(state, key, rec, counters);
        results_differ(&old_result, &rec.result)
    }

    /// Rebuilds the influence-list entries of one anchor from its tree and
    /// kNN_dist (§3: intervals where the network distance is below
    /// kNN_dist).
    fn rebuild_influence(
        &mut self,
        state: &NetworkState,
        key: AnchorKey,
        rec: &mut AnchorRec,
        counters: &mut OpCounters,
    ) {
        let net: &RoadNetwork = &self.expander.net;
        let (pool, il, pairs) = (
            &self.expander.pool,
            &mut self.il,
            &mut self.scratch.intervals,
        );
        for e in rec.influenced.drain(..) {
            il.remove(e, key);
        }
        let slack = interval_slack(rec.knn_dist);
        // Collect one (edge, interval) pair per tree-adjacent half-edge, then
        // merge by edge id with a sort — cheaper than a hash map for the few
        // dozen entries a tree produces.
        pairs.clear();
        for (n, dist) in rec.tree.iter(pool) {
            let reach = rec.knn_dist - dist + slack;
            if reach < 0.0 {
                continue;
            }
            for &(e, _) in net.adjacent(n) {
                let w = state.weights.get(e);
                let f = (reach / w).min(1.0);
                let ivs = if net.edge(e).start == n {
                    IntervalSet::single(0.0, f)
                } else {
                    IntervalSet::single(1.0 - f, 1.0)
                };
                push_charged(pairs, (e, ivs), &mut counters.alloc_events);
            }
        }
        if let RootPos::Point(p) = rec.root {
            let w = state.weights.get(p.edge);
            let r = (rec.knn_dist + slack) / w;
            let ivs = IntervalSet::single(p.frac - r, p.frac + r);
            push_charged(pairs, (p.edge, ivs), &mut counters.alloc_events);
        }
        pairs.sort_unstable_by_key(|&(e, _)| e);
        let mut i = 0;
        while i < pairs.len() {
            let (e, mut ivs) = pairs[i];
            i += 1;
            while i < pairs.len() && pairs[i].0 == e {
                for &(lo, hi) in pairs[i].1.intervals() {
                    ivs.add(lo, hi);
                }
                i += 1;
            }
            if !ivs.is_empty() {
                il.insert(e, key, ivs);
                rec.influenced.push(e);
            }
        }
    }

    /// Writes the outcome of an expansion from `rec`'s root into the
    /// record, charging the expansion's steps to the root's cell and
    /// returning the record's previous tree to the pool.
    fn store_outcome(&mut self, rec: &mut AnchorRec, out: SearchOutcome) {
        self.charge_cell(rec.root, out.steps);
        rec.result = out.result;
        rec.knn_dist = out.knn_dist;
        let old = std::mem::replace(&mut rec.tree, out.tree);
        self.expander.pool.release(old);
    }

    /// Records `steps` of expansion work against the partition cell (edge)
    /// of the expansion root: the root's own edge for point roots, the
    /// first adjacent edge for node roots (GMA's active intersections).
    /// Deterministic and allocation-free in steady state (the buffer keeps
    /// its capacity).
    fn charge_cell(&mut self, root: RootPos, steps: u64) {
        if steps == 0 {
            return;
        }
        let cell = match root {
            RootPos::Point(p) => Some(p.edge),
            RootPos::Node(n) => self.expander.net.adjacent(n).first().map(|&(e, _)| e),
        };
        if let Some(e) = cell {
            self.cell_charges.push((e, steps));
        }
    }
}

/// §4.3: the part of the tree that remains valid when the root moves to
/// `new_root`. Returns `(subtree root, distance shift)`, or `None` when
/// nothing survives (recompute from scratch).
fn valid_subtree_after_move(
    ex: &Expander,
    weights: &rnn_roadnet::EdgeWeights,
    rec: &AnchorRec,
    new_root: RootPos,
) -> Option<(NodeId, f64)> {
    let (net, pool): (&RoadNetwork, _) = (&ex.net, &ex.pool);
    let RootPos::Point(p) = new_root else {
        return None; // node-rooted anchors never move
    };
    let w = weights.get(p.edge);
    if let RootPos::Point(op) = rec.root {
        if op.edge == p.edge {
            // Moving along the root edge: the branch on the far side of q′
            // (in the movement direction) stays valid.
            let toward = if p.frac > op.frac {
                net.edge(p.edge).end
            } else if p.frac < op.frac {
                net.edge(p.edge).start
            } else {
                return None; // no net movement; caller treats as recompute
            };
            let shift = (p.frac - op.frac).abs() * w;
            // Only if that branch hangs directly off the root (it may have
            // been reached around the network instead).
            if rec.tree.parent_of(pool, toward)?.is_none() {
                return Some((toward, shift));
            }
            return None;
        }
    }
    // q′ on a tree-link edge: the subtree rooted at the child side stays
    // valid, shifted by the old distance of q′.
    let child = rec.tree.link_child_of_edge(pool, net, p.edge)?;
    let (parent, _) = rec.tree.parent_of(pool, child)??;
    let along = rnn_roadnet::NetPoint {
        edge: p.edge,
        frac: p.frac,
    }
    .dist_to_endpoint(net, weights, parent);
    let d_old_q = rec.tree.dist(pool, parent)? + along;
    Some((child, d_old_q))
}

fn results_differ(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() != b.len()
        || a.iter()
            .zip(b)
            .any(|(x, y)| x.object != y.object || x.dist != y.dist)
}

/// Relative widening applied to influencing intervals so that an entity
/// sitting *exactly* at distance `kNN_dist` (e.g. the k-th NN itself) is
/// always inside them despite float rounding when deriving mark fractions.
/// Over-covering is safe: it can only cause a spurious re-check, never a
/// missed update.
pub(crate) fn interval_slack(knn_dist: f64) -> f64 {
    if knn_dist.is_finite() {
        1e-9 * knn_dist.max(1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NetworkState;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, UpdateBatch};
    use rnn_roadnet::{generators, NetPoint};

    /// Line of 6 nodes (5 edges, unit weights), objects at edge midpoints.
    fn setup() -> (Arc<RoadNetwork>, NetworkState, AnchorSet) {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut state = NetworkState::new(&net);
        for e in net.edge_ids() {
            state.objects.insert(ObjectId(e.0), NetPoint::new(e, 0.5));
        }
        let set = AnchorSet::new(net.clone());
        (net, state, set)
    }

    fn tick_batch(set: &mut AnchorSet, state: &mut NetworkState, batch: UpdateBatch) -> OpCounters {
        let deltas = state.apply_batch(&batch);
        set.tick(state, &deltas.objects, &deltas.edges, &[])
    }

    #[test]
    fn add_and_remove_anchor() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            2,
            &mut c,
        );
        assert_eq!(set.len(), 1);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result.len(), 2);
        assert_eq!(rec.result[0].dist, 0.0); // object 2 sits at the root
        assert!(!rec.influenced.is_empty());
        assert!(set.remove(key));
        assert!(set.is_empty());
        assert!(!set.remove(key));
    }

    #[test]
    fn irrelevant_object_update_is_ignored() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.5)),
            1,
            &mut c,
        );
        let before = set.get(key).unwrap().result.clone();
        // Move the far object slightly — far outside knn_dist of the anchor.
        let out = tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                objects: vec![ObjectEvent::Move {
                    id: ObjectId(4),
                    to: NetPoint::new(EdgeId(4), 0.9),
                }],
                ..Default::default()
            },
        );
        assert!(set.changed().is_empty());
        assert!(out.updates_ignored >= 1);
        assert_eq!(set.get(key).unwrap().result, before);
    }

    #[test]
    fn incoming_object_replaces_nn() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        // 1-NN anchored at x=2.5 (middle of edge 2): NN is object 2 (d=0).
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            1,
            &mut c,
        );
        assert_eq!(set.get(key).unwrap().result[0].object, ObjectId(2));
        // Object 2 leaves; object 1 moves right next to the query.
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                objects: vec![
                    ObjectEvent::Move {
                        id: ObjectId(2),
                        to: NetPoint::new(EdgeId(4), 0.5),
                    },
                    ObjectEvent::Move {
                        id: ObjectId(1),
                        to: NetPoint::new(EdgeId(2), 0.4),
                    },
                ],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result[0].object, ObjectId(1));
        assert!((rec.result[0].dist - 0.1).abs() < 1e-12);
    }

    #[test]
    fn outgoing_object_triggers_re_expansion() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            2,
            &mut c,
        );
        // NNs: o2 (0.0) and one of o1/o3 (1.0 each, o1 wins by id).
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                objects: vec![ObjectEvent::Delete { id: ObjectId(2) }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result.len(), 2);
        // New 2-NN set: o1 and o3 at distance 1 each.
        assert_eq!(rec.result[0].object, ObjectId(1));
        assert_eq!(rec.result[1].object, ObjectId(3));
        assert!((rec.knn_dist - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_increase_invalidates_subtree() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        // 2-NN at x=0.25 (edge 0): result o0 (0.25), o1 (1.25).
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.25)),
            2,
            &mut c,
        );
        let rec = set.get(key).unwrap();
        assert!((rec.knn_dist - 1.25).abs() < 1e-12);
        // Make edge 1 (between o0 and o1) heavier: o1 drifts from 1.25
        // (0.75 to node 1 plus half the unit edge) to 0.75 + 0.9 = 1.65.
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                edges: vec![EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 1.8,
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result[0].object, ObjectId(0));
        assert_eq!(rec.result[1].object, ObjectId(1));
        assert!(
            (rec.result[1].dist - 1.65).abs() < 1e-12,
            "dist {}",
            rec.result[1].dist
        );
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
    }

    #[test]
    fn edge_decrease_pulls_in_new_nn() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.25)),
            2,
            &mut c,
        );
        // Shrink edge 1 drastically: o1 comes to 0.75 + 0.1/2 ... -> closer.
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                edges: vec![EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 0.1,
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        // o0 at 0.25; o1 at 0.75 + 0.05 = 0.8.
        assert!(
            (rec.result[1].dist - 0.8).abs() < 1e-12,
            "dist {}",
            rec.result[1].dist
        );
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
    }

    #[test]
    fn root_edge_weight_change_forces_recompute_and_is_correct() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            2,
            &mut c,
        );
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                edges: vec![EdgeWeightUpdate {
                    edge: EdgeId(2),
                    new_weight: 4.0,
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        // o2 still on root edge at |0.5-0.5|*4=0; second NN now at
        // 2.0 (half of root edge) + 0.5 = 2.5 on either side.
        assert!((rec.result[0].dist - 0.0).abs() < 1e-12);
        assert!((rec.result[1].dist - 2.5).abs() < 1e-12);
    }

    #[test]
    fn root_move_within_tree_reuses_subtree() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        // 3-NN at edge 2 center: tree spans nodes 1..4 (knn=2 gives ±2).
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            3,
            &mut c,
        );
        let new_root = RootPos::Point(NetPoint::new(EdgeId(3), 0.25));
        let deltas = crate::state::CoalescedTick::default();
        set.tick(&state, &deltas.objects, &deltas.edges, &[(key, new_root)]);
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.root, new_root);
        // From x=3.25: o3 at 0.25, o2 at 0.75, o4 at 1.25.
        assert_eq!(rec.result[0].object, ObjectId(3));
        assert!((rec.result[0].dist - 0.25).abs() < 1e-12);
        assert_eq!(rec.result[1].object, ObjectId(2));
        assert!((rec.result[1].dist - 0.75).abs() < 1e-12);
        assert_eq!(rec.result[2].object, ObjectId(4));
        assert!((rec.result[2].dist - 1.25).abs() < 1e-12);
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
        let _ = state.apply_batch(&UpdateBatch::default());
    }

    #[test]
    fn root_move_outside_tree_recomputes() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.5)),
            1,
            &mut c,
        );
        // Move clear across the network.
        let new_root = RootPos::Point(NetPoint::new(EdgeId(4), 0.5));
        let deltas = crate::state::CoalescedTick::default();
        set.tick(&state, &deltas.objects, &deltas.edges, &[(key, new_root)]);
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result[0].object, ObjectId(4));
        assert_eq!(rec.result[0].dist, 0.0);
    }

    #[test]
    fn set_k_grow_and_shrink() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            1,
            &mut c,
        );
        set.set_k(&state, key, 3, &mut c);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result.len(), 3);
        assert_eq!(rec.k, 3);
        assert!((rec.knn_dist - 1.0).abs() < 1e-12);
        set.set_k(&state, key, 2, &mut c);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result.len(), 2);
        // No-op change.
        set.set_k(&state, key, 2, &mut c);
        assert_eq!(set.get(key).unwrap().result.len(), 2);
    }

    #[test]
    fn co_rooted_full_recomputes_share_one_expansion() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let p0 = RootPos::Point(NetPoint::new(EdgeId(0), 0.25));
        let a = set.add(&state, p0, 1, &mut c);
        let b = set.add(&state, p0, 2, &mut c);
        // Jump both clear across the network to the same new point: both
        // need a from-scratch recomputation at the same root.
        let to = RootPos::Point(NetPoint::new(EdgeId(4), 0.75));
        let deltas = crate::state::CoalescedTick::default();
        let out = set.tick(&state, &deltas.objects, &deltas.edges, &[(a, to), (b, to)]);
        assert_eq!(
            out.shared_expansions, 1,
            "two co-rooted recomputes must share one expansion"
        );
        assert_eq!(out.reevaluations, 1, "only the group expansion runs");
        // Answers equal fresh independent installs at the same point.
        let mut oracle = AnchorSet::new(set.network().clone());
        let oa = oracle.add(&state, to, 1, &mut c);
        let ob = oracle.add(&state, to, 2, &mut c);
        assert_eq!(set.get(a).unwrap().result, oracle.get(oa).unwrap().result);
        assert_eq!(set.get(b).unwrap().result, oracle.get(ob).unwrap().result);
        assert_eq!(
            set.get(a).unwrap().knn_dist,
            oracle.get(oa).unwrap().knn_dist
        );
        assert_eq!(
            set.get(b).unwrap().knn_dist,
            oracle.get(ob).unwrap().knn_dist
        );
        set.validate(&state);
    }

    #[test]
    fn node_rooted_anchor() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = set.add(&state, RootPos::Node(NodeId(3)), 2, &mut c);
        let rec = set.get(key).unwrap();
        // From node 3 (x=3): o2 and o3 both at 0.5.
        assert!((rec.result[0].dist - 0.5).abs() < 1e-12);
        assert!((rec.result[1].dist - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ablation_no_influence_lists_matches_results() {
        let (_, mut state, mut set) = setup();
        set.use_influence_lists = false;
        let mut c = OpCounters::default();
        let key = set.add(
            &state,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            2,
            &mut c,
        );
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                objects: vec![ObjectEvent::Move {
                    id: ObjectId(2),
                    to: NetPoint::new(EdgeId(2), 0.45),
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        assert!((set.get(key).unwrap().result[0].dist - 0.05).abs() < 1e-12);
    }
}
