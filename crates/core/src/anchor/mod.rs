//! The incremental-monitoring machinery (§4), shared by IMA and GMA.
//!
//! An **anchor** is anything whose k-NN set is continuously maintained with
//! an expansion tree and influence lists: a user query in [`crate::ima::Ima`]
//! (rooted at a point, movable), or an active intersection node in
//! [`crate::gma::Gma`] (rooted at a node, static — §5: "Monitoring the NNs
//! of active nodes is performed with IMA, except that [the query-movement
//! lines] are never executed").
//!
//! ## Keys
//!
//! An anchor has no handle of its own: [`AnchorSet<K>`] is keyed by the id
//! of whoever owns the anchor, as the paper's tables are — **QT** by query
//! id (`AnchorSet<QueryId>` in IMA), **NT** by node id (`AnchorSet<NodeId>`
//! in GMA), and by object id in [`crate::crnn::Crnn`], where every data
//! object monitors its nearest query. The caller chooses the key when it
//! calls [`AnchorSet::add`] and uses the same id for every later `get`,
//! `remove`, `set_k` and root move; [`AnchorSet::changed`] hands the ids
//! back. A key is any `Copy + Ord + Hash + Debug` value: `Ord` because a
//! tick resolves its anchors in ascending key order (see `schedule`).
//!
//! The module is split along the IMA update schedule (Figure 10):
//!
//! * this file — the records ([`AnchorRec`], [`AnchorSet`]) and what works
//!   on one anchor outside a tick: [`AnchorSet::add`], `remove`, `set_k`,
//!   `validate`, the memory report;
//! * `schedule` — [`AnchorSet::tick`], lines 1–19: root moves out of
//!   their trees first, then edge-weight changes, then root moves within
//!   trees, then object updates, each classified into per-anchor pending
//!   work; co-rooted recomputations grouped into one expansion;
//! * `resolve` — lines 20–26: one re-expansion per affected anchor that
//!   reuses the surviving part of its tree, and the influence-list rewrite.
//!
//! Every expansion of all three runs through the set's one
//! [`Expander`].
//!
//! ## Invariant kept here
//!
//! Between ticks every record is exact under the [`NetworkState`] it was
//! last brought up to: `result` is the k smallest `(dist, id)` of `root`,
//! `knn_dist` its k-th distance (`∞` while underfull), `tree` holds true
//! shortest distances and covers every node at `knn_dist` or nearer (an
//! object on such a node may tie with the k-th and precede it), and the
//! influence table carries the anchor on exactly the edges listed in
//! `influenced`, covering every point within `knn_dist`. Every slot of the
//! expander's pool is owned by exactly one record's tree.
//! [`AnchorSet::validate`] checks all of it.

mod resolve;
mod schedule;

use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

use rnn_roadnet::{EdgeId, FxHashMap, RoadNetwork};

use crate::counters::{reserve_charged, OpCounters};
use crate::influence::InfluenceTable;
use crate::search::{Expander, KeptTree, SearchOutcome};
use crate::state::NetworkState;
use crate::tree::ExpansionTree;
use crate::types::{Neighbor, RootPos};

use schedule::{Pending, TickScratch};

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
/// [`NetworkState`], keyed by `K` — the id of whoever owns each anchor.
pub struct AnchorSet<K: Copy + Eq> {
    anchors: FxHashMap<K, AnchorRec>,
    il: InfluenceTable<K>,
    /// Runs every expansion of the set; its pool is the arena all anchors'
    /// expansion trees live in, so tree surgery (subtree cuts, θ-prunes,
    /// re-expansion inserts) recycles slots instead of touching the heap.
    expander: Expander,
    /// Scratch for the tick's shared multi-k expansion outcomes (cleared
    /// every tick; a field so its capacity is reused).
    shared_outcomes: Vec<SearchOutcome>,
    /// The anchors whose reported result changed in the last tick.
    changed: Vec<K>,
    /// The tick's other lists, emptied and refilled every tick; their
    /// growth is charged to `alloc_events`.
    scratch: TickScratch<K>,
    /// Ablation switch: with influence lists disabled, every anchor is
    /// treated as affected by every update (used to quantify the paper's
    /// "process only updates that may invalidate" claim).
    pub use_influence_lists: bool,
}

impl<K: Copy + Ord + Hash + Debug> AnchorSet<K> {
    /// Creates an empty set over the given network.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Self {
            // lint: allow(hot-path-alloc): construction; grows when anchors are added
            anchors: FxHashMap::default(),
            il: InfluenceTable::new(net.num_edges()),
            expander: Expander::new(net),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; it holds one outcome per co-rooted group of a tick
            shared_outcomes: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; the tick charges its growth
            changed: Vec::new(),
            scratch: TickScratch::new(),
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
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.anchors.keys().copied()
    }

    /// The record of anchor `key`.
    pub fn get(&self, key: K) -> Option<&AnchorRec> {
        self.anchors.get(&key)
    }

    /// Installs the anchor of owner `key` — not in the set yet — and
    /// computes its initial result (§4.1).
    ///
    /// Allocation accounting: scratch events pending from earlier work are
    /// first drained into `counters.alloc_events` (maintenance), then the
    /// install's own allocations — a brand-new entity legitimately
    /// materialises fresh state — go to `counters.install_alloc_events`,
    /// keeping the steady-state maintenance guarantee clean.
    pub fn add(
        &mut self,
        state: &NetworkState,
        key: K,
        root: RootPos,
        k: usize,
        counters: &mut OpCounters,
    ) {
        debug_assert!(!self.anchors.contains_key(&key), "{key:?} is installed");
        self.harvest_scratch_counters(counters);
        let maintenance = counters.alloc_events;
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
    }

    /// Removes an anchor, clearing its influence-list entries and
    /// returning its tree nodes to the pool.
    pub fn remove(&mut self, key: K) -> bool {
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
    pub fn set_k(&mut self, state: &NetworkState, key: K, k: usize, counters: &mut OpCounters) {
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
    pub fn changed(&self) -> &[K] {
        &self.changed
    }

    /// The anchors whose influencing intervals cover `(edge, frac)` —
    /// exactly the set an object update at that position would be checked
    /// against. Exposed for tests and debugging.
    pub fn covering(&self, edge: EdgeId, frac: f64) -> Vec<K> {
        // lint: allow(hot-path-alloc): covering() is materialized only for install/resync callers, not per tick; charged to alloc_events under the runtime gate
        self.il.covering(edge, frac).collect()
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
                if d > deepest {
                    break;
                }
                for &(e, m) in net.adjacent(n) {
                    engine.relax(m, n, d + state.weights.get(e));
                }
            }
            for (n, d) in rec.tree.iter(pool) {
                let truth = engine.dist_of(n).expect("tree node reachable");
                assert_eq!(d, truth, "stale tree distance at {n:?} for {key:?}");
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
                assert_eq!(
                    nb.dist, truth,
                    "wrong result distance for {:?} at {key:?}",
                    nb.object
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NetworkState;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, UpdateBatch};
    use rnn_roadnet::{generators, NetPoint, NodeId, ObjectId, QueryId};

    /// Line of 6 nodes (5 edges, unit weights), objects at edge midpoints.
    fn setup() -> (Arc<RoadNetwork>, NetworkState, AnchorSet<QueryId>) {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut state = NetworkState::new(&net);
        for e in net.edge_ids() {
            state.objects.insert(ObjectId(e.0), NetPoint::new(e, 0.5));
        }
        let set = AnchorSet::new(net.clone());
        (net, state, set)
    }

    fn tick_batch(
        set: &mut AnchorSet<QueryId>,
        state: &mut NetworkState,
        batch: UpdateBatch,
    ) -> OpCounters {
        let deltas = state.apply_batch(&batch);
        set.tick(state, &deltas.objects, &deltas.edges, &[])
    }

    #[test]
    fn add_and_remove_anchor() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
                        to: NetPoint::new(EdgeId(2), 0.375),
                    },
                ],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result[0].object, ObjectId(1));
        assert_eq!(rec.result[0].dist, 0.125);
    }

    #[test]
    fn outgoing_object_triggers_re_expansion() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        assert_eq!(rec.knn_dist, 1.0);
    }

    #[test]
    fn edge_increase_invalidates_subtree() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        // 2-NN at x=0.25 (edge 0): result o0 (0.25), o1 (1.25).
        let key = QueryId(7);
        set.add(
            &state,
            key,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.25)),
            2,
            &mut c,
        );
        let rec = set.get(key).unwrap();
        assert_eq!(rec.knn_dist, 1.25);
        // Make edge 1 (between o0 and o1) heavier: o1 drifts from 1.25
        // (0.75 to node 1 plus half the unit edge) to 0.75 + 0.875 = 1.625.
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                edges: vec![EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 1.75,
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result[0].object, ObjectId(0));
        assert_eq!(rec.result[1].object, ObjectId(1));
        assert_eq!(rec.result[1].dist, 1.625);
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
    }

    #[test]
    fn edge_decrease_pulls_in_new_nn() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
            RootPos::Point(NetPoint::new(EdgeId(0), 0.25)),
            2,
            &mut c,
        );
        // Shrink edge 1 drastically: o1 comes to 0.75 + 0.125/2 -> closer.
        tick_batch(
            &mut set,
            &mut state,
            UpdateBatch {
                edges: vec![EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 0.125,
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        let rec = set.get(key).unwrap();
        // o0 at 0.25; o1 at 0.75 + 0.0625 = 0.8125.
        assert_eq!(rec.result[1].dist, 0.8125);
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
    }

    #[test]
    fn root_edge_weight_change_forces_recompute_and_is_correct() {
        let (_, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        assert_eq!((rec.result[0].dist, rec.result[1].dist), (0.0, 2.5));
    }

    #[test]
    fn root_move_within_tree_reuses_subtree() {
        let (net, mut state, mut set) = setup();
        let mut c = OpCounters::default();
        // 3-NN at edge 2 center: tree spans nodes 1..4 (knn=2 gives ±2).
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        assert_eq!(rec.result[0].dist, 0.25);
        assert_eq!(rec.result[1].object, ObjectId(2));
        assert_eq!(rec.result[1].dist, 0.75);
        assert_eq!(rec.result[2].object, ObjectId(4));
        assert_eq!(rec.result[2].dist, 1.25);
        set.expander
            .pool
            .check_invariants(&rec.tree, &net, &state.weights);
        let _ = state.apply_batch(&UpdateBatch::default());
    }

    #[test]
    fn root_move_outside_tree_recomputes() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
        let key = QueryId(7);
        set.add(
            &state,
            key,
            RootPos::Point(NetPoint::new(EdgeId(2), 0.5)),
            1,
            &mut c,
        );
        set.set_k(&state, key, 3, &mut c);
        let rec = set.get(key).unwrap();
        assert_eq!(rec.result.len(), 3);
        assert_eq!(rec.k, 3);
        assert_eq!(rec.knn_dist, 1.0);
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
        let (a, b) = (QueryId(1), QueryId(2));
        set.add(&state, a, p0, 1, &mut c);
        set.add(&state, b, p0, 2, &mut c);
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
        oracle.add(&state, a, to, 1, &mut c);
        oracle.add(&state, b, to, 2, &mut c);
        for key in [a, b] {
            let (rec, fresh) = (set.get(key).unwrap(), oracle.get(key).unwrap());
            assert_eq!(rec.result, fresh.result);
            assert_eq!(rec.knn_dist, fresh.knn_dist);
        }
        set.validate(&state);
    }

    #[test]
    fn node_rooted_anchor() {
        let (_, state, mut set) = setup();
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(&state, key, RootPos::Node(NodeId(3)), 2, &mut c);
        let rec = set.get(key).unwrap();
        // From node 3 (x=3): o2 and o3 both at 0.5, in id order.
        let at = |id, dist| Neighbor {
            object: ObjectId(id),
            dist,
        };
        assert_eq!(rec.result, [at(2, 0.5), at(3, 0.5)]);
    }

    #[test]
    fn ablation_no_influence_lists_matches_results() {
        let (_, mut state, mut set) = setup();
        set.use_influence_lists = false;
        let mut c = OpCounters::default();
        let key = QueryId(7);
        set.add(
            &state,
            key,
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
                    to: NetPoint::new(EdgeId(2), 0.4375),
                }],
                ..Default::default()
            },
        );
        assert_eq!(set.changed(), [key]);
        assert_eq!(set.get(key).unwrap().result[0].dist, 0.0625);
    }
}
