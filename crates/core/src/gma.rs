//! **GMA** — the group monitoring algorithm (§5).
//!
//! GMA decomposes the network into *sequences* (maximal paths between
//! degree≠2 nodes, [`rnn_roadnet::SequenceTable`]) and exploits Lemma 1:
//!
//! > "The k-NN set of any query q falling in a sequence s is contained in
//! > the union of (i) the objects in s, (ii) the k-NN sets of the
//! > intersection nodes (endpoints) of s."
//!
//! The endpoints of sequences that currently contain queries are **active
//! nodes**; their `n.k`-NN sets (`n.k = max q.k over the adjacent queries`)
//! are maintained with the IMA machinery ([`crate::anchor::AnchorSet`],
//! node-rooted and static). A user query is answered by a cheap
//! within-sequence walk that merges (a) the objects it passes and (b) the
//! monitored NN sets of the endpoints it reaches.
//!
//! Maintenance (Figure 12) re-evaluates a query from scratch only when one
//! of the four invalidating events touches it: (i) its own movement,
//! (ii) a change in a reachable endpoint's NN set, (iii) an object update
//! inside its influencing intervals, (iv) a weight change of an influencing
//! edge. Events are detected with per-sequence influence lists plus the
//! cached along-sequence endpoint distances.
//!
//! Special cases handled exactly as the paper prescribes: terminal
//! (degree-1) endpoints are never activated (nothing lies beyond them), and
//! isolated all-degree-2 cycles need no active nodes at all (the
//! bidirectional walk covers the entire component).

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{
    EdgeId, FxHashMap, FxHashSet, NetPoint, NodeId, QueryId, RoadNetwork, SeqId, Sequence,
    SequenceTable,
};

use crate::anchor::{AnchorKey, AnchorSet};
use crate::counters::{MemoryUsage, OpCounters, TickReport};
use crate::influence::{InfluenceTable, IntervalSet};
use crate::monitor::ContinuousMonitor;
use crate::search::BestK;
use crate::state::NetworkState;
use crate::types::{Neighbor, ObjectEvent, QueryEvent, RootPos, UpdateBatch, UpdateEvent};

struct GmaQuery {
    k: usize,
    pos: NetPoint,
    seq: SeqId,
    result: Vec<Neighbor>,
    knn_dist: f64,
    /// Along-sequence distances to `(start_node, end_node)` at last
    /// evaluation (used to filter endpoint-NN-change events).
    d_ends: (f64, f64),
    /// Edges of the sequence currently carrying this query's influence
    /// intervals.
    influenced: Vec<EdgeId>,
}

/// The group monitoring algorithm.
pub struct Gma {
    net: Arc<RoadNetwork>,
    seqs: SequenceTable,
    state: NetworkState,
    /// IMA module monitoring the active nodes (**NT**).
    nodes: AnchorSet,
    node_anchor: FxHashMap<NodeId, AnchorKey>,
    anchor_node: FxHashMap<AnchorKey, NodeId>,
    /// Multiset of k values demanded at each potential active node
    /// (`n.k = max`).
    node_ks: FxHashMap<NodeId, Vec<usize>>,
    /// Sequences incident to each intersection node (`n.S`).
    node_seqs: FxHashMap<NodeId, Vec<SeqId>>,
    queries: FxHashMap<QueryId, GmaQuery>,
    /// Queries per sequence (`n.Q` is derived: queries of the sequences in
    /// `n.S`).
    seq_queries: FxHashMap<SeqId, FxHashSet<QueryId>>,
    /// Query influence lists, restricted to within-sequence edges.
    qil: InfluenceTable<QueryId>,
    /// Candidate scratch for within-sequence evaluations (flat
    /// epoch-stamped dedup table; taken/restored around each evaluation so
    /// steady-state query walks never allocate).
    best: BestK,
    /// Per-tick scratch: how many re-evaluated queries were served from
    /// each active node's monitored expansion this tick. Every use beyond
    /// the first is one network expansion that did not run — GMA's
    /// expansion sharing (Lemma 1), surfaced through
    /// [`OpCounters::shared_expansions`].
    tick_served: FxHashMap<NodeId, u32>,
}

impl Gma {
    /// Creates a GMA server over `net` with base weights and no objects.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        let seqs = SequenceTable::build(&net);
        // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
        let mut node_seqs: FxHashMap<NodeId, Vec<SeqId>> = FxHashMap::default();
        for s in seqs.iter() {
            for n in [s.start_node(), s.end_node()] {
                // Terminal nodes are never activated (§5: "in sequence
                // {n5n4}, terminal node n4 is inactive"), and neither are
                // the breakpoints of *isolated* cycles (degree 2 — there is
                // nothing beyond them). A cycle sequence attached to the
                // graph through an intersection ("lollipop") keeps that
                // intersection as its single exit point.
                if net.degree(n) < 3 {
                    continue;
                }
                let list = node_seqs.entry(n).or_default();
                if !list.contains(&s.id) {
                    list.push(s.id);
                }
            }
        }
        let state = NetworkState::new(&net);
        let nodes = AnchorSet::new(net.clone());
        Self {
            net,
            seqs,
            state,
            nodes,
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_anchor: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            anchor_node: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_ks: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_seqs: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            queries: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            seq_queries: FxHashMap::default(),
            qil: InfluenceTable::new(0),
            best: BestK::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            tick_served: FxHashMap::default(),
        }
        .finish_init(node_seqs)
    }

    fn finish_init(mut self, node_seqs: FxHashMap<NodeId, Vec<SeqId>>) -> Self {
        self.node_seqs = node_seqs;
        self.qil = InfluenceTable::new(self.net.num_edges());
        self
    }

    /// The sequence table (exposed for tests and examples).
    pub fn sequences(&self) -> &SequenceTable {
        &self.seqs
    }

    /// Number of currently active nodes (reported in the paper's
    /// experiments, e.g. "GMA monitors only 844 active nodes on average").
    pub fn active_node_count(&self) -> usize {
        self.node_anchor.len()
    }

    /// Nodes whose k demand must be (de)registered for a query in sequence
    /// `seq` — its endpoints with degree ≥ 3 (terminals have nothing beyond
    /// them; an isolated cycle's degree-2 breakpoint likewise).
    fn endpoints_for(&self, seq: SeqId) -> Vec<NodeId> {
        let s = self.seqs.sequence(seq);
        let mut v = Vec::with_capacity(2);
        for n in [s.start_node(), s.end_node()] {
            if self.net.degree(n) >= 3 && !v.contains(&n) {
                v.push(n);
            }
        }
        v
    }

    fn register_query_demand(&mut self, seq: SeqId, qid: QueryId, k: usize) -> Vec<NodeId> {
        self.seq_queries.entry(seq).or_default().insert(qid);
        let eps = self.endpoints_for(seq);
        for &n in &eps {
            self.node_ks.entry(n).or_default().push(k);
        }
        eps
    }

    fn unregister_query_demand(&mut self, seq: SeqId, qid: QueryId, k: usize) -> Vec<NodeId> {
        if let Some(set) = self.seq_queries.get_mut(&seq) {
            set.remove(&qid);
            if set.is_empty() {
                self.seq_queries.remove(&seq);
            }
        }
        let eps = self.endpoints_for(seq);
        for &n in &eps {
            if let Some(ks) = self.node_ks.get_mut(&n) {
                if let Some(i) = ks.iter().position(|&x| x == k) {
                    ks.swap_remove(i);
                }
                if ks.is_empty() {
                    self.node_ks.remove(&n);
                }
            }
        }
        eps
    }

    /// The k demanded at node `n` (`n.k = max` over the adjacent queries'
    /// demands), or `None` when no query demands it — the node must then
    /// be inactive. The single source of truth for both [`Self::sync_node`]
    /// and the tick's deactivate-before-activate pass split.
    fn desired_k(&self, n: NodeId) -> Option<usize> {
        self.node_ks.get(&n).and_then(|v| v.iter().max()).copied()
    }

    /// Reconciles a node's anchor with the current k demand: activates,
    /// deactivates, or resizes its monitored NN set.
    fn sync_node(&mut self, n: NodeId, counters: &mut OpCounters) {
        let desired = self.desired_k(n);
        match (self.node_anchor.get(&n).copied(), desired) {
            (None, Some(k)) => {
                let key = self.nodes.add(&self.state, RootPos::Node(n), k, counters);
                self.node_anchor.insert(n, key);
                self.anchor_node.insert(key, n);
            }
            (Some(key), None) => {
                self.nodes.remove(key);
                self.node_anchor.remove(&n);
                self.anchor_node.remove(&key);
            }
            (Some(key), Some(k)) => {
                if self.nodes.get(key).map(|r| r.k) != Some(k) {
                    self.nodes.set_k(&self.state, key, k, counters);
                }
            }
            (None, None) => {}
        }
    }

    /// Within-sequence evaluation (§5): walk both directions from the query
    /// merging in-sequence objects and the endpoint NN sets, then rebuild
    /// the query's influence intervals.
    fn eval_query(&mut self, qid: QueryId, counters: &mut OpCounters) -> bool {
        counters.reevaluations += 1;
        let q = self.queries.get(&qid).expect("query registered");
        let (k, pos, seq) = (q.k, q.pos, q.seq);
        let s = self.seqs.sequence(seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in its sequence");
        let w0 = self.state.weights.get(pos.edge);

        let mut best = std::mem::take(&mut self.best);
        best.reset(k);
        counters.edges_scanned += 1;
        for &(o, f) in self.state.objects.on_edge(pos.edge) {
            counters.objects_considered += 1;
            best.offer(o, (f - pos.frac).abs() * w0);
        }

        // Distances from q to the sequence endpoints along the sequence.
        let (d_start, d_end) = s.dist_to_endpoints(&self.state.weights, pos);

        // Walk toward the start (scanning edges i0-1 .. 0) and toward the
        // end (edges i0+1 ..), advancing each until the frontier passes the
        // current k-th candidate.
        self.walk_direction(s, i0, pos, true, &mut best, counters);
        self.walk_direction(s, i0, pos, false, &mut best, counters);

        // Merge reachable endpoint NN sets. Terminals and isolated-cycle
        // breakpoints (degree < 3) have nothing beyond them; a lollipop
        // cycle merges its single intersection once, at the shorter of the
        // two ways around.
        let merge_points: Vec<(NodeId, f64)> = if s.is_cycle() {
            // lint: allow(hot-path-alloc): two-entry evaluation scratch built only when a query is (re)evaluated; charged to alloc_events under the runtime gate
            vec![(s.start_node(), d_start.min(d_end))]
        } else {
            // lint: allow(hot-path-alloc): two-entry evaluation scratch built only when a query is (re)evaluated; charged to alloc_events under the runtime gate
            vec![(s.start_node(), d_start), (s.end_node(), d_end)]
        };
        let mut served_nodes: [Option<NodeId>; 2] = [None, None];
        for (i, (n, base)) in merge_points.into_iter().enumerate() {
            if self.net.degree(n) < 3 || base >= best.kth() {
                continue;
            }
            let key = self
                .node_anchor
                .get(&n)
                .expect("endpoint of a query sequence is active");
            let rec = self.nodes.get(*key).expect("anchor exists");
            debug_assert!(rec.k >= k, "active node monitors too few NNs");
            served_nodes[i] = Some(n);
            for nb in &rec.result {
                counters.objects_considered += 1;
                best.offer(nb.object, base + nb.dist);
            }
        }
        for n in served_nodes.into_iter().flatten() {
            *self.tick_served.entry(n).or_default() += 1;
        }

        let result = best.clone_result();
        self.best = best;
        let knn_dist = if result.len() == k {
            result[k - 1].dist
        } else {
            f64::INFINITY
        };

        let q = self.queries.get_mut(&qid).expect("query registered");
        let changed = q.result != result;
        q.result = result;
        q.knn_dist = knn_dist;
        q.d_ends = (d_start, d_end);
        self.rebuild_query_influence(qid);
        changed
    }

    /// The edges one directional walk visits, in order, with the boundary
    /// node each is approached from. For cycle sequences the walk wraps all
    /// the way around (including a final re-scan of the query's own edge
    /// from the far side, so wrap-around paths are measured).
    fn walk_steps(
        s: &Sequence,
        i0: usize,
        toward_start: bool,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let m = s.edges.len();
        let count = if s.is_cycle() {
            m
        } else if toward_start {
            i0
        } else {
            m - 1 - i0
        };
        (0..count).map(move |step| {
            let edge_idx = if toward_start {
                (i0 + m - 1 - step) % m
            } else {
                (i0 + 1 + step) % m
            };
            let boundary = if toward_start { edge_idx + 1 } else { edge_idx };
            (edge_idx, boundary)
        })
    }

    /// Distance from the query to the first boundary node of a directional
    /// walk.
    fn walk_start_dist(&self, s: &Sequence, i0: usize, pos: NetPoint, toward_start: bool) -> f64 {
        let w0 = self.state.weights.get(pos.edge);
        if s.forward[i0] == toward_start {
            pos.frac * w0
        } else {
            (1.0 - pos.frac) * w0
        }
    }

    /// Scans the objects of one direction of the sequence walk.
    fn walk_direction(
        &self,
        s: &Sequence,
        i0: usize,
        pos: NetPoint,
        toward_start: bool,
        best: &mut BestK,
        counters: &mut OpCounters,
    ) {
        let mut acc = self.walk_start_dist(s, i0, pos, toward_start);
        for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
            if acc >= best.kth() {
                break;
            }
            let e = s.edges[edge_idx];
            let w = self.state.weights.get(e);
            let b = s.nodes[boundary];
            let from_start = self.net.edge(e).start == b;
            counters.edges_scanned += 1;
            for &(o, f) in self.state.objects.on_edge(e) {
                counters.objects_considered += 1;
                let along = if from_start { f * w } else { (1.0 - f) * w };
                best.offer(o, acc + along);
            }
            acc += w;
        }
    }

    /// Rebuilds the within-sequence influence intervals of a query from its
    /// current `knn_dist`.
    fn rebuild_query_influence(&mut self, qid: QueryId) {
        let (pos, seq, knn, old_influenced) = {
            let q = self.queries.get_mut(&qid).expect("query registered");
            (q.pos, q.seq, q.knn_dist, std::mem::take(&mut q.influenced))
        };
        for e in old_influenced {
            self.qil.remove(e, qid);
        }
        let s = self.seqs.sequence(seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in sequence");
        // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
        let mut per_edge: Vec<(EdgeId, IntervalSet)> = Vec::new();

        // Widen by the standard slack so boundary entities (the k-th NN
        // itself) never escape detection through float rounding.
        let slack = crate::anchor::interval_slack(knn);
        let knn = knn + slack;

        // Own edge.
        let w0 = self.state.weights.get(pos.edge);
        let r0 = knn / w0;
        per_edge.push((pos.edge, IntervalSet::single(pos.frac - r0, pos.frac + r0)));

        // Both directions (wrapping around for cycle sequences).
        for toward_start in [true, false] {
            let mut acc = self.walk_start_dist(s, i0, pos, toward_start);
            for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
                if acc >= knn {
                    break;
                }
                let e = s.edges[edge_idx];
                let w = self.state.weights.get(e);
                let b = s.nodes[boundary];
                let f = ((knn - acc) / w).min(1.0);
                let ivs = if self.net.edge(e).start == b {
                    IntervalSet::single(0.0, f)
                } else {
                    IntervalSet::single(1.0 - f, 1.0)
                };
                per_edge.push((e, ivs));
                acc += w;
            }
        }

        // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
        let mut influenced = Vec::new();
        for (e, ivs) in per_edge {
            if ivs.is_empty() {
                continue;
            }
            // Merge with a possibly existing entry for the same edge (a
            // cycle walk can reach an edge from both directions).
            let merged = match self.qil.on_edge(e).iter().find(|(k, _)| *k == qid) {
                Some((_, prev)) => {
                    let mut m = *prev;
                    for &(lo, hi) in ivs.intervals() {
                        m.add(lo, hi);
                    }
                    m
                }
                None => ivs,
            };
            self.qil.insert(e, qid, merged);
            if !influenced.contains(&e) {
                influenced.push(e);
            }
        }
        self.queries
            .get_mut(&qid)
            .expect("query registered")
            .influenced = influenced;
    }
}

impl ContinuousMonitor for Gma {
    fn name(&self) -> &'static str {
        "GMA"
    }

    fn apply(&mut self, event: UpdateEvent) -> TickReport {
        match event {
            UpdateEvent::Object(ObjectEvent::Insert { id, at }) => {
                self.state.objects.insert(id, at);
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Install { id, k, at }) => {
                assert!(
                    !self.queries.contains_key(&id),
                    "query {id:?} already installed"
                );
                self.state.queries.insert(id, (k, at));
                let seq = self.seqs.seq_of_edge(at.edge);
                self.queries.insert(
                    id,
                    GmaQuery {
                        k,
                        pos: at,
                        seq,
                        // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                        result: Vec::new(),
                        knn_dist: f64::INFINITY,
                        d_ends: (f64::INFINITY, f64::INFINITY),
                        // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                        influenced: Vec::new(),
                    },
                );
                let mut c = OpCounters::default();
                let touched = self.register_query_demand(seq, id, k);
                for n in touched {
                    self.sync_node(n, &mut c);
                }
                self.eval_query(id, &mut c);
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Remove { id }) => {
                let Some(mut q) = self.queries.remove(&id) else {
                    return TickReport::default();
                };
                self.state.queries.remove(&id);
                for e in q.influenced.drain(..) {
                    self.qil.remove(e, id);
                }
                let mut c = OpCounters::default();
                let touched = self.unregister_query_demand(q.seq, id, q.k);
                for n in touched {
                    self.sync_node(n, &mut c);
                }
                TickReport::default()
            }
            other => {
                let mut batch = UpdateBatch::default();
                batch.push(other);
                self.tick(&batch)
            }
        }
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();
        self.tick_served.clear();
        self.nodes.clear_cell_charges();
        let deltas = self.state.apply_batch(batch);

        // ---- Figure 12, lines 1-4: query arrivals/departures/moves update
        // the sequence registry and the active-node demands.
        // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
        let mut needs_eval: FxHashSet<QueryId> = FxHashSet::default();
        // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
        let mut touched_nodes: FxHashSet<NodeId> = FxHashSet::default();
        // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
        let mut removed_queries: Vec<QueryId> = Vec::new();
        for d in &deltas.queries {
            match (d.old, d.new) {
                (Some(_), None) => {
                    if let Some(mut q) = self.queries.remove(&d.id) {
                        for e in q.influenced.drain(..) {
                            self.qil.remove(e, d.id);
                        }
                        touched_nodes.extend(self.unregister_query_demand(q.seq, d.id, q.k));
                        removed_queries.push(d.id);
                    }
                }
                (old, Some((k, at))) => {
                    let new_seq = self.seqs.seq_of_edge(at.edge);
                    match old {
                        Some(_) => {
                            // Move (possibly with a k change): deregister the
                            // old placement, register the new one.
                            let (old_seq, old_k) = {
                                let q = self.queries.get(&d.id).expect("known query");
                                (q.seq, q.k)
                            };
                            touched_nodes
                                .extend(self.unregister_query_demand(old_seq, d.id, old_k));
                            {
                                let q = self.queries.get_mut(&d.id).expect("known query");
                                for e in q.influenced.drain(..) {
                                    self.qil.remove(e, d.id);
                                }
                                q.k = k;
                                q.pos = at;
                                q.seq = new_seq;
                            }
                        }
                        None => {
                            self.queries.insert(
                                d.id,
                                GmaQuery {
                                    k,
                                    pos: at,
                                    seq: new_seq,
                                    // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                                    result: Vec::new(),
                                    knn_dist: f64::INFINITY,
                                    d_ends: (f64::INFINITY, f64::INFINITY),
                                    // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                                    influenced: Vec::new(),
                                },
                            );
                        }
                    }
                    touched_nodes.extend(self.register_query_demand(new_seq, d.id, k));
                    needs_eval.insert(d.id);
                }
                (None, None) => {}
            }
        }
        // lint: allow(hot-path-alloc): runs only on the update/resync slow path, never on the per-tick serve path; charged to alloc_events under the runtime zero-alloc gate
        let mut nodes_sorted: Vec<NodeId> = touched_nodes.into_iter().collect();
        nodes_sorted.sort();
        // Deactivations run before activations: a node whose demand just
        // vanished returns its expansion tree to the pool first, so a node
        // activating in the same tick re-expands into those recycled slots
        // instead of growing the pool — activation churn stays
        // allocation-free in steady state.
        for pass_active in [false, true] {
            for &n in &nodes_sorted {
                if self.desired_k(n).is_some() == pass_active {
                    self.sync_node(n, &mut counters);
                }
            }
        }

        // ---- Line 5: IMA maintenance of the active nodes.
        let out = self
            .nodes
            .tick(&self.state, &deltas.objects, &deltas.edges, &[]);
        counters.merge(&out.counters);

        // ---- Lines 6-15: determine the affected user queries.
        // (i) endpoint NN-set changes within reach.
        for key in &out.changed {
            let Some(&n) = self.anchor_node.get(key) else {
                continue;
            };
            let Some(seq_ids) = self.node_seqs.get(&n) else {
                continue;
            };
            for &sid in seq_ids {
                let Some(qs) = self.seq_queries.get(&sid) else {
                    continue;
                };
                let s = self.seqs.sequence(sid);
                for &qid in qs {
                    let q = &self.queries[&qid];
                    let d_n = if s.is_cycle() {
                        q.d_ends.0.min(q.d_ends.1)
                    } else if s.start_node() == n {
                        q.d_ends.0
                    } else {
                        q.d_ends.1
                    };
                    if d_n <= q.knn_dist + crate::anchor::interval_slack(q.knn_dist) {
                        needs_eval.insert(qid);
                    }
                }
            }
        }
        // (ii) object updates inside influencing intervals.
        for d in &deltas.objects {
            let mut any = false;
            for p in [d.old, d.new].into_iter().flatten() {
                for qid in self.qil.covering(p.edge, p.frac) {
                    needs_eval.insert(qid);
                    any = true;
                }
            }
            if !any {
                counters.updates_ignored += 1;
            }
        }
        // (iii) edge updates on influencing edges.
        for d in &deltas.edges {
            let entries = self.qil.on_edge(d.edge);
            if entries.is_empty() {
                counters.updates_ignored += 1;
            } else {
                needs_eval.extend(entries.iter().map(|&(q, _)| q));
            }
        }

        // ---- Lines 16-17: recompute the affected queries from scratch
        // (within their sequences, sharing the active-node NN sets).
        // lint: allow(hot-path-alloc): runs only on the update/resync slow path, never on the per-tick serve path; charged to alloc_events under the runtime zero-alloc gate
        let mut ids: Vec<QueryId> = needs_eval.into_iter().collect();
        ids.sort();
        let mut results_changed = removed_queries.len();
        for qid in ids {
            if self.queries.contains_key(&qid) && self.eval_query(qid, &mut counters) {
                results_changed += 1;
            }
        }

        // Expansion sharing: every query beyond the first served from the
        // same active-node expansion this tick reused it instead of
        // expanding on its own.
        counters.shared_expansions += self
            .tick_served
            .values()
            .map(|&c| u64::from(c.saturating_sub(1)))
            .sum::<u64>();
        // Allocation/step accounting: node-anchor engine + influence
        // arenas, the query influence arena, and the object index arena.
        self.nodes.harvest_scratch_counters(&mut counters);
        counters.alloc_events += self.qil.take_alloc_events()
            + self.state.objects.take_alloc_events()
            + self.best.take_alloc_events();

        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|q| q.result.as_slice())
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        self.queries.get(&id).map(|q| q.knn_dist)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        // lint: allow(hot-path-alloc): introspection helper for tests and benches, not called from the tick path
        self.queries.keys().copied().collect()
    }

    fn active_groups(&self) -> Option<usize> {
        Some(self.active_node_count())
    }

    fn drain_cell_charges(&mut self, into: &mut Vec<(EdgeId, u64)>) {
        self.nodes.drain_cell_charges(into);
    }

    fn memory(&self) -> MemoryUsage {
        let (node_table, trees, node_il) = self.nodes.memory_breakdown();
        let query_table: usize = self
            .queries
            .values()
            .map(|q| {
                std::mem::size_of::<GmaQuery>()
                    + q.result.capacity() * std::mem::size_of::<Neighbor>()
                    + q.influenced.capacity() * std::mem::size_of::<EdgeId>()
            })
            .sum();
        let bookkeeping = self.seqs.memory_bytes()
            + self
                .node_ks
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
            + self
                .seq_queries
                .values()
                .map(|s| s.capacity() * std::mem::size_of::<QueryId>())
                .sum::<usize>();
        MemoryUsage {
            edge_table: self.state.memory_bytes(),
            query_table: query_table + node_table,
            expansion_trees: trees,
            influence_lists: node_il + self.qil.memory_bytes(),
            auxiliary: bookkeeping + self.nodes.scratch_bytes(),
        }
    }

    fn snapshot_state(&self) -> Option<crate::snapshot::MonitorState> {
        Some(crate::snapshot::MonitorState::capture(
            &self.net,
            &self.state,
            |q| match self.queries.get(&q) {
                Some(rec) => (rec.knn_dist, rec.result.clone()),
                // lint: allow(hot-path-alloc): snapshot capture is maintenance-path, not a steady-state tick
                None => (f64::INFINITY, Vec::new()),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, QueryEvent};
    use rnn_roadnet::{generators, ObjectId};

    /// Line of 6 nodes: one sequence, endpoints degree 1 → no active nodes.
    fn line_setup() -> Gma {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut gma = Gma::new(net.clone());
        for e in net.edge_ids() {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        gma
    }

    /// A cross: center node 0 of degree 4, rays subdivided so sequences
    /// have length 2.
    ///
    /// ```text
    ///            4
    ///            |
    ///            3
    ///            |
    /// 8--7--0--1--2   (plus a south ray 5-6)
    /// ```
    fn cross_setup() -> (Arc<RoadNetwork>, Gma) {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let c = b.add_node(0.0, 0.0); // 0
        let e1 = b.add_node(1.0, 0.0); // 1
        let e2 = b.add_node(2.0, 0.0); // 2
        let n1 = b.add_node(0.0, 1.0); // 3
        let n2 = b.add_node(0.0, 2.0); // 4
        let s1 = b.add_node(0.0, -1.0); // 5
        let s2 = b.add_node(0.0, -2.0); // 6
        let w1 = b.add_node(-1.0, 0.0); // 7
        let w2 = b.add_node(-2.0, 0.0); // 8
        b.add_edge_euclidean(c, e1); // e0
        b.add_edge_euclidean(e1, e2); // e1
        b.add_edge_euclidean(c, n1); // e2
        b.add_edge_euclidean(n1, n2); // e3
        b.add_edge_euclidean(c, s1); // e4
        b.add_edge_euclidean(s1, s2); // e5
        b.add_edge_euclidean(c, w1); // e6
        b.add_edge_euclidean(w1, w2); // e7
        let net = Arc::new(b.build().unwrap());
        let gma = Gma::new(net.clone());
        (net, gma)
    }

    #[test]
    fn line_has_no_active_nodes() {
        let mut gma = line_setup();
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        assert_eq!(
            gma.active_node_count(),
            0,
            "degree-1 endpoints never activate"
        );
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].object, ObjectId(2));
        assert_eq!(r[0].dist, 0.0);
        assert_eq!(r[1].dist, 1.0);
    }

    #[test]
    fn cross_activates_center() {
        let (_, mut gma) = cross_setup();
        // One object per ray tip edge.
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.5),
        )); // east, x=1.5
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        )); // north
        gma.apply(UpdateEvent::insert_object(
            ObjectId(2),
            NetPoint::new(EdgeId(5), 0.5),
        )); // south
        gma.apply(UpdateEvent::insert_object(
            ObjectId(3),
            NetPoint::new(EdgeId(7), 0.5),
        )); // west
            // Query on the east ray at x=0.5 (edge e0 frac 0.5).
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        // Only the center (node 0) can be active; the east sequence runs
        // from node 0 to terminal node 2.
        assert_eq!(gma.active_node_count(), 1);
        let r = gma.result(QueryId(1)).unwrap();
        // o0 at |1.5-0.5| = 1.0 along the ray; the others at 0.5 + 1.5 = 2.0.
        assert_eq!(r[0].object, ObjectId(0));
        assert!((r[0].dist - 1.0).abs() < 1e-12);
        assert!((r[1].dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_change_propagates_to_query() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.9),
        )); // east far
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        )); // north
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        // NN is o0 at 1.4.
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(0));
        // o1 moves close to the center on the north ray: d(q, o1) becomes
        // 0.5 + 0.1 = 0.6 < 1.4. The change reaches q via node 0's NN set.
        let rep = gma.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(1),
                to: NetPoint::new(EdgeId(2), 0.1),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r[0].object, ObjectId(1));
        assert!((r[0].dist - 0.6).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_updates_ignored() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(0), 0.6),
        ));
        gma.apply(UpdateEvent::insert_object(
            ObjectId(9),
            NetPoint::new(EdgeId(7), 0.9),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let before = gma.result(QueryId(1)).unwrap().to_vec();
        // Far-west object wiggles far outside everything.
        let rep = gma.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(9),
                to: NetPoint::new(EdgeId(7), 0.95),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 0);
        assert_eq!(gma.result(QueryId(1)).unwrap(), before.as_slice());
    }

    #[test]
    fn query_move_across_sequences() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.5),
        ));
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(0));
        // Move to the north ray.
        gma.tick(&UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(1),
                to: NetPoint::new(EdgeId(2), 0.5),
            }],
            ..Default::default()
        });
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(1));
        // Remove the query: center deactivates.
        gma.apply(UpdateEvent::remove_query(QueryId(1)));
        assert_eq!(gma.active_node_count(), 0);
    }

    #[test]
    fn edge_update_within_sequence() {
        let mut gma = line_setup();
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        let rep = gma.tick(&UpdateBatch {
            edges: vec![EdgeWeightUpdate {
                edge: EdgeId(1),
                new_weight: 0.2,
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        // o1 (midpoint of shrunk edge 1) now at 0.5 + 0.1 = 0.6.
        assert_eq!(r[1].object, ObjectId(1));
        assert!((r[1].dist - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ring_network_cycle_sequence() {
        // Isolated ring: one cycle sequence, no active nodes ever.
        let net = Arc::new(generators::ring_network(8, 4.0));
        let mut gma = Gma::new(net.clone());
        for e in net.edge_ids() {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            3,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(gma.active_node_count(), 0);
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].object, ObjectId(0));
        assert_eq!(r[0].dist, 0.0);
        // Both ring neighbours are equidistant.
        assert!((r[1].dist - r[2].dist).abs() < 1e-9);
    }

    #[test]
    fn max_k_demand_drives_node_k() {
        let (_, mut gma) = cross_setup();
        for i in 0..8u32 {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i % 8), 0.4),
            ));
        }
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(2),
            5,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        // Center node must monitor max(1, 5) = 5 NNs.
        let key = gma.node_anchor[&NodeId(0)];
        assert_eq!(gma.nodes.get(key).unwrap().k, 5);
        // The 5-NN query's result is complete.
        assert_eq!(gma.result(QueryId(2)).unwrap().len(), 5);
        // Removing the 5-NN query shrinks the node demand.
        gma.apply(UpdateEvent::remove_query(QueryId(2)));
        let key = gma.node_anchor[&NodeId(0)];
        assert_eq!(gma.nodes.get(key).unwrap().k, 1);
    }

    #[test]
    fn memory_reports_sequences() {
        let gma = line_setup();
        assert!(gma.memory().auxiliary > 0, "GMA carries the sequence table");
    }
}
