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
//! node-rooted, static, keyed by [`NodeId`] — the paper's node table
//! **NT**).
//!
//! ## A query is answered by a merge
//!
//! Lemma 1's union is taken as a **3-way merge of sorted lists**, emitting
//! the first k *distinct* objects (`merge_first_k`):
//!
//! * the in-sequence candidates — the objects the within-sequence walk
//!   passes, at their along-sequence distance — gathered into a small
//!   buffer and sorted by `(dist, id)`;
//! * the monitored NN set of each reachable endpoint, **borrowed as it
//!   is**: an active node keeps its result sorted by `(dist, id)`, and
//!   adding the query's along-sequence distance to that endpoint to every
//!   entry is monotone, so the offset list is still sorted and is read in
//!   place.
//!
//! An object can sit in several lists (in the sequence *and* in an endpoint
//! set; in both endpoint sets). The merge emits in ascending distance, so
//! an object's **first sighting is its smallest instance** — the paper's
//! "keep only the instance with the smallest distance" needs nothing but a
//! seen-set, and the merge stops after about k steps instead of pushing
//! every candidate through a sorted insert. The result is exactly the k
//! smallest `(dist, id)` of the union, ties included: two offset sums of
//! one list may round to the same float with their ids the wrong way
//! round, so the merge notes an out-of-order pair as it emits (and
//! re-sorts, rarely), and once it holds k it reads on through the
//! candidates that tie with the k-th, letting a smaller id take its place.
//!
//! **Where the walk stops.** A direction stops at the first boundary node
//! that already has k distinct in-sequence candidates strictly nearer than
//! itself — everything further along is strictly beyond the k-th candidate
//! of the walk alone, hence of the union. That is the bound the live k-th
//! of a sorted accumulator would give, taken as a count over the buffer at
//! each boundary instead of kept in order at every push. The buffer is cut
//! back to its k nearest whenever it reaches 2k, which changes no count
//! that reaches k and keeps the buffer, and the count, O(k) on a crowded
//! edge.
//!
//! **Cycles.** A cycle sequence is walked all the way round in both
//! directions (ending with a re-scan of the query's own edge from its far
//! side), so every object on it enters the walk buffer twice, once per way
//! round. There the buffer is never cut and the count goes through the
//! seen-set; sorted, the buffer hands the merge the shorter way first and
//! the seen-set drops the longer one.
//!
//! ## Maintenance
//!
//! Figure 12 re-evaluates a query from scratch only when one of the four
//! invalidating events touches it: (i) its own movement, (ii) a change in
//! a reachable endpoint's NN set, (iii) an object update inside its
//! influencing intervals, (iv) a weight change of an influencing edge.
//! Events are detected with per-sequence influence lists plus the cached
//! along-sequence endpoint distances.
//!
//! Special cases handled exactly as the paper prescribes: terminal
//! (degree-1) endpoints are never activated (nothing lies beyond them), and
//! isolated all-degree-2 cycles need no active nodes at all (the
//! bidirectional walk covers the entire component).

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{
    EdgeId, FxHashMap, FxHashSet, NetPoint, NodeId, ObjectId, QueryId, RoadNetwork, SeqId,
    Sequence, SequenceTable,
};

use crate::anchor::AnchorSet;
use crate::counters::{push_charged, reserve_charged, MemoryUsage, OpCounters, TickReport};
use crate::influence::{InfluenceTable, IntervalSet};
use crate::monitor::ContinuousMonitor;
use crate::search::StampTable;
use crate::snapshot::MonitorState;
use crate::state::NetworkState;
use crate::types::{cmp_neighbors, Neighbor, RootPos, UpdateBatch};

struct GmaQuery {
    k: usize,
    pos: NetPoint,
    seq: SeqId,
    result: Vec<Neighbor>,
    knn_dist: f64,
    /// Along-sequence distances to `(start_node, end_node)` at last
    /// evaluation (used to filter endpoint-NN-change events).
    d_ends: (f64, f64),
    /// How many steps of the walk toward the start / toward the end carry
    /// this query's influence intervals, besides its own edge (all zero
    /// and nothing registered until the first evaluation).
    reach: [usize; 2],
}

/// The reused buffers of [`Gma::eval_query`]. Each is given the room its
/// bound calls for where that bound is set — the longest sequence at
/// construction, `k` when a query is installed — so an evaluation grows
/// one only on a cycle sequence, whose walk buffer has no bound; that
/// growth is charged to `alloc_events`.
#[derive(Default)]
struct EvalScratch {
    /// In-sequence candidates of the evaluation in progress.
    walk: Vec<Neighbor>,
    /// The merged result; swapped with the query's when it differs.
    merged: Vec<Neighbor>,
    /// Objects the merge has emitted (and, on cycles, the walk's count of
    /// distinct candidates).
    seen: StampTable<()>,
    /// The influence intervals being rebuilt, one entry per edge.
    intervals: Vec<(EdgeId, IntervalSet)>,
}

/// The group monitoring algorithm.
pub struct Gma {
    net: Arc<RoadNetwork>,
    seqs: SequenceTable,
    state: NetworkState,
    /// IMA module monitoring the active nodes (**NT**).
    nodes: AnchorSet<NodeId>,
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
    eval: EvalScratch,
    /// Per-tick scratch: the queries Figure 12 marks for re-evaluation …
    needs_eval: FxHashSet<QueryId>,
    /// … the same in ascending id order, the order they are evaluated in,
    /// cut down after evaluation to the ones whose answer changed: the list
    /// behind [`ContinuousMonitor::changed_queries`] …
    eval_order: Vec<QueryId>,
    /// … the queries this tick re-installed at another k, with the bits of
    /// the `kNN_dist` they had: the one way `kNN_dist` moves under a result
    /// [`Gma::eval_query`] finds unchanged …
    rekeyed: Vec<(QueryId, u64)>,
    /// … and the nodes whose k demand this tick's query events touched.
    touched_nodes: Vec<NodeId>,
    /// Per-tick scratch: how many re-evaluated queries took a candidate
    /// from each active node's monitored expansion this tick. Every use
    /// beyond the first is one network expansion that did not run — GMA's
    /// expansion sharing (Lemma 1), surfaced through
    /// [`OpCounters::shared_expansions`].
    tick_served: FxHashMap<NodeId, u32>,
}

/// Emits into `out` the first `k` distinct objects of the merge of three
/// lists, each sorted by `(dist, id)` and read with its offset added to
/// every distance — Lemma 1's union with the smallest instance kept per
/// object, as the k smallest `(dist, id)` (see the module docs for why the
/// first sighting is the smallest instance and how rounding ties are
/// handled). Returns how many entries of each list were consumed.
fn merge_first_k(
    k: usize,
    lists: [(&[Neighbor], f64); 3],
    seen: &mut StampTable<()>,
    out: &mut Vec<Neighbor>,
    allocs: &mut u64,
) -> [usize; 3] {
    let head = |list: usize, at: usize| match lists[list].0.get(at) {
        Some(n) => (lists[list].1 + n.dist, n.object),
        None => (f64::INFINITY, ObjectId(u32::MAX)),
    };
    out.clear();
    seen.clear();
    let mut at = [0usize; 3];
    let mut heads = [head(0, 0), head(1, 0), head(2, 0)];
    // Emission is in ascending distance; only ids under one distance can
    // come out of order (offset sums of one list rounding to a tie).
    let mut in_order = true;
    loop {
        let mut m = 0;
        if heads[1] < heads[m] {
            m = 1;
        }
        if heads[2] < heads[m] {
            m = 2;
        }
        let (dist, object) = heads[m];
        let full = out.len() == k;
        // All lists exhausted, or k emitted and this one strictly beyond
        // the k-th.
        if dist == f64::INFINITY || (full && dist > out[k - 1].dist) {
            break;
        }
        at[m] += 1;
        heads[m] = head(m, at[m]);
        if !seen.first_sighting(object) {
            continue;
        }
        let next = Neighbor { object, dist };
        if !full {
            in_order &= !out
                .last()
                .is_some_and(|last| cmp_neighbors(last, &next).is_gt());
            push_charged(out, next, allocs);
            if out.len() == k && !in_order {
                out.sort_unstable_by(cmp_neighbors);
                in_order = true;
            }
        } else if object < out[k - 1].object {
            // Ties with the k-th at a smaller id: it takes its place among
            // the k, which stay sorted, and the k-th drops out.
            out.pop();
            let to = out.partition_point(|n| cmp_neighbors(n, &next).is_lt());
            out.insert(to, next);
        }
    }
    if !in_order {
        out.sort_unstable_by(cmp_neighbors);
    }
    at
}

/// Whether at least `k` distinct objects of `walk` lie strictly nearer than
/// `bound`. `distinct` is the seen-set to count through when the buffer can
/// hold an object twice (cycle sequences), `None` when it cannot.
fn k_nearer_than(
    walk: &[Neighbor],
    k: usize,
    bound: f64,
    distinct: Option<&mut StampTable<()>>,
) -> bool {
    if walk.len() < k {
        return false;
    }
    let nearer = walk.iter().filter(|n| n.dist < bound);
    match distinct {
        None => nearer.count() >= k,
        Some(seen) => {
            seen.clear();
            nearer.filter(|n| seen.first_sighting(n.object)).count() >= k
        }
    }
}

impl Gma {
    /// Creates a GMA server over `net` with base weights and no objects.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        let seqs = SequenceTable::build(&net);
        // lint: allow(hot-path-alloc): construction
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
        let longest_sequence = seqs.iter().map(|s| s.edges.len()).max().unwrap_or(0);
        Self {
            seqs,
            state: NetworkState::new(&net),
            nodes: AnchorSet::new(net.clone()),
            // lint: allow(hot-path-alloc): construction; grows with the set of active nodes
            node_ks: FxHashMap::default(),
            node_seqs,
            // lint: allow(hot-path-alloc): construction; grows when queries are installed
            queries: FxHashMap::default(),
            // lint: allow(hot-path-alloc): construction; grows when queries enter new sequences
            seq_queries: FxHashMap::default(),
            qil: InfluenceTable::new(net.num_edges()),
            eval: EvalScratch {
                // An evaluation's intervals: one per edge of its sequence.
                intervals: Vec::with_capacity(longest_sequence),
                ..Default::default()
            },
            // lint: allow(hot-path-alloc): construction; the tick clears it and charges its growth
            needs_eval: FxHashSet::default(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; the tick charges its growth
            eval_order: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; only a re-install at another k, a cold path, pushes to it
            rekeyed: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; the tick charges its growth
            touched_nodes: Vec::new(),
            // lint: allow(hot-path-alloc): construction; grows with the set of active nodes
            tick_served: FxHashMap::default(),
            net,
        }
    }

    /// The sequence table (exposed for tests and examples).
    pub fn sequences(&self) -> &SequenceTable {
        &self.seqs
    }

    /// Number of currently active nodes (reported in the paper's
    /// experiments, e.g. "GMA monitors only 844 active nodes on average").
    pub fn active_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes whose k demand must be (de)registered for a query in sequence
    /// `seq` — its endpoints with degree ≥ 3 (terminals have nothing beyond
    /// them; an isolated cycle's degree-2 breakpoint likewise), each once.
    fn endpoints_for(&self, seq: SeqId) -> [Option<NodeId>; 2] {
        let s = self.seqs.sequence(seq);
        let (a, b) = (s.start_node(), s.end_node());
        [
            (self.net.degree(a) >= 3).then_some(a),
            (b != a && self.net.degree(b) >= 3).then_some(b),
        ]
    }

    /// Registers `qid`'s demand for `k` neighbors at the endpoints of
    /// `seq`, noting them in `touched_nodes` for the caller to re-sync.
    fn register_query_demand(
        &mut self,
        seq: SeqId,
        qid: QueryId,
        k: usize,
        counters: &mut OpCounters,
    ) {
        self.seq_queries.entry(seq).or_default().insert(qid);
        for n in self.endpoints_for(seq).into_iter().flatten() {
            self.node_ks.entry(n).or_default().push(k);
            push_charged(&mut self.touched_nodes, n, &mut counters.alloc_events);
        }
    }

    /// Withdraws what [`Self::register_query_demand`] registered.
    fn unregister_query_demand(
        &mut self,
        seq: SeqId,
        qid: QueryId,
        k: usize,
        counters: &mut OpCounters,
    ) {
        if let Some(set) = self.seq_queries.get_mut(&seq) {
            set.remove(&qid);
            if set.is_empty() {
                self.seq_queries.remove(&seq);
            }
        }
        for n in self.endpoints_for(seq).into_iter().flatten() {
            if let Some(ks) = self.node_ks.get_mut(&n) {
                if let Some(i) = ks.iter().position(|&x| x == k) {
                    ks.swap_remove(i);
                }
                if ks.is_empty() {
                    self.node_ks.remove(&n);
                }
            }
            push_charged(&mut self.touched_nodes, n, &mut counters.alloc_events);
        }
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
        match (self.nodes.get(n).map(|rec| rec.k), self.desired_k(n)) {
            (None, Some(k)) => self
                .nodes
                .add(&self.state, n, RootPos::Node(n), k, counters),
            (Some(_), None) => {
                self.nodes.remove(n);
            }
            (Some(k_now), Some(k)) if k_now != k => self.nodes.set_k(&self.state, n, k, counters),
            _ => {}
        }
    }

    /// Re-syncs the nodes noted in `touched_nodes`, in ascending id order.
    ///
    /// Deactivations run before activations: a node whose demand just
    /// vanished returns its expansion tree to the pool first, so a node
    /// activating in the same tick re-expands into those recycled slots
    /// instead of growing the pool — activation churn stays
    /// allocation-free in steady state.
    fn sync_touched_nodes(&mut self, counters: &mut OpCounters) {
        let mut nodes = std::mem::take(&mut self.touched_nodes);
        nodes.sort_unstable();
        nodes.dedup();
        for pass_active in [false, true] {
            for &n in &nodes {
                if self.desired_k(n).is_some() == pass_active {
                    self.sync_node(n, counters);
                }
            }
        }
        nodes.clear();
        self.touched_nodes = nodes;
    }

    /// Within-sequence evaluation (§5) — Lemma 1 as a merge (see the
    /// module docs): gather the in-sequence candidates by walking both
    /// directions from the query, sort that small buffer, merge it with
    /// the borrowed, offset NN sets of the reachable endpoints into the
    /// first k distinct objects, swap the result in if it differs, and
    /// rebuild the query's influence intervals. Returns whether the
    /// result changed. `q` is `qid`'s record, set aside by the tick with
    /// the rest of the query table.
    fn eval_query(&mut self, qid: QueryId, q: &mut GmaQuery, counters: &mut OpCounters) -> bool {
        counters.reevaluations += 1;
        let (k, pos, seq) = (q.k, q.pos, q.seq);
        let s = self.seqs.sequence(seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in its sequence");
        let w0 = self.state.weights.get(pos.edge);
        let mut scratch = std::mem::take(&mut self.eval);

        // (i) The objects in s: the query's own edge, then outward in each
        // direction (edges i0-1 .. 0 toward the start, i0+1 .. toward the
        // end).
        scratch.walk.clear();
        let from_query = |f: f64| (f - pos.frac).abs() * w0;
        self.gather_edge(pos.edge, from_query, s, k, &mut scratch.walk, counters);
        self.walk_direction(s, i0, pos, true, k, &mut scratch, counters);
        self.walk_direction(s, i0, pos, false, k, &mut scratch, counters);
        scratch.walk.sort_unstable_by(cmp_neighbors);

        // (ii) The NN sets of the endpoints, at the along-sequence distance
        // from q to each. Terminals and isolated-cycle breakpoints
        // (degree < 3) have nothing beyond them; a lollipop cycle has its
        // single intersection once, at the shorter of the two ways around.
        let (d_start, d_end) = s.dist_to_endpoints(&self.state.weights, pos);
        let exits = if s.is_cycle() {
            [Some((s.start_node(), d_start.min(d_end))), None]
        } else {
            [Some((s.start_node(), d_start)), Some((s.end_node(), d_end))]
        };
        let mut lists: [(&[Neighbor], f64); 3] = [(&scratch.walk, 0.0), (&[], 0.0), (&[], 0.0)];
        for (list, exit) in lists[1..].iter_mut().zip(exits) {
            let Some((n, base)) = exit.filter(|&(n, _)| self.net.degree(n) >= 3) else {
                continue;
            };
            let rec = self
                .nodes
                .get(n)
                .expect("endpoint of a query sequence is active");
            debug_assert!(rec.k >= k, "active node monitors too few NNs");
            *list = (&rec.result, base);
        }
        let taken = merge_first_k(
            k,
            lists,
            &mut scratch.seen,
            &mut scratch.merged,
            &mut counters.alloc_events,
        );
        for (&taken, exit) in taken[1..].iter().zip(exits) {
            if let (true, Some((n, _))) = (taken > 0, exit) {
                counters.objects_considered += taken as u64;
                *self.tick_served.entry(n).or_default() += 1;
            }
        }

        let changed = q.result != scratch.merged;
        if changed {
            std::mem::swap(&mut q.result, &mut scratch.merged);
        }
        q.knn_dist = if q.result.len() == k {
            q.result[k - 1].dist
        } else {
            f64::INFINITY
        };
        q.d_ends = (d_start, d_end);
        self.rebuild_query_influence(qid, q, &mut scratch.intervals, counters);
        self.eval = scratch;
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
    /// walk (`w0` = current weight of the query's edge).
    fn walk_start_dist(s: &Sequence, i0: usize, pos: NetPoint, w0: f64, toward_start: bool) -> f64 {
        if s.forward[i0] == toward_start {
            pos.frac * w0
        } else {
            (1.0 - pos.frac) * w0
        }
    }

    /// Adds the objects of edge `e` to the walk buffer, each at `dist_of`
    /// its fraction. Only the k nearest can matter, and off a cycle every
    /// object enters the buffer once: there it is cut back to its k
    /// smallest whenever it reaches 2k, so a crowded edge costs O(1) per
    /// object and the buffer stays small. On a cycle the buffer holds
    /// objects twice and is left whole.
    fn gather_edge(
        &self,
        e: EdgeId,
        dist_of: impl Fn(f64) -> f64,
        s: &Sequence,
        k: usize,
        walk: &mut Vec<Neighbor>,
        counters: &mut OpCounters,
    ) {
        counters.edges_scanned += 1;
        for &(object, f) in self.state.objects.on_edge(e) {
            counters.objects_considered += 1;
            let dist = dist_of(f);
            push_charged(walk, Neighbor { object, dist }, &mut counters.alloc_events);
            if walk.len() >= 2 * k && !s.is_cycle() {
                walk.select_nth_unstable_by(k - 1, cmp_neighbors);
                walk.truncate(k);
            }
        }
    }

    /// Gathers the objects of one direction of the sequence walk, stopping
    /// at the first boundary node with k candidates strictly nearer than
    /// itself.
    #[allow(clippy::too_many_arguments)]
    fn walk_direction(
        &self,
        s: &Sequence,
        i0: usize,
        pos: NetPoint,
        toward_start: bool,
        k: usize,
        scratch: &mut EvalScratch,
        counters: &mut OpCounters,
    ) {
        let w0 = self.state.weights.get(pos.edge);
        let mut acc = Self::walk_start_dist(s, i0, pos, w0, toward_start);
        for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
            let distinct = s.is_cycle().then_some(&mut scratch.seen);
            if k_nearer_than(&scratch.walk, k, acc, distinct) {
                break;
            }
            let e = s.edges[edge_idx];
            let w = self.state.weights.get(e);
            let from_start = self.net.edge(e).start == s.nodes[boundary];
            let from_boundary = |f: f64| acc + if from_start { f * w } else { (1.0 - f) * w };
            self.gather_edge(e, from_boundary, s, k, &mut scratch.walk, counters);
            acc += w;
        }
    }

    /// Takes `qid` out of the influence lists of walk steps
    /// `from[d] .. to[d]` of each direction `d` around offset `i0` of `s`.
    fn drop_influence(
        qil: &mut InfluenceTable<QueryId>,
        s: &Sequence,
        i0: usize,
        qid: QueryId,
        from: [usize; 2],
        to: [usize; 2],
    ) {
        for (d, toward_start) in [true, false].into_iter().enumerate() {
            let steps = Self::walk_steps(s, i0, toward_start);
            for (edge_idx, _) in steps.take(to[d]).skip(from[d]) {
                qil.remove(s.edges[edge_idx], qid);
            }
        }
    }

    /// Takes a query that is leaving its position out of every influence
    /// list it is in.
    fn clear_influence(
        qil: &mut InfluenceTable<QueryId>,
        seqs: &SequenceTable,
        qid: QueryId,
        q: &mut GmaQuery,
    ) {
        let s = seqs.sequence(q.seq);
        let i0 = s.edge_offset(q.pos.edge).expect("query edge in sequence");
        qil.remove(q.pos.edge, qid);
        Self::drop_influence(qil, s, i0, qid, [0; 2], q.reach);
        q.reach = [0; 2];
    }

    /// Rebuilds the within-sequence influence intervals of a query from its
    /// current `knn_dist`: computes them into `fresh`, drops the query from
    /// the edges its reach has withdrawn from, and rewrites (in place) or
    /// adds its entry on the edges it influences now.
    fn rebuild_query_influence(
        &mut self,
        qid: QueryId,
        q: &mut GmaQuery,
        fresh: &mut Vec<(EdgeId, IntervalSet)>,
        counters: &mut OpCounters,
    ) {
        let (pos, knn) = (q.pos, q.knn_dist);
        let s = self.seqs.sequence(q.seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in sequence");
        fresh.clear();

        // Widen by the standard slack so boundary entities (the k-th NN
        // itself) never escape detection through float rounding.
        let slack = crate::anchor::interval_slack(knn);
        let knn = knn + slack;

        // Own edge.
        let w0 = self.state.weights.get(pos.edge);
        let r0 = knn / w0;
        let own = IntervalSet::single(pos.frac - r0, pos.frac + r0);
        push_charged(fresh, (pos.edge, own), &mut counters.alloc_events);

        // Both directions (wrapping around for cycle sequences).
        let mut reach = [0; 2];
        for (d, toward_start) in [true, false].into_iter().enumerate() {
            let mut acc = Self::walk_start_dist(s, i0, pos, w0, toward_start);
            for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
                if acc >= knn {
                    break;
                }
                let e = s.edges[edge_idx];
                let w = self.state.weights.get(e);
                let b = s.nodes[boundary];
                let f = ((knn - acc) / w).min(1.0);
                let (lo, hi) = if self.net.edge(e).start == b {
                    (0.0, f)
                } else {
                    (1.0 - f, 1.0)
                };
                // A cycle walk can reach an edge from both directions.
                let reached = s
                    .is_cycle()
                    .then(|| fresh.iter_mut().find(|(x, _)| *x == e))
                    .flatten();
                match reached {
                    Some((_, ivs)) => ivs.add(lo, hi),
                    None => push_charged(
                        fresh,
                        (e, IntervalSet::single(lo, hi)),
                        &mut counters.alloc_events,
                    ),
                }
                acc += w;
                reach[d] += 1;
            }
        }

        // Withdraw first: on a cycle an edge one direction gave up may be
        // one the other direction reaches now, and is then put back below.
        Self::drop_influence(&mut self.qil, s, i0, qid, reach, q.reach);
        q.reach = reach;
        for &(e, ivs) in fresh.iter() {
            self.qil.insert(e, qid, ivs);
        }
    }

    /// Registers a query that has not been evaluated yet. Installation is
    /// where buffers are allocated (charged to `install_alloc_events`):
    /// the query's result — evaluations swap result buffers with the
    /// shared scratch, and with every buffer in circulation `k` long they
    /// never grow one — and the room the new query adds to the bounds of
    /// the tick's lists and the evaluation scratch, which therefore do not
    /// grow in a tick.
    fn install_query(
        &mut self,
        id: QueryId,
        k: usize,
        pos: NetPoint,
        seq: SeqId,
        counters: &mut OpCounters,
    ) {
        counters.install_alloc_events += 1;
        let q = GmaQuery {
            k,
            pos,
            seq,
            result: Vec::with_capacity(k),
            knn_dist: f64::INFINITY,
            d_ends: (f64::INFINITY, f64::INFINITY),
            reach: [0; 2],
        };
        self.queries.insert(id, q);
        let allocs = &mut counters.install_alloc_events;
        // Every query once in the lists of queries to evaluate; up to four
        // endpoint notes per query event (two sequences, two ends each).
        let n = self.queries.len();
        self.needs_eval
            .reserve(n.saturating_sub(self.needs_eval.len()));
        reserve_charged(&mut self.eval_order, n, allocs);
        reserve_charged(&mut self.touched_nodes, 4 * n, allocs);
        // The merge emits k; off a cycle the walk buffer is cut back at 2k;
        // the seen-set holds what was emitted plus what tied with the k-th.
        reserve_charged(&mut self.eval.merged, k, allocs);
        reserve_charged(&mut self.eval.walk, 2 * k, allocs);
        self.eval.seen.reserve(2 * k);
        *allocs += self.eval.seen.take_alloc_events();
    }

    /// Drops a departing query's influence entries and k demand.
    fn retire_query(&mut self, id: QueryId, mut q: GmaQuery, counters: &mut OpCounters) {
        Self::clear_influence(&mut self.qil, &self.seqs, id, &mut q);
        self.unregister_query_demand(q.seq, id, q.k, counters);
    }
}

impl ContinuousMonitor for Gma {
    fn name(&self) -> &'static str {
        "GMA"
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();
        self.tick_served.clear();
        let deltas = self.state.apply_batch(batch);

        // ---- Figure 12, lines 1-4: query arrivals/departures/moves update
        // the sequence registry and the active-node demands.
        self.needs_eval.clear();
        self.rekeyed.clear();
        let mut removed_with_answer = 0;
        for d in &deltas.queries {
            match (d.old, d.new) {
                (Some(_), None) => {
                    if let Some(q) = self.queries.remove(&d.id) {
                        removed_with_answer += usize::from(!q.result.is_empty());
                        self.retire_query(d.id, q, &mut counters);
                    }
                }
                (old, Some((k, at))) => {
                    let new_seq = self.seqs.seq_of_edge(at.edge);
                    match old {
                        Some(_) => {
                            // Move (possibly with a k change): deregister the
                            // old placement, register the new one.
                            let q = self.queries.get_mut(&d.id).expect("known query");
                            Self::clear_influence(&mut self.qil, &self.seqs, d.id, q);
                            let (old_seq, old_k) = (q.seq, q.k);
                            if old_k != k {
                                // Cold path: streams move queries, they
                                // rarely re-key them.
                                self.rekeyed.push((d.id, q.knn_dist.to_bits()));
                            }
                            q.k = k;
                            q.pos = at;
                            q.seq = new_seq;
                            self.unregister_query_demand(old_seq, d.id, old_k, &mut counters);
                        }
                        None => self.install_query(d.id, k, at, new_seq, &mut counters),
                    }
                    self.register_query_demand(new_seq, d.id, k, &mut counters);
                    self.needs_eval.insert(d.id);
                }
                (None, None) => {}
            }
        }
        self.sync_touched_nodes(&mut counters);

        // ---- Line 5: IMA maintenance of the active nodes.
        counters.merge(
            &self
                .nodes
                .tick(&self.state, &deltas.objects, &deltas.edges, &[]),
        );

        // ---- Lines 6-15: determine the affected user queries.
        // (i) endpoint NN-set changes within reach.
        for &n in self.nodes.changed() {
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
                        self.needs_eval.insert(qid);
                    }
                }
            }
        }
        // (ii) object updates inside influencing intervals.
        for d in &deltas.objects {
            let mut any = false;
            for p in [d.old, d.new].into_iter().flatten() {
                for qid in self.qil.covering(p.edge, p.frac) {
                    self.needs_eval.insert(qid);
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
                self.needs_eval.extend(entries.iter().map(|&(q, _)| q));
            }
        }

        // ---- Lines 16-17: recompute the affected queries from scratch
        // (within their sequences, sharing the active-node NN sets).
        // The evaluation order is cut down, in place, to the queries whose
        // result changed — what `changed_queries` hands out.
        let mut order = std::mem::take(&mut self.eval_order);
        order.clear();
        order.extend(self.needs_eval.iter().copied());
        order.sort_unstable();
        // The query table is set aside meanwhile, so that each query is
        // looked up once and evaluated through that borrow.
        let mut queries = std::mem::take(&mut self.queries);
        order.retain(|&qid| {
            queries
                .get_mut(&qid)
                .is_some_and(|q| self.eval_query(qid, q, &mut counters))
        });
        self.queries = queries;
        // A re-install at another k moves `kNN_dist` (k-th distance ↔ ∞)
        // even where the result stands.
        for &(qid, knn_before) in &self.rekeyed {
            if let Err(at) = order.binary_search(&qid) {
                if self.queries[&qid].knn_dist.to_bits() != knn_before {
                    order.insert(at, qid);
                }
            }
        }
        let results_changed = order.len() + removed_with_answer;
        self.eval_order = order;

        // Expansion sharing: every query beyond the first served from the
        // same active-node expansion this tick reused it instead of
        // expanding on its own.
        counters.shared_expansions += self
            .tick_served
            .values()
            .map(|&c| u64::from(c.saturating_sub(1)))
            .sum::<u64>();
        // Allocation/step accounting: node-anchor engine + influence
        // arenas, the query influence arena, the object index arena and
        // the merge's seen-set (the evaluation buffers charge themselves).
        self.nodes.harvest_scratch_counters(&mut counters);
        counters.alloc_events += self.qil.take_alloc_events()
            + self.state.objects.take_alloc_events()
            + self.eval.seen.take_alloc_events();

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

    fn changed_queries(&self) -> &[QueryId] {
        &self.eval_order
    }

    fn active_groups(&self) -> Option<usize> {
        Some(self.active_node_count())
    }

    fn memory(&self) -> MemoryUsage {
        let (node_table, trees, node_il) = self.nodes.memory_breakdown();
        let query_table: usize = self
            .queries
            .values()
            .map(|q| {
                std::mem::size_of::<GmaQuery>()
                    + q.result.capacity() * std::mem::size_of::<Neighbor>()
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

    fn snapshot_state(&self) -> Option<MonitorState> {
        Some(MonitorState::capture(&self.net, &self.state, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateEvent};
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
        assert_eq!(gma.nodes.get(NodeId(0)).unwrap().k, 5);
        // The 5-NN query's result is complete.
        assert_eq!(gma.result(QueryId(2)).unwrap().len(), 5);
        // Removing the 5-NN query shrinks the node demand.
        gma.apply(UpdateEvent::remove_query(QueryId(2)));
        assert_eq!(gma.nodes.get(NodeId(0)).unwrap().k, 1);
    }

    #[test]
    fn memory_reports_sequences() {
        let gma = line_setup();
        assert!(gma.memory().auxiliary > 0, "GMA carries the sequence table");
    }
}
