//! **GMA** — the group monitoring algorithm (§5).
//!
//! GMA decomposes the network into *sequences* (maximal paths between
//! degree≠2 nodes, [`rnn_roadnet::SequenceTable`]) and exploits Lemma 1:
//!
//! > "The k-NN set of any query q falling in a sequence s is contained in
//! > the union of (i) the objects in s, (ii) the k-NN sets of the
//! > intersection nodes (endpoints) of s."
//!
//! An answer here, as in every monitor, is the k smallest `(dist, id)`:
//! the id decides among objects at one distance. Lemma 1 holds for that
//! order. If o′ comes before o at an endpoint n — nearer, or as near with
//! a smaller id — then o′ comes before o at q through n, since
//! `d(q, o′) ≤ d(q, n) + d(n, o′) ≤ d(q, n) + d(n, o)`. So an object
//! among q's k smallest whose path leaves the sequence through n is
//! among n's k smallest, which n's monitored set holds.
//!
//! The endpoints of sequences that currently contain queries are **active
//! nodes**; their `n.k`-NN sets (`n.k = max q.k over the adjacent queries`)
//! are maintained with the IMA machinery ([`crate::anchor::AnchorSet`],
//! node-rooted, static, keyed by [`NodeId`] — the paper's node table
//! **NT**).
//!
//! ## A query is answered by a merge
//!
//! Lemma 1's union is taken as a **4-way merge of sorted lists**, emitting
//! the first k *distinct* objects (`merge_first_k`):
//!
//! * the in-sequence candidates, as two **runs**, one per walk direction:
//!   the objects the walk passes on its way toward the sequence's start
//!   and toward its end, at their along-sequence distance, each run in
//!   `(dist, id)` order as it grows;
//! * the monitored NN set of each reachable endpoint, **borrowed as it
//!   is**: an active node keeps its result sorted by `(dist, id)`, and
//!   adding the query's along-sequence distance to that endpoint to every
//!   entry is monotone, so the offset list is still sorted and is read in
//!   place.
//!
//! A run is read off edges kept in order, not sorted per query: the
//! object index threads each edge's order by fraction through its entries
//! ([`ObjectIndex::ranked`](crate::state::ObjectIndex::ranked)), written
//! the first time a walk reads the edge after its objects last changed
//! and read in place by every evaluation after it. An offset along an edge
//! never decreases with the fraction, so under any weights that order is
//! the edge's order by distance from its start. The walk reads its edges
//! in distance order — an edge entered at its start forward, one entered
//! at its end backward, the query's own edge split at the query and read
//! outward both ways — so every candidate it appends to a run is at least
//! as far as the run's last; a candidate tying with the last at a smaller
//! id (an edge read backward, two fractions one offset apart, two edges
//! meeting at a node) bubbles back by id. Off a cycle a run keeps only its
//! k smallest: once it holds k, the rest of an edge is read only while it
//! ties with the k-th.
//!
//! An object can sit in several lists (in the sequence *and* in an endpoint
//! set; in both endpoint sets). The merge emits in ascending distance, so
//! an object's **first sighting is its smallest instance** — the paper's
//! "keep only the instance with the smallest distance" needs nothing but a
//! seen-set (one bit per object id), and the merge stops after about k
//! steps instead of pushing every candidate through a sorted insert.
//! Distances are multiples of the network's distance unit
//! ([`rnn_roadnet::UNIT`]), so an offset sum is exact and keeps its list's
//! `(dist, id)` order: the merge emits in that order with no repair, and
//! stops once it holds k — exactly the k smallest `(dist, id)` of the
//! union, ties included.
//!
//! **Where the walk stops.** A direction stops at the first boundary node
//! that already has k distinct in-sequence candidates strictly nearer than
//! itself — everything further along is strictly beyond the k-th candidate
//! of the walk alone, hence of the union. Off a cycle the runs hold no
//! object twice, so that count is a partition point per run; a run cut
//! back to its k smallest changes no count that reaches k.
//!
//! **Cycles.** A cycle sequence is walked all the way round in both
//! directions (ending with a re-scan of the query's own edge from its far
//! side), so every object on it enters the runs more than once. There a
//! run keeps every candidate and the count goes through the seen-set; the
//! merge meets the shorter way first and the seen-set drops the longer
//! one.
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
    offset, EdgeId, FxHashMap, FxHashSet, NetPoint, NodeId, ObjectId, QueryId, RoadNetwork, SeqId,
    Sequence, SequenceTable,
};

use crate::anchor::AnchorSet;
use crate::counters::{push_charged, reserve_charged, MemoryUsage, OpCounters, TickReport};
use crate::influence::{InfluenceTable, IntervalSet, INTERVAL_SLACK};
use crate::monitor::ContinuousMonitor;
use crate::snapshot::MonitorState;
use crate::state::{NetworkState, OnEdge};
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
/// construction, `k` when a query is installed, the object table's length
/// at the start of a tick — so an evaluation grows one only on a cycle
/// sequence, whose runs have no bound; that growth is charged to
/// `alloc_events`.
#[derive(Default)]
struct EvalScratch {
    /// The in-sequence candidates of the evaluation in progress: the run
    /// toward the sequence's start and the run toward its end.
    runs: [Vec<Neighbor>; 2],
    /// The merged result; swapped with the query's when it differs.
    merged: Vec<Neighbor>,
    /// Objects the merge has emitted (and, on cycles, the walk's count of
    /// distinct candidates); empty between uses.
    seen: ObjectBits,
    /// The influence intervals being rebuilt, one entry per edge.
    intervals: Vec<(EdgeId, IntervalSet)>,
}

/// A set of object ids, one bit per id below the object table's length.
/// Its users unset what they set, so it is empty between uses.
#[derive(Default)]
struct ObjectBits(Vec<u64>);

impl ObjectBits {
    /// Room for every id below `ids`, the length of the object table
    /// (`ObjectIndex::id_bound`). So the set grows only in a tick in which
    /// that table did, a growth that table does not count either.
    fn cover(&mut self, ids: usize) {
        let words = ids.div_ceil(64);
        if words > self.0.len() {
            self.0.resize(words, 0);
        }
    }

    /// Adds `object`; whether it was not in the set.
    #[inline]
    fn insert(&mut self, object: ObjectId) -> bool {
        let (word, bit) = (object.index() / 64, 1 << (object.0 % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    #[inline]
    fn remove(&mut self, object: ObjectId) {
        self.0[object.index() / 64] &= !(1 << (object.0 % 64));
    }
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
    /// Per node, the tick in which a re-evaluated query last took a
    /// candidate from its monitored expansion (0 = never). Every use beyond
    /// a node's first in a tick is one network expansion that did not run
    /// — GMA's expansion sharing (Lemma 1), surfaced through
    /// [`OpCounters::shared_expansions`].
    served: Vec<u32>,
    /// The current tick, counted from 1.
    tick: u32,
}

/// Emits into `out` the first `k` distinct objects of the merge of four
/// lists, each sorted by `(dist, id)` and read with its offset added to
/// every distance — Lemma 1's union with the smallest instance kept per
/// object, as the k smallest `(dist, id)` (see the module docs for why the
/// first sighting is the smallest instance). `seen` is empty on entry and
/// on return. Returns how many entries of each list were consumed.
fn merge_first_k(
    k: usize,
    lists: [(&[Neighbor], f64); 4],
    seen: &mut ObjectBits,
    out: &mut Vec<Neighbor>,
    allocs: &mut u64,
) -> [usize; 4] {
    debug_assert!(
        lists
            .iter()
            .all(|(l, _)| l.windows(2).all(|p| cmp_neighbors(&p[0], &p[1]).is_le())),
        "a merge input is not sorted by (dist, id)"
    );
    // A head as one integer: the bits of a non-negative distance order
    // like the distance, so `(dist, id)` orders like `bits << 32 | id`.
    // An exhausted list reads as the largest key.
    fn key((entries, base): (&[Neighbor], f64), at: usize) -> u128 {
        entries.get(at).map_or(u128::MAX, |n| {
            let dist = base + n.dist;
            debug_assert!(dist.is_sign_positive());
            u128::from(dist.to_bits()) << 32 | u128::from(n.object.0)
        })
    }
    out.clear();
    // One local per list for its head and its read position, not arrays
    // indexed by the list picked: locals stay in registers, and a step is
    // a few compares and one load (arrays sent both through memory on
    // every step, a quarter of the merge's time).
    let [l0, l1, l2, l3] = lists;
    let (mut a0, mut a1, mut a2, mut a3) = (0, 0, 0, 0);
    let (mut h0, mut h1, mut h2, mut h3) = (key(l0, 0), key(l1, 0), key(l2, 0), key(l3, 0));
    while out.len() < k {
        let (m01, k01) = if h1 < h0 { (1, h1) } else { (0, h0) };
        let (m23, k23) = if h3 < h2 { (3, h3) } else { (2, h2) };
        let (m, head) = if k23 < k01 { (m23, k23) } else { (m01, k01) };
        if head == u128::MAX {
            break; // every list exhausted
        }
        match m {
            0 => (a0, h0) = (a0 + 1, key(l0, a0 + 1)),
            1 => (a1, h1) = (a1 + 1, key(l1, a1 + 1)),
            2 => (a2, h2) = (a2 + 1, key(l2, a2 + 1)),
            _ => (a3, h3) = (a3 + 1, key(l3, a3 + 1)),
        }
        let object = ObjectId(head as u32);
        if seen.insert(object) {
            let dist = f64::from_bits((head >> 32) as u64);
            push_charged(out, Neighbor { object, dist }, allocs);
        }
    }
    for n in out.iter() {
        seen.remove(n.object);
    }
    [a0, a1, a2, a3]
}

/// Whether at least `k` distinct objects of the two runs lie strictly
/// nearer than `bound`. `distinct` is the seen-set to count through when
/// the runs can hold an object twice (cycle sequences), `None` when they
/// cannot.
fn k_nearer_than(
    runs: &[Vec<Neighbor>; 2],
    k: usize,
    bound: f64,
    distinct: Option<&mut ObjectBits>,
) -> bool {
    if runs[0].len() + runs[1].len() < k {
        return false;
    }
    let nearer = |r: &[Neighbor]| r.partition_point(|n| n.dist < bound);
    let (a, b) = (&runs[0][..nearer(&runs[0])], &runs[1][..nearer(&runs[1])]);
    match distinct {
        None => a.len() + b.len() >= k,
        Some(seen) => {
            let count = a.iter().chain(b).filter(|n| seen.insert(n.object)).count();
            for n in a.iter().chain(b) {
                seen.remove(n.object);
            }
            count >= k
        }
    }
}

/// Appends to `run` the candidates of one edge, which come in ascending
/// distance, each at least as far as the run's last; ties may come in any
/// id order. The run stays sorted by `(dist, id)` — a tie bubbles back by
/// id — and, given a `cap`, holds only its `cap` smallest: the edge is read
/// on only while its candidates tie with the last.
fn extend_run(
    run: &mut Vec<Neighbor>,
    cap: Option<usize>,
    candidates: impl Iterator<Item = Neighbor>,
    allocs: &mut u64,
) {
    for next in candidates {
        debug_assert!(run.last().map_or(true, |l| l.dist <= next.dist));
        if let Some(&last) = run.last().filter(|_| cap == Some(run.len())) {
            if next.dist > last.dist {
                break;
            }
            if next.object > last.object {
                continue;
            }
            run.pop();
        }
        let ties = run.iter().rev();
        let to = run.len()
            - ties
                .take_while(|n| n.dist == next.dist && n.object > next.object)
                .count();
        push_charged(run, next, allocs);
        if to + 1 < run.len() {
            run[to..].rotate_right(1);
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
            // lint: allow(hot-path-alloc): construction
            served: vec![0; net.num_nodes()],
            tick: 0,
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
    /// be inactive.
    fn desired_k(&self, n: NodeId) -> Option<usize> {
        self.node_ks.get(&n).and_then(|v| v.iter().max()).copied()
    }

    /// Activates and deactivates the nodes noted in `touched_nodes` as
    /// their demand says, in ascending id order, before the node tick, and
    /// leaves noted only the active nodes whose k must follow their demand
    /// after it.
    ///
    /// Deactivations run before activations: a node whose demand just
    /// vanished returns its expansion tree to the pool first, so a node
    /// activating in the same tick re-expands into those recycled slots
    /// instead of growing the pool — activation churn stays
    /// allocation-free in steady state.
    fn activate_touched_nodes(&mut self, counters: &mut OpCounters) {
        let mut nodes = std::mem::take(&mut self.touched_nodes);
        nodes.sort_unstable();
        nodes.dedup();
        for &n in &nodes {
            if self.desired_k(n).is_none() {
                self.nodes.remove(n);
            }
        }
        nodes.retain(
            |&n| match (self.nodes.get(n).map(|rec| rec.k), self.desired_k(n)) {
                (None, Some(k)) => {
                    self.nodes
                        .add(&self.state, n, RootPos::Node(n), k, counters);
                    false
                }
                (Some(now), Some(k)) => now != k,
                _ => false,
            },
        );
        self.touched_nodes = nodes;
    }

    /// Gives each node left noted in `touched_nodes` the k its demand says,
    /// after the node tick: that tick brings a record up to this tick's
    /// objects and weights from the ones its tree and influence intervals
    /// were built for, so a resize must not run before it. A node's answer
    /// at the smaller k is the prefix of its answer at the larger one (both
    /// are the k smallest `(dist, id)`), so a query that read it before
    /// sees no change the node tick did not report.
    fn resize_touched_nodes(&mut self, counters: &mut OpCounters) {
        for &n in &self.touched_nodes {
            if let Some(k) = self.desired_k(n) {
                self.nodes.set_k(&self.state, n, k, counters);
            }
        }
        self.touched_nodes.clear();
    }

    /// Within-sequence evaluation (§5) — Lemma 1 as a merge (see the
    /// module docs): read the in-sequence candidates into one run per
    /// direction by walking both ways from the query, merge the runs with
    /// the borrowed, offset NN sets of the reachable endpoints into the
    /// first k distinct objects, swap the result in if it differs, and
    /// rebuild the query's influence intervals. Returns whether the result
    /// changed. `q` is `qid`'s record, set aside by the tick with the rest
    /// of the query table.
    fn eval_query(&mut self, qid: QueryId, q: &mut GmaQuery, counters: &mut OpCounters) -> bool {
        counters.reevaluations += 1;
        let (k, pos, seq) = (q.k, q.pos, q.seq);
        let s = self.seqs.sequence(seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in its sequence");
        let mut scratch = std::mem::take(&mut self.eval);

        // (i) The objects in s, one run per direction.
        Self::walk(
            &self.net,
            &mut self.state,
            s,
            i0,
            pos,
            k,
            &mut scratch,
            counters,
        );

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
        let [toward_start, toward_end] = &scratch.runs;
        let mut lists: [(&[Neighbor], f64); 4] = [
            (toward_start, 0.0),
            (toward_end, 0.0),
            (&[], 0.0),
            (&[], 0.0),
        ];
        for (list, exit) in lists[2..].iter_mut().zip(exits) {
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
        for (&taken, exit) in taken[2..].iter().zip(exits) {
            if let (true, Some((n, _))) = (taken > 0, exit) {
                counters.objects_considered += taken as u64;
                let served = std::mem::replace(&mut self.served[n.index()], self.tick);
                counters.shared_expansions += u64::from(served == self.tick);
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
            offset(pos.frac, w0)
        } else {
            w0 - offset(pos.frac, w0)
        }
    }

    /// Reads the objects of `s` into the two runs: the query's own edge,
    /// split at the query, then outward in each direction (edges i0-1 .. 0
    /// toward the start, i0+1 .. toward the end), each edge in its order by
    /// fraction ([`ObjectIndex::ranked`](crate::state::ObjectIndex::ranked)),
    /// forward where the walk enters it at its start and backward where at
    /// its end. A direction stops at the first boundary node with k
    /// candidates strictly nearer than itself.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        net: &RoadNetwork,
        state: &mut NetworkState,
        s: &Sequence,
        i0: usize,
        pos: NetPoint,
        k: usize,
        scratch: &mut EvalScratch,
        counters: &mut OpCounters,
    ) {
        // Off a cycle a run holds no object twice and needs only its k
        // smallest.
        let cap = (!s.is_cycle()).then_some(k);
        let w0 = state.weights.get(pos.edge);
        let at = offset(pos.frac, w0);
        let list = state.objects.ranked(pos.edge);
        counters.edges_scanned += 1;
        counters.objects_considered += list.len() as u64;
        let split = list.partition_point(|x| offset(list[x.rank as usize].frac, w0) <= at);
        let from_query = |x: &OnEdge| {
            let OnEdge { object, frac, .. } = list[x.rank as usize];
            let dist = (offset(frac, w0) - at).abs();
            Neighbor { object, dist }
        };
        let [run_start, run_end] = &mut scratch.runs;
        run_start.clear();
        run_end.clear();
        // The edge's start lies toward the sequence's start iff the
        // sequence runs along the edge.
        let (run_before, run_after) = if s.forward[i0] {
            (run_start, run_end)
        } else {
            (run_end, run_start)
        };
        let allocs = &mut counters.alloc_events;
        extend_run(
            run_before,
            cap,
            list[..split].iter().rev().map(from_query),
            allocs,
        );
        extend_run(run_after, cap, list[split..].iter().map(from_query), allocs);

        for (d, toward_start) in [true, false].into_iter().enumerate() {
            let mut acc = Self::walk_start_dist(s, i0, pos, w0, toward_start);
            for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
                let distinct = s.is_cycle().then_some(&mut scratch.seen);
                if k_nearer_than(&scratch.runs, k, acc, distinct) {
                    break;
                }
                let e = s.edges[edge_idx];
                let w = state.weights.get(e);
                let list = state.objects.ranked(e);
                counters.edges_scanned += 1;
                counters.objects_considered += list.len() as u64;
                let from_start = net.edge(e).start == s.nodes[boundary];
                let from_boundary = |x: &OnEdge| {
                    let OnEdge { object, frac, .. } = list[x.rank as usize];
                    let along = offset(frac, w);
                    let dist = acc + if from_start { along } else { w - along };
                    Neighbor { object, dist }
                };
                let (run, allocs) = (&mut scratch.runs[d], &mut counters.alloc_events);
                if from_start {
                    extend_run(run, cap, list.iter().map(from_boundary), allocs);
                } else {
                    extend_run(run, cap, list.iter().rev().map(from_boundary), allocs);
                }
                acc += w;
            }
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

        // Widen by the interval slack so boundary entities (the k-th NN
        // itself) never escape detection through their rounded offsets.
        let knn = knn + INTERVAL_SLACK;

        // Own edge, around the query's rounded offset.
        let w0 = self.state.weights.get(pos.edge);
        let at = offset(pos.frac, w0);
        let own = IntervalSet::single((at - knn) / w0, (at + knn) / w0);
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
        // The merge emits k; off a cycle each run holds at most k.
        reserve_charged(&mut self.eval.merged, k, allocs);
        for run in &mut self.eval.runs {
            reserve_charged(run, k, allocs);
        }
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
        self.tick = self.tick.checked_add(1).unwrap_or_else(|| {
            // Tick wrap: forget every node's last service.
            self.served.fill(0);
            1
        });
        let deltas = self.state.apply_batch(batch);
        self.eval.seen.cover(self.state.objects.id_bound());

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
        self.activate_touched_nodes(&mut counters);

        // ---- Line 5: IMA maintenance of the active nodes.
        counters.merge(
            &self
                .nodes
                .tick(&self.state, &deltas.objects, &deltas.edges, &[]),
        );
        self.resize_touched_nodes(&mut counters);

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
                    if d_n <= q.knn_dist {
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

        // Allocation/step accounting: node-anchor engine + influence
        // arenas, the query influence arena and the object index arena
        // (the evaluation buffers charge themselves).
        self.nodes.harvest_scratch_counters(&mut counters);
        counters.alloc_events +=
            self.qil.take_alloc_events() + self.state.objects.take_alloc_events();

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

    /// An id past the object-id bound would size the object table; a
    /// direct tick panics with a named message before any table grows.
    #[test]
    #[should_panic(expected = "is not below OBJECT_ID_BOUND")]
    fn direct_tick_with_an_unbounded_object_id_panics() {
        let mut gma = line_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(u32::MAX),
            NetPoint::new(EdgeId(0), 0.5),
        ));
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
        assert_eq!((r[0].dist, r[1].dist), (1.0, 2.0));
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
        // 0.5 + 0.125 = 0.625 < 1.4. The change reaches q via node 0's NN
        // set.
        let rep = gma.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(1),
                to: NetPoint::new(EdgeId(2), 0.125),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r[0].object, ObjectId(1));
        assert_eq!(r[0].dist, 0.625);
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
                new_weight: 0.25,
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        // o1 (midpoint of shrunk edge 1) now at 0.5 + 0.125 = 0.625.
        assert_eq!(r[1].object, ObjectId(1));
        assert_eq!(r[1].dist, 0.625);
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
        // Both ring neighbours are equidistant: the smaller id comes first.
        assert_eq!(r[1].dist, r[2].dist);
        assert!(r[1].object < r[2].object);
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

    // ---- The run-based walk: crowded edges, ties across edge boundaries,
    // cycles, and edges whose objects and weights change between ticks.

    /// A path (or, with `cycle`, a ring) of `weights.len()` edges whose
    /// orientation alternates, so a walk enters every other edge at its
    /// end and reads it backward.
    fn zigzag(weights: &[f64], cycle: bool) -> Arc<RoadNetwork> {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let n = weights.len() + usize::from(!cycle);
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(i as f64, 0.0)).collect();
        for (i, &w) in weights.iter().enumerate() {
            let (a, c) = (nodes[i], nodes[(i + 1) % n]);
            if i % 2 == 0 {
                b.add_edge(a, c, w);
            } else {
                b.add_edge(c, a, w);
            }
        }
        Arc::new(b.build().unwrap())
    }

    /// The k smallest `(dist, id)` over every object the monitor holds, by
    /// network distance from `q` under its weights: Lemma 1's answer taken
    /// from its definition.
    fn brute_knn(gma: &Gma, q: NetPoint, k: usize) -> Vec<Neighbor> {
        let mut eng = rnn_roadnet::DijkstraEngine::new(gma.net.num_nodes());
        let mut all: Vec<Neighbor> = (gma.state.objects.iter())
            .map(|(object, at)| {
                let dist = eng.dist_between_points(&gma.net, &gma.state.weights, q, at);
                Neighbor { object, dist }
            })
            .collect();
        all.sort_by(cmp_neighbors);
        all.truncate(k);
        all
    }

    /// Objects crowded onto edge 2 of a zigzag line or ring: more than 2k
    /// of them for every k below, several at one fraction, some at either
    /// end of the edge and, at the same nodes, at the ends of edges 1 and
    /// 3 — ties within an edge and across the boundary between two. Ids
    /// fall as the fractions rise, so every tie comes in the wrong id
    /// order on one side or the other.
    fn crowd() -> Vec<(ObjectId, NetPoint)> {
        let fracs = [
            0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 0.5, 0.625, 0.75, 0.75, 1.0, 1.0,
        ];
        let mut objects: Vec<(ObjectId, NetPoint)> = (0..3)
            .flat_map(|round| fracs.iter().map(move |&f| (round, f)))
            .enumerate()
            .map(|(i, (_, f))| (ObjectId(200 - i as u32), NetPoint::new(EdgeId(2), f)))
            .collect();
        // Node 2 is edge 1's start and edge 2's; node 3 is edge 2's end and
        // edge 3's end (the orientation alternates).
        for (id, e, f) in [
            (7, 1, 0.0),
            (3, 1, 0.0),
            (9, 3, 1.0),
            (1, 3, 1.0),
            (11, 3, 0.5),
            (13, 3, 0.25),
            (15, 3, 0.75),
            (5, 0, 0.5),
        ] {
            objects.push((ObjectId(id), NetPoint::new(EdgeId(e), f)));
        }
        objects.push((ObjectId(4), NetPoint::new(EdgeId(4), 0.5)));
        objects
    }

    /// Queries all along a zigzag network of six edges, at k from 1 to past
    /// the number of objects on the crowded edge.
    fn crowd_queries() -> Vec<(QueryId, usize, NetPoint)> {
        let at = [
            (2, 0.125),
            (2, 0.25),
            (2, 0.5),
            (2, 0.875),
            (1, 0.5),
            (3, 0.0),
            (0, 0.25),
            (5, 0.75),
        ];
        let ks = [1, 2, 4, 9, 40];
        (at.iter().enumerate())
            .flat_map(|(i, &(e, f))| {
                ks.iter().enumerate().map(move |(j, &k)| {
                    let id = QueryId((i * ks.len() + j) as u32);
                    (id, k, NetPoint::new(EdgeId(e), f))
                })
            })
            .collect()
    }

    /// Loads `objects` and `queries` into a GMA over `net`.
    fn load(
        net: &Arc<RoadNetwork>,
        objects: &[(ObjectId, NetPoint)],
        queries: &[(QueryId, usize, NetPoint)],
    ) -> Gma {
        let mut gma = Gma::new(net.clone());
        let mut batch = UpdateBatch::default();
        for &(id, at) in objects {
            batch.push(UpdateEvent::insert_object(id, at));
        }
        gma.tick(&batch);
        let mut batch = UpdateBatch::default();
        for &(id, k, at) in queries {
            batch.push(UpdateEvent::install_query(id, k, at));
        }
        gma.tick(&batch);
        gma
    }

    /// The crowd moves along edge 2, onto it and off it, an object leaves
    /// edge 3 and nothing arrives there, and the weights of edge 2 and its
    /// neighbours change: every order the walk reads must follow.
    fn shake() -> UpdateBatch {
        let mut batch = UpdateBatch::default();
        for (id, e, f) in [
            (200, 2, 0.875),
            (199, 2, 0.375),
            (190, 2, 0.0),
            (180, 1, 0.0),
            (170, 1, 0.25),
            (9, 5, 0.5),
            (5, 2, 0.5),
            (4, 2, 1.0),
        ] {
            batch.push(UpdateEvent::move_object(
                ObjectId(id),
                NetPoint::new(EdgeId(e), f),
            ));
        }
        batch.push(UpdateEvent::delete_object(ObjectId(185)));
        batch.push(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(2), 0.25),
        ));
        for (e, w) in [(2, 0.5), (1, 2.0), (3, 0.25)] {
            batch.push(UpdateEvent::edge(EdgeId(e), w));
        }
        batch
    }

    /// Where the walk is the whole answer — no active nodes — the result
    /// is the k smallest `(dist, id)`, ids included.
    fn assert_walk_is_the_answer(gma: &Gma, queries: &[(QueryId, usize, NetPoint)]) {
        assert_eq!(gma.active_node_count(), 0);
        gma.state.objects.check_invariants();
        for &(id, k, at) in queries {
            let want = brute_knn(gma, at, k);
            assert_eq!(
                gma.result(id).unwrap(),
                want.as_slice(),
                "{id:?} (k = {k}) at {at:?}"
            );
        }
    }

    #[test]
    fn crowded_line_edge_answers_are_the_k_smallest() {
        let net = zigzag(&[1.0, 0.5, 2.0, 1.0, 0.75, 1.5], false);
        let queries = crowd_queries();
        let mut gma = load(&net, &crowd(), &queries);
        assert_walk_is_the_answer(&gma, &queries);
        gma.tick(&shake());
        assert_walk_is_the_answer(&gma, &queries);
    }

    #[test]
    fn ring_answers_are_the_k_smallest() {
        let net = zigzag(&[1.0, 0.5, 2.0, 1.0, 0.75, 1.5], true);
        assert!(Gma::new(net.clone())
            .sequences()
            .iter()
            .all(|s| s.is_cycle()));
        let queries = crowd_queries();
        let mut gma = load(&net, &crowd(), &queries);
        assert_walk_is_the_answer(&gma, &queries);
        gma.tick(&shake());
        assert_walk_is_the_answer(&gma, &queries);
    }

    /// On a cycle the runs hold an object once per way round, so the stop
    /// rule counts distinct objects: with fewer objects than k, both
    /// directions go all the way round however often the runs hold each.
    #[test]
    fn ring_walk_counts_each_object_once() {
        let net = zigzag(&[1.0; 4], true);
        let mut gma = Gma::new(net.clone());
        let mut batch = UpdateBatch::default();
        for (id, e) in [(1, 1), (2, 2)] {
            batch.push(UpdateEvent::insert_object(
                ObjectId(id),
                NetPoint::new(EdgeId(e), 0.5),
            ));
        }
        gma.tick(&batch);
        let install = UpdateEvent::install_query(QueryId(0), 3, NetPoint::new(EdgeId(0), 0.5));
        let work = gma.apply(install).counters;
        // The own edge, then all four edges each way round.
        assert_eq!(work.edges_scanned, 1 + 4 + 4);
        assert_eq!(work.objects_considered, 2 * 2);
        let r = gma.result(QueryId(0)).unwrap();
        assert_eq!(
            r,
            brute_knn(&gma, NetPoint::new(EdgeId(0), 0.5), 3).as_slice()
        );
    }

    /// Applies `batch` to both monitors and checks that GMA's answers are
    /// OVH's, ids included, for every query.
    fn assert_answers_match(gma: &mut Gma, ovh: &mut crate::Ovh, batch: &UpdateBatch) {
        gma.tick(batch);
        ovh.tick(batch);
        gma.state.objects.check_invariants();
        for id in ovh.query_ids() {
            assert_eq!(gma.result(id), ovh.result(id), "{id:?}");
        }
    }

    /// Runs `crowd()` and `crowd_queries()` through GMA and OVH over `net`,
    /// then `shake()`.
    fn crowd_against_ovh(net: &Arc<RoadNetwork>) -> Gma {
        let mut gma = Gma::new(net.clone());
        let mut ovh = crate::Ovh::new(net.clone());
        let mut batch = UpdateBatch::default();
        for (id, at) in crowd() {
            batch.push(UpdateEvent::insert_object(id, at));
        }
        assert_answers_match(&mut gma, &mut ovh, &batch);
        let mut batch = UpdateBatch::default();
        for (id, k, at) in crowd_queries() {
            batch.push(UpdateEvent::install_query(id, k, at));
        }
        assert_answers_match(&mut gma, &mut ovh, &batch);
        assert_answers_match(&mut gma, &mut ovh, &shake());
        gma
    }

    /// A lollipop: the zigzag ring with a two-edge stick (edges 6 and 7)
    /// hung from node 0, which is the cycle sequence's one exit.
    #[test]
    fn lollipop_distances_match_ovh() {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let nodes: Vec<NodeId> = (0..8).map(|i| b.add_node(i as f64, 0.0)).collect();
        for (i, w) in [1.0, 0.5, 2.0, 1.0, 0.75, 1.5].into_iter().enumerate() {
            let (a, c) = (nodes[i], nodes[(i + 1) % 6]);
            if i % 2 == 0 {
                b.add_edge(a, c, w);
            } else {
                b.add_edge(c, a, w);
            }
        }
        b.add_edge(nodes[6], nodes[0], 0.5);
        b.add_edge(nodes[6], nodes[7], 1.0);
        let net = Arc::new(b.build().unwrap());
        let gma = crowd_against_ovh(&net);
        assert_eq!(gma.active_node_count(), 1, "node 0 is the only exit");
    }

    /// The crowd on a cross whose rays are two-edge sequences: the
    /// crowded edge's far node is the subdivision node of a ray.
    #[test]
    fn crowded_ray_distances_match_ovh() {
        let (net, _) = cross_setup();
        let gma = crowd_against_ovh(&net);
        assert_eq!(gma.active_node_count(), 1);
    }
}
