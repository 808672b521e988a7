//! Property-based tests (proptest) on the core data structures and on the
//! end-to-end monitoring invariants. The random programs drive their
//! stacks through the harness in `tests/common` (`drive`, asserted with
//! `prop_assert_eq!(drive(..), Ok(()))`); the change-list properties hold
//! every call against its `KeptAnswers`, and the answer properties compare
//! through its `compare`.

mod common;

use std::sync::Arc;

use common::{compare, drive, grid, tie_prone_point, KeptAnswers, Program, Stack};

use proptest::prelude::*;
use rnn_monitor::cluster::wal as cluster_wal;
use rnn_monitor::core::influence::IntervalSet;
use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, MonitorState, Ovh, UpdateBatch, UpdateEvent};
use rnn_monitor::core::{EdgeWeightUpdate, ObjectEvent, QueryEvent};
use rnn_monitor::roadnet::{
    generators, DijkstraEngine, EdgeId, EdgeWeights, NetPoint, NodeId, ObjectId, QueryId,
    RoadNetwork, SequenceTable,
};

// ---------------------------------------------------------------------
// IntervalSet properties.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn interval_membership_matches_construction(
        lo1 in 0.0f64..1.0, len1 in 0.0f64..1.0,
        probe in 0.0f64..1.0,
    ) {
        let hi1 = (lo1 + len1).min(1.0);
        let s = IntervalSet::single(lo1, hi1);
        prop_assert_eq!(s.covers(probe), probe >= lo1 && probe <= hi1);
    }

    #[test]
    fn interval_union_covers_both(
        lo1 in 0.0f64..1.0, len1 in 0.0f64..0.5,
        lo2 in 0.0f64..1.0, len2 in 0.0f64..0.5,
        probe in 0.0f64..1.0,
    ) {
        let hi1 = (lo1 + len1).min(1.0);
        let hi2 = (lo2 + len2).min(1.0);
        let mut s = IntervalSet::single(lo1, hi1);
        // `add` panics only when three disjoint ranges would be needed —
        // with two ranges that cannot happen.
        s.add(lo2, hi2);
        let expect = (probe >= lo1 && probe <= hi1) || (probe >= lo2 && probe <= hi2);
        prop_assert_eq!(s.covers(probe), expect);
    }
}

// ---------------------------------------------------------------------
// Dijkstra / quadtree / sequences on random networks.
// ---------------------------------------------------------------------

/// Floyd–Warshall oracle for node-to-node distances.
fn floyd_warshall(net: &RoadNetwork, w: &EdgeWeights) -> Vec<Vec<f64>> {
    let n = net.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for e in net.edge_ids() {
        let rec = net.edge(e);
        let (a, b) = (rec.start.index(), rec.end.index());
        d[a][b] = d[a][b].min(w.get(e));
        d[b][a] = d[b][a].min(w.get(e));
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dijkstra_matches_floyd_warshall(seed in 0u64..200) {
        let net = grid(5, 5, seed);
        let w = EdgeWeights::from_base(&net);
        let oracle = floyd_warshall(&net, &w);
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let src = rnn_monitor::NodeId((seed % net.num_nodes() as u64) as u32);
        eng.sssp(&net, &w, src, None);
        for n in net.node_ids() {
            let got = eng.dist_of(n).unwrap_or(f64::INFINITY);
            let want = oracle[src.index()][n.index()];
            prop_assert_eq!(got, want, "node {:?}", n);
        }
    }

    #[test]
    fn sequences_partition_edges(seed in 0u64..200) {
        let net = grid(5, 5, seed);
        let st = SequenceTable::build(&net);
        let mut covered = vec![0usize; net.num_edges()];
        for s in st.iter() {
            for &e in &s.edges {
                covered[e.index()] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "seed {seed}: not a partition");
    }

    #[test]
    fn quadtree_locate_is_consistent(seed in 0u64..100, t in 0.05f64..0.95) {
        let net = grid(5, 5, seed);
        let qt = rnn_monitor::roadnet::PmrQuadtree::build(&net);
        for e in net.edge_ids().step_by(7) {
            let p = NetPoint::new(e, t);
            let xy = p.coordinates(&net);
            let found = qt.locate(&net, xy).unwrap();
            // Planar coordinates, not a network distance: the index
            // resolves a point by geometry.
            prop_assert!(found.coordinates(&net).dist(xy) < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end monitoring properties on random update streams.
// ---------------------------------------------------------------------

/// A compact random update program applied identically to all monitors.
#[derive(Debug, Clone)]
enum Op {
    MoveObject { idx: u8, edge: u16, frac: f64 },
    DeleteObject { idx: u8 },
    InsertObject { idx: u8, edge: u16, frac: f64 },
    MoveQuery { idx: u8, edge: u16, frac: f64 },
    ScaleEdge { edge: u16, factor: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>(), 0.0f64..1.0).prop_map(|(idx, edge, frac)| Op::MoveObject {
            idx,
            edge,
            frac
        }),
        any::<u8>().prop_map(|idx| Op::DeleteObject { idx }),
        (any::<u8>(), any::<u16>(), 0.0f64..1.0).prop_map(|(idx, edge, frac)| Op::InsertObject {
            idx,
            edge,
            frac
        }),
        (any::<u8>(), any::<u16>(), 0.0f64..1.0).prop_map(|(idx, edge, frac)| Op::MoveQuery {
            idx,
            edge,
            frac
        }),
        (any::<u16>(), 0.5f64..2.0).prop_map(|(edge, factor)| Op::ScaleEdge { edge, factor }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random update programs: IMA and GMA always agree with the
    /// from-scratch oracle, and IMA's internal invariants hold.
    #[test]
    fn monitors_agree_on_random_programs(
        seed in 0u64..50,
        k in 1usize..6,
        ticks in prop::collection::vec(prop::collection::vec(op_strategy(), 0..6), 1..8),
    ) {
        let net = grid(5, 5, seed);
        let ne = net.num_edges() as u16;
        // 12 objects, 4 queries at deterministic spots, each a timestamp.
        let objects = (0..12u32).map(|i| {
            let e = EdgeId((i * 5) % u32::from(ne));
            UpdateEvent::insert_object(ObjectId(i), NetPoint::new(e, 0.3 + 0.05 * i as f64 % 0.6))
        });
        let queries = (0..4u32).map(|i| {
            let e = EdgeId((i * 11 + 3) % u32::from(ne));
            UpdateEvent::install_query(QueryId(i), k, NetPoint::new(e, 0.5))
        });
        let mut weights = EdgeWeights::from_base(&net);
        let batches: Vec<UpdateBatch> = ticks
            .iter()
            .map(|ops| {
                let mut batch = UpdateBatch::default();
                for op in ops {
                    push_op(op, &mut batch, &mut weights, ne);
                }
                batch
            })
            .collect();
        let n = batches.len();
        let mut program = Program::applying(objects.chain(queries).collect(), batches);
        prop_assert_eq!(drive(&mut program, &mut Stack::monitors(&net), n), Ok(()));
    }

    /// Results are always sorted, deduplicated, within k, and kNN_dist
    /// equals the k-th distance.
    #[test]
    fn result_shape_invariants(seed in 0u64..30, k in 1usize..8) {
        let net = grid(5, 5, seed);
        let mut ima = Ima::new(net.clone());
        for i in 0..10u32 {
            ima.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % net.num_edges() as u32), 0.25),
            ));
        }
        ima.apply(UpdateEvent::install_query(QueryId(0), k, NetPoint::new(EdgeId(0), 0.5)));
        let r = ima.result(QueryId(0)).unwrap();
        prop_assert!(r.len() <= k);
        prop_assert_eq!(r.len(), k.min(10));
        for w in r.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
            prop_assert!(w[0].object != w[1].object);
        }
        let knn = ima.knn_dist(QueryId(0)).unwrap();
        if r.len() == k {
            prop_assert_eq!(knn, r[k - 1].dist);
        } else {
            prop_assert!(knn.is_infinite());
        }
    }
}

// ---------------------------------------------------------------------
// GMA's merge against Lemma 1 taken literally, and against a fresh OVH.
// ---------------------------------------------------------------------

use rnn_monitor::core::types::sort_neighbors;
use rnn_monitor::roadnet::RoadNetworkBuilder;

/// One network of every kind of sequence GMA distinguishes: a line (one
/// sequence between terminals, no active node), an isolated ring (a cycle
/// sequence, no active node), a lollipop (a cycle hanging off its single
/// intersection, plus a tail), a cross (four subdivided rays around one
/// intersection) and a grid city.
fn lemma1_network(shape: usize, seed: u64) -> Arc<RoadNetwork> {
    let size = 3 + (seed % 5) as usize;
    let net = match shape {
        0 => generators::line_network(size + 1, 1.0 + (seed % 3) as f64),
        1 => generators::ring_network(size, 2.0 + (seed % 4) as f64),
        2 => {
            let mut b = RoadNetworkBuilder::new();
            let ring: Vec<NodeId> = (0..size)
                .map(|i| {
                    let a = i as f64 / size as f64 * std::f64::consts::TAU;
                    b.add_node(3.0 * a.cos(), 3.0 * a.sin())
                })
                .collect();
            for i in 0..size {
                b.add_edge_euclidean(ring[i], ring[(i + 1) % size]);
            }
            let t1 = b.add_node(5.0, 0.0);
            let t2 = b.add_node(7.5, 0.0);
            b.add_edge_euclidean(ring[0], t1);
            b.add_edge_euclidean(t1, t2);
            b.build().unwrap()
        }
        3 => {
            let mut b = RoadNetworkBuilder::new();
            let c = b.add_node(0.0, 0.0);
            for (dx, dy) in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] {
                let mut prev = c;
                for step in 1..=(1 + seed % 3) {
                    let n = b.add_node(dx * step as f64, dy * step as f64);
                    b.add_edge_euclidean(prev, n);
                    prev = n;
                }
            }
            b.build().unwrap()
        }
        _ => return grid(5, 5, seed),
    };
    Arc::new(net)
}

/// Network distance from node `n` to every object, nearest first.
fn node_nn_set(
    net: &RoadNetwork,
    w: &EdgeWeights,
    objects: &[(ObjectId, NetPoint)],
    n: NodeId,
) -> Vec<Neighbor> {
    let mut eng = DijkstraEngine::new(net.num_nodes());
    eng.sssp(net, w, n, None);
    let mut set: Vec<Neighbor> = objects
        .iter()
        .map(|&(object, p)| {
            let rec = net.edge(p.edge);
            let via =
                |node: NodeId, along: f64| eng.dist_of(node).map_or(f64::INFINITY, |d| d + along);
            let dist = via(rec.start, p.dist_to_start(w)).min(via(rec.end, p.dist_to_end(w)));
            Neighbor { object, dist }
        })
        .collect();
    sort_neighbors(&mut set);
    set
}

/// Lemma 1, literally: every object of the query's sequence at its
/// along-sequence distance, plus the k-NN set of each endpoint that leads
/// anywhere (degree ≥ 3) at the along-sequence distance to that endpoint;
/// the smallest instance per object; sorted by `(dist, id)`; the first k.
fn lemma1_reference(
    net: &RoadNetwork,
    seqs: &SequenceTable,
    w: &EdgeWeights,
    objects: &[(ObjectId, NetPoint)],
    q: NetPoint,
    k: usize,
) -> Vec<Neighbor> {
    let s = seqs.sequence(seqs.seq_of_edge(q.edge));
    // Coordinate of a point of `s` along it, from the start node.
    let coord = |p: NetPoint| {
        let i = s.edge_offset(p.edge).unwrap();
        let before: f64 = s.edges[..i].iter().map(|&e| w.get(e)).sum();
        let along = if s.forward[i] {
            p.dist_to_start(w)
        } else {
            p.dist_to_end(w)
        };
        before + along
    };
    let length = s.total_weight(w);
    let along_sequence = |a: f64, b: f64| {
        let d = (a - b).abs();
        if s.is_cycle() {
            d.min(length - d)
        } else {
            d
        }
    };
    let xq = coord(q);
    let mut all: Vec<Neighbor> = objects
        .iter()
        .filter(|(_, p)| s.edge_offset(p.edge).is_some())
        .map(|&(object, p)| Neighbor {
            object,
            dist: along_sequence(xq, coord(p)),
        })
        .collect();
    let mut exits = vec![(s.start_node(), along_sequence(xq, 0.0))];
    if !s.is_cycle() {
        exits.push((s.end_node(), along_sequence(xq, length)));
    }
    for (n, base) in exits {
        if net.degree(n) >= 3 {
            let set = node_nn_set(net, w, objects, n);
            all.extend(set.iter().take(k).map(|nb| Neighbor {
                object: nb.object,
                dist: base + nb.dist,
            }));
        }
    }
    all.sort_by(|a, b| a.object.cmp(&b.object).then(a.dist.total_cmp(&b.dist)));
    all.dedup_by_key(|n| n.object);
    sort_neighbors(&mut all);
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// GMA's answers are Lemma 1's union and the from-scratch answer, and
    /// IMA's are the from-scratch answer too, on every kind of sequence,
    /// for k below and above the object count, with objects sharing
    /// positions and sitting on nodes (exact ties), hence in the walk and
    /// in both endpoint sets at once: under `(dist, id)` all three are one
    /// answer, compared whole with `==`.
    #[test]
    fn gma_answers_are_the_lemma1_union(
        shape in 0usize..5,
        seed in 0u64..1000,
        n_objects in 0usize..40,
    ) {
        let net = lemma1_network(shape, seed);
        let ne = net.num_edges();
        let mut r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            r
        };
        let (mut gma, mut ima) = (Gma::new(net.clone()), Ima::new(net.clone()));
        let mut weights = EdgeWeights::from_base(&net);
        let mut objects: Vec<(ObjectId, NetPoint)> = (0..n_objects)
            .map(|i| (ObjectId(i as u32), tie_prone_point(next(), ne)))
            .collect();
        let queries: Vec<(QueryId, usize, NetPoint)> = (0..4u32)
            .map(|i| (QueryId(i), [1, 3, 50][(next() % 3) as usize], tie_prone_point(next(), ne)))
            .collect();
        for m in [&mut gma as &mut dyn ContinuousMonitor, &mut ima] {
            for &(id, at) in &objects {
                m.apply(UpdateEvent::insert_object(id, at));
            }
            for &(id, k, at) in &queries {
                m.apply(UpdateEvent::install_query(id, k, at));
            }
        }
        for tick in 0..4 {
            if tick > 0 {
                let mut batch = UpdateBatch::default();
                for (id, at) in objects.iter_mut() {
                    if next() % 3 == 0 {
                        *at = tie_prone_point(next(), ne);
                        batch.objects.push(ObjectEvent::Move { id: *id, to: *at });
                    }
                }
                if next() % 2 == 0 {
                    let edge = EdgeId((next() % ne as u64) as u32);
                    let new_weight = weights.get(edge) * [0.5, 2.0][(next() % 2) as usize];
                    weights.set(edge, new_weight);
                    batch.edges.push(EdgeWeightUpdate { edge, new_weight });
                }
                gma.tick(&batch);
                ima.tick(&batch);
            }
            let mut ovh = Ovh::new(net.clone());
            ovh.tick(&UpdateBatch {
                edges: net
                    .edge_ids()
                    .map(|edge| EdgeWeightUpdate { edge, new_weight: weights.get(edge) })
                    .collect(),
                ..Default::default()
            });
            for &(id, at) in &objects {
                ovh.apply(UpdateEvent::insert_object(id, at));
            }
            for &(id, k, at) in &queries {
                ovh.apply(UpdateEvent::install_query(id, k, at));
            }
            let what = format!("shape {shape} seed {seed} tick {tick}");
            prop_assert_eq!(compare(&ovh, &gma, None), Ok(()), "{}: GMA vs OVH", what);
            prop_assert_eq!(compare(&ovh, &ima, None), Ok(()), "{}: IMA vs OVH", what);
            for &(id, k, at) in &queries {
                let got = gma.result(id).unwrap();
                let lemma = lemma1_reference(&net, gma.sequences(), &weights, &objects, at, k);
                assert_eq!(got, lemma, "{what} {id:?} k {k}: GMA vs Lemma 1");
                prop_assert_eq!(got.len(), k.min(n_objects));
                let knn = gma.knn_dist(id).unwrap();
                prop_assert_eq!(knn, if got.len() == k { got[k - 1].dist } else { f64::INFINITY });
            }
        }
    }
}

// ---------------------------------------------------------------------
// §4.5 preprocessing: apply_batch against a naive fold.
// ---------------------------------------------------------------------

use rnn_monitor::core::state::{CoalescedTick, EdgeDelta, NetworkState, ObjectDelta, QueryDelta};
use std::collections::HashMap;

/// What `apply_batch` must compute, written the obvious way: per kind, the
/// ids in order of first appearance, each with the last value its events
/// give it; then one delta per id whose value changed, applied in that
/// order — objects leaving an edge list by `swap_remove`, entering by
/// `push`, which is the list order every monitor scans in.
#[derive(Default)]
struct NaiveState {
    objects: HashMap<ObjectId, NetPoint>,
    on_edge: Vec<Vec<(ObjectId, f64)>>,
    weights: Vec<f64>,
    queries: HashMap<QueryId, (usize, NetPoint)>,
}

impl NaiveState {
    fn unlist(&mut self, id: ObjectId, from: NetPoint) {
        let list = &mut self.on_edge[from.edge.index()];
        let at = list.iter().position(|&(o, _)| o == id).unwrap();
        list.swap_remove(at);
    }

    fn apply(&mut self, batch: &UpdateBatch) -> CoalescedTick {
        let mut out = CoalescedTick::default();

        let mut order = Vec::new();
        let mut last = HashMap::new();
        for ev in &batch.objects {
            let (id, new) = match *ev {
                ObjectEvent::Move { id, to } => (id, Some(to)),
                ObjectEvent::Insert { id, at } => (id, Some(at)),
                ObjectEvent::Delete { id } => (id, None),
            };
            if last.insert(id, new).is_none() {
                order.push(id);
            }
        }
        for id in order {
            let (old, new) = (self.objects.get(&id).copied(), last[&id]);
            if old == new {
                continue;
            }
            if let Some(o) = old {
                self.unlist(id, o);
                self.objects.remove(&id);
            }
            if let Some(n) = new {
                self.on_edge[n.edge.index()].push((id, n.frac));
                self.objects.insert(id, n);
            }
            out.objects.push(ObjectDelta { id, old, new });
        }

        let mut order = Vec::new();
        let mut last = HashMap::new();
        for u in &batch.edges {
            if last.insert(u.edge, u.new_weight).is_none() {
                order.push(u.edge);
            }
        }
        for edge in order {
            let (old_w, new_w) = (self.weights[edge.index()], last[&edge]);
            if old_w != new_w {
                self.weights[edge.index()] = new_w;
                out.edges.push(EdgeDelta { edge, old_w, new_w });
            }
        }

        let mut order = Vec::new();
        let mut last: HashMap<QueryId, Option<(usize, NetPoint)>> = HashMap::new();
        for ev in &batch.queries {
            let (id, new) = match *ev {
                QueryEvent::Install { id, k, at } => (id, Some((k, at))),
                QueryEvent::Remove { id } => (id, None),
                // A move keeps the k the query has by now: what the
                // tick's earlier events left it with, else what it had
                // before the tick. A query not registered by now — never
                // was, or removed earlier this tick — cannot move.
                QueryEvent::Move { id, to } => {
                    let current = match last.get(&id) {
                        Some(&by_now) => by_now,
                        None => self.queries.get(&id).copied(),
                    };
                    match current {
                        Some((k, _)) => (id, Some((k, to))),
                        None => continue,
                    }
                }
            };
            if last.insert(id, new).is_none() {
                order.push(id);
            }
        }
        for id in order {
            let (old, new) = (self.queries.get(&id).copied(), last[&id]);
            if old == new {
                continue;
            }
            match new {
                Some(n) => self.queries.insert(id, n),
                None => self.queries.remove(&id),
            };
            out.queries.push(QueryDelta { id, old, new });
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Event lists full of repeated ids (move→move, insert→delete,
    /// delete→insert, a→b→a, moves of unknown ids, duplicate edge updates,
    /// install→move→remove of a query) coalesce and apply exactly as the
    /// naive fold: the same deltas in first-appearance order with no-ops
    /// dropped, the same state, the same edge-list order, and an object
    /// index that is consistent with itself.
    #[test]
    fn apply_batch_matches_a_naive_fold(
        seed in 0u64..10_000,
        batches in prop::collection::vec(0usize..24, 1..8),
    ) {
        let net = generators::line_network(5, 1.0); // 4 edges
        let ne = net.num_edges() as u64;
        let mut state = NetworkState::new(&net);
        let mut naive = NaiveState {
            on_edge: vec![Vec::new(); net.num_edges()],
            weights: net.edge_ids().map(|e| net.edge(e).base_weight).collect(),
            ..Default::default()
        };
        let mut r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |below: u64| {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            (r >> 11) % below
        };
        // Few ids, few places, few weights: repeats and no-ops abound.
        let point = |next: &mut dyn FnMut(u64) -> u64| {
            NetPoint::new(EdgeId(next(ne) as u32), [0.0, 0.25, 1.0][next(3) as usize])
        };
        for events in batches {
            let mut batch = UpdateBatch::default();
            for _ in 0..events {
                match next(9) {
                    0..=2 => batch.objects.push(ObjectEvent::Move {
                        id: ObjectId(next(6) as u32),
                        to: point(&mut next),
                    }),
                    3 => batch.objects.push(ObjectEvent::Insert {
                        id: ObjectId(next(6) as u32),
                        at: point(&mut next),
                    }),
                    4 => batch.objects.push(ObjectEvent::Delete { id: ObjectId(next(6) as u32) }),
                    5 => batch.edges.push(EdgeWeightUpdate {
                        edge: EdgeId(next(ne) as u32),
                        new_weight: [1.0, 2.0, 3.0][next(3) as usize],
                    }),
                    6 => batch.queries.push(QueryEvent::Install {
                        id: QueryId(next(3) as u32),
                        k: 1 + next(3) as usize,
                        at: point(&mut next),
                    }),
                    7 => batch.queries.push(QueryEvent::Move {
                        id: QueryId(next(3) as u32),
                        to: point(&mut next),
                    }),
                    _ => batch.queries.push(QueryEvent::Remove { id: QueryId(next(3) as u32) }),
                }
            }
            let got = state.apply_batch(&batch);
            let want = naive.apply(&batch);
            prop_assert_eq!(&got.objects, &want.objects, "object deltas of {:?}", batch.objects);
            prop_assert_eq!(&got.edges, &want.edges, "edge deltas of {:?}", batch.edges);
            prop_assert_eq!(&got.queries, &want.queries, "query deltas of {:?}", batch.queries);

            state.objects.check_invariants();
            prop_assert_eq!(state.objects.len(), naive.objects.len());
            for (&id, &at) in &naive.objects {
                prop_assert_eq!(state.objects.position(id), Some(at));
            }
            for e in net.edge_ids() {
                prop_assert_eq!(state.objects.on_edge(e), naive.on_edge[e.index()].as_slice());
                prop_assert_eq!(state.weights.get(e), naive.weights[e.index()]);
            }
            prop_assert_eq!(state.queries.len(), naive.queries.len());
            for (id, placed) in &naive.queries {
                prop_assert_eq!(state.queries.get(id), Some(placed));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded-engine replica bookkeeping (replica masks + edge→object index).
// ---------------------------------------------------------------------

use rnn_monitor::engine::{EngineConfig, ShardedEngine};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// [`Op`] plus query lifecycle events: the engine's replica bookkeeping
/// must survive installs and removals, which grow and shrink halos.
#[derive(Debug, Clone)]
enum QOp {
    Base(Op),
    InstallQuery {
        idx: u8,
        k: u8,
        edge: u16,
        frac: f64,
    },
    RemoveQuery {
        idx: u8,
    },
}

fn qop_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        op_strategy().prop_map(QOp::Base),
        (any::<u8>(), any::<u8>(), any::<u16>(), 0.0f64..1.0)
            .prop_map(|(idx, k, edge, frac)| QOp::InstallQuery { idx, k, edge, frac }),
        any::<u8>().prop_map(|idx| QOp::RemoveQuery { idx }),
    ]
}

/// Translates a base [`Op`] into batch events.
fn push_op(op: &Op, batch: &mut UpdateBatch, weights: &mut EdgeWeights, ne: u16) {
    match *op {
        Op::MoveObject { idx, edge, frac } => batch.objects.push(ObjectEvent::Move {
            id: ObjectId(u32::from(idx % 16)),
            to: NetPoint::new(EdgeId(u32::from(edge % ne)), frac),
        }),
        Op::DeleteObject { idx } => batch.objects.push(ObjectEvent::Delete {
            id: ObjectId(u32::from(idx % 16)),
        }),
        Op::InsertObject { idx, edge, frac } => batch.objects.push(ObjectEvent::Insert {
            id: ObjectId(u32::from(idx % 16)),
            at: NetPoint::new(EdgeId(u32::from(edge % ne)), frac),
        }),
        Op::MoveQuery { idx, edge, frac } => batch.queries.push(QueryEvent::Move {
            id: QueryId(u32::from(idx % 4)),
            to: NetPoint::new(EdgeId(u32::from(edge % ne)), frac),
        }),
        Op::ScaleEdge { edge, factor } => {
            let e = EdgeId(u32::from(edge % ne));
            let new_w = weights.get(e) * factor;
            weights.set(e, new_w);
            batch.edges.push(EdgeWeightUpdate {
                edge: e,
                new_weight: new_w,
            });
        }
    }
}

/// Cases of `engine_replica_masks_and_index_stay_consistent`.
const REPLICA_CASES: u32 = 16;
/// Cases run so far, and the replicas they evicted: the last case holds
/// the total to the floor the test is sized for.
static REPLICA_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static REPLICA_EVICTIONS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(REPLICA_CASES))]

    /// Random programs with query churn, each ending with the removal of
    /// every query and two quiet ticks, so the shipped shrink hysteresis
    /// (1.5×, 2 ticks) evicts every replica the program left: after every
    /// tick the engine's replica masks, halo edge sets, and edge→object
    /// index must agree with each other (`validate_replication`), and its
    /// answers with a single-threaded GMA.
    #[test]
    fn engine_replica_masks_and_index_stay_consistent(
        seed in 0u64..40,
        shards in 2usize..5,
        ticks in prop::collection::vec(prop::collection::vec(qop_strategy(), 0..6), 1..8),
    ) {
        let net = grid(5, 5, seed);
        let ne = net.num_edges() as u16;
        let objects = (0..12u32).map(|i| {
            let e = EdgeId((i * 5) % u32::from(ne));
            UpdateEvent::insert_object(ObjectId(i), NetPoint::new(e, 0.3 + 0.05 * i as f64 % 0.6))
        });
        let queries = (0..3u32).map(|i| {
            let p = NetPoint::new(EdgeId((i * 11 + 3) % u32::from(ne)), 0.5);
            UpdateEvent::install_query(QueryId(i), 3, p)
        });
        let mut weights = EdgeWeights::from_base(&net);
        // The tail: every query leaves, then two quiet ticks.
        let tail = [
            (0..4).map(|idx| QOp::RemoveQuery { idx }).collect(),
            Vec::new(),
            Vec::new(),
        ];
        let batches: Vec<UpdateBatch> = ticks
            .iter()
            .chain(&tail)
            .map(|ops| {
                let mut batch = UpdateBatch::default();
                for op in ops {
                    match *op {
                        QOp::Base(ref op) => push_op(op, &mut batch, &mut weights, ne),
                        QOp::InstallQuery { idx, k, edge, frac } => {
                            batch.queries.push(QueryEvent::Install {
                                id: QueryId(u32::from(idx % 4)),
                                k: usize::from(k % 5) + 1,
                                at: NetPoint::new(EdgeId(u32::from(edge % ne)), frac),
                            });
                        }
                        QOp::RemoveQuery { idx } => {
                            batch.queries.push(QueryEvent::Remove {
                                id: QueryId(u32::from(idx % 4)),
                            });
                        }
                    }
                }
                batch
            })
            .collect();
        let n = batches.len();
        let mut program = Program::applying(objects.chain(queries).collect(), batches);
        let cfg = EngineConfig { num_shards: shards, ..EngineConfig::default() };
        let mut stacks = vec![Stack::gma(&net), Stack::eng(&net, cfg)];
        prop_assert_eq!(drive(&mut program, &mut stacks, n), Ok(()));
        let eng = stacks[1].eng_ref();
        // Coverage floor: what shrink trigger 1.0 / 1 tick evicted over the
        // 16 programs without the tail.
        REPLICA_EVICTIONS.fetch_add(eng.replica_evictions(), Ordering::Relaxed);
        if REPLICA_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == REPLICA_CASES {
            let evicted = REPLICA_EVICTIONS.load(Ordering::Relaxed);
            prop_assert!(
                evicted >= 144,
                "{} evictions, below the 144 this test is sized for",
                evicted
            );
        }
    }
}

// ---------------------------------------------------------------------
// The change list, taken literally: after every call it is the sorted
// brute-force diff of full copies of every answer.
// ---------------------------------------------------------------------

use std::collections::BTreeMap;

use rnn_monitor::engine::ShardAlgo;

/// A random program of batches and single-event `apply`s over at most 14
/// objects (a third of the placements pile on one spot, so ties and
/// underfull queries occur) and 5 query ids, with the registry it implies
/// replayed event by event.
struct ChangeProgram {
    rng: u64,
    ne: usize,
    pile: NetPoint,
    objects: BTreeMap<ObjectId, NetPoint>,
    book: BTreeMap<QueryId, (usize, NetPoint)>,
    weights: EdgeWeights,
}

impl ChangeProgram {
    const OBJECT_IDS: u64 = 14;
    const QUERY_IDS: u64 = 5;

    fn new(net: &RoadNetwork, seed: u64) -> Self {
        let mut program = Self {
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            ne: net.num_edges(),
            pile: NetPoint::new(EdgeId(0), 0.5),
            objects: BTreeMap::new(),
            book: BTreeMap::new(),
            weights: EdgeWeights::from_base(net),
        };
        program.pile = tie_prone_point(program.next(), program.ne);
        program
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn spot(&mut self) -> NetPoint {
        if self.next() % 3 == 0 {
            self.pile
        } else {
            tie_prone_point(self.next(), self.ne)
        }
    }

    /// A k below, at, and above the object count.
    fn some_k(&mut self) -> usize {
        let n = self.objects.len();
        [1, 2, 3, n.max(1), n + 1, 50][(self.next() % 6) as usize]
    }

    fn some_query(&mut self) -> QueryId {
        QueryId((self.next() % Self::QUERY_IDS) as u32)
    }

    /// A move, delete or — unless `no_insert` — insert of a random object.
    fn object_event(&mut self, no_insert: bool) -> ObjectEvent {
        let id = ObjectId((self.next() % Self::OBJECT_IDS) as u32);
        let ev = match self.next() % 4 {
            0 => ObjectEvent::Delete { id },
            1 if !no_insert => ObjectEvent::Insert {
                id,
                at: self.spot(),
            },
            _ => ObjectEvent::Move {
                id,
                to: self.spot(),
            },
        };
        match ev {
            ObjectEvent::Delete { id } => self.objects.remove(&id),
            ObjectEvent::Insert { id, at: to } | ObjectEvent::Move { id, to } => {
                self.objects.insert(id, to)
            }
        };
        ev
    }

    fn edge_update(&mut self) -> EdgeWeightUpdate {
        let edge = EdgeId((self.next() % self.ne as u64) as u32);
        let new_weight = self.weights.get(edge) * [0.5, 2.0][(self.next() % 2) as usize];
        self.weights.set(edge, new_weight);
        EdgeWeightUpdate { edge, new_weight }
    }

    /// An install of `id`: of a new query anywhere, of a registered one in
    /// place (identical, or at another k) or elsewhere.
    fn install(&mut self, id: QueryId) -> QueryEvent {
        let (k, at) = match self.book.get(&id).copied() {
            None => (self.some_k(), self.spot()),
            Some((k, at)) => match self.next() % 3 {
                0 => (k, at),
                1 => (self.some_k(), at),
                _ => (k, self.spot()),
            },
        };
        self.book.insert(id, (k, at));
        QueryEvent::Install { id, k, at }
    }

    fn remove(&mut self, id: QueryId) -> QueryEvent {
        self.book.remove(&id);
        QueryEvent::Remove { id }
    }

    /// Appends one random event to `batch` (for a `[Remove, Install]` of
    /// one id, two).
    fn push_event(&mut self, batch: &mut UpdateBatch) {
        match self.next() % 10 {
            0..=2 => {
                let ev = self.object_event(false);
                batch.objects.push(ev);
            }
            3 => {
                // A move of a query that is not registered by now — never
                // installed, or removed earlier in this batch — is sent
                // all the same, and must be dropped.
                let (id, to) = (self.some_query(), self.spot());
                if let Some(entry) = self.book.get_mut(&id) {
                    entry.1 = to;
                }
                batch.queries.push(QueryEvent::Move { id, to });
            }
            4 => {
                let id = self.some_query();
                batch.queries.push(self.remove(id));
            }
            5 | 6 => {
                let id = self.some_query();
                batch.queries.push(self.install(id));
            }
            7 => {
                let id = self.some_query();
                if let Some((k, at)) = self.book.get(&id).copied() {
                    batch.queries.push(self.remove(id));
                    let k = if self.next() % 2 == 0 {
                        k
                    } else {
                        self.some_k()
                    };
                    self.book.insert(id, (k, at));
                    batch.queries.push(QueryEvent::Install { id, k, at });
                }
            }
            _ => {
                let update = self.edge_update();
                batch.edges.push(update);
            }
        }
    }

    /// Runs the program on `m`, checking the change list and the report
    /// after every call — a `tick` or a single-event `apply`, which is a
    /// tick like any other.
    fn run(
        &mut self,
        m: &mut dyn ContinuousMonitor,
        kept: &mut KeptAnswers,
        n_objects: usize,
        what: &str,
    ) -> Result<(), String> {
        for i in 0..n_objects {
            let (id, at) = (ObjectId(i as u32), self.spot());
            self.objects.insert(id, at);
            let report = m.apply(UpdateEvent::insert_object(id, at));
            kept.check(m, &report)
                .map_err(|e| format!("{what}, insert {i}: {e}"))?;
        }
        for _ in 0..3 {
            let id = self.some_query();
            if !self.book.contains_key(&id) {
                let QueryEvent::Install { id, k, at } = self.install(id) else {
                    unreachable!()
                };
                let report = m.apply(UpdateEvent::install_query(id, k, at));
                kept.check(m, &report)
                    .map_err(|e| format!("{what}, install of {id:?} k {k}: {e}"))?;
            }
        }
        let mut fresh_object = 100;
        for round in 0..8 {
            let what = format!("{what}, round {round}");
            if self.next() % 4 > 0 {
                let mut batch = UpdateBatch::default();
                for _ in 0..self.next() % 7 {
                    self.push_event(&mut batch);
                }
                let report = m.tick(&batch);
                kept.check(m, &report)
                    .map_err(|e| format!("{what}, tick {batch:?}: {e}"))?;
            } else {
                let id = self.some_query();
                let event = match self.next() % 5 {
                    0 if !self.book.contains_key(&id) => UpdateEvent::Query(self.install(id)),
                    1 => UpdateEvent::Query(self.remove(id)),
                    // An insert next to live queries must reach them.
                    2 => {
                        fresh_object += 1;
                        let (id, at) = (ObjectId(fresh_object), self.spot());
                        self.objects.insert(id, at);
                        UpdateEvent::insert_object(id, at)
                    }
                    3 => UpdateEvent::Edge(self.edge_update()),
                    _ => UpdateEvent::Object(self.object_event(true)),
                };
                let report = m.apply(event);
                kept.check(m, &report)
                    .map_err(|e| format!("{what}, apply {event:?}: {e}"))?;
            }
            let mut registered = m.query_ids();
            registered.sort();
            let booked: Vec<QueryId> = self.book.keys().copied().collect();
            assert_eq!(
                registered, booked,
                "{what}: the program lost track of the registry"
            );
        }

        // The round random programs never hit: kNN_dist moves under a
        // result that stands. With k = the object count the answer is full
        // and kNN_dist its last distance; at k + 1 the same objects are
        // one short, and kNN_dist is ∞.
        let n = self.objects.len();
        if n == 0 {
            return Ok(());
        }
        let (id, at) = (QueryId(40), self.spot());
        let reinstall = |m: &mut dyn ContinuousMonitor, k: usize, kept: &mut KeptAnswers| {
            let batch = UpdateBatch {
                queries: vec![QueryEvent::Install { id, k, at }],
                ..Default::default()
            };
            let report = m.tick(&batch);
            kept.check(m, &report)
                .map_err(|e| format!("{what}, {id:?} at k = {k} of {n} objects: {e}"))?;
            Ok::<_, String>((m.knn_dist(id).unwrap(), m.result(id).unwrap().to_vec()))
        };
        let (knn_full, full) = reinstall(m, n, kept)?;
        assert_eq!(full.len(), n, "{what}: every object is reachable");
        assert!(knn_full.is_finite());
        let (knn_short, short) = reinstall(m, n + 1, kept)?;
        assert_eq!(short, full, "{what}: the result stands");
        assert!(knn_short.is_infinite());
        assert_eq!(m.changed_queries(), [id], "{what}: kNN_dist alone moved");
        let (knn_again, _) = reinstall(m, n, kept)?;
        assert_eq!(knn_again.to_bits(), knn_full.to_bits());
        assert_eq!(
            m.changed_queries(),
            [id],
            "{what}: kNN_dist alone moved back"
        );
        self.book.insert(id, (n, at));
        Ok(())
    }
}

/// One monitor, one program, every call checked.
fn lists_exactly_the_queries_it_changed(
    make: fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>,
    shape: usize,
    seed: u64,
    n_objects: usize,
) -> Result<(), String> {
    let net = lemma1_network(shape, seed);
    let mut m = make(net.clone());
    let what = format!("{} shape {shape} seed {seed} objects {n_objects}", m.name());
    let mut kept = KeptAnswers::default();
    ChangeProgram::new(&net, seed).run(m.as_mut(), &mut kept, n_objects, &what)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ovh_lists_exactly_the_queries_it_changed(
        shape in 0usize..5, seed in 0u64..1000, n_objects in 0usize..14,
    ) {
        let make = |net| Box::new(Ovh::new(net)) as Box<dyn ContinuousMonitor>;
        prop_assert_eq!(lists_exactly_the_queries_it_changed(make, shape, seed, n_objects), Ok(()));
    }

    #[test]
    fn ima_lists_exactly_the_queries_it_changed(
        shape in 0usize..5, seed in 0u64..1000, n_objects in 0usize..14,
    ) {
        let make = |net| Box::new(Ima::new(net)) as Box<dyn ContinuousMonitor>;
        prop_assert_eq!(lists_exactly_the_queries_it_changed(make, shape, seed, n_objects), Ok(()));
    }

    #[test]
    fn gma_lists_exactly_the_queries_it_changed(
        shape in 0usize..5, seed in 0u64..1000, n_objects in 0usize..14,
    ) {
        let make = |net| Box::new(Gma::new(net)) as Box<dyn ContinuousMonitor>;
        prop_assert_eq!(lists_exactly_the_queries_it_changed(make, shape, seed, n_objects), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same literal check one layer up: a 4-shard engine over each of
    /// the three shard monitors. Wide queries (k at and above the object
    /// count) make halos grow through several reconcile rounds, in which a
    /// query is reported more than once; then a query is moved across a
    /// border, and moved across and back in one batch — a flap that ends
    /// where it started and must count as no change.
    #[test]
    fn engine_lists_exactly_the_queries_it_changed(
        algo in 0usize..3, seed in 0u64..1000, n_objects in 0usize..14,
    ) {
        let net = grid(5, 5, seed);
        let algo = [ShardAlgo::Ovh, ShardAlgo::Ima, ShardAlgo::Gma][algo];
        let mut eng = ShardedEngine::new(
            net.clone(),
            EngineConfig { num_shards: 4, algo, ..EngineConfig::default() },
        );
        let what = format!("ENG-4 over {algo:?}, seed {seed}, objects {n_objects}");
        let mut kept = KeptAnswers::default();
        let mut program = ChangeProgram::new(&net, seed);
        prop_assert_eq!(program.run(&mut eng, &mut kept, n_objects, &what), Ok(()));
        if let Err(msg) = eng.validate_replication() {
            prop_assert!(false, "{}: {}", what, msg);
        }

        // A query on one side of a border …
        let id = QueryId(41);
        let home = NetPoint::new(EdgeId(0), 0.25);
        let abroad = net
            .edge_ids()
            .find(|&e| eng.partition().shard_of_edge(e) != eng.partition().shard_of_edge(home.edge))
            .map(|e| NetPoint::new(e, 0.75))
            .expect("a 4-way split has foreign edges");
        let mut tick = |queries: Vec<QueryEvent>, kept: &mut KeptAnswers, step: &str| {
            let batch = UpdateBatch { queries, ..Default::default() };
            let report = eng.tick(&batch);
            kept.check(&eng, &report).unwrap_or_else(|e| panic!("{what}, {step}: {e}"));
            (report.results_changed, eng.changed_queries().to_vec())
        };
        tick(vec![QueryEvent::Install { id, k: 3, at: home }], &mut kept, "install at home");
        // … moved across it and back in one batch: two re-homings, the
        // answer it started with.
        let there_and_back = vec![
            QueryEvent::Move { id, to: abroad },
            QueryEvent::Move { id, to: home },
        ];
        let (count, list) = tick(there_and_back, &mut kept, "across the border and back");
        prop_assert_eq!(count, 0, "{}: a flap that ends where it started", what);
        prop_assert!(list.is_empty());
        // … and moved across it for good.
        tick(vec![QueryEvent::Move { id, to: abroad }], &mut kept, "across the border");
    }
}

// ---------------------------------------------------------------------
// Dynamic re-partitioning: cell reassignment invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sequences of boundary-cell migrations preserve the partition
    /// invariant: every edge owned by exactly one in-range shard, views an
    /// exact partition of nodes and edges, boundary-node lists exactly the
    /// owned/foreign contact nodes.
    #[test]
    fn cell_reassignment_preserves_partition_invariant(
        seed in 0u64..400,
        shards in 2usize..6,
        rounds in 1usize..6,
    ) {
        let net = grid(5, 5, seed % 13);
        let mut p = rnn_monitor::roadnet::NetworkPartition::build(&net, shards);
        prop_assert!(p.validate(&net).is_ok());
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..rounds {
            let from = (rng() % shards as u64) as u32;
            let to = (rng() % shards as u64) as u32;
            if from == to {
                continue;
            }
            let cells = p.boundary_cells_between(&net, from, to);
            if cells.is_empty() {
                continue;
            }
            let take = (rng() as usize % cells.len()) + 1;
            let moves: Vec<(EdgeId, u32)> =
                cells[..take].iter().map(|&e| (e, to)).collect();
            p.reassign(&net, &moves);
            for &(e, s) in &moves {
                prop_assert_eq!(p.shard_of_edge(e), s, "moved cell not re-owned");
            }
            if let Err(msg) = p.validate(&net) {
                prop_assert!(false, "partition invariant broken: {}", msg);
            }
            // The views stay an exact partition of the edge set.
            let total: usize = p.views().iter().map(|v| v.edges.len()).sum();
            prop_assert_eq!(total, net.num_edges());
        }
    }
}

// ---------------------------------------------------------------------
// Pooled expansion trees vs a naive hash-map reference.
// ---------------------------------------------------------------------

mod tree_pool_model {
    use std::collections::HashMap;

    /// The pre-pool layout: one owned record per node with an explicit
    /// children vector. Slow and allocation-happy, but obviously correct —
    /// the behavioural oracle for the arena-of-trees surgery.
    #[derive(Clone, Debug, Default)]
    pub struct RefTree {
        pub nodes: HashMap<u32, RefNode>,
    }

    #[derive(Clone, Debug)]
    pub struct RefNode {
        pub dist: f64,
        pub parent: Option<(u32, u32)>,
        pub children: Vec<(u32, u32)>,
    }

    impl RefTree {
        pub fn insert(&mut self, n: u32, dist: f64, parent: Option<(u32, u32)>) {
            assert!(!self.nodes.contains_key(&n));
            if let Some((p, e)) = parent {
                self.nodes.get_mut(&p).unwrap().children.push((n, e));
            }
            self.nodes.insert(
                n,
                RefNode {
                    dist,
                    parent,
                    children: Vec::new(),
                },
            );
        }

        pub fn remove_subtree(&mut self, n: u32) -> usize {
            let Some(rec) = self.nodes.get(&n) else {
                return 0;
            };
            if let Some((p, _)) = rec.parent {
                if let Some(prec) = self.nodes.get_mut(&p) {
                    prec.children.retain(|&(c, _)| c != n);
                }
            }
            let mut stack = vec![n];
            let mut removed = 0;
            while let Some(cur) = stack.pop() {
                if let Some(rec) = self.nodes.remove(&cur) {
                    removed += 1;
                    stack.extend(rec.children.iter().map(|&(c, _)| c));
                }
            }
            removed
        }

        pub fn retain_within(&mut self, theta: f64) -> usize {
            let before = self.nodes.len();
            self.nodes.retain(|_, t| t.dist <= theta);
            let alive: std::collections::HashSet<u32> = self.nodes.keys().copied().collect();
            for t in self.nodes.values_mut() {
                t.children.retain(|&(c, _)| alive.contains(&c));
            }
            before - self.nodes.len()
        }

        pub fn reroot_at_subtree(&mut self, new_root: u32, shift: f64) -> usize {
            if !self.nodes.contains_key(&new_root) {
                let n = self.nodes.len();
                self.nodes.clear();
                return n;
            }
            let mut keep: HashMap<u32, RefNode> = HashMap::new();
            let mut stack = vec![new_root];
            while let Some(cur) = stack.pop() {
                let mut rec = self.nodes.remove(&cur).unwrap();
                stack.extend(rec.children.iter().map(|&(c, _)| c));
                rec.dist -= shift;
                if cur == new_root {
                    rec.parent = None;
                }
                keep.insert(cur, rec);
            }
            let pruned = self.nodes.len();
            self.nodes = keep;
            pruned
        }

        pub fn clear(&mut self) -> usize {
            let n = self.nodes.len();
            self.nodes.clear();
            n
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena-of-trees model check: random surgery programs (adjacency-
    /// driven inserts, subtree cuts, θ-prunes, re-roots, clones, clears,
    /// release/recreate cycles) over several trees sharing one pool agree
    /// exactly with the naive hash-map-of-Vec reference, preserve the
    /// structural invariants, and leak no pool slots across directory
    /// epochs.
    #[test]
    fn tree_pool_matches_hashmap_reference(
        seed in 0u64..5000,
        ops in 20usize..80,
    ) {
        use rnn_monitor::core::tree::{ExpansionTree, TreePool};
        use tree_pool_model::RefTree;

        let net = grid(5, 5, seed % 17);
        let weights = EdgeWeights::from_base(&net);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        const TREES: usize = 3;
        let mut pool = TreePool::new();
        let mut trees: Vec<ExpansionTree> = (0..TREES).map(|_| pool.new_tree()).collect();
        let mut refs: Vec<RefTree> = vec![RefTree::default(); TREES];

        for _ in 0..ops {
            let ti = (rng() % TREES as u64) as usize;
            // A deterministic "random member" of the reference tree.
            let pick_member = |r: &RefTree, roll: u64| -> Option<u32> {
                if r.nodes.is_empty() {
                    return None;
                }
                let mut keys: Vec<u32> = r.nodes.keys().copied().collect();
                keys.sort_unstable();
                Some(keys[(roll % keys.len() as u64) as usize])
            };
            match rng() % 8 {
                // Insert: seed a root, or grow from a random member along a
                // real adjacent edge (keeps distances weight-consistent).
                0..=2 => match pick_member(&refs[ti], rng()) {
                    None => {
                        let n = NodeId((rng() % net.num_nodes() as u64) as u32);
                        pool.insert(&mut trees[ti], n, 0.0, None);
                        refs[ti].insert(n.0, 0.0, None);
                    }
                    Some(p) => {
                        let adj = net.adjacent(NodeId(p));
                        if !adj.is_empty() {
                            let (e, m) = adj[(rng() % adj.len() as u64) as usize];
                            if !refs[ti].nodes.contains_key(&m.0) {
                                let d = refs[ti].nodes[&p].dist + weights.get(e);
                                pool.insert(&mut trees[ti], m, d, Some((NodeId(p), e)));
                                refs[ti].insert(m.0, d, Some((p, e.0)));
                            }
                        }
                    }
                },
                3 => {
                    // Cut a subtree (sometimes of an absent node: both
                    // sides must report 0).
                    let n = (rng() % net.num_nodes() as u64) as u32;
                    let a = pool.remove_subtree(&mut trees[ti], NodeId(n));
                    let b = refs[ti].remove_subtree(n);
                    prop_assert_eq!(a, b, "remove_subtree count diverged");
                }
                4 => {
                    let max = refs[ti]
                        .nodes
                        .values()
                        .map(|t| t.dist)
                        .fold(0.0f64, f64::max);
                    let theta = max * (rng() % 100) as f64 / 100.0;
                    let a = pool.retain_within(&mut trees[ti], theta);
                    let b = refs[ti].retain_within(theta);
                    prop_assert_eq!(a, b, "retain_within count diverged");
                }
                5 => {
                    // Re-root at a random member, shifting by its own old
                    // distance (the move-onto-a-verified-node case).
                    if let Some(s) = pick_member(&refs[ti], rng()) {
                        let shift = refs[ti].nodes[&s].dist;
                        let a = pool.reroot_at_subtree(&mut trees[ti], NodeId(s), shift);
                        let b = refs[ti].reroot_at_subtree(s, shift);
                        prop_assert_eq!(a, b, "reroot count diverged");
                    }
                }
                6 => {
                    // Clone tree ti over its right neighbour (release the
                    // old handle first — no slot may leak).
                    let tj = (ti + 1) % TREES;
                    let cloned = pool.clone_tree(&trees[ti]);
                    let old = std::mem::replace(&mut trees[tj], cloned);
                    pool.release(old);
                    refs[tj] = refs[ti].clone();
                }
                _ => {
                    // Full release + recreate: the recycled directory must
                    // carry nothing across epochs.
                    let old = std::mem::take(&mut trees[ti]);
                    pool.release(old);
                    trees[ti] = pool.new_tree();
                    refs[ti].clear();
                }
            }

            // Structure parity + invariants after every operation.
            let mut owned = 0usize;
            for (t, r) in trees.iter().zip(&refs) {
                prop_assert_eq!(t.len(), r.nodes.len(), "length diverged");
                owned += t.len();
                for (&n, rec) in &r.nodes {
                    let d = t.dist(&pool, NodeId(n));
                    prop_assert_eq!(d, Some(rec.dist), "distance diverged at {}", n);
                    let parent = t.parent_of(&pool, NodeId(n)).expect("member has a link");
                    prop_assert_eq!(
                        parent.map(|(p, e)| (p.0, e.0)),
                        rec.parent,
                        "parent link diverged at {}",
                        n
                    );
                    let mut got = t.children_of(&pool, NodeId(n));
                    got.sort_unstable_by_key(|&(c, _)| c.0);
                    let mut want: Vec<_> = rec
                        .children
                        .iter()
                        .map(|&(c, e)| (NodeId(c), EdgeId(e)))
                        .collect();
                    want.sort_unstable_by_key(|&(c, _)| c.0);
                    prop_assert_eq!(got, want, "children diverged at {}", n);
                }
                prop_assert_eq!(t.iter(&pool).count(), t.len(), "iteration diverged");
                pool.check_invariants(t, &net, &weights);
            }
            // Free-list integrity: every live slab slot is owned by exactly
            // one of the live trees.
            prop_assert_eq!(pool.live_nodes(), owned, "pool leaked or double-freed slots");
        }

        // Releasing everything must return the pool to empty — no slot
        // survives its tree across epochs.
        for t in trees {
            pool.release(t);
        }
        prop_assert_eq!(pool.live_nodes(), 0, "slots leaked across release");
    }
}

// ---------------------------------------------------------------------
// Cluster wire protocol: every message type round-trips bit-exactly
// through its frame, and damaged frames are rejected, never applied and
// never panicking.
// ---------------------------------------------------------------------

use rnn_monitor::cluster::{Frame, MsgTag};
use rnn_monitor::core::{MemoryUsage, Neighbor, OpCounters, TickReport};
use rnn_monitor::engine::{BatchKind, DeltaBatch, QuerySnapshot, TickOutcome};
use rnn_monitor::roadnet::{WireCodec, WireReader};

fn netpoint_strategy() -> impl Strategy<Value = NetPoint> {
    (any::<u16>(), 0.0f64..1.0).prop_map(|(e, frac)| NetPoint::new(EdgeId(e as u32), frac))
}

fn object_event_strategy() -> impl Strategy<Value = ObjectEvent> {
    prop_oneof![
        (any::<u32>(), netpoint_strategy()).prop_map(|(id, to)| ObjectEvent::Move {
            id: ObjectId(id),
            to
        }),
        (any::<u32>(), netpoint_strategy()).prop_map(|(id, at)| ObjectEvent::Insert {
            id: ObjectId(id),
            at
        }),
        any::<u32>().prop_map(|id| ObjectEvent::Delete { id: ObjectId(id) }),
    ]
}

fn query_event_strategy() -> impl Strategy<Value = QueryEvent> {
    prop_oneof![
        (any::<u32>(), netpoint_strategy()).prop_map(|(id, to)| QueryEvent::Move {
            id: QueryId(id),
            to
        }),
        (any::<u32>(), 1usize..32, netpoint_strategy()).prop_map(|(id, k, at)| {
            QueryEvent::Install {
                id: QueryId(id),
                k,
                at,
            }
        }),
        any::<u32>().prop_map(|id| QueryEvent::Remove { id: QueryId(id) }),
    ]
}

fn edge_update_strategy() -> impl Strategy<Value = EdgeWeightUpdate> {
    (any::<u16>(), 0.01f64..100.0).prop_map(|(e, w)| EdgeWeightUpdate {
        edge: EdgeId(e as u32),
        new_weight: w,
    })
}

fn snapshot_strategy() -> impl Strategy<Value = QuerySnapshot> {
    (
        any::<u32>(),
        prop_oneof![
            (0.0f64..1e9).prop_map(|d| d),
            (0u8..1).prop_map(|_| f64::INFINITY)
        ],
        prop::collection::vec(
            (any::<u32>(), 0.0f64..1e9).prop_map(|(o, d)| Neighbor {
                object: ObjectId(o),
                dist: d,
            }),
            0..6,
        ),
    )
        .prop_map(|(id, knn_dist, result)| QuerySnapshot {
            id: QueryId(id),
            knn_dist,
            result,
        })
}

/// Arbitrary counters: every field of the table filled from one seed via a
/// splitmix step, so every field exercises large values.
fn counters_from_seed(seed: u64) -> OpCounters {
    let mut s = seed;
    OpCounters::from_fn(|_| {
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z ^ (z >> 27)
    })
}

fn tick_outcome_strategy() -> impl Strategy<Value = TickOutcome> {
    (
        (
            any::<u64>(),
            any::<u32>(),
            0u32..1_000_000_000,
            any::<u64>(),
        ),
        prop::collection::vec(snapshot_strategy(), 0..5),
        prop_oneof![(0u8..1).prop_map(|_| None), (0usize..10_000).prop_map(Some)],
    )
        .prop_map(|((seed, secs, nanos, changed), snapshots, active_groups)| {
            let report = TickReport {
                counters: counters_from_seed(seed),
                elapsed: std::time::Duration::new(secs as u64 % 1_000_000, nanos),
                results_changed: changed as usize,
            };
            TickOutcome {
                report,
                snapshots,
                active_groups,
            }
        })
}

fn delta_batch_strategy() -> impl Strategy<Value = DeltaBatch> {
    (
        prop::collection::vec(object_event_strategy(), 0..6),
        prop::collection::vec(query_event_strategy(), 0..6),
        prop::collection::vec(edge_update_strategy(), 0..6),
        0u8..3,
    )
        .prop_map(|(objects, queries, edges, kind)| DeltaBatch {
            objects,
            queries,
            shared_edges: Arc::new(edges),
            kind: match kind {
                0 => BatchKind::Tick,
                1 => BatchKind::Resync,
                _ => BatchKind::Migration,
            },
        })
}

const ALL_TAGS: [MsgTag; 15] = [
    MsgTag::TickEvents,
    MsgTag::ResyncEvents,
    MsgTag::MigrationEvents,
    MsgTag::MemoryRequest,
    MsgTag::Shutdown,
    MsgTag::TickReply,
    MsgTag::MemoryReply,
    MsgTag::SnapshotRequest,
    MsgTag::SnapshotReply,
    MsgTag::SnapshotInstall,
    MsgTag::RestoreReply,
    MsgTag::Append,
    MsgTag::AppendAck,
    MsgTag::Promote,
    MsgTag::SnapshotOffer,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frame envelope round-trips any tag/seq/payload bit-exactly.
    #[test]
    fn frame_envelope_round_trips(
        tag_idx in 0usize..ALL_TAGS.len(),
        seq in any::<u32>(),
        epoch in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let f = Frame { tag: ALL_TAGS[tag_idx], seq, epoch, payload };
        let bytes = f.to_bytes();
        prop_assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);
    }

    /// Every request message type round-trips through its typed frame:
    /// delta batches (tick / resync / migration) survive bit-exactly.
    #[test]
    fn delta_batches_round_trip_through_frames(
        batch in delta_batch_strategy(),
        seq in any::<u32>(),
    ) {
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        let tag = match batch.kind {
            BatchKind::Tick => MsgTag::TickEvents,
            BatchKind::Resync => MsgTag::ResyncEvents,
            BatchKind::Migration => MsgTag::MigrationEvents,
        };
        let bytes = Frame { tag, seq, epoch: 0, payload }.to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.tag, tag);
        let decoded = DeltaBatch::decode(&mut WireReader::new(&back.payload)).unwrap();
        prop_assert_eq!(&decoded.objects, &batch.objects);
        prop_assert_eq!(&decoded.queries, &batch.queries);
        prop_assert_eq!(&*decoded.shared_edges, &*batch.shared_edges);
    }

    /// Every reply message type round-trips: tick outcomes (reports,
    /// snapshot deltas incl. ∞ distances, cell charges) and memory
    /// breakdowns.
    #[test]
    fn replies_round_trip_through_frames(
        outcome in tick_outcome_strategy(),
        mem_seed in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let mut payload = Vec::new();
        outcome.encode(&mut payload);
        let bytes = Frame { tag: MsgTag::TickReply, seq, epoch: 0, payload }.to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        let decoded = TickOutcome::decode(&mut WireReader::new(&back.payload)).unwrap();
        // Work counters, snapshots and charges must survive bit-exactly;
        // wall-clock rides along and must too (it is plain u64/u32 data).
        prop_assert_eq!(decoded, outcome);

        let mut s = mem_seed;
        let mut next = move || { s = s.wrapping_mul(6364136223846793005).wrapping_add(17); (s >> 13) as usize };
        let mem = MemoryUsage {
            edge_table: next(),
            query_table: next(),
            expansion_trees: next(),
            influence_lists: next(),
            auxiliary: next(),
        };
        let mut payload = Vec::new();
        mem.encode(&mut payload);
        let bytes = Frame { tag: MsgTag::MemoryReply, seq, epoch: 0, payload }.to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        prop_assert_eq!(MemoryUsage::decode(&mut WireReader::new(&back.payload)).unwrap(), mem);
    }

    /// Truncating a frame anywhere yields a decode error — never a panic,
    /// never a bogus success.
    #[test]
    fn truncated_frames_error_not_panic(
        batch in delta_batch_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        let bytes = Frame { tag: MsgTag::TickEvents, seq: 3, epoch: 7, payload }.to_bytes();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(Frame::from_bytes(&bytes[..cut]).is_err());
    }

    /// Flipping any single bit past the length prefix is caught (checksum
    /// or framing), so a corrupted frame can never be applied.
    #[test]
    fn corrupted_frames_are_rejected(
        batch in delta_batch_strategy(),
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        let mut bytes = Frame { tag: MsgTag::MigrationEvents, seq: 9, epoch: 2, payload }.to_bytes();
        let idx = 4 + (byte_seed as usize) % (bytes.len() - 4);
        bytes[idx] ^= 1 << bit;
        prop_assert!(Frame::from_bytes(&bytes).is_err());
    }
}

/// Bytes tripwire for the event codec: one seeded timestamp of the
/// workload generator at Table 2 scale (100K objects on a 10K-edge
/// SF-like map, 10% object agility: ~10K moves) encodes at ≤ 13 B per
/// event — a varint object id with the variant folded in (3 B), a
/// varint edge id (2 B) and the raw `f64` fraction (8 B).
#[test]
fn a_paper_scale_move_batch_encodes_at_13_bytes_per_event() {
    let net = Arc::new(generators::san_francisco_like(10_000, 42));
    let mut sc = rnn_monitor::Scenario::new(
        net,
        rnn_monitor::ScenarioConfig {
            num_queries: 10,
            seed: 42,
            ..Default::default()
        },
    );
    let moves = sc.tick().objects;
    assert!(moves.len() >= 9_000, "{} moves", moves.len());
    let mut buf = Vec::new();
    rnn_monitor::roadnet::wire::encode_seq(&moves, &mut buf);
    let per_event = buf.len() as f64 / moves.len() as f64;
    assert!(per_event <= 13.0, "{per_event:.3} B/event");
}

// ---------------------------------------------------------------------
// Static-analysis lexer properties: the lint pass runs over every source
// file in the workspace, so its lexer must terminate, never panic, and
// keep line numbers sane on arbitrary input — including bytes that are
// not valid Rust (unterminated strings, stray quotes, lone backslashes).
// ---------------------------------------------------------------------

proptest! {
    /// Lexing arbitrary bytes (lossily decoded) terminates without
    /// panicking, and every reported line number is within the input.
    #[test]
    fn lexer_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let lines = src.lines().count().max(1) as u32;
        let out = rnn_analysis::lexer::lex(&src);
        for t in &out.tokens {
            prop_assert!(t.line >= 1 && t.line <= lines);
        }
        for a in &out.allows {
            prop_assert!(!a.rule.is_empty());
            prop_assert!(a.line >= 1 && a.line <= lines);
        }
    }

    /// Token lines are nondecreasing: the stream preserves source order.
    #[test]
    fn lexer_lines_are_monotone(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = rnn_analysis::lexer::lex(&src).tokens;
        for w in toks.windows(2) {
            prop_assert!(w[0].line <= w[1].line);
        }
    }

    /// Quote-heavy input — the worst case for string/char/lifetime
    /// disambiguation — still terminates and stays in bounds.
    #[test]
    fn lexer_survives_quote_soup(
        picks in proptest::collection::vec(0usize..12, 0..200),
    ) {
        const PIECES: [&str; 12] = [
            "\"", "'", "r#\"", "\"#", "//", "/*", "*/", "\\", "\n",
            "lint: allow(", "b'", "r##",
        ];
        let src: String = picks.iter().map(|&i| PIECES[i]).collect();
        let out = rnn_analysis::lexer::lex(&src);
        let lines = src.lines().count().max(1) as u32;
        for t in &out.tokens {
            prop_assert!(t.line >= 1 && t.line <= lines);
        }
    }
}

// ---------------------------------------------------------------------
// Durability plane: monitor-state snapshots must round-trip to an
// answer-equivalent monitor for every algorithm on random networks and
// workloads, their decoder must be total on mutilated bytes, and the
// WAL scan must recover exactly the untorn record prefix wherever the
// tail is cut.
// ---------------------------------------------------------------------

/// Installs a seed-derived population and runs a few ticks, leaving the
/// monitor in a non-trivial steady state worth snapshotting.
fn populate_for_snapshot(m: &mut dyn ContinuousMonitor, net: &RoadNetwork, seed: u64) {
    let n = net.num_edges() as u64;
    for i in 0..20u64 {
        let e = EdgeId(((seed.wrapping_mul(31) + i * 7) % n) as u32);
        let frac = 0.05 + 0.9 * ((i as f64 * 0.37 + seed as f64 * 0.11) % 1.0);
        m.apply(UpdateEvent::insert_object(
            ObjectId(i as u32),
            NetPoint::new(e, frac),
        ));
    }
    for q in 0..6u64 {
        let e = EdgeId(((seed.wrapping_mul(17) + q * 13) % n) as u32);
        m.apply(UpdateEvent::install_query(
            QueryId(q as u32),
            1 + (q as usize % 4),
            NetPoint::new(e, 0.5),
        ));
    }
    for t in 0..3u64 {
        let mut batch = UpdateBatch::default();
        batch.objects.push(ObjectEvent::Move {
            id: ObjectId(((seed + t) % 20) as u32),
            to: NetPoint::new(EdgeId(((seed + 3 * t) % n) as u32), 0.4),
        });
        batch.edges.push(EdgeWeightUpdate {
            edge: EdgeId(((seed + 5 * t) % n) as u32),
            new_weight: 1.0 + (t as f64) * 0.25,
        });
        m.tick(&batch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// capture → encode → decode → restore yields a monitor with
    /// bit-identical answers, for each algorithm on random populated
    /// networks.
    #[test]
    fn snapshot_round_trip_is_answer_equivalent(seed in 0u64..120, algo in 0usize..3) {
        let net = grid(5, 5, seed);
        let (mut orig, mut fresh): (Box<dyn ContinuousMonitor>, Box<dyn ContinuousMonitor>) =
            match algo {
                0 => (Box::new(Gma::new(net.clone())), Box::new(Gma::new(net.clone()))),
                1 => (Box::new(Ima::new(net.clone())), Box::new(Ima::new(net.clone()))),
                _ => (Box::new(Ovh::new(net.clone())), Box::new(Ovh::new(net.clone()))),
            };
        populate_for_snapshot(orig.as_mut(), &net, seed);
        let snap = orig.snapshot_state().expect("all three algorithms snapshot");
        let bytes = snap.to_bytes();
        let decoded = MonitorState::from_bytes(&bytes);
        prop_assert_eq!(decoded.as_ref().ok(), Some(&snap), "decode must invert encode");
        prop_assert!(decoded.unwrap().restore_into(fresh.as_mut()).is_ok());
        prop_assert_eq!(compare(orig.as_ref(), fresh.as_ref(), None), Ok(()));
    }

    /// The snapshot decoder is total: truncating a valid encoding at any
    /// proportional cut is rejected as an error, never a panic.
    #[test]
    fn snapshot_decode_rejects_truncation(seed in 0u64..60, cut in 0.0f64..1.0) {
        let net = grid(5, 5, seed);
        let mut m = Gma::new(net.clone());
        populate_for_snapshot(&mut m, &net, seed);
        let bytes = m.snapshot_state().expect("gma snapshots").to_bytes();
        let at = ((bytes.len() as f64) * cut) as usize;
        if at < bytes.len() {
            prop_assert!(MonitorState::from_bytes(&bytes[..at]).is_err());
        }
    }

    /// Cutting a WAL image at an arbitrary byte offset never panics and
    /// recovers exactly the records that fit before the cut.
    #[test]
    fn wal_scan_recovers_untorn_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        cut in 0.0f64..1.0,
    ) {
        let mut image = Vec::new();
        let mut ends = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let frame = Frame { tag: MsgTag::TickEvents, seq: i as u32, epoch: 0, payload: p.clone() };
            image.extend_from_slice(&frame.to_bytes());
            ends.push(image.len());
        }
        let at = ((image.len() as f64) * cut) as usize;
        let (records, valid) = cluster_wal::scan(&image[..at]);
        // The valid prefix is exactly the full records that fit in the cut.
        let want = ends.iter().take_while(|&&e| e <= at).count();
        prop_assert_eq!(records.len(), want, "cut at {} of {}", at, image.len());
        prop_assert_eq!(valid, if want == 0 { 0 } else { ends[want - 1] });
        for (i, (seq, bytes)) in records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u32);
            let start = if i == 0 { 0 } else { ends[i - 1] };
            prop_assert_eq!(bytes.as_slice(), &image[start..ends[i]]);
        }
    }

    /// Flipping any single bit *inside* a record (past its length
    /// prefix) makes the scan stop exactly there: every record before
    /// the flipped one is recovered verbatim, nothing at or after it
    /// survives, and the valid prefix ends at the previous record's
    /// boundary — a torn middle behaves like a torn tail, never a
    /// silent partial apply.
    #[test]
    fn wal_scan_stops_at_a_mid_record_bit_flip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut image = Vec::new();
        let mut bounds = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let start = image.len();
            let frame = Frame { tag: MsgTag::TickEvents, seq: i as u32, epoch: 1, payload: p.clone() };
            image.extend_from_slice(&frame.to_bytes());
            bounds.push((start, image.len()));
        }
        let victim = (pick as usize) % bounds.len();
        let (start, end) = bounds[victim];
        // Flip past the 4-byte length prefix so framing is intact and
        // the checksum is what must catch it.
        let idx = start + 4 + (pick as usize / 7) % (end - start - 4);
        image[idx] ^= 1 << bit;
        let (records, valid) = cluster_wal::scan(&image);
        prop_assert_eq!(records.len(), victim);
        prop_assert_eq!(valid, bounds[victim].0);
        for (i, (seq, bytes)) in records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u32);
            prop_assert_eq!(bytes.as_slice(), &image[bounds[i].0..bounds[i].1]);
        }
    }

    /// Truncating exactly *at* a record boundary is lossless up to the
    /// cut: every record before the boundary is recovered and the valid
    /// prefix is the boundary itself (no record is half-counted).
    #[test]
    fn wal_scan_is_exact_at_record_boundaries(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        pick in any::<u64>(),
    ) {
        let mut image = Vec::new();
        let mut ends = vec![0usize];
        for (i, p) in payloads.iter().enumerate() {
            let frame = Frame { tag: MsgTag::TickEvents, seq: i as u32, epoch: 1, payload: p.clone() };
            image.extend_from_slice(&frame.to_bytes());
            ends.push(image.len());
        }
        let cut_idx = (pick as usize) % ends.len();
        let cut = ends[cut_idx];
        let (records, valid) = cluster_wal::scan(&image[..cut]);
        prop_assert_eq!(records.len(), cut_idx, "exactly the records before the boundary");
        prop_assert_eq!(valid, cut, "a boundary cut leaves no torn tail");
    }

    /// Scanning arbitrary garbage is total and returns a consistent
    /// (records, valid-prefix) pair.
    #[test]
    fn wal_scan_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let (records, valid) = cluster_wal::scan(&bytes);
        prop_assert!(valid <= bytes.len());
        let (again, valid2) = cluster_wal::scan(&bytes[..valid]);
        prop_assert_eq!(valid2, valid, "valid prefix must be a fixpoint");
        prop_assert_eq!(again.len(), records.len());
    }
}
