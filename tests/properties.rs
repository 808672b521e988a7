//! Property tests on the core data structures and on the end-to-end
//! monitoring invariants. Each property is a loop over a fixed range of
//! seeded cases (`cases` in `tests/common`), drawing every input from the
//! case's generator; a failing case names its seed. The random programs
//! drive their stacks through the harness's `drive`, asserted with
//! `assert_eq!(drive(..), Ok(()))`; the change-list properties hold every
//! call against its `KeptAnswers`, and the answer properties compare
//! through its `compare`.

mod common;

use std::sync::Arc;

use common::{cases, compare, drive, grid, tie_prone_point, KeptAnswers, Program, Stack};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_monitor::cluster::wal as cluster_wal;
use rnn_monitor::core::influence::IntervalSet;
use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, MonitorState, Ovh, UpdateBatch, UpdateEvent};
use rnn_monitor::core::{EdgeWeightUpdate, ObjectEvent, QueryEvent};
use rnn_monitor::roadnet::{
    generators, DijkstraEngine, EdgeId, EdgeWeights, NetPoint, NodeId, ObjectId, QueryId,
    RoadNetwork, SequenceTable,
};

/// A failing case's panic names its test and its seed, and the seed
/// replays it: case 3 draws what `StdRng::seed_from_u64(3)` draws.
#[test]
#[should_panic(expected = "a_failing_case_names_its_seed: case seed 3: ")]
fn a_failing_case_names_its_seed() {
    let first_of_seed_3: u64 = StdRng::seed_from_u64(3).random();
    cases(0..8, |rng| assert_ne!(rng.random::<u64>(), first_of_seed_3));
}

// ---------------------------------------------------------------------
// IntervalSet properties.
// ---------------------------------------------------------------------

#[test]
fn interval_membership_matches_construction() {
    cases(0..48, |rng| {
        let (lo1, len1) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let probe = rng.random_range(0.0..1.0);
        let hi1 = (lo1 + len1).min(1.0);
        let s = IntervalSet::single(lo1, hi1);
        assert_eq!(s.covers(probe), probe >= lo1 && probe <= hi1);
    });
}

#[test]
fn interval_union_covers_both() {
    cases(0..48, |rng| {
        let (lo1, len1) = (rng.random_range(0.0..1.0), rng.random_range(0.0..0.5));
        let (lo2, len2) = (rng.random_range(0.0..1.0), rng.random_range(0.0..0.5));
        let probe = rng.random_range(0.0..1.0);
        let hi1 = (lo1 + len1).min(1.0);
        let hi2 = (lo2 + len2).min(1.0);
        let mut s = IntervalSet::single(lo1, hi1);
        // `add` panics only when three disjoint ranges would be needed —
        // with two ranges that cannot happen.
        s.add(lo2, hi2);
        let expect = (probe >= lo1 && probe <= hi1) || (probe >= lo2 && probe <= hi2);
        assert_eq!(s.covers(probe), expect);
    });
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

#[test]
fn dijkstra_matches_floyd_warshall() {
    cases(0..12, |rng| {
        let seed = rng.random_range(0..200u64);
        let net = grid(5, 5, seed);
        let w = EdgeWeights::from_base(&net);
        let oracle = floyd_warshall(&net, &w);
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let src = rnn_monitor::NodeId((seed % net.num_nodes() as u64) as u32);
        eng.sssp(&net, &w, src, None);
        for n in net.node_ids() {
            let got = eng.dist_of(n).unwrap_or(f64::INFINITY);
            let want = oracle[src.index()][n.index()];
            assert_eq!(got, want, "node {n:?}");
        }
    });
}

#[test]
fn sequences_partition_edges() {
    cases(0..12, |rng| {
        let net = grid(5, 5, rng.random_range(0..200));
        let st = SequenceTable::build(&net);
        let mut covered = vec![0usize; net.num_edges()];
        for s in st.iter() {
            for &e in &s.edges {
                covered[e.index()] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "not a partition");
    });
}

#[test]
fn quadtree_locate_is_consistent() {
    cases(0..12, |rng| {
        let net = grid(5, 5, rng.random_range(0..100));
        let t = rng.random_range(0.05..0.95);
        let qt = rnn_monitor::roadnet::PmrQuadtree::build(&net);
        for e in net.edge_ids().step_by(7) {
            let p = NetPoint::new(e, t);
            let xy = p.coordinates(&net);
            let found = qt.locate(&net, xy).unwrap();
            // Planar coordinates, not a network distance: the index
            // resolves a point by geometry.
            assert!(found.coordinates(&net).dist(xy) < 1e-9);
        }
    });
}

// ---------------------------------------------------------------------
// End-to-end monitoring properties on random update streams.
// ---------------------------------------------------------------------

/// Appends one random event to `batch`: a move, delete or insert of one
/// of 16 objects, a move of one of 4 queries, or an edge's weight scaled
/// by 0.5–2.
fn push_op(rng: &mut StdRng, batch: &mut UpdateBatch, weights: &mut EdgeWeights, ne: u32) {
    let id = rng.random_range(0..16);
    let at = NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random_range(0.0..1.0));
    match rng.random_range(0..5usize) {
        0 => batch.objects.push(ObjectEvent::Move {
            id: ObjectId(id),
            to: at,
        }),
        1 => batch.objects.push(ObjectEvent::Delete { id: ObjectId(id) }),
        2 => batch.objects.push(ObjectEvent::Insert {
            id: ObjectId(id),
            at,
        }),
        3 => batch.queries.push(QueryEvent::Move {
            id: QueryId(id % 4),
            to: at,
        }),
        _ => {
            let new_weight = weights.get(at.edge) * rng.random_range(0.5..2.0);
            weights.set(at.edge, new_weight);
            batch.edges.push(EdgeWeightUpdate {
                edge: at.edge,
                new_weight,
            });
        }
    }
}

/// 1–7 batches of 0–5 events each, every event drawn by `push`.
fn random_batches(
    rng: &mut StdRng,
    mut push: impl FnMut(&mut StdRng, &mut UpdateBatch),
) -> Vec<UpdateBatch> {
    (0..rng.random_range(1..8usize))
        .map(|_| {
            let mut batch = UpdateBatch::default();
            for _ in 0..rng.random_range(0..6usize) {
                push(rng, &mut batch);
            }
            batch
        })
        .collect()
}

/// 12 objects and, at `k`, `n_queries` queries at fixed spots, each a
/// timestamp of its own.
fn fixed_population(ne: u32, k: usize, n_queries: u32) -> Vec<UpdateEvent> {
    let objects = (0..12u32).map(|i| {
        let e = EdgeId((i * 5) % ne);
        UpdateEvent::insert_object(ObjectId(i), NetPoint::new(e, 0.3 + 0.05 * i as f64 % 0.6))
    });
    let queries = (0..n_queries).map(|i| {
        let e = EdgeId((i * 11 + 3) % ne);
        UpdateEvent::install_query(QueryId(i), k, NetPoint::new(e, 0.5))
    });
    objects.chain(queries).collect()
}

/// Random update programs: IMA and GMA always agree with the
/// from-scratch oracle, and IMA's internal invariants hold.
#[test]
fn monitors_agree_on_random_programs() {
    cases(0..24, |rng| {
        let net = grid(5, 5, rng.random_range(0..50));
        let k = rng.random_range(1..6);
        let ne = net.num_edges() as u32;
        let mut weights = EdgeWeights::from_base(&net);
        let batches = random_batches(rng, |rng, batch| push_op(rng, batch, &mut weights, ne));
        let n = batches.len();
        let mut program = Program::applying(fixed_population(ne, k, 4), batches);
        assert_eq!(drive(&mut program, &mut Stack::monitors(&net), n), Ok(()));
    });
}

/// Results are always sorted, deduplicated, within k, and kNN_dist
/// equals the k-th distance.
#[test]
fn result_shape_invariants() {
    cases(0..24, |rng| {
        let net = grid(5, 5, rng.random_range(0..30));
        let k = rng.random_range(1..8);
        let mut ima = Ima::new(net.clone());
        for i in 0..10u32 {
            ima.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % net.num_edges() as u32), 0.25),
            ));
        }
        ima.apply(UpdateEvent::install_query(
            QueryId(0),
            k,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let r = ima.result(QueryId(0)).unwrap();
        assert!(r.len() <= k);
        assert_eq!(r.len(), k.min(10));
        for w in r.windows(2) {
            assert!(w[0].dist <= w[1].dist);
            assert!(w[0].object != w[1].object);
        }
        let knn = ima.knn_dist(QueryId(0)).unwrap();
        if r.len() == k {
            assert_eq!(knn, r[k - 1].dist);
        } else {
            assert!(knn.is_infinite());
        }
    });
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

/// GMA's answers are Lemma 1's union and the from-scratch answer, and
/// IMA's are the from-scratch answer too, on every kind of sequence, for
/// k below and above the object count, with objects sharing positions and
/// sitting on nodes (exact ties), hence in the walk and in both endpoint
/// sets at once: under `(dist, id)` all three are one answer, compared
/// whole with `==`.
#[test]
fn gma_answers_are_the_lemma1_union() {
    cases(0..256, |rng| {
        let (shape, seed) = (rng.random_range(0..5), rng.random_range(0..1000));
        let n_objects = rng.random_range(0..40);
        let net = lemma1_network(shape, seed);
        let ne = net.num_edges();
        let (mut gma, mut ima) = (Gma::new(net.clone()), Ima::new(net.clone()));
        let mut weights = EdgeWeights::from_base(&net);
        let mut objects: Vec<(ObjectId, NetPoint)> = (0..n_objects)
            .map(|i| (ObjectId(i as u32), tie_prone_point(rng, ne)))
            .collect();
        let queries: Vec<(QueryId, usize, NetPoint)> = (0..4u32)
            .map(|i| {
                (
                    QueryId(i),
                    [1, 3, 50][rng.random_range(0..3usize)],
                    tie_prone_point(rng, ne),
                )
            })
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
                    if rng.random_range(0..3usize) == 0 {
                        *at = tie_prone_point(rng, ne);
                        batch.objects.push(ObjectEvent::Move { id: *id, to: *at });
                    }
                }
                if rng.random::<bool>() {
                    let edge = EdgeId(rng.random_range(0..ne as u32));
                    let new_weight = weights.get(edge) * [0.5, 2.0][rng.random_range(0..2usize)];
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
                    .map(|edge| EdgeWeightUpdate {
                        edge,
                        new_weight: weights.get(edge),
                    })
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
            assert_eq!(compare(&ovh, &gma, None), Ok(()), "{what}: GMA vs OVH");
            assert_eq!(compare(&ovh, &ima, None), Ok(()), "{what}: IMA vs OVH");
            for &(id, k, at) in &queries {
                let got = gma.result(id).unwrap();
                let lemma = lemma1_reference(&net, gma.sequences(), &weights, &objects, at, k);
                assert_eq!(got, lemma, "{what} {id:?} k {k}: GMA vs Lemma 1");
                assert_eq!(got.len(), k.min(n_objects));
                let knn = gma.knn_dist(id).unwrap();
                assert_eq!(
                    knn,
                    if got.len() == k {
                        got[k - 1].dist
                    } else {
                        f64::INFINITY
                    }
                );
            }
        }
    });
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

/// Event lists full of repeated ids (move→move, insert→delete,
/// delete→insert, a→b→a, moves of unknown ids, duplicate edge updates,
/// install→move→remove of a query) coalesce and apply exactly as the
/// naive fold: the same deltas in first-appearance order with no-ops
/// dropped, the same state, the same edge-list order, and an object index
/// that is consistent with itself.
#[test]
fn apply_batch_matches_a_naive_fold() {
    cases(0..256, |rng| {
        let net = generators::line_network(5, 1.0); // 4 edges
        let ne = net.num_edges() as u32;
        let mut state = NetworkState::new(&net);
        let mut naive = NaiveState {
            on_edge: vec![Vec::new(); net.num_edges()],
            weights: net.edge_ids().map(|e| net.edge(e).base_weight).collect(),
            ..Default::default()
        };
        // Few ids, few places, few weights: repeats and no-ops abound.
        let point = |rng: &mut StdRng| {
            NetPoint::new(
                EdgeId(rng.random_range(0..ne)),
                [0.0, 0.25, 1.0][rng.random_range(0..3usize)],
            )
        };
        for _ in 0..rng.random_range(1..8usize) {
            let mut batch = UpdateBatch::default();
            for _ in 0..rng.random_range(0..24usize) {
                let (object, query) = (
                    ObjectId(rng.random_range(0..6)),
                    QueryId(rng.random_range(0..3)),
                );
                match rng.random_range(0..9usize) {
                    0..=2 => batch.objects.push(ObjectEvent::Move {
                        id: object,
                        to: point(rng),
                    }),
                    3 => batch.objects.push(ObjectEvent::Insert {
                        id: object,
                        at: point(rng),
                    }),
                    4 => batch.objects.push(ObjectEvent::Delete { id: object }),
                    5 => batch.edges.push(EdgeWeightUpdate {
                        edge: EdgeId(rng.random_range(0..ne)),
                        new_weight: [1.0, 2.0, 3.0][rng.random_range(0..3usize)],
                    }),
                    6 => batch.queries.push(QueryEvent::Install {
                        id: query,
                        k: rng.random_range(1..4),
                        at: point(rng),
                    }),
                    7 => batch.queries.push(QueryEvent::Move {
                        id: query,
                        to: point(rng),
                    }),
                    _ => batch.queries.push(QueryEvent::Remove { id: query }),
                }
            }
            let got = state.apply_batch(&batch);
            let want = naive.apply(&batch);
            assert_eq!(
                got.objects, want.objects,
                "object deltas of {:?}",
                batch.objects
            );
            assert_eq!(got.edges, want.edges, "edge deltas of {:?}", batch.edges);
            assert_eq!(
                got.queries, want.queries,
                "query deltas of {:?}",
                batch.queries
            );

            state.objects.check_invariants();
            assert_eq!(state.objects.len(), naive.objects.len());
            for (&id, &at) in &naive.objects {
                assert_eq!(state.objects.position(id), Some(at));
            }
            for e in net.edge_ids() {
                assert_eq!(
                    state.objects.on_edge(e),
                    naive.on_edge[e.index()].as_slice()
                );
                assert_eq!(state.weights.get(e), naive.weights[e.index()]);
            }
            assert_eq!(state.queries.len(), naive.queries.len());
            for (id, placed) in &naive.queries {
                assert_eq!(state.queries.get(id), Some(placed));
            }
        }
    });
}

// ---------------------------------------------------------------------
// Sharded-engine replica bookkeeping (replica masks + edge→object index).
// ---------------------------------------------------------------------

use rnn_monitor::engine::{EngineConfig, ShardedEngine};

/// Random programs with query churn, each ending with the removal of
/// every query and two quiet ticks, so the shipped shrink hysteresis
/// (1.5×, 2 ticks) evicts every replica the program left: after every tick
/// the engine's replica masks, halo edge sets, and edge→object index must
/// agree with each other (`validate_replication`), and its answers with a
/// single-threaded GMA. Besides [`push_op`]'s events, a program installs
/// queries (one of 4 ids, k 1–5), which grow halos, and removes them,
/// which shrinks them.
#[test]
fn engine_replica_masks_and_index_stay_consistent() {
    let mut evicted = 0;
    cases(0..16, |rng| {
        let net = grid(5, 5, rng.random_range(0..40));
        let shards = rng.random_range(2..5);
        let ne = net.num_edges() as u32;
        let mut weights = EdgeWeights::from_base(&net);
        let mut batches = random_batches(rng, |rng, batch| match rng.random_range(0..3usize) {
            0 => push_op(rng, batch, &mut weights, ne),
            1 => batch.queries.push(QueryEvent::Install {
                id: QueryId(rng.random_range(0..4)),
                k: rng.random_range(1..6),
                at: NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random_range(0.0..1.0)),
            }),
            _ => batch.queries.push(QueryEvent::Remove {
                id: QueryId(rng.random_range(0..4)),
            }),
        });
        // The tail: every query leaves, then two quiet ticks.
        batches.push(UpdateBatch {
            queries: (0..4)
                .map(|id| QueryEvent::Remove { id: QueryId(id) })
                .collect(),
            ..Default::default()
        });
        let n = batches.len() + 2;
        let mut program = Program::applying(fixed_population(ne, 3, 3), batches);
        let cfg = EngineConfig {
            num_shards: shards,
            ..EngineConfig::default()
        };
        let mut stacks = vec![Stack::gma(&net), Stack::eng(&net, cfg)];
        assert_eq!(drive(&mut program, &mut stacks, n), Ok(()));
        evicted += stacks[1].eng_ref().replica_evictions();
    });
    // Coverage floor: what shrink trigger 1.0 / 1 tick evicted over the 16
    // programs without the tail.
    assert!(
        evicted >= 144,
        "{evicted} evictions, below the 144 this test is sized for"
    );
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
    rng: StdRng,
    ne: usize,
    pile: NetPoint,
    objects: BTreeMap<ObjectId, NetPoint>,
    book: BTreeMap<QueryId, (usize, NetPoint)>,
    weights: EdgeWeights,
}

impl ChangeProgram {
    const OBJECT_IDS: u32 = 14;
    const QUERY_IDS: u32 = 5;

    /// A program on `net` drawn from `rng`.
    fn new(net: &RoadNetwork, mut rng: StdRng) -> Self {
        let ne = net.num_edges();
        Self {
            pile: tie_prone_point(&mut rng, ne),
            rng,
            ne,
            objects: BTreeMap::new(),
            book: BTreeMap::new(),
            weights: EdgeWeights::from_base(net),
        }
    }

    fn spot(&mut self) -> NetPoint {
        if self.rng.random_range(0..3usize) == 0 {
            self.pile
        } else {
            tie_prone_point(&mut self.rng, self.ne)
        }
    }

    /// A k below, at, and above the object count.
    fn some_k(&mut self) -> usize {
        let n = self.objects.len();
        [1, 2, 3, n.max(1), n + 1, 50][self.rng.random_range(0..6usize)]
    }

    fn some_query(&mut self) -> QueryId {
        QueryId(self.rng.random_range(0..Self::QUERY_IDS))
    }

    /// A move, delete or — unless `no_insert` — insert of a random object.
    fn object_event(&mut self, no_insert: bool) -> ObjectEvent {
        let id = ObjectId(self.rng.random_range(0..Self::OBJECT_IDS));
        let ev = match self.rng.random_range(0..4usize) {
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
        let edge = EdgeId(self.rng.random_range(0..self.ne as u32));
        let new_weight = self.weights.get(edge) * [0.5, 2.0][self.rng.random_range(0..2usize)];
        self.weights.set(edge, new_weight);
        EdgeWeightUpdate { edge, new_weight }
    }

    /// An install of `id`: of a new query anywhere, of a registered one in
    /// place (identical, or at another k) or elsewhere.
    fn install(&mut self, id: QueryId) -> QueryEvent {
        let (k, at) = match self.book.get(&id).copied() {
            None => (self.some_k(), self.spot()),
            Some((k, at)) => match self.rng.random_range(0..3usize) {
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
        match self.rng.random_range(0..10usize) {
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
                    let k = if self.rng.random() { k } else { self.some_k() };
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
            if self.rng.random_range(0..4usize) > 0 {
                let mut batch = UpdateBatch::default();
                for _ in 0..self.rng.random_range(0..7usize) {
                    self.push_event(&mut batch);
                }
                let report = m.tick(&batch);
                kept.check(m, &report)
                    .map_err(|e| format!("{what}, tick {batch:?}: {e}"))?;
            } else {
                let id = self.some_query();
                let event = match self.rng.random_range(0..5usize) {
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

/// One monitor per case, one program, every call checked.
fn lists_exactly_the_queries_it_changed(make: fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>) {
    cases(0..256, |rng| {
        let (shape, seed) = (rng.random_range(0..5), rng.random_range(0..1000));
        let n_objects = rng.random_range(0..14);
        let net = lemma1_network(shape, seed);
        let mut m = make(net.clone());
        let what = format!("{} shape {shape} seed {seed} objects {n_objects}", m.name());
        let mut program = ChangeProgram::new(&net, rng.clone());
        let mut kept = KeptAnswers::default();
        assert_eq!(program.run(m.as_mut(), &mut kept, n_objects, &what), Ok(()));
    });
}

#[test]
fn ovh_lists_exactly_the_queries_it_changed() {
    lists_exactly_the_queries_it_changed(|net| Box::new(Ovh::new(net)));
}

#[test]
fn ima_lists_exactly_the_queries_it_changed() {
    lists_exactly_the_queries_it_changed(|net| Box::new(Ima::new(net)));
}

#[test]
fn gma_lists_exactly_the_queries_it_changed() {
    lists_exactly_the_queries_it_changed(|net| Box::new(Gma::new(net)));
}

/// The same literal check one layer up: a 4-shard engine over each of the
/// three shard monitors. Wide queries (k at and above the object count)
/// make halos grow through several reconcile rounds, in which a query is
/// reported more than once; then a query is moved across a border, and
/// moved across and back in one batch — a flap that ends where it started
/// and must count as no change.
#[test]
fn engine_lists_exactly_the_queries_it_changed() {
    cases(0..96, |rng| {
        let algo = [ShardAlgo::Ovh, ShardAlgo::Ima, ShardAlgo::Gma][rng.random_range(0..3usize)];
        let (seed, n_objects) = (rng.random_range(0..1000), rng.random_range(0..14));
        let net = grid(5, 5, seed);
        let mut eng = ShardedEngine::new(
            net.clone(),
            EngineConfig {
                num_shards: 4,
                algo,
                ..EngineConfig::default()
            },
        );
        let what = format!("ENG-4 over {algo:?}, seed {seed}, objects {n_objects}");
        let mut kept = KeptAnswers::default();
        let mut program = ChangeProgram::new(&net, rng.clone());
        assert_eq!(program.run(&mut eng, &mut kept, n_objects, &what), Ok(()));
        if let Err(msg) = eng.validate_replication() {
            panic!("{what}: {msg}");
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
            let batch = UpdateBatch {
                queries,
                ..Default::default()
            };
            let report = eng.tick(&batch);
            kept.check(&eng, &report)
                .unwrap_or_else(|e| panic!("{what}, {step}: {e}"));
            (report.results_changed, eng.changed_queries().to_vec())
        };
        tick(
            vec![QueryEvent::Install { id, k: 3, at: home }],
            &mut kept,
            "install at home",
        );
        // … moved across it and back in one batch: two re-homings, the
        // answer it started with.
        let there_and_back = vec![
            QueryEvent::Move { id, to: abroad },
            QueryEvent::Move { id, to: home },
        ];
        let (count, list) = tick(there_and_back, &mut kept, "across the border and back");
        assert_eq!(count, 0, "{what}: a flap that ends where it started");
        assert!(list.is_empty());
        // … and moved across it for good.
        tick(
            vec![QueryEvent::Move { id, to: abroad }],
            &mut kept,
            "across the border",
        );
    });
}

// ---------------------------------------------------------------------
// Dynamic re-partitioning: cell reassignment invariants.
// ---------------------------------------------------------------------

/// Random sequences of boundary-cell migrations preserve the partition
/// invariant: every edge owned by exactly one in-range shard, views an
/// exact partition of nodes and edges, boundary-node lists exactly the
/// owned/foreign contact nodes.
#[test]
fn cell_reassignment_preserves_partition_invariant() {
    cases(0..24, |rng| {
        let net = grid(5, 5, rng.random_range(0..13));
        let shards = rng.random_range(2..6);
        let mut p = rnn_monitor::roadnet::NetworkPartition::build(&net, shards);
        assert!(p.validate(&net).is_ok());
        for _ in 0..rng.random_range(1..6usize) {
            let (from, to) = (
                rng.random_range(0..shards as u32),
                rng.random_range(0..shards as u32),
            );
            if from == to {
                continue;
            }
            let cells = p.boundary_cells_between(&net, from, to);
            if cells.is_empty() {
                continue;
            }
            let take = rng.random_range(1..=cells.len());
            let moves: Vec<(EdgeId, u32)> = cells[..take].iter().map(|&e| (e, to)).collect();
            p.reassign(&net, &moves);
            for &(e, s) in &moves {
                assert_eq!(p.shard_of_edge(e), s, "moved cell not re-owned");
            }
            if let Err(msg) = p.validate(&net) {
                panic!("partition invariant broken: {msg}");
            }
            // The views stay an exact partition of the edge set.
            let total: usize = p.views().iter().map(|v| v.edges.len()).sum();
            assert_eq!(total, net.num_edges());
        }
    });
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

/// Arena-of-trees model check: random surgery programs (adjacency-driven
/// inserts, subtree cuts, θ-prunes, re-roots, clones, clears,
/// release/recreate cycles) over several trees sharing one pool agree
/// exactly with the naive hash-map-of-Vec reference, preserve the
/// structural invariants, and leak no pool slots across directory epochs.
#[test]
fn tree_pool_matches_hashmap_reference() {
    use rnn_monitor::core::tree::{ExpansionTree, TreePool};
    use tree_pool_model::RefTree;

    cases(0..24, |rng| {
        let net = grid(5, 5, rng.random_range(0..17));
        let weights = EdgeWeights::from_base(&net);

        const TREES: usize = 3;
        let mut pool = TreePool::new();
        let mut trees: Vec<ExpansionTree> = (0..TREES).map(|_| pool.new_tree()).collect();
        let mut refs: Vec<RefTree> = vec![RefTree::default(); TREES];

        for _ in 0..rng.random_range(20..80usize) {
            let ti = rng.random_range(0..TREES);
            // A random member of the reference tree.
            let pick_member = |r: &RefTree, rng: &mut StdRng| -> Option<u32> {
                if r.nodes.is_empty() {
                    return None;
                }
                let mut keys: Vec<u32> = r.nodes.keys().copied().collect();
                keys.sort_unstable();
                Some(keys[rng.random_range(0..keys.len())])
            };
            match rng.random_range(0..8usize) {
                // Insert: seed a root, or grow from a random member along a
                // real adjacent edge (keeps distances weight-consistent).
                0..=2 => match pick_member(&refs[ti], rng) {
                    None => {
                        let n = NodeId(rng.random_range(0..net.num_nodes() as u32));
                        pool.insert(&mut trees[ti], n, 0.0, None);
                        refs[ti].insert(n.0, 0.0, None);
                    }
                    Some(p) => {
                        let adj = net.adjacent(NodeId(p));
                        if !adj.is_empty() {
                            let (e, m) = adj[rng.random_range(0..adj.len())];
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
                    let n = rng.random_range(0..net.num_nodes() as u32);
                    let a = pool.remove_subtree(&mut trees[ti], NodeId(n));
                    let b = refs[ti].remove_subtree(n);
                    assert_eq!(a, b, "remove_subtree count diverged");
                }
                4 => {
                    let max = refs[ti]
                        .nodes
                        .values()
                        .map(|t| t.dist)
                        .fold(0.0f64, f64::max);
                    let theta = max * f64::from(rng.random_range(0..100u32)) / 100.0;
                    let a = pool.retain_within(&mut trees[ti], theta);
                    let b = refs[ti].retain_within(theta);
                    assert_eq!(a, b, "retain_within count diverged");
                }
                5 => {
                    // Re-root at a random member, shifting by its own old
                    // distance (the move-onto-a-verified-node case).
                    if let Some(s) = pick_member(&refs[ti], rng) {
                        let shift = refs[ti].nodes[&s].dist;
                        let a = pool.reroot_at_subtree(&mut trees[ti], NodeId(s), shift);
                        let b = refs[ti].reroot_at_subtree(s, shift);
                        assert_eq!(a, b, "reroot count diverged");
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
                assert_eq!(t.len(), r.nodes.len(), "length diverged");
                owned += t.len();
                for (&n, rec) in &r.nodes {
                    let d = t.dist(&pool, NodeId(n));
                    assert_eq!(d, Some(rec.dist), "distance diverged at {}", n);
                    let parent = t.parent_of(&pool, NodeId(n)).expect("member has a link");
                    assert_eq!(
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
                    assert_eq!(got, want, "children diverged at {}", n);
                }
                assert_eq!(t.iter(&pool).count(), t.len(), "iteration diverged");
                pool.check_invariants(t, &net, &weights);
            }
            // Free-list integrity: every live slab slot is owned by exactly
            // one of the live trees.
            assert_eq!(
                pool.live_nodes(),
                owned,
                "pool leaked or double-freed slots"
            );
        }

        // Releasing everything must return the pool to empty — no slot
        // survives its tree across epochs.
        for t in trees {
            pool.release(t);
        }
        assert_eq!(pool.live_nodes(), 0, "slots leaked across release");
    });
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

fn random_point(rng: &mut StdRng) -> NetPoint {
    NetPoint::new(
        EdgeId(rng.random::<u16>().into()),
        rng.random_range(0.0..1.0),
    )
}

fn random_object_event(rng: &mut StdRng) -> ObjectEvent {
    let id = ObjectId(rng.random());
    match rng.random_range(0..3usize) {
        0 => ObjectEvent::Move {
            id,
            to: random_point(rng),
        },
        1 => ObjectEvent::Insert {
            id,
            at: random_point(rng),
        },
        _ => ObjectEvent::Delete { id },
    }
}

fn random_query_event(rng: &mut StdRng) -> QueryEvent {
    let id = QueryId(rng.random());
    match rng.random_range(0..3usize) {
        0 => QueryEvent::Move {
            id,
            to: random_point(rng),
        },
        1 => QueryEvent::Install {
            id,
            k: rng.random_range(1..32),
            at: random_point(rng),
        },
        _ => QueryEvent::Remove { id },
    }
}

fn random_snapshot(rng: &mut StdRng) -> QuerySnapshot {
    QuerySnapshot {
        id: QueryId(rng.random()),
        knn_dist: if rng.random() {
            rng.random_range(0.0..1e9)
        } else {
            f64::INFINITY
        },
        result: (0..rng.random_range(0..6usize))
            .map(|_| Neighbor {
                object: ObjectId(rng.random()),
                dist: rng.random_range(0.0..1e9),
            })
            .collect(),
    }
}

/// A tick outcome whose every counter field is a full 64-bit draw.
fn random_tick_outcome(rng: &mut StdRng) -> TickOutcome {
    let report = TickReport {
        counters: OpCounters::from_fn(|_| rng.random()),
        elapsed: std::time::Duration::new(
            rng.random_range(0..1_000_000),
            rng.random_range(0..1_000_000_000),
        ),
        results_changed: rng.random::<u64>() as usize,
    };
    TickOutcome {
        report,
        snapshots: (0..rng.random_range(0..5usize))
            .map(|_| random_snapshot(rng))
            .collect(),
        active_groups: rng.random::<bool>().then(|| rng.random_range(0..10_000)),
    }
}

fn random_delta_batch(rng: &mut StdRng) -> DeltaBatch {
    DeltaBatch {
        objects: (0..rng.random_range(0..6usize))
            .map(|_| random_object_event(rng))
            .collect(),
        queries: (0..rng.random_range(0..6usize))
            .map(|_| random_query_event(rng))
            .collect(),
        shared_edges: Arc::new(
            (0..rng.random_range(0..6usize))
                .map(|_| EdgeWeightUpdate {
                    edge: EdgeId(rng.random::<u16>().into()),
                    new_weight: rng.random_range(0.01..100.0),
                })
                .collect(),
        ),
        kind: [BatchKind::Tick, BatchKind::Resync, BatchKind::Migration]
            [rng.random_range(0..3usize)],
    }
}

/// `len` random bytes, `len` drawn from `lens`.
fn random_bytes(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..rng.random_range(lens)).map(|_| rng.random()).collect()
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

/// The frame envelope round-trips any tag/seq/payload bit-exactly.
#[test]
fn frame_envelope_round_trips() {
    cases(0..64, |rng| {
        let f = Frame {
            tag: ALL_TAGS[rng.random_range(0..ALL_TAGS.len())],
            seq: rng.random(),
            epoch: rng.random(),
            payload: random_bytes(rng, 0..200),
        };
        let bytes = f.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);
    });
}

/// Every request message type round-trips through its typed frame: delta
/// batches (tick / resync / migration) survive bit-exactly.
#[test]
fn delta_batches_round_trip_through_frames() {
    cases(0..64, |rng| {
        let batch = random_delta_batch(rng);
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        let tag = match batch.kind {
            BatchKind::Tick => MsgTag::TickEvents,
            BatchKind::Resync => MsgTag::ResyncEvents,
            BatchKind::Migration => MsgTag::MigrationEvents,
        };
        let bytes = Frame {
            tag,
            seq: rng.random(),
            epoch: 0,
            payload,
        }
        .to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(back.tag, tag);
        let decoded = DeltaBatch::decode(&mut WireReader::new(&back.payload)).unwrap();
        assert_eq!(decoded.objects, batch.objects);
        assert_eq!(decoded.queries, batch.queries);
        assert_eq!(decoded.shared_edges, batch.shared_edges);
    });
}

/// Every reply message type round-trips: tick outcomes (reports, snapshot
/// deltas incl. ∞ distances, cell charges) and memory breakdowns.
#[test]
fn replies_round_trip_through_frames() {
    cases(0..64, |rng| {
        let outcome = random_tick_outcome(rng);
        let seq = rng.random();
        let mut payload = Vec::new();
        outcome.encode(&mut payload);
        let bytes = Frame {
            tag: MsgTag::TickReply,
            seq,
            epoch: 0,
            payload,
        }
        .to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        let decoded = TickOutcome::decode(&mut WireReader::new(&back.payload)).unwrap();
        // Work counters, snapshots and charges must survive bit-exactly;
        // wall-clock rides along and must too (it is plain u64/u32 data).
        assert_eq!(decoded, outcome);

        let mut next = || (rng.random::<u64>() >> 13) as usize;
        let mem = MemoryUsage {
            edge_table: next(),
            query_table: next(),
            expansion_trees: next(),
            influence_lists: next(),
            auxiliary: next(),
        };
        let mut payload = Vec::new();
        mem.encode(&mut payload);
        let bytes = Frame {
            tag: MsgTag::MemoryReply,
            seq,
            epoch: 0,
            payload,
        }
        .to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(
            MemoryUsage::decode(&mut WireReader::new(&back.payload)).unwrap(),
            mem
        );
    });
}

/// Truncating a frame anywhere yields a decode error — never a panic,
/// never a bogus success.
#[test]
fn truncated_frames_error_not_panic() {
    cases(0..64, |rng| {
        let mut payload = Vec::new();
        random_delta_batch(rng).encode(&mut payload);
        let bytes = Frame {
            tag: MsgTag::TickEvents,
            seq: 3,
            epoch: 7,
            payload,
        }
        .to_bytes();
        let cut = rng.random_range(0..bytes.len());
        assert!(Frame::from_bytes(&bytes[..cut]).is_err());
    });
}

/// Flipping any single bit past the length prefix is caught (checksum or
/// framing), so a corrupted frame can never be applied.
#[test]
fn corrupted_frames_are_rejected() {
    cases(0..64, |rng| {
        let mut payload = Vec::new();
        random_delta_batch(rng).encode(&mut payload);
        let mut bytes = Frame {
            tag: MsgTag::MigrationEvents,
            seq: 9,
            epoch: 2,
            payload,
        }
        .to_bytes();
        let idx = rng.random_range(4..bytes.len());
        bytes[idx] ^= 1 << rng.random_range(0..8u8);
        assert!(Frame::from_bytes(&bytes).is_err());
    });
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

/// Lexing arbitrary bytes (lossily decoded) terminates without panicking,
/// and every reported line number is within the input.
#[test]
fn lexer_total_on_arbitrary_bytes() {
    cases(0..48, |rng| {
        let src = String::from_utf8_lossy(&random_bytes(rng, 0..512)).into_owned();
        let lines = src.lines().count().max(1) as u32;
        let out = rnn_analysis::lexer::lex(&src);
        for t in &out.tokens {
            assert!(t.line >= 1 && t.line <= lines);
        }
        for a in &out.allows {
            assert!(!a.rule.is_empty());
            assert!(a.line >= 1 && a.line <= lines);
        }
    });
}

/// Token lines are nondecreasing: the stream preserves source order.
#[test]
fn lexer_lines_are_monotone() {
    cases(0..48, |rng| {
        let src = String::from_utf8_lossy(&random_bytes(rng, 0..512)).into_owned();
        let toks = rnn_analysis::lexer::lex(&src).tokens;
        for w in toks.windows(2) {
            assert!(w[0].line <= w[1].line);
        }
    });
}

/// Quote-heavy input — the worst case for string/char/lifetime
/// disambiguation — still terminates and stays in bounds.
#[test]
fn lexer_survives_quote_soup() {
    const PIECES: [&str; 12] = [
        "\"",
        "'",
        "r#\"",
        "\"#",
        "//",
        "/*",
        "*/",
        "\\",
        "\n",
        "lint: allow(",
        "b'",
        "r##",
    ];
    cases(0..48, |rng| {
        let src: String = (0..rng.random_range(0..200usize))
            .map(|_| PIECES[rng.random_range(0..PIECES.len())])
            .collect();
        let out = rnn_analysis::lexer::lex(&src);
        let lines = src.lines().count().max(1) as u32;
        for t in &out.tokens {
            assert!(t.line >= 1 && t.line <= lines);
        }
    });
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

/// capture → encode → decode → restore yields a monitor with bit-identical
/// answers, for each algorithm on random populated networks.
#[test]
fn snapshot_round_trip_is_answer_equivalent() {
    cases(0..16, |rng| {
        let seed = rng.random_range(0..120);
        let net = grid(5, 5, seed);
        let (mut orig, mut fresh): (Box<dyn ContinuousMonitor>, Box<dyn ContinuousMonitor>) =
            match rng.random_range(0..3u8) {
                0 => (
                    Box::new(Gma::new(net.clone())),
                    Box::new(Gma::new(net.clone())),
                ),
                1 => (
                    Box::new(Ima::new(net.clone())),
                    Box::new(Ima::new(net.clone())),
                ),
                _ => (
                    Box::new(Ovh::new(net.clone())),
                    Box::new(Ovh::new(net.clone())),
                ),
            };
        populate_for_snapshot(orig.as_mut(), &net, seed);
        let snap = orig
            .snapshot_state()
            .expect("all three algorithms snapshot");
        let bytes = snap.to_bytes();
        let decoded = MonitorState::from_bytes(&bytes);
        assert_eq!(
            decoded.as_ref().ok(),
            Some(&snap),
            "decode must invert encode"
        );
        assert!(decoded.unwrap().restore_into(fresh.as_mut()).is_ok());
        assert_eq!(compare(orig.as_ref(), fresh.as_ref(), None), Ok(()));
    });
}

/// The snapshot decoder is total: truncating a valid encoding at any
/// proportional cut is rejected as an error, never a panic.
#[test]
fn snapshot_decode_rejects_truncation() {
    cases(0..16, |rng| {
        let seed = rng.random_range(0..60);
        let net = grid(5, 5, seed);
        let mut m = Gma::new(net.clone());
        populate_for_snapshot(&mut m, &net, seed);
        let bytes = m.snapshot_state().expect("gma snapshots").to_bytes();
        let at = ((bytes.len() as f64) * rng.random_range(0.0..1.0)) as usize;
        if at < bytes.len() {
            assert!(MonitorState::from_bytes(&bytes[..at]).is_err());
        }
    });
}

/// A WAL image of 1–7 records with payloads of 0–39 bytes, and the byte
/// offset each record starts at, the image's length last.
fn random_wal_image(rng: &mut StdRng, epoch: u32) -> (Vec<u8>, Vec<usize>) {
    let (mut image, mut bounds) = (Vec::new(), vec![0]);
    for seq in 0..rng.random_range(1..8) {
        let payload = random_bytes(rng, 0..40);
        image.extend_from_slice(
            &Frame {
                tag: MsgTag::TickEvents,
                seq,
                epoch,
                payload,
            }
            .to_bytes(),
        );
        bounds.push(image.len());
    }
    (image, bounds)
}

/// Cutting a WAL image at an arbitrary byte offset never panics and
/// recovers exactly the records that fit before the cut.
#[test]
fn wal_scan_recovers_untorn_prefix() {
    cases(0..16, |rng| {
        let (image, bounds) = random_wal_image(rng, 0);
        let at = ((image.len() as f64) * rng.random_range(0.0..1.0)) as usize;
        let (records, valid) = cluster_wal::scan(&image[..at]);
        // The valid prefix is exactly the full records that fit in the cut.
        let want = bounds[1..].iter().take_while(|&&e| e <= at).count();
        assert_eq!(records.len(), want, "cut at {at} of {}", image.len());
        assert_eq!(valid, bounds[want]);
        for (i, (seq, bytes)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u32);
            assert_eq!(bytes.as_slice(), &image[bounds[i]..bounds[i + 1]]);
        }
    });
}

/// Flipping any single bit *inside* a record (past its length prefix)
/// makes the scan stop exactly there: every record before the flipped one
/// is recovered verbatim, nothing at or after it survives, and the valid
/// prefix ends at the previous record's boundary — a torn middle behaves
/// like a torn tail, never a silent partial apply.
#[test]
fn wal_scan_stops_at_a_mid_record_bit_flip() {
    cases(0..16, |rng| {
        let (mut image, bounds) = random_wal_image(rng, 1);
        let victim = rng.random_range(0..bounds.len() - 1);
        // Flip past the 4-byte length prefix so framing is intact and the
        // checksum is what must catch it.
        let idx = rng.random_range(bounds[victim] + 4..bounds[victim + 1]);
        image[idx] ^= 1 << rng.random_range(0..8u8);
        let (records, valid) = cluster_wal::scan(&image);
        assert_eq!(records.len(), victim);
        assert_eq!(valid, bounds[victim]);
        for (i, (seq, bytes)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u32);
            assert_eq!(bytes.as_slice(), &image[bounds[i]..bounds[i + 1]]);
        }
    });
}

/// Truncating exactly *at* a record boundary is lossless up to the cut:
/// every record before the boundary is recovered and the valid prefix is
/// the boundary itself (no record is half-counted).
#[test]
fn wal_scan_is_exact_at_record_boundaries() {
    cases(0..16, |rng| {
        let (image, bounds) = random_wal_image(rng, 1);
        let cut_idx = rng.random_range(0..bounds.len());
        let cut = bounds[cut_idx];
        let (records, valid) = cluster_wal::scan(&image[..cut]);
        assert_eq!(
            records.len(),
            cut_idx,
            "exactly the records before the boundary"
        );
        assert_eq!(valid, cut, "a boundary cut leaves no torn tail");
    });
}

/// Scanning arbitrary garbage is total and returns a consistent
/// (records, valid-prefix) pair.
#[test]
fn wal_scan_total_on_arbitrary_bytes() {
    cases(0..16, |rng| {
        let bytes = random_bytes(rng, 0..256);
        let (records, valid) = cluster_wal::scan(&bytes);
        assert!(valid <= bytes.len());
        let (again, valid2) = cluster_wal::scan(&bytes[..valid]);
        assert_eq!(valid2, valid, "valid prefix must be a fixpoint");
        assert_eq!(again.len(), records.len());
    });
}
