//! Tick-path flatness tests: shared-anchor expansion correctness and the
//! steady-state zero-allocation guarantee of the arena/heap layout. Two
//! monitors fed in different installation orders are compared with the
//! harness's comparator (`tests/common`).

mod common;

use std::sync::Arc;

use common::{cases, compare, grid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, OpCounters, UpdateBatch, UpdateEvent};
use rnn_monitor::core::{ObjectEvent, QueryEvent};
use rnn_monitor::roadnet::{
    generators, EdgeId, NetPoint, ObjectId, QueryId, RoadNetwork, RoadNetworkBuilder,
};
use rnn_monitor::workload::{HotspotConfig, Scenario, ScenarioConfig};

/// A point on one of `edges` edges, at a fraction in thousandths.
fn random_point(rng: &mut StdRng, edges: u32) -> NetPoint {
    let frac = f64::from(rng.random_range(0..1000u32)) / 1000.0;
    NetPoint::new(EdgeId(rng.random_range(0..edges)), frac)
}

/// Shared-anchor expansions must answer exactly like independent
/// per-query expansions: a monitor holding several co-located queries
/// (the configuration that triggers the root-grouped multi-k expansion)
/// agrees with one monitor per query, on random networks and random
/// workloads.
#[test]
fn shared_anchor_expansion_matches_independent_queries() {
    cases(0..12, |rng| {
        let net = grid(5, 5, rng.random_range(0..7));
        let n_queries = rng.random_range(2..5usize);
        let n_objects = rng.random_range(6..30usize);
        let edges = net.num_edges() as u32;

        // One IMA with all queries co-located (shared expansions fire) and
        // one independent single-query IMA per query. GMA rides along: its
        // sharing (active-node expansions serving many queries) must agree
        // with both.
        let mut shared_ima = Ima::new(net.clone());
        let mut shared_gma = Gma::new(net.clone());
        let mut solo: Vec<Ima> = (0..n_queries).map(|_| Ima::new(net.clone())).collect();

        for i in 0..n_objects {
            let at = random_point(rng, edges);
            let id = ObjectId(i as u32);
            shared_ima.apply(UpdateEvent::insert_object(id, at));
            shared_gma.apply(UpdateEvent::insert_object(id, at));
            for m in &mut solo {
                m.apply(UpdateEvent::insert_object(id, at));
            }
        }
        let q0 = random_point(rng, edges);
        for (i, m) in solo.iter_mut().enumerate() {
            let k = 1 + i % 3;
            shared_ima.apply(UpdateEvent::install_query(QueryId(i as u32), k, q0));
            shared_gma.apply(UpdateEvent::install_query(QueryId(i as u32), k, q0));
            m.apply(UpdateEvent::install_query(QueryId(i as u32), k, q0));
        }

        let mut shared_seen = 0u64;
        for tick in 0..6 {
            // Random object churn, plus a joint move of every query to one
            // fresh position (same root ⇒ one multi-k expansion serves all).
            let mut batch = UpdateBatch::default();
            for i in 0..n_objects {
                if rng.random_range(0..3u32) == 0 {
                    batch.objects.push(ObjectEvent::Move {
                        id: ObjectId(i as u32),
                        to: random_point(rng, edges),
                    });
                }
            }
            if tick % 2 == 0 {
                let to = random_point(rng, edges);
                for i in 0..n_queries {
                    batch.queries.push(QueryEvent::Move {
                        id: QueryId(i as u32),
                        to,
                    });
                }
            }
            let rep = shared_ima.tick(&batch);
            shared_seen += rep.counters.shared_expansions;
            shared_gma.tick(&batch);
            for m in solo.iter_mut() {
                m.tick(&batch);
            }
            for (i, m) in solo.iter().enumerate() {
                let id = QueryId(i as u32);
                assert_eq!(
                    shared_ima.result(id).unwrap(),
                    m.result(id).unwrap(),
                    "shared IMA diverged for {id:?} at tick {tick}"
                );
                assert_eq!(
                    shared_gma.result(id).unwrap(),
                    m.result(id).unwrap(),
                    "shared GMA diverged for {id:?} at tick {tick}"
                );
            }
            shared_ima.validate_invariants();
        }
        // Co-located queries moving together must actually exercise the
        // shared multi-k path at least once.
        assert!(
            shared_seen > 0,
            "root-grouped expansion never fired for co-located queries"
        );
    });
}

/// The steady-state zero-allocation guarantee: once the workload's
/// high-water marks are reached, ticks report zero alloc events on the
/// instrumented structures (per-edge arenas + Dijkstra heap + tree pool).
/// The workload includes edge-weight churn, so every measured tick
/// performs tree *surgery* — subtree cuts, θ-prunes and re-expansion
/// inserts — and the guarantee covers it: surgery runs entirely through
/// the pool's free list (`tree_nodes_recycled > 0`) without allocating.
/// The scenario is seeded, so this is deterministic.
#[test]
fn steady_state_ticks_are_allocation_free() {
    let net = Arc::new(generators::san_francisco_like(300, 17));
    let cfg = ScenarioConfig {
        num_objects: 400,
        num_queries: 40,
        k: 4,
        object_agility: 0.1,
        query_agility: 0.05,
        edge_agility: 0.08,
        seed: 9,
        ..Default::default()
    };
    let mut scenario = Scenario::new(net.clone(), cfg);
    let mut ima = Ima::new(net.clone());
    let mut gma = Gma::new(net.clone());
    scenario.install_into(&mut ima);
    scenario.install_into(&mut gma);

    // Warm up until the arenas, heaps and the tree pool have seen their
    // high-water marks (the pool's spare-directory population adapts to
    // the tick's concurrent-expansion demand during the first ticks).
    for _ in 0..16 {
        let batch = scenario.tick();
        ima.tick(&batch);
        gma.tick(&batch);
    }
    let mut steady = OpCounters::default();
    for _ in 0..6 {
        let batch = scenario.tick();
        steady.merge(&ima.tick(&batch).counters);
        steady.merge(&gma.tick(&batch).counters);
    }
    assert_eq!(
        steady.alloc_events, 0,
        "steady-state ticks allocated on the arena/heap/tree-pool tick path"
    );
    assert!(
        steady.expansion_steps > 0,
        "the expansion-step counter must see heap traffic"
    );
    assert!(
        steady.shared_expansions > 0,
        "GMA's endpoint expansions must serve multiple queries"
    );
    assert!(
        steady.tree_nodes_pruned > 0,
        "edge churn must force tree surgery in the measured window"
    );
    assert!(
        steady.tree_nodes_recycled > 0,
        "tree surgery must recycle pooled slots, not grow the slab"
    );
    ima.validate_invariants();
}

/// Memory tracks the live state, not its history: under a hotspot that
/// orbits the network, with half the queries jumping to it every tick, the
/// per-edge lists and expansion trees the hotspot leaves behind are given
/// back (spans drain into smaller classes, directories are recycled
/// smallest-fit first), so what a monitor holds after ~200 ticks — five
/// orbits — stays near what it held after a 20-tick warm-up while the
/// population stays the same.
#[test]
fn drifting_hotspot_memory_tracks_the_live_state() {
    let net = Arc::new(generators::san_francisco_like(600, 5));
    let cfg = ScenarioConfig {
        num_objects: 3_000,
        num_queries: 150,
        k: 8,
        object_agility: 0.05,
        query_agility: 0.5,
        edge_agility: 0.08,
        hotspot: Some(HotspotConfig::default()),
        seed: 29,
        ..Default::default()
    };
    type Make = fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>;
    let makers: [Make; 2] = [|net| Box::new(Gma::new(net)), |net| Box::new(Ima::new(net))];
    for make in makers {
        let mut monitor = make(net.clone());
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(monitor.as_mut());
        let held = |m: &dyn ContinuousMonitor| {
            let m = m.memory();
            m.influence_lists + m.expansion_trees + m.edge_table
        };
        for _ in 0..20 {
            monitor.tick(&scenario.tick());
        }
        let warm = held(monitor.as_ref());
        for _ in 0..180 {
            monitor.tick(&scenario.tick());
        }
        let end = held(monitor.as_ref());
        assert!(
            2 * end <= 3 * warm,
            "{}: {end} B held after 200 ticks against {warm} B after 20",
            monitor.name()
        );
    }
}

/// GMA's evaluation at mid scale, alone: with the merge's buffers, the
/// tick's query lists and the active-node tick's scratch all charging their
/// growth to `alloc_events`, a warmed-up run still reports none — the
/// whole evaluation path runs in reused capacity, not just the arenas.
#[test]
fn gma_evaluation_scratch_is_allocation_free_at_mid_scale() {
    let net = Arc::new(generators::san_francisco_like(1_000, 23));
    let cfg = ScenarioConfig {
        num_objects: 10_000,
        num_queries: 500,
        k: 10,
        object_agility: 0.1,
        query_agility: 0.1,
        edge_agility: 0.04,
        seed: 31,
        ..Default::default()
    };
    let mut scenario = Scenario::new(net.clone(), cfg);
    let mut gma = Gma::new(net.clone());
    scenario.install_into(&mut gma);
    for _ in 0..30 {
        gma.tick(&scenario.tick());
    }
    let mut steady = OpCounters::default();
    for _ in 0..10 {
        steady.merge(&gma.tick(&scenario.tick()).counters);
    }
    assert_eq!(
        steady.alloc_events, 0,
        "a warmed-up GMA tick grew a buffer it should be reusing"
    );
    assert!(
        steady.reevaluations > 1_000,
        "the window must re-evaluate queries ({} did)",
        steady.reevaluations
    );
    assert!(steady.shared_expansions > 0 && steady.expansion_steps > 0);
}

/// The walk's cut-off is the k-th in-sequence candidate found so far, not
/// anything the endpoints could promise: a query with k objects right next
/// to it on its own edge, in the middle of a long, dense sequence between
/// two intersections, scans that one edge and no other. (Bounded by the
/// endpoints alone — far end of the sequence plus the intersection's k-th
/// NN — the walk would cross all six edges to either side.)
#[test]
fn dense_own_edge_ends_the_sequence_walk() {
    // Two hubs of degree 3 joined by a 13-edge path; three objects on every
    // edge, and four more hugging the query on the middle edge.
    let mut b = RoadNetworkBuilder::new();
    let path: Vec<_> = (0..14).map(|i| b.add_node(f64::from(i), 0.0)).collect();
    for (hub, x) in [(path[0], -1.0), (path[13], 14.0)] {
        for y in [-1.0, 1.0] {
            let leaf = b.add_node(x, y);
            b.add_edge_euclidean(hub, leaf);
        }
    }
    let middle = b.add_edge_euclidean(path[6], path[7]);
    for i in (0..13).filter(|&i| i != 6) {
        b.add_edge_euclidean(path[i], path[i + 1]);
    }
    let net = Arc::new(b.build().unwrap());
    let mut gma = Gma::new(net.clone());
    let mut next_id = 0;
    let mut place = |gma: &mut Gma, at: NetPoint| {
        gma.apply(UpdateEvent::insert_object(ObjectId(next_id), at));
        next_id += 1;
    };
    for e in net.edge_ids() {
        for frac in [0.1, 0.5, 0.9] {
            place(&mut gma, NetPoint::new(e, frac));
        }
    }
    for frac in [0.42, 0.46, 0.54, 0.58] {
        place(&mut gma, NetPoint::new(middle, frac));
    }
    let k = 4;
    gma.apply(UpdateEvent::install_query(
        QueryId(0),
        k,
        NetPoint::new(middle, 0.5),
    ));
    assert_eq!(gma.active_node_count(), 2, "both hubs are monitored");

    // A nudge along its edge re-evaluates the query and nothing else: no
    // object moved, so the active nodes have no work of their own.
    let rep = gma.tick(&UpdateBatch {
        queries: vec![QueryEvent::Move {
            id: QueryId(0),
            to: NetPoint::new(middle, 0.51),
        }],
        ..Default::default()
    });
    assert_eq!(rep.counters.reevaluations, 1);
    assert_eq!(
        rep.counters.edges_scanned, 1,
        "k nearer objects on the query's own edge: the walk must not leave it"
    );
    assert_eq!(
        rep.counters.objects_considered, 7,
        "the middle edge's seven objects and no endpoint candidate"
    );
    let result = gma.result(QueryId(0)).unwrap();
    assert_eq!(result.len(), k);
    assert!(result.iter().all(|n| n.dist < 0.1), "{result:?}");
}

/// Installation order is not an input: a monitor's anchors are keyed by
/// their owners' ids and resolved in id order, so two monitors given the
/// same population and the same stream do the same work and report the
/// same answers tick for tick, whichever order their queries were
/// installed in — one query per timestamp, ascending in one monitor and
/// shuffled in the other, so that IMA's queries and GMA's active nodes
/// both come into being in different orders. Three queries leave mid-run
/// and come back later, re-installed in opposite orders.
#[test]
fn installation_order_is_not_an_input() {
    let net = Arc::new(generators::san_francisco_like(300, 17));
    let cfg = ScenarioConfig {
        num_objects: 400,
        num_queries: 40,
        k: 4,
        object_agility: 0.10,
        query_agility: 0.10,
        edge_agility: 0.04,
        seed: 9,
        ..Default::default()
    };
    type Make = fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>;
    let makers: [Make; 2] = [|net| Box::new(Ima::new(net)), |net| Box::new(Gma::new(net))];
    for make in makers {
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        let mut pair = [make(net.clone()), make(net.clone())];
        let mut load = UpdateBatch::default();
        for (id, at) in scenario.initial_objects() {
            load.push(UpdateEvent::insert_object(id, at));
        }
        let ascending: Vec<_> = scenario.initial_queries().collect();
        let mut shuffled = ascending.clone();
        let mut rng = StdRng::seed_from_u64(7);
        shuffled.shuffle(&mut rng);
        assert_ne!(ascending, shuffled);
        for (monitor, order) in pair.iter_mut().zip([&ascending, &shuffled]) {
            monitor.tick(&load);
            for &(id, k, at) in order {
                monitor.apply(UpdateEvent::install_query(id, k, at));
            }
        }

        let name = pair[0].name();
        let edges = net.num_edges() as u32;
        let leavers = [ascending[3].0, ascending[17].0, ascending[31].0];
        let mut present: Vec<QueryId> = ascending.iter().map(|q| q.0).collect();
        let mut expansions = 0;
        for t in 0..40 {
            let batch = scenario.tick();
            let mut batches = [batch.clone(), batch];
            match t {
                12 => {
                    for b in &mut batches {
                        let gone = leavers.iter().map(|&id| QueryEvent::Remove { id });
                        b.queries.extend(gone);
                    }
                    present.retain(|id| !leavers.contains(id));
                }
                20 => {
                    let back: Vec<_> = leavers
                        .iter()
                        .map(|&id| QueryEvent::Install {
                            id,
                            k: cfg.k,
                            at: random_point(&mut rng, edges),
                        })
                        .collect();
                    batches[0].queries.extend(back.iter().copied());
                    batches[1].queries.extend(back.iter().rev().copied());
                    present.extend(leavers);
                    present.sort_unstable();
                }
                _ => {}
            }
            let [a, b] = &mut pair;
            let (ra, rb) = (a.tick(&batches[0]), b.tick(&batches[1]));
            let at = format!("{name}, tick {t}");
            let calls = Some((&ra, &rb));
            assert_eq!(compare(a.as_ref(), b.as_ref(), calls), Ok(()), "{at}");
            let work = |c: &OpCounters| (c.expansion_steps, c.reevaluations);
            assert_eq!(work(&ra.counters), work(&rb.counters), "{at}");
            expansions += ra.counters.reevaluations;
            let mut ids = a.query_ids();
            ids.sort_unstable();
            assert_eq!(ids, present, "{at}");
        }
        assert!(expansions > 100, "{name}: the stream must keep it busy");
    }
}
