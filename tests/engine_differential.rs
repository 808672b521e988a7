//! Differential correctness of the sharded engine: at every timestamp of a
//! seeded scenario, `ShardedEngine` with S ∈ {1, 2, 4} shards must report
//! exactly what a single-threaded monitor fed the same update stream
//! reports, and hold its replication invariants (`validate_replication`)
//! after every call.
//!
//! The rows run on the harness in `tests/common` (its module docs say how
//! to add one): answers compare whole, with `==`, ids included, together
//! with `kNN_dist` bits, `results_changed` and the change list. Every
//! monitor keeps the k smallest `(dist, id)`, so a shard and the single
//! monitor keep the same objects at a tie, and distances are exact,
//! whatever the summation order.
//!
//! The first fourteen rows are the entries of `common::Sharded`, the
//! scenario table this suite shares with `cluster_differential.rs`. Then
//! come hand-written programs (a query tied across a border at
//! `kNN_dist` zero, duplicate installs, query lifecycle counts, heavy
//! churn with replica decay, the drifting hotspot under rebalancing) and
//! the bounded-exhaustive small world: every batch of up to three events
//! over one object and one query, at every entry point.

mod common;

use std::sync::Arc;

use common::{
    cases, drive, drive_observed, exact_grid, grid, Hotspot, Program, Sharded, Stack, TieProne,
};
use rnn_monitor::core::{load_population, ContinuousMonitor, QueryEvent, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{EngineConfig, ShardAlgo, ShardedEngine};
use rnn_monitor::roadnet::{generators, EdgeId, NetPoint, ObjectId, QueryId, RoadNetwork};

/// A table entry: the single monitor of `algo` against ENG-1, ENG-2 and
/// ENG-4 over it.
fn row(entry: Sharded, algo: ShardAlgo) {
    let (net, mut workload, ticks) = entry.build();
    drive(&mut workload, &mut Stack::engines(&net, algo), ticks).unwrap();
}

#[test]
fn engine_matches_gma_default_workload() {
    row(Sharded::Default, ShardAlgo::Gma);
}

#[test]
fn engine_matches_ima_default_workload() {
    row(Sharded::ImaDefault, ShardAlgo::Ima);
}

#[test]
fn engine_matches_gma_second_seed() {
    row(Sharded::SecondSeed, ShardAlgo::Gma);
}

#[test]
fn engine_k_equals_one() {
    row(Sharded::KOne, ShardAlgo::Gma);
}

#[test]
fn engine_large_k_forces_wide_halos() {
    row(Sharded::LargeK, ShardAlgo::Gma);
}

#[test]
fn engine_underfull_results() {
    // Fewer objects than k: kNN_dist = ∞ drives halos to full replication;
    // everything must still agree.
    row(Sharded::Underfull, ShardAlgo::Gma);
}

#[test]
fn engine_edge_heavy_workload() {
    // Weight churn stresses halo-membership refresh.
    row(Sharded::EdgeHeavy, ShardAlgo::Gma);
}

#[test]
fn engine_query_heavy_workload() {
    // Fast queries migrate across shard borders constantly.
    row(Sharded::QueryHeavy, ShardAlgo::Gma);
}

#[test]
fn engine_object_heavy_fast_workload() {
    // Fast objects churn the replica sets.
    row(Sharded::ObjectHeavy, ShardAlgo::Gma);
}

#[test]
fn engine_everything_agile_with_ima() {
    row(Sharded::Agile, ShardAlgo::Ima);
}

#[test]
fn engine_brinkhoff_movement() {
    row(Sharded::Brinkhoff, ShardAlgo::Gma);
}

#[test]
fn engine_san_francisco_like_slice() {
    row(Sharded::Slice, ShardAlgo::Gma);
}

#[test]
fn engine_query_churn_mid_run() {
    // Queries installed and removed through tick batches while running.
    row(Sharded::Churn, ShardAlgo::Gma);
}

#[test]
fn engine_empty_ticks_change_nothing() {
    row(Sharded::Quiet, ShardAlgo::Gma);
}

#[test]
fn engine_tie_prone_workload() {
    // Exact ties with the k-th distance at nearly every tick, across shard
    // borders too: a shard must keep the objects the single monitor
    // keeps, the smallest ids, whichever replica it met first.
    let net = exact_grid(8, 8, 16);
    cases(0..4, |rng| {
        for algo in [ShardAlgo::Gma, ShardAlgo::Ima] {
            let mut stacks = Stack::engines(&net, algo);
            assert_eq!(
                drive(&mut TieProne::new(&net, rng.clone(), 70), &mut stacks, 12),
                Ok(())
            );
        }
    });
}

#[test]
fn a_zero_knn_dist_still_sees_the_border() {
    // k objects at a query's very position make its `kNN_dist` zero, yet
    // an object at that spot on a foreign edge ties with them: a query on
    // a boundary node needs the foreign edges there, at halo radius zero,
    // to see the one with the smaller id.
    let net = grid(6, 6, 9);
    let cfg = EngineConfig {
        num_shards: 2,
        algo: ShardAlgo::Ima,
        ..EngineConfig::default()
    };
    let probe = ShardedEngine::new(net.clone(), cfg);
    let partition = probe.partition();
    let b = partition.view(0).boundary_nodes[0];
    let at_b = |e: EdgeId| NetPoint::new(e, if net.edge(e).start == b { 0.0 } else { 1.0 });
    let edge_of = |own: bool| {
        let found = net
            .adjacent(b)
            .iter()
            .find(|&&(e, _)| (partition.shard_of_edge(e) == 0) == own);
        found.unwrap().0
    };
    let (mine, theirs) = (at_b(edge_of(true)), at_b(edge_of(false)));
    let population = vec![
        UpdateEvent::insert_object(ObjectId(5), mine),
        UpdateEvent::insert_object(ObjectId(1), theirs),
        UpdateEvent::install_query(QueryId(0), 1, mine),
    ];
    let mut stacks = vec![Stack::gma(&net), Stack::eng(&net, cfg)];
    assert_eq!(
        drive(&mut Program::applying(population, []), &mut stacks, 1),
        Ok(())
    );
}

/// GMA and ENG-4.
fn gma_and_eng4(net: &Arc<RoadNetwork>) -> Vec<Stack> {
    vec![
        Stack::gma(net),
        Stack::eng(net, EngineConfig::with_shards(4)),
    ]
}

/// `n` objects, object `i` on edge `i * stride` (mod the edge count) at
/// 0.35, each inserted as a timestamp of its own.
fn objects(net: &RoadNetwork, n: u32, stride: u32) -> Vec<UpdateEvent> {
    let edges = net.num_edges() as u32;
    (0..n)
        .map(|i| {
            let at = NetPoint::new(EdgeId((i * stride) % edges), 0.35);
            UpdateEvent::insert_object(ObjectId(i), at)
        })
        .collect()
}

fn queries(events: Vec<QueryEvent>) -> UpdateBatch {
    UpdateBatch {
        queries: events,
        ..Default::default()
    }
}

#[test]
fn engine_duplicate_install_same_shard_then_move() {
    // The router re-installs a query on its current shard without sending a
    // Remove first, relying on the monitors' batch coalescing (state.rs:
    // last Install wins, a following Move keeps its k). Pin that contract:
    // duplicate Install on the same shard, then Move — within one batch and
    // across batches — must stay answer-identical to a single monitor.
    let net = grid(8, 8, 17);
    let mut stacks = gma_and_eng4(&net);
    let e0 = EdgeId(0);
    let partition = stacks[1].eng_ref().partition();
    let home = partition.shard_of_edge(e0);
    let same_shard = net
        .edge_ids()
        .find(|&e| e != e0 && partition.shard_of_edge(e) == home)
        .expect("shard owns more than one edge");
    let foreign = net
        .edge_ids()
        .find(|&e| partition.shard_of_edge(e) != home)
        .expect("4-way split has foreign edges");

    let q = QueryId(9);
    let mut population = objects(&net, 40, 7);
    population.push(UpdateEvent::install_query(q, 4, NetPoint::new(e0, 0.5)));
    let program = [
        // Tick 1: re-Install on the same shard (new k, new edge), then Move
        // within the same batch — the owning monitor sees [Install, Move]
        // with no Remove in between.
        queries(vec![
            QueryEvent::Install {
                id: q,
                k: 6,
                at: NetPoint::new(same_shard, 0.25),
            },
            QueryEvent::Move {
                id: q,
                to: NetPoint::new(same_shard, 0.75),
            },
        ]),
        // Tick 2: another same-shard duplicate Install, then a Move that
        // crosses the border (Remove+Install for the engine, plain events
        // for the reference).
        queries(vec![
            QueryEvent::Install {
                id: q,
                k: 3,
                at: NetPoint::new(e0, 0.1),
            },
            QueryEvent::Move {
                id: q,
                to: NetPoint::new(foreign, 0.5),
            },
        ]),
    ];
    let mut program = Program::applying(population, program);
    drive_observed(&mut program, &mut stacks, 5, |t, stacks| {
        let k = stacks[1].monitor().result(q).unwrap().len();
        match t {
            1 => assert_eq!(k, 6, "re-install must adopt the new k"),
            2 => assert_eq!(k, 3),
            _ => {}
        }
    })
    .unwrap();
}

#[test]
fn engine_counts_query_lifecycle_events_as_a_single_monitor_does() {
    // The three batches `results_changed` used to get wrong, each against
    // Gma: an identical re-Install of a live query (was 1, is 0), Remove
    // then Install of one id in one batch (was 1, is 0), and a plain
    // Remove of a query that has an answer (was 0, is 1).
    let net = grid(8, 8, 19);
    let q = QueryId(7);
    let home = NetPoint::new(EdgeId(3), 0.5);
    let mut population = objects(&net, 40, 11);
    population.push(UpdateEvent::install_query(q, 4, home));
    let install = QueryEvent::Install {
        id: q,
        k: 4,
        at: home,
    };
    let remove = QueryEvent::Remove { id: q };
    let cases: [(&str, Vec<QueryEvent>, usize); 3] = [
        ("identical re-Install", vec![install], 0),
        ("[Remove, Install]", vec![remove, install], 0),
        ("plain Remove", vec![remove], 1),
    ];
    let batches = cases.iter().map(|(_, events, _)| queries(events.clone()));
    let mut program = Program::applying(population, batches);
    let mut stacks = gma_and_eng4(&net);
    drive_observed(&mut program, &mut stacks, 3, |t, stacks| {
        let gma = &stacks[0];
        if t == 0 {
            assert_eq!(gma.monitor().changed_queries(), [q]);
        } else {
            let (what, _, want) = &cases[t - 1];
            assert_eq!(gma.last.results_changed, *want, "{what}");
        }
    })
    .unwrap();
    assert!(stacks[1].monitor().query_ids().is_empty());
}

#[test]
fn engine_heavy_churn_replicas_decay_to_steady_state() {
    // Heavy query churn — install/remove/migrate every tick — against
    // S ∈ {2, 4, 8}. Answers must stay identical to single-monitor GMA
    // throughout, and once churn subsides the halo shrink must return
    // `replica_count()` exactly to its pre-churn steady-state level
    // (objects, base queries, and weights are static). The churn ends with
    // a burst of wide queries, so every halo ends it far outside the 1.5×
    // shrink band and decays to exactly the radius its base queries need.
    let net = grid(8, 8, 21);
    let n = net.num_edges() as u32;
    let at = |e: u32, frac| NetPoint::new(EdgeId(e % n), frac);
    let mut population = objects(&net, 70, 13);
    population
        .extend((0..6u32).map(|q| UpdateEvent::install_query(QueryId(q), 4, at(q * 29 + 3, 0.6))));

    // Three quiet ticks let the post-install halos settle into steady
    // state. Then churn: every tick installs a wide (k=7) query, migrates
    // the previous one, and removes the one before that.
    let mut program = vec![UpdateBatch::default(); 3];
    for t in 0..14u32 {
        let mut churn = vec![QueryEvent::Install {
            id: QueryId(100 + t),
            k: 7,
            at: at(t * 17 + 5, 0.25),
        }];
        if t >= 1 {
            churn.push(QueryEvent::Move {
                id: QueryId(100 + t - 1),
                to: at(t * 31 + 11, 0.75),
            });
        }
        if t >= 2 {
            churn.push(QueryEvent::Remove {
                id: QueryId(100 + t - 2),
            });
        }
        program.push(queries(churn));
    }
    // A last burst: sixteen wide (k=30) queries spread over the grid
    // stretch every shard's halo.
    program.push(queries(
        (0..16u32)
            .map(|i| QueryEvent::Install {
                id: QueryId(200 + i),
                k: 30,
                at: at(i * n / 16, 0.5),
            })
            .collect(),
    ));
    // Churn subsides: remove the burst and the stragglers, then quiet
    // ticks while the halos decay.
    program.push(queries(
        (200u32..216)
            .chain([112, 113])
            .map(|id| QueryEvent::Remove { id: QueryId(id) })
            .collect(),
    ));
    let ticks = program.len() + 4;

    let mut stacks = vec![Stack::gma(&net)];
    for s in [2, 4, 8] {
        stacks.push(Stack::eng(&net, EngineConfig::with_shards(s)));
    }
    let (mut steady, mut evictions_before, mut peak) = (vec![], vec![], vec![0; 3]);
    let mut program = Program::applying(population, program);
    drive_observed(&mut program, &mut stacks, ticks, |t, stacks| {
        let engines = stacks[1..].iter().map(Stack::eng_ref);
        if t == 3 {
            steady = engines.clone().map(|e| e.replica_count()).collect();
            evictions_before = engines.map(|e| e.replica_evictions()).collect();
        } else if t > 3 {
            for (i, e) in engines.enumerate() {
                peak[i] = peak[i].max(e.replica_count());
            }
        }
    })
    .unwrap();

    for (i, e) in stacks[1..].iter().map(Stack::eng_ref).enumerate() {
        assert_eq!(
            e.replica_count(),
            steady[i],
            "S={}: replicas did not decay back to steady state (peak was {})",
            e.num_shards(),
            peak[i]
        );
        // Coverage floor: what shrink trigger 1.0 evicted before the burst
        // was added.
        let evicted = e.replica_evictions() - evictions_before[i];
        let floor = [32, 122, 244][i];
        assert!(
            evicted >= floor,
            "S={}: {evicted} evictions, below the {floor} this test is sized for",
            e.num_shards()
        );
    }
}

#[test]
fn engine_rebalances_under_hotspot_and_stays_identical() {
    // Forced migrations: the shipped rebalancer (trigger 1.25, cooldown 4)
    // under a fast-drifting query hotspot must migrate cells while every
    // tick's answers stay identical to a single-threaded GMA fed the same
    // stream. The 10×10 grid and the 64 ticks give the cooldown room for
    // as many migrations as an every-other-tick rebalancer made on 8×8.
    let net = grid(10, 10, 23);
    let mut stacks = vec![Stack::gma(&net)];
    for s in [2, 4] {
        stacks.push(Stack::eng(&net, EngineConfig::with_rebalancing(s)));
    }
    drive(&mut Hotspot::new(&net), &mut stacks, 64).unwrap();
    for e in stacks[1..].iter().map(Stack::eng_ref) {
        assert!(e.rebalance_events() > 0);
        // Coverage floor: what trigger 1.0 / cooldown 1 migrated on the old
        // 8×8, 24-tick workload.
        let floor = if e.num_shards() == 2 { 441 } else { 277 };
        assert!(
            e.cells_migrated() >= floor,
            "S={}: {} cells migrated, below the {floor} this test is sized for",
            e.num_shards(),
            e.cells_migrated()
        );
    }
}

// ---------------------------------------------------------------------
// One way to apply an event. ROADMAP direction 7 asks for
// "bounded-exhaustive small worlds" beside the random programs; this is
// its first instance: every batch of up to three events over one object
// and one query, into every monitor and the engine, as one tick and as
// one timestamp per event (`apply`).
// ---------------------------------------------------------------------

const THE_OBJECT: ObjectId = ObjectId(100);
const THE_QUERY: QueryId = QueryId(7);

fn at(edge: u32, sixty_fourths: u32) -> NetPoint {
    NetPoint::new(EdgeId(edge), f64::from(sixty_fourths) / 64.0)
}

/// A dozen objects spread over the grid, plus — in the `present` world —
/// the one object and the one query the alphabet is about. The objects'
/// numerators are distinct and odd, which keeps any two of them at
/// different distances from every query position used here.
fn small_world(net: &RoadNetwork, m: &mut dyn ContinuousMonitor, present: bool) {
    let n = net.num_edges() as u32;
    let background = (0..12u32).map(|i| (ObjectId(i), at(i * 5 % n, 2 * i + 1)));
    let the_object = present.then_some((THE_OBJECT, at(3, 51)));
    let the_query = present.then_some((THE_QUERY, 2, at(3, 32)));
    load_population(m, background.chain(the_object), the_query);
}

/// Insert, move, delete of the one object; install at k = 2, install at
/// k = 3 elsewhere, move, remove of the one query.
fn alphabet(net: &RoadNetwork) -> [UpdateEvent; 7] {
    let far = net.num_edges() as u32 - 2;
    [
        UpdateEvent::insert_object(THE_OBJECT, at(3, 29)),
        UpdateEvent::move_object(THE_OBJECT, at(4, 7)),
        UpdateEvent::delete_object(THE_OBJECT),
        UpdateEvent::install_query(THE_QUERY, 2, at(3, 32)),
        UpdateEvent::install_query(THE_QUERY, 3, at(far, 16)),
        UpdateEvent::move_query(THE_QUERY, at(20, 48)),
        UpdateEvent::remove_query(THE_QUERY),
    ]
}

#[test]
fn every_batch_of_up_to_three_events_means_the_same_at_every_entry_point() {
    // The reference is OVH, which recomputes every answer from scratch;
    // the world is an exact grid, so answers compare with `==`.
    let net = exact_grid(6, 6, 9);
    let alphabet = alphabet(&net);
    let mut programs: Vec<Vec<UpdateEvent>> = Vec::new();
    for a in alphabet {
        programs.push(vec![a]);
        for b in alphabet {
            programs.push(vec![a, b]);
            for c in alphabet {
                programs.push(vec![a, b, c]);
            }
        }
    }
    assert_eq!(programs.len(), 7 + 49 + 343);

    // The two worlds' 1,596 drives are independent: one thread each.
    std::thread::scope(|scope| {
        for present in [false, true] {
            let (net, programs) = (&net, &programs);
            scope.spawn(move || {
                for program in programs {
                    for per_event in [false, true] {
                        every_delivery(net, program, present, per_event);
                    }
                }
            });
        }
    });
}

/// One program into every entry point: one timestamp per event (a
/// one-event batch, which the harness delivers through `apply`), or the
/// whole program as one batch.
fn every_delivery(net: &Arc<RoadNetwork>, program: &[UpdateEvent], present: bool, per_event: bool) {
    let steps: Vec<UpdateBatch> = if per_event {
        program
            .iter()
            .map(|&ev| {
                let mut one = UpdateBatch::default();
                one.push(ev);
                one
            })
            .collect()
    } else {
        let mut all = UpdateBatch::default();
        program.iter().for_each(|&ev| all.push(ev));
        vec![all]
    };
    let ticks = steps.len();
    let world = net.clone();
    let mut w = Program::new(move |m| small_world(&world, m, present), steps);
    let mut stacks = Stack::every_entry_point(net);
    drive(&mut w, &mut stacks, ticks)
        .unwrap_or_else(|e| panic!("present {present}, per event {per_event}, {program:?}: {e}"));
}

#[test]
fn apply_insert_next_to_a_live_query_reaches_it() {
    // The query's nearest object is 2.75 away; one appears 0.125 away. At
    // every entry point `apply` is a timestamp, so the answer changes now
    // and the change list says so. (IMA and GMA used to write the object
    // table only and never serve the object; OVH until the next tick.)
    let net = Arc::new(generators::line_network(8, 1.0));
    let q = QueryId(1);
    for mut stack in Stack::every_entry_point(&net) {
        let (name, m) = (stack.name.clone(), stack.monitor_mut());
        m.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(6), 0.5),
        ));
        m.apply(UpdateEvent::install_query(
            q,
            1,
            NetPoint::new(EdgeId(3), 0.75),
        ));
        assert_eq!(m.result(q).unwrap()[0].object, ObjectId(0), "{name}");
        assert_eq!(m.knn_dist(q), Some(2.75), "{name}");

        let report = m.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.875),
        ));
        assert_eq!(m.result(q).unwrap()[0].object, ObjectId(1), "{name}");
        assert_eq!(m.knn_dist(q), Some(0.125), "{name}");
        assert_eq!(m.changed_queries(), [q], "{name}");
        assert_eq!(
            report.results_changed, 1,
            "{name}: apply returns the tick's report"
        );
    }
}

#[test]
fn apply_insert_of_a_known_id_moves_it() {
    // What `tick` does with `[Insert(known)]` (see `UpdateBatch`): the
    // per-event path used to drop it silently.
    let net = Arc::new(generators::line_network(8, 1.0));
    let q = QueryId(1);
    for mut stack in Stack::every_entry_point(&net) {
        let (name, m) = (stack.name.clone(), stack.monitor_mut());
        m.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(6), 0.5),
        ));
        m.apply(UpdateEvent::install_query(
            q,
            1,
            NetPoint::new(EdgeId(3), 0.75),
        ));
        m.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(3), 0.875),
        ));
        assert_eq!(m.result(q).unwrap().len(), 1, "{name}: still one object");
        assert_eq!(m.knn_dist(q), Some(0.125), "{name}");
        assert_eq!(m.changed_queries(), [q], "{name}");
    }
}
