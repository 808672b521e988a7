//! Differential correctness of the sharded engine: at every timestamp of a
//! seeded scenario, `ShardedEngine` with S ∈ {1, 2, 4} shards must report
//! exactly the same k-NN sets as a single-threaded monitor fed the same
//! update stream.
//!
//! As in `differential.rs`, answers compare whole, with `==`, ids
//! included: every monitor keeps the k smallest `(dist, id)`, so a shard
//! and the single monitor keep the same objects at a tie, and distances
//! are exact, whatever the summation order.

mod common;

use std::sync::Arc;

use common::{TieProne, Workload};
use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, QueryEvent, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{EngineConfig, ShardAlgo, ShardedEngine};
use rnn_monitor::roadnet::{generators, NetPoint, QueryId, RoadNetwork};
use rnn_monitor::workload::{MovementModel, Scenario, ScenarioConfig};

fn compare_monitors(
    reference: &dyn ContinuousMonitor,
    others: &[&dyn ContinuousMonitor],
    tick: usize,
) {
    let mut ids = reference.query_ids();
    ids.sort();
    for &other in others {
        let mut other_ids = other.query_ids();
        other_ids.sort();
        assert_eq!(ids, other_ids, "query sets diverge at tick {tick}");
    }
    for &qid in &ids {
        for &other in others {
            let ctx = format!(
                "tick {tick}, query {qid}, {} vs {}",
                reference.name(),
                other.name()
            );
            assert_eq!(reference.result(qid), other.result(qid), "{ctx}: answers");
            assert_eq!(
                reference.knn_dist(qid),
                other.knn_dist(qid),
                "{ctx}: kNN_dist"
            );
        }
    }
}

/// Runs one scenario against a single-threaded reference and sharded
/// engines with 1, 2, and 4 shards, comparing after installation and after
/// every tick — the answers, and how many of them each side says the tick
/// changed.
fn run_engine_differential(
    net: Arc<RoadNetwork>,
    cfg: ScenarioConfig,
    ticks: usize,
    algo: ShardAlgo,
) {
    let scenario = Scenario::new(net.clone(), cfg);
    run_engine_workload(net, scenario, ticks, algo);
}

/// [`run_engine_differential`] over any workload.
fn run_engine_workload(
    net: Arc<RoadNetwork>,
    mut scenario: impl Workload,
    ticks: usize,
    algo: ShardAlgo,
) {
    let mut reference: Box<dyn ContinuousMonitor> = match algo {
        ShardAlgo::Gma => Box::new(Gma::new(net.clone())),
        ShardAlgo::Ima => Box::new(Ima::new(net.clone())),
        ShardAlgo::Ovh => Box::new(rnn_monitor::Ovh::new(net.clone())),
    };
    let mut engines: Vec<ShardedEngine> = [1usize, 2, 4]
        .into_iter()
        .map(|s| {
            ShardedEngine::new(
                net.clone(),
                EngineConfig {
                    num_shards: s,
                    algo,
                    ..EngineConfig::default()
                },
            )
        })
        .collect();

    scenario.install_into(reference.as_mut());
    for e in &mut engines {
        scenario.install_into(e);
    }
    {
        let views: Vec<&dyn ContinuousMonitor> = engines
            .iter()
            .map(|e| e as &dyn ContinuousMonitor)
            .collect();
        compare_monitors(reference.as_ref(), &views, 0);
    }

    for t in 1..=ticks {
        let batch = scenario.tick();
        let want = reference.tick(&batch).results_changed;
        for e in &mut engines {
            let got = e.tick(&batch).results_changed;
            assert_eq!(
                got,
                want,
                "tick {t}, S={}: results_changed diverges from {}",
                e.num_shards(),
                reference.name()
            );
        }
        let views: Vec<&dyn ContinuousMonitor> = engines
            .iter()
            .map(|e| e as &dyn ContinuousMonitor)
            .collect();
        compare_monitors(reference.as_ref(), &views, t);
    }
}

fn grid(nx: usize, ny: usize, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(generators::grid_city(&generators::GridCityConfig {
        nx,
        ny,
        seed,
        ..Default::default()
    }))
}

fn base_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        num_objects: 80,
        num_queries: 12,
        k: 4,
        seed,
        ..Default::default()
    }
}

#[test]
fn engine_matches_gma_default_workload() {
    run_engine_differential(grid(8, 8, 1), base_cfg(11), 15, ShardAlgo::Gma);
}

#[test]
fn engine_matches_ima_default_workload() {
    run_engine_differential(grid(7, 9, 2), base_cfg(22), 15, ShardAlgo::Ima);
}

#[test]
fn engine_matches_gma_second_seed() {
    run_engine_differential(grid(9, 7, 3), base_cfg(33), 15, ShardAlgo::Gma);
}

#[test]
fn engine_k_equals_one() {
    run_engine_differential(
        grid(8, 8, 4),
        ScenarioConfig {
            k: 1,
            ..base_cfg(44)
        },
        12,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_large_k_forces_wide_halos() {
    run_engine_differential(
        grid(6, 6, 5),
        ScenarioConfig {
            k: 25,
            num_objects: 60,
            ..base_cfg(55)
        },
        10,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_underfull_results() {
    // Fewer objects than k: kNN_dist = ∞ drives halos to full replication;
    // everything must still agree.
    run_engine_differential(
        grid(5, 5, 6),
        ScenarioConfig {
            k: 10,
            num_objects: 6,
            num_queries: 5,
            ..base_cfg(66)
        },
        8,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_edge_heavy_workload() {
    // Weight churn stresses halo-membership refresh.
    run_engine_differential(
        grid(8, 8, 7),
        ScenarioConfig {
            edge_agility: 0.30,
            object_agility: 0.0,
            query_agility: 0.0,
            ..base_cfg(77)
        },
        12,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_query_heavy_workload() {
    // Fast queries migrate across shard borders constantly.
    run_engine_differential(
        grid(8, 8, 8),
        ScenarioConfig {
            edge_agility: 0.0,
            object_agility: 0.0,
            query_agility: 0.8,
            query_speed: 2.0,
            ..base_cfg(88)
        },
        12,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_object_heavy_fast_workload() {
    // Fast objects churn the replica sets.
    run_engine_differential(
        grid(8, 8, 9),
        ScenarioConfig {
            edge_agility: 0.0,
            object_agility: 0.9,
            object_speed: 4.0,
            query_agility: 0.0,
            ..base_cfg(99)
        },
        12,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_everything_agile_with_ima() {
    run_engine_differential(
        grid(7, 7, 10),
        ScenarioConfig {
            edge_agility: 0.25,
            object_agility: 0.5,
            query_agility: 0.5,
            object_speed: 2.0,
            query_speed: 2.0,
            ..base_cfg(110)
        },
        12,
        ShardAlgo::Ima,
    );
}

#[test]
fn engine_brinkhoff_movement() {
    run_engine_differential(
        grid(7, 7, 11),
        ScenarioConfig {
            movement: MovementModel::Brinkhoff,
            ..base_cfg(121)
        },
        10,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_san_francisco_like_slice() {
    // Long degree-2 chains produce few intersections and jagged borders.
    let net = Arc::new(generators::san_francisco_like(600, 12));
    run_engine_differential(
        net,
        ScenarioConfig {
            num_objects: 120,
            num_queries: 15,
            k: 5,
            ..base_cfg(131)
        },
        6,
        ShardAlgo::Gma,
    );
}

#[test]
fn engine_tie_prone_workload() {
    // Exact ties with the k-th distance at nearly every tick, across shard
    // borders too: a shard must keep the objects the single monitor
    // keeps, the smallest ids, whichever replica it met first.
    for algo in [ShardAlgo::Gma, ShardAlgo::Ima] {
        let net = TieProne::network(8, 8, 16);
        let workload = TieProne::new(&net, 171, 70);
        run_engine_workload(net, workload, 12, algo);
    }
}

#[test]
fn engine_query_churn_mid_run() {
    // Queries installed and removed through tick batches while running.
    let net = grid(8, 8, 13);
    let mut scenario = Scenario::new(net.clone(), base_cfg(141));
    let mut gma = Gma::new(net.clone());
    let mut eng = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
    scenario.install_into(&mut gma);
    scenario.install_into(&mut eng);

    for t in 1..=12usize {
        let mut batch = scenario.tick();
        if t % 3 == 0 {
            let e = rnn_monitor::roadnet::EdgeId((t % net.num_edges()) as u32);
            batch.queries.push(QueryEvent::Install {
                id: QueryId(1000 + t as u32),
                k: 3,
                at: NetPoint::new(e, 0.4),
            });
        }
        if t % 3 == 2 && t > 3 {
            batch.queries.push(QueryEvent::Remove {
                id: QueryId(1000 + (t - 2) as u32),
            });
        }
        gma.tick(&batch);
        eng.tick(&batch);
        compare_monitors(&gma, &[&eng], t);
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
    let n = net.num_edges() as u32;
    let mut gma = Gma::new(net.clone());
    let mut eng = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
    for i in 0..40u32 {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId((i * 7) % n), 0.35);
        gma.apply(UpdateEvent::insert_object(
            rnn_monitor::roadnet::ObjectId(i),
            at,
        ));
        eng.apply(UpdateEvent::insert_object(
            rnn_monitor::roadnet::ObjectId(i),
            at,
        ));
    }
    let e0 = rnn_monitor::roadnet::EdgeId(0);
    gma.apply(UpdateEvent::install_query(
        QueryId(9),
        4,
        NetPoint::new(e0, 0.5),
    ));
    eng.apply(UpdateEvent::install_query(
        QueryId(9),
        4,
        NetPoint::new(e0, 0.5),
    ));
    compare_monitors(&gma, &[&eng], 0);

    let home = eng.partition().shard_of_edge(e0);
    let same_shard = net
        .edge_ids()
        .find(|&e| e != e0 && eng.partition().shard_of_edge(e) == home)
        .expect("shard owns more than one edge");
    let foreign = net
        .edge_ids()
        .find(|&e| eng.partition().shard_of_edge(e) != home)
        .expect("4-way split has foreign edges");

    // Tick 1: re-Install on the same shard (new k, new edge), then Move
    // within the same batch — the owning monitor sees [Install, Move] with
    // no Remove in between.
    let mut batch = UpdateBatch::default();
    batch.queries.push(QueryEvent::Install {
        id: QueryId(9),
        k: 6,
        at: NetPoint::new(same_shard, 0.25),
    });
    batch.queries.push(QueryEvent::Move {
        id: QueryId(9),
        to: NetPoint::new(same_shard, 0.75),
    });
    gma.tick(&batch);
    eng.tick(&batch);
    compare_monitors(&gma, &[&eng], 1);
    assert_eq!(
        eng.result(QueryId(9)).unwrap().len(),
        6,
        "re-install must adopt the new k"
    );

    // Tick 2: another same-shard duplicate Install, then a Move that
    // crosses the border (Remove+Install for the engine, plain events for
    // the reference).
    let mut batch = UpdateBatch::default();
    batch.queries.push(QueryEvent::Install {
        id: QueryId(9),
        k: 3,
        at: NetPoint::new(e0, 0.1),
    });
    batch.queries.push(QueryEvent::Move {
        id: QueryId(9),
        to: NetPoint::new(foreign, 0.5),
    });
    gma.tick(&batch);
    eng.tick(&batch);
    compare_monitors(&gma, &[&eng], 2);
    assert_eq!(eng.result(QueryId(9)).unwrap().len(), 3);
    eng.validate_replication()
        .expect("replica bookkeeping survives re-install");

    for t in 3..6 {
        let batch = UpdateBatch::default();
        gma.tick(&batch);
        eng.tick(&batch);
        compare_monitors(&gma, &[&eng], t);
    }
}

#[test]
fn engine_counts_query_lifecycle_events_as_a_single_monitor_does() {
    // The three batches `results_changed` used to get wrong, each against
    // Gma: an identical re-Install of a live query (was 1, is 0), Remove
    // then Install of one id in one batch (was 1, is 0), and a plain
    // Remove of a query that has an answer (was 0, is 1).
    let net = grid(8, 8, 19);
    let n = net.num_edges() as u32;
    let mut gma = Gma::new(net.clone());
    let mut eng = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
    for i in 0..40u32 {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId((i * 11) % n), 0.35);
        let ev = UpdateEvent::insert_object(rnn_monitor::roadnet::ObjectId(i), at);
        gma.apply(ev);
        eng.apply(ev);
    }
    let q = QueryId(7);
    let home = NetPoint::new(rnn_monitor::roadnet::EdgeId(3), 0.5);
    gma.apply(UpdateEvent::install_query(q, 4, home));
    eng.apply(UpdateEvent::install_query(q, 4, home));
    assert_eq!(eng.changed_queries(), [q]);
    assert_eq!(gma.changed_queries(), [q]);

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
    for (what, queries, want) in cases {
        let batch = UpdateBatch {
            queries,
            ..Default::default()
        };
        let by_gma = gma.tick(&batch).results_changed;
        let by_eng = eng.tick(&batch).results_changed;
        assert_eq!(by_gma, want, "{what}: Gma");
        assert_eq!(by_eng, want, "{what}: engine");
        assert_eq!(eng.changed_queries(), gma.changed_queries(), "{what}");
        compare_monitors(&gma, &[&eng], 0);
    }
    assert!(eng.query_ids().is_empty());
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
    let mut gma = Gma::new(net.clone());
    let mut engines: Vec<ShardedEngine> = [2usize, 4, 8]
        .into_iter()
        .map(|s| {
            ShardedEngine::new(
                net.clone(),
                EngineConfig {
                    num_shards: s,
                    ..EngineConfig::default()
                },
            )
        })
        .collect();

    for i in 0..70u32 {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId((i * 13) % n), 0.35);
        gma.apply(UpdateEvent::insert_object(
            rnn_monitor::roadnet::ObjectId(i),
            at,
        ));
        for e in &mut engines {
            e.apply(UpdateEvent::insert_object(
                rnn_monitor::roadnet::ObjectId(i),
                at,
            ));
        }
    }
    for q in 0..6u32 {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId((q * 29 + 3) % n), 0.6);
        gma.apply(UpdateEvent::install_query(QueryId(q), 4, at));
        for e in &mut engines {
            e.apply(UpdateEvent::install_query(QueryId(q), 4, at));
        }
    }
    // Let post-install halos settle into steady state.
    for _ in 0..3 {
        let batch = UpdateBatch::default();
        gma.tick(&batch);
        for e in &mut engines {
            e.tick(&batch);
        }
    }
    let steady: Vec<usize> = engines.iter().map(|e| e.replica_count()).collect();
    let evictions_before: Vec<u64> = engines.iter().map(|e| e.replica_evictions()).collect();

    // Churn: every tick installs a wide (k=7) query, migrates the previous
    // one, and removes the one before that.
    let mut peak = vec![0usize; engines.len()];
    for t in 0..14u32 {
        let mut batch = UpdateBatch::default();
        batch.queries.push(QueryEvent::Install {
            id: QueryId(100 + t),
            k: 7,
            at: NetPoint::new(rnn_monitor::roadnet::EdgeId((t * 17 + 5) % n), 0.25),
        });
        if t >= 1 {
            batch.queries.push(QueryEvent::Move {
                id: QueryId(100 + t - 1),
                to: NetPoint::new(rnn_monitor::roadnet::EdgeId((t * 31 + 11) % n), 0.75),
            });
        }
        if t >= 2 {
            batch.queries.push(QueryEvent::Remove {
                id: QueryId(100 + t - 2),
            });
        }
        gma.tick(&batch);
        for (i, e) in engines.iter_mut().enumerate() {
            e.tick(&batch);
            peak[i] = peak[i].max(e.replica_count());
        }
        let views: Vec<&dyn ContinuousMonitor> = engines
            .iter()
            .map(|e| e as &dyn ContinuousMonitor)
            .collect();
        compare_monitors(&gma, &views, t as usize + 1);
        for e in &engines {
            e.validate_replication()
                .expect("invariants hold under churn");
        }
    }

    // A last burst: sixteen wide (k=30) queries spread over the grid
    // stretch every shard's halo.
    let mut batch = UpdateBatch::default();
    for i in 0..16u32 {
        batch.queries.push(QueryEvent::Install {
            id: QueryId(200 + i),
            k: 30,
            at: NetPoint::new(rnn_monitor::roadnet::EdgeId(i * n / 16), 0.5),
        });
    }
    gma.tick(&batch);
    for (i, e) in engines.iter_mut().enumerate() {
        e.tick(&batch);
        peak[i] = peak[i].max(e.replica_count());
    }
    let views: Vec<&dyn ContinuousMonitor> = engines
        .iter()
        .map(|e| e as &dyn ContinuousMonitor)
        .collect();
    compare_monitors(&gma, &views, 15);

    // Churn subsides: remove the burst and the stragglers, then quiet
    // ticks while the halos decay. Answers must stay identical the whole
    // way down.
    let mut batch = UpdateBatch::default();
    for id in (200u32..216).chain([112, 113]) {
        batch.queries.push(QueryEvent::Remove { id: QueryId(id) });
    }
    gma.tick(&batch);
    for e in &mut engines {
        e.tick(&batch);
    }
    for t in 0..4usize {
        let batch = UpdateBatch::default();
        gma.tick(&batch);
        for e in &mut engines {
            e.tick(&batch);
        }
        let views: Vec<&dyn ContinuousMonitor> = engines
            .iter()
            .map(|e| e as &dyn ContinuousMonitor)
            .collect();
        compare_monitors(&gma, &views, 100 + t);
    }

    for (i, e) in engines.iter().enumerate() {
        assert_eq!(
            e.replica_count(),
            steady[i],
            "S={}: replicas did not decay back to steady state (peak was {})",
            e.num_shards(),
            peak[i]
        );
        assert!(
            e.replica_evictions() > evictions_before[i],
            "S={}: churn must evict stale replicas",
            e.num_shards()
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
        e.validate_replication()
            .expect("invariants hold after decay");
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
    let n = net.num_edges() as u32;
    let mut gma = Gma::new(net.clone());
    let mut engines: Vec<ShardedEngine> = [2usize, 4]
        .into_iter()
        .map(|s| {
            ShardedEngine::new(
                net.clone(),
                EngineConfig {
                    num_shards: s,
                    rebalance: true,
                    ..EngineConfig::default()
                },
            )
        })
        .collect();

    for i in 0..n {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId(i), 0.45);
        gma.apply(UpdateEvent::insert_object(
            rnn_monitor::roadnet::ObjectId(i),
            at,
        ));
        for e in &mut engines {
            e.apply(UpdateEvent::insert_object(
                rnn_monitor::roadnet::ObjectId(i),
                at,
            ));
        }
    }
    // A tight cluster of queries that drifts across the network edge by
    // edge, dragging the load hotspot over shard borders.
    const Q: u32 = 8;
    for q in 0..Q {
        let at = NetPoint::new(rnn_monitor::roadnet::EdgeId(q % 4), 0.3);
        gma.apply(UpdateEvent::install_query(QueryId(q), 5, at));
        for e in &mut engines {
            e.apply(UpdateEvent::install_query(QueryId(q), 5, at));
        }
    }

    for t in 0..64u32 {
        let mut batch = UpdateBatch::default();
        for q in 0..Q {
            // Cluster center drifts by four edges per tick; members fan out
            // over four consecutive edge ids, oscillating along the edge.
            let e = rnn_monitor::roadnet::EdgeId((t * 4 + q % 4) % n);
            let frac = if (t + q) % 2 == 0 { 0.25 } else { 0.7 };
            batch.queries.push(QueryEvent::Move {
                id: QueryId(q),
                to: NetPoint::new(e, frac),
            });
        }
        // A little object churn near the cluster keeps the workers busy.
        batch.objects.push(rnn_monitor::core::ObjectEvent::Move {
            id: rnn_monitor::roadnet::ObjectId(t % n),
            to: NetPoint::new(rnn_monitor::roadnet::EdgeId((t * 3) % n), 0.6),
        });
        gma.tick(&batch);
        for e in &mut engines {
            e.tick(&batch);
            e.validate_replication()
                .expect("replication + partition invariants hold mid-migration");
        }
        let views: Vec<&dyn ContinuousMonitor> = engines
            .iter()
            .map(|e| e as &dyn ContinuousMonitor)
            .collect();
        compare_monitors(&gma, &views, t as usize + 1);
    }
    for e in &engines {
        assert!(
            e.cells_migrated() > 0,
            "S={}: the drifting hotspot must force cell migrations",
            e.num_shards()
        );
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

#[test]
fn engine_empty_ticks_change_nothing() {
    let net = grid(6, 6, 14);
    let scenario = Scenario::new(net.clone(), base_cfg(151));
    let mut eng = ShardedEngine::new(net, EngineConfig::with_shards(4));
    scenario.install_into(&mut eng);
    let snapshot: Vec<_> = {
        let mut ids = eng.query_ids();
        ids.sort();
        ids.iter()
            .map(|&q| eng.result(q).unwrap().to_vec())
            .collect()
    };
    for _ in 0..3 {
        let rep = eng.tick(&UpdateBatch::default());
        assert_eq!(rep.results_changed, 0);
    }
    let mut ids = eng.query_ids();
    ids.sort();
    for (i, &q) in ids.iter().enumerate() {
        assert_eq!(eng.result(q).unwrap(), snapshot[i].as_slice());
    }
}

// ---------------------------------------------------------------------
// One way to apply an event. ROADMAP direction 7 asks for
// "bounded-exhaustive small worlds" beside the random programs; this is
// its first instance, on this file's harness: every batch of up to three
// events over one object and one query, into every monitor and the
// engine, as one `tick` and as per-event `apply`.
// ---------------------------------------------------------------------

use rnn_monitor::core::{load_population, Ovh, TickReport};
use rnn_monitor::roadnet::{EdgeId, ObjectId};

/// Everything an event can be delivered into: the three monitors and the
/// engine at S = 1, 2, 4.
fn every_entry_point(net: &Arc<RoadNetwork>) -> Vec<(String, Box<dyn ContinuousMonitor>)> {
    let mut all: Vec<(String, Box<dyn ContinuousMonitor>)> = vec![
        ("OVH".into(), Box::new(Ovh::new(net.clone()))),
        ("IMA".into(), Box::new(Ima::new(net.clone()))),
        ("GMA".into(), Box::new(Gma::new(net.clone()))),
    ];
    for s in [1usize, 2, 4] {
        let eng = ShardedEngine::new(net.clone(), EngineConfig::with_shards(s));
        all.push((format!("ENG-{s}"), Box::new(eng)));
    }
    all
}

/// What a call leaves behind, compared exactly: the registered queries
/// with their `(kNN_dist bits, result)`, the call's `results_changed` and
/// its change list.
fn assert_same_outcome(
    want: (&dyn ContinuousMonitor, TickReport),
    got: (&dyn ContinuousMonitor, TickReport),
    ctx: &str,
) {
    let answers = |m: &dyn ContinuousMonitor| {
        let mut ids = m.query_ids();
        ids.sort();
        ids.into_iter()
            .map(|q| {
                (
                    q,
                    m.knn_dist(q).unwrap().to_bits(),
                    m.result(q).unwrap().to_vec(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(answers(got.0), answers(want.0), "{ctx}: answers");
    assert_eq!(
        got.1.results_changed, want.1.results_changed,
        "{ctx}: results_changed"
    );
    assert_eq!(
        got.0.changed_queries(),
        want.0.changed_queries(),
        "{ctx}: changed_queries"
    );
}

const THE_OBJECT: ObjectId = ObjectId(100);
const THE_QUERY: QueryId = QueryId(7);

/// A 6×6 grid whose every distance is exact in an `f64`: edges of length
/// 32 or 64 and positions at 64ths, so a sum is the same bits in whatever
/// order a monitor adds it up and answers compare with `==`. The objects'
/// numerators are distinct and odd, which keeps any two of them at
/// different distances from every query position used here.
fn exact_grid() -> Arc<RoadNetwork> {
    Arc::new(generators::grid_city(&generators::GridCityConfig {
        nx: 6,
        ny: 6,
        spacing: 64.0,
        jitter: 0.0,
        max_subdivision: 2,
        seed: 9,
        ..Default::default()
    }))
}

fn at(edge: u32, sixty_fourths: u32) -> NetPoint {
    NetPoint::new(EdgeId(edge), f64::from(sixty_fourths) / 64.0)
}

/// A dozen objects spread over the grid, plus — in the `present` world —
/// the one object and the one query the alphabet is about.
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
    let net = exact_grid();
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

    for present in [false, true] {
        for program in &programs {
            for per_event in [false, true] {
                // The oracle: a fresh OVH, which recomputes every answer
                // from scratch, fed the delivery as ticks.
                let mut oracle = Ovh::new(net.clone());
                small_world(&net, &mut oracle, present);
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
                let mut subjects = every_entry_point(&net);
                for (_, m) in &mut subjects {
                    small_world(&net, m.as_mut(), present);
                }
                for (i, step) in steps.iter().enumerate() {
                    let want = oracle.tick(step);
                    for (name, m) in &mut subjects {
                        let got = if per_event {
                            m.apply(program[i])
                        } else {
                            m.tick(step)
                        };
                        let how = if per_event { "apply" } else { "tick" };
                        assert_same_outcome(
                            (&oracle, want),
                            (m.as_ref(), got),
                            &format!("{name}, present {present}, {how} {i} of {program:?}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn apply_insert_next_to_a_live_query_reaches_it() {
    // The query's nearest object is 2.75 away; one appears 0.125 away. At
    // every entry point `apply` is a timestamp, so the answer changes now
    // and the change list says so. (IMA and GMA used to write the object
    // table only and never serve the object; OVH until the next tick.)
    let net = Arc::new(generators::line_network(8, 1.0));
    let q = QueryId(1);
    for (name, mut m) in every_entry_point(&net) {
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
    for (name, mut m) in every_entry_point(&net) {
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
