//! Differential correctness of the cluster: a `ClusterEngine` (shards
//! behind the RPC layer, loopback transports) must be **bit-identical** —
//! result snapshots, `kNN_dist` bits, and deterministic work counters —
//! to an in-process `ShardedEngine` fed the same update stream, at
//! S ∈ {1, 2, 4}, across the engine differential suite's workloads, and
//! under every injected transport fault: delay, reordering, frame
//! corruption, a forced mid-run shard crash (respawn + journal replay),
//! and forced cell migrations — and once over real TCP sockets.
//!
//! Answers compare with `==`, as in `engine_differential.rs`; here the
//! deterministic work counters do too, because both sides run the very
//! same engine code — any divergence at all is an RPC-layer bug.

use std::sync::Arc;
use std::time::Duration;

use rnn_monitor::cluster::{serve_tcp, ClusterEngine, FaultPlan, RetryPolicy};
use rnn_monitor::core::{ContinuousMonitor, QueryEvent, TickReport, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{EngineConfig, ShardAlgo, ShardedEngine};
use rnn_monitor::roadnet::{generators, EdgeId, NetPoint, ObjectId, QueryId, RoadNetwork};
use rnn_monitor::workload::{MovementModel, Scenario, ScenarioConfig};

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

/// Exact comparison: same query sets, bit-identical results and
/// `kNN_dist`, identical deterministic tick counters.
fn assert_bit_identical(
    inproc: &ShardedEngine,
    cluster: &ClusterEngine,
    reports: Option<(&TickReport, &TickReport)>,
    ctx: &str,
) {
    let mut ids = inproc.query_ids();
    ids.sort();
    let mut cids = cluster.query_ids();
    cids.sort();
    assert_eq!(ids, cids, "{ctx}: query sets diverge");
    for &qid in &ids {
        assert_eq!(
            inproc.result(qid).unwrap(),
            cluster.result(qid).unwrap(),
            "{ctx}, query {qid}: results diverge"
        );
        assert_eq!(
            inproc.knn_dist(qid).unwrap().to_bits(),
            cluster.knn_dist(qid).unwrap().to_bits(),
            "{ctx}, query {qid}: kNN_dist bits diverge"
        );
    }
    if let Some((ri, rc)) = reports {
        assert_eq!(ri.counters, rc.counters, "{ctx}: work counters diverge");
        assert_eq!(
            ri.results_changed, rc.results_changed,
            "{ctx}: results_changed diverges"
        );
    }
}

/// Drives one scenario into an in-process engine and a loopback cluster
/// with the given fault plans, at S ∈ {1, 2, 4}, comparing exactly after
/// installation and after every tick.
fn run_cluster_differential_with(
    net: Arc<RoadNetwork>,
    cfg: ScenarioConfig,
    ticks: usize,
    algo: ShardAlgo,
    plans: &[FaultPlan],
    policy: RetryPolicy,
) {
    for shards in [1usize, 2, 4] {
        let ecfg = EngineConfig {
            num_shards: shards,
            algo,
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let mut cluster = ClusterEngine::loopback_with_faults(net.clone(), ecfg, plans, policy);
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        assert_bit_identical(&inproc, &cluster, None, &format!("S={shards}, install"));
        for t in 1..=ticks {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_bit_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("S={shards}, tick {t}"),
            );
        }
        let stats = cluster.stats();
        assert!(stats.frames_sent > 0, "S={shards}: no frames on the wire?");
        assert_eq!(
            inproc.memory(),
            cluster.memory(),
            "S={shards}: memory reports diverge"
        );
    }
}

fn run_cluster_differential(
    net: Arc<RoadNetwork>,
    cfg: ScenarioConfig,
    ticks: usize,
    algo: ShardAlgo,
) {
    run_cluster_differential_with(
        net,
        cfg,
        ticks,
        algo,
        &[FaultPlan::default()],
        RetryPolicy::default(),
    );
}

// -------------------------------------------------------------------
// The engine differential suite's workloads, cluster vs in-process.
// -------------------------------------------------------------------

#[test]
fn cluster_matches_engine_gma_default_workload() {
    run_cluster_differential(grid(8, 8, 1), base_cfg(11), 15, ShardAlgo::Gma);
}

#[test]
fn cluster_matches_engine_ima_default_workload() {
    run_cluster_differential(grid(7, 9, 2), base_cfg(22), 15, ShardAlgo::Ima);
}

#[test]
fn cluster_matches_engine_ovh_workload() {
    run_cluster_differential(grid(9, 7, 3), base_cfg(33), 10, ShardAlgo::Ovh);
}

#[test]
fn cluster_k_equals_one() {
    run_cluster_differential(
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
fn cluster_large_k_forces_wide_halos() {
    run_cluster_differential(
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
fn cluster_underfull_results() {
    run_cluster_differential(
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
fn cluster_edge_heavy_workload() {
    run_cluster_differential(
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
fn cluster_query_heavy_workload() {
    run_cluster_differential(
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
fn cluster_object_heavy_fast_workload() {
    run_cluster_differential(
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
fn cluster_everything_agile_with_ima() {
    run_cluster_differential(
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
fn cluster_brinkhoff_movement() {
    run_cluster_differential(
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
fn cluster_san_francisco_like_slice() {
    let net = Arc::new(generators::san_francisco_like(600, 12));
    run_cluster_differential(
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
fn cluster_query_churn_mid_run() {
    let net = grid(8, 8, 13);
    let mut scenario = Scenario::new(net.clone(), base_cfg(141));
    let mut inproc = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
    let mut cluster = ClusterEngine::loopback(net.clone(), EngineConfig::with_shards(4));
    scenario.install_into(&mut inproc);
    scenario.install_into(&mut cluster);

    for t in 1..=12usize {
        let mut batch = scenario.tick();
        if t % 3 == 0 {
            let e = EdgeId((t % net.num_edges()) as u32);
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
        let ri = inproc.tick(&batch);
        let rc = cluster.tick(&batch);
        assert_bit_identical(
            &inproc,
            &cluster,
            Some((&ri, &rc)),
            &format!("churn tick {t}"),
        );
    }
}

#[test]
fn cluster_empty_ticks_change_nothing() {
    let net = grid(6, 6, 14);
    let scenario = Scenario::new(net.clone(), base_cfg(151));
    let mut cluster = ClusterEngine::loopback(net, EngineConfig::with_shards(4));
    scenario.install_into(&mut cluster);
    let snapshot: Vec<_> = {
        let mut ids = cluster.query_ids();
        ids.sort();
        ids.iter()
            .map(|&q| cluster.result(q).unwrap().to_vec())
            .collect()
    };
    for _ in 0..3 {
        let rep = cluster.tick(&UpdateBatch::default());
        assert_eq!(rep.results_changed, 0);
    }
    let mut ids = cluster.query_ids();
    ids.sort();
    for (i, &q) in ids.iter().enumerate() {
        assert_eq!(cluster.result(q).unwrap(), snapshot[i].as_slice());
    }
}

/// The same differential over real TCP sockets on localhost: two
/// `serve_tcp` shard threads, a coordinator from `connect_tcp`. Dropping
/// the engine sends the shutdown frames, and both services must exit.
#[test]
fn cluster_over_tcp_matches_engine_and_services_exit_on_drop() {
    let net = grid(6, 6, 21);
    let ecfg = EngineConfig::with_shards(2);
    // Free ports from the OS: bound together (so they differ), then
    // released for the services to bind.
    let listeners: Vec<_> = (0..ecfg.num_shards)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    drop(listeners);
    let services: Vec<_> = addrs
        .iter()
        .map(|&addr| {
            let net = net.clone();
            std::thread::spawn(move || {
                let edges = net.num_edges();
                serve_tcp(addr, ecfg.make_monitor(net), edges)
            })
        })
        .collect();

    let mut cluster = ClusterEngine::connect_tcp(net.clone(), ecfg, &addrs, RetryPolicy::default())
        .expect("the services accept");
    let mut inproc = ShardedEngine::new(net.clone(), ecfg);
    let mut scenario = Scenario::new(net.clone(), base_cfg(211));
    scenario.install_into(&mut inproc);
    scenario.install_into(&mut cluster);
    assert_bit_identical(&inproc, &cluster, None, "tcp, install");
    for t in 1..=10 {
        let batch = scenario.tick();
        let ri = inproc.tick(&batch);
        let rc = cluster.tick(&batch);
        assert_bit_identical(
            &inproc,
            &cluster,
            Some((&ri, &rc)),
            &format!("tcp, tick {t}"),
        );
    }
    assert!(cluster.stats().frames_sent > 0, "no frames on the wire?");

    drop(cluster);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for service in services {
        while !service.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "a shard service outlived its coordinator by 30 s"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        service.join().unwrap().expect("the service served");
    }
}

// -------------------------------------------------------------------
// Fault injection: the same workloads must stay bit-identical when the
// transport misbehaves.
// -------------------------------------------------------------------

#[test]
fn cluster_identical_under_injected_delay() {
    run_cluster_differential_with(
        grid(8, 8, 1),
        base_cfg(11),
        8,
        ShardAlgo::Gma,
        &[FaultPlan {
            delay: Duration::from_millis(2),
            ..Default::default()
        }],
        RetryPolicy::default(),
    );
}

#[test]
fn cluster_identical_under_reordering() {
    // Every 4th request frame is held back and delivered after its
    // successor; the coordinator's timeout + retransmit and the
    // service's sequence dedup must hide it completely.
    run_cluster_differential_with(
        grid(8, 8, 1),
        base_cfg(11),
        8,
        ShardAlgo::Gma,
        &[FaultPlan {
            reorder_every: 4,
            ..Default::default()
        }],
        RetryPolicy {
            timeout: Duration::from_millis(40),
            max_retries: 8,
        },
    );
}

#[test]
fn cluster_identical_under_frame_corruption() {
    // Every 5th request frame gets one byte flipped. The service must
    // reject it on checksum (never panic, never apply) and the
    // coordinator must recover by retransmission.
    let net = grid(8, 8, 1);
    let cfg = base_cfg(11);
    let policy = RetryPolicy {
        timeout: Duration::from_millis(40),
        max_retries: 8,
    };
    let plans = [FaultPlan {
        corrupt_every: 5,
        ..Default::default()
    }];
    run_cluster_differential_with(net.clone(), cfg, 8, ShardAlgo::Gma, &plans, policy);

    // And the retry counter must actually show the recoveries.
    let ecfg = EngineConfig::with_shards(2);
    let mut cluster = ClusterEngine::loopback_with_faults(net.clone(), ecfg, &plans, policy);
    let mut scenario = Scenario::new(net, base_cfg(11));
    scenario.install_into(&mut cluster);
    for _ in 0..6 {
        let batch = scenario.tick();
        cluster.tick(&batch);
    }
    assert!(
        cluster.stats().retries > 0,
        "corruption every 5 frames must force retransmits"
    );
}

#[test]
fn cluster_identical_through_mid_run_shard_crash() {
    // Shard 0's service dies after 12 delivered frames — after the
    // install phase, in the middle of the tick phase, for both shard
    // counts (at S=2 installation alone delivers 11 frames to shard 0;
    // the full 12-tick run delivers 23). The coordinator must respawn it
    // and replay the journal into the fresh monitor, with every
    // subsequent answer still bit-identical.
    let net = grid(8, 8, 1);
    let cfg = base_cfg(11);
    let crash_plan = FaultPlan {
        crash_after_frames: 12,
        ..Default::default()
    };
    for shards in [2usize, 4] {
        let ecfg = EngineConfig::with_shards(shards);
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        // Only shard 0 crashes; the rest run fault-free.
        let mut plans = vec![FaultPlan::default(); shards];
        plans[0] = crash_plan;
        let mut cluster =
            ClusterEngine::loopback_with_faults(net.clone(), ecfg, &plans, RetryPolicy::default());
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=12usize {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_bit_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("S={shards}, crash run, tick {t}"),
            );
        }
        let stats = cluster.stats();
        assert!(
            stats.crash_recoveries >= 1,
            "S={shards}: the planned crash must have fired (stats: {stats:?})"
        );
    }
}

#[test]
fn cluster_identical_under_forced_migrations() {
    // The hotspot workload of `engine_rebalances_under_hotspot_...`: the
    // shipped rebalancer migrates cells mid-run, and the migration
    // hand-off travels as typed frames. Everything must stay identical.
    let net = grid(10, 10, 23);
    let n = net.num_edges() as u32;
    for shards in [2usize, 4] {
        let ecfg = EngineConfig {
            num_shards: shards,
            rebalance: true,
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let mut cluster = ClusterEngine::loopback(net.clone(), ecfg);
        for i in 0..n {
            let at = NetPoint::new(EdgeId(i), 0.45);
            inproc.apply(UpdateEvent::insert_object(ObjectId(i), at));
            cluster.apply(UpdateEvent::insert_object(ObjectId(i), at));
        }
        const Q: u32 = 8;
        for q in 0..Q {
            let at = NetPoint::new(EdgeId(q % 4), 0.3);
            inproc.apply(UpdateEvent::install_query(QueryId(q), 5, at));
            cluster.apply(UpdateEvent::install_query(QueryId(q), 5, at));
        }
        for t in 0..64u32 {
            let mut batch = UpdateBatch::default();
            for q in 0..Q {
                let e = EdgeId((t * 4 + q % 4) % n);
                let frac = if (t + q) % 2 == 0 { 0.25 } else { 0.7 };
                batch.queries.push(QueryEvent::Move {
                    id: QueryId(q),
                    to: NetPoint::new(e, frac),
                });
            }
            batch.objects.push(rnn_monitor::core::ObjectEvent::Move {
                id: ObjectId(t % n),
                to: NetPoint::new(EdgeId((t * 3) % n), 0.6),
            });
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_bit_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("S={shards}, migration run, tick {t}"),
            );
            cluster
                .engine()
                .validate_replication()
                .expect("invariants hold mid-migration over RPC");
        }
        assert!(
            cluster.engine().cells_migrated() > 0,
            "S={shards}: the drifting hotspot must force cell migrations"
        );
        assert_eq!(
            inproc.cells_migrated(),
            cluster.engine().cells_migrated(),
            "S={shards}: migration schedules diverge"
        );
        // Coverage floor: what trigger 1.0 / cooldown 1 migrated on the old
        // 8×8, 24-tick workload.
        let floor = if shards == 2 { 441 } else { 277 };
        assert!(
            cluster.engine().cells_migrated() >= floor,
            "S={shards}: {} cells migrated, below the {floor} this test is sized for",
            cluster.engine().cells_migrated()
        );
    }
}
