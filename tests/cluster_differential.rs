//! Differential correctness of the cluster: a `ClusterEngine` (shards
//! behind the RPC layer, loopback transports) must be **bit-identical** —
//! answers, `kNN_dist` bits, change lists, deterministic work counters,
//! and `memory()` at the end of the run — to an in-process `ShardedEngine`
//! fed the same update stream, at S ∈ {1, 2, 4}, across the scenario table
//! this suite shares with `engine_differential.rs` (`common::Sharded`), and
//! under every injected transport fault: delay, reordering, frame
//! corruption, a forced mid-run shard crash (respawn + journal replay),
//! and forced cell migrations — and once over real TCP sockets.
//!
//! Every row pairs each `CLU-S` with the `ENG-S` it must match as its
//! exact twin (`common::Counters::Exact`) and drives them on the harness in
//! `tests/common` (its module docs say how to add a row): both sides run
//! the very same engine code, so any divergence at all is an RPC-layer
//! bug. Each row then asserts what only it is about: frames on the wire,
//! retransmits, the planned crash, migrations.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{drive, Counters, Hotspot, Plane, Sharded, Stack, Workload};
use rnn_monitor::cluster::{serve_tcp, ClusterEngine, FaultPlan, RetryPolicy};
use rnn_monitor::engine::{EngineConfig, ShardAlgo};
use rnn_monitor::roadnet::RoadNetwork;
use rnn_monitor::workload::Scenario;

/// `ENG-S` and its twin `CLU-S` under `plane` for each of `shards`, both
/// built from `cfg` at S shards, driven through `ticks` ticks.
fn run(
    net: &Arc<RoadNetwork>,
    workload: &mut dyn Workload,
    cfg: EngineConfig,
    shards: &[usize],
    plane: Plane,
    ticks: usize,
) -> Vec<Stack> {
    let at = |num_shards| EngineConfig { num_shards, ..cfg };
    let mut stacks = Stack::pairs(
        shards,
        |s| Stack::eng(net, at(s)),
        |s| Stack::clu(net, at(s), &plane),
        Counters::Exact,
    );
    drive(workload, &mut stacks, ticks).unwrap();
    for clu in stacks.iter().skip(1).step_by(2) {
        let stats = clu.clu_ref().stats();
        assert!(
            stats.frames_sent > 0,
            "{}: no frames on the wire?",
            clu.name
        );
    }
    stacks
}

/// A table entry at S ∈ {1, 2, 4}, fault-free.
fn row(entry: Sharded, algo: ShardAlgo) {
    let (net, mut workload, ticks) = entry.build();
    let cfg = EngineConfig {
        algo,
        ..EngineConfig::default()
    };
    run(
        &net,
        &mut workload,
        cfg,
        &[1, 2, 4],
        Plane::default(),
        ticks,
    );
}

// -------------------------------------------------------------------
// The scenario table, cluster vs in-process.
// -------------------------------------------------------------------

#[test]
fn cluster_matches_engine_gma_default_workload() {
    row(Sharded::Default, ShardAlgo::Gma);
}

#[test]
fn cluster_matches_engine_ima_default_workload() {
    row(Sharded::ImaDefault, ShardAlgo::Ima);
}

#[test]
fn cluster_matches_engine_ovh_workload() {
    // OVH recomputes every query every tick: 10 of the entry's 15 ticks.
    let (net, mut workload, _) = Sharded::SecondSeed.build();
    let cfg = EngineConfig {
        algo: ShardAlgo::Ovh,
        ..EngineConfig::default()
    };
    run(&net, &mut workload, cfg, &[1, 2, 4], Plane::default(), 10);
}

#[test]
fn cluster_k_equals_one() {
    row(Sharded::KOne, ShardAlgo::Gma);
}

#[test]
fn cluster_large_k_forces_wide_halos() {
    row(Sharded::LargeK, ShardAlgo::Gma);
}

#[test]
fn cluster_underfull_results() {
    row(Sharded::Underfull, ShardAlgo::Gma);
}

#[test]
fn cluster_edge_heavy_workload() {
    row(Sharded::EdgeHeavy, ShardAlgo::Gma);
}

#[test]
fn cluster_query_heavy_workload() {
    row(Sharded::QueryHeavy, ShardAlgo::Gma);
}

#[test]
fn cluster_object_heavy_fast_workload() {
    row(Sharded::ObjectHeavy, ShardAlgo::Gma);
}

#[test]
fn cluster_everything_agile_with_ima() {
    row(Sharded::Agile, ShardAlgo::Ima);
}

#[test]
fn cluster_brinkhoff_movement() {
    row(Sharded::Brinkhoff, ShardAlgo::Gma);
}

#[test]
fn cluster_san_francisco_like_slice() {
    row(Sharded::Slice, ShardAlgo::Gma);
}

#[test]
fn cluster_query_churn_mid_run() {
    row(Sharded::Churn, ShardAlgo::Gma);
}

#[test]
fn cluster_empty_ticks_change_nothing() {
    row(Sharded::Quiet, ShardAlgo::Gma);
}

/// The same differential over real TCP sockets on localhost: two
/// `serve_tcp` shard threads, a coordinator from `connect_tcp`. Dropping
/// the engine sends the shutdown frames, and both services must exit.
#[test]
fn cluster_over_tcp_matches_engine_and_services_exit_on_drop() {
    let net = common::grid(6, 6, 21);
    let cfg = EngineConfig::with_shards(2);
    // Free ports from the OS: bound together (so they differ), then
    // released for the services to bind.
    let listeners: Vec<_> = (0..cfg.num_shards)
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
                serve_tcp(addr, cfg.make_monitor(net), edges)
            })
        })
        .collect();

    let cluster = ClusterEngine::connect_tcp(net.clone(), cfg, &addrs, RetryPolicy::default())
        .expect("the services accept");
    let mut stacks = vec![
        Stack::eng(&net, cfg),
        Stack::cluster("CLU-2 over TCP".into(), cluster).twin(0, Counters::Exact),
    ];
    let mut scenario = Scenario::new(net.clone(), common::base_cfg(211));
    drive(&mut scenario, &mut stacks, 10).unwrap();
    assert!(
        stacks[1].clu_ref().stats().frames_sent > 0,
        "no frames on the wire?"
    );

    drop(stacks);
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
// Fault injection: the default entry must stay bit-identical when the
// transport misbehaves.
// -------------------------------------------------------------------

/// The default entry for `ticks` ticks at each of `shards` under `plane`.
fn faulty(shards: &[usize], plane: Plane, ticks: usize) -> Vec<Stack> {
    let (net, mut workload, _) = Sharded::Default.build();
    run(
        &net,
        &mut workload,
        EngineConfig::default(),
        shards,
        plane,
        ticks,
    )
}

/// A short reply timeout with room to retransmit.
fn impatient() -> RetryPolicy {
    RetryPolicy {
        timeout: Duration::from_millis(40),
        max_retries: 8,
    }
}

#[test]
fn cluster_identical_under_injected_delay() {
    let plan = FaultPlan {
        delay: Duration::from_millis(2),
        ..Default::default()
    };
    let plane = Plane {
        plans: vec![plan],
        ..Plane::default()
    };
    faulty(&[1, 2, 4], plane, 8);
}

#[test]
fn cluster_identical_under_reordering() {
    // Every 4th request frame is held back and delivered after its
    // successor; the coordinator's timeout + retransmit and the
    // service's sequence dedup must hide it completely.
    let plan = FaultPlan {
        reorder_every: 4,
        ..Default::default()
    };
    let plane = Plane {
        plans: vec![plan],
        policy: impatient(),
        ..Plane::default()
    };
    faulty(&[1, 2, 4], plane, 8);
}

#[test]
fn cluster_identical_under_frame_corruption() {
    // Every 5th request frame gets one byte flipped. The service must
    // reject it on checksum (never panic, never apply) and the
    // coordinator must recover by retransmission, which the retry
    // counter shows.
    let plan = FaultPlan {
        corrupt_every: 5,
        ..Default::default()
    };
    let plane = Plane {
        plans: vec![plan],
        policy: impatient(),
        ..Plane::default()
    };
    for clu in faulty(&[1, 2, 4], plane, 8).iter().skip(1).step_by(2) {
        assert!(
            clu.clu_ref().stats().retries > 0,
            "{}: corruption every 5 frames must force retransmits",
            clu.name
        );
    }
}

#[test]
fn cluster_identical_through_mid_run_shard_crash() {
    // Shard 0's service dies after 12 delivered frames — after the
    // install phase, in the middle of the tick phase, for both shard
    // counts (installation delivers one or two frames to a shard, then
    // about four every three ticks). The coordinator must respawn it and
    // replay the journal into the fresh monitor, with every subsequent
    // answer and counter still bit-identical.
    let crash = FaultPlan {
        crash_after_frames: 12,
        ..Default::default()
    };
    for shards in [2, 4] {
        let plane = Plane {
            plans: Plane::shard_0(crash, shards),
            ..Plane::default()
        };
        let stacks = faulty(&[shards], plane, 12);
        let stats = stacks[1].clu_ref().stats();
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
    let net = common::grid(10, 10, 23);
    let cfg = EngineConfig::with_rebalancing(4);
    let stacks = run(
        &net,
        &mut Hotspot::new(&net),
        cfg,
        &[2, 4],
        Plane::default(),
        64,
    );
    for pair in stacks.chunks(2) {
        let (eng, clu) = (pair[0].eng_ref(), pair[1].clu_ref().engine());
        let shards = eng.num_shards();
        assert_eq!(
            eng.cells_migrated(),
            clu.cells_migrated(),
            "S={shards}: migration schedules diverge"
        );
        // Coverage floor: what trigger 1.0 / cooldown 1 migrated on the old
        // 8×8, 24-tick workload.
        let floor = if shards == 2 { 441 } else { 277 };
        assert!(
            clu.cells_migrated() >= floor,
            "S={shards}: {} cells migrated, below the {floor} this test is sized for",
            clu.cells_migrated()
        );
    }
}
