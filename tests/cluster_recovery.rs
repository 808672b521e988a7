//! Crash-recovery differentials for the durability plane: a cluster
//! whose shards snapshot their monitor state and journal every event
//! frame must survive mid-run crashes by **snapshot install + journal
//! suffix replay** — answer-identical to an uncrashed in-process twin —
//! and, when a shard stays dead past its recovery budget, survivors
//! must **take over** its cells through the migration planner.
//!
//! Counter discipline: a restored monitor answers identically but its
//! allocator-history counters (pools warmed by restore, not the full
//! run) and tree-shape-history counters (expansion trees recomputed on
//! load, not replayed install-by-install) legitimately diverge, so the
//! snapshot-recovery differentials compare the
//! [`OpCounters::restore_stable`] projection — answers, result churn,
//! and pure expansion work stay bit-identical. The snapshot-free full
//! journal replay path stays *exactly* bit-identical, every counter
//! included, and is covered by `cluster_differential.rs`.

use std::sync::Arc;
use std::time::Duration;

use rnn_monitor::cluster::{
    loopback_pair, wal, ClusterEngine, ClusterError, DurabilityConfig, FaultPlan, Frame, MsgTag,
    ReplicaNode, ReplicatedLog, RetryPolicy, Transport,
};
use rnn_monitor::core::{ContinuousMonitor, Gma, TickReport, TransportStats};
use rnn_monitor::engine::{EngineConfig, ReplicationConfig, ShardAlgo, ShardedEngine};
use rnn_monitor::roadnet::{generators, RoadNetwork};
use rnn_monitor::workload::{Scenario, ScenarioConfig};

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

/// Answers must bit-match; work counters compare through the
/// restore-stable projection (see module docs).
fn assert_answers_identical(
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
        assert_eq!(
            ri.counters.restore_stable(),
            rc.counters.restore_stable(),
            "{ctx}: restore-stable work counters diverge"
        );
        assert_eq!(
            ri.results_changed, rc.results_changed,
            "{ctx}: results_changed diverges"
        );
    }
}

/// The comparison a snapshot restore guarantees once queries move and
/// weights churn (`rnn_core::snapshot` module docs): the differential
/// suite's — the same distances rank by rank and the same `kNN_dist`,
/// to 1e-9 relative. A restored monitor sums its distances afresh, so
/// from the restore on it may differ from the uncrashed twin in the
/// last ulp, and with it in which queries count as changed.
fn assert_answers_equivalent(
    inproc: &ShardedEngine,
    cluster: &ClusterEngine,
    _reports: Option<(&TickReport, &TickReport)>,
    ctx: &str,
) {
    let same = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut ids = inproc.query_ids();
    ids.sort();
    let mut cids = cluster.query_ids();
    cids.sort();
    assert_eq!(ids, cids, "{ctx}: query sets diverge");
    for &qid in &ids {
        let (a, b) = (inproc.result(qid).unwrap(), cluster.result(qid).unwrap());
        assert_eq!(a.len(), b.len(), "{ctx}, query {qid}: result sizes");
        for (x, y) in a.iter().zip(b) {
            assert!(same(x.dist, y.dist), "{ctx}, query {qid}: {x:?} vs {y:?}");
        }
        let (ka, kb) = (
            inproc.knn_dist(qid).unwrap(),
            cluster.knn_dist(qid).unwrap(),
        );
        assert!(same(ka, kb), "{ctx}, query {qid}: kNN_dist {ka} vs {kb}");
    }
}

/// xorshift64*, so crash points are seeded but spread across the run.
fn seeded_crash_frame(seed: u64, shard: usize) -> u32 {
    let mut x = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33;
    // What a shard is delivered: one or two frames of installation (the
    // population is a single timestamp: its batch, plus a resync round
    // where a halo grew), then four frames every three ticks or so (the
    // tick's batch, a resync round now and then, a snapshot request every
    // fourth event frame) — 16 to 20 over the 12-tick run at either S.
    // 1..=8 spreads the crashes over the install phase and the first five
    // ticks: every shard's budget is reached, and a shard recovers by
    // full replay or from its first snapshot, taken before its trees were
    // maintained much (a maintained tree's stale branches keep updates a
    // fresh one ignores, so `updates_ignored` stops matching further in).
    1 + (r % 8) as u32
}

/// Crashes shard 0 mid-run with snapshots every `snapshot_every` event
/// frames; recovery must install the latest snapshot and replay only
/// the journal suffix.
fn run_snapshot_recovery_differential(snapshot_every: u32, crash_after_frames: u32) {
    run_recovery_differential(
        ShardAlgo::Gma,
        base_cfg(11),
        12,
        snapshot_every,
        crash_after_frames,
        assert_answers_identical,
    );
}

/// The differential behind [`run_snapshot_recovery_differential`], over
/// any shard algorithm, workload and run length, with the per-tick
/// comparison left to `check`.
fn run_recovery_differential(
    algo: ShardAlgo,
    cfg: ScenarioConfig,
    ticks: usize,
    snapshot_every: u32,
    crash_after_frames: u32,
    check: fn(&ShardedEngine, &ClusterEngine, Option<(&TickReport, &TickReport)>, &str),
) {
    let net = grid(8, 8, 1);
    for shards in [2usize, 4] {
        let ecfg = EngineConfig {
            num_shards: shards,
            algo,
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let mut plans = vec![FaultPlan::default(); shards];
        plans[0] = FaultPlan {
            crash_after_frames,
            ..Default::default()
        };
        let mut cluster = ClusterEngine::loopback_durable(
            net.clone(),
            ecfg,
            &plans,
            RetryPolicy::default(),
            DurabilityConfig::in_memory(snapshot_every),
        );
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=ticks {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            check(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!(
                    "S={shards}, every={snapshot_every}, crash={crash_after_frames}, tick {t}"
                ),
            );
        }
        let s0 = &cluster.shard_stats()[0];
        assert!(
            s0.snapshots > 0,
            "S={shards}: snapshot cycle never fired (stats: {s0:?})"
        );
        assert!(
            s0.crash_recoveries >= 1,
            "S={shards}: the planned crash must have fired (stats: {s0:?})"
        );
        // Bounded-time recovery: each rebuild replays at most the journal
        // suffix accumulated since the last snapshot (plus the in-flight
        // frame), never the whole history.
        let per_recovery_bound = u64::from(snapshot_every) + 2;
        assert!(
            s0.frames_replayed <= s0.crash_recoveries * per_recovery_bound,
            "S={shards}: replay not bounded by the WAL suffix: {} frames over {} recoveries \
             (snapshot_every={snapshot_every})",
            s0.frames_replayed,
            s0.crash_recoveries,
        );
        // The satellite fix: the coordinator journal is truncated behind
        // every durable snapshot instead of growing without bound.
        for (s, st) in cluster.shard_stats().iter().enumerate() {
            assert!(
                st.journal_len < u64::from(snapshot_every),
                "shard {s}: journal not truncated behind snapshots (stats: {st:?})"
            );
        }
    }
}

#[test]
fn cluster_recovers_from_snapshot_plus_journal_suffix() {
    run_snapshot_recovery_differential(3, 14);
}

#[test]
fn cluster_recovers_with_sparse_snapshots() {
    run_snapshot_recovery_differential(8, 12);
}

#[test]
fn cluster_recovers_after_query_moves_and_weight_churn() {
    // Every query moves every tick and a fifth of the edges reprice, so
    // by the time shard 0 crashes its IMA monitor has re-rooted trees by
    // shifting their distances — the snapshot it recovers from is one a
    // fresh monitor reproduces only to the last ulp. The restore must
    // accept it (a bitwise check kills the link: `RestoreRejected`) and
    // the run must go on matching the uncrashed twin.
    let cfg = ScenarioConfig {
        edge_agility: 0.2,
        query_agility: 1.0,
        object_agility: 0.0,
        num_queries: 40,
        ..base_cfg(17)
    };
    // The crash budget: shard 0 is delivered 2 frames by installation and
    // four every three ticks after that (batch, occasional resync round,
    // a snapshot request every fourth event frame), 41 (S=2) to 45 (S=4)
    // over the run — so 20 frames is around tick 12 of 30, well after the
    // queries started moving.
    run_recovery_differential(ShardAlgo::Ima, cfg, 30, 4, 20, assert_answers_equivalent);
}

#[test]
fn cluster_recovers_from_seeded_random_crash_ticks() {
    // Every shard gets its own seeded crash point; each must recover
    // from its snapshot + suffix with answers indistinguishable from
    // the uncrashed twin.
    let net = grid(7, 9, 2);
    let cfg = base_cfg(22);
    for (seed, shards) in [(41u64, 2usize), (42, 4), (43, 4)] {
        let ecfg = EngineConfig {
            num_shards: shards,
            algo: ShardAlgo::Ima,
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let plans: Vec<FaultPlan> = (0..shards)
            .map(|s| FaultPlan {
                crash_after_frames: seeded_crash_frame(seed, s),
                ..Default::default()
            })
            .collect();
        let mut cluster = ClusterEngine::loopback_durable(
            net.clone(),
            ecfg,
            &plans,
            RetryPolicy::default(),
            DurabilityConfig::in_memory(4),
        );
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=12usize {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_answers_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("seed={seed}, S={shards}, tick {t}"),
            );
        }
        let stats = cluster.stats();
        assert!(
            stats.crash_recoveries >= shards as u64,
            "seed={seed}, S={shards}: every shard was scheduled to crash (stats: {stats:?})"
        );
        assert!(stats.snapshots > 0, "seed={seed}: no snapshots taken");
    }
}

#[test]
fn on_disk_durability_persists_snapshot_and_torn_tail_safe_wal() {
    let root =
        std::env::temp_dir().join(format!("rnn-recovery-{}-{}", std::process::id(), line!()));
    let _ = std::fs::remove_dir_all(&root);

    let net = grid(8, 8, 3);
    let shards = 2usize;
    let ecfg = EngineConfig {
        num_shards: shards,
        algo: ShardAlgo::Gma,
        ..EngineConfig::default()
    };
    let mut inproc = ShardedEngine::new(net.clone(), ecfg);
    let mut plans = vec![FaultPlan::default(); shards];
    // Shard 0 is delivered 2 frames by installation and 15 by the end of
    // the 10-tick run: 8 frames is tick 4 or 5, after its first on-disk
    // snapshot (one every 4 event frames) and with a WAL suffix to replay.
    plans[0] = FaultPlan {
        crash_after_frames: 8,
        ..Default::default()
    };
    let mut cluster = ClusterEngine::loopback_durable(
        net.clone(),
        ecfg,
        &plans,
        RetryPolicy::default(),
        DurabilityConfig::on_disk(4, root.clone()),
    );
    let mut scenario = Scenario::new(net.clone(), base_cfg(33));
    scenario.install_into(&mut inproc);
    scenario.install_into(&mut cluster);
    for t in 1..=10usize {
        let batch = scenario.tick();
        let ri = inproc.tick(&batch);
        let rc = cluster.tick(&batch);
        assert_answers_identical(
            &inproc,
            &cluster,
            Some((&ri, &rc)),
            &format!("disk, tick {t}"),
        );
    }
    let stats = cluster.stats();
    assert!(stats.snapshots > 0 && stats.crash_recoveries >= 1);
    assert!(
        stats.snapshot_bytes > 0,
        "durable snapshot missing (stats: {stats:?})"
    );

    for s in 0..shards {
        let dir = root.join(format!("shard-{s}"));
        let snap = dir.join("snapshot.bin");
        assert!(snap.exists(), "shard {s}: no snapshot file at {snap:?}");
        // The on-disk WAL must be a clean prefix of verbatim frame
        // records: scanning it back yields no torn tail to discard.
        let bytes = std::fs::read(dir.join("events.wal")).expect("WAL file readable");
        let (records, valid) = wal::scan(&bytes);
        assert_eq!(
            valid,
            bytes.len(),
            "shard {s}: WAL has a torn tail after clean shutdown-free run"
        );
        assert_eq!(
            records.len() as u64,
            cluster.shard_stats()[s].journal_len,
            "shard {s}: WAL records diverge from the in-memory journal"
        );
    }

    drop(cluster);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failover_promotes_follower_and_stays_answer_identical() {
    // Shard 0 crashes at a seeded frame and every respawn is stillborn,
    // so the PR-8 recovery budget exhausts — but with follower replicas
    // attached the link must *fail over* instead of dying: a follower
    // rebuilds the shard from its own replicated log (snapshot install +
    // local suffix replay) and the run stays answer-identical to the
    // in-process twin, with zero planner takeovers.
    let net = grid(8, 8, 6);
    let cfg = base_cfg(66);
    for (shards, replicas) in [(2usize, 1u32), (2, 2), (4, 1), (4, 2)] {
        let ecfg = EngineConfig {
            num_shards: shards,
            algo: ShardAlgo::Gma,
            replication: ReplicationConfig::with_replicas(replicas),
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let mut plans = vec![FaultPlan::default(); shards];
        plans[0] = FaultPlan {
            crash_after_frames: seeded_crash_frame(60 + replicas as u64, 0),
            respawn_dead: true,
            ..Default::default()
        };
        let mut cluster = ClusterEngine::loopback_durable(
            net.clone(),
            ecfg,
            &plans,
            RetryPolicy::default(),
            DurabilityConfig::in_memory(4),
        );
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=12usize {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_answers_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("S={shards}, R={replicas}, failover run, tick {t}"),
            );
        }
        let stats = cluster.stats();
        assert!(
            stats.failovers >= 1,
            "S={shards}, R={replicas}: the dead shard never failed over (stats: {stats:?})"
        );
        assert!(
            stats.replica_appends > 0 && stats.commit_lag_frames > 0,
            "S={shards}, R={replicas}: events were never replicated (stats: {stats:?})"
        );
        assert_eq!(
            stats.fenced_appends, 0,
            "S={shards}, R={replicas}: no stale leader exists in this run (stats: {stats:?})"
        );
        let engine = cluster.engine();
        assert_eq!(
            engine.takeovers(),
            0,
            "S={shards}, R={replicas}: failover must preempt planner takeover"
        );
        assert_eq!(
            engine.live_shards(),
            shards,
            "S={shards}, R={replicas}: the promoted follower keeps the shard alive"
        );
        assert!(
            engine.links()[0].epoch() >= 1,
            "S={shards}, R={replicas}: promotion must bump the leadership epoch"
        );
    }
}

#[test]
fn seeded_chaos_schedule_survives_duplication_partition_and_crash() {
    // One seeded chaos schedule per run: shard 0 crashes with stillborn
    // respawns (failover via the recovery path), shard 2's link turns
    // into a one-way partition (outbound black-hole — failover via
    // retransmit-budget exhaustion, the asymmetric failure no Closed
    // error ever signals), and the other shards see every Nth frame
    // duplicated. Answers must stay bit-identical throughout and both
    // failovers must land without a single planner takeover.
    let net = grid(7, 9, 7);
    let cfg = base_cfg(77);
    for seed in [71u64, 72] {
        let shards = 4usize;
        let ecfg = EngineConfig {
            num_shards: shards,
            algo: ShardAlgo::Ima,
            replication: ReplicationConfig::with_replicas(2),
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let plans = vec![
            FaultPlan {
                crash_after_frames: seeded_crash_frame(seed, 0),
                respawn_dead: true,
                ..Default::default()
            },
            FaultPlan {
                duplicate_every: 3,
                ..Default::default()
            },
            FaultPlan {
                partition_after_frames: seeded_crash_frame(seed, 2),
                ..Default::default()
            },
            FaultPlan {
                duplicate_every: 5,
                ..Default::default()
            },
        ];
        // A short reply timeout keeps the partition's retransmit budget
        // cheap; correctness never depends on the timing.
        let policy = RetryPolicy {
            timeout: Duration::from_millis(100),
            max_retries: 3,
        };
        let mut cluster = ClusterEngine::loopback_durable(
            net.clone(),
            ecfg,
            &plans,
            policy,
            DurabilityConfig::in_memory(4),
        );
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=12usize {
            let batch = scenario.tick();
            let ri = inproc.tick(&batch);
            let rc = cluster.tick(&batch);
            assert_answers_identical(
                &inproc,
                &cluster,
                Some((&ri, &rc)),
                &format!("chaos seed={seed}, tick {t}"),
            );
        }
        let stats = cluster.stats();
        assert!(
            stats.failovers >= 2,
            "seed={seed}: both the crashed and the partitioned shard must fail over \
             (stats: {stats:?})"
        );
        let engine = cluster.engine();
        assert_eq!(engine.takeovers(), 0, "seed={seed}: no takeover");
        assert_eq!(engine.live_shards(), shards, "seed={seed}: all shards live");
        assert!(
            engine.links()[0].epoch() >= 1 && engine.links()[2].epoch() >= 1,
            "seed={seed}: both failed-over links must carry bumped epochs"
        );
    }
}

#[test]
fn stale_leader_appends_are_provably_fenced() {
    // A real follower ([`ReplicaNode`], not a scripted ack loop) that has
    // seen epoch 7 must refuse an append from a leader still at epoch 2:
    // the append comes back as a typed `ClusterError::Fenced` carrying
    // the newer term, the fenced-append counter trips, and nothing
    // commits — a partitioned stale leader can never merge writes.
    let (mut co, peer) = loopback_pair(FaultPlan::default());
    let net = grid(4, 4, 8);
    let edges = net.num_edges();
    let follower = std::thread::spawn(move || {
        ReplicaNode::new(peer, Box::new(move || Box::new(Gma::new(net))), edges).run();
    });

    // The legitimate leader (epoch 7) replicates one event.
    let event = Frame {
        tag: MsgTag::TickEvents,
        seq: 0,
        epoch: 7,
        payload: vec![0xAB; 6],
    }
    .to_bytes();
    let append = Frame {
        tag: MsgTag::Append,
        seq: 0,
        epoch: 7,
        payload: event,
    }
    .to_bytes();
    co.send(&append).expect("append to live follower");
    let ack = co
        .recv_timeout(Duration::from_secs(2))
        .expect("follower acks the epoch-7 append");
    let ack = Frame::from_bytes(&ack).expect("ack decodes");
    assert_eq!((ack.tag, ack.epoch), (MsgTag::AppendAck, 7));

    // A stale leader (epoch 2) adopts the same follower link and tries
    // to append: provably rejected, never committed.
    let mut stale = ReplicatedLog::new(3, vec![Box::new(co) as Box<dyn Transport>], 2, None);
    let mut stats = TransportStats::default();
    let stale_event = Frame {
        tag: MsgTag::TickEvents,
        seq: 1,
        epoch: 2,
        payload: vec![0xCD; 6],
    }
    .to_bytes();
    let err = stale
        .append(1, &stale_event, &mut stats)
        .expect_err("the stale epoch must be fenced");
    assert_eq!(
        err,
        ClusterError::Fenced {
            shard: 3,
            epoch: 2,
            newer: 7
        }
    );
    assert_eq!(stats.fenced_appends, 1, "the fence must be observable");
    assert_eq!(stale.commit_seq(), None, "a fenced append never commits");

    drop(stale); // closes the link; the follower thread exits
    follower.join().expect("follower thread exits cleanly");
}

#[test]
fn takeover_hands_dead_shard_cells_to_survivors() {
    // Shard 0 crashes and every respawn is stillborn, so the recovery
    // budget exhausts and the link goes Down. The engine must adopt its
    // cells via the migration planner and keep answering —
    // answer-identical to the in-process twin (work counters legitimately
    // diverge: survivors re-install the orphaned queries).
    let net = grid(8, 8, 4);
    let cfg = base_cfg(44);
    for (shards, crash_after_frames) in [(2usize, 16u32), (4, 12)] {
        let ecfg = EngineConfig {
            num_shards: shards,
            algo: ShardAlgo::Gma,
            ..EngineConfig::default()
        };
        let mut inproc = ShardedEngine::new(net.clone(), ecfg);
        let mut plans = vec![FaultPlan::default(); shards];
        plans[0] = FaultPlan {
            crash_after_frames,
            respawn_dead: true,
            ..Default::default()
        };
        let mut cluster = ClusterEngine::loopback_durable(
            net.clone(),
            ecfg,
            &plans,
            RetryPolicy::default(),
            DurabilityConfig::in_memory(4),
        );
        let mut scenario = Scenario::new(net.clone(), cfg.clone());
        scenario.install_into(&mut inproc);
        scenario.install_into(&mut cluster);
        for t in 1..=12usize {
            let batch = scenario.tick();
            inproc.tick(&batch);
            cluster.tick(&batch);
            assert_answers_identical(
                &inproc,
                &cluster,
                None,
                &format!("S={shards}, takeover run, tick {t}"),
            );
            cluster
                .engine()
                .validate_replication()
                .expect("replication invariants hold through takeover");
        }
        let engine = cluster.engine();
        assert!(
            engine.takeovers() >= 1,
            "S={shards}: the dead shard was never taken over"
        );
        assert!(
            engine.is_shard_dead(0),
            "S={shards}: shard 0 should be dead"
        );
        assert_eq!(
            engine.live_shards(),
            shards - 1,
            "S={shards}: exactly one shard should have died"
        );
        // The corpse's recovery failure surfaced as a typed error, not a
        // panic (the pre-durability code killed the whole coordinator
        // here).
        let err = cluster.engine().links()[0].last_error();
        assert!(
            err.is_some(),
            "S={shards}: dead link must report a ClusterError"
        );
    }
}

#[test]
fn takeover_survives_repeated_deaths_down_to_one_shard() {
    // Kill three of four shards at staggered points; the single survivor
    // ends up owning the whole network and must still answer correctly.
    let net = grid(6, 6, 5);
    let shards = 4usize;
    let ecfg = EngineConfig {
        num_shards: shards,
        algo: ShardAlgo::Gma,
        ..EngineConfig::default()
    };
    let mut inproc = ShardedEngine::new(net.clone(), ecfg);
    let plans: Vec<FaultPlan> = (0..shards)
        .map(|s| {
            if s == 3 {
                FaultPlan::default()
            } else {
                FaultPlan {
                    crash_after_frames: 8 + 4 * s as u32,
                    respawn_dead: true,
                    ..Default::default()
                }
            }
        })
        .collect();
    let mut cluster = ClusterEngine::loopback_durable(
        net.clone(),
        ecfg,
        &plans,
        RetryPolicy::default(),
        DurabilityConfig::default(),
    );
    let mut scenario = Scenario::new(net.clone(), base_cfg(55));
    scenario.install_into(&mut inproc);
    scenario.install_into(&mut cluster);
    for t in 1..=14usize {
        let batch = scenario.tick();
        inproc.tick(&batch);
        cluster.tick(&batch);
        assert_answers_identical(&inproc, &cluster, None, &format!("cascade, tick {t}"));
        cluster
            .engine()
            .validate_replication()
            .expect("replication invariants hold through cascading takeovers");
    }
    let engine = cluster.engine();
    assert_eq!(engine.takeovers(), 3, "three shards were scheduled to die");
    assert_eq!(engine.live_shards(), 1, "only shard 3 survives");
    assert!(!engine.is_shard_dead(3));
}

#[test]
fn first_tick_after_a_restore_ships_what_the_uncrashed_shard_ships() {
    // A shard keeps nothing between exchanges but its monitor, so a
    // restored shard has nothing else to rebuild: its first reply after
    // the snapshot install is the monitor's change list, exactly as on the
    // shard that never crashed — one snapshot for the one query that
    // moved, not a re-ship of everything the restore recomputed.
    use rnn_monitor::cluster::ShardService;
    use rnn_monitor::core::{ObjectEvent, QueryEvent};
    use rnn_monitor::engine::{BatchKind, DeltaBatch, TickOutcome};
    use rnn_monitor::roadnet::{EdgeId, NetPoint, ObjectId, QueryId, WireCodec, WireReader};

    let net = grid(6, 6, 4);
    let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
    let events = |seq: u32, objects: Vec<ObjectEvent>, queries: Vec<QueryEvent>| {
        let mut payload = Vec::new();
        DeltaBatch {
            objects,
            queries,
            shared_edges: Arc::new(Vec::new()),
            kind: BatchKind::Tick,
        }
        .encode(&mut payload);
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload,
        }
    };
    let service = || {
        let (_coordinator_side, peer) = loopback_pair(FaultPlan::default());
        ShardService::new(peer, Box::new(Gma::new(net.clone())), net.num_edges())
    };
    let snapshots = |reply: Vec<u8>| {
        let reply = Frame::from_bytes(&reply).unwrap();
        assert_eq!(reply.tag, MsgTag::TickReply);
        TickOutcome::decode(&mut WireReader::new(&reply.payload))
            .unwrap()
            .snapshots
    };

    let mut live = service();
    let population = events(
        0,
        (0..30u32)
            .map(|o| ObjectEvent::Insert {
                id: ObjectId(o),
                at: at(o * 2 % 60, 0.3),
            })
            .collect(),
        (0..6u32)
            .map(|q| QueryEvent::Install {
                id: QueryId(q),
                k: 3,
                at: at(q * 9, 0.6),
            })
            .collect(),
    );
    assert_eq!(snapshots(live.handle(population).unwrap()).len(), 6);
    let state = live
        .handle(Frame {
            tag: MsgTag::SnapshotRequest,
            seq: 1,
            epoch: 0,
            payload: Vec::new(),
        })
        .map(|reply| Frame::from_bytes(&reply).unwrap().payload)
        .expect("Gma snapshots");

    let mut restored = service();
    let ack = restored
        .handle(Frame {
            tag: MsgTag::SnapshotInstall,
            seq: 1,
            epoch: 0,
            payload: state,
        })
        .unwrap();
    assert_eq!(Frame::from_bytes(&ack).unwrap().payload, [1]);

    let one_move = events(
        2,
        vec![],
        vec![QueryEvent::Move {
            id: QueryId(4),
            to: at(41, 0.2),
        }],
    );
    let from_live = snapshots(live.handle(one_move.clone()).unwrap());
    let from_restored = snapshots(restored.handle(one_move).unwrap());
    assert_eq!(from_live.len(), 1, "one query moved, one snapshot ships");
    assert_eq!(from_live[0].id, QueryId(4));
    assert_eq!(from_restored, from_live);

    // And an idle exchange ships nothing from either.
    let idle = events(3, vec![], vec![]);
    assert!(snapshots(live.handle(idle.clone()).unwrap()).is_empty());
    assert!(snapshots(restored.handle(idle).unwrap()).is_empty());
}
