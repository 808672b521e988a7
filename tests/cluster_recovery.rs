//! Crash-recovery differentials for the durability plane: a cluster
//! whose shards snapshot their monitor state and journal every event
//! frame must survive mid-run crashes by **snapshot install + journal
//! suffix replay** — answer-identical to an uncrashed in-process twin —
//! and, when a shard stays dead past its recovery budget, survivors
//! must **take over** its cells through the migration planner.
//!
//! The differential rows run on the harness in `tests/common` (its module
//! docs say how to add one): answers, `kNN_dist` bits, `results_changed`
//! and change lists compare with `==`, ids included. Every monitor answers
//! with the k smallest `(dist, id)`, which a restore reproduces whatever
//! order its objects arrived in.
//!
//! Counter discipline: a restored monitor answers identically but its
//! allocator-history counters (pools warmed by restore, not the full
//! run) and tree-shape-history counters (expansion trees recomputed on
//! load, not replayed install-by-install) legitimately diverge, so a
//! snapshot-recovery row makes each cluster the restore-stable twin
//! (`common::Counters::RestoreStable`) of an in-process engine: answers,
//! result churn and pure expansion work stay bit-identical. A takeover
//! row compares answers only: survivors re-install the orphaned queries.
//! The snapshot-free full journal replay path stays *exactly*
//! bit-identical, every counter included, and is covered by
//! `cluster_differential.rs`.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{base_cfg, drive, drive_observed, grid, Counters, Plane, Stack};
use rnn_monitor::cluster::{
    loopback_pair, wal, ClusterEngine, ClusterError, DurabilityConfig, FaultPlan, Frame, MsgTag,
    ReplicaNode, ReplicatedLog, RetryPolicy, Transport,
};
use rnn_monitor::core::{ContinuousMonitor, Gma, TransportStats};
use rnn_monitor::engine::{EngineConfig, ReplicationConfig, ShardAlgo};
use rnn_monitor::roadnet::RoadNetwork;
use rnn_monitor::workload::{Scenario, ScenarioConfig};

/// A shard config of `algo` at S shards with `replicas` followers each.
fn shards(num_shards: usize, algo: ShardAlgo, replicas: u32) -> EngineConfig {
    EngineConfig {
        num_shards,
        algo,
        replication: ReplicationConfig::with_replicas(replicas),
        ..EngineConfig::default()
    }
}

/// The loopback plane of a durable cluster whose links snapshot every
/// `snapshot_every` event frames in memory.
fn in_memory(plans: Vec<FaultPlan>, snapshot_every: u32) -> Plane {
    Plane {
        plans,
        durability: DurabilityConfig::in_memory(snapshot_every),
        ..Plane::default()
    }
}

/// A plan whose shard dies after `frames` delivered frames and, if
/// `stillborn`, never comes back from a respawn.
fn crash(frames: u32, stillborn: bool) -> FaultPlan {
    FaultPlan {
        crash_after_frames: frames,
        respawn_dead: stillborn,
        ..Default::default()
    }
}

/// Crashes shard 0 mid-run with snapshots every `snapshot_every` event
/// frames, at S ∈ {2, 4} on the 8×8 grid; recovery must install the
/// latest snapshot and replay only the journal suffix.
fn recovery_row(
    algo: ShardAlgo,
    cfg: ScenarioConfig,
    ticks: usize,
    snapshot_every: u32,
    crash_after_frames: u32,
) {
    let net = grid(8, 8, 1);
    let mut stacks = Stack::pairs(
        &[2, 4],
        |s| Stack::eng(&net, shards(s, algo, 0)),
        |s| {
            let plans = Plane::shard_0(crash(crash_after_frames, false), s);
            Stack::clu(&net, shards(s, algo, 0), &in_memory(plans, snapshot_every))
        },
        Counters::RestoreStable,
    );
    drive(&mut Scenario::new(net.clone(), cfg), &mut stacks, ticks).unwrap();
    for clu in stacks.iter().skip(1).step_by(2) {
        let name = &clu.name;
        let all = clu.clu_ref().shard_stats();
        let s0 = &all[0];
        assert!(
            s0.snapshots > 0,
            "{name}: snapshot cycle never fired (stats: {s0:?})"
        );
        assert!(
            s0.crash_recoveries >= 1,
            "{name}: the planned crash must have fired (stats: {s0:?})"
        );
        // Bounded-time recovery: each rebuild replays at most the journal
        // suffix accumulated since the last snapshot (plus the in-flight
        // frame), never the whole history.
        let per_recovery_bound = u64::from(snapshot_every) + 2;
        assert!(
            s0.frames_replayed <= s0.crash_recoveries * per_recovery_bound,
            "{name}: replay not bounded by the WAL suffix: {} frames over {} recoveries \
             (snapshot_every={snapshot_every})",
            s0.frames_replayed,
            s0.crash_recoveries,
        );
        // The coordinator journal is truncated behind every durable
        // snapshot instead of growing without bound.
        for (s, st) in all.iter().enumerate() {
            assert!(
                st.journal_len < u64::from(snapshot_every),
                "{name}, shard {s}: journal not truncated behind snapshots (stats: {st:?})"
            );
        }
    }
}

#[test]
fn cluster_recovers_from_snapshot_plus_journal_suffix() {
    recovery_row(ShardAlgo::Gma, base_cfg(11), 12, 3, 14);
}

#[test]
fn cluster_recovers_with_sparse_snapshots() {
    recovery_row(ShardAlgo::Gma, base_cfg(11), 12, 8, 12);
}

#[test]
fn cluster_recovers_after_query_moves_and_weight_churn() {
    // Every query moves every tick and a fifth of the edges reprice, so
    // by the time shard 0 crashes its IMA monitor has re-rooted trees by
    // shifting their distances. A fresh monitor must reproduce the
    // snapshot it recovers from exactly — distances are multiples of one
    // unit and ties go by id, so neither summation order nor arrival
    // order shows — or the restore fails (`RestoreRejected`); from then on
    // the run must match the uncrashed twin in answers, restore-stable
    // counters and `results_changed`.
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
    recovery_row(ShardAlgo::Ima, cfg, 30, 4, 20);
}

#[test]
fn cluster_recovers_from_seeded_random_crash_ticks() {
    // Every shard gets its own crash point; each must recover from its
    // snapshot + suffix with answers indistinguishable from the uncrashed
    // twin. What a shard is delivered: one or two frames of installation
    // (the population is a single timestamp: its batch, plus a resync
    // round where a halo grew), then four frames every three ticks or so
    // (the tick's batch, a resync round now and then, a snapshot request
    // every fourth event frame) — 16 to 20 over the 12-tick run at either
    // S. Frames 1 to 8 spread the crashes over the install phase and the
    // first five ticks: every shard's budget is reached, and a shard
    // recovers by full replay or from an early snapshot. Not every frame
    // in that span keeps `updates_ignored` equal to the twin's: on the S =
    // 2 cluster, shard 0 crashing at frame 5, 6 or 7 ignores one update
    // more than the uncrashed twin does a tick or two later.
    let net = grid(7, 9, 2);
    let runs: [&[u32]; 3] = [&[4, 2], &[8, 2, 6, 7], &[4, 6, 3, 2]];
    let (mut stacks, mut twin) = (Vec::new(), 0);
    for (i, frames) in runs.into_iter().enumerate() {
        let s = frames.len();
        // One ENG-S per shard count, the twin of every cluster at it.
        if i == 0 || runs[i - 1].len() != s {
            twin = stacks.len();
            stacks.push(Stack::eng(&net, shards(s, ShardAlgo::Ima, 0)));
        }
        let plans = frames.iter().map(|&frame| crash(frame, false));
        let plane = in_memory(plans.collect(), 4);
        let clu = Stack::clu(&net, shards(s, ShardAlgo::Ima, 0), &plane);
        stacks.push(clu.twin(twin, Counters::RestoreStable));
    }
    drive(
        &mut Scenario::new(net.clone(), base_cfg(22)),
        &mut stacks,
        12,
    )
    .unwrap();
    let clusters = stacks.iter().filter(|st| st.twin_of().is_some());
    for (frames, clu) in runs.into_iter().zip(clusters) {
        let stats = clu.clu_ref().stats();
        assert!(
            stats.crash_recoveries >= frames.len() as u64,
            "crashes at {frames:?}: every shard was scheduled to crash (stats: {stats:?})"
        );
        assert!(
            stats.snapshots > 0,
            "crashes at {frames:?}: no snapshots taken"
        );
    }
}

#[test]
fn on_disk_durability_persists_snapshot_and_torn_tail_safe_wal() {
    let root =
        std::env::temp_dir().join(format!("rnn-recovery-{}-{}", std::process::id(), line!()));
    let _ = std::fs::remove_dir_all(&root);

    let net = grid(8, 8, 3);
    let cfg = shards(2, ShardAlgo::Gma, 0);
    // Shard 0 is delivered 2 frames by installation and 15 by the end of
    // the 10-tick run: 8 frames is tick 4 or 5, after its first on-disk
    // snapshot (one every 4 event frames) and with a WAL suffix to replay.
    let plane = Plane {
        plans: Plane::shard_0(crash(8, false), 2),
        durability: DurabilityConfig::on_disk(4, root.clone()),
        ..Plane::default()
    };
    let mut stacks = vec![
        Stack::eng(&net, cfg),
        Stack::clu(&net, cfg, &plane).twin(0, Counters::RestoreStable),
    ];
    drive(
        &mut Scenario::new(net.clone(), base_cfg(33)),
        &mut stacks,
        10,
    )
    .unwrap();
    let cluster = stacks[1].clu_ref();
    let stats = cluster.stats();
    assert!(stats.snapshots > 0 && stats.crash_recoveries >= 1);
    assert!(
        stats.snapshot_bytes > 0,
        "durable snapshot missing (stats: {stats:?})"
    );

    for s in 0..cfg.num_shards {
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

    drop(stacks);
    let _ = std::fs::remove_dir_all(&root);
}

/// One failover input: shard count, followers per shard, snapshot
/// cadence, shard 0's crash frame, and the follower-only offers that must
/// precede the failover.
type Failover = (usize, u32, u32, u32, u64);

/// Shard 0 of every input crashes and every respawn is stillborn; each
/// cluster, the restore-stable twin of an `ENG-S`, must fail over to a
/// follower and stay answer-identical, with zero planner takeovers.
fn failover_row(net: &Arc<RoadNetwork>, cfg: ScenarioConfig, ticks: usize, inputs: &[Failover]) {
    let (mut stacks, mut twin) = (Vec::new(), 0);
    for (i, &(s, replicas, snapshot_every, crash_frame, _)) in inputs.iter().enumerate() {
        let cfg = shards(s, ShardAlgo::Gma, replicas);
        // One ENG-S per shard count (it ignores replication), the twin of
        // every cluster at it.
        if i == 0 || inputs[i - 1].0 != s {
            twin = stacks.len();
            stacks.push(Stack::eng(net, cfg));
        }
        let plane = in_memory(Plane::shard_0(crash(crash_frame, true), s), snapshot_every);
        stacks.push(Stack::clu(net, cfg, &plane).twin(twin, Counters::RestoreStable));
    }
    // Snapshot captures shard 0's link made only for its followers before
    // the tick that failed over: until then no frame is retransmitted, so
    // every frame sent past the replicated events is a snapshot request,
    // and `snapshots` counts those the log installed.
    let mut before: Vec<Option<TransportStats>> = vec![None; stacks.len()];
    let mut offers: Vec<Option<u64>> = vec![None; stacks.len()];
    drive_observed(
        &mut Scenario::new(net.clone(), cfg),
        &mut stacks,
        ticks,
        |_, stacks| {
            for (i, clu) in stacks.iter().enumerate() {
                if clu.twin_of().is_none() {
                    continue;
                }
                let now = clu.clu_ref().shard_stats()[0];
                if let (None, Some(b)) = (offers[i], before[i]) {
                    if now.failovers > 0 {
                        offers[i] = Some(b.frames_sent - b.commit_lag_frames - b.snapshots);
                    }
                }
                before[i] = Some(now);
            }
        },
    )
    .unwrap();
    let clusters = stacks
        .iter()
        .enumerate()
        .filter(|(_, st)| st.twin_of().is_some());
    for (&(s, replicas, .., want_offers), (i, clu)) in inputs.iter().zip(clusters) {
        let name = format!("S={s}, R={replicas}");
        assert!(
            offers[i] >= Some(want_offers),
            "{name}: {:?} follower-only offers preceded the crash, {want_offers} expected",
            offers[i]
        );
        let stats = clu.clu_ref().stats();
        assert!(
            stats.failovers >= 1,
            "{name}: the dead shard never failed over (stats: {stats:?})"
        );
        assert!(
            stats.replica_appends > 0 && stats.commit_lag_frames > 0,
            "{name}: events were never replicated (stats: {stats:?})"
        );
        assert_eq!(
            stats.fenced_appends, 0,
            "{name}: no stale leader exists in this run (stats: {stats:?})"
        );
        let engine = clu.clu_ref().engine();
        assert_eq!(
            engine.takeovers(),
            0,
            "{name}: failover must preempt planner takeover"
        );
        assert_eq!(
            engine.live_shards(),
            s,
            "{name}: the promoted follower keeps the shard alive"
        );
        assert!(
            engine.links()[0].epoch() >= 1,
            "{name}: promotion must bump the leadership epoch"
        );
    }
}

#[test]
fn failover_promotes_follower_and_stays_answer_identical() {
    // Shard 0 crashes at frame 8 or 5 and every respawn is stillborn,
    // so the recovery budget exhausts — but with follower replicas
    // attached the link must *fail over* instead of dying: a follower
    // rebuilds the shard from its own replicated log (snapshot install +
    // local suffix replay) and the run stays answer-identical to the
    // in-process twin, with zero planner takeovers.
    let net = grid(8, 8, 6);
    let inputs = [
        (2, 1, 4, 8, 0),
        (2, 2, 4, 5, 0),
        (4, 1, 4, 8, 0),
        (4, 2, 4, 5, 0),
    ];
    failover_row(&net, base_cfg(66), 12, &inputs);
    // The last input promotes a follower whose log was last truncated by
    // an offer the leader's own log never installed. It snapshots to disk
    // every 20 frames, on a stream where every object moves every tick.
    // The first disk snapshot (tick 13) gives the followers a size to
    // compare with; 13 frames later (tick 25) their logs outweigh four of
    // it and they alone are offered a fresh capture. Shard 0 dies at its
    // 37th frame (tick 26), after that offer and before the second disk
    // snapshot (tick 30).
    let firehose = ScenarioConfig {
        object_agility: 1.0,
        ..base_cfg(66)
    };
    failover_row(&net, firehose, 28, &[(2, 2, 20, 36, 1)]);
}

#[test]
fn a_promoted_term_is_stored_and_resumed_on_reopen() {
    // A replicated durable link that promotes stores its bumped term in
    // its log (`epoch.bin`), and a link reopened over the same directory
    // resumes it, so the followers of the term before the restart stay
    // fenced. An unreplicated link over that directory stays at epoch 0:
    // it has no follower to fence.
    let root =
        std::env::temp_dir().join(format!("rnn-recovery-{}-{}", std::process::id(), line!()));
    let _ = std::fs::remove_dir_all(&root);
    let net = grid(8, 8, 6);
    let replicated = EngineConfig {
        num_shards: 2,
        algo: ShardAlgo::Gma,
        replication: ReplicationConfig::with_replicas(1),
        ..EngineConfig::default()
    };
    let open = |cfg: EngineConfig, plans: &[FaultPlan]| {
        let durability = DurabilityConfig::on_disk(4, root.clone());
        ClusterEngine::loopback_durable(net.clone(), cfg, plans, RetryPolicy::default(), durability)
    };
    let epochs = |cluster: &ClusterEngine| -> Vec<u32> {
        cluster.engine().links().iter().map(|l| l.epoch()).collect()
    };

    // Shard 0 dies after its installation and first few ticks, and every
    // respawn is stillborn: its one follower is promoted.
    let dies = FaultPlan {
        crash_after_frames: 4,
        respawn_dead: true,
        ..Default::default()
    };
    let mut cluster = open(replicated, &[dies, FaultPlan::default()]);
    let mut scenario = Scenario::new(net.clone(), base_cfg(66));
    scenario.install_into(&mut cluster);
    for _ in 0..6 {
        cluster.tick(&scenario.tick());
    }
    assert_eq!(cluster.stats().failovers, 1, "{:?}", cluster.stats());
    assert_eq!(
        epochs(&cluster),
        [1, 0],
        "shard 0 promoted once, shard 1 never"
    );
    drop(cluster);
    assert!(root.join("shard-0").join("epoch.bin").exists());
    assert!(!root.join("shard-1").join("epoch.bin").exists());

    let reopened = open(replicated, &[FaultPlan::default()]);
    assert_eq!(epochs(&reopened), [1, 0], "the stored term is resumed");
    drop(reopened);

    let unreplicated = EngineConfig {
        replication: ReplicationConfig::default(),
        ..replicated
    };
    let reopened = open(unreplicated, &[FaultPlan::default()]);
    assert_eq!(epochs(&reopened), [0, 0], "no follower, no term");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn seeded_chaos_schedule_survives_duplication_partition_and_crash() {
    // One chaos schedule per cluster: shard 0 crashes with
    // stillborn respawns (failover via the recovery path), shard 2's link
    // turns into a one-way partition (outbound black-hole — failover via
    // retransmit-budget exhaustion, the asymmetric failure no Closed
    // error ever signals), and the other shards see every Nth frame
    // duplicated. Answers must stay bit-identical throughout and both
    // failovers must land without a single planner takeover.
    let net = grid(7, 9, 7);
    let cfg = shards(4, ShardAlgo::Ima, 2);
    // (shard 0's crash frame, shard 2's partition frame) per cluster.
    let schedules = [(1, 5), (6, 7)];
    let mut stacks = vec![Stack::eng(&net, cfg)];
    for (crash_frame, partition_frame) in schedules {
        let plans = vec![
            crash(crash_frame, true),
            FaultPlan {
                duplicate_every: 3,
                ..Default::default()
            },
            FaultPlan {
                partition_after_frames: partition_frame,
                ..Default::default()
            },
            FaultPlan {
                duplicate_every: 5,
                ..Default::default()
            },
        ];
        // A short reply timeout keeps the partition's retransmit budget
        // cheap; correctness never depends on the timing.
        let plane = Plane {
            policy: RetryPolicy {
                timeout: Duration::from_millis(100),
                max_retries: 3,
            },
            ..in_memory(plans, 4)
        };
        stacks.push(Stack::clu(&net, cfg, &plane).twin(0, Counters::RestoreStable));
    }
    drive(
        &mut Scenario::new(net.clone(), base_cfg(77)),
        &mut stacks,
        12,
    )
    .unwrap();
    for (schedule, clu) in schedules.into_iter().zip(&stacks[1..]) {
        let stats = clu.clu_ref().stats();
        assert!(
            stats.failovers >= 2,
            "{schedule:?}: both the crashed and the partitioned shard must fail over \
             (stats: {stats:?})"
        );
        let engine = clu.clu_ref().engine();
        assert_eq!(engine.takeovers(), 0, "{schedule:?}: no takeover");
        assert_eq!(engine.live_shards(), 4, "{schedule:?}: all shards live");
        assert!(
            engine.links()[0].epoch() >= 1 && engine.links()[2].epoch() >= 1,
            "{schedule:?}: both failed-over links must carry bumped epochs"
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
    let mut stale = ReplicatedLog::new(3, vec![Box::new(co) as Box<dyn Transport>], 2);
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
    // answer-identical to the in-process twin, its replication invariants
    // holding (work counters legitimately diverge: survivors re-install
    // the orphaned queries).
    let net = grid(8, 8, 4);
    let runs = [(2usize, 16u32), (4, 12)];
    let mut stacks = Vec::new();
    for (s, crash_after_frames) in runs {
        let cfg = shards(s, ShardAlgo::Gma, 0);
        let plans = Plane::shard_0(crash(crash_after_frames, true), s);
        stacks.push(Stack::eng(&net, cfg));
        stacks.push(Stack::clu(&net, cfg, &in_memory(plans, 4)));
    }
    drive(
        &mut Scenario::new(net.clone(), base_cfg(44)),
        &mut stacks,
        12,
    )
    .unwrap();
    for ((s, _), pair) in runs.into_iter().zip(stacks.chunks(2)) {
        let engine = pair[1].clu_ref().engine();
        assert!(
            engine.takeovers() >= 1,
            "S={s}: the dead shard was never taken over"
        );
        assert!(engine.is_shard_dead(0), "S={s}: shard 0 should be dead");
        assert_eq!(
            engine.live_shards(),
            s - 1,
            "S={s}: exactly one shard should have died"
        );
        // The corpse's recovery failure surfaced as a typed error, not a
        // panic (the pre-durability code killed the whole coordinator
        // here).
        assert!(
            engine.links()[0].last_error().is_some(),
            "S={s}: dead link must report a ClusterError"
        );
    }
}

#[test]
fn takeover_survives_repeated_deaths_down_to_one_shard() {
    // Kill three of four shards at staggered points; the single survivor
    // ends up owning the whole network and must still answer correctly.
    let net = grid(6, 6, 5);
    let cfg = shards(4, ShardAlgo::Gma, 0);
    let plans = (0..4u32)
        .map(|s| match s {
            3 => FaultPlan::default(),
            _ => crash(8 + 4 * s, true),
        })
        .collect();
    let plane = Plane {
        plans,
        ..Plane::default()
    };
    let mut stacks = vec![Stack::eng(&net, cfg), Stack::clu(&net, cfg, &plane)];
    drive(
        &mut Scenario::new(net.clone(), base_cfg(55)),
        &mut stacks,
        14,
    )
    .unwrap();
    let engine = stacks[1].clu_ref().engine();
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
