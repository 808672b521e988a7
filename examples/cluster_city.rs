//! The sharded-city scenario, deployed as a real multi-process cluster:
//! the parent re-executes itself four times as shard servers, each child
//! binds a Unix domain socket and serves one GMA monitor, and the
//! coordinator drives the same workload as `sharded_city` over the RPC
//! layer — then prints the per-shard frame/byte traffic the delta
//! protocol generated.
//!
//! Halfway through the run one shard process is killed with SIGKILL.
//! Replication is on (one hot-standby follower per shard, riding in
//! the coordinator process), so the coordinator observes the dead
//! socket, bumps the shard's leadership epoch, and *promotes* the
//! follower — which replays its copy of the event log and takes over
//! serving. The shard stays live, no partition cells move, and the
//! remaining ticks still match the single-process oracle bit-for-bit.
//! Planner takeover (survivors adopting a dead shard's cells) stays the
//! last resort, but the assertions prove it was never needed.
//!
//! Run with: `cargo run --release --example cluster_city`
//!
//! The shard servers rebuild the road network from the same generator
//! seed instead of receiving it over the wire: network topology is
//! static, so shipping it would only bloat the bootstrap.

use std::process::{Child, Command};
use std::sync::Arc;

use rnn_monitor::cluster::serve_unix;
use rnn_monitor::engine::{EngineConfig, ReplicationConfig, ShardAlgo};
use rnn_monitor::roadnet::{generators, RoadNetwork};
use rnn_monitor::workload::{Scenario, ScenarioConfig};
use rnn_monitor::{ClusterEngine, ContinuousMonitor, Gma, RetryPolicy};

const NUM_SHARDS: usize = 4;

fn city() -> Arc<RoadNetwork> {
    Arc::new(generators::san_francisco_like(1_500, 7))
}

/// The shard whose leader process gets SIGKILLed mid-run to
/// demonstrate follower promotion.
const KILLED_SHARD: usize = 3;
/// The timestamp after which the kill happens.
const KILL_AT: usize = 5;

fn engine_config() -> EngineConfig {
    EngineConfig {
        num_shards: NUM_SHARDS,
        algo: ShardAlgo::Gma,
        // One hot-standby follower per shard, which must ack every
        // event before it commits. The follower threads live in the
        // coordinator process, so a shard *process* dying is exactly the
        // failure they cover.
        replication: ReplicationConfig::with_replicas(1),
        ..EngineConfig::default()
    }
}

/// Child mode: `cluster_city shard-server <socket-path>` — build the
/// same network the coordinator holds, then serve one shard monitor on
/// the socket until the coordinator sends the shutdown frame.
fn shard_server(path: &str) {
    let net = city();
    let edges = net.num_edges();
    let monitor = engine_config().make_monitor(net);
    serve_unix(std::path::Path::new(path), monitor, edges).expect("shard server failed");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "shard-server" {
        shard_server(&args[2]);
        return;
    }

    let net = city();
    println!(
        "network: {} nodes, {} edges",
        net.num_nodes(),
        net.num_edges()
    );

    // One socket per shard in a throwaway directory; each child serves
    // exactly one coordinator connection.
    let dir = std::env::temp_dir().join(format!("rnn-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let paths: Vec<std::path::PathBuf> = (0..NUM_SHARDS)
        .map(|s| dir.join(format!("shard-{s}.sock")))
        .collect();
    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<Child> = paths
        .iter()
        .map(|p| {
            Command::new(&exe)
                .arg("shard-server")
                .arg(p)
                .spawn()
                .expect("spawn shard server")
        })
        .collect();
    println!(
        "spawned {} shard processes: {:?}",
        children.len(),
        children.iter().map(|c| c.id()).collect::<Vec<_>>()
    );

    // The coordinator retries each connect while the children bind.
    let mut cluster =
        ClusterEngine::connect_unix(net.clone(), engine_config(), &paths, RetryPolicy::default())
            .expect("connect to shard servers");

    // Same workload and oracle as the in-process `sharded_city` example.
    let cfg = ScenarioConfig {
        num_objects: 3_000,
        num_queries: 120,
        k: 8,
        seed: 2024,
        ..Default::default()
    };
    let mut reference = Gma::new(net.clone());
    let scenario = Scenario::new(net.clone(), cfg.clone());
    scenario.install_into(&mut reference);
    let mut scenario = Scenario::new(net.clone(), cfg);
    scenario.install_into(&mut cluster);

    println!("\ndriving 10 timestamps over the socket cluster...");
    for t in 1..=10 {
        if t == KILL_AT + 1 {
            // SIGKILL one shard server between ticks: no shutdown frame,
            // no flush — the coordinator just finds the socket dead and
            // must promote the shard's follower replica.
            children[KILLED_SHARD].kill().expect("kill shard server");
            children[KILLED_SHARD].wait().expect("reap shard server");
            println!("  -- killed shard {KILLED_SHARD}'s leader process (SIGKILL, no warning)");
        }
        let batch = scenario.tick();
        reference.tick(&batch);
        let rep = cluster.tick(&batch);

        let differ = cluster
            .query_ids()
            .into_iter()
            .filter(|&q| {
                reference.result(q) != cluster.result(q)
                    || reference.knn_dist(q) != cluster.knn_dist(q)
            })
            .count();
        println!(
            "  t={t:2}: {:3} results changed, {differ} answers differ from the oracle",
            rep.results_changed
        );
        assert_eq!(differ, 0, "cluster diverged from the oracle");
    }

    println!("\nper-shard transport counters after 10 ticks:");
    for (s, st) in cluster.shard_stats().iter().enumerate() {
        println!(
            "  shard {s}: {:4} frames out / {:4} in, {:8} bytes out / {:8} in, \
             {} retries, {} corrupt",
            st.frames_sent,
            st.frames_received,
            st.bytes_sent,
            st.bytes_received,
            st.retries,
            st.corrupt_frames
        );
    }
    let total = cluster.stats();
    println!(
        "  total: {} frames, {} KiB on the wire",
        total.frames_sent + total.frames_received,
        (total.bytes_sent + total.bytes_received) / 1024
    );

    let engine = cluster.engine();
    println!("\nfail-over after the SIGKILL:");
    println!(
        "  shard {KILLED_SHARD} dead: {}, live shards: {}/{}, follower promotions: {}, \
         takeovers executed: {}",
        engine.is_shard_dead(KILLED_SHARD),
        engine.live_shards(),
        NUM_SHARDS,
        total.failovers,
        engine.takeovers()
    );
    assert!(
        !engine.is_shard_dead(KILLED_SHARD),
        "the promoted follower should be serving shard {KILLED_SHARD}"
    );
    assert_eq!(
        engine.live_shards(),
        NUM_SHARDS,
        "promotion kept every shard live"
    );
    assert!(total.failovers >= 1, "no follower was promoted");
    assert_eq!(total.fenced_appends, 0, "a healthy run must not fence");
    assert_eq!(
        engine.takeovers(),
        0,
        "promotion must pre-empt the takeover planner"
    );

    // Dropping the engine ships the shutdown frames; the surviving
    // children exit cleanly (the killed one was reaped at kill time).
    drop(cluster);
    for (s, c) in children.iter_mut().enumerate() {
        if s == KILLED_SHARD {
            continue;
        }
        let status = c.wait().expect("wait for shard server");
        assert!(status.success(), "a shard server exited with {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nOK: answers identical to the single-process oracle through the kill; \
         shard {KILLED_SHARD}'s follower was promoted in place — no cells moved, \
         and the survivors exited cleanly."
    );
}
