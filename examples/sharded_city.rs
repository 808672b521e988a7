//! Sharded monitoring of a mid-size city: partitions the network into four
//! regions, runs one GMA monitor per region on its own thread, and shows
//! that the fleet's answers match a single global monitor while reporting
//! the sharding internals (partition shape, halo radii, replica counts).
//!
//! Run with: `cargo run --release --example sharded_city`

use std::sync::Arc;

use rnn_monitor::engine::{EngineConfig, ShardAlgo, ShardedEngine};
use rnn_monitor::roadnet::generators;
use rnn_monitor::workload::{Scenario, ScenarioConfig};
use rnn_monitor::{ContinuousMonitor, Gma};

fn main() {
    let net = Arc::new(generators::san_francisco_like(1_500, 7));
    println!(
        "network: {} nodes, {} edges",
        net.num_nodes(),
        net.num_edges()
    );

    let cfg = ScenarioConfig {
        num_objects: 3_000,
        num_queries: 120,
        k: 8,
        seed: 2024,
        ..Default::default()
    };

    // One update stream, two consumers: a single global GMA and the 4-shard
    // engine. Identical seeds produce identical batches.
    let mut reference = Gma::new(net.clone());
    let mut engine = ShardedEngine::new(
        net.clone(),
        EngineConfig {
            num_shards: 4,
            algo: ShardAlgo::Gma,
            ..EngineConfig::default()
        },
    );

    let scenario = Scenario::new(net.clone(), cfg.clone());
    scenario.install_into(&mut reference);
    let mut scenario = Scenario::new(net.clone(), cfg);
    scenario.install_into(&mut engine);

    println!("\npartition:");
    for view in engine.partition().views() {
        println!(
            "  shard {}: {:5} edges, {:5} nodes, {:3} boundary nodes",
            view.shard,
            view.edges.len(),
            view.nodes.len(),
            view.boundary_nodes.len()
        );
    }

    println!("\ndriving 10 timestamps...");
    let mut ref_elapsed = std::time::Duration::ZERO;
    let mut eng_elapsed = std::time::Duration::ZERO;
    let mut critical_path = std::time::Duration::ZERO;
    for t in 1..=10 {
        let batch = scenario.tick();
        ref_elapsed += reference.tick(&batch).elapsed;
        let rep = engine.tick(&batch);
        eng_elapsed += rep.elapsed;
        critical_path += engine.worker_report().elapsed;

        // Every query's answer and kNN_dist against the oracle's.
        let differ = engine
            .query_ids()
            .into_iter()
            .filter(|&q| {
                reference.result(q) != engine.result(q)
                    || reference.knn_dist(q) != engine.knn_dist(q)
            })
            .count();
        println!(
            "  t={t:2}: {:3} results changed, {differ} answers differ from the oracle",
            rep.results_changed
        );
        assert_eq!(differ, 0, "sharded engine diverged from the oracle");
    }

    println!("\nsharding internals after 10 ticks:");
    for s in 0..engine.num_shards() {
        println!("  shard {s}: halo radius {:.3}", engine.halo_radius(s));
    }
    println!("  object replicas: {}", engine.replica_count());
    println!(
        "\nwall clock: single GMA {ref_elapsed:.2?}, 4-shard engine {eng_elapsed:.2?} \
         (worker critical path {critical_path:.2?})"
    );
    println!(
        "(on a single-core host the engine pays thread hand-off costs; \
              on multi-core hardware the shards tick concurrently)"
    );
    println!("\nOK: answers identical to the single-threaded oracle.");
}
