//! Drives OVH, IMA and GMA side by side on the same city-scale workload and
//! prints a per-timestamp scoreboard: identical answers, very different
//! amounts of work — the paper's headline claim, live.
//!
//! ```text
//! cargo run --release --example algorithm_faceoff
//! ```

use std::sync::Arc;

use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, Ovh};
use rnn_monitor::roadnet::generators::san_francisco_like;
use rnn_monitor::workload::{Scenario, ScenarioConfig};

fn main() {
    // A 1/20-scale Table 2 setup: 500-edge map, 5K objects, 250 queries.
    let net = Arc::new(san_francisco_like(500, 11));
    let cfg = ScenarioConfig {
        num_objects: 5_000,
        num_queries: 250,
        k: 10,
        seed: 4,
        ..Default::default()
    };
    let mut scenario = Scenario::new(net.clone(), cfg);

    let mut monitors: Vec<Box<dyn ContinuousMonitor>> = vec![
        Box::new(Ovh::new(net.clone())),
        Box::new(Ima::new(net.clone())),
        Box::new(Gma::new(net.clone())),
    ];
    for m in &mut monitors {
        scenario.install_into(m.as_mut());
    }

    println!(
        "{} edges, {} objects, {} queries, k = {}\n",
        net.num_edges(),
        5_000,
        250,
        10
    );
    println!(
        "{:>3} | {:>10} {:>10} {:>10} | {:>9} {:>9} {:>9} | identical?",
        "ts", "OVH work", "IMA work", "GMA work", "OVH ms", "IMA ms", "GMA ms"
    );

    for t in 1..=12 {
        let batch = scenario.tick();
        let mut work = Vec::new();
        let mut ms = Vec::new();
        for m in &mut monitors {
            let rep = m.tick(&batch);
            work.push(rep.counters.work());
            ms.push(rep.elapsed.as_secs_f64() * 1e3);
        }
        // Verify all three give every query the same answer, ids included.
        let mut ids = monitors[0].query_ids();
        ids.sort();
        let identical = ids.iter().all(|&q| {
            monitors[1..].iter().all(|m| {
                m.result(q) == monitors[0].result(q) && m.knn_dist(q) == monitors[0].knn_dist(q)
            })
        });
        println!(
            "{:>3} | {:>10} {:>10} {:>10} | {:>9.3} {:>9.3} {:>9.3} | {}",
            t,
            work[0],
            work[1],
            work[2],
            ms[0],
            ms[1],
            ms[2],
            if identical { "yes" } else { "NO!" }
        );
        assert!(identical, "monitors diverged — this would be a bug");
    }

    if let Some(groups) = monitors[2].active_groups() {
        println!("\nGMA monitored {groups} active intersection nodes for 250 queries");
    }
}
