//! The paper's §1 motivating scenario, both ways around:
//!
//! 1. **Cabs query clients** — vacant taxis are continuous 3-NN queries
//!    over the pedestrians asking for a ride (network distance = travel
//!    time along streets), monitored with GMA.
//! 2. **Clients claim cabs** (the §7 reverse problem) — for every taxi, the
//!    set of clients closer to it than to any other taxi, monitored with
//!    the CRNN extension.
//!
//! ```text
//! cargo run --example taxi_dispatch
//! ```

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_monitor::core::crnn::Crnn;
use rnn_monitor::core::{
    ContinuousMonitor, Gma, ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent,
};
use rnn_monitor::roadnet::generators::{grid_city, GridCityConfig};
use rnn_monitor::roadnet::{NetPoint, PmrQuadtree};
use rnn_monitor::workload::movement::RandomWalker;
use rnn_monitor::{ObjectId, QueryId};

const NUM_TAXIS: u32 = 4;
const NUM_CLIENTS: u32 = 25;

fn main() {
    let net = Arc::new(grid_city(&GridCityConfig {
        nx: 10,
        ny: 10,
        seed: 3,
        ..Default::default()
    }));
    let quadtree = PmrQuadtree::build(&net); // SI: raw GPS fix -> edge
    let mut rng = StdRng::seed_from_u64(99);

    // Random initial placements via the spatial index, as a positioning
    // device would deliver them (coordinates, not edge ids).
    let random_pos = |rng: &mut StdRng| -> NetPoint {
        let b = net.bounds();
        let xy = rnn_monitor::roadnet::Point2::new(
            b.lo.x + rng.random::<f64>() * b.width(),
            b.lo.y + rng.random::<f64>() * b.height(),
        );
        quadtree.locate(&net, xy).expect("non-empty network")
    };

    // --- Direction 1: taxis are 3-NN queries over clients (GMA).
    let mut dispatch = Gma::new(net.clone());
    // --- Direction 2: clients are assigned to their closest taxi (CRNN).
    let mut claims = Crnn::new(net.clone());

    let mut client_walkers = Vec::new();
    for c in 0..NUM_CLIENTS {
        let pos = random_pos(&mut rng);
        dispatch.apply(UpdateEvent::insert_object(ObjectId(c), pos));
        claims
            .apply(UpdateEvent::insert_object(ObjectId(c), pos))
            .expect("the event fits the network");
        client_walkers.push(RandomWalker::new(&net, pos, &mut rng));
    }
    let mut taxi_walkers = Vec::new();
    for t in 0..NUM_TAXIS {
        let pos = random_pos(&mut rng);
        dispatch.apply(UpdateEvent::install_query(QueryId(t), 3, pos));
        claims
            .apply(UpdateEvent::install_query(QueryId(t), 1, pos))
            .expect("the event fits the network");
        taxi_walkers.push(RandomWalker::new(&net, pos, &mut rng));
    }

    println!(
        "== taxi dispatch on a {}-edge street map ==",
        net.num_edges()
    );
    for step in 1..=5 {
        // Taxis drive fast, clients stroll.
        let mut batch = UpdateBatch::default();
        let avg = net.avg_base_weight();
        for (t, w) in taxi_walkers.iter_mut().enumerate() {
            let to = w.step(&net, 2.0 * avg, &mut rng);
            batch.queries.push(QueryEvent::Move {
                id: QueryId(t as u32),
                to,
            });
        }
        for (c, w) in client_walkers.iter_mut().enumerate() {
            if rng.random::<f64>() < 0.3 {
                let to = w.step(&net, 0.5 * avg, &mut rng);
                batch.objects.push(ObjectEvent::Move {
                    id: ObjectId(c as u32),
                    to,
                });
            }
        }
        dispatch.tick(&batch);
        claims.tick(&batch).expect("the batch fits the network");

        println!("\n-- timestamp {step} --");
        for t in 0..NUM_TAXIS {
            let q = QueryId(t);
            let nearest: Vec<String> = dispatch
                .result(q)
                .unwrap()
                .iter()
                .map(|n| format!("client {} ({:.0}m)", n.object, n.dist))
                .collect();
            let claimed = claims.reverse_nns(q).unwrap();
            println!(
                "taxi {t}: 3 closest -> [{}]; exclusively closest to {} client(s)",
                nearest.join(", "),
                claimed.len()
            );
        }
    }

    // Sanity: every client is claimed by exactly one taxi.
    let total: usize = (0..NUM_TAXIS)
        .map(|t| claims.reverse_nns(QueryId(t)).unwrap().len())
        .sum();
    assert_eq!(total, NUM_CLIENTS as usize);
    println!("\nall {NUM_CLIENTS} clients are assigned to exactly one taxi ✓");
}
