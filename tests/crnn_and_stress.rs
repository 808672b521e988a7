//! Differential validation of the CRNN extension against a brute-force
//! oracle, plus longer stress runs of the three k-NN monitors (the long
//! run on the harness in `tests/common`).

mod common;

use std::sync::Arc;

use common::{drive, grid, Stack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_monitor::core::crnn::{Crnn, CrnnError};
use rnn_monitor::core::{
    ContinuousMonitor, Gma, Ima, ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent,
};
use rnn_monitor::roadnet::{
    generators, DijkstraEngine, EdgeId, EdgeWeights, NetPoint, ObjectId, QueryId,
};
use rnn_monitor::workload::{Scenario, ScenarioConfig};

/// Brute-force reverse-NN oracle: assign every object to its closest query
/// (ties by query id, matching the deterministic `(dist, id)` order).
fn brute_rnn(
    net: &rnn_monitor::RoadNetwork,
    weights: &EdgeWeights,
    objects: &[(ObjectId, NetPoint)],
    queries: &[(QueryId, NetPoint)],
) -> Vec<(ObjectId, Option<QueryId>)> {
    let mut eng = DijkstraEngine::new(net.num_nodes());
    objects
        .iter()
        .map(|&(oid, opos)| {
            let mut best: Option<(f64, QueryId)> = None;
            for &(qid, qpos) in queries {
                let d = eng.dist_between_points(net, weights, opos, qpos);
                let better = match best {
                    None => d.is_finite(),
                    Some((bd, bq)) => d < bd || (d == bd && qid < bq),
                };
                if better {
                    best = Some((d, qid));
                }
            }
            (oid, best.map(|(_, q)| q))
        })
        .collect()
}

#[test]
fn crnn_matches_brute_force_over_random_run() {
    let net = grid(7, 7, 17);
    let ne = net.num_edges() as u32;
    let mut rng = StdRng::seed_from_u64(5);
    let mut crnn = Crnn::new(net.clone());

    let mut weights = EdgeWeights::from_base(&net);
    let mut queries: Vec<(QueryId, NetPoint)> = Vec::new();
    let mut objects: Vec<(ObjectId, NetPoint)> = Vec::new();
    for q in 0..5u32 {
        let p = NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random());
        crnn.apply(UpdateEvent::install_query(QueryId(q), 1, p))
            .expect("the event fits the network");
        queries.push((QueryId(q), p));
    }
    for o in 0..30u32 {
        let p = NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random());
        crnn.apply(UpdateEvent::insert_object(ObjectId(o), p))
            .expect("the event fits the network");
        objects.push((ObjectId(o), p));
    }

    for tick in 0..10 {
        // Random mixed batch: move some objects, some queries, scale edges.
        let mut batch = UpdateBatch::default();
        for _ in 0..6 {
            let i = rng.random_range(0..objects.len());
            let to = NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random());
            objects[i].1 = to;
            batch.objects.push(ObjectEvent::Move {
                id: objects[i].0,
                to,
            });
        }
        if tick % 2 == 0 {
            let i = rng.random_range(0..queries.len());
            let to = NetPoint::new(EdgeId(rng.random_range(0..ne)), rng.random());
            queries[i].1 = to;
            batch.queries.push(QueryEvent::Move {
                id: queries[i].0,
                to,
            });
        }
        for _ in 0..4 {
            let e = EdgeId(rng.random_range(0..ne));
            let new_w = weights.get(e) * if rng.random::<bool>() { 1.1 } else { 0.9 };
            weights.set(e, new_w);
            batch.edges.push(rnn_monitor::core::EdgeWeightUpdate {
                edge: e,
                new_weight: new_w,
            });
        }
        crnn.tick(&batch).expect("the batch fits the network");

        let oracle = brute_rnn(&net, &weights, &objects, &queries);
        for (oid, expect) in oracle {
            let got = crnn.nearest_query_of(oid);
            assert_eq!(
                got, expect,
                "tick {tick}: object {oid} assigned {got:?} vs oracle {expect:?}"
            );
        }
        // The reverse map partitions all objects.
        let total: usize = (0..5u32)
            .map(|q| crnn.reverse_nns(QueryId(q)).unwrap().len())
            .sum();
        assert_eq!(
            total,
            objects.len(),
            "tick {tick}: RNN sets must partition objects"
        );
    }
}

/// A batch holding an event `Crnn` cannot hold is refused whole, with the
/// event named: a query id at or above `OBJECT_ID_BOUND` (query ids index
/// its object table), an edge the network lacks, an inadmissible weight.
/// Nothing panics, and the monitor answers as it did before.
#[test]
fn crnn_refuses_unfit_batches_and_changes_nothing() {
    use rnn_monitor::core::types::{MAX_K, OBJECT_ID_BOUND};
    let net = Arc::new(generators::line_network(6, 1.0));
    let mut crnn = Crnn::new(net.clone());
    let cab =
        |id, e, frac| UpdateEvent::install_query(QueryId(id), 1, NetPoint::new(EdgeId(e), frac));
    let client =
        |id, e, frac| UpdateEvent::insert_object(ObjectId(id), NetPoint::new(EdgeId(e), frac));
    for ev in [
        cab(1, 0, 0.0),
        cab(2, 4, 1.0),
        client(10, 0, 0.5),
        client(11, 4, 0.5),
    ] {
        crnn.apply(ev).expect("the event fits the network");
    }
    let answers = |c: &Crnn| {
        let rnn = [1, 2].map(|q| c.reverse_nns(QueryId(q)));
        let nearest = [10, 11].map(|o| c.nearest_query_of(ObjectId(o)));
        (rnn, nearest, c.num_queries(), c.num_objects())
    };
    let before = answers(&crnn);

    let far = NetPoint::new(EdgeId(2), 0.5);
    let unfit = [
        UpdateEvent::install_query(QueryId(u32::MAX), 1, far),
        UpdateEvent::install_query(QueryId(OBJECT_ID_BOUND), 1, far),
        UpdateEvent::move_query(QueryId(OBJECT_ID_BOUND), far),
        UpdateEvent::remove_query(QueryId(u32::MAX)),
        UpdateEvent::insert_object(ObjectId(OBJECT_ID_BOUND), far),
        UpdateEvent::install_query(QueryId(3), 1, NetPoint::new(EdgeId(99), 0.5)),
        // `k` is not read here, but one no monitor holds is refused.
        UpdateEvent::install_query(QueryId(3), 0, far),
        UpdateEvent::install_query(QueryId(3), MAX_K + 1, far),
        UpdateEvent::edge(EdgeId(1), 0.0),
    ];
    for ev in unfit {
        assert_eq!(crnn.apply(ev), Err(CrnnError::Unfit(ev)));
        // Refused whole: the fitting events beside it do not apply either.
        let mut batch = UpdateBatch::default();
        batch.push(UpdateEvent::move_query(QueryId(1), far));
        batch.push(UpdateEvent::delete_object(ObjectId(10)));
        batch.push(ev);
        assert_eq!(crnn.tick(&batch), Err(CrnnError::Unfit(ev)));
        assert_eq!(answers(&crnn), before, "{ev:?} changed the monitor");
    }
    // A fitting batch still applies.
    crnn.apply(UpdateEvent::delete_object(ObjectId(10)))
        .expect("the event fits the network");
    assert_eq!(crnn.reverse_nns(QueryId(1)), Some(vec![]));
}

/// A long mixed run on a mid-sized map: 60 timestamps, IMA's internal
/// invariants and every answer checked at each.
#[test]
fn long_stress_run_stays_consistent() {
    let net = Arc::new(generators::san_francisco_like(600, 23));
    let cfg = ScenarioConfig {
        num_objects: 400,
        num_queries: 40,
        k: 8,
        edge_agility: 0.06,
        object_agility: 0.15,
        query_agility: 0.15,
        seed: 9,
        ..Default::default()
    };
    let mut stacks = Stack::monitors(&net);
    drive(&mut Scenario::new(net.clone(), cfg), &mut stacks, 60).unwrap();
    // The headline claim must hold over the long run too.
    let (ovh, ima) = (stacks[0].total.work(), stacks[1].total.work());
    assert!(ima < ovh, "incremental ({ima}) must beat overhaul ({ovh})");
}

/// Memory accounting responds to load: more queries and larger k mean more
/// tree/influence state for IMA, less so for GMA (Fig. 18's mechanism).
#[test]
fn memory_scales_with_queries_and_k() {
    let net = Arc::new(generators::san_francisco_like(400, 31));
    let build = |q: usize, k: usize| -> (usize, usize) {
        let cfg = ScenarioConfig {
            num_objects: 800,
            num_queries: q,
            k,
            seed: 3,
            ..Default::default()
        };
        let scenario = Scenario::new(net.clone(), cfg);
        let mut ima = Ima::new(net.clone());
        let mut gma = Gma::new(net.clone());
        scenario.install_into(&mut ima);
        scenario.install_into(&mut gma);
        let algo_mem = |m: &dyn ContinuousMonitor| {
            let mem = m.memory();
            mem.query_table + mem.expansion_trees + mem.influence_lists
        };
        (algo_mem(&ima), algo_mem(&gma))
    };
    let (ima_small, _) = build(10, 4);
    let (ima_more_q, _) = build(40, 4);
    let (ima_big_k, gma_big_k) = build(40, 16);
    assert!(ima_more_q > ima_small, "more queries -> more IMA state");
    assert!(ima_big_k > ima_more_q, "larger k -> larger trees");
    assert!(
        ima_big_k > gma_big_k,
        "IMA stores per-query trees, GMA only per active node ({ima_big_k} vs {gma_big_k})"
    );
}
