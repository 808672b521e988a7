//! Differential correctness of the paper's monitors: at every timestamp of
//! every scenario, OVH (the from-scratch oracle), IMA and GMA must report
//! the same k-NN answer and the same `kNN_dist` for every query, the same
//! `results_changed` and the same change list, compared with `==` by the
//! harness in `tests/common` (see its module docs, which also say how to
//! add a row). Every monitor answers with the k smallest `(dist, id)`, so
//! an exact tie with the k-th distance is decided by id, not by which
//! object a monitor found first; and every distance is a multiple of the
//! network's distance unit, so the monitors' different summation orders
//! reach the same bits. IMA's internal invariants are checked after every
//! call.
//!
//! Each row is a shape of `common::Shape` on a network and seeds of its
//! own; `tie_prone_workload` runs the tie-prone stream over 16 seeds,
//! `a_shortcut_to_exactly_knn_dist_lets_a_tie_in` is the one hand-written
//! program, and `empty_ticks_change_nothing` is the one quiet-tick row
//! over every stack.

mod common;

use std::sync::Arc;

use common::{
    base_cfg, cases, drive, drive_observed, exact_grid, grid, lossless, Churn, Plane, Program,
    Shape, Sharded, Stack, TieProne,
};
use rnn_monitor::core::{EdgeWeightUpdate, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{EngineConfig, ShardAlgo};
use rnn_monitor::roadnet::{
    generators, NetPoint, ObjectId, QueryId, RoadNetwork, RoadNetworkBuilder,
};
use rnn_monitor::workload::{Scenario, ScenarioConfig};

/// OVH, IMA and GMA over one scenario for `ticks` ticks.
fn row(net: Arc<RoadNetwork>, cfg: ScenarioConfig, ticks: usize) {
    let mut stacks = Stack::monitors(&net);
    drive(&mut Scenario::new(net, cfg), &mut stacks, ticks).unwrap();
}

#[test]
fn default_mixed_workload() {
    row(grid(8, 8, 1), Shape::Mixed.cfg(11), 20);
}

#[test]
fn second_seed_mixed_workload() {
    row(grid(7, 9, 2), Shape::Mixed.cfg(22), 20);
}

#[test]
fn k_equals_one() {
    row(grid(8, 8, 3), Shape::KOne.cfg(33), 15);
}

#[test]
fn large_k_forces_wide_trees() {
    row(grid(6, 6, 4), Shape::LargeK.cfg(44), 12);
}

#[test]
fn k_exceeds_object_count_underflow() {
    // Fewer objects than k: results are underfull, kNN_dist = ∞, trees span
    // the whole network. Everything must still agree.
    row(grid(5, 5, 5), Shape::Underfull.cfg(55), 10);
}

#[test]
fn edge_heavy_workload() {
    row(grid(8, 8, 6), Shape::EdgeHeavy.cfg(66), 15);
}

#[test]
fn query_heavy_workload() {
    row(grid(8, 8, 7), Shape::QueryHeavy.cfg(77), 15);
}

#[test]
fn object_heavy_fast_workload() {
    row(grid(8, 8, 8), Shape::ObjectHeavy.cfg(88), 15);
}

#[test]
fn everything_agile_at_once() {
    row(grid(7, 7, 9), Shape::Agile.cfg(99), 15);
}

#[test]
fn gaussian_objects_and_queries() {
    row(grid(8, 8, 10), Shape::Gaussian.cfg(110), 12);
}

#[test]
fn brinkhoff_movement_model() {
    row(grid(7, 7, 11), Shape::Brinkhoff.cfg(121), 12);
}

#[test]
fn oldenburg_like_small_slice() {
    // A bigger, more road-like network with long degree-2 chains.
    let net = Arc::new(generators::san_francisco_like(900, 12));
    let cfg = ScenarioConfig {
        num_objects: 150,
        num_queries: 20,
        ..Shape::Slice.cfg(131)
    };
    row(net, cfg, 8);
}

#[test]
fn tie_prone_workload() {
    // Exact ties with the k-th distance at nearly every tick: the three
    // monitors must keep the same objects at a tie, the smallest ids.
    let net = exact_grid(7, 7, 15);
    cases(0..16, |rng| {
        let mut stacks = Stack::monitors(&net);
        assert_eq!(
            drive(&mut TieProne::new(&net, rng.clone(), 60), &mut stacks, 15),
            Ok(())
        );
    });
}

#[test]
fn a_shortcut_to_exactly_knn_dist_lets_a_tie_in() {
    // A weight decrease that brings a node outside IMA's tree to exactly
    // kNN_dist is not harmless: an object there ties with the k-th and,
    // with the smaller id, takes its place.
    let mut b = RoadNetworkBuilder::new();
    let [a, c, x, y] =
        [(0.0, 0.0), (8.0, 0.0), (0.0, 10.0), (0.0, 20.0)].map(|(px, py)| b.add_node(px, py));
    let near = b.add_edge(a, c, 8.0);
    let shortcut = b.add_edge(a, x, 10.0);
    let beyond = b.add_edge(x, y, 10.0);
    let net = Arc::new(b.build().unwrap());
    let population = vec![
        UpdateEvent::insert_object(ObjectId(9), NetPoint::new(near, 0.75)),
        UpdateEvent::insert_object(ObjectId(1), NetPoint::new(beyond, 0.0)),
        UpdateEvent::install_query(QueryId(0), 1, NetPoint::new(near, 0.0)),
    ];
    let shorter = UpdateBatch {
        edges: vec![EdgeWeightUpdate {
            edge: shortcut,
            new_weight: 6.0,
        }],
        ..Default::default()
    };
    let mut program = Program::applying(population, [shorter]);
    assert_eq!(drive(&mut program, &mut Stack::monitors(&net), 1), Ok(()));
}

#[test]
fn query_churn_mid_run() {
    // Queries installed and removed while the system runs.
    let net = grid(8, 8, 13);
    let mut churn = Churn::new(Scenario::new(net.clone(), base_cfg(141)), &net);
    drive(&mut churn, &mut Stack::monitors(&net), 15).unwrap();
}

#[test]
fn empty_ticks_change_nothing() {
    // The quiet-tick entry of the scenario table over every stack: the
    // monitors, the engine at S = 1, 2, 4, the cluster at S = 1, 2, 4 and
    // the ingest-fed engine. An empty tick changes no answer, lists no
    // query and counts no change, on the reference and so on every stack.
    let (net, mut quiet, ticks) = Sharded::Quiet.build();
    let mut stacks = Stack::monitors(&net);
    stacks.extend(Stack::engines(&net, ShardAlgo::Gma).into_iter().skip(1));
    for num_shards in [1, 2, 4] {
        let cfg = EngineConfig::with_shards(num_shards);
        stacks.push(Stack::clu(&net, cfg, &Plane::default()));
    }
    let cfg = EngineConfig {
        ingest: lossless(4096),
        ..EngineConfig::with_shards(4)
    };
    stacks.push(Stack::ing(&net, cfg));
    drive_observed(&mut quiet, &mut stacks, ticks, |t, stacks| {
        let reference = &stacks[0];
        if t > 0 {
            assert_eq!(reference.last.results_changed, 0, "tick {t}");
            assert!(reference.monitor().changed_queries().is_empty(), "tick {t}");
        }
    })
    .unwrap();
}
