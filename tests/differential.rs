//! Differential correctness: at every timestamp of every scenario, OVH
//! (the from-scratch oracle), IMA and GMA must report the same k-NN
//! answer and the same `kNN_dist` for every query, compared whole with
//! `==`. Every monitor answers with the k smallest `(dist, id)`, so an
//! exact tie with the k-th distance is decided by id, not by which object
//! a monitor found first; and every distance is a multiple of the
//! network's distance unit, so the monitors' different summation orders
//! reach the same bits.

mod common;

use std::sync::Arc;

use common::{TieProne, Workload};
use rnn_monitor::core::{ContinuousMonitor, Gma, Ima, Ovh, QueryEvent, UpdateBatch};
use rnn_monitor::roadnet::{generators, NetPoint, QueryId, RoadNetwork};
use rnn_monitor::workload::{Distribution, MovementModel, Scenario, ScenarioConfig};

fn compare_monitors(monitors: &[&dyn ContinuousMonitor], tick: usize) {
    let reference = monitors[0];
    let mut ids = reference.query_ids();
    ids.sort();
    for &other in &monitors[1..] {
        let mut other_ids = other.query_ids();
        other_ids.sort();
        assert_eq!(ids, other_ids, "query sets diverge at tick {tick}");
    }
    for qid in ids {
        for &other in &monitors[1..] {
            let ctx = format!(
                "tick {tick}, query {qid}, {} vs {}",
                reference.name(),
                other.name()
            );
            assert_eq!(reference.result(qid), other.result(qid), "{ctx}: answers");
            assert_eq!(
                reference.knn_dist(qid),
                other.knn_dist(qid),
                "{ctx}: kNN_dist"
            );
        }
    }
}

/// Runs one scenario against all three monitors for `ticks` timestamps,
/// comparing after installation and after every tick. Also validates IMA's
/// internal invariants every few ticks.
fn run_differential(net: Arc<RoadNetwork>, cfg: ScenarioConfig, ticks: usize) {
    let scenario = Scenario::new(net.clone(), cfg);
    run_workload(net, scenario, ticks);
}

/// [`run_differential`] over any workload.
fn run_workload(net: Arc<RoadNetwork>, mut scenario: impl Workload, ticks: usize) {
    let mut ovh = Ovh::new(net.clone());
    let mut ima = Ima::new(net.clone());
    let mut gma = Gma::new(net.clone());
    scenario.install_into(&mut ovh);
    scenario.install_into(&mut ima);
    scenario.install_into(&mut gma);
    compare_monitors(&[&ovh, &ima, &gma], 0);

    for t in 1..=ticks {
        let batch = scenario.tick();
        ovh.tick(&batch);
        ima.tick(&batch);
        gma.tick(&batch);
        compare_monitors(&[&ovh, &ima, &gma], t);
        if t % 5 == 0 {
            ima.validate_invariants();
        }
    }
}

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

#[test]
fn default_mixed_workload() {
    run_differential(grid(8, 8, 1), base_cfg(11), 20);
}

#[test]
fn second_seed_mixed_workload() {
    run_differential(grid(7, 9, 2), base_cfg(22), 20);
}

#[test]
fn k_equals_one() {
    run_differential(
        grid(8, 8, 3),
        ScenarioConfig {
            k: 1,
            ..base_cfg(33)
        },
        15,
    );
}

#[test]
fn large_k_forces_wide_trees() {
    run_differential(
        grid(6, 6, 4),
        ScenarioConfig {
            k: 25,
            num_objects: 60,
            ..base_cfg(44)
        },
        12,
    );
}

#[test]
fn k_exceeds_object_count_underflow() {
    // Fewer objects than k: results are underfull, kNN_dist = ∞, trees span
    // the whole network. Everything must still agree.
    run_differential(
        grid(5, 5, 5),
        ScenarioConfig {
            k: 10,
            num_objects: 6,
            num_queries: 5,
            ..base_cfg(55)
        },
        10,
    );
}

#[test]
fn edge_heavy_workload() {
    run_differential(
        grid(8, 8, 6),
        ScenarioConfig {
            edge_agility: 0.30,
            object_agility: 0.0,
            query_agility: 0.0,
            ..base_cfg(66)
        },
        15,
    );
}

#[test]
fn query_heavy_workload() {
    run_differential(
        grid(8, 8, 7),
        ScenarioConfig {
            edge_agility: 0.0,
            object_agility: 0.0,
            query_agility: 0.8,
            query_speed: 2.0,
            ..base_cfg(77)
        },
        15,
    );
}

#[test]
fn object_heavy_fast_workload() {
    run_differential(
        grid(8, 8, 8),
        ScenarioConfig {
            edge_agility: 0.0,
            object_agility: 0.9,
            object_speed: 4.0,
            query_agility: 0.0,
            ..base_cfg(88)
        },
        15,
    );
}

#[test]
fn everything_agile_at_once() {
    run_differential(
        grid(7, 7, 9),
        ScenarioConfig {
            edge_agility: 0.25,
            object_agility: 0.5,
            query_agility: 0.5,
            object_speed: 2.0,
            query_speed: 2.0,
            ..base_cfg(99)
        },
        15,
    );
}

#[test]
fn gaussian_objects_and_queries() {
    run_differential(
        grid(8, 8, 10),
        ScenarioConfig {
            object_distribution: Distribution::gaussian_objects(),
            query_distribution: Distribution::gaussian_queries(),
            ..base_cfg(110)
        },
        12,
    );
}

#[test]
fn brinkhoff_movement_model() {
    run_differential(
        grid(7, 7, 11),
        ScenarioConfig {
            movement: MovementModel::Brinkhoff,
            ..base_cfg(121)
        },
        12,
    );
}

#[test]
fn oldenburg_like_small_slice() {
    // A bigger, more road-like network with long degree-2 chains.
    let net = Arc::new(generators::san_francisco_like(900, 12));
    run_differential(
        net,
        ScenarioConfig {
            num_objects: 150,
            num_queries: 20,
            k: 5,
            ..base_cfg(131)
        },
        8,
    );
}

#[test]
fn tie_prone_workload() {
    // Exact ties with the k-th distance at nearly every tick: the three
    // monitors must keep the same objects at a tie, the smallest ids.
    let net = TieProne::network(7, 7, 15);
    let workload = TieProne::new(&net, 161, 60);
    run_workload(net, workload, 15);
}

#[test]
fn query_churn_mid_run() {
    // Queries installed and removed while the system runs.
    let net = grid(8, 8, 13);
    let mut scenario = Scenario::new(net.clone(), base_cfg(141));
    let mut ovh = Ovh::new(net.clone());
    let mut ima = Ima::new(net.clone());
    let mut gma = Gma::new(net.clone());
    scenario.install_into(&mut ovh);
    scenario.install_into(&mut ima);
    scenario.install_into(&mut gma);

    for t in 1..=15usize {
        let mut batch = scenario.tick();
        // Install a fresh query every 3 ticks, remove it two ticks later.
        if t % 3 == 0 {
            let e = rnn_monitor::roadnet::EdgeId((t % net.num_edges()) as u32);
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
        ovh.tick(&batch);
        ima.tick(&batch);
        gma.tick(&batch);
        compare_monitors(&[&ovh, &ima, &gma], t);
    }
}

#[test]
fn empty_ticks_change_nothing() {
    let net = grid(6, 6, 14);
    let scenario = Scenario::new(net.clone(), base_cfg(151));
    let mut ima = Ima::new(net.clone());
    let mut gma = Gma::new(net.clone());
    scenario.install_into(&mut ima);
    scenario.install_into(&mut gma);
    let snapshot: Vec<_> = {
        let mut ids = ima.query_ids();
        ids.sort();
        ids.iter()
            .map(|&q| ima.result(q).unwrap().to_vec())
            .collect()
    };
    for _ in 0..3 {
        let ima_rep = ima.tick(&UpdateBatch::default());
        let gma_rep = gma.tick(&UpdateBatch::default());
        assert_eq!(ima_rep.results_changed, 0);
        assert_eq!(gma_rep.results_changed, 0);
    }
    let mut ids = ima.query_ids();
    ids.sort();
    for (i, &q) in ids.iter().enumerate() {
        assert_eq!(ima.result(q).unwrap(), snapshot[i].as_slice());
    }
}
