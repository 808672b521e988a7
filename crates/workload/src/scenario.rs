//! End-to-end simulation scenarios (§6, Table 2).
//!
//! A [`Scenario`] owns the authoritative simulation state — entity
//! positions and current edge weights — and emits one
//! [`UpdateBatch`] per timestamp:
//!
//! * a fraction `f_edg` of the edges receive a ±10% weight update
//!   ("edge agility"),
//! * a fraction `f_obj` of the objects move a distance of
//!   `v_obj × average edge length` ("object agility" / "object speed"),
//! * a fraction `f_qry` of the queries move likewise.
//!
//! Driving several monitors from the same scenario (same seed) feeds them
//! byte-identical update streams, which is what both the differential
//! correctness tests and the benchmark harness rely on.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rnn_core::{
    load_population, ContinuousMonitor, EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateBatch,
};
use rnn_roadnet::{
    DijkstraEngine, EdgeId, EdgeWeights, NetPoint, ObjectId, PmrQuadtree, QueryId, RoadNetwork,
};
use serde::{Deserialize, Serialize};

use crate::brinkhoff::RouteFollower;
use crate::distribution::{gaussian_pair, Distribution, Placer};
use crate::movement::RandomWalker;

/// Which movement model entities follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MovementModel {
    /// The paper's default random walk.
    RandomWalk,
    /// The Brinkhoff-substitute route follower (Fig. 19).
    Brinkhoff,
}

/// A drifting load hotspot layered on top of the base workload: entities
/// selected by their agility fraction jump to Gaussian samples around a
/// center that orbits the workspace, instead of random-walking. The
/// resulting object/query density is heavily skewed and *moves across the
/// network* over time — the workload that exercises the sharded engine's
/// dynamic re-partitioning (a static partition pins the hotspot to one
/// worker; a load-aware one follows it).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HotspotConfig {
    /// Spread of the hotspot: standard deviation of the jump targets as a
    /// fraction of the workspace half-diagonal (cf. [`Distribution`]).
    pub stddev_frac: f64,
    /// Timestamps for one full orbit of the workspace.
    pub period: f64,
    /// Whether moving objects jump to the hotspot.
    pub objects: bool,
    /// Whether moving queries jump to the hotspot.
    pub queries: bool,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            stddev_frac: 0.08,
            period: 40.0,
            objects: true,
            queries: true,
        }
    }
}

/// All Table 2 parameters (paper defaults via [`Default`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of data objects `N` (paper default 100K).
    pub num_objects: usize,
    /// Number of queries `Q` (paper default 5K).
    pub num_queries: usize,
    /// Number of NNs per query `k` (paper default 50).
    pub k: usize,
    /// Initial object distribution (paper default uniform).
    pub object_distribution: Distribution,
    /// Initial query distribution (paper default Gaussian 10%).
    pub query_distribution: Distribution,
    /// Edge agility `f_edg`: fraction of edges updated per timestamp
    /// (paper default 4%).
    pub edge_agility: f64,
    /// Object agility `f_obj` (paper default 10%).
    pub object_agility: f64,
    /// Query agility `f_qry` (paper default 10%).
    pub query_agility: f64,
    /// Object speed `v_obj` in multiples of the average edge length
    /// (paper default 1).
    pub object_speed: f64,
    /// Query speed `v_qry` (paper default 1).
    pub query_speed: f64,
    /// Movement model (the paper's simple generator by default).
    pub movement: MovementModel,
    /// Optional drifting load hotspot (not in the paper; drives the
    /// engine's rebalance experiments). `None` keeps the update stream
    /// byte-identical to earlier releases.
    pub hotspot: Option<HotspotConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            num_objects: 100_000,
            num_queries: 5_000,
            k: 50,
            object_distribution: Distribution::Uniform,
            query_distribution: Distribution::gaussian_queries(),
            edge_agility: 0.04,
            object_agility: 0.10,
            query_agility: 0.10,
            object_speed: 1.0,
            query_speed: 1.0,
            movement: MovementModel::RandomWalk,
            hotspot: None,
            seed: 0,
        }
    }
}

enum Mover {
    Walk(RandomWalker),
    Route(RouteFollower),
}

impl Mover {
    fn pos(&self) -> NetPoint {
        match self {
            Mover::Walk(w) => w.pos,
            Mover::Route(r) => r.pos,
        }
    }
}

/// Totals accumulated by [`Scenario::drive`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveReport {
    /// Number of timestamps driven.
    pub timestamps: usize,
    /// Summed monitor processing time across ticks.
    pub elapsed: std::time::Duration,
    /// Total queries whose reported result changed.
    pub results_changed: usize,
    /// Summed deterministic work counters.
    pub counters: rnn_core::OpCounters,
}

impl DriveReport {
    /// Mean monitor wall-clock seconds per timestamp.
    pub fn secs_per_tick(&self) -> f64 {
        if self.timestamps == 0 {
            return 0.0;
        }
        self.elapsed.as_secs_f64() / self.timestamps as f64
    }
}

/// A running simulation emitting per-timestamp update batches.
pub struct Scenario {
    net: Arc<RoadNetwork>,
    cfg: ScenarioConfig,
    rng: StdRng,
    weights: EdgeWeights,
    objects: Vec<Mover>,
    queries: Vec<Mover>,
    engine: DijkstraEngine,
    avg_len: f64,
    /// Coordinate→edge resolution, kept for hotspot jump targets.
    quadtree: PmrQuadtree,
    /// Timestamps emitted so far (drives the hotspot orbit).
    t: u64,
}

impl Scenario {
    /// Builds the initial state (placements, base weights).
    pub fn new(net: Arc<RoadNetwork>, cfg: ScenarioConfig) -> Self {
        assert!(cfg.num_objects > 0, "scenario needs objects");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let quadtree = PmrQuadtree::build(&net);
        let placer = Placer::new(&net, &quadtree);
        let weights = EdgeWeights::from_base(&net);
        let mut engine = DijkstraEngine::new(net.num_nodes());
        let avg_len = net
            .edge_ids()
            .map(|e| net.edge_euclidean_len(e))
            .sum::<f64>()
            / net.num_edges() as f64;

        let make = |dist: Distribution, rng: &mut StdRng, engine: &mut DijkstraEngine| {
            let pos = placer.sample(dist, rng);
            match cfg.movement {
                MovementModel::RandomWalk => Mover::Walk(RandomWalker::new(&net, pos, rng)),
                MovementModel::Brinkhoff => {
                    Mover::Route(RouteFollower::new(&net, &weights, engine, pos, rng))
                }
            }
        };
        let objects = (0..cfg.num_objects)
            .map(|_| make(cfg.object_distribution, &mut rng, &mut engine))
            .collect();
        let queries = (0..cfg.num_queries)
            .map(|_| make(cfg.query_distribution, &mut rng, &mut engine))
            .collect();
        Self {
            net,
            cfg,
            rng,
            weights,
            objects,
            queries,
            engine,
            avg_len,
            quadtree,
            t: 0,
        }
    }

    /// The hotspot center for the current timestamp: a point orbiting the
    /// workspace center, completing one lap every `period` timestamps, so
    /// the skewed density drifts across every part of the network.
    fn hotspot_center(&self, h: &HotspotConfig) -> (f64, f64) {
        let b = self.net.bounds();
        let c = b.center();
        let ang = std::f64::consts::TAU * (self.t as f64) / h.period.max(1.0);
        (
            c.x + 0.35 * b.width() * ang.cos(),
            c.y + 0.35 * b.height() * ang.sin(),
        )
    }

    /// One Gaussian jump target around the current hotspot center, snapped
    /// to the network.
    fn hotspot_sample(&mut self, h: &HotspotConfig, center: (f64, f64)) -> NetPoint {
        let b = self.net.bounds();
        let sd = h.stddev_frac * 0.5 * b.width().hypot(b.height());
        let (g1, g2) = gaussian_pair(&mut self.rng);
        let p = rnn_roadnet::Point2::new(center.0 + g1 * sd, center.1 + g2 * sd);
        self.quadtree
            .locate(&self.net, p)
            .expect("non-empty network")
    }

    /// The network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Current simulation weights (authoritative).
    pub fn weights(&self) -> &EdgeWeights {
        &self.weights
    }

    /// Initial object placements.
    pub fn initial_objects(&self) -> impl Iterator<Item = (ObjectId, NetPoint)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, m)| (ObjectId::from_index(i), m.pos()))
    }

    /// Initial query placements (`(id, k, position)`).
    pub fn initial_queries(&self) -> impl Iterator<Item = (QueryId, usize, NetPoint)> + '_ {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, m)| (QueryId::from_index(i), self.cfg.k, m.pos()))
    }

    /// Installs all objects and queries into a monitor, through the bulk
    /// loader.
    pub fn install_into(&self, monitor: &mut dyn ContinuousMonitor) {
        load_population(monitor, self.initial_objects(), self.initial_queries());
    }

    /// Installs the initial population into `monitor` and then drives it
    /// for `timestamps` ticks, accumulating the per-tick reports. This is
    /// the one-call driver used by examples and the engine-scaling bench;
    /// it works identically for a single monitor and for the sharded
    /// engine (anything implementing [`ContinuousMonitor`]).
    pub fn drive(&mut self, monitor: &mut dyn ContinuousMonitor, timestamps: usize) -> DriveReport {
        self.install_into(monitor);
        let mut report = DriveReport {
            timestamps,
            ..DriveReport::default()
        };
        for _ in 0..timestamps {
            let batch = self.tick();
            let rep = monitor.tick(&batch);
            report.elapsed += rep.elapsed;
            report.results_changed += rep.results_changed;
            report.counters.merge(&rep.counters);
        }
        report
    }

    /// Advances the simulation one timestamp and returns the update batch
    /// ("updates of all three types occur at each timestamp", §6).
    pub fn tick(&mut self) -> UpdateBatch {
        let mut batch = UpdateBatch::default();

        // --- Edge updates: f_edg of the edges change weight by ±10%.
        let n_edges = ((self.net.num_edges() as f64) * self.cfg.edge_agility).round() as usize;
        let picked = sample_indices(&mut self.rng, self.net.num_edges(), n_edges);
        for i in picked {
            let e = EdgeId::from_index(i);
            let old = self.weights.get(e);
            let factor = if self.rng.random::<bool>() { 1.1 } else { 0.9 };
            // Keep weights within sane bounds of the base value so long
            // simulations cannot drift to zero (documented in DESIGN.md).
            let base = self.net.edge(e).base_weight;
            let new = (old * factor).clamp(0.2 * base, 5.0 * base);
            if new != old {
                self.weights.set(e, new);
                batch.edges.push(EdgeWeightUpdate {
                    edge: e,
                    new_weight: new,
                });
            }
        }

        // --- Drifting hotspot (if configured): the center for this tick.
        let hotspot = self.cfg.hotspot;
        let center = hotspot.map(|h| self.hotspot_center(&h));

        // --- Object movements: f_obj of the objects walk v_obj × avg edge
        // (or jump to the hotspot when one is configured for objects).
        let n_obj = ((self.objects.len() as f64) * self.cfg.object_agility).round() as usize;
        let dist = self.cfg.object_speed * self.avg_len;
        for i in sample_indices(&mut self.rng, self.objects.len(), n_obj) {
            let new_pos = match hotspot.filter(|h| h.objects) {
                Some(h) => {
                    let to = self.hotspot_sample(&h, center.expect("hotspot set"));
                    self.teleport(true, i, to);
                    to
                }
                None => match &mut self.objects[i] {
                    Mover::Walk(w) => w.step(&self.net, dist, &mut self.rng),
                    Mover::Route(r) => r.step(
                        &self.net,
                        &self.weights,
                        &mut self.engine,
                        dist,
                        &mut self.rng,
                    ),
                },
            };
            batch.objects.push(ObjectEvent::Move {
                id: ObjectId::from_index(i),
                to: new_pos,
            });
        }

        // --- Query movements.
        let n_qry = ((self.queries.len() as f64) * self.cfg.query_agility).round() as usize;
        let dist = self.cfg.query_speed * self.avg_len;
        for i in sample_indices(&mut self.rng, self.queries.len(), n_qry) {
            let new_pos = match hotspot.filter(|h| h.queries) {
                Some(h) => {
                    let to = self.hotspot_sample(&h, center.expect("hotspot set"));
                    self.teleport(false, i, to);
                    to
                }
                None => match &mut self.queries[i] {
                    Mover::Walk(w) => w.step(&self.net, dist, &mut self.rng),
                    Mover::Route(r) => r.step(
                        &self.net,
                        &self.weights,
                        &mut self.engine,
                        dist,
                        &mut self.rng,
                    ),
                },
            };
            batch.queries.push(QueryEvent::Move {
                id: QueryId::from_index(i),
                to: new_pos,
            });
        }

        self.t += 1;
        batch
    }

    /// Drops mover `i` (object when `is_object`, query otherwise) at `to`,
    /// resetting its movement state so later walking steps stay valid.
    fn teleport(&mut self, is_object: bool, i: usize, to: NetPoint) {
        let mover = if is_object {
            &mut self.objects[i]
        } else {
            &mut self.queries[i]
        };
        match mover {
            Mover::Walk(w) => *w = RandomWalker::new(&self.net, to, &mut self.rng),
            Mover::Route(r) => r.teleport(to),
        }
    }
}

/// `count` distinct indices from `0..n`, deterministically from `rng`.
fn sample_indices(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n);
    if count == 0 {
        return Vec::new();
    }
    // For small fractions, rejection sampling beats shuffling the universe.
    if count * 4 <= n {
        let mut seen = std::collections::HashSet::with_capacity(count * 2);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let i = rng.random_range(0..n);
            if seen.insert(i) {
                out.push(i);
            }
        }
        out
    } else {
        let mut all: Vec<usize> = (0..n).collect();
        all.shuffle(rng);
        all.truncate(count);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::generators::{grid_city, GridCityConfig};

    fn small_cfg() -> ScenarioConfig {
        ScenarioConfig {
            num_objects: 50,
            num_queries: 10,
            k: 3,
            seed: 7,
            ..Default::default()
        }
    }

    fn small_net() -> Arc<RoadNetwork> {
        Arc::new(grid_city(&GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 3,
            ..Default::default()
        }))
    }

    #[test]
    fn initial_placement_counts() {
        let sc = Scenario::new(small_net(), small_cfg());
        assert_eq!(sc.initial_objects().count(), 50);
        assert_eq!(sc.initial_queries().count(), 10);
        for (_, k, p) in sc.initial_queries() {
            assert_eq!(k, 3);
            assert!(p.edge.index() < sc.network().num_edges());
        }
    }

    #[test]
    fn tick_respects_agilities() {
        let net = small_net();
        let e = net.num_edges();
        let mut sc = Scenario::new(
            net,
            ScenarioConfig {
                edge_agility: 0.04,
                object_agility: 0.10,
                query_agility: 0.10,
                ..small_cfg()
            },
        );
        let batch = sc.tick();
        // ±1 tolerance on rounding; weight updates may be suppressed when
        // the clamp kicks in (it cannot on the first tick).
        assert_eq!(batch.edges.len(), ((e as f64) * 0.04).round() as usize);
        assert_eq!(batch.objects.len(), 5);
        assert_eq!(batch.queries.len(), 1);
    }

    #[test]
    fn weight_updates_are_plus_minus_ten_percent() {
        let mut sc = Scenario::new(small_net(), small_cfg());
        let before = sc.weights().clone();
        let batch = sc.tick();
        for u in &batch.edges {
            let old = before.get(u.edge);
            assert!(
                [old * 1.1, old * 0.9].contains(&u.new_weight),
                "{} from {old}",
                u.new_weight
            );
            // The scenario's own table holds it rounded to the unit.
            assert_eq!(sc.weights().get(u.edge), rnn_roadnet::unit(u.new_weight));
        }
    }

    #[test]
    fn zero_agility_produces_empty_parts() {
        let mut sc = Scenario::new(
            small_net(),
            ScenarioConfig {
                edge_agility: 0.0,
                object_agility: 0.0,
                query_agility: 0.0,
                ..small_cfg()
            },
        );
        let batch = sc.tick();
        assert!(batch.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let net = small_net();
        let mut a = Scenario::new(net.clone(), small_cfg());
        let mut b = Scenario::new(net, small_cfg());
        for _ in 0..5 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    #[test]
    fn brinkhoff_model_runs() {
        let mut sc = Scenario::new(
            small_net(),
            ScenarioConfig {
                movement: MovementModel::Brinkhoff,
                ..small_cfg()
            },
        );
        for _ in 0..3 {
            let batch = sc.tick();
            assert!(!batch.objects.is_empty());
        }
    }

    #[test]
    fn hotspot_skews_density_and_drifts() {
        let net = small_net();
        let mut sc = Scenario::new(
            net.clone(),
            ScenarioConfig {
                num_objects: 200,
                num_queries: 20,
                object_agility: 1.0,
                query_agility: 1.0,
                hotspot: Some(HotspotConfig {
                    stddev_frac: 0.05,
                    period: 8.0,
                    objects: true,
                    queries: true,
                }),
                ..small_cfg()
            },
        );
        let spread_around = |batch: &UpdateBatch, cx: f64, cy: f64| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for ev in &batch.objects {
                if let ObjectEvent::Move { to, .. } = ev {
                    let p = to.coordinates(&net);
                    sum += ((p.x - cx).powi(2) + (p.y - cy).powi(2)).sqrt();
                    n += 1;
                }
            }
            sum / n as f64
        };
        let c0 = sc.hotspot_center(&sc.cfg.hotspot.unwrap());
        let b0 = sc.tick();
        assert_eq!(b0.objects.len(), 200, "full agility moves everything");
        let half_diag = 0.5 * net.bounds().width().hypot(net.bounds().height());
        assert!(
            spread_around(&b0, c0.0, c0.1) < 0.5 * half_diag,
            "jump targets must cluster near the hotspot center"
        );
        // The center drifts: after a quarter period it has moved a
        // macroscopic distance.
        let mut c_later = c0;
        for _ in 0..2 {
            sc.tick();
            c_later = sc.hotspot_center(&sc.cfg.hotspot.unwrap());
        }
        let moved = ((c_later.0 - c0.0).powi(2) + (c_later.1 - c0.1).powi(2)).sqrt();
        assert!(moved > 0.1 * half_diag, "hotspot center must drift");
    }

    #[test]
    fn hotspot_stream_is_deterministic() {
        let net = small_net();
        let cfg = ScenarioConfig {
            hotspot: Some(HotspotConfig::default()),
            ..small_cfg()
        };
        let mut a = Scenario::new(net.clone(), cfg.clone());
        let mut b = Scenario::new(net, cfg);
        for _ in 0..5 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    #[test]
    fn sample_indices_distinct_and_sized() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, c) in [(100, 5), (100, 90), (10, 10), (10, 0), (5, 20)] {
            let v = sample_indices(&mut rng, n, c);
            assert_eq!(v.len(), c.min(n));
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), v.len(), "duplicates for n={n} c={c}");
            assert!(v.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn drive_installs_and_accumulates() {
        let net = small_net();
        let mut sc = Scenario::new(net.clone(), small_cfg());
        let mut ima = rnn_core::Ima::new(net);
        let rep = sc.drive(&mut ima, 4);
        assert_eq!(rep.timestamps, 4);
        assert_eq!(ima.query_ids().len(), 10);
        assert!(rep.counters.work() > 0, "driving must do monitor work");
        assert!(rep.secs_per_tick() >= 0.0);
    }

    #[test]
    fn install_into_monitor_roundtrip() {
        let net = small_net();
        let sc = Scenario::new(net.clone(), small_cfg());
        let mut ovh = rnn_core::Ovh::new(net);
        sc.install_into(&mut ovh);
        assert_eq!(ovh.query_ids().len(), 10);
        for id in ovh.query_ids() {
            assert_eq!(ovh.result(id).unwrap().len(), 3);
        }
    }
}
