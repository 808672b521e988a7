//! What the rows drive their stacks with: a population, then one batch
//! per tick. The seeded scenarios and the tie-prone stream, the wrappers
//! that add query churn or run quiet ticks, the drifting hotspot, a
//! flash-crowd firehose and hand-written programs; the one `grid` and
//! `base_cfg`; and the scenario table of the engine and cluster suites.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use rnn_monitor::core::{
    load_population, ContinuousMonitor, EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateBatch,
    UpdateEvent,
};
use rnn_monitor::roadnet::{
    generators, EdgeId, EdgeWeights, NetPoint, ObjectId, QueryId, RoadNetwork,
};
use rnn_monitor::workload::{
    Distribution, Firehose, FirehoseConfig, FirehosePattern, MovementModel, Scenario,
    ScenarioConfig,
};

/// A population to install, then one update batch per tick.
pub trait Workload {
    /// Installs the initial objects and queries into `m`.
    fn install_into(&self, m: &mut dyn ContinuousMonitor);
    /// The next tick's batch.
    fn tick(&mut self) -> UpdateBatch;
    /// What producers reported for the batch the last [`Self::tick`]
    /// returned, where that is more than the batch's own events (a
    /// firehose reports an entity several times a window). An `ING`
    /// stack submits these; every other stack ticks the batch.
    fn reports(&self) -> Option<&[UpdateEvent]> {
        None
    }
}

impl Workload for Scenario {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        Scenario::install_into(self, m);
    }
    fn tick(&mut self) -> UpdateBatch {
        Scenario::tick(self)
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        (**self).install_into(m);
    }
    fn tick(&mut self) -> UpdateBatch {
        (**self).tick()
    }
    fn reports(&self) -> Option<&[UpdateEvent]> {
        (**self).reports()
    }
}

/// A grid city of `nx` × `ny` intersections, the differential suites'
/// network.
pub fn grid(nx: usize, ny: usize, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(generators::grid_city(&generators::GridCityConfig {
        nx,
        ny,
        seed,
        ..Default::default()
    }))
}

/// A grid whose every distance is exact in an `f64`: intersections 64
/// apart, no jitter, each street split into one or two segments (edges of
/// length 32 or 64). A weight update that halves or doubles one keeps
/// equal path lengths equal, and positions at 64ths sum to the same bits
/// in whatever order a monitor adds them up.
pub fn exact_grid(nx: usize, ny: usize, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(generators::grid_city(&generators::GridCityConfig {
        nx,
        ny,
        spacing: 64.0,
        jitter: 0.0,
        max_subdivision: 2,
        seed,
        ..Default::default()
    }))
}

/// 80 objects and 12 queries at k = 4, everything else at the scenario
/// defaults.
pub fn base_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        num_objects: 80,
        num_queries: 12,
        k: 4,
        seed,
        ..Default::default()
    }
}

/// How a scenario departs from [`base_cfg`]: the shapes the differential
/// suites run, each on its own network and seeds.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// [`base_cfg`] itself.
    Mixed,
    /// k = 1.
    KOne,
    /// k = 25 over 60 objects: trees and halos reach far.
    LargeK,
    /// k = 10 over 6 objects: every answer is underfull, `kNN_dist` = ∞.
    Underfull,
    /// Only weights change, 30% of the edges a tick.
    EdgeHeavy,
    /// Only queries move, 80% a tick at twice the speed.
    QueryHeavy,
    /// Only objects move, 90% a tick at four times the speed.
    ObjectHeavy,
    /// A quarter of the weights, half the objects and half the queries
    /// change every tick.
    Agile,
    /// Gaussian objects and queries.
    Gaussian,
    /// Brinkhoff's movement model.
    Brinkhoff,
    /// 120 objects and 15 queries at k = 5, for the road-like slices.
    Slice,
}

impl Shape {
    /// This shape over [`base_cfg`]`(seed)`.
    pub fn cfg(self, seed: u64) -> ScenarioConfig {
        let base = base_cfg(seed);
        match self {
            Shape::Mixed => base,
            Shape::KOne => ScenarioConfig { k: 1, ..base },
            Shape::LargeK => ScenarioConfig {
                k: 25,
                num_objects: 60,
                ..base
            },
            Shape::Underfull => ScenarioConfig {
                k: 10,
                num_objects: 6,
                num_queries: 5,
                ..base
            },
            Shape::EdgeHeavy => ScenarioConfig {
                edge_agility: 0.30,
                object_agility: 0.0,
                query_agility: 0.0,
                ..base
            },
            Shape::QueryHeavy => ScenarioConfig {
                edge_agility: 0.0,
                object_agility: 0.0,
                query_agility: 0.8,
                query_speed: 2.0,
                ..base
            },
            Shape::ObjectHeavy => ScenarioConfig {
                edge_agility: 0.0,
                object_agility: 0.9,
                object_speed: 4.0,
                query_agility: 0.0,
                ..base
            },
            Shape::Agile => ScenarioConfig {
                edge_agility: 0.25,
                object_agility: 0.5,
                query_agility: 0.5,
                object_speed: 2.0,
                query_speed: 2.0,
                ..base
            },
            Shape::Gaussian => ScenarioConfig {
                object_distribution: Distribution::gaussian_objects(),
                query_distribution: Distribution::gaussian_queries(),
                ..base
            },
            Shape::Brinkhoff => ScenarioConfig {
                movement: MovementModel::Brinkhoff,
                ..base
            },
            Shape::Slice => ScenarioConfig {
                num_objects: 120,
                num_queries: 15,
                k: 5,
                ..base
            },
        }
    }
}

/// The scenario table of the engine and cluster suites: both run every
/// entry on the same network, seeds and tick count, each over its own
/// stacks (the engines against a single monitor; each cluster against
/// the in-process engine it must match).
#[derive(Clone, Copy, Debug)]
pub enum Sharded {
    Default,
    ImaDefault,
    SecondSeed,
    KOne,
    LargeK,
    Underfull,
    EdgeHeavy,
    QueryHeavy,
    ObjectHeavy,
    Agile,
    Brinkhoff,
    /// Long degree-2 chains: few intersections, jagged shard borders.
    Slice,
    /// [`Shape::Mixed`] under [`Churn`].
    Churn,
    /// [`Shape::Mixed`], then [`Quiet`] ticks.
    Quiet,
}

impl Sharded {
    /// The entry's network, its workload and its tick count.
    pub fn build(self) -> (Arc<RoadNetwork>, Box<dyn Workload>, usize) {
        use Sharded as S;
        let (net, shape, seed, ticks) = match self {
            S::Default => (grid(8, 8, 1), Shape::Mixed, 11, 15),
            S::ImaDefault => (grid(7, 9, 2), Shape::Mixed, 22, 15),
            S::SecondSeed => (grid(9, 7, 3), Shape::Mixed, 33, 15),
            S::KOne => (grid(8, 8, 4), Shape::KOne, 44, 12),
            S::LargeK => (grid(6, 6, 5), Shape::LargeK, 55, 10),
            S::Underfull => (grid(5, 5, 6), Shape::Underfull, 66, 8),
            S::EdgeHeavy => (grid(8, 8, 7), Shape::EdgeHeavy, 77, 12),
            S::QueryHeavy => (grid(8, 8, 8), Shape::QueryHeavy, 88, 12),
            S::ObjectHeavy => (grid(8, 8, 9), Shape::ObjectHeavy, 99, 12),
            S::Agile => (grid(7, 7, 10), Shape::Agile, 110, 12),
            S::Brinkhoff => (grid(7, 7, 11), Shape::Brinkhoff, 121, 10),
            S::Slice => {
                let net = Arc::new(generators::san_francisco_like(600, 12));
                (net, Shape::Slice, 131, 6)
            }
            S::Churn => (grid(8, 8, 13), Shape::Mixed, 141, 12),
            S::Quiet => (grid(6, 6, 14), Shape::Mixed, 151, 3),
        };
        let scenario = Scenario::new(net.clone(), shape.cfg(seed));
        let workload: Box<dyn Workload> = match self {
            S::Churn => Box::new(Churn::new(scenario, &net)),
            S::Quiet => Box::new(Quiet(scenario)),
            _ => Box::new(scenario),
        };
        (net, workload, ticks)
    }
}

/// Queries installed and removed while the system runs: on top of the
/// inner workload's batches, every third tick installs a k = 3 query and
/// the query installed two ticks before the one after is removed.
pub struct Churn<W> {
    inner: W,
    edges: usize,
    t: usize,
}

impl<W: Workload> Churn<W> {
    pub fn new(inner: W, net: &RoadNetwork) -> Self {
        Self {
            inner,
            edges: net.num_edges(),
            t: 0,
        }
    }
}

impl<W: Workload> Workload for Churn<W> {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        self.inner.install_into(m);
    }

    fn tick(&mut self) -> UpdateBatch {
        self.t += 1;
        let t = self.t;
        let mut batch = self.inner.tick();
        if t % 3 == 0 {
            batch.queries.push(QueryEvent::Install {
                id: QueryId(1000 + t as u32),
                k: 3,
                at: NetPoint::new(EdgeId((t % self.edges) as u32), 0.4),
            });
        }
        if t % 3 == 2 && t > 3 {
            batch.queries.push(QueryEvent::Remove {
                id: QueryId(1000 + (t - 2) as u32),
            });
        }
        batch
    }
}

/// The inner workload's population, then empty ticks.
pub struct Quiet<W>(pub W);

impl<W: Workload> Workload for Quiet<W> {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        self.0.install_into(m);
    }
    fn tick(&mut self) -> UpdateBatch {
        UpdateBatch::default()
    }
}

/// A tight cluster of eight k = 5 queries that drifts across the network
/// four edge ids a tick, dragging the load hotspot over shard borders,
/// over one object per edge (each installed, like each query, as a
/// timestamp of its own); one object moves a tick. The forced-migration
/// rows run it into rebalancing engines and clusters.
pub struct Hotspot {
    edges: u32,
    t: u32,
}

impl Hotspot {
    const QUERIES: u32 = 8;

    pub fn new(net: &RoadNetwork) -> Self {
        Self {
            edges: net.num_edges() as u32,
            t: 0,
        }
    }
}

impl Workload for Hotspot {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        for i in 0..self.edges {
            m.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i), 0.45),
            ));
        }
        for q in 0..Self::QUERIES {
            let at = NetPoint::new(EdgeId(q % 4), 0.3);
            m.apply(UpdateEvent::install_query(QueryId(q), 5, at));
        }
    }

    fn tick(&mut self) -> UpdateBatch {
        let (t, n) = (self.t, self.edges);
        self.t += 1;
        let mut batch = UpdateBatch::default();
        for q in 0..Self::QUERIES {
            // Members fan out over four consecutive edge ids, oscillating
            // along the edge.
            let frac = if (t + q) % 2 == 0 { 0.25 } else { 0.7 };
            batch.queries.push(QueryEvent::Move {
                id: QueryId(q),
                to: NetPoint::new(EdgeId((t * 4 + q % 4) % n), frac),
            });
        }
        batch.objects.push(ObjectEvent::Move {
            id: ObjectId(t % n),
            to: NetPoint::new(EdgeId((t * 3) % n), 0.6),
        });
        batch
    }
}

/// What loads a [`Program`]'s population into a stack.
type Install = Box<dyn Fn(&mut dyn ContinuousMonitor)>;

/// A hand-written workload: `install` loads the population, then the
/// batches follow one per tick, and empty ones once they run out.
pub struct Program {
    install: Install,
    batches: VecDeque<UpdateBatch>,
}

impl Program {
    pub fn new(
        install: impl Fn(&mut dyn ContinuousMonitor) + 'static,
        batches: impl IntoIterator<Item = UpdateBatch>,
    ) -> Self {
        Self {
            install: Box::new(install),
            batches: batches.into_iter().collect(),
        }
    }

    /// A program whose population is `events`, each applied as a
    /// timestamp of its own.
    pub fn applying(
        events: Vec<UpdateEvent>,
        batches: impl IntoIterator<Item = UpdateBatch>,
    ) -> Self {
        Self::new(
            move |m| {
                for &ev in &events {
                    m.apply(ev);
                }
            },
            batches,
        )
    }
}

impl Workload for Program {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        (self.install)(m);
    }
    fn tick(&mut self) -> UpdateBatch {
        self.batches.pop_front().unwrap_or_default()
    }
}

/// A flash-crowd firehose: every moving entity is reported several times
/// a window. Its batch is the one-event-per-entity stream an `ING` stack
/// must fold the reports to.
pub struct FlashCrowd {
    fire: Firehose,
    raw: Vec<UpdateEvent>,
}

impl FlashCrowd {
    pub fn new(net: Arc<RoadNetwork>, scenario: ScenarioConfig) -> Self {
        let cfg = FirehoseConfig::new(FirehosePattern::FlashCrowd, scenario);
        Self {
            fire: Firehose::new(net, cfg),
            raw: Vec::new(),
        }
    }
}

impl Workload for FlashCrowd {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        self.fire.install_into(m);
    }

    fn tick(&mut self) -> UpdateBatch {
        let t = self.fire.tick();
        assert!(
            t.raw.len() > t.effective.len(),
            "a flash crowd oversamples every window"
        );
        self.raw = t.raw.to_vec();
        t.effective.clone()
    }

    fn reports(&self) -> Option<&[UpdateEvent]> {
        Some(&self.raw)
    }
}

/// Positions that make exact ties likely: edge ends (fractions 0 and 1,
/// where objects of different edges coincide), midpoints, and a few
/// arbitrary fractions, on few enough edges for objects to share a spot.
pub fn tie_prone_point(rng: &mut StdRng, num_edges: usize) -> NetPoint {
    let edge = EdgeId(rng.random_range(0..num_edges as u32));
    let frac = match rng.random_range(0..6usize) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        _ => f64::from(rng.random_range(0..997u32)) / 997.0,
    };
    NetPoint::new(edge, frac)
}

/// A workload whose answers are full of exact ties with the k-th
/// distance, on an [`exact_grid`]: weights are 32 or 64 and a weight
/// update halves or doubles one, so equal path lengths stay equal; objects
/// and 16 queries of mixed k sit on nodes, at midpoints and on four spots
/// shared by a third of all placements. Each tick moves about a quarter of
/// the objects and of the queries and reweights two edges.
pub struct TieProne {
    rng: StdRng,
    ne: usize,
    piles: [NetPoint; 4],
    base: EdgeWeights,
    weights: EdgeWeights,
    objects: Vec<(ObjectId, NetPoint)>,
    queries: Vec<(QueryId, usize, NetPoint)>,
}

impl TieProne {
    /// `n_objects` objects and 16 queries, each k one of 1, 3, 4 and 8,
    /// placed on `net`; every tick is drawn from `rng`.
    pub fn new(net: &RoadNetwork, rng: StdRng, n_objects: u32) -> Self {
        let ne = net.num_edges();
        let mut w = Self {
            rng,
            ne,
            piles: [NetPoint::new(EdgeId(0), 0.0); 4],
            base: EdgeWeights::from_base(net),
            weights: EdgeWeights::from_base(net),
            objects: Vec::new(),
            queries: Vec::new(),
        };
        for i in 0..4 {
            w.piles[i] = tie_prone_point(&mut w.rng, ne);
        }
        for i in 0..n_objects {
            let at = w.spot();
            w.objects.push((ObjectId(i), at));
        }
        for i in 0..16 {
            let k = [1, 3, 4, 8][w.rng.random_range(0..4usize)];
            let at = w.spot();
            w.queries.push((QueryId(i), k, at));
        }
        w
    }

    fn spot(&mut self) -> NetPoint {
        if self.rng.random_range(0..3usize) == 0 {
            self.piles[self.rng.random_range(0..4usize)]
        } else {
            tie_prone_point(&mut self.rng, self.ne)
        }
    }
}

impl Workload for TieProne {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        load_population(
            m,
            self.objects.iter().copied(),
            self.queries.iter().copied(),
        );
    }

    fn tick(&mut self) -> UpdateBatch {
        let mut batch = UpdateBatch::default();
        for i in 0..self.objects.len() {
            if self.rng.random_range(0..4usize) == 0 {
                let to = self.spot();
                self.objects[i].1 = to;
                let id = self.objects[i].0;
                batch.objects.push(ObjectEvent::Move { id, to });
            }
        }
        for i in 0..self.queries.len() {
            if self.rng.random_range(0..4usize) == 0 {
                let to = self.spot();
                self.queries[i].2 = to;
                let id = self.queries[i].0;
                batch.queries.push(QueryEvent::Move { id, to });
            }
        }
        for _ in 0..2 {
            let edge = EdgeId(self.rng.random_range(0..self.ne as u32));
            let (w, base) = (self.weights.get(edge), self.base.get(edge));
            // Halve or double, staying within a factor of four of the base.
            let new_weight = match self.rng.random::<bool>() {
                true if w > base / 4.0 => w / 2.0,
                _ if w < base * 4.0 => w * 2.0,
                _ => w / 2.0,
            };
            self.weights.set(edge, new_weight);
            batch.edges.push(EdgeWeightUpdate { edge, new_weight });
        }
        batch
    }
}
