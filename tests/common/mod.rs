//! What the differential suites share: the workloads they drive every
//! stack with. Each suite includes it with `mod common;` and uses what it
//! needs of it.

#![allow(dead_code)]

use std::sync::Arc;

use rnn_monitor::core::{
    load_population, ContinuousMonitor, EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateBatch,
};
use rnn_monitor::roadnet::{
    generators, EdgeId, EdgeWeights, NetPoint, ObjectId, QueryId, RoadNetwork,
};
use rnn_monitor::workload::Scenario;

/// A population to install, then one update batch per tick.
pub trait Workload {
    /// Installs the initial objects and queries into `m`.
    fn install_into(&self, m: &mut dyn ContinuousMonitor);
    /// The next tick's batch.
    fn tick(&mut self) -> UpdateBatch;
}

impl Workload for Scenario {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        Scenario::install_into(self, m);
    }
    fn tick(&mut self) -> UpdateBatch {
        Scenario::tick(self)
    }
}

/// Positions that make exact ties likely: edge ends (fractions 0 and 1,
/// where objects of different edges coincide), midpoints, and a few
/// arbitrary fractions, on few enough edges for objects to share a spot.
pub fn tie_prone_point(r: u64, num_edges: usize) -> NetPoint {
    let edge = EdgeId(((r >> 8) % num_edges as u64) as u32);
    let frac = match r % 6 {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        _ => ((r >> 20) % 997) as f64 / 997.0,
    };
    NetPoint::new(edge, frac)
}

/// A workload whose answers are full of exact ties with the k-th
/// distance. The grid's weights are 32 or 64 and a weight update halves
/// or doubles one, so equal path lengths stay equal; objects and 16
/// queries of mixed k sit on nodes, at midpoints and on four spots shared
/// by a third of all placements. Each tick moves about a quarter of the
/// objects and of the queries and reweights two edges.
pub struct TieProne {
    rng: u64,
    ne: usize,
    piles: [NetPoint; 4],
    base: EdgeWeights,
    weights: EdgeWeights,
    objects: Vec<(ObjectId, NetPoint)>,
    queries: Vec<(QueryId, usize, NetPoint)>,
}

impl TieProne {
    /// The grid the workload runs on: `nx` × `ny` intersections 64 apart,
    /// each street split into one or two segments.
    pub fn network(nx: usize, ny: usize, seed: u64) -> Arc<RoadNetwork> {
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

    /// `n_objects` objects and 16 queries, each k one of 1, 3, 4 and 8,
    /// placed on `net` by a stream seeded with `seed`.
    pub fn new(net: &RoadNetwork, seed: u64, n_objects: u32) -> Self {
        let ne = net.num_edges();
        let mut w = Self {
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            ne,
            piles: [NetPoint::new(EdgeId(0), 0.0); 4],
            base: EdgeWeights::from_base(net),
            weights: EdgeWeights::from_base(net),
            objects: Vec::new(),
            queries: Vec::new(),
        };
        for i in 0..4 {
            w.piles[i] = tie_prone_point(w.next(), ne);
        }
        for i in 0..n_objects {
            let at = w.spot();
            w.objects.push((ObjectId(i), at));
        }
        for i in 0..16 {
            let k = [1, 3, 4, 8][(w.next() % 4) as usize];
            let at = w.spot();
            w.queries.push((QueryId(i), k, at));
        }
        w
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn spot(&mut self) -> NetPoint {
        if self.next() % 3 == 0 {
            self.piles[(self.next() % 4) as usize]
        } else {
            tie_prone_point(self.next(), self.ne)
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
            if self.next() % 4 == 0 {
                let to = self.spot();
                self.objects[i].1 = to;
                let id = self.objects[i].0;
                batch.objects.push(ObjectEvent::Move { id, to });
            }
        }
        for i in 0..self.queries.len() {
            if self.next() % 4 == 0 {
                let to = self.spot();
                self.queries[i].2 = to;
                let id = self.queries[i].0;
                batch.queries.push(QueryEvent::Move { id, to });
            }
        }
        for _ in 0..2 {
            let edge = EdgeId((self.next() % self.ne as u64) as u32);
            let (w, base) = (self.weights.get(edge), self.base.get(edge));
            // Halve or double, staying within a factor of four of the base.
            let new_weight = match self.next() % 2 {
                0 if w > base / 4.0 => w / 2.0,
                _ if w < base * 4.0 => w * 2.0,
                _ => w / 2.0,
            };
            self.weights.set(edge, new_weight);
            batch.edges.push(EdgeWeightUpdate { edge, new_weight });
        }
        batch
    }
}
