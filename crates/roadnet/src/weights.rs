//! Fluctuating edge weights (§3: "the weights fluctuate, depending on the
//! traffic conditions").
//!
//! Weights are kept in a dense table separate from the immutable topology so
//! that the workload simulator and each monitoring algorithm can hold their
//! own copies and apply the same update stream independently.
//!
//! ## The distance unit
//!
//! Every network distance is a multiple of [`UNIT`] `= 2^-21`: a weight is
//! rounded to the unit when it is stored, and a point's offset along its
//! edge is rounded once, in [`offset`]. A sum or difference of such
//! values below `2^32` (≈ 4.3e9) is exact in `f64`, so a distance does not
//! depend on the order its path was summed in (see the crate docs).

use serde::{Deserialize, Serialize};

use crate::graph::RoadNetwork;
use crate::ids::EdgeId;

/// Bits below the binary point of the distance unit.
const UNIT_BITS: i32 = 21;

/// The distance unit, `2^-21`: every weight and every distance is a
/// multiple of it.
pub const UNIT: f64 = 1.0 / (1u64 << UNIT_BITS) as f64;

/// The largest weight an edge may carry, `2^30` (≈ 1.07e9): [`unit()`] is
/// exact up to it, so every on-edge offset is too. Sums stay exact while
/// [`EdgeWeights::total`] is below `2^32`.
pub const MAX_WEIGHT: f64 = (1u64 << (51 - UNIT_BITS)) as f64;

/// Adding and subtracting `1.5 · 2^(52-21)` rounds away every bit below
/// the unit: for `|x| ≤ 2^30` the sum lies in `[2^31, 2^32]`, where one
/// ulp is one unit.
const ROUNDER: f64 = 1.5 * (1u64 << (52 - UNIT_BITS)) as f64;

/// `x` rounded to the nearest multiple of [`UNIT`] (ties to even); valid
/// for `|x| ≤ MAX_WEIGHT`.
#[inline]
pub fn unit(x: f64) -> f64 {
    (x + ROUNDER) - ROUNDER
}

/// Whether `w` may be an edge weight: at least one unit (so it stays
/// positive once rounded) and at most [`MAX_WEIGHT`]. NaN is not.
#[inline]
pub fn admits(w: f64) -> bool {
    (UNIT..=MAX_WEIGHT).contains(&w)
}

/// The one on-edge offset: the distance from an edge's `start` to the
/// point at fraction `frac` of it, `frac · w` rounded to the unit, for a
/// stored weight `w`. It lies in `[0, w]`; the distance to the edge's
/// `end` is `w − offset`, and between two points of one edge the
/// difference of their offsets, both exact.
#[inline]
pub fn offset(frac: f64, w: f64) -> f64 {
    unit(frac * w)
}

/// Dense table of current edge weights, indexed by [`EdgeId`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeWeights {
    w: Vec<f64>,
}

impl EdgeWeights {
    /// Initialises weights from the network's base weights (the paper's
    /// setup: initial weight = Euclidean length, §6), each rounded to the
    /// unit.
    pub fn from_base(net: &RoadNetwork) -> Self {
        Self {
            w: Vec::from_iter(net.edge_ids().map(|e| unit(net.edge(e).base_weight))),
        }
    }

    /// Initialises every edge to the same weight, rounded to the unit
    /// (useful in tests).
    ///
    /// # Panics
    /// Panics if [`admits`] refuses the weight.
    pub fn uniform(num_edges: usize, weight: f64) -> Self {
        assert!(admits(weight), "weight outside [UNIT, MAX_WEIGHT]");
        Self {
            w: vec![unit(weight); num_edges],
        }
    }

    /// Current weight of `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.w[e.index()]
    }

    /// Overwrites the weight of `e` with `weight` rounded to the unit.
    ///
    /// # Panics
    /// Panics if [`admits`] refuses the weight.
    #[inline]
    pub fn set(&mut self, e: EdgeId, weight: f64) {
        assert!(admits(weight), "weight outside [UNIT, MAX_WEIGHT]");
        self.w[e.index()] = unit(weight);
    }

    /// Number of edges covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Sum of all current weights — an upper bound on the network's
    /// weighted **diameter**: a shortest path is simple, so it traverses
    /// each edge at most once and its length never exceeds this total. The
    /// sharded engine uses it to cap "replicate everything" halo radii
    /// (from underfull queries, `kNN_dist = ∞`) at a finite value: a
    /// boundary expansion bounded by this total already reaches every
    /// reachable point, and finite radii keep the shrink logic comparable.
    /// The sum is exact while it is below `2^32`.
    pub fn total(&self) -> f64 {
        self.w.iter().sum()
    }

    /// Average current weight.
    pub fn average(&self) -> f64 {
        if self.w.is_empty() {
            return 0.0;
        }
        self.w.iter().sum::<f64>() / self.w.len() as f64
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.w.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    fn line() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(3.0, 0.0);
        let n2 = b.add_node(7.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        b.add_edge_euclidean(n1, n2);
        b.build().unwrap()
    }

    #[test]
    fn from_base_matches_topology() {
        let net = line();
        let w = EdgeWeights::from_base(&net);
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(EdgeId(0)), 3.0);
        assert_eq!(w.get(EdgeId(1)), 4.0);
        assert_eq!(w.average(), 3.5);
    }

    #[test]
    fn set_and_get() {
        let net = line();
        let mut w = EdgeWeights::from_base(&net);
        w.set(EdgeId(0), 3.3);
        assert_eq!(w.get(EdgeId(0)), unit(3.3));
        assert!(w.get(EdgeId(0)) != 3.3 && (w.get(EdgeId(0)) - 3.3).abs() <= UNIT / 2.0);
        assert_eq!(w.get(EdgeId(1)), 4.0);
    }

    #[test]
    #[should_panic(expected = "weight outside [UNIT, MAX_WEIGHT]")]
    fn rejects_zero_weight() {
        let net = line();
        let mut w = EdgeWeights::from_base(&net);
        w.set(EdgeId(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "weight outside [UNIT, MAX_WEIGHT]")]
    fn rejects_nan_weight() {
        let net = line();
        let mut w = EdgeWeights::from_base(&net);
        w.set(EdgeId(1), f64::NAN);
    }

    #[test]
    fn total_bounds_every_distance() {
        let net = line();
        let mut w = EdgeWeights::from_base(&net);
        assert_eq!(w.total(), 7.0);
        w.set(EdgeId(0), 10.0);
        assert_eq!(w.total(), 14.0);
        // The diameter (longest shortest path) of the line is 14 here.
        let mut eng = crate::dijkstra::DijkstraEngine::new(net.num_nodes());
        let d = eng.dist_between_nodes(&net, &w, crate::ids::NodeId(0), crate::ids::NodeId(2));
        assert!(d <= w.total());
    }

    /// The exactness contract of the unit: over random fractions and
    /// rounded weights, a point's two offsets sum to its edge's weight,
    /// the distance between two points of one edge is symmetric and the
    /// difference of their offsets, and a network distance is the same
    /// bits in either direction. Half the fractions are eighths, so that
    /// on an edge of an odd number of units `frac · w` falls on a
    /// half-unit tie, where rounding both offsets would lose a unit.
    #[test]
    fn offsets_and_network_distances_are_exact() {
        use crate::generators::{grid_city, GridCityConfig};
        use crate::netpoint::NetPoint;
        let net = grid_city(&GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 3,
            ..Default::default()
        });
        let mut w = EdgeWeights::from_base(&net);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let frac = |f: f64| if f < 0.5 { (f * 16.0).floor() / 8.0 } else { f };
        let edges = net.num_edges();
        for e in net.edge_ids() {
            if next() < 0.5 {
                w.set(e, 0.1 + 300.0 * next());
            }
        }
        let mut eng = crate::dijkstra::DijkstraEngine::new(net.num_nodes());
        for _ in 0..500 {
            let e = EdgeId::from_index((next() * edges as f64) as usize);
            let (a, b) = (
                NetPoint::new(e, frac(next())),
                NetPoint::new(e, frac(next())),
            );
            let we = w.get(e);
            assert_eq!(we, unit(we));
            assert_eq!(a.dist_to_start(&w) + a.dist_to_end(&w), we);
            let between = a.along_edge_dist(&b, &w);
            assert_eq!(between, b.along_edge_dist(&a, &w));
            assert_eq!(between, (a.dist_to_start(&w) - b.dist_to_start(&w)).abs());
            let far = NetPoint::new(
                EdgeId::from_index((next() * edges as f64) as usize),
                frac(next()),
            );
            let there = eng.dist_between_points(&net, &w, a, far);
            assert_eq!(there, eng.dist_between_points(&net, &w, far, a));
        }
    }

    #[test]
    fn uniform_table() {
        let w = EdgeWeights::uniform(4, 2.0);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        assert_eq!(w.get(EdgeId(3)), 2.0);
        assert_eq!(w.average(), 2.0);
    }
}
