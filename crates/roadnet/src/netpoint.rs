//! Positions *on* the network.
//!
//! Objects and queries live on edges (§3). A [`NetPoint`] pins an entity to
//! an edge at a normalised fraction `t ∈ [0, 1]` of the way from
//! `edge.start` to `edge.end`. Distances *along* the edge scale with the
//! edge's **current weight**: an entity at fraction `t` of edge `e` is at
//! weighted distance `t · w(e)` from `e.start`, rounded to the distance
//! unit by [`offset`] — the paper's convention ("en-heap the endpoints of
//! e with keys equal to the corresponding fraction of e.w", Fig. 2).

use serde::{Deserialize, Serialize};

use crate::geometry::Point2;
use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId};
use crate::weights::{offset, EdgeWeights};

/// A position on the road network: a point along an edge.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetPoint {
    /// The edge the point lies on.
    pub edge: EdgeId,
    /// Normalised position along the edge: 0 at `edge.start`, 1 at
    /// `edge.end`.
    pub frac: f64,
}

impl NetPoint {
    /// Creates a network point, clamping the fraction into `[0, 1]`.
    #[inline]
    pub fn new(edge: EdgeId, frac: f64) -> Self {
        Self {
            edge,
            frac: frac.clamp(0.0, 1.0),
        }
    }

    /// A point sitting exactly on `node`, expressed on one of its incident
    /// edges. Returns `None` for isolated nodes.
    pub fn at_node(net: &RoadNetwork, node: NodeId) -> Option<Self> {
        let &(e, _) = net.adjacent(node).first()?;
        let edge = net.edge(e);
        let frac = if edge.start == node { 0.0 } else { 1.0 };
        Some(Self { edge: e, frac })
    }

    /// Weighted distance from this point to `edge.start` under the current
    /// weights.
    #[inline]
    pub fn dist_to_start(&self, weights: &EdgeWeights) -> f64 {
        offset(self.frac, weights.get(self.edge))
    }

    /// Weighted distance from this point to `edge.end` under the current
    /// weights.
    #[inline]
    pub fn dist_to_end(&self, weights: &EdgeWeights) -> f64 {
        let w = weights.get(self.edge);
        w - offset(self.frac, w)
    }

    /// Weighted distance from this point to the endpoint `n` of its edge.
    ///
    /// # Panics
    /// Panics (in debug builds) if `n` is not an endpoint of the edge.
    #[inline]
    pub fn dist_to_endpoint(&self, net: &RoadNetwork, weights: &EdgeWeights, n: NodeId) -> f64 {
        let edge = net.edge(self.edge);
        if n == edge.start {
            self.dist_to_start(weights)
        } else {
            debug_assert_eq!(n, edge.end, "node is not an endpoint");
            self.dist_to_end(weights)
        }
    }

    /// If the point is one of the edge's endpoints (fraction exactly 0 or
    /// 1), returns that node.
    pub fn as_node(&self, net: &RoadNetwork) -> Option<NodeId> {
        let edge = net.edge(self.edge);
        if self.frac == 0.0 {
            Some(edge.start)
        } else if self.frac == 1.0 {
            Some(edge.end)
        } else {
            None
        }
    }

    /// Planar coordinates of the point (for the spatial index and display).
    pub fn coordinates(&self, net: &RoadNetwork) -> Point2 {
        let edge = net.edge(self.edge);
        net.node_pos(edge.start)
            .lerp(net.node_pos(edge.end), self.frac)
    }

    /// Weighted distance between two points **on the same edge** (the direct
    /// path along the edge, not necessarily the network shortest path).
    ///
    /// # Panics
    /// Panics (in debug builds) if the points are on different edges.
    #[inline]
    pub fn along_edge_dist(&self, other: &NetPoint, weights: &EdgeWeights) -> f64 {
        debug_assert_eq!(self.edge, other.edge, "points must share an edge");
        (self.dist_to_start(weights) - other.dist_to_start(weights)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    fn triangle() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(4.0, 0.0);
        let n2 = b.add_node(0.0, 3.0);
        b.add_edge_euclidean(n0, n1); // e0, w=4
        b.add_edge_euclidean(n1, n2); // e1, w=5
        b.add_edge_euclidean(n2, n0); // e2, w=3
        b.build().unwrap()
    }

    #[test]
    fn clamping() {
        let p = NetPoint::new(EdgeId(0), 1.5);
        assert_eq!(p.frac, 1.0);
        let p = NetPoint::new(EdgeId(0), -0.5);
        assert_eq!(p.frac, 0.0);
    }

    #[test]
    fn distances_scale_with_weight() {
        let net = triangle();
        let mut w = EdgeWeights::from_base(&net);
        let p = NetPoint::new(EdgeId(0), 0.25);
        assert_eq!((p.dist_to_start(&w), p.dist_to_end(&w)), (1.0, 3.0));
        // Doubling the weight doubles both distances; the fraction is fixed.
        w.set(EdgeId(0), 8.0);
        assert_eq!((p.dist_to_start(&w), p.dist_to_end(&w)), (2.0, 6.0));
    }

    #[test]
    fn dist_to_named_endpoint() {
        let net = triangle();
        let w = EdgeWeights::from_base(&net);
        let p = NetPoint::new(EdgeId(1), 0.25); // edge n1->n2, w=5
        assert_eq!(p.dist_to_endpoint(&net, &w, NodeId(1)), 1.25);
        assert_eq!(p.dist_to_endpoint(&net, &w, NodeId(2)), 3.75);
    }

    #[test]
    fn node_snapping() {
        let net = triangle();
        let p = NetPoint::new(EdgeId(0), 0.0);
        assert_eq!(p.as_node(&net), Some(NodeId(0)));
        let p = NetPoint::new(EdgeId(0), 1.0);
        assert_eq!(p.as_node(&net), Some(NodeId(1)));
        // Exact: a point one ulp inside the edge is not its endpoint.
        for frac in [0.5, f64::EPSILON, 1.0 - f64::EPSILON] {
            assert_eq!(NetPoint::new(EdgeId(0), frac).as_node(&net), None);
        }
    }

    #[test]
    fn at_node_round_trips() {
        let net = triangle();
        for n in net.node_ids() {
            let p = NetPoint::at_node(&net, n).unwrap();
            assert_eq!(p.as_node(&net), Some(n));
            assert!(p.coordinates(&net).dist(net.node_pos(n)) < 1e-12);
        }
    }

    #[test]
    fn coordinates_interpolate() {
        let net = triangle();
        let p = NetPoint::new(EdgeId(0), 0.5);
        assert_eq!(p.coordinates(&net), Point2::new(2.0, 0.0));
    }

    #[test]
    fn along_edge_distance() {
        let net = triangle();
        let w = EdgeWeights::from_base(&net);
        let a = NetPoint::new(EdgeId(0), 0.25);
        let b = NetPoint::new(EdgeId(0), 0.75);
        assert_eq!(a.along_edge_dist(&b, &w), 2.0);
        assert_eq!(b.along_edge_dist(&a, &w), 2.0);
    }
}
