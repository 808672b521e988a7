//! **SI** — the PMR quadtree spatial index on network edges (§3, \[9\]).
//!
//! > "Given the coordinates of an object p, we use SI to identify the edge
//! > where p lies. [...] Each leaf quad contains the ids of the edges
//! > intersecting it. The tree is built by iteratively inserting the network
//! > edges. If the number of edge ids in a leaf quad exceeds a threshold, it
//! > is split into four new ones."
//!
//! The index maps raw `(x, y)` coordinates (as sent by positioning devices)
//! to the containing edge. Because float coordinates never lie *exactly* on
//! a segment, lookup is implemented as best-first nearest-edge search over
//! the quad hierarchy, which is exact and deterministic (min distance, then
//! min edge id).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::{point_segment_dist, project_onto_segment, Point2, Rect};
use crate::graph::RoadNetwork;
use crate::ids::EdgeId;
use crate::netpoint::NetPoint;

/// PMR-quadtree split policy: a leaf splits when an insertion leaves it with
/// more than `threshold` edges, but each edge is only "re-split" down to
/// `max_depth` to bound degeneracy around shared endpoints (where many edges
/// meet in one point and can never be separated).
#[derive(Clone, Copy, Debug)]
pub struct QuadtreeConfig {
    /// Maximum edges per leaf before a split is attempted.
    pub threshold: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        Self {
            threshold: 8,
            max_depth: 16,
        }
    }
}

enum QuadNode {
    /// Leaf quad holding ids of the edges whose segment intersects it.
    Leaf(Vec<EdgeId>),
    /// Internal quad with four children `[SW, SE, NW, NE]` (indices into
    /// the arena).
    Internal([u32; 4]),
}

/// The PMR quadtree over a network's edge segments.
pub struct PmrQuadtree {
    nodes: Vec<QuadNode>,
    bounds: Rect,
    config: QuadtreeConfig,
    /// Cached segment endpoints per edge, so lookups don't chase the graph.
    segments: Vec<(Point2, Point2)>,
}

#[derive(PartialEq)]
struct Candidate {
    dist: f64,
    /// Quad arena index, or edge id (see `is_edge`).
    id: u32,
    depth: u32,
    rect: Rect,
    is_edge: bool,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; edges before quads at equal distance so ties
        // resolve deterministically; then id.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances must not be NaN")
            .then_with(|| self.is_edge.cmp(&other.is_edge))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PmrQuadtree {
    /// Builds the index by iteratively inserting every network edge.
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_with(net, QuadtreeConfig::default())
    }

    /// Builds the index with an explicit split policy.
    pub fn build_with(net: &RoadNetwork, config: QuadtreeConfig) -> Self {
        // Slightly inflate bounds so boundary points are strictly inside.
        let b = net.bounds();
        // lint: allow(float-tolerance): planar padding of the index bounds, not a distance
        let pad = (b.width().max(b.height()) * 1e-9).max(1e-9);
        let bounds = Rect::new(
            Point2::new(b.lo.x - pad, b.lo.y - pad),
            Point2::new(b.hi.x + pad, b.hi.y + pad),
        );
        let segments: Vec<(Point2, Point2)> = net
            .edge_ids()
            .map(|e| {
                let edge = net.edge(e);
                (net.node_pos(edge.start), net.node_pos(edge.end))
            })
            .collect();
        let mut tree = Self {
            nodes: vec![QuadNode::Leaf(Vec::new())],
            bounds,
            config,
            segments,
        };
        for e in net.edge_ids() {
            tree.insert(e);
        }
        tree
    }

    fn insert(&mut self, e: EdgeId) {
        self.insert_rec(0, self.bounds, 0, e);
    }

    fn insert_rec(&mut self, node: u32, rect: Rect, depth: usize, e: EdgeId) {
        let (a, b) = self.segments[e.index()];
        if !rect.intersects_segment(a, b) {
            return;
        }
        match &mut self.nodes[node as usize] {
            QuadNode::Leaf(edges) => {
                edges.push(e);
                // PMR split rule: split on overflow, but never re-split
                // beyond max_depth (prevents infinite recursion where many
                // segments share an endpoint).
                if edges.len() > self.config.threshold && depth < self.config.max_depth {
                    let moved = std::mem::take(edges);
                    let base = self.nodes.len() as u32;
                    for _ in 0..4 {
                        self.nodes.push(QuadNode::Leaf(Vec::new()));
                    }
                    self.nodes[node as usize] =
                        QuadNode::Internal([base, base + 1, base + 2, base + 3]);
                    let quads = rect.quadrants();
                    for old in moved {
                        for (i, q) in quads.iter().enumerate() {
                            self.insert_rec(base + i as u32, *q, depth + 1, old);
                        }
                    }
                }
            }
            QuadNode::Internal(children) => {
                let children = *children;
                for (i, q) in rect.quadrants().iter().enumerate() {
                    self.insert_rec(children[i], *q, depth + 1, e);
                }
            }
        }
    }

    /// The edge nearest to point `p`, with the Euclidean distance to it.
    /// Returns `None` only for an empty network.
    ///
    /// Best-first search over quads guarantees exactness even when the
    /// nearest edge lives in a neighbouring leaf.
    pub fn nearest_edge(&self, p: Point2) -> Option<(EdgeId, f64)> {
        let mut heap = BinaryHeap::new();
        heap.push(Candidate {
            dist: self.bounds.dist_to_point(p),
            id: 0,
            depth: 0,
            rect: self.bounds,
            is_edge: false,
        });
        let mut best: Option<(EdgeId, f64)> = None;
        while let Some(c) = heap.pop() {
            if let Some((_, bd)) = best {
                if c.dist > bd {
                    break;
                }
            }
            if c.is_edge {
                let e = EdgeId(c.id);
                match best {
                    Some((be, bd)) => {
                        if c.dist < bd || (c.dist == bd && e < be) {
                            best = Some((e, c.dist));
                        }
                    }
                    None => best = Some((e, c.dist)),
                }
                continue;
            }
            match &self.nodes[c.id as usize] {
                QuadNode::Leaf(edges) => {
                    for &e in edges {
                        let (a, b) = self.segments[e.index()];
                        heap.push(Candidate {
                            dist: point_segment_dist(p, a, b),
                            id: e.0,
                            depth: c.depth + 1,
                            rect: c.rect,
                            is_edge: true,
                        });
                    }
                }
                QuadNode::Internal(children) => {
                    for (i, q) in c.rect.quadrants().iter().enumerate() {
                        heap.push(Candidate {
                            dist: q.dist_to_point(p),
                            id: children[i],
                            depth: c.depth + 1,
                            rect: *q,
                            is_edge: false,
                        });
                    }
                }
            }
        }
        best
    }

    /// Resolves raw coordinates to a network position: the nearest edge and
    /// the projection of `p` onto it. This is the paper's "identify the edge
    /// containing p" operation.
    pub fn locate(&self, net: &RoadNetwork, p: Point2) -> Option<NetPoint> {
        let (e, _) = self.nearest_edge(p)?;
        let edge = net.edge(e);
        let (t, _) = project_onto_segment(p, net.node_pos(edge.start), net.node_pos(edge.end));
        Some(NetPoint::new(e, t))
    }

    /// All edges whose leaf quad contains `p` (the classic PMR point probe).
    /// May contain edges that do not actually pass near `p`; use
    /// [`Self::nearest_edge`] for exact resolution.
    pub fn probe(&self, p: Point2) -> &[EdgeId] {
        if !self.bounds.contains(p) {
            return &[];
        }
        let mut idx = 0u32;
        let mut rect = self.bounds;
        loop {
            match &self.nodes[idx as usize] {
                QuadNode::Leaf(edges) => return edges,
                QuadNode::Internal(children) => {
                    let c = rect.center();
                    let (qi, q) = match (p.x >= c.x, p.y >= c.y) {
                        (false, false) => (0, Rect::new(rect.lo, c)),
                        (true, false) => (
                            1,
                            Rect::new(Point2::new(c.x, rect.lo.y), Point2::new(rect.hi.x, c.y)),
                        ),
                        (false, true) => (
                            2,
                            Rect::new(Point2::new(rect.lo.x, c.y), Point2::new(c.x, rect.hi.y)),
                        ),
                        (true, true) => (3, Rect::new(c, rect.hi)),
                    };
                    idx = children[qi];
                    rect = q;
                }
            }
        }
    }

    /// Number of quads (leaves + internal) in the tree.
    pub fn num_quads(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth reached by any leaf.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[QuadNode], idx: u32, d: usize) -> usize {
            match &nodes[idx as usize] {
                QuadNode::Leaf(_) => d,
                QuadNode::Internal(ch) => {
                    ch.iter().map(|&c| rec(nodes, c, d + 1)).max().unwrap_or(d)
                }
            }
        }
        rec(&self.nodes, 0, 0)
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<QuadNode>()
            + self.segments.capacity() * std::mem::size_of::<(Point2, Point2)>();
        for n in &self.nodes {
            if let QuadNode::Leaf(v) = n {
                total += v.capacity() * std::mem::size_of::<EdgeId>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_city, GridCityConfig};
    use crate::graph::RoadNetworkBuilder;

    fn sample_net() -> RoadNetwork {
        grid_city(&GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 7,
            ..Default::default()
        })
    }

    /// Brute-force nearest edge for validation.
    fn brute_nearest(net: &RoadNetwork, p: Point2) -> (EdgeId, f64) {
        let mut best = (EdgeId(0), f64::INFINITY);
        for e in net.edge_ids() {
            let edge = net.edge(e);
            let d = point_segment_dist(p, net.node_pos(edge.start), net.node_pos(edge.end));
            if d < best.1 || (d == best.1 && e < best.0) {
                best = (e, d);
            }
        }
        best
    }

    #[test]
    fn nearest_matches_brute_force() {
        let net = sample_net();
        let tree = PmrQuadtree::build(&net);
        let b = net.bounds();
        let mut rng_state = 12345u64;
        let mut next = || {
            // Tiny xorshift so this test has no RNG dependency.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            let p = Point2::new(b.lo.x + next() * b.width(), b.lo.y + next() * b.height());
            let (e, d) = tree.nearest_edge(p).unwrap();
            let (be, bd) = brute_nearest(&net, p);
            assert!((d - bd).abs() < 1e-9, "distance mismatch at {p:?}");
            // On exact ties any of the tied edges is acceptable as long as
            // the tie-break is deterministic; with random points ties are
            // measure-zero, so ids must agree.
            assert_eq!(e, be, "edge mismatch at {p:?}");
        }
    }

    #[test]
    fn locate_points_on_edges_roundtrip() {
        let net = sample_net();
        let tree = PmrQuadtree::build(&net);
        for e in net.edge_ids().step_by(3) {
            for t in [0.1, 0.5, 0.9] {
                let p = NetPoint::new(e, t);
                let xy = p.coordinates(&net);
                let found = tree.locate(&net, xy).unwrap();
                // The point must resolve to an edge at distance ~0 and the
                // projected coordinates must coincide (the edge itself, or a
                // geometrically coincident one).
                let fxy = found.coordinates(&net);
                assert!(xy.dist(fxy) < 1e-9, "resolved off-position for {e:?} t={t}");
            }
        }
    }

    #[test]
    fn probe_leaf_contains_nearby_edge() {
        let net = sample_net();
        let tree = PmrQuadtree::build(&net);
        // Probing the midpoint of an edge must return a leaf that includes
        // that edge (the PMR invariant: leaves store all intersecting edges).
        for e in net.edge_ids().step_by(5) {
            let mid = NetPoint::new(e, 0.5).coordinates(&net);
            assert!(tree.probe(mid).contains(&e), "leaf misses its edge {e:?}");
        }
    }

    #[test]
    fn probe_outside_bounds_is_empty() {
        let net = sample_net();
        let tree = PmrQuadtree::build(&net);
        let b = net.bounds();
        assert!(tree
            .probe(Point2::new(b.hi.x + 100.0, b.hi.y + 100.0))
            .is_empty());
    }

    #[test]
    fn splits_happen_on_dense_networks() {
        let net = sample_net();
        let tree = PmrQuadtree::build_with(
            &net,
            QuadtreeConfig {
                threshold: 4,
                max_depth: 12,
            },
        );
        assert!(tree.num_quads() > 1, "tree never split");
        assert!(tree.depth() >= 2);
        assert!(tree.depth() <= 12);
    }

    #[test]
    fn degenerate_shared_endpoint_respects_max_depth() {
        // A star of 20 edges all meeting at one point can never be separated
        // by splitting; max_depth must stop recursion.
        let mut b = RoadNetworkBuilder::new();
        let c = b.add_node(0.0, 0.0);
        for i in 0..20 {
            let ang = i as f64 * 0.314;
            let n = b.add_node(ang.cos(), ang.sin());
            b.add_edge_euclidean(c, n);
        }
        let net = b.build().unwrap();
        let tree = PmrQuadtree::build_with(
            &net,
            QuadtreeConfig {
                threshold: 2,
                max_depth: 6,
            },
        );
        assert!(tree.depth() <= 6);
        // Lookup still works.
        let (e, d) = tree.nearest_edge(Point2::new(0.9, 0.0)).unwrap();
        let (be, bd) = brute_nearest(&net, Point2::new(0.9, 0.0));
        assert_eq!(e, be);
        assert!((d - bd).abs() < 1e-12);
    }

    #[test]
    fn single_edge_network() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        let net = b.build().unwrap();
        let tree = PmrQuadtree::build(&net);
        let (e, d) = tree.nearest_edge(Point2::new(0.5, 0.3)).unwrap();
        assert_eq!(e, EdgeId(0));
        assert!((d - 0.3).abs() < 1e-12);
        let loc = tree.locate(&net, Point2::new(0.25, 0.1)).unwrap();
        assert_eq!(loc.edge, EdgeId(0));
        assert!((loc.frac - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let net = sample_net();
        assert!(PmrQuadtree::build(&net).memory_bytes() > 0);
    }
}
