//! The road-network graph (§3 of the paper).
//!
//! A [`RoadNetwork`] is the *static topology*: nodes with coordinates,
//! bidirectional edges, adjacency, and each edge's **base weight** (the paper
//! initialises weights to the Euclidean endpoint distance, §6). The
//! *fluctuating* weights that traffic updates mutate live in a separate
//! [`crate::weights::EdgeWeights`] table so that several monitoring
//! algorithms can share one immutable topology while maintaining their own
//! dynamic state.

use serde::{Deserialize, Serialize};

use crate::geometry::{Point2, Rect};
use crate::ids::{EdgeId, NodeId};

/// A road segment between two nodes.
///
/// Edges are bidirectional (§3: "for simplicity we consider that the edges
/// are bidirectional"); `start`/`end` merely fix an orientation so that
/// positions along the edge ([`crate::netpoint::NetPoint`]) are well defined.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// First endpoint.
    pub start: NodeId,
    /// Second endpoint.
    pub end: NodeId,
    /// Initial weight (Euclidean length of the segment by construction in
    /// the generators; arbitrary positive value for hand-built networks).
    pub base_weight: f64,
}

impl Edge {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.start {
            self.end
        } else {
            debug_assert_eq!(n, self.end, "node is not an endpoint of this edge");
            self.start
        }
    }

    /// Whether `n` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.start || n == self.end
    }
}

/// Serializable raw form of a network (nodes + edges, no derived state).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkData {
    /// Node coordinates, indexed by [`NodeId`].
    pub nodes: Vec<Point2>,
    /// Edges, indexed by [`EdgeId`].
    pub edges: Vec<Edge>,
}

/// Errors produced while validating a network under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An edge references a node id that was never added.
    DanglingEdge {
        /// The offending edge.
        edge: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop {
        /// The offending edge.
        edge: usize,
    },
    /// An edge has a base weight outside `[UNIT, MAX_WEIGHT]`
    /// ([`crate::weights::admits`]).
    BadWeight {
        /// The offending edge.
        edge: usize,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::DanglingEdge { edge } => {
                write!(f, "edge {edge} references a nonexistent node")
            }
            NetworkError::SelfLoop { edge } => write!(f, "edge {edge} is a self-loop"),
            NetworkError::BadWeight { edge } => {
                write!(f, "edge {edge} has a weight outside [UNIT, MAX_WEIGHT]")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Incremental builder for [`RoadNetwork`].
#[derive(Default, Clone, Debug)]
pub struct RoadNetworkBuilder {
    nodes: Vec<Point2>,
    edges: Vec<Edge>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `(x, y)` and returns its id.
    pub fn add_node(&mut self, x: f64, y: f64) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Point2::new(x, y));
        id
    }

    /// Adds an edge with an explicit base weight and returns its id.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, base_weight: f64) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge {
            start: a,
            end: b,
            base_weight,
        });
        id
    }

    /// Adds an edge whose base weight is the Euclidean distance between its
    /// endpoints (the paper's initialisation, §6).
    ///
    /// # Panics
    /// Panics if either node id is out of range.
    pub fn add_edge_euclidean(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        let w = self.nodes[a.index()].dist(self.nodes[b.index()]);
        self.add_edge(a, b, w)
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates and freezes the network, building adjacency.
    pub fn build(self) -> Result<RoadNetwork, NetworkError> {
        RoadNetwork::from_data(NetworkData {
            nodes: self.nodes,
            edges: self.edges,
        })
    }
}

/// The immutable road-network topology.
///
/// Adjacency is stored in CSR (compressed sparse row) form: one flat array
/// of `(EdgeId, NodeId)` pairs plus per-node offsets. This keeps iteration
/// over a node's incident edges allocation-free and cache-friendly, which
/// matters because network expansion (§4.1) is the hottest loop in the
/// entire system.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    nodes: Vec<Point2>,
    edges: Vec<Edge>,
    /// CSR offsets: incident edges of node `n` are
    /// `adj_flat[adj_off[n] .. adj_off[n + 1]]`.
    adj_off: Vec<u32>,
    /// Flat adjacency: `(incident edge, opposite endpoint)`.
    adj_flat: Vec<(EdgeId, NodeId)>,
    bounds: Rect,
}

impl RoadNetwork {
    /// Builds a network from raw data, validating it.
    pub fn from_data(data: NetworkData) -> Result<Self, NetworkError> {
        let NetworkData { nodes, edges } = data;
        let n = nodes.len();
        for (i, e) in edges.iter().enumerate() {
            if e.start.index() >= n || e.end.index() >= n {
                return Err(NetworkError::DanglingEdge { edge: i });
            }
            if e.start == e.end {
                return Err(NetworkError::SelfLoop { edge: i });
            }
            if !crate::weights::admits(e.base_weight) {
                return Err(NetworkError::BadWeight { edge: i });
            }
        }
        // Counting sort into CSR.
        let mut degree = vec![0u32; n];
        for e in &edges {
            degree[e.start.index()] += 1;
            degree[e.end.index()] += 1;
        }
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        adj_off.push(0);
        for d in &degree {
            acc += d;
            adj_off.push(acc);
        }
        let mut cursor = adj_off.clone();
        let mut adj_flat = vec![(EdgeId(0), NodeId(0)); edges.len() * 2];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            let cs = &mut cursor[e.start.index()];
            adj_flat[*cs as usize] = (id, e.end);
            *cs += 1;
            let ce = &mut cursor[e.end.index()];
            adj_flat[*ce as usize] = (id, e.start);
            *ce += 1;
        }
        let bounds = Rect::bounding(nodes.iter().copied())
            .unwrap_or(Rect::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)));
        Ok(Self {
            nodes,
            edges,
            adj_off,
            adj_flat,
            bounds,
        })
    }

    /// Extracts the serializable raw form.
    pub fn to_data(&self) -> NetworkData {
        NetworkData {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Coordinates of node `n`.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    #[inline]
    pub fn node_pos(&self, n: NodeId) -> Point2 {
        self.nodes[n.index()]
    }

    /// The edge record for `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Incident `(edge, opposite endpoint)` pairs of node `n`.
    #[inline]
    pub fn adjacent(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        let lo = self.adj_off[n.index()] as usize;
        let hi = self.adj_off[n.index() + 1] as usize;
        &self.adj_flat[lo..hi]
    }

    /// Degree of node `n` (number of incident edges).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        (self.adj_off[n.index() + 1] - self.adj_off[n.index()]) as usize
    }

    /// Whether `n` is an intersection or terminal node (degree ≠ 2), i.e. a
    /// sequence endpoint in the sense of §5.
    #[inline]
    pub fn is_sequence_endpoint(&self, n: NodeId) -> bool {
        self.degree(n) != 2
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Bounding box of all node coordinates.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Euclidean length of edge `e` (distance between its endpoints —
    /// distinct from its fluctuating weight).
    #[inline]
    pub fn edge_euclidean_len(&self, e: EdgeId) -> f64 {
        let edge = self.edge(e);
        self.node_pos(edge.start).dist(self.node_pos(edge.end))
    }

    /// Average base weight across all edges.
    pub fn avg_base_weight(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.iter().map(|e| e.base_weight).sum::<f64>() / self.edges.len() as f64
    }

    /// Node ids of the connected component containing `start`.
    pub fn component_of(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            out.push(n);
            for &(_, m) in self.adjacent(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        out
    }

    /// Whether the whole network is a single connected component.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        self.component_of(NodeId(0)).len() == self.num_nodes()
    }

    /// Approximate resident size of the topology in bytes (for the memory
    /// experiments, Fig. 18 — reported separately from per-algorithm state).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Point2>()
            + self.edges.capacity() * std::mem::size_of::<Edge>()
            + self.adj_off.capacity() * std::mem::size_of::<u32>()
            + self.adj_flat.capacity() * std::mem::size_of::<(EdgeId, NodeId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the small running-example-style network used across tests:
    ///
    /// ```text
    ///   0 --(e0)-- 1 --(e1)-- 2
    ///              |          |
    ///             (e2)       (e3)
    ///              |          |
    ///              3 --(e4)-- 4
    /// ```
    fn diamond() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 1.0);
        let n1 = b.add_node(1.0, 1.0);
        let n2 = b.add_node(2.0, 1.0);
        let n3 = b.add_node(1.0, 0.0);
        let n4 = b.add_node(2.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        b.add_edge_euclidean(n1, n2);
        b.add_edge_euclidean(n1, n3);
        b.add_edge_euclidean(n2, n4);
        b.add_edge_euclidean(n3, n4);
        b.build().unwrap()
    }

    #[test]
    fn builder_counts_and_ids() {
        let net = diamond();
        assert_eq!(net.num_nodes(), 5);
        assert_eq!(net.num_edges(), 5);
        assert_eq!(net.node_ids().count(), 5);
        assert_eq!(net.edge_ids().count(), 5);
    }

    #[test]
    fn euclidean_weights() {
        let net = diamond();
        for e in net.edge_ids() {
            assert!((net.edge(e).base_weight - net.edge_euclidean_len(e)).abs() < 1e-12);
        }
        assert!((net.avg_base_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_symmetric_and_complete() {
        let net = diamond();
        let mut total = 0;
        for n in net.node_ids() {
            for &(e, m) in net.adjacent(n) {
                total += 1;
                assert_eq!(net.edge(e).other(n), m);
                // The reverse entry exists.
                assert!(net.adjacent(m).iter().any(|&(e2, n2)| e2 == e && n2 == n));
            }
        }
        assert_eq!(total, net.num_edges() * 2);
    }

    #[test]
    fn degrees() {
        let net = diamond();
        assert_eq!(net.degree(NodeId(0)), 1);
        assert_eq!(net.degree(NodeId(1)), 3);
        assert_eq!(net.degree(NodeId(2)), 2);
        assert!(net.is_sequence_endpoint(NodeId(0)));
        assert!(net.is_sequence_endpoint(NodeId(1)));
        assert!(!net.is_sequence_endpoint(NodeId(2)));
    }

    #[test]
    fn connectivity() {
        let net = diamond();
        assert!(net.is_connected());
        assert_eq!(net.component_of(NodeId(3)).len(), 5);

        // Two disjoint segments.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let d = b.add_node(5.0, 0.0);
        let e = b.add_node(6.0, 0.0);
        b.add_edge_euclidean(a, c);
        b.add_edge_euclidean(d, e);
        let net2 = b.build().unwrap();
        assert!(!net2.is_connected());
        assert_eq!(net2.component_of(a).len(), 2);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        // Self loop.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0);
        b.add_edge(a, a, 1.0);
        assert_eq!(b.build().unwrap_err(), NetworkError::SelfLoop { edge: 0 });

        // Dangling edge.
        let data = NetworkData {
            nodes: vec![Point2::new(0.0, 0.0)],
            edges: vec![Edge {
                start: NodeId(0),
                end: NodeId(9),
                base_weight: 1.0,
            }],
        };
        assert_eq!(
            RoadNetwork::from_data(data).unwrap_err(),
            NetworkError::DanglingEdge { edge: 0 }
        );

        // Zero weight.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, 0.0);
        assert_eq!(b.build().unwrap_err(), NetworkError::BadWeight { edge: 0 });

        // NaN weight.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, f64::NAN);
        assert_eq!(b.build().unwrap_err(), NetworkError::BadWeight { edge: 0 });
    }

    #[test]
    fn data_roundtrip() {
        let net = diamond();
        let data = net.to_data();
        let net2 = RoadNetwork::from_data(data).unwrap();
        assert_eq!(net2.num_nodes(), net.num_nodes());
        assert_eq!(net2.num_edges(), net.num_edges());
        for n in net.node_ids() {
            assert_eq!(net.adjacent(n), net2.adjacent(n));
        }
    }

    #[test]
    fn bounds_cover_all_nodes() {
        let net = diamond();
        let b = net.bounds();
        for n in net.node_ids() {
            assert!(b.contains(net.node_pos(n)));
        }
    }

    #[test]
    fn edge_other_endpoint() {
        let net = diamond();
        let e = net.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
        assert!(e.touches(NodeId(0)));
        assert!(!e.touches(NodeId(4)));
    }

    #[test]
    fn memory_accounting_nonzero() {
        assert!(diamond().memory_bytes() > 0);
    }
}
