//! Sequence decomposition of the network (§5).
//!
//! > "A sequence is a path between two nodes nᵢ and nⱼ, such that (i) the
//! > degrees of nᵢ and nⱼ are not equal to 2 and (ii) all intermediate nodes
//! > in the path have degree 2. [...] every graph is partitioned in a set of
//! > sequences that cover all nodes and whose edges do not overlap."
//!
//! GMA groups the queries that fall inside one sequence and monitors the
//! k-NN sets of its two endpoint intersections instead of each query
//! individually. The [`SequenceTable`] (the paper's **ST**) maps every edge
//! to its unique sequence and its position within it.
//!
//! Isolated cycles in which *every* node has degree 2 have no natural
//! endpoint; we break them at an arbitrary node (the smallest id on the
//! cycle), which yields a sequence whose two endpoints coincide. Such cycles
//! can only occur as whole connected components (a cycle attached to
//! anything else contains a node of degree ≥ 3), so correctness of GMA's
//! Lemma 1 is unaffected.

use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId, SeqId};
use crate::netpoint::NetPoint;
use crate::weights::{offset, EdgeWeights};

/// One sequence: an oriented maximal path of edges between two
/// intersection/terminal nodes.
#[derive(Clone, Debug)]
pub struct Sequence {
    /// This sequence's id.
    pub id: SeqId,
    /// Ordered nodes along the path, including both endpoints
    /// (`nodes.len() == edges.len() + 1`). For a broken cycle the first and
    /// last node coincide.
    pub nodes: Vec<NodeId>,
    /// Ordered edges along the path.
    pub edges: Vec<EdgeId>,
    /// `forward[i]` is true when `edges[i]` is traversed from its `start`
    /// to its `end` while walking `nodes[i] → nodes[i+1]`.
    pub forward: Vec<bool>,
}

impl Sequence {
    /// First endpoint (a degree≠2 node, or the cycle breakpoint).
    #[inline]
    pub fn start_node(&self) -> NodeId {
        self.nodes[0]
    }

    /// Second endpoint.
    #[inline]
    pub fn end_node(&self) -> NodeId {
        *self.nodes.last().expect("sequences are non-empty")
    }

    /// Whether this sequence is a broken isolated cycle.
    #[inline]
    pub fn is_cycle(&self) -> bool {
        self.start_node() == self.end_node()
    }

    /// Total current weight of the sequence.
    pub fn total_weight(&self, weights: &EdgeWeights) -> f64 {
        self.edges.iter().map(|&e| weights.get(e)).sum()
    }

    /// Along-sequence weighted distances from a point on this sequence to
    /// `(start_node, end_node)`.
    ///
    /// These are distances along the path itself, which is exactly what GMA
    /// needs: any shortest path from an interior point to the rest of the
    /// network leaves through one of the endpoints (§5).
    ///
    /// # Panics
    /// Panics if `p.edge` is not part of this sequence.
    pub fn dist_to_endpoints(&self, weights: &EdgeWeights, p: NetPoint) -> (f64, f64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| e == p.edge)
            .expect("point does not lie on this sequence");
        let before: f64 = self.edges[..idx].iter().map(|&e| weights.get(e)).sum();
        let w = weights.get(p.edge);
        let along = if self.forward[idx] {
            offset(p.frac, w)
        } else {
            w - offset(p.frac, w)
        };
        let after: f64 = self.edges[idx + 1..].iter().map(|&e| weights.get(e)).sum();
        (before + along, after + (w - along))
    }

    /// The position index of `e` within this sequence, if present.
    pub fn edge_offset(&self, e: EdgeId) -> Option<usize> {
        self.edges.iter().position(|&x| x == e)
    }
}

/// **ST** — the sequence table: the full decomposition plus the edge → sequence
/// mapping kept by the edge table in the paper.
pub struct SequenceTable {
    seqs: Vec<Sequence>,
    edge_seq: Vec<SeqId>,
}

impl SequenceTable {
    /// Decomposes `net` into sequences.
    pub fn build(net: &RoadNetwork) -> Self {
        let mut visited = vec![false; net.num_edges()];
        let mut seqs: Vec<Sequence> = Vec::new();
        let mut edge_seq = vec![SeqId(u32::MAX); net.num_edges()];

        let walk = |start: NodeId,
                    first: EdgeId,
                    visited: &mut Vec<bool>,
                    seqs: &mut Vec<Sequence>,
                    edge_seq: &mut Vec<SeqId>| {
            if visited[first.index()] {
                return;
            }
            let id = SeqId::from_index(seqs.len());
            let mut nodes = vec![start];
            let mut edges = Vec::new();
            let mut forward = Vec::new();
            let mut cur_node = start;
            let mut cur_edge = first;
            loop {
                visited[cur_edge.index()] = true;
                edge_seq[cur_edge.index()] = id;
                let rec = net.edge(cur_edge);
                forward.push(rec.start == cur_node);
                edges.push(cur_edge);
                let next = rec.other(cur_node);
                nodes.push(next);
                if net.degree(next) != 2 || next == start {
                    break;
                }
                // Continue through the degree-2 node via its other edge.
                let (e2, _) = net
                    .adjacent(next)
                    .iter()
                    .copied()
                    .find(|&(e, _)| e != cur_edge)
                    .expect("degree-2 node must have a second incident edge");
                if visited[e2.index()] {
                    break; // closed a cycle back onto the walked path
                }
                cur_node = next;
                cur_edge = e2;
            }
            seqs.push(Sequence {
                id,
                nodes,
                edges,
                forward,
            });
        };

        // Phase 1: walk out of every intersection / terminal node.
        for n in net.node_ids() {
            if net.degree(n) != 2 {
                for &(e, _) in net.adjacent(n) {
                    walk(n, e, &mut visited, &mut seqs, &mut edge_seq);
                }
            }
        }
        // Phase 2: isolated all-degree-2 cycles; break at the smallest
        // remaining node id (the start of the first unvisited edge).
        for e in net.edge_ids() {
            if !visited[e.index()] {
                let start = net.edge(e).start;
                walk(start, e, &mut visited, &mut seqs, &mut edge_seq);
            }
        }
        Self { seqs, edge_seq }
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the network has no sequences (no edges).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The sequence record.
    #[inline]
    pub fn sequence(&self, id: SeqId) -> &Sequence {
        &self.seqs[id.index()]
    }

    /// The sequence containing edge `e`.
    #[inline]
    pub fn seq_of_edge(&self, e: EdgeId) -> SeqId {
        self.edge_seq[e.index()]
    }

    /// Iterator over all sequences.
    pub fn iter(&self) -> impl Iterator<Item = &Sequence> {
        self.seqs.iter()
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.seqs.capacity() * std::mem::size_of::<Sequence>()
            + self.edge_seq.capacity() * std::mem::size_of::<SeqId>();
        for s in &self.seqs {
            total += s.nodes.capacity() * std::mem::size_of::<NodeId>()
                + s.edges.capacity() * std::mem::size_of::<EdgeId>()
                + s.forward.capacity();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    /// The §5 example (Figure 11): seven sequences.
    ///
    /// ```text
    /// n8   n9
    ///   \ /
    ///    n1 ------- n2 --- n3
    ///    |          |
    ///    n7         |
    ///    |          |
    ///    n6 -- n5 --+
    ///           |
    ///           n4
    /// ```
    fn figure11() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n1 = b.add_node(1.0, 2.0); // 0
        let n2 = b.add_node(3.0, 2.0); // 1
        let n3 = b.add_node(4.0, 2.0); // 2
        let n4 = b.add_node(3.0, 0.0); // 3
        let n5 = b.add_node(3.0, 1.0); // 4
        let n6 = b.add_node(2.0, 1.0); // 5
        let n7 = b.add_node(1.0, 1.0); // 6
        let n8 = b.add_node(0.0, 3.0); // 7
        let n9 = b.add_node(2.0, 3.0); // 8
        b.add_edge_euclidean(n1, n8);
        b.add_edge_euclidean(n1, n9);
        b.add_edge_euclidean(n1, n7);
        b.add_edge_euclidean(n7, n6);
        b.add_edge_euclidean(n6, n5);
        b.add_edge_euclidean(n1, n2);
        b.add_edge_euclidean(n2, n3);
        b.add_edge_euclidean(n2, n5);
        b.add_edge_euclidean(n5, n4);
        b.build().unwrap()
    }

    fn invariants(net: &RoadNetwork, st: &SequenceTable) {
        // Every edge belongs to exactly one sequence, at a consistent offset.
        let mut seen = vec![false; net.num_edges()];
        for s in st.iter() {
            assert_eq!(s.nodes.len(), s.edges.len() + 1);
            for (i, &e) in s.edges.iter().enumerate() {
                assert!(!seen[e.index()], "edge {e:?} in two sequences");
                seen[e.index()] = true;
                assert_eq!(st.seq_of_edge(e), s.id);
                assert_eq!(s.edge_offset(e), Some(i));
                // Orientation consistency.
                let rec = net.edge(e);
                let (a, b) = if s.forward[i] {
                    (rec.start, rec.end)
                } else {
                    (rec.end, rec.start)
                };
                assert_eq!(s.nodes[i], a);
                assert_eq!(s.nodes[i + 1], b);
            }
            // Interior nodes have degree 2; endpoints don't (unless cycle).
            for &n in &s.nodes[1..s.nodes.len() - 1] {
                assert_eq!(net.degree(n), 2, "interior node {n:?} of wrong degree");
            }
            if !s.is_cycle() {
                assert_ne!(net.degree(s.start_node()), 2);
                assert_ne!(net.degree(s.end_node()), 2);
            }
        }
        assert!(seen.iter().all(|&x| x), "some edge not covered");
    }

    #[test]
    fn figure11_has_seven_sequences() {
        let net = figure11();
        let st = SequenceTable::build(&net);
        assert_eq!(st.len(), 7, "paper: seven sequences in Figure 11");
        invariants(&net, &st);
        // The long sequence n1-n7-n6-n5 exists with 3 edges.
        assert!(st.iter().any(|s| s.edges.len() == 3));
    }

    #[test]
    fn single_edge_network_is_one_sequence() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge_euclidean(a, c);
        let net = b.build().unwrap();
        let st = SequenceTable::build(&net);
        assert_eq!(st.len(), 1);
        invariants(&net, &st);
    }

    #[test]
    fn isolated_cycle_breaks_into_one_sequence() {
        let mut b = RoadNetworkBuilder::new();
        let n: Vec<_> = (0..5)
            .map(|i| {
                let a = i as f64 * 1.2566;
                b.add_node(a.cos(), a.sin())
            })
            .collect();
        for i in 0..5 {
            b.add_edge_euclidean(n[i], n[(i + 1) % 5]);
        }
        let net = b.build().unwrap();
        let st = SequenceTable::build(&net);
        assert_eq!(st.len(), 1);
        let s = st.sequence(SeqId(0));
        assert!(s.is_cycle());
        assert_eq!(s.edges.len(), 5);
        invariants(&net, &st);
    }

    #[test]
    fn along_sequence_distances() {
        // Chain 0 -1- 1 -2- 2 -1- 3 (weights 1, 2, 1), intersection only at
        // ends (degrees 1).
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        let n2 = b.add_node(3.0, 0.0);
        let n3 = b.add_node(4.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        b.add_edge_euclidean(n1, n2);
        b.add_edge_euclidean(n2, n3);
        let net = b.build().unwrap();
        let w = EdgeWeights::from_base(&net);
        let st = SequenceTable::build(&net);
        assert_eq!(st.len(), 1);
        let s = st.sequence(SeqId(0));
        assert_eq!(s.total_weight(&w), 4.0);

        // Point 25% into the middle edge, in sequence orientation.
        let mid_edge = s.edges[1];
        let fwd = s.forward[1];
        let p = NetPoint::new(mid_edge, if fwd { 0.25 } else { 0.75 });
        let (ds, de) = s.dist_to_endpoints(&w, p);
        // Distances depend on which end the walk started from.
        let (lo, hi) = if ds < de { (ds, de) } else { (de, ds) };
        assert_eq!((lo, hi), (1.5, 2.5));
        assert_eq!(ds + de, 4.0);
    }

    #[test]
    fn distances_track_weight_updates() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        let n2 = b.add_node(2.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        b.add_edge_euclidean(n1, n2);
        let net = b.build().unwrap();
        let mut w = EdgeWeights::from_base(&net);
        let st = SequenceTable::build(&net);
        let s = st.sequence(SeqId(0));
        let p = NetPoint::new(s.edges[1], 0.5);
        let before = s.dist_to_endpoints(&w, p);
        w.set(s.edges[0], 10.0);
        let after = s.dist_to_endpoints(&w, p);
        // One endpoint distance grew by 9, the other is unchanged.
        let grew = (after.0 - before.0).abs().max((after.1 - before.1).abs());
        assert_eq!(grew, 9.0);
        assert_eq!(after.0 + after.1, s.total_weight(&w));
    }

    #[test]
    fn star_network_sequences() {
        // Star: center with 4 rays, each ray one edge -> 4 sequences.
        let mut b = RoadNetworkBuilder::new();
        let c = b.add_node(0.0, 0.0);
        for i in 0..4 {
            let a = i as f64 * std::f64::consts::FRAC_PI_2;
            let n = b.add_node(a.cos(), a.sin());
            b.add_edge_euclidean(c, n);
        }
        let net = b.build().unwrap();
        let st = SequenceTable::build(&net);
        assert_eq!(st.len(), 4);
        invariants(&net, &st);
    }

    #[test]
    fn generated_network_invariants() {
        let net = crate::generators::grid_city(&crate::generators::GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 3,
            ..Default::default()
        });
        let st = SequenceTable::build(&net);
        invariants(&net, &st);
        // Subdivision must have produced some multi-edge sequences.
        assert!(st.iter().any(|s| s.edges.len() >= 2));
    }
}
