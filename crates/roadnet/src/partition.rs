//! Horizontal partitioning of a road network into connected regions.
//!
//! The sharded monitoring engine (`rnn-engine`) decomposes the network into
//! `S` regions and runs one monitor per region on its own thread. This
//! module provides the decomposition: a **grid-seeded multi-source BFS**
//! partitioner. Seeds are spread over a virtual grid laid across the
//! network's bounding box (so regions are spatially coherent), then all
//! seeds grow simultaneously breadth-first; every node joins the region
//! that reaches it first. Edges follow the endpoint that was reached
//! earlier, which keeps each region's edge set connected: the BFS tree edge
//! into a node always belongs to the node's own region.
//!
//! A [`ShardView`] summarises one region: its edges, its nodes, and its
//! **boundary nodes** — the nodes incident to both an edge of the region
//! and an edge of another region. Every path from a point inside the region
//! to a point outside passes through a boundary node, which is exactly the
//! property the engine's halo-replication correctness argument needs.

use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId};

/// The assignment of every node and edge to one of `S` shards.
#[derive(Clone, Debug)]
pub struct NetworkPartition {
    num_shards: usize,
    node_shard: Vec<u32>,
    edge_shard: Vec<u32>,
    views: Vec<ShardView>,
}

/// One shard's slice of the network.
#[derive(Clone, Debug)]
pub struct ShardView {
    /// The shard this view describes.
    pub shard: u32,
    /// Edges owned by the shard.
    pub edges: Vec<EdgeId>,
    /// Nodes owned by the shard.
    pub nodes: Vec<NodeId>,
    /// Nodes incident to at least one owned edge *and* at least one foreign
    /// edge. Every path leaving the region crosses one of these.
    pub boundary_nodes: Vec<NodeId>,
}

impl NetworkPartition {
    /// Partitions `net` into `num_shards` regions.
    ///
    /// # Panics
    /// Panics if `num_shards` is 0 or exceeds 64 (the engine tracks halo
    /// membership in a 64-bit mask per edge).
    pub fn build(net: &RoadNetwork, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(num_shards <= 64, "at most 64 shards supported");
        let n = net.num_nodes();

        let seeds = grid_seeds(net, num_shards);

        // Multi-source BFS: FIFO over (node, shard); first arrival wins.
        // Seeding in shard order makes equal-round ties deterministic
        // (lower shard id wins).
        const UNASSIGNED: u32 = u32::MAX;

        fn flood(
            net: &RoadNetwork,
            queue: &mut std::collections::VecDeque<NodeId>,
            node_shard: &mut [u32],
            order: &mut [u32],
            next_order: &mut u32,
        ) {
            while let Some(u) = queue.pop_front() {
                let s = node_shard[u.index()];
                for &(_, v) in net.adjacent(u) {
                    if node_shard[v.index()] == UNASSIGNED {
                        node_shard[v.index()] = s;
                        order[v.index()] = *next_order;
                        *next_order += 1;
                        queue.push_back(v);
                    }
                }
            }
        }

        let mut node_shard = vec![UNASSIGNED; n];
        let mut order = vec![u32::MAX; n];
        let mut next_order: u32 = 0;
        let mut queue = std::collections::VecDeque::new();
        for (s, &seed) in seeds.iter().enumerate() {
            if node_shard[seed.index()] == UNASSIGNED {
                node_shard[seed.index()] = s as u32;
                order[seed.index()] = next_order;
                next_order += 1;
                queue.push_back(seed);
            }
        }
        flood(
            net,
            &mut queue,
            &mut node_shard,
            &mut order,
            &mut next_order,
        );

        // Disconnected leftovers: give each remaining component to the
        // currently smallest shard, whole, so shards stay internally
        // connected per component.
        let mut sizes = vec![0usize; num_shards];
        for &s in &node_shard {
            if s != UNASSIGNED {
                sizes[s as usize] += 1;
            }
        }
        for i in 0..n {
            if node_shard[i] != UNASSIGNED {
                continue;
            }
            let target = sizes
                .iter()
                .enumerate()
                .min_by_key(|&(s, &c)| (c, s))
                .map(|(s, _)| s as u32)
                .expect("at least one shard");
            let start = NodeId::from_index(i);
            node_shard[start.index()] = target;
            order[start.index()] = next_order;
            next_order += 1;
            queue.push_back(start);
            flood(
                net,
                &mut queue,
                &mut node_shard,
                &mut order,
                &mut next_order,
            );
            sizes.fill(0);
            for &s in &node_shard {
                if s != UNASSIGNED {
                    sizes[s as usize] += 1;
                }
            }
        }

        // Edges follow the earlier-reached endpoint: the BFS tree edge into
        // a node then always lands in the node's own shard, keeping each
        // region's edge set connected.
        let mut edge_shard = Vec::with_capacity(net.num_edges());
        for e in net.edge_ids() {
            let rec = net.edge(e);
            let (a, b) = (rec.start, rec.end);
            let s = if order[a.index()] <= order[b.index()] {
                node_shard[a.index()]
            } else {
                node_shard[b.index()]
            };
            edge_shard.push(s);
        }

        let views = build_views(net, num_shards, &node_shard, &edge_shard);
        Self {
            num_shards,
            node_shard,
            edge_shard,
            views,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Owning shard of a node.
    #[inline]
    pub fn shard_of_node(&self, n: NodeId) -> u32 {
        self.node_shard[n.index()]
    }

    /// Owning shard of an edge (and of every object or query on it).
    #[inline]
    pub fn shard_of_edge(&self, e: EdgeId) -> u32 {
        self.edge_shard[e.index()]
    }

    /// The view of shard `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    #[inline]
    pub fn view(&self, s: usize) -> &ShardView {
        &self.views[s]
    }

    /// All shard views, in shard order.
    #[inline]
    pub fn views(&self) -> &[ShardView] {
        &self.views
    }

    /// Moves the ownership of the given **cells** (edges — the atomic unit
    /// of partition ownership, and of everything resident on them) to new
    /// shards, then re-derives node assignments and rebuilds the shard
    /// views.
    ///
    /// This is the mutation primitive of the engine's dynamic load-aware
    /// re-partitioning: the migration planner picks boundary cells of an
    /// overloaded shard and hands them to an underloaded neighbour. Node
    /// ownership follows the edges deterministically — a node keeps its
    /// shard while that shard still owns one of its incident edges, and
    /// otherwise adopts the smallest incident owner. The view/boundary
    /// rebuild is O(V + E) (entity hand-off in the engine stays O(moved
    /// cells)); rebalances are hysteresis-limited, so this never sits on
    /// the per-tick path.
    ///
    /// # Panics
    /// Panics if a target shard is out of range or an edge id is invalid.
    pub fn reassign(&mut self, net: &RoadNetwork, moves: &[(EdgeId, u32)]) {
        for &(e, s) in moves {
            assert!(
                (s as usize) < self.num_shards,
                "target shard {s} out of range (num_shards = {})",
                self.num_shards
            );
            self.edge_shard[e.index()] = s;
        }
        // Re-home the endpoints of moved edges: ownership of a node is only
        // meaningful while its shard owns an incident edge.
        for &(e, _) in moves {
            let rec = net.edge(e);
            for n in [rec.start, rec.end] {
                let cur = self.node_shard[n.index()];
                let mut keep = false;
                let mut min_owner = u32::MAX;
                for &(e2, _) in net.adjacent(n) {
                    let owner = self.edge_shard[e2.index()];
                    keep |= owner == cur;
                    min_owner = min_owner.min(owner);
                }
                if !keep && min_owner != u32::MAX {
                    self.node_shard[n.index()] = min_owner;
                }
            }
        }
        self.views = build_views(net, self.num_shards, &self.node_shard, &self.edge_shard);
    }

    /// The cells shard `from` could hand to shard `to` without tearing a
    /// hole in the middle of its region: edges owned by `from` with an
    /// endpoint that touches an edge owned by `to` (i.e. cells on the
    /// `from`/`to` border). Sorted by edge id for determinism.
    pub fn boundary_cells_between(&self, net: &RoadNetwork, from: u32, to: u32) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = self.views[from as usize]
            .edges
            .iter()
            .copied()
            .filter(|&e| {
                let rec = net.edge(e);
                [rec.start, rec.end].into_iter().any(|n| {
                    net.adjacent(n)
                        .iter()
                        .any(|&(e2, _)| self.edge_shard[e2.index()] == to)
                })
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Checks the structural partition invariants (tests, property tests and
    /// post-migration debugging): every node and edge is owned by exactly
    /// one in-range shard, the views partition the node and edge sets
    /// exactly, and the boundary-node lists are exactly the nodes incident
    /// to both an owned and a foreign edge.
    pub fn validate(&self, net: &RoadNetwork) -> Result<(), String> {
        if self.node_shard.len() != net.num_nodes() || self.edge_shard.len() != net.num_edges() {
            return Err("assignment tables do not match the network".into());
        }
        for e in net.edge_ids() {
            let s = self.edge_shard[e.index()];
            if s as usize >= self.num_shards {
                return Err(format!("edge {e:?} owned by out-of-range shard {s}"));
            }
            if !self.views[s as usize].edges.contains(&e) {
                return Err(format!("edge {e:?} missing from view of shard {s}"));
            }
        }
        let total_edges: usize = self.views.iter().map(|v| v.edges.len()).sum();
        if total_edges != net.num_edges() {
            return Err(format!(
                "views list {total_edges} edges, network has {} — an edge is owned by \
                 more or fewer than one shard",
                net.num_edges()
            ));
        }
        let total_nodes: usize = self.views.iter().map(|v| v.nodes.len()).sum();
        if total_nodes != net.num_nodes() {
            return Err(format!(
                "views list {total_nodes} nodes, network has {}",
                net.num_nodes()
            ));
        }
        for n in net.node_ids() {
            let s = self.node_shard[n.index()];
            if s as usize >= self.num_shards {
                return Err(format!("node {n:?} owned by out-of-range shard {s}"));
            }
        }
        for v in &self.views {
            for n in net.node_ids() {
                let owned = net
                    .adjacent(n)
                    .iter()
                    .any(|&(e, _)| self.edge_shard[e.index()] == v.shard);
                let foreign = net
                    .adjacent(n)
                    .iter()
                    .any(|&(e, _)| self.edge_shard[e.index()] != v.shard);
                let listed = v.boundary_nodes.contains(&n);
                if listed != (owned && foreign) {
                    return Err(format!(
                        "shard {}: node {n:?} boundary status wrong (listed {listed}, \
                         owned {owned}, foreign {foreign})",
                        v.shard
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of edges whose endpoints live in different shards — the
    /// classic partition-quality metric (smaller is better).
    pub fn edge_cut(&self, net: &RoadNetwork) -> usize {
        net.edge_ids()
            .filter(|&e| {
                let rec = net.edge(e);
                self.node_shard[rec.start.index()] != self.node_shard[rec.end.index()]
            })
            .count()
    }

    /// Whether shard `s`'s edge set is connected when restricted to the
    /// subgraph it induces (per connected component of the full network).
    pub fn shard_is_connected(&self, net: &RoadNetwork, s: usize) -> bool {
        let view = &self.views[s];
        if view.edges.is_empty() {
            return true;
        }
        // Union the endpoints of owned edges, then flood along owned edges
        // only, starting one flood per full-network component.
        let mut member = vec![false; net.num_nodes()];
        for &e in &view.edges {
            let rec = net.edge(e);
            member[rec.start.index()] = true;
            member[rec.end.index()] = true;
        }
        let mut seen = vec![false; net.num_nodes()];
        let mut components = 0usize;
        for &start_edge in &view.edges {
            let start = net.edge(start_edge).start;
            if seen[start.index()] {
                continue;
            }
            // Is this whole flood a separate component of the *network*?
            components += 1;
            let mut stack = vec![start];
            seen[start.index()] = true;
            while let Some(u) = stack.pop() {
                for &(e, v) in net.adjacent(u) {
                    if self.edge_shard[e.index()] == s as u32 && !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
        }
        // Count how many full-network components hold at least one owned
        // edge; a connected shard has exactly one flood per such component.
        let mut net_seen = vec![false; net.num_nodes()];
        let mut net_components_with_edges = 0usize;
        for n in net.node_ids() {
            if net_seen[n.index()] || !member[n.index()] {
                continue;
            }
            net_components_with_edges += 1;
            let mut stack = vec![n];
            net_seen[n.index()] = true;
            while let Some(u) = stack.pop() {
                for &(_, v) in net.adjacent(u) {
                    if !net_seen[v.index()] {
                        net_seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
        }
        components == net_components_with_edges
    }
}

/// Spreads `num_shards` seed nodes over a virtual grid covering the
/// network's bounding box: one seed per grid cell, the node nearest the
/// cell's center. Empty cells fall back to the globally farthest
/// yet-unused node so seed count always equals `num_shards` (capped by the
/// node count).
fn grid_seeds(net: &RoadNetwork, num_shards: usize) -> Vec<NodeId> {
    let n = net.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let shards = num_shards.min(n);
    let bounds = net.bounds();
    // lint: allow(float-tolerance): planar bounding box, kept off zero for the aspect ratio
    let (w, h) = (bounds.width().max(1e-12), bounds.height().max(1e-12));
    // Grid shape follows the aspect ratio so cells stay near-square.
    let mut gx = ((shards as f64 * w / h).sqrt().round() as usize).clamp(1, shards);
    let gy = shards.div_ceil(gx);
    gx = shards.div_ceil(gy);

    let mut seeds: Vec<NodeId> = Vec::with_capacity(shards);
    let mut used = vec![false; n];
    for cell in 0..shards {
        let (cx, cy) = (cell % gx, cell / gx);
        let center_x = bounds.lo.x + (cx as f64 + 0.5) / gx as f64 * w;
        let center_y = bounds.lo.y + (cy as f64 + 0.5) / gy as f64 * h;
        let best = net
            .node_ids()
            .filter(|m| !used[m.index()])
            .min_by(|&a, &b| {
                let da = dist2(net, a, center_x, center_y);
                let db = dist2(net, b, center_x, center_y);
                da.partial_cmp(&db).unwrap().then_with(|| a.cmp(&b))
            })
            .expect("fewer seeds than nodes");
        used[best.index()] = true;
        seeds.push(best);
    }
    seeds
}

#[inline]
fn dist2(net: &RoadNetwork, n: NodeId, x: f64, y: f64) -> f64 {
    let p = net.node_pos(n);
    (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y)
}

fn build_views(
    net: &RoadNetwork,
    num_shards: usize,
    node_shard: &[u32],
    edge_shard: &[u32],
) -> Vec<ShardView> {
    let mut views: Vec<ShardView> = (0..num_shards)
        .map(|s| ShardView {
            shard: s as u32,
            edges: Vec::new(),
            nodes: Vec::new(),
            boundary_nodes: Vec::new(),
        })
        .collect();
    for e in net.edge_ids() {
        views[edge_shard[e.index()] as usize].edges.push(e);
    }
    for node in net.node_ids() {
        views[node_shard[node.index()] as usize].nodes.push(node);
        // Boundary: touches an owned and a foreign edge. A node can be a
        // boundary node of several shards (one per incident edge shard).
        let mut touched: u64 = 0;
        for &(e, _) in net.adjacent(node) {
            touched |= 1 << edge_shard[e.index()];
        }
        if touched.count_ones() >= 2 {
            let mut mask = touched;
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                views[s].boundary_nodes.push(node);
                mask &= mask - 1;
            }
        }
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_city, GridCityConfig};

    fn net(nx: usize, ny: usize, seed: u64) -> RoadNetwork {
        grid_city(&GridCityConfig {
            nx,
            ny,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn every_node_and_edge_assigned() {
        let net = net(8, 8, 1);
        for s in [1, 2, 4, 8] {
            let p = NetworkPartition::build(&net, s);
            assert_eq!(p.num_shards(), s);
            for n in net.node_ids() {
                assert!((p.shard_of_node(n) as usize) < s);
            }
            for e in net.edge_ids() {
                assert!((p.shard_of_edge(e) as usize) < s);
            }
            let total_edges: usize = p.views().iter().map(|v| v.edges.len()).sum();
            assert_eq!(total_edges, net.num_edges());
            let total_nodes: usize = p.views().iter().map(|v| v.nodes.len()).sum();
            assert_eq!(total_nodes, net.num_nodes());
        }
    }

    #[test]
    fn single_shard_owns_everything_with_no_boundary() {
        let net = net(6, 6, 2);
        let p = NetworkPartition::build(&net, 1);
        assert_eq!(p.view(0).edges.len(), net.num_edges());
        assert!(p.view(0).boundary_nodes.is_empty());
        assert_eq!(p.edge_cut(&net), 0);
    }

    #[test]
    fn shards_are_connected() {
        for seed in [1, 2, 3, 7] {
            let net = net(9, 9, seed);
            for s in [2, 3, 4, 8] {
                let p = NetworkPartition::build(&net, s);
                for i in 0..s {
                    assert!(
                        p.shard_is_connected(&net, i),
                        "seed {seed}, {s} shards: shard {i} disconnected"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_nodes_touch_both_sides() {
        let net = net(8, 8, 3);
        let p = NetworkPartition::build(&net, 4);
        let mut any_boundary = false;
        for v in p.views() {
            for &b in &v.boundary_nodes {
                any_boundary = true;
                let mut owned = false;
                let mut foreign = false;
                for &(e, _) in net.adjacent(b) {
                    if p.shard_of_edge(e) == v.shard {
                        owned = true;
                    } else {
                        foreign = true;
                    }
                }
                assert!(
                    owned && foreign,
                    "node {b:?} is not a real boundary of {}",
                    v.shard
                );
            }
        }
        assert!(any_boundary, "a 4-way split of a grid must have boundaries");
    }

    #[test]
    fn every_border_crossing_passes_a_boundary_node() {
        // For each foreign edge incident to an owned node, that node must
        // be listed as a boundary node of the owned shard.
        let net = net(7, 7, 4);
        let p = NetworkPartition::build(&net, 4);
        for v in p.views() {
            let boundary: std::collections::HashSet<_> = v.boundary_nodes.iter().collect();
            for &e in &v.edges {
                let rec = net.edge(e);
                for n in [rec.start, rec.end] {
                    let crosses = net
                        .adjacent(n)
                        .iter()
                        .any(|&(e2, _)| p.shard_of_edge(e2) != v.shard);
                    if crosses {
                        assert!(boundary.contains(&n), "missing boundary node {n:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let net = net(12, 12, 5);
        let p = NetworkPartition::build(&net, 4);
        let sizes: Vec<usize> = p.views().iter().map(|v| v.edges.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(
            *min * 4 >= *max,
            "grid-seeded BFS should not be wildly unbalanced: {sizes:?}"
        );
    }

    #[test]
    fn disconnected_networks_are_fully_assigned() {
        use crate::graph::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        // Two separate segments far apart.
        let a0 = b.add_node(0.0, 0.0);
        let a1 = b.add_node(1.0, 0.0);
        let c0 = b.add_node(100.0, 0.0);
        let c1 = b.add_node(101.0, 0.0);
        b.add_edge_euclidean(a0, a1);
        b.add_edge_euclidean(c0, c1);
        let net = b.build().unwrap();
        let p = NetworkPartition::build(&net, 2);
        for e in net.edge_ids() {
            assert!(p.shard_of_edge(e) < 2);
        }
        for i in 0..2 {
            assert!(p.shard_is_connected(&net, i));
        }
    }

    #[test]
    fn deterministic() {
        let net = net(8, 8, 6);
        let a = NetworkPartition::build(&net, 4);
        let b = NetworkPartition::build(&net, 4);
        for e in net.edge_ids() {
            assert_eq!(a.shard_of_edge(e), b.shard_of_edge(e));
        }
    }

    #[test]
    fn fresh_builds_validate() {
        for s in [1, 2, 4, 8] {
            let net = net(8, 8, 7);
            let p = NetworkPartition::build(&net, s);
            p.validate(&net).unwrap();
        }
    }

    #[test]
    fn reassign_moves_cells_and_keeps_invariants() {
        let net = net(8, 8, 9);
        let mut p = NetworkPartition::build(&net, 4);
        let cells = p.boundary_cells_between(&net, 0, 1);
        assert!(!cells.is_empty(), "adjacent shards share boundary cells");
        let take = cells.len().div_ceil(2);
        let moves: Vec<(EdgeId, u32)> = cells[..take].iter().map(|&e| (e, 1)).collect();
        p.reassign(&net, &moves);
        for &(e, s) in &moves {
            assert_eq!(p.shard_of_edge(e), s);
        }
        p.validate(&net).unwrap();
        // Views reflect the move.
        for &(e, _) in &moves {
            assert!(p.view(1).edges.contains(&e));
            assert!(!p.view(0).edges.contains(&e));
        }
    }

    #[test]
    fn reassign_everything_empties_a_shard() {
        // Degenerate but legal: hand shard 0's whole region away. The
        // emptied shard must survive with no edges and no boundary.
        let net = net(6, 6, 10);
        let mut p = NetworkPartition::build(&net, 2);
        let moves: Vec<(EdgeId, u32)> = p.view(0).edges.iter().map(|&e| (e, 1)).collect();
        p.reassign(&net, &moves);
        p.validate(&net).unwrap();
        assert!(p.view(0).edges.is_empty());
        assert!(p.view(0).boundary_nodes.is_empty());
        assert_eq!(p.view(1).edges.len(), net.num_edges());
        assert_eq!(p.edge_cut(&net), 0);
    }

    #[test]
    fn boundary_cells_touch_the_target_shard() {
        let net = net(8, 8, 11);
        let p = NetworkPartition::build(&net, 4);
        for from in 0..4u32 {
            for to in 0..4u32 {
                if from == to {
                    continue;
                }
                for e in p.boundary_cells_between(&net, from, to) {
                    assert_eq!(p.shard_of_edge(e), from);
                    let rec = net.edge(e);
                    assert!([rec.start, rec.end].into_iter().any(|n| {
                        net.adjacent(n)
                            .iter()
                            .any(|&(e2, _)| p.shard_of_edge(e2) == to)
                    }));
                }
            }
        }
    }
}
