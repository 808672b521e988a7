//! Network expansion (Dijkstra's algorithm \[5\]) primitives.
//!
//! The monitoring algorithms expand the network around queries (§4.1),
//! interleaving object scanning with node settlement, so this module exposes
//! a *stepwise* engine ([`DijkstraEngine`]) rather than a monolithic
//! shortest-path function: callers seed sources, pop settled nodes one at a
//! time, and relax neighbours themselves.
//!
//! The engine keeps dense per-node scratch arrays that are invalidated in
//! O(1) between runs via epoch stamping — an expansion that touches `m`
//! nodes costs `O(m log m)`, not `O(|V|)`, even though the arrays are
//! network-sized. One engine per monitor amortises all allocations:
//! [`DijkstraEngine::reset_reuse`] restarts an expansion without releasing
//! any capacity, so every expansion of a tick after the first is
//! allocation-free (observable through [`DijkstraEngine::take_alloc_events`]).
//!
//! Heap entries are ordered by the **monotone-bits `u64` image** of the
//! `f64` distance: for the non-negative distances Dijkstra produces,
//! `f64::to_bits` preserves order exactly, so the heap compares plain
//! integers — no `partial_cmp().expect()` NaN branch per comparison on the
//! hottest loop in the system, and `(u64, u32)` entries stay 16 bytes.
//!
//! Convenience wrappers ([`DijkstraEngine::sssp`],
//! [`DijkstraEngine::dist_between_points`],
//! [`DijkstraEngine::path_between_nodes`]) serve the workload generator and
//! the test oracles.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId};
use crate::netpoint::NetPoint;
use crate::weights::EdgeWeights;

/// A min-heap entry: `(distance as monotone u64 bits, node)`, ordered by
/// distance then node id so that expansion order is fully deterministic.
///
/// Dijkstra distances are always finite-or-`+∞` and non-negative, and on
/// that range `f64::to_bits` is strictly monotone — so ordering the raw
/// bit patterns as integers reproduces the float order *exactly* (same
/// pops, same tie-breaks) while the comparison compiles to branch-free
/// integer code instead of a three-way float compare with a NaN `expect`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapEntry {
    key: u64,
    node: NodeId,
}

impl HeapEntry {
    #[inline]
    fn new(dist: f64, node: NodeId) -> Self {
        debug_assert!(
            dist >= 0.0,
            "expansion distances must be non-negative, got {dist}"
        );
        // `+ 0.0` normalises a negative zero (which `clamp(0.0, 1.0)`
        // preserves, so a fraction of -0.0 can reach us through seed
        // arithmetic) to +0.0 — the raw bits of -0.0 would otherwise sort
        // *after* +∞ and starve that branch of the expansion.
        Self {
            key: (dist + 0.0).to_bits(),
            node,
        }
    }

    #[inline]
    fn dist(self) -> f64 {
        f64::from_bits(self.key)
    }
}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the std max-heap pops the *smallest* distance first.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-node expansion state, valid only for the current epoch.
#[derive(Clone, Copy)]
struct NodeState {
    dist: f64,
    parent: Option<NodeId>,
    /// Edge used to reach the node from `parent` (disambiguates parallel
    /// edges; `None` for sources or when seeded without edge info).
    parent_edge: Option<EdgeId>,
    settled: bool,
}

/// Reusable stepwise Dijkstra engine over a fixed-size node set.
pub struct DijkstraEngine {
    states: Vec<NodeState>,
    stamps: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Heap-capacity growth events (see [`Self::take_alloc_events`]).
    allocs: u64,
    /// Raw heap pops, including lazily discarded stale entries (see
    /// [`Self::take_expansion_steps`]).
    steps: u64,
}

impl DijkstraEngine {
    /// Creates an engine for networks with up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            states: vec![
                NodeState {
                    dist: f64::INFINITY,
                    parent: None,
                    parent_edge: None,
                    settled: false
                };
                num_nodes
            ],
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            stamps: vec![0; num_nodes],
            epoch: 0,
            // Pre-size the heap so typical expansions never grow it: one
            // entry per node covers everything but heavy stale-entry
            // pile-ups (growth beyond this is counted as an alloc event).
            heap: BinaryHeap::with_capacity(num_nodes),
            allocs: 0,
            steps: 0,
        }
    }

    /// Restarts the engine for a new expansion **without releasing any
    /// capacity**: the heap keeps its buffer and the dense per-node arrays
    /// are invalidated in O(1) by bumping the epoch stamp. This is the
    /// reuse mode that lets one engine serve *all* of a monitor's
    /// expansions in a tick allocation-free — the only allocations are
    /// high-water-mark heap growth, counted in [`Self::take_alloc_events`].
    pub fn reset_reuse(&mut self) {
        self.heap.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: physically reset the stamps once every 2^32
                // runs so stale entries can never alias.
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Starts a fresh expansion, invalidating all previous state in O(1).
    /// Alias of [`Self::reset_reuse`], kept as the conventional name.
    #[inline]
    pub fn begin(&mut self) {
        self.reset_reuse();
    }

    /// Heap-capacity growth events since the last take. Zero across a tick
    /// proves the tick's expansions ran entirely in reused capacity.
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Raw expansion steps (heap pops, including lazily discarded stale
    /// entries) since the last take — the machine-independent measure of
    /// heap traffic.
    pub fn take_expansion_steps(&mut self) -> u64 {
        std::mem::take(&mut self.steps)
    }

    /// Pushes a heap entry, counting capacity growth as an alloc event.
    /// Growth reserves 4× so the high-water mark is passed (and paid for)
    /// once, not re-approached every few ticks.
    #[inline]
    fn heap_push(&mut self, entry: HeapEntry) {
        if self.heap.len() == self.heap.capacity() {
            self.allocs += 1;
            self.heap
                .reserve(self.heap.capacity().saturating_mul(3).max(64));
        }
        self.heap.push(entry);
    }

    #[inline]
    fn state(&self, n: NodeId) -> Option<&NodeState> {
        (self.stamps[n.index()] == self.epoch).then(|| &self.states[n.index()])
    }

    #[inline]
    fn state_mut(&mut self, n: NodeId) -> &mut NodeState {
        let i = n.index();
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.states[i] = NodeState {
                dist: f64::INFINITY,
                parent: None,
                parent_edge: None,
                settled: false,
            };
        }
        &mut self.states[i]
    }

    /// Seeds `node` as a source at distance `dist` (with optional
    /// predecessor, recorded in the shortest-path tree). Keeps the better
    /// distance if the node was already seeded or relaxed.
    pub fn seed(&mut self, node: NodeId, dist: f64, parent: Option<NodeId>) {
        self.seed_via(node, dist, parent, None);
    }

    /// Like [`Self::seed`], also recording the edge used to reach the node
    /// (so shortest-path trees can disambiguate parallel edges).
    pub fn seed_via(
        &mut self,
        node: NodeId,
        dist: f64,
        parent: Option<NodeId>,
        parent_edge: Option<EdgeId>,
    ) {
        let st = self.state_mut(node);
        if dist < st.dist && !st.settled {
            st.dist = dist;
            st.parent = parent;
            st.parent_edge = parent_edge;
            self.heap_push(HeapEntry::new(dist, node));
        }
    }

    /// Marks `node` as already settled at `dist` without putting it on the
    /// heap. Used to pre-load the *valid part of an expansion tree* when
    /// re-expanding after updates (§4.2–4.5): pre-settled nodes are never
    /// re-visited and act as interior sources.
    pub fn presettle(&mut self, node: NodeId, dist: f64) {
        let st = self.state_mut(node);
        st.dist = dist;
        st.parent = None;
        st.parent_edge = None;
        st.settled = true;
    }

    /// Pops the next node to settle, or `None` when the frontier is empty.
    /// Returns `(node, distance)`. Lazily discards stale heap entries.
    pub fn pop_settle(&mut self) -> Option<(NodeId, f64)> {
        while let Some(entry) = self.heap.pop() {
            self.steps += 1;
            let (dist, node) = (entry.dist(), entry.node);
            let st = self.state_mut(node);
            if st.settled || dist > st.dist {
                continue;
            }
            st.settled = true;
            return Some((node, dist));
        }
        None
    }

    /// The distance of the next candidate on the heap without settling it.
    pub fn peek_dist(&mut self) -> Option<f64> {
        while let Some(&entry) = self.heap.peek() {
            let (dist, node) = (entry.dist(), entry.node);
            let settled_or_stale = match self.state(node) {
                Some(st) => st.settled || dist > st.dist,
                None => true,
            };
            if settled_or_stale {
                self.heap.pop();
                self.steps += 1;
            } else {
                return Some(dist);
            }
        }
        None
    }

    /// Relaxes `node` through `via` at total distance `dist`.
    /// Returns `true` if this improved the node's tentative distance.
    pub fn relax(&mut self, node: NodeId, via: NodeId, dist: f64) -> bool {
        self.relax_via(node, via, None, dist)
    }

    /// Like [`Self::relax`], also recording the connecting edge.
    pub fn relax_via(
        &mut self,
        node: NodeId,
        via: NodeId,
        edge: Option<EdgeId>,
        dist: f64,
    ) -> bool {
        let st = self.state_mut(node);
        if !st.settled && dist < st.dist {
            st.dist = dist;
            st.parent = Some(via);
            st.parent_edge = edge;
            self.heap_push(HeapEntry::new(dist, node));
            true
        } else {
            false
        }
    }

    /// The settled or tentative distance of `node` in the current epoch.
    #[inline]
    pub fn dist_of(&self, node: NodeId) -> Option<f64> {
        self.state(node).map(|s| s.dist)
    }

    /// Whether `node` has been settled in the current epoch.
    #[inline]
    pub fn is_settled(&self, node: NodeId) -> bool {
        self.state(node).is_some_and(|s| s.settled)
    }

    /// The recorded shortest-path predecessor of `node`.
    #[inline]
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.state(node).and_then(|s| s.parent)
    }

    /// The recorded `(predecessor, connecting edge)` link of `node`, when
    /// the expansion used the `*_via` methods.
    #[inline]
    pub fn parent_link_of(&self, node: NodeId) -> Option<(NodeId, EdgeId)> {
        self.state(node)
            .and_then(|s| Some((s.parent?, s.parent_edge?)))
    }

    /// Full single-source shortest paths from `source`, optionally bounded
    /// by `radius` (nodes farther than `radius` are not settled).
    ///
    /// Returns the settled `(node, dist)` pairs in settlement order.
    pub fn sssp(
        &mut self,
        net: &RoadNetwork,
        weights: &EdgeWeights,
        source: NodeId,
        radius: Option<f64>,
    ) -> Vec<(NodeId, f64)> {
        self.begin();
        self.seed(source, 0.0, None);
        // lint: allow(hot-path-alloc): sssp returns its result to the caller (probes, tests, partitioning); the monitors' tick path expands through seed/pop_settle/relax and never calls it
        let mut out = Vec::new();
        while let Some((n, d)) = self.pop_settle() {
            if radius.is_some_and(|r| d > r) {
                break;
            }
            out.push((n, d));
            for &(e, m) in net.adjacent(n) {
                self.relax(m, n, d + weights.get(e));
            }
        }
        out
    }

    /// Network distance between two node ids (∞ if disconnected).
    pub fn dist_between_nodes(
        &mut self,
        net: &RoadNetwork,
        weights: &EdgeWeights,
        from: NodeId,
        to: NodeId,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        self.begin();
        self.seed(from, 0.0, None);
        while let Some((n, d)) = self.pop_settle() {
            if n == to {
                return d;
            }
            for &(e, m) in net.adjacent(n) {
                self.relax(m, n, d + weights.get(e));
            }
        }
        f64::INFINITY
    }

    /// Network distance between two arbitrary points (§3: the length of the
    /// shortest path connecting them). Handles the same-edge direct path.
    pub fn dist_between_points(
        &mut self,
        net: &RoadNetwork,
        weights: &EdgeWeights,
        a: NetPoint,
        b: NetPoint,
    ) -> f64 {
        let mut best = if a.edge == b.edge {
            a.along_edge_dist(&b, weights)
        } else {
            f64::INFINITY
        };
        let ea = net.edge(a.edge);
        let eb = net.edge(b.edge);
        self.begin();
        self.seed(ea.start, a.dist_to_start(weights), None);
        self.seed(ea.end, a.dist_to_end(weights), None);
        while let Some((n, d)) = self.pop_settle() {
            if d >= best {
                break;
            }
            if eb.touches(n) {
                best = best.min(d + b.dist_to_endpoint(net, weights, n));
            }
            for &(e, m) in net.adjacent(n) {
                self.relax(m, n, d + weights.get(e));
            }
        }
        best
    }

    /// Shortest node path `from → to` (inclusive of both), or `None` if
    /// disconnected. Used by the route-following movement generator.
    pub fn path_between_nodes(
        &mut self,
        net: &RoadNetwork,
        weights: &EdgeWeights,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        self.begin();
        self.seed(from, 0.0, None);
        let mut found = false;
        while let Some((n, d)) = self.pop_settle() {
            if n == to {
                found = true;
                break;
            }
            for &(e, m) in net.adjacent(n) {
                self.relax(m, n, d + weights.get(e));
            }
        }
        if !found {
            return None;
        }
        // lint: allow(hot-path-alloc): full-path extraction serves the workload generator and validators, never the monitoring tick
        let mut path = vec![to];
        let mut cur = to;
        while let Some(p) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path.first(), Some(&from));
        Some(path)
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<NodeState>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
            + self.heap.capacity() * std::mem::size_of::<HeapEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    /// 2x2 grid with unit spacing:
    /// ```text
    /// 2 - 3
    /// |   |
    /// 0 - 1
    /// ```
    fn square() -> (RoadNetwork, EdgeWeights) {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        let n2 = b.add_node(0.0, 1.0);
        let n3 = b.add_node(1.0, 1.0);
        b.add_edge_euclidean(n0, n1); // e0
        b.add_edge_euclidean(n0, n2); // e1
        b.add_edge_euclidean(n1, n3); // e2
        b.add_edge_euclidean(n2, n3); // e3
        let net = b.build().unwrap();
        let w = EdgeWeights::from_base(&net);
        (net, w)
    }

    #[test]
    fn sssp_distances() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let settled = eng.sssp(&net, &w, NodeId(0), None);
        assert_eq!(settled.len(), 4);
        assert_eq!(eng.dist_of(NodeId(0)), Some(0.0));
        assert_eq!(eng.dist_of(NodeId(1)), Some(1.0));
        assert_eq!(eng.dist_of(NodeId(2)), Some(1.0));
        assert_eq!(eng.dist_of(NodeId(3)), Some(2.0));
    }

    #[test]
    fn sssp_respects_radius() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let settled = eng.sssp(&net, &w, NodeId(0), Some(1.5));
        let ids: Vec<_> = settled.iter().map(|&(n, _)| n).collect();
        assert!(ids.contains(&NodeId(0)) && ids.contains(&NodeId(1)) && ids.contains(&NodeId(2)));
        assert!(!ids.contains(&NodeId(3)));
    }

    #[test]
    fn weight_changes_affect_distances() {
        let (net, mut w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        assert_eq!(eng.dist_between_nodes(&net, &w, NodeId(0), NodeId(3)), 2.0);
        // Make the top edge expensive: path must go 0-1-3.
        w.set(crate::ids::EdgeId(3), 10.0);
        w.set(crate::ids::EdgeId(1), 0.25);
        assert_eq!(eng.dist_between_nodes(&net, &w, NodeId(0), NodeId(3)), 2.0);
        w.set(crate::ids::EdgeId(2), 0.5);
        assert_eq!(eng.dist_between_nodes(&net, &w, NodeId(0), NodeId(3)), 1.5);
    }

    #[test]
    fn point_to_point_same_edge() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let a = NetPoint::new(crate::ids::EdgeId(0), 0.2);
        let b = NetPoint::new(crate::ids::EdgeId(0), 0.9);
        assert!((eng.dist_between_points(&net, &w, a, b) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn point_to_point_same_edge_detour_can_win() {
        // If the shared edge is very heavy, going around may be shorter.
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        b.add_edge(n0, n1, 100.0); // e0 heavy
        b.add_edge(n0, n1, 1.0); // e1 parallel light
        let net = b.build().unwrap();
        let w = EdgeWeights::from_base(&net);
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let a = NetPoint::new(crate::ids::EdgeId(0), 0.0);
        let bpt = NetPoint::new(crate::ids::EdgeId(0), 1.0);
        // Direct along e0: 100. Around through e1: 1.
        assert!((eng.dist_between_points(&net, &w, a, bpt) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_to_point_across_edges() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        // Midpoint of bottom edge to midpoint of top edge:
        // 0.5 to a corner + 1 up + 0.5 across = 2.0.
        let a = NetPoint::new(crate::ids::EdgeId(0), 0.5);
        let b = NetPoint::new(crate::ids::EdgeId(3), 0.5);
        assert!((eng.dist_between_points(&net, &w, a, b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_distance_is_infinite() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        let n2 = b.add_node(5.0, 0.0);
        let n3 = b.add_node(6.0, 0.0);
        b.add_edge_euclidean(n0, n1);
        b.add_edge_euclidean(n2, n3);
        let net = b.build().unwrap();
        let w = EdgeWeights::from_base(&net);
        let mut eng = DijkstraEngine::new(net.num_nodes());
        assert_eq!(
            eng.dist_between_nodes(&net, &w, NodeId(0), NodeId(3)),
            f64::INFINITY
        );
        assert!(eng
            .path_between_nodes(&net, &w, NodeId(0), NodeId(3))
            .is_none());
    }

    #[test]
    fn path_extraction() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        let path = eng
            .path_between_nodes(&net, &w, NodeId(0), NodeId(3))
            .unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], NodeId(0));
        assert_eq!(path[2], NodeId(3));
        // Middle hop is either corner; both are tied at distance 1 and the
        // deterministic tie-break picks the smaller node id.
        assert_eq!(path[1], NodeId(1));
    }

    #[test]
    fn engine_reuse_across_epochs() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        eng.sssp(&net, &w, NodeId(0), None);
        let d3_first = eng.dist_of(NodeId(3)).unwrap();
        eng.sssp(&net, &w, NodeId(3), None);
        // Old epoch state must not leak: distances now relative to node 3.
        assert_eq!(eng.dist_of(NodeId(3)), Some(0.0));
        assert_eq!(eng.dist_of(NodeId(0)), Some(d3_first));
    }

    #[test]
    fn presettled_nodes_act_as_sources() {
        let (net, _w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        eng.begin();
        // Pretend nodes 0 and 1 are a valid expansion-tree remnant.
        eng.presettle(NodeId(0), 0.0);
        eng.presettle(NodeId(1), 1.0);
        // Seed the frontier from them manually.
        eng.seed(NodeId(2), 1.0, Some(NodeId(0)));
        eng.seed(NodeId(3), 2.0, Some(NodeId(1)));
        let (n, d) = eng.pop_settle().unwrap();
        assert_eq!((n, d), (NodeId(2), 1.0));
        let (n, d) = eng.pop_settle().unwrap();
        assert_eq!((n, d), (NodeId(3), 2.0));
        assert!(eng.pop_settle().is_none());
        assert!(eng.is_settled(NodeId(0)));
    }

    #[test]
    fn peek_skips_stale_entries() {
        let (net, _w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        eng.begin();
        eng.seed(NodeId(3), 5.0, None);
        eng.seed(NodeId(3), 2.0, None); // better; first entry now stale
        assert_eq!(eng.peek_dist(), Some(2.0));
        let _ = net;
    }

    #[test]
    fn reuse_is_allocation_free_and_counts_steps() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        eng.sssp(&net, &w, NodeId(0), None);
        eng.take_alloc_events();
        assert!(eng.take_expansion_steps() > 0);
        // Re-running the same expansion reuses all capacity.
        for _ in 0..5 {
            eng.reset_reuse();
            eng.seed(NodeId(0), 0.0, None);
            while let Some((n, d)) = eng.pop_settle() {
                for &(e, m) in net.adjacent(n) {
                    eng.relax(m, n, d + w.get(e));
                }
            }
        }
        assert_eq!(eng.take_alloc_events(), 0, "reuse must not grow the heap");
        assert!(eng.take_expansion_steps() >= 4 * 5);
    }

    #[test]
    fn heap_key_order_matches_float_order() {
        // The monotone-bits claim: for non-negative floats, to_bits order
        // equals numeric order (including +∞ as the maximum).
        let samples = [
            0.0,
            1e-300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            3.75,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
        // Negative zero must key identically to +0.0 (its raw bits would
        // sort after +∞).
        let nz = HeapEntry::new(-0.0, NodeId(1));
        let pz = HeapEntry::new(0.0, NodeId(1));
        assert_eq!(nz.key, pz.key);
        assert_eq!(nz.dist().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn negative_zero_seed_settles_first() {
        // A seed at -0.0 (reachable via a clamped -0.0 fraction) must pop
        // before farther nodes, exactly like a +0.0 seed.
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        eng.begin();
        eng.seed(NodeId(2), -0.0, None);
        eng.seed(NodeId(1), 0.25, None);
        let (n, d) = eng.pop_settle().unwrap();
        assert_eq!(n, NodeId(2));
        assert_eq!(d, 0.0);
        let _ = (net, w);
    }

    #[test]
    fn deterministic_tie_break() {
        let (net, w) = square();
        let mut eng = DijkstraEngine::new(net.num_nodes());
        // Nodes 1 and 2 are both at distance 1 from node 0; node 1 must
        // always settle first.
        for _ in 0..10 {
            eng.begin();
            eng.seed(NodeId(0), 0.0, None);
            let mut order = Vec::new();
            while let Some((n, d)) = eng.pop_settle() {
                order.push(n);
                for &(e, m) in net.adjacent(n) {
                    eng.relax(m, n, d + w.get(e));
                }
            }
            assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        }
    }
}
