//! Synthetic road-map generators.
//!
//! The paper evaluates on sub-networks of the San Francisco road map and on
//! the Oldenburg map \[2\]. Those datasets are not redistributable here, so
//! this module generates synthetic maps with the same structural statistics
//! (see DESIGN.md, substitution #1):
//!
//! * a perturbed **grid city** ([`grid_city`]) — blocks with jittered
//!   intersections, randomly pruned streets (so degrees vary between 1 and
//!   4) and subdivided segments (so long degree-2 chains appear, which is
//!   what makes GMA's sequences non-trivial),
//! * size presets matching the paper's experiments:
//!   [`san_francisco_like`] (sub-networks of 1K–100K edges, Figs. 13–18) and
//!   [`oldenburg_like`] (6105 nodes / 7035 edges, Fig. 19).
//!
//! All generators are fully deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{RoadNetwork, RoadNetworkBuilder};
use crate::ids::NodeId;

/// Configuration for [`grid_city`].
#[derive(Clone, Debug)]
pub struct GridCityConfig {
    /// Grid columns (intersections per row).
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Distance between adjacent intersections.
    pub spacing: f64,
    /// Positional jitter as a fraction of `spacing` (0 = perfect grid).
    pub jitter: f64,
    /// Fraction of grid streets removed (creates dead-ends and detours).
    pub prune: f64,
    /// Each street is split into `1..=max_subdivision` segments (uniformly
    /// chosen), adding degree-2 chain nodes.
    pub max_subdivision: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GridCityConfig {
    fn default() -> Self {
        Self {
            nx: 16,
            ny: 16,
            spacing: 100.0,
            jitter: 0.25,
            prune: 0.25,
            max_subdivision: 3,
            seed: 0,
        }
    }
}

/// Generates a perturbed-grid city network. The result is connected (the
/// largest connected component is kept and node ids are re-densified) and
/// edge base weights equal the Euclidean endpoint distances (§6).
pub fn grid_city(cfg: &GridCityConfig) -> RoadNetwork {
    assert!(cfg.nx >= 2 && cfg.ny >= 2, "grid must be at least 2x2");
    assert!((0.0..1.0).contains(&cfg.prune), "prune must be in [0, 1)");
    assert!(cfg.max_subdivision >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Intersection positions with jitter.
    let mut pos = Vec::with_capacity(cfg.nx * cfg.ny);
    for y in 0..cfg.ny {
        for x in 0..cfg.nx {
            let jx = rng.random_range(-cfg.jitter..=cfg.jitter) * cfg.spacing;
            let jy = rng.random_range(-cfg.jitter..=cfg.jitter) * cfg.spacing;
            pos.push((x as f64 * cfg.spacing + jx, y as f64 * cfg.spacing + jy));
        }
    }
    let idx = |x: usize, y: usize| y * cfg.nx + x;

    // Candidate streets (right and up neighbours), randomly pruned.
    let mut streets: Vec<(usize, usize)> = Vec::new();
    for y in 0..cfg.ny {
        for x in 0..cfg.nx {
            if x + 1 < cfg.nx && rng.random::<f64>() >= cfg.prune {
                streets.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < cfg.ny && rng.random::<f64>() >= cfg.prune {
                streets.push((idx(x, y), idx(x, y + 1)));
            }
        }
    }

    // Largest connected component over the street graph.
    let keep = largest_component(pos.len(), &streets);

    // Build, subdividing kept streets into chains.
    let mut b = RoadNetworkBuilder::new();
    let mut remap: Vec<Option<NodeId>> = vec![None; pos.len()];
    for (i, &(x, y)) in pos.iter().enumerate() {
        if keep[i] {
            remap[i] = Some(b.add_node(x, y));
        }
    }
    for &(u, v) in &streets {
        let (Some(nu), Some(nv)) = (remap[u], remap[v]) else {
            continue;
        };
        let segments = rng.random_range(1..=cfg.max_subdivision);
        let (ux, uy) = pos[u];
        let (vx, vy) = pos[v];
        let mut prev = nu;
        for s in 1..segments {
            let t = s as f64 / segments as f64;
            let n = b.add_node(ux + (vx - ux) * t, uy + (vy - uy) * t);
            b.add_edge_euclidean(prev, n);
            prev = n;
        }
        b.add_edge_euclidean(prev, nv);
    }
    b.build().expect("generator produces valid networks")
}

/// Marks the nodes of the largest connected component.
fn largest_component(n: usize, edges: &[(usize, usize)]) -> Vec<bool> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut comp = vec![usize::MAX; n];
    let mut best = (0usize, 0usize); // (size, component id)
    let mut next_comp = 0;
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX || adj[s].is_empty() {
            continue;
        }
        let mut size = 0;
        stack.push(s);
        comp[s] = next_comp;
        while let Some(u) = stack.pop() {
            size += 1;
            for &v in &adj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = next_comp;
                    stack.push(v);
                }
            }
        }
        if size > best.0 {
            best = (size, next_comp);
        }
        next_comp += 1;
    }
    (0..n)
        .map(|i| comp[i] == best.1 && !adj[i].is_empty())
        .collect()
}

/// A San-Francisco-like sub-network with approximately `target_edges` edges
/// (within a few percent), as used in Figs. 13–18 (default 10K edges).
///
/// The paper's sub-networks vary from 1K to 100K edges (Fig. 17b).
pub fn san_francisco_like(target_edges: usize, seed: u64) -> RoadNetwork {
    sized_grid(target_edges, 0.25, 3, seed)
}

/// An Oldenburg-like network (the paper's Fig. 19 map has 6105 nodes and
/// 7035 edges; this generator matches the edge count and node/edge ratio
/// within a few percent).
pub fn oldenburg_like(seed: u64) -> RoadNetwork {
    sized_grid(7035, 0.30, 2, seed)
}

/// Picks grid dimensions so the expected edge count after pruning and
/// subdivision hits `target_edges`, then generates.
fn sized_grid(target_edges: usize, prune: f64, max_subdivision: usize, seed: u64) -> RoadNetwork {
    assert!(target_edges >= 8, "target too small");
    // Expected streets in an n×n grid: 2n(n-1); kept: ×(1-prune);
    // edges after subdivision: ×(1 + max_subdivision)/2.
    let subdiv_factor = (1.0 + max_subdivision as f64) / 2.0;
    let per_cell = 2.0 * (1.0 - prune) * subdiv_factor;
    let cells = target_edges as f64 / per_cell;
    let n = (cells.sqrt().round() as usize).max(2);
    grid_city(&GridCityConfig {
        nx: n,
        ny: n,
        prune,
        max_subdivision,
        seed,
        ..Default::default()
    })
}

/// A simple path network of `n` nodes with the given uniform spacing —
/// handy for unit tests and examples.
pub fn line_network(n: usize, spacing: f64) -> RoadNetwork {
    assert!(n >= 2);
    let mut b = RoadNetworkBuilder::new();
    let mut prev = b.add_node(0.0, 0.0);
    for i in 1..n {
        let cur = b.add_node(i as f64 * spacing, 0.0);
        b.add_edge_euclidean(prev, cur);
        prev = cur;
    }
    b.build().unwrap()
}

/// A ring network of `n` nodes on a circle — handy for tests (every node has
/// degree 2, so the whole ring is one broken-cycle sequence).
pub fn ring_network(n: usize, radius: f64) -> RoadNetwork {
    assert!(n >= 3);
    let mut b = RoadNetworkBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            b.add_node(radius * a.cos(), radius * a.sin())
        })
        .collect();
    for i in 0..n {
        b.add_edge_euclidean(nodes[i], nodes[(i + 1) % n]);
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_city_is_connected_and_valid() {
        for seed in 0..5 {
            let net = grid_city(&GridCityConfig {
                nx: 10,
                ny: 10,
                seed,
                ..Default::default()
            });
            assert!(net.is_connected(), "seed {seed} disconnected");
            assert!(net.num_edges() > 50);
            // Base weights equal Euclidean lengths.
            for e in net.edge_ids() {
                assert!((net.edge(e).base_weight - net.edge_euclidean_len(e)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 42,
            ..Default::default()
        };
        let a = grid_city(&cfg);
        let b = grid_city(&cfg);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.edge(e).start, b.edge(e).start);
            assert_eq!(a.edge(e).end, b.edge(e).end);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = grid_city(&GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 1,
            ..Default::default()
        });
        let b = grid_city(&GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 2,
            ..Default::default()
        });
        assert!(a.num_edges() != b.num_edges() || a.num_nodes() != b.num_nodes());
    }

    #[test]
    fn sf_like_hits_target_edge_count() {
        for &target in &[1_000usize, 5_000, 10_000] {
            let net = san_francisco_like(target, 9);
            let ratio = net.num_edges() as f64 / target as f64;
            assert!(
                (0.85..1.15).contains(&ratio),
                "target {target}: got {} edges (ratio {ratio:.2})",
                net.num_edges()
            );
            assert!(net.is_connected());
        }
    }

    #[test]
    fn oldenburg_like_statistics() {
        let net = oldenburg_like(4);
        let edges = net.num_edges() as f64;
        let nodes = net.num_nodes() as f64;
        assert!(
            (edges / 7035.0 - 1.0).abs() < 0.15,
            "edge count {} too far",
            edges
        );
        // Node/edge ratio of the real Oldenburg map is 6105/7035 ≈ 0.87.
        let ratio = nodes / edges;
        assert!(
            (0.70..1.05).contains(&ratio),
            "node/edge ratio {ratio:.2} unrealistic"
        );
        // Average degree like a real road network (2–3).
        let avg_deg = 2.0 * edges / nodes;
        assert!(
            (1.9..3.2).contains(&avg_deg),
            "avg degree {avg_deg:.2} unrealistic"
        );
    }

    #[test]
    fn degree_distribution_has_chains_and_intersections() {
        let net = grid_city(&GridCityConfig {
            nx: 12,
            ny: 12,
            seed: 5,
            ..Default::default()
        });
        let mut deg2 = 0;
        let mut deg_hi = 0;
        for n in net.node_ids() {
            match net.degree(n) {
                2 => deg2 += 1,
                d if d >= 3 => deg_hi += 1,
                _ => {}
            }
        }
        assert!(deg2 > 0, "no degree-2 chain nodes: GMA sequences trivial");
        assert!(deg_hi > 0, "no intersections");
    }

    #[test]
    fn line_and_ring_helpers() {
        let line = line_network(5, 2.0);
        assert_eq!(line.num_nodes(), 5);
        assert_eq!(line.num_edges(), 4);
        assert!(line.is_connected());

        let ring = ring_network(6, 10.0);
        assert_eq!(ring.num_nodes(), 6);
        assert_eq!(ring.num_edges(), 6);
        for n in ring.node_ids() {
            assert_eq!(ring.degree(n), 2);
        }
    }

    #[test]
    #[should_panic(expected = "grid must be at least 2x2")]
    fn tiny_grid_panics() {
        let _ = grid_city(&GridCityConfig {
            nx: 1,
            ny: 5,
            ..Default::default()
        });
    }
}
