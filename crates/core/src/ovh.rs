//! **OVH** — the overhaul baseline (§6).
//!
//! > "As a benchmark against IMA and GMA, we use an overhaul method (OVH)
//! > that computes each query from scratch at every timestamp, using the
//! > algorithm of Figure 2."
//!
//! OVH maintains no expansion trees and no influence lists between
//! timestamps; it simply re-runs the initial-result computation for every
//! registered query whenever anything (or nothing) happens.

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{FxHashMap, NetPoint, QueryId, RoadNetwork};

use crate::counters::{MemoryUsage, OpCounters, TickReport};
use crate::monitor::ContinuousMonitor;
use crate::search::{Expander, KeptTree};
use crate::snapshot::MonitorState;
use crate::state::NetworkState;
use crate::tree::ExpansionTree;
use crate::types::{Neighbor, RootPos, UpdateBatch};

struct OvhQuery {
    k: usize,
    pos: NetPoint,
    result: Vec<Neighbor>,
    knn_dist: f64,
}

/// The from-scratch baseline monitor.
pub struct Ovh {
    state: NetworkState,
    queries: FxHashMap<QueryId, OvhQuery>,
    /// OVH discards each search's expansion tree immediately, so
    /// successive recomputations recycle the same pool slots and run
    /// allocation-free in steady state.
    expander: Expander,
    /// The one tree every recomputation expands into, cleared after each:
    /// its directory is sized by the largest search, not handed round
    /// the pool's spares.
    tree: ExpansionTree,
    /// The tick's recompute list (every query, ascending), cut down after
    /// recomputation to the ones whose answer changed: the list behind
    /// [`ContinuousMonitor::changed_queries`].
    changed: Vec<QueryId>,
}

impl Ovh {
    /// Creates an OVH server over `net` with base weights and no objects.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Self {
            state: NetworkState::new(&net),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            queries: FxHashMap::default(),
            expander: Expander::new(net),
            tree: ExpansionTree::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; the tick refills it in kept capacity
            changed: Vec::new(),
        }
    }

    /// Recomputes `id` from scratch; whether its `(kNN_dist, result)`
    /// changed.
    fn recompute(&mut self, id: QueryId, counters: &mut OpCounters) -> bool {
        let q = self.queries.get_mut(&id).expect("query registered");
        let root = RootPos::Point(q.pos);
        // An empty kept tree expands exactly as a from-scratch search does.
        let kept = KeptTree::full(std::mem::take(&mut self.tree));
        let out = self
            .expander
            .expand(&self.state, root, q.k, Some(kept), &[], counters);
        let changed = out.result != q.result || out.knn_dist.to_bits() != q.knn_dist.to_bits();
        q.result = out.result;
        q.knn_dist = out.knn_dist;
        // OVH keeps no state between timestamps: the tree's slots go
        // straight back to the pool, where the next recomputation reuses
        // them.
        self.tree = out.tree;
        self.expander.pool.clear(&mut self.tree);
        changed
    }
}

impl ContinuousMonitor for Ovh {
    fn name(&self) -> &'static str {
        "OVH"
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();
        let deltas = self.state.apply_batch(batch);
        // Track query membership/position changes.
        let mut removed_with_answer = 0;
        for d in &deltas.queries {
            match (d.old, d.new) {
                (_, Some((k, at))) => {
                    let entry = self.queries.entry(d.id).or_insert(OvhQuery {
                        k,
                        pos: at,
                        // lint: allow(hot-path-alloc): the OVH baseline recomputes from scratch every tick by definition; its allocations are the cost the paper's figures measure against
                        result: Vec::new(),
                        knn_dist: f64::INFINITY,
                    });
                    entry.k = k;
                    entry.pos = at;
                }
                (Some(_), None) => {
                    if let Some(q) = self.queries.remove(&d.id) {
                        removed_with_answer += usize::from(!q.result.is_empty());
                    }
                }
                (None, None) => {}
            }
        }
        // Recompute everything from scratch, in ascending id order, and cut
        // the list down, in place, to the queries whose answer changed.
        let mut ids = std::mem::take(&mut self.changed);
        ids.clear();
        ids.extend(self.queries.keys().copied());
        ids.sort_unstable();
        ids.retain(|&id| self.recompute(id, &mut counters));
        let results_changed = ids.len() + removed_with_answer;
        self.changed = ids;
        self.expander.harvest(&mut counters);
        counters.alloc_events += self.state.objects.take_alloc_events();
        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|q| q.result.as_slice())
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        self.queries.get(&id).map(|q| q.knn_dist)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        // lint: allow(hot-path-alloc): introspection helper for tests and benches, not called from the tick path
        self.queries.keys().copied().collect()
    }

    fn changed_queries(&self) -> &[QueryId] {
        &self.changed
    }

    fn memory(&self) -> MemoryUsage {
        let query_table: usize = self
            .queries
            .values()
            .map(|q| {
                std::mem::size_of::<OvhQuery>()
                    + q.result.capacity() * std::mem::size_of::<Neighbor>()
            })
            .sum();
        MemoryUsage {
            edge_table: self.state.memory_bytes(),
            query_table,
            expansion_trees: 0,
            influence_lists: 0,
            auxiliary: self.expander.scratch_bytes()
                + self.expander.pool.memory_bytes()
                + self.tree.memory_bytes(),
        }
    }

    fn snapshot_state(&self) -> Option<MonitorState> {
        Some(MonitorState::capture(&self.expander.net, &self.state, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, UpdateEvent};
    use rnn_roadnet::{generators, EdgeId, ObjectId};

    fn setup() -> Ovh {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut ovh = Ovh::new(net.clone());
        for e in net.edge_ids() {
            ovh.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        ovh
    }

    #[test]
    fn initial_result_and_queries() {
        let mut ovh = setup();
        ovh.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        let r = ovh.result(QueryId(1)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].object, ObjectId(2));
        assert_eq!(ovh.query_ids(), vec![QueryId(1)]);
        assert_eq!(ovh.knn_dist(QueryId(1)), Some(1.0));
    }

    #[test]
    fn recomputes_every_tick() {
        let mut ovh = setup();
        ovh.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let rep = ovh.tick(&UpdateBatch::default());
        // Even an empty tick recomputes (that is the point of the baseline).
        assert_eq!(rep.counters.reevaluations, 1);
        assert_eq!(rep.results_changed, 0);
    }

    #[test]
    fn reflects_object_and_edge_updates() {
        let mut ovh = setup();
        ovh.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.25),
        ));
        assert_eq!(ovh.result(QueryId(1)).unwrap()[0].object, ObjectId(0));
        let rep = ovh.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Delete { id: ObjectId(0) }],
            edges: vec![EdgeWeightUpdate {
                edge: EdgeId(1),
                new_weight: 0.125,
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = ovh.result(QueryId(1)).unwrap();
        // o1 at 0.75 to node 1, then half of the shrunk edge 1.
        assert_eq!(r[0].object, ObjectId(1));
        assert_eq!(r[0].dist, 0.8125);
    }

    #[test]
    fn query_install_and_remove_via_batch() {
        let mut ovh = setup();
        ovh.apply(UpdateEvent::install_query(
            QueryId(5),
            1,
            NetPoint::new(EdgeId(4), 0.5),
        ));
        assert!(ovh.result(QueryId(5)).is_some());
        ovh.apply(UpdateEvent::remove_query(QueryId(5)));
        assert!(ovh.result(QueryId(5)).is_none());
    }

    #[test]
    fn memory_reports_nonzero() {
        let ovh = setup();
        assert!(ovh.memory().total_bytes() > 0);
        assert_eq!(ovh.memory().expansion_trees, 0, "OVH stores no trees");
    }
}
