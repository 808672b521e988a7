//! **IMA** — the incremental monitoring algorithm (§4).
//!
//! Each user query is an anchor of an [`AnchorSet`] keyed by its
//! [`QueryId`] — the paper's query table **QT**: it carries an
//! expansion tree and registers influencing intervals on the edges it can
//! see. A timestamp is processed by the complete IMA schedule of Figure 10
//! (implemented in [`AnchorSet::tick`]): updates that fall outside every
//! influence region are discarded unprocessed, and affected queries are
//! refreshed by re-expanding from the surviving part of their trees.

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{NetPoint, QueryId, RoadNetwork};

use crate::anchor::AnchorSet;
use crate::counters::{
    push_charged, reserve_charged, MemoryUsage, OpCounters, TickReport, SCRATCH_ROOM,
};
use crate::monitor::ContinuousMonitor;
use crate::snapshot::MonitorState;
use crate::state::NetworkState;
use crate::types::{Neighbor, RootPos, UpdateBatch};

/// The incremental monitoring algorithm.
pub struct Ima {
    state: NetworkState,
    anchors: AnchorSet<QueryId>,
    /// Per-tick scratch: the tick's query movements (room for every query,
    /// reserved as queries are installed) …
    root_moves: Vec<(QueryId, RootPos)>,
    /// … and the queries it installs, as `(id, k, position)` (growth
    /// charged to `install_alloc_events`).
    installs: Vec<(QueryId, usize, NetPoint)>,
    /// The queries whose answer the last call changed, ascending: the list
    /// behind [`ContinuousMonitor::changed_queries`] (room for every
    /// query, reserved as queries are installed) …
    changed: Vec<QueryId>,
    /// … and the answers the tick's re-installs at another k had before
    /// [`AnchorSet::set_k`] rewrote them: such a query is judged against
    /// this copy, not by what the anchor set reports.
    rekeyed: Vec<(QueryId, f64, Vec<Neighbor>)>,
}

impl Ima {
    /// Creates an IMA server over `net` with base weights and no objects.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        let state = NetworkState::new(&net);
        Self {
            state,
            anchors: AnchorSet::new(net),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; it is given room as queries are installed
            root_moves: Vec::new(),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; pushes charge its growth to install_alloc_events
            installs: Vec::new(),
            changed: Vec::with_capacity(SCRATCH_ROOM),
            // lint: allow(hot-path-alloc): an empty Vec allocates nothing; only a re-install at another k, a cold path, pushes to it
            rekeyed: Vec::new(),
        }
    }

    /// Disables influence lists (ablation): every update is delivered to
    /// every query. Results are unchanged; only the work differs.
    pub fn set_use_influence_lists(&mut self, on: bool) {
        self.anchors.use_influence_lists = on;
    }

    /// The dynamic network state (for inspection in tests/examples).
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Validates all internal invariants (expansion trees, result
    /// distances) against independent shortest-path computations.
    /// Intended for tests; cost is one bounded Dijkstra per query.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn validate_invariants(&mut self) {
        self.anchors.validate(&self.state);
    }

    /// The queries whose influencing intervals cover `(edge, frac)`
    /// (tests/debugging).
    pub fn covering_queries(&self, edge: rnn_roadnet::EdgeId, frac: f64) -> Vec<QueryId> {
        self.anchors.covering(edge, frac)
    }

    /// Computes a new query's initial result (§4.1); gives the tick's lists
    /// of query movements and of changed queries room for one more, and
    /// lists the query as changed when it has an answer.
    fn install_query(&mut self, id: QueryId, k: usize, at: NetPoint, counters: &mut OpCounters) {
        self.anchors
            .add(&self.state, id, RootPos::Point(at), k, counters);
        let n = self.anchors.len();
        let allocs = &mut counters.install_alloc_events;
        reserve_charged(&mut self.root_moves, n, allocs);
        reserve_charged(&mut self.changed, n, allocs);
        if self
            .answer(id)
            .is_some_and(|(_, result)| !result.is_empty())
        {
            self.changed.push(id);
        }
    }

    /// The current `(kNN_dist, result)` of a registered query.
    fn answer(&self, id: QueryId) -> Option<(f64, &[Neighbor])> {
        let rec = self.anchors.get(id)?;
        Some((rec.knn_dist, &rec.result))
    }
}

impl ContinuousMonitor for Ima {
    fn name(&self) -> &'static str {
        "IMA"
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();
        let deltas = self.state.apply_batch(batch);

        // Terminated queries leave before any other processing (§4.5: "we
        // perform these tasks before processing any update, to avoid
        // redundant computations for terminated queries").
        self.root_moves.clear();
        self.installs.clear();
        self.changed.clear();
        self.rekeyed.clear();
        let mut removed_with_answer = 0;
        for d in &deltas.queries {
            match (d.old, d.new) {
                (Some(_), None) => {
                    let had_answer = self.answer(d.id).is_some_and(|(_, r)| !r.is_empty());
                    removed_with_answer += usize::from(had_answer);
                    self.anchors.remove(d.id);
                }
                (Some((k_old, _)), Some((k_new, at))) => {
                    if k_old != k_new {
                        // Cold path: streams move queries, they rarely
                        // re-key them.
                        if let Some((knn_dist, result)) = self.answer(d.id) {
                            // lint: allow(hot-path-alloc): cold path — the one copy a re-install at another k is judged against, taken before set_k rewrites the result
                            self.rekeyed.push((d.id, knn_dist, result.to_vec()));
                        }
                        self.anchors.set_k(&self.state, d.id, k_new, &mut counters);
                    }
                    push_charged(
                        &mut self.root_moves,
                        (d.id, RootPos::Point(at)),
                        &mut counters.alloc_events,
                    );
                }
                (None, Some((k, at))) => {
                    push_charged(
                        &mut self.installs,
                        (d.id, k, at),
                        &mut counters.install_alloc_events,
                    );
                }
                (None, None) => {}
            }
        }

        counters.merge(&self.anchors.tick(
            &self.state,
            &deltas.objects,
            &deltas.edges,
            &self.root_moves,
        ));
        for &id in self.anchors.changed() {
            push_charged(&mut self.changed, id, &mut counters.alloc_events);
        }

        // Newly installed queries compute their initial result after all
        // updates took place (§4.5: "after line 19 in Figure 10").
        for i in 0..self.installs.len() {
            let (id, k, at) = self.installs[i];
            self.install_query(id, k, at, &mut counters);
        }

        // A re-keyed query is changed iff its answer differs from the copy
        // taken before `set_k`, whatever the anchor set said about the
        // answer `set_k` left behind.
        for i in 0..self.rekeyed.len() {
            let (id, knn_before, ref before) = self.rekeyed[i];
            let differs = self.answer(id).is_some_and(|(knn, result)| {
                knn.to_bits() != knn_before.to_bits() || result != before.as_slice()
            });
            self.changed.retain(|&q| q != id);
            if differs {
                push_charged(&mut self.changed, id, &mut counters.alloc_events);
            }
        }
        // The anchor set's list ascends; installs and re-keyed queries were
        // appended behind it.
        self.changed.sort_unstable();
        let results_changed = self.changed.len() + removed_with_answer;

        // Allocation/step accounting for the whole tick: the anchor set's
        // engine + influence arena (install work included) and the object
        // index's span arena.
        self.anchors.harvest_scratch_counters(&mut counters);
        counters.alloc_events += self.state.objects.take_alloc_events();

        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        Some(self.answer(id)?.1)
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        Some(self.answer(id)?.0)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        // lint: allow(hot-path-alloc): introspection helper for tests and benches, not called from the tick path
        self.anchors.keys().collect()
    }

    fn changed_queries(&self) -> &[QueryId] {
        &self.changed
    }

    fn memory(&self) -> MemoryUsage {
        let (query_table, expansion_trees, influence_lists) = self.anchors.memory_breakdown();
        MemoryUsage {
            edge_table: self.state.memory_bytes(),
            query_table,
            expansion_trees,
            influence_lists,
            auxiliary: self.anchors.scratch_bytes(),
        }
    }

    fn snapshot_state(&self) -> Option<MonitorState> {
        Some(MonitorState::capture(
            self.anchors.network(),
            &self.state,
            self,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateEvent};
    use rnn_roadnet::{generators, EdgeId, NetPoint, ObjectId};

    fn setup() -> Ima {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut ima = Ima::new(net.clone());
        for e in net.edge_ids() {
            ima.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        ima
    }

    #[test]
    fn lifecycle() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        assert_eq!(ima.result(QueryId(1)).unwrap().len(), 2);
        assert_eq!(ima.query_ids(), vec![QueryId(1)]);
        ima.apply(UpdateEvent::remove_query(QueryId(1)));
        assert!(ima.result(QueryId(1)).is_none());
        assert!(ima.query_ids().is_empty());
    }

    #[test]
    fn empty_tick_is_cheap_and_stable() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        let before = ima.result(QueryId(1)).unwrap().to_vec();
        let rep = ima.tick(&UpdateBatch::default());
        assert_eq!(rep.results_changed, 0);
        assert_eq!(
            rep.counters.reevaluations, 0,
            "nothing should be recomputed"
        );
        assert_eq!(ima.result(QueryId(1)).unwrap(), before.as_slice());
    }

    #[test]
    fn query_install_and_move_via_batch() {
        let mut ima = setup();
        ima.tick(&UpdateBatch {
            queries: vec![QueryEvent::Install {
                id: QueryId(3),
                k: 1,
                at: NetPoint::new(EdgeId(0), 0.5),
            }],
            ..Default::default()
        });
        assert_eq!(ima.result(QueryId(3)).unwrap()[0].object, ObjectId(0));
        ima.tick(&UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(3),
                to: NetPoint::new(EdgeId(4), 0.5),
            }],
            ..Default::default()
        });
        assert_eq!(ima.result(QueryId(3)).unwrap()[0].object, ObjectId(4));
        ima.tick(&UpdateBatch {
            queries: vec![QueryEvent::Remove { id: QueryId(3) }],
            ..Default::default()
        });
        assert!(ima.result(QueryId(3)).is_none());
    }

    #[test]
    fn mixed_updates_in_one_tick() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        // Simultaneously: weight change near the query, an object leaves,
        // another arrives.
        let rep = ima.tick(&UpdateBatch {
            objects: vec![
                ObjectEvent::Delete { id: ObjectId(1) },
                ObjectEvent::Move {
                    id: ObjectId(4),
                    to: NetPoint::new(EdgeId(1), 0.75),
                },
            ],
            edges: vec![EdgeWeightUpdate {
                edge: EdgeId(0),
                new_weight: 1.5,
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = ima.result(QueryId(1)).unwrap();
        // From x=1.5: o4 now at 0.25, o0 at 0.5 + ... edge0 weight 1.5 ->
        // o0 at frac 0.5 of edge0: dist = 0.5 (to node1) + 0.75 = 1.25;
        // o2 at 1.0.
        assert_eq!(r[0].object, ObjectId(4));
        assert_eq!(r[0].dist, 0.25);
        assert_eq!(r[1].object, ObjectId(2));
        assert_eq!(r[1].dist, 1.0);
    }

    #[test]
    fn covering_queries_follow_installs_and_removals() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        ima.apply(UpdateEvent::install_query(
            QueryId(2),
            1,
            NetPoint::new(EdgeId(4), 0.5),
        ));
        // Each query's own position is covered by exactly that query.
        assert_eq!(ima.covering_queries(EdgeId(0), 0.5), vec![QueryId(1)]);
        assert_eq!(ima.covering_queries(EdgeId(4), 0.5), vec![QueryId(2)]);
        // Removal (including via a batch) withdraws the intervals.
        ima.apply(UpdateEvent::remove_query(QueryId(1)));
        assert!(ima.covering_queries(EdgeId(0), 0.5).is_empty());
        ima.tick(&UpdateBatch {
            queries: vec![QueryEvent::Remove { id: QueryId(2) }],
            ..Default::default()
        });
        assert!(ima.covering_queries(EdgeId(4), 0.5).is_empty());
    }

    #[test]
    fn memory_reports_trees_and_influence() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            3,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        let m = ima.memory();
        assert!(m.expansion_trees > 0, "IMA stores expansion trees");
        assert!(m.influence_lists > 0, "IMA stores influence lists");
    }

    #[test]
    fn k_change_via_reinstall() {
        let mut ima = setup();
        ima.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        // Install event for an existing query with different k acts as a
        // k-change.
        ima.tick(&UpdateBatch {
            queries: vec![QueryEvent::Install {
                id: QueryId(1),
                k: 4,
                at: NetPoint::new(EdgeId(2), 0.5),
            }],
            ..Default::default()
        });
        assert_eq!(ima.result(QueryId(1)).unwrap().len(), 4);
    }

    /// A weight decrease that brings a node outside the tree to exactly
    /// kNN_dist is not harmless: an object there ties with the k-th and,
    /// with the smaller id, takes its place.
    #[test]
    fn a_shortcut_to_exactly_knn_dist_lets_a_tie_in() {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let [a, c, x, y] =
            [(0.0, 0.0), (8.0, 0.0), (0.0, 10.0), (0.0, 20.0)].map(|(px, py)| b.add_node(px, py));
        let near = b.add_edge(a, c, 8.0);
        let shortcut = b.add_edge(a, x, 10.0);
        let beyond = b.add_edge(x, y, 10.0);
        let mut ima = Ima::new(Arc::new(b.build().unwrap()));
        let at = |e, frac| NetPoint { edge: e, frac };
        ima.apply(UpdateEvent::insert_object(ObjectId(9), at(near, 0.75)));
        ima.apply(UpdateEvent::insert_object(ObjectId(1), at(beyond, 0.0)));
        ima.apply(UpdateEvent::install_query(QueryId(0), 1, at(near, 0.0)));
        let answer = |ima: &Ima| ima.result(QueryId(0)).unwrap().to_vec();
        let nn = |id, dist| {
            vec![Neighbor {
                object: ObjectId(id),
                dist,
            }]
        };
        assert_eq!(answer(&ima), nn(9, 6.0));
        ima.tick(&UpdateBatch {
            edges: vec![EdgeWeightUpdate {
                edge: shortcut,
                new_weight: 6.0,
            }],
            ..Default::default()
        });
        assert_eq!(answer(&ima), nn(1, 6.0));
    }
}
