//! **CRNN** — continuous *reverse* nearest-neighbor monitoring.
//!
//! §7 names this as future work:
//!
//! > "Consider a set of queries and a set of data objects moving in a
//! > network. Our task is to constantly report for each query q the set of
//! > objects that are closer to q than to any other query. As an example,
//! > consider a taxi driver who wishes to know the clients that are closer
//! > to his/her position than to any other vacant cab."
//!
//! The implementation inverts the roles and reuses the incremental
//! machinery of §4 wholesale: every *data object* becomes an anchor whose
//! **1-NN over the query set** is monitored with an expansion tree and
//! influence lists ([`crate::anchor::AnchorSet`], keyed by [`ObjectId`]).
//! An object `p` belongs to
//! `RNN(q)` exactly when its monitored nearest query is `q`, so each tick
//! only the objects whose 1-NN assignment actually changes are touched —
//! the same only-process-invalidating-updates property IMA gives k-NN
//! monitoring.

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{FxHashMap, FxHashSet, NetPoint, ObjectId, QueryId, RoadNetwork};

use crate::anchor::AnchorSet;
use crate::counters::{MemoryUsage, OpCounters, TickReport};
use crate::state::NetworkState;
use crate::types::{ObjectEvent, QueryEvent, RootPos, UpdateBatch, UpdateEvent};

/// Continuous reverse-NN monitor: for every query, the set of objects whose
/// nearest query it is.
pub struct Crnn {
    /// Role-inverted state: `state.objects` holds the *queries* (they are
    /// the "data" being searched for), while the monitored anchors are the
    /// data objects.
    state: NetworkState,
    anchors: AnchorSet<ObjectId>,
    /// Current assignment object → its nearest query.
    assignment: FxHashMap<ObjectId, QueryId>,
    /// Inverse: query → its reverse NNs.
    rnn: FxHashMap<QueryId, FxHashSet<ObjectId>>,
}

impl Crnn {
    /// Creates a CRNN server over `net`.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Self {
            state: NetworkState::new(&net),
            anchors: AnchorSet::new(net),
            assignment: FxHashMap::default(),
            rnn: FxHashMap::default(),
        }
    }

    /// Applies one out-of-band [`UpdateEvent`] immediately, as a
    /// singleton [`Self::tick`] — the same single entry point as
    /// [`crate::ContinuousMonitor::apply`]: installing or removing a
    /// query (e.g. a vacant cab; `k` is ignored — every object tracks
    /// its one nearest query), inserting or deleting an object (e.g. a
    /// client waiting for a taxi), a move, an edge update.
    pub fn apply(&mut self, event: UpdateEvent) -> TickReport {
        let mut batch = UpdateBatch::default();
        batch.push(event);
        self.tick(&batch)
    }

    /// The reverse nearest neighbors of `q`: every object whose closest
    /// query is `q`. Returns `None` for unknown queries.
    pub fn reverse_nns(&self, q: QueryId) -> Option<Vec<ObjectId>> {
        self.state.objects.position(ObjectId(q.0))?;
        let mut v: Vec<ObjectId> = self
            .rnn
            .get(&q)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort();
        Some(v)
    }

    /// The nearest query of object `p` (its current assignment).
    pub fn nearest_query_of(&self, p: ObjectId) -> Option<QueryId> {
        self.assignment.get(&p).copied()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.state.objects.len()
    }

    /// Number of monitored objects.
    pub fn num_objects(&self) -> usize {
        self.anchors.len()
    }

    fn refresh_assignment(&mut self, obj: ObjectId) {
        let nearest = self
            .anchors
            .get(obj)
            .and_then(|rec| rec.result.first())
            .map(|n| QueryId(n.object.0));
        let old = self.assignment.get(&obj).copied();
        if old == nearest {
            return;
        }
        if let Some(oldq) = old {
            if let Some(set) = self.rnn.get_mut(&oldq) {
                set.remove(&obj);
            }
        }
        match nearest {
            Some(newq) => {
                self.rnn.entry(newq).or_default().insert(obj);
                self.assignment.insert(obj, newq);
            }
            None => {
                self.assignment.remove(&obj);
            }
        }
    }

    /// Processes one timestamp. The batch's *queries* move the cabs (the
    /// entities being assigned to) and its *objects* move the clients (the
    /// entities whose nearest cab is tracked); edge updates apply as usual.
    pub fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();

        // Translate: queries of the public batch become the *searched set*
        // (internal "objects"); objects of the public batch become anchor
        // roots.
        let mut inner = UpdateBatch::default();
        for ev in &batch.queries {
            match *ev {
                QueryEvent::Install { id, at, .. } => {
                    inner.objects.push(ObjectEvent::Insert {
                        id: ObjectId(id.0),
                        at,
                    });
                }
                QueryEvent::Move { id, to } => {
                    inner.objects.push(ObjectEvent::Move {
                        id: ObjectId(id.0),
                        to,
                    });
                }
                QueryEvent::Remove { id } => {
                    self.rnn.remove(&id);
                    inner
                        .objects
                        .push(ObjectEvent::Delete { id: ObjectId(id.0) });
                }
            }
        }
        inner.edges = batch.edges.clone();
        let deltas = self.state.apply_batch(&inner);

        // Anchor root moves / installs / removals from the public objects.
        let mut root_moves: Vec<(ObjectId, RootPos)> = Vec::new();
        let mut installs: Vec<(ObjectId, NetPoint)> = Vec::new();
        for ev in &batch.objects {
            match *ev {
                ObjectEvent::Insert { id, at } => {
                    if self.anchors.get(id).is_none() {
                        installs.push((id, at));
                    }
                }
                ObjectEvent::Move { id, to } => {
                    if self.anchors.get(id).is_some() {
                        root_moves.push((id, RootPos::Point(to)));
                    }
                }
                ObjectEvent::Delete { id } => {
                    self.anchors.remove(id);
                    if let Some(q) = self.assignment.remove(&id) {
                        if let Some(set) = self.rnn.get_mut(&q) {
                            set.remove(&id);
                        }
                    }
                }
            }
        }

        counters.merge(&self.anchors.tick(
            &self.state,
            &deltas.objects,
            &deltas.edges,
            &root_moves,
        ));

        // New anchors for inserted objects (after all updates, §4.5; of an
        // object the batch inserts twice, the first insert stands).
        for (id, at) in installs {
            if self.anchors.get(id).is_none() {
                self.anchors
                    .add(&self.state, id, RootPos::Point(at), 1, &mut counters);
                self.refresh_assignment(id);
            }
        }

        // Re-derive assignments for changed anchors.
        let mut results_changed = 0;
        let changed_objs = self.anchors.changed().to_vec();
        for obj in changed_objs {
            let before = self.assignment.get(&obj).copied();
            self.refresh_assignment(obj);
            if before != self.assignment.get(&obj).copied() {
                results_changed += 1;
            }
        }

        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    /// Resident memory of the monitor.
    pub fn memory(&self) -> MemoryUsage {
        let (query_table, expansion_trees, influence_lists) = self.anchors.memory_breakdown();
        MemoryUsage {
            edge_table: self.state.memory_bytes(),
            query_table,
            expansion_trees,
            influence_lists,
            auxiliary: self.anchors.scratch_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::{generators, EdgeId};

    /// Line of 6 nodes; two cabs (queries) at the ends, clients between.
    fn setup() -> Crnn {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut c = Crnn::new(net);
        c.apply(UpdateEvent::install_query(
            QueryId(100),
            1,
            NetPoint::new(EdgeId(0), 0.0),
        )); // x=0
        c.apply(UpdateEvent::install_query(
            QueryId(200),
            1,
            NetPoint::new(EdgeId(4), 1.0),
        )); // x=5
        c
    }

    #[test]
    fn objects_assign_to_nearest_query() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(0), 0.5),
        )); // x=0.5 -> q100
        c.apply(UpdateEvent::insert_object(
            ObjectId(2),
            NetPoint::new(EdgeId(4), 0.5),
        )); // x=4.5 -> q200
        c.apply(UpdateEvent::insert_object(
            ObjectId(3),
            NetPoint::new(EdgeId(1), 0.0),
        )); // x=1.0 -> q100
        assert_eq!(
            c.reverse_nns(QueryId(100)).unwrap(),
            vec![ObjectId(1), ObjectId(3)]
        );
        assert_eq!(c.reverse_nns(QueryId(200)).unwrap(), vec![ObjectId(2)]);
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(100)));
    }

    #[test]
    fn object_movement_reassigns() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(100)));
        let rep = c.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(1),
                to: NetPoint::new(EdgeId(4), 0.75),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(200)));
        assert!(c.reverse_nns(QueryId(100)).unwrap().is_empty());
    }

    #[test]
    fn query_movement_steals_clients() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(2), 0.5),
        )); // x=2.5: q100 at 2.5, q200 at 2.5 — tie; dist tie broken by id.
            // Break the tie deterministically: move q200 closer.
        c.tick(&UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(200),
                to: NetPoint::new(EdgeId(3), 0.0),
            }],
            ..Default::default()
        });
        // q200 now at x=3: distance 0.5 vs q100's 2.5.
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(200)));
    }

    #[test]
    fn query_removal_reassigns_clients() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(100)));
        c.apply(UpdateEvent::remove_query(QueryId(100)));
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(200)));
        assert!(c.reverse_nns(QueryId(100)).is_none());
    }

    #[test]
    fn edge_updates_can_flip_assignment() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(2), 0.25),
        )); // x=2.25: q100 at 2.25, q200 at 2.75
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(100)));
        // Make the left part of the line very heavy.
        c.tick(&UpdateBatch {
            edges: vec![crate::types::EdgeWeightUpdate {
                edge: EdgeId(0),
                new_weight: 10.0,
            }],
            ..Default::default()
        });
        // q100 now at 10*? object on edge2 — distance via edges 1,0:
        // 0.25 + 1 + 10 = 11.25 ... wait q100 sits at frac 0 of edge 0, so
        // x-position unchanged but path crosses the heavy edge: 11.25 vs
        // q200 at 2.75.
        assert_eq!(c.nearest_query_of(ObjectId(1)), Some(QueryId(200)));
    }

    #[test]
    fn object_delete_cleans_up() {
        let mut c = setup();
        c.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(0), 0.5),
        ));
        c.apply(UpdateEvent::delete_object(ObjectId(1)));
        assert_eq!(c.num_objects(), 0);
        assert!(c.reverse_nns(QueryId(100)).unwrap().is_empty());
        assert_eq!(c.nearest_query_of(ObjectId(1)), None);
    }

    #[test]
    fn counts() {
        let c = setup();
        assert_eq!(c.num_queries(), 2);
        assert_eq!(c.num_objects(), 0);
        assert!(c.memory().total_bytes() > 0);
    }
}
