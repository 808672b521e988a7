//! Event routing: turning a timestamp's object and query events into
//! per-shard pending events.
//!
//! Owns the coordinator's two registries and their edge indexes —
//! `objects` + `edge_obj`, `queries` + `edge_queries` — on the steady-state
//! path. The invariant it maintains: an object is held by exactly the
//! shards in the visibility mask of the edge it sits on (owner plus every
//! shard whose halo holds that edge), and a query is homed on the shard owning its
//! edge and indexed on that edge. Caller: `tick` only, once per event;
//! everything here runs in reused capacity except the first install of a
//! query id, and a known entity's record is rewritten where it lies.

use std::collections::hash_map::Entry;

use rnn_core::types::{object_slot, NOWHERE};
use rnn_core::{ObjectEvent, QueryEvent};
use rnn_roadnet::{EdgeId, FxHashMap, NetPoint, ObjectId, QueryId};

use crate::engine::{QueryRec, ShardBits, ShardedEngine};
use crate::protocol::ShardLink;

/// Drops `id` from the edge→query index bucket of `e`.
fn unindex_query(edge_queries: &mut FxHashMap<EdgeId, Vec<QueryId>>, e: EdgeId, id: QueryId) {
    if let Some(bucket) = edge_queries.get_mut(&e) {
        if let Some(i) = bucket.iter().position(|&q| q == id) {
            bucket.swap_remove(i);
        }
        if bucket.is_empty() {
            edge_queries.remove(&e);
        }
    }
}

impl<L: ShardLink> ShardedEngine<L> {
    /// Every registered object with its position, in ascending id order.
    pub(crate) fn object_positions(&self) -> impl Iterator<Item = (ObjectId, NetPoint)> + '_ {
        (self.objects.iter().enumerate())
            .filter(|(_, at)| at.edge != NOWHERE.edge)
            .map(|(i, &at)| (ObjectId::from_index(i), at))
    }

    /// Routes one object event to every shard that must see it — the owner
    /// of the object's edge plus each shard whose halo holds that edge —
    /// and keeps the registry and the edge→object index in step.
    ///
    /// # Panics
    /// Panics if the event's id is not below
    /// [`rnn_core::types::OBJECT_ID_BOUND`], before the registry grows.
    pub(crate) fn route_object_event(&mut self, ev: &ObjectEvent) {
        match *ev {
            // A move of an unknown object is an appearance, matching the
            // monitors' own coalescing (state.rs).
            ObjectEvent::Move { id, to } | ObjectEvent::Insert { id, at: to } => {
                let desired = self.edge_mask[to.edge.index()];
                let from = std::mem::replace(object_slot(&mut self.objects, id, NOWHERE), to);
                let old = if from.edge != NOWHERE.edge {
                    // A known object is held by the shards that see the edge
                    // it leaves; the index hears of it only when the edge
                    // changed.
                    if from.edge != to.edge {
                        self.edge_obj.relocate(from.edge, to.edge, id);
                    }
                    self.edge_mask[from.edge.index()]
                } else {
                    // Nobody holds an unknown object yet, so every desired
                    // shard gets an Insert.
                    self.edge_obj.insert(to.edge, id);
                    0
                };
                for s in ShardBits(old & desired) {
                    self.pending[s].objects.push(ObjectEvent::Move { id, to });
                }
                for s in ShardBits(desired & !old) {
                    self.pending[s]
                        .objects
                        .push(ObjectEvent::Insert { id, at: to });
                }
                for s in ShardBits(old & !desired) {
                    self.pending[s].objects.push(ObjectEvent::Delete { id });
                }
            }
            ObjectEvent::Delete { id } => {
                let pos = std::mem::replace(object_slot(&mut self.objects, id, NOWHERE), NOWHERE);
                if pos.edge != NOWHERE.edge {
                    self.edge_obj.remove(pos.edge, id);
                    for s in ShardBits(self.edge_mask[pos.edge.index()]) {
                        self.pending[s].objects.push(ObjectEvent::Delete { id });
                    }
                }
            }
        }
    }

    /// Routes one query event to the shard owning the query's edge,
    /// re-homing the query (`Remove` there, `Install` here) when it crossed
    /// a border, and keeps the registry and the edge→query index in step.
    /// Every `Install` it sends and every record it drops is noted in the
    /// change log, which is how the tick's `results_changed` comes to
    /// agree with a single monitor's on installs, re-installs and removals.
    pub(crate) fn route_query_event(&mut self, ev: &QueryEvent) {
        match *ev {
            QueryEvent::Move { id, to } => {
                let Some(rec) = self.queries.get_mut(&id) else {
                    return; // move of an unknown query: dropped, as monitors do
                };
                let from_edge = rec.pos.edge;
                rec.pos = to;
                let new_shard = self.partition.shard_of_edge(to.edge);
                if new_shard == rec.shard {
                    self.pending[new_shard as usize]
                        .queries
                        .push(QueryEvent::Move { id, to });
                } else {
                    let k = rec.k;
                    self.pending[rec.shard as usize]
                        .queries
                        .push(QueryEvent::Remove { id });
                    self.pending[new_shard as usize]
                        .queries
                        .push(QueryEvent::Install { id, k, at: to });
                    rec.shard = new_shard;
                    self.log.installed(id, rec, false);
                }
                if from_edge != to.edge {
                    unindex_query(&mut self.edge_queries, from_edge, id);
                    self.edge_queries.entry(to.edge).or_default().push(id);
                }
            }
            QueryEvent::Install { id, k, at } => {
                let shard = self.partition.shard_of_edge(at.edge);
                match self.queries.entry(id) {
                    // A live query is updated in place: its answer stands
                    // until the shard's reply replaces it, and is what the
                    // reply is judged against.
                    Entry::Occupied(live) => {
                        let rec = live.into_mut();
                        if rec.shard != shard {
                            self.pending[rec.shard as usize]
                                .queries
                                .push(QueryEvent::Remove { id });
                        }
                        // Same shard: no Remove — the monitors coalesce a
                        // re-Install of a known query into an update (pinned by
                        // the duplicate-install differential test).
                        if rec.pos.edge != at.edge {
                            unindex_query(&mut self.edge_queries, rec.pos.edge, id);
                            self.edge_queries.entry(at.edge).or_default().push(id);
                        }
                        (rec.k, rec.shard, rec.pos) = (k, shard, at);
                        self.log.installed(id, rec, false);
                    }
                    Entry::Vacant(vacant) => {
                        let rec = vacant.insert(QueryRec {
                            k,
                            shard,
                            slot: 0,
                            pos: at,
                            knn_dist: f64::INFINITY,
                            // lint: allow(hot-path-alloc): cold path — an Install creates the record once; `Vec::new` itself reserves nothing and the shard's first snapshot moves its result vector in
                            result: Vec::new(),
                            parked: 0,
                        });
                        self.edge_queries.entry(at.edge).or_default().push(id);
                        self.log.installed(id, rec, true);
                    }
                }
                self.pending[shard as usize]
                    .queries
                    .push(QueryEvent::Install { id, k, at });
            }
            QueryEvent::Remove { id } => {
                if let Some(rec) = self.queries.remove(&id) {
                    unindex_query(&mut self.edge_queries, rec.pos.edge, id);
                    self.pending[rec.shard as usize]
                        .queries
                        .push(QueryEvent::Remove { id });
                    self.log.removed(id, rec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rnn_core::{ContinuousMonitor, QueryEvent, UpdateBatch, UpdateEvent};
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId, QueryId};

    use crate::engine::tests::engine;

    #[test]
    fn query_migrates_across_shards() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 5) % n), 0.5),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            3,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let home = eng.queries[&QueryId(0)].shard;
        // Find an edge owned by a different shard and move the query there.
        let target = eng
            .net
            .edge_ids()
            .find(|&e| eng.partition.shard_of_edge(e) != home)
            .expect("4-way split has foreign edges");
        let mut batch = UpdateBatch::default();
        batch.queries.push(QueryEvent::Move {
            id: QueryId(0),
            to: NetPoint::new(target, 0.5),
        });
        eng.tick(&batch);
        assert_ne!(eng.queries[&QueryId(0)].shard, home);
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
    }

    #[test]
    fn remove_query_forgets_it() {
        let mut eng = engine(2);
        let n = eng.net.num_edges() as u32;
        for i in 0..10u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % n), 0.6),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(3),
            2,
            NetPoint::new(EdgeId(4), 0.5),
        ));
        assert!(eng.result(QueryId(3)).is_some());
        eng.apply(UpdateEvent::remove_query(QueryId(3)));
        assert!(eng.result(QueryId(3)).is_none());
        assert!(eng.query_ids().is_empty());
    }
}
