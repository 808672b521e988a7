//! The shard-side half of the engine↔shard exchange: one monitor, driven
//! by [`DeltaBatch`]es, answering with [`TickOutcome`]s.
//!
//! The delta discipline is **the monitor's change list**. After a batch
//! the monitor says which answers it changed
//! ([`ContinuousMonitor::changed_queries`]); the shard ships exactly those
//! plus the queries the batch installed (the coordinator holds no answer of
//! this shard's for them yet, whatever the monitor thinks changed), one
//! copy of each result, in ascending id order. The shard keeps no copy of
//! what it shipped and never walks its query table: an exchange costs
//! O(changed), whether the shard serves ten queries or ten thousand, and a
//! shard restored from a snapshot has nothing to rebuild but its monitor.
//!
//! Both kinds of shard — the in-process worker thread
//! ([`crate::worker::ShardWorker`]) and the cluster's `ShardService` —
//! drive their monitor through one [`ShardTickState`], so identical
//! request streams produce identical replies.

use rnn_core::{ContinuousMonitor, QueryEvent, UpdateBatch};
use rnn_roadnet::QueryId;

use crate::protocol::{DeltaBatch, QuerySnapshot, TickOutcome};

/// The reusable buffers of a shard's tick: steady-state exchanges allocate
/// only what they ship.
#[derive(Default)]
pub struct ShardTickState {
    // Monitor-facing batch, reassembled from each delta (the edge copy
    // out of the shared arena runs on the shard, off the router's
    // critical path) and reused across ticks.
    batch: UpdateBatch,
    // The ids the exchange in progress ships.
    ship: Vec<QueryId>,
}

impl ShardTickState {
    /// Fresh buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one delta batch to `monitor` and assembles the outcome,
    /// shipping the queries the monitor lists as changed and the ones the
    /// batch installed, with the monitor's report and grouping-unit count.
    pub fn run_tick(
        &mut self,
        monitor: &mut dyn ContinuousMonitor,
        delta: DeltaBatch,
    ) -> TickOutcome {
        self.batch.edges.clear();
        self.batch.edges.extend_from_slice(&delta.shared_edges);
        self.batch.objects = delta.objects;
        self.batch.queries = delta.queries;
        let report = monitor.tick(&self.batch);
        // Freshly installed queries always ship: the engine expects this
        // shard's answer for them even when the monitor reproduces the one
        // it had (a re-install in place) or has none to give.
        self.ship.clear();
        self.ship
            .extend(self.batch.queries.iter().filter_map(|ev| match ev {
                QueryEvent::Install { id, .. } => Some(*id),
                _ => None,
            }));
        self.ship.extend_from_slice(monitor.changed_queries());
        self.ship.sort_unstable();
        self.ship.dedup();
        // lint: allow(hot-path-alloc): the outcome is moved to the coordinator, so its list of snapshots is allocated per reply (nothing when nothing changed)
        let mut snapshots = Vec::new();
        for &id in &self.ship {
            // Installed, then removed by the same batch: nothing to ship.
            let Some(result) = monitor.result(id) else {
                continue;
            };
            snapshots.push(QuerySnapshot {
                id,
                knn_dist: monitor.knn_dist(id).unwrap_or(f64::INFINITY),
                // lint: allow(hot-path-alloc): the one copy of a changed result — it is moved into the coordinator's record, not copied again
                result: result.to_vec(),
            });
        }
        TickOutcome {
            report,
            snapshots,
            active_groups: monitor.active_groups(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::Arc;

    use rnn_core::{Gma, MemoryUsage, Neighbor, ObjectEvent, TickReport};
    use rnn_roadnet::{generators, EdgeId, NetPoint, ObjectId, RoadNetwork};

    use super::*;
    use crate::protocol::BatchKind;

    /// A monitor that counts the answers read from it and refuses to list
    /// its queries: `run_tick` has no business walking the query table.
    struct Counting {
        inner: Gma,
        results_read: Cell<usize>,
    }

    impl ContinuousMonitor for Counting {
        fn name(&self) -> &'static str {
            "COUNTING"
        }
        fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
            self.inner.tick(batch)
        }
        fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
            self.results_read.set(self.results_read.get() + 1);
            self.inner.result(id)
        }
        fn knn_dist(&self, id: QueryId) -> Option<f64> {
            self.inner.knn_dist(id)
        }
        fn query_ids(&self) -> Vec<QueryId> {
            panic!("the shard exchange must not walk the query table")
        }
        fn changed_queries(&self) -> &[QueryId] {
            self.inner.changed_queries()
        }
        fn memory(&self) -> MemoryUsage {
            self.inner.memory()
        }
    }

    fn net() -> Arc<RoadNetwork> {
        Arc::new(generators::grid_city(&generators::GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 9,
            ..Default::default()
        }))
    }

    fn delta(objects: Vec<ObjectEvent>, queries: Vec<QueryEvent>) -> DeltaBatch {
        DeltaBatch {
            objects,
            queries,
            shared_edges: Arc::new(Vec::new()),
            kind: BatchKind::Tick,
        }
    }

    fn install(q: u32, e: u32) -> QueryEvent {
        QueryEvent::Install {
            id: QueryId(q),
            k: 3,
            at: NetPoint::new(EdgeId(e), 0.4),
        }
    }

    #[test]
    fn an_exchange_reads_exactly_the_changed_and_installed_answers() {
        let net = net();
        let n = net.num_edges() as u32;
        let mut monitor = Counting {
            inner: Gma::new(net),
            results_read: Cell::new(0),
        };
        let mut shard = ShardTickState::new();
        let inserts = (0..n)
            .map(|e| ObjectEvent::Insert {
                id: ObjectId(e),
                at: NetPoint::new(EdgeId(e), 0.5),
            })
            .collect();
        shard.run_tick(&mut monitor, delta(inserts, vec![]));
        assert_eq!(monitor.results_read.get(), 0, "no query, no answer read");

        // 200 single-install exchanges read O(200) answers in total: an
        // install exchange is O(1) in the number of registered queries.
        for q in 0..200u32 {
            let out = shard.run_tick(&mut monitor, delta(vec![], vec![install(q, q % n)]));
            assert_eq!(out.snapshots.len(), 1, "install {q}");
            assert_eq!(out.snapshots[0].id, QueryId(q));
            assert_eq!(out.snapshots[0].result.len(), 3);
        }
        assert_eq!(monitor.results_read.get(), 200);

        // An idle exchange reads nothing.
        let out = shard.run_tick(&mut monitor, delta(vec![], vec![]));
        assert!(out.snapshots.is_empty());
        assert_eq!(monitor.results_read.get(), 200);

        // One object leaves: exactly the monitor's change list is read and
        // shipped, ascending.
        let gone = ObjectEvent::Delete { id: ObjectId(7) };
        let out = shard.run_tick(&mut monitor, delta(vec![gone], vec![]));
        let changed = monitor.changed_queries().to_vec();
        assert!(!changed.is_empty(), "queries sit next to object 7");
        assert!(changed.len() < 200);
        let sent: Vec<QueryId> = out.snapshots.iter().map(|s| s.id).collect();
        assert_eq!(sent, changed);
        assert_eq!(monitor.results_read.get(), 200 + changed.len());

        // changed ∪ installed, each once: a re-install in place ships
        // though nothing changed, and an install the batch removes again
        // is looked up and dropped.
        let before = monitor.results_read.get();
        let out = shard.run_tick(
            &mut monitor,
            delta(
                vec![],
                vec![
                    install(5, 5),
                    install(900, 1),
                    QueryEvent::Remove { id: QueryId(900) },
                ],
            ),
        );
        assert!(monitor.changed_queries().is_empty());
        assert_eq!(out.snapshots.len(), 1);
        assert_eq!(out.snapshots[0].id, QueryId(5));
        assert_eq!(monitor.results_read.get(), before + 2);
    }
}
