//! The common interface of all continuous-monitoring algorithms.

use rnn_roadnet::{NetPoint, ObjectId, QueryId};

use crate::counters::{MemoryUsage, TickReport};
use crate::types::{Neighbor, UpdateBatch, UpdateEvent};

/// A continuous k-NN monitoring server (§1: "a central server that monitors
/// the positions of CkNN queries and objects, as well as the current edge
/// weights [...] The task of the server is to continuously compute and
/// update the result of each query").
///
/// Implementations: [`crate::Ovh`] (baseline), [`crate::Ima`] (§4),
/// [`crate::Gma`] (§5).
///
/// Monitors are `Send` so that a sharded engine can move each one onto its
/// own worker thread (all state is owned; the only shared piece is the
/// immutable `Arc<RoadNetwork>`).
pub trait ContinuousMonitor: Send {
    /// Algorithm name (for experiment reports).
    fn name(&self) -> &'static str;

    /// A timestamp with one event: wraps `event` into a singleton
    /// [`UpdateBatch`], runs [`Self::tick`] and returns that tick's real
    /// report. This default body is the only one in the tree — there is no
    /// path into a monitor beside `tick` — so an `apply` and the one-event
    /// batch mean the same thing to every monitor, engine and cluster.
    ///
    /// It costs a whole timestamp (for [`crate::Ovh`], a recomputation of
    /// every query): load populations through [`load_population`], and
    /// batch a steady stream through an ingest stage (see
    /// `rnn_engine::ingest`) or one [`UpdateBatch`] per timestamp.
    fn apply(&mut self, event: UpdateEvent) -> TickReport {
        let mut batch = UpdateBatch::default();
        batch.push(event);
        self.tick(&batch)
    }

    /// Processes one timestamp of updates and refreshes all affected
    /// results.
    fn tick(&mut self, batch: &UpdateBatch) -> TickReport;

    /// The current k-NN set of a query, sorted by `(dist, id)`.
    fn result(&self, id: QueryId) -> Option<&[Neighbor]>;

    /// The current `kNN_dist` of a query (distance of its k-th neighbor;
    /// `∞` while fewer than k objects are reachable).
    fn knn_dist(&self, id: QueryId) -> Option<f64>;

    /// Ids of all registered queries (arbitrary order).
    fn query_ids(&self) -> Vec<QueryId>;

    /// What the last [`Self::tick`] changed: the registered queries whose
    /// `(kNN_dist, result)` differs from what it was before that call,
    /// each once, in ascending id order. A query the call installed counts
    /// from `(∞, [])`, so it is listed when it has an answer; a query the
    /// call removed is not registered and never listed. This is the §4/§5 point of the
    /// monitors — only the affected queries are touched — handed to the
    /// caller, so a consumer of results reads exactly these instead of
    /// comparing every registered query against a copy of its own.
    ///
    /// [`TickReport::results_changed`] of the same call is this list's
    /// length plus the queries the call removed that had an answer.
    fn changed_queries(&self) -> &[QueryId];

    /// Resident-memory breakdown (Fig. 18).
    fn memory(&self) -> MemoryUsage;

    /// For shared-execution monitors, the number of grouping units
    /// currently maintained (GMA's active nodes; the paper reports these
    /// counts, e.g. "GMA monitors only 844 active nodes on the average").
    /// `None` for per-query monitors.
    fn active_groups(&self) -> Option<usize> {
        None
    }

    /// For sharded monitors, the current max/mean ratio of the per-shard
    /// load estimates (1.0 = perfectly balanced). `None` for single
    /// monitors, for single-shard engines, and before any load has been
    /// observed. The benchmark harness reports this for the rebalance
    /// figure.
    fn shard_load_ratio(&self) -> Option<f64> {
        None
    }

    /// For distributed monitors, the cumulative transport-level counters
    /// of the links to their shard processes. `None` for in-process
    /// monitors. The benchmark harness reports these for the cluster
    /// figure (frames/bytes per tick, retries).
    fn transport_stats(&self) -> Option<TransportStats> {
        None
    }

    /// Captures the monitor's answer-relevant state for durability
    /// (weights, objects, query book, current results — see
    /// [`crate::snapshot::MonitorState`]). `None` for monitors without
    /// snapshot support (the cluster then falls back to full journal
    /// replay for that shard).
    fn snapshot_state(&self) -> Option<crate::snapshot::MonitorState> {
        None
    }
}

/// Events per timestamp of [`load_population`]: large enough that loading
/// costs a handful of ticks, small enough that no tick's scratch (the
/// coalescing lists are sized to their batch) stays resident afterwards.
const LOAD_BATCH: usize = 4096;

/// The bulk loader: feeds `objects`, then `queries` (`(id, k, position)`),
/// into `monitor` as timestamps of `LOAD_BATCH` (4,096) events through
/// [`ContinuousMonitor::tick`] — the objects' timestamps first, so every
/// query is installed over the whole population. Scenario installation
/// and snapshot restore both load through here, so a population enters a
/// monitor, an engine or a cluster by the same door every later event
/// does.
pub fn load_population(
    monitor: &mut dyn ContinuousMonitor,
    objects: impl IntoIterator<Item = (ObjectId, NetPoint)>,
    queries: impl IntoIterator<Item = (QueryId, usize, NetPoint)>,
) {
    let inserts = objects
        .into_iter()
        .map(|(id, at)| UpdateEvent::insert_object(id, at));
    let installs = queries
        .into_iter()
        .map(|(id, k, at)| UpdateEvent::install_query(id, k, at));
    tick_in_batches(monitor, inserts);
    tick_in_batches(monitor, installs);
}

fn tick_in_batches(monitor: &mut dyn ContinuousMonitor, events: impl Iterator<Item = UpdateEvent>) {
    let mut batch = UpdateBatch::default();
    for event in events {
        batch.push(event);
        if batch.len() == LOAD_BATCH {
            monitor.tick(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        monitor.tick(&batch);
    }
}

crate::counters::counter_struct! {
    /// Cumulative counters of a coordinator↔shard transport link (or the sum
    /// over all of a cluster's links). All counts are since construction.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TransportStats {
        /// Frames written to the wire (including retransmissions and replay).
        pub frames_sent: u64,
        /// Frames read off the wire (including duplicates and stale replies).
        pub frames_received: u64,
        /// Bytes written to the wire.
        pub bytes_sent: u64,
        /// Bytes read off the wire.
        pub bytes_received: u64,
        /// Request retransmissions after a timeout or a corrupt/stale reply.
        pub retries: u64,
        /// Received frames dropped because their checksum (or framing) was
        /// invalid.
        pub corrupt_frames: u64,
        /// Shard processes respawned and replayed after a detected crash.
        pub crash_recoveries: u64,
        /// Event frames currently retained in the coordinator's in-memory
        /// journal (a gauge; truncated behind each acknowledged snapshot).
        pub journal_len: u64,
        /// Bytes currently held in the shard's on-disk write-ahead log (a
        /// gauge; 0 when durability is disabled or disk-less).
        pub wal_bytes: u64,
        /// Size of the latest monitor-state snapshot payload in bytes (a
        /// gauge; 0 before the first snapshot).
        pub snapshot_bytes: u64,
        /// Monitor-state snapshots taken since construction.
        pub snapshots: u64,
        /// Journaled event frames replayed into respawned shards across all
        /// crash recoveries. With snapshots enabled this is bounded by the
        /// WAL suffix since the last snapshot, not the run length.
        pub frames_replayed: u64,
        /// Event frames appended to follower replicas (one count per
        /// follower per event; 0 when replication is disabled).
        pub replica_appends: u64,
        /// Bytes shipped to follower replicas over append, snapshot-offer
        /// and promote frames.
        pub replica_bytes: u64,
        /// Replicated event frames: one per append made while a follower
        /// was live. Appends are synchronous — each commits before the
        /// next is sent — so this counts appends; it is not a lag.
        pub commit_lag_frames: u64,
        /// Replication frames rejected by a replica because they carried a
        /// stale leadership epoch (the stale-leader fencing path).
        pub fenced_appends: u64,
        /// Follower replicas promoted to serving leader after the primary
        /// shard died past its retry and recovery budgets.
        pub failovers: u64,
    }
}
