//! Drives the monitors over identical update streams and collects the
//! measurements the paper reports: CPU time per timestamp (the y-axis of
//! Figs. 13–17 and 19), memory in KBytes (Fig. 18), plus deterministic
//! operation counters (machine-independent shape validation; DESIGN.md
//! substitution #3).

use std::time::Duration;

use rnn_core::{
    ContinuousMonitor, Gma, Ima, MemoryUsage, OpCounters, Ovh, TickReport, TransportStats,
    UpdateBatch, UpdateEvent,
};
use rnn_workload::{Firehose, FirehoseConfig, FirehosePattern, Scenario};

use crate::params::Params;

/// Which algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The from-scratch baseline (§6).
    Ovh,
    /// Incremental monitoring (§4).
    Ima,
    /// Group monitoring (§5).
    Gma,
    /// Ablation: IMA with influence lists disabled (every update hits
    /// every query). Quantifies the paper's "ignore irrelevant updates"
    /// claim.
    ImaNoInfluence,
    /// The sharded engine (`rnn-engine`) with this many shards, GMA
    /// inside each.
    Sharded(u8),
    /// The sharded engine with dynamic load-aware re-partitioning enabled
    /// (`EngineConfig::with_rebalancing`).
    ShardedRebal(u8),
    /// The shard-per-process cluster (`rnn-cluster`) with this many
    /// shards over fault-free loopback RPC. Work counters are
    /// bit-identical to `Sharded(n)`; the CPU delta is the
    /// framing/serialisation cost of the delta protocol.
    Cluster(u8),
    /// The cluster with the durability plane on and a crash injected:
    /// every shard snapshots its monitor state each
    /// [`DURABLE_SNAPSHOT_EVERY`] journaled event frames, its transport
    /// kills the service after [`DURABLE_CRASH_AFTER_FRAMES`] delivered
    /// frames, and recovery rebuilds from snapshot + journal suffix.
    /// Sizes crash recovery: recoveries, frames replayed per recovery
    /// (the O(WAL-suffix) bound the CI gate pins), snapshot bytes.
    ClusterDurable(u8),
    /// The durable cluster with quorum replication on and a leader kill
    /// injected: every shard streams its event frames to
    /// [`REPLICATION_FACTOR`] follower replicas (majority quorum), its
    /// transport kills the service after
    /// [`REPLICATED_CRASH_AFTER_FRAMES`] delivered frames, and respawns
    /// are stillborn — so the recovery budget burns down and a follower
    /// is *promoted*, serving the back half of the run. Work counters
    /// stay bit-identical to `Sharded(n)` through the failover; the
    /// commit-lag and replica-byte columns size the replication plane.
    ClusterReplicated(u8),
    /// The sharded engine fed through the MPSC ingest stage
    /// (`rnn_engine::ingest`) instead of pre-built batches: the raw
    /// oversampled firehose stream is submitted event-by-event and
    /// coalesced at the tick-boundary drain (blocking admission, lanes
    /// sized so nothing sheds). Requires a [`Params::firehose`] pattern.
    Ingest(u8),
    /// The ingest-fed engine under deliberately tight admission:
    /// per-lane buffers sized well below the firehose rate with
    /// [`rnn_engine::AdmissionPolicy::ShedOldest`], so the shed counter
    /// shows what bounded-queue backpressure drops.
    IngestShed(u8),
}

/// Snapshot cadence of [`Algo::ClusterDurable`], in journaled event
/// frames. Pinned so the recovery artifact is deterministic; the
/// replayed-per-recovery bound asserted by the recovery smoke is this
/// plus the in-flight frame.
pub const DURABLE_SNAPSHOT_EVERY: u32 = 8;

/// Delivered-frame budget after which each [`Algo::ClusterDurable`]
/// shard's transport kills its service, forcing exactly one crash and
/// snapshot+suffix recovery per shard mid-run.
pub const DURABLE_CRASH_AFTER_FRAMES: u32 = 30;

/// Follower replicas per shard for [`Algo::ClusterReplicated`]
/// (majority quorum via `ReplicationConfig::with_replicas`). Two, so
/// the log still has a live follower after one is promoted.
pub const REPLICATION_FACTOR: u32 = 2;

/// Delivered-frame budget after which each [`Algo::ClusterReplicated`]
/// shard's transport kills its service. The fault plan marks respawns
/// stillborn, so snapshot+replay recovery is exhausted and the link
/// must promote a follower — exactly one failover per shard per run.
/// Lower than [`DURABLE_CRASH_AFTER_FRAMES`] so even the smallest
/// gated sweep point kills *every* shard's leader (at 4 shards the
/// install stream splits four ways, and the replication smoke asserts
/// one promotion per shard).
pub const REPLICATED_CRASH_AFTER_FRAMES: u32 = 12;

impl Algo {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Ovh => "OVH",
            Algo::Ima => "IMA",
            Algo::Gma => "GMA",
            Algo::ImaNoInfluence => "IMA-noIL",
            Algo::Sharded(1) => "ENG-1",
            Algo::Sharded(2) => "ENG-2",
            Algo::Sharded(4) => "ENG-4",
            Algo::Sharded(8) => "ENG-8",
            Algo::Sharded(_) => "ENG-n",
            Algo::ShardedRebal(2) => "ENG-2-RB",
            Algo::ShardedRebal(4) => "ENG-4-RB",
            Algo::ShardedRebal(8) => "ENG-8-RB",
            Algo::ShardedRebal(_) => "ENG-n-RB",
            Algo::Cluster(1) => "CLU-1",
            Algo::Cluster(2) => "CLU-2",
            Algo::Cluster(4) => "CLU-4",
            Algo::Cluster(8) => "CLU-8",
            Algo::Cluster(_) => "CLU-n",
            Algo::ClusterDurable(1) => "CLU-1-D",
            Algo::ClusterDurable(2) => "CLU-2-D",
            Algo::ClusterDurable(4) => "CLU-4-D",
            Algo::ClusterDurable(8) => "CLU-8-D",
            Algo::ClusterDurable(_) => "CLU-n-D",
            Algo::ClusterReplicated(2) => "CLU-2-R",
            Algo::ClusterReplicated(4) => "CLU-4-R",
            Algo::ClusterReplicated(8) => "CLU-8-R",
            Algo::ClusterReplicated(_) => "CLU-n-R",
            Algo::Ingest(1) => "ING-1",
            Algo::Ingest(2) => "ING-2",
            Algo::Ingest(4) => "ING-4",
            Algo::Ingest(8) => "ING-8",
            Algo::Ingest(_) => "ING-n",
            Algo::IngestShed(4) => "ING-4-SHED",
            Algo::IngestShed(_) => "ING-n-SHED",
        }
    }

    /// The three paper algorithms.
    pub fn paper_set() -> &'static [Algo] {
        &[Algo::Ovh, Algo::Ima, Algo::Gma]
    }

    /// IMA and GMA only (the memory experiments of Fig. 18).
    pub fn memory_set() -> &'static [Algo] {
        &[Algo::Ima, Algo::Gma]
    }

    /// The engine-scaling set: single-threaded GMA against the sharded
    /// engine at 1, 2, 4 and 8 shards.
    pub fn engine_set() -> &'static [Algo] {
        &[
            Algo::Gma,
            Algo::Sharded(1),
            Algo::Sharded(2),
            Algo::Sharded(4),
            Algo::Sharded(8),
        ]
    }

    /// The replica-maintenance set: multi-shard engines only (a single
    /// shard has no halos, a single monitor no replicas).
    pub fn engine_repl_set() -> &'static [Algo] {
        &[Algo::Sharded(2), Algo::Sharded(4), Algo::Sharded(8)]
    }

    /// The tick-path set (arena/heap/sharing counters): the incremental
    /// monitors and the default sharded engine.
    pub fn tickpath_set() -> &'static [Algo] {
        &[Algo::Ima, Algo::Gma, Algo::Sharded(4)]
    }

    /// The rebalance set: the statically partitioned engine against the
    /// load-aware one, at the same shard count, under the same skewed
    /// drifting-hotspot stream.
    pub fn rebalance_set() -> &'static [Algo] {
        &[Algo::Sharded(4), Algo::ShardedRebal(4)]
    }

    /// The cluster set: the in-process engine against the
    /// shard-per-process loopback cluster, same shard count, plus a
    /// smaller cluster for the frames-vs-shards shape.
    pub fn cluster_set() -> &'static [Algo] {
        &[Algo::Sharded(4), Algo::Cluster(2), Algo::Cluster(4)]
    }

    /// The recovery set: the fault-free loopback cluster against the
    /// durable cluster with a crash injected per shard, so the artifact
    /// shows what durability costs (snapshots, WAL) and what recovery
    /// replays (the O(WAL-suffix) bound).
    pub fn recovery_set() -> &'static [Algo] {
        &[
            Algo::Cluster(2),
            Algo::ClusterDurable(2),
            Algo::ClusterDurable(4),
        ]
    }

    /// The replication set: the in-process engines as the oracle
    /// columns against quorum-replicated clusters at the same shard
    /// counts. Every replicated shard's leader is killed mid-run with
    /// stillborn respawns, so each CLU-n-R answer column is served by a
    /// promoted follower for the back half of the run — and must still
    /// match ENG-n's work counters exactly.
    pub fn replication_set() -> &'static [Algo] {
        &[
            Algo::Sharded(2),
            Algo::Sharded(4),
            Algo::ClusterReplicated(2),
            Algo::ClusterReplicated(4),
        ]
    }

    /// The ingest set: the batch-fed engine as the oracle column, the
    /// ingest-fed engine (lossless, blocking admission), and the
    /// shedding engine (tight buffers), all at the same shard count.
    pub fn ingest_set() -> &'static [Algo] {
        &[Algo::Sharded(4), Algo::Ingest(4), Algo::IngestShed(4)]
    }

    /// Whether this algorithm is the sharded engine (and thus reports
    /// replica/resync counters). The cluster qualifies: it *is* the
    /// sharded engine, routed over RPC; so do the ingest-fed engines.
    pub fn is_sharded(self) -> bool {
        matches!(
            self,
            Algo::Sharded(_)
                | Algo::ShardedRebal(_)
                | Algo::Cluster(_)
                | Algo::ClusterDurable(_)
                | Algo::ClusterReplicated(_)
                | Algo::Ingest(_)
                | Algo::IngestShed(_)
        )
    }

    /// Whether this algorithm consumes the raw firehose stream through
    /// the ingest stage rather than pre-built effective batches.
    pub fn is_ingest(self) -> bool {
        matches!(self, Algo::Ingest(_) | Algo::IngestShed(_))
    }
}

/// Measurements for one `(parameter value, algorithm)` cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm.
    pub algo: Algo,
    /// Mean wall-clock processing time per timestamp (seconds).
    pub cpu_per_ts: f64,
    /// Mean deterministic work units per timestamp (see
    /// [`OpCounters::work`]).
    pub work_per_ts: f64,
    /// Resident memory at the end of the run (KBytes, Fig. 18's unit) —
    /// per-algorithm state only (trees, influence lists, tables).
    pub memory_kb: f64,
    /// Active node count (GMA only; the paper reports e.g. "844 active
    /// nodes on average").
    pub active_nodes: Option<usize>,
    /// Mean updates ignored per timestamp.
    pub ignored_per_ts: f64,
    /// Mean query reevaluations per timestamp (NN recomputations forced
    /// by object or edge updates hitting a query's influence region).
    pub reevals_per_ts: f64,
    /// Mean objects touched by replica resync per timestamp (sharded
    /// engine only; 0 for single monitors).
    pub resync_per_ts: f64,
    /// Mean replicas evicted per timestamp (sharded engine only).
    pub evictions_per_ts: f64,
    /// Largest replica-resync cost observed on any single tick (warmup
    /// included). The experiments binary asserts this never exceeds the
    /// object cardinality — the engine's O(changed-edges) guarantee.
    pub max_tick_resync: u64,
    /// Mean tick-path *maintenance* allocation events per measured
    /// timestamp (arena backing-buffer reallocations, Dijkstra heap
    /// growth, tree-pool slab/directory growth). Zero proves the steady
    /// state runs allocation-free — tree surgery included; the experiments
    /// binary asserts this for IMA/GMA on the tickpath figure.
    pub alloc_per_ts: f64,
    /// Mean allocation events per measured timestamp attributable to
    /// installing brand-new monitored entities (query installs, GMA
    /// active-node activations) — expected to be nonzero while the
    /// monitored population is still discovering new anchors, and excluded
    /// from the zero-alloc steady-state guarantee.
    pub install_alloc_per_ts: f64,
    /// Mean expansions served from a shared expansion per timestamp (see
    /// `OpCounters::shared_expansions`).
    pub shared_per_ts: f64,
    /// Mean raw Dijkstra heap pops per timestamp.
    pub steps_per_ts: f64,
    /// Mean expansion-tree nodes recycled through the tree pool's free
    /// list per timestamp — the tree-surgery reuse rate. Together with
    /// `alloc_per_ts` at zero it proves subtree cuts and re-expansion
    /// inserts ran without heap allocation.
    pub recycled_per_ts: f64,
    /// Mean expansion-tree nodes pruned (cuts, θ-prunes, re-roots) per
    /// timestamp — the surgery volume the recycle rate is measured
    /// against.
    pub pruned_per_ts: f64,
    /// Total load-aware rebalances over the measured run (sharded engine
    /// with rebalancing only).
    pub rebalances: u64,
    /// Total partition cells migrated over the measured run.
    pub cells_migrated: u64,
    /// Mean RPC frames moved (sent + received, all shards) per measured
    /// timestamp — 0 for every in-process monitor. Deterministic on a
    /// fault-free loopback transport, so the CI gate pins it: a frame
    /// regression means the delta protocol started shipping more
    /// messages per tick.
    pub frames_per_ts: f64,
    /// Mean RPC payload bytes moved (sent + received) per measured
    /// timestamp — sizes the delta protocol itself.
    pub bytes_per_ts: f64,
    /// Total retransmissions over the whole run, warmup included (retry
    /// storms cluster at startup, so the measured window must not hide
    /// them). Must stay 0 on a fault-free transport.
    pub retries: u64,
    /// Mean max/mean shard-load ratio across the measured ticks (1.0 =
    /// perfectly balanced; 0.0 for monitors that report none). Averaged
    /// rather than sampled at the end: under a drifting hotspot any single
    /// tick catches the rebalancer mid-adaptation, while the mean captures
    /// the sustained balance the migration buys.
    pub load_ratio: f64,
    /// Total crash recoveries over the whole run, warmup included
    /// (injected crashes fire on delivered-frame budgets, often during
    /// installation). 0 for fault-free and in-process monitors.
    pub recoveries: u64,
    /// Mean event frames replayed per crash recovery (0 when nothing
    /// crashed). With snapshots on, this is bounded by the journal
    /// suffix since the last snapshot — the O(WAL-suffix) recovery
    /// bound the CI gate pins; full-history replay would blow it up.
    pub replayed_per_recovery: f64,
    /// Total monitor-state snapshots taken over the run.
    pub snapshots: u64,
    /// Size of the latest durable monitor-state snapshot, KBytes summed
    /// over shards (sizes the snapshot plane against `memory_kb`).
    pub snapshot_kb: f64,
    /// Final coordinator journal length in event frames, summed over
    /// shards. With snapshots every E frames this must stay < E per
    /// shard — the journal-truncation guarantee (it grew without bound
    /// before the durability plane).
    pub journal_len: u64,
    /// Mean frames outstanding-at-commit per measured timestamp on the
    /// replication plane (0 when replication is off). The synchronous
    /// append pipeline commits every replicated event frame with exactly
    /// one frame outstanding, so the rate is a deterministic constant
    /// the CI gate pins: growth means the leader started racing ahead
    /// of its quorum (uncommitted appends piling up behind acks).
    pub commit_lag_frames: f64,
    /// Total follower-to-leader promotions over the whole run, warmup
    /// included (leader kills fire on delivered-frame budgets, often
    /// before the measured window opens).
    pub failovers: u64,
    /// Total replication frames rejected by a replica for carrying a
    /// stale leadership epoch (the fencing path; 0 in a healthy run).
    pub fenced_appends: u64,
    /// Total bytes shipped to follower replicas over the whole run —
    /// append, heartbeat, promote, and snapshot-offer traffic. Sizes
    /// the replication plane against the coordinator's `bytes_per_ts`.
    pub replica_bytes: u64,
    /// Mean superseded submissions folded away by ingest coalescing per
    /// measured timestamp (ingest-fed engines only; 0 elsewhere).
    /// Deterministic for a pinned firehose seed, so the CI gate pins its
    /// ceiling (growth = the fold double-counting) while the ingest
    /// smoke asserts it stays nonzero (a zero = coalescing stopped).
    pub coalesced_per_ts: f64,
    /// Total submissions dropped by `ShedOldest` admission over the
    /// measured window (ingest-fed engines with tight buffers only).
    pub shed_events: u64,
    /// Total ingest-drain allocation events over the measured window —
    /// lane-buffer growth, merge-scratch growth, coalesce-table rehash.
    /// Window-total (not a rate) so the gate holds it at exactly zero:
    /// warmup absorbs the one-off high-water growth, after which the
    /// swap-and-merge drain must run allocation-free.
    pub drain_alloc_events: u64,
}

/// A labelled point of a figure series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// X-axis label (e.g. `"N=10K"` or `"k=25"`).
    pub label: String,
    /// One result per requested algorithm.
    pub results: Vec<RunResult>,
}

fn algo_memory(m: &MemoryUsage) -> f64 {
    // Fig. 18 compares *algorithm state*: query table, expansion trees and
    // influence lists. The shared edge table and scratch space are common
    // to all methods and excluded, as in the paper's discussion.
    (m.query_table + m.expansion_trees + m.influence_lists) as f64 / 1024.0
}

/// Instantiates a monitor for `algo` over `net`.
pub fn make_monitor(
    algo: Algo,
    net: std::sync::Arc<rnn_roadnet::RoadNetwork>,
) -> Box<dyn ContinuousMonitor> {
    match algo {
        Algo::Ovh => Box::new(Ovh::new(net)),
        Algo::Ima => Box::new(Ima::new(net)),
        Algo::Gma => Box::new(Gma::new(net)),
        Algo::ImaNoInfluence => {
            let mut ima = Ima::new(net);
            ima.set_use_influence_lists(false);
            Box::new(ima)
        }
        Algo::Sharded(shards) => Box::new(rnn_engine::ShardedEngine::new(
            net,
            rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1)),
        )),
        Algo::ShardedRebal(shards) => Box::new(rnn_engine::ShardedEngine::new(
            net,
            rnn_engine::EngineConfig::with_rebalancing(usize::from(shards).max(1)),
        )),
        Algo::Cluster(shards) => Box::new(rnn_cluster::ClusterEngine::loopback(
            net,
            rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1)),
        )),
        // Batch-fed fallback: without the ingest drive loop of
        // `run_point` an ingest algo degenerates to the plain sharded
        // engine (same monitor, nothing submitted out-of-band).
        Algo::Ingest(shards) | Algo::IngestShed(shards) => {
            Box::new(rnn_engine::ShardedEngine::new(
                net,
                rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1)),
            ))
        }
        Algo::ClusterDurable(shards) => Box::new(rnn_cluster::ClusterEngine::loopback_durable(
            net,
            rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1)),
            &[rnn_cluster::FaultPlan {
                crash_after_frames: DURABLE_CRASH_AFTER_FRAMES,
                ..Default::default()
            }],
            rnn_cluster::RetryPolicy::default(),
            rnn_cluster::DurabilityConfig::in_memory(DURABLE_SNAPSHOT_EVERY),
        )),
        Algo::ClusterReplicated(shards) => {
            let cfg = rnn_engine::EngineConfig {
                replication: rnn_engine::ReplicationConfig::with_replicas(REPLICATION_FACTOR),
                ..rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1))
            };
            Box::new(rnn_cluster::ClusterEngine::loopback_durable(
                net,
                cfg,
                &[rnn_cluster::FaultPlan {
                    crash_after_frames: REPLICATED_CRASH_AFTER_FRAMES,
                    respawn_dead: true,
                    ..Default::default()
                }],
                rnn_cluster::RetryPolicy::default(),
                rnn_cluster::DurabilityConfig::in_memory(DURABLE_SNAPSHOT_EVERY),
            ))
        }
    }
}

/// A monitor plus the way its update stream reaches it: pre-built
/// batches straight into `tick`, or raw submissions through the MPSC
/// ingest stage drained at tick boundaries.
enum Driven {
    /// Ticked with the effective one-event-per-entity batch.
    Plain(Box<dyn ContinuousMonitor>),
    /// Fed the raw firehose stream through an [`rnn_engine::IngestHandle`]
    /// and ticked with `tick_ingest` (drain + coalesce + tick).
    Ingest {
        engine: Box<rnn_engine::ShardedEngine>,
        handle: rnn_engine::IngestHandle,
    },
}

impl Driven {
    fn monitor(&self) -> &dyn ContinuousMonitor {
        match self {
            Driven::Plain(m) => m.as_ref(),
            Driven::Ingest { engine, .. } => engine.as_ref(),
        }
    }

    fn monitor_mut(&mut self) -> &mut dyn ContinuousMonitor {
        match self {
            Driven::Plain(m) => m.as_mut(),
            Driven::Ingest { engine, .. } => engine.as_mut(),
        }
    }

    fn tick(&mut self, raw: &[UpdateEvent], effective: &UpdateBatch) -> TickReport {
        match self {
            Driven::Plain(m) => m.tick(effective),
            Driven::Ingest { engine, handle } => {
                for &ev in raw {
                    // Block never errors (the bench sizes lanes above the
                    // firehose rate) and ShedOldest absorbs overflow; only
                    // Reject returns Err, and the bench never uses it.
                    handle.submit(ev).expect("bench ingest submission");
                }
                engine.tick_ingest()
            }
        }
    }
}

/// Instantiates the drive path for `algo`: ingest-fed engines get their
/// admission config sized from the workload cardinality (lossless lanes
/// for [`Algo::Ingest`], deliberately tight shedding lanes for
/// [`Algo::IngestShed`]); everything else goes through [`make_monitor`].
fn make_driven(algo: Algo, net: std::sync::Arc<rnn_roadnet::RoadNetwork>, p: &Params) -> Driven {
    let build = |shards: u8, capacity: usize, policy: rnn_engine::AdmissionPolicy| {
        let cfg = rnn_engine::EngineConfig {
            ingest: rnn_engine::IngestConfig {
                capacity,
                policy,
                ..Default::default()
            },
            ..rnn_engine::EngineConfig::with_shards(usize::from(shards).max(1))
        };
        let engine = Box::new(rnn_engine::ShardedEngine::new(net.clone(), cfg));
        let handle = engine.ingest_handle();
        Driven::Ingest { engine, handle }
    };
    match algo {
        // Lossless: per-lane capacity far above the per-tick firehose
        // rate, so blocking admission never actually parks the producer.
        Algo::Ingest(shards) => build(
            shards,
            p.n_objects.max(4096),
            rnn_engine::AdmissionPolicy::Block,
        ),
        // Lossy: per-lane capacity well below the firehose rate, so the
        // drain window overflows every tick and ShedOldest drops the
        // stalest fixes — the shed_events column is the point.
        Algo::IngestShed(shards) => build(
            shards,
            (p.n_objects / 32).max(16),
            rnn_engine::AdmissionPolicy::ShedOldest,
        ),
        _ => Driven::Plain(make_monitor(algo, net)),
    }
}

/// The update feed of one run: the plain per-tick scenario, or the
/// firehose oversampler around it when the point (or an ingest-fed
/// algorithm) asks for raw submissions.
enum Feed {
    Plain(Box<Scenario>, UpdateBatch),
    Fire(Box<Firehose>),
}

impl Feed {
    fn new(net: std::sync::Arc<rnn_roadnet::RoadNetwork>, params: &Params, ingest: bool) -> Self {
        match (params.firehose, ingest) {
            (Some(pattern), _) => Feed::Fire(Box::new(Firehose::new(
                net,
                FirehoseConfig::new(pattern, params.scenario_config()),
            ))),
            // Ingest algos on a non-firehose point still need a raw
            // stream; the commute wave is the least exotic default.
            (None, true) => Feed::Fire(Box::new(Firehose::new(
                net,
                FirehoseConfig::new(FirehosePattern::CommuteWave, params.scenario_config()),
            ))),
            (None, false) => Feed::Plain(
                Box::new(Scenario::new(net, params.scenario_config())),
                UpdateBatch::default(),
            ),
        }
    }

    fn install_into(&self, monitor: &mut dyn ContinuousMonitor) {
        match self {
            Feed::Plain(s, _) => s.install_into(monitor),
            Feed::Fire(f) => f.install_into(monitor),
        }
    }

    /// Advances one timestamp; returns `(raw, effective)`. The raw view
    /// is empty for plain feeds (no ingest consumer asked for one).
    fn tick(&mut self) -> (&[UpdateEvent], &UpdateBatch) {
        match self {
            Feed::Plain(s, slot) => {
                *slot = s.tick();
                (&[], slot)
            }
            Feed::Fire(f) => {
                let t = f.tick();
                (t.raw, t.effective)
            }
        }
    }
}

/// Renders a series as a machine-readable JSON document (hand-rolled — the
/// vendored serde stub has no serializer) so downstream tooling can track
/// the perf trajectory across PRs.
pub fn series_to_json(figure: &str, series: &[SeriesPoint]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{}\",\n", esc(figure)));
    out.push_str("  \"points\": [\n");
    for (i, p) in series.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", esc(&p.label)));
        out.push_str("      \"results\": [\n");
        for (j, r) in p.results.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"algo\": \"{}\", \"cpu_per_ts\": {:.9}, \"work_per_ts\": {:.1}, \
                 \"memory_kb\": {:.1}, \"ignored_per_ts\": {:.1}, \
                 \"reevals_per_ts\": {:.1}, \"resync_per_ts\": {:.1}, \
                 \"evictions_per_ts\": {:.1}, \"max_tick_resync\": {}, \
                 \"alloc_per_ts\": {:.3}, \"install_alloc_per_ts\": {:.3}, \
                 \"shared_per_ts\": {:.3}, \
                 \"steps_per_ts\": {:.1}, \"recycled_per_ts\": {:.1}, \
                 \"pruned_per_ts\": {:.1}, \"frames_per_ts\": {:.1}, \
                 \"bytes_per_ts\": {:.1}, \"retries\": {}, \"rebalances\": {}, \
                 \"cells_migrated\": {}, \"load_ratio\": {:.3}, \
                 \"recoveries\": {}, \"replayed_per_recovery\": {:.1}, \
                 \"snapshots\": {}, \"snapshot_kb\": {:.1}, \
                 \"journal_len\": {}, \"commit_lag_frames\": {:.3}, \
                 \"failovers\": {}, \"fenced_appends\": {}, \
                 \"replica_bytes\": {}, \"coalesced_per_ts\": {:.3}, \
                 \"shed_events\": {}, \"drain_alloc_events\": {}}}{}\n",
                esc(r.algo.name()),
                r.cpu_per_ts,
                r.work_per_ts,
                r.memory_kb,
                r.ignored_per_ts,
                r.reevals_per_ts,
                r.resync_per_ts,
                r.evictions_per_ts,
                r.max_tick_resync,
                r.alloc_per_ts,
                r.install_alloc_per_ts,
                r.shared_per_ts,
                r.steps_per_ts,
                r.recycled_per_ts,
                r.pruned_per_ts,
                r.frames_per_ts,
                r.bytes_per_ts,
                r.retries,
                r.rebalances,
                r.cells_migrated,
                r.load_ratio,
                r.recoveries,
                r.replayed_per_recovery,
                r.snapshots,
                r.snapshot_kb,
                r.journal_len,
                r.commit_lag_frames,
                r.failovers,
                r.fenced_appends,
                r.replica_bytes,
                r.coalesced_per_ts,
                r.shed_events,
                r.drain_alloc_events,
                if j + 1 < p.results.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs one parameter point for the given algorithms.
///
/// All monitors consume the **same** update stream. Each is timed on its
/// own `tick` calls only; `warmup` leading timestamps are excluded from the
/// averages (the first ticks pay one-off allocation costs).
pub fn run_point(
    params: &Params,
    algos: &[Algo],
    timestamps: usize,
    warmup: usize,
) -> Vec<RunResult> {
    let net = params.build_network();
    let any_ingest = algos.iter().any(|a| a.is_ingest());
    let mut feed = Feed::new(net.clone(), params, any_ingest);

    let mut monitors: Vec<(Algo, Driven)> = algos
        .iter()
        .map(|&a| (a, make_driven(a, net.clone(), params)))
        .collect();
    for (_, m) in &mut monitors {
        feed.install_into(m.monitor_mut());
    }

    let mut elapsed = vec![Duration::ZERO; monitors.len()];
    let mut counters = vec![OpCounters::default(); monitors.len()];
    // Whole-run totals (warmup included): rebalances cluster in the first
    // ticks of a skewed run, so the migration counters must not lose them.
    let mut total_counters = vec![OpCounters::default(); monitors.len()];
    let mut max_tick_resync = vec![0u64; monitors.len()];
    let mut ratio_sum = vec![0.0f64; monitors.len()];
    let mut ratio_count = vec![0u32; monitors.len()];
    // Transport counters at the start of the measured window: the
    // install phase and the warmup ticks ship frames too, and the
    // per-timestamp rates must exclude them (like the timings do).
    let mut net_base: Vec<TransportStats> = monitors
        .iter()
        .map(|(_, m)| m.monitor().transport_stats().unwrap_or_default())
        .collect();
    let measured = timestamps.saturating_sub(warmup).max(1);
    for t in 0..timestamps {
        let (raw, effective) = feed.tick();
        for (i, (_, m)) in monitors.iter_mut().enumerate() {
            let rep = m.tick(raw, effective);
            max_tick_resync[i] = max_tick_resync[i].max(rep.counters.resync_touched);
            total_counters[i].merge(&rep.counters);
            if t + 1 == warmup {
                if let Some(s) = m.monitor().transport_stats() {
                    net_base[i] = s;
                }
            }
            if t >= warmup {
                elapsed[i] += rep.elapsed;
                counters[i].merge(&rep.counters);
                if let Some(r) = m.monitor().shard_load_ratio() {
                    ratio_sum[i] += r;
                    ratio_count[i] += 1;
                }
            }
        }
    }

    monitors
        .iter()
        .enumerate()
        .map(|(i, (a, m))| {
            let m = m.monitor();
            // Capture the transport delta before `memory()`, which ships
            // its own request/reply pair per shard.
            let final_stats = m.transport_stats();
            let (frames, bytes, retries) = match &final_stats {
                Some(s) => (
                    (s.frames_sent + s.frames_received)
                        .saturating_sub(net_base[i].frames_sent + net_base[i].frames_received),
                    (s.bytes_sent + s.bytes_received)
                        .saturating_sub(net_base[i].bytes_sent + net_base[i].bytes_received),
                    s.retries,
                ),
                None => (0, 0, 0),
            };
            // Durability totals are whole-run (crashes fire on delivered-
            // frame budgets, usually before the measured window opens).
            let dur = final_stats.unwrap_or_default();
            let mem = m.memory();
            let active = m.active_groups();
            RunResult {
                algo: *a,
                cpu_per_ts: elapsed[i].as_secs_f64() / measured as f64,
                work_per_ts: counters[i].work() as f64 / measured as f64,
                memory_kb: algo_memory(&mem),
                active_nodes: active,
                ignored_per_ts: counters[i].updates_ignored as f64 / measured as f64,
                reevals_per_ts: counters[i].reevaluations as f64 / measured as f64,
                resync_per_ts: counters[i].resync_touched as f64 / measured as f64,
                evictions_per_ts: counters[i].replica_evictions as f64 / measured as f64,
                max_tick_resync: max_tick_resync[i],
                alloc_per_ts: counters[i].alloc_events as f64 / measured as f64,
                install_alloc_per_ts: counters[i].install_alloc_events as f64 / measured as f64,
                shared_per_ts: counters[i].shared_expansions as f64 / measured as f64,
                steps_per_ts: counters[i].expansion_steps as f64 / measured as f64,
                recycled_per_ts: counters[i].tree_nodes_recycled as f64 / measured as f64,
                pruned_per_ts: counters[i].tree_nodes_pruned as f64 / measured as f64,
                frames_per_ts: frames as f64 / measured as f64,
                bytes_per_ts: bytes as f64 / measured as f64,
                retries,
                rebalances: total_counters[i].rebalance_events,
                cells_migrated: total_counters[i].cells_migrated,
                load_ratio: if ratio_count[i] > 0 {
                    ratio_sum[i] / f64::from(ratio_count[i])
                } else {
                    0.0
                },
                recoveries: dur.crash_recoveries,
                replayed_per_recovery: if dur.crash_recoveries > 0 {
                    dur.frames_replayed as f64 / dur.crash_recoveries as f64
                } else {
                    0.0
                },
                snapshots: dur.snapshots,
                snapshot_kb: dur.snapshot_bytes as f64 / 1024.0,
                journal_len: dur.journal_len,
                commit_lag_frames: dur
                    .commit_lag_frames
                    .saturating_sub(net_base[i].commit_lag_frames)
                    as f64
                    / measured as f64,
                failovers: dur.failovers,
                fenced_appends: dur.fenced_appends,
                replica_bytes: dur.replica_bytes,
                coalesced_per_ts: counters[i].coalesced_superseded as f64 / measured as f64,
                shed_events: counters[i].shed_events,
                drain_alloc_events: counters[i].drain_alloc_events,
            }
        })
        .collect()
}

/// Runs a whole series (one figure): `points` are `(label, Params)` pairs.
/// With `parallel`, independent points run on worker threads (faster, but
/// wall-clock timings become noisier — intended for shape checks, not for
/// reporting).
pub fn run_series(
    points: &[(String, Params)],
    algos: &[Algo],
    timestamps: usize,
    warmup: usize,
    parallel: bool,
) -> Vec<SeriesPoint> {
    if parallel {
        let mut out: Vec<Option<SeriesPoint>> = vec![None; points.len()];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, (label, p)) in points.iter().enumerate() {
                handles.push((
                    i,
                    scope.spawn(move || SeriesPoint {
                        label: label.clone(),
                        results: run_point(p, algos, timestamps, warmup),
                    }),
                ));
            }
            for (i, h) in handles {
                out[i] = Some(h.join().expect("experiment thread panicked"));
            }
        });
        out.into_iter()
            .map(|o| o.expect("all points filled"))
            .collect()
    } else {
        points
            .iter()
            .map(|(label, p)| SeriesPoint {
                label: label.clone(),
                results: run_point(p, algos, timestamps, warmup),
            })
            .collect()
    }
}

/// Formats a series as an aligned text table (one row per point, one column
/// group per algorithm).
pub fn format_series(title: &str, series: &[SeriesPoint], show_memory: bool) -> String {
    let mut out = format!("## {title}\n");
    if series.is_empty() {
        return out;
    }
    let algos: Vec<Algo> = series[0].results.iter().map(|r| r.algo).collect();
    out.push_str(&format!("{:<16}", "param"));
    for a in &algos {
        if show_memory {
            out.push_str(&format!("{:>14}", format!("{} KB", a.name())));
        } else {
            out.push_str(&format!("{:>14}", format!("{} s/ts", a.name())));
            out.push_str(&format!("{:>14}", format!("{} work", a.name())));
        }
    }
    out.push('\n');
    for p in series {
        out.push_str(&format!("{:<16}", p.label));
        for r in &p.results {
            if show_memory {
                out.push_str(&format!("{:>14.1}", r.memory_kb));
            } else {
                out.push_str(&format!("{:>14.6}", r.cpu_per_ts));
                out.push_str(&format!("{:>14.0}", r.work_per_ts));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            edges: 150,
            n_objects: 300,
            n_queries: 15,
            k: 4,
            ..Params::default()
        }
    }

    #[test]
    fn run_point_produces_results_for_all_algos() {
        let rs = run_point(&tiny(), Algo::paper_set(), 4, 1);
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert!(r.cpu_per_ts >= 0.0);
            assert!(r.work_per_ts > 0.0, "{:?} did no work", r.algo);
            assert!(r.memory_kb > 0.0);
        }
    }

    #[test]
    fn incremental_beats_overhaul_on_work() {
        // The headline claim: IMA and GMA do less deterministic work per
        // timestamp than recomputing everything from scratch.
        let rs = run_point(&tiny(), Algo::paper_set(), 6, 2);
        let by = |a: Algo| rs.iter().find(|r| r.algo == a).unwrap().work_per_ts;
        assert!(
            by(Algo::Ima) < by(Algo::Ovh),
            "IMA {} !< OVH {}",
            by(Algo::Ima),
            by(Algo::Ovh)
        );
        assert!(
            by(Algo::Gma) < by(Algo::Ovh),
            "GMA {} !< OVH {}",
            by(Algo::Gma),
            by(Algo::Ovh)
        );
    }

    #[test]
    fn influence_list_ablation_ignores_nothing() {
        let rs = run_point(&tiny(), &[Algo::Ima, Algo::ImaNoInfluence], 4, 1);
        let ima = &rs[0];
        let abl = &rs[1];
        assert!(ima.ignored_per_ts > 0.0, "IMA should ignore some updates");
        assert_eq!(abl.ignored_per_ts, 0.0, "the ablation processes everything");
        assert!(abl.work_per_ts >= ima.work_per_ts);
    }

    #[test]
    fn series_runs_and_formats() {
        let pts = vec![
            ("a".to_string(), tiny()),
            (
                "b".to_string(),
                Params {
                    n_objects: 600,
                    ..tiny()
                },
            ),
        ];
        let series = run_series(&pts, &[Algo::Ima], 3, 1, false);
        let txt = format_series("Test", &series, false);
        assert!(txt.contains("IMA s/ts"));
        assert!(txt.lines().count() >= 4);
    }

    #[test]
    fn parallel_series_matches_labels() {
        let pts = vec![("x".to_string(), tiny()), ("y".to_string(), tiny())];
        let series = run_series(&pts, &[Algo::Gma], 2, 0, true);
        assert_eq!(series[0].label, "x");
        assert_eq!(series[1].label, "y");
    }

    #[test]
    fn sharded_engine_runs_as_an_algo() {
        let rs = run_point(&tiny(), &[Algo::Gma, Algo::Sharded(2)], 3, 1);
        assert_eq!(rs.len(), 2);
        let eng = &rs[1];
        assert_eq!(eng.algo.name(), "ENG-2");
        assert!(eng.work_per_ts > 0.0, "engine did no work");
        assert!(eng.memory_kb > 0.0);
    }

    #[test]
    fn replica_counters_only_from_sharded_engine() {
        let p = Params {
            query_agility: 0.3,
            ..tiny()
        };
        let rs = run_point(&p, &[Algo::Gma, Algo::Sharded(2)], 5, 1);
        let gma = &rs[0];
        assert_eq!(gma.resync_per_ts, 0.0, "single monitors never resync");
        assert_eq!(gma.evictions_per_ts, 0.0);
        assert_eq!(gma.max_tick_resync, 0);
        let eng = &rs[1];
        assert!(
            eng.max_tick_resync <= p.n_objects as u64,
            "a tick resynced {} of {} objects",
            eng.max_tick_resync,
            p.n_objects
        );
    }

    #[test]
    fn cluster_matches_in_process_work_and_moves_frames() {
        let rs = run_point(&tiny(), &[Algo::Sharded(2), Algo::Cluster(2)], 4, 1);
        let eng = &rs[0];
        let clu = &rs[1];
        assert_eq!(clu.algo.name(), "CLU-2");
        assert_eq!(
            clu.work_per_ts, eng.work_per_ts,
            "the RPC layer changed the deterministic work"
        );
        assert_eq!(clu.resync_per_ts, eng.resync_per_ts);
        assert!(clu.frames_per_ts > 0.0, "the cluster moved no frames");
        assert!(clu.bytes_per_ts > 0.0);
        assert_eq!(clu.retries, 0, "fault-free loopback must not retry");
        assert_eq!(
            eng.frames_per_ts, 0.0,
            "in-process engines have no transport"
        );
    }

    #[test]
    fn replicated_cluster_fails_over_and_matches_engine_work() {
        // Enough timestamps that every shard's delivered-frame budget
        // ([`REPLICATED_CRASH_AFTER_FRAMES`]) is exhausted mid-run, so
        // each CLU-2-R shard is served by a promoted follower at the
        // end — and the event-coupled counter columns still match the
        // in-process engine. Tree-shape-coupled work counters may
        // legitimately differ after a snapshot restore, and
        // `updates_ignored` inherits a borderline-θ wobble from the
        // recomputed expansion trees (same as the CLU-n-D recovery
        // path), so it gets a 1% band while resync/evictions are exact.
        let rs = run_point(
            &tiny(),
            &[Algo::Sharded(2), Algo::ClusterReplicated(2)],
            40,
            2,
        );
        let eng = &rs[0];
        let clu = &rs[1];
        assert_eq!(clu.algo.name(), "CLU-2-R");
        assert_eq!(
            (clu.resync_per_ts, clu.evictions_per_ts),
            (eng.resync_per_ts, eng.evictions_per_ts),
            "failover changed a restore-stable counter"
        );
        assert!(
            (clu.ignored_per_ts - eng.ignored_per_ts).abs() <= eng.ignored_per_ts * 0.01,
            "ignored drifted past the borderline-θ band: {} vs {}",
            clu.ignored_per_ts,
            eng.ignored_per_ts
        );
        assert!(clu.failovers >= 1, "no leader kill fired: {clu:?}");
        assert_eq!(clu.fenced_appends, 0, "healthy run must not fence");
        assert!(clu.replica_bytes > 0, "no bytes reached the followers");
        assert!(clu.commit_lag_frames > 0.0, "no append ever committed");
        assert_eq!(eng.failovers, 0);
        assert_eq!(eng.replica_bytes, 0);
    }

    #[test]
    fn ingest_fed_engine_coalesces_and_sheds() {
        let p = Params {
            firehose: Some(FirehosePattern::FlashCrowd),
            // Enough movers that the tight ING-4-SHED lanes overflow
            // every tick regardless of how the id hash splits them.
            object_agility: 0.5,
            ..tiny()
        };
        let rs = run_point(&p, Algo::ingest_set(), 5, 2);
        let by = |name: &str| rs.iter().find(|r| r.algo.name() == name).unwrap();
        let eng = by("ENG-4");
        let ing = by("ING-4");
        let shed = by("ING-4-SHED");
        assert_eq!(
            eng.coalesced_per_ts, 0.0,
            "batch-fed engines never coalesce"
        );
        assert_eq!(eng.shed_events, 0);
        assert!(
            ing.coalesced_per_ts > 0.0,
            "the flash crowd's redundant fixes must be folded at the drain"
        );
        assert_eq!(ing.shed_events, 0, "lossless lanes must not shed");
        assert!(
            shed.shed_events > 0,
            "tight ShedOldest lanes must drop submissions"
        );
        assert!(ing.work_per_ts > 0.0);
    }

    #[test]
    fn json_series_is_well_formed() {
        let pts = vec![("p\"1".to_string(), tiny())];
        let series = run_series(&pts, &[Algo::Gma, Algo::Sharded(1)], 2, 0, false);
        let json = series_to_json("engine", &series);
        assert!(json.contains("\"figure\": \"engine\""));
        assert!(json.contains("\"algo\": \"ENG-1\""));
        assert!(json.contains("p\\\"1"), "labels must be escaped");
        // Structural sanity: balanced braces/brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
