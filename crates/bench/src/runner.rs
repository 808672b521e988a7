//! Drives the monitors over identical update streams and collects the
//! measurements the paper reports: CPU time per timestamp (the y-axis of
//! Figs. 13–17 and 19), memory in KBytes (Fig. 18), plus deterministic
//! operation counters (machine-independent shape validation; DESIGN.md
//! substitution #3).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use rnn_cluster::{ClusterEngine, DurabilityConfig, FaultPlan, RetryPolicy};
use rnn_core::{
    ContinuousMonitor, Gma, Ima, OpCounters, Ovh, TickReport, TransportStats, UpdateBatch,
    UpdateEvent,
};
use rnn_engine::{AdmissionPolicy, EngineConfig, IngestConfig, ReplicationConfig, ShardedEngine};
use rnn_roadnet::RoadNetwork;
use rnn_workload::{Firehose, FirehoseConfig, FirehosePattern, Scenario};

use crate::params::Params;

/// How an engine's coordinator reaches its shards, and the fault the
/// harness injects on the way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// Worker threads in the coordinator's process (`rnn-engine`), fed the
    /// way the [`Ingest`] says — the ingest stage exists only here, so an
    /// ingest-fed cluster row cannot be written down.
    InProcess(Ingest),
    /// Shard-per-process over fault-free loopback RPC (`rnn-cluster`).
    /// Work counters are bit-identical to [`Link::InProcess`]; the CPU
    /// delta is the framing/serialisation cost of the delta protocol.
    Loopback,
    /// Loopback with the durability plane on and a crash injected: every
    /// shard snapshots its monitor state each [`DURABLE_SNAPSHOT_EVERY`]
    /// journaled event frames, its transport kills the service after
    /// [`CRASH_AFTER_FRAMES`] delivered frames, and recovery rebuilds from
    /// snapshot + journal suffix. Sizes crash recovery:
    /// recoveries, frames replayed per recovery (the O(WAL-suffix) bound
    /// the recovery figure checks), snapshot bytes.
    Durable,
    /// [`Link::Durable`] with replication on and a leader kill
    /// injected: every shard streams its event frames to
    /// [`REPLICATION_FACTOR`] follower replicas, its
    /// transport kills the service after [`CRASH_AFTER_FRAMES`] delivered
    /// frames, and respawns are stillborn — so the recovery budget burns
    /// down and a follower is *promoted*, serving the back half of the
    /// run. Work counters stay bit-identical to [`Link::InProcess`]
    /// through the failover; the commit-lag and replica-byte columns size
    /// the replication plane.
    Replicated,
}

/// How the update stream reaches an in-process engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// Pre-built effective batches straight into `tick`.
    Batch,
    /// The raw oversampled firehose stream submitted event by event
    /// through the MPSC ingest stage (`rnn_engine::ingest`) and coalesced
    /// at the tick-boundary drain; blocking admission, the hub sized so
    /// nothing sheds. Wants a [`Params::firehose`] pattern.
    Lossless,
    /// The same under deliberately tight admission: a hub bound well
    /// below the firehose rate with
    /// [`rnn_engine::AdmissionPolicy::ShedOldest`], so the shed counter
    /// shows what bounded-queue backpressure drops.
    Shedding,
}

/// Snapshot cadence of [`Link::Durable`] and [`Link::Replicated`], in
/// journaled event frames. Pinned so the recovery artifact is
/// deterministic; the replayed-per-recovery bound asserted by the
/// recovery smoke is this plus the in-flight frame. Three, because a run
/// journals one event frame per shard per timestamp (the tick's batch; a
/// resync round now and then) and the population is one more — 8 over
/// the CI smokes' 7 ticks — so every shard has a snapshot and a suffix
/// behind it when [`CRASH_AFTER_FRAMES`] comes.
pub const DURABLE_SNAPSHOT_EVERY: u32 = 3;

/// Delivered-frame budget after which each [`Link::Durable`] and
/// [`Link::Replicated`] shard's transport kills its service. What a shard
/// is delivered is its event frames plus a snapshot request after every
/// [`DURABLE_SNAPSHOT_EVERY`]-th, so six is: the population, two ticks,
/// the first snapshot request, two more ticks — and the crash is found
/// on the next tick, mid-run at every gated sweep point and at every
/// shard count (each timestamp reaches every shard). A durable shard
/// then recovers from that snapshot plus a two-frame suffix and the
/// frame in flight, exactly once; a replicated one, its respawns
/// stillborn, exhausts snapshot+replay recovery and promotes a follower
/// — one failover per shard per run.
pub const CRASH_AFTER_FRAMES: u32 = 6;

/// Follower replicas per shard for [`Link::Replicated`] (via
/// `ReplicationConfig::with_replicas`). Two, so the log still has a live
/// follower after one is promoted.
pub const REPLICATION_FACTOR: u32 = 2;

/// What one row of a figure runs: a monitor, or the engine and the layers
/// switched on over it.
#[derive(Clone, Copy, Debug)]
pub enum Stack {
    /// A single-threaded monitor by itself: its display name (the row's
    /// `algo`) and how it is built.
    Bare(
        &'static str,
        fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>,
    ),
    /// The sharded engine, its default shard monitor (GMA) in every shard.
    Engine {
        /// Shards of the engine.
        shards: u8,
        /// Dynamic load-aware re-partitioning
        /// (`EngineConfig::with_rebalancing`).
        rebalancing: bool,
        /// How the engine's coordinator reaches its shards.
        link: Link,
    },
}

impl Stack {
    /// The from-scratch baseline (§6).
    pub const OVH: Stack = Stack::Bare("OVH", |net| Box::new(Ovh::new(net)));
    /// Incremental monitoring (§4).
    pub const IMA: Stack = Stack::Bare("IMA", |net| Box::new(Ima::new(net)));
    /// Group monitoring (§5).
    pub const GMA: Stack = Stack::Bare("GMA", |net| Box::new(Gma::new(net)));
    /// Ablation: IMA with influence lists disabled (every update hits
    /// every query). Quantifies the paper's "ignore irrelevant updates"
    /// claim.
    pub const IMA_NO_IL: Stack = Stack::Bare("IMA-noIL", |net| {
        let mut ima = Ima::new(net);
        ima.set_use_influence_lists(false);
        Box::new(ima)
    });

    /// The statically partitioned, batch-fed, in-process engine with this
    /// many shards — `ENG-n`, the row the other layers are switched on
    /// over.
    pub const fn engine(shards: u8) -> Stack {
        Stack::over(Link::InProcess(Ingest::Batch), shards)
    }

    /// The statically partitioned engine with its shards behind `link`.
    pub const fn over(link: Link, shards: u8) -> Stack {
        Stack::Engine {
            shards,
            rebalancing: false,
            link,
        }
    }

    /// How updates reach the row: only an in-process engine has an ingest
    /// stage to be fed through.
    pub fn ingest(&self) -> Ingest {
        match *self {
            Stack::Engine {
                link: Link::InProcess(ingest),
                ..
            } => ingest,
            _ => Ingest::Batch,
        }
    }

    /// The three paper algorithms.
    pub const PAPER_SET: &'static [Stack] = &[Self::OVH, Self::IMA, Self::GMA];

    /// IMA and GMA only (the memory experiments of Fig. 18).
    pub const MEMORY_SET: &'static [Stack] = &[Self::IMA, Self::GMA];

    /// IMA with and without its influence lists.
    pub const ABLATION_SET: &'static [Stack] = &[Self::IMA, Self::IMA_NO_IL];

    /// The engine-scaling set: single-threaded GMA against the sharded
    /// engine at 1, 2, 4 and 8 shards.
    pub const ENGINE_SET: &'static [Stack] = &[
        Self::GMA,
        Self::engine(1),
        Self::engine(2),
        Self::engine(4),
        Self::engine(8),
    ];

    /// The replica-maintenance set: multi-shard engines only (a single
    /// shard has no halos, a single monitor no replicas).
    pub const ENGINE_REPL_SET: &'static [Stack] =
        &[Self::engine(2), Self::engine(4), Self::engine(8)];

    /// The tick-path set (arena/heap/sharing counters): the incremental
    /// monitors and the default sharded engine.
    pub const TICKPATH_SET: &'static [Stack] = &[Self::IMA, Self::GMA, Self::engine(4)];

    /// The rebalance set: the statically partitioned engine against the
    /// load-aware one, at the same shard count, under the same skewed
    /// drifting-hotspot stream.
    pub const REBALANCE_SET: &'static [Stack] = &[
        Self::engine(4),
        Stack::Engine {
            shards: 4,
            rebalancing: true,
            link: Link::InProcess(Ingest::Batch),
        },
    ];

    /// The cluster set: the in-process engine against the
    /// shard-per-process loopback cluster, same shard count, plus a
    /// smaller cluster for the frames-vs-shards shape.
    pub const CLUSTER_SET: &'static [Stack] = &[
        Self::engine(4),
        Self::over(Link::Loopback, 2),
        Self::over(Link::Loopback, 4),
    ];

    /// The recovery set: the fault-free loopback cluster against the
    /// durable cluster with a crash injected per shard, so the artifact
    /// shows what durability costs (snapshots, WAL) and what recovery
    /// replays (the O(WAL-suffix) bound).
    pub const RECOVERY_SET: &'static [Stack] = &[
        Self::over(Link::Loopback, 2),
        Self::over(Link::Durable, 2),
        Self::over(Link::Durable, 4),
    ];

    /// The replication set: the in-process engines as the oracle
    /// columns against replicated clusters at the same shard
    /// counts. Every replicated shard's leader is killed mid-run with
    /// stillborn respawns, so each CLU-n-R answer column is served by a
    /// promoted follower for the back half of the run — and must still
    /// match ENG-n's work counters exactly.
    pub const REPLICATION_SET: &'static [Stack] = &[
        Self::engine(2),
        Self::engine(4),
        Self::over(Link::Replicated, 2),
        Self::over(Link::Replicated, 4),
    ];

    /// The ingest set: the batch-fed engine as the oracle column, the
    /// ingest-fed engine (lossless, blocking admission), and the
    /// shedding engine (tight buffers), all at the same shard count.
    pub const INGEST_SET: &'static [Stack] = &[
        Self::engine(4),
        Self::over(Link::InProcess(Ingest::Lossless), 4),
        Self::over(Link::InProcess(Ingest::Shedding), 4),
    ];

    /// Display name, computed from the layers: the monitor's own for a
    /// bare monitor, else `ENG|CLU|ING-<shards>` and a suffix per layer
    /// that is on (`ENG-4-RB`, `CLU-2-D`, `CLU-4-R`, `ING-4-SHED`).
    pub fn name(&self) -> String {
        let (shards, rebalancing, link) = match *self {
            Stack::Bare(name, _) => return name.to_string(),
            Stack::Engine {
                shards,
                rebalancing,
                link,
            } => (shards, rebalancing, link),
        };
        let kind = match link {
            Link::InProcess(Ingest::Batch) => "ENG",
            Link::InProcess(_) => "ING",
            _ => "CLU",
        };
        let layers = [
            (rebalancing, "-RB"),
            (link == Link::Durable, "-D"),
            (link == Link::Replicated, "-R"),
            (link == Link::InProcess(Ingest::Shedding), "-SHED"),
        ];
        let on = layers.iter().filter(|(on, _)| *on);
        let suffixes: String = on.map(|(_, suffix)| *suffix).collect();
        format!("{kind}-{shards}{suffixes}")
    }

    /// Builds the stack over `net` — the one place its layers are
    /// switched on. `p` sizes the ingest hub.
    fn build(self, net: Arc<RoadNetwork>, p: &Params) -> Driven {
        let (shards, rebalancing, link) = match self {
            Stack::Bare(_, make) => return Driven::Plain(make(net)),
            Stack::Engine {
                shards,
                rebalancing,
                link,
            } => (usize::from(shards), rebalancing, link),
        };
        let mut cfg = if rebalancing {
            EngineConfig::with_rebalancing(shards)
        } else {
            EngineConfig::with_shards(shards)
        };
        let crash = |respawn_dead| {
            let fault = FaultPlan {
                crash_after_frames: CRASH_AFTER_FRAMES,
                respawn_dead,
                ..Default::default()
            };
            (fault, DurabilityConfig::in_memory(DURABLE_SNAPSHOT_EVERY))
        };
        let (fault, durability) = match link {
            Link::InProcess(ingest) => {
                let hub = match ingest {
                    Ingest::Batch => None,
                    // Far above the per-tick firehose rate, so blocking
                    // admission never actually parks the producer (`4 ×`
                    // keeps the room of the four-lane hub the rows were
                    // first recorded with).
                    Ingest::Lossless => Some((4 * p.n_objects.max(4096), AdmissionPolicy::Block)),
                    // Well below the firehose rate, so the drain window
                    // overflows every tick and ShedOldest drops the
                    // stalest fixes — the shed_events column is the point.
                    // `3 ×`, not `4 ×`: with the four-lane room the flash
                    // crowd fits the hub and never sheds.
                    Ingest::Shedding => {
                        Some((3 * (p.n_objects / 32).max(16), AdmissionPolicy::ShedOldest))
                    }
                };
                let Some((capacity, policy)) = hub else {
                    return Driven::Plain(Box::new(ShardedEngine::new(net, cfg)));
                };
                cfg.ingest = IngestConfig { capacity, policy };
                return Driven::Ingest(Box::new(ShardedEngine::new(net, cfg)));
            }
            Link::Loopback => (FaultPlan::default(), DurabilityConfig::default()),
            Link::Durable => crash(false),
            Link::Replicated => {
                cfg.replication = ReplicationConfig::with_replicas(REPLICATION_FACTOR);
                crash(true)
            }
        };
        Driven::Plain(Box::new(ClusterEngine::loopback_durable(
            net,
            cfg,
            &[fault],
            RetryPolicy::default(),
            durability,
        )))
    }
}

/// A monitor plus the way its update stream reaches it: pre-built
/// batches straight into `tick`, or raw submissions through the MPSC
/// ingest stage drained at tick boundaries.
enum Driven {
    /// Ticked with the effective one-event-per-entity batch.
    Plain(Box<dyn ContinuousMonitor>),
    /// Fed the raw firehose stream through its ingest handle and ticked
    /// with `tick_ingest` (drain + coalesce + tick).
    Ingest(Box<ShardedEngine>),
}

impl Driven {
    fn monitor(&mut self) -> &mut dyn ContinuousMonitor {
        match self {
            Driven::Plain(m) => m.as_mut(),
            Driven::Ingest(engine) => engine.as_mut(),
        }
    }

    fn tick(&mut self, raw: &[UpdateEvent], effective: &UpdateBatch) -> TickReport {
        match self {
            Driven::Plain(m) => m.tick(effective),
            Driven::Ingest(engine) => {
                let handle = engine.ingest_handle();
                for &ev in raw {
                    // Neither policy refuses for room (Block parks, and the
                    // bench sizes the hub above the firehose rate;
                    // ShedOldest absorbs overflow), and every firehose event
                    // fits the network, so a submission never errs.
                    handle.submit(ev).expect("bench ingest submission");
                }
                engine.tick_ingest()
            }
        }
    }
}

/// Measurements for one `(parameter value, stack)` cell: the counter
/// structs as the run produced them plus the few values that are not
/// counters. [`COLUMNS`] says how each is reported.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// What ran.
    pub stack: Stack,
    /// Wall-clock processing time summed over the measured timestamps.
    pub elapsed: Duration,
    /// Measured timestamps (the run's length minus its warm-up).
    pub measured: usize,
    /// Work counters summed over the measured timestamps.
    pub window: OpCounters,
    /// Work counters summed over the whole run, warm-up included:
    /// rebalances cluster in the first ticks of a skewed run, so the
    /// migration counters must not lose them.
    pub whole_run: OpCounters,
    /// What the transport counters moved during the measured timestamps.
    /// The install phase and the warm-up ticks ship frames too, and the
    /// per-timestamp rates must exclude them (like the timings do).
    pub net_window: TransportStats,
    /// The transport counters at the end of the run, since construction:
    /// injected crashes and retry storms fire on delivered-frame budgets,
    /// usually before the measured window opens. All zero for in-process
    /// monitors.
    pub net_final: TransportStats,
    /// Resident memory at the end of the run (KBytes, Fig. 18's unit) —
    /// per-algorithm state only (trees, influence lists, tables).
    pub memory_kb: f64,
    /// Active node count (GMA only; the paper reports e.g. "844 active
    /// nodes on average").
    pub active_nodes: Option<usize>,
    /// Mean max/mean shard-load ratio across the measured ticks (1.0 =
    /// perfectly balanced; 0.0 for monitors that report none). Averaged
    /// rather than sampled at the end: under a drifting hotspot any single
    /// tick catches the rebalancer mid-adaptation, while the mean captures
    /// the sustained balance the migration buys.
    pub load_ratio: f64,
    /// Largest replica-resync cost observed on any single tick (warmup
    /// included). The experiments binary asserts this never exceeds the
    /// object cardinality — the engine's O(changed-edges) guarantee.
    pub max_tick_resync: u64,
}

/// What a column reports for one result: the value, and the decimals it
/// prints with (`None` prints an integer count).
pub type Cell = (f64, Option<usize>);

fn count(n: u64) -> Cell {
    (n as f64, None)
}

impl RunResult {
    /// The value reported under the JSON key `key` of [`COLUMNS`].
    pub fn get(&self, key: &str) -> f64 {
        let column = COLUMNS.iter().find(|c| c.key == key);
        (column
            .unwrap_or_else(|| panic!("no bench column `{key}`"))
            .cell)(self)
        .0
    }

    /// A total over the measured window as its mean per measured
    /// timestamp.
    fn per_ts(&self, total: u64, decimals: usize) -> Cell {
        (total as f64 / self.measured as f64, Some(decimals))
    }
}

/// One column of the bench row: a key of every `BENCH_*.json` result.
pub struct Column {
    /// JSON key.
    pub key: &'static str,
    /// Which fields of the result over which window, and the precision
    /// they print at.
    pub cell: fn(&RunResult) -> Cell,
    /// Whether the value is a stopwatch reading. `experiments ci-gate`
    /// holds every other column to the committed artifact exactly — for
    /// pinned settings they are deterministic counts; the box drifts 8-10%
    /// by itself.
    pub wall_clock: bool,
}

const fn col(key: &'static str, cell: fn(&RunResult) -> Cell) -> Column {
    Column {
        key,
        cell,
        wall_clock: false,
    }
}

/// Work counters no column reports, each with the reason.
pub const UNSERIALIZED: &[(&str, &str)] = &[];

/// The bench row, in the order it is printed: the one table the JSON
/// artifacts, the CI gate and the figure checks all read. A new counter
/// is one line in its struct in `rnn-core` and one row here.
pub const COLUMNS: &[Column] = &[
    // Mean wall-clock processing time per timestamp (seconds).
    Column {
        key: "cpu_per_ts",
        cell: |r| (r.elapsed.as_secs_f64() / r.measured as f64, Some(9)),
        wall_clock: true,
    },
    // Mean deterministic work units per timestamp (`OpCounters::work`).
    col("work_per_ts", |r| r.per_ts(r.window.work(), 1)),
    col("memory_kb", |r| (r.memory_kb, Some(1))),
    col("ignored_per_ts", |r| r.per_ts(r.window.updates_ignored, 1)),
    // NN recomputations forced by object or edge updates hitting a
    // query's influence region.
    col("reevals_per_ts", |r| r.per_ts(r.window.reevaluations, 1)),
    // Objects touched by replica resync (sharded engine only).
    col("resync_per_ts", |r| r.per_ts(r.window.resync_touched, 1)),
    col("evictions_per_ts", |r| {
        r.per_ts(r.window.replica_evictions, 1)
    }),
    col("max_tick_resync", |r| count(r.max_tick_resync)),
    // Tick-path *maintenance* allocation events (arena backing-buffer
    // reallocations, Dijkstra heap growth, tree-pool slab/directory
    // growth). The tickpath artifact pins it at 0.000, so *any* new
    // allocation on a steady-state tick — tree surgery included — fails.
    col("alloc_per_ts", |r| r.per_ts(r.window.alloc_events, 3)),
    // Allocation events of installing brand-new monitored entities (query
    // installs, GMA active-node activations): nonzero while the monitored
    // population is still discovering new anchors.
    col("install_alloc_per_ts", |r| {
        r.per_ts(r.window.install_alloc_events, 3)
    }),
    col("shared_per_ts", |r| r.per_ts(r.window.shared_expansions, 3)),
    // Raw Dijkstra heap pops.
    col("steps_per_ts", |r| r.per_ts(r.window.expansion_steps, 1)),
    // Expansion-tree nodes recycled through the tree pool's free list —
    // the tree-surgery reuse rate. Together with `alloc_per_ts` at zero
    // it proves subtree cuts and re-expansion inserts ran without heap
    // allocation.
    col("recycled_per_ts", |r| {
        r.per_ts(r.window.tree_nodes_recycled, 1)
    }),
    // Nodes pruned (cuts, θ-prunes, re-roots): the surgery volume the
    // recycle rate is measured against.
    col("pruned_per_ts", |r| r.per_ts(r.window.tree_nodes_pruned, 1)),
    // RPC frames moved (sent + received, all shards). Deterministic on a
    // fault-free loopback transport: growth means the delta protocol
    // started shipping more messages per tick.
    col("frames_per_ts", |r| {
        r.per_ts(r.net_window.frames_sent + r.net_window.frames_received, 1)
    }),
    col("bytes_per_ts", |r| {
        r.per_ts(r.net_window.bytes_sent + r.net_window.bytes_received, 1)
    }),
    col("retries", |r| count(r.net_final.retries)),
    col("rebalances", |r| count(r.whole_run.rebalance_events)),
    col("cells_migrated", |r| count(r.whole_run.cells_migrated)),
    col("load_ratio", |r| (r.load_ratio, Some(3))),
    col("recoveries", |r| count(r.net_final.crash_recoveries)),
    // Event frames replayed per crash recovery (0 when nothing crashed):
    // must stay O(WAL suffix) — bounded by the snapshot cadence — never
    // O(full journal), so growth means a respawn stopped restoring from
    // the latest durable snapshot.
    col("replayed_per_recovery", |r| {
        let recoveries = r.net_final.crash_recoveries.max(1);
        (
            r.net_final.frames_replayed as f64 / recoveries as f64,
            Some(1),
        )
    }),
    col("snapshots", |r| count(r.net_final.snapshots)),
    // Latest durable monitor-state snapshot, summed over shards (sizes
    // the snapshot plane against `memory_kb`).
    col("snapshot_kb", |r| {
        (r.net_final.snapshot_bytes as f64 / 1024.0, Some(1))
    }),
    // Final coordinator journal length in event frames, summed over
    // shards: with snapshots every E frames it stays < E per shard.
    col("journal_len", |r| count(r.net_final.journal_len)),
    // Replicated appends per tick on the replication plane. Appends are
    // synchronous — each commits before the next is sent — so this is a
    // count of replicated event frames, not a lag.
    col("commit_lag_frames", |r| {
        r.per_ts(r.net_window.commit_lag_frames, 3)
    }),
    col("failovers", |r| count(r.net_final.failovers)),
    col("fenced_appends", |r| count(r.net_final.fenced_appends)),
    // Append, promote and snapshot-offer traffic to followers.
    col("replica_bytes", |r| count(r.net_final.replica_bytes)),
    // Superseded submissions folded away by ingest coalescing:
    // deterministic for a pinned firehose seed.
    col("coalesced_per_ts", |r| {
        r.per_ts(r.window.coalesced_superseded, 3)
    }),
    col("shed_events", |r| count(r.window.shed_events)),
    // Queue-buffer growth and open-window index growth. A window total
    // (not a rate): warm-up absorbs the one-off high-water growth, after
    // which the swap drain must run allocation-free.
    col("drain_alloc_events", |r| count(r.window.drain_alloc_events)),
];

/// A labelled point of a figure series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// X-axis label (e.g. `"N=10K"` or `"k=25"`).
    pub label: String,
    /// One result per requested stack.
    pub results: Vec<RunResult>,
}

/// The update feed of one run: the plain per-tick scenario, or the
/// firehose oversampler around it when the point (or an ingest-fed
/// algorithm) asks for raw submissions.
enum Feed {
    Plain(Box<Scenario>, UpdateBatch),
    Fire(Box<Firehose>),
}

impl Feed {
    fn new(net: Arc<RoadNetwork>, params: &Params, ingest: bool) -> Self {
        // Ingest-fed stacks on a non-firehose point still need a raw
        // stream; the commute wave is the least exotic default.
        let pattern = params
            .firehose
            .or(ingest.then_some(FirehosePattern::CommuteWave));
        match pattern {
            Some(pattern) => Feed::Fire(Box::new(Firehose::new(
                net,
                FirehoseConfig::new(pattern, params.scenario_config()),
            ))),
            None => Feed::Plain(
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

/// Renders one result as the JSON object of its row: `algo`, then every
/// column of [`COLUMNS`] in order at its precision.
pub fn result_to_json(r: &RunResult) -> String {
    let mut out = format!("{{\"algo\": \"{}\"", esc(&r.stack.name()));
    for c in COLUMNS {
        // Writing to a `String` cannot fail.
        let _ = match (c.cell)(r) {
            (v, Some(d)) => write!(out, ", \"{}\": {v:.d$}", c.key),
            (v, None) => write!(out, ", \"{}\": {}", c.key, v as u64),
        };
    }
    out.push('}');
    out
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a series as a machine-readable JSON document (hand-rolled — the
/// vendored serde stub has no serializer) so downstream tooling can track
/// the perf trajectory across PRs.
pub fn series_to_json(figure: &str, series: &[SeriesPoint]) -> String {
    let comma = |i: usize, len: usize| if i + 1 < len { "," } else { "" };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{}\",\n", esc(figure)));
    out.push_str("  \"points\": [\n");
    for (i, p) in series.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", esc(&p.label)));
        out.push_str("      \"results\": [\n");
        for (j, r) in p.results.iter().enumerate() {
            let row = result_to_json(r);
            out.push_str(&format!("        {row}{}\n", comma(j, p.results.len())));
        }
        out.push_str("      ]\n");
        out.push_str(&format!("    }}{}\n", comma(i, series.len())));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs one parameter point for the given stacks.
///
/// All monitors consume the **same** update stream. Each is timed on its
/// own `tick` calls only; `warmup` leading timestamps are excluded from the
/// averages (the first ticks pay one-off allocation costs).
pub fn run_point(
    params: &Params,
    stacks: &[Stack],
    timestamps: usize,
    warmup: usize,
) -> Vec<RunResult> {
    let net = params.build_network();
    let any_ingest = stacks.iter().any(|s| s.ingest() != Ingest::Batch);
    let mut feed = Feed::new(net.clone(), params, any_ingest);

    let mut monitors: Vec<Driven> = stacks
        .iter()
        .map(|s| s.build(net.clone(), params))
        .collect();
    for m in &mut monitors {
        feed.install_into(m.monitor());
    }

    let measured = timestamps.saturating_sub(warmup).max(1);
    let mut results: Vec<RunResult> = stacks
        .iter()
        .map(|&stack| RunResult {
            stack,
            elapsed: Duration::ZERO,
            measured,
            window: OpCounters::default(),
            whole_run: OpCounters::default(),
            net_window: TransportStats::default(),
            net_final: TransportStats::default(),
            memory_kb: 0.0,
            active_nodes: None,
            load_ratio: 0.0,
            max_tick_resync: 0,
        })
        .collect();
    let mut ratio_count = vec![0u32; monitors.len()];
    // Transport counters at the start of the measured window.
    let mut net_base: Vec<TransportStats> = monitors
        .iter_mut()
        .map(|m| m.monitor().transport_stats().unwrap_or_default())
        .collect();
    for t in 0..timestamps {
        let (raw, effective) = feed.tick();
        for (i, (m, r)) in monitors.iter_mut().zip(&mut results).enumerate() {
            let rep = m.tick(raw, effective);
            r.max_tick_resync = r.max_tick_resync.max(rep.counters.resync_touched);
            r.whole_run.merge(&rep.counters);
            if t + 1 == warmup {
                if let Some(s) = m.monitor().transport_stats() {
                    net_base[i] = s;
                }
            }
            if t >= warmup {
                r.elapsed += rep.elapsed;
                r.window.merge(&rep.counters);
                if let Some(ratio) = m.monitor().shard_load_ratio() {
                    r.load_ratio += ratio;
                    ratio_count[i] += 1;
                }
            }
        }
    }

    for (i, (m, r)) in monitors.iter_mut().zip(&mut results).enumerate() {
        let m = m.monitor();
        // Read the transport counters before `memory()`, which ships its
        // own request/reply pair per shard.
        r.net_final = m.transport_stats().unwrap_or_default();
        r.net_window = r.net_final.since(&net_base[i]);
        // Fig. 18 compares *algorithm state*: query table, expansion trees
        // and influence lists. The shared edge table and scratch space are
        // common to all methods and excluded, as in the paper's discussion.
        let mem = m.memory();
        r.memory_kb = (mem.query_table + mem.expansion_trees + mem.influence_lists) as f64 / 1024.0;
        r.active_nodes = m.active_groups();
        if ratio_count[i] > 0 {
            r.load_ratio /= f64::from(ratio_count[i]);
        }
    }
    results
}

/// Runs a whole series (one figure): `points` are `(label, Params)` pairs.
/// With `parallel`, independent points run on worker threads (faster, but
/// wall-clock timings become noisier — intended for shape checks, not for
/// reporting).
pub fn run_series(
    points: &[(String, Params)],
    stacks: &[Stack],
    timestamps: usize,
    warmup: usize,
    parallel: bool,
) -> Vec<SeriesPoint> {
    let run = |(label, p): &(String, Params)| SeriesPoint {
        label: label.clone(),
        results: run_point(p, stacks, timestamps, warmup),
    };
    if !parallel {
        return points.iter().map(run).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .iter()
            .map(|point| scope.spawn(move || run(point)))
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|point| point.expect("experiment thread panicked"))
            .collect()
    })
}

/// Formats a series as an aligned text table (one row per point, one column
/// group per stack).
pub fn format_series(title: &str, series: &[SeriesPoint], show_memory: bool) -> String {
    let mut out = format!("## {title}\n");
    if series.is_empty() {
        return out;
    }
    out.push_str(&format!("{:<16}", "param"));
    for name in series[0].results.iter().map(|r| r.stack.name()) {
        if show_memory {
            out.push_str(&format!("{:>14}", format!("{name} KB")));
        } else {
            out.push_str(&format!("{:>14}", format!("{name} s/ts")));
            out.push_str(&format!("{:>14}", format!("{name} work")));
        }
    }
    out.push('\n');
    for p in series {
        out.push_str(&format!("{:<16}", p.label));
        for r in &p.results {
            if show_memory {
                out.push_str(&format!("{:>14.1}", r.memory_kb));
            } else {
                out.push_str(&format!("{:>14.6}", r.get("cpu_per_ts")));
                out.push_str(&format!("{:>14.0}", r.get("work_per_ts")));
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

    fn by<'a>(rs: &'a [RunResult], name: &str) -> &'a RunResult {
        rs.iter().find(|r| r.stack.name() == name).unwrap()
    }

    #[test]
    fn run_point_produces_results_for_all_algos() {
        let rs = run_point(&tiny(), Stack::PAPER_SET, 4, 1);
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert!(r.get("cpu_per_ts") >= 0.0);
            assert!(r.get("work_per_ts") > 0.0, "{:?} did no work", r.stack);
            assert!(r.memory_kb > 0.0);
        }
    }

    #[test]
    fn incremental_beats_overhaul_on_work() {
        // The headline claim: IMA and GMA do less deterministic work per
        // timestamp than recomputing everything from scratch.
        let rs = run_point(&tiny(), Stack::PAPER_SET, 6, 2);
        let work = |name: &str| by(&rs, name).window.work();
        assert!(
            work("IMA") < work("OVH"),
            "IMA {} !< OVH {}",
            work("IMA"),
            work("OVH")
        );
        assert!(
            work("GMA") < work("OVH"),
            "GMA {} !< OVH {}",
            work("GMA"),
            work("OVH")
        );
    }

    #[test]
    fn influence_list_ablation_ignores_nothing() {
        let rs = run_point(&tiny(), Stack::ABLATION_SET, 4, 1);
        let ima = &rs[0];
        let abl = &rs[1];
        assert_eq!(abl.stack.name(), "IMA-noIL");
        assert!(
            ima.window.updates_ignored > 0,
            "IMA should ignore some updates"
        );
        assert_eq!(
            abl.window.updates_ignored, 0,
            "the ablation processes everything"
        );
        assert!(abl.window.work() >= ima.window.work());
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
        let series = run_series(&pts, &[Stack::IMA], 3, 1, false);
        let txt = format_series("Test", &series, false);
        assert!(txt.contains("IMA s/ts"));
        assert!(txt.lines().count() >= 4);
    }

    #[test]
    fn parallel_series_matches_labels() {
        let pts = vec![("x".to_string(), tiny()), ("y".to_string(), tiny())];
        let series = run_series(&pts, &[Stack::GMA], 2, 0, true);
        assert_eq!(series[0].label, "x");
        assert_eq!(series[1].label, "y");
    }

    #[test]
    fn stack_names_are_computed_from_the_layers() {
        let names = |set: &[Stack]| set.iter().map(Stack::name).collect::<Vec<_>>();
        assert_eq!(names(Stack::PAPER_SET), ["OVH", "IMA", "GMA"]);
        assert_eq!(names(Stack::REBALANCE_SET), ["ENG-4", "ENG-4-RB"]);
        assert_eq!(names(Stack::RECOVERY_SET), ["CLU-2", "CLU-2-D", "CLU-4-D"]);
        assert_eq!(
            names(Stack::REPLICATION_SET),
            ["ENG-2", "ENG-4", "CLU-2-R", "CLU-4-R"]
        );
        assert_eq!(names(Stack::INGEST_SET), ["ENG-4", "ING-4", "ING-4-SHED"]);
    }

    #[test]
    fn odd_shard_counts_keep_their_own_rows() {
        // Every shard count outside {1, 2, 4, 8} used to render as
        // `ENG-n`, two rows the gate cannot tell apart.
        let pts = vec![("p".to_string(), tiny())];
        let stacks = [Stack::engine(3), Stack::engine(6)];
        let json = series_to_json("odd", &run_series(&pts, &stacks, 2, 0, false));
        for name in ["ENG-3", "ENG-6"] {
            assert_eq!(json.matches(&format!("\"algo\": \"{name}\"")).count(), 1);
        }
        let replicated = Stack::over(Link::Replicated, 6);
        assert_eq!(replicated.name(), "CLU-6-R");
    }

    #[test]
    fn sharded_engine_runs_as_an_algo() {
        let rs = run_point(&tiny(), &[Stack::GMA, Stack::engine(2)], 3, 1);
        assert_eq!(rs.len(), 2);
        let eng = &rs[1];
        assert_eq!(eng.stack.name(), "ENG-2");
        assert!(eng.window.work() > 0, "engine did no work");
        assert!(eng.memory_kb > 0.0);
    }

    #[test]
    fn replica_counters_only_from_sharded_engine() {
        let p = Params {
            query_agility: 0.3,
            ..tiny()
        };
        let rs = run_point(&p, &[Stack::GMA, Stack::engine(2)], 5, 1);
        let gma = &rs[0];
        assert_eq!(gma.window.resync_touched, 0, "single monitors never resync");
        assert_eq!(gma.window.replica_evictions, 0);
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
        let stacks = [Stack::engine(2), Stack::over(Link::Loopback, 2)];
        let rs = run_point(&tiny(), &stacks, 4, 1);
        let eng = &rs[0];
        let clu = &rs[1];
        assert_eq!(clu.stack.name(), "CLU-2");
        assert_eq!(
            clu.window.work(),
            eng.window.work(),
            "the RPC layer changed the deterministic work"
        );
        assert_eq!(clu.window.resync_touched, eng.window.resync_touched);
        assert!(
            clu.get("frames_per_ts") > 0.0,
            "the cluster moved no frames"
        );
        assert!(clu.get("bytes_per_ts") > 0.0);
        assert_eq!(
            clu.net_final.retries, 0,
            "fault-free loopback must not retry"
        );
        assert_eq!(
            eng.net_final,
            TransportStats::default(),
            "in-process engines have no transport"
        );
    }

    #[test]
    fn replicated_cluster_fails_over_and_matches_engine_work() {
        // Enough timestamps that every shard's delivered-frame budget
        // ([`CRASH_AFTER_FRAMES`]) is exhausted mid-run, so
        // each CLU-2-R shard is served by a promoted follower at the
        // end — and the event-coupled counter columns still match the
        // in-process engine. Tree-shape-coupled work counters may
        // legitimately differ after a snapshot restore, and
        // `updates_ignored` inherits a borderline-θ wobble from the
        // recomputed expansion trees (same as the CLU-n-D recovery
        // path), so it gets a 1% band while resync/evictions are exact.
        let stacks = [Stack::engine(2), Stack::over(Link::Replicated, 2)];
        let rs = run_point(&tiny(), &stacks, 40, 2);
        let eng = &rs[0];
        let clu = &rs[1];
        assert_eq!(clu.stack.name(), "CLU-2-R");
        assert_eq!(
            (clu.window.resync_touched, clu.window.replica_evictions),
            (eng.window.resync_touched, eng.window.replica_evictions),
            "failover changed a restore-stable counter"
        );
        let (clu_ignored, eng_ignored) = (clu.get("ignored_per_ts"), eng.get("ignored_per_ts"));
        assert!(
            (clu_ignored - eng_ignored).abs() <= eng_ignored * 0.01,
            "ignored drifted past the borderline-θ band: {clu_ignored} vs {eng_ignored}"
        );
        assert!(
            clu.net_final.failovers >= 1,
            "no leader kill fired: {clu:?}"
        );
        assert_eq!(
            clu.net_final.fenced_appends, 0,
            "healthy run must not fence"
        );
        assert!(
            clu.net_final.replica_bytes > 0,
            "no bytes reached the followers"
        );
        assert!(
            clu.net_window.commit_lag_frames > 0,
            "no append ever committed"
        );
        assert_eq!(eng.net_final.failovers, 0);
        assert_eq!(eng.net_final.replica_bytes, 0);
    }

    #[test]
    fn ingest_fed_engine_coalesces_and_sheds() {
        let p = Params {
            firehose: Some(FirehosePattern::FlashCrowd),
            // Enough movers that the tight ING-4-SHED hub overflows
            // every tick.
            object_agility: 0.5,
            ..tiny()
        };
        let rs = run_point(&p, Stack::INGEST_SET, 5, 2);
        let eng = &by(&rs, "ENG-4").window;
        let ing = &by(&rs, "ING-4").window;
        let shed = &by(&rs, "ING-4-SHED").window;
        assert_eq!(
            eng.coalesced_superseded, 0,
            "batch-fed engines never coalesce"
        );
        assert_eq!(eng.shed_events, 0);
        assert!(
            ing.coalesced_superseded > 0,
            "the flash crowd's redundant fixes must be folded at submit"
        );
        assert_eq!(ing.shed_events, 0, "the lossless hub must not shed");
        assert!(
            shed.shed_events > 0,
            "the tight ShedOldest hub must drop submissions"
        );
        assert!(ing.work() > 0);
    }

    #[test]
    fn json_series_is_well_formed() {
        let pts = vec![("p\"1".to_string(), tiny())];
        let stacks = [Stack::GMA, Stack::engine(1)];
        let series = run_series(&pts, &stacks, 2, 0, false);
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

    fn result_with(counters: [OpCounters; 2], net: [TransportStats; 2]) -> RunResult {
        RunResult {
            stack: Stack::over(Link::Durable, 3),
            elapsed: Duration::from_nanos(1_234_567),
            measured: 5,
            window: counters[0],
            whole_run: counters[1],
            net_window: net[0],
            net_final: net[1],
            memory_kb: 104.04,
            active_nodes: None,
            load_ratio: 1.2414,
            max_tick_resync: 17,
        }
    }

    /// Pins the schema of the committed `BENCH_*.json`: all 33 keys, their
    /// order, and each one's `{:.9}` / `{:.1}` / `{:.3}` / integer
    /// rendering.
    #[test]
    fn a_result_renders_to_the_committed_row_schema() {
        // Field i (1-based) of each counter table holds i over the
        // measured window and 100 + i over the whole run.
        let ordinal = |from: u64| {
            let mut i = from;
            move |_: &'static str| {
                i += 1;
                i
            }
        };
        let r = result_with(
            [0, 100].map(|from| OpCounters::from_fn(ordinal(from))),
            [0, 100].map(|from| TransportStats::from_fn(ordinal(from))),
        );
        assert_eq!(
            result_to_json(&r),
            "{\"algo\": \"CLU-3-D\", \"cpu_per_ts\": 0.000246913, \"work_per_ts\": 2.0, \
             \"memory_kb\": 104.0, \"ignored_per_ts\": 1.0, \"reevals_per_ts\": 1.2, \
             \"resync_per_ts\": 1.6, \"evictions_per_ts\": 1.8, \"max_tick_resync\": 17, \
             \"alloc_per_ts\": 2.000, \"install_alloc_per_ts\": 2.200, \
             \"shared_per_ts\": 2.600, \"steps_per_ts\": 2.4, \"recycled_per_ts\": 2.8, \
             \"pruned_per_ts\": 1.4, \"frames_per_ts\": 0.6, \"bytes_per_ts\": 1.4, \
             \"retries\": 105, \"rebalances\": 115, \"cells_migrated\": 116, \
             \"load_ratio\": 1.241, \"recoveries\": 107, \"replayed_per_recovery\": 1.0, \
             \"snapshots\": 111, \"snapshot_kb\": 0.1, \"journal_len\": 108, \
             \"commit_lag_frames\": 3.000, \"failovers\": 117, \"fenced_appends\": 116, \
             \"replica_bytes\": 114, \"coalesced_per_ts\": 3.400, \"shed_events\": 18, \
             \"drain_alloc_events\": 19}"
        );
    }

    /// The three ways the column table can drift from the counters and
    /// the gate.
    #[test]
    fn the_column_table_covers_the_counters_and_feeds_the_gate() {
        // 1. A counter no column reads: every field
        //    of the `OpCounters` table moves at least one column, or is
        //    excused by name with a reason.
        let no_net = [TransportStats::default(); 2];
        let zero = result_with([OpCounters::default(); 2], no_net);
        OpCounters::default().each(|field, _| {
            let one_hot = OpCounters::from_fn(|name| u64::from(name == field));
            let probe = result_with([one_hot; 2], no_net);
            let read = COLUMNS.iter().any(|c| probe.get(c.key) != zero.get(c.key));
            let excuse = UNSERIALIZED.iter().find(|(name, _)| *name == field);
            assert!(
                read != excuse.is_some(),
                "counter `{field}` must be read by a column of COLUMNS or listed in \
                 UNSERIALIZED (exactly one of the two)"
            );
        });
        for (name, why) in UNSERIALIZED {
            let mut known = false;
            OpCounters::default().each(|field, _| known |= field == *name);
            assert!(known, "UNSERIALIZED names unknown counter `{name}`");
            assert!(!why.trim().is_empty(), "no reason for leaving out `{name}`");
        }
        // 2. A column listed twice: the gate names a leaf by its key.
        for (i, c) in COLUMNS.iter().enumerate() {
            assert!(
                COLUMNS[..i].iter().all(|earlier| earlier.key != c.key),
                "column `{}` is listed twice",
                c.key
            );
        }
        // 3. A stopwatch reading the gate would hold exactly, or a count it
        //    would let through: the columns marked wall-clock are the ones
        //    that read `elapsed`, no other.
        let slower = RunResult {
            elapsed: zero.elapsed * 2,
            ..zero.clone()
        };
        for c in COLUMNS {
            let reads_the_clock = slower.get(c.key) != zero.get(c.key);
            assert_eq!(c.wall_clock, reads_the_clock, "column `{}`", c.key);
        }
    }
}
