//! Every call into a product crate (`rnn-roadnet`, `rnn-core`,
//! `rnn-workload`, `rnn-engine`, `rnn-cluster`) lives in this file: the
//! workload generator, the constructors of every rung of the stack ladder,
//! `tick` / `submit` + `tick_ingest`, the stats getters, the fresh-`Ovh`
//! oracle and the four isolated layer probes. The rest of the benchmark
//! talks to the local [`Stack`] trait and the plain-number structs below,
//! so a renamed public API is a one-file fix.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rnn_cluster::{ClusterEngine, DurabilityConfig, FaultPlan, Frame, MsgTag, RetryPolicy, Wal};
use rnn_core::{
    ContinuousMonitor, EdgeWeightUpdate, Gma, Ima, MonitorState, OpCounters, Ovh, TransportStats,
};
use rnn_engine::{
    AdmissionPolicy, EngineConfig, IngestConfig, IngestHandle, IngestHub, ReplicationConfig,
    ShardLink, ShardedEngine,
};
use rnn_roadnet::wire::{decode_seq, encode_seq};
use rnn_roadnet::{generators, DijkstraEngine, NodeId, RoadNetwork, WireReader};
use rnn_workload::{
    Distribution, Firehose, FirehoseConfig, FirehosePattern, HotspotConfig, MovementModel,
    Scenario, ScenarioConfig,
};

pub use rnn_core::{Neighbor, ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent};
pub use rnn_roadnet::QueryId;

/// Shard count of every sharded rung. Fixed: this box has 2 cores.
pub const SHARDS: usize = 2;
/// Follower replicas per shard on the replicated rungs (majority quorum).
pub const FOLLOWERS: u32 = 2;
/// WAL fsync batch on the durable rungs: sync every append.
pub const FSYNC_EVERY: u32 = 1;
/// Snapshot cadence of the durable rungs, in journaled event frames per
/// shard. A shard journals one to two event frames per tick on
/// `firehose-stack` and the two shards' cycles are out of step, so this
/// lands 5–7% of ticks on a snapshot — solidly inside p99, outside p50.
pub const SNAPSHOT_EVERY: u32 = 40;
/// Generator seed of the road map. The map is a fixed dataset, as the
/// paper's San Francisco map is: `--seed` draws the placements and the
/// update stream on it, not another city. (A new map also means a new
/// partition, which moved `paper-engine`'s median tick by 8% between
/// seeds — more than a regression bound is allowed to hide.)
const MAP_SEED: u64 = 42;
/// Relative tolerance of the answer comparison (the differential tests'
/// comparator: float noise along different summation orders).
const REL_TOL: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// The knobs of one workload, as plain numbers (Table 2 vocabulary).
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    /// Approximate network size in edges (SF-like generator).
    pub edges: usize,
    /// Object cardinality N (uniform placement).
    pub objects: usize,
    /// Query cardinality Q (Gaussian placement).
    pub queries: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Object / query / edge agility per timestamp.
    pub f_obj: f64,
    pub f_qry: f64,
    pub f_edg: f64,
    /// Query speed in average edge lengths (object speed is always 1).
    pub v_qry: f64,
    /// Layer the default drifting hotspot over the stream.
    pub hotspot: bool,
    /// Oversample through a `FlashCrowd` firehose (oversample 3, crowd 20%).
    pub firehose: bool,
}

/// One timestamp of generated input: the raw submission stream (empty
/// unless the workload is a firehose) and the effective batch.
pub struct Tick<'a> {
    pub raw: &'a [UpdateEvent],
    pub effective: &'a UpdateBatch,
}

impl Tick<'_> {
    /// A copy that outlives the generator's next step.
    pub fn to_owned(&self) -> OwnedTick {
        OwnedTick {
            raw: self.raw.to_vec(),
            effective: self.effective.clone(),
        }
    }
}

/// A buffered [`Tick`].
pub struct OwnedTick {
    raw: Vec<UpdateEvent>,
    effective: UpdateBatch,
}

impl OwnedTick {
    pub fn view(&self) -> Tick<'_> {
        Tick {
            raw: &self.raw,
            effective: &self.effective,
        }
    }
}

enum Gen {
    Plain(Box<Scenario>, UpdateBatch),
    Fire(Box<Firehose>),
}

/// The seeded update-stream generator of one workload. The system under
/// test only ever sees what [`Feed::advance`] returns.
pub struct Feed {
    net: Arc<RoadNetwork>,
    gen: Gen,
}

impl Feed {
    /// Builds the map, and the initial placements from `seed`.
    pub fn new(k: &Knobs, seed: u64) -> Self {
        let net = Arc::new(generators::san_francisco_like(k.edges, MAP_SEED));
        let cfg = ScenarioConfig {
            num_objects: k.objects,
            num_queries: k.queries,
            k: k.k,
            object_distribution: Distribution::Uniform,
            query_distribution: Distribution::gaussian_queries(),
            edge_agility: k.f_edg,
            object_agility: k.f_obj,
            query_agility: k.f_qry,
            object_speed: 1.0,
            query_speed: k.v_qry,
            movement: MovementModel::RandomWalk,
            hotspot: k.hotspot.then(HotspotConfig::default),
            seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
        };
        let gen = if k.firehose {
            let cfg = FirehoseConfig::new(FirehosePattern::FlashCrowd, cfg);
            Gen::Fire(Box::new(Firehose::new(net.clone(), cfg)))
        } else {
            Gen::Plain(
                Box::new(Scenario::new(net.clone(), cfg)),
                UpdateBatch::default(),
            )
        };
        Self { net, gen }
    }

    fn scenario(&self) -> &Scenario {
        match &self.gen {
            Gen::Plain(s, _) => s,
            Gen::Fire(f) => f.scenario(),
        }
    }

    /// Advances the simulation one timestamp.
    pub fn advance(&mut self) -> Tick<'_> {
        match &mut self.gen {
            Gen::Plain(s, slot) => {
                *slot = s.tick();
                Tick {
                    raw: &[],
                    effective: slot,
                }
            }
            Gen::Fire(f) => {
                let t = f.tick();
                Tick {
                    raw: t.raw,
                    effective: t.effective,
                }
            }
        }
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.scenario().config().num_queries
    }
}

// ---------------------------------------------------------------------------
// The stack ladder
// ---------------------------------------------------------------------------

/// One prefix of the stack. Each rung adds one layer to the one before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// A single `Gma` — `rnn-core` + `rnn-roadnet` only.
    CoreGma,
    /// A single `Ima` (reported beside GMA, not part of the ladder).
    CoreIma,
    /// A single `Ovh` (reported beside GMA, not part of the ladder).
    CoreOvh,
    /// `ShardedEngine` with one shard: routing and hand-off, no halos.
    EngineS1,
    /// `ShardedEngine` with [`SHARDS`] shards (rebalancing per [`Build`]).
    EngineS2,
    /// `ClusterEngine::loopback`: + encode, frames, RPC.
    ClusterWire,
    /// + on-disk WAL and snapshots.
    ClusterDurable,
    /// + quorum replication to [`FOLLOWERS`] followers per shard.
    ClusterRepl,
    /// + `IngestHandle::submit` / `tick_ingest`: the full stack.
    EngineIngest,
}

impl Rung {
    /// The rung's name in metric names and spans.
    pub fn name(self) -> &'static str {
        match self {
            Rung::CoreGma => "core.gma",
            Rung::CoreIma => "core.ima",
            Rung::CoreOvh => "core.ovh",
            Rung::EngineS1 => "engine.s1",
            Rung::EngineS2 => "engine.s2",
            Rung::ClusterWire => "cluster.wire",
            Rung::ClusterDurable => "cluster.durable",
            Rung::ClusterRepl => "cluster.repl",
            Rung::EngineIngest => "engine.ingest",
        }
    }
}

/// A crash injected on shard 0's link (recovery probe only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crash {
    /// Fault-free.
    None,
    /// Kill the service after this many delivered frames; the respawn is
    /// live, so recovery is snapshot install + journal-suffix replay.
    Respawn(u32),
    /// Same kill, stillborn respawns: recovery must promote a follower.
    Promote(u32),
}

/// What [`build`] needs besides the rung.
pub struct Build<'a> {
    /// `EngineConfig::with_rebalancing` instead of `with_shards` on
    /// [`Rung::EngineS2`].
    pub rebalance: bool,
    /// Root under which durable rungs create their WAL/snapshot dir.
    pub scratch: &'a Path,
    /// Crash plan for shard 0.
    pub crash: Crash,
}

/// What one tick did, read from the returned `TickReport` and the
/// engine's `worker_report()`. Plain numbers; zero where a rung has no
/// such layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickCounts {
    /// Effective (post-coalescing) update events applied.
    pub events: u64,
    /// Object events among them.
    pub object_events: u64,
    pub reevaluations: u64,
    pub updates_ignored: u64,
    pub expansion_steps: u64,
    pub shared_expansions: u64,
    pub alloc_events: u64,
    pub resync_touched: u64,
    pub replica_evictions: u64,
    pub cells_migrated: u64,
    pub coalesced: u64,
    /// Events shed or rejected by admission control.
    pub shed: u64,
    /// Raw events submitted through the ingest handle.
    pub submitted: u64,
    /// Time spent in the `submit` calls (ingest rung only).
    pub submit_ns: u64,
    /// Worker critical path of the tick (sharded rungs only).
    pub worker_ns: u64,
    /// The tick's own elapsed time minus the worker critical path: what
    /// the router spent (sharded rungs only).
    pub route_ns: u64,
}

/// Cumulative transport counters of a cluster rung.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    pub frames: u64,
    /// Coordinator↔shard bytes, both directions.
    pub shard_bytes: u64,
    /// Bytes shipped to follower replicas.
    pub replica_bytes: u64,
    pub retries: u64,
    pub snapshots: u64,
    pub commit_lag_frames: u64,
    pub crash_recoveries: u64,
    pub failovers: u64,
}

/// Cheap per-tick state read from public getters, outside the timed call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Health {
    /// Shards alive / configured (1/1 for single monitors).
    pub live_shards: usize,
    pub shards: usize,
    /// max/mean shard load (0 where there is none).
    pub load_ratio: f64,
    /// Zero for in-process rungs.
    pub wire: Wire,
}

/// A query's current answer.
pub struct Answer<'a> {
    pub neighbors: &'a [Neighbor],
    pub knn_dist: f64,
}

/// What the rest of the benchmark knows about a system under test.
pub trait Stack {
    /// Which rung this is.
    fn rung(&self) -> Rung;
    /// One timestamp through the rung's top entry point. `Err` if a
    /// submission was refused.
    fn tick(&mut self, t: &Tick<'_>) -> Result<TickCounts, String>;
    /// The current answer of one query.
    fn answer(&self, q: QueryId) -> Option<Answer<'_>>;
    /// Liveness and transport counters.
    fn health(&self) -> Health;
}

enum Sut {
    Mono(Box<dyn ContinuousMonitor>),
    Engine(Box<ShardedEngine>),
    Cluster(Box<ClusterEngine>),
    Ingest(Box<ClusterEngine>, IngestHandle),
}

/// A built rung with its population installed.
pub struct Rig {
    rung: Rung,
    sut: Sut,
    /// WAL/snapshot directory of a durable rung, removed on drop.
    dir: Option<PathBuf>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The ingest stage of the full stack, lossless: every lane can hold a
/// whole tick of the firehose, so `Block` never parks the single driver
/// thread.
fn ingest_config(objects: usize) -> IngestConfig {
    IngestConfig {
        capacity: objects.max(4096),
        policy: AdmissionPolicy::Block,
        ..IngestConfig::default()
    }
}

fn engine_config(rung: Rung, objects: usize, b: &Build<'_>) -> EngineConfig {
    let shards = if rung == Rung::EngineS1 { 1 } else { SHARDS };
    let mut cfg = if b.rebalance && rung == Rung::EngineS2 {
        EngineConfig::with_rebalancing(shards)
    } else {
        EngineConfig::with_shards(shards)
    };
    if matches!(rung, Rung::ClusterRepl | Rung::EngineIngest) {
        cfg.replication = ReplicationConfig::with_replicas(FOLLOWERS);
    }
    if rung == Rung::EngineIngest {
        cfg.ingest = ingest_config(objects);
    }
    cfg
}

/// Builds `rung` over the feed's network and installs every object and
/// query. Everything from here to the first tick is `setup_s`.
pub fn build(rung: Rung, feed: &Feed, b: &Build<'_>) -> Rig {
    let net = feed.net.clone();
    let cfg = engine_config(rung, feed.scenario().config().num_objects, b);
    let mut dir = None;
    let mut sut = match rung {
        Rung::CoreGma => Sut::Mono(Box::new(Gma::new(net))),
        Rung::CoreIma => Sut::Mono(Box::new(Ima::new(net))),
        Rung::CoreOvh => Sut::Mono(Box::new(Ovh::new(net))),
        Rung::EngineS1 | Rung::EngineS2 => Sut::Engine(Box::new(ShardedEngine::new(net, cfg))),
        Rung::ClusterWire => Sut::Cluster(Box::new(ClusterEngine::loopback(net, cfg))),
        Rung::ClusterDurable | Rung::ClusterRepl | Rung::EngineIngest => {
            let d = fresh_dir(b.scratch, rung.name());
            let plans = match b.crash {
                Crash::None => vec![FaultPlan::default()],
                Crash::Respawn(after) | Crash::Promote(after) => vec![
                    FaultPlan {
                        crash_after_frames: after,
                        respawn_dead: matches!(b.crash, Crash::Promote(_)),
                        ..FaultPlan::default()
                    },
                    FaultPlan::default(),
                ],
            };
            let durability = DurabilityConfig {
                fsync_every: FSYNC_EVERY,
                ..DurabilityConfig::on_disk(SNAPSHOT_EVERY, d.clone())
            };
            dir = Some(d);
            let engine = Box::new(ClusterEngine::loopback_durable(
                net,
                cfg,
                &plans,
                RetryPolicy::default(),
                durability,
            ));
            if rung == Rung::EngineIngest {
                let handle = engine.ingest_handle();
                Sut::Ingest(engine, handle)
            } else {
                Sut::Cluster(engine)
            }
        }
    };
    feed.scenario().install_into(match &mut sut {
        Sut::Mono(m) => m.as_mut(),
        Sut::Engine(e) => e.as_mut(),
        Sut::Cluster(c) | Sut::Ingest(c, _) => c.as_mut(),
    });
    Rig { rung, sut, dir }
}

fn fresh_dir(scratch: &Path, label: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = scratch.join(format!("{label}-{n}"));
    // A durable link seeds itself from whatever its directory holds.
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn counts(c: &OpCounters) -> TickCounts {
    TickCounts {
        reevaluations: c.reevaluations,
        updates_ignored: c.updates_ignored,
        expansion_steps: c.expansion_steps,
        shared_expansions: c.shared_expansions,
        alloc_events: c.alloc_events,
        resync_touched: c.resync_touched,
        replica_evictions: c.replica_evictions,
        cells_migrated: c.cells_migrated,
        coalesced: c.coalesced_superseded,
        shed: c.shed_events,
        ..TickCounts::default()
    }
}

fn wire(s: &TransportStats) -> Wire {
    Wire {
        frames: s.frames_sent + s.frames_received,
        shard_bytes: s.bytes_sent + s.bytes_received,
        replica_bytes: s.replica_bytes,
        retries: s.retries,
        snapshots: s.snapshots,
        commit_lag_frames: s.commit_lag_frames,
        crash_recoveries: s.crash_recoveries,
        failovers: s.failovers,
    }
}

fn engine_health<L: ShardLink>(e: &ShardedEngine<L>, wire: Wire) -> Health {
    Health {
        live_shards: e.live_shards(),
        shards: e.num_shards(),
        load_ratio: e.shard_load_ratio().unwrap_or(0.0),
        wire,
    }
}

impl Rig {
    fn monitor(&self) -> &dyn ContinuousMonitor {
        match &self.sut {
            Sut::Mono(m) => m.as_ref(),
            Sut::Engine(e) => e.as_ref(),
            Sut::Cluster(c) | Sut::Ingest(c, _) => c.as_ref(),
        }
    }

    /// Object replicas on non-owner shards (O(N); 0 for a single monitor).
    pub fn replicas(&self) -> usize {
        match &self.sut {
            Sut::Mono(_) => 0,
            Sut::Engine(e) => e.replica_count(),
            Sut::Cluster(c) | Sut::Ingest(c, _) => c.engine().replica_count(),
        }
    }

    /// Algorithm state in bytes — query table, expansion trees, influence
    /// lists (Fig. 18's quantity). Ships frames on cluster rungs.
    pub fn state_bytes(&self) -> usize {
        let m = self.monitor().memory();
        m.query_table + m.expansion_trees + m.influence_lists
    }
}

impl Stack for Rig {
    fn rung(&self) -> Rung {
        self.rung
    }

    fn tick(&mut self, t: &Tick<'_>) -> Result<TickCounts, String> {
        let batch_events = t.effective.len() as u64;
        let object_events = t.effective.objects.len() as u64;
        let (report, worker_ns, submitted, submit_ns) = match &mut self.sut {
            Sut::Mono(m) => (m.tick(t.effective), 0, 0, 0),
            Sut::Engine(e) => {
                let r = e.tick(t.effective);
                (r, e.worker_report().elapsed.as_nanos() as u64, 0, 0)
            }
            Sut::Cluster(c) => {
                let r = c.tick(t.effective);
                let w = c.engine().worker_report().elapsed.as_nanos() as u64;
                (r, w, 0, 0)
            }
            Sut::Ingest(c, handle) => {
                let start = Instant::now();
                for &ev in t.raw {
                    handle.submit(ev).map_err(|e| e.to_string())?;
                }
                let submit_ns = start.elapsed().as_nanos() as u64;
                let r = c.tick_ingest();
                let w = c.engine().worker_report().elapsed.as_nanos() as u64;
                (r, w, t.raw.len() as u64, submit_ns)
            }
        };
        let mut c = counts(&report.counters);
        c.events = if submitted > 0 {
            submitted - c.coalesced - c.shed
        } else {
            batch_events
        };
        c.object_events = object_events;
        c.worker_ns = worker_ns;
        if worker_ns > 0 {
            c.route_ns = (report.elapsed.as_nanos() as u64).saturating_sub(worker_ns);
        }
        c.submitted = submitted;
        c.submit_ns = submit_ns;
        Ok(c)
    }

    fn answer(&self, q: QueryId) -> Option<Answer<'_>> {
        let m = self.monitor();
        Some(Answer {
            neighbors: m.result(q)?,
            knn_dist: m.knn_dist(q)?,
        })
    }

    fn health(&self) -> Health {
        match &self.sut {
            Sut::Mono(_) => Health {
                live_shards: 1,
                shards: 1,
                ..Health::default()
            },
            Sut::Engine(e) => engine_health(e, Wire::default()),
            Sut::Cluster(c) | Sut::Ingest(c, _) => engine_health(c.engine(), wire(&c.stats())),
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

fn dist_eq(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Builds a fresh `Ovh` — the paper's from-scratch baseline — from the
/// generator's *current* state and counts the queries whose sorted
/// distance vector or `knn_dist` differs from `sut`'s. kNN answers depend
/// only on current state, so this is a complete oracle for the tick just
/// processed.
pub fn oracle_mismatches(feed: &Feed, sut: &dyn Stack) -> usize {
    let sc = feed.scenario();
    let mut ovh = Ovh::new(feed.net.clone());
    let edges: Vec<EdgeWeightUpdate> = feed
        .net
        .edge_ids()
        .map(|edge| EdgeWeightUpdate {
            edge,
            new_weight: sc.weights().get(edge),
        })
        .collect();
    ovh.tick(&UpdateBatch {
        edges,
        ..UpdateBatch::default()
    });
    sc.install_into(&mut ovh);
    sc.initial_queries()
        .filter(|&(q, _, _)| {
            let want = ovh.result(q).unwrap_or(&[]);
            let want_dist = ovh.knn_dist(q).unwrap_or(f64::INFINITY);
            !sut.answer(q).is_some_and(|got| {
                got.neighbors.len() == want.len()
                    && dist_eq(got.knn_dist, want_dist)
                    && got
                        .neighbors
                        .iter()
                        .zip(want)
                        .all(|(a, b)| dist_eq(a.dist, b.dist))
            })
        })
        .count()
}

// ---------------------------------------------------------------------------
// Isolated layer probes, fed the workload's real data
// ---------------------------------------------------------------------------

/// `DijkstraEngine::sssp` from four sources spread over the network,
/// under the generator's current weights: `(heap pops, nanoseconds)`.
pub fn probe_dijkstra(feed: &Feed) -> (u64, u64) {
    let net = &feed.net;
    let mut engine = DijkstraEngine::new(net.num_nodes());
    let start = Instant::now();
    for i in 0..4 {
        let src = NodeId::from_index(i * net.num_nodes() / 4);
        std::hint::black_box(engine.sssp(net, feed.scenario().weights(), src, None));
    }
    let ns = start.elapsed().as_nanos() as u64;
    (engine.take_expansion_steps(), ns)
}

/// One tick's events through the wire codec.
pub struct CodecProbe {
    pub events: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// The encoded events, framed as one `TickEvents` frame.
    pub frame: Vec<u8>,
}

/// `WireCodec` encode + decode of the tick's effective events.
pub fn probe_codec(batch: &UpdateBatch) -> CodecProbe {
    let start = Instant::now();
    let mut payload = Vec::new();
    encode_seq(&batch.objects, &mut payload);
    encode_seq(&batch.queries, &mut payload);
    encode_seq(&batch.edges, &mut payload);
    let encode_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut r = WireReader::new(&payload);
    let decoded = (
        decode_seq::<ObjectEvent>(&mut r),
        decode_seq::<QueryEvent>(&mut r),
        decode_seq::<EdgeWeightUpdate>(&mut r),
    );
    let decode_ns = start.elapsed().as_nanos() as u64;
    assert!(
        matches!(&decoded, (Ok(o), Ok(q), Ok(e))
            if *o == batch.objects && *q == batch.queries && *e == batch.edges),
        "codec round trip changed the events"
    );
    let frame = Frame {
        tag: MsgTag::TickEvents,
        seq: 0,
        epoch: 0,
        payload,
    }
    .to_bytes();
    CodecProbe {
        events: batch.len() as u64,
        encode_ns,
        decode_ns,
        frame,
    }
}

/// A scratch `Wal` for [`WalProbe::append`] timings.
pub struct WalProbe {
    wal: Wal,
    dir: PathBuf,
    appended: u32,
}

impl WalProbe {
    /// Opens a fresh log under `scratch` with the durable rungs' fsync batch.
    pub fn open(scratch: &Path) -> std::io::Result<Self> {
        let dir = fresh_dir(scratch, "probe.wal");
        std::fs::create_dir_all(&dir)?;
        let (wal, _) = Wal::open(&dir.join("events.wal"), FSYNC_EVERY)?;
        Ok(Self {
            wal,
            dir,
            appended: 0,
        })
    }

    /// Appends one frame; nanoseconds taken. The log is reset once it
    /// reaches the durable rungs' snapshot cadence, as the link does.
    pub fn append(&mut self, frame: &[u8]) -> std::io::Result<u64> {
        if self.appended == SNAPSHOT_EVERY {
            self.wal.reset()?;
            self.appended = 0;
        }
        self.appended += 1;
        let start = Instant::now();
        self.wal.append(frame)?;
        Ok(start.elapsed().as_nanos() as u64)
    }
}

impl Drop for WalProbe {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A standalone `IngestHub` sized like the ingest rung's.
pub struct IngestProbe {
    hub: IngestHub,
    handle: IngestHandle,
    batch: UpdateBatch,
}

impl IngestProbe {
    pub fn new(feed: &Feed) -> Self {
        let hub = IngestHub::new(ingest_config(feed.scenario().config().num_objects));
        let handle = hub.handle();
        Self {
            hub,
            handle,
            batch: UpdateBatch::default(),
        }
    }

    /// Submits `raw` and drains it: `(submit ns, drain ns)`.
    pub fn run(&mut self, raw: &[UpdateEvent]) -> (u64, u64) {
        let start = Instant::now();
        for &ev in raw {
            self.handle
                .submit(ev)
                .expect("Block admission never refuses");
        }
        let submit_ns = start.elapsed().as_nanos() as u64;
        self.batch.clear();
        let start = Instant::now();
        self.hub.drain_into(&mut self.batch);
        (submit_ns, start.elapsed().as_nanos() as u64)
    }
}

/// `MonitorState` through a snapshot cycle.
#[derive(Clone, Debug)]
pub struct SnapshotProbe {
    /// `snapshot_state` + `to_bytes`.
    pub capture_ns: u64,
    /// `from_bytes` + `restore_into`.
    pub restore_ns: u64,
    pub bytes: u64,
    /// Why `restore_into` refused the state, if it did.
    pub rejected: Option<String>,
}

/// Snapshots `rig`'s monitor (a single-monitor rung) and restores the
/// bytes into a fresh `Gma`. `Err` if the rung cannot snapshot or the
/// bytes do not decode; a restore the monitor rejects is still timed — it
/// did all the work — and reported through `rejected`.
pub fn probe_snapshot(feed: &Feed, rig: &Rig) -> Result<SnapshotProbe, String> {
    let start = Instant::now();
    let state = rig
        .monitor()
        .snapshot_state()
        .ok_or("the monitor has no snapshot support")?;
    let bytes = state.to_bytes();
    let capture_ns = start.elapsed().as_nanos() as u64;
    let mut fresh = Gma::new(feed.net.clone());
    let start = Instant::now();
    let decoded = MonitorState::from_bytes(&bytes).map_err(|e| format!("{e:?}"))?;
    let rejected = decoded
        .restore_into(&mut fresh)
        .err()
        .map(|e| e.to_string());
    let restore_ns = start.elapsed().as_nanos() as u64;
    Ok(SnapshotProbe {
        capture_ns,
        restore_ns,
        bytes: bytes.len() as u64,
        rejected,
    })
}
