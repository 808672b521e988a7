//! The sharded engine: routing, halo replication, and reconciliation.
//!
//! # Design
//!
//! The network is split into `S` connected regions
//! ([`rnn_roadnet::NetworkPartition`]). Each region is owned by a shard: a
//! worker thread running a full [`ContinuousMonitor`] over the *shared*
//! topology (an `Arc<RoadNetwork>`) but tracking only the objects and
//! queries routed to it. Queries live with the shard owning their edge;
//! objects live with their owner shard **plus** every shard whose *halo*
//! they fall into.
//!
//! ## Halo correctness argument
//!
//! A query `q` in shard `s` with result radius `d = kNN_dist(q)` only
//! inspects network points within distance `d` of `q`. Any such point `p`
//! outside region `s` is reached by a path that exits the region through a
//! boundary node `b`, so `dist(b, p) ≤ d`. Hence if shard `s` additionally
//! sees every object within distance `r_s ≥ max_q kNN_dist(q)` of its
//! boundary (the *halo*), the monitor's candidate set contains every true
//! neighbor of every owned query, and its answers equal a single global
//! monitor's.
//!
//! `kNN_dist` is only known *after* computing results, so the engine closes
//! the loop iteratively: tick the shards, read back each query's
//! `kNN_dist`, and where it exceeds the shard's current halo radius, grow
//! the halo (a bounded multi-source Dijkstra from the shard's boundary
//! nodes under the current weights), ship the newly visible objects in, and
//! tick again. Adding objects can only *shrink* `kNN_dist`, so the needed
//! radius is non-increasing and the loop terminates — in steady state it
//! converges immediately and the extra rounds are rare. Halo membership is
//! also refreshed whenever edge weights change, since it is defined in
//! terms of weighted distances.
//!
//! Underfull queries (`kNN_dist = ∞`, fewer than `k` objects visible) need
//! the whole reachable network; their demand is capped at a finite
//! **diameter bound** (the sum of current edge weights, which no simple
//! shortest path can exceed — [`rnn_roadnet::EdgeWeights::total`]), so halo
//! radii stay finite and comparable.
//!
//! ## Replica lifecycle: grow, shrink, evict
//!
//! Halos *grow* eagerly (any tick where a query's `kNN_dist` exceeds its
//! shard's radius, correctness demands it) and *shrink* lazily: each tick
//! the engine re-derives every shard's needed radius, and when the current
//! radius has stayed above `needed × (1 + halo_slack) ×
//! halo_shrink_trigger` for [`EngineConfig::halo_shrink_ticks`] consecutive
//! ticks, it decays to `needed × (1 + halo_slack)` and the replicas beyond
//! it are **evicted**. Shrinking never changes answers: evicted objects lie
//! farther from the boundary than every owned query's `kNN_dist`, so they
//! cannot appear in any result. The hysteresis (trigger ratio + tick count)
//! prevents grow/shrink flapping when `kNN_dist` oscillates.
//!
//! ## Incremental replica maintenance
//!
//! Replica membership is a pure function of each object's edge: bit `s` of
//! [`ShardedEngine::edge_mask`] says whether shard `s` must see objects on
//! that edge. When a halo is rebuilt, only the edges whose membership
//! actually *toggled* can invalidate an object's replica set, so the engine
//! re-derives masks only for the objects resident on those edges — found
//! through an [`EdgeObjectIndex`] maintained on every routed object event —
//! instead of rescanning all `N` objects. The work is O(objects on changed
//! edges), observable through the `resync_touched` counter.

use std::sync::Arc;
use std::time::Instant;

use rnn_core::{
    ContinuousMonitor, MemoryUsage, Neighbor, ObjectEvent, OpCounters, QueryEvent, TickReport,
    UpdateBatch, UpdateEvent,
};
use rnn_roadnet::{
    DijkstraEngine, EdgeId, EdgeObjectIndex, EdgeWeights, FxHashMap, FxHashSet, NetPoint,
    NetworkPartition, ObjectId, QueryId, RoadNetwork,
};

use crate::config::EngineConfig;
use crate::ingest::{IngestHandle, IngestHub};
use crate::protocol::{BatchKind, DeltaBatch, Request, Response, ShardLink};
use crate::worker::ShardWorker;

/// Why a sharded engine could not be constructed. The typed form (rather
/// than a panic) lets the cluster coordinator surface configuration
/// mistakes over RPC instead of tearing down the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// `EngineConfig::num_shards` was outside the accepted `1..=64` range
    /// (shard visibility is tracked in a 64-bit mask per edge, and a
    /// partition needs at least one shard).
    InvalidShardCount {
        /// The rejected shard count.
        got: usize,
    },
    /// The number of pre-built shard links handed to
    /// [`ShardedEngine::with_links`] did not match `cfg.num_shards`.
    LinkCountMismatch {
        /// Links provided.
        links: usize,
        /// Shards configured.
        shards: usize,
    },
    /// A tuning knob failed [`EngineConfig::validate`] (non-finite ratio,
    /// zero ingest capacity, …).
    InvalidKnob {
        /// The offending field, as named on [`crate::EngineConfig`].
        field: &'static str,
        /// What the field must satisfy.
        requirement: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidShardCount { got } => write!(
                f,
                "EngineConfig::num_shards must be in 1..=64, got {got} \
                 (shard visibility is a 64-bit mask per edge)"
            ),
            EngineError::LinkCountMismatch { links, shards } => write!(
                f,
                "ShardedEngine::with_links needs exactly one link per shard: \
                 got {links} links for {shards} shards"
            ),
            EngineError::InvalidKnob { field, requirement } => {
                write!(f, "EngineConfig::{field} must be {requirement}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

struct ObjRec {
    pos: NetPoint,
    /// Bit `s` set = shard `s` currently holds this object (owner or
    /// replica).
    mask: u64,
}

/// Events routed to one shard but not yet shipped. Converted into a
/// [`DeltaBatch`] (which adds the shared edge arena) at dispatch time.
#[derive(Default)]
struct PendingEvents {
    objects: Vec<ObjectEvent>,
    queries: Vec<QueryEvent>,
}

struct QueryRec {
    k: usize,
    shard: u32,
    pos: NetPoint,
    knn_dist: f64,
    result: Vec<Neighbor>,
}

/// One shard's halo edge set, **ring-structured**: every member edge is
/// stored with its *boundary distance* (the minimum settle distance of its
/// adjacent settled nodes during the halo expansion), and the membership is
/// additionally kept sorted by that distance. A shrink then drops exactly
/// the outer annulus — pop the sorted tail — without re-running the
/// boundary Dijkstra. Boundary distances only change when edge weights do,
/// and any weight change forces a full halo recompute earlier in the same
/// tick, so the recorded annuli are always current when the shrink runs.
#[derive(Default)]
struct HaloRing {
    /// Membership, with each edge's boundary distance.
    dist: FxHashMap<EdgeId, f64>,
    /// Member edges sorted ascending by boundary distance (ties by id).
    by_dist: Vec<(f64, EdgeId)>,
}

impl HaloRing {
    #[inline]
    fn contains(&self, e: EdgeId) -> bool {
        self.dist.contains_key(&e)
    }

    fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Drops `e` from the ring (the shard came to *own* it, and a halo
    /// holds foreign edges only). Returns whether it was a member.
    fn remove(&mut self, e: EdgeId) -> bool {
        let was_member = self.dist.remove(&e).is_some();
        if was_member {
            self.by_dist.retain(|&(_, re)| re != e);
        }
        was_member
    }

    /// Replaces the membership with `fresh` (edge → boundary distance),
    /// reporting every edge whose membership toggled as
    /// `toggled(edge, is_member_now)` — leavers first, then joiners.
    fn replace_with(
        &mut self,
        fresh: FxHashMap<EdgeId, f64>,
        mut toggled: impl FnMut(EdgeId, bool),
    ) {
        for &e in self.dist.keys() {
            if !fresh.contains_key(&e) {
                toggled(e, false);
            }
        }
        for &e in fresh.keys() {
            if !self.dist.contains_key(&e) {
                toggled(e, true);
            }
        }
        self.by_dist.clear();
        self.by_dist.extend(fresh.iter().map(|(&e, &d)| (d, e)));
        self.by_dist
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.dist = fresh;
    }

    /// Pops the outermost member if it lies beyond `cutoff` — one step of
    /// dropping the outer annulus after a radius decay.
    fn pop_beyond(&mut self, cutoff: f64) -> Option<EdgeId> {
        let &(d, e) = self.by_dist.last()?;
        if d <= cutoff {
            return None;
        }
        self.by_dist.pop();
        self.dist.remove(&e);
        Some(e)
    }

    fn memory_bytes(&self) -> usize {
        self.dist.capacity() * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<f64>())
            + self.by_dist.capacity() * std::mem::size_of::<(f64, EdgeId)>()
    }
}

/// A sharded, multi-threaded continuous-monitoring engine that is
/// answer-identical to a single monitor over the whole network.
///
/// Implements [`ContinuousMonitor`] itself, so it drops into every place a
/// single-threaded monitor fits (scenario drivers, the bench harness, the
/// differential tests).
///
/// The engine is generic over its shard channel: the default
/// [`ShardWorker`] runs each monitor on an in-process thread, while the
/// cluster crate plugs in RPC links to out-of-process shards through
/// [`ShardedEngine::with_links`]. All routing, halo, and rebalance logic
/// is identical across link kinds.
pub struct ShardedEngine<L: ShardLink = ShardWorker> {
    cfg: EngineConfig,
    partition: NetworkPartition,
    net: Arc<RoadNetwork>,
    /// The engine's authoritative copy of the fluctuating weights (needed
    /// for halo distance computations).
    weights: EdgeWeights,
    /// Finite stand-in for "replicate everything": an upper bound on any
    /// shortest-path distance under the current weights. Cached lazily —
    /// the O(E) refresh only runs when a weight change has invalidated it
    /// *and* an underfull query actually needs the cap.
    diam_cache: f64,
    diam_dirty: bool,
    scratch: DijkstraEngine,
    workers: Vec<L>,
    /// Current halo radius per shard. Grows eagerly on demand, shrinks
    /// lazily with hysteresis (see module docs).
    halo_r: Vec<f64>,
    /// Consecutive ticks each shard's halo has been oversized (the shrink
    /// hysteresis counter).
    shrink_streak: Vec<u32>,
    /// Foreign edges inside each shard's halo, ring-structured (distance
    /// annuli) so shrinks drop only the outer ring.
    halo_edges: Vec<HaloRing>,
    /// Per-edge visibility mask: bit `s` = edge is owned by or in the halo
    /// of shard `s`.
    edge_mask: Vec<u64>,
    objects: FxHashMap<ObjectId, ObjRec>,
    /// Edge → resident objects, maintained on every routed object event.
    /// Lets halo rebuilds resync only the objects on changed edges.
    edge_obj: EdgeObjectIndex,
    queries: FxHashMap<QueryId, QueryRec>,
    /// Edge → resident queries, maintained on every routed query event.
    /// Lets cell migration re-home only the queries on moved cells.
    edge_queries: FxHashMap<EdgeId, Vec<QueryId>>,
    /// Events routed but not yet shipped, one buffer per shard.
    pending: Vec<PendingEvents>,
    /// This tick's edge-weight updates, accumulated once and shipped to
    /// every shard as one shared `Arc` arena at the next dispatch.
    pending_edges: Vec<rnn_core::EdgeWeightUpdate>,
    /// Reused empty arena for dispatch rounds with no edge updates (every
    /// reconcile round after the first), avoiding a per-round allocation.
    empty_arena: Arc<Vec<rnn_core::EdgeWeightUpdate>>,
    /// GMA active-node counts per shard, from the latest outcomes.
    active: Vec<Option<usize>>,
    /// Pre-tick results of queries touched during the current tick, so
    /// reconcile-round flaps that end where they started do not count as
    /// changes.
    changed: FxHashMap<QueryId, Vec<Neighbor>>,
    /// Monitor-side aggregate for the current tick: critical-path elapsed
    /// (max across a round's parallel workers, summed across rounds) and
    /// summed op counters.
    workers_report: TickReport,
    /// The router's own counters — `resync_touched`, `replica_evictions`,
    /// `rebalance_events`, `cells_migrated` — as this tick's slice (reset
    /// when a tick starts, merged into its report) and the lifetime fold
    /// the public getters read. Both only ever move through
    /// [`Self::count`]. `resync_touched` counts *distinct* objects per
    /// maintenance cycle (`resync_seen` dedups revisits when an edge
    /// toggles more than once in a tick), so a single tick's count can
    /// never exceed the object total.
    router_tick: OpCounters,
    router_total: OpCounters,
    resync_seen: FxHashSet<ObjectId>,
    /// Per-shard load observed since the last fold: worker
    /// `expansion_steps` plus routed events, accumulated across every
    /// dispatch round (deterministic — no wall clock).
    tick_load: Vec<u64>,
    /// Smoothed per-shard load estimate (exponential average of
    /// `tick_load` across ticks) — the imbalance detector's input.
    load: Vec<f64>,
    /// Per-cell expansion work observed since the last fold: workers
    /// attribute each expansion's Dijkstra steps to the cell (edge) of the
    /// expansion root, and the charges accumulate here across dispatch
    /// rounds.
    tick_cell_load: FxHashMap<EdgeId, u64>,
    /// Smoothed per-cell load estimate (exponential average of
    /// `tick_cell_load` across ticks). The migration planner ranks
    /// candidate border cells by this *true* cost, falling back to
    /// resident-entity counts for cells that never hosted an expansion.
    cell_load: FxHashMap<EdgeId, f64>,
    /// Ticks since the last rebalance (hysteresis/cooldown counter).
    ticks_since_rebalance: u32,
    /// Shards declared permanently down (`Response::Down`: the link's
    /// transport died and recovery exhausted every retry). A dead shard
    /// owns no cells, holds no halo, and is excluded from every dispatch
    /// and from the rebalance planner; with [`EngineConfig::takeover`] its
    /// former cells were adopted by survivors.
    dead: Vec<bool>,
    /// Lifetime count of dead-shard takeovers executed (each one
    /// [`Self::adopt_dead_shard`] run: the corpse's cells, replicas and
    /// queries re-homed onto survivors).
    takeovers: u64,
    /// The out-of-band ingest stage ([`crate::ingest`]): producers
    /// submit through [`Self::ingest_handle`] clones, and
    /// [`Self::tick_ingest`] drains at tick boundaries.
    ingest: IngestHub,
    /// Reused drain target for [`Self::tick_ingest`] — cleared, refilled
    /// by the hub, and handed to [`ContinuousMonitor::tick`] without
    /// cloning event slices.
    ingest_batch: UpdateBatch,
}

/// Weight of the exponential load smoothing: each tick contributes half,
/// so a hotspot must persist a few ticks before it dominates the estimate
/// (part of the rebalance hysteresis) while a migrated-away hotspot decays
/// just as fast.
const LOAD_SMOOTHING: f64 = 0.5;

/// A rebalance never moves more than this fraction of the hot shard's
/// cells at once — migrations stay incremental even under extreme skew.
const MAX_MIGRATION_FRACTION: f64 = 0.25;

impl ShardedEngine<ShardWorker> {
    /// Partitions `net` and spawns one monitor worker per shard.
    ///
    /// # Panics
    /// Panics if `cfg.num_shards` is outside `1..=64` — shard visibility is
    /// tracked in a 64-bit mask per edge, and a partition needs at least
    /// one shard. Use [`Self::try_new`] for a recoverable error instead.
    pub fn new(net: Arc<RoadNetwork>, cfg: EngineConfig) -> Self {
        Self::try_new(net, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible construction: partitions `net` and spawns one monitor
    /// worker per shard, or reports why the configuration is unusable
    /// (so a coordinator can surface the error over RPC rather than
    /// panicking).
    pub fn try_new(net: Arc<RoadNetwork>, cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        // Per-cell load attribution only feeds the rebalance planner, so
        // workers skip the per-tick charge hand-off entirely when
        // rebalancing is disabled (the default).
        let attribute_cells = cfg.attribute_cells();
        let workers = (0..cfg.num_shards)
            .map(|s| ShardWorker::spawn(s, cfg.make_monitor(net.clone()), attribute_cells))
            .collect();
        Ok(Self::from_parts(net, cfg, workers))
    }
}

impl<L: ShardLink> ShardedEngine<L> {
    /// Builds the engine over pre-established shard links — one per shard,
    /// in shard order. This is how the cluster coordinator reuses the
    /// engine's routing/halo/rebalance logic over RPC links: each link's
    /// far end must run a fresh monitor speaking the
    /// [`crate::protocol`] request/response discipline.
    pub fn with_links(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        links: Vec<L>,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        if links.len() != cfg.num_shards {
            return Err(EngineError::LinkCountMismatch {
                links: links.len(),
                shards: cfg.num_shards,
            });
        }
        Ok(Self::from_parts(net, cfg, links))
    }

    /// Shared constructor body (`cfg.num_shards` already validated).
    fn from_parts(net: Arc<RoadNetwork>, cfg: EngineConfig, workers: Vec<L>) -> Self {
        let partition = NetworkPartition::build(&net, cfg.num_shards);
        let edge_mask = net
            .edge_ids()
            .map(|e| 1u64 << partition.shard_of_edge(e))
            .collect::<Vec<_>>();
        let weights = EdgeWeights::from_base(&net);
        let diam_cache = diameter_bound(&weights);
        let scratch = DijkstraEngine::new(net.num_nodes());
        Self {
            partition,
            weights,
            diam_cache,
            diam_dirty: false,
            scratch,
            workers,
            halo_r: vec![0.0; cfg.num_shards],
            shrink_streak: vec![0; cfg.num_shards],
            halo_edges: (0..cfg.num_shards).map(|_| HaloRing::default()).collect(),
            edge_mask,
            objects: FxHashMap::default(),
            edge_obj: EdgeObjectIndex::new(net.num_edges()),
            queries: FxHashMap::default(),
            edge_queries: FxHashMap::default(),
            pending: (0..cfg.num_shards)
                .map(|_| PendingEvents::default())
                .collect(),
            pending_edges: Vec::new(),
            empty_arena: Arc::new(Vec::new()),
            active: vec![None; cfg.num_shards],
            changed: FxHashMap::default(),
            workers_report: TickReport::default(),
            router_tick: OpCounters::default(),
            router_total: OpCounters::default(),
            resync_seen: FxHashSet::default(),
            tick_load: vec![0; cfg.num_shards],
            load: vec![0.0; cfg.num_shards],
            tick_cell_load: FxHashMap::default(),
            cell_load: FxHashMap::default(),
            ticks_since_rebalance: 0,
            dead: vec![false; cfg.num_shards],
            takeovers: 0,
            ingest: IngestHub::new(cfg.ingest),
            ingest_batch: UpdateBatch::default(),
            net,
            cfg,
        }
    }

    /// The partition the engine runs on.
    pub fn partition(&self) -> &NetworkPartition {
        &self.partition
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.cfg.num_shards
    }

    /// The per-shard links, in shard order (exposed so link-specific
    /// state — e.g. a remote link's transport counters — stays reachable
    /// behind the engine).
    pub fn links(&self) -> &[L] {
        &self.workers
    }

    /// Current halo radius of shard `s`.
    pub fn halo_radius(&self, s: usize) -> f64 {
        self.halo_r[s]
    }

    /// The finite cap applied to "replicate everything" halo demand — an
    /// upper bound on any shortest-path distance under the current
    /// weights — cached, and refreshed (O(E)) only when weights have
    /// changed since it was last needed.
    fn current_diam_bound(&mut self) -> f64 {
        if self.diam_dirty {
            self.diam_cache = diameter_bound(&self.weights);
            self.diam_dirty = false;
        }
        self.diam_cache
    }

    /// Total number of object replicas currently shipped to non-owner
    /// shards (a measure of the replication overhead).
    pub fn replica_count(&self) -> usize {
        self.objects
            .values()
            .map(|o| o.mask.count_ones() as usize - 1)
            .sum()
    }

    /// Lifetime count of objects examined by replica resync (distinct per
    /// maintenance cycle — a tick or an out-of-band install/insert).
    /// Proves the O(changed-edges) claim: a halo rebuild visits only the
    /// residents of the edges whose membership toggled, not the whole
    /// object table, so a single tick can never reach the object count.
    pub fn resync_touched(&self) -> u64 {
        self.router_total.resync_touched
    }

    /// Lifetime count of replicas evicted by halo shrink or halo-membership
    /// loss.
    pub fn replica_evictions(&self) -> u64 {
        self.router_total.replica_evictions
    }

    /// Lifetime count of load-aware rebalances (each one migration of
    /// boundary cells from the most loaded shard to an underloaded
    /// neighbour).
    pub fn rebalance_events(&self) -> u64 {
        self.router_total.rebalance_events
    }

    /// Lifetime count of partition cells (edges) whose ownership moved to
    /// another shard during rebalancing.
    pub fn cells_migrated(&self) -> u64 {
        self.router_total.cells_migrated
    }

    /// Lifetime count of dead-shard takeovers executed: each one is a full
    /// [`Self::adopt_dead_shard`] run, re-homing a permanently-down shard's
    /// cells, replicas and queries onto survivors through the migration
    /// machinery. Stays 0 unless [`EngineConfig::takeover`] is enabled and
    /// a shard actually died.
    pub fn takeovers(&self) -> u64 {
        self.takeovers
    }

    /// A producer handle onto the engine's ingest stage. Clone freely
    /// and hand to feed threads; events queue (under
    /// [`EngineConfig::ingest`]'s bounds and admission policy) until the
    /// driver calls [`Self::tick_ingest`].
    pub fn ingest_handle(&self) -> IngestHandle {
        self.ingest.handle()
    }

    /// Drains everything submitted since the last drain — coalescing
    /// multiple reports per entity to the final position (§4.5) — and
    /// runs one tick over the result. The drain's accounting
    /// (`coalesced_superseded`, `shed_events`, `drain_alloc_events`)
    /// is folded into the returned report's counters.
    ///
    /// With no coalescing triggered, this is bit-identical to building
    /// the same [`UpdateBatch`] by hand in submission order and calling
    /// [`ContinuousMonitor::tick`].
    pub fn tick_ingest(&mut self) -> TickReport {
        let mut batch = std::mem::take(&mut self.ingest_batch);
        batch.clear();
        let stats = self.ingest.drain_into(&mut batch);
        let mut report = self.tick(&batch);
        report.counters.coalesced_superseded += stats.coalesced_superseded;
        report.counters.shed_events += stats.shed_events;
        report.counters.drain_alloc_events += stats.drain_alloc_events;
        self.ingest_batch = batch;
        report
    }

    /// Whether shard `s` has been declared permanently down.
    pub fn is_shard_dead(&self, s: usize) -> bool {
        self.dead[s]
    }

    /// Number of shards still alive.
    pub fn live_shards(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// The smoothed expansion cost attributed to one partition cell (the
    /// edge of the expansion roots charged to it), or 0 when no expansion
    /// has been observed there. The migration planner ranks candidate
    /// border cells by this value plus their resident entities.
    pub fn cell_load(&self, e: EdgeId) -> f64 {
        self.cell_load.get(&e).copied().unwrap_or(0.0)
    }

    /// Monitor-side aggregate of the last tick: critical-path elapsed time
    /// (max across each dispatch round's parallel workers, summed across
    /// rounds) and summed op counters. Excludes the router's own work —
    /// compare with the engine's own `TickReport::elapsed` to see
    /// routing/hand-off overhead.
    pub fn worker_report(&self) -> TickReport {
        self.workers_report
    }

    /// Checks the internal replication invariants, for tests and debugging:
    /// a dead shard owns no cells, holds no halo, is visible on no edge and
    /// homes no query; every object's shard mask matches its edge's
    /// visibility mask, the edge→object and edge→query indexes mirror
    /// their tables exactly, and the per-edge masks are consistent with
    /// ownership plus the halo edge sets.
    pub fn validate_replication(&self) -> Result<(), String> {
        self.partition.validate(&self.net)?;
        // What adoption promises about a corpse: it owns, sees and serves
        // nothing.
        for s in (0..self.cfg.num_shards).filter(|&s| self.dead[s]) {
            let cells = self.partition.view(s).edges.len();
            if cells != 0 {
                return Err(format!("dead shard {s} still owns {cells} cells"));
            }
            if !self.halo_edges[s].is_empty() || self.halo_r[s] != 0.0 {
                return Err(format!(
                    "dead shard {s} still holds a halo (radius {})",
                    self.halo_r[s]
                ));
            }
            if let Some(e) = self
                .net
                .edge_ids()
                .find(|e| self.edge_mask[e.index()] >> s & 1 == 1)
            {
                return Err(format!("dead shard {s} still sees edge {e:?}"));
            }
            if let Some((id, _)) = self.queries.iter().find(|(_, r)| r.shard == s as u32) {
                return Err(format!("query {id:?} is homed on dead shard {s}"));
            }
        }
        let indexed_queries: usize = self.edge_queries.values().map(Vec::len).sum();
        if indexed_queries != self.queries.len() {
            return Err(format!(
                "query index holds {indexed_queries} queries but the registry holds {}",
                self.queries.len()
            ));
        }
        for (&id, rec) in &self.queries {
            if self.partition.shard_of_edge(rec.pos.edge) != rec.shard {
                return Err(format!(
                    "query {id:?} routed to shard {} but its edge {:?} is owned by {}",
                    rec.shard,
                    rec.pos.edge,
                    self.partition.shard_of_edge(rec.pos.edge)
                ));
            }
            if !self
                .edge_queries
                .get(&rec.pos.edge)
                .is_some_and(|b| b.contains(&id))
            {
                return Err(format!(
                    "query {id:?} not indexed on its edge {:?}",
                    rec.pos.edge
                ));
            }
        }
        if self.edge_obj.len() != self.objects.len() {
            return Err(format!(
                "index holds {} objects but the registry holds {}",
                self.edge_obj.len(),
                self.objects.len()
            ));
        }
        for (&id, rec) in &self.objects {
            let expect = self.edge_mask[rec.pos.edge.index()];
            if rec.mask != expect {
                return Err(format!(
                    "object {id:?} on {:?}: mask {:#b} != edge mask {expect:#b}",
                    rec.pos.edge, rec.mask
                ));
            }
            let owner = self.partition.shard_of_edge(rec.pos.edge);
            if rec.mask & (1u64 << owner) == 0 {
                return Err(format!("object {id:?} missing its owner shard {owner}"));
            }
            if !self.edge_obj.objects_on(rec.pos.edge).contains(&id) {
                return Err(format!(
                    "object {id:?} not indexed on its edge {:?}",
                    rec.pos.edge
                ));
            }
        }
        for e in self.net.edge_ids() {
            let mut expect = 1u64 << self.partition.shard_of_edge(e);
            for (s, halo) in self.halo_edges.iter().enumerate() {
                if halo.contains(e) {
                    if self.partition.shard_of_edge(e) == s as u32 {
                        return Err(format!("shard {s} lists its own edge {e:?} as halo"));
                    }
                    expect |= 1u64 << s;
                }
            }
            if self.edge_mask[e.index()] != expect {
                return Err(format!(
                    "edge {e:?}: mask {:#b} != ownership+halo {expect:#b}",
                    self.edge_mask[e.index()]
                ));
            }
        }
        Ok(())
    }

    // --- Halo maintenance -------------------------------------------------

    /// Recomputes shard `s`'s halo edge set under the current weights and
    /// radius (one bounded multi-source Dijkstra from the shard boundary),
    /// adding every edge whose membership toggled to `changed`. Also
    /// refreshes the ring structure (each member's boundary distance) that
    /// [`Self::shrink_halo_ring`] later pops from. A shard at radius zero
    /// has an empty halo before and after, so calling this for it is free.
    fn recompute_halo(&mut self, s: usize, changed: &mut FxHashSet<EdgeId>) {
        let r = self.halo_r[s];
        let mut fresh: FxHashMap<EdgeId, f64> = FxHashMap::default();
        let boundary = &self.partition.view(s).boundary_nodes;
        if r > 0.0 && !boundary.is_empty() {
            self.scratch.begin();
            for &b in boundary {
                self.scratch.seed(b, 0.0, None);
            }
            while let Some((n, d)) = self.scratch.pop_settle() {
                if d > r {
                    break;
                }
                for &(e, m) in self.net.adjacent(n) {
                    if self.partition.shard_of_edge(e) != s as u32 {
                        fresh.entry(e).and_modify(|x| *x = x.min(d)).or_insert(d);
                    }
                    let nd = d + self.weights.get(e);
                    if nd <= r {
                        self.scratch.relax(m, n, nd);
                    }
                }
            }
        }
        self.replace_halo(s, fresh, changed);
    }

    /// Installs `fresh` as shard `s`'s halo membership, flipping bit `s` of
    /// every toggled edge's visibility mask and recording the edge in
    /// `changed`. An empty `fresh` clears the halo.
    fn replace_halo(
        &mut self,
        s: usize,
        fresh: FxHashMap<EdgeId, f64>,
        changed: &mut FxHashSet<EdgeId>,
    ) {
        let bit = 1u64 << s;
        let masks = &mut self.edge_mask;
        self.halo_edges[s].replace_with(fresh, |e, member| {
            if member {
                masks[e.index()] |= bit;
            } else {
                masks[e.index()] &= !bit;
            }
            changed.insert(e);
        });
    }

    /// Ring-structured shrink: after `halo_r[s]` has decayed, drops exactly
    /// the edges in the annulus beyond the new radius by popping the sorted
    /// tail of the ring — O(dropped edges), no Dijkstra re-expansion. A
    /// radius of zero empties the halo (membership requires a settled node
    /// within a *positive* radius, matching [`Self::recompute_halo`]).
    fn shrink_halo_ring(&mut self, s: usize, changed: &mut FxHashSet<EdgeId>) {
        let r = self.halo_r[s];
        let cutoff = if r > 0.0 { r } else { f64::NEG_INFINITY };
        let bit = 1u64 << s;
        while let Some(e) = self.halo_edges[s].pop_beyond(cutoff) {
            self.edge_mask[e.index()] &= !bit;
            changed.insert(e);
        }
    }

    /// Re-derives the desired shard set of every object resident on a
    /// *changed* edge (via the edge→object index) and queues insert/delete
    /// events for the differences. O(objects on changed edges) — the whole
    /// point of this subsystem; see the module docs.
    fn resync_changed(&mut self, changed: &FxHashSet<EdgeId>) {
        let mut touched = 0u64;
        let mut evicted = 0u64;
        for &e in changed {
            let desired = self.edge_mask[e.index()];
            for &id in self.edge_obj.objects_on(e) {
                // An edge can toggle out of and back into halos within one
                // tick (e.g. a weight change followed by reconcile growth);
                // count each object once per cycle so the counter stays a
                // faithful "fraction of N examined" measure.
                if self.resync_seen.insert(id) {
                    touched += 1;
                }
                let rec = self
                    .objects
                    .get_mut(&id)
                    .expect("indexed object must be registered");
                debug_assert_eq!(rec.pos.edge, e, "index bucket out of sync");
                if rec.mask == desired {
                    continue;
                }
                let added = desired & !rec.mask;
                let removed = rec.mask & !desired;
                for s in ShardBits(added) {
                    self.pending[s]
                        .objects
                        .push(ObjectEvent::Insert { id, at: rec.pos });
                }
                for s in ShardBits(removed) {
                    self.pending[s].objects.push(ObjectEvent::Delete { id });
                }
                evicted += u64::from(removed.count_ones());
                rec.mask = desired;
            }
        }
        self.count(OpCounters {
            resync_touched: touched,
            replica_evictions: evicted,
            ..OpCounters::default()
        });
    }

    /// Adds router-side work to this tick's slice and the lifetime fold.
    fn count(&mut self, work: OpCounters) {
        self.router_tick.merge(&work);
        self.router_total.merge(&work);
    }

    // --- Dynamic load-aware re-partitioning -------------------------------

    /// The imbalance detector, run once at the start of every tick. When
    /// rebalancing is enabled (`rebalance_trigger ≥ 1`), the cooldown has
    /// elapsed, and the smoothed per-shard load satisfies
    /// `max > mean × trigger`, one migration of boundary cells runs from
    /// the most loaded shard to an underloaded neighbour.
    fn maybe_rebalance(&mut self) {
        if self.cfg.rebalance_trigger < 1.0 {
            return;
        }
        self.ticks_since_rebalance = self.ticks_since_rebalance.saturating_add(1);
        if self.ticks_since_rebalance <= self.cfg.rebalance_cooldown {
            return;
        }
        let Some((hot, mean)) = self.live_load() else {
            return;
        };
        if self.load[hot] <= mean * self.cfg.rebalance_trigger {
            return;
        }
        let Some((cold, cells)) = self.plan_migration(hot) else {
            return; // no underloaded neighbour shares a border — stand pat
        };
        self.migrate_cells(hot, cold, &cells);
        self.ticks_since_rebalance = 0;
    }

    /// The most loaded live shard and the mean smoothed load over live
    /// shards, or `None` while there is nothing to compare (fewer than two
    /// live shards, or no load observed yet). Dead shards carry no load
    /// (zeroed at takeover), so the sum may run over all of them — but the
    /// mean is over survivors only.
    pub(crate) fn live_load(&self) -> Option<(usize, f64)> {
        let live = self.live_shards();
        let total: f64 = self.load.iter().sum();
        if live < 2 || total <= 0.0 {
            return None;
        }
        let mut hot = usize::MAX;
        for s in (0..self.cfg.num_shards).filter(|&s| !self.dead[s]) {
            if hot == usize::MAX || self.load[s] > self.load[hot] {
                hot = s; // strict: ties resolve to the lowest shard id
            }
        }
        Some((hot, total / live as f64))
    }

    /// Every live shard except `except`, least loaded first (ties by id):
    /// the order in which both the planner and dead-shard adoption look
    /// for a shard to hand cells to.
    fn live_by_load(&self, except: usize) -> Vec<usize> {
        let mut targets: Vec<usize> = (0..self.cfg.num_shards)
            .filter(|&s| s != except && !self.dead[s])
            .collect();
        targets.sort_by(|&a, &b| self.load[a].total_cmp(&self.load[b]).then(a.cmp(&b)));
        targets
    }

    /// The migration planner: picks the least-loaded shard that shares a
    /// border with `hot` and the boundary cells to hand over. Cells are
    /// weighted by their **observed expansion cost** (the smoothed per-cell
    /// charge workers attribute to each expansion root's cell) plus their
    /// resident entities (1 + objects + queries; the fallback signal for
    /// cells that never hosted an expansion), and taken heaviest-first
    /// until roughly half the load gap has moved, capped at
    /// [`MAX_MIGRATION_FRACTION`] of the hot shard's cells so a single
    /// rebalance stays incremental. Fully deterministic: driven by the
    /// deterministic load estimates and sorted by `(weight desc, id)`.
    fn plan_migration(&self, hot: usize) -> Option<(usize, Vec<EdgeId>)> {
        for cold in self.live_by_load(hot) {
            if self.load[cold] >= self.load[hot] {
                break; // only ever move load downhill
            }
            let cells = self
                .partition
                .boundary_cells_between(&self.net, hot as u32, cold as u32);
            if cells.is_empty() {
                continue; // not adjacent; try the next-coldest shard
            }
            let cell_weight = |e: EdgeId| -> u64 {
                1 + self.cell_load.get(&e).map_or(0, |&v| v.round() as u64)
                    + self.edge_obj.objects_on(e).len() as u64
                    + self.edge_queries.get(&e).map_or(0, |v| v.len() as u64)
            };
            let hot_weight: u64 = self
                .partition
                .view(hot)
                .edges
                .iter()
                .map(|&e| cell_weight(e))
                .sum();
            // Share of the hot shard's resident weight that should move:
            // half the relative load gap to the target.
            let gap = (self.load[hot] - self.load[cold]) / (2.0 * self.load[hot]);
            let target_weight = (hot_weight as f64 * gap).ceil() as u64;
            let cap = ((self.partition.view(hot).edges.len() as f64 * MAX_MIGRATION_FRACTION)
                .floor() as usize)
                .clamp(1, cells.len());
            let mut ranked: Vec<(u64, EdgeId)> =
                cells.into_iter().map(|e| (cell_weight(e), e)).collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut chosen = Vec::new();
            let mut moved_weight = 0u64;
            for (w, e) in ranked {
                if chosen.len() >= cap || (moved_weight >= target_weight && !chosen.is_empty()) {
                    break;
                }
                chosen.push(e);
                moved_weight += w;
            }
            if !chosen.is_empty() {
                return Some((cold, chosen));
            }
        }
        None
    }

    /// Executes one planned migration: plan → hand off once → settle.
    fn migrate_cells(&mut self, hot: usize, cold: usize, cells: &[EdgeId]) {
        let mut changed = FxHashSet::default();
        self.hand_off(hot, cold, cells, &mut changed);
        self.count(OpCounters {
            rebalance_events: 1,
            cells_migrated: cells.len() as u64,
            ..OpCounters::default()
        });
        self.settle_hand_off([hot, cold], changed);
    }

    /// The one place cell ownership moves: reassigns `cells` from shard
    /// `from` to shard `to` in the partition, transfers their visibility
    /// bit (recording each cell in `changed` so its residents resync), and
    /// re-homes the queries living on them — `Remove` at the old owner,
    /// `Install` at the new, which recomputes the result from scratch
    /// (the coordinator's cached result is kept and must be re-confirmed
    /// by the installed query's first snapshot). `from` may be a corpse:
    /// [`Self::dispatch_pending`] discards whatever is addressed to one.
    ///
    /// The strict request/response worker protocol is the pause/resume
    /// barrier: no request is in flight when the partition mutates, and
    /// [`Self::settle_hand_off`] blocks on every shard's response before
    /// the tick proceeds — workers never observe a half-moved partition.
    fn hand_off(
        &mut self,
        from: usize,
        to: usize,
        cells: &[EdgeId],
        changed: &mut FxHashSet<EdgeId>,
    ) {
        let moves: Vec<(EdgeId, u32)> = cells.iter().map(|&e| (e, to as u32)).collect();
        self.partition.reassign(&self.net, &moves);
        let (from_bit, to_bit) = (1u64 << from, 1u64 << to);
        for &e in cells {
            // A moved cell may sit in the new owner's halo ring; it is now
            // owned, so drop it from the ring before the mask transfer (a
            // halo recompute excludes owned edges by construction).
            self.halo_edges[to].remove(e);
            self.edge_mask[e.index()] = (self.edge_mask[e.index()] & !from_bit) | to_bit;
            changed.insert(e);
            let Some(bucket) = self.edge_queries.get(&e) else {
                continue;
            };
            let mut qids = bucket.clone();
            qids.sort_unstable();
            for id in qids {
                let rec = self.queries.get_mut(&id).expect("indexed query registered");
                debug_assert_eq!(rec.pos.edge, e, "query index bucket out of sync");
                if rec.shard == from as u32 {
                    let (k, at) = (rec.k, rec.pos);
                    self.pending[from].queries.push(QueryEvent::Remove { id });
                    self.pending[to]
                        .queries
                        .push(QueryEvent::Install { id, k, at });
                    rec.shard = to as u32;
                }
            }
        }
    }

    /// The tail every hand-off shares. The shards in `moved_borders` had
    /// their boundary-node sets change, so their halo memberships are
    /// re-derived under the new border; every other shard's halo stays
    /// exactly valid (a moved cell was foreign to it before and after).
    /// Then the residents of every changed edge are handed off — O(moved
    /// cells + toggled halo edges) through the edge→object index, objects
    /// resyncing from the coordinator's registry — and the batch ships and
    /// halos grow until every re-homed query's result is covered again:
    /// the same loop that makes installs answer-identical makes planned
    /// migrations and dead-shard adoptions answer-identical.
    fn settle_hand_off(
        &mut self,
        moved_borders: impl IntoIterator<Item = usize>,
        mut changed: FxHashSet<EdgeId>,
    ) {
        for s in moved_borders {
            self.recompute_halo(s, &mut changed);
        }
        self.resync_changed(&changed);
        self.dispatch_pending(BatchKind::Migration);
        self.reconcile();
    }

    // --- Dead-shard takeover ----------------------------------------------

    /// Reacts to a shard link reporting itself permanently down. Without
    /// [`EngineConfig::takeover`] this keeps the historical contract — a
    /// lost shard is fatal. With it, recovery is rebalance away from a
    /// corpse: bury it (it neither receives nor reports anything any more,
    /// and its halo replicas die with it), peel its cells onto survivors
    /// through [`Self::hand_off`], and settle exactly as a planned
    /// migration does.
    ///
    /// # Panics
    /// Panics when takeover is disabled, or when no live shard remains to
    /// adopt the corpse's cells.
    fn adopt_dead_shard(&mut self, dead: usize) {
        if self.dead[dead] {
            return; // already buried (a late Down from a nested dispatch)
        }
        assert!(
            self.cfg.takeover,
            "shard {dead} is permanently down (transport dead, recovery retries exhausted) \
             and EngineConfig::takeover is disabled"
        );
        self.dead[dead] = true;
        self.takeovers += 1;
        assert!(
            self.live_shards() > 0,
            "every shard is dead — no survivor can adopt shard {dead}'s cells"
        );
        self.active[dead] = None;
        self.load[dead] = 0.0;
        self.tick_load[dead] = 0;
        self.halo_r[dead] = 0.0;
        self.shrink_streak[dead] = 0;
        // Clearing the ring clears the corpse's bit on every member edge,
        // so resync queues the (discarded) deletes and the masks stay the
        // invariant `ownership + live halos`.
        let mut changed = FxHashSet::default();
        self.replace_halo(dead, FxHashMap::default(), &mut changed);
        let adopters = self.peel_cells(dead, &mut changed);
        self.settle_hand_off(ShardBits(adopters), changed);
    }

    /// Hands every cell of shard `from` to the other live shards: cells
    /// peel off along shared borders to the least-loaded adjacent shard
    /// (keeping regions as connected as the planner would), with a bulk
    /// hand-off to the least-loaded shard as the fallback for a remainder
    /// that borders none of them (an island of `from`'s region). Returns
    /// the adopters as a shard bit set.
    fn peel_cells(&mut self, from: usize, changed: &mut FxHashSet<EdgeId>) -> u64 {
        let targets = self.live_by_load(from);
        let mut adopters = 0u64;
        while !self.partition.view(from).edges.is_empty() {
            let bordering = targets.iter().find_map(|&to| {
                let cells =
                    self.partition
                        .boundary_cells_between(&self.net, from as u32, to as u32);
                (!cells.is_empty()).then_some((to, cells))
            });
            let (to, cells) =
                bordering.unwrap_or_else(|| (targets[0], self.partition.view(from).edges.clone()));
            self.hand_off(from, to, &cells, changed);
            adopters |= 1u64 << to;
        }
        adopters
    }

    // --- Dispatch ---------------------------------------------------------

    /// Ships every non-empty pending delta to its shard (the tick's edge
    /// updates ride along as one shared arena), waits for all outcomes, and
    /// folds them into the engine's caches. `kind` names the engine phase
    /// dispatching (tick / resync / migration) — shard processing is
    /// identical, but RPC links give each phase its own typed frame.
    /// Returns `true` if anything was sent.
    fn dispatch_pending(&mut self, kind: BatchKind) -> bool {
        let arena = if self.pending_edges.is_empty() {
            self.empty_arena.clone()
        } else {
            Arc::new(std::mem::take(&mut self.pending_edges))
        };
        let mut sent = 0u64;
        for s in 0..self.cfg.num_shards {
            let own = &mut self.pending[s];
            if self.dead[s] {
                // A corpse acknowledges nothing: anything still routed at it
                // (e.g. the Delete events resync queues while clearing its
                // replica bits) is discarded unsent.
                own.objects.clear();
                own.queries.clear();
                continue;
            }
            if own.objects.is_empty() && own.queries.is_empty() && arena.is_empty() {
                continue;
            }
            // Routed events are half the shard-load signal (the other half
            // is the worker's expansion_steps, folded in on receive).
            self.tick_load[s] += (own.objects.len() + own.queries.len()) as u64;
            let delta = DeltaBatch {
                objects: std::mem::take(&mut own.objects),
                queries: std::mem::take(&mut own.queries),
                shared_edges: arena.clone(),
                kind,
            };
            self.workers[s].send(Request::Tick(delta));
            sent |= 1u64 << s;
        }
        // Workers in one round run in parallel, so their reports fold with
        // max-elapsed semantics; successive rounds are sequential and add.
        let mut round = TickReport::default();
        let mut died = 0u64;
        for s in ShardBits(sent) {
            match self.workers[s].recv() {
                Response::Tick(outcome) => {
                    self.tick_load[s] += outcome.report.counters.expansion_steps;
                    for (e, steps) in outcome.cell_charges {
                        *self.tick_cell_load.entry(e).or_insert(0) += steps;
                    }
                    round.absorb_parallel(&outcome.report);
                    self.active[s] = outcome.active_groups;
                    for snap in outcome.snapshots {
                        let Some(rec) = self.queries.get_mut(&snap.id) else {
                            continue;
                        };
                        if rec.shard != s as u32 {
                            continue; // stale snapshot of a query mid-migration
                        }
                        rec.knn_dist = snap.knn_dist;
                        if rec.result != snap.result {
                            self.changed
                                .entry(snap.id)
                                .or_insert_with(|| rec.result.clone());
                            rec.result = snap.result;
                        }
                    }
                }
                Response::Down => {
                    // The link's transport died and its bounded recovery
                    // exhausted every retry. The shard's tick (including
                    // whatever we just sent it) is lost; survivors take
                    // over below, or the engine refuses to run degraded.
                    died |= 1u64 << s;
                }
                Response::Memory(_) | Response::Snapshot(_) | Response::Restored(_) => {
                    unreachable!("non-tick response to a tick request")
                }
            }
        }
        self.workers_report.elapsed += round.elapsed;
        self.workers_report.counters.merge(&round.counters);
        for s in ShardBits(died) {
            self.adopt_dead_shard(s);
        }
        sent != 0
    }

    /// Grows halos until every query's `kNN_dist` is covered by its
    /// shard's halo radius, shipping newly visible objects as needed (see
    /// the module docs for why this terminates). Underfull demand (∞) is
    /// capped at the diameter bound, which already covers everything
    /// reachable. Returns the final per-shard needed radii, which the
    /// shrink pass reuses.
    fn reconcile(&mut self) -> Vec<f64> {
        let mut changed = FxHashSet::default();
        loop {
            let mut needed = vec![0.0f64; self.cfg.num_shards];
            for rec in self.queries.values() {
                let s = rec.shard as usize;
                needed[s] = needed[s].max(rec.knn_dist);
            }
            // Only underfull demand (∞) needs the diameter cap, and only
            // then is the (possibly O(E)) bound refresh worth paying.
            if needed.iter().any(|n| n.is_infinite()) {
                let cap = self.current_diam_bound();
                for n in &mut needed {
                    if n.is_infinite() {
                        *n = cap;
                    }
                }
            }
            changed.clear();
            for (s, &need) in needed.iter().enumerate() {
                if need > self.halo_r[s] {
                    self.halo_r[s] = need * (1.0 + self.cfg.halo_slack);
                    self.recompute_halo(s, &mut changed);
                }
            }
            self.resync_changed(&changed);
            if !self.dispatch_pending(BatchKind::Resync) {
                return needed;
            }
        }
    }

    /// The lazy half of the replica lifecycle: when a shard's halo radius
    /// has exceeded its demand (with slack and the hysteresis trigger
    /// ratio) for `halo_shrink_ticks` consecutive ticks, decay it to the
    /// demanded radius and evict the replicas beyond it. Safe by the same
    /// argument as growth, in reverse: everything evicted is farther from
    /// the boundary than every owned query's `kNN_dist`.
    fn maybe_shrink_halos(&mut self, needed: &[f64]) {
        let slack = 1.0 + self.cfg.halo_slack;
        let trigger = self.cfg.halo_shrink_trigger.max(1.0);
        let patience = self.cfg.halo_shrink_ticks.max(1);
        let mut changed = FxHashSet::default();
        for (s, &need) in needed.iter().enumerate() {
            let target = need * slack;
            if self.halo_r[s] > target * trigger {
                self.shrink_streak[s] += 1;
                if self.shrink_streak[s] >= patience {
                    self.halo_r[s] = target;
                    // Decay-only change: drop the outer annulus from the
                    // ring instead of re-running the boundary Dijkstra.
                    self.shrink_halo_ring(s, &mut changed);
                    self.shrink_streak[s] = 0;
                }
            } else {
                self.shrink_streak[s] = 0;
            }
        }
        if !changed.is_empty() {
            self.resync_changed(&changed);
            self.dispatch_pending(BatchKind::Resync);
        }
    }

    // --- Event routing ----------------------------------------------------

    fn route_object_event(&mut self, ev: &ObjectEvent) {
        match *ev {
            // A move of an unknown object is an appearance, matching the
            // monitors' own coalescing (state.rs).
            ObjectEvent::Move { id, to } | ObjectEvent::Insert { id, at: to } => {
                let desired = self.edge_mask[to.edge.index()];
                let rec = ObjRec {
                    pos: to,
                    mask: desired,
                };
                // Nobody holds an unknown object, so every desired shard
                // gets an Insert.
                let old = match self.objects.insert(id, rec) {
                    Some(old) => {
                        self.edge_obj.relocate(old.pos.edge, to.edge, id);
                        old.mask
                    }
                    None => {
                        self.edge_obj.insert(to.edge, id);
                        0
                    }
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
                if let Some(rec) = self.objects.remove(&id) {
                    self.edge_obj.remove(rec.pos.edge, id);
                    for s in ShardBits(rec.mask) {
                        self.pending[s].objects.push(ObjectEvent::Delete { id });
                    }
                }
            }
        }
    }

    /// Drops `id` from the edge→query index bucket of `e`.
    fn unindex_query(&mut self, e: EdgeId, id: QueryId) {
        if let Some(bucket) = self.edge_queries.get_mut(&e) {
            if let Some(i) = bucket.iter().position(|&q| q == id) {
                bucket.swap_remove(i);
            }
            if bucket.is_empty() {
                self.edge_queries.remove(&e);
            }
        }
    }

    fn route_query_event(&mut self, ev: &QueryEvent) {
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
                }
                if from_edge != to.edge {
                    self.unindex_query(from_edge, id);
                    self.edge_queries.entry(to.edge).or_default().push(id);
                }
            }
            QueryEvent::Install { id, k, at } => {
                let shard = self.partition.shard_of_edge(at.edge);
                let old = self.queries.insert(
                    id,
                    QueryRec {
                        k,
                        shard,
                        pos: at,
                        knn_dist: f64::INFINITY,
                        result: Vec::new(),
                    },
                );
                if let Some(old) = old {
                    if old.shard != shard {
                        self.pending[old.shard as usize]
                            .queries
                            .push(QueryEvent::Remove { id });
                    }
                    // Same shard: no Remove — the monitors coalesce a
                    // re-Install of a known query into an update (pinned by
                    // the duplicate-install differential test).
                    if old.pos.edge != at.edge {
                        self.unindex_query(old.pos.edge, id);
                        self.edge_queries.entry(at.edge).or_default().push(id);
                    }
                } else {
                    self.edge_queries.entry(at.edge).or_default().push(id);
                }
                self.pending[shard as usize]
                    .queries
                    .push(QueryEvent::Install { id, k, at });
            }
            QueryEvent::Remove { id } => {
                if let Some(rec) = self.queries.remove(&id) {
                    self.unindex_query(rec.pos.edge, id);
                    self.pending[rec.shard as usize]
                        .queries
                        .push(QueryEvent::Remove { id });
                }
            }
        }
    }
}

impl<L: ShardLink> ContinuousMonitor for ShardedEngine<L> {
    fn name(&self) -> &'static str {
        "SHARDED"
    }

    fn apply(&mut self, event: UpdateEvent) -> TickReport {
        match event {
            UpdateEvent::Object(ObjectEvent::Insert { id, at }) => {
                self.route_object_event(&ObjectEvent::Insert { id, at });
                // During bulk loading (no queries yet) the events stay
                // buffered and ship with the next install/tick. With live
                // queries the insert must be visible immediately, like in
                // the single monitors.
                if !self.queries.is_empty() {
                    self.resync_seen.clear();
                    self.dispatch_pending(BatchKind::Tick);
                    self.reconcile();
                }
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Install { id, k, at }) => {
                self.route_query_event(&QueryEvent::Install { id, k, at });
                self.resync_seen.clear();
                self.dispatch_pending(BatchKind::Tick);
                self.reconcile();
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Remove { id }) => {
                self.route_query_event(&QueryEvent::Remove { id });
                self.dispatch_pending(BatchKind::Tick);
                // The freed halo radius decays on subsequent ticks
                // (hysteresis), not here: eager shrinking would thrash on
                // remove+reinstall.
                TickReport::default()
            }
            other => {
                let mut batch = UpdateBatch::default();
                batch.push(other);
                self.tick(&batch)
            }
        }
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        self.changed.clear();
        self.workers_report = TickReport::default();
        self.router_tick = OpCounters::default();
        self.resync_seen.clear();

        // 0. Load-aware re-partitioning: if the previous ticks' load
        //    estimates show a persistent hot shard, migrate boundary cells
        //    before this tick's updates land (no-op unless
        //    `rebalance_trigger` enables it).
        self.maybe_rebalance();

        // 1. Edge updates: apply to the authoritative weights and stage
        //    them *once* — dispatch hands every shard the same Arc'd slice
        //    (every shard keeps a full weight table; its influence lists
        //    drop irrelevant ones cheaply).
        if !batch.edges.is_empty() {
            for u in &batch.edges {
                self.weights.set(u.edge, u.new_weight);
            }
            self.pending_edges.extend_from_slice(&batch.edges);
            self.diam_dirty = true;
            // 2. Halo membership is defined in weighted distances, so
            //    weight changes can move edges in or out of halos.
            let mut changed = FxHashSet::default();
            for s in 0..self.cfg.num_shards {
                self.recompute_halo(s, &mut changed);
            }
            self.resync_changed(&changed);
        }

        // 3. Route the object and query streams onto the owning shards.
        for ev in &batch.objects {
            self.route_object_event(ev);
        }
        for ev in &batch.queries {
            self.route_query_event(ev);
        }

        // 4. Fan out, grow halos until every result is covered, then let
        //    oversized halos decay.
        self.dispatch_pending(BatchKind::Tick);
        let needed = self.reconcile();
        self.maybe_shrink_halos(&needed);

        // A query counts as changed only if its final result differs from
        // its pre-tick result — reconcile-round flaps that end where they
        // started do not count, matching a single monitor's report.
        let results_changed = self
            .changed
            .iter()
            .filter(|(id, before)| {
                self.queries
                    .get(id)
                    .is_some_and(|rec| rec.result != **before)
            })
            .count();

        // Fold this tick's per-shard load observations into the smoothed
        // estimates the imbalance detector reads next tick.
        for s in 0..self.cfg.num_shards {
            let observed = std::mem::take(&mut self.tick_load[s]) as f64;
            self.load[s] = self.load[s] * (1.0 - LOAD_SMOOTHING) + observed * LOAD_SMOOTHING;
        }
        // Same fold per cell: decay every known cell, add this tick's
        // observed charges, and drop cells whose estimate has decayed to
        // noise so the map tracks the live hot set, not history.
        if !self.cell_load.is_empty() || !self.tick_cell_load.is_empty() {
            for v in self.cell_load.values_mut() {
                *v *= 1.0 - LOAD_SMOOTHING;
            }
            for (e, steps) in self.tick_cell_load.drain() {
                *self.cell_load.entry(e).or_insert(0.0) += steps as f64 * LOAD_SMOOTHING;
            }
            self.cell_load.retain(|_, v| *v >= 0.5);
        }

        let mut counters = self.workers_report.counters;
        counters.merge(&self.router_tick);
        // Router-side allocation/step accounting: the halo scratch engine
        // and the edge→object arena (the workers' own counters already
        // arrived through their tick reports).
        counters.alloc_events +=
            self.scratch.take_alloc_events() + self.edge_obj.take_alloc_events();
        counters.expansion_steps += self.scratch.take_expansion_steps();
        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|r| r.result.as_slice())
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        self.queries.get(&id).map(|r| r.knn_dist)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    fn memory(&self) -> MemoryUsage {
        let mut total = MemoryUsage::default();
        for (s, w) in self.workers.iter().enumerate() {
            if !self.dead[s] {
                w.send(Request::Memory);
            }
        }
        for (s, w) in self.workers.iter().enumerate() {
            if self.dead[s] {
                continue;
            }
            match w.recv() {
                Response::Memory(m) => {
                    total.edge_table += m.edge_table;
                    total.query_table += m.query_table;
                    total.expansion_trees += m.expansion_trees;
                    total.influence_lists += m.influence_lists;
                    total.auxiliary += m.auxiliary;
                }
                // A shard can die between ticks too; `memory` takes `&self`
                // so the burial waits for the next dispatch to observe the
                // Down — here the shard simply contributes nothing.
                Response::Down => {}
                Response::Tick(_) | Response::Snapshot(_) | Response::Restored(_) => {
                    unreachable!("unexpected response to a memory request")
                }
            }
        }
        // Router state: registries, masks, halo sets, edge→object index.
        total.auxiliary += self.edge_mask.capacity() * std::mem::size_of::<u64>()
            + self.objects.capacity()
                * (std::mem::size_of::<ObjectId>() + std::mem::size_of::<ObjRec>())
            + self.queries.capacity()
                * (std::mem::size_of::<QueryId>() + std::mem::size_of::<QueryRec>())
            + self
                .halo_edges
                .iter()
                .map(HaloRing::memory_bytes)
                .sum::<usize>()
            + self
                .edge_queries
                .values()
                .map(|b| b.capacity() * std::mem::size_of::<QueryId>())
                .sum::<usize>()
            + self.edge_obj.memory_bytes()
            + self.cell_load.capacity()
                * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<f64>())
            + self.weights.memory_bytes();
        total
    }

    fn active_groups(&self) -> Option<usize> {
        self.active.iter().flatten().copied().reduce(|a, b| a + b)
    }

    fn shard_load_ratio(&self) -> Option<f64> {
        self.live_load().map(|(hot, mean)| self.load[hot] / mean)
    }
}

/// An upper bound on any shortest-path distance under `weights`: shortest
/// paths are simple, so no path exceeds the sum of all edge weights. The
/// tiny relative margin absorbs summation-order rounding.
fn diameter_bound(weights: &EdgeWeights) -> f64 {
    weights.total() * (1.0 + 1e-9)
}

/// Iterator over the set bits of a shard mask.
struct ShardBits(u64);

impl Iterator for ShardBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let s = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardAlgo;
    use rnn_roadnet::generators::{grid_city, GridCityConfig};

    fn net() -> Arc<RoadNetwork> {
        Arc::new(grid_city(&GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 9,
            ..Default::default()
        }))
    }

    fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: shards,
                algo: ShardAlgo::Ima,
                halo_slack: 0.25,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn basic_install_and_query() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..20u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            5,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let r = eng.result(QueryId(0)).unwrap();
        assert_eq!(r.len(), 5);
        for w in r.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(eng.knn_dist(QueryId(0)).unwrap(), r[4].dist);
        assert_eq!(eng.query_ids(), vec![QueryId(0)]);
        eng.validate_replication().unwrap();
    }

    #[test]
    fn halo_grows_to_cover_results() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..6u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 11) % n), 0.3),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(1),
            4,
            NetPoint::new(EdgeId(2), 0.1),
        ));
        let q = &eng.queries[&QueryId(1)];
        let s = q.shard as usize;
        assert!(
            eng.halo_radius(s) >= q.knn_dist || q.knn_dist == 0.0,
            "halo {} < kNN_dist {}",
            eng.halo_radius(s),
            q.knn_dist
        );
    }

    #[test]
    fn single_shard_needs_no_replicas() {
        let mut eng = engine(1);
        let n = eng.net.num_edges() as u32;
        for i in 0..10u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % n), 0.6),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            3,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        assert_eq!(eng.replica_count(), 0);
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
    }

    #[test]
    fn empty_tick_reports_nothing() {
        let mut eng = engine(2);
        let n = eng.net.num_edges() as u32;
        for i in 0..10u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % n), 0.6),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            3,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        let before = eng.result(QueryId(0)).unwrap().to_vec();
        let rep = eng.tick(&UpdateBatch::default());
        assert_eq!(rep.results_changed, 0);
        assert_eq!(eng.result(QueryId(0)).unwrap(), before.as_slice());
    }

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

    #[test]
    fn memory_aggregates_across_shards() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..20u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            5,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let m = eng.memory();
        assert!(m.total_bytes() > 0);
        assert!(m.auxiliary > 0);
    }

    // --- Shard-count validation (regression: 0 broke the partitioner,
    // ≥ 65 overflowed the 64-bit shard masks) --------------------------

    #[test]
    #[should_panic(expected = "num_shards must be in 1..=64")]
    fn rejects_zero_shards() {
        let _ = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 0,
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "num_shards must be in 1..=64")]
    fn rejects_sixty_five_shards() {
        let _ = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 65,
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    fn accepts_sixty_four_shards() {
        // The documented maximum must actually work: shard 63 uses the
        // mask's top bit without overflowing.
        let big = Arc::new(grid_city(&GridCityConfig {
            nx: 9,
            ny: 9,
            seed: 5,
            ..Default::default()
        }));
        let mut eng = ShardedEngine::new(
            big.clone(),
            EngineConfig {
                num_shards: 64,
                algo: ShardAlgo::Ima,
                ..EngineConfig::default()
            },
        );
        let n = big.num_edges() as u32;
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 7) % n), 0.5),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            3,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
        eng.validate_replication().unwrap();
    }

    // --- Incremental resync and the replica lifecycle -----------------

    #[test]
    fn resync_touches_fewer_objects_than_total() {
        // Dense objects keep kNN_dist (and thus the halo) small, so a halo
        // grow event must resync only the residents of the few edges that
        // joined — strictly fewer than the object total. The query sits on
        // a shard-boundary edge so the grown halo is guaranteed to reach
        // across the border.
        let mut eng = engine(4);
        let n = eng.net.num_edges();
        for (i, e) in (0..n).enumerate() {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i as u32),
                NetPoint::new(EdgeId(e as u32), 0.5),
            ));
        }
        assert_eq!(eng.resync_touched(), 0, "no halo yet, no resync");
        let border = eng
            .net
            .edge_ids()
            .find(|&e| {
                let s = eng.partition.shard_of_edge(e);
                let rec = eng.net.edge(e);
                [rec.start, rec.end].into_iter().any(|node| {
                    eng.net
                        .adjacent(node)
                        .iter()
                        .any(|&(e2, _)| eng.partition.shard_of_edge(e2) != s)
                })
            })
            .expect("a 4-way split has boundary edges");
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            4,
            NetPoint::new(border, 0.5),
        ));
        let touched = eng.resync_touched();
        assert!(touched > 0, "halo growth must resync the edges that joined");
        assert!(
            touched < n as u64,
            "resync touched {touched} of {n} objects — not incremental"
        );
        eng.validate_replication().unwrap();

        // Same claim on a *tick* where a shard's halo grows: widening the
        // query (k 4 → 12) forces growth, and the tick's own counters must
        // show a resync strictly smaller than the object total.
        let radius_before = eng.halo_radius(eng.queries[&QueryId(0)].shard as usize);
        let mut batch = UpdateBatch::default();
        batch.queries.push(QueryEvent::Install {
            id: QueryId(0),
            k: 12,
            at: NetPoint::new(border, 0.5),
        });
        let rep = eng.tick(&batch);
        assert!(
            eng.halo_radius(eng.queries[&QueryId(0)].shard as usize) > radius_before,
            "k=12 must widen the halo"
        );
        assert!(rep.counters.resync_touched > 0);
        assert!(
            rep.counters.resync_touched < n as u64,
            "grow tick resynced {} of {n} objects — not incremental",
            rep.counters.resync_touched
        );
        eng.validate_replication().unwrap();
    }

    #[test]
    fn halo_shrinks_and_evicts_after_query_removal() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..40u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            8,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        assert!(eng.replica_count() > 0, "k=8 must replicate across borders");
        eng.apply(UpdateEvent::remove_query(QueryId(0)));
        // Demand is gone; the hysteresis lets the halo decay within
        // halo_shrink_ticks quiet ticks.
        for _ in 0..eng.cfg.halo_shrink_ticks + 1 {
            eng.tick(&UpdateBatch::default());
        }
        for s in 0..eng.num_shards() {
            assert_eq!(eng.halo_radius(s), 0.0, "shard {s} halo did not decay");
        }
        assert_eq!(eng.replica_count(), 0, "stale replicas were not evicted");
        assert!(eng.replica_evictions() > 0);
        eng.validate_replication().unwrap();
    }

    #[test]
    fn underfull_demand_is_capped_at_diameter_bound() {
        // k exceeds the object count: kNN_dist stays ∞, which used to pin
        // halo_r at ∞ permanently. It must now cap at the finite diameter
        // bound (and still see every object).
        let mut eng = engine(4);
        for i in 0..3u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i * 13), 0.5),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            10,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
        assert_eq!(eng.knn_dist(QueryId(0)).unwrap(), f64::INFINITY);
        let s = eng.queries[&QueryId(0)].shard as usize;
        assert!(
            eng.halo_radius(s).is_finite(),
            "underfull demand must not produce an infinite radius"
        );
        assert!(
            eng.halo_radius(s) <= diameter_bound(&eng.weights) * (1.0 + eng.cfg.halo_slack) + 1e-9
        );
        eng.validate_replication().unwrap();
    }

    // --- Dynamic load-aware re-partitioning ----------------------------

    /// Installs objects on every edge and a tight query cluster on one
    /// shard, then churns the cluster every tick so all monitor work lands
    /// on that shard.
    fn hotspot_setup(eng: &mut ShardedEngine) -> Vec<(QueryId, EdgeId)> {
        let n = eng.net.num_edges();
        for (i, e) in (0..n).enumerate() {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i as u32),
                NetPoint::new(EdgeId(e as u32), 0.5),
            ));
        }
        let hot = eng.partition.shard_of_edge(EdgeId(0));
        let cluster: Vec<EdgeId> = eng
            .net
            .edge_ids()
            .filter(|&e| eng.partition.shard_of_edge(e) == hot)
            .take(6)
            .collect();
        let mut placed = Vec::new();
        for (q, &e) in cluster.iter().enumerate() {
            eng.apply(UpdateEvent::install_query(
                QueryId(q as u32),
                4,
                NetPoint::new(e, 0.25),
            ));
            placed.push((QueryId(q as u32), e));
        }
        placed
    }

    fn churn_tick(t: u32, placed: &[(QueryId, EdgeId)]) -> UpdateBatch {
        let mut batch = UpdateBatch::default();
        for &(q, e) in placed {
            let frac = if t % 2 == 0 { 0.2 } else { 0.8 };
            batch.queries.push(QueryEvent::Move {
                id: q,
                to: NetPoint::new(e, frac),
            });
        }
        batch
    }

    #[test]
    fn rebalancing_is_disabled_by_default() {
        let mut eng = engine(4);
        let placed = hotspot_setup(&mut eng);
        for t in 0..12 {
            eng.tick(&churn_tick(t, &placed));
        }
        assert_eq!(eng.rebalance_events(), 0);
        assert_eq!(eng.cells_migrated(), 0);
        // The skew is visible in the load estimates even though nothing
        // acts on it.
        assert!(eng.shard_load_ratio().unwrap() > 1.5);
    }

    #[test]
    fn hotspot_triggers_migration_and_improves_balance() {
        let mk = |trigger: f64| {
            ShardedEngine::new(
                net(),
                EngineConfig {
                    num_shards: 4,
                    algo: ShardAlgo::Ima,
                    rebalance_trigger: trigger,
                    rebalance_cooldown: 2,
                    ..EngineConfig::default()
                },
            )
        };
        let mut fixed = mk(0.0);
        let mut dynamic = mk(1.1);
        let placed_f = hotspot_setup(&mut fixed);
        let placed_d = hotspot_setup(&mut dynamic);
        assert_eq!(placed_f, placed_d, "identical partitions, identical setup");
        let mut reported_rebalances = 0u64;
        let mut reported_cells = 0u64;
        for t in 0..20 {
            let batch = churn_tick(t, &placed_f);
            fixed.tick(&batch);
            let rep = dynamic.tick(&batch);
            reported_rebalances += rep.counters.rebalance_events;
            reported_cells += rep.counters.cells_migrated;
            dynamic.validate_replication().unwrap();
            // Answer identity under migration: both engines agree (same
            // convention as the differential suite — 1e-9 relative
            // tolerance absorbs summation-order rounding when a migrated
            // query is recomputed by its new shard).
            let mut ids = fixed.query_ids();
            ids.sort();
            for q in ids {
                let (a, b) = (fixed.result(q).unwrap(), dynamic.result(q).unwrap());
                assert_eq!(a.len(), b.len(), "tick {t}, {q:?}");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x.dist - y.dist).abs() <= 1e-9 * x.dist.abs().max(1.0),
                        "tick {t}, {q:?}: {} vs {}",
                        x.dist,
                        y.dist
                    );
                }
            }
        }
        assert!(dynamic.rebalance_events() > 0, "hotspot must trigger");
        assert!(dynamic.cells_migrated() > 0);
        // The per-tick counter slices add up to the lifetime totals.
        assert_eq!(reported_rebalances, dynamic.rebalance_events());
        assert_eq!(reported_cells, dynamic.cells_migrated());
        let (rf, rd) = (
            fixed.shard_load_ratio().unwrap(),
            dynamic.shard_load_ratio().unwrap(),
        );
        assert!(
            rd < rf,
            "rebalancing must improve the load ratio: {rd} !< {rf}"
        );
        // The lifetime totals flowed into OpCounters as well.
        assert_eq!(fixed.cells_migrated(), 0);
    }

    #[test]
    fn migration_preserves_partition_and_query_routing() {
        let mut eng = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 2,
                algo: ShardAlgo::Gma,
                rebalance_trigger: 1.0,
                rebalance_cooldown: 1,
                ..EngineConfig::default()
            },
        );
        let placed = hotspot_setup(&mut eng);
        for t in 0..14 {
            eng.tick(&churn_tick(t, &placed));
            eng.validate_replication().unwrap();
            eng.partition.validate(&eng.net).unwrap();
        }
        assert!(eng.cells_migrated() > 0);
        // Every clustered query still answers with k results from its
        // (possibly new) owner shard.
        for &(q, _) in &placed {
            assert_eq!(eng.result(q).unwrap().len(), 4);
        }
    }

    #[test]
    fn cell_charges_flow_from_workers_into_cell_load() {
        // Attribution is active whenever rebalancing is enabled; the huge
        // trigger keeps the planner itself from ever firing.
        let mut eng = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 2,
                algo: ShardAlgo::Ima,
                rebalance_trigger: 1e9,
                ..EngineConfig::default()
            },
        );
        let n = eng.net.num_edges() as u32;
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 5) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            4,
            NetPoint::new(EdgeId(3), 0.5),
        ));
        // Churn the query so its shard re-expands every tick; the worker
        // attributes those expansions to the query's cell and the engine
        // folds them into the smoothed per-cell estimate.
        for t in 0..4u32 {
            let mut batch = UpdateBatch::default();
            batch.queries.push(QueryEvent::Move {
                id: QueryId(0),
                to: NetPoint::new(EdgeId(3), if t % 2 == 0 { 0.2 } else { 0.8 }),
            });
            eng.tick(&batch);
        }
        assert!(
            eng.cell_load(EdgeId(3)) > 0.0,
            "expansions rooted on edge 3 must charge that cell"
        );
    }

    #[test]
    fn planner_ranks_cells_by_true_expansion_cost() {
        // Synthetic two-cell hotspot on the hot shard's border: cell B is
        // entity-heavy (many resident objects, the old ranking signal) but
        // hosts no expansions; cell A is entity-light but carries all the
        // observed expansion cost. The planner must hand A over first.
        let mut eng = engine(2);
        let cells = eng.partition.boundary_cells_between(&eng.net, 0, 1);
        assert!(cells.len() >= 2, "2-way split has a multi-cell border");
        let (a, b) = (cells[0], cells[1]);
        for i in 0..40u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(b, 0.3 + f64::from(i % 4) * 0.1),
            ));
        }
        eng.load = vec![10_000.0, 1.0];
        eng.cell_load.insert(a, 5_000.0);
        let (cold, chosen) = eng.plan_migration(0).expect("imbalance has a plan");
        assert_eq!(cold, 1);
        assert_eq!(
            chosen[0], a,
            "the expansion-hot cell must outrank the entity-heavy one"
        );
    }

    #[test]
    fn stable_ticks_do_no_resync() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            4,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        // Let any post-install shrink settle first.
        for _ in 0..eng.cfg.halo_shrink_ticks + 1 {
            eng.tick(&UpdateBatch::default());
        }
        let before = eng.resync_touched();
        let rep = eng.tick(&UpdateBatch::default());
        assert_eq!(
            eng.resync_touched(),
            before,
            "halo-stable tick must not resync anything"
        );
        assert_eq!(rep.counters.resync_touched, 0);
    }
}
