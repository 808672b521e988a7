//! The sharded engine's coordinator: the struct, its construction, the
//! tick loop, shard dispatch and halo reconciliation.
//!
//! # Design
//!
//! The network is split into `S` connected regions
//! ([`rnn_roadnet::NetworkPartition`]). Each region is owned by a shard: a
//! worker thread running a full [`ContinuousMonitor`] over the *shared*
//! topology (an `Arc<RoadNetwork>`) but tracking only the objects and
//! queries routed to it. Queries live with the shard owning their edge;
//! objects live with their owner shard **plus** every shard whose *halo*
//! they fall into. The coordinator runs the paper's server loop — apply a
//! timestamp's updates, refresh the affected results — on those `S` shards
//! with answers identical to one monitor over the whole network.
//!
//! # Map
//!
//! [`ShardedEngine`] is one struct; its `impl` blocks are split over four
//! modules along the seams of the protocol (a fifth, [`crate::changelog`],
//! holds the one helper struct behind `results_changed` and
//! `changed_queries`). Each module owns some of the
//! state, keeps one invariant, and is entered from a short list of places:
//!
//! * **`engine`** (this file) — the struct, construction, `tick` (the
//!   only way in: an `apply` is the trait's one-event tick),
//!   [`ShardedEngine::tick_ingest`], `dispatch_pending`, `reconcile`,
//!   [`ShardedEngine::validate_replication`] and the router counter block.
//!   `dispatch_pending` is the only code that sends to or receives from a
//!   shard, and it keeps the exchange strictly one request, one response
//!   per shard: nothing is in flight whenever another module mutates the
//!   partition, a halo or a registry. `reconcile` restores, before any
//!   tick or hand-off returns, `halo_r[s] ≥ kNN_dist(q)` for every query
//!   `q` homed on shard `s` — one walk over the registry, then only the
//!   queries each resync exchange reports (see [`crate::halo`], "Demand
//!   is folded, not recomputed").
//! * **[`crate::route`]** — object and query events → per-shard pending
//!   events, plus the edge→object and edge→query indexes. Keeps every
//!   object's shard mask equal to its edge's visibility mask and every
//!   query homed on (and indexed under) the owner of its edge. Entered
//!   from `tick`, once per event; this is the steady-state path and is
//!   statically checked to be allocation-free.
//! * **[`crate::halo`]** — `HaloRing`, halo recompute, ring shrink, the
//!   changed-edge replica resync and the shrink hysteresis. Keeps
//!   `edge_mask[e] = owner | { s : e ∈ halo(s) }`. Entered from `tick`
//!   (weights changed), `reconcile` (demand grew), the end of `tick`
//!   (demand fell) and the hand-off tail (a border moved). Carries the
//!   halo-coverage and shrink-safety arguments.
//! * **[`crate::rebalance`]** — the imbalance detector, the migration
//!   planner, the one cell hand-off and dead-shard adoption. The only code
//!   that changes cell ownership. Entered from `tick` (detector) and from
//!   `dispatch_pending` (a link answered `Response::Down`). Carries the
//!   answer-identity argument for migration and adoption.

use std::sync::Arc;
use std::time::Instant;

use rnn_core::{
    ContinuousMonitor, MemoryUsage, Neighbor, ObjectEvent, OpCounters, QueryEvent, TickReport,
    UpdateBatch,
};
use rnn_roadnet::{
    DijkstraEngine, EdgeId, EdgeObjectIndex, EdgeWeights, FxHashMap, FxHashSet, NetPoint,
    NetworkPartition, ObjectId, QueryId, RoadNetwork,
};

use crate::changelog::ChangeLog;
use crate::config::EngineConfig;
use crate::halo::{diameter_bound, HaloRing, HALO_SLACK};
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

/// Events routed to one shard but not yet shipped. Converted into a
/// [`DeltaBatch`] (which adds the shared edge arena) at dispatch time.
#[derive(Default)]
pub(crate) struct PendingEvents {
    pub(crate) objects: Vec<ObjectEvent>,
    pub(crate) queries: Vec<QueryEvent>,
}

pub(crate) struct QueryRec {
    pub(crate) k: usize,
    pub(crate) shard: u32,
    /// Where the [`ChangeLog`] holds the answer this query entered the
    /// tick with — meaningful while `parked` is the tick's epoch.
    pub(crate) slot: u32,
    pub(crate) pos: NetPoint,
    pub(crate) knn_dist: f64,
    pub(crate) result: Vec<Neighbor>,
    /// Epoch of the last tick that parked this query's answer.
    pub(crate) parked: u64,
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
    pub(crate) cfg: EngineConfig,
    pub(crate) partition: NetworkPartition,
    pub(crate) net: Arc<RoadNetwork>,
    /// The engine's authoritative copy of the fluctuating weights (needed
    /// for halo distance computations).
    pub(crate) weights: EdgeWeights,
    /// Finite stand-in for "replicate everything": an upper bound on any
    /// shortest-path distance under the current weights. Cached lazily —
    /// the O(E) refresh only runs when a weight change has invalidated it
    /// *and* an underfull query actually needs the cap.
    pub(crate) diam_cache: f64,
    pub(crate) diam_dirty: bool,
    pub(crate) scratch: DijkstraEngine,
    pub(crate) workers: Vec<L>,
    /// Current halo radius per shard. Grows eagerly on demand, shrinks
    /// lazily with hysteresis (see module docs).
    pub(crate) halo_r: Vec<f64>,
    /// Consecutive ticks each shard's halo has been oversized (the shrink
    /// hysteresis counter).
    pub(crate) shrink_streak: Vec<u32>,
    /// Foreign edges inside each shard's halo, ring-structured (distance
    /// annuli) so shrinks drop only the outer ring.
    pub(crate) halo_edges: Vec<HaloRing>,
    /// Per-edge visibility mask: bit `s` = edge is owned by or in the halo
    /// of shard `s` — and so, once a pass's toggles are resynced, the set
    /// of shards holding each object on the edge.
    pub(crate) edge_mask: Vec<u64>,
    /// Where each object is; who holds it is its edge's mask.
    pub(crate) objects: FxHashMap<ObjectId, NetPoint>,
    /// Edge → resident objects, maintained on every routed object event.
    /// Lets halo rebuilds resync only the objects on changed edges.
    pub(crate) edge_obj: EdgeObjectIndex,
    pub(crate) queries: FxHashMap<QueryId, QueryRec>,
    /// Edge → resident queries, maintained on every routed query event.
    /// Lets cell migration re-home only the queries on moved cells.
    pub(crate) edge_queries: FxHashMap<EdgeId, Vec<QueryId>>,
    /// Events routed but not yet shipped, one buffer per shard.
    pub(crate) pending: Vec<PendingEvents>,
    /// This tick's edge-weight updates, accumulated once and shipped to
    /// every shard as one shared `Arc` arena at the next dispatch.
    pub(crate) pending_edges: Vec<rnn_core::EdgeWeightUpdate>,
    /// Reused empty arena for dispatch rounds with no edge updates (every
    /// reconcile round after the first), avoiding a per-round allocation.
    pub(crate) empty_arena: Arc<Vec<rnn_core::EdgeWeightUpdate>>,
    /// GMA active-node counts per shard, from the latest outcomes.
    pub(crate) active: Vec<Option<usize>>,
    /// The queries touched during the current tick with the answers they
    /// entered it with, so reconcile-round flaps that end where they
    /// started do not count as changes; after the tick, what it changed.
    pub(crate) log: ChangeLog,
    /// Per-shard halo demand: the largest `kNN_dist` among the queries the
    /// last exchange reported, or among all of a shard's queries after
    /// `reconcile` (see [`crate::halo`], "Demand is folded, not
    /// recomputed").
    pub(crate) demand: Vec<f64>,
    /// Reused scratch of the halo passes: the edges whose halo membership
    /// a pass toggled, each with the mask it entered the pass with
    /// ([`Self::halo_pass`]), and the membership map a halo recompute fills
    /// (it trades places with the ring's own on every recompute).
    pub(crate) toggled_edges: FxHashMap<EdgeId, u64>,
    pub(crate) halo_fresh: FxHashMap<EdgeId, f64>,
    /// Monitor-side aggregate for the current tick: critical-path elapsed
    /// (max across a round's parallel workers, summed across rounds) and
    /// summed op counters.
    pub(crate) workers_report: TickReport,
    /// The router's own counters — `resync_touched`, `replica_evictions`,
    /// `rebalance_events`, `cells_migrated` — as this tick's slice (reset
    /// when a tick starts, merged into its report) and the lifetime fold
    /// the public getters read. Both only ever move through
    /// [`Self::count`]. `resync_touched` counts *distinct* objects per
    /// tick (`resync_seen` dedups revisits when an edge toggles more than
    /// once in a tick), so a single tick's count can never exceed the
    /// object total.
    pub(crate) router_tick: OpCounters,
    pub(crate) router_total: OpCounters,
    pub(crate) resync_seen: FxHashSet<ObjectId>,
    /// Per-shard load observed since the last fold: worker
    /// `expansion_steps` plus routed events, accumulated across every
    /// dispatch round (deterministic — no wall clock).
    pub(crate) tick_load: Vec<u64>,
    /// Smoothed per-shard load estimate (exponential average of
    /// `tick_load` across ticks) — the imbalance detector's input.
    pub(crate) load: Vec<f64>,
    /// Ticks since the last rebalance (hysteresis/cooldown counter).
    pub(crate) ticks_since_rebalance: u32,
    /// Shards declared permanently down (`Response::Down`: the link's
    /// transport died and recovery exhausted every retry). A dead shard
    /// owns no cells, holds no halo, and is excluded from every dispatch
    /// and from the rebalance planner; its former cells were adopted by
    /// survivors.
    pub(crate) dead: Vec<bool>,
    /// Lifetime count of dead-shard takeovers executed (each one
    /// [`Self::adopt_dead_shard`] run: the corpse's cells, replicas and
    /// queries re-homed onto survivors).
    pub(crate) takeovers: u64,
    /// The out-of-band ingest stage ([`crate::ingest`]): producers
    /// submit through [`Self::ingest_handle`] clones, and
    /// [`Self::tick_ingest`] drains at tick boundaries.
    pub(crate) ingest: IngestHub,
    /// Reused drain target for [`Self::tick_ingest`] — cleared, refilled
    /// by the hub, and handed to [`ContinuousMonitor::tick`] without
    /// cloning event slices.
    pub(crate) ingest_batch: UpdateBatch,
}

/// Weight of the exponential load smoothing: each tick contributes half,
/// so a hotspot must persist a few ticks before it dominates the estimate
/// (part of the rebalance hysteresis) while a migrated-away hotspot decays
/// just as fast.
const LOAD_SMOOTHING: f64 = 0.5;

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
        let workers = (0..cfg.num_shards)
            .map(|s| ShardWorker::spawn(s, cfg.make_monitor(net.clone())))
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
            log: ChangeLog::default(),
            demand: vec![0.0; cfg.num_shards],
            toggled_edges: FxHashMap::default(),
            halo_fresh: FxHashMap::default(),
            workers_report: TickReport::default(),
            router_tick: OpCounters::default(),
            router_total: OpCounters::default(),
            resync_seen: FxHashSet::default(),
            tick_load: vec![0; cfg.num_shards],
            load: vec![0.0; cfg.num_shards],
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

    /// A producer handle onto the engine's ingest stage. Clone freely
    /// and hand to feed threads; events queue (under
    /// [`EngineConfig::ingest`]'s bounds and admission policy) until the
    /// driver calls [`Self::tick_ingest`].
    pub fn ingest_handle(&self) -> IngestHandle {
        self.ingest.handle()
    }

    /// Drains everything submitted since the last drain — the hub has
    /// already coalesced multiple reports per entity to the final
    /// position (§4.5) — and runs one tick over the result. The drain's accounting
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
    /// homes no query; the edge→object and edge→query indexes mirror
    /// their tables exactly, and the per-edge masks — which say who holds
    /// each object — are consistent with ownership plus the halo edge
    /// sets.
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
        for (&id, pos) in &self.objects {
            if !self.edge_obj.objects_on(pos.edge).contains(&id) {
                return Err(format!(
                    "object {id:?} not indexed on its edge {:?}",
                    pos.edge
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

    /// Adds router-side work to this tick's slice and the lifetime fold.
    pub(crate) fn count(&mut self, work: OpCounters) {
        self.router_tick.merge(&work);
        self.router_total.merge(&work);
    }

    // --- Dispatch ---------------------------------------------------------

    /// Ships every non-empty pending delta to its shard (the tick's edge
    /// updates ride along as one shared arena), waits for all outcomes, and
    /// folds them into the engine's caches. `kind` names the engine phase
    /// dispatching (tick / resync / migration) — shard processing is
    /// identical, but RPC links give each phase its own typed frame.
    /// Returns `true` if anything was sent.
    pub(crate) fn dispatch_pending(&mut self, kind: BatchKind) -> bool {
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
        if sent == 0 {
            return false;
        }
        // What this exchange reports is the demand `reconcile` looks at.
        self.demand.fill(0.0);
        // Workers in one round run in parallel, so their reports fold with
        // max-elapsed semantics; successive rounds are sequential and add.
        let mut round = TickReport::default();
        let mut died = 0u64;
        for s in ShardBits(sent) {
            match self.workers[s].recv() {
                Response::Tick(outcome) => {
                    self.tick_load[s] += outcome.report.counters.expansion_steps;
                    round.absorb_parallel(&outcome.report);
                    self.active[s] = outcome.active_groups;
                    for snap in outcome.snapshots {
                        let Some(rec) = self.queries.get_mut(&snap.id) else {
                            continue;
                        };
                        if rec.shard != s as u32 {
                            continue; // stale snapshot of a query mid-migration
                        }
                        self.demand[s] = self.demand[s].max(snap.knn_dist);
                        self.log.absorb(rec, snap);
                    }
                }
                Response::Down => {
                    // The link's transport died and its bounded recovery
                    // exhausted every retry. The shard's tick (including
                    // whatever we just sent it) is lost; survivors take
                    // over below, or the engine refuses to run degraded.
                    died |= 1u64 << s;
                }
                Response::Memory(_) => unreachable!("non-tick response to a tick request"),
            }
        }
        self.workers_report.elapsed += round.elapsed;
        self.workers_report.counters.merge(&round.counters);
        for s in ShardBits(died) {
            self.adopt_dead_shard(s);
        }
        true
    }

    /// Grows halos until every query's `kNN_dist` is covered by its
    /// shard's halo radius, shipping newly visible objects as needed (see
    /// [`crate::halo`] for why this terminates). Underfull demand (∞) is
    /// capped at the diameter bound, which already covers everything
    /// reachable.
    ///
    /// The first round covers every query's demand, walked once here;
    /// later rounds look only at what their own exchange reported. The
    /// exact per-shard demand is left in `self.demand` for the shrink
    /// pass.
    pub(crate) fn reconcile(&mut self) {
        self.fold_all_demand();
        let mut exact = true;
        loop {
            self.cap_underfull_demand();
            self.halo_pass(|eng, toggled| {
                for s in 0..eng.cfg.num_shards {
                    let need = eng.demand[s];
                    if need > eng.halo_r[s] {
                        eng.halo_r[s] = need * (1.0 + HALO_SLACK);
                        eng.recompute_halo(s, toggled);
                    }
                }
            });
            if !self.dispatch_pending(BatchKind::Resync) {
                break;
            }
            exact = false;
        }
        if !exact {
            // A resync round only ever lowers demands; the shrink pass
            // wants them as they stand now.
            self.fold_all_demand();
            self.cap_underfull_demand();
        }
        debug_assert!(self.demand_is_covered());
    }
}

impl<L: ShardLink> ContinuousMonitor for ShardedEngine<L> {
    fn name(&self) -> &'static str {
        "SHARDED"
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        self.log.begin();
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
            self.halo_pass(|eng, toggled| {
                for s in 0..eng.cfg.num_shards {
                    eng.recompute_halo(s, toggled);
                }
            });
        }

        // 3. Route the object and query streams onto the owning shards.
        for ev in &batch.objects {
            self.route_object_event(ev);
        }
        for ev in &batch.queries {
            self.route_query_event(ev);
        }

        // 4. Fan out, grow halos until every result is covered, then let
        //    oversized halos decay: weights, and with them the cap on
        //    underfull demand, may have moved, and the shrink pass needs
        //    every shard's exact demand.
        self.dispatch_pending(BatchKind::Tick);
        self.reconcile();
        self.maybe_shrink_halos();

        // A query counts as changed only if its final answer differs from
        // its pre-tick answer — reconcile-round flaps that end where they
        // started do not count, matching a single monitor's report — and a
        // removed query counts if it had one.
        let results_changed = self.log.finish(&self.queries);

        // Fold this tick's per-shard load observations into the smoothed
        // estimates the imbalance detector reads next tick.
        for s in 0..self.cfg.num_shards {
            let observed = std::mem::take(&mut self.tick_load[s]) as f64;
            self.load[s] = self.load[s] * (1.0 - LOAD_SMOOTHING) + observed * LOAD_SMOOTHING;
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

    fn changed_queries(&self) -> &[QueryId] {
        self.log.changed()
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
                Response::Tick(_) => unreachable!("unexpected response to a memory request"),
            }
        }
        // Router state: registries, masks, halo sets, edge→object index.
        total.auxiliary += self.edge_mask.capacity() * std::mem::size_of::<u64>()
            + self.objects.capacity()
                * (std::mem::size_of::<ObjectId>() + std::mem::size_of::<NetPoint>())
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

/// Iterator over the set bits of a shard mask.
pub(crate) struct ShardBits(pub(crate) u64);

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
pub(crate) mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;
    use crate::config::ShardAlgo;
    use rnn_core::UpdateEvent;
    use rnn_roadnet::generators::{grid_city, GridCityConfig};

    pub(crate) fn net() -> Arc<RoadNetwork> {
        Arc::new(grid_city(&GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 9,
            ..Default::default()
        }))
    }

    pub(crate) fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: shards,
                algo: ShardAlgo::Ima,
                ..EngineConfig::default()
            },
        )
    }

    /// A [`ShardWorker`] that can be told to die. Once its kill switch is
    /// set — by the test between ticks, or by the link itself on receiving
    /// a batch of kind `die_on` — every request is swallowed and answered
    /// [`Response::Down`]: what an RPC link does when its transport is dead
    /// and recovery is exhausted.
    pub(crate) struct MortalLink {
        inner: ShardWorker,
        kill: Arc<AtomicBool>,
        die_on: Option<BatchKind>,
        owed: Cell<u32>,
    }

    impl ShardLink for MortalLink {
        fn send(&self, req: Request) {
            if matches!(&req, Request::Tick(d) if Some(d.kind) == self.die_on) {
                self.kill.store(true, Ordering::SeqCst);
            }
            if self.kill.load(Ordering::SeqCst) {
                self.owed.set(self.owed.get() + 1);
            } else {
                self.inner.send(req);
            }
        }

        fn recv(&self) -> Response {
            if self.owed.get() == 0 {
                return self.inner.recv();
            }
            self.owed.set(self.owed.get() - 1);
            Response::Down
        }
    }

    /// An engine over [`MortalLink`]s plus each shard's kill switch. Shard
    /// `s` additionally dies by itself on its first batch of kind `k` for
    /// every `(s, k)` in `die_on`.
    pub(crate) fn mortal_engine(
        cfg: EngineConfig,
        die_on: &[(usize, BatchKind)],
    ) -> (ShardedEngine<MortalLink>, Vec<Arc<AtomicBool>>) {
        let net = net();
        let kills: Vec<_> = (0..cfg.num_shards)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let links = (0..cfg.num_shards)
            .map(|s| MortalLink {
                inner: ShardWorker::spawn(s, cfg.make_monitor(net.clone())),
                kill: kills[s].clone(),
                die_on: die_on.iter().find(|d| d.0 == s).map(|d| d.1),
                owed: Cell::new(0),
            })
            .collect();
        let eng = ShardedEngine::with_links(net, cfg, links).expect("valid config");
        (eng, kills)
    }

    /// Answer identity against a reference monitor, in the differential
    /// suite's convention: same query set, same result sizes, distances
    /// equal to 1e-9 relative (a re-homed query is recomputed by its new
    /// shard, which may sum the same path in a different order).
    pub(crate) fn assert_same_answers(
        reference: &dyn ContinuousMonitor,
        eng: &dyn ContinuousMonitor,
        ctx: &str,
    ) {
        let (mut ids, mut got) = (reference.query_ids(), eng.query_ids());
        ids.sort();
        got.sort();
        assert_eq!(ids, got, "{ctx}: query sets diverge");
        for q in ids {
            let (a, b) = (reference.result(q).unwrap(), eng.result(q).unwrap());
            assert_eq!(a.len(), b.len(), "{ctx}, {q:?}: result sizes");
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x.dist - y.dist).abs() <= 1e-9 * x.dist.abs().max(1.0),
                    "{ctx}, {q:?}: {} vs {}",
                    x.dist,
                    y.dist
                );
            }
        }
    }

    /// A 3-shard engine whose shard 1 has died and been adopted, plus a
    /// cell shard 0 owns — the fixture the four corpse checks corrupt.
    fn engine_with_corpse() -> (ShardedEngine<MortalLink>, usize, EdgeId) {
        let (mut eng, kills) = mortal_engine(EngineConfig::with_shards(3), &[]);
        let n = eng.net.num_edges() as u32;
        for i in 0..n {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i), 0.5),
            ));
        }
        for q in 0..6u32 {
            eng.apply(UpdateEvent::install_query(
                QueryId(q),
                4,
                NetPoint::new(EdgeId((q * 17) % n), 0.3),
            ));
        }
        kills[1].store(true, Ordering::SeqCst);
        let mut batch = UpdateBatch::default();
        for i in 0..n {
            batch.objects.push(ObjectEvent::Move {
                id: ObjectId(i),
                to: NetPoint::new(EdgeId(i), 0.6),
            });
        }
        eng.tick(&batch);
        assert!(eng.is_shard_dead(1));
        eng.validate_replication().unwrap();
        let cell = eng.partition.view(0).edges[0];
        (eng, 1, cell)
    }

    fn assert_invalid(eng: &ShardedEngine<MortalLink>, needle: &str) {
        let err = eng.validate_replication().unwrap_err();
        assert!(err.contains(needle), "expected `{needle}` in `{err}`");
    }

    #[test]
    fn validate_rejects_a_corpse_that_owns_a_cell() {
        let (mut eng, dead, cell) = engine_with_corpse();
        eng.partition.reassign(&eng.net, &[(cell, dead as u32)]);
        assert_invalid(&eng, "dead shard 1 still owns 1 cells");
    }

    #[test]
    fn validate_rejects_a_corpse_that_holds_a_halo() {
        let (mut eng, dead, cell) = engine_with_corpse();
        eng.halo_r[dead] = 1.0;
        assert_invalid(&eng, "dead shard 1 still holds a halo");
        eng.halo_r[dead] = 0.0;
        eng.validate_replication().unwrap();
        eng.halo_edges[dead].replace_with(&mut [(cell, 0.5)].into_iter().collect(), |_, _| {});
        assert_invalid(&eng, "dead shard 1 still holds a halo");
    }

    #[test]
    fn validate_rejects_a_corpse_visible_in_an_edge_mask() {
        let (mut eng, dead, cell) = engine_with_corpse();
        eng.edge_mask[cell.index()] |= 1u64 << dead;
        assert_invalid(&eng, "dead shard 1 still sees edge");
    }

    #[test]
    fn validate_rejects_a_query_homed_on_a_corpse() {
        let (mut eng, dead, _) = engine_with_corpse();
        eng.queries.values_mut().next().unwrap().shard = dead as u32;
        assert_invalid(&eng, "is homed on dead shard 1");
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
}
