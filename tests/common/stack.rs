//! The stack table: everything a row can drive, how each is fed a tick,
//! the invariant check each runs after every call, and the twin whose
//! counters it must match.

use std::sync::Arc;

use rnn_monitor::cluster::{ClusterEngine, DurabilityConfig, FaultPlan, RetryPolicy};
use rnn_monitor::core::{
    ContinuousMonitor, Gma, Ima, OpCounters, Ovh, TickReport, UpdateBatch, UpdateEvent,
};
use rnn_monitor::engine::{
    EngineConfig, IngestConfig, IngestError, IngestHandle, ShardAlgo, ShardedEngine,
};
use rnn_monitor::roadnet::RoadNetwork;

use super::Workload;

/// What a stack's counters must match of its twin's, call by call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counters {
    /// Every work counter, and `memory()` at the end of the run: both
    /// sides run the same monitors on the same stream, so any difference
    /// is a fault of the layer between (the wire, the ingest stage).
    Exact,
    /// [`OpCounters::restore_stable`]: a snapshot-restored shard rebuilt
    /// its trees and warmed its pools from the snapshot, so only the
    /// counters that depend on replica content and on the coordinator's
    /// stream must match.
    RestoreStable,
}

/// The fault, retry and durability plane of a loopback cluster.
#[derive(Clone, Debug, Default)]
pub struct Plane {
    /// Shard `s` runs `plans[s % plans.len()]`; none means no faults.
    pub plans: Vec<FaultPlan>,
    pub policy: RetryPolicy,
    pub durability: DurabilityConfig,
}

impl Plane {
    /// Fault plans where shard 0 runs `plan` and the other `shards - 1`
    /// run fault-free.
    pub fn shard_0(plan: FaultPlan, shards: usize) -> Vec<FaultPlan> {
        let mut plans = vec![FaultPlan::default(); shards];
        plans[0] = plan;
        plans
    }
}

enum Kind {
    /// OVH and GMA: no invariant check of their own.
    Monitor(Box<dyn ContinuousMonitor>),
    /// Checks `validate_invariants`.
    Ima(Ima),
    /// The in-process engine; checks `validate_replication`.
    Eng(ShardedEngine),
    /// The cluster; checks its coordinator's `validate_replication`.
    Clu(ClusterEngine),
    /// An engine fed through its ingest stage; checks
    /// `validate_replication`.
    Ing(ShardedEngine, IngestHandle),
}

/// One stack of a row.
pub struct Stack {
    /// How the harness names the stack in a failure.
    pub name: String,
    kind: Kind,
    twin: Option<(usize, Counters)>,
    /// The report of the stack's last tick.
    pub last: TickReport,
    /// Every tick's counters since install, summed.
    pub total: OpCounters,
    /// What an `ING` stack's hub refused, in submission order.
    pub refused: Vec<IngestError>,
}

impl Stack {
    fn new(name: String, kind: Kind) -> Self {
        Self {
            name,
            kind,
            twin: None,
            last: TickReport::default(),
            total: OpCounters::default(),
            refused: Vec::new(),
        }
    }

    pub fn ovh(net: &Arc<RoadNetwork>) -> Self {
        Self::new("OVH".into(), Kind::Monitor(Box::new(Ovh::new(net.clone()))))
    }

    pub fn ima(net: &Arc<RoadNetwork>) -> Self {
        Self::new("IMA".into(), Kind::Ima(Ima::new(net.clone())))
    }

    pub fn gma(net: &Arc<RoadNetwork>) -> Self {
        Self::new("GMA".into(), Kind::Monitor(Box::new(Gma::new(net.clone()))))
    }

    /// The single monitor a shard of `algo` runs.
    pub fn single(net: &Arc<RoadNetwork>, algo: ShardAlgo) -> Self {
        match algo {
            ShardAlgo::Ovh => Self::ovh(net),
            ShardAlgo::Ima => Self::ima(net),
            ShardAlgo::Gma => Self::gma(net),
        }
    }

    /// `ENG-S`: the in-process sharded engine.
    pub fn eng(net: &Arc<RoadNetwork>, cfg: EngineConfig) -> Self {
        let rebalance = if cfg.rebalance { "-RB" } else { "" };
        let name = format!("ENG-{}{rebalance} {:?}", cfg.num_shards, cfg.algo);
        Self::new(name, Kind::Eng(ShardedEngine::new(net.clone(), cfg)))
    }

    /// `CLU-S`: a loopback cluster (`-D` durable, `-R<n>` replicated).
    pub fn clu(net: &Arc<RoadNetwork>, cfg: EngineConfig, plane: &Plane) -> Self {
        let mut plans = plane.plans.clone();
        if plans.is_empty() {
            plans.push(FaultPlan::default());
        }
        let cluster = ClusterEngine::loopback_durable(
            net.clone(),
            cfg,
            &plans,
            plane.policy,
            plane.durability.clone(),
        );
        let durable = plane.durability.snapshot_every > 0 || plane.durability.dir.is_some();
        let mut name = format!("CLU-{}", cfg.num_shards);
        if durable {
            name += "-D";
        }
        if cfg.replication.replicas > 0 {
            name += &format!("-R{}", cfg.replication.replicas);
        }
        Self::cluster(name, cluster)
    }

    /// A cluster built elsewhere (over TCP, say).
    pub fn cluster(name: String, cluster: ClusterEngine) -> Self {
        Self::new(name, Kind::Clu(cluster))
    }

    /// `ING-S`: an engine that takes every tick through
    /// `IngestHandle::submit` + `tick_ingest`.
    pub fn ing(net: &Arc<RoadNetwork>, cfg: EngineConfig) -> Self {
        let engine = ShardedEngine::new(net.clone(), cfg);
        let handle = engine.ingest_handle();
        Self::new(format!("ING-{}", cfg.num_shards), Kind::Ing(engine, handle))
    }

    /// This stack must also match the counters of the row's stack at
    /// index `of`.
    pub fn twin(mut self, of: usize, counters: Counters) -> Self {
        self.twin = Some((of, counters));
        self
    }

    pub fn twin_of(&self) -> Option<(usize, Counters)> {
        self.twin
    }

    /// OVH, IMA and GMA.
    pub fn monitors(net: &Arc<RoadNetwork>) -> Vec<Self> {
        vec![Self::ovh(net), Self::ima(net), Self::gma(net)]
    }

    /// The single monitor of `algo`, then `ENG-1`, `ENG-2` and `ENG-4`
    /// over it.
    pub fn engines(net: &Arc<RoadNetwork>, algo: ShardAlgo) -> Vec<Self> {
        let mut stacks = vec![Self::single(net, algo)];
        for num_shards in [1, 2, 4] {
            let cfg = EngineConfig {
                num_shards,
                algo,
                ..EngineConfig::default()
            };
            stacks.push(Self::eng(net, cfg));
        }
        stacks
    }

    /// Everything an event can be delivered into: the three monitors and
    /// the engine at S = 1, 2, 4.
    pub fn every_entry_point(net: &Arc<RoadNetwork>) -> Vec<Self> {
        let mut stacks = Self::monitors(net);
        stacks.extend([1, 2, 4].map(|s| Self::eng(net, EngineConfig::with_shards(s))));
        stacks
    }

    /// For each shard count, `reference(S)` and then `subject(S)`, which
    /// must match it on `counters`.
    pub fn pairs(
        shards: &[usize],
        reference: impl Fn(usize) -> Self,
        subject: impl Fn(usize) -> Self,
        counters: Counters,
    ) -> Vec<Self> {
        let mut stacks = Vec::new();
        for &s in shards {
            let of = stacks.len();
            stacks.push(reference(s));
            stacks.push(subject(s).twin(of, counters));
        }
        stacks
    }

    pub fn monitor(&self) -> &dyn ContinuousMonitor {
        match &self.kind {
            Kind::Monitor(m) => m.as_ref(),
            Kind::Ima(m) => m,
            Kind::Eng(e) | Kind::Ing(e, _) => e,
            Kind::Clu(c) => c,
        }
    }

    pub fn monitor_mut(&mut self) -> &mut dyn ContinuousMonitor {
        match &mut self.kind {
            Kind::Monitor(m) => m.as_mut(),
            Kind::Ima(m) => m,
            Kind::Eng(e) | Kind::Ing(e, _) => e,
            Kind::Clu(c) => c,
        }
    }

    /// The engine of an `ENG` or `ING` stack.
    pub fn eng_ref(&self) -> &ShardedEngine {
        match &self.kind {
            Kind::Eng(e) | Kind::Ing(e, _) => e,
            _ => panic!("{} is not an in-process engine", self.name),
        }
    }

    /// The cluster of a `CLU` stack.
    pub fn clu_ref(&self) -> &ClusterEngine {
        match &self.kind {
            Kind::Clu(c) => c,
            _ => panic!("{} is not a cluster", self.name),
        }
    }

    pub(crate) fn install(&mut self, workload: &dyn Workload) {
        workload.install_into(self.monitor_mut());
    }

    /// One timestamp. An `ING` stack submits the workload's reports, or
    /// else the batch's events, and ticks what its hub drained; its
    /// report leaves out the hub's own warm-up bookkeeping
    /// (`drain_alloc_events`), which the batch path cannot have. Any other
    /// stack takes a one-event batch through `apply`, the trait's
    /// one-event tick, and a larger one through `tick`.
    pub(crate) fn tick(&mut self, batch: &UpdateBatch, reports: Option<&[UpdateEvent]>) {
        let report = match &mut self.kind {
            Kind::Ing(engine, handle) => {
                let events: Vec<UpdateEvent> = match reports {
                    Some(reports) => reports.to_vec(),
                    None => events(batch).collect(),
                };
                for ev in events {
                    if let Err(e) = handle.submit(ev) {
                        self.refused.push(e);
                    }
                }
                let mut report = engine.tick_ingest();
                report.counters.drain_alloc_events = 0;
                report
            }
            _ => {
                let m = self.monitor_mut();
                let mut all = events(batch);
                match (all.next(), all.next()) {
                    (Some(only), None) => m.apply(only),
                    _ => m.tick(batch),
                }
            }
        };
        self.last = report;
        self.total.merge(&report.counters);
    }

    /// The stack's own invariant check.
    pub(crate) fn check(&mut self) -> Result<(), String> {
        match &mut self.kind {
            Kind::Monitor(_) => Ok(()),
            Kind::Ima(m) => {
                m.validate_invariants();
                Ok(())
            }
            Kind::Eng(e) | Kind::Ing(e, _) => e.validate_replication(),
            Kind::Clu(c) => c.engine().validate_replication(),
        }
    }
}

/// A batch's events: objects, then queries, then edges.
pub fn events(batch: &UpdateBatch) -> impl Iterator<Item = UpdateEvent> + '_ {
    let objects = batch.objects.iter().map(|&ev| UpdateEvent::Object(ev));
    let queries = batch.queries.iter().map(|&ev| UpdateEvent::Query(ev));
    let edges = batch.edges.iter().map(|&ev| UpdateEvent::Edge(ev));
    objects.chain(queries).chain(edges)
}

/// An ingest stage that never sheds and never turns a valid event away:
/// `Block` admission at `capacity` open windows.
pub fn lossless(capacity: usize) -> IngestConfig {
    IngestConfig {
        capacity,
        policy: rnn_monitor::engine::AdmissionPolicy::Block,
    }
}
