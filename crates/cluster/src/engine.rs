//! The cluster coordinator: a [`ShardedEngine`] whose shards live behind
//! RPC links instead of in-process threads.
//!
//! [`ClusterEngine`] reuses the engine's routing/absorption machinery
//! wholesale — partitioning, halo replication, reconcile rounds,
//! migration — by instantiating `ShardedEngine<RemoteShard>`. The only
//! cluster-specific surface is construction (wiring a transport per
//! shard) and the transport counters.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rnn_core::{ContinuousMonitor, MemoryUsage, Neighbor, TickReport, TransportStats, UpdateBatch};
use rnn_engine::{EngineConfig, ShardedEngine};
use rnn_roadnet::{QueryId, RoadNetwork};

use crate::client::{DurabilityConfig, RemoteShard, RespawnFn, RetryPolicy};
use crate::replica::{MonitorFactory, ReplicaNode};
use crate::replog::ReplicatedLog;
use crate::service::ShardService;
use crate::transport::{
    loopback_pair, FaultPlan, LoopbackPeer, ReadWriteStream, StreamTransport, Transport,
};

/// A sharded continuous-monitoring engine whose shard monitors run
/// behind RPC links (loopback threads, Unix-socket processes, or TCP
/// peers), answer-identical to the in-process [`ShardedEngine`].
pub struct ClusterEngine {
    engine: ShardedEngine<RemoteShard>,
}

fn spawn_loopback_service(
    shard: usize,
    peer: LoopbackPeer,
    net: Arc<RoadNetwork>,
    cfg: &EngineConfig,
) {
    let edges = net.num_edges();
    let monitor = cfg.make_monitor(net);
    std::thread::Builder::new()
        .name(format!("rnn-cluster-shard-{shard}"))
        .spawn(move || ShardService::new(peer, monitor, edges).run())
        .expect("spawn shard service");
}

/// Builds the replicated-journal plane for one shard, per
/// `cfg.replication`: spawns each follower as a [`ReplicaNode`] thread
/// over a fault-free loopback pair (replicas ride in the coordinator
/// process; faults are injected on the *shard* link, which is the one
/// that fails over) and returns the leader-side log for the link to
/// lead. With replication off the log has no followers and no term.
fn spawn_replicas(shard: usize, net: &Arc<RoadNetwork>, cfg: &EngineConfig) -> ReplicatedLog {
    let edges = net.num_edges();
    let transports = (0..cfg.replication.replicas)
        .map(|r| {
            let (leader, peer) = loopback_pair(FaultPlan::default());
            let net2 = net.clone();
            let cfg2 = *cfg;
            let make: MonitorFactory = Box::new(move || cfg2.make_monitor(net2));
            std::thread::Builder::new()
                .name(format!("rnn-replica-{shard}-{r}"))
                .spawn(move || ReplicaNode::new(peer, make, edges).run())
                .expect("spawn replica node");
            Box::new(leader) as Box<dyn Transport>
        })
        .collect();
    // The link resumes the term its log stored (see
    // `RemoteShard::with_durability`).
    ReplicatedLog::new(shard, transports, 0)
}

impl ClusterEngine {
    /// A fault-free loopback cluster: one service thread per shard,
    /// in-process channel transports, default retry policy.
    pub fn loopback(net: Arc<RoadNetwork>, cfg: EngineConfig) -> Self {
        Self::loopback_with_faults(net, cfg, &[FaultPlan::default()], RetryPolicy::default())
    }

    /// A loopback cluster with fault injection: shard `s` gets
    /// `plans[s % plans.len()]` (pass one plan to apply it everywhere).
    /// Crashed services are respawned with a fresh, fault-free transport
    /// and rebuilt by log replay (unless the plan marks respawns
    /// stillborn — see [`FaultPlan::respawn_dead`]).
    pub fn loopback_with_faults(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        plans: &[FaultPlan],
        policy: RetryPolicy,
    ) -> Self {
        Self::loopback_durable(net, cfg, plans, policy, DurabilityConfig::default())
    }

    /// A loopback cluster with fault injection **and** the per-shard
    /// durability plane: each link snapshots its shard every
    /// `durability.snapshot_every` logged event frames and recovers
    /// crashes from snapshot + log suffix. When `durability.dir` is
    /// set, shard `s` keeps its log on disk under `dir/shard-<s>/`. The default `DurabilityConfig` (snapshots off)
    /// makes this exactly [`Self::loopback_with_faults`].
    pub fn loopback_durable(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        plans: &[FaultPlan],
        policy: RetryPolicy,
        durability: DurabilityConfig,
    ) -> Self {
        assert!(!plans.is_empty(), "at least one fault plan");
        let links = (0..cfg.num_shards)
            .map(|s| {
                let plan = plans[s % plans.len()];
                let (co, peer) = loopback_pair(plan);
                spawn_loopback_service(s, peer, net.clone(), &cfg);
                let net2 = net.clone();
                let respawn: RespawnFn = Box::new(move || {
                    let (co2, peer2) = loopback_pair(FaultPlan::default());
                    if plan.respawn_dead {
                        // Stillborn respawn: no service ever serves this
                        // transport, so the next recv observes Closed and
                        // the recovery budget burns down deterministically.
                        drop(peer2);
                    } else {
                        spawn_loopback_service(s, peer2, net2.clone(), &cfg);
                    }
                    Box::new(co2)
                });
                let mut link_durability = durability.clone();
                if let Some(root) = &durability.dir {
                    link_durability.dir = Some(root.join(format!("shard-{s}")));
                }
                RemoteShard::with_durability(
                    s,
                    Box::new(co),
                    policy,
                    Some(respawn),
                    link_durability,
                    spawn_replicas(s, &net, &cfg),
                )
                .unwrap_or_else(|e| panic!("shard {s}: durability dir unusable: {e}"))
            })
            .collect();
        let engine = ShardedEngine::with_links(net, cfg, links).unwrap_or_else(|e| panic!("{e}"));
        Self { engine }
    }

    /// Connects to one already-listening Unix-socket shard service per
    /// path (see [`crate::service::serve_unix`]), retrying each connect
    /// for a few seconds so freshly spawned shard processes have time to
    /// bind. No respawn policy: a shard process dying is survivable only
    /// through follower promotion (replication on) or, failing that,
    /// planner takeover — there is nothing to respawn.
    pub fn connect_unix(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        paths: &[impl AsRef<Path>],
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let streams = paths
            .iter()
            .map(|path| connect_with_retry(|| std::os::unix::net::UnixStream::connect(path)));
        Self::connect(net, cfg, streams, policy)
    }

    /// Like [`Self::connect_unix`] over TCP.
    pub fn connect_tcp(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        addrs: &[std::net::SocketAddr],
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let streams = addrs
            .iter()
            .map(|addr| connect_with_retry(|| std::net::TcpStream::connect(addr)));
        Self::connect(net, cfg, streams, policy)
    }

    /// One link per connected stream, in shard order.
    fn connect<S: ReadWriteStream + 'static>(
        net: Arc<RoadNetwork>,
        cfg: EngineConfig,
        streams: impl Iterator<Item = std::io::Result<S>>,
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let links = streams
            .enumerate()
            .map(|(s, stream)| {
                let transport = Box::new(StreamTransport::new(stream?));
                // Replicas ride in the coordinator process: the shard
                // *process* dying is what failover survives.
                RemoteShard::with_durability(
                    s,
                    transport,
                    policy,
                    None,
                    DurabilityConfig::default(),
                    spawn_replicas(s, &net, &cfg),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        ShardedEngine::with_links(net, cfg, links)
            .map(|engine| Self { engine })
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))
    }

    /// The underlying routing engine (halo radii, partition, worker
    /// reports — everything the in-process engine exposes).
    pub fn engine(&self) -> &ShardedEngine<RemoteShard> {
        &self.engine
    }

    /// A producer handle onto the coordinator's ingest stage (see
    /// `rnn_engine::ingest`) — submissions queue coordinator-side and
    /// ship to the shard services at the next [`Self::tick_ingest`].
    pub fn ingest_handle(&self) -> rnn_engine::IngestHandle {
        self.engine.ingest_handle()
    }

    /// Drains the ingest stage and runs one tick over the result (see
    /// `ShardedEngine::tick_ingest`).
    pub fn tick_ingest(&mut self) -> TickReport {
        self.engine.tick_ingest()
    }

    /// Per-shard transport counters, in shard order.
    pub fn shard_stats(&self) -> Vec<TransportStats> {
        self.engine.links().iter().map(|l| l.stats()).collect()
    }

    /// Transport counters summed over all shards.
    pub fn stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        total
    }
}

/// Retries `connect` with a short backoff for up to ~5 s (shard
/// processes bind their sockets asynchronously).
fn connect_with_retry<S>(mut connect: impl FnMut() -> std::io::Result<S>) -> std::io::Result<S> {
    let mut last;
    let mut wait = Duration::from_millis(10);
    let mut budget = Duration::from_secs(5);
    loop {
        match connect() {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
        if budget.is_zero() {
            return Err(last);
        }
        let step = wait.min(budget);
        std::thread::sleep(step);
        budget = budget.saturating_sub(step);
        wait = (wait * 2).min(Duration::from_millis(250));
    }
}

impl ContinuousMonitor for ClusterEngine {
    fn name(&self) -> &'static str {
        "CLUSTER"
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        self.engine.tick(batch)
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.engine.result(id)
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        self.engine.knn_dist(id)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        self.engine.query_ids()
    }

    fn changed_queries(&self) -> &[QueryId] {
        self.engine.changed_queries()
    }

    fn memory(&self) -> MemoryUsage {
        self.engine.memory()
    }

    fn active_groups(&self) -> Option<usize> {
        self.engine.active_groups()
    }

    fn shard_load_ratio(&self) -> Option<f64> {
        self.engine.shard_load_ratio()
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        Some(self.stats())
    }
}
