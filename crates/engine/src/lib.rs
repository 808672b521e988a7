//! # rnn-engine
//!
//! A sharded, multi-threaded continuous-monitoring engine on top of the
//! single-server algorithms of Mouratidis et al. (VLDB 2006).
//!
//! The paper's monitors (OVH/IMA/GMA, see `rnn-core`) are single-threaded:
//! one server owns every object, query, and edge weight. To serve
//! production-scale load the engine partitions the road network into `S`
//! connected regions ([`rnn_roadnet::partition`]), runs one monitor per
//! region on a dedicated worker thread, routes each update to the shard(s)
//! that must see it, and fans `tick()` out in parallel.
//!
//! Cross-border correctness comes from **halo replication**: every shard
//! additionally sees the objects within network distance `r_s` of its
//! region boundary, where `r_s` is kept at least as large as the largest
//! `kNN_dist` among the shard's queries. Under that invariant each shard's
//! answers are provably identical to a single global monitor's (see
//! [`halo`] module docs for the argument), which the differential test
//! suite checks tick-by-tick against plain GMA/IMA.
//!
//! Replication is maintained *incrementally*: an edge→object index limits
//! halo resync to the objects on edges whose membership actually changed,
//! halos shrink with hysteresis when demand drops (evicting stale
//! replicas), and worker hand-off is delta encoded behind a shared `Arc`
//! arena so the router never clones a batch per shard. The
//! `resync_touched` / `replica_evictions` counters (on
//! [`ShardedEngine`] and in each tick's `OpCounters`) make the
//! O(changed-edges) maintenance cost observable.
//!
//! ```
//! use rnn_core::{ContinuousMonitor, UpdateEvent};
//! use rnn_engine::{EngineConfig, ShardedEngine};
//! use rnn_roadnet::{generators, EdgeId, NetPoint, ObjectId, QueryId};
//! use std::sync::Arc;
//!
//! let net = Arc::new(generators::grid_city(&generators::GridCityConfig {
//!     nx: 6, ny: 6, seed: 1, ..Default::default()
//! }));
//! let mut engine = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
//! for (i, e) in net.edge_ids().enumerate().step_by(5) {
//!     engine.apply(UpdateEvent::insert_object(ObjectId(i as u32), NetPoint::new(e, 0.5)));
//! }
//! engine.apply(UpdateEvent::install_query(QueryId(0), 3, NetPoint::new(EdgeId(0), 0.25)));
//! assert_eq!(engine.result(QueryId(0)).unwrap().len(), 3);
//! ```
//!
//! The coordinator is one struct, [`ShardedEngine`], whose code is split
//! over four modules — [`engine`] (the struct, the tick loop, dispatch and
//! reconcile; its module doc is the map), [`route`], [`halo`] and
//! [`rebalance`]. An [`EngineConfig`] is built as a struct literal over
//! [`EngineConfig::with_shards`] / [`EngineConfig::default`];
//! [`EngineConfig::validate`] is the one typed-error check, and every
//! engine constructor runs it.
//!
//! The engine implements [`rnn_core::ContinuousMonitor`] itself, so any
//! driver that feeds a single monitor — scenario replay, the benchmark
//! harness, the differential tests — drives the sharded fleet unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod changelog;
pub mod config;
pub mod engine;
pub mod halo;
pub mod ingest;
pub mod protocol;
pub mod rebalance;
pub mod route;
pub mod shard;
pub mod worker;

pub use config::{EngineConfig, ReplicationConfig, ShardAlgo};
pub use engine::{EngineError, ShardedEngine};
pub use ingest::{AdmissionPolicy, DrainStats, IngestConfig, IngestError, IngestHandle, IngestHub};
pub use protocol::{
    BatchKind, DeltaBatch, QuerySnapshot, Request, Response, ShardLink, TickOutcome,
};
pub use shard::ShardTickState;
