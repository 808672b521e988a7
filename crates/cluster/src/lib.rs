//! # rnn-cluster
//!
//! A shard-per-**process** deployment of the sharded continuous-monitoring
//! engine: the coordinator runs [`rnn_engine::ShardedEngine`]'s
//! route/absorb loop unchanged, but each shard's monitor sits behind a
//! small RPC layer instead of an in-process thread.
//!
//! Everything here exists to keep that loop answer-identical across
//! process death, and it does so with three mechanisms, each present
//! exactly once:
//!
//! * **One log** — [`log::ShardLog`]: the event frames a shard must
//!   replay, the latest monitor-state snapshot they replay on top of,
//!   and the rule that truncates the first behind the second. The
//!   coordinator link holds one and so does every follower replica;
//!   each runs the same logic over a `storage` seam — files under a
//!   durability directory, memory otherwise.
//! * **One wait loop** — `client::Inner::await_reply` on the shard link
//!   (reply / retransmit budget exhausted / peer closed) and
//!   `ReplicatedLog::broadcast` on the follower links (send → ack per
//!   live follower). Every request of every kind waits in one of the two.
//! * **One replay path** — [`ShardService::handle`]: a service is a
//!   state machine fed request frames. A respawned service is rebuilt by
//!   a snapshot-install frame and the log suffix arriving over the wire;
//!   a promoted follower builds a service locally and feeds it the same
//!   frames from its own log. Same code, same state.
//!
//! The modules, bottom-up:
//!
//! * [`frame`] — the wire envelope: `u32 len | u16 tag | u32 seq |
//!   u32 epoch | u32 crc | payload`, one tag per protocol message, a
//!   CRC-32C over everything but the length prefix. The payloads are
//!   the engine's own delta protocol ([`rnn_engine::protocol`]) made
//!   explicit as typed frames: tick events, halo-resync events,
//!   migration hand-off, result-snapshot deltas coming back.
//! * [`transport`] — byte pipes moving whole frames: an in-process
//!   loopback pair with deterministic fault injection (delay, reorder,
//!   corruption, duplication, partition, crash-on-cue), and a stream
//!   transport over Unix domain sockets or TCP (`std::net` + worker
//!   threads; no async runtime).
//! * `storage` — named blobs with append, sync, read-all and atomic
//!   replace (tmp + fsync + rename + directory fsync, the crate's only
//!   copy of it), as files in a directory or in memory.
//! * [`wal`] — the event blob under a log: verbatim frame records,
//!   batched sync, torn-tail-tolerant reopen.
//! * [`log`] — [`ShardLog`], above: the WAL, `snapshot.bin` and the
//!   `epoch.bin` replication fences on, the crate's one namer of files.
//! * [`service`] — the shard side: one monitor driven through
//!   [`rnn_engine::ShardTickState`] (so replies are bit-identical to an
//!   in-process worker's), with epoch fencing and duplicate-request
//!   suppression by sequence number.
//! * [`client`] — the coordinator side: [`RemoteShard`] logs every
//!   event frame, waits out every reply, runs the snapshot cycle, and
//!   on a dead peer tries respawn-rebuild, then follower promotion.
//!   Unrecoverable links report typed [`ClusterError`]s and go `Down`
//!   instead of panicking; planner takeover is then the engine's call.
//! * [`replog`] / [`replica`] — the replicated-journal plane: a
//!   leader-per-shard [`replog::ReplicatedLog`] streams every routed
//!   event frame to hot-standby [`replica::ReplicaNode`]s, commits once
//!   every live follower has acked (a follower that misses its ack
//!   timeout is dead from then on), fences stale leaders by epoch, and
//!   promotes a follower into the serving [`ShardService`] when the
//!   shard dies past its retry and respawn budgets. With replication off
//!   the log simply has no followers.
//! * [`engine`] — [`ClusterEngine`], gluing a `ShardedEngine<RemoteShard>`
//!   to constructed transports and aggregating
//!   [`rnn_core::TransportStats`].
//!
//! Because monitors are deterministic and the RPC layer delivers
//! exactly-once *semantics* (at-least-once delivery + sequence-numbered
//! dedup), a `ClusterEngine` is answer-identical to the in-process
//! engine, which the differential suite checks under every injected
//! fault. **The counter contract**: a run that never restores a
//! snapshot is bit-identical on every work counter; after a snapshot
//! restore (respawn-rebuild or promotion alike) answers still match and
//! the work counters match under the one projection
//! `rnn_core::OpCounters::restore_stable()` — a restored monitor
//! recomputes its expansion trees, so tree-shape and allocator history
//! legitimately differ.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod engine;
pub mod error;
pub mod frame;
pub mod log;
pub mod replica;
pub mod replog;
pub mod service;
mod storage;
pub mod transport;
pub mod wal;

pub use client::{DurabilityConfig, RemoteShard, RetryPolicy};
pub use engine::ClusterEngine;
pub use error::ClusterError;
pub use frame::{Frame, MsgTag};
pub use log::ShardLog;
pub use replica::{MonitorFactory, ReplicaNode};
pub use replog::ReplicatedLog;
pub use service::{serve_tcp, serve_unix, ShardService};
pub use transport::{loopback_pair, FaultPlan, LoopbackTransport, RecvError, Transport};
pub use wal::Wal;
