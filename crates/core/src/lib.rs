//! # rnn-core
//!
//! Continuous k-nearest-neighbor monitoring in road networks — a faithful
//! implementation of Mouratidis, Yiu, Papadias, Mamoulis, *"Continuous
//! Nearest Neighbor Monitoring in Road Networks"*, VLDB 2006.
//!
//! A central server tracks a set of moving data objects, a set of moving
//! continuous k-NN queries, and fluctuating edge weights, and must keep
//! every query's k-NN set (by network distance) up to date at every
//! timestamp. Three monitors implement the common [`ContinuousMonitor`]
//! trait:
//!
//! * [`Ovh`] — the *overhaul* baseline (§6): recompute every query from
//!   scratch each timestamp with the Figure-2 network expansion.
//! * [`Ima`] — the *incremental monitoring algorithm* (§4): per-query
//!   expansion trees plus per-edge influence lists; only updates that can
//!   invalidate a result are processed, and the valid part of each tree is
//!   reused when re-expanding.
//! * [`Gma`] — the *group monitoring algorithm* (§5): the network is
//!   decomposed into sequences (paths between intersections); the k-NN sets
//!   of *active* intersection nodes are monitored with the IMA machinery
//!   and shared by every query inside the adjacent sequences (Lemma 1).
//!
//! As an extension (§7, future work) the crate also provides [`crnn::Crnn`],
//! continuous *reverse* nearest-neighbor monitoring built on the same
//! primitives.
//!
//! ## How the crate is laid out
//!
//! The paper has one search primitive — Figure 2's network expansion,
//! resumed from a kept tree in §4 — and the crate has it once:
//! [`search::Expander`] owns the network handle, the Dijkstra engine, the
//! candidate scratch and the pool the expansion trees ([`tree`]) live in;
//! its `expand` is the only expansion loop and the only place a
//! re-evaluation and its Dijkstra steps are counted, and its `harvest` is
//! the one fold of what the searches allocated, stepped and recycled.
//! [`Ovh`] holds an expander directly. [`Ima`], [`Gma`] and [`crnn::Crnn`]
//! hold one through an [`anchor::AnchorSet`], the §4 machinery, keyed as
//! the paper's tables are by the id of what each row describes — **QT**
//! by [`QueryId`](rnn_roadnet::QueryId) in IMA, **NT** by
//! [`NodeId`](rnn_roadnet::NodeId) in GMA, by
//! [`ObjectId`](rnn_roadnet::ObjectId) in CRNN — so no monitor keeps an
//! id map beside it and a tick resolves its anchors in owner-id order. The
//! module is split along the IMA schedule of Figure 10: `anchor/mod.rs`
//! (the per-anchor records, `add` / `remove` / `set_k` / `validate`),
//! `anchor/schedule.rs` (`tick`, lines 1–19: the timestamp's updates
//! classified into per-anchor pending work through the influence lists of
//! [`influence`]) and `anchor/resolve.rs` (lines 20–26: one re-expansion
//! per affected anchor from the surviving part of its tree). [`state`]
//! coalesces a timestamp's [`UpdateBatch`] (§4.5), [`snapshot`] and
//! [`codec`] carry monitor state and events across processes, and
//! [`counters`] declares the work counters every layer reports.
//!
//! ## Quick start
//!
//! ```
//! use rnn_core::{ContinuousMonitor, Ima, UpdateBatch, UpdateEvent};
//! use rnn_roadnet::{generators, EdgeId, NetPoint, ObjectId, QueryId};
//! use std::sync::Arc;
//!
//! let net = Arc::new(generators::grid_city(&generators::GridCityConfig {
//!     nx: 6, ny: 6, seed: 1, ..Default::default()
//! }));
//! let mut ima = Ima::new(net.clone());
//! // Populate: one object per fifth edge.
//! for (i, e) in net.edge_ids().enumerate().step_by(5) {
//!     ima.apply(UpdateEvent::insert_object(ObjectId(i as u32), NetPoint::new(e, 0.5)));
//! }
//! // Install a 3-NN query and read its result.
//! ima.apply(UpdateEvent::install_query(QueryId(0), 3, NetPoint::new(EdgeId(0), 0.25)));
//! let result = ima.result(QueryId(0)).unwrap();
//! assert_eq!(result.len(), 3);
//! // Advance one (empty) timestamp.
//! ima.tick(&UpdateBatch::default());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anchor;
pub mod codec;
pub mod counters;
pub mod crnn;
pub mod gma;
pub mod ima;
pub mod influence;
pub mod monitor;
pub mod ovh;
pub mod search;
pub mod snapshot;
pub mod state;
pub mod tree;
pub mod types;

pub use counters::{MemoryUsage, OpCounters, TickReport};
pub use gma::Gma;
pub use ima::Ima;
pub use monitor::{load_population, ContinuousMonitor, TransportStats};
pub use ovh::Ovh;
pub use snapshot::{MonitorState, RestoreError};
pub use types::{
    EdgeWeightUpdate, Neighbor, ObjectEvent, QueryEvent, RootPos, UpdateBatch, UpdateEvent,
};
