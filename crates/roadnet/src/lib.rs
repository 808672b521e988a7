//! # rnn-roadnet
//!
//! Road-network substrate for continuous k-NN monitoring (Mouratidis et al.,
//! VLDB 2006). This crate provides everything the monitoring algorithms in
//! `rnn-core` assume as given infrastructure:
//!
//! * [`graph::RoadNetwork`] — an in-memory graph of nodes and bidirectional
//!   weighted edges with planar coordinates (§3 of the paper),
//! * [`netpoint::NetPoint`] — positions *on* the network (a point along an
//!   edge), the coordinate system in which objects and queries live,
//! * [`dijkstra`] — network-expansion primitives (Dijkstra \[5\]) used both by
//!   the monitoring algorithms and by test oracles,
//! * [`quadtree::PmrQuadtree`] — the spatial index **SI** on edges (a PMR
//!   quadtree \[9\]) used to map raw coordinates to the containing edge,
//! * [`sequence`] — the decomposition of the network into *sequences* (paths
//!   between consecutive intersections) that the group monitoring algorithm
//!   (GMA, §5) is built on,
//! * [`generators`] — synthetic road-map generators standing in for the San
//!   Francisco / Oldenburg maps used in the paper's evaluation (§6).
//!
//! All identifiers are compact `u32` newtypes ([`ids`]) so that the hot data
//! structures stay small and hashing stays cheap ([`hash`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod dijkstra;
pub mod generators;
pub mod geometry;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod netpoint;
pub mod objindex;
pub mod partition;
pub mod quadtree;
pub mod sequence;
pub mod weights;
pub mod wire;

pub use arena::{SlotPool, SpanArena};
pub use dijkstra::DijkstraEngine;
pub use geometry::{Point2, Rect};
pub use graph::{Edge, NetworkData, RoadNetwork, RoadNetworkBuilder};
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{EdgeId, NodeId, ObjectId, QueryId, SeqId};
pub use netpoint::NetPoint;
pub use objindex::EdgeObjectIndex;
pub use partition::{NetworkPartition, ShardView};
pub use quadtree::PmrQuadtree;
pub use sequence::{Sequence, SequenceTable};
pub use weights::EdgeWeights;
pub use wire::{WireCodec, WireError, WireReader};
