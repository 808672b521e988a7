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
//! ## Distances are exact
//!
//! Every network distance is a multiple of one unit, [`UNIT`] `= 2^-21`.
//! [`EdgeWeights`] stores each weight rounded to the unit, and [`offset`]
//! is the one place a point's fraction meets its edge's weight: it rounds
//! `frac · w` to the unit, the distance to the edge's other end is
//! `w − offset`, and two points of one edge lie `|offset(a) − offset(b)|`
//! apart. A sum or difference of multiples of `2^-21` below `2^32`
//! (≈ 4.3e9) is exact in `f64`, so every path length is the same bits
//! whichever order it was summed in: a re-rooted tree, GMA's endpoint +
//! walk sums, a query-rooted search and a restore's fresh expansion agree
//! to the bit, and answers compare with `==`. An edge weight lies in
//! `[UNIT, MAX_WEIGHT]` ([`admits`]; `MAX_WEIGHT = 2^30`, the range in
//! which [`unit()`] rounds exactly), and sums stay exact while
//! [`EdgeWeights::total`] is below `2^32`. The San-Francisco-like paper
//! network (9,952 edges, seed 42) totals 5.08e5 at its base weights
//! (100,403 edges: 5.13e6). At 1.6M edges that is about 8.2e7, and with
//! every weight at the workload's 5× clamp about 4.1e8, ten times under
//! the bound.
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
pub use weights::{admits, offset, unit, EdgeWeights, MAX_WEIGHT, UNIT};
pub use wire::{WireCodec, WireError, WireReader};
