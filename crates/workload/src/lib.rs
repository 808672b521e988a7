//! # rnn-workload
//!
//! Workload generation for the continuous-monitoring experiments (§6 of the
//! paper): initial placement distributions, per-timestamp movement of
//! objects and queries, and edge-weight fluctuation — all bundled behind
//! [`scenario::Scenario`], which produces one
//! [`rnn_core::UpdateBatch`] per timestamp.
//!
//! Two movement models are provided:
//!
//! * [`movement::RandomWalker`] — the paper's default generator ("a moving
//!   object performs a random walk in the network and covers a fixed
//!   distance v_obj"),
//! * [`brinkhoff::RouteFollower`] — a route-coherent substitute for the
//!   Brinkhoff generator \[2\] used in Fig. 19 (movers pick destinations and
//!   follow shortest paths at per-mover speed classes; see DESIGN.md,
//!   substitution #2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brinkhoff;
pub mod distribution;
pub mod firehose;
pub mod movement;
pub mod scenario;

pub use distribution::Distribution;
pub use firehose::{Firehose, FirehoseConfig, FirehosePattern, FirehoseTick};
pub use scenario::{DriveReport, HotspotConfig, MovementModel, Scenario, ScenarioConfig};
