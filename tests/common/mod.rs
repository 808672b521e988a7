//! The differential harness every suite drives its stacks with.
//!
//! The paper's correctness claim is that IMA (§4) and GMA (§5) report what
//! a from-scratch recomputation reports at every timestamp; the engine,
//! the cluster, recovery and ingest inherit that claim only if they report
//! what a single monitor reports. The harness checks both the same way:
//!
//! - [`stack`]: the stack table. OVH, IMA and GMA; `ENG-S` (a
//!   `ShardedEngine`) over any shard algorithm, with or without
//!   rebalancing; `CLU-S` (a loopback or TCP `ClusterEngine`) under any
//!   fault plans, retry policy, durability and replication; and `ING-S`,
//!   an engine fed through `IngestHandle::submit` + `tick_ingest`. Each
//!   stack runs its own invariant check after every call, and may name a
//!   twin whose work counters (exact, or restore-stable) and memory it
//!   must match too.
//! - [`drive`]: the one comparator and the one loop. At install and after
//!   every tick every stack must report what the row's reference (its
//!   first stack) reports, compared with `==`: the query set, whole
//!   answers, `kNN_dist` bits, `results_changed` and the change list; the
//!   reference's change list must be the brute-force diff of its answers
//!   ([`drive::KeptAnswers`]).
//! - [`workload`]: the workloads (seeded scenarios, the tie-prone stream,
//!   query churn, quiet ticks, the drifting hotspot, a flash-crowd
//!   firehose, hand-written programs), the one `grid` and `base_cfg`, and
//!   the scenario table the engine and cluster suites share.
//! - [`cases`](mod@cases): the one source of randomness. A randomized test is a
//!   loop over a fixed range of seeds, each case drawing every input from
//!   its own `StdRng`; a failing case names its test and its seed.
//!
//! **Adding a row.** Write a `#[test]` that builds a workload (a table
//! entry, or a [`workload::Program`] of batches), lists its stacks with the
//! reference first, calls `drive(&mut workload, &mut stacks, ticks)` and
//! unwraps it; then assert only what that row is about (a migration
//! floor, a replay bound, "the planned crash fired") through the stacks'
//! accessors. A randomized row builds its program inside
//! `cases(0..n, |rng| ..)` from the case's generator and asserts
//! `assert_eq!(drive(..), Ok(()))`, so the failing seed is in the message.

// Each suite uses only part of the harness.
#![allow(dead_code, unused_imports)]

pub mod cases;
pub mod drive;
pub mod stack;
pub mod workload;

pub use cases::cases;
pub use drive::{compare, drive, drive_observed, KeptAnswers};
pub use stack::{events, lossless, Counters, Plane, Stack};
pub use workload::{
    base_cfg, exact_grid, grid, tie_prone_point, Churn, FlashCrowd, Hotspot, Program, Quiet, Shape,
    Sharded, TieProne, Workload,
};
