//! The repo benchmark: paper-scale tick latency, throughput and cost over
//! four workloads, with a per-layer stack ladder. See `README.md`.

#![forbid(unsafe_code)]

pub mod measure;
pub mod report;
pub mod stacks;
pub mod sys;
pub mod trace;
pub mod workloads;
