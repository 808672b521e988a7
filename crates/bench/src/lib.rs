//! # rnn-bench
//!
//! Experiment harness reproducing **every table and figure** of the VLDB
//! 2006 evaluation (§6). The `experiments` binary prints the same series
//! the paper plots, at any scale. Its work counters are the regression
//! tripwire (`experiments ci-gate`); wall-clock evidence at paper scale is
//! the `benchmark/` package's job, not this crate's.
//!
//! Layout:
//! * [`params`] — the Table 2 parameter space, with paper defaults and a
//!   uniform scaling knob,
//! * [`runner`] — drives OVH/IMA/GMA (and the influence-list ablation) over
//!   identical update streams, collecting CPU time, operation counters and
//!   memory,
//! * [`figures`] — one entry per experiment (Fig. 13a … Fig. 19b), each
//!   mapping a swept parameter to a list of runs; the eight whose
//!   `BENCH_<name>.json` is committed carry their pinned settings,
//! * [`checks`] — what each of those eight must show on every run,
//! * [`gate`] — the exact comparison against the committed files.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checks;
pub mod figures;
pub mod gate;
pub mod params;
pub mod runner;

pub use figures::{all_figures, figure_by_name, Artifact, Figure, DEFAULT_SEED};
pub use params::Params;
pub use runner::{run_series, RunResult, SeriesPoint, Stack};
