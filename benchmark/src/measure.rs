//! The untraced run: set-up, warm-up, then a closed loop — one driver
//! thread, back-to-back timestamps — over the workload's top-of-stack
//! rung, with correctness checkpoints against the fresh-`Ovh` oracle.
//! This run produces the end-to-end metrics; nothing here records spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::stacks::{build, oracle_mismatches, Build, Crash, Feed, Stack, TickCounts};
use crate::sys::{cpu_ms, median, peak_rss_mb, windowed_p99};
use crate::workloads::Workload;

/// A correctness checkpoint runs on every this-many-th measured tick and
/// on the last one.
pub const CHECKPOINT_EVERY: usize = 100;

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Wall-clock length of the measured window.
    pub seconds: f64,
    /// Measure exactly this many ticks instead (reproducible counts).
    pub ticks: Option<usize>,
    /// Untimed ticks before the window opens.
    pub warmup: usize,
}

impl Limits {
    /// Whether the window stays open after `done` ticks and `elapsed`.
    pub fn open(&self, done: usize, elapsed: Duration) -> bool {
        match self.ticks {
            Some(n) => done < n,
            None => elapsed.as_secs_f64() < self.seconds,
        }
    }
}

/// Builds the workload's generator and its top rung, installed, a few
/// times over — set-up is short next to a run, so one sample is noise —
/// and returns the last pair with every set-up time in seconds.
pub fn set_up(w: &Workload, seed: u64, scratch: &Path) -> (Feed, Box<dyn Stack>, Vec<f64>) {
    let mut times = Vec::new();
    let budget = Instant::now();
    loop {
        let start = Instant::now();
        let feed = Feed::new(&w.knobs, seed);
        let rig = build(
            w.top,
            &feed,
            &Build {
                rebalance: w.rebalance,
                scratch,
                crash: Crash::None,
            },
        );
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && (budget.elapsed().as_secs_f64() > 1.0 || times.len() >= 9);
        if enough {
            return (feed, Box::new(rig), times);
        }
    }
}

/// One timed call into the rung, CPU sampled just outside it.
pub struct Timed {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// `Err` if the call refused a submission or panicked.
    pub counts: Result<TickCounts, String>,
}

/// Times one tick. A panic inside the stack is caught and reported.
pub fn timed_tick(stack: &mut dyn Stack, tick: &crate::stacks::Tick<'_>) -> Timed {
    let cpu0 = cpu_ms();
    let start = Instant::now();
    let counts = catch_unwind(AssertUnwindSafe(|| stack.tick(tick)));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = cpu_ms() - cpu0;
    Timed {
        wall_ms,
        cpu_ms,
        counts: counts.unwrap_or_else(|_| Err("the call panicked".to_string())),
    }
}

/// Why this tick counts as a failed operation, if it does: the call
/// failed, a shard is dead, an event was shed, or a retry fired on the
/// fault-free transport.
pub fn tick_problem(stack: &dyn Stack, timed: &Timed, retries_seen: &mut u64) -> Option<String> {
    let counts = match &timed.counts {
        Ok(c) => c,
        Err(e) => return Some(e.clone()),
    };
    let h = stack.health();
    let retried = h.wire.retries > *retries_seen;
    *retries_seen = h.wire.retries;
    if h.live_shards < h.shards {
        Some(format!("{} of {} shards alive", h.live_shards, h.shards))
    } else if counts.shed > 0 {
        Some(format!("{} events shed", counts.shed))
    } else if retried {
        Some("a retry fired on the fault-free transport".to_string())
    } else {
        None
    }
}

/// Warm-up plus the measured closed loop over `stack`; fills in every
/// end-to-end metric except `setup_s` and returns the number of
/// partition cells that migrated inside the window.
pub fn measure(stack: &mut dyn Stack, feed: &mut Feed, limits: &Limits, out: &mut Outcome) -> u64 {
    for _ in 0..limits.warmup {
        let t = feed.advance();
        if let Err(e) = timed_tick(stack, &t).counts {
            out.problems.push(format!("warm-up: {e}"));
            return 0;
        }
    }

    let mut wall = Vec::new();
    let mut cpu = 0.0;
    let mut events = 0u64;
    let mut cells_migrated = 0u64;
    let mut retries = stack.health().wire.retries;
    let window = Instant::now();
    while limits.open(wall.len(), window.elapsed()) {
        let tick_no = wall.len() + 1;
        let t = feed.advance();
        let timed = timed_tick(stack, &t);
        out.attempted += 1;
        wall.push(timed.wall_ms);
        cpu += timed.cpu_ms;
        let panicked = timed.counts.is_err();
        if let Ok(c) = &timed.counts {
            events += c.events;
            cells_migrated += c.cells_migrated;
        }
        if let Some(why) = tick_problem(stack, &timed, &mut retries) {
            out.fail(tick_no, why);
        } else if tick_no % CHECKPOINT_EVERY == 0 {
            checkpoint(stack, feed, tick_no, out);
        }
        if panicked {
            return cells_migrated; // the stack is in an unknown state
        }
    }
    if wall.len() % CHECKPOINT_EVERY != 0 {
        checkpoint(stack, feed, wall.len(), out);
    }

    let total_s = wall.iter().sum::<f64>() / 1e3;
    out.set("tick_p50_ms", median(&wall));
    out.set("tick_p99_ms", windowed_p99(&wall));
    out.set("throughput_upd_s", events as f64 / total_s);
    out.set("cpu_ms_per_tick", cpu / wall.len() as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    cells_migrated
}

/// Compares every query's answer with the oracle's; a mismatch fails the
/// operation that produced it.
pub fn checkpoint(stack: &dyn Stack, feed: &Feed, tick_no: usize, out: &mut Outcome) {
    let wrong = oracle_mismatches(feed, stack);
    if wrong > 0 {
        out.fail(
            tick_no,
            format!(
                "{wrong} of {} answers of {} differ from the fresh-Ovh oracle",
                feed.num_queries(),
                stack.rung().name()
            ),
        );
    }
}

/// The whole untraced run of one workload.
pub fn run(w: &Workload, seed: u64, limits: &Limits, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (mut feed, mut stack, setups) = set_up(w, seed, scratch);
    out.set("setup_s", median(&setups));
    let cells_migrated = measure(stack.as_mut(), &mut feed, limits, &mut out);
    // A rebalancing run in which the planner never moved a cell measured
    // a dead path: the hotspot needs retuning, not reporting.
    if w.rebalance && cells_migrated == 0 {
        out.problems.push("no cell migrated".to_string());
    }
    out
}
