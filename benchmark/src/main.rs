//! `cargo run --release --manifest-path benchmark/Cargo.toml --
//! [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--cores one|all]`
//!
//! With `--workload`, runs that workload — untraced for the end-to-end
//! metrics, or traced for the per-layer ones — prints every metric by name
//! with its unit, and ends standard output with the one-line JSON result.
//! Without it, runs each workload in a child process of its own (so
//! `peak_rss_mb` is per workload), untraced and, with `--trace`, traced as
//! well. A workload runs pinned to one CPU unless `--cores all` says
//! otherwise: see `README.md`, "One core".

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use rnn_benchmark::measure::{self, Limits};
use rnn_benchmark::report::{END_TO_END, PER_LAYER};
use rnn_benchmark::sys::allowed_cpus;
use rnn_benchmark::trace;
use rnn_benchmark::workloads::{Workload, ALL};

const USAGE: &str = "usage: rnn-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--ticks N] [--cores one|all]";

/// `run_seconds` of `BENCHMARK.json`: the default length of a run.
const RUN_SECONDS: f64 = 24.0;

/// Set in the environment of the child this program has pinned.
const PINNED: &str = "RNN_BENCHMARK_PINNED";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    trace: bool,
    /// Run the workload on one CPU (the default) rather than on every
    /// CPU this process is allowed.
    one_core: bool,
    limits: Limits,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        trace: false,
        one_core: true,
        limits: Limits {
            seconds: RUN_SECONDS,
            ticks: None,
            warmup: 0,
        },
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            a.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::by_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.limits.seconds = value.parse().map_err(|_| bad())?,
            "--ticks" => a.limits.ticks = Some(value.parse().map_err(|_| bad())?),
            "--cores" => {
                a.one_core = match value.as_str() {
                    "one" => true,
                    "all" => false,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    // `is_nan` first: NaN compares false with everything.
    if a.limits.seconds.is_nan() || a.limits.seconds <= 0.0 || a.limits.ticks == Some(0) {
        return Err("--seconds and --ticks must be positive".to_string());
    }
    a.limits.warmup = if a.trace { 16 } else { 50 };
    Ok(a)
}

/// `benchmark/out`, where the trace files and the temporary WAL and
/// snapshot directories go: always inside the checkout.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// Removes the run's temporary directory on every way out of `main`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs this command line again under `taskset`, on the last CPU this
/// process is allowed (the first one takes the guest's interrupts), and
/// returns the child's exit code. `None` if this process is that child,
/// is confined to one CPU already, or cannot start `taskset`: then it
/// does the run itself.
fn run_pinned(argv: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpus[cpus.len() - 1].to_string())
        .arg(exe)
        .args(argv)
        .env(PINNED, "1")
        .status();
    match status {
        Ok(s) => Some(
            s.code()
                .map_or(ExitCode::FAILURE, |c| ExitCode::from(c as u8)),
        ),
        Err(e) => {
            println!("# cannot start taskset ({e}): running on every allowed CPU");
            None
        }
    }
}

fn run_one(w: Workload, a: &Args) -> ExitCode {
    let scratch = Scratch(out_dir().join(format!("tmp-{}", std::process::id())));
    println!(
        "# {} seed={} trace={} cores={}",
        w.name,
        a.seed,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (outcome, table) = if a.trace {
        let path = out_dir().join(format!("trace-{}.json", w.name));
        (
            trace::run(&w, a.seed, &a.limits, &scratch.0, &path),
            PER_LAYER,
        )
    } else {
        (measure::run(&w, a.seed, &a.limits, &scratch.0), END_TO_END)
    };
    drop(scratch);
    print!("{}", outcome.render(table));
    if outcome.correct(table) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Every workload, each in a child process of its own.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut passed = vec![
        format!("--seed={}", a.seed),
        format!("--seconds={}", a.limits.seconds),
        format!("--cores={}", if a.one_core { "one" } else { "all" }),
    ];
    passed.extend(a.limits.ticks.map(|n| format!("--ticks={n}")));
    let mut all_correct = true;
    for w in ALL {
        for traced in [false, true] {
            if traced && !a.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args(passed.iter().flat_map(|kv| kv.split('=')))
                .args([
                    "--workload",
                    w.name,
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .status();
            all_correct &= status.is_ok_and(|s| s.success());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(a) => match a.workload {
            Some(w) => a
                .one_core
                .then(|| run_pinned(&argv))
                .flatten()
                .unwrap_or_else(|| run_one(w, &a)),
            None => run_all(&a),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
