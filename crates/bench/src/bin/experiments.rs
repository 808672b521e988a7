//! Command-line experiment runner: regenerates every table and figure of
//! the paper's §6 evaluation.
//!
//! ```text
//! experiments all                          # every figure (reduced scale)
//! experiments fig13a fig14b                # selected figures
//! experiments table2                       # print Table 2
//! experiments all --scale 0.05 --ts 8      # cheaper
//! experiments fig13b --paper-scale         # full Table 2 cardinalities
//! experiments all --parallel               # faster, noisier timings
//! experiments ci-gate                      # behaviour frozen? every count of
//!                                          # the committed BENCH_*.json repeats
//! experiments ci-gate --update             # rewrite those files instead
//! ```

#![forbid(unsafe_code)]
use std::env;
use std::process::ExitCode;

use std::path::Path;

use rnn_bench::runner::{format_series, series_to_json};
use rnn_bench::{all_figures, checks, figure_by_name, gate, run_series, Figure, Params};
use rnn_bench::{SeriesPoint, DEFAULT_SEED};

/// How one figure is run.
struct Settings {
    scale: f64,
    timestamps: usize,
    warmup: usize,
    seed: u64,
    objects: Option<usize>,
    parallel: bool,
}

struct Options {
    figures: Vec<String>,
    run: Settings,
    update_artifacts: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figures: Vec::new(),
        run: Settings {
            scale: 0.05,
            timestamps: 10,
            warmup: 2,
            seed: DEFAULT_SEED,
            objects: None,
            parallel: false,
        },
        update_artifacts: false,
    };
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.run.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--paper-scale" => opts.run.scale = 1.0,
            "--ts" => {
                opts.run.timestamps = args
                    .next()
                    .ok_or("--ts needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --ts: {e}"))?;
            }
            "--warmup" => {
                opts.run.warmup = args
                    .next()
                    .ok_or("--warmup needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --warmup: {e}"))?;
            }
            "--seed" => {
                opts.run.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--objects" => {
                // Accepts scientific notation ("1e6") so the million-object
                // ingest scenario reads the way the docs spell it.
                let raw = args.next().ok_or("--objects needs a value")?;
                let n = raw
                    .parse::<usize>()
                    .map(|n| n as f64)
                    .or_else(|_| raw.parse::<f64>())
                    .map_err(|e| format!("bad --objects: {e}"))?;
                if !n.is_finite() || n < 1.0 {
                    return Err(format!("bad --objects: {raw}"));
                }
                opts.run.objects = Some(n.round() as usize);
            }
            "--parallel" => opts.run.parallel = true,
            "--update" => opts.update_artifacts = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            other => opts.figures.push(other.to_string()),
        }
    }
    if opts.figures.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

fn usage() -> String {
    let mut u = String::from(
        "usage: experiments <figure...|all|table2|ci-gate> [--scale F] [--paper-scale] \
         [--ts N] [--warmup N] [--seed S] [--objects N] [--parallel] [--update]\n\n\
         --objects overrides the object cardinality N at every sweep point \
         (accepts 1e6-style scientific notation) — e.g. \
         `experiments ingest --objects 1e6` runs the million-object ingest \
         scenario.\n\
         ci-gate re-runs every figure that has a committed BENCH_<figure>.json, at \
         the settings pinned in its row of the figure table, and fails unless every \
         value except wall-clock time equals the committed file (run it from the \
         repo root); --update rewrites those files instead.\n\nknown figures:\n",
    );
    for f in all_figures() {
        u.push_str(&format!("  {:<12} {}\n", f.name, f.title));
    }
    u
}

/// Runs `fig` and prints its table; on an artifact figure, also holds the
/// run to the figure's checks. The one path both `experiments <figure>`
/// and `experiments ci-gate` take.
fn run_figure(fig: &Figure, run: &Settings) -> Result<Vec<SeriesPoint>, String> {
    let mut points = (fig.points)(run.scale, run.seed);
    if let Some(n) = run.objects {
        for (_, p) in &mut points {
            p.n_objects = n;
        }
    }
    let series = run_series(
        &points,
        fig.stacks,
        run.timestamps,
        run.warmup,
        run.parallel,
    );
    println!("{}", format_series(fig.title, &series, fig.memory));
    if let Some(artifact) = &fig.artifact {
        checks::resync_bound(&points, &series)?;
        (artifact.check)(&series)?;
    }
    // GMA's active-node count, where applicable.
    for p in &series {
        for r in &p.results {
            if let Some(a) = r.active_nodes {
                println!("#   {}: {} active nodes", p.label, a);
            }
        }
    }
    println!();
    Ok(series)
}

/// Re-runs every artifact figure at its pinned settings and holds each to
/// its committed `BENCH_<figure>.json` in the working directory (or
/// rewrites them). A failed check stops it; a value that moved does not,
/// so one run lists everything that did.
fn run_ci_gate(update: bool) -> Result<(), String> {
    let mut moved = 0;
    for fig in all_figures() {
        let Some(artifact) = &fig.artifact else {
            continue;
        };
        let pinned = Settings {
            scale: artifact.scale,
            timestamps: artifact.timestamps,
            warmup: artifact.warmup,
            seed: DEFAULT_SEED,
            objects: None,
            parallel: false,
        };
        println!(
            "# ci-gate: {} (scale {}, ts {}, warmup {}, seed {})",
            fig.name, pinned.scale, pinned.timestamps, pinned.warmup, pinned.seed
        );
        let fresh = series_to_json(fig.name, &run_figure(&fig, &pinned)?);
        let path = format!("BENCH_{}.json", fig.name);
        match gate::hold(Path::new(&path), &fresh, update) {
            Ok(()) if update => println!("# ci-gate: rewrote {path}"),
            Ok(()) => println!("# ci-gate: {path} repeats: behaviour frozen"),
            Err(diffs) => {
                moved += diffs.len();
                for d in diffs {
                    eprintln!("ci-gate: {d}");
                }
            }
        }
    }
    if moved > 0 {
        return Err(format!(
            "ci-gate: the committed artifacts do not repeat ({moved} lines above: file, \
             point / row, key, committed -> this run). At settings this pinned every value \
             but wall-clock time is an exact count, so the change under test changed what \
             the code does. If that is intended, rewrite the files with `experiments \
             ci-gate --update` and commit the diff."
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut names: Vec<String> = Vec::new();
    for f in &opts.figures {
        match f.as_str() {
            "all" => {
                names.push("table2".into());
                names.extend(all_figures().iter().map(|f| f.name.to_string()));
            }
            other => names.push(other.to_string()),
        }
    }

    println!(
        "# Continuous NN monitoring in road networks — experiment run\n\
         # scale={}, timestamps={}, warmup={}, seed={}\n",
        opts.run.scale, opts.run.timestamps, opts.run.warmup, opts.run.seed
    );

    for name in names {
        let done = match name.as_str() {
            "table2" => {
                println!("{}", Params::table2());
                Ok(())
            }
            "ci-gate" => run_ci_gate(opts.update_artifacts),
            _ => match figure_by_name(&name) {
                Some(fig) => run_and_write(&fig, &opts.run),
                None => Err(format!("unknown figure: {name}\n{}", usage())),
            },
        };
        if let Err(msg) = done {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `experiments <figure>`: the run, and for an artifact figure the
/// machine-readable `BENCH_<figure>.json` next to the table, in the
/// working directory.
fn run_and_write(fig: &Figure, run: &Settings) -> Result<(), String> {
    let series = run_figure(fig, run)?;
    if fig.artifact.is_some() {
        let path = format!("BENCH_{}.json", fig.name);
        std::fs::write(&path, series_to_json(fig.name, &series))
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("# wrote {path}");
    }
    Ok(())
}
