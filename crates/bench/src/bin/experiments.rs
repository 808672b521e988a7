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
//! experiments ci-gate                      # counter-regression gate vs
//!                                          # the committed BENCH_*.json
//! experiments ci-gate --update             # regenerate those baselines
//! ```

#![forbid(unsafe_code)]
use std::env;
use std::process::ExitCode;

use rnn_bench::gate::{compare, run_gated_figure, GATE_SPECS, MAX_REGRESSION};
use rnn_bench::runner::{format_series, series_to_json, Ingest, Link, DURABLE_SNAPSHOT_EVERY};
use rnn_bench::{all_figures, figure_by_name, run_series, Params};

struct Options {
    figures: Vec<String>,
    scale: f64,
    timestamps: usize,
    warmup: usize,
    seed: u64,
    objects: Option<usize>,
    parallel: bool,
    update_baselines: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figures: Vec::new(),
        scale: 0.05,
        timestamps: 10,
        warmup: 2,
        seed: 42,
        objects: None,
        parallel: false,
        update_baselines: false,
    };
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--paper-scale" => opts.scale = 1.0,
            "--ts" => {
                opts.timestamps = args
                    .next()
                    .ok_or("--ts needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --ts: {e}"))?;
            }
            "--warmup" => {
                opts.warmup = args
                    .next()
                    .ok_or("--warmup needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --warmup: {e}"))?;
            }
            "--seed" => {
                opts.seed = args
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
                opts.objects = Some(n.round() as usize);
            }
            "--parallel" => opts.parallel = true,
            "--update" => opts.update_baselines = true,
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
         ci-gate re-runs the gated figures at pinned settings and fails if a \
         deterministic counter regressed >5% vs the committed BENCH_*.json \
         baselines; --update regenerates those baselines instead.\n\nknown figures:\n",
    );
    for f in all_figures() {
        u.push_str(&format!("  {:<12} {}\n", f.name, f.title));
    }
    u
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
        opts.scale, opts.timestamps, opts.warmup, opts.seed
    );

    for name in names {
        if name == "table2" {
            println!("{}", Params::table2());
            continue;
        }
        if name == "ci-gate" {
            if let Err(code) = run_ci_gate(opts.update_baselines) {
                return code;
            }
            continue;
        }
        let Some(fig) = figure_by_name(&name) else {
            eprintln!("unknown figure: {name}\n{}", usage());
            return ExitCode::FAILURE;
        };
        let mut points = (fig.points)(opts.scale, opts.seed);
        if let Some(n) = opts.objects {
            for (_, p) in &mut points {
                p.n_objects = n;
            }
        }
        let series = run_series(
            &points,
            fig.stacks,
            opts.timestamps,
            opts.warmup,
            opts.parallel,
        );
        println!("{}", format_series(fig.title, &series, fig.memory));
        // The artifact figures double as the cross-PR perf tracker: emit
        // a machine-readable artifact next to the human-readable table,
        // and enforce the engine's O(changed-edges) replica-maintenance
        // bound — no single tick may resync more objects than exist. CI
        // runs these figures and fails on a violation.
        if fig.artifact {
            let path = format!("BENCH_{}.json", fig.name);
            match std::fs::write(&path, series_to_json(fig.name, &series)) {
                Ok(()) => println!("# wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            for (point, (label, params)) in series.iter().zip(&points) {
                for r in point.results.iter().filter(|r| r.stack.shards > 0) {
                    if r.max_tick_resync > params.n_objects as u64 {
                        eprintln!(
                            "REPLICA MAINTENANCE REGRESSION: {} at {label} resynced \
                             {} objects in one tick (only {} exist) — halo resync \
                             is no longer incremental",
                            r.stack.name(),
                            r.max_tick_resync,
                            params.n_objects
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        // Tick-path guarantees. Steady-state ticks must be allocation-free
        // on the instrumented structures: the only legitimate alloc events
        // are rare per-edge high-water records (arena capacity growth),
        // which show up as a per-ts rate near zero. A rate at or above 0.5
        // means per-tick churn is allocating again (e.g. a reintroduced
        // per-edge `Vec` build) — fail. And the expansion-sharing machinery
        // must actually fire on the default scenario.
        if fig.name == "tickpath" {
            let mut shared_total = 0.0;
            let mut recycled_total = 0.0;
            for point in &series {
                for r in &point.results {
                    shared_total += r.get("shared_per_ts");
                    let single = r.stack.shards == 0;
                    if single {
                        recycled_total += r.get("recycled_per_ts");
                    }
                    if single && r.get("alloc_per_ts") >= 0.5 {
                        eprintln!(
                            "TICK-PATH REGRESSION: {} at {} allocated {:.3} times per \
                             steady-state tick — the arena/heap/tree-pool layout no \
                             longer runs allocation-free (tree surgery included)",
                            r.stack.name(),
                            point.label,
                            r.get("alloc_per_ts")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            if shared_total <= 0.0 {
                eprintln!(
                    "TICK-PATH REGRESSION: shared_expansions stayed 0 across the \
                     tickpath figure — per-tick expansion sharing never fired"
                );
                return ExitCode::FAILURE;
            }
            if recycled_total <= 0.0 {
                eprintln!(
                    "TICK-PATH REGRESSION: tree_nodes_recycled stayed 0 across the \
                     tickpath figure — tree surgery stopped reusing pooled slots \
                     (edge churn must cut and re-grow subtrees through the free list)"
                );
                return ExitCode::FAILURE;
            }
        }
        // Rebalance guarantees: under the skewed drifting-hotspot stream
        // the load-aware engine must actually migrate cells, and its final
        // max/mean shard-load ratio must beat the static partition's at
        // every point. This is the CI rebalance smoke.
        if fig.name == "rebalance" {
            for point in &series {
                let static_eng = point.results.iter().find(|r| !r.stack.rebalancing);
                let rebal = point.results.iter().find(|r| r.stack.rebalancing);
                let (Some(st), Some(rb)) = (static_eng, rebal) else {
                    eprintln!("REBALANCE REGRESSION: figure lost its engine pair");
                    return ExitCode::FAILURE;
                };
                let (cells, rebalances) = (rb.get("cells_migrated"), rb.get("rebalances"));
                if cells == 0.0 || rebalances == 0.0 {
                    eprintln!(
                        "REBALANCE REGRESSION: {} never migrated under the hotspot \
                         at {} (rebalances {}, cells {})",
                        rb.stack.name(),
                        point.label,
                        rebalances,
                        cells
                    );
                    return ExitCode::FAILURE;
                }
                if rb.load_ratio >= st.load_ratio {
                    eprintln!(
                        "REBALANCE REGRESSION: at {} the load-aware engine's \
                         max/mean shard load ({:.3}) did not beat the static \
                         partition's ({:.3})",
                        point.label, rb.load_ratio, st.load_ratio
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "#   {}: load ratio {:.3} (static) -> {:.3} (rebalanced), \
                     {} cells over {} migrations",
                    point.label, st.load_ratio, rb.load_ratio, cells, rebalances
                );
            }
        }
        // Cluster smoke: the loopback cluster must actually move frames,
        // its deterministic work counters must equal the in-process
        // engine's at the same shard count (the answer-identity claim,
        // visible in the artifact), and a fault-free transport must stay
        // under the pinned retry bound — more retries means the timeout
        // policy is misfiring or replies are being lost (a retry storm).
        if fig.name == "cluster" {
            const RETRY_STORM_BOUND: f64 = 8.0;
            for point in &series {
                let inproc = point
                    .results
                    .iter()
                    .find(|r| r.stack.link == Link::InProcess);
                for r in point
                    .results
                    .iter()
                    .filter(|r| r.stack.link == Link::Loopback)
                {
                    if r.get("frames_per_ts") <= 0.0 {
                        eprintln!(
                            "CLUSTER REGRESSION: {} at {} moved no RPC frames — the \
                             coordinator is not talking to its shard services",
                            r.stack.name(),
                            point.label
                        );
                        return ExitCode::FAILURE;
                    }
                    if r.get("retries") > RETRY_STORM_BOUND {
                        eprintln!(
                            "CLUSTER REGRESSION: {} at {} retransmitted {} times on a \
                             fault-free loopback transport (bound {RETRY_STORM_BOUND}) — \
                             retry storm",
                            r.stack.name(),
                            point.label,
                            r.get("retries")
                        );
                        return ExitCode::FAILURE;
                    }
                    let twin = inproc.filter(|eng| eng.stack.shards == r.stack.shards);
                    if let Some(eng) = twin.filter(|e| e.get("work_per_ts") != r.get("work_per_ts"))
                    {
                        eprintln!(
                            "CLUSTER REGRESSION: at {} {} work {} != {} work {} — the RPC \
                             layer is no longer answer-identical",
                            point.label,
                            r.stack.name(),
                            r.get("work_per_ts"),
                            eng.stack.name(),
                            eng.get("work_per_ts")
                        );
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "#   {}: cluster frames/bytes per ts: {}",
                    point.label,
                    point
                        .results
                        .iter()
                        .filter(|r| r.stack.link == Link::Loopback)
                        .map(|r| format!(
                            "{} {:.1}/{:.0}",
                            r.stack.name(),
                            r.get("frames_per_ts"),
                            r.get("bytes_per_ts")
                        ))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
        // Recovery smoke: every durable run crashes each shard at a
        // pinned delivered-frame budget, so each CLU-n-D row must record
        // at least one recovery and at least one snapshot; each recovery
        // must have replayed only the journal *suffix* behind the latest
        // snapshot (O(snapshot cadence), never O(run length)); and the
        // truncation guarantee must hold — the summed per-shard journals
        // stay under shards x cadence, proving truncate-behind-snapshot
        // fired instead of letting the journal grow with the run.
        if fig.name == "recovery" {
            for point in &series {
                for r in &point.results {
                    if r.stack.link != Link::Durable {
                        continue;
                    }
                    let shards = r.stack.shards;
                    if r.get("recoveries") == 0.0 || r.get("snapshots") == 0.0 {
                        eprintln!(
                            "RECOVERY REGRESSION: {} at {} recorded {} recoveries and \
                             {} snapshots — the fault plan stopped crashing shards or \
                             the snapshot cadence stopped firing",
                            r.stack.name(),
                            point.label,
                            r.get("recoveries"),
                            r.get("snapshots")
                        );
                        return ExitCode::FAILURE;
                    }
                    let replay_bound = f64::from(DURABLE_SNAPSHOT_EVERY) + 2.0;
                    if r.get("replayed_per_recovery") > replay_bound {
                        eprintln!(
                            "RECOVERY REGRESSION: {} at {} replayed {:.1} frames per \
                             recovery (bound {:.0}) — respawn is replaying history a \
                             snapshot should have absorbed",
                            r.stack.name(),
                            point.label,
                            r.get("replayed_per_recovery"),
                            replay_bound
                        );
                        return ExitCode::FAILURE;
                    }
                    let journal_bound = f64::from(shards) * f64::from(DURABLE_SNAPSHOT_EVERY);
                    if r.get("journal_len") >= journal_bound {
                        eprintln!(
                            "RECOVERY REGRESSION: {} at {} ended with {} journaled \
                             frames across {} shards (bound {}) — the journal is no \
                             longer truncated behind durable snapshots",
                            r.stack.name(),
                            point.label,
                            r.get("journal_len"),
                            shards,
                            journal_bound
                        );
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "#   {}: {} recovered {}x, {:.1} frames replayed/recovery, \
                         {} snapshots ({:.1} KB), {} journaled frames at end",
                        point.label,
                        r.stack.name(),
                        r.get("recoveries"),
                        r.get("replayed_per_recovery"),
                        r.get("snapshots"),
                        r.get("snapshot_kb"),
                        r.get("journal_len")
                    );
                }
            }
        }
        // Replication smoke: every CLU-n-R shard's leader is killed at a
        // pinned delivered-frame budget with stillborn respawns, so each
        // row must record one follower promotion per shard — a zero
        // means the kill stopped firing or recovery found another path,
        // and the failover machinery went unexercised. Served answers
        // must stay answer-identical through promotion (work counters
        // equal to ENG-n at the same shard count), nothing may be
        // fenced in a healthy run, and the replication plane must have
        // actually shipped bytes to the followers. Divergence is judged
        // on the restore-stable counter columns: resync/evictions per
        // ts must be exact, while `ignored_per_ts` gets a 1% band —
        // snapshot restore recomputes expansion trees, and a recomputed
        // tree's θ-extent can flip a borderline update in or out of an
        // influence region (the CLU-n-D recovery path wobbles the same
        // way). Tree-shape-coupled work counters are not compared.
        if fig.name == "replication" {
            for point in &series {
                for r in point.results.iter() {
                    if r.stack.link != Link::Replicated {
                        continue;
                    }
                    let shards = r.stack.shards;
                    if r.get("failovers") < f64::from(shards) {
                        eprintln!(
                            "REPLICATION REGRESSION: {} at {} promoted {} followers \
                             (expected one per shard, {shards}) — the leader kills \
                             stopped driving failover",
                            r.stack.name(),
                            point.label,
                            r.get("failovers")
                        );
                        return ExitCode::FAILURE;
                    }
                    if r.get("fenced_appends") > 0.0 {
                        eprintln!(
                            "REPLICATION REGRESSION: {} at {} rejected {} appends as \
                             stale — a healthy run must never fence its own leader",
                            r.stack.name(),
                            point.label,
                            r.get("fenced_appends")
                        );
                        return ExitCode::FAILURE;
                    }
                    if r.get("replica_bytes") == 0.0 || r.get("commit_lag_frames") <= 0.0 {
                        eprintln!(
                            "REPLICATION REGRESSION: {} at {} shipped {} replica bytes \
                             with commit lag {:.3} — the quorum pipeline never ran",
                            r.stack.name(),
                            point.label,
                            r.get("replica_bytes"),
                            r.get("commit_lag_frames")
                        );
                        return ExitCode::FAILURE;
                    }
                    let oracle = point
                        .results
                        .iter()
                        .find(|o| o.stack.link == Link::InProcess && o.stack.shards == shards);
                    if let Some(eng) = oracle {
                        let exact = (r.get("resync_per_ts"), r.get("evictions_per_ts"))
                            == (eng.get("resync_per_ts"), eng.get("evictions_per_ts"));
                        let ignored_ok = (r.get("ignored_per_ts") - eng.get("ignored_per_ts"))
                            .abs()
                            <= eng.get("ignored_per_ts") * 0.01;
                        if !exact || !ignored_ok {
                            eprintln!(
                                "REPLICATION REGRESSION: at {} {} restore-stable \
                                 counters (ignored {:.3}, resync {:.3}, evictions \
                                 {:.3}) diverged from {} ({:.3}, {:.3}, {:.3}) — \
                                 the cluster no longer matches the in-process \
                                 engine through follower promotion",
                                point.label,
                                r.stack.name(),
                                r.get("ignored_per_ts"),
                                r.get("resync_per_ts"),
                                r.get("evictions_per_ts"),
                                eng.stack.name(),
                                eng.get("ignored_per_ts"),
                                eng.get("resync_per_ts"),
                                eng.get("evictions_per_ts")
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                    println!(
                        "#   {}: {} failed over {}x, commit lag/ts {:.1}, \
                         {} replica bytes, {} fenced",
                        point.label,
                        r.stack.name(),
                        r.get("failovers"),
                        r.get("commit_lag_frames"),
                        r.get("replica_bytes"),
                        r.get("fenced_appends")
                    );
                }
            }
        }
        // Ingest smoke: the lossless ingest-fed engine must actually fold
        // redundant firehose reports (every feed shape oversamples, so a
        // zero means §4.5 coalescing stopped firing), must never shed
        // (blocking admission with lanes sized above the feed rate), and
        // its post-warmup drains must run allocation-free — the swap-and-
        // merge drain's zero-copy guarantee, measured as a window total so
        // a single stray allocation fails. The tight-laned ING-SHED column
        // must demonstrably shed, or the admission-control demonstration
        // is dead weight in the artifact.
        if fig.name == "ingest" {
            for point in &series {
                for r in &point.results {
                    let shed = r.get("shed_events");
                    let drain_allocs = r.get("drain_alloc_events");
                    if r.stack.ingest == Ingest::Lossless {
                        if r.get("coalesced_per_ts") <= 0.0 {
                            eprintln!(
                                "INGEST REGRESSION: {} at {} coalesced nothing — the \
                                 drain stopped folding superseded reports",
                                r.stack.name(),
                                point.label
                            );
                            return ExitCode::FAILURE;
                        }
                        if shed > 0.0 {
                            eprintln!(
                                "INGEST REGRESSION: {} at {} shed {shed} events under \
                                 blocking admission — lossless lanes dropped data",
                                r.stack.name(),
                                point.label
                            );
                            return ExitCode::FAILURE;
                        }
                        if drain_allocs > 0.0 {
                            eprintln!(
                                "INGEST REGRESSION: {} at {} allocated {drain_allocs} times in \
                                 post-warmup drains — the swap-and-merge drain is no \
                                 longer allocation-free at steady state",
                                r.stack.name(),
                                point.label
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                    if r.stack.ingest == Ingest::Shedding && shed == 0.0 {
                        eprintln!(
                            "INGEST REGRESSION: {} at {} never shed — the tight \
                             ShedOldest lanes stopped exercising admission control",
                            r.stack.name(),
                            point.label
                        );
                        return ExitCode::FAILURE;
                    }
                }
                println!(
                    "#   {}: {}",
                    point.label,
                    point
                        .results
                        .iter()
                        .filter(|r| r.stack.ingest != Ingest::Batch)
                        .map(|r| format!(
                            "{} coalesced/ts {:.1}, shed {}, drain allocs {}",
                            r.stack.name(),
                            r.get("coalesced_per_ts"),
                            r.get("shed_events"),
                            r.get("drain_alloc_events")
                        ))
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
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
    }
    ExitCode::SUCCESS
}

/// Runs the counter-regression gate (or regenerates its baselines).
fn run_ci_gate(update: bool) -> Result<(), ExitCode> {
    let mut failed = false;
    for spec in GATE_SPECS {
        let path = format!("BENCH_{}.json", spec.figure);
        println!(
            "# ci-gate: {} (scale {}, ts {}, warmup {}, seed {})",
            spec.figure, spec.scale, spec.timestamps, spec.warmup, spec.seed
        );
        let fresh = match run_gated_figure(spec) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("ci-gate: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        if update {
            if let Err(e) = std::fs::write(&path, &fresh) {
                eprintln!("ci-gate: failed to write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            println!("# ci-gate: rewrote baseline {path}");
            continue;
        }
        let baseline = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "ci-gate: cannot read committed baseline {path}: {e} \
                     (run `experiments ci-gate --update` and commit the file)"
                );
                return Err(ExitCode::FAILURE);
            }
        };
        match compare(spec.figure, &baseline, &fresh) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "# ci-gate: {} counters within {:.0}% of baseline",
                    spec.figure,
                    MAX_REGRESSION * 100.0
                );
            }
            Ok(regressions) => {
                failed = true;
                for r in &regressions {
                    eprintln!("COUNTER REGRESSION: {r}");
                }
            }
            Err(e) => {
                eprintln!("ci-gate: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if failed {
        eprintln!(
            "ci-gate: deterministic work counters regressed beyond {:.0}%. If the \
             regression is intentional, regenerate the baselines with \
             `experiments ci-gate --update` and commit the diff.",
            MAX_REGRESSION * 100.0
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}
