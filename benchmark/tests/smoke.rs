//! Each workload at 1/50 size for 30 ticks: every metric is printed once
//! with a finite value and no operation fails; the same seed gives the
//! same counts and answers; a wrong answer is counted as a failed
//! operation; the names match `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use rnn_benchmark::measure::{self, Limits};
use rnn_benchmark::report::{Outcome, END_TO_END, PER_LAYER};
use rnn_benchmark::stacks::{Answer, Health, QueryId, Rung, Stack, Tick, TickCounts};
use rnn_benchmark::trace;
use rnn_benchmark::workloads::{Workload, ALL};

const SMOKE: Limits = Limits {
    seconds: 0.0,
    ticks: Some(30),
    warmup: 5,
};

/// A temporary directory under `benchmark/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small(w: Workload) -> Workload {
    w.scaled(0.02)
}

fn traced(w: &Workload, seed: u64, scratch: &Scratch) -> Outcome {
    let trace_file = scratch.0.join(format!("trace-{}.json", w.name));
    let out = trace::run(w, seed, &SMOKE, &scratch.0, &trace_file);
    let spans = std::fs::read_to_string(&trace_file).expect("the trace file is written");
    assert!(spans.contains("\"name\": \"tick\"") && spans.contains("\"parent\": null"));
    out
}

/// Every name of `table` heads exactly one printed line and appears once
/// in the JSON line, each with a finite value.
fn assert_prints_each_once(out: &Outcome, table: &[(&str, &str)], what: &str) {
    let text = out.render(table);
    let json = text.lines().last().expect("a result line");
    for (name, unit) in table {
        let heads = text
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name))
            .count();
        assert_eq!(heads, 1, "{what}: {name} printed {heads} times");
        let key = format!("\"{name}\": {{\"value\": ");
        assert_eq!(json.matches(&key).count(), 1, "{what}: {name} in JSON");
        let rest = &json[json.find(&key).unwrap() + key.len()..];
        let value: f64 = rest[..rest.find(',').unwrap()].parse().expect("a number");
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert!(rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")));
    }
    assert_eq!(out.failed, 0, "{what}: {:?}", out.problems);
    assert!(out.correct(table), "{what}: {:?}", out.problems);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, "));
}

#[test]
fn every_workload_prints_every_metric_once_and_fails_nothing() {
    let scratch = Scratch::new("all");
    for w in ALL.map(small) {
        let e2e = measure::run(&w, 42, &SMOKE, &scratch.0);
        assert_prints_each_once(&e2e, END_TO_END, w.name);
        for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "cpu_ms_per_tick") {
            // CPU time comes in 10 ms steps: it may read 0 at this size.
            assert!(e2e.value(name) > 0.0, "{}: {name} is zero", w.name);
        }
        let layers = traced(&w, 42, &scratch);
        assert_prints_each_once(&layers, PER_LAYER, w.name);
        // The ladder separates the workloads: nothing above core on
        // paper-gma, a wire only under firehose-stack.
        let has_wire = w.name == "firehose-stack";
        assert_eq!(
            layers.value("wire_kb_per_tick") > 0.0,
            has_wire,
            "{}",
            w.name
        );
        assert_eq!(
            layers.value("cluster.recovery_ms") > 0.0,
            has_wire,
            "{}",
            w.name
        );
        assert_eq!(
            layers.value("cluster.failover_ms") > 0.0,
            has_wire,
            "{}",
            w.name
        );
        if w.name == "paper-gma" {
            for (name, _) in PER_LAYER {
                let above_core = name.starts_with("engine.") || name.starts_with("cluster.");
                let probe = name.starts_with("cluster.wal.");
                if above_core && !probe {
                    assert_eq!(layers.value(name), 0.0, "paper-gma reports {name}");
                }
            }
            assert!(layers.value("core.ima.tick_p50_ms") > 0.0);
            assert!(layers.value("core.ovh.tick_p50_ms") > 0.0);
        }
    }
}

/// Every query's answer as plain bits.
fn answers(stack: &dyn Stack, queries: usize) -> Vec<(u64, Vec<(u32, u64)>)> {
    (0..queries)
        .map(|q| {
            let a = stack.answer(QueryId(q as u32)).expect("a registered query");
            let neighbors = a.neighbors.iter().map(|n| (n.object.0, n.dist.to_bits()));
            (a.knn_dist.to_bits(), neighbors.collect())
        })
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_counts_and_answers() {
    let scratch = Scratch::new("repeat");
    let w = small(Workload::by_name("firehose-stack").unwrap());
    let (a, b) = (traced(&w, 7, &scratch), traced(&w, 7, &scratch));
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    for name in [
        "wire_kb_per_tick",
        "roadnet.dijkstra.steps_per_tick",
        "core.reevals_per_tick",
        "core.ignored_share",
        "core.shared_expansions_per_tick",
        "core.codec.bytes_per_event",
        "core.snapshot.kb",
        "engine.halo.resync_per_tick",
        "engine.halo.evictions_per_tick",
        "engine.halo.replicas",
        "engine.ingest.coalesced_share",
        "cluster.wire.frames_per_tick",
        "cluster.wire.kb_per_tick",
        "cluster.install.frames",
        "cluster.client.retries",
        "cluster.replog.kb_per_tick",
        "cluster.replog.commit_lag_frames_per_tick",
    ] {
        assert_eq!(
            a.value(name),
            b.value(name),
            "{name} differs between two runs"
        );
        assert!(
            a.value(name) > 0.0 || name == "cluster.client.retries",
            "{name}"
        );
    }

    let run = |seed: u64| {
        let (mut feed, mut stack, _) = measure::set_up(&w, seed, &scratch.0);
        let mut out = Outcome::default();
        measure::measure(stack.as_mut(), &mut feed, &SMOKE, &mut out);
        assert_eq!((out.attempted, out.failed), (30, 0), "{:?}", out.problems);
        answers(stack.as_ref(), feed.num_queries())
    };
    let first = run(7);
    assert_eq!(first, run(7), "the same seed gave different answers");
    assert_ne!(first, run(8), "another seed gave the same answers");
}

/// A stack that misreports one query's k-th distance.
struct Liar(Box<dyn Stack>);

impl Stack for Liar {
    fn rung(&self) -> Rung {
        self.0.rung()
    }
    fn tick(&mut self, t: &Tick<'_>) -> Result<TickCounts, String> {
        self.0.tick(t)
    }
    fn answer(&self, q: QueryId) -> Option<Answer<'_>> {
        let mut a = self.0.answer(q)?;
        if q == QueryId(0) {
            a.knn_dist *= 1.5;
        }
        Some(a)
    }
    fn health(&self) -> Health {
        self.0.health()
    }
}

#[test]
fn a_corrupted_answer_is_a_failed_operation() {
    let scratch = Scratch::new("liar");
    let w = small(Workload::by_name("paper-engine").unwrap());
    let (mut feed, stack, _) = measure::set_up(&w, 42, &scratch.0);
    let mut out = Outcome::default();
    measure::measure(&mut Liar(stack), &mut feed, &SMOKE, &mut out);
    assert_eq!((out.attempted, out.failed), (30, 1), "{:?}", out.problems);
    assert!(out.problems[0].contains("differ from the fresh-Ovh oracle"));
    assert!(!out.correct(END_TO_END));
    assert!(out
        .render(END_TO_END)
        .contains("{\"correct\": false, \"attempted\": 30, \"failed\": 1, "));
}

/// The `"name": "..."` values of `BENCHMARK.json` between two of its keys.
fn names_between(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
    let start = json.find(&format!("\"{from}\"")).expect(from);
    let end = to.map_or(json.len(), |t| json.find(&format!("\"{t}\"")).expect(t));
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn the_names_are_those_of_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let of = |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        names_between(&json, "workloads", Some("end_to_end")),
        ALL.map(|w| w.name.to_string())
    );
    assert_eq!(
        names_between(&json, "end_to_end", Some("per_layer")),
        of(END_TO_END)
    );
    assert_eq!(names_between(&json, "per_layer", None), of(PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{name} has another unit in BENCHMARK.json"
        );
    }
}
