//! The traced run: the per-layer metrics.
//!
//! A top-of-stack `tick` is one opaque call from outside, so attribution
//! uses a **stack ladder**: the identical stream is fed to each prefix of
//! the stack, interleaved in short blocks of ticks so that machine noise
//! hits every rung alike. A rung's *self* time is the median over ticks of
//! the paired difference to the rung beneath it. Spans — name, start, end,
//! parent, tick id — are recorded in memory from here, around each call
//! into a layer, and written to `out/trace-<workload>.json` when the run
//! ends. Counts are read at the same boundaries from the stacks' public
//! getters.

use std::path::Path;
use std::time::Instant;

use crate::measure::{checkpoint, tick_problem, timed_tick, Limits};
use crate::report::Outcome;
use crate::stacks::{
    build, probe_codec, probe_dijkstra, probe_snapshot, Build, Crash, Feed, Health, IngestProbe,
    OwnedTick, Rig, Rung, Stack, TickCounts, WalProbe, Wire,
};
use crate::sys::{median, percentile, windowed_p99};
use crate::workloads::Workload;

/// Ticks a rung runs back to back before the next rung gets the same
/// ticks. Interleaving tick by tick would hand every rung a cache emptied
/// by all the others on every call — up to 2x on `firehose-stack`, and
/// unevenly across rungs. The first tick of a block still pays that and is
/// left out of the timing samples (not of the counts).
const BLOCK: usize = 8;
/// Share of `--seconds` the ladder runs for; the rest covers the
/// untraced reference segment and the probes that follow the ladder.
const LADDER_SHARE: f64 = 0.6;
/// Share of `--seconds` the top rung then runs alone, spans off — the
/// base of `trace.overhead_ratio`.
const REFERENCE_SHARE: f64 = 0.1;
/// Delivered-frame budget of shard 0 in the recovery probe. Installing
/// `firehose-stack` delivers 230–280 frames to a shard (half of
/// `cluster.install.frames` are requests, split over two shards), a tick
/// one more, and a snapshot is taken every `SNAPSHOT_EVERY` event frames:
/// the crash fires some sixty ticks into the run, and recovery is snapshot
/// install plus a journal suffix, never a full replay.
const CRASH_AFTER_FRAMES: u32 = 320;
/// The recovery probe gives up if the crash has not fired by then.
const RECOVERY_MAX_TICKS: usize = 400;

/// One recorded span. Times are nanoseconds since the run's origin.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    tick: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, tick: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tick,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns how long it was open, in milliseconds.
    fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// A child whose bounds are known only after the fact.
    fn child(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) {
        let tick = self.spans[parent].tick;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            tick,
        });
    }

    fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            s.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"tick\": {}}}{sep}\n",
                sp.name, sp.start_ns, sp.end_ns, sp.tick
            ));
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// One rung of the ladder with what it did on each ladder tick.
struct Climber {
    rig: Rig,
    /// Counters when the ladder started (install and warm-up excluded).
    base: Health,
    /// Transport counters after the rung's latest tick.
    seen: Wire,
    /// Wall time of every warm tick (a block's first tick is left out).
    wall_ms: Vec<f64>,
    /// Whether a snapshot was taken during that tick.
    snapshot: Vec<bool>,
    /// Counts and shard-load ratio of every tick, cold ones included.
    counts: Vec<TickCounts>,
    load_ratio: Vec<f64>,
}

impl Climber {
    fn sum(&self, f: impl Fn(&TickCounts) -> u64) -> f64 {
        self.counts.iter().map(f).sum::<u64>() as f64
    }

    fn per_tick(&self, f: impl Fn(&TickCounts) -> u64) -> f64 {
        ratio(self.sum(f), self.counts.len() as f64)
    }

    /// Growth of a cumulative counter over the ladder, per tick.
    fn grown(&self, f: impl Fn(&Health) -> u64) -> f64 {
        ratio(
            (f(&self.rig.health()) - f(&self.base)) as f64,
            self.counts.len() as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Running totals of the isolated probes.
#[derive(Default)]
struct Probes {
    wal: Option<WalProbe>,
    ingest: Option<IngestProbe>,
    gen_ms: Vec<f64>,
    codec_events: u64,
    encode_ns: u64,
    decode_ns: u64,
    frame_bytes: u64,
    wal_us: Vec<f64>,
    raw_events: u64,
    submit_ns: u64,
    drain_ms: Vec<f64>,
    dijkstra_steps: u64,
    dijkstra_ns: u64,
}

/// Everything one traced run holds.
struct Run<'a> {
    w: &'a Workload,
    limits: &'a Limits,
    feed: Feed,
    climbers: Vec<Climber>,
    tracer: Tracer,
    probes: Probes,
    out: Outcome,
}

/// The whole traced run of one workload.
pub fn run(w: &Workload, seed: u64, limits: &Limits, scratch: &Path, trace_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let feed = Feed::new(&w.knobs, seed);
    let climbers = (w.ladder.iter().chain(w.beside))
        .map(|&rung| {
            let rig = build(rung, &feed, &build_opts(w, scratch, Crash::None));
            if rung == Rung::ClusterWire {
                out.set("cluster.install.frames", rig.health().wire.frames as f64);
            }
            Climber {
                rig,
                base: Health::default(),
                seen: Wire::default(),
                wall_ms: Vec::new(),
                snapshot: Vec::new(),
                counts: Vec::new(),
                load_ratio: Vec::new(),
            }
        })
        .collect();
    let mut run = Run {
        w,
        limits,
        feed,
        climbers,
        tracer,
        probes: Probes {
            wal: WalProbe::open(scratch).ok(),
            ..Probes::default()
        },
        out,
    };
    if run.climb() {
        for c in &run.climbers {
            checkpoint(&c.rig, &run.feed, c.counts.len(), &mut run.out);
        }
        layer_metrics(w, &run.feed, &run.climbers, &run.probes, &mut run.out);
        run.reference_segment();
        if w.recovery_probe {
            for (crash, name) in [
                (Crash::Respawn(CRASH_AFTER_FRAMES), "cluster.recovery_ms"),
                (Crash::Promote(CRASH_AFTER_FRAMES), "cluster.failover_ms"),
            ] {
                match recovery_probe(w, seed, crash, scratch) {
                    Ok(ms) => run.out.set(name, ms),
                    Err(why) => run.out.problems.push(format!("{name}: {why}")),
                }
            }
        }
    }
    if let Err(e) = run.tracer.write(trace_out, w.name, seed) {
        let problem = format!("writing {}: {e}", trace_out.display());
        run.out.problems.push(problem);
    }
    run.out
}

fn build_opts<'a>(w: &Workload, scratch: &'a Path, crash: Crash) -> Build<'a> {
    Build {
        rebalance: w.rebalance,
        scratch,
        crash,
    }
}

impl Run<'_> {
    /// Warm-up, then the ladder: blocks of [`BLOCK`] generated ticks, each
    /// block fed to every rung in turn, then to the isolated probes. One
    /// operation is one tick of the top rung. Returns `false` if a stack
    /// broke and nothing further can be measured.
    fn climb(&mut self) -> bool {
        for _ in 0..self.limits.warmup {
            let t = self.feed.advance();
            for c in &mut self.climbers {
                if let Err(e) = timed_tick(&mut c.rig, &t).counts {
                    let rung = c.rig.rung().name();
                    self.out.problems.push(format!("warm-up on {rung}: {e}"));
                    return false;
                }
            }
        }
        for c in &mut self.climbers {
            c.base = c.rig.health();
            c.seen = c.base.wire;
        }

        let ladder = Limits {
            seconds: self.limits.seconds * LADDER_SHARE,
            ..*self.limits
        };
        let mut block: Vec<(usize, OwnedTick)> = Vec::with_capacity(BLOCK);
        let window = Instant::now();
        while ladder.open(self.probes.gen_ms.len(), window.elapsed()) {
            block.clear();
            while block.len() < BLOCK && ladder.open(self.probes.gen_ms.len(), window.elapsed()) {
                let tick_no = self.probes.gen_ms.len() + 1;
                let root = self.tracer.begin("tick", None, tick_no);
                let span = self.tracer.begin("gen", Some(root), tick_no);
                let t = self.feed.advance().to_owned();
                self.probes.gen_ms.push(self.tracer.end(span));
                block.push((root, t));
            }
            if !self.feed_rungs(&block) {
                return false;
            }
            self.feed_probes(&block);
        }
        true
    }

    /// One block through every rung in turn.
    fn feed_rungs(&mut self, block: &[(usize, OwnedTick)]) -> bool {
        let top = self.w.ladder.len() - 1;
        for (i, c) in self.climbers.iter_mut().enumerate() {
            let rung = c.rig.rung().name();
            for (pos, (root, t)) in block.iter().enumerate() {
                let tick_no = self.tracer.spans[*root].tick;
                let span = self.tracer.begin(rung, Some(*root), tick_no);
                let timed = timed_tick(&mut c.rig, &t.view());
                self.tracer.end(span);
                let counts = timed.counts.clone().unwrap_or_default();
                if counts.submit_ns > 0 {
                    let Span {
                        start_ns, end_ns, ..
                    } = self.tracer.spans[span];
                    let drained = start_ns + counts.submit_ns;
                    self.tracer
                        .child("engine.ingest/submit", span, start_ns, drained);
                    self.tracer
                        .child("engine.ingest/tick_ingest", span, drained, end_ns);
                }
                let problem = tick_problem(&c.rig, &timed, &mut c.seen.retries);
                let after = c.rig.health();
                // A block's first tick finds the caches emptied by the
                // other rungs: counted, not timed.
                if pos > 0 || block.len() == 1 {
                    c.wall_ms.push(timed.wall_ms);
                    c.snapshot.push(after.wire.snapshots > c.seen.snapshots);
                }
                c.seen = after.wire;
                c.counts.push(counts);
                c.load_ratio.push(after.load_ratio);
                if i == top {
                    self.out.attempted += 1;
                }
                if let Some(why) = problem {
                    self.out.fail(tick_no, format!("{rung}: {why}"));
                    if timed.counts.is_err() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// One block through the isolated probes.
    fn feed_probes(&mut self, block: &[(usize, OwnedTick)]) {
        let (tracer, probes) = (&mut self.tracer, &mut self.probes);
        for (pos, (root, t)) in block.iter().enumerate() {
            let (root, t) = (*root, t.view());
            let tick_no = tracer.spans[root].tick;
            let span = tracer.begin("probe.codec", Some(root), tick_no);
            let p = probe_codec(t.effective);
            tracer.end(span);
            probes.codec_events += p.events;
            probes.encode_ns += p.encode_ns;
            probes.decode_ns += p.decode_ns;
            probes.frame_bytes += p.frame.len() as u64;
            if let Some(wal) = &mut probes.wal {
                let span = tracer.begin("probe.wal", Some(root), tick_no);
                if let Ok(ns) = wal.append(&p.frame) {
                    probes.wal_us.push(ns as f64 / 1e3);
                }
                tracer.end(span);
            }
            // The two dearer probes run once per block.
            if pos == 0 {
                if !t.raw.is_empty() {
                    let span = tracer.begin("probe.ingest", Some(root), tick_no);
                    let ingest = probes
                        .ingest
                        .get_or_insert_with(|| IngestProbe::new(&self.feed));
                    let (submit_ns, drain_ns) = ingest.run(t.raw);
                    tracer.end(span);
                    probes.raw_events += t.raw.len() as u64;
                    probes.submit_ns += submit_ns;
                    probes.drain_ms.push(drain_ns as f64 / 1e6);
                }
                let span = tracer.begin("probe.dijkstra", Some(root), tick_no);
                let (steps, ns) = probe_dijkstra(&self.feed);
                tracer.end(span);
                probes.dijkstra_steps += steps;
                probes.dijkstra_ns += ns;
            }
            tracer.spans[root].end_ns = tracer.now();
        }
    }

    /// The top rung alone, spans off, on the ticks that follow: what the
    /// ladder's interleaving and span recording cost it.
    fn reference_segment(&mut self) {
        let top = self.w.ladder.len() - 1;
        let traced_p50 = median(&self.climbers[top].wall_ms);
        let mut alone = self.climbers.swap_remove(top).rig;
        self.climbers.clear();
        let reference = Limits {
            seconds: self.limits.seconds * REFERENCE_SHARE,
            ticks: self.limits.ticks.map(|n| (n / 4).max(5)),
            ..*self.limits
        };
        let mut alone_ms = Vec::new();
        let window = Instant::now();
        while reference.open(alone_ms.len(), window.elapsed()) {
            let timed = timed_tick(&mut alone, &self.feed.advance());
            if let Err(e) = timed.counts {
                self.out.problems.push(format!("reference segment: {e}"));
                break;
            }
            alone_ms.push(timed.wall_ms);
        }
        let base = median(&alone_ms);
        self.out
            .set("trace.overhead_ratio", ratio(traced_p50, base));
    }
}

/// Turns what the ladder recorded into the per-layer metrics.
fn layer_metrics(w: &Workload, feed: &Feed, climbers: &[Climber], p: &Probes, out: &mut Outcome) {
    let at = |rung: Rung| climbers.iter().find(|c| c.rig.rung() == rung);
    let p50 = |rung: Rung| at(rung).map_or(0.0, |c| median(&c.wall_ms));
    for (rung, name) in [
        (Rung::CoreGma, "core.gma.tick_p50_ms"),
        (Rung::CoreIma, "core.ima.tick_p50_ms"),
        (Rung::CoreOvh, "core.ovh.tick_p50_ms"),
        (Rung::EngineS1, "engine.s1.tick_p50_ms"),
        (Rung::EngineS2, "engine.s2.tick_p50_ms"),
        (Rung::ClusterWire, "cluster.wire.tick_p50_ms"),
        (Rung::ClusterDurable, "cluster.durable.tick_p50_ms"),
        (Rung::ClusterRepl, "cluster.repl.tick_p50_ms"),
        (Rung::EngineIngest, "engine.ingest.tick_p50_ms"),
    ] {
        out.set(name, p50(rung));
    }
    for (upper, lower, name) in [
        (
            Rung::ClusterWire,
            Rung::EngineS2,
            "cluster.wire.self_p50_ms",
        ),
        (
            Rung::ClusterDurable,
            Rung::ClusterWire,
            "cluster.durable.self_p50_ms",
        ),
        (
            Rung::ClusterRepl,
            Rung::ClusterDurable,
            "cluster.repl.self_p50_ms",
        ),
        (
            Rung::EngineIngest,
            Rung::ClusterRepl,
            "engine.ingest.self_p50_ms",
        ),
    ] {
        if let (Some(u), Some(l)) = (at(upper), at(lower)) {
            let paired: Vec<f64> = u
                .wall_ms
                .iter()
                .zip(&l.wall_ms)
                .map(|(u, l)| u - l)
                .collect();
            out.set(name, median(&paired));
        }
    }
    for (num, den, name) in [
        (Rung::EngineS1, Rung::CoreGma, "engine.s1.overhead_ratio"),
        (Rung::CoreGma, Rung::EngineS2, "engine.s2.speedup"),
        (
            Rung::ClusterWire,
            Rung::EngineS2,
            "cluster.wire.overhead_ratio",
        ),
        (
            Rung::ClusterRepl,
            Rung::ClusterDurable,
            "cluster.repl.overhead_ratio",
        ),
    ] {
        out.set(name, ratio(p50(num), p50(den)));
    }

    if let Some(c) = at(Rung::CoreGma) {
        out.set("core.gma.tick_p99_ms", windowed_p99(&c.wall_ms));
        out.set(
            "roadnet.dijkstra.steps_per_tick",
            c.per_tick(|t| t.expansion_steps),
        );
        out.set("core.reevals_per_tick", c.per_tick(|t| t.reevaluations));
        out.set(
            "core.ignored_share",
            ratio(c.sum(|t| t.updates_ignored), c.sum(|t| t.object_events)),
        );
        out.set(
            "core.shared_expansions_per_tick",
            c.per_tick(|t| t.shared_expansions),
        );
        out.set("core.alloc_events_per_tick", c.per_tick(|t| t.alloc_events));
        out.set(
            "core.state_mb",
            c.rig.state_bytes() as f64 / (1024.0 * 1024.0),
        );
        match probe_snapshot(feed, &c.rig) {
            Ok(s) => {
                out.set("core.snapshot.capture_ms", s.capture_ns as f64 / 1e6);
                out.set("core.snapshot.restore_ms", s.restore_ns as f64 / 1e6);
                out.set("core.snapshot.kb", s.bytes as f64 / 1024.0);
                if let Some(why) = s.rejected {
                    println!("# core.snapshot: restore_into rejected the state: {why}");
                }
            }
            Err(why) => println!("# core.snapshot: probe skipped: {why}"),
        }
    }
    out.set(
        "roadnet.dijkstra.ns_per_step",
        ratio(p.dijkstra_ns as f64, p.dijkstra_steps as f64),
    );
    let per_event = |total: u64| ratio(total as f64, p.codec_events as f64);
    out.set("core.codec.encode_ns_per_event", per_event(p.encode_ns));
    out.set("core.codec.decode_ns_per_event", per_event(p.decode_ns));
    out.set("core.codec.bytes_per_event", per_event(p.frame_bytes));
    out.set("cluster.wal.append_us_p50", median(&p.wal_us));
    out.set("cluster.wal.append_us_p99", percentile(&p.wal_us, 0.99));
    out.set(
        "engine.ingest.submit_ns_per_event",
        ratio(p.submit_ns as f64, p.raw_events as f64),
    );
    out.set("engine.ingest.drain_p50_ms", median(&p.drain_ms));
    out.set("workload.gen_p50_ms", median(&p.gen_ms));

    if let Some(c) = at(Rung::EngineS2) {
        let worker_ms: Vec<f64> = c.counts.iter().map(|t| t.worker_ns as f64 / 1e6).collect();
        let route_ms: Vec<f64> = c.counts.iter().map(|t| t.route_ns as f64 / 1e6).collect();
        out.set("engine.worker.critical_p50_ms", median(&worker_ms));
        out.set("engine.route.self_p50_ms", median(&route_ms));
        out.set(
            "engine.worker.skew",
            ratio(c.load_ratio.iter().sum(), c.load_ratio.len() as f64),
        );
        out.set(
            "engine.halo.resync_per_tick",
            c.per_tick(|t| t.resync_touched),
        );
        out.set(
            "engine.halo.evictions_per_tick",
            c.per_tick(|t| t.replica_evictions),
        );
        out.set("engine.halo.replicas", c.rig.replicas() as f64);
        out.set(
            "engine.rebalance.cells_migrated",
            c.sum(|t| t.cells_migrated),
        );
    }
    if let Some(c) = at(Rung::EngineIngest) {
        out.set(
            "engine.ingest.coalesced_share",
            ratio(c.sum(|t| t.coalesced), c.sum(|t| t.submitted)),
        );
    }
    if let Some(c) = at(Rung::ClusterWire) {
        out.set("cluster.wire.frames_per_tick", c.grown(|h| h.wire.frames));
        out.set(
            "cluster.wire.kb_per_tick",
            c.grown(|h| h.wire.shard_bytes) / 1024.0,
        );
        out.set(
            "cluster.wire.bytes_per_event",
            ratio(c.grown(|h| h.wire.shard_bytes), c.per_tick(|t| t.events)),
        );
    }
    out.set(
        "cluster.client.retries",
        climbers
            .iter()
            .map(|c| c.rig.health().wire.retries)
            .sum::<u64>() as f64,
    );
    if let Some(c) = at(Rung::ClusterDurable) {
        let of = |snap: bool| -> Vec<f64> {
            let ticks = c.wall_ms.iter().zip(&c.snapshot);
            ticks.filter(|(_, &s)| s == snap).map(|(t, _)| *t).collect()
        };
        let (stalled, plain) = (of(true), of(false));
        out.set(
            "cluster.client.snapshots",
            c.grown(|h| h.wire.snapshots) * c.counts.len() as f64,
        );
        out.set(
            "cluster.client.snapshot_tick_share",
            ratio(stalled.len() as f64, c.wall_ms.len() as f64),
        );
        if !stalled.is_empty() {
            out.set(
                "cluster.client.snapshot_stall_p50_ms",
                median(&stalled) - median(&plain),
            );
        }
    }
    if let Some(c) = at(Rung::ClusterRepl) {
        out.set(
            "cluster.replog.kb_per_tick",
            c.grown(|h| h.wire.replica_bytes) / 1024.0,
        );
        out.set(
            "cluster.replog.commit_lag_frames_per_tick",
            c.grown(|h| h.wire.commit_lag_frames),
        );
    }
    out.set(
        "wire_kb_per_tick",
        climbers[w.ladder.len() - 1].grown(|h| h.wire.shard_bytes + h.wire.replica_bytes) / 1024.0,
    );
}

/// Builds the workload's full stack with a crash injected on shard 0,
/// drives it until the crash has been absorbed, and returns the wall time
/// of the tick that absorbed it. The answers are checked right after.
fn recovery_probe(w: &Workload, seed: u64, crash: Crash, scratch: &Path) -> Result<f64, String> {
    let mut feed = Feed::new(&w.knobs, seed);
    let mut rig = build(w.top, &feed, &build_opts(w, scratch, crash));
    let absorbed = |h: &Health| match crash {
        Crash::Promote(_) => h.wire.failovers,
        _ => h.wire.crash_recoveries,
    };
    if absorbed(&rig.health()) > 0 {
        return Err("the crash fired during installation".to_string());
    }
    for tick_no in 1..=RECOVERY_MAX_TICKS {
        let timed = timed_tick(&mut rig, &feed.advance());
        timed.counts?;
        let h = rig.health();
        if h.live_shards < h.shards {
            return Err("the shard stayed dead".to_string());
        }
        if absorbed(&h) > 0 {
            let mut check = Outcome::default();
            checkpoint(&rig, &feed, tick_no, &mut check);
            return match check.problems.pop() {
                Some(why) => Err(why),
                None => Ok(timed.wall_ms),
            };
        }
    }
    Err(format!("no crash within {RECOVERY_MAX_TICKS} ticks"))
}
