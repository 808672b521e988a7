//! What each artifact figure must show beyond repeating its committed
//! numbers: the checks [`crate::figures::Artifact::check`] names, run on
//! every run of the figure — `experiments <figure>` at any settings, and
//! `experiments ci-gate` at the pinned ones. A check prints its `#`
//! summary lines and fails with one sentence saying what stopped working.

use crate::params::Params;
use crate::runner::{Ingest, Link, RunResult, SeriesPoint, Stack, DURABLE_SNAPSHOT_EVERY};

/// The engine's O(changed-edges) replica-maintenance bound, held on every
/// artifact figure: no single tick may resync more objects than exist.
pub fn resync_bound(points: &[(String, Params)], series: &[SeriesPoint]) -> Result<(), String> {
    for (point, (label, params)) in series.iter().zip(points) {
        for r in &point.results {
            if r.max_tick_resync > params.n_objects as u64 {
                return Err(format!(
                    "REPLICA MAINTENANCE REGRESSION: {} at {label} resynced {} objects in \
                     one tick (only {} exist) — halo resync is no longer incremental",
                    r.stack.name(),
                    r.max_tick_resync,
                    params.n_objects
                ));
            }
        }
    }
    Ok(())
}

/// Tick-path guarantees. Steady-state ticks must be allocation-free on the
/// instrumented structures: the only legitimate alloc events are rare
/// per-edge high-water records (arena capacity growth), which show up as a
/// per-ts rate near zero. A rate at or above 0.5 means per-tick churn is
/// allocating again (e.g. a reintroduced per-edge `Vec` build) — fail. And
/// the expansion-sharing and tree-recycling machinery must actually fire
/// on the default scenario.
pub fn tickpath(series: &[SeriesPoint]) -> Result<(), String> {
    let mut shared_total = 0.0;
    let mut recycled_total = 0.0;
    for point in series {
        for r in &point.results {
            shared_total += r.get("shared_per_ts");
            let single = matches!(r.stack, Stack::Bare(..));
            if single {
                recycled_total += r.get("recycled_per_ts");
            }
            if single && r.get("alloc_per_ts") >= 0.5 {
                return Err(format!(
                    "TICK-PATH REGRESSION: {} at {} allocated {:.3} times per steady-state \
                     tick — the arena/heap/tree-pool layout no longer runs allocation-free \
                     (tree surgery included)",
                    r.stack.name(),
                    point.label,
                    r.get("alloc_per_ts")
                ));
            }
        }
    }
    if shared_total <= 0.0 {
        return Err(
            "TICK-PATH REGRESSION: shared_expansions stayed 0 across the tickpath \
                    figure — per-tick expansion sharing never fired"
                .into(),
        );
    }
    if recycled_total <= 0.0 {
        return Err(
            "TICK-PATH REGRESSION: tree_nodes_recycled stayed 0 across the tickpath \
                    figure — tree surgery stopped reusing pooled slots (edge churn must cut \
                    and re-grow subtrees through the free list)"
                .into(),
        );
    }
    Ok(())
}

/// Rebalance guarantees: under the skewed drifting-hotspot stream the
/// load-aware engine must actually migrate cells, and its max/mean
/// shard-load ratio must beat the static partition's at every point.
pub fn rebalance(series: &[SeriesPoint]) -> Result<(), String> {
    let rebalancing = |r: &&RunResult| match r.stack {
        Stack::Engine { rebalancing, .. } => rebalancing,
        Stack::Bare(..) => false,
    };
    for point in series {
        let static_eng = point.results.iter().find(|r| !rebalancing(r));
        let rebal = point.results.iter().find(rebalancing);
        let (Some(st), Some(rb)) = (static_eng, rebal) else {
            return Err("REBALANCE REGRESSION: figure lost its engine pair".into());
        };
        let (cells, rebalances) = (rb.get("cells_migrated"), rb.get("rebalances"));
        if cells == 0.0 || rebalances == 0.0 {
            return Err(format!(
                "REBALANCE REGRESSION: {} never migrated under the hotspot at {} \
                 (rebalances {rebalances}, cells {cells})",
                rb.stack.name(),
                point.label
            ));
        }
        if rb.load_ratio >= st.load_ratio {
            return Err(format!(
                "REBALANCE REGRESSION: at {} the load-aware engine's max/mean shard load \
                 ({:.3}) did not beat the static partition's ({:.3})",
                point.label, rb.load_ratio, st.load_ratio
            ));
        }
        println!(
            "#   {}: load ratio {:.3} (static) -> {:.3} (rebalanced), \
             {} cells over {} migrations",
            point.label, st.load_ratio, rb.load_ratio, cells, rebalances
        );
    }
    Ok(())
}

/// The in-process engine of `point` with this many shards: the oracle
/// column a cluster row is compared against.
fn in_process_twin(point: &SeriesPoint, of: u8) -> Option<&RunResult> {
    point.results.iter().find(|r| match r.stack {
        Stack::Engine {
            link: Link::InProcess(_),
            shards,
            ..
        } => shards == of,
        _ => false,
    })
}

/// The loopback cluster must actually move frames, its deterministic work
/// counters must equal the in-process engine's at the same shard count
/// (the answer-identity claim, visible in the artifact), and a fault-free
/// transport must stay under the pinned retry bound — more retries means
/// the timeout policy is misfiring or replies are being lost (a retry
/// storm).
pub fn cluster(series: &[SeriesPoint]) -> Result<(), String> {
    const RETRY_STORM_BOUND: f64 = 8.0;
    for point in series {
        let mut sizes = Vec::new();
        for r in &point.results {
            let Stack::Engine {
                link: Link::Loopback,
                shards,
                ..
            } = r.stack
            else {
                continue;
            };
            if r.get("frames_per_ts") <= 0.0 {
                return Err(format!(
                    "CLUSTER REGRESSION: {} at {} moved no RPC frames — the coordinator is \
                     not talking to its shard services",
                    r.stack.name(),
                    point.label
                ));
            }
            if r.get("retries") > RETRY_STORM_BOUND {
                return Err(format!(
                    "CLUSTER REGRESSION: {} at {} retransmitted {} times on a fault-free \
                     loopback transport (bound {RETRY_STORM_BOUND}) — retry storm",
                    r.stack.name(),
                    point.label,
                    r.get("retries")
                ));
            }
            let twin = in_process_twin(point, shards);
            if let Some(eng) = twin.filter(|e| e.get("work_per_ts") != r.get("work_per_ts")) {
                return Err(format!(
                    "CLUSTER REGRESSION: at {} {} work {} != {} work {} — the RPC layer is \
                     no longer answer-identical",
                    point.label,
                    r.stack.name(),
                    r.get("work_per_ts"),
                    eng.stack.name(),
                    eng.get("work_per_ts")
                ));
            }
            sizes.push(format!(
                "{} {:.1}/{:.0}",
                r.stack.name(),
                r.get("frames_per_ts"),
                r.get("bytes_per_ts")
            ));
        }
        println!(
            "#   {}: cluster frames/bytes per ts: {}",
            point.label,
            sizes.join(", ")
        );
    }
    Ok(())
}

/// Every durable run crashes each shard at a pinned delivered-frame
/// budget, so each CLU-n-D row must record at least one recovery and at
/// least one snapshot; each recovery must have replayed only the journal
/// *suffix* behind the latest snapshot (O(snapshot cadence), never O(run
/// length)); and the truncation guarantee must hold — the summed per-shard
/// journals stay under shards x cadence, proving truncate-behind-snapshot
/// fired instead of letting the journal grow with the run.
pub fn recovery(series: &[SeriesPoint]) -> Result<(), String> {
    for point in series {
        for r in &point.results {
            let Stack::Engine {
                link: Link::Durable,
                shards,
                ..
            } = r.stack
            else {
                continue;
            };
            if r.get("recoveries") == 0.0 || r.get("snapshots") == 0.0 {
                return Err(format!(
                    "RECOVERY REGRESSION: {} at {} recorded {} recoveries and {} snapshots — \
                     the fault plan stopped crashing shards or the snapshot cadence stopped \
                     firing",
                    r.stack.name(),
                    point.label,
                    r.get("recoveries"),
                    r.get("snapshots")
                ));
            }
            let replay_bound = f64::from(DURABLE_SNAPSHOT_EVERY) + 2.0;
            if r.get("replayed_per_recovery") > replay_bound {
                return Err(format!(
                    "RECOVERY REGRESSION: {} at {} replayed {:.1} frames per recovery (bound \
                     {replay_bound:.0}) — respawn is replaying history a snapshot should \
                     have absorbed",
                    r.stack.name(),
                    point.label,
                    r.get("replayed_per_recovery")
                ));
            }
            let journal_bound = f64::from(shards) * f64::from(DURABLE_SNAPSHOT_EVERY);
            if r.get("journal_len") >= journal_bound {
                return Err(format!(
                    "RECOVERY REGRESSION: {} at {} ended with {} journaled frames across \
                     {shards} shards (bound {journal_bound}) — the journal is no longer \
                     truncated behind durable snapshots",
                    r.stack.name(),
                    point.label,
                    r.get("journal_len")
                ));
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
    Ok(())
}

/// Every CLU-n-R shard's leader is killed at a pinned delivered-frame
/// budget with stillborn respawns, so each row must record one follower
/// promotion per shard — a zero means the kill stopped firing or recovery
/// found another path, and the failover machinery went unexercised.
/// Nothing may be fenced in a healthy run, and the replication plane must
/// have actually shipped bytes to the followers. Answer-identity through
/// promotion is judged on the restore-stable counter columns against
/// ENG-n at the same shard count: resync/evictions per ts must be exact,
/// while `ignored_per_ts` gets a 1% band — snapshot restore recomputes
/// expansion trees, and a recomputed tree's θ-extent can flip a borderline
/// update in or out of an influence region (the CLU-n-D recovery path
/// wobbles the same way). Tree-shape-coupled work counters are not
/// compared.
pub fn replication(series: &[SeriesPoint]) -> Result<(), String> {
    for point in series {
        for r in &point.results {
            let Stack::Engine {
                link: Link::Replicated,
                shards,
                ..
            } = r.stack
            else {
                continue;
            };
            if r.get("failovers") < f64::from(shards) {
                return Err(format!(
                    "REPLICATION REGRESSION: {} at {} promoted {} followers (expected one \
                     per shard, {shards}) — the leader kills stopped driving failover",
                    r.stack.name(),
                    point.label,
                    r.get("failovers")
                ));
            }
            if r.get("fenced_appends") > 0.0 {
                return Err(format!(
                    "REPLICATION REGRESSION: {} at {} rejected {} appends as stale — a \
                     healthy run must never fence its own leader",
                    r.stack.name(),
                    point.label,
                    r.get("fenced_appends")
                ));
            }
            if r.get("replica_bytes") == 0.0 || r.get("commit_lag_frames") <= 0.0 {
                return Err(format!(
                    "REPLICATION REGRESSION: {} at {} shipped {} replica bytes and \
                     replicated {:.3} appends per tick — the append path never ran",
                    r.stack.name(),
                    point.label,
                    r.get("replica_bytes"),
                    r.get("commit_lag_frames")
                ));
            }
            if let Some(eng) = in_process_twin(point, shards) {
                let exact = (r.get("resync_per_ts"), r.get("evictions_per_ts"))
                    == (eng.get("resync_per_ts"), eng.get("evictions_per_ts"));
                let ignored_ok = (r.get("ignored_per_ts") - eng.get("ignored_per_ts")).abs()
                    <= eng.get("ignored_per_ts") * 0.01;
                if !exact || !ignored_ok {
                    return Err(format!(
                        "REPLICATION REGRESSION: at {} {} restore-stable counters (ignored \
                         {:.3}, resync {:.3}, evictions {:.3}) diverged from {} ({:.3}, \
                         {:.3}, {:.3}) — the cluster no longer matches the in-process engine \
                         through follower promotion",
                        point.label,
                        r.stack.name(),
                        r.get("ignored_per_ts"),
                        r.get("resync_per_ts"),
                        r.get("evictions_per_ts"),
                        eng.stack.name(),
                        eng.get("ignored_per_ts"),
                        eng.get("resync_per_ts"),
                        eng.get("evictions_per_ts")
                    ));
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
    Ok(())
}

/// The lossless ingest-fed engine must actually fold redundant firehose
/// reports (every feed shape oversamples, so a zero means §4.5 coalescing
/// stopped firing), must never shed (blocking admission with lanes sized
/// above the feed rate), and its post-warmup drains must run
/// allocation-free — the swap-and-merge drain's zero-copy guarantee,
/// measured as a window total so a single stray allocation fails. The
/// tight-laned ING-SHED column must demonstrably shed, or the
/// admission-control demonstration is dead weight in the artifact.
pub fn ingest(series: &[SeriesPoint]) -> Result<(), String> {
    for point in series {
        let mut fed = Vec::new();
        for r in &point.results {
            let shed = r.get("shed_events");
            let drain_allocs = r.get("drain_alloc_events");
            let broke = |what: String| {
                let name = r.stack.name();
                Err(format!(
                    "INGEST REGRESSION: {name} at {} {what}",
                    point.label
                ))
            };
            match r.stack.ingest() {
                Ingest::Batch => continue,
                Ingest::Lossless => {
                    if r.get("coalesced_per_ts") <= 0.0 {
                        return broke(
                            "coalesced nothing — the drain stopped folding superseded reports"
                                .into(),
                        );
                    }
                    if shed > 0.0 {
                        return broke(format!(
                            "shed {shed} events under blocking admission — lossless lanes \
                             dropped data"
                        ));
                    }
                    if drain_allocs > 0.0 {
                        return broke(format!(
                            "allocated {drain_allocs} times in post-warmup drains — the \
                             swap-and-merge drain is no longer allocation-free at steady state"
                        ));
                    }
                }
                Ingest::Shedding => {
                    if shed == 0.0 {
                        return broke(
                            "never shed — the tight ShedOldest lanes stopped exercising \
                             admission control"
                                .into(),
                        );
                    }
                }
            }
            fed.push(format!(
                "{} coalesced/ts {:.1}, shed {}, drain allocs {}",
                r.stack.name(),
                r.get("coalesced_per_ts"),
                shed,
                drain_allocs
            ));
        }
        println!("#   {}: {}", point.label, fed.join("; "));
    }
    Ok(())
}
