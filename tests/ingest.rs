//! Correctness of the ingest front-end (`rnn_engine::ingest`): the
//! one-queue MPSC submission stage must be a *transparent* prefix of the
//! tick path.
//!
//! * **No coalescing triggered** (at most one event per entity per
//!   window): an engine fed event-by-event through an [`IngestHandle`]
//!   must be **bit-identical** — results, `kNN_dist` bits, and every
//!   deterministic work counter — to a twin engine ticking the same
//!   [`UpdateBatch`] directly, at S ∈ {1, 2, 4}. The only permitted
//!   difference is the ingest stage's own `drain_alloc_events` warm-up
//!   bookkeeping.
//! * **Coalescing triggered** (a firehose oversamples entity moves):
//!   the ingest-fed engine must stay **answer-identical** to a twin fed
//!   the firehose's effective one-event-per-entity batches, while
//!   `coalesced_superseded` proves the fold actually happened.
//! * **Coalescing is order-insensitive**: interleaving concurrent
//!   producers differently must never change any entity's folded
//!   outcome (proptest below).
//! * **The one lock holds under contention**: producer threads racing a
//!   draining consumer through `Block` admission lose nothing, fold each
//!   entity to its last report and never deadlock.
//! * **`Reject` admission is typed**: a full hub surfaces
//!   [`IngestError::LaneFull`] with its bound — never a panic, never
//!   silence.

use std::sync::Arc;

use proptest::prelude::*;
use rnn_monitor::core::{ContinuousMonitor, TickReport, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{
    AdmissionPolicy, EngineConfig, IngestConfig, IngestError, IngestHub, ShardedEngine,
};
use rnn_monitor::roadnet::{generators, EdgeId, NetPoint, ObjectId, RoadNetwork};
use rnn_monitor::workload::{
    Firehose, FirehoseConfig, FirehosePattern, MovementModel, Scenario, ScenarioConfig,
};

fn grid(nx: usize, ny: usize, seed: u64) -> Arc<RoadNetwork> {
    Arc::new(generators::grid_city(&generators::GridCityConfig {
        nx,
        ny,
        seed,
        ..Default::default()
    }))
}

fn small_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        num_objects: 120,
        num_queries: 16,
        k: 4,
        seed,
        movement: MovementModel::RandomWalk,
        object_agility: 0.3,
        ..Default::default()
    }
}

/// Exact result comparison: both sides run the very same engine code on
/// the very same event stream, so results compare bit-for-bit (ids
/// included), not as tolerance-padded distance multisets.
fn assert_results_identical(a: &dyn ContinuousMonitor, b: &dyn ContinuousMonitor, ctx: &str) {
    let mut ids = a.query_ids();
    ids.sort();
    let mut other = b.query_ids();
    other.sort();
    assert_eq!(ids, other, "{ctx}: query sets diverge");
    for qid in ids {
        assert_eq!(a.result(qid), b.result(qid), "{ctx}: query {qid} result");
        assert_eq!(
            a.knn_dist(qid).map(f64::to_bits),
            b.knn_dist(qid).map(f64::to_bits),
            "{ctx}: query {qid} kNN_dist bits"
        );
    }
}

/// Submitting a scenario's batches event-by-event (one event per entity
/// per window, so coalescing never folds anything) is bit-identical to
/// ticking the batches directly, at S ∈ {1, 2, 4}.
#[test]
fn ingest_without_coalescing_is_bit_identical_to_batch_path() {
    let net = grid(6, 6, 9);
    for shards in [1usize, 2, 4] {
        let mut scenario = Scenario::new(net.clone(), small_cfg(77));
        let cfg = EngineConfig {
            ingest: IngestConfig {
                capacity: 4096,
                policy: AdmissionPolicy::Block,
            },
            ..EngineConfig::with_shards(shards)
        };
        let mut fed = ShardedEngine::new(net.clone(), cfg);
        let handle = fed.ingest_handle();
        let mut twin = ShardedEngine::new(net.clone(), EngineConfig::with_shards(shards));
        scenario.install_into(&mut fed);
        scenario.install_into(&mut twin);

        for ts in 0..6 {
            let batch = scenario.tick();
            for &ev in &batch.objects {
                handle
                    .submit(UpdateEvent::Object(ev))
                    .expect("lossless hub");
            }
            for &ev in &batch.queries {
                handle.submit(UpdateEvent::Query(ev)).expect("lossless hub");
            }
            for &ev in &batch.edges {
                handle.submit(UpdateEvent::Edge(ev)).expect("lossless hub");
            }
            let mut fed_rep = fed.tick_ingest();
            let twin_rep = twin.tick(&batch);

            let ctx = format!("S={shards}, ts={ts}");
            assert_eq!(fed_rep.counters.coalesced_superseded, 0, "{ctx}");
            assert_eq!(fed_rep.counters.shed_events, 0, "{ctx}");
            // The drain's own warm-up bookkeeping is the one counter the
            // batch path cannot have; everything else must match bit-wise.
            fed_rep.counters.drain_alloc_events = 0;
            assert_eq!(fed_rep.counters, twin_rep.counters, "{ctx}: counters");
            assert_eq!(
                fed_rep.results_changed, twin_rep.results_changed,
                "{ctx}: results_changed"
            );
            assert_results_identical(&fed, &twin, &ctx);
        }
    }
}

/// A flash-crowd firehose (every entity over-reported several times per
/// window) through the ingest stage must fold to the same answers as a
/// twin fed the firehose's effective batches — and must actually coalesce.
#[test]
fn flash_crowd_firehose_coalesces_and_matches_effective_batch_oracle() {
    let net = grid(6, 6, 11);
    let mut fire = Firehose::new(
        net.clone(),
        FirehoseConfig::new(FirehosePattern::FlashCrowd, small_cfg(123)),
    );
    let cfg = EngineConfig {
        ingest: IngestConfig {
            capacity: 8192,
            policy: AdmissionPolicy::Block,
        },
        ..EngineConfig::with_shards(4)
    };
    let mut fed = ShardedEngine::new(net.clone(), cfg);
    let handle = fed.ingest_handle();
    let mut twin = ShardedEngine::new(net.clone(), EngineConfig::with_shards(4));
    fire.install_into(&mut fed);
    fire.install_into(&mut twin);

    let mut total = TickReport::default();
    for ts in 0..6 {
        let t = fire.tick();
        assert!(
            t.raw.len() > t.effective.len(),
            "firehose must oversample (ts {ts})"
        );
        for &ev in t.raw {
            handle.submit(ev).expect("lossless hub");
        }
        let effective = t.effective.clone();
        let rep = fed.tick_ingest();
        twin.tick(&effective);
        assert_eq!(rep.counters.shed_events, 0, "Block never sheds (ts {ts})");
        total.absorb_parallel(&rep);
        assert_results_identical(&fed, &twin, &format!("ts {ts}"));
    }
    assert!(
        total.counters.coalesced_superseded > 0,
        "a flash crowd must trigger last-write-wins folding"
    );
}

/// Four producers race a consumer that drains while they submit, through
/// `Block` admission at a capacity well below the entity count, so
/// producers park and wake all the time. Each producer owns its own
/// entities and reports them round by round (the round is the report's
/// edge), so every survivor says which report it is. Nothing may be lost
/// or reordered, and the run must finish inside its time box.
#[test]
fn one_lock_hub_under_contention_loses_and_reorders_nothing() {
    const PRODUCERS: u32 = 4;
    const ENTITIES: u32 = 16; // per producer
    const ROUNDS: u32 = 400;
    let mut hub = IngestHub::new(IngestConfig {
        capacity: 8,
        policy: AdmissionPolicy::Block,
    });
    // Everyone starts together, so the first drain already races them.
    let start = Arc::new(std::sync::Barrier::new(PRODUCERS as usize + 1));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (h, start) = (hub.handle(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    for e in 0..ENTITIES {
                        let id = ObjectId(p * ENTITIES + e);
                        let at = NetPoint::new(EdgeId(round), 0.5);
                        h.submit(UpdateEvent::move_object(id, at)).unwrap();
                    }
                }
            })
        })
        .collect();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut last_round: Vec<Option<u32>> = vec![None; (PRODUCERS * ENTITIES) as usize];
    let (mut drained, mut superseded, mut shed) = (0u64, 0u64, 0u64);
    let mut batch = UpdateBatch::default();
    start.wait();
    loop {
        // Read before the drain, so the drain that follows the last
        // submit is always taken.
        let done = producers.iter().all(|p| p.is_finished());
        batch.clear();
        let stats = hub.drain_into(&mut batch);
        drained += stats.drained;
        superseded += stats.coalesced_superseded;
        shed += stats.shed_events;
        for event in &batch.objects {
            let rnn_monitor::core::ObjectEvent::Move { id, to } = *event else {
                panic!("only moves were submitted: {event:?}");
            };
            let seen = &mut last_round[id.index()];
            // One survivor per entity per drain, each a later report of
            // its producer than the entity's previous survivor.
            assert!(
                seen.map_or(true, |r| r < to.edge.0),
                "entity {id}: report {} after {seen:?}",
                to.edge.0
            );
            *seen = Some(to.edge.0);
        }
        if done {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "producers still parked after 60 s: the hub deadlocked"
        );
        std::thread::yield_now();
    }
    for p in producers {
        p.join().unwrap();
    }
    let submitted = u64::from(PRODUCERS * ENTITIES * ROUNDS);
    assert_eq!(
        drained + superseded,
        submitted,
        "every report drained or folded"
    );
    assert_eq!(shed, 0, "Block never sheds");
    assert!(
        last_round.iter().all(|r| *r == Some(ROUNDS - 1)),
        "every entity ends at its last report: {last_round:?}"
    );
}

/// `Reject` admission surfaces a typed, value-carrying error instead of
/// panicking or silently dropping; draining reopens the hub.
#[test]
fn reject_policy_surfaces_typed_lane_full_error() {
    let mut hub = IngestHub::new(IngestConfig {
        capacity: 2,
        policy: AdmissionPolicy::Reject,
    });
    let handle = hub.handle();
    let at = NetPoint::new(EdgeId(0), 0.5);
    handle
        .submit(UpdateEvent::move_object(ObjectId(1), at))
        .expect("first fits");
    handle
        .submit(UpdateEvent::move_object(ObjectId(2), at))
        .expect("second fits");
    let err = handle
        .submit(UpdateEvent::move_object(ObjectId(3), at))
        .expect_err("third must be refused");
    assert_eq!(err, IngestError::LaneFull { capacity: 2 });
    assert!(err.to_string().contains("2 open windows"), "{err}");

    let mut batch = UpdateBatch::default();
    let stats = hub.drain_into(&mut batch);
    assert_eq!(stats.drained, 2, "the refused event was never queued");
    assert_eq!(stats.shed_events, 0, "Reject refuses; it does not shed");
    assert_eq!(batch.objects.len(), 2);
    handle
        .submit(UpdateEvent::move_object(ObjectId(3), at))
        .expect("drain reopens the hub");
}

/// Config validation mirrors the same typed-error discipline at
/// configuration time: out-of-range ingest knobs never reach the hub,
/// whether the config is vetted up front (`EngineConfig::validate`) or
/// handed straight to a constructor (`ShardedEngine::try_new`).
#[test]
fn validation_rejects_invalid_ingest_knobs_with_typed_errors() {
    let with_ingest = |ingest: IngestConfig| EngineConfig {
        ingest,
        ..EngineConfig::default()
    };
    let cases = [
        (
            with_ingest(IngestConfig {
                capacity: 0,
                ..IngestConfig::default()
            }),
            "ingest.capacity",
        ),
        (EngineConfig::with_shards(0), "shard"),
    ];
    for (cfg, needle) in cases {
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains(needle), "{err}");
        let from_ctor = ShardedEngine::try_new(grid(4, 4, 1), cfg).err();
        assert_eq!(from_ctor, Some(err), "constructor and validate() agree");
    }
}

/// Per-entity event scripts for the order-insensitivity property. Each
/// entity reports `1..=4` moves within one tick window; the final
/// position is what must survive coalescing.
fn entity_scripts() -> impl Strategy<Value = Vec<Vec<NetPoint>>> {
    prop::collection::vec(prop::collection::vec((0u32..64, 0.0f64..1.0), 1..5), 1..7).prop_map(
        |entities| {
            entities
                .into_iter()
                .map(|moves| {
                    moves
                        .into_iter()
                        .map(|(e, f)| NetPoint::new(EdgeId(e), f))
                        .collect()
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalescing is insensitive to how concurrent producers interleave:
    /// any interleaving that preserves each entity's own submission order
    /// folds to the same per-entity outcome, with the same superseded
    /// count. `interleave_seed` drives one arbitrary round-robin-ish
    /// schedule; the baseline is plain sequential submission.
    #[test]
    fn coalescing_is_order_insensitive(
        scripts in entity_scripts(),
        interleave_seed in 0u64..u64::MAX,
    ) {
        let cfg = IngestConfig {
            capacity: 1024,
            policy: AdmissionPolicy::Block,
        };

        // Baseline: entity 0's script, then entity 1's, ...
        let mut seq_hub = IngestHub::new(cfg);
        {
            let h = seq_hub.handle();
            for (idx, script) in scripts.iter().enumerate() {
                for &to in script {
                    h.submit(UpdateEvent::move_object(ObjectId(idx as u32), to)).unwrap();
                }
            }
        }
        let mut seq_batch = UpdateBatch::default();
        let seq_stats = seq_hub.drain_into(&mut seq_batch);

        // Shuffled: a deterministic schedule derived from the seed that
        // still consumes each script front-to-back.
        let mut cursors: Vec<usize> = vec![0; scripts.len()];
        let mut state = interleave_seed | 1;
        let mut mix_hub = IngestHub::new(cfg);
        {
            let h = mix_hub.handle();
            let total: usize = scripts.iter().map(Vec::len).sum();
            for _ in 0..total {
                // xorshift over the entities that still have events left.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let live: Vec<usize> = (0..scripts.len())
                    .filter(|&i| cursors[i] < scripts[i].len())
                    .collect();
                let pick = live[(state % live.len() as u64) as usize];
                let to = scripts[pick][cursors[pick]];
                cursors[pick] += 1;
                h.submit(UpdateEvent::move_object(ObjectId(pick as u32), to)).unwrap();
            }
        }
        let mut mix_batch = UpdateBatch::default();
        let mix_stats = mix_hub.drain_into(&mut mix_batch);

        // Same multiset of events → same fold totals...
        prop_assert_eq!(seq_stats.drained, mix_stats.drained);
        prop_assert_eq!(seq_stats.coalesced_superseded, mix_stats.coalesced_superseded);
        prop_assert_eq!(seq_stats.shed_events, 0);
        prop_assert_eq!(mix_stats.shed_events, 0);
        prop_assert_eq!(seq_stats.coalesced_superseded as usize,
            scripts.iter().map(|s| s.len() - 1).sum::<usize>());

        // ...and, entity by entity, the identical surviving event: the
        // last move of that entity's own script, exactly once.
        prop_assert_eq!(seq_batch.objects.len(), scripts.len());
        for (idx, script) in scripts.iter().enumerate() {
            let expected = UpdateEvent::move_object(
                ObjectId(idx as u32),
                *script.last().unwrap(),
            );
            let find = |b: &UpdateBatch| {
                let mine: Vec<UpdateEvent> = b
                    .objects
                    .iter()
                    .map(|&e| UpdateEvent::Object(e))
                    .filter(|e| matches!(*e, UpdateEvent::Object(
                        rnn_monitor::core::ObjectEvent::Move { id, .. }) if id.index() == idx))
                    .collect();
                prop_assert_eq!(mine.len(), 1, "entity {} folded to one event", idx);
                prop_assert_eq!(mine[0], expected);
            };
            find(&seq_batch);
            find(&mix_batch);
        }
    }
}
