//! Correctness of the ingest front-end (`rnn_engine::ingest`): the
//! one-queue MPSC submission stage must be a *transparent* prefix of the
//! tick path.
//!
//! * **No coalescing triggered** (at most one event per entity per
//!   window): an engine fed event-by-event through an `IngestHandle`
//!   (`ING-S` in `tests/common`) must be **bit-identical** — results,
//!   `kNN_dist` bits, change lists, every deterministic work counter and
//!   `memory()` — to its twin `ENG-S` ticking the same [`UpdateBatch`]
//!   directly, at S ∈ {1, 2, 4}. The only permitted difference is the
//!   ingest stage's own `drain_alloc_events` warm-up bookkeeping, which
//!   the harness leaves out of an `ING` stack's report.
//! * **Coalescing triggered** (a firehose oversamples entity moves):
//!   the ingest-fed engine must stay **answer-identical** to a twin fed
//!   the firehose's effective one-event-per-entity batches, while
//!   `coalesced_superseded` proves the fold actually happened.
//! * **Coalescing is order-insensitive**: interleaving concurrent
//!   producers differently must never change any entity's folded
//!   outcome (a loop of seeded cases below).
//! * **The one lock holds under contention**: producer threads racing a
//!   draining consumer through `Block` admission lose nothing, fold each
//!   entity to its last report and never deadlock.
//! * **A hostile producer cannot panic the coordinator**: an event that
//!   does not fit the network (an edge past it, an object id not below
//!   `OBJECT_ID_BOUND`, `k` = 0 or above `MAX_K`, a weight outside
//!   `[UNIT, MAX_WEIGHT]`: NaN, infinite, negative, zero, under one unit
//!   or too large) is refused at submit
//!   with [`IngestError::Invalid`], and the next valid tick answers
//!   exactly as an untouched twin's.
//!
//! The differential rows run on the harness in `tests/common`; its module
//! docs say how to add one.

mod common;

use std::sync::Arc;

use common::{
    base_cfg, cases, drive, events, grid, lossless, Counters, FlashCrowd, Stack, Workload,
};
use rand::rngs::StdRng;
use rand::Rng;
use rnn_monitor::core::types::{MAX_K, OBJECT_ID_BOUND};
use rnn_monitor::core::{ContinuousMonitor, UpdateBatch, UpdateEvent};
use rnn_monitor::engine::{
    AdmissionPolicy, EngineConfig, IngestConfig, IngestError, IngestHub, ShardedEngine,
};
use rnn_monitor::roadnet::{EdgeId, NetPoint, ObjectId, QueryId, MAX_WEIGHT, UNIT};
use rnn_monitor::workload::{Scenario, ScenarioConfig};

/// 120 objects and 16 queries, 30% of the objects moving a tick.
fn busy(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        num_objects: 120,
        num_queries: 16,
        object_agility: 0.3,
        ..base_cfg(seed)
    }
}

/// Submitting a scenario's batches event-by-event (one event per entity
/// per window, so coalescing never folds anything) is bit-identical to
/// ticking the batches directly, at S ∈ {1, 2, 4}.
#[test]
fn ingest_without_coalescing_is_bit_identical_to_batch_path() {
    let net = grid(6, 6, 9);
    let mut stacks = Stack::pairs(
        &[1, 2, 4],
        |s| Stack::eng(&net, EngineConfig::with_shards(s)),
        |s| {
            let cfg = EngineConfig {
                ingest: lossless(4096),
                ..EngineConfig::with_shards(s)
            };
            Stack::ing(&net, cfg)
        },
        Counters::Exact,
    );
    drive(&mut Scenario::new(net.clone(), busy(77)), &mut stacks, 6).unwrap();
}

/// A flash-crowd firehose (every entity over-reported several times per
/// window) through the ingest stage must fold to the same answers as a
/// twin fed the firehose's effective batches — and must actually coalesce.
#[test]
fn flash_crowd_firehose_coalesces_and_matches_effective_batch_oracle() {
    let net = grid(6, 6, 11);
    let cfg = EngineConfig {
        ingest: lossless(8192),
        ..EngineConfig::with_shards(4)
    };
    let mut stacks = vec![
        Stack::eng(&net, EngineConfig::with_shards(4)),
        Stack::ing(&net, cfg),
    ];
    drive(&mut FlashCrowd::new(net.clone(), busy(123)), &mut stacks, 6).unwrap();
    let folded = &stacks[1].total;
    assert_eq!(folded.shed_events, 0, "Block never sheds");
    assert!(
        folded.coalesced_superseded > 0,
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

/// A scenario whose producer sends one event that does not fit the
/// network ahead of each tick's valid events.
struct Hostile {
    scenario: Scenario,
    bad: std::vec::IntoIter<UpdateEvent>,
    reports: Vec<UpdateEvent>,
}

impl Workload for Hostile {
    fn install_into(&self, m: &mut dyn ContinuousMonitor) {
        self.scenario.install_into(m);
    }

    fn tick(&mut self) -> UpdateBatch {
        let bad = self.bad.next().expect("one bad event a tick");
        let batch = self.scenario.tick();
        self.reports = std::iter::once(bad).chain(events(&batch)).collect();
        batch
    }

    fn reports(&self) -> Option<&[UpdateEvent]> {
        Some(&self.reports)
    }
}

/// A producer submitting events that do not fit the engine's network:
/// each is refused at submit with a typed error and never reaches the
/// router or a shard, and the valid tick that follows answers — results,
/// `kNN_dist` bits and work counters — exactly as a twin that never saw
/// the bad event.
#[test]
fn hostile_producer_is_refused_at_submit_and_changes_nothing() {
    let net = grid(6, 6, 13);
    let n = net.num_edges() as u32;
    let (object, query) = (ObjectId(0), QueryId(0));
    let far = NetPoint::new(EdgeId(1_000_000), 0.5);
    let past = NetPoint::new(EdgeId(n), 0.5);
    let on = NetPoint::new(EdgeId(0), 0.5);
    let cases = [
        (
            "insert past the network",
            UpdateEvent::insert_object(ObjectId(9_999), far),
        ),
        (
            "object move to edge |E|",
            UpdateEvent::move_object(object, past),
        ),
        (
            "install with k = 0",
            UpdateEvent::install_query(QueryId(9_999), 0, on),
        ),
        (
            "install with k = MAX_K + 1",
            UpdateEvent::install_query(QueryId(9_999), MAX_K + 1, on),
        ),
        (
            "install past the network",
            UpdateEvent::install_query(QueryId(9_999), 4, far),
        ),
        (
            "query move past the network",
            UpdateEvent::move_query(query, past),
        ),
        (
            "insert with an id at the bound",
            UpdateEvent::insert_object(ObjectId(OBJECT_ID_BOUND), on),
        ),
        (
            "move with the largest id",
            UpdateEvent::move_object(ObjectId(u32::MAX), on),
        ),
        (
            "delete with the largest id",
            UpdateEvent::delete_object(ObjectId(u32::MAX)),
        ),
        ("weight on edge |E|", UpdateEvent::edge(EdgeId(n), 1.0)),
        ("NaN weight", UpdateEvent::edge(EdgeId(3), f64::NAN)),
        (
            "infinite weight",
            UpdateEvent::edge(EdgeId(3), f64::INFINITY),
        ),
        ("negative weight", UpdateEvent::edge(EdgeId(3), -1.0)),
        ("zero weight", UpdateEvent::edge(EdgeId(3), 0.0)),
        (
            "weight under one unit",
            UpdateEvent::edge(EdgeId(3), UNIT / 4.0),
        ),
        (
            "weight past MAX_WEIGHT",
            UpdateEvent::edge(EdgeId(3), 2.0 * MAX_WEIGHT),
        ),
    ];
    let mut hostile = Hostile {
        scenario: Scenario::new(net.clone(), busy(31)),
        bad: cases.map(|(_, bad)| bad).to_vec().into_iter(),
        reports: Vec::new(),
    };
    let cfg = EngineConfig::with_shards(2);
    let mut stacks = vec![
        Stack::eng(&net, cfg),
        Stack::ing(&net, cfg).twin(0, Counters::Exact),
    ];
    drive(&mut hostile, &mut stacks, cases.len()).unwrap();
    let refused = &stacks[1].refused;
    assert_eq!(refused.len(), cases.len(), "{refused:?}");
    for ((what, bad), &err) in cases.iter().zip(refused) {
        // Compared as text: a NaN weight is not equal to itself.
        let IngestError::Invalid { event } = err;
        assert_eq!(format!("{event:?}"), format!("{bad:?}"), "{what}");
        assert!(err.to_string().contains("does not fit"), "{what}: {err}");
    }
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

/// Per-entity event scripts for the order-insensitivity property: 1–6
/// entities, each reporting 1–4 moves within one tick window; the final
/// position is what must survive coalescing.
fn entity_scripts(rng: &mut StdRng) -> Vec<Vec<NetPoint>> {
    (0..rng.random_range(1..7usize))
        .map(|_| {
            (0..rng.random_range(1..5usize))
                .map(|_| NetPoint::new(EdgeId(rng.random_range(0..64)), rng.random_range(0.0..1.0)))
                .collect()
        })
        .collect()
}

/// Coalescing is insensitive to how concurrent producers interleave: any
/// interleaving that preserves each entity's own submission order folds
/// to the same per-entity outcome, with the same superseded count. Each
/// case draws one arbitrary schedule; the baseline is plain sequential
/// submission.
#[test]
fn coalescing_is_order_insensitive() {
    cases(0..64, |rng| {
        let scripts = entity_scripts(rng);
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
                    h.submit(UpdateEvent::move_object(ObjectId(idx as u32), to))
                        .unwrap();
                }
            }
        }
        let mut seq_batch = UpdateBatch::default();
        let seq_stats = seq_hub.drain_into(&mut seq_batch);

        // Shuffled: a random schedule that still consumes each script
        // front-to-back.
        let mut cursors: Vec<usize> = vec![0; scripts.len()];
        let mut mix_hub = IngestHub::new(cfg);
        {
            let h = mix_hub.handle();
            let total: usize = scripts.iter().map(Vec::len).sum();
            for _ in 0..total {
                // One of the entities that still have events left.
                let live: Vec<usize> = (0..scripts.len())
                    .filter(|&i| cursors[i] < scripts[i].len())
                    .collect();
                let pick = live[rng.random_range(0..live.len())];
                let to = scripts[pick][cursors[pick]];
                cursors[pick] += 1;
                h.submit(UpdateEvent::move_object(ObjectId(pick as u32), to))
                    .unwrap();
            }
        }
        let mut mix_batch = UpdateBatch::default();
        let mix_stats = mix_hub.drain_into(&mut mix_batch);

        // Same multiset of events → same fold totals...
        assert_eq!(seq_stats.drained, mix_stats.drained);
        assert_eq!(
            seq_stats.coalesced_superseded,
            mix_stats.coalesced_superseded
        );
        assert_eq!(seq_stats.shed_events, 0);
        assert_eq!(mix_stats.shed_events, 0);
        assert_eq!(
            seq_stats.coalesced_superseded as usize,
            scripts.iter().map(|s| s.len() - 1).sum::<usize>()
        );

        // ...and, entity by entity, the identical surviving event: the
        // last move of that entity's own script, exactly once.
        assert_eq!(seq_batch.objects.len(), scripts.len());
        for (idx, script) in scripts.iter().enumerate() {
            let expected = UpdateEvent::move_object(ObjectId(idx as u32), *script.last().unwrap());
            for batch in [&seq_batch, &mix_batch] {
                let mine: Vec<UpdateEvent> = batch
                    .objects
                    .iter()
                    .map(|&e| UpdateEvent::Object(e))
                    .filter(|e| {
                        matches!(*e, UpdateEvent::Object(
                        rnn_monitor::core::ObjectEvent::Move { id, .. }) if id.index() == idx)
                    })
                    .collect();
                assert_eq!(mine, [expected], "entity {idx} folded to one event");
            }
        }
    });
}
