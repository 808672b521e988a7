//! Out-of-band ingest: one bounded submission queue in front of the tick
//! loop.
//!
//! The paper's protocol is synchronous — at every timestamp the server is
//! handed one [`UpdateBatch`] containing everything that happened. Real
//! feeds are not so polite: GPS probes, query installs, and congestion
//! sensors arrive continuously from many threads, and several reports for
//! the *same* entity routinely land inside one tick window. This module
//! is the stage between the two worlds:
//!
//! * **One queue, any number of producers.** An [`IngestHub`] owns one
//!   bounded window queue under one lock; any number of cloned
//!   [`IngestHandle`]s submit concurrently. Windows queue in the order
//!   they open, so the drained batch is in *first-report order* and
//!   per-entity submission order is preserved — the property §4.5
//!   coalescing relies on. With no coalescing triggered, the drained
//!   batch is **bit-identical** to one built by hand in submission order.
//! * **Tick-window coalescing at submit** (§4.5: "if an entity issues
//!   several updates in one timestamp, they are coalesced"). The queue
//!   keeps one *open window* per entity and folds each later report into
//!   it in place, under the lock the submit already holds — `Install`+`Move`
//!   folds to `Install` at the final position (generalizing the
//!   install-then-move contract), `Move`+`Move` keeps the last position,
//!   and edge reports keep the last weight. `Delete` / `Remove` are never
//!   folded across: they close the entity's window, and later events
//!   start a fresh one. Every report folded this way counts in
//!   [`DrainStats::coalesced_superseded`] — the answer is identical, the
//!   work is not done twice. The queue therefore holds survivors only.
//! * **Admission control.** The queue is bounded (`capacity` open
//!   windows); a submission that would open a window in a full queue
//!   applies its [`AdmissionPolicy`]: `Block` parks the producer until
//!   the next drain (lossless backpressure), `ShedOldest` drops the oldest
//!   surviving window (counted in [`DrainStats::shed_events`] — the
//!   monitor lags but never stalls). A fold never parks or sheds.
//! * **Validation at submit.** An event that does not fit the network
//!   ([`UpdateEvent::fits`]) is refused with [`IngestError::Invalid`].
//!
//! The drain is a swap: the queue is swapped against a hub-owned
//! ping-pong buffer (events *move*, event slices are never cloned), its
//! open-window index is cleared in place, and the survivors are appended
//! to the batch in queue order. Capacity growth of either — queue or
//! index — is counted in [`DrainStats::drain_alloc_events`], which the
//! benchmark gate pins to zero once warm.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rnn_core::{EdgeWeightUpdate, ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent};
use rnn_roadnet::FxHashMap;

/// What a full queue does to a submission that would open a new window.
/// Folding a report into an entity's open window needs no room, so it is
/// always admitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Park the producer until the consumer drains the queue: lossless
    /// backpressure, the default. Producers slow to the tick rate.
    #[default]
    Block,
    /// Drop the queue's *oldest* surviving window — its event and every
    /// report already folded into it — to admit the new one. The monitor
    /// may serve answers that lag reality (shed moves are simply never
    /// seen), but producers never stall. Every dropped window counts in
    /// [`DrainStats::shed_events`]; the entity's next report opens a
    /// fresh window.
    ShedOldest,
}

/// Tuning knobs of the ingest stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestConfig {
    /// The hub's bound, in *open windows* (surviving events), not raw
    /// reports: a report that folds into an open window takes no room. A
    /// full hub applies `policy` to a report that would open a window.
    /// Clamped to at least 1 at hub construction;
    /// [`crate::EngineConfig::validate`] rejects 0 with a typed error
    /// instead.
    pub capacity: usize,
    /// What a full hub does (see [`AdmissionPolicy`]).
    pub policy: AdmissionPolicy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            capacity: 16384,
            policy: AdmissionPolicy::Block,
        }
    }
}

/// Why a submission was refused: an event that does not fit the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IngestError {
    /// The event does not fit the network ([`UpdateEvent::fits`]); it was
    /// not queued.
    Invalid {
        /// The refused event.
        event: UpdateEvent,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Invalid { event } => write!(f, "{event:?} does not fit the network"),
        }
    }
}

impl std::error::Error for IngestError {}

/// What one [`IngestHub::drain_into`] call did. The engine folds these
/// into the tick's `OpCounters`; standalone hub users fold them into
/// whatever accounting they keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Events handed to the batch (after coalescing).
    pub drained: u64,
    /// Reports folded into an earlier report for the same entity within
    /// this tick window (last-write-wins).
    pub coalesced_superseded: u64,
    /// Windows dropped at admission by [`AdmissionPolicy::ShedOldest`]
    /// since the previous drain. These are *lost*, not folded.
    pub shed_events: u64,
    /// Capacity-growth events since the previous drain: the queue buffers,
    /// and the open-window index, which grows at submit. Zero once the
    /// hub is warm.
    pub drain_alloc_events: u64,
}

/// The tick window's survivors, guarded by the hub lock.
struct Queue {
    /// Surviving events, in the order their windows opened.
    events: VecDeque<UpdateEvent>,
    /// Entity key → position of its open window, counted from the first
    /// event admitted since the last drain (so `position - shed` indexes
    /// `events`). Sized by what was admitted, never by an id value.
    open: FxHashMap<u64, usize>,
    /// Windows dropped from the front by `ShedOldest` since the last drain.
    shed: usize,
    /// Reports folded since the last drain.
    superseded: u64,
    /// Growths of `open` since the last drain.
    grown: u64,
    /// The most `open` has ever had room for. `capacity()` also rises
    /// when a rehash in place reclaims the slots of removed keys, which
    /// allocates nothing, so only a rise above this counts as growth.
    open_room: usize,
}

impl Queue {
    /// The entity's open window, if `event` is a report that folds into one.
    fn open_window(&mut self, key: u64, event: &UpdateEvent) -> Option<&mut UpdateEvent> {
        let folds = matches!(
            event,
            UpdateEvent::Object(ObjectEvent::Move { .. })
                | UpdateEvent::Query(QueryEvent::Move { .. })
                | UpdateEvent::Edge(_)
        );
        if !folds {
            return None;
        }
        let at = *self.open.get(&key)? - self.shed;
        self.events.get_mut(at)
    }

    /// Drops the oldest window and forgets it, so the entity's next report
    /// opens a fresh one.
    fn shed_oldest(&mut self) {
        if let Some(event) = self.events.pop_front() {
            let key = coalesce_key(&event);
            if self.open.get(&key) == Some(&self.shed) {
                self.open.remove(&key);
            }
            self.shed += 1;
        }
    }

    /// Appends `event` as a new survivor: `Delete` / `Remove` close the
    /// entity's window, anything else opens one.
    fn admit(&mut self, key: u64, event: UpdateEvent) {
        let closes = matches!(
            event,
            UpdateEvent::Object(ObjectEvent::Delete { .. })
                | UpdateEvent::Query(QueryEvent::Remove { .. })
        );
        if closes {
            self.open.remove(&key);
        } else {
            // The index grows here, on the submit side, when the hub opens
            // more windows than ever before; `grown` carries the growth
            // to the next drain's `drain_alloc_events`.
            self.open.insert(key, self.shed + self.events.len());
            if self.open.capacity() > self.open_room {
                self.open_room = self.open.capacity();
                self.grown += 1;
            }
        }
        self.events.push_back(event);
    }
}

/// Folds a later report into an entity's open window (§4.5): the window
/// keeps its first kind and takes the last position or weight.
fn fold(window: &mut UpdateEvent, later: UpdateEvent) {
    *window = match (*window, later) {
        (
            UpdateEvent::Object(ObjectEvent::Insert { id, .. }),
            UpdateEvent::Object(ObjectEvent::Move { to, .. }),
        ) => UpdateEvent::Object(ObjectEvent::Insert { id, at: to }),
        (
            UpdateEvent::Query(QueryEvent::Install { id, k, .. }),
            UpdateEvent::Query(QueryEvent::Move { to, .. }),
        ) => UpdateEvent::Query(QueryEvent::Install { id, k, at: to }),
        _ => later,
    };
}

/// State shared between the hub (consumer) and its handles (producers):
/// the queue plus the condvar `Block`ed producers park on.
struct HubShared {
    queue: Mutex<Queue>,
    space: Condvar,
    capacity: usize,
    policy: AdmissionPolicy,
    /// Edge count of the network the drained batches go to.
    edges: usize,
}

impl HubShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // A producer panicking mid-submit cannot leave the queue in a
        // broken state (every mutation is one push, insert or in-place
        // write), so poisoning carries no information here — keep the hub
        // serving.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, event: UpdateEvent) -> Result<(), IngestError> {
        if !event.fits(self.edges) {
            return Err(IngestError::Invalid { event });
        }
        let key = coalesce_key(&event);
        let mut q = self.lock();
        loop {
            if let Some(window) = q.open_window(key, &event) {
                fold(window, event);
                q.superseded += 1;
                return Ok(());
            }
            if q.events.len() < self.capacity {
                break;
            }
            match self.policy {
                // A drain may have closed the window meanwhile: re-check.
                AdmissionPolicy::Block => {
                    q = self.space.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                AdmissionPolicy::ShedOldest => {
                    q.shed_oldest();
                    break;
                }
            }
        }
        q.admit(key, event);
        Ok(())
    }
}

/// A cloneable producer handle. Cheap to clone (one `Arc`), safe to move
/// across threads; any number may submit concurrently.
#[derive(Clone)]
pub struct IngestHandle {
    shared: Arc<HubShared>,
}

impl IngestHandle {
    /// Submits one event. Per-entity order is the submission order of
    /// whichever producer carries that entity; cross-entity order is the
    /// order in which windows opened. Fails on an event that does not fit
    /// the network ([`IngestError::Invalid`]); under
    /// [`AdmissionPolicy::Block`] this call parks on a full hub until the
    /// consumer drains.
    pub fn submit(&self, event: UpdateEvent) -> Result<(), IngestError> {
        self.shared.submit(event)
    }
}

/// The entity an event concerns, with its plane in the high bits (object,
/// query, and edge ids are all dense `u32`s).
fn coalesce_key(event: &UpdateEvent) -> u64 {
    let (plane, id) = match *event {
        UpdateEvent::Object(
            ObjectEvent::Insert { id, .. }
            | ObjectEvent::Move { id, .. }
            | ObjectEvent::Delete { id },
        ) => (1u64, id.0),
        UpdateEvent::Query(
            QueryEvent::Install { id, .. }
            | QueryEvent::Move { id, .. }
            | QueryEvent::Remove { id },
        ) => (2, id.0),
        UpdateEvent::Edge(EdgeWeightUpdate { edge, .. }) => (3, edge.0),
    };
    (plane << 32) | u64::from(id)
}

/// The ingest hub: owns the queue, hands out producer handles, and
/// drains into an [`UpdateBatch`] at tick boundaries. Single consumer —
/// [`Self::drain_into`] takes `&mut self`.
pub struct IngestHub {
    shared: Arc<HubShared>,
    /// Ping-pong partner of the queue: each drain swaps the queue against
    /// the partner it emptied last time, so events move without
    /// per-drain allocation.
    swapped: VecDeque<UpdateEvent>,
    /// High-water capacity seen of the queue buffers, to count growth.
    cap_seen: usize,
}

impl IngestHub {
    /// Creates a hub with `cfg`'s bound and policy (capacity silently
    /// clamped to at least 1; use [`crate::EngineConfig::validate`] for a
    /// typed error instead). It knows no network, so it checks `k` and
    /// weights but not edge ids; the engine's own hub checks those too.
    pub fn new(cfg: IngestConfig) -> Self {
        Self::for_network(cfg, usize::MAX)
    }

    /// A hub whose drained batches go to a network of `edges` edges.
    pub(crate) fn for_network(cfg: IngestConfig, edges: usize) -> Self {
        let capacity = cfg.capacity.max(1);
        let room = capacity.min(1024);
        let open = FxHashMap::with_capacity_and_hasher(room, Default::default());
        let shared = Arc::new(HubShared {
            queue: Mutex::new(Queue {
                events: VecDeque::with_capacity(room),
                open_room: open.capacity(),
                open,
                shed: 0,
                superseded: 0,
                grown: 0,
            }),
            space: Condvar::new(),
            capacity,
            policy: cfg.policy,
            edges,
        });
        Self {
            shared,
            swapped: VecDeque::with_capacity(room),
            cap_seen: 0,
        }
    }

    /// A new producer handle. Clone freely; handles stay valid for the
    /// hub's lifetime.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            shared: self.shared.clone(),
        }
    }

    /// Drains everything submitted so far into `batch` and wakes
    /// producers parked on the full queue. The queue already holds one
    /// survivor per window; they are appended in the order their windows
    /// opened (the batch is *not* cleared — callers owning the buffer
    /// clear between ticks). Returns what happened; see [`DrainStats`].
    pub fn drain_into(&mut self, batch: &mut UpdateBatch) -> DrainStats {
        debug_assert!(self.swapped.is_empty());
        let mut stats = DrainStats::default();
        {
            // Swap the queue against its ping-pong partner and close its
            // windows: producers go on writing into the (reused) partner
            // and the drain owns the survivors without having cloned them.
            let mut q = self.shared.lock();
            std::mem::swap(&mut q.events, &mut self.swapped);
            q.open.clear();
            stats.coalesced_superseded = std::mem::take(&mut q.superseded);
            stats.shed_events = std::mem::take(&mut q.shed) as u64;
            stats.drain_alloc_events = std::mem::take(&mut q.grown);
        }
        self.shared.space.notify_all();
        let cap = self.swapped.capacity();
        if cap > self.cap_seen {
            if self.cap_seen != 0 {
                stats.drain_alloc_events += 1;
            }
            self.cap_seen = cap;
        }
        stats.drained = self.swapped.len() as u64;
        for event in self.swapped.drain(..) {
            batch.push(event);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_core::EdgeWeightUpdate;
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId, QueryId};
    use std::collections::HashMap;

    fn pt(e: u32, f: f64) -> NetPoint {
        NetPoint::new(EdgeId(e), f)
    }

    fn drain(hub: &mut IngestHub) -> (UpdateBatch, DrainStats) {
        let mut batch = UpdateBatch::default();
        let stats = hub.drain_into(&mut batch);
        (batch, stats)
    }

    #[test]
    fn preserves_submission_order() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        // Neither id order nor any id residue: the batch keeps the order
        // the windows opened in.
        let order = [4u32, 7, 1, 8, 0, 3, 6, 2, 5];
        for i in order {
            h.submit(UpdateEvent::insert_object(ObjectId(i), pt(i, 0.5)))
                .unwrap();
        }
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.drained, 9);
        assert_eq!(stats.coalesced_superseded, 0);
        let ids: Vec<u32> = batch
            .objects
            .iter()
            .map(|e| match e {
                ObjectEvent::Insert { id, .. } => id.0,
                _ => unreachable!("only inserts submitted"),
            })
            .collect();
        assert_eq!(ids, order);
    }

    #[test]
    fn coalesces_moves_last_write_wins() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        h.submit(UpdateEvent::move_object(ObjectId(7), pt(0, 0.1)))
            .unwrap();
        h.submit(UpdateEvent::move_object(ObjectId(7), pt(1, 0.2)))
            .unwrap();
        h.submit(UpdateEvent::move_object(ObjectId(7), pt(2, 0.9)))
            .unwrap();
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.drained, 1);
        assert_eq!(stats.coalesced_superseded, 2);
        assert_eq!(
            batch.objects,
            vec![ObjectEvent::Move {
                id: ObjectId(7),
                to: pt(2, 0.9)
            }]
        );
    }

    #[test]
    fn install_plus_move_folds_to_install_at_final_position() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        h.submit(UpdateEvent::install_query(QueryId(3), 2, pt(0, 0.5)))
            .unwrap();
        h.submit(UpdateEvent::move_query(QueryId(3), pt(4, 0.25)))
            .unwrap();
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.coalesced_superseded, 1);
        assert_eq!(
            batch.queries,
            vec![QueryEvent::Install {
                id: QueryId(3),
                k: 2,
                at: pt(4, 0.25)
            }]
        );
    }

    #[test]
    fn delete_closes_the_window() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        h.submit(UpdateEvent::move_object(ObjectId(1), pt(0, 0.1)))
            .unwrap();
        h.submit(UpdateEvent::delete_object(ObjectId(1))).unwrap();
        h.submit(UpdateEvent::move_object(ObjectId(1), pt(2, 0.2)))
            .unwrap();
        let (batch, stats) = drain(&mut hub);
        // Nothing folds across the Delete: all three events survive.
        assert_eq!(stats.coalesced_superseded, 0);
        assert_eq!(batch.objects.len(), 3);
        assert_eq!(batch.objects[1], ObjectEvent::Delete { id: ObjectId(1) },);
    }

    #[test]
    fn edge_reports_keep_last_weight() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        h.submit(UpdateEvent::edge(EdgeId(5), 2.0)).unwrap();
        h.submit(UpdateEvent::edge(EdgeId(5), 3.5)).unwrap();
        h.submit(UpdateEvent::edge(EdgeId(6), 1.0)).unwrap();
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.coalesced_superseded, 1);
        assert_eq!(
            batch.edges,
            vec![
                EdgeWeightUpdate {
                    edge: EdgeId(5),
                    new_weight: 3.5
                },
                EdgeWeightUpdate {
                    edge: EdgeId(6),
                    new_weight: 1.0
                },
            ]
        );
    }

    #[test]
    fn shed_oldest_drops_head_and_counts() {
        let mut hub = IngestHub::new(IngestConfig {
            capacity: 2,
            policy: AdmissionPolicy::ShedOldest,
        });
        let h = hub.handle();
        h.submit(UpdateEvent::edge(EdgeId(0), 1.0)).unwrap();
        h.submit(UpdateEvent::edge(EdgeId(1), 1.0)).unwrap();
        h.submit(UpdateEvent::edge(EdgeId(2), 1.0)).unwrap();
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.shed_events, 1);
        assert_eq!(stats.drained, 2);
        assert_eq!(batch.edges[0].edge, EdgeId(1), "oldest event was shed");
    }

    #[test]
    fn blocked_producer_resumes_after_drain() {
        let mut hub = IngestHub::new(IngestConfig {
            capacity: 1,
            policy: AdmissionPolicy::Block,
        });
        let h = hub.handle();
        h.submit(UpdateEvent::edge(EdgeId(0), 1.0)).unwrap();
        let h2 = hub.handle();
        let producer = std::thread::spawn(move || {
            // Parks until the main thread drains, then lands.
            h2.submit(UpdateEvent::edge(EdgeId(1), 2.0)).unwrap();
        });
        // Wait until the producer is actually parked on the full hub,
        // then drain to release it.
        while !producer.is_finished() {
            let (batch, _) = drain(&mut hub);
            if batch.edges.iter().any(|e| e.edge == EdgeId(1)) {
                break;
            }
            std::thread::yield_now();
        }
        producer.join().unwrap();
    }

    #[test]
    fn fold_into_a_full_hub_never_parks_or_refuses() {
        for policy in [AdmissionPolicy::Block, AdmissionPolicy::ShedOldest] {
            let mut hub = IngestHub::new(IngestConfig {
                capacity: 1,
                policy,
            });
            let h = hub.handle();
            h.submit(UpdateEvent::move_object(ObjectId(4), pt(0, 0.1)))
                .unwrap();
            // The hub is full; a second report for the same entity folds.
            let (done, landed) = std::sync::mpsc::channel();
            let producer = std::thread::spawn(move || {
                done.send(h.submit(UpdateEvent::move_object(ObjectId(4), pt(1, 0.7))))
                    .unwrap();
            });
            let folded = landed.recv_timeout(std::time::Duration::from_secs(10));
            let (batch, stats) = drain(&mut hub); // releases a parked producer
            producer.join().unwrap();
            assert_eq!(folded, Ok(Ok(())), "{policy:?}: the fold parked or failed");
            assert_eq!(stats.coalesced_superseded, 1);
            assert_eq!(stats.shed_events, 0, "{policy:?}: the fold shed a window");
            assert_eq!(
                batch.objects,
                vec![ObjectEvent::Move {
                    id: ObjectId(4),
                    to: pt(1, 0.7)
                }]
            );
        }
    }

    #[test]
    fn shed_oldest_forgets_the_shed_window() {
        let mut hub = IngestHub::new(IngestConfig {
            capacity: 2,
            policy: AdmissionPolicy::ShedOldest,
        });
        let h = hub.handle();
        h.submit(UpdateEvent::move_object(ObjectId(1), pt(0, 0.1)))
            .unwrap();
        h.submit(UpdateEvent::move_object(ObjectId(1), pt(0, 0.2)))
            .unwrap();
        h.submit(UpdateEvent::move_object(ObjectId(2), pt(1, 0.5)))
            .unwrap();
        // Full: object 3 sheds object 1's window, folded report included.
        h.submit(UpdateEvent::move_object(ObjectId(3), pt(2, 0.5)))
            .unwrap();
        // Object 1's next report cannot fold into the shed window: it opens
        // a fresh one behind object 3 (shedding object 2's).
        h.submit(UpdateEvent::move_object(ObjectId(1), pt(3, 0.9)))
            .unwrap();
        let (batch, stats) = drain(&mut hub);
        assert_eq!(stats.shed_events, 2);
        assert_eq!(stats.coalesced_superseded, 1);
        assert_eq!(
            batch.objects,
            vec![
                ObjectEvent::Move {
                    id: ObjectId(3),
                    to: pt(2, 0.5)
                },
                ObjectEvent::Move {
                    id: ObjectId(1),
                    to: pt(3, 0.9)
                },
            ]
        );
    }

    /// The oracle: every raw report merged in submission order, then
    /// folded per entity with an unbounded index.
    fn reference_fold(raw: &[UpdateEvent]) -> (Vec<UpdateEvent>, u64) {
        let mut out: Vec<UpdateEvent> = Vec::new();
        let mut open: HashMap<u64, usize> = HashMap::new();
        let mut superseded = 0;
        for &event in raw {
            let key = coalesce_key(&event);
            match event {
                UpdateEvent::Object(ObjectEvent::Delete { .. })
                | UpdateEvent::Query(QueryEvent::Remove { .. }) => {
                    open.remove(&key);
                    out.push(event);
                }
                UpdateEvent::Object(ObjectEvent::Insert { .. })
                | UpdateEvent::Query(QueryEvent::Install { .. }) => {
                    open.insert(key, out.len());
                    out.push(event);
                }
                _ => match open.get(&key) {
                    Some(&at) => {
                        out[at] = match (out[at], event) {
                            (
                                UpdateEvent::Object(ObjectEvent::Insert { id, .. }),
                                UpdateEvent::Object(ObjectEvent::Move { to, .. }),
                            ) => UpdateEvent::insert_object(id, to),
                            (
                                UpdateEvent::Query(QueryEvent::Install { id, k, .. }),
                                UpdateEvent::Query(QueryEvent::Move { to, .. }),
                            ) => UpdateEvent::install_query(id, k, to),
                            _ => event,
                        };
                        superseded += 1;
                    }
                    None => {
                        open.insert(key, out.len());
                        out.push(event);
                    }
                },
            }
        }
        (out, superseded)
    }

    /// A seeded report over a few entities of every plane and kind.
    fn random_event(state: &mut u64) -> UpdateEvent {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let r = *state;
        let id = (r >> 8) as u32 % 10;
        let at = pt((r >> 16) as u32 % 50, ((r >> 24) % 1000) as f64 / 1000.0);
        match r % 16 {
            0 => UpdateEvent::insert_object(ObjectId(id), at),
            1 => UpdateEvent::delete_object(ObjectId(id)),
            2 => UpdateEvent::install_query(QueryId(id), 3, at),
            3 => UpdateEvent::remove_query(QueryId(id)),
            4..=6 => UpdateEvent::move_query(QueryId(id), at),
            7..=9 => UpdateEvent::edge(EdgeId(id), 1.0 + (r >> 40) as f64 / 1e6),
            _ => UpdateEvent::move_object(ObjectId(id), at),
        }
    }

    #[test]
    fn fold_matches_the_reference_fold_over_the_raw_stream() {
        let mut hub = IngestHub::new(IngestConfig::default());
        let mut total_superseded = 0;
        for round in 0..20u64 {
            // The log records the submission order two racing producers
            // actually took: each submits while holding it.
            let log = Arc::new(Mutex::new(Vec::new()));
            let producers: Vec<_> = (0..2u64)
                .map(|p| {
                    let (h, log) = (hub.handle(), log.clone());
                    std::thread::spawn(move || {
                        let mut state = (round * 2 + p + 1) * 0x9E37_79B9;
                        for _ in 0..200 {
                            let event = random_event(&mut state);
                            let mut log = log.lock().unwrap();
                            h.submit(event).unwrap();
                            log.push(event);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let raw = log.lock().unwrap().clone();
            let (expected, superseded) = reference_fold(&raw);
            let mut want = UpdateBatch::default();
            for &event in &expected {
                want.push(event);
            }
            let (batch, stats) = drain(&mut hub);
            assert_eq!(batch, want, "round {round}");
            assert_eq!(stats.coalesced_superseded, superseded, "round {round}");
            assert_eq!(stats.drained, expected.len() as u64);
            total_superseded += superseded;
        }
        assert!(
            total_superseded > 1000,
            "the stream must fold: {total_superseded}"
        );
    }

    #[test]
    fn steady_state_drain_is_allocation_free() {
        // More entities than the hub's initial room, so the first round
        // grows the open-window index at submit.
        let mut hub = IngestHub::new(IngestConfig::default());
        let h = hub.handle();
        let mut batch = UpdateBatch::default();
        let mut warm = 0u64;
        for round in 0..50u32 {
            for i in 0..2000u32 {
                h.submit(UpdateEvent::move_object(ObjectId(i), pt(i % 7, 0.5)))
                    .unwrap();
                h.submit(UpdateEvent::move_object(ObjectId(i), pt(i % 5, 0.25)))
                    .unwrap();
            }
            batch.clear();
            let stats = hub.drain_into(&mut batch);
            assert_eq!(stats.coalesced_superseded, 2000);
            if round < 3 {
                warm += stats.drain_alloc_events;
            } else {
                assert_eq!(
                    stats.drain_alloc_events, 0,
                    "drain must reuse capacity once warm (round {round})"
                );
            }
        }
        // The submit-side growth was counted, and the warm-up was bounded.
        assert!((1..32).contains(&warm), "warm-up allocation events: {warm}");
    }

    #[test]
    fn shedding_churn_is_not_counted_as_growth() {
        // Every report opens a window and sheds the oldest, so the index
        // loses a key per insert; at this load the rehashes that reclaim
        // those slots are frequent, and they allocate nothing.
        let mut hub = IngestHub::new(IngestConfig {
            capacity: 110,
            policy: AdmissionPolicy::ShedOldest,
        });
        let h = hub.handle();
        let mut batch = UpdateBatch::default();
        for round in 0..5u32 {
            for i in 0..2000u32 {
                let id = ObjectId(i.wrapping_mul(7919) % 5000);
                h.submit(UpdateEvent::move_object(id, pt(round, 0.5)))
                    .unwrap();
            }
            batch.clear();
            let stats = hub.drain_into(&mut batch);
            assert_eq!(stats.shed_events, 2000 - 110);
            // The first round may outgrow the initial table once.
            let most = u64::from(round == 0);
            assert!(stats.drain_alloc_events <= most, "round {round}: {stats:?}");
        }
    }
}
