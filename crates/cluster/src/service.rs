//! The shard side of the RPC layer: a [`ShardService`] owns one monitor
//! and serves the engine's delta protocol over any [`Transport`].
//!
//! The service is a **frame-fed state machine**: [`ShardService::handle`]
//! takes one decoded request frame and returns the reply bytes, if any;
//! [`ShardService::run`] is only the loop that moves frames between the
//! transport and `handle`. All retry/timeout/replay policy lives at the
//! coordinator ([`crate::client::RemoteShard`]). That split is what makes
//! there be one replay path: a respawned service is rebuilt by frames
//! arriving over the wire, a promoted follower
//! ([`crate::replica::ReplicaNode`]) by the same frames fed to `handle`
//! from its own log — the state they reach is the same because the code
//! they run is the same.
//!
//! Beyond "decode, tick, reply" `handle` owns three filters. **Fencing**:
//! frames stamped with an epoch older than the newest one seen are
//! dropped. **Duplicate suppression**: requests carry a strictly
//! increasing sequence number, and the service caches its last encoded
//! reply so a retransmitted request is answered from the cache instead
//! of being applied twice (which would corrupt monitor state); frames
//! older than the last processed sequence are dropped outright — they
//! are retransmission echoes the coordinator has already stopped waiting
//! for. Corrupt frames (checksum mismatch) never reach `handle`; the
//! coordinator's timeout drives the retransmit. **Network check**: a payload
//! that decodes is checked against the shard's network before any of it
//! reaches the monitor — every edge below the edge count, every `k` in
//! `1..=MAX_K`, every weight finite and non-negative. The checksum only
//! vouches that the bytes are the ones sent, not that the sender was
//! right, so a frame that fails is refused the way an undecodable one is:
//! an event frame earns no reply, a snapshot install `RestoreReply [0]`.

use std::path::Path;
use std::time::Duration;

use rnn_core::{ContinuousMonitor, EdgeWeightUpdate, MonitorState, ObjectEvent, QueryEvent};
use rnn_engine::{DeltaBatch, ShardTickState};
use rnn_roadnet::{NetPoint, WireCodec, WireReader};

use crate::frame::{Frame, MsgTag};
use crate::transport::{RecvError, StreamTransport, Transport};

/// How long one service poll waits before re-polling. Purely a liveness
/// knob (lets the loop notice a closed transport); correctness never
/// depends on it.
const POLL: Duration = Duration::from_millis(250);

/// The largest `k` a frame may install. A query's best-k buffer reserves
/// `k + 1` neighbours up front, so `k` sizes an allocation: 65,536 keeps
/// it near a megabyte, three orders of magnitude above Table 2's k = 50.
const MAX_K: usize = 1 << 16;

/// One shard's server: a monitor plus the shard-side half of the delta
/// protocol, driven by frames from a single coordinator connection.
pub struct ShardService<T: Transport> {
    transport: T,
    monitor: Box<dyn ContinuousMonitor>,
    /// Edge count of the monitor's network: the bound on every edge id a
    /// frame may name.
    edges: usize,
    state: ShardTickState,
    /// Highest request sequence processed, and the encoded reply frame it
    /// produced (re-sent verbatim on a duplicate).
    last: Option<(u32, Vec<u8>)>,
    /// Leadership epoch this service serves under. Frames stamped with
    /// an older epoch are fenced (dropped without a reply — the stale
    /// leader's retry budget burns out instead of its writes merging);
    /// newer epochs are adopted. Services start at 0, which accepts
    /// everything.
    epoch: u32,
    /// Set by an accepted [`MsgTag::Shutdown`]; ends [`Self::run`].
    shutdown: bool,
}

impl<T: Transport> ShardService<T> {
    /// Wraps `monitor`, which runs over a network of `edges` edges,
    /// behind `transport`.
    pub fn new(transport: T, monitor: Box<dyn ContinuousMonitor>, edges: usize) -> Self {
        Self {
            transport,
            monitor,
            edges,
            state: ShardTickState::new(),
            last: None,
            epoch: 0,
            shutdown: false,
        }
    }

    /// Serves requests until a shutdown frame arrives or the transport
    /// reports the coordinator gone.
    pub fn run(mut self) {
        while !self.shutdown {
            let bytes = match self.transport.recv_timeout(POLL) {
                Ok(bytes) => bytes,
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Closed) | Err(RecvError::Io) => return,
            };
            // Undecodable frames (corruption, truncation) are dropped;
            // the coordinator's timeout handles recovery.
            let Ok(frame) = Frame::from_bytes(&bytes) else {
                continue;
            };
            if let Some(reply) = self.handle(frame) {
                let _ = self.transport.send(&reply);
            }
        }
    }

    /// The transport this service answers on (a promoted replica acks
    /// its promotion on it before the service starts serving).
    pub(crate) fn transport(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Feeds one request frame to the shard: fence, dedup, process,
    /// cache the reply. Returns the encoded reply frame to send back —
    /// freshly produced, or the cached one for a retransmitted request —
    /// or `None` when the frame earns no reply (fenced, stale,
    /// undecodable payload, not a request, or a shutdown).
    pub fn handle(&mut self, frame: Frame) -> Option<Vec<u8>> {
        if frame.epoch < self.epoch {
            // Fencing: a stale leader's frame is dropped without a
            // reply; its timeout-driven retries exhaust against
            // silence instead of merging stale writes.
            return None;
        }
        self.epoch = frame.epoch;
        match &self.last {
            // Retransmitted request: resend the cached reply, do NOT
            // reprocess (ticks are not idempotent).
            Some((seq, reply)) if frame.seq == *seq => return Some(reply.clone()),
            Some((seq, _)) if frame.seq < *seq => return None, // stale echo
            _ => {}
        }
        let (tag, payload) = self.process(&frame)?;
        let reply = Frame {
            tag,
            seq: frame.seq,
            epoch: self.epoch,
            payload,
        }
        .to_bytes();
        self.last = Some((frame.seq, reply.clone()));
        Some(reply)
    }

    /// Executes one fresh request: the reply's tag and payload, or
    /// `None` for a frame that is ignored entirely (the coordinator's
    /// timeout owns recovery) or that stops the service.
    fn process(&mut self, frame: &Frame) -> Option<(MsgTag, Vec<u8>)> {
        let mut payload = Vec::new();
        let tag = match frame.tag {
            MsgTag::TickEvents | MsgTag::ResyncEvents | MsgTag::MigrationEvents => {
                let mut r = WireReader::new(&frame.payload);
                // The checksum vouched for these bytes, so a failure here
                // is a codec-version mismatch rather than line noise —
                // but either way the shard must not die on a frame: drop
                // it and let the coordinator's timeout retransmit.
                let delta = DeltaBatch::decode(&mut r).ok()?;
                if !self.batch_fits(&delta) {
                    return None;
                }
                let outcome = self.state.run_tick(&mut *self.monitor, delta);
                outcome.encode(&mut payload);
                MsgTag::TickReply
            }
            MsgTag::MemoryRequest => {
                self.monitor.memory().encode(&mut payload);
                MsgTag::MemoryReply
            }
            MsgTag::SnapshotRequest => {
                // An empty payload tells the coordinator this monitor
                // cannot snapshot; it then disables the cycle.
                if let Some(state) = self.monitor.snapshot_state() {
                    payload = state.to_bytes();
                }
                MsgTag::SnapshotReply
            }
            MsgTag::SnapshotInstall => {
                let ok = match MonitorState::from_bytes(&frame.payload) {
                    // The monitor is all there is to restore: replies
                    // ship the monitor's own change list, so the first
                    // post-restore reply is what an uncrashed shard's
                    // would have been.
                    Ok(state) if self.state_fits(&state) => {
                        state.restore_into(&mut *self.monitor).is_ok()
                    }
                    _ => false,
                };
                payload.push(u8::from(ok));
                MsgTag::RestoreReply
            }
            MsgTag::Shutdown => {
                self.shutdown = true;
                return None;
            }
            // A reply tag arriving at the service is a stray echo of our
            // own output; replication-role frames belong to a
            // `ReplicaNode`, not a serving shard. Drop both kinds.
            MsgTag::TickReply
            | MsgTag::MemoryReply
            | MsgTag::SnapshotReply
            | MsgTag::RestoreReply
            | MsgTag::Append
            | MsgTag::AppendAck
            | MsgTag::Promote
            | MsgTag::SnapshotOffer => return None,
        };
        Some((tag, payload))
    }

    /// Whether every event of a decoded batch fits the network (see the
    /// module docs' network check).
    fn batch_fits(&self, batch: &DeltaBatch) -> bool {
        batch.objects.iter().all(|event| match *event {
            ObjectEvent::Insert { at, .. } | ObjectEvent::Move { to: at, .. } => self.on_net(at),
            ObjectEvent::Delete { .. } => true,
        }) && batch.queries.iter().all(|event| match *event {
            QueryEvent::Install { k, at, .. } => self.query_fits(k, at),
            QueryEvent::Move { to, .. } => self.on_net(to),
            QueryEvent::Remove { .. } => true,
        }) && batch.shared_edges.iter().all(|u| self.weight_fits(u))
    }

    /// Whether a decoded snapshot fits the network.
    fn state_fits(&self, state: &MonitorState) -> bool {
        state.weight_diffs.iter().all(|u| self.weight_fits(u))
            && state.objects.iter().all(|&(_, at)| self.on_net(at))
            && state.queries.iter().all(|q| self.query_fits(q.k, q.pos))
    }

    fn on_net(&self, at: NetPoint) -> bool {
        at.edge.index() < self.edges
    }

    fn query_fits(&self, k: usize, at: NetPoint) -> bool {
        (1..=MAX_K).contains(&k) && self.on_net(at)
    }

    fn weight_fits(&self, u: &EdgeWeightUpdate) -> bool {
        u.edge.index() < self.edges && u.new_weight.is_finite() && u.new_weight >= 0.0
    }
}

/// Binds `path`, accepts exactly one coordinator connection, and serves
/// `monitor` (over a network of `edges` edges) on it until shutdown. This
/// is the entry point a shard *process* calls (see
/// `examples/cluster_city.rs`).
pub fn serve_unix(
    path: &Path,
    monitor: Box<dyn ContinuousMonitor>,
    edges: usize,
) -> std::io::Result<()> {
    let (stream, _) = std::os::unix::net::UnixListener::bind(path)?.accept()?;
    ShardService::new(StreamTransport::new(stream), monitor, edges).run();
    Ok(())
}

/// Like [`serve_unix`] over TCP: binds `addr`, accepts one coordinator,
/// serves until shutdown.
pub fn serve_tcp(
    addr: std::net::SocketAddr,
    monitor: Box<dyn ContinuousMonitor>,
    edges: usize,
) -> std::io::Result<()> {
    let (stream, _) = std::net::TcpListener::bind(addr)?.accept()?;
    ShardService::new(StreamTransport::new(stream), monitor, edges).run();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, FaultPlan};
    use rnn_core::{Gma, UpdateBatch};
    use rnn_engine::{BatchKind, TickOutcome};
    use rnn_roadnet::{generators, EdgeId, ObjectId, QueryId, RoadNetwork};
    use std::sync::Arc;

    fn net() -> Arc<RoadNetwork> {
        Arc::new(generators::grid_city(&generators::GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 4,
            ..Default::default()
        }))
    }

    fn events(
        seq: u32,
        objects: Vec<ObjectEvent>,
        queries: Vec<QueryEvent>,
        edges: Vec<EdgeWeightUpdate>,
    ) -> Frame {
        let mut payload = Vec::new();
        DeltaBatch {
            objects,
            queries,
            shared_edges: Arc::new(edges),
            kind: BatchKind::Tick,
        }
        .encode(&mut payload);
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload,
        }
    }

    /// A frame's bytes with the one wall-clock field a tick reply
    /// carries (`TickReport::elapsed`) zeroed; everything else must
    /// match byte for byte.
    fn without_elapsed(reply: &[u8]) -> Vec<u8> {
        let mut frame = Frame::from_bytes(reply).unwrap();
        if frame.tag == MsgTag::TickReply {
            let mut outcome = TickOutcome::decode(&mut WireReader::new(&frame.payload)).unwrap();
            outcome.report.elapsed = Duration::ZERO;
            frame.payload.clear();
            outcome.encode(&mut frame.payload);
        }
        frame.to_bytes()
    }

    #[test]
    fn frames_fed_to_handle_rebuild_the_same_shard_as_frames_over_the_wire() {
        let net = net();
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        // A live shard: a history, a snapshot request, then a suffix.
        let history = vec![
            events(
                0,
                (0..20u32)
                    .map(|o| ObjectEvent::Insert {
                        id: ObjectId(o),
                        at: at(o * 3 % 60, 0.3),
                    })
                    .collect(),
                (0..4u32)
                    .map(|q| QueryEvent::Install {
                        id: QueryId(q),
                        k: 3,
                        at: at(q * 11, 0.6),
                    })
                    .collect(),
                vec![],
            ),
            events(
                1,
                vec![ObjectEvent::Move {
                    id: ObjectId(2),
                    to: at(33, 0.5),
                }],
                vec![QueryEvent::Move {
                    id: QueryId(1),
                    to: at(34, 0.1),
                }],
                vec![EdgeWeightUpdate {
                    edge: EdgeId(12),
                    new_weight: 3.5,
                }],
            ),
        ];
        let suffix = vec![
            events(
                3,
                vec![ObjectEvent::Move {
                    id: ObjectId(7),
                    to: at(1, 0.9),
                }],
                vec![],
                vec![EdgeWeightUpdate {
                    edge: EdgeId(30),
                    new_weight: 0.5,
                }],
            ),
            events(
                4,
                vec![ObjectEvent::Delete { id: ObjectId(3) }],
                vec![QueryEvent::Move {
                    id: QueryId(0),
                    to: at(20, 0.2),
                }],
                vec![],
            ),
        ];
        let (_idle, peer) = loopback_pair(FaultPlan::default());
        let edges = net.num_edges();
        let mut live = ShardService::new(peer, Box::new(Gma::new(net.clone())), edges);
        for frame in history {
            live.handle(frame).expect("event frames are answered");
        }
        let state = live
            .handle(Frame {
                tag: MsgTag::SnapshotRequest,
                seq: 2,
                epoch: 0,
                payload: Vec::new(),
            })
            .map(|reply| Frame::from_bytes(&reply).unwrap().payload)
            .expect("Gma snapshots");
        // What both rebuilds are fed: the install (carrying the covered
        // sequence number) and the suffix.
        let mut feed = vec![Frame {
            tag: MsgTag::SnapshotInstall,
            seq: 1,
            epoch: 0,
            payload: state,
        }];
        feed.extend(suffix);

        // Promotion's way: a service built locally, frames handed to it.
        let (_idle, peer) = loopback_pair(FaultPlan::default());
        let mut local = ShardService::new(peer, Box::new(Gma::new(net.clone())), edges);
        let fed: Vec<Vec<u8>> = feed
            .iter()
            .map(|frame| {
                local
                    .handle(frame.clone())
                    .expect("every fed frame is answered")
            })
            .collect();

        // Respawn-rebuild's way: a service behind a transport.
        let (mut co, peer) = loopback_pair(FaultPlan::default());
        let served = std::thread::spawn(move || {
            ShardService::new(peer, Box::new(Gma::new(net)), edges).run();
        });
        let wired: Vec<Vec<u8>> = feed
            .iter()
            .map(|frame| {
                co.send(&frame.to_bytes()).unwrap();
                co.recv_timeout(Duration::from_secs(5)).unwrap()
            })
            .collect();
        drop(co);
        served.join().unwrap();

        assert_eq!(Frame::from_bytes(&fed[0]).unwrap().payload, [1]);
        assert_eq!(fed.len(), wired.len());
        for (a, b) in fed.iter().zip(&wired) {
            assert_eq!(without_elapsed(a), without_elapsed(b));
        }
        // And the rebuilt shard goes on answering like the one that never
        // died: the same next frame ships the same results (its work
        // counters are held to `restore_stable()` only — the trees were
        // recomputed).
        let next = events(
            5,
            vec![],
            vec![QueryEvent::Move {
                id: QueryId(2),
                to: at(40, 0.4),
            }],
            vec![],
        );
        for frame in &feed[1..] {
            live.handle(frame.clone());
        }
        let shipped = |service: &mut ShardService<_>| {
            let reply = Frame::from_bytes(&service.handle(next.clone()).unwrap()).unwrap();
            let outcome = TickOutcome::decode(&mut WireReader::new(&reply.payload)).unwrap();
            (outcome.snapshots, outcome.report.counters.restore_stable())
        };
        assert_eq!(shipped(&mut live), shipped(&mut local));
    }

    #[test]
    fn a_snapshot_install_that_repeats_an_id_is_answered_and_the_service_lives() {
        // A well-formed `MonitorState` naming a query (or an object) twice
        // used to panic `Ima` / `Gma` inside `restore_into` and take the
        // shard down with them. It is folded like any batch: the reply
        // says restored or refused, and the next frame is served.
        let net = net();
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        type Make = fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>;
        let makes: [Make; 3] = [
            |n| Box::new(rnn_core::Ovh::new(n)),
            |n| Box::new(rnn_core::Ima::new(n)),
            |n| Box::new(Gma::new(n)),
        ];
        for make in makes {
            let mut donor = make(net.clone());
            rnn_core::load_population(
                donor.as_mut(),
                (0..20u32).map(|o| (ObjectId(o), at(o * 3 % 60, 0.3))),
                (0..4u32).map(|q| (QueryId(q), 3, at(q * 11, 0.6))),
            );
            let state = donor.snapshot_state().expect("monitor snapshots");
            let mut twice_the_query = state.clone();
            let mut again = state.queries[1].clone();
            again.pos = at(50, 0.5);
            twice_the_query.queries.push(again);
            let mut twice_the_object = state.clone();
            twice_the_object.objects.push((ObjectId(3), at(51, 0.5)));

            for hostile in [twice_the_query, twice_the_object] {
                let (_idle, peer) = loopback_pair(FaultPlan::default());
                let mut service = ShardService::new(peer, make(net.clone()), net.num_edges());
                let reply = service
                    .handle(Frame {
                        tag: MsgTag::SnapshotInstall,
                        seq: 0,
                        epoch: 0,
                        payload: hostile.to_bytes(),
                    })
                    .expect("an install is answered");
                let reply = Frame::from_bytes(&reply).unwrap();
                assert_eq!(reply.tag, MsgTag::RestoreReply);
                assert!(matches!(reply.payload[..], [0] | [1]), "{}", donor.name());
                let next = events(
                    1,
                    vec![ObjectEvent::Delete { id: ObjectId(5) }],
                    vec![],
                    vec![],
                );
                let reply = service.handle(next).expect("the service still serves");
                assert_eq!(Frame::from_bytes(&reply).unwrap().tag, MsgTag::TickReply);
            }
        }
    }

    #[test]
    fn a_checksum_valid_frame_that_does_not_fit_the_network_is_refused() {
        // Each mutation decodes and travels under a valid checksum, but
        // names an edge past the network, a k outside 1..=MAX_K or a
        // weight that is not a finite non-negative number. The shard must
        // refuse it — no reply to an event frame, `RestoreReply [0]` to an
        // install — and answer the next frames exactly like a twin that
        // never saw it.
        let net = net();
        let edges = net.num_edges();
        let beyond = EdgeId(edges as u32);
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        let weight = |edge, new_weight| EdgeWeightUpdate { edge, new_weight };
        let serve = || {
            let (_idle, peer) = loopback_pair(FaultPlan::default());
            ShardService::new(peer, Box::new(Gma::new(net.clone())), edges)
        };
        let objects = || (0..20u32).map(|o| (ObjectId(o), at(o * 3 % 60, 0.3)));
        let queries = || (0..4u32).map(|q| (QueryId(q), 3, at(q * 11, 0.6)));
        let population = events(
            0,
            objects()
                .map(|(id, at)| ObjectEvent::Insert { id, at })
                .collect(),
            queries()
                .map(|(id, k, at)| QueryEvent::Install { id, k, at })
                .collect(),
            vec![],
        );
        let next = events(
            2,
            vec![ObjectEvent::Move {
                id: ObjectId(2),
                to: at(33, 0.5),
            }],
            vec![QueryEvent::Move {
                id: QueryId(1),
                to: at(34, 0.1),
            }],
            vec![weight(EdgeId(12), 3.5)],
        );
        let object = |event| events(1, vec![event], vec![], vec![]);
        let query = |event| events(1, vec![], vec![event], vec![]);
        let edge = |update| events(1, vec![], vec![], vec![update]);
        let install = |id, k, at| QueryEvent::Install { id, k, at };
        let event_cases = [
            (
                "object insert past the network",
                object(ObjectEvent::Insert {
                    id: ObjectId(50),
                    at: NetPoint::new(beyond, 0.5),
                }),
            ),
            (
                "object move past the network",
                object(ObjectEvent::Move {
                    id: ObjectId(3),
                    to: NetPoint::new(EdgeId(u32::MAX), 0.5),
                }),
            ),
            (
                "query install past the network",
                query(install(QueryId(9), 3, NetPoint::new(beyond, 0.5))),
            ),
            (
                "query move past the network",
                query(QueryEvent::Move {
                    id: QueryId(1),
                    to: NetPoint::new(beyond, 0.1),
                }),
            ),
            ("k = 0", query(install(QueryId(9), 0, at(5, 0.5)))),
            (
                "k = MAX_K + 1",
                query(install(QueryId(9), MAX_K + 1, at(5, 0.5))),
            ),
            (
                "k = usize::MAX",
                query(install(QueryId(9), usize::MAX, at(5, 0.5))),
            ),
            ("weight past the network", edge(weight(beyond, 1.0))),
            ("NaN weight", edge(weight(EdgeId(12), f64::NAN))),
            ("infinite weight", edge(weight(EdgeId(12), f64::INFINITY))),
            ("negative weight", edge(weight(EdgeId(12), -1.0))),
        ];
        for (what, hostile) in event_cases {
            let (mut live, mut twin) = (serve(), serve());
            for service in [&mut live, &mut twin] {
                service
                    .handle(population.clone())
                    .expect("population answered");
            }
            assert_eq!(
                live.handle(hostile),
                None,
                "{what}: refused without a reply"
            );
            let shipped = |service: &mut ShardService<_>| {
                without_elapsed(&service.handle(next.clone()).expect("next answered"))
            };
            assert_eq!(shipped(&mut live), shipped(&mut twin), "{what}");
        }

        let mut donor = Gma::new(net.clone());
        rnn_core::load_population(&mut donor, objects(), queries());
        donor.tick(&UpdateBatch {
            edges: vec![weight(EdgeId(12), 3.5)],
            ..UpdateBatch::default()
        });
        let state = donor.snapshot_state().expect("Gma snapshots");
        let mutated = |mutate: &dyn Fn(&mut MonitorState)| {
            let mut hostile = state.clone();
            mutate(&mut hostile);
            hostile
        };
        let install_cases = [
            (
                "weight past the network",
                mutated(&|s| s.weight_diffs.push(weight(beyond, 1.0))),
            ),
            (
                "NaN weight",
                mutated(&|s| s.weight_diffs[0].new_weight = f64::NAN),
            ),
            (
                "negative weight",
                mutated(&|s| s.weight_diffs[0].new_weight = -2.0),
            ),
            (
                "object past the network",
                mutated(&|s| s.objects[0].1 = NetPoint::new(beyond, 0.5)),
            ),
            (
                "query past the network",
                mutated(&|s| s.queries[0].pos = NetPoint::new(beyond, 0.5)),
            ),
            ("k = 0", mutated(&|s| s.queries[0].k = 0)),
            ("k = usize::MAX", mutated(&|s| s.queries[0].k = usize::MAX)),
        ];
        let install_frame = |seq, state: &MonitorState| Frame {
            tag: MsgTag::SnapshotInstall,
            seq,
            epoch: 0,
            payload: state.to_bytes(),
        };
        for (what, hostile) in install_cases {
            let (mut live, mut twin) = (serve(), serve());
            let refused = live
                .handle(install_frame(0, &hostile))
                .expect("an install is answered");
            let refused = Frame::from_bytes(&refused).unwrap();
            assert_eq!(refused.tag, MsgTag::RestoreReply, "{what}");
            assert_eq!(refused.payload, [0], "{what}: refused");
            for frame in [install_frame(1, &state), next.clone()] {
                let a = live.handle(frame.clone()).expect("answered");
                let b = twin.handle(frame).expect("answered");
                assert_eq!(without_elapsed(&a), without_elapsed(&b), "{what}");
            }
        }
    }
}
