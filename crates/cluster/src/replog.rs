//! The leader side of the per-shard replicated journal.
//!
//! Each shard's coordinator link acts as the **leader** of that shard's
//! event log: every routed event frame is streamed verbatim to F
//! follower replicas ([`crate::replica::ReplicaNode`]) as
//! [`MsgTag::Append`] frames before it is dispatched to the shard
//! monitor, and the event only *commits* — becomes eligible for WAL
//! truncation and for feeding the monitor — once every follower still
//! live has acked it. A log with no followers is an unreplicated link:
//! every append commits at once and every frame stays at epoch 0.
//!
//! # Epochs and fencing
//!
//! Every frame a leader sends carries its leadership **epoch** (a
//! monotone term, stored in the leader's own [`ShardLog`] through
//! [`ShardLog::store_epoch`]). Replicas remember the highest epoch
//! they have seen and answer any frame from an older epoch with a
//! FENCED ack instead of applying it, so a partitioned stale leader's
//! appends are rejected, never silently merged. Promotion bumps the
//! epoch first, which is what turns the old leader stale.
//!
//! # Failure handling
//!
//! The append is both the commit rule and the failure detector. It is
//! synchronous: the leader waits for the ack of every live follower, so
//! any live follower always holds the complete committed prefix and is
//! safe to promote. A follower that misses its ack timeout or closes is
//! dead from then on, and appends, snapshot offers and promotion skip
//! it. A follower that dies between appends is found by the next one.
//! Once *every* follower is dead the log degrades to unreplicated
//! operation (availability over redundancy — the engine's planner
//! takeover remains the last-resort path): losing followers degrades the
//! redundancy guarantee, not the shard's availability.
//!
//! # Follower log size
//!
//! A follower truncates its log behind each snapshot it is offered, so
//! its memory is what the leader's offer cadence makes it. The leader
//! offers every snapshot it installs, and the log also tracks the bytes
//! of the event frames replicated since the last offer: once they weigh
//! `FOLLOWER_LOG_STATES` times that offer's snapshot,
//! [`ReplicatedLog::offer_due`] asks the link for a fresh capture. A
//! follower therefore holds at most one snapshot plus about that many
//! states' worth of frames — O(state), not O(ticks × update rate).

use std::ops::ControlFlow;
use std::time::Duration;

use rnn_core::TransportStats;
use rnn_roadnet::wire::put_u32;

use crate::error::ClusterError;
use crate::frame::{Frame, MsgTag, ACK_FENCED, ACK_OK};
use crate::log::ShardLog;
use crate::transport::{RecvError, Transport};

/// Promotion replay boundary meaning "replay the entire replica log"
/// (no request was in flight when the leader died).
pub const REPLAY_ALL: u32 = u32::MAX;

/// How many snapshots' worth of event frames a follower may hold before
/// it is offered a fresh snapshot (see the module docs).
const FOLLOWER_LOG_STATES: u64 = 4;

/// What one ack drain produced.
enum Ack {
    /// The replica accepted the frame.
    Ok,
    /// The replica is at a newer epoch and rejected the frame.
    Fenced { newer: u32 },
    /// The replica timed out or closed; it is dead to this leader.
    Dead,
}

struct Follower {
    transport: Box<dyn Transport>,
    alive: bool,
}

/// The leader-side state of one shard's replicated journal: the
/// follower transports, the current epoch, and the commit index.
pub struct ReplicatedLog {
    shard: usize,
    followers: Vec<Follower>,
    ack_timeout: Duration,
    epoch: u32,
    /// Highest committed sequence number.
    commit_seq: Option<u32>,
    /// Bytes of the event frames replicated since the last offer.
    since_offer: u64,
    /// Size of the last offered snapshot; `None` before the first offer.
    offered: Option<u64>,
}

impl ReplicatedLog {
    /// A leader over `replicas` follower transports (none for an
    /// unreplicated link), starting at term `epoch`.
    pub fn new(shard: usize, replicas: Vec<Box<dyn Transport>>, epoch: u32) -> Self {
        Self {
            shard,
            followers: replicas
                .into_iter()
                .map(|transport| Follower {
                    transport,
                    alive: true,
                })
                .collect(),
            ack_timeout: Duration::from_secs(1),
            epoch,
            commit_seq: None,
            since_offer: 0,
            offered: None,
        }
    }

    /// Overrides the per-ack wait (defaults to 1 s — the same order as
    /// [`crate::client::RetryPolicy`]'s reply timeout).
    pub fn with_ack_timeout(mut self, timeout: Duration) -> Self {
        self.ack_timeout = timeout;
        self
    }

    /// The current leadership epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Resumes the term a previous leader of this shard stored, so that
    /// leader's stale appends stay fenced. A log without followers has
    /// nobody to fence and keeps its epoch.
    pub(crate) fn resume_epoch(&mut self, stored: u32) {
        if !self.followers.is_empty() {
            self.epoch = self.epoch.max(stored);
        }
    }

    /// Highest committed sequence number, if any event committed.
    pub fn commit_seq(&self) -> Option<u32> {
        self.commit_seq
    }

    /// Followers still considered alive.
    pub fn live_followers(&self) -> usize {
        self.followers.iter().filter(|f| f.alive).count()
    }

    /// Whether the followers' logs have outgrown their last snapshot:
    /// the event frames replicated since the last offer weigh
    /// `FOLLOWER_LOG_STATES` times that offer's snapshot. Never before
    /// the first offer (there is no size to compare with) nor without a
    /// live follower.
    pub fn offer_due(&self) -> bool {
        self.live_followers() > 0
            && self
                .offered
                .is_some_and(|size| self.since_offer >= FOLLOWER_LOG_STATES * size)
    }

    /// Sends `frame` to each live follower in turn and waits out its ack
    /// for `seq` — the one send → ack loop every replication request
    /// runs. A follower that cannot be sent to, times out, or closes is
    /// marked dead and skipped from then on; a fenced ack is counted.
    /// `on_ack` sees every ack of a follower the frame reached, with
    /// that follower's index, and may stop the round early.
    fn broadcast<B>(
        &mut self,
        frame: &[u8],
        seq: u32,
        timeout: Duration,
        stats: &mut TransportStats,
        mut on_ack: impl FnMut(&mut TransportStats, usize, Ack) -> ControlFlow<B>,
    ) -> Option<B> {
        for (idx, follower) in self.followers.iter_mut().enumerate() {
            if !follower.alive {
                continue;
            }
            if follower.transport.send(frame).is_err() {
                follower.alive = false;
                continue;
            }
            stats.replica_bytes += frame.len() as u64;
            let ack = drain_ack(&mut follower.transport, seq, timeout);
            match ack {
                Ack::Ok => {}
                Ack::Fenced { .. } => stats.fenced_appends += 1,
                Ack::Dead => follower.alive = false,
            }
            if let ControlFlow::Break(stop) = on_ack(stats, idx, ack) {
                return Some(stop);
            }
        }
        None
    }

    /// Replicates one journaled event frame (`event_frame` is the exact
    /// wire byte string sent to the shard) and waits until it commits:
    /// every live follower is sent an [`MsgTag::Append`] and drained
    /// for its ack, and the frame commits once each of them has acked or
    /// been marked dead — with no live follower, at once. Fencing is
    /// fatal ([`ClusterError::Fenced`]).
    pub fn append(
        &mut self,
        seq: u32,
        event_frame: &[u8],
        stats: &mut TransportStats,
    ) -> Result<(), ClusterError> {
        // With no live follower — unreplicated, or degraded to it
        // (planner takeover is the net) — the frame commits at once, so
        // WAL truncation never waits on followers that do not exist.
        if self.live_followers() > 0 {
            let frame = Frame::encode(MsgTag::Append, seq, self.epoch, event_frame);
            self.since_offer += event_frame.len() as u64;
            // Appends are synchronous, so this counts replicated frames
            // (it is not a lag) and its per-tick rate is a deterministic
            // gate metric.
            stats.commit_lag_frames += 1;
            let fenced = self.broadcast(&frame, seq, self.ack_timeout, stats, |stats, _, ack| {
                stats.replica_appends += 1;
                match ack {
                    Ack::Fenced { newer } => ControlFlow::Break(newer),
                    Ack::Ok | Ack::Dead => ControlFlow::Continue(()),
                }
            });
            if let Some(newer) = fenced {
                return Err(ClusterError::Fenced {
                    shard: self.shard,
                    epoch: self.epoch,
                    newer,
                });
            }
        }
        self.commit_seq = Some(seq);
        Ok(())
    }

    /// Hands every live follower a snapshot of the shard's state up to
    /// `covered_seq` so it can truncate its own log behind it — the
    /// link's latest durable snapshot, or a capture made only for the
    /// followers because [`Self::offer_due`] said so. Either way the
    /// offer restarts the byte count behind `offer_due`. Strictly
    /// best-effort: failures mark followers dead (or count a fence) and
    /// the caller's next append owns any typed error. With no live
    /// follower the snapshot is neither copied nor framed.
    pub fn offer_snapshot(
        &mut self,
        covered_seq: u32,
        snapshot_payload: &[u8],
        stats: &mut TransportStats,
    ) {
        if self.live_followers() == 0 {
            return;
        }
        self.since_offer = 0;
        self.offered = Some(snapshot_payload.len() as u64);
        let mut payload = Vec::with_capacity(4 + snapshot_payload.len());
        put_u32(&mut payload, covered_seq);
        payload.extend_from_slice(snapshot_payload);
        let frame = Frame {
            tag: MsgTag::SnapshotOffer,
            seq: covered_seq,
            epoch: self.epoch,
            payload,
        }
        .to_bytes();
        self.broadcast(&frame, covered_seq, self.ack_timeout, stats, |_, _, _| {
            ControlFlow::<()>::Continue(())
        });
    }

    /// Promotes a live follower to serving leader: bumps the epoch —
    /// fencing the old term — and stores it in `log`, then sends the follower a
    /// [`MsgTag::Promote`] carrying `boundary` (the first sequence it
    /// must *not* replay from its own log, [`REPLAY_ALL`] for none) and
    /// waits for its ack, after which the follower has installed its
    /// held snapshot, replayed its committed suffix, and become a
    /// serving [`crate::service::ShardService`]. On success the
    /// follower's transport is removed from the replica set and
    /// returned for the link to adopt as its shard transport. With no
    /// live follower it fails at once and the epoch stays where it is.
    pub fn promote(
        &mut self,
        boundary: u32,
        log: &mut ShardLog,
        stats: &mut TransportStats,
    ) -> Result<Box<dyn Transport>, ClusterError> {
        if self.live_followers() == 0 {
            return Err(ClusterError::FailoverFailed { shard: self.shard });
        }
        self.epoch += 1;
        // Degraded durability on failure: the in-memory epoch still
        // fences this process; only a restart could regress it.
        let _ = log.store_epoch(self.epoch);
        let mut payload = Vec::with_capacity(4);
        put_u32(&mut payload, boundary);
        let frame = Frame {
            tag: MsgTag::Promote,
            seq: boundary,
            epoch: self.epoch,
            payload,
        }
        .to_bytes();
        // Promotion includes a local snapshot install and suffix
        // replay on the follower; give it a generous multiple of the
        // per-ack wait.
        let timeout = self.ack_timeout.saturating_mul(8);
        // Followers are tried in order until one accepts (a refusal
        // reads as a dead follower) or one reports a newer term.
        let verdict = self.broadcast(&frame, boundary, timeout, stats, |_, idx, ack| match ack {
            Ack::Ok => ControlFlow::Break(Ok(idx)),
            Ack::Fenced { newer } => ControlFlow::Break(Err(newer)),
            Ack::Dead => ControlFlow::Continue(()),
        });
        match verdict {
            Some(Ok(idx)) => {
                stats.failovers += 1;
                // `idx` came from enumerating `followers`, so it is in
                // bounds; the promoted follower leaves the replica set.
                Ok(self.followers.remove(idx).transport)
            }
            Some(Err(newer)) => Err(ClusterError::Fenced {
                shard: self.shard,
                epoch: self.epoch,
                newer,
            }),
            None => Err(ClusterError::FailoverFailed { shard: self.shard }),
        }
    }
}

/// Waits out one [`MsgTag::AppendAck`] matching `seq` on `transport`.
/// Stale acks (duplicated frames produce duplicate acks) are skipped;
/// undecodable frames are skipped (the checksum already vouched against
/// line noise, so they can only be foreign traffic); a timeout or a
/// closed transport reports the follower dead.
fn drain_ack(transport: &mut Box<dyn Transport>, seq: u32, timeout: Duration) -> Ack {
    loop {
        match transport.recv_timeout(timeout) {
            Ok(bytes) => {
                let Ok(frame) = Frame::from_bytes(&bytes) else {
                    continue;
                };
                if frame.tag != MsgTag::AppendAck || frame.seq != seq {
                    continue; // stale echo of an earlier (duplicated) ack
                }
                return match frame.payload.first() {
                    Some(&ACK_OK) => Ack::Ok,
                    Some(&ACK_FENCED) => Ack::Fenced { newer: frame.epoch },
                    _ => Ack::Dead, // malformed ack: treat as a dead follower
                };
            }
            Err(RecvError::Timeout) | Err(RecvError::Closed) | Err(RecvError::Io) => {
                return Ack::Dead
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, FaultPlan, LoopbackPeer};
    use std::time::Duration;

    /// A hand-driven follower for unit tests: acks every append with
    /// the given status and records what it saw.
    fn ack_thread(mut peer: LoopbackPeer, my_epoch: u32) -> std::thread::JoinHandle<Vec<u32>> {
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(bytes) = peer.recv_timeout(Duration::from_secs(2)) {
                let Ok(frame) = Frame::from_bytes(&bytes) else {
                    continue;
                };
                seen.push(frame.seq);
                let status = if frame.epoch < my_epoch {
                    ACK_FENCED
                } else {
                    ACK_OK
                };
                let ack = Frame {
                    tag: MsgTag::AppendAck,
                    seq: frame.seq,
                    epoch: my_epoch.max(frame.epoch),
                    payload: vec![status],
                }
                .to_bytes();
                let _ = peer.send(&ack);
            }
            seen
        })
    }

    fn event(seq: u32) -> Vec<u8> {
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload: vec![seq as u8; 9],
        }
        .to_bytes()
    }

    #[test]
    fn append_commits_once_every_live_follower_acks() {
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        let (co_b, peer_b) = loopback_pair(FaultPlan::default());
        let a = ack_thread(peer_a, 0);
        let b = ack_thread(peer_b, 0);
        let mut log = ReplicatedLog::new(3, vec![Box::new(co_a), Box::new(co_b)], 1);
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        log.append(1, &event(1), &mut stats).unwrap();
        assert_eq!(log.commit_seq(), Some(1));
        assert_eq!(stats.replica_appends, 4, "2 events x 2 followers");
        assert_eq!(stats.commit_lag_frames, 2);
        assert_eq!(stats.fenced_appends, 0);
        drop(log); // closes the transports; ack threads exit
        assert_eq!(a.join().unwrap(), vec![0, 1]);
        assert_eq!(b.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn dead_follower_is_marked_and_skipped_not_fatal() {
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        let (co_b, peer_b) = loopback_pair(FaultPlan::default());
        let a = ack_thread(peer_a, 0);
        drop(peer_b); // follower b is dead from the start
        let mut log = ReplicatedLog::new(0, vec![Box::new(co_a), Box::new(co_b)], 1)
            .with_ack_timeout(Duration::from_millis(50));
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        assert_eq!(log.live_followers(), 1);
        // The dead follower no longer holds the commit back.
        assert_eq!(log.commit_seq(), Some(0));
        log.append(1, &event(1), &mut stats).unwrap();
        assert_eq!(log.commit_seq(), Some(1));
        drop(log);
        assert_eq!(a.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn stale_leader_appends_are_fenced() {
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        let a = ack_thread(peer_a, 5); // replica already at epoch 5
        let mut log = ReplicatedLog::new(1, vec![Box::new(co_a)], 3);
        let mut stats = TransportStats::default();
        let err = log.append(0, &event(0), &mut stats).unwrap_err();
        assert_eq!(
            err,
            ClusterError::Fenced {
                shard: 1,
                epoch: 3,
                newer: 5
            }
        );
        assert_eq!(stats.fenced_appends, 1);
        assert_eq!(log.commit_seq(), None, "a fenced append never commits");
        drop(log);
        a.join().unwrap();
    }

    #[test]
    fn all_followers_dead_degrades_to_unreplicated() {
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        drop(peer_a);
        let mut log = ReplicatedLog::new(0, vec![Box::new(co_a)], 1)
            .with_ack_timeout(Duration::from_millis(50));
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        assert_eq!(log.live_followers(), 0);
        // Degraded mode: appends are accepted without replication.
        log.append(1, &event(1), &mut stats).unwrap();
        let Err(err) = log.promote(REPLAY_ALL, &mut ShardLog::volatile(), &mut stats) else {
            panic!("promotion with zero live followers must fail");
        };
        assert_eq!(err, ClusterError::FailoverFailed { shard: 0 });
        assert_eq!(log.epoch(), 1, "nobody to promote: the term stays");
    }

    #[test]
    fn a_log_without_followers_commits_at_once_and_sends_nothing() {
        let mut log = ReplicatedLog::new(2, Vec::new(), 0);
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        log.offer_snapshot(0, &[7; 64], &mut stats);
        assert_eq!(log.commit_seq(), Some(0));
        assert!(log
            .promote(REPLAY_ALL, &mut ShardLog::volatile(), &mut stats)
            .is_err());
        assert_eq!((log.epoch(), stats), (0, TransportStats::default()));
    }

    #[test]
    fn an_offer_falls_due_when_the_frames_since_it_weigh_four_snapshots() {
        use crate::replica::ReplicaNode;
        use rnn_core::Gma;
        use rnn_roadnet::generators::{grid_city, GridCityConfig};
        use std::sync::Arc;

        let net = Arc::new(grid_city(&GridCityConfig {
            nx: 4,
            ny: 4,
            seed: 8,
            ..Default::default()
        }));
        let edges = net.num_edges();
        // The follower takes 12 appends, an offer, 9 appends and an offer
        // (23 frames), then dies at the next frame.
        let (co, peer) = loopback_pair(FaultPlan {
            crash_after_frames: 23,
            ..Default::default()
        });
        let follower = std::thread::spawn(move || {
            ReplicaNode::new(peer, Box::new(move || Box::new(Gma::new(net))), edges).run();
        });
        let mut log = ReplicatedLog::new(0, vec![Box::new(co)], 0);
        let mut stats = TransportStats::default();
        let frame = event(0).len();
        let states = FOLLOWER_LOG_STATES as u32;
        // A snapshot of two frames' bytes falls due after 2 × 4 frames.
        let snapshot = vec![7u8; 2 * frame];

        for seq in 0..3 * states {
            log.append(seq, &event(seq), &mut stats).unwrap();
            assert!(
                !log.offer_due(),
                "seq {seq}: no offer yet, no size to compare"
            );
        }
        let mut seq = 3 * states;
        log.offer_snapshot(seq - 1, &snapshot, &mut stats);
        assert!(!log.offer_due(), "an offer starts the count afresh");
        for n in 1..=2 * states + 1 {
            log.append(seq, &event(seq), &mut stats).unwrap();
            seq += 1;
            assert_eq!(
                log.offer_due(),
                n >= 2 * states,
                "{n} frames since the offer"
            );
        }
        log.offer_snapshot(seq - 1, &snapshot, &mut stats);
        assert!(!log.offer_due(), "a second offer resets the count");

        // The follower is gone: however many bytes follow, nothing is due.
        for _ in 0..3 * states {
            log.append(seq, &event(seq), &mut stats).unwrap();
            seq += 1;
        }
        assert_eq!(log.live_followers(), 0);
        assert!(!log.offer_due(), "no live follower, no offer");
        drop(log);
        follower.join().unwrap();

        // An unreplicated log counts nothing and is never due.
        let mut log = ReplicatedLog::new(1, Vec::new(), 0);
        log.append(0, &event(0), &mut stats).unwrap();
        log.offer_snapshot(0, &[7], &mut stats);
        for seq in 1..=3 * states {
            log.append(seq, &event(seq), &mut stats).unwrap();
        }
        assert!(!log.offer_due(), "a log without followers never offers");
    }

    #[test]
    fn a_follower_found_dead_by_an_append_is_skipped_by_promotion() {
        // Follower b records every frame it receives and never acks;
        // follower a acks everything. b comes first, so promotion reaches
        // a only by skipping b.
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        let (co_b, mut peer_b) = loopback_pair(FaultPlan::default());
        let a = ack_thread(peer_a, 0);
        let b = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(bytes) = peer_b.recv_timeout(Duration::from_secs(2)) {
                seen.push(Frame::from_bytes(&bytes).unwrap().tag);
            }
            seen
        });
        let mut log = ReplicatedLog::new(0, vec![Box::new(co_b), Box::new(co_a)], 0)
            .with_ack_timeout(Duration::from_millis(50));
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        assert_eq!(
            log.commit_seq(),
            Some(0),
            "b's missing ack holds nothing back"
        );
        assert_eq!(log.live_followers(), 1);

        let mut shard_log = ShardLog::volatile();
        let mut promoted = log.promote(REPLAY_ALL, &mut shard_log, &mut stats).unwrap();
        assert_eq!(stats.failovers, 1);
        assert_eq!(shard_log.stored_epoch(), 1, "the bumped term is stored");
        // The promoted transport is a's: a frame sent on it is acked by a.
        promoted.send(&event(7)).unwrap();
        let ack = Frame::from_bytes(&promoted.recv_timeout(Duration::from_secs(2)).unwrap());
        assert_eq!(ack.unwrap().seq, 7);
        drop((log, promoted)); // closes both links; both threads exit
        assert_eq!(a.join().unwrap(), vec![0, REPLAY_ALL, 7]);
        assert_eq!(b.join().unwrap(), vec![MsgTag::Append]);
    }
}
