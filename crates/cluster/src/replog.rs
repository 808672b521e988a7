//! The leader side of the per-shard replicated journal.
//!
//! Each shard's coordinator link acts as the **leader** of that shard's
//! event log: every routed event frame is streamed verbatim to F
//! follower replicas ([`crate::replica::ReplicaNode`]) as
//! [`MsgTag::Append`] frames before it is dispatched to the shard
//! monitor, and the event only *commits* — becomes eligible for WAL
//! truncation and for feeding the monitor — once a configurable quorum
//! of followers has acked it.
//!
//! # Epochs and fencing
//!
//! Every frame a leader sends carries its leadership **epoch** (a
//! monotone term, persisted beside the WAL via
//! [`crate::wal::store_epoch`]). Replicas remember the highest epoch
//! they have seen and answer any frame from an older epoch with a
//! FENCED ack instead of applying it, so a partitioned stale leader's
//! appends are rejected, never silently merged. Promotion bumps the
//! epoch first, which is what turns the old leader stale.
//!
//! # Failure handling
//!
//! The append path is synchronous: the leader waits for acks from every
//! live follower (commit requires `quorum` of them), so any live
//! follower always holds the complete committed prefix and is safe to
//! promote. A follower that times out or closes is marked dead and
//! skipped from then on; once *every* follower is dead the log degrades
//! to unreplicated operation (availability over redundancy — the
//! engine's planner takeover remains the last-resort path). Losing
//! followers below `quorum` therefore degrades the redundancy
//! guarantee, not the shard's availability; the heartbeat/failure
//! counters make the degradation observable.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::Duration;

use rnn_core::TransportStats;
use rnn_roadnet::wire::put_u32;

use crate::error::ClusterError;
use crate::frame::{Frame, MsgTag, ACK_FENCED, ACK_OK};
use crate::transport::{RecvError, Transport};

/// Promotion replay boundary meaning "replay the entire replica log"
/// (no request was in flight when the leader died).
pub const REPLAY_ALL: u32 = u32::MAX;

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
    quorum: u32,
    heartbeat_every: u32,
    ack_timeout: Duration,
    epoch: u32,
    /// Durability directory for [`crate::wal::store_epoch`]; `None`
    /// keeps the epoch in memory only.
    epoch_dir: Option<PathBuf>,
    /// Highest sequence number a quorum has acked.
    commit_seq: Option<u32>,
    appends_since_heartbeat: u32,
}

impl ReplicatedLog {
    /// A leader over `replicas` follower transports. `quorum` is the
    /// ack count an append needs to commit (clamped to the live
    /// follower count as followers die); `heartbeat_every` sends a
    /// liveness probe once per that many appends (0 disables);
    /// `epoch` is the starting term (a restarted coordinator passes
    /// [`crate::wal::load_epoch`]); `epoch_dir`, when set, persists
    /// every epoch bump beside the WAL.
    pub fn new(
        shard: usize,
        replicas: Vec<Box<dyn Transport>>,
        quorum: u32,
        heartbeat_every: u32,
        epoch: u32,
        epoch_dir: Option<PathBuf>,
    ) -> Self {
        Self {
            shard,
            followers: replicas
                .into_iter()
                .map(|transport| Follower {
                    transport,
                    alive: true,
                })
                .collect(),
            quorum: quorum.max(1),
            heartbeat_every,
            ack_timeout: Duration::from_secs(1),
            epoch,
            epoch_dir,
            commit_seq: None,
            appends_since_heartbeat: 0,
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

    /// Highest quorum-acked sequence number, if any event committed.
    pub fn commit_seq(&self) -> Option<u32> {
        self.commit_seq
    }

    /// Followers still considered alive.
    pub fn live_followers(&self) -> usize {
        self.followers.iter().filter(|f| f.alive).count()
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
    /// for its ack. Fencing is fatal ([`ClusterError::Fenced`]); dead
    /// followers are marked and skipped. Also runs the heartbeat
    /// cadence. Returns once the frame is committed (or the log has
    /// degraded to zero followers).
    pub fn append(
        &mut self,
        seq: u32,
        event_frame: &[u8],
        stats: &mut TransportStats,
    ) -> Result<(), ClusterError> {
        if self.live_followers() == 0 {
            // Degraded: unreplicated operation (planner takeover is the
            // net). The frame commits trivially so WAL truncation never
            // deadlocks behind followers that no longer exist.
            self.commit_seq = Some(seq);
            return Ok(());
        }
        let frame = Frame {
            tag: MsgTag::Append,
            seq,
            epoch: self.epoch,
            payload: event_frame.to_vec(),
        }
        .to_bytes();
        // One outstanding frame per synchronous append: the commit-lag
        // counter advances by exactly one, making the per-tick rate a
        // deterministic gate metric.
        stats.commit_lag_frames += 1;
        let mut acks = 0u32;
        let fenced = self.broadcast(&frame, seq, self.ack_timeout, stats, |stats, _, ack| {
            stats.replica_appends += 1;
            match ack {
                Ack::Ok => acks += 1,
                Ack::Fenced { newer } => return ControlFlow::Break(newer),
                Ack::Dead => {}
            }
            ControlFlow::Continue(())
        });
        if let Some(newer) = fenced {
            return Err(ClusterError::Fenced {
                shard: self.shard,
                epoch: self.epoch,
                newer,
            });
        }
        if acks >= self.quorum.min(self.live_followers() as u32).max(1)
            || self.live_followers() == 0
        {
            self.commit_seq = Some(seq);
        }
        self.heartbeat_if_due(stats);
        Ok(())
    }

    /// Runs the heartbeat cadence: once per `heartbeat_every` appends,
    /// probe every live follower with the commit index. A follower that
    /// does not ack within the timeout is the failure detector's
    /// signal: it is marked dead and excluded from future appends and
    /// promotion. A fenced heartbeat is only counted — the next append
    /// surfaces the typed error on the write path.
    fn heartbeat_if_due(&mut self, stats: &mut TransportStats) {
        if self.heartbeat_every == 0 {
            return;
        }
        self.appends_since_heartbeat += 1;
        if self.appends_since_heartbeat < self.heartbeat_every {
            return;
        }
        self.appends_since_heartbeat = 0;
        let commit = self.commit_seq.unwrap_or(0);
        let mut payload = Vec::with_capacity(4);
        put_u32(&mut payload, commit);
        let frame = Frame {
            tag: MsgTag::Heartbeat,
            seq: commit,
            epoch: self.epoch,
            payload,
        }
        .to_bytes();
        self.broadcast(&frame, commit, self.ack_timeout, stats, |stats, _, _| {
            stats.heartbeats += 1;
            ControlFlow::<()>::Continue(())
        });
    }

    /// Hands every live follower the latest durable snapshot so it can
    /// truncate its own log behind `covered_seq`. Strictly best-effort:
    /// failures mark followers dead (or count a fence) and the caller's
    /// next append owns any typed error.
    pub fn offer_snapshot(
        &mut self,
        covered_seq: u32,
        snapshot_payload: &[u8],
        stats: &mut TransportStats,
    ) {
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

    /// Promotes a live follower to serving leader: bumps (and persists)
    /// the epoch — fencing the old term — then sends the follower a
    /// [`MsgTag::Promote`] carrying `boundary` (the first sequence it
    /// must *not* replay from its own log, [`REPLAY_ALL`] for none) and
    /// waits for its ack, after which the follower has installed its
    /// held snapshot, replayed its committed suffix, and become a
    /// serving [`crate::service::ShardService`]. On success the
    /// follower's transport is removed from the replica set and
    /// returned for the link to adopt as its shard transport.
    pub fn promote(
        &mut self,
        boundary: u32,
        stats: &mut TransportStats,
    ) -> Result<Box<dyn Transport>, ClusterError> {
        self.epoch += 1;
        if let Some(dir) = &self.epoch_dir {
            // Degraded durability on failure: the in-memory epoch still
            // fences this process; only a restart could regress it.
            let _ = crate::wal::store_epoch(dir, self.epoch);
        }
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
    fn append_commits_once_quorum_acks() {
        let (co_a, peer_a) = loopback_pair(FaultPlan::default());
        let (co_b, peer_b) = loopback_pair(FaultPlan::default());
        let a = ack_thread(peer_a, 0);
        let b = ack_thread(peer_b, 0);
        let mut log = ReplicatedLog::new(3, vec![Box::new(co_a), Box::new(co_b)], 2, 0, 1, None);
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
        let mut log = ReplicatedLog::new(0, vec![Box::new(co_a), Box::new(co_b)], 2, 0, 1, None)
            .with_ack_timeout(Duration::from_millis(50));
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        assert_eq!(log.live_followers(), 1);
        // Quorum clamps to the live follower count: still committing.
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
        let mut log = ReplicatedLog::new(1, vec![Box::new(co_a)], 1, 0, 3, None);
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
        let mut log = ReplicatedLog::new(0, vec![Box::new(co_a)], 1, 0, 1, None)
            .with_ack_timeout(Duration::from_millis(50));
        let mut stats = TransportStats::default();
        log.append(0, &event(0), &mut stats).unwrap();
        assert_eq!(log.live_followers(), 0);
        // Degraded mode: appends are accepted without replication.
        log.append(1, &event(1), &mut stats).unwrap();
        let Err(err) = log.promote(REPLAY_ALL, &mut stats) else {
            panic!("promotion with zero live followers must fail");
        };
        assert_eq!(err, ClusterError::FailoverFailed { shard: 0 });
    }
}
