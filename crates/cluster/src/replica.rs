//! The follower side of the per-shard replicated journal: a
//! [`ReplicaNode`] is a hot standby that accumulates the leader's
//! [`MsgTag::Append`] stream (and snapshot offers) in a volatile
//! [`ShardLog`] (the leader's log logic over memory storage, which
//! keeps each appended frame's bytes without a copy) without running a
//! monitor — until it is promoted, at which point it rebuilds the
//! shard's state entirely *from its own replicated log* and becomes the
//! serving [`crate::service::ShardService`] on the same transport.
//!
//! # Fencing
//!
//! The replica remembers the highest leadership epoch it has seen.
//! Every frame from an older epoch is answered with an
//! [`ACK_FENCED`] ack and **not applied** — this is what makes a
//! partitioned stale leader's appends provably rejected rather than
//! silently merged. Frames from a newer epoch advance the replica's
//! own epoch (the legitimate leader has moved on).
//!
//! # Promotion
//!
//! A [`MsgTag::Promote`] carries the new epoch and a replay boundary.
//! The replica builds a plain [`ShardService`] and feeds it, through
//! [`ShardService::handle`], exactly the frames a coordinator would
//! send a respawned service over the wire: a [`MsgTag::SnapshotInstall`]
//! of its held snapshot (if any), then its log strictly *below* the
//! boundary — so the rebuilt monitor and the duplicate-suppression cache
//! (all the state a service has) are what the same frames produce on any
//! service, not a look-alike. It then acks and serves. The in-flight
//! request at the boundary is deliberately *not* replayed: the
//! coordinator retransmits it (re-stamped with the new epoch) and the
//! promoted service processes it fresh, exactly once.

use std::time::Duration;

use rnn_core::ContinuousMonitor;
use rnn_roadnet::WireReader;

use crate::frame::{Frame, MsgTag, ACK_FENCED, ACK_OK, ACK_REFUSED};
use crate::log::ShardLog;
use crate::service::ShardService;
use crate::transport::{RecvError, Transport};

/// Re-poll cadence while waiting for leader traffic (liveness only).
const POLL: Duration = Duration::from_millis(250);

/// Builds the monitor a promoted replica serves with. Deferred to
/// promotion time so an idle standby costs no monitor state.
pub type MonitorFactory = Box<dyn FnOnce() -> Box<dyn ContinuousMonitor> + Send>;

/// One follower replica of a shard's event log.
pub struct ReplicaNode<T: Transport> {
    transport: T,
    make_monitor: MonitorFactory,
    /// Edge count of the network the promoted service checks frames
    /// against (see [`ShardService::new`]).
    edges: usize,
    /// The replicated history: appended event frames (verbatim wire
    /// bytes), truncated behind each accepted snapshot offer.
    log: ShardLog,
    /// Highest leadership epoch seen; older frames are fenced.
    epoch: u32,
}

impl<T: Transport> ReplicaNode<T> {
    /// A follower on `transport`. `make_monitor` runs once, at
    /// promotion, over a network of `edges` edges.
    pub fn new(transport: T, make_monitor: MonitorFactory, edges: usize) -> Self {
        Self {
            transport,
            make_monitor,
            edges,
            log: ShardLog::volatile(),
            epoch: 0,
        }
    }

    /// Follows the leader until the transport closes (leader gone, or
    /// link dropped) or a promotion turns this node into the serving
    /// shard service.
    pub fn run(mut self) {
        loop {
            let bytes = match self.transport.recv_timeout(POLL) {
                Ok(bytes) => bytes,
                Err(RecvError::Timeout) => continue,
                Err(RecvError::Closed) | Err(RecvError::Io) => return,
            };
            // Corrupt frames are dropped; the leader's ack timeout owns
            // recovery (it marks this follower dead, never retries into
            // garbage).
            let Ok(frame) = Frame::from_bytes(&bytes) else {
                continue;
            };
            if frame.epoch < self.epoch {
                // Fencing: a stale leader's frame is rejected, not
                // applied, and the ack carries our newer epoch so the
                // sender learns how stale it is.
                self.ack(frame.seq, ACK_FENCED);
                continue;
            }
            self.epoch = frame.epoch;
            let status = match frame.tag {
                MsgTag::Append => {
                    // Retransmits and duplicated deliveries are acked
                    // again but stored once (`ShardLog::append`).
                    self.log.append(frame.seq, frame.payload);
                    ACK_OK
                }
                // Adopts the offered snapshot and truncates the local
                // log behind the sequence it covers — the replica-side
                // mirror of the leader's truncate-behind-commit.
                MsgTag::SnapshotOffer => {
                    let mut r = WireReader::new(&frame.payload);
                    match (r.u32(), r.bytes(r.remaining())) {
                        (Ok(covered), Ok(state))
                            if self
                                .log
                                .install_snapshot(covered, self.epoch, state)
                                .is_ok() =>
                        {
                            ACK_OK
                        }
                        _ => ACK_REFUSED,
                    }
                }
                MsgTag::Promote => match WireReader::new(&frame.payload).u32() {
                    Ok(boundary) => return self.promote(frame.seq, boundary),
                    Err(_) => ACK_REFUSED,
                },
                // Anything else is foreign traffic for a follower.
                _ => continue,
            };
            self.ack(frame.seq, status);
        }
    }

    /// Becomes the serving leader: snapshot install + replay of the log
    /// strictly below `boundary`, both through [`ShardService::handle`],
    /// then an [`ACK_OK`] ack, then the service loop on the same
    /// transport. Every fed frame is re-stamped with the promoted epoch
    /// (the log holds them under the dead leader's), so the service
    /// comes up fencing the old term.
    fn promote(mut self, ack_seq: u32, boundary: u32) {
        let epoch = self.epoch;
        // A volatile log reads back from memory, so neither read fails.
        let (Ok(install), Ok(suffix)) = (self.log.install_frame(epoch), self.log.suffix()) else {
            self.ack(ack_seq, ACK_REFUSED);
            return;
        };
        // The service runs until shutdown; the replayed log goes now.
        drop(self.log);
        let mut service = ShardService::new(self.transport, (self.make_monitor)(), self.edges);
        if let Some(install) = install {
            let restored = service
                .handle(install)
                .and_then(|reply| Frame::from_bytes(&reply).ok())
                .is_some_and(|reply| reply.payload == [1]);
            if !restored {
                // The fresh monitor could not reproduce the recorded
                // state: refuse promotion so the leader tries another
                // follower (or falls through to planner takeover).
                send_ack(service.transport(), ack_seq, epoch, ACK_REFUSED);
                return;
            }
        }
        // The frame at the boundary is in flight: the coordinator
        // retransmits it.
        for (_, bytes) in suffix.into_iter().take_while(|(seq, _)| *seq < boundary) {
            if let Ok(mut event) = Frame::from_bytes(&bytes) {
                event.epoch = epoch;
                service.handle(event);
            }
        }
        send_ack(service.transport(), ack_seq, epoch, ACK_OK);
        service.run();
    }

    fn ack(&mut self, seq: u32, status: u8) {
        send_ack(&mut self.transport, seq, self.epoch, status);
    }
}

fn send_ack(transport: &mut impl Transport, seq: u32, epoch: u32, status: u8) {
    let ack = Frame {
        tag: MsgTag::AppendAck,
        seq,
        epoch,
        payload: vec![status],
    }
    .to_bytes();
    // A send to a gone leader is fine: the next recv observes Closed
    // and the node exits.
    let _ = transport.send(&ack);
}
