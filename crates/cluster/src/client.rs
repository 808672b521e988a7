//! The coordinator side of the RPC layer: [`RemoteShard`] speaks the
//! engine's [`ShardLink`] protocol to one [`crate::service::ShardService`]
//! over any [`Transport`], adding everything the in-process worker never
//! needed. It is built from three mechanisms, each present once:
//!
//! # One log
//!
//! Every event frame sent to the shard is appended to the link's
//! [`ShardLog`] — in memory by default; on disk (`events.wal`,
//! `snapshot.bin` and `epoch.bin`, the only copies) when
//! [`DurabilityConfig::dir`] is set, the same log over another storage.
//! With `snapshot_every > 0` the link runs a snapshot cycle: every
//! `snapshot_every` logged frames it pulls the monitor's
//! answer-relevant state (`rnn_core::MonitorState`) over a
//! [`MsgTag::SnapshotRequest`] round trip and hands it to
//! [`ShardLog::install_snapshot`], which truncates the log behind it.
//! Recovery therefore replays O(events since the last snapshot), not
//! O(run length). The link is also the **leader** of its shard's
//! [`ReplicatedLog`]: each event frame is acked by every live follower
//! replica — each holding the same `ShardLog` type — before it is
//! dispatched (see [`crate::replog`]), and a fenced append (a replica
//! at a newer epoch) kills the link, because a newer leader owns the
//! shard. A log without followers makes the link unreplicated. Every
//! snapshot is offered to the followers, which truncate their own logs
//! behind it; between two snapshots the cycle also captures for the
//! followers alone, once the frames replicated since the last offer
//! outweigh a few of its snapshots ([`ReplicatedLog::offer_due`]), so a
//! follower's log stays O(state) however far apart the snapshots are.
//!
//! # One wait loop
//!
//! Every request — the engine's, a snapshot pull, a snapshot install, a
//! replayed log frame — waits for its reply in `Inner::await_reply`:
//! replies to older requests are dropped, undecodable or mistagged
//! frames are counted as corrupt, and the request is retransmitted on
//! each of those and on each timeout until `RetryPolicy::max_retries`
//! is spent. The routine reports `Reply`, `Exhausted` or `Closed`; the
//! callers only decide what those mean for them.
//!
//! # One replay path
//!
//! A shard that dies is rebuilt by frames fed to
//! [`crate::service::ShardService::handle`]: a snapshot install (when a
//! snapshot is held) followed by the log suffix. The link tries, in
//! order: **respawn-rebuild** — a fresh service from the respawn hook,
//! fed those frames over the wire, up to `1 + RECOVERY_RETRIES` times;
//! **promotion** — a live follower feeds the same frames from its own
//! log to a service it builds locally ([`crate::replica`]), and the
//! link adopts its transport and re-stamps the in-flight request with
//! the bumped epoch. Deterministic monitors make either rebuild
//! answer-identical to the lost state, and the engine never notices.
//! The third rung, **planner takeover**, is the engine's, below.
//!
//! # Liveness
//!
//! The client never panics on peer behaviour. A peer unreachable past
//! the retry budget, or dead with both rebuilds unavailable or
//! exhausted, turns the link **dead**: the failure is recorded as a
//! typed [`ClusterError`], the current and every subsequent `recv`
//! answers `Response::Down`, and sends become no-ops. The engine then
//! hands the corpse's cells to surviving shards
//! (`ShardedEngine::adopt_dead_shard`), and panics only when none is
//! left. A reply whose tag does not answer the request in flight is peer
//! behaviour too: it is refused and counted like any corrupt frame.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rnn_core::{MemoryUsage, TransportStats};
use rnn_engine::{BatchKind, Request, Response, ShardLink, TickOutcome};
use rnn_roadnet::{WireCodec, WireReader};

use crate::error::ClusterError;
use crate::frame::{Frame, MsgTag};
use crate::log::ShardLog;
use crate::replog::{ReplicatedLog, REPLAY_ALL};
use crate::transport::{RecvError, Transport};

/// Per-message delivery policy.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// How long to wait for a reply before retransmitting the request.
    pub timeout: Duration,
    /// Retransmits allowed per request before the shard is declared
    /// permanently unreachable (the link goes dead and reports
    /// `Response::Down`; the engine decides whether that is fatal).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(1),
            max_retries: 8,
        }
    }
}

/// Extra full recovery attempts (respawn + snapshot install + suffix
/// replay) after the first one fails before the link stops respawning:
/// one respawn that dies mid-replay is survivable, a third in a row
/// means the respawn hook itself is broken.
const RECOVERY_RETRIES: u32 = 2;

/// The durability plane of one shard link. The default (`snapshot_every
/// = 0`, no directory) keeps the whole event log in memory and replays
/// all of it on recovery.
#[derive(Clone, Debug, Default)]
pub struct DurabilityConfig {
    /// Run a snapshot cycle once the log holds this many event frames:
    /// capture the monitor's state over RPC, then truncate the log
    /// behind it, bounding recovery replay to the suffix. Followers are
    /// offered a snapshot at this cadence or sooner, once their frames
    /// outweigh a few snapshots (see [`crate::replog`]). `0` disables
    /// snapshots entirely, for the followers too.
    pub snapshot_every: u32,
    /// Directory for the link's [`ShardLog`] — `events.wal` (torn-tail
    /// tolerant; see [`crate::wal`]), `snapshot.bin` and, once a
    /// replicated link promotes, `epoch.bin` (each replaced by tmp +
    /// fsync + rename + directory fsync). `None` keeps the same blobs in
    /// memory: shard-crash recovery still works (the coordinator
    /// survives), but nothing outlives the coordinator process.
    pub dir: Option<PathBuf>,
    /// WAL fsync batching: sync the log once per this many appends
    /// (0 is treated as 1 — sync every append).
    pub fsync_every: u32,
}

impl DurabilityConfig {
    /// Snapshots every `snapshot_every` events, in-memory only, syncing
    /// every append — the configuration the tests and benchmarks use
    /// unless they need the on-disk artifacts.
    pub fn in_memory(snapshot_every: u32) -> Self {
        Self {
            snapshot_every,
            dir: None,
            fsync_every: 1,
        }
    }

    /// Like [`Self::in_memory`] but persisting the WAL and snapshots
    /// under `dir`.
    pub fn on_disk(snapshot_every: u32, dir: PathBuf) -> Self {
        Self {
            dir: Some(dir),
            ..Self::in_memory(snapshot_every)
        }
    }
}

/// Builds a replacement transport to a *freshly spawned* service (new
/// process / thread, new monitor) after a crash.
pub type RespawnFn = Box<dyn FnMut() -> Box<dyn Transport> + Send>;

struct Inflight {
    bytes: Vec<u8>,
    seq: u32,
    tag: MsgTag,
}

/// How one wait for a reply ended (see [`Inner::await_reply`]).
enum Wait<R> {
    /// The matching reply arrived and was accepted.
    Reply(R),
    /// The retransmit budget was spent without an acceptable reply.
    Exhausted,
    /// The transport reported the peer gone.
    Closed,
}

/// Why one rebuild attempt against a respawned service did not finish.
enum RebuildError {
    /// The fresh peer died too; another respawn may still succeed.
    PeerDied,
    /// A failure retrying cannot fix (snapshot install rejected).
    Fatal(ClusterError),
}

struct Inner {
    shard: usize,
    transport: Box<dyn Transport>,
    policy: RetryPolicy,
    durability: DurabilityConfig,
    next_seq: u32,
    inflight: Option<Inflight>,
    /// Every event frame sent since the latest snapshot, and that
    /// snapshot: what a rebuilt shard is fed, read back from the log's
    /// storage (`durability.dir`, or memory without one), and the
    /// stored leadership term. Memory requests are read-only and are
    /// simply retransmitted, never logged.
    log: ShardLog,
    /// Cleared when the shard's monitor answers a snapshot request with
    /// an empty payload (snapshots unsupported) — the cycle then stays
    /// off and recovery falls back to full replay.
    snapshots_supported: bool,
    /// Set once the link has given up on its peer; `recv` then answers
    /// `Response::Down` forever and sends are dropped.
    dead: bool,
    /// The typed failure that killed the link.
    last_error: Option<ClusterError>,
    respawn: Option<RespawnFn>,
    /// The shard's replicated journal (no followers when replication is
    /// off). Its epoch is stamped into every outbound frame.
    replog: ReplicatedLog,
    stats: TransportStats,
}

/// A [`ShardLink`] to one shard service behind a [`Transport`].
pub struct RemoteShard {
    inner: Mutex<Inner>,
}

impl RemoteShard {
    /// A link to the service behind `transport`. Crash recovery is what
    /// the arguments make it: `respawn` enables respawn-rebuild,
    /// `durability` sets the snapshot cadence that bounds its replay and
    /// (when `durability.dir` is set) puts the log on disk, read back in
    /// on construction — a restarted coordinator resumes from what was
    /// durable, minus any torn WAL tail. With `None` and the default
    /// config the log is volatile and a dead peer is survivable only
    /// through follower promotion. The link leads `replog`, which
    /// resumes the term the log stored (a restarted coordinator keeps
    /// fencing its pre-restart followers); a `replog` without followers
    /// leaves the link unreplicated, at its own epoch.
    pub fn with_durability(
        shard: usize,
        transport: Box<dyn Transport>,
        policy: RetryPolicy,
        respawn: Option<RespawnFn>,
        durability: DurabilityConfig,
        mut replog: ReplicatedLog,
    ) -> std::io::Result<Self> {
        let log = match &durability.dir {
            Some(dir) => ShardLog::open(dir, durability.fsync_every)?,
            None => ShardLog::volatile(),
        };
        replog.resume_epoch(log.stored_epoch());
        Ok(Self {
            inner: Mutex::new(Inner {
                shard,
                transport,
                policy,
                durability,
                next_seq: log.next_seq(),
                inflight: None,
                log,
                snapshots_supported: true,
                dead: false,
                last_error: None,
                respawn,
                replog,
                stats: TransportStats::default(),
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // lint: allow(panic-free-wire): lock poisoning is a local crash already in progress, not network input
        self.inner.lock().expect("link lock")
    }

    /// Cumulative transport counters for this link. The durability
    /// gauges (`journal_len`, `wal_bytes`, `snapshot_bytes`) and
    /// `wal_write_failures` are read from the live log at call time.
    pub fn stats(&self) -> TransportStats {
        let g = self.lock();
        let mut stats = g.stats;
        stats.journal_len = g.log.suffix_len() as u64;
        stats.wal_bytes = g.log.wal_bytes();
        stats.snapshot_bytes = g.log.snapshot_bytes();
        stats.wal_write_failures = g.log.wal_write_failures();
        stats
    }

    /// The typed failure that killed this link, if it is dead.
    pub fn last_error(&self) -> Option<ClusterError> {
        self.lock().last_error
    }

    /// The link's current leadership epoch (0 without replication).
    pub fn epoch(&self) -> u32 {
        self.lock().replog.epoch()
    }
}

impl ShardLink for RemoteShard {
    fn send(&self, req: Request) {
        let mut g = self.lock();
        if g.dead {
            return; // a corpse accepts nothing; recv answers Down
        }
        g.send_req(req);
    }

    fn recv(&self) -> Response {
        let mut g = self.lock();
        if g.dead {
            return Response::Down;
        }
        // lint: allow(panic-free-wire): ShardLink contract violation by the local engine (recv without send), not network input
        let mut inflight = g.inflight.take().expect("a request is outstanding");
        g.exchange(&mut inflight)
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        if let Ok(mut g) = self.inner.lock() {
            if g.dead {
                return;
            }
            // Sent twice deliberately: with injected faults one shutdown
            // frame can be corrupted or held back by a reordering
            // transport, and the second send flushes/replaces it. The
            // service exits on the first intact copy; a duplicate
            // arriving after exit is dropped with the connection.
            g.send_req(Request::Shutdown);
            g.send_req(Request::Shutdown);
        }
    }
}

impl Inner {
    fn send_req(&mut self, req: Request) {
        let mut payload = Vec::new();
        let tag = match req {
            Request::Tick(delta) => {
                delta.encode(&mut payload);
                match delta.kind {
                    BatchKind::Tick => MsgTag::TickEvents,
                    BatchKind::Resync => MsgTag::ResyncEvents,
                    BatchKind::Migration => MsgTag::MigrationEvents,
                }
            }
            Request::Memory => MsgTag::MemoryRequest,
            Request::Shutdown => MsgTag::Shutdown,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = Frame {
            tag,
            seq,
            epoch: self.replog.epoch(),
            payload,
        }
        .to_bytes();
        if tag.is_events() {
            self.log.append(seq, bytes.as_slice());
            // Commit-before-dispatch: the event must be acked by every
            // live follower replica before it feeds the shard monitor.
            // A fenced append means a newer leader owns this shard —
            // the link dies instead of merging stale writes.
            if let Err(e) = self.replog.append(seq, &bytes, &mut self.stats) {
                self.dead = true;
                self.last_error = Some(e);
                return;
            }
        }
        self.transmit(&bytes);
        if tag != MsgTag::Shutdown {
            self.inflight = Some(Inflight { bytes, seq, tag });
        }
    }

    fn transmit(&mut self, bytes: &[u8]) {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        // A send to a dead peer is fine: the failure surfaces on recv,
        // where the crash-recovery path owns it.
        let _ = self.transport.send(bytes);
    }

    /// The one reply-wait loop: waits for the frame answering sequence
    /// `seq` and hands it to `accept`. Replies to older requests
    /// (retransmission echoes we stopped waiting for) are dropped. A
    /// frame that fails its checksum, or that carries `seq` but which
    /// `accept` turns down (wrong tag, undecodable payload), is counted
    /// as corrupt; after each of those and after each timeout `request`
    /// is retransmitted — the service answers a retransmit from its
    /// cached reply, so a healthy peer converges in one round trip —
    /// until `max_retries` retransmits are spent.
    fn await_reply<R>(
        &mut self,
        seq: u32,
        request: &[u8],
        accept: impl Fn(Frame) -> Option<R>,
    ) -> Wait<R> {
        let mut attempts = 0u32;
        loop {
            match self.transport.recv_timeout(self.policy.timeout) {
                Ok(bytes) => {
                    self.stats.frames_received += 1;
                    self.stats.bytes_received += bytes.len() as u64;
                    match Frame::from_bytes(&bytes) {
                        Ok(f) if f.seq != seq => continue,
                        Ok(f) => match accept(f) {
                            Some(reply) => return Wait::Reply(reply),
                            None => self.stats.corrupt_frames += 1,
                        },
                        Err(_) => self.stats.corrupt_frames += 1,
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) | Err(RecvError::Io) => return Wait::Closed,
            }
            attempts += 1;
            if attempts > self.policy.max_retries {
                return Wait::Exhausted;
            }
            self.stats.retries += 1;
            self.transmit(request);
        }
    }

    /// Waits out the reply to `inflight` and decodes it, driving crash
    /// recovery as needed; on an unrecoverable liveness failure the link
    /// goes dead and the engine sees `Response::Down`. (`inflight` is
    /// mutable because a failover re-stamps its bytes with the new
    /// leadership epoch.) After an acknowledged event frame the snapshot
    /// cycle may run (see the module docs).
    fn exchange(&mut self, inflight: &mut Inflight) -> Response {
        loop {
            let request = inflight.tag;
            let accept = |reply: Frame| decode_reply(request, reply);
            let recovered = match self.await_reply(inflight.seq, &inflight.bytes, accept) {
                Wait::Reply(resp) => {
                    if inflight.tag.is_events() {
                        self.maybe_snapshot(inflight.seq);
                    }
                    return resp;
                }
                // Declared liveness policy: a shard unreachable past the
                // retry budget is down (RetryPolicy docs). With
                // replication this is also the failure detector's
                // asymmetric-failure signal (e.g. a one-way partition:
                // requests black-holed, nothing reads as closed), so
                // failover gets a shot at promoting a follower — which
                // then gets a fresh budget — before the typed error
                // surfaces; the engine owns the fatality decision after
                // that.
                Wait::Exhausted => {
                    let err = ClusterError::Unreachable {
                        shard: self.shard,
                        seq: inflight.seq,
                        retries: self.policy.max_retries,
                    };
                    self.failover(inflight, err)
                }
                // The peer is gone: respawn-rebuild first, and if that
                // is unavailable or exhausted, promote a follower. Only
                // when both fail does the link die — at which point the
                // engine's planner takeover is the last resort.
                Wait::Closed => self
                    .recover_by_respawn(inflight)
                    .or_else(|e| self.failover(inflight, e)),
            };
            if let Err(err) = recovered {
                self.dead = true;
                self.last_error = Some(err);
                self.inflight = None;
                return Response::Down;
            }
        }
    }

    // --- Snapshot cycle ---------------------------------------------------

    /// After an acknowledged event frame, captures the monitor's state
    /// when either of two triggers fires, one capture serving both:
    /// - **disk:** the log holds `snapshot_every` frames. The snapshot
    ///   is installed in the log, which truncates behind it, and offered
    ///   to the followers.
    /// - **followers:** [`ReplicatedLog::offer_due`] — the frames
    ///   replicated since the last offer outweigh a few of its snapshots.
    ///   The capture is offered to the followers only; the link's log
    ///   (and its disk) is left alone.
    ///
    /// `snapshot_every = 0` disables both. Strictly best-effort — any
    /// failure (retry budget spent, peer closed, disk error) leaves the
    /// logs intact (recovery still replays everything it needs), the
    /// next acknowledged event retries, and a real death surfaces on the
    /// next event exchange, where the recovery path owns it.
    fn maybe_snapshot(&mut self, covered_seq: u32) {
        if self.durability.snapshot_every == 0 || !self.snapshots_supported {
            return;
        }
        let install = self.log.suffix_len() as u32 >= self.durability.snapshot_every;
        if !install && !self.replog.offer_due() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = Frame {
            tag: MsgTag::SnapshotRequest,
            seq,
            epoch: self.replog.epoch(),
            payload: Vec::new(),
        }
        .to_bytes();
        self.transmit(&request);
        let Wait::Reply(payload) = self.await_reply(seq, &request, |f| {
            (f.tag == MsgTag::SnapshotReply).then_some(f.payload)
        }) else {
            return;
        };
        if payload.is_empty() {
            // The monitor cannot snapshot (no `snapshot_state` impl):
            // stop asking; recovery falls back to full log replay.
            self.snapshots_supported = false;
            return;
        }
        // Truncate-behind-commit: the log may only drop events the
        // live followers have acked — else a promoted follower could
        // need history nobody holds any more. The synchronous append
        // makes the commit index cover `covered_seq` by construction;
        // this guard keeps the invariant explicit (and load-bearing if
        // the pipeline ever loosens).
        let committed = self.replog.commit_seq().is_some_and(|c| c >= covered_seq)
            || self.replog.live_followers() == 0;
        if !committed {
            return;
        }
        if install {
            if self
                .log
                .install_snapshot(covered_seq, self.replog.epoch(), &payload)
                .is_err()
            {
                return;
            }
            self.stats.snapshots += 1;
        }
        // Followers truncate their own logs behind the same snapshot.
        self.replog
            .offer_snapshot(covered_seq, &payload, &mut self.stats);
    }

    // --- Crash recovery ---------------------------------------------------

    /// Respawns a fresh service and rebuilds its monitor ([`Self::rebuild`]).
    /// The whole rebuild is retried up to `1 + RECOVERY_RETRIES` times
    /// against fresh respawns before giving up.
    fn recover_by_respawn(&mut self, inflight: &Inflight) -> Result<(), ClusterError> {
        let budget = 1 + RECOVERY_RETRIES;
        for _attempt in 0..budget {
            let Some(respawn) = self.respawn.as_mut() else {
                return Err(ClusterError::NoRespawn { shard: self.shard });
            };
            self.stats.crash_recoveries += 1;
            self.transport = respawn();
            match self.rebuild(inflight) {
                Ok(()) => return Ok(()),
                Err(RebuildError::Fatal(e)) => return Err(e),
                Err(RebuildError::PeerDied) => continue,
            }
        }
        Err(ClusterError::RecoveryFailed {
            shard: self.shard,
            attempts: budget,
        })
    }

    /// Promotes a live follower replica to serving leader for this
    /// shard. The follower rebuilds shard state from its *own* log
    /// (see [`crate::replica`]); the link then adopts the follower's
    /// transport, re-stamps the in-flight request with the bumped epoch
    /// (so the promoted service does not fence its own coordinator),
    /// and retransmits it. With no live follower the original failure
    /// `fallback` passes through; a fenced promotion (another leader
    /// already took over) supersedes it.
    fn failover(
        &mut self,
        inflight: &mut Inflight,
        fallback: ClusterError,
    ) -> Result<(), ClusterError> {
        // The in-flight event frame is already in every follower's log,
        // but it must NOT be replayed during promotion: the coordinator
        // still owns its delivery and retransmits it afterwards, so the
        // promoted service processes it exactly once, fresh.
        let boundary = if inflight.tag.is_events() {
            inflight.seq
        } else {
            REPLAY_ALL
        };
        self.transport = self
            .replog
            .promote(boundary, &mut self.log, &mut self.stats)
            .map_err(|e| match e {
                fenced @ ClusterError::Fenced { .. } => fenced,
                _ => fallback,
            })?;
        if let Ok(mut frame) = Frame::from_bytes(&inflight.bytes) {
            frame.epoch = self.replog.epoch();
            inflight.bytes = frame.to_bytes();
        }
        self.transmit(&inflight.bytes);
        Ok(())
    }

    /// One rebuild attempt against a freshly respawned service: the
    /// held snapshot's install, then the log suffix, each frame waited
    /// out in turn. The log's last entry is the inflight request itself
    /// when that request is an event batch — its reply is left for
    /// [`Self::exchange`] to consume.
    fn rebuild(&mut self, inflight: &Inflight) -> Result<(), RebuildError> {
        let unreadable = |_| RebuildError::Fatal(ClusterError::LogUnreadable { shard: self.shard });
        let install = self
            .log
            .install_frame(self.replog.epoch())
            .map_err(unreadable)?;
        let suffix = self.log.suffix().map_err(unreadable)?;
        if let Some(install) = install {
            let covered_seq = install.seq;
            let install = install.to_bytes();
            self.transmit(&install);
            let accept = |f: Frame| (f.tag == MsgTag::RestoreReply).then_some(f.payload == [1]);
            match self.await_reply(covered_seq, &install, accept) {
                Wait::Reply(true) => {}
                Wait::Reply(false) => {
                    return Err(RebuildError::Fatal(ClusterError::RestoreRejected {
                        shard: self.shard,
                    }))
                }
                Wait::Exhausted | Wait::Closed => return Err(RebuildError::PeerDied),
            }
        }
        for (seq, bytes) in &suffix {
            self.stats.frames_replayed += 1;
            self.transmit(bytes);
            if *seq == inflight.seq {
                return Ok(()); // exchange consumes this reply
            }
            // The reply to a replayed frame is consumed and discarded.
            // A fresh peer that dies mid-replay spends this attempt; the
            // recovery loop decides whether another respawn is in budget.
            let Wait::Reply(()) = self.await_reply(*seq, bytes, |_| Some(())) else {
                return Err(RebuildError::PeerDied);
            };
        }
        if !inflight.tag.is_events() {
            // A read-only request (Memory) was in flight: retransmit it
            // now that the rebuilt shard is caught up.
            self.transmit(&inflight.bytes);
        }
        Ok(())
    }
}

/// Decodes the reply to a request sent under tag `request`: `None` for a
/// reply whose tag does not answer that request (a well-formed
/// `MemoryReply` to an event frame would otherwise reach the engine as the
/// wrong kind of response) or whose payload does not decode — both are
/// handled as corruption by the caller, never as a panic.
fn decode_reply(request: MsgTag, reply: Frame) -> Option<Response> {
    let mut r = WireReader::new(&reply.payload);
    match (request, reply.tag) {
        (sent, MsgTag::TickReply) if sent.is_events() => {
            TickOutcome::decode(&mut r).ok().map(Response::Tick)
        }
        (MsgTag::MemoryRequest, MsgTag::MemoryReply) => {
            MemoryUsage::decode(&mut r).ok().map(Response::Memory)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback_pair, FaultPlan};
    use rnn_engine::DeltaBatch;

    const POLICY: RetryPolicy = RetryPolicy {
        timeout: Duration::from_millis(40),
        max_retries: 2,
    };

    /// A link whose peer answers every intact frame with a
    /// [`MsgTag::MemoryReply`] of the same sequence number — no dedup, so
    /// a frame delivered twice is answered twice.
    fn echo_link(plan: FaultPlan) -> (RemoteShard, std::thread::JoinHandle<()>) {
        memory_reply_link(plan, None)
    }

    /// [`echo_link`], the reply carrying `payload` in place of the
    /// request's own.
    fn memory_reply_link(
        plan: FaultPlan,
        payload: Option<Vec<u8>>,
    ) -> (RemoteShard, std::thread::JoinHandle<()>) {
        let (co, mut peer) = loopback_pair(plan);
        let echo = std::thread::spawn(move || {
            while let Ok(bytes) = peer.recv_timeout(Duration::from_secs(2)) {
                if let Ok(frame) = Frame::from_bytes(&bytes) {
                    let reply = Frame {
                        tag: MsgTag::MemoryReply,
                        payload: payload.clone().unwrap_or(frame.payload),
                        ..frame
                    };
                    let _ = peer.send(&reply.to_bytes());
                }
            }
        });
        let unreplicated = ReplicatedLog::new(0, Vec::new(), 0);
        let link = RemoteShard::with_durability(
            0,
            Box::new(co),
            POLICY,
            None,
            Default::default(),
            unreplicated,
        );
        (link.unwrap(), echo)
    }

    /// Sends one request with sequence `seq` and waits it out, accepting
    /// only a [`MsgTag::MemoryReply`].
    fn round_trip(link: &RemoteShard, seq: u32) -> Wait<u32> {
        let mut g = link.lock();
        let request = Frame {
            tag: MsgTag::MemoryRequest,
            seq,
            epoch: 0,
            payload: vec![7; 8],
        }
        .to_bytes();
        g.transmit(&request);
        g.await_reply(seq, &request, |f| {
            (f.tag == MsgTag::MemoryReply).then_some(f.seq)
        })
    }

    /// Ends a test: declaring the link dead stops its drop from sending
    /// shutdown frames; dropping it closes the transport, which ends the
    /// echo thread.
    fn finish(link: RemoteShard, echo: std::thread::JoinHandle<()>) -> TransportStats {
        let stats = link.stats();
        link.lock().dead = true;
        drop(link);
        echo.join().unwrap();
        stats
    }

    #[test]
    fn duplicated_and_reordered_frames_still_end_in_one_reply_each() {
        // Every frame is delivered twice, so every request is answered
        // twice: each wait must take the first answer and the next wait
        // must drop the second as stale.
        let (link, echo) = echo_link(FaultPlan {
            duplicate_every: 1,
            ..Default::default()
        });
        for seq in 0..3 {
            assert!(matches!(round_trip(&link, seq), Wait::Reply(s) if s == seq));
        }
        let stats = finish(link, echo);
        assert_eq!((stats.retries, stats.corrupt_frames), (0, 0));
        assert_eq!(
            stats.frames_received, 5,
            "3 replies + the 2 stale echoes seen"
        );

        // Every 2nd send is held back until the next one: requests 1 and 2
        // (sends 2 and 4) each time out, the retransmit releases the held
        // copy behind it, and the duplicate answer is dropped by the next
        // wait.
        let (link, echo) = echo_link(FaultPlan {
            reorder_every: 2,
            ..Default::default()
        });
        for seq in 0..3 {
            assert!(matches!(round_trip(&link, seq), Wait::Reply(s) if s == seq));
        }
        let stats = finish(link, echo);
        assert_eq!(stats.retries, 2, "one retransmit per held frame");
    }

    #[test]
    fn corrupted_requests_are_retransmitted_until_the_budget_is_spent() {
        // Every 2nd frame is corrupted in flight: the peer drops it, the
        // wait times out and the retransmit (an odd-numbered send) lands.
        let (link, echo) = echo_link(FaultPlan {
            corrupt_every: 2,
            ..Default::default()
        });
        assert!(matches!(round_trip(&link, 0), Wait::Reply(0)));
        assert!(matches!(round_trip(&link, 1), Wait::Reply(1)));
        assert_eq!(finish(link, echo).retries, 1);

        // Every frame corrupted: nothing ever comes back.
        let (link, echo) = echo_link(FaultPlan {
            corrupt_every: 1,
            ..Default::default()
        });
        assert!(matches!(round_trip(&link, 0), Wait::Exhausted));
        let stats = finish(link, echo);
        assert_eq!(stats.retries, u64::from(POLICY.max_retries));
        assert_eq!(stats.frames_sent, 1 + u64::from(POLICY.max_retries));

        // A reply with the right sequence number that the caller does not
        // accept is corruption too: counted, retransmitted, and — the
        // echo never learning better — exhausted.
        let (link, echo) = echo_link(FaultPlan::default());
        let mut g = link.lock();
        let request = Frame {
            tag: MsgTag::MemoryRequest,
            seq: 0,
            epoch: 0,
            payload: Vec::new(),
        }
        .to_bytes();
        g.transmit(&request);
        let refused = g.await_reply(0, &request, |_| None::<()>);
        drop(g);
        assert!(matches!(refused, Wait::Exhausted));
        let stats = finish(link, echo);
        assert_eq!(stats.corrupt_frames, 1 + u64::from(POLICY.max_retries));
    }

    #[test]
    fn a_reply_of_the_wrong_kind_is_refused_not_handed_to_the_engine() {
        // The peer answers an event frame with a well-formed MemoryReply of
        // the same sequence number. The engine would die on it
        // ("non-tick response to a tick request"): the link must refuse
        // it like any other corrupt frame, retransmit, and — the peer
        // never learning better — go down.
        let mut valid = Vec::new();
        MemoryUsage::default().encode(&mut valid);
        let (link, echo) = memory_reply_link(FaultPlan::default(), Some(valid));
        link.send(Request::Tick(DeltaBatch {
            objects: Vec::new(),
            queries: Vec::new(),
            shared_edges: Default::default(),
            kind: BatchKind::Tick,
        }));
        assert!(matches!(link.recv(), Response::Down));
        let stats = finish(link, echo);
        assert_eq!(stats.corrupt_frames, 1 + u64::from(POLICY.max_retries));
        assert_eq!(stats.retries, u64::from(POLICY.max_retries));
    }

    #[test]
    fn a_peer_that_dies_reads_as_closed() {
        let (link, echo) = echo_link(FaultPlan {
            crash_after_frames: 1,
            ..Default::default()
        });
        assert!(matches!(round_trip(&link, 0), Wait::Reply(0)));
        // The peer's next receive reports its process dead; its end of
        // the pair is dropped with it.
        assert!(matches!(round_trip(&link, 1), Wait::Closed));
        finish(link, echo);
    }
}
