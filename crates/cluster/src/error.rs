//! Typed liveness failures of a coordinator↔shard link.
//!
//! No unrecoverable transport condition is a panic in the client: the
//! link reports the failure as a [`ClusterError`], marks itself dead,
//! and answers every subsequent request with `Response::Down`, so the
//! engine hands the shard's cells to survivors
//! (`ShardedEngine::adopt_dead_shard`) instead of tearing the process
//! down. The engine panics only when no live shard is left to adopt
//! them.

/// Why a shard link declared its peer permanently down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The peer never answered a request within the retry budget
    /// ([`crate::client::RetryPolicy::max_retries`] retransmits, each
    /// waited out for the policy timeout).
    Unreachable {
        /// The shard index.
        shard: usize,
        /// The sequence number of the unanswered request.
        seq: u32,
        /// Retransmits attempted before giving up.
        retries: u32,
    },
    /// The transport reported the peer gone and no respawn hook was
    /// configured, so nothing can be rebuilt.
    NoRespawn {
        /// The shard index.
        shard: usize,
    },
    /// The transport reported the peer gone and every bounded recovery
    /// attempt (respawn + snapshot install + journal replay) also failed —
    /// e.g. the respawned service died again mid-replay.
    RecoveryFailed {
        /// The shard index.
        shard: usize,
        /// Full recovery attempts made (3: one plus two retries).
        attempts: u32,
    },
    /// A respawned service refused the snapshot install — its fresh
    /// monitor could not reproduce the recorded results. This indicates
    /// a determinism bug, not line noise, and is never retried past the
    /// recovery budget.
    RestoreRejected {
        /// The shard index.
        shard: usize,
    },
    /// A replica rejected this leader's frame because it has already
    /// seen a newer leadership epoch: this coordinator is a **stale
    /// leader** (e.g. restarted from a stale epoch file, or on the
    /// wrong side of a partition while a follower was promoted). Its
    /// appends are fenced — rejected, never silently merged — and the
    /// link must stop writing.
    Fenced {
        /// The shard index.
        shard: usize,
        /// This (stale) leader's epoch.
        epoch: u32,
        /// The newer epoch the replica reported.
        newer: u32,
    },
    /// The link's log could not be read back from its storage to rebuild
    /// a respawned service: `events.wal` or `snapshot.bin` no longer
    /// holds what the log recorded (or the read failed).
    LogUnreadable {
        /// The shard index.
        shard: usize,
    },
    /// The peer died and every follower replica was also dead (or
    /// refused promotion), so no hot standby could take over. The
    /// engine's planner takeover is the last-resort path from here.
    FailoverFailed {
        /// The shard index.
        shard: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Unreachable {
                shard,
                seq,
                retries,
            } => write!(
                f,
                "shard {shard}: no reply to seq {seq} after {retries} retransmits"
            ),
            ClusterError::NoRespawn { shard } => {
                write!(f, "shard {shard} died and no respawn policy is set")
            }
            ClusterError::RecoveryFailed { shard, attempts } => write!(
                f,
                "shard {shard}: recovery failed after {attempts} attempts \
                 (peer kept dying during snapshot install / journal replay)"
            ),
            ClusterError::RestoreRejected { shard } => write!(
                f,
                "shard {shard}: respawned service rejected the snapshot install"
            ),
            ClusterError::Fenced {
                shard,
                epoch,
                newer,
            } => write!(
                f,
                "shard {shard}: fenced — this leader's epoch {epoch} is stale \
                 (a replica reported epoch {newer}); appends rejected"
            ),
            ClusterError::LogUnreadable { shard } => write!(
                f,
                "shard {shard}: the log could not be read back for a rebuild"
            ),
            ClusterError::FailoverFailed { shard } => write!(
                f,
                "shard {shard}: failover failed — no live follower replica \
                 accepted promotion"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}
