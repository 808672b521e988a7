//! The one shard log: the event suffix a shard must replay, the latest
//! monitor-state snapshot it replays on top of, and — when a directory
//! is configured — their disk images (`events.wal`, see [`crate::wal`],
//! and `snapshot.bin`).
//!
//! Both holders of a shard's history use this type and nothing else: the
//! coordinator link ([`crate::client::RemoteShard`]; volatile without a
//! durability directory, on disk with one) and every follower replica
//! ([`crate::replica::ReplicaNode`]; volatile). The truncate-behind-
//! snapshot rule therefore lives in exactly one place,
//! [`ShardLog::install_snapshot`]: persist the snapshot (tmp + fsync +
//! rename), then drop the covered suffix, then reset the WAL. A crash
//! between any two of those steps leaves a state [`ShardLog::open`]
//! reads back correctly — an old snapshot with a longer log, or a new
//! snapshot with covered records still in the WAL, which `open` drops.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::frame::{Frame, MsgTag};
use crate::wal::{Wal, WalRecord};

/// One shard's replayable history. See the module docs.
pub struct ShardLog {
    /// Event frames past the snapshot, in sequence order, as their
    /// verbatim wire bytes.
    suffix: Vec<(u32, Vec<u8>)>,
    /// Latest snapshot: the sequence number it covers and the encoded
    /// `rnn_core::MonitorState` payload.
    snapshot: Option<(u32, Vec<u8>)>,
    /// Directory and WAL of the disk image; `None` for a volatile log.
    disk: Option<(PathBuf, Wal)>,
}

impl ShardLog {
    /// An empty log held in memory only.
    pub fn volatile() -> Self {
        Self {
            suffix: Vec::new(),
            snapshot: None,
            disk: None,
        }
    }

    /// Opens (or creates) the on-disk log under `dir`, reading back what
    /// was durable: the latest intact `snapshot.bin`, and the valid
    /// prefix of `events.wal` (a torn tail is truncated away, see
    /// [`Wal::open`]) minus every record the snapshot already covers —
    /// a crash between snapshot rename and WAL reset leaves those behind.
    /// `fsync_every` batches WAL syncs (0 is treated as 1).
    pub fn open(dir: &Path, fsync_every: u32) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot = load_snapshot(&dir.join("snapshot.bin"));
        let (wal, mut suffix) = Wal::open(&dir.join("events.wal"), fsync_every)?;
        if let Some((covered, _)) = &snapshot {
            suffix.retain(|(seq, _)| seq > covered);
        }
        Ok(Self {
            suffix,
            snapshot,
            disk: Some((dir.to_path_buf(), wal)),
        })
    }

    /// Appends one event frame (`bytes` is its complete wire encoding)
    /// unless the log already holds it: frames arrive in sequence order,
    /// so one at or behind the tail or the snapshot is a retransmit or a
    /// duplicated delivery. Returns whether the frame was new.
    pub fn append(&mut self, seq: u32, bytes: Vec<u8>) -> bool {
        let held = self.snapshot.as_ref().is_some_and(|(c, _)| seq <= *c)
            || self.suffix.last().is_some_and(|(tail, _)| seq <= *tail);
        if held {
            return false;
        }
        if let Some((_, wal)) = &mut self.disk {
            // An append failure (disk full, dead mount) degrades
            // durability, not correctness: the in-memory suffix still
            // covers shard-crash recovery.
            let _ = wal.append(&bytes);
        }
        self.suffix.push((seq, bytes));
        true
    }

    /// Adopts a snapshot covering every event up to and including
    /// `covered` and truncates the log behind it. Durable order:
    /// snapshot first, truncate after — if persisting fails nothing is
    /// dropped, so the disk never gets ahead of what recovery can
    /// replay. `epoch` is the leadership term stamped into the file.
    pub fn install_snapshot(
        &mut self,
        covered: u32,
        epoch: u32,
        payload: Vec<u8>,
    ) -> std::io::Result<()> {
        let frame = Frame {
            tag: MsgTag::SnapshotReply,
            seq: covered,
            epoch,
            payload,
        };
        if let Some((dir, _)) = &self.disk {
            persist_snapshot(dir, &frame.to_bytes())?;
        }
        self.snapshot = Some((covered, frame.payload));
        self.suffix.retain(|(seq, _)| *seq > covered);
        if let Some((_, wal)) = &mut self.disk {
            // A failed rewrite leaves covered records in the WAL, which
            // `open` drops; like a failed append it costs durability of
            // the kept suffix only.
            let _ = wal
                .reset()
                .and_then(|()| self.suffix.iter().try_for_each(|(_, b)| wal.append(b)));
        }
        Ok(())
    }

    /// The event frames recovery must replay, in order.
    pub fn suffix(&self) -> &[WalRecord] {
        &self.suffix
    }

    /// The latest snapshot: `(covered_seq, state_payload)`.
    pub fn snapshot(&self) -> Option<&(u32, Vec<u8>)> {
        self.snapshot.as_ref()
    }

    /// The frame that installs the held snapshot into a fresh service,
    /// stamped with `epoch`. It carries the *covered* sequence number, so
    /// the service's duplicate filter accepts exactly the suffix
    /// (`seq > covered`) fed after it.
    pub fn install_frame(&self, epoch: u32) -> Option<Frame> {
        self.snapshot.as_ref().map(|(covered, state)| Frame {
            tag: MsgTag::SnapshotInstall,
            seq: *covered,
            epoch,
            payload: state.clone(),
        })
    }

    /// The first sequence number past everything the log holds.
    pub fn next_seq(&self) -> u32 {
        let tail = self.suffix.last().map(|(seq, _)| *seq);
        let covered = self.snapshot.as_ref().map(|(seq, _)| *seq);
        tail.max(covered).map_or(0, |seq| seq + 1)
    }

    /// Size of the on-disk WAL in bytes (0 for a volatile log).
    pub fn wal_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |(_, wal)| wal.bytes())
    }
}

/// Persists the snapshot (one self-checksummed [`MsgTag::SnapshotReply`]
/// frame), written to a temp file, synced, and renamed into place — a
/// crash leaves either the old snapshot or the new one, never a torn
/// file.
fn persist_snapshot(dir: &Path, frame_bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(frame_bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, dir.join("snapshot.bin"))
}

/// Reads and validates a persisted snapshot file (one encoded
/// [`MsgTag::SnapshotReply`] frame): `(covered_seq, state_payload)`.
/// Any unreadable, torn, or mistagged file is treated as absent.
fn load_snapshot(path: &Path) -> Option<(u32, Vec<u8>)> {
    let bytes = std::fs::read(path).ok()?;
    let frame = Frame::from_bytes(&bytes).ok()?;
    (frame.tag == MsgTag::SnapshotReply).then_some((frame.seq, frame.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u32) -> Vec<u8> {
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload: vec![seq as u8; 5],
        }
        .to_bytes()
    }

    fn seqs(log: &ShardLog) -> Vec<u32> {
        log.suffix().iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn open_after_a_crash_between_snapshot_rename_and_wal_reset_keeps_only_the_suffix() {
        let dir = std::env::temp_dir().join(format!("rnn-shardlog-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = ShardLog::open(&dir, 1).unwrap();
        for seq in 0..6 {
            assert!(log.append(seq, event(seq)));
        }
        drop(log);
        // The crash: a snapshot covering seq <= 2 was renamed into place
        // and the process died before the WAL was reset, so the WAL still
        // holds records on both sides of the snapshot.
        let snapshot = Frame {
            tag: MsgTag::SnapshotReply,
            seq: 2,
            epoch: 0,
            payload: b"state".to_vec(),
        };
        persist_snapshot(&dir, &snapshot.to_bytes()).unwrap();

        let mut log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(log.snapshot(), Some(&(2, b"state".to_vec())));
        assert_eq!(seqs(&log), vec![3, 4, 5], "exactly the uncovered suffix");
        assert_eq!(log.next_seq(), 6, "sequence numbers continue past it");
        assert!(!log.append(5, event(5)), "a held frame is not logged twice");
        assert!(log.append(6, event(6)));

        // A snapshot that leaves part of the suffix uncovered keeps that
        // part on disk too.
        log.install_snapshot(4, 0, b"later".to_vec()).unwrap();
        assert_eq!(seqs(&log), vec![5, 6]);
        drop(log);
        let log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(log.snapshot(), Some(&(4, b"later".to_vec())));
        assert_eq!(seqs(&log), vec![5, 6]);
        assert_eq!(log.next_seq(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
