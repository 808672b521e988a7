//! The one shard log: the event suffix a shard must replay and the
//! latest monitor-state snapshot it replays on top of.
//!
//! Both holders of a shard's history use this type and nothing else: the
//! coordinator link ([`crate::client::RemoteShard`]) and every follower
//! replica ([`crate::replica::ReplicaNode`]). A **volatile** log — every
//! follower's, and a link's without a durability directory — holds the
//! frames' bytes and the snapshot payload in memory. A **disk** log — a
//! link's with one — holds them in `events.wal` (see [`crate::wal`]) and
//! `snapshot.bin` only: in memory it keeps the suffix's sequence numbers
//! and the snapshot's covered sequence number and size, and
//! [`ShardLog::suffix`] and [`ShardLog::install_frame`] read the files
//! back when a rebuild needs them. The one exception is a WAL write that
//! failed: from then until a snapshot rewrites the WAL, the frames the
//! file may not hold stay in memory, so recovery still has them.
//!
//! The truncate-behind-snapshot rule lives in exactly one place,
//! [`ShardLog::install_snapshot`]: persist the snapshot (tmp + fsync +
//! rename), then drop the covered suffix, then rewrite the WAL with what
//! is left. A crash between any two of those steps leaves a state
//! [`ShardLog::open`] reads back correctly — an old snapshot with a
//! longer log, or a new snapshot with covered records still in the WAL,
//! which `open` drops.

use std::fs::File;
use std::io::{Error, ErrorKind, Write};
use std::path::{Path, PathBuf};

use crate::frame::{Frame, MsgTag};
use crate::wal::{Wal, WalRecord};

/// File name of the persisted snapshot, beside `events.wal`.
const SNAPSHOT_FILE: &str = "snapshot.bin";

/// One shard's replayable history. See the module docs.
pub struct ShardLog {
    /// Sequence numbers of the suffix's first frames, whose bytes are in
    /// the WAL only, in order. Always empty for a volatile log.
    on_disk: Vec<u32>,
    /// The rest of the suffix as verbatim wire bytes, in order: all of a
    /// volatile log's, and a disk log's frames since a failed WAL write.
    held: Vec<WalRecord>,
    /// The latest snapshot.
    snapshot: Option<Snapshot>,
    /// The disk image; `None` for a volatile log.
    disk: Option<Disk>,
}

/// A snapshot covering every event up to and including `covered`.
struct Snapshot {
    covered: u32,
    /// Size of the encoded `rnn_core::MonitorState` payload.
    len: usize,
    /// The payload itself; `None` when `snapshot.bin` is its only copy.
    payload: Option<Vec<u8>>,
}

struct Disk {
    dir: PathBuf,
    wal: Wal,
    /// Set by a failed WAL write: the file may end in a torn record, so
    /// new frames are held in memory until a snapshot rewrites the WAL.
    failed: bool,
    /// WAL writes (appends and post-snapshot rewrites) that failed.
    write_failures: u64,
}

impl ShardLog {
    /// An empty log held in memory only.
    pub fn volatile() -> Self {
        Self {
            on_disk: Vec::new(),
            held: Vec::new(),
            snapshot: None,
            disk: None,
        }
    }

    /// Opens (or creates) the on-disk log under `dir`, reading back what
    /// was durable: the latest intact `snapshot.bin`, and the valid
    /// prefix of `events.wal` (a torn tail is truncated away, see
    /// [`Wal::open`]) minus every record the snapshot already covers —
    /// a crash between snapshot rename and WAL reset leaves those behind.
    /// Only their sequence numbers stay in memory. `fsync_every` batches
    /// WAL syncs (0 is treated as 1).
    pub fn open(dir: &Path, fsync_every: u32) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot = load_snapshot(&dir.join(SNAPSHOT_FILE)).map(|(covered, payload)| Snapshot {
            covered,
            len: payload.len(),
            payload: None,
        });
        let (wal, records) = Wal::open(&dir.join("events.wal"), fsync_every)?;
        let covered = snapshot.as_ref().map(|s| s.covered);
        Ok(Self {
            on_disk: records
                .into_iter()
                .map(|(seq, _)| seq)
                .filter(|&seq| covered.map_or(true, |c| seq > c))
                .collect(),
            held: Vec::new(),
            snapshot,
            disk: Some(Disk {
                dir: dir.to_path_buf(),
                wal,
                failed: false,
                write_failures: 0,
            }),
        })
    }

    /// Appends one event frame (`bytes` is its complete wire encoding)
    /// unless the log already holds it: frames arrive in sequence order,
    /// so one at or behind the tail or the snapshot is a retransmit or a
    /// duplicated delivery. Returns whether the frame was new. A disk
    /// log writes the frame to its WAL and keeps only `seq`; if the write
    /// fails it keeps the bytes instead (and counts the failure).
    pub fn append(&mut self, seq: u32, bytes: impl AsRef<[u8]> + Into<Vec<u8>>) -> bool {
        if seq < self.next_seq() {
            return false;
        }
        if let Some(disk) = self.disk.as_mut().filter(|d| !d.failed) {
            if disk.wal.append(bytes.as_ref()).is_ok() {
                self.on_disk.push(seq);
                return true;
            }
            disk.failed = true;
            disk.write_failures += 1;
        }
        self.held.push((seq, bytes.into()));
        true
    }

    /// Adopts a snapshot covering every event up to and including
    /// `covered` and truncates the log behind it. Durable order:
    /// snapshot first, truncate after — if persisting fails nothing is
    /// dropped, so the disk never gets ahead of what recovery can
    /// replay. `epoch` is the leadership term stamped into the file.
    ///
    /// A disk log then rewrites its WAL with the frames past `covered`,
    /// reading back those only the old WAL held. If that read fails the
    /// WAL is left as it is (the covered records in it are skipped on
    /// every read); if the rewrite fails the frames stay in memory.
    pub fn install_snapshot(
        &mut self,
        covered: u32,
        epoch: u32,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let Some(disk) = &self.disk else {
            self.snapshot = Some(Snapshot {
                covered,
                len: payload.len(),
                payload: Some(payload.to_vec()),
            });
            self.held.retain(|(seq, _)| *seq > covered);
            return Ok(());
        };
        let frame = Frame::encode(MsgTag::SnapshotReply, covered, epoch, payload);
        persist_snapshot(&disk.dir, &frame)?;
        let kept_on_disk = if self.on_disk.last().is_some_and(|&tail| tail > covered) {
            self.read_on_disk()
        } else {
            Ok(Vec::new())
        };
        self.snapshot = Some(Snapshot {
            covered,
            len: payload.len(),
            payload: None,
        });
        self.on_disk.retain(|&seq| seq > covered);
        self.held.retain(|(seq, _)| *seq > covered);
        let Ok(mut kept) = kept_on_disk else {
            return Ok(());
        };
        kept.retain(|(seq, _)| *seq > covered);
        kept.append(&mut self.held);
        self.rewrite_wal(kept);
        Ok(())
    }

    /// Replaces the WAL's records with `frames`, the whole suffix. If a
    /// write fails the frames stay in memory, and so does every frame
    /// appended until a later rewrite succeeds.
    fn rewrite_wal(&mut self, frames: Vec<WalRecord>) {
        let Some(disk) = &mut self.disk else {
            return;
        };
        let rewritten = disk
            .wal
            .reset()
            .and_then(|()| frames.iter().try_for_each(|(_, b)| disk.wal.append(b)));
        if rewritten.is_ok() {
            disk.failed = false;
            self.on_disk = frames.into_iter().map(|(seq, _)| seq).collect();
        } else {
            disk.failed = true;
            disk.write_failures += 1;
            self.on_disk.clear();
            self.held = frames;
        }
    }

    /// The event frames recovery must replay, in order, as their
    /// verbatim wire bytes. A disk log reads them back from its WAL; an
    /// error means the WAL no longer holds a frame the log does.
    pub fn suffix(&self) -> std::io::Result<Vec<WalRecord>> {
        let mut frames = if self.on_disk.is_empty() {
            Vec::new()
        } else {
            self.read_on_disk()?
        };
        frames.extend(self.held.iter().cloned());
        Ok(frames)
    }

    /// How many event frames the suffix holds.
    pub fn suffix_len(&self) -> usize {
        self.on_disk.len() + self.held.len()
    }

    /// The frame that installs the held snapshot into a fresh service,
    /// stamped with `epoch`, or `None` before the first snapshot. It
    /// carries the *covered* sequence number, so the service's duplicate
    /// filter accepts exactly the suffix (`seq > covered`) fed after it.
    /// A disk log reads the payload back from `snapshot.bin`.
    pub fn install_frame(&self, epoch: u32) -> std::io::Result<Option<Frame>> {
        let Some(snapshot) = &self.snapshot else {
            return Ok(None);
        };
        let payload = match (&snapshot.payload, &self.disk) {
            (Some(payload), _) => payload.clone(),
            (None, Some(disk)) => load_snapshot(&disk.dir.join(SNAPSHOT_FILE))
                .filter(|(covered, _)| *covered == snapshot.covered)
                .map(|(_, payload)| payload)
                .ok_or_else(|| lost("snapshot.bin no longer holds the log's snapshot"))?,
            (None, None) => return Err(lost("snapshot payload held nowhere")),
        };
        Ok(Some(Frame {
            tag: MsgTag::SnapshotInstall,
            seq: snapshot.covered,
            epoch,
            payload,
        }))
    }

    /// Size of the latest snapshot's payload in bytes (0 before the
    /// first snapshot).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |s| s.len as u64)
    }

    /// The first sequence number past everything the log holds.
    pub fn next_seq(&self) -> u32 {
        let tail = match self.held.last() {
            Some((seq, _)) => Some(*seq),
            None => self.on_disk.last().copied(),
        };
        let covered = self.snapshot.as_ref().map(|s| s.covered);
        tail.max(covered).map_or(0, |seq| seq + 1)
    }

    /// Size of the on-disk WAL in bytes (0 for a volatile log).
    pub fn wal_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.wal.bytes())
    }

    /// WAL writes that failed since the log was opened (0 for a volatile
    /// log): each failed append, and each failed post-snapshot rewrite.
    pub fn wal_write_failures(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.write_failures)
    }

    /// The WAL records of the frames in `on_disk`, in order.
    fn read_on_disk(&self) -> std::io::Result<Vec<WalRecord>> {
        let Some(disk) = &self.disk else {
            return Err(lost("frames on disk without a disk"));
        };
        let mut records = disk.wal.records()?;
        records.retain(|(seq, _)| self.on_disk.binary_search(seq).is_ok());
        if records.len() != self.on_disk.len() {
            return Err(lost("events.wal no longer holds the log's frames"));
        }
        Ok(records)
    }
}

fn lost(what: &'static str) -> Error {
    Error::new(ErrorKind::InvalidData, what)
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
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))
}

/// Reads and validates a persisted snapshot file (one encoded
/// [`MsgTag::SnapshotReply`] frame): `(covered_seq, state_payload)`.
/// Any unreadable, torn, or mistagged file — or one written by a build
/// with other payload codecs — is treated as absent.
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
            payload: vec![seq as u8; 5 + seq as usize],
        }
        .to_bytes()
    }

    fn seqs(log: &ShardLog) -> Vec<u32> {
        log.suffix().unwrap().iter().map(|(seq, _)| *seq).collect()
    }

    fn snapshot_of(log: &ShardLog) -> Option<(u32, Vec<u8>)> {
        log.install_frame(0).unwrap().map(|f| (f.seq, f.payload))
    }

    /// Frame and snapshot bytes the log holds in memory.
    fn bytes_in_memory(log: &ShardLog) -> usize {
        let held: usize = log.held.iter().map(|(_, b)| b.len()).sum();
        let snapshot = log.snapshot.as_ref().and_then(|s| s.payload.as_ref());
        held + snapshot.map_or(0, Vec::len)
    }

    fn wal(log: &mut ShardLog) -> &mut Wal {
        &mut log.disk.as_mut().unwrap().wal
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rnn-shardlog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_disk_log_holds_no_frame_bytes_and_reads_its_suffix_back() {
        let dir = fresh_dir("memory");
        let mut log = ShardLog::open(&dir, 1).unwrap();
        let frames: Vec<WalRecord> = (0..8).map(|seq| (seq, event(seq))).collect();
        for (seq, bytes) in &frames {
            assert!(log.append(*seq, bytes.as_slice()));
        }
        assert_eq!(bytes_in_memory(&log), 0);
        assert_eq!(log.suffix_len(), frames.len());
        assert_eq!(log.suffix().unwrap(), frames, "byte for byte");

        log.install_snapshot(5, 0, b"state").unwrap();
        assert_eq!(
            bytes_in_memory(&log),
            0,
            "the snapshot payload stays on disk"
        );
        assert_eq!(snapshot_of(&log), Some((5, b"state".to_vec())));
        assert_eq!(log.snapshot_bytes(), 5);
        assert_eq!(log.suffix().unwrap(), frames[6..]);
        drop(log);

        let log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(bytes_in_memory(&log), 0, "nor after a reopen");
        assert_eq!(log.suffix().unwrap(), frames[6..]);
        assert_eq!(snapshot_of(&log), Some((5, b"state".to_vec())));
        assert_eq!(log.next_seq(), 8);
        assert_eq!(log.wal_write_failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_volatile_log_holds_its_bytes() {
        let mut log = ShardLog::volatile();
        for seq in 0..4 {
            assert!(log.append(seq, event(seq)));
        }
        assert!(!log.append(2, event(2)), "a held frame is not logged twice");
        log.install_snapshot(1, 0, b"state").unwrap();
        assert_eq!(bytes_in_memory(&log), event(2).len() + event(3).len() + 5);
        assert_eq!(seqs(&log), vec![2, 3]);
        assert_eq!(snapshot_of(&log), Some((1, b"state".to_vec())));
    }

    #[test]
    fn a_failed_wal_write_is_counted_and_the_frames_stay_in_memory() {
        let dir = fresh_dir("failed-write");
        let mut log = ShardLog::open(&dir, 1).unwrap();
        let frames: Vec<WalRecord> = (0..6).map(|seq| (seq, event(seq))).collect();
        for (seq, bytes) in &frames[..3] {
            assert!(log.append(*seq, bytes.as_slice()));
        }
        wal(&mut log).set_read_only(true).unwrap();
        for (seq, bytes) in &frames[3..] {
            assert!(log.append(*seq, bytes.as_slice()));
        }
        assert_eq!(
            log.wal_write_failures(),
            1,
            "one failure, then no more writes"
        );
        assert_eq!(log.suffix().unwrap(), frames, "every frame, byte for byte");
        assert_eq!(log.next_seq(), 6);

        // The post-snapshot rewrite fails too: the kept suffix, read back
        // from the old WAL where it was there, stays in memory.
        log.install_snapshot(1, 0, b"state").unwrap();
        assert_eq!(log.wal_write_failures(), 2);
        assert_eq!(log.suffix().unwrap(), frames[2..]);
        assert!(bytes_in_memory(&log) > 0);

        // Once the disk takes writes again, the next snapshot's rewrite
        // puts the kept suffix back on disk only.
        wal(&mut log).set_read_only(false).unwrap();
        log.install_snapshot(3, 0, b"later").unwrap();
        assert_eq!(log.wal_write_failures(), 2);
        assert_eq!(bytes_in_memory(&log), 0);
        assert_eq!(log.suffix().unwrap(), frames[4..]);
        drop(log);
        let log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(log.suffix().unwrap(), frames[4..]);
        assert_eq!(snapshot_of(&log), Some((3, b"later".to_vec())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_after_a_crash_between_snapshot_rename_and_wal_reset_keeps_only_the_suffix() {
        let dir = fresh_dir("crash");
        let mut log = ShardLog::open(&dir, 1).unwrap();
        for seq in 0..6 {
            assert!(log.append(seq, event(seq)));
        }
        drop(log);
        // The crash: a snapshot covering seq <= 2 was renamed into place
        // and the process died before the WAL was reset, so the WAL still
        // holds records on both sides of the snapshot.
        let snapshot = Frame::encode(MsgTag::SnapshotReply, 2, 0, b"state");
        persist_snapshot(&dir, &snapshot).unwrap();

        let mut log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(snapshot_of(&log), Some((2, b"state".to_vec())));
        assert_eq!(seqs(&log), vec![3, 4, 5], "exactly the uncovered suffix");
        assert_eq!(log.next_seq(), 6, "sequence numbers continue past it");
        assert!(!log.append(5, event(5)), "a held frame is not logged twice");
        assert!(log.append(6, event(6)));

        // A snapshot that leaves part of the suffix uncovered keeps that
        // part on disk too: the rewrite reads it back from the old WAL.
        log.install_snapshot(4, 0, b"later").unwrap();
        assert_eq!(seqs(&log), vec![5, 6]);
        assert_eq!(bytes_in_memory(&log), 0);
        let kept = vec![(5, event(5)), (6, event(6))];
        assert_eq!(log.suffix().unwrap(), kept);
        drop(log);
        let mut log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(snapshot_of(&log), Some((4, b"later".to_vec())));
        assert_eq!(
            log.suffix().unwrap(),
            kept,
            "the rewritten WAL holds them byte for byte"
        );
        assert_eq!(log.next_seq(), 7);

        // The same crash again, now over that kept suffix.
        assert!(log.append(7, event(7)));
        drop(log);
        persist_snapshot(&dir, &Frame::encode(MsgTag::SnapshotReply, 6, 0, b"last")).unwrap();
        let log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!(snapshot_of(&log), Some((6, b"last".to_vec())));
        assert_eq!(log.suffix().unwrap(), vec![(7, event(7))]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
