//! The one shard log: the event suffix a shard must replay and the
//! latest monitor-state snapshot it replays on top of.
//!
//! Both holders of a shard's history use this type and nothing else: the
//! coordinator link ([`crate::client::RemoteShard`]) and every follower
//! replica ([`crate::replica::ReplicaNode`]). Every log runs the same
//! logic over a `storage` seam and names the three blobs it
//! keeps there: `events.wal` (the suffix's frames, see [`crate::wal`]),
//! `snapshot.bin` (the latest snapshot) and `epoch.bin` (the leadership
//! term). [`ShardLog::open`] keeps them as files in a directory — a
//! link's with [`DurabilityConfig::dir`](crate::client::DurabilityConfig)
//! set; [`ShardLog::volatile`] keeps them in memory — every follower's,
//! and a link's without one. Either way the log itself holds the
//! suffix's sequence numbers and the snapshot's covered sequence number
//! and size, and [`ShardLog::suffix`] and [`ShardLog::install_frame`]
//! read the blobs back when a rebuild needs them. The one exception is a
//! WAL write that failed: from then until a snapshot rewrites the WAL,
//! the frames the blob may not hold stay in the log, so recovery still
//! has them.
//!
//! The truncate-behind-snapshot rule lives in exactly one place,
//! [`ShardLog::install_snapshot`]: replace the snapshot, then drop the
//! covered suffix, then replace the WAL with what is left — each replace
//! atomic and durable on return. A crash between any two of those steps
//! leaves a state [`ShardLog::open`] reads back correctly — an old
//! snapshot with a longer log, or a new snapshot with covered records
//! still in the WAL, which opening drops.

use std::borrow::Cow;
use std::io::{Error, ErrorKind};
use std::path::Path;

use rnn_roadnet::wire::checksum;
use rnn_roadnet::WireReader;

use crate::frame::{Frame, MsgTag};
use crate::storage::{Files, Memory, Storage};
use crate::wal::{Wal, WalRecord};

/// Blob of the suffix's frames.
const EVENTS: &str = "events.wal";
/// Blob of the latest snapshot: one self-checksummed
/// [`MsgTag::SnapshotReply`] frame.
const SNAPSHOT: &str = "snapshot.bin";
/// Blob of the leadership term: `u32 epoch | u32 CRC-32C of it`.
const EPOCH: &str = "epoch.bin";

/// One shard's replayable history. See the module docs.
pub struct ShardLog {
    /// The event file, in the storage that also holds the snapshot and
    /// the epoch.
    wal: Wal,
    /// Sequence numbers of the suffix's first frames, whose bytes are in
    /// the WAL only, in order.
    on_disk: Vec<u32>,
    /// The rest of the suffix as verbatim wire bytes, in order: the
    /// frames since a failed WAL write.
    held: Vec<WalRecord>,
    /// The latest snapshot: the sequence number it covers every event up
    /// to, and the size of its encoded `rnn_core::MonitorState` payload,
    /// which is in `snapshot.bin` only.
    snapshot: Option<(u32, usize)>,
    /// Set by a failed WAL write: the blob may end in a torn record, so
    /// new frames are held until a snapshot rewrites the WAL.
    failed: bool,
    /// WAL writes (appends and post-snapshot rewrites) that failed.
    write_failures: u64,
}

impl ShardLog {
    /// An empty log held in memory only.
    pub fn volatile() -> Self {
        // lint: allow(panic-free-wire): a fresh memory storage has nothing to read and takes every write
        Self::over(Box::new(Memory::default()), 1).expect("memory storage")
    }

    /// Opens (or creates) the log under `dir`, reading back what was
    /// durable: the latest intact `snapshot.bin`, and the valid prefix of
    /// `events.wal` (a torn tail is cut away, see [`Wal::open`]) minus
    /// every record the snapshot already covers — a crash between the
    /// snapshot's replace and the WAL's leaves those behind. Only their
    /// sequence numbers stay in the log. `fsync_every` batches WAL syncs
    /// (0 is treated as 1).
    pub fn open(dir: &Path, fsync_every: u32) -> std::io::Result<Self> {
        Self::over(Box::new(Files::new(dir)?), fsync_every)
    }

    /// [`Self::open`] over the blobs of `storage`.
    pub(crate) fn over(storage: Box<dyn Storage>, fsync_every: u32) -> std::io::Result<Self> {
        let (wal, records) = Wal::over(storage, EVENTS, fsync_every)?;
        let snapshot =
            load_snapshot(&*wal.storage).map(|(covered, payload)| (covered, payload.len()));
        let mut on_disk: Vec<u32> = records.into_iter().map(|(seq, _)| seq).collect();
        on_disk.retain(|&seq| snapshot.map_or(true, |(covered, _)| seq > covered));
        Ok(Self {
            wal,
            on_disk,
            held: Vec::new(),
            snapshot,
            failed: false,
            write_failures: 0,
        })
    }

    /// Appends one event frame (`bytes` is its complete wire encoding)
    /// unless the log already holds it: frames arrive in sequence order,
    /// so one at or behind the tail or the snapshot is a retransmit or a
    /// duplicated delivery. Returns whether the frame was new. The frame
    /// goes to the WAL — owned bytes without a copy, where the storage
    /// keeps them in memory — and the log keeps only `seq`; if the write
    /// fails it keeps the bytes instead (and counts the failure).
    pub fn append<'a>(&mut self, seq: u32, bytes: impl Into<Cow<'a, [u8]>>) -> bool {
        if seq < self.next_seq() {
            return false;
        }
        let mut bytes = bytes.into();
        if !self.failed {
            if self.wal.push(&mut bytes).is_ok() {
                self.on_disk.push(seq);
                return true;
            }
            self.failed = true;
            self.write_failures += 1;
        }
        self.held.push((seq, bytes.into_owned()));
        true
    }

    /// Adopts a snapshot covering every event up to and including
    /// `covered` and truncates the log behind it. Durable order:
    /// snapshot first, truncate after — if persisting fails nothing is
    /// dropped, so the storage never gets ahead of what recovery can
    /// replay. `epoch` is the leadership term stamped into the blob.
    ///
    /// The WAL is then replaced with the frames past `covered`, reading
    /// back those only the old WAL held. If that read fails the WAL is
    /// left as it is (the covered records in it are skipped on every
    /// read); if the replace fails the frames stay in the log, and so
    /// does every frame appended until a later replace succeeds.
    pub fn install_snapshot(
        &mut self,
        covered: u32,
        epoch: u32,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let frame = Frame::encode(MsgTag::SnapshotReply, covered, epoch, payload);
        self.wal.storage.replace(SNAPSHOT, frame)?;
        self.snapshot = Some((covered, payload.len()));
        self.on_disk.retain(|&seq| seq > covered);
        self.held.retain(|(seq, _)| *seq > covered);
        let Ok(kept) = self.suffix() else {
            return Ok(());
        };
        let records: Vec<u8> = kept.iter().flat_map(|(_, frame)| frame).copied().collect();
        if self.wal.rewrite(records).is_ok() {
            self.failed = false;
            self.on_disk = kept.into_iter().map(|(seq, _)| seq).collect();
            self.held.clear();
        } else {
            self.failed = true;
            self.write_failures += 1;
            self.on_disk.clear();
            self.held = kept;
        }
        Ok(())
    }

    /// The event frames recovery must replay, in order, as their
    /// verbatim wire bytes, read back from the WAL; an error means the
    /// WAL no longer holds a frame the log does.
    pub fn suffix(&self) -> std::io::Result<Vec<WalRecord>> {
        let mut frames = self.read_on_disk()?;
        frames.extend(self.held.iter().cloned());
        Ok(frames)
    }

    /// How many event frames the suffix holds.
    pub fn suffix_len(&self) -> usize {
        self.on_disk.len() + self.held.len()
    }

    /// The frame that installs the latest snapshot into a fresh service,
    /// stamped with `epoch`, or `None` before the first snapshot. It
    /// carries the *covered* sequence number, so the service's duplicate
    /// filter accepts exactly the suffix (`seq > covered`) fed after it.
    /// The payload is read back from `snapshot.bin`.
    pub fn install_frame(&self, epoch: u32) -> std::io::Result<Option<Frame>> {
        let Some((covered, _)) = self.snapshot else {
            return Ok(None);
        };
        let payload = load_snapshot(&*self.wal.storage)
            .filter(|(stored, _)| *stored == covered)
            .map(|(_, payload)| payload)
            .ok_or_else(|| lost("snapshot.bin no longer holds the log's snapshot"))?;
        Ok(Some(Frame {
            tag: MsgTag::SnapshotInstall,
            seq: covered,
            epoch,
            payload,
        }))
    }

    /// Size of the latest snapshot's payload in bytes (0 before the
    /// first snapshot).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot.map_or(0, |(_, len)| len as u64)
    }

    /// The first sequence number past everything the log holds.
    pub fn next_seq(&self) -> u32 {
        let held = self.held.last().map(|(seq, _)| *seq);
        let tail = held.or(self.on_disk.last().copied());
        let covered = self.snapshot.map(|(covered, _)| covered);
        tail.max(covered).map_or(0, |seq| seq + 1)
    }

    /// Size of the WAL in bytes, on disk or in memory.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// WAL writes that failed since the log was opened: each failed
    /// append, and each failed post-snapshot rewrite.
    pub fn wal_write_failures(&self) -> u64 {
        self.write_failures
    }

    /// The leadership term last stored with [`Self::store_epoch`]; 0 if
    /// none was, or if `epoch.bin` is short or fails its checksum, so a
    /// torn record is never trusted.
    pub fn stored_epoch(&self) -> u32 {
        let bytes = self.wal.storage.read_all(EPOCH).unwrap_or_default();
        let mut r = WireReader::new(&bytes);
        match (r.u32(), r.u32()) {
            (Ok(epoch), Ok(crc)) if checksum(&epoch.to_le_bytes()) == crc => epoch,
            _ => 0,
        }
    }

    /// Stores the leadership term `epoch` in `epoch.bin`, atomically and
    /// durably. Callers treat a failure as degraded durability (the
    /// in-memory epoch still fences), not as fatal.
    pub fn store_epoch(&mut self, epoch: u32) -> std::io::Result<()> {
        let crc = checksum(&epoch.to_le_bytes());
        let bytes = [epoch.to_le_bytes(), crc.to_le_bytes()].concat();
        self.wal.storage.replace(EPOCH, bytes)
    }

    /// The WAL records of the frames in `on_disk`, in order.
    fn read_on_disk(&self) -> std::io::Result<Vec<WalRecord>> {
        if self.on_disk.is_empty() {
            return Ok(Vec::new());
        }
        let mut records = self.wal.records()?;
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

/// Reads and validates the stored snapshot (one encoded
/// [`MsgTag::SnapshotReply`] frame): `(covered_seq, state_payload)`.
/// Any unreadable, torn, or mistagged blob — or one written by a build
/// with other payload codecs — is treated as absent.
fn load_snapshot(storage: &dyn Storage) -> Option<(u32, Vec<u8>)> {
    let bytes = storage.read_all(SNAPSHOT).ok()?;
    let frame = Frame::from_bytes(&bytes).ok()?;
    (frame.tag == MsgTag::SnapshotReply).then_some((frame.seq, frame.payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::each_storage;

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

    /// Closes `log` and opens its storage again, as a restarted
    /// coordinator would.
    fn reopen(log: ShardLog) -> ShardLog {
        ShardLog::over(log.wal.storage, 1).unwrap()
    }

    fn memory(log: &mut ShardLog) -> &mut Memory {
        log.wal.storage.as_memory().unwrap()
    }

    #[test]
    fn a_log_holds_no_frame_bytes_and_reads_its_suffix_back() {
        each_storage("suffix", |storage| {
            let mut log = ShardLog::over(storage, 1).unwrap();
            let frames: Vec<WalRecord> = (0..8).map(|seq| (seq, event(seq))).collect();
            for (seq, bytes) in &frames {
                assert!(log.append(*seq, bytes.as_slice()));
            }
            assert!(log.held.is_empty());
            assert_eq!(log.suffix_len(), frames.len());
            assert_eq!(log.suffix().unwrap(), frames, "byte for byte");
            assert!(
                !log.append(2, event(2)),
                "a logged frame is not logged twice"
            );

            log.install_snapshot(5, 0, b"state").unwrap();
            assert!(log.held.is_empty(), "the snapshot payload stays in storage");
            assert_eq!(snapshot_of(&log), Some((5, b"state".to_vec())));
            assert_eq!(log.snapshot_bytes(), 5);
            assert_eq!(log.suffix().unwrap(), frames[6..]);

            let log = reopen(log);
            assert!(log.held.is_empty(), "nor after a reopen");
            assert_eq!(log.suffix().unwrap(), frames[6..]);
            assert_eq!(snapshot_of(&log), Some((5, b"state".to_vec())));
            assert_eq!(log.next_seq(), 8);
            assert_eq!(log.wal_write_failures(), 0);
        });
    }

    #[test]
    fn the_directory_log_is_the_files_storage() {
        let dir = std::env::temp_dir().join(format!("rnn-shardlog-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = ShardLog::open(&dir, 1).unwrap();
        assert!(log.append(0, event(0)));
        log.install_snapshot(0, 0, b"state").unwrap();
        assert!(log.append(1, event(1)));
        log.store_epoch(2).unwrap();
        drop(log);
        assert_eq!(std::fs::read(dir.join(EVENTS)).unwrap(), event(1));
        let snapshot = Frame::encode(MsgTag::SnapshotReply, 0, 0, b"state");
        assert_eq!(std::fs::read(dir.join(SNAPSHOT)).unwrap(), snapshot);
        let log = ShardLog::open(&dir, 1).unwrap();
        assert_eq!((log.next_seq(), log.stored_epoch()), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_wal_write_is_counted_and_the_frames_stay_in_memory() {
        let mut log = ShardLog::volatile();
        let frames: Vec<WalRecord> = (0..6).map(|seq| (seq, event(seq))).collect();
        for (seq, bytes) in &frames[..3] {
            assert!(log.append(*seq, bytes.as_slice()));
        }
        memory(&mut log).writes_left = Some(0);
        for (seq, bytes) in &frames[3..] {
            assert!(log.append(*seq, bytes.as_slice()));
        }
        assert_eq!(
            log.wal_write_failures(),
            1,
            "one failure, then no more writes"
        );
        assert_eq!(log.held, frames[3..], "only the unwritten frames are held");
        assert_eq!(log.suffix().unwrap(), frames, "every frame, byte for byte");
        assert_eq!(log.next_seq(), 6);

        // The snapshot itself cannot be stored: nothing is dropped.
        assert!(log.install_snapshot(1, 0, b"state").is_err());
        assert_eq!(log.suffix().unwrap(), frames);
        assert_eq!(snapshot_of(&log), None);

        // The snapshot lands but the post-snapshot rewrite fails: the kept
        // suffix, read back from the old WAL where it was there, stays in
        // memory.
        memory(&mut log).writes_left = Some(1);
        log.install_snapshot(1, 0, b"state").unwrap();
        assert_eq!(log.wal_write_failures(), 2);
        assert_eq!(log.suffix().unwrap(), frames[2..]);
        assert_eq!(log.held, frames[2..]);
        assert_eq!(snapshot_of(&log), Some((1, b"state".to_vec())));

        // Once the storage takes writes again, the next snapshot's rewrite
        // puts the kept suffix back in the WAL only.
        memory(&mut log).writes_left = None;
        log.install_snapshot(3, 0, b"later").unwrap();
        assert_eq!(log.wal_write_failures(), 2);
        assert!(log.held.is_empty());
        assert_eq!(log.suffix().unwrap(), frames[4..]);
        let log = reopen(log);
        assert_eq!(log.suffix().unwrap(), frames[4..]);
        assert_eq!(snapshot_of(&log), Some((3, b"later".to_vec())));
    }

    #[test]
    fn open_after_a_crash_between_snapshot_and_wal_replace_keeps_only_the_suffix() {
        each_storage("crash", |storage| {
            let mut log = ShardLog::over(storage, 1).unwrap();
            for seq in 0..6 {
                assert!(log.append(seq, event(seq)));
            }
            // The crash: a snapshot covering seq <= 2 replaced the old one
            // and the process died before the WAL was rewritten, so the
            // WAL still holds records on both sides of the snapshot.
            let snapshot = Frame::encode(MsgTag::SnapshotReply, 2, 0, b"state");
            log.wal.storage.replace(SNAPSHOT, snapshot).unwrap();

            let mut log = reopen(log);
            assert_eq!(snapshot_of(&log), Some((2, b"state".to_vec())));
            assert_eq!(seqs(&log), vec![3, 4, 5], "exactly the uncovered suffix");
            assert_eq!(log.next_seq(), 6, "sequence numbers continue past it");
            assert!(!log.append(5, event(5)), "a held frame is not logged twice");
            assert!(log.append(6, event(6)));

            // A snapshot that leaves part of the suffix uncovered keeps
            // that part in the WAL too: the rewrite reads it back.
            log.install_snapshot(4, 0, b"later").unwrap();
            assert_eq!(seqs(&log), vec![5, 6]);
            assert!(log.held.is_empty());
            let kept = vec![(5, event(5)), (6, event(6))];
            assert_eq!(log.suffix().unwrap(), kept);
            let mut log = reopen(log);
            assert_eq!(snapshot_of(&log), Some((4, b"later".to_vec())));
            assert_eq!(
                log.suffix().unwrap(),
                kept,
                "the rewritten WAL holds them byte for byte"
            );
            assert_eq!(log.next_seq(), 7);

            // The same crash again, now over that kept suffix.
            assert!(log.append(7, event(7)));
            let snapshot = Frame::encode(MsgTag::SnapshotReply, 6, 0, b"last");
            log.wal.storage.replace(SNAPSHOT, snapshot).unwrap();
            let log = reopen(log);
            assert_eq!(snapshot_of(&log), Some((6, b"last".to_vec())));
            assert_eq!(log.suffix().unwrap(), vec![(7, event(7))]);
        });
    }

    #[test]
    fn epoch_round_trips_and_torn_records_read_as_zero() {
        each_storage("epoch", |storage| {
            let mut log = ShardLog::over(storage, 1).unwrap();
            assert_eq!(log.stored_epoch(), 0, "absent is epoch 0");
            log.store_epoch(7).unwrap();
            assert_eq!(log.stored_epoch(), 7);
            log.store_epoch(8).unwrap();
            let mut log = reopen(log);
            assert_eq!(log.stored_epoch(), 8, "the replace is durable");
            // Corrupt the stored value: the checksum must reject it.
            let mut bytes = log.wal.storage.read_all(EPOCH).unwrap();
            bytes[0] ^= 0x01;
            log.wal.storage.replace(EPOCH, bytes).unwrap();
            assert_eq!(log.stored_epoch(), 0, "corrupt epoch reads as 0");
            // A short (torn) record also reads as 0.
            log.wal.storage.replace(EPOCH, vec![1, 2, 3]).unwrap();
            assert_eq!(log.stored_epoch(), 0);
        });
    }

    /// Appends 8 frames, snapshots at 5 (6 and 7 stay in the WAL),
    /// appends 4 more, snapshots at 10 and stores epoch 4 over epoch 3,
    /// with every storage write past the first `writes` failing. Returns
    /// the log and the writes the script made.
    fn crash_script(writes: Option<usize>) -> (ShardLog, usize) {
        let mut log = ShardLog::over(Box::new(Memory::default()), 3).unwrap();
        log.store_epoch(3).unwrap();
        let budget = writes.unwrap_or(usize::MAX);
        memory(&mut log).writes_left = Some(budget);
        for seq in 0..8 {
            assert!(log.append(seq, event(seq)));
        }
        let _ = log.install_snapshot(5, 3, b"first");
        for seq in 8..12 {
            assert!(log.append(seq, event(seq)));
        }
        let _ = log.install_snapshot(10, 4, b"second");
        let _ = log.store_epoch(4);
        let left = memory(&mut log).writes_left.unwrap_or(0);
        (log, budget - left)
    }

    #[test]
    fn a_crash_after_any_storage_write_reopens_every_synced_frame_exactly_once() {
        let (_, total) = crash_script(None);
        // 8 appends + 2 syncs, snapshot + rewrite, 4 appends + 1 sync,
        // snapshot + rewrite, epoch.
        assert_eq!(total, 20);
        let mut durable_before = 0;
        for k in 0..=total {
            let (mut log, _) = crash_script(Some(k));
            let crashed = memory(&mut log).crash();
            // What the crash kept, read straight from the storage: the
            // snapshot's covered prefix and every synced WAL record.
            let snapshot = load_snapshot(&crashed);
            let covered = snapshot.as_ref().map(|(c, _)| *c);
            let mut synced: Vec<u32> = crate::wal::scan(&crashed.read_all(EVENTS).unwrap())
                .0
                .into_iter()
                .map(|(seq, _)| seq)
                .collect();
            synced.extend(0..covered.map_or(0, |c| c + 1));
            synced.sort_unstable();
            synced.dedup();

            let mut log = ShardLog::over(Box::new(crashed), 3).unwrap();
            let next = log.next_seq();
            let start = covered.map_or(0, |c| c + 1);
            let suffix = log.suffix().unwrap();
            let expected: Vec<WalRecord> = (start..next).map(|seq| (seq, event(seq))).collect();
            assert_eq!(suffix, expected, "k = {k}: the uncovered frames, each once");
            assert_eq!(
                synced,
                (0..next).collect::<Vec<_>>(),
                "k = {k}: snapshot + suffix cover exactly the synced frames"
            );
            assert!(next >= durable_before, "k = {k}: a synced frame was lost");
            durable_before = next;
            match snapshot {
                Some((5, payload)) => assert_eq!(payload, b"first"),
                Some((10, payload)) => assert_eq!(payload, b"second"),
                other => assert_eq!(other, None, "k = {k}"),
            }

            assert!(log.append(next, event(next)), "k = {k}: seq continues");
            if next > 0 {
                assert!(!log.append(next - 1, event(next - 1)), "k = {k}");
            }
            let epoch = log.stored_epoch();
            assert_eq!(epoch, if k == total { 4 } else { 3 }, "k = {k}");
        }
        assert_eq!(
            durable_before, 12,
            "a crash after the last write keeps it all"
        );
    }
}
