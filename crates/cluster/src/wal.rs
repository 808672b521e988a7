//! Per-shard write-ahead log of routed input events.
//!
//! The WAL is the event suffix of a [`ShardLog`](crate::log::ShardLog),
//! one blob of the log's storage (see the `storage` module): a file for a
//! log on disk, memory otherwise — its only copy either way. Every event
//! frame sent to a shard is appended **verbatim** (the exact
//! [`Frame::to_bytes`] byte string, so each record carries the frame's
//! own length prefix and CRC-32C — no second framing layer to keep in
//! sync). Syncs are batched: the blob is synced every
//! [`DurabilityConfig::fsync_every`](crate::client::DurabilityConfig)
//! appends, trading a bounded window of unsynced events for fewer forced
//! flushes.
//!
//! On reopen the log is scanned record by record and cut at the first
//! incomplete or invalid record — a **torn tail** from a crash
//! mid-append (or mid-page-flush) is discarded cleanly rather than
//! poisoning recovery. Anything before the tear decodes exactly as it
//! was sent; anything after it was never acknowledged as durable.
//!
//! The log is rewritten whenever a monitor-state snapshot becomes
//! durable ([`ShardLog::install_snapshot`](crate::log::ShardLog::install_snapshot)):
//! the snapshot covers the logged events, so the WAL keeps only the
//! post-snapshot suffix and recovery replays only that. That bound —
//! replay work proportional to the WAL suffix, not the run length — is
//! what the recovery benchmark gates. With replication enabled the
//! snapshot is additionally gated behind the replicated log's **commit
//! index**, so no follower can be promoted into a state the truncated
//! log can no longer reproduce.

use std::borrow::Cow;
use std::io::{Error, ErrorKind};
use std::path::Path;

use crate::frame::Frame;
use crate::storage::{parent_dir, Files, Storage};

/// One recovered WAL record: the frame's sequence number with its
/// verbatim on-disk (= on-wire) bytes.
pub type WalRecord = (u32, Vec<u8>);

/// Splits `bytes` into the leading run of valid WAL records. Returns the
/// decoded records — each frame's sequence number with its verbatim
/// bytes — and the byte length of that valid prefix. Scanning stops (it
/// never panics and never errors) at the first record that is
/// incomplete, undecodable, or fails its checksum; everything after that
/// offset is torn tail.
pub fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    // A record needs at least a length prefix; anything shorter is tail.
    while let Some(prefix) = bytes.get(off..off + 4) {
        // lint: allow(panic-free-wire): a 4-byte slice always converts to [u8; 4]
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        let Some(total) = len.checked_add(4) else {
            break; // absurd length: torn or corrupt
        };
        let Some(record) = bytes.get(off..off + total) else {
            break; // incomplete record: torn tail
        };
        let Ok(frame) = Frame::from_bytes(record) else {
            break; // checksum / framing failure: torn tail
        };
        records.push((frame.seq, record.to_vec()));
        off += total;
    }
    (records, off)
}

/// An append-only log of event frames with batched sync and torn-tail
/// recovery, kept as one blob of a storage. See the module docs for the
/// format and guarantees.
pub struct Wal {
    /// The storage the log's blob lives in; a [`ShardLog`](crate::log::ShardLog)
    /// keeps its snapshot and epoch beside it.
    pub(crate) storage: Box<dyn Storage>,
    name: String,
    bytes: u64,
    fsync_every: u32,
    unsynced: u32,
}

impl Wal {
    /// Opens (or creates) the log file at `path`, recovering the valid
    /// record prefix of any existing file: the surviving records are
    /// returned and a torn tail, if present, is cut away before the log
    /// accepts new appends.
    ///
    /// `fsync_every` batches durability: the file is synced once per
    /// that many appends (values of 0 are treated as 1 — sync always).
    pub fn open(path: &Path, fsync_every: u32) -> std::io::Result<(Self, Vec<WalRecord>)> {
        let name = path.file_name().and_then(|name| name.to_str());
        let name = name.ok_or_else(|| Error::new(ErrorKind::InvalidInput, "no WAL file name"))?;
        Self::over(Box::new(Files::new(parent_dir(path))?), name, fsync_every)
    }

    /// [`Self::open`] over the blob `name` of `storage`.
    pub(crate) fn over(
        mut storage: Box<dyn Storage>,
        name: &str,
        fsync_every: u32,
    ) -> std::io::Result<(Self, Vec<WalRecord>)> {
        let mut bytes = storage.read_all(name)?;
        let (records, valid_len) = scan(&bytes);
        if valid_len < bytes.len() || bytes.is_empty() {
            // Cut the torn tail (or create the blob) before the first
            // append lands behind it.
            bytes.truncate(valid_len);
            storage.replace(name, bytes)?;
        }
        let wal = Self {
            storage,
            name: name.to_owned(),
            bytes: valid_len as u64,
            fsync_every: fsync_every.max(1),
            unsynced: 0,
        };
        Ok((wal, records))
    }

    /// Appends one record (a complete encoded frame) and syncs if the
    /// batch window is full.
    pub fn append(&mut self, frame_bytes: &[u8]) -> std::io::Result<()> {
        self.push(&mut Cow::Borrowed(frame_bytes))
    }

    /// [`Self::append`] of a frame the storage may take instead of
    /// copying (see the `storage` module): `frame` may be left empty.
    pub(crate) fn push(&mut self, frame: &mut Cow<'_, [u8]>) -> std::io::Result<()> {
        let len = frame.len() as u64;
        self.storage.append(&self.name, frame)?;
        self.bytes += len;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.storage.sync(&self.name)?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Empties the log, atomically and durably.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.rewrite(Vec::new())
    }

    /// Replaces the log's records with `records` (complete encoded
    /// frames, back to back), atomically and durably: a crash leaves the
    /// old log or the new one.
    pub(crate) fn rewrite(&mut self, records: Vec<u8>) -> std::io::Result<()> {
        let bytes = records.len() as u64;
        self.storage.replace(&self.name, records)?;
        self.bytes = bytes;
        self.unsynced = 0;
        Ok(())
    }

    /// Current log size in bytes (the replay-suffix bound).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads the log back: its leading run of valid records ([`scan`]).
    pub fn records(&self) -> std::io::Result<Vec<WalRecord>> {
        Ok(scan(&self.storage.read_all(&self.name)?).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MsgTag;
    use crate::storage::each_storage;

    fn record(seq: u32, payload: &[u8]) -> Vec<u8> {
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload: payload.to_vec(),
        }
        .to_bytes()
    }

    /// Closes `wal` and opens its blob again, as a restarted process would.
    fn reopen(wal: Wal, fsync_every: u32) -> (Wal, Vec<WalRecord>) {
        Wal::over(wal.storage, "shard.wal", fsync_every).unwrap()
    }

    #[test]
    fn scan_recovers_full_prefix_and_rejects_every_torn_tail() {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 0..5u32 {
            log.extend_from_slice(&record(seq, &vec![seq as u8; 7 + seq as usize]));
            boundaries.push(log.len());
        }
        // Truncating at EVERY byte offset keeps exactly the records whose
        // final byte survived — and never panics.
        for cut in 0..=log.len() {
            let (records, valid_len) = scan(&log[..cut]);
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(records.len(), expect, "cut at {cut}");
            assert_eq!(valid_len, boundaries[expect], "cut at {cut}");
            for (i, (seq, bytes)) in records.iter().enumerate() {
                assert_eq!(*seq, i as u32);
                assert_eq!(Frame::from_bytes(bytes).unwrap().seq, i as u32);
            }
        }
    }

    #[test]
    fn scan_stops_at_corruption_not_just_truncation() {
        let mut log = record(1, b"first");
        let second_at = log.len();
        log.extend_from_slice(&record(2, b"second"));
        log[second_at + 6] ^= 0x01; // corrupt record 2 past its prefix
        let (records, valid_len) = scan(&log);
        assert_eq!(records.len(), 1);
        assert_eq!(valid_len, second_at);
    }

    #[test]
    fn wal_reopen_truncates_torn_tail_and_replays_records() {
        each_storage("wal-torn", |storage| {
            let (mut wal, recovered) = Wal::over(storage, "shard.wal", 1).unwrap();
            assert!(recovered.is_empty());
            for seq in 0..3u32 {
                wal.append(&record(seq, b"payload")).unwrap();
            }
            let clean_bytes = wal.bytes();

            // Tear the tail: append half a record's worth of garbage.
            let torn = &record(3, b"torn")[..9];
            wal.storage.append("shard.wal", &mut torn.into()).unwrap();

            let (wal, recovered) = reopen(wal, 1);
            assert_eq!(recovered.len(), 3);
            assert_eq!(wal.bytes(), clean_bytes);
            let stored = wal.storage.read_all("shard.wal").unwrap();
            assert_eq!(stored.len() as u64, clean_bytes, "the tail is cut away");
            for (i, (seq, _)) in recovered.iter().enumerate() {
                assert_eq!(*seq, i as u32);
            }
        });
    }

    #[test]
    fn wal_reset_empties_the_log() {
        each_storage("wal-reset", |storage| {
            let (mut wal, _) = Wal::over(storage, "shard.wal", 4).unwrap();
            wal.append(&record(0, b"x")).unwrap();
            wal.append(&record(1, b"y")).unwrap();
            assert!(wal.bytes() > 0);
            wal.reset().unwrap();
            assert_eq!(wal.bytes(), 0);
            wal.append(&record(2, b"z")).unwrap();

            let (_, recovered) = reopen(wal, 1);
            assert_eq!(recovered.len(), 1);
            assert_eq!(recovered[0].0, 2);
        });
    }

    #[test]
    fn wal_open_reads_a_file_path() {
        let dir = std::env::temp_dir().join(format!("rnn-wal-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.wal");
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append(&record(0, b"x")).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![(0, record(0, b"x"))]);
        assert_eq!(std::fs::read(&path).unwrap(), record(0, b"x"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
