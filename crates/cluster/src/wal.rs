//! Per-shard write-ahead log of routed input events.
//!
//! The WAL is the event suffix of a disk-backed
//! [`ShardLog`](crate::log::ShardLog) — its only copy: every event frame
//! sent to a shard is appended **verbatim**
//! (the exact [`Frame::to_bytes`] byte string, so each record carries
//! the frame's own length prefix and CRC-32C — no second framing
//! layer to keep in sync). `fsync` is batched: the file is synced every
//! [`DurabilityConfig::fsync_every`](crate::client::DurabilityConfig)
//! appends, trading a bounded window of unsynced events for fewer
//! forced flushes.
//!
//! On reopen the log is scanned record by record and truncated at the
//! first incomplete or invalid record — a **torn tail** from a crash
//! mid-append (or mid-page-flush) is discarded cleanly rather than
//! poisoning recovery. Anything before the tear decodes exactly as it
//! was sent; anything after it was never acknowledged as durable.
//!
//! The log is truncated whenever a monitor-state snapshot becomes
//! durable ([`ShardLog::install_snapshot`](crate::log::ShardLog::install_snapshot),
//! the only caller of [`Wal::reset`]): the snapshot covers the logged
//! events, so recovery replays only the post-snapshot suffix. That bound
//! — replay work proportional to the WAL suffix, not the run length — is
//! what the recovery benchmark gates.
//!
//! With replication enabled the truncation point is additionally gated
//! behind the replicated log's **commit index**: a snapshot (and the
//! WAL reset it triggers) only covers events every live follower has
//! acked, so no follower can be promoted into a state the truncated log
//! can no longer reproduce. The shard log's leadership **epoch** is
//! persisted beside the WAL ([`store_epoch`] / [`load_epoch`]) so a
//! restarted coordinator resumes fencing from its last known term
//! instead of silently rejoining at epoch 0.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rnn_roadnet::wire::{checksum, put_u32};

use crate::frame::Frame;

/// File name of the persisted leadership epoch, beside `events.wal`.
const EPOCH_FILE: &str = "epoch.bin";

/// Persists `epoch` under `dir` as a self-checksummed record, written
/// tmp + fsync + rename so a crash leaves either the old epoch or the
/// new one, never a torn file. Callers treat failures as degraded
/// durability (the in-memory epoch still fences), not as fatal.
pub fn store_epoch(dir: &Path, epoch: u32) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(8);
    put_u32(&mut bytes, epoch);
    let crc = checksum(&bytes);
    put_u32(&mut bytes, crc);
    let tmp = dir.join("epoch.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))
}

/// Reads the persisted leadership epoch under `dir`. Absent, short, or
/// checksum-failing files read as epoch 0 — the pre-replication default
/// — so the caller never trusts a torn record.
pub fn load_epoch(dir: &Path) -> u32 {
    let Ok(bytes) = std::fs::read(dir.join(EPOCH_FILE)) else {
        return 0;
    };
    let (Some(value), Some(crc)) = (bytes.get(..4), bytes.get(4..8)) else {
        return 0;
    };
    // lint: allow(panic-free-wire): a 4-byte slice always converts to [u8; 4]
    let epoch = u32::from_le_bytes(value.try_into().expect("4-byte slice"));
    // lint: allow(panic-free-wire): a 4-byte slice always converts to [u8; 4]
    let stored = u32::from_le_bytes(crc.try_into().expect("4-byte slice"));
    if checksum(value) != stored {
        return 0;
    }
    epoch
}

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

/// An append-only log of event frames with batched fsync and torn-tail
/// recovery. See the module docs for the format and guarantees.
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    fsync_every: u32,
    unsynced: u32,
}

impl Wal {
    /// Opens (or creates) the log at `path`, recovering the valid record
    /// prefix of any existing file: the surviving records are returned
    /// and a torn tail, if present, is truncated away before the log
    /// accepts new appends.
    ///
    /// `fsync_every` batches durability: the file is synced once per
    /// that many appends (values of 0 are treated as 1 — sync always).
    pub fn open(path: &Path, fsync_every: u32) -> std::io::Result<(Self, Vec<WalRecord>)> {
        let mut existing = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut existing)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let (records, valid_len) = scan(&existing);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        if valid_len as u64 != file.metadata()?.len() {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                bytes: valid_len as u64,
                fsync_every: fsync_every.max(1),
                unsynced: 0,
            },
            records,
        ))
    }

    /// Appends one record (a complete encoded frame) and syncs if the
    /// batch window is full.
    pub fn append(&mut self, frame_bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(frame_bytes)?;
        self.bytes += frame_bytes.len() as u64;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Empties the log — called once a snapshot covering every logged
    /// event has become durable (snapshot first, truncate after: the
    /// ordering is what makes the pair crash-safe).
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.bytes = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Current log size in bytes (the replay-suffix bound).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads the log back: its leading run of valid records ([`scan`]).
    pub fn records(&self) -> std::io::Result<Vec<WalRecord>> {
        Ok(scan(&std::fs::read(&self.path)?).0)
    }

    /// Swaps the write handle for a read-only one, so every later write
    /// fails (`false` restores a writable handle at the end of the file).
    #[cfg(test)]
    pub(crate) fn set_read_only(&mut self, read_only: bool) -> std::io::Result<()> {
        self.file = if read_only {
            File::open(&self.path)?
        } else {
            let mut file = OpenOptions::new().write(true).open(&self.path)?;
            file.seek(SeekFrom::End(0))?;
            file
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MsgTag;

    fn record(seq: u32, payload: &[u8]) -> Vec<u8> {
        Frame {
            tag: MsgTag::TickEvents,
            seq,
            epoch: 0,
            payload: payload.to_vec(),
        }
        .to_bytes()
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
        let dir = std::env::temp_dir().join(format!("rnn-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, recovered) = Wal::open(&path, 1).unwrap();
        assert!(recovered.is_empty());
        for seq in 0..3u32 {
            wal.append(&record(seq, b"payload")).unwrap();
        }
        let clean_bytes = wal.bytes();
        drop(wal);

        // Tear the tail: append half a record's worth of garbage.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&record(3, b"torn")[..9]).unwrap();
        drop(f);

        let (wal, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(wal.bytes(), clean_bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_bytes);
        for (i, (seq, _)) in recovered.iter().enumerate() {
            assert_eq!(*seq, i as u32);
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn epoch_round_trips_and_torn_files_read_as_zero() {
        let dir = std::env::temp_dir().join(format!("rnn-epoch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(load_epoch(&dir), 0, "absent file is epoch 0");
        store_epoch(&dir, 7).unwrap();
        assert_eq!(load_epoch(&dir), 7);
        store_epoch(&dir, 8).unwrap();
        assert_eq!(load_epoch(&dir), 8, "rename replaces atomically");
        // Corrupt the stored value: the checksum must reject it.
        let path = dir.join(EPOCH_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_epoch(&dir), 0, "corrupt epoch reads as 0");
        // A short (torn) file also reads as 0.
        std::fs::write(&path, [1, 2, 3]).unwrap();
        assert_eq!(load_epoch(&dir), 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn wal_reset_empties_the_log() {
        let dir = std::env::temp_dir().join(format!("rnn-wal-reset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 4).unwrap();
        wal.append(&record(0, b"x")).unwrap();
        wal.append(&record(1, b"y")).unwrap();
        assert!(wal.bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(&record(2, b"z")).unwrap();
        drop(wal);

        let (_, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 2);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
