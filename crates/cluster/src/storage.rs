//! The storage seam under a [`ShardLog`](crate::log::ShardLog): named
//! blobs with four operations — append, sync, read-all and atomic
//! replace — and two implementations.
//!
//! * [`Files`] keeps each blob as a file in one directory: the on-disk
//!   log of a link with [`DurabilityConfig::dir`](crate::client::DurabilityConfig)
//!   set.
//! * [`Memory`] keeps each blob in process memory: every follower's log,
//!   and a link's without a directory. In tests its writes can be made
//!   to fail (`writes_left`), and `Memory::crash` leaves what a power
//!   cut would.
//!
//! The log runs one logic over either; nothing above this module knows
//! which one it has.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Result, Write};
use std::path::{Path, PathBuf};

/// Named blobs a shard log keeps its event file, snapshot and epoch in.
pub(crate) trait Storage: Send {
    /// Appends `bytes` to the blob `name`, which must exist. Not durable
    /// until a [`Self::sync`] of that blob returns. A storage that keeps
    /// blobs in memory takes owned bytes instead of copying them, leaving
    /// `bytes` empty — but never from an append that fails.
    fn append(&mut self, name: &str, bytes: &mut Cow<'_, [u8]>) -> Result<()>;

    /// Makes every byte appended to `name` so far durable. A storage that
    /// takes appended bytes never fails a sync: the log keeps the bytes
    /// of a frame it could not make durable, so they must still be there.
    fn sync(&mut self, name: &str) -> Result<()>;

    /// The blob's bytes; an absent blob reads as empty.
    fn read_all(&self, name: &str) -> Result<Vec<u8>>;

    /// Replaces (or creates) the blob `name` with `bytes`, durable and
    /// atomic on return: a crash at any point leaves the old bytes or the
    /// new ones, never a mix, and once this returns `Ok` a crash leaves
    /// the new ones.
    fn replace(&mut self, name: &str, bytes: Vec<u8>) -> Result<()>;

    /// The memory storage behind this seam, if that is what it is.
    #[cfg(test)]
    fn as_memory(&mut self) -> Option<&mut Memory> {
        None
    }
}

/// Blobs as files in one directory.
pub(crate) struct Files(PathBuf);

impl Files {
    /// The directory `dir`, created if missing along with any missing
    /// parent; the parent of each directory created is synced, so its
    /// entry is durable.
    pub(crate) fn new(dir: &Path) -> Result<Self> {
        if !dir.is_dir() {
            Self::new(parent_dir(dir))?;
            std::fs::create_dir(dir)?;
            File::open(parent_dir(dir))?.sync_all()?;
        }
        Ok(Self(dir.to_path_buf()))
    }
}

impl Storage for Files {
    fn append(&mut self, name: &str, bytes: &mut Cow<'_, [u8]>) -> Result<()> {
        let mut file = OpenOptions::new().append(true).open(self.0.join(name))?;
        file.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        File::open(self.0.join(name))?.sync_data()
    }

    fn read_all(&self, name: &str) -> Result<Vec<u8>> {
        match std::fs::read(self.0.join(name)) {
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
            read => read,
        }
    }

    /// Written to `<stem>.tmp`, synced, renamed over `name`, and the
    /// directory synced, so the rename itself survives a crash.
    fn replace(&mut self, name: &str, bytes: Vec<u8>) -> Result<()> {
        let path = self.0.join(name);
        let tmp = path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        std::fs::rename(&tmp, &path)?;
        File::open(&self.0)?.sync_all()
    }
}

/// The directory holding `path` (`.` for a bare name).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    parent.unwrap_or(Path::new("."))
}

/// Blobs in process memory.
#[derive(Default)]
pub(crate) struct Memory {
    blobs: HashMap<String, Blob>,
    /// Writes (appends, syncs and replaces) left before every later one
    /// fails, as on a dead disk (a sync is lost instead); `None` never
    /// fails.
    #[cfg(test)]
    pub(crate) writes_left: Option<usize>,
}

/// One blob: its writes as separate chunks (a follower's suffix is freed
/// frame by frame, not kept as one buffer's capacity), the first
/// `synced` of them durable.
#[derive(Clone, Default)]
struct Blob {
    chunks: Vec<Vec<u8>>,
    synced: usize,
}

impl Memory {
    fn write(&mut self, name: &str) -> Result<&mut Blob> {
        #[cfg(test)]
        if let Some(left) = &mut self.writes_left {
            *left = left
                .checked_sub(1)
                .ok_or_else(|| std::io::Error::other("injected write failure"))?;
        }
        Ok(self.blobs.entry(name.to_owned()).or_default())
    }

    /// What a crash leaves: each blob's synced chunks, and a storage
    /// whose writes work again.
    #[cfg(test)]
    pub(crate) fn crash(&self) -> Self {
        let blobs = self.blobs.iter().map(|(name, blob)| {
            let mut blob = blob.clone();
            blob.chunks.truncate(blob.synced);
            (name.clone(), blob)
        });
        Self {
            blobs: blobs.collect(),
            writes_left: None,
        }
    }
}

impl Storage for Memory {
    fn append(&mut self, name: &str, bytes: &mut Cow<'_, [u8]>) -> Result<()> {
        let blob = self.write(name)?;
        blob.chunks.push(std::mem::take(bytes).into_owned());
        Ok(())
    }

    /// A sync past the write budget is lost, not failed (see
    /// [`Storage::sync`]): it returns `Ok` and syncs nothing, as a disk
    /// that acknowledges a flush it never makes.
    fn sync(&mut self, name: &str) -> Result<()> {
        if let Ok(blob) = self.write(name) {
            blob.synced = blob.chunks.len();
        }
        Ok(())
    }

    fn read_all(&self, name: &str) -> Result<Vec<u8>> {
        let blob = self.blobs.get(name);
        Ok(blob.map_or_else(Vec::new, |blob| blob.chunks.concat()))
    }

    fn replace(&mut self, name: &str, bytes: Vec<u8>) -> Result<()> {
        *self.write(name)? = Blob {
            chunks: vec![bytes],
            synced: 1,
        };
        Ok(())
    }

    #[cfg(test)]
    fn as_memory(&mut self) -> Option<&mut Memory> {
        Some(self)
    }
}

/// Runs `test` over a fresh storage of each kind: files in an empty
/// temporary directory, then memory.
#[cfg(test)]
pub(crate) fn each_storage(name: &str, mut test: impl FnMut(Box<dyn Storage>)) {
    let dir = std::env::temp_dir().join(format!("rnn-storage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    test(Box::new(Files::new(&dir).unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
    test(Box::new(Memory::default()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_round_trips_and_leaves_no_tmp_behind() {
        each_storage("replace", |mut storage| {
            assert_eq!(
                storage.read_all("blob.bin").unwrap(),
                b"",
                "absent is empty"
            );
            storage.replace("blob.bin", b"first".to_vec()).unwrap();
            storage.replace("blob.bin", b"second".to_vec()).unwrap();
            assert_eq!(storage.read_all("blob.bin").unwrap(), b"second");

            // Appends land behind a replaced blob, not in the file it replaced.
            storage.replace("log.wal", b"ab".to_vec()).unwrap();
            storage.append("log.wal", &mut b"cd"[..].into()).unwrap();
            storage.replace("log.wal", b"xy".to_vec()).unwrap();
            storage.append("log.wal", &mut b"z"[..].into()).unwrap();
            storage.sync("log.wal").unwrap();
            assert_eq!(storage.read_all("log.wal").unwrap(), b"xyz");
        });
        let dir = std::env::temp_dir().join(format!("rnn-storage-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut files = Files::new(&dir.join("nested")).unwrap();
        files.replace("snapshot.bin", vec![7; 64]).unwrap();
        let names: Vec<_> = std::fs::read_dir(dir.join("nested"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["snapshot.bin"], "no *.tmp left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_keeps_only_synced_writes_and_injected_failures_write_nothing() {
        let mut memory = Memory::default();
        memory.replace("log.wal", b"a".to_vec()).unwrap();
        memory.append("log.wal", &mut b"b"[..].into()).unwrap();
        memory.sync("log.wal").unwrap();
        let mut owned = Cow::Owned(b"c".to_vec());
        memory.append("log.wal", &mut owned).unwrap();
        assert!(owned.is_empty(), "owned bytes are taken, not copied");
        assert_eq!(memory.read_all("log.wal").unwrap(), b"abc");
        assert_eq!(memory.crash().read_all("log.wal").unwrap(), b"ab");

        memory.writes_left = Some(1);
        memory.append("log.wal", &mut b"d"[..].into()).unwrap();
        let mut refused = Cow::Owned(b"e".to_vec());
        assert!(memory.append("log.wal", &mut refused).is_err());
        assert_eq!(refused, &b"e"[..], "a failed append takes nothing");
        memory.sync("log.wal").unwrap();
        assert!(memory.replace("log.wal", Vec::new()).is_err());
        assert_eq!(
            memory.read_all("log.wal").unwrap(),
            b"abcd",
            "reads still work"
        );
        assert_eq!(
            memory.crash().read_all("log.wal").unwrap(),
            b"ab",
            "the sync past the budget was lost"
        );
    }
}
