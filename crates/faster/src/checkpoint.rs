//! Fold-over checkpointing and recovery.
//!
//! The paper (§II-B, Heterogeneous Storage) notes that MLKV periodically
//! checkpoints the local NVMe-resident store to durable storage. This module
//! implements FASTER's simplest checkpoint flavour — a *fold-over* checkpoint:
//! flush every in-memory page of the hybrid log to the device, then persist a
//! small manifest with the log boundaries and the hash index's size. The
//! index itself is not persisted: recovery builds one of the recorded size
//! and rebuilds it by scanning the log and installing every record as its
//! key's head, in log order. Each record carries the head it observed, and
//! which tagged index entry a key uses depends only on the key and the index
//! size (see [`crate::hash_index`]), so the rebuild reconstructs every chain
//! exactly — overflow buckets included, since they grow as the scan claims
//! entries. Reopening with a different `index_buckets` therefore still
//! rebuilds at the checkpoint's size.

use std::fs;
use std::path::Path;

use mlkv_storage::{StorageError, StorageResult};

use crate::store::FasterKv;

/// File name of the checkpoint manifest inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Checkpoint metadata persisted alongside the log device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Log tail at checkpoint time.
    pub tail: u64,
    /// Head (in-memory window start) at checkpoint time.
    pub head: u64,
    /// Read-only boundary at checkpoint time.
    pub read_only: u64,
    /// Number of live records at checkpoint time.
    pub live_records: u64,
    /// Size of the hash index the log's record chains were linked against,
    /// in entries ([`crate::hash_index::HashIndex::entries`]).
    pub index_entries: u64,
}

impl Manifest {
    const MAGIC: u64 = 0x4D4C_4B56_4350_4B32; // "MLKVCPK2"
    /// Manifests of the untagged, one-head-per-bucket index: their record
    /// chains link every bucket-mate, which no tagged index rebuilds.
    const UNTAGGED_MAGIC: u64 = 0x4D4C_4B56_4350_4B31; // "MLKVCPK1"
    const LEN: usize = 48;

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&Self::MAGIC.to_le_bytes());
        out.extend_from_slice(&self.tail.to_le_bytes());
        out.extend_from_slice(&self.head.to_le_bytes());
        out.extend_from_slice(&self.read_only.to_le_bytes());
        out.extend_from_slice(&self.live_records.to_le_bytes());
        out.extend_from_slice(&self.index_entries.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        if bytes.len() >= 8 && word(0) == Self::UNTAGGED_MAGIC {
            return Err(StorageError::Checkpoint(
                "checkpoint written by the untagged hash index; its record chains cannot be rebuilt"
                    .into(),
            ));
        }
        if bytes.len() < Self::LEN {
            return Err(StorageError::Checkpoint("manifest truncated".into()));
        }
        if word(0) != Self::MAGIC {
            return Err(StorageError::Checkpoint("bad manifest magic".into()));
        }
        Ok(Self {
            tail: word(1),
            head: word(2),
            read_only: word(3),
            live_records: word(4),
            index_entries: word(5),
        })
    }
}

/// True when `dir` contains a checkpoint manifest.
pub fn manifest_exists(dir: &Path) -> bool {
    dir.join(MANIFEST_FILE).exists()
}

/// Read and validate the manifest in `dir`.
pub fn read_manifest(dir: &Path) -> StorageResult<Manifest> {
    let bytes = fs::read(dir.join(MANIFEST_FILE))?;
    Manifest::decode(&bytes)
}

/// Take a fold-over checkpoint of `store` into `dir`.
///
/// Checkpoints are assumed to run without concurrent writers (the trainer
/// quiesces before checkpointing): a record appended between the fold-over
/// below and the WAL rotation at the end would be covered by neither the
/// manifest nor the surviving WAL generation.
pub fn write_checkpoint(store: &FasterKv, dir: &Path) -> StorageResult<()> {
    fs::create_dir_all(dir)?;
    // 1. Fold over: push every dirty page to the device, then harden it — the
    //    manifest must never point at log bytes the device could still lose.
    store.log().flush_all()?;
    store.log().sync()?;
    // 2. Persist the manifest. Write-then-rename so a crash mid-checkpoint never
    //    leaves a truncated manifest behind.
    let manifest = Manifest {
        tail: store.log().tail().raw(),
        head: store.log().head().raw(),
        read_only: store.log().read_only().raw(),
        live_records: store.approximate_len() as u64,
        index_entries: store.index().entries() as u64,
    };
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    fs::write(&tmp, manifest.encode())?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    // 3. The checkpoint now covers every logged record: start a fresh WAL
    //    generation and garbage-collect the superseded ones.
    store.wal.rotate()?;
    Ok(())
}

// `approximate_len` comes from the KvStore trait.
use mlkv_storage::KvStore;

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::{KvStore, StoreConfig};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-faster-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            tail: 100,
            head: 50,
            read_only: 75,
            live_records: 7,
            index_entries: 1 << 14,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert!(Manifest::decode(&[0u8; 10]).is_err());
        let mut bad = m.encode();
        bad[0] ^= 0xFF;
        assert!(Manifest::decode(&bad).is_err());
        let mut untagged = m.encode();
        untagged[..8].copy_from_slice(&Manifest::UNTAGGED_MAGIC.to_le_bytes());
        let err = Manifest::decode(&untagged[..40]).unwrap_err();
        assert!(err.to_string().contains("untagged"), "{err}");
    }

    #[test]
    fn checkpoint_and_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256);
        {
            let store = FasterKv::open(cfg.clone()).unwrap();
            for k in 0..500u64 {
                store.put(k, &[k as u8; 40]).unwrap();
            }
            store.delete(10).unwrap();
            store.put(3, &[99u8; 40]).unwrap();
            store.checkpoint().unwrap();
        }
        // Reopen: recovery must rebuild the index and counts.
        let store = FasterKv::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 499);
        assert_eq!(store.get(3).unwrap(), vec![99u8; 40]);
        assert_eq!(store.get(499).unwrap(), vec![243u8; 40]);
        assert!(store.get(10).unwrap_err().is_not_found());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_store_accepts_new_writes() {
        let dir = temp_dir("newwrites");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256);
        {
            let store = FasterKv::open(cfg.clone()).unwrap();
            for k in 0..100u64 {
                store.put(k, &[1u8; 16]).unwrap();
            }
            store.checkpoint().unwrap();
        }
        let store = FasterKv::open(cfg).unwrap();
        store.put(1000, &[2u8; 16]).unwrap();
        store.put(5, &[3u8; 16]).unwrap();
        assert_eq!(store.get(1000).unwrap(), vec![2u8; 16]);
        assert_eq!(store.get(5).unwrap(), vec![3u8; 16]);
        assert_eq!(store.get(99).unwrap(), vec![1u8; 16]);
        assert_eq!(store.approximate_len(), 101);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_means_fresh_store() {
        let dir = temp_dir("fresh");
        assert!(!manifest_exists(&dir));
        let cfg = StoreConfig::on_disk(&dir).with_page_size(1 << 10);
        let store = FasterKv::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
