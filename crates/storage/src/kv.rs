//! The `KvStore` trait: the uniform key-value interface (`Get`, `Put`, `Rmw`,
//! `Delete`) the paper identifies as the clean decoupling point between
//! application logic and storage management (§II-C, Opportunities).
//!
//! All engines in the workspace implement this trait; the MLKV core layer
//! (`mlkv` crate) is generic over it, which is exactly how the paper's MLKV can
//! "also be applied to B+tree based key-value stores".

use std::sync::Arc;

use crate::error::{StorageError, StorageResult};
use crate::metrics::StorageMetrics;

/// Keys are 64-bit sparse-feature identifiers, matching the paper's setting where
/// the computation layer addresses embeddings by the unique id of a sparse feature.
pub type Key = u64;

/// A batch of writes — upserts and deletes — applied together, in
/// occurrence order, by [`KvStore::write_batch`]: a key written twice ends
/// with its last op. Every per-key `put` and `delete` is a batch of one.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<(Key, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an upsert of `key` to `value`.
    pub fn put(&mut self, key: Key, value: Vec<u8>) {
        self.ops.push((key, Some(value)));
    }

    /// Queue a removal of `key` (a no-op when the key is absent).
    pub fn delete(&mut self, key: Key) {
        self.ops.push((key, None));
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate over queued operations in occurrence order: `Some(value)` for
    /// an upsert, `None` for a delete.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Option<&[u8]>)> + '_ {
        self.ops.iter().map(|(k, v)| (*k, v.as_deref()))
    }
}

/// Where a read was ultimately served from: what [`KvStore::get_traced`]
/// reports, and the region a [`crate::ReadTally`] counts a batch read's hit
/// under. FASTER's look-ahead also classifies records by it, to copy only
/// those below its mutable region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Served from the engine's mutable in-memory region.
    HotMemory,
    /// Served from an immutable in-memory region (read-only hybrid-log pages,
    /// memtable snapshots, cached blocks).
    ColdMemory,
    /// Required a device read.
    Disk,
}

/// Callback of a batched read-modify-write: receives the *position* of the key
/// within the batch plus its current value (or `None`), and returns the value
/// to store. `Sync` because engines may invoke it from several batch-executor
/// workers concurrently (for *distinct* positions; all occurrences of one key
/// are always applied by a single worker, in batch order).
pub type BatchRmwFn<'a> = dyn Fn(usize, Option<&[u8]>) -> Vec<u8> + Sync + 'a;

/// Visitor of a batched read ([`KvStore::multi_read`]): receives the
/// *position* of a key within the batch and its current value, borrowed for
/// the duration of the call, or `None` when the key is absent. `Sync` for the
/// same reason as [`BatchRmwFn`]: engines may call it from several
/// batch-executor workers at once, for distinct positions.
pub type BatchReadFn<'a> = dyn Fn(usize, Option<&[u8]>) + Sync + 'a;

/// Callback of a per-key read-modify-write: receives the current value (or
/// `None`) and returns the value to store. `Sync` for the same reason as
/// [`BatchRmwFn`]: [`KvStore::rmw`] is a one-key [`KvStore::multi_rmw`].
pub type RmwFn<'a> = dyn Fn(Option<&[u8]>) -> Vec<u8> + Sync + 'a;

/// A value together with the region it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The value bytes.
    pub value: Vec<u8>,
    /// Where the value came from.
    pub source: ReadSource,
}

/// Blocking key-value store interface implemented by every engine.
///
/// Implementations must be safe for concurrent use from multiple threads.
///
/// The interface is **batch-first**: the embedding workloads this workspace
/// reproduces gather hundreds of rows and scatter their gradients per training
/// step, so the batch calls — [`KvStore::multi_get`], [`KvStore::multi_rmw`]
/// and [`KvStore::write_batch`] — are required, and each engine pays its
/// per-operation costs (epoch protection, locks, index probes, WAL groups)
/// once per batch there. The per-key mutations are provided as batches of
/// one: `put` and `delete` are one-op [`KvStore::write_batch`]es, `rmw` is a
/// one-key [`KvStore::multi_rmw`] and `promote_to_memory` a one-key
/// [`KvStore::multi_promote`]. So an engine writes each mutation path once,
/// and a wrapper that forwards the batch calls forwards the per-key ones with
/// them. [`KvStore::get_traced`] stays required: no batch call reports where
/// a read was served from.
pub trait KvStore: Send + Sync + 'static {
    /// Human-readable engine name, matching the labels of the paper's figures
    /// ("MLKV", "FASTER", "RocksDB", "WiredTiger", "InMemory"). Must agree with
    /// `BackendKind::name()` in the `mlkv` crate so benchmark output lines up.
    fn name(&self) -> &'static str;

    /// Fetch the value for `key`.
    fn get(&self, key: Key) -> StorageResult<Vec<u8>> {
        self.get_traced(key).map(|r| r.value)
    }

    /// Fetch the value for `key` together with the region it was served from.
    fn get_traced(&self, key: Key) -> StorageResult<ReadResult>;

    /// Fetch the values for a batch of keys, preserving order (duplicates
    /// allowed). One result per key; absent keys yield
    /// `Err(StorageError::KeyNotFound)` at their position.
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// store.put(1, b"one").unwrap();
    /// let results = store.multi_get(&[1, 2]);
    /// assert_eq!(results[0].as_deref().unwrap(), b"one");
    /// assert!(results[1].as_ref().unwrap_err().is_not_found());
    /// ```
    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>>;

    /// Read a batch of keys in place: call `visit(i, value)` for every
    /// position `i` of `keys` (duplicates allowed) whose read succeeded —
    /// `Some` with the value's bytes, `None` when the key is absent — and
    /// return the `(position, error)` of every read that failed; `visit` is
    /// not called for those.
    ///
    /// An engine that keeps values in memory hands out its own bytes, under
    /// whatever protection makes them stable (FASTER's epoch guard and page
    /// frame lock, `MemStore`'s shard lock), so no per-key buffer is
    /// allocated; `visit` must therefore be quick and must not call back into
    /// the store. Positions may be visited in any order, and from several
    /// threads at once. The default wraps [`KvStore::multi_get`].
    ///
    /// ```
    /// use std::sync::Mutex;
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// store.put(1, b"one").unwrap();
    /// let lens = Mutex::new(vec![None; 3]);
    /// let errors = store.multi_read(&[1, 2, 1], &|i, value| {
    ///     lens.lock().unwrap()[i] = Some(value.map(<[u8]>::len));
    /// });
    /// assert!(errors.is_empty());
    /// assert_eq!(lens.into_inner().unwrap(), vec![Some(Some(3)), Some(None), Some(Some(3))]);
    /// ```
    fn multi_read(&self, keys: &[Key], visit: &BatchReadFn) -> Vec<(usize, StorageError)> {
        let mut errors = Vec::new();
        for (i, result) in self.multi_get(keys).into_iter().enumerate() {
            match result {
                Ok(value) => visit(i, Some(&value)),
                Err(e) if e.is_not_found() => visit(i, None),
                Err(e) => errors.push((i, e)),
            }
        }
        errors
    }

    /// Insert or overwrite `key` with `value`: a one-op
    /// [`KvStore::write_batch`].
    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value.to_vec());
        self.write_batch(&batch)
    }

    /// Read-modify-write: apply `f` to the current value (or `None`) and store
    /// the result. Returns the new value. A one-key [`KvStore::multi_rmw`].
    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        let mut out = self.multi_rmw(&[key], &|_, current| f(current))?;
        Ok(out.pop().expect("a one-key batch yields one value"))
    }

    /// Batched read-modify-write: for each position `i`, apply
    /// `f(i, current_value_of(keys[i]))` and store the result, returning the
    /// new values in input order. `f` receives the *position* (not the key) so
    /// batches with duplicate keys can apply per-occurrence updates; duplicate
    /// keys observe earlier occurrences' writes.
    ///
    /// A batch that fails is not rolled back. An engine may run `f` for a
    /// whole range of keys, or the whole batch, before it writes the first
    /// of them, so `f` can have run for keys that were never written; a
    /// write that fails ends its range with the keys written before it
    /// stored, and no later key of that range. Only a batch that returns
    /// `Ok` stored every value.
    ///
    /// Not every engine is atomic across concurrent callers on one key.
    /// FASTER resolves a key's current value, runs `f`, and writes the
    /// result later without holding a lock on the key in between, so two
    /// concurrent batches on one key can lose an update; the embedding
    /// table's Put latch is what orders them. On a durable store that window
    /// also spans the batch's WAL group append, which comes before the write
    /// (see [`crate::wal`]).
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// let out = store
    ///     .multi_rmw(&[7, 7], &|i, cur| {
    ///         let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
    ///         v.push(i as u8);
    ///         v
    ///     })
    ///     .unwrap();
    /// assert_eq!(out, vec![vec![0], vec![0, 1]]);
    /// assert_eq!(store.get(7).unwrap(), vec![0, 1]);
    /// ```
    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>>;

    /// Remove `key`. Returns `Ok(())` even when absent. A one-op
    /// [`KvStore::write_batch`].
    fn delete(&self, key: Key) -> StorageResult<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write_batch(&batch)
    }

    /// True when the key currently exists, without materialising its value.
    ///
    /// The default implementation falls back to [`KvStore::get_traced`];
    /// engines override it with a cheaper membership probe (bloom filters in
    /// the LSM tree, a hash-index chain walk in FASTER, a leaf probe in the
    /// B+tree) that never copies the value out.
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// store.put(5, b"x").unwrap();
    /// assert!(store.exists(5).unwrap());
    /// assert!(!store.exists(6).unwrap());
    /// ```
    fn exists(&self, key: Key) -> StorageResult<bool> {
        match self.get_traced(key) {
            Ok(_) => Ok(true),
            Err(e) if e.is_not_found() => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True when the key currently exists (alias of [`KvStore::exists`], kept
    /// for API continuity).
    fn contains(&self, key: Key) -> StorageResult<bool> {
        self.exists(key)
    }

    /// Apply a batch of upserts and deletes in occurrence order, so a key
    /// the batch writes twice ends with its last op: one WAL group, one lock
    /// acquisition or epoch guard per range, one sync for the whole batch.
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore, WriteBatch};
    ///
    /// let store = MemStore::new();
    /// let mut batch = WriteBatch::new();
    /// batch.put(1, b"one".to_vec());
    /// batch.delete(1);
    /// batch.put(2, b"two".to_vec());
    /// store.write_batch(&batch).unwrap();
    /// assert!(store.get(1).unwrap_err().is_not_found());
    /// assert_eq!(store.get(2).unwrap(), b"two");
    /// ```
    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()>;

    /// Hint that `key` will be needed soon — read and then updated: the engine
    /// should move it where an update can overwrite it in place, *without*
    /// changing its value or (for MLKV) its staleness. FASTER copies a live
    /// record that lies below its mutable region — on the device or in the
    /// read-only memory region — to the tail, and skips one already mutable,
    /// tombstoned or absent. Returns `true` when a copy into the hot
    /// region actually happened. A one-key [`KvStore::multi_promote`].
    fn promote_to_memory(&self, key: Key) -> StorageResult<bool> {
        Ok(self.multi_promote(&[key])? > 0)
    }

    /// Batched [`KvStore::promote_to_memory`]: hint that all of `keys` will be
    /// needed soon, returning how many were actually copied into the hot
    /// region. FASTER pays its fixed per-call costs (epoch protection) once
    /// and orders the copies by on-device address so cold reads stay
    /// sequential. The default promotes nothing, matching engines
    /// (RocksDB/WiredTiger offloading) that have no such facility — this is
    /// precisely the capability gap the paper's Lookahead interface fills.
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// store.put(1, b"x").unwrap();
    /// // MemStore has no cold region, so nothing needs promoting.
    /// assert_eq!(store.multi_promote(&[1, 2]).unwrap(), 0);
    /// ```
    fn multi_promote(&self, _keys: &[Key]) -> StorageResult<usize> {
        Ok(0)
    }

    /// Number of live records (approximate for engines with tombstones).
    fn approximate_len(&self) -> usize;

    /// Engine metrics.
    fn metrics(&self) -> Arc<StorageMetrics>;

    /// Flush all in-memory state to the device (checkpoint-like barrier).
    fn flush(&self) -> StorageResult<()>;

    /// The replication tap this store's WAL publishes acknowledged groups
    /// into, if the store was opened with one
    /// ([`crate::StoreConfig::with_wal_tap`]). `None` means the store cannot
    /// act as a replication primary. Engines with a WAL override this to
    /// return their configured tap.
    fn replication_tap(&self) -> Option<Arc<crate::wal::WalTap>> {
        None
    }

    /// Apply one shipped replication group (the frames of a
    /// [`crate::wal::WalGroup`]) to this store, as a standby replica.
    ///
    /// The default decodes the frames as logical records
    /// ([`crate::wal::decode_op`]) — the shape FASTER's delta WAL and the LSM
    /// WAL ship — and applies the whole group, puts and deletes in frame
    /// order, as one [`KvStore::write_batch`]: one local WAL group and one
    /// sync, as on the primary, so the applied group survives a replica
    /// restart. Frames carry full post-values, so re-applying a group
    /// (duplicate delivery after a reconnect) is idempotent.
    ///
    /// Engines whose WAL ships physical frames instead (the B+tree's
    /// page-image journal) override this to install the shipped images.
    fn apply_replicated_group(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        let mut batch = WriteBatch::new();
        for frame in frames {
            match crate::wal::decode_op(frame)? {
                (key, Some(value)) => batch.put(key, value),
                (key, None) => batch.delete(key),
            }
        }
        self.write_batch(&batch)
    }

    /// A fuzzy logical snapshot of the store — `(key, value)` pairs covering
    /// at least every acknowledged mutation at the time of the call — used to
    /// bootstrap a replica that fell behind the primary's WAL retention
    /// window. Overlap with subsequently shipped groups is harmless (frames
    /// carry idempotent post-values). Engines that cannot enumerate their
    /// records (or whose replication stream is physical, like the B+tree's
    /// page images) return [`crate::StorageError::InvalidArgument`]; such
    /// replicas must attach at genesis instead.
    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        Err(crate::error::StorageError::InvalidArgument(format!(
            "{} does not support logical replication snapshots",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::memstore::MemStore;

    /// Forwards the required calls (and `multi_promote`) to a [`MemStore`]
    /// and records each as `(method, keys)`, so a test sees what the
    /// provided calls turn into.
    #[derive(Default)]
    struct CallLog {
        inner: MemStore,
        calls: Mutex<Vec<(&'static str, usize)>>,
    }

    impl CallLog {
        fn log(&self, method: &'static str, keys: usize) {
            self.calls.lock().unwrap().push((method, keys));
        }

        /// The calls recorded since the last `take`.
        fn take(&self) -> Vec<(&'static str, usize)> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }
    }

    impl KvStore for CallLog {
        fn name(&self) -> &'static str {
            "call-log"
        }
        fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
            self.log("get_traced", 1);
            self.inner.get_traced(key)
        }
        fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
            self.log("multi_get", keys.len());
            self.inner.multi_get(keys)
        }
        fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
            self.log("multi_rmw", keys.len());
            self.inner.multi_rmw(keys, f)
        }
        fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
            self.log("write_batch", batch.len());
            self.inner.write_batch(batch)
        }
        fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
            self.log("multi_promote", keys.len());
            self.inner.multi_promote(keys)
        }
        fn approximate_len(&self) -> usize {
            self.inner.approximate_len()
        }
        fn metrics(&self) -> Arc<StorageMetrics> {
            self.inner.metrics()
        }
        fn flush(&self) -> StorageResult<()> {
            Ok(())
        }
    }

    #[test]
    fn each_per_key_call_is_one_one_key_batch() {
        let store = CallLog::default();
        store.put(1, &[1]).unwrap();
        assert_eq!(store.take(), [("write_batch", 1)]);
        let new = store
            .rmw(1, &|cur| {
                let mut v = cur.unwrap().to_vec();
                v.push(2);
                v
            })
            .unwrap();
        assert_eq!(new, vec![1, 2]);
        assert_eq!(store.take(), [("multi_rmw", 1)]);
        assert_eq!(store.get(1).unwrap(), vec![1, 2]);
        assert_eq!(store.take(), [("get_traced", 1)]);
        assert!(!store.promote_to_memory(1).unwrap());
        assert_eq!(store.take(), [("multi_promote", 1)]);
        store.delete(1).unwrap();
        assert_eq!(store.take(), [("write_batch", 1)]);
        assert!(store.get(1).unwrap_err().is_not_found());
        assert!(!store.exists(1).unwrap());
        assert!(!store.contains(1).unwrap());
        assert_eq!(store.take(), [("get_traced", 1); 3]);
    }

    #[test]
    fn multi_read_visits_what_multi_get_returns() {
        let store = CallLog::default();
        store.put(1, &[1]).unwrap();
        store.put(9, &[9, 9]).unwrap();
        store.take();
        let seen = Mutex::new(Vec::new());
        let errors = store.multi_read(&[9, 2, 1, 9], &|i, value| {
            seen.lock().unwrap().push((i, value.map(<[u8]>::to_vec)));
        });
        assert!(errors.is_empty());
        assert_eq!(store.take(), [("multi_get", 4)]);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, Some(vec![9, 9])),
                (1, None),
                (2, Some(vec![1])),
                (3, Some(vec![9, 9]))
            ]
        );
    }

    #[test]
    fn a_replicated_group_with_deletes_is_one_write_batch() {
        let store = CallLog::default();
        store.put(2, &[2]).unwrap();
        store.take();
        let frames = [
            crate::wal::encode_op(1, Some(&[1])),
            crate::wal::encode_op(2, None),
            crate::wal::encode_op(1, None),
            crate::wal::encode_op(3, Some(&[3])),
        ];
        store.apply_replicated_group(&frames).unwrap();
        assert_eq!(store.take(), [("write_batch", 4)]);
        let got = store.inner.multi_get(&[1, 2, 3]);
        assert!(got[0].as_ref().unwrap_err().is_not_found());
        assert!(got[1].as_ref().unwrap_err().is_not_found());
        assert_eq!(got[2].as_deref().unwrap(), &[3]);
    }

    #[test]
    fn write_batch_accumulates_ops() {
        let mut batch = WriteBatch::new();
        assert!(batch.is_empty());
        batch.put(1, vec![1, 2, 3]);
        batch.delete(1);
        batch.put(2, vec![4]);
        assert_eq!(batch.len(), 3);
        let collected: Vec<_> = batch.iter().map(|(k, v)| (k, v.map(<[u8]>::len))).collect();
        assert_eq!(collected, vec![(1, Some(3)), (1, None), (2, Some(1))]);
    }
}
