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

/// A batch of writes applied together (used by checkpointing and bulk loads).
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<(Key, Vec<u8>)>,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an upsert of `key` to `value`.
    pub fn put(&mut self, key: Key, value: Vec<u8>) {
        self.ops.push((key, value));
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate over queued operations.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Vec<u8>)> {
        self.ops.iter().map(|(k, v)| (k, v))
    }

    /// Consume the batch, yielding its operations.
    pub fn into_ops(self) -> Vec<(Key, Vec<u8>)> {
        self.ops
    }
}

/// Where a read was ultimately served from. The MLKV layer uses this to decide
/// whether a prefetch needs to copy the record into the hot region, and the
/// trainer uses it for the latency breakdown of Figure 2.
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
/// [`BatchRmwFn`]: per-key mutations are thin wrappers over the batch entry
/// points, which may run on batch-executor workers.
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
/// step, so [`KvStore::multi_get`] / [`KvStore::multi_rmw`] /
/// [`KvStore::write_batch`] are the hot paths. Every engine overrides them to
/// amortise per-operation costs (epoch protection, locks, index probes) over
/// the whole batch; the per-key methods remain for point accesses.
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
    /// The default implementation loops over [`KvStore::get`]; every engine in
    /// the workspace overrides it to pay its per-operation costs once per
    /// batch instead of once per key.
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
    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        keys.iter().map(|k| self.get(*k)).collect()
    }

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

    /// Insert or overwrite `key` with `value`.
    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()>;

    /// Read-modify-write: apply `f` to the current value (or `None`) and store
    /// the result. Returns the new value.
    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>>;

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
    /// The default implementation loops over [`KvStore::rmw`]; engines
    /// override it to batch locking and index traversal.
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
    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        keys.iter()
            .enumerate()
            .map(|(i, k)| self.rmw(*k, &|cur| f(i, cur)))
            .collect()
    }

    /// Remove `key`. Returns `Ok(())` even when absent.
    fn delete(&self, key: Key) -> StorageResult<()>;

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

    /// Apply a batch of upserts. The default implementation loops over
    /// [`KvStore::put`]; engines override it to group WAL appends, lock
    /// acquisitions, or epoch protection across the whole batch.
    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        for (k, v) in batch.iter() {
            self.put(*k, v)?;
        }
        Ok(())
    }

    /// Hint that `key` will be needed soon: the engine should move it into its
    /// in-memory buffer if it currently lives on disk, *without* changing its
    /// value or (for MLKV) its staleness. Returns `true` when a copy into the hot
    /// region actually happened. The default implementation is a no-op, matching
    /// engines (RocksDB/WiredTiger offloading) that have no such facility — this
    /// is precisely the capability gap the paper's Lookahead interface fills.
    fn promote_to_memory(&self, _key: Key) -> StorageResult<bool> {
        Ok(false)
    }

    /// Batched [`KvStore::promote_to_memory`]: hint that all of `keys` will be
    /// needed soon, returning how many were actually copied into the hot
    /// region. Engines override this to pay fixed per-call costs (epoch
    /// protection) once and to order the copies by on-device address so cold
    /// reads stay sequential. The default loops over the per-key hint.
    ///
    /// ```
    /// use mlkv_storage::{KvStore, MemStore};
    ///
    /// let store = MemStore::new();
    /// store.put(1, b"x").unwrap();
    /// // MemStore has no cold region, so nothing needs promoting.
    /// assert_eq!(store.multi_promote(&[1, 2]).unwrap(), 0);
    /// ```
    fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
        let mut promoted = 0;
        for &key in keys {
            if self.promote_to_memory(key)? {
                promoted += 1;
            }
        }
        Ok(promoted)
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
    /// WAL ship — and applies them through the store's normal write path, so
    /// the replica writes its *own* WAL and the applied group survives a
    /// replica restart. An all-put group is applied as one
    /// [`KvStore::write_batch`] (one local WAL group, one sync — mirroring the
    /// primary's group commit); groups containing deletes fall back to
    /// sequential application. Frames carry full post-values, so re-applying
    /// a group (duplicate delivery after a reconnect) is idempotent.
    ///
    /// Engines whose WAL ships physical frames instead (the B+tree's
    /// page-image journal) override this to install the shipped images.
    fn apply_replicated_group(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        let ops = frames
            .iter()
            .map(|f| crate::wal::decode_op(f))
            .collect::<StorageResult<Vec<_>>>()?;
        if ops.len() > 1 && ops.iter().all(|(_, value)| value.is_some()) {
            let mut batch = WriteBatch::new();
            for (key, value) in ops {
                batch.put(key, value.expect("an all-put group"));
            }
            return self.write_batch(&batch);
        }
        for (key, value) in ops {
            match value {
                Some(value) => self.put(key, &value)?,
                None => self.delete(key)?,
            }
        }
        Ok(())
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
    use super::*;

    /// Minimal store exercising the *default* trait implementations.
    struct LoopStore(crate::memstore::MemStore);

    impl KvStore for LoopStore {
        fn name(&self) -> &'static str {
            "loop"
        }
        fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
            self.0.get_traced(key)
        }
        fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
            self.0.put(key, value)
        }
        fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
            self.0.rmw(key, f)
        }
        fn delete(&self, key: Key) -> StorageResult<()> {
            self.0.delete(key)
        }
        fn approximate_len(&self) -> usize {
            self.0.approximate_len()
        }
        fn metrics(&self) -> Arc<StorageMetrics> {
            self.0.metrics()
        }
        fn flush(&self) -> StorageResult<()> {
            Ok(())
        }
    }

    #[test]
    fn default_batch_impls_match_per_key_semantics() {
        let store = LoopStore(crate::memstore::MemStore::new());
        store.put(1, &[1]).unwrap();
        store.put(3, &[3]).unwrap();
        let results = store.multi_get(&[1, 2, 3, 1]);
        assert_eq!(results[0].as_deref().unwrap(), &[1]);
        assert!(results[1].as_ref().unwrap_err().is_not_found());
        assert_eq!(results[2].as_deref().unwrap(), &[3]);
        assert_eq!(results[3].as_deref().unwrap(), &[1]);

        // Duplicate keys see earlier occurrences' writes, in input order.
        let out = store
            .multi_rmw(&[9, 9, 1], &|i, cur| {
                let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
                v.push(i as u8 + 10);
                v
            })
            .unwrap();
        assert_eq!(out, vec![vec![10], vec![10, 11], vec![1, 12]]);
        assert_eq!(store.get(9).unwrap(), vec![10, 11]);

        assert!(store.exists(1).unwrap());
        assert!(!store.exists(2).unwrap());
        assert_eq!(store.contains(1).unwrap(), store.exists(1).unwrap());

        // multi_read visits every position with what multi_get returns.
        let seen = std::sync::Mutex::new(Vec::new());
        let errors = store.multi_read(&[9, 2, 1, 9], &|i, value| {
            seen.lock().unwrap().push((i, value.map(<[u8]>::to_vec)));
        });
        assert!(errors.is_empty());
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, Some(vec![10, 11])),
                (1, None),
                (2, Some(vec![1, 12])),
                (3, Some(vec![10, 11]))
            ]
        );
    }

    #[test]
    fn write_batch_accumulates_ops() {
        let mut batch = WriteBatch::new();
        assert!(batch.is_empty());
        batch.put(1, vec![1, 2, 3]);
        batch.put(2, vec![4]);
        assert_eq!(batch.len(), 2);
        let collected: Vec<_> = batch.iter().map(|(k, v)| (*k, v.len())).collect();
        assert_eq!(collected, vec![(1, 3), (2, 1)]);
        let ops = batch.into_ops();
        assert_eq!(ops[1], (2, vec![4]));
    }
}
