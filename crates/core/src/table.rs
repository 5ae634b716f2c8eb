//! The embedding table: MLKV's user-facing `Get` / `Put` / `Rmw` / `Lookahead`
//! interface over a key-value backend (paper §III-A, Figure 3).
//!
//! The table is **batch-first**: a training step calls
//! [`EmbeddingTable::gather`] once for its forward pass and
//! [`EmbeddingTable::apply_gradients`] once for its backward pass, and each of
//! those performs a single staleness-controller admission and a single batched
//! storage call — instead of per-key dispatch and per-key locking. Every row a
//! gather returns comes from the storage engine: [`EmbeddingTable::lookahead`]
//! only promotes records into the engine's memory buffer.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mlkv_storage::{KvStore, StorageError, StorageResult, WriteBatch};

use crate::codec::{decode_vector, decode_vector_into, encode_vector, init_vector};
use crate::prefetch::{PrefetchStats, Prefetcher};
use crate::staleness::{ConsistencyMode, StalenessController, StalenessStats};
use crate::stats::{TableStats, TableStatsSnapshot};

/// Options controlling an embedding table.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Embedding dimension.
    pub dim: usize,
    /// Staleness bound (0 = BSP, `u32::MAX` = ASP, otherwise SSP).
    pub staleness_bound: u32,
    /// Whether bounded-staleness enforcement is active. Disabling it leaves only
    /// the per-key memory overhead, as described in §IV-E.
    pub enforce_staleness: bool,
    /// Number of background look-ahead workers.
    pub lookahead_workers: usize,
    /// Scale of the uniform random initialisation of unseen embeddings.
    pub init_scale: f32,
    /// Seed of the deterministic initialiser.
    pub seed: u64,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            dim: 16,
            staleness_bound: 0,
            enforce_staleness: true,
            lookahead_workers: 1,
            init_scale: 0.05,
            seed: 42,
        }
    }
}

/// Fluent constructor for an [`EmbeddingTable`] over an already-opened store.
///
/// This replaces struct-literal [`TableOptions`] construction; the full open
/// path (backend selection included) is `Mlkv::builder(..)` in the `model`
/// module, which delegates here.
///
/// ```
/// use std::sync::Arc;
/// use mlkv::EmbeddingTable;
/// use mlkv_storage::MemStore;
///
/// let table = EmbeddingTable::builder(Arc::new(MemStore::new()))
///     .dim(8)
///     .staleness_bound(4)
///     .build()
///     .unwrap();
/// assert_eq!(table.dim(), 8);
/// ```
pub struct TableBuilder {
    store: Arc<dyn KvStore>,
    options: TableOptions,
}

impl TableBuilder {
    /// Embedding dimension (must be positive).
    pub fn dim(mut self, dim: usize) -> Self {
        self.options.dim = dim;
        self
    }

    /// Staleness bound: 0 = BSP, `u32::MAX` = ASP, otherwise SSP.
    pub fn staleness_bound(mut self, bound: u32) -> Self {
        self.options.staleness_bound = bound;
        self
    }

    /// Enable or disable bounded-staleness enforcement (disabling leaves only
    /// the per-key memory overhead, §IV-E).
    pub fn enforce_staleness(mut self, enforce: bool) -> Self {
        self.options.enforce_staleness = enforce;
        self
    }

    /// Number of background look-ahead workers.
    pub fn lookahead_workers(mut self, workers: usize) -> Self {
        self.options.lookahead_workers = workers;
        self
    }

    /// Scale of the uniform random initialisation of unseen embeddings.
    pub fn init_scale(mut self, scale: f32) -> Self {
        self.options.init_scale = scale;
        self
    }

    /// Seed of the deterministic initialiser.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Replace every option at once (used by the model-level builder).
    pub fn options(mut self, options: TableOptions) -> Self {
        self.options = options;
        self
    }

    /// Build the table.
    pub fn build(self) -> StorageResult<EmbeddingTable> {
        EmbeddingTable::from_options(self.store, self.options)
    }
}

/// An embedding table backed by a key-value store.
///
/// All methods are thread-safe; training workers share the table through an
/// `Arc`.
pub struct EmbeddingTable {
    store: Arc<dyn KvStore>,
    options: TableOptions,
    controller: StalenessController,
    prefetcher: Prefetcher,
    stats: TableStats,
}

impl EmbeddingTable {
    /// Start configuring a table over an already-opened `store`.
    pub fn builder(store: Arc<dyn KvStore>) -> TableBuilder {
        TableBuilder {
            store,
            options: TableOptions::default(),
        }
    }

    /// Construction behind [`TableBuilder::build`].
    fn from_options(store: Arc<dyn KvStore>, options: TableOptions) -> StorageResult<Self> {
        if options.dim == 0 {
            return Err(StorageError::InvalidArgument(
                "embedding dimension must be positive".into(),
            ));
        }
        let mode = ConsistencyMode::from_bound(options.staleness_bound);
        let controller = StalenessController::new(mode, options.enforce_staleness);
        let prefetcher = Prefetcher::new(Arc::clone(&store), options.lookahead_workers);
        Ok(Self {
            store,
            options,
            controller,
            prefetcher,
            stats: TableStats::new(),
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.options.dim
    }

    /// The consistency mode enforced by this table.
    pub fn mode(&self) -> ConsistencyMode {
        self.controller.mode()
    }

    /// The table's options.
    pub fn options(&self) -> &TableOptions {
        &self.options
    }

    /// The underlying key-value store.
    pub fn store(&self) -> &Arc<dyn KvStore> {
        &self.store
    }

    /// Fetch the embedding for one key, lazily initialising it when unseen.
    /// This is the forward-pass path (`Get` in Figure 3, line 9).
    pub fn get_one(&self, key: u64) -> StorageResult<Vec<f32>> {
        let start = Instant::now();
        let guard = self.controller.acquire_get(key)?;
        let result = self.read_or_init(key);
        drop(guard);
        self.stats.record_get(1, start.elapsed().as_nanos() as u64);
        result
    }

    /// Fetch embeddings for a batch of keys (order preserved, duplicates
    /// allowed), lazily initialising unseen keys:
    /// [`EmbeddingTable::gather_into`] one row-major buffer, split into one
    /// `Vec` per key.
    ///
    /// ```
    /// use mlkv::Mlkv;
    ///
    /// let model = Mlkv::open("gather-doc", 4, 0).unwrap();
    /// let rows = model.gather(&[1, 2, 1]).unwrap();
    /// assert_eq!(rows.len(), 3);
    /// assert_eq!(rows[0], rows[2]); // duplicates fan out from one read
    /// ```
    pub fn gather(&self, keys: &[u64]) -> StorageResult<Vec<Vec<f32>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let start = Instant::now();
        let dim = self.options.dim;
        let mut rows = vec![0.0; keys.len() * dim];
        self.gather_rows(keys, &mut rows)?;
        let out = rows.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        self.stats
            .record_get(keys.len() as u64, start.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Fetch embeddings for a batch of keys (duplicates allowed) into `out`,
    /// row-major: key `i`'s embedding lands in `out[i * dim..(i + 1) * dim]`,
    /// and `out` must hold exactly `keys.len() * dim` values. Unseen keys are
    /// lazily initialised.
    ///
    /// This is the batch-first forward-pass path: one staleness-controller
    /// admission for the whole batch, one [`KvStore::multi_read`] — which
    /// decodes each unique key once, straight from the engine's bytes into its
    /// first occurrence's row — and one [`KvStore::multi_rmw`] materialising
    /// the keys the store does not hold. Later occurrences of a key copy its
    /// row.
    ///
    /// ```
    /// use mlkv::Mlkv;
    ///
    /// let model = Mlkv::open("gather-into-doc", 2, 0).unwrap();
    /// model.table().put(&[7], &[vec![1.0, 2.0]]).unwrap();
    /// let mut rows = [0.0f32; 4];
    /// model.table().gather_into(&[7, 7], &mut rows).unwrap();
    /// assert_eq!(rows, [1.0, 2.0, 1.0, 2.0]);
    /// ```
    pub fn gather_into(&self, keys: &[u64], out: &mut [f32]) -> StorageResult<()> {
        if out.len() != keys.len() * self.options.dim {
            return Err(StorageError::InvalidArgument(format!(
                "gather of {} keys of dimension {} into {} values",
                keys.len(),
                self.options.dim,
                out.len()
            )));
        }
        if keys.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.gather_rows(keys, out)?;
        self.stats
            .record_get(keys.len() as u64, start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The body of [`EmbeddingTable::gather`] and
    /// [`EmbeddingTable::gather_into`], which time it: `keys` is not empty
    /// and `out` holds `keys.len() * dim` values.
    fn gather_rows(&self, keys: &[u64], out: &mut [f32]) -> StorageResult<()> {
        let dim = self.options.dim;
        // Each run of equal keys in (key, position) order is one unique key,
        // read into its first occurrence's row; the other occurrences copy it.
        let mut by_key: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        by_key.sort_unstable();
        let mut unique: Vec<u64> = Vec::with_capacity(by_key.len());
        let mut first_rows: Vec<usize> = Vec::with_capacity(by_key.len());
        let mut copies: Vec<(usize, usize)> = Vec::new();
        for run in by_key.chunk_by(|a, b| a.0 == b.0) {
            let (key, row) = run[0];
            unique.push(key);
            first_rows.push(row);
            copies.extend(run[1..].iter().map(|&(_, to)| (row, to)));
        }
        // One admission per batch; each unique key counts as one Get against
        // its staleness clock, exactly like the per-key path on deduplicated
        // batches.
        self.controller.admit_get_batch(&unique)?;
        self.read_rows(&unique, &first_rows, out)?;
        for (from, to) in copies {
            out.copy_within(from * dim..(from + 1) * dim, to * dim);
        }
        Ok(())
    }

    /// Read the unique `keys` from the store straight into their `rows` of
    /// `out`, lazily initialising the keys the store does not hold.
    fn read_rows(&self, keys: &[u64], rows: &[usize], out: &mut [f32]) -> StorageResult<()> {
        let dim = self.options.dim;
        // The engine may visit from several batch-executor workers at once,
        // so every key's row sits behind its own lock: a key is visited once,
        // and no lock is ever contended.
        let mut by_row: Vec<Option<&mut [f32]>> = out.chunks_exact_mut(dim).map(Some).collect();
        let mut slots: Vec<Mutex<&mut [f32]>> = rows
            .iter()
            .map(|&row| Mutex::new(by_row[row].take().expect("unique keys own distinct rows")))
            .collect();
        let misses = Mutex::new((Vec::<usize>::new(), None::<StorageError>));
        let failed = self.store.multi_read(keys, &|i, value| match value {
            Some(bytes) => {
                let mut row = slots[i].lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = decode_vector_into(bytes, &mut row) {
                    let mut misses = misses.lock().unwrap_or_else(|e| e.into_inner());
                    misses.1.get_or_insert(e);
                }
            }
            None => misses.lock().unwrap_or_else(|e| e.into_inner()).0.push(i),
        });
        let (mut absent, undecodable) = misses.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some((_, e)) = failed.into_iter().min_by_key(|(i, _)| *i) {
            return Err(e);
        }
        if let Some(e) = undecodable {
            return Err(e);
        }
        if absent.is_empty() {
            return Ok(());
        }
        // Materialise unseen keys under staleness-neutral record latches,
        // re-checking inside the rmw: a concurrent writer may have landed
        // between the read and here, and its value must win over the
        // initialiser (the per-key path got the same guarantee from holding
        // the record lock across read+init).
        absent.sort_unstable();
        let init_keys: Vec<u64> = absent.iter().map(|&i| keys[i]).collect();
        let latches = self.controller.lock_records(&init_keys);
        let (scale, seed) = (self.options.init_scale, self.options.seed);
        let written = self
            .store
            .multi_rmw(&init_keys, &|i, current| match current {
                Some(bytes) => bytes.to_vec(),
                None => {
                    self.stats.record_init();
                    encode_vector(&init_vector(init_keys[i], dim, scale, seed))
                }
            });
        drop(latches);
        for (&i, bytes) in absent.iter().zip(written?) {
            let row = slots[i].get_mut().unwrap_or_else(|e| e.into_inner());
            decode_vector_into(&bytes, row)?;
        }
        Ok(())
    }

    /// Fetch embeddings for a batch of keys (alias of
    /// [`EmbeddingTable::gather`], kept for Figure 3 API continuity).
    pub fn get(&self, keys: &[u64]) -> StorageResult<Vec<Vec<f32>>> {
        self.gather(keys)
    }

    /// Upsert the embedding for one key. This is the backward-pass path (`Put`
    /// in Figure 3, line 17).
    pub fn put_one(&self, key: u64, value: &[f32]) -> StorageResult<()> {
        self.check_dim(value)?;
        let start = Instant::now();
        let guard = self.controller.acquire_put(key)?;
        let bytes = encode_vector(value);
        let result = self.store.put(key, &bytes);
        drop(guard);
        self.stats.record_put(1, start.elapsed().as_nanos() as u64);
        result
    }

    /// Upsert a batch of embeddings; `keys` and `values` must have equal
    /// length. One staleness admission and one [`KvStore::write_batch`] cover
    /// the whole batch; duplicate keys resolve last-occurrence-wins.
    pub fn put(&self, keys: &[u64], values: &[Vec<f32>]) -> StorageResult<()> {
        if keys.len() != values.len() {
            return Err(StorageError::InvalidArgument(format!(
                "put batch mismatch: {} keys vs {} values",
                keys.len(),
                values.len()
            )));
        }
        if keys.is_empty() {
            return Ok(());
        }
        for v in values {
            self.check_dim(v)?;
        }
        let start = Instant::now();
        let guards = self.controller.acquire_put_batch(keys)?;
        let mut batch = WriteBatch::new();
        for (k, v) in keys.iter().zip(values) {
            batch.put(*k, encode_vector(v));
        }
        let result = self.store.write_batch(&batch);
        drop(guards);
        self.stats
            .record_put(keys.len() as u64, start.elapsed().as_nanos() as u64);
        result
    }

    /// Read-modify-write a single embedding: `f` receives the current vector
    /// (lazily initialised when unseen) and returns the new one. This maps to
    /// MLKV's `Rmw` interface used for sparse optimizer updates.
    pub fn rmw_one(&self, key: u64, f: impl FnOnce(&mut Vec<f32>)) -> StorageResult<Vec<f32>> {
        let start = Instant::now();
        let guard = self.controller.acquire_put(key)?;
        let mut current = self.read_or_init(key)?;
        f(&mut current);
        self.check_dim(&current)?;
        let bytes = encode_vector(&current);
        self.store.put(key, &bytes)?;
        drop(guard);
        self.stats.record_put(1, start.elapsed().as_nanos() as u64);
        Ok(current)
    }

    /// Apply SGD-style gradients: `value -= lr * grad` for each
    /// `(key, gradient)` pair. This is the common
    /// "Put(keys, values + optimizer(gradients))" pattern of Figure 3,
    /// executed as one staleness admission (record locks held for the whole
    /// scatter) and one [`KvStore::multi_rmw`].
    /// Duplicate keys apply their gradients cumulatively in input order;
    /// unseen keys are lazily initialised before the gradient lands.
    ///
    /// ```
    /// use mlkv::Mlkv;
    ///
    /// let model = Mlkv::open("grad-doc", 2, 0).unwrap();
    /// model.put(&[1], &[vec![1.0, 1.0]]).unwrap();
    /// model
    ///     .apply_gradients(&[(1, &[0.5, 0.5][..])], 0.2)
    ///     .unwrap();
    /// assert_eq!(model.get_one(1).unwrap(), vec![0.9, 0.9]);
    /// ```
    pub fn apply_gradients(&self, updates: &[(u64, &[f32])], lr: f32) -> StorageResult<()> {
        self.apply_gradients_tagged(updates, lr, &[])
    }

    /// [`EmbeddingTable::apply_gradients`] with opaque `(key, bytes)` *tag
    /// records* written in the **same** storage batch as the gradients.
    ///
    /// Tags are stored verbatim (no dimension check, no decode) and ride the
    /// batch through the engine's WAL group commit, so a tag is durable if
    /// and only if the gradients it accompanies are. The serving layer uses
    /// this to persist idempotency markers atomically with the mutation they
    /// acknowledge: after a crash, a recovered marker proves the whole batch
    /// was applied, and its absence proves none of it was. Tag keys live in
    /// the server's reserved key range and are never gathered, so they are
    /// exempt from staleness admission; duplicate tag keys keep the last
    /// occurrence, like any other duplicate key in a batch.
    pub fn apply_gradients_tagged(
        &self,
        updates: &[(u64, &[f32])],
        lr: f32,
        tags: &[(u64, Vec<u8>)],
    ) -> StorageResult<()> {
        if updates.is_empty() && tags.is_empty() {
            return Ok(());
        }
        for (_, grad) in updates {
            self.check_dim(grad)?;
        }
        let start = Instant::now();
        let grad_keys: Vec<u64> = updates.iter().map(|(k, _)| *k).collect();
        let mut keys = grad_keys.clone();
        keys.extend(tags.iter().map(|(k, _)| *k));
        // Staleness admission covers only the embedding rows; tag records are
        // internal bookkeeping outside the staleness domain.
        let guards = self.controller.acquire_put_batch(&grad_keys)?;
        let dim = self.options.dim;
        let (scale, seed) = (self.options.init_scale, self.options.seed);
        // The rmw callback cannot return an error, so an undecodable stored row
        // is left byte-identical and the failure is surfaced after the batch.
        // A mutex (not a Cell) because the engine may run the callback from
        // several batch-executor workers.
        let decode_failure = Mutex::new(None::<u64>);
        let mut result = self
            .store
            .multi_rmw(&keys, &|i, current| {
                // Positions past the gradient updates are tag records,
                // written verbatim regardless of what was there before.
                if i >= updates.len() {
                    return tags[i - updates.len()].1.clone();
                }
                let mut value = match current {
                    Some(bytes) => match decode_vector(bytes, dim) {
                        Ok(v) => v,
                        Err(_) => {
                            decode_failure
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .get_or_insert(keys[i]);
                            return bytes.to_vec();
                        }
                    },
                    // Absent keys start from the deterministic initialiser,
                    // like the per-key read path.
                    None => {
                        self.stats.record_init();
                        init_vector(keys[i], dim, scale, seed)
                    }
                };
                for (v, g) in value.iter_mut().zip(updates[i].1) {
                    *v -= lr * g;
                }
                encode_vector(&value)
            })
            .map(|_| ());
        if result.is_ok() {
            if let Some(key) = *decode_failure.lock().unwrap_or_else(|e| e.into_inner()) {
                result = Err(StorageError::Corruption(format!(
                    "stored embedding for key {key} does not decode to dimension {dim}; \
                     row left unchanged"
                )));
            }
        }
        drop(guards);
        self.stats
            .record_put(updates.len() as u64, start.elapsed().as_nanos() as u64);
        result
    }

    /// Non-blocking look-ahead prefetch of `keys` into the storage engine's
    /// memory buffer (paper §III-C2). It never reads a value into the
    /// application, so it cannot violate the staleness bound.
    pub fn lookahead(&self, keys: &[u64]) {
        self.prefetcher.lookahead(keys);
    }

    /// Block until all submitted look-ahead work has completed.
    pub fn wait_for_lookahead(&self) {
        self.prefetcher.wait_idle();
    }

    /// Current staleness of `key`.
    pub fn staleness_of(&self, key: u64) -> u32 {
        self.controller.staleness_of(key)
    }

    /// True when `key` has a stored embedding.
    pub fn contains(&self, key: u64) -> StorageResult<bool> {
        self.store.contains(key)
    }

    /// Number of embeddings stored (approximate for log-structured backends).
    pub fn len(&self) -> usize {
        self.store.approximate_len()
    }

    /// True when no embeddings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush the backend to its device.
    pub fn flush(&self) -> StorageResult<()> {
        self.store.flush()
    }

    /// Table-level operation statistics.
    pub fn stats(&self) -> TableStatsSnapshot {
        self.stats.snapshot()
    }

    /// Staleness-control statistics (stall time, blocked Gets).
    pub fn staleness_stats(&self) -> StalenessStats {
        self.controller.stats()
    }

    /// Prefetcher statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher.stats()
    }

    /// Backend I/O metrics.
    pub fn store_metrics(&self) -> mlkv_storage::MetricsSnapshot {
        self.store.metrics().snapshot()
    }

    fn check_dim(&self, value: &[f32]) -> StorageResult<()> {
        if value.len() != self.options.dim {
            return Err(StorageError::InvalidArgument(format!(
                "vector of dimension {} does not match table dimension {}",
                value.len(),
                self.options.dim
            )));
        }
        Ok(())
    }

    /// Read the embedding from the store, lazily initialising it.
    fn read_or_init(&self, key: u64) -> StorageResult<Vec<f32>> {
        match self.store.get(key) {
            Ok(bytes) => decode_vector(&bytes, self.options.dim),
            Err(e) if e.is_not_found() => {
                let fresh = init_vector(
                    key,
                    self.options.dim,
                    self.options.init_scale,
                    self.options.seed,
                );
                self.store.put(key, &encode_vector(&fresh))?;
                self.stats.record_init();
                Ok(fresh)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{open_store, BackendKind};
    use mlkv_storage::StoreConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn table(bound: u32) -> EmbeddingTable {
        let store = open_store(
            BackendKind::Mlkv,
            StoreConfig::in_memory()
                .with_memory_budget(1 << 20)
                .with_page_size(4096),
        )
        .unwrap();
        EmbeddingTable::builder(store)
            .dim(8)
            .staleness_bound(bound)
            .build()
            .unwrap()
    }

    #[test]
    fn get_initialises_unseen_keys_deterministically() {
        let t = table(u32::MAX);
        let a = t.get_one(5).unwrap();
        let b = t.get_one(5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert_eq!(t.stats().initialised, 1);
        assert!(t.contains(5).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tagged_gradients_write_tags_in_the_same_batch() {
        let t = table(u32::MAX);
        t.put_one(1, &[1.0; 8]).unwrap();
        let marker_key = 0xFFFF_FFFF_0000_0007u64;
        t.apply_gradients_tagged(
            &[(1, &[0.5; 8][..])],
            0.2,
            &[(marker_key, vec![0xAB, 0xCD])],
        )
        .unwrap();
        assert_eq!(t.get_one(1).unwrap(), vec![0.9; 8]);
        // The tag is an ordinary store record, byte-verbatim, outside the
        // embedding encoding.
        let got = t.store().multi_get(&[marker_key]);
        assert_eq!(got[0].as_ref().unwrap(), &vec![0xAB, 0xCD]);
        // Re-tagging the same slot keeps the last write.
        t.apply_gradients_tagged(&[], 0.0, &[(marker_key, vec![0x01])])
            .unwrap();
        let got = t.store().multi_get(&[marker_key]);
        assert_eq!(got[0].as_ref().unwrap(), &vec![0x01]);
    }

    #[test]
    fn put_then_get_roundtrip() {
        let t = table(u32::MAX);
        let v: Vec<f32> = (0..8).map(|i| i as f32 / 10.0).collect();
        t.put_one(3, &v).unwrap();
        assert_eq!(t.get_one(3).unwrap(), v);
        // Batch APIs.
        let keys = vec![10, 11, 12];
        let vals: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32; 8]).collect();
        t.put(&keys, &vals).unwrap();
        assert_eq!(t.get(&keys).unwrap(), vals);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let t = table(u32::MAX);
        assert!(t.put_one(1, &[0.0; 4]).is_err());
        assert!(t.put(&[1, 2], &[vec![0.0; 8]]).is_err());
        assert!(t.apply_gradients(&[(1, &[0.0; 3][..])], 0.1).is_err());
        assert!(EmbeddingTable::builder(
            open_store(BackendKind::InMemory, StoreConfig::in_memory()).unwrap()
        )
        .dim(0)
        .build()
        .is_err());
    }

    #[test]
    fn apply_gradients_performs_sgd_step() {
        let t = table(u32::MAX);
        t.put_one(1, &[1.0; 8]).unwrap();
        t.apply_gradients(&[(1, &[0.5; 8][..])], 0.2).unwrap();
        let v = t.get_one(1).unwrap();
        for x in v {
            assert!((x - 0.9).abs() < 1e-6);
        }
    }

    #[test]
    fn gather_matches_per_key_gets_and_fans_out_duplicates() {
        let t = table(u32::MAX);
        for k in 0..10u64 {
            t.put_one(k, &[k as f32; 8]).unwrap();
        }
        let keys = vec![3, 900, 3, 0, 901];
        let gathered = t.gather(&keys).unwrap();
        // 900/901 are lazily initialised exactly like a per-key get would.
        let reference: Vec<Vec<f32>> = keys.iter().map(|k| t.get_one(*k).unwrap()).collect();
        assert_eq!(gathered, reference);
        assert_eq!(gathered[0], gathered[2]);
        assert_eq!(t.stats().initialised, 2);
    }

    #[test]
    fn apply_gradients_accumulates_duplicate_keys_in_order() {
        let t = table(u32::MAX);
        t.put_one(1, &[1.0; 8]).unwrap();
        let g = vec![1.0f32; 8];
        t.apply_gradients(&[(1, g.as_slice()), (1, g.as_slice())], 0.25)
            .unwrap();
        assert_eq!(t.get_one(1).unwrap(), vec![0.5; 8]);
    }

    #[test]
    fn apply_gradients_initialises_unseen_keys() {
        let t = table(u32::MAX);
        t.apply_gradients(&[(77, &[0.0; 8][..])], 0.1).unwrap();
        // A zero gradient on an unseen key must land exactly on the
        // deterministic initialisation the read path would produce.
        let via_gather = {
            let fresh = table(u32::MAX);
            fresh.get_one(77).unwrap()
        };
        assert_eq!(t.get_one(77).unwrap(), via_gather);
        assert_eq!(t.stats().initialised, 1);
    }

    #[test]
    fn concurrent_gather_and_gradients_on_unseen_keys_lose_no_updates() {
        // Regression test: gather's lazy initialisation must not clobber a
        // concurrent gradient landing on the same unseen key. Whichever order
        // the two operations run in, the final value is init - lr * grad.
        let t = Arc::new(table(u32::MAX));
        let keys: Vec<u64> = (0..200).collect();
        let gatherer = {
            let t = Arc::clone(&t);
            let keys = keys.clone();
            std::thread::spawn(move || t.gather(&keys).unwrap())
        };
        let updater = {
            let t = Arc::clone(&t);
            let keys = keys.clone();
            std::thread::spawn(move || {
                let grad = [1.0f32; 8];
                for k in keys {
                    t.apply_gradients(&[(k, grad.as_slice())], 0.5).unwrap();
                }
            })
        };
        gatherer.join().unwrap();
        updater.join().unwrap();
        let reference = table(u32::MAX);
        for k in keys {
            let init = reference.get_one(k).unwrap();
            let expected: Vec<f32> = init.iter().map(|x| x - 0.5).collect();
            assert_eq!(t.get_one(k).unwrap(), expected, "key {k} lost its update");
        }
    }

    #[test]
    fn staleness_bound_is_enforced_per_key() {
        let t = table(2);
        // Three gets allowed (staleness reaches 3 > bound on the 4th attempt).
        t.get_one(7).unwrap();
        t.get_one(7).unwrap();
        t.get_one(7).unwrap();
        assert_eq!(t.staleness_of(7), 3);
        // A put brings staleness back under the bound.
        t.put_one(7, &[0.0; 8]).unwrap();
        assert_eq!(t.staleness_of(7), 2);
        t.get_one(7).unwrap();
        assert!(t.staleness_stats().gets >= 4);
    }

    #[test]
    fn bsp_interleaves_get_put_without_blocking() {
        let t = table(0);
        for _ in 0..20 {
            let v = t.get_one(1).unwrap();
            t.put_one(1, &v).unwrap();
        }
        assert_eq!(t.staleness_of(1), 0);
        assert_eq!(t.staleness_stats().blocked_gets, 0);
    }

    /// The engine call a [`HeldStore`] holds.
    #[derive(Clone, Copy, PartialEq)]
    enum Held {
        /// An `apply_gradients`, with the Put latches it took.
        Rmw,
        /// A look-ahead's promote.
        Promote,
    }

    /// An in-memory store whose `held` call sets `entered` and then waits
    /// until `proceed` is set: it holds that call inside the engine for as
    /// long as a test needs.
    struct HeldStore {
        inner: mlkv_storage::MemStore,
        held: Held,
        entered: AtomicBool,
        proceed: AtomicBool,
    }

    impl HeldStore {
        fn new(held: Held) -> Arc<Self> {
            Arc::new(Self {
                inner: mlkv_storage::MemStore::new(),
                held,
                entered: AtomicBool::new(false),
                proceed: AtomicBool::new(false),
            })
        }

        fn hold(&self, call: Held) {
            if self.held == call {
                self.entered.store(true, Ordering::SeqCst);
                wait_until(|| self.proceed.load(Ordering::SeqCst));
            }
        }
    }

    impl KvStore for HeldStore {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn get_traced(&self, key: u64) -> StorageResult<mlkv_storage::kv::ReadResult> {
            self.inner.get_traced(key)
        }
        fn multi_get(&self, keys: &[u64]) -> Vec<StorageResult<Vec<u8>>> {
            self.inner.multi_get(keys)
        }
        fn put(&self, key: u64, value: &[u8]) -> StorageResult<()> {
            self.inner.put(key, value)
        }
        fn rmw(&self, key: u64, f: &mlkv_storage::RmwFn) -> StorageResult<Vec<u8>> {
            self.inner.rmw(key, f)
        }
        fn multi_rmw(
            &self,
            keys: &[u64],
            f: &mlkv_storage::BatchRmwFn,
        ) -> StorageResult<Vec<Vec<u8>>> {
            self.hold(Held::Rmw);
            self.inner.multi_rmw(keys, f)
        }
        fn multi_promote(&self, keys: &[u64]) -> StorageResult<usize> {
            self.hold(Held::Promote);
            self.inner.multi_promote(keys)
        }
        fn delete(&self, key: u64) -> StorageResult<()> {
            self.inner.delete(key)
        }
        fn approximate_len(&self) -> usize {
            self.inner.approximate_len()
        }
        fn metrics(&self) -> Arc<mlkv_storage::StorageMetrics> {
            self.inner.metrics()
        }
        fn flush(&self) -> StorageResult<()> {
            self.inner.flush()
        }
    }

    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn bsp_gather_blocked_on_the_bound_reads_the_put_it_waited_for() {
        let store = HeldStore::new(Held::Rmw);
        let t = Arc::new(
            EmbeddingTable::builder(Arc::clone(&store) as Arc<dyn KvStore>)
                .dim(8)
                .staleness_bound(0)
                .build()
                .unwrap(),
        );
        t.put_one(1, &[1.0; 8]).unwrap();
        // The step's read: staleness 1, the bound is reached.
        assert_eq!(t.gather(&[1]).unwrap(), vec![vec![1.0; 8]]);
        // Its update takes the Put latch and stalls inside the engine call.
        let applier = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.apply_gradients(&[(1, &[1.0; 8][..])], 0.5))
        };
        wait_until(|| store.entered.load(Ordering::SeqCst));
        let reader = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.gather(&[1]).unwrap())
        };
        wait_until(|| t.staleness_stats().blocked_gets == 1 || reader.is_finished());
        store.proceed.store(true, Ordering::SeqCst);
        applier.join().unwrap().unwrap();
        assert_eq!(
            reader.join().unwrap(),
            vec![vec![0.5; 8]],
            "under BSP the next read must see the update it waited for"
        );
        assert_eq!(t.staleness_of(1), 1);
    }

    #[test]
    fn bsp_gather_after_a_lookahead_racing_an_apply_reads_the_apply() {
        let store = HeldStore::new(Held::Promote);
        let t = EmbeddingTable::builder(Arc::clone(&store) as Arc<dyn KvStore>)
            .dim(4)
            .staleness_bound(0)
            .build()
            .unwrap();
        t.put_one(1, &[1.0; 4]).unwrap();
        assert_eq!(t.gather(&[1]).unwrap(), vec![vec![1.0; 4]]);
        // The next step's look-ahead stalls inside the engine while this
        // step's update lands.
        t.lookahead(&[1]);
        wait_until(|| store.entered.load(Ordering::SeqCst));
        t.apply_gradients(&[(1, &[1.0; 4][..])], 0.5).unwrap();
        store.proceed.store(true, Ordering::SeqCst);
        t.wait_for_lookahead();
        assert_eq!(
            t.gather(&[1]).unwrap(),
            vec![vec![0.5; 4]],
            "a look-ahead must never hand a gather the row an apply replaced"
        );
    }

    #[test]
    fn lookahead_into_storage_buffer_promotes_cold_records() {
        let store = open_store(
            BackendKind::Mlkv,
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        let t = EmbeddingTable::builder(store)
            .dim(8)
            .staleness_bound(u32::MAX)
            .build()
            .unwrap();
        for k in 0..2000u64 {
            t.put_one(k, &[k as f32; 8]).unwrap();
        }
        t.lookahead(&(0..32u64).collect::<Vec<_>>());
        t.wait_for_lookahead();
        assert!(t.prefetch_stats().promoted > 0);
        assert!(t.store_metrics().prefetch_copies > 0);
        // Values survive promotion.
        assert_eq!(t.get_one(0).unwrap(), vec![0.0; 8]);
    }

    #[test]
    fn rmw_one_initialises_and_modifies() {
        let t = table(u32::MAX);
        let out = t
            .rmw_one(77, |v| {
                for x in v.iter_mut() {
                    *x = 1.5;
                }
            })
            .unwrap();
        assert_eq!(out, vec![1.5; 8]);
        assert_eq!(t.get_one(77).unwrap(), vec![1.5; 8]);
    }

    #[test]
    fn works_over_every_backend() {
        for kind in BackendKind::ALL {
            let store = open_store(
                kind,
                StoreConfig::in_memory()
                    .with_memory_budget(1 << 20)
                    .with_page_size(4096),
            )
            .unwrap();
            let t = EmbeddingTable::builder(store)
                .dim(4)
                .staleness_bound(4)
                .build()
                .unwrap();
            t.put_one(1, &[0.25; 4]).unwrap();
            assert_eq!(t.get_one(1).unwrap(), vec![0.25; 4], "{}", kind.name());
            t.apply_gradients(&[(1, &[1.0; 4][..])], 0.25).unwrap();
            assert_eq!(t.get_one(1).unwrap(), vec![0.0; 4], "{}", kind.name());
        }
    }

    #[test]
    fn concurrent_trainers_with_ssp_make_progress() {
        let store = open_store(
            BackendKind::Mlkv,
            StoreConfig::in_memory()
                .with_memory_budget(1 << 20)
                .with_page_size(4096),
        )
        .unwrap();
        let t = Arc::new(
            EmbeddingTable::builder(store)
                .dim(8)
                .staleness_bound(8)
                .build()
                .unwrap(),
        );
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = (worker * 50 + i) % 100;
                    let v = t.get_one(key).unwrap();
                    t.apply_gradients(&[(key, &[0.01; 8][..])], 0.1).unwrap();
                    assert_eq!(v.len(), 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every key's Gets were matched by Puts, so staleness returns to zero.
        for key in 0..100u64 {
            assert_eq!(t.staleness_of(key), 0, "key {key}");
        }
    }
}
