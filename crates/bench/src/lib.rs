//! Shared helpers for the figure/table reproduction binaries.
//!
//! Every binary accepts `--scale <f64>` (default 1.0) which multiplies the
//! built-in laptop-scale workload sizes, so `--scale 4` runs a longer, more
//! faithful sweep and `--scale 0.25` gives a quick smoke run.

pub mod fault;
pub mod replication;

use std::sync::Arc;
use std::time::Duration;

use mlkv::{BackendKind, EmbeddingTable, Mlkv, StorageResult};
use mlkv_storage::kv::{BatchRmwFn, Key, KvStore, ReadResult, RmwFn};
use mlkv_storage::{StorageMetrics, StoreConfig};

/// Value following `flag` in `args` (e.g. `arg_value(&args, "--out")`),
/// shared by every bench binary's flag parsing.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// [`arg_value`] over the process arguments.
pub fn cli_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    arg_value(&args, flag)
}

/// Parse `--scale <f64>` from the process arguments (default 1.0).
pub fn scale_from_args() -> f64 {
    cli_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Parse `--parallelism <usize>` from the process arguments. Defaults to `0`
/// (auto-size from the host); `--parallelism 1` pins every batched operation
/// to the calling thread for deterministic, executor-free runs.
pub fn parallelism_from_args() -> usize {
    cli_value("--parallelism")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Open an embedding table on `backend` with the given storage buffer budget.
/// MLKV backends get bounded staleness + look-ahead workers; baseline backends
/// get the plain table layer with enforcement disabled (pure offloading).
pub fn open_table(
    name: &str,
    backend: BackendKind,
    buffer_bytes: usize,
    dim: usize,
    staleness_bound: u32,
) -> StorageResult<Arc<EmbeddingTable>> {
    let mut builder = Mlkv::builder(name)
        .dim(dim)
        .backend(backend)
        .memory_budget(buffer_bytes)
        .page_size(16 << 10)
        .staleness_bound(staleness_bound)
        .lookahead_workers(2)
        .parallelism(parallelism_from_args())
        .init_scale(0.5);
    if !backend.is_mlkv() {
        builder = builder.disable_staleness_enforcement();
    }
    Ok(builder.build()?.table())
}

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Format a byte count as a short human-readable buffer label.
pub fn buffer_label(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

/// Simulated per-batch accelerator compute used so that storage stalls and NN
/// compute overlap the way they do on the paper's GPUs.
pub fn default_compute() -> Duration {
    Duration::from_micros(300)
}

/// A [`KvStore`] adapter that runs every operation through MLKV's record-word
/// protocol (Get admission, Put latches), a per-key call as a batch of one.
/// Used by the Figure 10 YCSB benchmark to measure the vector-clock overhead
/// of MLKV relative to plain FASTER, as §IV-E does.
pub struct StalenessWrappedStore {
    inner: Arc<dyn KvStore>,
    controller: mlkv::StalenessController,
}

impl StalenessWrappedStore {
    /// Wrap `inner` with bounded-staleness bookkeeping under `bound`.
    pub fn new(inner: Arc<dyn KvStore>, bound: u32) -> Self {
        Self {
            inner,
            controller: mlkv::StalenessController::new(
                mlkv::ConsistencyMode::from_bound(bound),
                true,
            ),
        }
    }
}

impl KvStore for StalenessWrappedStore {
    fn name(&self) -> &'static str {
        "MLKV"
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        self.controller.admit_get_batch(&[key])?;
        self.inner.get_traced(key)
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        // One record-word admission sweep per batch, then the engine's own
        // batched read — mirroring how the MLKV table layer issues batches.
        if let Err(e) = self.controller.admit_get_batch(keys) {
            return keys
                .iter()
                .map(|_| Err(clone_staleness_error(&e)))
                .collect();
        }
        self.inner.multi_get(keys)
    }

    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        let guards = self.controller.acquire_put_batch(&[key])?;
        let out = self.inner.put(key, value);
        drop(guards);
        out
    }

    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        let guards = self.controller.acquire_put_batch(&[key])?;
        let out = self.inner.rmw(key, f);
        drop(guards);
        out
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        let guards = self.controller.acquire_put_batch(keys)?;
        let out = self.inner.multi_rmw(keys, f);
        drop(guards);
        out
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        self.inner.exists(key)
    }

    fn write_batch(&self, batch: &mlkv_storage::WriteBatch) -> StorageResult<()> {
        let keys: Vec<Key> = batch.iter().map(|(k, _)| *k).collect();
        let guards = self.controller.acquire_put_batch(&keys)?;
        let out = self.inner.write_batch(batch);
        drop(guards);
        out
    }

    fn delete(&self, key: Key) -> StorageResult<()> {
        self.inner.delete(key)
    }

    fn promote_to_memory(&self, key: Key) -> StorageResult<bool> {
        self.inner.promote_to_memory(key)
    }

    fn approximate_len(&self) -> usize {
        self.inner.approximate_len()
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        self.inner.metrics()
    }

    fn flush(&self) -> StorageResult<()> {
        self.inner.flush()
    }
}

/// Rebuild a staleness-admission failure for every slot of a batch
/// (`StorageError` is not `Clone`; only the timeout variant reaches here).
fn clone_staleness_error(e: &mlkv::StorageError) -> mlkv::StorageError {
    match e {
        mlkv::StorageError::StalenessTimeout { key, bound } => {
            mlkv::StorageError::StalenessTimeout {
                key: *key,
                bound: *bound,
            }
        }
        other => mlkv::StorageError::InvalidArgument(format!("batch admission failed: {other}")),
    }
}

/// Open a raw FASTER-engine store with the given buffer (used by YCSB runs).
pub fn open_faster_store(buffer_bytes: usize) -> StorageResult<Arc<dyn KvStore>> {
    Ok(Arc::new(mlkv_faster::FasterKv::open(
        StoreConfig::in_memory()
            .with_memory_budget(buffer_bytes)
            .with_page_size(16 << 10)
            .with_index_buckets(1 << 16),
    )?))
}

/// Shared setup for the shard-parallel batch measurements, used by both the
/// `batch_parallel` criterion bench and the `emit_bench_json` recorder so the
/// two entry points always measure the same stores.
pub mod batch_parallel {
    use std::sync::Arc;
    use std::time::Duration;

    use mlkv::{open_store, BackendKind, EmbeddingTable};
    use mlkv_storage::StoreConfig;

    /// Parallelism levels every group sweeps.
    pub const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];
    /// Gather batch sizes for the warm groups: two that run inline at every
    /// level, and one large enough to fan out (4 × `MIN_KEYS_PER_WORKER`).
    pub const GATHER_BATCH_SIZES: [usize; 3] = [1024, 4096, 16384];
    /// Batch size of the warm apply-gradients groups (the largest populate
    /// chunk of the gated benchmark; it runs inline at every level).
    pub const APPLY_BATCH_SIZE: usize = 4096;
    /// Key space of the warm (RAM-resident) tables.
    pub const WARM_KEY_SPACE: u64 = 20_000;
    /// Key space of the cold (larger-than-memory) FASTER table.
    pub const COLD_KEY_SPACE: u64 = 4_000;
    /// Simulated SSD read latency of the cold configuration.
    pub const COLD_READ_LATENCY: Duration = Duration::from_micros(25);
    /// The persistent engines whose write paths are sharded, swept by the
    /// warm apply-gradients group (labels follow the paper's figures).
    pub const WRITE_BACKENDS: [BackendKind; 3] = [
        BackendKind::Faster,
        BackendKind::RocksDbLike,
        BackendKind::WiredTigerLike,
    ];

    fn build_table(
        backend: BackendKind,
        parallelism: usize,
        memory_budget: usize,
        read_latency: Duration,
        key_space: u64,
    ) -> Arc<EmbeddingTable> {
        let store = open_store(
            backend,
            StoreConfig::in_memory()
                .with_memory_budget(memory_budget)
                .with_page_size(4 << 10)
                .with_index_buckets(1 << 14)
                .with_parallelism(parallelism)
                .with_simulated_read_latency(read_latency),
        )
        .unwrap();
        let table = Arc::new(
            EmbeddingTable::builder(store)
                .dim(16)
                .staleness_bound(u32::MAX)
                .build()
                .unwrap(),
        );
        let keys: Vec<u64> = (0..key_space).collect();
        let rows = vec![vec![0.5f32; 16]; keys.len()];
        table.put(&keys, &rows).unwrap();
        table
    }

    /// A RAM-resident table on `backend`: gathers and applies are pure CPU
    /// work (for applies: memtable shards / leaf latches / hash-chain CAS).
    pub fn warm_table(backend: BackendKind, parallelism: usize) -> Arc<EmbeddingTable> {
        build_table(
            backend,
            parallelism,
            64 << 20,
            Duration::ZERO,
            WARM_KEY_SPACE,
        )
    }

    /// FASTER with a tiny memory window and simulated SSD read latency: most
    /// of a random batch hits the cold region, so it is device-bound and the
    /// executor's win is overlapped I/O waits rather than extra cores (a
    /// gather's workers each coalesce their own range's reads; an RMW over the
    /// cold region pays a blocking simulated-SSD read per record).
    pub fn cold_faster_table(parallelism: usize) -> Arc<EmbeddingTable> {
        build_table(
            BackendKind::Faster,
            parallelism,
            64 << 10,
            COLD_READ_LATENCY,
            COLD_KEY_SPACE,
        )
    }

    /// The rotating key pattern both entry points gather.
    pub fn rotating_keys(base: u64, n: usize, key_space: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (base + i * 17) % key_space).collect()
    }

    /// Gradient rows for one apply-gradients batch over [`rotating_keys`]
    /// (the caller zips these with the keys into `&[(u64, &[f32])]`).
    pub fn gradient_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
        vec![vec![0.01f32; dim]; n]
    }
}

/// Shared setup for the coalesced cold-path I/O measurements.
///
/// The stores are larger-than-memory with a throughput-priced simulated SSD
/// ([`mlkv_storage::SimLatencyDevice`]: fixed cost per request + per-byte
/// transfer), so a cold gather is dominated by device round trips — the cost
/// the coalescing [`mlkv_storage::IoPlanner`] cuts and the simulated device's
/// clocked submissions overlap.
pub mod io_coalesce {
    use std::sync::Arc;
    use std::time::Duration;

    use mlkv::{open_store, BackendKind, EmbeddingTable};
    use mlkv_storage::StoreConfig;

    pub use super::batch_parallel::rotating_keys;

    /// Key space: ~6x the memory budget, so most of a random gather is cold.
    pub const KEY_SPACE: u64 = 4_000;
    /// Embedding dimension of the cold tables.
    pub const DIM: usize = 16;
    /// Fixed per-request cost of the simulated SSD (command overhead).
    pub const READ_LATENCY: Duration = Duration::from_micros(25);
    /// Simulated SSD transfer rate: 1 GiB/s, so merged large reads still pay
    /// for every byte they move.
    pub const READ_BYTES_PER_SEC: u64 = 1 << 30;
    /// Gap threshold of the cold tables. The default 4 KiB gap folds this
    /// dense setup into one or two giant runs per pass; a 256 B gap leaves
    /// one merged run per record, so a pass is a submission of many requests
    /// whose fixed costs the simulated device overlaps.
    pub const GAP_BYTES: usize = 256;
    /// The disk-backed engines the bench sweeps (labels follow the paper's
    /// figures: RocksDB = LSM, WiredTiger = B+tree).
    pub const BACKENDS: [BackendKind; 3] = [
        BackendKind::Faster,
        BackendKind::RocksDbLike,
        BackendKind::WiredTigerLike,
    ];

    /// Larger-than-memory table over the simulated SSD, with [`GAP_BYTES`]
    /// so each pass genuinely leaves many merged runs.
    pub fn cold_table_io(backend: BackendKind, parallelism: usize) -> Arc<EmbeddingTable> {
        let store = open_store(
            backend,
            StoreConfig::in_memory()
                .with_io_gap_bytes(GAP_BYTES)
                .with_memory_budget(64 << 10)
                .with_page_size(4 << 10)
                .with_index_buckets(1 << 14)
                .with_parallelism(parallelism)
                .with_simulated_read_latency(READ_LATENCY)
                .with_simulated_read_throughput(READ_BYTES_PER_SEC),
        )
        .unwrap();
        let table = Arc::new(
            EmbeddingTable::builder(store)
                .dim(DIM)
                .staleness_bound(u32::MAX)
                .build()
                .unwrap(),
        );
        let keys: Vec<u64> = (0..KEY_SPACE).collect();
        let rows = vec![vec![0.5f32; DIM]; keys.len()];
        table.put(&keys, &rows).unwrap();
        // Push memtable/pool residue to the device so the gather's cold
        // fraction is the same on every engine.
        table.flush().unwrap();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_coalesce_setup_gathers_identically_to_per_key_reads() {
        for backend in io_coalesce::BACKENDS {
            let table = io_coalesce::cold_table_io(backend, 1);
            let keys = io_coalesce::rotating_keys(3, 64, io_coalesce::KEY_SPACE);
            let per_key: Vec<Vec<f32>> = keys.iter().map(|&k| table.get_one(k).unwrap()).collect();
            assert_eq!(table.gather(&keys).unwrap(), per_key, "{}", backend.name());
        }
    }

    #[test]
    fn batch_parallel_setup_builds_and_gathers() {
        let warm = batch_parallel::warm_table(BackendKind::InMemory, 1);
        let keys = batch_parallel::rotating_keys(7, 64, batch_parallel::WARM_KEY_SPACE);
        assert_eq!(warm.gather(&keys).unwrap().len(), 64);
    }

    #[test]
    fn batch_parallel_tables_apply_identically_across_parallelism() {
        for backend in batch_parallel::WRITE_BACKENDS {
            let serial = batch_parallel::warm_table(backend, 1);
            let sharded = batch_parallel::warm_table(backend, 4);
            let keys = batch_parallel::rotating_keys(3, 512, batch_parallel::WARM_KEY_SPACE);
            let grads = batch_parallel::gradient_rows(keys.len(), 16);
            let updates: Vec<(u64, &[f32])> = keys
                .iter()
                .copied()
                .zip(grads.iter().map(|g| g.as_slice()))
                .collect();
            serial.apply_gradients(&updates, 0.1).unwrap();
            sharded.apply_gradients(&updates, 0.1).unwrap();
            assert_eq!(
                serial.gather(&keys).unwrap(),
                sharded.gather(&keys).unwrap(),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn open_table_for_every_backend() {
        for backend in BackendKind::ALL {
            let t = open_table("bench-helper", backend, 1 << 20, 8, 4).unwrap();
            t.put_one(1, &[0.5; 8]).unwrap();
            assert_eq!(t.get_one(1).unwrap(), vec![0.5; 8]);
        }
    }

    #[test]
    fn staleness_wrapped_store_behaves_like_inner() {
        let inner = open_faster_store(1 << 20).unwrap();
        let wrapped = StalenessWrappedStore::new(inner, u32::MAX);
        wrapped.put(1, b"abc").unwrap();
        assert_eq!(wrapped.get(1).unwrap(), b"abc");
        assert_eq!(wrapped.name(), "MLKV");
        assert_eq!(wrapped.approximate_len(), 1);
    }

    #[test]
    fn buffer_labels() {
        assert_eq!(buffer_label(2 << 20), "2MB");
        assert_eq!(buffer_label(512 << 10), "512KB");
    }
}
