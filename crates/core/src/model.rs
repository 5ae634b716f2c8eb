//! The `Open` interface of Figure 3: creating an embedding model with a
//! controllable staleness bound and dimension.
//!
//! ```
//! use mlkv::Mlkv;
//!
//! // Figure 3, line 3: nn_model, emb_tables = MLKV.Open(model_id, dim, staleness_bound)
//! let model = Mlkv::open("my-ctr-model", 16, 4).unwrap();
//! let emb = model.table();
//! let values = emb.get(&[1, 2, 3]).unwrap();
//! assert_eq!(values.len(), 3);
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use mlkv_storage::{StorageResult, StoreConfig};

use crate::backend::{open_store, BackendKind};
use crate::table::{EmbeddingTable, TableOptions};

/// Entry point mirroring the paper's `MLKV.Open` call.
pub struct Mlkv;

impl Mlkv {
    /// Open an in-memory-device embedding model (convenient default used by the
    /// examples and tests). For disk-backed models use [`Mlkv::builder`].
    pub fn open(model_id: &str, dim: usize, staleness_bound: u32) -> StorageResult<EmbeddingModel> {
        Mlkv::builder(model_id)
            .dim(dim)
            .staleness_bound(staleness_bound)
            .build()
    }

    /// Start configuring an embedding model.
    pub fn builder(model_id: &str) -> EmbeddingModelBuilder {
        EmbeddingModelBuilder::new(model_id)
    }
}

/// Builder for [`EmbeddingModel`].
pub struct EmbeddingModelBuilder {
    model_id: String,
    backend: BackendKind,
    store_config: StoreConfig,
    options: TableOptions,
}

impl EmbeddingModelBuilder {
    fn new(model_id: &str) -> Self {
        Self {
            model_id: model_id.to_string(),
            backend: BackendKind::Mlkv,
            store_config: StoreConfig::in_memory()
                .with_memory_budget(256 << 20)
                .with_page_size(16 << 10),
            options: TableOptions::default(),
        }
    }

    /// Embedding dimension.
    pub fn dim(mut self, dim: usize) -> Self {
        self.options.dim = dim;
        self
    }

    /// Staleness bound: 0 = BSP, `u32::MAX` = ASP, otherwise SSP.
    pub fn staleness_bound(mut self, bound: u32) -> Self {
        self.options.staleness_bound = bound;
        self
    }

    /// Disable bounded-staleness enforcement entirely (leaves only the per-key
    /// memory overhead, see §IV-E).
    pub fn disable_staleness_enforcement(mut self) -> Self {
        self.options.enforce_staleness = false;
        self
    }

    /// Select the storage backend (default: MLKV's own hybrid-log engine).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the storage engine's whole configuration (I/O backend, queue
    /// depth, merge gap, durability, … — everything [`StoreConfig`] carries).
    /// The builder starts from an in-memory config with a 256 MiB budget and
    /// 16 KiB pages; [`EmbeddingModelBuilder::directory`], `memory_budget`,
    /// `page_size` and `parallelism` write into whichever config is current,
    /// so the last call wins — set those *after* this one to override it. A
    /// `dir` carried by `config` is used verbatim (no `<model_id>` suffix).
    pub fn store_config(mut self, config: StoreConfig) -> Self {
        self.store_config = config;
        self
    }

    /// Persist the model under `dir/<model_id>/` instead of an in-memory device.
    pub fn directory(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_config.dir = Some(dir.into().join(&self.model_id));
        self
    }

    /// In-memory buffer budget of the storage engine, in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.store_config.memory_budget = bytes;
        self
    }

    /// Page size of the storage engine.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.store_config.page_size = bytes;
        self
    }

    /// Number of background look-ahead workers.
    pub fn lookahead_workers(mut self, workers: usize) -> Self {
        self.options.lookahead_workers = workers;
        self
    }

    /// The one worker knob (`0` = auto-size from the host, `1` = every batch
    /// inline on the caller, deterministic): the storage engine's
    /// `StoreConfig::parallelism`, which sizes its shard- and range-parallel
    /// `multi_get` / `multi_read` / `multi_rmw` / `write_batch` and the shard
    /// counts its write path is built with. A batch fans out only when every
    /// worker gets `mlkv_storage::exec::MIN_KEYS_PER_WORKER` keys.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.store_config.parallelism = parallelism;
        self
    }

    /// Seed of the deterministic embedding initialiser.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Scale of the uniform random initialisation of unseen embeddings.
    pub fn init_scale(mut self, scale: f32) -> Self {
        self.options.init_scale = scale;
        self
    }

    /// Open the storage engine and build the embedding model.
    pub fn build(self) -> StorageResult<EmbeddingModel> {
        let store = open_store(self.backend, self.store_config)?;
        let table = EmbeddingTable::builder(store)
            .options(self.options)
            .build()?;
        Ok(EmbeddingModel {
            model_id: self.model_id,
            backend: self.backend,
            table: Arc::new(table),
        })
    }
}

/// An opened embedding model: a named, backend-bound [`EmbeddingTable`].
pub struct EmbeddingModel {
    model_id: String,
    backend: BackendKind,
    table: Arc<EmbeddingTable>,
}

impl EmbeddingModel {
    /// The model identifier passed to `Open`.
    pub fn model_id(&self) -> &str {
        &self.model_id
    }

    /// The backend storing this model.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The embedding table (`emb_tables` in Figure 3).
    pub fn table(&self) -> Arc<EmbeddingTable> {
        Arc::clone(&self.table)
    }
}

impl std::ops::Deref for EmbeddingModel {
    type Target = EmbeddingTable;

    fn deref(&self) -> &Self::Target {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::DurabilityMode;

    #[test]
    fn open_matches_figure_3_usage() {
        let model = Mlkv::open("test-model", 8, 4).unwrap();
        assert_eq!(model.model_id(), "test-model");
        assert_eq!(model.backend(), BackendKind::Mlkv);
        assert_eq!(model.dim(), 8);
        assert_eq!(model.mode().bound(), 4);
        // Figure 3 style usage through Deref.
        let values = model.get(&[1, 2, 3]).unwrap();
        assert_eq!(values.len(), 3);
        model.put(&[1], &[vec![0.5; 8]]).unwrap();
        assert_eq!(model.get_one(1).unwrap(), vec![0.5; 8]);
    }

    #[test]
    fn builder_configures_backend_and_staleness() {
        let model = Mlkv::builder("cfg")
            .dim(4)
            .staleness_bound(u32::MAX)
            .backend(BackendKind::RocksDbLike)
            .memory_budget(1 << 20)
            .lookahead_workers(2)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(model.backend(), BackendKind::RocksDbLike);
        assert_eq!(model.mode().name(), "ASP");
        model.put_one(1, &[1.0; 4]).unwrap();
        assert_eq!(model.get_one(1).unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn io_knobs_reach_the_store_and_preserve_results() {
        // `store_config` replaces the builder's config wholesale; the setters
        // after it write into the replacement (last call wins).
        let model = Mlkv::builder("io-knobs")
            .dim(4)
            .backend(BackendKind::Faster)
            .memory_budget(1 << 30)
            .store_config(StoreConfig::in_memory().with_io_gap_bytes(256))
            .memory_budget(16 << 10)
            .page_size(1 << 10)
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..500).collect();
        let rows = vec![vec![0.25f32; 4]; keys.len()];
        model.put(&keys, &rows).unwrap();
        // Larger-than-memory (the 1 GiB budget set before `store_config` is
        // gone): gathers hit the cold path.
        assert!(model.store().metrics().snapshot().disk_write_bytes > 0);
        assert_eq!(model.get(&keys).unwrap(), rows);
    }

    #[test]
    fn disk_backed_model_persists_under_model_directory() {
        let dir = std::env::temp_dir().join(format!("mlkv-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let model = Mlkv::builder("persisted")
                .dim(4)
                .directory(&dir)
                .memory_budget(1 << 20)
                .build()
                .unwrap();
            model.put_one(9, &[3.0; 4]).unwrap();
            model.flush().unwrap();
        }
        assert!(dir.join("persisted").join("hlog.dat").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_model_recovers_acknowledged_updates_on_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-model-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Mlkv::builder("durable")
                .dim(4)
                .store_config(
                    StoreConfig::in_memory()
                        .with_durability(DurabilityMode::GroupCommit { window: 64 }),
                )
                .directory(&dir)
                .memory_budget(1 << 20)
                .build()
                .unwrap()
        };
        let expected = {
            let model = open();
            model.put_one(9, &[3.0; 4]).unwrap();
            let updates: Vec<(u64, &[f32])> = vec![(9, &[0.5; 4])];
            model.apply_gradients(&updates, 1.0).unwrap();
            // No flush, no checkpoint: the WAL alone must carry the state.
            model.get_one(9).unwrap()
        };
        let model = open();
        assert_eq!(model.get_one(9).unwrap(), expected);
        assert_eq!(expected, vec![2.5f32; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_enforcement_never_tracks_stalls() {
        let model = Mlkv::builder("free")
            .dim(4)
            .staleness_bound(0)
            .disable_staleness_enforcement()
            .build()
            .unwrap();
        for _ in 0..10 {
            model.get_one(1).unwrap();
        }
        assert_eq!(model.staleness_stats().gets, 0);
        assert_eq!(model.staleness_of(1), 0);
    }
}
