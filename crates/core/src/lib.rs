//! # MLKV
//!
//! Reproduction of **MLKV: Efficiently Scaling up Large Embedding Model Training
//! with Disk-based Key-Value Storage** (ICDE 2025).
//!
//! MLKV is a data storage framework that lets embedding-model training
//! frameworks scale beyond memory by storing embedding tables in a disk-based
//! key-value store while addressing the two problems that normally make that
//! slow or inaccurate:
//!
//! * **Data stalls** are hidden by [`EmbeddingTable::lookahead`] — *look-ahead
//!   prefetching* that copies soon-to-be-needed records from disk (or from the
//!   engine's read-only memory region) into its mutable buffer ahead of time,
//!   beyond the staleness window (paper §III-C2). It never reads a value into
//!   the application, so every row a gather returns comes from the engine.
//! * **Staleness** is bounded per record by a latch-free vector clock packed
//!   into the 64-bit record word ([`RecordWord`], paper Figure 5(a)); the
//!   staleness bound selects BSP / SSP / ASP training (paper §III-C1).
//!
//! The user-facing API mirrors the paper's Figure 3, with a **batch-first**
//! surface: a training step is one `gather`, one `apply_gradients`, and one
//! `lookahead` — each a single batched call all the way down to the storage
//! engine:
//!
//! ```
//! use mlkv::{BackendKind, Mlkv};
//!
//! // nn_model, emb_tables = MLKV.Open(model_id, dim, staleness_bound)
//! let model = Mlkv::builder("quickstart")
//!     .dim(16)
//!     .staleness_bound(4)
//!     .backend(BackendKind::Mlkv)
//!     .build()
//!     .unwrap();
//!
//! // Training loop: gather -> forward/backward (your framework) -> scatter.
//! let keys = vec![10, 42, 77];
//! let emb_values = model.gather(&keys).unwrap();
//! let grads: Vec<Vec<f32>> = emb_values.iter().map(|v| vec![0.01; v.len()]).collect();
//! let updates: Vec<(u64, &[f32])> = keys
//!     .iter()
//!     .zip(&grads)
//!     .map(|(k, g)| (*k, g.as_slice()))
//!     .collect();
//! model.apply_gradients(&updates, 0.1).unwrap();
//!
//! // Tell MLKV which keys the *next* batches will touch.
//! model.lookahead(&[100, 101, 102]);
//! ```
//!
//! The storage engines themselves live in sibling crates (`mlkv-faster`,
//! `mlkv-lsm`, `mlkv-btree`); this crate layers the MLKV semantics on top of any
//! of them through the [`BackendKind`] factory.

pub mod backend;
pub mod codec;
pub mod model;
pub mod prefetch;
pub mod record_word;
pub mod staleness;
pub mod stats;
pub mod table;

pub use backend::{open_store, BackendKind};
pub use model::{EmbeddingModel, EmbeddingModelBuilder, Mlkv};
pub use prefetch::{PrefetchStats, Prefetcher};
pub use record_word::{AtomicRecordWord, PutLatch, RecordWord};
pub use staleness::{ConsistencyMode, StalenessController, StalenessStats};
pub use stats::{TableStats, TableStatsSnapshot};
pub use table::{EmbeddingTable, TableBuilder, TableOptions};

// Re-export the storage-facing types users need when configuring backends.
pub use mlkv_storage::{
    BatchExecutor, DurabilityMode, KvStore, StorageError, StorageResult, StoreConfig, WriteBatch,
};
