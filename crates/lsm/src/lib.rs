//! An LSM-tree key-value store, standing in for RocksDB in the paper's
//! "offloading onto an industrial-strength key-value store" baselines.
//!
//! Writes go to a write-ahead log and a sorted in-memory memtable; when the
//! memtable exceeds its budget it is frozen and flushed to an immutable, sorted,
//! bloom-filtered SSTable. Reads consult the memtable, then the frozen memtable,
//! then each SSTable from newest to oldest (skipping tables whose bloom filter
//! rules the key out), optionally through a block cache. Size-tiered compaction
//! merges runs to bound read amplification.
//!
//! The structural properties that matter for the paper's comparison are faithful:
//! write-optimised ingest, read amplification across levels, bloom filters, a
//! memory budget split between memtable and block cache, and no facility for
//! promoting individual cold records into memory (which is exactly why look-ahead
//! prefetching cannot help this engine).

pub mod bloom;
pub mod memtable;
pub mod sstable;
pub mod store;

pub use bloom::BloomFilter;
pub use memtable::MemTable;
pub use sstable::SsTable;
pub use store::LsmStore;
