//! A FASTER-like hybrid-log key-value store.
//!
//! This crate reimplements, from scratch, the storage substrate the paper builds
//! MLKV on: Microsoft FASTER's *hybrid log* design (Chandramouli et al., VLDB'18).
//! The log is a single logical address space split into three regions:
//!
//! ```text
//!   0 ........ head_address ........ read_only_address ........ tail_address
//!   |   on disk (stable)   |  in-memory, immutable   |  in-memory, mutable  |
//! ```
//!
//! * Records are appended at the tail; updates either happen in place (when the
//!   record lives in the mutable region) or append a new version that is linked
//!   to the previous one (read-copy-update), exactly like FASTER.
//! * A lock-free hash index of cache-line buckets maps a key, through its hash
//!   bucket and a 15-bit tag, to the address of its most recent record; older
//!   versions hang off that record's chain.
//! * When the in-memory window exceeds its budget, the oldest page is flushed to
//!   the device and the head address advances; reads below the head go to disk.
//! * [`KvStore::promote_to_memory`](mlkv_storage::KvStore::promote_to_memory)
//!   (implemented by [`FasterKv`]) copies a cold record back into the mutable
//!   region without changing its value — the primitive MLKV's look-ahead
//!   prefetching relies on (paper §III-C2).
//!
//! The implementation favours clarity over absolute peak performance (page frames
//! are guarded by `parking_lot` RwLocks rather than purely epoch-protected raw
//! pointers), but preserves the structural properties the paper's evaluation
//! depends on: log-structured writes, an explicit in-memory window set by the
//! buffer budget, region-aware reads, and cheap record promotion.

pub mod address;
pub mod checkpoint;
pub mod epoch;
pub mod hash_index;
pub mod hlog;
pub mod record;
pub mod store;

pub use address::Address;
pub use epoch::EpochManager;
pub use hash_index::HashIndex;
pub use hlog::HybridLog;
pub use record::{Record, RecordFlags, RecordRef};
pub use store::FasterKv;
