//! Common storage abstractions shared by every key-value engine in the MLKV
//! reproduction workspace.
//!
//! The crate provides:
//!
//! * [`KvStore`] — the blocking key-value interface every engine implements
//!   (FASTER-like hybrid log, LSM tree, B+tree, and the in-memory baseline).
//! * [`Device`] — a positioned-I/O abstraction over files or memory, used by the
//!   engines for their on-disk components, with a vectored batch read
//!   ([`Device::read_scatter`]).
//! * [`IoPlanner`] / [`ReadReq`] — the cold-path I/O planner that coalesces a
//!   batch of near-adjacent device reads into few large ones and submits them
//!   to the device as one batch.
//! * [`IoBatch`] — the handle [`Device::submit_reads`] returns. The device
//!   decides when a submission completes: inline by default, on a virtual
//!   clock for the simulated SSD ([`SimLatencyDevice`]).
//! * [`Page`] / [`PageId`] — fixed-size page plumbing for paged engines.
//! * [`ShardedLruCache`] — the byte cache the LSM engine uses as its block
//!   cache.
//! * [`StorageMetrics`] — atomic counters describing disk traffic and cache
//!   behaviour; every engine exposes one so that the benchmark harness can report
//!   I/O alongside throughput.
//! * [`BatchExecutor`] — the shard-parallel worker pool every engine routes its
//!   batched operations through, so one large `gather` saturates every core.
//! * [`prefetch`] — a CPU cache hint, so a batch can request every line it
//!   will touch before the pass that touches them.
//!
//! Everything here is synchronous and thread-safe; the asynchrony the paper relies
//! on (look-ahead prefetching) is layered on top in the `mlkv` crate.

pub mod cache;
pub mod config;
pub mod device;
pub mod error;
pub mod exec;
pub mod hint;
pub mod io;
pub mod kv;
pub mod memstore;
pub mod metrics;
pub mod page;
pub mod ring;
pub mod wal;

pub use cache::ShardedLruCache;
pub use config::{
    DeviceFactory, DurabilityMode, FaultTuning, ReplicationTuning, StoreConfig,
    DEFAULT_GROUP_COMMIT_WINDOW,
};
pub use device::{
    device_from_config, CrashClock, CrashDevice, Device, FailingDevice, FileDevice, MemDevice,
    SimLatencyDevice,
};
pub use error::{StorageError, StorageResult};
pub use exec::BatchExecutor;
pub use hint::{prefetch, prefetch_slice};
pub use io::{IoPlanner, PendingRead, ReadReq};
pub use kv::{BatchReadFn, BatchRmwFn, KvStore, RmwFn, WriteBatch};
pub use memstore::MemStore;
pub use metrics::{MetricsSnapshot, ReadTally, StorageMetrics};
pub use page::{Page, PageId, PAGE_SIZE};
pub use ring::IoBatch;
pub use wal::{
    ReplicaApplier, Shipment, WalGroup, WalOp, WalReader, WalShipper, WalTap, WalWriter,
};
