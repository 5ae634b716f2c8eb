//! `TracedStore`: the benchmark's wrapper at the engine boundary.
//!
//! It implements every `KvStore` method by forwarding to the same-named
//! method of the wrapped engine — never to a trait default, which would turn
//! one batched call into a loop of per-key calls and change what is measured
//! (`selftest` pins this with a call-counting mock). Calls and keys are
//! counted always; spans are recorded only while the trace is on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mlkv_storage::kv::{Key, ReadResult};
use mlkv_storage::wal::WalTap;
use mlkv_storage::{BatchRmwFn, KvStore, RmwFn, StorageMetrics, StorageResult, WriteBatch};

use crate::trace::{Layer, Trace};

/// The `KvStore` methods that do work in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    GetTraced,
    MultiGet,
    Put,
    Rmw,
    MultiRmw,
    Delete,
    Exists,
    Contains,
    WriteBatch,
    PromoteToMemory,
    MultiPromote,
    Flush,
}

impl Op {
    pub const ALL: [Op; 13] = [
        Op::Get,
        Op::GetTraced,
        Op::MultiGet,
        Op::Put,
        Op::Rmw,
        Op::MultiRmw,
        Op::Delete,
        Op::Exists,
        Op::Contains,
        Op::WriteBatch,
        Op::PromoteToMemory,
        Op::MultiPromote,
        Op::Flush,
    ];

    /// The method's name, which is also its span's `op`.
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::GetTraced => "get_traced",
            Op::MultiGet => "multi_get",
            Op::Put => "put",
            Op::Rmw => "rmw",
            Op::MultiRmw => "multi_rmw",
            Op::Delete => "delete",
            Op::Exists => "exists",
            Op::Contains => "contains",
            Op::WriteBatch => "write_batch",
            Op::PromoteToMemory => "promote_to_memory",
            Op::MultiPromote => "multi_promote",
            Op::Flush => "flush",
        }
    }
}

const N_OPS: usize = Op::ALL.len();

/// Calls and keys seen per [`Op`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    calls: [u64; N_OPS],
    keys: [u64; N_OPS],
}

impl EngineCounts {
    pub fn since(&self, earlier: &EngineCounts) -> EngineCounts {
        let mut out = *self;
        for i in 0..N_OPS {
            out.calls[i] -= earlier.calls[i];
            out.keys[i] -= earlier.keys[i];
        }
        out
    }

    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    pub fn keys(&self, op: Op) -> u64 {
        self.keys[op as usize]
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// A `KvStore` that measures the engine behind it.
pub struct TracedStore {
    inner: Arc<dyn KvStore>,
    trace: Arc<Trace>,
    calls: [AtomicU64; N_OPS],
    keys: [AtomicU64; N_OPS],
}

impl TracedStore {
    pub fn new(inner: Arc<dyn KvStore>, trace: Arc<Trace>) -> Self {
        Self {
            inner,
            trace,
            calls: Default::default(),
            keys: Default::default(),
        }
    }

    pub fn counts(&self) -> EngineCounts {
        let mut out = EngineCounts::default();
        for i in 0..N_OPS {
            out.calls[i] = self.calls[i].load(Ordering::Relaxed);
            out.keys[i] = self.keys[i].load(Ordering::Relaxed);
        }
        out
    }

    /// Count one call of `op` over `keys` keys and, while tracing, time it.
    fn measured<T>(&self, op: Op, keys: usize, f: impl FnOnce() -> T) -> T {
        let i = op as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.keys[i].fetch_add(keys as u64, Ordering::Relaxed);
        if !self.trace.enabled() {
            return f();
        }
        let start = self.trace.now_ns();
        let out = f();
        self.trace
            .record(Layer::Engine, op.name(), start, keys as u32, 0);
        out
    }
}

impl KvStore for TracedStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: Key) -> StorageResult<Vec<u8>> {
        self.measured(Op::Get, 1, || self.inner.get(key))
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        self.measured(Op::GetTraced, 1, || self.inner.get_traced(key))
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        self.measured(Op::MultiGet, keys.len(), || self.inner.multi_get(keys))
    }

    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        self.measured(Op::Put, 1, || self.inner.put(key, value))
    }

    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        self.measured(Op::Rmw, 1, || self.inner.rmw(key, f))
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        self.measured(Op::MultiRmw, keys.len(), || self.inner.multi_rmw(keys, f))
    }

    fn delete(&self, key: Key) -> StorageResult<()> {
        self.measured(Op::Delete, 1, || self.inner.delete(key))
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        self.measured(Op::Exists, 1, || self.inner.exists(key))
    }

    fn contains(&self, key: Key) -> StorageResult<bool> {
        self.measured(Op::Contains, 1, || self.inner.contains(key))
    }

    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        self.measured(Op::WriteBatch, batch.len(), || {
            self.inner.write_batch(batch)
        })
    }

    fn promote_to_memory(&self, key: Key) -> StorageResult<bool> {
        self.measured(Op::PromoteToMemory, 1, || self.inner.promote_to_memory(key))
    }

    fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
        self.measured(Op::MultiPromote, keys.len(), || {
            self.inner.multi_promote(keys)
        })
    }

    fn approximate_len(&self) -> usize {
        self.inner.approximate_len()
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        self.inner.metrics()
    }

    fn flush(&self) -> StorageResult<()> {
        self.measured(Op::Flush, 0, || self.inner.flush())
    }

    fn replication_tap(&self) -> Option<Arc<WalTap>> {
        self.inner.replication_tap()
    }

    fn apply_replicated_group(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        self.inner.apply_replicated_group(frames)
    }

    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        self.inner.replication_snapshot()
    }
}
