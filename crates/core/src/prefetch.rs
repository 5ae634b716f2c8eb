//! Look-ahead prefetching (paper §III-C2, Figure 5(b)).
//!
//! The non-blocking `Lookahead(keys)` interface hands batches of keys that will
//! be needed in *future* iterations to a pool of background workers, which copy
//! the records from below the storage engine's mutable memory buffer into it
//! (one [`KvStore::multi_promote`] per request). This is what
//! distinguishes look-ahead prefetching from conventional prefetching: it works
//! *beyond* the staleness bound because it never reads the value into the
//! application, so it cannot violate bounded staleness. Every row a gather
//! returns still comes from the engine.
//!
//! There is one destination. Conventional prefetching is a trainer gathering
//! k steps early into its own buffer; its staleness cost belongs to that
//! trainer, not to the table.
//!
//! A promotion copies every announced record that an update could not
//! overwrite in place: one on the device *or* in the engine's read-only
//! in-memory region. A trainer updates every key it gathers, so an announced
//! key is updated by the step that gathers it, and an update of a read-only
//! record appends a copy on the applier's thread anyway: the promotion moves
//! that append, a few steps earlier, onto the look-ahead worker
//! rather than adding pages to flush: traced 20 s runs of the benchmark's
//! `train-cold` workload wrote 0.826 device bytes per user byte with these
//! copies and 0.822 without (2-core host). Records already in the mutable
//! region are skipped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use mlkv_storage::KvStore;

/// Counters describing prefetcher activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Keys submitted via `lookahead`.
    pub submitted: u64,
    /// Keys fully processed by a worker.
    pub completed: u64,
    /// Keys that resulted in a copy into the storage buffer.
    pub promoted: u64,
    /// Always 0: no prefetch reads a value into the application. Kept until
    /// the benchmark drops its application-cache hit-ratio metric.
    pub cached: u64,
    /// Keys that needed no copy (already in the engine's mutable region,
    /// deleted or missing) or whose copy lost to a concurrent write.
    pub skipped: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    promoted: AtomicU64,
    skipped: AtomicU64,
}

/// Background look-ahead prefetcher.
pub struct Prefetcher {
    sender: Option<Sender<Vec<u64>>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl Prefetcher {
    /// Spawn `num_workers` background workers promoting look-ahead keys
    /// into `store`'s memory buffer. With 0 workers no thread is spawned and
    /// every announced key is counted as completed and skipped at once.
    pub fn new(store: Arc<dyn KvStore>, num_workers: usize) -> Self {
        let (sender, receiver): (Sender<Vec<u64>>, Receiver<Vec<u64>>) = unbounded();
        let counters = Arc::new(Counters::default());
        let workers: Vec<JoinHandle<()>> = (0..num_workers)
            .map(|_| {
                let receiver = receiver.clone();
                let store = Arc::clone(&store);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    while let Ok(keys) = receiver.recv() {
                        // One batched promote per request: the engine pays
                        // its epoch enter/exit once and copies cold records
                        // in log-address order.
                        let total = keys.len() as u64;
                        let promoted = match store.multi_promote(&keys) {
                            Ok(n) => n as u64,
                            // I/O failure mid-promote: the batch is a hint, so
                            // count it as skipped and move on.
                            Err(_) => 0,
                        };
                        counters.promoted.fetch_add(promoted, Ordering::Relaxed);
                        counters
                            .skipped
                            .fetch_add(total - promoted, Ordering::Relaxed);
                        counters.completed.fetch_add(total, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Self {
            sender: (!workers.is_empty()).then_some(sender),
            workers,
            counters,
        }
    }

    /// Submit keys for asynchronous prefetching. Never blocks.
    ///
    /// Keys are deduplicated before queueing: trainers announce raw
    /// per-sample key streams (Zipf-skewed batches repeat hot keys many
    /// times), and a duplicate can never be separately useful — it would
    /// both waste a probe and, counted as "skipped", poison the
    /// [`PrefetchStats`] hit-rate that the trainers' `AdaptiveLookahead`
    /// steers the look-ahead depth with. All counters are therefore per
    /// *unique* key.
    pub fn lookahead(&self, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        let mut unique = keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        self.counters
            .submitted
            .fetch_add(unique.len() as u64, Ordering::Relaxed);
        match &self.sender {
            // The channel is unbounded; send only fails after shutdown.
            Some(sender) => {
                let _ = sender.send(unique);
            }
            // No worker: nothing will promote these keys.
            None => {
                let n = unique.len() as u64;
                self.counters.skipped.fetch_add(n, Ordering::Relaxed);
                self.counters.completed.fetch_add(n, Ordering::Release);
            }
        }
    }

    /// Block until every submitted key has been processed (used by tests and by
    /// benchmark phases that want a clean cut between warm-up and measurement).
    pub fn wait_idle(&self) {
        while self.counters.completed.load(Ordering::Acquire)
            < self.counters.submitted.load(Ordering::Acquire)
        {
            std::thread::yield_now();
        }
    }

    /// Current prefetch statistics.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            promoted: self.counters.promoted.load(Ordering::Relaxed),
            cached: 0,
            skipped: self.counters.skipped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Close the channel so workers drain outstanding requests and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_faster::FasterKv;
    use mlkv_storage::kv::{BatchRmwFn, ReadResult, WriteBatch};
    use mlkv_storage::{MemStore, StorageMetrics, StorageResult, StoreConfig};

    fn cold_store() -> Arc<dyn KvStore> {
        // A tiny memory window guarantees that early keys spill to "disk".
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        for k in 0..2000u64 {
            store.put(k, &[k as u8; 64]).unwrap();
        }
        Arc::new(store)
    }

    #[test]
    fn storage_buffer_prefetch_promotes_cold_records() {
        let store = cold_store();
        let prefetcher = Prefetcher::new(Arc::clone(&store), 2);
        let keys: Vec<u64> = (0..64).collect();
        prefetcher.lookahead(&keys);
        prefetcher.wait_idle();
        let stats = prefetcher.stats();
        assert_eq!(stats.completed, 64);
        assert!(stats.promoted > 0, "cold keys should be promoted");
        // After promotion the keys are served from memory.
        let r = store.get_traced(0).unwrap();
        assert_ne!(r.source, mlkv_storage::kv::ReadSource::Disk);
    }

    #[test]
    fn missing_keys_are_counted_as_skipped() {
        let prefetcher = Prefetcher::new(cold_store(), 1);
        prefetcher.lookahead(&[5001, 5002, 5003]);
        prefetcher.wait_idle();
        let stats = prefetcher.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.skipped, 3);
        assert_eq!(stats.promoted, 0);
    }

    #[test]
    fn duplicate_keys_are_announced_once() {
        // Key 1 is cold; key 5001 is missing.
        let prefetcher = Prefetcher::new(cold_store(), 1);
        prefetcher.lookahead(&[1, 1, 1, 5001, 5001]);
        prefetcher.wait_idle();
        let stats = prefetcher.stats();
        assert_eq!(stats.submitted, 2, "duplicates must collapse");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn empty_request_is_a_noop() {
        let store: Arc<dyn KvStore> = Arc::new(MemStore::new());
        let prefetcher = Prefetcher::new(store, 1);
        prefetcher.lookahead(&[]);
        prefetcher.wait_idle();
        assert_eq!(prefetcher.stats(), PrefetchStats::default());
    }

    /// Forwards to a [`MemStore`], counting `multi_promote` calls.
    struct PromoteCounter {
        inner: MemStore,
        promotes: AtomicU64,
    }

    impl KvStore for PromoteCounter {
        fn name(&self) -> &'static str {
            "promote-counter"
        }
        fn get_traced(&self, key: u64) -> StorageResult<ReadResult> {
            self.inner.get_traced(key)
        }
        fn multi_get(&self, keys: &[u64]) -> Vec<StorageResult<Vec<u8>>> {
            self.inner.multi_get(keys)
        }
        fn multi_rmw(&self, keys: &[u64], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
            self.inner.multi_rmw(keys, f)
        }
        fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
            self.inner.write_batch(batch)
        }
        fn multi_promote(&self, keys: &[u64]) -> StorageResult<usize> {
            self.promotes.fetch_add(1, Ordering::Relaxed);
            self.inner.multi_promote(keys)
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

    #[test]
    fn zero_workers_spawn_no_thread_and_promote_nothing() {
        let store = Arc::new(PromoteCounter {
            inner: MemStore::new(),
            promotes: AtomicU64::new(0),
        });
        let prefetcher = Prefetcher::new(Arc::clone(&store) as Arc<dyn KvStore>, 0);
        assert!(prefetcher.workers.is_empty());
        prefetcher.lookahead(&[1, 2, 2, 3]);
        prefetcher.wait_idle();
        let stats = prefetcher.stats();
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.skipped,
                stats.promoted
            ),
            (3, 3, 3, 0)
        );
        drop(prefetcher);
        assert_eq!(store.promotes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_drains_outstanding_requests() {
        let store = cold_store();
        let prefetcher = Prefetcher::new(Arc::clone(&store), 2);
        prefetcher.lookahead(&(0..100u64).collect::<Vec<_>>());
        drop(prefetcher);
        // All requests must have been processed before drop returned: the
        // engine decided, copy or skip, on every key.
        let m = store.metrics().snapshot();
        assert!(m.prefetch_copies > 0);
        assert_eq!(m.prefetch_copies + m.prefetch_skips, 100);
    }
}
