//! A purely in-memory `KvStore`.
//!
//! This is the stand-in for the *specialized in-memory frameworks*' embedding
//! storage (PERSIA / DGL / DGL-KE proprietary in-memory tables) used as the
//! upper-bound baseline in Figure 6, and it doubles as the model implementation
//! that the property tests compare the disk engines against.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{StorageError, StorageResult};
use crate::exec::BatchExecutor;
use crate::kv::{BatchReadFn, BatchRmwFn, Key, KvStore, ReadResult, ReadSource, WriteBatch};
use crate::metrics::{ReadTally, StorageMetrics};

/// Sharded in-memory hash-map store.
pub struct MemStore {
    shards: Vec<RwLock<HashMap<Key, Vec<u8>>>>,
    metrics: Arc<StorageMetrics>,
    executor: BatchExecutor,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Create a store with a default shard count.
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// Create a store with `shards` shards and auto-sized batch parallelism.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_parallelism(shards, 0)
    }

    /// Create a store with `shards` shards whose batched operations fan out
    /// over `parallelism` workers (`0` = auto, `1` = serial; see
    /// [`BatchExecutor`]). Each worker owns whole shards, so results and final
    /// state are identical for every parallelism level.
    pub fn with_shards_and_parallelism(shards: usize, parallelism: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            metrics: Arc::new(StorageMetrics::new()),
            executor: BatchExecutor::new(parallelism),
        }
    }

    fn shard_idx(&self, key: Key) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h as usize) % self.shards.len()
    }

    fn shard_for(&self, key: Key) -> &RwLock<HashMap<Key, Vec<u8>>> {
        &self.shards[self.shard_idx(key)]
    }

    /// Group the positions of `keys` by shard — `(shard, positions)` for every
    /// shard the batch touches — preserving input order within each shard so
    /// duplicate keys are processed in occurrence order. Each group is one
    /// executor job: a worker owns whole shards.
    fn shard_groups(&self, keys: &[Key]) -> Vec<(usize, Vec<usize>)> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            by_shard[self.shard_idx(*key)].push(i);
        }
        by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .collect()
    }

    /// Run `each(position, value)` over every position of `keys`, one job per
    /// shard group under that shard's read lock, and return the groups'
    /// results. A group counts its hits and misses locally and adds them to
    /// the metrics once.
    fn read_shards<T: Send>(
        &self,
        keys: &[Key],
        each: impl Fn(usize, Option<&[u8]>) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let each = &each;
        let jobs: Vec<_> = self
            .shard_groups(keys)
            .into_iter()
            .map(|(s, positions)| {
                move || {
                    let shard = self.shards[s].read();
                    let mut tally = ReadTally::default();
                    let out = positions
                        .into_iter()
                        .map(|i| {
                            let value = shard.get(&keys[i]).map(Vec::as_slice);
                            match value {
                                Some(v) => tally.hit(ReadSource::HotMemory, v.len()),
                                None => tally.miss(),
                            }
                            each(i, value)
                        })
                        .collect();
                    self.metrics.record_reads(&tally);
                    out
                }
            })
            .collect();
        self.executor.execute(jobs, keys.len())
    }
}

impl KvStore for MemStore {
    fn name(&self) -> &'static str {
        "InMemory"
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        let shard = self.shard_for(key).read();
        match shard.get(&key) {
            Some(v) => {
                self.metrics.record_mem_hit();
                Ok(ReadResult {
                    value: v.clone(),
                    source: ReadSource::HotMemory,
                })
            }
            None => {
                self.metrics.record_miss();
                Err(StorageError::KeyNotFound)
            }
        }
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        // One lock acquisition per shard instead of one per key; the executor
        // runs the per-shard groups inline or across workers.
        let mut out: Vec<StorageResult<Vec<u8>>> = Vec::with_capacity(keys.len());
        out.extend(keys.iter().map(|_| Err(StorageError::KeyNotFound)));
        let groups = self.read_shards(keys, |i, value| (i, value.map(<[u8]>::to_vec)));
        for (i, value) in groups.into_iter().flatten() {
            if let Some(value) = value {
                out[i] = Ok(value);
            }
        }
        out
    }

    fn multi_read(&self, keys: &[Key], visit: &BatchReadFn) -> Vec<(usize, StorageError)> {
        // The visitor borrows each value under its shard's read lock.
        self.read_shards(keys, visit);
        Vec::new()
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        // Same-key operations always land in the same shard, so processing each
        // shard's positions in input order preserves per-key rmw ordering —
        // on whichever thread runs the shard's group.
        let mut out = vec![Vec::new(); keys.len()];
        let jobs: Vec<_> = self
            .shard_groups(keys)
            .into_iter()
            .map(|(s, positions)| {
                move || {
                    let mut shard = self.shards[s].write();
                    self.metrics.record_rmws(positions.len() as u64);
                    positions
                        .into_iter()
                        .map(|i| {
                            let new = f(i, shard.get(&keys[i]).map(|v| v.as_slice()));
                            shard.insert(keys[i], new.clone());
                            (i, new)
                        })
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        for (i, new) in self
            .executor
            .execute(jobs, keys.len())
            .into_iter()
            .flatten()
        {
            out[i] = new;
        }
        Ok(out)
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        Ok(self.shard_for(key).read().contains_key(&key))
    }

    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        // Each shard applies its positions in input order, so a key's ops
        // land in occurrence order.
        let ops: Vec<(Key, Option<&[u8]>)> = batch.iter().collect();
        let keys: Vec<Key> = ops.iter().map(|&(k, _)| k).collect();
        let ops = &ops;
        let jobs: Vec<_> = self
            .shard_groups(&keys)
            .into_iter()
            .map(|(s, positions)| {
                move || {
                    let mut shard = self.shards[s].write();
                    let mut upserts = 0;
                    for i in positions {
                        match ops[i] {
                            (key, Some(value)) => {
                                upserts += 1;
                                shard.insert(key, value.to_vec());
                            }
                            (key, None) => {
                                shard.remove(&key);
                            }
                        }
                    }
                    self.metrics.record_upserts(upserts);
                }
            })
            .collect();
        self.executor.execute(jobs, keys.len());
        Ok(())
    }

    fn approximate_len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        Arc::clone(&self.metrics)
    }

    fn flush(&self) -> StorageResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let store = MemStore::new();
        store.put(1, b"one").unwrap();
        assert_eq!(store.get(1).unwrap(), b"one");
        assert!(store.contains(1).unwrap());
        assert_eq!(store.approximate_len(), 1);
        store.delete(1).unwrap();
        assert!(store.get(1).unwrap_err().is_not_found());
        assert!(!store.contains(1).unwrap());
    }

    #[test]
    fn rmw_sees_previous_value() {
        let store = MemStore::new();
        store.put(5, &[1]).unwrap();
        let out = store
            .rmw(5, &|old| {
                let mut v = old.unwrap().to_vec();
                v.push(2);
                v
            })
            .unwrap();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(store.get(5).unwrap(), vec![1, 2]);
        // RMW on a missing key sees None.
        let out = store.rmw(6, &|old| {
            assert!(old.is_none());
            vec![9]
        });
        assert_eq!(out.unwrap(), vec![9]);
    }

    #[test]
    fn reads_are_reported_as_hot_memory() {
        let store = MemStore::new();
        store.put(1, b"x").unwrap();
        let r = store.get_traced(1).unwrap();
        assert_eq!(r.source, ReadSource::HotMemory);
    }

    #[test]
    fn write_batch_applies_all() {
        let store = MemStore::new();
        let mut batch = crate::kv::WriteBatch::new();
        for i in 0..10 {
            batch.put(i, vec![i as u8]);
        }
        store.write_batch(&batch).unwrap();
        assert_eq!(store.approximate_len(), 10);
        assert_eq!(store.get(7).unwrap(), vec![7]);
    }

    #[test]
    fn batch_ops_group_by_shard_and_preserve_order() {
        let store = MemStore::with_shards(4);
        for k in 0..20u64 {
            store.put(k, &[k as u8]).unwrap();
        }
        let keys: Vec<u64> = vec![5, 100, 0, 5, 19];
        let results = store.multi_get(&keys);
        assert_eq!(results[0].as_deref().unwrap(), &[5]);
        assert!(results[1].as_ref().unwrap_err().is_not_found());
        assert_eq!(results[2].as_deref().unwrap(), &[0]);
        assert_eq!(results[3].as_deref().unwrap(), &[5]);
        assert_eq!(results[4].as_deref().unwrap(), &[19]);

        // Duplicate keys in a multi_rmw see each other's writes in order.
        let out = store
            .multi_rmw(&[5, 5], &|i, cur| {
                let mut v = cur.unwrap().to_vec();
                v.push(i as u8);
                v
            })
            .unwrap();
        assert_eq!(out, vec![vec![5, 0], vec![5, 0, 1]]);

        assert!(store.exists(5).unwrap());
        assert!(!store.exists(500).unwrap());

        let mut batch = crate::kv::WriteBatch::new();
        batch.put(42, vec![1]);
        batch.put(42, vec![2]); // later op in the batch wins
        store.write_batch(&batch).unwrap();
        assert_eq!(store.get(42).unwrap(), vec![2]);
    }

    #[test]
    fn parallel_batches_match_serial_results_exactly() {
        // Batches large enough to fan out, across parallelism levels: results
        // and final state must be byte-identical to the serial store.
        let n = 2 * crate::exec::MIN_KEYS_PER_WORKER;
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 13) % 1500).collect();
        let serial = MemStore::with_shards_and_parallelism(16, 1);
        let parallel = MemStore::with_shards_and_parallelism(16, 8);
        for store in [&serial, &parallel] {
            let mut batch = crate::kv::WriteBatch::new();
            for k in 0..1000u64 {
                batch.put(k, vec![k as u8; 16]);
            }
            store.write_batch(&batch).unwrap();
        }
        let bump = |i: usize, cur: Option<&[u8]>| -> Vec<u8> {
            let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
            v.push(i as u8);
            v
        };
        let serial_rmw = serial.multi_rmw(&keys, &bump).unwrap();
        let parallel_rmw = parallel.multi_rmw(&keys, &bump).unwrap();
        assert_eq!(serial_rmw, parallel_rmw);
        let serial_get = serial.multi_get(&keys);
        let parallel_get = parallel.multi_get(&keys);
        for (a, b) in serial_get.iter().zip(&parallel_get) {
            assert_eq!(a.as_ref().ok(), b.as_ref().ok());
        }
        assert_eq!(
            serial.metrics().snapshot(),
            parallel.metrics().snapshot(),
            "per-group counting adds up to the serial store's"
        );
        let read = parking_lot::Mutex::new(vec![None; keys.len()]);
        let errors = parallel.multi_read(&keys, &|i, value| {
            read.lock()[i] = Some(value.map(<[u8]>::to_vec));
        });
        assert!(errors.is_empty());
        for (got, want) in read.into_inner().into_iter().zip(&serial_get) {
            assert_eq!(got, Some(want.as_ref().ok().cloned()));
        }
        assert_eq!(serial.approximate_len(), parallel.approximate_len());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let key = t * 1000 + i;
                    s.put(key, &key.to_le_bytes()).unwrap();
                    assert_eq!(s.get(key).unwrap(), key.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.approximate_len(), 1000);
    }
}
