//! A sharded LRU byte cache.
//!
//! The LSM engine's block cache. The cache is capacity-bounded in bytes and
//! evicts the least-recently-used entry of the shard that overflows.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::metrics::StorageMetrics;
use std::sync::Arc;

/// One LRU shard: a hash map plus an intrusive-ish recency list implemented with
/// monotonically increasing access stamps (simple and adequate for the shard sizes
/// used here).
struct Shard {
    map: HashMap<u64, (Vec<u8>, u64)>,
    bytes: usize,
    clock: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            bytes: 0,
            clock: 0,
        }
    }

    fn evict_lru(&mut self) -> Option<u64> {
        // An explicit loop, not `min_by_key`: every insert into a full shard
        // scans it, and the iterator's out-of-line `fold` ran that scan at
        // half speed whenever it landed in another codegen unit.
        let mut oldest: Option<(u64, u64)> = None;
        for (&key, &(_, stamp)) in &self.map {
            if oldest.is_none_or(|(_, min)| stamp < min) {
                oldest = Some((key, stamp));
            }
        }
        let (victim, _) = oldest?;
        if let Some((v, _)) = self.map.remove(&victim) {
            self.bytes -= v.len();
        }
        Some(victim)
    }
}

/// Sharded, byte-capacity-bounded LRU cache keyed by `u64`.
pub struct ShardedLruCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    metrics: Arc<StorageMetrics>,
}

impl ShardedLruCache {
    /// Create a cache with a total capacity of `capacity_bytes` split over
    /// `shards` shards (shards is rounded up to at least 1).
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = (capacity_bytes / shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard,
            metrics: Arc::new(StorageMetrics::new()),
        }
    }

    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        // Multiplicative hashing spreads sequential ids across shards.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Insert or refresh `key`. Values larger than a whole shard are ignored.
    pub fn insert(&self, key: u64, value: Vec<u8>) {
        if value.len() > self.capacity_per_shard {
            return;
        }
        let shard = self.shard_for(key);
        let mut guard = shard.lock();
        guard.clock += 1;
        let stamp = guard.clock;
        if let Some((old, _)) = guard.map.insert(key, (value, stamp)) {
            guard.bytes -= old.len();
        }
        let inserted_len = guard.map.get(&key).map(|(v, _)| v.len()).unwrap_or(0);
        guard.bytes += inserted_len;
        while guard.bytes > self.capacity_per_shard {
            if guard.evict_lru().is_none() {
                break;
            }
            self.metrics.record_eviction();
        }
    }

    /// Look up `key`, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let shard = self.shard_for(key);
        let mut guard = shard.lock();
        guard.clock += 1;
        let stamp = guard.clock;
        match guard.map.get_mut(&key) {
            Some((v, s)) => {
                *s = stamp;
                let out = v.clone();
                self.metrics.record_mem_hit();
                Some(out)
            }
            None => {
                self.metrics.record_miss();
                None
            }
        }
    }

    /// True when the key is cached (does not refresh recency).
    pub fn contains(&self, key: u64) -> bool {
        self.shard_for(key).lock().map.contains_key(&key)
    }

    /// Remove `key` from the cache.
    pub fn invalidate(&self, key: u64) {
        let shard = self.shard_for(key);
        let mut guard = shard.lock();
        if let Some((v, _)) = guard.map.remove(&key) {
            guard.bytes -= v.len();
        }
    }

    /// Remove everything.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.map.clear();
            guard.bytes = 0;
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached bytes.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Cache hit/miss/eviction counters.
    pub fn metrics(&self) -> Arc<StorageMetrics> {
        Arc::clone(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let cache = ShardedLruCache::new(1024, 4);
        cache.insert(1, vec![1, 2, 3]);
        assert_eq!(cache.get(1), Some(vec![1, 2, 3]));
        assert_eq!(cache.get(2), None);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 3);
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let cache = ShardedLruCache::new(1024, 1);
        cache.insert(1, vec![0; 10]);
        cache.insert(1, vec![0; 4]);
        assert_eq!(cache.bytes(), 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        // Single shard, capacity for ~2 of the 3 values.
        let cache = ShardedLruCache::new(64, 1);
        cache.insert(1, vec![0; 30]);
        cache.insert(2, vec![0; 30]);
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(1).is_some());
        cache.insert(3, vec![0; 30]);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache = ShardedLruCache::new(16, 1);
        cache.insert(1, vec![0; 1024]);
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = ShardedLruCache::new(1024, 2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        cache.invalidate(1);
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn metrics_track_hits_and_misses() {
        let cache = ShardedLruCache::new(1024, 2);
        cache.insert(7, vec![7]);
        cache.get(7);
        cache.get(8);
        let snap = cache.metrics().snapshot();
        assert_eq!(snap.mem_hits, 1);
        assert_eq!(snap.misses, 1);
    }

    #[test]
    fn many_inserts_stay_within_budget() {
        let cache = ShardedLruCache::new(4096, 4);
        for i in 0..1000u64 {
            cache.insert(i, vec![0; 64]);
        }
        assert!(cache.bytes() <= 4096 + 4 * 64, "bytes={}", cache.bytes());
        assert!(cache.metrics().snapshot().evictions > 0);
    }
}
