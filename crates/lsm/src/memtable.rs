//! The sorted in-memory write buffer of the LSM engine.
//!
//! [`MemTable`] is the single sorted buffer; [`ShardedMemTable`] hash-shards
//! it into N independent skeletons with per-shard locks so concurrent write
//! batches touching different shards never contend, while keeping one shared
//! byte budget and a single sorted drain for SSTable flushes.

use std::collections::BTreeMap;

use parking_lot::{Mutex, MutexGuard};

/// An entry is either a live value or a tombstone.
pub type Entry = Option<Vec<u8>>;

/// Sorted in-memory buffer of recent writes. Not internally synchronised — the
/// store wraps it in a lock.
#[derive(Debug, Default)]
pub struct MemTable {
    map: BTreeMap<u64, Entry>,
    bytes: usize,
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a live value.
    pub fn put(&mut self, key: u64, value: Vec<u8>) {
        self.account_remove(key);
        self.bytes += 8 + value.len();
        self.map.insert(key, Some(value));
    }

    /// Insert a tombstone.
    pub fn delete(&mut self, key: u64) {
        self.account_remove(key);
        self.bytes += 8;
        self.map.insert(key, None);
    }

    fn account_remove(&mut self, key: u64) {
        if let Some(old) = self.map.get(&key) {
            self.bytes -= 8 + old.as_ref().map(|v| v.len()).unwrap_or(0);
        }
    }

    /// Look up `key`. `None` = not present at all; `Some(None)` = tombstoned.
    pub fn get(&self, key: u64) -> Option<&Entry> {
        self.map.get(&key)
    }

    /// Approximate heap usage of the buffered entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of buffered entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Entry)> {
        self.map.iter()
    }

    /// Drain the memtable into a sorted vector (used when flushing to an
    /// SSTable), leaving it empty.
    pub fn drain_sorted(&mut self) -> Vec<(u64, Entry)> {
        self.bytes = 0;
        std::mem::take(&mut self.map).into_iter().collect()
    }

    /// Re-insert entries drained by [`MemTable::drain_sorted`] (used to roll
    /// back a failed flush).
    pub fn restore(&mut self, entries: Vec<(u64, Entry)>) {
        for (key, entry) in entries {
            match entry {
                Some(value) => self.put(key, value),
                None => self.delete(key),
            }
        }
    }
}

/// Hash-sharded memtable: N independent [`MemTable`] skeletons, each behind
/// its own lock. A key always hashes to the same shard, so per-key ordering is
/// preserved as long as each shard's operations run in batch order — the same
/// contract [`mlkv_storage::exec::BatchExecutor`] jobs already rely on.
///
/// The budget is shared: [`ShardedMemTable::bytes`] sums the shards, and the
/// store flushes *all* shards into one SSTable pass when the total crosses its
/// threshold, so SST/WAL rotation ordering is identical to the single-shard
/// engine.
#[derive(Debug)]
pub struct ShardedMemTable {
    shards: Vec<Mutex<MemTable>>,
}

impl ShardedMemTable {
    /// Create an empty sharded memtable with `shards` skeletons (at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MemTable::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` hashes to.
    pub fn shard_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h as usize) % self.shards.len()
    }

    /// Lock shard `idx`.
    pub fn lock_shard(&self, idx: usize) -> MutexGuard<'_, MemTable> {
        self.shards[idx].lock()
    }

    /// Lock every shard a batch of `keys` touches, each paired with the batch
    /// positions that hash to it (in input order). Shards are locked in
    /// ascending index order — the fixed acquisition order that keeps
    /// concurrent batches deadlock-free.
    pub fn lock_batch(&self, keys: &[u64]) -> Vec<(MutexGuard<'_, MemTable>, Vec<usize>)> {
        self.positions_by_shard(keys)
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .map(|(idx, positions)| (self.shards[idx].lock(), positions))
            .collect()
    }

    /// Group the positions of `keys` by shard, preserving input order within
    /// each shard so duplicate keys are processed in occurrence order.
    pub fn positions_by_shard(&self, keys: &[u64]) -> Vec<Vec<usize>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            by_shard[self.shard_of(*key)].push(i);
        }
        by_shard
    }

    /// Look up `key`, cloning the entry out of its shard.
    /// `None` = not present at all; `Some(None)` = tombstoned.
    pub fn get(&self, key: u64) -> Option<Entry> {
        self.shards[self.shard_of(key)].lock().get(key).cloned()
    }

    /// True when the memtable holds an entry (live or tombstone) for `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.shards[self.shard_of(key)].lock().get(key).is_some()
    }

    /// Total approximate heap usage across all shards (the shared budget).
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes()).sum()
    }

    /// Total buffered entries (including tombstones) across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no shard buffers any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Drain every shard into one key-sorted vector (the single SSTable flush
    /// pass), leaving all shards empty. Keys are unique across shards, so a
    /// sort of the concatenation is a true merge.
    pub fn drain_sorted(&self) -> Vec<(u64, Entry)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().drain_sorted());
        }
        all.sort_unstable_by_key(|(k, _)| *k);
        all
    }

    /// Re-insert entries drained by [`ShardedMemTable::drain_sorted`] (rolls
    /// back a failed flush).
    pub fn restore(&self, entries: Vec<(u64, Entry)>) {
        for (key, entry) in entries {
            let mut shard = self.shards[self.shard_of(key)].lock();
            match entry {
                Some(value) => shard.put(key, value),
                None => shard.delete(key),
            }
        }
    }

    /// Clone all entries into one key-sorted vector without draining (used by
    /// replication snapshots).
    pub fn snapshot_sorted(&self) -> Vec<(u64, Entry)> {
        let mut all: Vec<(u64, Entry)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            all.extend(shard.iter().map(|(k, e)| (*k, e.clone())));
        }
        all.sort_unstable_by_key(|(k, _)| *k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut mt = MemTable::new();
        assert!(mt.is_empty());
        mt.put(1, vec![1, 2, 3]);
        mt.put(2, vec![4]);
        mt.delete(3);
        assert_eq!(mt.get(1), Some(&Some(vec![1, 2, 3])));
        assert_eq!(mt.get(3), Some(&None));
        assert_eq!(mt.get(4), None);
        assert_eq!(mt.len(), 3);
    }

    #[test]
    fn byte_accounting_tracks_overwrites() {
        let mut mt = MemTable::new();
        mt.put(1, vec![0; 100]);
        assert_eq!(mt.bytes(), 108);
        mt.put(1, vec![0; 10]);
        assert_eq!(mt.bytes(), 18);
        mt.delete(1);
        assert_eq!(mt.bytes(), 8);
    }

    #[test]
    fn drain_returns_sorted_entries_and_clears() {
        let mut mt = MemTable::new();
        mt.put(5, vec![5]);
        mt.put(1, vec![1]);
        mt.delete(3);
        let drained = mt.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert!(mt.is_empty());
        assert_eq!(mt.bytes(), 0);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut mt = MemTable::new();
        for k in [9u64, 2, 7, 4] {
            mt.put(k, vec![k as u8]);
        }
        let keys: Vec<u64> = mt.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 4, 7, 9]);
    }

    #[test]
    fn sharded_drain_merges_sorted_across_shards() {
        let mt = ShardedMemTable::new(4);
        for k in [9u64, 2, 7, 4, 11, 0] {
            mt.lock_shard(mt.shard_of(k)).put(k, vec![k as u8]);
        }
        mt.lock_shard(mt.shard_of(5)).delete(5);
        assert_eq!(mt.len(), 7);
        assert_eq!(mt.bytes(), 6 * 9 + 8);
        let snap: Vec<u64> = mt.snapshot_sorted().iter().map(|(k, _)| *k).collect();
        assert_eq!(snap, vec![0, 2, 4, 5, 7, 9, 11]);
        let drained = mt.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 2, 4, 5, 7, 9, 11]);
        assert_eq!(drained[3], (5, None), "tombstones survive the drain");
        assert!(mt.is_empty());
        assert_eq!(mt.bytes(), 0);
        mt.restore(drained);
        assert_eq!(mt.len(), 7);
        assert_eq!(mt.get(5), Some(None), "restore keeps tombstones");
        assert_eq!(mt.get(9), Some(Some(vec![9])));
        assert_eq!(mt.get(100), None);
        assert!(mt.contains(5), "a tombstone is an entry");
        assert!(!mt.contains(100));
    }

    #[test]
    fn sharded_positions_group_by_shard_in_input_order() {
        let mt = ShardedMemTable::new(4);
        let keys = [5u64, 100, 0, 5, 19, 5];
        let groups = mt.positions_by_shard(&keys);
        assert_eq!(groups.len(), 4);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        // All occurrences of a duplicate key land in one group, in order.
        let five = mt.shard_of(5);
        let dup_positions: Vec<usize> = groups[five]
            .iter()
            .copied()
            .filter(|&i| keys[i] == 5)
            .collect();
        assert_eq!(dup_positions, vec![0, 3, 5]);
        // lock_batch pairs each touched shard, ascending, with its group.
        let locked = mt.lock_batch(&keys);
        let touched: Vec<&Vec<usize>> = groups.iter().filter(|g| !g.is_empty()).collect();
        assert_eq!(locked.len(), touched.len());
        for ((_, positions), want) in locked.iter().zip(touched) {
            assert_eq!(positions, want);
        }
    }

    #[test]
    fn single_shard_degenerates_to_one_memtable() {
        let mt = ShardedMemTable::new(0);
        assert_eq!(mt.shard_count(), 1);
        for k in 0..16u64 {
            assert_eq!(mt.shard_of(k), 0);
        }
    }
}
