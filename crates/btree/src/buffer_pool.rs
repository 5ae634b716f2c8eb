//! Buffer pool for B+tree leaf pages.
//!
//! Caches decoded leaf pages up to a page-count capacity derived from the
//! memory budget. Eviction is LRU; dirty pages are encoded and written back to
//! the device at `page_id * page_size` before being dropped.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mlkv_storage::{
    Device, IoPlanner, PendingRead, ReadReq, StorageError, StorageMetrics, StorageResult,
};

use crate::node::LeafPage;

struct CachedPage {
    leaf: LeafPage,
    dirty: bool,
    stamp: u64,
}

/// LRU buffer pool of leaf pages, sharded by page-id hash so warm hits on
/// different pages never contend on one mutex.
pub struct BufferPool {
    device: Arc<dyn Device>,
    page_size: usize,
    planner: IoPlanner,
    metrics: Arc<StorageMetrics>,
    /// One independently locked shard per hash bucket. Each shard runs its own
    /// LRU clock over its own slice of the capacity, so eviction pressure in
    /// one shard never touches pages cached in another.
    shards: Vec<Mutex<PoolShard>>,
}

struct PoolShard {
    pages: HashMap<u64, CachedPage>,
    clock: u64,
    capacity: usize,
}

impl BufferPool {
    /// Create a pool over `device` holding at most `capacity_pages` pages of
    /// `page_size` bytes each, split over `shards` hash shards. The shard
    /// count is clamped so every shard keeps at least two page slots (tiny
    /// pools degrade to one shard, preserving exact global-LRU eviction
    /// order); the per-shard capacities always sum to `capacity_pages`.
    pub fn new(
        device: Arc<dyn Device>,
        capacity_pages: usize,
        page_size: usize,
        shards: usize,
        planner: IoPlanner,
        metrics: Arc<StorageMetrics>,
    ) -> Self {
        let capacity_pages = capacity_pages.max(2);
        let shard_count = shards.max(1).min(capacity_pages / 2).max(1);
        let base = capacity_pages / shard_count;
        let extra = capacity_pages % shard_count;
        Self {
            device,
            page_size,
            planner,
            metrics,
            shards: (0..shard_count)
                .map(|i| {
                    Mutex::new(PoolShard {
                        pages: HashMap::new(),
                        clock: 0,
                        capacity: base + usize::from(i < extra),
                    })
                })
                .collect(),
        }
    }

    /// Page size used for on-disk leaves.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of hash shards the pool is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard caching `page_id`.
    fn shard_of(&self, page_id: u64) -> usize {
        let h = page_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h as usize) % self.shards.len()
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pages.len()).sum()
    }

    /// Run `f` with read access to the leaf `page_id`, faulting it in from the
    /// device if necessary. Returns whether the page had to be read from disk.
    ///
    /// The fault-in device read happens *outside* the pool lock, so concurrent
    /// readers (the batch executor's leaf-group workers) overlap their cold
    /// reads instead of queueing on the pool mutex. Two racing faults of the
    /// same page both read the device; the first to re-acquire the lock
    /// installs the page and the other discards its copy.
    pub fn with_leaf<R>(
        &self,
        page_id: u64,
        f: impl FnOnce(&LeafPage) -> R,
    ) -> StorageResult<(R, bool)> {
        let mut from_disk = false;
        let mut faulted: Option<LeafPage> = None;
        loop {
            {
                let mut shard = self.shards[self.shard_of(page_id)].lock();
                if let Some(leaf) = faulted.take() {
                    shard.clock += 1;
                    let stamp = shard.clock;
                    shard.pages.entry(page_id).or_insert(CachedPage {
                        leaf,
                        dirty: false,
                        stamp,
                    });
                    self.evict_if_needed(&mut shard)?;
                }
                if shard.pages.contains_key(&page_id) {
                    shard.clock += 1;
                    let stamp = shard.clock;
                    let page = shard.pages.get_mut(&page_id).expect("resident");
                    page.stamp = stamp;
                    let out = f(&page.leaf);
                    return Ok((out, from_disk));
                }
            }
            faulted = Some(self.read_leaf(page_id)?);
            from_disk = true;
        }
    }

    /// Run `f` with mutable access to the leaf `page_id`, marking it dirty.
    /// Concurrent mutators of the *same* page must be excluded by the caller
    /// (the store's per-leaf latches, or the tree write lock on the serial and
    /// structural paths); the shard lock only protects the pool bookkeeping.
    pub fn with_leaf_mut<R>(
        &self,
        page_id: u64,
        f: impl FnOnce(&mut LeafPage) -> R,
    ) -> StorageResult<(R, bool)> {
        let mut shard = self.shards[self.shard_of(page_id)].lock();
        let from_disk = self.ensure_resident(&mut shard, page_id)?;
        shard.clock += 1;
        let stamp = shard.clock;
        let page = shard.pages.get_mut(&page_id).expect("page just ensured");
        page.stamp = stamp;
        page.dirty = true;
        let out = f(&mut page.leaf);
        Ok((out, from_disk))
    }

    /// Install a brand-new leaf (e.g. the right sibling of a split) without
    /// reading the device.
    pub fn install_new(&self, page_id: u64, leaf: LeafPage) -> StorageResult<()> {
        let mut shard = self.shards[self.shard_of(page_id)].lock();
        shard.clock += 1;
        let stamp = shard.clock;
        shard.pages.insert(
            page_id,
            CachedPage {
                leaf,
                dirty: true,
                stamp,
            },
        );
        self.evict_if_needed(&mut shard)?;
        Ok(())
    }

    /// Fault every non-resident page of `page_ids` with **one** coalesced
    /// device scatter (instead of one read per page as each leaf group would
    /// pay via [`BufferPool::with_leaf`]) and return the decoded leaves.
    ///
    /// The batch may be far larger than the pool: fetched pages are installed
    /// into spare pool capacity only (never evicting resident — possibly
    /// dirty, definitely warmer — pages), and the caller serves its groups
    /// from the returned copies either way. A non-resident page's on-device
    /// bytes are current as of the submit (eviction writes dirty pages back);
    /// a *latched* writer mutating the page concurrently necessarily overlaps
    /// the read batch, so serving the fetched pre-image is a valid
    /// linearisation (structural changes are still excluded by the tree read
    /// lock the caller holds).
    ///
    /// Best-effort: pages with no on-device home (fresh leaves that live only
    /// in the pool), undecodable pages, and whole batches whose scatter read
    /// fails are simply absent from the result; the per-leaf path surfaces
    /// their genuine state or error. Callers must attribute reads served from
    /// the returned leaves to disk in their metrics.
    pub fn fault_batch(&self, page_ids: &[u64]) -> HashMap<u64, LeafPage> {
        self.submit_fault_batch(page_ids).wait()
    }

    /// Submit the scatter behind [`BufferPool::fault_batch`] and return a
    /// handle to finish it with. On a device that completes submissions
    /// later the leaf reads overlap whatever the caller does between submit and
    /// [`PendingLeafFetch::wait`] — `BtreeStore::multi_get` builds its leaf
    /// groups in that window.
    pub fn submit_fault_batch(&self, page_ids: &[u64]) -> PendingLeafFetch<'_> {
        let mut missing: Vec<u64> = page_ids
            .iter()
            .copied()
            .filter(|&id| {
                !self.shards[self.shard_of(id)]
                    .lock()
                    .pages
                    .contains_key(&id)
            })
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let device_len = self.device.len();
        missing.retain(|id| (id + 1) * self.page_size as u64 <= device_len);
        if missing.is_empty() {
            return PendingLeafFetch {
                pool: self,
                missing,
                pending: None,
            };
        }
        let reqs: Vec<ReadReq> = missing
            .iter()
            .map(|id| ReadReq::new(id * self.page_size as u64, self.page_size))
            .collect();
        let pending = Some(self.planner.submit(self.device.as_ref(), reqs));
        PendingLeafFetch {
            pool: self,
            missing,
            pending,
        }
    }

    /// Decode the fetched leaves and warm spare pool capacity with them
    /// (completion half of the fault-batch scatter).
    fn finish_fault_batch(&self, missing: Vec<u64>, reqs: Vec<ReadReq>) -> HashMap<u64, LeafPage> {
        let mut fetched = HashMap::with_capacity(missing.len());
        for (id, req) in missing.into_iter().zip(reqs) {
            if let Ok(leaf) = LeafPage::decode(&req.buf) {
                self.metrics
                    .record_background_disk_read(self.page_size as u64);
                fetched.insert(id, leaf);
            }
        }
        // Warm the pool with as many fetched pages as fit for free. Resident
        // pages are never displaced (they may be dirty, and they are warmer
        // than a batch that just swept the key space).
        for (id, leaf) in &fetched {
            let mut shard = self.shards[self.shard_of(*id)].lock();
            if shard.pages.len() >= shard.capacity {
                continue;
            }
            shard.clock += 1;
            let stamp = shard.clock;
            shard.pages.entry(*id).or_insert(CachedPage {
                leaf: leaf.clone(),
                dirty: false,
                stamp,
            });
        }
        fetched
    }

    /// Read and decode the leaf at `page_id` from the device (no pool lock
    /// required).
    fn read_leaf(&self, page_id: u64) -> StorageResult<LeafPage> {
        let offset = page_id * self.page_size as u64;
        if offset >= self.device.len() {
            return Err(StorageError::Corruption(format!(
                "leaf page {page_id} does not exist on device"
            )));
        }
        let mut buf = vec![0u8; self.page_size];
        self.device.read_at(offset, &mut buf)?;
        self.metrics
            .record_background_disk_read(self.page_size as u64);
        LeafPage::decode(&buf)
    }

    fn ensure_resident(&self, shard: &mut PoolShard, page_id: u64) -> StorageResult<bool> {
        if shard.pages.contains_key(&page_id) {
            return Ok(false);
        }
        // Fault the page in from the device. Mutable accesses to one page are
        // already serialised by the store (leaf latch or tree write lock), so
        // unlike `with_leaf` there is no concurrency to win by dropping the
        // shard lock here.
        let leaf = self.read_leaf(page_id)?;
        shard.clock += 1;
        let stamp = shard.clock;
        shard.pages.insert(
            page_id,
            CachedPage {
                leaf,
                dirty: false,
                stamp,
            },
        );
        self.evict_if_needed(shard)?;
        Ok(true)
    }

    fn evict_if_needed(&self, shard: &mut PoolShard) -> StorageResult<()> {
        while shard.pages.len() > shard.capacity {
            let victim = shard
                .pages
                .iter()
                .min_by_key(|(_, p)| p.stamp)
                .map(|(id, _)| *id)
                .expect("non-empty");
            let page = shard.pages.remove(&victim).expect("victim exists");
            if page.dirty {
                self.write_leaf(victim, &page.leaf)?;
            }
            self.metrics.record_eviction();
        }
        Ok(())
    }

    fn write_leaf(&self, page_id: u64, leaf: &LeafPage) -> StorageResult<()> {
        let encoded = leaf.encode();
        if encoded.len() > self.page_size {
            return Err(StorageError::InvalidArgument(format!(
                "leaf page {page_id} of {} bytes exceeds page size {}",
                encoded.len(),
                self.page_size
            )));
        }
        let mut buf = vec![0u8; self.page_size];
        buf[..encoded.len()].copy_from_slice(&encoded);
        self.device
            .write_at(page_id * self.page_size as u64, &buf)?;
        self.metrics.record_disk_write(self.page_size as u64);
        Ok(())
    }

    /// Encoded bytes of leaf `page_id`'s *current* content, faulting it in if
    /// it was evicted since it was touched (the eviction wrote it back, so the
    /// faulted copy is current). Used to journal post-images of mutated
    /// leaves.
    pub fn leaf_image(&self, page_id: u64) -> StorageResult<Vec<u8>> {
        Ok(self.with_leaf(page_id, |leaf| leaf.encode())?.0)
    }

    /// Harden every byte written to the leaf device (durability barrier).
    pub fn sync(&self) -> StorageResult<()> {
        self.device.sync()
    }

    /// Write every dirty resident page back to the device (checkpoint barrier).
    pub fn flush_all(&self) -> StorageResult<()> {
        for shard_lock in &self.shards {
            let mut shard = shard_lock.lock();
            let dirty_ids: Vec<u64> = shard
                .pages
                .iter()
                .filter(|(_, p)| p.dirty)
                .map(|(id, _)| *id)
                .collect();
            for id in dirty_ids {
                let leaf = shard.pages.get(&id).expect("listed above").leaf.clone();
                self.write_leaf(id, &leaf)?;
                shard.pages.get_mut(&id).expect("listed above").dirty = false;
            }
        }
        Ok(())
    }
}

/// A batch's cold-leaf scatter in flight ([`BufferPool::submit_fault_batch`]).
pub struct PendingLeafFetch<'a> {
    pool: &'a BufferPool,
    missing: Vec<u64>,
    /// `None` when nothing needed fetching.
    pending: Option<PendingRead>,
}

impl PendingLeafFetch<'_> {
    /// Finish the fetch: park on the scatter, decode the leaves and warm
    /// spare pool capacity. Best-effort like [`BufferPool::fault_batch`]: a
    /// failed scatter simply yields no leaves and the per-leaf path surfaces
    /// genuine states or errors.
    pub fn wait(self) -> HashMap<u64, LeafPage> {
        let Self {
            pool,
            missing,
            pending,
        } = self;
        let Some(pending) = pending else {
            return HashMap::new();
        };
        let Ok(reqs) = pending.wait() else {
            return HashMap::new();
        };
        pool.finish_fault_batch(missing, reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::MemDevice;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Arc::new(MemDevice::new()),
            capacity,
            4096,
            1,
            IoPlanner::default(),
            Arc::new(StorageMetrics::new()),
        )
    }

    #[test]
    fn install_and_read_back() {
        let pool = pool(4);
        let mut leaf = LeafPage::new();
        leaf.insert(1, vec![1, 2, 3]);
        pool.install_new(0, leaf).unwrap();
        let (value, from_disk) = pool.with_leaf(0, |l| l.get(1).map(|v| v.to_vec())).unwrap();
        assert_eq!(value, Some(vec![1, 2, 3]));
        assert!(!from_disk);
    }

    #[test]
    fn eviction_writes_back_and_refault_reads_from_disk() {
        let pool = pool(2);
        for id in 0..5u64 {
            let mut leaf = LeafPage::new();
            leaf.insert(id, vec![id as u8; 8]);
            pool.install_new(id, leaf).unwrap();
        }
        assert!(pool.resident_pages() <= 2);
        // Page 0 was evicted; reading it must fault from the device with its data intact.
        let (value, from_disk) = pool.with_leaf(0, |l| l.get(0).map(|v| v.to_vec())).unwrap();
        assert!(from_disk);
        assert_eq!(value, Some(vec![0u8; 8]));
    }

    #[test]
    fn missing_page_is_an_error() {
        let pool = pool(2);
        assert!(pool.with_leaf(99, |_| ()).is_err());
    }

    #[test]
    fn mutation_marks_dirty_and_survives_eviction() {
        let pool = pool(2);
        let mut leaf = LeafPage::new();
        leaf.insert(7, vec![1]);
        pool.install_new(0, leaf).unwrap();
        pool.flush_all().unwrap();
        pool.with_leaf_mut(0, |l| {
            l.insert(7, vec![9, 9]);
        })
        .unwrap();
        // Force eviction of page 0 by touching others.
        for id in 1..5u64 {
            pool.install_new(id, LeafPage::new()).unwrap();
        }
        let (value, _) = pool.with_leaf(0, |l| l.get(7).map(|v| v.to_vec())).unwrap();
        assert_eq!(value, Some(vec![9, 9]));
    }

    #[test]
    fn fault_batch_fetches_cold_pages_with_one_scatter() {
        let pool = pool(8);
        for id in 0..6u64 {
            let mut leaf = LeafPage::new();
            leaf.insert(id * 10, vec![id as u8; 8]);
            pool.install_new(id, leaf).unwrap();
        }
        pool.flush_all().unwrap();
        // Drop residency by rebuilding a small pool over the same device.
        let device = Arc::clone(&pool.device);
        let cold = BufferPool::new(
            device,
            2,
            4096,
            1,
            IoPlanner::default(),
            Arc::new(StorageMetrics::new()),
        );
        // Duplicates and a page beyond the device mixed in; the batch (5
        // pages) exceeds the pool capacity (2).
        let fetched = cold.fault_batch(&[3, 0, 3, 5, 1, 4, 99]);
        let mut ids: Vec<u64> = fetched.keys().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 4, 5]);
        for (&id, leaf) in &fetched {
            assert_eq!(leaf.get(id * 10), Some(vec![id as u8; 8].as_slice()));
        }
        // Spare capacity was warmed, but never beyond the pool size.
        assert!(cold.resident_pages() <= 2);
        // A fully-resident batch fetches nothing.
        assert!(
            pool.fault_batch(&[0, 1, 2]).is_empty(),
            "pages still resident in original pool"
        );
        // Missing pages still error through the per-leaf path.
        assert!(cold.with_leaf(99, |_| ()).is_err());
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let device = Arc::new(MemDevice::new());
        let metrics = Arc::new(StorageMetrics::new());
        let pool = BufferPool::new(
            Arc::clone(&device) as Arc<dyn Device>,
            8,
            4096,
            1,
            IoPlanner::default(),
            metrics,
        );
        let mut leaf = LeafPage::new();
        leaf.insert(3, vec![3]);
        pool.install_new(0, leaf).unwrap();
        assert_eq!(device.len(), 0);
        pool.flush_all().unwrap();
        assert_eq!(device.len(), 4096);
    }

    #[test]
    fn oversized_leaf_write_is_rejected() {
        let device: Arc<dyn Device> = Arc::new(MemDevice::new());
        let pool = BufferPool::new(
            device,
            2,
            64,
            1,
            IoPlanner::default(),
            Arc::new(StorageMetrics::new()),
        );
        let mut leaf = LeafPage::new();
        leaf.insert(1, vec![0; 128]);
        pool.install_new(0, leaf).unwrap();
        assert!(pool.flush_all().is_err());
    }
}
