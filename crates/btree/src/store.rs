//! The B+tree store: in-memory separator level + buffer-pooled leaf pages,
//! behind the [`KvStore`] interface.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use mlkv_storage::device::device_from_config;
use mlkv_storage::exec::BatchExecutor;
use mlkv_storage::kv::{BatchRmwFn, Key, KvStore, ReadResult, ReadSource, RmwFn};
use mlkv_storage::wal::{WalReader, WalWriter};
use mlkv_storage::{
    Device, DurabilityMode, StorageError, StorageMetrics, StorageResult, StoreConfig,
};

use crate::buffer_pool::BufferPool;
use crate::node::LeafPage;

/// Journal record tags (first payload byte on the shared WAL framing).
const JOURNAL_PAGE: u8 = 1; // [tag][page_id u64 LE][encoded leaf image]
const JOURNAL_META: u8 = 2; // [tag][encoded tree meta]
const JOURNAL_LIVE: u8 = 3; // [tag][live record count u64 LE]

/// File name of journal generation `gen` inside the store directory.
fn journal_file_name(gen: u64) -> String {
    format!("btree_journal_{gen}.dat")
}

/// The journal generations present in `dir`, ascending (i.e. chronological).
fn journal_generations(dir: &std::path::Path) -> Vec<u64> {
    let mut gens = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(rest) = name
                .to_str()
                .and_then(|n| n.strip_prefix("btree_journal_"))
                .and_then(|n| n.strip_suffix(".dat"))
            {
                if let Ok(gen) = rest.parse::<u64>() {
                    gens.push(gen);
                }
            }
        }
    }
    gens.sort_unstable();
    gens
}

/// The page-image journal past the last flush, rotated by every flush.
struct JournalHandle {
    writer: WalWriter,
    gen: u64,
}

/// Separator map: `max key reachable through this leaf -> leaf page id`. The
/// rightmost leaf always carries `u64::MAX` so that every key routes somewhere.
type Separators = BTreeMap<u64, u64>;

struct TreeMeta {
    separators: Separators,
    next_page_id: u64,
}

/// Value producer for one position of a batched upsert: receives the position
/// and the key's current value, returns the bytes to store (or an error, which
/// aborts that position and propagates).
type UpsertFn<'a> = dyn Fn(usize, Option<&[u8]>) -> StorageResult<Vec<u8>> + Sync + 'a;

/// What one latched leaf group produced (see `BtreeStore::multi_upsert`).
struct GroupOutcome {
    page_id: u64,
    /// `(position, stored value)` for every op applied under the latch.
    values: Vec<(usize, Vec<u8>)>,
    /// Positions that would split the leaf — escalated to the tree lock.
    deferred: Vec<usize>,
    /// True when at least one op mutated the leaf.
    touched: bool,
}

/// Disk-paged B+tree key-value store (WiredTiger stand-in).
///
/// Write concurrency: batches the executor would run inline (small ones, and
/// every batch at `parallelism = 1`) take the tree write lock and upsert key
/// by key. Larger batches hold the tree lock *shared* and latch the leaves
/// they touch instead: `multi_upsert` routes the batch into leaf-disjoint
/// groups, acquires the groups' latch lanes in ascending order, runs the
/// groups through the executor, and journals one group per acknowledged
/// batch. Structural modifications (leaf splits) escalate to the tree write
/// lock; everything else only ever latches leaves.
pub struct BtreeStore {
    config: StoreConfig,
    metrics: Arc<StorageMetrics>,
    pool: BufferPool,
    meta_device: Arc<dyn Device>,
    tree: RwLock<TreeMeta>,
    live: AtomicU64,
    executor: BatchExecutor,
    /// Fixed table of leaf-latch lanes (page-id hash → lane). Writers lock
    /// their batch's lanes in ascending index order, so concurrent latched
    /// batches are deadlock-free; distinct leaves sharing a lane merely
    /// serialise.
    leaf_latches: Vec<Mutex<()>>,
    /// `None` under [`DurabilityMode::None`] (or without a directory): flushes
    /// are then the only durability, as in the seed. Otherwise every
    /// acknowledged mutation journals the post-images of the leaves it
    /// touched, and the journal is replayed over the base files on open.
    journal: Option<RwLock<JournalHandle>>,
}

const META_MAGIC: u64 = 0x4D4C_4B56_4254_5245; // "MLKVBTRE"

impl BtreeStore {
    /// Open (or create) a store described by `config`.
    pub fn open(config: StoreConfig) -> StorageResult<Self> {
        let metrics = Arc::new(StorageMetrics::new());
        let leaf_device = device_from_config(&config, "btree_leaves.dat")?;
        let meta_device = device_from_config(&config, "btree_meta.dat")?;
        let capacity_pages = (config.memory_budget / config.page_size).max(2);
        let executor = BatchExecutor::new(config.parallelism);
        let workers = executor.parallelism();
        let pool = BufferPool::new(
            leaf_device,
            capacity_pages,
            config.page_size,
            workers,
            mlkv_storage::IoPlanner::from_config(&config).with_metrics(Arc::clone(&metrics)),
            Arc::clone(&metrics),
        );

        let (meta, live) = if !meta_device.is_empty() {
            Self::decode_meta(meta_device.as_ref())?
        } else {
            // Fresh tree: a single empty leaf covering the whole key space.
            pool.install_new(0, LeafPage::new())?;
            let mut separators = Separators::new();
            separators.insert(u64::MAX, 0);
            (
                TreeMeta {
                    separators,
                    next_page_id: 1,
                },
                0,
            )
        };

        let mut store = Self {
            executor,
            // Eight lanes per worker keep false lane-sharing between
            // concurrent batches rare while still scaling with the knob.
            leaf_latches: (0..workers * 8).map(|_| Mutex::new(())).collect(),
            config,
            metrics,
            pool,
            meta_device,
            tree: RwLock::new(meta),
            live: AtomicU64::new(live),
            journal: None,
        };
        if let Some(dir) = store.config.dir.clone() {
            store.replay_journal(&dir)?;
            if store.config.durability != DurabilityMode::None {
                let gens = journal_generations(&dir);
                let gen = gens.last().map(|g| g + 1).unwrap_or(0);
                let device = device_from_config(&store.config, &journal_file_name(gen))?;
                store.journal = Some(RwLock::new(JournalHandle {
                    writer: WalWriter::new(
                        device,
                        store.config.durability,
                        Arc::clone(&store.metrics),
                    )
                    .with_tap(store.config.wal_tap.clone()),
                    gen,
                }));
            }
        }
        Ok(store)
    }

    /// Replay any surviving journal generations over the base leaf/meta files,
    /// in ascending (chronological) order. Page records re-install the
    /// journaled post-image of a leaf — replacing whatever (possibly torn or
    /// stale) bytes the crash left on the leaf device — and meta/live records
    /// restore the routing table and record count as of the covering
    /// acknowledgement. Replaying an image that is already on disk is
    /// idempotent, so generations are *not* deleted here: until the next
    /// flush they remain the only durable copy of their pages. They are
    /// garbage-collected by [`BtreeStore::rotate_journal`] at flush time.
    fn replay_journal(&mut self, dir: &std::path::Path) -> StorageResult<()> {
        for gen in journal_generations(dir) {
            let device = device_from_config(&self.config, &journal_file_name(gen))?;
            for payload in WalReader::replay(device.as_ref())? {
                match payload.first().copied() {
                    Some(JOURNAL_PAGE) if payload.len() > 9 => {
                        let page_id = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                        let leaf = LeafPage::decode(&payload[9..])?;
                        self.pool.install_new(page_id, leaf)?;
                    }
                    Some(JOURNAL_META) if payload.len() > 1 => {
                        let (meta, live) = Self::decode_meta_bytes(&payload[1..])?;
                        *self.tree.get_mut() = meta;
                        self.live.store(live, Ordering::SeqCst);
                    }
                    Some(JOURNAL_LIVE) if payload.len() >= 9 => {
                        let live = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                        self.live.store(live, Ordering::SeqCst);
                    }
                    _ => {
                        return Err(StorageError::Corruption(
                            "unknown btree journal record".into(),
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Journal one acknowledged mutation: the post-images of every leaf it
    /// touched, a meta record when the routing table changed, and the live
    /// count — all as **one** grouped append, acknowledged with a single
    /// commit. Must be called under the tree write lock so the images are
    /// consistent with the acknowledged state.
    fn journal_commit(
        &self,
        tree: &TreeMeta,
        touched: &BTreeSet<u64>,
        meta_changed: bool,
    ) -> StorageResult<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(touched.len() + 2);
        for &page_id in touched {
            let image = self.pool.leaf_image(page_id)?;
            let mut p = Vec::with_capacity(9 + image.len());
            p.push(JOURNAL_PAGE);
            p.extend_from_slice(&page_id.to_le_bytes());
            p.extend_from_slice(&image);
            payloads.push(p);
        }
        if meta_changed {
            let mut p = vec![JOURNAL_META];
            p.extend_from_slice(&self.encode_meta(tree));
            payloads.push(p);
        }
        let mut p = vec![JOURNAL_LIVE];
        p.extend_from_slice(&self.live.load(Ordering::SeqCst).to_le_bytes());
        payloads.push(p);
        let handle = journal.read();
        handle
            .writer
            .append_group(payloads.iter().map(|p| p.as_slice()))?;
        handle.writer.commit()
    }

    /// Start a new journal generation and delete the superseded ones. Called
    /// by [`BtreeStore::flush`] *after* the leaf and meta devices are
    /// hardened: every journaled image is then covered by the base files.
    fn rotate_journal(&self) -> StorageResult<()> {
        let dir = match &self.config.dir {
            Some(dir) => dir.clone(),
            None => return Ok(()),
        };
        match &self.journal {
            Some(journal) => {
                let mut handle = journal.write();
                let old_gen = handle.gen;
                let device = device_from_config(&self.config, &journal_file_name(old_gen + 1))?;
                handle.writer =
                    WalWriter::new(device, self.config.durability, Arc::clone(&self.metrics))
                        .with_tap(self.config.wal_tap.clone());
                handle.gen = old_gen + 1;
                drop(handle);
                for gen in journal_generations(&dir) {
                    if gen <= old_gen {
                        let _ = std::fs::remove_file(dir.join(journal_file_name(gen)));
                    }
                }
            }
            None => {
                for gen in journal_generations(&dir) {
                    let _ = std::fs::remove_file(dir.join(journal_file_name(gen)));
                }
            }
        }
        Ok(())
    }

    /// Convenience constructor for tests: purely in-memory store.
    pub fn in_memory(memory_budget: usize) -> StorageResult<Self> {
        Self::open(
            StoreConfig::in_memory()
                .with_memory_budget(memory_budget)
                .with_page_size(4096),
        )
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of leaf pages in the tree.
    pub fn leaf_count(&self) -> usize {
        self.tree.read().separators.len()
    }

    fn decode_meta(device: &dyn Device) -> StorageResult<(TreeMeta, u64)> {
        let len = device.len() as usize;
        let mut bytes = vec![0u8; len];
        device.read_at(0, &mut bytes)?;
        Self::decode_meta_bytes(&bytes)
    }

    fn decode_meta_bytes(bytes: &[u8]) -> StorageResult<(TreeMeta, u64)> {
        let len = bytes.len();
        if len < 32 {
            return Err(StorageError::Corruption("btree meta truncated".into()));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        if word(0) != META_MAGIC {
            return Err(StorageError::Corruption("bad btree meta magic".into()));
        }
        let next_page_id = word(1);
        let live = word(2);
        let count = word(3) as usize;
        let mut separators = Separators::new();
        let mut pos = 32;
        for _ in 0..count {
            if pos + 16 > len {
                return Err(StorageError::Corruption(
                    "btree meta entry truncated".into(),
                ));
            }
            let sep = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            let page = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
            separators.insert(sep, page);
            pos += 16;
        }
        Ok((
            TreeMeta {
                separators,
                next_page_id,
            },
            live,
        ))
    }

    fn encode_meta(&self, meta: &TreeMeta) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + meta.separators.len() * 16);
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out.extend_from_slice(&meta.next_page_id.to_le_bytes());
        out.extend_from_slice(&self.live.load(Ordering::SeqCst).to_le_bytes());
        out.extend_from_slice(&(meta.separators.len() as u64).to_le_bytes());
        for (sep, page) in &meta.separators {
            out.extend_from_slice(&sep.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
        }
        out
    }

    /// Page id of the leaf responsible for `key`, together with its separator.
    fn route(separators: &Separators, key: Key) -> (u64, u64) {
        let (sep, page) = separators
            .range(key..)
            .next()
            .expect("rightmost separator is u64::MAX, so every key routes");
        (*sep, *page)
    }

    /// Usable payload capacity of one leaf page.
    fn leaf_capacity(&self) -> usize {
        self.config.page_size
    }

    /// Reject values that cannot fit a leaf page.
    fn check_value_size(&self, value: &[u8]) -> StorageResult<()> {
        if value.len() + 64 > self.leaf_capacity() {
            return Err(StorageError::InvalidArgument(format!(
                "value of {} bytes cannot fit a {}-byte leaf page",
                value.len(),
                self.leaf_capacity()
            )));
        }
        Ok(())
    }

    /// Serve one leaf page's group of a batched read under a single buffer-pool
    /// pin. `group` holds `(page id, original position)` pairs that all route
    /// to the same leaf; `fetched` holds the leaves the batch scatter-read via
    /// [`BufferPool::fault_batch`] — groups whose page is there are served
    /// from the fetched copy (and their reads count as disk reads). Returns
    /// `(original position, result)` pairs.
    fn read_leaf_group(
        &self,
        group: &[(u64, usize)],
        keys: &[Key],
        fetched: &std::collections::HashMap<u64, LeafPage>,
    ) -> Vec<(usize, StorageResult<Vec<u8>>)> {
        let page_id = group[0].0;
        let mut out = Vec::with_capacity(group.len());
        let result = match fetched.get(&page_id) {
            Some(leaf) => Ok((
                group
                    .iter()
                    .map(|&(_, i)| leaf.get(keys[i]).map(|v| v.to_vec()))
                    .collect::<Vec<_>>(),
                true,
            )),
            None => self.pool.with_leaf(page_id, |leaf| {
                group
                    .iter()
                    .map(|&(_, i)| leaf.get(keys[i]).map(|v| v.to_vec()))
                    .collect::<Vec<_>>()
            }),
        };
        match result {
            Ok((values, from_disk)) => {
                for (&(_, i), value) in group.iter().zip(values) {
                    out.push((
                        i,
                        match value {
                            Some(v) => {
                                if from_disk {
                                    self.metrics.record_disk_read(v.len() as u64);
                                } else {
                                    self.metrics.record_mem_hit();
                                }
                                Ok(v)
                            }
                            None => {
                                self.metrics.record_miss();
                                Err(StorageError::KeyNotFound)
                            }
                        },
                    ));
                }
            }
            Err(e) => {
                // Preserve the original error kind: the first key keeps it
                // verbatim, and the (error-path-only) re-probe lets every
                // other key in the group surface its own genuine error.
                let mut slots = group.iter();
                if let Some(&(_, i)) = slots.next() {
                    out.push((i, Err(e)));
                }
                for &(_, i) in slots {
                    out.push((
                        i,
                        self.pool
                            .with_leaf(page_id, |leaf| leaf.get(keys[i]).map(|v| v.to_vec()))
                            .and_then(|(value, _)| value.ok_or(StorageError::KeyNotFound)),
                    ));
                }
            }
        }
        out
    }

    /// Upsert `key` into the tree whose meta the caller holds write-locked.
    /// This is the body shared by `put`, `multi_rmw` and `write_batch`, so a
    /// batch pays for the tree lock once. The leaves mutated (including a
    /// split's new right sibling) are recorded in `touched`, and
    /// `meta_changed` is raised when the routing table changed — the caller
    /// journals both at its acknowledgement point.
    fn put_locked(
        &self,
        tree: &mut TreeMeta,
        key: Key,
        value: &[u8],
        touched: &mut BTreeSet<u64>,
        meta_changed: &mut bool,
    ) -> StorageResult<()> {
        self.metrics.record_upsert();
        let (sep, page_id) = Self::route(&tree.separators, key);
        let capacity = self.leaf_capacity();
        let (outcome, _) = self.pool.with_leaf_mut(page_id, |leaf| {
            let inserted = leaf.insert(key, value.to_vec());
            let split = leaf.overflows(capacity).then(|| leaf.split());
            (inserted, split, leaf.max_key())
        })?;
        let (inserted, split, left_max) = outcome;
        if inserted {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        touched.insert(page_id);
        match split {
            Some(right) => {
                // The right sibling inherits the old separator (upper bound of the
                // original leaf); the left leaf is re-keyed by its new max key.
                let right_id = tree.next_page_id;
                tree.next_page_id += 1;
                tree.separators.remove(&sep);
                tree.separators
                    .insert(left_max.expect("left leaf non-empty after split"), page_id);
                tree.separators.insert(sep, right_id);
                self.pool.install_new(right_id, right)?;
                touched.insert(right_id);
                *meta_changed = true;
            }
            None => {
                // Grow the separator if the new key extended the leaf's range
                // (only relevant for the rightmost leaf, whose separator is MAX,
                // so nothing to do; interior separators never shrink).
                if let Some(max) = left_max {
                    if max > sep {
                        tree.separators.remove(&sep);
                        tree.separators.insert(max, page_id);
                        *meta_changed = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Latch lane guarding leaf `page_id`.
    fn latch_of(&self, page_id: u64) -> usize {
        let h = page_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h as usize) % self.leaf_latches.len()
    }

    /// The single mutation entry point: upsert `keys[i] -> compute(i, current)`
    /// for every position, in occurrence order per key, and journal the whole
    /// batch as one group at its acknowledgement point.
    ///
    /// Batches the executor would run inline take the exclusive-tree-lock
    /// path. Larger batches take the tree lock *shared*, latch the lanes of
    /// the leaf-disjoint groups the routing produced (ascending lane order —
    /// deadlock-free against other latched batches), and run the groups
    /// through the executor. Each group pre-checks that an
    /// upsert fits its leaf; a would-split op defers itself and the rest of
    /// its group (preserving per-key order) to an escalation phase that
    /// reruns them under the tree write lock, where splitting is safe.
    ///
    /// Concurrent latched batches interleave at leaf granularity: per-key
    /// atomicity and per-batch journal groups are preserved, but cross-key
    /// readers may observe a batch partially applied (same contract as the
    /// FASTER engine's sharded writes).
    fn multi_upsert(&self, keys: &[Key], compute: &UpsertFn) -> StorageResult<Vec<Vec<u8>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = vec![Vec::new(); keys.len()];
        if self.executor.planned_workers(keys.len()) <= 1 {
            // Not an inline twin of the latched path below but a different
            // algorithm, selected from what the batch looks like (its size
            // and the worker count): one tree write-lock acquisition for the
            // whole batch, routing per key because an insert may split a
            // leaf mid-batch — which the latched path cannot do and has to
            // escalate. Input order preserves duplicate-key writes.
            let mut tree = self.tree.write();
            let mut touched = BTreeSet::new();
            let mut meta_changed = false;
            for (i, &key) in keys.iter().enumerate() {
                let (_, page_id) = Self::route(&tree.separators, key);
                let (current, _) = self
                    .pool
                    .with_leaf(page_id, |leaf| leaf.get(key).map(|v| v.to_vec()))?;
                let value = compute(i, current.as_deref())?;
                self.put_locked(&mut tree, key, &value, &mut touched, &mut meta_changed)?;
                out[i] = value;
            }
            self.journal_commit(&tree, &touched, meta_changed)?;
            return Ok(out);
        }

        let mut touched = BTreeSet::new();
        let mut deferred: Vec<usize> = Vec::new();
        {
            let tree = self.tree.read();
            // Leaf-disjoint groups: stable sort by routed page keeps duplicate
            // keys (same leaf) in occurrence order within their group.
            let mut routed: Vec<(u64, usize)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (Self::route(&tree.separators, k).1, i))
                .collect();
            routed.sort_by_key(|&(page, _)| page);
            let mut groups: Vec<(u64, &[(u64, usize)])> = Vec::new();
            let mut pos = 0;
            while pos < routed.len() {
                let page_id = routed[pos].0;
                let mut end = pos;
                while end < routed.len() && routed[end].0 == page_id {
                    end += 1;
                }
                groups.push((page_id, &routed[pos..end]));
                pos = end;
            }
            // Latch every group's lane, ascending and dedup'd. Holding the
            // latches across apply + journal keeps other latched batches off
            // these leaves until this batch's journal group is acknowledged.
            let mut lanes: Vec<usize> = groups.iter().map(|&(p, _)| self.latch_of(p)).collect();
            lanes.sort_unstable();
            lanes.dedup();
            let _latches: Vec<_> = lanes.iter().map(|&l| self.leaf_latches[l].lock()).collect();

            let capacity = self.leaf_capacity();
            let run_group = |page_id: u64,
                             members: &[(u64, usize)]|
             -> StorageResult<GroupOutcome> {
                let mut values = Vec::with_capacity(members.len());
                let mut group_deferred = Vec::new();
                let mut inserts = 0u64;
                let mut touched = false;
                let (res, _) = self
                    .pool
                    .with_leaf_mut(page_id, |leaf| -> StorageResult<()> {
                        for (gi, &(_, i)) in members.iter().enumerate() {
                            let key = keys[i];
                            let current = leaf.get(key).map(|v| v.to_vec());
                            let value = compute(i, current.as_deref())?;
                            if !leaf.fits_after_upsert(key, value.len(), capacity) {
                                // Splitting needs the tree lock. Defer the rest of
                                // the group too, so later ops on this leaf (incl.
                                // duplicate keys) still apply after this one.
                                group_deferred.extend(members[gi..].iter().map(|&(_, i)| i));
                                return Ok(());
                            }
                            self.metrics.record_upsert();
                            if leaf.insert(key, value.clone()) {
                                inserts += 1;
                            }
                            touched = true;
                            values.push((i, value));
                        }
                        Ok(())
                    })?;
                res?;
                self.live.fetch_add(inserts, Ordering::Relaxed);
                Ok(GroupOutcome {
                    page_id,
                    values,
                    deferred: group_deferred,
                    touched,
                })
            };
            let jobs: Vec<_> = groups
                .iter()
                .map(|&(p, m)| {
                    let run_group = &run_group;
                    move || run_group(p, m)
                })
                .collect();
            for result in self.executor.execute(jobs, keys.len()) {
                let group = result?;
                if group.touched {
                    touched.insert(group.page_id);
                }
                for (i, value) in group.values {
                    out[i] = value;
                }
                deferred.extend(group.deferred);
            }
            if deferred.is_empty() {
                // No structural change: acknowledge under the shared tree
                // lock, latches still held.
                self.journal_commit(&tree, &touched, false)?;
                return Ok(out);
            }
        }
        // Escalation: would-split ops rerun under the tree write lock (their
        // latches and the shared lock were released above — batch atomicity
        // across this boundary is traded for per-key linearizability). The
        // values are recomputed from the leaf's current state, so duplicate
        // keys still observe every earlier occurrence.
        deferred.sort_unstable();
        let mut tree = self.tree.write();
        let mut meta_changed = false;
        for i in deferred {
            let key = keys[i];
            let (_, page_id) = Self::route(&tree.separators, key);
            let (current, _) = self
                .pool
                .with_leaf(page_id, |leaf| leaf.get(key).map(|v| v.to_vec()))?;
            let value = compute(i, current.as_deref())?;
            self.put_locked(&mut tree, key, &value, &mut touched, &mut meta_changed)?;
            out[i] = value;
        }
        // One journal group still covers the whole batch: the escalated
        // leaves' post-images include the latched phase's mutations.
        self.journal_commit(&tree, &touched, meta_changed)?;
        Ok(out)
    }
}

impl KvStore for BtreeStore {
    fn name(&self) -> &'static str {
        // Matches `BackendKind::WiredTigerLike.name()` and the paper's figure labels.
        "WiredTiger"
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        let tree = self.tree.read();
        let (_, page_id) = Self::route(&tree.separators, key);
        let (value, from_disk) = self
            .pool
            .with_leaf(page_id, |leaf| leaf.get(key).map(|v| v.to_vec()))?;
        match value {
            Some(v) => {
                if from_disk {
                    self.metrics.record_disk_read(v.len() as u64);
                } else {
                    self.metrics.record_mem_hit();
                }
                Ok(ReadResult {
                    value: v,
                    source: if from_disk {
                        ReadSource::Disk
                    } else {
                        ReadSource::HotMemory
                    },
                })
            }
            None => {
                self.metrics.record_miss();
                Err(StorageError::KeyNotFound)
            }
        }
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        // Sorted traversal: group the batch by leaf page so every page is
        // pinned in the buffer pool exactly once, no matter how many of the
        // batch's keys it serves. The page groups go through the executor —
        // they are leaf-disjoint, so each worker keeps the shared-pin
        // behaviour within its groups and no leaf is pinned by two workers on
        // behalf of the same batch.
        let tree = self.tree.read();
        let mut routed: Vec<(u64, usize)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (Self::route(&tree.separators, k).1, i))
            .collect();
        routed.sort_unstable_by_key(|&(page, _)| page);
        // Submit the scatter for the batch's missing leaf pages first, so
        // the device fetches them while the leaf groups are being built
        // below (the pool bookkeeping a later-completing device overlaps). Groups
        // whose page was fetched read the returned copy (the tree read lock
        // held across this whole call excludes leaf mutations, so the copies
        // cannot go stale); everything else pins the pool.
        let mut page_ids: Vec<u64> = routed.iter().map(|&(page, _)| page).collect();
        page_ids.dedup(); // routed is page-sorted
        let pending_leaves = self.pool.submit_fault_batch(&page_ids);
        let mut groups: Vec<&[(u64, usize)]> = Vec::new();
        let mut pos = 0;
        while pos < routed.len() {
            let page_id = routed[pos].0;
            let mut end = pos;
            while end < routed.len() && routed[end].0 == page_id {
                end += 1;
            }
            groups.push(&routed[pos..end]);
            pos = end;
        }
        let fetched = pending_leaves.wait();
        let fetched = &fetched;
        let mut out: Vec<Option<StorageResult<Vec<u8>>>> = keys.iter().map(|_| None).collect();
        let jobs: Vec<_> = groups
            .into_iter()
            .map(|group| move || self.read_leaf_group(group, keys, fetched))
            .collect();
        for pairs in self.executor.execute(jobs, keys.len()) {
            for (i, result) in pairs {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        // Thin wrapper over the batch path: one mutation entry point.
        self.check_value_size(value)?;
        self.multi_upsert(&[key], &|_, _| Ok(value.to_vec()))?;
        Ok(())
    }

    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        // Thin wrapper over the batch path: one mutation entry point.
        self.metrics.record_rmw();
        let mut out = self.multi_upsert(&[key], &|_, current| {
            let value = f(current);
            self.check_value_size(&value)?;
            Ok(value)
        })?;
        Ok(out.pop().expect("single-key batch yields one value"))
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        // Metrics up front: an op deferred by the latched path recomputes its
        // value during escalation, and must not count twice.
        for _ in keys {
            self.metrics.record_rmw();
        }
        self.multi_upsert(keys, &|i, current| {
            let value = f(i, current);
            self.check_value_size(&value)?;
            Ok(value)
        })
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        // Leaf probe without copying the value out of the page.
        let tree = self.tree.read();
        let (_, page_id) = Self::route(&tree.separators, key);
        let (found, _) = self
            .pool
            .with_leaf(page_id, |leaf| leaf.get(key).is_some())?;
        Ok(found)
    }

    fn write_batch(&self, batch: &mlkv_storage::WriteBatch) -> StorageResult<()> {
        // Thin wrapper over the batch path: one mutation entry point. The
        // size pre-check keeps the old all-or-nothing rejection of oversized
        // values before anything is applied.
        for (_, v) in batch.iter() {
            self.check_value_size(v)?;
        }
        let keys: Vec<Key> = batch.iter().map(|(k, _)| *k).collect();
        let values: Vec<&Vec<u8>> = batch.iter().map(|(_, v)| v).collect();
        self.multi_upsert(&keys, &|i, _| Ok(values[i].clone()))?;
        Ok(())
    }

    fn delete(&self, key: Key) -> StorageResult<()> {
        // Removal never splits or merges (this tree has no merges), so the
        // shared tree lock plus the leaf's latch lane suffice.
        let tree = self.tree.read();
        let (_, page_id) = Self::route(&tree.separators, key);
        let _latch = self.leaf_latches[self.latch_of(page_id)].lock();
        let (removed, _) = self.pool.with_leaf_mut(page_id, |leaf| leaf.remove(key))?;
        if removed {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        let mut touched = BTreeSet::new();
        touched.insert(page_id);
        self.journal_commit(&tree, &touched, false)
    }

    fn approximate_len(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        Arc::clone(&self.metrics)
    }

    fn flush(&self) -> StorageResult<()> {
        // Exclusive: latched writers hold the tree lock shared for their whole
        // apply + journal window, so taking it exclusively here guarantees no
        // acknowledged mutation sits only in a journal generation this flush
        // is about to rotate away.
        let tree = self.tree.write();
        self.pool.flush_all()?;
        self.meta_device.write_at(0, &self.encode_meta(&tree))?;
        if self.config.durability != DurabilityMode::None {
            // Harden the base files *before* rotating the journal away: until
            // both syncs return, the journal is the only durable copy of the
            // pages flushed above.
            self.pool.sync()?;
            self.meta_device.sync()?;
        }
        self.rotate_journal()
    }

    fn replication_tap(&self) -> Option<Arc<mlkv_storage::wal::WalTap>> {
        self.config.wal_tap.clone()
    }

    fn apply_replicated_group(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        // Shipped groups are page-image journal groups (see `journal_commit`):
        // install each post-image exactly as `replay_journal` does, under the
        // tree write lock so readers never observe a half-applied group, then
        // re-journal the applied images so the *replica's* journal covers them
        // across its own restarts.
        let mut tree = self.tree.write();
        let mut touched = BTreeSet::new();
        let mut meta_changed = false;
        for payload in frames {
            match payload.first().copied() {
                Some(JOURNAL_PAGE) if payload.len() > 9 => {
                    let page_id = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                    let leaf = LeafPage::decode(&payload[9..])?;
                    self.pool.install_new(page_id, leaf)?;
                    touched.insert(page_id);
                }
                Some(JOURNAL_META) if payload.len() > 1 => {
                    let (meta, live) = Self::decode_meta_bytes(&payload[1..])?;
                    *tree = meta;
                    self.live.store(live, Ordering::SeqCst);
                    meta_changed = true;
                }
                Some(JOURNAL_LIVE) if payload.len() >= 9 => {
                    let live = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                    self.live.store(live, Ordering::SeqCst);
                }
                _ => {
                    return Err(StorageError::Corruption(
                        "unknown replicated btree journal record".into(),
                    ))
                }
            }
        }
        self.journal_commit(&tree, &touched, meta_changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        store.put(10, b"ten").unwrap();
        store.put(5, b"five").unwrap();
        assert_eq!(store.get(10).unwrap(), b"ten");
        assert_eq!(store.get(5).unwrap(), b"five");
        assert!(store.get(7).unwrap_err().is_not_found());
        assert_eq!(store.approximate_len(), 2);
        store.delete(10).unwrap();
        assert!(store.get(10).unwrap_err().is_not_found());
        assert_eq!(store.approximate_len(), 1);
        assert_eq!(store.name(), "WiredTiger");
    }

    #[test]
    fn multi_get_shares_leaf_pins_across_a_sorted_batch() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        for k in 0..5000u64 {
            store.put(k, &[(k % 251) as u8; 32]).unwrap();
        }
        assert!(store.leaf_count() > 1);
        let keys: Vec<u64> = vec![4999, 0, 2500, 0, 1_000_000];
        let batch = store.multi_get(&keys);
        assert_eq!(batch[0].as_deref().unwrap(), &[(4999 % 251) as u8; 32]);
        assert_eq!(batch[1].as_deref().unwrap(), &[0u8; 32]);
        assert_eq!(batch[2].as_deref().unwrap(), &[(2500 % 251) as u8; 32]);
        assert_eq!(batch[3].as_deref().unwrap(), &[0u8; 32]);
        assert!(batch[4].as_ref().unwrap_err().is_not_found());
    }

    #[test]
    fn parallel_leaf_groups_match_serial_results() {
        let open = |parallelism| {
            BtreeStore::open(
                StoreConfig::in_memory()
                    .with_memory_budget(1 << 20)
                    .with_page_size(4096)
                    .with_parallelism(parallelism),
            )
            .unwrap()
        };
        let serial = open(1);
        let parallel = open(8);
        for store in [&serial, &parallel] {
            for k in 0..5000u64 {
                store.put(k, &[(k % 251) as u8; 32]).unwrap();
            }
        }
        assert!(parallel.leaf_count() > 1);
        // Large enough to fan out, with misses mixed in.
        let n = 2 * mlkv_storage::exec::MIN_KEYS_PER_WORKER as u64;
        let keys: Vec<u64> = (0..n).map(|i| (i * 11) % 5200).collect();
        let a = serial.multi_get(&keys);
        let b = parallel.multi_get(&keys);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.as_ref().ok(),
                y.as_ref().ok(),
                "key {} (pos {i})",
                keys[i]
            );
        }
    }

    #[test]
    fn multi_rmw_survives_mid_batch_splits() {
        let store = BtreeStore::open(
            StoreConfig::in_memory()
                .with_memory_budget(64 << 10)
                .with_page_size(1 << 10),
        )
        .unwrap();
        // Values big enough that the batch forces leaf splits while it runs.
        let keys: Vec<u64> = (0..200).map(|i| i % 100).collect();
        store
            .multi_rmw(&keys, &|_, cur| {
                let n = cur.map(|b| b[0]).unwrap_or(0);
                vec![n + 1; 64]
            })
            .unwrap();
        assert!(store.leaf_count() > 1, "batch should have split leaves");
        for k in 0..100u64 {
            assert_eq!(store.get(k).unwrap(), vec![2u8; 64], "key {k}");
        }
    }

    #[test]
    fn exists_probes_leaves_without_copying() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        store.put(10, b"ten").unwrap();
        assert!(store.exists(10).unwrap());
        assert!(!store.exists(11).unwrap());
        store.delete(10).unwrap();
        assert!(!store.exists(10).unwrap());
    }

    #[test]
    fn write_batch_sorted_traversal_applies_all_and_keeps_duplicate_order() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        let mut batch = mlkv_storage::WriteBatch::new();
        for k in (0..500u64).rev() {
            batch.put(k, k.to_le_bytes().to_vec());
        }
        batch.put(7, b"second".to_vec()); // duplicate: later op must win
        store.write_batch(&batch).unwrap();
        assert_eq!(store.get(7).unwrap(), b"second");
        assert_eq!(store.get(499).unwrap(), 499u64.to_le_bytes());
        assert_eq!(store.approximate_len(), 500);
    }

    #[test]
    fn splits_keep_all_keys_reachable() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        let n = 5000u64;
        for k in 0..n {
            store.put(k, &[(k % 251) as u8; 32]).unwrap();
        }
        assert!(store.leaf_count() > 1, "tree should have split");
        for k in 0..n {
            assert_eq!(store.get(k).unwrap(), vec![(k % 251) as u8; 32], "key {k}");
        }
        assert_eq!(store.approximate_len(), n as usize);
    }

    #[test]
    fn random_insertion_order_is_handled() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        // Deterministic pseudo-random permutation via multiplication.
        let n = 3000u64;
        for i in 0..n {
            let k = (i.wrapping_mul(2654435761)) % 100_000;
            store.put(k, &k.to_le_bytes()).unwrap();
        }
        for i in 0..n {
            let k = (i.wrapping_mul(2654435761)) % 100_000;
            assert_eq!(store.get(k).unwrap(), k.to_le_bytes());
        }
    }

    #[test]
    fn cold_leaves_are_read_from_disk() {
        // Pool of only 2 pages: most leaves are cold.
        let store = BtreeStore::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(4 << 10),
        )
        .unwrap();
        for k in 0..3000u64 {
            store.put(k, &[1u8; 32]).unwrap();
        }
        // Reading a key far from the most recent inserts should hit disk.
        let r = store.get_traced(0).unwrap();
        assert_eq!(r.value, vec![1u8; 32]);
        assert!(store.metrics().snapshot().disk_reads > 0);
    }

    #[test]
    fn oversized_values_are_rejected() {
        let store = BtreeStore::open(
            StoreConfig::in_memory()
                .with_memory_budget(64 << 10)
                .with_page_size(1 << 10),
        )
        .unwrap();
        assert!(store.put(1, &[0u8; 2048]).is_err());
    }

    #[test]
    fn rmw_roundtrip() {
        let store = BtreeStore::in_memory(1 << 20).unwrap();
        for _ in 0..5 {
            store
                .rmw(1, &|old| {
                    let cur = old
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    (cur + 2).to_le_bytes().to_vec()
                })
                .unwrap();
        }
        assert_eq!(
            u64::from_le_bytes(store.get(1).unwrap().try_into().unwrap()),
            10
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-btree-reopen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(64 << 10)
            .with_page_size(4 << 10);
        {
            let store = BtreeStore::open(cfg.clone()).unwrap();
            for k in 0..2000u64 {
                store.put(k, &k.to_le_bytes()).unwrap();
            }
            store.delete(3).unwrap();
            store.flush().unwrap();
        }
        let store = BtreeStore::open(cfg).unwrap();
        assert_eq!(store.get(1999).unwrap(), 1999u64.to_le_bytes());
        assert_eq!(store.get(0).unwrap(), 0u64.to_le_bytes());
        assert!(store.get(3).unwrap_err().is_not_found());
        assert_eq!(store.approximate_len(), 1999);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-btree-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journaled_writes_survive_reopen_without_flush() {
        let dir = temp_dir("reopen");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_durability(DurabilityMode::GroupCommit { window: 64 });
        {
            let store = BtreeStore::open(cfg.clone()).unwrap();
            // Enough inserts to split leaves (routing changes must replay too).
            for k in 0..300u64 {
                store.put(k, &[(k % 251) as u8; 32]).unwrap();
            }
            store.delete(5).unwrap();
            // No flush: the journal is the only durable copy.
        }
        let store = BtreeStore::open(cfg).unwrap();
        assert!(store.leaf_count() > 1, "splits must survive");
        assert_eq!(store.approximate_len(), 299);
        assert!(store.get(5).unwrap_err().is_not_found());
        for k in (0..300u64).filter(|&k| k != 5) {
            assert_eq!(store.get(k).unwrap(), vec![(k % 251) as u8; 32], "key {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_rotates_the_journal_generation() {
        let dir = temp_dir("rotate");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_durability(DurabilityMode::GroupCommit { window: 64 });
        let store = BtreeStore::open(cfg.clone()).unwrap();
        for k in 0..100u64 {
            store.put(k, &[1u8; 32]).unwrap();
        }
        assert_eq!(journal_generations(&dir), vec![0]);
        store.flush().unwrap();
        assert_eq!(journal_generations(&dir), vec![1], "flush supersedes gen 0");
        store.put(500, &[2u8; 32]).unwrap();
        drop(store);
        // Reopen recovers the flushed base plus the delta journal.
        let store = BtreeStore::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 101);
        assert_eq!(store.get(500).unwrap(), vec![2u8; 32]);
        assert_eq!(store.get(99).unwrap(), vec![1u8; 32]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_journal_one_group_per_ack() {
        let dir = temp_dir("group");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(64 << 10)
            .with_page_size(4 << 10)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 });
        let store = BtreeStore::open(cfg).unwrap();
        let mut batch = mlkv_storage::WriteBatch::new();
        for k in 0..64u64 {
            batch.put(k, vec![k as u8; 16]);
        }
        store.write_batch(&batch).unwrap();
        let keys: Vec<u64> = (0..64).collect();
        store
            .multi_rmw(&keys, &|_, cur| {
                let mut v = cur.unwrap().to_vec();
                v[0] ^= 0xFF;
                v
            })
            .unwrap();
        let snap = store.metrics().snapshot();
        assert_eq!(snap.wal_appends, 2, "one grouped journal append per batch");
        assert_eq!(snap.wal_syncs, 2, "one sync per acknowledged batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_durable_store_writes_no_journal() {
        let dir = temp_dir("nojournal");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10);
        let store = BtreeStore::open(cfg).unwrap();
        store.put(1, &[1u8; 8]).unwrap();
        assert!(journal_generations(&dir).is_empty());
        assert_eq!(store.metrics().snapshot().wal_appends, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shipped_journal_groups_replicate_into_a_standby_tree() {
        let dir = temp_dir("repl");
        let tap = Arc::new(mlkv_storage::wal::WalTap::new(1024));
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
            .with_wal_tap(Arc::clone(&tap));
        let primary = BtreeStore::open(cfg).unwrap();
        assert!(
            primary
                .replication_tap()
                .is_some_and(|t| Arc::ptr_eq(&t, &tap)),
            "store exposes the configured tap"
        );
        // Replica attached at genesis: page-image groups carry full
        // post-images, so applying them in order reconstructs the tree.
        let replica = BtreeStore::in_memory(1 << 20).unwrap();
        // Enough keys to split leaves (meta records ship too), plus a delete.
        for k in 0..300u64 {
            primary.put(k, &[(k % 251) as u8; 16]).unwrap();
        }
        primary.delete(7).unwrap();
        let mut shipper = mlkv_storage::wal::WalShipper::new(Arc::clone(&tap), 0);
        loop {
            match shipper.next(std::time::Duration::from_millis(0)) {
                mlkv_storage::wal::Shipment::Group(group) => {
                    replica.apply_replicated_group(&group.frames).unwrap()
                }
                mlkv_storage::wal::Shipment::Idle => break,
                mlkv_storage::wal::Shipment::Gap { .. } => panic!("no eviction expected"),
            }
        }
        assert_eq!(replica.approximate_len(), primary.approximate_len());
        assert_eq!(replica.leaf_count(), primary.leaf_count());
        for k in 0..300u64 {
            if k == 7 {
                assert!(replica.get(k).unwrap_err().is_not_found());
            } else {
                assert_eq!(replica.get(k).unwrap(), vec![(k % 251) as u8; 16]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let store = Arc::new(BtreeStore::in_memory(1 << 20).unwrap());
        for k in 0..200u64 {
            store.put(k, &k.to_le_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let key = 10_000 + t * 1000 + i;
                    store.put(key, &key.to_le_bytes()).unwrap();
                    assert_eq!(store.get(key).unwrap(), key.to_le_bytes());
                    assert_eq!(store.get(i % 200).unwrap(), (i % 200).to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
