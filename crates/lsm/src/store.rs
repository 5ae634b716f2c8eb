//! The LSM store tying memtable, WAL, SSTables, block cache and compaction
//! together behind the [`KvStore`] interface.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mlkv_storage::device::device_from_config;
use mlkv_storage::exec::{split_sorted, BatchExecutor};
use mlkv_storage::kv::{BatchRmwFn, Key, KvStore, ReadResult, ReadSource, RmwFn, WriteBatch};
use mlkv_storage::{
    DurabilityMode, IoPlanner, ShardedLruCache, StorageError, StorageMetrics, StorageResult,
    StoreConfig,
};

use crate::memtable::{Entry, MemTable, ShardedMemTable};
use crate::sstable::SsTable;
use crate::wal::WriteAheadLog;

/// Number of SSTables tolerated before a full compaction is triggered.
const COMPACTION_THRESHOLD: usize = 6;

/// Who an SSTable probe reads for — the read-counter rule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// A user read: counts as a lookup (`mem_hits` / `misses` / disk reads)
    /// and copies what it resolves into the block cache.
    Lookup,
    /// A writer reading the value it is about to replace: only the device
    /// reads are accounted (as background reads, by the table layer), so a
    /// writer never moves `lookups` / `mem_hits` / `misses`, and nothing is
    /// cached — the batch's own apply invalidates the key right after.
    Write,
}

struct Inner {
    memtable: ShardedMemTable,
    /// All SSTables, oldest first.
    tables: Vec<SsTable>,
    wal: WriteAheadLog,
    wal_gen: u64,
}

/// LSM-tree key-value store (RocksDB stand-in).
///
/// Write concurrency: mutating batches hold the structural lock (`Inner`)
/// *shared* and serialise on the hash-sharded memtable's per-shard locks, so
/// batches touching disjoint shards commit concurrently. Each batch stages its
/// values under its shard locks, then one grouped WAL append + one
/// group-commit ack cover the whole batch (shard workers stage, the calling
/// thread is the single committer). No batch path reads the device while it
/// holds a shard lock: `multi_rmw` resolves its cold keys before it locks.
/// Flushes take the structural lock exclusively, draining every shard into
/// one SSTable pass, so SST/WAL rotation ordering is identical to the
/// single-shard engine.
pub struct LsmStore {
    config: StoreConfig,
    metrics: Arc<StorageMetrics>,
    inner: RwLock<Inner>,
    block_cache: ShardedLruCache,
    memtable_budget: usize,
    next_seq: AtomicU64,
    executor: BatchExecutor,
}

impl LsmStore {
    /// Open (or create) a store described by `config`. Half the memory budget
    /// goes to the memtable, half to the block cache (RocksDB's usual split).
    pub fn open(config: StoreConfig) -> StorageResult<Self> {
        let metrics = Arc::new(StorageMetrics::new());
        let memtable_budget = (config.memory_budget / 2).max(4 << 10);
        let block_cache = ShardedLruCache::new((config.memory_budget / 2).max(4 << 10), 8);

        let mut tables = Vec::new();
        let mut max_seq = 0u64;
        let mut wal_gen = 0u64;
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)?;
            let mut table_seqs = Vec::new();
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name().to_string_lossy().into_owned();
                if let Some(seq) = name
                    .strip_prefix("sst_")
                    .and_then(|s| s.strip_suffix(".dat"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    table_seqs.push(seq);
                } else if let Some(gen) = name
                    .strip_prefix("wal_")
                    .and_then(|s| s.strip_suffix(".dat"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    wal_gen = wal_gen.max(gen);
                }
            }
            table_seqs.sort_unstable();
            for seq in table_seqs {
                let device = device_from_config(&config, &format!("sst_{seq}.dat"))?;
                let planner = IoPlanner::from_config(&config).with_metrics(Arc::clone(&metrics));
                match SsTable::open(device, planner, seq) {
                    Ok(table) => tables.push(table),
                    // An SST whose hardening sync never completed (crash
                    // mid-flush) is empty or torn. Its entries are still in
                    // the WAL — rotation only removes a WAL *after* the SST
                    // covering it synced — so dropping the carcass is safe.
                    Err(_) => {
                        let _ = std::fs::remove_file(dir.join(format!("sst_{seq}.dat")));
                    }
                }
                max_seq = max_seq.max(seq);
            }
        }
        let wal_device = device_from_config(&config, &format!("wal_{wal_gen}.dat"))?;
        let wal = WriteAheadLog::new(wal_device, config.durability, Arc::clone(&metrics))
            .with_tap(config.wal_tap.clone());
        let executor = BatchExecutor::new(config.parallelism);
        // One memtable shard per worker, so a fanned-out batch's shard groups
        // can all be staged and applied at once.
        let memtable = ShardedMemTable::new(executor.parallelism());
        for (key, entry) in wal.replay()? {
            let mut shard = memtable.lock_shard(memtable.shard_of(key));
            match entry {
                Some(v) => shard.put(key, v),
                None => shard.delete(key),
            }
        }

        Ok(Self {
            executor,
            config,
            metrics,
            inner: RwLock::new(Inner {
                memtable,
                tables,
                wal,
                wal_gen,
            }),
            block_cache,
            memtable_budget,
            next_seq: AtomicU64::new(max_seq + 1),
        })
    }

    /// Convenience constructor for tests: purely in-memory store.
    pub fn in_memory(memory_budget: usize) -> StorageResult<Self> {
        Self::open(StoreConfig::in_memory().with_memory_budget(memory_budget))
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of SSTables currently on disk (for tests and reporting).
    pub fn table_count(&self) -> usize {
        self.inner.read().tables.len()
    }

    fn next_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Flush the memtable into a new SSTable and rotate the WAL. Must be called
    /// with the structural write lock held (no concurrent writers or readers);
    /// `inner` is that guard. Drains *every* memtable shard into one sorted
    /// SSTable pass.
    fn flush_memtable(&self, inner: &mut Inner) -> StorageResult<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let entries = inner.memtable.drain_sorted();
        let seq = self.next_seq();
        let built = (|| {
            let device = device_from_config(&self.config, &format!("sst_{seq}.dat"))?;
            let table = SsTable::build(
                device,
                IoPlanner::from_config(&self.config).with_metrics(Arc::clone(&self.metrics)),
                &entries,
                seq,
                &self.metrics,
            )?;
            // Harden the SSTable *before* the WAL covering its entries is
            // removed, so a crash can never leave the entries in neither place.
            // Under `DurabilityMode::None` nothing promises to survive a crash,
            // so the sync is skipped (preserving the non-durable fast path).
            if self.config.durability != DurabilityMode::None {
                table.sync()?;
            }
            Ok(table)
        })();
        let table = match built {
            Ok(table) => table,
            Err(e) => {
                // The SSTable never made it: put the drained entries back so
                // acknowledged live state stays readable while the device is
                // faulty (the WAL still covers it, so durability is
                // unaffected; a later flush retries with a fresh sequence).
                inner.memtable.restore(entries);
                return Err(e);
            }
        };
        inner.tables.push(table);
        // A reader that missed the memtable may have cached a key's older
        // table value after a concurrent write invalidated it; the memtable
        // shadowed that entry until now. Drop every drained key's entry so no
        // cached value outlives the flush that made it stale (`multi_rmw`
        // trusts the cache). No reader is mid-insert: the structural lock is
        // held exclusively.
        for (key, _) in &entries {
            self.block_cache.invalidate(*key);
        }
        // Rotate the WAL: recovered state now lives in the SSTable.
        inner.wal_gen += 1;
        if let Some(dir) = &self.config.dir {
            let _ = std::fs::remove_file(dir.join(format!("wal_{}.dat", inner.wal_gen - 1)));
        }
        let wal_device = device_from_config(&self.config, &format!("wal_{}.dat", inner.wal_gen))?;
        inner.wal = WriteAheadLog::new(
            wal_device,
            self.config.durability,
            Arc::clone(&self.metrics),
        )
        .with_tap(self.config.wal_tap.clone());

        if inner.tables.len() > COMPACTION_THRESHOLD {
            self.compact(inner)?;
        }
        Ok(())
    }

    /// Full compaction: merge every SSTable (newest wins) into a single run and
    /// drop tombstones.
    fn compact(&self, inner: &mut Inner) -> StorageResult<()> {
        let mut merged: std::collections::BTreeMap<u64, Entry> = std::collections::BTreeMap::new();
        for table in &inner.tables {
            // Oldest first: later (newer) tables overwrite earlier entries.
            for (key, entry) in table.scan_all(&self.metrics)? {
                merged.insert(key, entry);
            }
        }
        // A full compaction covers the whole key space, so tombstones can be dropped.
        let entries: Vec<(u64, Entry)> = merged.into_iter().filter(|(_, e)| e.is_some()).collect();
        let seq = self.next_seq();
        let device = device_from_config(&self.config, &format!("sst_{seq}.dat"))?;
        let table = SsTable::build(
            device,
            IoPlanner::from_config(&self.config).with_metrics(Arc::clone(&self.metrics)),
            &entries,
            seq,
            &self.metrics,
        )?;
        // Harden the merged run before its inputs are removed (same crash
        // rule as `flush_memtable`).
        if self.config.durability != DurabilityMode::None {
            table.sync()?;
        }
        // Remove the old table files.
        if let Some(dir) = &self.config.dir {
            for old in &inner.tables {
                let _ = std::fs::remove_file(dir.join(format!("sst_{}.dat", old.seq)));
            }
        }
        inner.tables = vec![table];
        Ok(())
    }

    /// Search the SSTables (newest first) for `key`.
    fn search_tables(&self, inner: &Inner, key: Key) -> StorageResult<Option<Entry>> {
        for table in inner.tables.iter().rev() {
            if let Some(entry) = table.get(key, &self.metrics)? {
                return Ok(Some(entry));
            }
        }
        Ok(None)
    }

    /// Resolve `positions` of `keys` against the SSTables through the
    /// executor — the one grouped probe every batch read shares: the
    /// positions sorted by key, split into contiguous whole-key ranges (one
    /// per planned worker), each range one job sweeping the tables newest
    /// first ([`LsmStore::probe_tables`]). Returns `(position, result)` pairs
    /// in no particular order. The caller holds the structural lock, so
    /// `tables` cannot change underneath the probes.
    fn probe_batch(
        &self,
        tables: &[SsTable],
        keys: &[Key],
        mut positions: Vec<usize>,
        probe: Probe,
    ) -> impl Iterator<Item = (usize, StorageResult<Vec<u8>>)> {
        positions.sort_unstable_by_key(|&i| keys[i]);
        let workers = self.executor.planned_workers(positions.len());
        let jobs: Vec<_> = split_sorted(&positions, keys, workers)
            .into_iter()
            .map(|range| move || self.probe_tables(tables, keys, range.to_vec(), probe))
            .collect();
        self.executor
            .execute(jobs, positions.len())
            .into_iter()
            .flatten()
    }

    /// Resolve a set of batch positions against the SSTables: one pass per
    /// table (newest first), each table's bloom filter rejecting absent keys
    /// before any device read and every admitted key of the pass fetched with
    /// **one** coalesced scatter ([`SsTable::submit_get_many`]). A
    /// [`Probe::Lookup`] copies resolved values into the block cache, exactly
    /// like the point-read path, and counts its hits and misses. The passes
    /// are pipelined: as soon as a pass's results are classified, the next
    /// table's scatter is submitted, and the resolved values' bookkeeping
    /// (cache inserts, metrics) runs while that scatter is in flight. Returns
    /// `(original position, result)` pairs; positions that no table holds
    /// come back as not-found.
    fn probe_tables(
        &self,
        tables: &[SsTable],
        keys: &[Key],
        mut unresolved: Vec<usize>,
        probe: Probe,
    ) -> Vec<(usize, StorageResult<Vec<u8>>)> {
        let lookup = probe == Probe::Lookup;
        fn submit<'t>(
            table: &'t SsTable,
            keys: &[Key],
            slots: Vec<usize>,
        ) -> (Vec<usize>, crate::sstable::PendingTableGets<'t>) {
            let probe_keys: Vec<Key> = slots.iter().map(|&i| keys[i]).collect();
            let pending = table.submit_get_many(probe_keys);
            (slots, pending)
        }

        let mut out = Vec::with_capacity(unresolved.len());
        let mut rev_tables = tables.iter().rev();
        let mut inflight = match rev_tables.next() {
            Some(table) if !unresolved.is_empty() => {
                Some(submit(table, keys, std::mem::take(&mut unresolved)))
            }
            _ => None,
        };
        while let Some((slots, pending)) = inflight.take() {
            let results = pending.wait(&self.metrics);
            // Cheap classification first, so the next pass's scatter gets
            // submitted before any per-value work.
            let mut hits: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut still: Vec<usize> = Vec::new();
            for (i, result) in slots.into_iter().zip(results) {
                match result {
                    Ok(Some(Some(v))) => hits.push((i, v)),
                    Ok(Some(None)) => {
                        if lookup {
                            self.metrics.record_miss();
                        }
                        out.push((i, Err(StorageError::KeyNotFound)));
                    }
                    Ok(None) => still.push(i),
                    Err(e) => out.push((i, Err(e))),
                }
            }
            inflight = if still.is_empty() {
                None
            } else if let Some(table) = rev_tables.next() {
                Some(submit(table, keys, still))
            } else {
                unresolved = still;
                None
            };
            // This pass's bookkeeping overlaps the next pass's scatter.
            for (i, v) in hits {
                if lookup {
                    self.metrics.record_disk_read(v.len() as u64);
                    self.block_cache.insert(keys[i], v.clone());
                }
                out.push((i, Ok(v)));
            }
        }
        for i in unresolved {
            if lookup {
                self.metrics.record_miss();
            }
            out.push((i, Err(StorageError::KeyNotFound)));
        }
        out
    }

    /// Phase 0 of [`KvStore::multi_rmw`]: the current value of every
    /// distinct batch key the memtable does not hold, from the block cache or
    /// else the grouped table probe ([`LsmStore::probe_batch`]), read with no
    /// memtable shard lock held. A key missing from the map is absent or
    /// tombstoned in the tables. Any probe error other than not-found fails
    /// the batch.
    fn read_cold(&self, inner: &Inner, keys: &[Key]) -> StorageResult<HashMap<Key, Vec<u8>>> {
        let mut cold = keys.to_vec();
        cold.sort_unstable();
        cold.dedup();
        cold.retain(|&key| !inner.memtable.contains(key));
        let mut values = HashMap::with_capacity(cold.len());
        let mut unresolved = Vec::new();
        for (i, &key) in cold.iter().enumerate() {
            match self.block_cache.get(key) {
                Some(v) => {
                    values.insert(key, v);
                }
                None => unresolved.push(i),
            }
        }
        for (i, result) in self.probe_batch(&inner.tables, &cold, unresolved, Probe::Write) {
            match result {
                Ok(v) => {
                    values.insert(cold[i], v);
                }
                Err(e) if e.is_not_found() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(values)
    }

    /// Flush if the shared memtable budget is exceeded. Called after a batch
    /// released its shard locks and the structural read lock: the flush takes
    /// the structural lock exclusively and re-checks the budget under it (a
    /// concurrent batch may have flushed first — then this is a no-op).
    fn maybe_flush(&self) -> StorageResult<()> {
        if self.inner.read().memtable.bytes() < self.memtable_budget {
            return Ok(());
        }
        let mut inner = self.inner.write();
        if inner.memtable.bytes() >= self.memtable_budget {
            self.flush_memtable(&mut inner)?;
        }
        Ok(())
    }

    /// Run `f(shard, positions)` over every locked memtable shard of a batch
    /// ([`ShardedMemTable::lock_batch`]) — one executor job per shard, handed
    /// the batch positions that hash to it — returning the results in shard
    /// order.
    fn run_shard_jobs<'p, S: Send, T: Send>(
        &self,
        shards: impl Iterator<Item = (S, &'p [usize])>,
        total_keys: usize,
        f: impl Fn(S, &[usize]) -> T + Sync,
    ) -> Vec<T> {
        let f = &f;
        let jobs: Vec<_> = shards
            .map(|(shard, positions)| move || f(shard, positions))
            .collect();
        self.executor.execute(jobs, total_keys)
    }

    /// The single mutation tail every write path funnels through: a batch of
    /// already-resolved entries (`Some` = put, `None` = tombstone) in batch
    /// order. Locks the touched memtable shards in ascending index order
    /// (deadlock-free against concurrent batches), appends the whole batch as
    /// **one** grouped WAL record set, applies it to the shards (one executor
    /// job per shard), then pays one
    /// group-commit sync at the acknowledgement point. The append precedes
    /// every memtable mutation, so a failed append leaves the store untouched
    /// and recovery replays the batch all-or-nothing up to the torn tail.
    fn commit_entries(&self, keys: &[Key], entries: &[Entry]) -> StorageResult<()> {
        debug_assert_eq!(keys.len(), entries.len());
        if keys.is_empty() {
            return Ok(());
        }
        {
            let inner = self.inner.read();
            let mut locked = inner.memtable.lock_batch(keys);
            inner.wal.log_entries(
                keys.iter()
                    .copied()
                    .zip(entries.iter().map(|e| e.as_deref())),
            )?;
            let apply = |shard: &mut MemTable, positions: &[usize]| {
                for &i in positions {
                    match &entries[i] {
                        Some(v) => {
                            self.metrics.record_upsert();
                            shard.put(keys[i], v.clone());
                        }
                        None => shard.delete(keys[i]),
                    }
                    self.block_cache.invalidate(keys[i]);
                }
            };
            let shards = locked.iter_mut().map(|(guard, p)| (&mut **guard, &p[..]));
            self.run_shard_jobs(shards, keys.len(), apply);
            // One group-commit sync acknowledges the whole batch, while the
            // shard locks are still held so WAL order matches apply order on
            // every shard two batches share.
            inner.wal.commit()?;
        }
        // The budget check runs only after the acknowledgement (a mid-batch
        // flush would rotate away the WAL covering the batch's entries) and
        // outside the shard locks. The memtable may overshoot by one batch.
        self.maybe_flush()
    }
}

impl KvStore for LsmStore {
    fn name(&self) -> &'static str {
        // Matches `BackendKind::RocksDbLike.name()` and the paper's figure labels.
        "RocksDB"
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        let inner = self.inner.read();
        // 1. Memtable (hot memory).
        if let Some(entry) = inner.memtable.get(key) {
            return match entry {
                Some(v) => {
                    self.metrics.record_mem_hit();
                    Ok(ReadResult {
                        value: v,
                        source: ReadSource::HotMemory,
                    })
                }
                None => {
                    self.metrics.record_miss();
                    Err(StorageError::KeyNotFound)
                }
            };
        }
        // 2. Block cache (cold memory).
        if let Some(v) = self.block_cache.get(key) {
            self.metrics.record_mem_hit();
            return Ok(ReadResult {
                value: v,
                source: ReadSource::ColdMemory,
            });
        }
        // 3. SSTables (disk).
        match self.search_tables(&inner, key)? {
            Some(Some(v)) => {
                self.metrics.record_disk_read(v.len() as u64);
                self.block_cache.insert(key, v.clone());
                Ok(ReadResult {
                    value: v,
                    source: ReadSource::Disk,
                })
            }
            _ => {
                self.metrics.record_miss();
                Err(StorageError::KeyNotFound)
            }
        }
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        // One memtable/SSTable-list lock acquisition covers the whole batch.
        let inner = self.inner.read();
        let mut out: Vec<Option<StorageResult<Vec<u8>>>> = keys.iter().map(|_| None).collect();
        let mut unresolved: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if let Some(entry) = inner.memtable.get(key) {
                out[i] = Some(match entry {
                    Some(v) => {
                        self.metrics.record_mem_hit();
                        Ok(v)
                    }
                    None => {
                        self.metrics.record_miss();
                        Err(StorageError::KeyNotFound)
                    }
                });
            } else if let Some(v) = self.block_cache.get(key) {
                self.metrics.record_mem_hit();
                out[i] = Some(Ok(v));
            } else {
                unresolved.push(i);
            }
        }
        // The memtable/cache pass above stays a single serial sweep under the
        // read lock; only the grouped SSTable probe — where the device reads
        // happen — goes through the executor.
        for (i, result) in self.probe_batch(&inner.tables, keys, unresolved, Probe::Lookup) {
            out[i] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        // Thin wrapper over the batch path: one mutation entry point.
        self.commit_entries(&[key], &[Some(value.to_vec())])
    }

    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        // Thin wrapper over the batch path: one mutation entry point.
        let mut out = self.multi_rmw(&[key], &|_, current| f(current))?;
        Ok(out.pop().expect("single-key batch yields one value"))
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        // One *grouped* WAL append and one group-commit sync for the whole
        // batch, with the structural lock held shared throughout.
        //
        // Phase 0, before any shard lock: every distinct key the memtable
        // does not hold is read from the block cache or else the grouped
        // SSTable probe, the same one `multi_get` uses. A probe error fails
        // the batch here, before anything is logged or applied. The map this
        // builds is still exact when phase 1 consults it, for two reasons:
        // the table list cannot change while `inner` is held shared (flush
        // and compaction take it exclusively), and a key the memtable held
        // at phase 0 is still there at phase 1 (only a flush removes memtable
        // entries). A key that a concurrent writer put into the memtable in
        // between is answered by the memtable, so that writer's value wins.
        // Cached values are exact too: `flush_memtable` invalidates every
        // key it drains, so no cached value outlives the memtable entry that
        // shadowed it. These reads are not lookups (see [`Probe::Write`]):
        // `lookups` / `mem_hits` / `misses` count user reads only.
        //
        // Phase 1 locks the batch's memtable shards in ascending order and
        // holds them across resolve, append, apply and ack, so concurrent
        // batches serialise only where they overlap. Values are resolved
        // against shard-local overlays (duplicate keys hash to one shard, so
        // each overlay observes every earlier occurrence of its keys), then
        // the shard memtable, then the phase-0 map — no device read under a
        // shard lock. Neither the log nor the memtable is touched until
        // every value is computed: a failed append leaves the store exactly
        // as it was, and a crash recovers the batch all-or-nothing. The
        // serving layer's idempotency markers ride in the same batch as the
        // gradients they cover, so this atomicity is what makes a marker
        // durable if and only if its batch is.
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = vec![Vec::new(); keys.len()];
        {
            let inner = self.inner.read();
            let cold = self.read_cold(&inner, keys)?;
            let mut locked = inner.memtable.lock_batch(keys);
            // Phase 1 (stage, one executor job per shard). No mutation yet.
            let resolve = |shard: &MemTable, positions: &[usize]| {
                let mut overlay: HashMap<Key, Vec<u8>> = HashMap::new();
                let mut staged = Vec::with_capacity(positions.len());
                for &i in positions {
                    let key = keys[i];
                    self.metrics.record_rmw();
                    let current: Option<Vec<u8>> = match overlay.get(&key) {
                        Some(v) => Some(v.clone()),
                        None => match shard.get(key) {
                            Some(entry) => entry.clone(),
                            None => cold.get(&key).cloned(),
                        },
                    };
                    let new_value = f(i, current.as_deref());
                    overlay.insert(key, new_value.clone());
                    staged.push((i, new_value));
                }
                staged
            };
            let shards = locked.iter().map(|(guard, p)| (&**guard, &p[..]));
            for staged in self.run_shard_jobs(shards, keys.len(), resolve) {
                for (i, value) in staged {
                    out[i] = value;
                }
            }
            // Phase 2 (single committer): one grouped append, apply to the
            // shards, one group-commit ack — all while the shard locks are
            // still held, so WAL order matches apply order on shared shards.
            inner
                .wal
                .log_puts(keys.iter().copied().zip(out.iter().map(|v| v.as_slice())))?;
            let apply = |shard: &mut MemTable, positions: &[usize]| {
                for &i in positions {
                    shard.put(keys[i], out[i].clone());
                    self.block_cache.invalidate(keys[i]);
                }
            };
            let shards = locked.iter_mut().map(|(guard, p)| (&mut **guard, &p[..]));
            self.run_shard_jobs(shards, keys.len(), apply);
            inner.wal.commit()?;
        }
        // Budget check after the ack (a mid-batch flush would rotate away the
        // WAL covering the batch) and outside the shard locks.
        self.maybe_flush()?;
        Ok(out)
    }

    fn delete(&self, key: Key) -> StorageResult<()> {
        // Thin wrapper over the batch path: one mutation entry point.
        self.commit_entries(&[key], &[None])
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        let inner = self.inner.read();
        if let Some(entry) = inner.memtable.get(key) {
            return Ok(entry.is_some());
        }
        if self.block_cache.contains(key) {
            return Ok(true);
        }
        // Bloom-filter fast path: tables whose filter rejects the key are
        // skipped without any device read; an admitted key costs one 13-byte
        // header read in the newest table that holds it.
        for table in inner.tables.iter().rev() {
            if let Some(live) = table.contains(key, &self.metrics)? {
                return Ok(live);
            }
        }
        Ok(false)
    }

    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        // Thin wrapper over the batch path: one grouped WAL append, sharded
        // apply, one group-commit sync (see `commit_entries`).
        let keys: Vec<Key> = batch.iter().map(|(k, _)| *k).collect();
        let entries: Vec<Entry> = batch.iter().map(|(_, v)| Some(v.clone())).collect();
        self.commit_entries(&keys, &entries)
    }

    fn approximate_len(&self) -> usize {
        let inner = self.inner.read();
        // Approximate: overcounts keys that exist in several runs.
        inner.memtable.len() + inner.tables.iter().map(|t| t.len()).sum::<usize>()
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        Arc::clone(&self.metrics)
    }

    fn flush(&self) -> StorageResult<()> {
        let mut inner = self.inner.write();
        self.flush_memtable(&mut inner)
    }

    fn replication_tap(&self) -> Option<Arc<mlkv_storage::wal::WalTap>> {
        self.config.wal_tap.clone()
    }

    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        // Merge every SSTable oldest→newest, then overlay the memtable — the
        // same newest-wins resolution reads use — and drop tombstones: the
        // result is the full live state a catching-up replica should install.
        let inner = self.inner.read();
        let mut merged: std::collections::BTreeMap<u64, Entry> = std::collections::BTreeMap::new();
        for table in &inner.tables {
            for (key, entry) in table.scan_all(&self.metrics)? {
                merged.insert(key, entry);
            }
        }
        for (key, entry) in inner.memtable.snapshot_sorted() {
            merged.insert(key, entry);
        }
        self.metrics.record_repl_snapshot();
        Ok(merged
            .into_iter()
            .filter_map(|(k, e)| e.map(|v| (k, v)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = LsmStore::in_memory(1 << 20).unwrap();
        store.put(1, b"one").unwrap();
        assert_eq!(store.get(1).unwrap(), b"one");
        assert!(store.get(2).unwrap_err().is_not_found());
        assert_eq!(store.name(), "RocksDB");
    }

    #[test]
    fn multi_get_reads_through_all_levels() {
        let store = LsmStore::in_memory(32 << 10).unwrap();
        for k in 0..500u64 {
            store.put(k, &[k as u8; 32]).unwrap();
        }
        store.flush().unwrap(); // everything now lives in SSTables
        store.put(3, b"fresh").unwrap(); // memtable entry
        store.delete(4).unwrap(); // memtable tombstone
        let _ = store.get(10); // block-cache entry
        let keys = vec![3, 4, 10, 100, 9_999, 10];
        let batch = store.multi_get(&keys);
        assert_eq!(batch[0].as_deref().unwrap(), b"fresh");
        assert!(batch[1].as_ref().unwrap_err().is_not_found());
        assert_eq!(batch[2].as_deref().unwrap(), &[10u8; 32]);
        assert_eq!(batch[3].as_deref().unwrap(), &[100u8; 32]);
        assert!(batch[4].as_ref().unwrap_err().is_not_found());
        assert_eq!(batch[5].as_deref().unwrap(), &[10u8; 32]);
    }

    fn counter(n: u64) -> Vec<u8> {
        let mut v = vec![0u8; 32];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    }

    fn count_of(v: &[u8]) -> u64 {
        u64::from_le_bytes(v[..8].try_into().unwrap())
    }

    #[test]
    fn multi_rmw_sees_duplicate_writes_and_flushes_under_pressure() {
        // 32 KiB memtable, 32 KiB block cache. Populating 1000 counters
        // overflows the memtable once; the explicit flush drains the rest,
        // so every key starts in an SSTable with the memtable empty.
        let store = LsmStore::in_memory(64 << 10).unwrap();
        for k in 0..1000u64 {
            store.put(k, &counter(1)).unwrap();
        }
        store.flush().unwrap();
        let tables = store.table_count();
        assert!(
            tables >= 2,
            "populating must flush under pressure: {tables}"
        );
        // Warm the lower half into the block cache; the upper half stays cold.
        let warm: Vec<u64> = (0..500).collect();
        assert!(store.multi_get(&warm).iter().all(|r| r.is_ok()));
        assert!(store.inner.read().memtable.is_empty());
        for k in 0..1000u64 {
            assert_eq!(store.block_cache.contains(k), k < 500, "key {k}");
        }
        // 3000 ops over 1000 keys: each key's first occurrence resolves from
        // the block cache (lower half) or the SSTables (upper half), the
        // later two from the batch's own overlay. The batch overflows the
        // memtable, so it flushes after its ack.
        let keys: Vec<u64> = (0..3000).map(|i| i % 1000).collect();
        let out = store
            .multi_rmw(&keys, &|_, cur| counter(cur.map_or(0, count_of) + 1))
            .unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(count_of(v), 2 + i as u64 / 1000, "op {i}");
        }
        assert!(
            store.table_count() > tables,
            "the batch flushes after its ack"
        );
        for k in 0..1000u64 {
            assert_eq!(count_of(&store.get(k).unwrap()), 4, "key {k}");
        }
    }

    #[test]
    fn flush_invalidates_the_cache_entries_it_drains() {
        let store = LsmStore::in_memory(32 << 10).unwrap();
        store.put(1, b"old").unwrap();
        store.flush().unwrap();
        store.put(1, b"new").unwrap();
        // What a reader racing that put leaves behind: it missed the
        // memtable before the put landed and cached the SSTable value after
        // the put invalidated the key. The memtable shadows it for now.
        store.block_cache.insert(1, b"old".to_vec());
        assert_eq!(store.get(1).unwrap(), b"new");
        store.flush().unwrap();
        assert_eq!(
            store.get(1).unwrap(),
            b"new",
            "stale block-cache entry outlived the flush"
        );
        let seen = store.rmw(1, &|cur| [cur.unwrap(), b"+"].concat()).unwrap();
        assert_eq!(seen, b"new+", "a writer must not read the stale entry");
    }

    #[test]
    fn parallel_sstable_probes_match_serial_results() {
        let open = |parallelism| {
            LsmStore::open(
                StoreConfig::in_memory()
                    .with_memory_budget(32 << 10)
                    .with_parallelism(parallelism),
            )
            .unwrap()
        };
        let serial = open(1);
        let parallel = open(8);
        for store in [&serial, &parallel] {
            for k in 0..2000u64 {
                store.put(k, &[(k % 251) as u8; 32]).unwrap();
            }
            store.flush().unwrap(); // everything lives in SSTables
        }
        // Large enough to fan out, with duplicates and misses mixed in.
        let n = 2 * mlkv_storage::exec::MIN_KEYS_PER_WORKER as u64;
        let keys: Vec<u64> = (0..n).map(|i| (i * 3) % 2100).collect();
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
    fn exists_uses_bloom_filters_without_reading_values() {
        let store = LsmStore::in_memory(32 << 10).unwrap();
        for k in 0..200u64 {
            store.put(k, &[7u8; 64]).unwrap();
        }
        store.flush().unwrap();
        store.delete(5).unwrap();
        assert!(store.exists(100).unwrap());
        assert!(!store.exists(5).unwrap(), "memtable tombstone");
        assert!(!store.exists(1 << 40).unwrap());
        // Foreground read metrics are untouched by exists.
        let snap = store.metrics().snapshot();
        let (hits, misses) = (snap.mem_hits, snap.misses);
        store.exists(100).unwrap();
        store.exists(1 << 40).unwrap();
        let snap = store.metrics().snapshot();
        assert_eq!((snap.mem_hits, snap.misses), (hits, misses));
    }

    #[test]
    fn write_batch_groups_wal_appends() {
        let store = LsmStore::in_memory(64 << 10).unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..100u64 {
            batch.put(k, vec![k as u8; 16]);
        }
        store.write_batch(&batch).unwrap();
        for k in 0..100u64 {
            assert_eq!(store.get(k).unwrap(), vec![k as u8; 16]);
        }
    }

    #[test]
    fn overwrites_and_deletes_across_flushes() {
        let store = LsmStore::in_memory(64 << 10).unwrap();
        for k in 0..2000u64 {
            store.put(k, &[k as u8; 32]).unwrap();
        }
        assert!(store.table_count() > 0, "memtable should have flushed");
        store.put(7, b"new-seven").unwrap();
        store.delete(8).unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(7).unwrap(), b"new-seven");
        assert!(store.get(8).unwrap_err().is_not_found());
        assert_eq!(store.get(1999).unwrap(), vec![1999u64 as u8; 32]);
    }

    #[test]
    fn reads_after_flush_come_from_disk_then_cache() {
        let store = LsmStore::in_memory(32 << 10).unwrap();
        for k in 0..500u64 {
            store.put(k, &[k as u8; 64]).unwrap();
        }
        store.flush().unwrap();
        let r1 = store.get_traced(3).unwrap();
        assert_eq!(r1.source, ReadSource::Disk);
        let r2 = store.get_traced(3).unwrap();
        assert_eq!(r2.source, ReadSource::ColdMemory);
        assert_eq!(r1.value, r2.value);
    }

    #[test]
    fn cache_is_invalidated_by_writes() {
        let store = LsmStore::in_memory(32 << 10).unwrap();
        store.put(1, b"a").unwrap();
        store.flush().unwrap();
        let _ = store.get(1).unwrap(); // populate cache
        store.put(1, b"b").unwrap();
        assert_eq!(store.get(1).unwrap(), b"b");
    }

    #[test]
    fn compaction_bounds_table_count() {
        let store = LsmStore::in_memory(16 << 10).unwrap();
        for k in 0..20_000u64 {
            store.put(k % 1000, &[(k % 251) as u8; 40]).unwrap();
        }
        assert!(
            store.table_count() <= COMPACTION_THRESHOLD + 1,
            "tables: {}",
            store.table_count()
        );
        // Data is still correct after compactions.
        for k in 0..1000u64 {
            assert!(store.get(k).is_ok(), "key {k} lost");
        }
    }

    #[test]
    fn rmw_reads_through_all_levels() {
        let store = LsmStore::in_memory(16 << 10).unwrap();
        store.put(42, &1u64.to_le_bytes()).unwrap();
        store.flush().unwrap();
        let out = store
            .rmw(42, &|old| {
                let cur = old
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                (cur + 5).to_le_bytes().to_vec()
            })
            .unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 6);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-lsm-reopen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig::on_disk(&dir).with_memory_budget(32 << 10);
        {
            let store = LsmStore::open(cfg.clone()).unwrap();
            for k in 0..800u64 {
                store.put(k, &k.to_le_bytes()).unwrap();
            }
            store.delete(5).unwrap();
            // Note: no explicit flush — the WAL must cover the memtable tail.
        }
        let store = LsmStore::open(cfg).unwrap();
        assert_eq!(store.get(799).unwrap(), 799u64.to_le_bytes());
        assert_eq!(store.get(0).unwrap(), 0u64.to_le_bytes());
        assert!(store.get(5).unwrap_err().is_not_found());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replication_snapshot_merges_all_levels() {
        let tap = Arc::new(mlkv_storage::wal::WalTap::new(64));
        let store = LsmStore::open(
            StoreConfig::in_memory()
                .with_memory_budget(32 << 10)
                .with_wal_tap(Arc::clone(&tap)),
        )
        .unwrap();
        assert!(
            store
                .replication_tap()
                .is_some_and(|t| Arc::ptr_eq(&t, &tap)),
            "store exposes the configured tap"
        );
        store.put(1, b"sst-old").unwrap();
        store.put(2, b"sst").unwrap();
        store.put(3, b"doomed").unwrap();
        store.flush().unwrap(); // all three now live in an SSTable
        store.put(1, b"mem-new").unwrap(); // memtable overrides the SSTable
        store.delete(3).unwrap(); // memtable tombstone hides the SSTable
        store.put(4, b"mem").unwrap();
        let snap = store.replication_snapshot().unwrap();
        assert_eq!(
            snap,
            vec![
                (1, b"mem-new".to_vec()),
                (2, b"sst".to_vec()),
                (4, b"mem".to_vec()),
            ]
        );
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let store = Arc::new(LsmStore::in_memory(64 << 10).unwrap());
        for k in 0..100u64 {
            store.put(k, &k.to_le_bytes()).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let key = 1000 + t * 1000 + i;
                    store.put(key, &key.to_le_bytes()).unwrap();
                    assert_eq!(store.get(key).unwrap(), key.to_le_bytes());
                    assert_eq!(store.get(i % 100).unwrap(), (i % 100).to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
