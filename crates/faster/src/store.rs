//! The `FasterKv` store: hash index + hybrid log + epoch protection, exposing the
//! [`KvStore`] interface used by the MLKV layer and the benchmark harness.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mlkv_storage::device::device_from_config;
use mlkv_storage::exec::{split_sorted, BatchExecutor};
use mlkv_storage::kv::{BatchReadFn, BatchRmwFn, Key, KvStore, ReadResult, ReadSource};
use mlkv_storage::wal::GenerationalWal;
use mlkv_storage::{
    DurabilityMode, ReadTally, StorageError, StorageMetrics, StorageResult, StoreConfig,
};

use crate::address::Address;
use crate::checkpoint;
use crate::epoch::EpochManager;
use crate::hash_index::HashIndex;
use crate::hlog::HybridLog;
use crate::record::{Record, RecordRef};

/// File-name prefix of the delta WAL's generations (`faster_wal_{gen}.dat`).
const WAL_PREFIX: &str = "faster_wal_";

/// A key's newest record, as the resolver found it — possibly a tombstone,
/// so a deleted key can be told from one never written (`None`).
struct Found<V> {
    addr: Address,
    /// What the resolver's `take` made of the live value; `None` for a
    /// tombstone.
    value: Option<V>,
}

impl<V> Found<V> {
    fn is_live(&self) -> bool {
        self.value.is_some()
    }
}

/// One distinct key of a range resolved by [`FasterKv::resolve_sorted_range`].
struct Resolution<V> {
    key: Key,
    /// The key's occurrences, as a span of the range's `order` slice.
    span: Range<usize>,
    /// The chain head the walk started from (what a promotion CASes against).
    head: Address,
    outcome: StorageResult<Option<Found<V>>>,
}

impl<V> Resolution<V> {
    /// Take one record of the key's chain: either it is the key's newest
    /// version and the walk ends (the invalid address, as at a chain's end),
    /// or the walk hops to its `prev`. A newest version that is live is handed
    /// to `take` while its bytes are still borrowed.
    fn visit(
        &mut self,
        addr: Address,
        record: RecordRef<'_>,
        source: ReadSource,
        take: &mut impl FnMut(&Range<usize>, &[u8], ReadSource) -> V,
    ) -> Address {
        if !(record.flags.is_valid() && record.key == self.key) {
            return record.prev;
        }
        let value = (!record.flags.is_tombstone()).then(|| take(&self.span, record.value, source));
        self.outcome = Ok(Some(Found { addr, value }));
        Address::INVALID
    }
}

/// A writer's view of a [`Resolution`] whose reads succeeded: the key, the
/// span of its occurrences, and its newest record if it has one.
type Resolved<V> = (Key, Range<usize>, Option<Found<V>>);

/// One key's entry in a range's write pass: the newest record the resolver
/// found for it (`over`), whether that record was live, and where the pass
/// finds the key's final state (`last`, the batch position of its last
/// occurrence).
struct KeyWrite {
    key: Key,
    over: Option<Address>,
    was_live: bool,
    last: usize,
}

/// A planned `multi_rmw` range: its write pass, and every occurrence's
/// `(batch position, value)`.
type RmwPlan = (Vec<KeyWrite>, Vec<(usize, Vec<u8>)>);

/// A FASTER-like key-value store.
pub struct FasterKv {
    index: HashIndex,
    log: HybridLog,
    epoch: Arc<EpochManager>,
    metrics: Arc<StorageMetrics>,
    live_records: AtomicU64,
    config: StoreConfig,
    /// Worker pool for both halves of the batch API. The hash index CAS and
    /// the hybrid log's atomic tail already make concurrent appends safe; the
    /// executor only decides how wide a single batch fans out.
    executor: BatchExecutor,
    /// The delta log past the last checkpoint, rotated by every checkpoint.
    /// It logs only in a durable store with a directory: under
    /// [`DurabilityMode::None`] checkpoints are the only durability.
    pub(crate) wal: GenerationalWal,
    /// Writers hold the read half for the duration of each mutation;
    /// [`FasterKv::checkpoint`] takes the write half (non-blocking) so a
    /// checkpoint can never interleave with an in-flight writer.
    writer_gate: RwLock<()>,
}

impl FasterKv {
    /// Open (or create) a store described by `config`. If the configured
    /// directory contains a checkpoint manifest, the store recovers from it,
    /// with a hash index of the size the checkpoint recorded rather than
    /// `config.index_buckets`: the log's record chains were linked against
    /// that index (see [`crate::hash_index`]).
    pub fn open(config: StoreConfig) -> StorageResult<Self> {
        let manifest = match &config.dir {
            Some(dir) if checkpoint::manifest_exists(dir) => Some(checkpoint::read_manifest(dir)?),
            _ => None,
        };
        let index_entries = manifest.map_or(config.index_buckets, |m| m.index_entries as usize);
        let metrics = Arc::new(StorageMetrics::new());
        let wal = GenerationalWal::open(&config, WAL_PREFIX, Arc::clone(&metrics));
        let device = device_from_config(&config, "hlog.dat")?;
        // Under per-record group commit the hybrid log syncs its data pages
        // eagerly; every other mode hardens acknowledged writes through the
        // WAL and syncs data pages at checkpoint time instead.
        let eager_page_sync =
            matches!(config.durability, DurabilityMode::GroupCommit { window: 1 });
        let log = HybridLog::new(
            device,
            config.memory_budget,
            config.page_size,
            eager_page_sync,
            mlkv_storage::IoPlanner::from_config(&config).with_metrics(Arc::clone(&metrics)),
            Arc::clone(&metrics),
        )?;
        let mut store = Self {
            index: HashIndex::new(index_entries),
            log,
            epoch: Arc::new(EpochManager::new()),
            metrics,
            live_records: AtomicU64::new(0),
            executor: BatchExecutor::new(config.parallelism),
            config,
            wal,
            writer_gate: RwLock::new(()),
        };
        if let Some(manifest) = manifest {
            store.recover(&manifest)?;
        }
        // Replay the WAL generations past the checkpoint through the batch
        // path, one batch per generation; the log has not started, so the
        // replay logs nothing.
        store.wal.replay_ops(|ops| {
            let keys: Vec<Key> = ops.iter().map(|(key, _)| *key).collect();
            let entries: Vec<Option<&[u8]>> = ops.iter().map(|(_, v)| v.as_deref()).collect();
            store.commit_entries(&keys, &entries)
        })?;
        if store.config.dir.is_some() && store.config.durability != DurabilityMode::None {
            store.wal.start()?;
        }
        Ok(store)
    }

    /// Convenience: an in-memory store with the given buffer budget (tests).
    pub fn in_memory(memory_budget: usize) -> StorageResult<Self> {
        Self::open(
            StoreConfig::in_memory()
                .with_memory_budget(memory_budget)
                .with_page_size(4096)
                .with_index_buckets(1 << 12),
        )
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The underlying hybrid log (used by tests and the checkpointing module).
    pub fn log(&self) -> &HybridLog {
        &self.log
    }

    /// The hash index (used by the checkpointing module, and by tests to
    /// check how keys share it).
    pub fn index(&self) -> &HashIndex {
        &self.index
    }

    /// The epoch manager protecting this store.
    pub fn epoch(&self) -> &Arc<EpochManager> {
        &self.epoch
    }

    /// Append `record` and install it as its chain's head only if the head is
    /// still the one it links to (`record.prev`). A record whose CAS lost is
    /// invalidated in place. A *promotion copy* stops there: unlike
    /// `append_and_install` it must never retry with its (now possibly stale)
    /// value over a concurrent writer's update; it is only a placement hint.
    fn try_install(&self, record: Record) -> StorageResult<bool> {
        let addr = self.log.append(&record.encode())?;
        let installed = self
            .index
            .compare_exchange(record.key, record.prev, addr)
            .is_ok();
        if !installed {
            let _ = self.log.invalidate_record(addr);
        }
        Ok(installed)
    }

    /// Append a record for `key` and install it as the new chain head, retrying
    /// against the new head on CAS races.
    fn append_and_install(&self, key: Key, value: &[u8], tombstone: bool) -> StorageResult<()> {
        loop {
            let head = self.index.head(key);
            let record = match tombstone {
                true => Record::tombstone(key, head),
                false => Record::new(key, value.to_vec(), head),
            };
            if self.try_install(record)? {
                return Ok(());
            }
        }
    }

    /// Store `value` as `key`'s newest version: overwritten in place when the
    /// record the resolver found (`over`) is a same-length value still in the
    /// mutable region (always true for hot fixed-dim embeddings;
    /// [`HybridLog::try_update_in_place`] checks), appended otherwise — an
    /// update append (`StorageMetrics::update_appends`) when `over` was live.
    fn write_value(
        &self,
        key: Key,
        value: &[u8],
        over: Option<Address>,
        was_live: bool,
    ) -> StorageResult<()> {
        match over {
            Some(addr) if self.log.try_update_in_place(addr, value)? => Ok(()),
            _ => {
                if was_live {
                    self.metrics.record_update_append();
                }
                self.append_and_install(key, value, false)
            }
        }
    }

    /// The store's one cold path: walk the hash chain of every distinct key of
    /// a contiguous range of the key-sorted batch `order` (equal keys
    /// adjacent) to the key's newest record. Every read, write, delete and
    /// promotion resolves through here. The caller must hold epoch protection.
    ///
    /// A live newest record is handed to `take(span, value, source)` — `span`
    /// being the key's occurrences in `order` — while its bytes are borrowed:
    /// a record in memory under its page frame's read lock, so no in-place
    /// update is seen half-written, and a record read from the device in the
    /// scatter's buffer. What `take` returns is the resolution's value, so a
    /// reader that consumes the bytes in place allocates nothing per key.
    ///
    /// Chain hops that leave the in-memory window are not read one record at a
    /// time: the walk is breadth-first over chain depth, and each round
    /// collects every distinct key's pending device address and fetches them
    /// with **one** coalesced scatter
    /// ([`HybridLog::submit_records_from_disk`]), so a cold range pays device
    /// submissions per chain depth, not per record. A round's scatter is
    /// *submitted* before the memory phase runs and before the previous
    /// round's is harvested, so the device resolves one cohort's hops while
    /// this worker walks memory-resident chains and decodes the other's.
    fn resolve_sorted_range<V>(
        &self,
        keys: &[Key],
        order: &[usize],
        mut take: impl FnMut(&Range<usize>, &[u8], ReadSource) -> V,
    ) -> Vec<Resolution<V>> {
        let mut out: Vec<Resolution<V>> = Vec::new();
        // Request every key's bucket before the first head lookup, so the
        // lookups' misses overlap instead of queueing behind each other.
        for &i in order {
            self.index.prefetch(keys[i]);
        }
        let mut start = 0;
        for occurrences in order.chunk_by(|&a, &b| keys[a] == keys[b]) {
            let key = keys[occurrences[0]];
            out.push(Resolution {
                key,
                span: start..start + occurrences.len(),
                head: self.index.head(key),
                // What a cursor that runs off its chain's end leaves behind.
                outcome: Ok(None),
            });
            start += occurrences.len();
        }

        let mut pending: Vec<(usize, Address)> =
            out.iter().enumerate().map(|(d, r)| (d, r.head)).collect();
        let mut inflight: Option<(Vec<(usize, Address)>, crate::hlog::PendingRecords<'_>)> = None;
        // Cursors whose frame lookup already missed: they go to the device
        // unconditionally next round. Classifying them by `head` again would
        // lose the progress guarantee — during an eviction the frame is
        // repointed before `head` advances, so a head-based re-check could
        // bounce such an address back to the memory walk indefinitely
        // (a device read is always safe: frames are flushed before reuse).
        let mut evicted: Vec<(usize, Address)> = Vec::new();
        while !pending.is_empty() || !evicted.is_empty() || inflight.is_some() {
            // Classify this round's cursors: ended walks drop out, addresses
            // already below the in-memory head go to the device now, the rest
            // walk memory while that scatter is in flight.
            let head = self.log.head();
            let mut disk = std::mem::take(&mut evicted);
            let mut mem: Vec<(usize, Address)> = Vec::new();
            for (d, addr) in pending.drain(..) {
                if addr.is_invalid() {
                    continue;
                }
                if addr.raw() < head.raw() {
                    disk.push((d, addr));
                } else {
                    mem.push((d, addr));
                }
            }
            // Submit the device round first: on a device that completes it
            // later, its merged reads overlap this worker's memory phase.
            let submitted = (!disk.is_empty()).then(|| {
                let addrs = disk.iter().map(|&(_, addr)| addr).collect();
                (disk, self.log.submit_records_from_disk(addrs))
            });
            // Memory phase: follow each resident chain until it resolves or
            // leaves the in-memory window (then it joins the next round's
            // scatter). Every cursor's frame lock and record are requested
            // first: each visit ends in the frame lock's atomics, which would
            // otherwise hold the next cursor's loads back.
            for &(_, addr) in &mem {
                self.log.prefetch_record(addr);
            }
            for (d, mut addr) in mem {
                while !addr.is_invalid() {
                    let step = self.log.with_record_memory(addr, |record, source| {
                        out[d].visit(addr, record, source, &mut take)
                    });
                    addr = match step {
                        Ok(Some(next)) => next,
                        Ok(None) => {
                            evicted.push((d, addr));
                            break;
                        }
                        Err(e) => {
                            out[d].outcome = Err(e);
                            break;
                        }
                    };
                }
            }
            // Harvest the previous round's scatter with this round's already in
            // flight, so decoding one cohort of cursors overlaps the other's
            // device time; hops re-enter `pending` for the next round.
            if let Some((cursors, scatter)) = inflight.take() {
                for ((d, addr), record) in cursors.into_iter().zip(scatter.wait()) {
                    match record {
                        Ok(record) => pending.push((
                            d,
                            out[d].visit(addr, record.view(), ReadSource::Disk, &mut take),
                        )),
                        Err(e) => out[d].outcome = Err(e),
                    }
                }
            }
            inflight = submitted;
        }
        out
    }

    /// [`FasterKv::resolve_sorted_range`] for a writer: the first read fault
    /// fails the whole range *before* any of its keys is modified.
    fn resolve_for_write<V>(
        &self,
        keys: &[Key],
        order: &[usize],
        take: impl FnMut(&Range<usize>, &[u8], ReadSource) -> V,
    ) -> StorageResult<Vec<Resolved<V>>> {
        self.resolve_sorted_range(keys, order, take)
            .into_iter()
            .map(|r| Ok((r.key, r.span, r.outcome?)))
            .collect()
    }

    /// One-key batch through the resolver.
    fn resolve_key<V>(
        &self,
        key: Key,
        take: impl FnMut(&Range<usize>, &[u8], ReadSource) -> V,
    ) -> StorageResult<Option<Found<V>>> {
        let mut resolved = self.resolve_sorted_range(&[key], &[0], take);
        resolved.pop().expect("one key, one resolution").outcome
    }

    /// Read a contiguous range of the key-sorted batch order: resolve each
    /// distinct key once and call `visit(position, value)` for each of its
    /// occurrences — `None` for an absent or deleted key, and a key in memory
    /// visited in place (see [`FasterKv::resolve_sorted_range`]). Returns the
    /// `(position, error)` of every occurrence of a key whose read failed;
    /// those are not visited. The range's read metrics are added once. The
    /// caller must hold epoch protection.
    fn read_sorted_range(
        &self,
        keys: &[Key],
        order: &[usize],
        mut visit: impl FnMut(usize, Option<&[u8]>),
    ) -> Vec<(usize, StorageError)> {
        let mut tally = ReadTally::default();
        let resolutions = self.resolve_sorted_range(keys, order, |span, value, source| {
            tally.hit(source, value.len());
            for &slot in &order[span.clone()] {
                visit(slot, Some(value));
            }
        });
        let mut errors = Vec::new();
        for resolution in resolutions {
            let slots = &order[resolution.span];
            match resolution.outcome {
                Ok(Some(found)) if found.is_live() => {}
                Ok(_) => {
                    tally.miss();
                    for &slot in slots {
                        visit(slot, None);
                    }
                }
                Err(e) => {
                    let (&last, duplicates) =
                        slots.split_last().expect("a key occurs at least once");
                    errors.extend(duplicates.iter().map(|&slot| (slot, e.clone_shallow())));
                    errors.push((last, e));
                }
            }
        }
        self.metrics.record_reads(&tally);
        errors
    }

    /// Plan a contiguous range of a key-sorted `multi_rmw` order: resolve,
    /// then fold `f` over each key's occurrences in order (each sees the
    /// previous one's result). Returns the range's write pass and every
    /// occurrence's `(position, value)`; nothing is written. The caller must
    /// hold epoch protection.
    fn plan_rmw(&self, keys: &[Key], order: &[usize], f: &BatchRmwFn) -> StorageResult<RmwPlan> {
        let mut out: Vec<(usize, Vec<u8>)> = Vec::with_capacity(order.len());
        let resolved = self.resolve_for_write(keys, order, |_, value, _| value.to_vec())?;
        self.metrics.record_rmws(order.len() as u64);
        let mut writes = Vec::with_capacity(resolved.len());
        for (key, span, found) in resolved {
            let over = found.as_ref().map(|f| f.addr);
            let initial = found.and_then(|f| f.value);
            let first = out.len();
            for &i in &order[span] {
                let current = match out.len() > first {
                    true => out.last().map(|(_, v)| v.as_slice()),
                    false => initial.as_deref(),
                };
                let new_value = f(i, current);
                out.push((i, new_value));
            }
            writes.push(KeyWrite {
                key,
                over,
                was_live: initial.is_some(),
                last: out.last().expect("a key occurs at least once").0,
            });
        }
        Ok((writes, out))
    }

    /// Plan a contiguous range of a key-sorted put/delete batch: resolve
    /// each key, whose last occurrence decides its final state — what
    /// applying the occurrences in order would leave. The caller must hold
    /// epoch protection.
    fn plan_entries(
        &self,
        keys: &[Key],
        order: &[usize],
        entries: &[Option<&[u8]>],
    ) -> StorageResult<Vec<KeyWrite>> {
        let resolved = self.resolve_for_write(keys, order, |_, _, _| ())?;
        let upserts = order.iter().filter(|&&i| entries[i].is_some()).count();
        self.metrics.record_upserts(upserts as u64);
        Ok(resolved
            .into_iter()
            .map(|(key, span, found)| KeyWrite {
                key,
                over: found.as_ref().map(|f| f.addr),
                was_live: found.is_some_and(|f| f.is_live()),
                last: *order[span].last().expect("a key occurs at least once"),
            })
            .collect())
    }

    /// The write pass of a range, the one way the store writes one: each key
    /// in key order takes its final state, `value_at(last)`, over the record
    /// it resolved to — a value through [`FasterKv::write_value`], a delete
    /// (`None`) of a live key as a tombstone, a delete of an absent one not at
    /// all — and `live_records` follows each write that lands. Every resolved
    /// record is requested first, so the in-place writes' misses overlap:
    /// each write ends in its frame lock's atomics, which would otherwise hold
    /// the next key's loads back. The first failing write ends the pass, with
    /// the keys before it written.
    fn write_range<'v>(
        &self,
        writes: &[KeyWrite],
        value_at: impl Fn(usize) -> Option<&'v [u8]>,
    ) -> StorageResult<()> {
        for write in writes {
            if let Some(addr) = write.over {
                self.log.prefetch_record(addr);
            }
        }
        for write in writes {
            // `live_records` moves only once the write has landed, so a
            // failed write leaves it counting what is stored.
            match (write.was_live, value_at(write.last)) {
                (was_live, Some(value)) => {
                    self.write_value(write.key, value, write.over, was_live)?;
                    if !was_live {
                        // Key absent or deleted: this write brought it
                        // (back) to life.
                        self.live_records.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (true, None) => {
                    self.append_and_install(write.key, &[], true)?;
                    self.live_records.fetch_sub(1, Ordering::Relaxed);
                }
                (false, None) => {}
            }
        }
        Ok(())
    }

    /// Stable-sort a batch by key — duplicate keys end up adjacent, in
    /// occurrence order — split that order into contiguous whole-key ranges (a
    /// single range for a batch the executor runs inline) and run `f` over
    /// each range ([`FasterKv::run_guarded`]), returning the results in range
    /// order.
    fn run_sorted_ranges<T: Send>(&self, keys: &[Key], f: impl Fn(&[usize]) -> T + Sync) -> Vec<T> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let workers = self.executor.planned_workers(order.len());
        self.run_guarded(split_sorted(&order, keys, workers), order.len(), f)
    }

    /// Run `f` over each of `ranges` through the executor, each under its
    /// own epoch guard, returning the results in range order.
    fn run_guarded<R: Send, T: Send>(
        &self,
        ranges: impl IntoIterator<Item = R>,
        total_keys: usize,
        f: impl Fn(R) -> T + Sync,
    ) -> Vec<T> {
        let f = &f;
        let jobs: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                move || {
                    let _guard = self.epoch.acquire();
                    f(range)
                }
            })
            .collect();
        self.executor.execute(jobs, total_keys)
    }

    /// Put or delete a batch of entries (`None` deletes): plan every range
    /// ([`FasterKv::plan_entries`]), then the shared tail. `write_batch`
    /// (and through it every per-key `put` and `delete`) and the WAL replay
    /// on open are thin wrappers over this. A range whose resolve fails
    /// fails the batch with nothing logged or written.
    fn commit_entries(&self, keys: &[Key], entries: &[Option<&[u8]>]) -> StorageResult<()> {
        debug_assert_eq!(keys.len(), entries.len());
        if keys.is_empty() {
            return Ok(());
        }
        let _writers = self.writer_gate.read();
        let writes = self
            .run_sorted_ranges(keys, |range| self.plan_entries(keys, range, entries))
            .into_iter()
            .collect::<StorageResult<Vec<_>>>()?;
        self.log_and_write(keys, &writes, |i| entries[i])
    }

    /// The single mutation tail, once every range of a batch is planned:
    /// append the batch's WAL group (`keys[i]` with its value `value_at(i)`,
    /// in batch order) as one device append, run every range's write pass
    /// ([`FasterKv::write_range`]), then commit as the acknowledgement point.
    /// Nothing is written before it is logged, so a failed append leaves the
    /// store untouched. Every range's pass runs even when another's fails;
    /// the first error in range order is returned, uncommitted.
    fn log_and_write<'v>(
        &self,
        keys: &[Key],
        writes: &[Vec<KeyWrite>],
        value_at: impl Fn(usize) -> Option<&'v [u8]> + Sync,
    ) -> StorageResult<()> {
        let ack = self
            .wal
            .append_ops((0..keys.len()).map(|i| (keys[i], value_at(i))))?;
        self.run_guarded(writes, keys.len(), |range| {
            self.write_range(range, &value_at)
        })
        .into_iter()
        .collect::<StorageResult<()>>()?;
        ack.commit()
    }

    /// Checkpoint the store into its configured directory.
    ///
    /// Fails fast with [`StorageError::Checkpoint`] when any writer is in
    /// flight: the manifest's `tail`/`live_records` must describe a state no
    /// concurrent mutation is still moving. Writers arriving *during* the
    /// checkpoint block until it completes.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let dir =
            self.config.dir.clone().ok_or_else(|| {
                StorageError::Checkpoint("in-memory store cannot checkpoint".into())
            })?;
        let _quiesced = self.writer_gate.try_write().ok_or_else(|| {
            StorageError::Checkpoint("checkpoint requires quiesced writers".into())
        })?;
        checkpoint::write_checkpoint(self, &dir)
    }

    fn recover(&self, manifest: &checkpoint::Manifest) -> StorageResult<()> {
        self.log
            .restore_boundaries(manifest.tail, manifest.head, manifest.read_only);
        // Rebuild the (fresh, checkpoint-sized) hash index by replaying the
        // log in order: because every record stores the chain head observed
        // when it was written, installing each record as the head
        // reconstructs the exact chains.
        let mut live: HashSet<u64> = HashSet::new();
        self.log.scan(|addr, record| {
            self.index.set_head(record.key, addr);
            if record.is_tombstone() {
                live.remove(&record.key);
            } else {
                live.insert(record.key);
            }
        })?;
        self.live_records.store(live.len() as u64, Ordering::SeqCst);
        Ok(())
    }
}

impl KvStore for FasterKv {
    fn name(&self) -> &'static str {
        "FASTER"
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        let _guard = self.epoch.acquire();
        let read = self
            .resolve_key(key, |_, value, source| ReadResult {
                value: value.to_vec(),
                source,
            })?
            .and_then(|found| found.value);
        let mut tally = ReadTally::default();
        match &read {
            Some(r) => tally.hit(r.source, r.value.len()),
            None => tally.miss(),
        }
        self.metrics.record_reads(&tally);
        read.ok_or(StorageError::KeyNotFound)
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        // Keys are visited in sorted order so duplicate keys walk their hash
        // chain only once, and each range pays one epoch enter/exit (the
        // dominant fixed cost of a point read).
        let mut out: Vec<StorageResult<Vec<u8>>> = keys
            .iter()
            .map(|_| Err(StorageError::KeyNotFound))
            .collect();
        let ranges = self.run_sorted_ranges(keys, |range| {
            let mut values = Vec::with_capacity(range.len());
            let errors = self.read_sorted_range(keys, range, |slot, value| {
                if let Some(value) = value {
                    values.push((slot, value.to_vec()));
                }
            });
            (values, errors)
        });
        for (values, errors) in ranges {
            for (i, value) in values {
                out[i] = Ok(value);
            }
            for (i, e) in errors {
                out[i] = Err(e);
            }
        }
        out
    }

    fn multi_read(&self, keys: &[Key], visit: &BatchReadFn) -> Vec<(usize, StorageError)> {
        // As `multi_get`, but a value in memory is visited in place, under
        // its range's epoch guard and its page frame's read lock.
        self.run_sorted_ranges(keys, |range| self.read_sorted_range(keys, range, visit))
            .into_iter()
            .flatten()
            .collect()
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        let _writers = self.writer_gate.read();
        // Whole keys per range, occurrences in order, so each occurrence
        // observes the previous one's value. Every range is planned before
        // anything is logged: a range whose resolve fails fails the batch
        // with nothing logged or written. Then the shared tail logs the
        // batch's values — duplicate keys log their cumulative values in
        // occurrence order, so replay converges on the same final state —
        // and writes each key's final value. Cross-key hash-chain collisions
        // are resolved by the index CAS exactly as for concurrent callers.
        let mut out = vec![Vec::new(); keys.len()];
        let mut writes = Vec::new();
        for plan in self.run_sorted_ranges(keys, |range| self.plan_rmw(keys, range, f)) {
            let (range_writes, values) = plan?;
            for (i, value) in values {
                out[i] = value;
            }
            writes.push(range_writes);
        }
        self.log_and_write(keys, &writes, |i| Some(out[i].as_slice()))?;
        Ok(out)
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        // A resolve without touching the read metrics.
        let _guard = self.epoch.acquire();
        Ok(self
            .resolve_key(key, |_, _, _| ())?
            .is_some_and(|f| f.is_live()))
    }

    fn write_batch(&self, batch: &mlkv_storage::WriteBatch) -> StorageResult<()> {
        let keys: Vec<Key> = batch.iter().map(|(k, _)| k).collect();
        let entries: Vec<Option<&[u8]>> = batch.iter().map(|(_, v)| v).collect();
        self.commit_entries(&keys, &entries)
    }

    fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
        // One epoch enter/exit and one resolve cover the whole look-ahead
        // batch. Phase 1 keeps every live record below `read_only` — on the
        // device or in the read-only memory region, where an update could
        // not write in place and would append a copy on the writer's thread
        // anyway; phase 2 copies them to the tail in log-address order, so
        // the appends (and the flushes they trigger) follow the on-device
        // layout instead of request order. The source region is classified
        // under the record's frame read lock, and an in-place writer checks
        // the region again under the write lock
        // (`HybridLog::try_update_in_place`), so no write lands in a record
        // after it was copied. Each copy installs only if its chain head is
        // still the one phase 1 walked from. Chains are per (bucket, tag), so
        // a moved head means a write to this key (or to its rare tag-mate)
        // since phase 1: the writer's value stays and the promotion is
        // dropped — it was only a hint.
        let _guard = self.epoch.acquire();
        let mut unique: Vec<Key> = keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let order: Vec<usize> = (0..unique.len()).collect();
        let mut candidates: Vec<(Address, Vec<u8>, Key, Address)> = Vec::new();
        let resolutions = self.resolve_sorted_range(&unique, &order, |_, value, source| {
            (source != ReadSource::HotMemory).then(|| value.to_vec())
        });
        for resolution in resolutions {
            match resolution.outcome {
                Ok(Some(Found {
                    addr,
                    value: Some(Some(value)),
                })) => candidates.push((addr, value, resolution.key, resolution.head)),
                // Already mutable (an update writes it in place), tombstoned
                // or absent — or unreadable right now, which costs this key
                // its hint and the rest of the batch nothing.
                _ => self.metrics.record_prefetch_skip(),
            }
        }
        candidates.sort_unstable_by_key(|(addr, ..)| *addr);
        let mut promoted = 0;
        for (_, value, key, head) in candidates {
            // The head check up front saves appending a copy that would only
            // lose its CAS.
            if self.index.head(key) == head && self.try_install(Record::new(key, value, head))? {
                self.metrics.record_prefetch_copy();
                promoted += 1;
            } else {
                self.metrics.record_prefetch_skip();
            }
        }
        Ok(promoted)
    }

    fn approximate_len(&self) -> usize {
        self.live_records.load(Ordering::Relaxed) as usize
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        Arc::clone(&self.metrics)
    }

    fn flush(&self) -> StorageResult<()> {
        self.log.flush_all()
    }

    fn replication_tap(&self) -> Option<Arc<mlkv_storage::wal::WalTap>> {
        self.config.wal_tap.clone()
    }

    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        // Scan the hybrid log oldest→newest: later records overwrite earlier
        // ones and tombstones delete, exactly as `recover` resolves the final
        // state. The epoch guard keeps concurrently-trimmed pages alive.
        let _guard = self.epoch.acquire();
        let mut live: HashMap<u64, Vec<u8>> = HashMap::new();
        self.log.scan(|_, record| {
            if record.is_tombstone() {
                live.remove(&record.key);
            } else {
                live.insert(record.key, record.value.clone());
            }
        })?;
        let mut out: Vec<(Key, Vec<u8>)> = live.into_iter().collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        self.metrics.record_repl_snapshot();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(1, b"hello").unwrap();
        assert_eq!(store.get(1).unwrap(), b"hello");
        assert_eq!(store.approximate_len(), 1);
        assert_eq!(store.name(), "FASTER");
    }

    #[test]
    fn get_missing_key_is_not_found() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        assert!(store.get(99).unwrap_err().is_not_found());
        assert!(!store.contains(99).unwrap());
    }

    #[test]
    fn overwrite_returns_latest_value() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(7, b"v1").unwrap();
        store.put(7, b"v2").unwrap();
        store.put(7, b"v3").unwrap();
        assert_eq!(store.get(7).unwrap(), b"v3");
        assert_eq!(store.approximate_len(), 1);
    }

    #[test]
    fn in_place_update_path_is_used_for_same_length_values() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(3, &[1u8; 32]).unwrap();
        let allocated_before = store.log().allocated_bytes();
        store.put(3, &[2u8; 32]).unwrap();
        // Same-length overwrite of a hot record must not grow the log.
        assert_eq!(store.log().allocated_bytes(), allocated_before);
        assert_eq!(store.get(3).unwrap(), vec![2u8; 32]);
    }

    #[test]
    fn delete_then_get_is_not_found() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(5, b"x").unwrap();
        store.delete(5).unwrap();
        assert!(store.get(5).unwrap_err().is_not_found());
        assert_eq!(store.approximate_len(), 0);
        // Deleting a missing key is fine.
        store.delete(12345).unwrap();
    }

    #[test]
    fn reinsert_after_delete_works() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(5, b"a").unwrap();
        store.delete(5).unwrap();
        store.put(5, b"b").unwrap();
        assert_eq!(store.get(5).unwrap(), b"b");
        assert_eq!(store.approximate_len(), 1);
    }

    #[test]
    fn rmw_accumulates() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        let add_one = |old: Option<&[u8]>| -> Vec<u8> {
            let cur = old
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0);
            (cur + 1).to_le_bytes().to_vec()
        };
        for _ in 0..10 {
            store.rmw(9, &add_one).unwrap();
        }
        let v = store.get(9).unwrap();
        assert_eq!(u64::from_le_bytes(v.as_slice().try_into().unwrap()), 10);
    }

    #[test]
    fn multi_get_matches_per_key_and_handles_duplicates() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        for k in 0..100u64 {
            store.put(k, &[k as u8; 8]).unwrap();
        }
        let keys = vec![7, 99, 7, 1_000, 0];
        let batch = store.multi_get(&keys);
        for (key, result) in keys.iter().zip(&batch) {
            match store.get(*key) {
                Ok(expected) => assert_eq!(result.as_ref().unwrap(), &expected),
                Err(_) => assert!(result.as_ref().unwrap_err().is_not_found()),
            }
        }
    }

    #[test]
    fn multi_rmw_applies_per_occurrence_in_order() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        let keys = vec![5u64, 5, 9];
        let out = store
            .multi_rmw(&keys, &|i, cur| {
                let base = cur
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                (base + i as u64 + 1).to_le_bytes().to_vec()
            })
            .unwrap();
        // Occurrence 0 writes 1, occurrence 1 reads it and writes 1+2=3.
        assert_eq!(u64::from_le_bytes(out[0].as_slice().try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(out[1].as_slice().try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(out[2].as_slice().try_into().unwrap()), 3);
        assert_eq!(
            u64::from_le_bytes(store.get(5).unwrap().try_into().unwrap()),
            3
        );
    }

    #[test]
    fn exists_probes_without_reading_metrics() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(1, b"v").unwrap();
        store.delete(1).unwrap();
        store.put(2, b"v").unwrap();
        assert!(!store.exists(1).unwrap(), "tombstoned key must not exist");
        assert!(store.exists(2).unwrap());
        assert!(!store.exists(3).unwrap());
        let misses_before = store.metrics().snapshot().misses;
        store.exists(3).unwrap();
        assert_eq!(
            store.metrics().snapshot().misses,
            misses_before,
            "exists must not count as a read miss"
        );
    }

    #[test]
    fn write_batch_applies_under_one_epoch_guard() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        let mut batch = mlkv_storage::WriteBatch::new();
        for k in 0..50u64 {
            batch.put(k, vec![k as u8; 16]);
        }
        store.write_batch(&batch).unwrap();
        assert_eq!(store.approximate_len(), 50);
        assert_eq!(store.get(49).unwrap(), vec![49u8; 16]);
    }

    #[test]
    fn spills_to_disk_when_exceeding_memory_budget() {
        // Tiny in-memory window forces most records onto the (memory-backed) device.
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        let n = 2000u64;
        for k in 0..n {
            store.put(k, &[k as u8; 64]).unwrap();
        }
        for k in 0..n {
            assert_eq!(store.get(k).unwrap(), vec![k as u8; 64], "key {k}");
        }
        assert_eq!(store.approximate_len(), n as usize);
        // Old keys must have been served from disk at least once.
        assert!(store.metrics().snapshot().disk_reads > 0);
    }

    #[test]
    fn promote_to_memory_moves_cold_records_hot() {
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        for k in 0..2000u64 {
            store.put(k, &[1u8; 64]).unwrap();
        }
        // Key 0 is long gone from memory.
        let before = store.get_traced(0).unwrap();
        assert_eq!(before.source, ReadSource::Disk);
        assert!(store.promote_to_memory(0).unwrap());
        let after = store.get_traced(0).unwrap();
        assert_eq!(after.source, ReadSource::HotMemory);
        assert_eq!(after.value, before.value);
        // Promoting an already-hot record is a no-op.
        assert!(!store.promote_to_memory(0).unwrap());
        // Promoting a missing key is a no-op.
        assert!(!store.promote_to_memory(1 << 40).unwrap());
    }

    #[test]
    fn multi_promote_copies_cold_records_in_one_epoch() {
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        for k in 0..2000u64 {
            store.put(k, &[1u8; 64]).unwrap();
        }
        // Early keys are cold; duplicates and missing keys ride along.
        let keys: Vec<u64> = (0..32u64).chain([0, 5, 1 << 40]).collect();
        let promoted = store.multi_promote(&keys).unwrap();
        assert!(promoted > 0, "cold keys must be promoted");
        assert!(promoted <= 32, "dups/missing keys must not double-count");
        for k in 0..32u64 {
            let r = store.get_traced(k).unwrap();
            assert_ne!(r.source, ReadSource::Disk, "key {k} still cold");
            assert_eq!(r.value, vec![1u8; 64]);
        }
        // A second pass finds everything hot already.
        assert_eq!(
            store
                .multi_promote(&(0..32u64).collect::<Vec<_>>())
                .unwrap(),
            0
        );
    }

    #[test]
    fn multi_promote_copies_read_only_records_so_the_next_update_is_in_place() {
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
        let in_region = |region| {
            (0..2000u64)
                .filter(|&k| store.get_traced(k).unwrap().source == region)
                .collect::<Vec<_>>()
        };
        let (read_only, mutable) = (
            in_region(ReadSource::ColdMemory),
            in_region(ReadSource::HotMemory),
        );
        assert!(read_only.len() >= 2, "need records in the read-only region");
        let (promoted_key, appended_key, hot_key) = (read_only[0], read_only[1], mutable[0]);

        // The read-only record is copied to the tail with its value; the
        // mutable one is left where an update already writes in place.
        assert_eq!(store.multi_promote(&[promoted_key, hot_key]).unwrap(), 1);
        let promoted = store.get_traced(promoted_key).unwrap();
        assert_eq!(promoted.source, ReadSource::HotMemory);
        assert_eq!(promoted.value, vec![promoted_key as u8; 64]);

        // An apply to the promoted key now writes in place: the tail stays
        // and no update appends.
        let bump = |_: usize, cur: Option<&[u8]>| -> Vec<u8> {
            cur.unwrap().iter().map(|b| b.wrapping_add(1)).collect()
        };
        let before = store.metrics().snapshot();
        let tail = store.log().tail();
        store.multi_rmw(&[promoted_key], &bump).unwrap();
        assert_eq!(store.log().tail(), tail);
        assert_eq!(store.metrics().snapshot().delta(&before).update_appends, 0);
        assert_eq!(
            store.get(promoted_key).unwrap(),
            vec![(promoted_key as u8).wrapping_add(1); 64]
        );

        // The same apply to a read-only key nobody promoted appends.
        store.multi_rmw(&[appended_key], &bump).unwrap();
        assert!(store.log().tail() > tail);
        assert_eq!(store.metrics().snapshot().delta(&before).update_appends, 1);
        assert_eq!(
            store.get(appended_key).unwrap(),
            vec![(appended_key as u8).wrapping_add(1); 64]
        );
    }

    #[test]
    fn multi_promote_handles_same_batch_bucket_collisions() {
        // A 2-entry index is one bucket chain holding every key, but each key
        // has its own tagged entry: no promotion in the batch moves a head
        // another candidate captured in phase 1, so all of them install —
        // only a genuine write to the same key may drop a promotion.
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(2),
        )
        .unwrap();
        for k in 0..2000u64 {
            store.put(k, &[1u8; 64]).unwrap();
        }
        let cold: Vec<u64> = (0..24u64)
            .filter(|&k| store.get_traced(k).unwrap().source == ReadSource::Disk)
            .collect();
        assert!(cold.len() > 2, "need several cold keys sharing buckets");
        let tags: HashSet<u16> = cold.iter().map(|&k| HashIndex::tag_of(k)).collect();
        assert_eq!(tags.len(), cold.len(), "the cold keys have distinct tags");
        let promoted = store.multi_promote(&cold).unwrap();
        assert_eq!(promoted, cold.len(), "bucket collisions dropped promotions");
        for &k in &cold {
            assert_ne!(store.get_traced(k).unwrap().source, ReadSource::Disk);
        }
    }

    #[test]
    fn promotion_never_clobbers_a_concurrent_update() {
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(8 << 10)
                .with_page_size(1 << 10)
                .with_index_buckets(1 << 10),
        )
        .unwrap();
        for k in 0..2000u64 {
            store.put(k, &[1u8; 64]).unwrap();
        }
        // Replay the race deterministically: a promoter reads key 0's cold
        // value and chain head, then a writer lands before the install.
        let resolution = store
            .resolve_sorted_range(&[0], &[0], |_, value, source| (value.to_vec(), source))
            .pop()
            .unwrap();
        let found = resolution.outcome.unwrap().unwrap();
        let (value, source) = found.value.unwrap();
        assert_eq!(source, ReadSource::Disk);
        store.put(0, &[9u8; 64]).unwrap();
        assert!(
            !store
                .try_install(Record::new(0, value, resolution.head))
                .unwrap(),
            "stale promotion must lose the head CAS"
        );
        assert_eq!(store.get(0).unwrap(), vec![9u8; 64], "update survived");

        // And under real concurrency: a promoter hammering multi_promote must
        // never make a key travel back to a value the writer already replaced.
        let store = Arc::new(store);
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 2..50u8 {
                    for k in 0..64u64 {
                        store.put(k, &[round; 64]).unwrap();
                    }
                }
            })
        };
        let promoter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let keys: Vec<u64> = (0..64).collect();
                for _ in 0..50 {
                    store.multi_promote(&keys).unwrap();
                }
            })
        };
        writer.join().unwrap();
        promoter.join().unwrap();
        for k in 0..64u64 {
            assert_eq!(store.get(k).unwrap(), vec![49u8; 64], "key {k}");
        }
    }

    #[test]
    fn parallel_batches_match_serial_results_exactly() {
        let open = |parallelism| {
            FasterKv::open(
                StoreConfig::in_memory()
                    .with_memory_budget(1 << 20)
                    .with_page_size(4 << 10)
                    .with_index_buckets(1 << 10)
                    .with_parallelism(parallelism),
            )
            .unwrap()
        };
        let serial = open(1);
        let parallel = open(8);
        let n = 2 * mlkv_storage::exec::MIN_KEYS_PER_WORKER as u64;
        let keys: Vec<u64> = (0..n).map(|i| (i * 7) % 900).collect();
        let bump = |i: usize, cur: Option<&[u8]>| -> Vec<u8> {
            let n = cur
                .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                .unwrap_or(0);
            (n + i as u64 + 1).to_le_bytes().to_vec()
        };
        let serial_rmw = serial.multi_rmw(&keys, &bump).unwrap();
        let parallel_rmw = parallel.multi_rmw(&keys, &bump).unwrap();
        assert_eq!(serial_rmw, parallel_rmw);
        let serial_get = serial.multi_get(&keys);
        let parallel_get = parallel.multi_get(&keys);
        for (a, b) in serial_get.iter().zip(&parallel_get) {
            assert_eq!(a.as_ref().ok(), b.as_ref().ok());
        }
        assert_eq!(serial.approximate_len(), parallel.approximate_len());
        assert_eq!(
            serial.metrics().snapshot(),
            parallel.metrics().snapshot(),
            "per-range counting adds up to the serial store's"
        );
    }

    #[test]
    fn hash_collisions_are_resolved_by_chains() {
        // A 2-entry index: every key lands in one bucket chain of overflow
        // buckets, and the few tag-mates share a record chain.
        let store = FasterKv::open(
            StoreConfig::in_memory()
                .with_memory_budget(1 << 20)
                .with_page_size(4096)
                .with_index_buckets(2),
        )
        .unwrap();
        for k in 0..500u64 {
            store.put(k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..500u64 {
            assert_eq!(store.get(k).unwrap(), k.to_le_bytes());
        }
    }

    #[test]
    fn concurrent_disjoint_writers_then_readers() {
        let store = Arc::new(FasterKv::in_memory(1 << 20).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = t * 10_000 + i;
                    store.put(key, &key.to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..500u64 {
                let key = t * 10_000 + i;
                assert_eq!(store.get(key).unwrap(), key.to_le_bytes());
            }
        }
        assert_eq!(store.approximate_len(), 2000);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-faster-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_writes_survive_reopen_without_checkpoint() {
        let dir = temp_dir("reopen");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256)
            .with_durability(DurabilityMode::GroupCommit { window: 64 });
        {
            let store = FasterKv::open(cfg.clone()).unwrap();
            for k in 0..200u64 {
                store.put(k, &[k as u8; 24]).unwrap();
            }
            store.delete(7).unwrap();
            store
                .rmw(3, &|cur| {
                    let mut v = cur.unwrap().to_vec();
                    v[0] = 0xAB;
                    v
                })
                .unwrap();
            // No checkpoint, no flush: the WAL is the only durable copy.
        }
        let store = FasterKv::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 199);
        assert!(store.get(7).unwrap_err().is_not_found());
        let v3 = store.get(3).unwrap();
        assert_eq!(v3[0], 0xAB);
        assert_eq!(&v3[1..], &[3u8; 23][..]);
        assert_eq!(store.get(199).unwrap(), vec![199u8; 24]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_log_one_group_and_survive_reopen() {
        let dir = temp_dir("batch");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 });
        {
            let store = FasterKv::open(cfg.clone()).unwrap();
            let mut batch = mlkv_storage::WriteBatch::new();
            for k in 0..64u64 {
                batch.put(k, vec![k as u8; 16]);
            }
            store.write_batch(&batch).unwrap();
            let keys: Vec<u64> = (0..64).collect();
            store
                .multi_rmw(&keys, &|i, cur| {
                    let mut v = cur.unwrap().to_vec();
                    v[0] = v[0].wrapping_add(i as u8 + 1);
                    v
                })
                .unwrap();
            let snap = store.metrics().snapshot();
            assert_eq!(snap.wal_appends, 2, "one grouped append per batch");
            assert_eq!(snap.wal_syncs, 2, "one sync per acknowledged batch");
        }
        let store = FasterKv::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 64);
        for k in 0..64u64 {
            let v = store.get(k).unwrap();
            assert_eq!(v[0], (k as u8).wrapping_add(k as u8 + 1), "key {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_the_wal_generation() {
        let dir = temp_dir("rotate");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256)
            .with_durability(DurabilityMode::GroupCommit { window: 64 });
        let store = FasterKv::open(cfg.clone()).unwrap();
        for k in 0..100u64 {
            store.put(k, &[1u8; 16]).unwrap();
        }
        assert_eq!(mlkv_storage::wal::generations(&dir, WAL_PREFIX), vec![0]);
        store.checkpoint().unwrap();
        // Generation 0 is superseded by the checkpoint and deleted.
        assert_eq!(mlkv_storage::wal::generations(&dir, WAL_PREFIX), vec![1]);
        store.put(200, &[2u8; 16]).unwrap();
        drop(store);
        // Reopen recovers the checkpoint plus the delta WAL.
        let store = FasterKv::open(cfg).unwrap();
        assert_eq!(store.approximate_len(), 101);
        assert_eq!(store.get(200).unwrap(), vec![2u8; 16]);
        assert_eq!(store.get(99).unwrap(), vec![1u8; 16]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rejects_concurrent_writers() {
        let dir = temp_dir("ckpt_guard");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256)
            .with_durability(DurabilityMode::GroupCommit { window: 64 });
        let store = FasterKv::open(cfg).unwrap();
        store.put(1, b"seed").unwrap();
        // A checkpoint issued while a writer is mid-flight (here: from inside
        // the multi_rmw closure, which runs with the write in progress) must
        // fail with a typed error instead of snapshotting a moving state.
        let saw_guard_error = std::sync::atomic::AtomicBool::new(false);
        let out = store
            .multi_rmw(&[1], &|_, cur| {
                match store.checkpoint() {
                    Err(StorageError::Checkpoint(msg)) => {
                        assert!(msg.contains("quiesced"), "unexpected message: {msg}");
                        saw_guard_error.store(true, Ordering::SeqCst);
                    }
                    other => panic!("expected Checkpoint error, got {other:?}"),
                }
                let mut v = cur.unwrap().to_vec();
                v.push(b'!');
                v
            })
            .unwrap();
        assert!(saw_guard_error.load(Ordering::SeqCst));
        assert_eq!(out[0], b"seed!");
        // Quiesced again: the checkpoint goes through and the write survives.
        store.checkpoint().unwrap();
        assert_eq!(store.get(1).unwrap(), b"seed!");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replication_snapshot_resolves_overwrites_and_tombstones() {
        let store = FasterKv::in_memory(1 << 20).unwrap();
        store.put(3, b"old").unwrap();
        store.put(1, b"one").unwrap();
        store.put(3, b"new").unwrap();
        store.put(2, b"two").unwrap();
        store.delete(2).unwrap();
        let snap = store.replication_snapshot().unwrap();
        assert_eq!(
            snap,
            vec![(1, b"one".to_vec()), (3, b"new".to_vec())],
            "later records overwrite, tombstones delete, keys sorted"
        );
        assert_eq!(store.metrics().snapshot().repl_snapshots, 1);
    }

    #[test]
    fn wal_tap_observes_acked_groups() {
        let dir = temp_dir("tap");
        let tap = Arc::new(mlkv_storage::wal::WalTap::new(64));
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256)
            .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
            .with_wal_tap(Arc::clone(&tap));
        let store = FasterKv::open(cfg).unwrap();
        assert!(
            store
                .replication_tap()
                .is_some_and(|t| Arc::ptr_eq(&t, &tap)),
            "store exposes the configured tap"
        );
        store.put(1, b"a").unwrap();
        let keys: Vec<u64> = (0..8).collect();
        store.multi_rmw(&keys, &|i, _| vec![i as u8]).unwrap();
        // One frame for the put, one 8-frame group for the batch.
        assert_eq!(tap.next_offset(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_durable_store_writes_no_wal() {
        let dir = temp_dir("nowal");
        let cfg = StoreConfig::on_disk(&dir)
            .with_memory_budget(16 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(256);
        let store = FasterKv::open(cfg).unwrap();
        store.put(1, &[1u8; 8]).unwrap();
        assert!(
            mlkv_storage::wal::generations(&dir, WAL_PREFIX).is_empty(),
            "None mode must not log"
        );
        assert_eq!(store.metrics().snapshot().wal_appends, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One `multi_rmw` batch over the four kinds of key its write pass meets
    /// — keys in the mutable region (updated in place), keys below
    /// `read_only` (appended), absent keys (appended), and duplicate
    /// occurrences of all three — returns and stores what a sequential fold
    /// of its callbacks in input order does. Run inline, and fanned out to two
    /// workers (`MIN_KEYS_PER_WORKER` keys each at least).
    #[test]
    fn multi_rmw_over_every_region_matches_a_sequential_fold() {
        use mlkv_storage::exec::MIN_KEYS_PER_WORKER;

        // Hot keys sort first, so the batch's appends (later in key order)
        // cannot push them out of the mutable region before they are written.
        let hot: Vec<u64> = (0..2_500).collect();
        let old: Vec<u64> = (10_000..12_500).collect();
        let filler = 20_000..20_600u64;
        let absent: Vec<u64> = (30_000..32_000).collect();
        let n = 2 * MIN_KEYS_PER_WORKER + 400;
        let kinds = [&hot, &old, &absent];
        let mut keys: Vec<u64> = kinds.iter().flat_map(|k| k.iter().copied()).collect();
        let distinct = keys.len();
        keys.extend((0..n - distinct).map(|j| {
            let kind = kinds[j % 3];
            kind[j * 7 % kind.len()]
        }));
        // 7919 is prime and does not divide `n`: a permutation of positions.
        let keys: Vec<u64> = (0..n).map(|i| keys[i * 7919 % n]).collect();
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let step = |i: usize, current: Option<&[u8]>| -> Vec<u8> {
            let base = current.map_or(1_000_003, word);
            base.wrapping_mul(31)
                .wrapping_add(i as u64 + 1)
                .to_le_bytes()
                .to_vec()
        };

        for parallelism in [1, 2] {
            let store = FasterKv::open(
                StoreConfig::in_memory()
                    .with_memory_budget(1 << 20)
                    .with_page_size(4096)
                    .with_index_buckets(1 << 12)
                    .with_parallelism(parallelism),
            )
            .unwrap();
            assert_eq!(store.executor.planned_workers(n), parallelism);
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut put = |k: u64, v: Vec<u8>| {
                store.put(k, &v).unwrap();
                model.insert(k, v);
            };
            for &k in &old {
                put(k, k.to_le_bytes().to_vec());
            }
            // More than the mutable region, so `old` falls below `read_only`.
            for k in filler.clone() {
                put(k, vec![k as u8; 1000]);
            }
            for &k in &hot {
                put(k, k.to_le_bytes().to_vec());
            }
            let addr_of = |k: u64| {
                let _guard = store.epoch.acquire();
                store.resolve_key(k, |_, _, _| ()).unwrap().map(|f| f.addr)
            };
            let read_only = store.log().read_only();
            assert!(hot.iter().all(|&k| addr_of(k).unwrap() >= read_only));
            assert!(old.iter().all(|&k| addr_of(k).unwrap() < read_only));
            assert!(absent.iter().all(|&k| addr_of(k).is_none()));
            let hot_addrs: Vec<_> = hot.iter().map(|&k| addr_of(k)).collect();
            let tail = store.log().tail();
            let len = store.approximate_len();

            let expected: Vec<Vec<u8>> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let value = step(i, model.get(k).map(Vec::as_slice));
                    model.insert(*k, value.clone());
                    value
                })
                .collect();
            let out = store.multi_rmw(&keys, &step).unwrap();
            assert_eq!(out, expected, "parallelism {parallelism}");
            for k in kinds.iter().flat_map(|k| k.iter()) {
                assert_eq!(store.get(*k).unwrap(), model[k], "key {k}");
            }
            let in_place: Vec<_> = hot.iter().map(|&k| addr_of(k)).collect();
            assert_eq!(in_place, hot_addrs, "hot keys are updated in place");
            assert!(old
                .iter()
                .chain(&absent)
                .all(|&k| addr_of(k).unwrap() >= tail));
            assert_eq!(store.approximate_len(), len + absent.len());
        }
    }

    #[test]
    fn concurrent_updates_to_same_key_end_with_some_thread_value() {
        let store = Arc::new(FasterKv::in_memory(1 << 20).unwrap());
        store.put(1, &0u64.to_le_bytes()).unwrap();
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    store.put(1, &(t * 1000 + i).to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = u64::from_le_bytes(store.get(1).unwrap().try_into().unwrap());
        assert!((1..=4).any(|t| v == t * 1000 + 199), "final value {v}");
    }
}
