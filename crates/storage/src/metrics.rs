//! Atomic counters describing the I/O behaviour of a storage engine.
//!
//! The benchmark harness reports these next to throughput so the figures can show
//! *why* one backend beats another (disk reads hidden by prefetching, write
//! amplification of the LSM engine, ...). They are also the inputs of the energy
//! model used for Figure 7 (bottom).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::kv::ReadSource;

/// Thread-safe I/O and cache counters.
///
/// All counters are monotonically increasing; readers take a [`MetricsSnapshot`]
/// and subtract two snapshots to get per-interval rates.
#[derive(Debug, Default)]
pub struct StorageMetrics {
    /// Number of read operations served entirely from memory.
    pub mem_hits: AtomicU64,
    /// Number of read operations that had to touch the device.
    pub disk_reads: AtomicU64,
    /// Bytes read from the device.
    pub disk_read_bytes: AtomicU64,
    /// Number of write operations issued to the device (page flushes, SSTable
    /// writes, WAL appends).
    pub disk_writes: AtomicU64,
    /// Bytes written to the device.
    pub disk_write_bytes: AtomicU64,
    /// Records inserted or updated.
    pub upserts: AtomicU64,
    /// Read-modify-write operations.
    pub rmws: AtomicU64,
    /// Point lookups (regardless of hit location).
    pub lookups: AtomicU64,
    /// Lookups that found no record.
    pub misses: AtomicU64,
    /// Records copied from a cold region into the hot region by prefetching.
    pub prefetch_copies: AtomicU64,
    /// Prefetch requests that copied nothing (already mutable, missing, or
    /// lost to a concurrent write).
    pub prefetch_skips: AtomicU64,
    /// Number of cache evictions performed.
    pub evictions: AtomicU64,
    /// Coalesced read runs the I/O planner split because they would exceed
    /// its scratch-allocation cap (each split costs one extra device round
    /// trip; see `mlkv_storage::io`).
    pub planner_splits: AtomicU64,
    /// Appends to a write-ahead log (each may carry a whole record group).
    pub wal_appends: AtomicU64,
    /// Syncs issued by a write-ahead log (the fsync cost group commit
    /// amortises; compare against `wal_appends` for the amortisation ratio).
    pub wal_syncs: AtomicU64,
    /// Serving-layer requests admitted into the batcher's admission queue.
    pub serve_admitted: AtomicU64,
    /// Serving-layer requests rejected with a typed error (deadline expired,
    /// queue overloaded, or server shutting down) instead of occupying a
    /// micro-batch.
    pub serve_rejected: AtomicU64,
    /// Micro-batch ticks the serving batcher executed (each issues one fused
    /// storage batch per contiguous same-kind run it drained).
    pub serve_ticks: AtomicU64,
    /// Keys fused into batched storage calls by the serving batcher; divide
    /// by `serve_ticks` for the fused-keys-per-tick the cross-request
    /// batching win is measured by.
    pub serve_fused_keys: AtomicU64,
    /// Gauge (not a counter): admission-queue depth observed at the serving
    /// batcher's most recent tick.
    pub serve_queue_depth: AtomicU64,
    /// Retried mutations acknowledged from the server's idempotency window
    /// instead of being re-applied (each is one double-apply prevented).
    pub serve_deduped: AtomicU64,
    /// Health transitions into `Degraded` (write-path fault observed).
    pub health_degraded: AtomicU64,
    /// Health transitions back to `Serving` (a recovery probe succeeded).
    pub health_recovered: AtomicU64,
    /// Recovery probes attempted while degraded (successful or not).
    pub health_probes: AtomicU64,
    /// Gauge (not a counter): current serving health state
    /// (0 = Serving, 1 = Degraded, 2 = Draining).
    pub health_state: AtomicU64,
    /// Acknowledged WAL groups shipped to replicas (primary side).
    pub repl_groups_shipped: AtomicU64,
    /// Shipped replication groups applied into a standby engine (replica
    /// side).
    pub repl_groups_applied: AtomicU64,
    /// Replica acknowledgements received by the primary.
    pub repl_acks: AtomicU64,
    /// Snapshot catch-ups served to lagging replicas.
    pub repl_snapshots: AtomicU64,
    /// Replica promotions to primary (failovers completed).
    pub repl_promotions: AtomicU64,
    /// Gauge (not a counter): frames the slowest connected replica lags
    /// behind the primary's acknowledged tail (0 when fully caught up or no
    /// replicas are connected).
    pub repl_lag: AtomicU64,
    /// Gauge (not a counter): current replication role
    /// (0 = Primary, 1 = Replica).
    pub repl_role: AtomicU64,
    /// Writes that found their key's live record but could not overwrite it
    /// in place (it had left FASTER's mutable region, or changed length), so
    /// appended a new version instead.
    pub update_appends: AtomicU64,
}

/// The read outcomes of one batch range, counted on the thread that resolves
/// the range and added to [`StorageMetrics`] once, by
/// [`StorageMetrics::record_reads`]. The counters share a cache line that
/// every reading and writing thread updates, so batch paths pay for it once
/// per range instead of once per key.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadTally {
    mem_hits: u64,
    disk_reads: u64,
    disk_read_bytes: u64,
    misses: u64,
}

impl ReadTally {
    /// Count a read that found a `bytes`-byte value in `source` (what
    /// [`StorageMetrics::record_mem_hit`] or
    /// [`StorageMetrics::record_disk_read`] counts for one key).
    #[inline]
    pub fn hit(&mut self, source: ReadSource, bytes: usize) {
        match source {
            ReadSource::Disk => {
                self.disk_reads += 1;
                self.disk_read_bytes += bytes as u64;
            }
            _ => self.mem_hits += 1,
        }
    }

    /// Count a read that found no value.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }
}

/// Add `n` to `counter`, skipping the atomic when there is nothing to add.
#[inline]
fn add(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`StorageMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub mem_hits: u64,
    pub disk_reads: u64,
    pub disk_read_bytes: u64,
    pub disk_writes: u64,
    pub disk_write_bytes: u64,
    pub upserts: u64,
    pub rmws: u64,
    pub update_appends: u64,
    pub lookups: u64,
    pub misses: u64,
    pub prefetch_copies: u64,
    pub prefetch_skips: u64,
    pub evictions: u64,
    pub planner_splits: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub serve_admitted: u64,
    pub serve_rejected: u64,
    pub serve_ticks: u64,
    pub serve_fused_keys: u64,
    /// Gauge: queue depth at the last serving tick (copied, not differenced,
    /// by [`MetricsSnapshot::delta`]).
    pub serve_queue_depth: u64,
    pub serve_deduped: u64,
    pub health_degraded: u64,
    pub health_recovered: u64,
    pub health_probes: u64,
    /// Gauge: current health state (copied, not differenced, by
    /// [`MetricsSnapshot::delta`]). 0 = Serving, 1 = Degraded, 2 = Draining.
    pub health_state: u64,
    pub repl_groups_shipped: u64,
    pub repl_groups_applied: u64,
    pub repl_acks: u64,
    pub repl_snapshots: u64,
    pub repl_promotions: u64,
    /// Gauge: slowest-replica lag in frames (copied, not differenced, by
    /// [`MetricsSnapshot::delta`]).
    pub repl_lag: u64,
    /// Gauge: current replication role (copied, not differenced, by
    /// [`MetricsSnapshot::delta`]). 0 = Primary, 1 = Replica.
    pub repl_role: u64,
}

impl StorageMetrics {
    /// Create a zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read served from memory.
    #[inline]
    pub fn record_mem_hit(&self) {
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
        self.lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a read that required `bytes` from the device.
    #[inline]
    pub fn record_disk_read(&self, bytes: u64) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a range's reads at once; equal to one `record_mem_hit`,
    /// `record_disk_read` or `record_miss` per key the tally counted.
    pub fn record_reads(&self, tally: &ReadTally) {
        add(&self.mem_hits, tally.mem_hits);
        add(&self.disk_reads, tally.disk_reads);
        add(&self.disk_read_bytes, tally.disk_read_bytes);
        add(&self.lookups, tally.mem_hits + tally.disk_reads);
        add(&self.misses, tally.misses);
    }

    /// Record a device read that is not a user lookup (e.g. prefetch I/O).
    #[inline]
    pub fn record_background_disk_read(&self, bytes: u64) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` written to the device.
    #[inline]
    pub fn record_disk_write(&self, bytes: u64) {
        self.disk_writes.fetch_add(1, Ordering::Relaxed);
        self.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record an upsert.
    #[inline]
    pub fn record_upsert(&self) {
        self.upserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` upserts of one batch range.
    #[inline]
    pub fn record_upserts(&self, n: u64) {
        add(&self.upserts, n);
    }

    /// Record an RMW.
    #[inline]
    pub fn record_rmw(&self) {
        self.rmws.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` RMWs of one batch range.
    #[inline]
    pub fn record_rmws(&self, n: u64) {
        add(&self.rmws, n);
    }

    /// Record a lookup that found nothing.
    #[inline]
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a write that appended over a live record it could not update
    /// in place.
    #[inline]
    pub fn record_update_append(&self) {
        self.update_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a prefetch that copied a record into the hot region.
    #[inline]
    pub fn record_prefetch_copy(&self) {
        self.prefetch_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a prefetch that was skipped.
    #[inline]
    pub fn record_prefetch_skip(&self) {
        self.prefetch_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache or buffer-pool eviction.
    #[inline]
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a coalesced run the I/O planner had to split at its run cap.
    #[inline]
    pub fn record_planner_split(&self) {
        self.planner_splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a WAL append of `bytes` (framing included). Counts as a device
    /// write too.
    #[inline]
    pub fn record_wal_append(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.record_disk_write(bytes);
    }

    /// Record a WAL-issued device sync.
    #[inline]
    pub fn record_wal_sync(&self) {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a serving request admitted into the batcher's queue.
    #[inline]
    pub fn record_serve_admitted(&self) {
        self.serve_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a serving request rejected with a typed error (deadline,
    /// overload, shutdown).
    #[inline]
    pub fn record_serve_rejected(&self) {
        self.serve_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one serving batcher tick that fused `keys` keys and observed
    /// `queue_depth` requests still queued after draining.
    #[inline]
    pub fn record_serve_tick(&self, keys: u64, queue_depth: u64) {
        self.serve_ticks.fetch_add(1, Ordering::Relaxed);
        self.serve_fused_keys.fetch_add(keys, Ordering::Relaxed);
        self.serve_queue_depth.store(queue_depth, Ordering::Relaxed);
    }

    /// Record a retried mutation acknowledged from the idempotency window
    /// (not re-applied).
    #[inline]
    pub fn record_serve_deduped(&self) {
        self.serve_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a health transition into `Degraded`.
    #[inline]
    pub fn record_health_degraded(&self) {
        self.health_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a health transition back to `Serving`.
    #[inline]
    pub fn record_health_recovered(&self) {
        self.health_recovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one recovery-probe attempt (regardless of outcome).
    #[inline]
    pub fn record_health_probe(&self) {
        self.health_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the health-state gauge (0 = Serving, 1 = Degraded, 2 = Draining).
    #[inline]
    pub fn set_health_state(&self, state: u64) {
        self.health_state.store(state, Ordering::Relaxed);
    }

    /// Record one replication group shipped to a replica.
    #[inline]
    pub fn record_repl_group_shipped(&self) {
        self.repl_groups_shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one shipped replication group applied into a standby engine.
    #[inline]
    pub fn record_repl_group_applied(&self) {
        self.repl_groups_applied.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one replica acknowledgement received by the primary.
    #[inline]
    pub fn record_repl_ack(&self) {
        self.repl_acks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one snapshot catch-up served to a lagging replica.
    #[inline]
    pub fn record_repl_snapshot(&self) {
        self.repl_snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one replica promotion to primary (a completed failover).
    #[inline]
    pub fn record_repl_promotion(&self) {
        self.repl_promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the replication-lag gauge (frames behind the acknowledged tail).
    #[inline]
    pub fn set_repl_lag(&self, frames: u64) {
        self.repl_lag.store(frames, Ordering::Relaxed);
    }

    /// Set the replication-role gauge (0 = Primary, 1 = Replica).
    #[inline]
    pub fn set_repl_role(&self, role: u64) {
        self.repl_role.store(role, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            disk_read_bytes: self.disk_read_bytes.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_write_bytes: self.disk_write_bytes.load(Ordering::Relaxed),
            upserts: self.upserts.load(Ordering::Relaxed),
            rmws: self.rmws.load(Ordering::Relaxed),
            update_appends: self.update_appends.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prefetch_copies: self.prefetch_copies.load(Ordering::Relaxed),
            prefetch_skips: self.prefetch_skips.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            planner_splits: self.planner_splits.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            serve_admitted: self.serve_admitted.load(Ordering::Relaxed),
            serve_rejected: self.serve_rejected.load(Ordering::Relaxed),
            serve_ticks: self.serve_ticks.load(Ordering::Relaxed),
            serve_fused_keys: self.serve_fused_keys.load(Ordering::Relaxed),
            serve_queue_depth: self.serve_queue_depth.load(Ordering::Relaxed),
            serve_deduped: self.serve_deduped.load(Ordering::Relaxed),
            health_degraded: self.health_degraded.load(Ordering::Relaxed),
            health_recovered: self.health_recovered.load(Ordering::Relaxed),
            health_probes: self.health_probes.load(Ordering::Relaxed),
            health_state: self.health_state.load(Ordering::Relaxed),
            repl_groups_shipped: self.repl_groups_shipped.load(Ordering::Relaxed),
            repl_groups_applied: self.repl_groups_applied.load(Ordering::Relaxed),
            repl_acks: self.repl_acks.load(Ordering::Relaxed),
            repl_snapshots: self.repl_snapshots.load(Ordering::Relaxed),
            repl_promotions: self.repl_promotions.load(Ordering::Relaxed),
            repl_lag: self.repl_lag.load(Ordering::Relaxed),
            repl_role: self.repl_role.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (used between benchmark phases).
    pub fn reset(&self) {
        self.mem_hits.store(0, Ordering::Relaxed);
        self.disk_reads.store(0, Ordering::Relaxed);
        self.disk_read_bytes.store(0, Ordering::Relaxed);
        self.disk_writes.store(0, Ordering::Relaxed);
        self.disk_write_bytes.store(0, Ordering::Relaxed);
        self.upserts.store(0, Ordering::Relaxed);
        self.rmws.store(0, Ordering::Relaxed);
        self.update_appends.store(0, Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefetch_copies.store(0, Ordering::Relaxed);
        self.prefetch_skips.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.planner_splits.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_syncs.store(0, Ordering::Relaxed);
        self.serve_admitted.store(0, Ordering::Relaxed);
        self.serve_rejected.store(0, Ordering::Relaxed);
        self.serve_ticks.store(0, Ordering::Relaxed);
        self.serve_fused_keys.store(0, Ordering::Relaxed);
        self.serve_queue_depth.store(0, Ordering::Relaxed);
        self.serve_deduped.store(0, Ordering::Relaxed);
        self.health_degraded.store(0, Ordering::Relaxed);
        self.health_recovered.store(0, Ordering::Relaxed);
        self.health_probes.store(0, Ordering::Relaxed);
        self.health_state.store(0, Ordering::Relaxed);
        self.repl_groups_shipped.store(0, Ordering::Relaxed);
        self.repl_groups_applied.store(0, Ordering::Relaxed);
        self.repl_acks.store(0, Ordering::Relaxed);
        self.repl_snapshots.store(0, Ordering::Relaxed);
        self.repl_promotions.store(0, Ordering::Relaxed);
        self.repl_lag.store(0, Ordering::Relaxed);
        self.repl_role.store(0, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_reads: self.disk_reads - earlier.disk_reads,
            disk_read_bytes: self.disk_read_bytes - earlier.disk_read_bytes,
            disk_writes: self.disk_writes - earlier.disk_writes,
            disk_write_bytes: self.disk_write_bytes - earlier.disk_write_bytes,
            upserts: self.upserts - earlier.upserts,
            rmws: self.rmws - earlier.rmws,
            update_appends: self.update_appends - earlier.update_appends,
            lookups: self.lookups - earlier.lookups,
            misses: self.misses - earlier.misses,
            prefetch_copies: self.prefetch_copies - earlier.prefetch_copies,
            prefetch_skips: self.prefetch_skips - earlier.prefetch_skips,
            evictions: self.evictions - earlier.evictions,
            planner_splits: self.planner_splits - earlier.planner_splits,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            serve_admitted: self.serve_admitted - earlier.serve_admitted,
            serve_rejected: self.serve_rejected - earlier.serve_rejected,
            serve_ticks: self.serve_ticks - earlier.serve_ticks,
            serve_fused_keys: self.serve_fused_keys - earlier.serve_fused_keys,
            serve_deduped: self.serve_deduped - earlier.serve_deduped,
            health_degraded: self.health_degraded - earlier.health_degraded,
            health_recovered: self.health_recovered - earlier.health_recovered,
            health_probes: self.health_probes - earlier.health_probes,
            repl_groups_shipped: self.repl_groups_shipped - earlier.repl_groups_shipped,
            repl_groups_applied: self.repl_groups_applied - earlier.repl_groups_applied,
            repl_acks: self.repl_acks - earlier.repl_acks,
            repl_snapshots: self.repl_snapshots - earlier.repl_snapshots,
            repl_promotions: self.repl_promotions - earlier.repl_promotions,
            // Gauges describe "now", not an interval: keep the later reading.
            serve_queue_depth: self.serve_queue_depth,
            health_state: self.health_state,
            repl_lag: self.repl_lag,
            repl_role: self.repl_role,
        }
    }

    /// Fraction of lookups served from memory, in `[0, 1]`. Returns 1.0 when no
    /// lookups happened (nothing stalled on disk).
    pub fn memory_hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.mem_hits as f64 / self.lookups as f64
        }
    }

    /// Total bytes moved to or from the device.
    pub fn total_io_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = StorageMetrics::new();
        m.record_mem_hit();
        m.record_disk_read(4096);
        m.record_disk_write(8192);
        m.record_upsert();
        m.record_rmw();
        m.record_miss();
        m.record_prefetch_copy();
        m.record_prefetch_skip();
        m.record_update_append();
        m.record_eviction();
        m.record_planner_split();
        m.record_wal_append(21);
        m.record_wal_sync();
        let s = m.snapshot();
        assert_eq!(s.mem_hits, 1);
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.disk_read_bytes, 4096);
        assert_eq!(s.upserts, 1);
        assert_eq!(s.rmws, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.prefetch_copies, 1);
        assert_eq!(s.prefetch_skips, 1);
        assert_eq!(s.update_appends, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.planner_splits, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.wal_syncs, 1);
        // WAL appends also count as device writes.
        assert_eq!(s.disk_writes, 2);
        assert_eq!(s.disk_write_bytes, 8192 + 21);
        assert_eq!(s.total_io_bytes(), 4096 + 8192 + 21);
    }

    #[test]
    fn a_read_tally_adds_what_per_key_calls_would() {
        let per_key = StorageMetrics::new();
        let batched = StorageMetrics::new();
        let mut tally = ReadTally::default();
        for (source, bytes) in [
            (ReadSource::HotMemory, 64),
            (ReadSource::Disk, 64),
            (ReadSource::ColdMemory, 64),
            (ReadSource::Disk, 100),
        ] {
            match source {
                ReadSource::Disk => per_key.record_disk_read(bytes as u64),
                _ => per_key.record_mem_hit(),
            }
            tally.hit(source, bytes);
        }
        per_key.record_miss();
        tally.miss();
        for _ in 0..3 {
            per_key.record_rmw();
            per_key.record_upsert();
        }
        batched.record_reads(&tally);
        batched.record_rmws(3);
        batched.record_upserts(3);
        assert_eq!(batched.snapshot(), per_key.snapshot());
    }

    #[test]
    fn snapshot_delta_and_hit_ratio() {
        let m = StorageMetrics::new();
        m.record_mem_hit();
        m.record_update_append();
        let first = m.snapshot();
        m.record_mem_hit();
        m.record_disk_read(100);
        m.record_update_append();
        let second = m.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.update_appends, 1);
        assert_eq!(d.mem_hits, 1);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(d.lookups, 2);
        assert!((d.memory_hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_ratio_with_no_lookups_is_one() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.memory_hit_ratio(), 1.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = StorageMetrics::new();
        m.record_disk_read(10);
        m.record_upsert();
        m.record_update_append();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn serving_counters_accumulate_and_gauges_track_latest() {
        let m = StorageMetrics::new();
        m.record_serve_admitted();
        m.record_serve_admitted();
        m.record_serve_rejected();
        m.record_serve_tick(48, 3);
        let first = m.snapshot();
        assert_eq!(first.serve_admitted, 2);
        assert_eq!(first.serve_rejected, 1);
        assert_eq!(first.serve_ticks, 1);
        assert_eq!(first.serve_fused_keys, 48);
        assert_eq!(first.serve_queue_depth, 3);

        m.record_serve_tick(16, 0);
        let second = m.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.serve_ticks, 1);
        assert_eq!(d.serve_fused_keys, 16);
        // Gauges are point-in-time readings, not interval differences.
        assert_eq!(d.serve_queue_depth, 0);

        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn fault_tolerance_counters_and_health_gauge() {
        let m = StorageMetrics::new();
        m.record_serve_deduped();
        m.record_health_degraded();
        m.set_health_state(1);
        m.record_health_probe();
        m.record_health_probe();
        m.record_health_recovered();
        m.set_health_state(0);
        let first = m.snapshot();
        assert_eq!(first.serve_deduped, 1);
        assert_eq!(first.health_degraded, 1);
        assert_eq!(first.health_recovered, 1);
        assert_eq!(first.health_probes, 2);
        assert_eq!(first.health_state, 0);

        m.record_serve_deduped();
        m.set_health_state(2);
        let second = m.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.serve_deduped, 1);
        assert_eq!(d.health_degraded, 0);
        // The health gauge is a point-in-time reading, not a difference.
        assert_eq!(d.health_state, 2);

        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn replication_counters_and_gauges() {
        let m = StorageMetrics::new();
        m.record_repl_group_shipped();
        m.record_repl_group_shipped();
        m.record_repl_group_applied();
        m.record_repl_ack();
        m.record_repl_snapshot();
        m.record_repl_promotion();
        m.set_repl_lag(7);
        m.set_repl_role(1);
        let first = m.snapshot();
        assert_eq!(first.repl_groups_shipped, 2);
        assert_eq!(first.repl_groups_applied, 1);
        assert_eq!(first.repl_acks, 1);
        assert_eq!(first.repl_snapshots, 1);
        assert_eq!(first.repl_promotions, 1);
        assert_eq!(first.repl_lag, 7);
        assert_eq!(first.repl_role, 1);

        m.record_repl_ack();
        m.set_repl_lag(0);
        m.set_repl_role(0);
        let second = m.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.repl_acks, 1);
        assert_eq!(d.repl_groups_shipped, 0);
        // Gauges are point-in-time readings, not interval differences.
        assert_eq!(d.repl_lag, 0);
        assert_eq!(d.repl_role, 0);

        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn background_reads_do_not_count_as_lookups() {
        let m = StorageMetrics::new();
        m.record_background_disk_read(512);
        let s = m.snapshot();
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.lookups, 0);
    }
}
