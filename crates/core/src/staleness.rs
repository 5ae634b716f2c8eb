//! Bounded-staleness consistency control (paper §III-C1).
//!
//! The consistency model is selected per embedding model when it is opened:
//!
//! * `staleness_bound == 0`            → Bulk Synchronous Parallel (BSP)
//! * `staleness_bound == u32::MAX`     → fully Asynchronous Parallel (ASP)
//! * anything in between               → Stale Synchronous Parallel (SSP)
//!
//! Enforcement is *per embedding record*: every key is associated with a
//! [`AtomicRecordWord`] vector clock, and the Get/Put protocol from
//! `record_word` is applied to it. The controller also measures the time Gets
//! spend blocked on the staleness bound — that is exactly the "data stall"
//! component that Figures 2 and 8 report.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use mlkv_storage::{StorageError, StorageResult};

use crate::record_word::{AcquireOutcome, AtomicRecordWord, PutLatch};

/// Consistency mode of an embedding model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// Bulk Synchronous Parallel: no staleness tolerated (bound 0).
    Bsp,
    /// Stale Synchronous Parallel with the given bound.
    Ssp(u32),
    /// Fully asynchronous: unbounded staleness.
    Asp,
}

impl ConsistencyMode {
    /// Construct the mode from a raw bound, as the `Open` interface does.
    pub fn from_bound(bound: u32) -> Self {
        match bound {
            0 => ConsistencyMode::Bsp,
            u32::MAX => ConsistencyMode::Asp,
            b => ConsistencyMode::Ssp(b),
        }
    }

    /// The numeric staleness bound this mode enforces.
    pub fn bound(&self) -> u32 {
        match self {
            ConsistencyMode::Bsp => 0,
            ConsistencyMode::Ssp(b) => *b,
            ConsistencyMode::Asp => u32::MAX,
        }
    }

    /// Human-readable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            ConsistencyMode::Bsp => "BSP",
            ConsistencyMode::Ssp(_) => "SSP",
            ConsistencyMode::Asp => "ASP",
        }
    }
}

/// Aggregate staleness-control statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StalenessStats {
    /// Number of Get acquisitions that had to wait at least once.
    pub blocked_gets: u64,
    /// Total nanoseconds Gets spent blocked on the staleness bound.
    pub stall_ns: u64,
    /// Number of Get acquisitions performed.
    pub gets: u64,
    /// Number of Put acquisitions performed.
    pub puts: u64,
}

/// Per-key vector clocks plus the acquisition protocol.
pub struct StalenessController {
    mode: ConsistencyMode,
    enabled: bool,
    shards: Vec<RwLock<HashMap<u64, Arc<AtomicRecordWord>>>>,
    blocked_gets: AtomicU64,
    stall_ns: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    /// Maximum time a Get may stay blocked before giving up.
    wait_timeout: Duration,
}

/// RAII guard for an acquired record lock; releases on drop.
#[derive(Debug)]
pub struct RecordGuard {
    word: Arc<AtomicRecordWord>,
    /// Set for a Put: its release also lowers staleness.
    put: Option<PutLatch>,
    mark_replaced: bool,
    released: bool,
}

impl RecordGuard {
    /// Mark that the protected operation relocated the record (sets the
    /// Replaced bit on release).
    pub fn mark_replaced(&mut self) {
        self.mark_replaced = true;
    }

    /// Release explicitly (otherwise happens on drop).
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            match self.put.take() {
                Some(latch) => self.word.release_put(latch, self.mark_replaced),
                None => self.word.release(self.mark_replaced),
            }
            self.released = true;
        }
    }
}

impl Drop for RecordGuard {
    fn drop(&mut self) {
        self.do_release();
    }
}

impl StalenessController {
    /// Create a controller for `mode`. When `enabled` is false the controller
    /// does no locking or waiting at all (the paper's "user disables bounded
    /// staleness consistency" case — memory overhead only).
    pub fn new(mode: ConsistencyMode, enabled: bool) -> Self {
        Self::with_timeout(mode, enabled, Duration::from_secs(10))
    }

    /// Like [`StalenessController::new`] with an explicit Get wait timeout.
    pub fn with_timeout(mode: ConsistencyMode, enabled: bool, wait_timeout: Duration) -> Self {
        Self {
            mode,
            enabled,
            shards: (0..64).map(|_| RwLock::new(HashMap::new())).collect(),
            blocked_gets: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            wait_timeout,
        }
    }

    /// The consistency mode being enforced.
    pub fn mode(&self) -> ConsistencyMode {
        self.mode
    }

    /// True when bounded staleness enforcement is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard_for(&self, key: u64) -> &RwLock<HashMap<u64, Arc<AtomicRecordWord>>> {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// The vector clock for `key`, creating it lazily.
    pub fn word(&self, key: u64) -> Arc<AtomicRecordWord> {
        {
            let shard = self.shard_for(key).read();
            if let Some(w) = shard.get(&key) {
                return Arc::clone(w);
            }
        }
        let mut shard = self.shard_for(key).write();
        Arc::clone(
            shard
                .entry(key)
                .or_insert_with(|| Arc::new(AtomicRecordWord::new())),
        )
    }

    /// Current staleness of `key` (0 when never accessed).
    pub fn staleness_of(&self, key: u64) -> u32 {
        let shard = self.shard_for(key).read();
        shard.get(&key).map(|w| w.staleness()).unwrap_or(0)
    }

    /// Number of keys with a materialised vector clock (the "memory overhead"
    /// the paper mentions when staleness enforcement is disabled).
    pub fn tracked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Acquire the record lock for a Get, waiting while the staleness bound
    /// blocks it. Returns `None` when enforcement is disabled.
    ///
    /// Unlike [`StalenessController::admit_get_batch`], the latch is held
    /// until the guard drops, across the caller's read: the per-key path
    /// (`EmbeddingTable::get_one`) lazily initialises a missing key with a
    /// plain put, and the latch is what keeps a concurrent Put from landing
    /// between that read's miss and the initialiser's write, which would
    /// overwrite it. (The batch path materialises its misses under
    /// [`StalenessController::lock_records`] and a re-checking rmw instead.)
    pub fn acquire_get(&self, key: u64) -> StorageResult<Option<RecordGuard>> {
        if !self.enabled {
            return Ok(None);
        }
        self.gets.fetch_add(1, Ordering::Relaxed);
        let word = self.wait_get(key, AtomicRecordWord::try_acquire_get)?;
        Ok(Some(RecordGuard {
            word,
            put: None,
            mark_replaced: false,
            released: false,
        }))
    }

    /// The waiting core of a Get: retry `attempt` on `key`'s word until it
    /// succeeds, spinning while the record is latched and yielding while the
    /// staleness bound blocks it (counted as a blocked Get, up to the wait
    /// timeout). Stats other than the stall are counted by the callers, so
    /// batch admissions can amortise them.
    fn wait_get(
        &self,
        key: u64,
        attempt: fn(&AtomicRecordWord, u32) -> AcquireOutcome,
    ) -> StorageResult<Arc<AtomicRecordWord>> {
        let word = self.word(key);
        let bound = self.mode.bound();
        let mut blocked_since: Option<Instant> = None;
        loop {
            match attempt(&word, bound) {
                AcquireOutcome::Acquired => {
                    if let Some(since) = blocked_since {
                        self.stall_ns
                            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    return Ok(word);
                }
                AcquireOutcome::Contended => {
                    std::hint::spin_loop();
                }
                AcquireOutcome::StalenessBlocked => {
                    let since = *blocked_since.get_or_insert_with(|| {
                        self.blocked_gets.fetch_add(1, Ordering::Relaxed);
                        Instant::now()
                    });
                    if since.elapsed() > self.wait_timeout {
                        self.stall_ns
                            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        return Err(StorageError::StalenessTimeout { key, bound });
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Admit a whole batch of Gets in a single controller call: one stats
    /// update for the batch, then one staleness-counter CAS per key
    /// ([`AtomicRecordWord::try_admit_get`]). A key waits only while the
    /// staleness bound blocks it — never on a record latch — so a batch can
    /// neither deadlock against concurrent writers nor stall behind a Put
    /// that holds its latch across a slow engine call. Returns immediately
    /// when enforcement is disabled.
    ///
    /// Skipping the latch is sound because it would guard nothing here:
    ///
    /// * The caller reads only once the whole batch is admitted
    ///   (`EmbeddingTable::gather` then runs one `multi_get`). Holding each
    ///   latch until that read would be hold-and-wait against writers, so a
    ///   latch could only be released at admission — and a Put can land
    ///   between admission and read either way.
    /// * Record bytes are protected by the engine itself — in FASTER by the
    ///   hybrid log's per-frame `RwLock` — not by this word.
    /// * The bound still orders reads after writes: a Put lowers staleness
    ///   only when it releases its latch, after its update has landed
    ///   ([`AtomicRecordWord::release_put`]). A Get the bound holds back is
    ///   therefore freed only by a completed Put and reads its value; a Get
    ///   admitted while a Put holds the latch was within the bound counting
    ///   that Put as not yet applied, so either version is fresh enough.
    /// * The counter update commutes with a Put's: whether the Put lowers
    ///   staleness is fixed when it takes the latch, and its release re-reads
    ///   the word, so a Get admitted while the latch is held is counted
    ///   exactly once in either order.
    pub fn admit_get_batch(&self, keys: &[u64]) -> StorageResult<()> {
        if !self.enabled || keys.is_empty() {
            return Ok(());
        }
        self.gets.fetch_add(keys.len() as u64, Ordering::Relaxed);
        for &key in keys {
            self.wait_get(key, AtomicRecordWord::try_admit_get)?;
        }
        Ok(())
    }

    /// Acquire the record lock for a Put (never blocks on the bound). The
    /// Put's staleness decrement happens when the guard is released, so hold
    /// it until the update has landed. Returns `None` when enforcement is
    /// disabled.
    pub fn acquire_put(&self, key: u64) -> StorageResult<Option<RecordGuard>> {
        if !self.enabled {
            return Ok(None);
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(Some(self.lock_put(key)))
    }

    /// Acquire the record locks for a batch of Puts in a single controller
    /// call, holding all guards until the returned vector is dropped. Keys are
    /// locked in sorted deduplicated order, so concurrent batches cannot
    /// deadlock against each other; Put acquisitions never wait on the
    /// staleness bound, only on the (always short-lived) record locks.
    /// Returns `None` when enforcement is disabled.
    pub fn acquire_put_batch(&self, keys: &[u64]) -> StorageResult<Option<Vec<RecordGuard>>> {
        if !self.enabled {
            return Ok(None);
        }
        let mut unique: Vec<u64> = keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        self.puts.fetch_add(unique.len() as u64, Ordering::Relaxed);
        Ok(Some(unique.into_iter().map(|k| self.lock_put(k)).collect()))
    }

    /// Acquire staleness-neutral latches on `keys` (sorted and deduplicated
    /// internally, so concurrent batches cannot deadlock). The latches exclude
    /// concurrent Gets/Puts on those records without touching their vector
    /// clocks — used by maintenance writes such as materialising lazily
    /// initialised records. Returns `None` when enforcement is disabled.
    pub fn lock_records(&self, keys: &[u64]) -> Option<Vec<RecordGuard>> {
        if !self.enabled {
            return None;
        }
        let mut unique: Vec<u64> = keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        Some(
            unique
                .into_iter()
                .map(|key| {
                    let word = self.word(key);
                    loop {
                        match word.try_acquire_latch() {
                            AcquireOutcome::Acquired => {
                                return RecordGuard {
                                    word,
                                    put: None,
                                    mark_replaced: false,
                                    released: false,
                                }
                            }
                            _ => std::hint::spin_loop(),
                        }
                    }
                })
                .collect(),
        )
    }

    /// Spin until the Put lock for `key` is held (stats counted by callers).
    fn lock_put(&self, key: u64) -> RecordGuard {
        let word = self.word(key);
        loop {
            if let Some(latch) = word.try_acquire_put() {
                return RecordGuard {
                    word,
                    put: Some(latch),
                    mark_replaced: false,
                    released: false,
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> StalenessStats {
        StalenessStats {
            blocked_gets: self.blocked_gets.load(Ordering::Relaxed),
            stall_ns: self.stall_ns.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_mapping_matches_paper() {
        assert_eq!(ConsistencyMode::from_bound(0), ConsistencyMode::Bsp);
        assert_eq!(ConsistencyMode::from_bound(4), ConsistencyMode::Ssp(4));
        assert_eq!(ConsistencyMode::from_bound(u32::MAX), ConsistencyMode::Asp);
        assert_eq!(ConsistencyMode::Bsp.bound(), 0);
        assert_eq!(ConsistencyMode::Ssp(7).bound(), 7);
        assert_eq!(ConsistencyMode::Asp.bound(), u32::MAX);
        assert_eq!(ConsistencyMode::Bsp.name(), "BSP");
        assert_eq!(ConsistencyMode::Ssp(1).name(), "SSP");
        assert_eq!(ConsistencyMode::Asp.name(), "ASP");
    }

    #[test]
    fn disabled_controller_never_blocks() {
        let ctl = StalenessController::new(ConsistencyMode::Bsp, false);
        for _ in 0..10 {
            assert!(ctl.acquire_get(1).unwrap().is_none());
        }
        assert_eq!(ctl.stats().gets, 0);
        assert_eq!(ctl.tracked_keys(), 0);
    }

    #[test]
    fn asp_mode_never_blocks() {
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        for _ in 0..100 {
            let guard = ctl.acquire_get(7).unwrap().unwrap();
            guard.release();
        }
        assert_eq!(ctl.staleness_of(7), 100);
        assert_eq!(ctl.stats().blocked_gets, 0);
    }

    #[test]
    fn ssp_blocks_after_bound_and_unblocks_on_put() {
        let ctl = Arc::new(StalenessController::with_timeout(
            ConsistencyMode::Ssp(2),
            true,
            Duration::from_secs(5),
        ));
        // Three gets allowed (staleness 0,1,2), the fourth blocks.
        for _ in 0..3 {
            ctl.acquire_get(5).unwrap().unwrap().release();
        }
        let ctl2 = Arc::clone(&ctl);
        let unblocker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            ctl2.acquire_put(5).unwrap().unwrap().release();
        });
        let start = Instant::now();
        let guard = ctl.acquire_get(5).unwrap().unwrap();
        guard.release();
        assert!(start.elapsed() >= Duration::from_millis(40));
        unblocker.join().unwrap();
        let stats = ctl.stats();
        assert_eq!(stats.blocked_gets, 1);
        assert!(stats.stall_ns > 0);
    }

    #[test]
    fn bsp_get_times_out_without_matching_put() {
        let ctl = StalenessController::with_timeout(
            ConsistencyMode::Bsp,
            true,
            Duration::from_millis(30),
        );
        ctl.acquire_get(1).unwrap().unwrap().release();
        let err = ctl.acquire_get(1).unwrap_err();
        assert!(matches!(err, StorageError::StalenessTimeout { key: 1, .. }));
    }

    #[test]
    fn guard_drop_releases_lock() {
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        {
            let _guard = ctl.acquire_get(3).unwrap().unwrap();
            assert!(ctl.word(3).load().locked);
        }
        assert!(!ctl.word(3).load().locked);
    }

    #[test]
    fn mark_replaced_propagates_to_word() {
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        let mut guard = ctl.acquire_put(9).unwrap().unwrap();
        guard.mark_replaced();
        guard.release();
        assert!(ctl.word(9).load().replaced);
    }

    #[test]
    fn batch_admission_counts_and_enforces_like_per_key() {
        let ctl = StalenessController::new(ConsistencyMode::Ssp(10), true);
        ctl.admit_get_batch(&[1, 2, 3]).unwrap();
        assert_eq!(ctl.stats().gets, 3);
        assert_eq!(ctl.staleness_of(1), 1);
        assert_eq!(ctl.staleness_of(3), 1);
        let guards = ctl.acquire_put_batch(&[3, 1, 1]).unwrap().unwrap();
        // Duplicates are deduplicated: one put admission per unique key.
        assert_eq!(guards.len(), 2);
        assert_eq!(ctl.stats().puts, 2);
        drop(guards);
        assert_eq!(ctl.staleness_of(1), 0);
        assert_eq!(ctl.staleness_of(3), 0);
        assert_eq!(ctl.staleness_of(2), 1);
    }

    #[test]
    fn batch_get_admission_blocks_on_the_bound_and_unblocks_on_put() {
        let ctl = Arc::new(StalenessController::with_timeout(
            ConsistencyMode::Ssp(1),
            true,
            Duration::from_secs(5),
        ));
        ctl.admit_get_batch(&[5, 5]).unwrap(); // staleness of 5 is now 2 > bound for further gets
        let ctl2 = Arc::clone(&ctl);
        let unblocker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(ctl2.acquire_put_batch(&[5]).unwrap());
        });
        let start = Instant::now();
        ctl.admit_get_batch(&[5]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(40));
        unblocker.join().unwrap();
        assert_eq!(ctl.stats().blocked_gets, 1);
    }

    #[test]
    fn batch_admission_completes_while_a_put_holds_the_latch() {
        let ctl = Arc::new(StalenessController::new(ConsistencyMode::Ssp(10), true));
        let put = ctl.acquire_put(5).unwrap().unwrap();
        let (done, admitted) = std::sync::mpsc::channel();
        let admitter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                ctl.admit_get_batch(&[4, 5, 6]).unwrap();
                done.send(()).unwrap();
            })
        };
        // Watchdog: an admission that waits on the latch would spin until the
        // put is released below, so give up waiting instead of hanging.
        let outcome = admitted.recv_timeout(Duration::from_secs(5));
        drop(put);
        admitter.join().unwrap();
        assert!(outcome.is_ok(), "batch admission waited on a put latch");
        assert_eq!(
            ctl.staleness_of(5),
            1,
            "the read stays counted after the put"
        );
        assert_eq!(ctl.stats().blocked_gets, 0);
    }

    #[test]
    fn bsp_batch_admission_waits_for_the_put_to_release() {
        let ctl = Arc::new(StalenessController::with_timeout(
            ConsistencyMode::Bsp,
            true,
            Duration::from_secs(5),
        ));
        ctl.admit_get_batch(&[5]).unwrap();
        let put = ctl.acquire_put(5).unwrap().unwrap();
        let released = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let admitter = {
            let (ctl, released) = (Arc::clone(&ctl), Arc::clone(&released));
            std::thread::spawn(move || {
                ctl.admit_get_batch(&[5]).unwrap();
                released.load(Ordering::SeqCst)
            })
        };
        while ctl.stats().blocked_gets == 0 && !admitter.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        released.store(true, Ordering::SeqCst);
        drop(put);
        assert!(
            admitter.join().unwrap(),
            "a Get the bound held back was admitted before the Put landed"
        );
        assert_eq!(ctl.staleness_of(5), 1);
    }

    #[test]
    fn disabled_controller_skips_batch_admission() {
        let ctl = StalenessController::new(ConsistencyMode::Bsp, false);
        ctl.admit_get_batch(&[1, 2, 3]).unwrap();
        assert!(ctl.acquire_put_batch(&[1, 2]).unwrap().is_none());
        assert_eq!(ctl.stats().gets, 0);
        assert_eq!(ctl.tracked_keys(), 0);
    }

    #[test]
    fn staleness_is_tracked_per_key() {
        let ctl = StalenessController::new(ConsistencyMode::Ssp(10), true);
        ctl.acquire_get(1).unwrap().unwrap().release();
        ctl.acquire_get(1).unwrap().unwrap().release();
        ctl.acquire_get(2).unwrap().unwrap().release();
        assert_eq!(ctl.staleness_of(1), 2);
        assert_eq!(ctl.staleness_of(2), 1);
        assert_eq!(ctl.staleness_of(3), 0);
        assert_eq!(ctl.tracked_keys(), 2);
        ctl.acquire_put(1).unwrap().unwrap().release();
        assert_eq!(ctl.staleness_of(1), 1);
    }
}
