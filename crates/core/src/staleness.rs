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
//!
//! There is one protocol, and it is batched. A read admits its keys with
//! [`StalenessController::admit_get_batch`], which waits only on the bound
//! and takes no latch. A write takes the keys' Put latches with
//! [`StalenessController::acquire_put_batch`] and holds them across its
//! engine call. A per-key table call is a batch of one.
//!
//! # The staleness table
//!
//! The paper keeps the clock in the record's own lock word. Here it lives in
//! a per-table side table keyed by the embedding key, in two parts:
//!
//! * **Index** — an open-addressed array of 16-byte slots (`key`, word id),
//!   probed linearly from a multiplicative hash of the key. A slot is claimed
//!   with one compare-and-swap on its key and is never emptied again.
//! * **Arena** — the words themselves, in append-only chunks of doubling size
//!   (the first holds 1024 words). Word id `i` lives at a fixed chunk and
//!   offset computed from `i` alone, and a chunk, once allocated, is never
//!   freed or reallocated.
//!
//! Key `u64::MAX` marks an empty slot, so it cannot be stored in the index;
//! it gets a dedicated word of its own and is otherwise tracked like any key.
//!
//! **Growth.** A batch reserves room for the keys it may insert before it
//! inserts the first. When reserved keys would pass half of the index's
//! capacity, the index doubles under its write lock, and only the index is
//! rehashed. Words never move, so a word resolved before a growth is the same
//! word after it: a [`RecordGuard`] holds a plain reference to its word and
//! never holds the index lock.
//!
//! **The lock rule.** Every admission resolves all of its words under one
//! read lock of the index and releases it *before* it compares-and-swaps,
//! spins on a latch or waits on the bound. The workspace's
//! `parking_lot::RwLock` is `std::sync::RwLock` underneath, which makes new
//! readers queue behind a waiting writer; a waiter that kept the read
//! lock would let one growth queue behind a Put held across a slow engine
//! call, and then every admission behind that growth. Under this rule the
//! read lock is held only while probing and claiming slots, which never
//! waits on another thread's latch or on the bound.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use mlkv_storage::{prefetch, StorageError, StorageResult};

use crate::record_word::{AtomicRecordWord, PutLatch};

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
    /// Keys with a materialised vector clock when the snapshot was taken.
    pub tracked_keys: u64,
    /// Bytes the staleness table holds for them: its index plus its word
    /// arena, both allocated ahead of use.
    pub tracked_bytes: u64,
}

/// Key of an empty index slot; the key itself has a dedicated word.
const EMPTY: u64 = u64::MAX;
/// Word id of a slot whose key is claimed but whose word is not yet published.
const PENDING: u32 = u32::MAX;
/// Slots of a fresh index (a power of two).
const FIRST_INDEX_SLOTS: usize = 1 << 10;
/// Most inserts one reservation covers.
const RESERVE_STEP: usize = 1 << 10;
/// log2 of the words in the arena's first chunk; chunk `c` holds
/// `1 << (FIRST_CHUNK_BITS + c)` words.
const FIRST_CHUNK_BITS: u32 = 10;
/// Enough chunks for every word id below [`PENDING`].
const CHUNKS: usize = (33 - FIRST_CHUNK_BITS) as usize;

/// One index entry: a key and the id of its word in the arena.
struct Slot {
    key: AtomicU64,
    id: AtomicU32,
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            key: AtomicU64::new(EMPTY),
            id: AtomicU32::new(PENDING),
        }
    }
}

impl Slot {
    /// The slot's word id, waiting out the claimer's publish (it holds the
    /// same read lock and never blocks between claim and publish).
    fn id(&self) -> u32 {
        loop {
            let id = self.id.load(Ordering::Acquire);
            if id != PENDING {
                return id;
            }
            std::hint::spin_loop();
        }
    }
}

/// The first slot to probe for `key` in an index of `slots` slots.
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// The arena chunk and offset of word `id`.
fn locate(id: u32) -> (usize, usize) {
    let x = id as usize + (1 << FIRST_CHUNK_BITS);
    let chunk = (usize::BITS - 1 - x.leading_zeros() - FIRST_CHUNK_BITS) as usize;
    (chunk, x - (1 << (chunk as u32 + FIRST_CHUNK_BITS)))
}

/// Per-key vector clocks plus the acquisition protocol.
pub struct StalenessController {
    mode: ConsistencyMode,
    enabled: bool,
    /// Open-addressed index, at most half full (see the module docs).
    index: RwLock<Box<[Slot]>>,
    /// Keys inserted plus room reserved by batches still inserting.
    reserved: AtomicUsize,
    /// Keys inserted into the index; the next word id.
    inserted: AtomicU32,
    /// The word arena: chunk `c` is allocated by the first insert that needs it.
    chunks: [OnceLock<Box<[AtomicRecordWord]>>; CHUNKS],
    /// The word of key [`EMPTY`], and whether that key has been touched.
    empty_key_word: AtomicRecordWord,
    empty_key_tracked: AtomicBool,
    blocked_gets: AtomicU64,
    stall_ns: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    /// Maximum time a Get may stay blocked before giving up.
    wait_timeout: Duration,
}

/// A Put's hold on one record latch, from
/// [`StalenessController::acquire_put_batch`]; dropping it releases the latch
/// (and lowers the key's staleness when the Put found reads outstanding), so
/// hold it until the update has landed.
#[derive(Debug)]
pub struct RecordGuard<'a> {
    word: &'a AtomicRecordWord,
    /// Taken when the guard drops.
    latch: Option<PutLatch>,
}

impl Drop for RecordGuard<'_> {
    fn drop(&mut self) {
        if let Some(latch) = self.latch.take() {
            self.word.release_put(latch);
        }
    }
}

impl StalenessController {
    /// Create a controller for `mode`. When `enabled` is false the controller
    /// does no locking, waiting or counting at all and tracks no key (the
    /// paper's "user disables bounded staleness consistency" case).
    pub fn new(mode: ConsistencyMode, enabled: bool) -> Self {
        Self::with_timeout(mode, enabled, Duration::from_secs(10))
    }

    /// Like [`StalenessController::new`] with an explicit Get wait timeout.
    pub fn with_timeout(mode: ConsistencyMode, enabled: bool, wait_timeout: Duration) -> Self {
        Self {
            mode,
            enabled,
            index: RwLock::new((0..FIRST_INDEX_SLOTS).map(|_| Slot::default()).collect()),
            reserved: AtomicUsize::new(0),
            inserted: AtomicU32::new(0),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            empty_key_word: AtomicRecordWord::new(),
            empty_key_tracked: AtomicBool::new(false),
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

    /// The vector clock for `key`, creating it lazily.
    pub fn word(&self, key: u64) -> &AtomicRecordWord {
        self.words(&[key])[0]
    }

    /// The vector clocks of `keys`, in order, creating missing ones: one read
    /// lock of the index for the batch and one probe per key, released before
    /// the caller touches a word (the lock rule in the module docs). Every
    /// key's home slot is prefetched before the first probe, so the probes'
    /// misses overlap.
    fn words(&self, keys: &[u64]) -> Vec<&AtomicRecordWord> {
        let mut words = Vec::with_capacity(keys.len());
        loop {
            let slots = self.index.read();
            for &key in &keys[words.len()..] {
                prefetch(&slots[home(key, slots.len())]);
            }
            // Room this batch has reserved and not yet used.
            let mut room = 0;
            let mut short = None;
            for &key in &keys[words.len()..] {
                if key == EMPTY {
                    self.empty_key_tracked.store(true, Ordering::Relaxed);
                    words.push(&self.empty_key_word);
                    continue;
                }
                let id = match self.probe(&slots, key) {
                    Ok(id) => id,
                    Err(vacant) => {
                        if room == 0 {
                            // One reservation covers the rest of the batch, up
                            // to a step, so a big batch of mostly known keys
                            // does not grow the index for nothing.
                            let want = (keys.len() - words.len()).min(RESERVE_STEP);
                            if !self.reserve(slots.len(), want) {
                                short = Some(want);
                                break;
                            }
                            room = want;
                        }
                        let (id, claimed) = self.claim(&slots, vacant, key);
                        room -= claimed as usize;
                        id
                    }
                };
                words.push(self.arena_word(id));
            }
            if room > 0 {
                self.reserved.fetch_sub(room, Ordering::Relaxed);
            }
            drop(slots);
            match short {
                None => return words,
                Some(want) => self.grow(want),
            }
        }
    }

    /// Find `key`'s word id, or the vacant slot where its probe ended.
    fn probe(&self, slots: &[Slot], key: u64) -> Result<u32, usize> {
        let mask = slots.len() - 1;
        let mut pos = home(key, slots.len());
        loop {
            let slot = &slots[pos];
            match slot.key.load(Ordering::Acquire) {
                EMPTY => return Err(pos),
                k if k == key => return Ok(slot.id()),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    /// Insert `key` from the vacant slot `pos` onwards (another batch may
    /// claim that slot first): its word id, and whether this call inserted it.
    fn claim(&self, slots: &[Slot], mut pos: usize, key: u64) -> (u32, bool) {
        let mask = slots.len() - 1;
        loop {
            let slot = &slots[pos];
            match slot
                .key
                .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let id = self.inserted.fetch_add(1, Ordering::Relaxed);
                    assert!(id < PENDING, "staleness table is full");
                    let (chunk, _) = locate(id);
                    self.chunks[chunk].get_or_init(|| {
                        (0..1usize << (FIRST_CHUNK_BITS + chunk as u32))
                            .map(|_| AtomicRecordWord::new())
                            .collect()
                    });
                    slot.id.store(id, Ordering::Release);
                    return (id, true);
                }
                Err(k) if k == key => return (slot.id(), false),
                Err(_) => pos = (pos + 1) & mask,
            }
        }
    }

    /// Reserve room for `n` inserts in an index of `slots` slots, keeping it
    /// at most half full; false (and nothing reserved) when it must grow.
    fn reserve(&self, slots: usize, n: usize) -> bool {
        let before = self.reserved.fetch_add(n, Ordering::Relaxed);
        if (before + n) * 2 <= slots {
            return true;
        }
        self.reserved.fetch_sub(n, Ordering::Relaxed);
        false
    }

    /// Double the index until `n` more keys fit at most half full. Only the
    /// index is rehashed; no word moves.
    fn grow(&self, n: usize) {
        let mut slots = self.index.write();
        // No batch holds the read lock, so nothing is reserved but inserted.
        let want = (self.reserved.load(Ordering::Relaxed) + n) * 2;
        if slots.len() >= want {
            return; // another batch grew it, or gave its room back
        }
        let mut grown: Box<[Slot]> = (0..want.next_power_of_two())
            .map(|_| Slot::default())
            .collect();
        let mask = grown.len() - 1;
        for slot in slots.iter_mut() {
            let key = *slot.key.get_mut();
            if key == EMPTY {
                continue;
            }
            let mut pos = home(key, grown.len());
            while *grown[pos].key.get_mut() != EMPTY {
                pos = (pos + 1) & mask;
            }
            grown[pos] = Slot {
                key: AtomicU64::new(key),
                id: AtomicU32::new(*slot.id.get_mut()),
            };
        }
        *slots = grown;
    }

    /// Word `id`, whose chunk its inserter allocated before publishing it.
    fn arena_word(&self, id: u32) -> &AtomicRecordWord {
        let (chunk, offset) = locate(id);
        &self.chunks[chunk]
            .get()
            .expect("a published word has its chunk")[offset]
    }

    /// Current staleness of `key` (0 when never accessed).
    pub fn staleness_of(&self, key: u64) -> u32 {
        if key == EMPTY {
            return self.empty_key_word.staleness();
        }
        let slots = self.index.read();
        self.probe(&slots, key)
            .map_or(0, |id| self.arena_word(id).staleness())
    }

    /// Number of keys with a materialised vector clock. A disabled
    /// controller's admissions and Put batches track no key, so it stays 0.
    pub fn tracked_keys(&self) -> usize {
        self.inserted.load(Ordering::Relaxed) as usize
            + self.empty_key_tracked.load(Ordering::Relaxed) as usize
    }

    /// Bytes held by the staleness table: the index and every allocated
    /// arena chunk.
    fn tracked_bytes(&self) -> usize {
        let index = self.index.read().len() * std::mem::size_of::<Slot>();
        let words: usize = self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|c| c.len())
            .sum();
        index + words * std::mem::size_of::<AtomicRecordWord>()
    }

    /// Admit a whole batch of Gets in a single controller call: one stats
    /// update and one index lookup for the batch, then one staleness-counter
    /// CAS per key ([`AtomicRecordWord::try_admit_get`]). A key waits only
    /// while the staleness bound blocks it — never on a record latch — so a
    /// batch can neither deadlock against concurrent writers nor stall behind
    /// a Put that holds its latch across a slow engine call. Returns
    /// immediately when enforcement is disabled.
    ///
    /// Skipping the latch is sound because it would guard nothing here:
    ///
    /// * The caller reads only once the whole batch is admitted
    ///   (`EmbeddingTable::gather` then runs one `multi_read`). Holding each
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
        let bound = self.mode.bound();
        let words = self.words(keys);
        prefetch_all(&words);
        for (&key, word) in keys.iter().zip(words) {
            // Retry while the bound blocks the key, counted as one blocked
            // Get and failing after the wait timeout.
            let mut blocked_since: Option<Instant> = None;
            while !word.try_admit_get(bound) {
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
            if let Some(since) = blocked_since {
                self.stall_ns
                    .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Acquire the record locks for a batch of Puts in a single controller
    /// call, holding all guards until the returned vector is dropped. Keys are
    /// locked in sorted deduplicated order, so concurrent batches cannot
    /// deadlock against each other; Put acquisitions never wait on the
    /// staleness bound, only on the (always short-lived) record locks.
    /// Returns `None` when enforcement is disabled.
    pub fn acquire_put_batch(&self, keys: &[u64]) -> StorageResult<Option<Vec<RecordGuard<'_>>>> {
        if !self.enabled {
            return Ok(None);
        }
        let unique = sorted_unique(keys);
        self.puts.fetch_add(unique.len() as u64, Ordering::Relaxed);
        let words = self.words(&unique);
        prefetch_all(&words);
        Ok(Some(words.into_iter().map(lock_put).collect()))
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> StalenessStats {
        StalenessStats {
            blocked_gets: self.blocked_gets.load(Ordering::Relaxed),
            stall_ns: self.stall_ns.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            tracked_keys: self.tracked_keys() as u64,
            tracked_bytes: self.tracked_bytes() as u64,
        }
    }
}

/// `keys` sorted and deduplicated: the order batches take latches in.
fn sorted_unique(keys: &[u64]) -> Vec<u64> {
    let mut unique = keys.to_vec();
    unique.sort_unstable();
    unique.dedup();
    unique
}

/// Prefetch every word of a batch before its compare-and-swap loop: each CAS
/// waits for every earlier load, so without this the words' misses are paid
/// one after another.
fn prefetch_all(words: &[&AtomicRecordWord]) {
    for &word in words {
        prefetch(word);
    }
}

/// Spin until the Put lock on `word` is held (stats counted by callers).
fn lock_put(word: &AtomicRecordWord) -> RecordGuard<'_> {
    loop {
        if let Some(latch) = word.try_acquire_put() {
            return RecordGuard {
                word,
                latch: Some(latch),
            };
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        // Enforced, BSP would hold back every admission after the first.
        for _ in 0..10 {
            ctl.admit_get_batch(&[1]).unwrap();
        }
        assert_eq!(ctl.staleness_of(1), 0);
        assert_eq!(ctl.stats().blocked_gets, 0);
        assert_eq!(ctl.stats().gets, 0);
        assert_eq!(ctl.tracked_keys(), 0);
    }

    #[test]
    fn asp_mode_never_blocks() {
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        for _ in 0..100 {
            ctl.admit_get_batch(&[7]).unwrap();
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
            ctl.admit_get_batch(&[5]).unwrap();
        }
        let ctl2 = Arc::clone(&ctl);
        let unblocker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(ctl2.acquire_put_batch(&[5]).unwrap());
        });
        let start = Instant::now();
        ctl.admit_get_batch(&[5]).unwrap();
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
        ctl.admit_get_batch(&[1]).unwrap();
        let err = ctl.admit_get_batch(&[1]).unwrap_err();
        assert!(matches!(err, StorageError::StalenessTimeout { key: 1, .. }));
    }

    #[test]
    fn guard_drop_releases_lock() {
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        {
            let _guards = ctl.acquire_put_batch(&[3]).unwrap().unwrap();
            assert!(ctl.word(3).load().locked);
        }
        assert!(!ctl.word(3).load().locked);
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
        let put = ctl.acquire_put_batch(&[5]).unwrap().unwrap();
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
        let put = ctl.acquire_put_batch(&[5]).unwrap().unwrap();
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
        ctl.admit_get_batch(&[1]).unwrap();
        ctl.admit_get_batch(&[1]).unwrap();
        ctl.admit_get_batch(&[2]).unwrap();
        assert_eq!(ctl.staleness_of(1), 2);
        assert_eq!(ctl.staleness_of(2), 1);
        assert_eq!(ctl.staleness_of(3), 0);
        assert_eq!(ctl.tracked_keys(), 2);
        drop(ctl.acquire_put_batch(&[1]).unwrap());
        assert_eq!(ctl.staleness_of(1), 1);
    }

    #[test]
    fn four_threads_track_a_million_distinct_keys_exactly() {
        const KEYS: u64 = 1_000_000;
        let ctl = Arc::new(StalenessController::new(ConsistencyMode::Ssp(10), true));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let ctl = Arc::clone(&ctl);
                std::thread::spawn(move || {
                    // Interleaved keys, so the threads insert side by side.
                    let keys: Vec<u64> = (t..KEYS).step_by(4).collect();
                    for batch in keys.chunks(512) {
                        ctl.admit_get_batch(batch).unwrap();
                        let puts: Vec<u64> = batch.iter().copied().filter(|k| k % 8 < 4).collect();
                        drop(ctl.acquire_put_batch(&puts).unwrap());
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(ctl.tracked_keys(), KEYS as usize);
        for key in 0..KEYS {
            assert_eq!(ctl.staleness_of(key), (key % 8 >= 4) as u32, "key {key}");
        }
        let stats = ctl.stats();
        assert_eq!((stats.gets, stats.puts), (KEYS, KEYS / 2));
    }

    #[test]
    fn threads_inserting_the_same_keys_share_one_word_each() {
        const KEYS: u64 = 50_000;
        let ctl = Arc::new(StalenessController::new(ConsistencyMode::Asp, true));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ctl = Arc::clone(&ctl);
                std::thread::spawn(move || {
                    let keys: Vec<u64> = (0..KEYS).collect();
                    for batch in keys.chunks(256) {
                        ctl.admit_get_batch(batch).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(ctl.tracked_keys(), KEYS as usize);
        assert!((0..KEYS).all(|key| ctl.staleness_of(key) == 4));
    }

    #[test]
    fn batch_admission_grows_the_table_while_a_put_holds_the_latch() {
        let ctl = Arc::new(StalenessController::new(ConsistencyMode::Ssp(10), true));
        let put = ctl.acquire_put_batch(&[5]).unwrap().unwrap();
        let before = ctl.tracked_bytes();
        let (done, admitted) = std::sync::mpsc::channel();
        let admitter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                // Far more new keys than a fresh index holds: it must grow.
                let keys: Vec<u64> = (0..100_000).collect();
                ctl.admit_get_batch(&keys).unwrap();
                done.send(()).unwrap();
            })
        };
        // Watchdog: a growth that waits on the latch would hang until the put
        // is released below.
        let outcome = admitted.recv_timeout(Duration::from_secs(5));
        drop(put);
        admitter.join().unwrap();
        assert!(outcome.is_ok(), "a growing admission waited on a put latch");
        assert!(ctl.tracked_bytes() > before, "the index did not grow");
        assert_eq!(ctl.staleness_of(5), 1);
        assert_eq!(ctl.tracked_keys(), 100_000);
    }

    #[test]
    fn growth_completes_while_a_get_waits_on_the_bound() {
        let ctl = Arc::new(StalenessController::with_timeout(
            ConsistencyMode::Bsp,
            true,
            Duration::from_secs(5),
        ));
        ctl.admit_get_batch(&[5]).unwrap();
        let waiter = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || ctl.admit_get_batch(&[5]))
        };
        while ctl.stats().blocked_gets == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The blocked Get holds no index lock, so a growth goes through.
        let keys: Vec<u64> = (100..100_000).collect();
        ctl.admit_get_batch(&keys).unwrap();
        drop(ctl.acquire_put_batch(&[5]).unwrap());
        waiter.join().unwrap().unwrap();
        assert_eq!(ctl.staleness_of(5), 1);
    }

    #[test]
    fn a_guard_taken_before_a_growth_releases_the_same_word_after_it() {
        let ctl = StalenessController::new(ConsistencyMode::Ssp(10), true);
        ctl.admit_get_batch(&[7]).unwrap();
        let guard = ctl.acquire_put_batch(&[7]).unwrap().unwrap();
        let before = ctl.tracked_bytes();
        ctl.admit_get_batch(&(100..100_000).collect::<Vec<_>>())
            .unwrap();
        assert!(ctl.tracked_bytes() > before, "the index did not grow");
        assert!(ctl.word(7).load().locked);
        drop(guard);
        assert!(!ctl.word(7).load().locked);
        assert_eq!(ctl.staleness_of(7), 0, "the put landed on the same word");
    }

    #[test]
    fn keys_zero_and_max_are_tracked_like_any_other_key() {
        let ctl = StalenessController::new(ConsistencyMode::Ssp(1), true);
        assert_eq!(ctl.staleness_of(0), 0);
        assert_eq!(ctl.staleness_of(u64::MAX), 0);
        assert_eq!(ctl.tracked_keys(), 0);
        ctl.admit_get_batch(&[0, u64::MAX, 0, u64::MAX]).unwrap();
        assert_eq!(ctl.staleness_of(0), 2);
        assert_eq!(ctl.staleness_of(u64::MAX), 2);
        assert_eq!(ctl.tracked_keys(), 2);
        drop(ctl.acquire_put_batch(&[u64::MAX, 0]).unwrap());
        assert_eq!(ctl.staleness_of(0), 1);
        assert_eq!(ctl.staleness_of(u64::MAX), 1);
        let guard = ctl.acquire_put_batch(&[u64::MAX]).unwrap().unwrap();
        assert!(ctl.word(u64::MAX).load().locked);
        assert!(!ctl.word(0).load().locked);
        drop(guard);
        assert!(!ctl.word(u64::MAX).load().locked);
        assert_eq!(ctl.staleness_of(u64::MAX), 0);
        assert_eq!(ctl.tracked_keys(), 2);
    }

    #[test]
    fn stats_report_the_table_at_most_56_bytes_per_key() {
        const KEYS: u64 = 200_000;
        let ctl = StalenessController::new(ConsistencyMode::Asp, true);
        let keys: Vec<u64> = (0..KEYS).collect();
        drop(ctl.acquire_put_batch(&keys).unwrap());
        let stats = ctl.stats();
        assert_eq!(stats.tracked_keys, KEYS);
        assert!(
            stats.tracked_bytes <= 56 * KEYS,
            "{} B per key",
            stats.tracked_bytes / KEYS
        );
    }
}
