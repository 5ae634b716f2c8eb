//! The MLKV record word: a latch-free vector clock packed into the 64-bit
//! record-level lock word (paper Figure 5(a)).
//!
//! ```text
//!  bit 63    bit 62    bits 32..61      bits 0..31
//! +--------+---------+---------------+--------------+
//! | Locked | Replaced| Generation(30)| Staleness(32)|
//! +--------+---------+---------------+--------------+
//! ```
//!
//! * **Locked** — record-level latch bit; acquired by a Put for the duration
//!   of its update and by a per-key Get for its read. A batch Get admission
//!   ([`AtomicRecordWord::try_admit_get`]) only bumps the staleness counter.
//! * **Replaced** — set when the record's memory address has been replaced by
//!   another thread (e.g. an RCU append or a look-ahead promotion); readers that
//!   observe it retry through the index.
//! * **Generation** — 30-bit version counter bumped on every completed update so
//!   that the latest value is always returned.
//! * **Staleness** — 32-bit counter of reads whose matching update has not yet
//!   been applied. A Get must wait until `staleness <= bound` before acquiring
//!   the lock (and then increments it); a Put never waits, and decreases
//!   staleness only when it releases the latch, once its update has landed —
//!   so a Get the bound holds back is freed only by a completed Put.

use std::sync::atomic::{AtomicU64, Ordering};

const STALENESS_BITS: u32 = 32;
const GENERATION_BITS: u32 = 30;
const STALENESS_MASK: u64 = (1 << STALENESS_BITS) - 1;
const GENERATION_MASK: u64 = (1 << GENERATION_BITS) - 1;
const GENERATION_SHIFT: u32 = STALENESS_BITS;
const REPLACED_SHIFT: u32 = 62;
const LOCKED_SHIFT: u32 = 63;

/// A decoded record word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecordWord {
    /// Record-level latch.
    pub locked: bool,
    /// The record's memory address has been replaced.
    pub replaced: bool,
    /// 30-bit version counter.
    pub generation: u32,
    /// 32-bit staleness counter.
    pub staleness: u32,
}

impl RecordWord {
    /// Pack into the 64-bit representation.
    pub fn pack(&self) -> u64 {
        ((self.locked as u64) << LOCKED_SHIFT)
            | ((self.replaced as u64) << REPLACED_SHIFT)
            | (((self.generation as u64) & GENERATION_MASK) << GENERATION_SHIFT)
            | ((self.staleness as u64) & STALENESS_MASK)
    }

    /// Unpack from the 64-bit representation.
    pub fn unpack(word: u64) -> Self {
        Self {
            locked: (word >> LOCKED_SHIFT) & 1 == 1,
            replaced: (word >> REPLACED_SHIFT) & 1 == 1,
            generation: ((word >> GENERATION_SHIFT) & GENERATION_MASK) as u32,
            staleness: (word & STALENESS_MASK) as u32,
        }
    }
}

/// Outcome of one lock-acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was acquired (the CAS succeeded).
    Acquired,
    /// The record is currently locked by another thread; retry.
    Contended,
    /// The staleness bound blocks this Get; wait until a Put lands.
    StalenessBlocked,
}

/// A Put's hold on a record latch, from [`AtomicRecordWord::try_acquire_put`];
/// hand it back to [`AtomicRecordWord::release_put`].
#[must_use]
#[derive(Debug)]
pub struct PutLatch {
    /// Reads were outstanding when the latch was taken, so this Put is the
    /// update one of them waits for and lowers staleness on release. Decided
    /// at acquisition: while the latch is held only batch admissions touch
    /// the counter, and they only raise it, so the release never takes back
    /// a read admitted meanwhile.
    lowers_staleness: bool,
}

/// The atomic record word with the paper's Get/Put acquisition protocol.
#[derive(Debug, Default)]
pub struct AtomicRecordWord {
    word: AtomicU64,
}

impl AtomicRecordWord {
    /// A fresh word: unlocked, generation 0, staleness 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current decoded value.
    pub fn load(&self) -> RecordWord {
        RecordWord::unpack(self.word.load(Ordering::Acquire))
    }

    /// Attempt the Get-side acquisition: requires `staleness <= bound`, the
    /// record unlocked and not replaced; on success sets Locked and increments
    /// staleness in a single compare-and-swap.
    pub fn try_acquire_get(&self, bound: u32) -> AcquireOutcome {
        let observed = self.word.load(Ordering::Acquire);
        let cur = RecordWord::unpack(observed);
        if cur.locked {
            return AcquireOutcome::Contended;
        }
        if cur.staleness > bound {
            return AcquireOutcome::StalenessBlocked;
        }
        let desired = RecordWord {
            locked: true,
            replaced: cur.replaced,
            generation: cur.generation,
            staleness: cur.staleness.saturating_add(1),
        };
        match self.word.compare_exchange(
            observed,
            desired.pack(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => AcquireOutcome::Acquired,
            Err(_) => AcquireOutcome::Contended,
        }
    }

    /// Batch Get admission: requires `staleness <= bound` and increments
    /// staleness, leaving Locked, Replaced and Generation as found — a
    /// latch held by a Put does not delay it. Returns
    /// [`AcquireOutcome::Acquired`] or [`AcquireOutcome::StalenessBlocked`],
    /// never `Contended`: a CAS that loses to a concurrent change re-checks
    /// the fresh word.
    pub fn try_admit_get(&self, bound: u32) -> AcquireOutcome {
        let admitted = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |observed| {
                let cur = RecordWord::unpack(observed);
                (cur.staleness <= bound).then(|| {
                    RecordWord {
                        staleness: cur.staleness.saturating_add(1),
                        ..cur
                    }
                    .pack()
                })
            });
        match admitted {
            Ok(_) => AcquireOutcome::Acquired,
            Err(_) => AcquireOutcome::StalenessBlocked,
        }
    }

    /// Attempt the Put-side acquisition: skips the staleness check entirely (a
    /// Put only reduces staleness) and sets Locked in a single
    /// compare-and-swap. The decrement waits for [`AtomicRecordWord::release_put`]:
    /// lowering staleness before the update lands would admit a Get the
    /// bound holds back in time to read the value this Put is replacing.
    /// Returns `None` while the record is latched.
    pub fn try_acquire_put(&self) -> Option<PutLatch> {
        let observed = self.word.load(Ordering::Acquire);
        let cur = RecordWord::unpack(observed);
        if cur.locked {
            return None;
        }
        let desired = RecordWord {
            locked: true,
            ..cur
        };
        self.word
            .compare_exchange(
                observed,
                desired.pack(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .ok()
            .map(|_| PutLatch {
                lowers_staleness: cur.staleness > 0,
            })
    }

    /// Attempt a staleness-neutral latch acquisition: sets Locked without
    /// touching the staleness counter. Used for maintenance writes that are
    /// neither a Get nor a Put in the consistency protocol — e.g. materialising
    /// a lazily-initialised record — so they exclude concurrent operations on
    /// the record without perturbing its vector clock.
    pub fn try_acquire_latch(&self) -> AcquireOutcome {
        let observed = self.word.load(Ordering::Acquire);
        let cur = RecordWord::unpack(observed);
        if cur.locked {
            return AcquireOutcome::Contended;
        }
        let desired = RecordWord {
            locked: true,
            ..cur
        };
        match self.word.compare_exchange(
            observed,
            desired.pack(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => AcquireOutcome::Acquired,
            Err(_) => AcquireOutcome::Contended,
        }
    }

    /// Release the lock after a completed operation: clears Locked, bumps the
    /// generation (wrapping within its 30 bits) and optionally sets Replaced
    /// when the operation relocated the record.
    pub fn release(&self, mark_replaced: bool) {
        self.finish(mark_replaced, false);
    }

    /// Release a Put's latch once its update has landed: like
    /// [`AtomicRecordWord::release`], and in the same compare-and-swap
    /// decrements staleness when the Put found reads outstanding.
    pub fn release_put(&self, latch: PutLatch, mark_replaced: bool) {
        self.finish(mark_replaced, latch.lowers_staleness);
    }

    fn finish(&self, mark_replaced: bool, lower_staleness: bool) {
        loop {
            let observed = self.word.load(Ordering::Acquire);
            let mut cur = RecordWord::unpack(observed);
            cur.locked = false;
            cur.replaced = cur.replaced || mark_replaced;
            cur.generation = (cur.generation + 1) & (GENERATION_MASK as u32);
            cur.staleness = cur.staleness.saturating_sub(lower_staleness as u32);
            if self
                .word
                .compare_exchange(observed, cur.pack(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Clear the Replaced bit (done after the index has been re-read and the
    /// fresh record located).
    pub fn clear_replaced(&self) {
        loop {
            let observed = self.word.load(Ordering::Acquire);
            let mut cur = RecordWord::unpack(observed);
            if !cur.replaced {
                return;
            }
            cur.replaced = false;
            if self
                .word
                .compare_exchange(observed, cur.pack(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Current staleness (number of outstanding reads).
    pub fn staleness(&self) -> u32 {
        self.load().staleness
    }

    /// Current generation.
    pub fn generation(&self) -> u32 {
        self.load().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn put(word: &AtomicRecordWord) -> PutLatch {
        word.try_acquire_put().expect("record unlatched")
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let cases = [
            RecordWord::default(),
            RecordWord {
                locked: true,
                replaced: false,
                generation: 0,
                staleness: 0,
            },
            RecordWord {
                locked: false,
                replaced: true,
                generation: (1 << 30) - 1,
                staleness: u32::MAX,
            },
            RecordWord {
                locked: true,
                replaced: true,
                generation: 12345,
                staleness: 678,
            },
        ];
        for case in cases {
            assert_eq!(RecordWord::unpack(case.pack()), case);
        }
    }

    #[test]
    fn bit_layout_matches_figure_5a() {
        let w = RecordWord {
            locked: true,
            replaced: false,
            generation: 1,
            staleness: 1,
        }
        .pack();
        assert_eq!(w, (1 << 63) | (1 << 32) | 1);
    }

    #[test]
    fn get_increments_staleness_and_put_decrements() {
        let word = AtomicRecordWord::new();
        assert_eq!(word.try_acquire_get(4), AcquireOutcome::Acquired);
        word.release(false);
        assert_eq!(word.staleness(), 1);
        word.release_put(put(&word), false);
        assert_eq!(word.staleness(), 0);
        assert_eq!(word.generation(), 2);
    }

    #[test]
    fn staleness_bound_blocks_gets() {
        let word = AtomicRecordWord::new();
        // Bound 1: two outstanding Gets are allowed (staleness 0 and 1), a third must wait.
        assert_eq!(word.try_acquire_get(1), AcquireOutcome::Acquired);
        word.release(false);
        assert_eq!(word.try_acquire_get(1), AcquireOutcome::Acquired);
        word.release(false);
        assert_eq!(word.try_acquire_get(1), AcquireOutcome::StalenessBlocked);
        // A Put unblocks it.
        word.release_put(put(&word), false);
        assert_eq!(word.try_acquire_get(1), AcquireOutcome::Acquired);
    }

    #[test]
    fn bound_zero_is_bsp() {
        let word = AtomicRecordWord::new();
        assert_eq!(word.try_acquire_get(0), AcquireOutcome::Acquired);
        word.release(false);
        assert_eq!(word.try_acquire_get(0), AcquireOutcome::StalenessBlocked);
        word.release_put(put(&word), false);
        assert_eq!(word.try_acquire_get(0), AcquireOutcome::Acquired);
    }

    #[test]
    fn latch_excludes_other_operations_without_touching_staleness() {
        let word = AtomicRecordWord::new();
        word.try_acquire_get(4);
        word.release(false);
        assert_eq!(word.staleness(), 1);
        assert_eq!(word.try_acquire_latch(), AcquireOutcome::Acquired);
        assert!(word.try_acquire_put().is_none());
        assert_eq!(word.try_acquire_get(4), AcquireOutcome::Contended);
        assert_eq!(word.try_acquire_latch(), AcquireOutcome::Contended);
        word.release(false);
        assert_eq!(word.staleness(), 1, "latch must not change staleness");
    }

    #[test]
    fn batch_admission_passes_a_held_latch_and_keeps_its_bits() {
        let word = AtomicRecordWord::new();
        let latch = put(&word);
        let held = word.load();
        assert_eq!(word.try_admit_get(1), AcquireOutcome::Acquired);
        assert_eq!(word.try_admit_get(1), AcquireOutcome::Acquired);
        assert_eq!(word.try_admit_get(1), AcquireOutcome::StalenessBlocked);
        let admitted = word.load();
        assert_eq!(
            admitted,
            RecordWord {
                staleness: 2,
                ..held
            },
            "only the staleness counter moves"
        );
        // The Put found no read outstanding, so its release keeps the
        // reads admitted meanwhile counted.
        word.release_put(latch, false);
        assert_eq!(word.staleness(), 2);
        assert!(!word.load().locked);
    }

    #[test]
    fn put_lowers_staleness_only_when_it_releases() {
        let word = AtomicRecordWord::new();
        assert_eq!(word.try_admit_get(0), AcquireOutcome::Acquired);
        let latch = put(&word);
        // BSP: the read the Put answers stays outstanding until it lands.
        assert_eq!(word.staleness(), 1);
        assert_eq!(word.try_admit_get(0), AcquireOutcome::StalenessBlocked);
        word.release_put(latch, false);
        assert_eq!(word.staleness(), 0);
        assert_eq!(word.try_admit_get(0), AcquireOutcome::Acquired);
    }

    #[test]
    fn locked_record_causes_contention() {
        let word = AtomicRecordWord::new();
        assert_eq!(word.try_acquire_get(10), AcquireOutcome::Acquired);
        assert_eq!(word.try_acquire_get(10), AcquireOutcome::Contended);
        assert!(word.try_acquire_put().is_none());
        word.release(false);
        assert!(word.try_acquire_put().is_some());
    }

    #[test]
    fn put_never_underflows_staleness() {
        let word = AtomicRecordWord::new();
        for _ in 0..3 {
            word.release_put(put(&word), false);
        }
        assert_eq!(word.staleness(), 0);
    }

    #[test]
    fn replaced_bit_set_and_cleared() {
        let word = AtomicRecordWord::new();
        word.release_put(put(&word), true);
        assert!(word.load().replaced);
        word.clear_replaced();
        assert!(!word.load().replaced);
        // Clearing when already clear is a no-op.
        word.clear_replaced();
        assert!(!word.load().replaced);
    }

    #[test]
    fn generation_wraps_within_30_bits() {
        let word = AtomicRecordWord::new();
        // Fake a generation at the 30-bit maximum, then release once more.
        word.word.store(
            RecordWord {
                locked: true,
                replaced: false,
                generation: (1 << 30) - 1,
                staleness: 5,
            }
            .pack(),
            Ordering::SeqCst,
        );
        word.release(false);
        let cur = word.load();
        assert_eq!(cur.generation, 0);
        assert_eq!(cur.staleness, 5, "staleness untouched by release");
    }

    #[test]
    fn concurrent_gets_and_puts_balance_staleness() {
        let word = Arc::new(AtomicRecordWord::new());
        let mut handles = Vec::new();
        // 4 threads each performing 100 matched Get+Put pairs with a generous bound.
        for _ in 0..4 {
            let word = Arc::clone(&word);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    loop {
                        if word.try_acquire_get(u32::MAX) == AcquireOutcome::Acquired {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    word.release(false);
                    let latch = loop {
                        if let Some(latch) = word.try_acquire_put() {
                            break latch;
                        }
                        std::hint::spin_loop();
                    };
                    word.release_put(latch, false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_word = word.load();
        assert_eq!(final_word.staleness, 0);
        assert!(!final_word.locked);
        assert_eq!(final_word.generation, 800 & ((1 << 30) - 1));
    }
}
