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
//! * **Locked** — record-level latch bit, taken only by a Put, for the
//!   duration of its update. A Get never takes it: its admission
//!   ([`AtomicRecordWord::try_admit_get`]) only bumps the staleness counter.
//! * **Replaced** — reserved for a record whose memory address another thread
//!   has replaced (e.g. an RCU append or a look-ahead promotion), so that
//!   readers retry through the index. Nothing sets it while the word lives in
//!   a side table beside the record rather than in its header.
//! * **Generation** — 30-bit version counter bumped on every completed update.
//! * **Staleness** — 32-bit counter of reads whose matching update has not yet
//!   been applied. A Get is admitted only while `staleness <= bound` (and then
//!   increments it); a Put never waits on the bound, and decreases staleness
//!   only when it releases the latch, once its update has landed — so a Get
//!   the bound holds back is freed only by a completed Put.

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

/// A Put's hold on a record latch, from [`AtomicRecordWord::try_acquire_put`];
/// hand it back to [`AtomicRecordWord::release_put`].
#[must_use]
#[derive(Debug)]
pub struct PutLatch {
    /// Reads were outstanding when the latch was taken, so this Put is the
    /// update one of them waits for and lowers staleness on release. Decided
    /// at acquisition: while the latch is held only Get admissions touch
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

    /// Get admission: requires `staleness <= bound` and increments
    /// staleness, leaving Locked, Replaced and Generation as found — a
    /// latch held by a Put does not delay it. A CAS that loses to a
    /// concurrent change re-checks the fresh word. Returns `false` while the
    /// bound blocks the Get; wait until a Put lands.
    pub fn try_admit_get(&self, bound: u32) -> bool {
        self.word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |observed| {
                let cur = RecordWord::unpack(observed);
                (cur.staleness <= bound).then(|| {
                    RecordWord {
                        staleness: cur.staleness.saturating_add(1),
                        ..cur
                    }
                    .pack()
                })
            })
            .is_ok()
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

    /// Release a Put's latch once its update has landed: clears Locked, bumps
    /// the generation (wrapping within its 30 bits) and, in the same
    /// compare-and-swap, decrements staleness when the Put found reads
    /// outstanding.
    pub fn release_put(&self, latch: PutLatch) {
        let lower = latch.lowers_staleness as u32;
        // The update never refuses, so the result carries nothing.
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |observed| {
                let cur = RecordWord::unpack(observed);
                Some(
                    RecordWord {
                        locked: false,
                        generation: (cur.generation + 1) & (GENERATION_MASK as u32),
                        staleness: cur.staleness.saturating_sub(lower),
                        ..cur
                    }
                    .pack(),
                )
            });
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
        assert!(word.try_admit_get(4));
        assert_eq!(word.staleness(), 1);
        word.release_put(put(&word));
        assert_eq!(word.staleness(), 0);
        assert_eq!(word.generation(), 1, "only a Put bumps the generation");
    }

    #[test]
    fn staleness_bound_blocks_gets() {
        let word = AtomicRecordWord::new();
        // Bound 1: two outstanding Gets are allowed (staleness 0 and 1), a third must wait.
        assert!(word.try_admit_get(1));
        assert!(word.try_admit_get(1));
        assert!(!word.try_admit_get(1));
        // A Put unblocks it.
        word.release_put(put(&word));
        assert!(word.try_admit_get(1));
    }

    #[test]
    fn bound_zero_is_bsp() {
        let word = AtomicRecordWord::new();
        assert!(word.try_admit_get(0));
        assert!(!word.try_admit_get(0));
        word.release_put(put(&word));
        assert!(word.try_admit_get(0));
    }

    #[test]
    fn batch_admission_passes_a_held_latch_and_keeps_its_bits() {
        let word = AtomicRecordWord::new();
        let latch = put(&word);
        let held = word.load();
        assert!(word.try_admit_get(1));
        assert!(word.try_admit_get(1));
        assert!(!word.try_admit_get(1));
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
        word.release_put(latch);
        assert_eq!(word.staleness(), 2);
        assert!(!word.load().locked);
    }

    #[test]
    fn put_lowers_staleness_only_when_it_releases() {
        let word = AtomicRecordWord::new();
        assert!(word.try_admit_get(0));
        let latch = put(&word);
        // BSP: the read the Put answers stays outstanding until it lands.
        assert_eq!(word.staleness(), 1);
        assert!(!word.try_admit_get(0));
        word.release_put(latch);
        assert_eq!(word.staleness(), 0);
        assert!(word.try_admit_get(0));
    }

    #[test]
    fn locked_record_causes_contention() {
        let word = AtomicRecordWord::new();
        let latch = put(&word);
        assert!(word.try_acquire_put().is_none());
        word.release_put(latch);
        assert!(word.try_acquire_put().is_some());
    }

    #[test]
    fn put_never_underflows_staleness() {
        let word = AtomicRecordWord::new();
        for _ in 0..3 {
            word.release_put(put(&word));
        }
        assert_eq!(word.staleness(), 0);
    }

    #[test]
    fn generation_wraps_within_30_bits() {
        let word = AtomicRecordWord::new();
        // Fake a generation at the 30-bit maximum, then complete one more Put.
        word.word.store(
            RecordWord {
                locked: false,
                replaced: false,
                generation: (1 << 30) - 1,
                staleness: 5,
            }
            .pack(),
            Ordering::SeqCst,
        );
        word.release_put(put(&word));
        let cur = word.load();
        assert_eq!(cur.generation, 0);
        assert_eq!(cur.staleness, 4, "the wrap leaves the counter alone");
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
                    assert!(word.try_admit_get(u32::MAX));
                    let latch = loop {
                        if let Some(latch) = word.try_acquire_put() {
                            break latch;
                        }
                        std::hint::spin_loop();
                    };
                    word.release_put(latch);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_word = word.load();
        assert_eq!(final_word.staleness, 0);
        assert!(!final_word.locked);
        assert_eq!(final_word.generation, 400);
    }
}
