//! Lock-free tagged hash index, in the shape of FASTER's (Chandramouli et
//! al., SIGMOD 2018).
//!
//! # Layout
//!
//! The index is an array of cache-line buckets. A bucket holds seven
//! entries and a link to an overflow bucket; a bucket plus the overflow
//! buckets hanging off it is a *chain*. An entry is one `AtomicU64`:
//!
//! ```text
//!  bit 63   bits 48..62   bits 0..47
//! +-------+-------------+--------------+
//! |   0   |   tag (15)  | address (48) |
//! +-------+-------------+--------------+
//! ```
//!
//! `0` is the empty entry (no record lives at address 0). A key's hash picks
//! its chain ([`HashIndex::bucket_of`]) and, from hash bits the bucket does
//! not use, its tag ([`HashIndex::tag_of`]). The key's entry is the first
//! entry in its chain that carries its tag, and holds the address of the
//! newest record of every key with that (bucket, tag) — almost always one
//! key, so the record chain on the log (each record stores the address it
//! replaced) holds only that key's versions. Entries are updated by
//! compare-and-swap, so concurrent upserts of a key linearize on its entry
//! just like FASTER.
//!
//! # Claim protocol
//!
//! A key without an entry claims the first empty entry of its chain by CAS.
//! A CAS lost to a claimer of the same tag adopts the winner's entry; one
//! lost to another tag moves on to the next entry. A chain with no empty
//! entry grows by one overflow bucket, linked by CAS on the last bucket's
//! link (the loser frees its allocation and follows the winner's). Entries
//! never become empty again, so claimed entries always form a prefix of
//! their chain, "scan until the tag or the first empty entry" is exact, and
//! each tag appears at most once per chain. Overflow buckets are freed when
//! the index is dropped.
//!
//! # Invariant
//!
//! Whether two keys share an entry depends only on the keys and the index
//! size, through (bucket, tag) — never on insertion order. That keeps
//! recovery exact: it builds an index of the size the checkpoint recorded
//! ([`HashIndex::entries`]) and re-runs [`HashIndex::set_head`] over the log
//! in log order, and every record's link then meets the same entry it was
//! written against. Anything that lets sharing differ between the writer
//! and the rebuild breaks this — a different size, or a design that lets a
//! key fall back to a bucket-mate's entry when its chain is full: a key
//! that had its own entry before a crash could share one after reopen, and
//! its newest record would become unreachable.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::address::Address;

/// Entries per bucket: seven entries and the overflow link fill a cache line.
const ENTRIES: usize = 7;
/// Memory cost of one index entry; [`HashIndex::new`] sizes by it.
const ENTRY_BYTES: usize = 8;
const ADDRESS_MASK: u64 = (1 << 48) - 1;
const TAG_SHIFT: u32 = 48;
/// The empty entry.
const EMPTY: u64 = 0;
/// Hash bits below the bucket number; the bucket uses bits 17.. and the tag
/// the top 15, so up to 2^32 buckets the two never overlap.
const BUCKET_SHIFT: u32 = 17;
const TAG_HASH_SHIFT: u32 = 64 - 15;

/// One cache line of the index: seven tagged entries and the link to the
/// chain's next (overflow) bucket.
#[repr(align(64))]
#[derive(Default)]
struct Bucket {
    entries: [AtomicU64; ENTRIES],
    /// Owning link to the next bucket (null at the chain's end). A raw
    /// pointer because nothing safe publishes an owned allocation by CAS in
    /// 8 bytes: `OnceLock<Box<Bucket>>` takes 16 and would push the bucket
    /// past its cache line.
    overflow: AtomicPtr<Bucket>,
}

impl Bucket {
    /// The chain's next bucket, if one was linked.
    fn next(&self) -> Option<&Bucket> {
        // SAFETY: a non-null link comes from `Box::into_raw` in
        // `next_or_grow`, published by a successful (Release) CAS after the
        // bucket was initialised, which this Acquire load synchronises with.
        // It is freed only by `Drop`, which needs `&mut self`, so it
        // outlives the `&self` borrow the result is tied to.
        unsafe { self.overflow.load(Ordering::Acquire).as_ref() }
    }

    /// The chain's next bucket, linking a fresh one when there is none.
    fn next_or_grow(&self) -> &Bucket {
        if self.next().is_none() {
            let fresh = Box::into_raw(Box::<Bucket>::default());
            let linked = self.overflow.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if linked.is_err() {
                // SAFETY: the CAS failed, so `fresh` was never published and
                // this thread still owns it; another claimer's bucket won.
                drop(unsafe { Box::from_raw(fresh) });
            }
        }
        self.next().expect("a link was just published")
    }
}

impl Drop for Bucket {
    fn drop(&mut self) {
        // Free the overflow chain iteratively: a recursive drop could
        // overflow the stack on a long chain of a tiny index.
        let mut next = std::mem::replace(self.overflow.get_mut(), ptr::null_mut());
        while !next.is_null() {
            // SAFETY: `&mut self` proves no borrow of the chain is alive, and
            // each link is owned by exactly one bucket.
            let mut bucket = unsafe { Box::from_raw(next) };
            next = std::mem::replace(bucket.overflow.get_mut(), ptr::null_mut());
        }
    }
}

/// The address stored in an entry word.
fn address_of(word: u64) -> Address {
    Address::new(word & ADDRESS_MASK)
}

/// An entry word carrying `word`'s tag and `addr`.
fn with_address(word: u64, addr: Address) -> u64 {
    assert!(addr.raw() <= ADDRESS_MASK, "address {addr} beyond 48 bits");
    (word & !ADDRESS_MASK) | addr.raw()
}

/// Lock-free array of tagged bucket chains (see the module docs).
pub struct HashIndex {
    buckets: Box<[Bucket]>,
    mask: u64,
}

impl HashIndex {
    /// Create an index of at least `min_entries` entries, rounded up to a
    /// power of two, at 8 bytes each: `min_entries / 8` buckets of one cache
    /// line (at least one), plus overflow buckets as chains fill up.
    pub fn new(min_entries: usize) -> Self {
        let bytes = min_entries.max(1).next_power_of_two() * ENTRY_BYTES;
        let n = (bytes / std::mem::size_of::<Bucket>()).max(1);
        Self {
            buckets: (0..n).map(|_| Bucket::default()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Size in entries, as [`HashIndex::new`] takes it: an index built with
    /// `HashIndex::new(index.entries())` has the same buckets and tags.
    pub fn entries(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket>() / ENTRY_BYTES
    }

    /// Number of buckets, not counting overflow buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of overflow buckets linked so far.
    pub fn overflow_buckets(&self) -> usize {
        self.buckets
            .iter()
            .map(|bucket| std::iter::successors(bucket.next(), |b| b.next()).count())
            .sum()
    }

    #[inline]
    fn hash(key: u64) -> u64 {
        // Fibonacci hashing — good spread for sequential embedding ids.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Bucket (chain) index for `key`.
    #[inline]
    pub fn bucket_of(&self, key: u64) -> usize {
        ((Self::hash(key) >> BUCKET_SHIFT) & self.mask) as usize
    }

    /// The 15-bit tag that tells `key` from its bucket-mates, taken from hash
    /// bits [`HashIndex::bucket_of`] does not use.
    #[inline]
    pub fn tag_of(key: u64) -> u16 {
        (Self::hash(key) >> TAG_HASH_SHIFT) as u16
    }

    /// Walk `key`'s chain to the entry carrying its tag and return it with
    /// the word it held. With `claim = Some(addr)`, a key without an entry
    /// claims the first empty one with `addr` (growing the chain when it is
    /// full) and the returned word is [`EMPTY`]; with `None` it has no entry.
    fn locate(&self, key: u64, claim: Option<Address>) -> Option<(&AtomicU64, u64)> {
        let tag = u64::from(Self::tag_of(key)) << TAG_SHIFT;
        let mut bucket = &self.buckets[self.bucket_of(key)];
        loop {
            for entry in &bucket.entries {
                let mut word = entry.load(Ordering::Acquire);
                if word == EMPTY {
                    let claimed = with_address(tag, claim?);
                    match entry.compare_exchange(
                        EMPTY,
                        claimed,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return Some((entry, EMPTY)),
                        Err(winner) => word = winner,
                    }
                }
                if word & !ADDRESS_MASK == tag {
                    return Some((entry, word));
                }
            }
            bucket = match claim {
                Some(_) => bucket.next_or_grow(),
                None => bucket.next()?,
            };
        }
    }

    /// Start loading `key`'s bucket into the cache, so that a later
    /// [`HashIndex::head`] of it finds the line on its way (a batch
    /// prefetches every key's bucket before it walks the first).
    #[inline]
    pub fn prefetch(&self, key: u64) {
        mlkv_storage::prefetch(&self.buckets[self.bucket_of(key)]);
    }

    /// Current chain head for `key`: the newest record of its (bucket, tag).
    pub fn head(&self, key: u64) -> Address {
        self.locate(key, None)
            .map_or(Address::INVALID, |(_, word)| address_of(word))
    }

    /// Atomically replace the chain head of `key` with `new` (a record's
    /// address, never invalid), but only if it is still `expected`. Returns
    /// the observed value on failure.
    pub fn compare_exchange(
        &self,
        key: u64,
        expected: Address,
        new: Address,
    ) -> Result<(), Address> {
        debug_assert!(!new.is_invalid(), "an entry never empties again");
        match self.locate(key, expected.is_invalid().then_some(new)) {
            Some((_, EMPTY)) => Ok(()),
            Some((entry, word)) => entry
                .compare_exchange(
                    with_address(word, expected),
                    with_address(word, new),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .map(|_| ())
                .map_err(address_of),
            None => Err(Address::INVALID),
        }
    }

    /// Unconditionally set the chain head for `key` (recovery only).
    pub fn set_head(&self, key: u64, addr: Address) {
        match self.locate(key, Some(addr)) {
            Some((_, EMPTY)) => {}
            Some((entry, word)) => entry.store(with_address(word, addr), Ordering::Release),
            None => unreachable!("a claiming walk always ends at an entry"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `n` distinct keys with pairwise distinct tags in `key`'s bucket.
    fn bucket_mates(idx: &HashIndex, key: u64, n: usize) -> Vec<u64> {
        let mut tags = std::collections::HashSet::new();
        (0..)
            .filter(|&k| {
                idx.bucket_of(k) == idx.bucket_of(key) && tags.insert(HashIndex::tag_of(k))
            })
            .take(n)
            .collect()
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            64,
            "a bucket is one cache line"
        );
        // Entries round up to a power of two, eight bytes each.
        assert_eq!(HashIndex::new(16).bucket_count(), 2);
        assert_eq!(HashIndex::new(17).bucket_count(), 4);
        assert_eq!(HashIndex::new(1 << 18).bucket_count(), 1 << 15);
        // Tiny indexes still have one bucket.
        assert_eq!(HashIndex::new(3).bucket_count(), 1);
        assert_eq!(HashIndex::new(0).bucket_count(), 1);
        // `entries()` rebuilds the same shape.
        for n in [0, 3, 16, 17, 1 << 18] {
            let idx = HashIndex::new(n);
            assert_eq!(
                HashIndex::new(idx.entries()).bucket_count(),
                idx.bucket_count()
            );
        }
    }

    #[test]
    fn head_starts_invalid_and_cas_installs() {
        let idx = HashIndex::new(8);
        assert!(idx.head(42).is_invalid());
        idx.compare_exchange(42, Address::INVALID, Address::new(64))
            .unwrap();
        assert_eq!(idx.head(42), Address::new(64));
        // CAS with stale expectation fails and reports current.
        let err = idx
            .compare_exchange(42, Address::INVALID, Address::new(128))
            .unwrap_err();
        assert_eq!(err, Address::new(64));
        idx.compare_exchange(42, Address::new(64), Address::new(128))
            .unwrap();
        assert_eq!(idx.head(42), Address::new(128));
        // A key that never installed has no head to swap from.
        assert_eq!(
            idx.compare_exchange(7, Address::new(64), Address::new(192)),
            Err(Address::INVALID)
        );
    }

    #[test]
    fn distinct_tags_in_one_bucket_get_separate_entries() {
        let idx = HashIndex::new(2);
        let keys = bucket_mates(&idx, 1, 3);
        for (i, &k) in keys.iter().enumerate() {
            idx.set_head(k, Address::new(64 * (i as u64 + 1)));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.head(k), Address::new(64 * (i as u64 + 1)), "key {k}");
        }
        assert_eq!(idx.overflow_buckets(), 0);
    }

    #[test]
    fn tag_mates_share_one_entry() {
        let idx = HashIndex::new(2);
        let k1 = 1u64;
        let k2 = (2u64..)
            .find(|&k| {
                idx.bucket_of(k) == idx.bucket_of(k1)
                    && HashIndex::tag_of(k) == HashIndex::tag_of(k1)
            })
            .unwrap();
        idx.set_head(k1, Address::new(100));
        assert_eq!(idx.head(k2), Address::new(100));
        idx.compare_exchange(k2, Address::new(100), Address::new(200))
            .unwrap();
        assert_eq!(idx.head(k1), Address::new(200));
    }

    #[test]
    fn more_than_seven_tags_allocate_an_overflow_bucket() {
        let idx = HashIndex::new(2);
        let keys = bucket_mates(&idx, 1, 2 * ENTRIES + 1);
        for (i, &k) in keys.iter().enumerate() {
            idx.compare_exchange(k, Address::INVALID, Address::new(64 * (i as u64 + 1)))
                .unwrap();
            let full_buckets = (i + 1).div_ceil(ENTRIES) - 1;
            assert_eq!(idx.overflow_buckets(), full_buckets, "after {} keys", i + 1);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.head(k), Address::new(64 * (i as u64 + 1)), "key {k}");
        }
    }

    #[test]
    fn concurrent_claims_in_one_bucket_lose_no_install() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 16;
        let idx = Arc::new(HashIndex::new(2));
        let keys = Arc::new(bucket_mates(&idx, 1, THREADS * PER_THREAD));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (idx, keys) = (Arc::clone(&idx), Arc::clone(&keys));
                std::thread::spawn(move || {
                    // Interleaved so every thread races for the same entries
                    // and the same overflow links.
                    for i in (t..keys.len()).step_by(THREADS) {
                        let addr = Address::new(64 * (i as u64 + 1));
                        idx.compare_exchange(keys[i], Address::INVALID, addr)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.head(k), Address::new(64 * (i as u64 + 1)), "key {k}");
        }
        // Every tag appears exactly once across the chain.
        let mut seen = Vec::new();
        for b in std::iter::successors(Some(&idx.buckets[0]), |b| b.next()) {
            for entry in &b.entries {
                let word = entry.load(Ordering::Acquire);
                if word != EMPTY {
                    seen.push(word >> TAG_SHIFT);
                }
            }
        }
        seen.sort_unstable();
        let mut want: Vec<u64> = keys
            .iter()
            .map(|&k| u64::from(HashIndex::tag_of(k)))
            .collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn concurrent_cas_is_linearizable() {
        let idx = Arc::new(HashIndex::new(1));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let idx = Arc::clone(&idx);
            handles.push(std::thread::spawn(move || {
                // Each thread repeatedly pushes its own address on top.
                for i in 0..100u64 {
                    let new = Address::new(t * 1_000_000 + i + 64);
                    loop {
                        let cur = idx.head(0);
                        if idx.compare_exchange(0, cur, new).is_ok() {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The final head must be one of the last addresses pushed by some thread.
        let final_head = idx.head(0).raw();
        assert!((1..=4).any(|t| final_head == t * 1_000_000 + 99 + 64));
    }
}
