//! CPU cache prefetch for batched probes.
//!
//! A batch that visits one scattered cache line per key, and ends each visit
//! in a locked instruction, pays its misses one after another: on x86 a
//! locked instruction waits for every earlier load, so the next key's line is
//! not even requested until the previous key's atomic has completed. A pass
//! that [`prefetch`]es every line of the batch first lets those misses
//! overlap, and the dependent pass then finds its lines already on their way
//! (group prefetching; Chen et al., "Improving Hash Join Performance through
//! Prefetching", ICDE 2004).
//!
//! The same holds for a batch's inputs that another thread wrote, such as the
//! gradients a trainer hands to an asynchronous applier: each line sits in the
//! writer's core, and a callback that reads them one key at a time pays one
//! cross-core transfer after another ([`prefetch_slice`] asks for all of
//! them first). And it holds for a batch's write pass, whose per-key writes
//! each end in a lock's atomics: the pass requests every record it will write
//! before the first write.
//!
//! This is a cache hint only. It is unrelated to look-ahead prefetching,
//! which copies cold records into the engine's memory.

/// Ask the CPU to start loading the cache line that holds `p` into every
/// cache level. `p` need not be valid: a null, dangling or freed pointer is
/// fine, because a prefetch never faults and reads nothing the program can
/// see. A no-op on targets other than x86_64.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is a hint, not a memory access. It never
        // faults, whatever address it is given, and changes no state the
        // program can observe, so any pointer value is sound here.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Bytes per cache line on the targets [`prefetch`] acts on.
const CACHE_LINE: usize = 64;

/// [`prefetch`] every cache line `items` spans.
#[inline]
pub fn prefetch_slice<T>(items: &[T]) {
    for line in lines(items) {
        prefetch(line as *const u8);
    }
}

/// The address of every cache line `items` spans: none for a slice of no
/// bytes, and one more than its length alone needs for a slice that does not
/// start on a line boundary.
fn lines<T>(items: &[T]) -> std::iter::StepBy<std::ops::Range<usize>> {
    let range = items.as_ptr_range();
    let (start, end) = (range.start as usize, range.end as usize);
    let first = if start == end {
        end
    } else {
        start & !(CACHE_LINE - 1)
    };
    (first..end).step_by(CACHE_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_of_a_null_pointer_does_not_fault() {
        prefetch(std::ptr::null::<u64>());
        prefetch(std::ptr::null::<[u8; 4096]>());
    }

    #[test]
    fn prefetch_of_a_dangling_pointer_does_not_fault() {
        prefetch(std::ptr::NonNull::<u64>::dangling().as_ptr());
        // An address nothing maps, high in the user half.
        prefetch(usize::MAX as *const u8);
        prefetch(0x7fff_0000_0000_usize as *const u8);
    }

    #[test]
    fn a_slice_spans_the_lines_its_bytes_touch() {
        #[repr(align(64))]
        struct Lines([f32; 48]);
        let block = Lines([0.0; 48]);
        let base = block.0.as_ptr() as usize;
        let spanned = |items: &[f32]| lines(items).map(|a| a - base).collect::<Vec<_>>();
        // A 16-dim row: one line when aligned, two when not.
        assert_eq!(spanned(&block.0[..16]), [0]);
        assert_eq!(spanned(&block.0[1..17]), [0, 64]);
        assert_eq!(spanned(&block.0[15..33]), [0, 64, 128]);
        assert!(spanned(&block.0[5..5]).is_empty());
        assert_eq!(lines(&[(); 3]).count(), 0);
        prefetch_slice(&block.0[1..17]);
    }

    #[test]
    fn prefetch_of_a_freed_pointer_does_not_fault() {
        let block = vec![7u64; 1 << 20];
        let p = block.as_ptr();
        drop(block);
        for i in (0..1 << 20).step_by(8) {
            prefetch(p.wrapping_add(i));
        }
    }
}
