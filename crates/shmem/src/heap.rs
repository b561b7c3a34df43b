//! The symmetric heap: one word-granular region per PE.
//!
//! All remote access in the paper's runtime goes through RDMA, which
//! delivers 64-bit-aligned non-tearing reads/writes and 64-bit atomics. We
//! model that by backing each PE region with `AtomicU64` words: bulk
//! `get`/`put` are per-word loads/stores, metadata operations are real RMW
//! atomics. This keeps racing remote copies well-defined in Rust while
//! matching the granularity the hardware provides.
//!
//! ## Cache-line layout
//!
//! The hot words the protocols fight over (the SWS stealval, completion
//! arrays, the SDC meta block) are the whole point of the paper — so the
//! heap must not manufacture *false* sharing on top of the true sharing
//! the protocols intend. The backing store is 128-byte aligned (two
//! 64-byte lines: the common adjacent-line-prefetch granule), every PE
//! region is padded to a 128-byte multiple so region boundaries never
//! split a line, and [`SymmetricHeap::bump`] lets the collective
//! allocator place contended words on private lines. Virtual time cannot
//! see any of this: op costs are address-independent by construction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::addr::SymAddr;

/// Words per false-sharing isolation unit: 128 bytes = 16 words. Two
/// 64-byte lines, because adjacent-line hardware prefetchers pull line
/// pairs and write-invalidate both.
pub const CACHE_LINE_WORDS: usize = 16;

/// The isolation unit in bytes (the backing-store alignment).
pub const CACHE_LINE_BYTES: usize = CACHE_LINE_WORDS * 8;

/// A heap backing store with explicit alignment: `len` zero-initialized
/// `AtomicU64`s whose base address is `align`-byte aligned. `Box<[T]>`
/// cannot carry over-alignment, so this owns the raw allocation and
/// frees it with the matching layout.
struct AlignedWords {
    /// First word: `align`-byte aligned, inside the allocation at `raw`.
    base: std::ptr::NonNull<AtomicU64>,
    len: usize,
    raw: std::ptr::NonNull<u8>,
    layout: std::alloc::Layout,
}

// SAFETY: the backing store is a plain slice of atomics — `&[AtomicU64]`
// is Send + Sync, and AlignedWords adds only the owning pointers.
unsafe impl Send for AlignedWords {}
// SAFETY: as above — shared access goes through &[AtomicU64].
unsafe impl Sync for AlignedWords {}

impl AlignedWords {
    /// Allocate `len` zeroed words at `align`-byte alignment. A
    /// multi-gigabyte heap (thousands of PEs) must be backed by untouched
    /// kernel zero pages and cost nothing until a word is actually used.
    /// Only a `calloc`-shaped request gets that: asking `alloc_zeroed`
    /// for more than the allocator's natural alignment makes std
    /// `posix_memalign` and then `memset` the block, first-touching every
    /// page (as would writing `AtomicU64::new(0)` per element). So this
    /// asks for word alignment plus one `align` of slack and places the
    /// base at the first aligned address inside. `None` when the size is
    /// not one an allocation can have or the allocator refuses it.
    fn new_zeroed(len: usize, align: usize) -> Option<AlignedWords> {
        use std::alloc::{alloc_zeroed, Layout};
        const WORD: usize = std::mem::size_of::<AtomicU64>();
        assert!(len > 0, "empty heap backing");
        assert!(align.is_power_of_two() && align >= WORD);
        let bytes = len.checked_mul(WORD)?.checked_add(align - WORD)?;
        let layout = Layout::from_size_align(bytes, WORD).ok()?;
        // SAFETY: `layout` has nonzero size (len > 0 asserted above).
        let raw = std::ptr::NonNull::new(unsafe { alloc_zeroed(layout) })?;
        // `raw` is word-aligned, so the gap to the next `align` boundary
        // is a whole number of words and at most the slack added above.
        let pad = raw.as_ptr().addr().wrapping_neg() & (align - 1);
        // SAFETY: `pad + len * WORD <= bytes`, so the words from `base`
        // lie inside the allocation; it is zeroed, and all-zero is a
        // valid `AtomicU64` (same layout as u64).
        let base = unsafe { raw.add(pad).cast::<AtomicU64>() };
        Some(AlignedWords { base, len, raw, layout })
    }
}

impl std::ops::Deref for AlignedWords {
    type Target = [AtomicU64];
    #[inline]
    fn deref(&self) -> &[AtomicU64] {
        // SAFETY: `base` is valid for `len` initialized AtomicU64s for the
        // lifetime of `self` (allocated in `new_zeroed`, freed in `drop`).
        unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
    }
}

impl Drop for AlignedWords {
    fn drop(&mut self) {
        // SAFETY: `raw` came from `alloc_zeroed` with exactly this layout
        // and has not been freed elsewhere.
        unsafe { std::alloc::dealloc(self.raw.as_ptr(), self.layout) };
    }
}

/// The symmetric heap shared by all PEs of a world.
pub struct SymmetricHeap {
    words_per_pe: usize,
    n_pes: usize,
    /// `n_pes * words_per_pe` words, PE-major.
    words: AlignedWords,
    /// Collective bump-allocation cursor (word index), shared by all PEs.
    cursor: AtomicUsize,
}

/// Words at the front of every region reserved for runtime control
/// (collective allocation broadcast, reductions, barriers). User
/// allocations start past this block.
pub const CTRL_WORDS: usize = 8;

/// Control-block slots (word offsets within the reserved prefix).
pub(crate) mod ctrl {
    /// Broadcast slot the collective allocator hands its offset out through.
    pub const BCAST: usize = 0;
    /// Accumulator used by reductions (on the root PE).
    pub const REDUCE: usize = 1;
}

impl SymmetricHeap {
    /// Create a heap with `words_per_pe` words for each of `n_pes` regions.
    /// The per-PE size is rounded up to a [`CACHE_LINE_WORDS`] multiple so
    /// every region starts on a 128-byte boundary of the
    /// (128-byte-aligned) backing store. `None` when the host cannot give
    /// that much memory (or no host could: the size overflows).
    pub(crate) fn new(n_pes: usize, words_per_pe: usize) -> Option<SymmetricHeap> {
        assert!(n_pes > 0, "need at least one PE");
        assert!(
            words_per_pe > CTRL_WORDS,
            "heap must be larger than the control block ({CTRL_WORDS} words)"
        );
        let words_per_pe = words_per_pe
            .div_ceil(CACHE_LINE_WORDS)
            .checked_mul(CACHE_LINE_WORDS)?;
        let words = AlignedWords::new_zeroed(n_pes.checked_mul(words_per_pe)?, CACHE_LINE_BYTES)?;
        Some(SymmetricHeap {
            words_per_pe,
            n_pes,
            words,
            cursor: AtomicUsize::new(CTRL_WORDS),
        })
    }

    /// Number of PE regions.
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Words per PE region (after any alignment rounding).
    #[inline]
    pub fn words_per_pe(&self) -> usize {
        self.words_per_pe
    }

    /// Words still available to the collective allocator.
    #[inline]
    pub fn words_free(&self) -> usize {
        self.words_per_pe
            .saturating_sub(self.cursor.load(Ordering::Relaxed))
    }

    /// The backing word for (`pe`, `addr`).
    #[inline]
    pub(crate) fn word(&self, pe: usize, addr: SymAddr) -> &AtomicU64 {
        debug_assert!(pe < self.n_pes, "PE {pe} out of range ({})", self.n_pes);
        debug_assert!(
            addr.word() < self.words_per_pe,
            "symmetric address {} out of range ({})",
            addr.word(),
            self.words_per_pe
        );
        &self.words[pe * self.words_per_pe + addr.word()]
    }

    /// Bump the shared allocation cursor past `words` words starting at
    /// the next multiple of `align_words` (a power of two ≤
    /// [`CACHE_LINE_WORDS`]; 1 = no alignment); the skipped words are
    /// wasted. Returns the start offset, or `None` when the region would
    /// overflow. Because regions start on 128-byte boundaries, a
    /// line-multiple offset is a line-aligned address in **every** PE's
    /// region. Called by PE 0 inside the collective allocation protocol.
    pub(crate) fn bump(&self, words: usize, align_words: usize) -> Option<usize> {
        debug_assert!(align_words.is_power_of_two() && align_words <= CACHE_LINE_WORDS);
        // Single writer by protocol (PE 0 between barriers), but use a CAS
        // loop anyway so misuse cannot corrupt the cursor.
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            let start = cur.checked_add(align_words - 1)? & !(align_words - 1);
            let next = start.checked_add(words)?;
            if next > self.words_per_pe {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(start),
                Err(c) => cur = c,
            }
        }
    }

    /// Address of a control slot (same on every PE).
    #[inline]
    pub(crate) fn ctrl(slot: usize) -> SymAddr {
        debug_assert!(slot < CTRL_WORDS);
        SymAddr::new(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn regions_are_independent() {
        let h = SymmetricHeap::new(3, 64).unwrap();
        let a = SymAddr::new(CTRL_WORDS);
        h.word(0, a).store(7, Relaxed);
        h.word(1, a).store(8, Relaxed);
        assert_eq!(h.word(0, a).load(Relaxed), 7);
        assert_eq!(h.word(1, a).load(Relaxed), 8);
        assert_eq!(h.word(2, a).load(Relaxed), 0);
    }

    #[test]
    fn bump_allocates_disjoint_ranges() {
        let h = SymmetricHeap::new(1, 64).unwrap();
        let a = h.bump(10, 1).unwrap();
        let b = h.bump(10, 1).unwrap();
        assert_eq!(b, a + 10);
        assert!(h.words_free() <= 64 - 20 - CTRL_WORDS);
    }

    #[test]
    fn bump_fails_cleanly_when_exhausted() {
        let h = SymmetricHeap::new(1, 64).unwrap();
        assert!(h.bump(1000, 1).is_none());
        // A failed bump must not consume space.
        let before = h.words_free();
        assert!(h.bump(usize::MAX, 1).is_none());
        assert_eq!(h.words_free(), before);
        assert!(h.bump(before, 1).is_some());
        assert!(h.bump(1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "larger than the control block")]
    fn tiny_heap_rejected() {
        let _ = SymmetricHeap::new(1, 4);
    }

    #[test]
    fn zeroed_at_start() {
        let h = SymmetricHeap::new(2, 32).unwrap();
        for pe in 0..2 {
            for w in 0..h.words_per_pe() {
                assert_eq!(h.word(pe, SymAddr::new(w)).load(Relaxed), 0);
            }
        }
    }

    /// The false-sharing regression test for the region boundary: every
    /// PE region must start on a 128-byte boundary under the aligned
    /// layout, so PE k's last line is never PE k+1's first line.
    #[test]
    fn aligned_regions_start_on_line_boundaries() {
        // 100 words is deliberately not a line multiple — it must round
        // up to 112 (7 × 16).
        let h = SymmetricHeap::new(5, 100).unwrap();
        assert_eq!(h.words_per_pe() % CACHE_LINE_WORDS, 0);
        assert_eq!(h.words_per_pe(), 112);
        for pe in 0..5 {
            let base = h.word(pe, SymAddr::new(0)) as *const AtomicU64 as usize;
            assert_eq!(
                base % CACHE_LINE_BYTES,
                0,
                "PE {pe} region not 128-byte aligned"
            );
        }
    }

    /// Resident pages of this process, from `/proc/self/statm`.
    #[cfg(target_os = "linux")]
    fn resident_pages() -> usize {
        let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
        statm.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// Building a heap must not touch it: 1 GiB of PE regions stays on
    /// the kernel's zero page until a word is used. (Regression: the
    /// over-aligned `alloc_zeroed` of PR 8 memset every page.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_fresh_heap_is_not_resident() {
        // Other tests of this process allocate meanwhile, which only
        // ever adds to the reading: the quietest of a few attempts
        // is the heap's own cost.
        let grew = (0..5)
            .map(|_| {
                let before = resident_pages();
                let h = SymmetricHeap::new(1024, 1 << 17).unwrap();
                assert_eq!(h.word(1023, SymAddr::new((1 << 17) - 1)).load(Relaxed), 0);
                resident_pages().saturating_sub(before)
            })
            .min()
            .unwrap();
        assert!(grew * 4096 < 8 << 20, "a 1 GiB heap made {grew} pages resident");
    }

    #[test]
    fn bump_aligned_isolates_lines() {
        let h = SymmetricHeap::new(1, 256).unwrap();
        // Cursor starts at CTRL_WORDS = 8: the first aligned alloc skips
        // to the next line boundary.
        let a = h.bump(1, CACHE_LINE_WORDS).unwrap();
        assert_eq!(a, CACHE_LINE_WORDS);
        // A second aligned alloc lands on a fresh line, not a's line.
        let b = h.bump(5, CACHE_LINE_WORDS).unwrap();
        assert_eq!(b, 2 * CACHE_LINE_WORDS);
        assert!(b / CACHE_LINE_WORDS > a / CACHE_LINE_WORDS);
        // Plain bumps continue from the cursor as before.
        let c = h.bump(2, 1).unwrap();
        assert_eq!(c, b + 5);
    }

    #[test]
    fn bump_aligned_fails_cleanly_when_exhausted() {
        let h = SymmetricHeap::new(1, 64).unwrap();
        assert!(h.bump(1000, CACHE_LINE_WORDS).is_none());
        let before = h.words_free();
        assert!(h.bump(usize::MAX, CACHE_LINE_WORDS).is_none());
        assert_eq!(h.words_free(), before);
    }
}
