//! Collective operations: barrier, reductions, and the
//! collective symmetric allocator.
//!
//! All collectives must be called by every PE of the world in the same
//! order (standard SPMD contract). They are built from the control block
//! at the front of every region plus the barrier, so they are globally
//! ordered and may share scratch slots.

use crate::addr::SymAddr;
use crate::ctx::ShmemCtx;
use crate::heap::{ctrl, SymmetricHeap};

/// Sentinel broadcast by PE 0 when a collective allocation fails.
const ALLOC_FAILED: u64 = u64::MAX;

impl ShmemCtx {
    /// Barrier across all PEs. In virtual-time mode every clock jumps to
    /// `max(entry clocks) + barrier cost`; in threaded mode a real barrier.
    pub fn barrier_all(&self) {
        let cost = self.world().net.barrier_ns;
        self.record_barrier(cost);
        self.world().exec.barrier(self.my_pe(), cost);
    }

    /// Global sum reduction of one u64 per PE; every PE gets the total.
    pub fn reduce_sum_u64(&self, value: u64) -> u64 {
        self.with_collective(|| {
            let slot = SymmetricHeap::ctrl(ctrl::REDUCE);
            if self.my_pe() == 0 {
                self.atomic_set(0, slot, 0);
            }
            self.barrier_all();
            self.atomic_add_nbi(0, slot, value);
            self.quiet();
            self.barrier_all();
            let v = self.atomic_fetch(0, slot);
            self.barrier_all();
            v
        })
    }

    /// Global max reduction of one u64 per PE; every PE gets the maximum.
    pub fn reduce_max_u64(&self, value: u64) -> u64 {
        self.with_collective(|| {
            let slot = SymmetricHeap::ctrl(ctrl::REDUCE);
            if self.my_pe() == 0 {
                self.atomic_set(0, slot, 0);
            }
            self.barrier_all();
            // CAS loop: repeated remote compare-swaps until our value is
            // subsumed. (OpenSHMEM has no fetch-max; this is the idiom.)
            let mut cur = self.atomic_fetch(0, slot);
            while value > cur {
                let prev = self.atomic_compare_swap(0, slot, cur, value);
                if prev == cur {
                    break;
                }
                cur = prev;
            }
            self.barrier_all();
            let v = self.atomic_fetch(0, slot);
            self.barrier_all();
            v
        })
    }

    /// Collectively allocate `words` words of symmetric memory; every PE
    /// receives the same address, naming a distinct object per PE.
    ///
    /// # Panics
    /// Panics on every PE when the heap is exhausted (the world's result
    /// then surfaces as [`crate::ShmemError::PePanicked`]).
    pub fn alloc_words(&self, words: usize) -> SymAddr {
        self.alloc(words, 1)
    }

    /// As [`alloc_words`](Self::alloc_words), but the returned address
    /// starts on a false-sharing isolation boundary
    /// ([`crate::CACHE_LINE_WORDS`] words = 128 bytes), so a contended
    /// word (a stealval, a lock) never shares a line with the allocation
    /// before it. Same op sequence as `alloc_words`, so virtual time
    /// cannot tell them apart.
    pub fn alloc_words_aligned(&self, words: usize) -> SymAddr {
        self.alloc(words, crate::heap::CACHE_LINE_WORDS)
    }

    fn alloc(&self, words: usize, align_words: usize) -> SymAddr {
        let off = self.with_collective(|| {
            let slot = SymmetricHeap::ctrl(ctrl::BCAST);
            self.barrier_all();
            if self.my_pe() == 0 {
                let off = match self.world().heap.bump(words, align_words) {
                    Some(off) => off as u64,
                    None => ALLOC_FAILED,
                };
                self.atomic_set(0, slot, off);
            }
            self.barrier_all();
            let off = self.atomic_fetch(0, slot);
            self.barrier_all();
            off
        });
        if off == ALLOC_FAILED {
            panic!(
                "symmetric heap exhausted: requested {words} words at alignment \
                 {align_words}, {} available",
                self.world().heap.words_free()
            );
        }
        SymAddr::new(off as usize)
    }
}
