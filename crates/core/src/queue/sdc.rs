//! The baseline SDC queue (paper §3): Scioto's "Split queue, Deferred
//! copy, Aborting steals", ported to one-sided operations.
//!
//! Heap layout per PE: a spinlock word, the published `tail` and `split`
//! indices (absolute u64 counters — SDC has no bit-packing constraints),
//! a completion ring (one word per task slot, keyed by a stolen block's
//! starting slot), and the task buffer.
//!
//! A steal performs the six communications of Fig. 2:
//!
//! 1. acquire the remote spinlock (atomic compare-swap; while contended,
//!    the thief polls the metadata and *aborts* if the queue drained —
//!    the "aborting steals" optimization);
//! 2. fetch `tail` and `split` (one 16-byte get);
//! 3. publish the new `tail` (put);
//! 4. release the lock (atomic);
//! 5. copy the stolen records (get, gathered across the ring wrap);
//! 6. signal completion (passive atomic put — the "deferred copy"),
//!    letting the owner reclaim ring space lazily in `progress`.
//!
//! Five of the six block the thief; only the completion signal is
//! passive. Owner-side `release` needs no lock (it only grows `split`
//! while the shared portion is empty); `acquire` must take the lock
//! because thieves race on `tail`/`split` consistency.
//!
//! # Fault mode
//!
//! Faults interact with SDC's lock in a way SWS never has to deal with: a
//! thief that claimed a block (published `tail`) and then vanishes leaves
//! no trace in the baseline protocol — the owner would wait on the
//! completion slot forever. Under an active fault plan the thief therefore
//! writes a [`COMP_CLAIMED`]-tagged marker into the completion slot
//! *before* publishing the new tail, converting every claim into owner-
//! visible state:
//!
//! * copy failed → the thief flips the marker to [`COMP_POISON`]`|vol`;
//!   the owner re-enqueues the block;
//! * thief stalls or dies mid-copy → the marker outlives the grace period
//!   and the owner compare-swaps it to zero, reclaiming the block; the
//!   thief's eventual finalize CAS fails and it discards its copy;
//! * normal completion → finalize CAS replaces the marker with the plain
//!   volume, exactly the baseline's deferred signal.
//!
//! Operations *inside* the critical section follow a different rule: once
//! the lock is held, cleanup ops (unlock, marker rollback) are retried
//! until they succeed or the target is down — a thief can always afford
//! the retries, and abandoning a held lock would wedge the whole victim.
//! This is sound under the repo's fault model: crash-stop is cooperative
//! (polled between scheduler iterations), so a thief never dies while
//! holding a remote lock.

use sws_shmem::fault::retry_op;
use sws_shmem::rng::SplitMix64;
use sws_shmem::{OpError, OpResult, ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ordering::AtomicSite;
use crate::protocol::claim_marker;
use crate::queue::buffer::TaskBuffer;
use crate::queue::{
    QueueConfig, QueueStats, StealOutcome, StealQueue, COMP_CLAIMED, COMP_POISON, COMP_VOL_MASK,
};

/// Word offsets of the SDC metadata block.
pub(crate) const LOCK: usize = 0;
pub(crate) const TAIL: usize = 1;
pub(crate) const SPLIT: usize = 2;
const META_WORDS: usize = 3;

fn is_down(e: &OpError) -> bool {
    matches!(e, OpError::TargetDown { .. })
}

/// Virtual ns charged per retry of a must-complete cleanup op.
const INSIST_BACKOFF_NS: u64 = 2_000;

/// Retry a cleanup op until it succeeds or the target goes down. Used
/// only for ops that release resources (unlock, marker rollback): they
/// must not be abandoned on a transient fault, and if the target is down
/// the resource died with it.
fn insist(ctx: &ShmemCtx, mut op: impl FnMut() -> OpResult<()>) {
    loop {
        match op() {
            Ok(()) => return,
            Err(e) if is_down(&e) => return,
            Err(_) => ctx.compute(INSIST_BACKOFF_NS),
        }
    }
}

/// One PE's SDC task queue.
pub struct SdcQueue<'a> {
    ctx: &'a ShmemCtx,
    cfg: QueueConfig,
    meta: SymAddr,
    comp: SymAddr,
    buf: TaskBuffer,
    /// Next enqueue slot (absolute).
    head: u64,
    /// First local task (absolute, owner's mirror of the published split).
    split: u64,
    /// Everything below this (absolute) has been reclaimed.
    reclaimed: u64,
    /// Fault mode: grace tracking for the claim at the reclaim frontier —
    /// `(frontier_abs, first_seen_ns)`.
    stuck: Option<(u64, u64)>,
    /// Queue permanently closed by [`StealQueue::retire`].
    retired: bool,
    /// Queue reversibly closed by [`StealQueue::park`] — the owner holds
    /// its own lock until [`StealQueue::unpark`] releases it.
    parked: bool,
    /// Jitter source for retry backoff (fault mode).
    rng: SplitMix64,
    stats: QueueStats,
    scratch: Vec<u64>,
}

impl<'a> SdcQueue<'a> {
    /// Collectively construct one queue per PE (identical `cfg` everywhere).
    pub fn new(ctx: &'a ShmemCtx, cfg: QueueConfig) -> SdcQueue<'a> {
        cfg.validate();
        // Line-isolated placement: the meta block (lock/tail/split —
        // CASed by every thief) must not share a cache line with the
        // completion ring (written by thieves, chain-followed by the
        // owner) or the task buffer.
        let [meta, comp, buf_addr] =
            Self::blocks(&cfg).map(|words| ctx.alloc_words_aligned(words));
        // lock = 0, tail = 0, split = 0 — the heap is zeroed, but publish
        // explicitly for clarity.
        ctx.local_write_words(meta, &[0, 0, 0]);
        ctx.barrier_all();
        SdcQueue {
            ctx,
            cfg,
            meta,
            comp,
            buf: TaskBuffer::new(buf_addr, cfg.capacity, cfg.task_words),
            head: 0,
            split: 0,
            reclaimed: 0,
            stuck: None,
            retired: false,
            parked: false,
            rng: SplitMix64::stream(0x5DC0_F417, ctx.my_pe() as u64),
            stats: QueueStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Words in each of the three collective allocations [`SdcQueue::new`]
    /// makes, in order: lock/tail/split, the completion ring (one word per
    /// task slot), the task buffer.
    pub(crate) fn blocks(cfg: &QueueConfig) -> [usize; 3] {
        [META_WORDS, cfg.capacity, cfg.buffer_words()]
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    #[inline]
    fn live_span(&self) -> u64 {
        self.head - self.reclaimed
    }

    #[inline]
    fn lock_addr(&self) -> SymAddr {
        self.meta.offset(LOCK)
    }

    #[inline]
    fn tail_addr(&self) -> SymAddr {
        self.meta.offset(TAIL)
    }

    #[inline]
    fn split_addr(&self) -> SymAddr {
        self.meta.offset(SPLIT)
    }

    /// Completion-ring slot for a stolen block starting at absolute
    /// index `tail`.
    #[inline]
    fn comp_slot(&self, tail: u64) -> SymAddr {
        self.comp.offset(self.buf.ring().slot(tail))
    }

    /// Owner: read the published tail (thieves advance it remotely).
    fn read_tail(&self) -> u64 {
        // ordering: SdcOwnerTailRead
        self.ctx.proto_site(AtomicSite::SdcOwnerTailRead.id());
        self.ctx.atomic_fetch(self.ctx.my_pe(), self.tail_addr())
    }

    /// Owner: spin on our own queue lock (needed by `acquire`; thieves
    /// hold it during their metadata update).
    fn lock_own(&mut self) {
        let me = self.ctx.my_pe();
        loop {
            // ordering: SdcLockCas (owner self-lock)
            self.ctx.proto_site(AtomicSite::SdcLockCas.id());
            if self.ctx.atomic_compare_swap(me, self.lock_addr(), 0, 1) == 0 {
                return;
            }
            self.stats.owner_polls += 1;
            self.ctx.idle_hint();
        }
    }

    fn unlock_own(&self) {
        // ordering: SdcUnlock
        self.ctx.proto_site(AtomicSite::SdcUnlock.id());
        self.ctx.atomic_set(self.ctx.my_pe(), self.lock_addr(), 0);
    }

    /// Take our own lock (and keep it), pull the unclaimed shared region
    /// back into the local portion, and drain every published claim — the
    /// shared body of [`StealQueue::retire`] and [`StealQueue::park`].
    /// Thieves contending on the held lock abort once they see
    /// `tail >= split`.
    fn lock_and_drain(&mut self) {
        self.lock_own();
        let tail = self.read_tail();
        if tail < self.split {
            self.split = tail;
            // ordering: SdcSplitPublish
            self.ctx.proto_site(AtomicSite::SdcSplitPublish.id());
            self.ctx
                .atomic_set(self.ctx.my_pe(), self.split_addr(), self.split);
        }
        // Drain every published claim below the final tail: thieves
        // finalize, poison, or get reclaimed after the grace period.
        while self.reclaimed < tail {
            self.progress();
            if self.reclaimed >= tail {
                break;
            }
            self.stats.owner_polls += 1;
            self.ctx.compute(200);
            self.ctx.idle_hint();
        }
    }

    /// Re-enqueue the block `[abs, abs + vol)` from this PE's own ring
    /// into the local portion — its claim was poisoned or reclaimed.
    /// Called with `abs == self.reclaimed`, so the copy-out reads the
    /// slots before any head-write can overwrite them.
    fn requeue_block(&mut self, abs: u64, vol: u64) {
        debug_assert_eq!(abs, self.reclaimed, "requeue off the reclaim frontier");
        let mut words = Vec::new();
        self.buf
            .read_block_local(self.ctx, abs, vol as usize, &mut words);
        // ordering: SdcPayloadWrite (requeue)
        self.ctx.proto_site(AtomicSite::SdcPayloadWrite.id());
        self.buf
            .write_local_block(self.ctx, self.head, vol as usize, &words);
        self.head += vol;
        self.stats.enqueued += vol;
    }

    /// Fault-mode reclaim walk: like the baseline chain-follow, but
    /// flagged completion words carry recovery state. Stops at the
    /// published tail — everything at or above it is unclaimed.
    fn progress_faulty(&mut self) {
        let me = self.ctx.my_pe();
        let grace = self.cfg.reclaim_grace_ns;
        loop {
            if self.reclaimed == self.head || self.reclaimed >= self.read_tail() {
                return;
            }
            let abs = self.reclaimed;
            let slot = self.comp_slot(abs);
            // ordering: SdcReclaimRead
            self.ctx.proto_site(AtomicSite::SdcReclaimRead.id());
            let v = self.ctx.atomic_fetch(me, slot);
            if v == 0 {
                // Claimed (tail moved past it) but the marker is not
                // visible yet — the thief is still inside its critical
                // section. Check again next call.
                return;
            }
            let vol = v & COMP_VOL_MASK;
            if v & COMP_POISON != 0 {
                // The thief could not copy the block; take it back.
                // ordering: SdcReclaimRead (poisoned-slot CAS)
                self.ctx.proto_site(AtomicSite::SdcReclaimRead.id());
                if self.ctx.atomic_compare_swap(me, slot, v, 0) == v {
                    self.requeue_block(abs, vol);
                    self.stats.completions_poisoned += 1;
                    self.reclaimed += vol;
                    self.stats.reclaimed += vol;
                    self.stuck = None;
                }
                continue;
            }
            if v & COMP_CLAIMED != 0 {
                // In-flight claim: give the thief the grace period, then
                // reclaim. The thief's finalize CAS expects the marker,
                // so exactly one side wins the transition.
                let now = self.ctx.now_ns();
                match self.stuck {
                    Some((f, t0)) if f == abs => {
                        if now.saturating_sub(t0) < grace {
                            return;
                        }
                        // ordering: SdcReclaimRead (stuck-claim CAS)
                        self.ctx.proto_site(AtomicSite::SdcReclaimRead.id());
                        if self.ctx.atomic_compare_swap(me, slot, v, 0) == v {
                            self.requeue_block(abs, vol);
                            self.stats.claims_reclaimed += 1;
                            self.reclaimed += vol;
                            self.stats.reclaimed += vol;
                            self.stuck = None;
                        }
                        continue;
                    }
                    _ => {
                        self.stuck = Some((abs, now));
                        return;
                    }
                }
            }
            // Plain volume: the baseline completion signal.
            // ordering: SdcReclaimZero
            self.ctx.proto_site(AtomicSite::SdcReclaimZero.id());
            self.ctx.atomic_set(me, slot, 0);
            self.reclaimed += vol;
            self.stats.reclaimed += vol;
            self.stuck = None;
            debug_assert!(self.reclaimed <= self.head, "reclaim ran past head");
        }
    }

    /// Fault-mode steal: the Fig. 2 sequence with fallible ops, a claim
    /// marker so the owner can see in-flight steals, and insist-retried
    /// cleanup inside the critical section (module docs).
    fn steal_from_faulty(&mut self, target: usize) -> StealOutcome {
        self.stats.steal_attempts += 1;
        let ctx = self.ctx;
        let policy = self.cfg.retry;
        let lock = self.lock_addr();
        let tail_a = self.tail_addr();

        // 1. Lock, with abort checking while contended. Injected failures
        // burn the retry budget; plain contention gets a larger abort-
        // check budget before the thief walks away.
        let mut failures = 0u32;
        let mut contended = 0u32;
        loop {
            // ordering: SdcLockCas (thief lock)
            ctx.proto_site(AtomicSite::SdcLockCas.id());
            match ctx.try_atomic_compare_swap(target, lock, 0, 1) {
                Ok(0) => break,
                Ok(_) => {
                    contended += 1;
                    let mut meta = [0u64; 2];
                    // ordering: SdcMetaRead (lock-free abort peek)
                    ctx.proto_site(AtomicSite::SdcMetaRead.id());
                    match ctx.try_get_words(target, tail_a, &mut meta) {
                        Ok(()) => {
                            if meta[0] >= meta[1] {
                                self.stats.steals_closed += 1;
                                return StealOutcome::Closed;
                            }
                        }
                        Err(e) if is_down(&e) => {
                            self.stats.steals_failed += 1;
                            return StealOutcome::Failed { target_down: true };
                        }
                        Err(_) => {}
                    }
                    if contended > policy.max_attempts.saturating_mul(4) {
                        // The lock stayed hot the whole budget; treat it
                        // like an abort and come back later.
                        self.stats.steals_closed += 1;
                        return StealOutcome::Closed;
                    }
                }
                Err(e) => {
                    if is_down(&e) {
                        self.stats.steals_failed += 1;
                        return StealOutcome::Failed { target_down: true };
                    }
                    failures += 1;
                    if failures >= policy.max_attempts {
                        self.stats.steals_failed += 1;
                        return StealOutcome::Failed { target_down: false };
                    }
                    self.stats.steals_retried += 1;
                    ctx.compute(policy.backoff_ns(failures, &mut self.rng));
                }
            }
        }

        // Holding the lock from here: every early return must release it.

        // 2. Fetch tail and split.
        let mut meta = [0u64; 2];
        let got = retry_op(
            &policy,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            || {
                // ordering: SdcMetaRead
                ctx.proto_site(AtomicSite::SdcMetaRead.id());
                ctx.try_get_words(target, tail_a, &mut meta)
            },
        );
        if let Err(e) = got {
            insist(ctx, || {
                // ordering: SdcUnlock
                ctx.proto_site(AtomicSite::SdcUnlock.id());
                ctx.try_atomic_set(target, lock, 0)
            });
            self.stats.steals_failed += 1;
            return StealOutcome::Failed {
                target_down: is_down(&e),
            };
        }
        let (tail, split) = (meta[0], meta[1]);
        let avail = split - tail;
        if avail == 0 {
            insist(ctx, || {
                // ordering: SdcUnlock
                ctx.proto_site(AtomicSite::SdcUnlock.id());
                ctx.try_atomic_set(target, lock, 0)
            });
            self.stats.steals_empty += 1;
            return StealOutcome::Empty;
        }
        let vol = self.cfg.policy.volume(avail, 0).max(1);
        let comp = self.comp_slot(tail);
        let marker = claim_marker(vol);

        // 2b. Write the claim marker *before* publishing the new tail, so
        // the owner can recover the claim if we die past this point. The
        // slot is zero here: its previous use was reclaimed before the
        // ring wrapped.
        let put = retry_op(
            &policy,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            || {
                // ordering: SdcComplete (claim marker)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_set(target, comp, marker)
            },
        );
        if let Err(e) = put {
            insist(ctx, || {
                // ordering: SdcUnlock
                ctx.proto_site(AtomicSite::SdcUnlock.id());
                ctx.try_atomic_set(target, lock, 0)
            });
            self.stats.steals_failed += 1;
            return StealOutcome::Failed {
                target_down: is_down(&e),
            };
        }

        // 3. Publish the new tail.
        let put = retry_op(
            &policy,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            || {
                // ordering: SdcTailPut
                ctx.proto_site(AtomicSite::SdcTailPut.id());
                ctx.try_put_word(target, tail_a, tail + vol)
            },
        );
        if let Err(e) = put {
            // Roll the marker back — no claim was published.
            insist(ctx, || {
                // ordering: SdcComplete (marker rollback CAS)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_compare_swap(target, comp, marker, 0)
                    .map(|_| ())
            });
            insist(ctx, || {
                // ordering: SdcUnlock
                ctx.proto_site(AtomicSite::SdcUnlock.id());
                ctx.try_atomic_set(target, lock, 0)
            });
            self.stats.steals_failed += 1;
            return StealOutcome::Failed {
                target_down: is_down(&e),
            };
        }

        // 4. Unlock. If the target dies here the lock dies with it; the
        // claim is published, so proceed — recovery goes through the
        // marker protocol either way.
        insist(ctx, || {
            // ordering: SdcUnlock
            ctx.proto_site(AtomicSite::SdcUnlock.id());
            ctx.try_atomic_set(target, lock, 0)
        });

        // Make room locally before landing the block.
        while self.live_span() + vol > self.cfg.capacity as u64 {
            self.stats.owner_polls += 1;
            self.progress();
            self.ctx.compute(100);
            self.ctx.idle_hint();
        }

        // 5. Copy the stolen records.
        let start = self.buf.ring().slot(tail);
        let buf = self.buf;
        let mut scratch = std::mem::take(&mut self.scratch);
        let got = retry_op(
            &policy,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            || {
                // ordering: SdcPayloadRead
                ctx.proto_site(AtomicSite::SdcPayloadRead.id());
                buf.try_steal_copy(ctx, target, start, vol as usize, &mut scratch)
            },
        );
        if let Err(e) = got {
            // Claimed but uncopyable: poison so the owner re-enqueues
            // promptly. If the poison is lost too, the grace-period
            // reclaim recovers the block.
            let _ = retry_op(
                &policy,
                &mut self.rng,
                |ns| ctx.compute(ns),
                || self.stats.steals_retried += 1,
                || {
                    // ordering: SdcComplete (poison CAS)
                    ctx.proto_site(AtomicSite::SdcComplete.id());
                    ctx.try_atomic_compare_swap(target, comp, marker, COMP_POISON | vol)
                        .map(|_| ())
                },
            );
            self.scratch = scratch;
            self.stats.steals_aborted += 1;
            return StealOutcome::Aborted {
                target_down: is_down(&e),
            };
        }

        // 6. Finalize: replace the marker with the plain volume — the
        // baseline's deferred completion signal, made conditional so a
        // reclaimed claim is detected instead of double-counted.
        let fin = retry_op(
            &policy,
            &mut self.rng,
            |ns| ctx.compute(ns),
            || self.stats.steals_retried += 1,
            || {
                // ordering: SdcComplete (finalize CAS)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_compare_swap(target, comp, marker, vol)
            },
        );
        match fin {
            Ok(prev) if prev == marker => {
                // ordering: SdcPayloadWrite (landing a stolen block)
                ctx.proto_site(AtomicSite::SdcPayloadWrite.id());
                self.buf
                    .write_local_block(ctx, self.head, vol as usize, &scratch);
                self.head += vol;
                self.scratch = scratch;
                self.stats.steals_won += 1;
                self.stats.tasks_stolen += vol;
                self.stats.enqueued += vol;
                StealOutcome::Got { tasks: vol }
            }
            Ok(_) => {
                // The owner reclaimed the claim during the copy; the
                // block already returned to its ring. Discard our copy.
                self.scratch = scratch;
                self.stats.steals_aborted += 1;
                StealOutcome::Aborted { target_down: false }
            }
            Err(e) => {
                self.scratch = scratch;
                self.stats.steals_aborted += 1;
                StealOutcome::Aborted {
                    target_down: is_down(&e),
                }
            }
        }
    }
}

impl StealQueue for SdcQueue<'_> {
    fn enqueue(&mut self, task: &TaskDescriptor) -> bool {
        if self.live_span() >= self.cfg.capacity as u64 {
            self.progress();
            if self.live_span() >= self.cfg.capacity as u64 {
                return false;
            }
        }
        // ordering: SdcPayloadWrite
        self.ctx.proto_site(AtomicSite::SdcPayloadWrite.id());
        self.buf.write_local(self.ctx, self.head, task);
        self.head += 1;
        self.stats.enqueued += 1;
        true
    }

    fn pop_local(&mut self) -> Option<TaskDescriptor> {
        if self.split == self.head {
            return None;
        }
        self.head -= 1;
        self.stats.popped += 1;
        Some(self.buf.read_local(self.ctx, self.head))
    }

    fn local_count(&self) -> u64 {
        self.head - self.split
    }

    fn shared_estimate(&mut self) -> u64 {
        self.split - self.read_tail()
    }

    fn release(&mut self) -> bool {
        if self.retired || self.parked {
            return false;
        }
        let nlocal = self.local_count();
        if nlocal == 0 {
            return false;
        }
        // Lock-free release is only safe when the shared portion is
        // empty: a concurrent thief sees either the empty queue (aborts)
        // or the grown split (steals from it) — both consistent.
        if self.read_tail() < self.split {
            return false;
        }
        let k = nlocal - nlocal / 2;
        self.split += k;
        // ordering: SdcSplitPublish
        self.ctx.proto_site(AtomicSite::SdcSplitPublish.id());
        self.ctx
            .atomic_set(self.ctx.my_pe(), self.split_addr(), self.split);
        self.ctx.compute(self.cfg.split_update_ns);
        self.stats.releases += 1;
        // Rooted-tree steal bound: this exposure of `k` unclaimed tasks
        // admits at most `max_steals(k)` successful steals before the
        // shared region runs dry (each steal shrinks `avail` by exactly
        // one cascade step; owner acquires only shrink it further), and
        // releases require `tail >= split`, so budgets never overlap.
        self.stats.steal_budget += self.cfg.policy.max_steals(k);
        true
    }

    fn acquire(&mut self) -> bool {
        debug_assert_eq!(
            self.split, self.head,
            "acquire requires an empty local portion"
        );
        // A retired (or parked) queue holds its own lock and has already
        // pulled the whole shared region local — nothing to acquire, and
        // re-locking would self-deadlock.
        if self.retired || self.parked {
            self.stats.acquire_misses += 1;
            return false;
        }
        // Thieves mutate tail under the lock, so the owner must take it
        // to move the split point down consistently (§3.1).
        self.lock_own();
        let tail = self.read_tail();
        let avail = self.split - tail;
        if avail == 0 {
            self.unlock_own();
            self.stats.acquire_misses += 1;
            return false;
        }
        let take = avail - avail / 2;
        self.split -= take;
        // ordering: SdcSplitPublish
        self.ctx.proto_site(AtomicSite::SdcSplitPublish.id());
        self.ctx
            .atomic_set(self.ctx.my_pe(), self.split_addr(), self.split);
        self.unlock_own();
        self.ctx.compute(self.cfg.split_update_ns);
        self.stats.acquires += 1;
        true
    }

    fn progress(&mut self) {
        if self.ctx.faults_active() {
            self.progress_faulty();
            return;
        }
        // Deferred-copy reclaim: follow the chain of completion records
        // starting at the reclaim watermark; each finished block wrote its
        // volume into the slot named by its starting index.
        let me = self.ctx.my_pe();
        loop {
            if self.reclaimed == self.head {
                return;
            }
            // Stop at the shared/local boundary: slots at and above the
            // published tail are live.
            let slot = self.comp_slot(self.reclaimed);
            // ordering: SdcReclaimRead
            self.ctx.proto_site(AtomicSite::SdcReclaimRead.id());
            let v = self.ctx.atomic_fetch(me, slot);
            if v == 0 {
                return;
            }
            // ordering: SdcReclaimZero
            self.ctx.proto_site(AtomicSite::SdcReclaimZero.id());
            self.ctx.atomic_set(me, slot, 0);
            self.reclaimed += v;
            self.stats.reclaimed += v;
            debug_assert!(self.reclaimed <= self.head, "reclaim ran past head");
        }
    }

    fn steal_from(&mut self, target: usize) -> StealOutcome {
        debug_assert_ne!(target, self.ctx.my_pe(), "stealing from self");
        if self.ctx.faults_active() {
            return self.steal_from_faulty(target);
        }
        self.stats.steal_attempts += 1;

        // 1. Lock, with abort checking while contended.
        loop {
            // ordering: SdcLockCas (owner steals from a peer)
            self.ctx.proto_site(AtomicSite::SdcLockCas.id());
            let prev = self.ctx.atomic_compare_swap(target, self.lock_addr(), 0, 1);
            if prev == 0 {
                break;
            }
            {
                // Aborting steals: peek at the metadata without the lock;
                // if the queue drained, give up instead of queueing on
                // the lock (§3.1).
                let mut meta = [0u64; 2];
                // ordering: SdcMetaRead (lock-free abort peek)
                self.ctx.proto_site(AtomicSite::SdcMetaRead.id());
                self.ctx.get_words(target, self.tail_addr(), &mut meta);
                let (tail, split) = (meta[0], meta[1]);
                if tail >= split {
                    self.stats.steals_closed += 1;
                    return StealOutcome::Closed;
                }
            }
        }

        // 2. Fetch tail and split (contiguous: one 16-byte get).
        let mut meta = [0u64; 2];
        // ordering: SdcMetaRead
        self.ctx.proto_site(AtomicSite::SdcMetaRead.id());
        self.ctx.get_words(target, self.tail_addr(), &mut meta);
        let (tail, split) = (meta[0], meta[1]);
        let avail = split - tail;
        if avail == 0 {
            // ordering: SdcUnlock
            self.ctx.proto_site(AtomicSite::SdcUnlock.id());
            self.ctx.atomic_set(target, self.lock_addr(), 0);
            self.stats.steals_empty += 1;
            return StealOutcome::Empty;
        }
        let vol = self.cfg.policy.volume(avail, 0).max(1);

        // 3. Publish the new tail; 4. unlock.
        // ordering: SdcTailPut
        self.ctx.proto_site(AtomicSite::SdcTailPut.id());
        self.ctx.put_words(target, self.tail_addr(), &[tail + vol]);
        // ordering: SdcUnlock
        self.ctx.proto_site(AtomicSite::SdcUnlock.id());
        self.ctx.atomic_set(target, self.lock_addr(), 0);

        // Make room locally before landing the block.
        while self.live_span() + vol > self.cfg.capacity as u64 {
            self.stats.owner_polls += 1;
            self.progress();
            self.ctx.compute(100);
            self.ctx.idle_hint();
        }

        // 5. Copy the stolen records.
        let start = self.buf.ring().slot(tail);
        let mut scratch = std::mem::take(&mut self.scratch);
        // ordering: SdcPayloadRead
        self.ctx.proto_site(AtomicSite::SdcPayloadRead.id());
        self.buf
            .steal_copy(self.ctx, target, start, vol as usize, &mut scratch);

        // 6. Deferred completion signal (passive).
        // ordering: SdcComplete
        self.ctx.proto_site(AtomicSite::SdcComplete.id());
        self.ctx.atomic_set_nbi(target, self.comp_slot(tail), vol);

        // ordering: SdcPayloadWrite (landing a stolen block)
        self.ctx.proto_site(AtomicSite::SdcPayloadWrite.id());
        self.buf
            .write_local_block(self.ctx, self.head, vol as usize, &scratch);
        self.head += vol;
        self.scratch = scratch;

        self.stats.steals_won += 1;
        self.stats.tasks_stolen += vol;
        self.stats.enqueued += vol;
        StealOutcome::Got { tasks: vol }
    }

    fn probe(&self, target: usize) -> bool {
        let mut meta = [0u64; 2];
        // ordering: SdcMetaRead (read-only probe)
        self.ctx.proto_site(AtomicSite::SdcMetaRead.id());
        if self.ctx.faults_active() {
            if self
                .ctx
                .try_get_words(target, self.tail_addr(), &mut meta)
                .is_err()
            {
                return false; // unreachable target: nothing to steal here
            }
        } else {
            self.ctx.get_words(target, self.tail_addr(), &mut meta);
        }
        meta[0] < meta[1]
    }

    fn stats(&self) -> &QueueStats {
        &self.stats
    }

    fn flush_completions(&mut self) {
        self.ctx.quiet();
    }

    fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        if self.parked {
            return; // lock already held, shared region already drained
        }
        self.lock_and_drain();
    }

    fn park(&mut self) {
        if self.parked || self.retired {
            return;
        }
        self.parked = true;
        self.lock_and_drain();
    }

    fn unpark(&mut self) {
        if !self.parked || self.retired {
            return;
        }
        self.parked = false;
        // Shared region drained at park time (split == tail), so thieves
        // re-admitted by the unlock still abort on tail >= split until
        // the owner releases fresh work.
        self.unlock_own();
    }

    fn occupancy(&self) -> u64 {
        self.live_span()
    }
}
