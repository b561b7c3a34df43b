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
//! Every thief-side op is issued through its fallible form under the
//! queue's retry policy; without an injector none can fail, so the six
//! steps above are what runs. An active fault plan *adds* ops — the
//! claim marker, a finalize CAS in place of the passive signal, a bound
//! on lock contention — because faults interact with SDC's lock in a way
//! SWS never has to deal with: a
//! thief that claimed a block (published `tail`) and then vanishes leaves
//! no trace in the baseline protocol — the owner would wait on the
//! completion slot forever. Under an active fault plan the thief therefore
//! writes a [`Completion::Claimed`] marker into the completion slot
//! *before* publishing the new tail, converting every claim into owner-
//! visible state:
//!
//! * copy failed → the thief flips the marker to [`Completion::Poisoned`];
//!   the owner re-enqueues the block;
//! * thief stalls or dies mid-copy → the marker outlives the grace period
//!   and the owner compare-swaps it to zero, reclaiming the block. Zero
//!   is also the slot's fresh state, so a thief writes no completion word
//!   (poison, finalize) later than half the grace after publishing its
//!   claim — past that it discards its copy without writing;
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

use sws_shmem::{OpResult, ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ordering::AtomicSite;
use crate::protocol::{sdc_claim, sdc_comp, Completion};
use crate::queue::owner::{is_down, OwnerRing};
use crate::queue::{
    invariant_violation, QueueConfig, QueueStats, StealOutcome, StealQueue, SPLIT_UPDATE_NS,
};

/// Word offsets of the SDC metadata block.
pub(crate) const LOCK: usize = 0;
pub(crate) const TAIL: usize = 1;
pub(crate) const SPLIT: usize = 2;
const META_WORDS: usize = 3;

/// Virtual ns charged per retry of a must-complete cleanup op.
const INSIST_BACKOFF_NS: u64 = 2_000;

/// Retry a cleanup op until it succeeds or the target goes down. Used
/// only for ops that release resources (unlock, marker rollback): they
/// must not be abandoned on a transient fault, and if the target is down
/// the resource died with it.
fn insist<T>(ctx: &ShmemCtx, mut op: impl FnMut() -> OpResult<T>) {
    loop {
        match op() {
            Ok(_) => return,
            Err(e) if is_down(&e) => return,
            Err(_) => ctx.compute(INSIST_BACKOFF_NS),
        }
    }
}

/// One PE's SDC task queue.
pub struct SdcQueue<'a> {
    /// The owner-side ring; `split` mirrors the published split word.
    ring: OwnerRing<'a>,
    meta: SymAddr,
    comp: SymAddr,
    /// Fault mode: grace tracking for the claim at the reclaim frontier —
    /// `(frontier_abs, first_seen_ns)`.
    stuck: Option<(u64, u64)>,
}

impl<'a> SdcQueue<'a> {
    /// Collectively construct one queue per PE (identical `cfg` everywhere).
    pub fn new(ctx: &'a ShmemCtx, cfg: QueueConfig) -> SdcQueue<'a> {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
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
            ring: OwnerRing::new(ctx, cfg, buf_addr, AtomicSite::SdcPayloadWrite, 0x5DC0_F417),
            meta,
            comp,
            stuck: None,
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
        &self.ring.cfg
    }

    #[inline]
    fn lock_addr(&self) -> SymAddr {
        self.meta.offset(LOCK)
    }

    #[inline]
    fn tail_addr(&self) -> SymAddr {
        self.meta.offset(TAIL)
    }

    /// Completion-ring slot for a stolen block starting at absolute
    /// index `tail`.
    #[inline]
    fn comp_slot(&self, tail: u64) -> SymAddr {
        self.comp.offset(sdc_comp(&self.ring.cfg, tail) as usize)
    }

    /// Owner: read the published tail (thieves advance it remotely).
    fn read_tail(&self) -> u64 {
        let ctx = self.ring.ctx;
        // ordering: SdcOwnerTailRead
        ctx.proto_site(AtomicSite::SdcOwnerTailRead.id());
        ctx.atomic_fetch(ctx.my_pe(), self.tail_addr())
    }

    /// Owner: publish the owner's `split` mirror.
    fn publish_split(&self) {
        let ctx = self.ring.ctx;
        // ordering: SdcSplitPublish
        ctx.proto_site(AtomicSite::SdcSplitPublish.id());
        ctx.atomic_set(ctx.my_pe(), self.meta.offset(SPLIT), self.ring.split);
    }

    /// Owner: spin on our own queue lock (needed by `acquire`; thieves
    /// hold it during their metadata update).
    fn lock_own(&mut self) {
        let ctx = self.ring.ctx;
        loop {
            // ordering: SdcLockCas (owner self-lock)
            ctx.proto_site(AtomicSite::SdcLockCas.id());
            if ctx.atomic_compare_swap(ctx.my_pe(), self.lock_addr(), 0, 1) == 0 {
                return;
            }
            self.ring.stats.owner_polls += 1;
            ctx.idle_hint();
        }
    }

    /// Release `target`'s queue lock (our own included). A held lock is
    /// never abandoned on a transient fault — that would wedge the whole
    /// victim — so the store is insisted on (module docs).
    fn unlock(&self, target: usize) {
        let ctx = self.ring.ctx;
        insist(ctx, || {
            // ordering: SdcUnlock
            ctx.proto_site(AtomicSite::SdcUnlock.id());
            ctx.try_atomic_set(target, self.lock_addr(), 0)
        });
    }

    /// Take our own lock (and keep it), pull the unclaimed shared region
    /// back into the local portion, and drain every published claim — the
    /// shared body of [`StealQueue::retire`] and [`StealQueue::park`].
    /// Thieves contending on the held lock abort once they see
    /// `tail >= split`.
    fn lock_and_drain(&mut self) {
        self.lock_own();
        let tail = self.read_tail();
        if tail < self.ring.split {
            self.ring.split = tail;
            self.publish_split();
        }
        // Drain every published claim below the final tail: thieves
        // finalize, poison, or get reclaimed after the grace period.
        while self.ring.reclaimed < tail {
            self.progress();
            if self.ring.reclaimed >= tail {
                break;
            }
            self.ring.owner_poll(200);
        }
    }
}

impl StealQueue for SdcQueue<'_> {
    fn enqueue(&mut self, task: &TaskDescriptor) -> bool {
        let mut rec = std::mem::take(&mut self.ring.rec);
        task.encode(&mut rec);
        let written = self.enqueue_records(&rec);
        self.ring.rec = rec;
        written == 1
    }

    fn enqueue_records(&mut self, records: &[u64]) -> usize {
        let tw = self.ring.cfg.task_words;
        let mut written = self.ring.push_records(records);
        // Full with records left: reclaim once per record that finds it
        // so, exactly as enqueueing them one by one would.
        while written * tw < records.len() {
            self.progress();
            match self.ring.push_records(&records[written * tw..]) {
                0 => break,
                more => written += more,
            }
        }
        written
    }

    fn pop_record(&mut self, rec: &mut [u64]) -> bool {
        self.ring.pop_record(rec)
    }

    fn pop_local(&mut self) -> Option<TaskDescriptor> {
        self.ring.pop()
    }

    fn local_count(&self) -> u64 {
        self.ring.local_count()
    }

    fn shared_estimate(&mut self) -> u64 {
        self.ring.split - self.read_tail()
    }

    fn release(&mut self) -> bool {
        if self.ring.is_closed() {
            return false;
        }
        let nlocal = self.local_count();
        if nlocal == 0 {
            return false;
        }
        // Lock-free release is only safe when the shared portion is
        // empty: a concurrent thief sees either the empty queue (aborts)
        // or the grown split (steals from it) — both consistent.
        if self.read_tail() < self.ring.split {
            return false;
        }
        let k = nlocal - nlocal / 2;
        self.ring.split += k;
        self.publish_split();
        self.ring.ctx.compute(SPLIT_UPDATE_NS);
        self.ring.stats.releases += 1;
        // Rooted-tree steal bound: this exposure of `k` unclaimed tasks
        // admits at most `max_steals(k)` successful steals before the
        // shared region runs dry (each steal shrinks `avail` by exactly
        // one cascade step; owner acquires only shrink it further), and
        // releases require `tail >= split`, so budgets never overlap.
        self.ring.stats.steal_budget += self.ring.cfg.policy.max_steals(k);
        true
    }

    fn acquire(&mut self) -> bool {
        debug_assert_eq!(
            self.ring.local_count(),
            0,
            "acquire requires an empty local portion"
        );
        // A retired (or parked) queue holds its own lock and has already
        // pulled the whole shared region local — nothing to acquire, and
        // re-locking would self-deadlock.
        if self.ring.is_closed() {
            self.ring.stats.acquire_misses += 1;
            return false;
        }
        // Thieves mutate tail under the lock, so the owner must take it
        // to move the split point down consistently (§3.1).
        self.lock_own();
        let avail = self.ring.split - self.read_tail();
        if avail == 0 {
            self.unlock(self.ring.ctx.my_pe());
            self.ring.stats.acquire_misses += 1;
            return false;
        }
        self.ring.split -= avail - avail / 2;
        self.publish_split();
        self.unlock(self.ring.ctx.my_pe());
        self.ring.ctx.compute(SPLIT_UPDATE_NS);
        self.ring.stats.acquires += 1;
        true
    }

    /// Deferred-copy reclaim: follow the chain of completion records
    /// starting at the reclaim watermark; each finished block wrote its
    /// volume into the slot named by its starting index. In fault mode
    /// flagged completion words carry recovery state, and the walk stops
    /// at the published tail — a claim marker is written *before* its
    /// tail, and a marker at or above the tail is not a claim yet.
    fn progress(&mut self) {
        let ctx = self.ring.ctx;
        let me = ctx.my_pe();
        let faults = ctx.faults_active();
        let grace = self.ring.cfg.reclaim_grace_ns;
        loop {
            let abs = self.ring.reclaimed;
            if abs == self.ring.head || (faults && abs >= self.read_tail()) {
                return;
            }
            let slot = self.comp_slot(abs);
            // ordering: SdcReclaimRead
            ctx.proto_site(AtomicSite::SdcReclaimRead.id());
            let v = ctx.atomic_fetch(me, slot);
            match Completion::read(v) {
                // Nothing finished here yet (in fault mode: claimed, but
                // the marker is not visible — the thief is still inside
                // its critical section). Check again next call.
                Completion::Pending => return,
                Completion::Poisoned(vol) => {
                    // The thief could not copy the block; take it back.
                    // ordering: SdcReclaimRead (poisoned-slot CAS)
                    ctx.proto_site(AtomicSite::SdcReclaimRead.id());
                    if ctx.atomic_compare_swap(me, slot, v, 0) == v {
                        self.ring.requeue_block(abs, vol);
                        self.ring.stats.completions_poisoned += 1;
                        self.stuck = None;
                    }
                }
                // In-flight claim: give the thief the grace period, then
                // reclaim. The thief's finalize CAS expects the marker,
                // so exactly one side wins the transition.
                Completion::Claimed(vol) => match self.stuck {
                    Some((f, t0)) if f == abs => {
                        if ctx.now_ns().saturating_sub(t0) < grace {
                            return;
                        }
                        // ordering: SdcReclaimRead (stuck-claim CAS)
                        ctx.proto_site(AtomicSite::SdcReclaimRead.id());
                        if ctx.atomic_compare_swap(me, slot, v, 0) == v {
                            self.ring.requeue_block(abs, vol);
                            self.ring.stats.claims_reclaimed += 1;
                            self.stuck = None;
                        }
                    }
                    _ => {
                        self.stuck = Some((abs, ctx.now_ns()));
                        return;
                    }
                },
                // Plain volume: the baseline completion signal.
                Completion::Done(vol) => {
                    // ordering: SdcReclaimZero
                    ctx.proto_site(AtomicSite::SdcReclaimZero.id());
                    ctx.atomic_set(me, slot, 0);
                    self.ring.reclaim_space(vol);
                    self.stuck = None;
                }
                Completion::Reclaimed => invariant_violation("an SDC completion word marked reclaimed"),
            }
        }
    }

    fn steal_from(&mut self, target: usize) -> StealOutcome {
        let ctx = self.ring.ctx;
        debug_assert_ne!(target, ctx.my_pe(), "stealing from self");
        ctx.begin_attempt();
        self.ring.stats.steal_attempts += 1;
        let faults = ctx.faults_active();
        let policy = self.ring.cfg.retry;
        let lock = self.lock_addr();
        let tail_a = self.tail_addr();

        // 1. Lock, with abort checking while contended. Injected failures
        // burn the retry budget; in fault mode plain contention gets a
        // larger abort-check budget before the thief walks away.
        let mut failures = 0u32;
        let mut contended = 0u32;
        loop {
            // ordering: SdcLockCas (thief lock)
            ctx.proto_site(AtomicSite::SdcLockCas.id());
            match ctx.try_atomic_compare_swap(target, lock, 0, 1) {
                Ok(0) => break,
                Ok(_) => {
                    // Aborting steals: peek at the metadata without the
                    // lock; if the queue drained, give up instead of
                    // queueing on the lock (§3.1).
                    let mut meta = [0u64; 2];
                    // ordering: SdcMetaRead (lock-free abort peek)
                    ctx.proto_site(AtomicSite::SdcMetaRead.id());
                    match ctx.try_get_words(target, tail_a, &mut meta) {
                        Ok(()) if sdc_claim(&self.ring.cfg, meta[0], meta[1]).is_none() => {
                            self.ring.stats.steals_closed += 1;
                            return StealOutcome::Closed;
                        }
                        Err(e) if is_down(&e) => return self.ring.failed(&e),
                        _ => {}
                    }
                    contended += 1;
                    if faults && contended > policy.max_attempts.saturating_mul(4) {
                        // The lock stayed hot the whole budget; treat it
                        // like an abort and come back later.
                        self.ring.stats.steals_closed += 1;
                        return StealOutcome::Closed;
                    }
                }
                Err(e) => {
                    failures += 1;
                    if is_down(&e) || failures >= policy.max_attempts {
                        return self.ring.failed(&e);
                    }
                    self.ring.stats.steals_retried += 1;
                    ctx.compute(policy.backoff_ns(failures, &mut self.ring.rng));
                }
            }
        }

        // Holding the lock from here: every early return must release it.

        // 2. Fetch tail and split (contiguous: one 16-byte get).
        let mut meta = [0u64; 2];
        let got = self.ring.retry(|| {
            // ordering: SdcMetaRead
            ctx.proto_site(AtomicSite::SdcMetaRead.id());
            ctx.try_get_words(target, tail_a, &mut meta)
        });
        if let Err(e) = got {
            self.unlock(target);
            return self.ring.failed(&e);
        }
        let tail = meta[0];
        let Some(block) = sdc_claim(&self.ring.cfg, tail, meta[1]) else {
            self.unlock(target);
            self.ring.stats.steals_empty += 1;
            return StealOutcome::Empty;
        };
        let (comp, vol) = (self.comp.offset(block.comp as usize), block.volume);
        let marker = Completion::Claimed(vol).word();

        // 2b. Fault mode: write the claim marker *before* publishing the
        // new tail, so the owner can recover the claim if we die past
        // this point. The slot is zero here: its previous use was
        // reclaimed before the ring wrapped.
        if faults {
            let put = self.ring.retry(|| {
                // ordering: SdcComplete (claim marker)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_set(target, comp, marker)
            });
            if let Err(e) = put {
                self.unlock(target);
                return self.ring.failed(&e);
            }
        }

        // 3. Publish the new tail — the claim.
        let claimed_at = ctx.now_ns();
        let put = self.ring.retry(|| {
            // ordering: SdcTailPut
            ctx.proto_site(AtomicSite::SdcTailPut.id());
            ctx.try_put_word(target, tail_a, tail + vol)
        });
        if let Err(e) = put {
            // Roll the marker back — no claim was published.
            insist(ctx, || {
                // ordering: SdcComplete (marker rollback CAS)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_compare_swap(target, comp, marker, 0)
            });
            self.unlock(target);
            return self.ring.failed(&e);
        }

        // 4. Unlock. If the target dies here the lock dies with it; the
        // claim is published, so proceed — recovery goes through the
        // marker protocol either way.
        self.unlock(target);

        // Make room locally before landing the block.
        while self.ring.lacks_room(vol) {
            self.progress();
            self.ring.owner_poll(100);
        }

        // 5. Copy the stolen records.
        let start = block.start_slot as usize;
        if let Err(e) = self
            .ring
            .copy_block(target, start, vol, AtomicSite::SdcPayloadRead)
        {
            // Claimed but uncopyable: poison so the owner re-enqueues
            // promptly. If the poison is lost too, the grace-period
            // reclaim recovers the block.
            let _ = self.ring.complete(claimed_at, || {
                // ordering: SdcComplete (poison CAS)
                ctx.proto_site(AtomicSite::SdcComplete.id());
                ctx.try_atomic_compare_swap(target, comp, marker, Completion::Poisoned(vol).word())
            });
            return self.ring.aborted(is_down(&e));
        }

        // 6. Completion. Fault-free: the deferred signal (passive).
        if !faults {
            // ordering: SdcComplete
            ctx.proto_site(AtomicSite::SdcComplete.id());
            ctx.atomic_set_nbi(target, comp, Completion::Done(vol).word());
            return self.ring.land(vol);
        }
        // Fault mode: replace the marker with the plain volume — the
        // same signal, made conditional so a reclaimed claim is detected
        // instead of double-counted.
        let fin = self.ring.complete(claimed_at, || {
            // ordering: SdcComplete (finalize CAS)
            ctx.proto_site(AtomicSite::SdcComplete.id());
            ctx.try_atomic_compare_swap(target, comp, marker, Completion::Done(vol).word())
        });
        match fin {
            Ok(Some(prev)) if prev == marker => self.ring.land(vol),
            // Too late to write, or the owner reclaimed the claim first:
            // the block is the owner's. Discard our copy.
            Ok(_) => self.ring.aborted(false),
            Err(e) => self.ring.aborted(is_down(&e)),
        }
    }

    fn probe(&self, target: usize) -> bool {
        let ctx = self.ring.ctx;
        ctx.begin_attempt();
        let mut meta = [0u64; 2];
        // ordering: SdcMetaRead (read-only probe)
        ctx.proto_site(AtomicSite::SdcMetaRead.id());
        // An unreachable target has nothing to steal.
        ctx.try_get_words(target, self.tail_addr(), &mut meta).is_ok()
            && sdc_claim(&self.ring.cfg, meta[0], meta[1]).is_some()
    }

    fn stats(&self) -> &QueueStats {
        &self.ring.stats
    }

    fn flush_completions(&mut self) {
        self.ring.ctx.quiet();
    }

    fn retire(&mut self) {
        if self.ring.begin_retire() {
            self.lock_and_drain();
        }
    }

    fn park(&mut self) {
        if self.ring.begin_park() {
            self.lock_and_drain();
        }
    }

    fn unpark(&mut self) {
        // Shared region drained at park time (split == tail), so thieves
        // re-admitted by the unlock still abort on tail >= split until
        // the owner releases fresh work.
        if self.ring.begin_unpark() {
            self.unlock(self.ring.ctx.my_pe());
        }
    }

    fn occupancy(&self) -> u64 {
        self.ring.live_span()
    }
}
