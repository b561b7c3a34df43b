//! The SWS queue (paper §4): structured-atomic work stealing.
//!
//! All metadata a thief needs lives in one 64-bit [`stealval`](crate::stealval)
//! in the symmetric heap. A steal is:
//!
//! 1. remote **atomic fetch-add** of [`ASTEAL_UNIT`] — discovers *and*
//!    claims the next block (volume and offset follow from the
//!    steal-half arithmetic alone);
//! 2. one blocking **get** of the claimed records (gathering across the
//!    ring wrap if needed);
//! 3. one **passive atomic put** of the block volume into the target's
//!    completion array — the owner reconciles asynchronously.
//!
//! Three communications, two blocking — half of SDC's six (Fig. 2).
//!
//! The owner keeps absolute indices `reclaimed ≤ … ≤ split ≤ head`:
//! `[split, head)` is the private local portion, everything below `split`
//! down to `reclaimed` is shared-side state (unclaimed, claimed-in-flight,
//! or finished-but-not-yet-reclaimed blocks). Each release/acquire closes
//! the current *completion epoch* and advertises a fresh one; per-epoch
//! completion arrays let the owner move the split point while steals are
//! still in flight (§4.2, Fig. 5). With the Fig. 3 `ValidBit` layout there
//! is a single epoch, so the owner polls until in-flight steals drain —
//! the §4.1 behaviour, kept as an ablation.
//!
//! # Fault mode
//!
//! When the world carries an active fault plan, the steal path switches
//! to fallible operations with bounded retry, and the passive completion
//! put becomes a compare-swap so the thief *learns* whether its claim is
//! still valid:
//!
//! * claim fetch-add dropped → retried; past the budget the steal returns
//!   [`StealOutcome::Failed`] (no claim was made — nothing to recover);
//! * block copy failed after a claim → the thief poisons the completion
//!   slot ([`COMP_POISON`]) and returns [`StealOutcome::Aborted`]; the
//!   owner re-enqueues the block from its own ring;
//! * completion CAS lost or never confirmed → the slot stays zero and the
//!   owner reclaims the claim ([`COMP_RECLAIMED`]) after a grace period;
//!   a thief arriving later sees the sentinel and discards its copy.
//!
//! Every recovery keeps exactly-once execution: a block either lands at
//! exactly one thief (CAS wrote its volume) or returns to the owner (slot
//! poisoned or reclaimed) — never both.

use std::collections::VecDeque;

use sws_shmem::fault::retry_op;
use sws_shmem::rng::SplitMix64;
use sws_shmem::{OpError, OpResult, RetryPolicy, ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ordering::AtomicSite;
use crate::queue::buffer::TaskBuffer;
use crate::queue::{
    invariant_violation, QueueConfig, QueueStats, StealOutcome, StealQueue, COMP_POISON,
    COMP_RECLAIMED,
};
use crate::steal_half::StealPolicy;
use crate::stealval::{Gate, StealVal, ASTEAL_UNIT};

/// Owner bookkeeping for one advertisement (one use of a completion-array
/// slot set). Records retire strictly front-to-back so `reclaimed` only
/// ever advances over a contiguous finished prefix of the ring.
#[derive(Debug)]
struct EpochRec {
    /// Which completion-array slot set this advertisement uses.
    slot: usize,
    /// Absolute index of the advertisement's first task.
    tail: u64,
    /// Tasks advertised.
    itasks: u64,
    /// Steals claimed against it (live for the open record, fixed at
    /// close time otherwise).
    claimed_steals: u64,
    /// Leading steals confirmed finished via the completion array.
    finished_prefix: u64,
    /// Still the live advertisement?
    open: bool,
    /// Fault mode: when the owner first saw the head-of-line steal's
    /// completion slot still zero; starts the reclaim grace period.
    stuck_since: Option<u64>,
}

/// Run a fallible op under the queue's retry policy, charging backoff as
/// compute time and counting each retry. A free function so callers can
/// split-borrow queue fields around it.
fn retry_comm<T>(
    policy: &RetryPolicy,
    rng: &mut SplitMix64,
    stats: &mut QueueStats,
    ctx: &ShmemCtx,
    op: impl FnMut() -> OpResult<T>,
) -> OpResult<T> {
    retry_op(
        policy,
        rng,
        |ns| ctx.compute(ns),
        || stats.steals_retried += 1,
        op,
    )
}

fn is_down(e: &OpError) -> bool {
    matches!(e, OpError::TargetDown { .. })
}

/// One PE's SWS task queue. Constructed collectively; symmetric
/// addressing lets any instance steal from any peer afterwards.
pub struct SwsQueue<'a> {
    ctx: &'a ShmemCtx,
    cfg: QueueConfig,
    policy: StealPolicy,
    /// Completion-array slots per epoch (policy-dependent).
    slots_per_epoch: usize,
    sv_addr: SymAddr,
    comp_addr: SymAddr,
    buf: TaskBuffer,
    /// Next enqueue slot (absolute).
    head: u64,
    /// First local task (absolute); `[split, head)` is the local portion.
    split: u64,
    /// Everything below this (absolute) has been reclaimed.
    reclaimed: u64,
    /// Advertisement history, oldest first; the back entry is open iff an
    /// advertisement is live.
    epochs: VecDeque<EpochRec>,
    /// Slot sets referenced by records still in `epochs` (must not be
    /// handed to a new advertisement that posts completions).
    slot_busy: Vec<bool>,
    /// Gate permanently closed by [`StealQueue::retire`].
    retired: bool,
    /// Gate reversibly closed by [`StealQueue::park`] — the elastic-PE
    /// "queue locked" state; [`StealQueue::unpark`] re-opens it.
    parked: bool,
    /// Jitter source for retry backoff (fault mode).
    rng: SplitMix64,
    stats: QueueStats,
    scratch: Vec<u64>,
}

impl<'a> SwsQueue<'a> {
    /// Collectively construct one queue per PE (all PEs must call this
    /// with identical `cfg`).
    pub fn new(ctx: &'a ShmemCtx, cfg: QueueConfig) -> SwsQueue<'a> {
        cfg.validate();
        let n_slots = cfg.layout.n_epochs();
        let slots_per_epoch = cfg.policy.slot_budget();
        // Line-isolated placement: the stealval is the single most
        // contended word in the system — every thief RMWs it — so it must
        // never share a cache line with the completion arrays (written by
        // thieves, polled by the owner) or the ring buffer (overwritten
        // by the owner's enqueues). Aligned allocation puts each on its
        // own 128-byte line.
        let [sv_addr, comp_addr, buf_addr] =
            Self::blocks(&cfg).map(|words| ctx.alloc_words_aligned(words));
        // Advertise an open, empty epoch 0.
        ctx.proto_site(AtomicSite::SwsOwnerAdvertise.id());
        ctx.atomic_set(ctx.my_pe(), sv_addr, cfg.layout.encode(StealVal::empty()));
        ctx.barrier_all();

        let mut slot_busy = vec![false; n_slots];
        slot_busy[0] = true;
        let mut epochs = VecDeque::new();
        epochs.push_back(EpochRec {
            slot: 0,
            tail: 0,
            itasks: 0,
            claimed_steals: 0,
            finished_prefix: 0,
            open: true,
            stuck_since: None,
        });
        SwsQueue {
            ctx,
            cfg,
            policy: cfg.policy,
            slots_per_epoch,
            sv_addr,
            comp_addr,
            buf: TaskBuffer::new(buf_addr, cfg.capacity, cfg.task_words),
            head: 0,
            split: 0,
            reclaimed: 0,
            epochs,
            slot_busy,
            retired: false,
            parked: false,
            rng: SplitMix64::stream(0x57EA_F417, ctx.my_pe() as u64),
            stats: QueueStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Words in each of the three collective allocations [`SwsQueue::new`]
    /// makes, in order: the stealval, one completion array per epoch, the
    /// task buffer.
    pub(crate) fn blocks(cfg: &QueueConfig) -> [usize; 3] {
        [1, cfg.layout.n_epochs() * cfg.policy.slot_budget(), cfg.buffer_words()]
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Address of completion slot `steal` of completion-array set `slot`
    /// (valid on every PE — symmetric).
    #[inline]
    fn comp_slot(&self, slot: usize, steal: u64) -> SymAddr {
        debug_assert!((steal as usize) < self.slots_per_epoch);
        self.comp_addr
            .offset(slot * self.slots_per_epoch + steal as usize)
    }

    /// Ring slots currently in use (live tasks + claimed blocks whose
    /// space has not been reclaimed yet).
    #[inline]
    fn live_span(&self) -> u64 {
        self.head - self.reclaimed
    }

    /// Read the live stealval — a charged local atomic; the owner pays the
    /// NIC-loopback access just as on real hardware.
    fn read_sv(&self) -> StealVal {
        // ordering: SwsOwnerSvRead — catalog says Relaxed: the asteals
        // counter is monotonic per advertisement, so staleness only
        // under-reports and the caller retries (necessity-proven, see
        // ORDERINGS.md).
        self.ctx.proto_site(AtomicSite::SwsOwnerSvRead.id());
        let raw = self.ctx.atomic_fetch_ordered(
            self.ctx.my_pe(),
            self.sv_addr,
            AtomicSite::SwsOwnerSvRead.production().acquires(),
        );
        self.cfg.layout.decode(raw)
    }

    /// Clamp a raw asteals counter to the number of meaningful claims.
    fn clamp_claims(&self, itasks: u64, sv: &StealVal) -> u64 {
        (sv.asteals as u64).min(self.policy.max_steals(itasks))
    }

    /// Re-enqueue steal `s` of an advertisement (`tail`, `itasks`) from
    /// this PE's own ring into the local portion — the block's claim was
    /// poisoned or reclaimed, so its tasks run here instead.
    ///
    /// Must be called while `reclaimed` still sits at the block's start
    /// (records retire front-to-back, so that is always the case): the
    /// copy-out happens before any head-write can overwrite the slots.
    fn requeue_block(&mut self, tail: u64, itasks: u64, s: u64) {
        let vol = self.policy.volume(itasks, s);
        let offset = self.policy.claimed_before(itasks, s);
        let abs = tail + offset;
        debug_assert_eq!(abs, self.reclaimed, "requeue off the reclaim frontier");
        let mut words = Vec::new();
        self.buf
            .read_block_local(self.ctx, abs, vol as usize, &mut words);
        // ordering: SwsOwnerPayloadWrite (requeue)
        self.ctx.proto_site(AtomicSite::SwsOwnerPayloadWrite.id());
        self.buf
            .write_local_block(self.ctx, self.head, vol as usize, &words);
        self.head += vol;
        self.stats.enqueued += vol;
    }

    /// Retire finished advertisements (front-to-back) and advance
    /// `reclaimed` over the longest fully-finished prefix of steal blocks
    /// (§4.2: "all completion arrays are traversed to account for the
    /// longest sequence of fully completed steals"). In fault mode this is
    /// also where abandoned claims are recovered: a poisoned slot is
    /// re-enqueued immediately, a slot stuck at zero past the grace period
    /// is compare-swapped to [`COMP_RECLAIMED`] and re-enqueued.
    fn reclaim(&mut self) {
        let me = self.ctx.my_pe();
        let faults = self.ctx.faults_active();
        let grace = self.cfg.reclaim_grace_ns;
        loop {
            let Some((open, slot, tail, itasks, mut finished, claimed_fixed, mut stuck)) = self
                .epochs
                .front()
                .map(|f| {
                    (
                        f.open,
                        f.slot,
                        f.tail,
                        f.itasks,
                        f.finished_prefix,
                        f.claimed_steals,
                        f.stuck_since,
                    )
                })
            else {
                return;
            };
            let n_claimed = if open {
                let sv = self.read_sv();
                self.clamp_claims(itasks, &sv)
            } else {
                claimed_fixed
            };

            while finished < n_claimed {
                let comp = self.comp_slot(slot, finished);
                let vol = self.policy.volume(itasks, finished);
                // ordering: SwsOwnerReclaimRead
                self.ctx.proto_site(AtomicSite::SwsOwnerReclaimRead.id());
                let mut v = self.ctx.atomic_fetch(me, comp);
                if v == 0 && faults {
                    // Head-of-line claim has no completion yet: start (or
                    // check) the grace clock, then reclaim it.
                    let now = self.ctx.now_ns();
                    match stuck {
                        None => {
                            stuck = Some(now);
                            break;
                        }
                        Some(t0) if now.saturating_sub(t0) < grace => break,
                        Some(_) => {
                            // ordering: SwsOwnerReclaimRead (reclaim CAS)
                            self.ctx.proto_site(AtomicSite::SwsOwnerReclaimRead.id());
                            let prev = self.ctx.atomic_compare_swap(me, comp, 0, COMP_RECLAIMED);
                            if prev == 0 {
                                // We won the race against the thief: the
                                // block is ours again.
                                self.requeue_block(tail, itasks, finished);
                                self.stats.claims_reclaimed += 1;
                                finished += 1;
                                self.reclaimed += vol;
                                self.stats.reclaimed += vol;
                                stuck = None;
                                continue;
                            }
                            // The thief completed (or poisoned) just in
                            // time; handle the value it wrote.
                            v = prev;
                        }
                    }
                }
                if v == 0 {
                    break; // steal `finished` still in flight
                }
                if faults && v == COMP_POISON {
                    self.requeue_block(tail, itasks, finished);
                    self.stats.completions_poisoned += 1;
                } else {
                    debug_assert_eq!(v, vol, "completion volume mismatch");
                }
                finished += 1;
                self.reclaimed += vol;
                self.stats.reclaimed += vol;
                stuck = None;
            }

            let done = !open && finished == n_claimed;
            match self.epochs.front_mut() {
                Some(f) => {
                    f.finished_prefix = finished;
                    f.stuck_since = stuck;
                }
                None => invariant_violation("reclaim lost the front advertisement record"),
            }
            if done {
                self.slot_busy[slot] = false;
                self.epochs.pop_front();
                continue;
            }
            return;
        }
    }

    /// Close the open advertisement given an authoritative stealval;
    /// returns its number of unclaimed tasks. The record stays queued
    /// (its slot stays busy) until `reclaim` retires it in order.
    fn close_open(&mut self, sv: &StealVal) -> u64 {
        let policy = self.policy;
        let Some(rec) = self.epochs.back_mut().filter(|r| r.open) else {
            invariant_violation("close_open called without an open advertisement");
        };
        let claimed = (sv.asteals as u64).min(policy.max_steals(rec.itasks));
        rec.claimed_steals = claimed;
        rec.open = false;
        let unclaimed = rec.itasks - policy.claimed_before(rec.itasks, claimed);
        self.reclaim();
        unclaimed
    }

    /// Pick a completion-array slot set for a new advertisement, polling
    /// until one frees up. With a single epoch (the Fig. 3 layout) this
    /// is exactly §4.1's wait-for-in-flight-steals-to-drain.
    fn wait_for_free_slot(&mut self) -> usize {
        loop {
            if let Some(s) = (0..self.slot_busy.len()).find(|&s| !self.slot_busy[s]) {
                return s;
            }
            self.stats.owner_polls += 1;
            self.reclaim();
            // reclaim() issues charged local atomics, so virtual time
            // advances and in-flight thieves can complete; the extra
            // compute charge guards against a zero-cost no-op poll.
            self.ctx.compute(100);
            self.ctx.idle_hint();
        }
    }

    /// Publish a new advertisement of `itasks` tasks starting at absolute
    /// index `tail`, under completion-slot set `slot`.
    fn advertise(&mut self, slot: usize, tail: u64, itasks: u64) {
        // Zero the slots this advertisement can receive completions in,
        // *before* thieves can see it.
        for s in 0..self.policy.max_steals(itasks) {
            // ordering: SwsOwnerSlotZero
            self.ctx.proto_site(AtomicSite::SwsOwnerSlotZero.id());
            self.ctx
                .atomic_set(self.ctx.my_pe(), self.comp_slot(slot, s), 0);
        }
        let sv = StealVal {
            asteals: 0,
            gate: Gate::Open { epoch: slot as u8 },
            itasks: itasks as u32,
            tail: self.buf.ring().slot(tail) as u32,
        };
        // ordering: SwsOwnerAdvertise
        self.ctx.proto_site(AtomicSite::SwsOwnerAdvertise.id());
        self.ctx
            .atomic_set(self.ctx.my_pe(), self.sv_addr, self.cfg.layout.encode(sv));
        // Rooted-tree steal bound: this advertisement admits at most
        // max_steals(itasks) successful claims; accrue the budget the
        // steal-bound invariant checks Σ steals_won against.
        self.stats.steal_budget += self.policy.max_steals(itasks);
        self.slot_busy[slot] = true;
        self.epochs.push_back(EpochRec {
            slot,
            tail,
            itasks,
            claimed_steals: 0,
            finished_prefix: 0,
            open: true,
            stuck_since: None,
        });
    }

    /// Close the gate (locked stealval) and drain every in-flight steal —
    /// the shared body of [`StealQueue::retire`] and [`StealQueue::park`].
    /// On return all tasks still owned sit in the local portion and no
    /// epoch record remains.
    fn close_gate_and_drain(&mut self) {
        // Close the gate. Thieves racing the swap either claimed before it
        // (drained below) or see Closed / TargetDown.
        let closed = self.cfg.layout.encode(StealVal {
            asteals: 0,
            gate: Gate::Closed,
            itasks: 0,
            tail: 0,
        });
        // ordering: SwsOwnerAcquireSwap (retire/park closes the gate)
        self.ctx.proto_site(AtomicSite::SwsOwnerAcquireSwap.id());
        let raw = self.ctx.atomic_swap(self.ctx.my_pe(), self.sv_addr, closed);
        let sv = self.cfg.layout.decode(raw);
        if matches!(sv.gate, Gate::Open { .. }) && self.epochs.back().is_some_and(|e| e.open) {
            // Recover the unclaimed tail of the open advertisement into
            // the local portion; its claimed prefix drains below.
            let unclaimed = self.close_open(&sv);
            self.split -= unclaimed;
        }
        // Drain every outstanding claim: thieves complete, poison, or are
        // reclaimed after the grace period — the loop's compute charges
        // keep virtual time moving so all three can happen.
        while !self.epochs.is_empty() {
            self.reclaim();
            if self.epochs.is_empty() {
                break;
            }
            self.stats.owner_polls += 1;
            self.ctx.compute(200);
            self.ctx.idle_hint();
        }
    }

    /// Fault-mode steal: fallible ops with bounded retry, poison on a
    /// failed copy, CAS-confirmed completion. See the module docs for the
    /// recovery protocol.
    fn steal_from_faulty(&mut self, target: usize) -> StealOutcome {
        self.stats.steal_attempts += 1;
        let ctx = self.ctx;
        let policy = self.cfg.retry;
        let sv_addr = self.sv_addr;

        // 1. Claim. A dropped fetch-add has no memory effect, so retrying
        // it cannot double-claim.
        let claim = retry_comm(&policy, &mut self.rng, &mut self.stats, ctx, || {
            // ordering: SwsThiefClaim
            ctx.proto_site(AtomicSite::SwsThiefClaim.id());
            ctx.try_atomic_fetch_add(target, sv_addr, ASTEAL_UNIT)
        });
        let raw = match claim {
            Ok(raw) => raw,
            Err(e) => {
                self.stats.steals_failed += 1;
                return StealOutcome::Failed {
                    target_down: is_down(&e),
                };
            }
        };
        let sv = self.cfg.layout.decode(raw);
        let epoch = match sv.gate {
            Gate::Closed => {
                self.stats.steals_closed += 1;
                return StealOutcome::Closed;
            }
            Gate::Open { epoch } => epoch,
        };
        let itasks = sv.itasks as u64;
        let a = sv.asteals as u64;
        if a >= self.policy.max_steals(itasks) {
            self.stats.steals_empty += 1;
            return StealOutcome::Empty;
        }
        let vol = self.policy.volume(itasks, a);
        let offset = self.policy.claimed_before(itasks, a);
        let comp = self.comp_slot(epoch as usize, a);

        // Make room locally before landing the block.
        while self.live_span() + vol > self.cfg.capacity as u64 {
            self.stats.owner_polls += 1;
            self.reclaim();
            self.ctx.compute(100);
            self.ctx.idle_hint();
        }

        // 2. Copy the claimed block.
        let start = self.buf.ring().slot(sv.tail as u64 + offset);
        let buf = self.buf;
        let mut scratch = std::mem::take(&mut self.scratch);
        let got = retry_comm(&policy, &mut self.rng, &mut self.stats, ctx, || {
            // ordering: SwsThiefPayloadRead
            ctx.proto_site(AtomicSite::SwsThiefPayloadRead.id());
            buf.try_steal_copy(ctx, target, start, vol as usize, &mut scratch)
        });
        if let Err(e) = got {
            // We hold a claim we cannot fill: poison the completion slot
            // so the owner re-enqueues the block promptly. If even the
            // poison is lost, the owner's grace-period reclaim recovers
            // the block — either way it runs exactly once, at the owner.
            let _ = retry_comm(&policy, &mut self.rng, &mut self.stats, ctx, || {
                // ordering: SwsThiefComplete (poison CAS)
                ctx.proto_site(AtomicSite::SwsThiefComplete.id());
                ctx.try_atomic_compare_swap(target, comp, 0, COMP_POISON)
            });
            self.scratch = scratch;
            self.stats.steals_aborted += 1;
            return StealOutcome::Aborted {
                target_down: is_down(&e),
            };
        }

        // 3. Completion — a CAS instead of the passive put, *before* the
        // block lands locally: only a confirmed claim may execute.
        let fin = retry_comm(&policy, &mut self.rng, &mut self.stats, ctx, || {
            // ordering: SwsThiefComplete (confirmed-claim CAS)
            ctx.proto_site(AtomicSite::SwsThiefComplete.id());
            ctx.try_atomic_compare_swap(target, comp, 0, vol)
        });
        match fin {
            Ok(0) => {
                // ordering: SwsOwnerPayloadWrite (landing a stolen block)
                ctx.proto_site(AtomicSite::SwsOwnerPayloadWrite.id());
                self.buf
                    .write_local_block(ctx, self.head, vol as usize, &scratch);
                self.head += vol;
                self.scratch = scratch;
                self.stats.steals_won += 1;
                self.stats.tasks_stolen += vol;
                self.stats.enqueued += vol;
                StealOutcome::Got { tasks: vol }
            }
            Ok(prev) => {
                // The owner reclaimed the claim during the copy; the block
                // already returned to its ring. Discard our copy.
                debug_assert_eq!(prev, COMP_RECLAIMED, "unexpected completion-slot value");
                self.scratch = scratch;
                self.stats.steals_aborted += 1;
                StealOutcome::Aborted { target_down: false }
            }
            Err(e) => {
                // Could not confirm: leave the slot for the owner's grace
                // reclaim and discard the copy — never run unconfirmed
                // tasks.
                self.scratch = scratch;
                self.stats.steals_aborted += 1;
                StealOutcome::Aborted {
                    target_down: is_down(&e),
                }
            }
        }
    }
}

impl StealQueue for SwsQueue<'_> {
    fn enqueue(&mut self, task: &TaskDescriptor) -> bool {
        if self.live_span() >= self.cfg.capacity as u64 {
            self.progress();
            if self.live_span() >= self.cfg.capacity as u64 {
                return false;
            }
        }
        // ordering: SwsOwnerPayloadWrite
        self.ctx.proto_site(AtomicSite::SwsOwnerPayloadWrite.id());
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
        let Some(rec) = self.epochs.back().filter(|e| e.open) else {
            return 0;
        };
        let itasks = rec.itasks;
        let sv = self.read_sv();
        let claimed = (sv.asteals as u64).min(self.policy.max_steals(itasks));
        itasks - self.policy.claimed_before(itasks, claimed)
    }

    fn release(&mut self) -> bool {
        if self.retired || self.parked {
            return false;
        }
        let nlocal = self.local_count();
        if nlocal == 0 {
            return false;
        }
        // Release only when the shared portion is fully claimed — that
        // precondition is what makes the lock-free stealval reset safe
        // (a racing thief of the stale advertisement gets volume 0).
        if let Some(itasks) = self.epochs.back().filter(|e| e.open).map(|r| r.itasks) {
            let sv = self.read_sv();
            let claimed = self.clamp_claims(itasks, &sv);
            if self.policy.claimed_before(itasks, claimed) < itasks {
                return false; // unclaimed shared work remains
            }
            self.close_open(&sv);
        }
        // Expose the older half of the local portion, capped so the
        // advertisement's steal count fits its completion-slot set.
        let k = (nlocal - nlocal / 2)
            .min(self.policy.max_advert(self.cfg.layout.max_itasks() as u64));
        let slot = self.wait_for_free_slot();
        let tail = self.split;
        self.split += k;
        self.advertise(slot, tail, k);
        self.ctx.compute(self.cfg.split_update_ns);
        self.stats.releases += 1;
        true
    }

    fn acquire(&mut self) -> bool {
        debug_assert_eq!(
            self.split, self.head,
            "acquire requires an empty local portion"
        );
        let Some((rec_tail, rec_itasks, rec_slot)) = self
            .epochs
            .back()
            .filter(|e| e.open)
            .map(|r| (r.tail, r.itasks, r.slot))
        else {
            self.stats.acquire_misses += 1;
            return false;
        };
        // Disable steals: swap in a closed gate; the returned word is the
        // authoritative claim count ("upon starting an acquire operation,
        // stealing is temporarily disabled", §4.1).
        let closed = self.cfg.layout.encode(StealVal {
            asteals: 0,
            gate: Gate::Closed,
            itasks: 0,
            tail: 0,
        });
        // ordering: SwsOwnerAcquireSwap (acquire closes the gate)
        self.ctx.proto_site(AtomicSite::SwsOwnerAcquireSwap.id());
        let raw = self.ctx.atomic_swap(self.ctx.my_pe(), self.sv_addr, closed);
        let sv = self.cfg.layout.decode(raw);
        debug_assert!(
            matches!(sv.gate, Gate::Open { .. }),
            "only the owner closes the gate"
        );

        let unclaimed = self.close_open(&sv);
        let claimed_vol = rec_itasks - unclaimed;

        if unclaimed == 0 {
            // Nothing to recover; reopen an empty advertisement so thieves
            // see "empty" rather than "locked". An empty advertisement
            // never receives completions, so reusing the same slot set is
            // safe even while its previous use is still draining.
            self.advertise(rec_slot, self.split, 0);
            self.stats.acquire_misses += 1;
            return false;
        }

        // Take the newer half of the unclaimed region back into the local
        // portion; re-advertise the rest under a fresh epoch (Fig. 5),
        // capped to the policy's advertisement limit.
        let cap = self.policy.max_advert(self.cfg.layout.max_itasks() as u64);
        let keep = (unclaimed / 2).min(cap);
        let take = unclaimed - keep;
        self.split -= take;
        let new_tail = rec_tail + claimed_vol;
        let slot = if keep == 0 {
            rec_slot // empty advertisement: slot reuse is safe (above)
        } else {
            self.wait_for_free_slot()
        };
        self.advertise(slot, new_tail, keep);
        self.ctx.compute(self.cfg.split_update_ns);
        self.stats.acquires += 1;
        true
    }

    fn progress(&mut self) {
        self.reclaim();
    }

    fn steal_from(&mut self, target: usize) -> StealOutcome {
        debug_assert_ne!(target, self.ctx.my_pe(), "stealing from self");
        if self.ctx.faults_active() {
            return self.steal_from_faulty(target);
        }
        self.stats.steal_attempts += 1;

        // 1. One atomic fetch-add: discover AND claim.
        // ordering: SwsThiefClaim
        self.ctx.proto_site(AtomicSite::SwsThiefClaim.id());
        let raw = self.ctx.atomic_fetch_add(target, self.sv_addr, ASTEAL_UNIT);
        let sv = self.cfg.layout.decode(raw);
        let epoch = match sv.gate {
            Gate::Closed => {
                self.stats.steals_closed += 1;
                return StealOutcome::Closed;
            }
            Gate::Open { epoch } => epoch,
        };
        let itasks = sv.itasks as u64;
        let a = sv.asteals as u64;
        if a >= self.policy.max_steals(itasks) {
            self.stats.steals_empty += 1;
            return StealOutcome::Empty;
        }
        let vol = self.policy.volume(itasks, a);
        let offset = self.policy.claimed_before(itasks, a);

        // Make room locally before landing the block (our own previous
        // advertisements may still hold unreclaimed ring space).
        while self.live_span() + vol > self.cfg.capacity as u64 {
            self.stats.owner_polls += 1;
            self.reclaim();
            self.ctx.compute(100);
            self.ctx.idle_hint();
        }

        // 2. One get (gathered across the ring wrap if needed).
        let start = self.buf.ring().slot(sv.tail as u64 + offset);
        let mut scratch = std::mem::take(&mut self.scratch);
        if self.cfg.mutation == Some(crate::queue::Mutation::CompleteBeforeCopy) {
            // Seeded bug (exploration self-test): signal completion
            // before the payload copy, licensing the owner to overwrite
            // the ring words mid-steal.
            // ordering: SwsThiefComplete
            self.ctx.proto_site(AtomicSite::SwsThiefComplete.id());
            self.ctx
                .atomic_set_nbi(target, self.comp_slot(epoch as usize, a), vol);
            // ordering: SwsThiefPayloadRead
            self.ctx.proto_site(AtomicSite::SwsThiefPayloadRead.id());
            self.buf
                .steal_copy(self.ctx, target, start, vol as usize, &mut scratch);
        } else {
            // ordering: SwsThiefPayloadRead
            self.ctx.proto_site(AtomicSite::SwsThiefPayloadRead.id());
            self.buf
                .steal_copy(self.ctx, target, start, vol as usize, &mut scratch);

            // 3. Passive completion notification; the owner reconciles
            // later.
            // ordering: SwsThiefComplete
            self.ctx.proto_site(AtomicSite::SwsThiefComplete.id());
            self.ctx
                .atomic_set_nbi(target, self.comp_slot(epoch as usize, a), vol);
        }

        // Land the block in our local portion.
        // ordering: SwsOwnerPayloadWrite (landing a stolen block)
        self.ctx.proto_site(AtomicSite::SwsOwnerPayloadWrite.id());
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
        // ordering: SwsThiefProbe
        self.ctx.proto_site(AtomicSite::SwsThiefProbe.id());
        let raw = if self.ctx.faults_active() {
            match self.ctx.try_atomic_fetch(target, self.sv_addr) {
                Ok(raw) => raw,
                Err(_) => return false, // unreachable target: nothing to steal here
            }
        } else {
            self.ctx.atomic_fetch(target, self.sv_addr)
        };
        let sv = self.cfg.layout.decode(raw);
        match sv.gate {
            Gate::Closed => true, // owner mid-update: work may appear
            Gate::Open { .. } => {
                (sv.asteals as u64) < self.policy.max_steals(sv.itasks as u64)
            }
        }
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
            return; // gate already closed and every claim drained
        }
        self.close_gate_and_drain();
    }

    fn park(&mut self) {
        if self.parked || self.retired {
            return;
        }
        self.parked = true;
        self.close_gate_and_drain();
    }

    fn unpark(&mut self) {
        if !self.parked || self.retired {
            return;
        }
        self.parked = false;
        // Every epoch drained at park time, so a slot set is free; publish
        // an open, empty advertisement so thieves see "empty" again
        // instead of "locked".
        debug_assert!(self.epochs.is_empty(), "parked queue retained epochs");
        let slot = self.wait_for_free_slot();
        self.advertise(slot, self.split, 0);
    }

    fn occupancy(&self) -> u64 {
        self.live_span()
    }
}
