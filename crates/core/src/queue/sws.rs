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
//! Every thief-side op is issued through its fallible form under the
//! queue's retry policy; without an injector none can fail, so the
//! sequence above is what runs. When the world carries an active fault
//! plan the one op that *differs* is the completion: the passive put
//! becomes a compare-swap so the thief *learns* whether its claim is
//! still valid:
//!
//! * claim fetch-add dropped → retried; past the budget the steal returns
//!   [`StealOutcome::Failed`] (no claim was made — nothing to recover);
//! * block copy failed after a claim → the thief poisons the completion
//!   slot ([`Completion::Poisoned`]) and returns [`StealOutcome::Aborted`];
//!   the owner re-enqueues the block from its own ring;
//! * completion CAS lost or never confirmed → the slot stays zero and the
//!   owner reclaims the claim ([`Completion::Reclaimed`]) after a grace
//!   period that starts when it first sees the claim unfinished.
//!
//! Every recovery keeps exactly-once execution: a block either lands at
//! exactly one thief (CAS wrote its volume) or returns to the owner (slot
//! poisoned or reclaimed) — never both. The owner's mark is re-zeroed with
//! the slot set's next advertisement, so the thief keeps its side of the
//! bargain by the clock: it writes no completion word (confirm or poison)
//! later than half the grace after its claim, and walks away instead.

use std::collections::VecDeque;

use sws_shmem::{ShmemCtx, SymAddr};
use sws_task::TaskDescriptor;

use crate::ordering::{AtomicSite, Defect};
use crate::protocol::{
    claims_taken, sws_claim, sws_comp, sws_probe, tasks_unclaimed, Claim, Completion,
};
use crate::queue::owner::{is_down, OwnerRing};
use crate::queue::{
    invariant_violation, QueueConfig, QueueStats, StealOutcome, StealQueue, SPLIT_UPDATE_NS,
};
use crate::steal_half::StealPolicy;
use crate::stealval::{Gate, StealVal, ASTEAL_UNIT};

/// Owner bookkeeping for one advertisement (one use of a completion-array
/// slot set). Records retire strictly front-to-back so `reclaimed` only
/// ever advances over a contiguous finished prefix of the ring.
#[derive(Copy, Clone, Debug)]
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

impl EpochRec {
    /// The record of a freshly published advertisement.
    fn open(slot: usize, tail: u64, itasks: u64) -> EpochRec {
        EpochRec {
            slot,
            tail,
            itasks,
            claimed_steals: 0,
            finished_prefix: 0,
            open: true,
            stuck_since: None,
        }
    }
}

/// One PE's SWS task queue. Constructed collectively; symmetric
/// addressing lets any instance steal from any peer afterwards.
pub struct SwsQueue<'a> {
    /// The owner-side ring: `[split, head)` is the local portion,
    /// everything from `reclaimed` up to `split` is shared-side state.
    ring: OwnerRing<'a>,
    policy: StealPolicy,
    sv_addr: SymAddr,
    comp_addr: SymAddr,
    /// Advertisement history, oldest first; the back entry is open iff an
    /// advertisement is live.
    epochs: VecDeque<EpochRec>,
    /// Slot sets referenced by records still in `epochs` (must not be
    /// handed to a new advertisement that posts completions).
    slot_busy: Vec<bool>,
    /// The defect a self-test planted through the world's ordering
    /// control; `None` in every other world.
    defect: Option<Defect>,
}

impl<'a> SwsQueue<'a> {
    /// Collectively construct one queue per PE (all PEs must call this
    /// with identical `cfg`).
    pub fn new(ctx: &'a ShmemCtx, cfg: QueueConfig) -> SwsQueue<'a> {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let defect = ctx.planted_defect().and_then(Defect::from_id);
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

        let mut slot_busy = vec![false; cfg.layout.n_epochs()];
        slot_busy[0] = true;
        SwsQueue {
            ring: OwnerRing::new(ctx, cfg, buf_addr, AtomicSite::SwsOwnerPayloadWrite, 0x57EA_F417),
            policy: cfg.policy,
            sv_addr,
            comp_addr,
            epochs: VecDeque::from([EpochRec::open(0, 0, 0)]),
            slot_busy,
            defect,
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
        &self.ring.cfg
    }

    /// Address of completion slot `steal` of completion-array set `slot`
    /// (valid on every PE — symmetric).
    #[inline]
    fn comp_slot(&self, slot: usize, steal: u64) -> SymAddr {
        self.comp_addr.offset(sws_comp(&self.ring.cfg, slot as u64, steal) as usize)
    }

    /// Read the live stealval — a charged local atomic; the owner pays the
    /// NIC-loopback access just as on real hardware.
    fn read_sv(&self) -> StealVal {
        let ctx = self.ring.ctx;
        // ordering: SwsOwnerSvRead — catalog says Relaxed: the asteals
        // counter is monotonic per advertisement, so staleness only
        // under-reports and the caller retries (necessity-proven, see
        // ORDERINGS.md).
        ctx.proto_site(AtomicSite::SwsOwnerSvRead.id());
        let raw = ctx.atomic_fetch_ordered(
            ctx.my_pe(),
            self.sv_addr,
            AtomicSite::SwsOwnerSvRead.production().acquires(),
        );
        self.ring.cfg.layout.decode(raw)
    }

    /// The locked stealval: gate closed, nothing advertised.
    fn closed_sv(&self) -> u64 {
        self.ring.cfg.layout.encode(StealVal { gate: Gate::Closed, ..StealVal::empty() })
    }

    /// Retire finished advertisements (front-to-back) and advance
    /// `reclaimed` over the longest fully-finished prefix of steal blocks
    /// (§4.2: "all completion arrays are traversed to account for the
    /// longest sequence of fully completed steals"). In fault mode this is
    /// also where abandoned claims are recovered: a poisoned slot is
    /// re-enqueued immediately, a slot stuck at zero past the grace period
    /// is compare-swapped to [`Completion::Reclaimed`] and re-enqueued.
    fn reclaim(&mut self) {
        let ctx = self.ring.ctx;
        let me = ctx.my_pe();
        let faults = ctx.faults_active();
        let grace = self.ring.cfg.reclaim_grace_ns;
        loop {
            let Some(mut f) = self.epochs.front().copied() else {
                return;
            };
            let n_claimed = if f.open {
                claims_taken(self.policy, f.itasks, &self.read_sv())
            } else {
                f.claimed_steals
            };

            while f.finished_prefix < n_claimed {
                let comp = self.comp_slot(f.slot, f.finished_prefix);
                let vol = self.policy.volume(f.itasks, f.finished_prefix);
                // Records retire front to back, so this steal's block
                // starts exactly at the reclaim frontier.
                let abs = f.tail + self.policy.claimed_before(f.itasks, f.finished_prefix);
                // ordering: SwsOwnerReclaimRead
                ctx.proto_site(AtomicSite::SwsOwnerReclaimRead.id());
                let mut v = Completion::read(ctx.atomic_fetch(me, comp));
                if v == Completion::Pending && faults {
                    // Head-of-line claim has no completion yet: start (or
                    // check) the grace clock, then reclaim it.
                    let now = ctx.now_ns();
                    match f.stuck_since {
                        None => {
                            f.stuck_since = Some(now);
                            break;
                        }
                        Some(t0) if now.saturating_sub(t0) < grace => break,
                        Some(_) => {
                            // ordering: SwsOwnerReclaimRead (reclaim CAS)
                            ctx.proto_site(AtomicSite::SwsOwnerReclaimRead.id());
                            let mark = Completion::Reclaimed.word();
                            v = Completion::read(ctx.atomic_compare_swap(me, comp, 0, mark));
                            if v == Completion::Pending {
                                // We won the race against the thief: the
                                // block is ours again.
                                self.ring.requeue_block(abs, vol);
                                self.ring.stats.claims_reclaimed += 1;
                                f.finished_prefix += 1;
                                f.stuck_since = None;
                                continue;
                            }
                            // The thief completed (or poisoned) just in
                            // time; handle the value it wrote.
                        }
                    }
                }
                match v {
                    Completion::Pending => break, // this steal is still in flight
                    Completion::Poisoned(_) => {
                        self.ring.requeue_block(abs, vol);
                        self.ring.stats.completions_poisoned += 1;
                    }
                    done => {
                        debug_assert_eq!(done, Completion::Done(vol), "completion volume mismatch");
                        self.ring.reclaim_space(vol);
                    }
                }
                f.finished_prefix += 1;
                f.stuck_since = None;
            }

            // Nothing above touches the record queue, so the front is
            // still the record `f` was copied from.
            self.epochs[0] = f;
            if !f.open && f.finished_prefix == n_claimed {
                self.slot_busy[f.slot] = false;
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
        rec.claimed_steals = claims_taken(policy, rec.itasks, sv);
        rec.open = false;
        let unclaimed = tasks_unclaimed(policy, rec.itasks, sv);
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
            self.reclaim();
            self.ring.owner_poll(100);
        }
    }

    /// Publish a new advertisement of `itasks` tasks starting at absolute
    /// index `tail`, under completion-slot set `slot`.
    fn advertise(&mut self, slot: usize, tail: u64, itasks: u64) {
        let ctx = self.ring.ctx;
        // Zero the slots this advertisement can receive completions in,
        // *before* thieves can see it.
        for s in 0..self.policy.max_steals(itasks) {
            // ordering: SwsOwnerSlotZero
            ctx.proto_site(AtomicSite::SwsOwnerSlotZero.id());
            ctx.atomic_set(ctx.my_pe(), self.comp_slot(slot, s), 0);
        }
        let sv = StealVal {
            asteals: 0,
            gate: Gate::Open { epoch: slot as u8 },
            itasks: itasks as u32,
            tail: self.ring.buf.ring().slot(tail) as u32,
        };
        // ordering: SwsOwnerAdvertise
        ctx.proto_site(AtomicSite::SwsOwnerAdvertise.id());
        ctx.atomic_set(ctx.my_pe(), self.sv_addr, self.ring.cfg.layout.encode(sv));
        // Rooted-tree steal bound: this advertisement admits at most
        // max_steals(itasks) successful claims; accrue the budget the
        // steal-bound invariant checks Σ steals_won against.
        self.ring.stats.steal_budget += self.policy.max_steals(itasks);
        self.slot_busy[slot] = true;
        self.epochs.push_back(EpochRec::open(slot, tail, itasks));
    }

    /// Close the gate (locked stealval) and drain every in-flight steal —
    /// the shared body of [`StealQueue::retire`] and [`StealQueue::park`].
    /// On return all tasks still owned sit in the local portion and no
    /// epoch record remains.
    fn close_gate_and_drain(&mut self) {
        let ctx = self.ring.ctx;
        // Close the gate. Thieves racing the swap either claimed before it
        // (drained below) or see Closed / TargetDown.
        // ordering: SwsOwnerAcquireSwap (retire/park closes the gate)
        ctx.proto_site(AtomicSite::SwsOwnerAcquireSwap.id());
        let raw = ctx.atomic_swap(ctx.my_pe(), self.sv_addr, self.closed_sv());
        let sv = self.ring.cfg.layout.decode(raw);
        if matches!(sv.gate, Gate::Open { .. }) && self.epochs.back().is_some_and(|e| e.open) {
            // Recover the unclaimed tail of the open advertisement into
            // the local portion; its claimed prefix drains below.
            let unclaimed = self.close_open(&sv);
            self.ring.split -= unclaimed;
        }
        // Drain every outstanding claim: thieves complete, poison, or are
        // reclaimed after the grace period — the loop's compute charges
        // keep virtual time moving so all three can happen.
        while !self.epochs.is_empty() {
            self.reclaim();
            if self.epochs.is_empty() {
                break;
            }
            self.ring.owner_poll(200);
        }
    }
}

impl StealQueue for SwsQueue<'_> {
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
            self.reclaim();
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
        let Some(rec) = self.epochs.back().filter(|e| e.open) else {
            return 0;
        };
        tasks_unclaimed(self.policy, rec.itasks, &self.read_sv())
    }

    fn release(&mut self) -> bool {
        if self.ring.is_closed() {
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
            if tasks_unclaimed(self.policy, itasks, &sv) > 0 {
                return false; // unclaimed shared work remains
            }
            self.close_open(&sv);
        }
        // Expose the older half of the local portion, capped so the
        // advertisement's steal count fits its completion-slot set.
        let k = (nlocal - nlocal / 2)
            .min(self.policy.max_advert(self.ring.cfg.layout.max_itasks() as u64));
        let slot = self.wait_for_free_slot();
        let tail = self.ring.split;
        self.ring.split += k;
        self.advertise(slot, tail, k);
        self.ring.ctx.compute(SPLIT_UPDATE_NS);
        self.ring.stats.releases += 1;
        true
    }

    fn acquire(&mut self) -> bool {
        debug_assert_eq!(self.ring.local_count(), 0, "acquire requires an empty local portion");
        let Some(&EpochRec { tail: rec_tail, itasks: rec_itasks, slot: rec_slot, .. }) =
            self.epochs.back().filter(|e| e.open)
        else {
            self.ring.stats.acquire_misses += 1;
            return false;
        };
        let ctx = self.ring.ctx;
        // Disable steals: swap in a closed gate; the returned word is the
        // authoritative claim count ("upon starting an acquire operation,
        // stealing is temporarily disabled", §4.1).
        // ordering: SwsOwnerAcquireSwap (acquire closes the gate)
        ctx.proto_site(AtomicSite::SwsOwnerAcquireSwap.id());
        let raw = ctx.atomic_swap(ctx.my_pe(), self.sv_addr, self.closed_sv());
        let sv = self.ring.cfg.layout.decode(raw);
        debug_assert!(matches!(sv.gate, Gate::Open { .. }), "only the owner closes the gate");

        let unclaimed = self.close_open(&sv);
        let claimed_vol = rec_itasks - unclaimed;

        if unclaimed == 0 {
            // Nothing to recover; reopen an empty advertisement so thieves
            // see "empty" rather than "locked". An empty advertisement
            // never receives completions, so reusing the same slot set is
            // safe even while its previous use is still draining.
            self.advertise(rec_slot, self.ring.split, 0);
            self.ring.stats.acquire_misses += 1;
            return false;
        }

        // Take the newer half of the unclaimed region back into the local
        // portion; re-advertise the rest under a fresh epoch (Fig. 5),
        // capped to the policy's advertisement limit.
        let cap = self.policy.max_advert(self.ring.cfg.layout.max_itasks() as u64);
        let keep = (unclaimed / 2).min(cap);
        let take = unclaimed - keep;
        self.ring.split -= take;
        let new_tail = rec_tail + claimed_vol;
        let slot = if keep == 0 {
            rec_slot // empty advertisement: slot reuse is safe (above)
        } else {
            self.wait_for_free_slot()
        };
        self.advertise(slot, new_tail, keep);
        ctx.compute(SPLIT_UPDATE_NS);
        self.ring.stats.acquires += 1;
        true
    }

    fn progress(&mut self) {
        self.reclaim();
    }

    fn steal_from(&mut self, target: usize) -> StealOutcome {
        let ctx = self.ring.ctx;
        debug_assert_ne!(target, ctx.my_pe(), "stealing from self");
        ctx.begin_attempt();
        self.ring.stats.steal_attempts += 1;
        let sv_addr = self.sv_addr;

        // 1. One atomic fetch-add: discover AND claim. A dropped fetch-add
        // has no memory effect, so retrying it cannot double-claim; past
        // the budget no claim was made and there is nothing to recover.
        let claimed_at = ctx.now_ns();
        let claim = self.ring.retry(|| {
            // ordering: SwsThiefClaim
            ctx.proto_site(AtomicSite::SwsThiefClaim.id());
            ctx.try_atomic_fetch_add(target, sv_addr, ASTEAL_UNIT)
        });
        // Planted defect (conformance self-test): decode the claim with
        // tail bit 0 flipped, so the copy lands one slot off.
        let slot_off = u64::from(self.defect == Some(Defect::ClaimOneSlotOff));
        let (comp, vol, start) = match claim.map(|raw| sws_claim(&self.ring.cfg, raw ^ slot_off)) {
            Err(e) => return self.ring.failed(&e),
            Ok(Claim::Live(b)) => (self.comp_addr.offset(b.comp as usize), b.volume, b.start_slot as usize),
            Ok(Claim::Closed) => {
                self.ring.stats.steals_closed += 1;
                return StealOutcome::Closed;
            }
            Ok(Claim::Exhausted | Claim::Overflow) => {
                self.ring.stats.steals_empty += 1;
                return StealOutcome::Empty;
            }
        };

        // Make room locally before landing the block.
        while self.ring.lacks_room(vol) {
            self.reclaim();
            self.ring.owner_poll(100);
        }

        // Passive completion notification; the owner reconciles later.
        let notify = || {
            // ordering: SwsThiefComplete
            ctx.proto_site(AtomicSite::SwsThiefComplete.id());
            ctx.atomic_set_nbi(target, comp, Completion::Done(vol).word());
        };
        // Planted defect (exploration self-test): signal completion
        // before the payload copy, licensing the owner to overwrite the
        // ring words mid-steal.
        let notify_early = self.defect == Some(Defect::CompleteBeforeCopy);
        if notify_early {
            notify();
        }

        // 2. One get (gathered across the ring wrap if needed).
        if let Err(e) = self
            .ring
            .copy_block(target, start, vol, AtomicSite::SwsThiefPayloadRead)
        {
            // We hold a claim we cannot fill: poison the completion slot
            // so the owner re-enqueues the block promptly. If even the
            // poison is lost, the owner's grace-period reclaim recovers
            // the block — either way it runs exactly once, at the owner.
            let _ = self.ring.complete(claimed_at, || {
                // ordering: SwsThiefComplete (poison CAS)
                ctx.proto_site(AtomicSite::SwsThiefComplete.id());
                ctx.try_atomic_compare_swap(target, comp, 0, Completion::Poisoned(0).word())
            });
            return self.ring.aborted(is_down(&e));
        }

        // 3. Completion — the one op a fault plan changes.
        if notify_early {
            return self.ring.land(vol);
        }
        if !ctx.faults_active() {
            notify();
            return self.ring.land(vol);
        }
        // A CAS instead of the passive put, *before* the block lands
        // locally: only a confirmed claim may execute.
        let confirm = self.ring.complete(claimed_at, || {
            // ordering: SwsThiefComplete (confirmed-claim CAS)
            ctx.proto_site(AtomicSite::SwsThiefComplete.id());
            ctx.try_atomic_compare_swap(target, comp, 0, Completion::Done(vol).word())
        });
        match confirm {
            Ok(Some(0)) => self.ring.land(vol),
            // Too late to write, or (threaded worlds only: a preemption
            // between the deadline check and the CAS) the owner reclaimed
            // first. Either way the block is the owner's; discard the copy.
            Ok(_) => self.ring.aborted(false),
            // Could not confirm: leave the slot for the owner's grace
            // reclaim and discard the copy — never run unconfirmed tasks.
            Err(e) => self.ring.aborted(is_down(&e)),
        }
    }

    fn probe(&self, target: usize) -> bool {
        let ctx = self.ring.ctx;
        ctx.begin_attempt();
        // ordering: SwsThiefProbe
        ctx.proto_site(AtomicSite::SwsThiefProbe.id());
        // An unreachable target has nothing to steal.
        ctx.try_atomic_fetch(target, self.sv_addr).is_ok_and(|raw| sws_probe(&self.ring.cfg, raw))
    }

    fn stats(&self) -> &QueueStats {
        &self.ring.stats
    }

    fn flush_completions(&mut self) {
        self.ring.ctx.quiet();
    }

    fn retire(&mut self) {
        if self.ring.begin_retire() {
            self.close_gate_and_drain();
        }
    }

    fn park(&mut self) {
        if self.ring.begin_park() {
            self.close_gate_and_drain();
        }
    }

    fn unpark(&mut self) {
        if !self.ring.begin_unpark() {
            return;
        }
        // Every epoch drained at park time, so a slot set is free; publish
        // an open, empty advertisement so thieves see "empty" again
        // instead of "locked".
        debug_assert!(self.epochs.is_empty(), "parked queue retained epochs");
        let slot = self.wait_for_free_slot();
        self.advertise(slot, self.ring.split, 0);
    }

    fn occupancy(&self) -> u64 {
        self.ring.live_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode, Block, Step};
    use crate::stealval::ASTEALS_BITS;
    use sws_shmem::{run_world, ProtoEvent, ProtoOp, WorldConfig};

    /// PE 1 steals from PE 0's stealval set to each class of word: a
    /// closed gate, an exhausted advertisement, a full counter under each
    /// gate, and claims 0 and 1 of 4 tasks from slot 7 of an 8-slot ring
    /// (2 tasks across the wrap, then 1). The outcome and the block landed
    /// are what `sws_claim` reads; `decode` reads both full counters as
    /// `Overflow`, the thief by their gate.
    #[test]
    fn steal_from_reads_every_stealval_class() {
        let cfg = QueueConfig::new(8, 24);
        let sv = |asteals, gate| StealVal { asteals, gate, itasks: 4, tail: 7 };
        let (open, full) = (Gate::Open { epoch: 1 }, (1 << ASTEALS_BITS) - 1);
        let live = |index, volume, start_slot| Claim::Live(Block { comp: sws_comp(&cfg, 1, index), start_slot, volume });
        let cases = [
            (sv(3, Gate::Closed), StealOutcome::Closed, Claim::Closed),
            (sv(3, open), StealOutcome::Empty, Claim::Exhausted),
            (sv(full, Gate::Closed), StealOutcome::Closed, Claim::Overflow),
            (sv(full, open), StealOutcome::Empty, Claim::Overflow),
            (sv(0, open), StealOutcome::Got { tasks: 2 }, live(0, 2, 7)),
            (sv(1, open), StealOutcome::Got { tasks: 1 }, live(1, 1, 1)),
        ];
        run_world(WorldConfig::virtual_time(2, 1 << 16), |ctx| {
            let mut q = SwsQueue::new(ctx, cfg);
            for slot in (0..8).filter(|_| ctx.my_pe() == 0) {
                assert!(q.enqueue(&TaskDescriptor::new(1, &[slot])));
            }
            for &(sv, outcome, decoded) in &cases {
                let raw = cfg.layout.encode(sv);
                let site = AtomicSite::SwsThiefClaim;
                let (op, arg) = (ProtoOp::FetchAdd, ASTEAL_UNIT);
                let e = ProtoEvent { t_ns: 0, issuer: 1, target: 0, offset: 0, len: 1, site: site.id(), attempt: 0, op, arg, arg2: 0, prev: raw };
                assert_eq!(decode(&cfg, site, &e), Ok(Step::Claim(decoded)), "{sv:?}");
                let (read, block) = match sws_claim(&cfg, raw) {
                    Claim::Live(Block { volume, start_slot, .. }) => {
                        (StealOutcome::Got { tasks: volume }, (start_slot..start_slot + volume).map(|s| (s % 8) as u8).collect())
                    }
                    Claim::Closed => (StealOutcome::Closed, vec![]),
                    Claim::Exhausted | Claim::Overflow => (StealOutcome::Empty, vec![]),
                };
                assert_eq!(read, outcome, "{sv:?}");
                if ctx.my_pe() == 0 {
                    ctx.atomic_set(0, q.sv_addr, raw);
                }
                ctx.barrier_all();
                if ctx.my_pe() == 1 {
                    assert_eq!(q.steal_from(0), outcome, "{sv:?}");
                    let mut landed: Vec<u8> = std::iter::from_fn(|| q.pop_local()).map(|t| t.payload()[0]).collect();
                    landed.reverse();
                    assert_eq!(landed, block, "{sv:?}");
                }
                ctx.barrier_all();
            }
        })
        .expect("world runs");
    }
}
