//! The per-PE handle: one-sided operations with cost accounting.
//!
//! Every operation computes its modeled cost from the world's [`NetModel`],
//! applies its effect at the world's serialization point (see
//! `crate::exec`: global virtual-time order, an explored schedule, or
//! none at all on plain threads) and records the cost in per-PE
//! [`OpStats`].
//!
//! One op path. The seven single-word atomics are thin wrappers, each
//! passing only its memory effect, over one routine keyed by
//! [`ProtoOp`]; get, gather, put and owner-local writes share one
//! per-word loop. Both consume the armed site, resolve its orderings by
//! the op's [`OpRole`] from the one ordering table ([`crate::overrides`]),
//! drive the live tracker by role, apply the effect and end in one
//! `observe` ([`SiteCounters`], and the [`ProtoEvent`] it appends to the
//! world's one log at the serialization point). With no table
//! attached, RMWs run `AcqRel`, loads `Acquire` and stores `Release`; a
//! catalog-relaxed fetch runs `Relaxed`. The queue protocols establish
//! happens-before through the metadata word (e.g. an owner's `Release`
//! swap of the stealval synchronizes with an initiator's `AcqRel`
//! fetch-add), so task payload words are never read without a preceding
//! synchronizing atomic on the same queue.
//!
//! Modeling note: non-blocking operations apply their memory effect at
//! *issue* time but charge most of their latency at [`ShmemCtx::quiet`].
//! A real NIC would deliver the effect later; applying early is a
//! conservative simplification that affects SDC's deferred copy and SWS's
//! completion notification identically.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::SymAddr;
use crate::error::{OpError, OpResult};
use crate::explore::{kind_writes, plain_desc, OpDesc};
use crate::fault::{FaultInjector, FAILED_OP_TIMEOUT_NS};
use crate::net::OpKind;
use crate::overrides::{MemOrder, OpRole, OrdTracker};
use crate::prof::SiteCounters;
use crate::proto::{ProtoEvent, ProtoOp, NO_SITE};
use crate::runtime::WorldShared;
use crate::stats::OpStats;

/// Per-PE handle to the world. One per PE; not `Sync`.
pub struct ShmemCtx {
    pe: usize,
    world: std::sync::Arc<WorldShared>,
    stats: RefCell<OpStats>,
    /// Largest deferred-completion latency among outstanding nbi ops.
    pending_nbi_ns: Cell<u64>,
    /// Number of outstanding nbi ops (for quiet bookkeeping).
    pending_nbi_count: Cell<u64>,
    /// Fault sampler when the world carries an active fault plan.
    injector: Option<FaultInjector>,
    /// Nonzero while inside a collective; collective-internal one-sided
    /// ops are control-plane and exempt from injection.
    collective_depth: Cell<u32>,
    /// Sampling window over proto capture: when closed, annotated ops
    /// still arm/consume their site (so exploration and ordering
    /// resolution are untouched) but record no event. The scheduler
    /// opens it per sampled steal attempt (see `SchedConfig::
    /// sample_period`); always open by default (full capture).
    capture_window: Cell<bool>,
    /// The steal attempt this PE is in ([`ShmemCtx::begin_attempt`]),
    /// stamped on every captured event.
    attempt: Cell<u32>,
    /// Per-site contention counters (`WorldConfig::profile_sites`);
    /// indexed by raw site id, bumped with plain stores in the op
    /// adapters. `None` keeps the op surface profile-free.
    site_prof: Option<RefCell<Vec<SiteCounters>>>,
    /// `AtomicSite` id armed by [`ShmemCtx::proto_site`] for the next
    /// one-sided op; consumed (reset to `NO_SITE`) by that op.
    armed_site: Cell<u16>,
    /// Whether anything consumes site annotations: capture, profiling,
    /// a substrate that schedules on op descriptors, or per-site
    /// ordering control.
    sites_observed: bool,
}

impl ShmemCtx {
    pub(crate) fn new(pe: usize, world: std::sync::Arc<WorldShared>) -> ShmemCtx {
        let injector = world
            .faults
            .as_ref()
            .map(|plan| FaultInjector::new(std::sync::Arc::clone(plan), pe));
        let site_prof = world.profile_sites.then(|| RefCell::new(Vec::new()));
        let sites_observed = world.capture_proto
            || site_prof.is_some()
            || world.exec.schedules_sites()
            || world.ordering.is_some();
        ShmemCtx {
            pe,
            world,
            stats: RefCell::new(OpStats::new()),
            pending_nbi_ns: Cell::new(0),
            pending_nbi_count: Cell::new(0),
            injector,
            collective_depth: Cell::new(0),
            capture_window: Cell::new(true),
            attempt: Cell::new(0),
            site_prof,
            armed_site: Cell::new(NO_SITE),
            sites_observed,
        }
    }

    /// This PE's rank.
    #[inline]
    pub fn my_pe(&self) -> usize {
        self.pe
    }

    /// Number of PEs in the world.
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.world.heap.n_pes()
    }

    /// Current time in ns: this PE's virtual clock on the serial executor
    /// (a per-PE logical clock under exploration), wall time otherwise.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.world.exec.now(self.pe)
    }

    /// Charge `ns` of local computation (task execution). Advances the
    /// virtual clock, or busy-waits when latency injection is enabled in
    /// threaded mode.
    #[inline]
    pub fn compute(&self, ns: u64) {
        self.world.exec.advance(self.pe, ns);
    }

    /// Hint that this PE is spinning without work (an empty steal search,
    /// a capacity wait, a lock retry). In plain threaded mode on an
    /// oversubscribed machine — more PEs than hardware threads — this
    /// yields the timeslice so the thread actually holding the work (or
    /// the lock) can run; everywhere else it is a no-op: the serial
    /// executor owns all scheduling, and an undersubscribed machine loses
    /// nothing by spinning.
    #[inline]
    pub fn idle_hint(&self) {
        self.world.exec.idle_hint();
    }

    /// Snapshot of this PE's op counters.
    pub fn stats(&self) -> OpStats {
        self.stats.borrow().clone()
    }

    /// Snapshot of this PE's virtual-time engine counters (gate crossings
    /// with and without a context switch, horizons granted). All zeros
    /// in threaded mode, which has no gate.
    pub fn engine_stats(&self) -> crate::vclock::EngineStats {
        self.world.exec.engine_stats(self.pe)
    }

    // ------------------------------------------------------------------
    // Protocol op-trace capture (see `crate::proto`)
    // ------------------------------------------------------------------

    /// Arm the next one-sided op on this context with an `AtomicSite` id
    /// for trace capture (and for the exploration gate's op descriptors).
    /// No-op unless the world was built with `WorldConfig::capture_proto`
    /// or `WorldConfig::profile_sites`, carries an exploration gate, or
    /// carries per-site ordering control; the protocol code annotates its
    /// ops unconditionally and pays one branch here when all four are off.
    #[inline]
    pub fn proto_site(&self, site: u16) {
        if self.sites_observed {
            self.armed_site.set(site);
        }
    }

    /// Whether this world records protocol op traces.
    #[inline]
    pub fn proto_capture_active(&self) -> bool {
        self.world.capture_proto
    }

    /// Open or close the capture sampling window. While closed, armed
    /// sites are still consumed (exploration gating and per-site
    /// ordering resolution are unaffected) but no [`ProtoEvent`] is
    /// recorded. The scheduler uses this to arm capture for a seeded
    /// 1-in-N subset of steal attempts instead of every op. No-op (one
    /// plain `Cell` store) when capture is off.
    #[inline]
    pub fn set_capture_window(&self, open: bool) {
        self.capture_window.set(open);
    }

    /// Start the next steal attempt: every event captured from here on
    /// carries its number ([`ProtoEvent::attempt`]), so a span is the
    /// events of one attempt. Numbers rise by one per call whether or not
    /// the sampling window is open. Issues no op and charges no time.
    #[inline]
    pub fn begin_attempt(&self) {
        self.attempt.set(self.attempt.get().wrapping_add(1));
    }

    /// Drain this PE's per-site contention counters (indexed by raw
    /// site id; decode via `AtomicSite::from_id` in the obs layer).
    pub fn take_site_profile(&self) -> Vec<SiteCounters> {
        match &self.site_prof {
            Some(p) => std::mem::take(&mut *p.borrow_mut()),
            None => Vec::new(),
        }
    }

    /// Consume the armed site id. Called at the *start* of every op that
    /// can capture, so an op whose effect never applies (injected fault)
    /// still uses up its annotation instead of leaking it to an
    /// unrelated later op.
    #[inline]
    fn armed(&self) -> u16 {
        if !self.sites_observed {
            return NO_SITE;
        }
        self.armed_site.replace(NO_SITE)
    }

    /// The one observation point of an applied op at `site`: its site
    /// counter by the class of `op` and, when `ev` carries its target,
    /// first word, word count and `[arg, arg2, prev]`, its captured event
    /// (an owner-local ring write passes `None`: profiled, not captured).
    /// Called inside the gated effect closure: a faulted op that never
    /// applies is not observed, the clock read here is the pre-advance
    /// serialization key, and the event joins the world's log in apply
    /// order (see `crate::proto`).
    #[inline]
    fn observe(&self, site: u16, op: ProtoOp, ev: Option<(usize, SymAddr, usize, [u64; 3])>) {
        if site != NO_SITE {
            self.observe_site(site, op, ev);
        }
    }

    /// [`Self::observe`] of an annotated op, kept out of line so an
    /// unannotated op pays one compare.
    #[inline(never)]
    fn observe_site(&self, site: u16, op: ProtoOp, ev: Option<(usize, SymAddr, usize, [u64; 3])>) {
        if let Some(p) = &self.site_prof {
            let mut v = p.borrow_mut();
            let i = site as usize;
            if v.len() <= i {
                v.resize(i + 1, SiteCounters::default());
            }
            v[i].count(op, ev.is_some_and(|(.., [_, expected, prev])| prev == expected));
        }
        let Some((target, addr, len, [arg, arg2, prev])) = ev else {
            return;
        };
        if self.world.capture_proto && self.capture_window.get() {
            self.world.exec.record(&ProtoEvent {
                t_ns: self.now_ns(),
                issuer: self.pe as u32,
                target: target as u32,
                offset: addr.word() as u32,
                len: len as u32,
                site,
                attempt: self.attempt.get(),
                op,
                arg,
                arg2,
                prev,
            });
        }
    }

    // ------------------------------------------------------------------
    // Per-site ordering resolution (see `crate::overrides`)
    // ------------------------------------------------------------------

    /// The (success, failure) orderings of an op of `role` at `site`: the
    /// world's table entry when it carries a table, else `strength` with
    /// an `Acquire` failure path, cut to the halves the role can carry.
    #[inline]
    fn orderings(&self, role: OpRole, site: u16, strength: MemOrder) -> (Ordering, Ordering) {
        let (ord, fail) = match &self.world.ordering {
            Some(ctl) => ctl.overrides.entry(site),
            None => (strength, MemOrder::Acquire),
        };
        (ord.for_role(role), fail.for_role(OpRole::Load))
    }

    /// The live ordering tracker, when the world carries one.
    #[inline]
    fn tracker(&self) -> Option<&OrdTracker> {
        self.world.ordering.as_ref().and_then(|ctl| ctl.tracker.as_ref())
    }

    /// Is this op subject to fault injection? Same-PE traffic and
    /// collective-internal (control-plane) ops never are.
    #[inline]
    fn injectable(&self, target: usize) -> Option<&FaultInjector> {
        match &self.injector {
            Some(inj) if target != self.pe && self.collective_depth.get() == 0 => Some(inj),
            _ => None,
        }
    }

    /// The injector's verdict on one op: the fault it suffers, if any.
    /// Must run at the serialization point — the target's down flag and
    /// the issuer's clock are only exact there.
    fn fault_verdict(&self, inj: &FaultInjector, kind: OpKind, target: usize) -> OpResult<()> {
        // Sampled first, unconditionally: a PE's decision stream depends
        // only on its own op sequence.
        let dropped = inj.drops(kind, target);
        if self.world.down[target].load(Ordering::Acquire) {
            Err(OpError::TargetDown { kind, target })
        } else if inj.plan().target_stalled(target, self.now_ns()) {
            Err(OpError::Timeout { kind, target })
        } else if dropped {
            Err(OpError::Retriable { kind, target })
        } else {
            Ok(())
        }
    }

    /// Issue one one-sided op: the only path from the op surface to the
    /// world's serialization point. `span` (first word, word count) and
    /// `site` describe the op to a substrate that schedules on it.
    ///
    /// A failed op never applies `f` (a dropped packet never reaches the
    /// target). A blocking op then pays the detection timeout and returns
    /// the fault; a non-blocking op pays its plain cost, because its loss
    /// is invisible at issue time — exactly like a real NIC — and `quiet`
    /// accounting proceeds as if it were in flight. The `_nbi` wrappers
    /// discard the result for the same reason.
    ///
    /// Stats record the modeled charge; the gated clocks advance by
    /// `max(charge, 1)` (see `Exec::leave`), so on a zero-cost network a
    /// PE's clock runs 1 ns per op ahead of its `comm_ns`.
    #[inline]
    fn issue<R>(
        &self,
        kind: OpKind,
        target: usize,
        bytes: usize,
        span: (u32, u32),
        site: u16,
        f: impl FnOnce() -> R,
    ) -> OpResult<R> {
        let net = &self.world.net;
        let loc = net.locality(self.pe, target);
        let cost = net.cost_ns(kind, bytes, loc);
        let blocking = kind.is_blocking();
        if !blocking {
            let deferred = net.nbi_deferred_ns(bytes, loc);
            self.pending_nbi_ns.set(self.pending_nbi_ns.get().max(deferred));
            self.pending_nbi_count.set(self.pending_nbi_count.get() + 1);
        }
        let exec = &self.world.exec;
        exec.enter(self.pe, || OpDesc {
            site,
            target: target as u32,
            offset: span.0,
            len: span.1,
            writes: kind_writes(kind),
        });
        let verdict = match self.injectable(target) {
            None => Ok(()),
            Some(inj) => self.fault_verdict(inj, kind, target),
        };
        // `f` has this one call site, so it inlines into each op.
        let (res, charge) = match verdict {
            Ok(()) => (Ok(f()), cost),
            Err(e) if blocking => (Err(e), FAILED_OP_TIMEOUT_NS),
            Err(e) => (Err(e), cost),
        };
        exec.leave(self.pe, charge);
        let mut stats = self.stats.borrow_mut();
        stats.record(kind, bytes, charge);
        if res.is_err() {
            stats.record_failed(kind);
        }
        res
    }

    // ------------------------------------------------------------------
    // Bulk one-sided data movement
    // ------------------------------------------------------------------

    /// The per-word loop of the bulk ops and owner-local writes: each word
    /// of `ranges` on `pe`, in op order, resolved and tracked as one word
    /// of an `op` at `site` and handed to `access` with its index in the
    /// op and its ordering.
    #[inline]
    fn per_word(
        &self,
        op: ProtoOp,
        pe: usize,
        ranges: &[(SymAddr, usize)],
        site: u16,
        mut access: impl FnMut(usize, &AtomicU64, Ordering),
    ) {
        let ords = self.orderings(op.role(), site, MemOrder::AcqRel);
        let mut i = 0;
        for &(addr, len) in ranges {
            for k in 0..len {
                let at = addr.offset(k);
                access(i, self.world.heap.word(pe, at), ords.0);
                if let Some(tr) = self.tracker() {
                    tr.track(op.role(), ords, false, site, self.pe, pe, (at.word(), i as u32));
                }
                i += 1;
            }
        }
    }

    /// Blocking contiguous read of `dst.len()` words from (`pe`, `addr`).
    pub fn get_words(&self, pe: usize, addr: SymAddr, dst: &mut [u64]) {
        self.try_get_words(pe, addr, dst).unwrap_or_else(op_panic);
    }

    /// Fallible [`Self::get_words`]: surfaces injected faults instead of
    /// panicking.
    pub fn try_get_words(&self, pe: usize, addr: SymAddr, dst: &mut [u64]) -> OpResult<()> {
        let site = self.armed();
        let n = dst.len();
        self.issue(OpKind::Get, pe, n * 8, (addr.word() as u32, n as u32), site, || {
            self.per_word(ProtoOp::Get, pe, &[(addr, n)], site, |i, w, ord| dst[i] = w.load(ord));
            let word = |i| dst.get(i).copied().unwrap_or(0);
            self.observe(site, ProtoOp::Get, Some((pe, addr, n, [0, word(1), word(0)])));
        })
    }

    /// Blocking gather-read of two contiguous remote ranges into `dst`
    /// (`a` first, then `b`). Counts as a single `Get` — RDMA gather/iovec
    /// semantics — which is how a steal copies a block that wraps around a
    /// circular task buffer in one operation.
    /// Fallible like every `try_*` op; it has no infallible twin because
    /// its one caller, the steal copy, runs under a retry policy.
    pub fn try_get_words_gather(
        &self,
        pe: usize,
        a: (SymAddr, usize),
        b: (SymAddr, usize),
        dst: &mut [u64],
    ) -> OpResult<()> {
        assert_eq!(a.1 + b.1, dst.len(), "gather ranges must fill dst");
        let site = self.armed();
        // Exploration span: the contiguous cover of both ranges — an
        // over-approximation that can only add dependences.
        let lo = a.0.word().min(b.0.word());
        let hi = (a.0.word() + a.1).max(b.0.word() + b.1);
        self.issue(OpKind::Get, pe, dst.len() * 8, (lo as u32, (hi - lo) as u32), site, || {
            self.per_word(ProtoOp::Get, pe, &[a, b], site, |i, w, ord| dst[i] = w.load(ord));
            // One gather = one captured event; the first range's offset
            // and the total length identify the (wrapped) block.
            self.observe(site, ProtoOp::Get, Some((pe, a.0, a.1 + b.1, [0; 3])));
        })
    }

    /// Blocking contiguous write of `src` to (`pe`, `addr`).
    pub fn put_words(&self, pe: usize, addr: SymAddr, src: &[u64]) {
        self.try_put_words(pe, addr, src).unwrap_or_else(op_panic);
    }

    /// Fallible [`Self::put_words`].
    pub fn try_put_words(&self, pe: usize, addr: SymAddr, src: &[u64]) -> OpResult<()> {
        let site = self.armed();
        let n = src.len();
        self.issue(OpKind::Put, pe, n * 8, (addr.word() as u32, n as u32), site, || {
            self.per_word(ProtoOp::Put, pe, &[(addr, n)], site, |i, w, ord| w.store(src[i], ord));
            let word = |i| src.get(i).copied().unwrap_or(0);
            self.observe(site, ProtoOp::Put, Some((pe, addr, n, [word(0), word(1), 0])));
        })
    }

    /// Wait for all outstanding non-blocking operations issued by this PE.
    pub fn quiet(&self) {
        if self.pending_nbi_count.get() == 0 {
            return;
        }
        let deferred = self.pending_nbi_ns.get();
        self.pending_nbi_ns.set(0);
        self.pending_nbi_count.set(0);
        self.stats.borrow_mut().record(OpKind::Quiet, 0, deferred);
        // NBI effects applied at issue (each was its own serialization
        // point); quiet only settles this PE's clock.
        self.world.exec.advance(self.pe, deferred);
    }

    // ------------------------------------------------------------------
    // 64-bit remote atomics (the paper's workhorse operations)
    // ------------------------------------------------------------------

    /// The one path of the single-word atomics: consume the armed site,
    /// resolve its orderings by `op`'s role, then at the serialization
    /// point apply `effect` (it returns what it fetched, 0 for a store),
    /// track and observe. `args` are the captured `[arg, arg2]`;
    /// `strength` is the ordering with no table attached. Each wrapper
    /// passes its own `effect`, so each op gets its own body with the
    /// engine gate inlined (one shared closure ran a 64-PE BPC run ≈ 10 %
    /// slower on a 2-hw-thread x86-64 host).
    #[inline]
    fn atomic(
        &self,
        op: ProtoOp,
        pe: usize,
        addr: SymAddr,
        [arg, arg2]: [u64; 2],
        strength: MemOrder,
        effect: impl FnOnce(&AtomicU64, Ordering, Ordering) -> u64,
    ) -> OpResult<u64> {
        let site = self.armed();
        let ords @ (ord, fail) = self.orderings(op.role(), site, strength);
        self.issue(op.kind(), pe, 8, (addr.word() as u32, 1), site, || {
            let word = self.world.heap.word(pe, addr);
            // A store's overwritten value is only observable while
            // capturing (and inside the sampling window); the extra load
            // happens solely on that path.
            let capturing = self.world.capture_proto && self.capture_window.get();
            let before = (op.role() == OpRole::Store && site != NO_SITE && capturing)
                .then(|| word.load(Ordering::Acquire));
            let fetched = effect(word, ord, fail);
            let prev = before.unwrap_or(fetched);
            if let Some(tr) = self.tracker() {
                tr.track(op.role(), ords, prev == arg2, site, self.pe, pe, (addr.word(), 0));
            }
            self.observe(site, op, Some((pe, addr, 1, [arg, arg2, prev])));
            prev
        })
    }

    /// Atomic fetch-add on a remote word; returns the previous value.
    pub fn atomic_fetch_add(&self, pe: usize, addr: SymAddr, val: u64) -> u64 {
        self.try_atomic_fetch_add(pe, addr, val).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_fetch_add`].
    pub fn try_atomic_fetch_add(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<u64> {
        self.atomic(ProtoOp::FetchAdd, pe, addr, [val, 0], MemOrder::AcqRel, |w, ord, _| {
            w.fetch_add(val, ord)
        })
    }

    /// Atomic swap on a remote word; returns the previous value.
    pub fn atomic_swap(&self, pe: usize, addr: SymAddr, val: u64) -> u64 {
        self.try_atomic_swap(pe, addr, val).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_swap`].
    pub fn try_atomic_swap(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<u64> {
        self.atomic(ProtoOp::Swap, pe, addr, [val, 0], MemOrder::AcqRel, |w, ord, _| w.swap(val, ord))
    }

    /// Atomic compare-and-swap; returns the previous value (success iff it
    /// equals `expected`).
    pub fn atomic_compare_swap(&self, pe: usize, addr: SymAddr, expected: u64, new: u64) -> u64 {
        self.try_atomic_compare_swap(pe, addr, expected, new).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_compare_swap`].
    pub fn try_atomic_compare_swap(
        &self,
        pe: usize,
        addr: SymAddr,
        expected: u64,
        new: u64,
    ) -> OpResult<u64> {
        self.atomic(ProtoOp::CompareSwap, pe, addr, [new, expected], MemOrder::AcqRel, |w, ord, fail| {
            w.compare_exchange(expected, new, ord, fail).unwrap_or_else(|prev| prev)
        })
    }

    /// Atomic read of a remote word.
    pub fn atomic_fetch(&self, pe: usize, addr: SymAddr) -> u64 {
        self.try_atomic_fetch(pe, addr).unwrap_or_else(op_panic)
    }

    /// [`Self::atomic_fetch`] whose acquire half is selected by the caller
    /// from the site catalog (`acquire = site.production().acquires()`).
    /// The necessity prover demonstrated some annotated reads need no
    /// synchronization; their protocol call sites pass `acquire = false`
    /// and the load relaxes. An attached ordering table wins either way,
    /// so campaign worlds still resolve the site through the catalog.
    pub fn atomic_fetch_ordered(&self, pe: usize, addr: SymAddr, acquire: bool) -> u64 {
        // ordering: catalog-driven — relaxed only when the site's
        // production entry is `Relaxed` (necessity-proven tolerant).
        let strength = if acquire { MemOrder::AcqRel } else { MemOrder::Relaxed };
        self.atomic(ProtoOp::Fetch, pe, addr, [0, 0], strength, |w, ord, _| w.load(ord))
            .unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_fetch`].
    pub fn try_atomic_fetch(&self, pe: usize, addr: SymAddr) -> OpResult<u64> {
        self.atomic(ProtoOp::Fetch, pe, addr, [0, 0], MemOrder::AcqRel, |w, ord, _| w.load(ord))
    }

    /// Atomic write of a remote word.
    pub fn atomic_set(&self, pe: usize, addr: SymAddr, val: u64) {
        self.try_atomic_set(pe, addr, val).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_set`].
    pub fn try_atomic_set(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<()> {
        let set = |w: &AtomicU64, ord, _| {
            w.store(val, ord);
            0
        };
        self.atomic(ProtoOp::Set, pe, addr, [val, 0], MemOrder::AcqRel, set).map(drop)
    }

    /// Non-blocking atomic add (no fetched value); completed by `quiet`.
    /// Losses under fault injection are silent: the effect is skipped but
    /// the call still succeeds, exactly as a real NIC behaves at issue
    /// time.
    pub fn atomic_add_nbi(&self, pe: usize, addr: SymAddr, val: u64) {
        let _ = self.atomic(ProtoOp::AddNbi, pe, addr, [val, 0], MemOrder::AcqRel, |w, ord, _| {
            w.fetch_add(val, ord)
        });
    }

    /// Non-blocking atomic set; completed by `quiet`. Losses under fault
    /// injection are silent (see [`Self::atomic_add_nbi`]).
    pub fn atomic_set_nbi(&self, pe: usize, addr: SymAddr, val: u64) {
        let set = |w: &AtomicU64, ord, _| {
            w.store(val, ord);
            0
        };
        let _ = self.atomic(ProtoOp::SetNbi, pe, addr, [val, 0], MemOrder::AcqRel, set);
    }

    // ------------------------------------------------------------------
    // Uncharged owner-local access
    // ------------------------------------------------------------------

    /// Read words from this PE's own region without cost, gating, or
    /// accounting.
    ///
    /// Only sound for words that are not concurrently written remotely —
    /// in the queue protocols this is guaranteed by the split invariant
    /// (remote PEs only read the shared portion and only write completion
    /// slots, never the owner-local region being accessed here).
    pub fn local_read_words(&self, addr: SymAddr, dst: &mut [u64]) {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self
                .world
                .heap
                .word(self.pe, addr.offset(i))
                .load(Ordering::Acquire);
        }
    }

    /// Write words into this PE's own region without cost or accounting.
    /// See [`Self::local_read_words`] for the safety contract.
    ///
    /// Under an exploration gate, a write annotated with a protocol site
    /// (the queues' ring-record writes) is still a scheduling choice
    /// point: these local stores are exactly the words a thief copies
    /// one-sidedly, so hiding them from the gate would make the
    /// owner-write/thief-read conflict invisible to dependence pruning.
    /// Unannotated local writes (scratch, counters the split invariant
    /// protects) stay gate-free.
    pub fn local_write_words(&self, addr: SymAddr, src: &[u64]) {
        let site = self.armed();
        if site != NO_SITE {
            self.world.exec.choice_point(self.pe, || OpDesc {
                site,
                ..plain_desc(self.pe, addr.word() as u32, src.len() as u32, true)
            });
        }
        let n = src.len();
        self.per_word(ProtoOp::Set, self.pe, &[(addr, n)], site, |i, w, ord| w.store(src[i], ord));
        self.observe(site, ProtoOp::Set, None);
    }

    // ------------------------------------------------------------------
    // Internals shared with collectives
    // ------------------------------------------------------------------

    pub(crate) fn world(&self) -> &WorldShared {
        &self.world
    }

    pub(crate) fn record_barrier(&self, cost: u64) {
        self.stats.borrow_mut().record(OpKind::Barrier, 0, cost);
    }

    /// Run `f` as collective-internal: one-sided ops inside it are
    /// control-plane and exempt from fault injection.
    pub(crate) fn with_collective<R>(&self, f: impl FnOnce() -> R) -> R {
        self.collective_depth.set(self.collective_depth.get() + 1);
        let r = f();
        self.collective_depth.set(self.collective_depth.get() - 1);
        r
    }

    // ------------------------------------------------------------------
    // Fault-model surface
    // ------------------------------------------------------------------

    /// Whether this world carries an active fault plan. Protocols switch
    /// to their recovery-capable variants only when this is true, keeping
    /// fault-free runs bit-identical to worlds without an injector.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.injector.is_some()
    }

    /// Has this PE's scheduled crash point passed? The scheduler polls
    /// this at idle points and initiates the crash-stop protocol (drain,
    /// [`Self::mark_self_down`], exit) when it fires.
    pub fn crash_due(&self) -> bool {
        match &self.injector {
            Some(inj) => inj
                .plan()
                .crash_at(self.pe)
                .is_some_and(|at| self.now_ns() >= at),
            None => false,
        }
    }

    /// Declare this PE down. After this, every op targeting it fails with
    /// [`OpError::TargetDown`]. The caller must already have drained its
    /// steal-protocol state (no in-flight claims against its queue).
    pub fn mark_self_down(&self) {
        // Serialized like any shared-visible effect so the transition is
        // deterministic. Down flags live outside the heap; a sentinel
        // word makes the transition schedulable (and conflict-tracked).
        self.world.exec.gated(
            self.pe,
            1,
            || plain_desc(self.pe, u32::MAX, 1, true),
            || self.world.down[self.pe].store(true, Ordering::Release),
        );
    }

    /// Whether `pe` is known to be down (its crash-stop completed). This
    /// models the fabric's connection-state knowledge: cheap, local, and
    /// only eventually consistent with the target's actual state.
    pub fn pe_known_down(&self, pe: usize) -> bool {
        self.world.down[pe].load(Ordering::Acquire)
    }
}

/// Panic handler for infallible wrappers reached by an injected fault.
fn op_panic<R>(e: OpError) -> R {
    panic!("unhandled injected fault on infallible op surface: {e} (use the try_* variant)")
}

impl ShmemCtx {
    /// Convenience: blocking write of one remote word (a 1-word `put`).
    pub fn put_word(&self, pe: usize, addr: SymAddr, val: u64) {
        self.put_words(pe, addr, &[val]);
    }

    /// Fallible [`Self::put_word`].
    pub fn try_put_word(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<()> {
        self.try_put_words(pe, addr, &[val])
    }
}
