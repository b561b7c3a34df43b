//! The per-PE handle: one-sided operations with cost accounting.
//!
//! Every operation computes its modeled cost from the world's [`NetModel`],
//! applies its effect at the world's serialization point (see
//! `crate::exec`: global virtual-time order, an explored schedule, or
//! none at all on plain threads) and records the cost in per-PE
//! [`OpStats`].
//!
//! Memory orderings (threaded mode): remote RMW atomics are `AcqRel`,
//! atomic reads `Acquire`, atomic writes `Release`; bulk `get`/`put` use
//! `Acquire`/`Release` per word. The queue protocols establish
//! happens-before through the metadata word (e.g. an owner's `Release` swap
//! of the stealval synchronizes with an initiator's `AcqRel` fetch-add), so
//! task payload words are never read without a preceding synchronizing
//! atomic on the same queue.
//!
//! Modeling note: non-blocking operations apply their memory effect at
//! *issue* time but charge most of their latency at [`ShmemCtx::quiet`].
//! A real NIC would deliver the effect later; applying early is a
//! conservative simplification that affects SDC's deferred copy and SWS's
//! completion notification identically.

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;

use crate::addr::SymAddr;
use crate::error::{OpError, OpResult};
use crate::explore::{kind_writes, plain_desc, OpDesc};
use crate::fault::{FaultInjector, FAILED_OP_TIMEOUT_NS};
use crate::net::OpKind;
use crate::overrides::{ord_acquires, ord_releases, OrdTracker};
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
    /// Protocol op-trace buffer (`WorldConfig::capture_proto`); `None`
    /// keeps the op surface capture-free.
    capture: Option<RefCell<Vec<ProtoEvent>>>,
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
        let capture = world.capture_proto.then(|| RefCell::new(Vec::new()));
        let site_prof = world.profile_sites.then(|| RefCell::new(Vec::new()));
        let sites_observed = capture.is_some()
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
            capture,
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

    pub(crate) fn take_stats(&self) -> OpStats {
        self.stats.borrow_mut().clone()
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
        self.capture.is_some()
    }

    /// Drain the events captured so far (in issuer-local order).
    pub fn take_proto_events(&self) -> Vec<ProtoEvent> {
        match &self.capture {
            Some(buf) => std::mem::take(&mut *buf.borrow_mut()),
            None => Vec::new(),
        }
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

    /// Whether the sampling window currently admits events: capture is
    /// armed *and* the window is open.
    #[inline]
    fn capturing(&self) -> bool {
        self.capture.is_some() && self.capture_window.get()
    }

    /// Drain this PE's per-site contention counters (indexed by raw
    /// site id; decode via `AtomicSite::from_id` in the obs layer).
    pub fn take_site_profile(&self) -> Vec<SiteCounters> {
        match &self.site_prof {
            Some(p) => std::mem::take(&mut *p.borrow_mut()),
            None => Vec::new(),
        }
    }

    /// Bump a per-site contention counter with a plain store. Called
    /// inside the op's effect closure, next to `capture_event`, so
    /// injected-fault ops that never apply are not counted and the
    /// counters are deterministic in virtual time.
    #[inline]
    fn prof_site(&self, site: u16, f: impl FnOnce(&mut SiteCounters)) {
        let Some(p) = &self.site_prof else { return };
        if site == NO_SITE {
            return;
        }
        let mut v = p.borrow_mut();
        let i = site as usize;
        if v.len() <= i {
            v.resize(i + 1, SiteCounters::default());
        }
        f(&mut v[i]);
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

    /// Record one captured event. Must be called *inside* the op's gated
    /// effect closure: the issuer clock read here is the pre-advance
    /// serialization key (see `crate::proto::merge_events`).
    #[allow(clippy::too_many_arguments)] // mirrors the ProtoEvent fields
    fn capture_event(
        &self,
        site: u16,
        op: ProtoOp,
        target: usize,
        addr: SymAddr,
        len: usize,
        arg: u64,
        arg2: u64,
        prev: u64,
    ) {
        let Some(buf) = &self.capture else { return };
        if site == NO_SITE || !self.capture_window.get() {
            return;
        }
        buf.borrow_mut().push(ProtoEvent {
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

    // ------------------------------------------------------------------
    // Per-site ordering resolution (see `crate::overrides`)
    // ------------------------------------------------------------------

    /// The live ordering tracker, when the world carries one.
    #[inline]
    fn tracker(&self) -> Option<&OrdTracker> {
        self.world
            .ordering
            .as_ref()
            .and_then(|ctl| ctl.tracker.as_ref())
    }

    /// Effective ordering for an RMW annotated with `site`.
    #[inline]
    fn ord_rmw(&self, site: u16) -> Ordering {
        match &self.world.ordering {
            Some(ctl) => ctl.overrides.rmw(site),
            None => Ordering::AcqRel,
        }
    }

    /// Effective ordering for an atomic / per-word load at `site`.
    #[inline]
    fn ord_load(&self, site: u16) -> Ordering {
        match &self.world.ordering {
            Some(ctl) => ctl.overrides.load(site),
            None => Ordering::Acquire,
        }
    }

    /// Effective ordering for an atomic / per-word store at `site`.
    #[inline]
    fn ord_store(&self, site: u16) -> Ordering {
        match &self.world.ordering {
            Some(ctl) => ctl.overrides.store(site),
            None => Ordering::Release,
        }
    }

    /// Effective (success, failure) orderings for a compare-swap at `site`.
    #[inline]
    fn ord_cas(&self, site: u16) -> (Ordering, Ordering) {
        match &self.world.ordering {
            Some(ctl) => ctl.overrides.cas(site),
            None => (Ordering::AcqRel, Ordering::Acquire),
        }
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
            self.pending_nbi_ns
                .set(self.pending_nbi_ns.get().max(deferred));
            self.pending_nbi_count
                .set(self.pending_nbi_count.get() + 1);
        }
        let exec = &self.world.exec;
        exec.enter(self.pe, || OpDesc {
            site,
            target: target as u32,
            offset: span.0,
            len: span.1,
            writes: kind_writes(kind),
        });
        let (res, charge) = match self.injectable(target) {
            None => (Ok(f()), cost),
            Some(inj) => match self.fault_verdict(inj, kind, target) {
                Ok(()) => (Ok(f()), cost),
                Err(e) if blocking => (Err(e), FAILED_OP_TIMEOUT_NS),
                Err(e) => (Err(e), cost),
            },
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

    /// Blocking contiguous read of `dst.len()` words from (`pe`, `addr`).
    pub fn get_words(&self, pe: usize, addr: SymAddr, dst: &mut [u64]) {
        self.try_get_words(pe, addr, dst).unwrap_or_else(op_panic);
    }

    /// Fallible [`Self::get_words`]: surfaces injected faults instead of
    /// panicking.
    pub fn try_get_words(&self, pe: usize, addr: SymAddr, dst: &mut [u64]) -> OpResult<()> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_load(site);
        self.issue(OpKind::Get, pe, dst.len() * 8, (addr.word() as u32, dst.len() as u32), site, || {
            for (i, d) in dst.iter_mut().enumerate() {
                if let Some(tr) = self.tracker() {
                    tr.read(self.pe, pe, addr.offset(i).word(), i as u32, ord_acquires(ord), site);
                }
                *d = heap.word(pe, addr.offset(i)).load(ord);
            }
            self.prof_site(site, |c| c.bulk += 1);
            if site != NO_SITE {
                let w0 = dst.first().copied().unwrap_or(0);
                let w1 = dst.get(1).copied().unwrap_or(0);
                self.capture_event(site, ProtoOp::Get, pe, addr, dst.len(), 0, w1, w0);
            }
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
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_load(site);
        // Exploration span: the contiguous cover of both ranges — an
        // over-approximation that can only add dependences.
        let lo = a.0.word().min(b.0.word());
        let hi = (a.0.word() + a.1).max(b.0.word() + b.1);
        self.issue(OpKind::Get, pe, dst.len() * 8, (lo as u32, (hi - lo) as u32), site, || {
            let (first, second) = dst.split_at_mut(a.1);
            for (i, d) in first.iter_mut().enumerate() {
                if let Some(tr) = self.tracker() {
                    tr.read(self.pe, pe, a.0.offset(i).word(), i as u32, ord_acquires(ord), site);
                }
                *d = heap.word(pe, a.0.offset(i)).load(ord);
            }
            for (i, d) in second.iter_mut().enumerate() {
                if let Some(tr) = self.tracker() {
                    let in_op = (a.1 + i) as u32;
                    tr.read(self.pe, pe, b.0.offset(i).word(), in_op, ord_acquires(ord), site);
                }
                *d = heap.word(pe, b.0.offset(i)).load(ord);
            }
            // One gather = one captured event; the first range's offset
            // and the total length identify the (wrapped) block.
            self.prof_site(site, |c| c.bulk += 1);
            self.capture_event(site, ProtoOp::Get, pe, a.0, a.1 + b.1, 0, 0, 0);
        })
    }

    /// Blocking contiguous write of `src` to (`pe`, `addr`).
    pub fn put_words(&self, pe: usize, addr: SymAddr, src: &[u64]) {
        self.try_put_words(pe, addr, src).unwrap_or_else(op_panic);
    }

    /// Fallible [`Self::put_words`].
    pub fn try_put_words(&self, pe: usize, addr: SymAddr, src: &[u64]) -> OpResult<()> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_store(site);
        self.issue(OpKind::Put, pe, src.len() * 8, (addr.word() as u32, src.len() as u32), site, || {
            self.prof_site(site, |c| c.bulk += 1);
            if site != NO_SITE {
                let w0 = src.first().copied().unwrap_or(0);
                let w1 = src.get(1).copied().unwrap_or(0);
                self.capture_event(site, ProtoOp::Put, pe, addr, src.len(), w0, w1, 0);
            }
            for (i, &s) in src.iter().enumerate() {
                if let Some(tr) = self.tracker() {
                    tr.write(self.pe, pe, addr.offset(i).word(), ord_releases(ord), site);
                }
                heap.word(pe, addr.offset(i)).store(s, ord);
            }
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

    /// Atomic fetch-add on a remote word; returns the previous value.
    pub fn atomic_fetch_add(&self, pe: usize, addr: SymAddr, val: u64) -> u64 {
        self.try_atomic_fetch_add(pe, addr, val)
            .unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_fetch_add`].
    pub fn try_atomic_fetch_add(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<u64> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_rmw(site);
        self.issue(OpKind::AtomicFetchAdd, pe, 8, (addr.word() as u32, 1), site, || {
            if let Some(tr) = self.tracker() {
                tr.rmw(self.pe, pe, addr.word(), ord_acquires(ord), ord_releases(ord), site);
            }
            let prev = heap.word(pe, addr).fetch_add(val, ord);
            self.prof_site(site, |c| c.rmw += 1);
            self.capture_event(site, ProtoOp::FetchAdd, pe, addr, 1, val, 0, prev);
            prev
        })
    }

    /// Atomic swap on a remote word; returns the previous value.
    pub fn atomic_swap(&self, pe: usize, addr: SymAddr, val: u64) -> u64 {
        self.try_atomic_swap(pe, addr, val).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_swap`].
    pub fn try_atomic_swap(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<u64> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_rmw(site);
        self.issue(OpKind::AtomicSwap, pe, 8, (addr.word() as u32, 1), site, || {
            if let Some(tr) = self.tracker() {
                tr.rmw(self.pe, pe, addr.word(), ord_acquires(ord), ord_releases(ord), site);
            }
            let prev = heap.word(pe, addr).swap(val, ord);
            self.prof_site(site, |c| c.rmw += 1);
            self.capture_event(site, ProtoOp::Swap, pe, addr, 1, val, 0, prev);
            prev
        })
    }

    /// Atomic compare-and-swap; returns the previous value (success iff it
    /// equals `expected`).
    pub fn atomic_compare_swap(&self, pe: usize, addr: SymAddr, expected: u64, new: u64) -> u64 {
        self.try_atomic_compare_swap(pe, addr, expected, new)
            .unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_compare_swap`].
    pub fn try_atomic_compare_swap(
        &self,
        pe: usize,
        addr: SymAddr,
        expected: u64,
        new: u64,
    ) -> OpResult<u64> {
        let heap = &self.world.heap;
        let site = self.armed();
        let (succ, fail) = self.ord_cas(site);
        self.issue(OpKind::AtomicCompareSwap, pe, 8, (addr.word() as u32, 1), site, || {
            let (prev, won) = match heap
                .word(pe, addr)
                .compare_exchange(expected, new, succ, fail)
            {
                Ok(prev) => (prev, true),
                Err(prev) => (prev, false),
            };
            if let Some(tr) = self.tracker() {
                tr.cas(self.pe, pe, addr.word(), won, succ, fail, site);
            }
            self.prof_site(site, |c| if won { c.cas_won += 1 } else { c.cas_lost += 1 });
            self.capture_event(site, ProtoOp::CompareSwap, pe, addr, 1, new, expected, prev);
            prev
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
    /// and the load relaxes. An attached override table wins either way,
    /// so campaign worlds still resolve the site through the catalog.
    pub fn atomic_fetch_ordered(&self, pe: usize, addr: SymAddr, acquire: bool) -> u64 {
        self.try_atomic_fetch_ordered(pe, addr, acquire)
            .unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_fetch`].
    pub fn try_atomic_fetch(&self, pe: usize, addr: SymAddr) -> OpResult<u64> {
        self.try_atomic_fetch_ordered(pe, addr, true)
    }

    fn try_atomic_fetch_ordered(
        &self,
        pe: usize,
        addr: SymAddr,
        acquire: bool,
    ) -> OpResult<u64> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = match &self.world.ordering {
            Some(ctl) => ctl.overrides.load(site),
            // ordering: catalog-driven — `Relaxed` only when the site's
            // production entry is `Relaxed` (necessity-proven tolerant).
            None if !acquire => Ordering::Relaxed,
            None => Ordering::Acquire,
        };
        self.issue(OpKind::AtomicFetch, pe, 8, (addr.word() as u32, 1), site, || {
            if let Some(tr) = self.tracker() {
                tr.read(self.pe, pe, addr.word(), 0, ord_acquires(ord), site);
            }
            let v = heap.word(pe, addr).load(ord);
            self.prof_site(site, |c| c.loads += 1);
            self.capture_event(site, ProtoOp::Fetch, pe, addr, 1, 0, 0, v);
            v
        })
    }

    /// Atomic write of a remote word.
    pub fn atomic_set(&self, pe: usize, addr: SymAddr, val: u64) {
        self.try_atomic_set(pe, addr, val).unwrap_or_else(op_panic)
    }

    /// Fallible [`Self::atomic_set`].
    pub fn try_atomic_set(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<()> {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_store(site);
        self.issue(OpKind::AtomicSet, pe, 8, (addr.word() as u32, 1), site, || {
            if site != NO_SITE && self.capturing() {
                // The overwritten value is only observable while capturing
                // (and inside the sampling window); the extra load happens
                // solely on that path.
                let prev = heap.word(pe, addr).load(Ordering::Acquire);
                self.capture_event(site, ProtoOp::Set, pe, addr, 1, val, 0, prev);
            }
            self.prof_site(site, |c| c.stores += 1);
            if let Some(tr) = self.tracker() {
                tr.write(self.pe, pe, addr.word(), ord_releases(ord), site);
            }
            heap.word(pe, addr).store(val, ord)
        })
    }

    /// Non-blocking atomic add (no fetched value); completed by `quiet`.
    /// Losses under fault injection are silent: the effect is skipped but
    /// the call still succeeds, exactly as a real NIC behaves at issue
    /// time.
    pub fn atomic_add_nbi(&self, pe: usize, addr: SymAddr, val: u64) {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_rmw(site);
        let _ = self.issue(OpKind::AtomicAddNbi, pe, 8, (addr.word() as u32, 1), site, || {
            if let Some(tr) = self.tracker() {
                tr.rmw(self.pe, pe, addr.word(), ord_acquires(ord), ord_releases(ord), site);
            }
            let prev = heap.word(pe, addr).fetch_add(val, ord);
            self.prof_site(site, |c| c.rmw += 1);
            self.capture_event(site, ProtoOp::AddNbi, pe, addr, 1, val, 0, prev);
        });
    }

    /// Non-blocking atomic set; completed by `quiet`. Losses under fault
    /// injection are silent (see [`Self::atomic_add_nbi`]).
    pub fn atomic_set_nbi(&self, pe: usize, addr: SymAddr, val: u64) {
        let heap = &self.world.heap;
        let site = self.armed();
        let ord = self.ord_store(site);
        let _ = self.issue(OpKind::AtomicSetNbi, pe, 8, (addr.word() as u32, 1), site, || {
            if site != NO_SITE && self.capturing() {
                let prev = heap.word(pe, addr).load(Ordering::Acquire);
                self.capture_event(site, ProtoOp::SetNbi, pe, addr, 1, val, 0, prev);
            }
            self.prof_site(site, |c| c.stores += 1);
            if let Some(tr) = self.tracker() {
                tr.write(self.pe, pe, addr.word(), ord_releases(ord), site);
            }
            heap.word(pe, addr).store(val, ord)
        });
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
        self.prof_site(site, |c| c.stores += 1);
        if site != NO_SITE {
            self.world.exec.choice_point(self.pe, || OpDesc {
                site,
                ..plain_desc(self.pe, addr.word() as u32, src.len() as u32, true)
            });
        }
        let ord = self.ord_store(site);
        for (i, &s) in src.iter().enumerate() {
            if let Some(tr) = self.tracker() {
                tr.write(self.pe, self.pe, addr.offset(i).word(), ord_releases(ord), site);
            }
            self.world
                .heap
                .word(self.pe, addr.offset(i))
                .store(s, ord);
        }
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

    /// Whether a peer PE panicked and poisoned the world (threaded mode).
    /// Poll loops that spin on remote state must check this to propagate
    /// failure instead of spinning forever.
    pub fn world_poisoned(&self) -> bool {
        self.world.exec.is_poisoned()
    }
}

/// Panic handler for infallible wrappers reached by an injected fault.
fn op_panic<R>(e: OpError) -> R {
    panic!("unhandled injected fault on infallible op surface: {e} (use the try_* variant)")
}

impl ShmemCtx {
    /// Convenience: blocking read of one remote word (a 1-word `get`,
    /// *not* an atomic — use [`Self::atomic_fetch`] for synchronizing
    /// reads).
    pub fn get_word(&self, pe: usize, addr: SymAddr) -> u64 {
        let mut v = [0u64];
        self.get_words(pe, addr, &mut v);
        v[0]
    }

    /// Convenience: blocking write of one remote word (a 1-word `put`).
    pub fn put_word(&self, pe: usize, addr: SymAddr, val: u64) {
        self.put_words(pe, addr, &[val]);
    }

    /// Fallible [`Self::put_word`].
    pub fn try_put_word(&self, pe: usize, addr: SymAddr, val: u64) -> OpResult<()> {
        self.try_put_words(pe, addr, &[val])
    }
}
