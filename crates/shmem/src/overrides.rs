//! The per-site ordering table and the live ordering tracker — the
//! substrate half of `sws-check necessity`.
//!
//! A site's ordering has one representation from the catalog down to the
//! op: a [`MemOrder`]. The catalog (`sws_core::AtomicSite`) names each
//! site's production entry, and `sws-core` folds them into one
//! [`OrderingOverrides`] table (keyed by raw site id: this crate sits
//! below the catalog and cannot name it). That one value is what the
//! model checker explores under and what a live world carries in its
//! [`OrderingCtl`], with or without one necessity mutant applied. The op
//! layer ([`crate::ctx`]) resolves every op through
//! [`MemOrder::for_role`]: an RMW or CAS keeps both halves of its site's
//! entry, a load only the acquire half, a store only the release half.
//! With no table attached every site sits at `AcqRel`, so RMWs run
//! `AcqRel`, loads `Acquire` and stores `Release`. The same control is
//! the one seam through which a self-test plants a protocol defect
//! (`sws_core::Defect`, carried as a raw id like the sites).
//!
//! Real x86 hardware cannot exhibit a weakened ordering under the
//! serialized exploration gate — every load sees the latest store
//! regardless. The tracker therefore re-derives the release/acquire
//! *happens-before* consequences of the effective (table-resolved)
//! orderings with vector clocks, mirroring the model checker's
//! operational semantics (`sws-check::mem`) minus value branching:
//!
//! * an effectively-releasing store publishes the author's clock as the
//!   word's message; a relaxed store ends the message (release sequence
//!   terminated);
//! * an effectively-acquiring load joins the word's message; RMWs
//!   continue the release sequence of the store they read (C++20);
//! * *fresh-obligated* reads (the payload block copies — supplied by the
//!   caller as `(site, word-limit)` pairs, since the protocol knowledge
//!   lives above this crate) must happen-after the word's latest
//!   annotated write **before** their own join: anything else is a
//!   stale-read violation. They also leave a read mark;
//! * an annotated write over a mark its author cannot cover is a race
//!   (slot reused while a thief may still be copying).
//!
//! Violations panic; under the exploration gate the panic surfaces as
//! `ShmemError::PePanicked` and flows through the existing
//! counterexample / ddmin / schedule-replay machinery unchanged. The
//! tracker is deterministic per schedule because the gate serializes
//! every tracked op.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use crate::ctx::ShmemCtx;
use crate::lock::Mutex;
use crate::proto::NO_SITE;

/// Table capacity; site ids are dense and small (21 today).
const N_SITES: usize = 64;

/// A C11-style memory ordering, restricted to the four the protocols use.
/// (`SeqCst` is banned workspace-wide by `sws-lint`: every site must
/// justify its ordering pairwise, not lean on a global total order.)
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum MemOrder {
    /// No synchronization; atomicity only.
    Relaxed,
    /// Load half of a synchronizes-with edge.
    Acquire,
    /// Store half of a synchronizes-with edge.
    Release,
    /// Both halves (RMW sites).
    AcqRel,
}

impl MemOrder {
    /// Does a load (or the load half of an RMW) at this ordering acquire?
    #[inline]
    pub fn acquires(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel)
    }

    /// Does a store (or the store half of an RMW) at this ordering release?
    #[inline]
    pub fn releases(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel)
    }

    /// Short name used in the audit table.
    pub fn name(self) -> &'static str {
        match self {
            MemOrder::Relaxed => "Relaxed",
            MemOrder::Acquire => "Acquire",
            MemOrder::Release => "Release",
            MemOrder::AcqRel => "AcqRel",
        }
    }

    /// Is `self` at least as strong as `need` on the strength lattice
    /// `Relaxed < {Acquire, Release} < AcqRel` (the two halves are
    /// incomparable)? This is the one ordering-comparison in the
    /// workspace: the lint's annotation-evidence check and the necessity
    /// prover's mutant enumeration both consume it.
    pub fn satisfies(self, need: MemOrder) -> bool {
        match need {
            MemOrder::Relaxed => true,
            MemOrder::Acquire => self.acquires(),
            MemOrder::Release => self.releases(),
            MemOrder::AcqRel => self.acquires() && self.releases(),
        }
    }

    /// The orderings exactly one step weaker than `self` on the lattice:
    /// `AcqRel → {Acquire, Release}`, each half `→ Relaxed`, and
    /// `Relaxed` has nowhere left to fall. The necessity campaign walks
    /// these edges; anything a one-step weakening cannot break, a
    /// multi-step weakening cannot break either only if every
    /// intermediate also survives — which the campaign checks by
    /// weakening every site's every edge.
    pub fn weakenings(self) -> &'static [MemOrder] {
        match self {
            MemOrder::Relaxed => &[],
            MemOrder::Acquire | MemOrder::Release => &[MemOrder::Relaxed],
            MemOrder::AcqRel => &[MemOrder::Acquire, MemOrder::Release],
        }
    }

    /// The CPU ordering an op of `role` runs at when its site's entry is
    /// `self`: the halves of `self` the role can carry. A load cannot
    /// release and a store cannot acquire, so a weakening that takes away
    /// the one half a load or store carries leaves it relaxed.
    #[inline]
    pub fn for_role(self, role: OpRole) -> Ordering {
        let (acquire, release) = match role {
            OpRole::Rmw | OpRole::Cas => (self.acquires(), self.releases()),
            OpRole::Load => (self.acquires(), false),
            OpRole::Store => (false, self.releases()),
        };
        match (acquire, release) {
            (true, true) => Ordering::AcqRel,
            (true, false) => Ordering::Acquire,
            (false, true) => Ordering::Release,
            // relaxed: the entry carries no half this role can use —
            // a production `Relaxed` site or the mutant under test.
            (false, false) => Ordering::Relaxed,
        }
    }
}

/// What an op does to its word, for ordering purposes: the halves of a
/// site's [`MemOrder`] it can carry and how the tracker follows it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpRole {
    /// Fetch-add, swap, add-nbi: read and write in one step.
    Rmw,
    /// Compare-swap: an RMW when it wins, a load at its failure ordering
    /// when it loses.
    Cas,
    /// Atomic fetch and the per-word loads of a get.
    Load,
    /// Atomic set and the per-word stores of a put or an owner-local
    /// write.
    Store,
}

/// Does `ord` carry the acquire half?
#[inline]
fn ord_acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel)
}

/// Does `ord` carry the release half?
#[inline]
fn ord_releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel)
}

/// A per-site ordering table: one [`MemOrder`] per site plus the
/// failure-path ordering of a compare-swap at it. The identity table
/// holds `AcqRel` and `Acquire` everywhere, byte-for-byte the behavior of
/// a world without a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderingOverrides {
    ords: [MemOrder; N_SITES],
    cas_fails: [MemOrder; N_SITES],
}

impl OrderingOverrides {
    /// The identity table: every site keeps its role default.
    pub fn identity() -> OrderingOverrides {
        OrderingOverrides {
            ords: [MemOrder::AcqRel; N_SITES],
            cas_fails: [MemOrder::Acquire; N_SITES],
        }
    }

    fn index(site: u16) -> usize {
        assert!((site as usize) < N_SITES && site != NO_SITE, "bad site id {site}");
        site as usize
    }

    /// Set `site`'s ordering. Builder-style; panics on an out-of-range
    /// site id.
    #[must_use]
    pub fn with(mut self, site: u16, ord: MemOrder) -> OrderingOverrides {
        self.ords[Self::index(site)] = ord;
        self
    }

    /// Set `site`'s compare-swap failure-path ordering.
    #[must_use]
    pub fn with_cas_fail(mut self, site: u16, ord: MemOrder) -> OrderingOverrides {
        self.cas_fails[Self::index(site)] = ord;
        self
    }

    /// `site`'s entry and its compare-swap failure-path ordering; the
    /// identity pair for an id outside the table (an unannotated op).
    #[inline]
    pub fn entry(&self, site: u16) -> (MemOrder, MemOrder) {
        match (self.ords.get(site as usize), self.cas_fails.get(site as usize)) {
            (Some(&ord), Some(&fail)) => (ord, fail),
            _ => (MemOrder::AcqRel, MemOrder::Acquire),
        }
    }
}

/// The test control a world may carry: the ordering table, an optional
/// live happens-before tracker, and an optional planted defect. See the
/// module docs.
#[derive(Debug)]
pub struct OrderingCtl {
    /// The per-site ordering table every annotated op resolves through
    /// (`sws_core::AtomicSite::production_table`, or a mutant of it).
    pub overrides: OrderingOverrides,
    /// Vector-clock tracker; `None` resolves orderings without checking
    /// them (the differential suites run overrides-attached worlds in
    /// virtual time, where there is nothing to track).
    pub tracker: Option<OrdTracker>,
    /// Raw id of a protocol defect the queues plant (`sws_core::Defect`,
    /// which this crate cannot name); `None` plants nothing.
    pub defect: Option<u16>,
}

impl ShmemCtx {
    /// The raw id of the defect this world's test control plants, if any.
    /// Queues read it once, at construction.
    pub fn planted_defect(&self) -> Option<u16> {
        self.world().ordering.as_ref().and_then(|ctl| ctl.defect)
    }
}

/// Violation kind tag for a fresh-obligated read that cannot prove it
/// happens-after the word's latest write (mirrors the model checker's
/// `stale-read`). Public so the check crate can classify failures.
pub const TRACK_STALE: &str = "ordering-track stale-read";
/// Violation kind tag for a write over an uncovered read mark (mirrors
/// the model checker's `race`).
pub const TRACK_RACE: &str = "ordering-track race";

#[derive(Clone, Debug, Default)]
struct TrackWord {
    /// Latest annotated write: (author PE, author sequence number).
    last_write: Option<(usize, u32)>,
    /// Release-sequence message carried by the latest write chain.
    msg: Option<Vec<u32>>,
    /// Fresh-read marks: (reader PE, reader sequence number).
    marks: Vec<(usize, u32)>,
}

struct Track {
    clocks: Vec<Vec<u32>>,
    seqs: Vec<u32>,
    words: HashMap<u64, TrackWord>,
}

/// Deterministic vector-clock happens-before tracker over the gated
/// live execution. See the module docs for the semantics.
pub struct OrdTracker {
    inner: Mutex<Track>,
    /// Fresh-read obligations: `(site id, word limit)` — the first
    /// `limit` words of an op at `site` must read fresh.
    fresh: Vec<(u16, u32)>,
}

impl std::fmt::Debug for OrdTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OrdTracker({} fresh sites)", self.fresh.len())
    }
}

fn covers(clock: &[u32], author: usize, seq: u32) -> bool {
    clock.get(author).copied().unwrap_or(0) >= seq
}

fn join(clock: &mut [u32], other: &[u32]) {
    for (a, &b) in clock.iter_mut().zip(other) {
        *a = (*a).max(b);
    }
}

impl OrdTracker {
    /// A tracker for `n_pes` PEs with the given fresh-read obligations.
    pub fn new(n_pes: usize, fresh: Vec<(u16, u32)>) -> OrdTracker {
        OrdTracker {
            inner: Mutex::new(Track {
                clocks: vec![vec![0; n_pes]; n_pes],
                seqs: vec![0; n_pes],
                words: HashMap::new(),
            }),
            fresh,
        }
    }

    fn fresh_limit(&self, site: u16) -> Option<u32> {
        self.fresh.iter().find(|(s, _)| *s == site).map(|&(_, l)| l)
    }

    fn key(target: usize, word: usize) -> u64 {
        ((target as u64) << 32) | word as u64
    }

    /// Follow one word of an annotated op of `role` whose (success,
    /// failure) orderings are `ords`: the op layer's one tracker call.
    /// `won` is a compare-swap's outcome; `in_op` is the word's index
    /// within the op.
    #[allow(clippy::too_many_arguments)] // one word of one op, as the op layer sees it
    pub fn track(
        &self,
        role: OpRole,
        (ord, fail): (Ordering, Ordering),
        won: bool,
        site: u16,
        pe: usize,
        target: usize,
        (word, in_op): (usize, u32),
    ) {
        // A compare-swap that wins is an RMW at its success ordering; one
        // that loses only loads, at its failure ordering.
        let (role, ord) = match role {
            OpRole::Cas if won => (OpRole::Rmw, ord),
            OpRole::Cas => (OpRole::Load, fail),
            other => (other, ord),
        };
        match role {
            OpRole::Rmw | OpRole::Cas => {
                self.rmw(pe, target, word, ord_acquires(ord), ord_releases(ord), site)
            }
            OpRole::Load => self.read(pe, target, word, in_op, ord_acquires(ord), site),
            OpRole::Store => self.write(pe, target, word, ord_releases(ord), site),
        }
    }

    /// An annotated load of one word. `word_in_op` is the word's index
    /// within the op's span (the fresh obligation may cover a prefix).
    /// Panics on a stale-read violation.
    fn read(
        &self,
        pe: usize,
        target: usize,
        word: usize,
        word_in_op: u32,
        acquires: bool,
        site: u16,
    ) {
        if site == NO_SITE {
            return;
        }
        let fresh = self.fresh_limit(site).is_some_and(|l| word_in_op < l);
        let mut t = self.inner.lock();
        let t = &mut *t;
        let key = Self::key(target, word);
        let (last_write, msg) = {
            let w = t.words.entry(key).or_default();
            (w.last_write, w.msg.clone())
        };
        if fresh {
            // The staleness check runs *before* this read's own join: a
            // fresh read must already happen-after the latest write via
            // a prior synchronizing edge (the publication chain).
            if let Some((author, seq)) = last_write {
                if author != pe && !covers(&t.clocks[pe], author, seq) {
                    panic!(
                        "{TRACK_STALE}: site {site} pe {pe} reads word {word}@{target} \
                         without covering the latest write by pe {author}"
                    );
                }
            }
        }
        if acquires {
            if let Some(msg) = msg {
                join(&mut t.clocks[pe], &msg);
            }
        }
        if fresh {
            t.seqs[pe] += 1;
            let seq = t.seqs[pe];
            t.clocks[pe][pe] = t.clocks[pe][pe].max(seq);
            t.seqs[pe] = t.clocks[pe][pe];
            if let Some(w) = t.words.get_mut(&key) {
                w.marks.push((pe, seq));
            }
        }
    }

    /// An annotated store of one word. Panics on a race with an
    /// uncovered fresh-read mark.
    fn write(&self, pe: usize, target: usize, word: usize, releases: bool, site: u16) {
        if site == NO_SITE {
            return;
        }
        let mut t = self.inner.lock();
        let t = &mut *t;
        let w = t.words.entry(Self::key(target, word)).or_default();
        Self::check_marks(&t.clocks[pe], w, pe, target, word, site);
        let seq = Self::tick(&mut t.clocks[pe], &mut t.seqs[pe], pe);
        w.last_write = Some((pe, seq));
        // A relaxed store ends the release sequence (no message).
        w.msg = releases.then(|| t.clocks[pe].clone());
    }

    /// An annotated RMW (fetch-add / swap / successful CAS).
    fn rmw(&self, pe: usize, target: usize, word: usize, acquires: bool, releases: bool, site: u16) {
        if site == NO_SITE {
            return;
        }
        let mut t = self.inner.lock();
        let t = &mut *t;
        let w = t.words.entry(Self::key(target, word)).or_default();
        Self::check_marks(&t.clocks[pe], w, pe, target, word, site);
        if acquires {
            if let Some(msg) = w.msg.clone() {
                join(&mut t.clocks[pe], &msg);
            }
        }
        let seq = Self::tick(&mut t.clocks[pe], &mut t.seqs[pe], pe);
        // C++20 release sequence: the RMW's store carries the message of
        // the store it read, joined with its own clock if it releases.
        if releases {
            match &mut w.msg {
                Some(m) => join(m, &t.clocks[pe]),
                None => w.msg = Some(t.clocks[pe].clone()),
            }
        }
        w.last_write = Some((pe, seq));
    }

    fn tick(clock: &mut [u32], seq: &mut u32, pe: usize) -> u32 {
        *seq += 1;
        clock[pe] = clock[pe].max(*seq);
        *seq = clock[pe];
        *seq
    }

    fn check_marks(
        clock: &[u32],
        w: &mut TrackWord,
        pe: usize,
        target: usize,
        word: usize,
        site: u16,
    ) {
        for &(reader, seq) in &w.marks {
            if reader != pe && !covers(clock, reader, seq) {
                panic!(
                    "{TRACK_RACE}: site {site} pe {pe} overwrites word {word}@{target} \
                     while pe {reader} may still be copying it"
                );
            }
        }
        // Every mark is covered (or our own): safe to prune — future
        // readers re-mark.
        w.marks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: u16 = 9;
    const FLAG: u16 = 1;
    const COMP: u16 = 5;

    fn tracker() -> OrdTracker {
        OrdTracker::new(2, vec![(PAYLOAD, u32::MAX)])
    }

    #[test]
    fn publication_chain_makes_fresh_read_clean() {
        let t = tracker();
        // Owner writes payload (release), publishes flag (release); the
        // thief's RMW on the flag acquires, covering the payload write.
        t.write(0, 0, 10, true, PAYLOAD);
        t.rmw(0, 0, 0, true, true, FLAG);
        t.rmw(1, 0, 0, true, true, FLAG);
        t.read(1, 0, 10, 0, true, PAYLOAD);
    }

    #[test]
    #[should_panic(expected = "ordering-track stale-read")]
    fn relaxed_publication_flags_stale_read() {
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        // Relaxed publish: no message, the thief joins nothing.
        t.rmw(0, 0, 0, false, false, FLAG);
        t.rmw(1, 0, 0, true, true, FLAG);
        t.read(1, 0, 10, 0, true, PAYLOAD);
    }

    #[test]
    fn rmw_continues_the_release_sequence() {
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        t.write(0, 0, 0, true, FLAG);
        // A relaxed RMW in the middle must not end the sequence.
        t.rmw(1, 0, 0, false, false, FLAG);
        t.rmw(1, 0, 0, true, true, FLAG);
        t.read(1, 0, 10, 0, true, PAYLOAD);
    }

    #[test]
    #[should_panic(expected = "ordering-track race")]
    fn uncovered_overwrite_of_marked_word_is_a_race() {
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        t.rmw(0, 0, 0, true, true, FLAG);
        t.rmw(1, 0, 0, true, true, FLAG);
        t.read(1, 0, 10, 0, true, PAYLOAD);
        // The thief's completion is relaxed: the owner's reclaim read
        // joins nothing, so the slot reuse races with the mark.
        t.write(1, 0, 20, false, COMP);
        t.read(0, 0, 20, 0, true, COMP);
        t.write(0, 0, 10, true, PAYLOAD);
    }

    #[test]
    fn covered_overwrite_after_completion_chain_is_clean() {
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        t.rmw(0, 0, 0, true, true, FLAG);
        t.rmw(1, 0, 0, true, true, FLAG);
        t.read(1, 0, 10, 0, true, PAYLOAD);
        t.write(1, 0, 20, true, COMP);
        t.read(0, 0, 20, 0, true, COMP);
        t.write(0, 0, 10, true, PAYLOAD);
    }

    #[test]
    fn fresh_word_limit_applies_to_the_op_prefix_only() {
        let t = OrdTracker::new(2, vec![(PAYLOAD, 1)]);
        t.write(0, 0, 10, true, PAYLOAD);
        t.write(0, 0, 11, true, PAYLOAD);
        // Word 1 of the op is beyond the fresh limit: stale is legal.
        t.read(1, 0, 11, 1, true, PAYLOAD);
    }

    #[test]
    #[should_panic(expected = "ordering-track stale-read")]
    fn fresh_word_limit_still_checks_the_first_word() {
        let t = OrdTracker::new(2, vec![(PAYLOAD, 1)]);
        t.write(0, 0, 10, true, PAYLOAD);
        t.read(1, 0, 10, 0, true, PAYLOAD);
    }

    #[test]
    fn failed_cas_joins_only_at_an_acquiring_failure_ordering() {
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        t.write(0, 0, 0, true, FLAG);
        // Relaxed failure ordering: no join, the later fresh read is stale.
        let lost = |fail: MemOrder| (Ordering::AcqRel, fail.for_role(OpRole::Load));
        t.track(OpRole::Cas, lost(MemOrder::Relaxed), false, FLAG, 1, 0, (0, 0));
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.read(1, 0, 10, 0, false, PAYLOAD)
        }));
        assert!(stale.is_err());
        // Acquiring failure ordering synchronizes.
        let t = tracker();
        t.write(0, 0, 10, true, PAYLOAD);
        t.write(0, 0, 0, true, FLAG);
        t.track(OpRole::Cas, lost(MemOrder::Acquire), false, FLAG, 1, 0, (0, 0));
        t.read(1, 0, 10, 0, false, PAYLOAD);
    }

    #[test]
    fn identity_table_resolves_role_defaults() {
        let o = OrderingOverrides::identity();
        let at = |site, role| o.entry(site).0.for_role(role);
        assert_eq!(at(3, OpRole::Rmw), Ordering::AcqRel);
        assert_eq!(at(3, OpRole::Load), Ordering::Acquire);
        assert_eq!(at(3, OpRole::Store), Ordering::Release);
        assert_eq!(o.entry(10), (MemOrder::AcqRel, MemOrder::Acquire));
        // Out-of-catalog sentinel resolves to defaults too.
        assert_eq!(o.entry(NO_SITE), o.entry(3));
    }

    #[test]
    fn override_codes_clamp_to_role_legal_orderings() {
        let o = OrderingOverrides::identity()
            .with(0, MemOrder::Release)
            .with(1, MemOrder::Acquire)
            .with(2, MemOrder::Relaxed)
            .with_cas_fail(3, MemOrder::Relaxed);
        assert_ne!(o, OrderingOverrides::identity());
        let at = |site, role| o.entry(site).0.for_role(role);
        assert_eq!(at(0, OpRole::Rmw), Ordering::Release);
        assert_eq!(at(0, OpRole::Load), at(2, OpRole::Rmw), "release on a load drops the acquire");
        assert_eq!(at(0, OpRole::Store), Ordering::Release);
        assert_eq!(at(1, OpRole::Rmw), Ordering::Acquire);
        assert_eq!(at(1, OpRole::Store), at(2, OpRole::Load), "acquire on a store drops the release");
        assert_eq!(at(1, OpRole::Load), Ordering::Acquire);
        assert!(!ord_acquires(at(2, OpRole::Rmw)) && !ord_releases(at(2, OpRole::Rmw)));
        assert_eq!(o.entry(3), (MemOrder::AcqRel, MemOrder::Relaxed));
    }
}
