//! The memory-ordering site catalog for the steal protocols.
//!
//! Every atomic operation the SWS and SDC protocols issue maps to one of
//! the *sites* enumerated here. The production orderings come from
//! `sws-shmem`'s op surface (remote RMWs are `AcqRel`, atomic reads
//! `Acquire`, atomic writes `Release` — see `shmem::ctx`); this catalog
//! names each site so that
//!
//! * the `sws-check` model checker can re-run its scenarios with one
//!   site's ordering weakened at a time and report which orderings are
//!   load-bearing (the `ORDERINGS.md` audit table at the repo root), and
//! * `// ordering: <Site>` comments at the call sites in `queue/sws.rs`,
//!   `queue/sdc.rs` and `shmem/src/ctx.rs` stay greppable and tied to a
//!   single source of truth.
//!
//! A site's ordering is a [`MemOrder`] (defined in `sws-shmem`, which
//! sits below this crate): [`AtomicSite::production_table`] folds the
//! catalog into the one table the model checker explores under and a
//! live world resolves its ops from, and [`Weakening::apply`] makes a
//! necessity mutant of it.

use sws_shmem::{OrderingOverrides, ProtoOp};

use crate::protocol::{Protocol, Word};
use crate::queue::sdc;

/// A C11-style memory ordering; the one representation of a site's
/// ordering from this catalog down to the op layer.
pub use sws_shmem::MemOrder;

/// One mutation the necessity prover applies to a site.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Weakening {
    /// Replace the site's operative ordering with a one-step-weaker one.
    Order(MemOrder),
    /// Drop a compare-swap site's failure-path load ordering to
    /// `Relaxed` (the success ordering stays at production strength).
    CasFailure,
}

impl Weakening {
    /// Stable label used in verdict tables and schedule files.
    pub fn label(self) -> String {
        match self {
            Weakening::Order(o) => format!("to-{}", o.name().to_ascii_lowercase()),
            Weakening::CasFailure => "cas-fail-relaxed".into(),
        }
    }

    /// `table` with this weakening applied at `site`: the one mutant table
    /// both necessity oracles are built from.
    pub fn apply(self, site: AtomicSite, table: OrderingOverrides) -> OrderingOverrides {
        match self {
            Weakening::Order(o) => table.with(site.id(), o),
            Weakening::CasFailure => table.with_cas_fail(site.id(), MemOrder::Relaxed),
        }
    }

    /// Inverse of [`Weakening::label`].
    pub fn from_label(s: &str) -> Option<Weakening> {
        match s {
            "to-relaxed" => Some(Weakening::Order(MemOrder::Relaxed)),
            "to-acquire" => Some(Weakening::Order(MemOrder::Acquire)),
            "to-release" => Some(Weakening::Order(MemOrder::Release)),
            "cas-fail-relaxed" => Some(Weakening::CasFailure),
            _ => None,
        }
    }
}

/// A protocol defect planted on purpose, so a self-test can show that a
/// checker catches a broken steal. Each variant names the obligation it
/// breaks and the oracle that must catch it. A defect reaches the queues
/// only as [`Defect::id`] in a world's ordering control
/// ([`sws_shmem::OrderingCtl::defect`]); no queue configuration can name
/// one.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Defect {
    /// SWS thief: issue the passive completion *before* copying the
    /// block. Breaks conservation: a preempted thief lets the owner
    /// reconcile the epoch and overwrite the ring words mid-copy, so one
    /// tag runs twice and another never. Caught by the explorer's per-tag
    /// conservation oracle (`sws-check explore`'s self-test).
    CompleteBeforeCopy,
    /// SWS thief: decode the claim from the fetched stealval with tail
    /// bit 0 flipped, so it copies the block one slot off the one it
    /// claimed. Breaks multiplicity 1: the thief takes one task another
    /// extractor also takes. Caught by the conformance replay's
    /// `payload-geometry` check (`sws-check conform`'s self-test).
    ClaimOneSlotOff,
}

impl Defect {
    /// The raw id a world's ordering control carries.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Inverse of [`Defect::id`].
    pub fn from_id(id: u16) -> Option<Defect> {
        [Defect::CompleteBeforeCopy, Defect::ClaimOneSlotOff].into_iter().find(|d| d.id() == id)
    }
}

/// Which oracle produced a piece of necessity evidence.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Oracle {
    /// The bounded model checker over the abstract protocol machines.
    Model,
    /// The live exploration scheduler driving the production queues.
    Live,
}

impl Oracle {
    /// Short name for verdict cells.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Model => "model",
            Oracle::Live => "live",
        }
    }
}

/// The machine-produced verdict for one (site, weakening) mutant.
///
/// `Broken` means an oracle exhibited a concrete failing execution —
/// the production ordering is *necessary* (at least as strong as the
/// weakening's target is insufficient). `ExhaustedAtBound` means every
/// oracle ran its full bounded search without a counterexample — honest
/// evidence of absence *within the bounds*, never a proof; the bounds
/// are recorded so the claim is auditable.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Necessity {
    /// A counterexample exists: the weakening is observable.
    Broken {
        /// Which oracle found it.
        oracle: Oracle,
        /// Violation kind tag (e.g. `stale-read`, `race`, `conservation`).
        kind: String,
        /// Witness pointer: the scenario name for the model oracle, the
        /// committed schedule-file name for the live oracle.
        witness: String,
    },
    /// Both oracles exhausted their bounds cleanly: a relaxation
    /// candidate, with the bounds that back the claim.
    ExhaustedAtBound {
        /// Human-readable bound summary (preemptions, schedules, steps).
        bounds: String,
    },
}

/// One row of the site catalog: everything the workspace knows about an
/// [`AtomicSite`] apart from what its ops do to the queue (that is
/// [`crate::protocol::decode`]). The audit table, the exploration
/// scheduler's pruning, the conformance replay and the span stitcher all
/// read this row instead of restating it.
#[derive(Debug)]
pub struct SiteRow {
    /// Stable identifier used in audit rows and `// ordering:` comments.
    pub name: &'static str,
    /// Source location of the site (file: expression), for the audit table.
    pub location: &'static str,
    /// Which protocol the site belongs to.
    pub protocol: Protocol,
    /// The ordering the production code uses at this site: the entry
    /// [`AtomicSite::production_table`] gives `shmem::ctx` to resolve the
    /// site's ops from.
    pub production: MemOrder,
    /// The dependence class, used by the exploration scheduler's
    /// DPOR-style pruning: two gated ops can only be reordered into a new
    /// branch when their sites share a class (they touch the same protocol
    /// word family) *and* their word spans overlap with at least one
    /// writer. Classing by family (rather than exact word)
    /// over-approximates conflicts — e.g. two different completion slots
    /// share a class — which can only add branches, never hide one, so
    /// pruning stays sound.
    pub dep_class: DepClass,
    /// Which word of the victim's queue the site touches.
    pub word: Word,
    /// Every op shape the protocol issues at this site — empty for the
    /// owner-local payload stores, which the one-sided capture layer never
    /// sees. This *is* the structural damping check: `SwsThiefProbe` admits
    /// only `Fetch`, so a probe that bumped the asteals counter is illegal.
    pub ops: &'static [ProtoOp],
    /// Only the queue's owner issues this site (against its own PE).
    pub owner_only: bool,
    /// The steal-span phase an op at this site is (`""` for owner-only
    /// sites, which no span contains).
    pub phase: &'static str,
}

/// Declares [`AtomicSite`], [`AtomicSite::ALL`] and the row table from one
/// list, so a site cannot exist without its row or sit at another index.
/// The column before the location is `owner` for a site only the queue's
/// owner issues, else the span phase a thief's op at the site is.
macro_rules! site_catalog {
    (@owner_only owner) => { true };
    (@owner_only $phase:literal) => { false };
    (@phase owner) => { "" };
    (@phase $phase:literal) => { $phase };
    ($($(#[$doc:meta])* $site:ident: $proto:ident, $order:ident, $class:ident, $word:expr,
        [$($op:ident),*], $who:tt, $loc:literal;)+) => {
        /// One atomic site in a steal protocol. Variant order is the order
        /// rows appear in `ORDERINGS.md`; the discriminant is [`AtomicSite::id`].
        #[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
        #[repr(u16)]
        pub enum AtomicSite {
            $($(#[$doc])* $site),+
        }

        impl AtomicSite {
            /// Every site, in audit-table order.
            pub const ALL: [AtomicSite; 21] = [$(AtomicSite::$site),+];
        }

        static ROWS: [SiteRow; AtomicSite::ALL.len()] = [$(SiteRow {
            name: stringify!($site),
            location: $loc,
            protocol: Protocol::$proto,
            production: MemOrder::$order,
            dep_class: DepClass::$class,
            word: $word,
            ops: &[$(ProtoOp::$op),*],
            owner_only: site_catalog!(@owner_only $who),
            phase: site_catalog!(@phase $who),
        }),+];
    };
}

site_catalog! {
    // --- SWS (queue/sws.rs) ---
    /// Thief: the claim fetch-add on the stealval word.
    SwsThiefClaim: Sws, AcqRel, SwsStealval, Word::Ctl(0), [FetchAdd], "claim",
        "queue/sws.rs: steal_from atomic_fetch_add(sv)";
    /// Owner: publishing a fresh advertisement (atomic_set of stealval).
    SwsOwnerAdvertise: Sws, Release, SwsStealval, Word::Ctl(0), [Set], owner,
        "queue/sws.rs: advertise atomic_set(sv)";
    /// Owner: closing the gate at acquire/retire (atomic_swap of stealval).
    SwsOwnerAcquireSwap: Sws, AcqRel, SwsStealval, Word::Ctl(0), [Swap], owner,
        "queue/sws.rs: acquire/retire atomic_swap(sv)";
    /// Owner: reading its own live stealval (read_sv in release/reclaim).
    // Staleness-tolerant by construction — the attempted-steals counter
    // is monotonic per advertisement, so a stale read only under-reports
    // and the release/reclaim logic retries. Both necessity oracles
    // exhausted their bounds on the acquire→relaxed mutant (see
    // ORDERINGS.md and crates/check/schedules/), so production runs it
    // relaxed: on weakly-ordered hardware this drops a fence from every
    // owner-side release/reclaim poll, the hot path the paper's
    // single-word protocol is built around.
    SwsOwnerSvRead: Sws, Relaxed, SwsStealval, Word::Ctl(0), [Fetch], owner,
        "queue/sws.rs: read_sv atomic_fetch_ordered(sv)";
    /// Owner: zeroing a completion-slot set before an advertisement.
    SwsOwnerSlotZero: Sws, Release, SwsCompletion, Word::Comp, [Set], owner,
        "queue/sws.rs: advertise atomic_set(comp[s], 0)";
    /// Thief: the passive completion notification (atomic_set_nbi of vol).
    SwsThiefComplete: Sws, Release, SwsCompletion, Word::Comp, [SetNbi, CompareSwap], "complete",
        "queue/sws.rs: steal_from atomic_set_nbi(comp, vol)";
    /// Owner: reading completion slots during reclaim.
    SwsOwnerReclaimRead: Sws, Acquire, SwsCompletion, Word::Comp, [Fetch, CompareSwap], owner,
        "queue/sws.rs: reclaim atomic_fetch(comp)";
    /// Thief: the damped read-only probe of a victim's stealval (§4.3).
    SwsThiefProbe: Sws, Acquire, SwsStealval, Word::Ctl(0), [Fetch], "probe",
        "queue/sws.rs: probe atomic_fetch(sv)";
    /// Owner: writing task records into the ring (local_write, Release).
    SwsOwnerPayloadWrite: Sws, Release, SwsPayload, Word::Payload, [], owner,
        "queue/buffer.rs: write_local (SWS ring)";
    /// Thief: the per-word loads of the block-copy get.
    SwsThiefPayloadRead: Sws, Acquire, SwsPayload, Word::Payload, [Get], "payload",
        "queue/buffer.rs: steal_copy get (SWS ring)";
    // --- SDC (queue/sdc.rs) ---
    /// Thief/owner: the lock compare-swap.
    SdcLockCas: Sdc, AcqRel, SdcLock, Word::Ctl(sdc::LOCK), [CompareSwap], "lock",
        "queue/sdc.rs: atomic_compare_swap(lock, 0, 1)";
    /// Thief/owner: the lock-release store.
    SdcUnlock: Sdc, Release, SdcLock, Word::Ctl(sdc::LOCK), [Set], "unlock",
        "queue/sdc.rs: atomic_set(lock, 0)";
    /// Thief: reading tail+split under the lock (one 16-byte get).
    SdcMetaRead: Sdc, Acquire, SdcMeta, Word::Ctl(sdc::TAIL), [Get], "meta",
        "queue/sdc.rs: get_words(tail, split)";
    /// Thief: publishing the advanced tail (put under the lock).
    SdcTailPut: Sdc, Release, SdcMeta, Word::Ctl(sdc::TAIL), [Put], "tail",
        "queue/sdc.rs: put_words(tail + vol)";
    /// Owner: publishing a grown split in lock-free release.
    SdcSplitPublish: Sdc, Release, SdcMeta, Word::Ctl(sdc::SPLIT), [Set], owner,
        "queue/sdc.rs: release atomic_set(split)";
    /// Owner: reading the published tail (release precondition/acquire).
    SdcOwnerTailRead: Sdc, Acquire, SdcMeta, Word::Ctl(sdc::TAIL), [Fetch], owner,
        "queue/sdc.rs: read_tail atomic_fetch(tail)";
    /// Thief: the deferred completion signal (atomic_set_nbi of vol).
    SdcComplete: Sdc, Release, SdcCompletion, Word::Comp, [SetNbi, Set, CompareSwap],
        "complete", "queue/sdc.rs: atomic_set_nbi(comp, vol)";
    /// Owner: reading completion-ring slots during progress.
    SdcReclaimRead: Sdc, Acquire, SdcCompletion, Word::Comp, [Fetch, CompareSwap], owner,
        "queue/sdc.rs: progress atomic_fetch(comp)";
    /// Owner: zeroing a consumed completion-ring slot during progress.
    SdcReclaimZero: Sdc, Release, SdcCompletion, Word::Comp, [Set], owner,
        "queue/sdc.rs: progress atomic_set(comp, 0)";
    /// Owner: writing task records into the ring (local_write, Release).
    SdcPayloadWrite: Sdc, Release, SdcPayload, Word::Payload, [], owner,
        "queue/buffer.rs: write_local (SDC ring)";
    /// Thief: the per-word loads of the block-copy get.
    SdcPayloadRead: Sdc, Acquire, SdcPayload, Word::Payload, [Get], "payload",
        "queue/buffer.rs: steal_copy get (SDC ring)";
}

impl AtomicSite {
    /// This site's catalog row.
    pub fn row(self) -> &'static SiteRow {
        &ROWS[self as usize]
    }

    /// [`SiteRow::production`].
    pub fn production(self) -> MemOrder {
        self.row().production
    }

    /// Every site at its production ordering: the one table the model
    /// explores under and a live world resolves its ops from.
    pub fn production_table() -> OrderingOverrides {
        AtomicSite::ALL
            .into_iter()
            .fold(OrderingOverrides::identity(), |t, s| t.with(s.id(), s.production()))
    }

    /// [`SiteRow::location`].
    pub fn location(self) -> &'static str {
        self.row().location
    }

    /// [`SiteRow::protocol`].
    pub fn protocol(self) -> Protocol {
        self.row().protocol
    }

    /// [`SiteRow::dep_class`].
    pub fn dep_class(self) -> DepClass {
        self.row().dep_class
    }

    /// [`SiteRow::name`].
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Inverse of [`AtomicSite::name`].
    pub fn from_name(name: &str) -> Option<AtomicSite> {
        AtomicSite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Dense numeric id of this site: its index in [`AtomicSite::ALL`].
    /// The trace-capture layer in `sws-shmem` records sites as raw `u16`s
    /// (it cannot depend on this crate); this is the round-trip anchor.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Inverse of [`AtomicSite::id`]; `None` for ids outside the catalog
    /// (e.g. the capture layer's "unannotated op" sentinel).
    pub fn from_id(id: u16) -> Option<AtomicSite> {
        AtomicSite::ALL.get(id as usize).copied()
    }

    /// Does this site issue a compare-swap, giving it a distinct
    /// failure-path load ordering the necessity prover can weaken
    /// separately? Only the SDC lock acquisition is a CAS on the
    /// fault-free path; the fault-mode confirm/poison CASes reuse the
    /// completion sites and keep their operative ordering.
    pub fn has_cas_failure_ordering(self) -> bool {
        matches!(self, AtomicSite::SdcLockCas)
    }

    /// Every mutation the necessity campaign applies to this site: one
    /// per lattice edge below the production ordering, plus the CAS
    /// failure-path weakening where the site has one.
    pub fn weakenings(self) -> Vec<Weakening> {
        let mut v: Vec<Weakening> = self
            .production()
            .weakenings()
            .iter()
            .map(|&o| Weakening::Order(o))
            .collect();
        if self.has_cas_failure_ordering() {
            v.push(Weakening::CasFailure);
        }
        v
    }
}

/// A family of protocol words whose sites may conflict with each other.
/// Sites in distinct classes never race: their words occupy disjoint
/// symmetric-heap ranges (see [`Protocol::geometry`]), so the exploration
/// scheduler treats any pair of ops from different classes as commuting
/// (no schedule branch).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum DepClass {
    /// The SWS stealval word (claim, advertise, swap, reads, probes).
    SwsStealval,
    /// SWS completion slots (zero, thief signal, reclaim reads).
    SwsCompletion,
    /// SWS ring payload words (owner writes, thief block-copy reads).
    SwsPayload,
    /// The SDC lock word (CAS and release store).
    SdcLock,
    /// SDC tail + split metadata words.
    SdcMeta,
    /// SDC completion-ring slots.
    SdcCompletion,
    /// SDC ring payload words.
    SdcPayload,
}

impl DepClass {
    /// Short name for audit rows.
    pub fn name(self) -> &'static str {
        match self {
            DepClass::SwsStealval => "sws-stealval",
            DepClass::SwsCompletion => "sws-completion",
            DepClass::SwsPayload => "sws-payload",
            DepClass::SdcLock => "sdc-lock",
            DepClass::SdcMeta => "sdc-meta",
            DepClass::SdcCompletion => "sdc-completion",
            DepClass::SdcPayload => "sdc-payload",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_distinct() {
        let mut names: Vec<&str> = AtomicSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AtomicSite::ALL.len(), "duplicate site names");
    }

    #[test]
    fn rows_sit_at_their_sites_index() {
        for (i, &s) in AtomicSite::ALL.iter().enumerate() {
            assert_eq!(s as usize, i);
            assert_eq!(s.name(), format!("{s:?}"));
            assert_eq!(AtomicSite::from_name(s.name()), Some(s));
            let row = s.row();
            assert!(s.name().starts_with(if row.protocol == Protocol::Sws { "Sws" } else { "Sdc" }));
            // A span phase exactly where a thief can be the issuer.
            assert_eq!(row.phase.is_empty(), row.owner_only, "{}", s.name());
        }
        assert_eq!(AtomicSite::from_name("SwsNoSuchSite"), None);
    }

    #[test]
    fn ids_round_trip() {
        for (i, &s) in AtomicSite::ALL.iter().enumerate() {
            assert_eq!(s.id() as usize, i);
            assert_eq!(AtomicSite::from_id(s.id()), Some(s));
        }
        assert_eq!(AtomicSite::from_id(AtomicSite::ALL.len() as u16), None);
        assert_eq!(AtomicSite::from_id(u16::MAX), None);
    }

    #[test]
    fn dep_classes_stay_within_their_protocol() {
        for &s in AtomicSite::ALL.iter() {
            let class = s.dep_class().name();
            assert!(
                class.starts_with(&s.protocol().label().to_ascii_lowercase()),
                "{} is classed {class} but belongs to {}",
                s.name(),
                s.protocol().label()
            );
        }
    }

    #[test]
    fn lattice_satisfies_matches_acquire_release_semantics() {
        use MemOrder::*;
        for &a in &[Relaxed, Acquire, Release, AcqRel] {
            for &b in &[Relaxed, Acquire, Release, AcqRel] {
                // a satisfies b iff a carries every half b carries.
                let expect = (!b.acquires() || a.acquires()) && (!b.releases() || a.releases());
                assert_eq!(a.satisfies(b), expect, "{a:?} satisfies {b:?}");
            }
        }
        // The two halves are incomparable.
        assert!(!Acquire.satisfies(Release) && !Release.satisfies(Acquire));
    }

    #[test]
    fn weakening_edges_round_trip_strictly_down_the_lattice() {
        use MemOrder::*;
        for &m in &[Relaxed, Acquire, Release, AcqRel] {
            for &w in m.weakenings() {
                assert_ne!(m, w);
                assert!(m.satisfies(w), "{m:?} must dominate its weakening {w:?}");
                assert!(!w.satisfies(m), "{w:?} must be strictly weaker than {m:?}");
            }
        }
        assert!(Relaxed.weakenings().is_empty());
        assert_eq!(AcqRel.weakenings().len(), 2);
    }

    #[test]
    fn weakening_labels_round_trip() {
        use MemOrder::*;
        for w in [
            Weakening::Order(Relaxed),
            Weakening::Order(Acquire),
            Weakening::Order(Release),
            Weakening::CasFailure,
        ] {
            assert_eq!(Weakening::from_label(&w.label()), Some(w));
        }
        assert_eq!(Weakening::from_label("to-seq"), None);
    }

    #[test]
    fn site_weakenings_cover_every_lattice_edge_below_production() {
        for &s in AtomicSite::ALL.iter() {
            let ws = s.weakenings();
            let orders = ws
                .iter()
                .filter(|w| matches!(w, Weakening::Order(_)))
                .count();
            assert_eq!(orders, s.production().weakenings().len(), "{}", s.name());
            assert_eq!(
                ws.contains(&Weakening::CasFailure),
                s.has_cas_failure_ordering(),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn rmw_sites_are_acqrel() {
        for s in [
            AtomicSite::SwsThiefClaim,
            AtomicSite::SwsOwnerAcquireSwap,
            AtomicSite::SdcLockCas,
        ] {
            assert_eq!(s.production(), MemOrder::AcqRel);
            assert!(s.production().acquires() && s.production().releases());
        }
    }
}
