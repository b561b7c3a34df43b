//! Trace-conformance (refinement) checking: replay captured production
//! op traces through abstract protocol machines.
//!
//! The bounded model checker ([`crate::machine`]) explores
//! *abstract* steal-protocol state machines; the production queues in
//! `sws-core` are separate hand-written code. This module closes the gap
//! between them with a refinement check:
//!
//! 1. a production run executes with `RunConfig::with_capture_proto()`,
//!    so every site-annotated one-sided op is recorded as a
//!    [`ProtoEvent`] at its serialization point;
//! 2. the world's one log, in the order the effects applied (see
//!    `sws_shmem::proto`), is replayed here through a word-exact model
//!    of the victim state the protocol maintains — the SWS stealval word
//!    and completion arrays, or the SDC lock/tail/split metadata and
//!    completion ring;
//! 3. every event must be a transition the protocol allows *from the
//!    model state*: the captured pre-op value must equal the model's
//!    (word exactness), the op shape must be legal for the site (a
//!    [`AtomicSite::SwsThiefProbe`] may only `fetch`, never `fetch_add`
//!    — the §4.3 damping contract), and the operands must match what the
//!    protocol computes (claim volumes, block geometry, tail advances).
//!
//! The first illegal transition is reported as a [`Divergence`]; the
//! [`shrink`] helper then ddmin-reduces the trace to a minimal event
//! subset that still produces the *same kind* of divergence, which is
//! what makes divergence reports readable.
//!
//! Address learning: symmetric-heap layout is not part of the trace, so
//! a pre-scan recovers each victim's control-block base from an anchor
//! event — the construction [`AtomicSite::SwsOwnerAdvertise`] `set` for
//! SWS, any control-word op for SDC (its constructor issues no captured
//! op) — and [`Protocol::geometry`] places the completion words and the
//! task buffer after it exactly as the queue constructors do. Events
//! targeting a victim whose anchor is missing (possible only in shrunken
//! sub-traces) diverge with kind `no-anchor`, which the same-kind ddmin
//! predicate rejects — the shrinker never discards the anchor.
//!
//! What a site admits, who may issue it and which word it touches come
//! from the site catalog ([`sws_core::SiteRow`]); what an op's operands
//! mean comes from [`sws_core::protocol::decode`], and which completion
//! word a claim reports into from the claim's [`Block`]. This module owns
//! only the model state and the rules that relate a step to it.

use std::collections::{BTreeMap, BTreeSet};

use sws_core::protocol::{decode, sdc_claim, sws_comp, Block, Claim as Claimed, Completion};
use sws_core::protocol::{Geometry, Step, Word};
use sws_core::stealval::Layout;
use sws_core::{AtomicSite, QueueConfig};
use sws_shmem::{FaultPlan, OpClass, ProtoEvent, ProtoLog, ProtoOp, TargetSel};

/// Which protocol's abstract machine a trace is replayed against.
pub use sws_core::Protocol as Proto;

/// One replay: a captured trace plus the queue shape that produced it.
#[derive(Copy, Clone)]
pub struct ReplayInput<'a> {
    /// Protocol the trace came from.
    pub proto: Proto,
    /// Queue configuration of the run (layout, policy, capacity,
    /// task_words — everything the replay arithmetic depends on).
    pub queue: QueueConfig,
    /// The run's capture, in the order its effects applied.
    pub events: &'a ProtoLog,
}

impl<'a> ReplayInput<'a> {
    /// A replay of `events` under `queue`.
    pub fn new(proto: Proto, queue: QueueConfig, events: &'a ProtoLog) -> ReplayInput<'a> {
        ReplayInput {
            proto,
            queue,
            events,
        }
    }
}

/// Every stable divergence kind [`replay`] can report, in the order an
/// event is checked (the end-of-trace `unresolved-claim` last).
pub const KINDS: [&str; 25] = [
    "time-regression",
    "unknown-site",
    "site-op-mismatch",
    "remote-owner-op",
    "no-anchor",
    "stray-offset",
    "word-mismatch",
    "advertise-arg",
    "advertise-dirty-slot",
    "swap-not-closed",
    "claim-arg",
    "asteals-overflow",
    "claim-collision",
    "zero-arg",
    "zero-live-claim",
    "payload-without-claim",
    "payload-geometry",
    "completion-without-claim",
    "completion-volume",
    "unlock-not-holder",
    "tail-put-without-lock",
    "tail-monotonic",
    "tail-volume",
    "split-shrink-without-lock",
    "unresolved-claim",
];

/// A production transition the abstract machine does not allow.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Stable divergence class (one of [`KINDS`]) — the ddmin predicate key.
    pub kind: &'static str,
    /// Index of the offending event in the replayed trace (or
    /// `events.len()` for end-of-trace quiescence violations).
    pub index: usize,
    /// The offending event, rendered.
    pub event: String,
    /// What the model expected instead.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] event {}: {}\n  expected: {}",
            self.kind, self.index, self.event, self.detail
        )
    }
}

/// What a successful replay covered.
#[derive(Clone, Debug, Default)]
pub struct ReplayStats {
    /// Events replayed.
    pub events: usize,
    /// Distinct victim queues observed.
    pub victims: usize,
    /// Steal claims opened (SWS fetch-adds that claimed a block; SDC
    /// tail advances).
    pub claims: u64,
    /// Distinct `AtomicSite` ids that appeared.
    pub sites: BTreeSet<u16>,
}

/// A block claim in flight against one victim.
#[derive(Clone, Debug)]
struct Claim {
    issuer: u32,
    block: Block,
    resolved: bool,
}

/// Word-exact model of one victim queue: its control words (the SWS
/// stealval; the SDC lock, tail and split) and completion words. Buffer
/// *contents* are not modeled (payload words carry task bodies); payload
/// reads are checked for geometry only.
struct Victim {
    geo: Geometry,
    ctl: [u64; 3],
    comp: BTreeMap<u64, u64>,
    /// SDC: who holds the queue lock.
    holder: Option<u32>,
    /// Claims by the offset of their completion word.
    claims: BTreeMap<u64, Claim>,
    /// issuer → comp offset of the claim whose payload read is pending.
    pending_copy: BTreeMap<u32, u64>,
}

impl Victim {
    /// The model's value of the word at `off` (inside `word`'s range).
    fn word(&self, word: Word, off: u64) -> u64 {
        match word {
            Word::Ctl(_) => {
                let k = (off - self.geo.base[0]) as usize;
                self.ctl.get(k).copied().unwrap_or(0)
            }
            Word::Comp => self.comp.get(&off).copied().unwrap_or(0),
            Word::Payload => 0,
        }
    }

    fn live_claim(&self, comp_off: u64) -> bool {
        self.claims.get(&comp_off).is_some_and(|c| !c.resolved)
    }
}

/// One event under replay: builds this event's divergences.
struct At<'a> {
    index: usize,
    e: &'a ProtoEvent,
}

impl At<'_> {
    fn div(&self, kind: &'static str, detail: impl Into<String>) -> Divergence {
        Divergence {
            kind,
            index: self.index,
            event: self.e.to_string(),
            detail: detail.into(),
        }
    }
}

/// Replay `input.events` through the abstract machine, returning the
/// first divergence or coverage stats for a conforming trace.
pub fn replay(input: &ReplayInput) -> Result<ReplayStats, Divergence> {
    let cfg = &input.queue;
    // Per-PE state lives in dense vectors indexed by rank.
    let pes = input.events.width();
    // Pre-scan: learn each victim's control-block base from anchor events.
    let mut victims: Vec<Option<Victim>> = std::iter::repeat_with(|| None).take(pes).collect();
    for e in input.events {
        let Some(site) = AtomicSite::from_id(e.site).filter(|s| s.protocol() == input.proto) else {
            continue;
        };
        let anchors = input.proto == Proto::Sdc || site == AtomicSite::SwsOwnerAdvertise;
        if let (Word::Ctl(k), true) = (site.row().word, anchors) {
            if let Some(ctl) = (e.offset as u64).checked_sub(k as u64) {
                victims[e.target as usize].get_or_insert_with(|| Victim {
                    geo: input.proto.geometry(cfg, ctl),
                    ctl: [0; 3],
                    comp: BTreeMap::new(),
                    holder: None,
                    claims: BTreeMap::new(),
                    pending_copy: BTreeMap::new(),
                });
            }
        }
    }

    let mut stats = ReplayStats {
        events: input.events.len(),
        victims: victims.iter().flatten().count(),
        ..ReplayStats::default()
    };
    let mut last_t: Vec<Option<u64>> = vec![None; pes];
    // Sites seen, one bit per catalog id; folded into `stats.sites` at the
    // end.
    const _: () = assert!(AtomicSite::ALL.len() <= 64);
    let mut sites = 0u64;

    for (index, e) in input.events.iter().enumerate() {
        let at = At { index, e: &e };
        // Per-issuer timestamps are strictly increasing by construction
        // (each gated op advances the issuer's clock after capture).
        if let Some(t) = last_t[e.issuer as usize].replace(e.t_ns) {
            if e.t_ns <= t {
                return Err(at.div("time-regression", format!("issuer clock > {t} ns")));
            }
        }
        let Some(site) = AtomicSite::from_id(e.site) else {
            return Err(at.div("unknown-site", "a cataloged AtomicSite id"));
        };
        let row = site.row();
        sites |= 1 << e.site;
        if row.protocol != input.proto || !row.ops.contains(&e.op) {
            return Err(at.div(
                "site-op-mismatch",
                format!(
                    "an op shape {} admits in a {:?} trace",
                    row.name, input.proto
                ),
            ));
        }
        if row.owner_only && e.issuer != e.target {
            return Err(at.div(
                "remote-owner-op",
                format!("{} issued by the owner (pe{})", row.name, e.target),
            ));
        }
        let Some(v) = victims[e.target as usize].as_mut() else {
            return Err(at.div("no-anchor", "an anchor op for this victim"));
        };
        step(v, cfg, site, &at, &e, &mut stats)?;
    }

    // Quiescence: the trace runs to retire, which drains every claim —
    // each must have been completed, poisoned, or reclaimed.
    for v in victims.iter().flatten() {
        if let Some((off, c)) = v.claims.iter().find(|(_, c)| !c.resolved) {
            return Err(Divergence {
                kind: "unresolved-claim",
                index: input.events.len(),
                event: "(end of trace)".into(),
                detail: format!(
                    "claim by pe{} at comp offset {off} (vol {}) resolved",
                    c.issuer, c.block.volume
                ),
            });
        }
    }
    stats.sites = (0..64).filter(|id| sites >> id & 1 == 1).collect();
    Ok(stats)
}

/// One transition: the touched words must lie where the site's row says,
/// the captured pre-op value must equal the model's (word exactness), the
/// operands must decode to a protocol step, and that step must be legal
/// from the model state — then it is applied. `seen` is the event as the
/// decoder sees it (the claim-decode mutation applied).
fn step(
    v: &mut Victim,
    cfg: &QueueConfig,
    site: AtomicSite,
    at: &At,
    seen: &ProtoEvent,
    stats: &mut ReplayStats,
) -> Result<(), Divergence> {
    let e = at.e;
    let (off, word) = (e.offset as u64, site.row().word);
    let (lo, len) = v.geo.range(word);
    if off < lo || off >= lo + len {
        return Err(at.div(
            "stray-offset",
            format!("{word:?} words [{lo}, {})", lo + len),
        ));
    }
    // Puts carry no captured pre-value and payload is not modeled; a get
    // of control words captures its first two.
    let captured = match (e.op, word) {
        (ProtoOp::Put, _) | (_, Word::Payload) => None,
        (ProtoOp::Get, _) if e.len != 2 => return Err(at.div("claim-arg", "a 2-word get")),
        (ProtoOp::Get, _) => Some((e.prev, e.arg2) == (v.word(word, off), v.word(word, off + 1))),
        _ => Some(e.prev == v.word(word, off)),
    };
    if captured == Some(false) {
        return Err(at.div(
            "word-mismatch",
            format!("word {off} = {:#x}", v.word(word, off)),
        ));
    }
    let decoded = decode(cfg, site, seen).map_err(|want| {
        let kind = match site {
            AtomicSite::SwsOwnerAdvertise => "advertise-arg",
            AtomicSite::SwsOwnerAcquireSwap => "swap-not-closed",
            AtomicSite::SwsOwnerSlotZero | AtomicSite::SdcReclaimZero | AtomicSite::SdcUnlock => {
                "zero-arg"
            }
            _ => "claim-arg",
        };
        at.div(kind, want)
    })?;

    let comp_base = v.geo.base[1];
    let k = (off - v.geo.base[0]) as usize; // which control word, for sites on one
    match decoded {
        Step::OwnerRead | Step::Probe | Step::Meta { .. } => {}
        Step::Advertise { epoch, steals } => {
            // Every slot the new advertisement can complete into must
            // have been zeroed (construction relies on the zeroed heap;
            // re-advertisement on SwsOwnerSlotZero).
            for c in (0..steals).map(|s| comp_base + sws_comp(cfg, epoch, s)) {
                let found = v.word(Word::Comp, c);
                if found != 0 {
                    let want = format!("comp[{c}] = 0, found {found:#x}");
                    return Err(at.div("advertise-dirty-slot", want));
                }
                // The slot set is being reused: earlier (resolved) claim
                // records for it are now stale.
                v.claims.remove(&c);
            }
            v.ctl[k] = e.arg;
        }
        Step::Close => v.ctl[k] = e.arg,
        Step::Claim(claim) => {
            v.ctl[k] = e.prev.wrapping_add(e.arg);
            match claim {
                Claimed::Overflow => {
                    let want = "an asteals counter below its 24-bit limit";
                    return Err(at.div("asteals-overflow", want));
                }
                // Closed gate or exhausted advertisement: counter bump only.
                Claimed::Closed | Claimed::Exhausted => {}
                Claimed::Live(block) => open_claim(v, at, comp_base + block.comp, block, 0, stats)?,
            }
        }
        Step::Lock { won } => {
            if won {
                v.ctl[k] = e.arg;
                v.holder = Some(e.issuer);
            }
        }
        Step::Unlock => {
            if v.holder != Some(e.issuer) {
                let want = format!("unlock by the holder ({:?})", v.holder);
                return Err(at.div("unlock-not-holder", want));
            }
            v.ctl[k] = e.arg;
            v.holder = None;
        }
        Step::Split => {
            // Growing the shared portion is lock-free (release); only
            // shrinking it (acquire/retire) requires the owner's lock.
            if e.arg < v.ctl[k] && v.holder != Some(e.issuer) {
                let want = "the owner holding its own lock";
                return Err(at.div("split-shrink-without-lock", want));
            }
            v.ctl[k] = e.arg;
        }
        Step::TailPut => {
            // Puts carry no captured pre-value; the checks here are
            // purely semantic against the model state.
            let (tail, split) = (v.ctl[k], v.ctl[k + 1]);
            if v.holder != Some(e.issuer) {
                let want = format!("the queue lock held by pe{}", e.issuer);
                return Err(at.div("tail-put-without-lock", want));
            }
            if e.arg <= tail {
                return Err(at.div("tail-monotonic", format!("a tail advance past {tail}")));
            }
            let Some(block) = sdc_claim(cfg, tail, split).filter(|b| e.arg == tail + b.volume)
            else {
                let want =
                    format!("tail + the block sdc_claim reads from tail {tail}, split {split}");
                return Err(at.div("tail-volume", want));
            };
            v.ctl[k] = e.arg;
            // In fault-injected runs a claim marker for exactly this
            // volume precedes the tail advance.
            let marker = Completion::Claimed(block.volume).word();
            open_claim(v, at, comp_base + block.comp, block, marker, stats)?;
        }
        Step::Payload => {
            let Some(c) = v.pending_copy.remove(&e.issuer) else {
                return Err(at.div("payload-without-claim", "a preceding claim"));
            };
            let (b, tw) = (v.claims[&c].block, cfg.task_words as u64);
            let (want_off, want_len) = (v.geo.base[2] + b.start_slot * tw, b.volume * tw);
            if off != want_off || e.len as u64 != want_len {
                return Err(at.div(
                    "payload-geometry",
                    format!(
                        "get@{want_off}+{want_len} (slot {}, vol {})",
                        b.start_slot, b.volume
                    ),
                ));
            }
        }
        Step::Zero => {
            if v.live_claim(off) {
                return Err(at.div("zero-live-claim", "no unresolved claim"));
            }
            v.claims.remove(&off);
            v.comp.insert(off, e.arg);
        }
        Step::Marker => {
            let found = v.word(word, off);
            if found != 0 {
                let want = format!("an empty slot for the marker, found {found:#x}");
                return Err(at.div("claim-collision", want));
            }
            v.comp.insert(off, e.arg);
        }
        // A compare-swap that lost its race has no effect.
        Step::LostRace
        | Step::Poisoned { won: false }
        | Step::Reclaim { won: false }
        | Step::Rollback { won: false } => {}
        Step::Rollback { won: true } => {
            if v.live_claim(off) {
                return Err(at.div("claim-collision", "no live claim under a rollback"));
            }
            v.comp.insert(off, e.arg);
        }
        // A reclaim to 0 frees the slot outright, claim or none.
        Step::Reclaim { won: true } if e.arg == 0 => {
            v.claims.remove(&off);
            v.comp.insert(off, e.arg);
        }
        Step::Landed { .. } | Step::Poisoned { won: true } | Step::Reclaim { won: true } => {
            let Some(c) = v.claims.get_mut(&off).filter(|c| !c.resolved) else {
                return Err(at.div("completion-without-claim", "a live, unresolved claim"));
            };
            // Completions come from the claimant (owner reclaims are
            // exempt); a poisoned one need not carry the volume.
            if !matches!(decoded, Step::Reclaim { .. }) && c.issuer != e.issuer {
                let want = format!("completion from the claimant pe{}", c.issuer);
                return Err(at.div("completion-without-claim", want));
            }
            if matches!(decoded, Step::Landed { tasks } if tasks != c.block.volume) {
                return Err(at.div("completion-volume", format!("vol {}", c.block.volume)));
            }
            c.resolved = true;
            v.comp.insert(off, e.arg);
        }
    }
    // An aborted steal's poison lands without a payload read ever
    // happening: whatever a thief does to its claim's completion word
    // ends the wait for its copy.
    if !site.row().owner_only && word == Word::Comp && v.pending_copy.get(&e.issuer) == Some(&off) {
        v.pending_copy.remove(&e.issuer);
    }
    Ok(())
}

/// Record a new claim of `block` by `at`'s issuer completing into
/// `comp_off`, whose word must hold 0 or `marker`.
fn open_claim(
    v: &mut Victim,
    at: &At,
    comp_off: u64,
    block: Block,
    marker: u64,
    stats: &mut ReplayStats,
) -> Result<(), Divergence> {
    if v.live_claim(comp_off) {
        return Err(at.div("claim-collision", format!("comp[{comp_off}] unclaimed")));
    }
    let found = v.word(Word::Comp, comp_off);
    if found != 0 && found != marker {
        let want = format!("comp[{comp_off}] = 0 or this claim's marker, found {found:#x}");
        return Err(at.div("claim-collision", want));
    }
    stats.claims += 1;
    let issuer = at.e.issuer;
    v.claims.insert(
        comp_off,
        Claim {
            issuer,
            block,
            resolved: false,
        },
    );
    v.pending_copy.insert(issuer, comp_off);
    Ok(())
}

use crate::shrink::ddmin;

/// Shrink a diverging trace to a minimal sub-trace that still produces
/// a divergence of the same `kind`. Returns the full trace unchanged if
/// it does not diverge with that kind.
pub fn shrink(input: &ReplayInput, kind: &str) -> Vec<ProtoEvent> {
    let fails = |evs: &[ProtoEvent]| {
        let sub = ReplayInput {
            events: &evs.iter().copied().collect(),
            ..*input
        };
        replay(&sub).err().is_some_and(|d| d.kind == kind)
    };
    let events: Vec<ProtoEvent> = input.events.iter().collect();
    if !fails(&events) {
        return events;
    }
    ddmin(&events, fails)
}

// ---------------------------------------------------------------------------
// The deterministic conformance matrix (production runs → replay).
// ---------------------------------------------------------------------------

use std::sync::Arc;

use sws_sched::{run_workload, QueueKind, RunConfig, SchedConfig};
use sws_shmem::OrderingCtl;
use sws_workloads::synth::FlatBag;

/// One deterministic production run to capture and replay.
#[derive(Clone, Debug)]
pub struct ConformCase {
    /// Case label for reports.
    pub name: String,
    /// Queue implementation under test.
    pub kind: QueueKind,
    /// Stealval layout (SWS only; ignored for SDC).
    pub layout: Layout,
    /// Inject transient drop faults?
    pub faults: bool,
    /// Steal damping (probe-before-claim; default on for SWS).
    pub damping: bool,
    /// RNG seed for the run.
    pub seed: u64,
}

/// The CI conformance matrix: both protocols × {clean, fault-injected},
/// plus the ValidBit layout and an SDC damping case. Every case is fully
/// deterministic.
pub fn matrix() -> Vec<ConformCase> {
    use QueueKind::{Sdc, Sws};
    // Seeds are spelled out, not counted, so adding or dropping a row
    // never changes what another row runs.
    let case = |name: &str, kind, layout, faults, damping, seed: u64| ConformCase {
        name: name.to_string(),
        kind,
        layout,
        faults,
        damping,
        seed: 0x5EED_C0DE + seed,
    };
    vec![
        case("sws-epochs", Sws, Layout::Epochs, false, true, 0),
        case("sws-epochs-faults", Sws, Layout::Epochs, true, true, 2),
        case("sws-validbit", Sws, Layout::ValidBit, false, true, 4),
        case("sws-validbit-faults", Sws, Layout::ValidBit, true, true, 5),
        case("sdc", Sdc, Layout::Epochs, false, false, 6),
        case("sdc-faults", Sdc, Layout::Epochs, true, false, 8),
        case("sdc-damped", Sdc, Layout::Epochs, false, true, 10),
    ]
}

/// Queue configuration the matrix runs use.
pub fn case_queue(case: &ConformCase) -> QueueConfig {
    QueueConfig::new(64, 24).with_layout(case.layout)
}

/// Execute one matrix case's production run with capture on and return
/// its op trace, with `ordering` attached when given (the self-test plants
/// a defect through it). Fully deterministic: calling this twice for the
/// same case and control yields the same events.
pub fn capture_case(case: &ConformCase, ordering: Option<Arc<OrderingCtl>>) -> ProtoLog {
    let queue = case_queue(case);
    // Short progress interval: the matrix workloads run ~40 tasks per
    // PE, so the default (64) would never reach the reclaim paths.
    let sched = SchedConfig::new(case.kind, queue)
        .with_seed(case.seed)
        .with_damping(case.damping)
        .with_progress_interval(8);
    let mut run = RunConfig::new(4, sched).with_capture_proto();
    if let Some(ctl) = ordering {
        run = run.with_ordering(ctl);
    }
    if case.faults {
        run = run.with_faults(FaultPlan::seeded(case.seed ^ 0xFA_017).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.03,
        ));
    }
    let workload = FlatBag::new(160, 2_000, 24);
    run_workload(&run, &workload).proto
}

/// Run one matrix case: execute the production run with capture on and
/// replay its trace.
pub fn run_case(case: &ConformCase) -> Result<ReplayStats, Divergence> {
    replay(&ReplayInput::new(
        case.kind,
        case_queue(case),
        &capture_case(case, None),
    ))
}

/// Sites the matrix must observe at least once: every load-bearing
/// ordering from `ORDERINGS.md` plus the §4.3 damped probe. (The two
/// `PayloadWrite` sites are owner-local ring stores — invisible to the
/// one-sided capture layer by design — and not load-bearing.)
pub const REQUIRED_SITES: [AtomicSite; 11] = [
    AtomicSite::SwsThiefClaim,
    AtomicSite::SwsOwnerAdvertise,
    AtomicSite::SwsThiefComplete,
    AtomicSite::SwsOwnerReclaimRead,
    AtomicSite::SwsThiefProbe,
    AtomicSite::SdcLockCas,
    AtomicSite::SdcUnlock,
    AtomicSite::SdcMetaRead,
    AtomicSite::SdcSplitPublish,
    AtomicSite::SdcComplete,
    AtomicSite::SdcReclaimRead,
];

/// Outcome of the full matrix.
pub struct ConformReport {
    /// Per-case outcomes, matrix order.
    pub cases: Vec<(String, Result<ReplayStats, Divergence>)>,
    /// Required sites that no case's trace exercised.
    pub missing_sites: Vec<&'static str>,
}

impl ConformReport {
    /// Did every case conform and every required site appear?
    pub fn ok(&self) -> bool {
        self.missing_sites.is_empty() && self.cases.iter().all(|(_, r)| r.is_ok())
    }

    /// Human-readable summary, one line per case.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, r) in &self.cases {
            match r {
                Ok(c) => out.push_str(&format!(
                    "  ok   {name}: {} events, {} victims, {} claims, {} sites\n",
                    c.events,
                    c.victims,
                    c.claims,
                    c.sites.len()
                )),
                Err(d) => out.push_str(&format!("  FAIL {name}: {d}\n")),
            }
        }
        if !self.missing_sites.is_empty() {
            out.push_str(&format!(
                "  FAIL coverage: required sites never captured: {}\n",
                self.missing_sites.join(", ")
            ));
        }
        out
    }
}

/// Run the whole conformance matrix and check required-site coverage.
pub fn conform_all() -> ConformReport {
    let mut seen: BTreeSet<u16> = BTreeSet::new();
    let cases = matrix()
        .iter()
        .map(|case| {
            let r = run_case(case);
            if let Ok(c) = &r {
                seen.extend(&c.sites);
            }
            (case.name.clone(), r)
        })
        .collect();
    let missing_sites = REQUIRED_SITES
        .iter()
        .filter(|s| !seen.contains(&s.id()))
        .map(|s| s.name())
        .collect();
    ConformReport {
        cases,
        missing_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::stealval::{Gate, ASTEALS_MASK, ASTEAL_UNIT};
    use sws_shmem::CACHE_LINE_WORDS;

    /// The constructors' placement rule, restated here so the hand-built
    /// traces check `Protocol::geometry` instead of echoing it: each
    /// block starts on the cache line after the previous one ends.
    fn next_block(base: u64, words: u64) -> u64 {
        let line = CACHE_LINE_WORDS as u64;
        (base + words).div_ceil(line) * line
    }

    /// A hand-built trace as the log a run hands the replay.
    fn log(evs: &[ProtoEvent]) -> ProtoLog {
        evs.iter().copied().collect()
    }

    #[allow(clippy::too_many_arguments)] // mirrors the ProtoEvent fields
    fn ev(
        t: u64,
        issuer: u32,
        target: u32,
        offset: u64,
        site: AtomicSite,
        op: ProtoOp,
        arg: u64,
        arg2: u64,
        prev: u64,
    ) -> ProtoEvent {
        ProtoEvent {
            t_ns: t,
            issuer,
            target,
            offset: offset as u32,
            len: 1,
            site: site.id(),
            attempt: 0,
            op,
            arg,
            arg2,
            prev,
        }
    }

    fn qc() -> QueueConfig {
        QueueConfig::new(64, 24)
    }

    /// A tiny hand-built SWS trace: construct, advertise 2 tasks, one
    /// thief claims, copies, completes.
    fn sws_trace() -> Vec<ProtoEvent> {
        let cfg = qc();
        let layout = cfg.layout;
        let spe = cfg.policy.slot_budget() as u64;
        let sv = 10u64;
        let comp = next_block(sv, 1);
        let buf = next_block(comp, cfg.layout.n_epochs() as u64 * spe);
        let empty = layout.encode(sws_core_stealval(0, 0, 0));
        let advert = layout.encode(sws_core_stealval(0, 2, 5));
        let claimed = advert.wrapping_add(ASTEAL_UNIT);
        vec![
            ev(
                1,
                0,
                0,
                sv,
                AtomicSite::SwsOwnerAdvertise,
                ProtoOp::Set,
                empty,
                0,
                0,
            ),
            // zero the two slots steal-half uses for itasks = 2
            ev(
                2,
                0,
                0,
                comp,
                AtomicSite::SwsOwnerSlotZero,
                ProtoOp::Set,
                0,
                0,
                0,
            ),
            ev(
                3,
                0,
                0,
                comp + 1,
                AtomicSite::SwsOwnerSlotZero,
                ProtoOp::Set,
                0,
                0,
                0,
            ),
            ev(
                4,
                0,
                0,
                sv,
                AtomicSite::SwsOwnerAdvertise,
                ProtoOp::Set,
                advert,
                0,
                empty,
            ),
            ev(
                5,
                1,
                0,
                sv,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                advert,
            ),
            {
                // payload read: slot 5, vol 1 → 3 words at buf + 5*3
                let mut e = ev(
                    6,
                    1,
                    0,
                    buf + 5 * 3,
                    AtomicSite::SwsThiefPayloadRead,
                    ProtoOp::Get,
                    0,
                    0,
                    0,
                );
                e.len = 3;
                e
            },
            ev(
                7,
                1,
                0,
                comp,
                AtomicSite::SwsThiefComplete,
                ProtoOp::SetNbi,
                1,
                0,
                0,
            ),
            // second thief: asteals = 1, claimed_before = 1 → slot 6, vol 1
            ev(
                8,
                2,
                0,
                sv,
                AtomicSite::SwsThiefClaim,
                ProtoOp::FetchAdd,
                ASTEAL_UNIT,
                0,
                claimed,
            ),
            {
                let mut e = ev(
                    9,
                    2,
                    0,
                    buf + 6 * 3,
                    AtomicSite::SwsThiefPayloadRead,
                    ProtoOp::Get,
                    0,
                    0,
                    0,
                );
                e.len = 3;
                e
            },
            ev(
                10,
                2,
                0,
                comp + 1,
                AtomicSite::SwsThiefComplete,
                ProtoOp::SetNbi,
                1,
                0,
                0,
            ),
        ]
    }

    fn sws_core_stealval(asteals: u32, itasks: u32, tail: u32) -> sws_core::stealval::StealVal {
        sws_core::stealval::StealVal {
            asteals,
            gate: Gate::Open { epoch: 0 },
            itasks,
            tail,
        }
    }

    #[test]
    fn hand_built_sws_trace_conforms() {
        let evs = log(&sws_trace());
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let stats = replay(&input).expect("trace conforms");
        assert_eq!(stats.victims, 1);
        assert_eq!(stats.claims, 2);
        assert!(stats.sites.contains(&AtomicSite::SwsThiefClaim.id()));
    }

    #[test]
    fn probe_must_not_fetch_add() {
        let mut evs = sws_trace();
        // Turn the second claim into a "probe" that still fetch-adds —
        // the damping contract violation.
        evs[7].site = AtomicSite::SwsThiefProbe.id();
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "site-op-mismatch");
        assert_eq!(d.index, 7);
    }

    #[test]
    fn stale_prev_is_a_word_mismatch() {
        let mut evs = sws_trace();
        evs[4].prev ^= 1; // claim observed a value the model never held
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "word-mismatch");
        assert_eq!(d.index, 4);
    }

    #[test]
    fn wrong_payload_geometry_diverges_and_shrinks() {
        let mut evs = sws_trace();
        evs[5].offset += 3; // copy started one slot late
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "payload-geometry");
        let small = shrink(&input, "payload-geometry");
        assert!(small.len() < evs.len());
        let small = log(&small);
        let sub = ReplayInput::new(Proto::Sws, qc(), &small);
        assert_eq!(replay(&sub).unwrap_err().kind, "payload-geometry");
    }

    #[test]
    fn dropped_completion_leaves_unresolved_claim() {
        let mut evs = sws_trace();
        evs.remove(6); // the completion set_nbi
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "unresolved-claim");
    }

    /// A tiny hand-built SDC trace: lock, meta read, tail put, unlock,
    /// payload, completion, owner reclaim.
    fn sdc_trace() -> Vec<ProtoEvent> {
        let meta = 20u64;
        let (lock, tail, split) = (meta, meta + 1, meta + 2);
        let comp = next_block(meta, 3);
        let buf = next_block(comp, 64);
        vec![
            ev(
                1,
                0,
                0,
                split,
                AtomicSite::SdcSplitPublish,
                ProtoOp::Set,
                2,
                0,
                0,
            ),
            ev(
                2,
                1,
                0,
                lock,
                AtomicSite::SdcLockCas,
                ProtoOp::CompareSwap,
                1,
                0,
                0,
            ),
            {
                let mut e = ev(
                    3,
                    1,
                    0,
                    tail,
                    AtomicSite::SdcMetaRead,
                    ProtoOp::Get,
                    0,
                    2,
                    0,
                );
                e.len = 2;
                e
            },
            ev(4, 1, 0, tail, AtomicSite::SdcTailPut, ProtoOp::Put, 1, 0, 0),
            ev(5, 1, 0, lock, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            {
                let mut e = ev(
                    6,
                    1,
                    0,
                    buf,
                    AtomicSite::SdcPayloadRead,
                    ProtoOp::Get,
                    0,
                    0,
                    0,
                );
                e.len = 3;
                e
            },
            ev(
                7,
                1,
                0,
                comp,
                AtomicSite::SdcComplete,
                ProtoOp::SetNbi,
                1,
                0,
                0,
            ),
            ev(
                8,
                0,
                0,
                comp,
                AtomicSite::SdcReclaimRead,
                ProtoOp::Fetch,
                0,
                0,
                1,
            ),
            ev(
                9,
                0,
                0,
                comp,
                AtomicSite::SdcReclaimZero,
                ProtoOp::Set,
                0,
                0,
                1,
            ),
        ]
    }

    #[test]
    fn hand_built_sdc_trace_conforms() {
        let evs = log(&sdc_trace());
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        let stats = replay(&input).expect("trace conforms");
        assert_eq!(stats.victims, 1);
        assert_eq!(stats.claims, 1);
    }

    #[test]
    fn tail_put_requires_the_lock() {
        let mut evs = sdc_trace();
        evs.remove(1); // drop the lock acquisition
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        let d = replay(&input).unwrap_err();
        // The meta read's captured values still match; the put is the
        // first illegal step.
        assert_eq!(d.kind, "tail-put-without-lock");
    }

    #[test]
    fn tail_must_advance_by_the_policy_volume() {
        let mut evs = sdc_trace();
        evs[3].arg = 2; // steal both tasks; steal-half of 2 takes 1
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "tail-volume");
    }

    #[test]
    fn unlock_by_stranger_diverges() {
        let mut evs = sdc_trace();
        evs[4].issuer = 2;
        evs[4].t_ns = 5;
        let evs = log(&evs);
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "unlock-not-holder");
    }

    /// One minimal hand-built trace per divergence kind: each case edits
    /// [`sws_trace`] or [`sdc_trace`] just enough to break one rule, and
    /// the replay must name exactly that rule. This pins the precedence
    /// of the per-event checks (`no-anchor` before `stray-offset` before
    /// `word-mismatch` before the operand rules).
    #[test]
    fn every_divergence_kind_is_reachable() {
        use AtomicSite::*;
        use ProtoOp::*;
        const SV: u64 = 10; // sws_trace's stealval offset
        /// An owner op on the stealval after both claims of `sws_trace`.
        fn owner_sv(site: AtomicSite, op: ProtoOp, arg: u64) -> ProtoEvent {
            let sv_end = sws_trace()[7].prev.wrapping_add(ASTEAL_UNIT);
            ev(11, 0, 0, SV, site, op, arg, 0, sv_end)
        }
        type Edit = fn(&mut Vec<ProtoEvent>);
        let cases: [(&str, Proto, Edit); 25] = [
            ("time-regression", Proto::Sws, |t| t[5].t_ns = 5),
            ("unknown-site", Proto::Sws, |t| t[4].site = 999),
            ("site-op-mismatch", Proto::Sws, |t| {
                t[7].site = SwsThiefProbe.id()
            }),
            ("remote-owner-op", Proto::Sws, |t| t[3].issuer = 1),
            ("no-anchor", Proto::Sws, |t| t[4].target = 3),
            ("stray-offset", Proto::Sws, |t| t[4].offset += 1),
            ("word-mismatch", Proto::Sws, |t| t[4].prev ^= 1),
            ("advertise-arg", Proto::Sws, |t| t[3].arg += ASTEAL_UNIT),
            // Re-advertising over the completed (nonzero) slots.
            ("advertise-dirty-slot", Proto::Sws, |t| {
                let advert = t[3].arg;
                t.push(owner_sv(SwsOwnerAdvertise, Set, advert));
            }),
            ("swap-not-closed", Proto::Sws, |t| {
                let advert = t[3].arg;
                t.push(owner_sv(SwsOwnerAcquireSwap, Swap, advert));
            }),
            ("claim-arg", Proto::Sws, |t| t[4].arg = 2),
            // A closed gate whose counter is one claim from carrying out.
            ("asteals-overflow", Proto::Sws, |t| {
                let full = qc().layout.encode(sws_core::stealval::StealVal {
                    asteals: ASTEALS_MASK as u32,
                    gate: Gate::Closed,
                    itasks: 0,
                    tail: 0,
                });
                t.push(owner_sv(SwsOwnerAcquireSwap, Swap, full));
                t.push(ev(
                    12,
                    1,
                    0,
                    SV,
                    SwsThiefClaim,
                    FetchAdd,
                    ASTEAL_UNIT,
                    0,
                    full,
                ));
            }),
            // A claim marker stored over an unreclaimed completion.
            ("claim-collision", Proto::Sdc, |t| {
                t.truncate(7);
                let comp = t[6].offset as u64;
                t.push(ev(
                    8,
                    1,
                    0,
                    comp,
                    SdcComplete,
                    Set,
                    Completion::Claimed(1).word(),
                    0,
                    1,
                ));
            }),
            ("zero-arg", Proto::Sws, |t| t[1].arg = 1),
            ("zero-live-claim", Proto::Sws, |t| {
                let comp = t[1].offset as u64;
                t.insert(5, ev(5, 0, 0, comp, SwsOwnerSlotZero, Set, 0, 0, 0));
            }),
            ("payload-without-claim", Proto::Sws, |t| {
                t.remove(4);
            }),
            ("payload-geometry", Proto::Sws, |t| t[5].offset += 3),
            ("completion-without-claim", Proto::Sws, |t| t[6].offset += 1),
            ("completion-volume", Proto::Sws, |t| t[6].arg = 2),
            ("unlock-not-holder", Proto::Sdc, |t| {
                (t[4].issuer, t[4].t_ns) = (2, 5)
            }),
            ("tail-put-without-lock", Proto::Sdc, |t| {
                t.remove(1);
            }),
            ("tail-monotonic", Proto::Sdc, |t| t[3].arg = 0),
            ("tail-volume", Proto::Sdc, |t| t[3].arg = 2),
            ("split-shrink-without-lock", Proto::Sdc, |t| {
                let mut shrink = t[0];
                (shrink.t_ns, shrink.arg, shrink.prev) = (10, 1, 2);
                t.push(shrink);
            }),
            ("unresolved-claim", Proto::Sws, |t| {
                t.remove(6);
            }),
        ];
        assert_eq!(
            cases.map(|c| c.0),
            KINDS,
            "one case per kind, in KINDS order"
        );
        for (kind, proto, edit) in cases {
            let mut evs = match proto {
                Proto::Sws => sws_trace(),
                Proto::Sdc => sdc_trace(),
            };
            edit(&mut evs);
            let got = replay(&ReplayInput::new(proto, qc(), &log(&evs))).map(|s| s.events);
            assert_eq!(got.map_err(|d| d.kind), Err(kind));
        }
    }

    #[test]
    fn matrix_is_deterministic_and_big_enough() {
        let m = matrix();
        assert!(m.len() >= 7, "CI matrix needs ≥ 7 cases, has {}", m.len());
        let names: BTreeSet<&str> = m.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), m.len(), "duplicate case names");
        assert!(m.iter().any(|c| c.faults));
        assert!(m.iter().any(|c| c.layout == Layout::ValidBit));
        assert!(m.iter().any(|c| c.kind == QueueKind::Sdc && c.damping));
    }

    #[test]
    fn ddmin_shrinks_to_the_failing_pair() {
        let input: Vec<u32> = (0..64).collect();
        let fails = |xs: &[u32]| xs.contains(&7) && xs.contains(&42);
        let out = ddmin(&input, fails);
        assert_eq!(out, vec![7, 42]);
    }
}
