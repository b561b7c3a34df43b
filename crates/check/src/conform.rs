//! Trace-conformance (refinement) checking: replay captured production
//! op traces through abstract protocol machines.
//!
//! The bounded model checker in [`crate::sws`]/[`crate::sdc`] explores
//! *abstract* steal-protocol state machines; the production queues in
//! `sws-core` are separate hand-written code. This module closes the gap
//! between them with a refinement check:
//!
//! 1. a production run executes with `RunConfig::with_capture_proto()`,
//!    so every site-annotated one-sided op is recorded as a
//!    [`ProtoEvent`] at its serialization point;
//! 2. the merged global trace (see `sws_shmem::proto::merge_events`) is
//!    replayed here through a word-exact model of the victim state the
//!    protocol maintains — the SWS stealval word and completion arrays,
//!    or the SDC lock/tail/split metadata and completion ring;
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
//! a pre-scan recovers each victim's base offsets from unambiguous
//! anchor events — the construction [`AtomicSite::SwsOwnerAdvertise`]
//! `set` (SWS: `sv` at its offset, completion slots and buffer follow
//! per `SwsQueue::new`'s three collective allocations) and any metadata
//! op (SDC: lock/tail/split at `meta..meta+3`, then the completion
//! ring, then the buffer); each following block starts at the next
//! cache-line boundary, as `alloc_words_aligned` places it. Events
//! targeting a victim whose
//! anchor is missing (possible only in shrunken sub-traces) diverge with
//! kind `no-anchor`, which the same-kind ddmin predicate rejects — the
//! shrinker never discards the anchor.

use std::collections::{BTreeMap, BTreeSet};

use sws_core::queue::{COMP_CLAIMED, COMP_POISON, COMP_RECLAIMED, COMP_VOL_MASK};
use sws_core::ring::Ring;
use sws_core::stealval::{Gate, Layout, ASTEALS_MASK, ASTEALS_SHIFT, ASTEAL_UNIT};
use sws_core::{AtomicSite, QueueConfig};
use sws_shmem::{
    FaultPlan, OpClass, ProtoEvent, ProtoOp, TargetSel, CACHE_LINE_WORDS,
};

/// Which protocol's abstract machine a trace is replayed against.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Proto {
    /// The structured-atomic (stealval) protocol.
    Sws,
    /// The Scioto split-queue baseline.
    Sdc,
}

/// One replay: a captured trace plus the queue shape that produced it.
#[derive(Copy, Clone)]
pub struct ReplayInput<'a> {
    /// Protocol the trace came from.
    pub proto: Proto,
    /// Queue configuration of the run (layout, policy, capacity,
    /// task_words — everything the replay arithmetic depends on).
    pub queue: QueueConfig,
    /// The merged, globally ordered event stream.
    pub events: &'a [ProtoEvent],
    /// Mutation hook for self-tests: applied to the *model's* copy of
    /// the stealval word before the claim-side decode (and nowhere
    /// else), so a deliberately broken decode diverges from production.
    pub mutate_claim_decode: Option<fn(u64) -> u64>,
}

impl<'a> ReplayInput<'a> {
    /// A plain replay of `events` under `queue`.
    pub fn new(proto: Proto, queue: QueueConfig, events: &'a [ProtoEvent]) -> ReplayInput<'a> {
        ReplayInput {
            proto,
            queue,
            events,
            mutate_claim_decode: None,
        }
    }
}

/// Base offset of the collective allocation that follows a `words`-word
/// block at `base`: the queue constructors place their control blocks
/// with consecutive `alloc_words_aligned` calls, so each starts at the
/// next cache-line boundary.
fn next_block(base: u64, words: u64) -> u64 {
    let line = CACHE_LINE_WORDS as u64;
    (base + words).div_ceil(line) * line
}

/// A production transition the abstract machine does not allow.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Stable divergence class (`word-mismatch`, `site-op-mismatch`,
    /// `payload-geometry`, ...) — the ddmin predicate key.
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
    vol: u64,
    start_slot: u64,
    resolved: bool,
}

/// Word-exact model of one SWS victim: the stealval word plus the
/// completion arrays. Buffer *contents* are not modeled (payload words
/// carry task bodies); payload reads are checked for geometry only.
struct SwsVictim {
    sv_off: u64,
    comp_base: u64,
    comp_words: u64,
    buf_base: u64,
    buf_words: u64,
    sv: u64,
    comp: BTreeMap<u64, u64>,
    claims: BTreeMap<u64, Claim>,
    /// issuer → comp offset of the claim whose payload read is pending.
    pending_copy: BTreeMap<u32, u64>,
}

impl SwsVictim {
    fn new(sv_off: u64, cfg: &QueueConfig) -> SwsVictim {
        let comp_words = (cfg.layout.n_epochs() * cfg.policy.slot_budget()) as u64;
        let comp_base = next_block(sv_off, 1);
        SwsVictim {
            sv_off,
            comp_base,
            comp_words,
            buf_base: next_block(comp_base, comp_words),
            buf_words: (cfg.capacity * cfg.task_words) as u64,
            sv: 0,
            comp: BTreeMap::new(),
            claims: BTreeMap::new(),
            pending_copy: BTreeMap::new(),
        }
    }

    fn comp_word(&self, off: u64) -> u64 {
        self.comp.get(&off).copied().unwrap_or(0)
    }
}

/// Word-exact model of one SDC victim: lock, tail, split, and the
/// completion ring.
struct SdcVictim {
    meta_off: u64,
    comp_base: u64,
    buf_base: u64,
    buf_words: u64,
    lock: u64,
    tail: u64,
    split: u64,
    holder: Option<u32>,
    comp: BTreeMap<u64, u64>,
    claims: BTreeMap<u64, Claim>,
    pending_copy: BTreeMap<u32, u64>,
}

impl SdcVictim {
    fn new(meta_off: u64, cfg: &QueueConfig) -> SdcVictim {
        let comp_base = next_block(meta_off, 3);
        SdcVictim {
            meta_off,
            comp_base,
            buf_base: next_block(comp_base, cfg.capacity as u64),
            buf_words: (cfg.capacity * cfg.task_words) as u64,
            lock: 0,
            tail: 0,
            split: 0,
            holder: None,
            comp: BTreeMap::new(),
            claims: BTreeMap::new(),
            pending_copy: BTreeMap::new(),
        }
    }

    fn comp_word(&self, off: u64) -> u64 {
        self.comp.get(&off).copied().unwrap_or(0)
    }
}

fn div(kind: &'static str, index: usize, e: &ProtoEvent, detail: String) -> Divergence {
    Divergence {
        kind,
        index,
        event: e.to_string(),
        detail,
    }
}

/// Is `op` a shape the protocol ever issues at `site`? This table *is*
/// the structural damping check: `SwsThiefProbe` admits only `fetch`, so
/// a probe that mutated the asteals counter (a claiming `fetch_add`)
/// diverges immediately.
fn site_admits(proto: Proto, site: AtomicSite, op: ProtoOp) -> bool {
    use AtomicSite::*;
    use ProtoOp::*;
    match (proto, site) {
        (Proto::Sws, SwsOwnerAdvertise | SwsOwnerSlotZero) => op == Set,
        (Proto::Sws, SwsOwnerAcquireSwap) => op == Swap,
        (Proto::Sws, SwsOwnerSvRead | SwsThiefProbe) => op == Fetch,
        (Proto::Sws, SwsThiefClaim) => op == FetchAdd,
        (Proto::Sws, SwsThiefComplete) => matches!(op, SetNbi | CompareSwap),
        (Proto::Sws, SwsOwnerReclaimRead) => matches!(op, Fetch | CompareSwap),
        (Proto::Sws, SwsThiefPayloadRead) => op == Get,
        (Proto::Sdc, SdcLockCas) => op == CompareSwap,
        (Proto::Sdc, SdcUnlock) => op == Set,
        (Proto::Sdc, SdcMetaRead) => op == Get,
        (Proto::Sdc, SdcOwnerTailRead) => op == Fetch,
        (Proto::Sdc, SdcTailPut) => op == Put,
        (Proto::Sdc, SdcSplitPublish) => op == Set,
        (Proto::Sdc, SdcComplete) => matches!(op, SetNbi | Set | CompareSwap),
        (Proto::Sdc, SdcReclaimRead) => matches!(op, Fetch | CompareSwap),
        (Proto::Sdc, SdcReclaimZero) => op == Set,
        (Proto::Sdc, SdcPayloadRead) => op == Get,
        _ => false,
    }
}

/// Sites only the queue's owner issues (against its own PE).
fn owner_only(site: AtomicSite) -> bool {
    use AtomicSite::*;
    matches!(
        site,
        SwsOwnerAdvertise
            | SwsOwnerAcquireSwap
            | SwsOwnerSvRead
            | SwsOwnerSlotZero
            | SwsOwnerReclaimRead
            | SdcOwnerTailRead
            | SdcReclaimRead
            | SdcReclaimZero
            | SdcSplitPublish
    )
}

/// Replay `input.events` through the abstract machine, returning the
/// first divergence or coverage stats for a conforming trace.
pub fn replay(input: &ReplayInput) -> Result<ReplayStats, Divergence> {
    let cfg = &input.queue;
    let ring = Ring::new(cfg.capacity);
    let spe = cfg.policy.slot_budget() as u64;
    let tw = cfg.task_words as u64;

    // Pre-scan: learn each victim's base offsets from anchor events.
    let mut sws: BTreeMap<u32, SwsVictim> = BTreeMap::new();
    let mut sdc: BTreeMap<u32, SdcVictim> = BTreeMap::new();
    for e in input.events {
        match input.proto {
            Proto::Sws => {
                if e.site == AtomicSite::SwsOwnerAdvertise.id() {
                    sws.entry(e.target)
                        .or_insert_with(|| SwsVictim::new(e.offset as u64, cfg));
                }
            }
            Proto::Sdc => {
                let meta = match AtomicSite::from_id(e.site) {
                    Some(AtomicSite::SdcLockCas | AtomicSite::SdcUnlock) => Some(e.offset as u64),
                    Some(
                        AtomicSite::SdcMetaRead
                        | AtomicSite::SdcOwnerTailRead
                        | AtomicSite::SdcTailPut,
                    ) => (e.offset as u64).checked_sub(1),
                    Some(AtomicSite::SdcSplitPublish) => (e.offset as u64).checked_sub(2),
                    _ => None,
                };
                if let Some(m) = meta {
                    sdc.entry(e.target).or_insert_with(|| SdcVictim::new(m, cfg));
                }
            }
        }
    }

    let mut stats = ReplayStats {
        events: input.events.len(),
        ..ReplayStats::default()
    };
    let mut last_t: BTreeMap<u32, u64> = BTreeMap::new();

    for (i, e) in input.events.iter().enumerate() {
        // Per-issuer timestamps are strictly increasing by construction
        // (each gated op advances the issuer's clock after capture).
        if let Some(&t) = last_t.get(&e.issuer) {
            if e.t_ns <= t {
                return Err(div(
                    "time-regression",
                    i,
                    e,
                    format!("issuer clock > {t} ns"),
                ));
            }
        }
        last_t.insert(e.issuer, e.t_ns);

        let Some(site) = AtomicSite::from_id(e.site) else {
            return Err(div("unknown-site", i, e, "a cataloged AtomicSite id".into()));
        };
        stats.sites.insert(e.site);
        if !site_admits(input.proto, site, e.op) {
            return Err(div(
                "site-op-mismatch",
                i,
                e,
                format!(
                    "an op shape {} admits in a {:?} trace",
                    site.name(),
                    input.proto
                ),
            ));
        }
        if owner_only(site) && e.issuer != e.target {
            return Err(div(
                "remote-owner-op",
                i,
                e,
                format!("{} issued by the owner (pe{})", site.name(), e.target),
            ));
        }

        match input.proto {
            Proto::Sws => {
                let Some(v) = sws.get_mut(&e.target) else {
                    return Err(div("no-anchor", i, e, "an advertise anchor for this victim".into()));
                };
                sws_step(v, site, i, e, cfg, ring, spe, tw, input.mutate_claim_decode, &mut stats)?;
            }
            Proto::Sdc => {
                let Some(v) = sdc.get_mut(&e.target) else {
                    return Err(div("no-anchor", i, e, "a metadata anchor for this victim".into()));
                };
                sdc_step(v, site, i, e, cfg, ring, tw, &mut stats)?;
            }
        }
    }

    // Quiescence: the trace runs to retire, which drains every claim —
    // each must have been completed, poisoned, or reclaimed.
    let end = input.events.len();
    let unresolved = |issuer: u32, off: u64, vol: u64| Divergence {
        kind: "unresolved-claim",
        index: end,
        event: "(end of trace)".into(),
        detail: format!("claim by pe{issuer} at comp offset {off} (vol {vol}) resolved"),
    };
    for v in sws.values() {
        stats.victims += 1;
        for (&off, c) in &v.claims {
            if !c.resolved {
                return Err(unresolved(c.issuer, off, c.vol));
            }
        }
    }
    for v in sdc.values() {
        stats.victims += 1;
        for (&off, c) in &v.claims {
            if !c.resolved {
                return Err(unresolved(c.issuer, off, c.vol));
            }
        }
    }
    Ok(stats)
}

/// One SWS transition. Dispatch is by site; each arm checks the offset
/// class, word exactness of the captured pre-op value against the
/// model, and the protocol's operand arithmetic, then applies the op.
#[allow(clippy::too_many_arguments)]
fn sws_step(
    v: &mut SwsVictim,
    site: AtomicSite,
    i: usize,
    e: &ProtoEvent,
    cfg: &QueueConfig,
    ring: Ring,
    spe: u64,
    tw: u64,
    mutate: Option<fn(u64) -> u64>,
    stats: &mut ReplayStats,
) -> Result<(), Divergence> {
    let off = e.offset as u64;
    let layout = cfg.layout;
    let in_comp = off >= v.comp_base && off < v.comp_base + v.comp_words;
    let in_buf = off >= v.buf_base && off < v.buf_base + v.buf_words;
    match site {
        AtomicSite::SwsOwnerAdvertise
        | AtomicSite::SwsOwnerAcquireSwap
        | AtomicSite::SwsOwnerSvRead
        | AtomicSite::SwsThiefProbe
        | AtomicSite::SwsThiefClaim => {
            if off != v.sv_off {
                return Err(div("stray-offset", i, e, format!("sv word at {}", v.sv_off)));
            }
            if e.prev != v.sv {
                return Err(div("word-mismatch", i, e, format!("sv = {:#x}", v.sv)));
            }
            match site {
                AtomicSite::SwsOwnerAdvertise => {
                    let sv = layout.decode(e.arg);
                    let Gate::Open { epoch } = sv.gate else {
                        return Err(div("advertise-arg", i, e, "an open gate".into()));
                    };
                    if sv.asteals != 0 {
                        return Err(div("advertise-arg", i, e, "asteals = 0".into()));
                    }
                    // Every slot the new advertisement can complete into
                    // must have been zeroed (construction relies on the
                    // zeroed heap; re-advertisement on SwsOwnerSlotZero).
                    let steals = cfg.policy.max_steals(sv.itasks as u64).min(spe);
                    for s in 0..steals {
                        let c = v.comp_base + epoch as u64 * spe + s;
                        if v.comp_word(c) != 0 {
                            return Err(div(
                                "advertise-dirty-slot",
                                i,
                                e,
                                format!("comp[{c}] = 0, found {:#x}", v.comp_word(c)),
                            ));
                        }
                        // The slot set is being reused: earlier (resolved)
                        // claim records for it are now stale.
                        v.claims.remove(&c);
                    }
                    v.sv = e.arg;
                }
                AtomicSite::SwsOwnerAcquireSwap => {
                    if layout.decode(e.arg).gate != Gate::Closed {
                        return Err(div("swap-not-closed", i, e, "a closed-gate encoding".into()));
                    }
                    v.sv = e.arg;
                }
                AtomicSite::SwsOwnerSvRead | AtomicSite::SwsThiefProbe => {}
                AtomicSite::SwsThiefClaim => {
                    if e.arg != ASTEAL_UNIT {
                        return Err(div(
                            "claim-arg",
                            i,
                            e,
                            format!("fetch-add of ASTEAL_UNIT ({ASTEAL_UNIT:#x})"),
                        ));
                    }
                    if (v.sv >> ASTEALS_SHIFT) & ASTEALS_MASK == ASTEALS_MASK {
                        return Err(div(
                            "asteals-overflow",
                            i,
                            e,
                            "an asteals counter below its 24-bit limit".into(),
                        ));
                    }
                    let raw = mutate.map_or(v.sv, |f| f(v.sv));
                    v.sv = v.sv.wrapping_add(ASTEAL_UNIT);
                    let sv = layout.decode(raw);
                    let Gate::Open { epoch } = sv.gate else {
                        return Ok(()); // closed gate: counter bump only
                    };
                    let itasks = sv.itasks as u64;
                    let a = sv.asteals as u64;
                    if a >= cfg.policy.max_steals(itasks) {
                        return Ok(()); // advertisement exhausted: no claim
                    }
                    if a >= spe {
                        return Err(div(
                            "claim-arg",
                            i,
                            e,
                            format!("steal index {a} within the {spe}-slot budget"),
                        ));
                    }
                    let vol = cfg.policy.volume(itasks, a);
                    let start =
                        ring.slot(sv.tail as u64 + cfg.policy.claimed_before(itasks, a)) as u64;
                    let c = v.comp_base + epoch as u64 * spe + a;
                    if v.claims.get(&c).is_some_and(|cl| !cl.resolved) {
                        return Err(div("claim-collision", i, e, format!("comp[{c}] unclaimed")));
                    }
                    if v.comp_word(c) != 0 {
                        return Err(div(
                            "claim-collision",
                            i,
                            e,
                            format!("comp[{c}] = 0 at claim time, found {:#x}", v.comp_word(c)),
                        ));
                    }
                    stats.claims += 1;
                    v.claims.insert(
                        c,
                        Claim {
                            issuer: e.issuer,
                            vol,
                            start_slot: start,
                            resolved: false,
                        },
                    );
                    v.pending_copy.insert(e.issuer, c);
                }
                _ => unreachable!(),
            }
        }
        AtomicSite::SwsOwnerSlotZero
        | AtomicSite::SwsThiefComplete
        | AtomicSite::SwsOwnerReclaimRead => {
            if !in_comp {
                return Err(div(
                    "stray-offset",
                    i,
                    e,
                    format!("completion array [{}, {})", v.comp_base, v.comp_base + v.comp_words),
                ));
            }
            let model = v.comp_word(off);
            if e.prev != model {
                return Err(div("word-mismatch", i, e, format!("comp[{off}] = {model:#x}")));
            }
            match (site, e.op) {
                (AtomicSite::SwsOwnerSlotZero, _) => {
                    if e.arg != 0 {
                        return Err(div("zero-arg", i, e, "a store of 0".into()));
                    }
                    if v.claims.get(&off).is_some_and(|c| !c.resolved) {
                        return Err(div("zero-live-claim", i, e, "no unresolved claim".into()));
                    }
                    v.claims.remove(&off);
                    v.comp.insert(off, 0);
                }
                (AtomicSite::SwsThiefComplete, ProtoOp::SetNbi) => {
                    sws_resolve(v, off, i, e, e.arg, true)?;
                    v.comp.insert(off, e.arg);
                }
                (AtomicSite::SwsThiefComplete, ProtoOp::CompareSwap) => {
                    if e.arg2 != 0 {
                        return Err(div("claim-arg", i, e, "a CAS expecting 0".into()));
                    }
                    if e.prev == 0 {
                        sws_resolve(v, off, i, e, e.arg, true)?;
                        v.comp.insert(off, e.arg);
                    }
                    // Failed CAS (owner reclaimed first): no effect.
                }
                (AtomicSite::SwsOwnerReclaimRead, ProtoOp::Fetch) => {}
                (AtomicSite::SwsOwnerReclaimRead, ProtoOp::CompareSwap) => {
                    if e.arg != COMP_RECLAIMED || e.arg2 != 0 {
                        return Err(div("claim-arg", i, e, "a CAS of 0 → COMP_RECLAIMED".into()));
                    }
                    if e.prev == 0 {
                        sws_resolve(v, off, i, e, e.arg, false)?;
                        v.comp.insert(off, COMP_RECLAIMED);
                    }
                }
                _ => unreachable!(),
            }
            if v.pending_copy.get(&e.issuer) == Some(&off) && site == AtomicSite::SwsThiefComplete
            {
                // Aborted steal: the poison CAS lands without a payload
                // read ever happening.
                v.pending_copy.remove(&e.issuer);
            }
        }
        AtomicSite::SwsThiefPayloadRead => {
            if !in_buf {
                return Err(div(
                    "stray-offset",
                    i,
                    e,
                    format!("task buffer [{}, {})", v.buf_base, v.buf_base + v.buf_words),
                ));
            }
            let Some(c) = v.pending_copy.remove(&e.issuer) else {
                return Err(div("payload-without-claim", i, e, "a preceding claim".into()));
            };
            let cl = &v.claims[&c];
            let want_off = v.buf_base + cl.start_slot * tw;
            let want_len = cl.vol * tw;
            if off != want_off || e.len as u64 != want_len {
                return Err(div(
                    "payload-geometry",
                    i,
                    e,
                    format!("get@{want_off}+{want_len} (slot {}, vol {})", cl.start_slot, cl.vol),
                ));
            }
        }
        _ => unreachable!("non-SWS site passed site_admits"),
    }
    Ok(())
}

/// Resolve the SWS claim at `off` with completion value `val`.
/// `thief_side` enforces that completions come from the claim's issuer
/// (owner reclaims are exempt).
fn sws_resolve(
    v: &mut SwsVictim,
    off: u64,
    i: usize,
    e: &ProtoEvent,
    val: u64,
    thief_side: bool,
) -> Result<(), Divergence> {
    let Some(c) = v.claims.get_mut(&off) else {
        return Err(div("completion-without-claim", i, e, "a live claim".into()));
    };
    if c.resolved {
        return Err(div("completion-without-claim", i, e, "an unresolved claim".into()));
    }
    if thief_side {
        if c.issuer != e.issuer {
            return Err(div(
                "completion-without-claim",
                i,
                e,
                format!("completion from the claimant pe{}", c.issuer),
            ));
        }
        if val != COMP_POISON && val != c.vol {
            return Err(div("completion-volume", i, e, format!("vol {}", c.vol)));
        }
    }
    c.resolved = true;
    Ok(())
}

/// One SDC transition (see [`sws_step`] for the checking scheme).
#[allow(clippy::too_many_arguments)]
fn sdc_step(
    v: &mut SdcVictim,
    site: AtomicSite,
    i: usize,
    e: &ProtoEvent,
    cfg: &QueueConfig,
    ring: Ring,
    tw: u64,
    stats: &mut ReplayStats,
) -> Result<(), Divergence> {
    let off = e.offset as u64;
    let in_comp = off >= v.comp_base && off < v.comp_base + cfg.capacity as u64;
    let in_buf = off >= v.buf_base && off < v.buf_base + v.buf_words;
    match site {
        AtomicSite::SdcLockCas | AtomicSite::SdcUnlock => {
            if off != v.meta_off {
                return Err(div("stray-offset", i, e, format!("lock word at {}", v.meta_off)));
            }
            if e.prev != v.lock {
                return Err(div("word-mismatch", i, e, format!("lock = {}", v.lock)));
            }
            if site == AtomicSite::SdcLockCas {
                if e.arg != 1 || e.arg2 != 0 {
                    return Err(div("claim-arg", i, e, "a CAS of 0 → 1".into()));
                }
                if e.prev == 0 {
                    v.lock = 1;
                    v.holder = Some(e.issuer);
                }
            } else {
                if e.arg != 0 {
                    return Err(div("zero-arg", i, e, "a store of 0".into()));
                }
                if v.holder != Some(e.issuer) {
                    return Err(div(
                        "unlock-not-holder",
                        i,
                        e,
                        format!("unlock by the holder ({:?})", v.holder),
                    ));
                }
                v.lock = 0;
                v.holder = None;
            }
        }
        AtomicSite::SdcMetaRead | AtomicSite::SdcOwnerTailRead | AtomicSite::SdcTailPut => {
            if off != v.meta_off + 1 {
                return Err(div("stray-offset", i, e, format!("tail word at {}", v.meta_off + 1)));
            }
            match site {
                AtomicSite::SdcMetaRead => {
                    if e.len != 2 {
                        return Err(div("claim-arg", i, e, "a 2-word metadata get".into()));
                    }
                    if e.prev != v.tail || e.arg2 != v.split {
                        return Err(div(
                            "word-mismatch",
                            i,
                            e,
                            format!("(tail, split) = ({}, {})", v.tail, v.split),
                        ));
                    }
                }
                AtomicSite::SdcOwnerTailRead => {
                    if e.prev != v.tail {
                        return Err(div("word-mismatch", i, e, format!("tail = {}", v.tail)));
                    }
                }
                AtomicSite::SdcTailPut => {
                    // Puts carry no captured pre-value; the checks here
                    // are purely semantic against the model state.
                    if v.holder != Some(e.issuer) {
                        return Err(div(
                            "tail-put-without-lock",
                            i,
                            e,
                            format!("the queue lock held by pe{}", e.issuer),
                        ));
                    }
                    if e.arg <= v.tail {
                        return Err(div(
                            "tail-monotonic",
                            i,
                            e,
                            format!("a tail advance past {}", v.tail),
                        ));
                    }
                    let avail = v.split.saturating_sub(v.tail);
                    let vol = cfg.policy.volume(avail, 0).max(1);
                    if e.arg != v.tail + vol {
                        return Err(div(
                            "tail-volume",
                            i,
                            e,
                            format!("tail + volume(split − tail, 0) = {}", v.tail + vol),
                        ));
                    }
                    let start = ring.slot(v.tail) as u64;
                    let c = v.comp_base + start;
                    if v.claims.get(&c).is_some_and(|cl| !cl.resolved) {
                        return Err(div("claim-collision", i, e, format!("comp[{c}] unclaimed")));
                    }
                    // In fault-injected runs a COMP_CLAIMED marker for
                    // exactly this volume precedes the tail advance.
                    let m = v.comp_word(c);
                    if m != 0 && m != COMP_CLAIMED | vol {
                        return Err(div(
                            "claim-collision",
                            i,
                            e,
                            format!("comp[{c}] = 0 or this claim's marker, found {m:#x}"),
                        ));
                    }
                    stats.claims += 1;
                    v.claims.insert(
                        c,
                        Claim {
                            issuer: e.issuer,
                            vol,
                            start_slot: start,
                            resolved: false,
                        },
                    );
                    v.pending_copy.insert(e.issuer, c);
                    v.tail = e.arg;
                }
                _ => unreachable!(),
            }
        }
        AtomicSite::SdcSplitPublish => {
            if off != v.meta_off + 2 {
                return Err(div("stray-offset", i, e, format!("split word at {}", v.meta_off + 2)));
            }
            if e.prev != v.split {
                return Err(div("word-mismatch", i, e, format!("split = {}", v.split)));
            }
            // Growing the shared portion is lock-free (release); only
            // shrinking it (acquire/retire) requires the owner's lock.
            if e.arg < v.split && v.holder != Some(e.issuer) {
                return Err(div(
                    "split-shrink-without-lock",
                    i,
                    e,
                    "the owner holding its own lock".into(),
                ));
            }
            v.split = e.arg;
        }
        AtomicSite::SdcComplete | AtomicSite::SdcReclaimRead | AtomicSite::SdcReclaimZero => {
            if !in_comp {
                return Err(div(
                    "stray-offset",
                    i,
                    e,
                    format!(
                        "completion ring [{}, {})",
                        v.comp_base,
                        v.comp_base + cfg.capacity as u64
                    ),
                ));
            }
            let model = v.comp_word(off);
            if e.prev != model {
                return Err(div("word-mismatch", i, e, format!("comp[{off}] = {model:#x}")));
            }
            match (site, e.op) {
                (AtomicSite::SdcComplete, ProtoOp::SetNbi) => {
                    sdc_resolve(v, off, i, e, e.arg)?;
                    v.comp.insert(off, e.arg);
                }
                (AtomicSite::SdcComplete, ProtoOp::Set) => {
                    // Fault-mode claim marker, stored before the tail
                    // advance publishes the claim.
                    if e.arg & COMP_CLAIMED == 0 || e.arg & COMP_VOL_MASK == 0 {
                        return Err(div(
                            "claim-arg",
                            i,
                            e,
                            "a COMP_CLAIMED marker with a nonzero volume".into(),
                        ));
                    }
                    if model != 0 {
                        return Err(div(
                            "claim-collision",
                            i,
                            e,
                            format!("an empty slot for the marker, found {model:#x}"),
                        ));
                    }
                    v.comp.insert(off, e.arg);
                }
                (AtomicSite::SdcComplete, ProtoOp::CompareSwap) => {
                    if e.prev != e.arg2 {
                        return Ok(()); // lost the race; no effect
                    }
                    if e.arg == 0 {
                        // Marker rollback after a lost tail put.
                        if e.arg2 & COMP_CLAIMED == 0 {
                            return Err(div("claim-arg", i, e, "a marker rollback".into()));
                        }
                        if v.claims.get(&off).is_some_and(|c| !c.resolved) {
                            return Err(div(
                                "claim-collision",
                                i,
                                e,
                                "no live claim under a rollback".into(),
                            ));
                        }
                        v.comp.insert(off, 0);
                    } else {
                        // Poison (COMP_POISON | vol) or finalize (vol).
                        sdc_resolve(v, off, i, e, e.arg)?;
                        v.comp.insert(off, e.arg);
                    }
                }
                (AtomicSite::SdcReclaimRead, ProtoOp::Fetch) => {}
                (AtomicSite::SdcReclaimRead, ProtoOp::CompareSwap) => {
                    if e.arg != 0 {
                        return Err(div("claim-arg", i, e, "a reclaim CAS to 0".into()));
                    }
                    if e.prev == e.arg2 {
                        if let Some(c) = v.claims.get_mut(&off) {
                            c.resolved = true;
                        }
                        v.claims.remove(&off);
                        v.comp.insert(off, 0);
                    }
                }
                (AtomicSite::SdcReclaimZero, _) => {
                    if e.arg != 0 {
                        return Err(div("zero-arg", i, e, "a store of 0".into()));
                    }
                    if v.claims.get(&off).is_some_and(|c| !c.resolved) {
                        return Err(div("zero-live-claim", i, e, "no unresolved claim".into()));
                    }
                    v.claims.remove(&off);
                    v.comp.insert(off, 0);
                }
                _ => unreachable!(),
            }
            if v.pending_copy.get(&e.issuer) == Some(&off) && site == AtomicSite::SdcComplete {
                v.pending_copy.remove(&e.issuer);
            }
        }
        AtomicSite::SdcPayloadRead => {
            if !in_buf {
                return Err(div(
                    "stray-offset",
                    i,
                    e,
                    format!("task buffer [{}, {})", v.buf_base, v.buf_base + v.buf_words),
                ));
            }
            let Some(c) = v.pending_copy.remove(&e.issuer) else {
                return Err(div("payload-without-claim", i, e, "a preceding claim".into()));
            };
            let cl = &v.claims[&c];
            let want_off = v.buf_base + cl.start_slot * tw;
            let want_len = cl.vol * tw;
            if off != want_off || e.len as u64 != want_len {
                return Err(div(
                    "payload-geometry",
                    i,
                    e,
                    format!("get@{want_off}+{want_len} (slot {}, vol {})", cl.start_slot, cl.vol),
                ));
            }
        }
        _ => unreachable!("non-SDC site passed site_admits"),
    }
    Ok(())
}

/// Resolve the SDC claim at `off` with completion value `val`
/// (`COMP_POISON | vol` or plain `vol`), thief-side.
fn sdc_resolve(
    v: &mut SdcVictim,
    off: u64,
    i: usize,
    e: &ProtoEvent,
    val: u64,
) -> Result<(), Divergence> {
    let Some(c) = v.claims.get_mut(&off) else {
        return Err(div("completion-without-claim", i, e, "a live claim".into()));
    };
    if c.resolved {
        return Err(div("completion-without-claim", i, e, "an unresolved claim".into()));
    }
    if c.issuer != e.issuer {
        return Err(div(
            "completion-without-claim",
            i,
            e,
            format!("completion from the claimant pe{}", c.issuer),
        ));
    }
    let vol = if val & COMP_POISON != 0 {
        val & COMP_VOL_MASK
    } else {
        val
    };
    // Poison after a failed copy may carry the volume (fault-mode CAS)
    // — either way the claim is settled; a *finalizing* value must match.
    if val & COMP_POISON == 0 && vol != c.vol {
        return Err(div("completion-volume", i, e, format!("vol {}", c.vol)));
    }
    c.resolved = true;
    Ok(())
}

use crate::shrink::ddmin;

/// Shrink a diverging trace to a minimal sub-trace that still produces
/// a divergence of the same `kind`. Returns the full trace unchanged if
/// it does not diverge with that kind.
pub fn shrink(input: &ReplayInput, kind: &str) -> Vec<ProtoEvent> {
    let fails = |evs: &[ProtoEvent]| {
        let sub = ReplayInput {
            events: evs,
            ..*input
        };
        replay(&sub).err().is_some_and(|d| d.kind == kind)
    };
    if !fails(input.events) {
        return input.events.to_vec();
    }
    ddmin(input.events, fails)
}

// ---------------------------------------------------------------------------
// The deterministic conformance matrix (production runs → replay).
// ---------------------------------------------------------------------------

use sws_sched::{run_workload, QueueKind, RunConfig, SchedConfig};
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

/// What one conforming case covered.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Events in the merged trace.
    pub events: usize,
    /// Victim queues the replay tracked.
    pub victims: usize,
    /// Steal claims replayed.
    pub claims: u64,
    /// Site ids that appeared.
    pub sites: BTreeSet<u16>,
}

/// Queue configuration the matrix runs use.
pub fn case_queue(case: &ConformCase) -> QueueConfig {
    QueueConfig::new(64, 24).with_layout(case.layout)
}

/// Execute one matrix case's production run with capture on and return
/// the merged op trace. Fully deterministic: calling this twice for the
/// same case yields the same events.
pub fn capture_case(case: &ConformCase) -> Vec<ProtoEvent> {
    let queue = case_queue(case);
    // Short progress interval: the matrix workloads run ~40 tasks per
    // PE, so the default (64) would never reach the reclaim paths.
    let sched = SchedConfig::new(case.kind, queue)
        .with_seed(case.seed)
        .with_damping(case.damping)
        .with_progress_interval(8);
    let mut run = RunConfig::new(4, sched).with_capture_proto();
    if case.faults {
        run = run.with_faults(
            FaultPlan::seeded(case.seed ^ 0xFA_017).with_drop(OpClass::All, TargetSel::Any, 0.03),
        );
    }
    let workload = FlatBag::new(160, 2_000, 24);
    run_workload(&run, &workload).proto_trace()
}

/// Run one matrix case: execute the production run with capture on,
/// merge the trace, and replay it. `mutate` taps the replay's claim
/// decode (the mutation self-test); pass `None` for the real check.
pub fn run_case(
    case: &ConformCase,
    mutate: Option<fn(u64) -> u64>,
) -> Result<CaseResult, Divergence> {
    let queue = case_queue(case);
    let events = capture_case(case);
    let proto = match case.kind {
        QueueKind::Sws => Proto::Sws,
        QueueKind::Sdc => Proto::Sdc,
    };
    let input = ReplayInput {
        proto,
        queue,
        events: &events,
        mutate_claim_decode: mutate,
    };
    let stats = replay(&input)?;
    Ok(CaseResult {
        events: stats.events,
        victims: stats.victims,
        claims: stats.claims,
        sites: stats.sites,
    })
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
    pub cases: Vec<(String, Result<CaseResult, Divergence>)>,
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
            let r = run_case(case, None);
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
            ev(1, 0, 0, sv, AtomicSite::SwsOwnerAdvertise, ProtoOp::Set, empty, 0, 0),
            // zero the two slots steal-half uses for itasks = 2
            ev(2, 0, 0, comp, AtomicSite::SwsOwnerSlotZero, ProtoOp::Set, 0, 0, 0),
            ev(3, 0, 0, comp + 1, AtomicSite::SwsOwnerSlotZero, ProtoOp::Set, 0, 0, 0),
            ev(4, 0, 0, sv, AtomicSite::SwsOwnerAdvertise, ProtoOp::Set, advert, 0, empty),
            ev(5, 1, 0, sv, AtomicSite::SwsThiefClaim, ProtoOp::FetchAdd, ASTEAL_UNIT, 0, advert),
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
            ev(7, 1, 0, comp, AtomicSite::SwsThiefComplete, ProtoOp::SetNbi, 1, 0, 0),
            // second thief: asteals = 1, claimed_before = 1 → slot 6, vol 1
            ev(8, 2, 0, sv, AtomicSite::SwsThiefClaim, ProtoOp::FetchAdd, ASTEAL_UNIT, 0, claimed),
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
            ev(10, 2, 0, comp + 1, AtomicSite::SwsThiefComplete, ProtoOp::SetNbi, 1, 0, 0),
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
        let evs = sws_trace();
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
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "site-op-mismatch");
        assert_eq!(d.index, 7);
    }

    #[test]
    fn stale_prev_is_a_word_mismatch() {
        let mut evs = sws_trace();
        evs[4].prev ^= 1; // claim observed a value the model never held
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "word-mismatch");
        assert_eq!(d.index, 4);
    }

    #[test]
    fn wrong_payload_geometry_diverges_and_shrinks() {
        let mut evs = sws_trace();
        evs[5].offset += 3; // copy started one slot late
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "payload-geometry");
        let small = shrink(&input, "payload-geometry");
        assert!(small.len() < evs.len());
        let sub = ReplayInput::new(Proto::Sws, qc(), &small);
        assert_eq!(replay(&sub).unwrap_err().kind, "payload-geometry");
    }

    #[test]
    fn dropped_completion_leaves_unresolved_claim() {
        let mut evs = sws_trace();
        evs.remove(6); // the completion set_nbi
        let input = ReplayInput::new(Proto::Sws, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "unresolved-claim");
    }

    #[test]
    fn mutated_claim_decode_diverges() {
        let evs = sws_trace();
        let mut input = ReplayInput::new(Proto::Sws, qc(), &evs);
        input.mutate_claim_decode = Some(|raw| raw ^ 1); // flip tail bit 0
        let d = replay(&input).unwrap_err();
        assert_eq!(d.kind, "payload-geometry");
    }

    /// A tiny hand-built SDC trace: lock, meta read, tail put, unlock,
    /// payload, completion, owner reclaim.
    fn sdc_trace() -> Vec<ProtoEvent> {
        let meta = 20u64;
        let (lock, tail, split) = (meta, meta + 1, meta + 2);
        let comp = next_block(meta, 3);
        let buf = next_block(comp, 64);
        vec![
            ev(1, 0, 0, split, AtomicSite::SdcSplitPublish, ProtoOp::Set, 2, 0, 0),
            ev(2, 1, 0, lock, AtomicSite::SdcLockCas, ProtoOp::CompareSwap, 1, 0, 0),
            {
                let mut e = ev(3, 1, 0, tail, AtomicSite::SdcMetaRead, ProtoOp::Get, 0, 2, 0);
                e.len = 2;
                e
            },
            ev(4, 1, 0, tail, AtomicSite::SdcTailPut, ProtoOp::Put, 1, 0, 0),
            ev(5, 1, 0, lock, AtomicSite::SdcUnlock, ProtoOp::Set, 0, 0, 1),
            {
                let mut e = ev(6, 1, 0, buf, AtomicSite::SdcPayloadRead, ProtoOp::Get, 0, 0, 0);
                e.len = 3;
                e
            },
            ev(7, 1, 0, comp, AtomicSite::SdcComplete, ProtoOp::SetNbi, 1, 0, 0),
            ev(8, 0, 0, comp, AtomicSite::SdcReclaimRead, ProtoOp::Fetch, 0, 0, 1),
            ev(9, 0, 0, comp, AtomicSite::SdcReclaimZero, ProtoOp::Set, 0, 0, 1),
        ]
    }

    #[test]
    fn hand_built_sdc_trace_conforms() {
        let evs = sdc_trace();
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        let stats = replay(&input).expect("trace conforms");
        assert_eq!(stats.victims, 1);
        assert_eq!(stats.claims, 1);
    }

    #[test]
    fn tail_put_requires_the_lock() {
        let mut evs = sdc_trace();
        evs.remove(1); // drop the lock acquisition
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
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "tail-volume");
    }

    #[test]
    fn unlock_by_stranger_diverges() {
        let mut evs = sdc_trace();
        evs[4].issuer = 2;
        evs[4].t_ns = 5;
        let input = ReplayInput::new(Proto::Sdc, qc(), &evs);
        assert_eq!(replay(&input).unwrap_err().kind, "unlock-not-holder");
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
