//! Protocol op-trace capture (`WorldConfig::capture_proto`).
//!
//! When capture is enabled, every *site-annotated* one-sided operation a
//! PE issues is recorded as a [`ProtoEvent`] at its serialization point:
//! inside the gate, timestamped with the issuer's clock *before* the op's
//! cost is charged. The world keeps one [`ProtoLog`], in the serial
//! executor, and each event is appended where its effect applies, so the
//! log is the order in which the memory effects were applied — which is
//! what a refinement check needs to replay. In virtual time that is the
//! gate's `(t_ns, issuer)` order. Plain threads apply effects in no
//! recorded order, so a threaded world refuses capture.
//!
//! The log stores each event as one variable-length record (see
//! [`ProtoLog`]) and decodes it when iterated; [`ProtoEvent`] is the
//! decoded value.
//!
//! Annotation happens in the protocol code (`sws-core`'s queues): a call
//! to [`crate::ShmemCtx::proto_site`] arms the *next* one-sided op on the
//! same context with an `sws_core::AtomicSite` id (this crate cannot
//! depend on `sws-core`, so the id travels as a raw `u16`). Unannotated
//! ops — termination-detector counters, collectives, workload setup
//! traffic — are not captured; neither is an op whose memory effect never
//! applied (a dropped/faulted op reaches no memory, so a trace replay
//! must not see it). With capture off, the annotation call is a no-op and
//! the op surface is untouched apart from one predictable branch.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::iter;

use crate::net::OpKind;
use crate::overrides::OpRole;

/// "No site" sentinel for [`ProtoEvent::site`] annotations. Ops armed
/// with this value (or never armed) are not captured.
pub const NO_SITE: u16 = u16::MAX;

/// The shape of a captured one-sided operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProtoOp {
    /// `atomic_fetch_add`: `arg` = addend, `prev` = fetched value.
    FetchAdd,
    /// `atomic_swap`: `arg` = new value, `prev` = replaced value.
    Swap,
    /// `atomic_compare_swap`: `arg` = new, `arg2` = expected, `prev` =
    /// observed value (success iff `prev == arg2`).
    CompareSwap,
    /// `atomic_fetch`: `prev` = value read.
    Fetch,
    /// `atomic_set`: `arg` = stored value, `prev` = overwritten value
    /// (loaded only while capturing).
    Set,
    /// `atomic_set_nbi`: like [`ProtoOp::Set`] (the engine applies nbi
    /// effects at issue time).
    SetNbi,
    /// `atomic_add_nbi`: like [`ProtoOp::FetchAdd`].
    AddNbi,
    /// Bulk `get` (or gather): `len` words starting at `offset`; for
    /// reads of ≤ 2 words, `prev`/`arg2` hold the first/second word.
    Get,
    /// Bulk `put`: `len` words starting at `offset`; for writes of ≤ 2
    /// words, `arg`/`arg2` hold the first/second word.
    Put,
}

impl ProtoOp {
    /// Every shape, in declaration order: `ALL[op as usize] == op`.
    const ALL: [ProtoOp; 9] = [
        ProtoOp::FetchAdd,
        ProtoOp::Swap,
        ProtoOp::CompareSwap,
        ProtoOp::Fetch,
        ProtoOp::Set,
        ProtoOp::SetNbi,
        ProtoOp::AddNbi,
        ProtoOp::Get,
        ProtoOp::Put,
    ];

    /// The op kind the shape is issued, costed and counted as.
    pub fn kind(self) -> OpKind {
        match self {
            ProtoOp::FetchAdd => OpKind::AtomicFetchAdd,
            ProtoOp::Swap => OpKind::AtomicSwap,
            ProtoOp::CompareSwap => OpKind::AtomicCompareSwap,
            ProtoOp::Fetch => OpKind::AtomicFetch,
            ProtoOp::Set => OpKind::AtomicSet,
            ProtoOp::SetNbi => OpKind::AtomicSetNbi,
            ProtoOp::AddNbi => OpKind::AtomicAddNbi,
            ProtoOp::Get => OpKind::Get,
            ProtoOp::Put => OpKind::Put,
        }
    }

    /// What the shape does to each word it touches, for ordering and
    /// tracking.
    pub fn role(self) -> OpRole {
        match self {
            ProtoOp::FetchAdd | ProtoOp::Swap | ProtoOp::AddNbi => OpRole::Rmw,
            ProtoOp::CompareSwap => OpRole::Cas,
            ProtoOp::Fetch | ProtoOp::Get => OpRole::Load,
            ProtoOp::Set | ProtoOp::SetNbi | ProtoOp::Put => OpRole::Store,
        }
    }

    /// Does the op block the issuer until the remote effect is visible
    /// ([`OpKind::is_blocking`] of its [`ProtoOp::kind`])? Only the nbi
    /// shapes are passive — they complete at the next `quiet`. This is
    /// the classification the paper's Fig. 2 op budget counts (3 ops / 2
    /// blocking for SWS, 6 / 5 for SDC), so the telemetry layer charges
    /// spans with it.
    pub fn is_blocking(self) -> bool {
        self.kind().is_blocking()
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtoOp::FetchAdd => "fetch_add",
            ProtoOp::Swap => "swap",
            ProtoOp::CompareSwap => "compare_swap",
            ProtoOp::Fetch => "fetch",
            ProtoOp::Set => "set",
            ProtoOp::SetNbi => "set_nbi",
            ProtoOp::AddNbi => "add_nbi",
            ProtoOp::Get => "get",
            ProtoOp::Put => "put",
        }
    }
}

/// One captured protocol operation, as a [`ProtoLog`] decodes it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProtoEvent {
    /// Issuer's virtual clock when the effect applied (pre-advance).
    pub t_ns: u64,
    /// PE that issued the op.
    pub issuer: u32,
    /// PE whose region the op touched.
    pub target: u32,
    /// Word offset of the (first) touched word in the target's region.
    pub offset: u32,
    /// Words touched (1 for atomics).
    pub len: u32,
    /// `AtomicSite` id (`sws_core::AtomicSite::id`); never [`NO_SITE`]
    /// in a captured event.
    pub site: u16,
    /// The issuer's steal attempt the op belongs to
    /// ([`crate::ShmemCtx::begin_attempt`]); not part of the rendering.
    pub attempt: u32,
    /// Operation shape.
    pub op: ProtoOp,
    /// Operand (see the [`ProtoOp`] variant docs).
    pub arg: u64,
    /// Second operand (CAS expected; second word of a 2-word get/put).
    pub arg2: u64,
    /// Pre-op value of the touched word (first word for bulk reads).
    pub prev: u64,
}

impl std::fmt::Display for ProtoEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={} pe{}->pe{} site#{} {}@{}+{} arg={:#x} arg2={:#x} prev={:#x}",
            self.t_ns,
            self.issuer,
            self.target,
            self.site,
            self.op.name(),
            self.offset,
            self.len,
            self.arg,
            self.arg2,
            self.prev,
        )
    }
}

/// A world's captured ops in the order their effects applied, each
/// stored as one variable-length record and decoded when iterated.
///
/// A record is a 4-byte little-endian header, then the fields in this
/// order, each in as many little-endian bytes as the header's code for
/// it says:
///
/// | header bits | field | bytes by code |
/// |---|---|---|
/// | 0–3 | the op | — |
/// | 4–6 | `t_ns` delta | 0, 1, 2, 3, 4, 5, 6, 8 |
/// | 7–8, 9–10, 11–12 | issuer, target, offset | 0, 1, 2, 4 |
/// | 13–14 | `len` | none (it is 1), 1, 2, 4 |
/// | 15–16 | attempt delta | none (0), none (1), 1, 4 |
/// | 17–18 | site | 0, 1, 2 |
/// | 19–22, 23–26, 27–30 | `arg`, `arg2`, `prev` | 0–8; `prev` also 15: none, it equals `arg2` |
///
/// `t_ns` and `attempt` are wrapping deltas from the same issuer's
/// previous event, so any sequence round-trips — an `Explore` log, whose
/// global clock goes backwards while each issuer's rises, included.
/// Every field decodes by one masked 8-byte load, with no branch on its
/// length.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ProtoLog {
    bytes: Vec<u8>,
    len: usize,
    /// 1 + the largest rank an event names, as issuer or target.
    width: usize,
    /// Per issuer, the `(t_ns, attempt)` of its last event: the base of
    /// its next record's deltas.
    last: Vec<(u64, u32)>,
}

/// Bytes of the `t_ns` delta by its 3-bit code.
const DELTA: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 8];
/// Bytes of a rank, offset, `len` or site by its 2-bit code (a `len`
/// with code 0 is 1).
const SIZED: [u32; 4] = [0, 1, 2, 4];
/// Bytes of the attempt delta by its 2-bit code (code 1 is a delta of 1).
const ATTEMPT: [u32; 4] = [0, 0, 1, 4];
/// `prev`'s byte count when it equals a nonzero `arg2` (a won CAS, a
/// two-word read of equal words): no bytes stored.
const PREV_IS_ARG2: u32 = 15;
/// Longest record: the header, the fields at their widest, and the 8
/// bytes a field write may run past its count.
const MAX_RECORD: usize = 4 + 8 + 3 * 4 + 4 + 4 + 2 + 3 * 8 + 8;

/// Bytes `v` takes with its leading zero bytes dropped (0 for 0).
fn byte_count(v: u64) -> u32 {
    (u64::BITS - v.leading_zeros()).div_ceil(8)
}

/// The code of the fewest [`SIZED`] bytes that hold `v`.
fn sized_code(v: u64) -> u32 {
    match byte_count(v) {
        n @ 0..=2 => n,
        _ => 3,
    }
}

/// One record being written into the log's tail.
struct Record<'a> {
    buf: &'a mut [u8],
    n: usize,
}

impl Record<'_> {
    /// `v`'s low `count` bytes: all eight are written, `count` kept.
    fn word(&mut self, v: u64, count: u32) {
        self.buf[self.n..self.n + 8].copy_from_slice(&v.to_le_bytes());
        self.n += count as usize;
    }
}

impl ProtoLog {
    /// An empty log.
    pub fn new() -> ProtoLog {
        ProtoLog::default()
    }

    /// Append `e` after every event already in the log.
    pub fn push(&mut self, e: &ProtoEvent) {
        let issuer = e.issuer as usize;
        if issuer >= self.last.len() {
            self.last.resize(issuer + 1, (0, 0));
        }
        let (t, attempt) = std::mem::replace(&mut self.last[issuer], (e.t_ns, e.attempt));
        let (dt, da) = (e.t_ns.wrapping_sub(t), e.attempt.wrapping_sub(attempt));
        let dt_code = byte_count(dt).min(7);
        let len_code = if e.len == 1 { 0 } else { sized_code(e.len.into()).max(1) };
        let attempt_code = match da {
            0 | 1 => da,
            2..=0xff => 2,
            _ => 3,
        };
        let (arg2, arg) = (byte_count(e.arg2), byte_count(e.arg));
        let prev = if e.prev == e.arg2 && arg2 > 0 { PREV_IS_ARG2 } else { byte_count(e.prev) };
        let [issuer_code, target_code, offset_code, site_code] =
            [e.issuer, e.target, e.offset, e.site.into()].map(|v| sized_code(v.into()));
        let codes = [
            (e.op as u32, 4),
            (dt_code, 3),
            (issuer_code, 2),
            (target_code, 2),
            (offset_code, 2),
            (len_code, 2),
            (attempt_code, 2),
            (site_code, 2),
            (arg, 4),
            (arg2, 4),
            (prev, 4),
        ];
        let header = codes.iter().rev().fold(0, |h, &(code, bits)| h << bits | code);
        // Room for the longest record, cut to this one's length once written.
        let start = self.bytes.len();
        self.bytes.resize(start + MAX_RECORD, 0);
        let mut r = Record { buf: &mut self.bytes[start..], n: 0 };
        r.word(header.into(), 4);
        r.word(dt, DELTA[dt_code as usize]);
        r.word(e.issuer.into(), SIZED[issuer_code as usize]);
        r.word(e.target.into(), SIZED[target_code as usize]);
        r.word(e.offset.into(), SIZED[offset_code as usize]);
        r.word(e.len.into(), SIZED[len_code as usize]);
        r.word(da.into(), ATTEMPT[attempt_code as usize]);
        r.word(e.site.into(), SIZED[site_code as usize]);
        r.word(e.arg, arg);
        r.word(e.arg2, arg2);
        r.word(e.prev, if prev == PREV_IS_ARG2 { 0 } else { prev });
        let end = start + r.n;
        self.bytes.truncate(end);
        self.len += 1;
        self.width = self.width.max(issuer.max(e.target as usize) + 1);
    }

    /// Events in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 1 + the largest rank any event names as issuer or target (0 for
    /// an empty log): the width of a per-rank table over the log, read
    /// without decoding it.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bytes the records take.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The events, decoded, in the order they were pushed.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bytes: &self.bytes, pos: 0, left: self.len, last: vec![(0, 0); self.last.len()] }
    }
}

impl std::fmt::Debug for ProtoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl FromIterator<ProtoEvent> for ProtoLog {
    fn from_iter<I: IntoIterator<Item = ProtoEvent>>(events: I) -> ProtoLog {
        let mut log = ProtoLog::new();
        for e in events {
            log.push(&e);
        }
        log
    }
}

impl<'a> IntoIterator for &'a ProtoLog {
    type Item = ProtoEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The decoding iterator of a [`ProtoLog`].
pub struct Iter<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
    /// Per issuer, the `(t_ns, attempt)` of its last decoded event.
    last: Vec<(u64, u32)>,
}

/// The `count` bytes at `*at` as a little-endian word; `*at` moves past
/// them. A field's place depends only on the header, never on a loaded
/// value, so the loads of one record overlap.
#[inline(always)]
fn read(bytes: &[u8], at: &mut usize, count: u32) -> u64 {
    let n = count as usize;
    let v = match bytes[*at..].first_chunk::<8>() {
        // One unaligned load, masked to the bytes that are the word's.
        Some(&b) => u64::from_le_bytes(b) & (1u64 << (4 * count) << (4 * count)).wrapping_sub(1),
        None => {
            let mut b = [0; 8];
            b[..n].copy_from_slice(&bytes[*at..*at + n]);
            u64::from_le_bytes(b)
        }
    };
    *at += n;
    v
}

impl Iterator for Iter<'_> {
    type Item = ProtoEvent;

    fn next(&mut self) -> Option<ProtoEvent> {
        self.left = self.left.checked_sub(1)?;
        let (bytes, mut at) = (self.bytes, self.pos);
        let h = read(bytes, &mut at, 4) as u32;
        let code = |shift: u32, bits: u32| ((h >> shift) & ((1 << bits) - 1)) as usize;
        let mut field = |count: u32| read(bytes, &mut at, count);
        let dt = field(DELTA[code(4, 3)]);
        let issuer = field(SIZED[code(7, 2)]) as u32;
        let target = field(SIZED[code(9, 2)]) as u32;
        let offset = field(SIZED[code(11, 2)]) as u32;
        let len = field(SIZED[code(13, 2)]) as u32 | u32::from(code(13, 2) == 0);
        let da = field(ATTEMPT[code(15, 2)]) as u32 + u32::from(code(15, 2) == 1);
        let site = field(SIZED[code(17, 2)]) as u16;
        let arg = field(code(19, 4) as u32);
        let arg2 = field(code(23, 4) as u32);
        let same = code(27, 4) as u32 == PREV_IS_ARG2;
        let prev = field(if same { 0 } else { code(27, 4) as u32 });
        self.pos = at;
        let last = &mut self.last[issuer as usize];
        *last = (last.0.wrapping_add(dt), last.1.wrapping_add(da));
        Some(ProtoEvent {
            t_ns: last.0,
            issuer,
            target,
            offset,
            len,
            site,
            attempt: last.1,
            op: ProtoOp::ALL[code(0, 4)],
            arg,
            arg2,
            prev: if same { arg2 } else { prev },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// `items` as a source ordered by `key`: as they come when they already
/// are, else from a stably sorted copy.
pub fn ordered<'a, T: 'a, K: Ord>(
    items: impl Iterator<Item = T> + Clone + 'a,
    key: impl Fn(&T) -> K,
) -> Box<dyn Iterator<Item = T> + 'a> {
    if items.clone().is_sorted_by_key(|t| key(&t)) {
        return Box::new(items);
    }
    let mut sorted: Vec<T> = items.collect();
    sorted.sort_by_key(key);
    Box::new(sorted.into_iter())
}

/// The merge of `sources`, each ordered by `key`, over a binary heap of
/// source heads keyed `(key, source index)`: the least head comes out
/// and its source's next item takes its place. A tie goes to the earlier
/// source, and a source's later item enters only after its earlier one
/// left, so the result is what a stable sort of the sources laid end to
/// end yields.
pub fn merge_ordered<T, K: Ord, I: Iterator<Item = T>>(
    mut sources: Vec<I>,
    key: impl Fn(&T) -> K,
) -> impl Iterator<Item = T> {
    let mut heads: Vec<Option<T>> = sources.iter_mut().map(Iterator::next).collect();
    let mut order: BinaryHeap<_> = heads
        .iter()
        .enumerate()
        .filter_map(|(i, head)| head.as_ref().map(|t| Reverse((key(t), i))))
        .collect();
    iter::from_fn(move || {
        let mut least = order.peek_mut()?;
        let i = least.0 .1;
        let next = sources[i].next();
        match &next {
            Some(t) => *least = Reverse((key(t), i)),
            None => drop(PeekMut::pop(least)),
        }
        std::mem::replace(&mut heads[i], next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn ev(t: u64, issuer: u32) -> ProtoEvent {
        ProtoEvent {
            t_ns: t,
            issuer,
            target: 0,
            offset: 9,
            len: 1,
            site: 3,
            attempt: 0,
            op: ProtoOp::FetchAdd,
            arg: 1,
            arg2: 0,
            prev: 7,
        }
    }

    /// Per-issuer streams laid into one by the gate's key, `(t_ns,
    /// issuer)`: each taken as [`ordered`] finds it, then
    /// [`merge_ordered`].
    fn merge(per_pe: &[Vec<ProtoEvent>]) -> Vec<ProtoEvent> {
        let key = |e: &ProtoEvent| (e.t_ns, e.issuer);
        merge_ordered(per_pe.iter().map(|s| ordered(s.iter().copied(), key)).collect(), key).collect()
    }

    #[test]
    fn merge_orders_by_time_then_rank() {
        let merged = merge(&[
            vec![ev(5, 0), ev(9, 0)],
            vec![ev(2, 1), ev(5, 1)],
        ]);
        let key: Vec<(u64, u32)> = merged.iter().map(|e| (e.t_ns, e.issuer)).collect();
        assert_eq!(key, vec![(2, 1), (5, 0), (5, 1), (9, 0)]);
    }

    /// The oracle: concatenate the streams and sort stably by the gate's
    /// key.
    fn merge_by_sorting(per_pe: &[Vec<ProtoEvent>]) -> Vec<ProtoEvent> {
        let mut all: Vec<ProtoEvent> = per_pe.iter().flatten().copied().collect();
        all.sort_by_key(|e| (e.t_ns, e.issuer));
        all
    }

    /// 0–40 seeded streams, a quarter of them empty, timestamps drawn
    /// from so small a range that they collide across issuers, and the
    /// shapes no capture produces: equal timestamps within a stream, an
    /// unordered stream, one stream carrying two issuers. `arg` numbers
    /// every event, so `==` compares the order of equal keys too.
    #[test]
    fn merge_equals_the_stable_sort_on_every_shape() {
        let mut shapes_seen = [0u32; 4];
        for seed in 0..300 {
            let mut rng = SplitMix64::new(seed);
            let mut serial = 0;
            let streams: Vec<Vec<ProtoEvent>> = (0..rng.below(41) as u32)
                .map(|pe| {
                    let len = if rng.chance(0.25) { 0 } else { rng.below(50) };
                    let shape = rng.below(4) as usize;
                    shapes_seen[shape] += u32::from(len > 1);
                    let mut t = rng.below(8);
                    (0..len)
                        .map(|_| {
                            t = match shape {
                                0 => t + 1 + rng.below(3), // as captured
                                1 | 3 => t + rng.below(2), // repeats
                                _ => rng.below(40),        // unordered
                            };
                            let issuer = if shape == 3 { pe / 2 + rng.below(2) as u32 } else { pe };
                            serial += 1;
                            ProtoEvent { arg: serial, ..ev(t, issuer) }
                        })
                        .collect()
                })
                .collect();
            assert_eq!(merge(&streams), merge_by_sorting(&streams), "seed {seed}");
        }
        assert!(shapes_seen.iter().all(|&n| n > 100), "{shapes_seen:?}");
        assert!(merge(&[]).is_empty());
    }

    /// An operand as the codec must carry it: 0, `u64::MAX`, one byte,
    /// or any width.
    fn operand(rng: &mut SplitMix64) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(256),
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    /// Seeded logs over every op, 0 and `u64::MAX` operands, `len` > 1,
    /// `prev == arg2` and not, rank 65,535, attempt numbers that wrap and
    /// per-issuer clocks that jump anywhere: `iter()` returns the input
    /// exactly, and `len`, `is_empty`, `width`, `PartialEq` and
    /// `FromIterator` agree with the decoded `Vec`.
    #[test]
    fn the_log_decodes_to_exactly_what_was_pushed() {
        let ranks = [0, 1, 2, 63, 200, 65_535];
        let mut seen = [0u32; 6];
        for seed in 0..300 {
            let mut rng = SplitMix64::new(seed);
            let events: Vec<ProtoEvent> = (0..rng.below(120))
                .map(|_| {
                    let arg2 = operand(&mut rng);
                    let e = ProtoEvent {
                        t_ns: operand(&mut rng),
                        issuer: ranks[rng.below(6) as usize],
                        target: ranks[rng.below(6) as usize],
                        offset: operand(&mut rng) as u32,
                        len: if rng.chance(0.5) { 1 } else { operand(&mut rng) as u32 },
                        site: operand(&mut rng) as u16,
                        // Around the wrap, or anywhere.
                        attempt: if rng.chance(0.8) {
                            u32::MAX.wrapping_add(rng.below(4) as u32)
                        } else {
                            rng.next_u64() as u32
                        },
                        op: ProtoOp::ALL[rng.below(9) as usize],
                        arg: operand(&mut rng),
                        arg2,
                        prev: if rng.chance(0.3) { arg2 } else { operand(&mut rng) },
                    };
                    seen[0] |= 1 << e.op as u32;
                    seen[1] += u32::from(e.prev == e.arg2 && e.arg2 != 0);
                    seen[2] += u32::from(e.issuer == 65_535);
                    seen[3] += u32::from(e.attempt < 3);
                    seen[4] += u32::from(e.len > 1);
                    seen[5] += u32::from(e.arg == u64::MAX);
                    e
                })
                .collect();
            let log: ProtoLog = events.iter().copied().collect();
            assert_eq!(log.iter().collect::<Vec<_>>(), events, "seed {seed}");
            assert_eq!(log.iter().len(), events.len());
            assert_eq!((log.len(), log.is_empty()), (events.len(), events.is_empty()));
            let width = events.iter().map(|e| e.issuer.max(e.target) as usize + 1).max();
            assert_eq!(log.width(), width.unwrap_or(0));
            assert_eq!(log.iter().collect::<ProtoLog>(), log, "re-encoding the decoded events");
            if let Some((first, rest)) = events.split_first() {
                let moved = ProtoEvent { prev: first.prev ^ 1, ..*first };
                assert_ne!(std::iter::once(moved).chain(rest.iter().copied()).collect::<ProtoLog>(), log);
            }
        }
        assert_eq!(seen[0], (1 << 9) - 1, "every op");
        assert!(seen[1..].iter().all(|&n| n > 100), "{seen:?}");
    }

    /// An `Explore` log: the schedule runs PE 1 long after PE 0's clock
    /// passed it, so the global clock goes backwards while each issuer's
    /// rises. Deltas are per issuer, so the log round-trips.
    #[test]
    fn a_log_whose_global_clock_goes_backwards_round_trips() {
        let events = vec![
            ProtoEvent { attempt: 1, ..ev(900, 0) },
            ProtoEvent { attempt: 1, ..ev(3, 1) },
            ProtoEvent { attempt: 2, ..ev(901, 0) },
            ProtoEvent { attempt: 7, ..ev(4, 1) },
            ev(0, 2),
            ProtoEvent { attempt: 7, ..ev(9, 1) },
        ];
        let log: ProtoLog = events.iter().copied().collect();
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        assert_eq!(format!("{log:?}"), format!("{events:?}"));
    }

    #[test]
    fn display_is_compact() {
        let s = ev(5, 2).to_string();
        assert!(s.contains("pe2->pe0"), "{s}");
        assert!(s.contains("fetch_add@9+1"), "{s}");
    }
}
