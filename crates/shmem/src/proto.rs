//! Protocol op-trace capture (`WorldConfig::capture_proto`).
//!
//! When capture is enabled, every *site-annotated* one-sided operation a
//! PE issues is recorded as a [`ProtoEvent`] at its serialization point:
//! inside the virtual-time gate, timestamped with the issuer's clock
//! *before* the op's cost is charged. Because the engine applies effects
//! in nondecreasing `(clock, rank)` order, sorting the merged per-PE
//! streams by `(t_ns, issuer)` reconstructs the exact global order in
//! which the memory effects were applied — which is what a refinement
//! check needs to replay. Each stream is already in that order, so
//! [`merge_events`] is a k-way merge ([`merge_ordered`]), not a sort.
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

/// One captured protocol operation, in issuer-local order. See the
/// module docs for the merge rule that recovers the global order.
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

// The attempt number sits in what was padding: a capture costs what it did.
const _: () = assert!(std::mem::size_of::<ProtoEvent>() == 56);

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

/// Merge per-PE event streams into the global serialization order.
///
/// Correct because (a) each PE's own events carry strictly increasing
/// timestamps (every gated op advances the issuer's clock by ≥ 1 ns
/// after capture), and (b) the engine admits effects in nondecreasing
/// `(clock, rank)` order, so `(t_ns, issuer)` is exactly the key the
/// gate serialized on.
///
/// The result is what a stable sort of the concatenated streams by
/// `(t_ns, issuer)` gives — equal keys in stream order, then in
/// position order — for *every* input: [`merge_ordered`] over the
/// streams, each taken as [`ordered`] finds it (no capture produces an
/// unordered one).
pub fn merge_events<S: AsRef<[ProtoEvent]>>(per_pe: &[S]) -> Vec<ProtoEvent> {
    let key = |e: &ProtoEvent| (e.t_ns, e.issuer);
    let streams = per_pe.iter().map(|s| ordered(s.as_ref().iter().copied(), key));
    let mut merged = Vec::with_capacity(per_pe.iter().map(|s| s.as_ref().len()).sum());
    merged.extend(merge_ordered(streams.collect(), key));
    merged
}

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

    #[test]
    fn merge_orders_by_time_then_rank() {
        let merged = merge_events(&[
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
            assert_eq!(merge_events(&streams), merge_by_sorting(&streams), "seed {seed}");
        }
        assert!(shapes_seen.iter().all(|&n| n > 100), "{shapes_seen:?}");
        assert!(merge_events::<Vec<ProtoEvent>>(&[]).is_empty());
    }

    #[test]
    fn display_is_compact() {
        let s = ev(5, 2).to_string();
        assert!(s.contains("pe2->pe0"), "{s}");
        assert!(s.contains("fetch_add@9+1"), "{s}");
    }
}
