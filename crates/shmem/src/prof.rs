//! Per-site contention counters (`WorldConfig::profile_sites`).
//!
//! The telemetry pipeline needs to know *where* the protocols contend —
//! which `AtomicSite` burns CAS retries, which spin-poll read runs hot —
//! without arming the full proto-capture layer. This module is the
//! cheap half of that bargain: plain per-PE counters, indexed by the
//! raw site id the protocol code already annotates through
//! [`crate::ShmemCtx::proto_site`], bumped with ordinary stores by the
//! op layer's one observation point. No shared atomics, no clock
//! interaction: profiling a run cannot perturb its virtual-time results
//! (the differential suites pin this).
//!
//! `sws-shmem` deliberately does not know the `AtomicSite` catalog —
//! ids travel as raw `u16` and are decoded back to names by the obs
//! layer via `AtomicSite::from_id`.

use crate::proto::ProtoOp;

/// Plain per-PE event counters for one annotated atomic site.
///
/// Semantics per field (all cumulative over the run):
/// - `rmw`: fetch-add / swap / non-blocking add ops issued at the site.
/// - `cas_won` / `cas_lost`: compare-swap outcomes — `cas_lost` is the
///   direct contention signal (a thief lost the race for the metadata
///   word and must retry or move on).
/// - `loads`: annotated atomic reads; for polling sites (the thief's
///   probe, the owner's stealval read) this is the spin-poll count.
/// - `stores`: annotated atomic writes (including owner-local ring
///   record writes, which thieves race to copy).
/// - `bulk`: annotated block transfers (`get`/`put`/gather).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Remote RMW ops (fetch-add, swap, add-nbi) at this site.
    pub rmw: u64,
    /// Compare-swaps that succeeded.
    pub cas_won: u64,
    /// Compare-swaps that lost the race (the contention signal).
    pub cas_lost: u64,
    /// Annotated atomic reads (spin-poll count for polling sites).
    pub loads: u64,
    /// Annotated atomic / owner-local stores.
    pub stores: u64,
    /// Annotated bulk transfers (get/put/gather).
    pub bulk: u64,
}

impl SiteCounters {
    /// Total events recorded at this site.
    pub fn total(&self) -> u64 {
        self.rmw + self.cas_won + self.cas_lost + self.loads + self.stores + self.bulk
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Count one applied op of shape `op` (`won`: a compare-swap's
    /// outcome). An owner-local ring write counts as a [`ProtoOp::Set`].
    #[inline]
    pub fn count(&mut self, op: ProtoOp, won: bool) {
        match op {
            ProtoOp::FetchAdd | ProtoOp::Swap | ProtoOp::AddNbi => self.rmw += 1,
            ProtoOp::CompareSwap if won => self.cas_won += 1,
            ProtoOp::CompareSwap => self.cas_lost += 1,
            ProtoOp::Fetch => self.loads += 1,
            ProtoOp::Set | ProtoOp::SetNbi => self.stores += 1,
            ProtoOp::Get | ProtoOp::Put => self.bulk += 1,
        }
    }

    /// Accumulate another PE's counters for the same site.
    pub fn merge(&mut self, other: &SiteCounters) {
        self.rmw += other.rmw;
        self.cas_won += other.cas_won;
        self.cas_lost += other.cas_lost;
        self.loads += other.loads;
        self.stores += other.stores;
        self.bulk += other.bulk;
    }
}

/// Merge per-PE profiles (vectors indexed by raw site id, possibly of
/// different lengths) into one site-indexed aggregate.
pub fn merge_site_profiles(profiles: &[Vec<SiteCounters>]) -> Vec<SiteCounters> {
    let len = profiles.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = vec![SiteCounters::default(); len];
    for p in profiles {
        for (i, c) in p.iter().enumerate() {
            out[i].merge(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_handles_ragged_profiles() {
        let a = vec![
            SiteCounters { rmw: 1, ..Default::default() },
            SiteCounters { cas_lost: 2, cas_won: 2, ..Default::default() },
        ];
        let b = vec![SiteCounters { rmw: 3, loads: 5, ..Default::default() }];
        let m = merge_site_profiles(&[a, b]);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].rmw, 4);
        assert_eq!(m[0].loads, 5);
        assert_eq!(m[1].cas_lost, 2);
        assert!(!m[1].is_empty());
    }

    #[test]
    fn empty_profile_set_merges_to_empty() {
        assert!(merge_site_profiles(&[]).is_empty());
    }
}
