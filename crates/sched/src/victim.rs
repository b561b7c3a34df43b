//! Random victim selection.
//!
//! Cilk-style uniform random victim choice is provably efficient for
//! work stealing (Blumofe & Leiserson); both Scioto and SWS use it. Each
//! PE derives a private RNG stream from the run seed so virtual-time runs
//! are reproducible bit-for-bit while different PEs stay uncorrelated.
//!
//! Under fault injection the selector also holds the *exclusion set* —
//! the one record of which victims the scheduler has quarantined
//! (crash-stopped or persistently failing PEs). They are skipped by
//! [`VictimSelector::next_live_victim`], so a degraded world keeps
//! stealing from the PEs that remain.

use sws_shmem::rng::SplitMix64;

/// How victims are chosen.
///
/// Uniform random choice is the provably-efficient Cilk/Scioto/SWS
/// default. The hierarchical policy models the locality-aware extensions
/// the paper cites (SLAW, HotSLAW, Habanero hierarchical place trees):
/// with node-aware network costs, preferring same-node victims turns
/// most steal round trips into shared-memory latencies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum VictimPolicy {
    /// Uniform over all other PEs.
    Uniform,
    /// Prefer a victim on the same node with probability `local_pct`%
    /// (falling back to uniform-remote otherwise). `node_size` must
    /// match the network model's topology for the preference to pay off.
    Hierarchical {
        /// PEs per node.
        node_size: usize,
        /// Percent of attempts directed at same-node victims.
        local_pct: u8,
    },
}

/// One bit per PE. Every PE keeps per-target state about every other, P²
/// entries across a world and almost all of them at their default, so
/// each costs a bit of untouched zero page rather than a byte.
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    pub(crate) fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    pub(crate) fn set(&mut self, i: usize, on: bool) {
        let (word, bit) = (&mut self.0[i / 64], 1 << (i % 64));
        *word = if on { *word | bit } else { *word & !bit };
    }
}

/// Seeded victim selector excluding the local PE.
pub struct VictimSelector {
    rng: SplitMix64,
    me: usize,
    n_pes: usize,
    policy: VictimPolicy,
    /// Quarantined PEs, never returned by `next_live_victim`.
    excluded: Bits,
    n_excluded: usize,
}

impl VictimSelector {
    /// Selector for PE `me` of `n_pes`, seeded from the run seed.
    pub fn with_policy(
        seed: u64,
        me: usize,
        n_pes: usize,
        policy: VictimPolicy,
    ) -> VictimSelector {
        assert!(n_pes >= 2, "victim selection needs at least two PEs");
        assert!(me < n_pes);
        VictimSelector {
            rng: SplitMix64::stream(seed, 0x71C7_0000 ^ me as u64),
            me,
            n_pes,
            policy,
            excluded: Bits::new(n_pes),
            n_excluded: 0,
        }
    }

    fn uniform_other(&mut self) -> usize {
        let v = self.rng.below(self.n_pes as u64 - 1) as usize;
        if v >= self.me {
            v + 1
        } else {
            v
        }
    }

    /// Next victim according to the policy; never the local PE. Ignores
    /// the exclusion set — fault-aware callers want
    /// [`Self::next_live_victim`].
    pub fn next_victim(&mut self) -> usize {
        match self.policy {
            VictimPolicy::Uniform => self.uniform_other(),
            VictimPolicy::Hierarchical {
                node_size,
                local_pct,
            } => {
                let node_size = node_size.max(1);
                let node = self.me / node_size;
                let lo = node * node_size;
                let hi = (lo + node_size).min(self.n_pes);
                let node_peers = hi - lo - 1; // excluding me
                let go_local =
                    node_peers > 0 && self.rng.below(100) < local_pct as u64;
                if go_local {
                    let v = lo + self.rng.below(node_peers as u64) as usize;
                    if v >= self.me {
                        v + 1
                    } else {
                        v
                    }
                } else {
                    self.uniform_other()
                }
            }
        }
    }

    /// Remove `pe` from the victim pool (idempotent); `true` when it was
    /// in the pool until now. Panics on `me`.
    pub fn exclude(&mut self, pe: usize) -> bool {
        assert_ne!(pe, self.me, "cannot exclude the local PE");
        let newly = !self.excluded.get(pe);
        if newly {
            self.excluded.set(pe, true);
            self.n_excluded += 1;
        }
        newly
    }

    /// Return `pe` to the victim pool (idempotent) — an elastic PE that
    /// parked (and was quarantined by frustrated thieves) rejoins with a
    /// clean slate. `true` when it had been excluded.
    pub fn include(&mut self, pe: usize) -> bool {
        let was = self.excluded.get(pe);
        if was {
            self.excluded.set(pe, false);
            self.n_excluded -= 1;
        }
        was
    }

    /// Number of victims still in the pool.
    pub fn live_victims(&self) -> usize {
        self.n_pes - 1 - self.n_excluded
    }

    /// Next non-excluded victim, or `None` once every peer is
    /// quarantined. Draws from the policy a few times (preserving its
    /// distribution over the live set), then falls back to a uniform draw
    /// over the live set so a heavily-excluded world stays O(P).
    ///
    /// The fallback must NOT scan forward from a random start: that
    /// weights each live PE by the length of the excluded run preceding
    /// it, so the first survivor after a quarantined block absorbs the
    /// whole block's probability mass and gets hammered by every thief.
    /// Instead draw a rank in `[0, live)` and take the rank-th live PE —
    /// exactly uniform regardless of the exclusion pattern.
    pub fn next_live_victim(&mut self) -> Option<usize> {
        let live = self.live_victims();
        if live == 0 {
            return None;
        }
        for _ in 0..8 {
            let v = self.next_victim();
            if !self.excluded.get(v) {
                return Some(v);
            }
        }
        let mut rank = self.rng.below(live as u64) as usize;
        for v in 0..self.n_pes {
            if v == self.me || self.excluded.get(v) {
                continue;
            }
            if rank == 0 {
                return Some(v);
            }
            rank -= 1;
        }
        unreachable!("live_victims() = {live} but the live scan ran dry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(seed: u64, me: usize, n_pes: usize) -> VictimSelector {
        VictimSelector::with_policy(seed, me, n_pes, VictimPolicy::Uniform)
    }

    #[test]
    fn never_selects_self() {
        for me in 0..5 {
            let mut sel = uniform(42, me, 5);
            for _ in 0..1000 {
                assert_ne!(sel.next_victim(), me);
            }
        }
    }

    #[test]
    fn covers_all_other_pes_roughly_uniformly() {
        let mut sel = uniform(1, 2, 8);
        let mut counts = [0u32; 8];
        for _ in 0..7000 {
            counts[sel.next_victim()] += 1;
        }
        assert_eq!(counts[2], 0);
        for (pe, &c) in counts.iter().enumerate() {
            if pe != 2 {
                // Expected 1000 each; allow generous tolerance.
                assert!((700..1300).contains(&c), "pe {pe}: {c}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_pe() {
        let seq = |seed, me| {
            let mut s = uniform(seed, me, 6);
            (0..50).map(|_| s.next_victim()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7, 3), seq(7, 3));
        assert_ne!(seq(7, 3), seq(8, 3), "different seeds diverge");
        assert_ne!(seq(7, 3), seq(7, 4), "different PEs diverge");
    }

    #[test]
    fn two_pe_world_always_picks_the_peer() {
        let mut sel = uniform(0, 0, 2);
        for _ in 0..10 {
            assert_eq!(sel.next_victim(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_pe_rejected() {
        let _ = uniform(0, 0, 1);
    }

    #[test]
    fn hierarchical_prefers_node_local_victims() {
        let policy = VictimPolicy::Hierarchical {
            node_size: 4,
            local_pct: 80,
        };
        let mut sel = VictimSelector::with_policy(9, 5, 16, policy);
        let mut local = 0;
        let n = 4000;
        for _ in 0..n {
            let v = sel.next_victim();
            assert_ne!(v, 5);
            if (4..8).contains(&v) {
                local += 1;
            }
        }
        // ~80% local plus the uniform fallback's occasional local hits.
        assert!(local > n * 7 / 10, "{local}/{n} local");
        assert!(local < n, "some remote traffic remains");
    }

    #[test]
    fn hierarchical_with_singleton_node_degrades_to_uniform() {
        let policy = VictimPolicy::Hierarchical {
            node_size: 1,
            local_pct: 100,
        };
        let mut sel = VictimSelector::with_policy(3, 0, 4, policy);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(sel.next_victim());
        }
        assert_eq!(seen.len(), 3, "all peers reachable");
    }

    #[test]
    fn hierarchical_last_partial_node() {
        // 10 PEs, nodes of 4: PE 9 lives in the partial node {8, 9}.
        let policy = VictimPolicy::Hierarchical {
            node_size: 4,
            local_pct: 100,
        };
        let mut sel = VictimSelector::with_policy(1, 9, 10, policy);
        for _ in 0..200 {
            let v = sel.next_victim();
            assert_ne!(v, 9);
            assert!(v <= 8, "in range");
        }
    }

    #[test]
    fn exclusion_removes_victims_until_none_remain() {
        let mut sel = uniform(11, 0, 4);
        assert_eq!(sel.live_victims(), 3);
        for _ in 0..100 {
            let v = sel.next_live_victim().unwrap();
            assert!((1..4).contains(&v));
        }
        assert!(sel.exclude(2), "newly excluded");
        assert!(!sel.exclude(2), "idempotent");
        assert_eq!(sel.live_victims(), 2);
        for _ in 0..100 {
            let v = sel.next_live_victim().unwrap();
            assert!(v == 1 || v == 3, "excluded victim drawn");
        }
        sel.exclude(1);
        sel.exclude(3);
        assert_eq!(sel.live_victims(), 0);
        assert_eq!(sel.next_live_victim(), None);
    }

    #[test]
    fn include_reverses_exclusion() {
        let mut sel = uniform(13, 0, 4);
        sel.exclude(1);
        sel.exclude(2);
        sel.exclude(3);
        assert_eq!(sel.next_live_victim(), None);
        assert!(sel.include(2), "was excluded");
        assert!(!sel.include(2), "idempotent");
        assert_eq!(sel.live_victims(), 1);
        for _ in 0..50 {
            assert_eq!(sel.next_live_victim(), Some(2));
        }
        assert!(!sel.include(0)); // never-excluded self: no-op, no underflow
        assert_eq!(sel.live_victims(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot exclude the local PE")]
    fn excluding_self_rejected() {
        uniform(0, 1, 3).exclude(1);
    }

    /// Under heavy exclusion the policy draws almost always miss, so
    /// nearly every return comes from the fallback path. The old
    /// scan-from-a-random-start fallback gave each survivor probability
    /// proportional to the excluded run preceding it — with survivors
    /// {1, 30, 31} of 32 PEs, PE 30 sits behind a 28-PE dead zone and
    /// absorbed ~29/32 of the mass (PE 31 got 1/32). The uniform-rank
    /// fallback must treat all survivors equally.
    #[test]
    fn fallback_is_uniform_over_live_set_under_heavy_exclusion() {
        let n = 32;
        let survivors = [1usize, 30, 31];
        let mut sel = uniform(0xD157, 0, n);
        for pe in 1..n {
            if !survivors.contains(&pe) {
                sel.exclude(pe);
            }
        }
        assert_eq!(sel.live_victims(), survivors.len());
        let trials = 9000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[sel.next_live_victim().unwrap()] += 1;
        }
        let expect = trials / survivors.len() as u32; // 3000 each
        for &pe in &survivors {
            let c = counts[pe];
            assert!(
                (expect * 7 / 10..=expect * 13 / 10).contains(&c),
                "survivor {pe} drawn {c} times (expected ≈{expect}): {counts:?}"
            );
        }
        for (pe, &c) in counts.iter().enumerate() {
            if !survivors.contains(&pe) {
                assert_eq!(c, 0, "excluded PE {pe} drawn");
            }
        }
    }

    /// The exclusion set is a bitset of 64-PE words: a quarantined run that
    /// starts in one word and ends in the next (PEs 60..=70 of 130, with
    /// everything outside 58..=72 gone too) must leave its two neighbours
    /// on either side equally likely, and draw nobody from inside it.
    #[test]
    fn fallback_is_uniform_across_a_word_boundary() {
        let n = 130;
        let survivors = [58usize, 59, 71, 72];
        let mut sel = uniform(0xB175, 129, n);
        for pe in (0..n - 1).filter(|pe| !survivors.contains(pe)) {
            sel.exclude(pe);
        }
        assert_eq!(sel.live_victims(), survivors.len());
        let trials = 8000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[sel.next_live_victim().unwrap()] += 1;
        }
        for (pe, &c) in counts.iter().enumerate() {
            if survivors.contains(&pe) {
                assert!((1400..=2600).contains(&c), "survivor {pe} drawn {c} of {trials}: {counts:?}");
            } else {
                assert_eq!(c, 0, "excluded PE {pe} drawn");
            }
        }
        // Readmitting one PE on each side of the boundary is seen at once.
        assert!(sel.include(63) && sel.include(64));
        let drawn: std::collections::HashSet<_> = (0..400).map(|_| sel.next_live_victim().unwrap()).collect();
        assert!(drawn.contains(&63) && drawn.contains(&64), "{drawn:?}");
    }

    /// Same check through the hierarchical policy: its fallback draws go
    /// through the identical uniform-rank path.
    #[test]
    fn hierarchical_fallback_is_uniform_too() {
        let policy = VictimPolicy::Hierarchical {
            node_size: 4,
            local_pct: 80,
        };
        let n = 16;
        let survivors = [9usize, 10];
        let mut sel = VictimSelector::with_policy(0xD158, 0, n, policy);
        for pe in 1..n {
            if !survivors.contains(&pe) {
                sel.exclude(pe);
            }
        }
        let trials = 6000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[sel.next_live_victim().unwrap()] += 1;
        }
        for &pe in &survivors {
            let c = counts[pe];
            assert!(
                (2100..=3900).contains(&c),
                "survivor {pe} drawn {c} of {trials}: {counts:?}"
            );
        }
    }
}
