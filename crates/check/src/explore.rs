//! Bounded exhaustive interleaving exploration (loom-style).
//!
//! The explorer runs a [`World`] — a set of protocol threads, each
//! advancing one atomic (or local) step per call — by depth-first search
//! over every schedule, with:
//!
//! * **choice replay**: a step that performs a branching load records its
//!   branch factors in a [`Chooser`]; the explorer re-executes the step
//!   from the same parent state with the next choice prefix until the
//!   choice tree is exhausted (sibling enumeration by replay, exactly the
//!   trick loom uses so steps can stay ordinary straight-line code);
//! * a **preemption bound**: switching away from a thread that is still
//!   enabled costs one preemption; schedules above the bound are cut.
//!   Classic context-bounding — most protocol bugs need very few
//!   preemptions, and the bound tames the factorial blowup;
//! * **state-hash pruning**: a (world, last-thread) state already visited
//!   with as few or fewer preemptions is not re-explored. This also
//!   bounds spin loops (an owner polling for a free slot re-creates the
//!   same state and is pruned, while sibling branches let the thief make
//!   progress). States are keyed by 64-bit hash; with the ≲10⁶ states of
//!   our scenarios a collision is vanishingly unlikely and would only
//!   under-explore, never fabricate a violation.
//!
//! A run must reach at least one end state (all threads done), at which
//! point the world's end-state invariants are checked. Any violation
//! aborts the search and is reported with the schedule that produced it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::mem::Violation;

/// Records and replays the nondeterministic choices of one step.
pub struct Chooser<'a> {
    prefix: &'a [u32],
    pos: usize,
    factors: Vec<u32>,
}

impl<'a> Chooser<'a> {
    fn new(prefix: &'a [u32]) -> Chooser<'a> {
        Chooser {
            prefix,
            pos: 0,
            factors: Vec::new(),
        }
    }

    /// Choose one of `n` alternatives (replaying the prefix, defaulting
    /// to 0 past it).
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        let d = if self.pos < self.prefix.len() {
            self.prefix[self.pos] as usize
        } else {
            0
        };
        self.factors.push(n as u32);
        self.pos += 1;
        d.min(n - 1)
    }

    /// The next choice prefix in odometer order, or `None` when this
    /// step's choice tree is exhausted.
    fn next_prefix(&self) -> Option<Vec<u32>> {
        let mut digits: Vec<u32> = (0..self.factors.len())
            .map(|i| {
                if i < self.prefix.len() {
                    self.prefix[i]
                } else {
                    0
                }
            })
            .collect();
        for i in (0..digits.len()).rev() {
            if digits[i] + 1 < self.factors[i] {
                digits[i] += 1;
                digits.truncate(i + 1);
                return Some(digits);
            }
        }
        None
    }
}

/// A model-checkable protocol world: threads stepping over a shared
/// [`crate::mem::Memory`], plus end-state invariants.
pub trait World: Clone + Hash {
    /// Scenario name (for reports).
    fn name(&self) -> &'static str;
    /// Number of threads.
    fn n_threads(&self) -> usize;
    /// Has thread `t` terminated?
    fn done(&self, t: usize) -> bool;
    /// Advance thread `t` by one step. Runtime monitors report
    /// violations; nondeterminism goes through `ch`.
    fn step(&mut self, t: usize, ch: &mut Chooser) -> Result<(), Violation>;
    /// One-line description of thread `t`'s next step (for traces).
    fn describe(&self, t: usize) -> String;
    /// End-state invariants, checked when every thread is done.
    fn check_end(&self) -> Result<(), Violation>;
    /// The catalog sites the schedule so far issued ops at, as a bit set
    /// over `AtomicSite::id` (a world without a site-keyed memory: none).
    fn issued(&self) -> u32 {
        0
    }
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum preemptions per schedule.
    pub preemptions: u32,
    /// Hard cap on visited states (model-blowup guard).
    pub max_states: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemptions: 4,
            max_states: 3_000_000,
        }
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Distinct states visited.
    pub states: u64,
    /// Schedules that ran every thread to completion.
    pub end_states: u64,
    /// Branches cut by the visited-state table.
    pub pruned: u64,
    /// Every catalog site some explored schedule issued an op at, as a
    /// bit set over `AtomicSite::id`.
    pub sites: u32,
}

/// A violation plus the schedule that reached it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Scenario that failed.
    pub scenario: &'static str,
    /// What went wrong.
    pub violation: Violation,
    /// Steps from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}] {}", self.scenario, self.violation)?;
        for (i, s) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {s}")?;
        }
        Ok(())
    }
}

struct Search<'c> {
    cfg: &'c Config,
    seen: HashMap<u64, u32>,
    stats: Stats,
    trace: Vec<String>,
}

fn state_hash<W: World>(w: &W, last: Option<usize>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    w.hash(&mut h);
    last.hash(&mut h);
    h.finish()
}

impl Search<'_> {
    fn fail<W: World>(&self, w: &W, v: Violation) -> Failure {
        Failure {
            scenario: w.name(),
            violation: v,
            trace: self.trace.clone(),
        }
    }

    fn rec<W: World>(&mut self, w: &W, last: Option<usize>, preempts: u32) -> Result<(), Failure> {
        self.stats.sites |= w.issued();
        let h = state_hash(w, last);
        match self.seen.get(&h) {
            Some(&p) if p <= preempts => {
                self.stats.pruned += 1;
                return Ok(());
            }
            _ => {}
        }
        self.seen.insert(h, preempts);
        self.stats.states += 1;
        if self.stats.states > self.cfg.max_states {
            return Err(self.fail(
                w,
                Violation::StateSpaceExceeded {
                    states: self.stats.states,
                },
            ));
        }

        let enabled: Vec<usize> = (0..w.n_threads()).filter(|&t| !w.done(t)).collect();
        if enabled.is_empty() {
            self.stats.end_states += 1;
            return w.check_end().map_err(|v| self.fail(w, v));
        }

        for &t in &enabled {
            let np = match last {
                Some(l) if l != t && !w.done(l) => preempts + 1,
                _ => preempts,
            };
            if np > self.cfg.preemptions {
                continue;
            }
            let mut prefix: Vec<u32> = Vec::new();
            loop {
                let mut w2 = w.clone();
                let mut ch = Chooser::new(&prefix);
                self.trace.push(format!("t{t}: {}", w.describe(t)));
                w2.step(t, &mut ch).map_err(|v| self.fail(&w2, v))?;
                self.rec(&w2, Some(t), np)?;
                self.trace.pop();
                match ch.next_prefix() {
                    Some(p) => prefix = p,
                    None => break,
                }
            }
        }
        Ok(())
    }
}

/// Exhaustively explore `w0` under `cfg`. Errs on the first violation,
/// on state-space blowup, or if no schedule reaches an end state.
pub fn explore<W: World>(w0: &W, cfg: &Config) -> Result<Stats, Failure> {
    let mut s = Search {
        cfg,
        seen: HashMap::new(),
        stats: Stats::default(),
        trace: Vec::new(),
    };
    s.rec(w0, None, 0)?;
    if s.stats.end_states == 0 {
        return Err(Failure {
            scenario: w0.name(),
            violation: Violation::NoEndState,
            trace: Vec::new(),
        });
    }
    Ok(s.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: two threads each do `store(me); load(other)`. The
    /// classic store-buffering shape *under an interleaving semantics*
    /// still always has at least one thread observe the other — unless
    /// loads may read stale values, which our Memory allows; this world
    /// uses direct fields, so all interleavings see at least one store.
    #[derive(Clone, Hash)]
    struct Toy {
        pc: [u8; 2],
        flag: [bool; 2],
        saw: [bool; 2],
        /// If true, end-check fails when neither thread saw the other —
        /// a property that interleavings *do* uphold, so exploration
        /// passes. Inverted (expect_both), the checker must find the
        /// schedule where one thread misses the other.
        expect_both: bool,
    }

    impl World for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn n_threads(&self) -> usize {
            2
        }
        fn done(&self, t: usize) -> bool {
            self.pc[t] == 2
        }
        fn step(&mut self, t: usize, _ch: &mut Chooser) -> Result<(), Violation> {
            match self.pc[t] {
                0 => self.flag[t] = true,
                1 => self.saw[t] = self.flag[1 - t],
                _ => unreachable!(),
            }
            self.pc[t] += 1;
            Ok(())
        }
        fn describe(&self, t: usize) -> String {
            format!("pc={}", self.pc[t])
        }
        fn check_end(&self) -> Result<(), Violation> {
            let ok = if self.expect_both {
                self.saw[0] && self.saw[1]
            } else {
                self.saw[0] || self.saw[1]
            };
            if ok {
                Ok(())
            } else {
                Err(Violation::Protocol {
                    rule: "conservation",
                    what: "toy property failed".into(),
                })
            }
        }
    }

    fn toy(expect_both: bool) -> Toy {
        Toy {
            pc: [0; 2],
            flag: [false; 2],
            saw: [false; 2],
            expect_both,
        }
    }

    #[test]
    fn true_property_explores_clean() {
        let stats = explore(&toy(false), &Config::default()).expect("no violation");
        assert!(stats.end_states >= 2);
    }

    #[test]
    fn false_property_is_found_with_one_preemption() {
        // saw[0] && saw[1] fails when t0 runs to completion first: t0
        // loads flag[1] before t1 stores it. That schedule needs zero
        // preemptions, so even bound 0 finds it.
        let cfg = Config {
            preemptions: 0,
            max_states: 10_000,
        };
        let f = explore(&toy(true), &cfg).expect_err("must find the bad schedule");
        assert_eq!(f.violation.kind(), "conservation");
        assert!(!f.trace.is_empty());
    }

    #[test]
    fn preemption_bound_cuts_schedules() {
        let full = explore(
            &toy(false),
            &Config {
                preemptions: 4,
                max_states: 10_000,
            },
        )
        .unwrap();
        let bounded = explore(
            &toy(false),
            &Config {
                preemptions: 0,
                max_states: 10_000,
            },
        )
        .unwrap();
        assert!(bounded.end_states < full.end_states);
        assert!(bounded.end_states >= 2);
    }

    /// Chooser odometer: a step with two choice points (3 × 2) must be
    /// replayed 6 times with distinct digit strings.
    #[test]
    fn chooser_enumerates_the_product() {
        let mut seen = Vec::new();
        let mut prefix: Vec<u32> = Vec::new();
        loop {
            let mut ch = Chooser::new(&prefix);
            let a = ch.pick(3);
            let b = ch.pick(2);
            seen.push((a, b));
            match ch.next_prefix() {
                Some(p) => prefix = p,
                None => break,
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }
}
