//! # sws-check — bounded model checker and protocol linter for the
//! steal-protocol state machines
//!
//! Four engines, all `std`-only like the rest of the workspace:
//!
//! 1. **A loom-style bounded model checker.** [`mem::Memory`] gives the
//!    one-sided op surface an operational release/acquire semantics
//!    (per-word modification orders, vector clocks, legal-stale-read
//!    branching). It is keyed by catalog site: an op names its
//!    [`sws_core::AtomicSite`], and the ordering, the word and the op
//!    shapes the site admits are read from the site's row. [`machine`] is
//!    the one scenario machine — a scripted owner and `n` thieves over a
//!    ring, one atomic op per step, with the steps, the `World` impl and
//!    the end checks every protocol shares; the `sws` and `sdc` modules
//!    add each protocol's own owner and thief steps, reusing the
//!    production `Layout`/`StealPolicy`/`Ring` arithmetic and claim
//!    decode from `sws-core`; [`explore`] enumerates every schedule of
//!    small scenarios under a preemption bound with state-hash pruning.
//!    Runtime monitors and end-state checks assert the protocol invariant
//!    catalog (task conservation, field disjointness/decode exactness,
//!    epoch-lock semantics, asteals monotonicity and overflow freedom,
//!    completion reconciliation — see `DESIGN.md` §7).
//!
//!    [`audit`] then re-runs the scenarios with each site's ordering
//!    weakened one site at a time and renders the load-bearing verdicts
//!    into the checked-in `ORDERINGS.md`.
//!
//! 2. **A source-level protocol linter** ([`lint`], shipped as the
//!    `sws-lint` binary), enforcing the structural rules that keep the
//!    checker's model honest: no raw stealval bit-surgery outside
//!    `stealval.rs`, no `Relaxed`/`SeqCst` orderings outside the
//!    ratcheted allowlist, no `unwrap` on fallible `try_*` op results in
//!    protocol crates, no wall-clock time outside the virtual-time
//!    layer, `// ordering:` site comments on every protocol RMW —
//!    checked for consistency against the `ORDERINGS.md` catalog — and
//!    a `// SAFETY:` comment on every `unsafe` block.
//!
//! 3. **A trace-conformance (refinement) checker** ([`conform`], shipped
//!    as the `sws-check` binary's `conform` subcommand): production runs
//!    executed with `RunConfig::with_capture_proto()` emit their
//!    site-annotated op trace, one log in the order the effects applied,
//!    and [`conform::replay`] feeds it through
//!    word-exact abstract victim machines, reporting the first
//!    transition the protocol does not allow (with a ddmin-shrunken
//!    witness). This closes the loop between the model checker's
//!    abstract machines and the production queue code.
//!
//! 4. **A live exploration scheduler** ([`live`], shipped as the
//!    `sws-check` binary's `explore` subcommand): the *real*
//!    `SwsQueue`/`SdcQueue` — not a model — run under
//!    `sws_shmem::explore::ExploreGate`: the PEs run one at a time on
//!    the calling thread, and every gated op is a scheduling choice
//!    point. [`live::explore_scenario`] searches the interleaving space
//!    breadth-first under an injected-preemption bound, branching only
//!    at dependent op pairs (same [`sws_core::DepClass`], overlapping
//!    words, at least one writer — DPOR-style pruning) and checking
//!    per-tag task conservation plus panic-freedom on every schedule.
//!    Counterexamples are ddmin-shrunk to a replayable schedule file.

#![warn(missing_docs)]

pub mod audit;
pub mod conform;
pub mod explore;
pub mod lint;
pub mod live;
pub mod machine;
pub mod mem;
pub mod necessity;
mod sdc;
pub mod shrink;
mod sws;

pub use explore::{explore, Chooser, Config, Failure, Stats, World};
pub use machine::{all_scenarios, Machine};
pub use mem::{Memory, OrdTable, Violation};
pub use shrink::ddmin;

/// One scripted owner operation in a scenario. The owner thread executes
/// the script in order, decomposed into single-atomic-op steps; thieves
/// run concurrently against it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum OwnerOp {
    /// Produce a task into the local (high) end of the ring; executes it
    /// inline if the ring is full.
    Enqueue,
    /// Expose the older half of the local portion to thieves.
    Release,
    /// Take back half of the unclaimed shared portion (local deque must
    /// be empty).
    Acquire,
    /// Run one reclaim pass over the completion arrays.
    Progress,
    /// Close the gate and drain every outstanding steal.
    Retire,
    /// Pop and execute the whole local portion.
    PopAll,
}
