//! Chaos tests: seeded fault schedules over both queue protocols.
//!
//! Every test runs a complete distribute-steal-drain workload under a
//! deterministic [`FaultPlan`] and asserts *exactly-once task
//! conservation*: each enqueued task is executed exactly once across all
//! PEs, no matter which ops the injector drops, stalls, or which
//! PE crash-stops. Because injection draws from seeded SplitMix64 streams
//! under virtual time, every schedule here is exactly reproducible.
//!
//! The final test pins the zero-overhead claim: attaching an *inactive*
//! plan (no rules) leaves results, queue stats, op counts, and the
//! virtual-time makespan bit-identical to a world with no injector.

use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
use sws_shmem::{
    run_world, FaultPlan, OpClass, OpKind, ShmemCtx, TargetSel, WorldConfig, WorldOutput,
};
use sws_task::TaskDescriptor;

fn task(tag: u64) -> TaskDescriptor {
    TaskDescriptor::new(1, &tag.to_le_bytes())
}

fn tag_of(t: &TaskDescriptor) -> u64 {
    u64::from_le_bytes(t.payload().try_into().unwrap())
}

fn make_queue<'a>(ctx: &'a ShmemCtx, use_sws: bool, grace_ns: u64) -> Box<dyn StealQueue + 'a> {
    let cfg = QueueConfig::new(256, 24).with_reclaim_grace_ns(grace_ns);
    if use_sws {
        Box::new(SwsQueue::new(ctx, cfg))
    } else {
        Box::new(SdcQueue::new(ctx, cfg))
    }
}

/// Per-PE record a chaos run returns: the tags this PE executed plus its
/// queue counters (as a `Debug` string, for bit-identity comparisons).
type PeOut = (Vec<u64>, String);

/// One distribute-steal-drain round: PE 0 enqueues `n_tasks` tagged tasks
/// and releases them; every other PE steals from PE 0 until the
/// advertisement is exhausted; after a barrier the owner retires the
/// queue and drains whatever remains (including blocks recovered from
/// poisoned or abandoned claims). Returns per-PE executed tags + stats.
fn run_chaos(
    use_sws: bool,
    n_pes: usize,
    n_tasks: u64,
    plan: Option<FaultPlan>,
    grace_ns: u64,
) -> WorldOutput<PeOut> {
    let mut world = WorldConfig::virtual_time(n_pes, 1 << 16);
    if let Some(plan) = plan {
        world = world.with_faults(plan);
    }
    run_world(world, move |ctx| {
        let mut q = make_queue(ctx, use_sws, grace_ns);
        let mut tags: Vec<u64> = Vec::new();
        if ctx.my_pe() == 0 {
            for t in 0..n_tasks {
                assert!(q.enqueue(&task(t)));
            }
            let _ = q.release();
        }
        ctx.barrier_all();
        if ctx.my_pe() != 0 {
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                assert!(attempts <= 500, "thief pe {} livelocked", ctx.my_pe());
                match q.steal_from(0) {
                    StealOutcome::Got { .. } => {
                        attempts = 0;
                        while let Some(t) = q.pop_local() {
                            tags.push(tag_of(&t));
                        }
                    }
                    StealOutcome::Empty => break,
                    // Transient: closed gate, dropped claim, aborted
                    // block — the injected op charged its timeout, so
                    // virtual time advances and the loop terminates.
                    StealOutcome::Closed
                    | StealOutcome::Failed { .. }
                    | StealOutcome::Aborted { .. } => {}
                }
            }
            q.flush_completions();
        }
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            // Retire waits out every in-flight claim (completion, poison,
            // or grace reclaim), then the drain below owns the rest.
            q.retire();
            loop {
                while let Some(t) = q.pop_local() {
                    tags.push(tag_of(&t));
                }
                if q.local_count() == 0 && !q.acquire() {
                    break;
                }
            }
        }
        (tags, format!("{:?}", q.stats()))
    })
    .expect("chaos world failed")
}

/// Every task executed exactly once across all PEs.
fn assert_conserved(out: &WorldOutput<PeOut>, n_tasks: u64, label: &str) {
    let mut all: Vec<u64> = out
        .results
        .iter()
        .flat_map(|(tags, _)| tags.iter().copied())
        .collect();
    all.sort_unstable();
    let expect: Vec<u64> = (0..n_tasks).collect();
    assert_eq!(all, expect, "{label}: task conservation violated");
}

/// Pull a named counter out of the `Debug` rendering of `QueueStats`.
fn counter(stats_dbg: &str, name: &str) -> u64 {
    let at = stats_dbg
        .find(&format!("{name}: "))
        .unwrap_or_else(|| panic!("counter {name} missing in {stats_dbg}"));
    stats_dbg[at + name.len() + 2..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

// --- Schedule 1: transient random drops --------------------------------

#[test]
fn sws_transient_drops_conserve_tasks() {
    let mut retried = 0;
    for seed in [0xC4A0_0001u64, 0xC4A0_0002, 0xC4A0_0003] {
        let plan = FaultPlan::seeded(seed).with_drop(OpClass::All, TargetSel::Any, 0.15);
        let out = run_chaos(true, 4, 160, Some(plan), 20_000);
        assert_conserved(&out, 160, "sws transient drops");
        retried += out
            .results
            .iter()
            .map(|(_, s)| counter(s, "steals_retried"))
            .sum::<u64>();
    }
    assert!(retried > 0, "15% drop rate must force retries");
}

#[test]
fn sdc_transient_drops_conserve_tasks() {
    let mut retried = 0;
    for seed in [0xC4A0_0011u64, 0xC4A0_0012, 0xC4A0_0013] {
        let plan = FaultPlan::seeded(seed).with_drop(OpClass::All, TargetSel::Any, 0.10);
        let out = run_chaos(false, 4, 160, Some(plan), 20_000);
        assert_conserved(&out, 160, "sdc transient drops");
        retried += out
            .results
            .iter()
            .map(|(_, s)| counter(s, "steals_retried"))
            .sum::<u64>();
    }
    assert!(retried > 0, "10% drop rate must force retries");
}

// --- Schedule 2: a stall window on the victim --------------------------

#[test]
fn stall_window_conserves_tasks() {
    for (use_sws, seed) in [(true, 0xC4A0_0101u64), (false, 0xC4A0_0102)] {
        let plan = FaultPlan::seeded(seed).with_stall(0, 20_000, 60_000);
        let out = run_chaos(use_sws, 3, 120, Some(plan), 20_000);
        assert_conserved(&out, 120, "stall window");
    }
}

// --- Schedule 3: targeted copy loss → poisoned completion --------------

#[test]
fn sws_poisoned_completion_returns_block_to_owner() {
    // Drop every Get aimed at the victim until 8 have failed: the first
    // two steals claim a block, exhaust their copy retries, and poison
    // the completion slot; the owner re-enqueues both blocks. A thief
    // writes no completion word later than half the grace after its
    // claim, so the grace must outlast two copy budgets (≈ 100 µs each).
    let plan =
        FaultPlan::seeded(0xC4A0_1001).with_drop_limited(OpClass::Gets, TargetSel::Pe(0), 1.0, 8);
    let out = run_chaos(true, 2, 64, Some(plan), 300_000);
    assert_conserved(&out, 64, "sws poison");
    let (_, owner) = &out.results[0];
    let (_, thief) = &out.results[1];
    assert!(
        counter(owner, "completions_poisoned") >= 1,
        "owner saw no poisoned completion: {owner}"
    );
    assert!(
        counter(thief, "steals_aborted") >= 1,
        "thief reported no aborted steal: {thief}"
    );
}

// --- Schedule 4: lost completions → owner grace reclaim ----------------

#[test]
fn sws_grace_reclaim_recovers_abandoned_claims() {
    // Drop every compare-swap aimed at the victim until 8 have failed:
    // thieves claim and copy blocks but can neither confirm completion
    // nor poison the slot, abandoning the claim. The owner's grace-period
    // reclaim takes both blocks back.
    let plan = FaultPlan::seeded(0xC4A0_1002).with_drop_limited(
        OpClass::Kind(OpKind::AtomicCompareSwap),
        TargetSel::Pe(0),
        1.0,
        8,
    );
    let out = run_chaos(true, 2, 64, Some(plan), 5_000);
    assert_conserved(&out, 64, "sws grace reclaim");
    let (_, owner) = &out.results[0];
    let (_, thief) = &out.results[1];
    assert!(
        counter(owner, "claims_reclaimed") >= 1,
        "owner reclaimed nothing: {owner}"
    );
    assert!(
        counter(thief, "steals_aborted") >= 1,
        "thief reported no aborted steal: {thief}"
    );
}

// --- Schedule 5: SDC lock-handshake failure ----------------------------

#[test]
fn sdc_failed_metadata_read_releases_lock() {
    // Drop the thief's metadata Gets until 4 have failed: the thief holds
    // the victim's lock, cannot read head/split, and must hand the lock
    // back (insisting on the unlock) before reporting failure. A wedged
    // lock would livelock the later successful steals.
    let plan =
        FaultPlan::seeded(0xC4A0_2001).with_drop_limited(OpClass::Gets, TargetSel::Pe(0), 1.0, 4);
    let out = run_chaos(false, 2, 64, Some(plan), 20_000);
    assert_conserved(&out, 64, "sdc lock handshake");
    let (_, thief) = &out.results[1];
    assert!(
        counter(thief, "steals_failed") >= 1,
        "thief reported no failed steal: {thief}"
    );
}

// --- Schedule 6: crash-stop victim -------------------------------------

#[test]
fn crash_stop_victim_conserves_tasks() {
    // The victim crash-stops cooperatively: at its crash deadline it
    // retires the queue (draining every outstanding claim), executes
    // what it still owns, marks itself down, and exits without further
    // collectives. VClock barriers release without finished PEs, and
    // thief ops against the downed victim fail with `TargetDown`.
    for (use_sws, seed) in [(true, 0xC4A0_3001u64), (false, 0xC4A0_3002)] {
        let n_tasks = 96u64;
        let plan = FaultPlan::seeded(seed).with_crash(0, 60_000);
        let out = run_world(
            WorldConfig::virtual_time(3, 1 << 16).with_faults(plan),
            move |ctx| {
                let mut q = make_queue(ctx, use_sws, 5_000);
                let mut tags: Vec<u64> = Vec::new();
                if ctx.my_pe() == 0 {
                    for t in 0..n_tasks {
                        assert!(q.enqueue(&task(t)));
                    }
                    let _ = q.release();
                }
                ctx.barrier_all();
                if ctx.my_pe() == 0 {
                    loop {
                        if ctx.crash_due() {
                            q.retire();
                            loop {
                                while let Some(t) = q.pop_local() {
                                    tags.push(tag_of(&t));
                                }
                                if q.local_count() == 0 && !q.acquire() {
                                    break;
                                }
                            }
                            ctx.mark_self_down();
                            break;
                        }
                        ctx.compute(500);
                    }
                } else {
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        assert!(attempts <= 500, "thief pe {} livelocked", ctx.my_pe());
                        match q.steal_from(0) {
                            StealOutcome::Got { .. } => {
                                attempts = 0;
                                while let Some(t) = q.pop_local() {
                                    tags.push(tag_of(&t));
                                }
                            }
                            StealOutcome::Empty | StealOutcome::Closed => break,
                            StealOutcome::Failed { target_down }
                            | StealOutcome::Aborted { target_down } => {
                                if target_down {
                                    break;
                                }
                            }
                        }
                    }
                    q.flush_completions();
                }
                tags
            },
        )
        .expect("crash world failed");
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..n_tasks).collect();
        assert_eq!(all, expect, "crash-stop conservation (sws={use_sws})");
    }
}

// --- Zero-overhead: inactive plans change nothing ----------------------

#[test]
fn inactive_plan_is_bit_identical_to_no_injector() {
    for use_sws in [true, false] {
        let runs: Vec<_> = [
            None,
            Some(FaultPlan::none()),
            // A seed without rules is still inactive: the injector is
            // dropped at world build, not merely quiescent.
            Some(FaultPlan::seeded(7)),
        ]
        .into_iter()
        .map(|plan| {
            let out = run_chaos(use_sws, 3, 120, plan, 200_000);
            assert_conserved(&out, 120, "bit-identical baseline");
            let per_pe: Vec<PeOut> = out.results.clone();
            let ops: Vec<String> = out.stats.per_pe.iter().map(|s| format!("{s:?}")).collect();
            (per_pe, ops, out.virtual_ns.clone(), out.makespan_ns())
        })
        .collect();
        assert_eq!(runs[0], runs[1], "FaultPlan::none() perturbed the run");
        assert_eq!(runs[0], runs[2], "rule-free seeded plan perturbed the run");
    }
}
