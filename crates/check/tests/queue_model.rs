//! Model-based randomized tests: random owner-operation sequences against
//! a reference multiset model (single PE — no thieves), and randomized
//! two-PE steal scripts. The invariant under test is conservation: every
//! enqueued task is popped or stolen exactly once, never duplicated,
//! never lost, across any interleaving of release/acquire/progress.
//!
//! Sequences are generated from seeded `SplitMix64` streams, so every
//! case is reproducible from the seed printed in a failure message — and
//! a failing owner-op sequence is additionally minimized with the shared
//! [`ddmin`] delta-debugging shrinker before it is reported.

use std::collections::BTreeMap;

use sws_check::shrink::ddmin;
use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
use sws_shmem::rng::SplitMix64;
use sws_shmem::{run_world, ShmemCtx, WorldConfig};
use sws_task::TaskDescriptor;

#[derive(Copy, Clone, Debug)]
enum Op {
    Enqueue,
    Pop,
    Release,
    Acquire,
    Progress,
}

/// Weighted op draw matching the old proptest strategy: enqueue/pop 3×
/// the weight of release/acquire/progress.
fn draw_op(rng: &mut SplitMix64) -> Op {
    match rng.below(9) {
        0..=2 => Op::Enqueue,
        3..=5 => Op::Pop,
        6 => Op::Release,
        7 => Op::Acquire,
        _ => Op::Progress,
    }
}

fn task(tag: u64) -> TaskDescriptor {
    TaskDescriptor::new(1, &tag.to_le_bytes())
}

fn tag_of(t: &TaskDescriptor) -> u64 {
    u64::from_le_bytes(t.payload().try_into().unwrap())
}

/// Drive one queue through `ops` on a single PE and check conservation
/// against the reference multiset model; `Err` carries the first
/// divergence (this is the ddmin predicate, so it must not panic).
fn try_drive_single_pe(ops: &[Op], use_sws: bool) -> Result<(), String> {
    let world = WorldConfig::virtual_time(1, 1 << 14);
    let ops = ops.to_vec();
    let out = run_world(world, move |ctx| -> Result<(), String> {
        let cfg = QueueConfig::new(64, 24);
        let mut q: Box<dyn StealQueue + '_> = if use_sws {
            Box::new(SwsQueue::new(ctx, cfg))
        } else {
            Box::new(SdcQueue::new(ctx, cfg))
        };
        let mut next_tag = 0u64;
        // tag -> times seen popped (model: every tag exactly once).
        let mut outstanding: BTreeMap<u64, ()> = BTreeMap::new();

        for &op in &ops {
            match op {
                Op::Enqueue => {
                    if q.enqueue(&task(next_tag)) {
                        outstanding.insert(next_tag, ());
                    }
                    next_tag += 1;
                }
                Op::Pop => {
                    if let Some(t) = q.pop_local() {
                        let tag = tag_of(&t);
                        if outstanding.remove(&tag).is_none() {
                            return Err(format!("popped unknown or duplicate tag {tag}"));
                        }
                    }
                }
                Op::Release => {
                    let _ = q.release();
                }
                Op::Acquire => {
                    if q.local_count() == 0 {
                        let _ = q.acquire();
                    }
                }
                Op::Progress => q.progress(),
            }
            // Structural invariant: the queue's view of live tasks equals
            // the model's outstanding count.
            let live = q.local_count() + q.shared_estimate();
            if live as usize != outstanding.len() {
                return Err(format!(
                    "queue live count {live} diverged from model {}",
                    outstanding.len()
                ));
            }
        }
        // Drain: everything outstanding must come back exactly once.
        loop {
            while let Some(t) = q.pop_local() {
                let tag = tag_of(&t);
                if outstanding.remove(&tag).is_none() {
                    return Err(format!("duplicate {tag} in drain"));
                }
            }
            if q.local_count() == 0 && !q.acquire() {
                break;
            }
        }
        if !outstanding.is_empty() {
            return Err(format!(
                "lost tasks: {:?}",
                outstanding.keys().collect::<Vec<_>>()
            ));
        }
        Ok(())
    })
    .unwrap();
    out.results.into_iter().next().unwrap()
}

fn drive_single_pe(ops: &[Op], use_sws: bool) {
    if let Err(e) = try_drive_single_pe(ops, use_sws) {
        panic!("{e}");
    }
}

fn owner_ops_conserve_tasks(use_sws: bool, seed: u64) {
    for case in 0..48u64 {
        let mut rng = SplitMix64::stream(seed, case);
        let len = 1 + rng.below(119) as usize;
        let ops: Vec<Op> = (0..len).map(|_| draw_op(&mut rng)).collect();
        if let Err(e) = try_drive_single_pe(&ops, use_sws) {
            let min = ddmin(&ops, |s| try_drive_single_pe(s, use_sws).is_err());
            panic!(
                "seed {seed:#x} case {case}: {e}\n\
                 minimized to {} of {} ops: {min:?}",
                min.len(),
                ops.len(),
            );
        }
    }
}

#[test]
fn sws_owner_ops_conserve_tasks() {
    owner_ops_conserve_tasks(true, 0x40DE_1001);
}

#[test]
fn sdc_owner_ops_conserve_tasks() {
    owner_ops_conserve_tasks(false, 0x40DE_1002);
}

#[test]
fn two_pe_random_steal_scripts_conserve_tasks() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::stream(0x40DE_1003, case);
        let n_batches = 1 + rng.below(7) as usize;
        let batches: Vec<u64> = (0..n_batches).map(|_| 1 + rng.below(29)).collect();
        let steal_rounds = 1 + rng.below(11) as u32;
        let use_sws = rng.chance(0.5);

        let total: u64 = batches.iter().sum();
        let batches2 = batches.clone();
        let out = run_world(WorldConfig::virtual_time(2, 1 << 15), move |ctx| {
            let cfg = QueueConfig::new(128, 24);
            let mut q: Box<dyn StealQueue + '_> = if use_sws {
                Box::new(SwsQueue::new(ctx, cfg))
            } else {
                Box::new(SdcQueue::new(ctx, cfg))
            };
            let mut got: Vec<u64> = Vec::new();
            let mut next_tag = 0u64;
            for &batch in &batches2 {
                if ctx.my_pe() == 0 {
                    for _ in 0..batch {
                        assert!(q.enqueue(&task(next_tag)));
                        next_tag += 1;
                    }
                    let _ = q.release();
                } else {
                    next_tag += batch;
                }
                ctx.barrier_all();
                if ctx.my_pe() == 1 {
                    for _ in 0..steal_rounds {
                        match q.steal_from(0) {
                            StealOutcome::Got { .. } => {
                                while let Some(t) = q.pop_local() {
                                    got.push(tag_of(&t));
                                }
                            }
                            _ => break,
                        }
                    }
                    q.flush_completions();
                }
                ctx.barrier_all();
                if ctx.my_pe() == 0 {
                    // Owner drains what remains of this round.
                    loop {
                        while let Some(t) = q.pop_local() {
                            got.push(tag_of(&t));
                        }
                        if q.local_count() == 0 && !q.acquire() {
                            break;
                        }
                    }
                }
                ctx.barrier_all();
            }
            got
        })
        .unwrap();
        let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(all, expect, "case {case}");
    }
}

/// Cross-epoch steal scripts: unlike the phase-barriered test above, the
/// owner keeps enqueueing, releasing and — crucially — *acquiring* while
/// the thief's steals are in flight, so SWS advertisements open and close
/// across epochs with claims outstanding (the gate-swap / in-flight-claim
/// reconciliation path the model checker's `sws_epoch_flip` scenario
/// explores, here against the real queue under the virtual-time
/// scheduler).
#[test]
fn cross_epoch_steals_with_concurrent_owner_churn() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::stream(0x40DE_1004, case);
        let rounds = 2 + rng.below(4) as usize; // 2..=5
        let batch = 4 + rng.below(13); // 4..=16 tasks per round
        let pops = rng.below(6); // owner pops per round
        let steal_attempts = 4 + rng.below(17) as u32;
        let use_sws = case % 2 == 0;

        let total = rounds as u64 * batch;
        let out = run_world(WorldConfig::virtual_time(2, 1 << 15), move |ctx| {
            let cfg = QueueConfig::new(128, 24);
            let mut q: Box<dyn StealQueue + '_> = if use_sws {
                Box::new(SwsQueue::new(ctx, cfg))
            } else {
                Box::new(SdcQueue::new(ctx, cfg))
            };
            let mut got: Vec<u64> = Vec::new();
            let mut next_tag = 0u64;
            if ctx.my_pe() == 0 {
                for _ in 0..rounds {
                    for _ in 0..batch {
                        assert!(q.enqueue(&task(next_tag)));
                        next_tag += 1;
                    }
                    let _ = q.release();
                    for _ in 0..pops {
                        if let Some(t) = q.pop_local() {
                            got.push(tag_of(&t));
                        }
                    }
                    // Cross-epoch churn: take shared work back while
                    // steals may be mid-claim.
                    if q.local_count() == 0 {
                        let _ = q.acquire();
                    }
                    q.progress();
                }
            } else {
                for _ in 0..steal_attempts {
                    match q.steal_from(0) {
                        StealOutcome::Got { .. } => {
                            while let Some(t) = q.pop_local() {
                                got.push(tag_of(&t));
                            }
                        }
                        // Closed gate / empty advert: give the owner a
                        // slice of virtual time and try again.
                        _ => ctx.compute(200),
                    }
                }
                q.flush_completions();
            }
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                loop {
                    while let Some(t) = q.pop_local() {
                        got.push(tag_of(&t));
                    }
                    q.progress();
                    if q.local_count() == 0 && !q.acquire() {
                        break;
                    }
                }
            }
            ctx.barrier_all();
            got
        })
        .unwrap();
        let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(all, expect, "case {case} (sws={use_sws})");
    }
}

/// Deterministic regression companion to the randomized runs: a fixed
/// nasty sequence that exercises release-into-acquire churn on a tiny
/// ring.
#[test]
fn churn_on_tiny_ring() {
    use Op::*;
    let ops = [
        Enqueue, Enqueue, Enqueue, Enqueue, Release, Enqueue, Pop, Pop, Pop, Acquire, Pop, Release,
        Enqueue, Enqueue, Acquire, Pop, Pop, Progress, Release, Acquire, Pop, Pop,
    ];
    drive_single_pe(&ops, true);
    drive_single_pe(&ops, false);
}

/// Helper used by drive_single_pe must exist for both modes; smoke-check
/// the threaded path too (conservation under real concurrency is covered
/// by the protocol tests).
#[test]
fn threaded_single_pe_smoke() {
    run_world(WorldConfig::threaded(1, 1 << 14), |ctx: &ShmemCtx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(32, 24));
        for i in 0..10 {
            assert!(q.enqueue(&task(i)));
        }
        q.release();
        let mut n = 0;
        loop {
            while q.pop_local().is_some() {
                n += 1;
            }
            if !q.acquire() {
                break;
            }
        }
        assert_eq!(n, 10);
    })
    .unwrap();
}
