//! Protocol-level tests for the SWS and SDC queues: local discipline,
//! steal correctness under concurrency, exact communication counts
//! (paper Fig. 2), and completion-epoch behaviour (Figs. 4–5).
#![allow(clippy::while_let_loop)] // steal loops with a Closed-retry arm

use sws_core::stealval::Layout;
use sws_core::{QueueConfig, SdcQueue, StealOutcome, StealQueue, SwsQueue};
use sws_shmem::{run_world, NetModel, ShmemCtx, WorldConfig, WorldOutput};
use sws_task::TaskDescriptor;

fn cfg_small() -> QueueConfig {
    QueueConfig::new(256, 24)
}

fn world(n: usize) -> WorldConfig {
    WorldConfig::virtual_time(n, 1 << 16)
}

fn task(tag: u64) -> TaskDescriptor {
    TaskDescriptor::new(1, &tag.to_le_bytes())
}

fn tag_of(t: &TaskDescriptor) -> u64 {
    u64::from_le_bytes(t.payload().try_into().unwrap())
}

/// Run the same closure against both queue types.
fn with_both_queues<F>(n_pes: usize, f: F)
where
    F: Fn(&ShmemCtx, &mut dyn StealQueue, &'static str) + Sync,
{
    run_world(world(n_pes), |ctx| {
        let mut q = SwsQueue::new(ctx, cfg_small());
        f(ctx, &mut q, "sws");
    })
    .unwrap();
    run_world(world(n_pes), |ctx| {
        let mut q = SdcQueue::new(ctx, cfg_small());
        f(ctx, &mut q, "sdc");
    })
    .unwrap();
}

#[test]
fn local_lifo_discipline() {
    with_both_queues(1, |_ctx, q, name| {
        for i in 0..10 {
            assert!(q.enqueue(&task(i)), "{name}");
        }
        assert_eq!(q.local_count(), 10);
        for i in (0..10).rev() {
            let t = q.pop_local().unwrap();
            assert_eq!(tag_of(&t), i, "{name}: LIFO order");
        }
        assert!(q.pop_local().is_none());
    });
}

#[test]
fn release_exposes_half_then_acquire_recovers() {
    with_both_queues(1, |_ctx, q, name| {
        for i in 0..16 {
            q.enqueue(&task(i));
        }
        assert!(q.release(), "{name}: release with empty shared");
        assert_eq!(q.local_count(), 8, "{name}");
        assert_eq!(q.shared_estimate(), 8, "{name}");

        // Releasing again while shared work remains must refuse.
        assert!(!q.release(), "{name}: release with shared work");

        // Drain local, then acquire brings back half of the shared 8.
        for _ in 0..8 {
            q.pop_local().unwrap();
        }
        assert!(q.acquire(), "{name}");
        assert_eq!(q.local_count(), 4, "{name}");
        assert_eq!(q.shared_estimate(), 4, "{name}");

        // Pop the remaining 8 (4 local + 4 shared) via repeated acquires.
        let mut got = 0;
        loop {
            while let Some(_t) = q.pop_local() {
                got += 1;
            }
            if !q.acquire() {
                break;
            }
        }
        assert_eq!(got, 8, "{name}: every remaining task recovered once");
    });
}

#[test]
fn released_tasks_are_the_oldest() {
    // The shared portion must hold the *oldest* tasks (stolen FIFO),
    // while the owner keeps popping the newest.
    with_both_queues(1, |_ctx, q, name| {
        for i in 0..8 {
            q.enqueue(&task(i));
        }
        q.release(); // exposes 0..4, keeps 4..8 local
        let newest = q.pop_local().unwrap();
        assert_eq!(tag_of(&newest), 7, "{name}");
    });
}

#[test]
fn two_pe_steal_moves_the_right_tasks() {
    with_both_queues(2, |ctx, q, name| {
        if ctx.my_pe() == 0 {
            for i in 0..100 {
                q.enqueue(&task(i));
            }
            q.release(); // expose 50 (tasks 0..50)
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            match q.steal_from(0) {
                StealOutcome::Got { tasks } => {
                    assert_eq!(tasks, 25, "{name}: steal-half of 50");
                    // Stolen tasks are the oldest: 0..25.
                    let mut tags: Vec<u64> = Vec::new();
                    while let Some(t) = q.pop_local() {
                        tags.push(tag_of(&t));
                    }
                    tags.sort_unstable();
                    assert_eq!(tags, (0..25).collect::<Vec<_>>(), "{name}");
                }
                other => panic!("{name}: expected Got, got {other:?}"),
            }
        }
        ctx.barrier_all();
        q.flush_completions();
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            q.progress();
            assert_eq!(q.stats().reclaimed, 25, "{name}: deferred completion");
        }
    });
}

#[test]
fn steal_from_empty_target_reports_empty() {
    with_both_queues(2, |ctx, q, _name| {
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            assert!(matches!(
                q.steal_from(0),
                StealOutcome::Empty | StealOutcome::Closed
            ));
            assert!(!q.probe(0));
        }
    });
}

/// A captured 2-PE world per protocol: every op one `steal_from` or
/// `probe` issues carries one attempt number, its own, and a PE's numbers
/// rise by one a call — calls made while the sampling window is closed
/// capture nothing but still use theirs.
#[test]
fn each_steal_attempt_stamps_its_ops_with_one_number() {
    /// PE 1's calls against PE 0, with the window open or closed.
    fn calls(ctx: &ShmemCtx, q: &mut dyn StealQueue) {
        if ctx.my_pe() == 0 {
            for i in 0..64 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        // (a steal rather than a probe, the window open)
        let script = [(false, true), (true, true), (false, false), (true, false), (true, true)];
        for (steal, window) in script.into_iter().filter(|_| ctx.my_pe() == 1) {
            ctx.set_capture_window(window);
            if steal {
                assert!(matches!(q.steal_from(0), StealOutcome::Got { .. }));
            } else {
                assert!(q.probe(0));
            }
        }
        ctx.barrier_all();
    }
    /// The captured thief ops as runs of one attempt number: `(attempt, ops)`.
    fn attempts(out: &WorldOutput<()>) -> Vec<(u32, usize)> {
        let mut runs: Vec<(u32, usize)> = Vec::new();
        for e in out.proto.iter().filter(|e| e.issuer == 1 && e.target != e.issuer) {
            match runs.last_mut() {
                Some((attempt, ops)) if *attempt == e.attempt => *ops += 1,
                _ => runs.push((e.attempt, 1)),
            }
        }
        runs
    }
    let world = || world(2).with_capture_proto();
    let sws = run_world(world(), |ctx| calls(ctx, &mut SwsQueue::new(ctx, cfg_small()))).unwrap();
    let sdc = run_world(world(), |ctx| calls(ctx, &mut SdcQueue::new(ctx, cfg_small()))).unwrap();
    let want = |steal_ops| vec![(1, 1), (2, steal_ops), (5, steal_ops)];
    assert_eq!(attempts(&sws), want(3), "SWS");
    assert_eq!(attempts(&sdc), want(6), "SDC");
}

#[test]
fn fig2_sws_steal_is_3_comms_2_blocking() {
    let out = run_world(world(2), |ctx| {
        let mut q = SwsQueue::new(ctx, cfg_small());
        if ctx.my_pe() == 0 {
            for i in 0..64 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        let before = ctx.stats();
        if ctx.my_pe() == 1 {
            assert!(matches!(q.steal_from(0), StealOutcome::Got { .. }));
        }
        let delta = ctx.stats().since(&before);
        ctx.barrier_all();
        (delta.data_ops(), delta.blocking_ops())
    })
    .unwrap();
    // Thief PE 1: exactly 3 one-sided communications, 2 blocking.
    assert_eq!(out.results[1], (3, 2), "SWS steal op counts (Fig. 2)");
    assert_eq!(out.results[0], (0, 0), "owner untouched during steal");
}

#[test]
fn fig2_sdc_steal_is_6_comms_5_blocking() {
    let out = run_world(world(2), |ctx| {
        let mut q = SdcQueue::new(ctx, cfg_small());
        if ctx.my_pe() == 0 {
            for i in 0..64 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        let before = ctx.stats();
        if ctx.my_pe() == 1 {
            assert!(matches!(q.steal_from(0), StealOutcome::Got { .. }));
        }
        let delta = ctx.stats().since(&before);
        ctx.barrier_all();
        (delta.data_ops(), delta.blocking_ops())
    })
    .unwrap();
    // Thief PE 1: exactly 6 one-sided communications, 5 blocking.
    assert_eq!(out.results[1], (6, 5), "SDC steal op counts (Fig. 2)");
    assert_eq!(out.results[0], (0, 0), "owner untouched during steal");
}

#[test]
fn sws_steal_sequence_follows_steal_half() {
    // 8 thieves drain a 150-task advertisement; the block volumes must be
    // exactly the paper's sequence {75,37,19,9,5,2,1,1,1} in claim order.
    let out = run_world(world(2), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(512, 24));
        let mut volumes = Vec::new();
        if ctx.my_pe() == 0 {
            for i in 0..300 {
                q.enqueue(&task(i));
            }
            q.release(); // exposes 150
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            loop {
                match q.steal_from(0) {
                    StealOutcome::Got { tasks } => volumes.push(tasks),
                    StealOutcome::Empty => break,
                    StealOutcome::Closed => {}
                    other => unreachable!("fault-free world: {other:?}"),
                }
            }
        }
        ctx.barrier_all();
        volumes
    })
    .unwrap();
    assert_eq!(out.results[1], vec![75, 37, 19, 9, 5, 2, 1, 1, 1]);
}

#[test]
fn concurrent_thieves_claim_disjoint_blocks() {
    // 7 thieves hammer one 128-task advertisement concurrently; every
    // task must be stolen exactly once (atomicity of the fetch-add
    // claim). Run in *threaded* mode for a real interleaving stress.
    for mode in [
        WorldConfig::threaded(8, 1 << 16),
        WorldConfig::virtual_time(8, 1 << 16),
    ] {
        let out = run_world(mode, |ctx| {
            let mut q = SwsQueue::new(ctx, QueueConfig::new(512, 24));
            if ctx.my_pe() == 0 {
                for i in 0..256 {
                    q.enqueue(&task(i));
                }
                q.release(); // exposes 128 (tasks 0..128)
            }
            ctx.barrier_all();
            let mut tags = Vec::new();
            if ctx.my_pe() != 0 {
                loop {
                    match q.steal_from(0) {
                        StealOutcome::Got { .. } => {
                            while let Some(t) = q.pop_local() {
                                tags.push(tag_of(&t));
                            }
                        }
                        StealOutcome::Empty => break,
                        StealOutcome::Closed => {}
                        other => unreachable!("fault-free world: {other:?}"),
                    }
                }
            }
            q.flush_completions();
            ctx.barrier_all();
            tags
        })
        .unwrap();
        let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..128).collect::<Vec<_>>());
    }
}

#[test]
fn sdc_concurrent_thieves_claim_disjoint_blocks() {
    for mode in [
        WorldConfig::threaded(8, 1 << 16),
        WorldConfig::virtual_time(8, 1 << 16),
    ] {
        let out = run_world(mode, |ctx| {
            let mut q = SdcQueue::new(ctx, QueueConfig::new(512, 24));
            if ctx.my_pe() == 0 {
                for i in 0..256 {
                    q.enqueue(&task(i));
                }
                q.release();
            }
            ctx.barrier_all();
            let mut tags = Vec::new();
            if ctx.my_pe() != 0 {
                loop {
                    match q.steal_from(0) {
                        StealOutcome::Got { .. } => {
                            while let Some(t) = q.pop_local() {
                                tags.push(tag_of(&t));
                            }
                        }
                        StealOutcome::Empty | StealOutcome::Closed => break,
                        other => unreachable!("fault-free world: {other:?}"),
                    }
                }
            }
            q.flush_completions();
            ctx.barrier_all();
            tags
        })
        .unwrap();
        let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..128).collect::<Vec<_>>());
    }
}

#[test]
fn epoch_acquire_proceeds_with_inflight_steals() {
    // Fig. 5: with completion epochs the owner can acquire while earlier
    // steals are claimed but not finished. The thief claims a block and
    // (in virtual-time order) the owner's acquire at a later clock must
    // succeed without waiting for the completion signal, because the
    // second epoch's completion array is free.
    let out = run_world(world(2), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(256, 24));
        if ctx.my_pe() == 0 {
            for i in 0..64 {
                q.enqueue(&task(i));
            }
            q.release(); // epoch A: 32 shared, 32 local
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            // Claim 16 (steal completes, including the passive signal —
            // our model applies nbi effects at issue; what we verify here
            // is that the owner's second advertisement got a fresh epoch
            // while the first still had claims).
            assert!(matches!(q.steal_from(0), StealOutcome::Got { tasks: 16 }));
        }
        ctx.barrier_all();
        let mut owner_result = (0u64, 0u64);
        if ctx.my_pe() == 0 {
            // Drain local then acquire: 16 unclaimed remain shared; the
            // owner takes 8 back and re-advertises 8 under epoch B.
            while q.pop_local().is_some() {}
            assert!(q.acquire());
            owner_result = (q.local_count(), q.shared_estimate());
            assert_eq!(q.stats().owner_polls, 0, "no polling with 2 epochs");
        }
        ctx.barrier_all();
        owner_result
    })
    .unwrap();
    assert_eq!(out.results[0], (8, 8));
}

#[test]
fn validbit_layout_still_correct() {
    // The Fig. 3 layout (single epoch) must remain functionally correct —
    // it only loses the no-wait property.
    let out = run_world(world(4), |ctx| {
        let cfg = QueueConfig::new(256, 24).with_layout(Layout::ValidBit);
        let mut q = SwsQueue::new(ctx, cfg);
        if ctx.my_pe() == 0 {
            for i in 0..120 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        let mut got = 0u64;
        if ctx.my_pe() != 0 {
            loop {
                match q.steal_from(0) {
                    StealOutcome::Got { tasks } => got += tasks,
                    StealOutcome::Empty => break,
                    StealOutcome::Closed => {}
                    other => unreachable!("fault-free world: {other:?}"),
                }
            }
        }
        q.flush_completions();
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            while q.pop_local().is_some() {
                got += 1;
            }
            if q.acquire() {
                while q.pop_local().is_some() {
                    got += 1;
                }
            }
        }
        got
    })
    .unwrap();
    let total: u64 = out.results.iter().sum();
    assert_eq!(total, 120, "every task executed exactly once");
}

#[test]
fn ring_wrap_steals_preserve_payloads() {
    // Force the ring to wrap by cycling enqueue/release/steal several
    // times on a small ring, verifying payload integrity throughout.
    let out = run_world(world(2), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(32, 24));
        let mut seen = Vec::new();
        for round in 0..12u64 {
            if ctx.my_pe() == 0 {
                for i in 0..20 {
                    let t = task(round * 1000 + i);
                    while !q.enqueue(&t) {
                        q.progress();
                    }
                }
                q.release();
            }
            ctx.barrier_all();
            if ctx.my_pe() == 1 {
                loop {
                    match q.steal_from(0) {
                        StealOutcome::Got { .. } => {
                            while let Some(t) = q.pop_local() {
                                seen.push(tag_of(&t));
                            }
                        }
                        StealOutcome::Empty => break,
                        StealOutcome::Closed => {}
                        other => unreachable!("fault-free world: {other:?}"),
                    }
                }
                q.flush_completions();
            }
            ctx.barrier_all();
            if ctx.my_pe() == 0 {
                // Drain the remainder locally (acquire recovers shared).
                loop {
                    while let Some(t) = q.pop_local() {
                        seen.push(tag_of(&t));
                    }
                    if !q.acquire() {
                        break;
                    }
                }
            }
            ctx.barrier_all();
        }
        seen
    })
    .unwrap();
    let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
    all.sort_unstable();
    let mut expect: Vec<u64> = (0..12u64)
        .flat_map(|r| (0..20u64).map(move |i| r * 1000 + i))
        .collect();
    expect.sort_unstable();
    assert_eq!(all, expect);
}

#[test]
fn probe_reflects_available_work() {
    with_both_queues(2, |ctx, q, name| {
        if ctx.my_pe() == 0 {
            for i in 0..10 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            assert!(q.probe(0), "{name}: work advertised");
            // Drain it.
            while let StealOutcome::Got { .. } = q.steal_from(0) {}
            assert!(!q.probe(0), "{name}: drained");
        }
        ctx.barrier_all();
    });
}

#[test]
fn enqueue_fails_cleanly_when_full_of_unfinished_steals() {
    // Fill the ring, release, let a thief claim but (conceptually) not
    // complete — the owner's enqueue must return false rather than
    // overwrite claimed blocks. With our nbi-applies-at-issue model the
    // completion lands immediately, so emulate pressure purely locally:
    // fill the ring with local tasks and check the boundary.
    run_world(world(1), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(16, 24));
        for i in 0..16 {
            assert!(q.enqueue(&task(i)));
        }
        assert!(!q.enqueue(&task(99)), "ring full");
        q.pop_local().unwrap();
        assert!(q.enqueue(&task(100)), "space after pop");
    })
    .unwrap();
}

#[test]
fn deterministic_virtual_execution() {
    // Identical seeds ⇒ identical steal interleavings and identical
    // virtual makespans in virtual-time mode.
    fn run_once() -> (Vec<u64>, u64) {
        let cfg = WorldConfig { net: NetModel::edr_infiniband(), ..world(4) };
        let out = run_world(cfg, |ctx| {
            let mut q = SwsQueue::new(ctx, QueueConfig::new(256, 24));
            if ctx.my_pe() == 0 {
                for i in 0..200 {
                    q.enqueue(&task(i));
                }
                q.release();
            }
            ctx.barrier_all();
            let mut got = 0u64;
            if ctx.my_pe() != 0 {
                loop {
                    match q.steal_from(0) {
                        StealOutcome::Got { tasks } => got += tasks,
                        StealOutcome::Empty => break,
                        StealOutcome::Closed => {}
                        other => unreachable!("fault-free world: {other:?}"),
                    }
                }
            }
            q.flush_completions();
            ctx.barrier_all();
            got
        })
        .unwrap();
        (out.results.clone(), out.makespan_ns())
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn sws_comm_volume_is_one_word_for_discovery() {
    // §5.3: SWS discovers work with a single 64-bit word, vs. SDC's
    // metadata structure. Verify the failed-steal byte counts.
    let sws = run_world(world(2), |ctx| {
        let mut q = SwsQueue::new(ctx, cfg_small());
        ctx.barrier_all();
        let before = ctx.stats();
        if ctx.my_pe() == 1 {
            let _ = q.steal_from(0); // target empty
        }
        let d = ctx.stats().since(&before);
        ctx.barrier_all();
        d.total_bytes()
    })
    .unwrap();
    assert_eq!(sws.results[1], 8, "SWS failed search: one 64-bit word");

    let sdc = run_world(world(2), |ctx| {
        let mut q = SdcQueue::new(ctx, cfg_small());
        ctx.barrier_all();
        let before = ctx.stats();
        if ctx.my_pe() == 1 {
            let _ = q.steal_from(0);
        }
        let d = ctx.stats().since(&before);
        ctx.barrier_all();
        d.total_bytes()
    })
    .unwrap();
    assert!(
        sdc.results[1] > 8,
        "SDC failed search moves more than a word (lock + metadata): {}",
        sdc.results[1]
    );
}

#[test]
fn steal_one_policy_drains_one_at_a_time() {
    use sws_core::steal_half::StealPolicy;
    let out = run_world(world(3), |ctx| {
        let cfg = QueueConfig::new(256, 24).with_policy(StealPolicy::One);
        let mut q = SwsQueue::new(ctx, cfg);
        if ctx.my_pe() == 0 {
            for i in 0..40 {
                q.enqueue(&task(i));
            }
            q.release(); // advertises 20 (≤ One's advert cap of 64)
        }
        ctx.barrier_all();
        let mut got = Vec::new();
        if ctx.my_pe() != 0 {
            loop {
                match q.steal_from(0) {
                    StealOutcome::Got { tasks } => {
                        assert_eq!(tasks, 1, "steal-one takes single tasks");
                        while let Some(t) = q.pop_local() {
                            got.push(tag_of(&t));
                        }
                    }
                    StealOutcome::Empty => break,
                    StealOutcome::Closed => {}
                    other => unreachable!("fault-free world: {other:?}"),
                }
            }
        }
        q.flush_completions();
        ctx.barrier_all();
        got
    })
    .unwrap();
    let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..20).collect::<Vec<_>>());
}

#[test]
fn quarter_policy_partitions_correctly_under_concurrency() {
    use sws_core::steal_half::StealPolicy;
    let out = run_world(world(4), |ctx| {
        let cfg = QueueConfig::new(512, 24).with_policy(StealPolicy::Quarter);
        let mut q = SwsQueue::new(ctx, cfg);
        if ctx.my_pe() == 0 {
            for i in 0..200 {
                q.enqueue(&task(i));
            }
            q.release(); // advertises 100
        }
        ctx.barrier_all();
        let mut got = 0u64;
        if ctx.my_pe() != 0 {
            loop {
                match q.steal_from(0) {
                    StealOutcome::Got { tasks } => got += tasks,
                    StealOutcome::Empty => break,
                    StealOutcome::Closed => {}
                    other => unreachable!("fault-free world: {other:?}"),
                }
            }
        }
        q.flush_completions();
        ctx.barrier_all();
        got
    })
    .unwrap();
    let total: u64 = out.results.iter().sum();
    assert_eq!(total, 100, "every advertised task stolen exactly once");
}

#[test]
fn sdc_honours_steal_policy_too() {
    use sws_core::steal_half::StealPolicy;
    let out = run_world(world(2), |ctx| {
        let cfg = QueueConfig::new(256, 24).with_policy(StealPolicy::One);
        let mut q = SdcQueue::new(ctx, cfg);
        if ctx.my_pe() == 0 {
            for i in 0..20 {
                q.enqueue(&task(i));
            }
            q.release();
        }
        ctx.barrier_all();
        let mut volumes = Vec::new();
        if ctx.my_pe() == 1 {
            while let StealOutcome::Got { tasks } = q.steal_from(0) {
                volumes.push(tasks);
            }
        }
        ctx.barrier_all();
        volumes
    })
    .unwrap();
    assert_eq!(out.results[1], vec![1; 10], "SDC steal-one takes singles");
}

#[test]
fn queue_config_validation_catches_misconfigurations() {
    use sws_core::stealval::Layout;
    // Oversized capacity for the 19-bit epoch-layout tail field.
    let too_big = QueueConfig::new((1 << 19) + 1, 24);
    assert_eq!(too_big.validate(), Err("capacity 524289 exceeds the 19-bit tail field".into()));
    // The same capacity fits the 20-bit ValidBit tail field but not the
    // 19-bit itasks field — still rejected.
    let vb = QueueConfig::new((1 << 19) + 1, 24).with_layout(Layout::ValidBit);
    assert_eq!(vb.validate(), Err("capacity 524289 exceeds the itasks field".into()));
    assert_eq!(QueueConfig::new(0, 24).validate(), Err("queue capacity must be nonzero".into()));
    // Sane configurations pass.
    let _ok = QueueConfig::new(1 << 19, 24).with_layout(Layout::ValidBit);
    assert_eq!(QueueConfig::new(16384, 192).validate(), Ok(()));
    // Word sizing follows from task bytes.
    assert_eq!(QueueConfig::new(64, 192).task_words, 24);
    assert_eq!(QueueConfig::new(64, 24).buffer_words(), 64 * 3);
}

#[test]
fn queue_accessors_report_configuration() {
    run_world(world(1), |ctx| {
        let cfg = QueueConfig::new(128, 48);
        let q = SwsQueue::new(ctx, cfg);
        assert_eq!(q.config().capacity, 128);
        assert_eq!(q.config().task_words, 6);
        let q2 = SdcQueue::new(ctx, cfg);
        assert_eq!(q2.config().capacity, 128);
    })
    .unwrap();
}

#[test]
fn sws_closed_gate_rejects_thieves_without_corruption() {
    // Drive the gate closed manually via an acquire on an empty local
    // portion while thieves hammer — no claim may slip through a closed
    // gate, and the re-opened advertisement must be consistent.
    let out = run_world(world(4), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(256, 24));
        if ctx.my_pe() == 0 {
            for i in 0..64 {
                q.enqueue(&task(i));
            }
            q.release(); // 32 shared
        }
        ctx.barrier_all();
        let mut got = 0u64;
        let mut closed_seen = 0u64;
        if ctx.my_pe() != 0 {
            for _ in 0..40 {
                match q.steal_from(0) {
                    StealOutcome::Got { tasks } => got += tasks,
                    StealOutcome::Closed => closed_seen += 1,
                    StealOutcome::Empty => {}
                    other => unreachable!("fault-free world: {other:?}"),
                }
            }
            q.flush_completions();
        }
        ctx.barrier_all();
        if ctx.my_pe() == 0 {
            // Drain everything left (local + anything unclaimed).
            loop {
                while q.pop_local().is_some() {
                    got += 1;
                }
                if !q.acquire() {
                    break;
                }
            }
        }
        ctx.barrier_all();
        (got, closed_seen)
    })
    .unwrap();
    let total: u64 = out.results.iter().map(|&(g, _)| g).sum();
    assert_eq!(total, 64, "no task lost or duplicated around gate closes");
}
