//! Real-concurrency stress: the identical queue and scheduler code runs
//! in threaded mode (no virtual-time serialization) — racing CPU atomics,
//! nondeterministic interleavings — and must still conserve every task.

use sws::prelude::*;
use sws::shmem::ExecMode;
use sws::workloads::uts::{UtsParams, UtsWorkload};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn threaded_uts_conserves_nodes_on_both_queues() {
    let params = UtsParams::geo_small(8);
    let expected = params.sequential_count().nodes;
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for round in 0..3 {
            let w = UtsWorkload::new(params);
            let sched = SchedConfig::new(kind, QueueConfig::new(2048, 48))
                .with_seed(round * 31 + 1);
            let cfg = RunConfig::new(4, sched);
            let report = sws::sched::runner::run_workload_mode(&cfg, &w, ExecMode::Threaded);
            assert_eq!(
                report.total_tasks(),
                expected,
                "{kind:?} threaded round {round}"
            );
            assert_eq!(w.nodes_visited(), expected);
        }
    }
}

#[test]
fn threaded_steal_storm_no_task_lost_or_duplicated() {
    // A dedicated storm: PE 0 repeatedly releases batches while 7 thieves
    // hammer it concurrently with real atomics. Tags must partition.
    let out = run_world(WorldConfig::threaded(8, 1 << 16), |ctx| {
        let mut q = SwsQueue::new(ctx, QueueConfig::new(1024, 24));
        let rounds = 20u64;
        let batch = 96u64;
        let mut got: Vec<u64> = Vec::new();
        for r in 0..rounds {
            if ctx.my_pe() == 0 {
                for i in 0..batch {
                    let tag = r * batch + i;
                    while !q.enqueue(&TaskDescriptor::new(1, &tag.to_le_bytes())) {
                        q.progress();
                    }
                }
                while !q.release() {
                    // Shared portion not fully claimed yet; wait for the
                    // thieves to drain it.
                    q.progress();
                    std::hint::spin_loop();
                }
            }
            ctx.barrier_all();
            // Everyone (including the owner, via acquire) pulls work.
            loop {
                if ctx.my_pe() == 0 {
                    let mut any = false;
                    while let Some(t) = q.pop_local() {
                        got.push(u64::from_le_bytes(t.payload().try_into().unwrap()));
                        any = true;
                    }
                    if !any && !q.acquire() {
                        break;
                    }
                } else {
                    match q.steal_from(0) {
                        StealOutcome::Got { .. } => {
                            while let Some(t) = q.pop_local() {
                                got.push(u64::from_le_bytes(
                                    t.payload().try_into().unwrap(),
                                ));
                            }
                        }
                        StealOutcome::Empty => break,
                        // Failed/Aborted cannot occur without a fault
                        // plan; retrying keeps the stress loop total.
                        StealOutcome::Closed
                        | StealOutcome::Failed { .. }
                        | StealOutcome::Aborted { .. } => std::hint::spin_loop(),
                    }
                }
            }
            q.flush_completions();
            ctx.barrier_all();
        }
        got
    })
    .unwrap();
    let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
    all.sort_unstable();
    let expect: Vec<u64> = (0..20 * 96).collect();
    assert_eq!(all.len(), expect.len(), "count mismatch");
    assert_eq!(all, expect, "tags must partition exactly");
}

#[test]
fn threaded_concurrent_atomic_counters_under_contention() {
    // Sanity of the substrate itself under real contention: wrapping
    // decrements, swaps and cswaps mixed from 8 threads.
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = Arc::clone(&hits);
    let out = run_world(WorldConfig::threaded(8, 256), move |ctx| {
        let a = ctx.alloc_words(2);
        for i in 0..200u64 {
            ctx.atomic_fetch_add(0, a, 1);
            if i % 3 == 0 {
                ctx.atomic_fetch_add(0, a, u64::MAX); // -1
                ctx.atomic_fetch_add(0, a, 1);
            }
            // cswap ping-pong on the second word.
            let me = ctx.my_pe() as u64 + 1;
            if ctx.atomic_compare_swap(0, a.offset(1), 0, me) == 0 {
                hits2.fetch_add(1, Ordering::Relaxed);
                ctx.atomic_set(0, a.offset(1), 0);
            }
        }
        ctx.barrier_all();
        ctx.atomic_fetch(0, a)
    })
    .unwrap();
    assert!(out.results.iter().all(|&v| v == 8 * 200));
    assert!(hits.load(Ordering::Relaxed) > 0, "cswap section entered");
}

#[test]
fn handler_panic_poisons_the_world_cleanly() {
    // A task handler panicking on one PE must not deadlock the other
    // PEs (they block in gates/barriers) — the world poisons and the
    // error surfaces.
    use sws::sched::pool::TaskPool;

    let err = run_world(WorldConfig::virtual_time(3, 1 << 14), |ctx| {
        let mut reg: TaskRegistry<TaskCtx> = TaskRegistry::new();
        reg.register(1, |tctx, p| {
            if p[0] == 7 {
                panic!("deliberate handler failure");
            }
            tctx.compute(1_000);
            if p[0] > 0 {
                tctx.spawn(TaskDescriptor::new(1, &[p[0] - 1]));
            }
        });
        let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(128, 24));
        let mut pool = TaskPool::create(ctx, &reg, sched);
        if ctx.my_pe() == 0 {
            pool.add_task(TaskDescriptor::new(1, &[10]));
        }
        pool.process();
    })
    .unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("deliberate") || msg.contains("poisoned"),
        "unexpected error: {msg}"
    );
}

#[test]
fn corrupt_task_record_is_rejected_loudly() {
    // Decoding garbage must panic with a clear message rather than
    // silently executing a bogus task; the world reports it.
    let err = run_world(WorldConfig::virtual_time(1, 1 << 12), |ctx| {
        let _ = ctx; // substrate unused; decode failure is local
        let rec = [(250u64) << 16 | 9, 0]; // claims 250-byte payload in 2 words
        let _ = TaskDescriptor::decode(&rec);
    })
    .unwrap_err();
    assert!(format!("{err}").contains("corrupt task record"));
}

/// Every task seeded on PE 1 panics there (a stolen one runs cleanly
/// elsewhere); every other PE starts empty and searches.
struct PanicsOnPe1;

impl Workload for PanicsOnPe1 {
    fn register<'a>(&self, reg: &mut TaskRegistry<TaskCtx<'a>>) {
        reg.register(1, |tctx, _| {
            if tctx.my_pe() == 1 {
                panic!("deliberate task panic");
            }
            tctx.compute(1_000);
        });
    }

    fn seeds(&self, pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        let n = if pe == 1 { 8 } else { 0 };
        (0..n).map(|i| TaskDescriptor::new(1, &[i])).collect()
    }
}

/// A task panic on one PE of a threaded world ends the run with that
/// PE's panic, on both queues: the peers, spinning in their search loops
/// and never reaching a barrier, unwind at their next remote op once the
/// world is poisoned. A hang here is caught by the watchdog, not CI's
/// timeout.
#[test]
fn threaded_task_panic_ends_the_run_with_that_pe() {
    use std::sync::mpsc;
    use std::time::Duration;

    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let cfg = RunConfig::new(4, SchedConfig::new(kind, QueueConfig::new(256, 24)));
            let got = sws::sched::try_run_workload_mode(&cfg, &PanicsOnPe1, ExecMode::Threaded);
            let _ = tx.send(got.map(|r| r.total_tasks()));
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(Err(sws::shmem::ShmemError::PePanicked { pe, message })) => {
                assert_eq!(pe, 1, "{kind:?}: {message}");
                assert!(message.contains("deliberate task panic"), "{kind:?}: {message}");
                run.join().expect("the run's thread returns after sending");
            }
            Ok(other) => panic!("{kind:?}: ended as {other:?}, not PE 1's panic"),
            Err(_) => panic!("{kind:?}: still running after 20 s: the peers never saw the poison"),
        }
    }
}
