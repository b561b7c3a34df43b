//! Focused tests for the counter termination detector, driven directly
//! (without the full scheduler) so its protocol is visible.

use sws_sched::termination::{CounterTd, PoolState};
use sws_shmem::{run_world, OpKind, WorldConfig, OP_KIND_COUNT};

fn world(n: usize) -> WorldConfig {
    WorldConfig::virtual_time(n, 4096)
}

#[test]
fn counter_td_fires_only_when_all_idle_and_balanced() {
    let out = run_world(world(3), |ctx| {
        let mut td = CounterTd::new(ctx);
        // PE 0 "spawns" 5 tasks; everyone goes idle; no one completed
        // them yet — termination must NOT fire.
        if ctx.my_pe() == 0 {
            td.on_spawn(5);
        }
        td.enter_idle(ctx);
        ctx.barrier_all();
        let premature = td.poll_terminated(ctx);
        ctx.barrier_all();

        // Now PE 1 "completes" them (it must leave the idle set first,
        // as a thief would after a successful steal).
        if ctx.my_pe() == 1 {
            td.exit_idle(ctx);
            td.on_complete(5);
            td.enter_idle(ctx);
        }
        ctx.barrier_all();
        // Poll until the detector fires (bounded loop: it must fire).
        let mut fired = false;
        for _ in 0..100 {
            if td.poll_terminated(ctx) {
                fired = true;
                break;
            }
        }
        (premature, fired)
    })
    .unwrap();
    for &(premature, fired) in &out.results {
        assert!(!premature, "termination before work completed");
        assert!(fired, "termination after quiescence");
    }
}

#[test]
fn counter_td_flush_batches_deltas() {
    // Deltas accumulate locally and publish on flush; the global view
    // must match after a flush + barrier.
    let out = run_world(world(2), |ctx| {
        let mut td = CounterTd::new(ctx);
        td.on_spawn(10);
        td.on_complete(4);
        td.flush(ctx);
        ctx.barrier_all();
        // Both enter idle; counts are unbalanced → no termination.
        td.enter_idle(ctx);
        let fired = td.poll_terminated(ctx);
        ctx.barrier_all();
        // Balance the books and re-check.
        td.exit_idle(ctx);
        td.on_complete(6);
        td.enter_idle(ctx);
        ctx.barrier_all();
        let mut done = false;
        for _ in 0..100 {
            if td.poll_terminated(ctx) {
                done = true;
                break;
            }
        }
        (fired, done)
    })
    .unwrap();
    for &(premature, done) in &out.results {
        assert!(!premature);
        assert!(done);
    }
}

/// Every PE idle and every spawn completed, read from each PE of a
/// 3-PE world: `(before PE 1 closes its source, after)`.
fn states_around_the_last_close() -> Vec<(PoolState, PoolState)> {
    run_world(world(3), |ctx| {
        let mut td = CounterTd::new(ctx);
        if ctx.my_pe() == 1 {
            td.open_source(ctx);
        }
        td.on_spawn(2);
        td.on_complete(2);
        td.enter_idle(ctx);
        ctx.barrier_all();
        let open = td.poll(ctx);
        ctx.barrier_all();
        if ctx.my_pe() == 1 {
            td.close_source(ctx);
        }
        ctx.barrier_all();
        (open, td.poll(ctx))
    })
    .unwrap()
    .results
}

#[test]
fn an_open_source_holds_the_pool_quiescent_not_terminated() {
    for (open, _) in states_around_the_last_close() {
        assert_eq!(open, PoolState::Quiescent);
    }
}

#[test]
fn closing_the_last_source_terminates_the_pool() {
    for (_, closed) in states_around_the_last_close() {
        assert_eq!(closed, PoolState::Terminated);
    }
}

/// A batch run opens no source, so a poll is the one 24-byte `Get` of the
/// counter block it has always been, and nothing else.
#[test]
fn a_batch_poll_is_one_24_byte_get() {
    let out = run_world(world(2), |ctx| {
        let mut td = CounterTd::new(ctx);
        td.enter_idle(ctx);
        ctx.barrier_all();
        let before = ctx.stats();
        let terminated = td.poll_terminated(ctx);
        let after = ctx.stats();
        let delta: [(u64, u64); OP_KIND_COUNT] = std::array::from_fn(|k| {
            (after.counts[k] - before.counts[k], after.bytes[k] - before.bytes[k])
        });
        (terminated, delta)
    })
    .unwrap();
    let mut want = [(0, 0); OP_KIND_COUNT];
    want[OpKind::Get as usize] = (1, 24);
    for (terminated, delta) in out.results {
        assert!(terminated);
        assert_eq!(delta, want);
    }
}
