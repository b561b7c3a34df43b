//! Focused tests for the counter termination detector, driven directly
//! (without the full scheduler) so its protocol is visible.

use sws_sched::termination::CounterTd;
use sws_shmem::{run_world, WorldConfig};

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
