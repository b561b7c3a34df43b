//! Conformance and exploration driver for the sws-check crate.
//!
//! `sws-check conform` runs the deterministic production matrix with
//! protocol-op capture enabled, replays every trace through the
//! abstract victim machines (`sws_check::conform`), and checks that all
//! required sites were exercised. It then runs a mutation self-test: a
//! run with `Defect::ClaimOneSlotOff` planted must be caught and the
//! diverging trace must shrink to a small witness. Exits nonzero on any
//! divergence, coverage gap, or self-test failure.
//!
//! `sws-check explore` drives the real queues through systematic
//! interleavings (`sws_check::live`): every corpus scenario is explored
//! under the preemption-bounded scheduler and must come up clean, then a
//! seeded protocol mutation must be found, shrunk, and deterministically
//! replayed. `--deep` raises the budget (nightly sweep); `--replay FILE`
//! re-executes a saved counterexample schedule.
//!
//! `sws-check necessity` verifies the ordering-necessity evidence
//! committed under `crates/check/schedules/` (`sws_check::necessity`):
//! every witness schedule must replay to its recorded violation, every
//! exhausted-at-bound mutant is re-explored, and the model oracle runs
//! for the whole mutant space. `--deep` uses the nightly budgets;
//! `--bless` re-runs the campaign and rewrites the evidence directory.

use std::process::ExitCode;

use sws_check::conform::{self, ReplayInput};
use sws_check::live::{
    corpus, defect_ctl, explore_scenario, mutant_scenario, replay_schedule, write_schedule,
    ExplorerConfig,
};
use sws_check::necessity;
use sws_core::Defect;

fn conform_cmd() -> ExitCode {
    println!("sws-check conform: replaying the production matrix");
    let report = conform::conform_all();
    print!("{}", report.render());
    if !report.ok() {
        return ExitCode::FAILURE;
    }

    // Mutation self-test: plant a thief that decodes its claim with tail
    // bit 0 flipped, in case 0's production run. It copies the block one
    // slot off the one it claimed, so the replay of its capture must
    // diverge at the first successful steal's payload read.
    let case = &conform::matrix()[0];
    print!("  mutation self-test ({}) ... ", case.name);
    let events = conform::capture_case(case, Some(defect_ctl(Some(Defect::ClaimOneSlotOff))));
    let input = ReplayInput::new(case.kind, conform::case_queue(case), &events);
    match conform::replay(&input) {
        Ok(_) => {
            println!("NOT CAUGHT");
            println!("sws-check conform: broken claim replayed clean — checker is toothless");
            return ExitCode::FAILURE;
        }
        Err(d) => {
            println!("caught [{}]", d.kind);
            let witness = conform::shrink(&input, d.kind);
            println!(
                "  shrunk witness: {} of {} events",
                witness.len(),
                events.len()
            );
            if witness.len() >= events.len() && events.len() > 8 {
                println!("sws-check conform: ddmin failed to reduce the witness");
                return ExitCode::FAILURE;
            }
            for e in &witness {
                println!("    {e}");
            }
        }
    }
    println!("sws-check conform: all cases conform");
    ExitCode::SUCCESS
}

fn explore_cmd(cfg: &ExplorerConfig) -> ExitCode {
    println!(
        "sws-check explore: corpus sweep (preemptions {}, {} schedules/scenario)",
        cfg.preemptions, cfg.max_schedules
    );
    let mut failed = false;
    for sc in corpus() {
        print!("  {:<28} ", sc.name);
        let (stats, ce) = explore_scenario(&sc, cfg);
        match ce {
            None => println!(
                "clean  ({} schedules, {} branches, {} pruned independent, depth {}) {}",
                stats.schedules,
                stats.branches,
                stats.pruned_independent,
                stats.max_depth,
                if stats.exhausted {
                    format!("exhausted at bound {}", cfg.preemptions)
                } else if stats.schedules >= cfg.max_schedules {
                    "stopped at the schedule budget".to_string()
                } else {
                    format!("stopped: {} schedules truncated", stats.truncated)
                }
            ),
            Some(ce) => {
                println!("FAILED after {} schedules: {}", stats.schedules, ce.failure);
                println!("--- schedule (save and replay with --replay) ---");
                print!("{}", write_schedule(&ce));
                println!("---");
                failed = true;
            }
        }
    }
    if failed {
        println!("sws-check explore: counterexample(s) in the corpus");
        return ExitCode::FAILURE;
    }

    // Mutation self-test: the explorer must catch a queue with the
    // completion reordered before the payload copy, shrink the schedule,
    // and replay it to the same failure.
    let sc = mutant_scenario();
    print!("  mutation self-test ({}) ... ", sc.name);
    let (stats, ce) = explore_scenario(&sc, cfg);
    let Some(ce) = ce else {
        println!("NOT CAUGHT after {} schedules", stats.schedules);
        println!("sws-check explore: seeded mutation survived — explorer is toothless");
        return ExitCode::FAILURE;
    };
    println!(
        "caught after {} schedules [{}]",
        stats.schedules, ce.failure
    );
    println!("  shrunk schedule: {} forced choices", ce.schedule.len());
    let replay = match replay_schedule(&write_schedule(&ce), cfg.max_steps) {
        Ok(r) => r,
        Err(e) => {
            println!("sws-check explore: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if replay.failure.as_deref() != Some(ce.failure.as_str()) {
        println!(
            "sws-check explore: replay diverged (got {:?}, want {:?})",
            replay.failure, ce.failure
        );
        return ExitCode::FAILURE;
    }
    println!("  replay reproduces the violation deterministically");
    println!("sws-check explore: corpus clean, self-test caught");
    ExitCode::SUCCESS
}

fn replay_cmd(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sws-check explore --replay: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    match replay_schedule(&text, ExplorerConfig::deep().max_steps) {
        Ok(res) => {
            println!(
                "replayed {} decisions (truncated: {})",
                res.trace.len(),
                res.trace.truncated
            );
            match res.failure {
                Some(f) => {
                    println!("violation reproduced: {f}");
                    ExitCode::SUCCESS
                }
                None => {
                    println!("schedule ran clean — violation did NOT reproduce");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("sws-check explore --replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn necessity_cmd(bounds: &necessity::Bounds, bless: bool) -> ExitCode {
    let dir = necessity::schedules_dir();
    println!(
        "sws-check necessity: {} evidence {} ({})",
        if bless { "re-blessing" } else { "verifying" },
        dir.display(),
        bounds.label,
    );
    let result = if bless {
        necessity::bless(bounds, &dir)
    } else {
        necessity::verify(bounds, &dir)
    };
    match result {
        Ok(report) => {
            print!("{}", necessity::render_report(&report));
            println!("sws-check necessity: evidence complete and current");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sws-check necessity: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("conform") => conform_cmd(),
        Some("explore") => match args.get(1).map(String::as_str) {
            None => explore_cmd(&ExplorerConfig::default()),
            Some("--deep") => explore_cmd(&ExplorerConfig::deep()),
            Some("--replay") => match args.get(2) {
                Some(path) => replay_cmd(path),
                None => {
                    eprintln!("usage: sws-check explore --replay FILE");
                    ExitCode::FAILURE
                }
            },
            Some(other) => {
                eprintln!("sws-check explore: unknown flag `{other}`");
                ExitCode::FAILURE
            }
        },
        Some("necessity") => {
            let deep = args.iter().any(|a| a == "--deep");
            let bless = args.iter().any(|a| a == "--bless");
            // `--quick` is the default; accepted so CI configs can be
            // explicit about which budget they run.
            if let Some(bad) = args[1..]
                .iter()
                .find(|a| *a != "--deep" && *a != "--bless" && *a != "--quick")
            {
                eprintln!("sws-check necessity: unknown flag `{bad}`");
                return ExitCode::FAILURE;
            }
            let bounds = if deep {
                necessity::Bounds::deep()
            } else {
                necessity::Bounds::quick()
            };
            necessity_cmd(&bounds, bless)
        }
        _ => {
            eprintln!("usage: sws-check <conform | explore [--deep | --replay FILE] | necessity [--deep] [--bless]>");
            eprintln!("  conform   replay captured production traces through the");
            eprintln!("            abstract protocol machines (refinement check)");
            eprintln!("  explore   systematic interleaving exploration of the live");
            eprintln!("            queues (preemption-bounded, DPOR-pruned), plus a");
            eprintln!("            seeded-mutation self-test; --deep raises the");
            eprintln!("            budget, --replay re-runs a saved schedule");
            eprintln!("  necessity verify the committed ordering-necessity evidence");
            eprintln!("            (replay witnesses, re-explore survivors, run the");
            eprintln!("            model oracle); --deep uses nightly budgets,");
            eprintln!("            --bless re-runs the campaign and rewrites");
            eprintln!("            crates/check/schedules/");
            ExitCode::FAILURE
        }
    }
}
