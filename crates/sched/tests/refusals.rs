//! The library twin of `sws-run`'s refusal table
//! (`tests/golden/sws-run/refusals.txt`): every row, built as the
//! configuration `sws-run` hands the library, comes back from
//! `try_run_workload_mode` or `try_run_service` as
//! `ShmemError::BadConfig` naming the offending value — no panic, no
//! `PePanicked`, and no PE started (the workload is never registered).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use sws_core::QueueConfig;
use sws_sched::{
    try_run_service, try_run_workload_mode, ArrivalSource, MembershipPlan, QueueKind, RunConfig,
    SchedConfig, ServiceConfig, ServiceWorkload, TaskCtx, Workload,
};
use sws_shmem::{ExecMode, FaultPlan, OpClass, ShmemError, TargetSel};
use sws_task::{TaskDescriptor, TaskRegistry};

/// A workload that records whether any PE got as far as registering it.
struct Untouched {
    n_ingress: usize,
    registered: AtomicBool,
}

impl Workload for Untouched {
    fn register<'a>(&self, _reg: &mut TaskRegistry<TaskCtx<'a>>) {
        self.registered.store(true, Ordering::Relaxed);
    }
    fn seeds(&self, _pe: usize, _n_pes: usize) -> Vec<TaskDescriptor> {
        Vec::new()
    }
}

impl ServiceWorkload for Untouched {
    fn n_ingress(&self) -> usize {
        self.n_ingress
    }
    fn arrival_source(&self, _pe: usize) -> Option<Box<dyn ArrivalSource>> {
        None
    }
}

/// One row: the `sws-run` arguments it mirrors, the configuration they
/// build (`svc` is `Some` for a service run), and a fragment the refusal
/// must contain.
struct Row {
    args: String,
    cfg: RunConfig,
    n_ingress: usize,
    svc: Option<ServiceConfig>,
    names: &'static str,
}

/// `sws-run`'s defaults on 4 PEs with `--system sws`; `task_bytes` is the
/// workload's record (uts 48, flat 24).
fn run(task_bytes: usize, capacity: usize, faults: Option<FaultPlan>) -> RunConfig {
    let queue = QueueConfig::new(capacity, task_bytes);
    RunConfig { faults, ..RunConfig::new(4, SchedConfig::new(QueueKind::Sws, queue)) }
}

fn batch(flags: &str, capacity: usize, faults: Option<FaultPlan>, names: &'static str) -> Row {
    let args = format!("uts --pes 4 --depth 6 --system sws {flags}");
    Row { args, cfg: run(48, capacity, faults), n_ingress: 1, svc: None, names }
}

fn serve(flags: &str, n_ingress: usize, svc: ServiceConfig, faults: Option<FaultPlan>, names: &'static str) -> Row {
    let args = format!("flat --serve --pes 4 --system sws {flags}");
    Row { args, cfg: run(24, 16384, faults), n_ingress, svc: Some(svc), names }
}

fn rows() -> Vec<Row> {
    let plan = || Some(FaultPlan::seeded(0xFA17));
    let svc = ServiceConfig::default;
    let away = |windows: &[(usize, u64, u64)]| {
        let plan = windows.iter().fold(MembershipPlan::fixed(), |p, &(pe, from, dur)| p.away(pe, from, dur));
        svc().with_membership(plan)
    };
    let crash = |pe| plan().map(|p| p.with_crash(pe, 100));
    let no_pes = |mut row: Row| {
        row.args = row.args.replace("--pes 4 ", "--pes 0 ").trim_end().to_string();
        row.cfg.n_pes = 0;
        row
    };
    vec![
        no_pes(batch("", 16384, None, "n_pes must be nonzero")),
        batch("--crash 0:100", 16384, crash(0), "PE 0"),
        batch("--crash 9:100", 16384, crash(9), "PE 9"),
        batch("--stall 9:1:2", 16384, plan().map(|p| p.with_stall(9, 1, 2)), "PE 9"),
        batch("--stall 1:5:18446744073709551615", 16384, plan().map(|p| p.with_stall(1, 5, u64::MAX)), "18446744073709551615"),
        batch("--drop-prob 1.5", 16384, plan().map(|p| p.with_drop(OpClass::All, TargetSel::Any, 1.5)), "1.5"),
        batch("--capacity 0", 0, None, "capacity must be nonzero"),
        batch("--capacity 600000", 600_000, None, "600000"),
        no_pes(serve("", 1, svc(), None, "n_pes must be nonzero")),
        serve("--hwm 0", 1, svc().with_hwm_pct(0), None, "got 0"),
        serve("--hwm 101", 1, svc().with_hwm_pct(101), None, "got 101"),
        serve("--ingress 0", 0, svc(), None, "got 0"),
        serve("--ingress 9", 9, svc(), None, "got 9"),
        serve("--away 0:1:2", 1, away(&[(0, 1, 2)]), None, "PE 0"),
        serve("--ingress 2 --away 1:1:2", 2, away(&[(1, 1, 2)]), None, "PE 1"),
        serve("--ingress 2 --crash 1:100", 2, svc(), crash(1), "PE 1"),
        serve("--away 2:100:50 --away 2:120:10", 1, away(&[(2, 100, 50), (2, 120, 10)]), None, "PE 2"),
    ]
}

#[test]
fn every_refusal_is_bad_config_before_any_pe_starts() {
    let table = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sws-run/refusals.txt");
    let table = std::fs::read_to_string(table).expect("refusal table");
    let cli_rows: Vec<&str> = table.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let rows = rows();
    assert_eq!(rows.iter().map(|r| r.args.as_str()).collect::<Vec<_>>(), cli_rows, "one row per refusals.txt row, in order");
    for row in rows {
        let workload = Untouched { n_ingress: row.n_ingress, registered: AtomicBool::new(false) };
        let got = match &row.svc {
            None => try_run_workload_mode(&row.cfg, &workload, ExecMode::Virtual),
            Some(svc) => try_run_service(&row.cfg, svc, &workload),
        };
        match got {
            Err(ShmemError::BadConfig(msg)) => {
                assert!(msg.contains(row.names), "{}: {msg:?} does not name {:?}", row.args, row.names)
            }
            Err(e) => panic!("{}: refused as {e:?}, not BadConfig", row.args),
            Ok(_) => panic!("{}: ran", row.args),
        }
        assert!(!workload.registered.load(Ordering::Relaxed), "{}: a PE started", row.args);
    }
}
