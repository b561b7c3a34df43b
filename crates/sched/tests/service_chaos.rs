//! Service-mode chaos suite: persistent pools driven by open-world
//! arrival plans must quiesce between waves, shut down cleanly, and
//! conserve arrivals (`completed + shed + in-flight == offered`, with
//! in-flight zero at shutdown) — across arrival patterns, admission
//! policies, elastic membership, and composed fault plans, on both
//! queues, with byte-identical reports for identical seeds.

use sws_core::QueueConfig;
use sws_sched::{
    run_service, AdmissionPolicy, MembershipPlan, QueueKind, RunConfig,
    RunReport, SchedConfig, ServiceConfig,
};
use sws_shmem::{FaultPlan, OpClass, TargetSel};
use sws_workloads::arrivals::{ArrivalPattern, ArrivalPlan, FlatServe, UtsServe};
use sws_workloads::uts::UtsParams;

fn config(kind: QueueKind, n_pes: usize) -> RunConfig {
    RunConfig::new(n_pes, SchedConfig::new(kind, QueueConfig::new(1024, 24)))
}

/// The conservation identity every shut-down service run must satisfy.
fn assert_conserved(r: &RunReport, label: &str) {
    assert!(r.total_offered() > 0, "{label}: plan offered no arrivals");
    assert!(
        r.arrival_conservation_ok(),
        "{label}: conservation violated: {} offered != {} admitted + {} shed \
         (or {} completed != admitted)",
        r.total_offered(),
        r.total_admitted(),
        r.total_shed(),
        r.completed_arrivals(),
    );
    assert_eq!(
        r.arrivals_in_flight(),
        0,
        "{label}: arrivals still in flight after shutdown"
    );
}

/// Arrivals `plan` schedules over ingress PEs `0..n_ingress`: a run that
/// shuts down before the last of them offers fewer.
fn planned_arrivals(plan: &ArrivalPlan, n_ingress: usize) -> u64 {
    (0..n_ingress)
        .map(|pe| {
            let mut clock = plan.clock(pe);
            std::iter::from_fn(|| clock.take()).count() as u64
        })
        .sum()
}

#[test]
fn poisson_quiesces_clean_both_queues() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(
            ArrivalPlan::poisson(0x5E41_0001, 4_000, 400_000),
            2_500,
            2,
        );
        let cfg = config(kind, 4);
        let label = format!("{kind:?} poisson");
        let r = run_service(&cfg, &ServiceConfig::default(), &w);
        assert_conserved(&r, &label);
        assert_eq!(
            r.completed_arrivals(),
            w.completed(),
            "{label}: report disagrees with handler instrumentation"
        );
        assert!(
            r.service_summary_line().is_some(),
            "{label}: service summary missing"
        );
    }
}

/// Everything determinism-relevant a service run produces.
fn fingerprint(r: &RunReport) -> (u64, String, String) {
    let per_pe = r
        .workers
        .iter()
        .map(|w| {
            format!(
                "{} {} {} {:?} s[{} {} {} {} {} {} {} {} {} {} {:?}]",
                w.tasks_executed,
                w.runtime_ns,
                w.first_work_ns,
                w.queue,
                w.service.offered,
                w.service.admitted,
                w.service.shed,
                w.service.deferred,
                w.service.blocked,
                w.service.admission_wait_ns,
                w.service.parks,
                w.service.rejoins,
                w.service.readmitted,
                w.service.quiescent_windows,
                w.service.latency,
            )
        })
        .collect::<Vec<_>>()
        .join(" | ");
    (r.makespan_ns, per_pe, format!("{:?}", r.comm.per_pe))
}

#[test]
fn identical_seeds_yield_byte_identical_reports() {
    // The acceptance scenario: Poisson arrivals + elastic membership +
    // a fault plan, run twice per queue kind — same seed, same bytes.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let run = || {
            let w = FlatServe::new(
                ArrivalPlan::poisson(0x5E41_0002, 5_000, 400_000),
                3_000,
                1,
            );
            let svc = ServiceConfig::default().with_membership(
                MembershipPlan::fixed().away(2, 120_000, 90_000),
            );
            let plan = FaultPlan::seeded(0x5E41_0002).with_drop(
                OpClass::All,
                TargetSel::Any,
                0.04,
            );
            let cfg = config(kind, 4).with_faults(plan);
            run_service(&cfg, &svc, &w)
        };
        let a = run();
        let b = run();
        assert_conserved(&a, &format!("{kind:?} determinism run A"));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{kind:?}: identical seeds must yield byte-identical reports"
        );
    }
}

/// An arrival plan that decisively outruns a small pool: bursts of 96
/// tasks land faster than 4 PEs can retire them.
fn overload_plan(seed: u64) -> ArrivalPlan {
    ArrivalPlan {
        pattern: ArrivalPattern::Bursty {
            burst: 96,
            gap_ns: 50,
            period_ns: 120_000,
        },
        seed,
        start_ns: 0,
        horizon_ns: 360_000,
    }
}

fn overload_config(kind: QueueKind) -> RunConfig {
    // A 64-deep ring keeps the high-water mark easy to hit.
    RunConfig::new(4, SchedConfig::new(kind, QueueConfig::new(64, 24)))
}

#[test]
fn overload_shed_completes_with_nonzero_shed_rate() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(overload_plan(0x5E41_0003), 8_000, 1);
        let svc = ServiceConfig::default()
            .with_admission(AdmissionPolicy::Shed)
            .with_hwm_pct(50);
        let label = format!("{kind:?} overload/shed");
        let r = run_service(&overload_config(kind), &svc, &w);
        assert_conserved(&r, &label);
        assert!(
            r.total_shed() > 0 && r.shed_rate() > 0.0,
            "{label}: overload never tripped the shed policy"
        );
    }
}

#[test]
fn overload_block_admits_everything_and_reports_saturation() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(overload_plan(0x5E41_0004), 8_000, 1);
        let svc = ServiceConfig::default()
            .with_admission(AdmissionPolicy::Block)
            .with_hwm_pct(50);
        let label = format!("{kind:?} overload/block");
        let r = run_service(&overload_config(kind), &svc, &w);
        assert_conserved(&r, &label);
        assert_eq!(r.total_shed(), 0, "{label}: block must never shed");
        assert_eq!(
            r.total_admitted(),
            r.total_offered(),
            "{label}: block must eventually admit every arrival"
        );
        let blocked: u64 = r.workers.iter().map(|w| w.service.blocked).sum();
        let waited: u64 =
            r.workers.iter().map(|w| w.service.admission_wait_ns).sum();
        assert!(blocked > 0, "{label}: saturation never blocked admission");
        assert!(waited > 0, "{label}: blocked arrivals recorded no wait");
    }
}

#[test]
fn overload_defer_buffers_without_shedding() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(overload_plan(0x5E41_0005), 8_000, 1);
        let svc = ServiceConfig::default()
            .with_admission(AdmissionPolicy::Defer)
            .with_hwm_pct(50);
        let label = format!("{kind:?} overload/defer");
        let r = run_service(&overload_config(kind), &svc, &w);
        assert_conserved(&r, &label);
        assert_eq!(r.total_shed(), 0, "{label}: defer must never shed");
        let deferred: u64 =
            r.workers.iter().map(|w| w.service.deferred).sum();
        assert!(deferred > 0, "{label}: saturation never deferred admission");
    }
}

#[test]
fn elastic_membership_parks_and_rejoins() {
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let plan = ArrivalPlan::poisson(0x5E41_0006, 3_000, 500_000);
        let w = FlatServe::new(plan.clone(), 2_500, 2);
        let svc = ServiceConfig::default().with_membership(
            MembershipPlan::fixed()
                .away(2, 100_000, 80_000)
                .away(3, 250_000, 60_000),
        );
        let label = format!("{kind:?} elastic");
        let r = run_service(&config(kind, 4), &svc, &w);
        assert_conserved(&r, &label);
        assert_eq!(r.total_offered(), planned_arrivals(&plan, 2), "{label}: short plan");
        let parks: u64 = r.workers.iter().map(|w| w.service.parks).sum();
        let rejoins: u64 = r.workers.iter().map(|w| w.service.rejoins).sum();
        assert_eq!(parks, 2, "{label}: expected one park per away window");
        assert_eq!(parks, rejoins, "{label}: every park must rejoin");
        assert!(
            r.workers[2].service.parks == 1 && r.workers[3].service.parks == 1,
            "{label}: wrong PEs parked"
        );
    }
}

#[test]
fn faults_compose_with_arrivals() {
    // Drops everywhere, a stall window on the ingress PE, and a
    // crash-stop of a non-ingress worker — conservation must survive
    // the whole gauntlet (the crashed PE drains what it owns).
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(
            ArrivalPlan::poisson(0x5E41_0007, 4_000, 400_000),
            2_500,
            1,
        );
        let plan = FaultPlan::seeded(0x5E41_0007)
            .with_drop(OpClass::All, TargetSel::Any, 0.05)
            .with_stall(0, 50_000, 40_000)
            .with_crash(3, 200_000);
        let label = format!("{kind:?} arrivals+faults");
        let r = run_service(&config(kind, 4).with_faults(plan), &ServiceConfig::default(), &w);
        assert_conserved(&r, &label);
        assert_eq!(r.crashed_pes(), 1, "{label}: PE 3 should have crashed");
        assert!(r.workers[3].crashed, "{label}: wrong PE flagged");
    }
}

#[test]
fn elastic_and_faults_compose() {
    // An away window and transient drops in the same run: the rejoining
    // PE must re-enter the pool (not be mistaken for a crashed peer).
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = FlatServe::new(
            ArrivalPlan::poisson(0x5E41_0008, 4_000, 450_000),
            2_500,
            1,
        );
        let svc = ServiceConfig::default().with_membership(
            MembershipPlan::fixed().away(2, 100_000, 100_000),
        );
        let plan = FaultPlan::seeded(0x5E41_0008).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.06,
        );
        let label = format!("{kind:?} elastic+drops");
        let r = run_service(&config(kind, 4).with_faults(plan), &svc, &w);
        assert_conserved(&r, &label);
        assert_eq!(r.workers[2].service.rejoins, 1, "{label}: no rejoin");
        assert!(
            r.workers[2].tasks_executed > 0,
            "{label}: rejoined PE never worked again"
        );
    }
}

#[test]
fn pool_quiesces_between_waves() {
    // Widely separated bursts force full quiescence between waves; the
    // detector must report each one and see the next wave end it.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let plan = ArrivalPlan {
            pattern: ArrivalPattern::Bursty {
                burst: 24,
                gap_ns: 200,
                period_ns: 300_000,
            },
            seed: 0x5E41_0009,
            start_ns: 0,
            horizon_ns: 900_000,
        };
        let w = FlatServe::new(plan.clone(), 2_000, 1);
        let label = format!("{kind:?} waves");
        let r = run_service(&config(kind, 4), &ServiceConfig::default(), &w);
        assert_conserved(&r, &label);
        assert_eq!(r.total_offered(), planned_arrivals(&plan, 1), "{label}: short plan");
        let windows: u64 =
            r.workers.iter().map(|w| w.service.quiescent_windows).sum();
        assert!(windows > 0, "{label}: pool never observed quiescence");
    }
}

#[test]
fn diurnal_cycle_with_counter_td() {
    let plan = ArrivalPlan {
        pattern: ArrivalPattern::Diurnal {
            base_gap_ns: 4_000,
            period_ns: 200_000,
            amplitude_pct: 70,
        },
        seed: 0x5E41_000A,
        start_ns: 0,
        horizon_ns: 600_000,
    };
    let w = FlatServe::new(plan, 2_500, 2);
    let r = run_service(
        &config(QueueKind::Sws, 4),
        &ServiceConfig::default(),
        &w,
    );
    assert_conserved(&r, "SWS diurnal");
}

#[test]
fn trace_replay_is_exact() {
    // The service offers exactly the arrivals each ingress PE's own clock
    // generates from the plan: no more, no fewer.
    let plan = ArrivalPlan::poisson(0x5E41_0011, 2_500, 100_000);
    let generated = |pe| {
        let mut clock = plan.clock(pe);
        std::iter::from_fn(|| clock.take()).count() as u64
    };
    let expected = generated(0) + generated(1);
    assert!(expected > 40, "{expected} arrivals");
    let w = FlatServe::new(plan.clone(), 1_500, 2);
    let r = run_service(
        &config(QueueKind::Sws, 4),
        &ServiceConfig::default(),
        &w,
    );
    assert_conserved(&r, "trace replay");
    assert_eq!(r.total_offered(), expected);
}

#[test]
fn uts_subtrees_per_arrival_conserve() {
    // Irregular service: each arrival detonates into a UTS subtree of
    // unpredictable size. Conservation counts the subtree roots; the
    // spawned interior nodes ride the normal termination counters.
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        let w = UtsServe::new(
            UtsParams::geo_small(8),
            ArrivalPlan::poisson(0x5E41_000B, 25_000, 300_000),
            4,
            1,
        );
        let cfg = RunConfig::new(
            4,
            SchedConfig::new(kind, QueueConfig::new(1024, 48)),
        );
        let label = format!("{kind:?} uts-serve");
        let r = run_service(&cfg, &ServiceConfig::default(), &w);
        assert_conserved(&r, &label);
        assert!(
            w.nodes_visited() >= r.total_admitted(),
            "{label}: subtrees should visit at least their roots"
        );
        assert!(
            r.total_tasks() >= r.total_admitted(),
            "{label}: task count below arrival count"
        );
    }
}
