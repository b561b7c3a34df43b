//! The metrics registry's and the snapshot stream's bytes are their
//! behaviour: `Registry::render_text`/`to_json` over finished runs, and
//! `stream_to_jsonl` over a service run under the default alert policy
//! with three latency SLOs. A change to either module that moves one of
//! these digests is a behaviour change and re-pins it in its own commit.

use sws_core::QueueConfig;
use sws_obs::{build_stream, stitch_report, stream_to_jsonl, Registry, SloPolicy};
use sws_sched::{
    run_service, run_workload, QueueKind, RunConfig, RunReport, SchedConfig, ServiceConfig,
};
use sws_shmem::{FaultPlan, OpClass, TargetSel};
use sws_workloads::arrivals::{ArrivalPlan, FlatServe};
use sws_workloads::uts::{UtsParams, UtsWorkload};

fn queue() -> QueueConfig {
    QueueConfig::new(1024, 48)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// UTS on 8 PEs at seed 0xBA5E with capture armed, optionally with 5 %
/// of ops dropped.
fn captured_run(kind: QueueKind, drop: bool) -> RunReport {
    let sched = SchedConfig::new(kind, queue()).with_seed(0xBA5E);
    let mut cfg = RunConfig::new(8, sched).with_capture_proto();
    if drop {
        cfg = cfg.with_faults(FaultPlan::seeded(0x5E41_0005).with_drop(
            OpClass::All,
            TargetSel::Any,
            0.05,
        ));
    }
    run_workload(&cfg, &UtsWorkload::new(UtsParams::geo_small(8)))
}

/// The registry of one run, with or without its stitched spans, as
/// `text-digest json-digest`.
fn registry_line(report: &RunReport, spans: bool) -> String {
    let spans = spans.then(|| stitch_report(report, &queue()));
    let reg = Registry::from_report(report, spans.as_ref());
    format!(
        "{:#018x} {:#018x}",
        fnv1a(reg.render_text().as_bytes()),
        fnv1a(reg.to_json().as_bytes())
    )
}

/// SWS and SDC, clean and with 5 % drops, each with and without spans.
#[test]
fn registry_results_are_pinned() {
    let mut got = Vec::new();
    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for drop in [false, true] {
            let report = captured_run(kind, drop);
            for spans in [false, true] {
                got.push(format!(
                    "{kind:?} drop {drop} spans {spans} {}",
                    registry_line(&report, spans)
                ));
            }
        }
    }
    let pinned = [
        "Sws drop false spans false 0x34dbfb4eb480e51b 0xf675ffd3609b60b8",
        "Sws drop false spans true 0xde4d0c6bdfe9cf06 0x207c29158becb60c",
        "Sws drop true spans false 0x517b5e60497daa16 0xdb6bb17f0981431c",
        "Sws drop true spans true 0xc5550f2f8d6a9a8d 0x10fd205e5606b066",
        "Sdc drop false spans false 0xa76f97bd1714e18e 0xf9394092a96e71c8",
        "Sdc drop false spans true 0x74c14c0f2e80b28e 0xb324fbe7a7104ced",
        "Sdc drop true spans false 0xacebe800f3dfece3 0x696134ec11ae1c9f",
        "Sdc drop true spans true 0x7bde393ccd489e5c 0x28de8747a461d79b",
    ];
    assert_eq!(got, pinned, "{got:#?}");
}

/// A 4-PE Poisson service run with snapshots every 50 µs, streamed under
/// the default policy with no SLO, an SLO every window breaches, and one
/// the run breaches and then meets again (a fire and a clear).
#[test]
fn snapshot_stream_results_are_pinned() {
    let plan = ArrivalPlan::poisson(0x0B5_0001, 2_000, 400_000);
    let sched = SchedConfig::new(QueueKind::Sws, queue()).with_seed(0xBA5E);
    let report = run_service(
        &RunConfig::new(4, sched),
        &ServiceConfig::default().with_snapshot_interval(50_000),
        &FlatServe::new(plan, 3_000, 1),
    );
    let got: Vec<String> = [0, 1, 200_000]
        .map(|slo| {
            let policy = SloPolicy::default().with_slo_p99_ns(slo);
            let stream = build_stream(&report, &policy);
            let text = stream_to_jsonl(&report, &policy, &stream);
            format!(
                "slo {slo} alerts {} {:#018x}",
                stream.alerts.len(),
                fnv1a(text.as_bytes())
            )
        })
        .to_vec();
    let pinned = [
        "slo 0 alerts 0 0xbde5e94958160a9e",
        "slo 1 alerts 1 0x4fc8ba6b65b47b57",
        "slo 200000 alerts 2 0x151f52ae6e6b0c74",
    ];
    assert_eq!(got, pinned, "{got:#?}");
}
