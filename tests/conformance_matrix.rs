//! Configuration-matrix conformance: every combination of queue kind,
//! stealval layout, steal policy, damping, and victim policy must
//! execute the same workload to completion with the oracle-exact task
//! count. This is the "no configuration silently
//! breaks the protocol" safety net for the ablation switches.

use sws::core::steal_half::StealPolicy;
use sws::core::stealval::Layout;
use sws::prelude::*;
use sws::sched::VictimPolicy;
use sws::workloads::uts::{UtsParams, UtsWorkload};

#[test]
fn every_configuration_agrees_with_the_oracle() {
    let params = UtsParams::geo_small(8); // ~6k nodes: fast but nontrivial
    let expected = params.sequential_count().nodes;
    let mut checked = 0;

    for kind in [QueueKind::Sws, QueueKind::Sdc] {
        for layout in [Layout::Epochs, Layout::ValidBit] {
            for policy in [StealPolicy::Half, StealPolicy::One, StealPolicy::Quarter] {
                for damping in [true, false] {
                    // Layouts only affect SWS; skip the redundant
                    // SDC × ValidBit half of the matrix.
                    if kind == QueueKind::Sdc && layout == Layout::ValidBit {
                        continue;
                    }
                    let queue = QueueConfig::new(2048, 48)
                        .with_layout(layout)
                        .with_policy(policy);
                    let sched = SchedConfig::new(kind, queue)
                        .with_damping(damping)
                        .with_seed(0xC0DE);
                    let w = UtsWorkload::new(params);
                    let report = run_workload(&RunConfig::new(4, sched), &w);
                    assert_eq!(
                        report.total_tasks(),
                        expected,
                        "{kind:?}/{layout:?}/{policy:?}/damping={damping}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 18, "full matrix exercised");
}

#[test]
fn victim_policies_agree_with_the_oracle() {
    let params = UtsParams::geo_small(8);
    let expected = params.sequential_count().nodes;
    for victim in [
        VictimPolicy::Uniform,
        VictimPolicy::Hierarchical {
            node_size: 4,
            local_pct: 80,
        },
        VictimPolicy::Hierarchical {
            node_size: 4,
            local_pct: 100,
        },
    ] {
        let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(2048, 48))
            .with_victim(victim);
        let mut cfg = RunConfig::new(8, sched);
        cfg.net = NetModel::edr_infiniband_nodes(4);
        let w = UtsWorkload::new(params);
        let report = run_workload(&cfg, &w);
        assert_eq!(report.total_tasks(), expected, "{victim:?}");
    }
}

#[test]
fn hierarchical_victims_shift_traffic_to_the_node() {
    // With node-aware costs, the local-80 policy must lower total
    // communication time relative to uniform on the same run.
    let params = UtsParams::geo_small(9);
    let run = |victim| {
        let sched = SchedConfig::new(QueueKind::Sws, QueueConfig::new(4096, 48))
            .with_victim(victim);
        let mut cfg = RunConfig::new(16, sched);
        cfg.net = NetModel::edr_infiniband_nodes(8);
        run_workload(&cfg, &UtsWorkload::new(params))
    };
    let uniform = run(VictimPolicy::Uniform);
    let local = run(VictimPolicy::Hierarchical {
        node_size: 8,
        local_pct: 80,
    });
    assert_eq!(uniform.total_tasks(), local.total_tasks());
    assert!(
        local.total_steal_ns() < uniform.total_steal_ns(),
        "local {} !< uniform {}",
        local.total_steal_ns(),
        uniform.total_steal_ns()
    );
}
