//! Cross-crate integration tests of the open scenario API.
//!
//! Two pins matter here. First, a steady-traffic paper scenario must be
//! **byte-identical** to the closed-loop evaluator (`Evaluator::evaluate`)
//! for every suite workload, across worker-thread counts and memo
//! settings — the registry is a new front door, not a new result.
//! Second, the new FaaS and DAG families (and every non-steady traffic
//! pack) must render bit-identically across threads × memo on/off, the
//! same determinism contract the rest of the workspace holds.

use wcs::designs::DesignPoint;
use wcs::evaluate::Evaluator;
use wcs::workloads::{registry, suite, ScenarioSpec, TrafficPack, WorkloadId};
use wcs::WcsError;

fn evaluator(threads: usize, memo: bool) -> Evaluator {
    Evaluator::builder()
        .quick()
        .threads(threads)
        .expect("positive thread count")
        .memo(memo)
        .build()
        .expect("evaluator builds")
}

#[test]
fn steady_scenarios_pin_the_closed_loop_across_engine_knobs() {
    let design = DesignPoint::baseline_srvr1();
    let reference = Evaluator::quick().evaluate(&design).unwrap();
    for threads in [1usize, 2, 8] {
        for memo in [true, false] {
            let eval = evaluator(threads, memo);
            for id in WorkloadId::ALL {
                let ev = eval
                    .evaluate_scenario(&design, &ScenarioSpec::from_id(id))
                    .unwrap();
                assert_eq!(
                    ev.value.to_bits(),
                    reference.perf[&id].to_bits(),
                    "{id} diverged from the closed loop at threads={threads} memo={memo}"
                );
                assert!(ev.traffic.is_none(), "steady runs render no traffic");
                assert_eq!(
                    format!("{:?}", ev.report),
                    format!("{:?}", reference.report),
                    "BOM pricing diverged at threads={threads} memo={memo}"
                );
            }
        }
    }
}

#[test]
fn new_families_render_identically_across_all_knobs() {
    let design = DesignPoint::n2();
    let slate = [
        ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ScenarioSpec::steady("webmail").with_traffic(TrafficPack::failover_surge()),
    ];
    let mut reference: Option<(String, String)> = None;
    for threads in [1usize, 2, 8] {
        for memo in [true, false] {
            let label = format!("threads={threads} memo={memo}");
            let evals = evaluator(threads, memo)
                .evaluate_scenarios(&design, &slate)
                .unwrap();
            let render = format!("{evals:?}");
            match &reference {
                None => reference = Some((render, label)),
                Some((want, base)) => assert_eq!(
                    want, &render,
                    "scenario renders diverged between [{base}] and [{label}]"
                ),
            }
        }
    }
}

#[test]
fn unknown_scenarios_list_the_registry() {
    let err = Evaluator::quick()
        .evaluate_scenario(
            &DesignPoint::baseline_srvr1(),
            &ScenarioSpec::steady("no-such-workload"),
        )
        .unwrap_err();
    match err {
        WcsError::UnknownScenario { name, known } => {
            assert_eq!(name, "no-such-workload");
            for want in ["faas", "dag-analytics", "websearch", "mapred-wc"] {
                assert!(known.contains(&want), "{want} missing from {known:?}");
            }
        }
        other => panic!("expected UnknownScenario, got {other:?}"),
    }
}

#[test]
fn registered_workloads_run_end_to_end() {
    // A workload registered at startup evaluates through the same
    // pipeline as the built-in it mirrors — no core changes needed.
    let key = registry::register(
        "integration-custom",
        suite::workload(WorkloadId::Webmail),
        registry::Family::Paper(WorkloadId::Webmail),
    )
    .expect("fresh name registers");
    assert_eq!(key.name(), "integration-custom");

    let eval = Evaluator::quick();
    let design = DesignPoint::baseline_srvr1();
    let custom = eval
        .evaluate_scenario(&design, &ScenarioSpec::steady("integration-custom"))
        .unwrap();
    let builtin = eval
        .evaluate_scenario(&design, &ScenarioSpec::from_id(WorkloadId::Webmail))
        .unwrap();
    assert_eq!(custom.value.to_bits(), builtin.value.to_bits());
    assert_eq!(custom.unit, builtin.unit);
}
