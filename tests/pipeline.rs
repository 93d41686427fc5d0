//! Cross-crate integration tests of the evaluation pipeline.

use wcs::designs::{CoolingConfig, DesignPoint};
use wcs::evaluate::Evaluator;
use wcs::flashcache::study::StorageScenario;
use wcs::platforms::{Component, PlatformId};
use wcs::workloads::WorkloadId;

#[test]
fn evaluation_is_deterministic() {
    let eval = Evaluator::quick();
    let a = eval.evaluate(&DesignPoint::n2()).unwrap();
    let b = eval.evaluate(&DesignPoint::n2()).unwrap();
    for id in WorkloadId::ALL {
        assert_eq!(a.perf[&id], b.perf[&id], "{id}");
    }
    assert_eq!(a.report.total_usd(), b.report.total_usd());
}

#[test]
fn effective_platform_bom_is_priced() {
    let eval = Evaluator::quick();
    let n2 = DesignPoint::n2();
    let e = eval.evaluate(&n2).unwrap();
    // Every BOM component of the effective platform appears in the
    // report, plus the rack switch line.
    let platform = n2.effective_platform();
    for item in platform.bom() {
        let line = e.report.line(item.component).expect("line present");
        assert!(line.hw_usd >= item.cost_usd - 1e-9);
    }
    assert!(e.report.line(Component::RackSwitch).is_some());
}

#[test]
fn cooling_scale_reduces_pc_not_hw() {
    let eval = Evaluator::quick();
    let mut conv = DesignPoint::baseline(PlatformId::Mobl);
    let mut cooled = DesignPoint::baseline(PlatformId::Mobl);
    cooled.cooling = CoolingConfig {
        cooling_scale: 0.5,
        systems_per_rack: 320,
        power_fans: None,
    };
    conv.name = "conv".into();
    cooled.name = "cooled".into();
    let a = eval.evaluate(&conv).unwrap();
    let b = eval.evaluate(&cooled).unwrap();
    assert!((a.report.inf_usd() - b.report.inf_usd()).abs() < 1e-9);
    assert!(b.report.pc_usd() < a.report.pc_usd());
    // Performance unchanged: cooling is not on the request path.
    for id in WorkloadId::ALL {
        assert_eq!(a.perf[&id], b.perf[&id]);
    }
}

#[test]
fn storage_scenarios_change_disk_sensitive_workloads_most() {
    let eval = Evaluator::quick();
    let mut base = DesignPoint::baseline(PlatformId::Emb1);
    base.name = "emb1-desktop".into();
    let mut laptop = DesignPoint::baseline(PlatformId::Emb1);
    laptop.storage = Some(StorageScenario::laptop_remote());
    laptop.name = "emb1-laptop".into();

    let a = eval.evaluate(&base).unwrap();
    let b = eval.evaluate(&laptop).unwrap();
    let drop = |id: WorkloadId| b.perf[&id] / a.perf[&id];
    // The streaming and write-heavy workloads hurt most; webmail's tiny
    // exposed disk demand barely notices.
    assert!(
        drop(WorkloadId::Ytube) < 0.95,
        "ytube {}",
        drop(WorkloadId::Ytube)
    );
    assert!(
        drop(WorkloadId::MapredWr) < 0.8,
        "mapred-wr {}",
        drop(WorkloadId::MapredWr)
    );
    assert!(
        drop(WorkloadId::Webmail) > 0.97,
        "webmail {}",
        drop(WorkloadId::Webmail)
    );
}

#[test]
fn memshare_costs_less_but_slows_slightly() {
    let eval = Evaluator::quick();
    let mut base = DesignPoint::baseline(PlatformId::Emb1);
    base.name = "emb1-plain".into();
    let mut shared = DesignPoint::baseline(PlatformId::Emb1);
    shared.memshare = DesignPoint::n2().memshare;
    shared.name = "emb1-blade".into();

    let a = eval.evaluate(&base).unwrap();
    let b = eval.evaluate(&shared).unwrap();
    assert!(b.report.inf_usd() < a.report.inf_usd());
    assert!(b.report.power_w() < a.report.power_w());
    for id in WorkloadId::ALL {
        assert!(
            b.perf[&id] <= a.perf[&id] * 1.001,
            "{id} should not speed up"
        );
        assert!(b.perf[&id] >= a.perf[&id] * 0.90, "{id} slows too much");
    }
}

#[test]
fn comparisons_are_antisymmetric() {
    let eval = Evaluator::quick();
    let a = eval
        .evaluate(&DesignPoint::baseline(PlatformId::Desk))
        .unwrap();
    let b = eval
        .evaluate(&DesignPoint::baseline(PlatformId::Emb1))
        .unwrap();
    let ab = b.compare(&a);
    let ba = a.compare(&b);
    for (x, y) in ab.rows.iter().zip(&ba.rows) {
        assert!((x.perf * y.perf - 1.0).abs() < 1e-9);
        assert!((x.perf_per_tco * y.perf_per_tco - 1.0).abs() < 1e-9);
    }
}

#[test]
fn qos_infeasible_design_reports_cleanly() {
    // A deliberately hobbled design: emb2 with the slow remote laptop
    // disk makes ytube's QoS unreachable at even one client — the
    // evaluator must return an error, not panic or hang.
    let eval = Evaluator::quick();
    let mut design = DesignPoint::baseline(PlatformId::Emb2);
    design.storage = Some(StorageScenario::laptop_remote());
    design.name = "emb2-crippled".into();
    match eval.evaluate(&design) {
        Ok(e) => {
            // If it happens to be feasible, performance must be very low
            // (emb2's CPU caps ytube at a handful of requests/second).
            assert!(e.perf[&WorkloadId::Ytube] < 6.0);
        }
        Err(err) => {
            assert!(err.to_string().contains("QoS"), "{err}");
        }
    }
}

#[test]
fn open_loop_agrees_with_closed_loop_at_matched_load() {
    // Drive the open loop at 70% of the closed loop's saturated
    // throughput; it must sustain that arrival rate.
    use wcs::platforms::catalog;
    use wcs::simserver::{run_open_loop, ServerSim};
    use wcs::workloads::service::PlatformDemand;
    use wcs::workloads::suite;

    let wl = suite::workload(WorkloadId::Websearch);
    let platform = catalog::platform(PlatformId::Srvr2);
    let demand = PlatformDemand::new(&wl, &platform);
    let sim = ServerSim::new(demand.server_spec());
    let closed = sim
        .run_closed_loop(&mut demand.source(1), 64, 500, 6000, 7)
        .throughput_rps();
    let offered = closed * 0.7;
    let open = run_open_loop(
        demand.server_spec(),
        &mut demand.source(2),
        offered,
        500,
        6000,
        7,
    );
    let achieved = open.throughput_rps();
    assert!(
        (achieved - offered).abs() / offered < 0.08,
        "open loop {achieved} vs offered {offered}"
    );
}
