//! Regenerates Figure 4 of the paper: memory-blade slowdowns (b) and the
//! provisioning cost/power efficiencies (c).
//!
//! Run with `cargo run --release -p wcs-bench --bin fig4`.

use wcs_memshare::blade::BladeModel;
use wcs_memshare::link::RemoteLink;
use wcs_memshare::policy::PolicyKind;
use wcs_memshare::provisioning::Provisioning;
use wcs_memshare::slowdown::{estimate_slowdown_with, ReplayMemo, SlowdownConfig, SlowdownResult};
use wcs_platforms::{catalog, PlatformId};
use wcs_tco::{Efficiency, TcoModel};
use wcs_workloads::WorkloadId;

fn main() {
    // Accept the fleet-wide flags; this binary has no fan-out. The memo
    // lets the PCIe and CBF columns (same replay, different link) share
    // one two-level simulation per workload.
    let args = wcs_bench::cli::parse();
    let memo = ReplayMemo::with_enabled(args.memo).with_obs(args.obs.clone());
    println!("Figure 4(b): slowdowns with random replacement (% of execution time)");
    println!(
        "{:<16}{:>13}{:>13}{:>13}{:>13}{:>13}",
        "config", "websearch", "webmail", "ytube", "mapred-wc", "mapred-wr"
    );
    for (label, link, frac) in [
        ("PCIe x4, 25%", RemoteLink::pcie_x4(), 0.25),
        ("CBF,     25%", RemoteLink::pcie_x4_cbf(), 0.25),
        ("PCIe x4, 12.5%", RemoteLink::pcie_x4(), 0.125),
        ("CBF,     12.5%", RemoteLink::pcie_x4_cbf(), 0.125),
    ] {
        print!("{label:<16}");
        for id in WorkloadId::ALL {
            let r = estimate_slowdown_with(
                id,
                &SlowdownConfig {
                    local_fraction: frac,
                    link,
                    ..SlowdownConfig::paper_default()
                },
                &memo,
            )
            .expect("valid slowdown config");
            print!(
                "{:>13}",
                format!("{:.1}% {}", r.slowdown * 100.0, precision(&r))
            );
        }
        println!();
    }
    println!("(± is the 95% batch-means half-width in percentage points)");
    println!(
        "(paper, PCIe x4 @ 25%: 4.7 / 0.2 / 1.4 / 0.7 / 0.7; CBF: 1.2 / 0.1 / 0.4 / 0.2 / 0.2)"
    );

    println!("\nReplacement-policy comparison (websearch, 25% local, PCIe x4):");
    for policy in [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::Random] {
        let r = estimate_slowdown_with(
            WorkloadId::Websearch,
            &SlowdownConfig {
                policy,
                ..SlowdownConfig::paper_default()
            },
            &memo,
        )
        .expect("valid slowdown config");
        println!(
            "  {:<8} miss ratio {:>6.3}  slowdown {:>5.2}% {}",
            format!("{policy:?}"),
            r.stats.miss_ratio(),
            r.slowdown * 100.0,
            precision(&r)
        );
    }

    println!("\nFigure 4(c): provisioning efficiencies relative to the emb1 baseline");
    let base_platform = catalog::platform(PlatformId::Emb1);
    let model = TcoModel::paper_default();
    let base = Efficiency::new(1.0, model.server_tco(&base_platform));
    println!(
        "{:<10} {:>12} {:>8} {:>12}",
        "scheme", "Perf/Inf-$", "Perf/W", "Perf/TCO-$"
    );
    for scheme in [
        Provisioning::static_partitioning(),
        Provisioning::dynamic_provisioning(),
    ] {
        let modified = scheme.apply(&base_platform, &BladeModel::paper_default());
        let eff = Efficiency::new(
            1.0 / (1.0 + scheme.assumed_slowdown),
            model.server_tco(&modified),
        );
        let rel = eff.relative_to(&base);
        println!(
            "{:<10} {:>11.0}% {:>7.0}% {:>11.0}%",
            scheme.name,
            rel.perf_per_inf * 100.0,
            rel.perf_per_watt * 100.0,
            rel.perf_per_tco * 100.0
        );
    }
    println!("(paper: static 102/116/108; dynamic 106/116/111)");
    args.write_metrics();
}

/// `±` and the slowdown's 95% half-width in percentage points.
fn precision(r: &SlowdownResult) -> String {
    let half_width = r.half_width.expect("the paper length fills every batch");
    format!("±{:.3}", half_width * 100.0)
}
