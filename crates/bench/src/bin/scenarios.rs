//! Scenario-pack study: registered workloads (the paper suite joined by
//! the FaaS and DAG-analytics families) under traffic packs, on the
//! srvr1 baseline and the unified N2 design.
//!
//! The default slate runs FaaS steady and under a flash crowd, DAG
//! analytics steady and under a diurnal cycle, and websearch under a
//! flash crowd; `--scenario NAME` and `--traffic PACK` narrow it (an
//! unknown name exits 2 listing every registered scenario). After the
//! report the binary re-evaluates the whole slate under 1 and 2 worker
//! threads with memoization off and requires byte-identical renders —
//! a divergence aborts the run (and CI) before results are written.
//! Writes `SCENARIOS_results.json` to the current directory.
//!
//! Run with `cargo run --release -p wcs-bench --bin scenarios
//! [--scenario NAME] [--traffic PACK]`.

use std::fmt::Write as _;

use wcs_bench::cli::{self, run_or_exit};
use wcs_core::{DesignPoint, Evaluator, FamilyEval, ScenarioEval};
use wcs_simcore::journal::fnv1a64;
use wcs_simcore::ThreadPool;
use wcs_workloads::{ScenarioSpec, TrafficPack};

/// The default slate: both new families, steady and under a pack, plus
/// one paper workload under the flash crowd.
fn default_slate() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::steady("faas"),
        ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        ScenarioSpec::steady("dag-analytics"),
        ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ScenarioSpec::steady("websearch").with_traffic(TrafficPack::flash_crowd()),
    ]
}

/// Evaluates the whole slate on every design, in slate-then-design order.
fn run_slate(
    eval: &Evaluator,
    designs: &[DesignPoint],
    specs: &[ScenarioSpec],
) -> Vec<ScenarioEval> {
    let mut all = Vec::with_capacity(designs.len() * specs.len());
    for design in designs {
        all.extend(run_or_exit(
            "scenario evaluation",
            eval.evaluate_scenarios(design, specs),
        ));
    }
    all
}

fn family_note(family: &FamilyEval) -> String {
    match family {
        FamilyEval::Paper { workload } => format!("paper:{workload}"),
        FamilyEval::Faas {
            pool_gib,
            warm_fraction,
            cpu_inflation,
            ..
        } => format!(
            "pool {pool_gib:.1} GiB, warm {:.0}%, cpu x{cpu_inflation:.2}",
            warm_fraction * 100.0
        ),
        FamilyEval::Dag {
            tasks,
            stragglers,
            makespan_secs,
            ..
        } => format!("{tasks} tasks ({stragglers} stragglers), makespan {makespan_secs:.1} s"),
    }
}

fn main() {
    let args = cli::parse();
    let specs = args.scenario_specs(&default_slate());
    let designs = [DesignPoint::baseline_srvr1(), DesignPoint::n2()];
    let eval = args.build_evaluator(|b| b.quick());

    let all = run_slate(&eval, &designs, &specs);

    println!("Scenario packs on srvr1 baseline vs unified N2 (quick profile):");
    println!(
        "  {:<28} {:<14} {:>12} {:<5} {:>8} {:>8} {:>7}  detail",
        "scenario", "design", "value", "unit", "p95(s)", "QoS att", "avail"
    );
    for ev in &all {
        let (p95, att) = match &ev.traffic {
            Some(t) => (
                format!("{:.3}", t.p95_latency_secs),
                t.qos_attainment
                    .map_or_else(|| "-".to_owned(), |q| format!("{:.3}", q)),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        // Fleet availability is the evaluator's fault burden; a
        // resilient run reports its own measured availability instead.
        let avail = match (&ev.resilience, &ev.availability) {
            (Some(r), _) => format!("{:.4}", r.availability),
            (None, Some(a)) => format!("{:.4}", a.availability),
            (None, None) => "-".to_owned(),
        };
        println!(
            "  {:<28} {:<14} {:>12.2} {:<5} {:>8} {:>8} {:>7}  {}",
            ev.scenario,
            ev.design,
            ev.value,
            ev.unit,
            p95,
            att,
            avail,
            family_note(&ev.family)
        );
        if let Some(r) = &ev.resilience {
            println!(
                "  {:>43} shed {:.1}%, goodput {:.1} rps, SLO att {:.3}, \
                 p99/SLO {:.2}, retries {}+{} denied, breaker {} trips ({:.1}% open), \
                 chaos {} outages ({:.1}% down)",
                "resilience:",
                r.shed_fraction * 100.0,
                r.goodput_rps,
                r.slo_attainment,
                r.p99_over_slo,
                r.retries_spent,
                r.retries_denied,
                r.breaker_trips,
                r.breaker_open_fraction * 100.0,
                r.chaos_outages,
                r.chaos_down_fraction * 100.0,
            );
        }
    }

    // Determinism gate: the full slate again under 1 and 2 worker
    // threads with memoization off must render byte-identically to the
    // run above. Any divergence aborts before results are written.
    let reference = format!("{all:?}");
    let mut gate_configs = 1usize;
    for threads in [1usize, 2] {
        let pool = run_or_exit("size gate pool", ThreadPool::new(threads));
        let mut b = Evaluator::builder().quick().pool(pool).memo(false);
        if let Some(seed) = args.seed {
            b = b.seed(seed);
        }
        if let Some(rs) = args.resilience {
            b = b.resilience(rs);
        }
        let gate_eval = run_or_exit("construct gate evaluator", b.build());
        let rerun = format!("{:?}", run_slate(&gate_eval, &designs, &specs));
        assert_eq!(
            reference, rerun,
            "scenario evaluation diverged at {threads} thread(s), memo off"
        );
        gate_configs += 1;
    }
    let render_fnv = fnv1a64(reference.as_bytes());
    println!(
        "  determinism: {gate_configs} engine configs byte-identical (fnv64 {render_fnv:#018x})"
    );

    let mut json = String::from("{\n  \"scenarios\": [\n");
    for (i, ev) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        let traffic = match &ev.traffic {
            Some(t) => format!(
                "{{\"pack\": \"{}\", \"offered_peak_rps\": {:.4}, \
                 \"throughput_rps\": {:.4}, \"p95_latency_secs\": {:.6}, \
                 \"qos_attainment\": {}, \"qos_violations\": {}}}",
                t.pack,
                t.offered_peak_rps,
                t.throughput_rps,
                t.p95_latency_secs,
                t.qos_attainment
                    .map_or_else(|| "null".to_owned(), |q| format!("{q:.6}")),
                t.qos_violations()
            ),
            None => "null".to_owned(),
        };
        let availability = match (&ev.resilience, &ev.availability) {
            (Some(r), _) => format!("{:.6}", r.availability),
            (None, Some(a)) => format!("{:.6}", a.availability),
            (None, None) => "null".to_owned(),
        };
        let resilience = match &ev.resilience {
            Some(r) => format!(
                "{{\"shed_fraction\": {:.6}, \"goodput_rps\": {:.4}, \
                 \"availability\": {:.6}, \"slo_secs\": {:.6}, \
                 \"slo_attainment\": {:.6}, \"p99_over_slo\": {:.4}, \
                 \"retries_spent\": {}, \"retries_denied\": {}, \
                 \"retry_amplification\": {:.4}, \"breaker_trips\": {}, \
                 \"breaker_open_fraction\": {:.6}, \"chaos_outages\": {}, \
                 \"chaos_down_fraction\": {:.6}}}",
                r.shed_fraction,
                r.goodput_rps,
                r.availability,
                r.slo_secs,
                r.slo_attainment,
                r.p99_over_slo,
                r.retries_spent,
                r.retries_denied,
                r.retry_amplification,
                r.breaker_trips,
                r.breaker_open_fraction,
                r.chaos_outages,
                r.chaos_down_fraction
            ),
            None => "null".to_owned(),
        };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"design\": \"{}\", \"value\": {:.6}, \
             \"unit\": \"{}\", \"availability\": {availability}, \
             \"traffic\": {traffic}, \"resilience\": {resilience}}}{comma}",
            ev.scenario, ev.design, ev.value, ev.unit
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"determinism\": {{\"configs\": {gate_configs}, \
         \"render_fnv64\": \"{render_fnv:#018x}\", \"diverged\": false}}"
    );
    json.push_str("}\n");
    run_or_exit(
        "write SCENARIOS_results.json",
        std::fs::write("SCENARIOS_results.json", &json),
    );
    println!("wrote SCENARIOS_results.json");

    eval.export_obs();
    args.write_metrics();
}
