//! Resilience-layer properties: the disabled layer is invisible
//! (pinned against a pre-PR render fixture), the enabled layer is
//! thread-count invariant, and the retry budget is never exceeded under
//! any seeded fault/traffic combination.

use wcs_core::{ChaosPlan, DesignPoint, Evaluator, ResilienceSpec, ScenarioEval};
use wcs_simcore::faults::FaultProcess;
use wcs_simcore::{SimDuration, SimRng};
use wcs_simserver::{
    run_open_loop_resilient, AdmissionConfig, BreakerConfig, RateProfile, RequestSource,
    ResilienceConfig, Resource, RetryBudgetConfig, RetryPolicy, ServerSpec, Stage,
};
use wcs_workloads::{ScenarioSpec, TrafficPack};

/// Exponential CPU-only requests, mean 800 µs — ~80% utilization at
/// 1000 RPS on two cores.
struct ExpSource;
impl RequestSource for ExpSource {
    fn next_request(&mut self, rng: &mut SimRng, stages: &mut Vec<Stage>) {
        stages.push(Stage::new(
            Resource::Cpu,
            rng.exp_duration(SimDuration::from_micros(800)),
        ));
    }
}

/// The scenarios bin's default slate, verbatim.
fn default_slate() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::steady("faas"),
        ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        ScenarioSpec::steady("dag-analytics"),
        ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ScenarioSpec::steady("websearch").with_traffic(TrafficPack::flash_crowd()),
    ]
}

fn run_slate(eval: &Evaluator) -> Vec<ScenarioEval> {
    let designs = [DesignPoint::baseline_srvr1(), DesignPoint::n2()];
    let specs = default_slate();
    let mut all = Vec::new();
    for design in &designs {
        all.extend(eval.evaluate_scenarios(design, &specs).unwrap());
    }
    all
}

/// FNV-1a over a render (the scenarios bin's checksum function).
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Without a resilience spec, the full scenarios-bin slate renders
/// byte-identically to the build that predates the resilience layer —
/// the checksum was captured by running that build's `scenarios` binary,
/// and re-captured once when the QoS search began to stop its client
/// ramp at a throughput plateau (only srvr1's faas capacity and the
/// flash-crowd traffic scaled from it moved; no cost line did).
#[test]
fn disabled_resilience_pins_the_pre_pr_fixture() {
    let eval = Evaluator::builder().quick().build().unwrap();
    let render = format!("{:?}", run_slate(&eval));
    assert_eq!(
        fnv64(&render),
        0x48e970d838e462d6,
        "disabled resilience must not perturb pre-PR renders"
    );
}

/// The enabled layer is a pure function of the spec: bit-identical
/// across thread counts and memo settings.
#[test]
fn resilient_slate_is_thread_count_invariant() {
    let render = |threads: usize, memo: bool| {
        let eval = Evaluator::builder()
            .quick()
            .threads(threads)
            .unwrap()
            .memo(memo)
            .resilience(ResilienceSpec::standard())
            .build()
            .unwrap();
        format!("{:?}", run_slate(&eval))
    };
    let want = render(1, true);
    assert!(want.contains("resilience"), "layer must be active");
    assert_eq!(want, render(2, true), "2 threads drifted from serial");
    assert_eq!(want, render(8, false), "8 threads / memo off drifted");
}

/// Property: across seeds, fault plans, and traffic shapes, the retry
/// budget's spend never exceeds its accrual ceiling
/// (`initial + ratio * offered`), so retry amplification stays bounded
/// no matter how faults and overload align.
#[test]
fn retry_budget_is_never_exceeded_under_any_seeded_combination() {
    let spec = ServerSpec::new(2);
    let flash = RateProfile::new(
        SimDuration::from_secs_f64(2.0),
        vec![1.0, 1.0, 3.0, 3.0, 1.0],
    );
    let steady = RateProfile::constant();
    let budget = RetryBudgetConfig {
        ratio: 0.05,
        initial: 4.0,
        cap: 32.0,
    };
    let config = ResilienceConfig {
        admission: Some(AdmissionConfig {
            rate_rps: 1100.0,
            burst: 64.0,
            low_reserve: 8.0,
            low_fraction: 0.2,
        }),
        retry_budget: Some(budget),
        breaker: Some(BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_millis(40),
            jitter: 0.2,
            half_open_probes: 2,
        }),
    };
    let retry = RetryPolicy {
        timeout: None,
        max_retries: 6,
        backoff: SimDuration::from_millis(1),
    };
    for seed in [1u64, 7, 42, 1234] {
        for (mttf_ms, mttr_ms) in [(400.0, 60.0), (1500.0, 250.0)] {
            for profile in [&steady, &flash] {
                let process = FaultProcess::exponential(
                    SimDuration::from_secs_f64(mttf_ms / 1e3),
                    SimDuration::from_secs_f64(mttr_ms / 1e3),
                )
                .unwrap();
                let mut frng = SimRng::stream(seed ^ 0xFA17, 3);
                let outages = process.windows(SimDuration::from_secs_f64(20.0), &mut frng);
                let mut source = ExpSource;
                let (_, res) = run_open_loop_resilient(
                    spec,
                    &mut source,
                    1000.0,
                    profile,
                    500,
                    3000,
                    seed,
                    &outages,
                    &retry,
                    &config,
                );
                let ceiling = budget.initial + budget.ratio * res.offered as f64;
                assert!(
                    (res.retries_spent as f64) <= ceiling,
                    "seed {seed} mttf {mttf_ms}: spent {} > ceiling {ceiling}",
                    res.retries_spent
                );
                assert_eq!(res.offered, res.admitted + res.shed(), "conservation");
            }
        }
    }
}

/// A co-varying chaos wave under the flash crowd keeps amplification
/// within the configured budget end-to-end through the evaluator, and
/// availability/shed/goodput all land in the eval.
#[test]
fn flash_crowd_plus_blade_fault_stays_within_budget_end_to_end() {
    let rspec = ResilienceSpec {
        chaos: Some(ChaosPlan::blade_fault()),
        ..ResilienceSpec::standard()
    };
    let eval = Evaluator::builder()
        .quick()
        .resilience(rspec)
        .build()
        .unwrap();
    let design = DesignPoint::n2();
    let spec = ScenarioSpec::steady("websearch").with_traffic(TrafficPack::flash_crowd());
    let s = eval.evaluate_scenario(&design, &spec).unwrap();
    let r = s.resilience.expect("resilience eval present");
    let ceiling = 8.0 + rspec.retry_ratio.unwrap() * r.offered as f64;
    assert!(
        (r.retries_spent as f64) <= ceiling,
        "spent {} > ceiling {ceiling}",
        r.retries_spent
    );
    assert!(r.goodput_rps > 0.0);
    assert!((0.0..=1.0).contains(&r.availability));
    assert!((0.0..=1.0).contains(&r.shed_fraction));
    assert!((0.0..=1.0).contains(&r.slo_attainment));
}
