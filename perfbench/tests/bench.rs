//! The benchmark's own contract, on reduced configurations: inputs and
//! digests are pure functions of the seed, traced and untraced passes
//! agree bit for bit, and a failed output check fails the run.

use std::process::Command;

use wcs_perfbench::inputs::{self, Plan};
use wcs_perfbench::{checks, pass_digest, run, untraced, Config, Workload};

/// One round: the smallest complete configuration.
fn small(_: Workload) -> usize {
    1
}

/// Everything a plan feeds the evaluators.
fn inputs_of(plan: &Plan) -> String {
    let cells = plan.fill.iter().chain(&plan.timed).map(|c| {
        let ev = &plan.evaluators[c.evaluator];
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            plan.designs[c.design], c.spec, ev.measure, ev.resilience
        )
    });
    cells.collect::<Vec<_>>().join("\n")
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = inputs_of(&inputs::plan(w, 7, small(w)));
        assert_eq!(a, inputs_of(&inputs::plan(w, 7, small(w))), "{}", w.name());
        assert_ne!(a, inputs_of(&inputs::plan(w, 8, small(w))), "{}", w.name());
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for w in [Workload::PlatformGrid, Workload::TrafficWhatIf] {
        let a = pass_digest(&untraced(w, 7, small(w), 1));
        assert_eq!(a, pass_digest(&untraced(w, 7, small(w), 2)), "{}", w.name());
        assert_ne!(a, pass_digest(&untraced(w, 8, small(w), 1)), "{}", w.name());
    }
}

#[test]
fn traced_and_untraced_runs_agree_bit_for_bit() {
    for w in Workload::ALL {
        let outcome = run(&Config {
            workload: w,
            seed: 11,
            size: small(w),
            trace: true,
        });
        assert!(outcome.correct, "{}: {}", w.name(), outcome.detail);
        assert_eq!(outcome.failed, 0);
        assert_eq!(Some(outcome.digest), outcome.traced_digest, "{}", w.name());
        let coverage = outcome
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage")
            .expect("coverage reported");
        assert!(
            coverage.value >= 0.95,
            "{}: coverage {}",
            w.name(),
            coverage.value
        );
    }
}

#[test]
fn a_failed_output_check_fails_the_run() {
    let w = Workload::TrafficWhatIf;
    let pass = untraced(w, 5, small(w), 1);
    assert!(checks::check(w, &pass.plan, &pass.fill, &pass.timed).correct());
    let mut timed = pass.timed;
    let tampered = timed
        .iter_mut()
        .flatten()
        .find_map(|e| e.resilience.as_mut())
        .expect("half the queries are resilient");
    tampered.shed += 1;
    let verdict = checks::check(w, &pass.plan, &pass.fill, &timed);
    assert_eq!(verdict.failures(), 1);
    assert!(!verdict.correct());

    let outcome = run(&Config {
        workload: Workload::PlatformGrid,
        seed: 5,
        size: 1,
        trace: false,
    });
    assert!(outcome.correct);
    assert_eq!(outcome.exit_code(), 0);
    let failed = wcs_perfbench::Outcome {
        correct: false,
        failed: 1,
        ..outcome
    };
    assert_ne!(failed.exit_code(), 0);
    assert!(failed
        .result()
        .to_string()
        .starts_with("{\"correct\": false"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
