//! Output checks. A timed eval fails when it errs or breaks a check of
//! its own; a broken run-level check (a set-up anchor) fails every
//! timed eval of the run.

use wcs_core::{ScenarioEval, WcsError};
use wcs_platforms::PlatformId;
use wcs_simcore::stats::harmonic_mean;
use wcs_simcore::SimDuration;
use wcs_workloads::calib::{rmse, Residual, GRID_PLATFORMS, PAPER_PERF_GRID};
use wcs_workloads::WorkloadId;

use crate::inputs::Plan;
use crate::{Lanes, Workload};

/// `core::validate`'s Figure 2(c) tolerance on the grid RMSE.
const GRID_RMSE_TOLERANCE: f64 = 0.07;
/// Figure 5: N2's harmonic-mean Perf/TCO-$ relative to srvr1.
const FIG5_N2: f64 = 2.0;
/// `core::validate`'s tolerance on [`FIG5_N2`].
const FIG5_N2_TOLERANCE: f64 = 0.55;

/// The outcome of checking one run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Per timed eval: whether it failed.
    pub failed: Vec<bool>,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Figure 2(c) RMSE over the grid rounds.
    pub grid_rmse: Option<f64>,
    /// Figure 5 N2-vs-srvr1 harmonic mean from the sweep's set-up.
    pub fig5_n2: Option<f64>,
}

impl Verdict {
    /// Number of failed timed evals.
    pub fn failures(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failures() == 0
    }

    fn fail(&mut self, eval: usize, problem: String) {
        self.failed[eval] = true;
        self.problems.push(problem);
    }

    fn fail_all(&mut self, problem: String) {
        self.failed.iter_mut().for_each(|f| *f = true);
        self.problems.push(problem);
    }
}

/// Checks a run's set-up and timed results.
pub fn check(
    workload: Workload,
    plan: &Plan,
    fill: &[Result<ScenarioEval, WcsError>],
    timed: &[Result<ScenarioEval, WcsError>],
) -> Verdict {
    let mut v = Verdict {
        failed: vec![false; timed.len()],
        ..Verdict::default()
    };
    if let Some((i, e)) = fill
        .iter()
        .enumerate()
        .find_map(|(i, r)| Some((i, r.as_ref().err()?)))
    {
        v.fail_all(format!("set-up eval {i} failed: {e}"));
    }
    for (i, r) in timed.iter().enumerate() {
        match r {
            Err(e) => v.fail(i, format!("eval {i} failed: {e}")),
            Ok(e) if !(e.value.is_finite() && e.value > 0.0) => {
                v.fail(
                    i,
                    format!(
                        "eval {i} ({}): perf {} is not positive",
                        e.scenario, e.value
                    ),
                );
            }
            Ok(_) => {}
        }
    }
    if !v.correct() {
        return v;
    }
    let ok = |rs: &[Result<ScenarioEval, WcsError>]| -> Vec<ScenarioEval> {
        rs.iter()
            .map(|r| r.as_ref().expect("checked above").clone())
            .collect()
    };
    match workload {
        Workload::PlatformGrid => grid(&mut v, &ok(timed)),
        Workload::DesignSweep => fig5(&mut v, &ok(fill)),
        Workload::TrafficWhatIf => traffic(&mut v, plan, &ok(timed)),
    }
    v
}

/// Figure 2(c) residuals of one round (`PlatformId::ALL` ×
/// `WorkloadId::ALL`, design-major), leaving out the ones
/// `core::validate` excludes.
fn round_residuals(round: &[ScenarioEval]) -> Vec<Residual> {
    let perf = |p: PlatformId, wi: usize| {
        let d = PlatformId::ALL
            .iter()
            .position(|&x| x == p)
            .expect("catalog platform");
        round[d * WorkloadId::ALL.len() + wi].value
    };
    let mut residuals = Vec::new();
    for (wi, &w) in WorkloadId::ALL.iter().enumerate() {
        for (pi, &p) in GRID_PLATFORMS.iter().enumerate() {
            if p == PlatformId::Emb2 || (p == PlatformId::Mobl && w == WorkloadId::MapredWr) {
                continue;
            }
            residuals.push(Residual {
                workload: w,
                platform: p,
                paper: PAPER_PERF_GRID[wi][pi],
                measured: perf(p, wi) / perf(PlatformId::Srvr1, wi),
            });
        }
    }
    residuals
}

/// The run's Fig 2(c) RMSE over every round's residuals: one round's
/// RMSE moves with its measurement seed, the run's hardly at all.
fn grid(v: &mut Verdict, timed: &[ScenarioEval]) {
    let per_round = PlatformId::ALL.len() * WorkloadId::ALL.len();
    let residuals: Vec<Residual> = timed.chunks(per_round).flat_map(round_residuals).collect();
    let e = rmse(&residuals);
    v.grid_rmse = Some(e);
    if e > GRID_RMSE_TOLERANCE {
        v.fail_all(format!(
            "Fig 2(c) RMSE {e:.4} exceeds {GRID_RMSE_TOLERANCE}"
        ));
    }
}

/// Harmonic-mean Perf/TCO-$ of `design` relative to `base`, over the
/// five paper workloads.
fn hmean_perf_per_tco(design: &[ScenarioEval], base: &[ScenarioEval]) -> f64 {
    let rel: Vec<f64> = design
        .iter()
        .zip(base)
        .map(|(d, b)| d.efficiency().relative_to(&b.efficiency()).perf_per_tco)
        .collect();
    harmonic_mean(&rel).unwrap_or(f64::NAN)
}

fn fig5(v: &mut Verdict, fill: &[ScenarioEval]) {
    let (srvr1, n2) = fill.split_at(WorkloadId::ALL.len());
    let h = hmean_perf_per_tco(n2, srvr1);
    v.fig5_n2 = Some(h);
    if h.is_nan() || (h - FIG5_N2).abs() > FIG5_N2_TOLERANCE {
        v.fail_all(format!(
            "Fig 5: N2 HMean Perf/TCO-$ vs srvr1 {h:.3} outside {FIG5_N2} ± {FIG5_N2_TOLERANCE}"
        ));
    }
}

fn traffic(v: &mut Verdict, plan: &Plan, timed: &[ScenarioEval]) {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    for (i, (e, cell)) in timed.iter().zip(&plan.timed).enumerate() {
        let Some(t) = &e.traffic else {
            v.fail(i, format!("eval {i} ({}): no traffic run", e.scenario));
            continue;
        };
        if t.qos_attainment.is_some_and(|a| !unit(a)) {
            v.fail(
                i,
                format!("eval {i} ({}): QoS attainment outside [0, 1]", e.scenario),
            );
        }
        let spec = plan.evaluators[cell.evaluator].resilience;
        let (Some(spec), Some(r)) = (spec, &e.resilience) else {
            // Without faults every plain run completes its window; a
            // resilient run may legitimately lose it all to a chaos plan.
            if spec.is_some() || e.resilience.is_some() || t.completed == 0 {
                v.fail(
                    i,
                    format!(
                        "eval {i} ({}): empty run or resilience result without its spec",
                        e.scenario
                    ),
                );
            }
            continue;
        };
        // The budget's ceiling does not depend on capacity or span.
        let budget = spec
            .config_at(1.0, SimDuration::from_secs_f64(1.0))
            .retry_budget
            .expect("drawn specs carry a retry budget");
        let ceiling = budget.initial + budget.ratio * r.offered as f64;
        let broken = [
            (
                r.admitted + r.shed != r.offered,
                "admitted + shed != offered",
            ),
            (t.completed > r.offered, "completed > offered"),
            (!unit(r.availability), "availability outside [0, 1]"),
            (!unit(r.slo_attainment), "SLO attainment outside [0, 1]"),
            (
                r.retries_spent as f64 > ceiling,
                "retries spent above the budget ceiling",
            ),
        ];
        for (bad, what) in broken {
            if bad {
                v.fail(i, format!("eval {i} ({}): {what}", e.scenario));
            }
        }
    }
}

/// Checks that the untraced timed phase was cold in the layers it
/// measures, from the memo lanes' growth over `evals` timed evals.
/// A cold replay looks its trace up once, a hit after set-up, so cold
/// replays show as equal hits and misses.
pub(crate) fn cold(workload: Workload, evals: usize, lanes: &Lanes, v: &mut Verdict) {
    let n = evals as u64;
    let [storage, replay, _] = lanes;
    let expected = match workload {
        Workload::PlatformGrid => [(0, 0), (0, 0), (0, n)],
        Workload::DesignSweep => [(n, n), (n, n), (0, n)],
        // One steady-lane hit and one cold traffic run per eval; the
        // replays behind the steady fill are hits.
        Workload::TrafficWhatIf => [(storage.hits, 0), (replay.hits, 0), (n, n)],
    };
    for ((lane, s), (hits, misses)) in ["storage", "replay", "eval"]
        .iter()
        .zip(lanes)
        .zip(expected)
    {
        if (s.hits, s.misses) != (hits, misses) {
            v.fail_all(format!(
                "{lane} memo lane saw {} hits / {} misses in timing, expected {hits} / {misses}",
                s.hits, s.misses
            ));
        }
    }
}

/// Checks the traced pass's steady-lane lookups over `evals` timed
/// evals: all cold, except on traffic-what-if, where all are hits.
pub(crate) fn cold_steady(
    workload: Workload,
    evals: usize,
    hits: u64,
    misses: u64,
    v: &mut Verdict,
) {
    let n = evals as u64;
    let expected = match workload {
        Workload::TrafficWhatIf => (n, 0),
        _ => (0, n),
    };
    if (hits, misses) != expected {
        v.fail_all(format!(
            "traced steady lane saw {hits} hits / {misses} misses, expected {} / {}",
            expected.0, expected.1
        ));
    }
}
