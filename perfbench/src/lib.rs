//! Benchmark of the wcs design × scenario evaluation ("eval").
//!
//! Three workloads each run a fixed, seed-determined list of cold evals
//! on one thread, as a closed loop with one caller and no think time:
//!
//! - `platform-grid`: Figure 2(c)'s six baselines × five paper workloads
//!   per round on a fresh evaluator. Eval time is the QoS throughput
//!   search; the replay layers do nothing.
//! - `design-sweep`: seed-drawn N2 variants × five paper workloads.
//!   Eval time is mostly memory-blade and flash-cache replay.
//! - `traffic-what-if`: seed-drawn traffic packs, half of them under a
//!   drawn resilience layer, against steady capacities filled in set-up.
//!   Eval time is the open-loop simulation.
//!
//! An untraced pass drives [`Evaluator::evaluate_scenario`] and gives
//! the end-to-end metrics. A traced pass performs the same evals layer
//! by layer ([`traced`]) and gives the per-layer split; every traced
//! eval must equal its untraced twin bit for bit.
//!
//! [`Evaluator::evaluate_scenario`]: wcs_core::Evaluator::evaluate_scenario

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use wcs_core::{ScenarioEval, WcsError};
use wcs_simcore::memo::MemoStats;

pub mod checks;
mod digest;
pub mod host;
pub mod inputs;
pub mod report;
pub mod traced;

use host::HostSample;
use inputs::{Cell, Plan};
use traced::Recorder;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2(c) rounds on fresh evaluators.
    PlatformGrid,
    /// A cold sweep of drawn N2 variants.
    DesignSweep,
    /// Drawn traffic queries against filled steady capacities.
    TrafficWhatIf,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PlatformGrid,
        Workload::DesignSweep,
        Workload::TrafficWhatIf,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlatformGrid => "platform-grid",
            Workload::DesignSweep => "design-sweep",
            Workload::TrafficWhatIf => "traffic-what-if",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds for a run of nominally `seconds` seconds: grid rounds of
    /// 30 evals (~0.3 s), sweep rounds of 20 evals (~1.8 s), or traffic
    /// rounds of 108 queries (~0.35 s), at rates measured on a 2-vCPU
    /// Xeon VM. The rates are fixed, so the work depends on the arguments
    /// alone and never on how fast the host runs.
    pub fn size(self, seconds: u32) -> usize {
        let seconds = seconds as usize;
        match self {
            Workload::PlatformGrid => (seconds * 34).div_ceil(10),
            Workload::DesignSweep => (seconds * 11).div_ceil(20),
            Workload::TrafficWhatIf => (seconds * 28).div_ceil(10),
        }
    }
}

/// Memo hits and misses of the storage, replay and eval lanes (the eval
/// lane merges the perf, scenario, traffic and resilient caches).
pub type Lanes = [MemoStats; 3];

/// What one pass over a plan produced.
#[derive(Debug)]
pub struct Pass {
    /// The inputs of the last set-up, which the timed phase ran.
    pub plan: Plan,
    /// Wall seconds of each set-up: input generation plus fills.
    pub setup_s: Vec<f64>,
    /// Results of the last set-up's fill evals.
    pub fill: Vec<Result<ScenarioEval, WcsError>>,
    /// Results of the timed evals, in order.
    pub timed: Vec<Result<ScenarioEval, WcsError>>,
    /// Wall seconds of each timed eval.
    pub latency_s: Vec<f64>,
    /// Wall seconds of the whole timed phase.
    pub timed_wall_s: f64,
    /// Memo lane growth during the timed phase.
    pub memo: Lanes,
    /// Host counter growth during the timed phase.
    pub host: HostSample,
    /// Spans and work counts, for a traced pass.
    pub recorder: Option<Recorder>,
}

/// Sums the lanes of every distinct memo behind `plan`'s evaluators.
fn lanes(plan: &Plan) -> Lanes {
    let mut seen = BTreeSet::new();
    let mut out = Lanes::default();
    for ev in &plan.evaluators {
        if !seen.insert(Arc::as_ptr(&ev.memo) as usize) {
            continue;
        }
        let storage = ev.memo.storage().stats();
        let replay = ev.memo.replay().stats();
        let all = ev.memo.stats();
        let eval = MemoStats {
            hits: all.hits - storage.hits - replay.hits,
            misses: all.misses - storage.misses - replay.misses,
        };
        for (lane, s) in out.iter_mut().zip([storage, replay, eval]) {
            *lane = lane.merged(&s);
        }
    }
    out
}

fn growth(before: &Lanes, after: &Lanes) -> Lanes {
    let mut out = Lanes::default();
    for ((o, b), a) in out.iter_mut().zip(before).zip(after) {
        o.hits = a.hits - b.hits;
        o.misses = a.misses - b.misses;
    }
    out
}

/// How a pass performs one eval.
enum Mode<'a> {
    Untraced,
    Traced(&'a mut Recorder),
}

impl Mode<'_> {
    fn eval(&mut self, plan: &Plan, cell: &Cell) -> Result<ScenarioEval, WcsError> {
        let ev = &plan.evaluators[cell.evaluator];
        let design = &plan.designs[cell.design];
        match self {
            Mode::Untraced => ev.evaluate_scenario(design, &cell.spec),
            Mode::Traced(rec) => traced::evaluate(ev, design, &cell.spec, rec),
        }
    }
}

fn run_pass(workload: Workload, seed: u64, size: usize, setups: usize, mut mode: Mode) -> Pass {
    let mut last = None;
    let mut setup_s = Vec::with_capacity(setups);
    for _ in 0..setups {
        // Each set-up starts from nothing: the previous one's caches
        // and traces are dropped first.
        drop(last.take());
        let start = Instant::now();
        let plan = match &mut mode {
            Mode::Untraced => inputs::plan(workload, seed, size),
            Mode::Traced(rec) => {
                rec.eval = traced::SETUP;
                rec.span("bench.inputs", |_| inputs::plan(workload, seed, size))
            }
        };
        let fill: Vec<_> = plan.fill.iter().map(|c| mode.eval(&plan, c)).collect();
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some((plan, fill));
    }
    let (plan, fill) = last.expect("at least one set-up");

    let memo_before = lanes(&plan);
    let host_before = HostSample::now();
    let mut timed = Vec::with_capacity(plan.timed.len());
    let mut latency_s = Vec::with_capacity(plan.timed.len());
    let start = Instant::now();
    for (i, cell) in plan.timed.iter().enumerate() {
        if let Mode::Traced(rec) = &mut mode {
            rec.eval = i as u32;
        }
        let t = Instant::now();
        let r = mode.eval(&plan, cell);
        latency_s.push(t.elapsed().as_secs_f64());
        timed.push(r);
    }
    let timed_wall_s = start.elapsed().as_secs_f64();
    let host = HostSample::now().since(&host_before);
    let memo = growth(&memo_before, &lanes(&plan));
    Pass {
        plan,
        setup_s,
        fill,
        timed,
        latency_s,
        timed_wall_s,
        memo,
        host,
        recorder: None,
    }
}

/// Set-ups per untraced run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// The untraced pass: `setups` set-ups, then the timed evals through
/// [`wcs_core::Evaluator::evaluate_scenario`].
pub fn untraced(workload: Workload, seed: u64, size: usize, setups: usize) -> Pass {
    run_pass(workload, seed, size, setups, Mode::Untraced)
}

/// The traced pass: one set-up and the timed evals, layer by layer.
pub fn traced(workload: Workload, seed: u64, size: usize) -> Pass {
    let mut rec = Recorder::default();
    let mut pass = run_pass(workload, seed, size, 1, Mode::Traced(&mut rec));
    pass.recorder = Some(rec);
    pass
}

/// The digest of every eval a pass performed: the last set-up's fills,
/// then the timed evals. Failed evals fold in as a marker word.
pub fn pass_digest(pass: &Pass) -> u64 {
    let mut d = digest::Digest::default();
    for r in pass.fill.iter().chain(&pass.timed) {
        match r {
            Ok(e) => d.eval(e),
            Err(_) => d.word(u64::MAX),
        };
    }
    d.value()
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One benchmark run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Rounds ([`Workload::size`]).
    pub size: usize,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Diagnostics: digests, work counts, memo lanes, host counters.
    pub detail: report::Json,
    /// Digest of the untraced pass.
    pub digest: u64,
    /// Digest of the traced pass, for a traced run.
    pub traced_digest: Option<u64>,
    /// Timed evals attempted.
    pub attempted: usize,
    /// Timed evals that failed a check.
    pub failed: usize,
    /// Whether every check passed.
    pub correct: bool,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<report::Metric>,
    /// The traced pass's spans as TSV.
    pub spans: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result(&self) -> report::Json {
        use report::Json;
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as u64)),
            ("failed", Json::Int(self.failed as u64)),
            ("metrics", report::metrics_json(&self.metrics)),
        ])
    }

    /// Process exit status: nonzero when any check failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct)
    }
}

fn lanes_json(memo: &Lanes) -> report::Json {
    use report::Json;
    let lane =
        |s: &MemoStats| Json::obj([("hits", Json::Int(s.hits)), ("misses", Json::Int(s.misses))]);
    Json::obj([
        ("storage", lane(&memo[0])),
        ("replay", lane(&memo[1])),
        ("eval", lane(&memo[2])),
    ])
}

/// Work counts read off the untraced results.
fn result_work(pass: &Pass) -> report::Json {
    use report::Json;
    let mut plain_completed = 0;
    let mut offered = 0;
    let mut shed = 0;
    let mut retries = 0;
    for e in pass.timed.iter().flatten() {
        match (&e.traffic, &e.resilience) {
            (Some(t), None) => plain_completed += t.completed,
            (_, Some(r)) => {
                offered += r.offered;
                shed += r.shed;
                retries += r.retries_spent;
            }
            (None, None) => {}
        }
    }
    Json::obj([
        ("openloop_completed", Json::Int(plain_completed)),
        ("resilient_offered", Json::Int(offered)),
        ("resilient_shed", Json::Int(shed)),
        ("resilient_retries_spent", Json::Int(retries)),
    ])
}

fn host_json(pass: &Pass) -> report::Json {
    use report::Json;
    let h = &pass.host;
    Json::obj([
        ("timed_wall_s", Json::Num(pass.timed_wall_s)),
        ("timed_on_cpu_s", Json::Num(h.on_cpu_ns as f64 / 1e9)),
        ("timed_runqueue_s", Json::Num(h.runqueue_ns as f64 / 1e9)),
        ("steal_ticks", Json::Int(h.steal_ticks)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
    ])
}

/// Runs one benchmark run: the untraced pass, and for a traced run the
/// traced pass, with every output check.
pub fn run(cfg: &Config) -> Outcome {
    use report::Json;
    let setups = if cfg.trace { 1 } else { SETUPS };
    let plain = untraced(cfg.workload, cfg.seed, cfg.size, setups);
    let peak_rss = host::peak_rss_mib();
    let mut verdict = checks::check(cfg.workload, &plain.plan, &plain.fill, &plain.timed);
    checks::cold(cfg.workload, plain.timed.len(), &plain.memo, &mut verdict);
    let ms = report::latencies_ms(&plain);
    let tail = report::tail_percentile(ms.len());
    let digest = pass_digest(&plain);
    let mut traced_digest = None;
    let mut detail = vec![
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", Json::Int(cfg.seed)),
        ("size", Json::Int(cfg.size as u64)),
        ("traced", Json::Bool(cfg.trace)),
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("evals", Json::Int(plain.timed.len() as u64)),
        ("setup_evals", Json::Int(plain.fill.len() as u64)),
        (
            "setup_runs_s",
            Json::Arr(plain.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "latency_ms",
            Json::obj([
                ("samples", Json::Int(ms.len() as u64)),
                ("p50", Json::Num(report::percentile(&ms, 50.0))),
                ("tail_pct", Json::Num(tail)),
                ("tail", Json::Num(report::percentile(&ms, tail))),
                ("max", Json::Num(ms.last().copied().unwrap_or(0.0))),
            ]),
        ),
        (
            "round_ms",
            Json::Arr(
                report::round_walls(&plain)
                    .into_iter()
                    .map(|s| Json::Num(s * 1e3))
                    .collect(),
            ),
        ),
        ("host", host_json(&plain)),
        ("memo_timed", lanes_json(&plain.memo)),
        ("work", result_work(&plain)),
    ];

    let (metrics, spans) = if cfg.trace {
        let traced = traced(cfg.workload, cfg.seed, cfg.size);
        let t_verdict = checks::check(cfg.workload, &traced.plan, &traced.fill, &traced.timed);
        let same =
            |a: &Result<ScenarioEval, WcsError>, b: &Result<ScenarioEval, WcsError>| match (a, b) {
                (Ok(a), Ok(b)) => digest::of_eval(a) == digest::of_eval(b),
                _ => false,
            };
        for (i, (a, b)) in plain.timed.iter().zip(&traced.timed).enumerate() {
            if !same(a, b) || t_verdict.failed[i] {
                verdict.failed[i] = true;
                verdict.problems.push(format!(
                    "eval {i}: traced result differs or fails its checks"
                ));
            }
        }
        if !plain.fill.iter().zip(&traced.fill).all(|(a, b)| same(a, b)) {
            verdict
                .problems
                .push("a traced set-up eval differs from its untraced twin".into());
        }
        let rec = traced.recorder.as_ref().expect("traced pass records");
        let timed_work = &rec.work[1];
        checks::cold_steady(
            cfg.workload,
            traced.timed.len(),
            timed_work.steady_hits,
            timed_work.steady_misses,
            &mut verdict,
        );
        let split = rec.work[0].split_misses + timed_work.split_misses;
        if split > 0 {
            verdict.problems.push(format!(
                "{split} replays generated their own trace inside the replay span"
            ));
        }
        let t_digest = pass_digest(&traced);
        traced_digest = Some(t_digest);
        detail.extend([
            ("traced_digest", Json::Str(format!("{t_digest:016x}"))),
            ("traced_host", host_json(&traced)),
            ("traced_memo_timed", lanes_json(&traced.memo)),
            (
                "layer_self_ms",
                Json::Obj(
                    report::layer_self_ns(&rec.spans)[1]
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Num(*v as f64 / 1e6)))
                        .collect(),
                ),
            ),
        ]);
        (
            report::per_layer(&traced, plain.timed_wall_s),
            Some(report::spans_tsv(&rec.spans)),
        )
    } else {
        (report::end_to_end(&plain, peak_rss), None)
    };

    detail.extend([
        (
            "grid_rmse",
            verdict.grid_rmse.map_or(Json::Str("n/a".into()), Json::Num),
        ),
        (
            "fig5_n2_hmean_perf_per_tco",
            verdict.fig5_n2.map_or(Json::Str("n/a".into()), Json::Num),
        ),
        (
            "problems",
            Json::Arr(
                verdict
                    .problems
                    .iter()
                    .take(20)
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
    ]);
    Outcome {
        detail: Json::obj(detail),
        digest,
        traced_digest,
        attempted: plain.timed.len(),
        failed: verdict.failures(),
        correct: verdict.correct(),
        metrics,
        spans,
    }
}
