//! Shared command-line handling for the bench binaries.
//!
//! Every binary accepts the same flag cluster from this one parser —
//! there is no per-bin flag handling:
//!
//! * `--threads N` (or `--threads=N`) sizes the worker pool, defaulting
//!   to the machine's available parallelism.
//! * `--no-memo` disables the sub-simulation result caches.
//! * `--seed S` overrides the base RNG seed of every evaluation built
//!   through [`BenchArgs::eval_builder`].
//! * `--metrics PATH` enables the observability layer and writes a
//!   snapshot of every recorded series when the binary calls
//!   [`BenchArgs::write_metrics`]: JSON by default, Prometheus text
//!   exposition when `PATH` ends in `.prom`, JSON on stdout for `-`.
//! * `--resume PATH` opens (creating if absent) the crash-safety journal
//!   at `PATH`: previously completed sweep cells are replayed into the
//!   memo instead of recomputed, and newly computed cells are appended.
//! * `--task-budget-ms N` arms the watchdog: any sweep cell running
//!   longer than `N` wall-clock milliseconds is cancelled cooperatively
//!   and reported as a degraded cell instead of stalling the run.
//! * `--scenario NAME` narrows scenario-aware binaries to one registered
//!   workload (paper suite, `faas`, `dag-analytics`, or anything
//!   registered at startup). An unknown name is a usage error (exit 2)
//!   whose message lists every registered scenario.
//! * `--traffic PACK` selects the arrival process for scenario runs:
//!   `steady` (default), `diurnal`, `flash-crowd`, or `failover-surge`.
//! * `--resilience` arms the standard resilience layer for scenario
//!   runs: token-bucket admission control, a 10% retry budget, circuit
//!   breakers, and a seeded chaos wave that co-varies blade faults with
//!   the traffic profile.
//! * `--retry-budget RATIO` overrides the retry-budget accrual ratio
//!   (and implies `--resilience`).
//!
//! None of the flags can change results. Parallel fan-outs seed their
//! tasks purely from the task index, memoized values are pure functions
//! of their keys, journal replay seeds the memo with bit-identical
//! payloads, and every exact-class metric is recorded from returned
//! simulation values — so `--threads`, `--no-memo`, `--metrics`, and
//! `--resume` are wall-clock and reporting dials, not reproducibility
//! hazards. (`--task-budget-ms` is the one exception: deadlines are
//! wall-clock, so a fired deadline degrades a cell nondeterministically —
//! use generous budgets for runs that must be bit-identical.)

//! # Exit-code convention
//!
//! Every bench binary (and every worker process `wcs-served` spawns)
//! uses the same exit codes, so supervisors and CI can tell outcomes
//! apart without parsing stderr:
//!
//! | code | meaning |
//! |------|---------|
//! | [`EXIT_OK`] (0)       | completed normally |
//! | [`EXIT_ERROR`] (1)    | runtime failure (evaluation error, unwritable output, divergence) |
//! | [`EXIT_USAGE`] (2)    | malformed command line |
//! | [`EXIT_GRACEFUL`] (3) | clean early shutdown: a service worker saw its stdin close (supervisor death or explicit drain), sealed its journal, and left — no torn tail, nothing lost |
//!
//! Anything else (or a signal death, which has no code on Unix) is a
//! crash; the sweep-service journal tolerates those by construction.

use std::fmt::Display;
use std::process::exit;

use wcs_core::evaluate::EvalBuilder;
use wcs_core::{Evaluator, ResilienceSpec, WcsError};
use wcs_simcore::obs::Registry;
use wcs_simcore::ThreadPool;
use wcs_workloads::registry;
use wcs_workloads::{ScenarioSpec, TrafficPack};

/// The run completed normally.
pub const EXIT_OK: i32 = 0;
/// A runtime failure: evaluation error, unwritable output, divergence.
pub const EXIT_ERROR: i32 = 1;
/// A malformed command line.
pub const EXIT_USAGE: i32 = 2;
/// A clean early shutdown (service workers: stdin closed, journal
/// sealed). Distinct from [`EXIT_ERROR`] so the supervisor can tell a
/// drained worker from a crashed one.
pub const EXIT_GRACEFUL: i32 = 3;

/// Unwraps `result` or prints `error: <context>: <cause>` and exits with
/// [`EXIT_ERROR`]. The one error boundary every bench binary shares —
/// per-bin `.expect(..)` panics (which exit 101 and print a backtrace
/// pointing at the binary, not the cause) are replaced by this.
pub fn run_or_exit<T, E: Display>(context: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {context}: {e}");
            exit(EXIT_ERROR);
        }
    }
}

/// The metric families every bench binary's `--metrics` export carries.
/// [`ensure_standard_series`] registers one canonical series per family
/// so consumers can rely on the keys being present; a zero value means
/// the subsystem did not run in that binary.
pub const STANDARD_FAMILIES: [&str; 10] = [
    "queue",
    "pool",
    "memo",
    "memshare",
    "flashcache",
    "cooling",
    "faults",
    "recovery",
    "scenario",
    "resilience",
];

/// Parsed common arguments: the worker pool plus whatever the binary
/// defines for itself.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Worker pool sized by `--threads` (default: available parallelism).
    pub pool: ThreadPool,
    /// Whether sub-simulation memoization is enabled (default) or
    /// disabled by `--no-memo`.
    pub memo: bool,
    /// Destination of the metrics snapshot (`--metrics PATH`), if any.
    pub metrics: Option<String>,
    /// Base RNG seed override (`--seed S`), if any.
    pub seed: Option<u64>,
    /// Crash-safety journal path (`--resume PATH`), if any. Completed
    /// cells recorded there are replayed instead of recomputed, and new
    /// cells are appended as they finish.
    pub resume: Option<String>,
    /// Per-cell watchdog budget in milliseconds (`--task-budget-ms N`),
    /// if any. Cells exceeding it are cancelled cooperatively and
    /// reported as degraded.
    pub task_budget_ms: Option<u64>,
    /// Registered workload selected by `--scenario NAME`, if any. The
    /// name was validated against the registry at parse time.
    pub scenario: Option<String>,
    /// Traffic pack selected by `--traffic PACK`, if any.
    pub traffic: Option<TrafficPack>,
    /// Resilience layer armed by `--resilience` / `--retry-budget`, if
    /// any. Applied to every evaluator built through
    /// [`BenchArgs::eval_builder`].
    pub resilience: Option<ResilienceSpec>,
    /// The metrics registry: enabled iff `--metrics` was passed,
    /// otherwise the disabled no-op registry.
    pub obs: Registry,
    /// Positional/unrecognized arguments, in order, for the binary's own
    /// parsing (e.g. `fig5`'s baseline platform).
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// An [`EvalBuilder`] with this command line applied: pool, memo,
    /// observability registry, seed override, resume journal, and
    /// watchdog budget. Binaries layer their own profile on top
    /// (`.quick()`, `.faults(..)`, ...) and `build()`.
    pub fn eval_builder(&self) -> EvalBuilder {
        let mut b = Evaluator::builder()
            .pool(self.pool)
            .memo(self.memo)
            .obs(self.obs.clone());
        if let Some(seed) = self.seed {
            b = b.seed(seed);
        }
        if let Some(path) = &self.resume {
            b = b.resume(path);
        }
        if let Some(ms) = self.task_budget_ms {
            b = b.task_budget(std::time::Duration::from_millis(ms));
        }
        if let Some(rs) = self.resilience {
            b = b.resilience(rs);
        }
        b
    }

    /// Builds the evaluator from [`eval_builder`](Self::eval_builder)
    /// after applying `profile`, exiting with status 1 on failure (an
    /// unreadable `--resume` journal is the common cause) instead of
    /// panicking. Binaries call this as their one construction point.
    pub fn build_evaluator(&self, profile: impl FnOnce(EvalBuilder) -> EvalBuilder) -> Evaluator {
        match profile(self.eval_builder()).build() {
            Ok(eval) => eval,
            Err(e) => {
                eprintln!("error: cannot construct evaluator: {e}");
                exit(EXIT_ERROR);
            }
        }
    }

    /// The scenario slate this command line selects from a binary's
    /// `default` slate:
    ///
    /// * `--scenario NAME` narrows to that one workload (under
    ///   `--traffic`, or steady when the flag is absent),
    /// * `--traffic PACK` alone re-runs the default slate's distinct
    ///   workloads, each under `PACK`,
    /// * neither flag runs `default` unchanged.
    pub fn scenario_specs(&self, default: &[ScenarioSpec]) -> Vec<ScenarioSpec> {
        match (&self.scenario, self.traffic) {
            (Some(name), pack) => {
                vec![ScenarioSpec::steady(name).with_traffic(pack.unwrap_or(TrafficPack::Steady))]
            }
            (None, Some(pack)) => {
                let mut specs: Vec<ScenarioSpec> = Vec::new();
                for spec in default {
                    if !specs.iter().any(|s| s.workload == spec.workload) {
                        specs.push(ScenarioSpec {
                            workload: spec.workload,
                            traffic: pack,
                        });
                    }
                }
                specs
            }
            (None, None) => default.to_vec(),
        }
    }

    /// Writes the metrics snapshot to the `--metrics` destination, if
    /// one was requested: JSON by default, Prometheus text when the path
    /// ends in `.prom`, JSON on stdout for `-`. Call once, at the end of
    /// `main`, after [`Evaluator::export_obs`] / any end-of-run exports.
    ///
    /// Every standard family is registered before the snapshot, so the
    /// export always contains the `queue`, `pool`, `memo`, `memshare`,
    /// `flashcache`, `cooling`, `faults`, and `recovery` series.
    pub fn write_metrics(&self) {
        let Some(path) = &self.metrics else {
            return;
        };
        ensure_standard_series(&self.obs);
        let snap = self.obs.snapshot();
        if path == "-" {
            print!("{}", snap.to_json());
            return;
        }
        let body = if path.ends_with(".prom") {
            snap.to_prometheus()
        } else {
            snap.to_json()
        };
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote metrics to {path}"),
            Err(e) => {
                eprintln!("error: cannot write metrics to {path}: {e}");
                exit(EXIT_ERROR);
            }
        }
    }
}

/// Registers one canonical series from each [`STANDARD_FAMILIES`] family
/// (kind-compatible with the real recorders), so that a snapshot always
/// carries every family even when a binary exercises only some
/// subsystems. Zero means "subsystem did not run", absent means "binary
/// predates the obs layer".
pub fn ensure_standard_series(registry: &Registry) {
    if !registry.is_enabled() {
        return;
    }
    for name in [
        "queue.scheduled",
        "queue.fast_path",
        "queue.calendar_hits",
        "queue.heap_fallbacks",
    ] {
        registry.counter(name).add(0);
    }
    registry.max_gauge("queue.max_depth").observe(0);
    registry.counter("pool.tasks").add(0);
    for domain in ["storage", "replay", "perf", "scenario"] {
        registry.wall_counter(&format!("memo.{domain}.hits")).add(0);
        registry
            .wall_counter(&format!("memo.{domain}.misses"))
            .add(0);
    }
    for name in [
        "memshare.replays",
        "memshare.accesses",
        "memshare.page_faults",
        "memshare.writebacks",
        "memshare.cbf_saved_ns",
        "flashcache.replays",
        "flashcache.requests",
        "flashcache.flash_hits",
        "flashcache.background_bytes",
        "flashcache.ftl_bytes_programmed",
        "flashcache.ftl_erases",
        "cooling.throttle_events",
        "cooling.fan_failures",
        "faults.timeouts",
        "faults.retries",
        "faults.dropped",
        "faults.offered",
        "recovery.cells_replayed",
        "recovery.cells_journaled",
        "recovery.resume_hits",
        "recovery.task_panics",
        "recovery.task_retries",
        "recovery.plan_skipped",
        "recovery.worker_spawns",
        "recovery.worker_kills_observed",
        "recovery.worker_leases_expired",
        "recovery.worker_cells_stolen",
        "recovery.worker_merge_conflicts",
        "recovery.worker_retries",
        "scenario.evals",
        "scenario.traffic_runs",
        "scenario.requests",
        "scenario.qos_violations",
        "scenario.faas_resident",
        "scenario.dag_tasks",
        "scenario.dag_stragglers",
        "resilience.runs",
        "resilience.requests",
        "resilience.shed",
        "resilience.retries_spent",
        "resilience.retries_denied",
        "resilience.breaker_trips",
        "resilience.fast_fails",
    ] {
        registry.counter(name).add(0);
    }
    // Wall-class recovery series: deadlines and journal damage are
    // wall-clock phenomena, so they live outside the deterministic set.
    for name in [
        "recovery.deadline_cancels",
        "recovery.journal_errors",
        "recovery.journal_truncated_bytes",
    ] {
        registry.wall_counter(name).add(0);
    }
}

/// Parses `std::env::args()`, exiting with status 2 on a malformed
/// command line.
pub fn parse() -> BenchArgs {
    parse_from(std::env::args().skip(1))
}

/// Parses an explicit argument stream (testable form of [`parse`]).
///
/// # Errors
/// Returns a [`WcsError::Cli`] describing the malformed flag.
pub fn try_parse_from(args: impl Iterator<Item = String>) -> Result<BenchArgs, WcsError> {
    let mut pool = ThreadPool::available();
    let mut memo = true;
    let mut metrics = None;
    let mut seed = None;
    let mut resume = None;
    let mut task_budget_ms = None;
    let mut scenario = None;
    let mut traffic = None;
    let mut resilience = false;
    let mut retry_budget = None;
    let mut rest = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--no-memo" {
            memo = false;
            continue;
        }
        if arg == "--resilience" {
            resilience = true;
            continue;
        }
        // `--flag value` and `--flag=value` are both accepted for every
        // valued flag.
        let mut valued = |flag: &str| -> Result<Option<String>, WcsError> {
            if arg == flag {
                return args
                    .next()
                    .map(Some)
                    .ok_or_else(|| WcsError::Cli(format!("{flag} requires a value")));
            }
            Ok(arg
                .strip_prefix(flag)
                .and_then(|r| r.strip_prefix('='))
                .map(str::to_owned))
        };
        if let Some(v) = valued("--threads")? {
            let n: usize = v.parse().map_err(|_| {
                WcsError::Cli(format!("--threads expects a positive integer, got {v:?}"))
            })?;
            pool = ThreadPool::new(n).map_err(WcsError::from)?;
        } else if let Some(v) = valued("--seed")? {
            let s: u64 = v
                .parse()
                .map_err(|_| WcsError::Cli(format!("--seed expects an integer, got {v:?}")))?;
            seed = Some(s);
        } else if let Some(v) = valued("--metrics")? {
            metrics = Some(v);
        } else if let Some(v) = valued("--resume")? {
            resume = Some(v);
        } else if let Some(v) = valued("--task-budget-ms")? {
            let ms: u64 = v.parse().map_err(|_| {
                WcsError::Cli(format!(
                    "--task-budget-ms expects a positive integer, got {v:?}"
                ))
            })?;
            if ms == 0 {
                return Err(WcsError::Cli(
                    "--task-budget-ms must be positive (every cell would be cancelled)".to_owned(),
                ));
            }
            task_budget_ms = Some(ms);
        } else if let Some(v) = valued("--scenario")? {
            if !registry::contains(&v) {
                return Err(WcsError::UnknownScenario {
                    name: v,
                    known: registry::names(),
                });
            }
            scenario = Some(v);
        } else if let Some(v) = valued("--traffic")? {
            traffic = Some(TrafficPack::parse(&v).ok_or_else(|| {
                WcsError::Cli(format!(
                    "--traffic expects one of {}; got {v:?}",
                    TrafficPack::NAMES.join(", ")
                ))
            })?);
        } else if let Some(v) = valued("--retry-budget")? {
            let ratio: f64 = v
                .parse()
                .map_err(|_| WcsError::Cli(format!("--retry-budget expects a ratio, got {v:?}")))?;
            if !(ratio.is_finite() && ratio > 0.0) {
                return Err(WcsError::Cli(format!(
                    "--retry-budget must be a positive finite ratio, got {v:?}"
                )));
            }
            retry_budget = Some(ratio);
        } else {
            rest.push(arg);
        }
    }
    // `--retry-budget` implies the standard layer with the ratio
    // overridden; `--resilience` alone uses the standard layer as-is.
    let resilience = match (resilience, retry_budget) {
        (_, Some(ratio)) => Some(ResilienceSpec::standard().with_retry_ratio(ratio)),
        (true, None) => Some(ResilienceSpec::standard()),
        (false, None) => None,
    };
    let obs = Registry::with_enabled(metrics.is_some());
    Ok(BenchArgs {
        pool,
        memo,
        metrics,
        seed,
        resume,
        task_budget_ms,
        scenario,
        traffic,
        resilience,
        obs,
        rest,
    })
}

fn parse_from(args: impl Iterator<Item = String>) -> BenchArgs {
    match try_parse_from(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: <bin> [--threads N] [--no-memo] [--seed S] [--metrics PATH] \
                 [--resume JOURNAL] [--task-budget-ms N] \
                 [--scenario NAME] [--traffic steady|diurnal|flash-crowd|failover-surge] \
                 [--resilience] [--retry-budget RATIO] [args...]"
            );
            exit(EXIT_USAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults_to_available_parallelism() {
        let a = try_parse_from(strs(&[])).unwrap();
        assert_eq!(a.pool, ThreadPool::available());
        assert!(a.memo, "memoization defaults on");
        assert!(a.metrics.is_none());
        assert!(a.seed.is_none());
        assert!(!a.obs.is_enabled(), "obs stays disabled without --metrics");
        assert!(a.rest.is_empty());
    }

    #[test]
    fn no_memo_flag_disables_memoization() {
        let a = try_parse_from(strs(&["--no-memo"])).unwrap();
        assert!(!a.memo);
        assert!(a.rest.is_empty());
        let b = try_parse_from(strs(&["desk", "--no-memo", "--threads=2"])).unwrap();
        assert!(!b.memo);
        assert_eq!(b.rest, vec!["desk".to_owned()]);
    }

    #[test]
    fn parses_both_flag_forms() {
        let a = try_parse_from(strs(&["--threads", "3"])).unwrap();
        assert_eq!(a.pool.threads(), 3);
        let b = try_parse_from(strs(&["--threads=8"])).unwrap();
        assert_eq!(b.pool.threads(), 8);
    }

    #[test]
    fn metrics_flag_enables_obs() {
        let a = try_parse_from(strs(&["--metrics", "out.json"])).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("out.json"));
        assert!(a.obs.is_enabled());
        let b = try_parse_from(strs(&["--metrics=out.prom"])).unwrap();
        assert_eq!(b.metrics.as_deref(), Some("out.prom"));
    }

    #[test]
    fn seed_flag_parses_and_flows_into_builder() {
        let a = try_parse_from(strs(&["--seed", "42"])).unwrap();
        assert_eq!(a.seed, Some(42));
        let eval = a.eval_builder().quick().build().unwrap();
        assert_eq!(eval.measure.seed, 42);
        assert!(try_parse_from(strs(&["--seed", "x"])).is_err());
        assert!(try_parse_from(strs(&["--seed"])).is_err());
    }

    #[test]
    fn resume_flag_parses_both_forms() {
        let a = try_parse_from(strs(&["--resume", "run.journal"])).unwrap();
        assert_eq!(a.resume.as_deref(), Some("run.journal"));
        let b = try_parse_from(strs(&["--resume=other.journal"])).unwrap();
        assert_eq!(b.resume.as_deref(), Some("other.journal"));
        assert!(try_parse_from(strs(&["--resume"])).is_err());
        // No flag: no journal, and the builder stays journal-free.
        let c = try_parse_from(strs(&[])).unwrap();
        assert!(c.resume.is_none());
        let eval = c.eval_builder().quick().build().unwrap();
        assert!(!eval.memo.is_journaling());
    }

    #[test]
    fn task_budget_flag_parses_and_rejects_zero() {
        let a = try_parse_from(strs(&["--task-budget-ms", "5000"])).unwrap();
        assert_eq!(a.task_budget_ms, Some(5000));
        let b = try_parse_from(strs(&["--task-budget-ms=250"])).unwrap();
        assert_eq!(b.task_budget_ms, Some(250));
        assert!(try_parse_from(strs(&["--task-budget-ms", "0"])).is_err());
        assert!(try_parse_from(strs(&["--task-budget-ms", "soon"])).is_err());
        assert!(try_parse_from(strs(&["--task-budget-ms"])).is_err());
        // The budget arms the evaluator's watchdog through the builder.
        let eval = a.eval_builder().quick().build().unwrap();
        let wd = eval.watchdog.as_deref().expect("watchdog armed");
        assert_eq!(wd.budget(), std::time::Duration::from_millis(5000));
    }

    #[test]
    fn scenario_flag_validates_against_the_registry() {
        let a = try_parse_from(strs(&["--scenario", "faas"])).unwrap();
        assert_eq!(a.scenario.as_deref(), Some("faas"));
        assert!(a.traffic.is_none());
        let err = try_parse_from(strs(&["--scenario", "nope"])).unwrap_err();
        match err {
            WcsError::UnknownScenario { name, known } => {
                assert_eq!(name, "nope");
                assert!(known.contains(&"faas"), "{known:?}");
                assert!(known.contains(&"websearch"), "{known:?}");
            }
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
        assert!(try_parse_from(strs(&["--scenario"])).is_err());
    }

    #[test]
    fn traffic_flag_parses_pack_names() {
        let a = try_parse_from(strs(&["--traffic", "flash-crowd"])).unwrap();
        assert_eq!(a.traffic, Some(TrafficPack::flash_crowd()));
        let b = try_parse_from(strs(&["--traffic=steady"])).unwrap();
        assert_eq!(b.traffic, Some(TrafficPack::Steady));
        let err = try_parse_from(strs(&["--traffic", "tsunami"])).unwrap_err();
        assert!(err.to_string().contains("flash-crowd"), "{err}");
        assert!(try_parse_from(strs(&["--traffic"])).is_err());
    }

    #[test]
    fn scenario_specs_narrow_the_default_slate() {
        let default = [
            ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
            ScenarioSpec::steady("faas"),
            ScenarioSpec::steady("dag-analytics"),
        ];
        // No flags: the default slate, unchanged.
        let none = try_parse_from(strs(&[])).unwrap();
        assert_eq!(none.scenario_specs(&default), default.to_vec());
        // --scenario (+ --traffic) narrows to one spec.
        let one = try_parse_from(strs(&["--scenario", "webmail", "--traffic", "diurnal"])).unwrap();
        assert_eq!(
            one.scenario_specs(&default),
            vec![ScenarioSpec::steady("webmail").with_traffic(TrafficPack::diurnal())]
        );
        let steady = try_parse_from(strs(&["--scenario=faas"])).unwrap();
        assert_eq!(
            steady.scenario_specs(&default),
            vec![ScenarioSpec::steady("faas")]
        );
        // --traffic alone re-packs the slate's distinct workloads.
        let pack = try_parse_from(strs(&["--traffic", "failover-surge"])).unwrap();
        let specs = pack.scenario_specs(&default);
        assert_eq!(specs.len(), 2, "distinct workloads only: {specs:?}");
        assert!(specs
            .iter()
            .all(|s| s.traffic == TrafficPack::failover_surge()));
    }

    #[test]
    fn resilience_flags_arm_the_standard_layer() {
        let off = try_parse_from(strs(&[])).unwrap();
        assert!(off.resilience.is_none(), "resilience defaults off");
        let on = try_parse_from(strs(&["--resilience"])).unwrap();
        assert_eq!(on.resilience, Some(ResilienceSpec::standard()));
        // --retry-budget implies resilience and overrides the ratio.
        let budget = try_parse_from(strs(&["--retry-budget", "0.05"])).unwrap();
        assert_eq!(
            budget.resilience,
            Some(ResilienceSpec::standard().with_retry_ratio(0.05))
        );
        let both = try_parse_from(strs(&["--resilience", "--retry-budget=0.2"])).unwrap();
        assert_eq!(both.resilience.unwrap().retry_ratio, Some(0.2));
        assert!(try_parse_from(strs(&["--retry-budget", "0"])).is_err());
        assert!(try_parse_from(strs(&["--retry-budget", "-1"])).is_err());
        assert!(try_parse_from(strs(&["--retry-budget", "soon"])).is_err());
        assert!(try_parse_from(strs(&["--retry-budget"])).is_err());
        // The spec flows into the evaluator through the builder.
        let eval = on.eval_builder().quick().build().unwrap();
        assert_eq!(eval.resilience, Some(ResilienceSpec::standard()));
    }

    #[test]
    fn rejects_bad_thread_counts() {
        assert!(try_parse_from(strs(&["--threads", "zero"])).is_err());
        assert!(try_parse_from(strs(&["--threads", "0"])).is_err());
        assert!(try_parse_from(strs(&["--threads"])).is_err());
    }

    #[test]
    fn keeps_positional_args_in_order() {
        let a = try_parse_from(strs(&["desk", "--threads", "2", "extra"])).unwrap();
        assert_eq!(a.pool.threads(), 2);
        assert_eq!(a.rest, vec!["desk".to_owned(), "extra".to_owned()]);
    }

    #[test]
    fn cli_errors_surface_as_wcs_errors() {
        let err = try_parse_from(strs(&["--threads", "zero"])).unwrap_err();
        assert!(matches!(err, WcsError::Cli(_)), "{err:?}");
        // A zero thread count is a configuration error, unified too.
        let err = try_parse_from(strs(&["--threads", "0"])).unwrap_err();
        assert!(matches!(err, WcsError::Config(_)), "{err:?}");
    }

    #[test]
    fn standard_series_cover_every_family() {
        let reg = Registry::new();
        ensure_standard_series(&reg);
        let json = reg.snapshot().to_json();
        for family in STANDARD_FAMILIES {
            assert!(
                json.contains(&format!("\"{family}.")),
                "family {family} missing from {json}"
            );
        }
        // The disabled registry stays inert.
        let off = Registry::disabled();
        ensure_standard_series(&off);
        assert!(off.snapshot().metrics.is_empty());
    }
}
