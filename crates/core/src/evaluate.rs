//! The evaluation pipeline: performance simulation + cost model +
//! efficiency metrics for any design point.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wcs_memshare::contention::SharedLink;
use wcs_memshare::slowdown::{estimate_slowdown_pooled, SlowdownConfig};
use wcs_platforms::Platform;
use wcs_simcore::journal;
use wcs_simcore::obs::Registry;
use wcs_simcore::stats::harmonic_mean;
use wcs_simcore::watchdog::{CancelToken, Watchdog};
use wcs_simcore::{ConfigError, ThreadPool};
use wcs_tco::{
    AvailabilityModel, AvailableEfficiency, BurdenedParams, Efficiency, RackConfig,
    RealEstateParams, TcoModel, TcoReport,
};
use wcs_workloads::disktrace::params_for as disk_params;
use wcs_workloads::perf::{measure_perf_with_demand, MeasureConfig, MeasureError};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{suite, WorkloadId};

use wcs_simcore::event::QueueObs;

use crate::designs::DesignPoint;
use crate::error::WcsError;
use crate::memo::{EvalMemo, PerfSample};

/// Evaluates design points: runs every workload's performance metric and
/// prices the design's bill of materials.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Measurement effort.
    pub measure: MeasureConfig,
    /// Rack configuration for cost amortization.
    pub rack: RackConfig,
    /// Burdened power-and-cooling parameters before any cooling-design
    /// scaling.
    pub burdened: BurdenedParams,
    /// Disk-trace replay length for storage scenarios.
    pub storage_replay: u64,
    /// Optional real-estate pricing. `None` matches the paper's Figure 1
    /// cost scope exactly; `Some` adds an amortized floor-space line that
    /// rewards dense packaging.
    pub real_estate: Option<RealEstateParams>,
    /// Worker pool for fanning out independent evaluations. Serial by
    /// default so library results are reproducible on any machine by
    /// construction; any thread count produces bit-identical results
    /// because every task seeds its own RNG stream from the task index.
    pub pool: ThreadPool,
    /// Sub-simulation caches shared by every evaluation (and, through
    /// the `Arc`, by every clone of this evaluator). Enabled by default;
    /// memoized results are byte-identical to cold recomputation because
    /// each cached value is a pure function of its key.
    pub memo: Arc<EvalMemo>,
    /// Metrics registry. Disabled by default (a single-branch no-op on
    /// every record). Exact-class series are recorded from returned
    /// simulation values only, so enabling observability cannot change
    /// any evaluation result, and the recorded values are bit-identical
    /// at any thread count with the memo on or off.
    pub obs: Registry,
    /// Optional failure/repair burden applied to efficiency metrics via
    /// [`DesignEval::available_efficiency`]. `None` reproduces the
    /// paper's fail-free metrics exactly.
    pub availability: Option<AvailabilityModel>,
    /// Optional deadline monitor for [`Evaluator::evaluate_cells`]: cells
    /// exceeding the budget are cancelled cooperatively and reported as
    /// [`WcsError::Deadline`] instead of hanging the sweep. `None` (the
    /// default) applies no deadline, keeping results pure functions of
    /// the cell inputs.
    pub watchdog: Option<Arc<Watchdog>>,
    /// Optional overload-resilience layer for scenario traffic runs
    /// ([`Evaluator::evaluate_scenario`]): admission control, a retry
    /// budget, circuit breakers, and a chaos plan co-varied with the
    /// traffic pack. `None` (the default) reproduces the plain traffic
    /// path byte-for-byte.
    pub resilience: Option<crate::scenario::ResilienceSpec>,
}

impl Evaluator {
    /// The builder-style entry point: every evaluation knob — thread
    /// count, memoization, fault burden, observability, seed — in one
    /// place, starting from the paper's full-accuracy profile.
    ///
    /// ```no_run
    /// use wcs_core::evaluate::Evaluator;
    /// let eval = Evaluator::builder().quick().threads(8).unwrap().memo(true).build().unwrap();
    /// # let _ = eval;
    /// ```
    pub fn builder() -> EvalBuilder {
        EvalBuilder::paper()
    }

    /// Full-accuracy evaluator with the paper's cost parameters.
    pub fn paper_default() -> Self {
        EvalBuilder::paper()
            .build()
            .expect("paper default configuration is valid")
    }

    /// Reduced-effort evaluator for tests and examples.
    pub fn quick() -> Self {
        EvalBuilder::paper()
            .quick()
            .build()
            .expect("quick default configuration is valid")
    }

    /// Flushes end-of-run metrics (memo hit/miss counters, watchdog
    /// deadline cancels) into the attached registry. Counters accumulate
    /// — call once, right before snapshotting.
    pub fn export_obs(&self) {
        self.memo.export_obs();
        if let Some(wd) = &self.watchdog {
            self.obs
                .wall_counter("recovery.deadline_cancels")
                .add(wd.deadline_cancels());
        }
    }

    /// Evaluates a design point across the whole benchmark suite.
    ///
    /// # Errors
    /// Returns a [`MeasureError`] if any workload's QoS bound is
    /// infeasible on the design.
    pub fn evaluate(&self, design: &DesignPoint) -> Result<DesignEval, MeasureError> {
        match self.evaluate_cell(design, &CancelToken::never()) {
            Ok(e) => Ok(e),
            Err(WcsError::Measure(e)) => Err(e),
            // A never-firing token admits no deadline, and this path has
            // no catch_unwind, so only measurement errors can surface.
            Err(other) => unreachable!("uncancellable evaluation surfaced {other}"),
        }
    }

    /// Evaluates a design point under a cooperative cancellation token:
    /// the token is polled before each workload measurement, so a cell
    /// cancelled by a deadline [`Watchdog`] returns
    /// [`WcsError::Deadline`] at the next workload boundary instead of
    /// running to completion.
    ///
    /// # Errors
    /// [`WcsError::Measure`] for an infeasible QoS bound,
    /// [`WcsError::Deadline`] when `token` fired.
    pub fn evaluate_cell(
        &self,
        design: &DesignPoint,
        token: &CancelToken,
    ) -> Result<DesignEval, WcsError> {
        let platform = design.effective_platform();
        let report = self.design_report(design, &platform);

        // Workloads are independent: each derives its seed from the shared
        // MeasureConfig, not from evaluation order, so fanning them out
        // over the pool cannot change any value. The cancel token is
        // polled once per workload — the cooperative deadline boundary.
        let values = self.pool.try_par_map(&WorkloadId::ALL, |_, &id| {
            if token.is_cancelled() {
                return Err(WcsError::Deadline {
                    cell: design.name.clone(),
                });
            }
            let _span = self.obs.timer("pool.task_wall_ns").start();
            self.workload_perf(design, &platform, id)
                .map_err(WcsError::from)
        })?;
        // Exact-class series are recorded only after the whole fan-out
        // succeeded, from its returned values: the counts depend on the
        // design list alone, never on worker scheduling. The queue
        // counters come out of the (possibly cached) PerfSamples, so
        // they are identical with the memo on or off.
        self.obs.counter("eval.designs").inc();
        self.obs.counter("eval.workloads").add(values.len() as u64);
        self.obs.counter("pool.tasks").add(values.len() as u64);
        self.obs
            .histogram("cooling.cooling_scale_x100")
            .record((design.cooling.cooling_scale * 100.0).round() as u64);
        let queue = values
            .iter()
            .fold(QueueObs::default(), |acc, s| acc.merged(&s.queue));
        queue.export(&self.obs);
        let perf: BTreeMap<WorkloadId, f64> = WorkloadId::ALL
            .into_iter()
            .zip(values.into_iter().map(|s| s.value))
            .collect();
        Ok(DesignEval {
            name: design.name.clone(),
            perf,
            report,
            systems_per_rack: design.cooling.systems_per_rack,
            availability: self.availability,
        })
    }

    /// Splits the pool between the across-cell fan-out and the work
    /// inside each cell: with more threads than cells, each cell's
    /// inner evaluator keeps the leftover `threads / cells` workers for
    /// its own workload fan-out and trace materialization, so a 3-design
    /// study at `--threads 8` still uses idle workers intra-study
    /// instead of leaving five of them parked. The split affects wall
    /// time only — every path is bit-identical at any thread count.
    fn intra_cell_pool(&self, cells: usize) -> ThreadPool {
        let outer = self.pool.threads().min(cells.max(1));
        ThreadPool::new((self.pool.threads() / outer).max(1)).expect("thread count is positive")
    }

    /// Evaluates many design points, fanning the designs out over the
    /// pool. The returned evaluations are in input order and bit-identical
    /// to calling [`Evaluator::evaluate`] in a loop.
    ///
    /// Parallelism is applied across designs first; threads left over
    /// when the pool is wider than the design list are applied *within*
    /// each design.
    ///
    /// # Errors
    /// Returns the first (lowest-index) design's [`MeasureError`], exactly
    /// as the serial loop would.
    pub fn evaluate_many(&self, designs: &[DesignPoint]) -> Result<Vec<DesignEval>, MeasureError> {
        let inner = Evaluator {
            pool: self.intra_cell_pool(designs.len()),
            ..self.clone()
        };
        let evals = self.pool.try_par_map(designs, |_, d| {
            let _span = self.obs.timer("pool.task_wall_ns").start();
            inner.evaluate(d)
        })?;
        self.obs.counter("pool.tasks").add(evals.len() as u64);
        Ok(evals)
    }

    /// Evaluates many design points with **per-cell fault isolation**: a
    /// cell that panics (twice, after the retry-once policy) or exceeds
    /// the evaluator's watchdog budget becomes an `Err` in its own
    /// [`CellOutcome`] while every other cell completes normally. This is
    /// the crash-safe counterpart of [`evaluate_many`](Self::evaluate_many),
    /// which aborts the whole fan-out on the first error.
    ///
    /// Outcomes are returned in input order. With no watchdog configured,
    /// success/failure of each cell is a pure function of the cell, so
    /// the outcome vector is bit-identical at any thread count.
    pub fn evaluate_cells(&self, designs: &[DesignPoint]) -> Vec<CellOutcome> {
        let inner = Evaluator {
            pool: self.intra_cell_pool(designs.len()),
            ..self.clone()
        };
        let (results, recovery) =
            self.pool
                .par_map_watched(designs, self.watchdog.as_deref(), |_, d, token| {
                    let _span = self.obs.timer("pool.task_wall_ns").start();
                    inner.evaluate_cell(d, token)
                });
        self.obs.counter("pool.tasks").add(results.len() as u64);
        // Panic and retry counts are pure functions of the cell set
        // (tasks share no mutable state), hence exact-class.
        self.obs
            .counter("recovery.task_panics")
            .add(recovery.panics_caught);
        self.obs
            .counter("recovery.task_retries")
            .add(recovery.retries);
        results
            .into_iter()
            .zip(designs)
            .enumerate()
            .map(|(index, (r, d))| CellOutcome {
                index,
                name: d.name.clone(),
                result: match r {
                    Ok(cell) => cell,
                    Err(panic) => Err(WcsError::TaskPanic(panic)),
                },
            })
            .collect()
    }

    /// Prices the design's bill of materials under the evaluator's cost
    /// scope (shared by the suite and scenario pipelines).
    pub(crate) fn design_report(&self, design: &DesignPoint, platform: &Platform) -> TcoReport {
        let burdened = self
            .burdened
            .with_cooling_scale(design.cooling.cooling_scale);
        let tco_model = TcoModel::new(self.rack, burdened);
        match &self.real_estate {
            None => tco_model.server_tco(platform),
            Some(re) => {
                let mut bom = platform.bom().to_vec();
                bom.push(re.bom_item(design.cooling.systems_per_rack));
                tco_model.bom_tco(&platform.name, &bom)
            }
        }
    }

    /// The platform demand of `wl` on `design`: applies the storage
    /// scenario's effective disk service and the memory-sharing slowdown
    /// before any simulation runs. `trace_id` anchors the disk-trace and
    /// memory-trace sub-simulations — for paper workloads it is the
    /// workload itself; registry scenarios reuse the calibration anchor
    /// carried in their `Workload::id`.
    pub(crate) fn demand_for(
        &self,
        design: &DesignPoint,
        platform: &Platform,
        wl: &wcs_workloads::Workload,
        trace_id: WorkloadId,
    ) -> PlatformDemand {
        let disk = design
            .storage
            .as_ref()
            .map(|s| s.disk.clone())
            .unwrap_or_else(|| design.platform.disk.clone());
        let mut demand = PlatformDemand::with_overrides(
            wl,
            &design.platform,
            &disk,
            platform.memory.capacity_gib,
        );
        if let Some(scenario) = &design.storage {
            let stats = self.memo.storage().replay(
                &scenario.disk,
                scenario.flash.as_ref(),
                disk_params(trace_id),
                self.measure.seed ^ 0xD15C,
                self.storage_replay,
            );
            demand.set_disk_secs(wl.demand.io_per_req * stats.mean_service_secs());
        }
        if let Some(ms) = &design.memshare {
            // First pass: fault rate at the uncontended link; second
            // pass folds the shared link's M/D/1 queueing delay back in.
            let base = estimate_slowdown_pooled(
                trace_id,
                &SlowdownConfig {
                    local_fraction: ms.provisioning.local_fraction,
                    link: ms.link,
                    ..SlowdownConfig::paper_default()
                },
                self.memo.replay(),
                &self.pool,
            )
            .expect("memshare design has local_fraction in (0, 1]");
            let shared = SharedLink::new(ms.link, ms.servers_per_blade.max(1));
            let effective = shared.effective_link(base.faults_per_cpu_sec);
            let slowdown = 1.0 + base.faults_per_cpu_sec * effective.fault_latency_secs();
            demand.inflate_cpu(slowdown);
        }
        demand
    }

    /// Performance of one paper workload on the design.
    pub(crate) fn workload_perf(
        &self,
        design: &DesignPoint,
        platform: &Platform,
        id: WorkloadId,
    ) -> Result<PerfSample, MeasureError> {
        let wl = suite::workload(id);
        let demand = self.demand_for(design, platform, &wl, id);
        self.memo.perf(id, &demand, &self.measure, || {
            measure_perf_with_demand(&wl, &demand, &self.measure).map(|r| PerfSample {
                value: r.value,
                queue: r.queue,
            })
        })
    }
}

impl Default for Evaluator {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`Evaluator`]: one place for every evaluation knob.
///
/// Replaces the scattered `with_*` combinators and ad-hoc flag
/// threading: thread count, memoization, observability, fault burden,
/// and seed are all configured here and validated together in
/// [`EvalBuilder::build`].
///
/// ```no_run
/// use wcs_core::evaluate::Evaluator;
/// use wcs_simcore::obs::Registry;
///
/// let reg = Registry::new();
/// let eval = Evaluator::builder()
///     .quick()
///     .threads(8)
///     .unwrap()
///     .memo(true)
///     .obs(reg.clone())
///     .seed(0x5EED)
///     .build()
///     .unwrap();
/// # let _ = eval;
/// ```
#[derive(Debug, Clone)]
pub struct EvalBuilder {
    measure: MeasureConfig,
    rack: RackConfig,
    burdened: BurdenedParams,
    storage_replay: u64,
    real_estate: Option<RealEstateParams>,
    pool: ThreadPool,
    memo: bool,
    obs: Registry,
    seed: Option<u64>,
    availability: Option<AvailabilityModel>,
    resume: Option<PathBuf>,
    task_budget: Option<Duration>,
    resilience: Option<crate::scenario::ResilienceSpec>,
}

impl EvalBuilder {
    /// The paper's full-accuracy profile (the [`Evaluator::builder`]
    /// starting point).
    pub fn paper() -> Self {
        EvalBuilder {
            measure: MeasureConfig::default_accuracy(),
            rack: RackConfig::paper_default(),
            burdened: BurdenedParams::paper_default(),
            storage_replay: 120_000,
            real_estate: None,
            pool: ThreadPool::serial(),
            memo: true,
            obs: Registry::disabled(),
            seed: None,
            availability: None,
            resume: None,
            task_budget: None,
            resilience: None,
        }
    }

    /// Journals completed cells to `path` and seeds the evaluator from
    /// any valid prefix already there, so a run interrupted mid-sweep
    /// resumes bit-identical to an uninterrupted one. A missing file
    /// starts a fresh journal; a torn or corrupt tail is truncated on
    /// open. Resuming works with the memo on *or* off — replayed cells
    /// live in their own always-on lane.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Applies a per-cell wall-clock budget to
    /// [`Evaluator::evaluate_cells`]: cells exceeding it are cancelled
    /// cooperatively and reported as degraded. Wall-clock deadlines are
    /// inherently nondeterministic — leave unset for bit-reproducible
    /// sweeps.
    #[must_use]
    pub fn task_budget(mut self, budget: Duration) -> Self {
        self.task_budget = Some(budget);
        self
    }

    /// Switches to the reduced-effort profile (shorter probes, shorter
    /// storage replays) used by tests, examples, and smoke benches.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.measure = MeasureConfig::quick();
        self.storage_replay = 40_000;
        self
    }

    /// Fans independent evaluations out over `n` worker threads.
    /// Results are bit-identical at any thread count.
    ///
    /// # Errors
    /// Rejects a zero thread count.
    pub fn threads(mut self, n: usize) -> Result<Self, WcsError> {
        self.pool = ThreadPool::new(n)?;
        Ok(self)
    }

    /// Fans independent evaluations out over an existing pool.
    #[must_use]
    pub fn pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Switches sub-simulation memoization on or off. Off reproduces
    /// the cold path: every replay recomputes, and each trace is built
    /// and dropped, uncached.
    #[must_use]
    pub fn memo(mut self, enabled: bool) -> Self {
        self.memo = enabled;
        self
    }

    /// Attaches a metrics registry. The evaluator and its memo record
    /// their series into it; a [`Registry::disabled`] handle (the
    /// default) records nothing at one branch per call.
    #[must_use]
    pub fn obs(mut self, registry: Registry) -> Self {
        self.obs = registry;
        self
    }

    /// Overrides the base RNG seed of the measurement config. Every
    /// probe run derives its stream from this value, so two evaluators
    /// with equal seeds (and otherwise equal configs) are bit-identical.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Burdens efficiency metrics with a failure/repair model (see
    /// [`DesignEval::available_efficiency`]). Raw performance values
    /// are unchanged — faults tax the metric, not the simulation.
    #[must_use]
    pub fn faults(mut self, model: AvailabilityModel) -> Self {
        self.availability = Some(model);
        self
    }

    /// Enables the overload-resilience layer for scenario traffic runs:
    /// admission control, a global retry budget, per-backend circuit
    /// breakers, and an optional chaos plan whose fault waves co-vary
    /// with the traffic pack. Leaving this unset (the default) keeps
    /// every scenario render byte-identical to an evaluator that never
    /// heard of resilience.
    #[must_use]
    pub fn resilience(mut self, spec: crate::scenario::ResilienceSpec) -> Self {
        self.resilience = Some(spec);
        self
    }

    /// Adds amortized floor-space pricing to the cost scope.
    #[must_use]
    pub fn real_estate(mut self, params: RealEstateParams) -> Self {
        self.real_estate = Some(params);
        self
    }

    /// Overrides the measurement-effort config wholesale.
    #[must_use]
    pub fn measure(mut self, measure: MeasureConfig) -> Self {
        self.measure = measure;
        self
    }

    /// Overrides the disk-trace replay length for storage scenarios.
    #[must_use]
    pub fn storage_replay(mut self, events: u64) -> Self {
        self.storage_replay = events;
        self
    }

    /// Overrides the rack configuration for cost amortization.
    #[must_use]
    pub fn rack(mut self, rack: RackConfig) -> Self {
        self.rack = rack;
        self
    }

    /// Overrides the burdened power-and-cooling parameters.
    #[must_use]
    pub fn burdened(mut self, burdened: BurdenedParams) -> Self {
        self.burdened = burdened;
        self
    }

    /// Validates the configuration and builds the evaluator. When a
    /// resume journal is configured, its valid prefix is replayed into
    /// the memo here (truncating any torn tail) and an append handle is
    /// attached for the cells this run computes.
    ///
    /// # Errors
    /// Rejects a zero storage-replay length; surfaces
    /// [`WcsError::Journal`] when the resume journal cannot be opened
    /// (unreadable, or not a journal at all).
    pub fn build(self) -> Result<Evaluator, WcsError> {
        if self.storage_replay == 0 {
            return Err(ConfigError::ZeroCount {
                param: "storage_replay",
            }
            .into());
        }
        let mut measure = self.measure;
        if let Some(seed) = self.seed {
            measure.seed = seed;
        }
        let memo = Arc::new(EvalMemo::with_enabled(self.memo).with_obs(self.obs.clone()));
        if let Some(path) = &self.resume {
            let (records, writer, report) = journal::open(path)?;
            memo.seed_journal(&records);
            memo.attach_journal(writer);
            self.obs
                .wall_counter("recovery.journal_truncated_bytes")
                .add(report.truncated_bytes);
        }
        let watchdog = self
            .task_budget
            .map(|budget| Arc::new(Watchdog::new(budget)));
        Ok(Evaluator {
            measure,
            rack: self.rack,
            burdened: self.burdened,
            storage_replay: self.storage_replay,
            real_estate: self.real_estate,
            pool: self.pool,
            memo,
            obs: self.obs,
            availability: self.availability,
            watchdog,
            resilience: self.resilience,
        })
    }
}

impl Default for EvalBuilder {
    fn default() -> Self {
        Self::paper()
    }
}

/// One cell's outcome from [`Evaluator::evaluate_cells`]: the design's
/// evaluation, or the isolated error that degraded it (panic, deadline,
/// infeasible QoS) while the rest of the sweep completed.
#[derive(Debug)]
pub struct CellOutcome {
    /// Input-order index of the design.
    pub index: usize,
    /// The design's name.
    pub name: String,
    /// The evaluation, or the isolated per-cell error.
    pub result: Result<DesignEval, WcsError>,
}

impl CellOutcome {
    /// True when the cell evaluated cleanly.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.result {
            Ok(_) => write!(f, "cell {} '{}': ok", self.index, self.name),
            Err(e) => write!(f, "cell {} '{}': DEGRADED — {e}", self.index, self.name),
        }
    }
}

/// The evaluation of one design: per-workload performance plus the TCO
/// report.
#[derive(Debug, Clone)]
pub struct DesignEval {
    /// Design name.
    pub name: String,
    /// Per-workload performance (workload-defined units).
    pub perf: BTreeMap<WorkloadId, f64>,
    /// The priced bill of materials.
    pub report: TcoReport,
    /// Rack density of the design's packaging.
    pub systems_per_rack: u32,
    /// The fault burden the evaluator was configured with, if any,
    /// carried along so availability-adjusted metrics use the same
    /// model the evaluation ran under.
    pub availability: Option<AvailabilityModel>,
}

impl DesignEval {
    /// Efficiency bundle for one workload.
    ///
    /// # Panics
    /// Panics if the workload was not evaluated.
    pub fn efficiency(&self, id: WorkloadId) -> Efficiency {
        Efficiency::new(self.perf[&id], self.report.clone())
    }

    /// Efficiency burdened with the evaluator's fault model (perfect
    /// availability when none was configured) over `years` of
    /// operation.
    ///
    /// # Errors
    /// Rejects a non-positive depreciation period.
    ///
    /// # Panics
    /// Panics if the workload was not evaluated.
    pub fn available_efficiency(
        &self,
        id: WorkloadId,
        years: f64,
    ) -> Result<AvailableEfficiency, ConfigError> {
        AvailableEfficiency::new(
            self.efficiency(id),
            self.availability.unwrap_or_else(AvailabilityModel::perfect),
            years,
        )
    }

    /// Compares this design against a baseline, workload by workload.
    pub fn compare(&self, baseline: &DesignEval) -> Comparison {
        let mut rows = Vec::new();
        for id in WorkloadId::ALL {
            let rel = self.efficiency(id).relative_to(&baseline.efficiency(id));
            rows.push(ComparisonRow {
                workload: id,
                perf: rel.perf,
                perf_per_inf: rel.perf_per_inf,
                perf_per_watt: rel.perf_per_watt,
                perf_per_pc: rel.perf_per_pc,
                perf_per_tco: rel.perf_per_tco,
            });
        }
        Comparison {
            design: self.name.clone(),
            baseline: baseline.name.clone(),
            rows,
        }
    }
}

/// One workload's relative metrics in a design comparison.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonRow {
    /// The workload.
    pub workload: WorkloadId,
    /// Relative performance.
    pub perf: f64,
    /// Relative Perf/Inf-$.
    pub perf_per_inf: f64,
    /// Relative Perf/W.
    pub perf_per_watt: f64,
    /// Relative Perf/P&C-$.
    pub perf_per_pc: f64,
    /// Relative Perf/TCO-$.
    pub perf_per_tco: f64,
}

/// A design-vs-baseline comparison across the suite (one of Figure 5's
/// groups).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Name of the compared design.
    pub design: String,
    /// Name of the baseline.
    pub baseline: String,
    /// Per-workload rows.
    pub rows: Vec<ComparisonRow>,
}

impl Comparison {
    /// Harmonic mean across workloads of one metric selected by `f`.
    pub fn hmean(&self, f: impl Fn(&ComparisonRow) -> f64) -> f64 {
        let vals: Vec<f64> = self.rows.iter().map(f).collect();
        harmonic_mean(&vals).unwrap_or(f64::NAN)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} vs {}", self.design, self.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_platforms::PlatformId;

    #[test]
    fn baseline_self_comparison_is_unity() {
        let eval = Evaluator::quick();
        let b = eval
            .evaluate(&DesignPoint::baseline(PlatformId::Desk))
            .unwrap();
        let cmp = b.compare(&b);
        for row in &cmp.rows {
            assert!((row.perf - 1.0).abs() < 1e-9);
            assert!((row.perf_per_tco - 1.0).abs() < 1e-9);
        }
        assert!((cmp.hmean(|r| r.perf) - 1.0).abs() < 1e-9);
    }

    /// Memoization must not change a single bit of any evaluation: the
    /// N2 design exercises all three caches (storage replay, memory
    /// replay, performance points).
    #[test]
    fn memoized_evaluation_is_bit_identical() {
        let cold = Evaluator::builder().quick().memo(false).build().unwrap();
        let warm = Evaluator::quick();
        let design = DesignPoint::n2();
        let a = cold.evaluate(&design).unwrap();
        let b = warm.evaluate(&design).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A warm re-evaluation is answered from the caches, identically.
        let c = warm.evaluate(&design).unwrap();
        assert_eq!(format!("{a:?}"), format!("{c:?}"));
        assert!(warm.memo.stats().hits > 0, "{:?}", warm.memo.stats());
        assert_eq!(cold.memo.stats().hits, 0);
    }

    /// The builder path is the only construction surface now that the
    /// deprecated `with_pool`/`with_memo` shims are gone: pin that every
    /// builder combination (threads, memo, pre-built pool) stays
    /// bit-identical to the plain quick evaluator.
    #[test]
    fn builder_paths_are_bit_identical() {
        let design = DesignPoint::n2();
        let want = format!("{:?}", Evaluator::quick().evaluate(&design).unwrap());
        let via_threads = Evaluator::builder()
            .quick()
            .threads(2)
            .unwrap()
            .memo(false)
            .build()
            .unwrap()
            .evaluate(&design)
            .unwrap();
        assert_eq!(want, format!("{via_threads:?}"));
        let via_pool = Evaluator::builder()
            .quick()
            .pool(ThreadPool::new(4).unwrap())
            .memo(true)
            .build()
            .unwrap()
            .evaluate(&design)
            .unwrap();
        assert_eq!(want, format!("{via_pool:?}"));
    }

    #[test]
    fn builder_seed_overrides_measure_seed() {
        let eval = Evaluator::builder().quick().seed(42).build().unwrap();
        assert_eq!(eval.measure.seed, 42);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(Evaluator::builder().threads(0).is_err());
        assert!(Evaluator::builder().storage_replay(0).build().is_err());
    }

    #[test]
    fn obs_enabled_evaluation_is_unchanged_and_records() {
        use wcs_simcore::obs::Registry;
        let design = DesignPoint::n2();
        let plain = Evaluator::quick().evaluate(&design).unwrap();
        let reg = Registry::new();
        let observed = Evaluator::builder()
            .quick()
            .obs(reg.clone())
            .build()
            .unwrap();
        let e = observed.evaluate(&design).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{e:?}"));
        observed.export_obs();
        let snap = reg.snapshot();
        assert_eq!(snap.count("eval.designs"), Some(1));
        assert_eq!(snap.count("eval.workloads"), Some(5));
        assert!(snap.count("flashcache.replays").unwrap_or(0) > 0);
        assert!(snap.count("memshare.replays").unwrap_or(0) > 0);
        assert!(snap.metrics.contains_key("memo.perf.hits"));
    }

    #[test]
    fn faults_burden_taxes_efficiency_not_perf() {
        let model = AvailabilityModel::new(0.9, 2.0, 100.0).unwrap();
        let design = DesignPoint::baseline(wcs_platforms::PlatformId::Desk);
        let plain = Evaluator::quick().evaluate(&design).unwrap();
        let burdened = Evaluator::builder()
            .quick()
            .faults(model)
            .build()
            .unwrap()
            .evaluate(&design)
            .unwrap();
        // Raw perf identical; the availability-adjusted metric pays.
        assert_eq!(plain.perf, burdened.perf);
        let id = WorkloadId::Websearch;
        let adj = burdened.available_efficiency(id, 3.0).unwrap();
        assert!(adj.effective_perf() < plain.efficiency(id).perf);
        let perfect = plain.available_efficiency(id, 3.0).unwrap();
        assert_eq!(perfect.effective_perf(), plain.efficiency(id).perf);
    }

    /// A run interrupted mid-sweep and resumed from its journal must be
    /// bit-identical to an uninterrupted run — at every thread count,
    /// with the memo on and off, and even when the journal tail is torn.
    #[test]
    fn resumed_run_is_bit_identical_to_clean_run() {
        let designs = [
            DesignPoint::baseline(PlatformId::Desk),
            DesignPoint::baseline(PlatformId::Emb1),
        ];
        let path = std::env::temp_dir().join(format!(
            "wcs-core-resume-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        for threads in [1usize, 2, 8] {
            for memo in [true, false] {
                std::fs::remove_file(&path).ok();
                let clean = Evaluator::builder()
                    .quick()
                    .threads(threads)
                    .unwrap()
                    .memo(memo)
                    .build()
                    .unwrap();
                let want: Vec<String> = clean
                    .evaluate_many(&designs)
                    .unwrap()
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect();

                // "Crash": evaluate only the first design while journaling,
                // then tear the journal's tail.
                {
                    let interrupted = Evaluator::builder()
                        .quick()
                        .threads(threads)
                        .unwrap()
                        .memo(memo)
                        .resume(&path)
                        .build()
                        .unwrap();
                    interrupted.evaluate(&designs[0]).unwrap();
                    assert!(interrupted.memo.cells_journaled() > 0);
                }
                {
                    use std::io::Write as _;
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .unwrap();
                    f.write_all(&[0xAB; 11]).unwrap(); // torn half-record
                }

                // Resume: replays the journaled cells, recomputes the rest.
                let resumed = Evaluator::builder()
                    .quick()
                    .threads(threads)
                    .unwrap()
                    .memo(memo)
                    .resume(&path)
                    .build()
                    .unwrap();
                assert!(
                    resumed.memo.cells_replayed() > 0,
                    "threads={threads} memo={memo}"
                );
                let got: Vec<String> = resumed
                    .evaluate_many(&designs)
                    .unwrap()
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect();
                assert_eq!(want, got, "threads={threads} memo={memo}");
                assert!(resumed.memo.resume_hits() > 0);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_rejects_non_journal_resume_file() {
        let path =
            std::env::temp_dir().join(format!("wcs-core-badjournal-{}.wal", std::process::id()));
        std::fs::write(&path, b"not a journal at all").unwrap();
        let err = Evaluator::builder()
            .quick()
            .resume(&path)
            .build()
            .unwrap_err();
        assert!(matches!(err, WcsError::Journal(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// evaluate_cells isolates per-cell failures: a pre-cancelled token
    /// degrades the cell deterministically, other cells complete.
    #[test]
    fn cancelled_cell_degrades_without_aborting() {
        let eval = Evaluator::quick();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let token = CancelToken::never();
        token.cancel();
        let err = eval.evaluate_cell(&design, &token).unwrap_err();
        assert!(matches!(err, WcsError::Deadline { .. }), "{err}");

        // The isolated sweep entry point returns per-cell outcomes in
        // order, all Ok for healthy designs, at every thread count.
        let designs = [
            DesignPoint::baseline(PlatformId::Desk),
            DesignPoint::baseline(PlatformId::Emb1),
            DesignPoint::baseline(PlatformId::Mobl),
        ];
        for threads in [1usize, 2, 8] {
            let eval = Evaluator::builder()
                .quick()
                .threads(threads)
                .unwrap()
                .build()
                .unwrap();
            let outcomes = eval.evaluate_cells(&designs);
            assert_eq!(outcomes.len(), 3);
            for (i, o) in outcomes.iter().enumerate() {
                assert_eq!(o.index, i);
                assert_eq!(o.name, designs[i].name);
                assert!(o.is_ok(), "{o}");
            }
        }
    }

    #[test]
    fn evaluation_covers_all_workloads() {
        let eval = Evaluator::quick();
        let e = eval
            .evaluate(&DesignPoint::baseline(PlatformId::Emb1))
            .unwrap();
        assert_eq!(e.perf.len(), 5);
        assert!(e.perf.values().all(|&v| v > 0.0));
    }
}

#[cfg(test)]
mod real_estate_tests {
    use super::*;
    use crate::designs::DesignPoint;
    use wcs_platforms::Component;

    #[test]
    fn real_estate_rewards_density() {
        let mut eval = Evaluator::quick();
        eval.real_estate = Some(RealEstateParams::default_2008());
        let srvr1 = eval.evaluate(&DesignPoint::baseline_srvr1()).unwrap();
        let n2 = eval.evaluate(&DesignPoint::n2()).unwrap();
        let floor_1u = srvr1.report.line(Component::RealEstate).unwrap().hw_usd;
        let floor_n2 = n2.report.line(Component::RealEstate).unwrap().hw_usd;
        // 40 vs 1280 systems per rack: a 32x smaller floor share.
        assert!(
            (floor_1u / floor_n2 - 32.0).abs() < 0.5,
            "{floor_1u} / {floor_n2}"
        );
    }

    #[test]
    fn default_scope_has_no_floor_line() {
        let eval = Evaluator::quick();
        let e = eval.evaluate(&DesignPoint::baseline_srvr1()).unwrap();
        assert!(e.report.line(Component::RealEstate).is_none());
    }
}
