//! The traced evaluation: one design × scenario evaluation performed
//! outside-in by calling each layer's public functions in the order
//! [`Evaluator::evaluate_scenario`] calls them, with a span around every
//! call and the layer's work counted at the same boundary.
//!
//! Every step reproduces the evaluator's arithmetic exactly, so a traced
//! evaluation is bit-identical to the untraced one; the runner checks
//! that eval by eval. Spans stay in memory until the run ends.

use std::sync::Arc;
use std::time::Instant;

use wcs_core::memo::PerfSample;
use wcs_core::{
    DesignPoint, Evaluator, FamilyEval, ResilienceEval, ResilienceSpec, ScenarioEval, TrafficEval,
    WcsError,
};
use wcs_memshare::contention::SharedLink;
use wcs_memshare::slowdown::{estimate_slowdown_pooled, SlowdownConfig};
use wcs_platforms::Platform;
use wcs_simcore::event::QueueObs;
use wcs_simcore::faults::{self, FaultProcess};
use wcs_simcore::memo::{MemoKey, MemoStats};
use wcs_simcore::{SimDuration, SimRng};
use wcs_simserver::driver::SearchConfig;
use wcs_simserver::{
    find_max_throughput, run_batch, run_open_loop_profiled, run_open_loop_resilient, QosSpec,
    RateProfile, RequestSource, RetryPolicy, ServerSim,
};
use wcs_tco::TcoModel;
use wcs_workloads::perf::{MeasureConfig, MeasureError};
use wcs_workloads::registry::{self, Family};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{dag, disktrace, faas, memtrace, Metric, ScenarioSpec, TrafficPack, Workload};
use wcs_workloads::{WorkloadId, WorkloadKey};

/// Eval id of spans recorded during set-up.
pub const SETUP: u32 = u32::MAX;
/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: its layer name, its start and end on the run's
/// clock, the span that caused it, and the evaluation it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, `crate.layer`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Timed-eval index, or [`SETUP`].
    pub eval: u32,
}

/// Work done by each layer, counted where the work happens.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub memtrace_builds: u64,
    pub memtrace_accesses: u64,
    pub memtrace_bytes: u64,
    pub disktrace_builds: u64,
    pub disktrace_blocks: u64,
    pub flash_replays: u64,
    pub flash_requests: u64,
    pub flash_blocks: u64,
    pub flash_hits: u64,
    pub mem_replays: u64,
    pub mem_accesses: u64,
    pub mem_measured: u64,
    pub mem_misses: u64,
    pub driver_searches: u64,
    pub driver_probes: u64,
    pub driver_events: u64,
    pub batch_runs: u64,
    pub batch_tasks: u64,
    pub batch_events: u64,
    pub open_runs: u64,
    pub open_requests: u64,
    pub open_events: u64,
    pub res_runs: u64,
    pub res_offered: u64,
    pub res_shed: u64,
    pub res_retries_spent: u64,
    pub res_retries_denied: u64,
    pub res_goodput_rps: f64,
    pub res_offered_rps: f64,
    pub res_events: u64,
    pub fault_plans: u64,
    pub fault_windows: u64,
    pub tco_pricings: u64,
    pub steady_hits: u64,
    pub steady_misses: u64,
    /// Replays whose own trace lookup missed: the outside-in trace
    /// split no longer matches the layer's key, so the replay span
    /// silently contains trace generation.
    pub split_misses: u64,
    /// Every run's event-queue counters, merged.
    pub queue: QueueObs,
}

/// In-memory span and work recorder for one pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// The eval id stamped on new spans.
    pub eval: u32,
    /// Work counted during set-up (`[0]`) and the timed phase (`[1]`).
    pub work: [Work; 2],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            eval: SETUP,
            work: [Work::default(), Work::default()],
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            eval: self.eval,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The work counters of the current phase.
    pub fn work(&mut self) -> &mut Work {
        &mut self.work[usize::from(self.eval != SETUP)]
    }
}

/// Evaluates `spec` on `design` layer by layer under `ev`'s
/// configuration, inside one `core.evaluate` span.
///
/// # Errors
/// Exactly the errors [`Evaluator::evaluate_scenario`] returns.
pub fn evaluate(
    ev: &Evaluator,
    design: &DesignPoint,
    spec: &ScenarioSpec,
    rec: &mut Recorder,
) -> Result<ScenarioEval, WcsError> {
    rec.span("core.evaluate", |rec| evaluate_in(ev, design, spec, rec))
}

fn evaluate_in(
    ev: &Evaluator,
    design: &DesignPoint,
    spec: &ScenarioSpec,
    rec: &mut Recorder,
) -> Result<ScenarioEval, WcsError> {
    let entry = registry::resolve(spec.workload).ok_or_else(|| WcsError::UnknownScenario {
        name: spec.workload.name().to_owned(),
        known: registry::names(),
    })?;
    let platform = design.effective_platform();
    assert!(
        ev.real_estate.is_none(),
        "the traced pipeline prices the paper's cost scope"
    );
    let report = rec.span("tco", |rec| {
        rec.work().tco_pricings += 1;
        let burdened = ev.burdened.with_cooling_scale(design.cooling.cooling_scale);
        TcoModel::new(ev.rack, burdened).server_tco(&platform)
    });
    let wl = &entry.workload;

    let (sample, family, demand) = match &entry.family {
        Family::Paper(id) => {
            let demand = demand_for(ev, design, &platform, wl, *id, rec);
            let mut cold = false;
            let s = ev.memo.perf(*id, &demand, &ev.measure, || {
                cold = true;
                measure(wl, &demand, &ev.measure, rec)
            });
            count_steady(rec, cold);
            let s = s?;
            (s, FamilyEval::Paper { workload: *id }, demand)
        }
        Family::Faas(params) => {
            let mut demand = demand_for(ev, design, &platform, wl, wl.id, rec);
            let pool_gib = params.keepalive_local_gib
                + design.memshare.as_ref().map_or(0.0, |ms| {
                    design.platform.memory.capacity_gib * ms.provisioning.remote_fraction
                });
            let (pool, inflation) = rec.span("workloads.faas", |_| {
                let pool = faas::warm_pool(params, pool_gib);
                let inflation =
                    faas::cold_inflation(params, wl.demand.cpu_ghz_s, pool.cold_fraction());
                (pool, inflation)
            });
            demand.inflate_cpu(inflation);
            let key = scenario_key(spec.workload, params, &demand, &ev.measure);
            let mut cold = false;
            let s = ev.memo.scenario_perf(key, || {
                cold = true;
                measure(wl, &demand, &ev.measure, rec)
            });
            count_steady(rec, cold);
            let s = s?;
            let family = FamilyEval::Faas {
                pool_gib,
                resident_functions: pool.resident_functions,
                warm_fraction: pool.warm_fraction,
                cold_fraction: pool.cold_fraction(),
                cpu_inflation: inflation,
            };
            (s, family, demand)
        }
        Family::Dag(params) => {
            let demand = demand_for(ev, design, &platform, wl, wl.id, rec);
            let mean_task = SimDuration::from_secs_f64(demand.single_client_latency_secs());
            let slots = params.slots_per_core * demand.server_spec().cores;
            let stats = rec.span("workloads.dag", |rec| {
                let stats = dag::execute(
                    &dag::generate(params, mean_task, ev.measure.seed ^ 0xDA6),
                    slots,
                );
                let w = rec.work();
                w.queue = w.queue.merged(&stats.queue);
                stats
            });
            let key = scenario_key(spec.workload, params, &demand, &ev.measure);
            let mut cold = false;
            let s = ev.memo.scenario_perf(key, || {
                cold = true;
                Ok(PerfSample {
                    value: stats.perf(),
                    queue: stats.queue,
                })
            });
            count_steady(rec, cold);
            let s = s?;
            let family = FamilyEval::Dag {
                tasks: stats.tasks,
                stragglers: stats.stragglers,
                critical_path_secs: stats.critical_path_secs,
                makespan_secs: stats.makespan_secs,
            };
            (s, family, demand)
        }
    };

    let unit = match wl.metric {
        Metric::ThroughputQos(_) => "RPS",
        Metric::Batch { .. } => "1/s",
    };
    let (capacity_rps, qos) = match wl.metric {
        Metric::ThroughputQos(q) => (sample.value, Some(q)),
        Metric::Batch { tasks, .. } => (sample.value * f64::from(tasks), None),
    };
    let total = ev.measure.warmup + ev.measure.measured;
    let profile = |rec: &mut Recorder, pack: TrafficPack| {
        rec.span("workloads.profile", |_| {
            pack.profile(capacity_rps, total)
                .expect("non-steady packs render a profile")
        })
    };
    // Traffic runs bypass the memo: every timed one is cold by
    // construction, and the untraced run's memo counters prove it.
    let (traffic, resilience) = if let Some(rspec) = &ev.resilience {
        let profile = match spec.traffic {
            TrafficPack::Steady => RateProfile::constant(),
            pack => profile(rec, pack),
        };
        let (traffic, resilience) = resilient_traffic(
            &demand,
            qos,
            capacity_rps,
            spec.traffic.label(),
            &profile,
            &ev.measure,
            rspec,
            rec,
        );
        (Some(traffic), Some(resilience))
    } else {
        let traffic = match spec.traffic {
            TrafficPack::Steady => None,
            pack => {
                let profile = profile(rec, pack);
                Some(plain_traffic(
                    &demand,
                    qos,
                    capacity_rps,
                    pack.label(),
                    &profile,
                    &ev.measure,
                    rec,
                ))
            }
        };
        (traffic, None)
    };

    Ok(ScenarioEval {
        design: design.name.clone(),
        scenario: spec.to_string(),
        value: sample.value,
        unit,
        family,
        traffic,
        resilience,
        report,
        availability: ev.availability,
    })
}

/// Counts one steady-lane memo lookup: a miss when it ran the
/// measurement, a hit otherwise.
fn count_steady(rec: &mut Recorder, cold: bool) {
    let w = rec.work();
    if cold {
        w.steady_misses += 1;
    } else {
        w.steady_hits += 1;
    }
}

fn scenario_key<P: wcs_simcore::memo::MemoHash>(
    workload: WorkloadKey,
    params: &P,
    demand: &PlatformDemand,
    measure: &MeasureConfig,
) -> u128 {
    MemoKey::new("scenario-perf")
        .push(&workload)
        .push(params)
        .push(demand)
        .push(measure)
        .finish()
}

/// The demand pipeline: stock demand, storage replay, memory-blade
/// slowdown folded through the shared link.
fn demand_for(
    ev: &Evaluator,
    design: &DesignPoint,
    platform: &Platform,
    wl: &Workload,
    trace_id: WorkloadId,
    rec: &mut Recorder,
) -> PlatformDemand {
    let disk = design
        .storage
        .as_ref()
        .map(|s| s.disk.clone())
        .unwrap_or_else(|| design.platform.disk.clone());
    let mut demand = rec.span("workloads.demand", |_| {
        PlatformDemand::with_overrides(wl, &design.platform, &disk, platform.memory.capacity_gib)
    });
    if let Some(scenario) = &design.storage {
        let storage = ev.memo.storage();
        let params = disktrace::params_for(trace_id);
        let seed = ev.measure.seed ^ 0xD15C;
        let n = ev.storage_replay;
        let trace = rec.span("workloads.disktrace", |rec| {
            let before = storage.stats();
            let trace = storage.trace(params, seed, n as usize);
            if missed(&before, &storage.stats()) > 0 {
                let w = rec.work();
                w.disktrace_builds += 1;
                w.disktrace_blocks += blocks(&trace);
            }
            trace
        });
        let stats = rec.span("flashcache.replay", |rec| {
            let before = storage.stats();
            let stats = storage.replay(&scenario.disk, scenario.flash.as_ref(), params, seed, n);
            let cold = missed(&before, &storage.stats());
            let w = rec.work();
            if cold > 0 {
                w.flash_replays += 1;
                w.flash_requests += stats.requests;
                w.flash_blocks += blocks(&trace);
                w.flash_hits += stats.flash_hits;
            }
            w.split_misses += cold.saturating_sub(1);
            stats
        });
        demand.set_disk_secs(wl.demand.io_per_req * stats.mean_service_secs());
    }
    if let Some(ms) = &design.memshare {
        let config = SlowdownConfig {
            local_fraction: ms.provisioning.local_fraction,
            link: ms.link,
            ..SlowdownConfig::paper_default()
        };
        let replay = ev.memo.replay();
        let total = config.fill + config.measured;
        rec.span("workloads.memtrace", |rec| {
            let before = replay.stats();
            let buf = replay.trace(
                memtrace::params_for(trace_id),
                config.seed ^ 0xD15C,
                total as usize,
            );
            if missed(&before, &replay.stats()) > 0 {
                let w = rec.work();
                w.memtrace_builds += 1;
                w.memtrace_accesses += buf.len() as u64;
                // Packed layout: a u32 page per access plus a write bit.
                w.memtrace_bytes += (buf.len() * 4 + buf.len().div_ceil(64) * 8) as u64;
            }
        });
        let base = rec.span("memshare.replay", |rec| {
            let before = replay.stats();
            let base = estimate_slowdown_pooled(trace_id, &config, replay, &ev.pool)
                .expect("memshare design has local_fraction in (0, 1]");
            let cold = missed(&before, &replay.stats());
            let w = rec.work();
            if cold > 0 {
                w.mem_replays += 1;
                w.mem_accesses += total;
                w.mem_measured += base.stats.accesses;
                w.mem_misses += base.stats.misses;
            }
            w.split_misses += cold.saturating_sub(1);
            base
        });
        let shared = SharedLink::new(ms.link, ms.servers_per_blade.max(1));
        let effective = rec.span("memshare.link", |_| {
            shared.effective_link(base.faults_per_cpu_sec)
        });
        let slowdown = 1.0 + base.faults_per_cpu_sec * effective.fault_latency_secs();
        demand.inflate_cpu(slowdown);
    }
    demand
}

fn missed(before: &MemoStats, after: &MemoStats) -> u64 {
    after.misses - before.misses
}

fn blocks(trace: &Arc<[disktrace::BlockAccess]>) -> u64 {
    trace.iter().map(|a| u64::from(a.blocks)).sum()
}

/// The steady measurement: the QoS throughput search, or one batch run.
fn measure(
    wl: &Workload,
    demand: &PlatformDemand,
    config: &MeasureConfig,
    rec: &mut Recorder,
) -> Result<PerfSample, MeasureError> {
    let spec = demand.server_spec();
    match wl.metric {
        Metric::ThroughputQos(qos) => rec.span("simserver.driver", |rec| {
            let sim = ServerSim::new(spec);
            let search = SearchConfig {
                warmup: config.warmup,
                measured: config.measured,
                max_clients: config.max_clients,
                seed: config.seed,
            };
            let mut stream = 0u64;
            let result = find_max_throughput(
                &sim,
                &mut || -> Box<dyn RequestSource> {
                    stream += 1;
                    Box::new(demand.source(stream))
                },
                qos,
                search,
            );
            let w = rec.work();
            w.driver_searches += 1;
            w.driver_probes += stream;
            let result = result.map_err(|e| MeasureError {
                workload: wl.id.label(),
                reason: e.to_string(),
            })?;
            w.driver_events += result.queue.scheduled;
            w.queue = w.queue.merged(&result.queue);
            Ok(PerfSample {
                value: result.rps,
                queue: result.queue,
            })
        }),
        Metric::Batch {
            tasks,
            slots_per_core,
        } => {
            let job = rec.span("workloads.tasks", |_| demand.tasks(tasks));
            let n = job.len() as u64;
            let result = rec.span("simserver.batch", |_| {
                run_batch(spec, job, slots_per_core * spec.cores)
            });
            let w = rec.work();
            w.batch_runs += 1;
            w.batch_tasks += n;
            w.batch_events += result.queue.scheduled;
            w.queue = w.queue.merged(&result.queue);
            Ok(PerfSample {
                value: result.perf(),
                queue: result.queue,
            })
        }
    }
}

fn traffic_eval(
    pack: &'static str,
    capacity_rps: f64,
    profile: &RateProfile,
    qos: Option<QosSpec>,
    stats: &wcs_simserver::RunStats,
) -> TrafficEval {
    let percentile = |p: f64| stats.latency.percentile(p).unwrap_or(0.0);
    TrafficEval {
        pack,
        offered_peak_rps: capacity_rps * profile.peak(),
        offered_mean_rps: capacity_rps * profile.mean(),
        completed: stats.completed,
        throughput_rps: stats.throughput_rps(),
        mean_latency_secs: stats.latency.mean(),
        p50_latency_secs: percentile(50.0),
        p95_latency_secs: percentile(95.0),
        p99_latency_secs: percentile(99.0),
        qos_attainment: qos.map(|q| stats.latency.fraction_at_or_below(q.bound.as_secs_f64())),
        peak_utilization: stats.utilization.iter().copied().fold(0.0, f64::max),
    }
}

fn plain_traffic(
    demand: &PlatformDemand,
    qos: Option<QosSpec>,
    capacity_rps: f64,
    pack: &'static str,
    profile: &RateProfile,
    cfg: &MeasureConfig,
    rec: &mut Recorder,
) -> TrafficEval {
    let mut source = demand.source(0x7AFF);
    let stats = rec.span("simserver.openloop", |_| {
        run_open_loop_profiled(
            demand.server_spec(),
            &mut source,
            capacity_rps,
            profile,
            cfg.warmup,
            cfg.measured,
            cfg.seed ^ 0x007A_FF1C,
        )
    });
    let w = rec.work();
    w.open_runs += 1;
    w.open_requests += cfg.warmup + stats.completed;
    w.open_events += stats.queue.scheduled;
    w.queue = w.queue.merged(&stats.queue);
    traffic_eval(pack, capacity_rps, profile, qos, &stats)
}

#[allow(clippy::too_many_arguments)]
fn resilient_traffic(
    demand: &PlatformDemand,
    qos: Option<QosSpec>,
    capacity_rps: f64,
    pack: &'static str,
    profile: &RateProfile,
    cfg: &MeasureConfig,
    rspec: &ResilienceSpec,
    rec: &mut Recorder,
) -> (TrafficEval, ResilienceEval) {
    let total = cfg.warmup + cfg.measured;
    let span_secs = total as f64 / (capacity_rps * profile.mean());
    let span = SimDuration::from_secs_f64(span_secs);
    let config = rec.span("core.scenario", |_| rspec.config_at(capacity_rps, span));
    let retry = RetryPolicy {
        timeout: None,
        max_retries: rspec.max_retries,
        backoff: SimDuration::from_secs_f64((span_secs * 0.002).max(1e-6)),
    };
    let mut outages = Vec::new();
    if let Some(chaos) = &rspec.chaos {
        outages = rec.span("simcore.faults", |_| {
            let process = FaultProcess::exponential(
                SimDuration::from_secs_f64(span_secs * chaos.mttf_span),
                SimDuration::from_secs_f64(span_secs * chaos.mttr_span),
            )
            .expect("chaos plan durations are positive");
            let horizon = SimDuration::from_secs_f64(span_secs * 2.0);
            let mut rng = SimRng::stream(cfg.seed ^ 0x000C_4A05, capacity_rps.to_bits());
            if chaos.co_vary && !profile.is_constant() {
                let (seg_dur, weights) = profile.segments();
                process.windows_weighted(horizon, seg_dur, weights, &mut rng)
            } else {
                process.windows(horizon, &mut rng)
            }
        });
        let w = rec.work();
        w.fault_plans += 1;
        w.fault_windows += outages.len() as u64;
    }

    let mut source = demand.source(0x7AFF);
    let (stats, res) = rec.span("simserver.resilience", |_| {
        run_open_loop_resilient(
            demand.server_spec(),
            &mut source,
            capacity_rps,
            profile,
            cfg.warmup,
            cfg.measured,
            cfg.seed ^ 0x007A_FF1C,
            &outages,
            &retry,
            &config,
        )
    });
    let w = rec.work();
    w.res_runs += 1;
    w.res_offered += res.offered;
    w.res_shed += res.shed();
    w.res_retries_spent += res.retries_spent;
    w.res_retries_denied += res.retries_denied;
    w.res_goodput_rps += stats.goodput_rps();
    w.res_offered_rps += capacity_rps * profile.mean();
    w.res_events += stats.queue.scheduled;
    w.queue = w.queue.merged(&stats.queue);

    let p99 = stats.latency.percentile(99.0).unwrap_or(0.0);
    let slo_secs = qos.map_or_else(
        || 10.0 * demand.single_client_latency_secs(),
        |q| q.bound.as_secs_f64(),
    );
    let eval = ResilienceEval {
        offered: res.offered,
        admitted: res.admitted,
        shed: res.shed(),
        shed_fraction: res.shed_fraction(),
        goodput_rps: stats.goodput_rps(),
        dropped: stats.faults.dropped,
        availability: stats.completed as f64 / stats.faults.offered.max(1) as f64,
        retries_spent: res.retries_spent,
        retries_denied: res.retries_denied,
        retry_amplification: res.retry_amplification(),
        breaker_trips: res.breaker_trips,
        breaker_fast_fails: res.breaker_fast_fails,
        breaker_open_fraction: (res.breaker_open_ns as f64 / span.as_nanos() as f64).min(1.0),
        slo_secs,
        p99_over_slo: if slo_secs > 0.0 { p99 / slo_secs } else { 0.0 },
        slo_attainment: stats.latency.fraction_at_or_below(slo_secs),
        chaos_outages: outages.len() as u32,
        chaos_down_fraction: 1.0 - faults::availability(&outages, span),
    };
    (traffic_eval(pack, capacity_rps, profile, qos, &stats), eval)
}
