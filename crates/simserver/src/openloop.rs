//! Open-loop (Poisson-arrival) simulation.
//!
//! The closed-loop driver models the paper's client harness; the open
//! loop models production traffic, where arrivals do not wait for
//! completions. Open-loop runs expose overload behaviour (queues grow
//! without bound past saturation) that closed loops hide, so the suite
//! provides both.

use wcs_simcore::faults::DownWindow;
use wcs_simcore::{SimDuration, SimRng, SimTime};

use crate::engine::{RunStats, ServerSpec};
use crate::failover::{FaultStats, RetryPolicy};
use crate::kernel::{Adapter, Ev, Kernel, Work};
use crate::request::RequestSource;
use crate::resilience::{
    priority_for, CircuitBreaker, Priority, ResilienceConfig, ResilienceStats, RetryBudget,
    TokenBucket,
};

/// A piecewise-constant arrival-rate modulation, cycled over simulated
/// time: the offered rate during segment `i` is the run's base rate
/// times `multipliers[i % len]`, each segment lasting `seg_dur`.
///
/// Traffic packs (diurnal curves, flash crowds, failover surges) render
/// to a `RateProfile` before reaching the simulator, so the open loop
/// itself stays a dumb, deterministic interpreter: the same profile and
/// seed always produce the same arrival stream.
#[derive(Clone, Debug, PartialEq)]
pub struct RateProfile {
    seg_dur: SimDuration,
    multipliers: Vec<f64>,
}

impl RateProfile {
    /// A constant profile: the base rate, unmodified. `run_open_loop`
    /// with this profile is bit-identical to the unprofiled entry point.
    pub fn constant() -> Self {
        RateProfile {
            seg_dur: SimDuration::from_secs(1),
            multipliers: vec![1.0],
        }
    }

    /// Builds a profile from explicit segments.
    ///
    /// # Panics
    /// Panics if `seg_dur` is zero, `multipliers` is empty, or any
    /// multiplier is not positive and finite (a zero rate would stall
    /// the arrival stream forever).
    pub fn new(seg_dur: SimDuration, multipliers: Vec<f64>) -> Self {
        assert!(!seg_dur.is_zero(), "segment duration must be positive");
        assert!(
            !multipliers.is_empty(),
            "profile needs at least one segment"
        );
        assert!(
            multipliers.iter().all(|m| m.is_finite() && *m > 0.0),
            "multipliers must be positive and finite"
        );
        RateProfile {
            seg_dur,
            multipliers,
        }
    }

    /// The rate multiplier in effect at simulated time `t` (cyclic).
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        let seg = (t.as_nanos() / self.seg_dur.as_nanos()) as usize;
        self.multipliers[seg % self.multipliers.len()]
    }

    /// Largest multiplier in the cycle (the peak offered load).
    pub fn peak(&self) -> f64 {
        self.multipliers.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Time-average multiplier over one cycle.
    pub fn mean(&self) -> f64 {
        self.multipliers.iter().sum::<f64>() / self.multipliers.len() as f64
    }

    /// Duration of one full cycle.
    pub fn cycle(&self) -> SimDuration {
        SimDuration::from_nanos(self.seg_dur.as_nanos() * self.multipliers.len() as u64)
    }

    /// True when the profile never modulates the base rate.
    pub fn is_constant(&self) -> bool {
        self.multipliers.iter().all(|m| *m == 1.0)
    }

    /// The raw piecewise shape: segment duration and per-segment
    /// multipliers. Chaos planning uses this to co-vary fault hazard
    /// with offered load
    /// ([`FaultProcess::windows_weighted`](wcs_simcore::faults::FaultProcess::windows_weighted)).
    pub fn segments(&self) -> (SimDuration, &[f64]) {
        (self.seg_dur, &self.multipliers)
    }
}

/// Runs an open-loop simulation: requests arrive as a Poisson process of
/// rate `lambda_rps` and queue at the stations regardless of how many
/// are already in flight.
///
/// Returns statistics over the requests completing after `warmup`
/// completions. If the offered load exceeds capacity, the run still
/// terminates (it measures the first `warmup + measured` completions)
/// but latencies will be enormous — which is the point.
///
/// # Panics
/// Panics if `lambda_rps` is not positive and finite, or `measured` is
/// zero.
pub fn run_open_loop(
    spec: ServerSpec,
    source: &mut dyn RequestSource,
    lambda_rps: f64,
    warmup: u64,
    measured: u64,
    seed: u64,
) -> RunStats {
    run_open_loop_profiled(
        spec,
        source,
        lambda_rps,
        &RateProfile::constant(),
        warmup,
        measured,
        seed,
    )
}

/// Runs an open-loop simulation whose Poisson arrival rate is modulated
/// by `profile`: at any instant the offered rate is `lambda_rps` times
/// the profile's multiplier at that simulated time.
///
/// Each arrival samples its inter-arrival gap from the rate in effect
/// when it is scheduled (a piecewise-stationary approximation of an
/// inhomogeneous Poisson process — exact within a segment, and fully
/// deterministic for a given seed). With `RateProfile::constant()` this
/// is bit-identical to [`run_open_loop`], which merely delegates here.
///
/// # Panics
/// Panics if `lambda_rps` is not positive and finite, or `measured` is
/// zero.
pub fn run_open_loop_profiled(
    spec: ServerSpec,
    source: &mut dyn RequestSource,
    lambda_rps: f64,
    profile: &RateProfile,
    warmup: u64,
    measured: u64,
    seed: u64,
) -> RunStats {
    let (mut stats, _) = run_open_loop_resilient(
        spec,
        source,
        lambda_rps,
        profile,
        warmup,
        measured,
        seed,
        &[],
        &RetryPolicy::none(),
        &ResilienceConfig::disabled(),
    );
    stats.faults = FaultStats::default();
    stats
}

/// Open-loop adapter events.
enum OpenEvent {
    /// The next Poisson arrival.
    Arrival,
    /// The blade fails (everything on it dies) or is repaired.
    Blade { up: bool },
}

/// A profiled Poisson arrival process against one blade, through the
/// overload-resilience layer.
struct OpenLoop<'a> {
    source: &'a mut dyn RequestSource,
    rng: SimRng,
    arrival_rng: SimRng,
    lambda_rps: f64,
    profile: &'a RateProfile,
    seed: u64,
    retry: &'a RetryPolicy,
    admission: Option<TokenBucket>,
    low_fraction: f64,
    budget: Option<RetryBudget>,
    breaker: Option<CircuitBreaker>,
    stats: ResilienceStats,
    up: bool,
    arrivals: u64,
    resolved: u64,
    target: u64,
}

impl OpenLoop<'_> {
    /// Schedules the next arrival, its gap drawn from the rate in effect
    /// at `now`.
    fn schedule_arrival(&mut self, k: &mut Kernel<Self>, now: SimTime) {
        let rate = self.lambda_rps * self.profile.multiplier_at(now);
        let gap = self
            .arrival_rng
            .exp_duration(SimDuration::from_secs_f64(1.0 / rate));
        k.events.schedule(now + gap, Ev::Hook(OpenEvent::Arrival));
    }

    /// An arrival: admission, then dispatch.
    fn arrive(&mut self, k: &mut Kernel<Self>, now: SimTime) {
        // Next arrival first: the stream is independent of completions,
        // shedding, and faults.
        self.schedule_arrival(k, now);
        let idx = self.arrivals;
        self.arrivals += 1;
        let mut stages = k.stage_list();
        self.source.next_request(&mut self.rng, &mut stages);
        self.stats.offered += 1;
        if let Some(b) = &mut self.budget {
            b.on_request();
        }
        if let Some(bucket) = &mut self.admission {
            let prio = priority_for(self.seed, idx, self.low_fraction);
            if !bucket.try_admit(now, prio) {
                match prio {
                    Priority::Low => self.stats.shed_low += 1,
                    Priority::High => self.stats.shed_high += 1,
                }
                self.resolved += 1;
                return;
            }
        }
        self.stats.admitted += 1;
        if stages.is_empty() {
            k.complete(now, now);
            self.resolved += 1;
        } else {
            let work = Work {
                stages,
                started: now,
                attempt: 0,
            };
            self.dispatch(k, work, now);
        }
    }

    /// Routes admitted work to the blade, or through the failure path
    /// when the blade is down or the breaker refuses.
    fn dispatch(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        let refuses = self.up && self.breaker.as_mut().is_some_and(|b| !b.admits(now));
        if !self.up {
            // An attempt against a down blade is a failure the breaker
            // must hear about, so the outage trips it even when little
            // was in flight at the down instant.
            if let Some(b) = &mut self.breaker {
                b.record_failure(now);
            }
            self.fail(k, work, now);
        } else if refuses {
            self.stats.breaker_fast_fails += 1;
            self.fail(k, work, now);
        } else {
            if let Some(b) = &mut self.breaker {
                b.note_dispatch();
            }
            let slot = k.alloc(0, work, ());
            k.enqueue(slot, now);
        }
    }

    /// Failed work (outage kill or breaker fast-fail) retries while the
    /// policy and the budget allow, else drops; it resolves either way.
    fn fail(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        if !k.retry(self.retry, self.budget.as_mut(), work, now) {
            self.resolved += 1;
        }
    }
}

impl Adapter for OpenLoop<'_> {
    type Event = OpenEvent;
    type Slot = ();

    fn on_event(&mut self, k: &mut Kernel<Self>, ev: OpenEvent, now: SimTime) {
        match ev {
            OpenEvent::Arrival => self.arrive(k, now),
            OpenEvent::Blade { up } => {
                self.up = up;
                // Fail-fast: everything queued or in service dies; the
                // breaker hears about every victim.
                let victims = if up {
                    Vec::new()
                } else {
                    k.kill_server(0, now)
                };
                for slot in victims {
                    let work = std::mem::take(&mut k.slots[slot].work);
                    k.release(slot);
                    if let Some(b) = &mut self.breaker {
                        b.record_failure(now);
                    }
                    self.fail(k, work, now);
                }
            }
        }
    }

    fn on_retry(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        self.dispatch(k, work, now);
    }

    fn on_complete(&mut self, k: &mut Kernel<Self>, slot: usize, now: SimTime) {
        k.release(slot);
        k.complete(k.slots[slot].work.started, now);
        self.resolved += 1;
        if let Some(b) = &mut self.breaker {
            b.record_success(now);
        }
    }

    fn done(&self, _: &Kernel<Self>) -> bool {
        self.resolved >= self.target
    }
}

/// Runs a profiled open loop through the overload-resilience layer
/// against a single blade that goes down and comes back per `outages`.
///
/// This is the serving entry the tentpole wires into scenarios: open
/// (production) traffic, so overload is visible, plus a fault plan, so
/// flash crowds and blade faults finally meet. The layer applies, in
/// order per arrival:
///
/// 1. **Admission** — each arrival is classed [`Priority::High`] or
///    [`Priority::Low`] from the pure per-index stream
///    ([`priority_for`]) and offered to the token bucket; shed requests
///    resolve immediately and never queue.
/// 2. **Breaker** — an open breaker fails arrivals fast (no queueing,
///    no service); a blade outage's killed work trips it, so the
///    breaker absorbs the arrival flood while the blade is down.
/// 3. **Retry budget** — failed work (outage kills, fast-fails) retries
///    after `retry.backoff_for` only while `retry.max_retries` and the
///    global budget both allow; otherwise it is dropped.
///    `retry.timeout` is ignored here: an open loop has no client to
///    abandon work, and outages already fail in-flight work fast.
///
/// The arrival and request streams are drawn exactly as in
/// [`run_open_loop_profiled`] (shed decisions discard the drawn
/// request rather than skipping the draw), so the offered workload is
/// identical across resilience configurations — only its fate differs.
/// With no outages and [`ResilienceConfig::disabled`] the run
/// reproduces [`run_open_loop_profiled`]'s completions, window,
/// latency, and utilization exactly.
///
/// If faults or shedding keep the run from ever completing
/// `warmup + measured` requests, it still terminates once that many
/// arrivals have *resolved* (completed, shed, or dropped) — degraded,
/// not hanging. [`ResilienceStats`] counters cover the whole run;
/// [`FaultStats`] covers the measurement window.
///
/// # Panics
/// Panics if `lambda_rps` is not positive and finite, `measured` is
/// zero, or `resilience` is misconfigured.
#[allow(clippy::too_many_arguments)]
pub fn run_open_loop_resilient(
    spec: ServerSpec,
    source: &mut dyn RequestSource,
    lambda_rps: f64,
    profile: &RateProfile,
    warmup: u64,
    measured: u64,
    seed: u64,
    outages: &[DownWindow],
    retry: &RetryPolicy,
    resilience: &ResilienceConfig,
) -> (RunStats, ResilienceStats) {
    assert!(
        lambda_rps.is_finite() && lambda_rps > 0.0,
        "arrival rate must be positive"
    );
    assert!(measured > 0, "need a measurement window");
    resilience.validate();
    let mut rng = SimRng::seed_from(seed);
    let arrival_rng = rng.fork(1);
    let mut open = OpenLoop {
        source,
        rng,
        arrival_rng,
        lambda_rps,
        profile,
        seed,
        retry,
        admission: resilience.admission.map(TokenBucket::new),
        low_fraction: resilience.admission.map_or(0.0, |a| a.low_fraction),
        budget: resilience.retry_budget.map(RetryBudget::new),
        breaker: resilience
            .breaker
            .map(|cfg| CircuitBreaker::new(cfg, seed ^ 0xB4EA_0002, 0)),
        stats: ResilienceStats::default(),
        up: true,
        arrivals: 0,
        resolved: 0,
        target: warmup + measured,
    };
    let mut k = Kernel::new(spec, 1, warmup, 0);
    // The whole outage plan up front; generated windows are in-horizon
    // and sorted, so plain `schedule` is safe at time zero.
    for w in outages {
        k.events
            .schedule(w.down_at, Ev::Hook(OpenEvent::Blade { up: false }));
        k.events
            .schedule(w.up_at, Ev::Hook(OpenEvent::Blade { up: true }));
    }
    open.schedule_arrival(&mut k, SimTime::ZERO);
    k.run(&mut open);

    let end = k.events.now();
    let mut stats = k.into_stats();
    stats.faults.offered = stats.completed + stats.faults.dropped;
    let mut res = open.stats;
    if let Some(b) = &open.budget {
        res.retries_spent = b.spent();
        res.retries_denied = b.denied();
    }
    if let Some(b) = &open.breaker {
        res.breaker_trips = b.trips();
        res.breaker_open_ns = b.open_ns(end);
    }
    (stats, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Resource, Stage};

    fn cpu_source(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(us)),
            )]
        }
    }

    #[test]
    fn throughput_matches_offered_load_below_saturation() {
        // M/M/2 with 1 ms service, offered 1000 RPS on 2000 RPS capacity.
        let stats = run_open_loop(
            ServerSpec::new(2),
            &mut cpu_source(1000),
            1000.0,
            500,
            5000,
            3,
        );
        let rps = stats.throughput_rps();
        assert!((rps - 1000.0).abs() < 60.0, "rps {rps}");
        let u = stats.utilization[Resource::Cpu.index()];
        assert!((u - 0.5).abs() < 0.05, "util {u}");
    }

    #[test]
    fn mm1_latency_matches_theory() {
        // M/M/1 at rho = 0.5: mean sojourn = s / (1 - rho) = 2 ms.
        let stats = run_open_loop(
            ServerSpec::new(1),
            &mut cpu_source(1000),
            500.0,
            2000,
            20000,
            7,
        );
        let mean = stats.latency.mean();
        assert!((mean - 2e-3).abs() < 4e-4, "mean sojourn {mean}");
    }

    #[test]
    fn overload_shows_unbounded_latency() {
        let ok = run_open_loop(
            ServerSpec::new(1),
            &mut cpu_source(1000),
            800.0,
            200,
            3000,
            9,
        );
        let over = run_open_loop(
            ServerSpec::new(1),
            &mut cpu_source(1000),
            1500.0,
            200,
            3000,
            9,
        );
        let p95_ok = ok.latency.percentile(95.0).unwrap();
        let p95_over = over.latency.percentile(95.0).unwrap();
        assert!(p95_over > 10.0 * p95_ok, "{p95_ok} vs {p95_over}");
        // Throughput saturates at capacity.
        assert!(over.throughput_rps() < 1050.0);
    }

    #[test]
    fn deterministic() {
        let a = run_open_loop(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            100,
            1000,
            5,
        );
        let b = run_open_loop(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            100,
            1000,
            5,
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.window, b.window);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn rejects_zero_rate() {
        run_open_loop(ServerSpec::new(1), &mut cpu_source(1), 0.0, 1, 1, 1);
    }

    #[test]
    fn constant_profile_is_bit_identical_to_unprofiled() {
        let plain = run_open_loop(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            100,
            1000,
            5,
        );
        let profiled = run_open_loop_profiled(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            &RateProfile::constant(),
            100,
            1000,
            5,
        );
        assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
    }

    #[test]
    fn spike_segment_raises_tail_latency() {
        // Same mean offered load, but one profile crams half the work
        // into a 4x spike: its p99 must be visibly worse.
        let steady = run_open_loop_profiled(
            ServerSpec::new(1),
            &mut cpu_source(1000),
            700.0,
            &RateProfile::constant(),
            200,
            4000,
            11,
        );
        let spiky = run_open_loop_profiled(
            ServerSpec::new(1),
            &mut cpu_source(1000),
            700.0,
            &RateProfile::new(
                SimDuration::from_millis(500),
                vec![0.4, 0.4, 0.4, 2.8, 0.4, 0.4, 0.4, 0.4],
            ),
            200,
            4000,
            11,
        );
        let p99_steady = steady.latency.percentile(99.0).unwrap();
        let p99_spiky = spiky.latency.percentile(99.0).unwrap();
        assert!(p99_spiky > 2.0 * p99_steady, "{p99_steady} vs {p99_spiky}");
    }

    #[test]
    fn profile_cycles_and_reports_shape() {
        let p = RateProfile::new(SimDuration::from_secs(2), vec![0.5, 2.0, 1.0]);
        assert_eq!(p.multiplier_at(SimTime::from_nanos(0)), 0.5);
        assert_eq!(p.multiplier_at(SimTime::from_nanos(2_500_000_000)), 2.0);
        // Wraps around after one 6 s cycle.
        assert_eq!(p.multiplier_at(SimTime::from_nanos(6_100_000_000)), 0.5);
        assert_eq!(p.peak(), 2.0);
        assert!((p.mean() - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(p.cycle(), SimDuration::from_secs(6));
        assert!(!p.is_constant());
        assert!(RateProfile::constant().is_constant());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_multiplier() {
        RateProfile::new(SimDuration::from_secs(1), vec![1.0, 0.0]);
    }

    fn fingerprint(stats: &RunStats) -> (u64, u64, String, String) {
        (
            stats.completed,
            stats.window.as_nanos(),
            format!("{:?}", stats.latency),
            format!("{:?}", stats.utilization),
        )
    }

    #[test]
    fn resilient_disabled_no_outages_matches_profiled() {
        let profile = RateProfile::new(SimDuration::from_millis(500), vec![0.5, 1.0, 2.0, 1.0]);
        let plain = run_open_loop_profiled(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            &profile,
            100,
            2000,
            5,
        );
        let (res, stats) = run_open_loop_resilient(
            ServerSpec::new(2),
            &mut cpu_source(500),
            900.0,
            &profile,
            100,
            2000,
            5,
            &[],
            &RetryPolicy::none(),
            &ResilienceConfig::disabled(),
        );
        assert_eq!(fingerprint(&plain), fingerprint(&res));
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.retries_spent, 0);
        assert_eq!(stats.breaker_trips, 0);
        assert_eq!(stats.offered, stats.admitted);
    }

    #[test]
    fn admission_sheds_overload_and_protects_tail() {
        use crate::resilience::AdmissionConfig;
        // 1500 RPS offered on a 1000 RPS blade: unprotected latency
        // diverges; admission at ~capacity sheds the excess and keeps
        // the served tail bounded.
        let overload = || cpu_source(1000);
        let unprotected = run_open_loop_profiled(
            ServerSpec::new(1),
            &mut overload(),
            1500.0,
            &RateProfile::constant(),
            200,
            4000,
            9,
        );
        let cfg = ResilienceConfig {
            admission: Some(AdmissionConfig {
                rate_rps: 950.0,
                burst: 64.0,
                low_reserve: 8.0,
                low_fraction: 0.3,
            }),
            ..ResilienceConfig::disabled()
        };
        let (protected, stats) = run_open_loop_resilient(
            ServerSpec::new(1),
            &mut overload(),
            1500.0,
            &RateProfile::constant(),
            200,
            4000,
            9,
            &[],
            &RetryPolicy::none(),
            &cfg,
        );
        assert!(stats.shed() > 0, "overload must shed");
        assert!(
            stats.shed_low > stats.shed_high,
            "low priority sheds first: {stats:?}"
        );
        assert!(stats.shed_fraction() > 0.2 && stats.shed_fraction() < 0.6);
        let p99_un = unprotected.latency.percentile(99.0).unwrap();
        let p99_pro = protected.latency.percentile(99.0).unwrap();
        assert!(
            p99_pro < p99_un / 5.0,
            "admission bounds the tail: {p99_pro} vs {p99_un}"
        );
    }

    #[test]
    fn blade_outage_with_budget_is_bounded_and_deterministic() {
        use crate::resilience::{BreakerConfig, RetryBudgetConfig};
        let outage = [DownWindow {
            down_at: SimTime::ZERO + SimDuration::from_millis(800),
            up_at: SimTime::ZERO + SimDuration::from_millis(1600),
        }];
        let retry =
            RetryPolicy::new(SimDuration::from_millis(50), 4, SimDuration::from_millis(2)).unwrap();
        let budget = RetryBudgetConfig {
            ratio: 0.1,
            initial: 4.0,
            cap: 64.0,
        };
        let cfg = ResilienceConfig {
            retry_budget: Some(budget),
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                open_for: SimDuration::from_millis(40),
                jitter: 0.25,
                half_open_probes: 2,
            }),
            ..ResilienceConfig::disabled()
        };
        let run = || {
            run_open_loop_resilient(
                ServerSpec::new(2),
                &mut cpu_source(800),
                1200.0,
                &RateProfile::constant(),
                200,
                4000,
                13,
                &outage,
                &retry,
                &cfg,
            )
        };
        let (stats, res) = run();
        assert!(res.retries_spent > 0, "outage work retries: {res:?}");
        let ceiling = budget.initial + budget.ratio * res.offered as f64;
        assert!(
            (res.retries_spent as f64) <= ceiling + 1e-9,
            "spent {} > ceiling {ceiling}",
            res.retries_spent
        );
        assert!(res.breaker_trips > 0, "kills trip the breaker: {res:?}");
        assert!(res.breaker_open_ns > 0);
        assert!(stats.faults.dropped > 0 || res.retries_denied > 0);
        let (stats2, res2) = run();
        assert_eq!(stats.completed, stats2.completed);
        assert_eq!(stats.window, stats2.window);
        assert_eq!(res, res2);
    }
}
