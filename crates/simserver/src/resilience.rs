//! Overload-resilience primitives: admission control, a retry budget,
//! and a circuit breaker.
//!
//! The paper's Perf/TCO-$ argument assumes ensembles keep serving
//! through component failure; Hamilton's modular-datacenter argument
//! (PAPERS.md) makes service-level resilience the whole point of
//! commodity warehouse hardware. This module supplies the serving-side
//! half of that story, as three independent, seeded state machines that
//! the open loop ([`run_open_loop_resilient`](crate::run_open_loop_resilient))
//! arms in front of its blade:
//!
//! * A **token-bucket admission controller** ([`TokenBucket`]) sheds
//!   load at the open-loop entry before it queues, dropping
//!   low-priority work first (a reserve floor keeps high-priority
//!   requests admitted while low-priority ones shed).
//! * A **global retry budget** ([`RetryBudget`]) caps retry
//!   amplification: tokens accrue as a fixed ratio of offered requests
//!   and every retry spends one, so a fault burst cannot multiply
//!   offered load without bound — the classic retry-storm defence.
//! * A **circuit breaker** ([`CircuitBreaker`]) trips open after
//!   consecutive failures, fails fast while open, and probes with a
//!   bounded number of half-open requests before closing again. Trip
//!   and probe schedules are deterministic: open-window jitter draws
//!   from the pure [`SimRng::stream`] keyed on (seed, trip count),
//!   never from call order.
//!
//! Everything here follows the workspace's pay-for-what-you-use
//! invariant: a [`ResilienceConfig::disabled`] layer performs no RNG
//! draws and no event-schedule changes, so a disabled run is
//! bit-identical to one that never heard of resilience.

use wcs_simcore::{SimDuration, SimRng, SimTime};

/// Scheduling class of a request at the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive interactive work; shed last.
    High,
    /// Best-effort work (batch, background refresh); shed first.
    Low,
}

/// Token-bucket admission control with a low-priority reserve floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Token refill rate, tokens per simulated second. Sized relative to
    /// the backend's capacity: admission begins shedding once offered
    /// load sustains above this rate.
    pub rate_rps: f64,
    /// Bucket capacity (burst tolerance), in tokens.
    pub burst: f64,
    /// Low-priority requests are admitted only while at least this many
    /// tokens remain after the spend — the reserve kept for
    /// high-priority work.
    pub low_reserve: f64,
    /// Fraction of arrivals classed [`Priority::Low`], assigned per
    /// request from a pure seeded stream.
    pub low_fraction: f64,
}

impl AdmissionConfig {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on non-finite or negative parameters, a zero rate, or a
    /// `low_fraction` outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.rate_rps.is_finite() && self.rate_rps > 0.0,
            "admission rate must be positive"
        );
        assert!(
            self.burst.is_finite() && self.burst >= 1.0,
            "admission burst must hold at least one token"
        );
        assert!(
            self.low_reserve.is_finite() && self.low_reserve >= 0.0,
            "low-priority reserve must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.low_fraction),
            "low fraction must be in [0, 1]"
        );
    }
}

/// The admission controller's live state: a lazily refilled token
/// bucket over simulated time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    cfg: AdmissionConfig,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket at simulated time zero.
    pub fn new(cfg: AdmissionConfig) -> Self {
        cfg.validate();
        TokenBucket {
            cfg,
            tokens: cfg.burst,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.cfg.rate_rps).min(self.cfg.burst);
        self.last = now;
    }

    /// Admits or sheds one request of the given priority at `now`.
    /// High-priority work needs one token; low-priority work is
    /// admitted only while the spend leaves the configured reserve.
    pub fn try_admit(&mut self, now: SimTime, priority: Priority) -> bool {
        self.refill(now);
        let floor = match priority {
            Priority::High => 0.0,
            Priority::Low => self.cfg.low_reserve,
        };
        if self.tokens - 1.0 >= floor {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refill to `now`).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// Global retry-budget parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudgetConfig {
    /// Tokens accrued per offered logical request. A ratio of 0.1 means
    /// steady-state retry amplification is capped at 10% of offered
    /// load no matter how many faults land at once.
    pub ratio: f64,
    /// Tokens available before any request is offered (the cold-start
    /// allowance).
    pub initial: f64,
    /// Accrual ceiling, in tokens.
    pub cap: f64,
}

impl RetryBudgetConfig {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on non-finite or negative fields, or a cap below the
    /// initial allowance.
    pub fn validate(&self) {
        assert!(
            self.ratio.is_finite() && self.ratio >= 0.0,
            "retry-budget ratio must be non-negative"
        );
        assert!(
            self.initial.is_finite() && self.initial >= 0.0,
            "retry-budget initial allowance must be non-negative"
        );
        assert!(
            self.cap.is_finite() && self.cap >= self.initial,
            "retry-budget cap must cover the initial allowance"
        );
    }
}

/// The live retry budget: spends are bounded by
/// `initial + ratio * offered` by construction.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
    offered: u64,
    accrued_through: u64,
    spent: u64,
    denied: u64,
}

impl RetryBudget {
    /// A budget holding its initial allowance.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        cfg.validate();
        RetryBudget {
            cfg,
            tokens: cfg.initial,
            offered: 0,
            accrued_through: 0,
            spent: 0,
            denied: 0,
        }
    }

    /// Accrues budget for one offered logical request. The accrual
    /// itself is lazy — a bare counter increment here, with the token
    /// arithmetic batched into [`try_spend`](Self::try_spend) — so a
    /// run that never retries pays one integer add per request.
    /// Batching preserves the semantics: tokens are only observed at
    /// spend points, and positive accruals under a ceiling satisfy
    /// `min(cap, min(cap, t + r) + r) = min(cap, t + 2r)`, so the
    /// deferred sum lands where per-request accrual would (up to
    /// floating-point rounding, which the ceiling bounds either way).
    pub fn on_request(&mut self) {
        self.offered += 1;
    }

    fn accrue(&mut self) {
        let fresh = self.offered - self.accrued_through;
        if fresh > 0 {
            self.tokens = (self.tokens + self.cfg.ratio * fresh as f64).min(self.cfg.cap);
            self.accrued_through = self.offered;
        }
    }

    /// Spends one token for a retry, or denies it when the budget is
    /// exhausted.
    pub fn try_spend(&mut self) -> bool {
        self.accrue();
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Retries granted so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// The hard ceiling on spends given the requests offered so far.
    /// `spent() <= ceiling()` is an invariant of the state machine.
    pub fn ceiling(&self) -> f64 {
        self.cfg.initial + self.cfg.ratio * self.offered as f64
    }
}

/// Circuit-breaker parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Base open window before the first half-open probe.
    pub open_for: SimDuration,
    /// Maximum jitter added to each open window, as a fraction of
    /// `open_for` (0 disables jitter). Drawn from the pure
    /// [`SimRng::stream`] keyed on (seed, trip count), so the schedule
    /// is independent of event order and thread count.
    pub jitter: f64,
    /// Requests allowed through while half-open; one success closes the
    /// breaker, one failure re-opens it.
    pub half_open_probes: u32,
}

impl BreakerConfig {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on a zero threshold, zero open window, zero probe count,
    /// or a jitter outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.failure_threshold > 0, "breaker needs a threshold");
        assert!(!self.open_for.is_zero(), "open window must be positive");
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be in [0, 1]"
        );
        assert!(self.half_open_probes > 0, "need at least one probe");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until: SimTime },
    HalfOpen { probes_issued: u32 },
}

/// A circuit breaker: closed → open → half-open, with deterministic
/// trip and probe schedules.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    seed: u64,
    state: BreakerState,
    trips: u64,
    opened_at: Option<SimTime>,
    open_ns: u64,
}

impl CircuitBreaker {
    /// A closed breaker. `seed` anchors the jitter stream.
    pub fn new(cfg: BreakerConfig, seed: u64) -> Self {
        cfg.validate();
        CircuitBreaker {
            cfg,
            seed,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            trips: 0,
            opened_at: None,
            open_ns: 0,
        }
    }

    fn open_window(&self) -> SimDuration {
        if self.cfg.jitter == 0.0 {
            return self.cfg.open_for;
        }
        // Pure stream keyed on (seed, trip count): the jitter of trip k
        // is a constant of the configuration, not of when or in what
        // order record_failure was called.
        let mut rng = SimRng::stream(self.seed ^ 0xB4EA_4E0F, self.trips);
        let scale = 1.0 + self.cfg.jitter * rng.uniform();
        SimDuration::from_secs_f64(self.cfg.open_for.as_secs_f64() * scale)
    }

    fn leave_open(&mut self, now: SimTime) {
        if let Some(at) = self.opened_at.take() {
            self.open_ns += now.saturating_sub(at).as_nanos();
        }
    }

    /// Whether a request may be routed to this backend at `now`. An
    /// expired open window transitions to half-open here. Does not
    /// consume a probe — pair with [`note_dispatch`](Self::note_dispatch)
    /// once the request is actually routed.
    pub fn admits(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if now >= until {
                    self.leave_open(now);
                    self.state = BreakerState::HalfOpen { probes_issued: 0 };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen { probes_issued } => probes_issued < self.cfg.half_open_probes,
        }
    }

    /// Consumes a half-open probe slot for a routed request (no-op when
    /// closed).
    pub fn note_dispatch(&mut self) {
        if let BreakerState::HalfOpen { probes_issued } = &mut self.state {
            *probes_issued += 1;
        }
    }

    /// Records a successful outcome: closes a half-open breaker, resets
    /// the closed failure streak.
    pub fn record_success(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen { .. } => {
                self.leave_open(now);
                self.state = BreakerState::Closed {
                    consecutive_failures: 0,
                };
            }
            BreakerState::Closed { .. } => {
                self.state = BreakerState::Closed {
                    consecutive_failures: 0,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Records a failed outcome: advances the closed failure streak
    /// (tripping at the threshold) or re-opens a half-open breaker.
    pub fn record_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let streak = consecutive_failures + 1;
                if streak >= self.cfg.failure_threshold {
                    self.trip(now);
                } else {
                    self.state = BreakerState::Closed {
                        consecutive_failures: streak,
                    };
                }
            }
            BreakerState::HalfOpen { .. } => {
                self.leave_open(now);
                self.trip(now);
            }
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.trips += 1;
        let window = self.open_window();
        self.opened_at = Some(now);
        self.state = BreakerState::Open {
            until: now + window,
        };
    }

    /// True while the breaker is open (fast-failing) at `now`, without
    /// transitioning state.
    pub fn is_open(&self, now: SimTime) -> bool {
        matches!(self.state, BreakerState::Open { until } if now < until)
    }

    /// Times the breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Total nanoseconds spent open, finalized through `now` (a breaker
    /// still open at the end of a run counts its tail).
    pub fn open_ns(&self, now: SimTime) -> u64 {
        match self.opened_at {
            Some(at) => self.open_ns + now.saturating_sub(at).as_nanos(),
            None => self.open_ns,
        }
    }
}

/// The resilience layer's configuration: each mechanism is independent
/// and optional, and an all-`None` layer is exactly absent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Token-bucket admission control at the open-loop entry.
    pub admission: Option<AdmissionConfig>,
    /// Global retry budget replacing unconditional retries.
    pub retry_budget: Option<RetryBudgetConfig>,
    /// A circuit breaker in front of the blade.
    pub breaker: Option<BreakerConfig>,
}

impl ResilienceConfig {
    /// The disabled layer: no admission, no budget, no breaker. Runs
    /// configured with this are bit-identical to runs that never
    /// constructed a resilience layer at all.
    pub fn disabled() -> Self {
        ResilienceConfig::default()
    }

    /// The standard serving profile: admission at 1.2x the backend's
    /// capacity with a 25% low-priority reserve, a 10% retry budget,
    /// and a 3-strike breaker probing after a jittered open window.
    /// `capacity_rps` sizes the admission bucket; pass the measured
    /// steady-state capacity of the backend being protected.
    pub fn standard(capacity_rps: f64) -> Self {
        ResilienceConfig {
            admission: Some(AdmissionConfig {
                rate_rps: capacity_rps * 1.2,
                burst: (capacity_rps * 0.25).max(8.0),
                low_reserve: (capacity_rps * 0.05).max(2.0),
                low_fraction: 0.2,
            }),
            retry_budget: Some(RetryBudgetConfig {
                ratio: 0.1,
                initial: 8.0,
                cap: 64.0,
            }),
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                open_for: SimDuration::from_millis(25),
                jitter: 0.2,
                half_open_probes: 2,
            }),
        }
    }

    /// Validates every configured mechanism.
    ///
    /// # Panics
    /// Panics when any configured mechanism has invalid parameters.
    pub fn validate(&self) {
        if let Some(a) = &self.admission {
            a.validate();
        }
        if let Some(b) = &self.retry_budget {
            b.validate();
        }
        if let Some(b) = &self.breaker {
            b.validate();
        }
    }
}

/// Per-run resilience accounting, reported alongside
/// [`RunStats`](crate::RunStats) by
/// [`run_open_loop_resilient`](crate::run_open_loop_resilient). Covers
/// the whole run (warmup included) — shed decisions before the
/// measurement window still shape the window, so the full-run view is
/// the meaningful one. With the layer disabled every arrival counts as
/// offered and admitted, and every other counter is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Logical requests that reached the admission point.
    pub offered: u64,
    /// Requests admitted past the token bucket.
    pub admitted: u64,
    /// Low-priority requests shed by admission control.
    pub shed_low: u64,
    /// High-priority requests shed by admission control.
    pub shed_high: u64,
    /// Requests failed fast by an open breaker (no backend attempt).
    pub breaker_fast_fails: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Nanoseconds the breaker spent open.
    pub breaker_open_ns: u64,
    /// Retries granted by the budget.
    pub retries_spent: u64,
    /// Retries denied by an exhausted budget (the request dropped).
    pub retries_denied: u64,
}

impl ResilienceStats {
    /// Requests shed by admission control, both classes.
    pub fn shed(&self) -> u64 {
        self.shed_low + self.shed_high
    }

    /// Fraction of offered requests shed at admission.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Retry amplification: total attempts per admitted request
    /// (1.0 = no retries).
    pub fn retry_amplification(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            1.0 + self.retries_spent as f64 / self.admitted as f64
        }
    }
}

/// Assigns the priority of arrival number `index` from a pure stream:
/// independent of event order, thread count, and every other RNG draw
/// in the run.
pub fn priority_for(seed: u64, index: u64, low_fraction: f64) -> Priority {
    if low_fraction <= 0.0 {
        return Priority::High;
    }
    if SimRng::stream(seed ^ 0x4D41_7001, index).chance(low_fraction) {
        Priority::Low
    } else {
        Priority::High
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(ms_v: u64) -> SimTime {
        SimTime::ZERO + ms(ms_v)
    }

    #[test]
    fn bucket_sheds_low_priority_first() {
        let mut b = TokenBucket::new(AdmissionConfig {
            rate_rps: 100.0,
            burst: 4.0,
            low_reserve: 2.0,
            low_fraction: 0.5,
        });
        // Burst of 4 tokens: low admits while > reserve stays intact.
        assert!(b.try_admit(SimTime::ZERO, Priority::Low)); // 4 -> 3
        assert!(b.try_admit(SimTime::ZERO, Priority::Low)); // 3 -> 2
        assert!(!b.try_admit(SimTime::ZERO, Priority::Low), "reserve floor");
        assert!(b.try_admit(SimTime::ZERO, Priority::High)); // 2 -> 1
        assert!(b.try_admit(SimTime::ZERO, Priority::High)); // 1 -> 0
        assert!(!b.try_admit(SimTime::ZERO, Priority::High), "bucket empty");
        // 20 ms at 100/s refills 2 tokens: high admits again, low not.
        assert!(!b.try_admit(at(20), Priority::Low));
        assert!(b.try_admit(at(20), Priority::High));
    }

    #[test]
    fn bucket_refill_caps_at_burst() {
        let mut b = TokenBucket::new(AdmissionConfig {
            rate_rps: 1000.0,
            burst: 5.0,
            low_reserve: 0.0,
            low_fraction: 0.0,
        });
        for _ in 0..5 {
            assert!(b.try_admit(SimTime::ZERO, Priority::High));
        }
        assert!(!b.try_admit(SimTime::ZERO, Priority::High));
        let avail = b.available(at(1000));
        assert!((avail - 5.0).abs() < 1e-9, "capped at burst: {avail}");
    }

    #[test]
    fn retry_budget_never_exceeds_ceiling() {
        let cfg = RetryBudgetConfig {
            ratio: 0.1,
            initial: 2.0,
            cap: 50.0,
        };
        let mut b = RetryBudget::new(cfg);
        let mut rng = SimRng::seed_from(99);
        for _ in 0..10_000 {
            if rng.chance(0.7) {
                b.on_request();
            } else {
                let _ = b.try_spend();
            }
            assert!(
                (b.spent() as f64) <= b.ceiling() + 1e-9,
                "spent {} ceiling {}",
                b.spent(),
                b.ceiling()
            );
        }
        assert!(b.denied() > 0, "an adversarial mix must hit the budget");
    }

    #[test]
    fn breaker_trips_probes_and_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            open_for: ms(10),
            jitter: 0.0,
            half_open_probes: 2,
        };
        let mut b = CircuitBreaker::new(cfg, 7);
        assert!(b.admits(SimTime::ZERO));
        b.record_failure(at(1));
        b.record_failure(at(2));
        assert!(b.admits(at(2)), "below threshold stays closed");
        b.record_failure(at(3));
        assert!(b.is_open(at(3)));
        assert!(!b.admits(at(5)), "open fast-fails");
        assert_eq!(b.trips(), 1);
        // Window expires: half-open admits up to 2 probes.
        assert!(b.admits(at(14)));
        b.note_dispatch();
        assert!(b.admits(at(14)));
        b.note_dispatch();
        assert!(!b.admits(at(14)), "probe slots exhausted");
        // A probe success closes; failure streak resets.
        b.record_success(at(15));
        assert!(b.admits(at(15)));
        assert!(b.open_ns(at(15)) >= ms(10).as_nanos());
    }

    #[test]
    fn half_open_failure_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            open_for: ms(5),
            jitter: 0.0,
            half_open_probes: 1,
        };
        let mut b = CircuitBreaker::new(cfg, 3);
        b.record_failure(at(0));
        assert!(b.is_open(at(1)));
        assert!(b.admits(at(6)), "half-open probe");
        b.note_dispatch();
        b.record_failure(at(7));
        assert!(b.is_open(at(8)), "probe failure re-opens");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn breaker_jitter_is_pure_per_trip() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            open_for: ms(10),
            jitter: 0.5,
            half_open_probes: 1,
        };
        // Two breakers with the same seed trip at different times but
        // produce the same open-window length per trip count.
        let window_after_trip = |fail_at: SimTime| {
            let mut b = CircuitBreaker::new(cfg, 42);
            b.record_failure(fail_at);
            let BreakerState::Open { until } = b.state else {
                panic!("tripped breaker is open");
            };
            until.saturating_sub(fail_at)
        };
        let w1 = window_after_trip(at(1));
        let w2 = window_after_trip(at(999));
        assert_eq!(w1, w2, "jitter depends on (seed, trip), not time");
        assert!(w1 >= ms(10) && w1 <= ms(15), "jitter within bound: {w1:?}");
        // A different seed draws a different (but still pure) jitter.
        let mut other = CircuitBreaker::new(cfg, 43);
        other.record_failure(at(1));
        let BreakerState::Open { until } = other.state else {
            panic!("tripped breaker is open");
        };
        assert!(until.saturating_sub(at(1)) >= ms(10));
    }

    #[test]
    fn priority_stream_is_pure_and_proportional() {
        let n = 10_000u64;
        let low = (0..n)
            .filter(|&i| priority_for(11, i, 0.2) == Priority::Low)
            .count() as f64;
        let frac = low / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "low fraction {frac}");
        // Pure: same (seed, index) always answers the same.
        for i in [0u64, 17, 9999] {
            assert_eq!(priority_for(11, i, 0.2), priority_for(11, i, 0.2));
        }
        assert_eq!(priority_for(5, 3, 0.0), Priority::High);
    }

    #[test]
    fn stats_derived_metrics() {
        let s = ResilienceStats {
            offered: 100,
            admitted: 80,
            shed_low: 15,
            shed_high: 5,
            retries_spent: 8,
            ..Default::default()
        };
        assert_eq!(s.shed(), 20);
        assert!((s.shed_fraction() - 0.2).abs() < 1e-12);
        assert!((s.retry_amplification() - 1.1).abs() < 1e-12);
        assert_eq!(ResilienceStats::default().retry_amplification(), 1.0);
        assert_eq!(ResilienceStats::default().shed_fraction(), 0.0);
    }
}
