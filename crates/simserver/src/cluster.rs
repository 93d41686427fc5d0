//! Cluster-level simulation: many servers behind a load balancer.
//!
//! The paper's performance model "makes the simplifying assumption that
//! cluster-level performance can be approximated by the aggregation of
//! single-machine benchmarks" and flags validation of that assumption as
//! future work (Section 4). This module does the validation: it
//! simulates `n` identical servers behind a dispatcher and compares the
//! cluster's QoS-constrained throughput against `n x` the single-server
//! result, including a configurable scale-out overhead (the Amdahl-style
//! costs the paper lists: bigger data structures, more coordination,
//! higher latency variability).
//!
//! The cluster is also where the availability layer lives
//! ([`run_closed_loop_faulted`](Cluster::run_closed_loop_faulted)):
//! servers go down and come back per a [`ClusterFaults`] plan, the
//! dispatcher fails over around dead servers, and a [`RetryPolicy`]
//! governs per-request timeouts and bounded, backed-off retries. With a
//! fail-free plan and a no-op policy the fault-aware path reproduces the
//! plain run bit for bit.
//!
//! The closed loop defined here is the one closed loop of the crate:
//! [`ServerSim`](crate::ServerSim) runs it as a lone server with no
//! dispatcher stream and no demand inflation, and
//! [`trace_closed_loop`](crate::trace_closed_loop) adds a recorder hook.

use std::collections::VecDeque;

use wcs_simcore::{ConfigError, SimDuration, SimRng, SimTime};

use crate::engine::{RunStats, ServerSpec};
use crate::failover::{ClusterFaults, RetryPolicy};
use crate::kernel::{Adapter, Ev, Kernel, Work};
use crate::request::{RequestSource, Resource, Stage};
use crate::resilience::{CircuitBreaker, ResilienceConfig, ResilienceStats, RetryBudget};

/// Dispatch policy of the front-end load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Dispatch {
    /// Round-robin across servers.
    RoundRobin,
    /// Join the server with the fewest requests in flight.
    LeastLoaded,
    /// Uniformly random server.
    Random,
}

/// A cluster of identical servers behind a dispatcher.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Per-server capacity.
    pub spec: ServerSpec,
    /// Number of servers.
    pub servers: u32,
    /// Dispatch policy.
    pub dispatch: Dispatch,
    /// Fractional per-request demand inflation per doubling of cluster
    /// size (the scale-out overhead: routing, fan-out, bigger metadata).
    pub scaleout_overhead: f64,
}

/// Closed-loop adapter events.
pub(crate) enum ClosedEvent {
    /// A client's think time expired; it issues its next request.
    Launch,
    /// A dispatched attempt's timeout expired; `gen` must still match
    /// its slot.
    Timeout { slot: u32, gen: u32 },
    /// A server fails.
    Down { server: u32 },
    /// A server finishes repair.
    Up { server: u32 },
}

/// What a closed loop records beyond its statistics: nothing, or each
/// request's timeline for [`trace_closed_loop`](crate::trace_closed_loop).
pub(crate) trait Recorder {
    /// Per-request recording state.
    type Slot: Default;
    /// A request starts service at a station.
    fn on_start(_data: &mut Self::Slot, _res: Resource, _queued: SimDuration, _svc: SimDuration) {}
    /// A request completed (zero-demand requests arrive with no data).
    fn on_complete(&mut self, _started: SimTime, _data: Self::Slot, _now: SimTime) {}
}

impl Recorder for () {
    type Slot = ();
}

/// Per-slot state of one attempt: the client gave up on it (timeout),
/// and the work keeps draining on the server but no longer counts.
#[derive(Default)]
pub(crate) struct Attempt<T> {
    abandoned: bool,
    recorded: T,
}

/// Closed-loop clients, each keeping one request in flight, behind a
/// dispatcher over one or more servers — with failover, timeouts,
/// retries, parking, breakers and think time. [`ServerSim`], tracing and
/// [`Cluster`] are all this loop.
///
/// [`ServerSim`]: crate::ServerSim
pub(crate) struct ClosedLoop<'a, R> {
    source: &'a mut dyn RequestSource,
    rng: SimRng,
    /// The dispatcher's own stream; a lone server without a dispatcher
    /// draws none.
    dispatch_rng: Option<SimRng>,
    dispatch: Dispatch,
    /// Per-request demand inflation; `None` leaves services untouched.
    inflation: Option<f64>,
    think_mean: Option<SimDuration>,
    retry: RetryPolicy,
    budget: Option<RetryBudget>,
    breakers: Option<Vec<CircuitBreaker>>,
    /// All-closed fast path: until the first recorded failure every
    /// breaker is Closed, so `admits` is vacuously true and
    /// `note_dispatch` a no-op — dispatch reads `up` directly and skips
    /// the per-request eligibility scan.
    breakers_touched: bool,
    /// Eligibility scratch, reused once a breaker has been touched.
    elig_buf: Vec<bool>,
    in_flight: Vec<u32>,
    up: Vec<bool>,
    /// Work waiting while every server is down.
    parked: VecDeque<Work>,
    rr_next: usize,
    target: u64,
    /// Drops over the whole run (never reset): drops count toward the
    /// termination target so a run where faults starve completions
    /// still ends instead of generating retry work forever.
    dropped_total: u64,
    stats: ResilienceStats,
    recorder: R,
}

impl<'a, R: Recorder> ClosedLoop<'a, R> {
    /// Clients on `servers` servers without a dispatcher stream, demand
    /// inflation, think time, faults or resilience; stops after `target`
    /// completions.
    pub fn new(
        source: &'a mut dyn RequestSource,
        seed: u64,
        servers: usize,
        target: u64,
        recorder: R,
    ) -> Self {
        ClosedLoop {
            source,
            rng: SimRng::seed_from(seed),
            dispatch_rng: None,
            dispatch: Dispatch::LeastLoaded,
            inflation: None,
            think_mean: None,
            retry: RetryPolicy::none(),
            budget: None,
            breakers: None,
            breakers_touched: false,
            elig_buf: vec![true; servers],
            in_flight: vec![0; servers],
            up: vec![true; servers],
            parked: VecDeque::new(),
            rr_next: 0,
            target,
            dropped_total: 0,
            stats: ResilienceStats::default(),
            recorder,
        }
    }

    /// Adds an exponential think time between a response and a client's
    /// next request.
    pub fn think(mut self, mean: Option<SimDuration>) -> Self {
        self.think_mean = mean;
        self
    }

    /// Runs `n_clients` clients under the outage plan `faults` until
    /// the target is met or no events remain.
    pub fn run(
        mut self,
        spec: ServerSpec,
        n_clients: u32,
        warmup: u64,
        faults: &ClusterFaults,
    ) -> (RunStats, ResilienceStats, R) {
        let s = self.up.len();
        // Pre-size for the steady state: at most one service event and
        // one timeout per client in flight, plus the outage plan.
        let fault_events: usize = (0..s).map(|srv| faults.windows_for(srv).len() * 2).sum();
        let mut k = Kernel::new(spec, s, warmup, n_clients as usize * 2 + fault_events);
        // Pre-schedule the whole outage plan. A window that cannot be
        // scheduled (its instant precedes the clock — impossible for
        // generated plans, reachable through a hand-built one) degrades
        // the run: it is skipped and counted in
        // `FaultStats::plan_skipped` instead of panicking the whole
        // sweep cell. Skipping both edges together keeps the up/down
        // bookkeeping balanced.
        let mut plan_skipped = 0;
        for (server, windows) in (0..s as u32).map(|i| (i, faults.windows_for(i as usize))) {
            let up = || Ev::Hook(ClosedEvent::Up { server });
            for w in windows {
                if k.events
                    .try_schedule(w.down_at, Ev::Hook(ClosedEvent::Down { server }))
                    .is_err()
                {
                    plan_skipped += 1;
                } else if k.events.try_schedule(w.up_at, up()).is_err() {
                    // Down landed but Up cannot: bring the server back at
                    // the earliest schedulable instant rather than losing
                    // it for the rest of the run.
                    plan_skipped += 1;
                    k.events.schedule(k.events.now(), up());
                }
            }
        }
        for _ in 0..n_clients {
            self.launch(&mut k, SimTime::ZERO);
        }
        k.run(&mut self);

        let end = k.events.now();
        let mut stats = k.into_stats();
        stats.faults.plan_skipped = plan_skipped;
        if let Some(b) = &self.budget {
            self.stats.retries_spent = b.spent();
            self.stats.retries_denied = b.denied();
        }
        if let Some(bs) = &self.breakers {
            self.stats.breaker_trips = bs.iter().map(CircuitBreaker::trips).sum();
            self.stats.breaker_open_ns = bs.iter().map(|b| b.open_ns(end)).sum();
        }
        (stats, self.stats, self.recorder)
    }

    /// Picks an eligible server per the dispatch policy; `None` when
    /// none is eligible. With `elig == up` (no breakers) this draws
    /// exactly what a breakerless run draws.
    fn pick_eligible(&mut self, breakers_on: bool) -> Option<usize> {
        let elig = if breakers_on {
            &self.elig_buf
        } else {
            &self.up
        };
        let s = elig.len();
        match self.dispatch {
            Dispatch::RoundRobin => {
                for _ in 0..s {
                    self.rr_next = (self.rr_next + 1) % s;
                    if elig[self.rr_next] {
                        return Some(self.rr_next);
                    }
                }
                None
            }
            Dispatch::Random => {
                let rng = self
                    .dispatch_rng
                    .as_mut()
                    .expect("random dispatch has a stream");
                if elig.iter().all(|&u| u) {
                    Some(rng.index(s))
                } else {
                    let ups: Vec<usize> = (0..s).filter(|&i| elig[i]).collect();
                    (!ups.is_empty()).then(|| ups[rng.index(ups.len())])
                }
            }
            Dispatch::LeastLoaded => {
                let mut best: Option<usize> = None;
                for i in (0..s).filter(|&i| elig[i]) {
                    match best {
                        Some(b) if self.in_flight[i] >= self.in_flight[b] => {}
                        _ => best = Some(i),
                    }
                }
                best
            }
        }
    }

    /// Breaker-aware dispatch: skips servers whose breaker refuses; when
    /// every live server refuses, routes anyway rather than park
    /// (breakers shed failure streaks, they do not model outages).
    fn pick_server(&mut self, now: SimTime) -> Option<usize> {
        let Some(bs) = self.breakers.as_mut().filter(|_| self.breakers_touched) else {
            return self.pick_eligible(false);
        };
        for (i, b) in bs.iter_mut().enumerate() {
            self.elig_buf[i] = self.up[i] && b.admits(now);
        }
        if !self.elig_buf.iter().any(|&e| e) && self.up.iter().any(|&u| u) {
            self.stats.breaker_fast_fails += 1;
            self.elig_buf.copy_from_slice(&self.up);
        }
        let picked = self.pick_eligible(true);
        if let (Some(srv), Some(bs)) = (picked, &mut self.breakers) {
            bs[srv].note_dispatch();
        }
        picked
    }

    /// Dispatches an attempt, or parks it while no server is up.
    fn route(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        let Some(server) = self.pick_server(now) else {
            self.parked.push_back(work);
            return;
        };
        self.in_flight[server] += 1;
        let slot = k.alloc(server, work, Attempt::default());
        if let Some(t) = self.retry.timeout {
            let (slot, gen) = (slot as u32, k.slots[slot].gen);
            k.events
                .schedule(now + t, Ev::Hook(ClosedEvent::Timeout { slot, gen }));
        }
        k.enqueue(slot, now);
    }

    /// Issues requests from one client until one is dispatched
    /// (zero-demand requests complete instantly and are counted).
    fn launch(&mut self, k: &mut Kernel<Self>, now: SimTime) {
        while k.completed + self.dropped_total < self.target {
            let mut stages = k.stage_list();
            self.source.next_request(&mut self.rng, &mut stages);
            if let Some(b) = &mut self.budget {
                b.on_request();
                self.stats.offered += 1;
                self.stats.admitted += 1;
            }
            if stages.is_empty() {
                k.complete(now, now);
                self.recorder.on_complete(now, R::Slot::default(), now);
                continue;
            }
            if let Some(inflation) = self.inflation {
                for st in &mut stages {
                    *st = Stage::new(st.resource, st.service * inflation);
                }
            }
            let work = Work {
                stages,
                started: now,
                attempt: 0,
            };
            self.route(k, work, now);
            return;
        }
    }

    /// A dispatched attempt failed (crash or timeout): retry with backoff
    /// while the per-request limit and the global budget allow it, else
    /// drop and free the client.
    fn fail(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        if !k.retry(&self.retry, self.budget.as_mut(), work, now) {
            self.dropped_total += 1;
            self.launch(k, now);
        }
    }

    fn record_failure(&mut self, server: usize, now: SimTime) {
        if let Some(bs) = &mut self.breakers {
            self.breakers_touched = true;
            bs[server].record_failure(now);
        }
    }
}

impl<R: Recorder> Adapter for ClosedLoop<'_, R> {
    type Event = ClosedEvent;
    type Slot = Attempt<R::Slot>;

    fn on_event(&mut self, k: &mut Kernel<Self>, ev: ClosedEvent, now: SimTime) {
        match ev {
            ClosedEvent::Launch => self.launch(k, now),
            ClosedEvent::Down { server } => {
                let server = server as usize;
                self.up[server] = false;
                self.in_flight[server] = 0;
                // Fail-fast: everything queued or running here dies.
                for slot in k.kill_server(server, now) {
                    let work = std::mem::take(&mut k.slots[slot].work);
                    k.release(slot);
                    self.record_failure(server, now);
                    if !k.slots[slot].data.abandoned {
                        self.fail(k, work, now);
                    }
                }
            }
            ClosedEvent::Up { server } => {
                self.up[server as usize] = true;
                // Work parked while everything was down re-enters now.
                while let Some(work) = self.parked.pop_front() {
                    self.route(k, work, now);
                }
            }
            ClosedEvent::Timeout { slot, gen } => {
                let s = &mut k.slots[slot as usize];
                if s.gen != gen || !s.active || s.data.abandoned {
                    return;
                }
                s.data.abandoned = true;
                // The zombie keeps draining on the server; the client
                // moves on with a copy of the stage list.
                let server = s.server as usize;
                let work = Work {
                    stages: s.work.stages.clone(),
                    ..s.work
                };
                k.faults.timeouts += 1;
                self.record_failure(server, now);
                self.fail(k, work, now);
            }
        }
    }

    fn on_retry(&mut self, k: &mut Kernel<Self>, work: Work, now: SimTime) {
        self.route(k, work, now);
    }

    fn on_complete(&mut self, k: &mut Kernel<Self>, slot: usize, now: SimTime) {
        let s = &mut k.slots[slot];
        let (server, started, abandoned) = (s.server as usize, s.work.started, s.data.abandoned);
        let recorded = std::mem::take(&mut s.data.recorded);
        self.in_flight[server] -= 1;
        k.release(slot);
        if abandoned {
            return;
        }
        if let Some(bs) = &mut self.breakers {
            bs[server].record_success(now);
        }
        k.complete(started, now);
        self.recorder.on_complete(started, recorded, now);
        match self.think_mean {
            Some(mean) if !mean.is_zero() => {
                let think = self.rng.exp_duration(mean);
                k.events
                    .schedule(now + think, Ev::Hook(ClosedEvent::Launch));
            }
            _ => self.launch(k, now),
        }
    }

    fn done(&self, k: &Kernel<Self>) -> bool {
        k.completed + self.dropped_total >= self.target
    }

    fn on_start(data: &mut Self::Slot, res: Resource, queued: SimDuration, svc: SimDuration) {
        R::on_start(&mut data.recorded, res, queued, svc);
    }
}

impl Cluster {
    /// A cluster with no scale-out overhead (the paper's idealized
    /// aggregation assumption).
    ///
    /// # Errors
    /// Rejects an empty cluster.
    pub fn ideal(spec: ServerSpec, servers: u32) -> Result<Self, ConfigError> {
        if servers == 0 {
            return Err(ConfigError::ZeroCount { param: "servers" });
        }
        Ok(Cluster {
            spec,
            servers,
            dispatch: Dispatch::LeastLoaded,
            scaleout_overhead: 0.0,
        })
    }

    /// Demand inflation factor for this cluster size.
    pub fn inflation(&self) -> f64 {
        1.0 + self.scaleout_overhead * (self.servers as f64).log2()
    }

    /// Runs `n_clients` closed-loop clients against the cluster until
    /// `warmup + measured` completions; reports cluster-wide stats.
    ///
    /// Equivalent to
    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted) with a
    /// fail-free plan and no-op retry policy — and bit-identical to it.
    ///
    /// # Errors
    /// Rejects zero `n_clients` or zero `measured`.
    pub fn run_closed_loop(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
    ) -> Result<RunStats, ConfigError> {
        self.run_closed_loop_faulted(
            source,
            n_clients,
            warmup,
            measured,
            seed,
            &ClusterFaults::fail_free(),
            &RetryPolicy::none(),
        )
    }

    /// Runs the closed loop under a fault plan: servers go down and come
    /// back per `faults`, the dispatcher routes around dead servers, and
    /// `retry` governs per-request timeouts and bounded retries.
    ///
    /// Failure semantics:
    ///
    /// * When a server dies, everything queued or in service there fails
    ///   immediately (fail-fast); each failed request retries after
    ///   backoff if budget remains, else it is dropped and its client
    ///   moves on.
    /// * When an attempt times out, the client abandons it and retries
    ///   (or drops), but the server keeps draining the zombie work —
    ///   the wasted-work effect of real datacenter timeouts.
    /// * While every server is down, new work parks at the dispatcher
    ///   and re-enters on the next repair.
    ///
    /// If faults prevent the run from ever reaching `warmup + measured`
    /// completions, the run ends when no events remain (after the last
    /// scheduled repair) and reports whatever completed — degraded, not
    /// panicking.
    ///
    /// # Errors
    /// Rejects zero `n_clients` or `measured`, and a fault plan that
    /// names more servers than the cluster has.
    #[allow(clippy::too_many_arguments)]
    pub fn run_closed_loop_faulted(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
        faults: &ClusterFaults,
        retry: &RetryPolicy,
    ) -> Result<RunStats, ConfigError> {
        self.run_closed_loop_resilient(
            source,
            n_clients,
            warmup,
            measured,
            seed,
            faults,
            retry,
            &ResilienceConfig::disabled(),
        )
        .map(|(stats, _)| stats)
    }

    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted) with an
    /// overload-resilience layer: a global [`RetryBudget`] gates every
    /// retry the [`RetryPolicy`] would otherwise grant unconditionally,
    /// and per-server [`CircuitBreaker`]s steer the dispatcher away from
    /// backends on a failure streak (admission control lives at the
    /// open-loop entry — see
    /// [`run_open_loop_resilient`](crate::run_open_loop_resilient) — not
    /// here, where closed-loop clients self-limit).
    ///
    /// When every live server's breaker refuses, the dispatcher routes
    /// anyway (counted in
    /// [`breaker_fast_fails`](ResilienceStats::breaker_fast_fails)):
    /// breakers are overload protection, and parking behind them would
    /// deadlock a closed loop whose only servers are all on a streak.
    ///
    /// With [`ResilienceConfig::disabled`] this is bit-identical to
    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted): no
    /// extra RNG draws, no event-schedule changes. [`ResilienceStats`]
    /// counters cover the whole run (warmup included), unlike
    /// [`FaultStats`](crate::FaultStats), which covers the measurement window.
    ///
    /// # Errors
    /// As [`run_closed_loop_faulted`](Self::run_closed_loop_faulted).
    #[allow(clippy::too_many_arguments)]
    pub fn run_closed_loop_resilient(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
        faults: &ClusterFaults,
        retry: &RetryPolicy,
        resilience: &ResilienceConfig,
    ) -> Result<(RunStats, ResilienceStats), ConfigError> {
        resilience.validate();
        if n_clients == 0 {
            return Err(ConfigError::ZeroCount { param: "n_clients" });
        }
        if measured == 0 {
            return Err(ConfigError::ZeroCount { param: "measured" });
        }
        if faults.planned_servers() > self.servers as usize {
            return Err(ConfigError::CapacityExceeded {
                what: "fault plan servers",
                requested: faults.planned_servers() as u64,
                available: self.servers as u64,
            });
        }
        let s = self.servers as usize;
        let mut cl = ClosedLoop::new(source, seed, s, warmup + measured, ());
        cl.dispatch_rng = Some(cl.rng.fork(99));
        cl.dispatch = self.dispatch;
        cl.inflation = Some(self.inflation());
        cl.retry = *retry;
        // Absent resilience mechanisms cost nothing: with the layer
        // disabled the run draws and schedules exactly what the plain
        // faulted run does.
        cl.budget = resilience.retry_budget.map(RetryBudget::new);
        cl.breakers = resilience.breaker.map(|cfg| {
            (0..s)
                .map(|srv| CircuitBreaker::new(cfg, seed ^ 0xB4EA_0001, srv as u64))
                .collect()
        });
        let (mut stats, res, ()) = cl.run(self.spec, n_clients, warmup, faults);
        stats.faults.offered = stats.completed + stats.faults.dropped;
        Ok((stats, res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerSim;

    fn exp_cpu(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(us)),
            )]
        }
    }

    #[test]
    fn ideal_cluster_aggregates_single_server_throughput() {
        // The paper's aggregation assumption: 4 ideal servers ~= 4x one.
        let single = ServerSim::new(ServerSpec::new(2))
            .run_closed_loop(&mut exp_cpu(1000), 16, 300, 4000, 7)
            .throughput_rps();
        let cluster = Cluster::ideal(ServerSpec::new(2), 4)
            .unwrap()
            .run_closed_loop(&mut exp_cpu(1000), 64, 300, 8000, 7)
            .unwrap()
            .throughput_rps();
        let ratio = cluster / single;
        assert!((3.7..=4.3).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn scaleout_overhead_erodes_aggregation() {
        let mut lossy = Cluster::ideal(ServerSpec::new(2), 8).unwrap();
        lossy.scaleout_overhead = 0.05; // 5% per doubling
        let ideal = Cluster::ideal(ServerSpec::new(2), 8)
            .unwrap()
            .run_closed_loop(&mut exp_cpu(1000), 128, 300, 8000, 3)
            .unwrap()
            .throughput_rps();
        let eroded = lossy
            .run_closed_loop(&mut exp_cpu(1000), 128, 300, 8000, 3)
            .unwrap()
            .throughput_rps();
        let loss = 1.0 - eroded / ideal;
        // log2(8) * 5% = 15% inflation -> ~13% throughput loss.
        assert!((0.08..=0.20).contains(&loss), "loss {loss}");
    }

    #[test]
    fn least_loaded_beats_random_on_tail_latency() {
        let run = |dispatch| {
            let mut c = Cluster::ideal(ServerSpec::new(1), 8).unwrap();
            c.dispatch = dispatch;
            let stats = c
                .run_closed_loop(&mut exp_cpu(1000), 12, 500, 8000, 11)
                .unwrap();
            stats.latency.percentile(99.0).unwrap()
        };
        let ll = run(Dispatch::LeastLoaded);
        let rnd = run(Dispatch::Random);
        assert!(ll < rnd, "p99: least-loaded {ll} vs random {rnd}");
    }

    #[test]
    fn round_robin_balances_perfectly_with_uniform_work() {
        let c = Cluster {
            dispatch: Dispatch::RoundRobin,
            ..Cluster::ideal(ServerSpec::new(1), 4).unwrap()
        };
        let mut fixed =
            |_rng: &mut SimRng| vec![Stage::new(Resource::Cpu, SimDuration::from_micros(500))];
        let stats = c.run_closed_loop(&mut fixed, 4, 100, 2000, 5).unwrap();
        // 4 clients over 4 servers at 500 us: 8000 RPS, no queueing.
        assert!((stats.throughput_rps() - 8000.0).abs() < 100.0);
        let p95 = stats.latency.percentile(95.0).unwrap();
        assert!(p95 < 6e-4, "p95 {p95}");
    }

    #[test]
    fn inflation_formula() {
        let mut c = Cluster::ideal(ServerSpec::new(1), 16).unwrap();
        c.scaleout_overhead = 0.1;
        assert!((c.inflation() - 1.4).abs() < 1e-12);
        assert_eq!(
            Cluster::ideal(ServerSpec::new(1), 16).unwrap().inflation(),
            1.0
        );
    }

    #[test]
    fn rejects_empty_cluster() {
        assert!(matches!(
            Cluster::ideal(ServerSpec::new(1), 0),
            Err(ConfigError::ZeroCount { param: "servers" })
        ));
    }

    #[test]
    fn rejects_zero_clients_and_window() {
        let c = Cluster::ideal(ServerSpec::new(1), 2).unwrap();
        assert!(c.run_closed_loop(&mut exp_cpu(100), 0, 1, 1, 1).is_err());
        assert!(c.run_closed_loop(&mut exp_cpu(100), 1, 1, 0, 1).is_err());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::request::Resource;
    use wcs_simcore::faults::FaultProcess;
    use wcs_simcore::SimDuration;

    fn exp_cpu(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(us)),
            )]
        }
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
    fn fail_free_plan_is_bit_identical_to_plain_run() {
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::Random,
        ] {
            let mut c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
            c.dispatch = dispatch;
            let plain = c
                .run_closed_loop(&mut exp_cpu(800), 16, 200, 3000, 21)
                .unwrap();
            let faulted = c
                .run_closed_loop_faulted(
                    &mut exp_cpu(800),
                    16,
                    200,
                    3000,
                    21,
                    &ClusterFaults::fail_free(),
                    &RetryPolicy::none(),
                )
                .unwrap();
            assert_eq!(fingerprint(&plain), fingerprint(&faulted));
            assert_eq!(faulted.faults.timeouts, 0);
            assert_eq!(faulted.faults.dropped, 0);
            assert_eq!(faulted.faults.offered, faulted.completed);
        }
    }

    #[test]
    fn single_server_outage_degrades_but_does_not_stop() {
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        // Server 0 dies at 0.5 s for 1 s, in the middle of the run.
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_secs(1),
        );
        let retry =
            RetryPolicy::new(SimDuration::from_millis(50), 3, SimDuration::from_millis(1)).unwrap();
        let stats = c
            .run_closed_loop_faulted(&mut exp_cpu(1000), 32, 200, 8000, 9, &faults, &retry)
            .unwrap();
        assert_eq!(stats.completed, 8000, "run still completes");
        // The crash kills in-flight work exactly once; retries recover it.
        assert!(stats.faults.retries > 0, "crash should trigger retries");
        assert!(stats.goodput_rps() > 0.0);
        assert!(stats.offered_rps() >= stats.goodput_rps());
    }

    #[test]
    fn dropped_requests_widen_offered_over_goodput() {
        let c = Cluster::ideal(ServerSpec::new(1), 2).unwrap();
        // Both servers down together for a stretch; no retry budget, so
        // crash victims are dropped.
        let mut faults = ClusterFaults::fail_free();
        for srv in 0..2 {
            faults.set_windows(
                srv,
                vec![wcs_simcore::faults::DownWindow {
                    down_at: SimTime::ZERO + SimDuration::from_millis(100),
                    up_at: SimTime::ZERO + SimDuration::from_millis(400),
                }],
            );
        }
        let stats = c
            .run_closed_loop_faulted(
                &mut exp_cpu(1000),
                8,
                100,
                4000,
                13,
                &faults,
                &RetryPolicy::none(),
            )
            .unwrap();
        assert!(stats.faults.dropped > 0, "crash victims are dropped");
        assert_eq!(stats.faults.offered, stats.completed + stats.faults.dropped);
        assert!(stats.offered_rps() > stats.goodput_rps());
    }

    #[test]
    fn timeouts_fire_on_slow_requests() {
        let c = Cluster::ideal(ServerSpec::new(1), 1).unwrap();
        // 10 eager clients on one 1-core server: queueing delay ~10 ms,
        // but the timeout is 3 ms, so waits blow the budget constantly.
        let retry = RetryPolicy::new(
            SimDuration::from_millis(3),
            1,
            SimDuration::from_micros(100),
        )
        .unwrap();
        let stats = c
            .run_closed_loop_faulted(
                &mut exp_cpu(1000),
                10,
                100,
                2000,
                5,
                &ClusterFaults::fail_free(),
                &retry,
            )
            .unwrap();
        assert!(stats.faults.timeouts > 0, "timeouts {:?}", stats.faults);
        assert!(stats.faults.retries > 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let p =
            FaultProcess::exponential(SimDuration::from_millis(300), SimDuration::from_millis(40))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(30), 77);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(20), 2, SimDuration::from_millis(1)).unwrap();
        let run = || {
            c.run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 4000, 31, &faults, &retry)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.window, b.window);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn disabled_resilience_is_bit_identical_to_faulted_run() {
        use crate::resilience::ResilienceConfig;
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let p =
            FaultProcess::exponential(SimDuration::from_millis(300), SimDuration::from_millis(40))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(30), 77);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(20), 2, SimDuration::from_millis(1)).unwrap();
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::Random,
        ] {
            let mut cl = c.clone();
            cl.dispatch = dispatch;
            let plain = cl
                .run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 4000, 31, &faults, &retry)
                .unwrap();
            let (run, res) = cl
                .run_closed_loop_resilient(
                    &mut exp_cpu(900),
                    24,
                    200,
                    4000,
                    31,
                    &faults,
                    &retry,
                    &ResilienceConfig::disabled(),
                )
                .unwrap();
            assert_eq!(fingerprint(&plain), fingerprint(&run));
            assert_eq!(plain.faults, run.faults);
            assert_eq!(res, crate::resilience::ResilienceStats::default());
        }
    }

    #[test]
    fn retry_budget_caps_amplification_under_fault_storm() {
        use crate::resilience::{ResilienceConfig, RetryBudgetConfig};
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        // Churning faults + a generous per-request retry allowance: the
        // unconditional path would amplify; the budget must hold the line.
        let p =
            FaultProcess::exponential(SimDuration::from_millis(120), SimDuration::from_millis(30))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(60), 5);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(10), 8, SimDuration::from_millis(1)).unwrap();
        let budget = RetryBudgetConfig {
            ratio: 0.01,
            initial: 2.0,
            cap: 8.0,
        };
        let cfg = ResilienceConfig {
            retry_budget: Some(budget),
            ..ResilienceConfig::disabled()
        };
        let (stats, res) = c
            .run_closed_loop_resilient(&mut exp_cpu(900), 24, 200, 6000, 31, &faults, &retry, &cfg)
            .unwrap();
        assert!(res.offered > 0);
        let ceiling = budget.initial + budget.ratio * res.offered as f64;
        assert!(
            (res.retries_spent as f64) <= ceiling + 1e-9,
            "spent {} > ceiling {ceiling}",
            res.retries_spent
        );
        assert!(res.retries_denied > 0, "storm must exhaust the budget");
        assert!(stats.completed > 0);
        // Unbudgeted comparison run: strictly more retries granted.
        let unbudgeted = c
            .run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 6000, 31, &faults, &retry)
            .unwrap();
        assert!(
            unbudgeted.faults.retries + unbudgeted.faults.dropped > 0,
            "storm is real"
        );
    }

    #[test]
    fn breakers_trip_on_outage_and_run_recovers() {
        use crate::resilience::{BreakerConfig, ResilienceConfig};
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(200),
            SimDuration::from_millis(800),
        );
        let retry =
            RetryPolicy::new(SimDuration::from_millis(30), 3, SimDuration::from_millis(1)).unwrap();
        let cfg = ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_for: SimDuration::from_millis(50),
                jitter: 0.2,
                half_open_probes: 2,
            }),
            ..ResilienceConfig::disabled()
        };
        let (stats, res) = c
            .run_closed_loop_resilient(&mut exp_cpu(1000), 32, 200, 6000, 9, &faults, &retry, &cfg)
            .unwrap();
        assert_eq!(stats.completed, 6000, "run completes despite the trip");
        assert!(res.breaker_trips > 0, "outage victims trip the breaker");
        assert!(res.breaker_open_ns > 0);
        // Determinism of the resilient path.
        let (stats2, res2) = c
            .run_closed_loop_resilient(&mut exp_cpu(1000), 32, 200, 6000, 9, &faults, &retry, &cfg)
            .unwrap();
        assert_eq!(stats.completed, stats2.completed);
        assert_eq!(stats.window, stats2.window);
        assert_eq!(res, res2);
    }

    #[test]
    fn whole_cluster_outage_parks_and_recovers() {
        let c = Cluster::ideal(ServerSpec::new(1), 1).unwrap();
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        );
        let retry = RetryPolicy::new(
            SimDuration::from_millis(500),
            5,
            SimDuration::from_millis(1),
        )
        .unwrap();
        // With a generous timeout and retry budget, all work eventually
        // completes after the repair.
        let stats = c
            .run_closed_loop_faulted(&mut exp_cpu(500), 4, 50, 1000, 3, &faults, &retry)
            .unwrap();
        assert_eq!(stats.completed, 1000);
        assert!(stats.faults.retries > 0);
    }
}
