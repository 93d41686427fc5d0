//! Cross-build golden pins for every public simulation entry point.
//!
//! Each case hashes its result field by field (each `u64` as-is, each
//! `f64` by its bits) into two digests:
//!
//! * **A** — every result field (`RunStats`, `BatchResult`,
//!   `ResilienceStats`, `FaultStats`, `ThroughputResult`) plus
//!   `queue.scheduled`. Histograms enter
//!   through their public accessors: count, mean and max by bits, and
//!   every integer percentile.
//! * **B** — the other four `QueueObs` counters (`fast_path`,
//!   `calendar_hits`, `heap_fallbacks`, `max_depth`), which describe how
//!   the event queue routed the run rather than what the run computed.
//!
//! The cases deliberately cover the differences between entry points
//! that a shared event loop must keep: `ServerSim` forks no RNG stream
//! while the open loop forks `fork(1)` and the cluster `fork(99)` (and
//! inflates services through `SimDuration * f64`), so a one-server
//! cluster is not a `ServerSim`; `run_batch` starts all four stations in
//! `Resource::ALL` order after every event (pinned with identical-service
//! tasks); empty-stage requests, zero-length stages, every dispatch
//! policy, a flapping fault plan with timeouts, a whole-cluster
//! outage, and a resilient open loop with every mechanism on.

use wcs_simcore::event::QueueObs;
use wcs_simcore::faults::{DownWindow, FaultProcess};
use wcs_simcore::stats::Histogram;
use wcs_simcore::{SimDuration, SimRng, SimTime};
use wcs_simserver::driver::SearchConfig;
use wcs_simserver::{
    find_max_throughput, run_batch, run_open_loop, run_open_loop_profiled, run_open_loop_resilient,
    AdmissionConfig, BatchResult, BreakerConfig, Cluster, ClusterFaults, Dispatch, FaultStats,
    QosSpec, RateProfile, RequestSource, ResilienceConfig, ResilienceStats, Resource,
    RetryBudgetConfig, RetryPolicy, RunStats, ServerSim, ServerSpec, Stage, ThroughputResult,
};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            None => self.u64(0),
            Some(x) => self.u64(1).f64(x),
        }
    }

    fn histogram(&mut self, h: &Histogram) -> &mut Self {
        self.u64(h.count()).f64(h.mean()).opt_f64(h.max());
        for p in 0..=100 {
            self.opt_f64(h.percentile(f64::from(p)));
        }
        self
    }

    fn utilization(&mut self, u: &[f64; 4]) -> &mut Self {
        for x in u {
            self.f64(*x);
        }
        self
    }

    fn faults(&mut self, f: &FaultStats) -> &mut Self {
        self.u64(f.timeouts)
            .u64(f.retries)
            .u64(f.dropped)
            .u64(f.offered)
            .u64(f.plan_skipped)
    }

    fn run_stats(&mut self, s: &RunStats) -> &mut Self {
        self.u64(s.completed)
            .u64(s.window.as_nanos())
            .histogram(&s.latency)
            .utilization(&s.utilization)
            .faults(&s.faults)
            .u64(s.queue.scheduled)
    }

    fn resilience(&mut self, r: &ResilienceStats) -> &mut Self {
        self.u64(r.offered)
            .u64(r.admitted)
            .u64(r.shed_low)
            .u64(r.shed_high)
            .u64(r.breaker_fast_fails)
            .u64(r.breaker_trips)
            .u64(r.breaker_open_ns)
            .u64(r.retries_spent)
            .u64(r.retries_denied)
    }

    fn batch(&mut self, b: &BatchResult) -> &mut Self {
        self.u64(b.makespan.as_nanos())
            .u64(b.tasks as u64)
            .utilization(&b.utilization)
            .u64(b.queue.scheduled)
    }

    fn throughput(&mut self, r: &ThroughputResult) -> &mut Self {
        self.f64(r.rps)
            .u64(u64::from(r.clients))
            .f64(r.latency_at_qos)
            .u64(r.bottleneck.index() as u64)
            .f64(r.bottleneck_utilization)
            .u64(r.queue.scheduled)
    }

    fn queue_routing(&mut self, q: &QueueObs) -> &mut Self {
        self.u64(q.fast_path)
            .u64(q.calendar_hits)
            .u64(q.heap_fallbacks)
            .u64(q.max_depth)
    }

    fn value(&self) -> u64 {
        self.0
    }
}

fn digest_a(f: impl FnOnce(&mut Digest) -> &mut Digest) -> u64 {
    f(&mut Digest::new()).value()
}

fn digest_b(q: &QueueObs) -> u64 {
    Digest::new().queue_routing(q).value()
}

/// Asserts one case's digests, naming both the pinned and the observed
/// value so a deliberate re-pin is a copy-paste.
#[track_caller]
fn pin(case: &str, got: (u64, Option<u64>), want: (u64, Option<u64>)) {
    assert_eq!(
        got,
        want,
        "{case}: got (A, B) = ({:#018x}, {:?}), pinned ({:#018x}, {:?})",
        got.0,
        got.1.map(|b| format!("{b:#018x}")),
        want.0,
        want.1.map(|b| format!("{b:#018x}"))
    );
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn at_ms(n: u64) -> SimTime {
    SimTime::ZERO + ms(n)
}

/// A CPU → (memory) → (disk) → NIC request with exponential services,
/// an occasional empty request, and an occasional zero-length stage
/// (which completes at the instant it starts).
fn mixed(rng: &mut SimRng) -> Vec<Stage> {
    if rng.chance(0.04) {
        return Vec::new();
    }
    let mut stages = vec![Stage::new(Resource::Cpu, rng.exp_duration(us(400)))];
    if rng.chance(0.1) {
        stages.push(Stage::new(Resource::Memory, SimDuration::ZERO));
    }
    if rng.chance(0.5) {
        stages.push(Stage::new(Resource::Disk, rng.exp_duration(us(1500))));
    }
    stages.push(Stage::new(Resource::Net, rng.exp_duration(us(120))));
    stages
}

/// Identical deterministic requests: every tie-break is exercised.
fn fixed(_rng: &mut SimRng) -> Vec<Stage> {
    vec![
        Stage::new(Resource::Cpu, us(500)),
        Stage::new(Resource::Disk, us(500)),
        Stage::new(Resource::Cpu, us(100)),
    ]
}

/// Three request shapes cycled in order, every stage one 3 ms quantum:
/// completions tie across stations constantly, and because the shapes
/// differ, the order in which tied work starts changes the results.
fn shapes() -> impl FnMut(&mut SimRng) -> Vec<Stage> {
    let mut next = 0usize;
    move |_rng| {
        next += 1;
        let q = ms(3);
        match next % 3 {
            0 => vec![
                Stage::new(Resource::Cpu, q),
                Stage::new(Resource::Disk, q),
                Stage::new(Resource::Net, q),
            ],
            1 => vec![
                Stage::new(Resource::Disk, q),
                Stage::new(Resource::Cpu, q * 2),
            ],
            _ => vec![
                Stage::new(Resource::Net, q),
                Stage::new(Resource::Disk, q),
                Stage::new(Resource::Cpu, q),
                Stage::new(Resource::Disk, q),
            ],
        }
    }
}

/// Half the requests are empty and complete at their launch instant.
fn mostly_empty(rng: &mut SimRng) -> Vec<Stage> {
    if rng.chance(0.5) {
        Vec::new()
    } else {
        vec![Stage::new(Resource::Cpu, rng.exp_duration(us(300)))]
    }
}

fn spec() -> ServerSpec {
    ServerSpec {
        disks: 2,
        ..ServerSpec::new(2)
    }
}

fn run_case(stats: &RunStats) -> (u64, Option<u64>) {
    (
        digest_a(|d| d.run_stats(stats)),
        Some(digest_b(&stats.queue)),
    )
}

fn resilient_case(stats: &RunStats, res: &ResilienceStats) -> (u64, Option<u64>) {
    (
        digest_a(|d| d.run_stats(stats).resilience(res)),
        Some(digest_b(&stats.queue)),
    )
}

#[test]
fn server_sim_closed_loop() {
    let sim = ServerSim::new(spec());
    let stats = sim.run_closed_loop(&mut mixed, 6, 200, 3000, 11);
    pin(
        "closed/mixed",
        run_case(&stats),
        (0x695dac2dc18b6d3c, Some(0x3fc638bd1d7d08e5)),
    );
    let stats = ServerSim::new(ServerSpec::new(1)).run_closed_loop(&mut shapes(), 5, 30, 600, 16);
    pin(
        "closed/shapes",
        run_case(&stats),
        (0x6d25dc234e74eb9e, Some(0x4a4caf93e5181818)),
    );
    let stats = sim.run_closed_loop(&mut fixed, 5, 50, 1000, 13);
    pin(
        "closed/fixed",
        run_case(&stats),
        (0x83cae00966da458f, Some(0xa19444b6ce34e287)),
    );
    let stats = sim.run_closed_loop(&mut mostly_empty, 3, 40, 600, 14);
    pin(
        "closed/mostly-empty",
        run_case(&stats),
        (0x91bf1ccca00980ae, Some(0x451eeba3c0734966)),
    );
}

#[test]
fn driver_search() {
    let sim = ServerSim::new(spec());
    let mut make = || -> Box<dyn RequestSource> { Box::new(mixed) };
    let config = SearchConfig {
        warmup: 100,
        measured: 800,
        max_clients: 64,
        seed: 21,
    };
    let result = find_max_throughput(&sim, &mut make, QosSpec::new(95.0, ms(8)), config)
        .expect("QoS is feasible");
    pin(
        "driver/mixed",
        (
            digest_a(|d| d.throughput(&result)),
            Some(digest_b(&result.queue)),
        ),
        (0xa4e60393ecde11f8, Some(0xc203d4ce61c5b66d)),
    );
}

#[test]
fn batch_runs() {
    // Two tasks whose first stages finish at the same instant and then
    // contend for the CPU: which one reaches the CPU queue first decides
    // the makespan, and that follows the Resource::ALL start order.
    let tie = vec![
        vec![
            Stage::new(Resource::Disk, ms(2)),
            Stage::new(Resource::Cpu, ms(5)),
            Stage::new(Resource::Net, ms(20)),
        ],
        vec![
            Stage::new(Resource::Cpu, ms(2)),
            Stage::new(Resource::Cpu, ms(5)),
        ],
    ];
    let res = run_batch(
        ServerSpec::new(1),
        [tie.clone(), tie.clone(), tie].concat(),
        2,
    );
    pin(
        "batch/tie-order",
        (digest_a(|d| d.batch(&res)), Some(digest_b(&res.queue))),
        (0xfdbc1da5144a0fad, Some(0xc3db1c98f1bfe061)),
    );
    let mut rng = SimRng::seed_from(30);
    let mut shape = shapes();
    let tasks: Vec<Vec<Stage>> = (0..30).map(|_| shape(&mut rng)).collect();
    let res = run_batch(ServerSpec::new(1), tasks, 5);
    pin(
        "batch/shapes",
        (digest_a(|d| d.batch(&res)), Some(digest_b(&res.queue))),
        (0x9c484a658148c068, Some(0xcfa5ecc4fe829a48)),
    );
    let task = vec![
        Stage::new(Resource::Cpu, ms(10)),
        Stage::new(Resource::Disk, ms(5)),
        Stage::new(Resource::Net, ms(1)),
        Stage::new(Resource::Cpu, ms(2)),
    ];
    let res = run_batch(spec(), vec![task; 24], 6);
    pin(
        "batch/identical",
        (digest_a(|d| d.batch(&res)), Some(digest_b(&res.queue))),
        (0x1031014b7d305f6a, Some(0x95efa73ac4c40da2)),
    );
    let mut rng = SimRng::seed_from(31);
    let tasks: Vec<Vec<Stage>> = (0..60).map(|_| mixed(&mut rng)).collect();
    let res = run_batch(ServerSpec::new(3), tasks, 4);
    pin(
        "batch/mixed",
        (digest_a(|d| d.batch(&res)), Some(digest_b(&res.queue))),
        (0x90c55e87e5f5ffd9, Some(0xc33cdc8579dce3b4)),
    );
}

#[test]
fn open_loop() {
    let stats = run_open_loop(spec(), &mut mixed, 900.0, 200, 3000, 19);
    pin(
        "open/mixed",
        run_case(&stats),
        (0xf129247f9f213cf0, Some(0xa001e6a2e1cc058f)),
    );
    let profile = RateProfile::new(ms(200), vec![0.5, 1.5, 1.0, 2.5]);
    let stats = run_open_loop_profiled(spec(), &mut mixed, 800.0, &profile, 200, 3000, 20);
    pin(
        "open/profiled",
        run_case(&stats),
        (0xdab9f5714b824fdc, Some(0x5a1011edc86673cf)),
    );
    let stats = run_open_loop(ServerSpec::new(1), &mut fixed, 1500.0, 100, 2000, 22);
    pin(
        "open/fixed-overload",
        run_case(&stats),
        (0xb8bbd2906dd964cf, Some(0x669c947bedc9d8c4)),
    );
}

#[test]
fn open_loop_resilient() {
    let profile = RateProfile::new(ms(250), vec![0.8, 1.6, 1.0]);
    let outages = [
        DownWindow {
            down_at: at_ms(600),
            up_at: at_ms(900),
        },
        DownWindow {
            down_at: at_ms(1800),
            up_at: at_ms(1950),
        },
    ];
    let retry = RetryPolicy::new(ms(50), 3, ms(2)).expect("positive timeout");
    let all_on = ResilienceConfig {
        admission: Some(AdmissionConfig {
            rate_rps: 1100.0,
            burst: 40.0,
            low_reserve: 6.0,
            low_fraction: 0.3,
        }),
        retry_budget: Some(RetryBudgetConfig {
            ratio: 0.1,
            initial: 4.0,
            cap: 32.0,
        }),
        breaker: Some(BreakerConfig {
            failure_threshold: 3,
            open_for: ms(30),
            jitter: 0.25,
            half_open_probes: 1,
        }),
    };
    let (stats, res) = run_open_loop_resilient(
        spec(),
        &mut mixed,
        1200.0,
        &profile,
        200,
        3000,
        23,
        &outages,
        &retry,
        &all_on,
    );
    assert!(res.shed() > 0 && res.breaker_trips > 0 && res.breaker_fast_fails > 0);
    assert!(res.retries_spent > 0 && stats.faults.dropped > 0);
    pin(
        "resilient/all-on",
        resilient_case(&stats, &res),
        (0xd1e9708f9b6e3900, Some(0x06e815d20260ecb0)),
    );
    let (stats, res) = run_open_loop_resilient(
        spec(),
        &mut mixed,
        900.0,
        &profile,
        200,
        3000,
        24,
        &outages,
        &retry,
        &ResilienceConfig::disabled(),
    );
    pin(
        "resilient/outages-only",
        resilient_case(&stats, &res),
        (0x69181a7b92a240ad, Some(0x7a3ea6af2a342450)),
    );
    let (stats, res) = run_open_loop_resilient(
        spec(),
        &mut mixed,
        900.0,
        &RateProfile::constant(),
        200,
        3000,
        19,
        &[],
        &RetryPolicy::none(),
        &ResilienceConfig::disabled(),
    );
    pin(
        "resilient/disabled",
        resilient_case(&stats, &res),
        (0x3547d26a940d75f1, Some(0xa001e6a2e1cc058f)),
    );
}

fn cluster(servers: u32, dispatch: Dispatch) -> Cluster {
    Cluster {
        dispatch,
        scaleout_overhead: 0.05,
        ..Cluster::ideal(ServerSpec::new(1), servers).expect("non-empty cluster")
    }
}

#[test]
fn cluster_dispatch_policies() {
    for (name, dispatch, want) in [
        (
            "cluster/round-robin",
            Dispatch::RoundRobin,
            (0x0d9ac254306e773c, Some(0x3cf523ec17ed9a6e)),
        ),
        (
            "cluster/least-loaded",
            Dispatch::LeastLoaded,
            (0x14f5116a6e6a89c2, Some(0x44a2061eca683aae)),
        ),
        (
            "cluster/random",
            Dispatch::Random,
            (0xe914d8c87f5d2a80, Some(0x3cf523ec17ed9a6e)),
        ),
    ] {
        let stats = cluster(4, dispatch)
            .run_closed_loop(&mut mixed, 12, 200, 3000, 25)
            .expect("valid run");
        pin(name, run_case(&stats), want);
    }
}

#[test]
fn cluster_shapes() {
    let stats = cluster(3, Dispatch::RoundRobin)
        .run_closed_loop(&mut shapes(), 9, 30, 900, 26)
        .expect("valid run");
    pin(
        "cluster/shapes",
        run_case(&stats),
        (0x914ca18003c4f250, Some(0xe99cca3f76360428)),
    );
}

#[test]
fn one_server_cluster_is_not_a_server_sim() {
    let one = Cluster::ideal(spec(), 1).expect("non-empty cluster");
    let stats = one
        .run_closed_loop(&mut mixed, 6, 200, 3000, 11)
        .expect("valid run");
    pin(
        "cluster/one-server",
        run_case(&stats),
        (0x024d30bec247f290, Some(0x3fc638bd1d7d08e5)),
    );
    let sim = ServerSim::new(spec()).run_closed_loop(&mut mixed, 6, 200, 3000, 11);
    assert_ne!(
        digest_a(|d| d.run_stats(&stats)),
        digest_a(|d| d.run_stats(&sim)),
        "a one-server cluster draws its own dispatch stream"
    );
}

fn flapping_plan(servers: usize, seed: u64) -> ClusterFaults {
    let flap = FaultProcess::exponential(ms(300), ms(25)).expect("positive rates");
    ClusterFaults::from_processes(&vec![flap; servers], SimDuration::from_secs(20), seed)
}

#[test]
fn cluster_faulted() {
    let retry = RetryPolicy::new(ms(6), 2, ms(1)).expect("positive timeout");
    for (name, dispatch, want) in [
        (
            "faulted/round-robin",
            Dispatch::RoundRobin,
            (0xbaa5532ba3d86932, Some(0xb07db1c79bb9c881)),
        ),
        (
            "faulted/least-loaded",
            Dispatch::LeastLoaded,
            (0x61e43d52ce9f4813, Some(0x01e8a860cb5e8a0a)),
        ),
        (
            "faulted/random",
            Dispatch::Random,
            (0x054a95a9b2523774, Some(0x6befedf5f718e515)),
        ),
    ] {
        let stats = cluster(4, dispatch)
            .run_closed_loop_faulted(&mut mixed, 16, 200, 4000, 27, &flapping_plan(4, 5), &retry)
            .expect("valid run");
        assert!(
            stats.faults.timeouts > 0 && stats.faults.retries > 0,
            "{name}"
        );
        pin(name, run_case(&stats), want);
    }
    // Both servers down together: work parks at the dispatcher.
    let mut plan = ClusterFaults::fail_free();
    for srv in 0..2 {
        plan.set_windows(
            srv,
            vec![DownWindow {
                down_at: at_ms(100),
                up_at: at_ms(300),
            }],
        );
    }
    let retry = RetryPolicy::new(ms(400), 4, ms(1)).expect("positive timeout");
    let stats = cluster(2, Dispatch::LeastLoaded)
        .run_closed_loop_faulted(&mut fixed, 6, 50, 1500, 28, &plan, &retry)
        .expect("valid run");
    assert!(stats.faults.retries > 0);
    pin(
        "faulted/whole-outage",
        run_case(&stats),
        (0x504a59d104833ab9, Some(0x0e4f2b55cc261ef6)),
    );
}
