//! Operational laws over many seeds, for every kind of run the station
//! kernel serves: closed loop, open loop, batch, and cluster.
//!
//! * **Utilization law** — each station's busy fraction equals
//!   throughput × per-request demand at that station ÷ its server count.
//! * **Little's law** (closed loops, zero think time) — the client count
//!   equals throughput × mean latency, since every client always has
//!   exactly one request in the system.
//!
//! Demand is measured from the requests the source actually hands out,
//! so the laws hold up to window-boundary effects only; the tolerances
//! below bound those effects for these run sizes.

use std::cell::RefCell;

use wcs_simcore::{SimDuration, SimRng};
use wcs_simserver::{
    run_batch, run_open_loop, Cluster, Dispatch, Resource, RunStats, ServerSim, ServerSpec, Stage,
};

/// Relative tolerance of the utilization law.
const UTIL_REL_TOL: f64 = 0.03;
/// Absolute slack of the utilization law, for nearly idle stations.
const UTIL_ABS_TOL: f64 = 0.005;
/// Relative tolerance of Little's law for closed loops.
const LITTLE_REL_TOL: f64 = 0.01;

const SEEDS: std::ops::Range<u64> = 0..8;

/// A three-station request; every stage's service is added to `demand`
/// (total seconds per station) and `requests` counts the draws.
#[derive(Default)]
struct Tally {
    demand: [f64; 4],
    requests: u64,
}

impl Tally {
    fn draw(&mut self, rng: &mut SimRng) -> Vec<Stage> {
        let mut stages = vec![Stage::new(
            Resource::Cpu,
            rng.exp_duration(SimDuration::from_micros(700)),
        )];
        if rng.chance(0.5) {
            stages.push(Stage::new(
                Resource::Disk,
                rng.exp_duration(SimDuration::from_micros(1200)),
            ));
        }
        stages.push(Stage::new(Resource::Net, SimDuration::from_micros(150)));
        for st in &stages {
            self.demand[st.resource.index()] += st.service.as_secs_f64();
        }
        self.requests += 1;
        stages
    }

    /// Mean demand per request at each station, in seconds.
    fn per_request(&self) -> [f64; 4] {
        self.demand.map(|d| d / self.requests as f64)
    }
}

fn spec() -> ServerSpec {
    ServerSpec {
        disks: 2,
        ..ServerSpec::new(2)
    }
}

fn servers(spec: ServerSpec, r: Resource) -> f64 {
    f64::from(match r {
        Resource::Cpu => spec.cores,
        Resource::Memory => spec.memory_channels,
        Resource::Disk => spec.disks,
        Resource::Net => spec.nics,
    })
}

#[track_caller]
fn assert_utilization_law(label: &str, util: &[f64; 4], rps: f64, demand: [f64; 4], m: [f64; 4]) {
    for r in Resource::ALL {
        let i = r.index();
        let want = rps * demand[i] / m[i];
        let got = util[i];
        assert!(
            (got - want).abs() <= UTIL_REL_TOL * want + UTIL_ABS_TOL,
            "{label}: {r} utilization {got:.4} vs throughput x demand {want:.4}"
        );
    }
}

#[track_caller]
fn assert_little(label: &str, clients: u32, stats: &RunStats) {
    let n = stats.throughput_rps() * stats.latency.mean();
    let want = f64::from(clients);
    assert!(
        (n - want).abs() <= LITTLE_REL_TOL * want,
        "{label}: throughput x mean latency {n:.3} vs {clients} clients"
    );
}

#[test]
fn closed_loop_obeys_the_operational_laws() {
    let m = Resource::ALL.map(|r| servers(spec(), r));
    for seed in SEEDS {
        let tally = RefCell::new(Tally::default());
        let mut source = |rng: &mut SimRng| tally.borrow_mut().draw(rng);
        let stats = ServerSim::new(spec()).run_closed_loop(&mut source, 6, 300, 4000, seed);
        let label = format!("closed seed {seed}");
        let demand = tally.borrow().per_request();
        assert_utilization_law(
            &label,
            &stats.utilization,
            stats.throughput_rps(),
            demand,
            m,
        );
        assert_little(&label, 6, &stats);
    }
}

#[test]
fn open_loop_obeys_the_utilization_law() {
    let m = Resource::ALL.map(|r| servers(spec(), r));
    for seed in SEEDS {
        let tally = RefCell::new(Tally::default());
        let mut source = |rng: &mut SimRng| tally.borrow_mut().draw(rng);
        let stats = run_open_loop(spec(), &mut source, 1800.0, 300, 6000, seed);
        let demand = tally.borrow().per_request();
        let label = format!("open seed {seed}");
        assert_utilization_law(
            &label,
            &stats.utilization,
            stats.throughput_rps(),
            demand,
            m,
        );
    }
}

#[test]
fn batch_obeys_the_utilization_law() {
    let m = Resource::ALL.map(|r| servers(spec(), r));
    for seed in SEEDS {
        let mut tally = Tally::default();
        let mut rng = SimRng::seed_from(seed);
        let tasks: Vec<Vec<Stage>> = (0..400).map(|_| tally.draw(&mut rng)).collect();
        let res = run_batch(spec(), tasks, 6);
        let rps = res.tasks as f64 / res.makespan.as_secs_f64();
        let label = format!("batch seed {seed}");
        assert_utilization_law(&label, &res.utilization, rps, tally.per_request(), m);
    }
}

#[test]
fn cluster_obeys_the_operational_laws() {
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::Random,
    ] {
        let cluster = Cluster {
            dispatch,
            scaleout_overhead: 0.05,
            ..Cluster::ideal(spec(), 3).expect("non-empty cluster")
        };
        let m = Resource::ALL.map(|r| servers(spec(), r) * 3.0);
        for seed in SEEDS {
            let tally = RefCell::new(Tally::default());
            let mut source = |rng: &mut SimRng| tally.borrow_mut().draw(rng);
            let stats = cluster
                .run_closed_loop(&mut source, 12, 300, 4000, seed)
                .expect("valid run");
            let demand = tally
                .borrow()
                .per_request()
                .map(|d| d * cluster.inflation());
            let label = format!("cluster {dispatch:?} seed {seed}");
            assert_utilization_law(
                &label,
                &stats.utilization,
                stats.throughput_rps(),
                demand,
                m,
            );
            assert_little(&label, 12, &stats);
        }
    }
}
