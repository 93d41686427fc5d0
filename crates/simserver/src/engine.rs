//! Server capacity, run statistics, and the closed-loop simulator.

use wcs_simcore::event::QueueObs;
use wcs_simcore::obs::Registry;
use wcs_simcore::stats::Histogram;
use wcs_simcore::SimDuration;

use crate::cluster::ClosedLoop;
use crate::failover::{ClusterFaults, FaultStats};
use crate::request::{RequestSource, Resource};

/// Capacity description of the simulated server: how many parallel servers
/// each station has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServerSpec {
    /// CPU cores (parallel servers at the CPU station).
    pub cores: u32,
    /// Parallel servers at the memory station (1 for a shared admission
    /// path).
    pub memory_channels: u32,
    /// Parallel disk spindles.
    pub disks: u32,
    /// Parallel NICs.
    pub nics: u32,
}

impl ServerSpec {
    /// A server with `cores` cores and single-channel memory, disk, and
    /// NIC stations.
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "server needs at least one core");
        ServerSpec {
            cores,
            memory_channels: 1,
            disks: 1,
            nics: 1,
        }
    }

    pub(crate) fn servers_at(&self, r: Resource) -> u32 {
        match r {
            Resource::Cpu => self.cores,
            Resource::Memory => self.memory_channels,
            Resource::Disk => self.disks,
            Resource::Net => self.nics,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Number of requests completed inside the measurement window.
    pub completed: u64,
    /// Length of the measurement window.
    pub window: SimDuration,
    /// End-to-end latency histogram (seconds) over requests completing
    /// after warmup.
    pub latency: Histogram,
    /// Per-resource busy fraction during the whole run, indexed by
    /// [`Resource::index`]. For multi-server stations this is normalized
    /// by the server count (1.0 = all servers busy all the time).
    pub utilization: [f64; 4],
    /// Fault-side accounting (timeouts, retries, drops, offered count).
    /// All-zero for fault-free single-server runs.
    pub faults: FaultStats,
    /// Event-queue occupancy counters for the run — scheduling volume,
    /// same-instant fast-path hits, and the pending-event high-water
    /// mark. A pure function of the simulated event stream.
    pub queue: QueueObs,
}

impl RunStats {
    /// Records this run's deterministic series — event-queue occupancy
    /// (`queue.*`) and fault accounting (`faults.*`) — into `registry`.
    pub fn export_obs(&self, registry: &Registry) {
        self.queue.export(registry);
        registry
            .counter("faults.timeouts")
            .add(self.faults.timeouts);
        registry.counter("faults.retries").add(self.faults.retries);
        registry.counter("faults.dropped").add(self.faults.dropped);
        registry.counter("faults.offered").add(self.faults.offered);
        registry
            .counter("recovery.plan_skipped")
            .add(self.faults.plan_skipped);
    }

    /// Sustained throughput over the measurement window, requests/second.
    pub fn throughput_rps(&self) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.window.as_secs_f64()
        }
    }

    /// Goodput: successfully completed requests per second. The same as
    /// [`throughput_rps`](Self::throughput_rps); the alias exists so
    /// fault-aware reports read naturally against
    /// [`offered_rps`](Self::offered_rps).
    pub fn goodput_rps(&self) -> f64 {
        self.throughput_rps()
    }

    /// Offered throughput: requests *resolved* per second, counting both
    /// completions and drops. Falls back to goodput when the run did not
    /// track offered load (plain single-server runs).
    pub fn offered_rps(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        let offered = self.faults.offered.max(self.completed);
        offered as f64 / self.window.as_secs_f64()
    }

    /// The busiest resource and its utilization.
    pub fn bottleneck(&self) -> (Resource, f64) {
        let mut best = (Resource::Cpu, self.utilization[0]);
        for r in Resource::ALL {
            if self.utilization[r.index()] > best.1 {
                best = (r, self.utilization[r.index()]);
            }
        }
        best
    }
}

/// The closed-loop discrete-event server simulator.
///
/// See the crate docs for the model. A `ServerSim` is cheap to construct;
/// each [`run_closed_loop`](ServerSim::run_closed_loop) call is an
/// independent, deterministic run for the seed it is given.
#[derive(Debug, Clone)]
pub struct ServerSim {
    spec: ServerSpec,
}

impl ServerSim {
    /// Creates a simulator for the given server capacity.
    pub fn new(spec: ServerSpec) -> Self {
        ServerSim { spec }
    }

    /// Runs `n_clients` closed-loop clients (zero think time) until
    /// `warmup + measured` requests have completed, then reports
    /// statistics over the measured portion.
    ///
    /// Deterministic for a given `(source, seed)` pair.
    ///
    /// # Panics
    /// Panics if `n_clients` or `measured` is zero.
    pub fn run_closed_loop(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
    ) -> RunStats {
        assert!(n_clients > 0, "need at least one client");
        assert!(measured > 0, "need a measurement window");
        // A lone server: no dispatcher stream, no demand inflation, no
        // faults.
        ClosedLoop::new(source, seed, 1, warmup + measured).run(
            self.spec,
            n_clients,
            warmup,
            &ClusterFaults::fail_free(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Stage;
    use wcs_simcore::SimRng;

    fn cpu_only(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |_rng| vec![Stage::new(Resource::Cpu, SimDuration::from_micros(us))]
    }

    #[test]
    fn single_client_single_core_throughput() {
        // 1 ms per request, one client: exactly 1000 RPS.
        let sim = ServerSim::new(ServerSpec::new(1));
        let stats = sim.run_closed_loop(&mut cpu_only(1000), 1, 100, 2000, 1);
        let rps = stats.throughput_rps();
        assert!((rps - 1000.0).abs() < 1.0, "rps {rps}");
    }

    #[test]
    fn two_cores_double_throughput() {
        let sim1 = ServerSim::new(ServerSpec::new(1));
        let sim2 = ServerSim::new(ServerSpec::new(2));
        let r1 = sim1
            .run_closed_loop(&mut cpu_only(1000), 4, 100, 2000, 1)
            .throughput_rps();
        let r2 = sim2
            .run_closed_loop(&mut cpu_only(1000), 4, 100, 2000, 1)
            .throughput_rps();
        assert!((r2 / r1 - 2.0).abs() < 0.05, "speedup {}", r2 / r1);
    }

    #[test]
    fn latency_grows_with_clients_on_saturated_core() {
        let sim = ServerSim::new(ServerSpec::new(1));
        let one = sim.run_closed_loop(&mut cpu_only(1000), 1, 100, 1000, 3);
        let eight = sim.run_closed_loop(&mut cpu_only(1000), 8, 100, 1000, 3);
        let p95_1 = one.latency.percentile(95.0).unwrap();
        let p95_8 = eight.latency.percentile(95.0).unwrap();
        assert!(p95_8 > 6.0 * p95_1, "p95 {p95_1} vs {p95_8}");
        // Throughput cannot exceed capacity.
        assert!(eight.throughput_rps() < 1010.0);
    }

    #[test]
    fn serial_pipeline_throughput_is_min_capacity() {
        // CPU 1 ms + disk 2 ms: with plenty of clients the disk (500/s)
        // limits throughput.
        let mut src = |_rng: &mut SimRng| {
            vec![
                Stage::new(Resource::Cpu, SimDuration::from_micros(1000)),
                Stage::new(Resource::Disk, SimDuration::from_micros(2000)),
            ]
        };
        let sim = ServerSim::new(ServerSpec::new(4));
        let stats = sim.run_closed_loop(&mut src, 16, 200, 3000, 5);
        let rps = stats.throughput_rps();
        assert!((rps - 500.0).abs() < 10.0, "rps {rps}");
        let (bottleneck, util) = stats.bottleneck();
        assert_eq!(bottleneck, Resource::Disk);
        assert!(util > 0.9);
    }

    #[test]
    fn single_client_latency_is_sum_of_services() {
        let mut src = |_rng: &mut SimRng| {
            vec![
                Stage::new(Resource::Cpu, SimDuration::from_micros(300)),
                Stage::new(Resource::Net, SimDuration::from_micros(700)),
            ]
        };
        let sim = ServerSim::new(ServerSpec::new(1));
        let stats = sim.run_closed_loop(&mut src, 1, 10, 500, 9);
        let p95 = stats.latency.percentile(95.0).unwrap();
        assert!((p95 - 1e-3).abs() < 5e-5, "p95 {p95}");
        assert!((stats.throughput_rps() - 1000.0).abs() < 5.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let sim = ServerSim::new(ServerSpec::new(2));
        let mut jitter = |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(800)),
            )]
        };
        let a = sim.run_closed_loop(&mut jitter, 3, 50, 500, 42);
        let mut jitter2 = |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(800)),
            )]
        };
        let b = sim.run_closed_loop(&mut jitter2, 3, 50, 500, 42);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.window, b.window);
    }

    #[test]
    fn empty_requests_complete() {
        let mut src = |_rng: &mut SimRng| Vec::new();
        let sim = ServerSim::new(ServerSpec::new(1));
        let stats = sim.run_closed_loop(&mut src, 2, 10, 100, 1);
        assert_eq!(stats.completed, 100);
    }

    #[test]
    fn utilization_bounded_by_one() {
        let sim = ServerSim::new(ServerSpec::new(2));
        let stats = sim.run_closed_loop(&mut cpu_only(500), 8, 100, 2000, 11);
        for u in stats.utilization {
            assert!((0.0..=1.0001).contains(&u), "util {u}");
        }
        assert!(stats.utilization[Resource::Cpu.index()] > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn rejects_zero_clients() {
        let sim = ServerSim::new(ServerSpec::new(1));
        sim.run_closed_loop(&mut cpu_only(1), 0, 1, 1, 1);
    }
}
