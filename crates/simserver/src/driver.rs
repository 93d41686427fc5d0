//! The adaptive client driver: find the highest sustainable throughput
//! that still meets the workload's QoS bound.

use std::fmt;

use wcs_simcore::event::QueueObs;
use wcs_simcore::SimDuration;

use crate::engine::{RunStats, ServerSim};
use crate::request::{RequestSource, Resource};

/// A quality-of-service requirement, e.g. websearch's ">95% of queries
/// take <0.5 seconds" (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QosSpec {
    /// The percentile that must meet the bound (e.g. 95.0).
    pub percentile: f64,
    /// The latency bound.
    pub bound: SimDuration,
}

impl QosSpec {
    /// Creates a QoS spec.
    ///
    /// # Panics
    /// Panics unless `percentile` is in `(0, 100)` and the bound is
    /// non-zero.
    pub fn new(percentile: f64, bound: SimDuration) -> Self {
        assert!(
            percentile > 0.0 && percentile < 100.0,
            "percentile must be in (0, 100)"
        );
        assert!(!bound.is_zero(), "QoS bound must be positive");
        QosSpec { percentile, bound }
    }

    /// True when the run's latencies meet this bound.
    pub fn met_by(&self, stats: &RunStats) -> bool {
        match stats.latency.percentile(self.percentile) {
            Some(p) => p <= self.bound.as_secs_f64(),
            None => false,
        }
    }
}

/// Error: the QoS bound cannot be met even with a single client — the
/// platform is simply too slow for the workload's latency requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct QosInfeasible {
    /// p-th percentile latency observed with one client, in seconds.
    pub single_client_latency: f64,
    /// The bound that was violated, in seconds.
    pub bound: f64,
}

impl fmt::Display for QosInfeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QoS infeasible: single-client latency {:.4}s exceeds bound {:.4}s",
            self.single_client_latency, self.bound
        )
    }
}

impl std::error::Error for QosInfeasible {}

/// Result of the adaptive throughput search.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Highest sustainable throughput meeting the QoS, requests/second.
    pub rps: f64,
    /// Client count at which it was achieved.
    pub clients: u32,
    /// Latency at the QoS percentile at that operating point, seconds.
    pub latency_at_qos: f64,
    /// The busiest resource at that operating point.
    pub bottleneck: Resource,
    /// Utilization of the bottleneck resource.
    pub bottleneck_utilization: f64,
    /// Event-queue occupancy accumulated over *every* probe run of the
    /// search (ramp, refinement, and the returned operating point). The
    /// probe sequence is a pure function of the inputs, so these
    /// counters are deterministic and can be recorded as exact-class
    /// observability series.
    pub queue: QueueObs,
}

/// Tuning parameters for the search.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Warmup requests discarded per run.
    pub warmup: u64,
    /// Measured requests per run.
    pub measured: u64,
    /// Hard cap on the client count explored.
    pub max_clients: u32,
    /// Base RNG seed; each probe run derives its seed from this.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            warmup: 500,
            measured: 4000,
            max_clients: 4096,
            seed: 0xC0F_FEE,
        }
    }
}

/// Finds the maximum sustainable throughput under `qos`, mirroring the
/// paper's adaptive client driver, which adapts the number of clients
/// "to achieve the highest level of throughput without overloading the
/// servers" (Section 2.1).
///
/// Each probe is one closed-loop run of `config.warmup +
/// config.measured` requests from an empty system, seeded from
/// `config.seed` and the client count. `make_source` is called once per
/// probe so every run sees an identically distributed, independent
/// request stream. [`search_clients`] chooses the client counts.
///
/// # Errors
/// Returns [`QosInfeasible`] when even a single closed-loop client
/// violates the bound.
pub fn find_max_throughput(
    sim: &ServerSim,
    make_source: &mut dyn FnMut() -> Box<dyn RequestSource>,
    qos: QosSpec,
    config: SearchConfig,
) -> Result<ThroughputResult, QosInfeasible> {
    let mut queue = QueueObs::default();
    let (clients, stats) = search_clients(qos, config.max_clients, &mut |n| {
        let mut source = make_source();
        let stats = sim.run_closed_loop(
            source.as_mut(),
            n,
            config.warmup,
            config.measured,
            config.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        queue = queue.merged(&stats.queue);
        stats
    })?;
    let (bottleneck, util) = stats.bottleneck();
    Ok(ThroughputResult {
        rps: stats.throughput_rps(),
        clients,
        latency_at_qos: stats.latency.percentile(qos.percentile).unwrap_or(f64::NAN),
        bottleneck,
        bottleneck_utilization: util,
        queue,
    })
}

/// The client-count search behind [`find_max_throughput`], over any
/// `probe` that runs the system at a given number of closed-loop
/// clients.
///
/// The search probes one client, then doubles the count. The ramp ends
/// at the first probe that fails `qos` or does not raise the best
/// throughput so far: past its knee a closed loop's throughput is flat
/// and more clients only queue. A QoS failure at `n` clients starts a
/// bisection between the last passing count and `n`, down to a gap of
/// one client; a plateau, or reaching `max_clients`, ends the search.
///
/// Returns the client count and run of the highest-throughput probe that
/// met `qos`; on a tie the earlier probe wins.
///
/// # Errors
/// Returns [`QosInfeasible`] when the single-client probe violates the
/// bound.
pub fn search_clients(
    qos: QosSpec,
    max_clients: u32,
    probe: &mut dyn FnMut(u32) -> RunStats,
) -> Result<(u32, RunStats), QosInfeasible> {
    let first = probe(1);
    if !qos.met_by(&first) {
        return Err(QosInfeasible {
            single_client_latency: first.latency.percentile(qos.percentile).unwrap_or(f64::NAN),
            bound: qos.bound.as_secs_f64(),
        });
    }

    let mut best = (1u32, first);
    let mut failed = None;
    let mut n = 2u32;
    while n <= max_clients {
        let stats = probe(n);
        if !qos.met_by(&stats) {
            failed = Some(n);
            break;
        }
        if stats.throughput_rps() > best.1.throughput_rps() {
            best = (n, stats);
            n = n.saturating_mul(2);
        } else {
            break;
        }
    }
    // Binary refinement between the last passing and first failing count.
    if let Some(mut hi) = failed {
        let mut lo = best.0;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let stats = probe(mid);
            if qos.met_by(&stats) {
                if stats.throughput_rps() > best.1.throughput_rps() {
                    best = (mid, stats);
                }
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerSpec;
    use crate::request::Stage;
    use wcs_simcore::SimRng;

    fn exp_cpu_source(mean_us: u64) -> Box<dyn RequestSource> {
        Box::new(move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(mean_us)),
            )]
        })
    }

    #[test]
    fn finds_near_capacity_throughput_with_loose_qos() {
        // 1 ms mean service on 2 cores = 2000 RPS capacity; a 100 ms
        // bound is loose, so the driver should get close.
        let sim = ServerSim::new(ServerSpec::new(2));
        let qos = QosSpec::new(95.0, SimDuration::from_millis(100));
        let res = find_max_throughput(
            &sim,
            &mut || exp_cpu_source(1000),
            qos,
            SearchConfig::default(),
        )
        .unwrap();
        assert!(res.rps > 1800.0, "rps {}", res.rps);
        assert!(res.rps < 2100.0, "rps {}", res.rps);
        assert_eq!(res.bottleneck, Resource::Cpu);
    }

    #[test]
    fn tight_qos_reduces_throughput() {
        let sim = ServerSim::new(ServerSpec::new(2));
        let loose = find_max_throughput(
            &sim,
            &mut || exp_cpu_source(1000),
            QosSpec::new(95.0, SimDuration::from_millis(100)),
            SearchConfig::default(),
        )
        .unwrap();
        // The original expectation (`tight.rps < loose.rps`, strictly)
        // was wrong: a tighter QoS can only *weakly* reduce sustainable
        // throughput. Per Section 2.1 the driver adapts the client count
        // to the highest throughput "without overloading the servers";
        // a closed-loop 2-core server saturates at 2 eager clients, so
        // both bounds can converge on the same saturated operating point
        // and tie exactly. The monotone property is `<=`, and the tight
        // result must additionally satisfy its own (tighter) bound.
        let tight = find_max_throughput(
            &sim,
            &mut || exp_cpu_source(1000),
            QosSpec::new(95.0, SimDuration::from_micros(4500)),
            SearchConfig::default(),
        )
        .unwrap();
        assert!(tight.rps <= loose.rps, "{} !<= {}", tight.rps, loose.rps);
        assert!(tight.latency_at_qos <= 4.5e-3);
    }

    #[test]
    fn infeasible_when_service_exceeds_bound() {
        let sim = ServerSim::new(ServerSpec::new(1));
        let mut make = || -> Box<dyn RequestSource> {
            Box::new(|_rng: &mut SimRng| {
                vec![Stage::new(Resource::Cpu, SimDuration::from_millis(10))]
            })
        };
        let err = find_max_throughput(
            &sim,
            &mut make,
            QosSpec::new(95.0, SimDuration::from_millis(1)),
            SearchConfig::default(),
        )
        .unwrap_err();
        assert!(err.single_client_latency > err.bound);
        assert!(err.to_string().contains("QoS infeasible"));
    }

    #[test]
    fn deterministic_search() {
        let sim = ServerSim::new(ServerSpec::new(2));
        let qos = QosSpec::new(95.0, SimDuration::from_millis(20));
        let a = find_max_throughput(
            &sim,
            &mut || exp_cpu_source(700),
            qos,
            SearchConfig::default(),
        )
        .unwrap();
        let b = find_max_throughput(
            &sim,
            &mut || exp_cpu_source(700),
            qos,
            SearchConfig::default(),
        )
        .unwrap();
        assert_eq!(a.rps, b.rps);
        assert_eq!(a.clients, b.clients);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn qos_rejects_bad_percentile() {
        QosSpec::new(100.0, SimDuration::from_millis(1));
    }
}
