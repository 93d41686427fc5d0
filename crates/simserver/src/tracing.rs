//! Per-request tracing: capture a run's request timeline for inspection.
//!
//! The aggregate [`RunStats`](crate::RunStats) answer "how fast"; traces
//! answer "why": where each request spent its time, station by station.
//! Tracing is the closed loop of [`ServerSim`](crate::ServerSim) with a
//! recorder hooked into every station visit, so it is opt-in and meant
//! for small diagnostic runs.

use wcs_simcore::{SimDuration, SimTime};

use crate::cluster::{ClosedLoop, Recorder};
use crate::engine::ServerSpec;
use crate::failover::ClusterFaults;
use crate::request::{RequestSource, Resource};

/// One stage visit in a request's life.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StageVisit {
    /// The station.
    pub resource: Resource,
    /// Time spent queued before service began.
    pub queued: SimDuration,
    /// Service time.
    pub service: SimDuration,
}

/// One traced request.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RequestTrace {
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// The visits, in order.
    pub visits: Vec<StageVisit>,
}

impl RequestTrace {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_sub(self.arrived)
    }

    /// Total time spent waiting in queues.
    pub fn total_queued(&self) -> SimDuration {
        self.visits
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc + v.queued)
    }

    /// Total service time.
    pub fn total_service(&self) -> SimDuration {
        self.visits
            .iter()
            .fold(SimDuration::ZERO, |acc, v| acc + v.service)
    }

    /// The station where the request queued longest, if it queued at all.
    pub fn worst_queue(&self) -> Option<Resource> {
        self.visits
            .iter()
            .filter(|v| !v.queued.is_zero())
            .max_by_key(|v| v.queued)
            .map(|v| v.resource)
    }
}

/// Records each completed request's timeline, up to `traced` of them.
struct Tracer {
    traces: Vec<RequestTrace>,
    traced: usize,
}

impl Recorder for Tracer {
    type Slot = Vec<StageVisit>;

    fn on_start(
        visits: &mut Vec<StageVisit>,
        resource: Resource,
        queued: SimDuration,
        service: SimDuration,
    ) {
        visits.push(StageVisit {
            resource,
            queued,
            service,
        });
    }

    fn on_complete(&mut self, arrived: SimTime, visits: Vec<StageVisit>, completed: SimTime) {
        if self.traces.len() < self.traced {
            self.traces.push(RequestTrace {
                arrived,
                completed,
                visits,
            });
        }
    }
}

/// Runs a closed loop like
/// [`ServerSim::run_closed_loop`](crate::ServerSim::run_closed_loop) but
/// returns the full per-request timeline of the first `traced` completed
/// requests.
///
/// # Panics
/// Panics if `n_clients` or `traced` is zero.
pub fn trace_closed_loop(
    spec: ServerSpec,
    source: &mut dyn RequestSource,
    n_clients: u32,
    traced: u64,
    seed: u64,
) -> Vec<RequestTrace> {
    assert!(n_clients > 0, "need at least one client");
    assert!(traced > 0, "need requests to trace");
    let tracer = Tracer {
        traces: Vec::with_capacity(traced as usize),
        traced: traced as usize,
    };
    let clients = ClosedLoop::new(source, seed, 1, traced, tracer);
    clients
        .run(spec, n_clients, 0, &ClusterFaults::fail_free())
        .2
        .traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Stage;
    use wcs_simcore::SimRng;

    fn fixed(us_cpu: u64, us_disk: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |_rng| {
            vec![
                Stage::new(Resource::Cpu, SimDuration::from_micros(us_cpu)),
                Stage::new(Resource::Disk, SimDuration::from_micros(us_disk)),
            ]
        }
    }

    #[test]
    fn uncongested_requests_never_queue() {
        let traces = trace_closed_loop(ServerSpec::new(2), &mut fixed(100, 200), 1, 50, 1);
        assert_eq!(traces.len(), 50);
        for t in &traces {
            assert_eq!(t.total_queued(), SimDuration::ZERO);
            assert_eq!(t.latency(), SimDuration::from_micros(300));
            assert_eq!(t.visits.len(), 2);
            assert!(t.worst_queue().is_none());
        }
    }

    #[test]
    fn congestion_shows_up_at_the_bottleneck() {
        // 8 clients on one core: CPU queues dominate.
        let traces = trace_closed_loop(ServerSpec::new(1), &mut fixed(500, 50), 8, 200, 3);
        let queued: Vec<_> = traces
            .iter()
            .filter(|t| !t.total_queued().is_zero())
            .collect();
        assert!(queued.len() > 150, "most requests queue ({})", queued.len());
        let cpu_worst = queued
            .iter()
            .filter(|t| t.worst_queue() == Some(Resource::Cpu))
            .count();
        assert!(cpu_worst * 10 > queued.len() * 9, "CPU is the bottleneck");
    }

    #[test]
    fn latency_decomposes_into_queue_plus_service() {
        let traces = trace_closed_loop(ServerSpec::new(1), &mut fixed(300, 100), 4, 100, 7);
        for t in &traces {
            let sum = t.total_queued() + t.total_service();
            assert_eq!(sum, t.latency(), "decomposition must be exact");
        }
    }

    #[test]
    fn visit_order_matches_stage_order() {
        let traces = trace_closed_loop(ServerSpec::new(2), &mut fixed(10, 20), 2, 20, 9);
        for t in &traces {
            assert_eq!(t.visits[0].resource, Resource::Cpu);
            assert_eq!(t.visits[1].resource, Resource::Disk);
        }
    }

    #[test]
    #[should_panic(expected = "requests to trace")]
    fn rejects_zero_traced() {
        trace_closed_loop(ServerSpec::new(1), &mut fixed(1, 1), 1, 0, 1);
    }
}
