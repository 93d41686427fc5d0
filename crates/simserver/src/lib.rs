//! Queueing-network server performance simulator.
//!
//! This crate plays the role the COTSon full-system simulator plays in the
//! paper: given a platform and a workload, it produces the sustainable
//! throughput under the workload's QoS bound.
//!
//! A server is modelled as four service stations:
//!
//! * **CPU** — an `m`-server FCFS queue (`m` = hardware cores),
//! * **Memory** — a single-server station modelling capacity-driven
//!   admission work (buffer-cache churn, index residency),
//! * **Disk** and **NIC** — single-server FCFS queues.
//!
//! A request visits stations in a workload-defined stage sequence. Clients
//! are **closed-loop**: `n` concurrent clients each keep exactly one
//! request in flight, mirroring the paper's client driver, which "adapts
//! the number of simultaneous clients according to recently observed QoS
//! results, to achieve the highest level of throughput without
//! overloading the servers". [`driver::find_max_throughput`] performs that
//! adaptation as a series of closed-loop probes: it doubles the client
//! count from one until a probe misses the QoS bound (a latency
//! percentile, e.g. p95) or stops raising throughput. A QoS miss is then
//! bisected down to one client; a throughput plateau ends the search. It
//! reports the highest QoS-passing throughput it measured.
//!
//! # Example
//! ```
//! use wcs_simcore::{SimDuration, SimRng};
//! use wcs_simserver::{Resource, ServerSpec, Stage, ServerSim, RequestSource};
//!
//! struct Fixed;
//! impl RequestSource for Fixed {
//!     fn next_request(&mut self, _rng: &mut SimRng, stages: &mut Vec<Stage>) {
//!         stages.push(Stage::new(Resource::Cpu, SimDuration::from_micros(500)));
//!     }
//! }
//!
//! let spec = ServerSpec::new(2); // two cores
//! let stats = ServerSim::new(spec).run_closed_loop(&mut Fixed, 4, 100, 1000, 7);
//! assert!(stats.throughput_rps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cluster;
pub mod driver;
mod engine;
pub mod failover;
mod kernel;
pub mod openloop;
mod request;
pub mod resilience;
pub mod tracing;

pub use batch::{run_batch, BatchResult};
pub use cluster::{Cluster, Dispatch};
pub use driver::{find_max_throughput, QosSpec, ThroughputResult};
pub use engine::{RunStats, ServerSim, ServerSpec};
pub use failover::{ClusterFaults, FaultStats, RetryPolicy};
pub use openloop::{run_open_loop, run_open_loop_profiled, run_open_loop_resilient, RateProfile};
pub use request::{RequestSource, Resource, Stage};
pub use resilience::{
    AdmissionConfig, BreakerConfig, CircuitBreaker, Priority, ResilienceConfig, ResilienceStats,
    RetryBudget, RetryBudgetConfig, TokenBucket,
};
pub use tracing::{trace_closed_loop, RequestTrace, StageVisit};
