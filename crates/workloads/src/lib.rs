//! The warehouse-computing benchmark suite (Table 1 of the paper).
//!
//! Five workloads model the paper's four services:
//!
//! | workload    | emphasizes                  | metric          |
//! |-------------|-----------------------------|-----------------|
//! | `websearch` | unstructured data (Nutch)   | RPS w/ QoS      |
//! | `webmail`   | interactive web2.0 services | RPS w/ QoS      |
//! | `ytube`     | rich media streaming        | RPS w/ QoS      |
//! | `mapred-wc` | web as a platform (Hadoop)  | execution time  |
//! | `mapred-wr` | web as a platform (Hadoop)  | execution time  |
//!
//! Each workload is a **demand model**: per-request CPU GHz-seconds,
//! exposed disk IOs and bytes, network bytes, a memory-capacity admission
//! demand, a cache working set with a sensitivity exponent, and a
//! software-scalability factor. [`service::PlatformDemand`] turns a
//! demand model plus a platform into the stage service times the
//! simulator consumes; [`perf::measure_perf`] produces the workload's
//! performance metric on a platform.
//!
//! The demand constants are *calibrated*: the paper's own performance
//! numbers come from full-system simulation of the real software stacks,
//! which we cannot run. The constants in [`suite`] were fitted once
//! against the published relative-performance grid of Figure 2(c) and
//! are frozen thereafter; every downstream experiment (memory blade,
//! flash cache, unified designs) consumes them unchanged. They are
//! *effective* demands: overlap achieved by the real stack (e.g. Hadoop's
//! I/O-compute overlap) is folded into the exposed per-request demand.
//!
//! The crate also generates the memory page traces ([`memtrace`]) and
//! disk block traces ([`disktrace`]) that the memory-blade and
//! flash-cache studies replay.
//!
//! Beyond the closed paper suite, the workload layer is **open**: the
//! [`registry`] resolves interned [`registry::WorkloadKey`] names to
//! registered workloads (the five paper benchmarks are built-in
//! registrations, joined by the [`faas`] and [`dag`] families), and a
//! [`scenario::ScenarioSpec`] pairs a workload with a
//! [`scenario::TrafficPack`] arrival process — steady, diurnal,
//! flash-crowd, or failover-surge.
//!
//! # Example
//! ```
//! use wcs_platforms::{catalog, PlatformId};
//! use wcs_workloads::{suite, WorkloadId, perf::{measure_perf, MeasureConfig}};
//!
//! let wl = suite::workload(WorkloadId::MapredWc);
//! let cfg = MeasureConfig::quick();
//! let perf = measure_perf(&wl, &catalog::platform(PlatformId::Emb1), &cfg).unwrap();
//! assert!(perf.value > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod dag;
pub mod disktrace;
pub mod diurnal;
pub mod faas;
pub mod memtrace;
pub mod perf;
pub mod registry;
pub mod scenario;
pub mod service;
mod spec;
pub mod suite;
pub mod tracefile;

pub use registry::WorkloadKey;
pub use scenario::{ScenarioSpec, TrafficPack};
pub use spec::{DemandParams, Metric, Workload, WorkloadId};
