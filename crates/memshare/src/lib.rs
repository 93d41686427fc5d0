//! Ensemble memory sharing: the PCIe-attached memory blade (Section 3.4).
//!
//! Multiple server blades connect to a shared memory blade over PCIe.
//! Each server keeps a small local memory; the blade provides a remote
//! pool accessed at page (4 KiB) granularity. A touch to a remote page
//! traps (TLB miss), the OS picks a local victim, and a DMA swap brings
//! the remote page in — an exclusive two-level hierarchy. The
//! critical-block-first (CBF) optimization resumes the faulting access as
//! soon as the needed cache block arrives instead of waiting for the
//! whole page.
//!
//! This crate contains:
//!
//! * [`policy`] — replacement policies over the local page store (LRU,
//!   random, clock),
//! * [`twolevel`] — the trace-driven two-level memory simulator,
//! * [`link`] — the PCIe/CBF latency model (4 us per 4 KiB page on PCIe
//!   2.0 x4; 0.75 us with CBF, plus a light-weight trap overhead),
//! * [`slowdown`] — converting miss rates into workload slowdowns
//!   (Figure 4(b)),
//! * [`provisioning`] — the static and dynamic capacity-provisioning
//!   cost/power schemes (Figure 4(c)).
//!
//! # Example
//! ```
//! use wcs_memshare::{twolevel::TwoLevelSim, policy::PolicyKind, link::RemoteLink};
//! use wcs_workloads::{memtrace, WorkloadId};
//!
//! let trace = memtrace::MemTraceBuf::generate(memtrace::params_for(WorkloadId::Webmail), 1, 200_000);
//! let mut sim = TwoLevelSim::new(10_000, PolicyKind::Random, 42);
//! let stats = sim.run_buf(&trace, 0, 200_000);
//! assert!(stats.miss_ratio() > 0.0);
//! let _lat = RemoteLink::pcie_x4().fault_latency_secs();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blade;
pub mod contention;
pub mod degraded;
pub mod directory;
pub mod ensemble;
pub mod hybrid;
pub mod link;
pub mod pageshare;
pub mod policy;
pub mod provisioning;
pub mod slowdown;
pub mod twolevel;
