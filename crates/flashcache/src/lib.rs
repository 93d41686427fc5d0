//! Flash-based disk caching with low-power disks (Section 3.5 / Table 3).
//!
//! The paper replaces each server's local desktop disk with a low-power
//! laptop disk on a basic SATA SAN, and recovers the lost performance
//! with a 1 GB NAND flash disk cache on the server board (following Kgil
//! and Mudge's FlashCache design): recently accessed pages are kept in
//! flash, looked up through a software hash table on every page-cache
//! miss.
//!
//! This crate implements:
//!
//! * [`cache`] — the flash cache itself: extent-granularity entries
//!   keyed by extent number, clock eviction, write-back behaviour, and
//!   wear (program/erase) accounting against the paper's 100k-cycle
//!   endurance limit,
//! * [`system`] — the storage system model: disk + optional flash,
//!   replaying a workload's block trace to an effective per-IO service
//!   time,
//! * [`study`] — the Table 3(b) experiment: local desktop disk vs remote
//!   laptop disk vs remote laptop + flash vs cheaper laptop-2 + flash,
//!   measured on the `emb1` platform.
//!
//! # Example
//! ```
//! use wcs_flashcache::system::StorageSystem;
//! use wcs_platforms::storage::{DiskModel, FlashModel};
//! use wcs_workloads::{disktrace, WorkloadId};
//!
//! let mut sys = StorageSystem::with_flash(DiskModel::laptop_remote(), FlashModel::table3());
//! let params = disktrace::params_for(WorkloadId::Ytube);
//! let stats = sys.replay_trace(params, &disktrace::materialize(params, 1, 50_000));
//! assert!(stats.hit_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod ftl;
pub mod memo;
pub mod study;
pub mod system;
