//! Component and platform catalog for warehouse-computing server designs.
//!
//! This crate is the data backbone of the suite: it defines models for
//! every hardware component the ISCA 2008 paper's cost and performance
//! studies touch — CPUs, memory technologies, disks, flash, NICs, boards —
//! and assembles them into the six platforms of Table 2 (`srvr1`, `srvr2`,
//! `desk`, `mobl`, `emb1`, `emb2`).
//!
//! Cost and power numbers for `srvr1`/`srvr2` are the paper's own
//! (Figure 1(a)); storage parameters are Table 3(a); the component-level
//! splits for the four consumer platforms are our estimates constrained to
//! reproduce the paper's published per-platform totals (Table 2's `Watt`
//! and `Inf-$` columns) exactly.
//!
//! # Example
//! ```
//! use wcs_platforms::{catalog, PlatformId};
//! let srvr1 = catalog::platform(PlatformId::Srvr1);
//! assert_eq!(srvr1.cpu.total_cores(), 8);
//! assert!((srvr1.hardware_cost_usd() - 3225.0).abs() < 1.0);
//! assert!((srvr1.max_power_w() - 340.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod component;
mod cpu;
pub mod future;
mod memory;
mod net;
mod platform;
pub mod storage;

pub use component::{BomItem, Component};
pub use cpu::{CpuModel, Microarch};
pub use memory::{MemoryConfig, MemoryTech};
pub use net::NicModel;
pub use platform::{ParsePlatformError, Platform, PlatformId};
pub use storage::{DiskLocation, DiskModel, FlashModel};
