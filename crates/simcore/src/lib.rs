//! Discrete-event simulation substrate for the warehouse-computing suite.
//!
//! This crate provides the building blocks that every simulator in the
//! workspace is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   event ordering is exact and runs are bit-reproducible,
//! * [`EventQueue`] — a deterministic future-event list with FIFO tie
//!   breaking,
//! * [`SimRng`] — a seedable deterministic random-number generator,
//! * [`dist`] — the distributions the benchmark suite needs (exponential,
//!   log-normal, Zipf),
//! * [`stats`] — online statistics and latency histograms with percentile
//!   queries.
//!
//! # Example
//!
//! Run a tiny M/M/1-style arrival process and measure the mean gap:
//!
//! ```
//! use wcs_simcore::{EventQueue, SimTime, SimRng, dist::{Distribution, Exp}};
//! use wcs_simcore::stats::OnlineStats;
//!
//! let mut q = EventQueue::new();
//! let mut rng = SimRng::seed_from(42);
//! let iat = Exp::new(1e-6).expect("positive rate"); // 1 event/us on average
//! let mut t = SimTime::ZERO;
//! for i in 0..100 {
//!     t = t + iat.sample_duration(&mut rng);
//!     q.schedule(t, i);
//! }
//! let mut stats = OnlineStats::new();
//! let mut last = SimTime::ZERO;
//! while let Some((when, _id)) = q.pop() {
//!     stats.record((when - last).as_nanos() as f64);
//!     last = when;
//! }
//! assert!(stats.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
mod rng;
mod time;

pub mod dist;
pub mod error;
pub mod faults;
pub mod intern;
pub mod journal;
pub mod memo;
pub mod obs;
pub mod pool;
pub mod service;
pub mod slotcache;
pub mod stats;
pub mod table;
pub mod watchdog;

pub use error::ConfigError;
pub use event::EventQueue;
pub use obs::Registry;
pub use pool::ThreadPool;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
