//! Failure-aware cluster configuration: outage plans, retry policy, and
//! the fault-side counters reported alongside [`RunStats`].
//!
//! Section 4 of the paper flags "reliability concerns of ensemble-level
//! sharing" as an open question for the proposed architectures. These
//! types let the cluster simulator answer it: a [`ClusterFaults`] plan
//! maps each server to a deterministic schedule of outages (from
//! [`wcs_simcore::faults`]), and a [`RetryPolicy`] describes how the
//! front-end reacts — per-request timeouts and bounded, backed-off
//! retries. With a fail-free plan and a no-op policy, the fault-aware
//! run is bit-identical to the plain one (pay for what you use).
//!
//! [`RunStats`]: crate::RunStats

use wcs_simcore::faults::{downtime, ComponentId, DownWindow, FaultInjector, FaultProcess};
use wcs_simcore::{ConfigError, SimDuration, SimTime};

/// How the dispatcher reacts when a request stalls or its server dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt timeout measured from dispatch; `None` disables
    /// timeouts entirely (attempts only fail when their server dies).
    pub timeout: Option<SimDuration>,
    /// Maximum number of retries per logical request; the request is
    /// dropped once an attempt beyond this budget fails.
    pub max_retries: u32,
    /// Base backoff before a retry; attempt `k` (1-based) waits
    /// `backoff * 2^(k-1)` after its predecessor fails.
    pub backoff: SimDuration,
}

impl RetryPolicy {
    /// The no-op policy: no timeouts, no retries. A failed attempt is
    /// dropped immediately.
    pub fn none() -> Self {
        RetryPolicy {
            timeout: None,
            max_retries: 0,
            backoff: SimDuration::ZERO,
        }
    }

    /// A policy with a per-attempt `timeout`, up to `max_retries`
    /// retries, and exponential backoff starting at `backoff`.
    ///
    /// # Errors
    /// Rejects a zero timeout (every attempt would expire at dispatch).
    pub fn new(
        timeout: SimDuration,
        max_retries: u32,
        backoff: SimDuration,
    ) -> Result<Self, ConfigError> {
        if timeout.is_zero() {
            return Err(ConfigError::OutOfRange {
                param: "timeout",
                requirement: "must be positive",
                got: 0.0,
            });
        }
        Ok(RetryPolicy {
            timeout: Some(timeout),
            max_retries,
            backoff,
        })
    }

    /// True when this policy never times out and never retries.
    pub fn is_noop(&self) -> bool {
        self.timeout.is_none() && self.max_retries == 0
    }

    /// Backoff delay before retry number `attempt + 1` (where `attempt`
    /// is the 0-based index of the attempt that just failed).
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        // Cap the shift so a deep retry chain saturates instead of
        // overflowing.
        self.backoff * (1u64 << attempt.min(20))
    }
}

/// Per-run fault accounting reported in [`RunStats`].
///
/// All counters cover the measurement window only, mirroring
/// `RunStats::completed`.
///
/// [`RunStats`]: crate::RunStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts abandoned because they exceeded the per-request timeout.
    pub timeouts: u64,
    /// Retry attempts issued (after timeouts or server failures).
    pub retries: u64,
    /// Logical requests dropped after exhausting the retry budget.
    pub dropped: u64,
    /// Logical requests resolved either way: successes plus drops. The
    /// offered/goodput split of the run.
    pub offered: u64,
    /// Outage-plan events that could not be scheduled (a window opening
    /// in the simulated past). The run degrades — the unschedulable
    /// window is skipped and counted — instead of panicking.
    pub plan_skipped: u64,
}

/// A deterministic outage schedule for every server in a cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterFaults {
    windows: Vec<Vec<DownWindow>>,
}

impl ClusterFaults {
    /// A plan in which no server ever fails.
    pub fn fail_free() -> Self {
        ClusterFaults::default()
    }

    /// Builds a plan by sampling one fault process per server over
    /// `horizon`, seeded by `seed` (one independent stream per server).
    pub fn from_processes(processes: &[FaultProcess], horizon: SimDuration, seed: u64) -> Self {
        let mut injector = FaultInjector::new();
        let ids: Vec<ComponentId> = processes
            .iter()
            .enumerate()
            .map(|(i, p)| injector.add(&format!("server-{i}"), *p))
            .collect();
        let trace = injector.trace(horizon, seed);
        ClusterFaults {
            windows: ids.iter().map(|&id| trace.windows(id).to_vec()).collect(),
        }
    }

    /// A plan with exactly one outage: server `victim` is down during
    /// `[down_at, down_at + outage)`.
    pub fn single_outage(victim: usize, down_at: SimTime, outage: SimDuration) -> Self {
        let mut windows = vec![Vec::new(); victim + 1];
        windows[victim] = vec![DownWindow {
            down_at,
            up_at: down_at + outage,
        }];
        ClusterFaults { windows }
    }

    /// Overrides server `server`'s outage windows (must be sorted and
    /// disjoint, as produced by [`FaultProcess::windows`]).
    pub fn set_windows(&mut self, server: usize, windows: Vec<DownWindow>) {
        if self.windows.len() <= server {
            self.windows.resize_with(server + 1, Vec::new);
        }
        self.windows[server] = windows;
    }

    /// Number of servers this plan describes. Servers beyond this count
    /// are implicitly fail-free.
    pub fn planned_servers(&self) -> usize {
        self.windows.len()
    }

    /// Server `server`'s outage windows (empty if unplanned).
    pub fn windows_for(&self, server: usize) -> &[DownWindow] {
        self.windows.get(server).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when no server has any outage scheduled.
    pub fn is_fail_free(&self) -> bool {
        self.windows.iter().all(Vec::is_empty)
    }

    /// Mean per-server availability over `horizon`, averaged across
    /// `servers` servers (unplanned servers count as fully available).
    pub fn mean_availability(&self, servers: u32, horizon: SimDuration) -> f64 {
        if servers == 0 || horizon.is_zero() {
            return 1.0;
        }
        let mut total = 0.0;
        for s in 0..servers as usize {
            let down = downtime(self.windows_for(s), horizon);
            total += 1.0 - down.as_secs_f64() / horizon.as_secs_f64();
        }
        total / servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn noop_policy_is_noop() {
        let p = RetryPolicy::none();
        assert!(p.is_noop());
        assert_eq!(p.backoff_for(3), SimDuration::ZERO);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::new(secs(1.0), 5, SimDuration::from_millis(10)).unwrap();
        assert_eq!(p.backoff_for(0), SimDuration::from_millis(10));
        assert_eq!(p.backoff_for(1), SimDuration::from_millis(20));
        assert_eq!(p.backoff_for(2), SimDuration::from_millis(40));
        // A deep chain saturates rather than overflowing.
        assert!(p.backoff_for(60) > SimDuration::ZERO);
    }

    #[test]
    fn zero_timeout_rejected() {
        assert!(RetryPolicy::new(SimDuration::ZERO, 1, SimDuration::ZERO).is_err());
    }

    #[test]
    fn fail_free_plan() {
        let plan = ClusterFaults::fail_free();
        assert!(plan.is_fail_free());
        assert!(plan.windows_for(7).is_empty());
        assert_eq!(plan.mean_availability(16, secs(100.0)), 1.0);
    }

    #[test]
    fn single_outage_plan() {
        let plan = ClusterFaults::single_outage(2, SimTime::ZERO + secs(10.0), secs(5.0));
        assert!(!plan.is_fail_free());
        assert!(plan.windows_for(0).is_empty());
        assert_eq!(plan.windows_for(2).len(), 1);
        // 4 servers, one down 5s of 100s: mean availability 1 - 5/400.
        let a = plan.mean_availability(4, secs(100.0));
        assert!((a - (1.0 - 5.0 / 400.0)).abs() < 1e-12, "availability {a}");
    }

    #[test]
    fn from_processes_is_deterministic() {
        let p = FaultProcess::exponential(secs(100.0), secs(5.0)).unwrap();
        let a = ClusterFaults::from_processes(&[p, p, p], secs(10_000.0), 7);
        let b = ClusterFaults::from_processes(&[p, p, p], secs(10_000.0), 7);
        for s in 0..3 {
            assert_eq!(a.windows_for(s), b.windows_for(s));
            assert!(!a.windows_for(s).is_empty());
        }
    }
}
