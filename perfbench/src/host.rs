//! Host diagnostics read from `/proc`: the process's on-CPU time and
//! run-queue wait, machine-wide steal ticks, and the peak resident set.
//! They are reported beside every run; no run is ever dropped or
//! filtered on them.

use std::fs;

/// A point-in-time reading of the host counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Nanoseconds this thread spent on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds this thread spent runnable but waiting for a CPU.
    pub runqueue_ns: u64,
    /// Steal ticks summed over all CPUs (`/proc/stat`, USER_HZ units).
    pub steal_ticks: u64,
}

impl HostSample {
    /// Reads the counters now. Counters the kernel does not expose read
    /// as zero.
    pub fn now() -> Self {
        let (on_cpu_ns, runqueue_ns) = fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| {
                let mut f = s.split_whitespace().map(|x| x.parse::<u64>().ok());
                Some((f.next()??, f.next()??))
            })
            .unwrap_or((0, 0));
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("cpu "))?;
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        HostSample {
            on_cpu_ns,
            runqueue_ns,
            steal_ticks,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runqueue_ns: self.runqueue_ns.saturating_sub(earlier.runqueue_ns),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
