//! Trace-driven two-level memory simulator.
//!
//! A replay is one call of the store's kernel
//! ([`crate::policy::PageStore::touch_pass`]): a loop, monomorphic per
//! key-index kind and policy, that reads a materialized [`MemTraceBuf`]
//! in place, touches each access and counts misses and writebacks as it
//! goes.
//!
//! A steady-state replay ([`TwoLevelSim::run_steady_buf`]) splits its
//! measured range into [`BATCHES`] consecutive kernel calls over one
//! store, which replays the same stream as a single call, and reports a
//! batch-means interval on the miss ratio beside the exact counts.

use wcs_simcore::batchmeans::{batch_means_ci, ConfInterval};
use wcs_workloads::memtrace::MemTraceBuf;

use crate::policy::{PageStore, PolicyKind};

/// Batches a steady-state replay splits its measured range into.
pub const BATCHES: u64 = 20;

/// Miss statistics from a trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MissStats {
    /// Page touches replayed.
    pub accesses: u64,
    /// Touches that faulted to the remote blade.
    pub misses: u64,
    /// Dirty victims written back during swaps.
    pub writebacks: u64,
}

impl std::ops::AddAssign for MissStats {
    fn add_assign(&mut self, other: MissStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

impl MissStats {
    /// Fraction of touches that faulted.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A steady-state replay: the measured statistics, their precision and
/// whether the warm-up filled the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStats {
    /// The measured range's statistics, summed over its batches: exactly
    /// what one pass over the range counts.
    pub stats: MissStats,
    /// 95% batch-means interval on the miss ratio over [`BATCHES`]
    /// batches; `None` when fewer than two batches hold accesses.
    pub miss_ratio_ci: Option<ConfInterval>,
    /// Whether the store was full when measurement began. Misses are
    /// charged only once it is, so an unfilled store under-reports the
    /// steady miss ratio and its interval does not describe one.
    pub filled: bool,
}

/// The two-level (local + remote-blade) memory simulator.
///
/// Models the paper's exclusive hierarchy: pages live either in local
/// memory or on the blade; a fault swaps the touched page with a local
/// victim (dirty victims cost a writeback DMA). Cold misses while local
/// memory is still filling are not charged — the paper measures steady
/// state.
///
/// # Example
/// ```
/// use wcs_memshare::twolevel::TwoLevelSim;
/// use wcs_memshare::policy::PolicyKind;
/// use wcs_workloads::{memtrace, WorkloadId};
/// let trace = memtrace::MemTraceBuf::generate(memtrace::params_for(WorkloadId::Ytube), 3, 100_000);
/// let mut sim = TwoLevelSim::new(50_000, PolicyKind::Lru, 9);
/// let stats = sim.run_buf(&trace, 0, 100_000);
/// assert!(stats.accesses == 100_000);
/// ```
#[derive(Debug)]
pub struct TwoLevelSim {
    local: PageStore,
}

impl TwoLevelSim {
    /// Creates a simulator with `local_pages` of first-level memory.
    ///
    /// # Panics
    /// Panics if `local_pages` is zero.
    pub fn new(local_pages: usize, policy: PolicyKind, seed: u64) -> Self {
        TwoLevelSim {
            local: PageStore::new(local_pages, policy, seed),
        }
    }

    /// Creates a simulator whose trace pages are known to lie in
    /// `[0, universe)` — the usual case when replaying a synthetic trace
    /// of known footprint — so the store can use a dense direct-index
    /// key map instead of hashing. Statistics are bit-identical to
    /// [`new`](Self::new); only lookups get cheaper.
    ///
    /// # Panics
    /// Panics if `local_pages` or `universe` is zero.
    pub fn with_page_universe(
        local_pages: usize,
        policy: PolicyKind,
        seed: u64,
        universe: u64,
    ) -> Self {
        TwoLevelSim {
            local: PageStore::with_universe(local_pages, policy, seed, universe),
        }
    }

    /// Replays accesses `[start, start + n)` of a materialized trace,
    /// read in place. The simulator carries the cache state from call to
    /// call, so consecutive ranges replay one stream.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the buffer.
    pub fn run_buf(&mut self, buf: &MemTraceBuf, start: usize, n: u64) -> MissStats {
        self.local
            .touch_pass(buf.accesses(start..start + n as usize))
    }

    /// Replays the first `fill` accesses of a materialized trace to warm
    /// up, then measures over the next `measured` in [`BATCHES`]
    /// consecutive batches, batch `k` ending at `fill + measured * k /
    /// BATCHES`; the trace must hold at least `fill + measured` accesses.
    /// The batches replay one stream, so the summed statistics equal a
    /// single pass over the measured range.
    pub fn run_steady_buf(&mut self, buf: &MemTraceBuf, fill: u64, measured: u64) -> SteadyStats {
        let _ = self.run_buf(buf, 0, fill);
        let filled = self.local.len() == self.local.capacity();
        let mut stats = MissStats::default();
        let mut ratios = Vec::with_capacity(BATCHES as usize);
        let mut start = fill;
        for k in 1..=BATCHES {
            let end = fill + measured * k / BATCHES;
            let batch = self.run_buf(buf, start as usize, end - start);
            if batch.accesses > 0 {
                ratios.push(batch.miss_ratio());
            }
            stats += batch;
            start = end;
        }
        let miss_ratio_ci = if ratios.len() >= 2 {
            batch_means_ci(&ratios, ratios.len())
        } else {
            None
        };
        SteadyStats {
            stats,
            miss_ratio_ci,
            filled,
        }
    }

    /// Local capacity in pages.
    pub fn local_pages(&self) -> usize {
        self.local.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_workloads::memtrace::{params_for, MemTraceParams};
    use wcs_workloads::WorkloadId;

    fn small_params() -> MemTraceParams {
        MemTraceParams {
            footprint_pages: 10_000,
            zipf_s: 0.8,
            write_fraction: 0.3,
            accesses_per_cpu_sec: 1e5,
        }
    }

    /// Warms `sim` on the first `fill` accesses of the `(p, seed)` trace
    /// and measures the next `measured`.
    fn steady(
        sim: &mut TwoLevelSim,
        p: MemTraceParams,
        seed: u64,
        fill: u64,
        measured: u64,
    ) -> MissStats {
        let buf = MemTraceBuf::generate(p, seed, (fill + measured) as usize);
        sim.run_steady_buf(&buf, fill, measured).stats
    }

    #[test]
    fn bigger_local_memory_misses_less() {
        let p = small_params();
        let mut small = TwoLevelSim::new(1_000, PolicyKind::Random, 1);
        let mut large = TwoLevelSim::new(5_000, PolicyKind::Random, 1);
        let s = steady(&mut small, p, 7, 50_000, 200_000);
        let l = steady(&mut large, p, 7, 50_000, 200_000);
        assert!(
            s.miss_ratio() > l.miss_ratio() * 1.5,
            "{} vs {}",
            s.miss_ratio(),
            l.miss_ratio()
        );
    }

    #[test]
    fn lru_beats_random_on_skewed_traces() {
        let p = MemTraceParams {
            zipf_s: 1.1,
            ..small_params()
        };
        let mut lru = TwoLevelSim::new(2_000, PolicyKind::Lru, 1);
        let mut rnd = TwoLevelSim::new(2_000, PolicyKind::Random, 1);
        let l = steady(&mut lru, p, 3, 50_000, 200_000);
        let r = steady(&mut rnd, p, 3, 50_000, 200_000);
        assert!(
            l.miss_ratio() <= r.miss_ratio() * 1.05,
            "{} vs {}",
            l.miss_ratio(),
            r.miss_ratio()
        );
    }

    #[test]
    fn clock_lands_between_lru_and_random() {
        let p = MemTraceParams {
            zipf_s: 1.0,
            ..small_params()
        };
        let run = |kind| {
            let mut sim = TwoLevelSim::new(2_000, kind, 1);
            steady(&mut sim, p, 5, 50_000, 300_000).miss_ratio()
        };
        let (lru, clock, rnd) = (
            run(PolicyKind::Lru),
            run(PolicyKind::Clock),
            run(PolicyKind::Random),
        );
        // "An implementable policy would have performance between these
        // points" — allow small statistical slack.
        assert!(clock >= lru * 0.95, "clock {clock} vs lru {lru}");
        assert!(clock <= rnd * 1.05, "clock {clock} vs random {rnd}");
    }

    #[test]
    fn writebacks_track_write_fraction() {
        let p = small_params();
        let mut sim = TwoLevelSim::new(1_000, PolicyKind::Random, 1);
        let stats = steady(&mut sim, p, 11, 50_000, 200_000);
        assert!(stats.writebacks > 0);
        assert!(stats.writebacks <= stats.misses);
        // Writeback fraction should be near the steady-state dirty
        // fraction, which exceeds the per-touch write fraction.
        let frac = stats.writebacks as f64 / stats.misses as f64;
        assert!(frac > 0.25, "writeback fraction {frac}");
    }

    #[test]
    fn no_misses_when_footprint_fits() {
        let p = MemTraceParams {
            footprint_pages: 500,
            ..small_params()
        };
        let mut sim = TwoLevelSim::new(1_000, PolicyKind::Lru, 1);
        let stats = steady(&mut sim, p, 13, 10_000, 50_000);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn paper_workload_traces_run() {
        for id in WorkloadId::ALL {
            let mut sim = TwoLevelSim::new(131_072, PolicyKind::Random, 2);
            let stats = steady(&mut sim, params_for(id), 17, 200_000, 200_000);
            assert_eq!(stats.accesses, 200_000, "{id}");
        }
    }

    #[test]
    fn soa_kernel_matches_scalar_touch_reference() {
        // Independent scalar re-implementation of the replay semantics,
        // driven access by access through the public touch API — the
        // reference the batch kernel is pinned to.
        use crate::policy::{PageStore, Touch};
        let p = small_params();
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let buf = MemTraceBuf::generate(p, 29, 120_000);
            let mut store = PageStore::new(1_200, policy, 31);
            let mut want = MissStats::default();
            for i in 0..buf.len() {
                let a = buf.get(i);
                want.accesses += 1;
                if let Touch::Miss {
                    evicted: Some((_, dirty)),
                } = store.touch(a.page, a.write)
                {
                    want.misses += 1;
                    want.writebacks += u64::from(dirty);
                }
            }
            let mut sim = TwoLevelSim::new(1_200, policy, 31);
            let got = sim.run_buf(&buf, 0, 120_000);
            assert_eq!(got, want, "{policy:?}");
        }
    }

    #[test]
    fn batched_steady_replay_counts_what_one_pass_counts() {
        // 20 does not divide 40,007, so the batches differ in length and
        // must still cover the measured range exactly once.
        let p = small_params();
        let (fill, measured) = (30_000u64, 40_007u64);
        let buf = MemTraceBuf::generate(p, 41, (fill + measured) as usize);
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let sims = || {
                [
                    TwoLevelSim::new(1_500, policy, 3),
                    TwoLevelSim::with_page_universe(1_500, policy, 3, p.footprint_pages),
                ]
            };
            for (mut batched, mut single) in sims().into_iter().zip(sims()) {
                let steady = batched.run_steady_buf(&buf, fill, measured);
                let _ = single.run_buf(&buf, 0, fill);
                let want = single.run_buf(&buf, fill as usize, measured);
                assert_eq!(steady.stats, want, "{policy:?}");
                assert_eq!(want.accesses, measured, "{policy:?}");
                assert!(steady.filled, "{policy:?}");
                let ci = steady.miss_ratio_ci.expect("every batch holds accesses");
                assert_eq!(ci.batches, BATCHES as usize, "{policy:?}");
                assert!(ci.contains(want.miss_ratio()), "{policy:?}: {ci:?}");
            }
            // One measured access fills one batch: no interval.
            let one = TwoLevelSim::new(1_500, policy, 3).run_steady_buf(&buf, fill, 1);
            assert_eq!(one.stats.accesses, 1, "{policy:?}");
            assert_eq!(one.miss_ratio_ci, None, "{policy:?}");
        }
    }

    #[test]
    fn dense_universe_store_replays_identically() {
        let p = small_params();
        let buf = MemTraceBuf::generate(p, 37, 150_000);
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let mut open = TwoLevelSim::new(2_000, policy, 5);
            let mut dense = TwoLevelSim::with_page_universe(2_000, policy, 5, p.footprint_pages);
            assert_eq!(
                open.run_buf(&buf, 0, 150_000),
                dense.run_buf(&buf, 0, 150_000),
                "{policy:?}"
            );
        }
    }
}
