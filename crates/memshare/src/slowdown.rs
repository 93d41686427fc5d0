//! Converting two-level miss rates into workload slowdowns (Figure 4(b)).

use std::sync::Arc;

use wcs_simcore::memo::{MemoCache, MemoKey, MemoStats};
use wcs_simcore::obs::Registry;
use wcs_simcore::{ConfigError, ThreadPool};
use wcs_workloads::memtrace::{params_for, MemTraceBuf, MemTraceParams};
use wcs_workloads::WorkloadId;

use crate::link::RemoteLink;
use crate::policy::PolicyKind;
use crate::twolevel::{MissStats, TwoLevelSim};

/// The paper's trace baseline in 4 KiB pages: 2 GiB of first-level
/// memory (it studied 4 GiB and 2 GiB and reports the conservative 2 GiB
/// numbers).
pub const BASELINE_2GIB_PAGES: usize = 524_288;

/// Configuration of a slowdown estimate.
#[derive(Debug, Clone, Copy)]
pub struct SlowdownConfig {
    /// Local memory as a fraction of the 2 GiB baseline (the paper
    /// studies 0.25 and 0.125).
    pub local_fraction: f64,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Link / latency model.
    pub link: RemoteLink,
    /// Warmup accesses before measuring.
    pub fill: u64,
    /// Measured accesses.
    pub measured: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SlowdownConfig {
    /// The paper's primary configuration: 25% local memory, random
    /// replacement, whole-page PCIe transfers.
    pub fn paper_default() -> Self {
        SlowdownConfig {
            local_fraction: 0.25,
            policy: PolicyKind::Random,
            link: RemoteLink::pcie_x4(),
            fill: 2_000_000,
            measured: 2_000_000,
            seed: 0xB1ADE,
        }
    }

    /// Same but with the critical-block-first optimization.
    pub fn paper_cbf() -> Self {
        SlowdownConfig {
            link: RemoteLink::pcie_x4_cbf(),
            ..Self::paper_default()
        }
    }
}

/// Result of a slowdown estimate for one workload.
#[derive(Debug, Clone, Copy)]
pub struct SlowdownResult {
    /// The measured two-level statistics.
    pub stats: MissStats,
    /// Remote faults per second of CPU work.
    pub faults_per_cpu_sec: f64,
    /// Fractional slowdown (0.047 = 4.7%).
    pub slowdown: f64,
}

impl SlowdownResult {
    /// The multiplicative factor to apply to CPU time (>= 1).
    pub fn cpu_inflation(&self) -> f64 {
        1.0 + self.slowdown
    }

    /// The same miss behaviour re-costed over a different link: slowdown
    /// is `faults_per_cpu_sec * fault_latency`, so swapping the link only
    /// rescales it. Used to price degraded modes (e.g. disk swap while
    /// the blade is down) without replaying the trace.
    pub fn with_link(&self, link: &RemoteLink) -> SlowdownResult {
        SlowdownResult {
            stats: self.stats,
            faults_per_cpu_sec: self.faults_per_cpu_sec,
            slowdown: self.faults_per_cpu_sec * link.fault_latency_secs(),
        }
    }
}

/// Memoization state for two-level trace replays.
///
/// Sweeps evaluate many design points whose memshare configurations
/// differ only in link or TCO parameters while sharing the expensive
/// part — the multi-million-access two-level replay. This cache keys
/// each replay by everything that determines its [`MissStats`] (trace
/// params + both seeds + store geometry + policy + access counts) and
/// *excludes* the link, whose latency is applied analytically afterward:
/// a PCIe point and a CBF point therefore share one replay.
///
/// Materialized traces are shared too, behind `Arc`s, in compact
/// [`MemTraceBuf`] form, and so are their page columns: traces whose
/// footprint, skew, seed and length agree draw the same pages (they
/// differ only in write fraction), so the second one runs only the
/// write-only pass ([`MemTraceBuf::with_pages`]).
#[derive(Debug, Default)]
pub struct ReplayMemo {
    traces: MemoCache<Arc<MemTraceBuf>>,
    /// Page columns by `(footprint, skew, seed, n)`, read only on a
    /// trace miss and left out of [`stats`](Self::stats).
    pages: MemoCache<Arc<Box<[u32]>>>,
    runs: MemoCache<MissStats>,
    obs: Registry,
}

impl ReplayMemo {
    /// An empty, enabled memo.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A memo in bypass mode: every estimate recomputes, building its
    /// trace and dropping it uncached.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A memo that caches iff `enabled`.
    pub fn with_enabled(enabled: bool) -> Self {
        ReplayMemo {
            traces: MemoCache::with_enabled(enabled),
            pages: MemoCache::with_enabled(enabled),
            runs: MemoCache::with_enabled(enabled),
            obs: Registry::disabled(),
        }
    }

    /// Returns this memo with `memshare.*` metrics recorded into
    /// `registry`. Metrics are derived from the (cached) replay results,
    /// never from cache behaviour, so the reported values are identical
    /// with memoization on or off.
    #[must_use]
    pub fn with_obs(mut self, registry: Registry) -> Self {
        self.obs = registry;
        self
    }

    /// Combined hit/miss counters (trace lookups + replays).
    pub fn stats(&self) -> MemoStats {
        self.traces.stats().merged(&self.runs.stats())
    }

    /// The materialized `(params, seed)` trace of at least `n` accesses,
    /// shared across every caller that asks for the same one.
    pub fn trace(&self, params: MemTraceParams, seed: u64, n: usize) -> Arc<MemTraceBuf> {
        self.trace_par(params, seed, n, &ThreadPool::serial())
    }

    /// [`trace`](Self::trace) with a cache miss materialized on `pool`'s
    /// threads. The parallel generator is bit-identical to the
    /// sequential one for every pool size, so the memo key is shared
    /// with [`trace`](Self::trace). A miss whose page column is already
    /// built draws only the write bits over it.
    pub fn trace_par(
        &self,
        params: MemTraceParams,
        seed: u64,
        n: usize,
        pool: &ThreadPool,
    ) -> Arc<MemTraceBuf> {
        let key = MemoKey::new("memtrace-buf")
            .push(&params)
            .push_u64(seed)
            .push_usize(n)
            .finish();
        self.traces.get_or_compute(key, || {
            let column = MemoKey::new("memtrace-pages")
                .push_u64(params.footprint_pages)
                .push_f64(params.zipf_s)
                .push_u64(seed)
                .push_usize(n)
                .finish();
            if let Some(pages) = self.pages.get(column) {
                return Arc::new(MemTraceBuf::with_pages(pages, params, seed, pool));
            }
            let buf = MemTraceBuf::generate_par(params, seed, n, pool);
            self.pages.insert(column, Arc::clone(buf.page_column()));
            Arc::new(buf)
        })
    }
}

/// Estimates the slowdown `workload` suffers with a remote memory blade.
///
/// Replays the workload's synthetic page trace through the two-level
/// simulator with `local_fraction` of the 2 GiB baseline kept local, then
/// converts the steady-state miss ratio into time: each fault stalls the
/// CPU for the link's fault latency, and the workload touches pages at
/// its calibrated rate per second of CPU work.
///
/// # Errors
/// Rejects a `local_fraction` outside `(0, 1]`.
pub fn estimate_slowdown(
    workload: WorkloadId,
    config: &SlowdownConfig,
) -> Result<SlowdownResult, ConfigError> {
    estimate_slowdown_with(workload, config, &ReplayMemo::disabled())
}

/// [`estimate_slowdown`] with replays (and materialized traces) shared
/// through `memo`.
///
/// Bit-identical to the unmemoized estimate: the replay is keyed by
/// every input that determines its statistics, and the link latency —
/// deliberately *not* part of the key — only rescales the result
/// analytically.
///
/// # Errors
/// Rejects a `local_fraction` outside `(0, 1]`.
pub fn estimate_slowdown_with(
    workload: WorkloadId,
    config: &SlowdownConfig,
    memo: &ReplayMemo,
) -> Result<SlowdownResult, ConfigError> {
    estimate_slowdown_pooled(workload, config, memo, &ThreadPool::serial())
}

/// [`estimate_slowdown_with`] with a trace materialization (on a memo
/// miss) fanned out over `pool`'s threads. The replay itself is serial —
/// the cache state threads access to access — and reads the shared trace
/// in place, so the result is bit-identical at every pool size.
///
/// # Errors
/// Rejects a `local_fraction` outside `(0, 1]`.
pub fn estimate_slowdown_pooled(
    workload: WorkloadId,
    config: &SlowdownConfig,
    memo: &ReplayMemo,
    pool: &ThreadPool,
) -> Result<SlowdownResult, ConfigError> {
    ConfigError::check_f64(
        "local_fraction",
        config.local_fraction,
        "must be in (0, 1]",
        config.local_fraction > 0.0 && config.local_fraction <= 1.0,
    )?;
    let params = params_for(workload);
    let local_pages = ((BASELINE_2GIB_PAGES as f64) * config.local_fraction) as usize;
    let trace_seed = config.seed ^ 0xD15C;
    let key = MemoKey::new("twolevel-replay")
        .push(&params)
        .push_u64(trace_seed)
        .push_u64(config.seed)
        .push_usize(local_pages.max(1))
        .push(&config.policy)
        .push_u64(config.fill)
        .push_u64(config.measured)
        .finish();
    let stats = memo.runs.get_or_compute(key, || {
        // Trace pages are scrambled modulo the footprint, so the store
        // can index them densely.
        let mut sim = TwoLevelSim::with_page_universe(
            local_pages.max(1),
            config.policy,
            config.seed,
            params.footprint_pages,
        );
        let total = (config.fill + config.measured) as usize;
        let buf = memo.trace_par(params, trace_seed, total, pool);
        sim.run_steady_buf(&buf, config.fill, config.measured)
    });
    let faults_per_cpu_sec = params.accesses_per_cpu_sec * stats.miss_ratio();
    let slowdown = faults_per_cpu_sec * config.link.fault_latency_secs();
    // Observability: recorded from the returned (cached or recomputed)
    // statistics, so the series is bit-identical across threads and memo
    // modes. CBF savings are the remote-stall nanoseconds the configured
    // link avoids relative to whole-page PCIe x4 transfers.
    let obs = &memo.obs;
    obs.counter("memshare.replays").inc();
    obs.counter("memshare.accesses").add(stats.accesses);
    obs.counter("memshare.page_faults").add(stats.misses);
    obs.counter("memshare.writebacks").add(stats.writebacks);
    let whole_page = RemoteLink::pcie_x4().fault_latency_secs();
    let saved_secs = (whole_page - config.link.fault_latency_secs()).max(0.0);
    obs.counter("memshare.cbf_saved_ns")
        .add((stats.misses as f64 * saved_secs * 1e9).round() as u64);
    Ok(SlowdownResult {
        stats,
        faults_per_cpu_sec,
        slowdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_constant_is_2gib() {
        assert_eq!(BASELINE_2GIB_PAGES, 524_288);
    }

    /// Figure 4(b), PCIe x4 row: websearch 4.7%, webmail 0.2%,
    /// ytube 1.4%, mapred-wc 0.7%, mapred-wr 0.7%.
    #[test]
    fn figure4b_pcie_row() {
        let cfg = SlowdownConfig::paper_default();
        let targets = [
            (WorkloadId::Websearch, 0.047),
            (WorkloadId::Webmail, 0.002),
            (WorkloadId::Ytube, 0.014),
            (WorkloadId::MapredWc, 0.007),
            (WorkloadId::MapredWr, 0.007),
        ];
        for (id, target) in targets {
            let r = estimate_slowdown(id, &cfg).unwrap();
            assert!(
                (r.slowdown - target).abs() < target * 0.35 + 0.001,
                "{id}: slowdown {:.4} vs paper {target}",
                r.slowdown
            );
        }
    }

    /// Figure 4(b), CBF row: websearch 1.2%, ytube 0.4%.
    #[test]
    fn figure4b_cbf_row() {
        let cfg = SlowdownConfig::paper_cbf();
        let r = estimate_slowdown(WorkloadId::Websearch, &cfg).unwrap();
        assert!(
            (r.slowdown - 0.012).abs() < 0.005,
            "websearch CBF slowdown {:.4}",
            r.slowdown
        );
        let r = estimate_slowdown(WorkloadId::Ytube, &cfg).unwrap();
        assert!(
            (r.slowdown - 0.004).abs() < 0.003,
            "ytube CBF {:.4}",
            r.slowdown
        );
    }

    /// The paper: 12.5% local roughly doubles the websearch slowdown
    /// ("up to 5% for 25%, and 10% for 12.5%"). Our synthetic traces get
    /// most of the way there.
    #[test]
    fn halving_local_memory_increases_slowdown() {
        let base =
            estimate_slowdown(WorkloadId::Websearch, &SlowdownConfig::paper_default()).unwrap();
        let half = estimate_slowdown(
            WorkloadId::Websearch,
            &SlowdownConfig {
                local_fraction: 0.125,
                ..SlowdownConfig::paper_default()
            },
        )
        .unwrap();
        let ratio = half.slowdown / base.slowdown;
        assert!(ratio > 1.25, "12.5%-local should hurt more (ratio {ratio})");
    }

    /// "LRU results are nearly the same" as random (the paper).
    #[test]
    fn lru_close_to_random() {
        let rnd =
            estimate_slowdown(WorkloadId::Websearch, &SlowdownConfig::paper_default()).unwrap();
        let lru = estimate_slowdown(
            WorkloadId::Websearch,
            &SlowdownConfig {
                policy: PolicyKind::Lru,
                ..SlowdownConfig::paper_default()
            },
        )
        .unwrap();
        let rel = (lru.slowdown - rnd.slowdown).abs() / rnd.slowdown;
        assert!(rel < 0.35, "LRU vs random differ by {rel}");
    }

    #[test]
    fn cbf_cuts_slowdown_by_latency_ratio() {
        let pcie = estimate_slowdown(WorkloadId::Ytube, &SlowdownConfig::paper_default()).unwrap();
        let cbf = estimate_slowdown(WorkloadId::Ytube, &SlowdownConfig::paper_cbf()).unwrap();
        let ratio = pcie.slowdown / cbf.slowdown;
        assert!((3.0..=5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn memoized_estimate_is_bit_identical_and_shares_links() {
        // Use a reduced-effort config so the test stays fast.
        let quick = SlowdownConfig {
            fill: 150_000,
            measured: 150_000,
            ..SlowdownConfig::paper_default()
        };
        let memo = ReplayMemo::new();
        for id in [WorkloadId::Websearch, WorkloadId::Webmail] {
            let cold = estimate_slowdown(id, &quick).unwrap();
            let warm = estimate_slowdown_with(id, &quick, &memo).unwrap();
            assert_eq!(cold.stats, warm.stats, "{id}");
            assert_eq!(cold.slowdown.to_bits(), warm.slowdown.to_bits(), "{id}");
            // A CBF estimate differs only in link latency: it must hit
            // the same replay entry.
            let cbf_cfg = SlowdownConfig {
                link: RemoteLink::pcie_x4_cbf(),
                ..quick
            };
            let cbf = estimate_slowdown_with(id, &cbf_cfg, &memo).unwrap();
            assert_eq!(cbf.stats, warm.stats, "{id}: replay not shared");
            // CBF strictly helps whenever any fault occurred (webmail's
            // short trace may see none at all).
            assert!(
                cbf.slowdown <= warm.slowdown
                    && (warm.slowdown == 0.0 || cbf.slowdown < warm.slowdown),
                "{id}: CBF should be no slower ({} vs {})",
                cbf.slowdown,
                warm.slowdown
            );
        }
        let s = memo.stats();
        assert!(s.hits >= 2, "CBF rows should hit (stats {s:?})");
    }

    #[test]
    fn traces_share_page_columns_by_footprint_skew_seed_and_length() {
        let memo = ReplayMemo::new();
        let n = 3_000;
        let trace = |id| memo.trace(params_for(id), 11, n);
        let wc = trace(WorkloadId::MapredWc);
        let wr = trace(WorkloadId::MapredWr);
        let ws = trace(WorkloadId::Websearch);
        assert!(Arc::ptr_eq(wc.page_column(), wr.page_column()));
        assert!(!Arc::ptr_eq(wc.page_column(), ws.page_column()));
        let fresh = MemTraceBuf::generate(params_for(WorkloadId::MapredWr), 11, n);
        for i in 0..n {
            assert_eq!(wr.get(i), fresh.get(i), "access {i}");
        }
        // Only trace lookups count: three misses, then one hit.
        assert_eq!(memo.stats(), MemoStats { hits: 0, misses: 3 });
        assert!(Arc::ptr_eq(&trace(WorkloadId::MapredWr), &wr));
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 3 });
        // Another length or seed gets its own column.
        let longer = memo.trace(params_for(WorkloadId::MapredWr), 11, n + 1);
        let reseeded = memo.trace(params_for(WorkloadId::MapredWr), 12, n);
        assert!(!Arc::ptr_eq(longer.page_column(), wc.page_column()));
        assert!(!Arc::ptr_eq(reseeded.page_column(), wc.page_column()));
    }

    #[test]
    fn rejects_bad_fraction() {
        let r = estimate_slowdown(
            WorkloadId::Webmail,
            &SlowdownConfig {
                local_fraction: 0.0,
                ..SlowdownConfig::paper_default()
            },
        );
        assert!(r.is_err());
    }
}
