//! Online statistics and latency histograms.
//!
//! The QoS definitions in the paper are percentile bounds ("more than 95%
//! of queries under 0.5 s"), so the central tool here is a log-bucketed
//! [`Histogram`] with percentile queries. [`OnlineStats`] provides
//! numerically stable streaming mean/variance, and [`harmonic_mean`]
//! implements the cross-benchmark aggregation the paper uses for its
//! "HMean" rows.

use std::sync::OnceLock;

use crate::SimDuration;

/// Streaming mean / variance / extrema (Welford's algorithm).
///
/// # Example
/// ```
/// use wcs_simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log-bucketed histogram of non-negative values with percentile queries.
///
/// Buckets grow geometrically, giving ~2% relative resolution across twelve
/// decades — plenty for latencies from nanoseconds to minutes.
///
/// # Example
/// ```
/// use wcs_simcore::stats::Histogram;
/// let mut h = Histogram::new();
/// for i in 1..=100 { h.record(i as f64); }
/// let p50 = h.percentile(50.0).expect("non-empty");
/// assert!((45.0..=56.0).contains(&p50));
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    zero_count: u64,
    stats: OnlineStats,
}

/// A value pre-classified by [`Histogram::prepare`] so repeated
/// recording skips the bucket computation. `bucket` is the bucket
/// index, `NBUCKETS` for the zero bin, or `usize::MAX` for ignored
/// (negative / non-finite) values.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSample {
    x: f64,
    bucket: usize,
}

/// Ratio between consecutive bucket upper bounds (~2% resolution).
const GROWTH: f64 = 1.02;
/// Lower edge of the first bucket. Values below land in bucket 0.
const FLOOR: f64 = 1e-9;
/// Number of geometric buckets (covers up to ~FLOOR * GROWTH^N ≈ 10^3 s
/// when N = 1400).
const NBUCKETS: usize = 1400;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            zero_count: 0,
            stats: OnlineStats::new(),
        }
    }

    fn bucket_of(x: f64) -> usize {
        if x <= FLOOR {
            return 0;
        }
        // `x > FLOOR` makes the quotient non-negative, so the truncating
        // cast already is the floor (without `floor()`'s libm call).
        let b = ((x / FLOOR).ln() / GROWTH.ln()) as usize;
        b.min(NBUCKETS - 1)
    }

    fn bucket_upper(b: usize) -> f64 {
        FLOOR * GROWTH.powi(b as i32 + 1)
    }

    /// Records one value. Negative and non-finite values are ignored;
    /// zeros are counted separately and report as exactly zero.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        if x == 0.0 {
            self.zero_count += 1;
        } else {
            self.counts[Self::bucket_of(x)] += 1;
        }
        self.total += 1;
        self.stats.record(x);
    }

    /// Records a duration in seconds: [`record`](Self::record) of
    /// `d.as_secs_f64()`, with the bucket looked up from the whole
    /// nanoseconds instead of computed with a logarithm.
    pub fn record_duration(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        if ns == 0 {
            self.zero_count += 1;
        } else {
            self.counts[NanoBuckets::get().bucket_of(ns)] += 1;
        }
        self.total += 1;
        self.stats.record(d.as_secs_f64());
    }

    /// Pre-classifies `x` for repeated recording via
    /// [`record_prepared`](Self::record_prepared).
    ///
    /// Replay kernels record the same few distinct service times
    /// millions of times; preparing each distinct value once hoists the
    /// bucket logarithm out of the per-request loop.
    pub fn prepare(x: f64) -> PreparedSample {
        if !x.is_finite() || x < 0.0 {
            return PreparedSample {
                x,
                bucket: usize::MAX,
            };
        }
        let bucket = if x == 0.0 {
            NBUCKETS // sentinel: zero bin
        } else {
            Self::bucket_of(x)
        };
        PreparedSample { x, bucket }
    }

    /// Records a pre-classified value — bit-identical in every counter
    /// and statistic to calling [`record`](Self::record) with the same
    /// value.
    pub fn record_prepared(&mut self, p: PreparedSample) {
        if p.bucket == usize::MAX {
            return;
        }
        if p.bucket == NBUCKETS {
            self.zero_count += 1;
        } else {
            self.counts[p.bucket] += 1;
        }
        self.total += 1;
        self.stats.record(p.x);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of recorded values.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<f64> {
        self.stats.max()
    }

    /// The value at percentile `p` (0–100), or `None` when empty.
    ///
    /// The answer is the upper edge of the bucket containing the rank, so
    /// it overestimates by at most one bucket width (~2%), never
    /// underestimates — the conservative direction for QoS checks.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        if rank <= self.zero_count {
            return Some(0.0);
        }
        let mut seen = self.zero_count;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(b));
            }
        }
        self.stats.max()
    }

    /// Fraction of recorded values that are `<= bound` (bucket-granular,
    /// biased toward reporting violations — never hides one).
    pub fn fraction_at_or_below(&self, bound: f64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let limit = Self::bucket_of(bound);
        let mut seen = self.zero_count;
        for (b, &c) in self.counts.iter().enumerate() {
            if b >= limit {
                break;
            }
            seen += c;
        }
        seen as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.zero_count += other.zero_count;
        self.stats.merge(&other.stats);
    }
}

/// [`Histogram::bucket_of`] over whole nanoseconds, by table.
///
/// The bucket of `ns` is a monotone function of `ns as f64`, so each
/// bucket is an interval of it. `first[b]` is the smallest `ns` (as
/// `f64`) in bucket `b`, and `cells` holds the bucket of the lowest
/// value of each of 64 cells per binade of `ns as f64`. A cell spans
/// less than one bucket's 2% width, so a value's bucket is its cell's
/// or the next one, and one compare against `first` tells which. Both
/// tables are built once, from `bucket_of` itself.
struct NanoBuckets {
    cells: Box<[u16]>,
    first: Box<[f64]>,
}

/// `f64` bits of 1.0, shifted down to the cell index (exponent and top
/// six mantissa bits).
const CELL_OF_ONE: u64 = 1023 << 6;

impl NanoBuckets {
    fn get() -> &'static NanoBuckets {
        static TABLE: OnceLock<NanoBuckets> = OnceLock::new();
        TABLE.get_or_init(NanoBuckets::build)
    }

    fn build() -> NanoBuckets {
        let bucket = |ns: f64| Histogram::bucket_of(ns * 1e-9);
        let mut first = vec![0.0; NBUCKETS + 1];
        let mut ns = 1u64;
        for (b, first) in first.iter_mut().enumerate().take(NBUCKETS).skip(1) {
            // Start from the geometric estimate and step to the exact
            // smallest ns whose bucket reaches `b`.
            ns = ns.max(GROWTH.powi(b as i32) as u64);
            while ns > 1 && bucket((ns - 1) as f64) >= b {
                ns -= 1;
            }
            while bucket(ns as f64) < b {
                ns += 1;
            }
            *first = ns as f64;
        }
        first[NBUCKETS] = f64::INFINITY;
        // `u64::MAX as f64` is 2^64, the first value of binade 64.
        let cells = (0..65 * 64)
            .map(|c| bucket(f64::from_bits((CELL_OF_ONE + c) << 46)) as u16)
            .collect();
        NanoBuckets {
            cells,
            first: first.into_boxed_slice(),
        }
    }

    /// `Histogram::bucket_of(ns as f64 * 1e-9)` for `ns >= 1`.
    #[inline]
    fn bucket_of(&self, ns: u64) -> usize {
        let x = ns as f64;
        let b = usize::from(self.cells[((x.to_bits() >> 46) - CELL_OF_ONE) as usize]);
        b + usize::from(x >= self.first[b + 1])
    }
}

/// Harmonic mean of a set of positive values.
///
/// The paper aggregates cross-benchmark performance as "the harmonic mean
/// of the throughput and reciprocal of execution times"; this is that
/// aggregator. Returns `None` if the slice is empty or any value is
/// non-positive or non-finite.
///
/// # Example
/// ```
/// use wcs_simcore::stats::harmonic_mean;
/// let h = harmonic_mean(&[1.0, 4.0, 4.0]).expect("positive inputs");
/// assert!((h - 2.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    for &v in values {
        if !v.is_finite() || v <= 0.0 {
            return None;
        }
        acc += 1.0 / v;
    }
    Some(values.len() as f64 / acc)
}

/// Geometric mean of a set of positive values; used for sanity
/// cross-checks against the harmonic mean in reports.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut acc = 0.0;
    for &v in values {
        if !v.is_finite() || v <= 0.0 {
            return None;
        }
        acc += v.ln();
    }
    Some((acc / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_var() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_matches_combined() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin().abs() + 0.1).collect();
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_bracket_truth() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p95 = h.percentile(95.0).unwrap();
        assert!(
            (0.94..=0.99).contains(&p95),
            "p95 {p95} should be near 0.95"
        );
        let p0 = h.percentile(0.0).unwrap();
        assert!(p0 <= 0.0011);
        let p100 = h.percentile(100.0).unwrap();
        assert!(p100 >= 1.0);
    }

    #[test]
    fn histogram_zeroes_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for _ in 0..10 {
            h.record(0.0);
        }
        h.record(1.0);
        assert_eq!(h.percentile(50.0), Some(0.0));
        assert!(h.percentile(99.9).unwrap() >= 1.0);
    }

    #[test]
    fn histogram_fraction_at_or_below() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let f = h.fraction_at_or_below(50.0);
        assert!((0.45..=0.52).contains(&f), "fraction {f}");
        assert_eq!(Histogram::new().fraction_at_or_below(1.0), 1.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=50 {
            a.record(i as f64);
        }
        for i in 51..=100 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        let p50 = a.percentile(50.0).unwrap();
        assert!((45.0..=56.0).contains(&p50));
    }

    #[test]
    fn histogram_ignores_garbage() {
        let mut h = Histogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn hmean_known_value() {
        assert!(harmonic_mean(&[]).is_none());
        assert!(harmonic_mean(&[1.0, 0.0]).is_none());
        assert!(harmonic_mean(&[1.0, -2.0]).is_none());
        let h = harmonic_mean(&[40.0, 60.0]).unwrap();
        assert!((h - 48.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_known_value() {
        let g = geometric_mean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geometric_mean(&[]).is_none());
    }

    #[test]
    fn hmean_le_gmean_le_amean() {
        let vals = [3.0, 7.0, 11.0, 2.0];
        let h = harmonic_mean(&vals).unwrap();
        let g = geometric_mean(&vals).unwrap();
        let a = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(h <= g && g <= a);
    }

    #[test]
    fn bucket_truncation_matches_floor() {
        let reference = |x: f64| {
            if x <= FLOOR {
                return 0;
            }
            (((x / FLOOR).ln() / GROWTH.ln()).floor() as usize).min(NBUCKETS - 1)
        };
        crate::time::rounding_probes(|ns| {
            let x = ns * 1e-9;
            assert_eq!(Histogram::bucket_of(x), reference(x), "{x:e} s");
        });
    }

    #[test]
    fn nanosecond_buckets_match_the_logarithm() {
        let table = NanoBuckets::get();
        let check = |ns: u64| {
            let want = Histogram::bucket_of(ns as f64 * 1e-9);
            assert_eq!(table.bucket_of(ns), want, "{ns} ns");
        };
        for &first in &table.first[1..NBUCKETS] {
            let ns = first as u64;
            (ns.saturating_sub(2).max(1)..=ns + 2).for_each(check);
        }
        (1..3_000_000).for_each(check);
        [1 << 52, (1 << 53) + 1, 1 << 63, u64::MAX - 1, u64::MAX]
            .into_iter()
            .for_each(check);
        // Seeded values spread evenly over the binades 2^0 .. 2^63.
        let mut rng = crate::SimRng::seed_from(0xB0C4);
        for _ in 0..10_000_000 {
            let binade = rng.index(64) as u32;
            check((1 << binade) | (rng.next_u64() >> 1 >> (63 - binade)));
        }
    }

    #[test]
    fn duration_recording_is_bit_identical_to_record() {
        let nanos = [0, 1, 2, 999, 28_000_000, 1_500_000_000, u64::MAX];
        let mut plain = Histogram::new();
        let mut timed = Histogram::new();
        for &ns in &nanos {
            let d = SimDuration::from_nanos(ns);
            plain.record(d.as_secs_f64());
            timed.record_duration(d);
        }
        assert_eq!(plain.counts, timed.counts);
        assert_eq!(plain.zero_count, timed.zero_count);
        assert_eq!(plain.count(), timed.count());
        assert_eq!(plain.mean().to_bits(), timed.mean().to_bits());
    }

    #[test]
    fn prepared_recording_is_bit_identical_to_record() {
        let values = [0.0, 1e-12, 5e-3, 0.028, 1.5, -2.0, f64::NAN, 700.0];
        let mut plain = Histogram::new();
        let mut prepped = Histogram::new();
        for &v in &values {
            let p = Histogram::prepare(v);
            for _ in 0..3 {
                plain.record(v);
                prepped.record_prepared(p);
            }
        }
        assert_eq!(plain.count(), prepped.count());
        assert_eq!(plain.mean().to_bits(), prepped.mean().to_bits());
        assert_eq!(plain.max(), prepped.max());
        for q in [1.0, 25.0, 50.0, 99.0] {
            assert_eq!(plain.percentile(q), prepped.percentile(q), "p{q}");
        }
    }
}
