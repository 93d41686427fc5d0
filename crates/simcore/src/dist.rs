//! Random distributions used by the benchmark suite.
//!
//! The warehouse workloads in the paper are driven by a small set of
//! distributions: Zipf popularity (memory pages, disk extents),
//! exponential inter-arrival times, and log-normal service-time jitter
//! and task sizes.
//! All of them are implemented here against [`SimRng`], with parameter
//! validation at construction time.

use std::fmt;

use crate::{SimDuration, SimRng};

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: String,
}

impl ParamError {
    fn new(what: impl Into<String>) -> Self {
        ParamError { what: what.into() }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// A source of `f64` samples.
///
/// All samples are guaranteed non-negative and finite, which is what the
/// simulators need (sizes, durations, counts).
pub trait Distribution: fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, when known in closed form.
    fn mean(&self) -> f64;

    /// Draws a sample interpreted as seconds and converts it to a
    /// [`SimDuration`].
    fn sample_duration(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }
}

/// Exponential distribution with a given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Errors
    /// Fails unless `mean` is finite and strictly positive.
    pub fn new(mean: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(ParamError::new("Exp mean must be finite and > 0"));
        }
        Ok(Exp { mean })
    }
}

impl Distribution for Exp {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = 1.0 - rng.uniform(); // (0, 1]
        -self.mean * u.ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterized by the mean and coefficient of
/// variation of the *resulting* values (not of the underlying normal),
/// which is how object-size statistics are usually reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    mean: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given value-space `mean` and
    /// coefficient of variation `cv` (std-dev / mean).
    ///
    /// # Errors
    /// Fails unless `mean > 0` and `cv > 0`, both finite.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && cv.is_finite() && mean > 0.0 && cv > 0.0) {
            return Err(ParamError::new("LogNormal requires mean > 0 and cv > 0"));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Ok(LogNormal {
            mu,
            sigma: sigma2.sqrt(),
            mean,
        })
    }

    fn standard_normal(rng: &mut SimRng) -> f64 {
        // Box-Muller; one value per call keeps the stream simple and
        // deterministic.
        let u1 = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
        let u2 = rng.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(rank = k) ∝ 1 / k^s`.
///
/// Used for page and extent popularity in the synthetic memory and disk
/// traces (the paper cites Zipf usage patterns for both `websearch` and
/// `ytube`). Sampling is by
/// lower-bound search over the precomputed CDF, accelerated by a guide
/// table that maps the uniform draw to a narrow CDF bracket: popular head
/// ranks resolve in a single probe and the tail search touches only one
/// or two cache lines, instead of the O(log n) walk across the whole CDF
/// that dominated trace materialization.
///
/// # Example
/// ```
/// use wcs_simcore::{SimRng, dist::Zipf};
/// let z = Zipf::new(1000, 0.9).expect("valid");
/// let mut rng = SimRng::seed_from(1);
/// let r = z.sample_rank(&mut rng);
/// assert!((1..=1000).contains(&r));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` = number of CDF entries `<= j / guide_scale`, i.e. the
    /// lower-bound index for any `u` in bucket `j`. Bucket `j` of a draw
    /// `u` is `(u * guide_scale) as usize`, so the answer for `u` lies in
    /// `cdf[guide[j] .. guide[j + 1] + 1]`.
    guide: Vec<u32>,
    guide_scale: f64,
    mean_rank: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    /// Fails unless `n >= 1` and `s` is finite and non-negative.
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("Zipf requires n >= 1"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(ParamError::new("Zipf exponent must be finite and >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let mut mean_rank = 0.0;
        let mut last = 0.0;
        for (i, &c) in cdf.iter().enumerate() {
            mean_rank += (i as f64 + 1.0) * (c - last);
            last = c;
        }
        // Guide buckets proportional to n (clamped): one pass over the
        // CDF fills the count-below table for every bucket boundary.
        let buckets = n.clamp(16, 1 << 16);
        let guide_scale = buckets as f64;
        let mut guide = vec![0u32; buckets + 1];
        let mut j = 0usize;
        for (i, &c) in cdf.iter().enumerate() {
            // First bucket whose boundary exceeds c: all earlier bucket
            // boundaries have at least i + 1 entries at or below them.
            let bound = ((c * guide_scale) as usize + 1).min(buckets);
            while j < bound {
                guide[j] = i as u32;
                j += 1;
            }
        }
        while j <= buckets {
            guide[j] = n as u32;
            j += 1;
        }
        Ok(Zipf {
            cdf,
            guide,
            guide_scale,
            mean_rank,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is only a single rank (degenerate).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a 1-based rank.
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        self.rank_of(rng.uniform())
    }

    /// The 1-based rank a uniform draw `u` in `[0, 1)` maps to: the
    /// smallest `k` with `u < cdf[k - 1]` (an exact hit on `cdf[i]`
    /// belongs to the next rank). Exposed so chunk-parallel trace
    /// generators can sample from pre-split uniform streams.
    #[inline]
    pub fn rank_of(&self, u: f64) -> usize {
        // Guide bracket: every entry before `lo` is <= the bucket's lower
        // boundary <= u, and the lower bound for u is at most the next
        // bucket's count (entries <= its boundary) since u < boundary.
        let j = ((u * self.guide_scale) as usize).min(self.guide.len() - 2);
        let lo = self.guide[j] as usize;
        let hi = (self.guide[j + 1] as usize).min(self.cdf.len());
        // Lower bound within the bracket: first index with cdf[i] > u.
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c <= u);
        (idx + 1).min(self.cdf.len())
    }

    /// Probability of the given 1-based rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.cdf.len(), "rank out of range");
        let hi = self.cdf[rank - 1];
        let lo = if rank >= 2 { self.cdf[rank - 2] } else { 0.0 };
        hi - lo
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
    fn mean(&self) -> f64 {
        self.mean_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &dyn Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exp_mean_matches() {
        let d = Exp::new(0.25).unwrap();
        assert!((sample_mean(&d, 7, 50_000) - 0.25).abs() < 0.01);
        assert!(Exp::new(0.0).is_err());
    }

    #[test]
    fn lognormal_mean_and_positivity() {
        let d = LogNormal::from_mean_cv(10.0, 1.5).unwrap();
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let m = sample_mean(&d, 11, 200_000);
        assert!((m - 10.0).abs() / 10.0 < 0.05, "mean {m}");
        assert!(LogNormal::from_mean_cv(0.0, 1.0).is_err());
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0).unwrap();
        let mut rng = SimRng::seed_from(19);
        let mut counts = vec![0usize; 101];
        for _ in 0..50_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // pmf(1)/pmf(2) should be 2 for s = 1.
        assert!((z.pmf(1) / z.pmf(2) - 2.0).abs() < 1e-9);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0).unwrap();
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_guide_table_matches_full_lower_bound_search() {
        // The guide table is a pure accelerator: for every draw it must
        // produce exactly the rank a lower-bound search over the whole
        // CDF produces.
        for (n, s) in [(1, 0.9), (2, 0.0), (17, 1.2), (1000, 0.65), (50_000, 1.05)] {
            let z = Zipf::new(n, s).unwrap();
            let mut rng = SimRng::seed_from(0xC0FFEE ^ n as u64);
            for _ in 0..20_000 {
                let u = rng.uniform();
                let direct = z.cdf.partition_point(|&c| c <= u) + 1;
                assert_eq!(z.rank_of(u), direct.min(n), "n={n} s={s} u={u}");
            }
            // Boundary draws: bucket edges and exact CDF values.
            for k in [0usize, 1, n / 2, n.saturating_sub(1)] {
                let u = z.cdf[k.min(n - 1)];
                let direct = z.cdf.partition_point(|&c| c <= u) + 1;
                assert_eq!(z.rank_of(u), direct.min(n));
            }
            assert_eq!(z.rank_of(0.0), 1);
        }
    }

    #[test]
    fn zipf_param_validation() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn error_display() {
        let e = Exp::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("Exp mean"));
    }
}
