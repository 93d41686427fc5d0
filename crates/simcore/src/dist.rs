//! Random distributions used by the benchmark suite.
//!
//! The warehouse workloads in the paper are driven by a small set of
//! distributions: Zipf popularity (search keywords, video popularity),
//! exponential think/inter-arrival times, log-normal object sizes
//! (mail bodies, attachments), and empirical mixes.
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

/// A degenerate distribution: always returns the same value.
///
/// # Example
/// ```
/// use wcs_simcore::{SimRng, dist::{Constant, Distribution}};
/// let d = Constant::new(4.0).expect("non-negative");
/// assert_eq!(d.sample(&mut SimRng::seed_from(0)), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(f64);

impl Constant {
    /// Creates the distribution.
    ///
    /// # Errors
    /// Fails if `value` is negative or non-finite.
    pub fn new(value: f64) -> Result<Self, ParamError> {
        if !value.is_finite() || value < 0.0 {
            return Err(ParamError::new("Constant value must be finite and >= 0"));
        }
        Ok(Constant(value))
    }
}

impl Distribution for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// Uniform distribution over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates the distribution.
    ///
    /// # Errors
    /// Fails unless `0 <= lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo < hi) {
            return Err(ParamError::new("Uniform requires 0 <= lo < hi"));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_range(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
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
/// Used for search keyword popularity and video popularity (the paper cites
/// Zipf usage patterns for both `websearch` and `ytube`). Sampling is by
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

/// An empirical mixture: samples one of a fixed set of values with given
/// weights (e.g. the LoadSim action mix for `webmail`).
#[derive(Debug, Clone)]
pub struct Empirical {
    values: Vec<f64>,
    cdf: Vec<f64>,
    mean: f64,
}

impl Empirical {
    /// Creates a mixture from `(value, weight)` pairs.
    ///
    /// # Errors
    /// Fails if the list is empty, any value is negative/non-finite, or any
    /// weight is non-positive/non-finite.
    pub fn new(points: &[(f64, f64)]) -> Result<Self, ParamError> {
        if points.is_empty() {
            return Err(ParamError::new("Empirical requires at least one point"));
        }
        let mut values = Vec::with_capacity(points.len());
        let mut cdf = Vec::with_capacity(points.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        for &(v, w) in points {
            if !v.is_finite() || v < 0.0 {
                return Err(ParamError::new("Empirical values must be finite and >= 0"));
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(ParamError::new("Empirical weights must be finite and > 0"));
            }
            acc += w;
            values.push(v);
            cdf.push(acc);
            mean += v * w;
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Empirical {
            values,
            cdf,
            mean: mean / total,
        })
    }

    /// Draws the index of a mixture component.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.values.len() - 1),
        }
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.values[self.sample_index(rng)]
    }
    fn mean(&self) -> f64 {
        self.mean
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
    fn constant_is_constant() {
        let d = Constant::new(2.5).unwrap();
        assert_eq!(sample_mean(&d, 0, 10), 2.5);
        assert!(Constant::new(-1.0).is_err());
        assert!(Constant::new(f64::NAN).is_err());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 4.0).unwrap();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((sample_mean(&d, 5, 20_000) - 3.0).abs() < 0.02);
        assert!(Uniform::new(4.0, 2.0).is_err());
        assert!(Uniform::new(-1.0, 2.0).is_err());
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
    fn empirical_mixture_weights() {
        let d = Empirical::new(&[(1.0, 3.0), (5.0, 1.0)]).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let m = sample_mean(&d, 23, 100_000);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[(1.0, 0.0)]).is_err());
        assert!(Empirical::new(&[(-1.0, 1.0)]).is_err());
    }

    #[test]
    fn error_display() {
        let e = Exp::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("Exp mean"));
    }
}

/// Weibull distribution, parameterized by shape `k` and scale `lambda` —
/// the classic fit for disk-service and failure-time data (k < 1 gives
/// heavy tails, k = 1 reduces to the exponential).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates the distribution.
    ///
    /// # Errors
    /// Fails unless both parameters are finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, ParamError> {
        if !(shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0) {
            return Err(ParamError::new("Weibull requires shape > 0 and scale > 0"));
        }
        Ok(Weibull { shape, scale })
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF: scale * (-ln(1-u))^(1/k).
        let u = 1.0 - rng.uniform(); // (0, 1]
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        // scale * Gamma(1 + 1/k), via the Lanczos-free Stirling-series
        // gamma below (adequate for k in the simulation range).
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }
}

/// Gamma function by the Lanczos approximation (g = 7, n = 9), accurate
/// to ~1e-13 over the positive reals the simulators use.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Geometric distribution over `1, 2, 3, ...` with success probability
/// `p` (mean `1/p`) — session lengths, retry counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates the distribution.
    ///
    /// # Errors
    /// Fails unless `p` is in `(0, 1]`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(p.is_finite() && p > 0.0 && p <= 1.0) {
            return Err(ParamError::new("Geometric requires p in (0, 1]"));
        }
        Ok(Geometric { p })
    }

    /// Draws a count in `1..`.
    pub fn sample_count(&self, rng: &mut SimRng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse CDF over the geometric support: ceil(ln(1-u)/ln(1-p)).
        let u = rng.uniform();
        let n = ((1.0 - u).ln() / (1.0 - self.p).ln()).ceil();
        n.max(1.0) as u64
    }
}

impl Distribution for Geometric {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_count(rng) as f64
    }
    fn mean(&self) -> f64 {
        1.0 / self.p
    }
}

#[cfg(test)]
mod extra_dist_tests {
    use super::*;

    fn sample_mean(d: &dyn Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn weibull_exponential_special_case() {
        // k = 1 is Exp(scale): mean = scale.
        let d = Weibull::new(1.0, 0.02).unwrap();
        assert!((d.mean() - 0.02).abs() < 1e-9);
        let m = sample_mean(&d, 3, 100_000);
        assert!((m - 0.02).abs() / 0.02 < 0.03, "mean {m}");
    }

    #[test]
    fn weibull_shape_two_mean() {
        // k = 2: mean = scale * Gamma(1.5) = scale * sqrt(pi)/2.
        let d = Weibull::new(2.0, 1.0).unwrap();
        let expect = (std::f64::consts::PI).sqrt() / 2.0;
        assert!((d.mean() - expect).abs() < 1e-9, "mean {}", d.mean());
        let m = sample_mean(&d, 5, 100_000);
        assert!((m - expect).abs() / expect < 0.02, "sampled {m}");
    }

    #[test]
    fn weibull_heavy_tail_below_one() {
        let d = Weibull::new(0.5, 1.0).unwrap();
        // k = 0.5: mean = Gamma(3) = 2.
        assert!((d.mean() - 2.0).abs() < 1e-9);
        assert!(Weibull::new(0.0, 1.0).is_err());
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn geometric_mean_and_support() {
        let d = Geometric::new(0.125).unwrap();
        assert_eq!(d.mean(), 8.0);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert!(d.sample_count(&mut rng) >= 1);
        }
        let m = sample_mean(&d, 9, 100_000);
        assert!((m - 8.0).abs() / 8.0 < 0.03, "mean {m}");
        assert_eq!(Geometric::new(1.0).unwrap().sample_count(&mut rng), 1);
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
    }
}
