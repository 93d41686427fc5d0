//! Deterministic random-number generation.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::SimDuration;

/// A seedable, deterministic random-number generator for simulations.
///
/// Thin wrapper around a fixed algorithm (`StdRng`) so every simulator in
/// the workspace draws from the same, reproducible stream for a given seed.
/// Prefer [`SimRng::fork`] to derive independent streams for sub-components
/// instead of sharing one generator across them — forked streams keep
/// results stable when one component changes how many numbers it draws.
///
/// # Example
/// ```
/// use wcs_simcore::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Builds the generator for substream `stream` of base seed `seed`
    /// without a parent generator — the stream-splitting primitive for
    /// parallel tasks.
    ///
    /// Unlike [`fork`](SimRng::fork), which advances the parent (and so
    /// depends on *when* it is called), `stream` is a pure function of
    /// `(seed, stream)`: task `i` of a parallel fan-out draws exactly the
    /// same numbers no matter which thread runs it, in what order, or at
    /// what thread count. Distinct stream labels yield statistically
    /// independent generators (SplitMix64 finalizer over the mixed pair).
    ///
    /// # Example
    /// ```
    /// use wcs_simcore::SimRng;
    /// let mut a = SimRng::stream(7, 3);
    /// let mut b = SimRng::stream(7, 3);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// assert_ne!(SimRng::stream(7, 4).next_u64(), SimRng::stream(7, 3).next_u64());
    /// ```
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        // SplitMix64 finalizer over the golden-ratio-mixed pair: cheap,
        // well-dispersed, and stable across platforms.
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Derives an independent child stream labelled by `stream`.
    ///
    /// Children with distinct labels are statistically independent of each
    /// other and of the parent's future output.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the label into fresh state drawn from the parent.
        let base = self.inner.gen::<u64>();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// A uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let u = 1.0 - self.uniform(); // in (0, 1]
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut parent3 = SimRng::seed_from(9);
        let mut other = parent3.fork(6);
        let mut c3 = SimRng::seed_from(9).fork(5);
        assert_ne!(other.next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let r = rng.uniform_range(3.0, 5.0);
            assert!((3.0..5.0).contains(&r));
            let i = rng.index(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn index_draws_what_the_rejection_zone_formula_draws() {
        // `index` must stay bit-identical to the plain rejection sampler:
        // accept `v < u64::MAX - u64::MAX % span`, return `v % span`.
        for span in [1u64, 2, 3, (1 << 32) + 1, 1 << 63, u64::MAX] {
            let mut rng = SimRng::seed_from(span ^ 0x5EED);
            let mut raw = rng.clone();
            let zone = u64::MAX - (u64::MAX % span);
            for _ in 0..2_000 {
                let want = loop {
                    let v = raw.next_u64();
                    if v < zone {
                        break v % span;
                    }
                };
                let n = usize::try_from(span).expect("64-bit usize");
                assert_eq!(rng.index(n) as u64, want, "span {span}");
            }
        }
    }

    #[test]
    fn exp_duration_mean_is_close() {
        let mut rng = SimRng::seed_from(11);
        let mean = SimDuration::from_micros(100);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp_duration(mean).as_secs_f64()).sum();
        let observed = total / n as f64;
        assert!((observed - 1e-4).abs() / 1e-4 < 0.05, "mean {observed}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(2);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(7.0));
    }
}
