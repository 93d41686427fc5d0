//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time, counted in integer nanoseconds
/// from the start of the simulation.
///
/// Using integers (rather than `f64` seconds) keeps event ordering exact and
/// simulation runs bit-reproducible across platforms.
///
/// # Example
/// ```
/// use wcs_simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (lossy above ~2^53 ns).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction: returns `ZERO` rather than wrapping when
    /// `other` is later than `self`.
    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time in integer nanoseconds.
///
/// # Example
/// ```
/// use wcs_simcore::SimDuration;
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_nanos(), 2_500_000);
/// assert!((d.as_secs_f64() - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from float seconds, rounding to the nearest
    /// nanosecond (halves up) and saturating at `u64::MAX` ns. Negative
    /// and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_nanos(secs * 1e9))
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in float seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `ns.round().min(u64::MAX as f64) as u64` for `ns >= 0`, without the
/// libm call `f64::round` compiles to on the baseline x86-64 target.
///
/// Below 2^52 both the cast back and `ns - whole` are exact, so the
/// remainder test is exact, and the conversions go through `i64`, each
/// a single instruction there (the unsigned ones are not); from 2^52 on
/// `ns` is already whole; from 2^64 on the cast saturates, and so does
/// the increment.
#[inline]
fn round_nanos(ns: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if ns < EXACT {
        let whole = ns as i64;
        return (whole + i64::from(ns - whole as f64 >= 0.5)) as u64;
    }
    let whole = ns as u64;
    whole.saturating_add(u64::from(ns - whole as f64 >= 0.5))
}

/// Calls `probe` with every value the rounding tests sweep, read as
/// nanoseconds: special values, exact half-way points `k + 0.5` and
/// both neighbouring doubles for every `k <= 10^6`, runs of consecutive
/// doubles in `[2^51, 2^53)`, around `2^64` and from `2^65`, and 10^7
/// seeded random bit patterns, every other one with its exponent
/// remapped into `[2^-4, 2^68)`.
#[cfg(test)]
pub(crate) fn rounding_probes(mut probe: impl FnMut(f64)) {
    for x in [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -0.5,
        -1e300,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MAX,
        1e20,
        1e300,
    ] {
        probe(x);
    }
    for k in 0..=1_000_000u32 {
        let half = f64::from(k) + 0.5;
        probe(half.next_down());
        probe(half);
        probe(half.next_up());
    }
    let runs = |probe: &mut dyn FnMut(f64), from: f64, up: bool| {
        let mut x = from;
        for _ in 0..4096 {
            probe(x);
            x = if up { x.next_up() } else { x.next_down() };
        }
    };
    for p in [51, 52, 53, 64] {
        let edge = 2f64.powi(p);
        runs(&mut probe, edge, true);
        runs(&mut probe, edge.next_down(), false);
    }
    runs(&mut probe, 1.5 * 2f64.powi(51), true);
    runs(&mut probe, 1.5 * 2f64.powi(52), true);
    runs(&mut probe, 2f64.powi(65), true);
    let mut rng = crate::SimRng::seed_from(0x5EED_2024);
    for i in 0..10_000_000 {
        let bits = rng.next_u64();
        if i % 2 == 0 {
            probe(f64::from_bits(bits));
        } else {
            let exponent = 1019 + (bits >> 52) % 72;
            probe(f64::from_bits((exponent << 52) | (bits & ((1 << 52) - 1))));
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_sub`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 7_000);
        assert_eq!(((t + d) - t).as_nanos(), 2_000);
    }

    #[test]
    fn duration_from_float_seconds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-6).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    /// `from_secs_f64` as it was written with `f64::round`: the
    /// reference the libm-free rounding must match bit for bit.
    fn reference_from_secs(secs: f64) -> u64 {
        if !secs.is_finite() || secs <= 0.0 {
            return 0;
        }
        (secs * 1e9).round().min(u64::MAX as f64) as u64
    }

    #[test]
    fn rounding_matches_the_libm_reference() {
        rounding_probes(|x| {
            let got = SimDuration::from_secs_f64(x).as_nanos();
            assert_eq!(got, reference_from_secs(x), "{x:e} s");
            if x >= 0.0 {
                let want = x.round().min(u64::MAX as f64) as u64;
                assert_eq!(round_nanos(x), want, "{x:e} ns");
            }
        });
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_sub(late), SimDuration::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert_eq!(format!("{}", SimDuration::from_millis(1)), "0.001000s");
        assert_eq!(format!("{}", SimTime::from_nanos(500)), "0.000001s");
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_micros(10);
        assert_eq!((d * 3).as_nanos(), 30_000);
        assert_eq!((d / 2).as_nanos(), 5_000);
        assert_eq!((d * 0.5).as_nanos(), 5_000);
    }
}
