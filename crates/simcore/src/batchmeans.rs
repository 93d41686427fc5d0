//! Batch-means confidence intervals for simulation outputs.
//!
//! A single simulation run produces autocorrelated samples (a congested
//! queue stays congested), so the naive standard error understates
//! uncertainty. The batch-means method groups consecutive samples into
//! batches, treats batch means as approximately independent, and builds
//! a confidence interval from their spread — the standard technique for
//! steady-state discrete-event simulation output analysis.

/// A confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConfInterval {
    /// Point estimate (grand mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Number of batches used.
    pub batches: usize,
}

impl ConfInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Relative half-width (half-width / |mean|); infinity at mean 0.
    pub fn relative(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// True when the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

/// Two-sided 95% t-quantiles for small degrees of freedom; beyond the
/// table the normal 1.96 is close enough.
fn t_quantile_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Computes a 95% batch-means confidence interval over `samples` using
/// `batches` batches (10-30 is customary).
///
/// Returns `None` when there are not enough samples for at least two
/// full batches.
///
/// # Panics
/// Panics if `batches < 2`.
///
/// # Example
/// ```
/// use wcs_simcore::batchmeans::batch_means_ci;
/// let samples: Vec<f64> = (0..1000).map(|i| 5.0 + ((i % 7) as f64) * 0.1).collect();
/// let ci = batch_means_ci(&samples, 20).expect("enough samples");
/// assert!(ci.contains(5.3));
/// ```
pub fn batch_means_ci(samples: &[f64], batches: usize) -> Option<ConfInterval> {
    assert!(batches >= 2, "need at least two batches");
    let per_batch = samples.len() / batches;
    if per_batch == 0 {
        return None;
    }
    let mut batch_means = Vec::with_capacity(batches);
    for b in 0..batches {
        let chunk = &samples[b * per_batch..(b + 1) * per_batch];
        batch_means.push(chunk.iter().sum::<f64>() / per_batch as f64);
    }
    let grand = batch_means.iter().sum::<f64>() / batches as f64;
    let var = batch_means
        .iter()
        .map(|m| (m - grand) * (m - grand))
        .sum::<f64>()
        / (batches - 1) as f64;
    let se = (var / batches as f64).sqrt();
    Some(ConfInterval {
        mean: grand,
        half_width: t_quantile_95(batches - 1) * se,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn covers_true_mean_of_iid_noise() {
        let mut rng = SimRng::seed_from(5);
        let samples: Vec<f64> = (0..20_000).map(|_| 3.0 + rng.uniform()).collect();
        let ci = batch_means_ci(&samples, 20).unwrap();
        assert!(ci.contains(3.5), "CI [{:.4}, {:.4}]", ci.lo(), ci.hi());
        assert!(ci.relative() < 0.01);
    }

    #[test]
    fn autocorrelated_data_widens_interval() {
        // A slow random walk around 0: naive SE would be tiny; batch
        // means must report the real uncertainty.
        let mut rng = SimRng::seed_from(7);
        let mut x = 0.0;
        let samples: Vec<f64> = (0..10_000)
            .map(|_| {
                x += rng.uniform() - 0.5;
                x
            })
            .collect();
        let ci = batch_means_ci(&samples, 20).unwrap();
        let naive_se = {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
            (var / n).sqrt()
        };
        assert!(
            ci.half_width > 3.0 * 1.96 * naive_se,
            "batch CI {} vs naive {}",
            ci.half_width,
            1.96 * naive_se
        );
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(batch_means_ci(&[1.0, 2.0, 3.0], 10).is_none());
    }

    #[test]
    fn interval_endpoints() {
        let ci = ConfInterval {
            mean: 10.0,
            half_width: 1.0,
            batches: 20,
        };
        assert_eq!(ci.lo(), 9.0);
        assert_eq!(ci.hi(), 11.0);
        assert!(ci.contains(9.0) && ci.contains(11.0) && !ci.contains(11.01));
        assert!((ci.relative() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two batches")]
    fn rejects_one_batch() {
        batch_means_ci(&[1.0; 100], 1);
    }
}
