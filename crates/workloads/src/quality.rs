//! Output-quality metrics (the paper's §IV-C and Fig. 16).
//!
//! The paper scores trackers by "the average Euclidean distance between
//! the boxes containing the detected faces", clusterers by their
//! clustering cost, and the pricer by price error. Our synthetic streams
//! carry ground truth or come from known parameters (a point stream's
//! spread), so the same scores are computable without reference outputs.
//! Scores are normalized to `(0, 1]` where higher is better, so
//! distributions from different benchmarks can share Fig. 16's axes.

use serde::{Deserialize, Serialize};

/// Mean Euclidean distance between paired vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_euclidean(estimates: &[Vec<f64>], truths: &[Vec<f64>]) -> f64 {
    assert_eq!(estimates.len(), truths.len(), "paired sequences required");
    if estimates.is_empty() {
        return 0.0;
    }
    let total: f64 = estimates
        .iter()
        .zip(truths)
        .map(|(e, t)| {
            e.iter()
                .zip(t)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        })
        .sum();
    total / estimates.len() as f64
}

/// Map an error (lower = better, `>= 0`) to a quality score in `(0, 1]`
/// (higher = better).
pub fn error_to_quality(error: f64) -> f64 {
    1.0 / (1.0 + error.max(0.0))
}

/// An empirical distribution of per-run quality scores — one Fig. 16 box.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QualityDistribution {
    samples: Vec<f64>,
}

impl QualityDistribution {
    /// Collect a distribution from per-run scores.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN scores"));
        QualityDistribution { samples }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean score.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation of the scores.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Percentile in `[0, 100]` by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty or `p` is out of range.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "empty distribution");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let idx = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        self.samples[idx]
    }

    /// Median score.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Best (maximum) score — the paper's "oracle" reference is the best
    /// observed output.
    pub fn best(&self) -> f64 {
        *self.samples.last().expect("empty distribution")
    }

    /// Worst (minimum) score.
    pub fn worst(&self) -> f64 {
        *self.samples.first().expect("empty distribution")
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Rank-based distribution comparison (Mann–Whitney U, normalized to the
/// common-language effect size): the probability that a random draw from
/// `a` exceeds a random draw from `b`, with ties counted half.
///
/// 0.5 means the distributions are statistically indistinguishable —
/// Fig. 16's visual claim, made quantitative.
///
/// ```
/// use stats_workloads::quality::superiority;
/// assert_eq!(superiority(&[1.0, 2.0], &[1.0, 2.0]), 0.5);
/// assert_eq!(superiority(&[5.0, 6.0], &[1.0, 2.0]), 1.0);
/// ```
pub fn superiority(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for x in a {
        for y in b {
            if x > y {
                wins += 1.0;
            } else if x == y {
                wins += 0.5;
            }
        }
    }
    wins / (a.len() * b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_euclidean_basics() {
        let a = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let b = vec![vec![3.0, 4.0], vec![1.0, 1.0]];
        // Distances: 5 and 0 -> mean 2.5.
        assert!((mean_euclidean(&a, &b) - 2.5).abs() < 1e-12);
        assert_eq!(mean_euclidean(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn mean_euclidean_rejects_mismatch() {
        mean_euclidean(&[vec![0.0]], &[]);
    }

    #[test]
    fn quality_mapping_is_monotone() {
        assert_eq!(error_to_quality(0.0), 1.0);
        assert!(error_to_quality(1.0) > error_to_quality(2.0));
        assert!(error_to_quality(100.0) > 0.0);
        // Negative errors clamp.
        assert_eq!(error_to_quality(-5.0), 1.0);
    }

    #[test]
    fn distribution_statistics() {
        let d = QualityDistribution::from_samples(vec![0.5, 0.9, 0.7, 0.8, 0.6]);
        assert_eq!(d.len(), 5);
        assert!((d.mean() - 0.7).abs() < 1e-12);
        assert_eq!(d.median(), 0.7);
        assert_eq!(d.best(), 0.9);
        assert_eq!(d.worst(), 0.5);
        assert!(d.std_dev() > 0.1 && d.std_dev() < 0.2);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let d = QualityDistribution::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(d.percentile(0.0), 1.0);
        assert_eq!(d.percentile(100.0), 100.0);
        assert!((d.percentile(25.0) - 26.0).abs() <= 1.0);
    }

    #[test]
    fn superiority_is_complementary() {
        let a = [1.0, 3.0, 5.0];
        let b = [2.0, 4.0, 6.0];
        let ab = superiority(&a, &b);
        let ba = superiority(&b, &a);
        assert!((ab + ba - 1.0).abs() < 1e-12);
        assert!(ba > 0.5, "b stochastically dominates");
        assert_eq!(superiority(&[], &b), 0.5);
    }

    #[test]
    fn single_sample_distribution() {
        let d = QualityDistribution::from_samples(vec![0.42]);
        assert_eq!(d.mean(), 0.42);
        assert_eq!(d.std_dev(), 0.0);
        assert_eq!(d.median(), 0.42);
    }
}
