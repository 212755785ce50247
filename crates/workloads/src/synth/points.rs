//! Synthetic point streams for the clustering benchmarks.
//!
//! A batch keeps its points in one row-major coordinate buffer, the way
//! PARSEC's streamcluster keeps them in one `block` array: `dims`
//! consecutive values per point. This module is the only code that knows
//! the layout; everything else reads rows through [`PointBatch::points`]
//! and [`LabeledBatch::points`].

use serde::{Deserialize, Serialize};
use stats_core::rng::StatsRng;
use std::slice::ChunksExact;

/// A batch of unlabeled points (streamcluster's unit of work).
///
/// It carries no ground truth: streamcluster scores its clustering cost
/// against the generator's spread, not against the generating centers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointBatch {
    dims: usize,
    /// Row-major points, `dims` values each.
    coords: Vec<f64>,
}

impl PointBatch {
    /// A batch of `dims`-dimensional points, stored row-major.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is 0 or `coords` is not a whole number of rows.
    pub fn new(dims: usize, coords: Vec<f64>) -> Self {
        assert_rows(dims, coords.len());
        PointBatch { dims, coords }
    }

    /// The points, one `dims`-long slice each.
    pub fn points(&self) -> ChunksExact<'_, f64> {
        self.coords.chunks_exact(self.dims)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// A batch of labeled points (streamclassifier's unit of work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledBatch {
    dims: usize,
    /// Row-major points, `dims` values each.
    coords: Vec<f64>,
    /// True class of each point.
    labels: Vec<usize>,
}

impl LabeledBatch {
    /// A batch of `dims`-dimensional points, stored row-major, and one
    /// label per point.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is 0, `coords` is not a whole number of rows, or
    /// there is not one label per row.
    pub fn new(dims: usize, coords: Vec<f64>, labels: Vec<usize>) -> Self {
        assert_rows(dims, coords.len());
        assert_eq!(
            coords.len() / dims,
            labels.len(),
            "one label per point is required"
        );
        LabeledBatch {
            dims,
            coords,
            labels,
        }
    }

    /// The points, one `dims`-long slice each.
    pub fn points(&self) -> ChunksExact<'_, f64> {
        self.coords.chunks_exact(self.dims)
    }

    /// True class of each point.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

fn assert_rows(dims: usize, len: usize) {
    assert!(dims > 0, "points need at least one dimension");
    assert_eq!(len % dims, 0, "{len} coordinates are not rows of {dims}");
}

/// Parameters of a drifting Gaussian-mixture stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointStreamConfig {
    /// Dimensionality of the points.
    pub dims: usize,
    /// Number of generating clusters.
    pub clusters: usize,
    /// Points per batch.
    pub batch: usize,
    /// Within-cluster standard deviation.
    pub spread: f64,
    /// Per-batch drift of each cluster center.
    pub drift: f64,
}

impl PointStreamConfig {
    /// streamcluster-like stream: 8-D, 12 clusters, 64-point batches.
    pub fn cluster_stream() -> Self {
        PointStreamConfig {
            dims: 8,
            clusters: 12,
            batch: 64,
            spread: 0.15,
            drift: 0.02,
        }
    }

    /// streamclassifier-like stream: 16-D, 8 classes, 48-point batches.
    pub fn classifier_stream() -> Self {
        PointStreamConfig {
            dims: 16,
            clusters: 8,
            batch: 48,
            spread: 0.2,
            drift: 0.015,
        }
    }

    /// The unlabeled stream of `seed`, as [`generate`](Self::generate)
    /// draws it.
    fn stream(&self, seed: u64) -> Stream {
        Stream::new(*self, seed ^ 0x0C10_57E2)
    }

    /// The labeled stream of `seed`, as
    /// [`generate_labeled`](Self::generate_labeled) draws it.
    fn labeled_stream(&self, seed: u64) -> Stream {
        Stream::new(*self, seed ^ 0x0C1A_55ED)
    }

    /// Generate `n` unlabeled batches.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<PointBatch> {
        let mut stream = self.stream(seed);
        (0..n)
            .map(|_| PointBatch::new(self.dims, stream.next_batch(|_| {})))
            .collect()
    }

    /// Generate `n` labeled batches.
    pub fn generate_labeled(&self, n: usize, seed: u64) -> Vec<LabeledBatch> {
        let mut stream = self.labeled_stream(seed);
        (0..n)
            .map(|_| {
                let mut labels = Vec::with_capacity(self.batch);
                let coords = stream.next_batch(|c| labels.push(c));
                LabeledBatch::new(self.dims, coords, labels)
            })
            .collect()
    }
}

/// A drifting Gaussian mixture in mid-stream: the one generator behind
/// both kinds of batch.
struct Stream {
    cfg: PointStreamConfig,
    rng: StatsRng,
    /// The generating centers, row-major.
    centers: Vec<f64>,
}

impl Stream {
    fn new(cfg: PointStreamConfig, seed: u64) -> Self {
        let mut rng = StatsRng::from_seed_value(seed);
        let centers = (0..cfg.clusters * cfg.dims)
            .map(|_| rng.noise(1.0))
            .collect();
        Stream { cfg, rng, centers }
    }

    /// Drift the centers, then draw one batch of points around them,
    /// row-major. `label` sees the index of each point's center, in
    /// order.
    fn next_batch(&mut self, mut label: impl FnMut(usize)) -> Vec<f64> {
        let PointStreamConfig {
            dims,
            clusters,
            batch,
            spread,
            drift,
        } = self.cfg;
        for x in &mut self.centers {
            *x = (*x + self.rng.noise(drift)).clamp(-1.0, 1.0);
        }
        let mut coords = Vec::with_capacity(batch * dims);
        for _ in 0..batch {
            let c = self.rng.gen_range(0..clusters);
            let center = &self.centers[c * dims..(c + 1) * dims];
            coords.extend(center.iter().map(|x| x + self.rng.gaussian() * spread));
            label(c);
        }
        coords
    }

    /// The generating centers of the last batch drawn, one `dims`-long
    /// slice each.
    #[cfg(test)]
    fn centers(&self) -> ChunksExact<'_, f64> {
        self.centers.chunks_exact(self.cfg.dims)
    }
}

/// Squared Euclidean distance between two points.
#[cfg(test)]
pub(crate) fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_have_configured_shape() {
        let cfg = PointStreamConfig::cluster_stream();
        let batches = cfg.generate(10, 1);
        assert_eq!(batches.len(), 10);
        for b in &batches {
            assert_eq!(b.len(), cfg.batch);
            assert_eq!(b.points().len(), cfg.batch);
            for p in b.points() {
                assert_eq!(p.len(), cfg.dims);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PointStreamConfig::classifier_stream();
        assert_eq!(cfg.generate_labeled(5, 3), cfg.generate_labeled(5, 3));
        assert_ne!(cfg.generate_labeled(5, 3), cfg.generate_labeled(5, 4));
    }

    #[test]
    fn points_cluster_near_true_centers() {
        let cfg = PointStreamConfig::cluster_stream();
        let mut stream = cfg.stream(9);
        for _ in 0..20 {
            let coords = stream.next_batch(|_| {});
            for p in coords.chunks_exact(cfg.dims) {
                let nearest = stream
                    .centers()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min);
                // Within ~4 sigma of some center in most cases.
                assert!(nearest.sqrt() < cfg.spread * 8.0 * (cfg.dims as f64).sqrt());
            }
        }
    }

    #[test]
    fn centers_drift_over_time() {
        let cfg = PointStreamConfig::cluster_stream();
        let mut stream = cfg.stream(2);
        stream.next_batch(|_| {});
        let first = stream.centers.clone();
        for _ in 1..500 {
            stream.next_batch(|_| {});
        }
        let moved: f64 = first
            .chunks_exact(cfg.dims)
            .zip(stream.centers())
            .map(|(a, b)| dist2(a, b).sqrt())
            .sum::<f64>()
            / cfg.clusters as f64;
        assert!(moved > 0.05, "no drift: {moved}");
    }

    #[test]
    fn labels_are_valid_classes() {
        let cfg = PointStreamConfig::classifier_stream();
        let batches = cfg.generate_labeled(10, 1);
        for b in &batches {
            assert_eq!(b.points().len(), b.labels().len());
            assert!(b.labels().iter().all(|&l| l < cfg.clusters));
        }
    }

    #[test]
    fn rows_read_back_in_the_order_they_were_stored() {
        let b = PointBatch::new(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.points().collect::<Vec<_>>(), [[1.0, 2.0], [3.0, 4.0]]);
        let l = LabeledBatch::new(3, vec![0.0; 6], vec![1, 0]);
        assert_eq!(l.points().len(), 2);
        assert_eq!(l.labels(), [1, 0]);
    }

    #[test]
    #[should_panic(expected = "not rows of 3")]
    fn a_partial_row_is_refused() {
        PointBatch::new(3, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensions_are_refused() {
        LabeledBatch::new(0, vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "one label per point")]
    fn a_missing_label_is_refused() {
        LabeledBatch::new(2, vec![0.0; 4], vec![0]);
    }
}
