//! Descriptive statistics: numerically stable streaming moments
//! (Welford). The Monte-Carlo experiment harnesses aggregate the `E`
//! metric over 200 replicates with these accumulators.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long streams; merging two accumulators uses the
/// parallel-variance (Chan et al.) update, so Monte-Carlo shards computed on
/// different threads can be combined exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[inline]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn sample_sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Merge another accumulator into this one (exact parallel combine).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-14);
        // Sum of squared deviations = 32; sample variance = 32/7.
        assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-13);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0];
        let mut w1 = Welford::new();
        for &x in &a {
            w1.push(x);
        }
        let mut w2 = Welford::new();
        for &x in &b {
            w2.push(x);
        }
        w1.merge(&w2);

        let mut w = Welford::new();
        for &x in a.iter().chain(&b) {
            w.push(x);
        }
        assert_eq!(w1.count(), w.count());
        assert!((w1.mean() - w.mean()).abs() < 1e-12);
        assert!((w1.sample_variance() - w.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
