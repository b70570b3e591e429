//! Probability distributions: sampling, densities, CDFs and quantiles.
//!
//! Everything is generic over [`rand::Rng`] so experiments stay
//! reproducible from explicit seeds. Sampling uses textbook methods:
//! Marsaglia's polar method for the Gaussian, inverse-CDF for the
//! truncated Gaussian, Cholesky-factor colouring for the multivariate
//! Gaussian, and the Walker/Vose alias table for `O(1)` categorical
//! draws (the hot path of Algorithm 2's multinomial repair draws).

use rand::{Rng, RngCore};

use crate::error::{Result, StatsError};
use crate::linalg::Matrix;
use crate::special::{inverse_normal_cdf, normal_cdf, normal_pdf};

/// A univariate continuous distribution.
pub trait ContinuousDistribution {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` samples.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) at `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;
}

// ---------------------------------------------------------------------------
// Gaussian
// ---------------------------------------------------------------------------

/// The Gaussian distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// A Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    /// Requires finite `mean` and positive finite `sd`.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                reason: format!("must be finite, got {mean}"),
            });
        }
        if !(sd > 0.0) || !sd.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sd",
                reason: format!("must be positive and finite, got {sd}"),
            });
        }
        Ok(Self { mean, sd })
    }

    /// The standard Gaussian `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mean: 0.0, sd: 1.0 }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }
}

/// One standard-normal variate via Marsaglia's polar method.
pub(crate) fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

impl ContinuousDistribution for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        normal_pdf((x - self.mean) / self.sd) / self.sd
    }

    fn cdf(&self, x: f64) -> f64 {
        normal_cdf((x - self.mean) / self.sd)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * inverse_normal_cdf(p)
    }
}

// ---------------------------------------------------------------------------
// Truncated Gaussian
// ---------------------------------------------------------------------------

/// A Gaussian restricted (and renormalized) to `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    base: Normal,
    lo: f64,
    hi: f64,
    cdf_lo: f64,
    cdf_hi: f64,
}

impl TruncatedNormal {
    /// A Gaussian `N(mean, sd²)` truncated to `[lo, hi]`.
    ///
    /// # Errors
    /// Requires a valid base Gaussian, `lo < hi`, and a truncation window
    /// carrying strictly positive mass.
    pub fn new(mean: f64, sd: f64, lo: f64, hi: f64) -> Result<Self> {
        let base = Normal::new(mean, sd)?;
        if !(lo < hi) {
            return Err(StatsError::InvalidParameter {
                name: "truncation bounds",
                reason: format!("need lo < hi, got [{lo}, {hi}]"),
            });
        }
        let cdf_lo = base.cdf(lo);
        let cdf_hi = base.cdf(hi);
        if !(cdf_hi - cdf_lo > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "truncation bounds",
                reason: format!("window [{lo}, {hi}] carries no mass under N({mean}, {sd}²)"),
            });
        }
        Ok(Self {
            base,
            lo,
            hi,
            cdf_lo,
            cdf_hi,
        })
    }
}

impl ContinuousDistribution for TruncatedNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling on the truncated window; exact and cheap
        // at the mild truncations the data generators use.
        let u = self.cdf_lo + (self.cdf_hi - self.cdf_lo) * rng.gen::<f64>();
        self.base
            .quantile(u.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON))
            .clamp(self.lo, self.hi)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.base.pdf(x) / (self.cdf_hi - self.cdf_lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (self.base.cdf(x) - self.cdf_lo) / (self.cdf_hi - self.cdf_lo)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let u = self.cdf_lo + (self.cdf_hi - self.cdf_lo) * p.clamp(0.0, 1.0);
        self.base.quantile(u).clamp(self.lo, self.hi)
    }
}

// ---------------------------------------------------------------------------
// Bernoulli
// ---------------------------------------------------------------------------

/// A Bernoulli trial returning `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// A Bernoulli with success probability `p ∈ [0, 1]`.
    ///
    /// # Errors
    /// Rejects probabilities outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(StatsError::InvalidParameter {
                name: "p",
                reason: format!("must be in [0,1], got {p}"),
            });
        }
        Ok(Self { p })
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draw one trial.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }
}

// ---------------------------------------------------------------------------
// Categorical (alias method)
// ---------------------------------------------------------------------------

/// A categorical distribution over `{0, …, k−1}` with `O(1)` sampling via
/// the Walker/Vose alias table.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    probs: Vec<f64>,
    // Alias table: per cell, the acceptance threshold and the alias index.
    threshold: Vec<f64>,
    alias: Vec<usize>,
}

impl Categorical {
    /// A categorical from non-negative weights (normalized internally).
    ///
    /// # Errors
    /// Requires a non-empty weight vector with finite, non-negative
    /// entries and strictly positive total mass.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(StatsError::EmptyInput("categorical weights"));
        }
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if w < 0.0 || !w.is_finite() {
                return Err(StatsError::InvalidProbabilities(format!(
                    "weight[{i}] = {w} is negative or non-finite"
                )));
            }
            total += w;
        }
        if !(total > 0.0) {
            return Err(StatsError::InvalidProbabilities(format!(
                "total weight {total} is not positive"
            )));
        }
        let k = weights.len();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Vose's stable alias-table construction.
        let mut threshold = vec![0.0f64; k];
        let mut alias = vec![0usize; k];
        let mut scaled: Vec<f64> = probs.iter().map(|p| p * k as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(k);
        let mut large: Vec<usize> = Vec::with_capacity(k);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            threshold[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in small.iter().chain(&large) {
            threshold[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self {
            probs,
            threshold,
            alias,
        })
    }

    /// The normalized probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there is exactly one category (`len` is never 0).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one category index in `O(1)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.probs.len();
        let cell = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.threshold[cell] {
            cell
        } else {
            self.alias[cell]
        }
    }
}

// ---------------------------------------------------------------------------
// Multivariate Gaussian
// ---------------------------------------------------------------------------

/// A multivariate Gaussian `N(mean, Σ)`, sampled by colouring standard
/// normals with the Cholesky factor of `Σ`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    chol: Matrix,
}

impl MultivariateNormal {
    /// A multivariate Gaussian with the given mean and covariance.
    ///
    /// # Errors
    /// Requires a square, symmetric-positive-definite covariance whose
    /// dimension matches the mean.
    pub fn new(mean: Vec<f64>, cov: Matrix) -> Result<Self> {
        if mean.is_empty() {
            return Err(StatsError::EmptyInput("multivariate normal mean"));
        }
        if cov.rows() != mean.len() || cov.cols() != mean.len() {
            return Err(StatsError::LengthMismatch {
                what: "mean vs covariance",
                left: mean.len(),
                right: cov.rows(),
            });
        }
        let chol = cov.cholesky()?;
        Ok(Self { mean, chol })
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Draw one vector.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let d = self.mean.len();
        let z: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        let mut x = self.mean.clone();
        for i in 0..d {
            for j in 0..=i {
                x[i] += self.chol.get(i, j) * z[j];
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = Normal::new(3.0, 2.0).unwrap();
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn normal_cdf_quantile_roundtrip() {
        let dist = Normal::new(-1.0, 0.5).unwrap();
        for p in [0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = dist.quantile(p);
            assert!((dist.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
        // pdf integrates to ~1 on a wide grid.
        let total: f64 = (0..4000)
            .map(|i| dist.pdf(-6.0 + 10.0 * i as f64 / 3999.0) * (10.0 / 3999.0))
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let dist = TruncatedNormal::new(40.0, 10.0, 20.0, 65.0).unwrap();
        for _ in 0..10_000 {
            let x = dist.sample(&mut rng);
            assert!((20.0..=65.0).contains(&x), "{x}");
        }
        assert_eq!(dist.cdf(10.0), 0.0);
        assert_eq!(dist.cdf(70.0), 1.0);
        let q = dist.quantile(0.5);
        assert!((dist.cdf(q) - 0.5).abs() < 1e-9);
        assert!(TruncatedNormal::new(0.0, 1.0, 2.0, 1.0).is_err());
        // A window far in the tail has no computable mass.
        assert!(TruncatedNormal::new(0.0, 1.0, 300.0, 301.0).is_err());
    }

    #[test]
    fn categorical_alias_matches_pmf() {
        let mut rng = StdRng::seed_from_u64(4);
        let weights = [0.5, 0.0, 1.5, 2.0];
        let cat = Categorical::new(&weights).unwrap();
        assert_eq!(cat.probs().len(), 4);
        assert!((cat.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[cat.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-mass category must never be drawn");
        for (i, &c) in counts.iter().enumerate() {
            let have = c as f64 / n as f64;
            assert!((have - cat.probs()[i]).abs() < 0.01, "category {i}: {have}");
        }
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[-0.1, 1.0]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Bernoulli::new(0.3).unwrap();
        let hits = (0..50_000).filter(|_| b.sample(&mut rng)).count();
        let have = hits as f64 / 50_000.0;
        assert!((have - 0.3).abs() < 0.01, "{have}");
        assert!(Bernoulli::new(1.2).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(!Bernoulli::new(0.0).unwrap().sample(&mut rng));
        assert!(Bernoulli::new(1.0).unwrap().sample(&mut rng));
    }

    #[test]
    fn multivariate_normal_reproduces_covariance() {
        let mut rng = StdRng::seed_from_u64(7);
        let cov = Matrix::from_rows(2, 2, vec![1.0, 0.6, 0.6, 1.0]).unwrap();
        let mvn = MultivariateNormal::new(vec![1.0, -1.0], cov).unwrap();
        assert_eq!(mvn.dim(), 2);
        let n = 100_000;
        let (mut mx, mut my, mut sxy, mut sxx) = (0.0, 0.0, 0.0, 0.0);
        let samples: Vec<Vec<f64>> = (0..n).map(|_| mvn.sample(&mut rng)).collect();
        for s in &samples {
            mx += s[0];
            my += s[1];
        }
        mx /= n as f64;
        my /= n as f64;
        for s in &samples {
            sxy += (s[0] - mx) * (s[1] - my);
            sxx += (s[0] - mx) * (s[0] - mx);
        }
        sxy /= n as f64;
        sxx /= n as f64;
        assert!((mx - 1.0).abs() < 0.02, "mx {mx}");
        assert!((my + 1.0).abs() < 0.02, "my {my}");
        assert!((sxx - 1.0).abs() < 0.03, "sxx {sxx}");
        assert!((sxy - 0.6).abs() < 0.03, "sxy {sxy}");
        // Dimension mismatch and non-PD covariances are rejected.
        let bad = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(MultivariateNormal::new(vec![0.0, 0.0], bad).is_err());
        let cov3 =
            Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        assert!(MultivariateNormal::new(vec![0.0, 0.0], cov3).is_err());
    }
}
