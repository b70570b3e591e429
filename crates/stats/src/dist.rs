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
// Alias tables
// ---------------------------------------------------------------------------

/// Walker/Vose alias tables for the rows of a weight matrix: each row is
/// a categorical distribution over its `cols` columns, drawn in `O(1)`.
/// One flat threshold and one flat alias array serve every row, so a
/// table costs 12 bytes per cell however many rows it holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AliasTable {
    cols: usize,
    // Per cell, row-major: the acceptance threshold and the alias column.
    threshold: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// The tables of `rows`, each a row of non-negative weights
    /// (normalized internally) as long as the first.
    ///
    /// # Errors
    /// The index of the first row that is empty, of another length than
    /// the first or longer than `u32::MAX`, holds a negative or
    /// non-finite weight or has no positive total, with the fault.
    pub fn new<'a>(
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) -> std::result::Result<Self, (usize, StatsError)> {
        let mut rows = rows.into_iter().enumerate().peekable();
        let cols = rows.peek().map_or(0, |(_, row)| row.len());
        let cells = rows.size_hint().0 * cols;
        let (mut threshold, mut alias) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
        let (mut small, mut large) = (Vec::with_capacity(cols), Vec::with_capacity(cols));
        for (r, weights) in rows {
            let total = row_total(weights, cols).map_err(|e| (r, e))?;
            // Vose's stable construction. The row's thresholds hold the
            // scaled masses while it runs: a cell leaves the stacks with
            // its scaled mass as its threshold, and only cells still on a
            // stack change.
            let start = threshold.len();
            threshold.extend(weights.iter().map(|w| (w / total) * cols as f64));
            alias.resize(start + cols, 0);
            let (scaled, to) = (&mut threshold[start..], &mut alias[start..]);
            // Plain if/else pushes: pushing through an `if` that picks the
            // stack measured twice as slow.
            for (i, &s) in (0u32..).zip(scaled.iter()) {
                if s < 1.0 {
                    small.push(i);
                } else {
                    large.push(i);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                large.pop();
                to[s as usize] = l;
                let rest = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                scaled[l as usize] = rest;
                if rest < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
            for i in small.drain(..).chain(large.drain(..)) {
                scaled[i as usize] = 1.0;
                to[i as usize] = i;
            }
        }
        Ok(Self {
            cols,
            threshold,
            alias,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.threshold.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Draw a column of row `row` in `O(1)`: one uniform column, then
    /// one uniform against its threshold.
    pub fn sample<R: Rng + ?Sized>(&self, row: usize, rng: &mut R) -> usize {
        let cell = rng.gen_range(0..self.cols);
        let at = row * self.cols + cell;
        if rng.gen::<f64>() < self.threshold[at] {
            cell
        } else {
            self.alias[at] as usize
        }
    }
}

/// The total of one alias-table row of `cols` finite, non-negative
/// weights.
fn row_total(weights: &[f64], cols: usize) -> Result<f64> {
    if weights.is_empty() {
        return Err(StatsError::EmptyInput("categorical weights"));
    }
    if weights.len() != cols || cols > u32::MAX as usize {
        return Err(StatsError::LengthMismatch {
            what: "alias-table row vs columns (at most u32::MAX)",
            left: weights.len(),
            right: cols,
        });
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
    Ok(total)
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
    use proptest::prelude::*;
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
    fn alias_table_matches_pmf() {
        let mut rng = StdRng::seed_from_u64(4);
        let weights = [0.5, 0.0, 1.5, 2.0];
        let table = AliasTable::new([&weights[..]]).unwrap();
        assert_eq!(table.rows(), 1);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(0, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-mass category must never be drawn");
        for (i, &c) in counts.iter().enumerate() {
            let have = c as f64 / n as f64;
            assert!(
                (have - weights[i] / 4.0).abs() < 0.01,
                "category {i}: {have}"
            );
        }
        let fault = |rows: &[&[f64]]| AliasTable::new(rows.iter().copied()).unwrap_err();
        assert!(matches!(fault(&[&[]]), (0, StatsError::EmptyInput(_))));
        assert_eq!(fault(&[&[1.0], &[-0.1]]).0, 1);
        assert_eq!(fault(&[&[1.0, 1.0], &[1.0, 1.0], &[0.0, 0.0]]).0, 2);
        assert_eq!(fault(&[&[f64::NAN]]).0, 0);
        assert_eq!(fault(&[&[1.0], &[1.0, 2.0]]).0, 1);
        assert_eq!(AliasTable::default().rows(), 0);
    }

    #[test]
    fn a_rows_draws_do_not_depend_on_the_other_rows() {
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..7).map(|c| ((r * 7 + c) % 4) as f64).collect())
            .collect();
        let table = AliasTable::new(rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(table.rows(), 5);
        let draws = |t: &AliasTable, row: usize, seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..500).map(|_| t.sample(row, &mut rng)).collect()
        };
        for (r, row) in rows.iter().enumerate() {
            let alone = AliasTable::new([row.as_slice()]).unwrap();
            for seed in [0, 1, 7, 42, 1_000_003] {
                assert_eq!(draws(&table, r, seed), draws(&alone, 0, seed), "row {r}");
            }
        }
    }

    /// The probability the table gives each column of `row`: the
    /// column's own threshold share, plus the rejected share of every
    /// cell aliased to it.
    fn implied_pmf(table: &AliasTable, row: usize) -> Vec<f64> {
        let k = table.cols;
        let mut pmf = vec![0.0; k];
        for c in 0..k {
            let at = row * k + c;
            pmf[c] += table.threshold[at] / k as f64;
            pmf[table.alias[at] as usize] += (1.0 - table.threshold[at]) / k as f64;
        }
        pmf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every row's table gives each column exactly its normalized
        /// weight, zero-weight columns included.
        #[test]
        fn alias_table_pmf_is_the_normalized_row(
            cells in proptest::collection::vec((0.0f64..1.0, 0u8..3), 1..=800),
            cols in 1usize..=200,
        ) {
            // One weight in three is exactly zero; whole rows only.
            let cols = cols.min(cells.len());
            let weights: Vec<f64> = cells[..cells.len() / cols * cols]
                .iter()
                .map(|&(w, z)| if z == 0 { 0.0 } else { w })
                .collect();
            let rows: Vec<&[f64]> = weights.chunks(cols).collect();
            prop_assume!(rows.iter().all(|r| r.iter().sum::<f64>() > 0.0));
            let table = AliasTable::new(rows.iter().copied()).unwrap();
            prop_assert_eq!(table.rows(), rows.len());
            for (r, row) in rows.iter().enumerate() {
                let total: f64 = row.iter().sum();
                for (j, (have, w)) in implied_pmf(&table, r).iter().zip(*row).enumerate() {
                    prop_assert!(
                        (have - w / total).abs() < 1e-12,
                        "row {r} column {j}: {have} vs {}",
                        w / total
                    );
                }
            }
        }
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
