//! d-variate Gaussian kernel density estimation (product kernel,
//! per-dimension Silverman bandwidths).
//!
//! The joint repair lifts Algorithm 1 to a `d`-axis product support, and
//! needs joint `s|u`-conditional pmfs on that grid. This estimator is a
//! Gaussian product kernel with per-dimension Silverman bandwidths scaled
//! to the `d`-optimal `n^{-1/(d+4)}` rate.
//!
//! Its arithmetic order — the bandwidth rate fix, the sample-major grid
//! accumulation with its `1e-300` prefix skip, and the multiplication
//! order of the normalization — defines the bytes of every joint plan
//! the CLI writes, which `tests/golden.rs` pins. Reordering any of them
//! is a byte change, not a refactor.

use crate::error::{Result, StatsError};
use crate::kde::silverman_bandwidth;

/// A d-variate Gaussian-product-kernel density estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianKdeNd {
    /// One sample column per dimension, all the same length.
    cols: Vec<Vec<f64>>,
    /// Per-dimension bandwidths.
    bandwidth: Vec<f64>,
}

impl GaussianKdeNd {
    /// Fit to column-major observations (`cols[a][i]` = coordinate `a`
    /// of sample `i`) with per-dimension Silverman bandwidths, each
    /// scaled by `n^{-1/(d+4)}` instead of `n^{-1/5}` (the d-optimal
    /// rate; `n^{-1/6}` at `d = 2`).
    ///
    /// # Errors
    /// Requires at least one dimension and non-empty, equal-length,
    /// finite columns with positive spread in every dimension.
    pub fn fit(cols: &[&[f64]]) -> Result<Self> {
        if cols.is_empty() {
            return Err(StatsError::EmptyInput("n-D KDE dimensions"));
        }
        if cols[0].is_empty() {
            return Err(StatsError::EmptyInput("n-D KDE sample"));
        }
        for c in cols {
            if c.len() != cols[0].len() {
                return Err(StatsError::LengthMismatch {
                    what: "n-D KDE coordinates",
                    left: cols[0].len(),
                    right: c.len(),
                });
            }
            if c.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::InvalidParameter {
                    name: "sample",
                    reason: "contains non-finite values".into(),
                });
            }
        }
        let n = cols[0].len() as f64;
        let d = cols.len() as f64;
        // Convert the 1-D Silverman constant to the d-dimensional rate:
        // multiply the n^{-1/5} rule by n^{1/5 - 1/(d+4)}.
        let rate_fix = n.powf(0.2 - 1.0 / (d + 4.0));
        let mut bandwidth = Vec::with_capacity(cols.len());
        for (a, c) in cols.iter().enumerate() {
            let h = silverman_bandwidth(c) * rate_fix;
            if !(h > 0.0) {
                return Err(StatsError::InvalidParameter {
                    name: "bandwidth",
                    reason: format!("degenerate spread in dimension {a} (h={h})"),
                });
            }
            bandwidth.push(h);
        }
        Ok(Self {
            cols: cols.iter().map(|c| c.to_vec()).collect(),
            bandwidth,
        })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.cols.len()
    }

    /// Per-dimension bandwidths.
    pub fn bandwidth(&self) -> &[f64] {
        &self.bandwidth
    }

    /// The `n · Πhₐ · (2π)^{d/2}` normalization denominator, multiplied
    /// in a fixed order: `n`, each `hₐ`, then `2` and `π` per pair of
    /// dimensions. That order defines the pinned joint bytes (see the
    /// module doc), so it stays even where another would be as accurate.
    fn norm_denominator(&self) -> f64 {
        let d = self.cols.len();
        let mut z = self.cols[0].len() as f64;
        for &h in &self.bandwidth {
            z *= h;
        }
        for _ in 0..d / 2 {
            z *= 2.0;
            z *= std::f64::consts::PI;
        }
        if d % 2 == 1 {
            z *= (2.0 * std::f64::consts::PI).sqrt();
        }
        z
    }

    /// Joint density estimate at `point` (one coordinate per dimension).
    ///
    /// # Errors
    /// Rejects a point of the wrong dimension.
    pub fn pdf(&self, point: &[f64]) -> Result<f64> {
        if point.len() != self.cols.len() {
            return Err(StatsError::LengthMismatch {
                what: "n-D KDE query point",
                left: self.cols.len(),
                right: point.len(),
            });
        }
        let n = self.cols[0].len();
        let mut acc = 0.0;
        for i in 0..n {
            let mut e = 0.0;
            for (a, &x) in point.iter().enumerate() {
                let z = (x - self.cols[a][i]) / self.bandwidth[a];
                e += z * z;
            }
            acc += (-0.5 * e).exp();
        }
        Ok(acc / self.norm_denominator())
    }

    /// Evaluate the density on the product grid `axes[0] × … ×
    /// axes[d−1]`, flattened row-major with the **last axis fastest**
    /// (at `d = 2`: `out[i * axes[1].len() + j]` is `pdf(axes[0][i],
    /// axes[1][j])` up to rounding).
    ///
    /// Computed with separable kernel factorization — per-sample,
    /// per-axis kernel rows combined by outer product — so the cost is
    /// `O((n + Πgₐ)·Σgₐ)` instead of `O(n·Πgₐ·d)`. Accumulation is
    /// sample-major into row-major cells; prefixes below `1e-300`
    /// (underflowed mass) skip the cell block. That order defines the
    /// pinned joint bytes (see the module doc).
    pub fn evaluate_grid(&self, axes: &[&[f64]]) -> Vec<f64> {
        let d = self.cols.len();
        assert_eq!(axes.len(), d, "n-D KDE grid: expected {d} axes");
        let n = self.cols[0].len();
        // Precompute per-sample kernel rows over each axis.
        let rows: Vec<Vec<f64>> = (0..d)
            .map(|a| {
                let g = axes[a];
                let h = self.bandwidth[a];
                let mut k = vec![0.0f64; n * g.len()];
                for (s, &xi) in self.cols[a].iter().enumerate() {
                    for (i, &gv) in g.iter().enumerate() {
                        let z = (gv - xi) / h;
                        k[s * g.len() + i] = (-0.5 * z * z).exp();
                    }
                }
                k
            })
            .collect();
        let total: usize = axes.iter().map(|g| g.len()).product();
        let last = axes[d - 1].len();
        let lead = total / last;
        let mut out = vec![0.0f64; total];
        let mut prefix = vec![0.0f64; lead];
        let mut next = vec![0.0f64; lead];
        for s in 0..n {
            // Outer-product expansion of the first d−1 axes into
            // `prefix`, from the empty product `[1.0]` (`1.0 · w == w`
            // bit for bit). The expansion multiplies left to right in
            // axis order, part of the order the pinned joint bytes
            // depend on.
            prefix[0] = 1.0;
            let mut len = 1;
            for a in 0..d - 1 {
                let ga = axes[a].len();
                let row = &rows[a][s * ga..(s + 1) * ga];
                for i in 0..len {
                    let v = prefix[i];
                    for (j, &w) in row.iter().enumerate() {
                        next[i * ga + j] = v * w;
                    }
                }
                len *= ga;
                prefix[..len].copy_from_slice(&next[..len]);
            }
            let prefix = &prefix[..len];
            let row_last = &rows[d - 1][s * last..(s + 1) * last];
            for (i, &vp) in prefix.iter().enumerate() {
                if vp < 1e-300 {
                    continue;
                }
                let base = i * last;
                for (j, &vl) in row_last.iter().enumerate() {
                    out[base + j] += vp * vl;
                }
            }
        }
        let norm = 1.0 / self.norm_denominator();
        for v in &mut out {
            *v *= norm;
        }
        out
    }

    /// Evaluate on a product grid and normalize to a pmf (sums to 1).
    ///
    /// # Errors
    /// Fails on empty axes or when the grid carries no mass.
    pub fn pmf_on_grid(&self, axes: &[&[f64]]) -> Result<Vec<f64>> {
        if axes.iter().any(|g| g.is_empty()) {
            return Err(StatsError::EmptyInput("n-D KDE grid"));
        }
        let mut p = self.evaluate_grid(axes);
        let total: f64 = p.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(StatsError::InvalidProbabilities(format!(
                "n-D KDE mass on grid is {total}"
            )));
        }
        for v in &mut p {
            *v /= total;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDistribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_cols(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = Normal::standard();
        (0..d)
            .map(|a| {
                (0..n)
                    .map(|_| std.sample(&mut rng) + 0.3 * a as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(GaussianKdeNd::fit(&[]).is_err());
        assert!(GaussianKdeNd::fit(&[&[]]).is_err());
        assert!(GaussianKdeNd::fit(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(GaussianKdeNd::fit(&[&[f64::NAN], &[0.0]]).is_err());
        let flat = [1.0; 8];
        let ok = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        assert!(GaussianKdeNd::fit(&[&flat, &ok]).is_err());
    }

    #[test]
    fn evaluate_grid_matches_pointwise_pdf_at_d2_and_d3() {
        let g0 = [-1.0, 0.0, 2.0];
        let g1 = [-2.0, 0.5];
        let g2 = [-0.5, 0.25, 0.75, 1.5];
        let cases: [&[&[f64]]; 2] = [&[&g0, &g2], &[&g0, &g1, &g2]];
        for axes in cases {
            let d = axes.len();
            let cols = sample_cols(120, d, 2);
            let cols: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let kde = GaussianKdeNd::fit(&cols).unwrap();
            let grid = kde.evaluate_grid(axes);
            assert_eq!(grid.len(), axes.iter().map(|g| g.len()).product());
            for (cell, &fast) in grid.iter().enumerate() {
                // Decode the row-major cell index, last axis fastest.
                let mut point = vec![0.0; d];
                let mut r = cell;
                for a in (0..d).rev() {
                    point[a] = axes[a][r % axes[a].len()];
                    r /= axes[a].len();
                }
                let direct = kde.pdf(&point).unwrap();
                assert!(
                    (direct - fast).abs() < 1e-12 * (1.0 + direct),
                    "d = {d}, mismatch at {point:?}: {direct} vs {fast}"
                );
            }
        }
    }

    #[test]
    fn pdf_integrates_to_one_at_d3() {
        let cols = sample_cols(200, 3, 4);
        let kde = GaussianKdeNd::fit(&[&cols[0], &cols[1], &cols[2]]).unwrap();
        let g: Vec<f64> = (0..40).map(|i| -5.0 + 10.0 * i as f64 / 39.0).collect();
        let cell = (10.0 / 39.0f64).powi(3);
        let total: f64 = kde.evaluate_grid(&[&g, &g, &g]).iter().sum::<f64>() * cell;
        assert!((total - 1.0).abs() < 0.05, "integral = {total}");
    }

    #[test]
    fn pmf_on_grid_is_probability_vector_at_d3() {
        let cols = sample_cols(150, 3, 5);
        let kde = GaussianKdeNd::fit(&[&cols[0], &cols[1], &cols[2]]).unwrap();
        let g: Vec<f64> = (0..10).map(|i| -3.0 + 6.0 * i as f64 / 9.0).collect();
        let pmf = kde.pmf_on_grid(&[&g, &g, &g]).unwrap();
        assert_eq!(pmf.len(), 1000);
        assert!(pmf.iter().all(|&p| p >= 0.0));
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(kde.pmf_on_grid(&[&g, &[], &g]).is_err());
    }
}
