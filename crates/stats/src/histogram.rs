//! Histograms and empirical pmfs on uniform grids.
//!
//! The drift monitor (`otr_core::lifecycle`) bins served archival rows
//! onto a plan's support with these, to compare them with the research
//! marginals the plan recorded.

use crate::error::{Result, StatsError};

/// A histogram over `[lo, hi)` with `bins` equal-width bins.
///
/// Mass falling exactly on `hi` is assigned to the last bin; mass outside
/// the range is clamped into the boundary bins (count-preserving, matching
/// the paper's treatment of archival points outside the research range).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Errors
    /// Requires `lo < hi` and `bins >= 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "lo/hi",
                reason: format!("require finite lo < hi, got [{lo}, {hi})"),
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                reason: "must be at least 1".into(),
            });
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Create an empty histogram whose bins are centred on a uniform
    /// grid: bin `i` covers `[grid[i] - step/2, grid[i] + step/2)`.
    ///
    /// Used by the drift monitor to bin archival observations onto the
    /// same support a repair plan recorded its research marginals on, so
    /// the two pmfs are directly comparable state by state.
    ///
    /// # Errors
    /// Requires at least two strictly increasing, uniformly spaced
    /// finite grid points.
    pub fn centred_on_grid(grid: &[f64]) -> Result<Self> {
        if grid.len() < 2 {
            return Err(StatsError::InvalidParameter {
                name: "grid",
                reason: format!("need at least 2 points, got {}", grid.len()),
            });
        }
        let step = (grid[grid.len() - 1] - grid[0]) / (grid.len() - 1) as f64;
        if !(step > 0.0) || !step.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "grid",
                reason: format!("grid must be increasing and finite, step = {step}"),
            });
        }
        Self::new(
            grid[0] - step / 2.0,
            grid[grid.len() - 1] + step / 2.0,
            grid.len(),
        )
    }

    /// Bin index for a value (clamped into range).
    #[inline]
    pub fn bin_of(&self, x: f64) -> usize {
        let bins = self.counts.len();
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return bins - 1;
        }
        let f = (x - self.lo) / (self.hi - self.lo);
        ((f * bins as f64) as usize).min(bins - 1)
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Number of bins.
    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized probability masses (empty histogram yields all zeros).
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_construction() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NEG_INFINITY, 1.0, 3).is_err());
    }

    fn filled(lo: f64, hi: f64, bins: usize, data: &[f64]) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins).unwrap();
        for &x in data {
            h.push(x);
        }
        h
    }

    #[test]
    fn binning_is_uniform() {
        let h = filled(0.0, 1.0, 4, &[0.1, 0.3, 0.6, 0.9]);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_clamps() {
        let h = filled(0.0, 1.0, 2, &[-5.0, 7.0, 1.0]);
        // -5 -> bin 0; 7 and 1.0 (== hi) -> last bin.
        assert_eq!(h.counts(), &[1, 2]);
    }

    #[test]
    fn pmf_sums_to_one() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let h = filled(0.0, 1.0, 7, &data);
        let s: f64 = h.pmf().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_pmf_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert_eq!(h.pmf(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn grid_centred_bins_recover_the_grid() {
        let grid = vec![-1.0, 0.0, 1.0, 2.0];
        let h = Histogram::centred_on_grid(&grid).unwrap();
        assert_eq!(h.bins(), 4);
        // Each grid point, and everything within just under half a step
        // of it, falls into its own bin.
        for (i, &g) in grid.iter().enumerate() {
            for x in [g - 0.49, g, g + 0.49] {
                assert_eq!(h.bin_of(x), i, "x = {x}");
            }
        }
        assert!(Histogram::centred_on_grid(&[1.0]).is_err());
        assert!(Histogram::centred_on_grid(&[1.0, 1.0]).is_err());
        assert!(Histogram::centred_on_grid(&[2.0, 1.0]).is_err());
    }
}
