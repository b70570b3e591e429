//! Joint (multivariate) conditional-dependence measurement.
//!
//! The paper's `E` metric and repair are stratified per feature
//! (Section IV-A), which cannot see `s|u`-dependence that lives purely in
//! the *correlation structure* between features (Section VI flags this).
//! This module evaluates the same symmetrized-KLD dependence measure on
//! the **joint** d-variate `s|u`-conditional densities (`d ≥ 2`),
//! estimated by the product-kernel KDE of `otr_stats::kde_nd` on a
//! shared product grid. `evaluate --joint` prints this value to six
//! decimals, and `tests/golden.rs` pins that output at `d = 2`.

use serde::{Deserialize, Serialize};

use otr_data::{Dataset, GroupKey};
use otr_stats::sym_kl_divergence;
use otr_stats::GaussianKdeNd;

use crate::error::{FairnessError, Result};

/// Grid padding in units of the larger per-dimension bandwidth.
const PADDING_BANDWIDTHS: f64 = 3.0;
/// Minimum observations per `(u, s)` subgroup.
const MIN_GROUP_SIZE: usize = 10;

/// Configuration for the joint `E` estimator (`d ≥ 2` feature data sets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointDependence {
    /// Grid points per dimension (total grid = `grid_size^d`).
    pub grid_size: usize,
}

impl Default for JointDependence {
    fn default() -> Self {
        Self { grid_size: 64 }
    }
}

impl JointDependence {
    /// Evaluate the joint `E = Σ_u Pr[u]·symKL(f(x|0,u) ‖ f(x|1,u))` on a
    /// `d ≥ 2`-feature data set.
    ///
    /// Mind the grid volume: the shared product grid has `grid_size^d`
    /// cells, so high-dimensional data wants a smaller `grid_size` than
    /// the default 64 (e.g. 16–24 at `d = 3`).
    ///
    /// # Errors
    /// Requires `dim >= 2`, adequately sized subgroups, and a grid of at
    /// least 8 points per dimension.
    pub fn evaluate(&self, data: &Dataset) -> Result<f64> {
        if data.dim() < 2 {
            return Err(FairnessError::InvalidParameter {
                name: "data",
                reason: format!("joint E needs d >= 2, got d = {}", data.dim()),
            });
        }
        if self.grid_size < 8 {
            return Err(FairnessError::InvalidParameter {
                name: "grid_size",
                reason: format!("must be at least 8, got {}", self.grid_size),
            });
        }
        let pr_u1 = data.prob_u1();
        let mut total = 0.0;
        for (u, pr_u) in [(0u8, 1.0 - pr_u1), (1u8, pr_u1)] {
            total += pr_u * self.e_u_joint(data, u)?;
        }
        Ok(total)
    }

    /// Joint `E_u` for one `u` group.
    ///
    /// # Errors
    /// Same requirements as [`Self::evaluate`].
    pub fn e_u_joint(&self, data: &Dataset, u: u8) -> Result<f64> {
        let d = data.dim();
        let mut coords: [Vec<Vec<f64>>; 2] = Default::default();
        for s in 0..2u8 {
            for k in 0..d {
                coords[s as usize].push(data.feature_column(GroupKey { u, s }, k)?);
            }
            if coords[s as usize][0].len() < MIN_GROUP_SIZE {
                return Err(FairnessError::InsufficientGroup {
                    group: format!("(u={u}, s={s})"),
                    found: coords[s as usize][0].len(),
                    needed: MIN_GROUP_SIZE,
                });
            }
        }
        let cols = |s: usize| coords[s].iter().map(Vec::as_slice).collect::<Vec<_>>();
        let kde0 = GaussianKdeNd::fit(&cols(0))?;
        let kde1 = GaussianKdeNd::fit(&cols(1))?;

        // Shared product grid per dimension, padded by bandwidths.
        let grid_axis = |k: usize, pad: f64| -> Vec<f64> {
            let lo = coords[0][k]
                .iter()
                .chain(&coords[1][k])
                .copied()
                .fold(f64::INFINITY, f64::min)
                - pad;
            let hi = coords[0][k]
                .iter()
                .chain(&coords[1][k])
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
                + pad;
            (0..self.grid_size)
                .map(|i| lo + (hi - lo) * i as f64 / (self.grid_size - 1) as f64)
                .collect()
        };
        let axes: Vec<Vec<f64>> = (0..d)
            .map(|k| {
                let pad = PADDING_BANDWIDTHS * kde0.bandwidth()[k].max(kde1.bandwidth()[k]);
                grid_axis(k, pad)
            })
            .collect();
        let axis_refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();

        let p0 = kde0.evaluate_grid(&axis_refs);
        let p1 = kde1.evaluate_grid(&axis_refs);
        Ok(sym_kl_divergence(&p0, &p1)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{LabelledPoint, SimulationSpec};
    use otr_stats::linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn correlated_spec(rho0: f64, rho1: f64) -> SimulationSpec {
        let cov = |rho: f64| Matrix::from_rows(2, 2, vec![1.0, rho, rho, 1.0]).unwrap();
        SimulationSpec {
            // Identical means: all s|u dependence is in the correlation.
            means: [
                [vec![0.0, 0.0], vec![0.0, 0.0]],
                [vec![0.0, 0.0], vec![0.0, 0.0]],
            ],
            sigma: 1.0,
            covs: Some([[cov(rho0), cov(rho1)], [cov(rho0), cov(rho1)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        }
    }

    #[test]
    fn joint_e_sees_correlation_dependence_marginal_e_does_not() {
        use crate::e_metric::ConditionalDependence;
        let spec = correlated_spec(0.8, -0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let data = spec.sample_dataset(4_000, &mut rng).unwrap();
        let marginal = ConditionalDependence::default()
            .evaluate(&data)
            .unwrap()
            .aggregate();
        let joint = JointDependence::default().evaluate(&data).unwrap();
        assert!(
            marginal < 0.05,
            "marginals are identical; marginal E = {marginal}"
        );
        assert!(
            joint > 10.0 * marginal.max(0.01),
            "joint E ({joint}) must dominate marginal E ({marginal})"
        );
    }

    #[test]
    fn joint_e_near_zero_for_identical_conditionals() {
        let spec = correlated_spec(0.5, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let data = spec.sample_dataset(4_000, &mut rng).unwrap();
        let joint = JointDependence::default().evaluate(&data).unwrap();
        // 2-D KDE plug-in estimators carry more small-sample bias than the
        // 1-D one; 0.1 is comfortably below any real dependence signal.
        assert!(joint < 0.1, "joint E = {joint}");
    }

    #[test]
    fn evaluates_three_feature_data() {
        // 3 features; the s|u dependence lives in the x0–x1 correlation
        // block, the third feature is independent noise. The d = 3 joint
        // E must still see the dependence.
        let cov = |rho: f64| {
            Matrix::from_rows(3, 3, vec![1.0, rho, 0.0, rho, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap()
        };
        let zeros = || vec![0.0, 0.0, 0.0];
        let spec = SimulationSpec {
            means: [[zeros(), zeros()], [zeros(), zeros()]],
            sigma: 1.0,
            covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
            pr_u0: 0.5,
            pr_s0_given_u: [0.4, 0.4],
        };
        let mut rng = StdRng::seed_from_u64(11);
        let data = spec.sample_dataset(2_000, &mut rng).unwrap();
        let cfg = JointDependence { grid_size: 16 };
        let dependent = cfg.evaluate(&data).unwrap();
        assert!(
            dependent > 0.1,
            "d = 3 joint E missed dependence: {dependent}"
        );

        let same = SimulationSpec {
            covs: Some([[cov(0.5), cov(0.5)], [cov(0.5), cov(0.5)]]),
            ..spec
        };
        let mut rng = StdRng::seed_from_u64(12);
        let null = same.sample_dataset(2_000, &mut rng).unwrap();
        let independent = cfg.evaluate(&null).unwrap();
        assert!(
            dependent > 5.0 * independent.max(0.01),
            "dependent E ({dependent}) must dominate null E ({independent})"
        );
    }

    #[test]
    fn rejects_wrong_dimension_and_tiny_groups() {
        let one_d = Dataset::from_points(vec![
            LabelledPoint {
                x: vec![0.0],
                s: 0,
                u: 0,
            };
            20
        ])
        .unwrap();
        assert!(JointDependence::default().evaluate(&one_d).is_err());

        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        let small = spec.sample_dataset(20, &mut rng).unwrap();
        assert!(JointDependence::default().evaluate(&small).is_err());
    }
}
