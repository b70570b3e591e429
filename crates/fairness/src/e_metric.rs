//! The paper's fairness measure: the `s|u`-dependence metric
//! `E_u = ½D(f(x|0,u)‖f(x|1,u)) + ½D(f(x|1,u)‖f(x|0,u))`
//! (Definition 2.4) and its `u`-expectation
//! `E = Σ_u Pr[u] E_u` (Equation 3), computed per feature.
//!
//! Estimation protocol (matching Section V): for each `(u, k)`, fit a
//! Gaussian KDE (Silverman bandwidth) to the `s = 0` and `s = 1`
//! sub-samples separately, evaluate both densities on a shared uniform
//! grid spanning the pooled range (padded by a multiple of the larger
//! bandwidth so tails are represented), normalize into pmfs, and take the
//! symmetrized KL. Lower `E` = fairer data; `E = 0` ⟺ the conditionals
//! coincide on the grid.

use serde::{Deserialize, Serialize};

use otr_data::{Dataset, GroupKey};
use otr_stats::kde::{Bandwidth, GaussianKde};
use otr_stats::sym_kl_divergence;

use crate::error::{FairnessError, Result};

/// Grid padding in units of the larger Silverman bandwidth.
const PADDING_BANDWIDTHS: f64 = 3.0;
/// Minimum observations required in each `(u, s)` subgroup.
const MIN_GROUP_SIZE: usize = 5;

/// Configuration for the `E` estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConditionalDependence {
    /// Number of grid points for the shared KDE evaluation grid.
    pub grid_size: usize,
}

impl Default for ConditionalDependence {
    fn default() -> Self {
        Self { grid_size: 512 }
    }
}

/// Result of an `E` evaluation on a data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EReport {
    /// `E_{u,k}`: symmetrized KLD between the `s`-conditionals, indexed
    /// `[u][k]`.
    pub e_uk: Vec<Vec<f64>>,
    /// Empirical `Pr[u]` weights used for aggregation, indexed by `u`.
    pub pr_u: Vec<f64>,
    /// `E_k = Σ_u Pr[u] E_{u,k}` per feature — the rows of Tables I/II.
    pub e_per_feature: Vec<f64>,
}

impl EReport {
    /// Aggregate `E` over features (arithmetic mean of `E_k`) — the scalar
    /// plotted in Figures 3 and 4.
    pub fn aggregate(&self) -> f64 {
        if self.e_per_feature.is_empty() {
            return 0.0;
        }
        self.e_per_feature.iter().sum::<f64>() / self.e_per_feature.len() as f64
    }
}

impl ConditionalDependence {
    /// Evaluate `E` on a data set.
    ///
    /// # Errors
    /// * [`FairnessError::InsufficientGroup`] when an `(u, s)` subgroup has
    ///   fewer than 5 observations or is degenerate (zero
    ///   spread, so no KDE bandwidth exists).
    /// * [`FairnessError::InvalidParameter`] for a grid of fewer than 8
    ///   points.
    pub fn evaluate(&self, data: &Dataset) -> Result<EReport> {
        if self.grid_size < 8 {
            return Err(FairnessError::InvalidParameter {
                name: "grid_size",
                reason: format!("must be at least 8, got {}", self.grid_size),
            });
        }
        let d = data.dim();
        let pr_u1 = data.prob_u1();
        let pr_u = vec![1.0 - pr_u1, pr_u1];

        let mut e_uk = vec![vec![0.0; d]; 2];
        for u in 0..2u8 {
            for k in 0..d {
                e_uk[u as usize][k] = self.e_u_feature(data, u, k)?;
            }
        }
        let e_per_feature = (0..d)
            .map(|k| pr_u[0] * e_uk[0][k] + pr_u[1] * e_uk[1][k])
            .collect();
        Ok(EReport {
            e_uk,
            pr_u,
            e_per_feature,
        })
    }

    /// `E_u` for a single feature: the symmetrized KLD between the two
    /// `s`-conditional KDEs of feature `k` within group `u`.
    ///
    /// # Errors
    /// Same group-size and degeneracy requirements as [`Self::evaluate`].
    pub fn e_u_feature(&self, data: &Dataset, u: u8, k: usize) -> Result<f64> {
        let x0 = data.feature_column(GroupKey { u, s: 0 }, k)?;
        let x1 = data.feature_column(GroupKey { u, s: 1 }, k)?;
        for (s, xs) in [(0u8, &x0), (1u8, &x1)] {
            if xs.len() < MIN_GROUP_SIZE {
                return Err(FairnessError::InsufficientGroup {
                    group: format!("(u={u}, s={s}, k={k})"),
                    found: xs.len(),
                    needed: MIN_GROUP_SIZE,
                });
            }
        }
        let kde0 = GaussianKde::fit(&x0, Bandwidth::Silverman)?;
        let kde1 = GaussianKde::fit(&x1, Bandwidth::Silverman)?;

        // Shared evaluation grid over the pooled range, padded by
        // `PADDING_BANDWIDTHS` of the larger bandwidth.
        let pad = PADDING_BANDWIDTHS * kde0.bandwidth().max(kde1.bandwidth());
        let lo = x0.iter().chain(&x1).copied().fold(f64::INFINITY, f64::min) - pad;
        let hi = x0
            .iter()
            .chain(&x1)
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            + pad;
        let grid: Vec<f64> = (0..self.grid_size)
            .map(|i| lo + (hi - lo) * i as f64 / (self.grid_size - 1) as f64)
            .collect();
        let p0 = kde0.evaluate(&grid);
        let p1 = kde1.evaluate(&grid);
        Ok(sym_kl_divergence(&p0, &p1)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{LabelledPoint, SimulationSpec};
    use otr_stats::dist::{ContinuousDistribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build a 1-feature dataset with s-conditional normals per u.
    fn build(rng: &mut StdRng, n_per_group: usize, mean_s0: f64, mean_s1: f64) -> Dataset {
        let mut pts = Vec::new();
        for u in 0..2u8 {
            for (s, mean) in [(0u8, mean_s0), (1u8, mean_s1)] {
                let dist = Normal::new(mean, 1.0).unwrap();
                for _ in 0..n_per_group {
                    pts.push(LabelledPoint {
                        x: vec![dist.sample(rng)],
                        s,
                        u,
                    });
                }
            }
        }
        Dataset::from_points(pts).unwrap()
    }

    #[test]
    fn identical_conditionals_give_small_e() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = build(&mut rng, 2_000, 0.0, 0.0);
        let report = ConditionalDependence::default().evaluate(&data).unwrap();
        assert!(report.aggregate() < 0.05, "E = {}", report.aggregate());
    }

    #[test]
    fn separated_conditionals_give_large_e() {
        let mut rng = StdRng::seed_from_u64(2);
        let near = build(&mut rng, 2_000, 0.0, 0.3);
        let far = build(&mut rng, 2_000, 0.0, 2.0);
        let cd = ConditionalDependence::default();
        let e_near = cd.evaluate(&near).unwrap().aggregate();
        let e_far = cd.evaluate(&far).unwrap().aggregate();
        assert!(e_far > e_near * 3.0, "near {e_near}, far {e_far}");
        // Analytic sym-KL for N(0,1) vs N(2,1) is 2.0; the KDE plug-in
        // estimator should land in its vicinity at this sample size.
        assert!((1.2..4.0).contains(&e_far), "e_far = {e_far}");
    }

    #[test]
    fn aggregation_uses_pr_u_weights() {
        // Unbalanced u groups: Pr[u] weighting must hold exactly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut pts = Vec::new();
        for (u, n) in [(0u8, 600usize), (1u8, 200usize)] {
            for s in 0..2u8 {
                let mean = if u == 0 { s as f64 * 1.5 } else { 0.0 };
                let dist = Normal::new(mean, 1.0).unwrap();
                for _ in 0..n {
                    pts.push(LabelledPoint {
                        x: vec![dist.sample(&mut rng)],
                        s,
                        u,
                    });
                }
            }
        }
        let data = Dataset::from_points(pts).unwrap();
        let report = ConditionalDependence::default().evaluate(&data).unwrap();
        let manual = report.pr_u[0] * report.e_uk[0][0] + report.pr_u[1] * report.e_uk[1][0];
        assert!((report.e_per_feature[0] - manual).abs() < 1e-12);
        // 1200 of 1600 points have u = 0.
        assert!((report.pr_u[0] - 0.75).abs() < 1e-12);
        // u=0 is the unfair group here.
        assert!(report.e_uk[0][0] > report.e_uk[1][0]);
    }

    #[test]
    fn insufficient_group_is_reported() {
        let mut pts = vec![
            LabelledPoint {
                x: vec![0.0],
                s: 0,
                u: 0,
            };
            3
        ];
        for i in 0..20 {
            pts.push(LabelledPoint {
                x: vec![i as f64 * 0.1],
                s: 1,
                u: 0,
            });
            pts.push(LabelledPoint {
                x: vec![i as f64 * 0.1],
                s: 0,
                u: 1,
            });
            pts.push(LabelledPoint {
                x: vec![i as f64 * 0.1],
                s: 1,
                u: 1,
            });
        }
        let data = Dataset::from_points(pts).unwrap();
        let err = ConditionalDependence::default().evaluate(&data);
        assert!(matches!(err, Err(FairnessError::InsufficientGroup { .. })));
    }

    #[test]
    fn rejects_tiny_grid() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = build(&mut rng, 50, 0.0, 0.0);
        let cd = ConditionalDependence { grid_size: 4 };
        assert!(cd.evaluate(&data).is_err());
    }

    #[test]
    fn paper_simulation_unrepaired_e_is_large() {
        // The Section V-A population: components separated by sqrt(2) in
        // u=0 and sqrt(2) in u=1; Table I reports unrepaired E_k ≈ 6-7.5
        // at nR=500-scale samples.
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(7);
        let data = spec.sample_dataset(500, &mut rng).unwrap();
        let report = ConditionalDependence::default().evaluate(&data).unwrap();
        for k in 0..2 {
            assert!(
                report.e_per_feature[k] > 0.3,
                "E_{k} = {} unexpectedly small",
                report.e_per_feature[k]
            );
        }
    }

    #[test]
    fn report_serializes() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = build(&mut rng, 100, 0.0, 1.0);
        let report = ConditionalDependence::default().evaluate(&data).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: EReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
