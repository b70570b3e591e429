//! Wasserstein-based conditional-dependence measure — a robust
//! alternative to the paper's KDE-plug-in symmetrized KLD.
//!
//! Section II-B of the paper notes that empirical-probability proxies are
//! "subject to small-sample estimation errors"; the KLD plug-in `E` is
//! itself sensitive to tail/flooring conventions. The 1-D Wasserstein
//! distance between the `s|u`-conditional *empirical* feature
//! distributions needs no density estimation at all, is insensitive to
//! tails, and is exactly the
//! geometry the OT repair optimizes — `W` after a perfect `t = ½`
//! barycentric repair is zero by construction.
//!
//! `W_u,k = W₂(F̂(x_k|0,u), F̂(x_k|1,u))`, aggregated as
//! `W_k = Σ_u Pr[u]·W_u,k` — the same shape as Definition 2.4/Equation 3
//! with the divergence swapped.

use serde::{Deserialize, Serialize};

use otr_data::{Dataset, GroupKey};
use otr_ot::wasserstein::w2;
use otr_ot::DiscreteDistribution;

use crate::error::{FairnessError, Result};

/// Minimum observations per `(u, s)` subgroup.
const MIN_GROUP_SIZE: usize = 2;

/// The Wasserstein dependence measure (it has no settings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WassersteinDependence;

/// Result of a Wasserstein-dependence evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WReport {
    /// `W_{u,k}` indexed `[u][k]`.
    pub w_uk: Vec<Vec<f64>>,
    /// Empirical `Pr[u]` weights.
    pub pr_u: Vec<f64>,
    /// `W_k = Σ_u Pr[u]·W_{u,k}` per feature.
    pub w_per_feature: Vec<f64>,
}

impl WReport {
    /// Mean over features (scalar summary).
    pub fn aggregate(&self) -> f64 {
        if self.w_per_feature.is_empty() {
            return 0.0;
        }
        self.w_per_feature.iter().sum::<f64>() / self.w_per_feature.len() as f64
    }
}

impl WassersteinDependence {
    /// Evaluate `W` on a data set.
    ///
    /// # Errors
    /// Reports undersized `(u, s)` subgroups.
    pub fn evaluate(&self, data: &Dataset) -> Result<WReport> {
        let d = data.dim();
        let pr_u1 = data.prob_u1();
        let pr_u = vec![1.0 - pr_u1, pr_u1];
        let mut w_uk = vec![vec![0.0; d]; 2];
        for u in 0..2u8 {
            for k in 0..d {
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
                let mu = DiscreteDistribution::empirical(&x0).map_err(|e| {
                    FairnessError::InvalidParameter {
                        name: "empirical distribution",
                        reason: e.to_string(),
                    }
                })?;
                let nu = DiscreteDistribution::empirical(&x1).map_err(|e| {
                    FairnessError::InvalidParameter {
                        name: "empirical distribution",
                        reason: e.to_string(),
                    }
                })?;
                w_uk[u as usize][k] =
                    w2(&mu, &nu).map_err(|e| FairnessError::InvalidParameter {
                        name: "wasserstein",
                        reason: e.to_string(),
                    })?;
            }
        }
        let w_per_feature = (0..d)
            .map(|k| pr_u[0] * w_uk[0][k] + pr_u[1] * w_uk[1][k])
            .collect();
        Ok(WReport {
            w_uk,
            pr_u,
            w_per_feature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{LabelledPoint, SimulationSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn translation_dependence_equals_shift() {
        // s=1 features are s=0 features shifted by exactly 2.0: the
        // empirical W2 per group is ~2 regardless of the distribution.
        let mut rng = StdRng::seed_from_u64(1);
        let mut pts = Vec::new();
        use otr_stats::dist::{ContinuousDistribution, Normal};
        let base = Normal::new(0.0, 1.0).unwrap();
        for u in 0..2u8 {
            for _ in 0..2_000 {
                let v = base.sample(&mut rng);
                pts.push(LabelledPoint {
                    x: vec![v],
                    s: 0,
                    u,
                });
                pts.push(LabelledPoint {
                    x: vec![v + 2.0],
                    s: 1,
                    u,
                });
            }
        }
        let data = Dataset::from_points(pts).unwrap();
        let report = WassersteinDependence.evaluate(&data).unwrap();
        assert!((report.aggregate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_simulation_has_large_unrepaired_w() {
        // The repair-interaction side (W → 0 after repair) lives in the
        // workspace integration tests, since otr-fairness cannot depend
        // on otr-core.
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(2);
        let data = spec.sample_dataset(3_000, &mut rng).unwrap();
        let wd = WassersteinDependence;
        let before = wd.evaluate(&data).unwrap().aggregate();
        // Components are sqrt(2) apart; per-feature gap is 1.
        assert!(before > 0.5, "unrepaired W = {before}");
    }

    #[test]
    fn identical_groups_near_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        use otr_stats::dist::{ContinuousDistribution, Normal};
        let base = Normal::new(1.0, 2.0).unwrap();
        let mut pts = Vec::new();
        for u in 0..2u8 {
            for s in 0..2u8 {
                for _ in 0..3_000 {
                    pts.push(LabelledPoint {
                        x: vec![base.sample(&mut rng)],
                        s,
                        u,
                    });
                }
            }
        }
        let data = Dataset::from_points(pts).unwrap();
        let report = WassersteinDependence.evaluate(&data).unwrap();
        // Sampling noise floor ~ n^{-1/2}.
        assert!(report.aggregate() < 0.15, "W = {}", report.aggregate());
    }

    #[test]
    fn undersized_group_reported() {
        let pts = vec![
            LabelledPoint {
                x: vec![0.0],
                s: 0,
                u: 0,
            },
            LabelledPoint {
                x: vec![1.0],
                s: 1,
                u: 0,
            },
            LabelledPoint {
                x: vec![0.5],
                s: 0,
                u: 1,
            },
            LabelledPoint {
                x: vec![1.5],
                s: 1,
                u: 1,
            },
        ];
        let data = Dataset::from_points(pts).unwrap();
        let wd = WassersteinDependence;
        assert!(matches!(
            wd.evaluate(&data),
            Err(FairnessError::InsufficientGroup { .. })
        ));
    }

    #[test]
    fn weighting_formula_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = SimulationSpec::paper_defaults();
        let data = spec.sample_dataset(2_000, &mut rng).unwrap();
        let report = WassersteinDependence.evaluate(&data).unwrap();
        for k in 0..2 {
            let manual = report.pr_u[0] * report.w_uk[0][k] + report.pr_u[1] * report.w_uk[1][k];
            assert!((report.w_per_feature[k] - manual).abs() < 1e-12);
        }
    }
}
