//! Two-component univariate Gaussian-mixture EM.
//!
//! Section IV of the paper notes that archival data usually arrive without
//! the protected attribute `S`, and that each `u`-conditional mixture
//! `F(x|u) = Σ_s F(x|s,u) Pr[s|u]` must be identified "via standard
//! methods" so that `ŝ|u` labels can be estimated. This module is that
//! standard method: EM for a two-component Gaussian mixture, with
//! research-data-informed initialization so the component indices align
//! with the true `s` labels (the `ablation_label_noise` experiment measures
//! the repair degradation caused by using `ŝ` instead of oracle labels).

use serde::{Deserialize, Serialize};

use crate::error::{Result, StatsError};
use crate::special::normal_pdf;

/// Configuration for [`GaussianMixtureEm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the mean absolute log-likelihood change.
    pub tol: f64,
    /// Variance floor preventing component collapse.
    pub var_floor: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iters: 500,
            tol: 1e-9,
            var_floor: 1e-6,
        }
    }
}

/// A fitted two-component Gaussian mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmmFit {
    /// Mixing weight of component 0 (`Pr[s=0]`).
    pub weight0: f64,
    /// Component means.
    pub means: [f64; 2],
    /// Component standard deviations.
    pub sds: [f64; 2],
    /// Final mean log-likelihood.
    pub log_likelihood: f64,
    /// Iterations actually used.
    pub iterations: usize,
}

impl GmmFit {
    /// Posterior probability that `x` belongs to component 0.
    pub fn posterior0(&self, x: f64) -> f64 {
        let p0 = self.weight0 * normal_pdf((x - self.means[0]) / self.sds[0]) / self.sds[0];
        let p1 = (1.0 - self.weight0) * normal_pdf((x - self.means[1]) / self.sds[1]) / self.sds[1];
        if p0 + p1 <= 0.0 {
            // Point in the far tails of both components: fall back to the
            // nearer mean measured in component SDs.
            let z0 = ((x - self.means[0]) / self.sds[0]).abs();
            let z1 = ((x - self.means[1]) / self.sds[1]).abs();
            return if z0 <= z1 { 1.0 } else { 0.0 };
        }
        p0 / (p0 + p1)
    }

    /// Maximum-a-posteriori component label for `x` (0 or 1).
    pub fn classify(&self, x: f64) -> u8 {
        u8::from(self.posterior0(x) < 0.5)
    }
}

/// Two-component Gaussian-mixture EM estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianMixtureEm {
    config: EmConfig,
}

impl GaussianMixtureEm {
    /// Fit with explicit initial parameters `(weight0, means, sds)` —
    /// typically moments of the labelled research data, which anchors the
    /// component identities to the true `s` labels.
    ///
    /// # Errors
    /// Requires at least 2 observations, finite data, a weight in `(0,1)`,
    /// and positive initial SDs.
    pub fn fit_with_init(
        &self,
        data: &[f64],
        weight0: f64,
        means: [f64; 2],
        sds: [f64; 2],
    ) -> Result<GmmFit> {
        if data.len() < 2 {
            return Err(StatsError::EmptyInput("EM data (need >= 2 points)"));
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "data",
                reason: "contains non-finite values".into(),
            });
        }
        if !(0.0 < weight0 && weight0 < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "weight0",
                reason: format!("must be in (0,1), got {weight0}"),
            });
        }
        if sds.iter().any(|&s| !(s > 0.0)) {
            return Err(StatsError::InvalidParameter {
                name: "sds",
                reason: "initial SDs must be positive".into(),
            });
        }

        let n = data.len() as f64;
        let mut w0 = weight0;
        let mut mu = means;
        let mut sd = sds;
        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut resp0 = vec![0.0f64; data.len()];

        for iter in 0..self.config.max_iters {
            iterations = iter + 1;
            // E-step.
            let mut ll = 0.0;
            for (i, &x) in data.iter().enumerate() {
                let d0 = w0 * normal_pdf((x - mu[0]) / sd[0]) / sd[0];
                let d1 = (1.0 - w0) * normal_pdf((x - mu[1]) / sd[1]) / sd[1];
                let tot = (d0 + d1).max(1e-300);
                resp0[i] = d0 / tot;
                ll += tot.ln();
            }
            ll /= n;

            // M-step.
            let r0: f64 = resp0.iter().sum();
            let r1 = n - r0;
            // Keep weights off the boundary so a component cannot die.
            w0 = (r0 / n).clamp(1e-6, 1.0 - 1e-6);
            if r0 > 1e-12 {
                mu[0] = data.iter().zip(&resp0).map(|(x, r)| r * x).sum::<f64>() / r0;
                let v0 = data
                    .iter()
                    .zip(&resp0)
                    .map(|(x, r)| r * (x - mu[0]) * (x - mu[0]))
                    .sum::<f64>()
                    / r0;
                sd[0] = v0.max(self.config.var_floor).sqrt();
            }
            if r1 > 1e-12 {
                mu[1] = data
                    .iter()
                    .zip(&resp0)
                    .map(|(x, r)| (1.0 - r) * x)
                    .sum::<f64>()
                    / r1;
                let v1 = data
                    .iter()
                    .zip(&resp0)
                    .map(|(x, r)| (1.0 - r) * (x - mu[1]) * (x - mu[1]))
                    .sum::<f64>()
                    / r1;
                sd[1] = v1.max(self.config.var_floor).sqrt();
            }

            if (ll - prev_ll).abs() < self.config.tol {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }

        Ok(GmmFit {
            weight0: w0,
            means: mu,
            sds: sd,
            log_likelihood: prev_ll,
            iterations,
        })
    }

    /// Fit with a moment-based automatic initialization: components seeded
    /// at the 25th/75th percentiles with half the overall SD each.
    ///
    /// # Errors
    /// Same as [`Self::fit_with_init`].
    pub fn fit(&self, data: &[f64]) -> Result<GmmFit> {
        let q25 = crate::quantile::empirical_quantile(data, 0.25)?;
        let q75 = crate::quantile::empirical_quantile(data, 0.75)?;
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (data.len() as f64 - 1.0).max(1.0);
        let sd = var.sqrt().max(1e-3);
        self.fit_with_init(data, 0.5, [q25, q75], [0.5 * sd + 1e-6, 0.5 * sd + 1e-6])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDistribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_group_sample(seed: u64, n0: usize, n1: usize) -> (Vec<f64>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c0 = Normal::new(-2.0, 0.8).unwrap();
        let c1 = Normal::new(2.0, 1.0).unwrap();
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n0 {
            xs.push(c0.sample(&mut rng));
            labels.push(0);
        }
        for _ in 0..n1 {
            xs.push(c1.sample(&mut rng));
            labels.push(1);
        }
        (xs, labels)
    }

    #[test]
    fn recovers_well_separated_components() {
        let (xs, _) = two_group_sample(1, 2000, 3000);
        let fit = GaussianMixtureEm::default().fit(&xs).unwrap();
        let (m0, m1) = (
            fit.means[0].min(fit.means[1]),
            fit.means[0].max(fit.means[1]),
        );
        assert!((m0 + 2.0).abs() < 0.1, "m0 = {m0}");
        assert!((m1 - 2.0).abs() < 0.1, "m1 = {m1}");
        let w_small = fit.weight0.min(1.0 - fit.weight0);
        assert!((w_small - 0.4).abs() < 0.05, "w = {w_small}");
    }

    #[test]
    fn classification_accuracy_high_when_separated() {
        let (xs, labels) = two_group_sample(2, 1500, 1500);
        let fit = GaussianMixtureEm::default()
            .fit_with_init(&xs, 0.5, [-2.0, 2.0], [1.0, 1.0])
            .unwrap();
        let correct = xs
            .iter()
            .zip(&labels)
            .filter(|(x, l)| fit.classify(**x) == **l)
            .count();
        let acc = correct as f64 / xs.len() as f64;
        assert!(acc > 0.97, "accuracy = {acc}");
    }

    #[test]
    fn posterior_is_probability() {
        let (xs, _) = two_group_sample(3, 500, 500);
        let fit = GaussianMixtureEm::default().fit(&xs).unwrap();
        for &x in xs.iter().take(200) {
            let p = fit.posterior0(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn posterior_far_tail_falls_back_to_nearest() {
        let fit = GmmFit {
            weight0: 0.5,
            means: [0.0, 10.0],
            sds: [1.0, 1.0],
            log_likelihood: 0.0,
            iterations: 1,
        };
        // 1e4 sigmas away: both densities underflow to zero.
        assert_eq!(fit.classify(-1e4), 0);
        assert_eq!(fit.classify(1e4 + 10.0), 1);
    }

    #[test]
    fn rejects_degenerate_input() {
        let em = GaussianMixtureEm::default();
        assert!(em.fit(&[1.0]).is_err());
        assert!(em
            .fit_with_init(&[1.0, 2.0], 0.0, [0.0, 1.0], [1.0, 1.0])
            .is_err());
        assert!(em
            .fit_with_init(&[1.0, 2.0], 0.5, [0.0, 1.0], [0.0, 1.0])
            .is_err());
        assert!(em.fit(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn variance_floor_prevents_collapse() {
        // Many identical points at one location would collapse a component.
        let mut xs = vec![0.0; 50];
        xs.extend(vec![5.0; 50]);
        let fit = GaussianMixtureEm::default()
            .fit_with_init(&xs, 0.5, [0.0, 5.0], [1.0, 1.0])
            .unwrap();
        assert!(fit.sds[0] > 0.0);
        assert!(fit.sds[1] > 0.0);
    }

    #[test]
    fn log_likelihood_improves_over_bad_init() {
        let (xs, _) = two_group_sample(9, 1000, 1000);
        let em = GaussianMixtureEm::default();
        let bad = em.fit_with_init(&xs, 0.5, [-0.1, 0.1], [3.0, 3.0]).unwrap();
        // Even from a poor start, EM should land near the true means.
        let lo = bad.means[0].min(bad.means[1]);
        let hi = bad.means[0].max(bad.means[1]);
        assert!((lo + 2.0).abs() < 0.3, "lo = {lo}");
        assert!((hi - 2.0).abs() < 0.3, "hi = {hi}");
    }
}
