//! A from-scratch logistic-regression classifier — the decision rule
//! `g(X)` of Figure 1, used to measure classifier-level fairness proxies
//! (disparate impact) before and after data repair.
//!
//! Training is full-batch gradient descent with L2 regularization and
//! feature standardization; adequate for the 2-feature experimental
//! settings of the paper and deliberately free of external dependencies.

use serde::{Deserialize, Serialize};

use otr_data::Dataset;

use crate::error::{FairnessError, Result};

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticConfig {
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 penalty strength.
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            epochs: 500,
            l2: 1e-4,
        }
    }
}

/// A trained logistic-regression model with internal feature
/// standardization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Weights in standardized feature space.
    weights: Vec<f64>,
    /// Intercept.
    bias: f64,
    /// Per-feature training means (for standardization).
    means: Vec<f64>,
    /// Per-feature training SDs.
    sds: Vec<f64>,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Train on feature rows `xs` with binary labels `ys`.
    ///
    /// # Errors
    /// Requires non-empty consistent-dimension input and labels in `{0,1}`.
    pub fn fit(xs: &[Vec<f64>], ys: &[u8], config: LogisticConfig) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(FairnessError::InvalidParameter {
                name: "training data",
                reason: format!("{} rows vs {} labels", xs.len(), ys.len()),
            });
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(FairnessError::InvalidParameter {
                name: "features",
                reason: "rows must share a positive dimension".into(),
            });
        }
        if ys.iter().any(|&y| y > 1) {
            return Err(FairnessError::InvalidParameter {
                name: "labels",
                reason: "labels must be 0/1".into(),
            });
        }
        if !(config.learning_rate > 0.0) || config.epochs == 0 || config.l2 < 0.0 {
            return Err(FairnessError::InvalidParameter {
                name: "config",
                reason: "learning_rate > 0, epochs >= 1, l2 >= 0 required".into(),
            });
        }
        let n = xs.len() as f64;

        // Standardize features.
        let mut means = vec![0.0; d];
        let mut sds = vec![0.0; d];
        for x in xs {
            for (m, v) in means.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        for x in xs {
            for k in 0..d {
                let c = x[k] - means[k];
                sds[k] += c * c;
            }
        }
        for s in &mut sds {
            *s = (*s / n).sqrt().max(1e-9);
        }
        let std_rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                x.iter()
                    .enumerate()
                    .map(|(k, v)| (v - means[k]) / sds[k])
                    .collect()
            })
            .collect();

        let mut weights = vec![0.0; d];
        let mut bias = 0.0;
        let mut grad_w = vec![0.0; d];
        for _ in 0..config.epochs {
            grad_w.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_b = 0.0;
            for (x, &y) in std_rows.iter().zip(ys) {
                let z = bias + weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
                let err = sigmoid(z) - y as f64;
                for (g, v) in grad_w.iter_mut().zip(x) {
                    *g += err * v;
                }
                grad_b += err;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * (g / n + config.l2 * *w);
            }
            bias -= config.learning_rate * grad_b / n;
        }
        Ok(Self {
            weights,
            bias,
            means,
            sds,
        })
    }

    /// Train with `ŷ = 1` labels synthesized from a data set by a labeling
    /// function (convenience for the experiment harnesses).
    ///
    /// # Errors
    /// Same as [`Self::fit`].
    pub fn fit_dataset(
        data: &Dataset,
        mut label: impl FnMut(&otr_data::LabelledPoint) -> u8,
        config: LogisticConfig,
    ) -> Result<Self> {
        let xs: Vec<Vec<f64>> = data.points().iter().map(|p| p.x.clone()).collect();
        let ys: Vec<u8> = data.points().iter().map(&mut label).collect();
        Self::fit(&xs, &ys, config)
    }

    /// Predicted probability `Pr[Y=1 | x]`.
    ///
    /// # Errors
    /// Rejects a feature vector of the wrong dimension.
    pub fn predict_proba(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.weights.len() {
            return Err(FairnessError::InvalidParameter {
                name: "x",
                reason: format!("dimension {} (expected {})", x.len(), self.weights.len()),
            });
        }
        let z = self.bias
            + self
                .weights
                .iter()
                .zip(x)
                .enumerate()
                .map(|(k, (w, v))| w * (v - self.means[k]) / self.sds[k])
                .sum::<f64>();
        Ok(sigmoid(z))
    }

    /// Hard 0/1 prediction at threshold 0.5.
    ///
    /// # Errors
    /// Same as [`Self::predict_proba`].
    pub fn predict(&self, x: &[f64]) -> Result<u8> {
        Ok(u8::from(self.predict_proba(x)? >= 0.5))
    }

    /// Predictions for every point of a data set.
    ///
    /// # Errors
    /// Same as [`Self::predict_proba`].
    pub fn predict_dataset(&self, data: &Dataset) -> Result<Vec<u8>> {
        data.points().iter().map(|p| self.predict(&p.x)).collect()
    }

    /// Classification accuracy against labels produced by `label`.
    ///
    /// # Errors
    /// Same as [`Self::predict_proba`].
    pub fn accuracy(
        &self,
        data: &Dataset,
        mut label: impl FnMut(&otr_data::LabelledPoint) -> u8,
    ) -> Result<f64> {
        let mut correct = 0usize;
        for p in data.points() {
            if self.predict(&p.x)? == label(p) {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A linearly separable problem: `y = 1` iff `x₀ + x₁ > 0` on the
    /// square `[−2, 2)²`.
    fn toy_problem<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-2.0..2.0);
            let x1: f64 = rng.gen_range(-2.0..2.0);
            ys.push(u8::from(x0 + x1 > 0.0));
            xs.push(vec![x0, x1]);
        }
        (xs, ys)
    }

    #[test]
    fn learns_linearly_separable_problem() {
        let mut rng = StdRng::seed_from_u64(1);
        let (xs, ys) = toy_problem(2_000, &mut rng);
        let model = LogisticRegression::fit(&xs, &ys, LogisticConfig::default()).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x).unwrap() == y)
            .count();
        let acc = correct as f64 / xs.len() as f64;
        assert!(acc > 0.97, "accuracy = {acc}");
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let mut rng = StdRng::seed_from_u64(2);
        let (xs, ys) = toy_problem(2_000, &mut rng);
        let model = LogisticRegression::fit(&xs, &ys, LogisticConfig::default()).unwrap();
        let deep_pos = model.predict_proba(&[2.0, 2.0]).unwrap();
        let deep_neg = model.predict_proba(&[-2.0, -2.0]).unwrap();
        assert!(deep_pos > 0.95);
        assert!(deep_neg < 0.05);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(LogisticRegression::fit(&[], &[], LogisticConfig::default()).is_err());
        assert!(LogisticRegression::fit(&[vec![1.0]], &[0, 1], LogisticConfig::default()).is_err());
        assert!(LogisticRegression::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[0, 1],
            LogisticConfig::default()
        )
        .is_err());
        assert!(LogisticRegression::fit(&[vec![1.0]], &[2], LogisticConfig::default()).is_err());
        let bad = LogisticConfig {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(LogisticRegression::fit(&[vec![1.0]], &[1], bad).is_err());
    }

    #[test]
    fn predict_rejects_wrong_dimension() {
        let mut rng = StdRng::seed_from_u64(3);
        let (xs, ys) = toy_problem(100, &mut rng);
        let model = LogisticRegression::fit(&xs, &ys, LogisticConfig::default()).unwrap();
        assert!(model.predict(&[1.0]).is_err());
    }

    #[test]
    fn standardization_makes_scale_irrelevant() {
        let mut rng = StdRng::seed_from_u64(4);
        let (xs, ys) = toy_problem(2_000, &mut rng);
        let scaled: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0] * 1000.0, x[1] * 0.001])
            .collect();
        let model = LogisticRegression::fit(&scaled, &ys, LogisticConfig::default()).unwrap();
        let correct = scaled
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x).unwrap() == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.97);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let (xs, ys) = toy_problem(200, &mut rng);
        let model = LogisticRegression::fit(&xs, &ys, LogisticConfig::default()).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: LogisticRegression = serde_json::from_str(&json).unwrap();
        // Compare behaviourally (serde_json may differ in the last ulp).
        for x in [[0.0, 0.0], [1.0, -1.0], [2.0, 2.0]] {
            let a = model.predict_proba(&x).unwrap();
            let b = back.predict_proba(&x).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }
}
