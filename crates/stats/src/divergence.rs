//! Divergences between probability vectors on a shared support.
//!
//! The paper's fairness measure (Definition 2.4) is the **symmetrized
//! Kullback–Leibler divergence** between the two `s|u`-conditional feature
//! densities:
//! `E_u = ½ D(f₀‖f₁) + ½ D(f₁‖f₀)`.
//! All divergences below operate on (possibly unnormalized) non-negative
//! vectors evaluated on a common grid; they normalize internally and floor
//! probabilities at [`EPS_FLOOR`] so that empty tails do not produce
//! infinities (the standard KDE-plug-in estimator convention).

use crate::error::{Result, StatsError};

/// Probability floor applied before taking logarithms.
pub const EPS_FLOOR: f64 = 1e-12;

fn validate_pair(p: &[f64], q: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
    if p.is_empty() {
        return Err(StatsError::EmptyInput("divergence input p"));
    }
    if p.len() != q.len() {
        return Err(StatsError::LengthMismatch {
            what: "divergence inputs",
            left: p.len(),
            right: q.len(),
        });
    }
    let norm = |v: &[f64], name: &str| -> Result<Vec<f64>> {
        let mut total = 0.0;
        for &x in v {
            if x < 0.0 || x.is_nan() {
                return Err(StatsError::InvalidProbabilities(format!(
                    "{name} contains negative or NaN mass"
                )));
            }
            total += x;
        }
        if total <= 0.0 || !total.is_finite() {
            return Err(StatsError::InvalidProbabilities(format!(
                "{name} has total mass {total}"
            )));
        }
        Ok(v.iter().map(|x| (x / total).max(EPS_FLOOR)).collect())
    };
    Ok((norm(p, "p")?, norm(q, "q")?))
}

/// Kullback–Leibler divergence `D(p‖q) = Σ p log(p/q)` (nats).
///
/// # Errors
/// Returns an error on empty input, length mismatch, or invalid mass.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> Result<f64> {
    let (p, q) = validate_pair(p, q)?;
    let mut acc = 0.0;
    for (pi, qi) in p.iter().zip(&q) {
        acc += pi * (pi / qi).ln();
    }
    Ok(acc.max(0.0))
}

/// Symmetrized KL divergence `½ D(p‖q) + ½ D(q‖p)` — the paper's `E_u`
/// (Definition 2.4).
///
/// # Errors
/// Same as [`kl_divergence`].
pub fn sym_kl_divergence(p: &[f64], q: &[f64]) -> Result<f64> {
    Ok(0.5 * kl_divergence(p, q)? + 0.5 * kl_divergence(q, p)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_divergence() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).unwrap() < 1e-12);
        assert!(sym_kl_divergence(&p, &p).unwrap() < 1e-12);
    }

    #[test]
    fn kl_is_asymmetric_sym_kl_is_not() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let dpq = kl_divergence(&p, &q).unwrap();
        let dqp = kl_divergence(&q, &p).unwrap();
        assert!((dpq - dqp).abs() > 1e-3);
        let s1 = sym_kl_divergence(&p, &q).unwrap();
        let s2 = sym_kl_divergence(&q, &p).unwrap();
        assert!((s1 - s2).abs() < 1e-14);
        assert!((s1 - 0.5 * (dpq + dqp)).abs() < 1e-14);
    }

    #[test]
    fn kl_hand_computed() {
        // D([1,0] || [0.5,0.5]) = 1*ln(2) with the zero floored.
        let d = kl_divergence(&[1.0, 0.0], &[0.5, 0.5]).unwrap();
        assert!((d - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn unnormalized_inputs_are_normalized() {
        let d1 = kl_divergence(&[2.0, 6.0], &[4.0, 4.0]).unwrap();
        let d2 = kl_divergence(&[0.25, 0.75], &[0.5, 0.5]).unwrap();
        assert!((d1 - d2).abs() < 1e-14);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(kl_divergence(&[], &[]).is_err());
        assert!(kl_divergence(&[0.5], &[0.5, 0.5]).is_err());
        assert!(kl_divergence(&[-1.0, 2.0], &[0.5, 0.5]).is_err());
        assert!(kl_divergence(&[0.0, 0.0], &[0.5, 0.5]).is_err());
        assert!(kl_divergence(&[f64::NAN, 1.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn gaussian_grid_sym_kl_close_to_analytic() {
        // For two unit-variance Gaussians the analytic symmetrized KL is
        // (mu0-mu1)^2 / 2 + ... for equal variances it's exactly
        // (mu0-mu1)^2/2 per direction => sym KL = (mu0-mu1)^2/2... check:
        // D(N(a,1)||N(b,1)) = (a-b)^2/2, so sym KL = (a-b)^2/2.
        use crate::dist::{ContinuousDistribution, Normal};
        let n0 = Normal::new(0.0, 1.0).unwrap();
        let n1 = Normal::new(1.0, 1.0).unwrap();
        let grid: Vec<f64> = (0..2000).map(|i| -6.0 + 13.0 * i as f64 / 1999.0).collect();
        let p: Vec<f64> = grid.iter().map(|&x| n0.pdf(x)).collect();
        let q: Vec<f64> = grid.iter().map(|&x| n1.pdf(x)).collect();
        let d = sym_kl_divergence(&p, &q).unwrap();
        assert!((d - 0.5).abs() < 0.01, "d = {d}");
    }
}
