//! Wasserstein distances between discrete distributions.
//!
//! The 1-D `W_p` has the closed quantile form
//! `W_p^p(µ, ν) = ∫₀¹ |F_µ⁻¹(q) − F_ν⁻¹(q)|^p dq`,
//! which we evaluate exactly for discrete measures by sweeping the merged
//! CDF breakpoints — no solver needed. It doubles as an oracle for the
//! monotone/simplex/Sinkhorn solvers in tests, and for the sorted
//! matching that `otr-core`'s data-damage report computes.

use crate::discrete::DiscreteDistribution;
use crate::error::{OtError, Result};

/// Exact 1-D `W_p^p(µ, ν)` via the quantile-function formula.
///
/// # Errors
/// Requires `p ≥ 1`.
pub fn wasserstein_1d(mu: &DiscreteDistribution, nu: &DiscreteDistribution, p: f64) -> Result<f64> {
    if p < 1.0 || !p.is_finite() {
        return Err(OtError::InvalidParameter {
            name: "p",
            reason: format!("must be >= 1 and finite, got {p}"),
        });
    }
    // Sweep the merged cumulative-probability breakpoints. Between two
    // consecutive breakpoints both quantile functions are constant, so the
    // integral is piecewise exact.
    let cdf_mu = mu.cdf();
    let cdf_nu = nu.cdf();
    let mut acc = 0.0;
    let mut q_prev = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < cdf_mu.len() && j < cdf_nu.len() {
        let q_next = cdf_mu[i].min(cdf_nu[j]);
        let seg = q_next - q_prev;
        if seg > 0.0 {
            let d = (mu.support()[i] - nu.support()[j]).abs();
            acc += seg * if p == 2.0 { d * d } else { d.powf(p) };
        }
        // Advance whichever CDF reached the breakpoint (both on ties).
        if cdf_mu[i] <= q_next + f64::EPSILON {
            i += 1;
        }
        if cdf_nu[j] <= q_next + f64::EPSILON {
            j += 1;
        }
        q_prev = q_next;
    }
    Ok(acc)
}

/// Exact 1-D `W₂(µ, ν)` (the square root of [`wasserstein_1d`] at `p=2`).
///
/// # Errors
/// Never fails for valid distributions; signature kept fallible for
/// uniformity.
pub fn w2(mu: &DiscreteDistribution, nu: &DiscreteDistribution) -> Result<f64> {
    Ok(wasserstein_1d(mu, nu, 2.0)?.sqrt())
}

/// Transport cost of an explicit plan under the `L_p^p` ground cost on the
/// two supports — `W_p^p` when the plan is optimal.
///
/// # Errors
/// Propagates shape mismatches.
pub fn wasserstein_from_plan(
    plan: &crate::OtPlan,
    source_support: &[f64],
    target_support: &[f64],
    p: f64,
) -> Result<f64> {
    let cost = crate::cost::CostMatrix::lp(source_support, target_support, p)?;
    plan.transport_cost(&cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::monotone::solve_monotone_1d;

    fn dd(support: &[f64], masses: &[f64]) -> DiscreteDistribution {
        DiscreteDistribution::new(support.to_vec(), masses.to_vec()).unwrap()
    }

    #[test]
    fn identical_is_zero() {
        let mu = dd(&[0.0, 1.0, 5.0], &[0.2, 0.5, 0.3]);
        assert!(wasserstein_1d(&mu, &mu, 2.0).unwrap() < 1e-15);
        assert!(wasserstein_1d(&mu, &mu, 1.0).unwrap() < 1e-15);
    }

    #[test]
    fn point_masses_distance() {
        let mu = dd(&[1.0], &[1.0]);
        let nu = dd(&[4.0], &[1.0]);
        assert!((wasserstein_1d(&mu, &nu, 1.0).unwrap() - 3.0).abs() < 1e-12);
        assert!((wasserstein_1d(&mu, &nu, 2.0).unwrap() - 9.0).abs() < 1e-12);
        assert!((w2(&mu, &nu).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn translation_invariance_of_shape() {
        // W_p(mu, mu + c)^p = |c|^p.
        let mu = dd(&[0.0, 2.0, 3.0], &[0.5, 0.3, 0.2]);
        let nu = dd(&[1.5, 3.5, 4.5], &[0.5, 0.3, 0.2]);
        assert!((wasserstein_1d(&mu, &nu, 2.0).unwrap() - 2.25).abs() < 1e-12);
        assert!((wasserstein_1d(&mu, &nu, 1.0).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_monotone_plan_cost() {
        let mu = dd(&[-2.0, -1.0, 0.5, 2.2], &[0.1, 0.4, 0.3, 0.2]);
        let nu = dd(&[-1.5, 0.0, 1.0], &[0.3, 0.4, 0.3]);
        let direct = wasserstein_1d(&mu, &nu, 2.0).unwrap();
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        let via_plan = wasserstein_from_plan(&plan, mu.support(), nu.support(), 2.0).unwrap();
        assert!(
            (direct - via_plan).abs() < 1e-10,
            "direct {direct} vs plan {via_plan}"
        );
    }

    #[test]
    fn triangle_inequality_w2() {
        let a = dd(&[0.0, 1.0], &[0.5, 0.5]);
        let b = dd(&[0.5, 2.0], &[0.4, 0.6]);
        let c = dd(&[1.0, 3.0], &[0.7, 0.3]);
        let ab = w2(&a, &b).unwrap();
        let bc = w2(&b, &c).unwrap();
        let ac = w2(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = dd(&[0.0, 1.0, 2.0], &[0.3, 0.3, 0.4]);
        let b = dd(&[-1.0, 0.5], &[0.6, 0.4]);
        assert!(
            (wasserstein_1d(&a, &b, 2.0).unwrap() - wasserstein_1d(&b, &a, 2.0).unwrap()).abs()
                < 1e-12
        );
    }

    #[test]
    fn rejects_bad_p() {
        let a = dd(&[0.0], &[1.0]);
        assert!(wasserstein_1d(&a, &a, 0.5).is_err());
        assert!(wasserstein_1d(&a, &a, f64::INFINITY).is_err());
    }
}
