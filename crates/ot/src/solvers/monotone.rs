//! Exact 1-D optimal transport via the monotone (north-west-corner)
//! coupling.
//!
//! For distributions on the real line and any cost `c(x, y) = h(x − y)`
//! with convex `h` (every `L_p^p`, `p ≥ 1`, in particular the paper's
//! squared Euclidean cost), the optimal Kantorovich plan is the *monotone*
//! coupling that pairs quantiles: sweep both supports in increasing order
//! and greedily match mass. This classical result (see Santambrogio,
//! *Optimal Transport for Applied Mathematicians*, §2.2) makes the
//! `O(n + m)` north-west-corner rule **exact** — not merely feasible — in
//! the 1-D case, which is precisely the setting of Algorithm 1 after the
//! paper's per-feature stratification.

use crate::coupling::OtPlan;
use crate::discrete::DiscreteDistribution;
use crate::error::Result;

/// Solve 1-D optimal transport between `mu` and `nu` for any convex
/// translation-invariant cost, returning the monotone coupling.
///
/// The returned plan has exactly `mu.masses()` / `nu.masses()` as its
/// marginals (up to round-off, with the final entries adjusted to absorb
/// accumulation error).
///
/// # Errors
/// Propagates construction failures; inputs are already validated by
/// [`DiscreteDistribution`].
pub fn solve_monotone_1d(mu: &DiscreteDistribution, nu: &DiscreteDistribution) -> Result<OtPlan> {
    let n = mu.len();
    let m = nu.len();
    let mut mass = vec![0.0f64; n * m];
    let mut a: Vec<f64> = mu.masses().to_vec();
    let mut b: Vec<f64> = nu.masses().to_vec();
    // Residual mass below this is treated as exhausted round-off.
    const TINY: f64 = 1e-15;

    let mut i = 0usize;
    let mut j = 0usize;
    while i < n && j < m {
        let moved = a[i].min(b[j]);
        mass[i * m + j] += moved;
        a[i] -= moved;
        b[j] -= moved;
        let a_done = a[i] <= TINY;
        let b_done = b[j] <= TINY;
        if a_done && b_done {
            // Advance both unless that would strand remaining mass: if one
            // side is at its last cell, only the other advances and the
            // follow-up iterations move the ~TINY residue.
            if i + 1 < n && j + 1 < m {
                // Fold the round-off residues into the next cells so the
                // marginals stay exact.
                if i + 1 < n {
                    a[i + 1] += a[i];
                }
                if j + 1 < m {
                    b[j + 1] += b[j];
                }
                i += 1;
                j += 1;
            } else if i + 1 < n {
                a[i + 1] += a[i];
                i += 1;
            } else if j + 1 < m {
                b[j + 1] += b[j];
                j += 1;
            } else {
                break;
            }
        } else if a_done {
            if i + 1 < n {
                a[i + 1] += a[i];
                i += 1;
            } else {
                // Sources exhausted: dump the target residue on this last row.
                mass[i * m + j] += b[j];
                j += 1;
            }
        } else if b_done {
            if j + 1 < m {
                b[j + 1] += b[j];
                j += 1;
            } else {
                // Targets exhausted: dump the source residue on this last column.
                mass[i * m + j] += a[i];
                i += 1;
            }
        }
    }
    // Any leftover round-off on either side lands in the far corner.
    while i < n {
        mass[i * m + (m - 1)] += a[i];
        i += 1;
    }
    while j < m {
        mass[(n - 1) * m + j] += b[j];
        j += 1;
    }

    let plan = OtPlan::from_dense(n, m, mass)?;
    // The greedy sweep conserves mass by construction; validate in debug
    // builds to catch regressions without taxing the hot path.
    debug_assert!(plan.validate_marginals(mu.masses(), nu.masses()).is_ok());
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared `W₂` as the cost of the monotone coupling.
    fn monotone_w2_squared(mu: &DiscreteDistribution, nu: &DiscreteDistribution) -> Result<f64> {
        let plan = solve_monotone_1d(mu, nu)?;
        let cost = crate::cost::CostMatrix::squared_euclidean(mu.support(), nu.support())?;
        plan.transport_cost(&cost)
    }

    fn dd(support: &[f64], masses: &[f64]) -> DiscreteDistribution {
        DiscreteDistribution::new(support.to_vec(), masses.to_vec()).unwrap()
    }

    #[test]
    fn identical_distributions_diagonal_plan() {
        let mu = dd(&[0.0, 1.0, 2.0], &[0.3, 0.4, 0.3]);
        let plan = solve_monotone_1d(&mu, &mu).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { mu.masses()[i] } else { 0.0 };
                assert!((plan.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
        assert!(monotone_w2_squared(&mu, &mu).unwrap() < 1e-15);
    }

    #[test]
    fn point_mass_to_point_mass() {
        let mu = dd(&[0.0], &[1.0]);
        let nu = dd(&[3.0], &[1.0]);
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        assert!((plan.get(0, 0) - 1.0).abs() < 1e-15);
        assert!((monotone_w2_squared(&mu, &nu).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn translation_cost_is_square_of_shift() {
        // W2(mu, mu + c)^2 = c^2 for any distribution.
        let mu = dd(&[0.0, 1.0, 2.5], &[0.5, 0.25, 0.25]);
        let nu = dd(&[2.0, 3.0, 4.5], &[0.5, 0.25, 0.25]);
        assert!((monotone_w2_squared(&mu, &nu).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mass_split_when_supports_differ() {
        // mu: all mass at 0. nu: half at -1, half at +1.
        let mu = dd(&[0.0], &[1.0]);
        let nu = dd(&[-1.0, 1.0], &[0.5, 0.5]);
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        assert!((plan.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((plan.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((monotone_w2_squared(&mu, &nu).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_always_validate() {
        let mu = dd(&[0.0, 0.5, 1.0, 2.0], &[0.1, 0.2, 0.3, 0.4]);
        let nu = dd(&[-1.0, 0.25, 3.0], &[0.6, 0.1, 0.3]);
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        plan.validate_marginals(mu.masses(), nu.masses()).unwrap();
    }

    #[test]
    fn monotone_structure_no_crossings() {
        // If pi[i][j] > 0 and pi[i'][j'] > 0 with i < i', then j <= j'.
        let mu = dd(&[0.0, 1.0, 2.0, 3.0], &[0.25; 4]);
        let nu = dd(&[0.5, 1.5, 2.5], &[0.5, 0.25, 0.25]);
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        let mut max_j_so_far = 0usize;
        for i in 0..plan.rows() {
            let mut min_j = None;
            for j in 0..plan.cols() {
                if plan.get(i, j) > 1e-12 {
                    min_j.get_or_insert(j);
                    max_j_so_far = max_j_so_far.max(j);
                }
            }
            if let Some(mj) = min_j {
                assert!(
                    mj + 1 > max_j_so_far || mj >= max_j_so_far.saturating_sub(0),
                    "crossing at row {i}"
                );
            }
        }
    }

    #[test]
    fn uniform_grids_shift_by_one_cell() {
        // Uniform on {0..4} to uniform on {1..5}: monotone plan moves each
        // cell to its shifted twin; W2^2 = 1.
        let mu = dd(&[0.0, 1.0, 2.0, 3.0, 4.0], &[0.2; 5]);
        let nu = dd(&[1.0, 2.0, 3.0, 4.0, 5.0], &[0.2; 5]);
        let plan = solve_monotone_1d(&mu, &nu).unwrap();
        for i in 0..5 {
            assert!((plan.get(i, i) - 0.2).abs() < 1e-12);
        }
        assert!((monotone_w2_squared(&mu, &nu).unwrap() - 1.0).abs() < 1e-12);
    }
}
