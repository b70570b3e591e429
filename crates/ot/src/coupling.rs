//! Transport plans (couplings): joint distributions over the product of a
//! source and a target support, with marginal validation — the `π` of
//! Equation (5) and the `π*_s` outputs of Algorithm 1.

use serde::{Deserialize, Serialize};

use crate::cost::CostMatrix;
use crate::discrete::mass_total;
use crate::error::{OtError, Result};

/// Tolerance used when validating that a plan's marginals match the
/// prescribed ones.
pub const MARGINAL_TOL: f64 = 1e-8;

/// A dense transport plan `π ∈ ℝ^{n×m}`, with row marginal `µ` (source)
/// and column marginal `ν` (target).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OtPlan {
    rows: usize,
    cols: usize,
    /// Row-major joint masses.
    mass: Vec<f64>,
}

/// A deserialized plan holds `rows × cols` masses, the shape every
/// reader indexes by; what the masses may be is left to the reader.
impl Deserialize for OtPlan {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            rows: usize,
            cols: usize,
            mass: Vec<f64>,
        }
        let Raw { rows, cols, mass } = Raw::from_value(value)?;
        if rows.checked_mul(cols) != Some(mass.len()) {
            let n = mass.len();
            return Err(serde::Error::custom(format!(
                "plan of {rows}×{cols} holds {n} masses"
            )));
        }
        Ok(Self { rows, cols, mass })
    }
}

impl OtPlan {
    /// Wrap a row-major mass matrix as a plan, validating shape and
    /// non-negativity. Use [`OtPlan::validate_marginals`] to check the
    /// coupling constraints against specific marginals.
    ///
    /// # Errors
    /// Rejects empty, misshapen, negative, NaN, or zero-total mass.
    pub fn from_dense(rows: usize, cols: usize, mass: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(OtError::EmptyInput("plan dimensions"));
        }
        if mass.len() != rows * cols {
            return Err(OtError::LengthMismatch {
                what: "plan mass vs dimensions",
                left: mass.len(),
                right: rows * cols,
            });
        }
        mass_total(&mass, "plan mass")?;
        Ok(Self { rows, cols, mass })
    }

    /// Number of source points.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target points.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Joint mass transported from source `i` to target `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.mass[i * self.cols + j]
    }

    /// Row `i` of the plan — the conditional transport pattern of source
    /// point `i`, which Algorithm 2 normalizes into the multinomial of
    /// Equation (15).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.mass[i * self.cols..(i + 1) * self.cols]
    }

    /// Row marginal (push-forward onto the source): `Σ_j π[i][j]`.
    pub fn row_marginal(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Column marginal (push-forward onto the target): `Σ_i π[i][j]`.
    pub fn col_marginal(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, &m) in self.row(i).iter().enumerate() {
                out[j] += m;
            }
        }
        out
    }

    /// Verify the coupling constraints `T_{x₀}♯π = µ`, `T_{x₁}♯π = ν`
    /// within [`MARGINAL_TOL`].
    ///
    /// # Errors
    /// Returns [`OtError::SolverInternal`] describing the first violated
    /// constraint.
    pub fn validate_marginals(&self, mu: &[f64], nu: &[f64]) -> Result<()> {
        if mu.len() != self.rows {
            return Err(OtError::LengthMismatch {
                what: "row marginal",
                left: mu.len(),
                right: self.rows,
            });
        }
        if nu.len() != self.cols {
            return Err(OtError::LengthMismatch {
                what: "column marginal",
                left: nu.len(),
                right: self.cols,
            });
        }
        for (i, (&have, &want)) in self.row_marginal().iter().zip(mu).enumerate() {
            if (have - want).abs() > MARGINAL_TOL {
                return Err(OtError::SolverInternal(format!(
                    "row marginal {i}: {have} vs {want}"
                )));
            }
        }
        for (j, (&have, &want)) in self.col_marginal().iter().zip(nu).enumerate() {
            if (have - want).abs() > MARGINAL_TOL {
                return Err(OtError::SolverInternal(format!(
                    "column marginal {j}: {have} vs {want}"
                )));
            }
        }
        Ok(())
    }

    /// Expected transport cost `⟨π, C⟩ = Σ_{ij} π[i][j] C[i][j]` —
    /// the objective of Equation (5).
    ///
    /// # Errors
    /// Returns [`OtError::LengthMismatch`] on shape mismatch.
    pub fn transport_cost(&self, cost: &CostMatrix) -> Result<f64> {
        if cost.rows() != self.rows || cost.cols() != self.cols {
            return Err(OtError::LengthMismatch {
                what: "plan vs cost matrix",
                left: self.rows * self.cols,
                right: cost.rows() * cost.cols(),
            });
        }
        let mut acc = 0.0;
        for i in 0..self.rows {
            let r = self.row(i);
            let c = cost.row(i);
            for (m, cc) in r.iter().zip(c) {
                acc += m * cc;
            }
        }
        Ok(acc)
    }

    /// Barycentric projection of source point `i`: the conditional mean of
    /// the target given source `i`, `E_π[y | xᵢ]`. Returns `None` when row
    /// `i` carries no mass.
    pub fn barycentric_projection(&self, i: usize, target_support: &[f64]) -> Option<f64> {
        let row = self.row(i);
        let mass: f64 = row.iter().sum();
        if mass <= 0.0 {
            return None;
        }
        let weighted: f64 = row.iter().zip(target_support).map(|(m, y)| m * y).sum();
        Some(weighted / mass)
    }

    /// The total transported mass (≈ 1 for a probability coupling).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_plan() -> OtPlan {
        // 2x2 product coupling of [0.4, 0.6] x [0.5, 0.5].
        OtPlan::from_dense(2, 2, vec![0.2, 0.2, 0.3, 0.3]).unwrap()
    }

    #[test]
    fn from_dense_rejects_invalid() {
        assert!(OtPlan::from_dense(0, 2, vec![]).is_err());
        assert!(OtPlan::from_dense(2, 2, vec![0.5; 3]).is_err());
        assert!(OtPlan::from_dense(1, 2, vec![-0.5, 1.5]).is_err());
        assert!(OtPlan::from_dense(1, 1, vec![0.0]).is_err());
        assert!(OtPlan::from_dense(1, 1, vec![f64::NAN]).is_err());
    }

    #[test]
    fn marginals() {
        let p = simple_plan();
        assert_eq!(p.row_marginal(), vec![0.4, 0.6]);
        assert_eq!(p.col_marginal(), vec![0.5, 0.5]);
        p.validate_marginals(&[0.4, 0.6], &[0.5, 0.5]).unwrap();
        assert!(p.validate_marginals(&[0.5, 0.5], &[0.5, 0.5]).is_err());
        assert!(p.validate_marginals(&[0.4], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn transport_cost_hand_computed() {
        let p = simple_plan();
        let c = CostMatrix::squared_euclidean(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        // cost = 0.2*0 + 0.2*1 + 0.3*1 + 0.3*0 = 0.5
        assert!((p.transport_cost(&c).unwrap() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn transport_cost_shape_mismatch() {
        let p = simple_plan();
        let c = CostMatrix::squared_euclidean(&[0.0], &[0.0, 1.0]).unwrap();
        assert!(p.transport_cost(&c).is_err());
    }

    #[test]
    fn barycentric_projection_conditional_mean() {
        let p = simple_plan();
        // Row 0 mass [0.2, 0.2] over targets [10, 20] -> mean 15.
        assert_eq!(p.barycentric_projection(0, &[10.0, 20.0]), Some(15.0));
    }

    #[test]
    fn barycentric_projection_empty_row() {
        let p = OtPlan::from_dense(2, 1, vec![1.0, 0.0]).unwrap();
        assert_eq!(p.barycentric_projection(1, &[5.0]), None);
    }

    #[test]
    fn total_mass_one() {
        assert!((simple_plan().total_mass() - 1.0).abs() < 1e-15);
    }
}
