//! Small dense linear algebra: the `Matrix` type and its Cholesky
//! factorization.
//!
//! The fairness-repair pipeline only ever manipulates small matrices — the
//! `d × d` covariance of the simulated mixture components (`d = 2` in the
//! paper) and the `nQ × nQ` OT cost matrices live in `otr-ot` — so this is a
//! deliberately simple row-major implementation with bounds-checked
//! accessors and no BLAS ambitions.

use serde::{Deserialize, Serialize};

use crate::error::{Result, StatsError};

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`StatsError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatsError::LengthMismatch {
                what: "matrix data vs dimensions",
                left: data.len(),
                right: rows * cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// The `n × n` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    /// Returns [`StatsError::LengthMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(StatsError::LengthMismatch {
                what: "matvec",
                left: self.cols,
                right: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix; returns the lower-triangular factor `L`.
    ///
    /// # Errors
    /// Returns [`StatsError::Linalg`] if the matrix is not square or not
    /// positive definite (within a small tolerance).
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::Linalg(format!(
                "cholesky requires a square matrix, got {}x{}",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(StatsError::Linalg(format!(
                            "matrix not positive definite at pivot {i} (value {sum})"
                        )));
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B with distinct entries => SPD.
        Matrix::from_rows(3, 3, vec![4.0, 2.0, 0.6, 2.0, 3.0, 0.4, 0.6, 0.4, 2.0]).unwrap()
    }

    #[test]
    fn from_rows_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn matvec_against_hand_computed() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, -2.0, 3.5]).unwrap(), vec![7.5, 15.0]);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let back: f64 = (0..3).map(|k| l.get(i, k) * l.get(j, k)).sum();
                assert!((back - a.get(i, j)).abs() < 1e-12);
            }
        }
        // L is lower triangular.
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(1, 2), 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(m.cholesky(), Err(StatsError::Linalg(_))));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(Matrix::zeros(2, 3).cholesky().is_err());
    }
}
