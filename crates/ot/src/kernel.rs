//! The factorized Gibbs kernel — the `KernelRep` behind every
//! product-grid entropic matvec in the workspace.
//!
//! The entropic solvers (Sinkhorn scaling updates, Bregman-barycentre
//! projections) spend essentially all of their time computing
//! `out = K v` against the Gibbs kernel `K_ij = exp(−C_ij / ε)`. For an
//! arbitrary cost that kernel is an `n × n` dense matrix and the matvec
//! is `O(n²)`. But for the **squared-Euclidean cost on a d-axis product
//! grid** — the joint-repair setting, where the support is
//! `Q₁ × … × Q_d` flattened row-major with the last axis fastest — the
//! kernel factorizes as a Kronecker product of axis kernels (the
//! separable-kernel scheme of Solomon et al., "Convolutional Wasserstein
//! Distances", SIGGRAPH 2015):
//!
//! ```text
//! C[i, j] = Σₐ (Qₐ[iₐ] − Qₐ[jₐ])²
//! ⇒ K = K₁ ⊗ … ⊗ K_d,   Kₐ[i, j] = exp(−(Qₐ[i] − Qₐ[j])²/ε)
//! ```
//!
//! so [`KernelRep`] contracts one axis per pass, the last axis first; at
//! d = 2:
//!
//! ```text
//! tmp[k, j] = Σ_l K₂[j,l] · v[k, l]      (contract axis 2)
//! out[i, j] = Σ_k K₁[i,k] · tmp[k, j]    (contract axis 1)
//! ```
//!
//! That is `O(n·Σnᵢ)` per matvec instead of `O(n²)`, where `n = Πnᵢ`:
//! two `O(nQ³)` passes instead of one `O(nQ⁴)` sweep at d = 2 (12× less
//! work at `nQ = 24`). At `d = 3`, `nQ = 16` a dense kernel would be
//! `nQ⁶ ≈ 1.7e7` cells (134 MB — infeasible to iterate), while the
//! factorized matvec touches `n·3nQ ≈ 2.0e5` cells: factorization is the
//! enabling representation, not an optimization, so product grids always
//! factorize. Only the Sinkhorn solver keeps a dense kernel, for costs
//! that carry no grid (scalar supports, filtered product supports).
//!
//! **Determinism.** Each pass writes every output element from exactly
//! one thread ([`otr_par::par_rows_mut`] chunks whole rows of the outer
//! axis) and accumulates its contraction in a fixed sequential order
//! (`l` ascending, then `k` ascending), so the matvec is
//! **bit-identical for any thread count**. A dense matvec over the same
//! cells *groups the same sum differently*, so the two agree to rounding
//! (~1e-12 relative; pinned at 1e-9 against a plain dense matrix by
//! `tests/kernel_equivalence.rs`) but are not bitwise equal.
//!
//! [`KernelChoice`] survives as a config field whose values no longer
//! change a solve: `Auto` (the default) and `Separable` both mean the
//! factorized kernel, and `Dense`, the removed dense product-grid
//! kernel, is refused by [`KernelChoice::validate`].

use serde::{Deserialize, Serialize};

use otr_par::par_rows_mut;

use crate::error::{OtError, Result};

/// Floor on the kernel products a scaling update divides by, and on the
/// scalings whose logs the entropic solvers take, so an underflowed
/// `(K v)_i` never divides by zero.
pub(crate) const SCALING_FLOOR: f64 = 1e-300;

/// The Gibbs-kernel representation a config asks its entropic solves to
/// use on product grids. Product grids always factorize, so `Auto` and
/// `Separable` mean the same kernel and `Dense` is refused.
///
/// Serialized like the other config enums (`"Auto"`, `"Dense"`,
/// `"Separable"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// The factorized `K₁ ⊗ … ⊗ K_d` kernel. The default, and what joint
    /// plan JSON records.
    #[default]
    Auto,
    /// The dense product-grid kernel, which was removed. A plan that
    /// names it still loads (loading never reads the choice), but a
    /// design, a barycentre or a solve asking for it is refused by
    /// [`KernelChoice::validate`].
    Dense,
    /// The factorized `K₁ ⊗ … ⊗ K_d` kernel, the same as
    /// [`KernelChoice::Auto`].
    Separable,
}

impl KernelChoice {
    /// Refuse the removed dense product-grid kernel: the one check every
    /// joint design, barycentre and solve runs on its choice before any
    /// work.
    ///
    /// # Errors
    /// [`OtError::InvalidParameter`] naming `kernel` for
    /// [`KernelChoice::Dense`].
    pub fn validate(self) -> Result<()> {
        if self == KernelChoice::Dense {
            return Err(OtError::InvalidParameter {
                name: "kernel",
                reason: "the dense product-grid kernel was removed: product grids always \
                         factorize as K₁ ⊗ … ⊗ K_d; use `Auto`"
                    .into(),
            });
        }
        Ok(())
    }
}

/// One axis factor of a [`KernelRep`]: the Gibbs kernel of the
/// squared-Euclidean cost restricted to a single grid axis,
/// `K[i,j] = exp(−(g[i]−g[j])²/ε)`.
#[derive(Debug, Clone)]
pub struct AxisKernel {
    /// Axis kernel cells, row-major `n × n`.
    pub k: Vec<f64>,
    /// Grid length of this axis.
    pub n: usize,
}

impl AxisKernel {
    /// Build the axis kernel of grid `g` at temperature `eps`.
    pub fn from_grid(g: &[f64], eps: f64) -> Self {
        let n = g.len();
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let d = g[i] - g[j];
                k[i * n + j] = (-(d * d) / eps).exp();
            }
        }
        AxisKernel { k, n }
    }
}

/// The factorized Gibbs kernel `K₁ ⊗ … ⊗ K_d` of a squared-Euclidean
/// cost on a d-axis product grid, flattened row-major with the **last
/// axis fastest**, behind one [`matvec`](KernelRep::matvec). Each
/// factor is symmetric, so the kernel is too.
#[derive(Debug, Clone)]
pub struct KernelRep {
    /// Per-axis kernels, outermost (slowest-varying) axis first.
    pub axes: Vec<AxisKernel>,
}

impl KernelRep {
    /// Build the factorized kernel of the squared-Euclidean cost on the
    /// d-axis product grid `axes[0] × … × axes[d−1]` (flattened
    /// row-major, last axis fastest): d tiny axis kernels, `Σnᵢ²` cells
    /// total where a dense kernel would be `(Πnᵢ)²`.
    pub fn separable_grid_nd(axes: &[&[f64]], eps: f64) -> Self {
        KernelRep {
            axes: axes.iter().map(|g| AxisKernel::from_grid(g, eps)).collect(),
        }
    }

    /// Number of support points the kernel acts on.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.n).product()
    }

    /// True when the kernel acts on an empty support.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Matrix cells one matvec actually touches, `n·Σnᵢ` — the work
    /// measure the [`otr_par::kernel_threads`] parallelism threshold
    /// compares against.
    pub fn work_cells(&self) -> usize {
        self.len() * self.axes.iter().map(|a| a.n).sum::<usize>()
    }

    /// `out = K v` (the kernel is symmetric, so this also serves `Kᵀ v`).
    /// `scratch` must hold `len()` slots for the intermediate passes.
    ///
    /// Deterministic for any `threads`: every output element is written
    /// by exactly one thread and accumulated in an order fixed by the
    /// axes, never by the chunking.
    ///
    /// # Panics
    /// `v`, `out`, and `scratch` must all hold `len()` elements, and the
    /// kernel needs at least one axis.
    pub fn matvec(&self, v: &[f64], out: &mut [f64], scratch: &mut [f64], threads: usize) {
        let n = self.len();
        assert_eq!(v.len(), n, "kernel matvec: input length");
        assert_eq!(out.len(), n, "kernel matvec: output length");
        assert_eq!(scratch.len(), n, "kernel matvec: scratch length");
        let axes = &self.axes;
        let d = axes.len();
        assert!(d > 0, "kernel matvec: needs ≥ 1 axis");
        // suffix[a] = Π axes[a..].n, so suffix[a + 1] is the row length R
        // of the contraction over axis a.
        let mut suffix = vec![1usize; d + 1];
        for a in (0..d).rev() {
            suffix[a] = suffix[a + 1] * axes[a].n;
        }
        // One contraction pass over axis `a`, viewing the flat tensor as
        // (P, n_a, R) with R = suffix[a + 1]. The accumulation order
        // inside each output row is fixed by the representation (l / k
        // ascending), never by the chunking, so the output is
        // bit-identical across thread counts.
        let contract = |a: usize, src: &[f64], dst: &mut [f64]| {
            let ax = &axes[a];
            let na = ax.n;
            if a == d - 1 {
                // Last axis: contiguous rows of length n_d; per output j
                // a dot product over l ascending.
                par_rows_mut(dst, na, threads, |r, dst_row| {
                    let src_row = &src[r * na..(r + 1) * na];
                    for (j, slot) in dst_row.iter_mut().enumerate() {
                        let k_row = &ax.k[j * na..(j + 1) * na];
                        let mut acc = 0.0;
                        for (kjl, vl) in k_row.iter().zip(src_row) {
                            acc += kjl * vl;
                        }
                        *slot = acc;
                    }
                });
            } else {
                // Earlier axis: rows of length R, strided by n_a·R
                // between the k-slices of one (p, ·, R) block; axpy over
                // k ascending per output row.
                let r_len = suffix[a + 1];
                par_rows_mut(dst, r_len, threads, |r, dst_row| {
                    let (p, i) = (r / na, r % na);
                    dst_row.fill(0.0);
                    let k_row = &ax.k[i * na..(i + 1) * na];
                    for (k, &w) in k_row.iter().enumerate() {
                        let base = (p * na + k) * r_len;
                        let src_row = &src[base..base + r_len];
                        for (slot, t) in dst_row.iter_mut().zip(src_row) {
                            *slot += w * t;
                        }
                    }
                });
            }
        };
        // Contract last axis first; ping-pong between the two buffers so
        // the final pass always lands in `out` (even d starts in
        // `scratch`, odd d in `out`).
        for (step, a) in (0..d).rev().enumerate() {
            let dst_is_out = (d - step) % 2 == 1;
            match (step == 0, dst_is_out) {
                (true, true) => contract(a, v, out),
                (true, false) => contract(a, v, scratch),
                (false, true) => contract(a, scratch, out),
                (false, false) => contract(a, out, scratch),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64)
            .collect()
    }

    /// The dense Gibbs matrix over a flattened d-axis product grid (last
    /// axis fastest), row-major `n × n`: the reference the factorized
    /// kernel is checked against.
    fn dense_of_grid_nd(axes: &[&[f64]], eps: f64) -> Vec<f64> {
        let n: usize = axes.iter().map(|g| g.len()).product();
        let sq_dist = |i: usize, j: usize| {
            let (mut ri, mut rj) = (i, j);
            let mut acc = 0.0;
            for g in axes.iter().rev() {
                let d = g[ri % g.len()] - g[rj % g.len()];
                acc += d * d;
                ri /= g.len();
                rj /= g.len();
            }
            acc
        };
        (0..n * n)
            .map(|idx| (-sq_dist(idx / n, idx % n) / eps).exp())
            .collect()
    }

    #[test]
    fn separable_nd_matvec_matches_dense_within_rounding() {
        let g1 = grid(-1.5, 2.0, 5);
        let g2 = grid(0.0, 1.0, 4);
        let g3 = grid(-0.5, 0.5, 3);
        let g4 = grid(0.2, 2.2, 2);
        let cases: Vec<Vec<&[f64]>> = vec![
            vec![&g1, &g2],
            vec![&g1, &g2, &g3],
            vec![&g1, &g2, &g3, &g4],
        ];
        for axes in &cases {
            let n: usize = axes.iter().map(|g| g.len()).product();
            let v: Vec<f64> = (0..n)
                .map(|i| 0.1 + ((i * 13) % 17) as f64 / 17.0)
                .collect();
            for eps in [0.05, 0.3, 1.7] {
                let dense = dense_of_grid_nd(axes, eps);
                let sep = KernelRep::separable_grid_nd(axes, eps);
                assert_eq!(sep.len(), n);
                assert!(sep.work_cells() < n * n);
                let a: Vec<f64> = dense
                    .chunks_exact(n)
                    .map(|row| row.iter().zip(&v).map(|(k, x)| k * x).sum())
                    .collect();
                let mut b = vec![0.0; n];
                let mut scratch = vec![0.0; n];
                sep.matvec(&v, &mut b, &mut scratch, 1);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300),
                        "d = {}, eps = {eps}, cell {i}: dense {x} vs separable {y}",
                        axes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn separable_nd_matvec_bit_identical_across_thread_counts() {
        let g1 = grid(-2.0, 2.0, 9);
        let g2 = grid(-1.0, 3.0, 6);
        let g3 = grid(0.0, 1.0, 3);
        let cases: [&[&[f64]]; 2] = [&[&g1, &g2], &[&g1, &g2, &g3]];
        for axes in cases {
            let kernel = KernelRep::separable_grid_nd(axes, 0.2);
            let n = kernel.len();
            let v: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 / 11.0).collect();
            let mut reference: Option<Vec<u64>> = None;
            for threads in [1usize, 2, 7] {
                let mut out = vec![0.0; n];
                let mut scratch = vec![0.0; n];
                kernel.matvec(&v, &mut out, &mut scratch, threads);
                let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                match &reference {
                    None => reference = Some(bits),
                    Some(r) => assert_eq!(&bits, r, "d = {}, threads = {threads}", axes.len()),
                }
            }
        }
    }

    #[test]
    fn separable_nd_work_cells_scale_linearly() {
        let g = grid(0.0, 1.0, 16);
        let axes: Vec<&[f64]> = vec![&g, &g, &g];
        let kernel = KernelRep::separable_grid_nd(&axes, 0.1);
        let n = 16usize.pow(3);
        assert_eq!(kernel.len(), n);
        assert_eq!(kernel.work_cells(), n * 48);
        // The dense kernel at this size would be n² ≈ 1.7e7 cells —
        // the separable representation is ~85x lighter per matvec.
        assert!(kernel.work_cells() * 64 < n * n);
    }

    #[test]
    fn dense_is_refused_by_the_shared_check() {
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
        assert!(KernelChoice::Auto.validate().is_ok());
        assert!(KernelChoice::Separable.validate().is_ok());
        assert!(matches!(
            KernelChoice::Dense.validate(),
            Err(OtError::InvalidParameter { name: "kernel", .. })
        ));
    }

    #[test]
    fn serde_round_trips() {
        for c in [
            KernelChoice::Auto,
            KernelChoice::Dense,
            KernelChoice::Separable,
        ] {
            let json = serde_json::to_string(&c).unwrap();
            let back: KernelChoice = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c);
        }
        assert_eq!(
            serde_json::to_string(&KernelChoice::Auto).unwrap(),
            "\"Auto\""
        );
    }
}
