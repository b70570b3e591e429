//! Column-major (struct-of-arrays) storage of a labelled data set.
//!
//! [`crate::Dataset`] stores one heap-allocated `x: Vec<f64>` per row —
//! the natural shape for point-wise algorithms, but the worst possible
//! one for archival-scale repair, where every hot loop walks a single
//! feature across millions of rows: each access chases a fresh pointer,
//! so the memory system (not compute) sets the throughput ceiling.
//!
//! [`ColumnarDataset`] flips the layout: one contiguous `Vec<f64>` per
//! feature and packed `s`/`u` byte columns — nothing else, so building,
//! slicing or decoding one writes each value once. A repair kernel then
//! reads one cache-line-friendly column slice at a time (partitioning
//! each batch by [`crate::GroupKey`] itself) and the compiler can autovectorize
//! the pure arithmetic passes (see `docs/performance.md`, "Columnar
//! layout").
//!
//! Conversions to and from [`Dataset`] are lossless: both directions
//! preserve row order, labels, and exact `f64` bits, so the two layouts
//! are interchangeable representations of the same data set — the
//! byte-identity contract of the columnar repair kernels rests on it.

use crate::dataset::{Dataset, LabelledPoint};
use crate::error::{DataError, Result};

/// A labelled data set in column-major (struct-of-arrays) layout.
///
/// Invariants (enforced by every constructor):
/// * exactly `dim ≥ 1` feature columns, all of equal length;
/// * every feature value is finite;
/// * `s`/`u` labels are binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarDataset {
    dim: usize,
    /// One contiguous column per feature, each of length `len()`.
    features: Vec<Vec<f64>>,
    /// Protected attribute per row.
    s: Vec<u8>,
    /// Unprotected attribute per row.
    u: Vec<u8>,
}

/// The error for the first row whose labels leave `{0, 1}`.
fn label_error(s: &[u8], u: &[u8]) -> DataError {
    let i = s.iter().zip(u).position(|(&s, &u)| s > 1 || u > 1);
    let i = i.expect("called only when some label is outside {0,1}");
    DataError::Shape(format!(
        "row {i} has labels (s={}, u={}) outside {{0,1}}",
        s[i], u[i]
    ))
}

fn non_finite_error(k: usize) -> DataError {
    DataError::Shape(format!("feature column {k} has non-finite values"))
}

/// Every column must hold `len` finite values.
fn check_columns(features: &[Vec<f64>], len: usize) -> Result<()> {
    for (k, col) in features.iter().enumerate() {
        if col.len() != len {
            return Err(DataError::Shape(format!(
                "feature column {k} has {} rows (expected {len})",
                col.len()
            )));
        }
        if col.iter().any(|v| !v.is_finite()) {
            return Err(non_finite_error(k));
        }
    }
    Ok(())
}

impl ColumnarDataset {
    /// Create an empty columnar data set of feature dimension `dim ≥ 1`.
    ///
    /// # Errors
    /// Rejects `dim == 0`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(DataError::Shape("feature dimension must be >= 1".into()));
        }
        Ok(Self {
            dim,
            features: vec![Vec::new(); dim],
            s: Vec::new(),
            u: Vec::new(),
        })
    }

    /// Build from raw columns, validating every invariant.
    ///
    /// # Errors
    /// Rejects zero feature columns, length mismatches between any two
    /// columns, non-finite feature values, and labels outside `{0, 1}`.
    pub fn from_columns(features: Vec<Vec<f64>>, s: Vec<u8>, u: Vec<u8>) -> Result<Self> {
        if features.is_empty() {
            return Err(DataError::Shape("feature dimension must be >= 1".into()));
        }
        let len = s.len();
        if u.len() != len {
            return Err(DataError::Shape(format!(
                "label columns disagree: s has {len} rows, u has {}",
                u.len()
            )));
        }
        check_columns(&features, len)?;
        if s.iter().chain(&u).any(|&b| b > 1) {
            return Err(label_error(&s, &u));
        }
        Ok(Self {
            dim: features.len(),
            features,
            s,
            u,
        })
    }

    /// Decode packed columns: the `s` and `u` label bytes plus `dim`
    /// feature columns of `s.len()` big-endian IEEE-754 bit patterns
    /// each, column after column (the repair service's wire layout).
    /// Each column is decoded in one bulk pass that also validates it,
    /// so no value is read twice.
    ///
    /// # Errors
    /// As [`Self::from_columns`], plus a `features` length that is not
    /// `8 · dim · s.len()` bytes.
    pub fn from_be_bytes(dim: usize, s: &[u8], u: &[u8], features: &[u8]) -> Result<Self> {
        let len = s.len();
        let want = len.checked_mul(8).and_then(|b| b.checked_mul(dim));
        if dim == 0 || u.len() != len || want != Some(features.len()) {
            return Err(DataError::Shape(format!(
                "{} feature bytes and {} u labels do not fit {dim} columns of {len} rows",
                features.len(),
                u.len()
            )));
        }
        // OR-folding the copied labels flags any byte above 1, branch-free.
        let mut labels_or = 0u8;
        let mut copy =
            |col: &[u8]| -> Vec<u8> { col.iter().inspect(|&&b| labels_or |= b).copied().collect() };
        let (s_col, u_col) = (copy(s), copy(u));
        if labels_or > 1 {
            return Err(label_error(s, u));
        }
        let decode = |k: usize| {
            let mut finite = true;
            let col: Vec<f64> = (features[8 * len * k..8 * len * (k + 1)].chunks_exact(8))
                .map(|b| {
                    let v = f64::from_bits(u64::from_be_bytes(b.try_into().expect("8-byte chunk")));
                    finite &= v.is_finite();
                    v
                })
                .collect();
            finite.then_some(col).ok_or_else(|| non_finite_error(k))
        };
        Ok(Self {
            dim,
            features: (0..dim).map(decode).collect::<Result<_>>()?,
            s: s_col,
            u: u_col,
        })
    }

    /// Transpose a row-major [`Dataset`] into columnar layout. Lossless:
    /// row order, labels, and exact `f64` bits are preserved.
    pub fn from_dataset(data: &Dataset) -> Self {
        let n = data.len();
        let mut features: Vec<Vec<f64>> = (0..data.dim()).map(|_| Vec::with_capacity(n)).collect();
        for p in data.points() {
            for (col, &v) in features.iter_mut().zip(&p.x) {
                col.push(v);
            }
        }
        Self {
            dim: data.dim(),
            features,
            s: data.points().iter().map(|p| p.s).collect(),
            u: data.points().iter().map(|p| p.u).collect(),
        }
    }

    /// Transpose back to the row-major [`Dataset`] layout. Lossless
    /// inverse of [`Self::from_dataset`].
    pub fn to_dataset(&self) -> Dataset {
        let points = (0..self.len()).map(|i| self.row(i)).collect();
        Dataset::from_validated(self.dim, points)
    }

    /// Feature dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// The full feature-`k` column as a contiguous slice — zero-copy,
    /// unlike the gathering [`Dataset::feature_column`].
    ///
    /// # Errors
    /// Rejects `k >= dim`.
    pub fn feature_column(&self, k: usize) -> Result<&[f64]> {
        self.features.get(k).map(Vec::as_slice).ok_or_else(|| {
            DataError::Shape(format!("feature index {k} out of range (dim {})", self.dim))
        })
    }

    /// All feature columns (indexed by feature).
    #[inline]
    pub fn feature_columns(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Packed protected-attribute column.
    #[inline]
    pub fn s(&self) -> &[u8] {
        &self.s
    }

    /// Packed unprotected-attribute column.
    #[inline]
    pub fn u(&self) -> &[u8] {
        &self.u
    }

    /// Materialize row `i` as a [`LabelledPoint`] (allocates; meant for
    /// interop and tests, not hot loops).
    ///
    /// # Panics
    /// `i` must be a valid row index.
    pub fn row(&self, i: usize) -> LabelledPoint {
        LabelledPoint {
            x: self.features.iter().map(|col| col[i]).collect(),
            s: self.s[i],
            u: self.u[i],
        }
    }

    /// Append one row, validating dimension, finiteness, and labels —
    /// the streaming-ingest entry point (CSV parses straight into the
    /// columns through this, never materializing row structs).
    ///
    /// # Errors
    /// Mirrors [`Dataset::push`].
    pub fn push_row(&mut self, x: &[f64], s: u8, u: u8) -> Result<()> {
        if x.len() != self.dim {
            return Err(DataError::Shape(format!(
                "row has dimension {} (expected {})",
                x.len(),
                self.dim
            )));
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(DataError::Shape("row has non-finite features".into()));
        }
        if s > 1 || u > 1 {
            return Err(DataError::Shape("labels must be in {0,1}".into()));
        }
        for (col, &v) in self.features.iter_mut().zip(x) {
            col.push(v);
        }
        self.s.push(s);
        self.u.push(u);
        Ok(())
    }

    /// A new data set with the same rows and labels but replacement
    /// feature columns — how the columnar repair kernels assemble their
    /// output without re-validating the (unchanged) labels.
    ///
    /// # Errors
    /// Rejects a wrong column count, length mismatches against `len()`,
    /// and non-finite values.
    pub fn with_feature_columns(&self, features: Vec<Vec<f64>>) -> Result<Self> {
        if features.len() != self.dim {
            return Err(DataError::Shape(format!(
                "expected {} feature columns, got {}",
                self.dim,
                features.len()
            )));
        }
        check_columns(&features, self.len())?;
        Ok(Self {
            dim: self.dim,
            features,
            s: self.s.clone(),
            u: self.u.clone(),
        })
    }

    /// Copy out the contiguous row range `range` as its own data set
    /// (batching a stream, or a joint-plan shard in the repair service).
    /// Row order, labels, and exact `f64` bits are preserved.
    ///
    /// # Errors
    /// Rejects ranges that are descending or extend past `len()`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Result<Self> {
        if range.start > range.end || range.end > self.len() {
            return Err(DataError::Shape(format!(
                "row range {}..{} out of bounds for {} rows",
                range.start,
                range.end,
                self.len()
            )));
        }
        Ok(Self {
            dim: self.dim,
            features: self
                .features
                .iter()
                .map(|col| col[range.clone()].to_vec())
                .collect(),
            s: self.s[range.clone()].to_vec(),
            u: self.u[range].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: &[f64], s: u8, u: u8) -> LabelledPoint {
        LabelledPoint {
            x: x.to_vec(),
            s,
            u,
        }
    }

    fn small() -> Dataset {
        Dataset::from_points(vec![
            pt(&[0.0, 1.0], 0, 0),
            pt(&[1.0, 2.0], 1, 0),
            pt(&[2.0, 3.0], 0, 1),
            pt(&[3.0, 4.0], 1, 1),
            pt(&[4.0, 5.0], 1, 1),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let d = small();
        let c = ColumnarDataset::from_dataset(&d);
        assert_eq!(c.dim(), d.dim());
        assert_eq!(c.len(), d.len());
        assert_eq!(c.to_dataset(), d);
        // Columns carry the exact bits in row order.
        assert_eq!(c.feature_column(0).unwrap(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.feature_column(1).unwrap(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(c.feature_column(2).is_err());
        assert_eq!(c.s(), &[0, 1, 0, 1, 1]);
        assert_eq!(c.u(), &[0, 0, 1, 1, 1]);
    }

    #[test]
    fn push_row_matches_dataset_push() {
        let mut c = ColumnarDataset::new(2).unwrap();
        let mut d = Dataset::new(2).unwrap();
        for p in small().points() {
            c.push_row(&p.x, p.s, p.u).unwrap();
            d.push(p.clone()).unwrap();
        }
        assert_eq!(c.to_dataset(), d);
        assert_eq!(c, ColumnarDataset::from_dataset(&d));
        // Validation mirrors Dataset::push; a rejected row changes nothing.
        assert!(c.push_row(&[1.0], 0, 0).is_err());
        assert!(c.push_row(&[1.0, f64::NAN], 0, 0).is_err());
        assert!(c.push_row(&[1.0, 2.0], 2, 0).is_err());
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn from_columns_validates() {
        assert!(ColumnarDataset::new(0).is_err());
        assert!(ColumnarDataset::from_columns(vec![], vec![], vec![]).is_err());
        assert!(
            ColumnarDataset::from_columns(vec![vec![1.0], vec![1.0, 2.0]], vec![0], vec![0])
                .is_err()
        );
        assert!(ColumnarDataset::from_columns(vec![vec![1.0]], vec![0], vec![0, 1]).is_err());
        assert!(
            ColumnarDataset::from_columns(vec![vec![f64::INFINITY]], vec![0], vec![0]).is_err()
        );
        assert!(ColumnarDataset::from_columns(vec![vec![1.0]], vec![2], vec![0]).is_err());
        let ok =
            ColumnarDataset::from_columns(vec![vec![1.0, 2.0]], vec![0, 1], vec![1, 0]).unwrap();
        assert_eq!((ok.s(), ok.u()), (&[0, 1][..], &[1, 0][..]));
    }

    /// Big-endian bytes of `cols`, column after column.
    fn be_bytes(cols: &[Vec<f64>]) -> Vec<u8> {
        cols.iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_be_bytes())
            .collect()
    }

    #[test]
    fn from_be_bytes_decodes_bits_and_validates() {
        let c = ColumnarDataset::from_dataset(&small());
        let bytes = be_bytes(c.feature_columns());
        assert_eq!(
            ColumnarDataset::from_be_bytes(2, c.s(), c.u(), &bytes).unwrap(),
            c
        );
        // -0.0 and subnormals keep their exact bits.
        let odd = vec![vec![-0.0, f64::MIN_POSITIVE / 4.0]];
        let back = ColumnarDataset::from_be_bytes(1, &[0, 1], &[1, 0], &be_bytes(&odd)).unwrap();
        assert_eq!(
            back.feature_column(0).unwrap()[0].to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.feature_column(0).unwrap()[1], odd[0][1]);
        // Zero rows decode to an empty data set of the stated dimension.
        let empty = ColumnarDataset::from_be_bytes(3, &[], &[], &[]).unwrap();
        assert_eq!((empty.dim(), empty.len()), (3, 0));
        // Wrong shapes, bad labels and non-finite values are rejected.
        assert!(ColumnarDataset::from_be_bytes(0, &[], &[], &[]).is_err());
        assert!(ColumnarDataset::from_be_bytes(3, c.s(), c.u(), &bytes).is_err());
        assert!(ColumnarDataset::from_be_bytes(2, c.s(), &c.u()[1..], &bytes).is_err());
        let mut bad_u = c.u().to_vec();
        bad_u[3] = 2;
        assert!(ColumnarDataset::from_be_bytes(2, c.s(), &bad_u, &bytes).is_err());
        let nan = be_bytes(&[
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.0, 0.0, f64::NAN, 0.0, 0.0],
        ]);
        assert!(ColumnarDataset::from_be_bytes(2, c.s(), c.u(), &nan).is_err());
    }

    #[test]
    fn with_feature_columns_swaps_values_only() {
        let c = ColumnarDataset::from_dataset(&small());
        let swapped = c
            .with_feature_columns(vec![vec![9.0; 5], vec![-1.0; 5]])
            .unwrap();
        assert_eq!(swapped.s(), c.s());
        assert_eq!(swapped.u(), c.u());
        assert_eq!(swapped.feature_column(0).unwrap(), &[9.0; 5]);
        assert!(c.with_feature_columns(vec![vec![0.0; 5]]).is_err());
        assert!(c
            .with_feature_columns(vec![vec![0.0; 4], vec![0.0; 5]])
            .is_err());
        assert!(c
            .with_feature_columns(vec![vec![0.0; 5], vec![f64::NAN; 5]])
            .is_err());
    }

    #[test]
    fn slice_rows_preserves_bits_and_labels() {
        let c = ColumnarDataset::from_dataset(&small());
        let mid = c.slice_rows(1..4).unwrap();
        assert_eq!(mid.len(), 3);
        assert_eq!(mid.feature_column(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(mid.s(), &[1, 0, 1]);
        assert_eq!(mid.u(), &[0, 1, 1]);
        // A slice is a self-consistent data set (round trips).
        assert_eq!(ColumnarDataset::from_dataset(&mid.to_dataset()), mid);
        // Whole-range and empty slices are fine; overruns are not.
        assert_eq!(c.slice_rows(0..c.len()).unwrap(), c);
        assert!(c.slice_rows(2..2).unwrap().is_empty());
        assert!(c.slice_rows(3..6).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(c.slice_rows(3..2).is_err());
        }
    }

    #[test]
    fn empty_round_trip() {
        let c = ColumnarDataset::new(3).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.to_dataset().dim(), 3);
        assert_eq!(ColumnarDataset::from_dataset(&c.to_dataset()), c);
    }
}
