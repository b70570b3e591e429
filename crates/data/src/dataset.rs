//! The row-major labelled data-set container: observations
//! `z = {x, s, u}` of the paper's Equation (1), with the `(u, s)` group
//! columns that Algorithm 1 stratifies over.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{DataError, Result};

/// A `(u, s)` group identifier — the paper's `u`-indexed population and
/// `s`-indexed subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey {
    /// Unprotected-attribute state `u ∈ {0, 1}`.
    pub u: u8,
    /// Protected-attribute state `s ∈ {0, 1}`.
    pub s: u8,
}

impl GroupKey {
    /// All four `(u, s)` groups in deterministic order.
    pub fn all() -> [GroupKey; 4] {
        [
            GroupKey { u: 0, s: 0 },
            GroupKey { u: 0, s: 1 },
            GroupKey { u: 1, s: 0 },
            GroupKey { u: 1, s: 1 },
        ]
    }
}

/// One labelled observation: features `x ∈ ℝᵈ`, protected attribute `s`,
/// unprotected attribute `u`.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledPoint {
    /// Feature vector.
    pub x: Vec<f64>,
    /// Protected attribute (0/1).
    pub s: u8,
    /// Unprotected attribute (0/1).
    pub u: u8,
}

/// An in-memory data set of labelled points with a fixed feature dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    points: Vec<LabelledPoint>,
}

impl Dataset {
    /// Assemble a data set from already-validated points.
    pub(crate) fn from_validated(dim: usize, points: Vec<LabelledPoint>) -> Self {
        Self { dim, points }
    }

    /// Build from points, validating dimensions and label ranges.
    ///
    /// # Errors
    /// Rejects empty input, inconsistent dimensions, non-finite features,
    /// and labels outside `{0, 1}`.
    pub fn from_points(points: Vec<LabelledPoint>) -> Result<Self> {
        let Some(first) = points.first() else {
            return Err(DataError::Shape("cannot build an empty dataset".into()));
        };
        let dim = first.x.len();
        if dim == 0 {
            return Err(DataError::Shape("feature dimension must be >= 1".into()));
        }
        for (i, p) in points.iter().enumerate() {
            if p.x.len() != dim {
                return Err(DataError::Shape(format!(
                    "point {i} has dimension {} (expected {dim})",
                    p.x.len()
                )));
            }
            if p.x.iter().any(|v| !v.is_finite()) {
                return Err(DataError::Shape(format!(
                    "point {i} has non-finite features"
                )));
            }
            if p.s > 1 || p.u > 1 {
                return Err(DataError::Shape(format!(
                    "point {i} has labels (s={}, u={}) outside {{0,1}}",
                    p.s, p.u
                )));
            }
        }
        Ok(Self::from_validated(dim, points))
    }

    /// Feature dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when there are no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points.
    #[inline]
    pub fn points(&self) -> &[LabelledPoint] {
        &self.points
    }

    /// Feature-`k` column of a `(u, s)` group, in row order — the
    /// `x_{R,u,s,k}` input of Algorithm 1.
    ///
    /// # Errors
    /// Rejects `k >= dim`.
    pub fn feature_column(&self, key: GroupKey, k: usize) -> Result<Vec<f64>> {
        if k >= self.dim {
            return Err(DataError::Shape(format!(
                "feature index {k} out of range (dim {})",
                self.dim
            )));
        }
        Ok(self
            .points
            .iter()
            .filter(|p| p.u == key.u && p.s == key.s)
            .map(|p| p.x[k])
            .collect())
    }

    /// Feature-`k` column of all points with unprotected attribute `u`
    /// (both `s` groups pooled).
    ///
    /// # Errors
    /// Rejects `k >= dim`.
    pub fn feature_column_u(&self, u: u8, k: usize) -> Result<Vec<f64>> {
        if k >= self.dim {
            return Err(DataError::Shape(format!(
                "feature index {k} out of range (dim {})",
                self.dim
            )));
        }
        Ok(self
            .points
            .iter()
            .filter(|p| p.u == u)
            .map(|p| p.x[k])
            .collect())
    }

    /// Empirical `Pr[u = 1]`.
    pub fn prob_u1(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.u == 1).count() as f64 / self.points.len() as f64
    }

    /// Empirical `Pr[s = 0 | u]`.
    pub fn prob_s0_given_u(&self, u: u8) -> f64 {
        let in_u: Vec<_> = self.points.iter().filter(|p| p.u == u).collect();
        if in_u.is_empty() {
            return 0.0;
        }
        in_u.iter().filter(|p| p.s == 0).count() as f64 / in_u.len() as f64
    }

    /// Randomly split into `(research, archive)` with `n_research` points
    /// in the research part (shuffled with `rng`).
    ///
    /// # Errors
    /// Requires `0 < n_research < len`.
    pub fn split_research_archive<R: Rng + ?Sized>(
        &self,
        n_research: usize,
        rng: &mut R,
    ) -> Result<SplitData> {
        if n_research == 0 || n_research >= self.len() {
            return Err(DataError::InvalidParameter {
                name: "n_research",
                reason: format!(
                    "must be in (0, {}) for a dataset of {} points, got {n_research}",
                    self.len(),
                    self.len()
                ),
            });
        }
        let mut shuffled = self.points.clone();
        shuffled.shuffle(rng);
        let archive_points = shuffled.split_off(n_research);
        Ok(SplitData {
            research: Dataset::from_validated(self.dim, shuffled),
            archive: Dataset::from_validated(self.dim, archive_points),
        })
    }

    /// Concatenate with another data set of the same dimension (the
    /// composite `X = X_R ∪ X_A` used in Figure 4).
    ///
    /// # Errors
    /// Rejects dimension mismatch.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset> {
        if self.dim != other.dim {
            return Err(DataError::Shape(format!(
                "cannot concat dims {} and {}",
                self.dim, other.dim
            )));
        }
        let mut points = self.points.clone();
        points.extend(other.points.iter().cloned());
        Ok(Dataset::from_validated(self.dim, points))
    }

    /// Map all feature vectors through `f`, preserving labels (used by
    /// drift injection and repair application).
    ///
    /// # Errors
    /// Rejects outputs of a different dimension or with non-finite values.
    pub fn map_features(&self, mut f: impl FnMut(&LabelledPoint) -> Vec<f64>) -> Result<Dataset> {
        let mut points = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let x = f(p);
            if x.len() != self.dim || x.iter().any(|v| !v.is_finite()) {
                return Err(DataError::Shape(
                    "mapped features must keep dimension and be finite".into(),
                ));
            }
            points.push(LabelledPoint { x, s: p.s, u: p.u });
        }
        Ok(Dataset::from_validated(self.dim, points))
    }
}

/// A research/archive split — the paper's `X_R` (small, fully labelled,
/// used to design the repair) and `X_A` (large, repaired off-sample).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitData {
    /// The on-sample research data `X_R`.
    pub research: Dataset,
    /// The off-sample archival data `X_A`.
    pub archive: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn from_points_validates() {
        assert!(Dataset::from_points(vec![]).is_err());
        assert!(Dataset::from_points(vec![pt(&[], 0, 0)]).is_err());
        assert!(Dataset::from_points(vec![pt(&[1.0], 0, 0), pt(&[1.0, 2.0], 0, 0)]).is_err());
        assert!(Dataset::from_points(vec![pt(&[f64::NAN], 0, 0)]).is_err());
        assert!(Dataset::from_points(vec![pt(&[1.0], 2, 0)]).is_err());
        assert!(Dataset::from_points(vec![pt(&[1.0], 0, 3)]).is_err());
    }

    #[test]
    fn group_slicing() {
        let d = small();
        assert_eq!(
            d.feature_column(GroupKey { u: 0, s: 0 }, 1).unwrap(),
            vec![1.0]
        );
        let col = d.feature_column(GroupKey { u: 1, s: 1 }, 0).unwrap();
        assert_eq!(col, vec![3.0, 4.0]);
        assert!(d.feature_column(GroupKey { u: 1, s: 1 }, 5).is_err());
    }

    #[test]
    fn feature_column_u_pools_s() {
        let d = small();
        let col = d.feature_column_u(1, 1).unwrap();
        assert_eq!(col, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn empirical_probabilities() {
        let d = small();
        assert!((d.prob_u1() - 3.0 / 5.0).abs() < 1e-15);
        assert!((d.prob_s0_given_u(0) - 0.5).abs() < 1e-15);
        assert!((d.prob_s0_given_u(1) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn split_partitions_everything() {
        let d = small();
        let mut rng = StdRng::seed_from_u64(1);
        let split = d.split_research_archive(2, &mut rng).unwrap();
        assert_eq!(split.research.len(), 2);
        assert_eq!(split.archive.len(), 3);
        // Multiset equality: rebuild and compare sorted feature sums.
        let mut all: Vec<f64> = split
            .research
            .points()
            .iter()
            .chain(split.archive.points())
            .map(|p| p.x[0])
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn split_rejects_degenerate_sizes() {
        let d = small();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.split_research_archive(0, &mut rng).is_err());
        assert!(d.split_research_archive(5, &mut rng).is_err());
    }

    #[test]
    fn concat_and_dim_check() {
        let d = small();
        let both = d.concat(&d).unwrap();
        assert_eq!(both.len(), 10);
        let other = Dataset::from_points(vec![pt(&[1.0], 0, 0)]).unwrap();
        assert!(d.concat(&other).is_err());
    }

    #[test]
    fn map_features_preserves_labels() {
        let d = small();
        let shifted = d
            .map_features(|p| p.x.iter().map(|v| v + 10.0).collect())
            .unwrap();
        assert_eq!(shifted.len(), d.len());
        for (a, b) in shifted.points().iter().zip(d.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
            assert!((a.x[0] - b.x[0] - 10.0).abs() < 1e-15);
        }
        assert!(d.map_features(|_| vec![f64::NAN, 0.0]).is_err());
        assert!(d.map_features(|_| vec![0.0]).is_err());
    }

    #[test]
    fn group_key_all_is_exhaustive() {
        let keys = GroupKey::all();
        assert_eq!(keys.len(), 4);
        let d = small();
        let total: usize = keys
            .iter()
            .map(|&key| d.feature_column(key, 0).unwrap().len())
            .sum();
        assert_eq!(total, d.len());
    }
}
