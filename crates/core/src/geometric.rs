//! The geometric (on-sample) repair baseline of Del Barrio, Gordaliza &
//! Loubes — reference \[10\] of the paper, Equations (8)–(9).
//!
//! Each research point is mapped point-wise toward the barycentre using
//! the optimal coupling between the two **empirical** `s`-conditional
//! measures:
//!
//! ```text
//! x'₀,ᵢ = (1−t)·x₀,ᵢ + t·n₀ Σⱼ π*ᵢⱼ x₁,ⱼ          (Equation 8)
//! x'₁,ⱼ = (1−t)·n₁ Σᵢ π*ᵢⱼ x₀,ᵢ + t·x₁,ⱼ          (Equation 9)
//! ```
//!
//! Because the transport is designed point-wise on the sample, it **cannot
//! repair off-sample points** — the limitation motivating the paper's
//! distributional repair (Section III-B). Following the paper's
//! evaluation, the coupling is computed per feature `k` (and per `u`),
//! where the squared-Euclidean optimal plan is the monotone coupling on
//! sorted samples.

use serde::{Deserialize, Serialize};

use otr_data::{Dataset, LabelledPoint};

use crate::error::{RepairError, Result};

/// Minimum observations per `(u, s)` group.
const MIN_GROUP_SIZE: usize = 2;

/// Configuration for the geometric repair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeometricRepair {
    /// Geodesic position `t ∈ [0, 1]` (0.5 = the fair barycentre).
    pub t: f64,
}

impl Default for GeometricRepair {
    fn default() -> Self {
        Self { t: 0.5 }
    }
}

/// The monotone coupling between two uniform empirical measures given by
/// index order on *sorted* samples: returns, for each left index, the
/// (right index, mass) pairs it couples to. Masses are `1/n0` resp `1/n1`
/// per sample point. This is the optimal squared-Euclidean plan in 1-D.
fn monotone_pairs(n0: usize, n1: usize) -> Vec<Vec<(usize, f64)>> {
    let w0 = 1.0 / n0 as f64;
    let w1 = 1.0 / n1 as f64;
    let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n0];
    let mut i = 0usize;
    let mut j = 0usize;
    let mut rem_i = w0;
    let mut rem_j = w1;
    while i < n0 && j < n1 {
        let moved = rem_i.min(rem_j);
        if moved > 0.0 {
            out[i].push((j, moved));
        }
        rem_i -= moved;
        rem_j -= moved;
        const TINY: f64 = 1e-15;
        let i_done = rem_i <= TINY;
        let j_done = rem_j <= TINY;
        if i_done {
            i += 1;
            rem_i = w0;
            // Carry round-off into the next step implicitly: weights are
            // identical per index so drift cannot accumulate beyond TINY.
        }
        if j_done {
            j += 1;
            rem_j = w1;
        }
        if !i_done && !j_done {
            // Defensive: min() must exhaust at least one side.
            debug_assert!(false, "monotone_pairs failed to make progress");
            break;
        }
    }
    out
}

impl GeometricRepair {
    /// Repair the research data set on-sample (Equations 8–9), per `u`
    /// group and per feature.
    ///
    /// # Errors
    /// * `t` outside `[0,1]`.
    /// * [`RepairError::InsufficientResearchData`] for undersized groups.
    pub fn repair(&self, research: &Dataset) -> Result<Dataset> {
        if !(0.0..=1.0).contains(&self.t) || self.t.is_nan() {
            return Err(RepairError::InvalidParameter {
                name: "t",
                reason: format!("must be in [0,1], got {}", self.t),
            });
        }
        let d = research.dim();

        // Output features, indexed by original point position.
        let mut new_x: Vec<Vec<f64>> = research.points().iter().map(|p| p.x.clone()).collect();

        for u in 0..2u8 {
            // Original indices of each s-group within `research`.
            let idx: [Vec<usize>; 2] = [
                research
                    .points()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.u == u && p.s == 0)
                    .map(|(i, _)| i)
                    .collect(),
                research
                    .points()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.u == u && p.s == 1)
                    .map(|(i, _)| i)
                    .collect(),
            ];
            for (s, ids) in idx.iter().enumerate() {
                if ids.len() < MIN_GROUP_SIZE {
                    return Err(RepairError::InsufficientResearchData {
                        u,
                        s: s as u8,
                        found: ids.len(),
                        needed: MIN_GROUP_SIZE,
                    });
                }
            }

            for k in 0..d {
                // Sort each group's indices by feature value: the monotone
                // coupling pairs order statistics.
                let mut sorted0 = idx[0].clone();
                let mut sorted1 = idx[1].clone();
                sorted0.sort_by(|&a, &b| {
                    research.points()[a].x[k]
                        .partial_cmp(&research.points()[b].x[k])
                        .expect("finite features")
                });
                sorted1.sort_by(|&a, &b| {
                    research.points()[a].x[k]
                        .partial_cmp(&research.points()[b].x[k])
                        .expect("finite features")
                });
                let n0 = sorted0.len();
                let n1 = sorted1.len();
                let pairs = monotone_pairs(n0, n1);

                // Equation 8: s=0 points move toward their coupled s=1
                // conditional mean. n0 * pi_row is the conditional pmf.
                let mut cond_mean_1 = vec![0.0f64; n0];
                // Equation 9 accumulators for the reverse direction.
                let mut cond_mean_0 = vec![0.0f64; n1];
                let mut col_mass = vec![0.0f64; n1];
                for (i0, row) in pairs.iter().enumerate() {
                    let x0 = research.points()[sorted0[i0]].x[k];
                    let row_mass: f64 = row.iter().map(|(_, m)| m).sum();
                    for &(j1, m) in row {
                        let x1 = research.points()[sorted1[j1]].x[k];
                        cond_mean_1[i0] += m * x1;
                        cond_mean_0[j1] += m * x0;
                        col_mass[j1] += m;
                    }
                    if row_mass > 0.0 {
                        cond_mean_1[i0] /= row_mass;
                    }
                }
                for j1 in 0..n1 {
                    if col_mass[j1] > 0.0 {
                        cond_mean_0[j1] /= col_mass[j1];
                    } else {
                        cond_mean_0[j1] = research.points()[sorted1[j1]].x[k];
                    }
                }

                for (i0, &orig_idx) in sorted0.iter().enumerate() {
                    let x0 = research.points()[orig_idx].x[k];
                    new_x[orig_idx][k] = (1.0 - self.t) * x0 + self.t * cond_mean_1[i0];
                }
                for (j1, &orig_idx) in sorted1.iter().enumerate() {
                    let x1 = research.points()[orig_idx].x[k];
                    new_x[orig_idx][k] = (1.0 - self.t) * cond_mean_0[j1] + self.t * x1;
                }
            }
        }

        let points = research
            .points()
            .iter()
            .zip(new_x)
            .map(|(p, x)| LabelledPoint { x, s: p.s, u: p.u })
            .collect();
        Ok(Dataset::from_points(points)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{GroupKey, SimulationSpec};
    use otr_fairness::ConditionalDependence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn monotone_pairs_equal_sizes_is_identity_matching() {
        let pairs = monotone_pairs(4, 4);
        for (i, row) in pairs.iter().enumerate() {
            assert_eq!(row.len(), 1);
            assert_eq!(row[0].0, i);
            assert!((row[0].1 - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn monotone_pairs_mass_conservation() {
        for (n0, n1) in [(3, 5), (5, 3), (1, 7), (7, 1), (4, 6)] {
            let pairs = monotone_pairs(n0, n1);
            let total: f64 = pairs.iter().flatten().map(|(_, m)| m).sum();
            assert!((total - 1.0).abs() < 1e-9, "({n0},{n1}): total {total}");
            // Row masses are 1/n0 each.
            for (i, row) in pairs.iter().enumerate() {
                let rm: f64 = row.iter().map(|(_, m)| m).sum();
                assert!(
                    (rm - 1.0 / n0 as f64).abs() < 1e-9,
                    "({n0},{n1}) row {i}: {rm}"
                );
            }
        }
    }

    #[test]
    fn t_zero_is_identity_for_s0_half_for_s1() {
        // At t=0 the target is mu_0: s=0 points stay, s=1 points move to
        // their coupled s=0 conditional means.
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let data = spec.sample_dataset(300, &mut rng).unwrap();
        let repaired = GeometricRepair { t: 0.0 }.repair(&data).unwrap();
        for (orig, rep) in data.points().iter().zip(repaired.points()) {
            if orig.s == 0 {
                assert_eq!(orig.x, rep.x, "s=0 must be untouched at t=0");
            }
        }
    }

    #[test]
    fn repair_reduces_conditional_dependence() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(11);
        let data = spec.sample_dataset(800, &mut rng).unwrap();
        let repaired = GeometricRepair::default().repair(&data).unwrap();
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&data).unwrap().aggregate();
        let after = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(
            after < before * 0.1,
            "geometric repair should quench E: before {before}, after {after}"
        );
    }

    #[test]
    fn labels_and_cardinality_preserved() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(13);
        let data = spec.sample_dataset(200, &mut rng).unwrap();
        let repaired = GeometricRepair::default().repair(&data).unwrap();
        assert_eq!(repaired.len(), data.len());
        for (a, b) in repaired.points().iter().zip(data.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn rejects_bad_t_and_small_groups() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(17);
        let data = spec.sample_dataset(200, &mut rng).unwrap();
        assert!(GeometricRepair { t: 2.0 }.repair(&data).is_err());
        // Keep one observation of the (u = 1, s = 0) group.
        let group = |p: &&LabelledPoint| (p.u, p.s) == (1, 0);
        let mut points: Vec<_> = data
            .points()
            .iter()
            .filter(|p| !group(p))
            .cloned()
            .collect();
        points.extend(data.points().iter().find(group).cloned());
        let lone = Dataset::from_points(points).unwrap();
        assert!(matches!(
            GeometricRepair::default().repair(&lone),
            Err(RepairError::InsufficientResearchData {
                u: 1,
                s: 0,
                found: 1,
                needed: 2
            })
        ));
    }

    #[test]
    fn group_means_converge_at_barycentre() {
        // After t=0.5 repair, the s=0 and s=1 means within each u group
        // should (nearly) coincide.
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(19);
        let data = spec.sample_dataset(2_000, &mut rng).unwrap();
        let repaired = GeometricRepair::default().repair(&data).unwrap();
        for u in 0..2u8 {
            for k in 0..2usize {
                let c0 = repaired.feature_column(GroupKey { u, s: 0 }, k).unwrap();
                let c1 = repaired.feature_column(GroupKey { u, s: 1 }, k).unwrap();
                let m0: f64 = c0.iter().sum::<f64>() / c0.len() as f64;
                let m1: f64 = c1.iter().sum::<f64>() / c1.len() as f64;
                assert!((m0 - m1).abs() < 0.1, "u={u}, k={k}: means {m0} vs {m1}");
            }
        }
    }
}
