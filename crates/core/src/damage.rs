//! Data-damage diagnostics: how much did repair move the data?
//!
//! Repair necessarily destroys some predictive signal (Section III); these
//! metrics quantify the price. Per feature we report
//!
//! * **RMSE displacement** — root mean squared per-point movement
//!   `√(n⁻¹ Σ (x'ᵢ − xᵢ)²)`, an individual-level damage measure;
//! * **`W₂` marginal damage** — the Wasserstein-2 distance between the
//!   pre- and post-repair empirical feature marginals per `(u, s)` group,
//!   a distribution-level damage measure (this is exactly the expected
//!   transport cost the barycentric design minimizes).

use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset, GroupKey};
use otr_ot::wasserstein::w2;
use otr_ot::DiscreteDistribution;

use crate::error::{RepairError, Result};

/// Damage report for one repair operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DamageReport {
    /// RMSE point displacement per feature.
    pub rmse_per_feature: Vec<f64>,
    /// `W₂` between pre/post empirical marginals, indexed `[u][s][k]`.
    pub w2_group_feature: Vec<Vec<Vec<f64>>>,
}

impl DamageReport {
    /// Mean RMSE across features.
    pub fn mean_rmse(&self) -> f64 {
        if self.rmse_per_feature.is_empty() {
            return 0.0;
        }
        self.rmse_per_feature.iter().sum::<f64>() / self.rmse_per_feature.len() as f64
    }

    /// Largest group-level `W₂` damage across all strata.
    pub fn max_w2(&self) -> f64 {
        self.w2_group_feature
            .iter()
            .flatten()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// Compute the damage of `repaired` relative to `original`.
///
/// The two data sets must be point-wise aligned (same order, labels, and
/// dimension) — exactly what [`crate::RepairPlan::repair_dataset`]
/// guarantees.
///
/// # Errors
/// Rejects misaligned inputs or empty `(u, s)` groups.
pub fn dataset_damage(original: &Dataset, repaired: &Dataset) -> Result<DamageReport> {
    if original.dim() != repaired.dim() || original.len() != repaired.len() {
        return Err(RepairError::PlanMismatch(format!(
            "damage inputs misaligned: {}x{} vs {}x{}",
            original.len(),
            original.dim(),
            repaired.len(),
            repaired.dim()
        )));
    }
    for (a, b) in original.points().iter().zip(repaired.points()) {
        if a.s != b.s || a.u != b.u {
            return Err(RepairError::PlanMismatch(
                "damage inputs must be point-wise label-aligned".into(),
            ));
        }
    }
    let d = original.dim();
    let n = original.len() as f64;

    let mut rmse = vec![0.0f64; d];
    for (a, b) in original.points().iter().zip(repaired.points()) {
        for k in 0..d {
            let diff = a.x[k] - b.x[k];
            rmse[k] += diff * diff;
        }
    }
    for v in &mut rmse {
        *v = (*v / n).sqrt();
    }

    let mut w2_gf = vec![vec![vec![0.0f64; d]; 2]; 2];
    for u in 0..2u8 {
        for s in 0..2u8 {
            let key = GroupKey { u, s };
            for k in 0..d {
                let before = original.feature_column(key, k)?;
                let after = repaired.feature_column(key, k)?;
                if before.is_empty() {
                    continue; // a group may legitimately be absent
                }
                let mu = DiscreteDistribution::empirical(&before)?;
                let nu = DiscreteDistribution::empirical(&after)?;
                w2_gf[u as usize][s as usize][k] = w2(&mu, &nu)?;
            }
        }
    }

    Ok(DamageReport {
        rmse_per_feature: rmse,
        w2_group_feature: w2_gf,
    })
}

/// [`dataset_damage`] over columnar data sets, computed straight from
/// the column slices (full-column RMSE sweeps, group gathers from one
/// partition of the shared labels). Produces bitwise the same report as
/// [`dataset_damage`] on the row-major images: the per-feature RMSE
/// accumulates in ascending row order either way, and the group columns
/// gather in the same insertion order.
///
/// # Errors
/// Rejects misaligned inputs or empty `(u, s)` groups.
pub fn dataset_damage_columnar(
    original: &ColumnarDataset,
    repaired: &ColumnarDataset,
) -> Result<DamageReport> {
    if original.dim() != repaired.dim() || original.len() != repaired.len() {
        return Err(RepairError::PlanMismatch(format!(
            "damage inputs misaligned: {}x{} vs {}x{}",
            original.len(),
            original.dim(),
            repaired.len(),
            repaired.dim()
        )));
    }
    if original.s() != repaired.s() || original.u() != repaired.u() {
        return Err(RepairError::PlanMismatch(
            "damage inputs must be point-wise label-aligned".into(),
        ));
    }
    let d = original.dim();
    let n = original.len() as f64;

    let mut rmse = Vec::with_capacity(d);
    for k in 0..d {
        let before = original.feature_column(k)?;
        let after = repaired.feature_column(k)?;
        let mut acc = 0.0f64;
        for (a, b) in before.iter().zip(after) {
            let diff = a - b;
            acc += diff * diff;
        }
        rmse.push((acc / n).sqrt());
    }

    // Both data sets carry the same labels: partition the rows into the
    // four (u, s) groups once, in ascending order, and gather from it.
    let mut groups: [Vec<usize>; 4] = Default::default();
    for (i, (&s, &u)) in original.s().iter().zip(original.u()).enumerate() {
        groups[usize::from(u) * 2 + usize::from(s)].push(i);
    }
    let mut w2_gf = vec![vec![vec![0.0f64; d]; 2]; 2];
    // A group may legitimately be absent.
    for (slot, rows) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
        let gather = |col: &[f64]| rows.iter().map(|&i| col[i]).collect::<Vec<_>>();
        for k in 0..d {
            let mu = DiscreteDistribution::empirical(&gather(original.feature_column(k)?))?;
            let nu = DiscreteDistribution::empirical(&gather(repaired.feature_column(k)?))?;
            w2_gf[slot / 2][slot % 2][k] = w2(&mu, &nu)?;
        }
    }

    Ok(DamageReport {
        rmse_per_feature: rmse,
        w2_group_feature: w2_gf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{LabelledPoint, SimulationSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_damage_for_identity() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let data = spec.sample_dataset(200, &mut rng).unwrap();
        let report = dataset_damage(&data, &data).unwrap();
        assert!(report.mean_rmse() < 1e-15);
        assert!(report.max_w2() < 1e-12);
    }

    #[test]
    fn constant_shift_rmse_is_shift() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(2);
        let data = spec.sample_dataset(300, &mut rng).unwrap();
        let shifted = data.map_features(|p| vec![p.x[0] + 2.0, p.x[1]]).unwrap();
        let report = dataset_damage(&data, &shifted).unwrap();
        assert!((report.rmse_per_feature[0] - 2.0).abs() < 1e-12);
        assert!(report.rmse_per_feature[1] < 1e-15);
        // W2 of a translation is the shift itself, for every group.
        assert!((report.max_w2() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn misaligned_inputs_rejected() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        let a = spec.sample_dataset(100, &mut rng).unwrap();
        let b = spec.sample_dataset(101, &mut rng).unwrap();
        assert!(dataset_damage(&a, &b).is_err());
    }

    #[test]
    fn label_misalignment_rejected() {
        let a = Dataset::from_points(vec![LabelledPoint {
            x: vec![0.0],
            s: 0,
            u: 0,
        }])
        .unwrap();
        let b = Dataset::from_points(vec![LabelledPoint {
            x: vec![0.0],
            s: 1,
            u: 0,
        }])
        .unwrap();
        assert!(dataset_damage(&a, &b).is_err());
    }

    #[test]
    fn repair_damage_is_bounded_by_group_separation() {
        // The barycentric repair moves each group roughly half the group
        // separation (sqrt(2)/2 per feature here), so RMSE should be of
        // that order — not zero, not huge.
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(4);
        let data = spec.sample_dataset(600, &mut rng).unwrap();
        let plan = crate::RepairPlanner::new(crate::RepairConfig::with_n_q(50))
            .design(&data)
            .unwrap();
        let repaired = plan.repair_dataset(&data, &mut rng).unwrap();
        let report = dataset_damage(&data, &repaired).unwrap();
        for k in 0..2 {
            assert!(
                report.rmse_per_feature[k] < 2.0,
                "rmse[{k}] = {}",
                report.rmse_per_feature[k]
            );
            assert!(report.rmse_per_feature[k] > 0.05);
        }
        // The columnar report is bitwise the row report.
        let columnar = dataset_damage_columnar(
            &ColumnarDataset::from_dataset(&data),
            &ColumnarDataset::from_dataset(&repaired),
        )
        .unwrap();
        let bits = |r: &DamageReport| {
            let w2 = r.w2_group_feature.iter().flatten().flatten();
            (r.rmse_per_feature.iter().chain(w2))
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&columnar), bits(&report));
    }
}
