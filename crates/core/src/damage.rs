//! Data-damage diagnostics: how much did repair move the data?
//!
//! Repair necessarily destroys some predictive signal (Section III); these
//! metrics quantify the price. Per feature we report
//!
//! * **RMSE displacement** — root mean squared per-point movement
//!   `√(n⁻¹ Σ (x'ᵢ − xᵢ)²)`, an individual-level damage measure;
//! * **`W₂` marginal damage** per `(u, s)` group, the expected transport
//!   cost the barycentric design minimizes. Repair keeps every row, so it
//!   is 1-D OT between two samples of one size: the RMSE of their sorted
//!   matching (Peyré & Cuturi, *Computational Optimal Transport*, §2.6).

use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset};

use crate::error::{RepairError, Result};

/// Damage report for one repair operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DamageReport {
    /// RMSE point displacement per feature.
    pub rmse_per_feature: Vec<f64>,
    /// `W₂` between pre/post empirical marginals, indexed `[u][s][k]`
    /// (`0` for a `(u, s)` group with no rows).
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
        let all = self.w2_group_feature.iter().flatten().flatten();
        all.copied().fold(0.0, f64::max)
    }
}

/// The report of [`dataset_damage_columnar`] on the columnar images of
/// two point-wise aligned data sets (same order, labels and dimension,
/// as [`crate::RepairPlan::repair_dataset`] guarantees).
///
/// # Errors
/// Rejects misaligned inputs; absent `(u, s)` groups report `W₂ = 0`.
pub fn dataset_damage(original: &Dataset, repaired: &Dataset) -> Result<DamageReport> {
    dataset_damage_columnar(
        &ColumnarDataset::from_dataset(original),
        &ColumnarDataset::from_dataset(repaired),
    )
}

/// The damage of `repaired` relative to `original`, computed straight
/// from the column slices: RMSE sweeps in row order, and per-group `W₂`
/// jobs on `otr-par` threads over gathers from one label partition.
///
/// # Errors
/// Rejects misaligned inputs; absent `(u, s)` groups report `W₂ = 0`.
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
    let (before, after) = (original.feature_columns(), repaired.feature_columns());
    let rmse = (0..d).map(|k| rms_gap(&before[k], &after[k])).collect();

    // Partition the rows by their shared (u, s) labels, in ascending
    // order. Job `slot · d + k` is feature `k` of group `slot`; a thread
    // runs a contiguous run of jobs in one buffer allocated here, which,
    // freed, serves the caller's later allocations and not a worker's.
    let mut groups: [Vec<usize>; 4] = Default::default();
    for (i, (&s, &u)) in original.s().iter().zip(original.u()).enumerate() {
        groups[usize::from(u) * 2 + usize::from(s)].push(i);
    }
    let per_run = (4 * d).div_ceil(otr_par::thread_count(0).min(4 * d));
    let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
    let mut w2 = vec![0.0f64; 4 * d];
    let mut runs: Vec<_> = (w2.chunks_mut(per_run).enumerate())
        .map(|(r, out)| (r * per_run, out, Vec::with_capacity(2 * largest)))
        .collect();
    // At most one run per thread, so each thread gets a run of its own.
    otr_par::par_chunks_mut(&mut runs, 0, |_, chunk| {
        for (first, out, buf) in chunk {
            for (job, w) in (*first..).zip(out.iter_mut()) {
                let (rows, k) = (&groups[job / d], job % d);
                buf.clear();
                buf.extend(rows.iter().map(|&i| before[k][i]));
                buf.extend(rows.iter().map(|&i| after[k][i]));
                let (a, b) = buf.split_at_mut(rows.len());
                a.sort_unstable_by(f64::total_cmp);
                b.sort_unstable_by(f64::total_cmp);
                *w = if rows.is_empty() { 0.0 } else { rms_gap(a, b) };
            }
        }
    });
    let w2_gf = w2.chunks(2 * d).map(|u| u.chunks(d).map(<[f64]>::to_vec));

    Ok(DamageReport {
        rmse_per_feature: rmse,
        w2_group_feature: w2_gf.map(Iterator::collect).collect(),
    })
}

/// `√(n⁻¹ Σ (aᵢ − bᵢ)²)` over two slices of length `n`, summed in order.
fn rms_gap(a: &[f64], b: &[f64]) -> f64 {
    let squares = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y));
    (squares.fold(0.0, |acc, sq| acc + sq) / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::{LabelledPoint, SimulationSpec};
    use otr_ot::{wasserstein::w2, DiscreteDistribution};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The report as it was computed before the sorted matching: the
    /// same RMSE sweep, and per group an empirical distribution of each
    /// gather and the CDF-merge `W₂` between them.
    fn reference(original: &ColumnarDataset, repaired: &ColumnarDataset) -> DamageReport {
        let (d, n) = (original.dim(), original.len());
        let (before, after) = (original.feature_columns(), repaired.feature_columns());
        let rmse = (0..d)
            .map(|k| {
                let mut acc = 0.0f64;
                for (a, b) in before[k].iter().zip(&after[k]) {
                    let diff = a - b;
                    acc += diff * diff;
                }
                (acc / n as f64).sqrt()
            })
            .collect();
        let mut w2_gf = vec![vec![vec![0.0f64; d]; 2]; 2];
        for (u, s) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)] {
            let rows: Vec<usize> = (0..n)
                .filter(|&i| original.s()[i] == s && original.u()[i] == u)
                .collect();
            if rows.is_empty() {
                continue;
            }
            for k in 0..d {
                let gather = |col: &[f64]| rows.iter().map(|&i| col[i]).collect::<Vec<_>>();
                let mu = DiscreteDistribution::empirical(&gather(&before[k])).unwrap();
                let nu = DiscreteDistribution::empirical(&gather(&after[k])).unwrap();
                w2_gf[usize::from(u)][usize::from(s)][k] = w2(&mu, &nu).unwrap();
            }
        }
        DamageReport {
            rmse_per_feature: rmse,
            w2_group_feature: w2_gf,
        }
    }

    /// The report's bits.
    fn bits(report: &DamageReport) -> Vec<u64> {
        let w2 = report.w2_group_feature.iter().flatten().flatten();
        report
            .rmse_per_feature
            .iter()
            .chain(w2)
            .map(|v| v.to_bits())
            .collect()
    }

    /// An archive and a repair of it: groups of 9, 40 and 211 rows and
    /// no `(u, s) = (1, 1)` row, ties on both sides, `±0.0` in both,
    /// and repaired values drawn from a few support states, as
    /// Algorithm 2 writes them.
    fn archive_and_repair() -> (ColumnarDataset, ColumnarDataset) {
        let mut rng = StdRng::seed_from_u64(12);
        let labels: Vec<(u8, u8)> = [((0, 0), 9), ((0, 1), 40), ((1, 0), 211)]
            .iter()
            .flat_map(|&(us, count)| std::iter::repeat_n(us, count))
            .collect();
        let n = labels.len();
        let states = [-1.5, -0.5, -0.0, 0.0, 0.75, 2.0];
        let (mut before, mut after) = (vec![Vec::new(); 3], vec![Vec::new(); 3]);
        for i in 0..n {
            // Feature 0 is continuous, feature 1 is on a coarse grid
            // (ties), feature 2 is often exactly ±0.
            let x: f64 = rng.gen_range(-3.0..3.0);
            before[0].push(x);
            before[1].push((x * 4.0).round() / 4.0);
            before[2].push([-0.0, 0.0, x][i % 3]);
            for col in &mut after {
                col.push(states[rng.gen_range(0..states.len())]);
            }
        }
        // Repair moves some values nowhere, -0.0 onto 0.0 among them.
        after[2][0] = 0.0;
        after[2][1] = -0.0;
        after[0][5] = before[0][5];
        let (u, s): (Vec<u8>, Vec<u8>) = labels.into_iter().unzip();
        let original = ColumnarDataset::from_columns(before, s, u).unwrap();
        let repaired = original.with_feature_columns(after).unwrap();
        (original, repaired)
    }

    /// The sorted matching reproduces the distribution path: `W₂` to
    /// 1e-12 relative, RMSE bit for bit, and no bit depends on
    /// `OTR_THREADS`. Checked on the synthetic pair and on a real
    /// repair.
    #[test]
    fn sorted_matching_agrees_with_the_distribution_path() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let data = spec.sample_dataset(3_000, &mut rng).unwrap();
        let plan = crate::RepairPlanner::new(crate::RepairConfig::with_n_q(20))
            .design(&spec.sample_dataset(400, &mut rng).unwrap())
            .unwrap();
        let archive = ColumnarDataset::from_dataset(&data);
        let repaired = plan.repair_columnar_par(&archive, 3).unwrap();
        for (original, repaired) in [archive_and_repair(), (archive, repaired)] {
            let want = reference(&original, &repaired);
            let got = dataset_damage_columnar(&original, &repaired).unwrap();
            assert_eq!(
                bits(&got)[..original.dim()],
                bits(&want)[..original.dim()],
                "RMSE moved"
            );
            let pairs = got.w2_group_feature.iter().flatten().flatten();
            let pairs = pairs.zip(want.w2_group_feature.iter().flatten().flatten());
            for (g, w) in pairs {
                assert!((g - w).abs() <= 1e-12 * w.abs(), "W₂ {g} vs {w}");
            }
            let saved = std::env::var(otr_par::THREADS_ENV).ok();
            for threads in ["1", "2", "7"] {
                std::env::set_var(otr_par::THREADS_ENV, threads);
                let again = dataset_damage_columnar(&original, &repaired).unwrap();
                assert_eq!(bits(&again), bits(&got), "OTR_THREADS={threads}");
            }
            match saved {
                Some(v) => std::env::set_var(otr_par::THREADS_ENV, v),
                None => std::env::remove_var(otr_par::THREADS_ENV),
            }
        }
    }

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
    }

    #[test]
    fn absent_group_reports_zero_w2() {
        // No (u = 1, s = 1) rows: the call succeeds, that group's W₂ is
        // 0, and the RMSE still averages over every row.
        let x = vec![-1.0, 0.5, 2.0, 0.0, 1.5, -0.5];
        let original = ColumnarDataset::from_columns(
            vec![x.clone()],
            vec![0, 0, 1, 1, 0, 0],
            vec![0, 0, 0, 0, 1, 1],
        )
        .unwrap();
        let shifted = x.iter().map(|v| v + 2.0).collect();
        let repaired = original.with_feature_columns(vec![shifted]).unwrap();
        let report = dataset_damage_columnar(&original, &repaired).unwrap();
        assert_eq!(report.w2_group_feature[1][1], vec![0.0]);
        for (u, s) in [(0, 0), (0, 1), (1, 0)] {
            assert!((report.w2_group_feature[u][s][0] - 2.0).abs() < 1e-9);
        }
        assert!((report.rmse_per_feature[0] - 2.0).abs() < 1e-12);
    }
}
