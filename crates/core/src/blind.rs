//! Group-blind repair of `s`-unlabelled archival data — the paper's
//! priority future-work direction (Section VI; its refs \[37\]–\[39\]).
//!
//! Algorithm 1's artifacts already contain everything needed to handle a
//! missing protected attribute: the interpolated marginals `µ_{u,s,k}`
//! are density estimates of each subgroup, so for an unlabelled archival
//! point the posterior
//!
//! ```text
//! Pr[s | x, u] ∝ Pr[s | u] · Π_k µ_{u,s,k}(x_k)      (naive-Bayes factorization,
//!                                                      consistent with the paper's
//!                                                      per-feature stratification)
//! ```
//!
//! is available at zero extra fitting cost. The repairer draws
//! `ŝ ~ Bernoulli(Pr[s=0 | x, u])` per point and routes the point through
//! the corresponding plan rows with the shared columnar kernel —
//! marginally, the repaired distribution is the posterior mixture of the
//! two `s`-conditional repairs, which is exactly the group-blind
//! transport of Zhou & Marecek (paper ref \[37\]) specialized to our
//! discrete plans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use otr_data::{ColumnarDataset, Dataset};
use otr_par::{splitmix_seed, try_par_map_indexed};

use crate::error::{RepairError, Result};
use crate::plan::RepairPlan;

/// Repairs archival data whose protected attribute is unobserved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupBlindRepairer {
    plan: RepairPlan,
    /// `Pr[s = 0 | u]` estimated from the research data, indexed by `u`.
    prior_s0_given_u: [f64; 2],
}

impl GroupBlindRepairer {
    /// Wrap a designed plan with subgroup priors taken from the research
    /// data it was designed on.
    ///
    /// # Errors
    /// Requires both priors in `(0, 1)` (a one-sided research group cannot
    /// inform a blind posterior).
    pub fn new(plan: RepairPlan, research: &Dataset) -> Result<Self> {
        let prior_s0_given_u = [research.prob_s0_given_u(0), research.prob_s0_given_u(1)];
        for (u, p) in prior_s0_given_u.iter().enumerate() {
            if !(0.0 < *p && *p < 1.0) {
                return Err(RepairError::InvalidParameter {
                    name: "prior_s0_given_u",
                    reason: format!("research Pr[s=0|u={u}] = {p} is degenerate"),
                });
            }
        }
        Ok(Self {
            plan,
            prior_s0_given_u,
        })
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Linear interpolation of a marginal pmf at `x` (proportional to the
    /// interpolated density; shared uniform grid makes the normalization
    /// constant cancel in the posterior ratio).
    fn marginal_mass_at(&self, u: u8, s: u8, k: usize, x: f64) -> Result<f64> {
        let fp = self.plan.feature_plan(u, k)?;
        let support = &fp.support;
        let masses = fp.marginals[s as usize].masses();
        let n = support.len();
        if x <= support[0] {
            return Ok(masses[0]);
        }
        if x >= support[n - 1] {
            return Ok(masses[n - 1]);
        }
        let step = fp.step();
        let pos = (x - support[0]) / step;
        let i = (pos.floor() as usize).min(n - 2);
        let frac = pos - i as f64;
        Ok(masses[i] * (1.0 - frac) + masses[i + 1] * frac)
    }

    /// Posterior probability that an unlabelled point belongs to `s = 0`,
    /// given its features and `u`.
    ///
    /// # Errors
    /// Rejects dimension/label mismatches.
    pub fn posterior_s0(&self, u: u8, x: &[f64]) -> Result<f64> {
        if x.len() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "point dimension {} vs plan dimension {}",
                x.len(),
                self.plan.dim
            )));
        }
        self.posterior(u, x.iter().copied())
    }

    /// [`Self::posterior_s0`] over a point's features in feature order
    /// (the caller has checked their count).
    fn posterior(&self, u: u8, x: impl Iterator<Item = f64>) -> Result<f64> {
        let Some(&prior0) = self.prior_s0_given_u.get(usize::from(u)) else {
            return Err(RepairError::PlanMismatch(format!(
                "no posterior for u={u}: labels are binary"
            )));
        };
        // Work in logs: d features of potentially tiny masses.
        let mut log0 = prior0.ln();
        let mut log1 = (1.0 - prior0).ln();
        for (k, v) in x.enumerate() {
            log0 += self.marginal_mass_at(u, 0, k, v)?.max(1e-300).ln();
            log1 += self.marginal_mass_at(u, 1, k, v)?.max(1e-300).ln();
        }
        let m = log0.max(log1);
        let w0 = (log0 - m).exp();
        let w1 = (log1 - m).exp();
        Ok(w0 / (w0 + w1))
    }

    /// Repair a columnar data set whose `s` labels are treated as
    /// unobserved: the stored labels are ignored for routing and put back
    /// in the output, so fairness can be evaluated against ground truth.
    ///
    /// `seed` derives two seeds, `[post, kern] = [0, 1].map(|j|
    /// splitmix_seed(seed, j))`, so the label draw stays independent of
    /// the plan-row draws. Row `i` takes `ŝᵢ = 1` when the first uniform
    /// of `StdRng::seed_from_u64(splitmix_seed(post, i))` is at least
    /// [`Self::posterior_s0`], else `ŝᵢ = 0`; the rows, labelled `ŝ`, then
    /// go through the kernel of [`RepairPlan::repair_columnar_par`] under
    /// `kern`. Both passes are row-parallel on the wrapped plan's
    /// `config.threads` (`0` = auto / `OTR_THREADS`) and the output is
    /// **bit-identical for any thread count**.
    ///
    /// # Errors
    /// Rejects dimension mismatches and uncompiled plans.
    pub fn repair_columnar_par(
        &self,
        data: &ColumnarDataset,
        seed: u64,
    ) -> Result<ColumnarDataset> {
        if data.dim() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                data.dim(),
                self.plan.dim
            )));
        }
        let [post, kern] = [0, 1].map(|j| splitmix_seed(seed, j));
        let (cols, u) = (data.feature_columns(), data.u());
        let s_hat = try_par_map_indexed(data.len(), self.plan.config.threads, |i| {
            let p0 = self.posterior(u[i], cols.iter().map(|col| col[i]))?;
            let draw: f64 = StdRng::seed_from_u64(splitmix_seed(post, i as u64)).gen();
            Ok::<_, RepairError>(u8::from(draw >= p0))
        })?;
        let routed = ColumnarDataset::from_columns(cols.to_vec(), s_hat, u.to_vec())?;
        let mut out: Vec<Vec<f64>> = (0..data.dim()).map(|_| vec![0.0; data.len()]).collect();
        self.plan
            .repair_columnar_into(&routed, 0..data.len(), kern, 0, &mut out)?;
        // Ground truth back in place for evaluation.
        Ok(data.with_feature_columns(out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::{LabelledPoint, SimulationSpec};
    use otr_fairness::ConditionalDependence;
    use rand::RngCore;

    fn setup(seed: u64) -> (GroupBlindRepairer, Dataset) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(500, 3_000, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
            .design(&split.research)
            .unwrap();
        (
            GroupBlindRepairer::new(plan, &split.research).unwrap(),
            split.archive,
        )
    }

    /// The columnar blind repair of a row-layout data set.
    fn repair(blind: &GroupBlindRepairer, data: &Dataset, seed: u64) -> Dataset {
        let cols = ColumnarDataset::from_dataset(data);
        blind.repair_columnar_par(&cols, seed).unwrap().to_dataset()
    }

    /// The blind contract one row at a time: the `ŝ` draw on the `post`
    /// stream, Algorithm 2 under `ŝ` on the `kern` stream, true `s` back.
    fn per_row_reference(
        blind: &GroupBlindRepairer,
        data: &Dataset,
        seed: u64,
    ) -> Vec<LabelledPoint> {
        let [post, kern] = [0, 1].map(|j| splitmix_seed(seed, j));
        let stream = |base, i: usize| StdRng::seed_from_u64(splitmix_seed(base, i as u64));
        (data.points().iter().enumerate())
            .map(|(i, p)| {
                let p0 = blind.posterior_s0(p.u, &p.x).unwrap();
                let s_hat = u8::from(stream(post, i).gen::<f64>() >= p0);
                let routed = LabelledPoint {
                    x: p.x.clone(),
                    s: s_hat,
                    u: p.u,
                };
                let repaired = blind.plan.repair_point(&routed, &mut stream(kern, i));
                LabelledPoint {
                    s: p.s,
                    ..repaired.unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn posterior_tracks_component_location() {
        let (blind, _) = setup(1);
        // u=0: s=0 component sits at (-1,-1), s=1 at (0,0).
        let p_near_s0 = blind.posterior_s0(0, &[-1.5, -1.5]).unwrap();
        let p_near_s1 = blind.posterior_s0(0, &[0.5, 0.5]).unwrap();
        assert!(p_near_s0 > 0.5, "p(s=0 | x near µ00) = {p_near_s0}");
        assert!(p_near_s1 < 0.4, "p(s=0 | x near µ01) = {p_near_s1}");
        for p in [p_near_s0, p_near_s1] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn blind_repair_reduces_dependence_without_labels() {
        let (blind, archive) = setup(2);
        let repaired = repair(&blind, &archive, 7);
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&archive).unwrap().aggregate();
        let after = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(
            after < before * 0.8,
            "blind repair should help: {before} -> {after}"
        );
    }

    #[test]
    fn blind_repair_weaker_than_oracle() {
        let (blind, archive) = setup(3);
        let mut rng = StdRng::seed_from_u64(8);
        let blind_rep = repair(&blind, &archive, rng.next_u64());
        let oracle_rep = blind.plan().repair_dataset(&archive, &mut rng).unwrap();
        let cd = ConditionalDependence::default();
        let e_blind = cd.evaluate(&blind_rep).unwrap().aggregate();
        let e_oracle = cd.evaluate(&oracle_rep).unwrap().aggregate();
        assert!(
            e_oracle <= e_blind + 0.02,
            "oracle ({e_oracle}) should not lose to blind ({e_blind})"
        );
    }

    #[test]
    fn labels_and_cardinality_preserved() {
        let (blind, archive) = setup(4);
        let repaired = repair(&blind, &archive, 9);
        assert_eq!(repaired.len(), archive.len());
        for (a, b) in repaired.points().iter().zip(archive.points()) {
            assert_eq!(a.s, b.s);
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn parallel_blind_repair_identical_across_thread_counts() {
        let (mut blind, archive) = setup(7);
        // Every thread count reproduces the per-row reference bit for bit
        // (true labels included).
        let reference = per_row_reference(&blind, &archive, 23);
        let bits = |pts: &[LabelledPoint]| {
            (pts.iter())
                .map(|p| (p.s, p.u, p.x.iter().map(|v| v.to_bits()).collect()))
                .collect::<Vec<(u8, u8, Vec<u64>)>>()
        };
        for threads in [1usize, 2, 7] {
            blind.plan.config.threads = threads;
            let out = repair(&blind, &archive, 23);
            assert_eq!(bits(out.points()), bits(&reference), "threads = {threads}");
        }
        // Still reduces dependence through the parallel path.
        let cd = ConditionalDependence::default();
        let before = cd.evaluate(&archive).unwrap().aggregate();
        let repaired = Dataset::from_points(reference).unwrap();
        let after = cd.evaluate(&repaired).unwrap().aggregate();
        assert!(
            after < before * 0.8,
            "blind par repair: {before} -> {after}"
        );
    }

    #[test]
    fn degenerate_prior_rejected() {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(5);
        let split = spec.generate(400, 400, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(20))
            .design(&split.research)
            .unwrap();
        // A research set with no s=0 in u=1 has a degenerate prior.
        let one_sided = Dataset::from_points(
            split
                .research
                .points()
                .iter()
                .filter(|p| !(p.u == 1 && p.s == 0))
                .cloned()
                .collect(),
        )
        .unwrap();
        assert!(GroupBlindRepairer::new(plan, &one_sided).is_err());
    }

    #[test]
    fn posterior_rejects_bad_dim() {
        let (blind, _) = setup(6);
        assert!(blind.posterior_s0(0, &[0.0]).is_err());
        let wrong_dim = ColumnarDataset::from_columns(vec![vec![0.0]], vec![0], vec![0]).unwrap();
        assert!(blind.repair_columnar_par(&wrong_dim, 1).is_err());
    }

    #[test]
    fn posterior_rejects_non_binary_u() {
        let (blind, _) = setup(6);
        let err = blind.posterior_s0(2, &[0.0, 0.0]).unwrap_err();
        assert!(matches!(err, RepairError::PlanMismatch(_)), "{err}");
    }
}
