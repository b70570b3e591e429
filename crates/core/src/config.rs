//! Configuration of the repair-plan design (the operating conditions
//! `nQ`, `t`, bandwidth, and solver backend studied in Section V-A2).

use serde::{Deserialize, Serialize};

use otr_stats::kde::Bandwidth;

use crate::error::{RepairError, Result};

// Backend selection is owned by the OT crate's unified solver seam;
// re-exported here so existing `otr_core::SolverBackend` callers keep
// working.
pub use otr_ot::solvers::backend::SolverBackend;

/// How Algorithm 2 splits a plan row's mass over target states when a
/// point is repaired (the Section IV-B design axis that
/// `ablation_randomization` measures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MassSplit {
    /// The paper's randomized split: Bernoulli grid quantization
    /// (Equation 14) followed by a multinomial draw from the normalized
    /// plan row (Equation 15). Preserves the repaired marginal exactly.
    #[default]
    Randomized,
    /// Deterministic variant: nearest grid cell, then the row's
    /// barycentric projection (conditional mean). Repairs equal inputs
    /// equally — individual-fairness friendly — at the cost of
    /// collapsing each row's mass to a point.
    Deterministic,
}

/// Configuration for [`crate::RepairPlanner`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairConfig {
    /// Number of interpolated support states `nQ` per `(u, k)` (line 4 of
    /// Algorithm 1). The paper uses 50 for the simulation and 250 for
    /// Adult.
    pub n_q: usize,
    /// Geodesic position `t ∈ [0, 1]` of the repair target (Equation 7).
    /// `0.5` is the fair barycentre with equal expected cost to both
    /// groups; values closer to 0/1 implement partial repair.
    pub t: f64,
    /// KDE bandwidth rule for the interpolated marginals (Equation 11).
    pub bandwidth: Bandwidth,
    /// OT solver backend.
    pub solver: SolverBackend,
    /// Minimum research observations required per `(u, s)` group.
    pub min_group_size: usize,
    /// Sampling resolution of the barycentre quantile curve (`None` =
    /// automatic: `max(16 · nQ, 1024)`).
    pub barycentre_resolution: Option<usize>,
    /// Worker threads for dataset-level repair, batch repair, and plan
    /// design (`0` = auto: the `OTR_THREADS` environment variable if
    /// set, else the machine's available parallelism). Parallel output
    /// is bit-identical to sequential for every setting.
    ///
    /// Runtime policy, not part of the designed artifact: it is **not**
    /// serialized into plan JSON (a design-time thread count must not
    /// become the execution policy of every machine the plan ships to);
    /// deserialized plans always start at `0` = auto.
    #[serde(skip)]
    pub threads: usize,
    /// Row-batch size of the columnar repair kernel (`None` = 8 192
    /// rows; `Some(0)` counts as 1). Pure blocking policy — it changes
    /// wall-clock time and nothing else — and, like [`Self::threads`],
    /// machine-local: not serialized into plan JSON.
    #[serde(skip)]
    pub batch_rows: Option<usize>,
    /// Mass-split mode of Algorithm 2 (randomized multinomial draws vs
    /// deterministic barycentric projection).
    #[serde(default)]
    pub mass_split: MassSplit,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            n_q: 50,
            t: 0.5,
            bandwidth: Bandwidth::Silverman,
            solver: SolverBackend::ExactMonotone,
            min_group_size: 2,
            barycentre_resolution: None,
            threads: 0,
            batch_rows: None,
            mass_split: MassSplit::Randomized,
        }
    }
}

impl RepairConfig {
    /// Default configuration at a given support resolution.
    pub fn with_n_q(n_q: usize) -> Self {
        Self {
            n_q,
            ..Self::default()
        }
    }

    /// Validate parameter domains.
    ///
    /// # Errors
    /// Requires `n_q ≥ 2`, `t ∈ [0,1]`, positive Sinkhorn `ε`, positive
    /// fixed bandwidths, `min_group_size ≥ 2`.
    pub fn validate(&self) -> Result<()> {
        if self.n_q < 2 {
            return Err(RepairError::InvalidParameter {
                name: "n_q",
                reason: format!("must be at least 2, got {}", self.n_q),
            });
        }
        if !(0.0..=1.0).contains(&self.t) || self.t.is_nan() {
            return Err(RepairError::InvalidParameter {
                name: "t",
                reason: format!("must be in [0,1], got {}", self.t),
            });
        }
        self.solver.validate()?;
        if let Bandwidth::Fixed(h) = self.bandwidth {
            if !(h > 0.0) || !h.is_finite() {
                return Err(RepairError::InvalidParameter {
                    name: "bandwidth",
                    reason: format!("fixed bandwidth must be positive, got {h}"),
                });
            }
        }
        if self.min_group_size < 2 {
            return Err(RepairError::InvalidParameter {
                name: "min_group_size",
                reason: "must be at least 2".into(),
            });
        }
        if let Some(r) = self.barycentre_resolution {
            if r < self.n_q {
                return Err(RepairError::InvalidParameter {
                    name: "barycentre_resolution",
                    reason: format!("must be >= n_q ({}), got {r}", self.n_q),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RepairConfig::default().validate().unwrap();
        RepairConfig::with_n_q(250).validate().unwrap();
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut c = RepairConfig::default();
        c.n_q = 1;
        assert!(c.validate().is_err());

        let mut c = RepairConfig::default();
        c.t = 1.5;
        assert!(c.validate().is_err());

        let mut c = RepairConfig::default();
        c.solver = SolverBackend::sinkhorn(0.0);
        assert!(c.validate().is_err());

        let mut c = RepairConfig::default();
        c.bandwidth = Bandwidth::Fixed(-1.0);
        assert!(c.validate().is_err());

        let mut c = RepairConfig::default();
        c.min_group_size = 1;
        assert!(c.validate().is_err());

        let mut c = RepairConfig::default();
        c.barycentre_resolution = Some(10);
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = RepairConfig {
            n_q: 250,
            t: 0.3,
            bandwidth: Bandwidth::Fixed(0.5),
            solver: SolverBackend::sinkhorn(0.01),
            min_group_size: 5,
            barycentre_resolution: Some(4096),
            threads: 3,
            batch_rows: Some(1024),
            mass_split: MassSplit::Deterministic,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: RepairConfig = serde_json::from_str(&json).unwrap();
        // `threads` and `batch_rows` are machine-local runtime policy and
        // must NOT travel with the artifact; everything else round-trips.
        assert_eq!(back.threads, 0);
        assert_eq!(back.batch_rows, None);
        assert_eq!(
            c,
            RepairConfig {
                threads: 3,
                batch_rows: Some(1024),
                ..back
            }
        );
    }

    #[test]
    fn threads_and_mass_split_default_when_absent() {
        // Plans serialized before the parallel-execution fields existed
        // must keep deserializing (the deployable-artifact contract).
        let legacy = r#"{"n_q":50,"t":0.5,"bandwidth":"Silverman",
            "solver":"ExactMonotone","min_group_size":2,
            "barycentre_resolution":null}"#;
        let back: RepairConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.threads, 0);
        assert_eq!(back.mass_split, MassSplit::Randomized);
        back.validate().unwrap();
    }
}
