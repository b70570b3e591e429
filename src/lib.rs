//! # ot-fair-repair
//!
//! A production-quality Rust implementation of
//! *"Optimal Transport for Fairness: Archival Data Repair using Small
//! Research Data Sets"* (Langbridge, Quinn & Shorten, ICDE 2024,
//! arXiv:2403.13864).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`stats`] — distributions, KDE, divergences, EM ([`otr_stats`]).
//! * [`ot`] — exact & entropic optimal-transport solvers and barycentres
//!   ([`otr_ot`]).
//! * [`data`] — tables, CSV, synthetic generators ([`otr_data`]).
//! * [`fairness`] — the conditional-KLD fairness measure `E`, disparate
//!   impact, and a logistic-regression classifier ([`otr_fairness`]).
//! * [`repair`] — the paper's contribution: distributional repair-plan
//!   design (Algorithm 1), off-sample archival repair (Algorithm 2), and
//!   the geometric on-sample baseline ([`otr_core`]).
//! * [`serve`] — repair-as-a-service: the `otrepaird` daemon, its plan
//!   registry, and the wire protocol ([`otr_serve`]).
//! * [`cli`] — the flag tables and parser the `otrepair` and `otrepaird`
//!   binaries share.
//!
//! ## Quickstart
//!
//! ```
//! use ot_fair_repair::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Simulate the paper's Section V-A population and split it.
//! let spec = SimulationSpec::paper_defaults();
//! let data = spec.generate(500, 2000, &mut rng).unwrap();
//!
//! // Design the repair on the small research set (Algorithm 1)...
//! let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
//!     .design(&data.research)
//!     .unwrap();
//! // ...and repair the archival torrent (Algorithm 2).
//! let repaired = plan.repair_dataset(&data.archive, &mut rng).unwrap();
//! assert_eq!(repaired.len(), data.archive.len());
//!
//! // Conditional dependence of X on S given U drops.
//! let cd = ConditionalDependence::default();
//! let before = cd.evaluate(&data.archive).unwrap().aggregate();
//! let after = cd.evaluate(&repaired).unwrap().aggregate();
//! assert!(after < before);
//! ```

pub mod cli;

pub use otr_core as repair;
pub use otr_data as data;
pub use otr_fairness as fairness;
pub use otr_ot as ot;
pub use otr_serve as serve;
pub use otr_stats as stats;

/// Convenience prelude pulling in the types used by almost every caller.
pub mod prelude {
    pub use otr_core::{
        dataset_damage, dataset_damage_columnar, plan_group_divergences, DamageReport, DriftConfig,
        DriftMonitor, GeometricRepair, GroupBlindRepairer, JointDesignReport, JointRepairConfig,
        JointRepairPlan, MassSplit, MongeRepair, RepairConfig, RepairPlan, RepairPlanner,
        SolverBackend, StratumDrift, StreamingRepairer,
    };
    pub use otr_data::{
        AdultSynth, ColumnarDataset, Dataset, Drift, GroupKey, LabelledPoint, SimulationSpec,
        SplitData,
    };
    pub use otr_fairness::{
        conditional_disparate_impact, ConditionalDependence, DiReport, EReport, JointDependence,
        LogisticRegression, WassersteinDependence,
    };
    pub use otr_ot::{DiscreteDistribution, EpsSchedule, KernelChoice, MidpointCdf, OtPlan};
}
