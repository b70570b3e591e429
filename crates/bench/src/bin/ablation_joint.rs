//! **Ablation A8** — intra-feature correlation structure (Section VI of
//! the paper).
//!
//! The paper's per-feature stratification "neglect\[s\] the intra-feature
//! correlation structure in the x_{u,s}" and defers its impact to future
//! work. This harness constructs the adversarial case: `s`-conditionals
//! with **identical marginals but opposite correlation** (`ρ = ±0.8`).
//! The per-feature repair is blind to all of it; the joint (2-D support)
//! repair removes it at `nQ²` design cost.
//!
//! Metrics: marginal `E` (the paper's measure) and joint 2-D `E`,
//! before/after each repair, plus design wall time.
//!
//! Usage: `ablation_joint [runs] [--threads <n>]`
//! (default 10 runs, auto threads).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{JointRepairConfig, JointRepairPlan, RepairConfig, RepairPlanner};
use otr_data::SimulationSpec;
use otr_fairness::{ConditionalDependence, JointDependence};
use otr_stats::linalg::Matrix;

const N_RESEARCH: usize = 1_500;
const N_ARCHIVE: usize = 4_000;

fn correlation_spec() -> SimulationSpec {
    let cov = |rho: f64| Matrix::from_rows(2, 2, vec![1.0, rho, rho, 1.0]).unwrap();
    SimulationSpec {
        // Identical means everywhere: the s|u dependence is *purely*
        // correlational, invisible to any per-feature method.
        means: [
            [vec![0.0, 0.0], vec![0.0, 0.0]],
            [vec![0.0, 0.0], vec![0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: Some([[cov(0.8), cov(-0.8)], [cov(0.8), cov(-0.8)]]),
        pr_u0: 0.5,
        pr_s0_given_u: [0.4, 0.4],
    }
}

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(10);
    eprintln!("ablation_joint: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE})");

    let spec = correlation_spec();
    let cd = ConditionalDependence::default();
    let jd = JointDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 12_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let mut metrics = Vec::new();

        metrics.push((
            "marginal-E/unrepaired".to_string(),
            cd.evaluate(&split.archive)?.aggregate(),
        ));
        metrics.push((
            "joint-E/unrepaired".to_string(),
            jd.evaluate(&split.archive)?,
        ));

        // Per-feature repair (the paper's Algorithm 1+2).
        let start = Instant::now();
        let marginal_plan =
            RepairPlanner::new(RepairConfig::with_n_q(50)).design(&split.research)?;
        metrics.push((
            "design_ms/per-feature".to_string(),
            start.elapsed().as_secs_f64() * 1e3,
        ));
        let rep_marginal = marginal_plan.repair_dataset(&split.archive, &mut rng)?;
        metrics.push((
            "marginal-E/per-feature repair".to_string(),
            cd.evaluate(&rep_marginal)?.aggregate(),
        ));
        metrics.push((
            "joint-E/per-feature repair".to_string(),
            jd.evaluate(&rep_marginal)?,
        ));

        // Joint repair on the nQ² product support.
        let start = Instant::now();
        let joint_plan = JointRepairPlan::design(&split.research, JointRepairConfig::default())?;
        metrics.push((
            "design_ms/joint".to_string(),
            start.elapsed().as_secs_f64() * 1e3,
        ));
        let rep_joint = joint_plan.repair_dataset(&split.archive, &mut rng)?;
        metrics.push((
            "marginal-E/joint repair".to_string(),
            cd.evaluate(&rep_joint)?.aggregate(),
        ));
        metrics.push(("joint-E/joint repair".to_string(), jd.evaluate(&rep_joint)?));
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nAblation A8 — correlation-borne dependence: per-feature vs joint repair");
    println!(
        "{:<24} {:>20} {:>20} {:>18}",
        "variant", "marginal E", "joint E", "design (ms)"
    );
    for variant in ["unrepaired", "per-feature repair", "joint repair"] {
        let g = |pfx: &str| {
            stats
                .get(&format!("{pfx}/{variant}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        let d = stats
            .get(&format!(
                "design_ms/{}",
                if variant == "per-feature repair" {
                    "per-feature"
                } else {
                    "joint"
                }
            ))
            .filter(|_| variant != "unrepaired")
            .map(|w| format!("{:.1}", w.mean()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<24} {:>20} {:>20} {:>18}",
            variant,
            g("marginal-E"),
            g("joint-E"),
            d
        );
    }
    println!(
        "\nExpected shape: marginal E is ~0 in all rows (the marginals are identical\n\
         by construction). Joint E: large unrepaired, unchanged by the per-feature\n\
         repair (the paper's Sec. VI caveat made concrete), strongly reduced by the\n\
         joint repair — at roughly nQ²-fold design cost."
    );

    write_results("ablation_joint", &stats, runs, &failures);
}
