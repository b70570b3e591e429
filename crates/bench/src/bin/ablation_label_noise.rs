//! **Ablation A4** — oracle vs estimated protected labels (Sections IV
//! and VI of the paper).
//!
//! The paper assumes archival `s|u` labels are known "or can be estimated
//! with low error" and defers the estimation study to future work. This
//! harness closes that loop: for each `u` group it fits the two-component
//! Gaussian-mixture EM of `otr_stats::em` on the *pooled, unlabelled*
//! archival feature (per the paper's Equation 10), anchors component
//! identity with the labelled research moments, assigns `ŝ` by MAP, and
//! repairs with `ŝ` instead of the true `s`.
//!
//! Usage: `ablation_label_noise [runs] [--threads <n>]`
//! (default 20 runs, auto threads).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{GroupBlindRepairer, RepairConfig, RepairPlanner};
use otr_data::{ColumnarDataset, Dataset, GroupKey, LabelledPoint, SimulationSpec};
use otr_fairness::ConditionalDependence;
use otr_stats::GaussianMixtureEm;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;
/// Feature used by the EM label estimator (the most `s`-separated one).
const EM_FEATURE: usize = 0;

/// Estimate `ŝ` for each archival point by per-`u` 1-D Gaussian-mixture
/// EM on `EM_FEATURE`, initialized from the labelled research moments.
fn estimate_labels(
    research: &Dataset,
    archive: &Dataset,
) -> Result<(Dataset, f64), Box<dyn std::error::Error>> {
    let em = GaussianMixtureEm::default();
    let mut fits = Vec::new();
    for u in 0..2u8 {
        // Research-informed initialization anchors component identity.
        let r0 = research.feature_column(GroupKey { u, s: 0 }, EM_FEATURE)?;
        let r1 = research.feature_column(GroupKey { u, s: 1 }, EM_FEATURE)?;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let sd = |v: &[f64], m: f64| {
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0).max(1.0))
                .sqrt()
                .max(1e-3)
        };
        let (m0, m1) = (mean(&r0), mean(&r1));
        let w0 = r0.len() as f64 / (r0.len() + r1.len()) as f64;
        let pooled = archive.feature_column_u(u, EM_FEATURE)?;
        let fit = em.fit_with_init(
            &pooled,
            w0.clamp(0.01, 0.99),
            [m0, m1],
            [sd(&r0, m0), sd(&r1, m1)],
        )?;
        fits.push(fit);
    }

    let mut correct = 0usize;
    let mut points = Vec::with_capacity(archive.len());
    for p in archive.points() {
        let s_hat = fits[p.u as usize].classify(p.x[EM_FEATURE]);
        if s_hat == p.s {
            correct += 1;
        }
        points.push(LabelledPoint {
            x: p.x.clone(),
            s: s_hat,
            u: p.u,
        });
    }
    let accuracy = correct as f64 / archive.len() as f64;
    Ok((Dataset::from_points(points)?, accuracy))
}

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(20);
    eprintln!(
        "ablation_label_noise: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q})"
    );

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 10_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let plan = RepairPlanner::new(RepairConfig::with_n_q(N_Q)).design(&split.research)?;

        let oracle = plan.repair_dataset(&split.archive, &mut rng)?;
        let blind = GroupBlindRepairer::new(plan.clone(), &split.research)?
            .repair_columnar_par(
                &ColumnarDataset::from_dataset(&split.archive),
                rng.next_u64(),
            )?
            .to_dataset();
        let (relabelled, accuracy) = estimate_labels(&split.research, &split.archive)?;
        let estimated_raw = plan.repair_dataset(&relabelled, &mut rng)?;
        // Evaluate fairness against the TRUE labels (the estimator only
        // chooses which plan row repairs each point).
        let estimated = Dataset::from_points(
            estimated_raw
                .points()
                .iter()
                .zip(split.archive.points())
                .map(|(rep, orig)| LabelledPoint {
                    x: rep.x.clone(),
                    s: orig.s,
                    u: orig.u,
                })
                .collect(),
        )?;

        Ok(vec![
            (
                "E/unrepaired".to_string(),
                cd.evaluate(&split.archive)?.aggregate(),
            ),
            (
                "E/oracle labels".to_string(),
                cd.evaluate(&oracle)?.aggregate(),
            ),
            (
                "E/EM labels".to_string(),
                cd.evaluate(&estimated)?.aggregate(),
            ),
            (
                "E/group-blind posterior".to_string(),
                cd.evaluate(&blind)?.aggregate(),
            ),
            ("accuracy/EM labels".to_string(), accuracy),
        ])
    });

    failures.warn_if_any();

    println!("\nAblation A4 — repair with oracle vs EM-estimated archival labels");
    for row in [
        "unrepaired",
        "oracle labels",
        "EM labels",
        "group-blind posterior",
    ] {
        if let Some(w) = stats.get(&format!("E/{row}")) {
            println!("{:<16} E = {:.4} ± {:.4}", row, w.mean(), w.sample_sd());
        }
    }
    if let Some(w) = stats.get("accuracy/EM labels") {
        println!("EM label accuracy: {:.3} ± {:.3}", w.mean(), w.sample_sd());
    }
    println!(
        "\nExpected shape: EM-labelled and group-blind repairs sit between unrepaired\n\
         and oracle. The soft group-blind posterior (which never commits to a hard\n\
         label) should match or beat hard EM labels — the direction of the paper's\n\
         refs [37]-[39]."
    );

    write_results("ablation_label_noise", &stats, runs, &failures);
}
