//! **Figure 4** — empirical `E` of the composite repaired data set
//! `X_R ∪ X_A` as the interpolated-support resolution `nQ` grows, for
//! fixed `nR = 500`, `nA = 5000`.
//!
//! Reproduces the paper's observation that repair performance converges
//! above `nQ ≈ 30`: the interpolated pmfs act as pseudo-sufficient
//! statistics an order of magnitude smaller than `nR`.
//!
//! Usage: `fig4 [runs] [--threads <n>]` (default 50 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{RepairConfig, RepairPlanner};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q_SWEEP: &[usize] = &[5, 10, 15, 20, 25, 30, 40, 50];

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(50);
    eprintln!("fig4: {runs} replicates per point (nR={N_RESEARCH}, nA={N_ARCHIVE})");

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 4_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        // One data draw per replicate, shared across the nQ sweep so the
        // curve reflects nQ alone.
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let mut metrics = Vec::new();
        for &n_q in N_Q_SWEEP {
            let plan = RepairPlanner::new(RepairConfig::with_n_q(n_q)).design(&split.research)?;
            let rep_res = plan.repair_dataset(&split.research, &mut rng)?;
            let rep_arc = plan.repair_dataset(&split.archive, &mut rng)?;
            let composite = rep_res.concat(&rep_arc)?;
            metrics.push((
                format!("composite/nQ={n_q}"),
                cd.evaluate(&composite)?.aggregate(),
            ));
        }
        let composite_unrepaired = split.research.concat(&split.archive)?;
        metrics.push((
            "unrepaired/composite".to_string(),
            cd.evaluate(&composite_unrepaired)?.aggregate(),
        ));
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nFigure 4 — E of the composite repaired data (X_R ∪ X_A) vs nQ");
    println!("{:<8} {:>26}", "nQ", "E composite repaired");
    for &n_q in N_Q_SWEEP {
        if let Some(w) = stats.get(&format!("composite/nQ={n_q}")) {
            println!("{:<8} {:>18.4} ± {:.4}", n_q, w.mean(), w.sample_sd());
        }
    }
    if let Some(w) = stats.get("unrepaired/composite") {
        println!(
            "{:<8} {:>18.4} ± {:.4}   (no repair, for scale)",
            "-",
            w.mean(),
            w.sample_sd()
        );
    }
    println!(
        "\nExpected shape (paper): E decreases with nQ and is statistically flat above nQ≈30."
    );

    write_results("fig4", &stats, runs, &failures);
}
