//! **Ablation A1** — the partial-repair trade-off (Section VI of the
//! paper): residual unfairness `E` versus data damage as the repair
//! intensity `λ` sweeps from 0 (no repair) to 1 (full Algorithm 2).
//!
//! `x'(λ) = (1−λ)·x + λ·repair(x)` interpolates each point toward its
//! repaired position. The paper defers this trade-off study to future
//! work; this harness provides it.
//!
//! Usage: `ablation_partial [runs] [--threads <n>]`
//! (default 20 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{dataset_damage, RepairConfig, RepairPlanner};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;
const LAMBDAS: &[f64] = &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(20);
    eprintln!("ablation_partial: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q})");

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 7_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let plan = RepairPlanner::new(RepairConfig::with_n_q(N_Q)).design(&split.research)?;
        let mut metrics = Vec::new();
        for &lambda in LAMBDAS {
            let repaired = plan.repair_dataset_partial(&split.archive, lambda, &mut rng)?;
            let e = cd.evaluate(&repaired)?.aggregate();
            let damage = dataset_damage(&split.archive, &repaired)?;
            metrics.push((format!("E/lambda={lambda:.1}"), e));
            metrics.push((format!("rmse/lambda={lambda:.1}"), damage.mean_rmse()));
            metrics.push((format!("w2/lambda={lambda:.1}"), damage.max_w2()));
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nAblation A1 — partial repair: fairness vs damage on archival data");
    println!(
        "{:<10} {:>20} {:>20} {:>20}",
        "lambda", "E (residual)", "RMSE damage", "max W2 damage"
    );
    for &lambda in LAMBDAS {
        let g = |pfx: &str| {
            stats
                .get(&format!("{pfx}/lambda={lambda:.1}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<10.1} {:>20} {:>20} {:>20}",
            lambda,
            g("E"),
            g("rmse"),
            g("w2")
        );
    }
    println!(
        "\nExpected shape: E decreases monotonically in lambda while damage increases —\n\
         the practitioner picks an operating point on this frontier (Sec. VI)."
    );

    write_results("ablation_partial", &stats, runs, &failures);
}
