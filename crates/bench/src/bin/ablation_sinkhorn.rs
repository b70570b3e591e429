//! **Ablation A2** — exact vs entropic plan design (Section IV-A1 of the
//! paper): repair quality `E`, data damage, and design wall time as the
//! Sinkhorn regularization `ε` varies, against the exact monotone solver.
//!
//! The entropy term blurs the plans, which Algorithm 2's randomization
//! inherits: larger `ε` should show higher residual `E` and more damage,
//! converging to the exact solver as `ε → 0`.
//!
//! Usage: `ablation_sinkhorn [runs] [--threads <n>]`
//! (default 10 runs, auto threads).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{dataset_damage, RepairConfig, RepairPlanner, SolverBackend};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;
const EPSILONS: &[f64] = &[1.0, 0.3, 0.1, 0.03];

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(10);
    eprintln!("ablation_sinkhorn: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q})");

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 8_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let mut metrics = Vec::new();

        let mut eval = |name: String,
                        solver: SolverBackend,
                        rng: &mut StdRng|
         -> Result<(), Box<dyn std::error::Error>> {
            let mut cfg = RepairConfig::with_n_q(N_Q);
            cfg.solver = solver;
            let start = Instant::now();
            let plan = RepairPlanner::new(cfg).design(&split.research)?;
            let design_ms = start.elapsed().as_secs_f64() * 1e3;
            let repaired = plan.repair_dataset(&split.archive, rng)?;
            let e = cd.evaluate(&repaired)?.aggregate();
            let damage = dataset_damage(&split.archive, &repaired)?;
            metrics.push((format!("E/{name}"), e));
            metrics.push((format!("rmse/{name}"), damage.mean_rmse()));
            metrics.push((format!("design_ms/{name}"), design_ms));
            Ok(())
        };

        eval("exact".into(), SolverBackend::ExactMonotone, &mut rng)?;
        eval("simplex".into(), SolverBackend::Simplex, &mut rng)?;
        for &eps in EPSILONS {
            eval(format!("eps={eps}"), SolverBackend::sinkhorn(eps), &mut rng)?;
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nAblation A2 — exact monotone vs Sinkhorn plan design (archival repair)");
    println!(
        "{:<12} {:>20} {:>20} {:>20}",
        "solver", "E (residual)", "RMSE damage", "design time (ms)"
    );
    let mut rows: Vec<String> = vec!["exact".into(), "simplex".into()];
    rows.extend(EPSILONS.iter().map(|e| format!("eps={e}")));
    for row in rows {
        let g = |pfx: &str| {
            stats
                .get(&format!("{pfx}/{row}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<12} {:>20} {:>20} {:>20}",
            row,
            g("E"),
            g("rmse"),
            g("design_ms")
        );
    }
    println!(
        "\nExpected shape: both damage and E converge to the exact row as eps shrinks.\n\
         Larger eps blurs the plans: residual E drops below the exact value (both\n\
         conditionals get smeared toward the same blur) but damage rises sharply —\n\
         entropy buys fairness with data destruction, not with better transport.\n\
         Design time grows as eps shrinks (more Sinkhorn iterations)."
    );

    write_results("ablation_sinkhorn", &stats, runs, &failures);
}
