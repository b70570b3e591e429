//! **Ablation A3** — the paper's randomized mass split (Section IV-B)
//! versus a deterministic barycentric-projection variant of Algorithm 2.
//!
//! Algorithm 2 draws the repaired state from the normalized plan row
//! (Equation 15), preserving the *distributional* shape of the repair.
//! The obvious deterministic alternative maps every archival point to its
//! row's conditional mean (the barycentric projection). Determinism
//! collapses each row's mass to a point, which distorts the repaired
//! marginal — this harness quantifies how much fairness that costs.
//!
//! Usage: `ablation_randomization [runs] [--threads <n>]`
//! (default 20 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{dataset_damage, MassSplit, RepairConfig, RepairPlanner, SolverBackend};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(20);
    eprintln!(
        "ablation_randomization: {runs} replicates (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q})"
    );

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 9_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
        let mut metrics = Vec::new();
        // Exact plans have near-degenerate rows; entropic plans have
        // blurred rows, where the deterministic point-collapse hurts.
        for (backend_name, solver) in [
            ("exact", SolverBackend::ExactMonotone),
            ("sinkhorn eps=0.5", SolverBackend::sinkhorn(0.5)),
        ] {
            let mut cfg = RepairConfig::with_n_q(N_Q);
            cfg.solver = solver;
            let plan = RepairPlanner::new(cfg).design(&split.research)?;
            let randomized = plan.repair_dataset(&split.archive, &mut rng)?;
            // Same designed plan, deterministic mass split (the variant
            // is a first-class `RepairConfig` mode).
            let mut det_plan = plan.clone();
            det_plan.config.mass_split = MassSplit::Deterministic;
            let deterministic = det_plan.repair_dataset(&split.archive, &mut rng)?;
            metrics.push((
                format!("E/randomized, {backend_name}"),
                cd.evaluate(&randomized)?.aggregate(),
            ));
            metrics.push((
                format!("E/deterministic, {backend_name}"),
                cd.evaluate(&deterministic)?.aggregate(),
            ));
            metrics.push((
                format!("rmse/randomized, {backend_name}"),
                dataset_damage(&split.archive, &randomized)?.mean_rmse(),
            ));
            metrics.push((
                format!("rmse/deterministic, {backend_name}"),
                dataset_damage(&split.archive, &deterministic)?.mean_rmse(),
            ));
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nAblation A3 — randomized (Eq. 14-15) vs deterministic mass split, archival data");
    println!(
        "{:<30} {:>20} {:>20}",
        "variant", "E (residual)", "RMSE damage"
    );
    for variant in [
        "randomized, exact",
        "deterministic, exact",
        "randomized, sinkhorn eps=0.5",
        "deterministic, sinkhorn eps=0.5",
    ] {
        let g = |pfx: &str| {
            stats
                .get(&format!("{pfx}/{variant}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        println!("{:<30} {:>20} {:>20}", variant, g("E"), g("rmse"));
    }
    println!(
        "\nExpected shape: with exact (near-degenerate) plan rows the variants tie;\n\
         with entropic (blurred) rows the deterministic point-collapse distorts the\n\
         repaired marginals, leaving higher residual E — the paper's randomized split\n\
         is what makes regularized plans usable."
    );

    write_results("ablation_randomization", &stats, runs, &failures);
}
