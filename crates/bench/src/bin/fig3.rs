//! **Figure 3** — empirical `E` (aggregated over both features) as the
//! research-data size `nR` grows, for fixed `nA = 5000`, `nQ = 50`.
//!
//! Reproduces the paper's observation that repair quality converges by
//! `nR ≈ 500` (10% of the archive), with the archive (off-sample) curve
//! plateauing above the research (on-sample) curve, both far below the
//! unrepaired level.
//!
//! Usage: `fig3 [runs] [--threads <n>]` (default 50 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{RepairConfig, RepairPlanner};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;
const N_R_SWEEP: &[usize] = &[25, 50, 100, 200, 300, 500, 750];

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(50);
    eprintln!("fig3: {runs} replicates per point (nA={N_ARCHIVE}, nQ={N_Q})");

    let spec = SimulationSpec::paper_defaults();
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 3_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut metrics = Vec::new();
        for &n_r in N_R_SWEEP {
            let split = spec.generate(n_r, N_ARCHIVE, &mut rng)?;
            metrics.push((
                format!("unrepaired/nR={n_r}"),
                cd.evaluate(&split.archive)?.aggregate(),
            ));
            // The tiny-nR points can miss a subgroup; treat as a failed
            // point rather than a failed replicate.
            let plan = match RepairPlanner::new(RepairConfig::with_n_q(N_Q)).design(&split.research)
            {
                Ok(p) => p,
                Err(_) => continue,
            };
            let rep_res = plan.repair_dataset(&split.research, &mut rng)?;
            let rep_arc = plan.repair_dataset(&split.archive, &mut rng)?;
            if let Ok(e) = cd.evaluate(&rep_res) {
                metrics.push((format!("research/nR={n_r}"), e.aggregate()));
            }
            metrics.push((
                format!("archive/nR={n_r}"),
                cd.evaluate(&rep_arc)?.aggregate(),
            ));
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    println!("\nFigure 3 — E (aggregated over features) vs research size nR");
    println!(
        "{:<8} {:>22} {:>22} {:>22}",
        "nR", "E repaired research", "E repaired archive", "E unrepaired archive"
    );
    for &n_r in N_R_SWEEP {
        let cell = |series: &str| {
            stats
                .get(&format!("{series}/nR={n_r}"))
                .map(|w| format!("{:.4} ± {:.4}", w.mean(), w.sample_sd()))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<8} {:>22} {:>22} {:>22}",
            n_r,
            cell("research"),
            cell("archive"),
            cell("unrepaired")
        );
    }
    println!(
        "\nExpected shape (paper): both repaired curves decay and plateau by nR≈500;\n\
         archive stays above research; unrepaired stays an order of magnitude higher."
    );

    write_results("fig3", &stats, runs, &failures);
}
