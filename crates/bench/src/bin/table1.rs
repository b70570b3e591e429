//! **Table I** — OT-based repairs (quenching of conditional dependence)
//! for the simulated bivariate-Gaussian sub-groups of Section V-A.
//!
//! Protocol (paper defaults): `nR = 500`, `nA = 5000`, `nQ = 50`,
//! 200 Monte-Carlo replicates; report `E_k` (mean ± sd) per feature for
//! the research and archive data under: no repair, our distributional
//! repair (Algorithms 1+2), and the geometric repair of \[10\] (research
//! data only — it cannot repair off-sample points).
//!
//! Usage: `table1 [runs] [--threads <n>]` (default 200 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{render_table, run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{GeometricRepair, RepairConfig, RepairPlanner};
use otr_data::SimulationSpec;
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 500;
const N_ARCHIVE: usize = 5_000;
const N_Q: usize = 50;

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(200);
    eprintln!("table1: {runs} Monte-Carlo replicates (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q})");

    let spec = SimulationSpec::paper_defaults();
    let planner = RepairPlanner::new(RepairConfig::with_n_q(N_Q));
    let cd = ConditionalDependence::default();

    let (stats, failures) = run_mc_threaded(runs, 1_000, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let split = spec.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;

        let mut metrics = Vec::new();
        let e_res_none = cd.evaluate(&split.research)?;
        let e_arc_none = cd.evaluate(&split.archive)?;

        let plan = planner.design(&split.research)?;
        let rep_res = plan.repair_dataset(&split.research, &mut rng)?;
        let rep_arc = plan.repair_dataset(&split.archive, &mut rng)?;
        let e_res_dist = cd.evaluate(&rep_res)?;
        let e_arc_dist = cd.evaluate(&rep_arc)?;

        let geo = GeometricRepair::default().repair(&split.research)?;
        let e_res_geo = cd.evaluate(&geo)?;

        for k in 0..2 {
            metrics.push((
                format!("None/research-k{}", k + 1),
                e_res_none.e_per_feature[k],
            ));
            metrics.push((
                format!("None/archive-k{}", k + 1),
                e_arc_none.e_per_feature[k],
            ));
            metrics.push((
                format!("Distributional (ours)/research-k{}", k + 1),
                e_res_dist.e_per_feature[k],
            ));
            metrics.push((
                format!("Distributional (ours)/archive-k{}", k + 1),
                e_arc_dist.e_per_feature[k],
            ));
            metrics.push((
                format!("Geometric [10]/research-k{}", k + 1),
                e_res_geo.e_per_feature[k],
            ));
        }
        Ok(metrics)
    });

    failures.warn_if_any();

    let table = render_table(
        "\nTable I — E_k for simulated bivariate Gaussian sub-groups (lower = better repair)",
        &["None", "Distributional (ours)", "Geometric [10]"],
        &["research-k1", "research-k2", "archive-k1", "archive-k2"],
        &stats,
    );
    println!("{table}");
    println!(
        "Paper reference — None: 7.486/7.271 (research), 6.279/6.377 (archive); \
         Distributional: 0.0899/0.0926 (research), 0.3926/0.4443 (archive); \
         Geometric: 0.0071/0.0073 (research only)."
    );

    write_results("table1", &stats, runs, &failures);
}
