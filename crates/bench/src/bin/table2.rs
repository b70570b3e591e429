//! **Table II** — OT-based repairs to quench conditional dependence of the
//! educational groups (`u` = college-level-or-above) on gender (`s`) in
//! the Adult income data (Section V-B).
//!
//! Protocol (paper): `nR = 10,000`, `nA = 35,222`, `nQ = 250`; features
//! age and hours/week. The paper reports a single split; we default to a
//! small number of replicates to also report spread.
//!
//! Data source: the calibrated Adult-like synthetic generator
//! (`otr_data::AdultSynth`). Set the environment
//! variable `ADULT_CSV=/path/to/adult.data` to run on the real UCI file
//! instead (single replicate, as in the paper).
//!
//! Usage: `table2 [runs] [--threads <n>]` (default 8 runs, auto threads).

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{render_table, run_mc_threaded, write_results, ExperimentArgs};
use otr_core::{GeometricRepair, RepairConfig, RepairPlanner};
use otr_data::adult::load_adult_csv;
use otr_data::{AdultSynth, SplitData};
use otr_fairness::ConditionalDependence;

const N_RESEARCH: usize = 10_000;
const N_ARCHIVE: usize = 35_222;
const N_Q: usize = 250;
const FEATURES: [&str; 2] = ["Age", "Hours/Week"];

fn run_once(
    split: &SplitData,
    rng: &mut StdRng,
) -> Result<Vec<(String, f64)>, Box<dyn std::error::Error>> {
    let cd = ConditionalDependence::default();
    let planner = RepairPlanner::new(RepairConfig::with_n_q(N_Q));

    let mut metrics = Vec::new();
    let e_res_none = cd.evaluate(&split.research)?;
    let e_arc_none = cd.evaluate(&split.archive)?;

    let plan = planner.design(&split.research)?;
    let e_res_dist = cd.evaluate(&plan.repair_dataset(&split.research, rng)?)?;
    let e_arc_dist = cd.evaluate(&plan.repair_dataset(&split.archive, rng)?)?;

    let geo = GeometricRepair::default().repair(&split.research)?;
    let e_res_geo = cd.evaluate(&geo)?;

    for (k, name) in FEATURES.iter().enumerate() {
        metrics.push((format!("None/research-{name}"), e_res_none.e_per_feature[k]));
        metrics.push((format!("None/archive-{name}"), e_arc_none.e_per_feature[k]));
        metrics.push((
            format!("Distributional (ours)/research-{name}"),
            e_res_dist.e_per_feature[k],
        ));
        metrics.push((
            format!("Distributional (ours)/archive-{name}"),
            e_arc_dist.e_per_feature[k],
        ));
        metrics.push((
            format!("Geometric [10]/research-{name}"),
            e_res_geo.e_per_feature[k],
        ));
    }
    Ok(metrics)
}

fn main() {
    let ExperimentArgs { runs, threads } = ExperimentArgs::from_env(8);

    let (stats, failures) = if let Ok(path) = std::env::var("ADULT_CSV") {
        eprintln!("table2: real Adult file {path} (single split, nQ={N_Q})");
        let file = std::fs::File::open(&path).expect("cannot open ADULT_CSV");
        let data = load_adult_csv(std::io::BufReader::new(file)).expect("bad adult CSV");
        let mut rng = StdRng::seed_from_u64(5_000);
        let n_r = N_RESEARCH.min(data.len() / 2);
        let split = data
            .split_research_archive(n_r, &mut rng)
            .expect("split failed");
        let metrics = run_once(&split, &mut rng).expect("experiment failed");
        let mut stats = otr_bench::McStats::new();
        for (name, value) in metrics {
            stats.entry(name).or_default().push(value);
        }
        (stats, otr_bench::McFailures::default())
    } else {
        eprintln!(
            "table2: {runs} replicates of the Adult-like synthetic generator \
             (nR={N_RESEARCH}, nA={N_ARCHIVE}, nQ={N_Q}); set ADULT_CSV= for the real file"
        );
        let generator = AdultSynth::default();
        run_mc_threaded(runs, 5_000, threads, move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let split = generator.generate(N_RESEARCH, N_ARCHIVE, &mut rng)?;
            run_once(&split, &mut rng)
        })
    };

    failures.warn_if_any();

    let table = render_table(
        "\nTable II — E_k for the Adult income study (lower = better repair)",
        &["None", "Distributional (ours)", "Geometric [10]"],
        &[
            "research-Age",
            "research-Hours/Week",
            "archive-Age",
            "archive-Hours/Week",
        ],
        &stats,
    );
    println!("{table}");
    println!(
        "Paper reference — None: 1.108/2.700 (research), 0.546/1.311 (archive); \
         Distributional: 0.339/0.532 (research), 0.310/0.367 (archive); \
         Geometric: 0.195/2.126 (research only)."
    );

    write_results("table2", &stats, runs, &failures);
}
