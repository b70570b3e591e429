//! **Perf-smoke gate** — the system's speed, checked against floors.
//!
//! The paper's requirement 3 (Section IV): "the method should be
//! computationally efficient, so that large data sets can be repaired".
//! After plan design, repairing one point is O(1) per feature (direct
//! grid indexing + one Bernoulli + one O(1) alias draw), independent of
//! `nR`, `nA`, and — thanks to the alias tables — of `nQ`; and the rows
//! are independent, so the columnar kernel parallelizes over row chunks
//! while the per-row SplitMix64 streams keep the output bit-identical
//! for any thread count.
//!
//! `cargo bench -p otr-bench --bench repair_throughput` runs six legs;
//! an argument other than the `--bench` that cargo appends is a usage
//! error. Each leg asserts its determinism contract and returns
//! [`Metric`] rows (rates and ratios, higher is better). All rows go to
//! `BENCH_perf_smoke.json`; when `OTR_BENCH_BASELINE` names a floors
//! file (`ci/bench_baseline.json`, keyed `leg.name`),
//! [`otr_bench::gate`] checks each row against its floor:
//! 1. `throughput` — the columnar kernel over a 1M-row archive at auto
//!    threads, its bytes equal to a one-thread run, and the in-memory
//!    CSV → kernel → CSV chain over the same archive, its bytes equal
//!    to a run under `OTR_THREADS=1`;
//! 2. `plan_design` — the Algorithm-1 design rate at `nQ = 50`;
//! 3. `joint_repair` — `nQ = 24` ε-scaled joint design + repair
//!    through the factorized kernel under `OTR_THREADS=1` and `4`
//!    (bytes identical) and the `1`-vs-`4` ratio; also writes the
//!    design report `BENCH_joint_report.json`;
//! 4. `serve` — rows/s through a live `otrepaird` on loopback under
//!    four concurrent clients, for a scalar and a joint plan, served
//!    bytes equal to offline repair;
//! 5. `joint3` — `d = 3`, `nQ = 16`-per-axis joint design + repair
//!    through the factorized kernel, bytes identical across
//!    `OTR_THREADS ∈ {1, 2, 7}`;
//! 6. `redesign` — cold entropic design on drifted research data vs a
//!    warm re-design seeded from the stale plan's banked Sinkhorn
//!    duals, two warm re-designs identical.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use otr_bench::{gate, Metric};
use otr_core::{
    JointDesignReport, JointRepairConfig, JointRepairPlan, RepairConfig, RepairPlan, RepairPlanner,
};
use otr_data::{
    read_labelled_csv_columnar, write_labelled_csv_columnar, ColumnarDataset, Dataset,
    SimulationSpec, SplitData,
};

/// The workspace root (cargo runs bench binaries with the *package*
/// directory as cwd; reports and baselines live at the repo root).
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Best-of-`reps` wall-clock time of `f` in seconds, with the result of
/// its first run (so a leg checks the bytes it timed instead of
/// re-running for them).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut first = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        first.get_or_insert(out);
    }
    (best, first.expect("best_of needs reps >= 1"))
}

/// Exact byte image of a dataset's feature values (the determinism
/// contract is at the f64 bit level, stronger than `==`).
fn byte_image(data: &Dataset) -> Vec<u64> {
    data.points()
        .iter()
        .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
        .collect()
}

/// Run `f` under `OTR_THREADS=threads`, restoring the caller's setting
/// after.
fn with_otr_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var(otr_par::THREADS_ENV).ok();
    std::env::set_var(otr_par::THREADS_ENV, threads);
    let out = f();
    match saved {
        Some(v) => std::env::set_var(otr_par::THREADS_ENV, v),
        None => std::env::remove_var(otr_par::THREADS_ENV),
    }
    out
}

/// Joint design + repair of `split` under `OTR_THREADS=threads`: the
/// repaired bytes and the design report.
fn joint_run(
    split: &SplitData,
    cfg: JointRepairConfig,
    threads: &str,
) -> (Vec<u64>, JointDesignReport) {
    with_otr_threads(threads, || {
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        let out = plan.repair_dataset_par(&split.archive, 7).unwrap();
        (byte_image(&out), report)
    })
}

/// The `otrepair apply` chain in memory: CSV bytes in, the columnar
/// kernel, CSV bytes out.
fn csv_apply(plan: &RepairPlan, input: &[u8]) -> Vec<u8> {
    let data = read_labelled_csv_columnar(input).unwrap();
    let repaired = plan.repair_columnar_par(&data, 7).unwrap();
    let mut out = Vec::with_capacity(input.len());
    write_labelled_csv_columnar(&mut out, &repaired).unwrap();
    out
}

/// Leg 1 — archival repair throughput over a 1M-row archive: the
/// Algorithm-2 columnar kernel at auto threads (~0.1 s per sequential
/// pass: long enough that timer noise is small against the floor, short
/// enough for a smoke job), and the whole CSV-to-CSV chain around it.
fn leg_throughput() -> Vec<Metric> {
    let rows = 1_000_000;
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(1);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = ColumnarDataset::from_dataset(&spec.sample_dataset(rows, &mut rng).unwrap());
    let mut plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)
        .unwrap();

    let (secs, out) = best_of(5, || plan.repair_columnar_par(&archive, 7).unwrap());
    let mut input = Vec::new();
    write_labelled_csv_columnar(&mut input, &archive).unwrap();
    let (csv_secs, csv_out) = best_of(3, || csv_apply(&plan, &input));
    assert!(
        with_otr_threads("1", || csv_apply(&plan, &input)) == csv_out,
        "CSV apply output depends on OTR_THREADS"
    );
    plan.config.threads = 1;
    let one_thread = plan.repair_columnar_par(&archive, 7).unwrap();
    assert!(
        byte_image(&out.to_dataset()) == byte_image(&one_thread.to_dataset()),
        "columnar repair output depends on the thread count"
    );
    vec![
        Metric::new(
            "throughput",
            "columnar_rows_per_sec",
            rows as f64 / secs,
            "rows/s",
        ),
        Metric::new(
            "throughput",
            "csv_apply_rows_per_sec",
            rows as f64 / csv_secs,
            "rows/s",
        ),
    ]
}

/// Leg 2 — plan-design rate (Algorithm 1: KDE + barycentre + 4 OT
/// solves per design) at `nQ = 50` on 500 research rows.
fn leg_plan_design() -> Vec<Metric> {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(2);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let planner = RepairPlanner::new(RepairConfig::with_n_q(50));
    let (secs, _) = best_of(5, || planner.design(&research).unwrap());
    vec![Metric::new(
        "plan_design",
        "designs_per_sec",
        1.0 / secs,
        "designs/s",
    )]
}

/// Leg 3 — joint design + repair at `nQ = 24` (`nQ⁴`-cell logical
/// Sinkhorn/barycentre kernels, factorized, ε-scaled by default),
/// alternating `OTR_THREADS=1` and `4` run by run, best of 5 each, with
/// every pair of outputs asserted byte-identical. Alternating puts host
/// drift on both sides of the `1`-vs-`4` ratio rather than between two
/// blocks of runs. The ratio is recorded only on a multicore runner:
/// four threads on one core is oversubscription, and its ratio is
/// scheduler noise. Also writes the design report
/// (`BENCH_joint_report.json`): barycentre convergence per stratum plus
/// per-stage ε-schedule stats.
fn leg_joint(multicore: bool) -> Vec<Metric> {
    let cfg = JointRepairConfig {
        n_q: 24,
        threads: 0, // auto: driven through OTR_THREADS
        ..JointRepairConfig::default()
    };
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(3);
    let split = spec.generate(300, 2_000, &mut rng).unwrap();

    let (mut t1, mut t4, mut report) = (f64::INFINITY, f64::INFINITY, None);
    for _ in 0..5 {
        let (s1, (bytes1, r)) = best_of(1, || joint_run(&split, cfg, "1"));
        let (s4, (bytes4, _)) = best_of(1, || joint_run(&split, cfg, "4"));
        assert!(
            bytes1 == bytes4,
            "joint repair output depends on OTR_THREADS — determinism contract broken"
        );
        (t1, t4) = (t1.min(s1), t4.min(s4));
        report.get_or_insert(r);
    }

    let report_path = workspace_root().join("BENCH_joint_report.json");
    let report = report.expect("five runs");
    std::fs::write(&report_path, serde_json::to_string_pretty(&report).unwrap())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));

    let mut rows = vec![Metric::new(
        "joint_repair",
        "runs_per_sec",
        1.0 / t1,
        "runs/s",
    )];
    if multicore {
        rows.push(Metric::new("joint_repair", "speedup", t1 / t4, "x"));
    }
    rows
}

/// Leg 4 — repair-as-a-service throughput: a live `otrepaird` on a
/// loopback socket, a scalar and a default joint (`d = 2`, `nQ = 16`)
/// plan registered, and four concurrent clients each repairing a
/// 100k-row archive three times per plan, wall-clocked end to end
/// (framing, socket copies, decode, in-place sharded repair, encode).
/// One served response per plan is asserted byte-identical to the
/// offline columnar path first.
fn leg_serve() -> Vec<Metric> {
    use otr_serve::{Client, PlanKind, ServeConfig, Server};

    let (rows, clients, rounds) = (100_000, 4, 3);
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(4);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let archive = ColumnarDataset::from_dataset(&spec.sample_dataset(rows, &mut rng).unwrap());
    let plan = RepairPlanner::new(RepairConfig::with_n_q(50))
        .design(&research)
        .unwrap();
    let joint = JointRepairPlan::design(&research, JointRepairConfig::default()).unwrap();

    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut loader = Client::connect(&addr).unwrap();
    let plans = [
        (
            "bench",
            PlanKind::Scalar,
            plan.to_json().unwrap(),
            plan.repair_columnar_par(&archive, 7).unwrap(),
        ),
        (
            "joint",
            PlanKind::Joint,
            joint.to_json().unwrap(),
            joint.repair_columnar_par(&archive, 7).unwrap(),
        ),
    ];
    let mut secs = Vec::new();
    for (name, kind, json, offline) in &plans {
        loader.load_plan(*kind, name, 1, json).unwrap();
        let served = loader.repair(name, 1, 7, &archive).unwrap();
        let same = served
            .columns
            .iter()
            .zip(offline.feature_columns())
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(
            same,
            "served {name} repair diverged from the offline columnar path"
        );

        let (best, ()) = best_of(3, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let addr = addr.clone();
                        let archive = &archive;
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).unwrap();
                            for round in 0..rounds {
                                client
                                    .repair(name, 1, (c * rounds + round) as u64, archive)
                                    .unwrap();
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            })
        });
        secs.push(best);
    }
    handle.shutdown();
    server_thread.join().unwrap();
    let total_rows = (rows * clients * rounds) as f64;
    vec![
        Metric::new("serve", "rows_per_sec", total_rows / secs[0], "rows/s"),
        Metric::new(
            "serve",
            "joint_rows_per_sec",
            total_rows / secs[1],
            "rows/s",
        ),
    ]
}

/// Leg 5 — the `d = 3` joint workload: `nQ = 16` per axis (4096 product
/// states) through the factorized kernel; a dense kernel at this size
/// would be a 16.8M-cell / 134 MB matrix per entropic solve. The
/// `OTR_THREADS=1` run is timed, and its bytes are asserted equal to
/// runs under `OTR_THREADS ∈ {2, 7}`.
fn leg_joint3() -> Vec<Metric> {
    let cfg = JointRepairConfig {
        n_q: 16,
        threads: 0, // auto: driven through OTR_THREADS
        ..JointRepairConfig::default()
    };
    let spec = SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    };
    let mut rng = StdRng::seed_from_u64(5);
    // 400 rather than leg 3's 300: `pr_s0_given_u[1] = 0.1` leaves the
    // (u = 1, s = 0) group hovering right at `min_group_size` at 300
    // rows with this seed.
    let split = spec.generate(400, 2_000, &mut rng).unwrap();

    let (t1, (bytes1, report)) = best_of(1, || joint_run(&split, cfg, "1"));
    for threads in ["2", "7"] {
        assert!(
            joint_run(&split, cfg, threads).0 == bytes1,
            "d = 3 joint repair output depends on OTR_THREADS={threads} — \
             determinism contract broken"
        );
    }
    assert_eq!(report.dims, 3);
    vec![Metric::new("joint3", "runs_per_sec", 1.0 / t1, "runs/s")]
}

/// Leg 6 — drift-lifecycle re-design: the work `otrepaird` performs on
/// a drift trip. A previous plan is designed under the Sinkhorn backend
/// with the ε-scaling schedule (banking converged duals per stratum),
/// the research distribution is mean-shifted, and the drifted problem
/// is solved cold (`design`, full ε-schedule) and warm (`redesign`, one
/// solve at the final ε seeded from the stale plan's duals). Warm
/// re-design is a deterministic function of (config, research,
/// previous duals), so two warm runs must produce identical JSON.
fn leg_redesign() -> Vec<Metric> {
    use otr_core::SolverBackend;
    use otr_data::Drift;
    use otr_ot::EpsSchedule;

    let mut cfg = RepairConfig::with_n_q(50);
    cfg.solver = SolverBackend::sinkhorn_scaled(0.05, EpsSchedule::geometric(1.0, 0.25));
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(6);
    let research = spec.sample_dataset(500, &mut rng).unwrap();
    let planner = RepairPlanner::new(cfg);
    let previous = planner.design(&research).unwrap();
    let drifted = Drift::MeanShift(vec![0.8, -0.5]).apply(&research).unwrap();

    let (cold, _) = best_of(3, || planner.design(&drifted).unwrap());
    let (warm, warm_plan) = best_of(3, || planner.redesign(&drifted, &previous).unwrap());
    let again = planner.redesign(&drifted, &previous).unwrap();
    assert!(
        warm_plan.to_json().unwrap() == again.to_json().unwrap(),
        "warm re-design is not deterministic"
    );
    vec![
        Metric::new("redesign", "cold_designs_per_sec", 1.0 / cold, "designs/s"),
        Metric::new("redesign", "warm_speedup", cold / warm, "x"),
    ]
}

/// Run the six legs, write their rows to `BENCH_perf_smoke.json`, and —
/// when `OTR_BENCH_BASELINE` names a floors file — fail unless every
/// row meets its floor.
fn main() {
    if let Some(arg) = std::env::args().skip(1).find(|a| a != "--bench") {
        eprintln!(
            "repair_throughput: error: unknown argument `{arg}` \
             (usage: cargo bench -p otr-bench --bench repair_throughput)"
        );
        std::process::exit(1);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let multicore = cores > 1;
    let rows = [
        leg_throughput(),
        leg_plan_design(),
        leg_joint(multicore),
        leg_serve(),
        leg_joint3(),
        leg_redesign(),
    ]
    .concat();
    let out_path = workspace_root().join("BENCH_perf_smoke.json");
    std::fs::write(&out_path, serde_json::to_string_pretty(&rows).unwrap())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));

    let skipped: &[(&str, &str)] = if multicore {
        &[]
    } else {
        &[(
            "joint_repair.speedup",
            "single-core runner: 4 threads on 1 core is oversubscription, not a speedup",
        )]
    };
    let baseline = std::env::var("OTR_BENCH_BASELINE").ok();
    let floors: Option<BTreeMap<String, f64>> = baseline.as_deref().map(|path| {
        // Relative baseline paths are repo-root-relative, so the CI
        // workflow and a manual run from anywhere agree.
        let blob = std::fs::read_to_string(workspace_root().join(path))
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        serde_json::from_str(&blob).unwrap_or_else(|e| panic!("malformed baseline {path}: {e}"))
    });
    let (table, failures) = gate(&rows, floors.as_ref(), skipped);
    println!(
        "perf-smoke on {cores} cores, floors from {}:\n{table}",
        baseline
            .as_deref()
            .unwrap_or("(none: OTR_BENCH_BASELINE unset)")
    );
    if failures > 0 {
        eprintln!("perf-smoke: {failures} gate failure(s)");
        std::process::exit(1);
    }
}
