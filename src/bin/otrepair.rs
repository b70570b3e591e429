//! `otrepair` — command-line interface to the fairness-repair pipeline.
//!
//! The deployment loop the paper motivates, as three commands:
//!
//! ```text
//! # 1. design a plan on the small labelled research extract
//! otrepair design --research research.csv --out plan.json --nq 50
//!
//! # 2. repair archival torrents anywhere the plan is shipped
//! otrepair apply --plan plan.json --data archive.csv --out repaired.csv --seed 7
//!
//! # 3. audit conditional dependence before/after
//! otrepair evaluate --data archive.csv
//! otrepair evaluate --data repaired.csv
//! ```
//!
//! CSV format: header `s,u,x0,x1,…`; `s`/`u` in `{0,1}`; features finite
//! floats (see `otr_data::labelled_csv`).

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use ot_fair_repair::cli::{flags, parse, Flags};
use ot_fair_repair::prelude::*;
use ot_fair_repair::repair::RepairError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` or `-h` anywhere prints the usage, before any flag check
    // or file I/O.
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    let result = match args.first().map(String::as_str) {
        Some("serve") if help => {
            println!(
                "otrepair serve — run the otrepaird daemon\n\n{}",
                ot_fair_repair::serve::daemon::USAGE
            );
            Ok(())
        }
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        _ if help => {
            print_usage();
            Ok(())
        }
        Some("design") => cmd_design(&args[1..]),
        Some("apply") => cmd_apply(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("drift") => cmd_drift(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}` (try --help)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("otrepair: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "otrepair — optimal-transport fairness repair of archival data\n\
         \n\
         USAGE:\n\
           otrepair design   --research <csv> --out <plan.json> [--nq N] [--t T]\n\
                             [--solver exact|simplex|sinkhorn:<eps>[:scaled[:<eps0>:<factor>]]]\n\
                             [--min-group N] [--threads N] [--verbose]\n\
           otrepair design   --joint --research <csv> --out <plan.json> [--nq N] [--t T]\n\
                             [--eps E] [--eps-scaling off|on|<eps0>:<factor>]\n\
                             [--solver …] [--min-group N] [--threads N] [--verbose]\n\
           otrepair apply    --plan <plan.json> --data <csv> --out <csv>\n\
                             [--seed N] [--partial LAMBDA] [--monge] [--threads N]\n\
           otrepair apply    --joint --plan <plan.json> --data <csv> --out <csv>\n\
                             [--seed N] [--threads N]\n\
           otrepair evaluate --data <csv> [--grid N] [--joint [--joint-grid N]]\n\
           otrepair drift    --data <csv> --out <csv> [--mean-shift V1,V2,..]\n\
                             [--scale F1,F2,..] [--group-shift S:V1,V2,..]\n\
           otrepair serve    [--bind ADDR] [--plans DIR] [--threads N] [--shards N]\n\
                             [--max-conns N] [--deadline-ms N] [--port-file PATH]\n\
           otrepair client   <ping|info|plans|load|evict|repair|watch|drift|audit>\n\
                             --addr HOST:PORT [--retries N] [--timeout MS] …\n\
         \n\
         CSV format: header `s,u,x0,x1,…`; s/u in {{0,1}}; finite float features.\n\
         \n\
         JOINT (MULTI-FEATURE) DESIGN:\n\
           --joint designs one multivariate plan over the nQ^d product grid\n\
           of all d ≥ 2 features (captures correlation-borne dependence a\n\
           per-feature plan misses). --eps sets the entropic regularization;\n\
           --eps-scaling controls the annealed ε-schedule with warm-started\n\
           duals (default on: geometric 1.0 → ε with factor 0.25 — the big\n\
           joint-design speedup). The joint cost factorizes as\n\
           K₁ ⊗ … ⊗ K_d, so every entropic matvec runs as d O(nQ^d·nQ) axis\n\
           passes instead of the O(nQ^2d) dense sweep — at d ≥ 3 the dense\n\
           kernel rarely fits, so this is what makes e.g. a 3-feature nQ=16\n\
           design tractable. --verbose prints the design report: barycentre\n\
           iterations / final delta per stratum, per-stage ε schedule stats,\n\
           the kernel, plan transport costs, and wall time.\n\
           evaluate --joint adds the joint d-dimensional E on a shared\n\
           product grid of --joint-grid points per dimension (at least 8;\n\
           default 64 at d = 2, 16 above).\n\
         \n\
         PARALLELISM:\n\
           --threads 0 (default) = auto: the OTR_THREADS environment variable if\n\
           set, else all available cores. Large OT kernels (Sinkhorn scaling,\n\
           barycentre matvecs) additionally chunk internally once they reach\n\
           32768 matrix cells; smaller solves stay sequential. Repair output\n\
           is bit-identical for any thread count at a given --seed — see\n\
           docs/determinism.md.\n\
         \n\
         COLUMNAR KERNEL:\n\
           apply (with or without --partial) repairs through one columnar\n\
           (struct-of-arrays) kernel: CSV parses straight into per-feature\n\
           columns and whole column slices are quantized/gathered in\n\
           vectorizable loops; --partial then moves each value back along\n\
           the geodesic.\n\
         \n\
         SERVING:\n\
           `otrepair serve` runs the otrepaird daemon in-process (same flags;\n\
           see `otrepaird --help` and docs/operations.md — --max-conns caps\n\
           concurrent connections, --deadline-ms bounds each frame's arrival\n\
           and each response write). `otrepair client` talks to a running\n\
           daemon:\n\
             client ping|info|plans             --addr HOST:PORT\n\
             client load   --addr A --plan <json> --name N [--version V] [--joint]\n\
             client evict  --addr A --name N --version V\n\
             client repair --addr A --name N --data <csv> --out <csv>\n\
                           [--version V] [--seed N]\n\
             client watch  --addr A --name N [--threshold D] [--trips N]\n\
                           [--check-every N] [--min-rows N]\n\
             client drift  --addr A --name N\n\
             client audit  --addr A --name N\n\
           Every client action retries transient failures (connection\n\
           drops, Overloaded, DeadlineExceeded) with exponential backoff:\n\
           --retries N bounds the retries (default 3; 0 = single attempt)\n\
           and --timeout MS bounds the whole call across attempts\n\
           (default 0 = unbounded). Retrying is safe because served repair\n\
           is bit-deterministic in (plan, seed, archive).\n\
           Served repair output is byte-identical to an offline\n\
           `otrepair apply` with the same plan and --seed, whatever the\n\
           server's shard or thread policy (docs/determinism.md).\n\
         \n\
         DRIFT LIFECYCLE:\n\
           `client watch` arms a streaming drift monitor on the latest\n\
           version of a scalar plan: every subsequent served repair folds\n\
           its archive rows into per-(s,u)-stratum histograms and compares\n\
           them (symmetrized KL) against the plan's recorded research\n\
           marginals at deterministic row-count checkpoints. After --trips\n\
           consecutive over---threshold checkpoints the daemon re-designs\n\
           the plan on the observed rows (warm-started from the plan's\n\
           banked Sinkhorn duals), registers it as the next version of the\n\
           same name, persists it to --plans (when set), and books an\n\
           audit record. `client drift` shows the monitor state;\n\
           `client audit` lists past swaps. `otrepair drift` (top level)\n\
           applies a synthetic distribution shift to a CSV — the test\n\
           injector used by ci/serve_session.sh. See docs/operations.md,\n\
           \"Drift-aware lifecycle\"."
    );
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Where every usage error points.
const HELP: &str = "otrepair --help";

const DESIGN: Flags = flags(
    "--research --out --nq --t --solver --min-group --threads",
    "--verbose",
);
const DESIGN_JOINT: Flags = flags(
    "--research --out --nq --t --eps --eps-scaling --solver --min-group --threads",
    "--joint --verbose",
);
const APPLY: Flags = flags(
    "--plan --data --out --seed --partial --threads",
    "--monge --joint",
);
const EVALUATE: Flags = flags("--data --grid", "");
const EVALUATE_JOINT: Flags = flags("--data --grid --joint-grid", "--joint");
const DRIFT: Flags = flags("--data --out --mean-shift --scale --group-shift", "");
/// Every `client` action reads these on top of its own.
const CLIENT: Flags = flags("--addr --retries --timeout", "");
const CLIENT_ACTIONS: [(&str, Flags); 9] = [
    ("ping", flags("", "")),
    ("info", flags("", "")),
    ("plans", flags("", "")),
    ("load", flags("--plan --name --version", "--joint")),
    ("evict", flags("--name --version", "")),
    ("repair", flags("--name --data --out --version --seed", "")),
    (
        "watch",
        flags("--name --threshold --trips --check-every --min-rows", ""),
    ),
    ("drift", flags("--name", "")),
    ("audit", flags("--name", "")),
];

fn load_dataset(path: &str) -> Result<Dataset, Box<dyn std::error::Error>> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(ot_fair_repair::data::read_labelled_csv(BufReader::new(
        file,
    ))?)
}

fn cmd_design(args: &[String]) -> CliResult {
    if args.iter().any(|a| a == "--joint") {
        return cmd_design_joint(args);
    }
    let args = parse("design", HELP, args, &[&DESIGN])?;
    let research_path = args.required("--research")?;
    let out_path = args.required("--out")?;
    let mut config = RepairConfig::with_n_q(args.get("--nq").map_or(Ok(50), str::parse)?);
    if let Some(t) = args.get("--t") {
        config.t = t.parse()?;
    }
    if let Some(mg) = args.get("--min-group") {
        config.min_group_size = mg.parse()?;
    }
    if let Some(solver) = args.get("--solver") {
        // Backend spellings (and their validation) are owned by the OT
        // crate's unified solver seam.
        config.solver = solver.parse::<SolverBackend>()?;
    }
    if let Some(threads) = args.get("--threads") {
        config.threads = threads.parse()?;
    }

    let research = load_dataset(research_path)?;
    eprintln!(
        "designing plan on {} research points (d = {}, nQ = {}, t = {})",
        research.len(),
        research.dim(),
        config.n_q,
        config.t
    );
    let plan = RepairPlanner::new(config).design(&research)?;
    if args.has("--verbose") {
        for fp in plan.feature_plans() {
            let support = &fp.support;
            eprintln!(
                "  (u={}, k={}): support [{:.4}, {:.4}] ({} states), solver {}",
                fp.u,
                fp.k,
                support[0],
                support[support.len() - 1],
                support.len(),
                config.solver,
            );
        }
    }
    std::fs::write(out_path, plan.to_json()?)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "wrote {} feature plans to {out_path}",
        plan.feature_plans().len()
    );
    Ok(())
}

/// Parse the `--eps-scaling` spelling: `off` (cold solve), `on`
/// (default schedule), or `<eps0>:<factor>`.
fn parse_eps_scaling(spec: &str) -> Result<Option<EpsSchedule>, Box<dyn std::error::Error>> {
    match spec {
        "off" | "none" => Ok(None),
        "on" | "default" => Ok(Some(EpsSchedule::default())),
        _ => match spec.split_once(':') {
            Some((eps0, factor)) => {
                let schedule = EpsSchedule::geometric(eps0.parse()?, factor.parse()?);
                schedule.validate()?;
                Ok(Some(schedule))
            }
            None => Err(format!(
                "cannot parse --eps-scaling `{spec}` (expected `off`, `on`, or `<eps0>:<factor>`)"
            )
            .into()),
        },
    }
}

fn cmd_design_joint(args: &[String]) -> CliResult {
    let args = parse("design --joint", HELP, args, &[&DESIGN_JOINT])?;
    let research_path = args.required("--research")?;
    let out_path = args.required("--out")?;
    let mut config = JointRepairConfig::default();
    if let Some(nq) = args.get("--nq") {
        config.n_q = nq.parse()?;
    }
    if let Some(t) = args.get("--t") {
        config.t = t.parse()?;
    }
    if let Some(eps) = args.get("--eps") {
        config.epsilon = eps.parse()?;
    }
    if let Some(spec) = args.get("--eps-scaling") {
        config.eps_scaling = parse_eps_scaling(spec)?;
    }
    if let Some(mg) = args.get("--min-group") {
        config.min_group_size = mg.parse()?;
    }
    if let Some(solver) = args.get("--solver") {
        config.solver = Some(solver.parse::<SolverBackend>()?);
    }
    if let Some(threads) = args.get("--threads") {
        config.threads = threads.parse()?;
    }

    let research = load_dataset(research_path)?;
    let states = config.n_q.checked_pow(research.dim() as u32);
    eprintln!(
        "designing joint plan on {} research points (d = {}, nQ = {} per dim → {} product \
         states, eps = {}, t = {})",
        research.len(),
        research.dim(),
        config.n_q,
        states.map_or_else(|| "overflowing".into(), |n| n.to_string()),
        config.epsilon,
        config.t
    );
    let (plan, report) = JointRepairPlan::design_with_report(&research, config)?;
    if args.has("--verbose") {
        print_joint_report(&report);
    }
    std::fs::write(out_path, plan.to_json()?)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote joint plan ({} strata) to {out_path}", 2);
    Ok(())
}

/// Render a [`JointDesignReport`] for `design --joint --verbose`.
fn print_joint_report(report: &JointDesignReport) {
    eprintln!(
        "joint design report: d = {}, nQ = {}, eps = {}, solver = {}, kernel = {}, {:.2} s wall",
        report.dims, report.n_q, report.epsilon, report.solver, report.kernel, report.design_secs
    );
    match &report.eps_scaling {
        Some(s) => eprintln!(
            "  eps schedule: {} -> {} (factor {}, {} iters / tol {:.0e} per stage)",
            s.eps0,
            report.epsilon,
            s.factor,
            EpsSchedule::STAGE_ITERS,
            EpsSchedule::STAGE_TOL
        ),
        None => eprintln!(
            "  eps schedule: off (cold solve at eps = {})",
            report.epsilon
        ),
    }
    for stratum in &report.strata {
        // With ε-scaling off the "per-stage" breakdown is the whole
        // solve; say so instead of echoing a one-entry stage list.
        let stages = if report.eps_scaling.is_none() {
            "single stage (eps-scaling off)".to_string()
        } else {
            stratum
                .barycentre_stages
                .iter()
                .map(|s| format!("{}:{}", s.eps, s.iterations))
                .collect::<Vec<String>>()
                .join(", ")
        };
        eprintln!(
            "  u={}: barycentre {} iters (final delta {:.2e}; per-stage eps:iters {})",
            stratum.u, stratum.barycentre_iterations, stratum.barycentre_final_delta, stages
        );
        eprintln!(
            "       plan transport cost: s=0 {:.4}, s=1 {:.4}",
            stratum.plan_transport_cost[0], stratum.plan_transport_cost[1]
        );
    }
}

fn cmd_apply(args: &[String]) -> CliResult {
    let args = parse("apply", HELP, args, &[&APPLY])?;
    let plan_path = args.required("--plan")?;
    let data_path = args.required("--data")?;
    let out_path = args.required("--out")?;
    let seed: u64 = args.get("--seed").map_or(Ok(0), str::parse)?;
    let partial: Option<f64> = args.get("--partial").map(str::parse).transpose()?;
    let use_monge = args.has("--monge");
    let joint = args.has("--joint");
    // Mode conflicts are usage errors: reject them before any file I/O.
    if joint && (partial.is_some() || use_monge) {
        return Err("--joint supports neither --partial nor --monge".into());
    }
    if use_monge && partial.is_some() {
        return Err("--partial and --monge are mutually exclusive".into());
    }

    // Both plan kinds parse before the archive is opened.
    let blob =
        std::fs::read_to_string(plan_path).map_err(|e| format!("cannot read {plan_path}: {e}"))?;
    type Repair = Box<dyn Fn(&ColumnarDataset) -> Result<ColumnarDataset, RepairError>>;
    let repair: Repair;
    let how = if joint {
        let mut plan = JointRepairPlan::from_json(&blob)?;
        if let Some(threads) = args.get("--threads") {
            plan.set_threads(threads.parse()?);
        }
        let how = format!(
            "jointly through {plan_path} (d = {}, nQ = {} per dim)",
            plan.dims(),
            plan.n_q()
        );
        repair = Box::new(move |data| plan.repair_columnar_par(data, seed));
        how
    } else {
        let mut plan = RepairPlan::from_json(&blob)?;
        if let Some(threads) = args.get("--threads") {
            // Deployment-side override of the design-time thread count;
            // the repaired bytes depend only on --seed, never on this.
            plan.config.threads = threads.parse()?;
        }
        let mode = match plan.config.mass_split {
            _ if use_monge => "Monge",
            MassSplit::Randomized => "randomized",
            MassSplit::Deterministic => "deterministic",
        };
        let lambda = partial.map_or(String::new(), |l| format!(", partial λ = {l}"));
        // Algorithm 2's columnar kernel, then the partial-repair geodesic
        // if asked, or the Monge limit cell by cell.
        repair = Box::new(move |data| match (use_monge, partial) {
            (true, _) => MongeRepair::from_plan(&plan).repair_columnar(data),
            (false, Some(lambda)) => plan.repair_columnar_partial(data, lambda, seed),
            (false, None) => plan.repair_columnar_par(data, seed),
        });
        format!("through {plan_path} ({mode} mode{lambda})")
    };

    // Ingest straight into columns, repair, stream back out.
    let file = File::open(data_path).map_err(|e| format!("cannot open {data_path}: {e}"))?;
    let data = ot_fair_repair::data::read_labelled_csv_columnar(BufReader::new(file))?;
    eprintln!("repairing {} points {how}", data.len());
    let repaired = repair(&data)?;
    let out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    ot_fair_repair::data::write_labelled_csv_columnar(BufWriter::new(out), &repaired)?;
    let damage = dataset_damage_columnar(&data, &repaired)?;
    eprintln!(
        "wrote {out_path}; mean RMSE displacement {:.4}",
        damage.mean_rmse()
    );
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> CliResult {
    let args = if args.iter().any(|a| a == "--joint") {
        parse("evaluate --joint", HELP, args, &[&EVALUATE_JOINT])?
    } else {
        parse("evaluate", HELP, args, &[&EVALUATE])?
    };
    let data_path = args.required("--data")?;
    let data = load_dataset(data_path)?;
    let mut cd = ConditionalDependence::default();
    if let Some(g) = args.get("--grid") {
        cd.grid_size = g.parse()?;
    }
    let report = cd.evaluate(&data)?;
    println!("dataset: {} points, d = {}", data.len(), data.dim());
    println!("Pr[u=1] = {:.4}", data.prob_u1());
    for u in 0..2u8 {
        println!("Pr[s=0 | u={u}] = {:.4}", data.prob_s0_given_u(u));
    }
    println!("\nconditional s|u-dependence (symmetrized KLD, lower = fairer):");
    for (k, e) in report.e_per_feature.iter().enumerate() {
        println!(
            "  E_x{k} = {e:.6}   (E_u0 = {:.6}, E_u1 = {:.6})",
            report.e_uk[0][k], report.e_uk[1][k]
        );
    }
    println!("  aggregate E = {:.6}", report.aggregate());
    if args.has("--joint") {
        let mut jd = JointDependence::default();
        if let Some(g) = args.get("--joint-grid") {
            jd.grid_size = g.parse()?;
        } else if data.dim() > 2 {
            // The shared product grid has grid_size^d cells; the 2-D
            // default of 64 would be 262k+ cells at d = 3. Shrink it so
            // `evaluate --joint` stays interactive on wide data.
            jd.grid_size = 16;
        }
        let joint = jd.evaluate(&data)?;
        println!("  joint {}-D E = {joint:.6}", data.dim());
    }
    Ok(())
}

/// Parse a comma-separated float list (`0.5,-0.5`).
fn parse_floats(spec: &str) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    spec.split(',')
        .map(|v| {
            v.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad float `{v}`: {e}").into())
        })
        .collect()
}

/// `otrepair drift`: apply a synthetic distribution shift to a CSV —
/// the injector ci/serve_session.sh uses to exercise the drift-aware
/// plan lifecycle end to end.
fn cmd_drift(args: &[String]) -> CliResult {
    let args = parse("drift", HELP, args, &[&DRIFT])?;
    let data_path = args.required("--data")?;
    let out_path = args.required("--out")?;
    let drift = match (
        args.get("--mean-shift"),
        args.get("--scale"),
        args.get("--group-shift"),
    ) {
        (Some(spec), None, None) => Drift::MeanShift(parse_floats(spec)?),
        (None, Some(spec), None) => {
            let factors = parse_floats(spec)?;
            Drift::VarianceScale {
                centre: vec![0.0; factors.len()],
                factors,
            }
        }
        (None, None, Some(spec)) => {
            let (s, shift) = spec
                .split_once(':')
                .ok_or("--group-shift expects `S:V1,V2,..` (e.g. 0:2.0,2.0)")?;
            Drift::GroupShift {
                s: s.trim().parse()?,
                shift: parse_floats(shift)?,
            }
        }
        (None, None, None) => {
            return Err("pick a drift: --mean-shift, --scale, or --group-shift".into())
        }
        _ => return Err("--mean-shift, --scale, and --group-shift are mutually exclusive".into()),
    };
    let data = load_dataset(data_path)?;
    let drifted = drift.apply(&data)?;
    let out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    ot_fair_repair::data::write_labelled_csv(BufWriter::new(out), &drifted)?;
    eprintln!("wrote {} drifted rows to {out_path}", drifted.len());
    Ok(())
}

/// `otrepair serve`: the otrepaird daemon, in-process (identical flags).
fn cmd_serve(args: &[String]) -> CliResult {
    use ot_fair_repair::serve::daemon;
    daemon::run(&ot_fair_repair::cli::daemon_args("serve", HELP, args)?)?;
    Ok(())
}

/// `otrepair client <action>`: one scripted round trip per invocation,
/// through the retrying client (transient failures — connection drops,
/// `Overloaded`, `DeadlineExceeded` — are retried with exponential
/// backoff; permanent errors fail immediately).
fn cmd_client(args: &[String]) -> CliResult {
    use ot_fair_repair::serve::{PlanKind, RetryPolicy, RetryingClient};
    use std::time::Duration;

    let action = args.first().map(String::as_str).ok_or(
        "client needs an action: ping | info | plans | load | evict | repair | watch | drift | audit",
    )?;
    let Some((_, flags)) = CLIENT_ACTIONS.iter().find(|(name, _)| *name == action) else {
        return Err(format!(
            "unknown client action `{action}` (expected ping | info | plans | load | evict | \
             repair | watch | drift | audit)"
        )
        .into());
    };
    let rest = parse(
        &format!("client {action}"),
        HELP,
        &args[1..],
        &[&CLIENT, flags],
    )?;
    let addr = rest.get("--addr").unwrap_or("127.0.0.1:7878");
    let mut policy = RetryPolicy::default();
    if let Some(retries) = rest.get("--retries") {
        policy.retries = retries.parse()?;
    }
    let timeout_ms: u64 = rest.get("--timeout").map_or(Ok(0), str::parse)?;
    if timeout_ms > 0 {
        policy.call_deadline = Some(Duration::from_millis(timeout_ms));
    }
    let client = RetryingClient::new(addr, policy);
    match action {
        "ping" => {
            client
                .call(|c| c.ping())
                .map_err(|e| format!("cannot reach {addr}: {e}"))?;
            println!("pong from {addr}");
        }
        "info" => {
            let info = client.call(|c| c.info())?;
            println!(
                "otrepaird at {addr}: protocol v{}, {} plans, {} requests handled, \
                 {} rows repaired, {} shards x {} threads",
                info.protocol_version,
                info.plans,
                info.requests,
                info.rows_repaired,
                info.shards,
                info.threads
            );
            println!(
                "  lifetime: {} conns accepted, {} rejected overloaded (cap {}), \
                 {} deadline kills, {} panics caught",
                info.accepted,
                info.rejected_overload,
                if info.max_conns == 0 {
                    "off".into()
                } else {
                    info.max_conns.to_string()
                },
                info.deadline_kills,
                info.panics_caught
            );
            println!(
                "  lifecycle: {} drift watch(es) armed, {} hot swap(s) performed",
                info.watches, info.swaps
            );
        }
        "plans" => {
            let plans = client.call(|c| c.list_plans())?;
            if plans.is_empty() {
                println!("no plans registered");
            }
            for p in plans {
                println!(
                    "{}@{}  {}  dim={}  nQ={}",
                    p.name, p.version, p.kind, p.dim, p.n_q
                );
            }
        }
        "load" => {
            let plan_path = rest.required("--plan")?;
            let name = rest.required("--name")?;
            let version: u32 = rest.get("--version").map_or(Ok(1), str::parse)?;
            let kind = if rest.has("--joint") {
                PlanKind::Joint
            } else {
                PlanKind::Scalar
            };
            let json = std::fs::read_to_string(plan_path)
                .map_err(|e| format!("cannot read {plan_path}: {e}"))?;
            client.load_plan(kind, name, version, &json)?;
            println!("loaded {name}@{version} ({kind})");
        }
        "evict" => {
            let name = rest.required("--name")?;
            let version: u32 = rest.required("--version")?.parse()?;
            client.call(|c| c.evict_plan(name, version))?;
            println!("evicted {name}@{version}");
        }
        "watch" => {
            let name = rest.required("--name")?;
            let mut config = DriftConfig::default();
            if let Some(v) = rest.get("--threshold") {
                config.threshold = v.parse()?;
            }
            if let Some(v) = rest.get("--trips") {
                config.trips = v.parse()?;
            }
            if let Some(v) = rest.get("--check-every") {
                config.check_every = v.parse()?;
            }
            if let Some(v) = rest.get("--min-rows") {
                config.min_rows = v.parse()?;
            }
            let version = client.call(|c| c.watch(name, &config))?;
            println!(
                "watching {name}@{version}: threshold {} sym-KL, {} trip(s), checkpoint every {} rows after {}",
                config.threshold, config.trips, config.check_every, config.min_rows
            );
        }
        "drift" => {
            let name = rest.required("--name")?;
            let report = client.call(|c| c.drift_status(name))?;
            println!(
                "{name}@{}: {} rows seen, {} checkpoints, streak {}, {} swap(s), tripped: {}",
                report.version,
                report.rows_seen,
                report.checks,
                report.consecutive,
                report.swaps,
                report.tripped
            );
            for st in &report.strata {
                println!(
                    "  (u={}, x{}): sym-KL s=0 {:.4}, s=1 {:.4}",
                    st.u, st.k, st.divergence[0], st.divergence[1]
                );
            }
        }
        "audit" => {
            let name = rest.required("--name")?;
            let records = client.call(|c| c.audit(name))?;
            if records.is_empty() {
                println!("no hot swaps recorded for {name}");
            }
            for rec in records {
                println!(
                    "{name}@{} <- {name}@{}: tripped at sym-KL {:.4} over {} observed rows",
                    rec.version, rec.parent, rec.trigger_divergence, rec.rows_observed
                );
                for st in &rec.strata {
                    println!(
                        "  (u={}, x{}): group divergence E {:.4} -> {:.4}",
                        st.u, st.k, st.e_before, st.e_after
                    );
                }
            }
        }
        "repair" => {
            let name = rest.required("--name")?;
            let data_path = rest.required("--data")?;
            let out_path = rest.required("--out")?;
            let version: u32 = rest.get("--version").map_or(Ok(0), str::parse)?;
            let seed: u64 = rest.get("--seed").map_or(Ok(0), str::parse)?;
            let file =
                File::open(data_path).map_err(|e| format!("cannot open {data_path}: {e}"))?;
            let archive = ot_fair_repair::data::read_labelled_csv_columnar(BufReader::new(file))?;
            eprintln!(
                "repairing {} rows via {name}@{} at {addr} (seed {seed})",
                archive.len(),
                if version == 0 {
                    "latest".into()
                } else {
                    version.to_string()
                }
            );
            let repaired = client.call(|c| c.repair_archive(name, version, seed, &archive))?;
            let out =
                File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
            ot_fair_repair::data::write_labelled_csv_columnar(BufWriter::new(out), &repaired)?;
            let damage = dataset_damage_columnar(&archive, &repaired)?;
            eprintln!(
                "wrote {out_path}; mean RMSE displacement {:.4}",
                damage.mean_rmse()
            );
        }
        _ => unreachable!("`{action}` is checked against CLIENT_ACTIONS"),
    }
    Ok(())
}
