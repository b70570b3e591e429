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

use ot_fair_repair::cli::{self, parse, render, Command, Opts};
use ot_fair_repair::data::{
    read_labelled_csv, read_labelled_csv_columnar, write_labelled_csv, write_labelled_csv_columnar,
};
use ot_fair_repair::prelude::*;
use ot_fair_repair::serve::{daemon, RegisteredPlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` or `-h` anywhere prints the usage, before any flag check
    // or file I/O.
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    let result = match cli::select(&args) {
        Ok(cmd) if help => {
            let usage = format!("otrepair {}", cmd.name);
            print!("USAGE:\n{}", render(&usage, &cmd.tables(), true));
            Ok(())
        }
        _ if help || args.first().is_none_or(|a| a == "help") => {
            print_overview();
            Ok(())
        }
        Ok(cmd) => run(cmd, &args),
        Err(e) => Err(e.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("otrepair: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the flag tables cannot say, each pointing where it is written.
const TOPICS: &str = "\
`otrepair <command> --help` lists a command's flags.
CSV: header `s,u,x0,x1,…`; s and u in {0,1}; finite float features.
JOINT: the factorized joint kernel: README.md, \"Quickstart\".
PARALLELISM: no output byte depends on --threads or OTR_THREADS, and large
  kernels chunk internally: docs/performance.md, docs/determinism.md.
COLUMNAR KERNEL: how apply repairs columns: docs/performance.md.
SERVING: running otrepaird and its clients: docs/operations.md; the wire
  format: docs/protocol.md.
DRIFT LIFECYCLE: watch, re-design, hot swap and audit: docs/operations.md,
  \"Drift-aware lifecycle\".";

/// `otrepair --help`: the synopsis of every command and client action.
fn print_overview() {
    println!("otrepair — optimal-transport fairness repair of archival data\n\nUSAGE:");
    for cmd in cli::COMMANDS.iter().chain(&cli::CLIENT_ACTIONS) {
        let usage = format!("otrepair {}", cmd.name);
        print!("{}", render(&usage, &cmd.tables(), false));
    }
    println!("\n{TOPICS}");
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Parse the flags after `cmd`'s name and run it.
fn run(cmd: &Command, args: &[String]) -> CliResult {
    let help = format!("otrepair {} --help", cmd.name);
    let args = &args[cmd.name.split(' ').count()..];
    if cmd.name == "serve" {
        // `otrepair serve`: the otrepaird daemon, in-process.
        let args = cli::daemon_args("serve", &help, args)?;
        return Ok(daemon::run_with_handle(&args, |_| {})?);
    }
    let opts = parse(cmd.name, &help, args, &cmd.tables())?;
    match cmd.name {
        "design" if opts.has("--joint") => cmd_design_joint(&opts),
        "design" => cmd_design(&opts),
        "apply" => cmd_apply(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "drift" => cmd_drift(&opts),
        action => cmd_client(&action["client ".len()..], &opts),
    }
}

fn load_dataset(path: &str) -> Result<Dataset, Box<dyn std::error::Error>> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(read_labelled_csv(BufReader::new(file))?)
}

fn cmd_design(args: &Opts) -> CliResult {
    let (research_path, out_path) = (&args["--research"], &args["--out"]);
    let mut config = RepairConfig::with_n_q(args.value_or("--nq", 50)?);
    config.t = args.value_or("--t", config.t)?;
    config.min_group_size = args.value_or("--min-group", config.min_group_size)?;
    // Backend spellings (and their validation) are owned by the OT
    // crate's unified solver seam.
    config.solver = args.value_or("--solver", config.solver)?;
    config.threads = args.value_or("--threads", config.threads)?;

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
        "off" => Ok(None),
        "on" => Ok(Some(EpsSchedule::default())),
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

fn cmd_design_joint(args: &Opts) -> CliResult {
    let (research_path, out_path) = (&args["--research"], &args["--out"]);
    let mut config = JointRepairConfig::default();
    config.n_q = args.value_or("--nq", config.n_q)?;
    config.t = args.value_or("--t", config.t)?;
    config.epsilon = args.value_or("--eps", config.epsilon)?;
    if let Some(spec) = args.get("--eps-scaling") {
        config.eps_scaling = parse_eps_scaling(spec)?;
    }
    config.min_group_size = args.value_or("--min-group", config.min_group_size)?;
    config.solver = args.get("--solver").map(str::parse).transpose()?;
    config.threads = args.value_or("--threads", config.threads)?;

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

fn cmd_apply(args: &Opts) -> CliResult {
    let (plan_path, data_path, out_path) = (&args["--plan"], &args["--data"], &args["--out"]);
    let seed: u64 = args.value_or("--seed", 0)?;
    let partial: Option<f64> = args.get("--partial").map(str::parse).transpose()?;
    let use_monge = args.has("--monge");
    // Mode conflicts are usage errors: reject them before any file I/O.
    if use_monge && partial.is_some() {
        return Err("--partial and --monge are mutually exclusive".into());
    }

    // The plan, of the kind its artifact says, loads before the archive
    // is opened.
    let blob =
        std::fs::read_to_string(plan_path).map_err(|e| format!("cannot read {plan_path}: {e}"))?;
    let mut plan = RegisteredPlan::from_json(&blob)?;
    if let Some(threads) = args.get("--threads") {
        // Deployment-side override of the design-time thread count;
        // the repaired bytes depend only on --seed, never on this.
        plan.set_threads(threads.parse()?);
    }
    match plan {
        RegisteredPlan::Joint(_) if use_monge || partial.is_some() => {
            Err("a joint plan supports neither --partial nor --monge".into())
        }
        RegisteredPlan::Joint(plan) => {
            let (d, n_q) = (plan.dims(), plan.n_q());
            let how = format!("points jointly through {plan_path} (d = {d}, nQ = {n_q} per dim)");
            repair_csv(data_path, out_path, &how, |data| {
                plan.repair_columnar_par(data, seed)
            })
        }
        RegisteredPlan::Scalar(plan) => {
            let mode = match plan.config.mass_split {
                _ if use_monge => "Monge",
                MassSplit::Randomized => "randomized",
                MassSplit::Deterministic => "deterministic",
            };
            let lambda = partial.map_or(String::new(), |l| format!(", partial λ = {l}"));
            let how = format!("points through {plan_path} ({mode} mode{lambda})");
            // Algorithm 2's columnar kernel, then the partial-repair
            // geodesic if asked, or the Monge limit cell by cell.
            repair_csv(data_path, out_path, &how, |data| {
                match (use_monge, partial) {
                    (true, _) => MongeRepair::from_plan(&plan).repair_columnar(data),
                    (false, Some(lambda)) => plan.repair_columnar_partial(data, lambda, seed),
                    (false, None) => plan.repair_columnar_par(data, seed),
                }
            })
        }
    }
}

/// Read the labelled CSV at `data_path` straight into columns, announce
/// `repairing <rows> <how>`, repair it, stream the result out to
/// `out_path`, and report the mean displacement.
fn repair_csv<E: std::error::Error + 'static>(
    data_path: &str,
    out_path: &str,
    how: &str,
    repair: impl FnOnce(&ColumnarDataset) -> Result<ColumnarDataset, E>,
) -> CliResult {
    let file = File::open(data_path).map_err(|e| format!("cannot open {data_path}: {e}"))?;
    let data = read_labelled_csv_columnar(BufReader::new(file))?;
    eprintln!("repairing {} {how}", data.len());
    let repaired = repair(&data)?;
    let out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    write_labelled_csv_columnar(BufWriter::new(out), &repaired)?;
    let damage = dataset_damage_columnar(&data, &repaired)?;
    eprintln!(
        "wrote {out_path}; mean RMSE displacement {:.4}",
        damage.mean_rmse()
    );
    Ok(())
}

fn cmd_evaluate(args: &Opts) -> CliResult {
    let data = load_dataset(&args["--data"])?;
    let mut cd = ConditionalDependence::default();
    cd.grid_size = args.value_or("--grid", cd.grid_size)?;
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
        // The shared product grid has grid_size^d cells; the 2-D default
        // of 64 would be 262k+ cells at d = 3. Shrink it so `evaluate
        // --joint` stays interactive on wide data.
        let default = if data.dim() > 2 { 16 } else { jd.grid_size };
        jd.grid_size = args.value_or("--joint-grid", default)?;
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
fn cmd_drift(args: &Opts) -> CliResult {
    let (data_path, out_path) = (&args["--data"], &args["--out"]);
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
    write_labelled_csv(BufWriter::new(out), &drifted)?;
    eprintln!("wrote {} drifted rows to {out_path}", drifted.len());
    Ok(())
}

/// `otrepair client <action>`: one scripted round trip per invocation,
/// through the retrying client (transient failures — connection drops,
/// `Overloaded`, `DeadlineExceeded` — are retried with exponential
/// backoff; permanent errors fail immediately).
fn cmd_client(action: &str, rest: &Opts) -> CliResult {
    use ot_fair_repair::serve::{artifact_kind, RetryPolicy, RetryingClient};
    use std::time::Duration;

    let addr = rest.get("--addr").unwrap_or("127.0.0.1:7878");
    let mut policy = RetryPolicy::default();
    policy.retries = rest.value_or("--retries", policy.retries)?;
    let timeout_ms: u64 = rest.value_or("--timeout", 0)?;
    policy.call_deadline = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
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
            let (plan_path, name) = (&rest["--plan"], &rest["--name"]);
            let version: u32 = rest.value_or("--version", 1)?;
            let json = std::fs::read_to_string(plan_path)
                .map_err(|e| format!("cannot read {plan_path}: {e}"))?;
            let kind = artifact_kind(&json);
            client.load_plan(kind, name, version, &json)?;
            println!("loaded {name}@{version} ({kind})");
        }
        "evict" => {
            let name = &rest["--name"];
            let version: u32 = rest["--version"].parse()?;
            client.call(|c| c.evict_plan(name, version))?;
            println!("evicted {name}@{version}");
        }
        "watch" => {
            let name = &rest["--name"];
            let mut config = DriftConfig::default();
            config.threshold = rest.value_or("--threshold", config.threshold)?;
            config.trips = rest.value_or("--trips", config.trips)?;
            config.check_every = rest.value_or("--check-every", config.check_every)?;
            config.min_rows = rest.value_or("--min-rows", config.min_rows)?;
            let version = client.call(|c| c.watch(name, &config))?;
            println!(
                "watching {name}@{version}: threshold {} sym-KL, {} trip(s), checkpoint every {} rows after {}",
                config.threshold, config.trips, config.check_every, config.min_rows
            );
        }
        "drift" => {
            let name = &rest["--name"];
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
            let name = &rest["--name"];
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
            let (name, data_path, out_path) = (&rest["--name"], &rest["--data"], &rest["--out"]);
            let version: u32 = rest.value_or("--version", 0)?;
            let seed: u64 = rest.value_or("--seed", 0)?;
            let at = match version {
                0 => "latest".to_string(),
                v => v.to_string(),
            };
            let how = format!("rows via {name}@{at} at {addr} (seed {seed})");
            repair_csv(data_path, out_path, &how, |archive| {
                client.call(|c| c.repair_archive(name, version, seed, archive))
            })?;
        }
        _ => unreachable!("`{action}` is checked against cli::CLIENT_ACTIONS"),
    }
    Ok(())
}
