//! End-to-end and per-layer benchmark of the ot-fair-repair workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-archive|joint-design|serve-drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `SimulationSpec` with the
//! given seed, sets up several times (reporting the median set-up
//! time), measures for `--seconds`, and checks its outputs. The last
//! line of standard output is one JSON object: with `--trace 0` it
//! carries the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run, which also replays stages of the real calls
//! and checks that the replays reproduce them bit for bit. The lines
//! before it are for people: the host fingerprint, every check, and the
//! workload's metrics under the names the paper's flows use.
//!
//! Every workload reports the same end-to-end metrics; what each one
//! times depends on the workload:
//!
//! | metric | offline-archive | joint-design | serve-drift |
//! |---|---|---|---|
//! | `setup_s` | inputs and CSVs written, plan designed | inputs generated | inputs, plans, daemon loaded and watching |
//! | `design_s` | scalar design, nQ = 50, exact | d = 3 joint design | watched plan's design, `sinkhorn:0.05:scaled` |
//! | `apply_rows_per_s` | `otrepair apply` chain, CSV in to CSV out | joint repair of the archive | bulk stream over loopback |
//! | `batch_p50_ms` | one in-memory stream batch | one joint-repair batch | one watched request, from its due time |
//!
//! `setup_s` is the median of several set-ups, `design_s` the median
//! over designs of several research samples, and `peak_rss_mb` the
//! process's `VmHWM`. The tails (95th percentile, and the serve-drift
//! run's 99th) are printed by name only: on a two-core host shared with
//! other work the watched stream's tails spread between runs by up to
//! 0.28 (95th) and 0.85 (99th) of their median, too widely to hold a
//! bound.
//! `evaluate_rows_per_s` (offline: CSV in to per-feature `E`; joint:
//! joint `E` of archive chunks; serve: per-feature `E` of archive
//! chunks) is printed by name only, for the same reason: on serve-drift
//! it spread by a third between runs.

mod common;
mod joint;
mod offline;
mod replay;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Ctx, Outcome};

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("design_s", "s"),
    ("apply_rows_per_s", "rows/s"),
    ("batch_p50_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`: busy time
/// in calls into each crate, one work count per crate, and CPU use.
const PER_LAYER: [(&str, &str); 13] = [
    ("data.self_s", "s"),
    ("stats.self_s", "s"),
    ("ot.self_s", "s"),
    ("core.self_s", "s"),
    ("fairness.self_s", "s"),
    ("serve.self_s", "s"),
    ("data.rows", "count"),
    ("stats.kde_cells", "count"),
    ("ot.plan_solves", "count"),
    ("core.rows_repaired", "count"),
    ("fairness.kde_evals", "count"),
    ("serve.wire_bytes", "count"),
    ("par.cpu_util", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx, &mut Outcome) -> Result<(), String> = match args.workload.as_str() {
        "offline-archive" => offline::run,
        "joint-design" => joint::run,
        "serve-drift" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", common::host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (ctx, _tmp) = match Ctx::new(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut out = Outcome::default();
    let result = run(&ctx, &mut out);
    if let Err(e) = &result {
        println!("error: {e}");
        out.attempted += 1;
        out.failed += 1;
    }
    out.metrics
        .insert("peak_rss_mb", common::peak_rss_mb().unwrap_or(f64::NAN));

    for (name, ok) in &out.checks {
        println!("check {:<48} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    for (name, unit) in [("setup_s", "s"), ("peak_rss_mb", "MiB")] {
        let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("metric {name:<28} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &out.named {
        println!("metric {name:<28} {value:>16.6} {unit}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric {:<28} {:>16.6} fraction", "error_rate", error_rate);

    let mut reported: Vec<(&str, f64, &str)> = Vec::new();
    if ctx.tracer.enabled() {
        print_layer_table(&ctx, &out);
        let selfs = ctx.tracer.self_secs();
        let counts = ctx.tracer.counts();
        for (name, unit) in PER_LAYER {
            let value = if let Some(layer) = name.strip_suffix(".self_s") {
                selfs.get(layer).copied().unwrap_or(0.0)
            } else if name == "par.cpu_util" {
                ctx.tracer.cpu_util()
            } else {
                counts.get(name).copied().unwrap_or(0) as f64
            };
            reported.push((name, value, unit));
        }
        if let Err(e) = ctx.write_spans() {
            println!("error: cannot write the span log: {e}");
        }
    } else {
        for (name, unit) in END_TO_END {
            reported.push((
                name,
                out.metrics.get(name).copied().unwrap_or(f64::NAN),
                unit,
            ));
        }
    }
    let missing = reported.iter().any(|(_, v, _)| !v.is_finite());
    let correct = result.is_ok() && out.failed == 0 && !missing;
    let body: Vec<String> = reported
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A JSON number with all its digits (`null` for non-finite values).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_layer_table(ctx: &Ctx, out: &Outcome) {
    println!("traced run: per-layer self time (calls from the benchmark into each crate)");
    for (layer, secs) in ctx.tracer.self_secs() {
        println!("  layer {layer:<10} self {secs:>12.6} s");
    }
    println!(
        "traced run: phases (wall vs sum of the layer spans opened on the phase's own thread; \
         the gap is unattributed)"
    );
    for (phase, wall, staged) in ctx.tracer.phase_table() {
        println!(
            "  phase {phase:<16} wall {wall:>10.6} s  stages {staged:>10.6} s  unattributed {:>10.6} s",
            wall - staged
        );
    }
    println!("traced run: stages (seconds in spans, span count) and counters");
    for (name, (secs, n)) in ctx.tracer.stage_totals() {
        println!("  {:<32} {secs:>18.6} s  ({n} spans)", format!("{name}_s"));
    }
    for (phase, util) in ctx.tracer.phase_cpu_util() {
        println!(
            "  {:<32} {util:>18.6} fraction",
            format!("par.cpu_util.{phase}")
        );
    }
    for (name, value, unit) in &out.layer {
        println!("  {name:<32} {value:>18.6} {unit}");
    }
    for (name, value) in ctx.tracer.counts() {
        println!("  {name:<32} {value:>18} count");
    }
    for (name, traced, untraced) in &out.overhead {
        println!(
            "traced run: overhead on {name}: traced {traced:.6} vs untraced {untraced:.6} ({:+.2}%)",
            (traced - untraced) / untraced * 100.0
        );
    }
}
