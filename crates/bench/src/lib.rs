//! # otr-bench — experiment harnesses reproducing the paper's evaluation
//!
//! One binary per table, figure and ablation:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I — repair quality on the simulated Gaussian mixture |
//! | `fig3` | Figure 3 — `E` vs research-set size `nR` |
//! | `fig4` | Figure 4 — `E` vs support resolution `nQ` |
//! | `table2` | Table II — repair quality on the Adult(-like) data |
//! | `ablation_partial` | damage/fairness trade-off along `λ` (Sec. VI) |
//! | `ablation_sinkhorn` | exact vs entropic plans (Sec. IV-A1) |
//! | `ablation_randomization` | randomized vs deterministic mass split (Sec. IV-B) |
//! | `ablation_label_noise` | oracle vs EM-estimated `ŝ` labels (Sec. IV/VI) |
//! | `ablation_monge` | randomized Kantorovich repair vs the Monge map across `nQ` (Sec. VI) |
//! | `ablation_joint` | per-feature vs joint repair of correlation-borne dependence (Sec. VI) |
//!
//! Each binary takes `[runs] [--threads <n>]` ([`ExperimentArgs`]): an
//! optional number of Monte-Carlo replicates and a worker-thread count.
//! Any other argument is a usage error before a replicate runs. Each
//! writes a JSON result file alongside the printed table (under
//! `results/`).
//!
//! This library crate hosts the shared machinery: a deterministic
//! parallel Monte-Carlo runner (built on `otr-par`'s chunked executor)
//! with per-run seeding, in-order Welford merging, and first-failure
//! diagnostics, plus paper-style table formatting, and the perf-smoke
//! gate ([`Metric`] rows checked against floors by [`gate`]) that the
//! `repair_throughput` bench runs in CI.
//!
//! ## Example
//!
//! Run a deterministic Monte-Carlo sweep: replicate `i` is always
//! seeded `base_seed + i`, so the merged statistics are independent of
//! the thread count (`0` = auto):
//!
//! ```
//! let (stats, failures) = otr_bench::run_mc_threaded(16, 42, 0, |seed| {
//!     Ok(vec![("seed_mod_3".to_string(), (seed % 3) as f64)])
//! });
//! assert_eq!(failures.count, 0);
//! assert_eq!(stats["seed_mod_3"].count(), 16);
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

use otr_stats::Welford;

/// A named collection of Monte-Carlo statistics.
pub type McStats = BTreeMap<String, Welford>;

/// Failure accounting of a Monte-Carlo sweep: how many replicates
/// errored, and what the lowest-seeded one said (so a 200-run sweep that
/// silently skipped half its replicates is diagnosable from the table
/// footer alone).
#[derive(Debug, Clone, Default)]
pub struct McFailures {
    /// Replicates that returned an error and were skipped.
    pub count: usize,
    /// Error message of the lowest-index failing replicate.
    pub first_error: Option<String>,
}

impl McFailures {
    /// Print the standard table-footer warning if any replicate failed.
    pub fn warn_if_any(&self) {
        if self.count == 0 {
            return;
        }
        match &self.first_error {
            Some(e) => eprintln!(
                "warning: {} replicates failed and were skipped (first error: {e})",
                self.count
            ),
            None => eprintln!("warning: {} replicates failed and were skipped", self.count),
        }
    }
}

/// Run `runs` Monte-Carlo replicates of `f` on `threads` workers (`0` =
/// auto: `OTR_THREADS` or available parallelism), seeding replicate `i`
/// with `base_seed + i`, and merge the per-replicate named metrics
/// exactly (Welford parallel combine, in replicate order).
///
/// `f` returns `(name, value)` pairs; replicates that return an error are
/// counted and skipped (failure injection must not kill a 200-run sweep),
/// with the first error message recorded in the returned [`McFailures`].
/// Replicate seeds — and therefore every per-replicate metric — do not
/// depend on the thread count.
pub fn run_mc_threaded<F>(
    runs: usize,
    base_seed: u64,
    threads: usize,
    f: F,
) -> (McStats, McFailures)
where
    F: Fn(u64) -> Result<Vec<(String, f64)>, Box<dyn std::error::Error>> + Sync,
{
    let indices: Vec<u64> = (0..runs as u64).collect();
    // One (stats, failures, first_error) accumulator per contiguous
    // chunk of replicates; chunk results come back in replicate order,
    // so the merge below is deterministic and the first recorded error
    // is the lowest-index failure regardless of thread count.
    let chunks = otr_par::par_chunks(&indices, threads, |_, chunk| {
        let mut local: McStats = BTreeMap::new();
        let mut failures = 0usize;
        let mut first_error: Option<String> = None;
        for &i in chunk {
            match f(base_seed + i) {
                Ok(metrics) => {
                    for (name, value) in metrics {
                        local.entry(name).or_default().push(value);
                    }
                }
                Err(e) => {
                    failures += 1;
                    if first_error.is_none() {
                        first_error = Some(format!("replicate {i} (seed {}): {e}", base_seed + i));
                    }
                }
            }
        }
        (local, failures, first_error)
    });

    let mut stats: McStats = BTreeMap::new();
    let mut failures = McFailures::default();
    for (local, count, first_error) in chunks {
        for (name, w) in local {
            stats.entry(name).or_default().merge(&w);
        }
        failures.count += count;
        if failures.first_error.is_none() {
            failures.first_error = first_error;
        }
    }
    (stats, failures)
}

/// Format `mean ± sd` with sensible precision.
pub fn fmt_pm(w: &Welford) -> String {
    format!("{:.4} ± {:.4}", w.mean(), w.sample_sd())
}

/// Render a paper-style table: rows × columns of `mean ± sd` cells pulled
/// from `stats` by key `"{row}/{col}"`. Missing cells render as `-`
/// (e.g. the geometric repair has no archive column, exactly as in the
/// paper's tables).
pub fn render_table(
    title: &str,
    row_names: &[&str],
    col_names: &[&str],
    stats: &McStats,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = 22usize;
    out.push_str(&format!("{:<28}", "Repair"));
    for c in col_names {
        out.push_str(&format!("{c:<width$}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(28 + width * col_names.len()));
    out.push('\n');
    for r in row_names {
        out.push_str(&format!("{r:<28}"));
        for c in col_names {
            let key = format!("{r}/{c}");
            match stats.get(&key) {
                Some(w) if w.count() > 0 => out.push_str(&format!("{:<width$}", fmt_pm(w))),
                _ => out.push_str(&format!("{:<width$}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Serializable snapshot of one metric.
#[derive(Debug, Serialize)]
pub struct MetricSnapshot {
    /// Metric name (`row/col` convention).
    pub name: String,
    /// Replicates aggregated.
    pub count: u64,
    /// Mean over replicates.
    pub mean: f64,
    /// Sample SD over replicates.
    pub sd: f64,
}

/// Write the full stats map as JSON under `results/<name>.json` (creating
/// the directory), with the replicate and failure counts under `extra`,
/// so the numbers are machine-readable (`ci/experiments_smoke.sh` checks
/// `extra.failures` there).
pub fn write_results(name: &str, stats: &McStats, runs: usize, failures: &McFailures) {
    let snapshots: Vec<MetricSnapshot> = stats
        .iter()
        .map(|(k, w)| MetricSnapshot {
            name: k.clone(),
            count: w.count(),
            mean: w.mean(),
            sd: w.sample_sd(),
        })
        .collect();
    #[derive(Serialize)]
    struct FileOut {
        experiment: String,
        metrics: Vec<MetricSnapshot>,
        extra: BTreeMap<String, f64>,
    }
    let out = FileOut {
        experiment: name.to_string(),
        metrics: snapshots,
        extra: BTreeMap::from([
            ("failures".into(), failures.count as f64),
            ("runs".into(), runs as f64),
        ]),
    };
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // results are advisory; never fail the experiment
    }
    if let Ok(json) = serde_json::to_string_pretty(&out) {
        if let Ok(mut file) = std::fs::File::create(dir.join(format!("{name}.json"))) {
            let _ = file.write_all(json.as_bytes());
        }
    }
}

/// The command line every experiment binary takes, `[runs] [--threads
/// <n>]`, in either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Monte-Carlo replicates (at least 1).
    pub runs: usize,
    /// Worker threads for [`run_mc_threaded`] (`0` = auto).
    pub threads: usize,
}

impl ExperimentArgs {
    /// Parse `args` (without the program name), with `default_runs`
    /// replicates and auto threads for what is absent.
    ///
    /// # Errors
    /// A message naming the first argument outside the grammar: an
    /// unknown flag, a replicate count that is not a positive integer, a
    /// second count, a repeated `--threads`, or a `--threads` without a
    /// non-negative integer after it.
    pub fn parse(args: &[String], default_runs: usize) -> Result<Self, String> {
        let (mut runs, mut threads) = (None, None);
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--threads" {
                if threads.is_some() {
                    return Err("`--threads` given twice".into());
                }
                let value = args.next().ok_or("`--threads` needs a value")?;
                let n = value
                    .parse()
                    .map_err(|_| format!("`--threads {value}` is not a thread count"))?;
                threads = Some(n);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if runs.is_some() {
                return Err(format!("unexpected argument `{arg}`"));
            } else {
                match arg.parse() {
                    Ok(n) if n > 0 => runs = Some(n),
                    _ => return Err(format!("`{arg}` is not a replicate count")),
                }
            }
        }
        Ok(Self {
            runs: runs.unwrap_or(default_runs),
            threads: threads.unwrap_or(0),
        })
    }

    /// [`Self::parse`] the process's arguments; on an error, print one
    /// usage line naming the bad argument and exit with status 1.
    pub fn from_env(default_runs: usize) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let program = Path::new(&program)
            .file_name()
            .map_or("experiment".into(), |n| n.to_string_lossy());
        let args: Vec<String> = args.collect();
        Self::parse(&args, default_runs).unwrap_or_else(|e| {
            eprintln!("{program}: error: {e} (usage: {program} [runs] [--threads <n>])");
            std::process::exit(1)
        })
    }
}

/// One measurement of the `repair_throughput` perf-smoke gate:
/// a rate or ratio, higher is better, floored in the baseline file
/// under [`Metric::key`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Metric {
    /// The leg that measured it (`throughput`, `joint_repair`, …).
    pub leg: &'static str,
    /// The metric within its leg (`rows_per_sec`, `speedup`, …).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Display unit (`rows/s`, `x`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A row of leg `leg`.
    pub fn new(leg: &'static str, name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            leg,
            name,
            value,
            unit,
        }
    }

    /// The baseline key, `leg.name`.
    pub fn key(&self) -> String {
        format!("{}.{}", self.leg, self.name)
    }
}

/// Check perf-smoke `rows` against `floors` (keyed [`Metric::key`];
/// the one rule is `value ≥ floor`) and render one table line per row
/// and per unmatched floor. A row without a floor and a floor without a
/// row both fail, except a floored key listed in `skipped` with the
/// reason its leg did not measure it. `floors = None` renders the rows
/// ungated. Returns the table and the number of failures.
pub fn gate(
    rows: &[Metric],
    floors: Option<&BTreeMap<String, f64>>,
    skipped: &[(&str, &str)],
) -> (String, usize) {
    let mut table = format!(
        "{:<36} {:>18} {:>12} {:<9} verdict\n",
        "metric", "value", "floor", "unit"
    );
    let mut failures = 0;
    let mut line = |key: &str, value: String, floor: String, unit: &str, verdict: &str| {
        failures += usize::from(verdict.starts_with("FAIL"));
        table.push_str(&format!(
            "{key:<36} {value:>18} {floor:>12} {unit:<9} {verdict}\n"
        ));
    };
    for row in rows {
        let key = row.key();
        let floor = floors.map(|f| f.get(&key).copied());
        let verdict = match floor {
            None => "ungated",
            Some(None) => "FAIL: no floor",
            Some(Some(floor)) if row.value >= floor => "ok",
            Some(Some(_)) => "FAIL: below floor",
        };
        let floor = floor.flatten().map_or("-".into(), |f| f.to_string());
        line(&key, format!("{:.4}", row.value), floor, row.unit, verdict);
    }
    let measured: Vec<String> = rows.iter().map(Metric::key).collect();
    for (key, floor) in floors.into_iter().flatten() {
        if measured.contains(key) {
            continue;
        }
        let verdict = match skipped.iter().find(|(k, _)| k == key) {
            Some((_, reason)) => format!("skipped: {reason}"),
            None => "FAIL: no row".into(),
        };
        line(key, "-".into(), floor.to_string(), "", &verdict);
    }
    (table, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_mc_aggregates_all_runs() {
        let (stats, failures) =
            run_mc_threaded(100, 0, 0, |seed| Ok(vec![("x".into(), seed as f64)]));
        assert_eq!(failures.count, 0);
        assert!(failures.first_error.is_none());
        let w = &stats["x"];
        assert_eq!(w.count(), 100);
        assert!((w.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn run_mc_counts_failures_without_dying() {
        let (stats, failures) = run_mc_threaded(50, 0, 0, |seed| {
            if seed % 5 == 0 {
                Err(format!("injected at {seed}").into())
            } else {
                Ok(vec![("ok".into(), 1.0)])
            }
        });
        assert_eq!(failures.count, 10);
        assert_eq!(stats["ok"].count(), 40);
        // The recorded message is the lowest-index failure, whatever the
        // thread count.
        let msg = failures.first_error.unwrap();
        assert!(msg.contains("injected at 0"), "got: {msg}");
    }

    #[test]
    fn run_mc_deterministic_irrespective_of_threads() {
        let mut reference: Option<McStats> = None;
        for threads in [1usize, 2, 7] {
            let (stats, failures) = run_mc_threaded(64, 7, threads, |seed| {
                Ok(vec![("v".into(), (seed * seed) as f64)])
            });
            assert_eq!(failures.count, 0);
            match &reference {
                None => reference = Some(stats),
                Some(r) => {
                    assert_eq!(stats["v"].count(), r["v"].count());
                    assert!((stats["v"].mean() - r["v"].mean()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn run_mc_first_error_is_lowest_index_for_any_thread_count() {
        for threads in [1usize, 2, 7] {
            let (_, failures) = run_mc_threaded(40, 100, threads, |seed| {
                if seed >= 117 {
                    Err(format!("boom {seed}").into())
                } else {
                    Ok(vec![("ok".into(), 1.0)])
                }
            });
            assert_eq!(failures.count, 23);
            assert!(
                failures
                    .first_error
                    .as_deref()
                    .unwrap()
                    .contains("boom 117"),
                "threads = {threads}: {:?}",
                failures.first_error
            );
        }
    }

    #[test]
    fn render_table_marks_missing_cells() {
        let mut stats = McStats::new();
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        stats.insert("A/c1".into(), w);
        let table = render_table("T", &["A", "B"], &["c1"], &stats);
        assert!(table.contains("1.5000"));
        assert!(table.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn fmt_pm_shape() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(3.0);
        assert_eq!(fmt_pm(&w), "2.0000 ± 1.4142");
    }

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ExperimentArgs::parse(&args, 200)
    }

    #[test]
    fn experiment_args_accept_an_optional_count_and_thread_flag() {
        let cases: [(&[&str], usize, usize); 6] = [
            (&[], 200, 0),
            (&["3"], 3, 0),
            (&["--threads", "2"], 200, 2),
            (&["--threads", "0"], 200, 0),
            (&["3", "--threads", "2"], 3, 2),
            (&["--threads", "2", "3"], 3, 2),
        ];
        for (args, runs, threads) in cases {
            assert_eq!(
                parse(args),
                Ok(ExperimentArgs { runs, threads }),
                "{args:?}"
            );
        }
    }

    #[test]
    fn experiment_args_name_the_argument_they_reject() {
        let cases: [(&[&str], &str); 9] = [
            (&["--runs", "3"], "`--runs`"),
            (&["2O"], "`2O`"),
            (&["3", "--thread", "1"], "`--thread`"),
            (&["3", "--threads", "two"], "`--threads two`"),
            (
                &["--threads", "1", "--threads", "2"],
                "`--threads` given twice",
            ),
            (&["3", "--threads"], "`--threads` needs a value"),
            (&["0"], "`0`"),
            (&["-3"], "`-3`"),
            (&["3", "4"], "`4`"),
        ];
        for (args, named) in cases {
            let err = parse(args).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    /// Floors recorded the way `ci/bench_baseline.json` is: 75% of a
    /// measured rate, and a fixed 2.0x ratio.
    fn floors() -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("throughput.columnar_rows_per_sec".into(), 0.75 * 5.1e6),
            ("redesign.warm_speedup".into(), 2.0),
        ])
    }

    fn rows(rate: f64, ratio: f64) -> Vec<Metric> {
        vec![
            Metric::new("throughput", "columnar_rows_per_sec", rate, "rows/s"),
            Metric::new("redesign", "warm_speedup", ratio, "x"),
        ]
    }

    #[test]
    fn gate_fails_a_2x_slowdown() {
        let (table, failures) = gate(&rows(5.1e6 / 2.0, 6.0), Some(&floors()), &[]);
        assert_eq!(failures, 1, "{table}");
        assert!(table.contains("FAIL: below floor"), "{table}");
    }

    #[test]
    fn gate_passes_rows_at_or_above_their_floor() {
        for rate in [0.75 * 5.1e6, 5.1e6] {
            let (table, failures) = gate(&rows(rate, 2.0), Some(&floors()), &[]);
            assert_eq!(failures, 0, "{table}");
        }
    }

    #[test]
    fn gate_fails_a_ratio_below_its_floor() {
        let (table, failures) = gate(&rows(5.1e6, 1.9), Some(&floors()), &[]);
        assert_eq!(failures, 1, "{table}");
        assert!(table.contains("redesign.warm_speedup"), "{table}");
    }

    #[test]
    fn gate_fails_missing_rows_and_missing_floors_unless_skipped() {
        let mut rows = rows(5.1e6, 6.0);
        let dropped = rows.pop().unwrap();
        rows.push(Metric::new("serve", "rows_per_sec", 1e7, "rows/s"));
        let (table, failures) = gate(&rows, Some(&floors()), &[]);
        assert_eq!(failures, 2, "{table}");
        assert!(table.contains("FAIL: no floor") && table.contains("FAIL: no row"));

        rows.pop();
        let key = dropped.key();
        let skip = [(key.as_str(), "single-core runner")];
        let (table, failures) = gate(&rows, Some(&floors()), &skip);
        assert_eq!(failures, 0, "{table}");
        assert!(table.contains("skipped: single-core runner"), "{table}");
    }

    #[test]
    fn ungated_rows_never_fail() {
        let (table, failures) = gate(&rows(1.0, 0.0), None, &[]);
        assert_eq!(failures, 0, "{table}");
        assert_eq!(table.matches("ungated").count(), 2, "{table}");
    }
}
