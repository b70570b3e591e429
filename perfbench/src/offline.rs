//! `offline-archive`: the paper's main flow. A small research CSV, a
//! scalar plan (nQ = 50, exact solver), then a large archive CSV.
//!
//! Each round of the measured window opens with a fresh set-up (so
//! set-up time is sampled across the window like every other phase)
//! and then runs four phases: `apply` (the `otrepair apply` chain on
//! real files), `stream` (in-memory `repair_columnar_par` over
//! fixed-size batches of the same archive,
//! the sequential application to a torrent of data), `evaluate` (the
//! `otrepair evaluate` chain on one fixed-size chunk of the repaired
//! output; evaluate costs far more per row than repair, so chunks keep
//! the phase in budget) and `design` (Algorithm 1 on each of a fixed set
//! of research samples, once per round, so every sample counts equally
//! however many rounds fit). Rounds repeat until `--seconds` is spent,
//! so a burst of host noise lands on every phase alike, and each metric
//! is a median over the rounds.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use otr_core::{dataset_damage_columnar, RepairConfig, RepairPlan, RepairPlanner};
use otr_data::{
    read_labelled_csv, read_labelled_csv_columnar, write_labelled_csv, write_labelled_csv_columnar,
    ColumnarDataset, Dataset, SimulationSpec,
};
use otr_serve::RegisteredPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    self, evaluate_e, median, quantile, Ctx, EMetric, Outcome, EVALUATE_CHUNKS, EVALUATE_ROWS,
};
use crate::replay;

const RESEARCH_ROWS: usize = 1_000;
const ARCHIVE_ROWS: usize = 200_000;
const BATCH_ROWS: usize = 50_000;
/// Stream passes over the archive per round: enough batches per run
/// that at least ten lie beyond the 99th percentile.
const STREAM_PASSES: usize = 10;
/// Research samples the design phase designs, each once per round.
const DESIGN_SAMPLES: usize = 8;
const SERVED_ROWS: usize = 50_000;
/// Rows behind the quality check's `E` values (untimed).
const CHECK_ROWS: usize = 20_000;
const N_Q: usize = 50;
/// The repaired rows' aggregate `E` must be below this share of the
/// unrepaired rows'.
pub const E_MARGIN: f64 = 0.2;

struct Setup {
    research: Dataset,
    /// Further research samples from the same spec, for the design phase.
    samples: Vec<Dataset>,
    archive_csv: PathBuf,
    batches: Vec<ColumnarDataset>,
    plan: RepairPlan,
}

/// Write a CSV through `f`. The old file is unlinked first: on ext4,
/// truncating a file and rewriting it forces writeback when it closes
/// (`auto_da_alloc`), which would put disk waits into the timed chain.
fn write_csv(
    path: &Path,
    f: impl FnOnce(&mut BufWriter<File>) -> Result<(), String>,
) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let mut w = BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    f(&mut w)?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn open(path: &Path) -> Result<BufReader<File>, String> {
    Ok(BufReader::new(
        File::open(path).map_err(|e| format!("{}: {e}", path.display()))?,
    ))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Generate the research and archive CSVs from the seed, read the
/// research CSV back and design the plan.
fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let tr = &ctx.tracer;
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let (research, samples, archive) = tr
        .span("data", "generate", || {
            let research = spec.sample_dataset(RESEARCH_ROWS, &mut rng)?;
            let samples = (0..DESIGN_SAMPLES)
                .map(|_| spec.sample_dataset(RESEARCH_ROWS, &mut rng))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, otr_data::DataError>((
                research,
                samples,
                spec.sample_dataset(ARCHIVE_ROWS, &mut rng)?,
            ))
        })
        .map_err(|e| format!("generate: {e}"))?;
    tr.count(
        "data.rows",
        ((DESIGN_SAMPLES + 1) * RESEARCH_ROWS + ARCHIVE_ROWS) as u64,
    );
    let archive = tr.span("data", "from_dataset", || {
        ColumnarDataset::from_dataset(&archive)
    });
    let research_csv = ctx.tmp.join("research.csv");
    let archive_csv = ctx.tmp.join("archive.csv");
    write_csv(&research_csv, |w| {
        tr.span("data", "csv_write_rows", || {
            write_labelled_csv(w, &research)
        })
        .map_err(|e| e.to_string())
    })?;
    write_csv(&archive_csv, |w| {
        tr.span("data", "csv_write", || {
            write_labelled_csv_columnar(w, &archive)
        })
        .map_err(|e| e.to_string())
    })?;
    let research = tr.span("data", "csv_read_rows", || {
        read_labelled_csv(open(&research_csv)?).map_err(|e| e.to_string())
    })?;
    let plan = tr
        .span("core", "design", || {
            RepairPlanner::new(RepairConfig::with_n_q(N_Q)).design(&research)
        })
        .map_err(|e| format!("design: {e}"))?;
    let batches = tr
        .span("data", "slice_rows", || {
            (0..ARCHIVE_ROWS / BATCH_ROWS)
                .map(|b| archive.slice_rows(b * BATCH_ROWS..(b + 1) * BATCH_ROWS))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        research,
        samples,
        archive_csv,
        batches,
        plan,
    })
}

#[derive(Default)]
struct Window {
    setup_secs: Vec<f64>,
    apply_secs: Vec<f64>,
    batch_secs: Vec<f64>,
    evaluate_secs: Vec<f64>,
    design_secs: Vec<f64>,
    repaired: Option<ColumnarDataset>,
    first_batch: Option<ColumnarDataset>,
}

impl Window {
    fn apply_rows_per_s(&self) -> f64 {
        ARCHIVE_ROWS as f64 / median(&self.apply_secs)
    }

    fn repair_rows_per_s(&self) -> f64 {
        (self.batch_secs.len() * BATCH_ROWS) as f64 / self.batch_secs.iter().sum::<f64>()
    }
}

/// The measured window: rounds of set-up, apply, stream, evaluate and
/// design. `slot` ends holding the last round's set-up.
fn window(ctx: &Ctx, slot: &mut Option<Setup>, out: &mut Outcome) -> Result<Window, String> {
    let tr = &ctx.tracer;
    let seed = ctx.seed;
    let repaired_csv = ctx.tmp.join("repaired.csv");
    let chunk_csv = |c: usize| ctx.tmp.join(format!("repaired-{c}.csv"));
    let planner = RepairPlanner::new(RepairConfig::with_n_q(N_Q));
    let mut w = Window::default();
    let start = Instant::now();
    for round in 0.. {
        if round >= 3 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // The previous set-up goes first, so `peak_rss_mb` never holds two.
        drop(slot.take());
        let t = Instant::now();
        let s = &*slot.insert(tr.phase("setup", || setup(ctx))?);
        w.setup_secs.push(t.elapsed().as_secs_f64());
        out.ops(5);

        let t = Instant::now();
        tr.phase("apply", || {
            let input = tr.span("data", "csv_read", || {
                read_labelled_csv_columnar(open(&s.archive_csv)?).map_err(|e| e.to_string())
            })?;
            let output = tr
                .span("core", "repair_columnar", || {
                    s.plan.repair_columnar_par(&input, seed)
                })
                .map_err(|e| e.to_string())?;
            write_csv(&repaired_csv, |f| {
                tr.span("data", "csv_write", || {
                    write_labelled_csv_columnar(f, &output)
                })
                .map_err(|e| e.to_string())
            })?;
            tr.span("core", "damage", || {
                dataset_damage_columnar(&input, &output)
            })
            .map_err(|e| e.to_string())?;
            tr.count(
                "data.csv_bytes",
                file_len(&s.archive_csv) + file_len(&repaired_csv),
            );
            tr.count("core.rows_repaired", input.len() as u64);
            w.repaired = Some(output);
            Ok::<_, String>(())
        })?;
        w.apply_secs.push(t.elapsed().as_secs_f64());
        out.ops(4);
        if round == 0 {
            let repaired = w.repaired.as_ref().expect("applied");
            for c in 0..EVALUATE_CHUNKS {
                let chunk = repaired
                    .slice_rows(c * EVALUATE_ROWS..(c + 1) * EVALUATE_ROWS)
                    .map_err(|e| e.to_string())?;
                write_csv(&chunk_csv(c), |f| {
                    write_labelled_csv_columnar(f, &chunk).map_err(|e| e.to_string())
                })?;
            }
        }

        tr.phase("stream", || {
            for i in 0..STREAM_PASSES * s.batches.len() {
                let batch = &s.batches[i % s.batches.len()];
                let t = Instant::now();
                let output = tr
                    .span("core", "repair_columnar", || {
                        s.plan.repair_columnar_par(batch, seed)
                    })
                    .map_err(|e| e.to_string())?;
                w.batch_secs.push(t.elapsed().as_secs_f64());
                tr.count("core.rows_repaired", batch.len() as u64);
                if w.first_batch.is_none() {
                    w.first_batch = Some(output);
                }
            }
            Ok::<_, String>(())
        })?;
        out.ops((STREAM_PASSES * s.batches.len()) as u64);

        let t = Instant::now();
        tr.phase("evaluate", || {
            let path = chunk_csv(round % EVALUATE_CHUNKS);
            let data = tr.span("data", "csv_read_rows", || {
                read_labelled_csv(open(&path)?).map_err(|e| e.to_string())
            })?;
            tr.count("data.csv_bytes", file_len(&path));
            evaluate_e(ctx, &data, EMetric::PerFeature)
        })?;
        w.evaluate_secs.push(t.elapsed().as_secs_f64());
        out.ops(2);

        tr.phase("design", || {
            for sample in &s.samples {
                let t = Instant::now();
                tr.span("core", "design", || planner.design(sample))
                    .map_err(|e| format!("design: {e}"))?;
                w.design_secs.push(t.elapsed().as_secs_f64());
            }
            Ok::<_, String>(())
        })?;
        out.ops(DESIGN_SAMPLES as u64);
    }
    Ok(w)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut s = None;
    let w = if ctx.tracer.enabled() {
        let untraced = window(&ctx.untraced(), &mut s, out)?;
        let w = window(ctx, &mut s, out)?;
        out.overhead.push((
            "apply_rows_per_s",
            w.apply_rows_per_s(),
            untraced.apply_rows_per_s(),
        ));
        out.overhead.push((
            "repair_rows_per_s",
            w.repair_rows_per_s(),
            untraced.repair_rows_per_s(),
        ));
        w
    } else {
        window(ctx, &mut s, out)?
    };
    let s = s.expect("at least one round");
    let repaired = w.repaired.as_ref().expect("at least one round");
    let first_batch = w.first_batch.as_ref().expect("at least one batch");
    let evaluate_rows_per_s = EVALUATE_ROWS as f64 / median(&w.evaluate_secs);
    let batch_ms: Vec<f64> = w.batch_secs.iter().map(|t| t * 1e3).collect();

    // Checks: quality, stream vs apply bytes, served vs offline bytes.
    let archive_prefix = {
        let all = read_labelled_csv_columnar(open(&s.archive_csv)?).map_err(|e| e.to_string())?;
        all.slice_rows(0..SERVED_ROWS).map_err(|e| e.to_string())?
    };
    let (e_after, e_before) = common::quality_check(
        ctx,
        out,
        (
            &repaired
                .slice_rows(0..CHECK_ROWS)
                .map_err(|e| e.to_string())?
                .to_dataset(),
            &archive_prefix
                .slice_rows(0..CHECK_ROWS)
                .map_err(|e| e.to_string())?
                .to_dataset(),
        ),
        CHECK_ROWS,
        EMetric::PerFeature,
        E_MARGIN,
    )?;
    let apply_head = repaired
        .slice_rows(0..BATCH_ROWS)
        .map_err(|e| e.to_string())?;
    out.check(
        "stream batch bytes == apply bytes",
        common::same_bits(first_batch.feature_columns(), apply_head.feature_columns()),
    );
    let served_head = repaired
        .slice_rows(0..SERVED_ROWS)
        .map_err(|e| e.to_string())?;
    let mut served = s.plan.clone();
    served.config.threads = 1;
    common::served_check(
        ctx,
        out,
        RegisteredPlan::Scalar(served),
        &archive_prefix,
        ctx.seed,
        served_head.feature_columns(),
    )?;
    if ctx.tracer.enabled() {
        replay::scalar_design(ctx, out, &s.research, &s.plan)?;
    }

    out.metrics.insert("setup_s", median(&w.setup_secs));
    out.metrics.insert("design_s", median(&w.design_secs));
    out.metrics.insert("apply_rows_per_s", w.apply_rows_per_s());
    out.metrics.insert("batch_p50_ms", quantile(&batch_ms, 0.5));
    out.named("batch_p95_ms", quantile(&batch_ms, 0.95), "ms");
    out.named("apply_rows_per_s", w.apply_rows_per_s(), "rows/s");
    out.named("repair_rows_per_s", w.repair_rows_per_s(), "rows/s");
    out.named("evaluate_rows_per_s", evaluate_rows_per_s, "rows/s");
    out.named("e_after", e_after, "nats");
    out.named("e_before", e_before, "nats");
    out.named("rounds", w.apply_secs.len() as f64, "count");
    out.named("stream_batches", batch_ms.len() as f64, "count");
    Ok(())
}
