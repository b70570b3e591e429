//! `serve-drift`: an in-process `otrepaird` on loopback carrying two
//! streams from one process.
//!
//! * **bulk**: one connection sends large repair requests back to back
//!   (closed loop) against an unwatched scalar plan;
//! * **watched**: one connection sends small requests on an open-loop
//!   fixed schedule, well below capacity, against a watched plan
//!   designed with `sinkhorn:0.05:scaled`. The traffic alternates
//!   in-distribution and mean-shifted phases; the watch is re-armed at
//!   every phase start, so each phase after the first trips the monitor
//!   and hot-swaps exactly once. Latency is timed from each request's
//!   due time, and the generator's lateness is reported.
//!
//! A single watched client keeps the drift fold order deterministic, so
//! the traced run can replay the monitor and the re-designs outside the
//! daemon and compare them with what it served.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use otr_core::{
    plan_group_divergences, DriftConfig, DriftMonitor, RepairConfig, RepairPlan, RepairPlanner,
};
use otr_data::{ColumnarDataset, Dataset, Drift, LabelledPoint, SimulationSpec};
use otr_serve::protocol::{Request, Response, HEADER_LEN};
use otr_serve::{persist_plan, Client, PlanKind, PlanRegistry, RegisteredPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    self, evaluate_e, median, quantile, repeat_for, sleep_until, Ctx, Daemon, EMetric, Outcome,
    EVALUATE_CHUNKS, EVALUATE_ROWS,
};
use crate::replay;

const RESEARCH_ROWS: usize = 1_000;
const BULK_ROWS: usize = 100_000;
const WATCH_ROWS: usize = 250;
/// Watched requests are due every 2.5 ms: 100k rows/s, far below what
/// the daemon repairs, so the stream never queues unless a stall makes
/// it; a 10 s window holds 4000 of them, 40 beyond the 99th percentile.
const WATCH_INTERVAL: Duration = Duration::from_micros(2_500);
/// Drift phases per window; all but the first trip the monitor once.
const PHASES: usize = 8;
const SHIFT: f64 = 2.0;
const BULK_N_Q: usize = 50;
const WATCH_N_Q: usize = 20;
const WATCH_SOLVER: &str = "sinkhorn:0.05:scaled";
/// Shards per request. One shard keeps the closed-loop bulk stream to
/// about one core of the two, so the watched stream's latency shows
/// the daemon's own stalls rather than waits for a saturated CPU.
const SHARDS: usize = 1;
/// Set-ups per run, half before the traffic and half after it, so set-up
/// time is sampled across the run; `setup_s` is their median.
const SETUPS: usize = 6;
/// Research samples designed per set-up under the watched plan's
/// config; the first one's plan is served. `design_s` is the median.
const DESIGNS: usize = 15;
/// Bulk requests whose serving stages the traced run replays.
const REPLAYED_BULK: usize = 2;
/// Bulk requests of the traced window, about half of it at 5M rows/s.
/// A fixed count, not a closed loop until the watched schedule ends, so
/// the bulk `client_repair` spans add up to the daemon's time for a
/// fixed amount of work rather than to the window's length.
const TRACED_BULK: usize = 250;
/// Rows behind the quality check's `E` values (untimed).
const CHECK_ROWS: usize = 20_000;
/// The repaired rows' aggregate `E` must be below this share of the
/// unrepaired rows'.
pub const E_MARGIN: f64 = 0.25;

fn drift_config() -> DriftConfig {
    DriftConfig {
        threshold: 1.0,
        trips: 2,
        check_every: WATCH_ROWS as u64,
        min_rows: 4 * WATCH_ROWS as u64,
    }
}

struct Setup {
    daemon: Daemon,
    bulk_client: Client,
    watch_client: Client,
    /// Requests sent to the daemon so far (all message types).
    sent: u64,
    bulk_archive: ColumnarDataset,
    bulk_plan: RepairPlan,
    watch_json: String,
    /// The watched stream's batches, in send order.
    watch_batches: Vec<ColumnarDataset>,
}

/// Requests per window: the schedule fills `ctx.seconds`, rounded to
/// whole phases so every phase has the same length.
fn watched_requests(ctx: &Ctx) -> usize {
    let per_phase = (ctx.seconds / WATCH_INTERVAL.as_secs_f64() / PHASES as f64).round() as usize;
    per_phase.max(8) * PHASES
}

fn setup(ctx: &Ctx, designs: &mut Vec<f64>) -> Result<Setup, String> {
    let tr = &ctx.tracer;
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let n = watched_requests(ctx);
    let (research, bulk, watched) = tr
        .span("data", "generate", || {
            let research = (0..DESIGNS)
                .map(|_| spec.sample_dataset(RESEARCH_ROWS, &mut rng))
                .collect::<Result<Vec<_>, _>>()?;
            let bulk = spec.sample_dataset(BULK_ROWS, &mut rng)?;
            let shift = Drift::MeanShift(vec![SHIFT; spec.dim()]);
            let mut watched = Vec::with_capacity(n);
            for i in 0..n {
                let batch = spec.sample_dataset(WATCH_ROWS, &mut rng)?;
                let phase = i / (n / PHASES);
                watched.push(if phase % 2 == 1 {
                    shift.apply(&batch)?
                } else {
                    batch
                });
            }
            Ok::<_, otr_data::DataError>((research, bulk, watched))
        })
        .map_err(|e| format!("generate: {e}"))?;
    tr.count(
        "data.rows",
        (DESIGNS * RESEARCH_ROWS + BULK_ROWS + n * WATCH_ROWS) as u64,
    );
    let (bulk_archive, watch_batches) = tr.span("data", "from_dataset", || {
        (
            ColumnarDataset::from_dataset(&bulk),
            watched
                .iter()
                .map(ColumnarDataset::from_dataset)
                .collect::<Vec<_>>(),
        )
    });

    let bulk_plan = tr
        .span("core", "design", || {
            RepairPlanner::new(RepairConfig::with_n_q(BULK_N_Q)).design(&research[0])
        })
        .map_err(|e| format!("design: {e}"))?;
    let mut watch_cfg = RepairConfig::with_n_q(WATCH_N_Q);
    watch_cfg.solver = WATCH_SOLVER.parse().map_err(|e| format!("solver: {e}"))?;
    let mut watch_plan = None;
    for sample in &research {
        let t = Instant::now();
        let plan = tr
            .span("core", "design", || {
                RepairPlanner::new(watch_cfg).design(sample)
            })
            .map_err(|e| format!("design: {e}"))?;
        designs.push(t.elapsed().as_secs_f64());
        watch_plan.get_or_insert(plan);
    }
    let watch_plan = watch_plan.expect("DESIGNS > 0");
    if tr.enabled() {
        let mut scratch = Outcome::default();
        replay::scalar_design(ctx, &mut scratch, &research[0], &watch_plan)?;
    }

    let daemon = Daemon::start(SHARDS)?;
    let connect = || Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"));
    let (mut bulk_client, mut watch_client) = (connect()?, connect()?);
    let bulk_json = bulk_plan.to_json().map_err(|e| e.to_string())?;
    let watch_json = watch_plan.to_json().map_err(|e| e.to_string())?;
    tr.span("serve", "load_plan", || {
        bulk_client.load_plan(PlanKind::Scalar, "bulk", 1, &bulk_json)?;
        watch_client.load_plan(PlanKind::Scalar, "watched", 1, &watch_json)?;
        watch_client.watch("watched", &drift_config())
    })
    .map_err(|e| format!("load: {e}"))?;
    Ok(Setup {
        daemon,
        bulk_client,
        watch_client,
        sent: 3,
        bulk_archive,
        bulk_plan,
        watch_json,
        watch_batches,
    })
}

impl Setup {
    /// Close both connections, then stop the daemon (it drains open
    /// connections before it returns).
    fn close(self) -> Result<(), String> {
        drop((self.bulk_client, self.watch_client));
        self.daemon.stop()
    }
}

struct Traffic {
    bulk_secs: Vec<f64>,
    bulk_rows_per_s: f64,
    /// First `REPLAYED_BULK` bulk responses, for the checks and replays.
    bulk_responses: Vec<Vec<Vec<f64>>>,
    watched_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
}

fn bulk_seed(ctx: &Ctx, j: usize) -> u64 {
    ctx.seed.wrapping_add(j as u64)
}

/// Both streams for one schedule of watched requests. Untraced, the bulk
/// stream runs until the schedule ends; traced, it sends `TRACED_BULK`
/// requests.
fn traffic(ctx: &Ctx, s: &mut Setup) -> Result<Traffic, String> {
    let tr = &ctx.tracer;
    let done = AtomicBool::new(false);
    let more_bulk = |sent: usize| {
        if tr.enabled() {
            sent < TRACED_BULK
        } else {
            sent == 0 || !done.load(Ordering::SeqCst)
        }
    };
    let cfg = drift_config();
    let (bulk_client, watch_client) = (&mut s.bulk_client, &mut s.watch_client);
    let (bulk_archive, batches) = (&s.bulk_archive, &s.watch_batches);
    let per_phase = batches.len() / PHASES;
    let (bulk, watched) = std::thread::scope(|scope| {
        let bulk = scope.spawn(|| {
            let start = Instant::now();
            let mut secs = Vec::new();
            let mut responses = Vec::new();
            while more_bulk(secs.len()) {
                let j = secs.len();
                let t = Instant::now();
                let r = tr
                    .span_req("serve", "client_repair", Some(j as u64), || {
                        bulk_client.repair("bulk", 1, bulk_seed(ctx, j), bulk_archive)
                    })
                    .map_err(|e| format!("bulk repair: {e}"))?;
                secs.push(t.elapsed().as_secs_f64());
                if j < REPLAYED_BULK {
                    responses.push(r.columns);
                }
            }
            Ok::<_, String>((secs, responses, start.elapsed().as_secs_f64()))
        });
        let t0 = Instant::now();
        let mut latency = Vec::with_capacity(batches.len());
        let mut lateness = Vec::with_capacity(batches.len());
        let mut result = Ok(());
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 && i % per_phase == 0 {
                if let Err(e) = watch_client.watch("watched", &cfg) {
                    result = Err(format!("re-arm: {e}"));
                    break;
                }
            }
            let due = t0 + WATCH_INTERVAL * i as u32;
            sleep_until(due);
            lateness.push(due.elapsed().as_secs_f64() * 1e3);
            let r = tr.span_req("serve", "client_repair", Some(1_000_000 + i as u64), || {
                watch_client.repair("watched", 0, ctx.seed, batch)
            });
            latency.push(due.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = r {
                result = Err(format!("watched repair: {e}"));
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        let bulk = bulk.join().map_err(|_| "bulk client panicked".to_string());
        (bulk, result.map(|()| (latency, lateness)))
    });
    let (bulk_secs, bulk_responses, bulk_wall) = bulk??;
    let (watched_ms, lateness_ms) = watched?;
    s.sent += (bulk_secs.len() + batches.len() + PHASES - 1) as u64;
    Ok(Traffic {
        bulk_rows_per_s: (bulk_secs.len() * BULK_ROWS) as f64 / bulk_wall,
        bulk_secs,
        bulk_responses,
        watched_ms,
        lateness_ms,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut designs = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS / 2 {
        if let Some(prev) = s.take() {
            prev.close()?;
        }
        let t = Instant::now();
        s = Some(setup(ctx, &mut designs)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("SETUPS > 1");

    let t = if ctx.tracer.enabled() {
        // Every window replays the same scripted phases and leaves the
        // watch on a re-designed plan, so the untraced window runs on a
        // fresh set-up of its own.
        let untraced = {
            let quiet = ctx.untraced();
            let mut fresh = setup(&quiet, &mut Vec::new())?;
            let t = traffic(&quiet, &mut fresh)?;
            fresh.close()?;
            t
        };
        let t = ctx.tracer.phase("traffic", || traffic(ctx, &mut s))?;
        out.overhead.push((
            "apply_rows_per_s",
            t.bulk_rows_per_s,
            untraced.bulk_rows_per_s,
        ));
        t
    } else {
        traffic(ctx, &mut s)?
    };
    out.ops((t.bulk_secs.len() + t.watched_ms.len()) as u64);

    // Checks: served bytes, drift swaps, server counters, quality.
    let offline = ctx
        .tracer
        .span("core", "repair_columnar", || {
            s.bulk_plan
                .repair_columnar_par(&s.bulk_archive, bulk_seed(ctx, 0))
        })
        .map_err(|e| e.to_string())?;
    ctx.tracer.count("core.rows_repaired", BULK_ROWS as u64);
    out.check(
        "served bulk bytes == offline bytes",
        common::same_bits(&t.bulk_responses[0], offline.feature_columns()),
    );
    let status = s
        .watch_client
        .drift_status("watched")
        .map_err(|e| format!("drift_status: {e}"))?;
    s.sent += 1;
    out.check(
        format!("swaps == scripted drift phases ({})", PHASES - 1),
        status.swaps == (PHASES - 1) as u64,
    );
    let watched_rows = (s.watch_batches.len() * WATCH_ROWS) as u64;
    out.check(
        "server requests == requests sent",
        s.daemon.handle.requests() == s.sent,
    );
    out.check(
        "server rows repaired == rows sent",
        s.daemon.handle.rows_repaired() == (t.bulk_secs.len() * BULK_ROWS) as u64 + watched_rows,
    );
    // Archive chunks, not repaired ones: repaired values span the plan's
    // whole support, which put the metric's kernel distances near the
    // range where `exp` changes path and made its cost swing by seed.
    let chunks = (0..EVALUATE_CHUNKS)
        .map(|c| {
            s.bulk_archive
                .slice_rows(c * EVALUATE_ROWS..(c + 1) * EVALUATE_ROWS)
                .map(|d| d.to_dataset())
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // Two seconds of chunks: long enough for a steady median, since
    // this phase cannot interleave with the traffic it evaluates.
    let evaluate = repeat_for(2.0, 2 * EVALUATE_CHUNKS, |i| {
        evaluate_e(ctx, &chunks[i % EVALUATE_CHUNKS], EMetric::PerFeature).map(|_| ())
    })?;
    out.ops(evaluate.len() as u64);
    let (e_after, e_before) = common::quality_check(
        ctx,
        out,
        (&offline.to_dataset(), &s.bulk_archive.to_dataset()),
        CHECK_ROWS,
        EMetric::PerFeature,
        E_MARGIN,
    )?;

    if ctx.tracer.enabled() {
        replay_bulk(ctx, out, &s, &t)?;
        replay_watch(ctx, out, &s, status.swaps)?;
    }
    s.close()?;
    for _ in SETUPS / 2..SETUPS {
        let t = Instant::now();
        let later = setup(ctx, &mut designs)?;
        setups.push(t.elapsed().as_secs_f64());
        later.close()?;
    }
    out.ops((SETUPS * (DESIGNS + 4)) as u64);

    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("design_s", median(&designs));
    out.metrics.insert("apply_rows_per_s", t.bulk_rows_per_s);
    out.metrics
        .insert("batch_p50_ms", quantile(&t.watched_ms, 0.5));
    out.named("bulk_rows_per_s", t.bulk_rows_per_s, "rows/s");
    out.named(
        "evaluate_rows_per_s",
        EVALUATE_ROWS as f64 / median(&evaluate),
        "rows/s",
    );
    out.named("bulk_requests", t.bulk_secs.len() as f64, "count");
    out.named("watched_p50_ms", quantile(&t.watched_ms, 0.5), "ms");
    out.named("watched_p95_ms", quantile(&t.watched_ms, 0.95), "ms");
    out.named("watched_p99_ms", quantile(&t.watched_ms, 0.99), "ms");
    out.named("watched_samples", t.watched_ms.len() as f64, "count");
    out.named(
        "generator_lateness_p99_ms",
        quantile(&t.lateness_ms, 0.99),
        "ms",
    );
    out.named(
        "generator_lateness_max_ms",
        quantile(&t.lateness_ms, 1.0),
        "ms",
    );
    out.named("swaps", status.swaps as f64, "count");
    out.named("e_after", e_after, "nats");
    out.named("e_before", e_before, "nats");
    Ok(())
}

/// Replay the serving stages of the first bulk requests: encode and
/// decode of the actual frames, `slice_rows` + `repair_shard` per shard.
/// The concatenated shards must equal the served response bit for bit.
fn replay_bulk(ctx: &Ctx, out: &mut Outcome, s: &Setup, t: &Traffic) -> Result<(), String> {
    let tr = &ctx.tracer;
    let plan = s
        .daemon
        .registry
        .get("bulk", 1)
        .map_err(|e| e.to_string())?;
    let mut identical = true;
    for (j, served) in t.bulk_responses.iter().enumerate() {
        let id = Some(j as u64);
        let seed = bulk_seed(ctx, j);
        let req = Request::Repair {
            name: "bulk".into(),
            version: 1,
            seed,
            archive: s.bulk_archive.clone(),
        };
        let (msg, payload) = tr.span_req("serve", "request_encode", id, || req.encode());
        let request_bytes = payload.len();
        let Request::Repair { archive, .. } = tr
            .span_req("serve", "request_decode", id, || {
                Request::decode(msg, &payload)
            })
            .map_err(|e| e.to_string())?
        else {
            return Err("request decoded to another message".into());
        };
        let n = archive.len();
        let mut columns = vec![Vec::with_capacity(n); archive.dim()];
        let mut out_of_range = 0;
        for c in 0..SHARDS {
            let (start, end) = (shard_start(n, SHARDS, c), shard_start(n, SHARDS, c + 1));
            let shard = tr
                .span_req("data", "slice_rows", id, || archive.slice_rows(start..end))
                .map_err(|e| e.to_string())?;
            let (part, oob) = tr.span_req("serve", "repair_shard", id, || {
                plan.repair_shard(&shard, seed, start as u64)
            })?;
            out_of_range += oob;
            for (col, p) in columns.iter_mut().zip(part) {
                col.extend_from_slice(&p);
            }
        }
        identical &= common::same_bits(&columns, served);
        let resp = Response::Repaired {
            out_of_range,
            columns,
        };
        let (msg, payload) = tr.span_req("serve", "response_encode", id, || resp.encode());
        tr.span_req("serve", "response_decode", id, || {
            Response::decode(msg, &payload)
        })
        .map_err(|e| e.to_string())?;
        tr.count(
            "serve.wire_bytes",
            (2 * HEADER_LEN + request_bytes + payload.len()) as u64,
        );
        let staged: f64 = tr
            .spans()
            .iter()
            .filter(|sp| sp.request == id && sp.stage != "client_repair")
            .map(|sp| sp.secs())
            .sum();
        let measured = t.bulk_secs[j];
        out.layer(
            format!("serve.unattributed_s[bulk {j}]"),
            measured - staged,
            "s",
        );
    }
    out.check("replayed shards == served bulk response", identical);
    Ok(())
}

/// Start row of shard `c` of `n` rows split `shards` ways (the first
/// `n % shards` shards get one extra row, as the daemon splits).
fn shard_start(n: usize, shards: usize, c: usize) -> usize {
    let (base, rem) = (n / shards, n % shards);
    c * base + c.min(rem)
}

/// Replay the watch: the monitor over every watched batch in send
/// order, re-armed at each phase, and at each trip the warm re-design,
/// the group divergences for the audit, a registry insert and the
/// persisted artifact. The replayed lifecycle must swap as often as the
/// daemon did and end on a plan identical to the daemon's latest.
fn replay_watch(ctx: &Ctx, out: &mut Outcome, s: &Setup, swaps: u64) -> Result<(), String> {
    let tr = &ctx.tracer;
    let cfg = drift_config();
    let mut plan = RepairPlan::from_json(&s.watch_json).map_err(|e| e.to_string())?;
    let registry = PlanRegistry::new(1, None);
    let per_phase = s.watch_batches.len() / PHASES;
    let mut monitor = DriftMonitor::for_plan(&plan, cfg).map_err(|e| e.to_string())?;
    let mut buffer: Vec<LabelledPoint> = Vec::new();
    let mut replayed_swaps = 0u64;
    let mut checks = 0u64;
    for (i, batch) in s.watch_batches.iter().enumerate() {
        if i > 0 && i % per_phase == 0 {
            checks += monitor.checks();
            monitor = DriftMonitor::for_plan(&plan, cfg).map_err(|e| e.to_string())?;
            buffer.clear();
        }
        let rows = tr.span("data", "to_dataset", || batch.to_dataset());
        tr.span("core", "drift_observe", || monitor.observe(&rows))
            .map_err(|e| e.to_string())?;
        buffer.extend_from_slice(rows.points());
        if !monitor.tripped() {
            continue;
        }
        let research =
            Dataset::from_points(std::mem::take(&mut buffer)).map_err(|e| e.to_string())?;
        let next = tr
            .span("core", "redesign", || {
                RepairPlanner::new(plan.config).redesign(&research, &plan)
            })
            .map_err(|e| e.to_string())?;
        tr.span("core", "group_divergence", || {
            plan_group_divergences(&plan).and_then(|_| plan_group_divergences(&next))
        })
        .map_err(|e| e.to_string())?;
        replayed_swaps += 1;
        checks += monitor.checks();
        monitor.reset(&next).map_err(|e| e.to_string())?;
        let json = next.to_json().map_err(|e| e.to_string())?;
        let version = replayed_swaps as u32 + 1;
        tr.span("serve", "register", || {
            registry.register(
                "watched",
                version,
                std::sync::Arc::new(RegisteredPlan::Scalar(next.clone())),
            )
        })
        .map_err(|e| e.to_string())?;
        tr.span("serve", "persist", || {
            persist_plan(&ctx.tmp, "watched", version, &json)
        })
        .map_err(|e| e.to_string())?;
        plan = next;
    }
    checks += monitor.checks();
    tr.count("core.drift_checks", checks);
    tr.count("core.swaps", replayed_swaps);
    let (_, served) = s
        .daemon
        .registry
        .latest("watched")
        .map_err(|e| e.to_string())?;
    out.check(
        "replayed lifecycle == served swaps and final plan",
        replayed_swaps == swaps
            && served.to_json()? == plan.to_json().map_err(|e| e.to_string())?,
    );
    Ok(())
}
