//! Shared pieces: run context, outcome bookkeeping, host facts, process
//! resource probes, order statistics, and the served-vs-offline check
//! every workload runs.

use std::path::PathBuf;
use std::time::Instant;

use otr_data::{ColumnarDataset, Dataset};
use otr_fairness::{ConditionalDependence, JointDependence};
use otr_serve::protocol::{Request, Response, HEADER_LEN};
use otr_serve::{Client, RegisteredPlan, ServeConfig, Server};

use crate::trace::Tracer;

/// Rows per chunk of the timed `evaluate` phase, and chunks cycled.
/// The metric evaluates every sample point's Gaussian kernel at every
/// grid point, and `exp` takes slower or faster paths once a point lies
/// more than about 32 bandwidths away; with chunks of thousands of rows
/// the data's range sits near that edge, so the cost per row varied
/// several tens of percent between seeds. Chunks this small keep every
/// pair on the common path.
pub const EVALUATE_ROWS: usize = 500;
pub const EVALUATE_CHUNKS: usize = 16;

/// Server worker threads: the benchmark is sized for a two-core host,
/// with all load coming from one process.
pub const SERVER_THREADS: usize = 2;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory inside the checkout (removed by [`TmpDir`]).
    pub tmp: PathBuf,
}

impl Ctx {
    /// A context whose scratch directory `tmp` (created here) is removed
    /// when the returned guard drops.
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Result<(Self, TmpDir), String> {
        let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let ctx = Self {
            workload: workload.into(),
            seed,
            seconds,
            tracer: Tracer::new(trace),
            tmp: tmp.clone(),
        };
        Ok((ctx, TmpDir(tmp)))
    }

    /// The same run with tracing off: the baseline of the tracing
    /// overhead.
    pub fn untraced(&self) -> Self {
        Self {
            workload: self.workload.clone(),
            seed: self.seed,
            seconds: self.seconds,
            tracer: Tracer::new(false),
            tmp: self.tmp.clone(),
        }
    }

    /// Write the span log to `.bench_trace/<workload>-seed<n>.jsonl`.
    pub fn write_spans(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(".bench_trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        std::fs::write(&path, self.tracer.to_json_lines())?;
        println!("traced run: spans written to {}", path.display());
        Ok(path)
    }
}

/// Removes the run's scratch directory (and `.bench_tmp` once empty).
pub struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics by their `BENCHMARK.json` names.
    pub metrics: std::collections::BTreeMap<&'static str, f64>,
    /// The workload's metrics under the names of the paper's flows.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Traced run: stage times and replay counters for the layer table.
    pub layer: Vec<(String, f64, &'static str)>,
    /// Traced run: (metric, traced value, untraced value).
    pub overhead: Vec<(&'static str, f64, f64)>,
}

impl Outcome {
    /// Record a correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Record `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.push((name.into(), value, unit));
    }
}

/// `nproc`, CPU model, compiler and commit, as one JSON object.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        cpu.replace('"', "'"),
        command("rustc", &["-V"]),
        command("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds of the whole process (all threads).
pub fn process_cpu_secs() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout (two timevals followed by fourteen longs), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run `f` repeatedly for at least `secs` seconds and `min_reps`
/// repetitions; returns each repetition's wall seconds.
pub fn repeat_for<E>(
    secs: f64,
    min_reps: usize,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        f(times.len())?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Bit-level equality of two column sets (the determinism contract is
/// stronger than `==` on floats).
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Which dependence measure `E` a workload reports.
#[derive(Debug, Clone, Copy)]
pub enum EMetric {
    /// `ConditionalDependence`: per feature, as `otrepair evaluate`.
    PerFeature,
    /// `JointDependence`, the measure behind `otrepair evaluate --joint`,
    /// on a 16-point-per-axis grid. Joint repair moves points onto a coarse product
    /// grid, and the per-feature KDEs of such data differ between `s`
    /// groups in bandwidth alone, so only the joint measure tracks it.
    Joint,
}

/// Aggregate `E` of `data`, timed in a `fairness.evaluate` span.
pub fn evaluate_e(ctx: &Ctx, data: &Dataset, metric: EMetric) -> Result<f64, String> {
    let (e, kde_evals) = ctx
        .tracer
        .span("fairness", "evaluate", || match metric {
            EMetric::PerFeature => {
                let m = ConditionalDependence::default();
                // Every row's kernel at every grid point of every feature.
                let evals = data.len() * m.grid_size * data.dim();
                m.evaluate(data).map(|r| (r.aggregate(), evals))
            }
            EMetric::Joint => {
                let m = JointDependence {
                    grid_size: 16,
                    ..JointDependence::default()
                };
                // Every row's kernel at every cell of the product grid.
                let evals = data.len() * m.grid_size.pow(data.dim() as u32);
                m.evaluate(data).map(|e| (e, evals))
            }
        })
        .map_err(|e| format!("evaluate: {e}"))?;
    ctx.tracer.count("fairness.kde_evals", kde_evals as u64);
    Ok(e)
}

/// The quality guard: aggregate `E` of the first `rows` repaired rows
/// must be below `margin` times that of the same rows unrepaired.
/// Returns `(e_after, e_before)`.
pub fn quality_check(
    ctx: &Ctx,
    out: &mut Outcome,
    (repaired, unrepaired): (&Dataset, &Dataset),
    rows: usize,
    metric: EMetric,
    margin: f64,
) -> Result<(f64, f64), String> {
    let head = |d: &Dataset| {
        Dataset::from_points(d.points()[..rows.min(d.len())].to_vec()).map_err(|e| e.to_string())
    };
    let e_after = evaluate_e(ctx, &head(repaired)?, metric)?;
    let e_before = evaluate_e(ctx, &head(unrepaired)?, metric)?;
    out.ops(2);
    out.check(
        format!("e_after < {margin} x unrepaired E"),
        e_after < margin * e_before,
    );
    Ok((e_after, e_before))
}

/// Frame bytes of one request/response pair on the wire (encoded again
/// from the same values; the traced run only).
pub fn wire_bytes(ctx: &Ctx, req: &Request, resp: &Response, request: Option<u64>) -> u64 {
    let (_, req_payload) = ctx
        .tracer
        .span_req("serve", "request_encode", request, || req.encode());
    let (_, resp_payload) = ctx
        .tracer
        .span_req("serve", "response_encode", request, || resp.encode());
    (2 * HEADER_LEN + req_payload.len() + resp_payload.len()) as u64
}

/// A running in-process `otrepaird` on loopback.
pub struct Daemon {
    pub addr: String,
    pub handle: otr_serve::ServerHandle,
    pub registry: std::sync::Arc<otr_serve::PlanRegistry>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Bind a daemon on an OS-assigned loopback port, splitting each
    /// request into `shards` row ranges.
    pub fn start(shards: usize) -> Result<Self, String> {
        let server = Server::bind(&ServeConfig {
            bind: "127.0.0.1:0".into(),
            threads: SERVER_THREADS,
            shards,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
        let registry = std::sync::Arc::clone(server.registry());
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            handle,
            registry,
            thread: Some(thread),
        })
    }

    /// Shut down and wait for the accept loop to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(|t| t.join()) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.shutdown();
            let _ = t.join();
        }
    }
}

/// Serve `archive` through an in-process daemon holding `plan` (put
/// straight into its registry, as a hot swap does), and check the
/// response against `offline` bit for bit and the daemon's counters
/// against what was sent.
pub fn served_check(
    ctx: &Ctx,
    out: &mut Outcome,
    plan: RegisteredPlan,
    archive: &ColumnarDataset,
    seed: u64,
    offline: &[Vec<f64>],
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let daemon = Daemon::start(SERVER_THREADS)?;
    tr.span("serve", "register", || {
        daemon
            .registry
            .register("check", 1, std::sync::Arc::new(plan))
    })
    .map_err(|e| format!("register: {e}"))?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let served = tr
        .span_req("serve", "client_repair", Some(0), || {
            client.repair("check", 1, seed, archive)
        })
        .map_err(|e| format!("repair: {e}"))?;
    out.ops(2);
    out.check(
        "served bytes == offline bytes",
        same_bits(&served.columns, offline),
    );
    out.check(
        "server counters == requests and rows sent",
        daemon.handle.requests() == 1 && daemon.handle.rows_repaired() == archive.len() as u64,
    );
    if tr.enabled() {
        let req = Request::Repair {
            name: "check".into(),
            version: 1,
            seed,
            archive: archive.clone(),
        };
        let resp = Response::Repaired {
            out_of_range: served.out_of_range,
            columns: served.columns,
        };
        tr.count("serve.wire_bytes", wire_bytes(ctx, &req, &resp, Some(0)));
    }
    drop(client);
    daemon.stop()
}

/// Sleep until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
