//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a workspace crate: its
//! layer (the crate, e.g. `data` for `otr-data`), a stage name, start
//! and end relative to the tracer's epoch, the span that caused it, and
//! for served traffic the request id. Spans stay in memory and are
//! written once, when the run ends. A disabled tracer only calls the
//! wrapped closure, so the untraced run measures the bare calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::common::process_cpu_secs;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub stage: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<String, u64>>,
    /// Per `bench` phase: process CPU seconds and wall seconds.
    phase_cpu: Mutex<BTreeMap<&'static str, (f64, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            phase_cpu: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span of `layer`/`stage`.
    pub fn span<R>(&self, layer: &'static str, stage: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_req(layer, stage, None, f)
    }

    /// [`Self::span`] tagged with the served request it belongs to.
    pub fn span_req<R>(
        &self,
        layer: &'static str,
        stage: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            layer,
            stage,
            start_ns: start,
            end_ns: end,
            request,
        });
        out
    }

    /// Run one phase of the measured window in a `bench` span, also
    /// booking the process CPU time it used.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let (cpu, wall) = (process_cpu_secs(), Instant::now());
        let out = self.span("bench", name, f);
        let used = (process_cpu_secs() - cpu, wall.elapsed().as_secs_f64());
        let mut map = self.phase_cpu.lock().expect("phase map poisoned");
        let e = map.entry(name).or_default();
        e.0 += used.0;
        e.1 += used.1;
        out
    }

    /// Per phase: process CPU time / (wall time × cores).
    pub fn phase_cpu_util(&self) -> BTreeMap<&'static str, f64> {
        self.phase_cpu
            .lock()
            .expect("phase map poisoned")
            .iter()
            .map(|(&k, &(cpu, wall))| (k, cpu / (wall * cores())))
            .collect()
    }

    /// Over all phases together: process CPU time / (wall time × cores).
    pub fn cpu_util(&self) -> f64 {
        let map = self.phase_cpu.lock().expect("phase map poisoned");
        let (cpu, wall) = map
            .values()
            .fold((0.0, 0.0), |(c, w), &(pc, pw)| (c + pc, w + pw));
        cpu / (wall * cores())
    }

    /// Add `n` to the deterministic counter `name` (e.g. `core.swaps`).
    pub fn count(&self, name: &str, n: u64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name.to_string())
                .or_default() += n;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    pub fn counts(&self) -> BTreeMap<String, u64> {
        self.counts.lock().expect("counter map poisoned").clone()
    }

    /// Total seconds and span count per `layer.stage`.
    pub fn stage_totals(&self) -> BTreeMap<String, (f64, usize)> {
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for s in self.spans() {
            let e = out.entry(format!("{}.{}", s.layer, s.stage)).or_default();
            e.0 += s.secs();
            e.1 += 1;
        }
        out
    }

    /// Self time per layer: each span's duration minus the part its
    /// child spans cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Per `bench.*` phase span: wall time next to the sum of its direct
    /// children; the gap is time no layer span accounts for.
    pub fn phase_table(&self) -> Vec<(&'static str, f64, f64)> {
        let spans = self.spans();
        let mut rows: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for phase in spans.iter().filter(|s| s.layer == "bench") {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(phase.id))
                .map(Span::secs)
                .sum();
            let row = rows.entry(phase.stage).or_default();
            row.0 += phase.secs();
            row.1 += children;
        }
        rows.into_iter().map(|(k, (w, c))| (k, w, c)).collect()
    }

    /// The span log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.layer,
                s.stage,
                s.start_ns,
                s.end_ns,
                s.request.map_or("null".into(), |r| r.to_string()),
            );
        }
        out
    }
}
