//! The `otrepaird` server: a TCP accept loop, a shared
//! [`PlanRegistry`], and the sharded repair executor.
//!
//! # Determinism under sharding, and the copy budget
//!
//! Every `Repair` request is split into `shards` contiguous row chunks
//! (the same `base + (c < rem)` bounds `otr-par` uses for its own
//! chunking). The response columns are allocated once and cut at the
//! same bounds; each shard's
//! [`RegisteredPlan::repair_into`](crate::registry::RegisteredPlan::repair_into)
//! reads its rows of the decoded archive in place and writes straight
//! into its own row range — no shard copies, no reassembly, for scalar
//! and joint plans alike. Each value is written three times: decode,
//! kernel, encode. Because row
//! `i` always draws from `splitmix_seed(seed, i)` whichever shard holds
//! it, the response bytes are a pure function of `(plan, seed,
//! archive)` — shard count, worker threads, and client interleaving
//! are unobservable. `docs/determinism.md` derives this contract;
//! `tests/serve.rs` pins it.
//!
//! # Connection model and hardening
//!
//! One thread per connection, frames handled strictly in order per
//! connection (so a client's own requests never race each other),
//! connections independent. Four defences keep a misbehaving peer from
//! degrading anyone else's service (`docs/operations.md`, "Failure
//! modes & recovery"):
//!
//! * **Governor** — at most [`ServeConfig::max_conns`] connection
//!   threads exist at once; excess connections get an immediate
//!   [`ErrorCode::Overloaded`] error frame and are closed instead of
//!   spawning an unbounded thread.
//! * **Frame deadlines** — once the first byte of a frame arrives, the
//!   whole frame must arrive within [`ServeConfig::deadline_ms`], and
//!   response writes must keep making progress on the same budget. A
//!   slow-loris peer (header then silence, or a trickle of bytes) is
//!   killed with [`ErrorCode::DeadlineExceeded`] rather than pinning a
//!   thread. Idle connections *between* frames may sit forever — that
//!   is normal keep-alive.
//! * **Panic isolation** — each request's decode + dispatch runs under
//!   `catch_unwind`: a poisoned request answers
//!   [`ErrorCode::Internal`] and closes that socket; the daemon and
//!   registry stay up.
//! * **Graceful drain** — shutdown stops accepting, but a frame whose
//!   first byte already arrived is read to completion (bounded by the
//!   deadline), answered, and only then is its connection closed — no
//!   in-flight repair is ever raced by exit.
//!
//! Reads poll a shared stop flag every `POLL_INTERVAL` so
//! [`ServerHandle::shutdown`] interrupts idle connections promptly;
//! [`Server::run`]'s accept loop is woken by a self-connection.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use otr_core::{plan_group_divergences, DriftConfig, DriftMonitor, RepairPlanner};
use otr_data::{ColumnarDataset, Dataset, LabelledPoint};
use otr_par::{par_chunks_mut, split_cols, thread_count};

use crate::protocol::{
    decode_header, write_frame, AuditRecord, AuditStratum, DriftReport, DriftStratum, ErrorCode,
    Request, Response, ServerInfo, HEADER_LEN, PAYLOAD_CHUNK, PROTOCOL_VERSION,
};
use crate::registry::{persist_plan, unpersist_plan, PlanRegistry, RegisteredPlan};

/// How often blocked reads wake to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The smallest window [`read_payload`] zero-fills ahead of the payload
/// bytes that have arrived.
const MIN_PAYLOAD_WINDOW: usize = 64 << 10;

/// Frame-drain budget during shutdown when no deadline is configured:
/// a frame caught mid-arrival gets this long to finish before the
/// connection is dropped anyway.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// How long the accept loop will spend writing an [`ErrorCode::Overloaded`]
/// rejection before giving up on the peer.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Deployment knobs for [`Server::bind`]. Execution policy only: no
/// field affects repaired bytes (the serving determinism contract).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 lets the OS pick — read the
    /// real address back from [`Server::local_addr`]).
    pub bind: String,
    /// Worker threads for sharded repair (`0` = auto: `OTR_THREADS` if
    /// set, else available parallelism).
    pub threads: usize,
    /// Contiguous row shards per repair request (`0` = auto: the
    /// resolved thread count).
    pub shards: usize,
    /// Directory of plan artifacts to preload at startup
    /// (`name.json` → `name@1`, `name@v.json` → `name@v`).
    pub plans_dir: Option<PathBuf>,
    /// Connection governor: the most connection threads allowed at
    /// once (`0` = unlimited). Connections past the cap are politely
    /// rejected with [`ErrorCode::Overloaded`] and closed.
    pub max_conns: usize,
    /// Per-frame deadline in milliseconds (`0` = none): from the first
    /// byte of a frame, the rest must arrive within this budget, and
    /// each response write must make progress on the same budget.
    /// Violations are killed with [`ErrorCode::DeadlineExceeded`].
    pub deadline_ms: u64,
    /// Chaos-testing hook: a `Repair` request naming this plan panics
    /// the connection thread deliberately, so the panic-isolation
    /// contract stays testable end to end. Always `None` in
    /// production deployments (no daemon flag sets it).
    pub chaos_panic_plan: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:7878".into(),
            threads: 0,
            shards: 0,
            plans_dir: None,
            max_conns: 256,
            deadline_ms: 30_000,
            chaos_panic_plan: None,
        }
    }
}

/// Rows a drift watch retains (most recent first dropped oldest) as
/// the research snapshot for a triggered re-design. Bounds daemon
/// memory on an endless archive stream.
const MAX_WATCH_BUFFER_ROWS: usize = 1 << 20;

/// Counters and the stop flag, shared by every connection thread.
#[derive(Debug, Default)]
struct Shared {
    stop: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    rejected_overload: AtomicU64,
    deadline_kills: AtomicU64,
    panics_caught: AtomicU64,
    requests: AtomicU64,
    rows_repaired: AtomicU64,
    swaps: AtomicU64,
    /// Active drift watches, keyed by plan name. One watch per name:
    /// re-issuing `Watch` re-arms the monitor (preserving the audit
    /// trail and swap count).
    watches: Mutex<HashMap<String, WatchState>>,
}

impl Shared {
    /// Lock the watch map, recovering from poisoning (the same
    /// rationale as the registry's lock: all mutations either complete
    /// or leave the map coherent, and the daemon must outlive a
    /// panicked request).
    fn watches(&self) -> std::sync::MutexGuard<'_, HashMap<String, WatchState>> {
        self.watches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One armed drift watch: the monitor, the version it is armed
/// against, the buffered archive rows a triggered re-design will use
/// as its research snapshot, and the audit trail of past swaps.
#[derive(Debug)]
struct WatchState {
    /// Plan version the monitor's reference marginals came from; also
    /// the version whose repairs feed the monitor.
    version: u32,
    monitor: DriftMonitor,
    /// Archive rows observed since the watch was (re)armed — the
    /// research snapshot for the next re-design. Oldest rows are shed
    /// from the front past [`MAX_WATCH_BUFFER_ROWS`], so a full buffer
    /// costs a request its own rows, never a move of the rest.
    buffer: VecDeque<LabelledPoint>,
    /// Hot swaps performed under this name, oldest first.
    audit: Vec<AuditRecord>,
    swaps: u64,
}

/// A bound (but not yet serving) `otrepaird` instance.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    /// The daemon's policy, registry and counters, shared by every
    /// connection thread.
    ctx: Arc<ConnCtx>,
}

/// A remote control for a running [`Server`]: stats and shutdown.
/// Cheap to clone; safe to use from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Ask the server to stop. New connections stop being accepted,
    /// idle connections close within one read-poll interval (200 ms),
    /// and a frame already mid-arrival is drained — read to completion
    /// (bounded by the frame deadline), answered, then closed — before
    /// [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop may be parked in accept(); a throwaway
        // connection wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Requests handled so far (all message types).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Archive rows repaired so far.
    pub fn rows_repaired(&self) -> u64 {
        self.shared.rows_repaired.load(Ordering::Relaxed)
    }

    /// Connections rejected by the governor so far.
    pub fn rejected_overload(&self) -> u64 {
        self.shared.rejected_overload.load(Ordering::Relaxed)
    }

    /// Connections killed for blowing the frame deadline so far.
    pub fn deadline_kills(&self) -> u64 {
        self.shared.deadline_kills.load(Ordering::Relaxed)
    }

    /// Request panics caught (and isolated) so far.
    pub fn panics_caught(&self) -> u64 {
        self.shared.panics_caught.load(Ordering::Relaxed)
    }
}

impl Server {
    /// Bind the listen socket, resolve the thread/shard policy, and
    /// preload `plans_dir` (if configured). No connections are accepted
    /// until [`Server::run`].
    ///
    /// # Errors
    /// Bind failures and unloadable preload directories.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.bind)?;
        let threads = thread_count(config.threads);
        let shards = if config.shards == 0 {
            threads
        } else {
            config.shards
        };
        // Shards run concurrently on the server's own pool, so each
        // registered plan executes single-threaded: two multiplying
        // levels of parallelism would oversubscribe the machine.
        let registry = Arc::new(PlanRegistry::new(1, None));
        if let Some(dir) = &config.plans_dir {
            registry
                .load_dir(dir)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        }
        Ok(Self {
            listener,
            ctx: Arc::new(ConnCtx {
                registry,
                shared: Arc::new(Shared::default()),
                threads,
                shards,
                max_conns: config.max_conns,
                deadline_ms: config.deadline_ms,
                chaos_panic_plan: config.chaos_panic_plan.clone(),
                plans_dir: config.plans_dir.clone(),
            }),
        })
    }

    /// The bound address (the real port when `bind` asked for 0).
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's plan registry (shared with all connections).
    pub fn registry(&self) -> &Arc<PlanRegistry> {
        &self.ctx.registry
    }

    /// A [`ServerHandle`] for stats and shutdown from other threads.
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shared: Arc::clone(&self.ctx.shared),
        })
    }

    /// Accept and serve connections until [`ServerHandle::shutdown`].
    /// Blocks the calling thread; spawn it if you need to keep going
    /// (as `tests/serve.rs` and the CLI's `--port-file` flow do).
    ///
    /// # Errors
    /// Fatal accept-loop failures only; per-connection errors are
    /// answered on the wire (or logged to stderr) and do not stop the
    /// server.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        let (shared, max_conns) = (&self.ctx.shared, self.ctx.max_conns);
        for conn in self.listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("otrepaird: accept failed: {e}");
                    continue;
                }
            };
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            // The governor: the accept loop is the only thread that
            // increments `active`, so the load-then-increment below
            // cannot race past the cap.
            if max_conns > 0 && shared.active.load(Ordering::SeqCst) >= max_conns {
                shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
                reject_overloaded(stream, max_conns);
                continue;
            }
            shared.active.fetch_add(1, Ordering::SeqCst);
            let ctx = Arc::clone(&self.ctx);
            workers.push(std::thread::spawn(move || {
                // Release the governor slot when this thread exits —
                // Drop runs even if handle_conn panics outside the
                // per-request catch_unwind.
                let _slot = SlotGuard(Arc::clone(&ctx.shared));
                if let Err(e) = handle_conn(stream, &ctx) {
                    eprintln!("otrepaird: connection error: {e}");
                }
            }));
            // Reap finished connection threads so a long-lived daemon
            // doesn't accumulate handles.
            workers.retain(|h| !h.is_finished());
        }
        // Drain: every surviving connection thread finishes (and
        // answers) any frame that was already mid-arrival before the
        // server exits — bounded by the frame deadline / drain grace.
        for h in workers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Decrements the active-connection gauge when a connection thread
/// exits, however it exits.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Politely refuse a connection past the governor's cap: best-effort
/// `Overloaded` error frame (a few dozen bytes — fits any socket
/// buffer, and bounded by a write timeout regardless), then close.
fn reject_overloaded(mut stream: TcpStream, max_conns: usize) {
    let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
    let resp = Response::Error {
        code: ErrorCode::Overloaded.as_u16(),
        message: format!("server at --max-conns {max_conns} capacity; retry with backoff"),
    };
    let (t, p) = resp.encode();
    let _ = write_frame(&mut stream, t, &p);
}

/// Everything a connection thread needs: built once by
/// [`Server::bind`], shared by every connection.
#[derive(Debug)]
struct ConnCtx {
    registry: Arc<PlanRegistry>,
    shared: Arc<Shared>,
    threads: usize,
    shards: usize,
    max_conns: usize,
    deadline_ms: u64,
    chaos_panic_plan: Option<String>,
    /// When set, hot-loaded and hot-swapped plan versions are
    /// persisted here so a daemon restart serves the same registry.
    plans_dir: Option<PathBuf>,
}

/// The per-frame deadline clock. Armed by the first byte of a frame,
/// cleared when the frame has fully arrived; while armed, it also
/// marks the connection as mid-frame for shutdown-drain purposes.
struct FrameClock {
    deadline: Option<Duration>,
    armed: Option<Instant>,
}

impl FrameClock {
    fn new(deadline_ms: u64) -> Self {
        Self {
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            armed: None,
        }
    }

    /// A frame byte arrived: start (or keep) the countdown.
    fn arm(&mut self) {
        if self.armed.is_none() {
            self.armed = Some(Instant::now());
        }
    }

    fn mid_frame(&self) -> bool {
        self.armed.is_some()
    }

    /// True once the armed frame has been in flight past the deadline.
    /// During shutdown a frame with *no* configured deadline still gets
    /// only [`DRAIN_GRACE`], so drain cannot hang on a stalled peer.
    fn expired(&self, stopping: bool) -> bool {
        let Some(since) = self.armed else {
            return false;
        };
        match self.deadline {
            Some(d) => since.elapsed() >= d,
            None => stopping && since.elapsed() >= DRAIN_GRACE,
        }
    }
}

/// How a blocking read ended.
enum ReadOutcome {
    /// The buffer was filled.
    Done,
    /// Clean end between frames: EOF or shutdown with no frame bytes
    /// pending.
    CleanClose,
    /// The frame deadline expired mid-frame.
    Deadline,
}

/// Fill `buf` from the stream, polling the stop flag between timeouts
/// and enforcing the frame deadline in `clock`.
///
/// Mid-frame EOF (peer vanished with a frame half-sent) is an error —
/// silently dropping bytes would corrupt the session. Shutdown
/// observed mid-frame does **not** abort the read: the frame is
/// drained (bounded by the clock) so its request can still be
/// answered.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    ctx: &ConnCtx,
    clock: &mut FrameClock,
) -> std::io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        let stopping = ctx.shared.stop.load(Ordering::SeqCst);
        if stopping && !clock.mid_frame() && filled == 0 {
            return Ok(ReadOutcome::CleanClose);
        }
        if clock.expired(stopping) {
            return Ok(ReadOutcome::Deadline);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if !clock.mid_frame() && filled == 0 {
                    return Ok(ReadOutcome::CleanClose);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                filled += n;
                clock.arm();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Done)
}

/// Read an `len`-byte payload through [`read_full`], one zero-filled
/// window at a time. A window is as long as the bytes already received,
/// but at least [`MIN_PAYLOAD_WINDOW`] and at most [`PAYLOAD_CHUNK`],
/// so an adversarial length field costs the peer real bytes, not the
/// server real memory: a claim backed by `b` bytes touches at most
/// `2b + 64 KiB`. Only [`PAYLOAD_CHUNK`] is reserved up front.
fn read_payload(
    stream: &mut TcpStream,
    len: usize,
    ctx: &ConnCtx,
    clock: &mut FrameClock,
) -> std::io::Result<(Vec<u8>, ReadOutcome)> {
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_CHUNK));
    while payload.len() < len {
        let start = payload.len();
        let step = (len - start).min(start.clamp(MIN_PAYLOAD_WINDOW, PAYLOAD_CHUNK));
        payload.resize(start + step, 0);
        match read_full(stream, &mut payload[start..], ctx, clock)? {
            ReadOutcome::Done => {}
            other => return Ok((payload, other)),
        }
    }
    Ok((payload, ReadOutcome::Done))
}

/// Best-effort error frame + deadline-kill bookkeeping, then the
/// caller closes the connection.
fn kill_deadline(stream: &mut TcpStream, ctx: &ConnCtx) {
    ctx.shared.deadline_kills.fetch_add(1, Ordering::Relaxed);
    let resp = Response::Error {
        code: ErrorCode::DeadlineExceeded.as_u16(),
        message: format!(
            "frame did not complete within the {} ms deadline",
            ctx.deadline_ms
        ),
    };
    let (t, p) = resp.encode();
    let _ = write_frame(stream, t, &p);
}

/// Serve one connection: read frames in order, answer each.
fn handle_conn(mut stream: TcpStream, ctx: &ConnCtx) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    if ctx.deadline_ms > 0 {
        // SO_SNDTIMEO is per write call: a reader making *any* progress
        // never trips it, a stalled reader does — the write-side twin
        // of the frame deadline.
        stream.set_write_timeout(Some(Duration::from_millis(ctx.deadline_ms)))?;
    }
    stream.set_nodelay(true)?;
    loop {
        let mut clock = FrameClock::new(ctx.deadline_ms);
        let mut header = [0u8; HEADER_LEN];
        match read_full(&mut stream, &mut header, ctx, &mut clock)? {
            ReadOutcome::Done => {}
            ReadOutcome::CleanClose => return Ok(()),
            ReadOutcome::Deadline => {
                kill_deadline(&mut stream, ctx);
                return Ok(());
            }
        }
        let (msg_type, payload_len) = match decode_header(&header) {
            Ok(parsed) => parsed,
            Err(err) => {
                ctx.shared.requests.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: err.code().as_u16(),
                    message: err.message().into(),
                };
                let (t, p) = resp.encode();
                write_response(&mut stream, ctx, t, &p)?;
                if err.is_fatal() {
                    // Framing is gone; resynchronization is impossible.
                    return Ok(());
                }
                // UnsupportedVersion: framing is intact, so skip the
                // payload and keep serving this connection.
                match read_payload(&mut stream, decode_payload_len(&header), ctx, &mut clock)?.1 {
                    ReadOutcome::Done => continue,
                    ReadOutcome::CleanClose => return Ok(()),
                    ReadOutcome::Deadline => {
                        kill_deadline(&mut stream, ctx);
                        return Ok(());
                    }
                }
            }
        };
        let (payload, outcome) = read_payload(&mut stream, payload_len, ctx, &mut clock)?;
        match outcome {
            ReadOutcome::Done => {}
            ReadOutcome::CleanClose => return Ok(()),
            ReadOutcome::Deadline => {
                kill_deadline(&mut stream, ctx);
                return Ok(());
            }
        }
        ctx.shared.requests.fetch_add(1, Ordering::Relaxed);
        // Panic isolation: a request that panics answers Internal and
        // costs its own connection — never the daemon. AssertUnwindSafe
        // is sound here: the registry recovers poisoned locks
        // (registry.rs), and all other captured state is either atomic
        // or owned by this frame.
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match Request::decode(msg_type, &payload) {
                Ok(req) => dispatch(req, ctx),
                Err(err) => Response::Error {
                    code: err.code().as_u16(),
                    message: err.message().into(),
                },
            }
        }));
        let resp = match dispatched {
            Ok(resp) => resp,
            Err(_) => {
                ctx.shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: ErrorCode::Internal.as_u16(),
                    message: "request panicked; the panic was isolated to this connection".into(),
                };
                let (t, p) = resp.encode();
                let _ = write_response(&mut stream, ctx, t, &p);
                return Ok(());
            }
        };
        let (t, p) = resp.encode();
        write_response(&mut stream, ctx, t, &p)?;
        if ctx.shared.stop.load(Ordering::SeqCst) {
            // Drained: the in-flight frame was answered; close instead
            // of waiting for another.
            return Ok(());
        }
    }
}

/// Write a response frame, converting a write-timeout stall into a
/// deadline kill (counted; the caller sees `Err` and closes).
fn write_response(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    msg_type: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    write_frame(stream, msg_type, payload).map_err(|e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ctx.shared.deadline_kills.fetch_add(1, Ordering::Relaxed);
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "response write stalled past the {} ms deadline",
                    ctx.deadline_ms
                ),
            )
        } else {
            e
        }
    })
}

/// The payload length field alone (valid even when the version byte is
/// not): used to skip past frames we answered with an error.
fn decode_payload_len(h: &[u8; HEADER_LEN]) -> usize {
    u32::from_be_bytes([h[8], h[9], h[10], h[11]]) as usize
}

/// Execute one decoded request against the registry.
fn dispatch(req: Request, ctx: &ConnCtx) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::LoadPlan {
            kind,
            name,
            version,
            json,
        } => match ctx.registry.load(&name, version, kind, &json) {
            Ok(_) => {
                // Plans loaded over the wire must survive a daemon
                // restart: persist the artifact next to the preloaded
                // ones. The load already succeeded; a persistence
                // failure downgrades durability, not service.
                if let Some(dir) = &ctx.plans_dir {
                    if let Err(e) = persist_plan(dir, &name, version, &json) {
                        eprintln!("otrepaird: could not persist {name}@{version}: {e}");
                    }
                }
                Response::PlanLoaded
            }
            Err(e) => Response::Error {
                code: e.code().as_u16(),
                message: e.to_string(),
            },
        },
        Request::ListPlans => Response::PlanList(ctx.registry.list()),
        Request::EvictPlan { name, version } => match ctx.registry.evict(&name, version) {
            Ok(()) => {
                if let Some(dir) = &ctx.plans_dir {
                    unpersist_plan(dir, &name, version);
                }
                Response::PlanEvicted
            }
            Err(e) => Response::Error {
                code: e.code().as_u16(),
                message: e.to_string(),
            },
        },
        Request::Repair {
            name,
            version,
            seed,
            archive,
        } => {
            if ctx.chaos_panic_plan.as_deref() == Some(name.as_str()) {
                panic!("chaos hook: injected panic for plan {name:?}");
            }
            match ctx.registry.get(&name, version) {
                Ok(plan) => match repair_sharded(plan.as_ref(), &archive, seed, ctx) {
                    Ok((out_of_range, columns)) => {
                        ctx.shared
                            .rows_repaired
                            .fetch_add(archive.len() as u64, Ordering::Relaxed);
                        // Drift accounting runs *after* the repair:
                        // this response is served by the version
                        // resolved above; a swap it triggers only
                        // affects later requests.
                        observe_watch(&name, version, &archive, ctx);
                        Response::Repaired {
                            out_of_range,
                            columns,
                        }
                    }
                    Err(msg) => Response::Error {
                        code: ErrorCode::RepairFailed.as_u16(),
                        message: msg,
                    },
                },
                Err(e) => Response::Error {
                    code: e.code().as_u16(),
                    message: e.to_string(),
                },
            }
        }
        Request::Watch {
            name,
            threshold,
            trips,
            check_every,
            min_rows,
        } => arm_watch(
            &name,
            DriftConfig {
                threshold,
                trips,
                check_every,
                min_rows,
            },
            ctx,
        ),
        Request::DriftStatus { name } => match ctx.shared.watches().get(&name) {
            Some(w) => Response::DriftReport(DriftReport {
                version: w.version,
                rows_seen: w.monitor.rows_seen(),
                checks: w.monitor.checks(),
                consecutive: w.monitor.consecutive(),
                tripped: w.monitor.tripped(),
                swaps: w.swaps,
                strata: w
                    .monitor
                    .divergences()
                    .iter()
                    .map(|d| DriftStratum {
                        u: d.u,
                        k: d.k as u32,
                        divergence: d.divergence,
                    })
                    .collect(),
            }),
            None => Response::Error {
                code: ErrorCode::UnknownPlan.as_u16(),
                message: format!("no drift watch armed on {name}"),
            },
        },
        Request::Audit { name } => match ctx.shared.watches().get(&name) {
            Some(w) => Response::AuditRecords(w.audit.clone()),
            None => Response::Error {
                code: ErrorCode::UnknownPlan.as_u16(),
                message: format!("no drift watch armed on {name}"),
            },
        },
        Request::Info => Response::Info(ServerInfo {
            protocol_version: PROTOCOL_VERSION,
            plans: ctx.registry.len() as u32,
            requests: ctx.shared.requests.load(Ordering::Relaxed),
            rows_repaired: ctx.shared.rows_repaired.load(Ordering::Relaxed),
            shards: ctx.shards as u32,
            threads: ctx.threads as u32,
            accepted: ctx.shared.accepted.load(Ordering::Relaxed),
            rejected_overload: ctx.shared.rejected_overload.load(Ordering::Relaxed),
            deadline_kills: ctx.shared.deadline_kills.load(Ordering::Relaxed),
            panics_caught: ctx.shared.panics_caught.load(Ordering::Relaxed),
            max_conns: ctx.max_conns as u32,
            watches: ctx.shared.watches().len() as u32,
            swaps: ctx.shared.swaps.load(Ordering::Relaxed),
        }),
    }
}

/// Arm (or re-arm) a drift watch on the latest version of `name`.
/// Re-arming replaces the monitor and buffer but keeps the audit trail
/// and swap count — operators tune thresholds without losing history.
fn arm_watch(name: &str, config: DriftConfig, ctx: &ConnCtx) -> Response {
    let (version, plan) = match ctx.registry.latest(name) {
        Ok(found) => found,
        Err(e) => {
            return Response::Error {
                code: e.code().as_u16(),
                message: e.to_string(),
            }
        }
    };
    let RegisteredPlan::Scalar(scalar) = plan.as_ref() else {
        return Response::Error {
            code: ErrorCode::PlanInvalid.as_u16(),
            message: format!("drift watches require a scalar plan; {name} is joint"),
        };
    };
    match DriftMonitor::for_plan(scalar, config) {
        Ok(monitor) => {
            let mut watches = ctx.shared.watches();
            let (audit, swaps) = watches
                .remove(name)
                .map(|w| (w.audit, w.swaps))
                .unwrap_or_default();
            watches.insert(
                name.to_string(),
                WatchState {
                    version,
                    monitor,
                    buffer: VecDeque::new(),
                    audit,
                    swaps,
                },
            );
            Response::Watching { version }
        }
        Err(e) => Response::Error {
            code: ErrorCode::BadPayload.as_u16(),
            message: e.to_string(),
        },
    }
}

/// Fold a just-repaired archive into the drift watch on `name` (when
/// one is armed and this request was served by the watched version),
/// hot-swapping in a re-designed plan if the monitor trips.
fn observe_watch(name: &str, requested_version: u32, archive: &ColumnarDataset, ctx: &ConnCtx) {
    let mut watches = ctx.shared.watches();
    let Some(w) = watches.get_mut(name) else {
        return;
    };
    // Repairs pinned to an *older* version are stale traffic, not
    // evidence about the watched plan; `0` resolves to the latest,
    // which is the watched version whenever the watch is healthy.
    if requested_version != 0 && requested_version != w.version {
        return;
    }
    let batch = archive.to_dataset();
    if w.monitor.observe(&batch).is_err() {
        // Dimension mismatch: the repair itself would have failed
        // before we got here; nothing to book.
        return;
    }
    w.buffer.extend(batch.points().iter().cloned());
    if w.buffer.len() > MAX_WATCH_BUFFER_ROWS {
        let excess = w.buffer.len() - MAX_WATCH_BUFFER_ROWS;
        w.buffer.drain(..excess);
    }
    if w.monitor.tripped() {
        swap_plan(name, w, ctx);
    }
}

/// The hot-swap: warm re-design on the buffered archive rows, register
/// as the next version of the same name, persist, audit, re-arm.
fn swap_plan(name: &str, w: &mut WatchState, ctx: &ConnCtx) {
    let Ok(current) = ctx.registry.get(name, w.version) else {
        // Watched version evicted under us: the watch is orphaned;
        // leave it tripped for DriftStatus to surface.
        return;
    };
    let RegisteredPlan::Scalar(parent) = current.as_ref() else {
        return;
    };
    let trigger = w.monitor.max_divergence();
    let rows_observed = w.monitor.rows_seen();
    let research = match Dataset::from_points(std::mem::take(&mut w.buffer).into()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("otrepaird: drift re-design for {name} has no usable buffer: {e}");
            let _ = w.monitor.reset(parent);
            return;
        }
    };
    // Warm re-design: seeded from the parent's banked Sinkhorn duals,
    // so the swap costs a fraction of a cold design (docs/determinism.md).
    let new_plan = match RepairPlanner::new(parent.config).redesign(&research, parent) {
        Ok(p) => p,
        Err(e) => {
            // Re-arm against the current plan instead of retrying on
            // every subsequent repair with the same doomed buffer.
            eprintln!("otrepaird: drift re-design for {name} failed: {e}; watch re-armed");
            let _ = w.monitor.reset(parent);
            return;
        }
    };
    let e_before = plan_group_divergences(parent).unwrap_or_default();
    let e_after = plan_group_divergences(&new_plan).unwrap_or_default();
    let new_version = match ctx.registry.latest(name) {
        Ok((v, _)) => v.saturating_add(1),
        Err(_) => w.version.saturating_add(1),
    };
    if let Err(e) = w.monitor.reset(&new_plan) {
        eprintln!("otrepaird: could not re-arm drift watch on {name}: {e}");
        return;
    }
    let json = new_plan.to_json();
    if let Err(e) = ctx.registry.register(
        name,
        new_version,
        Arc::new(RegisteredPlan::Scalar(new_plan)),
    ) {
        eprintln!("otrepaird: could not register {name}@{new_version}: {e}");
        return;
    }
    match (&ctx.plans_dir, &json) {
        (Some(dir), Ok(json)) => {
            if let Err(e) = persist_plan(dir, name, new_version, json) {
                eprintln!("otrepaird: could not persist {name}@{new_version}: {e}");
            }
        }
        (Some(_), Err(e)) => {
            eprintln!("otrepaird: could not serialize {name}@{new_version}: {e}");
        }
        (None, _) => {}
    }
    w.audit.push(AuditRecord {
        version: new_version,
        parent: w.version,
        rows_observed,
        trigger_divergence: trigger,
        strata: e_before
            .iter()
            .zip(&e_after)
            .map(|(&(u, k, before), &(_, _, after))| AuditStratum {
                u,
                k: k as u32,
                e_before: before,
                e_after: after,
            })
            .collect(),
    });
    eprintln!(
        "otrepaird: drift tripped on {name}@{} (sym-KL {trigger:.4} over {rows_observed} rows); \
         hot-swapped to {name}@{new_version}",
        w.version
    );
    w.version = new_version;
    w.swaps += 1;
    ctx.shared.swaps.fetch_add(1, Ordering::Relaxed);
}

/// Allocate the response columns once, cut them at the shard bounds
/// (`otr-par`'s row layout, [`split_cols`]), and repair every shard in
/// place into its own row range.
fn repair_sharded(
    plan: &RegisteredPlan,
    archive: &ColumnarDataset,
    seed: u64,
    ctx: &ConnCtx,
) -> Result<(u64, Vec<Vec<f64>>), String> {
    let n = archive.len();
    let mut columns: Vec<Vec<f64>> = (0..archive.dim()).map(|_| vec![0.0; n]).collect();
    // One job per shard: its rows, their slice of every column, and its
    // result.
    let mut jobs: Vec<_> = split_cols(&mut columns, ctx.shards)
        .into_iter()
        .map(|(rows, out)| (rows, out, Ok(0)))
        .collect();
    if jobs.is_empty() {
        // A 0-row archive makes no shard; the plan still checks it, so
        // a dimension mismatch fails as it does with rows.
        let out_of_range = plan.repair_into(archive, 0..n, seed, 0, &mut columns)?;
        return Ok((out_of_range, columns));
    }
    par_chunks_mut(&mut jobs, ctx.threads, |_, jobs| {
        for (rows, out, result) in jobs {
            // Row i of the archive draws the stream of row i whichever
            // shard holds it: the shard layout is unobservable.
            *result = plan.repair_into(archive, rows.clone(), seed, 0, out);
        }
    });
    let mut out_of_range = 0u64;
    for (_, _, result) in jobs {
        out_of_range += result?;
    }
    Ok((out_of_range, columns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_clock_arms_on_first_byte_and_expires() {
        let mut clock = FrameClock::new(1); // 1 ms deadline
        assert!(!clock.mid_frame());
        assert!(!clock.expired(false), "an unarmed clock never expires");
        clock.arm();
        assert!(clock.mid_frame());
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.expired(false));

        // No deadline configured: never expires outside shutdown...
        let mut free = FrameClock::new(0);
        free.arm();
        assert!(!free.expired(false));
        // ...and during shutdown gets only the drain grace (not yet
        // elapsed here).
        assert!(!free.expired(true));
    }
}
