//! Peak heap and resident-memory growth of the paths whose memory is a
//! contract. A counting global allocator tracks the live heap and its
//! high-water mark.
//!
//! * A frame header that claims far more payload than it sends: each
//!   end gets a header claiming `MAX_PAYLOAD` (1 GiB) followed by 100
//!   bytes, and its peak heap growth is bounded to a few MiB. Both ends
//!   must allocate as bytes arrive, never up front from the length
//!   field; and the daemon must not write the bytes it reserves, so 32
//!   such connections leave its resident set within a few MiB too.
//! * A dense Sinkhorn solve holds one `n²`-cell buffer, which becomes
//!   its plan: the absorbed domain on a scalar cost, and the log-domain
//!   fallback on a product grid, each peak at most 1.25 plans of heap.
//!
//! The counters are process-wide, so the cases take one lock and run
//! one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use ot_fair_repair::ot::{sinkhorn_warm, CostMatrix, SinkhornConfig};
use ot_fair_repair::serve::protocol::{self, request_type, response_type};
use ot_fair_repair::serve::{Client, ClientError, ErrorCode, ServeConfig, Server};

/// Counts live heap bytes and their peak on top of the system allocator.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One case at a time: the peak counter is shared by every thread.
static SERIAL: Mutex<()> = Mutex::new(());

/// "A few MiB": the 1 MiB a reader reserves up front, plus slack.
const BOUND: usize = 4 << 20;

/// "A few MiB" of resident set: what 32 connections' stacks and touched
/// pages take, plus slack.
#[cfg(target_os = "linux")]
const RSS_BOUND: usize = 8 << 20;

/// Run `f`, returning how far the live heap rose above its level at the
/// start, at its highest, together with `f`'s result.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (PEAK.load(Ordering::SeqCst).saturating_sub(base), out)
}

/// A header of type `msg_type` claiming a `MAX_PAYLOAD`-byte payload,
/// and the 100 bytes of it that are ever sent.
fn hostile_frame(msg_type: u8) -> Vec<u8> {
    let mut frame = protocol::encode_header(msg_type, protocol::MAX_PAYLOAD).to_vec();
    frame.extend_from_slice(&[0u8; 100]);
    frame
}

#[test]
fn client_allocates_only_the_response_bytes_it_received() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A peer that answers the Ping (a bare header) with the hostile
    // frame, then closes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut ping = [0u8; protocol::HEADER_LEN];
        conn.read_exact(&mut ping).unwrap();
        conn.write_all(&hostile_frame(response_type::PONG)).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();

    let (growth, result) = peak_growth(|| client.ping());
    peer.join().unwrap();

    let err = result.unwrap_err();
    assert!(
        matches!(&err, ClientError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
        "a short response must be an UnexpectedEof transport error, got {err}"
    );
    assert!(err.is_transient(), "{err}");
    assert!(
        growth <= BOUND,
        "ping() grew the heap by {growth} bytes for a 1 GiB claim backed by 100 bytes"
    );
}

#[test]
fn server_allocates_only_the_request_bytes_it_received() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        deadline_ms: 300,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());
    let mut raw = TcpStream::connect(addr).unwrap();

    // The frame stays short, so the deadline ends the wait.
    let (growth, header) = peak_growth(|| {
        raw.write_all(&hostile_frame(request_type::PING)).unwrap();
        let mut header = [0u8; protocol::HEADER_LEN];
        raw.read_exact(&mut header).unwrap();
        header
    });
    assert_eq!(header[5], response_type::ERROR);
    let mut payload =
        vec![0u8; u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize];
    raw.read_exact(&mut payload).unwrap();
    let code = ErrorCode::from_u16(u16::from_be_bytes([payload[0], payload[1]]));
    handle.shutdown();
    daemon.join().unwrap();

    assert_eq!(code, Some(ErrorCode::DeadlineExceeded));
    assert!(
        growth <= BOUND,
        "the server grew the heap by {growth} bytes for a 1 GiB claim backed by 100 bytes"
    );
}

/// The process's resident set size in KiB, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kib = line.and_then(|v| v.trim().strip_suffix("kB"));
    kib.unwrap().trim().parse().unwrap()
}

/// 32 connections each send a header claiming `MAX_PAYLOAD` and then
/// 100 bytes, and stall inside the frame deadline. Their reads reserve
/// buffer space but may zero-fill only a 64 KiB window past the bytes
/// that arrived, so the daemon's resident set grows by far less than
/// the 32 MiB their first reservations span.
#[cfg(target_os = "linux")]
#[test]
fn server_resident_set_grows_only_by_the_request_bytes_it_received() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1:0".into(),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let before = vm_rss_kib();
    let conns: Vec<TcpStream> = (0..32)
        .map(|_| {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&hostile_frame(request_type::PING)).unwrap();
            raw
        })
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    let growth_kib = vm_rss_kib().saturating_sub(before);
    drop(conns);
    handle.shutdown();
    daemon.join().unwrap();

    assert!(
        growth_kib * 1024 <= RSS_BOUND,
        "32 stalled 1 GiB claims of 100 bytes each grew VmRSS by {growth_kib} KiB"
    );
}

/// `n` positive masses `base + (i · step mod modulus)`, before
/// normalization.
fn masses(n: usize, base: f64, step: usize, modulus: usize) -> Vec<f64> {
    (0..n)
        .map(|i| base + ((i * step) % modulus) as f64)
        .collect()
}

/// `v` scaled to unit mass.
fn normalized(v: &[f64]) -> Vec<f64> {
    let total: f64 = v.iter().sum();
    v.iter().map(|x| x / total).collect()
}

/// Solve `(a, b, cost)` at `eps` with every kernel pass chunked over
/// `threads`, and return the solve's peak heap growth in units of one
/// `n²`-cell plan, with whether its last stage converged in the
/// factored domain.
fn sinkhorn_peak_in_plans(
    a: &[f64],
    b: &[f64],
    cost: &CostMatrix,
    eps: f64,
    threads: usize,
) -> (f64, bool) {
    let config = SinkhornConfig {
        epsilon: eps,
        threads,
        parallel_min_cells: Some(1),
        ..SinkhornConfig::default()
    };
    let (growth, solved) = peak_growth(|| sinkhorn_warm(a, b, cost, config, None));
    let (plan, duals) = solved.unwrap();
    plan.validate_marginals(a, b).unwrap();
    let plan_bytes = a.len() * b.len() * std::mem::size_of::<f64>();
    (growth as f64 / plan_bytes as f64, duals.scalings.is_some())
}

/// The most heap a dense solve may hold at its peak, in plans: the one
/// `n²` buffer, plus its `O(n)` vectors.
const DENSE_PEAK_PLANS: f64 = 1.25;

/// The absorbed domain keeps one kernel buffer and builds the plan in
/// it: a 200-point scalar cost peaks at about one plan of heap, at 1 and
/// 2 threads.
#[test]
fn absorbed_sinkhorn_peaks_at_one_plan_of_heap() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let n = 200;
    let support: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    let (a, b) = (
        normalized(&masses(n, 0.2, 7, 5)),
        normalized(&masses(n, 0.3, 3, 4)),
    );
    let cost = CostMatrix::squared_euclidean(&support, &support).unwrap();
    for threads in [1, 2] {
        let (plans, _) = sinkhorn_peak_in_plans(&a, &b, &cost, 0.05, threads);
        assert!(
            plans <= DENSE_PEAK_PLANS,
            "threads = {threads}: the absorbed solve peaked at {plans:.3} plans of heap"
        );
    }
}

/// The log-domain fallback keeps one exponent buffer and builds the plan
/// in it. A 20 × 10 product grid whose row marginal has two end cells of
/// mass 1e-200 overflows the factored domain's scalings at ε = 0.05, so
/// the solve falls back to the log domain, and peaks at about one plan
/// of heap, at 1 and 2 threads.
#[test]
fn log_fallback_sinkhorn_peaks_at_one_plan_of_heap() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let gx: Vec<f64> = (0..20).map(|i| -1.0 + 2.0 * i as f64 / 19.0).collect();
    let gy: Vec<f64> = (0..10).map(|i| 0.1 + 1.4 * i as f64 / 9.0).collect();
    let n = gx.len() * gy.len();
    let mut a = masses(n, 0.2, 7, 5);
    (a[0], a[n - 1]) = (1e-200, 1e-200);
    let (a, b) = (normalized(&a), normalized(&masses(n, 0.3, 3, 4)));
    let cost = CostMatrix::squared_euclidean_grid_nd(&[&gx, &gy]).unwrap();
    for threads in [1, 2] {
        let (plans, factored) = sinkhorn_peak_in_plans(&a, &b, &cost, 0.05, threads);
        assert!(!factored, "the solve must fall back to the log domain");
        assert!(
            plans <= DENSE_PEAK_PLANS,
            "threads = {threads}: the log-domain fallback peaked at {plans:.3} plans of heap"
        );
    }
}
