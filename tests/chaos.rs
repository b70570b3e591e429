//! Seeded fault-injection chaos suite: a real `otrepaird` behind the
//! deterministic [`FaultProxy`], which truncates frames, disconnects
//! mid-frame, stalls, delays, and corrupts headers on a seed-driven
//! schedule.
//!
//! The contract under test, scenario by scenario: the daemon **never
//! aborts** under any injected fault, degradation is visible (error
//! codes + `Info` counters), and — the serving-determinism corollary —
//! every repair that *does* succeed under faults is byte-identical to
//! an offline `repair_columnar_par` with the same plan and seed. The
//! retry path must recover from at least one injected mid-frame
//! disconnect.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::data::{ColumnarDataset, Dataset, SimulationSpec};
use ot_fair_repair::repair::{RepairConfig, RepairPlan, RepairPlanner};
use ot_fair_repair::serve::protocol::{self, request_type, Request};
use ot_fair_repair::serve::{
    Client, ClientError, ErrorCode, PlanKind, RetryPolicy, RetryingClient, ServeConfig, Server,
    ServerHandle,
};

mod faults;
use faults::{Fault, FaultProxy, Span};

/// A running server on an OS-assigned loopback port.
struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(mut config: ServeConfig) -> Self {
        config.bind = "127.0.0.1:0".into();
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || server.run().unwrap());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).unwrap()
    }

    /// The daemon must still answer on a fresh direct connection — the
    /// "never aborts" assertion every scenario ends with. Transient
    /// rejections are retried: a just-closed connection may not have
    /// released its governor slot yet.
    fn assert_alive(&self) {
        let mut last = None;
        for _ in 0..50 {
            match self.client().ping() {
                Ok(()) => return,
                Err(e) if e.is_transient() => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("daemon answered a permanent error to ping: {e}"),
            }
        }
        panic!("daemon never recovered: {}", last.unwrap());
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn split_data(seed: u64, n_research: usize, n_archive: usize) -> (Dataset, ColumnarDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let split = SimulationSpec::paper_defaults()
        .generate(n_research, n_archive, &mut rng)
        .unwrap();
    let archive = ColumnarDataset::from_dataset(&split.archive);
    (split.research, archive)
}

fn scalar_plan(research: &Dataset, n_q: usize) -> RepairPlan {
    RepairPlanner::new(RepairConfig::with_n_q(n_q))
        .design(research)
        .unwrap()
}

/// Bit-level equality of feature columns.
fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A server preloaded with one plan, plus the offline reference bits
/// for `repair_seed` — the fixture every scenario starts from.
fn fixture(config: ServeConfig, repair_seed: u64) -> (TestServer, ColumnarDataset, Vec<Vec<u64>>) {
    let (research, archive) = split_data(31, 350, 220);
    let plan = scalar_plan(&research, 16);
    let server = TestServer::start(config);
    server
        .client()
        .load_plan(PlanKind::Scalar, "p", 1, &plan.to_json().unwrap())
        .unwrap();
    let offline = bits(
        plan.repair_columnar_par(&archive, repair_seed)
            .unwrap()
            .feature_columns(),
    );
    (server, archive, offline)
}

/// A retry policy tuned for tests: fast, deterministic, bounded.
fn test_policy(retries: u32, jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        retries,
        backoff_base: Duration::from_millis(20),
        backoff_max: Duration::from_millis(200),
        jitter_seed,
        call_deadline: None,
    }
}

/// Scenario 1: request frames truncated at seeded offsets, over several
/// seeds. Every cut costs the faulted connection an EOF; the daemon
/// survives all of them and a direct client still gets the exact
/// offline bytes.
#[test]
fn truncated_request_frames_never_kill_the_daemon() {
    let (server, archive, offline) = fixture(ServeConfig::default(), 7);
    for proxy_seed in [101u64, 202, 303] {
        let mut proxy = FaultProxy::spawn(
            server.addr,
            vec![
                Fault::TruncateRequest(Span::new(1, 12)), // inside the header
                Fault::TruncateRequest(Span::new(12, 600)), // inside the payload
            ],
            proxy_seed,
        )
        .unwrap();
        for _ in 0..2 {
            let mut victim = Client::connect(proxy.addr()).unwrap();
            let err = victim.repair("p", 1, 7, &archive).unwrap_err();
            assert!(
                matches!(err, ClientError::Io(_)),
                "a truncated request must surface as transport loss, got {err}"
            );
        }
        proxy.shutdown();
        server.assert_alive();
    }
    let served = bits(&server.client().repair("p", 1, 7, &archive).unwrap().columns);
    assert_eq!(
        served, offline,
        "daemon state corrupted by truncated frames"
    );
}

/// Scenario 2 (acceptance criterion): a response cut off mid-frame is
/// recovered by the retrying client — the retry's fresh connection
/// falls off the fault script — and the recovered bytes are identical
/// to offline repair.
#[test]
fn retry_recovers_from_mid_frame_response_disconnect() {
    let (server, archive, offline) = fixture(ServeConfig::default(), 9);
    let proxy = FaultProxy::spawn(
        server.addr,
        // Cut the response inside its payload; connection 2 is clean.
        vec![Fault::TruncateResponse(Span::new(13, 900))],
        424_242,
    )
    .unwrap();
    let client = RetryingClient::new(proxy.addr().to_string(), test_policy(3, 1));
    let repaired = client.call(|c| c.repair("p", 1, 9, &archive)).unwrap();
    assert_eq!(
        bits(&repaired.columns),
        offline,
        "retried repair must serve the exact offline bytes"
    );
    assert!(
        proxy.connections() >= 2,
        "recovery must have taken a second (clean) connection"
    );
    server.assert_alive();
}

/// Scenario 3: a byte-stall mid-frame (slow loris through the proxy) is
/// killed by the server's frame deadline instead of pinning a worker,
/// and a concurrent healthy client never notices.
#[test]
fn slow_loris_stall_is_deadline_killed_not_pinned() {
    let (server, archive, offline) = fixture(
        ServeConfig {
            deadline_ms: 300,
            ..ServeConfig::default()
        },
        5,
    );
    let proxy = FaultProxy::spawn(
        server.addr,
        // Forward part of the request, then hold the socket open
        // silently — the deadline, not EOF, must end this.
        vec![Fault::StallRequest(Span::new(13, 500))],
        777,
    )
    .unwrap();
    let stalled = std::thread::spawn({
        let proxy_addr = proxy.addr();
        let archive = archive.clone();
        move || {
            let mut victim = Client::connect(proxy_addr).unwrap();
            victim.repair("p", 1, 5, &archive)
        }
    });
    // While the loris hangs, a healthy direct client gets its bytes.
    let served = bits(&server.client().repair("p", 1, 5, &archive).unwrap().columns);
    assert_eq!(served, offline);
    let err = stalled.join().unwrap().unwrap_err();
    assert_eq!(
        err.server_code(),
        Some(ErrorCode::DeadlineExceeded),
        "{err}"
    );
    assert!(server.handle.deadline_kills() >= 1);
    server.assert_alive();
}

/// Scenario 3b: a payload trickle — one byte every 50 ms, so no read
/// ever waits a whole poll interval — is killed at the frame deadline
/// too: the deadline bounds the whole frame, not the gap between bytes.
#[test]
fn payload_trickle_is_deadline_killed_not_pinned() {
    let server = TestServer::start(ServeConfig {
        deadline_ms: 300,
        ..ServeConfig::default()
    });
    let mut raw = TcpStream::connect(server.addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = Instant::now();
    raw.write_all(&protocol::encode_header(request_type::PING, 1 << 20))
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let trickle = std::thread::spawn({
        let mut raw = raw.try_clone().unwrap();
        let done = Arc::clone(&done);
        move || {
            for _ in 0..200 {
                if done.load(Ordering::SeqCst) || raw.write_all(&[0]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });

    let mut header = [0u8; protocol::HEADER_LEN];
    raw.read_exact(&mut header).unwrap();
    let elapsed = started.elapsed();
    done.store(true, Ordering::SeqCst);
    trickle.join().unwrap();
    assert_eq!(header[5], protocol::response_type::ERROR);
    let mut payload = vec![0u8; u32::from_be_bytes(header[8..].try_into().unwrap()) as usize];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(
        ErrorCode::from_u16(u16::from_be_bytes([payload[0], payload[1]])),
        Some(ErrorCode::DeadlineExceeded)
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "a 300 ms frame deadline fired only after {elapsed:?} of trickle"
    );
    assert!(server.handle.deadline_kills() >= 1);
    server.assert_alive();
}

/// Scenario 4: delayed writes *within* the deadline are just a slow
/// network — the repair must succeed, byte-identical.
#[test]
fn delayed_writes_within_deadline_succeed_byte_identical() {
    let (server, archive, offline) = fixture(
        ServeConfig {
            deadline_ms: 5_000,
            ..ServeConfig::default()
        },
        11,
    );
    let proxy = FaultProxy::spawn(
        server.addr,
        vec![Fault::DelayWrites {
            delay: Duration::from_millis(60),
            first_chunks: 4,
        }],
        888,
    )
    .unwrap();
    let mut client = Client::connect(proxy.addr()).unwrap();
    let repaired = client.repair("p", 1, 11, &archive).unwrap();
    assert_eq!(bits(&repaired.columns), offline);
    server.assert_alive();
}

/// Scenario 5: a garbage header (seeded bytes, high bit forced so the
/// magic can never match) gets `BadFrame` and a closed connection; the
/// daemon keeps serving.
#[test]
fn garbage_header_is_answered_bad_frame_and_contained() {
    let (server, archive, offline) = fixture(ServeConfig::default(), 3);
    for proxy_seed in [1u64, 2, 3] {
        let proxy = FaultProxy::spawn(
            server.addr,
            vec![Fault::GarbageHeader { bytes: 12 }],
            proxy_seed,
        )
        .unwrap();
        let mut victim = Client::connect(proxy.addr()).unwrap();
        let err = victim.ping().unwrap_err();
        match &err {
            ClientError::Server { .. } => {
                assert_eq!(err.server_code(), Some(ErrorCode::BadFrame), "{err}");
            }
            // The server may close before our (swallowed) ping's
            // response path settles; transport loss is equally valid.
            ClientError::Io(_) => {}
            other => panic!("unexpected failure shape: {other}"),
        }
        server.assert_alive();
    }
    let served = bits(&server.client().repair("p", 1, 3, &archive).unwrap().columns);
    assert_eq!(served, offline);
}

/// Scenario 6: past `--max-conns` the server rejects politely with
/// `Overloaded` (a transient code), and the retrying client rides the
/// rejection out until a slot frees.
#[test]
fn overload_rejection_is_polite_and_retry_recovers() {
    let server = TestServer::start(ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    });
    // One served connection holds the only slot (a round trip proves
    // the server accounted for it).
    let mut hold = server.client();
    hold.ping().unwrap();

    // A plain client sees the polite rejection as Overloaded.
    let mut refused = Client::connect(server.addr).unwrap();
    let err = refused.ping().unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Overloaded), "{err}");
    assert!(err.is_transient(), "Overloaded must classify as transient");

    // The retrying client outlasts the congestion: the slot frees
    // mid-backoff and a later attempt lands.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        drop(hold);
    });
    let retrying = RetryingClient::new(
        server.addr.to_string(),
        RetryPolicy {
            retries: 8,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(200),
            jitter_seed: 6,
            call_deadline: Some(Duration::from_secs(10)),
        },
    );
    retrying.call(|c| c.ping()).unwrap();
    release.join().unwrap();
    assert!(server.handle.rejected_overload() >= 1);
    server.assert_alive();
}

/// Scenario 7: a panicking request under chaos costs `Internal` on its
/// own connection only; the registry keeps its plans and the daemon
/// keeps repairing — and the retrying client correctly refuses to
/// retry it (permanent).
#[test]
fn panic_isolation_under_chaos_keeps_registry_and_daemon() {
    let (server, archive, offline) = fixture(
        ServeConfig {
            chaos_panic_plan: Some("poison".into()),
            ..ServeConfig::default()
        },
        13,
    );
    let retrying = RetryingClient::new(server.addr.to_string(), test_policy(3, 2));
    let err = retrying
        .call(|c| c.repair("poison", 0, 1, &archive))
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Internal), "{err}");
    assert!(!err.is_transient(), "a panic is not worth retrying");
    assert_eq!(
        server.handle.panics_caught(),
        1,
        "exactly one panic — no retries"
    );

    let served = bits(
        &server
            .client()
            .repair("p", 1, 13, &archive)
            .unwrap()
            .columns,
    );
    assert_eq!(served, offline, "registry state survived the panic");
    server.assert_alive();
}

/// Scenario 8: a seeded sweep of disconnect-type faults (request cuts
/// and response cuts at seed-resolved offsets) through the retrying
/// client. Every call must eventually succeed, and every success must
/// be byte-identical to offline repair.
#[test]
fn seeded_fault_sweep_every_success_is_byte_identical() {
    let (server, archive, offline) = fixture(ServeConfig::default(), 17);
    for sweep_seed in [1_001u64, 2_002, 3_003, 4_004] {
        let script = if sweep_seed % 2 == 0 {
            vec![
                Fault::TruncateRequest(Span::new(1, 700)),
                Fault::TruncateResponse(Span::new(1, 700)),
            ]
        } else {
            vec![
                Fault::TruncateResponse(Span::new(1, 700)),
                Fault::TruncateRequest(Span::new(1, 700)),
            ]
        };
        let proxy = FaultProxy::spawn(server.addr, script, sweep_seed).unwrap();
        let client = RetryingClient::new(proxy.addr().to_string(), test_policy(4, sweep_seed));
        let repaired = client.call(|c| c.repair("p", 1, 17, &archive)).unwrap();
        assert_eq!(
            bits(&repaired.columns),
            offline,
            "sweep seed {sweep_seed}: recovered repair drifted from offline bytes"
        );
        server.assert_alive();
    }
}

/// Scenario 9: graceful shutdown drains an in-flight frame — a request
/// whose first bytes have arrived when shutdown fires is still read to
/// completion, answered, and only then closed.
#[test]
fn graceful_shutdown_drains_in_flight_frame() {
    let (server, _archive, _offline) = fixture(ServeConfig::default(), 1);
    let (msg_type, payload) = Request::EvictPlan {
        name: "p".into(),
        version: 1,
    }
    .encode();
    let header = protocol::encode_header(msg_type, payload.len());

    let mut raw = TcpStream::connect(server.addr).unwrap();
    // First half of the frame lands before shutdown...
    raw.write_all(&header).unwrap();
    raw.write_all(&payload[..payload.len() / 2]).unwrap();
    raw.flush().unwrap();
    // ...give the server a moment to observe it (arming the drain)...
    std::thread::sleep(Duration::from_millis(150));
    server.handle.shutdown();
    std::thread::sleep(Duration::from_millis(150));
    // ...and the rest arrives while the server is stopping.
    raw.write_all(&payload[payload.len() / 2..]).unwrap();

    // The drained frame still gets its real answer (the eviction ran).
    let mut resp_header = [0u8; protocol::HEADER_LEN];
    raw.read_exact(&mut resp_header).unwrap();
    assert_eq!(
        resp_header[5],
        protocol::response_type::PLAN_EVICTED,
        "in-flight frame must be answered, not dropped, during shutdown"
    );
    // After the drained answer the connection closes.
    let mut probe = [0u8; 1];
    assert!(matches!(raw.read(&mut probe), Ok(0) | Err(_)));
}
