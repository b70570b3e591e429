//! What a frame header that claims far more payload than it sends costs
//! the reader, in heap bytes. A counting global allocator tracks the
//! live heap and its high-water mark; each case drives one direction
//! with a header claiming `MAX_PAYLOAD` (1 GiB) followed by 100 bytes,
//! and bounds the peak growth to a few MiB: both ends must allocate as
//! bytes arrive, never up front from the length field.
//!
//! The counters are process-wide, so the cases take one lock and run
//! one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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
