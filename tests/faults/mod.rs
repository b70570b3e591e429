//! Deterministic fault injection for the serve stack: an in-process
//! TCP proxy that sits between a client and `otrepaird` and breaks the
//! byte stream on purpose — truncated frames, mid-frame disconnects,
//! byte-stalls, delayed writes, garbage headers.
//!
//! Everything is **seed-driven**: a [`FaultProxy`] resolves each
//! fault's cut point from `splitmix_seed(seed, conn_index)` (the same
//! SplitMix64 derivation the repair kernels use for their row
//! streams), so a chaos scenario replays byte-for-byte from its seed
//! alone. `tests/chaos.rs` leans on this to assert the daemon survives
//! every scripted fault *and* that any repair which succeeds through
//! the proxy is byte-identical to an offline apply.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use otr_par::splitmix_seed;

/// How often proxy pumps wake to check the stop flag.
const PUMP_POLL: Duration = Duration::from_millis(50);

/// A half-open byte range `[lo, hi)` that a seeded draw resolves to a
/// single offset: `lo + draw % (hi - lo)`. Spans let a scenario say
/// "cut somewhere inside the response payload" while the *exact* cut
/// stays a pure function of the proxy seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Inclusive lower bound (bytes forwarded before the fault fires).
    pub lo: u64,
    /// Exclusive upper bound; must be `> lo`.
    pub hi: u64,
}

impl Span {
    /// The span covering exactly `[lo, hi)`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(hi > lo, "empty span [{lo}, {hi})");
        Self { lo, hi }
    }

    /// Resolve to a concrete offset with a seeded draw.
    fn resolve(self, draw: u64) -> u64 {
        self.lo + draw % (self.hi - self.lo)
    }
}

/// One scripted fault, applied to one proxied connection.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Forward everything untouched (a control connection).
    None,
    /// Forward client→server bytes up to a seeded offset in [`Span`],
    /// then close both directions: the server sees a truncated frame.
    TruncateRequest(Span),
    /// Forward server→client bytes up to a seeded offset, then close
    /// both directions: the client sees a mid-frame disconnect while
    /// the server completed its work.
    TruncateResponse(Span),
    /// Forward client→server bytes up to a seeded offset, then go
    /// silent *without* closing — the classic slow-loris shape the
    /// server's frame deadline exists for. At least one byte is always
    /// forwarded so the deadline clock arms.
    StallRequest(Span),
    /// Forward everything, but sleep `delay` before each client→server
    /// chunk: a slow network that should succeed within a generous
    /// deadline.
    DelayWrites {
        /// Sleep before each forwarded chunk.
        delay: Duration,
        /// Chunks to delay before reverting to full speed (bounds the
        /// total added latency).
        first_chunks: u32,
    },
    /// Replace the first bytes the client sends with garbage whose
    /// leading byte has its high bit forced on — never a valid `'O'`
    /// magic — so the server must answer `BadFrame` and close.
    GarbageHeader {
        /// How many leading bytes to corrupt (seeded content).
        bytes: usize,
    },
}

/// A seeded fault-injecting TCP proxy in front of one upstream server.
///
/// Connection `i` (0-based accept order) gets `script[i]`; connections
/// past the end of the script are forwarded clean, which is what lets
/// a retrying client recover: the retry's fresh connection falls off
/// the script.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicU64>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral loopback port forwarding to
    /// `upstream`. `script[i]` is the fault for the `i`-th accepted
    /// connection; `seed` resolves every [`Span`] and garbage byte.
    ///
    /// # Errors
    /// Propagates listener bind failures.
    pub fn spawn(upstream: SocketAddr, script: Vec<Fault>, seed: u64) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicU64::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                let index = accept_conns.fetch_add(1, Ordering::SeqCst);
                let fault = script.get(index as usize).cloned().unwrap_or(Fault::None);
                let draw = splitmix_seed(seed, index);
                let stop = Arc::clone(&accept_stop);
                pumps.push(std::thread::spawn(move || {
                    run_conn(client, upstream, &fault, draw, &stop);
                }));
                pumps.retain(|h| !h.is_finished());
            }
            for h in pumps {
                let _ = h.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.conns.load(Ordering::SeqCst)
    }

    /// Stop accepting and tear down every pump. Called by `Drop`;
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a pump does when its budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhausted {
    /// Close both halves (truncation / disconnect faults).
    Close,
    /// Keep the sockets open but forward nothing more (stall faults).
    Stall,
}

/// Per-direction forwarding policy, resolved from the connection's
/// fault and seed draw.
#[derive(Debug, Clone, Copy)]
struct PumpPlan {
    /// Bytes to forward before `exhausted` applies (`u64::MAX` =
    /// unlimited).
    budget: u64,
    exhausted: Exhausted,
    /// Sleep before each forwarded chunk, for the first
    /// `delay_chunks` chunks.
    delay: Option<Duration>,
    delay_chunks: u32,
}

impl PumpPlan {
    fn clean() -> Self {
        Self {
            budget: u64::MAX,
            exhausted: Exhausted::Close,
            delay: None,
            delay_chunks: 0,
        }
    }
}

/// Serve one proxied connection according to its fault.
fn run_conn(
    mut client: TcpStream,
    upstream: SocketAddr,
    fault: &Fault,
    draw: u64,
    stop: &Arc<AtomicBool>,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);

    // GarbageHeader corrupts the first client bytes *before* the
    // generic pumps take over.
    let mut c2s_plan = PumpPlan::clean();
    let mut s2c_plan = PumpPlan::clean();
    match fault {
        Fault::None => {}
        Fault::TruncateRequest(span) => {
            c2s_plan.budget = span.resolve(draw);
            c2s_plan.exhausted = Exhausted::Close;
        }
        Fault::TruncateResponse(span) => {
            s2c_plan.budget = span.resolve(draw);
            s2c_plan.exhausted = Exhausted::Close;
        }
        Fault::StallRequest(span) => {
            // Forward at least one byte so the server's frame-deadline
            // clock arms — a stall before any byte is just an idle
            // connection, which the deadline deliberately ignores.
            c2s_plan.budget = span.resolve(draw).max(1);
            c2s_plan.exhausted = Exhausted::Stall;
        }
        Fault::DelayWrites {
            delay,
            first_chunks,
        } => {
            c2s_plan.delay = Some(*delay);
            c2s_plan.delay_chunks = *first_chunks;
        }
        Fault::GarbageHeader { bytes } => {
            let mut server_w = match server.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let n = (*bytes).max(1);
            let mut garbage = Vec::with_capacity(n);
            for i in 0..n {
                let b = (splitmix_seed(draw, i as u64) & 0xFF) as u8;
                // Force the high bit on the lead byte: the protocol
                // magic starts with ASCII 'O' (0x4F, high bit clear),
                // so this can never alias a valid frame.
                garbage.push(if i == 0 { b | 0x80 } else { b });
            }
            if server_w.write_all(&garbage).is_err() {
                return;
            }
            // Swallow the same number of real client bytes so the
            // stream stays aligned (the server will close on the bad
            // magic regardless).
            c2s_plan.budget = 0;
            c2s_plan.exhausted = Exhausted::Stall;
            let mut sink = vec![0u8; n];
            let _ = client.set_read_timeout(Some(PUMP_POLL));
            let mut eaten = 0;
            while eaten < n && !stop.load(Ordering::SeqCst) {
                match client.read(&mut sink[eaten..]) {
                    Ok(0) => break,
                    Ok(k) => eaten += k,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
        }
    }

    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let c2s_stop = Arc::clone(stop);
    let s2c_stop = Arc::clone(stop);
    let server_w = server;
    let client_w = client;
    let c2s = std::thread::spawn(move || pump(client_r, server_w, c2s_plan, &c2s_stop));
    let s2c = std::thread::spawn(move || pump(server_r, client_w, s2c_plan, &s2c_stop));
    let _ = c2s.join();
    let _ = s2c.join();
}

/// Copy bytes `src → dst` under a [`PumpPlan`], polling `stop`.
fn pump(mut src: TcpStream, mut dst: TcpStream, plan: PumpPlan, stop: &Arc<AtomicBool>) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    let mut forwarded: u64 = 0;
    let mut chunks: u32 = 0;
    let mut buf = [0u8; 8 << 10];
    loop {
        if stop.load(Ordering::SeqCst) {
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        if forwarded >= plan.budget {
            match plan.exhausted {
                Exhausted::Close => {
                    // Both halves: a mid-frame disconnect, not a
                    // half-close the peer could ignore.
                    let _ = dst.shutdown(Shutdown::Both);
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                Exhausted::Stall => {
                    // Hold both sockets open, forward nothing: the
                    // peer's deadline (or our stop flag) ends this.
                    std::thread::sleep(PUMP_POLL);
                    continue;
                }
            }
        }
        // Never read past the budget: the bytes beyond it must stay
        // unforwarded, not buffered here.
        let want = (plan.budget - forwarded).min(buf.len() as u64) as usize;
        match src.read(&mut buf[..want]) {
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => {
                if let Some(delay) = plan.delay {
                    if chunks < plan.delay_chunks {
                        std::thread::sleep(delay);
                    }
                }
                chunks += 1;
                if dst.write_all(&buf[..n]).is_err() {
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                forwarded += n as u64;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_resolution_is_deterministic_and_in_range() {
        let span = Span::new(10, 50);
        for draw in [0u64, 1, 7, u64::MAX] {
            let a = span.resolve(draw);
            assert_eq!(a, span.resolve(draw));
            assert!((10..50).contains(&a), "draw={draw} → {a}");
        }
        // Different seeds reach different cut points somewhere.
        let hits: std::collections::HashSet<u64> = (0..64)
            .map(|i| span.resolve(splitmix_seed(99, i)))
            .collect();
        assert!(hits.len() > 1);
    }

    #[test]
    #[should_panic(expected = "empty span")]
    fn empty_span_rejected() {
        let _ = Span::new(5, 5);
    }
}
