//! A blocking `otrepaird` client: one frame out, one frame back, in
//! order. This is the client the CLI's `otrepair client` subcommands
//! wrap and the integration suite drives; any other implementation of
//! `docs/protocol.md` is equally valid.
//!
//! Two layers: [`Client`] is one connection with no policy, and
//! [`RetryingClient`] wraps it with transient-error classification
//! ([`ClientError::is_transient`]), bounded exponential backoff with
//! deterministic jitter, and an overall per-call deadline. Retrying is
//! safe *because* serving is deterministic: re-sending `(plan, seed,
//! archive)` can only ever produce the same bytes, so a repair retried
//! after a mid-frame disconnect is indistinguishable from one that
//! succeeded the first time.

use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use otr_data::ColumnarDataset;
use otr_par::splitmix_seed;

use crate::protocol::{
    decode_header, encode_repair, write_frame, AuditRecord, DriftReport, ErrorCode, PlanInfo,
    PlanKind, ProtoError, Request, Response, ServerInfo, HEADER_LEN, PAYLOAD_CHUNK,
};

use otr_core::DriftConfig;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol frame.
    Proto(ProtoError),
    /// The server answered with an error frame.
    Server { code: u16, message: String },
    /// The server answered with the wrong (but well-formed) response
    /// type for the request.
    Unexpected(String),
}

impl ClientError {
    /// The server-reported error code, when that's what this is.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            Self::Server { code, .. } => ErrorCode::from_u16(*code),
            _ => None,
        }
    }

    /// Whether retrying the same call on a fresh connection could
    /// plausibly succeed.
    ///
    /// Transport failures are transient (the daemon may have restarted,
    /// the connection may have been deadline-killed mid-response), as
    /// are the server's explicit back-off signals
    /// ([`ErrorCode::Overloaded`], [`ErrorCode::DeadlineExceeded`]).
    /// Everything else — malformed frames, unknown plans, shape
    /// mismatches, panics reported as [`ErrorCode::Internal`] — is
    /// permanent: the same request would fail the same way.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io(_) => true,
            Self::Server { .. } => matches!(
                self.server_code(),
                Some(ErrorCode::Overloaded | ErrorCode::DeadlineExceeded)
            ),
            Self::Proto(_) | Self::Unexpected(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport: {e}"),
            Self::Proto(e) => write!(f, "protocol: {e}"),
            Self::Server { code, message } => match ErrorCode::from_u16(*code) {
                Some(known) => write!(f, "server error {known:?}: {message}"),
                None => write!(f, "server error code {code}: {message}"),
            },
            Self::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}

/// A repaired archive as returned by [`Client::repair`].
#[derive(Debug, Clone)]
pub struct Repaired {
    /// Out-of-range feature count (0 for joint plans).
    pub out_of_range: u64,
    /// Repaired feature columns, bit-exact, in archive row order.
    pub columns: Vec<Vec<f64>>,
}

/// One connection to an `otrepaird` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Bound every socket read and write by `timeout` (`None` = block
    /// forever, the default). [`RetryingClient`] uses this to keep a
    /// single stalled round trip from eating its whole call deadline.
    ///
    /// # Errors
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Send one encoded request `(message type, payload)` and read the
    /// matching response frame; error frames become
    /// [`ClientError::Server`]. The payload buffer grows only as bytes
    /// arrive (from at most [`PAYLOAD_CHUNK`] reserved), so a header
    /// claiming a huge payload costs the server the bytes, not the
    /// client the memory; a short payload is an `UnexpectedEof`
    /// [`ClientError::Io`].
    fn expect(&mut self, (msg_type, payload): (u8, Vec<u8>)) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, msg_type, &payload)?;
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (msg_type, payload_len) = decode_header(&header)?;
        let mut payload = Vec::with_capacity(payload_len.min(PAYLOAD_CHUNK));
        (&mut self.stream)
            .take(payload_len as u64)
            .read_to_end(&mut payload)?;
        if payload.len() < payload_len {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            )));
        }
        match Response::decode(msg_type, &payload)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Transport, protocol, or server errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect(Request::Ping.encode())? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?} to Ping"))),
        }
    }

    /// Load a plan artifact into the server's registry as
    /// `name@version`.
    ///
    /// # Errors
    /// Transport, protocol, or server errors (e.g.
    /// [`ErrorCode::PlanInvalid`], [`ErrorCode::VersionCollision`]).
    pub fn load_plan(
        &mut self,
        kind: PlanKind,
        name: &str,
        version: u32,
        json: &str,
    ) -> Result<(), ClientError> {
        let req = Request::LoadPlan {
            kind,
            name: name.into(),
            version,
            json: json.into(),
        };
        match self.expect(req.encode())? {
            Response::PlanLoaded => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?} to LoadPlan"))),
        }
    }

    /// List the server's registered plans (name-then-version order).
    ///
    /// # Errors
    /// Transport, protocol, or server errors.
    pub fn list_plans(&mut self) -> Result<Vec<PlanInfo>, ClientError> {
        match self.expect(Request::ListPlans.encode())? {
            Response::PlanList(entries) => Ok(entries),
            other => Err(ClientError::Unexpected(format!("{other:?} to ListPlans"))),
        }
    }

    /// Evict `name@version` from the server's registry.
    ///
    /// # Errors
    /// Transport, protocol, or server errors
    /// ([`ErrorCode::UnknownPlan`] when absent).
    pub fn evict_plan(&mut self, name: &str, version: u32) -> Result<(), ClientError> {
        let req = Request::EvictPlan {
            name: name.into(),
            version,
        };
        match self.expect(req.encode())? {
            Response::PlanEvicted => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?} to EvictPlan"))),
        }
    }

    /// Repair an archive through `name@version` (`version = 0` = the
    /// server's latest) with the given base seed. The returned columns
    /// are byte-identical to an offline `otrepair apply` with the same
    /// plan and seed, whatever the server's shard/thread policy.
    ///
    /// # Errors
    /// Transport, protocol, or server errors
    /// ([`ErrorCode::RepairFailed`] on e.g. dimension mismatch).
    pub fn repair(
        &mut self,
        name: &str,
        version: u32,
        seed: u64,
        archive: &ColumnarDataset,
    ) -> Result<Repaired, ClientError> {
        match self.expect(encode_repair(name, version, seed, archive))? {
            Response::Repaired {
                out_of_range,
                columns,
            } => {
                if columns.len() != archive.dim()
                    || columns.iter().any(|c| c.len() != archive.len())
                {
                    return Err(ClientError::Unexpected(
                        "repaired shape disagrees with the submitted archive".into(),
                    ));
                }
                Ok(Repaired {
                    out_of_range,
                    columns,
                })
            }
            other => Err(ClientError::Unexpected(format!("{other:?} to Repair"))),
        }
    }

    /// Repair and rebuild the full archive (labels from the submitted
    /// archive, features from the server).
    ///
    /// # Errors
    /// Same as [`Self::repair`].
    pub fn repair_archive(
        &mut self,
        name: &str,
        version: u32,
        seed: u64,
        archive: &ColumnarDataset,
    ) -> Result<ColumnarDataset, ClientError> {
        let repaired = self.repair(name, version, seed, archive)?;
        archive
            .with_feature_columns(repaired.columns)
            .map_err(|e| ClientError::Unexpected(format!("repaired columns rejected: {e}")))
    }

    /// Fetch the server's state/policy snapshot.
    ///
    /// # Errors
    /// Transport, protocol, or server errors.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.expect(Request::Info.encode())? {
            Response::Info(info) => Ok(info),
            other => Err(ClientError::Unexpected(format!("{other:?} to Info"))),
        }
    }

    /// Arm (or re-arm) a drift watch on the latest version of `name`,
    /// returning the version the monitor is now armed against.
    ///
    /// # Errors
    /// Transport, protocol, or server errors ([`ErrorCode::UnknownPlan`]
    /// for unloaded names, [`ErrorCode::PlanInvalid`] for joint plans).
    pub fn watch(&mut self, name: &str, config: &DriftConfig) -> Result<u32, ClientError> {
        let req = Request::Watch {
            name: name.into(),
            threshold: config.threshold,
            trips: config.trips,
            check_every: config.check_every,
            min_rows: config.min_rows,
        };
        match self.expect(req.encode())? {
            Response::Watching { version } => Ok(version),
            other => Err(ClientError::Unexpected(format!("{other:?} to Watch"))),
        }
    }

    /// Fetch the drift watch's live state for `name`.
    ///
    /// # Errors
    /// Transport, protocol, or server errors ([`ErrorCode::UnknownPlan`]
    /// when no watch is armed on `name`).
    pub fn drift_status(&mut self, name: &str) -> Result<DriftReport, ClientError> {
        let req = Request::DriftStatus { name: name.into() };
        match self.expect(req.encode())? {
            Response::DriftReport(report) => Ok(report),
            other => Err(ClientError::Unexpected(format!("{other:?} to DriftStatus"))),
        }
    }

    /// Fetch the hot-swap audit trail for `name` (oldest first).
    ///
    /// # Errors
    /// Transport, protocol, or server errors ([`ErrorCode::UnknownPlan`]
    /// when no watch is armed on `name`).
    pub fn audit(&mut self, name: &str) -> Result<Vec<AuditRecord>, ClientError> {
        let req = Request::Audit { name: name.into() };
        match self.expect(req.encode())? {
            Response::AuditRecords(records) => Ok(records),
            other => Err(ClientError::Unexpected(format!("{other:?} to Audit"))),
        }
    }
}

/// Retry policy for [`RetryingClient`]: bounded attempts, capped
/// exponential backoff with deterministic jitter, optional per-call
/// deadline.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (`0` = single attempt;
    /// default 3 ⇒ up to 4 attempts).
    pub retries: u32,
    /// Base backoff before the first retry; attempt `k` waits
    /// `base × 2^k` (capped at [`RetryPolicy::backoff_max`]) ± jitter.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for the deterministic jitter stream. Jitter for retry `k`
    /// is drawn from `splitmix_seed(jitter_seed, k)` — same seed, same
    /// sleep schedule, so chaos tests replay exactly. Deployments
    /// wanting decorrelated clients pick distinct seeds.
    pub jitter_seed: u64,
    /// Overall wall-clock budget for one logical call, spanning every
    /// attempt and backoff sleep (`None` = unbounded). Also caps each
    /// attempt's socket I/O timeout at the remaining budget.
    pub call_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 3,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0,
            call_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based): capped exponential
    /// plus deterministic jitter in `[0, backoff/2)`.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_max);
        let half_ms = (exp.as_millis() / 2) as u64;
        let jitter_ms = if half_ms == 0 {
            0
        } else {
            splitmix_seed(self.jitter_seed, u64::from(attempt)) % half_ms
        };
        exp + Duration::from_millis(jitter_ms)
    }
}

/// A reconnecting, retrying `otrepaird` client.
///
/// Each call connects fresh, so a connection killed mid-frame (by a
/// fault, a deadline, or a daemon restart) costs one attempt, not the
/// client. Only [`ClientError::is_transient`] failures are retried;
/// permanent errors and exhausted budgets surface the *last* underlying
/// error unchanged.
///
/// One idempotency wrinkle: a `LoadPlan` whose response was lost may
/// have registered server-side, so a retry can answer
/// [`ErrorCode::VersionCollision`] for a plan this call just loaded.
/// [`RetryingClient::load_plan`] treats that collision *after a
/// transient failure on the same call* as success — the registry
/// rejects same-name re-registration, so the name@version in place is
/// the one this call sent.
#[derive(Debug, Clone)]
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
}

impl RetryingClient {
    /// A retrying client for `addr` under `policy`. No connection is
    /// made until the first call.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            policy,
        }
    }

    /// Run `op` — one or more [`Client`] calls, e.g.
    /// `client.call(|c| c.ping())` — against a fresh connection per
    /// attempt, retrying transient failures within the policy's attempt
    /// and deadline budgets.
    ///
    /// A retry re-runs the whole of `op` on a new connection. That is
    /// safe for the read-only requests (ping, info, plan listing, drift
    /// status, audit) and for two more:
    /// * [`Client::repair`] / [`Client::repair_archive`]: repair is
    ///   read-only on the server and bit-deterministic in
    ///   `(plan, seed, archive)`, so every attempt computes the same
    ///   bytes;
    /// * [`Client::watch`]: re-arming a watch is idempotent (audit trail
    ///   and swap count are preserved).
    ///
    /// Loading a plan needs a rule of its own: use [`Self::load_plan`].
    ///
    /// # Errors
    /// The last underlying error once retries or the deadline run out,
    /// or the first permanent one.
    pub fn call<T>(
        &self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let result = self.attempt_once(started, &mut op);
            let err = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            let out_of_attempts = attempt >= self.policy.retries;
            if out_of_attempts || !err.is_transient() {
                return Err(err);
            }
            let sleep = self.policy.backoff(attempt);
            if let Some(deadline) = self.policy.call_deadline {
                // Sleeping past the deadline cannot help: the next
                // attempt would have no I/O budget left.
                if started.elapsed() + sleep >= deadline {
                    return Err(err);
                }
            }
            std::thread::sleep(sleep);
            attempt += 1;
        }
    }

    /// One attempt: connect, cap socket I/O at the remaining call
    /// budget, run `op`.
    fn attempt_once<T>(
        &self,
        started: Instant,
        op: &mut impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let io_timeout = match self.policy.call_deadline {
            None => None,
            Some(deadline) => {
                let remaining = deadline.saturating_sub(started.elapsed());
                if remaining.is_zero() {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "call deadline exhausted before the attempt could start",
                    )));
                }
                Some(remaining)
            }
        };
        let mut client = Client::connect(&self.addr)?;
        client.set_io_timeout(io_timeout)?;
        op(&mut client)
    }

    /// Retrying [`Client::load_plan`], with lost-response idempotency:
    /// a [`ErrorCode::VersionCollision`] on a retry *after* a transient
    /// failure counts as success (the earlier attempt's load landed).
    ///
    /// # Errors
    /// The last underlying error once retries or the deadline run out.
    pub fn load_plan(
        &self,
        kind: PlanKind,
        name: &str,
        version: u32,
        json: &str,
    ) -> Result<(), ClientError> {
        let mut earlier_transient_failure = false;
        self.call(|c| match c.load_plan(kind, name, version, json) {
            Ok(()) => Ok(()),
            Err(e)
                if e.server_code() == Some(ErrorCode::VersionCollision)
                    && earlier_transient_failure =>
            {
                Ok(())
            }
            Err(e) => {
                earlier_transient_failure |= e.is_transient();
                Err(e)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        let io = ClientError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "x"));
        assert!(io.is_transient());
        for (code, transient) in [
            (ErrorCode::Overloaded, true),
            (ErrorCode::DeadlineExceeded, true),
            (ErrorCode::Internal, false),
            (ErrorCode::UnknownPlan, false),
            (ErrorCode::BadFrame, false),
        ] {
            let err = ClientError::Server {
                code: code.as_u16(),
                message: String::new(),
            };
            assert_eq!(err.is_transient(), transient, "{code:?}");
        }
        assert!(!ClientError::Unexpected("x".into()).is_transient());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let twin = policy.clone();
        for k in 0..8 {
            // Same seed ⇒ same schedule.
            assert_eq!(policy.backoff(k), twin.backoff(k));
            // Exponential base, capped, jitter < half the base term.
            let exp = policy
                .backoff_base
                .saturating_mul(1 << k.min(16))
                .min(policy.backoff_max);
            let b = policy.backoff(k);
            assert!(
                b >= exp && b < exp + exp / 2 + Duration::from_millis(1),
                "k={k}"
            );
        }
        // A different seed changes at least one sleep.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..RetryPolicy::default()
        };
        assert!((0..8).any(|k| other.backoff(k) != policy.backoff(k)));
    }
}
