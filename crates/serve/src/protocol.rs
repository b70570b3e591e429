//! The `otrepaird` wire protocol: length-prefixed binary frames over
//! TCP. The normative specification (framing, message catalogue, error
//! codes, versioning rules, and a hand-decoded example frame) lives in
//! `docs/protocol.md` at the workspace root; this module is its
//! executable form.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset 0  4 bytes   magic "OTRP" (0x4F 0x54 0x52 0x50)
//! offset 4  u8        protocol version (currently 3)
//! offset 5  u8        message type
//! offset 6  u16 BE    reserved, must be zero
//! offset 8  u32 BE    payload length N (≤ 1 GiB)
//! offset 12 N bytes   payload
//! ```
//!
//! All multi-byte integers are big-endian ("network byte order");
//! `f64` values travel as their IEEE-754 bit patterns in big-endian
//! `u64`s, so repaired features cross the wire **bit-exactly** — the
//! serving determinism contract (`docs/determinism.md`) is defined at
//! the `f64` bit level and the protocol must not round it away.

use otr_data::ColumnarDataset;

/// Frame magic: the ASCII bytes `OTRP`.
pub const MAGIC: [u8; 4] = *b"OTRP";
/// The protocol version this build speaks. Version 2 extended the
/// `ServerInfo` payload with the hardening counters; version 3 extended
/// it again with the drift-lifecycle counters and added the
/// `Watch`/`DriftStatus`/`Audit` message family (versioning rule V3
/// requires a bump for any schema change to an existing message; see
/// the version history in `docs/protocol.md`).
pub const PROTOCOL_VERSION: u8 = 3;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Maximum payload size (1 GiB): anything larger is a [`ErrorCode::BadFrame`].
pub const MAX_PAYLOAD: usize = 1 << 30;
/// Maximum plan/feature dimension accepted in an archive block.
pub const MAX_DIM: usize = 4096;

/// Request message types (client → server).
pub mod request_type {
    pub const PING: u8 = 0x01;
    pub const LOAD_PLAN: u8 = 0x02;
    pub const LIST_PLANS: u8 = 0x03;
    pub const EVICT_PLAN: u8 = 0x04;
    pub const REPAIR: u8 = 0x05;
    pub const INFO: u8 = 0x06;
    pub const WATCH: u8 = 0x07;
    pub const DRIFT_STATUS: u8 = 0x08;
    pub const AUDIT: u8 = 0x09;
}

/// Response message types (server → client).
pub mod response_type {
    pub const PONG: u8 = 0x81;
    pub const PLAN_LOADED: u8 = 0x82;
    pub const PLAN_LIST: u8 = 0x83;
    pub const PLAN_EVICTED: u8 = 0x84;
    pub const REPAIRED: u8 = 0x85;
    pub const SERVER_INFO: u8 = 0x86;
    pub const WATCHING: u8 = 0x87;
    pub const DRIFT_REPORT: u8 = 0x88;
    pub const AUDIT_RECORDS: u8 = 0x89;
    pub const ERROR: u8 = 0xFF;
}

/// Wire error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Framing is broken (bad magic, nonzero reserved bytes, oversized
    /// payload): the server closes the connection after this error.
    BadFrame = 1,
    /// The frame's version byte names a protocol this server does not
    /// speak. Framing itself was intact, so the connection survives.
    UnsupportedVersion = 2,
    /// Unknown message type (e.g. a newer client's request). The
    /// connection survives — versioning rule V2 in `docs/protocol.md`.
    UnknownType = 3,
    /// The payload did not decode as the message type's schema.
    BadPayload = 4,
    /// No plan registered under the requested name/version.
    UnknownPlan = 5,
    /// The plan failed structural validation (malformed JSON, bad name,
    /// version 0, wrong kind).
    PlanInvalid = 6,
    /// A plan is already registered under that name/version: versions
    /// are immutable once loaded (evict first to replace).
    VersionCollision = 7,
    /// The repair itself failed (e.g. archive/plan dimension mismatch).
    RepairFailed = 8,
    /// The server is at its `--max-conns` connection capacity. Sent as
    /// an immediate polite rejection on a fresh connection, which is
    /// then closed; retry with backoff (the condition is transient).
    Overloaded = 9,
    /// A frame took longer than the server's per-frame deadline to
    /// arrive, or a response write stalled past it (slow-loris
    /// defence). The connection closes after this error.
    DeadlineExceeded = 10,
    /// A request panicked inside the server. The panic is isolated to
    /// this connection (which closes); the daemon and its registry
    /// stay up.
    Internal = 11,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parse a wire error code (`None` for codes this build predates).
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => Self::BadFrame,
            2 => Self::UnsupportedVersion,
            3 => Self::UnknownType,
            4 => Self::BadPayload,
            5 => Self::UnknownPlan,
            6 => Self::PlanInvalid,
            7 => Self::VersionCollision,
            8 => Self::RepairFailed,
            9 => Self::Overloaded,
            10 => Self::DeadlineExceeded,
            11 => Self::Internal,
            _ => return None,
        })
    }
}

/// What kind of plan a registry entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// A per-feature [`otr_core::RepairPlan`] (any dimension).
    Scalar,
    /// A [`otr_core::JointRepairPlan`] over all `d ≥ 2` features at once.
    Joint,
}

impl PlanKind {
    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Scalar => 0,
            Self::Joint => 1,
        }
    }

    /// Parse the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Scalar),
            1 => Some(Self::Joint),
            _ => None,
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Scalar => "scalar",
            Self::Joint => "joint",
        })
    }
}

/// One registry entry as listed over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInfo {
    /// Registry name (validated: `[A-Za-z0-9._-]{1,64}`).
    pub name: String,
    /// Version (≥ 1; immutable once loaded).
    pub version: u32,
    /// Scalar or joint.
    pub kind: PlanKind,
    /// Feature dimension the plan repairs.
    pub dim: usize,
    /// Support resolution `nQ` (per dimension for joint plans).
    pub n_q: usize,
}

/// The `Info` response body: a snapshot of server state and policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub protocol_version: u8,
    /// Plans currently registered.
    pub plans: u32,
    /// Requests handled since startup (all types).
    pub requests: u64,
    /// Archive rows repaired since startup.
    pub rows_repaired: u64,
    /// Resolved shard count policy (contiguous row chunks per repair).
    pub shards: u32,
    /// Resolved worker-thread count.
    pub threads: u32,
    /// Connections accepted since startup (including ones later
    /// rejected by the governor).
    pub accepted: u64,
    /// Connections rejected with [`ErrorCode::Overloaded`] because the
    /// server was at `--max-conns` capacity.
    pub rejected_overload: u64,
    /// Connections killed with [`ErrorCode::DeadlineExceeded`] (a
    /// frame that never finished arriving, or a response write that
    /// stalled).
    pub deadline_kills: u64,
    /// Request panics caught and isolated to their connection.
    pub panics_caught: u64,
    /// The governor's connection cap (0 = unlimited).
    pub max_conns: u32,
    /// Drift watches currently armed (protocol v3).
    pub watches: u32,
    /// Drift-triggered hot swaps performed since startup (protocol v3).
    pub swaps: u64,
}

/// One `(u, k)` stratum's latest drift readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStratum {
    /// Unprotected group.
    pub u: u8,
    /// Feature index.
    pub k: u32,
    /// Symmetrized KL of the cumulative archive pmf vs the watched
    /// plan's research marginal, indexed by `s`.
    pub divergence: [f64; 2],
}

/// The `DriftStatus` response body: the watch's monitor state.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Plan version the monitor is armed against.
    pub version: u32,
    /// Archive rows folded into the monitor since it was (re-)armed.
    pub rows_seen: u64,
    /// Checkpoints evaluated.
    pub checks: u64,
    /// Current consecutive over-threshold checkpoint streak.
    pub consecutive: u32,
    /// Whether the monitor is tripped right now (a trip is normally
    /// consumed immediately by a hot swap, so a lasting `true` means
    /// the re-design failed — see `docs/operations.md`).
    pub tripped: bool,
    /// Hot swaps performed on this name so far.
    pub swaps: u64,
    /// Per-stratum divergences at the latest checkpoint.
    pub strata: Vec<DriftStratum>,
}

/// One `(u, k)` stratum's dependence before/after a hot swap: the
/// paper's per-stratum `E` (symmetrized KL between the two
/// `s`-conditional research marginals) under the parent plan's research
/// snapshot vs the re-designed plan's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditStratum {
    /// Unprotected group.
    pub u: u8,
    /// Feature index.
    pub k: u32,
    /// Stratum `E` recorded by the parent plan's marginals.
    pub e_before: f64,
    /// Stratum `E` recorded by the re-designed plan's marginals.
    pub e_after: f64,
}

/// One hot swap in a plan's audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Version the swap registered.
    pub version: u32,
    /// Version the re-design was warm-started from.
    pub parent: u32,
    /// Archive rows the monitor had folded when it tripped (the
    /// re-design's research set).
    pub rows_observed: u64,
    /// The monitor's worst per-stratum divergence at the trip.
    pub trigger_divergence: f64,
    /// Per-stratum `E` before/after.
    pub strata: Vec<AuditStratum>,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Load a plan (JSON artifact) into the registry under
    /// `name@version`.
    LoadPlan {
        kind: PlanKind,
        name: String,
        version: u32,
        json: String,
    },
    /// List registered plans.
    ListPlans,
    /// Evict `name@version` from the registry.
    EvictPlan { name: String, version: u32 },
    /// Repair an archive through `name@version` (`version = 0` means
    /// the highest loaded version) with the given base seed.
    Repair {
        name: String,
        version: u32,
        seed: u64,
        archive: ColumnarDataset,
    },
    /// Server state and policy snapshot.
    Info,
    /// Arm (or re-arm) a drift watch on the latest version of a scalar
    /// plan (protocol v3). Fields mirror `otr_core::DriftConfig`.
    Watch {
        name: String,
        threshold: f64,
        trips: u32,
        check_every: u64,
        min_rows: u64,
    },
    /// Read a watch's monitor state (protocol v3).
    DriftStatus { name: String },
    /// Read a watched plan's hot-swap audit trail (protocol v3).
    Audit { name: String },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    PlanLoaded,
    PlanList(Vec<PlanInfo>),
    PlanEvicted,
    /// Repaired feature columns (labels are unchanged by repair, so
    /// only features travel back) plus the out-of-range feature count
    /// (0 for joint plans, which do not track it).
    Repaired {
        out_of_range: u64,
        columns: Vec<Vec<f64>>,
    },
    Info(ServerInfo),
    /// A watch is armed; the version it monitors (protocol v3).
    Watching {
        version: u32,
    },
    /// A watch's monitor state (protocol v3).
    DriftReport(DriftReport),
    /// A watched plan's audit trail, oldest first (protocol v3).
    AuditRecords(Vec<AuditRecord>),
    Error {
        code: u16,
        message: String,
    },
}

/// A decode failure, split by blast radius.
#[derive(Debug)]
pub enum ProtoError {
    /// Framing is unrecoverable (bad magic / reserved bytes / oversize):
    /// close the connection.
    Frame(ErrorCode, String),
    /// The header was sound but this frame's content was not; later
    /// frames on the same connection are unaffected.
    Payload(ErrorCode, String),
}

impl ProtoError {
    /// The wire error code to report.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::Frame(code, _) | Self::Payload(code, _) => *code,
        }
    }

    /// Human-readable detail for the error frame.
    pub fn message(&self) -> &str {
        match self {
            Self::Frame(_, m) | Self::Payload(_, m) => m,
        }
    }

    /// True when the connection's framing can no longer be trusted.
    pub fn is_fatal(&self) -> bool {
        matches!(self, Self::Frame(..))
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error {:?}: {}", self.code(), self.message())
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// Encode a frame header for `msg_type` with an `n`-byte payload.
///
/// # Panics
/// `n` must respect [`MAX_PAYLOAD`] (callers build payloads, so this is
/// a programming error, not a wire condition).
pub fn encode_header(msg_type: u8, n: usize) -> [u8; HEADER_LEN] {
    assert!(n <= MAX_PAYLOAD, "payload of {n} bytes exceeds MAX_PAYLOAD");
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = PROTOCOL_VERSION;
    h[5] = msg_type;
    // h[6..8] reserved = 0
    h[8..12].copy_from_slice(&(n as u32).to_be_bytes());
    h
}

/// Validate a frame header, returning `(msg_type, payload_len)`.
///
/// # Errors
/// [`ProtoError::Frame`] on bad magic, nonzero reserved bytes, or an
/// oversized payload; [`ProtoError::Payload`] with
/// [`ErrorCode::UnsupportedVersion`] on a version byte this build does
/// not speak (the payload length is still returned so the caller can
/// skip the frame and keep the connection).
pub fn decode_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize), ProtoError> {
    if h[..4] != MAGIC {
        return Err(ProtoError::Frame(
            ErrorCode::BadFrame,
            format!("bad magic {:02x?} (expected \"OTRP\")", &h[..4]),
        ));
    }
    if h[6] != 0 || h[7] != 0 {
        return Err(ProtoError::Frame(
            ErrorCode::BadFrame,
            "reserved header bytes must be zero".into(),
        ));
    }
    let n = u32::from_be_bytes([h[8], h[9], h[10], h[11]]) as usize;
    if n > MAX_PAYLOAD {
        return Err(ProtoError::Frame(
            ErrorCode::BadFrame,
            format!("payload of {n} bytes exceeds the 1 GiB cap"),
        ));
    }
    if h[4] != PROTOCOL_VERSION {
        return Err(ProtoError::Payload(
            ErrorCode::UnsupportedVersion,
            format!(
                "protocol version {} (this server speaks {PROTOCOL_VERSION})",
                h[4]
            ),
        ));
    }
    Ok((h[5], n))
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

fn put_str16(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Sequential big-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bad(what: &str) -> ProtoError {
        ProtoError::Payload(ErrorCode::BadPayload, format!("truncated payload: {what}"))
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::bad(what))?;
        if end > self.buf.len() {
            return Err(Self::bad(what));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ProtoError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str16(&mut self, what: &str) -> Result<String, ProtoError> {
        let n = self.u16(what)? as usize;
        let bytes = self.bytes(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Payload(ErrorCode::BadPayload, format!("{what} is not UTF-8")))
    }

    /// Remaining unread bytes, consuming them.
    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn finish(&self, what: &str) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Payload(
                ErrorCode::BadPayload,
                format!(
                    "{what}: {} trailing bytes after the message body",
                    self.buf.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

/// Append `columns` as big-endian `f64` bit patterns, one bulk pass per
/// column.
fn put_f64_columns(out: &mut Vec<u8>, columns: &[Vec<f64>]) {
    for col in columns {
        let start = out.len();
        out.resize(start + 8 * col.len(), 0);
        for (dst, v) in out[start..].chunks_exact_mut(8).zip(col) {
            dst.copy_from_slice(&v.to_bits().to_be_bytes());
        }
    }
}

/// Encode a `Repair` request straight from a borrowed archive — the one
/// encoder [`Request::encode`] and [`crate::Client::repair`] share.
/// Archive block: `dim u32 | rows u32 | s bytes | u bytes | dim × (rows
/// × f64-bits u64)`.
pub(crate) fn encode_repair(
    name: &str,
    version: u32,
    seed: u64,
    archive: &ColumnarDataset,
) -> (u8, Vec<u8>) {
    let mut p = Vec::with_capacity(24 + name.len() + archive.len() * (2 + 8 * archive.dim()));
    put_str16(&mut p, name);
    p.extend_from_slice(&version.to_be_bytes());
    p.extend_from_slice(&seed.to_be_bytes());
    p.extend_from_slice(&(archive.dim() as u32).to_be_bytes());
    p.extend_from_slice(&(archive.len() as u32).to_be_bytes());
    p.extend_from_slice(archive.s());
    p.extend_from_slice(archive.u());
    put_f64_columns(&mut p, archive.feature_columns());
    (request_type::REPAIR, p)
}

fn archive_get(r: &mut Reader<'_>) -> Result<ColumnarDataset, ProtoError> {
    let dim = r.u32("archive dim")? as usize;
    let rows = r.u32("archive rows")? as usize;
    if dim == 0 || dim > MAX_DIM {
        return Err(ProtoError::Payload(
            ErrorCode::BadPayload,
            format!("archive dimension {dim} outside 1..={MAX_DIM}"),
        ));
    }
    // Reject row counts the remaining payload cannot possibly hold
    // before allocating anything proportional to them.
    let need = rows
        .checked_mul(2 + 8 * dim)
        .ok_or_else(|| Reader::bad("archive size"))?;
    if r.buf.len() - r.pos < need {
        return Err(Reader::bad("archive body"));
    }
    let s = r.bytes(rows, "archive s column")?;
    let u = r.bytes(rows, "archive u column")?;
    let features = r.bytes(8 * rows * dim, "archive feature columns")?;
    // Decoding and validation share one pass per column.
    ColumnarDataset::from_be_bytes(dim, s, u, features)
        .map_err(|e| ProtoError::Payload(ErrorCode::BadPayload, format!("invalid archive: {e}")))
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

impl Request {
    /// Encode as `(message type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Self::Ping => (request_type::PING, Vec::new()),
            Self::LoadPlan {
                kind,
                name,
                version,
                json,
            } => {
                let mut p = Vec::with_capacity(json.len() + name.len() + 8);
                p.push(kind.as_u8());
                put_str16(&mut p, name);
                p.extend_from_slice(&version.to_be_bytes());
                p.extend_from_slice(json.as_bytes());
                (request_type::LOAD_PLAN, p)
            }
            Self::ListPlans => (request_type::LIST_PLANS, Vec::new()),
            Self::EvictPlan { name, version } => {
                let mut p = Vec::new();
                put_str16(&mut p, name);
                p.extend_from_slice(&version.to_be_bytes());
                (request_type::EVICT_PLAN, p)
            }
            Self::Repair {
                name,
                version,
                seed,
                archive,
            } => encode_repair(name, *version, *seed, archive),
            Self::Info => (request_type::INFO, Vec::new()),
            Self::Watch {
                name,
                threshold,
                trips,
                check_every,
                min_rows,
            } => {
                let mut p = Vec::with_capacity(26 + name.len());
                put_str16(&mut p, name);
                put_f64(&mut p, *threshold);
                p.extend_from_slice(&trips.to_be_bytes());
                p.extend_from_slice(&check_every.to_be_bytes());
                p.extend_from_slice(&min_rows.to_be_bytes());
                (request_type::WATCH, p)
            }
            Self::DriftStatus { name } => {
                let mut p = Vec::new();
                put_str16(&mut p, name);
                (request_type::DRIFT_STATUS, p)
            }
            Self::Audit { name } => {
                let mut p = Vec::new();
                put_str16(&mut p, name);
                (request_type::AUDIT, p)
            }
        }
    }

    /// Decode a request from its message type and payload.
    ///
    /// # Errors
    /// [`ErrorCode::UnknownType`] for types this build does not know;
    /// [`ErrorCode::BadPayload`] for undecodable bodies.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let req = match msg_type {
            request_type::PING => Self::Ping,
            request_type::LOAD_PLAN => {
                let kind_byte = r.u8("plan kind")?;
                let kind = PlanKind::from_u8(kind_byte).ok_or_else(|| {
                    ProtoError::Payload(
                        ErrorCode::BadPayload,
                        format!("unknown plan kind {kind_byte}"),
                    )
                })?;
                let name = r.str16("plan name")?;
                let version = r.u32("plan version")?;
                let json = String::from_utf8(r.rest().to_vec()).map_err(|_| {
                    ProtoError::Payload(ErrorCode::BadPayload, "plan JSON is not UTF-8".into())
                })?;
                Self::LoadPlan {
                    kind,
                    name,
                    version,
                    json,
                }
            }
            request_type::LIST_PLANS => Self::ListPlans,
            request_type::EVICT_PLAN => Self::EvictPlan {
                name: r.str16("plan name")?,
                version: r.u32("plan version")?,
            },
            request_type::REPAIR => {
                let name = r.str16("plan name")?;
                let version = r.u32("plan version")?;
                let seed = r.u64("seed")?;
                let archive = archive_get(&mut r)?;
                Self::Repair {
                    name,
                    version,
                    seed,
                    archive,
                }
            }
            request_type::INFO => Self::Info,
            request_type::WATCH => Self::Watch {
                name: r.str16("plan name")?,
                threshold: r.f64("drift threshold")?,
                trips: r.u32("drift trips")?,
                check_every: r.u64("drift check_every")?,
                min_rows: r.u64("drift min_rows")?,
            },
            request_type::DRIFT_STATUS => Self::DriftStatus {
                name: r.str16("plan name")?,
            },
            request_type::AUDIT => Self::Audit {
                name: r.str16("plan name")?,
            },
            other => {
                return Err(ProtoError::Payload(
                    ErrorCode::UnknownType,
                    format!("unknown request type 0x{other:02x}"),
                ))
            }
        };
        r.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Encode as `(message type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Self::Pong => (response_type::PONG, Vec::new()),
            Self::PlanLoaded => (response_type::PLAN_LOADED, Vec::new()),
            Self::PlanList(entries) => {
                let mut p = Vec::new();
                p.extend_from_slice(&(entries.len() as u32).to_be_bytes());
                for e in entries {
                    p.push(e.kind.as_u8());
                    put_str16(&mut p, &e.name);
                    p.extend_from_slice(&e.version.to_be_bytes());
                    p.extend_from_slice(&(e.dim as u32).to_be_bytes());
                    p.extend_from_slice(&(e.n_q as u32).to_be_bytes());
                }
                (response_type::PLAN_LIST, p)
            }
            Self::PlanEvicted => (response_type::PLAN_EVICTED, Vec::new()),
            Self::Repaired {
                out_of_range,
                columns,
            } => {
                let rows = columns.first().map_or(0, Vec::len);
                let mut p = Vec::with_capacity(16 + columns.len() * rows * 8);
                p.extend_from_slice(&out_of_range.to_be_bytes());
                p.extend_from_slice(&(columns.len() as u32).to_be_bytes());
                p.extend_from_slice(&(rows as u32).to_be_bytes());
                put_f64_columns(&mut p, columns);
                (response_type::REPAIRED, p)
            }
            Self::Info(info) => {
                let mut p = Vec::with_capacity(65);
                p.push(info.protocol_version);
                p.extend_from_slice(&info.plans.to_be_bytes());
                p.extend_from_slice(&info.requests.to_be_bytes());
                p.extend_from_slice(&info.rows_repaired.to_be_bytes());
                p.extend_from_slice(&info.shards.to_be_bytes());
                p.extend_from_slice(&info.threads.to_be_bytes());
                p.extend_from_slice(&info.accepted.to_be_bytes());
                p.extend_from_slice(&info.rejected_overload.to_be_bytes());
                p.extend_from_slice(&info.deadline_kills.to_be_bytes());
                p.extend_from_slice(&info.panics_caught.to_be_bytes());
                p.extend_from_slice(&info.max_conns.to_be_bytes());
                p.extend_from_slice(&info.watches.to_be_bytes());
                p.extend_from_slice(&info.swaps.to_be_bytes());
                (response_type::SERVER_INFO, p)
            }
            Self::Watching { version } => (response_type::WATCHING, version.to_be_bytes().to_vec()),
            Self::DriftReport(report) => {
                let mut p = Vec::with_capacity(33 + report.strata.len() * 21);
                p.extend_from_slice(&report.version.to_be_bytes());
                p.extend_from_slice(&report.rows_seen.to_be_bytes());
                p.extend_from_slice(&report.checks.to_be_bytes());
                p.extend_from_slice(&report.consecutive.to_be_bytes());
                p.push(u8::from(report.tripped));
                p.extend_from_slice(&report.swaps.to_be_bytes());
                p.extend_from_slice(&(report.strata.len() as u32).to_be_bytes());
                for st in &report.strata {
                    p.push(st.u);
                    p.extend_from_slice(&st.k.to_be_bytes());
                    put_f64(&mut p, st.divergence[0]);
                    put_f64(&mut p, st.divergence[1]);
                }
                (response_type::DRIFT_REPORT, p)
            }
            Self::AuditRecords(records) => {
                let mut p = Vec::new();
                p.extend_from_slice(&(records.len() as u32).to_be_bytes());
                for rec in records {
                    p.extend_from_slice(&rec.version.to_be_bytes());
                    p.extend_from_slice(&rec.parent.to_be_bytes());
                    p.extend_from_slice(&rec.rows_observed.to_be_bytes());
                    put_f64(&mut p, rec.trigger_divergence);
                    p.extend_from_slice(&(rec.strata.len() as u32).to_be_bytes());
                    for st in &rec.strata {
                        p.push(st.u);
                        p.extend_from_slice(&st.k.to_be_bytes());
                        put_f64(&mut p, st.e_before);
                        put_f64(&mut p, st.e_after);
                    }
                }
                (response_type::AUDIT_RECORDS, p)
            }
            Self::Error { code, message } => {
                let mut p = Vec::with_capacity(2 + message.len());
                p.extend_from_slice(&code.to_be_bytes());
                p.extend_from_slice(message.as_bytes());
                (response_type::ERROR, p)
            }
        }
    }

    /// Decode a response from its message type and payload.
    ///
    /// # Errors
    /// Same taxonomy as [`Request::decode`].
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let resp = match msg_type {
            response_type::PONG => Self::Pong,
            response_type::PLAN_LOADED => Self::PlanLoaded,
            response_type::PLAN_LIST => {
                let count = r.u32("plan count")? as usize;
                let mut entries = Vec::new();
                for _ in 0..count {
                    let kind_byte = r.u8("plan kind")?;
                    let kind = PlanKind::from_u8(kind_byte).ok_or_else(|| {
                        ProtoError::Payload(
                            ErrorCode::BadPayload,
                            format!("unknown plan kind {kind_byte}"),
                        )
                    })?;
                    entries.push(PlanInfo {
                        kind,
                        name: r.str16("plan name")?,
                        version: r.u32("plan version")?,
                        dim: r.u32("plan dim")? as usize,
                        n_q: r.u32("plan n_q")? as usize,
                    });
                }
                Self::PlanList(entries)
            }
            response_type::PLAN_EVICTED => Self::PlanEvicted,
            response_type::REPAIRED => {
                let out_of_range = r.u64("out-of-range count")?;
                let dim = r.u32("repaired dim")? as usize;
                let rows = r.u32("repaired rows")? as usize;
                if dim > MAX_DIM {
                    return Err(ProtoError::Payload(
                        ErrorCode::BadPayload,
                        format!("repaired dimension {dim} exceeds {MAX_DIM}"),
                    ));
                }
                let need = rows
                    .checked_mul(8 * dim)
                    .ok_or_else(|| Reader::bad("repaired size"))?;
                let body = r.bytes(need, "repaired body")?;
                let be_f64 = |b: &[u8]| {
                    f64::from_bits(u64::from_be_bytes(b.try_into().expect("8-byte chunk")))
                };
                let column = |k| body[8 * rows * k..][..8 * rows].chunks_exact(8).map(be_f64);
                let columns = (0..dim).map(|k| column(k).collect()).collect();
                Self::Repaired {
                    out_of_range,
                    columns,
                }
            }
            response_type::SERVER_INFO => Self::Info(ServerInfo {
                protocol_version: r.u8("protocol version")?,
                plans: r.u32("plan count")?,
                requests: r.u64("request count")?,
                rows_repaired: r.u64("rows repaired")?,
                shards: r.u32("shards")?,
                threads: r.u32("threads")?,
                accepted: r.u64("accepted count")?,
                rejected_overload: r.u64("overload rejections")?,
                deadline_kills: r.u64("deadline kills")?,
                panics_caught: r.u64("panics caught")?,
                max_conns: r.u32("max conns")?,
                watches: r.u32("watch count")?,
                swaps: r.u64("swap count")?,
            }),
            response_type::WATCHING => Self::Watching {
                version: r.u32("watched version")?,
            },
            response_type::DRIFT_REPORT => {
                let version = r.u32("watched version")?;
                let rows_seen = r.u64("rows seen")?;
                let checks = r.u64("checkpoint count")?;
                let consecutive = r.u32("streak")?;
                let tripped = r.u8("tripped flag")? != 0;
                let swaps = r.u64("swap count")?;
                let count = r.u32("stratum count")? as usize;
                if count > 2 * MAX_DIM {
                    return Err(ProtoError::Payload(
                        ErrorCode::BadPayload,
                        format!("drift stratum count {count} exceeds {}", 2 * MAX_DIM),
                    ));
                }
                let mut strata = Vec::with_capacity(count);
                for _ in 0..count {
                    strata.push(DriftStratum {
                        u: r.u8("stratum u")?,
                        k: r.u32("stratum k")?,
                        divergence: [r.f64("divergence s=0")?, r.f64("divergence s=1")?],
                    });
                }
                Self::DriftReport(DriftReport {
                    version,
                    rows_seen,
                    checks,
                    consecutive,
                    tripped,
                    swaps,
                    strata,
                })
            }
            response_type::AUDIT_RECORDS => {
                let count = r.u32("audit record count")? as usize;
                let mut records = Vec::new();
                for _ in 0..count {
                    let version = r.u32("audit version")?;
                    let parent = r.u32("audit parent")?;
                    let rows_observed = r.u64("audit rows")?;
                    let trigger_divergence = r.f64("audit trigger")?;
                    let n = r.u32("audit stratum count")? as usize;
                    if n > 2 * MAX_DIM {
                        return Err(ProtoError::Payload(
                            ErrorCode::BadPayload,
                            format!("audit stratum count {n} exceeds {}", 2 * MAX_DIM),
                        ));
                    }
                    let mut strata = Vec::with_capacity(n);
                    for _ in 0..n {
                        strata.push(AuditStratum {
                            u: r.u8("stratum u")?,
                            k: r.u32("stratum k")?,
                            e_before: r.f64("e before")?,
                            e_after: r.f64("e after")?,
                        });
                    }
                    records.push(AuditRecord {
                        version,
                        parent,
                        rows_observed,
                        trigger_divergence,
                        strata,
                    });
                }
                Self::AuditRecords(records)
            }
            response_type::ERROR => Self::Error {
                code: r.u16("error code")?,
                message: String::from_utf8_lossy(r.rest()).into_owned(),
            },
            other => {
                return Err(ProtoError::Payload(
                    ErrorCode::UnknownType,
                    format!("unknown response type 0x{other:02x}"),
                ))
            }
        };
        r.finish("response")?;
        Ok(resp)
    }
}

/// Write one complete frame.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_frame<W: std::io::Write>(
    w: &mut W,
    msg_type: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(&encode_header(msg_type, payload.len()))?;
    w.write_all(payload)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otr_data::Dataset;
    use otr_data::LabelledPoint;

    fn archive() -> ColumnarDataset {
        let pts = vec![
            LabelledPoint {
                x: vec![0.25, -1.5],
                s: 0,
                u: 1,
            },
            LabelledPoint {
                x: vec![1e-300, 4.0],
                s: 1,
                u: 0,
            },
            LabelledPoint {
                x: vec![-0.0, 3.75],
                s: 1,
                u: 1,
            },
        ];
        ColumnarDataset::from_dataset(&Dataset::from_points(pts).unwrap())
    }

    fn round_trip_request(req: Request) -> Request {
        let (t, p) = req.encode();
        Request::decode(t, &p).unwrap()
    }

    fn round_trip_response(resp: Response) -> Response {
        let (t, p) = resp.encode();
        Response::decode(t, &p).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ping,
            Request::ListPlans,
            Request::Info,
            Request::LoadPlan {
                kind: PlanKind::Joint,
                name: "adult@prod".into(),
                version: 3,
                json: "{\"x\": [1, 2]}".into(),
            },
            Request::EvictPlan {
                name: "n".into(),
                version: 1,
            },
            Request::Repair {
                name: "plan-a".into(),
                version: 0,
                seed: u64::MAX,
                archive: archive(),
            },
            Request::Watch {
                name: "census".into(),
                threshold: 0.5,
                trips: 2,
                check_every: 256,
                min_rows: 512,
            },
            Request::DriftStatus {
                name: "census".into(),
            },
            Request::Audit {
                name: "census".into(),
            },
        ] {
            assert_eq!(round_trip_request(req.clone()), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::PlanLoaded,
            Response::PlanEvicted,
            Response::PlanList(vec![
                PlanInfo {
                    name: "a".into(),
                    version: 1,
                    kind: PlanKind::Scalar,
                    dim: 2,
                    n_q: 50,
                },
                PlanInfo {
                    name: "b".into(),
                    version: 7,
                    kind: PlanKind::Joint,
                    dim: 2,
                    n_q: 24,
                },
            ]),
            Response::Repaired {
                out_of_range: 9,
                columns: vec![vec![1.5, -0.0, f64::MIN_POSITIVE], vec![0.0, 2.0, 3.0]],
            },
            Response::Info(ServerInfo {
                protocol_version: PROTOCOL_VERSION,
                plans: 2,
                requests: 100,
                rows_repaired: 12345,
                shards: 4,
                threads: 8,
                accepted: 17,
                rejected_overload: 3,
                deadline_kills: 2,
                panics_caught: 1,
                max_conns: 256,
                watches: 1,
                swaps: 4,
            }),
            Response::Watching { version: 7 },
            Response::DriftReport(DriftReport {
                version: 7,
                rows_seen: 4096,
                checks: 16,
                consecutive: 1,
                tripped: false,
                swaps: 2,
                strata: vec![
                    DriftStratum {
                        u: 0,
                        k: 0,
                        divergence: [0.125, 0.75],
                    },
                    DriftStratum {
                        u: 1,
                        k: 1,
                        divergence: [0.0, 1e-9],
                    },
                ],
            }),
            Response::AuditRecords(vec![AuditRecord {
                version: 8,
                parent: 7,
                rows_observed: 4096,
                trigger_divergence: 1.5,
                strata: vec![AuditStratum {
                    u: 1,
                    k: 0,
                    e_before: 2.25,
                    e_after: 0.0625,
                }],
            }]),
            Response::Error {
                code: ErrorCode::UnknownPlan.as_u16(),
                message: "no plan x@1".into(),
            },
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn floats_cross_the_wire_bit_exactly() {
        // -0.0 vs 0.0, subnormals, and a signalling-NaN-adjacent pattern
        // all survive: the contract is at the bit level.
        let cols = vec![vec![-0.0, f64::MIN_POSITIVE / 2.0, 1e308]];
        let resp = Response::Repaired {
            out_of_range: 0,
            columns: cols.clone(),
        };
        let Response::Repaired { columns, .. } = round_trip_response(resp) else {
            panic!("wrong variant");
        };
        for (a, b) in cols[0].iter().zip(&columns[0]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let h = encode_header(request_type::PING, 5);
        assert_eq!(decode_header(&h).unwrap(), (request_type::PING, 5));

        let mut bad_magic = h;
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_header(&bad_magic),
            Err(ProtoError::Frame(ErrorCode::BadFrame, _))
        ));

        let mut bad_reserved = h;
        bad_reserved[6] = 1;
        assert!(decode_header(&bad_reserved).is_err());

        let mut bad_version = h;
        bad_version[4] = 9;
        let err = decode_header(&bad_version).unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnsupportedVersion);
        assert!(!err.is_fatal(), "version mismatch must not kill framing");

        let mut oversized = h;
        oversized[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_header(&oversized).unwrap_err().is_fatal());
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let (t, p) = Request::Repair {
            name: "x".into(),
            version: 1,
            seed: 7,
            archive: archive(),
        }
        .encode();
        // Any strict prefix fails cleanly as BadPayload.
        for cut in [0usize, 3, p.len() / 2, p.len() - 1] {
            let err = Request::decode(t, &p[..cut]).unwrap_err();
            assert_eq!(err.code(), ErrorCode::BadPayload, "cut at {cut}");
            assert!(!err.is_fatal());
        }
        // Trailing garbage is an error, not silently ignored.
        let mut long = p.clone();
        long.push(0);
        assert!(Request::decode(t, &long).is_err());
        // Unknown request type is recoverable.
        let err = Request::decode(0x7E, &[]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnknownType);
        assert!(!err.is_fatal());
    }

    #[test]
    fn archive_with_bad_labels_rejected() {
        let good = archive();
        let (t, p) = Request::Repair {
            name: "x".into(),
            version: 1,
            seed: 7,
            archive: good.clone(),
        }
        .encode();
        // Corrupt the first s label (offset: name str16 (3) + version
        // (4) + seed (8) + dim (4) + rows (4) = 23).
        let mut bad = p;
        bad[23] = 9;
        let err = Request::decode(t, &bad).unwrap_err();
        assert_eq!(err.code(), ErrorCode::BadPayload);
    }

    #[test]
    fn error_code_round_trip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownType,
            ErrorCode::BadPayload,
            ErrorCode::UnknownPlan,
            ErrorCode::PlanInvalid,
            ErrorCode::VersionCollision,
            ErrorCode::RepairFailed,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(999), None);
    }
}
