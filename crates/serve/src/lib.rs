//! Repair-as-a-service: the `otrepaird` server, its plan registry, and
//! the wire protocol — OT fairness repair (Langbridge, Quinn &
//! Shawe-Taylor, ICDE 2024) behind a socket.
//!
//! The offline flow designs a [`otr_core::RepairPlan`] once from
//! research data, then applies it to archives with `otrepair apply`.
//! This crate keeps those designed plans **hot**: a long-running daemon
//! holds a [`registry::PlanRegistry`] of named, versioned, validated
//! plans and repairs incoming archives over a minimal length-prefixed
//! binary protocol ([`protocol`]) — no per-archive process spawn, no
//! re-parsing plan JSON per request.
//!
//! The load-bearing property is **serving determinism**: the server
//! shards every archive into contiguous row chunks for its worker
//! pool, but because row `i` always draws from its own SplitMix64
//! stream keyed by the *absolute* row index
//! ([`otr_core::RepairPlan::repair_columnar_into`]) and each shard
//! writes only its own row range of the one response buffer, the
//! response bytes are a pure function of `(plan, seed, archive)`. Same
//! seed + same plan ⇒ same bytes, whatever the shard layout, thread
//! count, or client interleaving — and byte-identical to an offline
//! `otrepair apply`. The derivation lives in `docs/determinism.md`;
//! `tests/serve.rs` pins it. A served scalar repair writes each
//! feature value three times: decode (fused with validation), the
//! in-place kernel, and the response encode.
//!
//! Everything here is plain `std` (`TcpListener` + threads): the
//! workspace vendors its few dependencies, and a repair server has no
//! need for an async runtime — repair is CPU-bound and the sharded
//! executor already saturates the cores.

pub mod client;
pub mod daemon;
pub mod faults;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{Client, ClientError, Repaired, RetryPolicy, RetryingClient};
pub use faults::{Fault, FaultProxy, Span};
pub use protocol::{
    AuditRecord, AuditStratum, DriftReport, DriftStratum, ErrorCode, PlanInfo, PlanKind,
    ProtoError, ServerInfo, PROTOCOL_VERSION,
};
pub use registry::{persist_plan, unpersist_plan, PlanRegistry, RegisteredPlan, RegistryError};
pub use server::{ServeConfig, Server, ServerHandle};
