//! **byzscore-service** — scoring as a service.
//!
//! A resident engine ([`ServiceEngine`]) holds many concurrent scoring
//! sessions behind a typed request API ([`Request`]/[`Response`]):
//! open a world, submit probes, query computed preferences, churn the
//! population, advance the drift epoch, close. Requests are answered in
//! order, one at a time — the paper's model has no partitioning, and
//! probes and queries commute between world transitions anyway. Every world transition rescores the
//! session cold: `byzscore::Session::evolved` keeps the configuration and
//! swaps in the new world, and nothing else carries between runs.
//!
//! Every front-end — the TCP server and the stdin line transport
//! ([`net`]), offline compaction — drives the engine through one op
//! pipeline, [`JournaledEngine`]: dedupe lookup → journal append + fsync
//! → execute → dedupe record → compact if due, with or without a
//! journal, supervised so a panicking op answers `Retryable`.
//!
//! The [`workload`] module generates seeded request traces and
//! round-trips them through the versioned `byzscore-trace/v1` file
//! format; a trace replays bit-identically at any thread count and any
//! batch split, which is
//! what the `e17_service_throughput` benchmark and the determinism suite
//! gate on. The `scored` binary wraps generate/replay/serve for the
//! command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod engine;
pub mod fault;
pub mod journal;
pub mod net;
mod request;
pub mod wire;
pub mod workload;

pub use checkpoint::{CheckpointError, RecoverySource, CKPT_VERSION};
pub use engine::{ServiceEngine, DEFAULT_SHARDS};
pub use fault::{FaultKind, FaultPlan};
pub use journal::{
    CompactionPolicy, DedupeWindow, Journal, JournaledEngine, Recovered, RecoveryReport,
};
pub use net::{NetConfig, ReplayOptions, Server, SocketReplay};
pub use request::{
    combined_digest, mix, Request, Response, ServiceAlgorithm, ServiceError, SessionSpec,
};
pub use wire::{StatsSnapshot, MAX_FRAME_BYTES, WIRE_VERSION};
pub use workload::{
    format_op, parse_digests, parse_op, OpMix, Trace, TraceError, TraceSpec, TRACE_VERSION,
};
