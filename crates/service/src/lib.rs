//! **byzscore-service** — scoring as a service.
//!
//! A resident engine ([`ServiceEngine`]) holds many concurrent scoring
//! sessions behind a typed request API ([`Request`]/[`Response`]):
//! open a world, submit probes, query computed preferences, churn the
//! population, advance the drift epoch, close. A batch's shardable ops
//! are bucketed over a fixed logical shard set keyed by the *group
//! graph* of the current scores — same-group players land in the same
//! bucket, and cross-shard preference queries merge per-shard partials
//! in request order. World transitions recompute scores incrementally
//! through the warm-start path (group-cache refresh + pooled select
//! machines) of `byzscore::Session::evolved`.
//!
//! Every front-end — the TCP server ([`net`]), the stdin loop, offline
//! compaction — drives the engine through one op pipeline,
//! [`JournaledEngine`]: dedupe lookup → journal append + fsync →
//! execute → dedupe record → compact if due, with or without a journal.
//!
//! The [`workload`] module generates seeded request traces and
//! round-trips them through the versioned `byzscore-trace/v1` file
//! format; a trace replays bit-identically at any thread count, which is
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
pub use engine::{ServiceEngine, DEFAULT_SHARDS, TAG_SERVICE};
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
