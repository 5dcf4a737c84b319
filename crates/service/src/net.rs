//! TCP front-end for the service engine: threaded server, admission
//! control, and the socket replay client.
//!
//! # Topology
//!
//! ```text
//! clients ──► acceptor ──► connection threads (one per socket)
//!                              │ try_send            ╲ full → typed Busy
//!                              ▼
//!                    bounded admission queue
//!                              │ recv (FIFO)
//!                              ▼
//!                   dispatcher: JournaledEngine::submit, one op at a time
//!                              │
//!                              ▼
//!                     answer on the op's connection
//! ```
//!
//! # Why answers stay bit-identical to the in-process replay
//!
//! The engine's contract is: shardable ops (probes and preference
//! queries) may execute in any order between *barriers* (open, churn,
//! epoch, close), which serialize. One serial lane trivially honours
//! it, and it is the same lane every other front-end drives — the
//! dispatcher owns a [`JournaledEngine`](crate::JournaledEngine) and
//! calls `submit` once per admitted op, in admission order:
//!
//! * Probe side effects commute (memoized oracle, same-value board
//!   claims) and queries are pure reads, so the order in which several
//!   connections' shardable ops reach the queue is unobservable.
//! * Every op admitted before a barrier is fully applied before the
//!   world transition, because it was dequeued before it.
//! * Overload is refused *at admission*: a full queue answers a typed
//!   [`Response::Busy`](crate::Response::Busy) and executes nothing. An
//!   op that was accepted is never dropped.
//!
//! A single-op `execute` costs ~2 µs against a loopback round trip in
//! the tens of µs at best, so there is nothing for per-shard threads to
//! win here (DESIGN.md §4.14 has the measurements); the engine's shard
//! count only shapes its in-process batch flush.
//!
//! The `client` half adds the client side of the ordering argument: all
//! ops of a session ride one connection, opens are globally serialized,
//! and a session's barrier is only sent once its earlier ops are
//! answered.

mod client;
mod server;
mod stats;

pub use client::{
    replay_over_socket, replay_with_options, request_shutdown, request_stats, ReplayOptions,
    SocketReplay,
};
pub use server::{NetConfig, Server};
