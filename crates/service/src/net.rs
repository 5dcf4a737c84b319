//! Front-ends for the service engine: the TCP server with admission
//! control, the socket replay client, and the line transport behind
//! stdin `scored serve` ([`serve_lines`]). Both transports open their
//! pipeline with [`NetConfig::open_pipeline`] and only frame ops in and
//! answers out; dedupe, durability and the failure policy live in
//! [`JournaledEngine`](crate::JournaledEngine). The two stay separate
//! on purpose: the socket speaks length-prefixed frames and admits with
//! `try_send` (a full queue answers `Busy`), stdin speaks text lines in
//! blocking order, and shared framing code would branch on its caller.
//!
//! # Topology
//!
//! ```text
//! clients ──► acceptor (TCP_NODELAY) ──► connection threads (one per socket,
//!                              │                              buffered reads)
//!                              │ try_send        ╲ full → typed Busy ───┐
//!                              ▼                                        │
//!                    bounded admission queue                            │
//!                              │ try_recv (FIFO); empty → flush, recv   │
//!                              ▼                                        │
//!                   dispatcher: JournaledEngine::submit, one op at a time
//!                              │ append the answer frame                │
//!                              ▼                                        ▼
//!                   per-connection out-buffer {stream, out}  ◄── hello / busy / err /
//!                              │ one write per flush             stats / bye, flushed
//!                              ▼                                 at once
//!                           socket
//! ```
//!
//! # The reply path: one write per frame, no kernel timer
//!
//! A frame is assembled whole and written with one `write`
//! ([`write_frame`](crate::wire::write_frame)), and both ends set
//! `TCP_NODELAY`, so no answer ever waits for the peer's delayed ACK.
//! With Nagle off the kernel no longer merges a pipelined burst of small
//! answers into few segments, so the server does that itself and
//! deterministically: every server frame is appended to its
//! connection's out-buffer, and the dispatcher writes the buffers of
//! the connections it touched — one `write` each — whenever `try_recv`
//! finds the admission queue empty, before it blocks. One-outstanding
//! traffic sees an empty queue after every op, so its answer leaves at
//! once; a 64-deep window leaves as one write per burst. Frames from
//! the connection thread share the buffer and flush it immediately, so
//! only whole frames ever reach the socket. Buffered answers are
//! flushed before a halted pipeline severs the sockets and when the
//! dispatcher exits.
//!
//! # Why answers stay bit-identical to the in-process replay
//!
//! The engine's contract is: probes and preference queries are reads —
//! they may execute in any order between *barriers* (open, churn,
//! epoch, close), which serialize. One serial lane trivially honours
//! it, and it is the same lane every other front-end drives — the
//! dispatcher owns a [`JournaledEngine`](crate::JournaledEngine) and
//! calls `submit` once per admitted op, in admission order:
//!
//! * Probes and queries write nothing, so the order in which several
//!   connections' probes and queries reach the queue is unobservable.
//! * Every op admitted before a barrier is fully applied before the
//!   world transition, because it was dequeued before it.
//! * Overload is refused *at admission*: a full queue answers a typed
//!   [`Response::Busy`](crate::Response::Busy) and executes nothing. An
//!   op that was accepted is never dropped.
//!
//! A single-op `execute_one` costs ~2 µs against a loopback round trip
//! of ~70 µs, so there is nothing for worker threads to win here
//! (DESIGN.md §4.14 has the measurements).
//!
//! The `client` half adds the client side of the ordering argument: all
//! ops of a session ride one connection, opens are globally serialized,
//! and a session's barrier is only sent once its earlier ops are
//! answered.

mod client;
mod lines;
mod server;
mod stats;

pub use client::{
    replay_over_socket, replay_with_options, request_shutdown, request_stats, ReplayOptions,
    SocketReplay,
};
pub use lines::serve_lines;
pub use server::{NetConfig, Server};
