//! `byzscore-wire/v1` — the length-prefixed frame protocol of the
//! socket front-end.
//!
//! # Framing
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text. A declared length above
//! [`MAX_FRAME_BYTES`] is a protocol violation — the stream cannot be
//! resynchronized after a lying prefix, so the peer answers a typed
//! `err` frame and closes; [`write_frame`] refuses to put one on the
//! wire in the first place. A frame is assembled whole and handed to
//! the socket in one `write`, so length prefix and payload never travel
//! as two segments. Everything *inside* a frame is text on purpose:
//! request payloads reuse the `byzscore-trace/v1` op lines (one
//! serialization to audit, and a recorded trace file is literally a
//! list of valid wire payloads), and responses use the line grammar
//! below, so a wire capture is human-readable end to end.
//!
//! # Envelopes
//!
//! The first frame each way is the version handshake
//! (`hello byzscore-wire/v1`). After that, client frames are
//! [`ClientFrame`]: `req <seq> <op line>`, `stats <seq>`, or
//! `shutdown <seq>`. Server frames are [`ServerFrame`]: `resp <seq>
//! <response line>`, `stats <seq> <k=v …>`, `bye <seq>`, or `err <seq>
//! <message>`. The `seq` is chosen by the client and echoed verbatim;
//! responses may come back in any order (a `Busy` refusal overtakes
//! the ops still queued ahead of it), and the sequence number is how
//! the client reassembles request order — nothing in the protocol
//! forces the server to answer in-order.
//!
//! # Determinism
//!
//! [`format_response`]/[`parse_response`] round-trip every [`Response`]
//! variant field-exactly (pinned by unit tests), so a client-side digest
//! over decoded responses equals the server-side digest over the
//! originals — the socket adds no observable state of its own.

use std::io::{self, Read, Write};

use crate::request::{Response, ServiceError};
use crate::workload::{join_ids, num, split_ids};

/// Version string exchanged in the opening handshake frames.
pub const WIRE_VERSION: &str = "byzscore-wire/v1";

/// Hard cap on a frame payload. Large enough for any op line the trace
/// generator emits (a full-row query on a 10⁵-object session is ~600 KB);
/// small enough that a hostile length prefix cannot balloon allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Append one whole frame — 4-byte big-endian length, then the payload —
/// to `out`. A payload above [`MAX_FRAME_BYTES`] is
/// [`io::ErrorKind::InvalidInput`] and appends nothing: the peer could
/// only answer such a frame by killing the connection.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    out.reserve(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Write one frame with one `write_all`: on a socket that is one
/// syscall and one segment, so the payload never sits behind an
/// un-ACKed length prefix. An over-cap payload is
/// [`io::ErrorKind::InvalidInput`] and writes nothing.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame payload. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); a close mid-frame or a length prefix above
/// [`MAX_FRAME_BYTES`] is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish "closed before a frame" (clean) from "closed inside
    // the length prefix" (error) by hand-rolling the first read.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One frame from client to server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// Version handshake; must be the first frame on a connection.
    Hello,
    /// One service op. The payload is a raw `byzscore-trace/v1` op line;
    /// it is *not* parsed at the envelope layer so that the server can
    /// answer a malformed line with a typed rejection carrying this
    /// `seq` instead of dropping the connection.
    Op {
        /// Client-chosen sequence number, echoed in the answer.
        seq: u64,
        /// The op line (trace syntax).
        line: String,
    },
    /// Ask for the server's observability counters.
    Stats {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Ask the server to stop accepting connections, drain, and exit.
    Shutdown {
        /// Echoed sequence number.
        seq: u64,
    },
}

impl ClientFrame {
    /// Serialize to the frame payload text.
    pub fn encode(&self) -> String {
        match self {
            ClientFrame::Hello => format!("hello {WIRE_VERSION}"),
            ClientFrame::Op { seq, line } => format!("req {seq} {line}"),
            ClientFrame::Stats { seq } => format!("stats {seq}"),
            ClientFrame::Shutdown { seq } => format!("shutdown {seq}"),
        }
    }

    /// Parse a frame payload.
    pub fn decode(text: &str) -> Result<ClientFrame, String> {
        let (verb, rest) = split_verb(text);
        match verb {
            "hello" => {
                if rest.trim() == WIRE_VERSION {
                    Ok(ClientFrame::Hello)
                } else {
                    Err(format!(
                        "version mismatch: peer speaks {:?}, this build speaks {WIRE_VERSION:?}",
                        rest.trim()
                    ))
                }
            }
            "req" => {
                let (seq_tok, line) = split_verb(rest);
                let seq = parse_seq(seq_tok)?;
                if line.is_empty() {
                    return Err("req frame carries no op line".into());
                }
                Ok(ClientFrame::Op {
                    seq,
                    line: line.to_string(),
                })
            }
            "stats" => Ok(ClientFrame::Stats {
                seq: parse_seq(rest.trim())?,
            }),
            "shutdown" => Ok(ClientFrame::Shutdown {
                seq: parse_seq(rest.trim())?,
            }),
            other => Err(format!("unknown client frame verb {other:?}")),
        }
    }
}

/// One frame from server to client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerFrame {
    /// Version handshake answer.
    Hello,
    /// The answer to an op frame, any kind — including typed `Busy`
    /// (admission queue full) and `Rejected` (validation or parse
    /// failure) responses.
    Resp {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The typed answer.
        response: Response,
    },
    /// Observability counters.
    Stats {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The counters at snapshot time.
        stats: StatsSnapshot,
    },
    /// Shutdown acknowledged; the server drains and exits.
    Bye {
        /// Echo of the request's sequence number.
        seq: u64,
    },
    /// Protocol-level failure (bad envelope, non-UTF-8 payload). `seq`
    /// is 0 when the offending frame's sequence could not be recovered.
    Err {
        /// Echo of the request's sequence number, or 0.
        seq: u64,
        /// What went wrong.
        message: String,
    },
}

impl ServerFrame {
    /// The echoed sequence number (0 for the handshake, which has none).
    pub fn seq(&self) -> u64 {
        match self {
            ServerFrame::Hello => 0,
            ServerFrame::Resp { seq, .. }
            | ServerFrame::Stats { seq, .. }
            | ServerFrame::Bye { seq }
            | ServerFrame::Err { seq, .. } => *seq,
        }
    }

    /// Serialize to the frame payload text.
    pub fn encode(&self) -> String {
        match self {
            ServerFrame::Hello => format!("hello {WIRE_VERSION}"),
            ServerFrame::Resp { seq, response } => {
                format!("resp {seq} {}", format_response(response))
            }
            ServerFrame::Stats { seq, stats } => format!("stats {seq} {}", stats.encode()),
            ServerFrame::Bye { seq } => format!("bye {seq}"),
            ServerFrame::Err { seq, message } => format!("err {seq} {message}"),
        }
    }

    /// Parse a frame payload.
    pub fn decode(text: &str) -> Result<ServerFrame, String> {
        let (verb, rest) = split_verb(text);
        match verb {
            "hello" => {
                if rest.trim() == WIRE_VERSION {
                    Ok(ServerFrame::Hello)
                } else {
                    Err(format!(
                        "version mismatch: peer speaks {:?}, this build speaks {WIRE_VERSION:?}",
                        rest.trim()
                    ))
                }
            }
            "resp" => {
                let (seq_tok, line) = split_verb(rest);
                Ok(ServerFrame::Resp {
                    seq: parse_seq(seq_tok)?,
                    response: parse_response(line)?,
                })
            }
            "stats" => {
                let (seq_tok, line) = split_verb(rest);
                Ok(ServerFrame::Stats {
                    seq: parse_seq(seq_tok)?,
                    stats: StatsSnapshot::decode(line)?,
                })
            }
            "bye" => Ok(ServerFrame::Bye {
                seq: parse_seq(rest.trim())?,
            }),
            "err" => {
                let (seq_tok, message) = split_verb(rest);
                Ok(ServerFrame::Err {
                    seq: parse_seq(seq_tok)?,
                    message: message.to_string(),
                })
            }
            other => Err(format!("unknown server frame verb {other:?}")),
        }
    }
}

/// The server's observability counters, as answered to a `stats` frame
/// and printed at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Ops accepted into the admission queue over the server's lifetime.
    pub admitted: u64,
    /// Ops answered `Busy` at admission (each may be retried by the
    /// client; retries that get in count under `admitted`).
    pub busy_rejected: u64,
    /// Frames whose op line failed to parse (answered with a typed
    /// `Rejected(Malformed)` response).
    pub malformed: u64,
    /// Ops fully executed and answered.
    pub completed: u64,
    /// Sessions currently open in the engine.
    pub open_sessions: u64,
    /// High-water mark of the admission queue depth.
    pub queue_depth_peak: u64,
    /// Median admission-to-answer latency, microseconds (bucket lower
    /// bound of a log₂ histogram).
    pub p50_us: u64,
    /// 99th-percentile admission-to-answer latency, microseconds.
    pub p99_us: u64,
    /// Admission queue depth at snapshot time (0 on an idle server — the
    /// depth-gauge regression test pins that it cannot leak).
    pub queue_depth: u64,
    /// Ops answered with a typed `Retryable` fault (each may be resent;
    /// resends that complete count under `completed` a second time).
    pub retryable: u64,
    /// Mutating ops appended to the write-ahead journal.
    pub journaled: u64,
    /// Resent barrier ops answered from the dedupe window instead of
    /// re-executing.
    pub deduped: u64,
    /// Shardable-op (probe/query) panics caught and supervised.
    pub worker_panics: u64,
    /// Engine rebuilds from the journal after a poisoned barrier.
    pub rebuilds: u64,
    /// Compaction cycles completed (checkpoint written + WAL truncated).
    pub checkpoints: u64,
    /// Journal entries removed by compaction over the server's lifetime.
    pub truncated_ops: u64,
    /// Mutating ops currently in the journal tail — what a crash right
    /// now would replay (a gauge, not a counter).
    pub tail_len: u64,
    /// Server frames queued for a socket (answers, `Busy`, `err`,
    /// `stats`, `bye`, `hello`).
    pub frames_out: u64,
    /// `write` calls that carried them: `frames_out / socket_writes` is
    /// the reply-coalescing ratio (1.0 for one-outstanding traffic).
    pub socket_writes: u64,
}

impl StatsSnapshot {
    /// `key=value` space-separated encoding, fixed field order. New
    /// counters append at the end — old decoders skip unknown keys.
    pub fn encode(&self) -> String {
        format!(
            "admitted={} busy={} malformed={} completed={} sessions={} depth_peak={} p50_us={} p99_us={} \
             depth={} retryable={} journaled={} deduped={} panics={} rebuilds={} ckpts={} \
             truncated={} tail={} frames_out={} socket_writes={}",
            self.admitted,
            self.busy_rejected,
            self.malformed,
            self.completed,
            self.open_sessions,
            self.queue_depth_peak,
            self.p50_us,
            self.p99_us,
            self.queue_depth,
            self.retryable,
            self.journaled,
            self.deduped,
            self.worker_panics,
            self.rebuilds,
            self.checkpoints,
            self.truncated_ops,
            self.tail_len,
            self.frames_out,
            self.socket_writes,
        )
    }

    /// Inverse of [`StatsSnapshot::encode`]; unknown keys are ignored so
    /// future servers can add counters without breaking old clients.
    pub fn decode(text: &str) -> Result<StatsSnapshot, String> {
        let mut s = StatsSnapshot::default();
        for pair in text.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .filter(|(k, _)| !k.is_empty())
                .ok_or_else(|| format!("bad stats pair {pair:?}"))?;
            let v: u64 = value
                .parse()
                .map_err(|_| format!("bad stats value {pair:?}"))?;
            match key {
                "admitted" => s.admitted = v,
                "busy" => s.busy_rejected = v,
                "malformed" => s.malformed = v,
                "completed" => s.completed = v,
                "sessions" => s.open_sessions = v,
                "depth_peak" => s.queue_depth_peak = v,
                "p50_us" => s.p50_us = v,
                "p99_us" => s.p99_us = v,
                "depth" => s.queue_depth = v,
                "retryable" => s.retryable = v,
                "journaled" => s.journaled = v,
                "deduped" => s.deduped = v,
                "panics" => s.worker_panics = v,
                "rebuilds" => s.rebuilds = v,
                "ckpts" => s.checkpoints = v,
                "truncated" => s.truncated_ops = v,
                "tail" => s.tail_len = v,
                "frames_out" => s.frames_out = v,
                "socket_writes" => s.socket_writes = v,
                _ => {}
            }
        }
        Ok(s)
    }
}

/// Serialize a [`Response`] as one wire line — the exact inverse of
/// [`parse_response`], so decoded responses digest identically to the
/// originals.
pub fn format_response(resp: &Response) -> String {
    match resp {
        Response::Opened {
            session,
            players,
            max_err,
        } => format!("opened {session} {players} {max_err}"),
        Response::Probed {
            session,
            player,
            ones,
            digest,
        } => format!("probed {session} {player} {ones} {digest}"),
        Response::Preferences {
            session,
            players,
            ones,
            digest,
        } => format!("prefs {session} {players} {ones} {digest}"),
        Response::Churned {
            session,
            retired,
            joined,
            players,
            max_err,
        } => format!(
            "churned {session} {} {} {players} {max_err}",
            ids_or_dash(retired),
            ids_or_dash(joined)
        ),
        Response::Epoch {
            session,
            epoch,
            max_err,
        } => format!("epoch {session} {epoch} {max_err}"),
        Response::Closed {
            session,
            freed_slots,
        } => format!("closed {session} {freed_slots}"),
        Response::Busy { retry_after_ms } => format!("busy {retry_after_ms}"),
        Response::Retryable { reason } => format!("retryable {reason}"),
        Response::Rejected(e) => match e {
            ServiceError::UnknownSession(s) => format!("rejected unknown-session {s}"),
            ServiceError::SessionClosed(s) => format!("rejected session-closed {s}"),
            ServiceError::PlayerOutOfRange {
                session,
                player,
                players,
            } => format!("rejected player-range {session} {player} {players}"),
            ServiceError::ObjectOutOfRange {
                session,
                object,
                objects,
            } => format!("rejected object-range {session} {object} {objects}"),
            ServiceError::EmptyQuery(s) => format!("rejected empty-query {s}"),
            ServiceError::Malformed { message } => format!("rejected malformed {message}"),
        },
    }
}

/// Parse a [`format_response`] line back into the typed [`Response`].
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (verb, rest) = split_verb(line.trim());
    let mut toks = rest.split_whitespace();
    let resp = match verb {
        "opened" => Response::Opened {
            session: num(toks.next(), "session")?,
            players: num(toks.next(), "players")?,
            max_err: num(toks.next(), "max_err")?,
        },
        "probed" => Response::Probed {
            session: num(toks.next(), "session")?,
            player: num(toks.next(), "player")?,
            ones: num(toks.next(), "ones")?,
            digest: num(toks.next(), "digest")?,
        },
        "prefs" => Response::Preferences {
            session: num(toks.next(), "session")?,
            players: num(toks.next(), "players")?,
            ones: num(toks.next(), "ones")?,
            digest: num(toks.next(), "digest")?,
        },
        "churned" => Response::Churned {
            session: num(toks.next(), "session")?,
            retired: dash_or_ids(toks.next().ok_or("missing retired list")?)?,
            joined: dash_or_ids(toks.next().ok_or("missing joined list")?)?,
            players: num(toks.next(), "players")?,
            max_err: num(toks.next(), "max_err")?,
        },
        "epoch" => Response::Epoch {
            session: num(toks.next(), "session")?,
            epoch: num(toks.next(), "epoch")?,
            max_err: num(toks.next(), "max_err")?,
        },
        "closed" => Response::Closed {
            session: num(toks.next(), "session")?,
            freed_slots: num(toks.next(), "freed_slots")?,
        },
        "busy" => Response::Busy {
            retry_after_ms: num(toks.next(), "retry_after_ms")?,
        },
        "retryable" => {
            // The reason is the remainder of the line verbatim, like a
            // malformed-rejection message.
            return Ok(Response::Retryable {
                reason: rest.to_string(),
            });
        }
        "rejected" => {
            let kind = toks.next().ok_or("missing rejection kind")?;
            let error = match kind {
                "unknown-session" => ServiceError::UnknownSession(num(toks.next(), "session")?),
                "session-closed" => ServiceError::SessionClosed(num(toks.next(), "session")?),
                "player-range" => ServiceError::PlayerOutOfRange {
                    session: num(toks.next(), "session")?,
                    player: num(toks.next(), "player")?,
                    players: num(toks.next(), "players")?,
                },
                "object-range" => ServiceError::ObjectOutOfRange {
                    session: num(toks.next(), "session")?,
                    object: num(toks.next(), "object")?,
                    objects: num(toks.next(), "objects")?,
                },
                "empty-query" => ServiceError::EmptyQuery(num(toks.next(), "session")?),
                "malformed" => {
                    // The message is the remainder of the line verbatim.
                    let (_, message) = split_verb(rest);
                    return Ok(Response::Rejected(ServiceError::Malformed {
                        message: message.to_string(),
                    }));
                }
                other => return Err(format!("unknown rejection kind {other:?}")),
            };
            Response::Rejected(error)
        }
        other => return Err(format!("unknown response verb {other:?}")),
    };
    if let Some(extra) = toks.next() {
        return Err(format!("trailing token {extra:?}"));
    }
    Ok(resp)
}

/// First whitespace-separated token and the rest of the string.
fn split_verb(text: &str) -> (&str, &str) {
    match text.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim_start()),
        None => (text, ""),
    }
}

fn parse_seq(tok: &str) -> Result<u64, String> {
    tok.parse::<u64>()
        .map_err(|_| format!("bad sequence number {tok:?}"))
}

fn ids_or_dash(ids: &[u32]) -> String {
    if ids.is_empty() {
        "-".to_string()
    } else {
        join_ids(ids)
    }
}

fn dash_or_ids(field: &str) -> Result<Vec<u32>, String> {
    if field == "-" {
        Ok(Vec::new())
    } else {
        split_ids(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_response_variant() -> Vec<Response> {
        vec![
            Response::Opened {
                session: 3,
                players: 48,
                max_err: 7,
            },
            Response::Probed {
                session: 0,
                player: 11,
                ones: 4,
                digest: 0xdead_beef_0102_0304,
            },
            Response::Preferences {
                session: 9,
                players: 5,
                ones: 123,
                digest: u64::MAX,
            },
            Response::Churned {
                session: 2,
                retired: vec![4, 9, 31],
                joined: vec![48, 49],
                players: 47,
                max_err: 2,
            },
            Response::Churned {
                session: 2,
                retired: vec![],
                joined: vec![],
                players: 48,
                max_err: 0,
            },
            Response::Epoch {
                session: 1,
                epoch: 12,
                max_err: 3,
            },
            Response::Closed {
                session: 5,
                freed_slots: 992,
            },
            Response::Busy { retry_after_ms: 5 },
            Response::Retryable {
                reason: "the op panicked".to_string(),
            },
            Response::Rejected(ServiceError::UnknownSession(77)),
            Response::Rejected(ServiceError::SessionClosed(0)),
            Response::Rejected(ServiceError::PlayerOutOfRange {
                session: 1,
                player: 99,
                players: 48,
            }),
            Response::Rejected(ServiceError::ObjectOutOfRange {
                session: 1,
                object: 512,
                objects: 96,
            }),
            Response::Rejected(ServiceError::EmptyQuery(4)),
            Response::Rejected(ServiceError::Malformed {
                message: "unknown op \"frobnicate\"".to_string(),
            }),
        ]
    }

    #[test]
    fn every_response_round_trips_field_exactly() {
        for resp in every_response_variant() {
            let line = format_response(&resp);
            let back = parse_response(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(back, resp, "line {line:?}");
            // Digest equality is implied by == but is the property the
            // replay gate actually leans on; assert it explicitly.
            assert_eq!(back.digest(), resp.digest());
        }
    }

    #[test]
    fn response_parse_rejects_malformed_lines() {
        for bad in [
            "",
            "opened 1",             // missing fields
            "opened 1 2 3 4",       // trailing token
            "probed 0 1 x 2",       // bad number
            "churned 0 1,2 3 4",    // missing field
            "rejected",             // missing kind
            "rejected what 3",      // unknown kind
            "transmogrified 1 2 3", // unknown verb
        ] {
            assert!(parse_response(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Hello,
            ClientFrame::Op {
                seq: 42,
                line: "probe 0 3 1,2,9".to_string(),
            },
            ClientFrame::Stats { seq: 7 },
            ClientFrame::Shutdown { seq: u64::MAX },
        ];
        for f in frames {
            let text = f.encode();
            assert_eq!(ClientFrame::decode(&text).as_ref(), Ok(&f), "{text:?}");
        }
        assert!(ClientFrame::decode("hello byzscore-wire/v0").is_err());
        assert!(ClientFrame::decode("req 1").is_err(), "op line required");
        assert!(ClientFrame::decode("req x probe").is_err(), "bad seq");
        assert!(ClientFrame::decode("warble 3").is_err());
        // A req frame with a garbage op line decodes fine — op parsing
        // (and the typed Malformed answer) is the server's job.
        assert!(matches!(
            ClientFrame::decode("req 9 utter garbage"),
            Ok(ClientFrame::Op { seq: 9, .. })
        ));
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Hello,
            ServerFrame::Resp {
                seq: 3,
                response: Response::Busy { retry_after_ms: 8 },
            },
            ServerFrame::Stats {
                seq: 1,
                stats: StatsSnapshot {
                    admitted: 100,
                    busy_rejected: 3,
                    malformed: 1,
                    completed: 97,
                    open_sessions: 2,
                    queue_depth_peak: 55,
                    p50_us: 120,
                    p99_us: 9000,
                    queue_depth: 4,
                    retryable: 2,
                    journaled: 61,
                    deduped: 1,
                    worker_panics: 2,
                    rebuilds: 1,
                    checkpoints: 2,
                    truncated_ops: 40,
                    tail_len: 3,
                    frames_out: 104,
                    socket_writes: 9,
                },
            },
            ServerFrame::Bye { seq: 12 },
            ServerFrame::Err {
                seq: 0,
                message: "frame payload is not UTF-8".to_string(),
            },
        ];
        for f in frames {
            let text = f.encode();
            assert_eq!(ServerFrame::decode(&text).as_ref(), Ok(&f), "{text:?}");
        }
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello byzscore-wire/v1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "req 1 epoch 0".as_bytes()).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"hello byzscore-wire/v1"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"req 1 epoch 0"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// Every counter survives the `k=v` codec field-exactly, including
    /// the fault-tolerance counters appended after the v1 set — and a
    /// decoder fed only the v1 prefix leaves the new counters at zero
    /// (forward/backward compatibility of the unknown-key rule).
    #[test]
    fn stats_snapshot_round_trips_field_exactly() {
        let stats = StatsSnapshot {
            admitted: u64::MAX,
            busy_rejected: 17,
            malformed: 3,
            completed: u64::MAX - 5,
            open_sessions: 11,
            queue_depth_peak: 256,
            p50_us: 0,
            p99_us: 1 << 62,
            queue_depth: 9,
            retryable: 8,
            journaled: 1_000_000,
            deduped: 7,
            worker_panics: 2,
            rebuilds: 1,
            checkpoints: 5,
            truncated_ops: 320,
            tail_len: 6,
            frames_out: 4096,
            socket_writes: 64,
        };
        let text = stats.encode();
        assert_eq!(StatsSnapshot::decode(&text), Ok(stats), "{text:?}");
        // An old-format line (no fault counters) still decodes.
        let old =
            "admitted=5 busy=0 malformed=0 completed=5 sessions=1 depth_peak=2 p50_us=10 p99_us=20";
        let decoded = StatsSnapshot::decode(old).expect("v1 prefix decodes");
        assert_eq!(decoded.admitted, 5);
        assert_eq!(decoded.retryable, 0);
        assert_eq!(decoded.rebuilds, 0);
        assert_eq!((decoded.frames_out, decoded.socket_writes), (0, 0));
        // A future key is skipped, not an error.
        assert!(StatsSnapshot::decode("admitted=1 warp_factor=9").is_ok());
        for bad in ["admitted", "admitted=x", "=5"] {
            assert!(StatsSnapshot::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A `Read` source that hands out at most `chunk` bytes per call —
    /// the TCP-segmentation shape `read_frame` must be insensitive to.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A `Write` sink that counts `write` calls (each is a syscall on a
    /// `TcpStream`) and accepts at most `chunk` bytes per call.
    struct Sink {
        data: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Sink {
        fn taking(chunk: usize) -> Sink {
            Sink {
                data: Vec::new(),
                calls: 0,
                chunk,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = self.chunk.min(buf.len());
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One frame is one `write` whatever its size — a second call would
    /// be a second segment for Nagle to hold behind the first's ACK.
    #[test]
    fn a_frame_is_exactly_one_write_call() {
        for len in [0usize, 1, 35, 65_536, MAX_FRAME_BYTES] {
            let payload = vec![b'x'; len];
            let mut sink = Sink::taking(usize::MAX);
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.calls, 1, "{len}-byte payload");
            assert_eq!(
                read_frame(&mut io::Cursor::new(sink.data)).unwrap(),
                Some(payload)
            );
        }
    }

    /// A sink that takes at most 7 bytes per call (short writes are
    /// legal) still receives the whole frame, prefix included.
    #[test]
    fn short_writes_still_deliver_a_whole_frame() {
        let mut sink = Sink::taking(7);
        let payload = b"resp 7 probed 0 3 2 12345";
        write_frame(&mut sink, payload).unwrap();
        assert_eq!(sink.calls, (4 + payload.len()).div_ceil(7));
        let mut cursor = io::Cursor::new(sink.data);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// The cap holds in release builds too: an over-cap payload is a
    /// typed error and not one byte reaches the wire.
    #[test]
    fn an_over_cap_payload_is_invalid_input_and_writes_nothing() {
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Sink::taking(usize::MAX);
        assert_eq!(
            write_frame(&mut sink, &payload).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!((sink.calls, sink.data.len()), (0, 0));
        let mut out = b"kept".to_vec();
        assert_eq!(
            append_frame(&mut out, &payload).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(out, b"kept");
    }

    /// A frame split across arbitrary segment boundaries — including a
    /// 1-byte trickle that splits the length prefix itself — parses
    /// byte-identically to a single-segment read.
    #[test]
    fn frames_parse_identically_across_segment_boundaries() {
        let mut data = Vec::new();
        write_frame(&mut data, b"req 7 probe 0 3 1,2,9").unwrap();
        write_frame(&mut data, b"resp 7 probed 0 3 2 12345").unwrap();
        write_frame(&mut data, b"").unwrap();
        let whole: Vec<Option<Vec<u8>>> = {
            let mut cursor = io::Cursor::new(data.clone());
            (0..4).map(|_| read_frame(&mut cursor).unwrap()).collect()
        };
        for chunk in [1usize, 2, 3, 5, 7] {
            let mut trickle = Trickle {
                data: data.clone(),
                pos: 0,
                chunk,
            };
            for (i, expected) in whole.iter().enumerate() {
                assert_eq!(
                    read_frame(&mut trickle).unwrap(),
                    *expected,
                    "frame {i} at {chunk}-byte segments"
                );
            }
        }
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors_not_panics() {
        // Lying length prefix far past the cap.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert_eq!(
            read_frame(&mut io::Cursor::new(huge)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Stream dies inside the length prefix.
        assert_eq!(
            read_frame(&mut io::Cursor::new(vec![0u8, 0]))
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Stream dies inside the payload.
        let mut short = Vec::new();
        short.extend_from_slice(&8u32.to_be_bytes());
        short.extend_from_slice(b"abc");
        assert!(read_frame(&mut io::Cursor::new(short)).is_err());
    }
}
