//! The socket replay client: pipelined, resilient trace replay over
//! `byzscore-wire/v1`, plus the one-shot stats and shutdown requests.
//!
//! The client supplies its half of the ordering argument in the
//! [module docs](super): all ops of a session ride one connection,
//! opens are globally serialized (session ids are assigned in open
//! order), and a session's barrier is only sent after all its earlier
//! ops have been answered. Busy retries therefore reorder shardable ops
//! only within a barrier-free window, where order does not matter.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::request::{mix, Request, Response};
use crate::wire::{read_frame, write_frame, ClientFrame, ServerFrame, StatsSnapshot, WIRE_VERSION};
use crate::workload::format_op;

/// What [`replay_over_socket`] brings back.
#[derive(Clone, Debug)]
pub struct SocketReplay {
    /// Final answer per trace op, in trace order — digests over this
    /// vector are comparable to `ServiceEngine::execute` output.
    pub responses: Vec<Response>,
    /// How many `Busy` answers were retried along the way (overload
    /// evidence; zero information content for the digest).
    pub busy_retries: u64,
    /// How many `Retryable` answers were retried (fault evidence; like
    /// `Busy`, never part of the digest).
    pub retryable_retries: u64,
    /// How many times a connection was re-established mid-replay.
    pub reconnects: u64,
}

/// Max in-flight shardable ops per connection before the client reaps
/// answers.
const PIPELINE_WINDOW: usize = 64;

/// Cap on the retry backoff window.
const MAX_RETRY_MS: u64 = 50;

/// Total time to keep re-dialing one reconnect before giving up.
const GIVE_UP_AFTER: Duration = Duration::from_secs(30);

/// Client-side resilience knobs for [`replay_with_options`].
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Sockets to spread sessions over (min 1).
    pub connections: usize,
    /// Per-request deadline: an op unanswered this long gets its
    /// connection torn down and every pending op on it resent. `None`
    /// waits forever (the pre-fault-tolerance behavior).
    pub deadline: Option<Duration>,
    /// Seed for the deterministic backoff jitter — fixed seed, fixed
    /// retry schedule, reproducible chaos runs.
    pub retry_seed: u64,
    /// Optional pause before each op — spreads a replay out in time so
    /// an external fault (a `kill -9`) lands mid-trace instead of
    /// after the burst already finished.
    pub throttle: Option<Duration>,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            connections: 1,
            deadline: None,
            retry_seed: 0xb0ff_5eed,
            throttle: None,
        }
    }
}

/// Replay a trace over TCP across `connections` sockets and collect
/// the final answers in trace order, with default [`ReplayOptions`].
///
/// Ordering contract (see the module docs): every op of a session uses
/// the connection `session_id % connections`; an `Open` drains all
/// connections and is awaited (ids are assigned in open order, so the
/// k-th open of a fresh server gets id k); any other barrier drains and
/// is awaited on its session's connection; shardable ops pipeline up to
/// `PIPELINE_WINDOW` deep. `Busy` and `Retryable` answers are retried
/// with capped exponential backoff and never appear in `responses`.
pub fn replay_over_socket(
    addr: impl ToSocketAddrs,
    ops: &[Request],
    connections: usize,
) -> io::Result<SocketReplay> {
    replay_with_options(
        addr,
        ops,
        ReplayOptions {
            connections,
            ..ReplayOptions::default()
        },
    )
}

/// [`replay_over_socket`] with explicit resilience knobs: deadlines,
/// reconnect-and-resend, seeded backoff, and an inter-op throttle.
///
/// Resends are safe end to end: the server dedupes resent barriers by
/// `(session, seq, op)` and probe re-execution is idempotent, so a
/// retried mutation applies exactly once no matter how many times the
/// connection died under it.
pub fn replay_with_options(
    addr: impl ToSocketAddrs,
    ops: &[Request],
    options: ReplayOptions,
) -> io::Result<SocketReplay> {
    let connections = options.connections.max(1);
    let mut client = ReplayClient::connect(resolve(addr)?, connections, options)?;
    let mut opens_sent = 0usize;
    for (index, op) in ops.iter().enumerate() {
        let seq = index as u64;
        if let Some(pause) = client.options.throttle {
            thread::sleep(pause);
        }
        match op {
            Request::Open(_) => {
                let conn = opens_sent % connections;
                opens_sent += 1;
                client.drain_all()?;
                client.send_op(conn, seq, op)?;
                client.await_answer(seq)?;
            }
            _ if !op.is_shardable() => {
                let conn = session_conn(op, connections)?;
                client.drain_conn(conn)?;
                client.send_op(conn, seq, op)?;
                client.await_answer(seq)?;
            }
            _ => {
                let conn = session_conn(op, connections)?;
                while client.in_flight[conn] >= PIPELINE_WINDOW {
                    client.pump_one()?;
                }
                client.send_op(conn, seq, op)?;
            }
        }
    }
    client.drain_all()?;
    let responses = client
        .responses
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("op {i} finished the replay unanswered")))
        .collect();
    Ok(SocketReplay {
        responses,
        busy_retries: client.busy_retries,
        retryable_retries: client.retryable_retries,
        reconnects: client.reconnects,
    })
}

/// The connection a session's ops ride: `session % connections`. Only
/// `Open` carries no session, and the replay loop routes opens itself.
fn session_conn(op: &Request, connections: usize) -> io::Result<usize> {
    op.session()
        .map(|session| session as usize % connections)
        .ok_or_else(|| broken("a non-open op carries no session id"))
}

/// An answered-or-dead message from one reader thread. `Closed` carries
/// the connection *generation* so a stale reader (its socket already
/// replaced by a reconnect) cannot retire the replacement.
enum Event {
    Frame(ServerFrame),
    Closed(usize, u64),
}

/// One sent-but-unanswered op: enough to resend it verbatim on the
/// right connection, plus the bookkeeping the deadline check needs.
struct PendingOp {
    conn: usize,
    line: String,
    attempts: u32,
    sent_at: Instant,
}

struct ReplayClient {
    addr: SocketAddr,
    options: ReplayOptions,
    writers: Vec<TcpStream>,
    /// Bumped on every reconnect; readers report their generation.
    generation: Vec<u64>,
    /// A connection known dead (reader reported `Closed`); the next op
    /// routed to it reconnects first.
    dead: Vec<bool>,
    /// Kept so reconnect-spawned readers share the original channel —
    /// and so `events.recv()` never spuriously disconnects.
    event_tx: mpsc::Sender<Event>,
    events: mpsc::Receiver<Event>,
    pending: HashMap<u64, PendingOp>,
    in_flight: Vec<usize>,
    responses: Vec<Option<Response>>,
    busy_retries: u64,
    retryable_retries: u64,
    reconnects: u64,
}

fn resolve(addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to"))
}

/// Dial, handshake, and disable Nagle on one connection.
fn connect_one(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    handshake(&mut stream)?;
    Ok(stream)
}

/// Spawn the reader thread for one connection generation: forwards
/// decoded frames, reports `Closed(conn, generation)` when the socket
/// dies or turns to garbage. Reads are buffered, so a coalesced burst
/// of answers is drained many frames per syscall.
fn spawn_reader(event_tx: mpsc::Sender<Event>, reader: TcpStream, conn: usize, generation: u64) {
    thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let frame = std::str::from_utf8(&payload)
                .ok()
                .and_then(|t| ServerFrame::decode(t).ok());
            match frame {
                Some(f) => {
                    if event_tx.send(Event::Frame(f)).is_err() {
                        return;
                    }
                }
                // An undecodable server frame means the stream is
                // unusable; report the close.
                None => break,
            }
        }
        let _ = event_tx.send(Event::Closed(conn, generation));
    });
}

impl ReplayClient {
    fn connect(
        addr: SocketAddr,
        connections: usize,
        options: ReplayOptions,
    ) -> io::Result<ReplayClient> {
        let (event_tx, events) = mpsc::channel::<Event>();
        let mut writers = Vec::with_capacity(connections);
        for conn in 0..connections {
            let stream = connect_one(addr)?;
            let reader = stream.try_clone()?;
            writers.push(stream);
            spawn_reader(event_tx.clone(), reader, conn, 0);
        }
        Ok(ReplayClient {
            addr,
            options,
            writers,
            generation: vec![0; connections],
            dead: vec![false; connections],
            event_tx,
            events,
            pending: HashMap::new(),
            in_flight: vec![0; connections],
            responses: Vec::new(),
            busy_retries: 0,
            retryable_retries: 0,
            reconnects: 0,
        })
    }

    /// Register the op as pending *before* the write: if the write
    /// fails into a reconnect, the reconnect's resend sweep already
    /// covers this op.
    fn send_op(&mut self, conn: usize, seq: u64, op: &Request) -> io::Result<()> {
        let line = format_op(op);
        if self.responses.len() <= seq as usize {
            self.responses.resize(seq as usize + 1, None);
        }
        self.pending.insert(
            seq,
            PendingOp {
                conn,
                line: line.clone(),
                attempts: 0,
                sent_at: Instant::now(),
            },
        );
        self.in_flight[conn] += 1;
        self.dispatch_line(conn, seq, &line)
    }

    /// Write one op frame, reconnecting first (which resends every
    /// pending op on the connection, including `seq`) when the
    /// connection is known dead or the write fails.
    fn dispatch_line(&mut self, conn: usize, seq: u64, line: &str) -> io::Result<()> {
        if self.dead[conn] {
            return self.reconnect(conn);
        }
        let frame = ClientFrame::Op {
            seq,
            line: line.to_string(),
        };
        match write_frame(&mut self.writers[conn], frame.encode().as_bytes()) {
            Ok(()) => Ok(()),
            Err(_) => self.reconnect(conn),
        }
    }

    /// Deterministic capped exponential backoff: attempt `a` draws from
    /// `[window/2, window]` where `window = min(2^a, MAX_RETRY_MS)` ms,
    /// jittered by a hash of `(seed, seq, attempt)` — no entropy, so a
    /// fixed seed replays the exact retry schedule.
    fn backoff_delay(&self, seq: u64, attempt: u32) -> Duration {
        let window = (1u64 << attempt.min(6)).min(MAX_RETRY_MS);
        let jitter = mix(mix(self.options.retry_seed, seq), u64::from(attempt)) % (window / 2 + 1);
        Duration::from_millis(window / 2 + jitter)
    }

    /// Tear down one connection, dial until it comes back (for at most
    /// [`GIVE_UP_AFTER`]), and resend its pending ops in
    /// sequence order. Server-side dedupe + probe idempotency make the
    /// resends exactly-once.
    fn reconnect(&mut self, conn: usize) -> io::Result<()> {
        self.reconnects += 1;
        let _ = self.writers[conn].shutdown(Shutdown::Both);
        self.generation[conn] += 1;
        let generation = self.generation[conn];
        let started = Instant::now();
        let mut attempt = 0u32;
        let stream = loop {
            match connect_one(self.addr) {
                Ok(s) => break s,
                Err(e) => {
                    if started.elapsed() >= GIVE_UP_AFTER {
                        return Err(e);
                    }
                    thread::sleep(self.backoff_delay(conn as u64, attempt));
                    attempt = attempt.saturating_add(1);
                }
            }
        };
        let reader = stream.try_clone()?;
        spawn_reader(self.event_tx.clone(), reader, conn, generation);
        self.writers[conn] = stream;
        self.dead[conn] = false;
        let mut seqs: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.conn == conn)
            .map(|(&seq, _)| seq)
            .collect();
        seqs.sort_unstable();
        for seq in seqs {
            let line = {
                // Invariant: `seqs` was collected from `pending`'s own keys
                // just above and nothing removes an entry in between.
                let p = self.pending.get_mut(&seq).expect("seq collected above");
                p.attempts += 1;
                p.sent_at = Instant::now();
                p.line.clone()
            };
            let frame = ClientFrame::Op { seq, line };
            if write_frame(&mut self.writers[conn], frame.encode().as_bytes()).is_err() {
                // Died again mid-resend: the fresh reader will report
                // `Closed` for this generation and the pump retries.
                self.dead[conn] = true;
                break;
            }
        }
        Ok(())
    }

    /// Resend one op after its typed retry answer (`Busy` or
    /// `Retryable`), honoring the seeded backoff.
    fn resend_after(&mut self, seq: u64, retryable: bool) -> io::Result<()> {
        let Some(p) = self.pending.get_mut(&seq) else {
            // A duplicate retry answer for an op that a reconnect
            // resend already got answered — nothing left to do.
            return Ok(());
        };
        p.attempts += 1;
        let (conn, attempts, line) = (p.conn, p.attempts, p.line.clone());
        if retryable {
            self.retryable_retries += 1;
        } else {
            self.busy_retries += 1;
        }
        thread::sleep(self.backoff_delay(seq, attempts));
        if let Some(p) = self.pending.get_mut(&seq) {
            p.sent_at = Instant::now();
        }
        self.dispatch_line(conn, seq, &line)
    }

    /// Tear down and resend every connection carrying an op that blew
    /// its deadline.
    fn enforce_deadlines(&mut self) -> io::Result<()> {
        let Some(deadline) = self.options.deadline else {
            return Ok(());
        };
        let mut conns: Vec<usize> = self
            .pending
            .values()
            .filter(|p| p.sent_at.elapsed() >= deadline)
            .map(|p| p.conn)
            .collect();
        conns.sort_unstable();
        conns.dedup();
        for conn in conns {
            self.reconnect(conn)?;
        }
        Ok(())
    }

    /// Receive and apply one event: record an answer, resend on a
    /// typed retry, or recover a closed connection. With a deadline
    /// set, blocks in short slices so expired ops are noticed even
    /// when the server goes completely silent.
    fn pump_one(&mut self) -> io::Result<()> {
        let event = match self.options.deadline {
            None => self
                .events
                .recv()
                .map_err(|_| broken("every reader thread died mid-replay"))?,
            Some(_) => loop {
                match self.events.recv_timeout(Duration::from_millis(10)) {
                    Ok(event) => break event,
                    Err(mpsc::RecvTimeoutError::Timeout) => self.enforce_deadlines()?,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(broken("every reader thread died mid-replay"))
                    }
                }
            },
        };
        match event {
            Event::Closed(conn, generation) => {
                if generation != self.generation[conn] {
                    // A reader of a socket some reconnect already
                    // replaced; its report is stale.
                    return Ok(());
                }
                self.dead[conn] = true;
                if self.in_flight[conn] == 0 {
                    return Ok(());
                }
                self.reconnect(conn)
            }
            Event::Frame(ServerFrame::Resp { seq, response }) => match response {
                Response::Busy { .. } => self.resend_after(seq, false),
                Response::Retryable { .. } => self.resend_after(seq, true),
                response => match self.pending.remove(&seq) {
                    Some(p) => {
                        self.in_flight[p.conn] -= 1;
                        self.responses[seq as usize] = Some(response);
                        Ok(())
                    }
                    None => {
                        // A resend can race its original answer; the
                        // second copy (dedupe makes it identical) is
                        // dropped here.
                        if self
                            .responses
                            .get(seq as usize)
                            .is_some_and(|r| r.is_some())
                        {
                            Ok(())
                        } else {
                            Err(broken("answer for an unknown sequence number"))
                        }
                    }
                },
            },
            Event::Frame(ServerFrame::Err { message, .. }) => {
                Err(broken(&format!("server protocol error: {message}")))
            }
            Event::Frame(_) => Ok(()),
        }
    }

    fn drain_conn(&mut self, conn: usize) -> io::Result<()> {
        while self.in_flight[conn] > 0 {
            self.pump_one()?;
        }
        Ok(())
    }

    fn drain_all(&mut self) -> io::Result<()> {
        while self.in_flight.iter().sum::<usize>() > 0 {
            self.pump_one()?;
        }
        Ok(())
    }

    fn await_answer(&mut self, seq: u64) -> io::Result<()> {
        while self.responses[seq as usize].is_none() {
            self.pump_one()?;
        }
        Ok(())
    }
}

fn broken(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Read and decode one server frame; a close (named by
/// `closed_before`) is an error.
fn recv_frame(stream: &mut impl Read, closed_before: &str) -> io::Result<ServerFrame> {
    let payload = read_frame(stream)?
        .ok_or_else(|| broken(&format!("server closed before {closed_before}")))?;
    let text = std::str::from_utf8(&payload).map_err(|_| broken("server frame is not UTF-8"))?;
    ServerFrame::decode(text).map_err(|m| broken(&m))
}

/// Exchange `hello` frames on a fresh connection.
fn handshake(stream: &mut (impl Read + Write)) -> io::Result<()> {
    write_frame(stream, ClientFrame::Hello.encode().as_bytes())?;
    match recv_frame(stream, "answering the handshake")? {
        ServerFrame::Hello => Ok(()),
        other => Err(broken(&format!(
            "expected a {WIRE_VERSION} hello, got {other:?}"
        ))),
    }
}

/// One request on a fresh connection: send `request`, then read frames
/// until `wanted` picks the answer out; a typed `err` frame or a close
/// (named by `closed_before`) fails the call.
fn one_shot<T>(
    addr: impl ToSocketAddrs,
    request: ClientFrame,
    closed_before: &str,
    wanted: impl Fn(ServerFrame) -> Option<T>,
) -> io::Result<T> {
    let mut stream = connect_one(resolve(addr)?)?;
    write_frame(&mut stream, request.encode().as_bytes())?;
    loop {
        match recv_frame(&mut stream, closed_before)? {
            ServerFrame::Err { message, .. } => {
                return Err(broken(&format!("server protocol error: {message}")))
            }
            frame => {
                if let Some(answer) = wanted(frame) {
                    return Ok(answer);
                }
            }
        }
    }
}

/// Ask a running server for its counters over a fresh connection.
pub fn request_stats(addr: impl ToSocketAddrs) -> io::Result<StatsSnapshot> {
    one_shot(
        addr,
        ClientFrame::Stats { seq: 1 },
        "the stats",
        |frame| match frame {
            ServerFrame::Stats { stats, .. } => Some(stats),
            _ => None,
        },
    )
}

/// Ask a running server to drain and exit; returns once the `bye` is
/// acknowledged.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> io::Result<()> {
    one_shot(
        addr,
        ClientFrame::Shutdown { seq: 1 },
        "acknowledging shutdown",
        |frame| matches!(frame, ServerFrame::Bye { .. }).then_some(()),
    )
}
