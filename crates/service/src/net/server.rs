//! The server half: acceptor, connection threads, bounded admission,
//! and the single dispatcher lane that owns the op pipeline. The
//! dispatcher only frames and answers: [`JournaledEngine::submit`] owns
//! dedupe, durability and the failure policy, and once the pipeline
//! halts the dispatcher flushes and shuts the server down.

use std::io::{self, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use super::stats::StatsInner;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::journal::{CompactionPolicy, JournaledEngine, RecoveryReport};
use crate::request::{Request, Response, ServiceError};
use crate::wire::{append_frame, read_frame, ClientFrame, ServerFrame, StatsSnapshot};
use crate::workload::parse_op;

/// Poison-tolerant mutex lock: the data behind every mutex here (a
/// connection's out-buffer of whole frames, the connection registry) is
/// valid at every step, so a thread that panicked mid-write must not
/// cascade into every later answer on the connection.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Retry delay suggested in `Busy` answers.
const RETRY_AFTER_MS: u32 = 2;

/// Tuning knobs for [`Server`] and the pipeline behind every front-end.
/// The defaults keep the admission queue small enough that overload
/// surfaces as `Busy` quickly instead of as latency.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Capacity of the admission queue.
    pub queue_depth: usize,
    /// Per-connection socket read timeout in milliseconds (`0`
    /// disables): a stalled client (slow-loris) gets its connection
    /// closed instead of pinning a thread forever.
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout in milliseconds (`0`
    /// disables): a client that stops reading cannot wedge answer
    /// writes indefinitely.
    pub write_timeout_ms: u64,
    /// Write-ahead journal path. When set, every admitted mutating op
    /// is appended and fsynced *before* it executes, so a killed server
    /// can resume from the journal with bit-identical answers.
    pub journal: Option<PathBuf>,
    /// Rebuild the engine and dedupe window from `journal` before
    /// serving (requires `journal`); the file keeps growing afterwards.
    pub recover: bool,
    /// Checkpoint + truncate the journal once this many mutating ops
    /// accumulate past the last checkpoint (`--compact-every`).
    pub compact_every: Option<u64>,
    /// Checkpoint + truncate the journal once this many bytes
    /// accumulate past the last checkpoint (`--compact-bytes`).
    pub compact_bytes: Option<u64>,
    /// Deterministic fault schedule (test builds only; the default
    /// empty plan makes every hook a no-op).
    #[cfg(feature = "fault-inject")]
    pub fault: Arc<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            queue_depth: 256,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            journal: None,
            recover: false,
            compact_every: None,
            compact_bytes: None,
            #[cfg(feature = "fault-inject")]
            fault: Arc::new(FaultPlan::none()),
        }
    }
}

impl NetConfig {
    /// Open the pipeline this configuration describes: the journal,
    /// its recovery when [`NetConfig::recover`] is set, the compaction
    /// policy and, in `fault-inject` builds, the fault plan. Every
    /// front-end opens its pipeline here.
    pub fn open_pipeline(&self) -> io::Result<(JournaledEngine, Option<RecoveryReport>)> {
        let policy = CompactionPolicy {
            every: self.compact_every,
            bytes: self.compact_bytes,
        };
        #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
        let (mut pipeline, recovery) =
            JournaledEngine::open(self.journal.as_deref(), self.recover, policy)?;
        #[cfg(feature = "fault-inject")]
        pipeline.set_fault_plan(self.fault.clone());
        Ok((pipeline, recovery))
    }
}

/// A bound TCP front-end around one [`JournaledEngine`] pipeline.
/// Construct with [`Server::bind`], then call [`Server::run`]
/// (blocking) — it returns the final [`StatsSnapshot`] once a client
/// sends a `shutdown` frame.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: NetConfig,
    pipeline: JournaledEngine,
    /// What recovery replayed at bind time (`None` without `recover`).
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Bind the listener and, when [`NetConfig::recover`] is set,
    /// rebuild the engine from the journal before accepting anything.
    /// Pass port 0 to let the OS choose (read it back with
    /// [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<Server> {
        let (pipeline, recovery) = config.open_pipeline()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            config,
            pipeline,
            recovery,
        })
    }

    /// Ops replayed from the journal at bind time (0 unless
    /// [`NetConfig::recover`] was set).
    pub fn recovered_ops(&self) -> usize {
        self.recovery.map_or(0, |report| report.replayed)
    }

    /// What recovery replayed at bind time and where the recovered
    /// state came from. `None` without [`NetConfig::recover`].
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until a client sends a `shutdown` frame (or the pipeline
    /// halts after a failed rebuild), then drain the admission queue and
    /// return the lifetime counters.
    pub fn run(self) -> StatsSnapshot {
        let Server {
            listener,
            local_addr,
            config,
            pipeline,
            recovery: _,
        } = self;
        let stats = Arc::new(StatsInner::new());
        let ctx = Arc::new(ConnCtx {
            stats: stats.clone(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            local_addr,
            #[cfg(feature = "fault-inject")]
            fault: config.fault.clone(),
        });

        // The dispatcher: the only thread that touches the pipeline,
        // which is what makes "append before execute" and "barriers see
        // exactly the ops admitted before them" straight-line arguments
        // instead of concurrent ones.
        let (admission_tx, admission_rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let dispatcher = {
            let state = Dispatcher {
                pipeline,
                ctx: ctx.clone(),
                unflushed: Vec::new(),
            };
            thread::spawn(move || dispatch(admission_rx, state))
        };

        // Accept loop. Connection threads are joined before the
        // admission sender drops so the dispatcher drains completely.
        let mut conn_threads = Vec::new();
        let mut next_conn_id = 0u64;
        for stream in listener.incoming() {
            if ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Nagle off: a lone reply must never sit behind an un-ACKed
            // segment waiting out the peer's delayed-ACK timer. The
            // coalescing Nagle did for pipelined replies is done
            // deterministically instead, by `ConnOut` and the dispatcher.
            let _ = stream.set_nodelay(true);
            // Socket timeouts apply to the whole fd (reads in the
            // connection loop, answer writes from the dispatcher through
            // the writer clone), so a stalled peer bounds every wait.
            if config.read_timeout_ms > 0 {
                let _ =
                    stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms)));
            }
            if config.write_timeout_ms > 0 {
                let _ =
                    stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms)));
            }
            let id = next_conn_id;
            next_conn_id += 1;
            let ctx = ctx.clone();
            let tx = admission_tx.clone();
            conn_threads.push(thread::spawn(move || serve_connection(stream, tx, ctx, id)));
        }
        for t in conn_threads {
            let _ = t.join();
        }
        drop(admission_tx);
        let _ = dispatcher.join();
        stats.snapshot()
    }
}

/// One admitted op waiting for the dispatcher.
struct Job {
    req: Request,
    reply: ReplyTo,
}

/// Past this many buffered bytes a connection's answers are written
/// without waiting for the admission queue to go idle.
const FLUSH_BYTES: usize = 32 * 1024;

/// A connection's write half. Server frames are appended whole to `out`
/// and reach the socket one `write` per flush, so frames from the
/// dispatcher and from the connection thread can never interleave
/// mid-frame and a pipelined burst of answers costs one syscall.
struct ConnOut {
    stream: TcpStream,
    out: Vec<u8>,
    stats: Arc<StatsInner>,
}

impl ConnOut {
    /// Queue one whole frame. A frame over the wire cap (the peer could
    /// only answer it by killing the connection) is replaced by a typed
    /// `err` carrying its `seq`, so the client's op fails by name.
    fn push(&mut self, frame: &ServerFrame) {
        if let Err(e) = append_frame(&mut self.out, frame.encode().as_bytes()) {
            let err = ServerFrame::Err {
                seq: frame.seq(),
                message: e.to_string(),
            };
            append_frame(&mut self.out, err.encode().as_bytes())
                .expect("a cap-violation message is far below the cap");
        }
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Write everything queued with one `write_all`. Sent or lost, the
    /// buffer is emptied: a failed write means the peer is gone and
    /// simply misses its answers (the ops have executed either way).
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stats.socket_writes.fetch_add(1, Ordering::Relaxed);
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }
}

/// Where and how to answer an admitted op.
struct ReplyTo {
    conn: Arc<Mutex<ConnOut>>,
    seq: u64,
    admitted: Instant,
}

impl ReplyTo {
    /// Queue the final answer on the op's connection, count it, and
    /// record its latency. The dispatcher flushes the connection when
    /// the admission queue goes idle; a buffer past [`FLUSH_BYTES`] is
    /// written here.
    fn answer(&self, resp: &Response) {
        let mut conn = lock_ok(&self.conn);
        if matches!(resp, Response::Retryable { .. }) {
            conn.stats.retryable.fetch_add(1, Ordering::Relaxed);
        }
        conn.stats.completed.fetch_add(1, Ordering::Relaxed);
        conn.stats
            .record_latency(self.admitted.elapsed().as_micros() as u64);
        conn.push(&ServerFrame::Resp {
            seq: self.seq,
            response: resp.clone(),
        });
        if conn.out.len() >= FLUSH_BYTES {
            let _ = conn.flush();
        }
    }

    /// Sever the underlying socket (drop-connection fault injection).
    #[cfg(feature = "fault-inject")]
    fn sever(&self) {
        let conn = lock_ok(&self.conn);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// Everything the dispatcher thread owns: the one op pipeline, outright.
struct Dispatcher {
    pipeline: JournaledEngine,
    ctx: Arc<ConnCtx>,
    /// Connections holding answers queued since the last flush.
    unflushed: Vec<Arc<Mutex<ConnOut>>>,
}

fn dispatch(admission_rx: Receiver<Job>, mut d: Dispatcher) {
    // A recovered pipeline starts with a tail and open sessions.
    d.ctx.stats.mirror(&d.pipeline, true);
    loop {
        // Flush on idle: answers stay buffered while more admitted ops
        // are waiting, and go out — one write per connection — the
        // moment the queue is empty, before blocking. One-outstanding
        // traffic finds the queue empty after every op, so its answer
        // leaves at once; a pipelined burst leaves as one write.
        let job = match admission_rx.try_recv() {
            Ok(job) => job,
            Err(TryRecvError::Empty) => {
                d.flush();
                match admission_rx.recv() {
                    Ok(job) => job,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        d.ctx.stats.depth.fetch_sub(1, Ordering::Relaxed);
        d.handle(job.req, job.reply);
    }
    d.flush();
}

impl Dispatcher {
    /// Run one admitted op through the pipeline and answer it. The
    /// pipeline supervises the op itself; once it halts, the server
    /// flushes and shuts down.
    fn handle(&mut self, req: Request, reply: ReplyTo) {
        #[cfg(feature = "fault-inject")]
        if self.ctx.fault.drop_conn_at(self.pipeline.submitted()) {
            // Sever the client's socket; the op still executes and its
            // answer write fails silently — exactly what a mid-flight
            // network partition looks like to the server.
            reply.sever();
        }
        let resp = match self.pipeline.submit(reply.seq, &req) {
            Ok(resp) => resp,
            // A journal we cannot write is a durability promise we
            // cannot keep: refuse the op, keep serving.
            Err(_) => Response::Retryable {
                reason: "journal append failed; resend the op".to_string(),
            },
        };
        self.ctx.stats.mirror(&self.pipeline, !req.is_shardable());
        self.answer(reply, &resp);
        if self.pipeline.halted() {
            // Flush before severing, or the client never learns why.
            self.flush();
            self.ctx.trigger_shutdown();
        }
    }

    /// Queue `resp` on the op's connection and remember to flush it.
    fn answer(&mut self, reply: ReplyTo, resp: &Response) {
        reply.answer(resp);
        if !self.unflushed.iter().any(|c| Arc::ptr_eq(c, &reply.conn)) {
            self.unflushed.push(reply.conn);
        }
    }

    /// Write every connection's queued answers, one write each.
    fn flush(&mut self) {
        for conn in self.unflushed.drain(..) {
            let _ = lock_ok(&conn).flush();
        }
    }
}

/// Shared state the connection threads need.
struct ConnCtx {
    stats: Arc<StatsInner>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    local_addr: SocketAddr,
    #[cfg(feature = "fault-inject")]
    fault: Arc<FaultPlan>,
}

impl ConnCtx {
    /// Flip the shutdown flag, poke the acceptor awake, and unblock
    /// every connection thread's pending read. Called for a client's
    /// `shutdown` frame, and by the dispatcher when the pipeline halts.
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        for (_, conn) in lock_ok(&self.conns).iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

fn serve_connection(stream: TcpStream, admission_tx: SyncSender<Job>, ctx: Arc<ConnCtx>, id: u64) {
    if let Ok(clone) = stream.try_clone() {
        lock_ok(&ctx.conns).push((id, clone));
    }
    connection_loop(&stream, admission_tx, &ctx);
    // Sever the socket itself, not just this handle: the registry clone
    // (and any straggler reply handle) keeps the fd alive, and without
    // an explicit shutdown the peer would never see EOF.
    let _ = stream.shutdown(Shutdown::Both);
    lock_ok(&ctx.conns).retain(|(cid, _)| *cid != id);
}

fn connection_loop(stream: &TcpStream, admission_tx: SyncSender<Job>, ctx: &Arc<ConnCtx>) {
    let writer = match stream.try_clone() {
        Ok(stream) => Arc::new(Mutex::new(ConnOut {
            stream,
            out: Vec::new(),
            stats: ctx.stats.clone(),
        })),
        Err(_) => return,
    };
    // Buffered: a frame's length-then-payload pair costs one `read`, and
    // a pipelined burst is drained many frames per syscall.
    let mut reader = BufReader::new(stream);
    // Connection-thread frames share the answers' buffer and flush at
    // once (taking any answers queued ahead of them along).
    let send = |frame: &ServerFrame| {
        let mut out = lock_ok(&writer);
        out.push(frame);
        out.flush()
    };
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean EOF, a lying length prefix (no way to resync), or a
            // shutdown-severed socket: either way this stream is done.
            Ok(None) => return,
            // The socket read timeout fired: the peer stalled mid-frame
            // (or went silent past the idle bound). Name the cause in
            // the goodbye so a live-but-slow client knows what happened.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let _ = send(&ServerFrame::Err {
                    seq: 0,
                    message: "connection idle past the read timeout".to_string(),
                });
                return;
            }
            Err(e) => {
                let _ = send(&ServerFrame::Err {
                    seq: 0,
                    message: e.to_string(),
                });
                return;
            }
        };
        let Ok(text) = std::str::from_utf8(&payload) else {
            // Framing is still intact (the length prefix was honest),
            // so answer typed and keep the connection alive.
            let _ = send(&ServerFrame::Err {
                seq: 0,
                message: "frame payload is not UTF-8".to_string(),
            });
            continue;
        };
        let frame = match ClientFrame::decode(text) {
            Ok(f) => f,
            Err(message) => {
                let _ = send(&ServerFrame::Err { seq: 0, message });
                continue;
            }
        };
        match frame {
            ClientFrame::Hello => {
                if send(&ServerFrame::Hello).is_err() {
                    return;
                }
            }
            ClientFrame::Op { seq, line } => match parse_op(&line) {
                Err(message) => {
                    // The satellite bugfix, shared with the stdin loop:
                    // a malformed op line is a typed rejection, not a
                    // dead session.
                    ctx.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    let _ = send(&ServerFrame::Resp {
                        seq,
                        response: Response::Rejected(ServiceError::Malformed { message }),
                    });
                }
                Ok(req) => {
                    // Fault-injection: wedge this connection thread for
                    // a while before admission, as if the server ground
                    // to a halt — the client's deadline should fire.
                    #[cfg(feature = "fault-inject")]
                    if let Some(stall) = ctx
                        .fault
                        .stall_at(ctx.stats.admitted.load(Ordering::Relaxed))
                    {
                        thread::sleep(stall);
                    }
                    let job = Job {
                        req,
                        reply: ReplyTo {
                            conn: writer.clone(),
                            seq,
                            admitted: Instant::now(),
                        },
                    };
                    ctx.stats.admit_enter();
                    match admission_tx.try_send(job) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) => {
                            ctx.stats.admit_leave();
                            ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                            let _ = send(&ServerFrame::Resp {
                                seq,
                                response: Response::Busy {
                                    retry_after_ms: RETRY_AFTER_MS,
                                },
                            });
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            ctx.stats.admit_leave();
                            return;
                        }
                    }
                }
            },
            ClientFrame::Stats { seq } => {
                let _ = send(&ServerFrame::Stats {
                    seq,
                    stats: ctx.stats.snapshot(),
                });
            }
            ClientFrame::Shutdown { seq } => {
                let _ = send(&ServerFrame::Bye { seq });
                ctx.trigger_shutdown();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME_BYTES;

    /// A `ReplyTo` whose connection is one end of a loopback pair; the
    /// other end and the counters come back with it.
    fn reply_over_loopback(seq: u64) -> (ReplyTo, TcpStream, Arc<StatsInner>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let stats = Arc::new(StatsInner::new());
        let reply = ReplyTo {
            conn: Arc::new(Mutex::new(ConnOut {
                stream,
                out: Vec::new(),
                stats: stats.clone(),
            })),
            seq,
            admitted: Instant::now(),
        };
        (reply, client, stats)
    }

    fn next_frame(client: &mut TcpStream) -> ServerFrame {
        let payload = read_frame(client).expect("read").expect("open");
        ServerFrame::decode(std::str::from_utf8(&payload).expect("UTF-8")).expect("decodes")
    }

    /// An answer too large for a frame fails the op by name: the client
    /// gets a typed `err` with the op's own `seq`, and the connection
    /// (and the frames queued around it) stays intact.
    #[test]
    fn an_over_cap_answer_becomes_a_typed_err_with_its_seq() {
        let (reply, mut client, stats) = reply_over_loopback(41);
        let busy = Response::Busy { retry_after_ms: 3 };
        reply.answer(&busy);
        reply.answer(&Response::Retryable {
            reason: "x".repeat(MAX_FRAME_BYTES),
        });
        reply.answer(&busy);
        lock_ok(&reply.conn).flush().expect("flush");
        let busy = ServerFrame::Resp {
            seq: 41,
            response: busy,
        };
        assert_eq!(next_frame(&mut client), busy);
        match next_frame(&mut client) {
            ServerFrame::Err { seq: 41, message } => {
                assert!(message.contains("exceeds"), "{message:?}")
            }
            other => panic!("expected a typed err for seq 41, got {other:?}"),
        }
        assert_eq!(next_frame(&mut client), busy);
        let snapshot = stats.snapshot();
        assert_eq!((snapshot.frames_out, snapshot.socket_writes), (3, 1));
    }

    /// Answers wait in the out-buffer for the dispatcher's idle flush,
    /// but only up to `FLUSH_BYTES`: past it `answer` writes on its own.
    #[test]
    fn a_full_out_buffer_flushes_without_waiting_for_idle() {
        let (reply, mut client, stats) = reply_over_loopback(7);
        let resp = Response::Retryable {
            reason: "y".repeat(1000),
        };
        let mut queued = 0;
        while stats.snapshot().socket_writes == 0 {
            reply.answer(&resp);
            queued += 1;
            assert!(queued * 1000 <= 2 * FLUSH_BYTES, "never flushed");
        }
        assert!(queued * 1000 >= FLUSH_BYTES - 1000, "flushed early");
        assert!(lock_ok(&reply.conn).out.is_empty());
        for _ in 0..queued {
            assert!(matches!(
                next_frame(&mut client),
                ServerFrame::Resp { seq: 7, .. }
            ));
        }
        assert_eq!(stats.snapshot().socket_writes, 1);
    }
}
