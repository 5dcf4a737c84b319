//! The server half: acceptor, connection threads, bounded admission,
//! and the single dispatcher lane that owns the op pipeline.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use super::stats::StatsInner;
use crate::checkpoint::RecoverySource;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::journal::{CompactionPolicy, JournaledEngine, RecoveryReport};
use crate::request::{Request, Response, ServiceError};
use crate::wire::{read_frame, write_frame, ClientFrame, ServerFrame, StatsSnapshot};
use crate::workload::parse_op;

/// Poison-tolerant mutex lock: the data behind every mutex here (a
/// socket handle, the connection registry) is valid at every step, so a
/// thread that panicked mid-`write_frame` must not cascade into every
/// later answer on the connection.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`Server`]. The defaults match the batch engine's
/// shard count and keep the admission queue small enough that overload
/// surfaces as `Busy` quickly instead of as latency.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The engine's logical shard count (answers never depend on it).
    pub shards: usize,
    /// Capacity of the admission queue.
    pub queue_depth: usize,
    /// Retry delay suggested in `Busy` answers.
    pub retry_after_ms: u32,
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
            shards: crate::engine::DEFAULT_SHARDS,
            queue_depth: 256,
            retry_after_ms: 2,
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
        let policy = CompactionPolicy {
            every: config.compact_every,
            bytes: config.compact_bytes,
        };
        #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
        let (mut pipeline, recovery) = JournaledEngine::open(
            config.journal.as_deref(),
            config.recover,
            config.shards,
            policy,
        )?;
        #[cfg(feature = "fault-inject")]
        pipeline.set_fault_plan(config.fault.clone());
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

    /// Where the recovered state came from: a checkpoint (plus the
    /// journal tail) or the full journal. `None` without
    /// [`NetConfig::recover`].
    pub fn recovery_source(&self) -> Option<RecoverySource> {
        self.recovery.map(|report| report.source)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until a client sends a `shutdown` frame (or a failed
    /// rebuild stops the server), then drain the admission queue and
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
            retry_after_ms: config.retry_after_ms,
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
                halted: false,
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

/// Where and how to answer an admitted op.
struct ReplyTo {
    conn: Arc<Mutex<TcpStream>>,
    seq: u64,
    admitted: Instant,
    stats: Arc<StatsInner>,
}

impl ReplyTo {
    /// Write the final answer, count it, and record its latency. Write
    /// errors are ignored: the op has executed either way, and a client
    /// that hung up simply misses its answer.
    fn answer(&self, resp: &Response) {
        if matches!(resp, Response::Retryable { .. }) {
            self.stats.retryable.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.stats
            .record_latency(self.admitted.elapsed().as_micros() as u64);
        let frame = ServerFrame::Resp {
            seq: self.seq,
            response: resp.clone(),
        };
        let mut conn = lock_ok(&self.conn);
        let _ = write_frame(&mut *conn, frame.encode().as_bytes());
    }

    /// Sever the underlying socket (drop-connection fault injection).
    #[cfg(feature = "fault-inject")]
    fn sever(&self) {
        let conn = lock_ok(&self.conn);
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// Everything the dispatcher thread owns: the one op pipeline, outright.
struct Dispatcher {
    pipeline: JournaledEngine,
    ctx: Arc<ConnCtx>,
    /// Latched by a failed rebuild: the pipeline no longer matches its
    /// journal, so nothing more executes or appends while the server
    /// shuts down.
    halted: bool,
}

fn retryable(reason: &str) -> Response {
    Response::Retryable {
        reason: reason.to_string(),
    }
}

fn dispatch(admission_rx: Receiver<Job>, mut d: Dispatcher) {
    // A recovered pipeline starts with a tail and open sessions.
    d.ctx.stats.mirror(&d.pipeline, true);
    while let Ok(Job { req, reply }) = admission_rx.recv() {
        d.ctx.stats.depth.fetch_sub(1, Ordering::Relaxed);
        d.handle(req, reply);
    }
}

impl Dispatcher {
    /// Run one admitted op through the pipeline, supervised: a panic
    /// answers a typed [`Response::Retryable`] instead of tearing the
    /// thread (and with it the whole server) down.
    fn handle(&mut self, req: Request, reply: ReplyTo) {
        let stats = &self.ctx.stats;
        if self.halted {
            reply.answer(&retryable("the server is shutting down; resend later"));
            return;
        }
        #[cfg(feature = "fault-inject")]
        if self.ctx.fault.drop_conn_at(self.pipeline.submitted()) {
            // Sever the client's socket; the op still executes and its
            // answer write fails silently — exactly what a mid-flight
            // network partition looks like to the server.
            reply.sever();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.pipeline.submit(reply.seq, &req)));
        let resp = match outcome {
            Ok(Ok(resp)) => resp,
            // A journal we cannot write is a durability promise we
            // cannot keep: refuse the op, keep serving.
            Ok(Err(_)) => retryable("journal append failed; resend the op"),
            // A shardable op panicked. Probes post same-value claims
            // and queries write nothing, so the surviving state is
            // still what the journal describes and a resend re-executes
            // cleanly.
            Err(_) if req.is_shardable() => {
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                retryable("the op panicked; resend the op")
            }
            // A panic mid-transition leaves the engine in an unknown
            // state, so it is never trusted again: rebuild from the
            // journal, which recorded this very op before it ran, so
            // the client's resend hits the dedupe window — exactly once.
            Err(_) => {
                stats.rebuilds.fetch_add(1, Ordering::Relaxed);
                match self.pipeline.rebuild() {
                    Ok(()) => retryable("barrier interrupted; state rebuilt from the journal"),
                    Err(err) => {
                        eprintln!(
                            "rebuild from the journal failed ({err}); shutting down — \
                             restart with --recover"
                        );
                        self.halted = true;
                        retryable("barrier interrupted and the rebuild failed; shutting down")
                    }
                }
            }
        };
        stats.mirror(&self.pipeline, !req.is_shardable());
        reply.answer(&resp);
        if self.halted {
            self.ctx.trigger_shutdown();
        }
    }
}

/// Shared state the connection threads need.
struct ConnCtx {
    stats: Arc<StatsInner>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    local_addr: SocketAddr,
    retry_after_ms: u32,
    #[cfg(feature = "fault-inject")]
    fault: Arc<FaultPlan>,
}

impl ConnCtx {
    /// Flip the shutdown flag, poke the acceptor awake, and unblock
    /// every connection thread's pending read. Called for a client's
    /// `shutdown` frame, and by the dispatcher when a rebuild fails.
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
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    let send = |frame: &ServerFrame| write_frame(&mut *lock_ok(&writer), frame.encode().as_bytes());
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
                            stats: ctx.stats.clone(),
                        },
                    };
                    ctx.stats.depth_enter();
                    match admission_tx.try_send(job) {
                        Ok(()) => {
                            ctx.stats.admitted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Full(_)) => {
                            ctx.stats.depth_leave();
                            ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                            let _ = send(&ServerFrame::Resp {
                                seq,
                                response: Response::Busy {
                                    retry_after_ms: ctx.retry_after_ms,
                                },
                            });
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            ctx.stats.depth_leave();
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
