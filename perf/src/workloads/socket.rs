//! `socket_read` and `socket_durable`: the service behind its TCP
//! front-end, server thread in this process, load from this process.
//!
//! Each spends 60 % of its budget on the **rtt probe** — one bench-owned
//! connection with `TCP_NODELAY`, its own session, one request outstanding
//! at a time — and 40 % on pipelined replays (closed loop, 2 connections,
//! the client's default 64-deep window).
//!
//! Only the probe feeds the end-to-end metrics. On the sizing host a
//! pipelined replay's wall is `base + k × 44 ms`, where `k` — how often
//! Nagle on the server's two-write frames meets the client's delayed ACK —
//! wanders from 0 to 7 per 1000 ops with the host's scheduling, so replay
//! throughput is bimodal run to run (5 k vs 23 k ops/s) and cannot sit
//! inside any bound the contract allows. The replays still run — their
//! answers, journal and recovery are checked — and their throughput is
//! reported as a fact here and as `net.replay_ops_per_s` /
//! `journal.replay_ops_per_s` by the traced run.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use byzscore_service::checkpoint::{checkpoint_path, previous_checkpoint_path};
use byzscore_service::journal;
use byzscore_service::net::{replay_with_options, request_shutdown, request_stats};
use byzscore_service::wire::{read_frame, write_frame, ClientFrame, ServerFrame};
use byzscore_service::{
    format_op, NetConfig, OpMix, ReplayOptions, Request, Response, Server, ServiceEngine,
    StatsSnapshot, Trace, DEFAULT_SHARDS,
};

use super::serve::{
    check_fold, generate, read_segments, retarget, spec, Fold, DURABLE_MIX, READ_SEGMENTS, SESSIONS,
};
use super::{Config, Phase, Verdict, Workload};
use crate::json::{int, num, s, Value};
use crate::spans::Tracer;
use crate::stats::median;

/// Client connections of every replay: one per core of the sizing machine,
/// so load generation and the server share the two cores.
pub const CONNECTIONS: usize = 2;

/// Share of a timed phase spent on pipelined replays; the rest is the rtt
/// probe.
const REPLAY_SHARE: f64 = 0.4;

/// Round trips per throughput segment of the rtt probe; every rtt phase
/// makes at least one segment whatever the clock says.
const TRIPS_PER_SEGMENT: usize = 10;

pub fn replay_options() -> ReplayOptions {
    ReplayOptions {
        connections: CONNECTIONS,
        ..ReplayOptions::default()
    }
}

fn broken(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A `Server` running on its own thread.
pub struct Live {
    pub addr: SocketAddr,
    thread: JoinHandle<StatsSnapshot>,
}

impl Live {
    pub fn start(config: NetConfig) -> Live {
        let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Live { addr, thread }
    }

    /// Ask for shutdown and wait for the server thread; its lifetime
    /// counters come back.
    pub fn stop(self) -> StatsSnapshot {
        request_shutdown(self.addr).expect("server acknowledges shutdown");
        self.thread.join().expect("server thread ends cleanly")
    }
}

/// The bench-owned connection of the rtt probe.
pub struct RttConn {
    stream: TcpStream,
    seq: u64,
}

impl RttConn {
    /// Dial, disable Nagle, exchange hellos.
    pub fn connect(addr: SocketAddr) -> io::Result<RttConn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, ClientFrame::Hello.encode().as_bytes())?;
        let payload = read_frame(&mut stream)?.ok_or_else(|| broken("closed before hello"))?;
        match ServerFrame::decode(&String::from_utf8_lossy(&payload)) {
            Ok(ServerFrame::Hello) => Ok(RttConn {
                stream,
                // Far from the replay client's per-call indices, so the
                // probe's one barrier (its open) never meets a dedupe
                // entry.
                seq: 1 << 40,
            }),
            other => Err(broken(format!("expected hello, got {other:?}"))),
        }
    }

    /// One request, one answer: seconds from before encoding to after
    /// decoding. Traced, the four steps are child spans of the round
    /// trip, so its self time is what the harness itself adds.
    pub fn round_trip(&mut self, tracer: &mut Tracer, op: &Request) -> io::Result<(Response, f64)> {
        let seq = self.seq;
        self.seq += 1;
        let trip = tracer.enter("net.round_trip", seq);
        let began = Instant::now();
        let frame = tracer.span("wire.encode_request", seq, || {
            ClientFrame::Op {
                seq,
                line: format_op(op),
            }
            .encode()
        });
        tracer.span("net.write_frame", seq, || {
            write_frame(&mut self.stream, frame.as_bytes())
        })?;
        let payload = tracer
            .span("net.await_reply", seq, || read_frame(&mut self.stream))?
            .ok_or_else(|| broken("closed before the answer"))?;
        let decoded = tracer.span("wire.decode_response", seq, || {
            ServerFrame::decode(&String::from_utf8_lossy(&payload))
        });
        let wall = began.elapsed().as_secs_f64();
        tracer.exit(trip);
        match decoded {
            Ok(ServerFrame::Resp {
                seq: echoed,
                response,
            }) if echoed == seq => Ok((response, wall)),
            other => Err(broken(format!("expected resp {seq}, got {other:?}"))),
        }
    }

    /// Open the probe's own session; returns its id.
    pub fn open_session(&mut self, open: &Request) -> io::Result<u64> {
        match self.round_trip(&mut Tracer::new(false), open)?.0 {
            Response::Opened { session, .. } => Ok(session),
            other => Err(broken(format!("expected Opened, got {other:?}"))),
        }
    }
}

/// The rtt probe's generated inputs: one session and a stream of
/// single-kind ops on it.
pub struct RttTraffic {
    pub open: Request,
    pub ops: Vec<Request>,
}

/// `mix` must hold one op kind; the stream is addressed to `session`.
pub fn rtt_traffic(seed: u64, mix: OpMix, ops: usize, session: u64) -> RttTraffic {
    let mut probe_spec = spec(seed, ops, mix);
    probe_spec.sessions = 1;
    let mut traffic = generate(&probe_spec);
    RttTraffic {
        open: traffic.opens.remove(0),
        ops: traffic
            .body
            .iter()
            .map(|op| retarget(op, session))
            .collect(),
    }
}

/// The rtt phase both socket workloads share.
struct Rtt {
    conn: RttConn,
    traffic: RttTraffic,
    next: usize,
    fold: Fold,
}

impl Rtt {
    /// Connect, open the probe's session (expected to get id `session`),
    /// and make one untimed segment of round trips.
    fn start(addr: SocketAddr, traffic: RttTraffic, session: u64) -> Rtt {
        let mut conn = RttConn::connect(addr).expect("rtt connection");
        let opened = conn.open_session(&traffic.open).expect("rtt session opens");
        assert_eq!(opened, session, "rtt session id");
        let mut rtt = Rtt {
            conn,
            traffic,
            next: 0,
            fold: Fold::default(),
        };
        // Warm-up: one untimed segment.
        rtt.run(&mut Tracer::new(false), 0.0, &mut Phase::default());
        rtt
    }

    /// Whole segments of [`TRIPS_PER_SEGMENT`] round trips until `seconds`
    /// have passed: each trip is one latency sample, each segment one
    /// throughput sample.
    fn run(&mut self, tracer: &mut Tracer, seconds: f64, phase: &mut Phase) {
        let start = Instant::now();
        loop {
            let mut busy = 0.0;
            for _ in 0..TRIPS_PER_SEGMENT {
                let op = &self.traffic.ops[self.next % self.traffic.ops.len()];
                let (answer, wall) = self
                    .conn
                    .round_trip(tracer, op)
                    .expect("rtt probe round trip");
                self.fold.push(&answer);
                self.next += 1;
                busy += wall;
                phase.latencies_ms.push(wall * 1e3);
            }
            phase.segments.push(TRIPS_PER_SEGMENT as f64 / busy);
            phase.attempted += TRIPS_PER_SEGMENT as u64;
            if start.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// The ops sent so far, in order (the stream wraps around).
    fn sent(&self) -> impl Iterator<Item = &Request> {
        (0..self.next).map(|i| &self.traffic.ops[i % self.traffic.ops.len()])
    }
}

/// The load side both socket workloads share: the live server, the rtt
/// probe, and the running account of the pipelined replays.
struct Client {
    live: Option<Live>,
    rtt: Rtt,
    /// Everything replayed so far, warm-up included, in order.
    replayed: Vec<Vec<Request>>,
    replay_fold: Fold,
    /// Throughput of every timed replay (reported, not gated).
    replay_ops_per_s: Vec<f64>,
    retries: u64,
}

impl Client {
    /// Start a server, replay `opens` on it, then open the rtt probe's
    /// session (which so gets the id after the opens').
    fn start(config: NetConfig, opens: &[Request], probe: RttTraffic) -> Client {
        let live = Live::start(config);
        let opened =
            replay_with_options(live.addr, opens, replay_options()).expect("set-up opens replay");
        assert!(
            opened
                .responses
                .iter()
                .all(|r| matches!(r, Response::Opened { .. })),
            "set-up opens must succeed"
        );
        let rtt = Rtt::start(live.addr, probe, opens.len() as u64);
        Client {
            live: Some(live),
            rtt,
            replayed: Vec::new(),
            replay_fold: Fold::default(),
            replay_ops_per_s: Vec::new(),
            retries: 0,
        }
    }

    /// One `replay_with_options` call over `ops`; answers folded and
    /// dropped. Returns its wall.
    fn replay(&mut self, tracer: &mut Tracer, ops: Vec<Request>) -> f64 {
        let id = self.replayed.len() as u64;
        let addr = self.live.as_ref().expect("server is live").addr;
        let open = tracer.enter("net.replay", id);
        let began = Instant::now();
        let replay = replay_with_options(addr, &ops, replay_options());
        let wall = began.elapsed().as_secs_f64();
        tracer.exit(open);
        match replay {
            Ok(replay) => {
                self.replay_fold.extend(&replay.responses);
                self.retries += replay.busy_retries + replay.retryable_retries;
            }
            // A give-up: no answers fold in, so the digest check fails
            // every replay.
            Err(err) => eprintln!("replay {id} gave up: {err}"),
        }
        self.replayed.push(ops);
        wall
    }

    /// One timed phase: replays of `segment(index)` for [`REPLAY_SHARE`] of
    /// the budget, then the rtt probe for the rest.
    fn measure(
        &mut self,
        tracer: &mut Tracer,
        seconds: f64,
        mut segment: impl FnMut(u64) -> Vec<Request>,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        loop {
            let ops = segment(self.replayed.len() as u64);
            let count = ops.len() as u64;
            let wall = self.replay(tracer, ops);
            self.replay_ops_per_s.push(count as f64 / wall);
            phase.attempted += count;
            if start.elapsed().as_secs_f64() >= seconds * REPLAY_SHARE {
                break;
            }
        }
        self.rtt
            .run(tracer, seconds * (1.0 - REPLAY_SHARE), &mut phase);
        phase
    }

    /// Check every answer against an in-process engine that executes the
    /// same ops in the same session-id order: `opens`, the probe's open,
    /// the replays, the probe's ops. Returns the ops replayed.
    fn check_answers(&self, verdict: &mut Verdict, opens: &[Request]) -> u64 {
        let mut reference = ServiceEngine::with_shards(DEFAULT_SHARDS);
        reference.execute(opens);
        reference.execute(std::slice::from_ref(&self.rtt.traffic.open));
        let mut expected = Fold::default();
        let mut ops = 0;
        for segment in &self.replayed {
            expected.extend(&reference.execute(segment));
            ops += segment.len() as u64;
        }
        check_fold(verdict, "replays", ops, self.replay_fold, expected);
        let sent: Vec<Request> = self.rtt.sent().cloned().collect();
        let mut expected = Fold::default();
        expected.extend(&reference.execute(&sent));
        check_fold(
            verdict,
            "rtt probe",
            sent.len() as u64,
            self.rtt.fold,
            expected,
        );
        ops
    }

    /// Facts both workloads report.
    fn facts(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("replays", int(self.replayed.len() as u64)),
            ("replay_ops_per_s_p50", num(median(&self.replay_ops_per_s))),
            ("round_trips", int(self.rtt.next as u64)),
            ("busy_or_retryable_retries", int(self.retries)),
        ]
    }

    /// Shut the server down if it is still up.
    fn stop(&mut self) -> Option<StatsSnapshot> {
        self.live.take().map(Live::stop)
    }
}

/// The rtt probe of `socket_read`: queries only.
pub const QUERY_ONLY: OpMix = OpMix {
    probe: 0,
    query: 1,
    churn: 0,
    epoch: 0,
};

/// The rtt probe of `socket_durable`: probe submissions only, each one
/// journaled before it executes.
const PROBE_ONLY: OpMix = OpMix {
    probe: 1,
    query: 0,
    churn: 0,
    epoch: 0,
};

// ---------------------------------------------------------------------------
// socket_read
// ---------------------------------------------------------------------------

pub struct Read {
    client: Client,
    opens: Vec<Request>,
    segments: Vec<Vec<Request>>,
}

impl Workload for Read {
    fn setup(cfg: &Config) -> Read {
        let segment_ops = if cfg.smoke { 240 } else { 2_400 };
        let (opens, segments) = read_segments(cfg.seed, segment_ops);
        let probe = rtt_traffic(cfg.seed + 100, QUERY_ONLY, 4096, SESSIONS as u64);
        let client = Client::start(NetConfig::default(), &opens, probe);
        let mut read = Read {
            client,
            opens,
            segments,
        };
        // Warm-up: one whole segment through both connections.
        let warmup = read.segments[0].clone();
        read.client.replay(&mut Tracer::new(false), warmup);
        read
    }

    fn measure(&mut self, tracer: &mut Tracer, seconds: f64) -> Phase {
        let segments = &self.segments;
        self.client.measure(tracer, seconds, |index| {
            segments[index as usize % READ_SEGMENTS].clone()
        })
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let stats = self.client.stop().expect("server is live");
        self.client.check_answers(&mut verdict, &self.opens);
        verdict.facts = vec![
            ("ops_per_segment", int(self.segments[0].len() as u64)),
            ("distinct_segments", int(READ_SEGMENTS as u64)),
            ("server_admitted", int(stats.admitted)),
            ("server_completed", int(stats.completed)),
        ];
        verdict.facts.extend(self.client.facts());
        verdict
    }

    fn teardown(mut self) {
        self.client.stop();
    }
}

// ---------------------------------------------------------------------------
// socket_durable
// ---------------------------------------------------------------------------

/// Mutating ops between checkpoint cycles.
pub const COMPACT_EVERY: u64 = 128;

/// A scratch directory under `perf/out/`, inside the checkout.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = crate::out_dir().join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }

    pub fn remove(self) {
        // Best effort: a leftover scratch directory is ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy a journal and whatever checkpoints sit beside it into `to`.
pub fn copy_journal(journal: &Path, to: &Path) -> io::Result<PathBuf> {
    let name = journal.file_name().expect("journal has a file name");
    let copy = to.join(name);
    std::fs::copy(journal, &copy)?;
    for (from, into) in [
        (checkpoint_path(journal), checkpoint_path(&copy)),
        (
            previous_checkpoint_path(journal),
            previous_checkpoint_path(&copy),
        ),
    ] {
        if from.exists() {
            std::fs::copy(from, into)?;
        }
    }
    Ok(copy)
}

/// Replay `index` of a durable run: a complete generated trace (its own
/// sessions: opens, `ops` mixed ops, closes) addressed to the ids its opens
/// will be given — the probe's session is 0, replay `i`'s are `1+4i…`.
/// Barriers are deduped by `(session, seq)` and a replay numbers its ops
/// from 0, so two replays may never address the same session.
fn durable_trace(seed: u64, index: u64, ops: usize) -> Vec<Request> {
    let base = 1 + index * SESSIONS as u64;
    Trace::generate(&spec(seed + index, ops, DURABLE_MIX))
        .ops
        .iter()
        .map(|op| retarget(op, base))
        .collect()
}

pub struct Durable {
    client: Client,
    dir: Option<TempDir>,
    journal: PathBuf,
    seed: u64,
    segment_ops: usize,
}

impl Workload for Durable {
    fn setup(cfg: &Config) -> Durable {
        let dir = TempDir::create("durable");
        let journal = dir.0.join("wal.journal");
        let config = NetConfig {
            journal: Some(journal.clone()),
            compact_every: Some(COMPACT_EVERY),
            ..NetConfig::default()
        };
        // No opens before it: the probe's session is the server's first.
        let probe = rtt_traffic(cfg.seed + 100, PROBE_ONLY, 4096, 0);
        let mut durable = Durable {
            client: Client::start(config, &[], probe),
            dir: Some(dir),
            journal,
            seed: cfg.seed,
            segment_ops: if cfg.smoke { 120 } else { 750 },
        };
        // Warm-up: a short complete trace (opens, mix, closes).
        let warmup = durable_trace(cfg.seed, 0, durable.segment_ops / 5);
        durable.client.replay(&mut Tracer::new(false), warmup);
        durable
    }

    fn measure(&mut self, tracer: &mut Tracer, seconds: f64) -> Phase {
        let (seed, ops) = (self.seed, self.segment_ops);
        self.client
            .measure(tracer, seconds, |index| durable_trace(seed, index, ops))
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let addr = self.client.live.as_ref().expect("server is live").addr;
        let journaled = request_stats(addr).expect("stats frame").journaled;
        let stats = self.client.stop().expect("server is live");
        let ops = self.client.check_answers(&mut verdict, &[]);

        // Durability: everything mutating that was sent is in the history
        // a recovery rebuilds.
        let mutating = 1 + self
            .client
            .rtt
            .sent()
            .chain(self.client.replayed.iter().flatten())
            .filter(|op| op.is_mutating())
            .count() as u64;
        let scratch = TempDir::create("recover");
        let began = Instant::now();
        let recovered = copy_journal(&self.journal, &scratch.0)
            .and_then(|copy| journal::recover(&copy, DEFAULT_SHARDS));
        let recovery_ms = began.elapsed().as_secs_f64() * 1e3;
        scratch.remove();
        let mut recovered_from = "failed";
        match recovered {
            Ok(rec) if rec.history_ops == mutating => recovered_from = rec.source.describe(),
            Ok(rec) => {
                verdict.failed += ops;
                verdict.problems.push(format!(
                    "recovery rebuilt {} mutating ops, {mutating} were sent",
                    rec.history_ops
                ));
            }
            Err(err) => {
                verdict.failed += ops;
                verdict.problems.push(format!("recovery failed: {err}"));
            }
        }
        if journaled != mutating {
            verdict.failed += ops;
            verdict.problems.push(format!(
                "server journaled {journaled} ops, {mutating} mutating ops were sent"
            ));
        }
        verdict.facts = vec![
            (
                "ops_per_segment",
                int(self.segment_ops as u64 + 2 * SESSIONS as u64),
            ),
            ("mutating_ops", int(mutating)),
            ("compact_every", int(COMPACT_EVERY)),
            ("checkpoint_cycles", int(stats.checkpoints)),
            ("recovery_ms", num(recovery_ms)),
            ("recovered_from", s(recovered_from)),
        ];
        verdict.facts.extend(self.client.facts());
        verdict
    }

    fn teardown(mut self) {
        self.client.stop();
        if let Some(dir) = self.dir.take() {
            dir.remove();
        }
    }
}
