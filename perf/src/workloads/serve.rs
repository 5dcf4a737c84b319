//! `serve_read` and `serve_churn`: generated request traffic driven through
//! an in-process `ServiceEngine`, plus the traffic generator the socket
//! workloads share.
//!
//! The work unit is one request. Closed loop, one caller: each `execute`
//! call returns before the next is made.

use std::time::Instant;

use byzscore_board::par::set_thread_limit;
use byzscore_service::{
    mix, OpMix, Request, Response, ServiceAlgorithm, ServiceEngine, Trace, TraceSpec,
    DEFAULT_SHARDS,
};

use super::{Config, Phase, Verdict, Workload};
use crate::json::int;
use crate::spans::Tracer;

/// Sessions every service workload keeps open.
pub const SESSIONS: usize = 4;

/// Probes and queries only: no barrier ever runs.
pub const READ_MIX: OpMix = OpMix {
    probe: 120,
    query: 60,
    churn: 0,
    epoch: 0,
};

/// One op in seven is a churn or epoch barrier.
pub const CHURN_MIX: OpMix = OpMix {
    probe: 6,
    query: 6,
    churn: 1,
    epoch: 1,
};

/// e17's mix: barriers are ~1 % of ops.
pub const DURABLE_MIX: OpMix = OpMix {
    probe: 120,
    query: 60,
    churn: 1,
    epoch: 1,
};

/// The session shape all four service workloads share: small worlds so
/// shardable ops cost ~1 µs and a barrier's recompute ~10 ms.
pub fn spec(seed: u64, ops: usize, mix: OpMix) -> TraceSpec {
    TraceSpec {
        sessions: SESSIONS,
        ops,
        players: 96,
        objects: 192,
        clusters: 4,
        diameter: 4,
        budget: 4,
        corrupt: 6,
        drift_ppm: 1000,
        algorithm: ServiceAlgorithm::Naive,
        mix,
        skew: 2,
        seed,
    }
}

/// A generated trace split into its opens and its body; the trailing
/// closes are dropped so sessions stay live across segments.
pub struct Traffic {
    pub opens: Vec<Request>,
    pub body: Vec<Request>,
}

pub fn generate(spec: &TraceSpec) -> Traffic {
    let mut ops = Trace::generate(spec).ops;
    ops.truncate(ops.len() - spec.sessions);
    let body = ops.split_off(spec.sessions);
    debug_assert!(ops.iter().all(|op| matches!(op, Request::Open(_))));
    Traffic { opens: ops, body }
}

/// Distinct read-mix segments `serve_read` and `socket_read` cycle through.
pub const READ_SEGMENTS: usize = 4;

/// [`READ_SEGMENTS`] read-mix bodies of `ops` ops each (generator seeds
/// `seed`, `seed+1`, …) and the opens they all address: every spec has the
/// same session shape, so the first trace's opens serve them all.
pub fn read_segments(seed: u64, ops: usize) -> (Vec<Request>, Vec<Vec<Request>>) {
    let mut opens = Vec::new();
    let segments = (0..READ_SEGMENTS as u64)
        .map(|i| {
            let traffic = generate(&spec(seed + i, ops, READ_MIX));
            if i == 0 {
                opens = traffic.opens;
            }
            traffic.body
        })
        .collect();
    (opens, segments)
}

/// Running fold of answers: the digest, and how many answers were not a
/// final, accepted one. Answers are folded and dropped — holding millions
/// of `Response`s doubled the run-to-run spread on the sizing runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold {
    pub digest: u64,
    pub unexpected: u64,
}

impl Default for Fold {
    fn default() -> Fold {
        Fold {
            digest: 0x7065_7266, // "perf"
            unexpected: 0,
        }
    }
}

impl Fold {
    pub fn push(&mut self, response: &Response) {
        self.digest = mix(self.digest, response.digest());
        if matches!(
            response,
            Response::Rejected(_) | Response::Busy { .. } | Response::Retryable { .. }
        ) {
            self.unexpected += 1;
        }
    }

    pub fn extend(&mut self, responses: &[Response]) {
        responses.iter().for_each(|r| self.push(r));
    }
}

/// Check one fold against the reference execution of the same ops.
pub fn check_fold(verdict: &mut Verdict, what: &str, ops: u64, measured: Fold, reference: Fold) {
    if measured.digest != reference.digest {
        verdict.failed += ops;
        verdict.problems.push(format!(
            "{what}: digest {:016x} differs from the in-process reference {:016x}",
            measured.digest, reference.digest
        ));
    } else if measured.unexpected > 0 {
        verdict.failed += measured.unexpected;
        verdict.problems.push(format!(
            "{what}: {} answers were Rejected, Busy or Retryable",
            measured.unexpected
        ));
    }
}

/// Segments past the verified prefix are not re-executed; they still may
/// not hold a refused answer.
fn check_rest(verdict: &mut Verdict, rest: Fold) {
    if rest.unexpected > 0 {
        verdict.failed += rest.unexpected;
        verdict.problems.push(format!(
            "{} answers past the verified prefix were Rejected",
            rest.unexpected
        ));
    }
}

/// A fresh engine with the traffic's sessions open.
fn open_engine(shards: usize, opens: &[Request]) -> ServiceEngine {
    let mut engine = ServiceEngine::with_shards(shards);
    let opened = engine.execute(opens);
    assert!(
        opened.iter().all(|r| matches!(r, Response::Opened { .. })),
        "set-up opens must succeed"
    );
    engine
}

// ---------------------------------------------------------------------------
// serve_read
// ---------------------------------------------------------------------------

/// Ops per `execute` call (e17's batch): the latency unit of `serve_read`.
const BATCH: usize = 1024;
/// Leading segments whose digests the reference re-executes. The answers
/// of a barrier-free mix do not depend on what ran before, so checking a
/// prefix checks the same code the later segments run.
const READ_VERIFIED: usize = 2;

pub struct Read {
    engine: ServiceEngine,
    opens: Vec<Request>,
    segments: Vec<Vec<Request>>,
    executed: usize,
    batches: u64,
    folds: Vec<Fold>,
    rest: Fold,
}

impl Read {
    fn segment_ops(cfg: &Config) -> usize {
        if cfg.smoke {
            4 * BATCH
        } else {
            256 * BATCH
        }
    }
}

impl Workload for Read {
    fn setup(cfg: &Config) -> Read {
        let (opens, segments) = read_segments(cfg.seed, Read::segment_ops(cfg));
        let mut engine = open_engine(DEFAULT_SHARDS, &opens);
        // Warm-up on ops the timed phase runs again: probe claims land in
        // their slots and the flush path's buffers reach their size.
        for chunk in segments[0].chunks(BATCH).take(32) {
            std::hint::black_box(engine.execute(chunk));
        }
        Read {
            engine,
            opens,
            segments,
            executed: 0,
            batches: 0,
            folds: Vec::new(),
            rest: Fold::default(),
        }
    }

    fn measure(&mut self, tracer: &mut Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while self.executed < READ_VERIFIED || start.elapsed().as_secs_f64() < seconds {
            let segment = &self.segments[self.executed % READ_SEGMENTS];
            let mut fold = Fold::default();
            let mut busy = 0.0;
            for chunk in segment.chunks(BATCH) {
                self.batches += 1;
                let open = tracer.enter("engine.execute", self.batches);
                let began = Instant::now();
                let answers = self.engine.execute(chunk);
                let wall = began.elapsed().as_secs_f64();
                tracer.exit(open);
                busy += wall;
                phase.latencies_ms.push(wall * 1e3);
                fold.extend(&answers);
            }
            phase.segments.push(segment.len() as f64 / busy);
            phase.attempted += segment.len() as u64;
            if self.executed < READ_VERIFIED {
                self.folds.push(fold);
            } else {
                self.rest.unexpected += fold.unexpected;
            }
            self.executed += 1;
        }
        phase
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        // Reference: one shard, one `execute` call per segment — the
        // layout-independent answer stream the engine promises.
        let mut reference = open_engine(1, &self.opens);
        for (i, measured) in self.folds.iter().enumerate() {
            let segment = &self.segments[i % READ_SEGMENTS];
            let mut expected = Fold::default();
            expected.extend(&reference.execute(segment));
            check_fold(
                &mut verdict,
                &format!("segment {i}"),
                segment.len() as u64,
                *measured,
                expected,
            );
        }
        check_rest(&mut verdict, self.rest);
        verdict.facts = vec![
            ("ops_per_segment", int(self.segments[0].len() as u64)),
            ("ops_per_execute", int(BATCH as u64)),
            ("distinct_segments", int(READ_SEGMENTS as u64)),
            ("segments_executed", int(self.executed as u64)),
            ("segments_verified", int(self.folds.len() as u64)),
        ];
        verdict
    }
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// Mixed ops per segment; one op per `execute` call so every barrier has
/// its own latency sample.
const CHURN_SEGMENT: usize = 400;
/// Barriers the warm-up executes. Counting barriers, not ops, keeps
/// `setup_s` from inheriting the seed's luck: how many barriers fall in
/// the first hundred ops varies by ±25 %.
const CHURN_WARMUP_BARRIERS: usize = 48;
/// Leading segments the reference re-executes. A barrier costs the same
/// in the reference as in the run, so the check covers a bounded prefix.
const CHURN_VERIFIED: usize = 2;

/// Thread budget `serve_churn` runs under. At the default budget (all
/// cores) a young session's barrier spends more time spawning and waking
/// `board::par` workers than computing: on the 2-vCPU sizing host the
/// workload ran 2.5–4× *slower* than at one thread, and its throughput
/// followed the hypervisor's wake-up latency (660 → 1110 ops/s between
/// back-to-back runs of one seed) — outside any bound the contract allows.
/// One thread measures the recompute itself; what the default budget costs
/// on top is the traced run's `engine.churn_par_ratio`.
const CHURN_THREAD_BUDGET: usize = 1;

/// The same op addressed to session `session + base` (opens carry no id).
pub fn retarget(op: &Request, base: u64) -> Request {
    let mut op = op.clone();
    match &mut op {
        Request::Open(_) => {}
        Request::SubmitProbes { session, .. }
        | Request::QueryPreferences { session, .. }
        | Request::ApplyChurn { session, .. }
        | Request::AdvanceEpoch { session }
        | Request::CloseSession { session } => *session += base,
    }
    op
}

/// `serve_churn`. Every segment is a complete generated trace on its own
/// fresh sessions — opens and closes untimed, the mixed ops between them
/// timed — because a session's barriers get dearer as it ages
/// (`DriftingTruth` replays every past epoch on each truth read): one long
/// trace made the 30th segment four times slower than the first, and the
/// median depended on how many segments the budget happened to fit.
pub struct Churn {
    engine: ServiceEngine,
    seed: u64,
    segment_ops: usize,
    /// Traces run so far, the warm-up's included; trace `k` owns session
    /// ids `4k..4k+4`.
    traces: u64,
    /// The warm-up's ops and the first [`CHURN_VERIFIED`] segments, with
    /// the fold of each segment's timed answers.
    warmup: Vec<Request>,
    verified: Vec<(Vec<Request>, Fold)>,
    rest: Fold,
    ops: u64,
    barriers: u64,
}

impl Churn {
    /// Trace `k`: opens, `ops` mixed ops, closes, addressed to its own ids.
    fn trace(&self, k: u64, ops: usize) -> Vec<Request> {
        Trace::generate(&spec(self.seed + k, ops, CHURN_MIX))
            .ops
            .iter()
            .map(|op| retarget(op, k * SESSIONS as u64))
            .collect()
    }
}

impl Workload for Churn {
    fn setup(cfg: &Config) -> Churn {
        set_thread_limit(Some(CHURN_THREAD_BUDGET));
        let mut churn = Churn {
            engine: ServiceEngine::new(),
            seed: cfg.seed,
            segment_ops: if cfg.smoke { 40 } else { CHURN_SEGMENT },
            traces: 1,
            warmup: Vec::new(),
            verified: Vec::new(),
            rest: Fold::default(),
            ops: 0,
            barriers: 0,
        };
        // Warm-up: trace 0 until enough barriers have run; its sessions
        // stay open and idle.
        let mut barriers = 0;
        for op in churn.trace(0, 2 * CHURN_SEGMENT) {
            if barriers == SESSIONS + CHURN_WARMUP_BARRIERS {
                break;
            }
            std::hint::black_box(churn.engine.execute(std::slice::from_ref(&op)));
            barriers += usize::from(!op.is_shardable());
            churn.warmup.push(op);
        }
        churn
    }

    fn measure(&mut self, tracer: &mut Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while self.verified.len() < CHURN_VERIFIED || start.elapsed().as_secs_f64() < seconds {
            let trace = self.trace(self.traces, self.segment_ops);
            let (opens, rest) = trace.split_at(SESSIONS);
            let (body, closes) = rest.split_at(self.segment_ops);
            let opened = self.engine.execute(opens);
            assert!(
                opened.iter().all(|r| matches!(r, Response::Opened { .. })),
                "segment opens must succeed"
            );
            let mut fold = Fold::default();
            let mut busy = 0.0;
            for (index, op) in body.iter().enumerate() {
                let barrier = !op.is_shardable();
                let name = if barrier {
                    "engine.execute.barrier"
                } else {
                    "engine.execute.shardable"
                };
                let open = tracer.enter(name, self.ops + index as u64);
                let began = Instant::now();
                let answers = self.engine.execute(std::slice::from_ref(op));
                let wall = began.elapsed().as_secs_f64();
                tracer.exit(open);
                busy += wall;
                if barrier {
                    self.barriers += 1;
                    phase.latencies_ms.push(wall * 1e3);
                }
                fold.extend(&answers);
            }
            self.engine.execute(closes);
            self.traces += 1;
            self.ops += body.len() as u64;
            phase.segments.push(body.len() as f64 / busy);
            phase.attempted += body.len() as u64;
            if self.verified.len() < CHURN_VERIFIED {
                self.verified.push((trace, fold));
            } else {
                self.rest.unexpected += fold.unexpected;
            }
        }
        phase
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let mut reference = ServiceEngine::with_shards(1);
        reference.execute(&self.warmup);
        for (i, (trace, measured)) in self.verified.iter().enumerate() {
            let answers = reference.execute(trace);
            let mut expected = Fold::default();
            expected.extend(&answers[SESSIONS..SESSIONS + self.segment_ops]);
            check_fold(
                &mut verdict,
                &format!("segment {i}"),
                self.segment_ops as u64,
                *measured,
                expected,
            );
        }
        check_rest(&mut verdict, self.rest);
        verdict.facts = vec![
            ("ops_per_segment", int(self.segment_ops as u64)),
            ("ops_per_execute", int(1)),
            ("thread_budget", int(CHURN_THREAD_BUDGET as u64)),
            ("ops_executed", int(self.ops)),
            ("barriers_executed", int(self.barriers)),
            ("segments_verified", int(self.verified.len() as u64)),
        ];
        verdict
    }

    fn teardown(self) {
        set_thread_limit(None);
    }
}
