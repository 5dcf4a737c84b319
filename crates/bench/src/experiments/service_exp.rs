//! E17 — scoring-as-a-service throughput (DESIGN.md §4.13).
//!
//! The service engine answers a recorded request trace; the experiment
//! measures sustained request throughput and per-op latency while CI
//! gates only the deterministic cells: the combined response digest
//! (bit-identical at any `--threads`, any shard count, and any batch
//! split of the same trace) and the rejected-op count. `reqs/sec` and
//! the latency percentiles are machine-dependent and report-only.

use std::time::Instant;

use byzscore_service::net::{replay_over_socket, request_shutdown};
use byzscore_service::{
    combined_digest, parse_digests, NetConfig, OpMix, Response, Server, ServiceAlgorithm,
    ServiceEngine, Trace, TraceSpec, DEFAULT_SHARDS,
};

use crate::table::{f2, Table};
use crate::Scale;

/// Ops per `execute` call during the timed replay. Responses are
/// independent of this split (the engine flushes shardable batches at
/// barriers either way); it only sets the latency sampling granularity.
const BATCH: usize = 1024;

/// Replay `trace` on a fresh engine with `shards` logical workers and
/// fold the answers: `(digest, rejected ops)`.
fn replay_with_shards(trace: &Trace, shards: usize) -> (u64, usize) {
    let responses = ServiceEngine::with_shards(shards).execute(&trace.ops);
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    (combined_digest(&responses), rejected)
}

/// One timed replay in [`BATCH`]-sized `execute` calls.
struct Timed {
    digest: u64,
    rejected: usize,
    reqs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn timed_replay(trace: &Trace, shards: usize) -> Timed {
    let mut engine = ServiceEngine::with_shards(shards);
    let mut responses = Vec::with_capacity(trace.ops.len());
    // Per-batch mean op latency, weighted by batch size — enough for
    // p50/p99 without storing one sample per op at full scale.
    let mut batches: Vec<(u64, usize)> = Vec::with_capacity(trace.ops.len() / BATCH + 1);
    let start = Instant::now();
    for chunk in trace.ops.chunks(BATCH) {
        let t = Instant::now();
        responses.extend(engine.execute(chunk));
        let ns = t.elapsed().as_nanos() as u64;
        batches.push((ns / chunk.len() as u64, chunk.len()));
    }
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    batches.sort_unstable();
    let total: usize = trace.ops.len();
    let percentile = |q_num: usize, q_den: usize| -> f64 {
        let target = total * q_num / q_den;
        let mut seen = 0usize;
        for &(ns, k) in &batches {
            seen += k;
            if seen > target {
                return ns as f64 / 1e6;
            }
        }
        batches.last().map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    };
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    Timed {
        digest: combined_digest(&responses),
        rejected,
        reqs_per_sec: total as f64 / seconds,
        p50_ms: percentile(1, 2),
        p99_ms: percentile(99, 100),
    }
}

/// Latency cell: milliseconds with enough precision for µs-scale ops.
fn ms4(x: f64) -> String {
    format!("{x:.4}")
}

/// E17: resident service engine replaying recorded workloads — digest
/// determinism across shard layouts, then sustained throughput at
/// 10⁵ (quick) / 10⁶ (full) requests.
pub fn e17_service_throughput(scale: Scale) -> Vec<Table> {
    // Table 1 — determinism: small mixed traces, each replayed under
    // three shard layouts; every deterministic cell is CI-gated.
    let mut det = Table::new(
        "E17: service trace determinism (digest vs shard layout)",
        &[
            "seed",
            "sessions",
            "ops",
            "rejected",
            "digest",
            "shards 1/8/16 agree",
        ],
    );
    for seed in [1u64, 2] {
        let spec = TraceSpec::small(seed);
        let trace = Trace::generate(&spec);
        let (digest, rejected) = replay_with_shards(&trace, DEFAULT_SHARDS);
        let (d1, _) = replay_with_shards(&trace, 1);
        let (d16, _) = replay_with_shards(&trace, 16);
        det.row(vec![
            seed.to_string(),
            spec.sessions.to_string(),
            trace.ops.len().to_string(),
            rejected.to_string(),
            format!("{digest:016x}"),
            if d1 == digest && d16 == digest {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    det.note("digest folds every response in request order; identical at any --threads, shard count, and execute() batch split");

    // Table 2 — throughput: a read-heavy steady-state trace (probes and
    // queries dominate; churn/epoch recomputes are ~1% of ops).
    let ops = scale.pick(100_000, 1_000_000);
    let spec = TraceSpec {
        sessions: 4,
        ops,
        players: 96,
        objects: 192,
        clusters: 4,
        diameter: 4,
        budget: 4,
        corrupt: 6,
        drift_ppm: 1_000,
        algorithm: ServiceAlgorithm::Naive,
        mix: OpMix {
            probe: 120,
            query: 60,
            churn: 1,
            epoch: 1,
        },
        skew: 2,
        seed: 17,
    };
    let trace = Trace::generate(&spec);
    let mut thr = Table::new(
        "E17: service throughput @scale",
        &[
            "shards", "ops", "rejected", "reqs/sec", "p50 ms", "p99 ms", "digest",
        ],
    );
    for shards in [1usize, DEFAULT_SHARDS] {
        let t = timed_replay(&trace, shards);
        thr.row(vec![
            shards.to_string(),
            trace.ops.len().to_string(),
            t.rejected.to_string(),
            f2(t.reqs_per_sec),
            ms4(t.p50_ms),
            ms4(t.p99_ms),
            format!("{:016x}", t.digest),
        ]);
    }
    thr.note(format!(
        "{} requests over {} sessions (n={}, m={}, {} corrupt, {} ppm drift, skew {}); \
         reqs/sec and latency percentiles are report-only, digest and rejected are gated \
         and equal across the shard rows",
        trace.ops.len(),
        spec.sessions,
        spec.players,
        spec.objects,
        spec.corrupt,
        spec.drift_ppm,
        spec.skew,
    ));

    vec![det, thr, socket_replay_table()]
}

/// Table 3 — socket replay: the committed quick trace through the
/// `byzscore-wire/v1` TCP front-end (loopback) at one and four client
/// connections. The digest must equal the manifest pin in
/// traces/DIGESTS — the same cell the in-process replay, the
/// determinism suite, and CI's service-e2e job gate — proving the
/// socket path (framing, admission, the dispatch lane) adds no
/// observable state. Busy retries are structurally zero here:
/// the client pipelines at most 64 ops against a 256-deep queue.
fn socket_replay_table() -> Table {
    let trace_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../traces/service_quick.trace"
    );
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/DIGESTS");
    let trace =
        Trace::from_text(&std::fs::read_to_string(trace_path).expect("committed trace readable"))
            .expect("committed trace parses");
    let pinned = parse_digests(&std::fs::read_to_string(manifest_path).expect("DIGESTS readable"))
        .expect("DIGESTS parses")
        .into_iter()
        .find(|(name, _)| name == "service_quick.trace")
        .map(|(_, d)| d)
        .expect("service_quick.trace pinned in traces/DIGESTS");

    let mut tab = Table::new(
        "E17: socket replay of the committed trace (byzscore-wire/v1 loopback)",
        &[
            "connections",
            "ops",
            "rejected",
            "busy retries",
            "reqs/sec",
            "digest",
            "matches traces/DIGESTS",
        ],
    );
    for connections in [1usize, 4] {
        let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr();
        let running = std::thread::spawn(move || server.run());
        let start = Instant::now();
        let replay =
            replay_over_socket(addr, &trace.ops, connections).expect("socket replay succeeds");
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        request_shutdown(addr).expect("server acknowledges shutdown");
        running.join().expect("server thread exits cleanly");
        let digest = combined_digest(&replay.responses);
        let rejected = replay
            .responses
            .iter()
            .filter(|r| matches!(r, Response::Rejected(_)))
            .count();
        tab.row(vec![
            connections.to_string(),
            replay.responses.len().to_string(),
            rejected.to_string(),
            replay.busy_retries.to_string(),
            f2(replay.responses.len() as f64 / seconds),
            format!("{digest:016x}"),
            if digest == pinned {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    tab.note(
        "loopback TCP, default NetConfig (one dispatch lane, queue depth 256); every cell except \
         reqs/sec is gated — the digest is pinned in traces/DIGESTS and bit-identical to the \
         in-process and stdin replays at any connection count",
    );
    tab
}
