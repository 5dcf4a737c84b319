//! E17 — scoring as a service (DESIGN.md §4.13).
//!
//! The service engine answers recorded request traces; every cell is
//! deterministic and gated: the combined response digest (bit-identical
//! at any `--threads`, any batch split of the same trace, and over the
//! socket) and the rejected-op count. Throughput and latency are
//! measured by the `perf/` benchmark's `serve_*` and `socket_*`
//! workloads, not here.

use byzscore_service::net::{replay_over_socket, request_shutdown};
use byzscore_service::{
    combined_digest, parse_digests, NetConfig, OpMix, Response, Server, ServiceAlgorithm,
    ServiceEngine, Trace, TraceSpec,
};

use crate::table::Table;
use crate::Scale;

/// Ops per `execute` call during the @scale replay. Responses are
/// independent of this split (the engine answers one op at a time
/// either way).
const BATCH: usize = 1024;

/// Replay `trace` on a fresh engine in `execute` calls of `chunk` ops
/// and fold the answers: `(digest, rejected ops)`.
fn replay_in_chunks(trace: &Trace, chunk: usize) -> (u64, usize) {
    let mut engine = ServiceEngine::new();
    let responses: Vec<Response> = trace
        .ops
        .chunks(chunk.max(1))
        .flat_map(|ops| engine.execute(ops))
        .collect();
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    (combined_digest(&responses), rejected)
}

/// E17: resident service engine replaying recorded workloads — digest
/// determinism across `execute` batch splits, the digest of a 10⁵
/// (quick) / 10⁶ (full) request trace, and the socket replay.
pub fn e17_service_throughput(scale: Scale) -> Vec<Table> {
    // Table 1 — determinism: small mixed traces, each replayed whole,
    // one op per call, and in 7-op chunks; every deterministic cell is
    // CI-gated.
    let mut det = Table::new(
        "E17: service trace determinism (digest vs execute() batch split)",
        &[
            "seed",
            "sessions",
            "ops",
            "rejected",
            "digest",
            "batch splits agree",
        ],
    );
    for seed in [1u64, 2] {
        let spec = TraceSpec::small(seed);
        let trace = Trace::generate(&spec);
        let (digest, rejected) = replay_in_chunks(&trace, trace.ops.len());
        let (d1, _) = replay_in_chunks(&trace, 1);
        let (d7, _) = replay_in_chunks(&trace, 7);
        det.row(vec![
            seed.to_string(),
            spec.sessions.to_string(),
            trace.ops.len().to_string(),
            rejected.to_string(),
            format!("{digest:016x}"),
            if d1 == digest && d7 == digest {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    det.note("digest folds every response in request order; identical at any --threads and execute() batch split (whole trace, one op per call, 7-op chunks)");

    // Table 2 — @scale: a read-heavy steady-state trace (probes and
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
    let mut thr = Table::new("E17: service digest @scale", &["ops", "rejected", "digest"]);
    let (digest, rejected) = replay_in_chunks(&trace, BATCH);
    thr.row(vec![
        trace.ops.len().to_string(),
        rejected.to_string(),
        format!("{digest:016x}"),
    ]);
    thr.note(format!(
        "{} requests over {} sessions (n={}, m={}, {} corrupt, {} ppm drift, skew {}) in \
         {BATCH}-op execute() calls",
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
/// `byzscore-wire/v2` TCP front-end (loopback) at one and four client
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
        "E17: socket replay of the committed trace (byzscore-wire/v2 loopback)",
        &[
            "connections",
            "ops",
            "rejected",
            "busy retries",
            "digest",
            "matches traces/DIGESTS",
        ],
    );
    for connections in [1usize, 4] {
        let server = Server::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr();
        let running = std::thread::spawn(move || server.run());
        let replay =
            replay_over_socket(addr, &trace.ops, connections).expect("socket replay succeeds");
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
            format!("{digest:016x}"),
            if digest == pinned {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    tab.note(
        "loopback TCP, default NetConfig (one dispatch lane, queue depth 256); the digest is \
         pinned in traces/DIGESTS and bit-identical to the in-process and stdin replays at any \
         connection count",
    );
    tab
}
