//! `service.net`: what the TCP front-end adds to the same ops.
//!
//! A live `Server` cannot be paused to bracket its stages, so its cost is
//! a subtraction: one read-mix segment is driven through in-process
//! `execute`, through the codec alone, and through the socket, and
//! `net.self_s` is what remains of the socket wall.

use std::hint::black_box;
use std::net::SocketAddr;

use byzscore_service::net::{replay_with_options, request_stats};
use byzscore_service::{NetConfig, ReplayOptions, Request, ServiceEngine};

use super::wire::codec;
use super::{seconds, Ledger};
use crate::proc::cpu_seconds;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::serve::{generate, spec, READ_MIX, SESSIONS};
use crate::workloads::socket::{replay_options, rtt_traffic, Live, RttConn, QUERY_ONLY};
use crate::workloads::Config;

/// Replays behind each socket throughput: the median wall is kept.
const REPLAYS: usize = 3;

/// Replay `ops` [`REPLAYS`] times under `options`: the median wall, the
/// CPU the whole process burned per wall second meanwhile, and the
/// `[busy, retryable, reconnect]` counters summed over the replays.
fn replays(addr: SocketAddr, ops: &[Request], options: &ReplayOptions) -> (f64, f64, [u64; 3]) {
    let cpu_before = cpu_seconds();
    let mut walls = Vec::new();
    let mut counters = [0u64; 3];
    let ((), elapsed) = seconds(|| {
        for _ in 0..REPLAYS {
            let (replay, wall) =
                seconds(|| replay_with_options(addr, ops, options.clone()).expect("replay"));
            walls.push(wall);
            counters[0] += replay.busy_retries;
            counters[1] += replay.retryable_retries;
            counters[2] += replay.reconnects;
        }
    });
    let cpu_util = (cpu_seconds() - cpu_before) / elapsed;
    (median(&walls), cpu_util, counters)
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let traffic = generate(&spec(
        cfg.seed,
        if cfg.smoke { 240 } else { 6_000 },
        READ_MIX,
    ));
    let ops = &traffic.body;

    // The same ops in process (e17's batch) and through the codec alone.
    let mut engine = ServiceEngine::new();
    engine.execute(&traffic.opens);
    black_box(engine.execute(ops));
    let (answers, in_process_s) = seconds(|| {
        ops.chunks(1024)
            .flat_map(|chunk| engine.execute(chunk))
            .collect::<Vec<_>>()
    });
    let codec_s = codec(ops, &answers).total_ns() * ops.len() as f64 / 1e9;

    // And through the socket.
    let live = Live::start(NetConfig::default());
    let addr = live.addr;
    replay_with_options(addr, &traffic.opens, replay_options()).expect("opens replay");
    replay_with_options(addr, ops, replay_options()).expect("warm-up replay");
    let (socket_s, cpu_util, [busy, retryable, reconnects]) = replays(addr, ops, &replay_options());
    let one_connection = ReplayOptions {
        connections: 1,
        ..replay_options()
    };
    let (one_conn_s, _, _) = replays(addr, ops, &one_connection);
    ledger.put("net.self_s", socket_s - in_process_s - codec_s);
    ledger.put("net.socket_s", socket_s);
    ledger.put("net.replay_ops_per_s", ops.len() as f64 / socket_s);
    ledger.put("net.in_process_s", in_process_s);
    ledger.put("net.codec_s", codec_s);
    ledger.put("net.cpu_util", cpu_util);
    ledger.put("net.conn1_ops_per_s", ops.len() as f64 / one_conn_s);
    ledger.put("net.conn_ratio", one_conn_s / socket_s);
    ledger.count("net.busy_retries", busy);
    ledger.count("net.retryable_retries", retryable);
    ledger.count("net.reconnects", reconnects);

    // One request outstanding: where a round trip's time goes.
    let connects: Vec<f64> = (0..if cfg.smoke { 2 } else { 8 })
        .map(|_| seconds(|| RttConn::connect(addr).expect("connect")).1 * 1e6)
        .collect();
    ledger.put("net.connect_us", median(&connects));
    let probe = rtt_traffic(cfg.seed + 100, QUERY_ONLY, 64, SESSIONS as u64);
    let mut conn = RttConn::connect(addr).expect("rtt connection");
    conn.open_session(&probe.open).expect("rtt session");
    let mut tracer = Tracer::new(true);
    for op in probe.ops.iter().take(if cfg.smoke { 4 } else { 24 }) {
        conn.round_trip(&mut tracer, op).expect("round trip");
    }
    let named = |name: &str| -> f64 {
        tracer
            .spans()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .sum()
    };
    ledger.put(
        "net.rtt_idle_share",
        named("net.await_reply") / named("net.round_trip"),
    );

    let stats = request_stats(addr).expect("stats frame");
    ledger.count("net.queue_depth_peak", stats.queue_depth_peak);
    ledger.count("net.server_p50_us", stats.p50_us);
    ledger.count("net.server_p99_us", stats.p99_us);
    ledger.count("net.admitted", stats.admitted);
    ledger.count("net.completed", stats.completed);
    ledger.check(stats.admitted == stats.completed, || {
        format!(
            "server admitted {} ops but completed {}",
            stats.admitted, stats.completed
        )
    });
    ledger.put("net.shutdown_ms", seconds(|| live.stop()).1 * 1e3);
}
