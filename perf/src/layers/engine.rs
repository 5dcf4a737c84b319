//! `service.engine`: per-kind op costs, batch-size, shard-count and
//! thread-budget ratios, and the barrier share — all on the service
//! workloads' session shape, through `ServiceEngine::execute`.

use std::hint::black_box;

use byzscore_board::par::set_thread_limit;
use byzscore_service::{Request, ServiceEngine, DEFAULT_SHARDS};

use super::{seconds, Ledger};
use crate::stats::{mean, median};
use crate::workloads::serve::{generate, spec, Traffic, CHURN_MIX, READ_MIX};
use crate::workloads::Config;

/// Seconds per op of `ops` executed `batch` at a time on a fresh engine
/// with `shards` shards (opens untimed): median of three passes.
fn seconds_per_op(traffic: &Traffic, shards: usize, batch: usize) -> f64 {
    let mut engine = ServiceEngine::with_shards(shards);
    engine.execute(&traffic.opens);
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            seconds(|| {
                for chunk in traffic.body.chunks(batch) {
                    black_box(engine.execute(chunk));
                }
            })
            .1 / traffic.body.len() as f64
        })
        .collect();
    median(&passes)
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let read = generate(&spec(
        cfg.seed,
        if cfg.smoke { 4_096 } else { 131_072 },
        READ_MIX,
    ));
    let churn = generate(&spec(cfg.seed, if cfg.smoke { 60 } else { 400 }, CHURN_MIX));

    // Per-kind cost of a single-op `execute`, on the churn traffic (every
    // kind occurs in it) after its opens.
    let mut engine = ServiceEngine::new();
    let mut open_ms = Vec::new();
    for open in &churn.opens {
        open_ms.push(seconds(|| black_box(engine.execute(std::slice::from_ref(open)))).1 * 1e3);
    }
    ledger.put("engine.open_ms", mean(&open_ms));
    let (mut probe, mut query, mut churn_ms, mut epoch_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for op in &churn.body {
        let wall = seconds(|| black_box(engine.execute(std::slice::from_ref(op)))).1;
        match op {
            Request::SubmitProbes { .. } => probe.push(wall * 1e9),
            Request::QueryPreferences { .. } => query.push(wall * 1e9),
            Request::ApplyChurn { .. } => churn_ms.push(wall * 1e3),
            Request::AdvanceEpoch { .. } => epoch_ms.push(wall * 1e3),
            Request::Open(_) | Request::CloseSession { .. } => {}
        }
    }
    let barrier_s = (churn_ms.iter().sum::<f64>() + epoch_ms.iter().sum::<f64>()) / 1e3;
    let shardable_s = (probe.iter().sum::<f64>() + query.iter().sum::<f64>()) / 1e9;
    ledger.put("engine.probe_ns", mean(&probe));
    ledger.put("engine.query_ns", mean(&query));
    ledger.put("engine.churn_ms", mean(&churn_ms));
    ledger.put("engine.epoch_ms", mean(&epoch_ms));
    ledger.put(
        "engine.barrier_share",
        barrier_s / (barrier_s + shardable_s),
    );
    // The same churn ops at a budget of one thread: what `board::par`
    // costs a young session's barriers.
    set_thread_limit(Some(1));
    let mut single = ServiceEngine::new();
    single.execute(&churn.opens);
    let ((), one_thread_s) = seconds(|| {
        for op in &churn.body {
            black_box(single.execute(std::slice::from_ref(op)));
        }
    });
    set_thread_limit(None);
    ledger.put(
        "engine.churn_par_ratio",
        one_thread_s / (barrier_s + shardable_s),
    );
    let mut close_us = Vec::new();
    for session in 0..churn.opens.len() as u64 {
        let close = Request::CloseSession { session };
        close_us.push(seconds(|| black_box(engine.execute(std::slice::from_ref(&close)))).1 * 1e6);
    }
    ledger.put("engine.close_us", mean(&close_us));

    // The read mix under each layout knob, everything else at its default.
    let default = seconds_per_op(&read, DEFAULT_SHARDS, 1024);
    ledger.put("engine.batch1024_ops_per_s", 1.0 / default);
    ledger.put(
        "engine.batch1_ops_per_s",
        1.0 / seconds_per_op(&read, DEFAULT_SHARDS, 1),
    );
    let one_shard = seconds_per_op(&read, 1, 1024);
    ledger.put("engine.shards1_ops_per_s", 1.0 / one_shard);
    ledger.put("engine.shard_ratio", one_shard / default);
    set_thread_limit(Some(1));
    let one_thread = seconds_per_op(&read, DEFAULT_SHARDS, 1024);
    set_thread_limit(None);
    ledger.put("engine.threads1_ops_per_s", 1.0 / one_thread);
    ledger.put("engine.par_ratio", one_thread / default);
}
