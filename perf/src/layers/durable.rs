//! `service.journal`, `service.checkpoint` and `service.workload`: the
//! write-ahead journal, compaction and recovery driven directly — one
//! `socket_durable` segment's ops through `Journal::append`,
//! `JournaledEngine::submit`, explicit `compact` cycles and `recover` —
//! plus what generating and (de)serialising a trace costs.

use std::hint::black_box;
use std::path::Path;

use byzscore_service::checkpoint::{checkpoint_path, decode_checkpoint};
use byzscore_service::journal::{self, parse_journal};
use byzscore_service::net::{replay_with_options, request_stats};
use byzscore_service::{
    format_op, Journal, JournaledEngine, NetConfig, Request, ServiceEngine, Trace, DEFAULT_SHARDS,
};

use super::{seconds, Ledger};
use crate::stats::{median, percentile};
use crate::workloads::serve::{generate, spec, DURABLE_MIX, READ_MIX};
use crate::workloads::socket::{copy_journal, replay_options, Live, TempDir, COMPACT_EVERY};
use crate::workloads::Config;

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let dir = TempDir::create("ledger");
    let shape = spec(cfg.seed, if cfg.smoke { 150 } else { 1_500 }, DURABLE_MIX);
    // Sessions stay open (closes dropped) so checkpoints have content.
    let traffic = generate(&shape);
    let ops: Vec<Request> = traffic.opens.iter().chain(&traffic.body).cloned().collect();
    let mutating: Vec<&Request> = ops.iter().filter(|op| op.is_mutating()).collect();
    let line_bytes: usize = mutating.iter().map(|op| format_op(op).len() + 1).sum();

    // journal: append + sync_data, nothing executed.
    let path = dir.0.join("append.journal");
    let mut journal_file = Journal::create(&path).expect("create journal");
    let mut appended = 0usize;
    let append_us: Vec<f64> = mutating
        .iter()
        .enumerate()
        .map(|(seq, op)| {
            let (bytes, wall) = seconds(|| journal_file.append(seq as u64, op).expect("append"));
            appended += bytes;
            wall * 1e6
        })
        .collect();
    ledger.put("journal.append_us_p50", percentile(&append_us, 0.5));
    ledger.put("journal.append_us_p99", percentile(&append_us, 0.99));
    ledger.put(
        "journal.bytes_per_op",
        appended as f64 / mutating.len() as f64,
    );
    ledger.count("journal.syncs", 1 + mutating.len() as u64);
    drop(journal_file);

    // journal: what `submit` adds to `execute`, per op, one op at a time.
    let mut plain = ServiceEngine::new();
    let ((), execute_s) = seconds(|| {
        for op in &ops {
            black_box(plain.execute(std::slice::from_ref(op)));
        }
    });
    let path = dir.0.join("full.journal");
    let mut journaled = JournaledEngine::create(&path, DEFAULT_SHARDS).expect("journaled engine");
    let ((), submit_s) = seconds(|| {
        for (seq, op) in ops.iter().enumerate() {
            black_box(journaled.submit(seq as u64, op).expect("submit"));
        }
    });
    ledger.put(
        "journal.submit_overhead_us",
        (submit_s - execute_s) * 1e6 / ops.len() as f64,
    );
    drop(journaled);

    // journal: recovery from the whole, never-compacted journal.
    let text = std::fs::read_to_string(&path).expect("read journal");
    let (parsed, wall) = seconds(|| parse_journal(&text).expect("journal parses"));
    ledger.put("journal.parse_ms", wall * 1e3);
    ledger.check(parsed.len() == mutating.len(), || {
        format!(
            "journal holds {} entries, {} mutating ops were submitted",
            parsed.len(),
            mutating.len()
        )
    });
    let (recovered, wall) = seconds(|| journal::recover(&path, DEFAULT_SHARDS).expect("recover"));
    ledger.put("journal.recover_full_ms", wall * 1e3);
    ledger.check(recovered.history_ops == mutating.len() as u64, || {
        "full-journal recovery lost ops".to_string()
    });

    // checkpoint: the same ops with a compaction cycle every
    // COMPACT_EVERY mutating ops, run by hand so each cycle is timed and
    // each checkpoint's size is seen.
    let every = if cfg.smoke { 32 } else { COMPACT_EVERY };
    let path = dir.0.join("compacted.journal");
    let mut compacting = JournaledEngine::create(&path, DEFAULT_SHARDS).expect("journaled engine");
    let (mut compact_ms, mut checkpoint_bytes_written) = (Vec::new(), 0u64);
    for (seq, op) in ops.iter().enumerate() {
        compacting.submit(seq as u64, op).expect("submit");
        if compacting.tail_ops() >= every {
            compact_ms.push(seconds(|| compacting.compact().expect("compact")).1 * 1e3);
            checkpoint_bytes_written += file_len(&checkpoint_path(&path));
        }
    }
    ledger.count("checkpoint.cycles", compacting.checkpoints());
    ledger.count("checkpoint.truncated_ops", compacting.truncated_ops());
    ledger.count("checkpoint.tail_len", compacting.tail_ops());
    ledger.put("checkpoint.compact_ms", median(&compact_ms));
    let bytes = file_len(&checkpoint_path(&path));
    ledger.count("checkpoint.bytes", bytes);
    ledger.put(
        "checkpoint.bytes_per_history_op",
        bytes as f64 / compacting.history_ops() as f64,
    );
    ledger.put(
        "checkpoint.write_amp",
        (appended as u64 + checkpoint_bytes_written) as f64 / line_bytes as f64,
    );
    drop(compacting);
    let text = std::fs::read_to_string(checkpoint_path(&path)).expect("read checkpoint");
    let restore_ms: Vec<f64> = (0..5)
        .map(|_| seconds(|| black_box(decode_checkpoint(&text, DEFAULT_SHARDS).is_ok())).1 * 1e3)
        .collect();
    ledger.put("checkpoint.restore_ms", median(&restore_ms));
    let recovery_ms: Vec<f64> = (0..5)
        .map(|i| {
            let scratch = TempDir::create("ledger-recover");
            let copy = copy_journal(&path, &scratch.0).expect("copy journal");
            let (recovered, wall) = seconds(|| journal::recover(&copy, DEFAULT_SHARDS));
            scratch.remove();
            ledger.check(
                recovered.is_ok_and(|r| r.history_ops == mutating.len() as u64),
                || format!("recovery {i} from checkpoint + tail lost ops"),
            );
            wall * 1e3
        })
        .collect();
    ledger.put("checkpoint.recovery_ms_p50", median(&recovery_ms));

    // journal: resends answered from the dedupe window during an
    // undisturbed durable replay (the complete trace, closes included).
    let live = Live::start(NetConfig {
        journal: Some(dir.0.join("served.journal")),
        compact_every: Some(every),
        ..NetConfig::default()
    });
    let served = Trace::generate(&shape).ops;
    let (replay, wall) = seconds(|| replay_with_options(live.addr, &served, replay_options()));
    replay.expect("durable replay");
    ledger.put("journal.replay_ops_per_s", served.len() as f64 / wall);
    ledger.count(
        "journal.deduped",
        request_stats(live.addr).expect("stats frame").deduped,
    );
    live.stop();
    dir.remove();

    // workload: generating and (de)serialising a trace, per 10⁶ ops.
    let ops = if cfg.smoke { 2_000 } else { 100_000 };
    let per_million = 1e6 / ops as f64;
    let shape = spec(cfg.seed, ops, READ_MIX);
    let (trace, wall) = seconds(|| Trace::generate(&shape));
    ledger.put("workload.gen_s", wall * per_million);
    let (text, wall) = seconds(|| trace.to_text());
    ledger.put("workload.to_text_s", wall * per_million);
    let (parsed, wall) = seconds(|| Trace::from_text(&text));
    ledger.put("workload.from_text_s", wall * per_million);
    ledger.check(parsed.is_ok_and(|t| t == trace), || {
        "trace text did not round-trip".to_string()
    });
}
