//! E19 — checkpointed WAL compaction (DESIGN.md §4.16).
//!
//! The bounded-recovery claim behind compaction: **a checkpoint +
//! truncate cycle bounds the replayable journal tail by the compaction
//! threshold without changing a single answer**. Table 1 drives the
//! committed quick trace through a journaled engine under `every=N`
//! policies — uninterrupted and killed at a seeded op schedule — and
//! gates that the tail stays ≤ N ops, that cycles actually ran, the
//! bytes every cycle's checkpoint took on disk, and that the
//! concatenated response digest is the `traces/DIGESTS` pin (recovery
//! now starts from the checkpoint, not op 0). Table 2 gates
//! the failure edges: a torn primary checkpoint (footer lost) falls
//! back to the rotated previous checkpoint, an offline `compact` cycle
//! leaves an empty recoverable tail, and the post-truncation journal is
//! still a valid `byzscore-trace/v1` file. Every cell is deterministic
//! and CI-gated; there are no report-only columns.

use std::path::{Path, PathBuf};

use byzscore_service::checkpoint::{checkpoint_path, previous_checkpoint_path};
use byzscore_service::{
    combined_digest, mix, parse_digests, CompactionPolicy, JournaledEngine, RecoverySource,
    Request, Response, Trace,
};

use crate::table::Table;
use crate::Scale;

/// The committed quick trace and its pinned digest — the same pair
/// e17/e18, the determinism suite, and CI's e2e jobs gate.
fn committed_trace() -> (Trace, u64) {
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
    (trace, pinned)
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("byzscore_e19_{tag}_{}", std::process::id()))
}

/// Remove the journal and both checkpoint generations.
fn scrub(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(checkpoint_path(path));
    let _ = std::fs::remove_file(previous_checkpoint_path(path));
}

/// What one compacting run (possibly killed and recovered) measured.
struct CompactRun {
    responses: Vec<Response>,
    checkpoints: u64,
    truncated_ops: u64,
    tail_ops: u64,
    /// Σ bytes of the checkpoints the run's cycles wrote.
    ckpt_bytes: u64,
    source: Option<RecoverySource>,
}

/// Submit `ops` (each with its trace index as seq) to `engine`, pushing
/// the answers onto `responses`; returns the summed size of every
/// checkpoint a compaction cycle wrote meanwhile, read from disk right
/// after the op that ran the cycle.
fn submit_all<'a>(
    engine: &mut JournaledEngine,
    path: &Path,
    ops: impl Iterator<Item = (usize, &'a Request)>,
    responses: &mut Vec<Response>,
) -> u64 {
    let mut ckpt_bytes = 0;
    for (seq, op) in ops {
        let cycles = engine.checkpoints();
        responses.push(
            engine
                .submit(seq as u64, op)
                .expect("journal append succeeds"),
        );
        if engine.checkpoints() > cycles {
            ckpt_bytes += std::fs::metadata(checkpoint_path(path))
                .expect("a cycle installs a checkpoint")
                .len();
        }
    }
    ckpt_bytes
}

/// Drive the trace through a journaled engine with `every`-op
/// compaction; `kill_at = Some(k)` drops the engine after op `k-1`
/// (the kill), recovers from whatever checkpoint + tail the crash
/// left, and finishes. `tear_primary` truncates the primary checkpoint
/// to two thirds before recovering — the torn-footer window — so
/// recovery must fall back to the rotated previous checkpoint.
fn compacting_run(
    ops: &[Request],
    every: u64,
    kill_at: Option<usize>,
    tear_primary: bool,
    tag: &str,
) -> CompactRun {
    let policy = CompactionPolicy {
        every: Some(every),
        bytes: None,
    };
    let path = journal_path(tag);
    scrub(&path);
    let split = kill_at.unwrap_or(ops.len());
    let mut responses = Vec::with_capacity(ops.len());
    let (mut checkpoints, mut truncated_ops, mut ckpt_bytes);
    {
        let mut engine =
            JournaledEngine::create_with(&path, policy).expect("journal create succeeds");
        ckpt_bytes = submit_all(
            &mut engine,
            &path,
            ops[..split].iter().enumerate(),
            &mut responses,
        );
        checkpoints = engine.checkpoints();
        truncated_ops = engine.truncated_ops();
        if kill_at.is_none() {
            let tail_ops = engine.tail_ops();
            scrub(&path);
            return CompactRun {
                responses,
                checkpoints,
                truncated_ops,
                tail_ops,
                ckpt_bytes,
                source: None,
            };
        }
        // Dropping the engine IS the kill: nothing beyond the fsynced
        // journal + installed checkpoints survives.
    }
    if tear_primary {
        // Keep the fallback generation covering the journal base (the
        // rotation a real cycle performs), then lose the primary's
        // footer — the partial-write the footer exists to detect.
        let primary = checkpoint_path(&path);
        let bytes = std::fs::read(&primary).expect("primary checkpoint exists");
        std::fs::copy(&primary, previous_checkpoint_path(&path)).expect("rotate prev");
        std::fs::write(&primary, &bytes[..bytes.len() * 2 / 3]).expect("tear primary");
    }
    let (mut engine, report) =
        JournaledEngine::recover_with(&path, policy).expect("recovery succeeds");
    ckpt_bytes += submit_all(
        &mut engine,
        &path,
        ops.iter().enumerate().skip(split),
        &mut responses,
    );
    checkpoints += engine.checkpoints();
    truncated_ops += engine.truncated_ops();
    let tail_ops = engine.tail_ops();
    scrub(&path);
    CompactRun {
        responses,
        checkpoints,
        truncated_ops,
        tail_ops,
        ckpt_bytes,
        source: Some(report.source),
    }
}

fn yes_no(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// E19: checkpointed compaction bounds recovery over the committed
/// quick trace, with bit-identical digests.
pub fn e19_compaction(scale: Scale) -> Vec<Table> {
    let (trace, pinned) = committed_trace();
    let ops = &trace.ops;
    let len = ops.len();
    let mutating = ops.iter().filter(|o| o.is_mutating()).count() as u64;

    // Table 1 — thresholds × kill points. Kill points are seeded
    // interior ops plus the last op; the threshold sweep shows the
    // tail bound following the knob.
    let thresholds: &[u64] = if scale.pick(true, false) {
        &[4, 8]
    } else {
        &[4, 8, 16]
    };
    let mut bound = Table::new(
        "E19: compaction bounds the replayable tail (committed trace, every=N)",
        &[
            "every",
            "kill at",
            "checkpoints",
            "truncated ops",
            "tail ops",
            "tail \u{2264} every",
            "ckpt bytes",
            "digest",
            "matches traces/DIGESTS",
        ],
    );
    for (t, &every) in thresholds.iter().enumerate() {
        let mut kills: Vec<Option<usize>> = vec![None, Some(len - 1)];
        for i in 0..scale.pick(1, 2) {
            kills.push(Some(
                1 + (mix(0xe19 + every, (t * 8 + i) as u64) as usize) % (len - 2),
            ));
        }
        for kill_at in kills {
            let tag = format!(
                "every{every}_{}",
                kill_at.map_or("none".to_string(), |k| k.to_string())
            );
            let run = compacting_run(ops, every, kill_at, false, &tag);
            let digest = combined_digest(&run.responses);
            // Compaction fires the moment the tail reaches the
            // threshold, so the tail can never exceed it; the full
            // trace always crosses it at least floor(mutating/every)-1
            // times even when a kill drops one in-flight tail.
            let min_cycles = (mutating / every).saturating_sub(1).max(1);
            bound.row(vec![
                every.to_string(),
                kill_at.map_or("-".to_string(), |k| k.to_string()),
                run.checkpoints.to_string(),
                run.truncated_ops.to_string(),
                run.tail_ops.to_string(),
                yes_no(run.tail_ops <= every && run.checkpoints >= min_cycles),
                run.ckpt_bytes.to_string(),
                format!("{digest:016x}"),
                yes_no(digest == pinned),
            ]);
        }
    }
    bound.note(
        "a checkpoint + truncate cycle runs whenever the journal tail reaches `every` mutating \
         ops, so recovery replays at most one threshold's worth of ops on top of the decoded \
         checkpoint; kills land between ops and recovery resumes from the newest usable \
         checkpoint — the digest is the traces/DIGESTS pin in every row; `ckpt bytes` sums the \
         on-disk size of every checkpoint the row's cycles wrote; every cell is gated",
    );

    // Table 2 — failure edges: torn primary falls back to the rotated
    // previous checkpoint; an offline cycle leaves an empty tail; the
    // truncated journal is still a valid trace file.
    let mut edges = Table::new(
        "E19: checkpoint failure edges (torn footer, offline compact, tail validity)",
        &["scenario", "recovery source", "tail ops", "digest", "gate"],
    );

    // Torn primary: kill late enough that >= 2 cycles completed, then
    // lose the primary's footer — recovery must use the previous
    // checkpoint and still land the pin.
    let torn_kill = len - 2;
    let torn = compacting_run(ops, 4, Some(torn_kill), true, "torn");
    let torn_digest = combined_digest(&torn.responses);
    edges.row(vec![
        format!("torn primary ckpt (kill @ {torn_kill}, every=4)"),
        torn.source.map_or("-".into(), |s| s.describe().to_string()),
        torn.tail_ops.to_string(),
        format!("{torn_digest:016x}"),
        yes_no(torn.source == Some(RecoverySource::PreviousCheckpoint) && torn_digest == pinned),
    ]);

    // Offline compact: run without a policy, cycle once by hand, and
    // gate that recovery comes from the checkpoint with nothing to
    // replay.
    let path = journal_path("offline");
    scrub(&path);
    {
        let mut engine =
            JournaledEngine::create_with(&path, CompactionPolicy::default()).expect("create");
        for (seq, op) in ops.iter().enumerate() {
            engine.submit(seq as u64, op).expect("submit");
        }
        engine.compact().expect("offline compact");
    }
    let (engine, report) = JournaledEngine::recover_with(&path, CompactionPolicy::default())
        .expect("recover after offline compact");
    edges.row(vec![
        "offline `scored compact` cycle".into(),
        report.source.describe().to_string(),
        engine.tail_ops().to_string(),
        "-".into(),
        yes_no(
            report.source == RecoverySource::Checkpoint
                && report.replayed == 0
                && engine.history_ops() == mutating,
        ),
    ]);

    // Tail validity: the truncated journal must parse as a trace whose
    // op count is the (empty) tail.
    let tail_text = std::fs::read_to_string(&path).expect("truncated journal readable");
    let tail_trace = Trace::from_text(&tail_text);
    let tail_ok = tail_trace.as_ref().map_or(0, |t| t.ops.len());
    edges.row(vec![
        "post-truncation journal parses as byzscore-trace/v1".into(),
        "-".into(),
        tail_ok.to_string(),
        "-".into(),
        yes_no(tail_trace.is_ok() && tail_ok == 0),
    ]);
    scrub(&path);
    edges.note(
        "the footer (length + digest) turns a partial checkpoint write into a detected tear \
         with a rotated fallback, never a wrong answer; the `# ckpt ops=K` base marker is a \
         trace comment, so the truncated tail replays with stock tooling; every cell is gated",
    );

    vec![bound, edges]
}
