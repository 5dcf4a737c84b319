//! E18 — fault-injected crash recovery (DESIGN.md §4.15).
//!
//! The robustness claim behind the journaled service: **a crash at any
//! point, and any injected fault, changes no answer**. Table 1 kills an
//! in-process journaled engine at a seeded schedule of op indices over
//! the committed quick trace — in both crash phases: between ops, and
//! after an op's journal append but before its execution — recovers
//! from the journal, finishes the trace, and gates the concatenated
//! response digest against the `traces/DIGESTS` pin. Table 2 drives
//! the TCP front-end through the deterministic fault plans (worker
//! panic, barrier panic, connection drop, admission stall) with the
//! resilient client and gates the same digest plus the typed-retry
//! counters. Every cell is deterministic and CI-gated; there are no
//! report-only columns.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use byzscore_service::net::{replay_with_options, request_shutdown, request_stats, ReplayOptions};
use byzscore_service::{
    combined_digest, mix, parse_digests, CompactionPolicy, FaultPlan, JournaledEngine, NetConfig,
    Request, Response, Server, Trace,
};

use crate::table::Table;
use crate::Scale;

/// The committed quick trace and its pinned digest — the same pair the
/// e17 socket table, the determinism suite, and CI's e2e jobs gate.
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
    std::env::temp_dir().join(format!("byzscore_e18_{tag}_{}", std::process::id()))
}

/// Kill the engine at op `kill_at`, recover, finish — returning the
/// full response vector and how many ops the recovery replayed. With
/// `mid_op`, the crash lands *after* op `kill_at`'s journal append but
/// *before* its execution (the window the durability contract exists
/// for); the client-side resend of that op must then dedupe instead of
/// double-applying.
fn killed_run(ops: &[Request], kill_at: usize, mid_op: bool, tag: &str) -> (Vec<Response>, usize) {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let mut responses = Vec::with_capacity(ops.len());
    {
        let (mut engine, _) =
            JournaledEngine::open(Some(&path), false, CompactionPolicy::default())
                .expect("journal create succeeds");
        for (seq, op) in ops[..kill_at].iter().enumerate() {
            responses.push(
                engine
                    .submit(seq as u64, op)
                    .expect("journal append succeeds"),
            );
        }
        if mid_op && ops[kill_at].is_mutating() {
            engine
                .journal_without_execute(kill_at as u64, &ops[kill_at])
                .expect("journal append succeeds");
        }
        // Dropping the engine IS the kill: nothing beyond the fsynced
        // journal survives.
    }
    let (mut engine, report) =
        JournaledEngine::open(Some(&path), true, CompactionPolicy::default())
            .expect("recovery succeeds");
    for (seq, op) in ops.iter().enumerate().skip(kill_at) {
        responses.push(
            engine
                .submit(seq as u64, op)
                .expect("journal append succeeds"),
        );
    }
    let _ = std::fs::remove_file(&path);
    (responses, report.map_or(0, |r| r.replayed))
}

/// One fault-injected socket run over the committed trace: returns the
/// response digest, client retry counters, and server rebuild count.
struct FaultRun {
    digest: u64,
    retryable_retries: u64,
    reconnects: u64,
    rebuilds: u64,
}

fn faulted_socket_run(
    ops: &[Request],
    plan: FaultPlan,
    options: ReplayOptions,
    tag: &str,
) -> FaultRun {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let server = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(path.clone()),
            fault: Arc::new(plan),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    let replay = replay_with_options(addr, ops, options).expect("faulted replay completes");
    let stats = request_stats(addr).expect("stats");
    request_shutdown(addr).expect("server acknowledges shutdown");
    running.join().expect("server thread exits cleanly");
    let _ = std::fs::remove_file(&path);
    FaultRun {
        digest: combined_digest(&replay.responses),
        retryable_retries: replay.retryable_retries,
        reconnects: replay.reconnects,
        rebuilds: stats.rebuilds,
    }
}

/// E18: kill-anywhere crash recovery and injected-fault determinism
/// over the committed quick trace.
pub fn e18_fault_recovery(scale: Scale) -> Vec<Table> {
    let (trace, pinned) = committed_trace();
    let ops = &trace.ops;
    let len = ops.len();

    // Table 1 — crash recovery: boundary kill points (right after the
    // first op, right before the last) plus a seeded interior schedule,
    // each in both crash phases.
    let mut kill_points = vec![1, len - 1];
    let interior = scale.pick(4, 8);
    for i in 0..interior {
        kill_points.push(1 + (mix(0xe18, i as u64) as usize) % (len - 2));
    }
    kill_points.sort_unstable();
    kill_points.dedup();

    let mut rec = Table::new(
        "E18: crash recovery from the journal (committed trace, kill @ op k)",
        &[
            "kill at",
            "crash phase",
            "recovered ops",
            "digest",
            "matches traces/DIGESTS",
        ],
    );
    rec.row(vec![
        "-".into(),
        "uninterrupted".into(),
        "0".into(),
        format!("{pinned:016x}"),
        "yes".into(),
    ]);
    for &k in &kill_points {
        for (mid_op, phase) in [(false, "between ops"), (true, "mid-op (journaled)")] {
            let tag = format!("kill{k}_{}", if mid_op { "mid" } else { "between" });
            let (responses, replayed) = killed_run(ops, k, mid_op, &tag);
            let digest = combined_digest(&responses);
            rec.row(vec![
                k.to_string(),
                phase.into(),
                replayed.to_string(),
                format!("{digest:016x}"),
                if digest == pinned {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    rec.note(
        "every admitted mutating op is fsynced to the journal before it executes; recovery \
         replays the journal (itself a valid byzscore-trace/v1 file) and the mid-op resend \
         dedupes by (session, seq, op) — the digest is the traces/DIGESTS pin at every kill \
         point, in both crash phases; every cell is gated",
    );

    // Table 2 — injected faults through the TCP front-end, one fault
    // per run, resilient client (deadline + seeded backoff + reconnect).
    let probe_at = ops
        .iter()
        .position(|o| matches!(o, Request::SubmitProbes { .. }));
    let query_at = ops
        .iter()
        .position(|o| matches!(o, Request::QueryPreferences { .. }));
    let barrier_at = ops
        .iter()
        .position(|o| !o.is_shardable() && o.session().is_some());
    let late_barrier_at = ops.iter().rposition(|o| !o.is_shardable());
    let (probe_at, query_at, barrier_at, late_barrier_at) = (
        probe_at.expect("trace has probes"),
        query_at.expect("trace has queries"),
        barrier_at.expect("trace has non-open barriers"),
        late_barrier_at.expect("trace has barriers"),
    );

    let mut faults = Table::new(
        "E18: injected faults vs the resilient client (byzscore-wire/v1 loopback)",
        &[
            "fault",
            "retryable retries",
            "reconnected",
            "rebuilds",
            "digest",
            "matches traces/DIGESTS",
        ],
    );
    let deadline = ReplayOptions {
        deadline: Some(Duration::from_millis(250)),
        ..ReplayOptions::default()
    };
    let runs: Vec<(String, FaultPlan, ReplayOptions)> = vec![
        (
            format!("panic-worker@{probe_at} (probe)"),
            FaultPlan::parse(&format!("panic-worker@{probe_at}")).expect("plan parses"),
            ReplayOptions::default(),
        ),
        (
            format!("panic-worker@{query_at} (query)"),
            FaultPlan::parse(&format!("panic-worker@{query_at}")).expect("plan parses"),
            ReplayOptions::default(),
        ),
        (
            format!("panic-barrier@{barrier_at}"),
            FaultPlan::parse(&format!("panic-barrier@{barrier_at}")).expect("plan parses"),
            ReplayOptions::default(),
        ),
        (
            format!("drop-conn@{probe_at}"),
            FaultPlan::parse(&format!("drop-conn@{probe_at}")).expect("plan parses"),
            ReplayOptions::default(),
        ),
        (
            format!("stall@{late_barrier_at}:900"),
            FaultPlan::parse(&format!("stall@{late_barrier_at}:900")).expect("plan parses"),
            deadline,
        ),
    ];
    for (index, (label, plan, options)) in runs.into_iter().enumerate() {
        let run = faulted_socket_run(ops, plan, options, &format!("fault{index}"));
        faults.row(vec![
            label,
            run.retryable_retries.to_string(),
            if run.reconnects > 0 {
                "yes".into()
            } else {
                "no".into()
            },
            run.rebuilds.to_string(),
            format!("{:016x}", run.digest),
            if run.digest == pinned {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    faults.note(
        "one fault per run, one connection (dispatcher indices = trace indices): worker panics \
         answer typed Retryable and the client's seeded-backoff resend lands the exact answer; \
         a barrier panic rebuilds the engine from the journal and the resend dedupes; drops \
         and stalls are absorbed by reconnect/deadline — the digest is the traces/DIGESTS pin \
         in every row; every cell is gated",
    );

    vec![rec, faults]
}
