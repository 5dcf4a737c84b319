//! Crash-recovery and fault-injection integration tests for the
//! journaled TCP front-end: a server killed at any point resumes from
//! its write-ahead journal with bit-identical answers, supervised
//! workers turn panics into typed `Retryable` answers the client
//! retries through, and injected connection faults (drops, stalls) are
//! absorbed by the reconnect/deadline machinery — with every retried
//! mutation applied exactly once.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use byzscore_board::par::set_thread_limit;
use byzscore_service::checkpoint::{checkpoint_path, previous_checkpoint_path};
use byzscore_service::net::{
    replay_with_options, request_shutdown, request_stats, serve_lines, ReplayOptions,
};
use byzscore_service::wire::{read_frame, write_frame, ClientFrame, ServerFrame};
use byzscore_service::{
    combined_digest, format_op, parse_op, CompactionPolicy, FaultPlan, JournaledEngine, NetConfig,
    OpMix, RecoverySource, Request, Response, Server, ServiceEngine, Trace, TraceSpec,
};

fn spawn_server(config: NetConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    thread::spawn(move || server.run());
    addr
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("byzscore_recovery_{tag}_{}", std::process::id()))
}

/// Remove a journal and both of its checkpoint generations.
fn scrub(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(checkpoint_path(path));
    let _ = std::fs::remove_file(previous_checkpoint_path(path));
}

fn ops(lines: &[&str]) -> Vec<Request> {
    lines
        .iter()
        .map(|l| parse_op(l).expect("test op parses"))
        .collect()
}

/// The little nine-op script the fault tests drive: its op indices are
/// the dispatcher indices (one connection, in-order sends), so a fault
/// schedule addresses specific shapes — probes at 1/2/5, queries at
/// 3/6, barriers at 0/4/7/8.
fn fault_script() -> Vec<Request> {
    ops(&FAULT_SCRIPT)
}

/// The lines of [`fault_script`].
const FAULT_SCRIPT: [&str; 9] = [
    "open 24 48 3 3 11 naive 4 1 2000 13",
    "probe 0 3 1,2,9",
    "probe 0 5 0,4",
    "query 0 1,3 -",
    "churn 0 2 2",
    "probe 0 1 7",
    "query 0 0,2 -",
    "epoch 0",
    "close 0",
];

/// Kill-anywhere determinism at the socket level: replay a prefix of a
/// generated trace against a journaled server, abandon it (the journal
/// is all that survives a `kill -9`; a clean exit writes nothing
/// extra), recover a fresh server from the journal, and replay the
/// rest. The concatenated answers must equal the uninterrupted
/// in-process run bit-for-bit — at a mid-session cut, right after the
/// first op, and one op before the end.
#[test]
fn socket_recovery_resumes_with_identical_answers() {
    let trace = Trace::generate(&TraceSpec::small(23));
    let expected = trace.replay();
    let len = trace.ops.len();
    for cut in [1, len / 3, 2 * len / 3, len - 1] {
        let path = temp_journal(&format!("cut{cut}"));
        let _ = std::fs::remove_file(&path);

        let before = spawn_server(NetConfig {
            journal: Some(path.clone()),
            ..NetConfig::default()
        });
        let first = replay_with_options(before, &trace.ops[..cut], ReplayOptions::default())
            .expect("prefix replay succeeds");

        let recovered = Server::bind(
            "127.0.0.1:0",
            NetConfig {
                journal: Some(path.clone()),
                recover: true,
                ..NetConfig::default()
            },
        )
        .expect("recovery bind succeeds");
        let mutating = trace.ops[..cut].iter().filter(|o| o.is_mutating()).count();
        assert_eq!(
            recovered.recovered_ops(),
            mutating,
            "recovery replays exactly the journaled (mutating) prefix at cut {cut}"
        );
        let after = recovered.local_addr();
        thread::spawn(move || recovered.run());
        let rest = replay_with_options(after, &trace.ops[cut..], ReplayOptions::default())
            .expect("post-recovery replay succeeds");

        let mut all = first.responses;
        all.extend(rest.responses);
        assert_eq!(
            combined_digest(&all),
            combined_digest(&expected),
            "digest diverged across a crash at op {cut}"
        );
        assert_eq!(all, expected, "answers diverged across a crash at op {cut}");
        let _ = std::fs::remove_file(&path);
    }
}

/// A torn tail — the op line a crash cut mid-write — is dropped on
/// recovery (it never executed: execution follows the fsynced append),
/// truncated from the file, and the journal keeps accepting appends.
#[test]
fn torn_journal_tail_is_dropped_and_recovery_continues() {
    use std::io::{Seek as _, SeekFrom, Write as _};

    let trace = Trace::generate(&TraceSpec::small(29));
    let expected = trace.replay();
    let cut = trace.ops.len() / 2;
    let path = temp_journal("torn");
    let _ = std::fs::remove_file(&path);

    let before = spawn_server(NetConfig {
        journal: Some(path.clone()),
        ..NetConfig::default()
    });
    let first = replay_with_options(before, &trace.ops[..cut], ReplayOptions::default())
        .expect("prefix replay succeeds");

    // A crash mid-append: a seq annotation and half an op line, no
    // trailing newline, written where the append landed — the text end,
    // over the journal's zero padding.
    let text_end = std::fs::read(&path)
        .expect("journal exists")
        .iter()
        .position(|&b| b == 0)
        .expect("journal carries zero padding");
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("journal exists");
    file.seek(SeekFrom::Start(text_end as u64))
        .expect("seek to the text end");
    file.write_all(b"# wal seq=9999\nchurn 0 9")
        .expect("write torn tail");
    drop(file);

    let recovered = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(path.clone()),
            recover: true,
            ..NetConfig::default()
        },
    )
    .expect("recovery tolerates the torn tail");
    let mutating = trace.ops[..cut].iter().filter(|o| o.is_mutating()).count();
    assert_eq!(recovered.recovered_ops(), mutating, "torn op never counts");
    let after = recovered.local_addr();
    thread::spawn(move || recovered.run());
    let rest = replay_with_options(after, &trace.ops[cut..], ReplayOptions::default())
        .expect("post-recovery replay succeeds");

    let mut all = first.responses;
    all.extend(rest.responses);
    assert_eq!(all, expected, "answers diverged across a torn-tail crash");
    let _ = std::fs::remove_file(&path);
}

/// Run the fault script against a journaled server carrying `plan`,
/// with the resilient client; return the replay plus the server addr
/// for stats.
fn run_with_faults(
    tag: &str,
    plan: FaultPlan,
    options: ReplayOptions,
) -> (byzscore_service::SocketReplay, SocketAddr, PathBuf) {
    let path = temp_journal(tag);
    let _ = std::fs::remove_file(&path);
    let addr = spawn_server(NetConfig {
        journal: Some(path.clone()),
        fault: Arc::new(plan),
        ..NetConfig::default()
    });
    let replay =
        replay_with_options(addr, &fault_script(), options).expect("faulted replay completes");
    (replay, addr, path)
}

/// A probe panicking inside the supervised `submit` answers a typed
/// `Retryable`, the server keeps running, and the client's resend lands
/// the exact in-process answer — the probe applies once (idempotent
/// re-post).
#[test]
fn worker_panic_on_a_probe_is_retried_through() {
    let expected = ServiceEngine::new().execute(&fault_script());
    let plan = FaultPlan::parse("panic-worker@2").expect("plan parses");
    let (replay, addr, path) = run_with_faults("panic_probe", plan, ReplayOptions::default());
    assert_eq!(
        replay.responses, expected,
        "answers diverged under a worker panic"
    );
    assert_eq!(replay.retryable_retries, 1, "exactly one typed retry");
    let stats = request_stats(addr).expect("server survived the panic");
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.retryable, 1);
    assert_eq!(stats.admitted, stats.completed);
    let _ = std::fs::remove_file(&path);
}

/// A query panicking inside the supervised `submit` fails the whole
/// query exactly once (no partial answer), and the retry answers
/// identically — queries are pure reads, so nothing double-applies.
#[test]
fn worker_panic_on_a_query_slice_fails_the_query_once() {
    let expected = ServiceEngine::new().execute(&fault_script());
    let plan = FaultPlan::parse("panic-worker@6").expect("plan parses");
    let (replay, addr, path) = run_with_faults("panic_query", plan, ReplayOptions::default());
    assert_eq!(
        replay.responses, expected,
        "answers diverged under a query panic"
    );
    assert_eq!(
        replay.retryable_retries, 1,
        "one Retryable per failed query"
    );
    let stats = request_stats(addr).expect("server survived the panic");
    assert!(stats.worker_panics >= 1, "at least one slice panicked");
    assert_eq!(stats.retryable, 1, "the merge cell answered exactly once");
    assert_eq!(stats.admitted, stats.completed);
    let _ = std::fs::remove_file(&path);
}

/// A panic inside a barrier — write lock held, engine state unknown —
/// poisons nothing observable: the dispatcher rebuilds the engine from
/// the journal (which recorded the barrier before it ran), answers
/// `Retryable`, and the client's resend hits the dedupe window, so the
/// churn applies exactly once.
#[test]
fn barrier_panic_rebuilds_from_the_journal() {
    let expected = ServiceEngine::new().execute(&fault_script());
    let plan = FaultPlan::parse("panic-barrier@4").expect("plan parses");
    let (replay, addr, path) = run_with_faults("panic_barrier", plan, ReplayOptions::default());
    assert_eq!(
        replay.responses, expected,
        "answers diverged across a rebuild"
    );
    assert_eq!(replay.retryable_retries, 1);
    let stats = request_stats(addr).expect("server survived the barrier panic");
    assert_eq!(stats.rebuilds, 1, "one rebuild from the journal");
    assert_eq!(stats.deduped, 1, "the resent churn hit the dedupe window");
    assert_eq!(stats.admitted, stats.completed);
    let _ = std::fs::remove_file(&path);
}

/// One wire frame must not brick a journaled server. An `open` whose
/// corrupt count covers every player and a `churn` that leaves no more
/// players than the corrupt count are journaled (appends precede
/// execution), answered with a typed rejection, and the server keeps
/// serving. A server recovered from that journal — the same replay a
/// barrier-panic rebuild runs — answers the rest identically.
#[test]
fn poison_ops_are_rejected_typed_and_their_journal_recovers() {
    let script = ops(&[
        "open 8 16 1 2 1 naive 4 8 0 1",
        "open 8 16 1 2 1 naive 4 2 0 1",
        "churn 0 7 0",
        "query 0 0,1 -",
        "epoch 0",
    ]);
    let expected = ServiceEngine::new().execute(&script);
    for poisoned in [&expected[0], &expected[2]] {
        assert!(matches!(poisoned, Response::Rejected(_)), "{poisoned:?}");
    }
    let path = temp_journal("poison");
    scrub(&path);
    let before = spawn_server(NetConfig {
        journal: Some(path.clone()),
        ..NetConfig::default()
    });
    let first = replay_with_options(before, &script[..3], ReplayOptions::default())
        .expect("the poisoned frames are answered");
    assert_eq!(first.responses, expected[..3]);
    let stats = request_stats(before).expect("the server survived the poison ops");
    assert_eq!(stats.admitted, stats.completed);

    let recovered = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(path.clone()),
            recover: true,
            ..NetConfig::default()
        },
    )
    .expect("a journal holding the poison ops recovers");
    assert_eq!(recovered.recovered_ops(), 3);
    let after = recovered.local_addr();
    thread::spawn(move || recovered.run());
    let rest = replay_with_options(after, &script[3..], ReplayOptions::default())
        .expect("the recovered server keeps serving");
    assert_eq!(rest.responses, expected[3..]);
    scrub(&path);
}

/// The server severing a connection mid-dispatch (the op executes, the
/// answer is lost) looks like a network partition: the client
/// reconnects, resends its pending ops, and finishes with the exact
/// uninterrupted answers.
#[test]
fn dropped_connection_reconnects_and_resends() {
    let expected = ServiceEngine::new().execute(&fault_script());
    let plan = FaultPlan::parse("drop-conn@5").expect("plan parses");
    let (replay, _addr, path) = run_with_faults("drop_conn", plan, ReplayOptions::default());
    assert_eq!(
        replay.responses, expected,
        "answers diverged across a dropped connection"
    );
    assert!(replay.reconnects >= 1, "the client reconnected");
    let _ = std::fs::remove_file(&path);
}

/// A wedged server (the connection thread stalls before admission)
/// trips the client's per-request deadline; the reconnect resends the
/// barrier, and when the stalled thread finally admits the original
/// copy it hits the dedupe window — the epoch advances exactly once.
#[test]
fn stalled_admission_trips_the_deadline_and_dedupes() {
    let expected = ServiceEngine::new().execute(&fault_script());
    let plan = FaultPlan::parse("stall@7:900").expect("plan parses");
    let options = ReplayOptions {
        deadline: Some(Duration::from_millis(250)),
        ..ReplayOptions::default()
    };
    let (replay, addr, path) = run_with_faults("stall", plan, options);
    assert_eq!(
        replay.responses, expected,
        "answers diverged across a stall"
    );
    assert!(replay.reconnects >= 1, "the deadline forced a reconnect");
    // Let the stalled thread wake up and flush its stale admission.
    thread::sleep(Duration::from_millis(1200));
    let stats = request_stats(addr).expect("stats");
    assert_eq!(
        stats.admitted, stats.completed,
        "the stale admission was answered"
    );
    assert!(
        stats.deduped >= 1,
        "the stale barrier hit the dedupe window"
    );
    let _ = std::fs::remove_file(&path);
}

/// Checkpoint round-trip through the socket server, killed mid-trace,
/// at 1/2/8 worker threads: the recovered server must come up from a
/// checkpoint (not a full-journal replay) and the concatenated answers
/// must match the uninterrupted in-process run bit-for-bit at every
/// thread count — the warm≡cold pin extended to snapshot state.
#[test]
fn compaction_recovery_is_thread_count_invariant() {
    let trace = Trace::generate(&TraceSpec::small(31));
    let expected = trace.replay();
    let cut = 2 * trace.ops.len() / 3;
    for threads in [1usize, 2, 8] {
        set_thread_limit(Some(threads));
        let path = temp_journal(&format!("ckpt_threads{threads}"));
        scrub(&path);

        let before = spawn_server(NetConfig {
            journal: Some(path.clone()),
            compact_every: Some(4),
            ..NetConfig::default()
        });
        let first = replay_with_options(before, &trace.ops[..cut], ReplayOptions::default())
            .expect("prefix replay succeeds");

        let recovered = Server::bind(
            "127.0.0.1:0",
            NetConfig {
                journal: Some(path.clone()),
                recover: true,
                compact_every: Some(4),
                ..NetConfig::default()
            },
        )
        .expect("recovery bind succeeds");
        assert_eq!(
            recovered.recovery().map(|r| r.source),
            Some(RecoverySource::Checkpoint),
            "with every=4 compaction the prefix leaves a covering checkpoint"
        );
        let mutating = trace.ops[..cut].iter().filter(|o| o.is_mutating()).count();
        assert!(
            recovered.recovered_ops() < mutating,
            "the checkpoint bounded the tail below a full replay \
             ({} vs {mutating} at {threads} threads)",
            recovered.recovered_ops()
        );
        let after = recovered.local_addr();
        thread::spawn(move || recovered.run());
        let rest = replay_with_options(after, &trace.ops[cut..], ReplayOptions::default())
            .expect("post-recovery replay succeeds");

        let mut all = first.responses;
        all.extend(rest.responses);
        assert_eq!(
            all, expected,
            "answers diverged across a checkpointed crash at {threads} threads"
        );
        scrub(&path);
    }
    set_thread_limit(None);
}

/// A primary checkpoint that lost its footer (the partial-write tear
/// the footer exists to detect) is skipped in favour of the rotated
/// previous generation, and the recovered server still answers
/// bit-identically.
#[test]
fn torn_primary_checkpoint_falls_back_to_previous_generation() {
    let trace = Trace::generate(&TraceSpec::small(37));
    let expected = trace.replay();
    let cut = trace.ops.len() - 2;
    let path = temp_journal("torn_ckpt");
    scrub(&path);

    let before = spawn_server(NetConfig {
        journal: Some(path.clone()),
        compact_every: Some(3),
        ..NetConfig::default()
    });
    let first = replay_with_options(before, &trace.ops[..cut], ReplayOptions::default())
        .expect("prefix replay succeeds");

    // The crash window: a later cycle rotated the good checkpoint to
    // .prev and published a torn primary, dying before truncation —
    // keep the fallback covering the journal base, lose the footer.
    let primary = checkpoint_path(&path);
    let bytes = std::fs::read(&primary).expect("primary checkpoint exists after compaction");
    std::fs::copy(&primary, previous_checkpoint_path(&path)).expect("rotate to prev");
    std::fs::write(&primary, &bytes[..bytes.len() * 2 / 3]).expect("tear the primary");

    let recovered = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(path.clone()),
            recover: true,
            compact_every: Some(3),
            ..NetConfig::default()
        },
    )
    .expect("recovery tolerates the torn primary");
    assert_eq!(
        recovered.recovery().map(|r| r.source),
        Some(RecoverySource::PreviousCheckpoint),
        "the torn footer forced the previous-generation fallback"
    );
    let after = recovered.local_addr();
    thread::spawn(move || recovered.run());
    let rest = replay_with_options(after, &trace.ops[cut..], ReplayOptions::default())
        .expect("post-recovery replay succeeds");

    let mut all = first.responses;
    all.extend(rest.responses);
    assert_eq!(all, expected, "answers diverged across a torn checkpoint");
    scrub(&path);
}

/// The other crash window: the checkpoint is durable but the journal
/// truncation never happened (kill between `save_checkpoint` and the
/// tail rename). The journal then still holds ops the checkpoint
/// already covers — recovery must skip exactly those and replay
/// nothing twice.
#[test]
fn durable_checkpoint_over_an_untruncated_journal_skips_covered_ops() {
    let trace = Trace::generate(&TraceSpec::small(41));
    let expected = trace.replay();
    let cut = 2 * trace.ops.len() / 3;
    let path = temp_journal("untruncated");
    scrub(&path);

    let mut responses = Vec::with_capacity(trace.ops.len());
    {
        let (mut engine, _) =
            JournaledEngine::open(Some(&path), false, CompactionPolicy::default())
                .expect("journal create succeeds");
        for (seq, op) in trace.ops[..cut].iter().enumerate() {
            responses.push(
                engine
                    .submit(seq as u64, op)
                    .expect("journal append succeeds"),
            );
        }
        // Freeze the pre-compaction journal (base 0, every op), then
        // compact and put the old bytes back: checkpoint at K over a
        // journal whose base marker says 0 — the exact state a kill
        // between the checkpoint fsync and the tail rename leaves.
        let pre_compaction = std::fs::read(&path).expect("journal readable");
        engine.compact().expect("compaction succeeds");
        std::fs::write(&path, pre_compaction).expect("restore the untruncated journal");
    }

    let (mut engine, report) =
        JournaledEngine::open(Some(&path), true, CompactionPolicy::default())
            .expect("recovery succeeds");
    let mutating = trace.ops[..cut].iter().filter(|o| o.is_mutating()).count();
    assert_eq!(
        report.map(|r| r.replayed),
        Some(0),
        "every journal entry was already covered by the checkpoint"
    );
    assert_eq!(
        engine.history_ops(),
        mutating as u64,
        "the skipped entries still count toward the history"
    );
    for (seq, op) in trace.ops.iter().enumerate().skip(cut) {
        responses.push(
            engine
                .submit(seq as u64, op)
                .expect("journal append succeeds"),
        );
    }
    assert_eq!(
        responses, expected,
        "answers diverged across an untruncated-journal recovery"
    );
    scrub(&path);
}

/// A barrier panic whose rebuild cannot recover — the journal was
/// compacted and both checkpoint generations are gone, so the ops
/// before its base exist nowhere on disk — must stop the server. It
/// used to fall back to an empty engine and keep answering (the resent
/// churn came back `Rejected(UnknownSession)`) while appending to a
/// journal that no longer described its state.
#[test]
fn failed_rebuild_stops_the_server_instead_of_serving_an_empty_engine() {
    let path = temp_journal("failed_rebuild");
    scrub(&path);
    let server = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(path.clone()),
            compact_every: Some(1),
            fault: Arc::new(FaultPlan::parse("panic-barrier@4").expect("plan parses")),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let running = thread::spawn(move || server.run());

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut exchange = |frame: ClientFrame| -> Option<ServerFrame> {
        write_frame(&mut stream, frame.encode().as_bytes()).ok()?;
        let payload = read_frame(&mut stream).ok()??;
        ServerFrame::decode(std::str::from_utf8(&payload).ok()?).ok()
    };
    assert_eq!(exchange(ClientFrame::Hello), Some(ServerFrame::Hello));
    let script = fault_script();
    let op_frame = |seq: usize| ClientFrame::Op {
        seq: seq as u64,
        line: format_op(&script[seq]),
    };
    for seq in 0..4 {
        assert!(
            matches!(exchange(op_frame(seq)), Some(ServerFrame::Resp { .. })),
            "op {seq} answered before the fault"
        );
    }
    // Compaction ran (every=1), so the journal's base marker is past
    // op 0; lose every checkpoint generation that could cover it.
    std::fs::remove_file(checkpoint_path(&path)).expect("primary checkpoint exists");
    let _ = std::fs::remove_file(previous_checkpoint_path(&path));

    match exchange(op_frame(4)) {
        Some(ServerFrame::Resp {
            seq: 4,
            response: Response::Retryable { .. },
        }) => {}
        other => panic!("expected a Retryable for the interrupted churn, got {other:?}"),
    }
    // The resend must not be answered from an empty engine: the server
    // severed the connection on its way down.
    assert_eq!(
        exchange(op_frame(4)),
        None,
        "the server kept answering after a failed rebuild"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !running.is_finished() && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    assert!(running.is_finished(), "the server did not stop");
    let stats = running.join().expect("server thread exits cleanly");
    assert_eq!(stats.rebuilds, 1);
    assert_eq!(stats.admitted, stats.completed);
    scrub(&path);
}

/// One pipeline, pinned by bytes: the same durable trace driven through
/// `JournaledEngine::submit` in-process and through a live `Server` at
/// one connection (seq = op index on both) must leave byte-identical
/// journal and checkpoint files, equal answers per op, and equal
/// durability counters — the socket front-end adds transport, not a
/// second state machine.
#[test]
fn socket_and_in_process_pipelines_write_identical_bytes() {
    let trace = Trace::generate(&TraceSpec {
        ops: 300,
        mix: OpMix {
            probe: 120,
            query: 60,
            churn: 1,
            epoch: 1,
        },
        ..TraceSpec::small(43)
    });
    let every = 7;
    let files = |journal: &PathBuf| {
        [
            journal.clone(),
            checkpoint_path(journal),
            previous_checkpoint_path(journal),
        ]
        .map(|file| std::fs::read(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display())))
    };

    let local_path = temp_journal("bytes_local");
    scrub(&local_path);
    let policy = CompactionPolicy {
        every: Some(every),
        bytes: None,
    };
    let (mut local, _) =
        JournaledEngine::open(Some(&local_path), false, policy).expect("create journal");
    let local_answers: Vec<Response> = trace
        .ops
        .iter()
        .enumerate()
        .map(|(seq, op)| {
            local
                .submit(seq as u64, op)
                .expect("journal append succeeds")
        })
        .collect();

    let served_path = temp_journal("bytes_served");
    scrub(&served_path);
    let server = Server::bind(
        "127.0.0.1:0",
        NetConfig {
            journal: Some(served_path.clone()),
            compact_every: Some(every),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let running = thread::spawn(move || server.run());
    let served = replay_with_options(addr, &trace.ops, ReplayOptions::default())
        .expect("socket replay succeeds");
    let stats = request_stats(addr).expect("stats");
    request_shutdown(addr).expect("server acknowledges shutdown");
    running.join().expect("server thread exits cleanly");

    assert_eq!(served.busy_retries + served.retryable_retries, 0);
    assert_eq!(served.responses, local_answers, "answers differ per op");
    assert!(local.checkpoints() >= 2, "the trace crosses several cycles");
    assert_eq!(
        (
            stats.journaled,
            stats.checkpoints,
            stats.truncated_ops,
            stats.tail_len
        ),
        (
            local.journaled(),
            local.checkpoints(),
            local.truncated_ops(),
            local.tail_ops()
        ),
        "durability counters differ"
    );
    let [journal, ckpt, prev] = files(&local_path);
    let [served_journal, served_ckpt, served_prev] = files(&served_path);
    assert!(journal == served_journal, "journal bytes differ");
    assert!(ckpt == served_ckpt, "checkpoint bytes differ");
    assert!(prev == served_prev, "previous-checkpoint bytes differ");
    scrub(&local_path);
    scrub(&served_path);
}

/// Drive `lines` through the stdin line transport on `pipeline`: the
/// answer lines it wrote and its verdict.
fn serve_text(pipeline: &mut JournaledEngine, lines: &[&str]) -> (Vec<String>, io::Result<()>) {
    let mut out = Vec::new();
    let served = serve_lines(pipeline, lines.join("\n").as_bytes(), &mut out);
    let text = String::from_utf8(out).expect("answers are UTF-8");
    (text.lines().map(String::from).collect(), served)
}

/// The line the stdin transport prints for `resp`.
fn answer_line(resp: &Response) -> String {
    format!("{:016x} {resp:?}", resp.digest())
}

/// A line that is not an op answers a typed `Malformed` on the stdin
/// transport, and serving goes on; blank and comment lines answer
/// nothing.
#[test]
fn stdin_transport_answers_malformed_lines_typed() {
    let (mut pipeline, _) = NetConfig::default()
        .open_pipeline()
        .expect("a journal-less pipeline opens");
    let lines = [FAULT_SCRIPT[0], "not an op line", "", "# note", "close 0"];
    let (answers, served) = serve_text(&mut pipeline, &lines);
    served.expect("the transport serves to EOF");
    let expected = ServiceEngine::new().execute(&ops(&[FAULT_SCRIPT[0], "close 0"]));
    assert_eq!(answers.len(), 3, "{answers:?}");
    assert_eq!(answers[0], answer_line(&expected[0]));
    assert!(answers[1].contains("Malformed"), "{}", answers[1]);
    assert_eq!(answers[2], answer_line(&expected[1]));
}

/// `--fault` on stdin: a barrier that panics answers one `Retryable`
/// line, the pipeline rebuilds from the journal (which holds the
/// barrier), and every later line answers what the in-process engine
/// does.
#[test]
fn stdin_transport_rebuilds_through_a_barrier_panic() {
    let path = temp_journal("stdin_panic_barrier");
    scrub(&path);
    let (mut pipeline, _) = NetConfig {
        journal: Some(path.clone()),
        fault: Arc::new(FaultPlan::parse("panic-barrier@4").expect("plan parses")),
        ..NetConfig::default()
    }
    .open_pipeline()
    .expect("journal create succeeds");
    let (answers, served) = serve_text(&mut pipeline, &FAULT_SCRIPT);
    served.expect("the transport serves to EOF");
    let expected = ServiceEngine::new().execute(&fault_script());
    assert_eq!(answers.len(), expected.len());
    for (seq, (got, want)) in answers.iter().zip(&expected).enumerate() {
        if seq == 4 {
            assert!(got.contains("Retryable"), "op 4: {got}");
        } else {
            assert_eq!(*got, answer_line(want), "op {seq}");
        }
    }
    assert_eq!(pipeline.rebuilds(), 1);
    scrub(&path);
}

/// A barrier panic whose rebuild cannot recover — a compacted journal
/// with both checkpoint generations gone — stops the stdin transport
/// with an error after the `Retryable` line, reading nothing further.
#[test]
fn stdin_transport_halts_when_the_rebuild_fails() {
    let path = temp_journal("stdin_failed_rebuild");
    scrub(&path);
    let (mut pipeline, _) = NetConfig {
        journal: Some(path.clone()),
        compact_every: Some(1),
        fault: Arc::new(FaultPlan::parse("panic-barrier@4").expect("plan parses")),
        ..NetConfig::default()
    }
    .open_pipeline()
    .expect("journal create succeeds");
    let (answers, served) = serve_text(&mut pipeline, &FAULT_SCRIPT[..4]);
    served.expect("the ops before the fault serve");
    assert_eq!(answers.len(), 4);
    std::fs::remove_file(checkpoint_path(&path)).expect("primary checkpoint exists");
    let _ = std::fs::remove_file(previous_checkpoint_path(&path));

    let (answers, served) = serve_text(&mut pipeline, &FAULT_SCRIPT[4..]);
    let err = served.expect_err("a halted pipeline stops the transport");
    assert!(err.to_string().contains("--recover"), "{err}");
    assert_eq!(
        answers.len(),
        1,
        "nothing is read past the halt: {answers:?}"
    );
    assert!(answers[0].contains("Retryable"), "{}", answers[0]);
    assert!(pipeline.halted());
    scrub(&path);
}
