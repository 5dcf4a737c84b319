//! `scored` — the scoring-service command line.
//!
//! ```text
//! scored gen <out.trace> [--sessions N] [--ops N] [--players N] [--objects N]
//!                        [--clusters N] [--diameter N] [--budget N] [--corrupt N]
//!                        [--drift-ppm N] [--algorithm naive|calculate|oracle|majority]
//!                        [--skew N] [--seed S]
//! scored replay <in.trace>
//! scored serve [--listen ADDR] [--queue-depth N]
//!              [--journal PATH | --recover PATH]
//!              [--compact-every N] [--compact-bytes N]
//!              [--read-timeout-ms N] [--write-timeout-ms N]
//! scored client <ADDR> <in.trace> [--connections N] [--shutdown]
//!              [--deadline-ms N] [--retry-seed S] [--throttle-ms N]
//! scored compact <journal>
//! ```
//!
//! `gen` writes a deterministic trace file; `replay` executes one and
//! prints the op count and combined digest (the digest is the cell CI
//! gates); `serve` without `--listen` reads op lines from stdin and
//! answers one line per op on stdout, while `--listen` starts the `byzscore-wire/v1` TCP
//! front-end (bounded admission, one dispatch lane) and prints
//! its stats counters at shutdown. Both are transports over the same
//! supervised pipeline: on stdin too, a panicking op answers
//! `Retryable`, a panicking barrier rebuilds from the journal, a failed
//! rebuild stops serving (exit 1, restart with `--recover`), and
//! `--fault` is honoured; `client` replays a trace file over
//! the socket and prints the same `digest` line as `replay`, so the
//! two are directly comparable — CI's `service-e2e` job gates exactly
//! that equality.
//!
//! Durability: `--journal PATH` write-ahead-journals every admitted
//! mutating op (fsync before execute); after a crash, `--recover PATH`
//! rebuilds the engine by replaying the journal and keeps appending to
//! it, and CI's `service-chaos` job gates that a `kill -9` mid-replay
//! plus `--recover` still lands the pinned digest. The journal is a
//! valid `byzscore-trace/v1` file followed by zero padding, which trace
//! readers skip: `scored replay wal.journal` works. Fault-injected
//! builds (`--features fault-inject`) add `serve --fault SPEC` with
//! deterministic kill/panic/drop/stall schedules.
//!
//! Compaction: `--compact-every N` / `--compact-bytes B` bound the
//! journal tail — once the threshold is crossed, the server writes a
//! fsynced `byzscore-ckpt/v2` snapshot of the full engine state next to
//! the journal and atomically truncates the journal to an empty tail,
//! so recovery replays at most one threshold's worth of ops instead of
//! the whole history. `scored compact <journal>` runs one offline
//! cycle on an idle journal. The recovery print names its source
//! (checkpoint vs full journal); the post-truncation tail is still a
//! valid trace file.

use byzscore_service::{
    combined_digest, net, CompactionPolicy, JournaledEngine, NetConfig, RecoveryReport,
    ReplayOptions, Response, Server, ServiceAlgorithm, Trace, TraceSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: scored gen <out.trace> [--sessions N] [--ops N] [--players N] [--objects N]\n\
         \u{20}                        [--clusters N] [--diameter N] [--budget N] [--corrupt N]\n\
         \u{20}                        [--drift-ppm N] [--algorithm NAME] [--skew N] [--seed S]\n\
         \u{20}      scored replay <in.trace>\n\
         \u{20}      scored serve [--listen ADDR] [--queue-depth N]\n\
         \u{20}                   [--journal PATH | --recover PATH]\n\
         \u{20}                   [--compact-every N] [--compact-bytes N]\n\
         \u{20}                   [--read-timeout-ms N] [--write-timeout-ms N]\n\
         \u{20}      scored client <ADDR> <in.trace> [--connections N] [--shutdown]\n\
         \u{20}                   [--deadline-ms N] [--retry-seed S] [--throttle-ms N]\n\
         \u{20}      scored compact <journal>"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    match args.next().map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("scored: {flag} needs a numeric value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("gen") => gen(&argv[1..]),
        Some("replay") => replay(&argv[1..]),
        Some("serve") => serve(&argv[1..]),
        Some("client") => client(&argv[1..]),
        Some("compact") => compact(&argv[1..]),
        _ => usage(),
    }
}

fn gen(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let mut spec = TraceSpec::small(1);
    let rest: Vec<String> = args[1..].to_vec();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sessions" => spec.sessions = parse_num(&mut it, flag),
            "--ops" => spec.ops = parse_num(&mut it, flag),
            "--players" => spec.players = parse_num(&mut it, flag),
            "--objects" => spec.objects = parse_num(&mut it, flag),
            "--clusters" => spec.clusters = parse_num(&mut it, flag),
            "--diameter" => spec.diameter = parse_num(&mut it, flag),
            "--budget" => spec.budget = parse_num(&mut it, flag),
            "--corrupt" => spec.corrupt = parse_num(&mut it, flag),
            "--drift-ppm" => spec.drift_ppm = parse_num(&mut it, flag),
            "--skew" => spec.skew = parse_num(&mut it, flag),
            "--seed" => spec.seed = parse_num(&mut it, flag),
            "--algorithm" => {
                let name = it.next().map(String::as_str).unwrap_or("");
                match ServiceAlgorithm::parse(name) {
                    Some(alg) => spec.algorithm = alg,
                    None => {
                        eprintln!("scored: unknown algorithm {name:?}");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    if spec.sessions == 0 {
        eprintln!("scored: --sessions must be at least 1");
        usage();
    }
    let trace = Trace::generate(&spec);
    if let Err(e) = std::fs::write(path, trace.to_text()) {
        eprintln!("scored: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} ops to {path}", trace.ops.len());
}

fn read_trace(path: &str) -> Trace {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scored: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match Trace::from_text(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scored: {e}");
            std::process::exit(1);
        }
    }
}

fn replay(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    if args.len() > 1 {
        usage();
    }
    let trace = read_trace(path);
    let start = std::time::Instant::now();
    let responses = trace.replay();
    let elapsed = start.elapsed();
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    println!(
        "replayed {} ops in {:.1} ms ({} rejected)",
        responses.len(),
        elapsed.as_secs_f64() * 1e3,
        rejected
    );
    println!("digest {:016x}", combined_digest(&responses));
}

fn serve(args: &[String]) {
    let mut listen: Option<String> = None;
    let mut config = NetConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("scored: --listen needs an address");
                    std::process::exit(2);
                }
            },
            "--queue-depth" => config.queue_depth = parse_num(&mut it, flag),
            "--journal" | "--recover" => match it.next() {
                Some(path) => {
                    config.journal = Some(path.into());
                    config.recover = flag == "--recover";
                }
                None => {
                    eprintln!("scored: {flag} needs a journal path");
                    std::process::exit(2);
                }
            },
            "--compact-every" => config.compact_every = Some(parse_num(&mut it, flag)),
            "--compact-bytes" => config.compact_bytes = Some(parse_num(&mut it, flag)),
            "--read-timeout-ms" => config.read_timeout_ms = parse_num(&mut it, flag),
            "--write-timeout-ms" => config.write_timeout_ms = parse_num(&mut it, flag),
            #[cfg(feature = "fault-inject")]
            "--fault" => {
                let spec = it.next().map(String::as_str).unwrap_or("");
                match byzscore_service::FaultPlan::parse(spec) {
                    Ok(plan) => config.fault = std::sync::Arc::new(plan),
                    Err(e) => {
                        eprintln!("scored: {e}");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    match listen {
        Some(addr) => serve_socket(&addr, config),
        None => serve_stdin(&config),
    }
}

fn serve_socket(addr: &str, config: NetConfig) {
    let server = match Server::bind(addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scored: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    announce(server.recovery());
    // The e2e harness greps this line for the actual port (`--listen
    // 127.0.0.1:0` lets the OS choose).
    println!("listening on {}", server.local_addr());
    let stats = server.run();
    println!("shutdown: {}", stats.encode());
}

fn serve_stdin(config: &NetConfig) {
    let (mut pipeline, recovery) = match config.open_pipeline() {
        Ok(opened) => opened,
        Err(e) => {
            let verb = if config.recover { "recover" } else { "create" };
            eprintln!("scored: cannot {verb} the journal: {e}");
            std::process::exit(1);
        }
    };
    announce(recovery);
    let served = net::serve_lines(&mut pipeline, std::io::stdin().lock(), std::io::stdout());
    if let Err(e) = served {
        eprintln!("scored: {e}");
        std::process::exit(1);
    }
}

fn client(args: &[String]) {
    let (Some(addr), Some(path)) = (args.first(), args.get(1)) else {
        usage();
    };
    let mut options = ReplayOptions::default();
    let mut shutdown = false;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connections" => options.connections = parse_num(&mut it, flag),
            "--shutdown" => shutdown = true,
            "--deadline-ms" => {
                options.deadline = Some(std::time::Duration::from_millis(parse_num(&mut it, flag)));
            }
            "--retry-seed" => options.retry_seed = parse_num(&mut it, flag),
            "--throttle-ms" => {
                options.throttle = Some(std::time::Duration::from_millis(parse_num(&mut it, flag)));
            }
            _ => usage(),
        }
    }
    let connections = options.connections.max(1);
    let trace = read_trace(path);
    let start = std::time::Instant::now();
    let replayed = match net::replay_with_options(addr.as_str(), &trace.ops, options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scored: socket replay failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = start.elapsed();
    let rejected = replayed
        .responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(_)))
        .count();
    println!(
        "replayed {} ops in {:.1} ms over {} connection(s) \
         ({} rejected, {} busy retries, {} retryable retries, {} reconnects)",
        replayed.responses.len(),
        elapsed.as_secs_f64() * 1e3,
        connections,
        rejected,
        replayed.busy_retries,
        replayed.retryable_retries,
        replayed.reconnects
    );
    println!("digest {:016x}", combined_digest(&replayed.responses));
    if shutdown {
        if let Err(e) = net::request_shutdown(addr.as_str()) {
            eprintln!("scored: shutdown request failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Print what a recovering open replayed. The chaos harness greps
/// `^recovered` — keep the "recovered N ops" prefix; the trailing source
/// names checkpoint vs full-journal recovery.
fn announce(recovery: Option<RecoveryReport>) {
    if let Some(report) = recovery {
        println!(
            "recovered {} ops from {}",
            report.replayed,
            report.source.describe()
        );
    }
}

/// Offline compaction of an idle journal: recover (checkpoint-aware),
/// then run one checkpoint + truncate cycle so the next recovery
/// replays an empty tail. Only safe with no server appending.
fn compact(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    if args.len() > 1 {
        usage();
    }
    let path = std::path::Path::new(path);
    let opened = JournaledEngine::open(Some(path), true, CompactionPolicy::default());
    let (mut engine, recovery) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("scored: cannot recover {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    announce(recovery);
    if let Err(e) = engine.compact() {
        eprintln!("scored: compaction failed: {e}");
        std::process::exit(1);
    }
    println!(
        "checkpointed {} ops; journal truncated to an empty tail",
        engine.history_ops()
    );
}
