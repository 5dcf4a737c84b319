//! `byzscore-perf` — the benchmark of the byzscore stack, kernel to socket.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one workload (the contract's form)
//! perf all [--seed N] [--seconds S] [--traced] [--runs K] [--smoke] [--out FILE]
//! perf compare A.json B.json
//! ```
//!
//! See `perf/README.md` for what each workload and metric means.

mod compare;
mod json;
mod layers;
mod proc;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{int, num, obj, s, Value};
use spans::Tracer;
use workloads::{Config, Report, WORKLOADS};

/// One emitted number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Where result files, span files and scratch directories go: inside the
/// checkout the command is run from, and ignored by git.
pub fn out_dir() -> PathBuf {
    assert!(
        std::path::Path::new("perf/Cargo.toml").exists(),
        "run from the repository root: perf/out is resolved against the working directory"
    );
    let dir = PathBuf::from("perf/out");
    std::fs::create_dir_all(&dir).expect("create perf/out");
    dir
}

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  perf all [--seed N] [--seconds S] [--traced] [--runs K] [--smoke] [--out FILE]
  perf compare A.json B.json
workloads: batch_paper batch_scale serve_read serve_churn socket_read socket_durable";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare flags, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value {text:?} for {key}\n{USAGE}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

// ---------------------------------------------------------------------------
// One workload (the contract's invocation)
// ---------------------------------------------------------------------------

fn run_one(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let name = flags.value("--workload").ok_or(USAGE)?.to_string();
    let benchmark = spec::benchmark();
    let cfg = Config {
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", benchmark.run_seconds)?,
        smoke: flags.has("--smoke"),
    };
    let traced = flags.parsed::<u8>("--trace", 0)? != 0;

    let mut tracer = Tracer::new(traced);
    let mut report = workloads::run_named(&name, &cfg, &mut tracer)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let (declared, metrics) = if traced {
        let mut metrics = layers::workload_metrics(&report);
        let ledger = layers::ledger(&cfg);
        metrics.extend(ledger.metrics);
        report.verdict.problems.extend(ledger.problems);
        (&benchmark.per_layer, metrics)
    } else {
        (&benchmark.end_to_end, end_to_end(&report))
    };
    let metrics = in_declared_order(declared, metrics)?;

    let correct = report.verdict.failed == 0 && report.verdict.problems.is_empty();
    let header = header(&cfg, traced);
    let result = result_document(&name, header.clone(), &report, &metrics, correct);
    let suffix = if traced { ".traced" } else { "" };
    let path = out_dir().join(format!("{name}{suffix}.json"));
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    if traced {
        let path = out_dir().join(format!("{name}.spans.json"));
        std::fs::write(&path, tracer.to_json(&name).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    print_report(&name, &header, &report, &metrics);
    for problem in &report.verdict.problems {
        println!("FAILED CHECK {name}: {problem}");
    }
    // The contract's result line: last on stdout.
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", int(report.phase.attempted.max(1))),
            ("failed", int(report.verdict.failed)),
            ("metrics", metrics_object(&metrics)),
        ])
        .to_line()
    );
    Ok(correct)
}

/// The end-to-end metrics of one untraced run. Every workload reports
/// every one; the work unit and the latency unit are the workload's own
/// (README, "End-to-end metrics").
fn end_to_end(report: &Report) -> Vec<Metric> {
    let metric = |name: &str, value: f64| Metric {
        name: name.to_string(),
        unit: String::new(),
        value,
    };
    vec![
        metric("ops_per_s", stats::median(&report.phase.segments)),
        metric(
            "latency_ms_p50",
            stats::percentile(&report.phase.latencies_ms, 0.5),
        ),
        metric("setup_s", stats::median(&report.setups_s)),
    ]
}

/// Check the emitted names against `BENCHMARK.json` — exactly the
/// declared set, each once — and take units and order from it.
fn in_declared_order(
    declared: &[spec::MetricSpec],
    mut emitted: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(declared.len());
    for spec in declared {
        let at = emitted
            .iter()
            .position(|m| m.name == spec.name)
            .ok_or_else(|| format!("harness bug: declared metric {} was not emitted", spec.name))?;
        let mut metric = emitted.swap_remove(at);
        metric.unit = spec.unit.clone();
        ordered.push(metric);
    }
    if emitted.is_empty() {
        Ok(ordered)
    } else {
        let names: Vec<&str> = emitted.iter().map(|m| m.name.as_str()).collect();
        Err(format!(
            "harness bug: emitted but not declared (or emitted twice): {}",
            names.join(" ")
        ))
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", num(m.value)), ("unit", s(m.unit.as_str()))]),
                )
            })
            .collect(),
    )
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header every result file starts with.
fn header(cfg: &Config, traced: bool) -> Value {
    let nproc = proc::nproc();
    let out_dir = out_dir();
    obj([
        ("git_commit", s(git_commit())),
        ("nproc", int(nproc as u64)),
        (
            "thread_budget",
            int(byzscore_board::par::thread_limit().unwrap_or(nproc) as u64),
        ),
        (
            "default_shards",
            int(byzscore_service::DEFAULT_SHARDS as u64),
        ),
        (
            "net_config",
            s(format!("{:?}", byzscore_service::NetConfig::default())),
        ),
        (
            "client_connections",
            int(workloads::socket::CONNECTIONS as u64),
        ),
        ("seed", int(cfg.seed)),
        ("seconds", num(cfg.seconds)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("traced", Value::Bool(traced)),
        ("temp_dir", s(out_dir.display().to_string())),
        ("temp_dir_fs", s(proc::fs_type(&out_dir))),
    ])
}

fn result_document(
    name: &str,
    header: Value,
    report: &Report,
    metrics: &[Metric],
    correct: bool,
) -> Value {
    let verdict = &report.verdict;
    obj([
        ("header", header),
        ("workload", s(name)),
        ("correct", Value::Bool(correct)),
        ("attempted", int(report.phase.attempted)),
        ("failed", int(verdict.failed)),
        ("metrics", metrics_object(metrics)),
        ("peak_rss_mb", num(proc::peak_rss_mb())),
        (
            "exact",
            obj(verdict.exact.iter().map(|&(k, v)| (k, int(v)))),
        ),
        ("facts", obj(verdict.facts.iter().cloned())),
        ("samples", workloads::samples(report)),
        (
            "problems",
            Value::Arr(verdict.problems.iter().map(s).collect()),
        ),
    ])
}

fn print_report(name: &str, header: &Value, report: &Report, metrics: &[Metric]) {
    println!("# {name} {}", header.to_line());
    println!(
        "# attempted={} failed={} setups={} segments={} latency_samples={} peak_rss_mb={:.1}",
        report.phase.attempted,
        report.verdict.failed,
        report.setups_s.len(),
        report.phase.segments.len(),
        report.phase.latencies_ms.len(),
        proc::peak_rss_mb()
    );
    for (key, value) in &report.verdict.facts {
        println!("# {key}={}", value.to_line());
    }
    for (key, value) in &report.verdict.exact {
        println!("{name} {key} {value} (exact)");
    }
    for metric in metrics {
        println!("{name} {} {} {}", metric.name, metric.value, metric.unit);
    }
}

// ---------------------------------------------------------------------------
// Every workload, each in its own child process
// ---------------------------------------------------------------------------

fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args);
    let benchmark = spec::benchmark();
    let seed: u64 = flags.parsed("--seed", 17)?;
    let smoke = flags.has("--smoke");
    let seconds: f64 =
        flags.parsed("--seconds", if smoke { 0.2 } else { benchmark.run_seconds })?;
    let traced = flags.has("--traced");
    let runs: u64 = flags.parsed("--runs", 1)?;
    let suffix = if traced { ".traced" } else { "" };
    let out = flags
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join(format!("all{suffix}.json")));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let mut all_correct = true;
    let mut merged: Vec<(String, Value)> = Vec::new();
    for name in WORKLOADS {
        let mut documents = Vec::new();
        for run in 0..runs {
            // A child per run: peak RSS, allocator state and lingering
            // threads of one workload never leak into the next.
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &(seed + run).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            all_correct &= status.success();
            let path = out_dir().join(format!("{name}{suffix}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            documents.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        merged.push((name.to_string(), compare::merge_runs(&documents)));
    }
    let cfg = Config {
        seed,
        seconds,
        smoke,
    };
    let document = obj([
        ("header", header(&cfg, traced)),
        ("runs", int(runs)),
        ("workloads", Value::Obj(merged)),
    ]);
    std::fs::write(&out, document.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# results written to {}", out.display());
    println!(
        "# {}",
        if all_correct {
            "every correctness check passed"
        } else {
            "A CORRECTNESS CHECK FAILED"
        }
    );
    Ok(all_correct)
}
