//! Workspace-wide design rules that `cargo test` enforces.
//!
//! One build configuration: no root-workspace manifest (root, `crates/*`,
//! `compat/*`, `tests`, `examples`) declares a `[features]` table and no
//! source under those directories forks on a cargo feature, so the tier-1
//! build, a `-p` build of one crate and the out-of-workspace `perf/`
//! benchmark (outside this rule) compile the same program. The scan is
//! plain `str::contains` over every file: comments and tests count too.
//!
//! One aged world (DESIGN.md §4.11, §4.13): a served session and a
//! `DynamicWorld` round both age their pool as resident bits
//! (`byzscore::ResidentPool`: one fold per epoch, each barrier's or
//! round's world gathered from those bits), and checkpoint restore
//! re-scores on the same world. A read routed back through the
//! drift/remap adapters answers identically, so no answer test would
//! fail; only the benchmark would notice. So no line of
//! `crates/service/src`, `core`'s `dynamic.rs` or `graded.rs` above a
//! file's first `#[cfg(test)]` names them, except inside
//! `compose_world`'s own definition; below it, tests pin the resident
//! pool to the adapter composition.
//!
//! Metered truth (DESIGN.md §4.2): a probe is how a player learns its own
//! bit, and the ledger charges it there. A read of the truth source from
//! the building blocks or the Figure 2 pipeline (say, to "batch" a
//! `Select` round) would stop charging probes without failing any test.
//! So no line of `crates/blocks/src` or of the pipeline files in
//! `crates/core/src` above its first `#[cfg(test)]` names the truth
//! source; tests may read the truth to check results.
//!
//! One fork point (DESIGN.md §4.10): phases run inline and
//! `board::par::par_map_coarse` is the only compute fork, so no line of a
//! `crates/*/src` file above its first `#[cfg(test)]` starts a thread,
//! comment lines aside (the oracle's `compile_fail` doctest shares one
//! into a scope to show that it cannot). The socket front-end and the
//! two experiments that host a `Server` thread are the I/O exceptions.
//!
//! Perf-only names (DESIGN.md §4.10–§4.13): a handful of names are
//! ignored, rebuild cold or merely negate another predicate, and exist
//! only because `perf/` still compiles against them. Above its first
//! `#[cfg(test)]`, only their definitions and the `lib.rs` re-exports
//! may name them, and `scored` takes no `--shards`.
//!
//! Single-thread meters (DESIGN.md §4.6): a run executes on the thread
//! that entered it, so the probe ledger, the probe memo, the board and
//! the candidate meter are plain cells. An atomic or a lock above the
//! tests of `board`, `blocks` or `adversary` would guard a concurrency no
//! caller has; `board/src/par.rs` is exempt, because `par_map_coarse` is
//! the one fork.

use std::fs;
use std::path::{Path, PathBuf};

/// A source line that forks the build on a cargo feature. Spelled with
/// `concat!` so this file does not match itself.
const FEATURE_CFGS: [&str; 3] = [
    concat!("cfg(", "feature"),
    concat!("cfg_attr(", "feature"),
    concat!("cfg(not(", "feature"),
];

/// A manifest line that declares cargo features.
const FEATURES_TABLE: &str = concat!("[", "features]");

/// The drift/remap adapters no run path reads through.
const ADAPTERS: [&str; 3] = ["DriftingTruth", "RemappedTruth", "compose_world"];

/// Core's dynamic-world file, home of the adapter composition.
const DYNAMIC: &str = "crates/core/src/dynamic.rs";

/// The files that age a world, beside every file of `crates/service/src`.
const AGING: [&str; 2] = [DYNAMIC, "crates/core/src/graded.rs"];

/// The items allowed to name an adapter: `(file, fragment)`, where the
/// line starting with `fragment` opens the item and every line up to its
/// closing `}` at the start of a line belongs to it.
const ADAPTER_DEFINITIONS: [(&str, &str); 1] = [(DYNAMIC, "pub fn compose_world(")];

/// Reads of the truth source that bypass `Oracle::probe`.
const TRUTH_READS: [&str; 3] = [".truth()", "TruthSource", ".value("];

/// The Figure 2 pipeline files of `crates/core/src` that must probe.
const PIPELINE: [&str; 5] = ["protocol", "share", "fused", "robust", "baseline"];

/// Where a source file's unit tests begin.
const CFG_TEST: &str = "#[cfg(test)]";

/// A thread started outside the one fork point.
const FORKS: [&str; 2] = ["thread::scope", "thread::spawn"];

/// The one compute fork, `board::par::par_map_coarse`.
const PAR: &str = "crates/board/src/par.rs";

/// The files that may start threads: the one compute fork, the socket
/// front-end (a directory) and the two experiments that host a `Server`.
const FORK_HOSTS: [&str; 4] = [
    PAR,
    "crates/service/src/net/",
    "crates/bench/src/experiments/service_exp.rs",
    "crates/bench/src/experiments/recovery_exp.rs",
];

/// Names that exist only because `perf/` still compiles against them.
const PERF_ONLY: [&str; 10] = [
    "with_shards",
    "DEFAULT_SHARDS",
    "WarmStart",
    "warm_start(",
    "last_reused_rows",
    ".refresh(",
    ".post_claim(",
    "par_map_players",
    "par_map_items",
    "par_update_items",
];

/// The lines allowed to name a perf-only name: `(file, fragment)`, where
/// a fragment starting `^` must begin the line and any other fragment may
/// sit anywhere in it.
const PERF_ONLY_DEFINITIONS: [(&str, &str); 11] = [
    (PAR, "pub fn par_map_players<"),
    (PAR, "pub fn par_map_items<"),
    (PAR, "pub fn par_update_items<"),
    ("crates/service/src/engine.rs", "pub fn with_shards"),
    ("crates/service/src/engine.rs", "pub const DEFAULT_SHARDS"),
    ("crates/service/src/lib.rs", "^pub use engine::"),
    ("crates/core/src/cluster.rs", "^pub struct WarmStart"),
    ("crates/core/src/cluster.rs", "^impl WarmStart"),
    ("crates/core/src/cluster.rs", "pub fn last_reused_rows("),
    ("crates/core/src/runner.rs", "pub fn warm_start("),
    ("crates/core/src/lib.rs", "^pub use cluster::WarmStart;"),
];

/// The binary that must not take a `--shards` flag.
const SCORED: &str = "crates/service/src/bin/scored.rs";

/// The crates whose run meters are single-thread cells.
const METERED_CRATES: [&str; 3] = [
    "crates/board/src",
    "crates/blocks/src",
    "crates/adversary/src",
];

/// Shared-state primitives a single-thread meter never needs.
const LOCKS: [&str; 4] = ["Atomic", "Mutex", "RwLock", "parking_lot"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root")
        .to_path_buf()
}

/// Every file under `dir`, recursively, skipping build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The rule's findings in one file, as `path: pattern` lines.
fn violations(path: &Path, text: &str) -> Vec<String> {
    let patterns: &[&str] = match path.extension().and_then(|e| e.to_str()) {
        Some("rs") => &FEATURE_CFGS,
        Some("toml") if path.ends_with("Cargo.toml") => &[FEATURES_TABLE],
        _ => &[],
    };
    patterns
        .iter()
        .filter(|p| text.contains(*p))
        .map(|p| format!("{}: {p}", path.display()))
        .collect()
}

/// `text` up to the line holding its first `#[cfg(test)]`.
fn above_tests(text: &str) -> &str {
    match text.find(CFG_TEST) {
        Some(at) => &text[..text[..at].rfind('\n').map_or(0, |nl| nl + 1)],
        None => text,
    }
}

/// Lines above the tests that contain any of `patterns`, as
/// `path:line: text`.
fn lines_naming(path: &Path, text: &str, patterns: &[&str]) -> Vec<String> {
    above_tests(text)
        .lines()
        .enumerate()
        .filter(|(_, line)| patterns.iter().any(|p| line.contains(p)))
        .map(|(at, line)| format!("{}:{}: {line}", path.display(), at + 1))
        .collect()
}

/// Every `.rs` file under `dirs`, as paths relative to the workspace
/// root with `/` separators, sorted.
fn crate_sources<S: AsRef<str>>(dirs: &[S]) -> Vec<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir.as_ref()), &mut files);
    }
    let mut sources: Vec<String> = files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .map(|f| {
            let rel = f.strip_prefix(&root).expect("under the root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    sources.sort();
    sources
}

/// Every crate's `src` directory, relative to the workspace root.
fn crate_src_dirs() -> Vec<String> {
    let root = workspace_root();
    let mut dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("src").is_dir())
        .map(|path| format!("crates/{}/src", path.file_name().unwrap().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs
}

/// The findings of `rule` over `files`, each read from the root.
fn scan(files: &[String], rule: fn(&str, &str) -> Vec<String>) -> Vec<String> {
    let root = workspace_root();
    files
        .iter()
        .flat_map(|rel| {
            let path = root.join(rel);
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            rule(rel, &text)
        })
        .collect()
}

/// Lines of `rel` above the tests that start a thread, comment lines
/// skipped, as `path:line: text`; none in a fork host.
fn forks(rel: &str, text: &str) -> Vec<String> {
    if FORK_HOSTS.iter().any(|host| rel.starts_with(host)) {
        return Vec::new();
    }
    above_tests(text)
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            !line.trim_start().starts_with("//") && FORKS.iter().any(|p| line.contains(p))
        })
        .map(|(at, line)| format!("{rel}:{}: {line}", at + 1))
        .collect()
}

/// Lines of `rel` above the tests that name a perf-only name outside its
/// definitions, plus any `"--shards"` in `scored`, as `path:line: text`.
fn perf_only_callers(rel: &str, text: &str) -> Vec<String> {
    let allowed = |line: &str| {
        PERF_ONLY_DEFINITIONS.iter().any(|&(file, fragment)| {
            file == rel
                && match fragment.strip_prefix('^') {
                    Some(start) => line.starts_with(start),
                    None => line.contains(fragment),
                }
        })
    };
    let mut found: Vec<String> = above_tests(text)
        .lines()
        .enumerate()
        .filter(|(_, line)| PERF_ONLY.iter().any(|p| line.contains(p)) && !allowed(line))
        .map(|(at, line)| format!("{rel}:{}: {line}", at + 1))
        .collect();
    if rel == SCORED {
        found.extend(
            text.lines()
                .enumerate()
                .filter(|(_, line)| line.contains("\"--shards\""))
                .map(|(at, line)| format!("{rel}:{}: {line}", at + 1)),
        );
    }
    found
}

/// Lines of `rel` above the tests that name an atomic or a lock, as
/// `path:line: text`; none in `board/src/par.rs`.
fn shared_meters(rel: &str, text: &str) -> Vec<String> {
    if rel == PAR {
        return Vec::new();
    }
    lines_naming(Path::new(rel), text, &LOCKS)
}

/// Lines of `rel` above the tests that name an adapter outside an
/// allowed definition, as `path:line: text`.
fn adapter_reads(rel: &str, text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut in_definition = false;
    for (at, line) in above_tests(text).lines().enumerate() {
        in_definition |= ADAPTER_DEFINITIONS
            .iter()
            .any(|&(file, start)| file == rel && line.starts_with(start));
        if !in_definition && ADAPTERS.iter().any(|p| line.contains(p)) {
            found.push(format!("{rel}:{}: {line}", at + 1));
        }
        in_definition &= line != "}";
    }
    found
}

/// The files the one-aged-world rule scans.
fn aging_files() -> Vec<String> {
    let mut files = crate_sources(&["crates/service/src"]);
    files.extend(AGING.map(String::from));
    files
}

/// Lines above the tests that read the truth source, as `path:line: text`.
fn truth_reads(path: &Path, text: &str) -> Vec<String> {
    lines_naming(path, text, &TRUTH_READS)
}

/// The protocol files the metered-truth rule covers.
fn metered_files() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut files = Vec::new();
    walk(&root.join("crates/blocks/src"), &mut files);
    files.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    files.extend(PIPELINE.map(|f| root.join(format!("crates/core/src/{f}.rs"))));
    files.sort();
    files
}

#[test]
fn one_build_configuration() {
    let root = workspace_root();
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["crates", "compat", "tests", "examples"] {
        walk(&root.join(dir), &mut files);
    }
    let scanned = files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .count();
    assert!(scanned > 50, "scanned only {scanned} sources");
    let found: Vec<String> = files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs" || e == "toml"))
        .flat_map(|f| {
            let text =
                fs::read_to_string(f).unwrap_or_else(|e| panic!("read {}: {e}", f.display()));
            violations(f, &text)
        })
        .collect();
    assert!(
        found.is_empty(),
        "the workspace must build one configuration:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scanner_catches_each_fork() {
    let src = Path::new("crates/x/src/lib.rs");
    for pattern in FEATURE_CFGS {
        let injected = format!("fn a() {{}}\n#[{pattern} = \"x\")]\nfn b() {{}}\n");
        assert_eq!(violations(src, &injected).len(), 1, "{pattern}");
    }
    assert!(violations(src, "#[cfg(test)]\nmod tests {}\n").is_empty());
    let manifest = Path::new("crates/x/Cargo.toml");
    let injected = format!("[package]\nname = \"x\"\n\n{FEATURES_TABLE}\nfast = []\n");
    assert_eq!(violations(manifest, &injected).len(), 1);
    assert!(violations(manifest, "[dependencies]\nrand = {}\n").is_empty());
}

#[test]
fn served_world_is_resident() {
    let files = aging_files();
    assert!(files.len() > 10, "scanned only {} sources", files.len());
    let found = scan(&files, adapter_reads);
    assert!(
        found.is_empty(),
        "served sessions and dynamic worlds read their resident pool, not the drift/remap \
         adapters (DESIGN.md §4.11, §4.13):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_resident_scan_catches_an_adapter_above_the_tests() {
    let rel = "crates/service/src/engine.rs";
    let text = fs::read_to_string(workspace_root().join(rel)).expect("read engine.rs");
    let cut = text.find(CFG_TEST).expect("engine.rs has unit tests");
    assert!(
        text[cut..].contains(ADAPTERS[2]),
        "the unit test below the cut names the composition"
    );
    for adapter in ADAPTERS {
        let line = format!("    let world = {adapter}(pool, drift, epoch, map);\n");
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = adapter_reads(rel, &above);
        assert_eq!(found.len(), 1, "{adapter}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        let below = format!("{text}{line}");
        assert!(adapter_reads(rel, &below).is_empty(), "{adapter}");
        // The definition allowance belongs to core's dynamic.rs alone.
        let defined = format!("pub fn compose_world(\n{line}}}\n");
        assert_eq!(adapter_reads(rel, &defined).len(), 2, "{adapter}");
        assert!(adapter_reads(DYNAMIC, &defined).is_empty(), "{adapter}");
    }
}

/// An adapter call inside `DynamicWorld::run` is caught, and so is one
/// just past the closing brace of `compose_world`'s own definition.
#[test]
fn the_resident_scan_catches_an_adapter_in_a_dynamic_world_round() {
    let text = fs::read_to_string(workspace_root().join(DYNAMIC)).expect("read dynamic.rs");
    assert!(adapter_reads(DYNAMIC, &text).is_empty());
    let run = text.find("    pub fn run(").expect("DynamicWorld::run");
    let in_run = run + text[run..].find('\n').expect("a signature line") + 1;
    let definition = text
        .find(ADAPTER_DEFINITIONS[0].1)
        .expect("compose_world is defined in dynamic.rs");
    let past_definition = definition + text[definition..].find("\n}\n").expect("its end") + 3;
    assert!(in_run < definition && past_definition < text.find(CFG_TEST).expect("unit tests"));
    for call in [
        "        let truth = compose_world(&self.pool, self.drift.as_ref(), round as u64, &map);\n",
        "        let truth = byzscore_board::RemappedTruth::new(stepped, map.to_vec());\n",
        "        let stepped = DriftingTruth::new(pool.clone(), schedule.clone()).at_epoch(1);\n",
    ] {
        for at in [in_run, past_definition] {
            let injected = format!("{}{call}{}", &text[..at], &text[at..]);
            let found = adapter_reads(DYNAMIC, &injected);
            assert_eq!(found.len(), 1, "{call:?} at byte {at}: {found:?}");
            assert!(found[0].ends_with(call.trim_end()), "{}", found[0]);
        }
    }
}

#[test]
fn protocol_code_reads_the_truth_only_through_probes() {
    let files = metered_files();
    assert!(
        files.len() > PIPELINE.len(),
        "scanned only {} sources",
        files.len()
    );
    let found: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let text =
                fs::read_to_string(f).unwrap_or_else(|e| panic!("read {}: {e}", f.display()));
            truth_reads(f, &text)
        })
        .collect();
    assert!(
        found.is_empty(),
        "protocol code reads the truth only through Oracle::probe (DESIGN.md §4.2):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_metered_scan_catches_a_truth_read_above_the_tests() {
    let path = workspace_root().join("crates/blocks/src/tournament.rs");
    let text = fs::read_to_string(&path).expect("read tournament.rs");
    let cut = text.find(CFG_TEST).expect("tournament.rs has unit tests");
    let reads = [
        "    let truth = ctx.oracle.truth().value(player, object);\n",
        "    let source: &dyn TruthSource = world;\n",
        "    let bit = source.value(player, object);\n",
    ];
    for line in reads {
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = truth_reads(&path, &above);
        assert_eq!(found.len(), 1, "{line:?}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        let below = format!("{text}{line}");
        assert!(truth_reads(&path, &below).is_empty(), "{line:?}");
    }
}

#[test]
fn one_fork_point() {
    let files = crate_sources(&crate_src_dirs());
    assert!(files.len() > 50, "scanned only {} sources", files.len());
    let found = scan(&files, forks);
    assert!(
        found.is_empty(),
        "compute forks only through board::par::par_map_coarse (DESIGN.md §4.10):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_fork_scan_catches_a_thread_above_the_tests() {
    let rel = "crates/core/src/runner.rs";
    let text = fs::read_to_string(workspace_root().join(rel)).expect("read runner.rs");
    let cut = text.find(CFG_TEST).expect("runner.rs has unit tests");
    for fork in FORKS {
        let line = format!("    let handle = std::{fork}(|| ());\n");
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = forks(rel, &above);
        assert_eq!(found.len(), 1, "{fork}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        let comment = format!(
            "{}    // {}{}",
            &text[..cut],
            line.trim_start(),
            &text[cut..]
        );
        assert!(forks(rel, &comment).is_empty(), "a comment line: {fork}");
        assert!(
            forks(rel, &format!("{text}{line}")).is_empty(),
            "below the tests"
        );
        assert!(forks(FORK_HOSTS[1], &above).is_empty(), "a fork host");
    }
}

#[test]
fn perf_only_names_stay_in_their_definitions() {
    let files = crate_sources(&crate_src_dirs());
    for (file, _) in PERF_ONLY_DEFINITIONS {
        assert!(files.iter().any(|f| f == file), "{file} is scanned");
    }
    let found = scan(&files, perf_only_callers);
    assert!(
        found.is_empty(),
        "these are ignored perf-only names and scored takes no --shards \
         (DESIGN.md §4.12, §4.13):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_perf_only_scan_catches_a_product_caller() {
    let rel = "crates/service/src/journal.rs";
    let text = fs::read_to_string(workspace_root().join(rel)).expect("read journal.rs");
    let cut = text.find(CFG_TEST).expect("journal.rs has unit tests");
    for name in PERF_ONLY {
        let line = format!("        let x = {name};\n");
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = perf_only_callers(rel, &above);
        assert_eq!(found.len(), 1, "{name}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        assert!(
            perf_only_callers(rel, &format!("{text}{line}")).is_empty(),
            "{name}"
        );
    }
    // A definition is allowed only in its own file.
    let definition = "    pub fn with_shards(_shards: usize) -> ServiceEngine {\n";
    let engine = "crates/service/src/engine.rs";
    assert!(perf_only_callers(engine, definition).is_empty());
    assert_eq!(perf_only_callers(rel, definition).len(), 1);
    // scored takes no --shards, in any line of the file.
    let flag = "        \"--shards\" => shards = value,\n";
    assert!(perf_only_callers(SCORED, "fn main() {}\n").is_empty());
    assert_eq!(
        perf_only_callers(SCORED, &format!("{CFG_TEST}\n{flag}")).len(),
        1
    );
}

#[test]
fn run_meters_are_single_thread() {
    let files = crate_sources(&METERED_CRATES);
    assert!(files.len() > 10, "scanned only {} sources", files.len());
    let found = scan(&files, shared_meters);
    assert!(
        found.is_empty(),
        "a run's meters are single-thread cells; only par_map_coarse forks (DESIGN.md §4.6):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_meter_scan_catches_a_lock_above_the_tests() {
    let rel = "crates/blocks/src/tournament.rs";
    let text = fs::read_to_string(workspace_root().join(rel)).expect("read tournament.rs");
    let cut = text.find(CFG_TEST).expect("tournament.rs has unit tests");
    for lock in LOCKS {
        let line = format!("use std::sync::{lock};\n");
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = shared_meters(rel, &above);
        assert_eq!(found.len(), 1, "{lock}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        assert!(
            shared_meters(rel, &format!("{text}{line}")).is_empty(),
            "{lock}"
        );
        assert!(shared_meters(PAR, &above).is_empty(), "par.rs is exempt");
    }
}
