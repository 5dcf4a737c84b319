//! Workspace-wide design rules that `cargo test` enforces.
//!
//! One build configuration: no root-workspace manifest (root, `crates/*`,
//! `compat/*`, `tests`, `examples`) declares a `[features]` table and no
//! source under those directories forks on a cargo feature, so the tier-1
//! build, a `-p` build of one crate and the out-of-workspace `perf/`
//! benchmark (outside this rule) compile the same program. The scan is
//! plain `str::contains` over every file: comments and tests count too.
//!
//! Served world is resident (DESIGN.md §4.13): a served session folds its
//! drifted pool once per `AdvanceEpoch`, gathers each barrier's world from
//! those bits, and checkpoint restore re-scores on the same world. A read
//! routed back through the drift/remap adapters answers identically, so
//! no answer test would fail; only the benchmark would notice. So no line
//! of `crates/service/src` above a file's first `#[cfg(test)]` names
//! them; below it, a unit test pins the resident world to the adapter
//! composition.
//!
//! Metered truth (DESIGN.md §4.2): a probe is how a player learns its own
//! bit, and the ledger charges it there. A read of the truth source from
//! the building blocks or the Figure 2 pipeline (say, to "batch" a
//! `Select` round) would stop charging probes without failing any test.
//! So no line of `crates/blocks/src` or of the pipeline files in
//! `crates/core/src` above its first `#[cfg(test)]` names the truth
//! source; tests may read the truth to check results.

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

/// The drift/remap adapters a served session must not read through.
const ADAPTERS: [&str; 3] = ["DriftingTruth", "RemappedTruth", "byzscore::compose_world"];

/// Reads of the truth source that bypass `Oracle::probe`.
const TRUTH_READS: [&str; 3] = [".truth()", "TruthSource", ".value("];

/// The Figure 2 pipeline files of `crates/core/src` that must probe.
const PIPELINE: [&str; 5] = ["protocol", "share", "fused", "robust", "baseline"];

/// Where a source file's unit tests begin.
const CFG_TEST: &str = "#[cfg(test)]";

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

/// Lines above the tests that name an adapter, as `path:line: text`.
fn adapter_reads(path: &Path, text: &str) -> Vec<String> {
    lines_naming(path, text, &ADAPTERS)
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
    let mut files = Vec::new();
    walk(&workspace_root().join("crates/service/src"), &mut files);
    files.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    assert!(files.len() > 10, "scanned only {} sources", files.len());
    let found: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let text =
                fs::read_to_string(f).unwrap_or_else(|e| panic!("read {}: {e}", f.display()));
            adapter_reads(f, &text)
        })
        .collect();
    assert!(
        found.is_empty(),
        "served sessions read their resident world, not the drift/remap adapters \
         (DESIGN.md §4.13):\n{}",
        found.join("\n")
    );
}

#[test]
fn the_resident_scan_catches_an_adapter_above_the_tests() {
    let path = workspace_root().join("crates/service/src/engine.rs");
    let text = fs::read_to_string(&path).expect("read engine.rs");
    let cut = text.find(CFG_TEST).expect("engine.rs has unit tests");
    assert!(
        text[cut..].contains(ADAPTERS[2]),
        "the unit test below the cut names the composition"
    );
    for adapter in ADAPTERS {
        let line = format!("    let world = {adapter}(pool, drift, epoch, map);\n");
        let above = format!("{}{line}{}", &text[..cut], &text[cut..]);
        let found = adapter_reads(&path, &above);
        assert_eq!(found.len(), 1, "{adapter}: {found:?}");
        assert!(found[0].ends_with(line.trim_end()), "{}", found[0]);
        let below = format!("{text}{line}");
        assert!(adapter_reads(&path, &below).is_empty(), "{adapter}");
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
