//! Workspace-wide design rules that `cargo test` enforces.
//!
//! One build configuration: no root-workspace manifest (root, `crates/*`,
//! `compat/*`, `tests`, `examples`) declares a `[features]` table and no
//! source under those directories forks on a cargo feature, so the tier-1
//! build, a `-p` build of one crate and the out-of-workspace `perf/`
//! benchmark (outside this rule) compile the same program. The scan is
//! plain `str::contains` over every file: comments and tests count too.

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
