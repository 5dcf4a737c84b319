//! `perf all --smoke`, untraced and traced, at 1/100 scale with seed 1:
//! every workload passes its checks, and every name `BENCHMARK.json`
//! declares is emitted by every workload — well-formed, once, with the
//! declared unit.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

/// The repository root: the benchmark resolves `perf/out` against it.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits in the repository root")
        .to_path_buf()
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    json::parse(&text)
        .unwrap()
        .get(section)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(traced: bool, out: &str, section: &str) {
    let out = root().join("perf/out").join(out);
    let mut command = Command::new(env!("CARGO_BIN_EXE_byzscore-perf"));
    command
        .current_dir(root())
        .args(["all", "--smoke", "--seed", "1", "--out"])
        .arg(&out);
    if traced {
        command.arg("--traced");
    }
    let output = command.output().expect("run the benchmark");
    assert!(
        output.status.success(),
        "perf all --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let document = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).unwrap();

    let expected = declared(section);
    let workloads = document.get("workloads").and_then(Value::as_obj).unwrap();
    assert_eq!(workloads.len(), 6);
    for (workload, result) in workloads {
        assert_eq!(
            result.get("correct").unwrap().to_line(),
            "[true]",
            "{workload}"
        );
        assert_eq!(result.get("failed").unwrap().to_line(), "[0]", "{workload}");
        let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let values = m.get("values").and_then(Value::as_arr).unwrap();
                assert!(
                    values.len() == 1 && values[0].as_f64().is_some_and(f64::is_finite),
                    "{workload} {name}: {values:?}"
                );
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(emitted, expected, "{workload}");
    }
}

#[test]
fn untraced_smoke_emits_every_end_to_end_metric() {
    smoke(false, "smoke-test.json", "end_to_end");
}

#[test]
fn traced_smoke_emits_every_per_layer_metric() {
    smoke(true, "smoke-test.traced.json", "per_layer");
}
