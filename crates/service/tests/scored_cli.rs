//! `scored` at the binary: the committed trace replays to its pinned
//! digest, the stdin front-end answers a malformed line typed and keeps
//! going, every build accepts `serve --fault`, and the stdin transport
//! refuses the slots only the socket fires.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Run `scored ARGS` from the workspace root with `input` on stdin.
fn scored(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scored"))
        .args(args)
        .current_dir(workspace_root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scored");
    // A rejected plan exits before reading; a closed pipe is expected then.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    child.wait_with_output().expect("wait for scored")
}

/// Run `scored serve --fault SPEC` on stdin fed `input`.
fn serve_stdin(spec: &str, input: &str) -> Output {
    scored(&["serve", "--fault", spec], input)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `out`'s stdout, after asserting that the process exited 0.
fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The committed trace replays through `scored replay` to the digest
/// `traces/DIGESTS` pins for it: the compatibility fence for the trace
/// format and the service's answer semantics at the CLI.
#[test]
fn committed_trace_replays_to_its_pinned_digest() {
    let pins = std::fs::read_to_string(workspace_root().join("traces/DIGESTS"))
        .expect("read traces/DIGESTS");
    let pin = pins
        .lines()
        .find_map(|line| line.strip_prefix("service_quick.trace "))
        .expect("service_quick.trace is pinned in traces/DIGESTS")
        .trim();
    let stdout = stdout_of(&scored(&["replay", "traces/service_quick.trace"], ""));
    assert!(
        stdout.lines().any(|line| line == format!("digest {pin}")),
        "expected digest {pin} (traces/DIGESTS):\n{stdout}"
    );
}

/// A line that is not an op answers a typed `Malformed` rejection and
/// the lines around it are served: three lines in, three answers out.
#[test]
fn stdin_serve_answers_a_malformed_line_typed() {
    let out = scored(
        &["serve"],
        "open 16 32 2 2 5 naive 3 1 1000 7\nnot an op line\nclose 0\n",
    );
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("Opened"), "{stdout}");
    assert!(lines[1].contains("Malformed"), "{stdout}");
    assert!(lines[2].contains("Closed"), "{stdout}");
}

#[test]
fn stdin_serve_rejects_socket_only_fault_slots_by_name() {
    for (spec, slot) in [
        ("stall@3:600", "stall@3:600"),
        ("panic-worker@1,drop-conn@2", "drop-conn@2"),
    ] {
        let out = serve_stdin(spec, "close 0\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains(slot), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec} served ops");
    }
}

#[test]
fn stdin_serve_fires_a_pipeline_fault() {
    let out = serve_stdin(
        "panic-worker@1",
        "open 24 48 3 3 11 naive 4 1 2000 13\nprobe 0 3 1,2,9\nclose 0\n",
    );
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[1].contains("Retryable"), "{stdout}");
    assert!(!lines[2].contains("Retryable"), "{stdout}");
}
