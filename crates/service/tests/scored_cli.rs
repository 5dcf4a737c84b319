//! `scored serve --fault` at the binary: every build accepts the flag,
//! and the stdin transport refuses the slots only the socket fires.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Run `scored serve --fault SPEC` on stdin fed `input`.
fn serve_stdin(spec: &str, input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scored"))
        .args(["serve", "--fault", spec])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scored");
    // A rejected plan exits before reading; a closed pipe is expected then.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    child.wait_with_output().expect("wait for scored")
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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[1].contains("Retryable"), "{stdout}");
    assert!(!lines[2].contains("Retryable"), "{stdout}");
}
