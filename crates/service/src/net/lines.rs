//! The line transport behind stdin `scored serve`.

use std::io::{self, BufRead, Write};

use crate::journal::JournaledEngine;
use crate::request::{Response, ServiceError};
use crate::workload::parse_op;

/// Answer each op line of `input` through `pipeline`, in order, with one
/// `{digest:016x} {response:?}` line on `output`. An op's `seq` is its
/// 0-based line index; blank and `#` lines are skipped, and a line that
/// does not parse answers a typed `Malformed`. Stops reading with an
/// error when a journal append fails or the pipeline halts; an input
/// read error ends the loop like EOF.
pub fn serve_lines(
    pipeline: &mut JournaledEngine,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    for (index, line) in input.lines().enumerate() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let resp = match parse_op(trimmed) {
            Ok(op) => pipeline
                .submit(index as u64, &op)
                .map_err(|e| io::Error::new(e.kind(), format!("journal append failed: {e}")))?,
            Err(message) => Response::Rejected(ServiceError::Malformed { message }),
        };
        writeln!(output, "{:016x} {resp:?}", resp.digest())?;
        if pipeline.halted() {
            return Err(io::Error::other(
                "the pipeline halted after a failed rebuild; restart with --recover",
            ));
        }
    }
    Ok(())
}
