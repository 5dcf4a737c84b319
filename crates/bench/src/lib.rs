//! Experiment harness for the byzscore reproduction.
//!
//! The paper is a theory paper: its "evaluation" is a set of quantitative
//! claims (theorems, lemmas, the Claim-2 lower bound, and the §1 comparison
//! with prior art). Each claim has one experiment here — declared once in
//! the [`registry`] (see DESIGN.md §5 for the index) and driven by the
//! unified [`cli`] engine:
//!
//! ```text
//! cargo run -p byzscore-bench --release --bin run_all -- --list
//! cargo run -p byzscore-bench --release --bin run_all -- --only e07,e09
//! ```
//!
//! Experiment runners are plain functions `fn(Scale) -> Vec<Table>`; they
//! never print. The engine renders markdown to stdout and, with `--json`,
//! serializes the same tables into `BENCH_*.json` artifacts so runs are
//! diffable across commits. Every cell is a pure function of the seeds —
//! counts, errors, digests — so every cell gates; wall-clock lives in the
//! `perf/` benchmark, not here.
//!
//! Scale: experiments default to a quick preset that finishes in seconds to
//! a few minutes each; `--scale full` (or `BYZ_FULL=1`) selects the larger
//! sweeps recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod registry;
pub mod stats;
pub mod table;

/// Experiment scale, selected by `--scale` or the `BYZ_FULL` environment
/// variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds-scale smoke sizes.
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Read the scale from the environment (`BYZ_FULL=1` ⇒ `Full`).
    pub fn from_env() -> Scale {
        if std::env::var("BYZ_FULL").map(|v| v == "1").unwrap_or(false) {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Pick `q` under Quick and `f` under Full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}
