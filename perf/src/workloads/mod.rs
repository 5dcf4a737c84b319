//! The six workloads and the loop that runs one of them.
//!
//! A workload is three pieces the runner times separately: `setup`
//! (everything before the first timed phase, warm-up included), `measure`
//! (closed-loop timed phases that fill a wall-clock budget with equal
//! segments) and `verify` (untimed: the answers checked against an
//! independent execution of the same generated inputs).

pub mod batch;
pub mod serve;
pub mod socket;

use std::time::Instant;

use crate::json::{int, num, obj, Value};
use crate::spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them (a test holds
/// the two lists together; why each exists is written there and in the
/// README).
pub const WORKLOADS: [&str; 6] = [
    "batch_paper",
    "batch_scale",
    "serve_read",
    "serve_churn",
    "socket_read",
    "socket_durable",
];

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Offsets every generator seed.
    pub seed: u64,
    /// Wall-clock budget of the timed phases.
    pub seconds: f64,
    /// 1/100-scale inputs for the harness's own smoke test.
    pub smoke: bool,
}

/// One timed phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Throughput of each equal segment, work units per second.
    pub segments: Vec<f64>,
    /// One sample per request of the workload's latency unit, ms.
    pub latencies_ms: Vec<f64>,
    /// Work units attempted.
    pub attempted: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.segments.extend(other.segments);
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
    }
}

/// What `verify` found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Work units whose answers were wrong (every op of a failed check).
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Counts that repeat exactly for a given seed (`err_max`, …).
    pub exact: Vec<(&'static str, u64)>,
    /// Workload facts for the output header (op counts actually used, …).
    pub facts: Vec<(&'static str, Value)>,
}

/// The three timed pieces of a workload.
pub trait Workload: Sized {
    /// Everything before the first timed phase: input generation,
    /// construction, opens, warm-up.
    fn setup(cfg: &Config) -> Self;
    /// Fill `seconds` of wall clock with equal segments. May be called
    /// more than once; a later call continues where the earlier stopped.
    fn measure(&mut self, tracer: &mut Tracer, seconds: f64) -> Phase;
    /// Untimed: check every answer digest and invariant.
    fn verify(&mut self) -> Verdict;
    /// Stop threads and remove files. Called on every instance.
    fn teardown(self) {}
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Report {
    pub setups_s: Vec<f64>,
    pub phase: Phase,
    /// Median segment throughput with tracing off ÷ with tracing on
    /// (traced runs only).
    pub trace_overhead: Option<f64>,
    pub verdict: Verdict,
}

/// Set-ups of an untraced run: at least [`MIN_SETUPS`], then more until
/// they have taken [`SETUP_BUDGET_S`] together or there are
/// [`MAX_SETUPS`]. `setup_s` is their median: one set-up is one sample of
/// a sub-second quantity on a noisy host, and the cheaper a set-up is the
/// more samples its median needs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;

/// Alternating tracer-off / tracer-on slices of a traced run's budget.
/// Interleaving puts both halves of the overhead ratio under the same
/// host conditions; a before/after split measured the host's drift.
const TRACE_SLICES: usize = 8;

/// Run workload `W`. Untraced: repeated set-ups (the last one kept), one
/// timed phase of `cfg.seconds`. Traced: one set-up, then the budget in
/// [`TRACE_SLICES`] slices with the tracer alternately off and on, so the
/// run carries its own tracing overhead.
pub fn run<W: Workload>(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut setups_s = Vec::new();
    let mut kept: Option<W> = None;
    loop {
        if let Some(previous) = kept.take() {
            previous.teardown();
        }
        let start = Instant::now();
        kept = Some(W::setup(cfg));
        setups_s.push(start.elapsed().as_secs_f64());
        let enough = setups_s.len() >= MAX_SETUPS
            || (setups_s.len() >= MIN_SETUPS && setups_s.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if tracer.enabled() || enough {
            break;
        }
    }
    let mut workload = kept.expect("at least one set-up");

    let (phase, trace_overhead) = if tracer.enabled() {
        let mut off = Tracer::new(false);
        let (mut untraced, mut traced) = (Phase::default(), Phase::default());
        let slice = cfg.seconds / TRACE_SLICES as f64;
        for i in 0..TRACE_SLICES {
            if i % 2 == 0 {
                untraced.absorb(workload.measure(&mut off, slice));
            } else {
                traced.absorb(workload.measure(tracer, slice));
            }
        }
        let overhead =
            crate::stats::median(&untraced.segments) / crate::stats::median(&traced.segments);
        untraced.absorb(traced);
        (untraced, Some(overhead))
    } else {
        (workload.measure(tracer, cfg.seconds), None)
    };
    let verdict = workload.verify();
    workload.teardown();
    Report {
        setups_s,
        phase,
        trace_overhead,
        verdict,
    }
}

/// Run the workload called `name`.
pub fn run_named(name: &str, cfg: &Config, tracer: &mut Tracer) -> Option<Report> {
    Some(match name {
        "batch_paper" => run::<batch::Paper>(cfg, tracer),
        "batch_scale" => run::<batch::Scale>(cfg, tracer),
        "serve_read" => run::<serve::Read>(cfg, tracer),
        "serve_churn" => run::<serve::Churn>(cfg, tracer),
        "socket_read" => run::<socket::Read>(cfg, tracer),
        "socket_durable" => run::<socket::Durable>(cfg, tracer),
        _ => return None,
    })
}

/// The samples behind a run's medians and percentiles: how many there
/// were, every set-up time and every segment's throughput.
pub fn samples(report: &Report) -> Value {
    let list = |values: &[f64]| Value::Arr(values.iter().copied().map(num).collect());
    obj([
        ("setups", int(report.setups_s.len() as u64)),
        ("segments", int(report.phase.segments.len() as u64)),
        ("latencies", int(report.phase.latencies_ms.len() as u64)),
        ("setups_s", list(&report.setups_s)),
        ("segments_ops_per_s", list(&report.phase.segments)),
    ])
}
