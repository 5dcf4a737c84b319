//! The layer ledger: every layer of the stack probed from outside through
//! its public API, at fixed shapes, on a traced run.
//!
//! A traced run of any workload runs the workload with harness spans on
//! (which yields the `perf.*` metrics and the span file) and then this
//! ledger. The ledger's numbers describe the *layers*, not the workload:
//! they are what a later change to one layer should move, and the README's
//! interaction table says which end-to-end metric on which workload should
//! follow. Where the product cannot be paused to bracket a layer (a live
//! `Server`), the layer's cost is a subtraction between the same ops driven
//! through successive layers.

mod durable;
mod engine;
mod figure2;
mod net;
mod substrate;
mod wire;

use std::time::Instant;

use crate::stats::{median, percentile, range_spread};
use crate::workloads::{Config, Report};
use crate::Metric;

/// Collects the ledger's metrics and the checks it makes along the way.
#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    /// One line per failed cross-check (the re-enactment did not
    /// reproduce the run, a recovery lost ops, …).
    pub problems: Vec<String>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: String::new(),
            value,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Repetitions behind every per-call cost: the median of these is kept.
const REPS: usize = 5;

/// Seconds `f` takes.
pub fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Nanoseconds per call of `f(i)`: `iters` calls timed together, repeated
/// [`REPS`] times, median kept.
pub fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// A fixed integer spin: the same instructions on every run of every
/// commit, so its wall time is the host's speed at that moment.
pub fn host_spin_ms() -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..4_000_000u64 {
                x = std::hint::black_box(x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The `perf.*` metrics: they qualify every other number of the run.
pub fn workload_metrics(report: &Report) -> Vec<Metric> {
    let mut ledger = Ledger::default();
    ledger.put(
        "perf.trace_overhead",
        report.trace_overhead.unwrap_or(f64::NAN),
    );
    ledger.put("perf.segment_spread", range_spread(&report.phase.segments));
    ledger.put(
        "perf.latency_ms_p90",
        percentile(&report.phase.latencies_ms, 0.9),
    );
    // Read before the ledger runs: the workload's own high-water mark.
    ledger.put("perf.peak_rss_mb", crate::proc::peak_rss_mb());
    ledger.put(
        "perf.timer_ns",
        ns_per_call(100_000, |_| {
            std::hint::black_box(Instant::now().elapsed());
        }),
    );
    ledger.put("perf.host_spin_ms", host_spin_ms());
    ledger.metrics
}

/// Probe every layer.
pub fn ledger(cfg: &Config) -> Ledger {
    let mut ledger = Ledger::default();
    substrate::probe(cfg, &mut ledger);
    figure2::probe(cfg, &mut ledger);
    engine::probe(cfg, &mut ledger);
    wire::probe(cfg, &mut ledger);
    net::probe(cfg, &mut ledger);
    durable::probe(cfg, &mut ledger);
    ledger
}
