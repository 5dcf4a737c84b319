//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are written down. The harness checks what it
//! emits against it, and `compare` takes its bounds from it.

use crate::json::{parse, Value};

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract file.
#[derive(Clone, Debug)]
pub struct Benchmark {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Value, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            better: match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            },
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Parse the compiled-in `BENCHMARK.json`.
pub fn benchmark() -> Benchmark {
    let doc = parse(TEXT).expect("BENCHMARK.json is valid JSON");
    Benchmark {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(10.0),
        workloads: doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
            .collect(),
        end_to_end: metric_specs(&doc, "end_to_end"),
        per_layer: metric_specs(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn is_name(text: &str) -> bool {
        !text.is_empty()
            && text.len() <= 64
            && text.starts_with(|c: char| c.is_ascii_alphanumeric())
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(text: &str) -> bool {
        !text.is_empty()
            && text.len() <= 16
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the contract puts on `BENCHMARK.json`, checked here so a
    /// bad edit fails `cargo test` instead of being refused by the driver.
    #[test]
    fn benchmark_json_is_inside_the_contracts_limits() {
        assert!(TEXT.len() <= 64 * 1024);
        let doc = parse(TEXT).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .all(|c| c.as_str().is_some_and(|c| c.len() <= 200)));
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("perf"));

        let benchmark = benchmark();
        assert!((1.0..=60.0).contains(&benchmark.run_seconds));
        assert_eq!(benchmark.run_seconds.fract(), 0.0);
        assert_eq!(benchmark.workloads, WORKLOADS);
        for workload in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = workload.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((1..=16).contains(&benchmark.end_to_end.len()));
        assert!((1..=128).contains(&benchmark.per_layer.len()));

        let mut names: Vec<&str> = benchmark
            .workloads
            .iter()
            .map(String::as_str)
            .chain(benchmark.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(benchmark.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| is_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for metric in benchmark.end_to_end.iter().chain(&benchmark.per_layer) {
            assert!(
                is_unit(&metric.unit),
                "{} has unit {:?}",
                metric.name,
                metric.unit
            );
        }
        for metric in &benchmark.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(
                (0.0..=0.25).contains(&bound),
                "{} bound {bound}",
                metric.name
            );
        }
        assert!(benchmark.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = benchmark
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = benchmark
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }
}
