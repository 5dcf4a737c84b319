//! `perf compare A.json B.json`: apply the benchmark's bounds to two
//! result files written by `perf all`.
//!
//! Per workload × end-to-end metric it prints both medians, the ratio
//! B ÷ A with its base, the bound, A's run-to-run spread when the files
//! hold enough runs to have one, and a verdict:
//!
//! * `ok` — B is no worse than A by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — A's own runs spread wider than the bound, so the
//!   comparison cannot tell (unless every run of B beats every run of A).
//!
//! Exact counts (`err_max`, `probes_max`, failed operations) must be
//! identical run for run. Exit status is non-zero on any `worse` or any
//! exact difference.

use std::path::Path;

use crate::json::{parse, Value};
use crate::spec::{benchmark, Better, MetricSpec};
use crate::stats::{iqr_spread, median};

/// The value at `path` inside `doc` (`Null` when any step is missing).
fn at(doc: &Value, path: &[&str]) -> Value {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .cloned()
        .unwrap_or(Value::Null)
}

/// Fold the result documents of one workload's runs into one object with
/// a value list per metric.
pub fn merge_runs(documents: &[Value]) -> Value {
    let column =
        |path: &[&str]| Value::Arr(documents.iter().map(|d| at(d, path)).collect::<Vec<_>>());
    let last = documents.last().cloned().unwrap_or(Value::Null);
    let names = |section: &str| -> Vec<String> {
        at(&last, &[section])
            .as_obj()
            .unwrap_or_default()
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    };
    let metrics = names("metrics")
        .into_iter()
        .map(|name| {
            let merged = Value::Obj(vec![
                ("unit".into(), at(&last, &["metrics", &name, "unit"])),
                ("values".into(), column(&["metrics", &name, "value"])),
            ]);
            (name, merged)
        })
        .collect();
    let exact = names("exact")
        .into_iter()
        .map(|name| {
            let values = column(&["exact", &name]);
            (name, values)
        })
        .collect();
    Value::Obj(vec![
        ("seeds".into(), column(&["header", "seed"])),
        ("correct".into(), column(&["correct"])),
        ("attempted".into(), column(&["attempted"])),
        ("failed".into(), column(&["failed"])),
        ("peak_rss_mb".into(), column(&["peak_rss_mb"])),
        ("metrics".into(), Value::Obj(metrics)),
        ("exact".into(), Value::Obj(exact)),
        ("facts".into(), at(&last, &["facts"])),
        ("samples".into(), at(&last, &["samples"])),
    ])
}

/// What the bound says about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Worse,
    Unresolved,
}

/// Judge B's runs against A's under `spec`'s direction and bound.
/// Returns the status, B's worsening as a share of A's median, and A's
/// spread (when A has the four runs quartiles need).
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Status, f64, Option<f64>) {
    let (base, other) = (median(a), median(b));
    let worsening = match spec.better {
        Better::Lower => (other - base) / base,
        Better::Higher => (base - other) / base,
    };
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let spread = (a.len() >= 4).then(|| iqr_spread(a));
    let every_run_better = a.iter().all(|&x| {
        b.iter().all(|&y| match spec.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let status = if spread.is_some_and(|s| s > bound) && !every_run_better {
        Status::Unresolved
    } else if worsening > bound {
        Status::Worse
    } else {
        Status::Ok
    };
    (status, worsening, spread)
}

fn numbers(value: Option<&Value>) -> Vec<f64> {
    value
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two `perf all` result files; `Ok(false)` means a regression
/// or an exact difference was found.
pub fn run(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let benchmark = benchmark();
    let mut clean = true;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9} {:>6} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spreadA"
    );
    for name in &benchmark.workloads {
        let of = |doc: &Value| doc.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(wa), Some(wb)) = (of(&a), of(&b)) else {
            println!("{name:<15} missing from one file");
            clean = false;
            continue;
        };
        let values = |w: &Value, metric: &str| {
            numbers(
                w.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("values")),
            )
        };
        for spec in benchmark.end_to_end.iter().chain(&benchmark.per_layer) {
            let (va, vb) = (values(&wa, &spec.name), values(&wb, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue; // traced and untraced files hold different sets
            }
            let (status, _, spread) = judge(spec, &va, &vb);
            let verdict = match (spec.bound, status) {
                (None, _) => "-",
                (_, Status::Ok) => "ok",
                (_, Status::Unresolved) => "unresolved",
                (_, Status::Worse) => {
                    clean = false;
                    "worse"
                }
            };
            println!(
                "{:<15} {:<16} {:>14.6} {:>14.6} {:>9.4} {:>6} {:>8}  {verdict}",
                name,
                spec.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spec.bound.map_or("-".to_string(), |x| format!("{x}")),
                spread.map_or("-".to_string(), |x| format!("{x:.3}")),
            );
        }
        // Exact counts and failures: identical run for run.
        let mut exact_pairs = vec![("failed".to_string(), wa.get("failed"), wb.get("failed"))];
        for (key, list) in wa.get("exact").and_then(Value::as_obj).unwrap_or_default() {
            exact_pairs.push((
                key.clone(),
                Some(list),
                wb.get("exact").and_then(|e| e.get(key)),
            ));
        }
        for (key, left, right) in exact_pairs {
            let same = left == right;
            let failures = key == "failed" && numbers(left).iter().any(|&x| x != 0.0);
            clean &= same && !failures;
            println!(
                "{:<15} {:<16} {:>14} {:>14} {:>9} {:>6} {:>8}  {}",
                name,
                key,
                left.map_or("-".into(), Value::to_line),
                right.map_or("-".into(), Value::to_line),
                "-",
                "exact",
                "-",
                if failures {
                    "failed"
                } else if same {
                    "ok"
                } else {
                    "differs"
                }
            );
        }
    }
    println!(
        "# ratios are B ÷ A with A ({}) as the base",
        path_a.display()
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_is_a_share_of_the_parents_median_in_the_worse_direction() {
        let lower = spec(Better::Lower, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).0, Status::Ok);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Status::Worse);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Status::Ok);
        let higher = spec(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[91.0]).0, Status::Ok);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).0, Status::Worse);
        assert_eq!(judge(&higher, &[100.0], &[200.0]).0, Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let lower = spec(Better::Lower, 0.10);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let (status, _, spread) = judge(&lower, &noisy, &[100.0; 5]);
        assert_eq!(status, Status::Unresolved);
        assert!(spread.unwrap() > 0.10);
        // Every run of B below every run of A: resolved in B's favour.
        assert_eq!(judge(&lower, &noisy, &[70.0; 5]).0, Status::Ok);
        // Three runs carry no quartiles: the bound alone decides.
        assert_eq!(judge(&lower, &noisy[..3], &[120.0; 3]).0, Status::Worse);
    }

    #[test]
    fn merge_collects_one_value_list_per_metric() {
        let run = |seed: f64, value: f64| {
            parse(&format!(
                r#"{{"header": {{"seed": {seed}}}, "correct": true, "attempted": 10, "failed": 0,
                    "metrics": {{"ops_per_s": {{"value": {value}, "unit": "ops/s"}}}},
                    "exact": {{"err_max": 8}}, "facts": {{"runs": 3}}, "samples": {{}}}}"#
            ))
            .unwrap()
        };
        let merged = merge_runs(&[run(1.0, 100.0), run(2.0, 110.0)]);
        let metric = merged.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ops/s"));
        assert_eq!(numbers(metric.get("values")), vec![100.0, 110.0]);
        assert_eq!(numbers(merged.get("seeds")), vec![1.0, 2.0]);
        assert_eq!(
            numbers(merged.get("exact").unwrap().get("err_max")),
            vec![8.0, 8.0]
        );
    }
}
