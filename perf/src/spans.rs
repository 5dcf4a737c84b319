//! Harness-side spans: one record per call into a layer's public API.
//!
//! Spans are recorded only on a traced run, kept in memory, and written to
//! `perf/out/<workload>.spans.json` when the run ends. The harness is the
//! only recorder and it calls into the product from one thread, so the
//! open spans form a stack and a new span's parent is the innermost open
//! one. Spans inside the product are a later change; a layer the harness
//! cannot bracket (a live `Server`) is costed by subtraction instead.

use std::time::Instant;

use crate::json::{int, obj, s, Value};

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Request or run id shared by the spans of one unit of work.
    pub id: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. A disabled tracer (the untraced run) does nothing
/// beyond one branch per call, which is what `perf.trace_overhead`
/// compares against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, seconds, in first-seen order.
    pub fn self_seconds_by_name(&self) -> Vec<(&'static str, f64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += self_ns as f64 / 1e9;
                    entry.2 += 1;
                }
                None => out.push((span.name, self_ns as f64 / 1e9, 1)),
            }
        }
        out
    }

    /// The span file: every span with its self time, plus per-name totals.
    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(span, self_ns)| {
                obj([
                    ("name", s(span.name)),
                    ("start_ns", int(span.start_ns)),
                    ("end_ns", int(span.end_ns)),
                    ("parent", span.parent.map_or(Value::Null, |p| int(p as u64))),
                    ("workload", s(workload)),
                    ("id", int(span.id)),
                    ("self_ns", int(*self_ns)),
                ])
            })
            .collect();
        let totals = self
            .self_seconds_by_name()
            .into_iter()
            .map(|(name, secs, count)| {
                (
                    name.to_string(),
                    obj([("self_s", Value::Num(secs)), ("count", int(count))]),
                )
            })
            .collect();
        obj([
            ("workload", s(workload)),
            ("self_by_name", Value::Obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children (two connections of one replay, say) are counted
/// once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let start = span.start_ns.clamp(lo, hi);
            let end = span.end_ns.clamp(lo, hi);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(union)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,70)
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        // root: 100 − (30 + 20); a: 30 − 10; grandchild b does not count
        // against root twice.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two connections of one replay overlap on [30,60).
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(10, 50, None),
            span(0, 20, Some(0)),
            span(40, 80, Some(0)),
            span(60, 70, Some(0)),
        ];
        // [10,20) and [40,50) are covered; the child wholly outside is not.
        assert_eq!(self_times(&spans)[0], 40 - 20);
    }

    #[test]
    fn tracer_nests_by_call_order_and_a_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        let outer = on.enter("outer", 7);
        on.span("inner", 7, || ());
        on.exit(outer);
        on.span("sibling", 8, || ());
        let parents: Vec<_> = on.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let names: Vec<_> = on.self_seconds_by_name().iter().map(|e| e.0).collect();
        assert_eq!(names, vec!["outer", "inner", "sibling"]);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
