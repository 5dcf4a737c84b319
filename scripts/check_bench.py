#!/usr/bin/env python3
"""Compare a byzscore-bench JSON artifact against the committed baseline.

Usage:
  check_bench.py BASELINE.json CURRENT.json [--tol COLUMN=REL ...] [--timing-report]
  check_bench.py --timing-summary ARTIFACT.json
  check_bench.py --self-test

Every experiment run is a pure function of its seeds (the determinism test
suite enforces bit-identity across thread counts), so probe counts and
error statistics must match the baseline *exactly* up to float formatting.
Timing columns (headers containing "elapsed", "ms", or "seconds") are
skipped, as are explicitly report-only columns (REPORT_ONLY_MARKERS —
throughput rates like e17's "reqs/sec" are wall-clock in disguise) and
table notes (they embed derived slopes already covered by the numeric
cells). Any other cell drift fails the check loudly — that is
the point: accuracy or probe-complexity regressions must not land
silently (ROADMAP "perf baseline tracking").

Per-column tolerances: numeric columns default to REL_TOL (float-formatting
slack only). A column can be given a wider relative tolerance either in
COLUMN_TOLERANCES below (matched as a case-insensitive substring of the
header) or on the command line with --tol 'mean err=0.05'. On failure the
mismatching tables are also rendered as a unified diff so the drift is
readable at a glance.

--timing-report additionally prints a per-experiment wall-clock comparison
(baseline `seconds` vs current, with the ratio) and flags experiments that
moved beyond a generous tolerance (TIMING_FLAG_RATIO). It is report-only:
timing never gates — wall-clock is host- and contention-dependent — but
the committed BENCH_*.json artifacts carry `seconds`, so the report turns
them into a perf trajectory across commits.

--timing-summary prints the per-experiment `seconds` of a SINGLE artifact
(no baseline needed): the weekly full-scale CI run has no committed
full-scale baseline to diff against, so its trajectory is the sequence of
these summaries across retained artifacts.

An experiment present in the baseline but absent from the current
artifact fails the check even when it contributed no tables — a silently
dropped registry entry must not pass the gate.
"""

import difflib
import json
import sys

# Numeric cells are compared with a tiny relative tolerance by default:
# values are deterministic, but libm `ln` may differ in the last ulp across
# hosts and the cells carry only 2-3 formatted decimals anyway.
REL_TOL = 1e-6

# Built-in per-column relative tolerances, matched as case-insensitive
# substrings of the column header (first match wins, checked in order).
# Deterministic columns deliberately get none — add entries here (or pass
# --tol) only for columns that are genuinely host-dependent.
#
# "peak candidate bytes" (e13) is the summed per-player peak residency of
# the streaming RSelect tournaments — a pure function of the seeds, pinned
# bit-identical across thread counts by tests/determinism.rs — so it gates
# EXACTLY (0.0 tolerance, listed explicitly so nobody mistakes a memory
# column for a host-dependent one and widens it).
COLUMN_TOLERANCES: list[tuple[str, float]] = [
    ("peak candidate bytes", 0.0),
]

TIMING_MARKERS = ("elapsed", " ms", "seconds")

# Columns that are machine-dependent without being timing-named: derived
# rates whose numerator is deterministic but whose denominator is
# wall-clock (e17's request throughput). Matched as case-insensitive
# substrings of the header, like TIMING_MARKERS.
REPORT_ONLY_MARKERS = ("reqs/sec",)

# --timing-report flags experiments whose wall-clock moved by more than
# this factor in either direction. Deliberately generous: it is a
# trajectory report, not a gate.
TIMING_FLAG_RATIO = 1.5

# Below this many seconds on both sides an experiment is scheduling noise:
# its ratio is printed but never flagged (and a zero baseline cannot
# produce an inf ratio that flags forever).
TIMING_NOISE_FLOOR_S = 0.1


def is_timing(header: str) -> bool:
    h = header.lower()
    return h == "ms" or any(marker in h for marker in TIMING_MARKERS)


def is_report_only(header: str) -> bool:
    h = header.lower()
    return any(marker in h for marker in REPORT_ONLY_MARKERS)


def tolerance_for(header: str, overrides) -> float:
    h = header.lower()
    for pattern, tol in overrides:
        if pattern in h:
            return tol
    for pattern, tol in COLUMN_TOLERANCES:
        if pattern in h:
            return tol
    return REL_TOL


def cells_match(a: str, b: str, rel_tol: float) -> bool:
    if a == b:
        return True
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return False
    return abs(fa - fb) <= rel_tol * max(1.0, abs(fa), abs(fb))


def index_tables(doc):
    out = {}
    for exp in doc["experiments"]:
        for table in exp["tables"]:
            out[(exp["id"], table["title"])] = table
    return out


def render_rows(table):
    """Rows as aligned text lines (for the unified diff)."""
    lines = [" | ".join(table["headers"])]
    for row in table["rows"]:
        lines.append(" | ".join(row))
    return lines


def table_diff(base, cur, exp_id, title):
    """Readable unified diff of one drifted table."""
    return list(
        difflib.unified_diff(
            render_rows(base),
            render_rows(cur),
            fromfile=f"baseline [{exp_id}] {title}",
            tofile=f"current  [{exp_id}] {title}",
            lineterm="",
        )
    )


def compare_docs(baseline, current, overrides=()):
    """Compare two artifacts; returns (failures, diff_lines, notes)."""
    base_tables = index_tables(baseline)
    cur_tables = index_tables(current)
    failures = []
    diff_lines = []
    notes = []

    # Experiment-level presence first: a registry entry dropped from the
    # current run must fail even if it carried no tables (the table loop
    # below cannot see those), and its tables are skipped to keep the
    # failure list readable.
    cur_ids = {e["id"] for e in current["experiments"]}
    missing_ids = set()
    for exp_id in (e["id"] for e in baseline["experiments"]):
        if exp_id not in cur_ids:
            missing_ids.add(exp_id)
            failures.append(f"[{exp_id}] experiment missing from current artifact")

    for key, base in sorted(base_tables.items()):
        exp_id, title = key
        if exp_id in missing_ids:
            continue
        cur = cur_tables.get(key)
        if cur is None:
            failures.append(f"[{exp_id}] table missing: {title!r}")
            continue
        if cur["headers"] != base["headers"]:
            failures.append(f"[{exp_id}] headers changed in {title!r}")
            diff_lines += table_diff(base, cur, exp_id, title)
            continue
        if len(cur["rows"]) != len(base["rows"]):
            failures.append(
                f"[{exp_id}] row count {len(cur['rows'])} != baseline "
                f"{len(base['rows'])} in {title!r}"
            )
            diff_lines += table_diff(base, cur, exp_id, title)
            continue
        table_failed = False
        for r, (brow, crow) in enumerate(zip(base["rows"], cur["rows"])):
            for header, bcell, ccell in zip(base["headers"], brow, crow):
                if is_timing(header) or is_report_only(header):
                    continue
                tol = tolerance_for(header, overrides)
                if not cells_match(bcell, ccell, tol):
                    table_failed = True
                    failures.append(
                        f"[{exp_id}] {title!r} row {r} col {header!r}: "
                        f"baseline {bcell!r} != current {ccell!r}"
                        + (f" (rel tol {tol:g})" if tol > REL_TOL else "")
                    )
        if table_failed:
            diff_lines += table_diff(base, cur, exp_id, title)

    for key in sorted(set(cur_tables) - set(base_tables)):
        notes.append(f"note: new table not in baseline (regenerate it): {key}")

    return failures, diff_lines, notes


def timing_report(baseline, current):
    """Per-experiment seconds comparison as printable lines (report-only)."""
    base_secs = {e["id"]: e.get("seconds") for e in baseline["experiments"]}
    cur_secs = {e["id"]: e.get("seconds") for e in current["experiments"]}
    lines = ["timing report (informational — wall-clock never gates):"]
    lines.append(f"  {'id':<6} {'baseline s':>11} {'current s':>11} {'ratio':>7}")
    base_total = cur_total = 0.0
    for exp_id in (e["id"] for e in baseline["experiments"]):
        b, c = base_secs.get(exp_id), cur_secs.get(exp_id)
        if b is None or c is None:
            lines.append(f"  {exp_id:<6} {'?':>11} {'?':>11}       - (missing)")
            continue
        base_total += b
        cur_total += c
        if b <= 0:
            lines.append(f"  {exp_id:<6} {b:>11.3f} {c:>11.3f}       -")
            continue
        ratio = c / b
        flag = ""
        if max(b, c) >= TIMING_NOISE_FLOOR_S:
            if ratio > TIMING_FLAG_RATIO:
                flag = f"  SLOWER (>{TIMING_FLAG_RATIO}x)"
            elif ratio < 1.0 / TIMING_FLAG_RATIO:
                flag = f"  faster (<1/{TIMING_FLAG_RATIO}x)"
        lines.append(f"  {exp_id:<6} {b:>11.3f} {c:>11.3f} {ratio:>6.2f}x{flag}")
    for exp_id in sorted(set(cur_secs) - set(base_secs)):
        lines.append(f"  {exp_id:<6} (not in baseline) current {cur_secs[exp_id]:.3f}s")
    if base_total > 0:
        lines.append(
            f"  {'total':<6} {base_total:>11.3f} {cur_total:>11.3f} "
            f"{cur_total / base_total:>6.2f}x"
        )
    return lines


def timing_summary(doc):
    """Per-experiment seconds of one artifact (the weekly @scale runs have
    no committed full-scale baseline; their trajectory is this summary,
    one per retained artifact)."""
    lines = [
        "timing summary (single artifact — informational, wall-clock never gates):",
        f"  scale={doc.get('scale', '?')} threads={doc.get('threads', '?')}",
        f"  {'id':<6} {'seconds':>11}",
    ]
    total = 0.0
    for exp in doc["experiments"]:
        secs = exp.get("seconds")
        if secs is None:
            lines.append(f"  {exp['id']:<6} {'?':>11}")
            continue
        total += secs
        lines.append(f"  {exp['id']:<6} {secs:>11.3f}")
    lines.append(f"  {'total':<6} {total:>11.3f}")
    return lines


def parse_args(argv):
    paths = []
    overrides = []
    want_timing = False
    summary = False
    it = iter(argv)
    for arg in it:
        if arg == "--tol":
            spec = next(it, None)
            if spec is None or "=" not in spec:
                sys.exit("--tol expects COLUMN=REL_TOL (e.g. --tol 'mean err=0.05')")
            col, _, tol = spec.partition("=")
            overrides.append((col.strip().lower(), float(tol)))
        elif arg == "--timing-report":
            want_timing = True
        elif arg == "--timing-summary":
            summary = True
        else:
            paths.append(arg)
    if summary:
        if len(paths) != 1 or overrides or want_timing:
            sys.exit("--timing-summary expects exactly one artifact path")
        return paths, [], False, True
    if len(paths) != 2:
        sys.exit(__doc__)
    return paths, overrides, want_timing, False


def main():
    paths, overrides, want_timing, summary = parse_args(sys.argv[1:])
    if summary:
        with open(paths[0]) as f:
            for line in timing_summary(json.load(f)):
                print(line)
        return
    base_path, cur_path = paths
    with open(base_path) as f:
        baseline = json.load(f)
    with open(cur_path) as f:
        current = json.load(f)

    failures, diff_lines, notes = compare_docs(baseline, current, overrides)
    for note in notes:
        print(note)

    # Print the (never-gating) timing trajectory before any failure exit so
    # CI artifacts carry it either way.
    if want_timing:
        for line in timing_report(baseline, current):
            print(line)

    if failures:
        print(f"BENCH REGRESSION: {len(failures)} mismatch(es)")
        for f_ in failures[:50]:
            print("  " + f_)
        if len(failures) > 50:
            print(f"  ... and {len(failures) - 50} more")
        if diff_lines:
            print("\n--- drifted tables (unified diff, timing columns included) ---")
            for line in diff_lines[:200]:
                print(line)
            if len(diff_lines) > 200:
                print(f"... and {len(diff_lines) - 200} more diff lines")
        print(
            "\nIf the change is intentional, regenerate the baseline:\n"
            "  cargo run --release -p byzscore-bench --bin run_all -- "
            "--scale quick --threads 2 --json BENCH_baseline.json"
        )
        sys.exit(1)

    n_tables = len(index_tables(baseline))
    print(
        f"bench check OK: {n_tables} table(s) match the baseline "
        "(timing columns skipped)"
    )


def self_test():
    """In-process checks of the comparison logic (run from CI)."""

    def doc(rows, headers=("n", "max err", "elapsed ms"), title="T"):
        return {
            "experiments": [
                {"id": "eXX", "tables": [{"title": title, "headers": list(headers), "rows": rows}]}
            ]
        }

    base = doc([["64", "3.00", "10"], ["128", "5.00", "20"]])

    # Identical artifacts pass.
    fails, _, _ = compare_docs(base, base)
    assert not fails, fails

    # Timing drift is ignored.
    fails, _, _ = compare_docs(base, doc([["64", "3.00", "999"], ["128", "5.00", "1"]]))
    assert not fails, fails

    # Float formatting slack within REL_TOL passes.
    fails, _, _ = compare_docs(base, doc([["64", "3.0000000001", "10"], ["128", "5.00", "20"]]))
    assert not fails, fails

    # Real numeric drift fails, with a readable diff.
    drifted = doc([["64", "4.00", "10"], ["128", "5.00", "20"]])
    fails, diff, _ = compare_docs(base, drifted)
    assert len(fails) == 1 and "max err" in fails[0], fails
    assert any(line.startswith("-64 | 3.00") for line in diff), diff
    assert any(line.startswith("+64 | 4.00") for line in diff), diff

    # A per-column tolerance override absorbs the same drift.
    fails, _, _ = compare_docs(base, drifted, overrides=[("max err", 0.5)])
    assert not fails, fails
    # ...but not drift beyond it.
    fails, _, _ = compare_docs(
        base, doc([["64", "9.00", "10"], ["128", "5.00", "20"]]), overrides=[("max err", 0.5)]
    )
    assert len(fails) == 1, fails

    # Missing tables and row-count changes fail.
    fails, _, _ = compare_docs(base, {"experiments": []})
    assert len(fails) == 1 and "missing" in fails[0], fails
    fails, _, _ = compare_docs(base, doc([["64", "3.00", "10"]]))
    assert len(fails) == 1 and "row count" in fails[0], fails

    # Non-numeric cells must match exactly.
    base_s = doc([["64", "ok", "10"]])
    fails, _, _ = compare_docs(base_s, doc([["64", "bad", "10"]]))
    assert len(fails) == 1, fails

    # The memory column gates exactly: its built-in 0.0 tolerance beats the
    # default REL_TOL slack, so even sub-REL_TOL drift in peak candidate
    # bytes fails (residency is deterministic; any drift is a real change).
    mem_headers = ("n", "peak candidate bytes", "elapsed ms")
    mem_base = doc([["1000", "1048576", "10"]], headers=mem_headers)
    fails, _, _ = compare_docs(mem_base, doc([["1000", "1048576", "99"]], headers=mem_headers))
    assert not fails, fails
    fails, _, _ = compare_docs(
        mem_base, doc([["1000", "1048576.001", "10"]], headers=mem_headers)
    )
    assert len(fails) == 1 and "peak candidate bytes" in fails[0], fails

    # Report-only rate columns (e17 "reqs/sec") never gate, but their
    # deterministic neighbors — hex digests, rejected counts — still do:
    # digests are non-numeric, so they must match EXACTLY.
    svc_headers = ("batch", "reqs/sec", "p50 ms", "digest")
    svc_base = doc([["8", "5000.00", "0.1600", "ae1c51929c5e0fad"]], headers=svc_headers)
    fails, _, _ = compare_docs(
        svc_base, doc([["8", "9999.99", "0.9999", "ae1c51929c5e0fad"]], headers=svc_headers)
    )
    assert not fails, fails
    fails, _, _ = compare_docs(
        svc_base, doc([["8", "5000.00", "0.1600", "ae1c51929c5e0fae"]], headers=svc_headers)
    )
    assert len(fails) == 1 and "digest" in fails[0], fails

    # New tables are reported as notes, not failures.
    extra = doc([["64", "3.00", "10"], ["128", "5.00", "20"]])
    extra["experiments"].append(
        {"id": "eYY", "tables": [{"title": "new", "headers": ["a"], "rows": [["1"]]}]}
    )
    fails, _, notes = compare_docs(base, extra)
    assert not fails and len(notes) == 1, (fails, notes)

    # Timing report: report-only lines, flags big moves both ways, totals.
    def timed(seconds_by_id):
        return {
            "experiments": [
                {"id": i, "seconds": s, "tables": []} for i, s in seconds_by_id.items()
            ]
        }

    report = timing_report(
        timed({"e01": 1.0, "e13": 400.0}), timed({"e01": 1.1, "e13": 60.0})
    )
    text = "\n".join(report)
    assert "never gates" in text, text
    assert "faster" in text and "e13" in text, text
    assert "SLOWER" not in text, text
    report = timing_report(timed({"e01": 1.0}), timed({"e01": 9.0}))
    assert any("SLOWER" in line for line in report), report
    report = timing_report(timed({"e01": 1.0}), timed({"e02": 1.0}))
    assert any("missing" in line for line in report), report
    assert any("not in baseline" in line for line in report), report
    # Sub-noise-floor experiments and zero baselines never flag.
    report = timing_report(
        timed({"e04": 0.002, "e05": 0.0}), timed({"e04": 0.03, "e05": 0.01})
    )
    assert not any("SLOWER" in line for line in report), report
    assert not any("infx" in line for line in report), report

    # e18's fault-recovery tables gate EVERY cell: the hex digest column
    # and the yes/NO "matches traces/DIGESTS" verdict are non-numeric, so
    # a single flipped nibble — or a verdict flip the digest cell would
    # already catch — fails exactly. No report-only columns in e18.
    rec_headers = ("kill at", "crash phase", "recovered ops", "digest", "matches traces/DIGESTS")
    rec_base = doc(
        [["11", "between ops", "9", "742004f52561bb35", "yes"]], headers=rec_headers
    )
    fails, _, _ = compare_docs(rec_base, rec_base)
    assert not fails, fails
    fails, _, _ = compare_docs(
        rec_base,
        doc([["11", "between ops", "9", "742004f52561bb34", "yes"]], headers=rec_headers),
    )
    assert len(fails) == 1 and "digest" in fails[0], fails
    fails, _, _ = compare_docs(
        rec_base,
        doc([["11", "between ops", "9", "742004f52561bb35", "NO"]], headers=rec_headers),
    )
    assert len(fails) == 1 and "matches traces/DIGESTS" in fails[0], fails

    # e19's compaction table gates the tail bound alongside the digest:
    # "tail ops" is numeric (so it gates at REL_TOL — an inflated tail
    # means compaction stopped bounding recovery), "tail ≤ every" and
    # the digest are non-numeric and must match exactly.
    cmp_headers = (
        "every", "kill at", "checkpoints", "truncated ops", "tail ops",
        "tail ≤ every", "digest", "matches traces/DIGESTS",
    )
    cmp_base = doc(
        [["4", "34", "10", "40", "2", "yes", "742004f52561bb35", "yes"]],
        headers=cmp_headers,
    )
    fails, _, _ = compare_docs(cmp_base, cmp_base)
    assert not fails, fails
    fails, _, _ = compare_docs(
        cmp_base,
        doc(
            [["4", "34", "10", "40", "2", "yes", "742004f52561bb45", "yes"]],
            headers=cmp_headers,
        ),
    )
    assert len(fails) == 1 and "digest" in fails[0], fails
    fails, _, _ = compare_docs(
        cmp_base,
        doc(
            [["4", "34", "10", "40", "42", "NO", "742004f52561bb35", "yes"]],
            headers=cmp_headers,
        ),
    )
    assert len(fails) == 2, fails
    assert any("tail ops" in f_ for f_ in fails), fails
    assert any("tail ≤ every" in f_ for f_ in fails), fails

    # A whole experiment dropped from the current artifact fails — even
    # when it contributed no tables, the case the per-table loop cannot
    # see (a silently dropped registry entry must not pass the gate).
    tabled = doc([["64", "3.00", "10"]])
    tabled["experiments"].append({"id": "eZZ", "tables": []})
    pruned = doc([["64", "3.00", "10"]])
    fails, _, _ = compare_docs(tabled, pruned)
    assert len(fails) == 1 and "experiment missing" in fails[0], fails
    # Dropping an experiment WITH tables reports once at experiment level
    # (its table mismatches are suppressed as redundant).
    both = doc([["64", "3.00", "10"]])
    both["experiments"].append(
        {"id": "eWW", "tables": [{"title": "w", "headers": ["a"], "rows": [["1"]]}]}
    )
    fails, _, _ = compare_docs(both, pruned)
    assert len(fails) == 1 and "[eWW] experiment missing" in fails[0], fails
    # Same ids on both sides: no presence failure.
    fails, _, _ = compare_docs(tabled, tabled)
    assert not fails, fails

    # Single-artifact timing summary: ids, total, scale header.
    summary = timing_summary(
        {"scale": "full", "threads": 2, "experiments": [
            {"id": "e01", "seconds": 1.5, "tables": []},
            {"id": "e13", "seconds": 400.0, "tables": []},
        ]}
    )
    text = "\n".join(summary)
    assert "scale=full" in text and "e13" in text, text
    assert any("total" in line and "401.500" in line for line in summary), summary

    print("check_bench self-test OK (18 scenarios)")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
    else:
        main()
