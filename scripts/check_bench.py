#!/usr/bin/env python3
"""Compare a byzscore-bench JSON artifact against the committed baseline.

Usage:
  check_bench.py BASELINE.json CURRENT.json [--tol COLUMN=REL ...]
  check_bench.py --self-test

Every experiment run is a pure function of its seeds (the determinism test
suite enforces bit-identity across thread counts), so probe counts, error
statistics and digests must match the baseline *exactly* up to float
formatting. The artifacts carry no wall-clock (that is measured by the
perf/ benchmark), so every cell gates; only table notes are skipped (they
embed derived slopes already covered by the numeric cells). Any cell drift
fails the check loudly — that is the point: accuracy or probe-complexity
regressions must not land silently.

Per-column tolerances: numeric columns default to REL_TOL (float-formatting
slack only). A column can be given a wider relative tolerance either in
COLUMN_TOLERANCES below (matched as a case-insensitive substring of the
header) or on the command line with --tol 'mean err=0.05'. On failure the
mismatching tables are also rendered as a unified diff so the drift is
readable at a glance.

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


def parse_args(argv):
    paths = []
    overrides = []
    it = iter(argv)
    for arg in it:
        if arg == "--tol":
            spec = next(it, None)
            if spec is None or "=" not in spec:
                sys.exit("--tol expects COLUMN=REL_TOL (e.g. --tol 'mean err=0.05')")
            col, _, tol = spec.partition("=")
            overrides.append((col.strip().lower(), float(tol)))
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__)
    return paths, overrides


def main():
    paths, overrides = parse_args(sys.argv[1:])
    base_path, cur_path = paths
    with open(base_path) as f:
        baseline = json.load(f)
    with open(cur_path) as f:
        current = json.load(f)

    failures, diff_lines, notes = compare_docs(baseline, current, overrides)
    for note in notes:
        print(note)

    if failures:
        print(f"BENCH REGRESSION: {len(failures)} mismatch(es)")
        for f_ in failures[:50]:
            print("  " + f_)
        if len(failures) > 50:
            print(f"  ... and {len(failures) - 50} more")
        if diff_lines:
            print("\n--- drifted tables (unified diff) ---")
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
    print(f"bench check OK: {n_tables} table(s) match the baseline")


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

    # A column named "elapsed ms" gates like any other: nothing is exempt.
    fails, _, _ = compare_docs(base, doc([["64", "3.00", "999"], ["128", "5.00", "20"]]))
    assert len(fails) == 1 and "elapsed ms" in fails[0], fails

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
    mem_headers = ("n", "peak candidate bytes")
    mem_base = doc([["1000", "1048576"]], headers=mem_headers)
    fails, _, _ = compare_docs(mem_base, mem_base)
    assert not fails, fails
    fails, _, _ = compare_docs(
        mem_base, doc([["1000", "1048576.001"]], headers=mem_headers)
    )
    assert len(fails) == 1 and "peak candidate bytes" in fails[0], fails

    # e17's @scale cells: the hex digest is non-numeric, so it must match
    # EXACTLY, and the rejected count gates beside it.
    svc_headers = ("ops", "rejected", "digest")
    svc_base = doc([["100000", "0", "ae1c51929c5e0fad"]], headers=svc_headers)
    fails, _, _ = compare_docs(svc_base, svc_base)
    assert not fails, fails
    fails, _, _ = compare_docs(
        svc_base, doc([["100000", "0", "ae1c51929c5e0fae"]], headers=svc_headers)
    )
    assert len(fails) == 1 and "digest" in fails[0], fails
    fails, _, _ = compare_docs(
        svc_base, doc([["100000", "3", "ae1c51929c5e0fad"]], headers=svc_headers)
    )
    assert len(fails) == 1 and "rejected" in fails[0], fails

    # New tables are reported as notes, not failures.
    extra = doc([["64", "3.00", "10"], ["128", "5.00", "20"]])
    extra["experiments"].append(
        {"id": "eYY", "tables": [{"title": "new", "headers": ["a"], "rows": [["1"]]}]}
    )
    fails, _, notes = compare_docs(base, extra)
    assert not fails and len(notes) == 1, (fails, notes)

    # e18's fault-recovery tables gate EVERY cell: the hex digest column
    # and the yes/NO "matches traces/DIGESTS" verdict are non-numeric, so
    # a single flipped nibble — or a verdict flip the digest cell would
    # already catch — fails exactly.
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
    # the digest are non-numeric and must match exactly, and "ckpt bytes"
    # (the summed on-disk size of the row's checkpoints) gates at REL_TOL
    # so a fatter checkpoint format cannot land silently.
    cmp_headers = (
        "every", "kill at", "checkpoints", "truncated ops", "tail ops",
        "tail ≤ every", "ckpt bytes", "digest", "matches traces/DIGESTS",
    )

    def cmp_row(tail="2", within="yes", ckpt="27026", digest="742004f52561bb35"):
        return doc(
            [["4", "34", "10", "40", tail, within, ckpt, digest, "yes"]],
            headers=cmp_headers,
        )

    cmp_base = cmp_row()
    fails, _, _ = compare_docs(cmp_base, cmp_base)
    assert not fails, fails
    fails, _, _ = compare_docs(cmp_base, cmp_row(digest="742004f52561bb45"))
    assert len(fails) == 1 and "digest" in fails[0], fails
    fails, _, _ = compare_docs(cmp_base, cmp_row(tail="42", within="NO"))
    assert len(fails) == 2, fails
    assert any("tail ops" in f_ for f_ in fails), fails
    assert any("tail ≤ every" in f_ for f_ in fails), fails
    fails, _, _ = compare_docs(cmp_base, cmp_row(ckpt="47423"))
    assert len(fails) == 1 and "ckpt bytes" in fails[0], fails

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

    print("check_bench self-test OK (16 scenarios)")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
    else:
        main()
