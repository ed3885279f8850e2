#!/usr/bin/env python3
"""Compare two bench JSON series, or gate a fresh run on a snapshot.

The bench harness (bench/harness/table.cpp) writes
    {"meta": {"memory_order": ..., "git_rev": ..., "hardware_concurrency": ...,
              "build_type": ..., "spin_policy": ..., "reps": ...,
              "steal_pct": ...},
     "columns": [...],
     "rows": [{col: cell, ..., "spread": {col: [q1, q3], ...}}, ...]}
where a timed cell is the median over meta.reps runs and its row's "spread"
holds the quartiles. "spread" is not a column, so no mode below reads it:
they compare the medians only. This script consumes pairs of them:

  compare  print a side-by-side table of every shared numeric column with
           the ratio b/a per cell (a = first file, the baseline).
  regress  gate for committed BENCH_*.json snapshots: A = the committed
           baseline, B = a fresh run of the same bench. Exit 1 only on a
           genuine regression -- a shared cell where B is slower than A by
           more than --tolerance (lower is better). Rows or columns present
           in only one file (a bench gained or lost a series since the
           snapshot) are *reported*, never fatal: schema drift is what a
           refreshed snapshot is for, not a reason to fail the gate.

Rows and columns present in only one input are reported as added/removed in
both modes; the comparison proceeds over the shared cells.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "columns" not in doc or "rows" not in doc:
        sys.exit(f"{path}: not a bench table (missing columns/rows)")
    return doc


def numeric_columns(doc_a, doc_b, metric):
    cols = []
    for c in doc_a["columns"]:
        if c not in doc_b["columns"]:
            continue
        if metric not in c:
            continue
        vals = [r.get(c) for r in doc_a["rows"] + doc_b["rows"]]
        if all(isinstance(v, (int, float)) for v in vals):
            cols.append(c)
    return cols


def key_column(doc):
    # First column is the sweep key (pairs / threads / level).
    return doc["columns"][0]


def paired_rows(doc_a, doc_b):
    """Yield (key, row_a, row_b) for rows sharing the sweep-key value."""
    k = key_column(doc_a)
    if k != key_column(doc_b):
        sys.exit(f"sweep keys differ: {k!r} vs {key_column(doc_b)!r}")
    b_by_key = {r[k]: r for r in doc_b["rows"]}
    for ra in doc_a["rows"]:
        rb = b_by_key.get(ra[k])
        if rb is not None:
            yield ra[k], ra, rb


def report_drift(doc_a, doc_b):
    """Print added/removed columns and rows; the diff proceeds over the
    shared cells either way."""
    ca, cb = doc_a["columns"], doc_b["columns"]
    for c in ca:
        if c not in cb:
            print(f"  note: column {c!r} only in A (removed from B)")
    for c in cb:
        if c not in ca:
            print(f"  note: column {c!r} only in B (added since A)")
    k = key_column(doc_a)
    if k != key_column(doc_b):
        return
    keys_a = [r.get(k) for r in doc_a["rows"]]
    keys_b = [r.get(k) for r in doc_b["rows"]]
    for key in keys_a:
        if key not in keys_b:
            print(f"  note: row {k}={key!r} only in A (removed from B)")
    for key in keys_b:
        if key not in keys_a:
            print(f"  note: row {k}={key!r} only in B (added since A)")


def cmd_compare(args):
    a, b = load(args.file_a), load(args.file_b)
    cols = numeric_columns(a, b, args.metric)
    print(f"A = {args.file_a}, B = {args.file_b}")
    report_drift(a, b)
    if not cols:
        sys.exit(f"no shared numeric columns matching {args.metric!r}")
    k = key_column(a)
    header = [k] + [f"{c} A|B|B/A" for c in cols]
    print("  ".join(header))
    for key, ra, rb in paired_rows(a, b):
        cells = [str(key)]
        for c in cols:
            va, vb = ra[c], rb[c]
            ratio = vb / va if va else float("inf")
            cells.append(f"{va:.1f}|{vb:.1f}|{ratio:.3f}")
        print("  ".join(cells))
    return 0


def cmd_regress(args):
    a, b = load(args.file_a), load(args.file_b)
    print(f"A = {args.file_a} (baseline), B = {args.file_b} (fresh run)")
    report_drift(a, b)
    cols = numeric_columns(a, b, args.metric)
    if not cols:
        # Nothing shared to compare: the bench was restructured. That is
        # snapshot drift, not a regression.
        print(f"no shared numeric columns matching {args.metric!r}; "
              "nothing to gate")
        return 0
    regressions = []
    total = 0
    for key, ra, rb in paired_rows(a, b):
        for c in cols:
            va, vb = ra[c], rb[c]
            if va <= 0:
                continue
            total += 1
            # Lower is better; ratio > 1 means the fresh run is slower
            # than the committed snapshot.
            ratio = vb / va
            if ratio > 1 + args.tolerance:
                regressions.append((key, c, va, vb, ratio))
    print(f"regression check: {total} shared cells, "
          f"{len(regressions)} beyond {args.tolerance:.0%}")
    for key, c, va, vb, r in regressions:
        print(f"  REGRESSION {key} {c}: baseline={va:.1f} "
              f"fresh={vb:.1f} ({r:.2f}x)")
    if total == 0:
        print("no comparable cells; nothing to gate")
        return 0
    if regressions:
        print("FAIL")
        return 1
    print("PASS")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["compare", "regress"], default="compare")
    p.add_argument("file_a", help="baseline JSON")
    p.add_argument("file_b", help="comparison JSON")
    p.add_argument("--metric", default="ns/",
                   help="substring selecting the columns to compare")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="regress: max tolerated per-cell slowdown")
    args = p.parse_args()
    if args.mode == "compare":
        sys.exit(cmd_compare(args))
    sys.exit(cmd_regress(args))


if __name__ == "__main__":
    main()
