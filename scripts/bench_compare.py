#!/usr/bin/env python3
"""Compare, merge, or parity-gate two bench JSON series.

The bench harness (bench/harness/table.cpp) writes
    {"meta": {"memory_order": ..., "git_rev": ..., "hardware_concurrency": ...,
              "build_type": ..., "spin_policy": ..., "reps": ...,
              "steal_pct": ...},
     "columns": [...],
     "rows": [{col: cell, ..., "spread": {col: [q1, q3], ...}}, ...]}
where a timed cell is the median over meta.reps runs and its row's "spread"
holds the quartiles. "spread" is not a column, so no mode below reads it:
they compare the medians only. The memory-order differential
(bench/ablation_memory_order.cpp) produces one such file per build mode.
This script consumes pairs of them:

  compare  print a side-by-side table of every shared numeric column with
           the ratio b/a per cell (a = first file, the baseline).
  merge    emit one JSON document {"meta": ..., "series": {label_a: doc_a,
           label_b: doc_b}} -- the format of the committed
           BENCH_memory_order.json snapshot.
  parity   exit 0 iff, for every numeric column matching --metric (default:
           columns containing "ns/"), file A is at parity or better with
           file B on at least --min-wins rows (default 1) and is never worse
           than B by more than --tolerance (default 0.15, i.e. 15%) on any
           row. This is the CI bench gate: A = relaxed, B = forced seq_cst;
           lower is better.
  regress  same-mode gate for committed BENCH_*.json snapshots: A = the
           committed baseline, B = a fresh run of the same bench. Exit 1
           only on a genuine regression -- a shared cell where B is slower
           than A by more than --tolerance. Rows or columns present in only
           one file (a bench gained or lost a series since the snapshot)
           are *reported*, never fatal: schema drift is what a refreshed
           snapshot is for, not a reason to fail the gate.

Rows and columns present in only one input are reported as added/removed in
every mode; the comparison proceeds over the shared cells. compare/parity
require the two inputs to disagree on meta.memory_order (a differential
needs two modes); --allow-same-mode disables that check for ad-hoc use, and
regress mode (a same-mode diff by definition) never applies it.
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


def meta(doc, key):
    return doc.get("meta", {}).get(key, "unknown")


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


def check_modes(doc_a, doc_b, allow_same):
    ma, mb = meta(doc_a, "memory_order"), meta(doc_b, "memory_order")
    if ma == mb and not allow_same:
        sys.exit(
            f"both inputs are memory_order={ma!r}; a differential needs two "
            "modes (pass --allow-same-mode to override)"
        )
    return ma, mb


def cmd_compare(args):
    a, b = load(args.file_a), load(args.file_b)
    ma, mb = check_modes(a, b, args.allow_same_mode)
    cols = numeric_columns(a, b, args.metric)
    print(f"A = {args.file_a} ({ma}), B = {args.file_b} ({mb})")
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


def cmd_merge(args):
    a, b = load(args.file_a), load(args.file_b)
    ma, mb = check_modes(a, b, args.allow_same_mode)
    label_a = args.label_a or ma
    label_b = args.label_b or mb
    out = {
        "meta": {
            "kind": "memory_order_differential",
            "git_rev": meta(a, "git_rev"),
        },
        "series": {label_a: a, label_b: b},
    }
    json.dump(out, args.output, indent=2)
    args.output.write("\n")
    return 0


def cmd_parity(args):
    a, b = load(args.file_a), load(args.file_b)
    check_modes(a, b, args.allow_same_mode)
    cols = numeric_columns(a, b, args.metric)
    report_drift(a, b)
    if not cols:
        sys.exit(f"no shared numeric columns matching {args.metric!r}")
    worst = []
    wins = 0
    total = 0
    for key, ra, rb in paired_rows(a, b):
        for c in cols:
            va, vb = ra[c], rb[c]
            if vb <= 0:
                continue
            total += 1
            # Lower is better; A at parity-or-better means va <= vb (within
            # noise). Regression ratio > 1 means A is slower than B.
            regression = va / vb
            if va <= vb:
                wins += 1
            if regression > 1 + args.tolerance:
                worst.append((key, c, va, vb, regression))
    if total == 0:
        sys.exit("no comparable cells")
    print(f"parity check: A at-or-better on {wins}/{total} cells")
    for key, c, va, vb, r in worst:
        print(f"  REGRESSION {key} {c}: A={va:.1f} B={vb:.1f} ({r:.2f}x)")
    if wins < args.min_wins:
        print(f"FAIL: fewer than {args.min_wins} parity-or-better cells")
        return 1
    if worst:
        print(f"FAIL: {len(worst)} cells regress beyond {args.tolerance:.0%}")
        return 1
    print("PASS")
    return 0


def cmd_regress(args):
    a, b = load(args.file_a), load(args.file_b)
    ma, mb = meta(a, "memory_order"), meta(b, "memory_order")
    if ma != mb:
        # A cross-mode diff through the regression gate is almost certainly
        # a wiring mistake (comparing a relaxed snapshot against a seq_cst
        # run would gate on the differential, not on a regression).
        sys.exit(f"regress mode wants same-mode inputs: {ma!r} vs {mb!r}")
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
    p.add_argument("--mode", choices=["compare", "merge", "parity", "regress"],
                   default="compare")
    p.add_argument("file_a", help="baseline / relaxed-side JSON")
    p.add_argument("file_b", help="comparison / forced-side JSON")
    p.add_argument("--metric", default="ns/",
                   help="substring selecting the columns to compare")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="parity/regress: max tolerated per-cell slowdown")
    p.add_argument("--min-wins", type=int, default=1,
                   help="parity: required parity-or-better cell count")
    p.add_argument("--label-a", default=None, help="merge: series label for A")
    p.add_argument("--label-b", default=None, help="merge: series label for B")
    p.add_argument("--output", type=argparse.FileType("w"),
                   default=sys.stdout, help="merge: output path")
    p.add_argument("--allow-same-mode", action="store_true",
                   help="skip the two-distinct-modes meta check")
    args = p.parse_args()
    if args.mode == "compare":
        sys.exit(cmd_compare(args))
    if args.mode == "merge":
        sys.exit(cmd_merge(args))
    if args.mode == "regress":
        sys.exit(cmd_regress(args))
    sys.exit(cmd_parity(args))


if __name__ == "__main__":
    main()
