#!/usr/bin/env python3
"""Check the JSON files the figure and ablation benches write.

Usage: scripts/check_bench_json.py FILE.json...

Each file must carry the host record (meta.reps, meta.steal_pct,
meta.git_rev, meta.hardware_concurrency), and every timed or rate cell a
spread [q1, q3] around its median. A timed cell is any numeric cell outside
the key column, except the retire counts per transfer ("ret/x", the worst
rep). The latency bench must have one row per implementation, seven in all.
"""
import json
import pathlib
import sys

META = ("reps", "steal_pct", "git_rev", "hardware_concurrency")


def problems(path):
    doc = json.loads(path.read_text())
    meta = doc.get("meta", {})
    out = [f"meta.{k} missing" for k in META if k not in meta]
    key, cols = doc["columns"][0], doc["columns"][1:]
    for row in doc["rows"]:
        spread = row.get("spread", {})
        for c in cols:
            v = row[c]
            if not isinstance(v, (int, float)) or c.endswith("ret/x"):
                continue
            if c not in spread:
                out.append(f"{key}={row[key]} {c}: no spread")
            elif not spread[c][0] <= v <= spread[c][1]:
                out.append(f"{key}={row[key]} {c}: {v} outside {spread[c]}")
    if path.stem == "latency_percentiles" and len(doc["rows"]) != 7:
        out.append(f"{len(doc['rows'])} rows, want 7")
    return out


def main():
    bad = 0
    for name in sys.argv[1:]:
        path = pathlib.Path(name)
        found = problems(path) if path.is_file() else ["not written"]
        for p in found:
            print(f"{name}: {p}")
        bad += len(found)
    print(f"{len(sys.argv) - 1} files, {bad} problems")
    return 1 if bad or len(sys.argv) < 2 else 0


if __name__ == "__main__":
    sys.exit(main())
