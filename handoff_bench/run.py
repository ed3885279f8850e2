#!/usr/bin/env python3
"""Build and run the handoff benchmark.

    python3 handoff_bench/run.py --workload fanin|rpc|serve --seed N \
        --seconds S --trace 0|1
    python3 handoff_bench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR/handoff_bench (default .bench_build/handoff_bench) on
first use. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, a check fails, or the run does not finish in time.

--self-test runs every workload with a value corrupted and with a value
dropped by the benchmark itself, and passes only if every run is caught.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("fanin", "rpc", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"handoff_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "handoff_bench"


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {REPO / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", BUILD_JOBS,
                  "--target", "handoff_bench"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    with open(log, "w") as f:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env)
            except OSError as e:
                die(f"cannot run {cmd[0]}: {e}")
            if r.returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed ({' '.join(cmd)}); log: {log}")
    binary = out / "handoff_bench"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


def source_rev():
    """The git revision when there is one; always a hash of the sources."""
    h = hashlib.sha256()
    for root in (REPO / "src", HERE):
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(REPO)).encode())
                h.update(p.read_bytes())
    rev = "src-" + h.hexdigest()[:12]
    try:
        r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            rev = r.stdout.strip() + "/" + rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev


def run_binary(binary, args):
    """Run the benchmark; returns (exit code, stdout lines, parsed result)."""
    try:
        r = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return r.returncode, lines, result


def self_test(binary):
    ok = True
    for w in WORKLOADS:
        for fault in ("none", "corrupt", "drop"):
            code, _, res = run_binary(binary, [
                "--workload", w, "--seed", "7", "--seconds", "1",
                "--trace", "0", "--inject", fault])
            caught = res is not None and not res["correct"] and res["failed"] >= 1
            clean = res is not None and res["correct"] and res["failed"] == 0
            good = (code == 0 and clean) if fault == "none" else (code != 0 and caught)
            ok = ok and good
            failed = res["failed"] if res else "?"
            print(f"self-test {w:5s} inject={fault:7s} exit={code} failed={failed} "
                  f"-> {'ok' if good else 'NOT CAUGHT' if fault != 'none' else 'FAILED'}")
    print("self-test:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    if a.seed is not None and a.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if a.self_test:
        return self_test(binary)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--git-rev", source_rev()]
    if a.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.csv")]
    code, lines, result = run_binary(binary, args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if result is None:
        die(f"benchmark printed no result line (exit {code})", code or 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
