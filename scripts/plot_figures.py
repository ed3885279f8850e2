#!/usr/bin/env python3
"""Plot the figure-bench JSON files in the paper's visual layout.

Usage:
    scripts/run_figures.sh build          # produces bench_results/*.json
    python3 scripts/plot_figures.py bench_results/ [out-dir]

Each numeric series is plotted against the sweep key (the first column),
with its spread (quartiles over reps) as error bars. Tables whose key is not
a number (the cleaning and latency benches) are skipped. Requires
matplotlib; degrades to a message if unavailable.
"""
import json
import pathlib
import sys


def load(path):
    doc = json.loads(path.read_text())
    key, rows = doc["columns"][0], doc["rows"]
    if not rows or not all(isinstance(r[key], int) for r in rows):
        return None
    series = {}
    for c in doc["columns"][1:]:
        if all(isinstance(r[c], (int, float)) for r in rows):
            ys = [r[c] for r in rows]
            iqr = [r.get("spread", {}).get(c, [y, y]) for r, y in zip(rows, ys)]
            err = [[y - q[0] for q, y in zip(iqr, ys)],
                   [q[1] - y for q, y in zip(iqr, ys)]]
            series[c] = (ys, err)
    return key, [r[key] for r in rows], series


def main():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; the JSON files are ready for any "
              "plotter.")
        return 0

    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "bench_results")
    out = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else src)
    out.mkdir(parents=True, exist_ok=True)

    titles = {
        "fig3_prodcons": "Producer-consumer (N : N), ns/transfer",
        "fig4_single_producer": "Single producer (1 : N), ns/transfer",
        "fig5_single_consumer": "Single consumer (N : 1), ns/transfer",
        "fig6_executor": "CachedThreadPool, ns/task",
        "ablation_spin": "Waiting policy ablation, ns/transfer",
        "ablation_pooling": "Reclamation and pooling ablation, ns/transfer",
        "ablation_elimination": "Elimination ablation, ns/transfer",
        "throughput_sweep": "Throughput (transfers/sec)",
    }

    made = 0
    for path in sorted(src.glob("*.json")):
        name = path.stem
        loaded = load(path)
        if not loaded or not loaded[2]:
            continue
        xlabel, xs, series = loaded
        fig, ax = plt.subplots(figsize=(6, 4))
        for label, (ys, err) in series.items():
            ax.errorbar(xs, ys, yerr=err, marker="o", capsize=2, label=label)
        ax.set_xlabel(xlabel)
        ax.set_ylabel("ns" if "ns" in titles.get(name, "ns") else "value")
        ax.set_title(titles.get(name, name))
        ax.legend(fontsize=7)
        ax.grid(True, alpha=0.3)
        fig.tight_layout()
        fig.savefig(out / f"{name}.png", dpi=130)
        plt.close(fig)
        made += 1
        print(f"wrote {out / (name + '.png')}")
    if not made:
        print(f"no plottable JSON files under {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
