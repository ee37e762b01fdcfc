#!/usr/bin/env python3
"""Regenerate the reference figures quoted in bench/README.md.

    python3 bench/reference.py [--runs 10] [--seconds S]

Runs ``bench/run.py`` for every workload with seeds 1..runs (workloads
interleaved within each seed), one traced run per workload, and the
sweep with ``ATCOPT_THREADS=2`` against unset in alternating pairs.  It
prints Markdown tables and writes every raw result to
``bench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("export", "sweep", "verify")


def run(workload: str, seed: int, seconds: int, trace: int = 0, threads=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--atcopt-threads", str(threads)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    print(f"{workload} seed {seed} trace {trace} threads {threads}: {lines[-1]}",
          file=sys.stderr, flush=True)
    return result


def spread(values) -> tuple[float, float]:
    """Median, and the quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--thread-pairs", type=int, default=5)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    plain = {w: [] for w in WORKLOADS}
    for seed in range(1, args.runs + 1):
        for w in WORKLOADS:
            plain[w].append(run(w, seed, args.seconds))
    traced = {w: run(w, 1, args.seconds, trace=1) for w in WORKLOADS}
    threads = {"unset": [], "2": []}
    for k in range(args.thread_pairs):
        order = (None, 2) if k % 2 == 0 else (2, None)
        for t in order:
            threads["unset" if t is None else "2"].append(
                run("sweep", 100 + k, args.seconds, threads=t))

    print("## End-to-end metrics, "
          f"{args.runs} runs per workload of {args.seconds} s, seeds 1..{args.runs}\n")
    print("| workload | metric | median | spread (Q3-Q1)/median | bound | failed/attempted |")
    print("|---|---|---|---|---|---|")
    for w in WORKLOADS:
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in plain[w]})
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in plain[w]]
            med, sp = spread(vals)
            unit = plain[w][0]["metrics"][name]["unit"]
            print(f"| {w} | {name} | {med:.4g} {unit} | {sp:.3f} | {bounds[name]} | "
                  f"{', '.join(shares) if name == 'op_p50_s' else ''} |")

    print("\n## Per-layer metrics (traced run, seed 1; medians per operation)\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, metric in traced[WORKLOADS[0]]["metrics"].items():
        cells = [f"{traced[w]['metrics'][name]['value']:.3g}" for w in WORKLOADS]
        print(f"| {name} | {metric['unit']} | " + " | ".join(cells) + " |")

    p50 = {k: statistics.median(r["metrics"]["op_p50_s"]["value"] for r in v)
           for k, v in threads.items()}
    print(f"\n## Sweep thread pool ({args.thread_pairs} alternating pairs)\n")
    print(f"op_p50_s with ATCOPT_THREADS unset {p50['unset']:.4f} s, with 2 {p50['2']:.4f} s: "
          f"speed-up {p50['unset'] / p50['2']:.3f}x")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(
        {"plain": plain, "traced": traced, "threads": threads}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
