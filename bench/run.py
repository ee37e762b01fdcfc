#!/usr/bin/env python3
"""Closed-loop benchmark of the ``atcopt`` CLI.

    python3 bench/run.py --workload export --seed 1 --seconds 25 --trace 0

One client in one process calls ``atcopt.cli.main([...])`` in-process;
each operation starts when the previous one ends.  The arguments come
from ``--seed`` (see ``workloads.py``).  Every output of every completed
operation is checked outside the timed region, in a child process (see
``checks.py``).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.
The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # banded solves of bandwidth <= 2 gain nothing from BLAS threads
SETUP_SAMPLES = 7  # one import varies by +-25%; take the median of seven
MIN_COMPLETED = 40  # enough for a tail with ten operations beyond it
TAIL_BEYOND = 10
# (workload, input family, exit code) of failures that are counted but do not
# make a run incorrect: the program's absolute residual test rejects every
# unscaled sine:M load at N = 100,000 (see CHANGES.md).
EXPECTED_FAILURES = {("export", "sine", 3)}

END_TO_END_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "atoms_per_s": "atoms/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "lattice.build_s": "s", "lattice.field_mb": "MiB",
    "operators.assemblies": "count", "operators.assemble_s": "s",
    "operators.matvecs": "count",
    "solvers.factorizations": "count", "solvers.factorizations_per_operator": "ratio",
    "solvers.factored_rows": "rows", "solvers.factor_s": "s",
    "solvers.trisolves": "count", "solvers.trisolve_s": "s",
    "coupling.reduce_s": "s", "coupling.recover_s": "s",
    "coupling.factorizations_per_solve": "count",
    "analysis.factorizations_per_study": "count",
    "analysis.factorizations_per_battery": "count",
    "coupling.csv_s": "s", "coupling.json_s": "s", "coupling.export_mb": "MiB",
    "analysis.error_study_s": "s", "analysis.stability_s": "s",
    "analysis.fd_newton_s": "s", "analysis.consistent_s": "s",
    "output.format_s": "s", "output.write_s": "s", "output.mb": "MiB",
    "cli.self_s": "s", "trace.op_p50_s": "s", "trace.overhead": "ratio",
}


class Record(NamedTuple):
    op: object  # workloads.Op
    exit_code: int
    seconds: float
    traced: bool
    figures: dict | None  # per-layer figures of a traced operation

    @property
    def completed(self) -> bool:
        return self.exit_code == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("export", "sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure, in whole rounds and at least "
                             f"{MIN_COMPLETED} completed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--atcopt-threads", type=int, default=None,
                        help="ATCOPT_THREADS for the program (default: unset)")
    return parser.parse_args(argv)


def fresh_import_seconds(env: dict) -> float:
    """Seconds from starting an interpreter to ``import atcopt, atcopt.cli`` done."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import atcopt, atcopt.cli"], cwd=ROOT,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return dt


def tail(done: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(done)
    k = len(s) - 1 - TAIL_BEYOND
    return s[k], 100.0 * (k + 1) / len(s)


def median(values) -> float:
    """Median, or 0 when a failing run left no sample (its result is incorrect)."""
    return statistics.median(values) if values else 0.0


def start_checker(workload: str, outdir: Path) -> subprocess.Popen:
    """The output checks in a child process: one JSON operation in, one answer out.

    Returns once the child has built its reference data, so that it takes
    no CPU time while operations are timed.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "checks.py"), workload, str(outdir)],
                            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline() != "ready\n":
        stop(proc)
        raise RuntimeError("the checker process did not start")
    return proc


def stop(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "atcopt" / "__init__.py").is_file():
        print(f"error: the atcopt sources are not in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    os.environ.pop("ATCOPT_THREADS", None)
    if args.atcopt_threads is not None:
        os.environ["ATCOPT_THREADS"] = str(args.atcopt_threads)
    sys.path.insert(0, str(SRC))

    import atcopt.cli

    if Path(atcopt.__file__).resolve().parent != SRC / "atcopt":
        print(f"error: imported atcopt from {atcopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    outdir = HERE / ".tmp" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    checker = start_checker(args.workload, outdir)
    try:
        lines, result = measure(args, outdir, atcopt.cli, checker)
    finally:
        stop(checker)
        shutil.rmtree(outdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def measure(args, outdir: Path, cli, checker: subprocess.Popen) -> tuple[list[str], dict]:
    import numpy
    import scipy

    from workloads import rounds

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    def run_op(op, traced: bool):
        """Exit code, seconds and the last line the program printed."""
        for path in outdir.iterdir():
            path.unlink()
        gc.collect()
        sink = io.StringIO()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                try:
                    rc = cli.main(op.argv(outdir))
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed operation
                    rc = -1
                    print(f"{type(exc).__name__}: {exc}")
                dt = perf_counter() - t0
        finally:
            if traced:
                tracer.remove()
        return rc, dt, (sink.getvalue().strip().splitlines() or [""])[-1]

    def check(op) -> str:
        """The checker's answer for a completed operation: empty when it passed."""
        try:
            checker.stdin.write(json.dumps(dataclasses.asdict(op)) + "\n")
            checker.stdin.flush()
            answer = checker.stdout.readline()
        except OSError as exc:
            return f"checker process: {exc}"
        return json.loads(answer) if answer else "checker process ended"

    setup: list[float] = []
    if not args.trace:
        fresh_import_seconds(env)  # warms the file cache, not counted
    run_op(next(rounds(args.workload, args.seed))[0], False)  # warm-up, not counted or checked

    records: list[Record] = []
    errors: list[str] = []
    measured = 0.0
    for r, ops in enumerate(rounds(args.workload, args.seed)):
        # Import samples are spread over the run like the operations are.
        while not args.trace and len(setup) < SETUP_SAMPLES and \
                measured >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(fresh_import_seconds(env))
        traced = bool(args.trace) and r % 2 == 1
        for op in ops:
            rc, dt, last_line = run_op(op, traced)
            measured += dt
            records.append(Record(op, rc, dt, traced, tracer.snapshot() if traced else None))
            if rc == 0:
                if answer := check(op):
                    errors.append(answer)
            elif (args.workload, op.kind, rc) not in EXPECTED_FAILURES:
                errors.append(f"{op.force or op.kind}: exit {rc}: {last_line}")
        # A run that has gone wrong stops after --seconds, however few completed.
        if measured >= args.seconds and (
                errors or sum(rec.completed for rec in records) >= MIN_COMPLETED):
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(fresh_import_seconds(env))

    failed: dict = {}
    for rec in records:
        if not rec.completed:
            key = (rec.op.kind, rec.exit_code)
            failed[key] = failed.get(key, 0) + 1
    n_failed = sum(failed.values())
    lines = [
        f"workload {args.workload}, seed {args.seed}, {len(records)} operations in "
        f"{measured:.3f} s measured, trace {args.trace}",
        f"threads: {' '.join(f'{v}={os.environ[v]}' for v in THREAD_VARS)} "
        f"ATCOPT_THREADS={os.environ.get('ATCOPT_THREADS', 'unset')} nproc={os.cpu_count()}",
        f"versions: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}",
        f"failed: {n_failed} of {len(records)}"
        + "".join(f"; {n} x {kind} exit {rc}" for (kind, rc), n in sorted(failed.items())),
    ]
    lines += [f"check failed: {e}" for e in errors[:20]]

    if args.trace:
        traced = [rec for rec in records if rec.traced and rec.completed]
        plain = [rec.seconds for rec in records if not rec.traced and rec.completed]
        units = PER_LAYER_UNITS
        figures = {name: median([rec.figures[name] for rec in traced])
                   for name in units if not name.startswith("trace.")}
        figures["trace.op_p50_s"] = median([rec.seconds for rec in traced])
        figures["trace.overhead"] = (figures["trace.op_p50_s"] / median(plain) - 1.0
                                     if traced and plain else 0.0)
        lines.append(f"traced {len(traced)} and untraced {len(plain)} completed operations, "
                     "alternating by round; per-operation medians:")
    else:
        done = [rec.seconds for rec in records if rec.completed]
        tail_s, pct = tail(done) if len(done) > TAIL_BEYOND else (0.0, 0.0)
        figures = {
            "op_p50_s": median(done),
            "op_tail_s": tail_s,
            "atoms_per_s": sum(rec.op.atoms for rec in records if rec.completed) / measured,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        lines.append(f"op_tail_s is the p{pct:.1f} of {len(done)} completed operations "
                     f"({TAIL_BEYOND} beyond it); setup_s is the median of {len(setup)} "
                     "fresh interpreters")
    lines += [f"  {name} {figures[name]:.6g} {unit}" for name, unit in units.items()]
    result = {"correct": not errors, "attempted": len(records), "failed": n_failed,
              "metrics": {name: {"value": figures[name], "unit": unit}
                          for name, unit in units.items()}}
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
