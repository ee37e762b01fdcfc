"""Command-line driver: coupled solves, patch test, verification, sweeps.

Flags mirror the config-file keys one to one with precedence
flags > file > defaults.  Output files are written atomically.  Exit
codes: 0 success, 1 validation error, 2 failed verification, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import analysis, coupling, solvers
from .lattice import (
    build_chain,
    decompose,
    load_config,
    materialize_force,
    validate_assumptions,
)

DEFAULTS = {
    "N": None,
    "k1": 1.0,
    "k2": -1.0 / 6.0,
    "K": None,
    "L": None,
    "p": 2.0,
    "gamma": 0.5,
    "c": 2.0,
    "force": None,
    "F": 0.01,
    "seed": 0,
    "N_list": None,
}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_SOLVER = 3


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atcopt",
        description="Optimization-based atomistic-to-continuum coupling on a 1D chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON or key = value config file")
        p.add_argument("--N", type=int, help="last atom index (atoms 0..N)")
        p.add_argument("--k1", type=float, help="first-neighbor stiffness (> 0)")
        p.add_argument("--k2", type=float, help="second-neighbor stiffness (< 0)")
        p.add_argument("--K", type=int, help="left interface index")
        p.add_argument("--L", type=int, help="right interface index")
        p.add_argument("--p", type=float, help="window growth exponent")
        p.add_argument("--gamma", type=float, help="overlap ratio used to derive K")
        p.add_argument("--c", type=float, help="window growth constant")
        p.add_argument(
            "--force",
            help="load preset: zero | point:I:MAG | sine:M | sines:A1,A2,... | "
            "poly:C0,C1,... | csv:PATH | table:PATH",
        )
        p.add_argument("--seed", type=int, help="seed for randomized checks")
        p.add_argument(
            "--tolerance",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a verification tolerance (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="run the coupled solve and export results")
    add_common(p_solve)
    p_solve.add_argument("--solution-csv", default="solution.csv")
    p_solve.add_argument("--summary-json", default="summary.json")

    p_patch = sub.add_parser("patch-test", help="uniform-strain reproduction check")
    add_common(p_patch)
    p_patch.add_argument("--F", type=float, help="strain increment")
    p_patch.add_argument("--summary-json", default="summary.json")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    add_common(p_verify)
    p_verify.add_argument("--scorecard-json", default="scorecard.json")

    p_sweep = sub.add_parser("sweep", help="error study across chain sizes")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--N-list", help="comma-separated chain sizes, e.g. 100,400,1600"
    )
    p_sweep.add_argument("--sweep-csv", default="sweep.csv")
    p_sweep.add_argument(
        "--raw-load",
        action="store_true",
        help="skip the 1/N^2 load normalization of the shrinking-spacing limit",
    )
    return parser


def _names(key: str) -> str:
    return f"flag --{key.replace('_', '-')}, config key {key}"


def _number(key: str, value, kind):
    """``value`` as an int or a finite float, or an error naming ``key``."""
    try:
        x = kind(value)
        if not isinstance(value, bool) and math.isfinite(x) and x == float(value):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{key} = {value!r} ({_names(key)}): expected {what}")


def _merged_settings(args: argparse.Namespace) -> dict:
    """Every setting by precedence flags > file > defaults, validated once.

    Values are coerced to their types and range-checked; each error names
    the flag and the config key.
    """
    s = dict(DEFAULTS)
    if args.config:
        s.update(load_config(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            s[key] = value
    unknown = sorted(set(s) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    for key in ("N", "K", "L", "seed"):
        if s[key] is not None:
            s[key] = _number(key, s[key], int)
    for key in ("k1", "k2", "p", "gamma", "c", "F"):
        s[key] = _number(key, s[key], float)
    if s["N_list"] is not None:
        items = s["N_list"] if isinstance(s["N_list"], list) else str(s["N_list"]).split(",")
        s["N_list"] = tuple(_number("N_list", x, int) for x in items if str(x).strip())
    for key, ok, rule in (
        ("N", s["N"] is None or s["N"] >= 4, "need N >= 4"),
        ("N_list", s["N_list"] is None or (s["N_list"] and min(s["N_list"]) >= 4),
         "need chain sizes N >= 4"),
        ("p", s["p"] > 0, "need p > 0"),
        ("gamma", 0 < s["gamma"] < 1, "need 0 < gamma < 1"),
        ("c", s["c"] > 0, "need c > 0"),
        ("seed", s["seed"] >= 0, "need seed >= 0"),
        ("K", (s["K"] is None) == (s["L"] is None), "need K and L both given or both omitted"),
    ):
        if not ok:
            raise ValueError(f"{key} = {s[key]!r} ({_names(key)}): {rule}")
    return s


def _tolerance_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for item in getattr(args, "tolerance", []):
        key, sep, value = item.partition("=")
        try:
            overrides[key.strip()] = float(value if sep else "")
        except ValueError:
            raise ValueError(f"tolerance override {item!r} (flag --tolerance): "
                             "expected KEY=NUMBER") from None
    return overrides


def _chain_and_decomp(settings: dict):
    N = settings["N"]
    if N is None:
        raise ValueError("chain size N is required (flag --N or config key N)")
    try:
        force = materialize_force(N, settings["force"])
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"force = {settings['force']!r} ({_names('force')}): {exc}") from None
    chain = build_chain(N, settings["k1"], settings["k2"], force)
    K, L = settings["K"], settings["L"]
    if K is None:
        K, L = analysis.sweep_windows(N, settings["p"], settings["gamma"], settings["c"])
        print(f"derived interfaces K={K}, L={L}", file=sys.stderr)
    decomp = decompose(chain, K, L)
    report = validate_assumptions(decomp, settings["p"], settings["c"])
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return chain, decomp


def _cmd_solve(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    chain, decomp = _chain_and_decomp(settings)
    result = coupling.solve_atc(chain, decomp)
    _atomic_write(args.solution_csv, coupling.atc_csv_text(result, decomp))
    _atomic_write(args.summary_json, coupling.atc_summary_json(result, decomp))
    print(
        f"solved N={decomp.N} K={decomp.K} L={decomp.L}: "
        f"mismatch {result.mismatch:.6e}, wrote {args.solution_csv} and {args.summary_json}"
    )
    return EXIT_OK


def _cmd_patch_test(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    chain, decomp = _chain_and_decomp(settings)
    if chain.force.any():
        raise ValueError(f"force = {settings['force']!r} ({_names('force')}): "
                         "the patch test needs a zero load")
    report = analysis.patch_test(chain, decomp, settings["F"])
    payload = {
        "N": decomp.N,
        "K": decomp.K,
        "L": decomp.L,
        "F": report.F,
        "max_deviation": report.max_deviation,
        "mismatch": report.mismatch,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    _atomic_write(args.summary_json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    status = "passed" if report.passed else "FAILED"
    print(
        f"patch test {status}: max deviation {report.max_deviation:.3e} "
        f"(tolerance {report.tolerance:.3e}), mismatch {report.mismatch:.3e}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_verify(args: argparse.Namespace) -> int:
    settings, tolerances = _merged_settings(args), _tolerance_overrides(args)
    chain, decomp = _chain_and_decomp(settings)
    checks = analysis.verification_battery(
        chain, decomp, seed=settings["seed"], tolerances=tolerances
    )
    scorecard = {
        "config": {"N": decomp.N, "K": decomp.K, "L": decomp.L,
                   "k1": chain.k1, "k2": chain.k2},
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "measured": c.measured,
                "tolerance": c.tolerance,
                "detail": c.detail,
            }
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    _atomic_write(args.scorecard_json, json.dumps(scorecard, indent=2, sort_keys=True) + "\n")
    for c in checks:
        print(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.measured:.3e} ({c.detail})")
    if scorecard["all_passed"]:
        print(f"all {len(checks)} checks passed; wrote {args.scorecard_json}")
        return EXIT_OK
    print("verification failed", file=sys.stderr)
    return EXIT_VERIFICATION


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    if settings["N_list"] is None:
        raise ValueError("sweep needs --N-list (or config key N_list)")
    config = analysis.SweepConfig(
        N_values=settings["N_list"],
        p=settings["p"],
        gamma=settings["gamma"],
        c=settings["c"],
        k1=settings["k1"],
        k2=settings["k2"],
        # with no load given, the sweep keeps its own smooth default
        force=analysis.SweepConfig.force if settings["force"] is None else settings["force"],
        normalize_load=not args.raw_load,
    )
    result = analysis.convergence_sweep(config)
    if not result.rows:
        raise ValueError(f"no feasible chain size in N_list ({_names('N_list')}): "
                         + "; ".join(result.skipped))
    _atomic_write(args.sweep_csv, analysis.study_rows_csv_text(result.rows))
    for note in result.skipped:
        print(f"skipped {note}", file=sys.stderr)
    print(
        f"swept {len(result.rows)} sizes: error slope {result.error_slope:.3f} "
        f"vs spacing, recovery-norm slope {result.q_norm_slope:.3f} vs N; "
        f"wrote {args.sweep_csv}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "patch-test": _cmd_patch_test,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (solvers.SolverError, coupling.CouplingError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
