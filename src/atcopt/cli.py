"""Command-line driver: coupled solves, patch test, verification, sweeps.

Flags mirror the config-file keys one to one with precedence
flags > file > defaults.  Output files are written atomically.  Exit
codes: 0 success, 1 validation error, 2 failed verification, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import analysis, coupling, solvers
from .lattice import (
    build_chain,
    decompose,
    load_config,
    validate_assumptions,
)

DEFAULTS = {
    "k1": 1.0,
    "k2": -1.0 / 6.0,
    "p": 2.0,
    "gamma": 0.5,
    "c": 2.0,
    "force": "zero",
    "F": 0.01,
    "seed": 0,
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
            help="load preset: zero | point:I:MAG | sine:M | poly:C0,C1,... | csv:PATH",
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


def _merged_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(load_config(args.config))
    for key in ("N", "k1", "k2", "K", "L", "p", "gamma", "c", "force", "seed", "F"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _tolerance_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for item in getattr(args, "tolerance", []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"tolerance override {item!r} is not KEY=VALUE")
        overrides[key.strip()] = float(value)
    return overrides


def _chain_and_decomp(settings: dict):
    if "N" not in settings or settings.get("N") is None:
        raise ValueError("chain size N is required (flag --N or config key N)")
    N = int(settings["N"])
    chain = build_chain(N, float(settings["k1"]), float(settings["k2"]),
                        _force_from_settings(settings))
    if settings.get("K") is not None and settings.get("L") is not None:
        K, L = int(settings["K"]), int(settings["L"])
    else:
        K, L = analysis.sweep_windows(
            N, float(settings["p"]), float(settings["gamma"]), float(settings["c"])
        )
        print(f"derived interfaces K={K}, L={L}", file=sys.stderr)
    decomp = decompose(chain, K, L)
    report = validate_assumptions(decomp, float(settings["p"]), float(settings["c"]))
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return chain, decomp


def _force_from_settings(settings: dict):
    force = settings.get("force", "zero")
    if isinstance(force, dict) or force is None:
        return force
    if "force.kind" in settings:
        return {"kind": settings["force.kind"], "params": settings.get("force.params", {})}
    return force


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
    settings["force"] = "zero"
    chain, decomp = _chain_and_decomp(settings)
    report = analysis.patch_test(chain, decomp, float(settings["F"]))
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
    settings = _merged_settings(args)
    chain, decomp = _chain_and_decomp(settings)
    checks = analysis.verification_battery(
        chain,
        decomp,
        seed=int(settings["seed"]),
        tolerances=_tolerance_overrides(args),
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
    if args.N_list:
        n_values = tuple(int(x) for x in args.N_list.split(",") if x.strip())
    elif "N_list" in settings:
        raw = settings["N_list"]
        n_values = tuple(int(x) for x in (raw.split(",") if isinstance(raw, str) else raw))
    else:
        raise ValueError("sweep needs --N-list (or config key N_list)")
    config = analysis.SweepConfig(
        N_values=n_values,
        p=float(settings["p"]),
        gamma=float(settings["gamma"]),
        c=float(settings["c"]),
        k1=float(settings["k1"]),
        k2=float(settings["k2"]),
        force=_force_from_settings(settings)
        if settings.get("force") != "zero"
        else "sines:1,0,-3",
        normalize_load=not args.raw_load,
    )
    result = analysis.convergence_sweep(config)
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
