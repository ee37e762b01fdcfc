"""Independent checks of the program's outputs.

Nothing here imports ``atcopt``.  The stencils come from the operator
definitions (``-k1*D1 - k2*D2`` on the atomistic window, ``-k_c*D1`` with
``k_c = k1 + 4*k2`` on the continuum window), the window solves use a
general banded LU instead of the program's banded Cholesky, and the CSV
files are read by the small reader below.  Tolerances follow from machine
epsilon and the conditioning of the window operators, never from a
stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

EPS = float(np.finfo(float).eps)
# A backward-stable banded solve leaves a normwise backward error of about
# one eps; 16 eps leaves room for a different LAPACK build.
BACKWARD_EPS = 16.0
# Componentwise backward error, in eps, allowed for each window solve behind
# the controls: a banded LU or Cholesky of half-bandwidth hb <= 2 stays
# within about (2 hb + 1) unit roundoffs, 2.5 eps.
CONTROL_OMEGA = 4.0

SOLUTION_HEADER = ("atom_index", "u_atc", "u_a_op", "u_c_op")
SWEEP_HEADER = ("N", "K", "L", "gamma", "p", "err_atc", "err_model", "bound_rhs",
                "q_norm_est", "mismatch", "eps_scaled_err")
BATTERY_CHECKS = ("operator_identity", "reduced_system_pd", "lifting_stability",
                  "control_gap_inequalities", "mode_decomposition", "overlap_form",
                  "atomistic_consistent_equivalence", "independent_minimizer")


class OutputError(Exception):
    """An output of the program fails a check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


# ---------------------------------------------------------------------------
# stencils and window solves


def atomistic_stencil(k1: float, k2: float) -> tuple[float, ...]:
    """Coefficients ``(c0, c1, c2)`` of ``-k1*D1 - k2*D2`` at offsets 0, 1, 2."""
    return (2.0 * (k1 + k2), -k1, -k2)


def continuum_stencil(k1: float, k2: float) -> tuple[float, ...]:
    kc = k1 + 4.0 * k2
    return (2.0 * kc, -kc)


def apply_stencil(stencil, u: np.ndarray) -> np.ndarray:
    """The operator at every row whose stencil stays inside ``u``."""
    hb, n = len(stencil) - 1, len(u)
    out = stencil[0] * u[hb : n - hb]
    for k in range(1, hb + 1):
        out = out + stencil[k] * (u[hb - k : n - hb - k] + u[hb + k : n - hb + k])
    return out


def solve_window(stencil, f_rows: np.ndarray, left, right) -> np.ndarray:
    """Window values with ``left``/``right`` held on the outer ``hb`` sites each."""
    hb, n = len(stencil) - 1, len(f_rows)
    u = np.zeros(n + 2 * hb)
    u[:hb], u[n + hb :] = left, right
    rhs = f_rows - apply_stencil(stencil, u)  # Dirichlet data moved to the rhs
    ab = np.zeros((2 * hb + 1, n))
    ab[hb] = stencil[0]
    for k in range(1, hb + 1):
        ab[hb - k, k:] = stencil[k]
        ab[hb + k, :-k] = stencil[k]
    u[hb : n + hb] = solve_banded((hb, hb), ab, rhs)
    return u


def backward_error(stencil, u: np.ndarray, f_rows: np.ndarray) -> float:
    """Normwise backward error ``|r|inf / (|A|inf |u|inf + |f|inf)`` of a window state."""
    r = apply_stencil(stencil, u) - f_rows
    a_norm = abs(stencil[0]) + 2.0 * sum(abs(c) for c in stencil[1:])
    scale = a_norm * float(np.max(np.abs(u))) + float(np.max(np.abs(f_rows)))
    return float(np.max(np.abs(r))) / scale if scale > 0.0 else float(np.max(np.abs(r)))


def error_bound(stencil, u: np.ndarray, f_rows: np.ndarray, abs_inverse) -> np.ndarray:
    """``|A^-1| (|A| |u| + |f|)`` over the unknowns of a window state.

    Times ``omega``, it bounds the error of a solve whose componentwise
    backward error is at most ``omega`` (Skeel).  ``abs_inverse`` applies
    ``|A^-1|`` to a vector.
    """
    a_abs = tuple(abs(c) for c in stencil)
    return abs_inverse(apply_stencil(a_abs, np.abs(u)) + np.abs(f_rows))


def condition_bound(stencil, kc: float, n: int) -> float:
    """Upper bound on the 2-norm condition number of an ``n``-unknown window.

    Both operators are at least ``k_c`` times the discrete Laplacian, whose
    smallest eigenvalue is ``4 sin^2(pi / (2(n+1)))``.
    """
    a_norm = abs(stencil[0]) + 2.0 * sum(abs(c) for c in stencil[1:])
    return a_norm / (4.0 * kc * math.sin(math.pi / (2.0 * (n + 1))) ** 2)


# ---------------------------------------------------------------------------
# CSV reader


def read_csv(path, header) -> np.ndarray:
    """Rows of a numeric CSV as a float array; blank cells become NaN."""
    ncols = len(header)
    values = array("d")
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        _require(first == ",".join(header), f"{path}: header {first!r}")
        while chunk := fh.readlines(1 << 16):  # small chunks keep the peak RSS low
            _require(all(line.count(",") == ncols - 1 and line.endswith("\n")
                         for line in chunk), f"{path}: a row without {ncols} cells")
            # Blank cells become "nan"; ",,," needs two passes.
            text = "".join(chunk).replace(",,", ",nan,").replace(",,", ",nan,")
            text = text.replace(",\n", ",nan\n")
            try:
                values.extend(map(float, text.replace("\n", ",")[:-1].split(",")))
            except ValueError as exc:
                raise OutputError(f"{path}: {exc}") from exc
    return np.frombuffer(values, dtype=float).reshape(-1, ncols)


# ---------------------------------------------------------------------------
# `solve` outputs


class ExportReference:
    """The benchmark's own atomistic lifts and continuum ramp for one window split."""

    def __init__(self, N: int, K: int, L: int, k1: float, k2: float):
        self.N, self.K, self.L = N, K, L
        self.kc = k1 + 4.0 * k2
        self.atom = atomistic_stencil(k1, k2)
        self.cont = continuum_stencil(k1, k2)
        zero = np.zeros(L - 3)
        w1 = solve_window(self.atom, zero, (0.0, 0.0), (1.0, 0.0))
        w2 = solve_window(self.atom, zero, (0.0, 0.0), (0.0, 1.0))
        i = np.arange(K, L + 1, dtype=float)
        ramp = (N - 1 - i) / (N - 1 - K)  # zero-load continuum response, closed form
        self.responses = np.vstack([w1[K:], w2[K:], -ramp])
        self.kappa_a = condition_bound(self.atom, self.kc, L - 3)
        self.kappa_c = condition_bound(self.cont, self.kc, N - K - 2)

        # For the control check: the reduced Gram matrix and the error bounds
        # of the basis responses.  The continuum operator is an M-matrix, so
        # |A^-1| = A^-1 is one more solve; the atomistic window is small enough
        # for a dense inverse.
        self.gram = self.responses @ self.responses.T
        self.gram_eigenvalues = np.linalg.eigvalsh(self.gram)
        dense = np.diag(np.full(L - 3, self.atom[0]))
        for k in (1, 2):
            dense += np.diag(np.full(L - 3 - k, self.atom[k]), k)
            dense += np.diag(np.full(L - 3 - k, self.atom[k]), -k)
        self.abs_inverse_a = np.abs(np.linalg.inv(dense)).__matmul__
        full_ramp = (N - 1 - np.arange(K, N, dtype=float)) / (N - 1 - K)
        self.response_bounds = np.vstack([
            self.atomistic_bound(w1, zero), self.atomistic_bound(w2, zero),
            self.continuum_bound(full_ramp, np.zeros(N - K - 2))])

    def abs_inverse_c(self, v: np.ndarray) -> np.ndarray:
        return solve_window(self.cont, v, 0.0, 0.0)[1:-1]

    def atomistic_bound(self, u: np.ndarray, f_rows: np.ndarray) -> np.ndarray:
        """``error_bound`` of an atomistic window state, on the overlap [K, L]."""
        out = np.zeros(self.L + 1)
        out[2 : self.L - 1] = error_bound(self.atom, u, f_rows, self.abs_inverse_a)
        return out[self.K :]

    def continuum_bound(self, u: np.ndarray, f_rows: np.ndarray) -> np.ndarray:
        """``error_bound`` of a continuum window state, on the overlap [K, L]."""
        out = np.zeros(self.L - self.K + 1)
        out[1:] = error_bound(self.cont, u, f_rows, self.abs_inverse_c)[: self.L - self.K]
        return out


def check_controls(ref: ExportReference, force: np.ndarray, theta: np.ndarray) -> None:
    """Compare the controls with the benchmark's own reduced 3x3 solve.

    The own solve minimizes the overlap mismatch of its own window states.
    The tolerance is a first-order bound on the control error that window
    solves with componentwise backward error ``CONTROL_OMEGA`` eps cause,
    counted once for the program and once for the own solves, plus the
    rounding of both 3x3 solves.
    """
    N, K, L = ref.N, ref.K, ref.L
    f_a, f_c = force[2 : L - 1], force[K + 1 : N - 1]
    ua0 = solve_window(ref.atom, f_a, (0.0, 0.0), (0.0, 0.0))
    uc0 = solve_window(ref.cont, f_c, 0.0, 0.0)
    gap = ua0[K:] - uc0[: L - K + 1]
    own = -np.linalg.solve(ref.gram, ref.responses @ gap)
    mismatch = gap + ref.responses.T @ own

    lam_min, lam_max = ref.gram_eigenvalues[0], ref.gram_eigenvalues[-1]
    omega = CONTROL_OMEGA * EPS
    d_gap = ref.atomistic_bound(ua0, f_a) + ref.continuum_bound(uc0, f_c)
    d_gap += np.abs(own) @ ref.response_bounds
    d_theta = omega * (np.linalg.norm(d_gap) / math.sqrt(lam_min)
                       + np.linalg.norm(ref.response_bounds) * np.linalg.norm(mismatch) / lam_min)
    tol = 2.0 * (d_theta + 8.0 * EPS * lam_max / lam_min * float(np.linalg.norm(own)))
    err = float(np.linalg.norm(theta - own))
    _require(err <= tol, f"controls {theta.tolist()} differ from own {own.tolist()} "
                         f"by {err:.3e} > {tol:.3e}")


def check_solution(ref: ExportReference, force: np.ndarray, csv_path, summary_path) -> None:
    """Check ``solution.csv`` and ``summary.json`` of one coupled solve."""
    N, K, L = ref.N, ref.K, ref.L
    data = read_csv(csv_path, SOLUTION_HEADER)
    _require(data.shape[0] == N + 1, f"{csv_path}: {data.shape[0]} rows, expected {N + 1}")
    idx, u_atc, u_a, u_c = data.T
    _require(np.array_equal(idx, np.arange(N + 1)), "atom_index is not 0..N")
    sites = np.arange(N + 1)
    _require(np.array_equal(~np.isnan(u_a), sites <= L), "u_a_op is not given exactly on [0, L]")
    _require(np.array_equal(~np.isnan(u_c), (sites >= K) & (sites <= N - 1)),
             "u_c_op is not given exactly on [K, N-1]")
    _require(bool(np.all(np.isfinite(u_atc))), "u_atc has blank or non-finite entries")
    _require(np.array_equal(u_atc[: L + 1], u_a[: L + 1]), "u_atc differs from u_a_op on [0, L]")
    _require(np.array_equal(u_atc[L + 1 : N], u_c[L + 1 : N]),
             "u_atc differs from u_c_op on [L+1, N-1]")
    _require(u_atc[N] == 0.0 and u_a[0] == u_a[1] == 0.0 and u_c[N - 1] == 0.0,
             "pinned boundary atoms moved")

    summary = json.loads(Path(summary_path).read_text())
    _require((summary["N"], summary["K"], summary["L"]) == (N, K, L), "summary N/K/L")
    controls = summary["controls"]
    theta = np.array([controls["theta_a_lm1"], controls["theta_a_l"], controls["theta_c_k"]])
    _require(np.array_equal(theta, [u_a[L - 1], u_a[L], u_c[K]]),
             f"controls {theta.tolist()} differ from u_a[L-1], u_a[L], u_c[K]")

    ua, uc = u_a[: L + 1], u_c[K:N]
    beta_a = backward_error(ref.atom, ua, force[2 : L - 1])
    beta_c = backward_error(ref.cont, uc, force[K + 1 : N - 1])
    for name, beta in (("atomistic", beta_a), ("continuum", beta_c)):
        _require(beta <= BACKWARD_EPS * EPS,
                 f"{name} window backward error {beta:.3e} > {BACKWARD_EPS:g} eps")

    # Optimality: the overlap mismatch is orthogonal to each basis response.
    # Rounding in the window states, amplified by their conditioning, is the
    # only admissible deviation.
    d = ua[K:] - uc[: L - K + 1]
    m = d.size
    state_err = math.sqrt(m) * EPS * (ref.kappa_a * float(np.max(np.abs(ua)))
                                      + ref.kappa_c * float(np.max(np.abs(uc))))
    norms = np.linalg.norm(ref.responses, axis=1)
    gaps = np.abs(ref.responses @ d)
    tol = 4.0 * norms * state_err
    _require(bool(np.all(gaps <= tol)),
             f"overlap mismatch not orthogonal to the responses: {gaps} > {tol}")
    check_controls(ref, force, theta)


# ---------------------------------------------------------------------------
# `sweep` outputs


class SweepReference:
    """Own full-atomistic and continuum solves at one rung of the sweep."""

    def __init__(self, N: int, K: int, L: int, force: np.ndarray, k1: float, k2: float):
        self.N = N
        atom, cont = atomistic_stencil(k1, k2), continuum_stencil(k1, k2)
        kc = k1 + 4.0 * k2
        u_ref = solve_window(atom, force[2 : N - 1], (0.0, 0.0), (0.0, 0.0))
        u_c = solve_window(cont, force[K + 1 : N - 1], u_ref[K], 0.0)  # on [K, N-1]
        self.err_model = float(np.linalg.norm(u_ref[K:N] - u_c))
        # forward error of either solve is at most about cond * eps * |u|
        self.tol = 4.0 * math.sqrt(N) * EPS * float(np.max(np.abs(u_ref))) * (
            condition_bound(atom, kc, N - 3) + condition_bound(cont, kc, N - K - 2))


def loglog_slope(x, y) -> float:
    x, y = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    xm = x - x.mean()
    return float(xm @ (y - y.mean()) / (xm @ xm))


def check_sweep(csv_path, ns, windows, ref: SweepReference, slope_max_n: int) -> None:
    """Check one ``sweep.csv`` against the method's properties and own solves."""
    rows = read_csv(csv_path, SWEEP_HEADER)
    _require(rows.shape[0] == len(ns), f"{rows.shape[0]} rows, expected {len(ns)}")
    col = {name: rows[:, j] for j, name in enumerate(SWEEP_HEADER)}
    _require(np.array_equal(col["N"], ns), f"N column {col['N'].tolist()}")
    _require(np.array_equal(col["K"], [k for k, _ in windows])
             and np.array_equal(col["L"], [l for _, l in windows]), "K/L columns")
    bad = col["N"][col["err_atc"] > col["bound_rhs"]]
    _require(bad.size == 0, f"err_atc > bound_rhs at N = {bad.tolist()}")
    low = col["N"] <= slope_max_n
    slope = loglog_slope(1.0 / col["N"][low], col["eps_scaled_err"][low])
    _require(1.5 < slope <= 2.0, f"error slope {slope:.4f} over N <= {slope_max_n} not in (1.5, 2]")
    got = float(col["err_model"][list(ns).index(ref.N)])
    _require(abs(got - ref.err_model) <= ref.tol,
             f"err_model at N={ref.N}: {got!r} vs own {ref.err_model!r} (tol {ref.tol:.2e})")


# ---------------------------------------------------------------------------
# `verify` outputs


class BatteryReference:
    """Own minimum eigenvalue of the reduced (overlap Gram) system."""

    def __init__(self, N: int, K: int, L: int, k1: float, k2: float):
        self.N, self.K, self.L = N, K, L
        resp = ExportReference(N, K, L, k1, k2)
        gram = resp.responses @ resp.responses.T
        eig = np.linalg.eigvalsh(gram)
        self.min_eigenvalue = float(eig[0])
        # the lifts carry relative errors up to cond * eps; the Gram doubles them
        self.tol = 8.0 * EPS * resp.kappa_a * float(eig[-1])


def check_scorecard(path, ref: BatteryReference) -> None:
    card = json.loads(Path(path).read_text())
    cfg = card["config"]
    _require((cfg["N"], cfg["K"], cfg["L"]) == (ref.N, ref.K, ref.L), "scorecard N/K/L")
    names = tuple(c["name"] for c in card["checks"])
    _require(sorted(names) == sorted(BATTERY_CHECKS), f"battery checks {names}")
    failed = [c["name"] for c in card["checks"] if c["passed"] is not True]
    _require(not failed and card["all_passed"] is True, f"failed checks {failed}")
    got = next(c["measured"] for c in card["checks"] if c["name"] == "reduced_system_pd")
    _require(abs(got - ref.min_eigenvalue) <= ref.tol,
             f"reduced_system_pd {got!r} vs own {ref.min_eigenvalue!r} (tol {ref.tol:.2e})")


# ---------------------------------------------------------------------------
# checker process


def make_checker(workload: str, outdir: Path):
    """Reference data for the workload and a function checking one operation."""
    from workloads import (EXPORT_N, K1, K2, SLOPE_MAX_N, SWEEP_NS, VERIFY_N,
                           derived_windows, force_array)

    if workload == "export":
        ref = ExportReference(EXPORT_N, *derived_windows(EXPORT_N), K1, K2)
        return lambda op: check_solution(
            ref, force_array(op.N, op.force), outdir / "solution.csv", outdir / "summary.json")
    if workload == "verify":
        ref = BatteryReference(VERIFY_N, *derived_windows(VERIFY_N), K1, K2)
        return lambda op: check_scorecard(outdir / "scorecard.json", ref)

    rung = 1600
    ref = SweepReference(rung, *derived_windows(rung),
                         force_array(rung, "sines:1,0,-3") / rung**2, K1, K2)
    windows = [derived_windows(n) for n in SWEEP_NS]
    first: list[bytes] = []

    def check_sweep_op(op):
        data = (outdir / "sweep.csv").read_bytes()
        if not first:
            first.append(data)
            check_sweep(outdir / "sweep.csv", np.array(SWEEP_NS), windows, ref, SLOPE_MAX_N)
        elif data != first[0]:
            raise OutputError("sweep.csv differs from the run's first")

    return check_sweep_op


def serve(workload: str, outdir: str) -> None:
    """Check the outputs of one operation per line of standard input.

    After ``ready``, each input line is a JSON ``workloads.Op`` and each answer
    is a JSON string, empty when every check passed.  The benchmark runs this in a child
    process, so that the checks' memory stays out of its ``peak_rss_mb``.
    """
    from workloads import Op

    check = make_checker(workload, Path(outdir))
    print("ready", flush=True)
    for line in sys.stdin:
        op = Op(**json.loads(line))
        try:
            check(op)
            answer = ""
        except (OutputError, OSError, KeyError, ValueError) as exc:
            answer = f"{op.force or op.kind}: {exc}"
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    serve(*sys.argv[1:])
