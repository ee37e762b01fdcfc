"""Verification instruments for the coupled chain.

Everything here is a measurement with an independent target: closed-form
mode decompositions of the lifting solves, the exact interface-operator
norm on the three-dimensional control space, the overlap quadratic form
summed two ways, stability constants, the uniform-strain patch test, and
error/scaling studies against the fully atomistic reference solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
import scipy.linalg

from . import coupling, operators, solvers
from .lattice import (
    ChainModel,
    Decomposition,
    DisplacementField,
    OuterBoundary,
    decompose,
    materialize_force,
)

__all__ = [
    "characteristic_roots",
    "characteristic_polynomial",
    "ModeCoefficients",
    "mode_matrix",
    "mode_decomposition",
    "reconstruct_modes",
    "mode_reconstruction_residual",
    "alpha_coefficients",
    "two_mode_reconstruction_residual",
    "PatchTestReport",
    "patch_test",
    "estimate_q_norm",
    "q_norm_details",
    "OverlapFormReport",
    "overlap_quadratic_form",
    "limit_form_min_eigenvalue",
    "StabilityReport",
    "verify_stability",
    "fd_newton_controls",
    "StudyRow",
    "error_study",
    "error_split_report",
    "SweepConfig",
    "SweepResult",
    "convergence_sweep",
    "study_rows_csv_text",
    "loglog_slope",
    "CheckResult",
    "verification_battery",
]


# ---------------------------------------------------------------------------
# characteristic roots of the five-point zero-force recurrence


def characteristic_polynomial(k1: float, k2: float, sigma: float) -> float:
    return (
        -k2 * sigma**4
        - k1 * sigma**3
        + (2.0 * k1 + 2.0 * k2) * sigma**2
        - k1 * sigma
        - k2
    )


def characteristic_roots(k1: float, k2: float) -> tuple[float, float]:
    """Non-unit roots ``(lambda3, lambda4)`` with ``lambda4 < 1 < lambda3``.

    The discriminant ``k1*(k1 + 4*k2)`` is positive whenever the chain is
    stable, so both roots are real; their product is one.
    """
    disc = k1 * k1 + 4.0 * k1 * k2
    if not disc > 0.0:
        raise ValueError(f"discriminant k1*(k1+4*k2) = {disc} must be positive")
    s = math.sqrt(disc)
    lam3 = (k1 + 2.0 * k2 + s) / (-2.0 * k2)
    # rationalized form of (k1 + 2 k2 - s)/(-2 k2); no cancellation as k2 -> 0
    lam4 = -2.0 * k2 / (k1 + 2.0 * k2 + s)
    if not 0.0 < lam4 < 1.0 < lam3:
        raise ValueError(f"roots ({lam3}, {lam4}) violate the ordering 0 < lam4 < 1 < lam3")
    for lam in (lam3, lam4):
        scale = abs(k2) * lam**4 + k1 * lam**3 + (2 * k1 + 2 * abs(k2)) * lam**2 + k1 * lam + abs(k2)
        if abs(characteristic_polynomial(k1, k2, lam)) > 1e-12 * scale:
            raise ValueError(f"root {lam} fails the characteristic-polynomial residual check")
    return lam3, lam4


# ---------------------------------------------------------------------------
# closed-form mode decompositions of the atomistic lifting


@dataclass(frozen=True)
class ModeCoefficients:
    """Coefficients on the basis ``{n/L, (L-n)/L, lam**n, lam**(L-n)}``."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    lam: float
    matrix_condition: float

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3, self.beta4])


def mode_matrix(L: int, lam: float) -> np.ndarray:
    """Boundary-value matrix of the four modes at sites ``{0, 1, L-1, L}``."""
    return np.array(
        [
            [0.0, 1.0, 1.0, lam**L],
            [1.0 / L, (L - 1.0) / L, lam, lam ** (L - 1)],
            [(L - 1.0) / L, 1.0 / L, lam ** (L - 1), lam],
            [1.0, 0.0, lam**L, 1.0],
        ]
    )


def mode_decomposition(
    chain: ChainModel, decomp: Decomposition, theta_a: tuple[float, float]
) -> ModeCoefficients:
    """Expand the atomistic lifting on the four-mode basis.

    Solves the 4x4 boundary-value system; a huge condition number is
    flagged with a warning rather than a guessably thresholded error.
    """
    _, lam = characteristic_roots(chain.k1, chain.k2)
    t = mode_matrix(decomp.L, lam)
    cond = float(np.linalg.cond(t))
    if cond > 1e14:
        warnings.warn(
            f"mode boundary-value matrix is near singular (condition {cond:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    beta = np.linalg.solve(t, np.array([0.0, 0.0, theta_a[0], theta_a[1]]))
    return ModeCoefficients(*(float(b) for b in beta), lam, cond)


def reconstruct_modes(decomp: Decomposition, coeffs: ModeCoefficients) -> DisplacementField:
    """Evaluate the four-mode expansion on the atomistic window ``[0, L]``."""
    L = decomp.L
    n = np.arange(L + 1, dtype=float)
    lam = coeffs.lam
    v = (
        coeffs.beta1 * n / L
        + coeffs.beta2 * (L - n) / L
        + coeffs.beta3 * lam**n
        + coeffs.beta4 * lam ** (L - n)
    )
    return DisplacementField(0, L, v)


def _lifts(chain, decomp, system, rows: np.ndarray) -> np.ndarray:
    """Rows ``theta_1 w1 + theta_2 w2`` of the lifts of ``system`` (assembled when none)."""
    w1, w2 = (system or coupling.assemble_reduced_system(chain, decomp)).basis_liftings[:2]
    return rows[:, :1] * w1.values + rows[:, 1:] * w2.values


def mode_reconstruction_residual(
    chain: ChainModel, decomp: Decomposition, theta_a, system: coupling.ReducedSystem | None = None
) -> float:
    """Max deviation of the mode expansion from the numeric lifting.

    ``theta_a`` is one interface pair or rows of them; the numeric lifts
    combine the lifts of ``system`` (assembled when none is given).
    """
    rows = np.atleast_2d(np.asarray(theta_a, dtype=float))
    numeric = _lifts(chain, decomp, system, rows)
    modes = [reconstruct_modes(decomp, mode_decomposition(chain, decomp, tuple(t))) for t in rows]
    return float(np.max(np.abs(numeric - [m.values for m in modes])))


def alpha_coefficients(
    decomp: Decomposition, lam: float, theta_a: tuple[float, float]
) -> tuple[float, float]:
    """Coefficients of the dominant linear and scaled-exponential modes.

    Solves the 2x2 interface system fixing ``a1 * i/L`` and
    ``a2 * lam**(L-i) * sqrt(L-K)`` at sites ``{L-1, L}``.
    """
    L = decomp.L
    root = math.sqrt(decomp.L - decomp.K)
    m = np.array([[1.0 - 1.0 / L, lam * root], [1.0, root]])
    det = float(np.linalg.det(m))
    if abs(det) < 1e-14 * root:
        warnings.warn(
            f"two-mode interface system is near singular (det {det:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    a = np.linalg.solve(m, np.asarray(theta_a, dtype=float))
    return float(a[0]), float(a[1])


def two_mode_reconstruction_residual(
    chain: ChainModel, decomp: Decomposition, theta_a, system: coupling.ReducedSystem | None = None
) -> float:
    """Check the two-mode-plus-corrections expansion against the lifting.

    The linear and exponential modes meet the interface values exactly;
    a zero-load correction solve cancels their leftover values on the
    fixed pair ``{0, 1}``, one column per row of ``theta_a`` in one
    factorization.  The numeric lifts are as in
    :func:`mode_reconstruction_residual`.
    """
    _, lam = characteristic_roots(chain.k1, chain.k2)
    rows = np.atleast_2d(np.asarray(theta_a, dtype=float))
    L, K = decomp.L, decomp.K
    n = np.arange(L + 1, dtype=float)
    root = math.sqrt(L - K)
    modes = np.array([
        a1 * n / L + a2 * lam ** (L - n) * root
        for a1, a2 in (alpha_coefficients(decomp, lam, tuple(t)) for t in rows)
    ])
    leftover = -modes[:, :2].T.squeeze()  # one column per row; a single row solves 1-D
    correction = solvers.solve_window(
        chain, "atomistic", 0, L, 2, leftover, np.zeros_like(leftover), np.zeros(chain.N + 1)
    )
    numeric = _lifts(chain, decomp, system, rows)
    return float(np.max(np.abs(numeric - modes - correction.reshape(L + 1, -1).T)))


# ---------------------------------------------------------------------------
# patch test


@dataclass(frozen=True)
class PatchTestReport:
    F: float
    max_deviation: float
    mismatch: float
    tolerance: float
    passed: bool


def patch_test(
    chain: ChainModel, decomp: Decomposition, F: float, tolerance: float | None = None
) -> PatchTestReport:
    """Uniform-strain reproduction check (absence of ghost forces).

    With zero load and outer boundary values following ``u_i = i*F``, the
    coupled solve must return exactly the uniform strain with zero
    overlap mismatch.
    """
    if np.any(chain.force != 0.0):
        raise ValueError("patch test requires a zero load")
    if F < 0.0:
        raise ValueError("strain increment F must be nonnegative")
    bc = OuterBoundary.uniform_strain(chain.N, F)
    result = coupling.solve_atc(chain, decomp, bc)
    i = np.arange(chain.N + 1, dtype=float)
    dev = float(np.max(np.abs(result.u_atc.values - i * F)))
    tol = 1e-12 * (1.0 + chain.N * F) if tolerance is None else tolerance
    passed = dev <= tol and result.mismatch <= tol
    return PatchTestReport(F, dev, result.mismatch, tol, passed)


# ---------------------------------------------------------------------------
# exact norm of the linear recovery operator


def q_norm_details(
    chain: ChainModel,
    decomp: Decomposition,
    system: coupling.ReducedSystem | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact recovery-operator norm with the two 3x3 Gram matrices.

    The operator is linear on the three-dimensional control space, so its
    norm is the largest generalized eigenvalue of the chain-wide response
    Gram against the overlap-mismatch Gram; no sampling is involved.  The
    lifts and the overlap Gram come from ``system`` (assembled when none
    is given).
    """
    if system is None:
        system = coupling.assemble_reduced_system(chain, decomp)
    L, nbar = decomp.L, decomp.N - 1
    w1, w2, vc = system.basis_liftings
    g_overlap = system.gram
    g_full = np.zeros((3, 3))
    g_full[0, 0] = float(w1.values @ w1.values)
    g_full[0, 1] = g_full[1, 0] = float(w1.values @ w2.values)
    g_full[1, 1] = float(w2.values @ w2.values)
    tail = vc.window(L + 1, nbar)
    g_full[2, 2] = float(tail @ tail)
    eigs = scipy.linalg.eigh(g_full, g_overlap, eigvals_only=True)
    if not np.all(np.isfinite(eigs)):
        raise coupling.CouplingError("overlap Gram is numerically singular")
    return float(math.sqrt(max(eigs))), g_full, g_overlap


def estimate_q_norm(
    chain: ChainModel,
    decomp: Decomposition,
    system: coupling.ReducedSystem | None = None,
) -> float:
    return q_norm_details(chain, decomp, system)[0]


# ---------------------------------------------------------------------------
# overlap quadratic form of the two linear ramps


@dataclass(frozen=True)
class OverlapFormReport:
    """Coefficients of ``|a_c*ramp_c - a_1*ramp_a|^2`` summed over the overlap.

    ``*_direct`` come from explicit summation, ``*_closed`` from the
    closed finite-series forms with common factor ``beta = 1 + L - K``;
    the ``*_limit`` values are the large-chain limits in the overlap
    ratio, whose 2x2 form has minimum eigenvalue at least ``gamma**2/24``.
    """

    a_tilde_direct: float
    b_tilde_direct: float
    c_tilde_direct: float
    a_tilde_closed: float
    b_tilde_closed: float
    c_tilde_closed: float
    beta: float
    a_coef: float
    b_coef: float
    c_coef: float
    lambda_min: float
    gamma: float
    a_limit: float
    b_limit: float
    c_limit: float
    lambda_min_limit: float

    @property
    def max_rel_difference(self) -> float:
        pairs = (
            (self.a_tilde_direct, self.a_tilde_closed),
            (self.b_tilde_direct, self.b_tilde_closed),
            (self.c_tilde_direct, self.c_tilde_closed),
        )
        return max(abs(d - c) / max(abs(d), abs(c), 1e-300) for d, c in pairs)


def _form_min_eigenvalue(a: float, b: float, c: float) -> float:
    m = np.array([[a, -c], [-c, b]])
    return float(np.linalg.eigvalsh(m)[0])


def limit_form_min_eigenvalue(gamma: float) -> float:
    """Minimum eigenvalue of the limiting 2x2 overlap form at ratio ``gamma``."""
    b = 1.0 - gamma + gamma**2 / 3.0
    c = 1.0 - gamma / 2.0
    return _form_min_eigenvalue(1.0, b, c)


def overlap_quadratic_form(decomp: Decomposition) -> OverlapFormReport:
    """Sum the overlap ramp products directly and via the closed forms."""
    K, L, nbar = decomp.K, decomp.L, decomp.N - 1
    i = np.arange(K, L + 1, dtype=float)
    ramp_c = (nbar - i) / (nbar - K)
    ramp_a = i / L
    a_direct = float(ramp_c @ ramp_c)
    b_direct = float(ramp_a @ ramp_a)
    c_direct = float(ramp_c @ ramp_a)
    beta = 1.0 + L - K
    a_closed = beta * (
        6.0 * nbar**2
        + 2.0 * L**2
        + 2.0 * K**2
        - 6.0 * K * nbar
        - 6.0 * L * nbar
        + 2.0 * K * L
        + L
        - K
    ) / (6.0 * (K - nbar) ** 2)
    b_closed = beta * (2.0 * L**2 + 2.0 * K**2 + 2.0 * K * L + L - K) / (6.0 * L**2)
    c_closed = beta * (
        2.0 * L**2
        + 2.0 * K**2
        + 2.0 * K * L
        - 3.0 * K * nbar
        - 3.0 * L * nbar
        + L
        - K
    ) / (6.0 * L * (K - nbar))
    gamma = decomp.gamma
    a_coef, b_coef, c_coef = a_closed / beta, b_closed / beta, c_closed / beta
    return OverlapFormReport(
        a_tilde_direct=a_direct,
        b_tilde_direct=b_direct,
        c_tilde_direct=c_direct,
        a_tilde_closed=a_closed,
        b_tilde_closed=b_closed,
        c_tilde_closed=c_closed,
        beta=beta,
        a_coef=a_coef,
        b_coef=b_coef,
        c_coef=c_coef,
        lambda_min=_form_min_eigenvalue(a_coef, b_coef, c_coef),
        gamma=gamma,
        a_limit=1.0,
        b_limit=1.0 - gamma + gamma**2 / 3.0,
        c_limit=1.0 - gamma / 2.0,
        lambda_min_limit=limit_form_min_eigenvalue(gamma),
    )


# ---------------------------------------------------------------------------
# stability of the lifting solves


@dataclass(frozen=True)
class StabilityReport:
    continuum_violations: int
    continuum_max_ratio: float  # |v_c|^2 / ((N-K) * theta_c^2), must stay <= 1
    atomistic_constant: float  # max |v_a|^2 / (L * |theta_a|^2)


def verify_stability(
    chain: ChainModel,
    decomp: Decomposition,
    system: coupling.ReducedSystem | None = None,
) -> StabilityReport:
    """Exact lifting-energy ratios over all interface values.

    The continuum lifting is ``theta_c`` times the ramp ``w3``, so its
    ratio is ``|w3|^2 / (N-K)`` for every ``theta_c``; it obeys an exact
    bound and a violation is a hard failure.  The atomistic lifting is
    ``theta_1 w1 + theta_2 w2``, so its largest ratio is the top
    eigenvalue of the 2x2 Gram of ``w1, w2`` over ``[0, L]``, divided by
    ``L``; its window-proportional bound has an unspecified constant, so
    it is only reported.  The lifts come from ``system`` (assembled when
    none is given).
    """
    if system is None:
        system = coupling.assemble_reduced_system(chain, decomp)
    w1, w2, ramp = (w.values for w in system.basis_liftings)
    ratio = float(ramp @ ramp) / (decomp.N - decomp.K)
    violations = int(ratio > 1.0)
    if violations:
        raise coupling.CouplingError(f"continuum lifting bound violated: ratio {ratio:.6f} > 1")
    gram = np.array([[w1 @ w1, w1 @ w2], [w1 @ w2, w2 @ w2]])
    atomistic = float(np.linalg.eigvalsh(gram)[-1]) / decomp.L
    return StabilityReport(violations, ratio, atomistic)


# ---------------------------------------------------------------------------
# independent minimizer of the reduced objective (test oracle)


def fd_newton_controls(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None = None
) -> coupling.ControlPair:
    """Minimize the overlap mismatch by finite-difference Newton from zero.

    The objective is a black box: each evaluation solves both subdomain
    problems at the given controls.  It is an exact quadratic, so its
    Hessian does not depend on the load and comes from the homogeneous
    objective (zero load and boundary data), which vanishes at zero: three
    axis and three pair evaluations, with nothing cancelling against the
    loaded f(0).  The gradient is a central difference of the loaded
    objective at zero with step ``h = sqrt(2 f(0) / max diag H)``, the
    scale of the minimizer (``|theta*|_H <= sqrt(2 f(0))``).  One Newton
    step is followed by one corrective step with the same Hessian and a
    central gradient at ``theta_1`` of step ``0.01 |theta_1|_inf``: 19
    evaluations in all.
    """
    bc = bc or OuterBoundary()
    K, L = decomp.K, decomp.L
    zero, eye = np.zeros(chain.N + 1), np.eye(3)

    def objective(t, load=None, outer=(bc.u0, bc.u1, bc.u_nm1)) -> float:
        u_a = solvers.solve_atomistic_subproblem(chain, decomp, (t[0], t[1]), outer[:2], load)
        u_c = solvers.solve_continuum_subproblem(chain, decomp, t[2], outer[2], load)
        d = u_a.window(K, L) - u_c.window(K, L)
        return 0.5 * float(d @ d)

    def gradient(t, h) -> np.ndarray:
        return np.array([objective(t + h * e) - objective(t - h * e) for e in eye]) / (2.0 * h)

    hess = np.diag([2.0 * objective(e, zero, (0.0,) * 3) for e in eye])
    for j, k in ((0, 1), (0, 2), (1, 2)):
        f_jk = objective(eye[j] + eye[k], zero, (0.0,) * 3)
        hess[j, k] = hess[k, j] = f_jk - 0.5 * (hess[j, j] + hess[k, k])
    # a zero step means a zero gradient, so zero is the minimizer and any step finds it
    h = math.sqrt(2.0 * objective(np.zeros(3)) / hess.max()) or 1.0  # max of H is on its diagonal
    theta = -np.linalg.solve(hess, gradient(np.zeros(3), h))
    theta -= np.linalg.solve(hess, gradient(theta, 0.01 * float(np.max(np.abs(theta))) or 1.0))
    return coupling.ControlPair.from_array(theta)


# ---------------------------------------------------------------------------
# error studies against the fully atomistic reference

# The battery's default tolerances and the control-gap slack were set at this
# chain size and atomistic window.  Rounding in a solve on N (or L) sites
# grows like N^2 (or L^2), and so do the tolerances that measure it beyond.
TOLERANCE_N, TOLERANCE_L = 2500, 100


def _rounding_growth(size: int, reference: int) -> float:
    return max(1.0, (size / reference) ** 2)


@dataclass(frozen=True)
class StudyRow:
    N: int
    K: int
    L: int
    gamma: float
    p: float
    err_atc: float
    err_model: float
    bound_rhs: float
    q_norm_est: float
    mismatch: float
    eps_scaled_err: float


STUDY_COLUMNS = tuple(f.name for f in fields(StudyRow))


def error_study(
    chain: ChainModel, decomp: Decomposition, p: float = float("nan")
) -> StudyRow:
    """Measure coupled-solve errors against the fully atomistic reference."""
    u_ref = solvers.solve_full_atomistic(chain)
    result = coupling.solve_atc(chain, decomp)
    err_atc = float(np.linalg.norm(u_ref.values - result.u_atc.values))
    _, u_c_lift = result.system.states(coupling.trace(u_ref, decomp).as_array())
    K, nbar = decomp.K, decomp.N - 1
    err_model = float(np.linalg.norm(u_ref.window(K, nbar) - u_c_lift.values))
    q_norm = estimate_q_norm(chain, decomp, result.system)
    return StudyRow(
        N=decomp.N,
        K=decomp.K,
        L=decomp.L,
        gamma=decomp.gamma,
        p=p,
        err_atc=err_atc,
        err_model=err_model,
        bound_rhs=(1.0 + q_norm) * err_model,
        q_norm_est=q_norm,
        mismatch=result.mismatch,
        eps_scaled_err=math.sqrt(1.0 / decomp.N) * err_atc,
    )


def error_split_report(
    chain: ChainModel,
    decomp: Decomposition,
    result: coupling.AtcResult | None = None,
    u_ref: DisplacementField | None = None,
) -> dict:
    """Evaluate every term of the two-step error split independently.

    Returns the coupled-solve error, the consistency term (continuum
    window beyond the overlap), the recovery-operator term, the
    control-space gap, and the overlap modeling error, so the chain of
    inequalities can be checked term by term.  The trace lifting and the
    recovery-operator terms reuse the coupled solve's lifts.  The slack of
    ``trace_ok`` grows with the rounding of the N-site reference solve.
    The coupled ``result`` and the reference ``u_ref`` are solved when not
    given.
    """
    if u_ref is None:
        u_ref = solvers.solve_full_atomistic(chain)
    if result is None:
        result = coupling.solve_atc(chain, decomp)
    system = result.system
    r_ref = coupling.trace(u_ref, decomp)
    delta = r_ref.as_array() - result.controls.as_array()
    _, u_c_lift = system.states(r_ref.as_array())
    K, L, nbar = decomp.K, decomp.L, decomp.N - 1

    err_atc = float(np.linalg.norm(u_ref.values - result.u_atc.values))
    consistency = float(
        np.linalg.norm(u_ref.window(L + 1, nbar) - u_c_lift.window(L + 1, nbar))
    )
    q_delta = coupling.apply_q(chain, decomp, coupling.ControlPair.from_array(delta), system)
    q_delta_norm = float(np.linalg.norm(q_delta.values))
    delta_star = coupling.gram_norm(system, delta)
    q_norm = estimate_q_norm(chain, decomp, system)
    model_overlap = float(np.linalg.norm(u_ref.window(K, L) - u_c_lift.window(K, L)))
    model_window = float(np.linalg.norm(u_ref.window(K, nbar) - u_c_lift.values))
    trace_slack = 1e-9 * _rounding_growth(decomp.N, TOLERANCE_N)
    return {
        "err_atc": err_atc,
        "consistency": consistency,
        "q_delta_norm": q_delta_norm,
        "delta_star": delta_star,
        "q_norm": q_norm,
        "model_overlap": model_overlap,
        "model_window": model_window,
        "triangle_ok": err_atc <= consistency + q_delta_norm + 1e-12 * (1.0 + err_atc),
        "operator_ok": q_delta_norm <= q_norm * delta_star * (1.0 + 1e-9) + 1e-13,
        "trace_ok": delta_star <= model_overlap * (1.0 + trace_slack) + 1e-13,
    }


# ---------------------------------------------------------------------------
# thermodynamic-limit convergence sweep


@dataclass(frozen=True)
class SweepConfig:
    """Sizing and load recipe for the shrinking-spacing sweep.

    For each chain size the atomistic window is ``L = ceil(c * N**(1/p))``
    with overlap ratio ``gamma``.  With ``normalize_load`` the preset is
    scaled by ``1/N**2`` so the displacement profile stays fixed as the
    effective spacing ``eps = 1/N`` shrinks; errors are reported in the
    spacing-weighted norm ``sqrt(eps * sum(u**2))``.

    The default load is the mode combination whose displacement profile
    has zero slope at both chain ends.  A profile with end slope (for
    example a single sine mode) relaxes the doubly pinned boundary atoms
    by O(eps), and that boundary layer caps the observable rate at one
    power of eps below the smooth-profile rate.
    """

    N_values: tuple[int, ...]
    p: float = 2.0
    gamma: float = 0.5
    c: float = 2.0
    k1: float = 1.0
    k2: float = -1.0 / 6.0
    force: object = "sines:1,0,-3"
    normalize_load: bool = True


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[StudyRow, ...]
    skipped: tuple[str, ...]
    error_slope: float  # d log(eps_scaled_err) / d log(eps)
    q_norm_slope: float  # d log(q_norm) / d log(N)


def sweep_windows(N: int, p: float, gamma: float, c: float) -> tuple[int, int]:
    """Interface placement ``(K, L)`` for a chain of size ``N``."""
    L = math.ceil(c * N ** (1.0 / p))
    K = max(2, math.ceil((1.0 - gamma) * L))
    return K, L


def _sweep_row(config: SweepConfig, N: int) -> StudyRow:
    K, L = sweep_windows(N, config.p, config.gamma, config.c)
    f = materialize_force(N, config.force)
    if config.normalize_load:
        f = f / N**2
    chain = ChainModel(N, config.k1, config.k2, f)
    return error_study(chain, decompose(chain, K, L), p=config.p)


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def convergence_sweep(config: SweepConfig) -> SweepResult:
    """Run :func:`error_study` across the configured chain sizes."""
    feasible: list[int] = []
    skipped: list[str] = []
    for N in config.N_values:
        K, L = sweep_windows(N, config.p, config.gamma, config.c)
        if L - K < 4 or L > N - 2:
            skipped.append(f"N={N}: window (K={K}, L={L}) infeasible")
        else:
            feasible.append(N)
    rows = [_sweep_row(config, n) for n in feasible]
    eps = [1.0 / r.N for r in rows]
    return SweepResult(
        rows=tuple(rows),
        skipped=tuple(skipped),
        error_slope=loglog_slope(eps, [r.eps_scaled_err for r in rows]),
        q_norm_slope=loglog_slope([r.N for r in rows], [r.q_norm_est for r in rows]),
    )


def study_rows_csv_text(rows: Sequence[StudyRow]) -> str:
    lines = [",".join(STUDY_COLUMNS)]
    for row in rows:
        vals = [getattr(row, c) for c in STUDY_COLUMNS]
        for v in vals:
            if not np.isfinite(v) and not (isinstance(v, float) and math.isnan(v)):
                raise ValueError("refusing to write non-finite study values")
        cells = [
            str(v) if isinstance(v, int) else f"{v:.17g}" for v in vals
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# aggregated verification battery (drives the `verify` command)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def verification_battery(
    chain: ChainModel,
    decomp: Decomposition,
    seed: int = 0,
    tolerances: dict | None = None,
) -> list[CheckResult]:
    """Run the full invariant battery on one configuration.

    Covers the operator identity, positive definiteness of the reduced
    system, lifting stability, the control-gap inequality, both mode
    decompositions, the overlap quadratic form, the atomistic-consistent
    equivalence, and agreement with the independent minimizer.  The
    ``mode_residual`` and ``consistent_rel`` tolerances hold up to
    ``TOLERANCE_L`` and ``TOLERANCE_N`` and grow with the square of the
    size beyond; ``oracle_abs`` grows with the controls.  Each check
    reports the tolerance it applied.
    """
    tol = {
        "operator_eps": 8.0,
        "mode_residual": 1e-10,
        "overlap_form_rel": 1e-12,
        "consistent_rel": 1e-10,
        "oracle_abs": 1e-8,
    }
    unknown = sorted(set(tolerances or {}) - set(tol))
    if unknown:
        raise ValueError(f"unknown tolerance key {', '.join(unknown)}; known: {', '.join(tol)}")
    tol.update(tolerances or {})
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    op = operators.operator_identity_report(chain)
    checks.append(CheckResult(
        "operator_identity", op.within(tol["operator_eps"]), op.max_eps_ratio,
        tol["operator_eps"], f"max deviation {op.max_abs_deviation:.3e} over {op.n_sites} sites",
    ))

    system = coupling.assemble_reduced_system(chain, decomp)
    checks.append(CheckResult(
        "reduced_system_pd", system.min_eigenvalue > 0.0, system.min_eigenvalue, 0.0,
        f"condition {system.condition:.3e}",
    ))

    stability = verify_stability(chain, decomp, system)
    checks.append(CheckResult(
        "lifting_stability", stability.continuum_violations == 0,
        float(stability.continuum_violations), 0.0,
        f"continuum ratio {stability.continuum_max_ratio:.6f}, "
        f"atomistic constant {stability.atomistic_constant:.6f}",
    ))

    # one reference and one coupled result serve the error split, the
    # consistency check and the minimizer check
    u_ref = solvers.solve_full_atomistic(chain)
    result = coupling.compose_atc(chain, decomp, coupling.solve_controls(system), system=system)
    split = error_split_report(chain, decomp, result, u_ref)
    checks.append(CheckResult(
        "control_gap_inequalities",
        split["trace_ok"] and split["triangle_ok"] and split["operator_ok"],
        split["delta_star"], split["model_overlap"],
        f"err_atc {split['err_atc']:.3e} <= {split['consistency']:.3e} "
        f"+ {split['q_norm']:.3e} * {split['delta_star']:.3e}",
    ))

    mode_tol = tol["mode_residual"] * _rounding_growth(decomp.L, TOLERANCE_L)
    mode_res = mode_reconstruction_residual(chain, decomp, rng.standard_normal((5, 2)), system)
    two_mode_res = two_mode_reconstruction_residual(
        chain, decomp, rng.standard_normal((5, 2)), system
    )
    checks.append(CheckResult(
        "mode_decomposition", mode_res <= mode_tol and two_mode_res <= mode_tol,
        max(mode_res, two_mode_res), mode_tol,
        f"four-mode {mode_res:.3e}, two-mode {two_mode_res:.3e}",
    ))

    form = overlap_quadratic_form(decomp)
    checks.append(CheckResult(
        "overlap_form",
        form.max_rel_difference <= tol["overlap_form_rel"]
        and form.lambda_min_limit >= form.gamma**2 / 24.0,
        form.max_rel_difference, tol["overlap_form_rel"],
        f"limit min eigenvalue {form.lambda_min_limit:.6f} >= "
        f"gamma^2/24 = {form.gamma**2 / 24.0:.6f}",
    ))

    consistent = coupling.solve_atc_consistent(chain, decomp)
    rel = float(
        np.linalg.norm(u_ref.values - consistent.u_atc.values)
        / max(np.linalg.norm(u_ref.values), 1e-14)
    )
    consistent_tol = tol["consistent_rel"] * _rounding_growth(decomp.N, TOLERANCE_N)
    checks.append(CheckResult(
        "atomistic_consistent_equivalence", rel <= consistent_tol, rel, consistent_tol,
        "substituting the atomistic operator on the continuum window",
    ))

    oracle = fd_newton_controls(chain, decomp).as_array()
    gap = float(np.max(np.abs(result.controls.as_array() - oracle)))
    # the controls scale with the load, so the tolerance scales with them
    oracle_tol = tol["oracle_abs"] * max(1.0, float(np.max(np.abs(oracle))))
    checks.append(CheckResult(
        "independent_minimizer", gap <= oracle_tol, gap, oracle_tol,
        "finite-difference Newton on the reduced objective",
    ))
    return checks
