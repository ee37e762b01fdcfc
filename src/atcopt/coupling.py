"""Virtual-control coupling of the atomistic and continuum windows.

The coupled problem minimizes the squared l2 mismatch of the two
subdomain states over the overlap ``[K, L]`` with respect to virtual
Dirichlet controls: the pair ``(theta_a[L-1], theta_a[L])`` on the
atomistic interface and ``theta_c[K]`` on the continuum interface.

One pipeline serves both coupling variants.  It factors each window
operator once and solves, with that factor, the load column (true
boundary values, zero controls) together with one unit-lift column per
interface node.  The subdomain problems are linear, so each window state
is affine in the controls, ``u = u0 + sum_i theta_i w_i``: the reduced
objective is a positive definite quadratic built from the lifts over the
overlap, one small symmetric solve minimizes it, and the states are then
recovered from the same lifts without solving again.  The variants
differ only in the continuum window: the Cauchy-Born operator with the
one-node interface ``{K}``, whose lift is the exact linear ramp and
needs no column, or the atomistic operator with the pair ``{K, K+1}``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import ChainModel, Decomposition, DisplacementField, OuterBoundary, _readonly
from .operators import _apply_atomistic, _apply_continuum

# solve_atomistic_on_continuum stays importable here for callers that patch it
from .solvers import (  # noqa: F401
    solve_atomistic_on_continuum,
    solve_atomistic_subproblem,
    solve_continuum_subproblem,
    solve_window,
)

__all__ = [
    "ControlPair",
    "ReducedSystem",
    "MismatchReport",
    "AtcResult",
    "CouplingError",
    "homogeneous_states",
    "lift_atomistic",
    "lift_continuum",
    "mismatch_norm",
    "assemble_reduced_system",
    "solve_controls",
    "compose_atc",
    "trace",
    "solve_atc",
    "solve_atc_consistent",
    "apply_q",
    "continuum_trace_lifting",
    "gram_norm",
    "atc_csv_text",
    "atc_summary_dict",
    "atc_summary_json",
]

GRAM_CONDITION_WARN = 1e12


class CouplingError(RuntimeError):
    """The reduced interface system violated a structural guarantee."""


@dataclass(frozen=True)
class ControlPair:
    """Virtual interface values: ``(theta_a_lm1, theta_a_l)`` and ``theta_c_k``."""

    theta_a_lm1: float
    theta_a_l: float
    theta_c_k: float

    def __post_init__(self) -> None:
        for name in ("theta_a_lm1", "theta_a_l", "theta_c_k"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"control {name} is not finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_a_lm1, self.theta_a_l, self.theta_c_k])

    @classmethod
    def from_array(cls, a) -> "ControlPair":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @property
    def theta_a(self) -> tuple[float, float]:
        return (self.theta_a_lm1, self.theta_a_l)


@dataclass(frozen=True)
class ReducedSystem:
    """Quadratic reduced problem in the controls.

    ``basis_liftings`` are the zero-load window responses to a unit value
    on one interface node each: ``w1 = lift_a(1, 0)`` and
    ``w2 = lift_a(0, 1)`` on the atomistic window, then one continuum lift
    per continuum interface node (``w3 = lift_c(1)`` for the Cauchy-Born
    variant).  ``gram[i, j]`` is the overlap inner product of the
    responses ``w1, w2, -w3, ...``; ``rhs`` is minus the overlap inner
    product of the homogeneous-state gap ``u_a0 - u_c0`` with each
    response.
    """

    gram: np.ndarray
    rhs: np.ndarray
    basis_liftings: tuple[DisplacementField, ...]
    u_a0: DisplacementField
    u_c0: DisplacementField
    decomp: Decomposition
    bc: OuterBoundary
    min_eigenvalue: float
    condition: float
    variant: str = "cauchy-born"

    def __post_init__(self) -> None:
        object.__setattr__(self, "gram", _readonly(self.gram))
        object.__setattr__(self, "rhs", _readonly(self.rhs))

    def states(self, theta, affine: bool = True) -> tuple[DisplacementField, DisplacementField]:
        """Window states ``u0 + sum_i theta_i w_i`` at controls ``theta``.

        With ``affine=False`` the homogeneous states ``u0`` are left out:
        the linear part of the recovery.
        """
        theta = np.asarray(theta, dtype=float)
        fields = []
        for base, lifts, coeffs in ((self.u_a0, self.basis_liftings[:2], theta[:2]),
                                    (self.u_c0, self.basis_liftings[2:], theta[2:])):
            values = base.values if affine else 0.0
            for t, w in zip(coeffs, lifts):
                values = values + t * w.values
            fields.append(DisplacementField(base.lo, base.hi, values, base.domain_tag))
        return fields[0], fields[1]


@dataclass(frozen=True)
class MismatchReport:
    """Overlap mismatch energy and its interface/interior split.

    ``total`` is the squared l2 norm of ``u_a - u_c`` over ``[K, L]``;
    the three terms cover the continuum interface node ``K``, the
    interior ``[K+1, L-2]``, and the atomistic interface pair
    ``{L-1, L}``.
    """

    total: float
    at_cont_interface: float
    interior: float
    at_atom_interface: float


@dataclass(frozen=True)
class AtcResult:
    """Coupled solution, its window states, and the reduced system behind them."""

    controls: ControlPair
    u_a_op: DisplacementField
    u_c_op: DisplacementField
    u_atc: DisplacementField
    mismatch: float
    mismatch_split: MismatchReport
    diagnostics: dict
    system: ReducedSystem


def homogeneous_states(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None = None
) -> tuple[DisplacementField, DisplacementField]:
    """Subdomain states carrying the load with zero virtual interface values."""
    system = assemble_reduced_system(chain, decomp, bc)
    return system.u_a0, system.u_c0


def lift_atomistic(
    chain: ChainModel, decomp: Decomposition, theta_a: tuple[float, float]
) -> DisplacementField:
    """Zero-load atomistic response to interface values ``theta_a`` at ``{L-1, L}``."""
    zero = np.zeros(chain.N + 1)
    return solve_atomistic_subproblem(chain, decomp, theta_a, load=zero)


def lift_continuum(decomp: Decomposition, theta_c: float) -> DisplacementField:
    """Zero-load continuum response: the exact linear ramp, no solve needed."""
    if not np.isfinite(theta_c):
        raise ValueError("theta_c is not finite")
    K, nbar = decomp.K, decomp.N - 1
    i = np.arange(K, nbar + 1, dtype=float)
    values = theta_c * (nbar - i) / (nbar - K)
    return DisplacementField(K, nbar, values, "continuum")


def mismatch_norm(
    u_a: DisplacementField, u_c: DisplacementField, decomp: Decomposition
) -> MismatchReport:
    """Squared l2 mismatch over the overlap ``[K, L]`` with its three-way split."""
    K, L = decomp.K, decomp.L
    d = u_a.window(K, L) - u_c.window(K, L)
    sq = d * d
    at_cont = float(sq[0])
    interior = float(np.sum(sq[1 : L - 1 - K]))
    at_atom = float(sq[L - 1 - K] + sq[L - K])
    return MismatchReport(float(np.sum(sq)), at_cont, interior, at_atom)


def _load_and_lifts(
    chain: ChainModel, lo: int, hi: int, fixed: tuple, controls_at_lo: bool, tag: str
) -> tuple[DisplacementField, tuple[DisplacementField, ...]]:
    """Homogeneous state and unit-interface lifts of an atomistic-operator window.

    Both window ends are node pairs, solved with one factorization.
    Column 0 carries the load and the true boundary values ``fixed`` with
    zero controls; column ``j`` carries a unit value on interface node
    ``j`` and nothing else.
    """
    data = np.column_stack([fixed, np.zeros((2, 2))])
    unit = np.column_stack([np.zeros(2), np.eye(2)])
    left, right = (unit, data) if controls_at_lo else (data, unit)
    values = solve_window(chain, "atomistic", lo, hi, 2, left, right)
    fields = [DisplacementField(lo, hi, column, tag) for column in values.T]
    return fields[0], tuple(fields[1:])


def _reduce(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None, consistent: bool
) -> ReducedSystem:
    """Build the reduced quadratic from one solve per window.

    The continuum window ``[K, N-1]`` carries the Cauchy-Born operator
    with interface ``{K}``, or with ``consistent`` the atomistic operator
    on ``[K, N]`` with interface ``{K, K+1}``.
    """
    bc = bc or OuterBoundary()
    K, L = decomp.K, decomp.L
    variant = "atomistic-consistent" if consistent else "cauchy-born"
    u_a0, lifts_a = _load_and_lifts(chain, 0, L, (bc.u0, bc.u1), False, "atomistic")
    if consistent:
        u_c0, lifts_c = _load_and_lifts(chain, K, decomp.N, (bc.u_nm1, bc.u_n), True, "continuum")
    else:
        # the three-point operator is exact on linear functions: the lift is the ramp
        u_c0 = solve_continuum_subproblem(chain, decomp, 0.0, gamma_plus=bc.u_nm1)
        lifts_c = (lift_continuum(decomp, 1.0),)
    responses = np.vstack(
        [v.window(K, L) for v in lifts_a] + [-v.window(K, L) for v in lifts_c]
    )
    gram = responses @ responses.T
    gap = u_a0.window(K, L) - u_c0.window(K, L)
    rhs = -(responses @ gap)
    eigenvalues = np.linalg.eigvalsh(gram)
    min_eig = float(eigenvalues[0])
    if min_eig <= 0.0:
        raise CouplingError(
            f"{variant} interface system is not positive definite "
            f"(min eig {min_eig:.3e})"
        )
    condition = float(eigenvalues[-1] / min_eig)
    if condition > GRAM_CONDITION_WARN:
        warnings.warn(
            f"{variant} interface system condition {condition:.3e} exceeds "
            f"{GRAM_CONDITION_WARN:.0e}; controls may lose accuracy",
            RuntimeWarning,
            stacklevel=3,
        )
    return ReducedSystem(
        gram, rhs, (*lifts_a, *lifts_c), u_a0, u_c0, decomp, bc, min_eig, condition, variant
    )


def assemble_reduced_system(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None = None
) -> ReducedSystem:
    """Build the 3x3 reduced quadratic of the Cauchy-Born coupling."""
    return _reduce(chain, decomp, bc, consistent=False)


def _solve_sym(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x = np.linalg.solve(gram, rhs)
    x += np.linalg.solve(gram, rhs - gram @ x)
    return x


def solve_controls(system: ReducedSystem) -> ControlPair:
    """Minimize the reduced quadratic: one symmetric 3x3 solve plus refinement."""
    return ControlPair.from_array(_solve_sym(system.gram, system.rhs))


def trace(u: DisplacementField, decomp: Decomposition) -> ControlPair:
    """Interface values ``(u[L-1], u[L] | u[K])`` of a field covering them."""
    return ControlPair(u[decomp.L - 1], u[decomp.L], u[decomp.K])


def gram_norm(system: ReducedSystem, delta: np.ndarray | ControlPair) -> float:
    """Control-space norm induced by the overlap mismatch inner product."""
    d = delta.as_array() if isinstance(delta, ControlPair) else np.asarray(delta, dtype=float)
    return float(np.sqrt(max(d @ system.gram @ d, 0.0)))


def _state_residuals(
    chain: ChainModel,
    u_a: DisplacementField,
    u_c: DisplacementField,
    continuum_operator: bool = True,
) -> dict:
    """Max-norm force-balance residuals of the recovered window states."""
    f = chain.force
    res_a = _apply_atomistic(chain, u_a.values) - f[u_a.lo + 2 : u_a.hi - 1]
    apply_c = _apply_continuum if continuum_operator else _apply_atomistic
    off = 1 if continuum_operator else 2
    res_c = apply_c(chain, u_c.values) - f[u_c.lo + off : u_c.hi - off + 1]
    return {
        "state_residual_atom": float(np.max(np.abs(res_a))),
        "state_residual_cont": float(np.max(np.abs(res_c))),
    }


def _compose(
    decomp: Decomposition,
    u_a: DisplacementField,
    u_c: DisplacementField,
    u_last: float,
) -> DisplacementField:
    """Glue subdomain states into a chain-wide field (atomistic wins on overlap)."""
    L, N = decomp.L, decomp.N
    hi_c = u_c.hi
    values = np.concatenate(
        [u_a.values, u_c.window(L + 1, hi_c), [u_last] if hi_c < N else []]
    )
    return DisplacementField(0, N, values, "global")


def _recover(chain: ChainModel, system: ReducedSystem, theta: np.ndarray) -> AtcResult:
    """Window states at ``theta`` by linearity, glued into the coupled result."""
    decomp = system.decomp
    u_a, u_c = system.states(theta)
    u_atc = _compose(decomp, u_a, u_c, system.bc.u_n)
    split = mismatch_norm(u_a, u_c, decomp)
    diagnostics = {
        "gamma": decomp.gamma,
        "variant": system.variant,
        **_state_residuals(chain, u_a, u_c, system.variant == "cauchy-born"),
        "gram_condition": system.condition,
        "gram_min_eigenvalue": system.min_eigenvalue,
    }
    if len(theta) > 3:
        diagnostics["theta_c_kp1"] = float(theta[3])
    controls = ControlPair.from_array(theta)
    return AtcResult(controls, u_a, u_c, u_atc, split.total, split, diagnostics, system)


def compose_atc(
    chain: ChainModel,
    decomp: Decomposition,
    controls: ControlPair,
    bc: OuterBoundary | None = None,
    system: ReducedSystem | None = None,
) -> AtcResult:
    """Recover subdomain states from controls and glue the chain-wide field.

    The states come from the lifts of ``system``, assembled here when
    none is given.
    """
    if system is None:
        system = assemble_reduced_system(chain, decomp, bc)
    return _recover(chain, system, controls.as_array())


def solve_atc(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None = None
) -> AtcResult:
    """End-to-end coupled solve: assemble, minimize, recover states, glue."""
    system = assemble_reduced_system(chain, decomp, bc)
    return compose_atc(chain, decomp, solve_controls(system), system=system)


def solve_atc_consistent(
    chain: ChainModel, decomp: Decomposition, bc: OuterBoundary | None = None
) -> AtcResult:
    """Coupled solve with the atomistic operator on both windows.

    The continuum window keeps the full five-point operator, so its
    artificial interface needs the two-node pair ``{K, K+1}`` and the
    control space is four-dimensional.  The optimum reproduces the
    global atomistic solution; this is the built-in consistency check.
    """
    system = _reduce(chain, decomp, bc, consistent=True)
    return _recover(chain, system, _solve_sym(system.gram, system.rhs))


# ---------------------------------------------------------------------------
# the linear part of the recovery operator


def apply_q(
    chain: ChainModel,
    decomp: Decomposition,
    mu: ControlPair,
    system: ReducedSystem | None = None,
) -> DisplacementField:
    """Linear part of the recovery: the lifts' response glued over the chain."""
    if system is None:
        system = assemble_reduced_system(chain, decomp)
    v_a, v_c = system.states(mu.as_array(), affine=False)
    return _compose(decomp, v_a, v_c, 0.0)


def continuum_trace_lifting(
    chain: ChainModel,
    decomp: Decomposition,
    u_ref: DisplacementField,
    bc: OuterBoundary | None = None,
) -> DisplacementField:
    """Continuum window state whose interface value copies ``u_ref`` at ``K`` (direct solve)."""
    bc = bc or OuterBoundary()
    return solve_continuum_subproblem(
        chain, decomp, u_ref[decomp.K], gamma_plus=bc.u_nm1
    )


# ---------------------------------------------------------------------------
# exports


def atc_csv_text(result: AtcResult, decomp: Decomposition) -> str:
    """CSV rows ``atom_index, u_atc, u_a_op, u_c_op`` (blank outside windows)."""
    u_atc, u_a, u_c = result.u_atc, result.u_a_op, result.u_c_op
    for f in (u_atc, u_a, u_c):
        if not np.all(np.isfinite(f.values)):
            raise ValueError("refusing to write non-finite displacements")
    lines = ["atom_index,u_atc,u_a_op,u_c_op"]
    for i in range(u_atc.lo, u_atc.hi + 1):
        a = f"{u_a[i]:.17g}" if u_a.lo <= i <= u_a.hi else ""
        c = f"{u_c[i]:.17g}" if u_c.lo <= i <= u_c.hi else ""
        lines.append(f"{i},{u_atc[i]:.17g},{a},{c}")
    return "\n".join(lines) + "\n"


def atc_summary_dict(result: AtcResult, decomp: Decomposition) -> dict:
    return {
        "N": decomp.N,
        "K": decomp.K,
        "L": decomp.L,
        "gamma": decomp.gamma,
        "controls": {
            "theta_a_lm1": result.controls.theta_a_lm1,
            "theta_a_l": result.controls.theta_a_l,
            "theta_c_k": result.controls.theta_c_k,
        },
        "mismatch": result.mismatch,
        "mismatch_split": {
            "at_cont_interface": result.mismatch_split.at_cont_interface,
            "interior": result.mismatch_split.interior,
            "at_atom_interface": result.mismatch_split.at_atom_interface,
        },
        "norms": {
            "u_atc": result.u_atc.norm(),
            "u_a_op": result.u_a_op.norm(),
            "u_c_op": result.u_c_op.norm(),
        },
        "diagnostics": result.diagnostics,
    }


def atc_summary_json(result: AtcResult, decomp: Decomposition) -> str:
    return json.dumps(atc_summary_dict(result, decomp), indent=2, sort_keys=True) + "\n"
