"""Direct solves for the chain: full problems, subdomain problems, bounds.

All assembled systems are symmetric positive definite, so they are
factored by banded Cholesky without pivoting, once per system however
many right-hand-side columns it stacks.  One step of iterative
refinement keeps residuals near rounding level, and every column is
accepted on its normwise backward error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .lattice import ChainModel, Decomposition, DisplacementField, OuterBoundary
from .operators import (
    BandedSystem,
    assemble_atomistic,
    assemble_continuum,
    delta1_squared_array,
)

__all__ = [
    "SolverError",
    "FactorizationError",
    "ResidualError",
    "SolveReport",
    "BACKWARD_ERROR_TOL",
    "solve_banded",
    "solve_window",
    "solve_full_atomistic",
    "solve_full_continuum",
    "solve_atomistic_subproblem",
    "solve_continuum_subproblem",
    "solve_atomistic_on_continuum",
    "ModelingErrorReport",
    "modeling_error_bound",
]

BACKWARD_ERROR_TOL = 16.0 * np.finfo(float).eps
CSV_CHUNK_ROWS = 4096  # rows formatted per string; bounds the export's peak memory


class SolverError(RuntimeError):
    """Base class for direct-solve failures."""


class FactorizationError(SolverError):
    """Cholesky factorization hit a non-positive pivot (invalid system upstream)."""


class ResidualError(SolverError):
    """Computed solution failed the backward-error acceptance check."""


@dataclass(frozen=True)
class SolveReport:
    """Solution of one system, shaped like its ``rhs``.

    ``residual_inf`` and ``backward_error`` are the largest over the
    columns.
    """

    values: np.ndarray
    residual_inf: float
    backward_error: float


def _abs_max(a: np.ndarray, axis=None):
    """``max(|a|)`` without an ``|a|`` temporary."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _accept(system: BandedSystem, x: np.ndarray) -> SolveReport:
    """Accept ``x`` if each column's normwise backward error is at rounding level.

    The Rigal-Gaches backward error ``|r|inf / (|A|inf |x|inf + |b|inf)``
    does not depend on the scale of the load or on the conditioning, so
    a backward-stable solve passes at any chain size.  ``|A|inf`` is
    bounded by the diagonal maximum plus twice each off-diagonal maximum.
    """
    r = system.matvec(x)
    r -= system.rhs
    residual = _abs_max(r, axis=0)
    del r
    hb = min(system.half_bandwidth, system.size - 1)
    peaks = [_abs_max(system.bands[k, : system.size - k]) for k in range(hb + 1)]
    scale = (peaks[0] + 2.0 * sum(peaks[1:])) * _abs_max(x, axis=0) + _abs_max(system.rhs, axis=0)
    backward = float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))
    if not backward <= BACKWARD_ERROR_TOL:
        raise ResidualError(
            f"normwise backward error {backward:.3e} exceeds acceptance threshold "
            f"{BACKWARD_ERROR_TOL:.3e} (residual {float(np.max(residual)):.3e})"
        )
    return SolveReport(x, float(np.max(residual)), backward)


def solve_banded(system: BandedSystem) -> SolveReport:
    """Solve by one symmetric banded Cholesky factorization for all columns.

    Every column is refined once in working precision.
    """
    try:
        factor = cholesky_banded(system.bands, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"banded Cholesky failed: {exc}") from exc
    x = cho_solve_banded((factor, True), system.rhs)
    r = system.matvec(x)
    np.subtract(system.rhs, r, out=r)
    x += cho_solve_banded((factor, True), r)
    del factor, r  # freed before the acceptance check allocates
    return _accept(system, x)


def solve_window(
    chain: ChainModel,
    operator: str,
    lo: int,
    hi: int,
    width: int,
    left,
    right,
    load: np.ndarray | None = None,
) -> np.ndarray:
    """Values on ``[lo, hi]`` of the ``"atomistic"`` or ``"continuum"`` operator.

    The ``width`` end nodes on each side carry the Dirichlet values
    ``left`` and ``right``.  These may be ``(width, columns)`` blocks, one
    column per right-hand side, all solved with one factorization; the
    load enters the first column only.
    """
    assemble = {"atomistic": assemble_atomistic, "continuum": assemble_continuum}[operator]
    ends = (np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    nodes = (*range(lo, lo + width), *range(hi - width + 1, hi + 1))
    system = assemble(chain, (lo + width, hi - width), dict(zip(nodes, np.concatenate(ends))), load)
    return np.concatenate([ends[0], solve_banded(system).values, ends[1]])


def solve_full_atomistic(chain: ChainModel, bc: OuterBoundary | None = None) -> DisplacementField:
    """Displacements of the fully atomistic chain on ``[0, N]``."""
    bc = bc or OuterBoundary()
    values = solve_window(chain, "atomistic", 0, chain.N, 2, (bc.u0, bc.u1), (bc.u_nm1, bc.u_n))
    return DisplacementField(0, chain.N, values)


def solve_full_continuum(chain: ChainModel, bc: OuterBoundary | None = None) -> DisplacementField:
    """Displacements of the fully continuum chain on ``[0, N]``."""
    bc = bc or OuterBoundary()
    inner = solve_window(chain, "continuum", 1, chain.N - 1, 1, (bc.u1,), (bc.u_nm1,))
    return DisplacementField(0, chain.N, np.concatenate([[bc.u0], inner, [bc.u_n]]))


def solve_atomistic_subproblem(
    chain: ChainModel,
    decomp: Decomposition,
    theta_a: tuple[float, float],
    gamma_minus: tuple[float, float] = (0.0, 0.0),
    load: np.ndarray | None = None,
) -> DisplacementField:
    """Atomistic window solve on ``[0, L]`` with interface values ``theta_a``.

    ``theta_a`` are the virtual Dirichlet values at ``{L-1, L}``;
    ``gamma_minus`` are the (normally zero) values at the true boundary
    pair ``{0, 1}``.
    """
    L = decomp.L
    values = solve_window(chain, "atomistic", 0, L, 2, gamma_minus, theta_a, load)
    return DisplacementField(0, L, values)


def solve_continuum_subproblem(
    chain: ChainModel,
    decomp: Decomposition,
    theta_c: float,
    gamma_plus: float = 0.0,
    load: np.ndarray | None = None,
) -> DisplacementField:
    """Continuum window solve on ``[K, N-1]`` with interface value ``theta_c``.

    The right end carries the true boundary value at ``N - 1``
    (``gamma_plus``, normally zero); the value at atom ``N`` never enters
    the three-point stencil.
    """
    K, nbar = decomp.K, decomp.N - 1
    values = solve_window(chain, "continuum", K, nbar, 1, (theta_c,), (gamma_plus,), load)
    return DisplacementField(K, nbar, values)


def solve_atomistic_on_continuum(
    chain: ChainModel,
    decomp: Decomposition,
    theta_pair: tuple[float, float],
    gamma_plus_pair: tuple[float, float] = (0.0, 0.0),
    load: np.ndarray | None = None,
) -> DisplacementField:
    """Atomistic-operator solve on the continuum window ``[K, N]``.

    This is the two-node-interface variant used by the consistency check
    that recovers the global atomistic solution: Dirichlet pairs at
    ``{K, K+1}`` (``theta_pair``) and ``{N-1, N}``.
    """
    K, N = decomp.K, decomp.N
    values = solve_window(chain, "atomistic", K, N, 2, theta_pair, gamma_plus_pair, load)
    return DisplacementField(K, N, values)


# ---------------------------------------------------------------------------
# continuum modeling-error bound


@dataclass(frozen=True)
class ModelingErrorReport:
    """Upper bounds on the continuum modeling error for a reference field.

    ``sharp_bound`` uses the exact minimum eigenvalue of the continuum
    operator on the domain; ``asymptotic_bound`` is the informational
    ``c0 * size**2`` envelope.
    """

    sharp_bound: float
    sharp_prefactor: float  # |k2| / lambda_min
    asymptotic_bound: float
    c0: float
    lambda_min: float
    n_sites: int
    curvature_norm: float  # l2 norm of D1^2 u over the domain rows


def continuum_min_eigenvalue(k_c: float, n: int) -> float:
    """Smallest eigenvalue of the n-site discrete Laplacian scaled by ``k_c``."""
    return 4.0 * k_c * math.sin(math.pi / (2.0 * (n + 1))) ** 2


def modeling_error_bound(
    chain: ChainModel,
    u_ref: DisplacementField,
    domain: str = "global",
    decomp: Decomposition | None = None,
) -> ModelingErrorReport:
    """Bound ``|u_ref - continuum solution|`` by the curvature of ``u_ref``.

    ``domain`` selects the full chain (rows ``[2, N-2]``) or, with a
    decomposition, the continuum window (rows ``[K+1, N-2]``).
    """
    N = chain.N
    if domain == "global":
        rows = (2, N - 2)
        size_scale = N
    elif domain == "continuum":
        if decomp is None:
            raise ValueError("continuum-domain bound needs a decomposition")
        rows = decomp.cont_interior
        size_scale = N - decomp.K
    else:
        raise ValueError(f"unknown domain {domain!r}; expected 'global' or 'continuum'")
    lo, hi = rows
    if hi < lo:
        raise ValueError(f"domain rows [{lo}, {hi}] are empty")
    if u_ref.lo > lo - 2 or u_ref.hi < hi + 2:
        raise ValueError("reference field does not support the five-point stencil rows")
    window = u_ref.window(lo - 2, hi + 2)
    curvature = float(np.linalg.norm(delta1_squared_array(window)))
    n = hi - lo + 1
    lam = continuum_min_eigenvalue(chain.k_c, n)
    prefactor = abs(chain.k2) / lam
    c0 = abs(chain.k2) / (chain.k_c * math.pi**2)
    return ModelingErrorReport(
        sharp_bound=prefactor * curvature,
        sharp_prefactor=prefactor,
        asymptotic_bound=c0 * size_scale**2 * curvature,
        c0=c0,
        lambda_min=lam,
        n_sites=n,
        curvature_norm=curvature,
    )


# ---------------------------------------------------------------------------
# CSV export


def fields_csv_text(header: str, fields: list[DisplacementField]) -> str:
    """CSV ``header`` then rows ``i,v0,v1,...`` at ``.17g`` over the first field's range.

    A column is blank outside its field's range.  Each chunk of rows formats
    the first field in one call; a later field reuses those strings where its
    bits are equal (so ``-0.0`` stays apart from ``0.0``) and formats the rest.
    """
    if not all(np.all(np.isfinite(f.values)) for f in fields):
        raise ValueError("refusing to write non-finite displacements")
    base, chunks = fields[0], [header + "\n"]
    for a in range(base.lo, base.hi + 1, CSV_CHUNK_ROWS):
        b = min(a + CSV_CHUNK_ROWS - 1, base.hi)
        x = base.window(a, b)
        s = ("%.17g," * len(x) % tuple(x.tolist())).split(",")[:-1]
        cols = [map(str, range(a, b + 1)), s]
        for f in fields[1:]:
            lo, hi = max(a, f.lo) - a, min(b, f.hi) - a
            col = [""] * len(s)
            if lo <= hi:
                col[lo : hi + 1] = s[lo : hi + 1]
                v = f.window(a + lo, a + hi)
                diff = np.flatnonzero(v.view(np.int64) != x[lo : hi + 1].view(np.int64))
                for j, t in zip(diff.tolist(), v[diff].tolist()):
                    col[lo + j] = f"{t:.17g}"
            cols.append(col)
        chunks.append("\n".join(map(",".join, zip(*cols))) + "\n")
    return "".join(chunks)

