"""Finite-difference operators and symmetric banded system assembly.

The atomistic force operator combines the three-point and five-point
second differences, ``-k1*D1 - k2*D2``; the continuum operator is the
scaled three-point Laplacian ``-k_c*D1`` with ``k_c = k1 + 4*k2``.
Dirichlet data is eliminated into the right-hand side so every
assembled system is symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .lattice import ChainModel, DisplacementField, _readonly

__all__ = [
    "BandedSystem",
    "apply_delta1",
    "apply_delta2",
    "delta1_array",
    "delta2_array",
    "delta1_squared_array",
    "assemble_atomistic",
    "assemble_continuum",
    "operator_identity_report",
    "OperatorIdentityReport",
]


def _field_values(u) -> tuple[int, np.ndarray]:
    if isinstance(u, DisplacementField):
        return u.lo, u.values
    return 0, np.asarray(u, dtype=float)


def apply_delta1(u, i: int) -> float:
    """Three-point second difference ``u[i-1] - 2*u[i] + u[i+1]``."""
    lo, v = _field_values(u)
    j = i - lo
    if j - 1 < 0 or j + 1 >= v.size:
        raise IndexError(f"three-point stencil at {i} leaves the index range")
    return float(v[j - 1] - 2.0 * v[j] + v[j + 1])


def apply_delta2(u, i: int) -> float:
    """Five-point second difference ``u[i-2] - 2*u[i] + u[i+2]``."""
    lo, v = _field_values(u)
    j = i - lo
    if j - 2 < 0 or j + 2 >= v.size:
        raise IndexError(f"five-point stencil at {i} leaves the index range")
    return float(v[j - 2] - 2.0 * v[j] + v[j + 2])


def delta1_array(values: np.ndarray) -> np.ndarray:
    """Three-point second difference of a raw array (length shrinks by 2)."""
    v = np.asarray(values, dtype=float)
    return v[:-2] - 2.0 * v[1:-1] + v[2:]


def delta2_array(values: np.ndarray) -> np.ndarray:
    """Five-point second difference of a raw array (length shrinks by 4)."""
    v = np.asarray(values, dtype=float)
    return v[:-4] - 2.0 * v[2:-2] + v[4:]


def delta1_squared_array(values: np.ndarray) -> np.ndarray:
    """Composition of the three-point stencil with itself (length shrinks by 4)."""
    return delta1_array(delta1_array(values))


@dataclass(frozen=True)
class BandedSystem:
    """Symmetric positive definite banded system in lower storage.

    ``bands[k, j]`` holds matrix entry ``(j + k, j)``; row 0 is the
    diagonal.  ``index_offset`` maps local row 0 to its global atom
    index, so unknown ``j`` is the displacement of atom
    ``index_offset + j``.  ``rhs`` is one column of shape ``(size,)`` or
    a stack of columns of shape ``(size, columns)``.
    """

    size: int
    half_bandwidth: int
    bands: np.ndarray
    rhs: np.ndarray
    index_offset: int

    def __post_init__(self) -> None:
        b = np.asarray(self.bands, dtype=float)
        r = np.asarray(self.rhs, dtype=float)
        if b.shape != (self.half_bandwidth + 1, self.size):
            raise ValueError(f"bands have shape {b.shape}, expected "
                             f"({self.half_bandwidth + 1}, {self.size})")
        if r.ndim not in (1, 2) or r.shape[0] != self.size:
            raise ValueError(f"rhs has shape {r.shape}, expected ({self.size},) "
                             f"or ({self.size}, columns)")
        object.__setattr__(self, "bands", _readonly(b))
        object.__setattr__(self, "rhs", _readonly(r))

    def to_dense(self) -> np.ndarray:
        """Full symmetric matrix; the dense fallback path for cross-checks."""
        a = np.diag(self.bands[0])
        for k in range(1, min(self.half_bandwidth, self.size - 1) + 1):
            d = self.bands[k, : self.size - k]
            a += np.diag(d, -k) + np.diag(d, k)
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a vector or, column by column, with a matrix of columns."""
        x = np.asarray(x, dtype=float)
        bands = self.bands.reshape(self.bands.shape + (1,) * (x.ndim - 1))
        y = bands[0] * x
        for k in range(1, min(self.half_bandwidth, self.size - 1) + 1):
            d = bands[k, : self.size - k]
            y[k:] += d * x[:-k]
            y[:-k] += d * x[k:]
        return y


def _assemble(
    coeffs: Mapping[int, float],
    interior: tuple[int, int],
    load: np.ndarray,
    dirichlet: Mapping[int, float],
) -> BandedSystem:
    """Fold Dirichlet data into the rhs and return the SPD banded system.

    ``coeffs`` maps stencil offsets to coefficients (symmetric in the
    offset); ``load`` is indexed by global atom index; ``dirichlet`` must
    supply every site the stencil reaches outside ``interior``.  Its
    values may be vectors, one entry per right-hand-side column: the load
    enters the first column only, so the others are zero-load liftings.
    """
    lo, hi = interior
    if hi < lo:
        raise ValueError(f"interior [{lo}, {hi}] is empty: domain too small for the stencil")
    hb = max(coeffs)
    n = hi - lo + 1
    bands = np.zeros((hb + 1, n))
    bands[0, :] = coeffs[0]
    for k in range(1, hb + 1):
        bands[k, : n - k] = coeffs[k]
    columns = max((np.size(v) for v in dirichlet.values()), default=1)
    rhs = np.zeros((n, columns))
    rhs[:, 0] = load[lo : hi + 1]
    for i in (*range(lo, min(lo + hb, hi) + 1), *range(max(hi - hb + 1, lo), hi + 1)):
        for off in range(-hb, hb + 1):
            if off == 0:
                continue
            j = i + off
            if lo <= j <= hi:
                continue
            if j not in dirichlet:
                raise ValueError(
                    f"missing Dirichlet value at site {j}, required by the stencil at {i}"
                )
            rhs[i - lo] -= coeffs[abs(off)] * np.asarray(dirichlet[j])
    return BandedSystem(n, hb, bands, rhs if columns > 1 else rhs[:, 0], lo)


def _atomistic_coeffs(chain: ChainModel) -> dict[int, float]:
    return {0: 2.0 * (chain.k1 + chain.k2), 1: -chain.k1, 2: -chain.k2}


def _continuum_coeffs(chain: ChainModel) -> dict[int, float]:
    return {0: 2.0 * chain.k_c, 1: -chain.k_c}


def assemble_atomistic(
    chain: ChainModel,
    interior: tuple[int, int],
    dirichlet: Mapping[int, float],
    load: np.ndarray | None = None,
) -> BandedSystem:
    """Pentadiagonal system for the atomistic operator on ``interior``.

    ``dirichlet`` supplies the two-node boundary pairs flanking the
    interior; their contributions move to the right-hand side.
    """
    load = chain.force if load is None else np.asarray(load, dtype=float)
    return _assemble(_atomistic_coeffs(chain), interior, load, dirichlet)


def assemble_continuum(
    chain: ChainModel,
    interior: tuple[int, int],
    dirichlet: Mapping[int, float],
    load: np.ndarray | None = None,
) -> BandedSystem:
    """Tridiagonal system for the continuum operator on ``interior``."""
    load = chain.force if load is None else np.asarray(load, dtype=float)
    return _assemble(_continuum_coeffs(chain), interior, load, dirichlet)


# ---------------------------------------------------------------------------
# operator identity: (A - C) u == -k2 * D1^2 u


@dataclass(frozen=True)
class OperatorIdentityReport:
    """Entrywise comparison of ``(A - C) u`` against ``-k2 * D1(D1 u)``."""

    max_abs_deviation: float
    max_eps_ratio: float  # deviation / (machine eps * entry magnitude)
    n_sites: int

    def within(self, eps_multiples: float = 8.0) -> bool:
        return self.max_eps_ratio <= eps_multiples


def _apply_atomistic(chain: ChainModel, v: np.ndarray) -> np.ndarray:
    """Five-point force operator at the fully supported rows (length shrinks by 4)."""
    return -chain.k1 * delta1_array(v)[1:-1] - chain.k2 * delta2_array(v)


def _apply_continuum(chain: ChainModel, v: np.ndarray) -> np.ndarray:
    """Three-point force operator at its supported rows (length shrinks by 2)."""
    return -chain.k_c * delta1_array(v)


def operator_identity_report(
    chain: ChainModel, fields: Iterable[np.ndarray] | None = None
) -> OperatorIdentityReport:
    """Verify the operator identity on test fields over the full chain.

    Stencils are compared at the fully supported sites ``[2, N-2]``; the
    tolerance scale is the magnitude of the entries that feed each site.
    """
    N = chain.N
    if fields is None:
        i = np.arange(N + 1, dtype=float)
        rng = np.random.default_rng(2357)
        fields = [
            np.ones(N + 1),
            i,
            i**2,
            (i / N) ** 4,
            rng.standard_normal(N + 1),
        ]
    eps = np.finfo(float).eps
    max_dev = 0.0
    max_ratio = 0.0
    n_sites = 0
    for v in fields:
        v = np.asarray(v, dtype=float)
        lhs = _apply_atomistic(chain, v) - _apply_continuum(chain, v)[1:-1]
        rhs = -chain.k2 * delta1_squared_array(v)
        dev = np.abs(lhs - rhs)
        av = np.abs(v)
        scale = (
            chain.k1 * (av[1:-3] + 2 * av[2:-2] + av[3:-1])
            + abs(chain.k2) * (av[:-4] + 2 * av[2:-2] + av[4:])
            + abs(chain.k_c) * (av[1:-3] + 2 * av[2:-2] + av[3:-1])
            + abs(chain.k2) * (av[:-4] + 4 * av[1:-3] + 6 * av[2:-2] + 4 * av[3:-1] + av[4:])
        )
        ratio = dev / (eps * np.maximum(scale, np.finfo(float).tiny))
        max_dev = max(max_dev, float(dev.max()))
        max_ratio = max(max_ratio, float(ratio.max()))
        n_sites += dev.size
    return OperatorIdentityReport(max_dev, max_ratio, n_sites)
