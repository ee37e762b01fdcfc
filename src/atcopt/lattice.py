"""Chain model, domain decomposition, and displacement-field containers.

The computational domain is a 1D lattice of ``N + 1`` atoms indexed
``0..N`` with unit spacing.  Atoms interact with first and second
neighbors through linear springs ``k1 > 0`` and ``k2 < 0``; the outer
boundary pairs ``{0, 1}`` and ``{N-1, N}`` are held fixed.  The
decomposition splits the chain into an atomistic window ``[0, L]``, a
continuum window ``[K, N-1]`` and their overlap ``[K, L]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

__all__ = [
    "ChainModel",
    "Decomposition",
    "DisplacementField",
    "OuterBoundary",
    "AssumptionReport",
    "build_chain",
    "decompose",
    "validate_assumptions",
    "materialize_force",
    "parse_config_text",
    "load_config",
]


def _readonly(a) -> np.ndarray:
    """Read-only view of ``a`` as floats; copies only to convert.

    The flag is set on the view, so the caller's array stays writable and
    writing to it shows through the view.
    """
    out = np.asarray(a, dtype=float).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChainModel:
    """A chain of ``N + 1`` atoms with spring constants and a dead load.

    ``force[i]`` is the external load on atom ``i``; it vanishes on the
    four fixed boundary atoms ``{0, 1, N-1, N}``.  ``force`` is a
    read-only view of the array given, not a copy.
    """

    N: int
    k1: float
    k2: float
    force: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 4:
            raise ValueError(
                f"N = {self.N}: need N >= 4 so the interior [2, N-2] is nonempty"
            )
        if not self.k1 > 0:
            raise ValueError(f"k1 = {self.k1}: first-neighbor stiffness must be positive")
        if not self.k2 < 0:
            raise ValueError(f"k2 = {self.k2}: second-neighbor stiffness must be negative")
        if not self.k1 + 4.0 * self.k2 > 0:
            raise ValueError(
                f"k1 + 4*k2 = {self.k1 + 4.0 * self.k2}: violates the stability "
                "condition k1 + 4*k2 > 0"
            )
        f = np.asarray(self.force, dtype=float)
        if f.shape != (self.N + 1,):
            raise ValueError(
                f"force table has shape {f.shape}, expected ({self.N + 1},) for N = {self.N}"
            )
        if not np.all(np.isfinite(f)):
            raise ValueError("force table contains non-finite entries")
        if np.any(f[list(self.boundary_atoms)] != 0.0):
            raise ValueError("force must vanish on the fixed boundary atoms {0, 1, N-1, N}")
        object.__setattr__(self, "force", _readonly(f))

    @property
    def k_c(self) -> float:
        """Continuum stiffness from replacing second-neighbor by first-neighbor bonds."""
        return self.k1 + 4.0 * self.k2

    @property
    def boundary_atoms(self) -> tuple[int, int, int, int]:
        return (0, 1, self.N - 1, self.N)

    @property
    def interior(self) -> tuple[int, int]:
        """Index range of unconstrained atoms, ``[2, N-2]``."""
        return (2, self.N - 2)


@dataclass(frozen=True)
class Decomposition:
    """Index bookkeeping for the atomistic/continuum splitting.

    The continuum window uses the single-node artificial boundary ``{K}``
    on the left and the single true boundary node ``{N-1}`` on the right
    (the value at atom ``N`` stays pinned by the outer condition and never
    enters the three-point continuum stencil).  When the full atomistic
    operator is used on the continuum window, both ends widen to node
    pairs: ``{K, K+1}`` and ``{N-1, N}``.
    """

    N: int
    K: int
    L: int

    def __post_init__(self) -> None:
        N, K, L = self.N, self.K, self.L
        if not (0 < K < L < N):
            raise ValueError(f"(K, L, N) = ({K}, {L}, {N}): need 0 < K < L < N")
        if L - K < 4:
            raise ValueError(
                f"L - K = {L - K} < 4: overlap interior [K+2, L-2] would be empty"
            )
        if K < 2:
            raise ValueError(f"K = {K} < 2: atomistic interior must reach past the fixed pair")
        if L > N - 2:
            raise ValueError(f"L = {L} > N - 2 = {N - 2}: continuum interior would be empty")

    @property
    def gamma(self) -> float:
        """Overlap ratio ``(L - K) / L``."""
        return (self.L - self.K) / self.L

    @property
    def cont_interior(self) -> tuple[int, int]:
        return (self.K + 1, self.N - 2)


@dataclass(frozen=True)
class DisplacementField:
    """Real values indexed over a contiguous atom range ``[lo, hi]``.

    ``values`` is a read-only view of the array given, not a copy.
    """

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if self.hi < self.lo:
            raise ValueError(f"empty index range [{self.lo}, {self.hi}]")
        if v.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"values have shape {v.shape}, expected ({self.hi - self.lo + 1},) "
                f"for range [{self.lo}, {self.hi}]"
            )
        object.__setattr__(self, "values", _readonly(v))

    def __getitem__(self, i: int) -> float:
        if not self.lo <= i <= self.hi:
            raise IndexError(f"atom index {i} outside field range [{self.lo}, {self.hi}]")
        return float(self.values[i - self.lo])

    def window(self, a: int, b: int) -> np.ndarray:
        """Values on the inclusive index range ``[a, b]``."""
        if not (self.lo <= a and b <= self.hi and a <= b):
            raise ValueError(
                f"window [{a}, {b}] not contained in field range [{self.lo}, {self.hi}]"
            )
        return self.values[a - self.lo : b - self.lo + 1]

    def norm(self, a: int | None = None, b: int | None = None) -> float:
        """l2 norm over ``[a, b]`` (defaults to the whole range)."""
        a = self.lo if a is None else a
        b = self.hi if b is None else b
        return float(np.linalg.norm(self.window(a, b)))


@dataclass(frozen=True)
class OuterBoundary:
    """Dirichlet values on the true boundary pairs ``{0,1}`` and ``{N-1,N}``.

    The default is the homogeneous condition of the pinned chain; the
    uniform-strain variant feeds the ghost-force patch test.
    """

    u0: float = 0.0
    u1: float = 0.0
    u_nm1: float = 0.0
    u_n: float = 0.0

    @classmethod
    def uniform_strain(cls, N: int, F: float) -> "OuterBoundary":
        return cls(0.0, F, (N - 1) * F, N * F)


# ---------------------------------------------------------------------------
# construction helpers


def materialize_force(N: int, spec=None) -> np.ndarray:
    """Build the per-atom load table from a preset description.

    Accepted forms:

    * ``None`` or ``"zero"`` -- no load;
    * ``"point:I:MAG"`` -- point load ``MAG`` at atom ``I``;
    * ``"sine:M"`` -- ``f_i = sin(M*pi*i/N)``;
    * ``"sines:A1,A2,..."`` -- mode combination ``sum_m A_m*sin(m*pi*i/N)``;
    * ``"poly:C0,C1,..."`` -- polynomial in ``x = i/N``;
    * ``"csv:PATH"`` / ``"table:PATH"`` -- table read from a file;
    * a dict ``{"kind": ..., "params": ...}``, a sequence of ``N + 1``
      values, or a callable ``i -> f_i``.

    The four boundary entries are zeroed in all cases.
    """
    kind, params = _normalize_force_spec(N, spec)
    i = np.arange(N + 1, dtype=float)
    if kind == "zero":
        f = np.zeros(N + 1)
    elif kind == "point":
        i0 = int(params["i0"])
        mag = float(params["magnitude"])
        if not 2 <= i0 <= N - 2:
            raise ValueError(
                f"point load at atom {i0} lands on a fixed boundary atom; need 2 <= i0 <= N-2"
            )
        f = np.zeros(N + 1)
        f[i0] = mag
    elif kind == "sine":
        m = float(params.get("m", 1.0))
        f = np.sin(m * np.pi * i / N)
    elif kind == "sines":
        if not params["amplitudes"]:
            raise ValueError("force kind 'sines' needs at least one amplitude: sines:A1,A2,...")
        f = np.zeros(N + 1)
        for m, a in enumerate(params["amplitudes"], start=1):
            f += float(a) * np.sin(m * np.pi * i / N)
    elif kind == "poly":
        coeffs = [float(c) for c in params["coeffs"]]
        if not coeffs:
            raise ValueError("force kind 'poly' needs at least one coefficient: poly:C0,C1,...")
        x = i / N
        f = np.zeros(N + 1)
        for j, c in enumerate(coeffs):
            f += c * x**j
    elif kind == "table":
        if "pairs" in params:
            f = np.zeros(N + 1)
            for idx, val in params["pairs"].items():
                if not 0 <= idx <= N:
                    raise ValueError(f"force table index {idx} outside 0..{N}")
                f[idx] = val
        else:
            f = np.asarray(params["values"], dtype=float)
            if f.shape != (N + 1,):
                raise ValueError(
                    f"force table has {f.size} entries, expected N + 1 = {N + 1}"
                )
            f = f.copy()
    else:
        raise ValueError(f"unknown force kind {kind!r}")
    f[[0, 1, N - 1, N]] = 0.0
    return f


def _normalize_force_spec(N: int, spec) -> tuple[str, dict]:
    if spec is None:
        return "zero", {}
    if callable(spec):
        return "table", {"values": [float(spec(i)) for i in range(N + 1)]}
    if isinstance(spec, (list, tuple, np.ndarray)):
        return "table", {"values": np.asarray(spec, dtype=float)}
    if isinstance(spec, Mapping):
        kind = str(spec.get("kind", "zero"))
        params = spec.get("params", {})
        if not isinstance(params, Mapping):
            params = _positional_params(kind, list(params))
        else:
            params = dict(params)
        return kind, params
    if isinstance(spec, str):
        return _parse_force_string(spec)
    raise ValueError(f"unsupported force specification {spec!r}")


def _positional_params(kind: str, args: list) -> dict:
    if kind == "point":
        return {"i0": args[0], "magnitude": args[1]}
    if kind == "sine":
        return {"m": args[0]} if args else {}
    if kind == "sines":
        return {"amplitudes": args}
    if kind == "poly":
        return {"coeffs": args}
    if kind == "table":
        return {"values": args}
    return {}


def _parse_force_string(spec: str) -> tuple[str, dict]:
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "zero":
        return "zero", {}
    if head == "point":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"point load spec {spec!r}: expected point:INDEX:MAGNITUDE")
        return "point", {"i0": int(parts[0]), "magnitude": float(parts[1])}
    if head == "sine":
        return "sine", {"m": float(rest)} if rest else {}
    if head == "sines":
        return "sines", {"amplitudes": [float(a) for a in rest.split(",") if a.strip()]}
    if head == "poly":
        return "poly", {"coeffs": [float(c) for c in rest.split(",") if c.strip()]}
    if head in ("csv", "table"):
        return "table", _read_force_table(rest)
    raise ValueError(f"unknown force kind {head!r} in {spec!r}")


def _read_force_table(path: str) -> dict:
    text = Path(path).read_text()
    pairs: dict[int, float] = {}
    singles: list[float] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0].lower() in ("atom_index", "index", "i"):
            continue  # header
        if len(parts) == 2:
            idx = int(parts[0])
            if idx in pairs:
                raise ValueError(f"duplicate atom index {idx} in force table {path}")
            pairs[idx] = float(parts[1])
        elif len(parts) == 1:
            singles.append(float(parts[0]))
        else:
            raise ValueError(f"malformed force-table line {raw!r} in {path}")
    if pairs and singles:
        raise ValueError(f"force table {path} mixes indexed and plain rows")
    if pairs:
        return {"pairs": pairs}
    return {"values": np.asarray(singles, dtype=float)}


def build_chain(N: int, k1: float, k2: float, force=None) -> ChainModel:
    """Validate parameters and materialize the load; see :func:`materialize_force`."""
    return ChainModel(int(N), float(k1), float(k2), materialize_force(int(N), force))


def decompose(chain: ChainModel, K: int, L: int) -> Decomposition:
    """Split the chain into atomistic/continuum/overlap windows at ``K < L``."""
    return Decomposition(chain.N, int(K), int(L))


@dataclass(frozen=True)
class AssumptionReport:
    """Advisory screening of the two asymptotic sizing assumptions."""

    p: float
    c: float
    growth_bound: float  # c * N**(1/p)
    growth_ok: bool
    overlap_lower: float  # 3 / L
    gamma: float
    overlap_ok: bool
    warnings: tuple[str, ...]


def validate_assumptions(decomp: Decomposition, p: float, c: float = 2.0) -> AssumptionReport:
    """Check ``L <= ceil(c * N**(1/p))`` and ``3/L < gamma < 1`` (warnings only).

    The growth bound is the integer window of the sizing rule, so a
    window derived from ``(p, c)`` never warns.
    """
    if not p > 1:
        raise ValueError(f"p = {p}: the sizing exponent must exceed 1")
    growth_bound = c * decomp.N ** (1.0 / p)
    growth_ok = decomp.L <= math.ceil(growth_bound)
    overlap_lower = 3.0 / decomp.L
    gamma = decomp.gamma
    overlap_ok = overlap_lower < gamma < 1.0
    warnings = []
    if not growth_ok:
        warnings.append(
            f"atomistic window L = {decomp.L} exceeds ceil(c*N^(1/p)) = "
            f"{math.ceil(growth_bound)}"
        )
    if not overlap_ok:
        warnings.append(
            f"overlap ratio gamma = {gamma:.6g} outside (3/L, 1) = ({overlap_lower:.6g}, 1)"
        )
    return AssumptionReport(
        p=p,
        c=c,
        growth_bound=growth_bound,
        growth_ok=growth_ok,
        overlap_lower=overlap_lower,
        gamma=gamma,
        overlap_ok=overlap_ok,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# plain-text / JSON configuration


def parse_config_text(text: str) -> dict:
    """Parse a JSON object or ``key = value`` lines into a flat dict.

    The dotted keys ``force.kind`` and ``force.params`` are folded into
    the single key ``force = {"kind": ..., "params": ...}``, so a load
    has one key whichever form the file uses.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        cfg = json.loads(text)
        if not isinstance(cfg, dict):
            raise ValueError("JSON config must be an object")
    else:
        cfg = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not of the form key = value")
            key, _, value = line.partition("=")
            cfg[key.strip()] = _parse_scalar(value.strip())
    dotted = {key: cfg.pop(key) for key in ("force.kind", "force.params") if key in cfg}
    if dotted:
        if "force" in cfg:
            raise ValueError(
                f"config sets both 'force' and {' and '.join(map(repr, dotted))}; use one form"
            )
        if "force.kind" not in dotted:
            raise ValueError("config key 'force.params' needs 'force.kind'")
        cfg["force"] = {"kind": dotted["force.kind"], "params": dotted.get("force.params", {})}
    return cfg


def _parse_scalar(s: str):
    try:
        return json.loads(s)
    except (json.JSONDecodeError, ValueError):
        return s


def load_config(path) -> dict:
    return parse_config_text(Path(path).read_text())
