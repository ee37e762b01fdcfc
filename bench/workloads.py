"""Seeded operations of the benchmark's three workloads.

Every workload is a cycle of rounds; a run always attempts whole rounds,
so the share of operations that fail is the same in every run.  The
program only ever sees the CLI arguments built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

K1 = 1.0
K2 = -1.0 / 6.0

EXPORT_N = 100_000
VERIFY_N = 2_500
SWEEP_NS = tuple(100 * 4**k for k in range(7))  # 100 ... 409,600
SLOPE_MAX_N = 25_600  # rungs above this measure N^2-conditioned rounding

WORKLOADS = ("export", "sweep", "verify")


def derived_windows(N: int, p: float = 2.0, gamma: float = 0.5, c: float = 2.0):
    """Interfaces ``(K, L)`` the CLI derives when ``--K/--L`` are omitted."""
    L = math.ceil(c * N ** (1.0 / p))
    return max(2, math.ceil((1.0 - gamma) * L)), L


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` names the input family, ``force`` the preset."""

    kind: str
    N: int
    force: str | None = None
    battery_seed: int | None = None

    @property
    def atoms(self) -> int:
        """Atoms a completed operation solved (every rung of a sweep)."""
        if self.kind == "sweep":
            return sum(n + 1 for n in SWEEP_NS)
        return self.N + 1

    def argv(self, outdir) -> list[str]:
        if self.kind == "sweep":
            return ["sweep", "--N-list", ",".join(map(str, SWEEP_NS)),
                    "--sweep-csv", str(outdir / "sweep.csv")]
        args = ["--N", str(self.N), "--force", self.force]
        if self.battery_seed is not None:
            return ["verify", *args, "--seed", str(self.battery_seed),
                    "--scorecard-json", str(outdir / "scorecard.json")]
        return ["solve", *args, "--solution-csv", str(outdir / "solution.csv"),
                "--summary-json", str(outdir / "summary.json")]


def _point(rng: np.random.Generator, N: int, scale: float) -> str:
    i0 = int(rng.integers(2, N - 1))  # interior atoms 2 .. N-2
    return f"point:{i0}:{float(rng.uniform(-1.0, 1.0)) * scale!r}"


def _sines(rng: np.random.Generator, N: int, modes: int = 3) -> str:
    amps = rng.uniform(-1.0, 1.0, modes) / float(N) ** 2
    return "sines:" + ",".join(repr(float(a)) for a in amps)


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless rounds of operations; the same seed gives the same rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    r = 0
    while True:
        if workload == "export":
            N = EXPORT_N
            yield [
                Op("point", N, _point(rng, N, 1.0)),
                Op("sines", N, _sines(rng, N)),
                Op("point", N, _point(rng, N, 1.0)),
                Op("sines", N, _sines(rng, N)),
                Op("point", N, _point(rng, N, 1.0)),
                Op("sines", N, _sines(rng, N)),
                # Unscaled single modes; independent of the seed.  Every one
                # is rejected by the program's absolute residual test today.
                Op("sine", N, f"sine:{r % 7 + 1}"),
            ]
        elif workload == "sweep":
            yield [Op("sweep", SWEEP_NS[-1])]
        else:
            N = VERIFY_N
            yield [
                Op("point", N, _point(rng, N, 1.0 / N**2), int(rng.integers(2**31))),
                Op("sines", N, _sines(rng, N), int(rng.integers(2**31))),
            ]
        r += 1


def force_array(N: int, spec: str) -> np.ndarray:
    """The load the preset describes, built apart from the program."""
    kind, _, rest = spec.partition(":")
    i = np.arange(N + 1, dtype=float)
    f = np.zeros(N + 1)
    if kind == "point":
        idx, mag = rest.split(":")
        f[int(idx)] = float(mag)
    elif kind == "sine":
        f = np.sin(float(rest) * np.pi * i / N)
    elif kind == "sines":
        for m, a in enumerate(rest.split(","), start=1):
            f += float(a) * np.sin(m * np.pi * i / N)
    else:
        raise ValueError(f"no reference load for preset {spec!r}")
    f[[0, 1, N - 1, N]] = 0.0
    return f
