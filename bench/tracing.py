"""Per-layer spans and counters, recorded by wrapping ``atcopt`` from outside.

The wrappers replace module attributes for the length of one traced
operation and put the originals back afterwards; nothing inside the
program changes.  Names that a module imported with ``from .x import y``
are wrapped where they are used.  The solver layer is observed through
``scipy``'s ``cholesky_banded`` and ``cho_solve_banded`` as bound in
``atcopt.solvers``: the solve functions bind ``method=solve_banded`` as a
default argument, so a wrapper on ``solve_banded`` would never be called.

A span's self time is its duration minus the time of the spans it
encloses.  File writes are timed on their own and are not a span, so
they stay inside the self time of ``cli.main``.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

import atcopt.analysis
import atcopt.cli
import atcopt.coupling
import atcopt.lattice
import atcopt.operators
import atcopt.solvers

# (owner, attribute, span name)
SPANS = (
    (atcopt.cli, "main", "cli.main"),
    (atcopt.cli, "build_chain", "lattice.build"),
    (atcopt.analysis, "materialize_force", "lattice.build"),
    (atcopt.analysis, "ChainModel", "lattice.build"),
    (atcopt.solvers, "assemble_atomistic", "operators.assemble"),
    (atcopt.solvers, "assemble_continuum", "operators.assemble"),
    (atcopt.solvers, "cholesky_banded", "solvers.factor"),
    (atcopt.solvers, "cho_solve_banded", "solvers.trisolve"),
    (atcopt.solvers, "solve_full_atomistic", "solvers.solve"),
    (atcopt.solvers, "solve_atomistic_subproblem", "solvers.solve"),
    (atcopt.solvers, "solve_continuum_subproblem", "solvers.solve"),
    (atcopt.coupling, "solve_atomistic_subproblem", "solvers.solve"),
    (atcopt.coupling, "solve_continuum_subproblem", "solvers.solve"),
    (atcopt.coupling, "solve_atomistic_on_continuum", "solvers.solve"),
    (atcopt.coupling, "assemble_reduced_system", "coupling.reduce"),
    (atcopt.coupling, "solve_controls", "coupling.reduce"),
    (atcopt.coupling, "compose_atc", "coupling.recover"),
    (atcopt.coupling, "solve_atc", "coupling.solve_atc"),
    (atcopt.coupling, "atc_csv_text", "coupling.csv"),
    (atcopt.coupling, "atc_summary_json", "coupling.json"),
    (atcopt.coupling, "solve_atc_consistent", "analysis.consistent"),
    (atcopt.analysis, "study_rows_csv_text", "analysis.csv"),
    (atcopt.analysis, "convergence_sweep", "analysis.sweep"),
    (atcopt.analysis, "error_study", "analysis.error_study"),
    (atcopt.analysis, "verification_battery", "analysis.battery"),
    (atcopt.analysis, "verify_stability", "analysis.stability"),
    (atcopt.analysis, "fd_newton_controls", "analysis.fd_newton"),
)
FORMAT_SPANS = ("coupling.csv", "coupling.json", "analysis.csv", "cli.json")


class Tracer:
    """Spans and counters of the operation in progress."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        # name -> [calls, total s, self s, factorizations inside]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.factorizations = 0
        self.factored_rows = 0
        self.operators: set = set()
        self.matvecs = 0
        self.field_bytes = 0
        self.write_s = 0.0
        self.written_bytes = 0

    # -- wrappers -------------------------------------------------------
    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            f0 = tracer.factorizations
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                s = tracer.spans[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                s[3] += tracer.factorizations - f0

        return wrapper

    def _factor(self, fn):
        tracer = self
        timed = self._span("solvers.factor", fn)

        @functools.wraps(fn)
        def wrapper(bands, *args, **kwargs):
            # Counted outside the span, so that factor_s holds no tracing work.
            # Operators are told apart by shape, edge columns and row sums of
            # the bands: hashing every band would cost more than the solves.
            b = np.asarray(bands)
            tracer.factorizations += 1
            tracer.factored_rows += b.shape[1]
            tracer.operators.add((b.shape, b[:, :3].tobytes(), b[:, -3:].tobytes(),
                                  b.sum(axis=1).tobytes()))
            return timed(bands, *args, **kwargs)

        return wrapper

    def _matvec(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.matvecs += 1
            return fn(*args, **kwargs)

        return wrapper

    def _field(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(field):
            tracer.field_bytes += 8 * np.size(field.values)
            return fn(field)

        return wrapper

    def _write(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, text):
            t0 = perf_counter()
            try:
                return fn(path, text)
            finally:
                tracer.write_s += perf_counter() - t0
                tracer.written_bytes += len(text.encode())

        return wrapper

    # -- install / remove -------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._factor(fn) if name == "solvers.factor"
                        else self._span(name, fn))
        cli_json = types.SimpleNamespace(**vars(atcopt.cli.json))
        cli_json.dumps = self._span("cli.json", atcopt.cli.json.dumps)
        self._patch(atcopt.cli, "json", cli_json)
        self._patch(atcopt.cli, "_atomic_write", self._write(atcopt.cli._atomic_write))
        banded = atcopt.operators.BandedSystem
        self._patch(banded, "matvec", self._matvec(banded.matvec))
        field = atcopt.lattice.DisplacementField
        self._patch(field, "__post_init__", self._field(field.__post_init__))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-operation figures -------------------------------------------
    def snapshot(self) -> dict:
        """Figures of the operation just traced, keyed by metric name."""
        sp = self.spans

        def total(*names):
            return sum(sp[n][1] for n in names if n in sp)

        def self_s(*names):
            return sum(sp[n][2] for n in names if n in sp)

        def calls(name):
            return sp[name][0] if name in sp else 0

        def factorizations_per_call(name):
            return sp[name][3] / sp[name][0] if name in sp else 0.0

        mib = 2.0**-20
        return {
            "lattice.build_s": total("lattice.build"),
            "lattice.field_mb": self.field_bytes * mib,
            "operators.assemblies": calls("operators.assemble"),
            "operators.assemble_s": total("operators.assemble"),
            "operators.matvecs": self.matvecs,
            "solvers.factorizations": self.factorizations,
            "solvers.factorizations_per_operator":
                self.factorizations / len(self.operators) if self.operators else 0.0,
            "solvers.factored_rows": self.factored_rows,
            "solvers.factor_s": total("solvers.factor"),
            "solvers.trisolves": calls("solvers.trisolve"),
            "solvers.trisolve_s": total("solvers.trisolve"),
            "coupling.reduce_s": self_s("coupling.reduce"),
            "coupling.recover_s": self_s("coupling.recover"),
            "coupling.factorizations_per_solve": factorizations_per_call("coupling.solve_atc"),
            "analysis.factorizations_per_study": factorizations_per_call("analysis.error_study"),
            "analysis.factorizations_per_battery": factorizations_per_call("analysis.battery"),
            "output.format_s": total(*FORMAT_SPANS),
            "output.write_s": self.write_s,
            "output.mb": self.written_bytes * mib,
            "cli.self_s": self_s("cli.main"),
            "coupling.csv_s": total("coupling.csv"),
            "coupling.json_s": total("coupling.json"),
            "coupling.export_mb": self.written_bytes * mib if calls("coupling.csv") else 0.0,
            "analysis.error_study_s":
                total("analysis.error_study") / calls("analysis.error_study")
                if calls("analysis.error_study") else 0.0,
            "analysis.stability_s": total("analysis.stability"),
            "analysis.fd_newton_s": total("analysis.fd_newton"),
            "analysis.consistent_s": total("analysis.consistent"),
        }
