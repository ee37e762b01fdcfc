"""Every exported name resolves, and the benchmark's tracer can wrap the program.

``bench/tracing.py`` replaces module attributes of ``atcopt`` by name, so a
renamed or deleted attribute breaks the traced benchmark run; these tests
make it fail here as well.
"""

import ast
import importlib
from pathlib import Path

import pytest

import atcopt
import atcopt.coupling
from conftest import make_chain

MODULES = ("lattice", "operators", "solvers", "coupling", "analysis")
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"atcopt.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_resolve():
    tree = ast.parse(Path(atcopt.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"atcopt.{node.module}")
        for alias in node.names:
            assert getattr(atcopt, alias.name) is getattr(module, alias.name)


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.SPANS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        chain = make_chain(200, "sine:1")
        atcopt.coupling.solve_atc(chain, atcopt.decompose(chain, 15, 30))
        # the wrapped factorization is still on the solve's call path
        assert tracer.snapshot()["coupling.factorizations_per_solve"] == 2
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
