"""CSV export: the chunked formatter against a per-row f-string oracle, byte for byte."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atcopt.coupling
import atcopt.solvers
from atcopt import DisplacementField, OuterBoundary, decompose, solve_atc
from atcopt.analysis import sweep_windows
from atcopt.cli import main
from atcopt.coupling import atc_csv_text
from atcopt.solvers import fields_csv_text
from conftest import make_chain


def oracle_atc_csv(result) -> str:
    """One f-string per row, one ``.17g`` format per present cell."""
    u_atc, u_a, u_c = result.u_atc, result.u_a_op, result.u_c_op
    lines = ["atom_index,u_atc,u_a_op,u_c_op"]
    for i in range(u_atc.lo, u_atc.hi + 1):
        a = f"{u_a[i]:.17g}" if u_a.lo <= i <= u_a.hi else ""
        c = f"{u_c[i]:.17g}" if u_c.lo <= i <= u_c.hi else ""
        lines.append(f"{i},{u_atc[i]:.17g},{a},{c}")
    return "\n".join(lines) + "\n"


def oracle_displacement_csv(field) -> str:
    lines = ["atom_index,displacement"]
    for i in range(field.lo, field.hi + 1):
        lines.append(f"{i},{field[i]:.17g}")
    return "\n".join(lines) + "\n"


@st.composite
def coupled_results(draw):
    N = draw(st.integers(8, 400))
    L = draw(st.integers(6, N - 2))
    K = draw(st.integers(2, L - 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 3))
    f = rng.uniform(-1.0, 1.0, N + 1) * scale / N**2
    chain = make_chain(N, f)
    bc = OuterBoundary(*(rng.uniform(-1.0, 1.0, 4) * draw(st.sampled_from([0.0, 1.0]))))
    return solve_atc(chain, decompose(chain, K, L), bc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coupled_results(), st.sampled_from([1, 3, 7, 4096]))
def test_matches_oracle(result, chunk_rows):
    # small chunks put window edges inside, at and between chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atcopt.solvers, "CSV_CHUNK_ROWS", chunk_rows)
        assert atc_csv_text(result, result.system.decomp) == oracle_atc_csv(result)
        text = fields_csv_text("atom_index,displacement", [result.u_c_op])
        assert text == oracle_displacement_csv(result.u_c_op)


def _hand_built(N=20, K=6, L=12):
    chain = make_chain(N, "sine:1")
    d = decompose(chain, K, L)
    result = solve_atc(chain, d)
    rng = np.random.default_rng(7)
    atc = rng.standard_normal(N + 1)
    atc[[2, 3, 4, 5, 14, 15]] = [0.0, -0.0, 5e-324, 1e308, -1e308, 0.0]
    a = atc[: L + 1].copy()
    a[[2, 3]] = [-0.0, 0.0]  # equal as floats, different bits
    c = atc[K:N].copy()
    c[: L - K + 1] += 1e-3 * rng.standard_normal(L - K + 1)  # overlap differs
    c[15 - K] = -0.0
    c[16 - K] = np.nextafter(atc[16], np.inf)
    fields = dict(
        u_atc=DisplacementField(0, N, atc),
        u_a_op=DisplacementField(0, L, a),
        u_c_op=DisplacementField(K, N - 1, c),
    )
    return dataclasses.replace(result, **fields), d


@pytest.mark.parametrize("chunk_rows", [1, 4, 4096])
def test_signed_zeros_subnormals_and_extremes(monkeypatch, chunk_rows):
    monkeypatch.setattr(atcopt.solvers, "CSV_CHUNK_ROWS", chunk_rows)
    result, d = _hand_built()
    text = atc_csv_text(result, d)
    assert text == oracle_atc_csv(result)
    rows = text.splitlines()
    assert rows[3] == "2,0,-0,"
    assert rows[4] == "3,-0,0,"
    assert rows[5].startswith("4,4.9406564584124654e-324,4.9406564584124654e-324,")
    assert rows[15] == "14,-1e+308,,-1e+308"
    assert rows[16] == "15,0,,-0"


def test_cli_solve_large_chain_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    N, force = 100_000, "point:40000:0.7"
    assert main(["solve", "--N", str(N), "--force", force]) == 0
    chain = make_chain(N, force)
    result = solve_atc(chain, decompose(chain, *sweep_windows(N, 2.0, 0.5, 2.0)))
    assert (tmp_path / "solution.csv").read_text() == oracle_atc_csv(result)


@pytest.mark.parametrize("name", ["u_atc", "u_a_op", "u_c_op"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_is_refused(name, bad):
    result, d = _hand_built()
    field = getattr(result, name)
    values = field.values.copy()
    values[-1] = bad
    broken = dataclasses.replace(result, **{name: DisplacementField(field.lo, field.hi, values)})
    with pytest.raises(ValueError, match="non-finite"):
        atc_csv_text(broken, d)
    with pytest.raises(ValueError, match="non-finite"):
        fields_csv_text("atom_index,displacement", [getattr(broken, name)])


def test_cli_refuses_non_finite_solution(tmp_path, monkeypatch, capsys):
    def with_nan(chain, decomp, bc=None):
        result = solve_atc(chain, decomp, bc)
        values = result.u_c_op.values.copy()
        values[0] = np.nan
        return dataclasses.replace(
            result, u_c_op=DisplacementField(result.u_c_op.lo, result.u_c_op.hi, values)
        )

    monkeypatch.setattr(atcopt.coupling, "solve_atc", with_nan)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--N", "60", "--K", "10", "--L", "20", "--force", "sine:1"]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
