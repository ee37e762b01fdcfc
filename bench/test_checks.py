"""Tests of the benchmark's output checks: correct outputs pass, altered ones fail.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from atcopt.cli import main  # noqa: E402
from workloads import EXPORT_N, K1, K2, derived_windows, force_array  # noqa: E402


def _fmt(v: float) -> str:
    return "" if np.isnan(v) else f"{v:.17g}"


def _write_solution(path: Path, data: np.ndarray) -> None:
    lines = [",".join(checks.SOLUTION_HEADER)]
    lines += [f"{int(row[0])},{_fmt(row[1])},{_fmt(row[2])},{_fmt(row[3])}" for row in data]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    N, force = 400, "sines:1.5e-06,-4e-07,2.5e-07"
    out = tmp_path_factory.mktemp("solve")
    code = main(["solve", "--N", str(N), "--force", force,
                 "--solution-csv", str(out / "solution.csv"),
                 "--summary-json", str(out / "summary.json")])
    assert code == 0
    ref = checks.ExportReference(N, *derived_windows(N), K1, K2)
    return ref, force_array(N, force), out


def _copy(out: Path, dest: Path):
    data = checks.read_csv(out / "solution.csv", checks.SOLUTION_HEADER).copy()
    summary = json.loads((out / "summary.json").read_text())
    return data, summary, dest / "solution.csv", dest / "summary.json"


def test_correct_solution_passes(solved):
    ref, force, out = solved
    checks.check_solution(ref, force, out / "solution.csv", out / "summary.json")


@pytest.mark.parametrize("row, cols", [(5, (1,)), (30, (1, 2)), (30, (3,)), (200, (1, 3))])
def test_altered_csv_value_is_rejected(solved, tmp_path, row, cols):
    """A lone u_atc edit breaks the gluing; a consistent edit breaks force balance."""
    ref, force, out = solved
    data, summary, csv_path, json_path = _copy(out, tmp_path)
    data[row, list(cols)] *= 1.0 + 1e-9
    _write_solution(csv_path, data)
    json_path.write_text(json.dumps(summary))
    with pytest.raises(checks.OutputError):
        checks.check_solution(ref, force, csv_path, json_path)


def test_nudged_control_in_summary_is_rejected(solved, tmp_path):
    ref, force, out = solved
    data, summary, csv_path, json_path = _copy(out, tmp_path)
    summary["controls"]["theta_a_l"] *= 1.0 + 1e-12
    _write_solution(csv_path, data)
    json_path.write_text(json.dumps(summary))
    with pytest.raises(checks.OutputError, match="controls"):
        checks.check_solution(ref, force, csv_path, json_path)


def test_consistent_but_suboptimal_control_is_rejected(solved, tmp_path):
    """Nudge theta_c and recompute the continuum state: only optimality fails."""
    ref, force, out = solved
    data, summary, csv_path, json_path = _copy(out, tmp_path)
    N, K, L = ref.N, ref.K, ref.L
    theta_c = summary["controls"]["theta_c_k"] * (1.0 + 1e-6)
    u_c = checks.solve_window(ref.cont, force[K + 1 : N - 1], theta_c, 0.0)
    data[K:N, 3] = u_c
    data[L + 1 : N, 1] = u_c[L + 1 - K :]
    summary["controls"]["theta_c_k"] = float(u_c[0])
    _write_solution(csv_path, data)
    json_path.write_text(json.dumps(summary))
    with pytest.raises(checks.OutputError, match="orthogonal"):
        checks.check_solution(ref, force, csv_path, json_path)


def _componentwise_backward_error(stencil, u, f_rows) -> float:
    """``max |r| / (|A||u| + |f|)`` in eps, with the residual in extended precision."""
    r = checks.apply_stencil([np.longdouble(c) for c in stencil], u.astype(np.longdouble))
    r -= f_rows
    scale = checks.apply_stencil([abs(c) for c in stencil], np.abs(u)) + np.abs(f_rows)
    rows = scale > 0.0
    return float(np.max(np.abs(r[rows]) / scale[rows], initial=0.0)) / checks.EPS


@pytest.fixture(scope="module", params=[400, EXPORT_N])
def solved_point(request, tmp_path_factory):
    N = request.param
    force = f"point:{N // 3}:0.7"
    out = tmp_path_factory.mktemp("solve_point")
    assert main(["solve", "--N", str(N), "--force", force,
                 "--solution-csv", str(out / "solution.csv"),
                 "--summary-json", str(out / "summary.json")]) == 0
    ref = checks.ExportReference(N, *derived_windows(N), K1, K2)
    return ref, force_array(N, force), out


def test_window_solves_are_within_the_control_check_backward_error(solved_point):
    """The program's printed states and the own solves meet CONTROL_OMEGA."""
    ref, force, out = solved_point
    N, K, L = ref.N, ref.K, ref.L
    data = checks.read_csv(out / "solution.csv", checks.SOLUTION_HEADER)
    f_a, f_c = force[2 : L - 1], force[K + 1 : N - 1]
    states = {
        "program atomistic": (ref.atom, data[: L + 1, 2], f_a),
        "program continuum": (ref.cont, data[K:N, 3], f_c),
        "own atomistic": (ref.atom, checks.solve_window(ref.atom, f_a, (0.0, 0.0), (1.0, -2.0)),
                          f_a),
        "own continuum": (ref.cont, checks.solve_window(ref.cont, f_c, 3.0, 0.0), f_c),
    }
    for name, (stencil, u, f_rows) in states.items():
        omega = _componentwise_backward_error(stencil, u, f_rows)
        assert omega <= checks.CONTROL_OMEGA, f"{name}: {omega:.3f} eps"


def test_control_check_sensitivity(solved_point):
    """Correct controls pass; report the smallest relative nudge that is rejected.

        python3 -m pytest bench/test_checks.py -k sensitivity -s
    """
    ref, force, out = solved_point
    c = json.loads((out / "summary.json").read_text())["controls"]
    names = ("theta_a_lm1", "theta_a_l", "theta_c_k")
    theta = np.array([c[name] for name in names])
    checks.check_controls(ref, force, theta)
    smallest = {}
    for j, name in enumerate(names):
        for rel in 10.0 ** np.arange(-12.0, -3.0, 0.5):
            nudged = theta.copy()
            nudged[j] *= 1.0 + rel
            try:
                checks.check_controls(ref, force, nudged)
            except checks.OutputError as exc:
                assert "differ from own" in str(exc)
                smallest[name] = float(rel)
                break
    print(f"N = {ref.N}: smallest rejected relative control error {smallest}")
    # 1e-9 is seen at N = 400 and 1e-4 at N = 100,000
    limit = 1e-4 if ref.N == EXPORT_N else 1e-7
    assert all(smallest.get(name, 1.0) <= limit for name in names), smallest


def test_reader_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("atom_index,u_atc,u_a_op,u_c_op\n0,0,0\n")
    with pytest.raises(checks.OutputError):
        checks.read_csv(path, checks.SOLUTION_HEADER)
    path.write_text("index,u_atc,u_a_op,u_c_op\n0,0,0,\n")
    with pytest.raises(checks.OutputError, match="header"):
        checks.read_csv(path, checks.SOLUTION_HEADER)


# ---------------------------------------------------------------------------

NS = (100, 400, 1600, 6400, 25600)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "--N-list", ",".join(map(str, NS)),
                 "--sweep-csv", str(out / "sweep.csv")]) == 0
    rung = 1600
    ref = checks.SweepReference(rung, *derived_windows(rung),
                                force_array(rung, "sines:1,0,-3") / rung**2, K1, K2)
    return out / "sweep.csv", ref


def _check_sweep(path, ref):
    return checks.check_sweep(path, np.array(NS), [derived_windows(n) for n in NS], ref,
                              max(NS))


def test_correct_sweep_passes(swept):
    _check_sweep(*swept)


@pytest.mark.parametrize("column, n, factor", [("err_model", 1600, 1.01),
                                               ("err_atc", 6400, 100.0),
                                               ("eps_scaled_err", 25600, 100.0)])
def test_altered_sweep_value_is_rejected(swept, tmp_path, column, n, factor):
    path, ref = swept
    rows = path.read_text().splitlines()
    j, r = checks.SWEEP_HEADER.index(column), 1 + NS.index(n)
    cells = rows[r].split(",")
    cells[j] = repr(float(cells[j]) * factor)
    rows[r] = ",".join(cells)
    bad = tmp_path / "sweep.csv"
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.OutputError):
        _check_sweep(bad, ref)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    N = 400
    out = tmp_path_factory.mktemp("verify")
    assert main(["verify", "--N", str(N), "--force", "point:123:3e-06", "--seed", "7",
                 "--scorecard-json", str(out / "scorecard.json")]) == 0
    return out / "scorecard.json", checks.BatteryReference(N, *derived_windows(N), K1, K2)


def test_correct_scorecard_passes(verified):
    checks.check_scorecard(*verified)


@pytest.mark.parametrize("edit", ["nudge_min_eig", "fail_check", "drop_check"])
def test_altered_scorecard_is_rejected(verified, tmp_path, edit):
    path, ref = verified
    card = json.loads(path.read_text())
    pd = next(c for c in card["checks"] if c["name"] == "reduced_system_pd")
    if edit == "nudge_min_eig":
        pd["measured"] *= 1.0 + 1e-6
    elif edit == "fail_check":
        card["checks"][-1]["passed"] = False
    else:
        card["checks"].pop()
    bad = tmp_path / "scorecard.json"
    bad.write_text(json.dumps(card))
    with pytest.raises(checks.OutputError):
        checks.check_scorecard(bad, ref)
