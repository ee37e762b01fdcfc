import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atcopt.solvers
from atcopt import cli
from atcopt.cli import main


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


class TestSolve:
    def test_writes_csv_and_summary(self, tmp_path, monkeypatch):
        code = run_cli(
            ["solve", "--N", "100", "--K", "10", "--L", "20", "--k1", "1",
             "--k2", "-0.1666667", "--force", "sine:1"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert len(lines) == 102  # header + 101 atoms
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["N"] == 100
        assert np.isfinite(summary["mismatch"])

    def test_deterministic_output(self, tmp_path, monkeypatch):
        args = ["solve", "--N", "60", "--K", "10", "--L", "20", "--force", "sine:2"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run_cli(args, tmp_path / "a", monkeypatch) == 0
        assert run_cli(args, tmp_path / "b", monkeypatch) == 0
        assert (tmp_path / "a" / "solution.csv").read_bytes() == (
            tmp_path / "b" / "solution.csv"
        ).read_bytes()

    def test_all_emitted_numbers_finite(self, tmp_path, monkeypatch):
        run_cli(["solve", "--N", "80", "--K", "12", "--L", "24", "--force", "point:40:1.0"],
                tmp_path, monkeypatch)
        for line in (tmp_path / "solution.csv").read_text().strip().splitlines()[1:]:
            for cell in line.split(","):
                if cell:
                    assert np.isfinite(float(cell))

    def test_validation_error_exit_code(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["solve", "--N", "100", "--K", "18", "--L", "20"],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "L - K" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"N": 60, "K": 10, "L": 20, "force": "sine:1", "k2": -0.2}))
        code = run_cli(
            ["solve", "--config", str(cfg), "--k2", "-0.1666667"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        # flag wins over the file value
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["N"] == 60

    def test_key_value_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 60\nK = 10\nL = 20\nforce = sine:1\n")
        assert run_cli(["solve", "--config", str(cfg)], tmp_path, monkeypatch) == 0

    def test_derived_interfaces_when_missing(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["solve", "--N", "400", "--force", "sine:1"], tmp_path, monkeypatch)
        assert code == 0
        assert "derived interfaces" in capsys.readouterr().err

    def test_derived_window_prints_no_growth_warning(self, tmp_path, monkeypatch, capsys):
        # c*sqrt(N) = 63.25 is not an integer, so the derived L = 64 exceeds it
        code = run_cli(["solve", "--N", "1000", "--force", "sine:1"], tmp_path, monkeypatch)
        assert code == 0
        err = capsys.readouterr().err
        assert "derived interfaces K=32, L=64" in err
        assert "warning" not in err

    def test_window_one_past_the_sizing_rule_warns(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["solve", "--N", "1000", "--K", "32", "--L", "65", "--force", "sine:1"],
                       tmp_path, monkeypatch)
        assert code == 0
        assert "warning: atomistic window L = 65 exceeds ceil(c*N^(1/p)) = 64" in (
            capsys.readouterr().err
        )

    def test_unscaled_sine_load_at_large_n(self, tmp_path, monkeypatch):
        # the window systems are N^2-conditioned; a backward-stable solve of
        # an unscaled smooth load must be accepted at any size
        code = run_cli(["solve", "--N", "10000", "--K", "100", "--L", "200",
                        "--force", "sine:1"], tmp_path, monkeypatch)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert np.isfinite(summary["mismatch"])

    @pytest.mark.parametrize("N", [100_000, 1_000_000])
    def test_unscaled_sine_load_derived_windows(self, N, tmp_path, monkeypatch):
        code = run_cli(["solve", "--N", str(N), "--force", "sine:1"], tmp_path, monkeypatch)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["N"] == N and np.isfinite(summary["mismatch"])
        (tmp_path / "solution.csv").unlink()  # about 70 MB at N = 1e6


class TestPatchTest:
    def test_pass(self, tmp_path, monkeypatch):
        code = run_cli(
            ["patch-test", "--N", "1000", "--K", "30", "--L", "60", "--F", "0.01"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["passed"] is True
        assert payload["max_deviation"] <= payload["tolerance"]

    @pytest.mark.parametrize("force, code", [("sine:1", 1), ("point:25:1.0", 1), ("zero", 0),
                                             (None, 0)])
    def test_load(self, force, code, tmp_path, monkeypatch, capsys):
        # a given non-zero load is refused, not silently replaced
        args = ["patch-test", "--N", "50", "--K", "10", "--L", "20"]
        assert run_cli(args + (["--force", force] if force else []), tmp_path, monkeypatch) == code
        if code:
            assert "flag --force, config key force" in capsys.readouterr().err
            assert not (tmp_path / "summary.json").exists()


class TestVerify:
    def test_scorecard_all_green(self, tmp_path, monkeypatch):
        code = run_cli(
            ["verify", "--N", "40", "--K", "10", "--L", "20", "--force", "point:25:1.0"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        scorecard = json.loads((tmp_path / "scorecard.json").read_text())
        assert scorecard["all_passed"] is True
        names = {c["name"] for c in scorecard["checks"]}
        assert {"operator_identity", "reduced_system_pd", "lifting_stability",
                "control_gap_inequalities", "mode_decomposition", "overlap_form",
                "atomistic_consistent_equivalence", "independent_minimizer"} == names

    def test_unscaled_load_passes(self, tmp_path, monkeypatch):
        # the independent-minimizer gap scales with the controls (about 9e4 here)
        code = run_cli(["verify", "--N", "2500", "--force", "sines:0.5,0.2,-0.7"],
                       tmp_path, monkeypatch)
        assert code == 0

    @pytest.mark.parametrize("magnitude", ["1e15", "1e18", "1e60"])
    def test_large_point_load_passes(self, magnitude, tmp_path, monkeypatch):
        # the oracle's Hessian and gradient steps follow the load's scale
        code = run_cli(["verify", "--N", "2500", "--K", "50", "--L", "100",
                        "--force", f"point:1250:{magnitude}"], tmp_path, monkeypatch)
        assert code == 0

    def test_tolerance_override_can_fail(self, tmp_path, monkeypatch):
        code = run_cli(
            ["verify", "--N", "40", "--K", "10", "--L", "20", "--force",
             "point:25:1.0", "--tolerance", "oracle_abs=1e-18"],
            tmp_path, monkeypatch,
        )
        assert code == 2


class TestSweep:
    def test_writes_rows(self, tmp_path, monkeypatch):
        code = run_cli(["sweep", "--N-list", "100,400"], tmp_path, monkeypatch)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("N,K,L,gamma,p,")

    def test_missing_sizes_is_validation_error(self, tmp_path, monkeypatch):
        assert run_cli(["sweep"], tmp_path, monkeypatch) == 1


class TestSmallWindows:
    # K = 2, L = 6: the atomistic window has 3 interior rows, fewer than 2*hb = 4
    SMALL = ["--N", "12", "--K", "2", "--L", "6"]

    def test_solve(self, tmp_path, monkeypatch):
        assert run_cli(["solve", *self.SMALL, "--force", "sine:1"], tmp_path, monkeypatch) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mismatch"] == pytest.approx(1.5636e-01, rel=1e-4)

    def test_verify(self, tmp_path, monkeypatch):
        assert run_cli(["verify", *self.SMALL, "--force", "sine:1"], tmp_path, monkeypatch) == 0

    def test_patch_test(self, tmp_path, monkeypatch):
        assert run_cli(["patch-test", *self.SMALL], tmp_path, monkeypatch) == 0

    @pytest.mark.parametrize("operator,window", [("atomistic", "atomistic"),
                                                 ("continuum", "continuum")])
    def test_unbalanced_state_exits_3(self, operator, window, tmp_path, monkeypatch, capsys):
        # a wrongly assembled load that every banded solve still accepts
        original = getattr(atcopt.solvers, f"assemble_{operator}")

        def shifted_load(*args, **kwargs):
            system = original(*args, **kwargs)
            return dataclasses.replace(system, rhs=system.rhs + 1e-3)

        monkeypatch.setattr(atcopt.solvers, f"assemble_{operator}", shifted_load)
        code = run_cli(["solve", "--N", "12", "--K", "2", "--L", "8", "--force", "sine:1"],
                       tmp_path, monkeypatch)
        assert code == 3
        assert f"recovered {window} window state does not balance forces" in (
            capsys.readouterr().err
        )


SETTINGS_CFG = 'N = 50\nK = 10\nL = 20\nforce.kind = "sine"\nforce.params = [1]\n'


class TestSettingsPath:
    def test_force_flag_wins_over_dotted_file_keys(self, tmp_path, monkeypatch):
        (tmp_path / "cfg.txt").write_text(SETTINGS_CFG)
        code = run_cli(["solve", "--config", "cfg.txt", "--force", "point:25:1.0"],
                       tmp_path, monkeypatch)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["controls"]["theta_a_l"] == pytest.approx(28.17, abs=5e-3)

    def test_patch_test_rejects_the_file_load(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "cfg.txt").write_text(SETTINGS_CFG)
        assert run_cli(["patch-test", "--config", "cfg.txt"], tmp_path, monkeypatch) == 1
        assert "flag --force, config key force" in capsys.readouterr().err

    def test_sweep_reads_the_file_load(self, tmp_path, monkeypatch):
        (tmp_path / "sw.txt").write_text('force.kind = "point"\nforce.params = [200, 1.0]\n')
        sizes = ["--N-list", "400,1600"]
        assert run_cli(["sweep", "--config", "sw.txt", *sizes, "--sweep-csv", "a.csv"],
                       tmp_path, monkeypatch) == 0
        assert run_cli(["sweep", "--force", "point:200:1.0", *sizes, "--sweep-csv", "b.csv"],
                       tmp_path, monkeypatch) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("args,config,names", [
    (["solve", "--N", "50", "--p", "0"], None, "--p"),
    (["solve", "--N", "0"], None, "--N"),
    (["solve", "--N", "-5"], None, "--N"),
    (["solve", "--N", "50", "--K", "10"], None, "--K"),
    (["solve", "--N", "50", "--gamma", "2"], None, "--gamma"),
    (["solve", "--N", "50", "--k1", "inf"], None, "--k1"),
    (["solve", "--N", "50", "--K", "10", "--L", "20", "--force", "sines:"], None, "sines"),
    (["verify", "--N", "100", "--K", "10", "--L", "20", "--tolerance", "bogus=1"], None,
     "tolerance key bogus"),
    (["sweep", "--N-list", "5"], None, "N_list"),
    (["solve"], "k1 = 1.0\n", "config key N"),
    (["solve"], "N = 50\ngama = 0.3\n", "'gama'"),
    (["solve"], "N = 50.5\n", "config key N"),
    (["solve"], 'N = 50\nforce = "sine:1"\nforce.kind = "point"\n', "'force.kind'"),
    (["solve"], 'N = 50\nK = 10\nL = 20\nforce = {"kind": "point", "params": [25]}\n',
     "config key force"),
    (["solve", "--N", "50", "--K", "10", "--L", "20", "--force", "point:a:1"], None, "--force"),
    (["verify", "--N", "100", "--K", "10", "--L", "20", "--tolerance", "oracle_abs=abc"], None,
     "--tolerance"),
])
def test_invalid_setting_exits_1(args, config, names, tmp_path, monkeypatch, capsys):
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        args = [*args, "--config", "cfg.txt"]
    assert run_cli(args, tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


# every value drawn is valid; a file's load is drawn as one of three forms
SETTING_VALUES = {
    "N": st.integers(4, 2500),
    "k1": st.floats(0.5, 2.0),
    "k2": st.floats(-0.1, -0.01),
    "K": st.integers(2, 50),
    "L": st.integers(6, 60),
    "p": st.floats(1.1, 4.0),
    "gamma": st.floats(0.05, 0.95),
    "c": st.floats(0.5, 4.0),
    "F": st.floats(-1.0, 1.0),
    "seed": st.integers(0, 2**31 - 1),
    "N_list": st.lists(st.integers(4, 2500), min_size=1, max_size=4),
    "force": st.sampled_from(["sine:1", "point:5:1.0", "sines:1,0,-3", "poly:0,1"]),
}
FILE_FORCES = {"string": "sine:2", "object": {"kind": "point", "params": [7, 0.5]},
               "dotted": {"kind": "sines", "params": [0.5, 0.25]}}
FLAG_ONLY_ON = {"F": "patch-test", "N_list": "sweep"}
PARSER = cli._build_parser()
LAYERS = st.fixed_dictionaries({  # key: (file value, flag value), None where unset
    key: st.tuples(
        st.none() | (st.sampled_from(sorted(FILE_FORCES)) if key == "force" else v),
        st.none() | v,
    ) if key != "L" else st.tuples(v, v)  # L is set where K is, below
    for key, v in SETTING_VALUES.items()
})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["solve", "patch-test", "verify", "sweep"]), LAYERS, st.booleans())
def test_flags_win_over_the_file_and_the_file_over_defaults(command, layers, as_json):
    argv, file, expected = [command], {}, dict(cli.DEFAULTS)
    for key, (in_file, flag) in layers.items():
        if key == "L":  # K and L are given together or not at all
            in_file, flag = (x if k is not None else None
                             for x, k in zip((in_file, flag), layers["K"]))
        if key == "force" and in_file is not None:
            in_file = FILE_FORCES[in_file]
            if in_file is FILE_FORCES["dotted"]:
                file.update({"force.kind": in_file["kind"], "force.params": in_file["params"]})
            else:
                file["force"] = in_file
        elif in_file is not None:
            file[key] = in_file
        if FLAG_ONLY_ON.get(key, command) != command:
            flag = None
        if flag is not None:
            text = ",".join(map(str, flag)) if key == "N_list" else str(flag)
            argv.append(f"--{key.replace('_', '-')}={text}")
        value = in_file if flag is None else flag
        if value is not None:
            expected[key] = tuple(value) if key == "N_list" else value
    text = json.dumps(file) if as_json else "".join(
        f"{key} = {json.dumps(value)}\n" for key, value in file.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text or "# no settings\n")
        assert cli._merged_settings(PARSER.parse_args([*argv, f"--config={path}"])) == expected
