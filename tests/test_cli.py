import json

import numpy as np
import pytest

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
