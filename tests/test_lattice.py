import dataclasses
import json
import math

import numpy as np
import pytest

from atcopt import (
    BandedSystem,
    ChainModel,
    DisplacementField,
    OuterBoundary,
    assemble_reduced_system,
    build_chain,
    decompose,
    materialize_force,
    parse_config_text,
    validate_assumptions,
)


class TestBuildChain:
    def test_zero_load_valid(self):
        chain = build_chain(10, 1.0, -1.0 / 6.0, "zero")
        assert chain.N == 10
        assert chain.k_c == pytest.approx(1.0 / 3.0)
        assert np.all(chain.force == 0.0)

    def test_stability_boundary_rejected(self):
        # k1 + 4*k2 = 0 sits exactly on the stability boundary
        with pytest.raises(ValueError, match="k1 \\+ 4\\*k2"):
            build_chain(10, 1.0, -0.25, "zero")

    def test_sine_load_zeroed_on_boundary_atoms(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "sine:1")
        assert chain.force[0] == chain.force[1] == 0.0
        assert chain.force[99] == chain.force[100] == 0.0
        i = np.arange(2, 99)
        assert chain.force[2:99] == pytest.approx(np.sin(np.pi * i / 100))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=3, k1=1.0, k2=-1.0 / 6.0),
            dict(N=10, k1=0.0, k2=-1.0 / 6.0),
            dict(N=10, k1=-1.0, k2=-1.0 / 6.0),
            dict(N=10, k1=1.0, k2=0.0),
            dict(N=10, k1=1.0, k2=0.1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_chain(kwargs["N"], kwargs["k1"], kwargs["k2"], "zero")

    def test_wrong_length_table_rejected(self):
        with pytest.raises(ValueError, match="expected N \\+ 1"):
            build_chain(10, 1.0, -1.0 / 6.0, np.ones(10))

    def test_nonzero_boundary_force_rejected_by_model(self):
        f = np.zeros(11)
        f[0] = 1.0
        with pytest.raises(ValueError, match="boundary atoms"):
            ChainModel(10, 1.0, -1.0 / 6.0, f)

    def test_point_load_on_boundary_rejected(self):
        with pytest.raises(ValueError, match="fixed boundary"):
            build_chain(10, 1.0, -1.0 / 6.0, "point:1:1.0")

    def test_force_is_immutable(self):
        chain = build_chain(10, 1.0, -1.0 / 6.0, "sine:1")
        with pytest.raises(ValueError):
            chain.force[3] = 7.0


class TestForcePresets:
    def test_point(self):
        f = materialize_force(10, "point:5:2.5")
        assert f[5] == 2.5
        assert np.count_nonzero(f) == 1

    def test_poly(self):
        f = materialize_force(10, "poly:1,0,2")  # 1 + 2 x^2
        x = 0.4
        assert f[4] == pytest.approx(1.0 + 2.0 * x * x)
        assert f[0] == 0.0  # boundary zeroing wins

    def test_sines_combination(self):
        f = materialize_force(100, "sines:1,0,-3")
        i = np.arange(101, dtype=float)
        expected = np.sin(np.pi * i / 100) - 3.0 * np.sin(3 * np.pi * i / 100)
        expected[[0, 1, 99, 100]] = 0.0
        assert f == pytest.approx(expected)

    def test_callable(self):
        f = materialize_force(10, lambda i: float(i))
        assert f[5] == 5.0
        assert f[0] == f[1] == f[9] == f[10] == 0.0

    def test_csv_table_pairs(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("atom_index,value\n5,2.0\n6,-1.0\n")
        f = materialize_force(10, f"csv:{path}")
        assert f[5] == 2.0 and f[6] == -1.0

    def test_csv_table_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(str(0.1 * i) for i in range(11)) + "\n")
        f = materialize_force(10, f"csv:{path}")
        assert f[5] == pytest.approx(0.5)

    def test_csv_wrong_length(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n".join("1.0" for _ in range(5)) + "\n")
        with pytest.raises(ValueError, match="expected N \\+ 1"):
            materialize_force(10, f"csv:{path}")


class TestDecompose:
    def test_index_sets(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        d = decompose(chain, 10, 20)
        assert d.gamma == pytest.approx(0.5)
        assert (d.N, d.K, d.L) == (100, 10, 20)
        assert d.cont_interior == (11, 98)

    def test_overlap_too_small_rejected(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        with pytest.raises(ValueError, match="L - K = 2"):
            decompose(chain, 18, 20)

    def test_assumption_two_window(self):
        chain = build_chain(40, 1.0, -1.0 / 6.0, "zero")
        d = decompose(chain, 10, 20)
        assert d.gamma == pytest.approx(0.5)
        assert 3.0 / d.L < d.gamma < 1.0

    def test_deterministic_and_integer_identities(self):
        chain = build_chain(200, 1.0, -1.0 / 6.0, "zero")
        d1 = decompose(chain, 14, 28)
        d2 = decompose(chain, 14, 28)
        assert d1 == d2
        # |overlap| = L - K + 1 and gamma * L = L - K exactly
        assert d1.gamma * d1.L == d1.L - d1.K

    def test_partitions(self):
        chain = build_chain(60, 1.0, -1.0 / 6.0, "zero")
        d = decompose(chain, 12, 24)
        # the continuum interior and its boundary nodes {K} and {N-1} cover [K, N-1]
        lo, hi = d.cont_interior
        assert {d.K} | set(range(lo, hi + 1)) | {d.N - 1} == set(range(d.K, d.N))

    @pytest.mark.parametrize("K,L", [(0, 10), (5, 5), (2, 99), (1, 10)])
    def test_bad_interfaces_rejected(self, K, L):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        with pytest.raises(ValueError):
            decompose(chain, K, L)


class TestAssumptions:
    def test_pass(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        report = validate_assumptions(decompose(chain, 10, 20), p=2.0, c=2.0)
        assert report.growth_ok  # 20 <= 2 * 10
        assert report.overlap_ok
        assert not report.warnings

    def test_warn(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        report = validate_assumptions(decompose(chain, 25, 50), p=2.0, c=2.0)
        assert not report.growth_ok  # 50 > 20
        assert report.warnings

    @pytest.mark.parametrize("N,p,c", [(1000, 2.0, 2.0), (100000, 2.0, 2.0), (5000, 3.0, 1.5)])
    def test_sizing_rule_window_passes_and_one_more_warns(self, N, p, c):
        # the rule's window ceil(c*N^(1/p)) exceeds the unrounded bound here
        L = math.ceil(c * N ** (1.0 / p))
        assert L > c * N ** (1.0 / p)
        chain = build_chain(N, 1.0, -1.0 / 6.0, "zero")
        assert validate_assumptions(decompose(chain, L // 2, L), p=p, c=c).growth_ok
        report = validate_assumptions(decompose(chain, L // 2, L + 1), p=p, c=c)
        assert not report.growth_ok
        assert report.warnings

    def test_large_chain_pass(self):
        chain = build_chain(10000, 1.0, -1.0 / 6.0, "zero")
        report = validate_assumptions(decompose(chain, 50, 100), p=2.0, c=2.0)
        assert report.growth_ok  # 100 <= 200

    def test_p_must_exceed_one(self):
        chain = build_chain(100, 1.0, -1.0 / 6.0, "zero")
        with pytest.raises(ValueError, match="exceed 1"):
            validate_assumptions(decompose(chain, 10, 20), p=1.0)


class TestDisplacementField:
    def test_index_arithmetic(self):
        from atcopt import DisplacementField

        f = DisplacementField(5, 9, np.arange(5.0))
        assert f[5] == 0.0 and f[9] == 4.0
        with pytest.raises(IndexError):
            f[4]
        with pytest.raises(IndexError):
            f[10]
        assert f.window(6, 8) == pytest.approx([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            f.window(4, 8)

    def test_uniform_strain_boundary(self):
        bc = OuterBoundary.uniform_strain(100, 0.01)
        assert bc.u0 == 0.0
        assert bc.u1 == pytest.approx(0.01)
        assert bc.u_nm1 == pytest.approx(0.99)
        assert bc.u_n == pytest.approx(1.0)


def test_containers_hold_read_only_views():
    force = np.zeros(11)
    force[5] = 1.0
    chain = ChainModel(10, 1.0, -1.0 / 6.0, force)
    values = np.arange(11.0)
    bands, rhs = np.ones((2, 7)), np.ones((7, 3))
    system = BandedSystem(7, 1, bands, rhs, 2)
    gram, rhs3 = np.eye(3), np.ones(3)
    reduced = assemble_reduced_system(chain, decompose(chain, 2, 6))
    reduced = dataclasses.replace(reduced, gram=gram, rhs=rhs3)
    held_and_given = {
        "ChainModel.force": (chain.force, force),
        "DisplacementField.values": (DisplacementField(0, 10, values).values, values),
        "BandedSystem.bands": (system.bands, bands),
        "BandedSystem.rhs": (system.rhs, rhs),
        "ReducedSystem.gram": (reduced.gram, gram),
        "ReducedSystem.rhs": (reduced.rhs, rhs3),
    }
    for name, (held, given) in held_and_given.items():
        assert np.shares_memory(held, given), name  # no copy
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1.0
        assert given.flags.writeable, name  # the caller's array keeps its flag


def test_non_float_input_is_converted():
    field = DisplacementField(0, 2, [1, 2, 3])
    assert field.values.dtype == np.float64
    assert not field.values.flags.writeable


class TestConfig:
    def test_key_value_text(self):
        cfg = parse_config_text("N = 100\nk1 = 1.0  # stiffness\nK = 10\nL = 20\n")
        assert cfg == {"N": 100, "k1": 1.0, "K": 10, "L": 20}

    def test_json_text(self):
        cfg = parse_config_text(json.dumps({"N": 50, "force": {"kind": "sine", "params": {"m": 2}}}))
        chain = build_chain(cfg["N"], 1.0, -1.0 / 6.0, cfg["force"])
        assert chain.N == 50
        assert chain.force[25] == pytest.approx(np.sin(2 * np.pi * 25 / 50), abs=1e-12)

    def test_dotted_force_keys(self):
        for text in ('N = 30\nforce.kind = "point"\nforce.params = {"i0": 15, "magnitude": 2.0}\n',
                     json.dumps({"N": 30, "force.kind": "point", "force.params": [15, 2.0]})):
            cfg = parse_config_text(text)
            assert set(cfg) == {"N", "force"}  # folded into the one key
            assert build_chain(cfg["N"], 1.0, -1.0 / 6.0, cfg["force"]).force[15] == 2.0

    def test_missing_key_errors(self):
        with pytest.raises(ValueError, match="'force' and 'force.kind'"):
            parse_config_text('force = "sine:1"\nforce.kind = "point"\n')
        with pytest.raises(ValueError, match="'force.params' needs 'force.kind'"):
            parse_config_text("force.params = [1]\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("N 100\n")
