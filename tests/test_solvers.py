import numpy as np
import pytest

from atcopt import (
    OuterBoundary,
    build_chain,
    decompose,
    modeling_error_bound,
    solve_atc,
    solve_atomistic_subproblem,
    solve_banded,
    solve_continuum_subproblem,
    solve_full_atomistic,
    solve_full_continuum,
)
from atcopt.analysis import sweep_windows
from atcopt.operators import BandedSystem, assemble_atomistic, assemble_continuum
from atcopt.solvers import (
    BACKWARD_ERROR_TOL,
    FactorizationError,
    ResidualError,
    fields_csv_text,
    solve_atomistic_on_continuum,
)
from conftest import dense_solve, make_chain, scaled_random_force


class TestSolveBanded:
    def test_scalar_system(self):
        sys_ = BandedSystem(1, 0, np.array([[5.0 / 3.0]]), np.array([1.0]), 2)
        report = solve_banded(sys_)
        assert report.values[0] == pytest.approx(0.6)
        assert report.backward_error <= BACKWARD_ERROR_TOL
        assert report.residual_inf <= 1e-10 * 2.0

    def test_diagonal_system_returns_rhs(self, rng):
        rhs = rng.standard_normal(9)
        sys_ = BandedSystem(9, 0, np.ones((1, 9)), rhs, 0)
        assert solve_banded(sys_).values == pytest.approx(rhs)

    def test_random_banded_vs_dense(self, rng):
        # SPD by diagonal dominance; dense factorization is the oracle
        n = 50
        bands = np.zeros((3, n))
        bands[1] = rng.uniform(-1.0, 1.0, n)
        bands[2] = rng.uniform(-1.0, 1.0, n)
        bands[0] = 4.0 + rng.uniform(0.0, 1.0, n)
        rhs = rng.standard_normal(n)
        sys_ = BandedSystem(n, 2, bands, rhs, 0)
        x_banded = solve_banded(sys_).values
        x_dense = dense_solve(sys_)
        rel = np.linalg.norm(x_banded - x_dense) / np.linalg.norm(x_dense)
        assert rel <= 1e-12

    def test_non_spd_reports_factorization_error(self):
        bands = np.array([[1.0, -1.0], [0.9, 0.0]])
        sys_ = BandedSystem(2, 1, bands, np.ones(2), 0)
        with pytest.raises(FactorizationError, match="minor"):
            solve_banded(sys_)

    def test_stacked_columns_match_single_solves(self, rng):
        chain = make_chain(50, "zero")
        columns = rng.standard_normal((47, 3))
        bands = assemble_atomistic(chain, chain.interior, dict.fromkeys((0, 1, 49, 50), 0.0)).bands
        stacked = solve_banded(BandedSystem(47, 2, bands, columns, 2)).values
        assert stacked.shape == (47, 3)
        for j in range(3):
            single = solve_banded(BandedSystem(47, 2, bands, columns[:, j], 2)).values
            np.testing.assert_allclose(stacked[:, j], single, rtol=1e-13, atol=0.0)

    def test_deterministic_bitwise(self):
        chain = make_chain(60, "sine:2")
        a = solve_full_atomistic(chain).values
        b = solve_full_atomistic(chain).values
        assert np.array_equal(a, b)


class TestBackwardErrorAcceptance:
    @pytest.mark.parametrize("N", [10_000, 100_000, 1_000_000])
    @pytest.mark.parametrize("kind", ["sine", "point"])
    def test_unscaled_loads_accepted(self, N, kind):
        # the window systems are N^2-conditioned, so the absolute residual of
        # an unscaled load grows with N while the backward error stays at eps
        chain = make_chain(N, "sine:1" if kind == "sine" else f"point:{N // 3}:1.0")
        v = solve_full_atomistic(chain).values
        residual = (
            -chain.k1 * (v[1:-3] - 2.0 * v[2:-2] + v[3:-1])
            - chain.k2 * (v[:-4] - 2.0 * v[2:-2] + v[4:])
            - chain.force[2:-2]
        )
        a_norm = 4.0 * chain.k1  # row sum 2(k1 + k2) + 2 k1 + 2|k2|
        scale = a_norm * np.max(np.abs(v)) + np.max(np.abs(chain.force))
        assert np.max(np.abs(residual)) / scale <= BACKWARD_ERROR_TOL

    @pytest.mark.parametrize("kind", ["sine", "point"])
    def test_unscaled_loads_coupled(self, kind):
        # the recovered window states balance the forces to rounding level
        N = 1_000_000
        chain = make_chain(N, "sine:1" if kind == "sine" else f"point:{N // 3}:1.0")
        result = solve_atc(chain, decompose(chain, *sweep_windows(N, 2.0, 0.5, 2.0)))
        f_max = np.max(np.abs(chain.force))
        for key, state, a_norm in (
            ("state_residual_atom", result.u_a_op, 4.0 * chain.k1),
            ("state_residual_cont", result.u_c_op, 4.0 * chain.k_c),
        ):
            scale = a_norm * np.max(np.abs(state.values)) + f_max
            assert result.diagnostics[key] / scale <= BACKWARD_ERROR_TOL

    @pytest.mark.parametrize("force", ["sine:1", "point:500:1.0"])
    def test_perturbed_solution_raises(self, monkeypatch, force):
        import atcopt.solvers

        # scaling every triangular solve by 1.001 leaves the solution scaled
        # by 1 - 1e-6 after the refinement step: a backward error of about
        # 1e-6 |b| / (|A| |x|), far above rounding level
        original = atcopt.solvers.cho_solve_banded
        monkeypatch.setattr(
            atcopt.solvers,
            "cho_solve_banded",
            lambda *args, **kwargs: original(*args, **kwargs) * 1.001,
        )
        with pytest.raises(ResidualError, match="backward error"):
            solve_full_atomistic(make_chain(1000, force))


class TestFullSolves:
    def test_zero_load_zero_solution(self):
        chain = make_chain(30, "zero")
        assert np.all(solve_full_atomistic(chain).values == 0.0)
        assert np.all(solve_full_continuum(chain).values == 0.0)

    def test_single_interior_atom(self):
        chain = build_chain(4, 1.0, -1.0 / 6.0, lambda i: 1.0 if i == 2 else 0.0)
        u = solve_full_atomistic(chain)
        assert u[2] == pytest.approx(0.6)
        assert u[0] == u[1] == u[3] == u[4] == 0.0

    def test_point_load_symmetry_against_direct_3x3(self):
        # N=6 point load at the center: reflection symmetry and a hand 3x3 solve
        k1, k2 = 1.0, -1.0 / 6.0
        chain = build_chain(6, k1, k2, lambda i: 1.0 if i == 3 else 0.0)
        u = solve_full_atomistic(chain)
        assert u[2] == pytest.approx(u[4], rel=1e-14)
        a = np.array(
            [
                [2 * (k1 + k2), -k1, -k2],
                [-k1, 2 * (k1 + k2), -k1],
                [-k2, -k1, 2 * (k1 + k2)],
            ]
        )
        x = np.linalg.solve(a, np.array([0.0, 1.0, 0.0]))
        assert u.window(2, 4) == pytest.approx(x, rel=1e-14)

    def test_continuum_point_load_hand_solve(self):
        # tridiagonal 3x3 with k_c = 1/3: u = (1.5, 3, 1.5)
        chain = build_chain(6, 1.0, -1.0 / 6.0, lambda i: 1.0 if i == 3 else 0.0)
        u = solve_full_continuum(chain)
        assert u.window(2, 4) == pytest.approx([1.5, 3.0, 1.5], rel=1e-14)

    def test_continuum_inhomogeneous_is_linear(self):
        chain = make_chain(12, "zero")
        bc = OuterBoundary(0.0, 0.1, 1.1, 1.2)
        u = solve_full_continuum(chain, bc)
        i = np.arange(1, 12, dtype=float)
        assert u.window(1, 11) == pytest.approx(0.1 * i, abs=1e-13)


class TestSubproblems:
    def test_zero_data_zero_solution(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        assert np.all(solve_atomistic_subproblem(chain, d, (0.0, 0.0)).values == 0.0)
        assert np.all(solve_continuum_subproblem(chain, d, 0.0).values == 0.0)

    def test_restriction_consistency(self, rng):
        # the global solution restricted to the window solves the window
        # problem with its own interface traces
        chain = make_chain(100, scaled_random_force(100, rng))
        d = decompose(chain, 10, 20)
        u_ref = solve_full_atomistic(chain)
        sub = solve_atomistic_subproblem(chain, d, (u_ref[19], u_ref[20]))
        rel = np.linalg.norm(sub.values - u_ref.window(0, 20)) / max(
            np.linalg.norm(u_ref.window(0, 20)), 1e-300
        )
        assert rel <= 1e-12

    def test_patch_variant_linear(self):
        # zero load with boundary data on the line i*F: solution is i*F
        chain = make_chain(60, "zero")
        d = decompose(chain, 15, 30)
        F = 0.01
        u = solve_atomistic_subproblem(
            chain, d, ((d.L - 1) * F, d.L * F), gamma_minus=(0.0, F)
        )
        i = np.arange(0, d.L + 1, dtype=float)
        assert u.values == pytest.approx(i * F, abs=1e-14)

    def test_continuum_lifting_exact_linear(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        alpha = 0.7
        u = solve_continuum_subproblem(chain, d, alpha)
        i = np.arange(10, 100, dtype=float)
        assert u.values == pytest.approx(alpha * (99.0 - i) / 89.0, abs=1e-13)

    def test_continuum_sine_vs_dense_oracle(self):
        chain = make_chain(100, "sine:1")
        d = decompose(chain, 10, 20)
        u = solve_continuum_subproblem(chain, d, 0.3)
        # the window [10, 99] holds 0.3 at K = 10 and 0 at N - 1 = 99
        x_dense = dense_solve(assemble_continuum(chain, (11, 98), {10: 0.3, 99: 0.0}))
        u_dense = np.concatenate([[0.3], x_dense, [0.0]])
        rel = np.linalg.norm(u.values - u_dense) / np.linalg.norm(u_dense)
        assert rel <= 1e-12

    def test_superposition(self, rng):
        chain_f = make_chain(80, scaled_random_force(80, rng))
        d = decompose(chain_f, 12, 24)
        theta = (0.8, -0.5)
        combined = solve_atomistic_subproblem(chain_f, d, theta)
        load_only = solve_atomistic_subproblem(chain_f, d, (0.0, 0.0))
        lift_only = solve_atomistic_subproblem(
            chain_f, d, theta, load=np.zeros(81)
        )
        rel = np.linalg.norm(
            combined.values - load_only.values - lift_only.values
        ) / max(np.linalg.norm(combined.values), 1e-300)
        assert rel <= 1e-12

    def test_atomistic_on_continuum_window(self, rng):
        # two-node variant reproduces the global solution from its traces
        chain = make_chain(90, scaled_random_force(90, rng))
        d = decompose(chain, 12, 24)
        u_ref = solve_full_atomistic(chain)
        sub = solve_atomistic_on_continuum(chain, d, (u_ref[12], u_ref[13]))
        assert np.linalg.norm(sub.values - u_ref.window(12, 90)) <= 1e-12 * (
            1.0 + np.linalg.norm(u_ref.values)
        )


class TestModelingErrorBound:
    def test_zero_load(self):
        chain = make_chain(30, "zero")
        u = solve_full_atomistic(chain)
        report = modeling_error_bound(chain, u, "global")
        assert report.sharp_bound == 0.0
        assert report.curvature_norm == 0.0

    def test_three_site_sharp_prefactor(self):
        # |k2| / (4 k_c sin^2(pi/8)) with sin^2(pi/8) = (2 - sqrt(2))/4
        chain = build_chain(6, 1.0, -1.0 / 6.0, "zero")
        u = solve_full_atomistic(chain)
        report = modeling_error_bound(chain, u, "global")
        assert report.n_sites == 3
        s2 = np.sin(np.pi / 8.0) ** 2
        assert s2 == pytest.approx((2.0 - np.sqrt(2.0)) / 4.0)
        assert report.sharp_prefactor == pytest.approx((1.0 / 6.0) / (4.0 * (1.0 / 3.0) * s2))
        assert report.sharp_prefactor == pytest.approx(0.8535533905932737)

    def test_bound_dominates_measured_error(self):
        chain = make_chain(100, "sine:1")
        u_a = solve_full_atomistic(chain)
        u_c = solve_full_continuum(chain)
        err = np.linalg.norm(u_a.values - u_c.values)
        report = modeling_error_bound(chain, u_a, "global")
        assert err <= report.sharp_bound
        assert report.sharp_bound <= report.asymptotic_bound

    def test_continuum_window_variant(self):
        chain = make_chain(100, "sine:1")
        d = decompose(chain, 10, 20)
        u_a = solve_full_atomistic(chain)
        report = modeling_error_bound(chain, u_a, "continuum", d)
        assert report.n_sites == 100 - 10 - 2
        with pytest.raises(ValueError, match="decomposition"):
            modeling_error_bound(chain, u_a, "continuum")


class TestCsvExport:
    def test_roundtrip(self, tmp_path):
        chain = make_chain(20, "sine:1")
        u = solve_full_atomistic(chain)
        text = fields_csv_text("atom_index,displacement", [u])
        lines = text.strip().splitlines()
        assert lines[0] == "atom_index,displacement"
        assert len(lines) == 22
        idx, val = lines[7].split(",")
        assert int(idx) == 6
        assert float(val) == u[6]
