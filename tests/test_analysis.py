import dataclasses

import numpy as np
import pytest

import atcopt.analysis
import atcopt.coupling
from atcopt import (
    ControlPair,
    DisplacementField,
    alpha_coefficients,
    build_chain,
    characteristic_roots,
    convergence_sweep,
    decompose,
    error_study,
    estimate_q_norm,
    mode_decomposition,
    overlap_quadratic_form,
    patch_test,
    solve_atc,
    verify_stability,
)
from atcopt.analysis import (
    SweepConfig,
    characteristic_polynomial,
    limit_form_min_eigenvalue,
    loglog_slope,
    mode_matrix,
    mode_reconstruction_residual,
    study_rows_csv_text,
    sweep_windows,
    two_mode_reconstruction_residual,
    verification_battery,
)
from atcopt.solvers import (
    modeling_error_bound,
    solve_continuum_subproblem,
    solve_full_atomistic,
)
from conftest import make_chain, random_instance


class TestCharacteristicRoots:
    def test_default_stiffness_values(self):
        lam3, lam4 = characteristic_roots(1.0, -1.0 / 6.0)
        # closed form collapses to 2 +- sqrt(3)
        assert lam4 == pytest.approx(3.0 * (2.0 / 3.0 - np.sqrt(1.0 / 3.0)))
        assert lam4 == pytest.approx(2.0 - np.sqrt(3.0))
        assert lam3 == pytest.approx(2.0 + np.sqrt(3.0))

    def test_product_is_one(self, rng):
        for _ in range(20):
            k1 = rng.uniform(0.3, 3.0)
            k2 = -k1 * rng.uniform(0.1, 0.95) / 4.0
            lam3, lam4 = characteristic_roots(k1, k2)
            assert lam3 * lam4 == pytest.approx(1.0, rel=1e-12)
            assert 0.0 < lam4 < 1.0 < lam3

    def test_nearest_neighbor_limit(self):
        # as the second-neighbor spring vanishes the decaying root goes to 0
        lams = [characteristic_roots(1.0, k2)[1] for k2 in (-1e-2, -1e-4, -1e-6)]
        assert lams[0] > lams[1] > lams[2]
        assert lams[2] < 2e-6

    def test_polynomial_residual(self, rng):
        for _ in range(20):
            k1 = rng.uniform(0.5, 2.0)
            k2 = -k1 * rng.uniform(0.5, 0.95) / 4.0
            for lam in characteristic_roots(k1, k2):
                assert abs(characteristic_polynomial(k1, k2, lam)) <= 1e-12


class TestModeDecomposition:
    def test_zero_controls(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        coeffs = mode_decomposition(chain, d, (0.0, 0.0))
        assert coeffs.as_array() == pytest.approx(np.zeros(4))

    def test_reconstruction_residual(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        assert mode_reconstruction_residual(chain, d, (1.0, 1.0)) <= 1e-10

    def test_reconstruction_random_instances(self, rng):
        for _ in range(10):
            k1 = rng.uniform(0.5, 2.0)
            k2 = -k1 * rng.uniform(0.3, 0.95) / 4.0
            chain = build_chain(200, k1, k2, "zero")
            L = int(rng.integers(12, 40))
            K = int(rng.integers(2, L - 4 + 1))
            d = decompose(chain, K, L)
            theta = tuple(rng.standard_normal(2))
            assert mode_reconstruction_residual(chain, d, theta) <= 1e-10
            assert two_mode_reconstruction_residual(chain, d, theta) <= 1e-10

    def test_matrix_limit(self):
        _, lam = characteristic_roots(1.0, -1.0 / 6.0)
        # the L -> infinity limit of mode_matrix: lam**L -> 0 and 1/L -> 0
        limit = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, lam, 0.0],
                          [1.0, 0.0, 0.0, lam], [1.0, 0.0, 0.0, 1.0]])
        target = np.linalg.norm(np.linalg.inv(limit), 2)
        gaps = [
            abs(np.linalg.norm(np.linalg.inv(mode_matrix(L, lam)), 2) - target)
            for L in (10, 20, 40, 80, 160)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.05 * target

    def test_lam_in_unit_interval(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        coeffs = mode_decomposition(chain, d, (0.5, -0.5))
        assert 0.0 < coeffs.lam < 1.0


class TestAlphaCoefficients:
    def test_zero(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        _, lam = characteristic_roots(1.0, -1.0 / 6.0)
        assert alpha_coefficients(d, lam, (0.0, 0.0)) == pytest.approx((0.0, 0.0))

    def test_pure_linear_mode(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        _, lam = characteristic_roots(1.0, -1.0 / 6.0)
        a1, a2 = alpha_coefficients(d, lam, ((d.L - 1.0) / d.L, 1.0))
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(0.0, abs=1e-14)

    def test_pure_exponential_mode(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        _, lam = characteristic_roots(1.0, -1.0 / 6.0)
        root = np.sqrt(d.L - d.K)
        a1, a2 = alpha_coefficients(d, lam, (lam * root, root))
        assert a1 == pytest.approx(0.0, abs=1e-14)
        assert a2 == pytest.approx(1.0)


class TestPatchTest:
    def test_zero_strain(self):
        chain = make_chain(100, "zero")
        report = patch_test(chain, decompose(chain, 10, 20), 0.0)
        assert report.passed
        assert report.max_deviation == 0.0

    @pytest.mark.parametrize("N,K,L", [(100, 10, 20), (1000, 30, 60)])
    def test_uniform_strain(self, N, K, L):
        chain = make_chain(N, "zero")
        report = patch_test(chain, decompose(chain, K, L), 0.01)
        assert report.passed
        assert report.max_deviation <= 1e-12 * (1 + N * 0.01)

    def test_requires_zero_load(self):
        chain = make_chain(100, "sine:1")
        with pytest.raises(ValueError, match="zero load"):
            patch_test(chain, decompose(chain, 10, 20), 0.01)

    def test_every_sampled_decomposition_passes(self, rng):
        chain = make_chain(300, "zero")
        for _ in range(5):
            L = int(rng.integers(12, 60))
            K = int(rng.integers(2, L - 4 + 1))
            assert patch_test(chain, decompose(chain, K, L), 0.01).passed


class TestQNorm:
    def test_lower_sanity_bound(self, rng):
        chain, d = random_instance(rng, n_max=500)
        assert estimate_q_norm(chain, d) >= 1.0

    def test_decreases_with_overlap_width(self):
        chain = make_chain(400, "zero")
        qs = [estimate_q_norm(chain, decompose(chain, 10, 10 + w)) for w in (8, 16, 32)]
        assert qs[0] > qs[1] > qs[2]

    def test_scaling_slope(self):
        ns = (100, 400, 1600)
        qs = []
        for N in ns:
            K, L = sweep_windows(N, 2.0, 0.5, 2.0)
            chain = make_chain(N, "zero")
            qs.append(estimate_q_norm(chain, decompose(chain, K, L)))
        slope = loglog_slope(ns, qs)
        assert 0.25 - 0.15 <= slope <= 0.25 + 0.15


class TestOverlapForm:
    def test_closed_form_matches_direct_summation(self, rng):
        for _ in range(10):
            chain, d = random_instance(rng, n_max=1000)
            form = overlap_quadratic_form(d)
            assert form.max_rel_difference <= 1e-12

    def test_limit_min_eigenvalue_bound(self):
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert limit_form_min_eigenvalue(gamma) >= gamma**2 / 24.0

    def test_limit_determinant_small_gamma(self):
        # A*B - C^2 collapses to gamma^2/12, degenerating as gamma -> 0
        for gamma in (0.5, 0.1, 0.01):
            b = 1.0 - gamma + gamma**2 / 3.0
            c = 1.0 - gamma / 2.0
            assert 1.0 * b - c * c == pytest.approx(gamma**2 / 12.0, rel=1e-6)

    def test_specific_decomposition(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        form = overlap_quadratic_form(d)
        assert form.beta == 11.0
        assert form.max_rel_difference <= 1e-12
        assert form.lambda_min > 0.0


class TestStability:
    def test_continuum_bound_never_fails(self, rng):
        chain, d = random_instance(rng, n_max=400)
        report = verify_stability(chain, d)
        assert report.continuum_violations == 0
        assert report.continuum_max_ratio <= 1.0

    def test_atomistic_constant_stable_across_sizes(self):
        consts = []
        for N in (100, 400, 1600):
            K, L = sweep_windows(N, 2.0, 0.5, 2.0)
            chain = make_chain(N, "zero")
            report = verify_stability(chain, decompose(chain, K, L))
            consts.append(report.atomistic_constant)
        assert max(consts) / min(consts) < 2.0


class TestErrorStudy:
    def test_zero_load_all_zero(self):
        chain = make_chain(100, "zero")
        row = error_study(chain, decompose(chain, 10, 20))
        assert row.err_atc == 0.0
        assert row.err_model == 0.0
        assert row.mismatch == 0.0
        assert row.eps_scaled_err == 0.0

    def test_error_bounded_by_study_rhs(self, rng):
        for _ in range(5):
            chain, d = random_instance(rng, n_max=600)
            row = error_study(chain, d)
            assert row.err_atc <= row.bound_rhs * (1 + 1e-9) + 1e-13

    def test_model_error_bounded_on_continuum_window(self, rng):
        chain, d = random_instance(rng, n_max=600)
        u_ref = solve_full_atomistic(chain)
        u_c = solve_continuum_subproblem(chain, d, u_ref[d.K])
        err = np.linalg.norm(u_ref.window(d.K, d.N - 1) - u_c.values)
        bound = modeling_error_bound(chain, u_ref, "continuum", d)
        assert bound.n_sites == d.N - d.K - 2
        assert err <= bound.sharp_bound * (1 + 1e-9) + 1e-13


class TestConvergenceSweep:
    def test_sine_combination_rate(self):
        result = convergence_sweep(SweepConfig(N_values=(100, 400, 1600)))
        assert 1.4 <= result.error_slope <= 2.1
        assert not result.skipped

    def test_zero_load_rows(self):
        result = convergence_sweep(SweepConfig(N_values=(100, 400), force="zero"))
        assert all(r.err_atc == 0.0 for r in result.rows)
        assert np.isnan(result.error_slope)

    def test_infeasible_rows_skipped(self):
        result = convergence_sweep(SweepConfig(N_values=(8, 100)))
        assert len(result.rows) == 1
        assert len(result.skipped) == 1
        assert "infeasible" in result.skipped[0]

    def test_widening_overlap_does_not_hurt(self):
        # at fixed N, growing the overlap does not raise the coupled error
        # beyond noise
        from atcopt.lattice import ChainModel, materialize_force

        f = materialize_force(400, "sines:1,0,-3") / 400**2
        chain = ChainModel(400, 1.0, -1.0 / 6.0, f)
        errs = [
            error_study(chain, decompose(chain, K, 40)).err_atc
            for K in (30, 20, 10)
        ]
        assert errs[2] <= errs[0] * (1 + 1e-3)
        assert errs[2] < errs[0]

    def test_csv_columns(self):
        result = convergence_sweep(SweepConfig(N_values=(100, 400)))
        text = study_rows_csv_text(result.rows)
        lines = text.strip().splitlines()
        assert lines[0] == "N,K,L,gamma,p,err_atc,err_model,bound_rhs,q_norm_est,mismatch,eps_scaled_err"
        assert len(lines) == 3
        assert int(lines[1].split(",")[0]) == 100


class TestBattery:
    def test_all_checks_pass_on_reference_configuration(self):
        chain = make_chain(40, "point:25:1.0")
        checks = verification_battery(chain, decompose(chain, 10, 20))
        assert len(checks) == 8
        failed = [c.name for c in checks if not c.passed]
        assert failed == []

    @staticmethod
    def _instance(N, force):
        chain = make_chain(N, force)
        return chain, decompose(chain, *sweep_windows(N, 2.0, 0.5, 2.0))

    @pytest.mark.parametrize("scale, lo, hi", [(1e-5, 0.1, 1.0), (1.0, 1e4, 1e6)])
    def test_minimizer_check_scales_with_controls(self, monkeypatch, scale, lo, hi):
        # unit-scale controls, and the controls of the unscaled load 0.5,0.2,-0.7
        force = "sines:" + ",".join(repr(a * scale) for a in (0.5, 0.2, -0.7))
        instance = self._instance(2500, force)
        theta_inf = np.max(np.abs(solve_atc(*instance).controls.as_array()))
        assert lo <= theta_inf <= hi

        def minimizer_check():
            checks = verification_battery(*instance)
            return next(c for c in checks if c.name == "independent_minimizer")

        check = minimizer_check()
        assert check.passed
        assert check.tolerance == pytest.approx(1e-8 * max(1.0, theta_inf), rel=1e-6)
        # an oracle off by 1e-6 relative still fails
        real = atcopt.analysis.fd_newton_controls
        monkeypatch.setattr(
            atcopt.analysis,
            "fd_newton_controls",
            lambda *a: ControlPair.from_array(real(*a).as_array() * (1.0 + 1e-6)),
        )
        assert not minimizer_check().passed

    @staticmethod
    def _checks(instance):
        return {c.name: c for c in verification_battery(*instance)}

    def test_rounding_tolerances_scale_with_size(self, monkeypatch):
        # the defaults hold at N = 2,500 with L = 100
        checks = self._checks(self._instance(2500, "point:1250:1e-7"))
        assert checks["mode_decomposition"].tolerance == 1e-10
        assert checks["atomistic_consistent_equivalence"].tolerance == 1e-10
        # at N = 1e5 (L = 633) the consistent variant is 3.2e-10 off the full
        # solve and delta_star exceeds model_overlap by 2.7e-7 relative, both
        # rounding of the N^2-conditioned solves
        N = 100_000
        instance = self._instance(N, "point:50000:1.0")
        checks = self._checks(instance)
        assert [c.name for c in checks.values() if not c.passed] == []
        assert checks["mode_decomposition"].tolerance == pytest.approx(1e-10 * 6.33**2)
        assert checks["atomistic_consistent_equivalence"].tolerance == pytest.approx(1e-10 * 40**2)
        # a consistent solution 1e-6 off in relative terms still fails
        real = atcopt.coupling.solve_atc_consistent

        def perturbed(*args):
            result = real(*args)
            u = DisplacementField(0, N, result.u_atc.values * (1.0 + 1e-6))
            return dataclasses.replace(result, u_atc=u)

        monkeypatch.setattr(atcopt.coupling, "solve_atc_consistent", perturbed)
        assert not self._checks(instance)["atomistic_consistent_equivalence"].passed
