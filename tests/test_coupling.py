import json

import numpy as np
import pytest

from atcopt import (
    ControlPair,
    DisplacementField,
    OuterBoundary,
    assemble_reduced_system,
    compose_atc,
    decompose,
    lift_atomistic,
    lift_continuum,
    mismatch_norm,
    solve_atc,
    solve_atc_consistent,
    solve_controls,
    solve_full_atomistic,
    trace,
)
from atcopt.analysis import fd_newton_controls, mode_reconstruction_residual
from atcopt.coupling import (
    atc_csv_text,
    atc_summary_json,
    apply_q,
    gram_norm,
)
from atcopt.solvers import solve_continuum_subproblem
from conftest import cubic_solution, make_chain, random_instance, scaled_random_force


class TestHomogeneousStates:
    def test_zero_load(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        system = assemble_reduced_system(chain, d)
        u_a0, u_c0 = system.u_a0, system.u_c0
        assert np.all(u_a0.values == 0.0)
        assert np.all(u_c0.values == 0.0)

    def test_load_outside_continuum_window(self):
        # a point load in the purely atomistic part leaves the continuum
        # homogeneous state untouched
        chain = make_chain(60, "point:5:1.0")
        d = decompose(chain, 20, 30)
        assert np.all(assemble_reduced_system(chain, d).u_c0.values == 0.0)

    def test_superposition(self, rng):
        N = 80
        f1 = scaled_random_force(N, rng)
        f2 = scaled_random_force(N, rng)
        def u_a0(f):
            chain = make_chain(N, f)
            return assemble_reduced_system(chain, decompose(chain, 12, 24)).u_a0

        u1, u2, u12 = u_a0(f1), u_a0(f2), u_a0(f1 + f2)
        rel = np.linalg.norm(u12.values - u1.values - u2.values) / max(
            np.linalg.norm(u12.values), 1e-300
        )
        assert rel <= 1e-12


class TestLiftings:
    def test_zero_controls(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        assert np.all(lift_atomistic(chain, d, (0.0, 0.0)).values == 0.0)
        assert np.all(lift_continuum(d, 0.0).values == 0.0)

    def test_near_linear_mode(self):
        # interface values on the line i/L produce the linear mode up to a
        # boundary-layer correction of size ~1/L at the fixed pair
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        v = lift_atomistic(chain, d, ((d.L - 1.0) / d.L, 1.0))
        i = np.arange(0, d.L + 1, dtype=float)
        assert np.max(np.abs(v.values - i / d.L)) <= 2.0 / d.L
        # and the closed-form mode solve reproduces it exactly
        assert mode_reconstruction_residual(chain, d, ((d.L - 1.0) / d.L, 1.0)) <= 1e-10

    def test_atomistic_stability_bound(self, rng):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        for _ in range(10):
            theta = rng.standard_normal(2)
            v = lift_atomistic(chain, d, tuple(theta))
            assert v.values @ v.values <= 2.0 * d.L * (theta @ theta)

    def test_continuum_values_and_exact_bound(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        v = lift_continuum(d, 1.0)
        assert v[10] == 1.0
        assert v[99] == 0.0
        assert v[54] == pytest.approx(45.0 / 89.0)
        # exact energy bound, never violated
        assert v.values @ v.values <= (100 - 10) * 1.0**2

    def test_continuum_lifting_closed_form_sum(self):
        # sum_{j=0}^{M} (j/M)^2 = (M+1)(2M+1)/(6M) <= N - K
        d = decompose(make_chain(100, "zero"), 10, 20)
        v = lift_continuum(d, 1.0)
        M = 99 - 10
        assert v.values @ v.values == pytest.approx((M + 1) * (2 * M + 1) / (6 * M))


class TestMismatch:
    def test_equal_fields(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        u = lift_atomistic(chain, d, (0.3, 0.4))
        r = mismatch_norm(u, DisplacementField(10, 20, u.window(10, 20)), d)
        assert r.total == 0.0

    def test_unit_offset_counts_sites(self):
        from atcopt import DisplacementField

        d = decompose(make_chain(40, "zero"), 10, 20)
        u_a = DisplacementField(0, 20, np.ones(21))
        u_c = DisplacementField(10, 39, np.zeros(30))
        r = mismatch_norm(u_a, u_c, d)
        assert r.total == pytest.approx(d.L - d.K + 1)

    def test_split_sums_to_total(self, rng):
        chain, d = random_instance(rng, n_max=300)
        res = solve_atc(chain, d)
        r = res.mismatch_split
        assert r.at_cont_interface + r.interior + r.at_atom_interface == pytest.approx(
            r.total, rel=1e-12, abs=1e-300
        )


class TestReducedSystem:
    def test_zero_load_zero_controls(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        system = assemble_reduced_system(chain, d)
        assert np.all(system.rhs == 0.0)
        controls = solve_controls(system)
        assert controls.as_array() == pytest.approx(np.zeros(3))
        res = compose_atc(chain, d, controls, system=system)
        assert np.all(res.u_atc.values == 0.0)
        assert res.mismatch == 0.0

    def test_gram_symmetry(self, rng):
        chain, d = random_instance(rng, n_max=500)
        system = assemble_reduced_system(chain, d)
        g = system.gram
        assert np.max(np.abs(g - g.T)) <= 1e-14 * np.max(np.abs(g))

    def test_gram_positive_definite_sweep(self, rng):
        for _ in range(25):
            chain, d = random_instance(rng, n_max=1500)
            system = assemble_reduced_system(chain, d)
            assert system.min_eigenvalue > 0.0

    def test_optimality_gradient(self, rng):
        # finite-difference gradient of the overlap objective vanishes at
        # the returned controls
        chain, d = random_instance(rng, n_max=300)
        system = assemble_reduced_system(chain, d)
        theta = solve_controls(system).as_array()

        from atcopt.solvers import solve_atomistic_subproblem, solve_continuum_subproblem

        def objective(t):
            u_a = solve_atomistic_subproblem(chain, d, (t[0], t[1]))
            u_c = solve_continuum_subproblem(chain, d, t[2])
            diff = u_a.window(d.K, d.L) - u_c.window(d.K, d.L)
            return 0.5 * float(diff @ diff)

        h = max(1.0, 0.01 * np.max(np.abs(theta)))
        grad = np.array(
            [
                (objective(theta + h * e) - objective(theta - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        scale = 1.0 + objective(np.zeros(3))
        assert np.max(np.abs(grad)) <= 1e-8 * scale


class TestControlsOracle:
    def test_zero_rhs(self):
        chain = make_chain(40, "zero")
        d = decompose(chain, 10, 20)
        oracle = fd_newton_controls(chain, d)
        assert oracle.as_array() == pytest.approx(np.zeros(3), abs=1e-12)

    def test_matches_reduced_space_solution(self, rng):
        for _ in range(3):
            chain, d = random_instance(rng, n_max=60, n_min=40)
            produced = solve_controls(assemble_reduced_system(chain, d)).as_array()
            oracle = fd_newton_controls(chain, d).as_array()
            assert np.max(np.abs(produced - oracle)) <= 1e-8

    @pytest.mark.parametrize("force", [
        f"point:1250:{1 / 2500**2!r}", "point:1250:1.0",
        f"sines:{0.5 / 2500**2!r},{0.2 / 2500**2!r},{-0.7 / 2500**2!r}", "sines:0.5,0.2,-0.7",
        "sine:1",
    ])
    def test_relative_gap_at_any_load_scale(self, force):
        # the same load at unit and at 1/N^2 scale: the gap is relative to the
        # controls, with no absolute floor
        chain = make_chain(2500, force)
        d = decompose(chain, 50, 100)
        produced = solve_controls(assemble_reduced_system(chain, d)).as_array()
        oracle = fd_newton_controls(chain, d).as_array()
        assert np.max(np.abs(produced - oracle)) <= 1e-10 * np.max(np.abs(produced))


class TestComposeAndTrace:
    def test_exact_traces_reproduce_reference(self, rng):
        # feeding the reference interface values recovers the reference on
        # the atomistic window and the trace lifting beyond the overlap
        chain, d = random_instance(rng, n_max=400)
        u_ref = solve_full_atomistic(chain)
        res = compose_atc(chain, d, trace(u_ref, d))
        scale = 1.0 + float(np.max(np.abs(u_ref.values)))
        assert np.max(np.abs(res.u_atc.window(0, d.L) - u_ref.window(0, d.L))) <= 1e-12 * scale
        u_c_lift = solve_continuum_subproblem(chain, d, u_ref[d.K])
        assert np.max(
            np.abs(res.u_atc.window(d.L + 1, d.N - 1) - u_c_lift.window(d.L + 1, d.N - 1))
        ) <= 1e-12 * scale

    def test_trace_reads_interface_values(self):
        from atcopt import DisplacementField

        d = decompose(make_chain(100, "zero"), 10, 20)
        u = DisplacementField(0, 100, np.arange(101, dtype=float))
        c = trace(u, d)
        assert (c.theta_a_lm1, c.theta_a_l, c.theta_c_k) == (19.0, 20.0, 10.0)

    def test_trace_zero(self):
        d = decompose(make_chain(100, "zero"), 10, 20)
        u = solve_full_atomistic(make_chain(100, "zero"))
        assert trace(u, d).as_array() == pytest.approx(np.zeros(3))

    def test_trace_of_composed_result_roundtrip(self, rng):
        chain, d = random_instance(rng, n_max=300)
        res = solve_atc(chain, d)
        back = trace(res.u_atc, d)
        # atomistic interface values are Dirichlet data of the window solve
        assert back.theta_a_lm1 == res.controls.theta_a_lm1
        assert back.theta_a_l == res.controls.theta_a_l
        # at K the glued field carries the atomistic state, not theta_c
        assert back.theta_c_k == res.u_a_op[d.K]

    def test_uniform_strain_composition(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        F = 0.01
        bc = OuterBoundary.uniform_strain(100, F)
        controls = ControlPair(19 * F, 20 * F, 10 * F)
        res = compose_atc(chain, d, controls, bc)
        i = np.arange(101, dtype=float)
        assert np.max(np.abs(res.u_atc.values - i * F)) <= 1e-12 * (1 + 100 * F)
        assert res.mismatch <= 1e-24


class TestSolveAtc:
    def test_zero_load(self):
        chain = make_chain(60, "zero")
        d = decompose(chain, 12, 24)
        res = solve_atc(chain, d)
        assert np.all(res.u_atc.values == 0.0)
        assert res.mismatch == 0.0

    def test_patch_configuration(self):
        chain = make_chain(100, "zero")
        d = decompose(chain, 10, 20)
        F = 0.01
        res = solve_atc(chain, d, OuterBoundary.uniform_strain(100, F))
        i = np.arange(101, dtype=float)
        assert np.max(np.abs(res.u_atc.values - i * F)) <= 1e-12 * (1 + 100 * F)
        assert res.mismatch <= 1e-20

    def test_matches_oracle_on_sine_load(self):
        chain = make_chain(40, "sine:1")
        d = decompose(chain, 10, 20)
        res = solve_atc(chain, d)
        oracle = fd_newton_controls(chain, d)
        assert np.max(np.abs(res.controls.as_array() - oracle.as_array())) <= 1e-8

    def test_control_gap_bounded_by_overlap_model_error(self, rng):
        # the control-space gap to the reference traces never exceeds the
        # overlap modeling error of the trace lifting
        for _ in range(5):
            chain, d = random_instance(rng, n_max=500)
            system = assemble_reduced_system(chain, d)
            theta_op = solve_controls(system)
            u_ref = solve_full_atomistic(chain)
            delta = trace(u_ref, d).as_array() - theta_op.as_array()
            u_c_lift = solve_continuum_subproblem(chain, d, u_ref[d.K])
            rhs = float(np.linalg.norm(u_ref.window(d.K, d.L) - u_c_lift.window(d.K, d.L)))
            assert gram_norm(system, delta) <= rhs * (1 + 1e-9) + 1e-13

    def test_error_split_chain(self, rng):
        from atcopt.analysis import error_split_report

        for _ in range(3):
            chain, d = random_instance(rng, n_max=400)
            rep = error_split_report(chain, d)
            assert rep["triangle_ok"] and rep["operator_ok"] and rep["trace_ok"]


class TestConsistentVariant:
    def test_zero_load(self):
        chain = make_chain(60, "zero")
        d = decompose(chain, 12, 24)
        res = solve_atc_consistent(chain, d)
        assert np.all(res.u_atc.values == 0.0)

    def test_recovers_global_solution(self, rng):
        for _ in range(5):
            chain, d = random_instance(rng, n_max=800)
            u_ref = solve_full_atomistic(chain)
            res = solve_atc_consistent(chain, d)
            rel = np.linalg.norm(res.u_atc.values - u_ref.values) / max(
                np.linalg.norm(u_ref.values), 1e-14
            )
            assert rel <= 1e-10

    def test_controls_equal_reference_traces(self, rng):
        chain, d = random_instance(rng, n_max=500)
        u_ref = solve_full_atomistic(chain)
        res = solve_atc_consistent(chain, d)
        scale = 1.0 + float(np.max(np.abs(u_ref.values)))
        assert abs(res.controls.theta_a_lm1 - u_ref[d.L - 1]) <= 1e-10 * scale
        assert abs(res.controls.theta_a_l - u_ref[d.L]) <= 1e-10 * scale
        assert abs(res.controls.theta_c_k - u_ref[d.K]) <= 1e-10 * scale
        assert abs(res.diagnostics["theta_c_kp1"] - u_ref[d.K + 1]) <= 1e-10 * scale


class TestRecoveryOperator:
    def test_linear_part_supports(self, rng):
        chain, d = random_instance(rng, n_max=200)
        mu = ControlPair(0.4, -0.2, 0.9)
        q = apply_q(chain, d, mu)
        assert q.lo == 0 and q.hi == d.N
        assert q[d.N] == 0.0
        # linearity
        q2 = apply_q(chain, d, ControlPair(0.8, -0.4, 1.8))
        assert q2.values == pytest.approx(2.0 * q.values, rel=1e-12, abs=1e-14)


class TestExports:
    def test_csv_blank_columns(self):
        chain = make_chain(40, "sine:1")
        d = decompose(chain, 10, 20)
        res = solve_atc(chain, d)
        lines = atc_csv_text(res, d).strip().splitlines()
        assert lines[0] == "atom_index,u_atc,u_a_op,u_c_op"
        assert len(lines) == 42
        row5 = lines[6].split(",")
        assert row5[3] == ""  # atom 5 is outside the continuum window
        row35 = lines[36].split(",")
        assert row35[2] == ""  # atom 35 is outside the atomistic window
        row15 = lines[16].split(",")
        assert row15[2] != "" and row15[3] != ""  # overlap carries both

    def test_json_summary(self):
        chain = make_chain(40, "sine:1")
        d = decompose(chain, 10, 20)
        res = solve_atc(chain, d)
        payload = json.loads(atc_summary_json(res, d))
        assert payload["N"] == 40
        assert set(payload["controls"]) == {"theta_a_lm1", "theta_a_l", "theta_c_k"}
        assert payload["mismatch"] == res.mismatch
        assert "gram_condition" in payload["diagnostics"]
        # recovered states satisfy their force balances to rounding
        assert payload["diagnostics"]["state_residual_atom"] <= 1e-12
        assert payload["diagnostics"]["state_residual_cont"] <= 1e-12


@pytest.mark.parametrize("solve", [solve_atc, solve_atc_consistent])
@pytest.mark.parametrize("L", [6, 7, 8])
def test_cubic_solution_on_the_smallest_windows(solve, L):
    # at L = 6, 7 the atomistic window has at most 2*hb = 4 interior rows, so
    # the Dirichlet data of its two ends reach the same rows
    u, f, bc = cubic_solution(12)
    chain = make_chain(12, f)
    result = solve(chain, decompose(chain, 2, L), OuterBoundary(*bc))
    assert np.max(np.abs(result.u_atc.values - u)) <= 1e-13 * np.max(np.abs(u))
