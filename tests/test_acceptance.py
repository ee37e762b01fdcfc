"""Acceptance criteria for the coupled-chain solver.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all) and asserts the criterion at its stated tolerance.  Randomized
criteria use fixed seeds so the suite is reproducible.
"""

import time

import numpy as np

from atcopt import (
    ChainModel,
    assemble_reduced_system,
    build_chain,
    decompose,
    estimate_q_norm,
    patch_test,
    solve_atc_consistent,
    solve_controls,
    solve_full_atomistic,
    solve_full_continuum,
)
from atcopt.analysis import (
    SweepConfig,
    characteristic_polynomial,
    characteristic_roots,
    convergence_sweep,
    fd_newton_controls,
    limit_form_min_eigenvalue,
    loglog_slope,
    mode_reconstruction_residual,
    overlap_quadratic_form,
    sweep_windows,
    verify_stability,
)
from atcopt.coupling import continuum_trace_lifting, gram_norm, trace
from atcopt.operators import operator_identity_report
from atcopt.solvers import modeling_error_bound
from conftest import make_chain, random_instance


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_patch_test():
    t0 = time.perf_counter()
    worst_dev, worst_mismatch = 0.0, 0.0
    F = 0.01
    for N, K, L in ((100, 10, 20), (1000, 30, 60), (5000, 60, 120)):
        chain = make_chain(N, "zero")
        rep = patch_test(chain, decompose(chain, K, L), F)
        assert rep.max_deviation <= 1e-12 * (1 + N * F)
        assert rep.mismatch <= 1e-20
        worst_dev = max(worst_dev, rep.max_deviation / (1e-12 * (1 + N * F)))
        worst_mismatch = max(worst_mismatch, rep.mismatch)
    elapsed = time.perf_counter() - t0
    report(
        "patch test",
        elapsed < 5.0,
        f"worst deviation at {worst_dev:.3f} of tolerance, "
        f"mismatch <= {worst_mismatch:.2e}, {elapsed:.2f}s",
    )


def test_02_consistent_variant_recovers_atomistic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        chain, d = random_instance(rng, n_max=2000)
        u_ref = solve_full_atomistic(chain)
        res = solve_atc_consistent(chain, d)
        rel = float(
            np.linalg.norm(res.u_atc.values - u_ref.values)
            / max(np.linalg.norm(u_ref.values), 1e-14)
        )
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    report(
        "atomistic-consistent equivalence",
        elapsed < 10.0,
        f"worst relative error {worst:.3e} over 20 instances, {elapsed:.2f}s",
    )


def test_03_independent_minimizer_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        f = rng.uniform(-1.0, 1.0, 41)
        f[[0, 1, 39, 40]] = 0.0
        chain = ChainModel(40, 1.0, -1.0 / 6.0, f)
        d = decompose(chain, 10, 20)
        produced = solve_controls(assemble_reduced_system(chain, d)).as_array()
        oracle = fd_newton_controls(chain, d).as_array()
        gap = float(np.max(np.abs(produced - oracle)))
        worst = max(worst, gap)
        assert gap <= 1e-8
    elapsed = time.perf_counter() - t0
    report(
        "independent minimizer",
        elapsed < 5.0,
        f"worst control gap {worst:.3e} over 10 loads, {elapsed:.2f}s",
    )


def test_04_operator_identity():
    worst = 0.0
    for N in (10, 100, 1000):
        rep = operator_identity_report(make_chain(N, "zero"))
        worst = max(worst, rep.max_eps_ratio)
        assert rep.within(8.0)
    report("operator identity", True, f"worst deviation {worst:.3f} machine epsilons")


def test_05_reduced_system_positive_definite():
    rng = np.random.default_rng(5)
    min_eig = np.inf
    count = 0
    while count < 200:
        N = int(rng.integers(30, 5001))
        gamma = rng.uniform(0.2, 0.9)
        L = int(rng.integers(8, max(9, min(N - 2, 3 * int(np.sqrt(N)) + 1))))
        L = min(L, N - 2)
        K = max(2, round((1.0 - gamma) * L))
        if L - K < 4:
            K = max(2, L - 4)
        if K >= L:
            continue
        chain = make_chain(N, "zero")
        system = assemble_reduced_system(chain, decompose(chain, K, L))
        min_eig = min(min_eig, system.min_eigenvalue)
        assert system.min_eigenvalue > 0.0
        count += 1
    report(
        "reduced-system inner product",
        True,
        f"smallest eigenvalue {min_eig:.3e} over 200 decompositions",
    )


def test_06_lifting_stability():
    chain100 = make_chain(100, "zero")
    K100, L100 = sweep_windows(100, 2.0, 0.5, 2.0)
    rep = verify_stability(chain100, decompose(chain100, K100, L100))
    assert rep.continuum_violations == 0
    consts = []
    for N in (100, 400, 1600):
        K, L = sweep_windows(N, 2.0, 0.5, 2.0)
        chain = make_chain(N, "zero")
        srep = verify_stability(chain, decompose(chain, K, L))
        consts.append(srep.atomistic_constant)
    spread = max(consts) / min(consts)
    assert spread < 2.0
    report(
        "lifting stability",
        True,
        f"exact continuum ratio {rep.continuum_max_ratio:.6f} <= 1; atomistic constant "
        f"spread {spread:.3f}x across sizes",
    )


def test_07_control_gap_inequality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        chain, d = random_instance(rng, n_max=600, n_min=30)
        system = assemble_reduced_system(chain, d)
        theta_op = solve_controls(system)
        u_ref = solve_full_atomistic(chain)
        delta = trace(u_ref, d).as_array() - theta_op.as_array()
        lhs = gram_norm(system, delta)
        u_c = continuum_trace_lifting(chain, d, u_ref)
        rhs = float(np.linalg.norm(u_ref.window(d.K, d.L) - u_c.window(d.K, d.L)))
        assert lhs <= rhs * (1 + 1e-9) + 1e-13
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    report(
        "control-gap inequality",
        True,
        f"0 violations in 100 instances, worst lhs/rhs {worst:.6f}",
    )


def test_08_recovery_norm_scaling():
    ns = (100, 400, 1600, 6400)
    qs, ratios = [], []
    for N in ns:
        K, L = sweep_windows(N, 2.0, 0.5, 2.0)
        chain = make_chain(N, "zero")
        d = decompose(chain, K, L)
        q = estimate_q_norm(chain, d)
        qs.append(q)
        ratios.append(q / ((1.0 / d.gamma) * np.sqrt(N / (L - K))))
    slope = loglog_slope(ns, qs)
    band = max(ratios) / min(ratios)
    assert 0.25 - 0.15 <= slope <= 0.25 + 0.15
    assert band <= 100.0
    report(
        "recovery-norm scaling",
        True,
        f"slope {slope:.3f} in 0.25 +- 0.15, envelope ratio band {band:.2f}x",
    )


def test_09_mode_decomposition_oracle():
    rng = np.random.default_rng(9)
    worst_res, worst_prod, worst_poly = 0.0, 0.0, 0.0
    for _ in range(50):
        k1 = rng.uniform(0.5, 2.0)
        k2 = -k1 * rng.uniform(0.5, 0.95) / 4.0
        N = int(rng.integers(60, 800))
        L = int(rng.integers(12, min(60, N - 2)))
        K = int(rng.integers(2, L - 4 + 1))
        chain = build_chain(N, k1, k2, "zero")
        d = decompose(chain, K, L)
        res = mode_reconstruction_residual(chain, d, tuple(rng.standard_normal(2)))
        worst_res = max(worst_res, res)
        assert res <= 1e-10
        lam3, lam4 = characteristic_roots(k1, k2)
        assert 0.0 < lam4 < 1.0
        worst_prod = max(worst_prod, abs(lam3 * lam4 - 1.0))
        assert abs(lam3 * lam4 - 1.0) <= 1e-12
        for lam in (lam3, lam4):
            worst_poly = max(worst_poly, abs(characteristic_polynomial(k1, k2, lam)))
            assert abs(characteristic_polynomial(k1, k2, lam)) <= 1e-12
    report(
        "mode-decomposition oracle",
        True,
        f"worst residual {worst_res:.2e}, root-product dev {worst_prod:.2e}, "
        f"polynomial residual {worst_poly:.2e}",
    )


def test_10_overlap_form_oracle():
    rng = np.random.default_rng(10)
    worst_rel = 0.0
    for _ in range(50):
        chain, d = random_instance(rng, n_max=3000, n_min=30)
        form = overlap_quadratic_form(d)
        worst_rel = max(worst_rel, form.max_rel_difference)
        assert form.max_rel_difference <= 1e-12
    worst_margin = np.inf
    for gamma in np.arange(0.06, 0.95, 0.01):
        margin = limit_form_min_eigenvalue(gamma) - gamma**2 / 24.0
        worst_margin = min(worst_margin, margin)
        assert margin >= 0.0
    report(
        "overlap-form oracle",
        True,
        f"closed-vs-direct worst {worst_rel:.2e}, eigenvalue margin >= {worst_margin:.2e}",
    )


def test_11_modeling_error_bound():
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    for _ in range(100):
        chain, _ = random_instance(rng, n_max=2000, n_min=30)
        u_a = solve_full_atomistic(chain)
        u_c = solve_full_continuum(chain)
        err = float(np.linalg.norm(u_a.values - u_c.values))
        bound = modeling_error_bound(chain, u_a, "global").sharp_bound
        assert err <= bound * (1 + 1e-9) + 1e-13
        if bound > 0:
            worst_ratio = max(worst_ratio, err / bound)
    report(
        "modeling-error bound",
        True,
        f"0 violations in 100 loads, worst measured/bound {worst_ratio:.4f}",
    )


def test_12_thermodynamic_limit_sweep():
    t0 = time.perf_counter()
    result = convergence_sweep(SweepConfig(N_values=(100, 400, 1600, 6400)))
    elapsed = time.perf_counter() - t0
    assert not result.skipped
    assert 1.4 <= result.error_slope <= 2.1
    report(
        "thermodynamic-limit sweep",
        elapsed < 60.0,
        f"spacing-weighted error exponent {result.error_slope:.3f} in [1.4, 2.1], "
        f"{elapsed:.2f}s",
    )
