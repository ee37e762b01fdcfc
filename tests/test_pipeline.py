"""The coupling pipeline: factorization counts and recovery by linearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atcopt.solvers
from atcopt import (
    ChainModel,
    OuterBoundary,
    assemble_reduced_system,
    decompose,
    solve_atc,
    solve_atc_consistent,
)
from atcopt.analysis import error_study, verification_battery
from atcopt.solvers import (
    solve_atomistic_on_continuum,
    solve_atomistic_subproblem,
    solve_continuum_subproblem,
)
from conftest import make_chain, scaled_random_force

EPS = np.finfo(float).eps


@pytest.fixture
def count_factorizations(monkeypatch):
    calls = []
    original = atcopt.solvers.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(atcopt.solvers, "cholesky_banded", counting)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    return count


class TestFactorizationCounts:
    """One factorization per distinct window operator."""

    @pytest.fixture
    def instance(self, rng):
        chain = make_chain(400, scaled_random_force(400, rng, kind=1))
        return chain, decompose(chain, 20, 40)

    def test_solve_atc(self, count_factorizations, instance):
        assert count_factorizations(lambda: solve_atc(*instance)) == 2

    def test_solve_atc_consistent(self, count_factorizations, instance):
        assert count_factorizations(lambda: solve_atc_consistent(*instance)) == 2

    def test_error_study(self, count_factorizations, instance):
        # the full atomistic reference plus one per window operator
        assert count_factorizations(lambda: error_study(*instance)) == 3

    def test_verification_battery(self, count_factorizations, instance):
        assert count_factorizations(lambda: verification_battery(*instance)) <= 178


def _atomistic_kappa(chain: ChainModel, n: int) -> float:
    """Condition bound of the atomistic operator on n interior sites.

    The matrix is k_c*T + |k2|*(T^2 + E) with T the Dirichlet Laplacian
    and E >= 0, so its smallest eigenvalue is at least k_c*s + |k2|*s^2
    with s the smallest eigenvalue of T; its row sums are at most 4*k1.
    """
    s = 4.0 * np.sin(np.pi / (2.0 * (n + 1))) ** 2
    return 4.0 * chain.k1 / (chain.k_c * s + abs(chain.k2) * s * s)


def _continuum_kappa(n: int) -> float:
    return 1.0 / np.sin(np.pi / (2.0 * (n + 1))) ** 2


def _assert_forward_close(recovered, direct, kappa, scale):
    # both states come from solves accepted at 16 eps normwise backward
    # error; each is within about 2*kappa*16*eps of the exact state
    err = np.max(np.abs(recovered.values - direct.values))
    assert (recovered.lo, recovered.hi) == (direct.lo, direct.hi)
    assert err <= 64.0 * kappa * EPS * scale


@st.composite
def coupled_instances(draw):
    N = draw(st.integers(40, 2000))
    k1 = draw(st.floats(0.5, 2.0))
    # k2 from -k1/8 up to just short of the stability limit -k1/4
    k2 = -0.25 * k1 * draw(st.sampled_from([0.5, 0.9, 0.999, 1.0 - 1e-6]))
    L = draw(st.integers(8, min(N - 2, 4 * int(np.sqrt(N)) + 8)))
    thin = draw(st.booleans())
    K = L - 4 if thin else draw(st.integers(2, L - 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    chain = ChainModel(N, k1, k2, scaled_random_force(N, rng))
    bc = OuterBoundary(*rng.uniform(-1.0, 1.0, 4))
    theta = rng.uniform(-1.0, 1.0, 4)
    return chain, decompose(chain, K, L), bc, theta


def _scale(system, theta):
    """Sup norm of ``u0`` plus ``|theta_i| * |w_i|`` over each window's lifts."""
    peaks = [np.max(np.abs(f.values)) for f in (system.u_a0, system.u_c0, *system.basis_liftings)]
    weighted = np.abs(theta) * peaks[2:]
    return peaks[0] + weighted[:2].sum(), peaks[1] + weighted[2:].sum()


# near the stability limit the consistent variant's Gram can exceed the
# condition at which the pipeline warns; the states are still compared
@pytest.mark.filterwarnings("ignore:.*interface system condition:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coupled_instances())
def test_recovered_states_match_direct_solves(instance):
    chain, d, bc, theta = instance
    for variant in ("cauchy-born", "atomistic-consistent"):
        if variant == "cauchy-born":
            system = assemble_reduced_system(chain, d, bc)
            theta_v = theta[:3]
            direct_c = solve_continuum_subproblem(chain, d, theta_v[2], gamma_plus=bc.u_nm1)
            kappa_c = _continuum_kappa(d.N - 2 - d.K)
        else:
            system = solve_atc_consistent(chain, d, bc).system
            theta_v = theta
            direct_c = solve_atomistic_on_continuum(
                chain, d, (theta_v[2], theta_v[3]), gamma_plus_pair=(bc.u_nm1, bc.u_n)
            )
            kappa_c = _atomistic_kappa(chain, d.N - 3 - d.K)
        assert system.variant == variant
        u_a, u_c = system.states(theta_v)
        direct_a = solve_atomistic_subproblem(
            chain, d, (theta_v[0], theta_v[1]), gamma_minus=(bc.u0, bc.u1)
        )
        scale_a, scale_c = _scale(system, theta_v)
        _assert_forward_close(u_a, direct_a, _atomistic_kappa(chain, d.L - 3), scale_a)
        _assert_forward_close(u_c, direct_c, kappa_c, scale_c)
        # interface and outer boundary values are reproduced exactly
        assert (u_a[d.L - 1], u_a[d.L]) == (theta_v[0], theta_v[1])
        assert (u_a[0], u_a[1]) == (bc.u0, bc.u1)
        assert u_c[d.K] == theta_v[2]
