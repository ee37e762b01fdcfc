import numpy as np
import pytest

from atcopt import ChainModel, build_chain, decompose

K1_DEFAULT = 1.0
K2_DEFAULT = -1.0 / 6.0


def make_chain(N, force=None, k1=K1_DEFAULT, k2=K2_DEFAULT):
    return build_chain(N, k1, k2, force)


def dense_matrix(system):
    """Full symmetric matrix of a ``BandedSystem`` from its lower bands."""
    a = np.diag(system.bands[0])
    for k in range(1, min(system.half_bandwidth, system.size - 1) + 1):
        d = system.bands[k, : system.size - k]
        a += np.diag(d, -k) + np.diag(d, k)
    return a


def dense_solve(system):
    """Dense LU solve of every column; shares no code with ``atcopt.solvers``."""
    return np.linalg.solve(dense_matrix(system), system.rhs)


def cubic_solution(N, k1=K1_DEFAULT, k2=K2_DEFAULT, coeffs=(0.1, 0.7, -2.0, 1.3)):
    """Exact solution ``u = c0 + c1 x + c2 x^2 + c3 x^3``, ``x = i/N``, and its load.

    A cubic has zero fourth difference, so the atomistic and the Cauchy-Born
    operator both act on it as ``-k_c`` times its second difference.  With
    the load ``f_i = -k_c (2 c2 / N^2 + 6 c3 i / N^3)`` and the outer values
    taken from ``u``, every window problem is solved by ``u`` itself, the
    overlap mismatch is zero, and ``u`` is the unique coupled solution of
    both variants.  Built from the formula alone; shares no code with
    ``atcopt``.  Returns ``(u, f, (u0, u1, u_nm1, u_n))``.
    """
    c0, c1, c2, c3 = coeffs
    i = np.arange(N + 1, dtype=float)
    x = i / N
    u = c0 + c1 * x + c2 * x**2 + c3 * x**3
    f = -(k1 + 4.0 * k2) * (2.0 * c2 / N**2 + 6.0 * c3 * i / N**3)
    f[[0, 1, N - 1, N]] = 0.0
    return u, f, (u[0], u[1], u[N - 1], u[N])


def scaled_random_force(N, rng, kind=None):
    """Random load with amplitude ~ (100/N)^2 so solutions stay O(1e3).

    The residual acceptance threshold is absolute in the rhs scale, so
    test loads keep the solution magnitude bounded as N grows.
    """
    amp = (100.0 / max(N, 100)) ** 2
    i = np.arange(N + 1, dtype=float)
    kind = int(rng.integers(0, 3)) if kind is None else kind
    if kind == 0:
        f = rng.uniform(-1.0, 1.0, N + 1)
    elif kind == 1:
        f = np.sin(int(rng.integers(1, 4)) * np.pi * i / N) * rng.uniform(0.1, 2.0)
    else:
        f = np.zeros(N + 1)
        f[int(rng.integers(2, N - 1))] = rng.uniform(-2.0, 2.0)
    f = f * amp
    f[[0, 1, N - 1, N]] = 0.0
    return f


def random_instance(rng, n_max=2000, n_min=40, k1=K1_DEFAULT, k2=K2_DEFAULT):
    """Random valid (chain, decomposition) pair with a random load."""
    N = int(rng.integers(n_min, n_max + 1))
    L = min(max(6, int(np.ceil(2.0 * np.sqrt(N)))), N - 2)
    K = max(2, int(np.ceil(0.5 * L)))
    if L - K < 4:
        K = max(2, L - 4)
    chain = ChainModel(N, k1, k2, scaled_random_force(N, rng))
    return chain, decompose(chain, K, L)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
