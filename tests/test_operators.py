import numpy as np
import pytest

from atcopt import (
    apply_delta1,
    apply_delta2,
    assemble_atomistic,
    assemble_continuum,
    build_chain,
    operator_identity_report,
)
from atcopt.operators import delta1_squared_array

EPS = np.finfo(float).eps


class TestStencils:
    def test_constant_in_kernel(self):
        u = np.full(11, 3.7)
        for i in range(2, 9):
            assert apply_delta1(u, i) == 0.0
            assert apply_delta2(u, i) == 0.0

    def test_linear_in_kernel(self):
        u = np.arange(11, dtype=float)
        for i in range(2, 9):
            assert apply_delta1(u, i) == 0.0
            assert apply_delta2(u, i) == 0.0

    def test_quadratic(self):
        # hand evaluation: (i-1)^2 - 2 i^2 + (i+1)^2 = 2; offset 2 gives 8
        u = np.arange(11, dtype=float) ** 2
        assert apply_delta1(u, 5) == 2.0
        assert apply_delta2(u, 5) == 8.0

    def test_quartic_double_stencil(self):
        # D1(i^4) = 12 i^2 + 2, then D1 of that is 24
        u = np.arange(21, dtype=float) ** 4
        assert delta1_squared_array(u) == pytest.approx(np.full(17, 24.0))

    def test_out_of_range(self):
        u = np.arange(11, dtype=float)
        with pytest.raises(IndexError):
            apply_delta1(u, 0)
        with pytest.raises(IndexError):
            apply_delta2(u, 1)

    def test_field_offset_indexing(self):
        from atcopt import DisplacementField

        f = DisplacementField(10, 20, np.arange(10, 21, dtype=float) ** 2, "overlap")
        assert apply_delta1(f, 15) == 2.0
        assert apply_delta2(f, 15) == 8.0


class TestAssembleAtomistic:
    def test_one_unknown_system(self):
        # stencil at i=2 with u0=u1=u3=u4=0 collapses to (2k1+2k2) u2 = f2
        chain = build_chain(4, 1.0, -1.0 / 6.0, lambda i: 1.0 if i == 2 else 0.0)
        sys_ = assemble_atomistic(chain, chain.interior, {0: 0.0, 1: 0.0, 3: 0.0, 4: 0.0})
        assert sys_.size == 1
        assert sys_.bands[0, 0] == pytest.approx(2.0 * (1.0 - 1.0 / 6.0))
        assert sys_.rhs[0] == 1.0
        assert np.linalg.solve(sys_.to_dense(), sys_.rhs)[0] == pytest.approx(0.6)

    def test_zero_load_homogeneous(self):
        chain = build_chain(20, 1.0, -1.0 / 6.0, "zero")
        sys_ = assemble_atomistic(chain, chain.interior, dict.fromkeys((0, 1, 19, 20), 0.0))
        assert np.all(sys_.rhs == 0.0)
        assert np.linalg.solve(sys_.to_dense(), sys_.rhs) == pytest.approx(np.zeros(sys_.size))

    def test_missing_boundary_value(self):
        chain = build_chain(20, 1.0, -1.0 / 6.0, "zero")
        with pytest.raises(ValueError, match="missing Dirichlet value at site 20"):
            assemble_atomistic(chain, chain.interior, {0: 0.0, 1: 0.0, 19: 0.0})

    def test_boundary_fold_moves_to_rhs(self, rng):
        chain = build_chain(12, 1.0, -1.0 / 6.0, "zero")
        bvals = {0: 0.3, 1: -0.2, 11: 1.1, 12: 0.7}
        sys_ = assemble_atomistic(chain, chain.interior, bvals)
        # manufactured check: extend solution by boundary values and apply the stencil
        x = np.linalg.solve(sys_.to_dense(), sys_.rhs)
        full = np.concatenate([[bvals[0], bvals[1]], x, [bvals[11], bvals[12]]])
        k1, k2 = chain.k1, chain.k2
        for i in range(2, 11):
            val = -(k1 * apply_delta1(full, i) + k2 * apply_delta2(full, i))
            assert val == pytest.approx(0.0, abs=1e-12)


class TestAssembleContinuum:
    def test_coefficients(self):
        chain = build_chain(10, 1.0, -1.0 / 6.0, "zero")
        sys_ = assemble_continuum(chain, chain.interior, {1: 0.0, 9: 0.0})
        assert sys_.half_bandwidth == 1
        assert np.all(sys_.bands[0] == pytest.approx(2.0 / 3.0))
        assert np.all(sys_.bands[1, :-1] == pytest.approx(-1.0 / 3.0))

    def test_linear_interpolant(self):
        # zero load with end values (a, b): discrete harmonic = straight line
        chain = build_chain(10, 1.0, -1.0 / 6.0, "zero")
        a, b = 0.4, -1.2
        sys_ = assemble_continuum(chain, (2, 8), {1: a, 9: b})
        x = np.linalg.solve(sys_.to_dense(), sys_.rhs)
        i = np.arange(2, 9, dtype=float)
        expected = a + (b - a) * (i - 1.0) / 8.0
        assert x == pytest.approx(expected, abs=1e-13)

    def test_three_site_eigenvalues(self):
        # closed-form eigenvalues 4 k_c sin^2(j pi / 8), j = 1..3
        chain = build_chain(6, 1.0, -1.0 / 6.0, "zero")
        sys_ = assemble_continuum(chain, chain.interior, {1: 0.0, 5: 0.0})
        eig = np.sort(np.linalg.eigvalsh(sys_.to_dense()))
        s2 = np.sqrt(2.0)
        assert eig == pytest.approx([(2 - s2) / 3.0, 2.0 / 3.0, (2 + s2) / 3.0])
        k_c = 1.0 / 3.0
        assert eig[0] == pytest.approx(4 * k_c * np.sin(np.pi / 8) ** 2)


class TestOperatorIdentity:
    def test_linear_field_annihilated(self):
        chain = build_chain(20, 1.0, -1.0 / 6.0, "zero")
        u = np.arange(21, dtype=float)
        report = operator_identity_report(chain, [u])
        assert report.max_abs_deviation == 0.0

    def test_quadratic_field(self):
        # D1 of i^2 is the constant 2, so the composed stencil vanishes
        chain = build_chain(20, 1.0, -1.0 / 6.0, "zero")
        u = np.arange(21, dtype=float) ** 2
        assert delta1_squared_array(u) == pytest.approx(np.zeros(17))
        report = operator_identity_report(chain, [u])
        assert report.within(8.0)

    def test_quartic_field_value(self):
        chain = build_chain(20, 1.0, -1.0 / 6.0, "zero")
        u = np.arange(21, dtype=float) ** 4
        k2 = chain.k2
        # (A - C) u = -k2 * 24 at fully supported sites
        from atcopt.operators import _apply_atomistic, _apply_continuum

        diff = _apply_atomistic(chain, u) - _apply_continuum(chain, u)[1:-1]
        assert diff == pytest.approx(np.full(17, -k2 * 24.0), rel=1e-12)

    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_entrywise_eight_eps(self, N):
        chain = build_chain(N, 1.0, -1.0 / 6.0, "zero")
        report = operator_identity_report(chain)
        assert report.within(8.0)


class TestBandedSystem:
    def test_symmetry_and_positive_definiteness(self, rng):
        chain = build_chain(30, 1.0, -1.0 / 6.0, "zero")
        for assemble, bvals in (
            (assemble_atomistic, dict.fromkeys((0, 1, 29, 30), 0.0)),
            (assemble_continuum, {1: 0.0, 29: 0.0}),
        ):
            sys_ = assemble(chain, chain.interior, bvals)
            dense = sys_.to_dense()
            assert np.array_equal(dense, dense.T)
            for _ in range(5):
                v = rng.standard_normal(sys_.size)
                assert v @ dense @ v > 0.0

    def test_matvec_matches_dense(self, rng):
        chain = build_chain(25, 1.0, -1.0 / 6.0, "zero")
        sys_ = assemble_atomistic(chain, chain.interior, dict.fromkeys((0, 1, 24, 25), 0.0))
        x = rng.standard_normal(sys_.size)
        assert sys_.matvec(x) == pytest.approx(sys_.to_dense() @ x)

    def test_band_entries_and_index_offset(self):
        chain = build_chain(8, 1.0, -1.0 / 6.0, "zero")
        sys_ = assemble_continuum(chain, chain.interior, {1: 0.0, 7: 0.0})
        # global indices: interior starts at atom 2, so local row j is atom 2 + j
        assert sys_.index_offset == 2
        assert sys_.half_bandwidth == 1
        # entry (i, j) of the matrix sits at bands[i - j, j] (lower storage)
        assert sys_.bands[0, 0] == pytest.approx(2.0 / 3.0)  # (2, 2)
        assert sys_.bands[1, 0] == pytest.approx(-1.0 / 3.0)  # (3, 2), and (2, 3) by symmetry
        dense = sys_.to_dense()
        assert dense[0, 1] == dense[1, 0] == pytest.approx(-1.0 / 3.0)
        assert dense[0, 2] == 0.0  # (2, 4) is outside the tridiagonal band
