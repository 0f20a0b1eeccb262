import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qht
from qht import operators
from qht.config import HERMITIAN_TOL
from qht.operators import hermitian_part, strictly_positive

from conftest import rng_hermitian


class TestEigendecompose:
    def test_identity(self):
        dec = qht.eigendecompose(np.eye(2))
        assert dec.v == 1
        np.testing.assert_allclose(dec.eigenvalues, [1.0])
        np.testing.assert_allclose(dec.projections[0], np.eye(2))

    def test_diagonal(self):
        dec = qht.eigendecompose(np.diag([0.9, 0.1]))
        assert dec.v == 2
        np.testing.assert_allclose(dec.eigenvalues, [0.1, 0.9])
        np.testing.assert_allclose(dec.projections[0], np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(dec.projections[1], np.diag([1.0, 0.0]), atol=1e-14)

    def test_degenerate_spectrum_merges(self):
        dec = qht.eigendecompose(np.diag([0.5, 0.5]))
        assert dec.v == 1
        np.testing.assert_allclose(dec.projections[0], np.eye(2), atol=1e-14)

    def test_near_degenerate_merges_but_separated_does_not(self):
        assert qht.eigendecompose(np.diag([0.5, 0.5 + 1e-12])).v == 1
        assert qht.eigendecompose(np.diag([0.5, 0.5001])).v == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(qht.NonHermitianInput):
            qht.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("factor,raises", [(1.001, True), (0.999, False)])
    def test_asymmetry_threshold(self, factor, raises):
        # the symmetry slack is HERMITIAN_TOL * (1 + max |eigenvalue|) of the
        # Hermitian part, here 1e-10 * 3; |M - M*| is the one entry delta
        tol = HERMITIAN_TOL
        delta = factor * tol * 3.0
        M = np.diag([2.0, -1.0]).astype(complex)
        M[0, 1] = delta
        assert 1.0 + np.abs(np.linalg.eigvalsh(hermitian_part(M))).max() == 3.0
        if raises:
            with pytest.raises(qht.NonHermitianInput):
                qht.eigendecompose(M)
        else:
            assert qht.eigendecompose(M).v == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_cluster_means_match_per_cluster_mean(self, seed):
        # singletons are taken from w as they are; every mean must equal the
        # per-cluster .mean() bit for bit, repeated eigenvalues included
        rng = np.random.default_rng([seed, 41])
        base = rng.standard_normal(8)
        w = np.sort(np.concatenate([
            base,
            np.repeat(base[:3], 4),
            base[3:5] + 1e-13 * rng.standard_normal(2),
            np.kron(base[:4], base[:4]),
        ]))
        means, sizes, thr, _ = operators._gap_clusters(w, qht.DEFAULT_TOL)
        breaks = np.flatnonzero(np.diff(w) > thr) + 1
        reference = np.array([c.mean() for c in np.split(w, breaks)])
        assert (sizes > 1).any() and (sizes == 1).any()
        np.testing.assert_array_equal(means, reference)
        np.testing.assert_array_equal(sizes, [len(c) for c in np.split(w, breaks)])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 5))
    def test_roundtrip(self, seed, dim):
        H = rng_hermitian(seed, dim)
        dec = qht.eigendecompose(H)
        err = np.linalg.norm(dec.reconstruct() - H, 2)
        assert err <= 1e-10 * np.linalg.norm(H, 2)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 5))
    def test_projector_invariants(self, seed, dim):
        H = rng_hermitian(seed, dim)
        dec = qht.eigendecompose(H)
        total = np.zeros((dim, dim), dtype=complex)
        for i, P in enumerate(dec.projections):
            assert np.linalg.norm(P @ P - P, 2) <= 1e-9
            assert np.abs(P - P.conj().T).max() <= 1e-12
            for Q in dec.projections[i + 1 :]:
                assert np.linalg.norm(P @ Q, 2) <= 1e-9
            total += P
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-9)
        assert (np.diff(dec.eigenvalues) > 0).all()


class TestPinch:
    def test_commuting_input_unchanged(self):
        ref = qht.eigendecompose(np.diag([0.9, 0.1]))
        B = np.diag([3.0, -1.0])
        np.testing.assert_allclose(qht.pinch(ref, B), B, atol=1e-14)

    def test_off_diagonal_annihilated(self):
        ref = qht.eigendecompose(np.diag([0.9, 0.1]))
        B = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -3.0]])
        np.testing.assert_allclose(qht.pinch(ref, B), np.diag([2.0, -3.0]), atol=1e-14)

    def test_single_block_is_identity_map(self):
        ref = qht.eigendecompose(np.eye(2))
        B = rng_hermitian(5, 2)
        np.testing.assert_allclose(qht.pinch(ref, B), B, atol=1e-14)

    def test_dimension_mismatch(self):
        ref = qht.eigendecompose(np.eye(2))
        with pytest.raises(qht.DimensionMismatch):
            qht.pinch(ref, np.eye(3))

    @pytest.mark.parametrize(
        "reference",
        [np.eye(3), np.diag([0.3, 0.3, 0.4])]
        + [
            qht.tensor_power(qht.random_pair(seed).sigma, n)
            for seed in range(2)
            for n in (3, 4, 5)
        ],
    )
    def test_matches_projector_sum(self, reference):
        dec = qht.eigendecompose(reference)
        B = rng_hermitian(dec.dim, dec.dim) + 1j * rng_hermitian(dec.dim + 1, dec.dim)
        explicit = sum(P @ B @ P for P in dec.projections)
        assert np.abs(qht.pinch(dec, B) - explicit).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_commutation_and_trace(self, seed):
        A = rng_hermitian(seed, 3)
        B = rng_hermitian(seed + 1, 3)
        dec = qht.eigendecompose(A)
        P = qht.pinch(dec, B)
        scale = np.linalg.norm(A, 2) * np.linalg.norm(B, 2)
        assert np.linalg.norm(P @ A - A @ P, 2) <= 1e-9 * scale
        assert abs(np.trace(P) - np.trace(B)) <= 1e-12 * max(1.0, abs(np.trace(B)))
        # trace identity against anything commuting with A
        C = A @ A @ A - 2.0 * A + 0.7 * np.eye(3)
        assert abs(np.trace(B @ C) - np.trace(P @ C)) <= 1e-9


class TestPositiveProjection:
    def test_positive_definite_gives_identity(self):
        np.testing.assert_allclose(
            qht.positive_projection(np.diag([2.0, 0.5])), np.eye(2), atol=1e-14
        )

    def test_mixed_signs(self):
        np.testing.assert_allclose(
            qht.positive_projection(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(
            qht.positive_projection(np.zeros((2, 2))), np.zeros((2, 2))
        )

    def test_zero_within_tolerance_excluded(self):
        P = qht.positive_projection(np.diag([1.0, 1e-12]))
        np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-14)

    def test_mask_on_numbers_matches_projection_rank(self):
        # a cluster is kept by its mean: 3e-11 (x4) and 1.2e-10 share a
        # cluster with mean 4.8e-11 < 1e-10, so neither counts, while the
        # same 1.2e-10 alone would
        for w in ([-1.0, 3e-11, 3e-11, 3e-11, 3e-11, 1.2e-10, 1.0], [-1.0, 1.2e-10, 1.0]):
            H = np.diag(w)
            mask = strictly_positive(np.sort(w))
            rank = round(np.trace(qht.positive_projection(H)).real)
            assert mask.sum() == rank
        assert list(strictly_positive([-1.0, 3e-11, 3e-11, 3e-11, 3e-11, 1.2e-10, 1.0])) == [
            False, False, False, False, False, False, True
        ]
        assert list(strictly_positive([-1.0, 1.2e-10, 1.0])) == [False, True, True]

    def test_margin_follows_the_positive_end(self):
        # for X = A - B with B much larger than A, a margin relative to
        # max|w| = 1e8 would drop the eigenvalue 1e-4; the margin is relative
        # to the top eigenvalue, floored at the roundoff 16 eps max|w|, which
        # 1e-9 is below
        w = [-1e8, 1e-9, 1e-4, 0.5]
        assert list(strictly_positive(w)) == [False, False, True, True]
        rank = round(np.trace(qht.positive_projection(np.diag(w))).real)
        assert rank == 2

    def test_zero_spectrum_keeps_nothing(self):
        assert not strictly_positive(np.zeros(5)).any()


class TestMatrixPower:
    def test_power_one_and_zero(self):
        H = rng_hermitian(3, 3)
        np.testing.assert_allclose(qht.matrix_power(H, 1), H, atol=1e-12)
        Hp = np.diag([0.3, 0.7])
        np.testing.assert_allclose(qht.matrix_power(Hp, 0), np.eye(2), atol=1e-12)

    def test_zero_power_is_support_projection(self):
        np.testing.assert_allclose(
            qht.matrix_power(np.diag([1.0, 0.0]), 0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_square_root(self):
        np.testing.assert_allclose(
            qht.matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_inverse(self):
        np.testing.assert_allclose(
            qht.matrix_power(np.diag([0.5, 0.5]), -1.0), np.diag([2.0, 2.0]), atol=1e-12
        )

    def test_fractional_power_rejects_indefinite(self):
        with pytest.raises(qht.NegativeSpectrum):
            qht.matrix_power(np.diag([1.0, -1.0]), 0.5)

    def test_strict_mode_rejects_singular_inverse(self):
        with pytest.raises(qht.SingularInStrictMode):
            qht.matrix_power(np.diag([1.0, 0.0]), -1.0)

    def test_smoothing_mode_inverts_on_support(self):
        tol = qht.ToleranceConfig(strict=False)
        out = qht.matrix_power(np.diag([2.0, 0.0]), -1.0, tol)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_integer_power_on_indefinite(self):
        H = np.diag([1.0, -2.0])
        np.testing.assert_allclose(qht.matrix_power(H, 2), np.diag([1.0, 4.0]), atol=1e-12)


class TestTensorPower:
    def test_first_power(self):
        A = rng_hermitian(7, 2)
        np.testing.assert_allclose(qht.tensor_power(A, 1), A)

    def test_diagonal_kron(self):
        out = qht.tensor_power(np.diag([0.9, 0.1]), 2)
        np.testing.assert_allclose(out, np.diag([0.81, 0.09, 0.09, 0.01]), atol=1e-15)

    def test_trace_multiplicative(self):
        rho = qht.random_density(np.random.default_rng(0), 2)
        out = qht.tensor_power(rho, 3)
        assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_budget(self, monkeypatch):
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.tensor_power(np.eye(2), 13)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 16)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.tensor_power(np.eye(2), 5)
        qht.tensor_power(np.eye(2), 4)  # exactly at the budget

    def test_order_validation(self):
        with pytest.raises(ValueError):
            qht.tensor_power(np.eye(2), 0)


class TestMinEigenvalue:
    @pytest.mark.parametrize(
        "matrix,expected",
        [(np.eye(2), 1.0), (np.diag([1.0, -2.0]), -2.0), (np.zeros((2, 2)), 0.0)],
    )
    def test_values(self, matrix, expected):
        assert qht.min_eigenvalue(matrix) == pytest.approx(expected, abs=1e-12)


class TestKeyInequality:
    def test_commuting_nondegenerate(self):
        # pinching is the identity map here, so the residual is (v-1) min eig
        rho = np.diag([0.7, 0.3])
        dec = qht.eigendecompose(np.diag([0.9, 0.1]))
        res = qht.key_inequality_residual(rho, dec)
        assert res == pytest.approx((dec.v - 1) * 0.3, abs=1e-12)
        assert res >= 0

    def test_single_block(self):
        rho = np.diag([0.7, 0.3])
        dec = qht.eigendecompose(np.eye(2) / 2.0)
        assert qht.key_inequality_residual(rho, dec) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_qubit_n3(self, seed):
        pair = qht.random_pair(seed)
        rho_n = qht.tensor_power(pair.rho, 3)
        dec = qht.eigendecompose(qht.tensor_power(pair.sigma, 3))
        assert qht.key_inequality_residual(rho_n, dec) >= -1e-9

    def test_dimension_mismatch(self):
        dec = qht.eigendecompose(np.eye(2))
        with pytest.raises(qht.DimensionMismatch):
            qht.key_inequality_residual(np.eye(4) / 4.0, dec)


class TestOperatorConvexity:
    def _triple(self, seed, dim=3):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = G @ G.conj().T
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return A, X, Y

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_endpoints_vanish(self, t):
        A, X, Y = self._triple(1)
        gap = qht.operator_convexity_gap(A, X, Y, t)
        assert qht.min_eigenvalue(gap) == pytest.approx(0.0, abs=1e-12)

    def test_equal_arguments_vanish(self):
        A, X, _ = self._triple(2)
        gap = qht.operator_convexity_gap(A, X, X, 0.4)
        assert qht.min_eigenvalue(gap) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_closed_form(self, seed):
        A, X, Y = self._triple(seed)
        t = float(np.random.default_rng(seed + 1000).random())
        gap = qht.operator_convexity_gap(A, X, Y, t)
        closed = t * (1.0 - t) * (X - Y).conj().T @ A @ (X - Y)
        assert np.abs(gap - closed).max() <= 1e-10
        assert qht.min_eigenvalue(gap) >= -1e-10

    def test_requires_psd_weight(self):
        with pytest.raises(qht.NotPositiveSemidefinite):
            qht.operator_convexity_gap(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), 0.5)

    def test_t_range(self):
        A, X, Y = self._triple(3)
        with pytest.raises(ValueError):
            qht.operator_convexity_gap(A, X, Y, 1.5)


class TestInversePowerDomination:
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
    def test_pinched_inverse_dominated(self, s):
        # v^s rho_n^{-s} - pinch(rho_n)^{-s} >= 0, from the key inequality and
        # operator antitonicity of the inverse power
        pair = qht.random_pair(11)
        for n in (1, 2):
            rho_n = qht.tensor_power(pair.rho, n)
            dec = qht.eigendecompose(qht.tensor_power(pair.sigma, n))
            gap = dec.v**s * qht.matrix_power(rho_n, -s) - qht.matrix_power(
                qht.pinch(dec, rho_n), -s
            )
            assert qht.min_eigenvalue(gap) >= -1e-8


class TestHermitianPart:
    def test_already_hermitian(self):
        H = rng_hermitian(0, 3)
        np.testing.assert_allclose(hermitian_part(H), H)
