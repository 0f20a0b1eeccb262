import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qht
from qht import checks, finite_n, operators
from qht.finite_n import (
    _kept,
    _key_residual,
    _level_data,
    _log_levels,
    _pinched_errors,
    _plain_errors_spin_blocks,
    _sigma_basis,
    _spin_blocks,
    _sym_power,
    _sym_table,
    _tensor_block,
    _weight_levels,
)
from qht.operators import hermitian_part, positive_projection, tensor_power

from conftest import seeded_diagonal_pairs, seeded_pairs
from oracles import pinched_test_errors_mp, plain_test_errors_mp


def exact_errors(pair, test):
    """Dense-trace reference for both error probabilities."""
    rho_n = tensor_power(pair.rho, test.n)
    sigma_n = tensor_power(pair.sigma, test.n)
    eye = np.eye(test.dim)
    return (
        float(np.trace(rho_n @ (eye - test.operator)).real),
        float(np.trace(sigma_n @ test.operator).real),
    )


@pytest.fixture
def level_counts(monkeypatch):
    """The number of sigma_n levels behind each test or sweep run while active."""
    counts = []

    def spy(*args):
        levels = _level_data(*args)
        counts.append(len(levels))
        return levels

    monkeypatch.setattr(finite_n, "_level_data", spy)
    return counts


class TestBuildPinchedTest:
    def test_very_negative_threshold_accepts_everything(self, generic):
        test = qht.build_pinched_test(generic, 1, -50.0)
        np.testing.assert_allclose(test.operator, np.eye(2), atol=1e-12)
        ep = qht.error_probabilities(generic, test)
        assert ep.alpha == pytest.approx(0.0, abs=1e-12)
        assert ep.beta == pytest.approx(1.0, abs=1e-12)

    def test_very_positive_threshold_rejects_everything(self, generic):
        test = qht.build_pinched_test(generic, 1, 50.0)
        np.testing.assert_allclose(test.operator, np.zeros((2, 2)), atol=1e-12)
        ep = qht.error_probabilities(generic, test)
        assert ep.alpha == pytest.approx(1.0, abs=1e-12)
        assert ep.beta == pytest.approx(0.0, abs=1e-12)

    def test_commuting_reduces_to_likelihood_ratio(self, commuting):
        # p = (0.5, 0.5), q = (0.9, 0.1): at a = 0 only x2 has p > q
        test = qht.build_pinched_test(commuting, 1, 0.0)
        np.testing.assert_allclose(test.operator, np.diag([0.0, 1.0]), atol=1e-12)

    def test_hand_evaluated_errors(self, commuting):
        ep = qht.error_probabilities(commuting, qht.build_pinched_test(commuting, 1, 0.0))
        assert ep.alpha == pytest.approx(0.5, abs=1e-12)
        assert ep.beta == pytest.approx(0.1, abs=1e-12)

    def test_commutes_with_alternative(self):
        for pair in seeded_pairs(4):
            div = qht.relative_entropy(pair)
            for n in (1, 2, 3):
                test = qht.build_pinched_test(pair, n, 0.5 * div)
                sigma_n = tensor_power(pair.sigma, n)
                comm = np.linalg.norm(
                    test.operator @ sigma_n - sigma_n @ test.operator, 2
                )
                assert comm <= 1e-9

    def test_projection_validity(self):
        for pair in seeded_pairs(4):
            div = qht.relative_entropy(pair)
            test = qht.build_pinched_test(pair, 3, 0.7 * div)
            A = test.operator
            assert np.linalg.norm(A @ A - A, 2) <= 1e-9
            w = np.linalg.eigvalsh(A)
            assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10

    def test_matches_dense_construction(self):
        for pair in seeded_pairs(6):
            div = qht.relative_entropy(pair)
            for n in (1, 2, 3):
                for a in (-0.5, 0.3 * div, 0.9 * div):
                    test = qht.build_pinched_test(pair, n, a)
                    sigma_n = tensor_power(pair.sigma, n)
                    rho_n = tensor_power(pair.rho, n)
                    dec = qht.eigendecompose(sigma_n)
                    dense = positive_projection(
                        qht.pinch(dec, rho_n) - math.exp(n * a) * sigma_n
                    )
                    assert np.abs(test.operator - dense).max() <= 1e-10

    def test_budget(self, generic):
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.build_pinched_test(generic, 13, 0.0)

    def test_budget_checked_on_every_build(self, generic, monkeypatch):
        qht.build_pinched_test(generic, 3, 0.0)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 4)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.build_pinched_test(generic, 3, 0.0)

    def test_singular_sigma_levels_without_warnings(self):
        # the kernel of sigma_n is one level of log weight -inf; comparing
        # logs must not subtract -inf from -inf
        tol = qht.ToleranceConfig(strict=False)
        pair = qht.HypothesisPair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]), tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3):
                levels = _level_data(pair, n)
                assert len(levels) == 2
                assert [len(lev.positions) for lev in levels] == [2**n - 1, 1]
                ep = qht.error_probabilities(pair, qht.build_pinched_test(pair, n, 0.1))
                assert abs(ep.alpha - 0.6**n) <= 1e-15
                assert ep.beta == 0.0


def test_every_entry_point_follows_the_pairs_cluster_tolerance(level_counts):
    # cluster_rel_tol = 10 merges all sigma_n levels into one and leaves no
    # eigenvalue of rho_n - e^{na} sigma_n strictly positive
    coarse_tol = qht.ToleranceConfig(cluster_rel_tol=10.0)
    coarse = qht.preset_pair("qubit-generic", coarse_tol)
    generic = qht.preset_pair("qubit-generic")
    a = 0.5 * qht.relative_entropy(generic)
    for pair, counts in ((coarse, [1, 1, 1, 1, 1]), (generic, [4, 4, 2, 3, 4])):
        level_counts.clear()
        qht.build_pinched_test(pair, 3, a)
        qht.verify_bounds(pair, [3], [a])
        qht.stein_trace(pair, a, 3)  # n = 1, 2, 3
        assert level_counts == counts
    assert not qht.build_plain_test(coarse, 3, a).operator.any()
    assert qht.build_plain_test(generic, 3, a).operator.any()
    qutrit = qht.random_pair(0, 3, coarse_tol)  # the dense plain-test path
    for pair in (coarse, qutrit):
        (row,) = qht.conjecture_probe(pair, [3 if pair.dim == 2 else 2], a).rows
        assert row.beta == 0.0
        assert abs(row.alpha - 1.0) <= 1e-14
    assert qht.conjecture_probe(generic, [3], a).rows[0].beta > 0.0


class TestBuildPlainTest:
    def test_commuting_equals_pinched(self):
        for pair in seeded_diagonal_pairs(4):
            div = qht.relative_entropy(pair)
            for n in (1, 2):
                for a in (0.3 * div, 0.8 * div):
                    plain = qht.build_plain_test(pair, n, a)
                    pinched = qht.build_pinched_test(pair, n, a)
                    assert np.abs(plain.operator - pinched.operator).max() <= 1e-10

    def test_extreme_thresholds(self, generic):
        low = qht.build_plain_test(generic, 1, -50.0)
        np.testing.assert_allclose(low.operator, np.eye(2), atol=1e-12)
        high = qht.build_plain_test(generic, 1, 50.0)
        np.testing.assert_allclose(high.operator, np.zeros((2, 2)), atol=1e-12)

    def test_overflow_guard(self, generic):
        test = qht.build_plain_test(generic, 2, 400.0)
        np.testing.assert_allclose(test.operator, np.zeros((4, 4)), atol=1e-12)


class TestErrorProbabilities:
    def test_trivial_tests(self, generic):
        accept = qht.TestOperator(np.eye(2, dtype=complex), 1, 0.0)
        ep = qht.error_probabilities(generic, accept)
        assert (ep.alpha, ep.beta) == (pytest.approx(0.0, abs=1e-14), pytest.approx(1.0, abs=1e-14))
        reject = qht.TestOperator(np.zeros((2, 2), dtype=complex), 1, 0.0)
        ep = qht.error_probabilities(generic, reject)
        assert (ep.alpha, ep.beta) == (pytest.approx(1.0, abs=1e-14), pytest.approx(0.0, abs=1e-14))

    def test_block_path_matches_dense_traces(self):
        # sweeps take the block errors; the dense operator built from the
        # kept columns must give the same traces, qubits to n = 8 and
        # qutrits to n = 4
        cases = [(pair, 8) for pair in seeded_pairs(6)]
        cases += [(pair, 4) for pair in seeded_pairs(3, dim=3)]
        for pair, n_max in cases:
            div = qht.relative_entropy(pair)
            for n in range(1, n_max + 1):
                test = qht.build_pinched_test(pair, n, 0.6 * div)
                ep = qht.error_probabilities(pair, test)
                alpha_dense, beta_dense = exact_errors(pair, test)
                assert ep.alpha == pytest.approx(alpha_dense, abs=1e-12)
                assert ep.beta == pytest.approx(beta_dense, abs=1e-12)

    def test_mass_consistency(self):
        for pair in seeded_pairs(4):
            test = qht.build_pinched_test(pair, 2, 0.1)
            ep = qht.error_probabilities(pair, test)
            rho_n = tensor_power(pair.rho, 2)
            mass = ep.alpha + float(np.trace(rho_n @ test.operator).real)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, generic):
        test = qht.TestOperator(np.eye(4, dtype=complex), 1, 0.0)
        with pytest.raises(qht.DimensionMismatch):
            qht.error_probabilities(generic, test)

    def test_probability_invariant(self):
        with pytest.raises(qht.InvariantViolation):
            qht.ErrorProbabilities(alpha=1.5, beta=0.0, n=1, a=0.0)

    def test_operator_invariant(self):
        with pytest.raises(qht.InvariantViolation):
            qht.TestOperator(np.full((2, 2), 0.5 + 0j) * 3.0, 1, 0.0)


class TestErrorEnvelopes:
    def test_identical_pair_prefactors(self, identical):
        reports = qht.verify_bounds(identical, (1, 2, 3), (0.1, 0.5))
        assert len(reports) == 6
        for r in reports:
            assert r.alpha_bound == pytest.approx((r.n + 1) ** 2, rel=1e-9)
            assert r.beta_bound == pytest.approx(
                (r.n + 1) ** 2 * math.exp(-r.n * r.a), rel=1e-9
            )

    def test_qubit_prefactor_is_four(self, generic):
        (report,) = qht.verify_bounds(generic, [1], [qht.relative_entropy(generic)])
        assert report.alpha_bound <= 4.0 + 1e-12

    def test_dominates_exact_errors(self):
        for pair in seeded_pairs(4):
            div = qht.relative_entropy(pair)
            a_grid = [frac * div for frac in (0.25, 0.5, 0.75, 0.9)]
            reports = qht.verify_bounds(pair, range(1, 7), a_grid)
            assert len(reports) == 24
            for r in reports:
                assert r.alpha <= r.alpha_bound + 1e-12
                assert r.beta <= r.beta_bound + 1e-12


def level_count(sigma, n):
    lam = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    return len(_log_levels(lam, n, qht.DEFAULT_TOL.cluster_rel_tol)[2])


class TestLogLevels:
    def test_generic_count_is_number_of_types(self):
        # distinct single-copy eigenvalues give one sigma_n level per type
        # (k_1, ..., k_d), C(n+d-1, d-1) of them; the qutrit with smallest
        # eigenvalue 1.4e-3 has products below the dense absolute
        # clustering threshold from n = 5 on
        sigmas = [qht.random_density(np.random.default_rng([1, 99]), 3)]
        for d in (2, 3, 4):
            sigmas += [qht.random_density(np.random.default_rng([k, d]), d) for k in range(4)]
        for sigma in sigmas:
            d = sigma.shape[0]
            for n in range(1, 7):
                assert level_count(sigma, n) == math.comb(n + d - 1, d - 1)

    def test_levels_partition_the_products(self):
        lam = np.array([0.2, 0.3, 0.5])
        logq, order, sizes = _log_levels(lam, 3, 1e-10)
        assert sorted(order) == list(range(27))
        assert sum(sizes) == 27
        for level in np.split(logq[order], np.cumsum(sizes)[:-1]):
            assert level.max() - level.min() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dense_count_when_well_conditioned(self, d):
        # D <= 64 and smallest eigenvalue >= 0.05 keep every product far
        # above the dense absolute clustering threshold
        sigmas = [qht.random_density(np.random.default_rng([k, d]), d) for k in range(60)]
        sigmas = [s for s in sigmas if np.linalg.eigvalsh(s).min() >= 0.05][:4]
        assert sigmas
        for sigma in sigmas:
            for n in range(1, 7):
                if d**n > 64:
                    break
                dense = qht.eigendecompose(tensor_power(sigma, n)).v
                assert level_count(sigma, n) == dense

    def test_degenerate_spectra(self):
        for n in range(1, 7):
            assert level_count(np.eye(3) / 3.0, n) == 1
            assert level_count(np.diag([0.3, 0.3, 0.4]), n) == n + 1


class TestVerifyBounds:
    def test_reports_satisfy_invariants(self, generic):
        div = qht.relative_entropy(generic)
        reports = qht.verify_bounds(generic, range(1, 5), [0.25 * div, 0.75 * div])
        assert len(reports) == 8
        for r in reports:
            assert r.alpha <= r.alpha_bound + 1e-12
            assert r.beta <= r.beta_bound + 1e-12
            assert r.key_residual >= -1e-9
            assert r.v_sigma_n <= r.type_bound
            assert r.type_bound == (r.n + 1) ** 2

    def test_nondegenerate_qubit_eigenvalue_count(self):
        for pair in seeded_pairs(4):
            reports = qht.verify_bounds(pair, range(1, 5), [0.1])
            for r in reports:
                assert r.v_sigma_n == r.n + 1

    def test_count_matches_levels_of_the_test_on_skewed_pair(self, level_counts):
        # sigma's small eigenvalue (about 1e-7) spreads the n + 1 levels of
        # sigma_n over decades; a gap test on absolute eigenvalues would
        # merge every level below 1e-10 into one
        pair = qht.preset_pair("qubit-skewed")
        a = 0.5 * qht.relative_entropy(pair)
        for r in qht.verify_bounds(pair, range(1, 7), [a]):
            qht.build_pinched_test(pair, r.n, a)
            assert r.v_sigma_n == r.n + 1 == level_counts[-1]

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 2)])
    def test_key_residual_matches_dense_pinching(self, dim, n_max):
        # The level-block residual against the dense pinch of rho_n.  Kept
        # to well-conditioned sizes: the dense eigenvectors of sigma_n err
        # by about eps ||sigma_n|| / gap, which reaches 1e-11 once the
        # smallest eigenvalues of sigma_n are near 1e-9 (qutrits at n = 3).
        # qubit-skewed is left out: dense absolute clustering merges its
        # levels, so the two paths would not pinch alike.
        pairs = seeded_pairs(4, dim=dim)
        if dim == 2:
            pairs.append(qht.preset_pair("qubit-generic"))
        for pair in pairs:
            for r in qht.verify_bounds(pair, range(1, n_max + 1), [0.1]):
                dec = qht.eigendecompose(tensor_power(pair.sigma, r.n))
                rho_n = tensor_power(pair.rho, r.n)
                assert dec.v == r.v_sigma_n
                dense = qht.key_inequality_residual(rho_n, dec)
                assert abs(r.key_residual - dense) <= 1e-12


    @pytest.mark.parametrize(
        "pair",
        seeded_pairs(4)
        + [qht.preset_pair(name) for name in ("qubit-skewed", "identical", "qubit-generic")]
        + [
            # a cluster_rel_tol above the log ratio of sigma's eigenvalues
            # (0.76 and 1.18) merges weights into groups of two and three
            qht.preset_pair("qubit-generic", qht.ToleranceConfig(cluster_rel_tol=1.0)),
            qht.random_pair(1, 2, qht.ToleranceConfig(cluster_rel_tol=2.5)),
            # singular sigma: weights 1..n share the kernel level
            qht.HypothesisPair(
                np.array([[0.6, 0.2], [0.2, 0.4]]),
                np.diag([1.0, 0.0]),
                qht.ToleranceConfig(strict=False),
            ),
        ],
        ids=["d2-0", "d2-1", "d2-2", "d2-3", "skewed", "identical", "generic",
             "generic-merged", "d2-1-merged", "singular"],
    )
    def test_spin_key_residual_matches_dense_level_residual(self, pair, monkeypatch):
        # the spin-block residual against v blockdiag(M) - M over the same
        # levels, with M = (V* rho V)^{(x)n} formed densely; the whole
        # spectrum with multiplicities is compared, not just its bottom
        spectra = []

        def spy(w, tol):
            spectra.append(w)
            return operators._gap_clusters(w, tol)

        monkeypatch.setattr(finite_n, "_gap_clusters", spy)
        X, _ = _sigma_basis(pair)
        syms = _sym_table(X, 8)
        for n in range(1, 9):
            levels = _level_data(pair, n)
            assert _weight_levels(levels, n) is not None
            order = np.concatenate([lev.positions for lev in levels])
            M = tensor_power(X, n)[np.ix_(order, order)]
            sizes = [len(lev.positions) for lev in levels]
            residual = len(levels) * operators.block_diagonal(M, sizes) - M
            key = _key_residual(pair, n, levels, syms)
            assert abs(key - qht.min_eigenvalue(residual, pair.tol)) <= 1e-14
            dense = np.linalg.eigvalsh(hermitian_part(residual))
            assert np.abs(spectra[-1] - dense).max() <= 1e-14 * len(levels)

    def test_weight_split_across_levels_takes_dense_residual(self, monkeypatch):
        # a level boundary within roundoff of a weight's log weight: at this
        # cluster_rel_tol the weight-1 strings of n = 4 lie in two levels,
        # which no spin-block pinching describes
        tol = qht.ToleranceConfig(cluster_rel_tol=0.2006706954621511)
        pair = qht.HypothesisPair(
            np.array([[0.7, 0.1], [0.1, 0.3]]), np.diag([0.45, 0.55]), tol
        )
        levels = _level_data(pair, 4)
        assert _weight_levels(levels, 4) is None
        (r,) = qht.verify_bounds(pair, [4], [0.1])
        X, _ = _sigma_basis(pair)
        order = np.concatenate([lev.positions for lev in levels])
        M = tensor_power(X, 4)[np.ix_(order, order)]
        sizes = [len(lev.positions) for lev in levels]
        dense = qht.min_eigenvalue(len(levels) * operators.block_diagonal(M, sizes) - M, tol)
        assert r.key_residual == dense

    @pytest.mark.parametrize("dim,n_max", [(2, 10), (3, 6), (4, 5)])
    def test_level_blocks_are_slices_of_the_tensor_power(self, dim, n_max):
        # bit for bit, so the block eigenpairs, and with them alpha and
        # beta, do not depend on whether M is formed
        for pair in seeded_pairs(3, dim=dim):
            X, _ = _sigma_basis(pair)
            for n in range(1, n_max + 1):
                M = tensor_power(X, n)
                logq, order, sizes = _log_levels(pair.sigma_eig[0], n, pair.tol.cluster_rel_tol)
                for positions in np.split(order, np.cumsum(sizes)[:-1]):
                    np.testing.assert_array_equal(
                        _tensor_block(X, n, positions).view(np.int64),
                        M[np.ix_(positions, positions)].view(np.int64),
                    )

    @pytest.mark.parametrize(
        "pair",
        seeded_pairs(2) + seeded_pairs(2, dim=3) + [qht.preset_pair("qubit-skewed")],
        ids=["d2-0", "d2-1", "d3-0", "d3-1", "qubit-skewed"],
    )
    def test_sweep_matches_one_off_tests(self, pair):
        # verify_bounds derives the levels once per n for all thresholds,
        # and stein_trace once per n; each error must equal that of a test
        # built on its own
        div = qht.relative_entropy(pair)
        grid = [0.1 * div, 0.4 * div, 0.7 * div, 0.95 * div]
        for r in qht.verify_bounds(pair, range(1, 5), grid):
            ep = qht.error_probabilities(pair, qht.build_pinched_test(pair, r.n, r.a))
            assert (r.alpha, r.beta) == (ep.alpha, ep.beta)
        for a in grid:
            for p in qht.stein_trace(pair, a, 4):
                ep = qht.error_probabilities(pair, qht.build_pinched_test(pair, p.n, a))
                assert (p.alpha, p.beta) == (ep.alpha, ep.beta)

    def test_sweeps_build_no_test_operator(self, generic, monkeypatch):
        # the sweeps read the errors off the level blocks, built from their
        # positions: no TestOperator and, for qubits, no tensor_power at all,
        # since the key residual comes from the spin blocks.  A qutrit takes
        # one tensor_power per blocklength, M for its dense key residual.
        def refuse(*args, **kwargs):
            raise AssertionError("test operator built")

        a = 0.5 * qht.relative_entropy(generic)
        reports = qht.verify_bounds(generic, range(1, 5), [0.1, a])
        points = qht.stein_trace(generic, a, 4)
        monitor = checks.check_error_monotonicity(np.random.default_rng(0), 2)
        qutrit = qht.random_pair(0, dim=3)
        qutrit_reports = qht.verify_bounds(qutrit, range(1, 3), [0.1])
        powers = []

        def spy(A, n):
            powers.append(n)
            return tensor_power(A, n)

        monkeypatch.setattr(finite_n, "TestOperator", refuse)
        monkeypatch.setattr(finite_n, "tensor_power", spy)
        assert qht.verify_bounds(generic, range(1, 5), [0.1, a]) == reports
        assert qht.stein_trace(generic, a, 4) == points
        assert checks.check_error_monotonicity(np.random.default_rng(0), 2) == monitor
        assert powers == []
        assert qht.verify_bounds(qutrit, range(1, 3), [0.1]) == qutrit_reports
        assert powers == [1, 2]
        with pytest.raises(AssertionError, match="test operator built"):
            qht.build_pinched_test(generic, 1, a)


class TestKeepRule:
    # The strict test keeps a block eigenvalue w only above e^{na} times its
    # level's weight.  An absolute slack would drop every w below about
    # 1e-10 on qubit-skewed, whatever its threshold; the oracle's own
    # eigensolves at 60 digits agreed within 9.4e-15 relative (beta, n = 5).

    def test_qubit_skewed_matches_mpmath_oracle(self):
        pair = qht.preset_pair("qubit-skewed")
        div = qht.relative_entropy(pair)
        grid = (-0.5, 0.0, 0.5, 0.25 * div, 0.5 * div, 0.9 * div, div + 0.5)
        for n in range(1, 6):
            levels = _level_data(pair, n)
            for a in grid:
                alpha, beta = pinched_test_errors_mp(pair, n, a)
                ep = _pinched_errors(levels, n, a, qht.DEFAULT_TOL)
                assert abs(ep.alpha - alpha) <= 1e-13 * alpha
                assert abs(ep.beta - beta) <= 1e-13 * beta

    def test_qubit_skewed_small_errors_at_negative_threshold(self):
        # the finite-n row n = 4, a = -0.5: both errors lie far below 1e-10
        pair = qht.preset_pair("qubit-skewed")
        strict = pytest.approx((2.7436e-20, 7.2600e-14), rel=1e-4, abs=0.0)
        (r,) = qht.verify_bounds(pair, [4], [-0.5])
        assert pinched_test_errors_mp(pair, 4, -0.5) == strict
        assert (r.alpha, r.beta) == strict

    def test_identical_pair_keeps_nothing_at_zero(self, identical):
        for n in range(1, 9):
            levels = _level_data(identical, n)
            for lev in levels:
                assert _kept(lev, n, 0.0, qht.DEFAULT_TOL) == len(lev.eigenvalues)
            ep = _pinched_errors(levels, n, 0.0, qht.DEFAULT_TOL)
            assert ep.beta == 0.0
            assert abs(ep.alpha - 1.0) <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_level_errors_match_dense_traces(self, data):
        dim = data.draw(st.integers(2, 4), label="dim")
        n = data.draw(st.integers(1, {2: 6, 3: 3, 4: 3}[dim]), label="n")  # dim**n <= 64
        pair = qht.random_pair(data.draw(st.integers(0, 2**31 - 1), label="seed"), dim)
        div = qht.relative_entropy(pair)
        a = data.draw(st.floats(-0.5, div + 0.5), label="a")
        levels = _level_data(pair, n)
        ep = _pinched_errors(levels, n, a, qht.DEFAULT_TOL)
        test = qht.build_pinched_test(pair, n, a)
        alpha_dense, beta_dense = exact_errors(pair, test)
        assert abs(ep.alpha - alpha_dense) <= 1e-12
        assert abs(ep.beta - beta_dense) <= 1e-12
        for r in qht.verify_bounds(pair, range(1, n + 1), [a]):
            assert r.alpha <= r.alpha_bound + 1e-12
            assert r.beta <= r.beta_bound + 1e-12


class TestBudgetBeforeWork:
    def test_over_budget_range_raises_before_any_blocklength(self, generic, monkeypatch):
        # an over-budget range must not first compute its smaller n
        def refuse(*args, **kwargs):
            raise AssertionError("blocklength computed before the budget check")

        for name in (
            "_level_data", "_sym_table", "_plain_errors_spin_blocks", "build_plain_test"
        ):
            monkeypatch.setattr(finite_n, name, refuse)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.verify_bounds(generic, range(1, 14), [0.1])
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.stein_trace(generic, 0.1, 13)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, range(1, 14), 0.1)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(qht.random_pair(0, dim=3), range(1, 9), 0.1)


class TestSteinTrace:
    def test_rates_below_envelopes(self, generic):
        a = 0.5 * qht.relative_entropy(generic)
        points = qht.stein_trace(generic, a, 6)
        assert [p.n for p in points] == list(range(1, 7))
        for p in points:
            assert p.alpha <= p.alpha_bound + 1e-12
            assert p.log_beta_rate <= p.log_beta_envelope + 1e-12

    def test_alpha_envelope_decays_on_separated_pair(self):
        # the (n+1)^2 prefactor wins at small n unless phi_bar(a) is large,
        # which needs a strongly separated pair
        pair = qht.preset_pair("qubit-skewed")
        a = 0.9 * qht.relative_entropy(pair)
        points = qht.stein_trace(pair, a, 8)
        assert points[-1].alpha_bound < 0.5 * points[0].alpha_bound

    def test_threshold_at_divergence_rejected(self, generic):
        with pytest.raises(qht.RateAboveDivergence):
            qht.stein_trace(generic, qht.relative_entropy(generic), 3)

    def test_identical_pair_admits_no_positive_threshold(self, identical):
        with pytest.raises(qht.RateAboveDivergence):
            qht.stein_trace(identical, 0.0, 3)


class TestConjectureProbe:
    def test_commuting_pair_satisfies_targets(self, commuting):
        # classical case: the plain-test rates do obey the plain exponents
        div = qht.relative_entropy(commuting)
        report = qht.conjecture_probe(commuting, range(1, 7), 0.5 * div)
        assert report.label == "EXPERIMENTAL"
        for row in report.rows:
            assert row.log_alpha_rate <= row.alpha_conjecture + 1e-9
            assert row.log_beta_rate <= row.beta_conjecture + 1e-9

    def test_identical_pair_negative_threshold(self, identical):
        report = qht.conjecture_probe(identical, [1, 2], -0.5)
        for row in report.rows:
            assert row.alpha == pytest.approx(0.0, abs=1e-12)
            assert row.log_alpha_rate == -math.inf

    def test_noncommuting_probe_reports_without_assertion(self, generic):
        div = qht.relative_entropy(generic)
        report = qht.conjecture_probe(generic, range(1, 7), 0.5 * div)
        assert len(report.rows) == 6
        assert report.label == "EXPERIMENTAL"
        assert all(np.isfinite(row.alpha) for row in report.rows)


def dicke_basis(N):
    """Columns: the normalized Dicke states of N qubits, k = number of ones."""
    ones = np.array([bin(i).count("1") for i in range(2**N)])
    D = (ones[:, None] == np.arange(N + 1)[None, :]).astype(float)
    return D / np.sqrt(D.sum(axis=0))


def dense_plain_errors(pair, n, a):
    return qht.error_probabilities(pair, qht.build_plain_test(pair, n, a))


def block_plain_errors(pair, n, a):
    sym_x, sym_q = (_sym_table(Y, n) for Y in _sigma_basis(pair))
    return _plain_errors_spin_blocks(pair, n, a, sym_x, sym_q)


class TestSpinBlocks:
    @pytest.mark.parametrize("seed", range(4))
    def test_sym_power_is_dicke_compression(self, seed):
        # unit spectral norm, as for the blocks of density operators
        rng = np.random.default_rng([seed, 17])
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X /= np.linalg.norm(X, 2)
        for N in range(1, 7):
            D = dicke_basis(N)
            dense = D.T @ tensor_power(X, N) @ D
            assert np.abs(_sym_power(X, N) - dense).max() <= 1e-13
        np.testing.assert_array_equal(_sym_power(X, 0), np.ones((1, 1)))

    def test_multiplicities_fill_the_space(self):
        for n in range(1, 13):
            blocks = list(_spin_blocks(np.eye(2), n, _sym_table(np.eye(2), n)))
            assert [len(R) for _, R in blocks] == [n - 2 * t + 1 for t in range(n // 2 + 1)]
            assert sum(m * len(R) for m, R in blocks) == 2**n

    def test_block_spectrum_matches_dense(self):
        for pair in seeded_pairs(3) + [qht.preset_pair("qubit-generic")]:
            q, V = pair.sigma_eig
            X = V.conj().T @ pair.rho @ V
            Q = np.diag(q).astype(complex)
            for n in range(1, 7):
                for a in (-0.2, 0.1, 0.5 * qht.relative_entropy(pair)):
                    thr = math.exp(n * a)
                    blocks = zip(
                        _spin_blocks(X, n, _sym_table(X, n)), _spin_blocks(Q, n, _sym_table(Q, n))
                    )
                    spectrum = np.sort(np.concatenate([
                        np.repeat(np.linalg.eigvalsh(R - thr * S), m) for (m, R), (_, S) in blocks
                    ]))
                    rho_n = tensor_power(pair.rho, n)
                    dense = np.linalg.eigvalsh(rho_n - thr * tensor_power(pair.sigma, n))
                    assert np.abs(spectrum - dense).max() <= 1e-12


class TestPlainErrorsFromSpinBlocks:
    # Reference values: the mpmath oracle over the same blocks, with its own
    # Sym^N from the string-pair count and its own eigensolve of sigma.
    # Over random_pair seeds 0-19, n <= 8 and a in {0.25, 0.5, 0.9} D the
    # block path stayed within 9.3e-11 (alpha) and 2.1e-9 relative (beta)
    # of it, and the dense path within 1.2e-8 and 2.7e-7 (seed 19, n = 7),
    # except at seed 19, n = 8, a = 0.9 D, where the positivity margin keeps
    # an eigenvalue near 1e-10 ||X||: block 2.2e-9 and 6.1e-8, dense 8.2e-8
    # and 2.3e-6.

    @pytest.mark.parametrize("seed,frac", [(0, 0.25), (1, 0.5), (2, 0.9), (3, 0.9)])
    def test_matches_mpmath_oracle(self, seed, frac):
        pair = qht.random_pair(seed)
        a = frac * qht.relative_entropy(pair)
        for n in range(1, 9):
            alpha, beta = plain_test_errors_mp(pair, n, a)
            ep = block_plain_errors(pair, n, a)
            assert abs(ep.alpha - alpha) <= 1e-9
            assert abs(ep.beta - beta) <= 1e-8 * beta

    def test_matches_dense_path(self):
        # the tolerance is set by the dense path's own error (see above).
        # Seed 19 at n = 8 is the one row where the margin relative to the
        # top of the spectrum keeps an eigenvalue (alpha 0.169 where a
        # margin relative to max|w| kept nothing and gave 1 on both paths);
        # it alone takes the looser bound.
        for seed, pair in enumerate(seeded_pairs(20)):
            a = 0.9 * qht.relative_entropy(pair)
            for n in range(1, 9):
                alpha_tol, beta_rel = (1e-7, 3e-6) if (seed, n) == (19, 8) else (5e-8, 1e-6)
                ep, dense = block_plain_errors(pair, n, a), dense_plain_errors(pair, n, a)
                assert abs(ep.alpha - dense.alpha) <= alpha_tol
                assert abs(ep.beta - dense.beta) <= beta_rel * dense.beta

    def test_qubit_skewed_matches_oracle(self):
        # at the CLI's default threshold a = D/2.  A margin relative to
        # max|w| ~ e^{na} dropped every positive eigenvalue from n = 3 on, so
        # alpha was 1, far above its proven bound; now they are kept to
        # n = 4 and the bounds hold there.  From n = 5 on they lie within
        # the roundoff margin of an eigensolve and nothing is kept, as in
        # the oracle.  Off the two newly resolved rows n = 3, 4 the bounds
        # are those that held before: 1e-14 relative on the block path and
        # 1e-9 on the dense one.  On those two rows alpha (3e-7, 4e-7) agrees
        # to 1e-14 relative plus 1e-15 absolute, the roundoff of summing it
        # from eigenvectors of unit norm (block 4.8e-10 and dense 8.1e-10
        # relative at n = 4, dense 1.2e-9 at n = 3); beta agrees as before at
        # n = 3 (4.6e-21), while at n = 4 (7.7e-28) both float paths are off
        # by 0.3 %, the relative accuracy limit of a beta far below eps
        # times the largest entry of sigma_n.
        pair = qht.preset_pair("qubit-skewed")
        a = 0.5 * qht.relative_entropy(pair)
        value, _ = qht.phi(pair, a)
        for n in range(1, 9):
            alpha, beta = plain_test_errors_mp(pair, n, a)
            ep, dense = block_plain_errors(pair, n, a), dense_plain_errors(pair, n, a)
            resolved = n in (3, 4)
            alpha_abs = 1e-15 if resolved else 0.0
            beta_rel = 5e-3 if n == 4 else 1e-14
            assert abs(ep.alpha - alpha) <= 1e-14 * alpha + alpha_abs
            assert abs(ep.beta - beta) <= beta_rel * beta
            assert abs(dense.alpha - alpha) <= (1e-14 if resolved else 1e-9) * alpha + alpha_abs
            assert abs(dense.beta - beta) <= max(1e-9, beta_rel) * beta
            if n <= 4:
                assert alpha <= math.exp(-n * value)
                assert beta <= math.exp(-n * (value + a))

    def test_probe_takes_no_dense_path_for_qubits(self, generic, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense path used")

        reference = qht.conjecture_probe(generic, range(1, 5), 0.1)
        monkeypatch.setattr(finite_n, "tensor_power", refuse)
        monkeypatch.setattr(finite_n, "build_plain_test", refuse)
        assert qht.conjecture_probe(generic, range(1, 5), 0.1) == reference
        with pytest.raises(AssertionError, match="dense path used"):
            qht.conjecture_probe(qht.random_pair(0, dim=3), [1], 0.1)

    def test_sym_powers_built_once_per_range(self, generic, monkeypatch):
        # one Sym^N per N and state for the whole range: 2 x 9 for n <= 8,
        # where building them per (n, t) took 2 x 24
        calls = []

        def spy(X, N):
            calls.append(N)
            return _sym_power(X, N)

        reference = qht.conjecture_probe(generic, range(1, 9), 0.1)
        reports = qht.verify_bounds(generic, range(1, 9), [0.1])
        monkeypatch.setattr(finite_n, "_sym_power", spy)
        assert qht.conjecture_probe(generic, range(1, 9), 0.1) == reference
        assert sorted(calls) == sorted(list(range(9)) * 2)
        calls.clear()
        assert qht.verify_bounds(generic, range(1, 9), [0.1]) == reports
        assert calls == list(range(9))

    def test_identical_pair_keeps_no_direction(self, identical):
        for row in qht.conjecture_probe(identical, range(1, 9), 0.0).rows:
            assert row.beta == 0.0
            assert abs(row.alpha - 1.0) <= 1e-15

    def test_singular_pair_matches_dense_without_warnings(self):
        tol = qht.ToleranceConfig(strict=False)
        for rho, sigma in (
            (np.diag([0.6, 0.4]), np.diag([1.0, 0.0])),
            (np.diag([1.0, 0.0]), np.diag([0.3, 0.7])),
        ):
            pair = qht.HypothesisPair(rho, sigma, tol)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for n in range(1, 7):
                    for a in (-0.3, 0.0, 0.2, 1.0):
                        ep = block_plain_errors(pair, n, a)
                        dense = qht.error_probabilities(
                            pair, qht.build_plain_test(pair, n, a)
                        )
                        assert abs(ep.alpha - dense.alpha) <= 1e-14
                        assert abs(ep.beta - dense.beta) <= 1e-14

    def test_overflow_guard(self, generic):
        (row,) = qht.conjecture_probe(generic, [2], 400.0).rows
        dense = dense_plain_errors(generic, 2, 400.0)
        assert (row.beta, dense.beta) == (0.0, 0.0)
        assert row.alpha == pytest.approx(dense.alpha, abs=1e-15)
        tol = qht.ToleranceConfig(strict=False)
        singular = qht.HypothesisPair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]), tol)
        with pytest.raises(qht.SingularInput):
            block_plain_errors(singular, 2, 400.0)
        with pytest.raises(qht.SingularInput):
            qht.build_plain_test(singular, 2, 400.0)

    def test_budget_checked_first(self, generic, monkeypatch):
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [13], 0.1)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 4)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [3], 0.1)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 2)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [2], 400.0)


class TestErrorMonotonicity:
    def test_alpha_up_beta_down_in_a(self):
        for pair in seeded_pairs(3):
            div = qht.relative_entropy(pair)
            grid = np.linspace(0.1 * div, 1.2 * div, 7)
            for n in (1, 2, 3):
                eps = [
                    qht.error_probabilities(pair, qht.build_pinched_test(pair, n, a))
                    for a in grid
                ]
                alphas = np.array([e.alpha for e in eps])
                betas = np.array([e.beta for e in eps])
                assert (np.diff(alphas) >= -1e-12).all()
                assert (np.diff(betas) <= 1e-12).all()
