import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qht
from qht import checks, finite_n, operators
from qht.config import CLUSTER_REL_TOL
from qht.finite_n import (
    _kept,
    _key_residual,
    _level_split,
    _levels,
    _pinched_errors,
    _plain_errors,
    _row_logs,
    _sweep,
    _sym_powers,
    _weight_logs,
)
from qht.operators import hermitian_part, positive_projection, tensor_power

from conftest import seeded_diagonal_pairs, seeded_pairs
import oracles
from oracles import dense_plain_test_errors_mp, pinched_test_errors_mp, plain_test_errors_mp


def exact_errors(pair, n, A):
    """Dense-trace reference for both error probabilities of the test A at n."""
    rho_n = tensor_power(pair.rho, n)
    sigma_n = tensor_power(pair.sigma, n)
    eye = np.eye(len(A))
    return (
        float(np.trace(rho_n @ (eye - A)).real),
        float(np.trace(sigma_n @ A).real),
    )


def dense_pinched_errors(pair, n, a):
    return checks.error_probabilities(pair, n, a, checks.build_pinched_test(pair, n, a))


def sweep_blocks(pair, n):
    """The blocks a sweep takes at n: spin blocks for a qubit, ``M`` otherwise."""
    ((_, blocks),) = _sweep(pair, [n])
    return blocks


def sweep_spectrum(pair, n, cluster_rel_tol=CLUSTER_REL_TOL):
    """The level spectrum of a sweep at n, its levels cut at ``cluster_rel_tol``."""
    return _level_split(sweep_blocks(pair, n), cluster_rel_tol)[0]


def string_levels(eigenvalues, n, cluster_rel_tol):
    """The levels of all d^n index strings: their logs in tensor-position order,
    a stable argsort of the logs and the level sizes along it."""
    d = len(eigenvalues)
    logq = _row_logs(eigenvalues, np.indices((d,) * n).reshape(n, d**n))
    return (logq, *_levels(logq, cluster_rel_tol))


def level_positions(pair, n, cluster_rel_tol=CLUSTER_REL_TOL):
    """The tensor positions of each sigma_n level, from all d^n strings."""
    _, order, sizes = string_levels(pair.sigma_eig[0], n, cluster_rel_tol)
    return np.split(order, np.cumsum(sizes)[:-1])


def nearly_degenerate_pair(dim):
    """A pair whose sigma has two eigenvalues within 2e-11 of each other.

    At ``CLUSTER_REL_TOL`` its sigma_n levels merge types of distinct logs:
    for the qubit (log ratio 3e-11) four weights each, 4 levels at n = 12
    and 32 at n = 126; for the qutrit 16 levels of its 28 types at n = 6.
    """
    if dim == 2:
        rho = np.array([[0.7, 0.1], [0.1, 0.3]])
        return qht.HypothesisPair(rho, np.diag([0.5 + 7.5e-12, 0.5 - 7.5e-12]))
    rho = qht.random_density(np.random.default_rng(0), 3)
    return qht.HypothesisPair(rho, np.diag([0.3 + 1e-11, 0.3 - 1e-11, 0.4]))


def level_spectrum(spectrum, k):
    """Level k's eigenvalues, each repeated its multiplicity, ascending."""
    at = spectrum.level == k
    return np.repeat(spectrum.w[at], spectrum.m[at].astype(int))


class TestBuildPinchedTest:
    def test_very_negative_threshold_accepts_everything(self, generic):
        test = checks.build_pinched_test(generic, 1, -50.0)
        np.testing.assert_allclose(test, np.eye(2), atol=1e-12)
        ep = checks.error_probabilities(generic, 1, -50.0, test)
        assert ep.alpha == pytest.approx(0.0, abs=1e-12)
        assert ep.beta == pytest.approx(1.0, abs=1e-12)

    def test_very_positive_threshold_rejects_everything(self, generic):
        test = checks.build_pinched_test(generic, 1, 50.0)
        np.testing.assert_allclose(test, np.zeros((2, 2)), atol=1e-12)
        ep = checks.error_probabilities(generic, 1, 50.0, test)
        assert ep.alpha == pytest.approx(1.0, abs=1e-12)
        assert ep.beta == pytest.approx(0.0, abs=1e-12)

    def test_commuting_reduces_to_likelihood_ratio(self, commuting):
        # p = (0.5, 0.5), q = (0.9, 0.1): at a = 0 only x2 has p > q
        test = checks.build_pinched_test(commuting, 1, 0.0)
        np.testing.assert_allclose(test, np.diag([0.0, 1.0]), atol=1e-12)

    def test_hand_evaluated_errors(self, commuting):
        ep = dense_pinched_errors(commuting, 1, 0.0)
        assert ep.alpha == pytest.approx(0.5, abs=1e-12)
        assert ep.beta == pytest.approx(0.1, abs=1e-12)

    def test_commutes_with_alternative(self):
        for pair in seeded_pairs(4):
            div = qht.relative_entropy(pair)
            for n in (1, 2, 3):
                test = checks.build_pinched_test(pair, n, 0.5 * div)
                sigma_n = tensor_power(pair.sigma, n)
                comm = np.linalg.norm(test @ sigma_n - sigma_n @ test, 2)
                assert comm <= 1e-9

    def test_projection_validity(self):
        for pair in seeded_pairs(4):
            div = qht.relative_entropy(pair)
            A = checks.build_pinched_test(pair, 3, 0.7 * div)
            assert np.linalg.norm(A @ A - A, 2) <= 1e-9
            w = np.linalg.eigvalsh(A)
            assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10

    def test_matches_dense_construction(self):
        for pair in seeded_pairs(6):
            div = qht.relative_entropy(pair)
            for n in (1, 2, 3):
                for a in (-0.5, 0.3 * div, 0.9 * div):
                    test = checks.build_pinched_test(pair, n, a)
                    sigma_n = tensor_power(pair.sigma, n)
                    rho_n = tensor_power(pair.rho, n)
                    dec = qht.eigendecompose(sigma_n)
                    dense = positive_projection(
                        qht.pinch(dec, rho_n) - math.exp(n * a) * sigma_n
                    )
                    assert np.abs(test - dense).max() <= 1e-10

    def test_budget(self, generic):
        with pytest.raises(qht.DimensionBudgetExceeded):
            checks.build_pinched_test(generic, 13, 0.0)

    def test_overflow_guard(self, generic):
        # above n a = 700 e^{na} overflows; within the dense budget and the
        # support cutoff e^{na} sigma_n exceeds I and pinch(rho_n) does not,
        # so the test is zero and the level path's row reads alpha ~ 1, beta = 0
        test = checks.build_pinched_test(generic, 2, 355.0)
        np.testing.assert_array_equal(test, np.zeros((4, 4)))
        ep = checks.error_probabilities(generic, 2, 355.0, test)
        (r,) = qht.verify_bounds(generic, [2], [355.0])
        assert abs(ep.alpha - r.alpha) <= 1e-12
        assert abs(ep.beta - r.beta) <= 1e-12
        singular = qht.HypothesisPair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]))
        with pytest.raises(qht.SingularInput):
            checks.build_pinched_test(singular, 2, 355.0)

    def test_reference_takes_nothing_from_the_level_path(self, generic, monkeypatch):
        # the dense reference is built from tensor powers, pinch and
        # positive_projection alone, so it can check the sweeps
        def refuse(*args, **kwargs):
            raise AssertionError("level path used")

        cases = [(generic, 3), (qht.random_pair(0, 3), 2)]
        want = [checks.build_pinched_test(pair, n, 0.1) for pair, n in cases]
        for name in ("_level_split", "_tensor_block", "_kept", "_pinched_errors", "_levels", "_row_logs"):
            monkeypatch.setattr(finite_n, name, refuse)
        for (pair, n), operator in zip(cases, want):
            assert checks.build_pinched_test(pair, n, 0.1).tobytes() == operator.tobytes()

    def test_budget_checked_on_every_build(self, generic, monkeypatch):
        checks.build_pinched_test(generic, 3, 0.0)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 4)
        with pytest.raises(qht.DimensionBudgetExceeded):
            checks.build_pinched_test(generic, 3, 0.0)

    def test_singular_sigma_levels_without_warnings(self):
        # the kernel of sigma_n is one level of log weight -inf; comparing
        # logs must not subtract -inf from -inf
        pair = qht.HypothesisPair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3):
                spectrum = sweep_spectrum(pair, n)
                assert len(spectrum.log_weights) == 2
                assert [len(p) for p in level_positions(pair, n)] == [2**n - 1, 1]
                assert np.bincount(spectrum.level, spectrum.m).tolist() == [2**n - 1, 1]
                ep = dense_pinched_errors(pair, n, 0.1)
                assert abs(ep.alpha - 0.6**n) <= 1e-15
                assert ep.beta == 0.0


def test_every_entry_point_cuts_levels_at_the_fixed_tolerance(monkeypatch):
    # the sigma_n levels of every finite-n entry point and check are cut at
    # CLUSTER_REL_TOL, the one clustering tolerance
    seen = []

    def spy(cut):
        def recorded(logs_or_blocks, cluster_rel_tol):
            seen.append(cluster_rel_tol)
            return cut(logs_or_blocks, cluster_rel_tol)

        return recorded

    for name, modules in (("_levels", (finite_n, checks)), ("_level_split", (finite_n,))):
        recorded = spy(getattr(finite_n, name))
        for module in modules:
            monkeypatch.setattr(module, name, recorded)
    generic = qht.preset_pair("qubit-generic")
    a = 0.5 * qht.relative_entropy(generic)
    qht.verify_bounds(generic, [3], [a])
    qht.stein_trace(generic, a, 3)
    checks.check_error_monotonicity(np.random.default_rng(0), 1)
    checks.check_type_counting(np.random.default_rng(0), 1)
    assert len(seen) > 10 and set(seen) == {CLUSTER_REL_TOL}


class TestBuildPlainTest:
    def test_commuting_equals_pinched(self):
        for pair in seeded_diagonal_pairs(4):
            div = qht.relative_entropy(pair)
            for n in (1, 2):
                for a in (0.3 * div, 0.8 * div):
                    plain = checks.build_plain_test(pair, n, a)
                    pinched = checks.build_pinched_test(pair, n, a)
                    assert np.abs(plain - pinched).max() <= 1e-10

    def test_extreme_thresholds(self, generic):
        low = checks.build_plain_test(generic, 1, -50.0)
        np.testing.assert_allclose(low, np.eye(2), atol=1e-12)
        high = checks.build_plain_test(generic, 1, 50.0)
        np.testing.assert_allclose(high, np.zeros((2, 2)), atol=1e-12)

    def test_overflow_guard(self, generic):
        test = checks.build_plain_test(generic, 2, 400.0)
        np.testing.assert_allclose(test, np.zeros((4, 4)), atol=1e-12)


class TestErrorProbabilities:
    def test_trivial_tests(self, generic):
        accept = np.eye(2, dtype=complex)
        ep = checks.error_probabilities(generic, 1, 0.0, accept)
        assert (ep.alpha, ep.beta) == (pytest.approx(0.0, abs=1e-14), pytest.approx(1.0, abs=1e-14))
        reject = np.zeros((2, 2), dtype=complex)
        ep = checks.error_probabilities(generic, 1, 0.0, reject)
        assert (ep.alpha, ep.beta) == (pytest.approx(1.0, abs=1e-14), pytest.approx(0.0, abs=1e-14))

    def test_block_path_matches_dense_traces(self):
        # sweeps take the block errors; the dense reference test must give
        # the same traces, qubits to n = 8 and qutrits to n = 4
        cases = [(pair, 8) for pair in seeded_pairs(6)]
        cases += [(pair, 4) for pair in seeded_pairs(3, dim=3)]
        for pair, n_max in cases:
            div = qht.relative_entropy(pair)
            for n in range(1, n_max + 1):
                (ep,) = _pinched_errors(sweep_spectrum(pair, n), n, [0.6 * div])
                test = checks.build_pinched_test(pair, n, 0.6 * div)
                alpha_dense, beta_dense = exact_errors(pair, n, test)
                assert ep.alpha == pytest.approx(alpha_dense, abs=1e-12)
                assert ep.beta == pytest.approx(beta_dense, abs=1e-12)

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 4)])
    def test_merged_levels_are_exact_at_the_fixed_tolerance(self, dim, n_max):
        # levels that merge distinct sigma_n eigenvalues weight each kept
        # direction by their count-weighted mean log: beta stayed within
        # 4.0e-11 (qubit) and 2.1e-11 (qutrit) relative of the dense
        # Tr[sigma_n A], and alpha, a sum over the same pinched blocks,
        # within 3.3e-16
        # (build_pinched_test cuts sigma_n by absolute gaps, one level here,
        # so the operator is assembled from the level path's eigenvectors)
        pair = nearly_degenerate_pair(dim)
        div = qht.relative_entropy(pair)
        grid = (0.25 * div, 0.5 * div, 0.9 * div)
        rows = []
        for n in range(1, n_max + 1):
            blocks = sweep_blocks(pair, n)
            spectrum = _level_split(blocks, CLUSTER_REL_TOL)[0]
            rows += [len(idx) for idx, _ in oracles.level_split(blocks, CLUSTER_REL_TOL)[2]]
            for a, ep in zip(grid, _pinched_errors(spectrum, n, grid)):
                test = oracles.level_pinched_test(pair, n, a)
                alpha_dense, beta_dense = exact_errors(pair, n, test)
                assert abs(ep.beta - beta_dense) <= 1e-9 * beta_dense
                assert abs(ep.alpha - alpha_dense) <= 1e-12
        # the merged path ran: some (spin) sub-block holds more than one row
        assert max(rows) > 1

    def test_mass_consistency(self):
        for pair in seeded_pairs(4):
            test = checks.build_pinched_test(pair, 2, 0.1)
            ep = checks.error_probabilities(pair, 2, 0.1, test)
            rho_n = tensor_power(pair.rho, 2)
            mass = ep.alpha + float(np.trace(rho_n @ test).real)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_probability_invariant(self):
        with pytest.raises(qht.InvariantViolation):
            finite_n.ErrorProbabilities(alpha=1.5, beta=0.0, n=1, a=0.0)

    def test_operator_invariant(self):
        with pytest.raises(qht.InvariantViolation):
            checks._projection(np.full((2, 2), 0.5 + 0j) * 3.0)


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


def split_prone_pair():
    # sigma's log ratio is a quarter of CLUSTER_REL_TOL, so the log four
    # weights above a level's first lies on the level boundary within
    # roundoff; logs summed in string order cut weight 4 in two from n = 7
    # on.  Found by a search over sigma eigenvalues next to 0.5 +- 6.25e-12
    return qht.HypothesisPair(
        np.array([[0.7, 0.1], [0.1, 0.3]]), np.diag([0.5 + 6.25e-12, 0.5 - 6.25e-12])
    )


def level_count(sigma, n):
    lam = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    return len(string_levels(lam, n, CLUSTER_REL_TOL)[2])


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
        logq, order, sizes = string_levels(lam, 3, 1e-10)
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

    @pytest.mark.parametrize("d,n_max", [(2, 9), (3, 6), (4, 4)])
    def test_levels_are_unions_of_whole_types(self, d, n_max):
        # cluster_rel_tol is drawn from the differences between computed
        # type logs, where a level boundary can fall within roundoff of a
        # log; every type must stay whole and the partition must not depend
        # on the order of the tensor factors (reversed digits)
        spectra = [np.linalg.eigvalsh(qht.random_density(np.random.default_rng([k, d]), d))
                   for k in range(3)]
        if d == 2:
            spectra.append(np.array([0.45, 0.55]))
        for lam in spectra:
            for n in range(2, n_max + 1):
                digits = np.indices((d,) * n).reshape(n, d**n)
                counts = np.stack([(digits == i).sum(axis=0) for i in range(d)])
                _, type_id = np.unique(counts, axis=1, return_inverse=True)
                reverse = np.ravel_multi_index(digits[::-1], (d,) * n)
                logq = string_levels(lam, n, 1e-10)[0]
                type_logs = np.unique(logq)
                diffs = np.unique(type_logs[None, :] - type_logs[:, None])
                for tol in diffs[diffs > 0]:
                    logq, order, sizes = string_levels(lam, n, tol)
                    level = np.empty(d**n, dtype=int)
                    level[order] = np.repeat(np.arange(len(sizes)), sizes)
                    # one bitwise log and one level per type
                    for label in (logq.view(np.int64), level):
                        pairs = np.unique(np.stack([type_id, label]), axis=1)
                        assert pairs.shape[1] == type_id.max() + 1
                    np.testing.assert_array_equal(level[reverse], level)

    def test_degenerate_spectra(self):
        for n in range(1, 7):
            assert level_count(np.eye(3) / 3.0, n) == 1
            assert level_count(np.diag([0.3, 0.3, 0.4]), n) == n + 1


class TestRowLogs:
    @pytest.mark.parametrize("cluster_rel_tol", [1e-10, 1.0, 2.5])
    @pytest.mark.parametrize("d,n_max", [(2, 12), (3, 6), (4, 4)])
    def test_block_rows_carry_their_strings_levels(self, d, n_max, cluster_rel_tol):
        # each block row's log equals the log of its strings among all d^n,
        # bit for bit: qubit row j of spin block t that of position
        # 2^(j+t) - 1 (weight j + t), tensor-block row i that of position i.
        # So each row lies in its strings' level, and each level's log
        # weight is that of its strings, bit for bit: the one distinct log
        # of a single type, else the distinct logs' count-weighted mean
        pairs = [qht.random_pair(seed, d) for seed in range(2)]
        if d == 2:
            # singular sigma: -inf logs
            pairs.append(qht.HypothesisPair(np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0])))
        if cluster_rel_tol == CLUSTER_REL_TOL and d < 4:
            # merged levels, and a boundary within roundoff of a type's log
            pairs += [nearly_degenerate_pair(d)] + ([split_prone_pair()] if d == 2 else [])
        for pair in pairs:
            for n, blocks in _sweep(pair, range(1, n_max + 1)):
                logq, order, sizes = string_levels(pair.sigma_eig[0], n, cluster_rel_tol)
                label = np.empty(d**n, dtype=int)
                label[order] = np.repeat(np.arange(len(sizes)), sizes)
                spectrum, levels = _level_split(blocks, cluster_rel_tol)
                for t, ((_, _, logs, _), same) in enumerate(zip(blocks, levels)):
                    rows = (1 << np.arange(t, n - t + 1)) - 1 if d == 2 else np.arange(d**n)
                    assert logs.tobytes() == logq[rows].tobytes()
                    np.testing.assert_array_equal(same, label[rows])
                weights = []
                for p in np.split(order, np.cumsum(sizes)[:-1]):
                    x, c = np.unique(logq[p], return_counts=True)
                    weights.append(x[0] if len(x) == 1 else (x * c).sum() / c.sum())
                assert spectrum.log_weights.tobytes() == np.array(weights).tobytes()

    @pytest.mark.parametrize("cluster_rel_tol", [1e-10, 1.0, 2.5])
    def test_spin_and_tensor_blocks_give_the_same_level_weights(self, cluster_rel_tol):
        # the two producers of qubit blocks: the n + 1 weight strings with
        # multiplicities C(n,t) - C(n,t-1), and all 2^n strings once each.
        # Up to n = 10, where M is 1024 x 1024 (8 for a singular sigma, whose
        # -inf level of 2^n - 1 rows is one sub-block); the all-strings
        # levels of test_block_rows_carry_their_strings_levels reach n = 12
        pairs = [(qht.random_pair(seed, 2), 10) for seed in range(2)]
        if cluster_rel_tol == CLUSTER_REL_TOL:
            pairs += [(nearly_degenerate_pair(2), 10), (split_prone_pair(), 10)]
        singular = qht.HypothesisPair(np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0]))
        for pair, n_max in [*pairs, (singular, 8)]:
            for n, blocks in _sweep(pair, range(1, n_max + 1)):
                spin = _level_split(blocks, cluster_rel_tol)[0]
                tensor = _level_split(finite_n._tensor_block(pair, n), cluster_rel_tol)[0]
                assert spin.log_weights.tobytes() == tensor.log_weights.tobytes()
                assert np.bincount(spin.level, spin.m).tolist() == np.bincount(
                    tensor.level, tensor.m
                ).tolist()

    @pytest.mark.parametrize("lam", [[0.3, 0.7], [0.45, 0.55], [0.2, 0.8]])
    def test_logs_add_digit_rows_in_order(self, lam):
        # the gather is C-contiguous whatever the strings' layout, so each
        # log adds the sorted digit logs left to right; numpy sums an
        # F-ordered gather pairwise, and at n = 12 that differs in the last bit
        strings = np.indices((2,) * 12).reshape(12, 2**12)
        log_q = np.log(lam).tolist()
        want = [sum(log_q[k] for k in sorted(s)) for s in strings.T.tolist()]
        for layout in (strings, np.asfortranarray(strings)):
            assert _row_logs(np.array(lam), layout).tolist() == want

    def test_weight_log_table_is_the_row_logs_of_the_weight_strings(self):
        # the table built once at n = 126 gives every n's spin-block row
        # logs, bit for bit _row_logs of the n + 1 weight strings (column w
        # holds w ones), so its prefix rows do not depend on the largest n
        rng = np.random.default_rng(37)
        spectra = [np.sort(rng.dirichlet([1.0, 1.0])) for _ in range(30)]
        spectra += [np.array([0.5 - 7.5e-12, 0.5 + 7.5e-12]), np.array([0.0, 1.0])]
        for q in spectra:
            table = _weight_logs(q, 126)
            for n in range(1, 127):
                strings = np.triu(np.ones((n, n + 1), dtype=int), 1)
                assert table[n, : n + 1].tobytes() == _row_logs(q, strings).tobytes()
            assert table[:8, :8].tobytes() == _weight_logs(q, 7).tobytes()

    def test_qubit_sweep_logs_only_the_weight_strings(self, generic, monkeypatch):
        # the spin blocks read their row logs off one weight-log table per
        # sweep, built at its largest n: no qubit sweep enumerates strings,
        # neither the 2^n of all types nor the n + 1 weight strings per n
        tables = []

        def spy(q, N):
            tables.append(N)
            return _weight_logs(q, N)

        def refuse(*args):
            raise AssertionError("index strings enumerated")

        monkeypatch.setattr(finite_n, "_weight_logs", spy)
        monkeypatch.setattr(finite_n, "_row_logs", refuse)
        qht.verify_bounds(generic, range(1, 13), [0.1])
        assert tables == [12]


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

    def test_count_matches_levels_of_the_test_on_skewed_pair(self):
        # sigma's small eigenvalue (about 1e-7) spreads the n + 1 levels of
        # sigma_n over decades; a gap test on absolute eigenvalues would
        # merge every level below 1e-10 into one.  The spin-block count
        # equals that of M, the one block of every other dimension
        pair = qht.preset_pair("qubit-skewed")
        a = 0.5 * qht.relative_entropy(pair)
        for r in qht.verify_bounds(pair, range(1, 7), [a]):
            tensor = _level_split(finite_n._tensor_block(pair, r.n), CLUSTER_REL_TOL)[0]
            assert r.v_sigma_n == r.n + 1 == len(tensor.log_weights)

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
        "pair,cluster_rel_tol",
        [(pair, CLUSTER_REL_TOL) for pair in seeded_pairs(4)]
        + [(qht.preset_pair(name), CLUSTER_REL_TOL) for name in ("qubit-skewed", "identical", "qubit-generic")]
        + [
            # a level cut above the log ratio of sigma's eigenvalues (0.76
            # and 1.18) merges weights into groups of two and three
            (qht.preset_pair("qubit-generic"), 1.0),
            (qht.random_pair(1, 2), 2.5),
            # singular sigma: weights 1..n share the kernel level
            (
                qht.HypothesisPair(np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0])),
                CLUSTER_REL_TOL,
            ),
            # a level boundary within roundoff of a weight's log weight
            (split_prone_pair(), CLUSTER_REL_TOL),
            # merged levels at the fixed tolerance
            (nearly_degenerate_pair(2), CLUSTER_REL_TOL),
            (nearly_degenerate_pair(3), CLUSTER_REL_TOL),
        ]
        + [(pair, CLUSTER_REL_TOL) for pair in seeded_pairs(2, dim=3) + seeded_pairs(1, dim=4)],
        ids=["d2-0", "d2-1", "d2-2", "d2-3", "skewed", "identical", "generic",
             "generic-merged", "d2-1-merged", "singular", "split-prone",
             "d2-nearly-degenerate", "d3-nearly-degenerate", "d3-0", "d3-1", "d4-0"],
    )
    def test_spin_key_residual_matches_dense_level_residual(self, pair, cluster_rel_tol, monkeypatch):
        # the block residual against v blockdiag(M) - M over the same levels,
        # with M = (V* rho V)^{(x)n} formed densely in level order; the whole
        # spectrum with multiplicities is compared, not just its bottom.  The
        # clustering sees each sub-block eigenvalue once, ascending, with its
        # block's multiplicity as its weight, and the test repeats each that
        # many times.  The level spectra read off the blocks are compared, with
        # multiplicities, with those of the dense level blocks of M.  For d >= 3
        # the one block is M in tensor-product order, so they agree bit for
        # bit; the qubit spin sub-blocks stayed within 1.7e-16 of them
        # (d2-1-merged).
        spectra = []

        def spy(w, gap=None, m=None):
            spectra.append((w, m))
            return operators._gap_clusters(w, gap, m)

        monkeypatch.setattr(finite_n, "_gap_clusters", spy)
        X = pair.rho_in_sigma_basis
        n_max = {2: 8, 3: 5, 4: 4}[pair.dim]
        for n, blocks in _sweep(pair, range(1, n_max + 1)):
            spectrum, levels = _level_split(blocks, cluster_rel_tol)
            v = len(spectrum.log_weights)
            positions = level_positions(pair, n, cluster_rel_tol)
            order = np.concatenate(positions)
            M = tensor_power(X, n)[np.ix_(order, order)]
            sizes = [len(p) for p in positions]
            labels = np.repeat(np.arange(len(sizes)), sizes)
            residual = v * operators.block_diagonal(M, labels) - M
            key = _key_residual(v, levels, blocks)
            assert abs(key - qht.min_eigenvalue(residual)) <= 1e-14
            sub = [
                np.linalg.eigvalsh(hermitian_part(v * np.where(same[:, None] == same[None, :], R, 0.0) - R))
                for (_, R, _, _), same in zip(blocks, levels)
            ]
            flat = np.concatenate(sub)
            order = np.argsort(flat, kind="stable")
            m = np.concatenate([np.full(len(w), mult) for w, (mult, *_) in zip(sub, blocks)])
            assert spectra[-1][0].tobytes() == flat[order].tobytes()
            assert spectra[-1][1].tobytes() == m[order].astype(float).tobytes()
            dense = np.linalg.eigvalsh(hermitian_part(residual))
            assert np.abs(np.repeat(flat[order], m[order]) - dense).max() <= 1e-14 * v
            ends = np.cumsum(sizes)
            for k, (start, end) in enumerate(zip(ends - sizes, ends)):
                w = np.linalg.eigh(hermitian_part(M[start:end, start:end]))[0]
                got = level_spectrum(spectrum, k)
                assert got.shape == w.shape
                if pair.dim == 2:
                    assert np.abs(got - w).max() <= 5e-16
                else:
                    np.testing.assert_array_equal(got.view(np.int64), w.view(np.int64))

    def test_split_prone_levels_hold_whole_weights(self, monkeypatch):
        # logs summed in string order differ in the last bit within one
        # weight, and the level boundary then cuts weight 4 in two; summed
        # by type, every level holds whole weights and the qubit key
        # residual needs no tensor_power
        pair = split_prone_pair()
        weights = {
            n: [
                sorted(set(sum(np.unravel_index(p, (2,) * n)).tolist()))
                for p in level_positions(pair, n)
            ]
            for n in (4, 7)
        }
        assert weights == {4: [[0, 1, 2, 3, 4]], 7: [[0, 1, 2, 3], [4, 5, 6, 7]]}

        def refuse(*args, **kwargs):
            raise AssertionError("tensor_power formed")

        monkeypatch.setattr(finite_n, "tensor_power", refuse)
        assert len(qht.verify_bounds(pair, range(1, 9), [0.1])) == 8

    @pytest.mark.parametrize(
        "pair,reference",
        [(pair, "dense") for pair in seeded_pairs(2) + seeded_pairs(2, dim=3)]
        + [(qht.preset_pair("qubit-skewed"), "mpmath")],
        ids=["d2-0", "d2-1", "d3-0", "d3-1", "qubit-skewed"],
    )
    def test_sweep_matches_one_off_tests(self, pair, reference):
        # verify_bounds derives the levels once per n for all thresholds,
        # and stein_trace once per n; each error must equal that of levels
        # built on their own at that one threshold, bit for bit, and the
        # traces of the dense reference test within 1e-12.  On qubit-skewed
        # the dense eigendecompose merges the sigma_n levels below 1e-10
        # from n = 3 (and n a reaches 61), so it takes the 60-digit oracle
        # instead, within 1e-13 relative as in TestKeepRule.
        div = qht.relative_entropy(pair)
        grid = [0.1 * div, 0.4 * div, 0.7 * div, 0.95 * div]
        reports = qht.verify_bounds(pair, range(1, 5), grid)
        points = [p for a in grid for p in qht.stein_trace(pair, a, 4)]
        for r in reports + points:
            (own,) = _pinched_errors(sweep_spectrum(pair, r.n), r.n, [r.a])
            assert (r.alpha, r.beta) == (own.alpha, own.beta)
            if reference == "mpmath":
                alpha, beta = pinched_test_errors_mp(pair, r.n, r.a)
                assert abs(r.alpha - alpha) <= 1e-13 * alpha
                assert abs(r.beta - beta) <= 1e-13 * beta
            else:
                ep = dense_pinched_errors(pair, r.n, r.a)
                assert abs(r.alpha - ep.alpha) <= 1e-12
                assert abs(r.beta - ep.beta) <= 1e-12

    def test_sweeps_build_no_test_operator(self, generic, monkeypatch):
        # the sweeps read the errors off the level spectra of the blocks: no
        # dense test of qht.checks and, for qubits, no tensor_power at all,
        # since the levels and the key residual come from the spin blocks.
        # A qutrit takes one tensor_power per blocklength, M, the one block
        # both share.
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

        for name in ("build_pinched_test", "build_plain_test", "positive_projection"):
            monkeypatch.setattr(checks, name, refuse)
        monkeypatch.setattr(finite_n, "tensor_power", spy)
        assert qht.verify_bounds(generic, range(1, 5), [0.1, a]) == reports
        assert qht.stein_trace(generic, a, 4) == points
        assert checks.check_error_monotonicity(np.random.default_rng(0), 2) == monitor
        assert powers == []
        assert qht.verify_bounds(qutrit, range(1, 3), [0.1]) == qutrit_reports
        assert powers == [1, 2]
        with pytest.raises(AssertionError, match="test operator built"):
            checks._dense_test(generic, 1, a, pinched=True)


    @pytest.mark.parametrize(
        "sweep,n_max,solves",
        [
            (lambda pair, a: qht.verify_bounds(pair, range(1, 13), [0.1, a]), 12, True),
            (lambda pair, a: qht.stein_trace(pair, a, 12), 12, False),
            (lambda pair, a: checks.check_error_monotonicity(np.random.default_rng(0), 3), 2, True),
        ],
        ids=["verify_bounds", "stein_trace", "check_error_monotonicity"],
    )
    def test_qubit_sweeps_solve_nothing_above_the_spin_blocks(self, sweep, n_max, solves, monkeypatch):
        # the level spectra and the key residual come from the spin blocks,
        # so up to D = 4096 no tensor_power is formed and no eigensolve
        # exceeds n + 1 rows.  stein_trace solves none at all: it takes no
        # key residual and these levels' sub-blocks are 1 x 1, read off the
        # diagonal (the monotonicity check solves its random pairs' states)
        sizes = []

        def spy(solve):
            def sized(A, *args, **kwargs):
                sizes.append(len(A))
                return solve(A, *args, **kwargs)

            return sized

        def refuse(*args, **kwargs):
            raise AssertionError("tensor_power formed")

        generic = qht.preset_pair("qubit-generic")
        a = 0.5 * qht.relative_entropy(generic)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        monkeypatch.setattr(finite_n, "tensor_power", refuse)
        sweep(generic, a)
        assert bool(sizes) == solves
        assert max(sizes, default=0) <= n_max + 1


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
            spectrum = sweep_spectrum(pair, n)
            for a in grid:
                alpha, beta = pinched_test_errors_mp(pair, n, a)
                (ep,) = _pinched_errors(spectrum, n, [a])
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
            spectrum = sweep_spectrum(identical, n)
            assert not _kept(spectrum, n, [0.0]).any()
            (ep,) = _pinched_errors(spectrum, n, [0.0])
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
        (ep,) = _pinched_errors(sweep_spectrum(pair, n), n, [a])
        test = checks.build_pinched_test(pair, n, a)
        alpha_dense, beta_dense = exact_errors(pair, n, test)
        assert abs(ep.alpha - alpha_dense) <= 1e-12
        assert abs(ep.beta - beta_dense) <= 1e-12
        for r in qht.verify_bounds(pair, range(1, n + 1), [a]):
            assert r.alpha <= r.alpha_bound + 1e-12
            assert r.beta <= r.beta_bound + 1e-12


def spectrum_pair(data):
    """A pair for the spectrum tests and the tolerance its levels are cut at.

    Seeded d = 2..4 at a drawn level cut, merged levels at the fixed one
    (nearly degenerate), singular or split-prone.
    """
    kind = data.draw(
        st.sampled_from(["seeded", "singular", "split-prone", "nearly-degenerate"]), label="kind"
    )
    if kind == "singular":
        singular = qht.HypothesisPair(np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0]))
        return singular, CLUSTER_REL_TOL
    if kind == "split-prone":
        return split_prone_pair(), CLUSTER_REL_TOL
    if kind == "nearly-degenerate":
        return nearly_degenerate_pair(data.draw(st.integers(2, 3), label="dim")), CLUSTER_REL_TOL
    dim = data.draw(st.integers(2, 4), label="dim")
    cluster_rel_tol = data.draw(st.sampled_from([1e-10, 1.0, 2.5]), label="cluster_rel_tol")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    return qht.random_pair(seed, dim), cluster_rel_tol


class TestFlatSpectrum:
    # The flat spectrum with multiplicities against the per-level loop over
    # repeated spectra it replaced (oracles._pinched_errors).

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_repeated_level_spectra(self, data):
        # thresholds on a crossing of the keep rule, where exp(n a) times a
        # level's weight meets one of its eigenvalues, with or without the
        # 1 + cluster_rel_tol margin, or where its threshold meets log 2;
        # and one ulp either side
        pair, cluster_rel_tol = spectrum_pair(data)
        n = data.draw(st.integers(1, {2: 10, 3: 4, 4: 3}[pair.dim]), label="n")
        spectrum = sweep_spectrum(pair, n, cluster_rel_tol)
        i = data.draw(st.integers(0, len(spectrum.w) - 1), label="entry")
        log_weight = spectrum.log_weights[spectrum.level[i]]
        assume(spectrum.w[i] > 0.0 and math.isfinite(log_weight))
        crossing = data.draw(
            st.sampled_from([
                math.log(spectrum.w[i]),
                math.log(spectrum.w[i]) - math.log1p(CLUSTER_REL_TOL),
                math.log(2.0),
            ]),
            label="crossing",
        )
        a = (crossing - log_weight) / n
        a = float(np.nextafter(a, data.draw(st.sampled_from([-math.inf, a, math.inf]), label="ulp")))
        levels = oracles.repeated_levels(spectrum)
        (keep,) = _kept(spectrum, n, [a])
        kept = np.bincount(spectrum.level, spectrum.m * keep, len(levels)).tolist()
        assert kept == oracles.level_kept_counts(levels, n, a, CLUSTER_REL_TOL)
        (ep,) = _pinched_errors(spectrum, n, [a])
        ref = oracles._pinched_errors(levels, n, a, CLUSTER_REL_TOL)
        assert ep.beta.hex() == ref.beta.hex()
        assert abs(ep.alpha - ref.alpha) <= 1e-15 * abs(ref.alpha)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_grid_errors_match_single_thresholds(self, data):
        # one bincount over level labels offset by threshold serves the whole
        # grid: each threshold's errors are bit for bit those of a call with
        # that threshold alone, and beta that of the per-level reference
        pair, cluster_rel_tol = spectrum_pair(data)
        n = data.draw(st.integers(1, {2: 10, 3: 4, 4: 3}[pair.dim]), label="n")
        spectrum = sweep_spectrum(pair, n, cluster_rel_tol)
        grid = data.draw(st.lists(st.floats(-1.0, 3.0), max_size=6), label="grid")
        errors = _pinched_errors(spectrum, n, grid)
        assert [ep.a for ep in errors] == grid
        levels = oracles.repeated_levels(spectrum)
        for a, ep in zip(grid, errors):
            (alone,) = _pinched_errors(spectrum, n, [a])
            assert (ep.alpha.hex(), ep.beta.hex()) == (alone.alpha.hex(), alone.beta.hex())
            ref = oracles._pinched_errors(levels, n, a, CLUSTER_REL_TOL)
            assert ep.beta.hex() == ref.beta.hex()

    def test_qubit_spectrum_holds_each_spin_sub_block_eigenvalue_once(self):
        # n = 12: one entry per row of the spin blocks, sum_t (n - 2t + 1) =
        # 49, where the repeated level spectra held 4096
        generic = qht.preset_pair("qubit-generic")
        cases = [(generic, CLUSTER_REL_TOL), (generic, 1.0), (nearly_degenerate_pair(2), CLUSTER_REL_TOL)]
        for pair, cluster_rel_tol in cases:
            spectrum = sweep_spectrum(pair, 12, cluster_rel_tol)
            assert len(spectrum.w) <= sum(12 - 2 * t + 1 for t in range(7)) == 49

    @pytest.mark.parametrize(
        "pair,cluster_rel_tol",
        [(pair, CLUSTER_REL_TOL) for pair in seeded_pairs(2)]
        + [(qht.preset_pair("qubit-skewed"), CLUSTER_REL_TOL), (split_prone_pair(), CLUSTER_REL_TOL)]
        + [(qht.random_pair(1, 2), 2.5), (nearly_degenerate_pair(2), CLUSTER_REL_TOL)]
        + [(pair, CLUSTER_REL_TOL) for pair in seeded_pairs(2, dim=3)]
        + [(qht.random_pair(1, 3), 1.0), (nearly_degenerate_pair(3), CLUSTER_REL_TOL)]
        + [(pair, CLUSTER_REL_TOL) for pair in seeded_pairs(1, dim=4)],
        ids=["d2-0", "d2-1", "skewed", "split-prone", "d2-1-merged", "d2-nearly-degenerate",
             "d3-0", "d3-1", "d3-1-merged", "d3-nearly-degenerate", "d4-0"],
    )
    def test_multiplicities_fill_each_level(self, pair, cluster_rel_tol):
        # a level's multiplicities sum to its size, so they total d^n, and
        # the spectrum is that of pinch(rho_n), of unit trace
        for n in range(1, {2: 12, 3: 5, 4: 4}[pair.dim] + 1):
            spectrum = sweep_spectrum(pair, n, cluster_rel_tol)
            sizes = [len(p) for p in level_positions(pair, n, cluster_rel_tol)]
            assert np.bincount(spectrum.level, spectrum.m).tolist() == sizes
            assert sum(sizes) == pair.dim**n
            assert (spectrum.m == np.round(spectrum.m)).all() and spectrum.m.min() >= 1.0
            for k in range(len(sizes)):
                w = spectrum.w[spectrum.level == k]
                assert (np.diff(w) >= 0.0).all()
            assert abs(float((spectrum.m * spectrum.w).sum()) - 1.0) <= 1e-13


class TestQubitLevelsAtLargeN:
    # one blocklength per call: the spin blocks hold (n + 2)^2 // 4 rows,
    # 4096 at n = 126, the whole budget, where no dense check can follow

    @pytest.mark.parametrize("n", [40, 126])
    @pytest.mark.parametrize(
        "pair", [qht.random_pair(1, 2), qht.preset_pair("qubit-skewed")], ids=["d2-1", "skewed"]
    )
    def test_mass_counts_and_pinched_stein_sandwich(self, pair, n):
        # the multiplicities fill the 2^n-dimensional space exactly, the
        # levels are the n + 1 weights, pinch(rho_n) has unit trace, and
        # n D - log v <= D(pinch(rho_n) || sigma_n) <= n D (Hayashi's
        # pinching bound below, monotonicity under pinching above)
        div = qht.relative_entropy(pair)
        ((_, blocks),) = _sweep(pair, [n])
        assert sum(m * len(R) for m, R, _, _ in blocks) == 2**n
        (report,) = qht.verify_bounds(pair, [n], [0.5 * div])
        assert report.v_sigma_n == n + 1
        spectrum = _level_split(blocks, CLUSTER_REL_TOL)[0]
        assert abs(float((spectrum.m * spectrum.w).sum()) - 1.0) <= 1e-13
        kept = spectrum.w > 0.0
        w, m = spectrum.w[kept], spectrum.m[kept]
        log_s = spectrum.log_weights[spectrum.level[kept]]
        pinched = float((m * w * (np.log(w) - log_s)).sum())
        assert n * div - math.log(n + 1) <= pinched <= n * div


def singular_qubit():
    return qht.HypothesisPair(np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0]))


class TestOneStepLevels:
    # The sweeps against the constructions they replaced (oracles): every
    # sub-block solved by its own eigh, and the spin-block tables rebuilt
    # for each N and n.  Bit for bit, on runs of single rows (levels of one
    # weight) and on merged runs (nearly degenerate, split-prone, d >= 3).

    @pytest.mark.parametrize(
        "pair,n_max,merged",
        [(qht.preset_pair(name), 40, False) for name in ("identical", "commuting-1", "qubit-generic", "qubit-skewed")]
        + [(pair, 40, False) for pair in seeded_pairs(3)]
        + [(singular_qubit(), 40, True), (nearly_degenerate_pair(2), 126, True), (split_prone_pair(), 126, True)]
        + [(pair, 5, True) for pair in seeded_pairs(2, dim=3)]
        + [(nearly_degenerate_pair(3), 5, True), (qht.random_pair(0, 4), 3, True)],
        ids=["identical", "commuting", "generic", "skewed", "d2-0", "d2-1", "d2-2", "singular",
             "d2-nearly-degenerate", "split-prone", "d3-0", "d3-1", "d3-nearly-degenerate", "d4-0"],
    )
    def test_level_split_matches_per_sub_block_eigh(self, pair, n_max, merged):
        # merged: some level holds two rows of one block, whose sub-block
        # takes eigh; else every sub-block is one row, read off the diagonal
        runs = []
        for n, blocks in _sweep(pair, range(1, n_max + 1)):
            spectrum, levels = _level_split(blocks, CLUSTER_REL_TOL)
            ref, ref_levels, ref_vectors = oracles.level_split(blocks, CLUSTER_REL_TOL)
            for name in ("log_weights", "level", "w", "m"):
                assert getattr(spectrum, name).tobytes() == getattr(ref, name).tobytes()
            assert [x.tobytes() for x in levels] == [x.tobytes() for x in ref_levels]
            runs += [len(idx) for idx, _ in ref_vectors]
        assert (max(runs) > 1) == merged

    @pytest.mark.parametrize(
        "pair,n_max",
        [(qht.preset_pair("qubit-skewed"), 40), (singular_qubit(), 12), (nearly_degenerate_pair(2), 126)]
        + [(pair, 40) for pair in seeded_pairs(2)],
        ids=["skewed", "singular", "d2-nearly-degenerate", "d2-0", "d2-1"],
    )
    def test_spin_blocks_match_tables_built_per_n(self, pair, n_max):
        n_range = sorted({*range(1, 13), n_max // 2, n_max})
        for n, blocks in _sweep(pair, n_range):
            reference = oracles.spin_blocks(pair, n)
            assert len(blocks) == len(reference)
            for block, ref in zip(blocks, reference):
                assert block[0] == ref[0]
                for got, want in zip(block[1:], ref[1:]):
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim,n_max", [(2, 6), (3, 3), (4, 2)])
def test_sweep_blocks_read_the_pairs_rho_in_sigma_basis(dim, n_max):
    # with rho itself gone the blocks can only come from the stored
    # X = V* rho V, and they equal a fresh pair's bit for bit
    pair = qht.random_pair(96, dim)
    fresh = list(_sweep(qht.HypothesisPair(pair.rho, pair.sigma), range(1, n_max + 1)))
    pair.rho = None
    for (n, blocks), (n_ref, reference) in zip(_sweep(pair, range(1, n_max + 1)), fresh):
        assert n == n_ref and len(blocks) == len(reference)
        for block, ref in zip(blocks, reference):
            assert block[0] == ref[0]
            for got, want in zip(block[1:], ref[1:]):
                assert got.tobytes() == want.tobytes()


class TestBudgetBeforeWork:
    def test_over_budget_range_raises_before_any_blocklength(self, generic, monkeypatch):
        # an over-budget range must not first compute its smaller n
        def refuse(*args, **kwargs):
            raise AssertionError("blocklength computed before the budget check")

        qutrit = qht.random_pair(0, dim=3)
        for name in ("_sym_powers", "_tensor_block", "_level_split", "_plain_errors", "tensor_power"):
            monkeypatch.setattr(finite_n, name, refuse)
        # qubit levels: (n + 2)^2 // 4 spin-block rows, 4160 at n = 127; the
        # qubit plain test repeats them to 2^n eigenvalues
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.verify_bounds(generic, range(1, 128), [0.1])
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.stein_trace(generic, 0.1, 127)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, range(1, 14), 0.1)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.verify_bounds(qutrit, range(1, 9), [0.1])
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.stein_trace(qutrit, 0.1, 8)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(qutrit, range(1, 9), 0.1)


class TestBlocklengthValidation:
    @pytest.mark.parametrize("n", [0, -1, 2.5])
    @pytest.mark.parametrize("dim", [2, 3], ids=["qubit", "qutrit"])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda pair, n: qht.verify_bounds(pair, [n], [0.1]),
            lambda pair, n: qht.stein_trace(pair, 0.1, n),
            lambda pair, n: qht.conjecture_probe(pair, [n], 0.1),
            lambda pair, n: checks.build_pinched_test(pair, n, 0.1),
            lambda pair, n: checks.build_plain_test(pair, n, 0.1),
        ],
        ids=["verify_bounds", "stein_trace", "conjecture_probe",
             "build_pinched_test", "build_plain_test"],
    )
    def test_invalid_blocklength_raises_before_any_work(self, entry, dim, n, monkeypatch):
        # 0.1 lies below the relative entropy of both pairs, so stein_trace
        # reaches its blocklengths; a spied call that returns is work done
        computed = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                computed.append(name)
                return out

            return wrapped

        pair = qht.random_pair(0, dim=dim)
        assert qht.relative_entropy(pair) > 0.1
        for name in ("_sym_powers", "_level_split", "tensor_power"):
            monkeypatch.setattr(finite_n, name, spy(name, getattr(finite_n, name)))
        monkeypatch.setattr(checks, "tensor_power", spy("tensor_power", checks.tensor_power))
        with pytest.raises(ValueError, match="blocklength"):
            entry(pair, n)
        assert computed == []

    def test_sweep_checks_on_the_call_and_builds_lazily(self, generic, monkeypatch):
        # the checks run before the first next(), the blocks one n per next()
        qutrit = qht.random_pair(0, dim=3)
        with pytest.raises(ValueError, match="blocklength"):
            _sweep(qutrit, [1, 0])
        with pytest.raises(qht.DimensionBudgetExceeded):
            _sweep(generic, range(1, 128))
        with pytest.raises(qht.DimensionBudgetExceeded):
            _sweep(qutrit, range(1, 9))
        powers = []

        def spy(A, n):
            powers.append(n)
            return tensor_power(A, n)

        monkeypatch.setattr(finite_n, "tensor_power", spy)
        sweep = _sweep(qutrit, [1, 2, 3])
        assert powers == []
        assert next(sweep)[0] == 1 and powers == [1]
        assert next(sweep)[0] == 2 and powers == [1, 2]

    @pytest.mark.parametrize("dim", [2, 3], ids=["qubit", "qutrit"])
    def test_empty_ranges_and_numpy_integers(self, dim):
        pair = qht.random_pair(0, dim=dim)
        assert qht.verify_bounds(pair, [], [0.1]) == []
        assert qht.conjecture_probe(pair, [], 0.1).rows == ()
        assert qht.verify_bounds(pair, np.arange(1, 3), [0.1]) == qht.verify_bounds(
            pair, range(1, 3), [0.1]
        )
        assert qht.stein_trace(pair, 0.1, np.int64(2)) == qht.stein_trace(pair, 0.1, 2)


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

    def test_stein_trace_takes_no_key_residual(self, generic, monkeypatch):
        # its points are the verify_bounds rows at a without the key
        # residual, which for d >= 3 is a dense eigensolve per n; a generic
        # qubit's 1 x 1 level sub-blocks then leave nothing to solve
        qutrit = qht.random_pair(0, 3)
        cases = [(pair, 0.5 * qht.relative_entropy(pair)) for pair in (generic, qutrit)]
        points = [qht.stein_trace(pair, a, 4) for pair, a in cases]
        sizes = []
        eigh = np.linalg.eigh

        def refuse(*args):
            raise AssertionError("key residual computed")

        def sized(A, *args, **kwargs):
            sizes.append(len(A))
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(finite_n, "_key_residual", refuse)
        monkeypatch.setattr(np.linalg, "eigh", sized)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert qht.stein_trace(*cases[0], 4) == points[0]
        assert sizes == []
        assert qht.stein_trace(*cases[1], 4) == points[1]
        with pytest.raises(AssertionError, match="key residual computed"):
            qht.verify_bounds(generic, [1], [0.1])


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
    return checks.error_probabilities(pair, n, a, checks.build_plain_test(pair, n, a))


def block_plain_errors(pair, n, a):
    return _plain_errors(pair, n, a, sweep_blocks(pair, n))


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
            assert np.abs(_sym_powers(X, N)[N] - dense).max() <= 1e-13
        np.testing.assert_array_equal(_sym_powers(X, 0)[0], np.ones((1, 1)))

    def test_sym_power_reads_the_sweeps_binomial_table(self, generic):
        # a sweep builds its Sym^N list, binomial table and running powers
        # once, for its largest n; Sym^N read off them is bit for bit Sym^N
        # built column by column on tables of its own
        X = generic.rho_in_sigma_basis
        syms = _sym_powers(X, 40)
        for N in range(41):
            assert syms[N].tobytes() == _sym_powers(X, N)[N].tobytes()
            assert syms[N].tobytes() == oracles.sym_power(X, N).tobytes()

    def test_multiplicities_fill_the_space(self, generic):
        log_q = np.log(generic.sigma_eig[0])
        for n, blocks in _sweep(generic, range(1, 13)):
            assert [len(R) for _, R, _, _ in blocks] == [n - 2 * t + 1 for t in range(n // 2 + 1)]
            assert sum(m * len(R) for m, R, _, _ in blocks) == 2**n
            for t, (_, R, logs, s) in enumerate(blocks):
                # row j of block t has weight j + t
                weight = np.arange(t, n - t + 1)
                np.testing.assert_allclose(logs, (n - weight) * log_q[0] + weight * log_q[1])
                assert len(logs) == len(s) == len(R)

    @pytest.mark.parametrize(
        "pair",
        seeded_pairs(3) + [qht.preset_pair(name) for name in ("qubit-generic", "qubit-skewed")],
        ids=["d2-0", "d2-1", "d2-2", "generic", "skewed"],
    )
    def test_sigma_eigenvalues_are_the_spin_blocks_of_q(self, pair):
        # s equals the diagonal of det(Q)^t Sym^{n-2t}(Q), Q = diag(q), bit
        # for bit, and that block has exactly zero off the diagonal
        q, _ = pair.sigma_eig
        Q = np.diag(q).astype(complex)
        det = complex(Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0])
        for n, blocks in _sweep(pair, range(1, 13)):
            for t, (_, _, _, s) in enumerate(blocks):
                S = det**t * _sym_powers(Q, n - 2 * t)[-1]
                np.testing.assert_array_equal(s.view(np.int64), S.diagonal().real.view(np.int64))
                assert not (S - np.diag(S.diagonal())).any()

    def test_block_spectrum_matches_dense(self):
        for pair in seeded_pairs(3) + [qht.preset_pair("qubit-generic")] + seeded_pairs(2, dim=3):
            for n, blocks in _sweep(pair, range(1, 7 if pair.dim == 2 else 4)):
                for a in (-0.2, 0.1, 0.5 * qht.relative_entropy(pair)):
                    thr = math.exp(n * a)
                    spectrum = np.sort(np.concatenate([
                        np.repeat(np.linalg.eigvalsh(R - thr * np.diag(s)), m)
                        for m, R, _, s in blocks
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
        # no dimension builds a test operator; qubits form no tensor power,
        # and d >= 3 one per blocklength, M, its one block
        def refuse(*args, **kwargs):
            raise AssertionError("dense path used")

        qutrit = qht.random_pair(0, dim=3)
        reference = qht.conjecture_probe(generic, range(1, 5), 0.1)
        qutrit_reference = qht.conjecture_probe(qutrit, range(1, 4), 0.1)
        dense = ("build_pinched_test", "build_plain_test", "error_probabilities", "positive_projection")
        for name in dense:
            monkeypatch.setattr(checks, name, refuse)
        assert qht.conjecture_probe(qutrit, range(1, 4), 0.1) == qutrit_reference
        monkeypatch.setattr(finite_n, "tensor_power", refuse)
        assert qht.conjecture_probe(generic, range(1, 5), 0.1) == reference
        with pytest.raises(AssertionError, match="dense path used"):
            qht.conjecture_probe(qutrit, [1], 0.1)

    def test_sym_powers_built_once_per_range(self, generic, monkeypatch):
        # one list Sym^0..Sym^8 of rho's block for the whole range n <= 8,
        # where building Sym^N per N took 9 calls and per (n, t) 24; sigma's
        # blocks are its eigenvalue products and take none
        calls = []

        def spy(X, N):
            calls.append(N)
            return _sym_powers(X, N)

        reference = qht.conjecture_probe(generic, range(1, 9), 0.1)
        reports = qht.verify_bounds(generic, range(1, 9), [0.1])
        monkeypatch.setattr(finite_n, "_sym_powers", spy)
        assert qht.conjecture_probe(generic, range(1, 9), 0.1) == reference
        assert calls == [8]
        calls.clear()
        assert qht.verify_bounds(generic, range(1, 9), [0.1]) == reports
        assert calls == [8]

    def test_distinct_eigenvalue_rule_matches_repeated_spectrum(self, monkeypatch):
        # strictly_positive on the d^n eigenvalues, each block's repeated m
        # times, against the rule on the block eigenvalues once each with
        # multiplicity-weighted cluster means: the same reports, to the last
        # bit, on seeded pairs and on pairs whose clusters hold repeats
        # (identical and merged levels) at a in {-0.5, 0, 0.25, 0.5, 0.9, 1.2} D
        cases = [(pair, 12) for pair in seeded_pairs(3)]
        cases += [(qht.preset_pair(name), 12) for name in ("identical", "commuting-1", "qubit-skewed")]
        cases += [(nearly_degenerate_pair(2), 12)]
        cases += [(qht.random_pair(0, 3), 6), (qht.random_pair(1, 3), 5), (qht.random_pair(0, 4), 4)]
        for pair, n_max in cases:
            div = qht.relative_entropy(pair)
            for frac in (-0.5, 0.0, 0.25, 0.5, 0.9, 1.2):
                a = frac * div if div > 0.0 else frac
                got = qht.conjecture_probe(pair, range(1, n_max + 1), a)
                with monkeypatch.context() as patch:
                    patch.setattr(finite_n, "_plain_errors", oracles.plain_errors)
                    want = qht.conjecture_probe(pair, range(1, n_max + 1), a)
                assert repr(got) == repr(want)

    def test_identical_pair_keeps_no_direction(self, identical):
        for row in qht.conjecture_probe(identical, range(1, 9), 0.0).rows:
            assert row.beta == 0.0
            assert abs(row.alpha - 1.0) <= 1e-15

    def test_singular_pair_matches_dense_without_warnings(self):
        for rho, sigma in (
            (np.diag([0.6, 0.4]), np.diag([1.0, 0.0])),
            (np.diag([1.0, 0.0]), np.diag([0.3, 0.7])),
        ):
            pair = qht.HypothesisPair(rho, sigma)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for n in range(1, 7):
                    for a in (-0.3, 0.0, 0.2, 1.0):
                        ep = block_plain_errors(pair, n, a)
                        dense = dense_plain_errors(pair, n, a)
                        assert abs(ep.alpha - dense.alpha) <= 1e-14
                        assert abs(ep.beta - dense.beta) <= 1e-14

    def test_overflow_guard(self, generic):
        (row,) = qht.conjecture_probe(generic, [2], 400.0).rows
        dense = dense_plain_errors(generic, 2, 400.0)
        assert (row.beta, dense.beta) == (0.0, 0.0)
        assert row.alpha == pytest.approx(dense.alpha, abs=1e-15)
        singular = qht.HypothesisPair(np.diag([0.6, 0.4]), np.diag([1.0, 0.0]))
        with pytest.raises(qht.SingularInput):
            block_plain_errors(singular, 2, 400.0)
        with pytest.raises(qht.SingularInput):
            checks.build_plain_test(singular, 2, 400.0)

    def test_budget_checked_first(self, generic, monkeypatch):
        # the plain test repeats each block spectrum to 2^n eigenvalues, so
        # it keeps the dense budget where the qubit levels run on
        def refuse(*args, **kwargs):
            raise AssertionError("blocks built before the budget check")

        assert len(qht.verify_bounds(generic, [13], [0.1])) == 1
        monkeypatch.setattr(finite_n, "_sweep", refuse)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [13], 0.1)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 4)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [3], 0.1)
        monkeypatch.setattr(operators, "MAX_TENSOR_DIM", 2)
        with pytest.raises(qht.DimensionBudgetExceeded):
            qht.conjecture_probe(generic, [2], 400.0)


class TestPlainErrorsBeyondQubits:
    # d >= 3 takes rho_n in sigma's eigenbasis as one block.  Reference
    # values: a 50-digit dense eigensolve of rho_n - e^{na} sigma_n
    # (oracles.dense_plain_test_errors_mp), which the block path met within
    # 2.0e-15 (alpha) and 5.0e-15 (beta) relative and the dense
    # build_plain_test within 5.5e-15 and 2.5e-14 on the cases below; the
    # block and dense paths met each other within 3.5e-13 and 1.3e-12 over
    # the cases of test_matches_dense_path.

    @pytest.mark.parametrize("seed,frac", [(0, 0.25), (1, 0.5), (2, 0.9)])
    def test_qutrit_matches_mpmath_oracle(self, seed, frac):
        pair = qht.random_pair(seed, 3)
        a = frac * qht.relative_entropy(pair)
        for n in range(1, 4):
            alpha, beta = dense_plain_test_errors_mp(pair, n, a)
            ep, dense = block_plain_errors(pair, n, a), dense_plain_errors(pair, n, a)
            assert abs(ep.alpha - alpha) <= 5e-15 * alpha
            assert abs(ep.beta - beta) <= 1e-14 * beta
            assert abs(dense.alpha - alpha) <= 1e-14 * alpha
            assert abs(dense.beta - beta) <= 5e-14 * beta

    @pytest.mark.parametrize("dim,n_max,seeds", [(3, 5, 3), (4, 4, 2)])
    def test_matches_dense_path(self, dim, n_max, seeds):
        for pair in seeded_pairs(seeds, dim=dim):
            div = qht.relative_entropy(pair)
            for frac in (0.25, 0.5, 0.9):
                for n in range(1, n_max + 1):
                    ep = block_plain_errors(pair, n, frac * div)
                    dense = dense_plain_errors(pair, n, frac * div)
                    assert abs(ep.alpha - dense.alpha) <= 5e-13 * dense.alpha
                    assert abs(ep.beta - dense.beta) <= 2e-12 * dense.beta

    def test_overflow_guard(self):
        pair = qht.random_pair(0, 3)
        ep, dense = block_plain_errors(pair, 2, 400.0), dense_plain_errors(pair, 2, 400.0)
        assert (ep.beta, dense.beta) == (0.0, 0.0)
        assert ep.alpha == pytest.approx(dense.alpha, abs=1e-15)


class TestErrorMonotonicity:
    def test_alpha_up_beta_down_in_a(self):
        for pair in seeded_pairs(3):
            div = qht.relative_entropy(pair)
            grid = np.linspace(0.1 * div, 1.2 * div, 7)
            for n in (1, 2, 3):
                eps = [dense_pinched_errors(pair, n, a) for a in grid]
                alphas = np.array([e.alpha for e in eps])
                betas = np.array([e.beta for e in eps])
                assert (np.diff(alphas) >= -1e-12).all()
                assert (np.diff(betas) <= 1e-12).all()
