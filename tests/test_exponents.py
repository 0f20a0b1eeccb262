import gc
import json
import re
import warnings
import weakref

import numpy as np
import pytest

import qht
from qht import exponents
from qht.cli import main
from qht.exponents import (
    GRID_POINTS,
    _psi_bar_terms,
    _real_trace,
    _Scan,
    _scan,
    check_distribution,
)
from qht.operators import hermitian_part

from conftest import seeded_diagonal_pairs, seeded_pairs
from oracles import (
    brute_force_grid,
    complex_sum_point,
    grid_max_hoeffding,
    grid_max_phi,
    psi_bar_matrix_mp,
    psi_fd_mp,
    reference_rate_parameter,
    weight_form,
)

# scalar KL sum for diag(0.5, 0.5) against diag(0.9, 0.1)
REL_ENT_COMMUTING = 0.5108256237659907
# -log(sqrt(0.45) + sqrt(0.05))
EXPONENT_HALF_COMMUTING = 0.11157177565710479
# sqrt(0.45) + sqrt(0.05)
PSI_SUM_HALF = 0.894427190999916
# 1e6-point grid maximizations of the scalar exponent, frozen from the oracle
PHI_AT_ZERO_COMMUTING = 0.11237744635282497
HOEFFDING_R005_COMMUTING = 0.21634124256413478

S_GRID = np.linspace(0.0, 1.0, 21)

PRESETS = ("identical", "commuting-1", "qubit-generic", "qubit-skewed")

OPTIMIZER_PAIRS = [
    pytest.param(qht.random_pair(seed, dim), id=f"d{dim}-seed{seed}")
    for dim in (2, 3, 4)
    for seed in range(2)
] + [pytest.param(qht.preset_pair(name), id=name) for name in PRESETS]


def thresholds(pair):
    return np.linspace(-1.0, qht.relative_entropy(pair) + 0.5, 7)


class TestRelativeEntropy:
    def test_identical_is_zero(self, identical):
        assert qht.relative_entropy(identical) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_value(self, commuting):
        assert qht.relative_entropy(commuting) == pytest.approx(
            REL_ENT_COMMUTING, abs=1e-12
        )

    def test_nonnegative(self):
        for pair in seeded_pairs(100):
            assert qht.relative_entropy(pair) >= -1e-12

    def test_singular_rejected(self):
        # a build that raises stores nothing, so every call raises
        pair = qht.HypothesisPair(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        for _ in range(2):
            with pytest.raises(qht.SingularInput):
                qht.relative_entropy(pair)
        assert not pair._exponent_cache

    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_is_the_dense_matrix_log_trace(self, pair):
        # bit for bit the trace of rho (log rho - log sigma) with both logs
        # formed densely from the pair's eigensystems, not psi'(0)
        p, U = pair.rho_eig
        q, V = pair.sigma_eig
        rho_log = (U * np.log(p)) @ U.conj().T
        sigma_log = (V * np.log(q)) @ V.conj().T
        reference = float(np.trace(pair.rho @ (rho_log - sigma_log)).real)
        assert qht.relative_entropy(pair) == reference

    def test_built_once_per_pair(self, monkeypatch):
        builds = []
        dense = exponents._dense_relative_entropy

        def spy(pair):
            builds.append(pair)
            return dense(pair)

        monkeypatch.setattr(exponents, "_dense_relative_entropy", spy)
        pairs = seeded_pairs(2, start=90, dim=3)
        for pair in pairs + pairs:
            value = qht.relative_entropy(pair)
            assert pair._exponent_cache["relative_entropy"] == value
        qht.solve_rate_parameter(pairs[0], 0.1)
        assert builds == pairs

    def test_pair_keeps_no_matrix_logs(self, generic):
        qht.relative_entropy(generic)
        for name in ("log_rho", "log_sigma"):
            assert not hasattr(qht.HypothesisPair, name)
            assert not hasattr(generic, name)


class TestRhoInSigmaBasis:
    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_is_v_star_rho_v_bit_for_bit(self, pair):
        _, V = pair.sigma_eig
        X = pair.rho_in_sigma_basis
        reference = V.conj().T @ pair.rho @ V
        assert X.dtype == reference.dtype
        assert X.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_psi_bar_terms_read_it(self, dim):
        # with rho itself gone the terms can only come from the stored X,
        # and they equal a fresh pair's bit for bit
        pair = qht.random_pair(95, dim)
        c, r = _psi_bar_terms(qht.HypothesisPair(pair.rho, pair.sigma))
        pair.rho = None
        c_x, r_x = _psi_bar_terms(pair)
        assert c_x.tobytes() == c.tobytes()
        assert r_x.tobytes() == r.tobytes()


class TestPsiBar:
    def test_zero_at_origin(self):
        for pair in seeded_pairs(5):
            assert qht.psi_bar(pair, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_vanishes(self, identical):
        for s in S_GRID:
            assert qht.psi_bar(identical, s) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_scalar_value(self, commuting):
        assert qht.psi_bar(commuting, 0.5) == pytest.approx(
            EXPONENT_HALF_COMMUTING, abs=1e-12
        )

    def test_s_range_validated(self, commuting):
        with pytest.raises(ValueError):
            qht.psi_bar(commuting, 1.5)
        with pytest.raises(ValueError):
            qht.psi_bar(commuting, -0.1)

    def test_requires_full_support(self):
        pair = qht.HypothesisPair(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        with pytest.raises(qht.SingularInput):
            qht.psi_bar(pair, 0.5)
        # the plain exponent only needs PSD input: Tr[rho^{1/2} sigma^{1/2}]
        assert qht.psi(pair, 0.5) == pytest.approx(-np.log(np.sqrt(0.5)), abs=1e-12)

    def test_not_concave(self):
        # a pinned counterexample: psi_bar is convex from about s = 0.68 to 1
        # on this pair, so the maximizing s of psi_bar(s) - a s can jump
        pair = qht.random_pair(25, 2)
        _, _, d2 = _scan(pair, "psi_bar").point(0.872)
        _, fd2 = psi_fd_mp(pair, 0.872, dps=50, exponent=psi_bar_matrix_mp)
        assert fd2 == pytest.approx(1.5979, abs=1e-4)
        assert d2 == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_values_are_the_scan_grid_values(self, dim):
        pair = qht.random_pair(dim, dim)
        values = qht.psi_bar_values(pair, np.linspace(0.0, 1.0, GRID_POINTS))
        assert values.tobytes() == _scan(pair, "psi_bar").values.tobytes()


class TestPsi:
    def test_zero_at_origin(self, generic):
        assert qht.psi(generic, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_vanishes(self, identical):
        assert qht.psi(identical, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_scalar_value(self, commuting):
        assert qht.psi(commuting, 0.5) == pytest.approx(
            EXPONENT_HALF_COMMUTING, abs=1e-12
        )

    def test_commuting_pair_matches_psi_bar(self):
        for pair in seeded_diagonal_pairs(5):
            gap = np.abs(qht.psi_bar_values(pair, S_GRID) - qht.psi_values(pair, S_GRID))
            assert gap.max() <= 1e-10


class TestOrderingAndInvariance:
    def test_pinched_below_plain(self):
        for pair in seeded_pairs(10):
            gap = qht.psi_bar_values(pair, S_GRID) - qht.psi_values(pair, S_GRID)
            assert gap.max() <= 1e-9

    def test_phi_order(self):
        for pair in seeded_pairs(5):
            div = qht.relative_entropy(pair)
            for a in np.linspace(-0.5, div + 0.5, 11):
                assert qht.phi_bar(pair, a)[0] <= qht.phi(pair, a)[0] + 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(42)
        pair = qht.random_pair(rng)
        U = qht.random_unitary(rng, 2)
        rotated = qht.HypothesisPair(
            U @ pair.rho @ U.conj().T, U @ pair.sigma @ U.conj().T
        )
        div = qht.relative_entropy(pair)
        assert abs(div - qht.relative_entropy(rotated)) <= 1e-9
        for s in (0.25, 0.5, 0.9):
            assert abs(qht.psi_bar(pair, s) - qht.psi_bar(rotated, s)) <= 1e-9
            assert abs(qht.psi(pair, s) - qht.psi(rotated, s)) <= 1e-9
        for a in (0.2 * div, 0.8 * div):
            assert abs(qht.phi_bar(pair, a)[0] - qht.phi_bar(rotated, a)[0]) <= 1e-9
            assert abs(qht.phi(pair, a)[0] - qht.phi(rotated, a)[0]) <= 1e-9
        assert abs(qht.hoeffding_rate(pair, 0.1) - qht.hoeffding_rate(rotated, 0.1)) <= 1e-9


def dense_traces(pair, s):
    """Both trace functionals built from functional-calculus matrix powers."""
    half = qht.matrix_power(pair.sigma, s / 2.0)
    pinched = pair.rho @ half @ qht.matrix_power(pair.rho, -s) @ half
    plain = qht.matrix_power(pair.rho, 1.0 - s) @ qht.matrix_power(pair.sigma, s)
    return np.trace(pinched).real, np.trace(plain).real


class TestKernelAgainstMatrixPowers:
    PAIRS = [(dim, seed) for dim in (2, 3, 4, 5) for seed in range(3)]

    def check(self, pair):
        dense = np.array([dense_traces(pair, s) for s in S_GRID])
        np.testing.assert_allclose(
            qht.psi_bar_values(pair, S_GRID), -np.log(dense[:, 0]), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            qht.psi_values(pair, S_GRID), -np.log(dense[:, 1]), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("dim,seed", PAIRS)
    def test_seeded(self, dim, seed):
        self.check(qht.random_pair(seed, dim))

    @pytest.mark.parametrize("name", ["qubit-skewed", "commuting-1"])
    def test_presets(self, name):
        self.check(qht.preset_pair(name))


class TestDerivatives:
    def test_slope_at_zero_is_relative_entropy(self):
        for pair in seeded_pairs(5):
            d1, _ = qht.psi_derivatives(pair, 0.0)
            assert d1 == pytest.approx(qht.relative_entropy(pair), abs=1e-8)

    def test_identical_degenerates(self, identical):
        d1, d2 = qht.psi_derivatives(identical, 0.4)
        assert d1 == pytest.approx(0.0, abs=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_finite_difference_match(self, generic, s):
        d1, d2 = qht.psi_derivatives(generic, s)
        fd1, fd2 = psi_fd_mp(generic, s)
        assert d1 == pytest.approx(fd1, rel=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-6)

    def test_diagonal_closed_form(self):
        # psi' and psi'' are minus the mean and minus the variance of
        # log q - log p under the tilted distribution p^{1-s} q^s / sum.
        for pair in seeded_diagonal_pairs(5, dim=3):
            p = np.diag(pair.rho).real
            q = np.diag(pair.sigma).real
            llr = np.log(q) - np.log(p)
            for s in (0.0, 0.3, 0.7, 1.0):
                tilted = p ** (1.0 - s) * q**s
                tilted /= tilted.sum()
                mean = tilted @ llr
                d1, d2 = qht.psi_derivatives(pair, s)
                assert d1 == pytest.approx(-mean, abs=1e-12)
                assert d2 == pytest.approx(-(tilted @ (llr - mean) ** 2), abs=1e-12)

    def test_concavity(self):
        for pair in seeded_pairs(10):
            for s in (0.05, 0.5, 0.95):
                assert qht.psi_derivatives(pair, s)[1] <= -1e-12


class TestSinglePointDerivatives:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_psi_bar_against_mp_differences(self, dim):
        for pair in seeded_pairs(2, dim=dim):
            for s in (0.1, 0.5, 0.9):
                value, d1, d2 = _scan(pair, "psi_bar").point(s)
                fd1, fd2 = psi_fd_mp(pair, s, exponent=psi_bar_matrix_mp)
                assert value == pytest.approx(qht.psi_bar(pair, s), abs=1e-13)
                assert d1 == pytest.approx(fd1, rel=1e-6)
                assert d2 == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_psi_derivatives_are_tilted_mean_and_variance(self, pair):
        W, p, q = weight_form(pair)
        c = (W * p[:, None]).ravel()
        r = (np.log(q)[None, :] - np.log(p)[:, None]).ravel()
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            w = c * np.exp(s * r)
            w /= w.sum()
            slope = -(w @ r)
            d1, d2 = qht.psi_derivatives(pair, s)
            assert d1 == pytest.approx(slope, abs=1e-12)
            assert d2 == pytest.approx(-(w @ (r + slope) ** 2), abs=1e-12)


class TestOptimizer:
    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_phi_bar_reaches_brute_force_max(self, pair):
        s, E = brute_force_grid(lambda x: qht.psi_bar_values(pair, x), 0.0)
        for a in thresholds(pair):
            assert qht.phi_bar(pair, a)[0] >= (E - a * s).max() - 1e-13

    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_phi_reaches_brute_force_max(self, pair):
        s, E = brute_force_grid(lambda x: qht.psi_values(pair, x), 0.0)
        for a in thresholds(pair):
            assert qht.phi(pair, a)[0] >= (E - a * s).max() - 1e-13

    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_hoeffding_rate_reaches_brute_force_max(self, pair):
        # the 1e-6 cutoff keeps the brute-force grid clear of the division by s = 0
        s, E = brute_force_grid(lambda x: qht.psi_bar_values(pair, x), 1e-6)
        for r in (0.01, 0.1, 0.5):
            assert qht.hoeffding_rate(pair, r) >= ((E - (1.0 - s) * r) / s).max() - 1e-13

    @pytest.mark.parametrize("which", ["phi_bar", "phi"])
    @pytest.mark.parametrize("pair", OPTIMIZER_PAIRS)
    def test_sweep_equals_pointwise(self, pair, which, tmp_path, capsys):
        # the table `qht curves` writes is the pointwise transform at each a,
        # on the pair it loads from the file, value and argmax bit for bit
        fn = qht.phi_bar if which == "phi_bar" else qht.phi
        path = tmp_path / "pair.json"
        path.write_text(qht.pair_to_json(pair), encoding="utf-8")
        top = qht.relative_entropy(pair) + 0.5
        grid = f"--grid-a=-1:{top}:{(top + 1.0) / 6}"
        assert main(["curves", "--input", str(path), grid, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / f"{which}.json").read_text(encoding="utf-8"))
        assert payload["parameter_name"] == "a"
        table = np.array([[row["param"], row["value"], row["argmax_s"]] for row in payload["samples"]])
        assert len(table) >= 6
        loaded = qht.load_pair(path)
        points = np.array([fn(loaded, a) for a in table[:, 0]])
        assert np.array_equal(table[:, 1], points[:, 0])
        assert np.array_equal(table[:, 2], points[:, 1])

    @pytest.mark.parametrize("fn", [qht.phi_bar, qht.phi])
    def test_identical_argmax_at_the_edges(self, identical, fn):
        value, s_star = fn(identical, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert s_star == 0.0
        value, s_star = fn(identical, -1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert s_star == 1.0

    def test_rate_warning_at_lower_cutoff(self, generic):
        with pytest.warns(qht.RateTooSmallWarning):
            qht.hoeffding_rate(generic, 1e-12)
        with pytest.warns(qht.RateTooSmallWarning):
            qht.classical_hoeffding([0.5, 0.5], [0.9, 0.1], 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", qht.RateTooSmallWarning)
            qht.hoeffding_rate(generic, 0.1)

    def test_rate_warning_at_first_positive_grid_point(self):
        # the warning fires when the scan's argmax is s = 1/2000, the first grid
        # point above the masked s = 0: for r <= 1e-7 on the pair as the command
        # line loads it, but not at r = 1e-6; a_r is read from the same maximum,
        # so solve_rate_parameter warns where hoeffding_rate does
        pair = qht.preset_pair("qubit-generic").smoothed(1e-6)
        for fn in (qht.hoeffding_rate, qht.solve_rate_parameter):
            for r in (1e-10, 1e-8, 1e-7):
                with pytest.warns(qht.RateTooSmallWarning, match=r"s = 0\.0005;"):
                    fn(pair, r)
            with warnings.catch_warnings():
                warnings.simplefilter("error", qht.RateTooSmallWarning)
                fn(pair, 1e-6)


class TestPhiBar:
    def test_identical_positive_slope_cost(self, identical):
        value, s_star = qht.phi_bar(identical, 0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert s_star == pytest.approx(0.0, abs=1e-9)

    def test_identical_negative_slope(self, identical):
        value, s_star = qht.phi_bar(identical, -1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert s_star == pytest.approx(1.0, abs=1e-9)

    def test_vanishes_above_divergence(self):
        for pair in seeded_pairs(5):
            div = qht.relative_entropy(pair)
            assert qht.phi_bar(pair, div + 1.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_below_divergence(self):
        for pair in seeded_pairs(5):
            div = qht.relative_entropy(pair)
            assert qht.phi_bar(pair, div - 1e-6)[0] > 0.0

    def test_grows_unboundedly(self):
        for pair in seeded_pairs(3):
            assert qht.phi_bar(pair, -1000.0)[0] >= 100.0

    def test_convex_and_monotone(self):
        for pair in seeded_pairs(5):
            div = qht.relative_entropy(pair)
            grid = np.linspace(-1.0, div + 1.0, 9)
            vals, argmax = np.array([qht.phi_bar(pair, a) for a in grid]).T
            assert (np.diff(vals) <= 1e-9).all()
            assert ((argmax >= 0.0) & (argmax <= 1.0)).all()
            for i in range(len(grid) - 2):
                mid = qht.phi_bar(pair, 0.5 * (grid[i] + grid[i + 2]))[0]
                assert mid <= 0.5 * (vals[i] + vals[i + 2]) + 1e-9


class TestPhi:
    def test_identical_nonnegative_slope(self, identical):
        assert qht.phi(identical, 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_value_at_divergence_nonnegative(self, generic):
        div = qht.relative_entropy(generic)
        assert qht.phi(generic, div)[0] >= -1e-15

    def test_brute_force_grid_oracle(self, commuting):
        value, _ = qht.phi(commuting, 0.0)
        oracle = grid_max_phi([0.5, 0.5], [0.9, 0.1], 0.0)
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(PHI_AT_ZERO_COMMUTING, abs=1e-8)


class TestHoeffdingRate:
    def test_commuting_matches_classical(self, commuting):
        for r in (0.01, 0.05, 0.1, 0.3):
            quantum = qht.hoeffding_rate(commuting, r)
            classical = qht.classical_hoeffding([0.5, 0.5], [0.9, 0.1], r)
            assert quantum == pytest.approx(classical, abs=1e-9)

    def test_identical_rate_zero(self, identical):
        assert qht.hoeffding_rate(identical, 0.2) == pytest.approx(0.0, abs=1e-10)

    def test_brute_force_grid_oracle(self, commuting):
        value = qht.hoeffding_rate(commuting, 0.05)
        oracle = grid_max_hoeffding([0.5, 0.5], [0.9, 0.1], 0.05)
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(HOEFFDING_R005_COMMUTING, abs=1e-8)

    def test_rejects_nonpositive_rate(self, commuting):
        with pytest.raises(qht.NonpositiveRate):
            qht.hoeffding_rate(commuting, 0.0)
        with pytest.raises(qht.NonpositiveRate):
            qht.hoeffding_rate(commuting, -0.1)
        with pytest.raises(qht.NonpositiveRate, match=r"^rate must be positive, got 0\.0$"):
            qht.classical_hoeffding([0.5, 0.5], [0.9, 0.1], 0.0)

    def test_tiny_rate_warns(self, commuting):
        with pytest.warns(qht.RateTooSmallWarning):
            qht.hoeffding_rate(commuting, 1e-12)


class TestRateParameter:
    @pytest.mark.parametrize("r", [0.01, 0.1, 0.5])
    def test_solves_phi_bar(self, r):
        for pair in seeded_pairs(3):
            a_r = qht.solve_rate_parameter(pair, r)
            assert qht.phi_bar(pair, a_r)[0] == pytest.approx(r, abs=1e-8)

    def test_monotone_in_r(self, generic):
        a1 = qht.solve_rate_parameter(generic, 0.05)
        a2 = qht.solve_rate_parameter(generic, 0.2)
        assert a1 >= a2

    def test_rate_identity(self):
        for pair in seeded_pairs(3):
            for r in (0.01, 0.1, 0.5):
                a_r = qht.solve_rate_parameter(pair, r)
                assert qht.hoeffding_rate(pair, r) == pytest.approx(r + a_r, abs=1e-7)

    def test_rejects_nonpositive_rate(self, generic):
        with pytest.raises(qht.NonpositiveRate, match=r"^rate must be positive, got 0\.0$"):
            qht.solve_rate_parameter(generic, 0.0)

    @pytest.mark.parametrize("fn", [qht.hoeffding_rate, qht.solve_rate_parameter])
    def test_rejects_rate_at_or_below_the_value_at_zero(self, generic, fn):
        # psi_bar(0) = -log Tr rho reads 6.7e-16 here in floats; for r below it
        # phi_bar(a) >= r at every a, so no a_r exists, and the rate objective
        # grows without bound as s -> 0
        floor = float(exponents._scan(generic, "psi_bar").values[0])
        assert 1e-17 < floor < 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (1e-17, floor):
                with pytest.raises(qht.NonpositiveRate, match=re.escape(repr(floor))):
                    fn(generic, r)


def exponent_results(pair_of):
    """Every grid-scanning entry point, one call per item, in a fixed order.

    ``pair_of()`` gives the pair for each call: one warm pair, or a fresh one.
    """
    a_grid = thresholds(pair_of())
    for a in a_grid:
        yield qht.phi_bar(pair_of(), a)
        yield qht.phi(pair_of(), a)
    for r in (0.01, 0.1, 0.5):
        yield qht.hoeffding_rate(pair_of(), r)
        yield qht.solve_rate_parameter(pair_of(), r)
    for fn in (qht.phi_bar, qht.phi):
        yield [fn(pair_of(), a) for a in a_grid]


def rate_warnings(fn, pair, r):
    """``fn(pair, r)`` and the messages of the RateTooSmallWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", qht.RateTooSmallWarning)
        value = fn(pair, r)
    return value, [str(w.message) for w in caught]


def fresh_copies(pair):
    """A new pair from the same matrices on every call, so no cache is warm."""
    return lambda: qht.HypothesisPair(pair.rho, pair.sigma)


class TestPairCache:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_warm_pair_matches_fresh_pair(self, dim):
        for pair in seeded_pairs(2, start=40, dim=dim):
            cold = list(exponent_results(fresh_copies(pair)))
            for _ in range(2):
                assert list(exponent_results(lambda: pair)) == cold

    def test_warm_pair_is_garbage_collected(self):
        pair = qht.random_pair(60, 3)
        list(exponent_results(lambda: pair))
        qht.psi_derivatives(pair, 0.5)
        ref = weakref.ref(pair)
        del pair
        gc.collect()
        assert ref() is None

    def test_one_entry_per_kernel(self):
        # one cache entry per kernel, plus the relative entropy
        pair = qht.random_pair(75, 3)
        qht.psi_bar_values(pair, S_GRID)
        qht.psi_values(pair, S_GRID)
        qht.psi_bar(pair, 0.5)
        qht.psi(pair, 0.5)
        qht.relative_entropy(pair)
        qht.psi_derivatives(pair, 0.5)
        qht.phi_bar(pair, 0.1)
        qht.phi(pair, 0.1)
        qht.hoeffding_rate(pair, 0.1)
        qht.solve_rate_parameter(pair, 0.1)
        qht.verify_bounds(pair, range(1, 3), np.linspace(-1.0, 2.0, 7))
        qht.stein_trace(pair, 0.1, 2)
        assert set(pair._exponent_cache) == {"psi", "psi_bar", "relative_entropy"}
        assert all(isinstance(pair._exponent_cache[name], _Scan) for name in ("psi", "psi_bar"))

    def test_singular_pair_raises_on_every_call(self):
        pair = qht.HypothesisPair(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        for _ in range(2):
            with pytest.raises(qht.SingularInput):
                qht.phi_bar(pair, 0.1)

    def test_one_scan_per_grid(self, monkeypatch):
        pair = qht.random_pair(70, 3)
        scans = []
        kernel = _Scan.at

        def spy(scan, s):
            scans.append(len(s))
            return kernel(scan, s)

        monkeypatch.setattr(_Scan, "at", spy)
        for a in np.linspace(-1.0, 2.0, 20):
            qht.phi_bar(pair, a)
        for r in (0.01, 0.1, 0.5):
            qht.solve_rate_parameter(pair, r)
            qht.hoeffding_rate(pair, r)
        grid = np.linspace(-1.0, 2.0, 7)
        for a in grid:
            qht.phi(pair, a)
        for a in grid:
            qht.phi_bar(pair, a)
            qht.phi(pair, a)
        qht.verify_bounds(pair, range(1, 3), grid)
        # one [0, 1] grid per kernel: psi_bar, then psi
        assert scans == [2001] * 2

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rate_parameter_solves_phi_bar(self, dim, monkeypatch):
        # a_r is the rate objective's maximum minus r, read from the same scan
        # without one transform probe; phi_bar(a_r) = r checks the duality
        probes = []
        transform = exponents._Scan.transform

        def spy(scan, a):
            probes.append(a)
            return transform(scan, a)

        monkeypatch.setattr(exponents._Scan, "transform", spy)
        for pair in seeded_pairs(3, start=80, dim=dim):
            for r in (1e-6, 1e-3, 0.01, 0.1, 0.5, 3.0, 10.0):
                reference = reference_rate_parameter(pair, r)
                probes.clear()
                a_r, solve_warned = rate_warnings(qht.solve_rate_parameter, pair, r)
                assert probes == []
                u, rate_warned = rate_warnings(qht.hoeffding_rate, pair, r)
                assert a_r == u - r
                assert abs(u - (r + a_r)) <= 1e-13
                # r = 1e-6 peaks at the first positive grid point on one d = 3 pair
                assert solve_warned == rate_warned
                # 1e-11 is the width of the oracle's own bisection
                assert abs(a_r - reference) <= 1e-11
                assert abs(qht.phi_bar(pair, a_r)[0] - r) <= 1e-13

    @pytest.mark.parametrize("name", ["psi", "psi_bar"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_moment_table_matches_complex_sums(self, dim, name):
        # measured worst gaps over seeds 0-9: 3.1e-15 (E), 1.9e-14 (E'), 2.1e-13 (E'')
        for pair in seeded_pairs(3, dim=dim):
            terms = exponents._TERMS[name](pair)
            for s in np.linspace(0.0, 1.0, 41):
                point = _scan(pair, name).point(float(s))
                reference = complex_sum_point(terms, float(s), name)
                for got, want, tol in zip(point, reference, (3e-14, 2e-13, 3e-12)):
                    assert abs(got - want) <= tol

    def test_point_residue_rule_matches_real_trace(self):
        r = np.array([-1.0, 0.5])
        c = np.array([1.0 + 1e-3j, 0.5])
        w = c * np.exp(0.3 * r)
        with pytest.raises(ArithmeticError) as dense:
            _real_trace(np.array([w.sum(), (w * r).sum(), (w * r) @ r]), "psi_bar trace")
        with pytest.raises(ArithmeticError) as point:
            _Scan((c, r), "psi_bar").point(0.3)
        assert str(point.value) == str(dense.value)
        _Scan((c.real + 1e-12j, r), "psi_bar").point(0.3)  # inside the bound

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_real_weights_skip_the_imaginary_product(self, dim):
        # psi's weights are real, so at() drops the all-zero imaginary row,
        # bit for bit the trace of both products; psi_bar's are complex
        pair = qht.random_pair(0, dim)
        s = np.linspace(0.0, 1.0, 2001)
        for name, real in (("psi", True), ("psi_bar", False)):
            scan = _scan(pair, name)
            assert scan.real == real
            E = np.exp(np.outer(s, scan.r))
            both = _real_trace(E @ scan.table[0] + 1j * (E @ scan.table[3]), name)
            assert scan.at(s).tobytes() == (-np.log(both)).tobytes()
        assert _Scan((np.array([1.0, 2.0]), np.array([-1.0, 0.5])), "classical").real


class TestClassical:
    def test_endpoints(self):
        p = [0.5, 0.5]
        q = [0.9, 0.1]
        assert qht.classical_psi(p, q, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert qht.classical_psi(p, q, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_two_term_value(self):
        assert qht.classical_psi([0.5, 0.5], [0.9, 0.1], 0.5) == pytest.approx(
            PSI_SUM_HALF, abs=1e-12
        )

    def test_zero_probability_convention(self):
        # terms with p(x) = 0 contribute nothing at every s
        assert qht.classical_psi([1.0, 0.0], [0.5, 0.5], 0.5) == pytest.approx(
            np.sqrt(0.5), abs=1e-15
        )
        assert qht.classical_psi([1.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_invalid_distribution_messages(self):
        # plain floats, not numpy's np.float64(...) reprs
        with pytest.raises(qht.InvariantViolation, match=r"\(probability\): negative entry -0\.25$"):
            check_distribution([1.25, -0.25])
        with pytest.raises(qht.InvariantViolation, match=r"\(normalization\): sum is 0\.75$"):
            check_distribution([0.5, 0.25])

    def test_support_size_mismatch(self):
        with pytest.raises(qht.DimensionMismatch):
            qht.classical_psi([0.5, 0.5], [0.5, 0.3, 0.2], 0.5)

    def test_distribution_validation(self):
        with pytest.raises(qht.InvariantViolation):
            qht.classical_psi([0.7, 0.7], [0.5, 0.5], 0.5)
        with pytest.raises(qht.InvariantViolation):
            qht.classical_psi([1.5, -0.5], [0.5, 0.5], 0.5)

    def test_hoeffding_equal_distributions(self):
        assert qht.classical_hoeffding([0.4, 0.6], [0.4, 0.6], 0.1) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_hoeffding_needs_full_support(self):
        with pytest.raises(qht.SingularInput):
            qht.classical_hoeffding([1.0, 0.0], [0.5, 0.5], 0.1)

    def test_diagonal_embedding_equivalence(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.random(3) + 0.05
            p /= p.sum()
            q = rng.random(3) + 0.05
            q /= q.sum()
            pair = qht.HypothesisPair(np.diag(p), np.diag(q))
            assert qht.hoeffding_rate(pair, 0.05) == pytest.approx(
                qht.classical_hoeffding(p, q, 0.05), abs=1e-9
            )


class TestPairValidation:
    def test_trace_violation_named(self):
        bad = np.diag([0.5, 0.49])
        with pytest.raises(qht.InvariantViolation) as err:
            qht.HypothesisPair(bad, np.diag([0.5, 0.5]))
        assert err.value.check == "trace"
        # a plain float, not numpy's np.float64(...) repr
        assert str(err.value) == "InvariantViolation(trace): trace is 0.99, expected 1"

    def test_hermitian_violation_named(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(qht.NonHermitianInput) as err:
            qht.HypothesisPair(bad, np.diag([0.5, 0.5]))
        assert err.value.check == "hermitian"

    def test_psd_violation(self):
        with pytest.raises(qht.NotPositiveSemidefinite):
            qht.HypothesisPair(np.diag([1.5, -0.5]), np.diag([0.5, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(qht.DimensionMismatch):
            qht.HypothesisPair(np.eye(2) / 2.0, np.eye(3) / 3.0)

    def test_empty_state_rejected(self):
        empty = np.zeros((0, 0))
        with pytest.raises(qht.DimensionMismatch):
            qht.HypothesisPair(empty, empty)
        with pytest.raises(qht.DimensionMismatch):
            qht.check_density(empty)

    @pytest.mark.parametrize(
        "rho,sigma,psi_half,phi_point",
        [
            # Tr[rho^{1-s} sigma^s] = 2^{-s}: phi(0.1) = log 2 - 0.1 at s = 1
            (np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), 0.5 * np.log(2.0), (np.log(2.0) - 0.1, 1.0)),
            # 0.6^{1-s} on sigma's support: phi(0.1) = psi(0) = -log Tr[rho P_sigma]
            (np.diag([0.6, 0.4]), np.diag([1.0, 0.0]), -0.5 * np.log(0.6), (-np.log(0.6), 0.0)),
        ],
        ids=["singular-rho", "singular-sigma"],
    )
    def test_rank_deficient_pair_builds_and_rejects_where_needed(
        self, rho, sigma, psi_half, phi_point
    ):
        # a pair takes any two states; full support is checked by the
        # quantities that take rho^{-s} or a logarithm, when they are computed
        pair = qht.HypothesisPair(rho, sigma)
        assert qht.psi(pair, 0.5) == pytest.approx(psi_half, abs=1e-12)
        assert qht.phi(pair, 0.1) == pytest.approx(phi_point, abs=1e-9)
        cached = set(pair._exponent_cache)
        needs_full_support = {
            "psi_bar": lambda: qht.psi_bar(pair, 0.5),
            "phi_bar": lambda: qht.phi_bar(pair, 0.1),
            "hoeffding_rate": lambda: qht.hoeffding_rate(pair, 0.1),
            "solve_rate_parameter": lambda: qht.solve_rate_parameter(pair, 0.1),
            "relative_entropy": lambda: qht.relative_entropy(pair),
            "psi_derivatives": lambda: qht.psi_derivatives(pair, 0.5),
            "stein_trace": lambda: qht.stein_trace(pair, 0.1, 2),
        }
        for name, call in needs_full_support.items():
            with pytest.raises(qht.SingularInput, match="requires positive definite states"):
                call()
            assert set(pair._exponent_cache) == cached, name

    def test_one_eigensolve_per_state(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh", "svd", "norm"):
            solver = getattr(np.linalg, name)

            def spy(*args, _name=name, _solver=solver, **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        rho = np.array([[0.7, 0.1 + 0.1j], [0.1 - 0.1j, 0.3]])
        sigma = np.array([[0.4, -0.15j], [0.15j, 0.6]])
        pair = qht.HypothesisPair(rho, sigma)
        assert calls == ["eigh", "eigh"]
        monkeypatch.undo()
        for state, (w, V) in ((rho, pair.rho_eig), (sigma, pair.sigma_eig)):
            ref_w, ref_V = np.linalg.eigh(hermitian_part(state))
            assert np.array_equal(w, np.clip(ref_w, 0.0, None))
            assert np.array_equal(V, ref_V)

    def test_error_order(self):
        asym_negative = np.array([[1.5, 0.3], [0.0, -0.5]])
        off_trace = np.diag([0.5, 0.49])
        with pytest.raises(qht.NonHermitianInput):
            qht.check_density(asym_negative)
        with pytest.raises(qht.InvariantViolation) as err:
            qht.HypothesisPair(off_trace, asym_negative)
        assert err.value.check == "trace"
        with pytest.raises(qht.NotPositiveSemidefinite):
            qht.HypothesisPair(np.eye(3) / 3.0, np.diag([1.5, -0.5]))
        with pytest.raises(qht.DimensionMismatch):
            qht.HypothesisPair(np.eye(3) / 3.0, np.diag([1.0, 0.0]))

    def test_smoothing_restores_rank(self):
        pair = qht.HypothesisPair(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        smooth = pair.smoothed(1e-6)
        assert qht.relative_entropy(smooth) > 0.0
