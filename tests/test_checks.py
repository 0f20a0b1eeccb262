import decimal
import math
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest

from oracles import psi_scalar_mp
from qht import checks, finite_n, operators
from qht.operators import eigendecompose, matrix_power, min_eigenvalue, pinch, tensor_power
from qht.pairs import random_density, random_pair


class TestSweepsAgainstDenseReference:
    def test_reversed_spin_block_diagonals_fail_the_structure_checks(self, monkeypatch):
        # a fault in the qubit level path: the diagonal of every t >= 1 spin
        # block reversed.  finite-n's alpha on qubit-generic at n = 4, a = D/2
        # moves from 0.359 to 0.412; the dense references share no code with
        # the sweeps, so both checks that compare them fail
        spin_blocks = finite_n._spin_blocks

        def reversed_diagonals(pair, n_range):
            for n, blocks in spin_blocks(pair, n_range):
                faulty = []
                for t, (m, R, logs, s) in enumerate(blocks):
                    if t:
                        R = R.copy()
                        np.fill_diagonal(R, R.diagonal()[::-1])
                    faulty.append((m, R, logs, s))
                yield n, faulty

        monkeypatch.setattr(finite_n, "_spin_blocks", reversed_diagonals)
        results = {r.name: r for r in checks.run_all_checks(seed=0)}
        assert not results["test projections and mass"].passed
        assert not results["pinched equals plain when commuting"].passed


def test_operator_monotonicity_solves_each_operator_once(monkeypatch):
    # rho_n and pinch(rho_n) are eigendecomposed once per n for all three
    # powers s, and the worst gap is bit for bit that of matrix_power per s
    seed = [0, 4]
    calls = []

    def spy(H):
        calls.append(len(H))
        return eigendecompose(H)

    for module in (checks, operators):
        monkeypatch.setattr(module, "eigendecompose", spy)
    result = checks.check_operator_monotonicity(np.random.default_rng(seed), 3)
    assert len(calls) == 3 * 3 * 3
    monkeypatch.undo()
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(3):
        pair = random_pair(rng)
        for n in (1, 2, 3):
            rho_n = tensor_power(pair.rho, n)
            dec = eigendecompose(tensor_power(pair.sigma, n))
            pinched = pinch(dec, rho_n)
            for s in (0.25, 0.5, 1.0):
                gap = dec.v**s * matrix_power(rho_n, -s) - matrix_power(pinched, -s)
                worst = min(worst, min_eigenvalue(gap))
    assert result.worst.hex() == worst.hex()


class TestTypeCounting:
    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 11])
    @pytest.mark.parametrize("samples", [2, 5])
    def test_draw_sequence(self, seed, samples):
        # perfbench/workloads.py mirrors these draws to choose verify seeds
        rng = np.random.default_rng([seed, 3])
        checks.check_type_counting(rng, samples)
        mirror = np.random.default_rng([seed, 3])
        for _ in range(samples):
            dim = int(mirror.integers(2, 4))
            random_density(mirror, dim)
        assert rng.bit_generator.state == mirror.bit_generator.state

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_pinned_line(self, seed):
        # the verify suite's stream for this check is default_rng([seed, 3])
        result = checks.check_type_counting(np.random.default_rng([seed, 3]), 5)
        assert result.passed
        assert result.line() == (
            "[PASS] eigenvalue count vs (n+1)^d: worst 0.000e+00 (tol 0.0e+00)"
        )

    def test_count_above_type_bound_fails(self, monkeypatch):
        # one level more than (n+1)^d at every n must fail with margin 1:
        # (n+1)^d + 1 logs a unit apart, one level each
        def too_many(eigenvalues, strings):
            return np.arange((len(strings) + 1) ** len(eigenvalues) + 1.0)

        monkeypatch.setattr(checks, "_row_logs", too_many)
        result = checks.check_type_counting(np.random.default_rng([3, 3]), 2)
        assert not result.passed
        assert result.worst == 1.0


REFERENCE = decimal.Context(prec=checks.PSI_REFERENCE_DIGITS)


class TestDecimalPsi:
    @pytest.mark.parametrize("seed,dim", [(0, 2), (1, 2), (2, 3), (3, 3), (4, 4), (5, 4)])
    def test_matches_mpmath_at_40_digits(self, seed, dim):
        # the derivative check's reference, at its s and s +- h, against mpmath
        pair = random_pair(seed, dim)
        psi = checks.decimal_psi(pair)
        worst = mp.mpf(0)
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            for step in (-1, 0, 1):
                with decimal.localcontext(REFERENCE):
                    got = psi(Decimal(s) + step * Decimal(1e-5))
                with mp.workdps(checks.PSI_REFERENCE_DIGITS):
                    t = mp.mpf(s) + step * mp.mpf(1e-5)
                ref = psi_scalar_mp(pair, t, dps=checks.PSI_REFERENCE_DIGITS)
                with mp.workdps(60):
                    worst = max(worst, abs(mp.mpf(str(got)) - ref) / abs(ref))
        assert worst < mp.mpf("1e-30")

    def test_caller_context_does_not_round(self):
        # the reference rounds in its own 40-digit context, not the caller's
        pair = random_pair(0, 2)
        psi = checks.decimal_psi(pair)
        s = Decimal(0.5)
        with decimal.localcontext(decimal.Context(prec=5)):
            coarse = psi(s)
        assert coarse == psi(s)
        assert len(coarse.as_tuple().digits) > 30
