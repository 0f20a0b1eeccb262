import numpy as np
import pytest

from qht import checks
from qht.pairs import random_density


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
        # one level more than (n+1)^d at every n must fail with margin 1
        def too_many(eigenvalues, n, cluster_rel_tol):
            return None, None, [1] * ((n + 1) ** len(eigenvalues) + 1)

        monkeypatch.setattr(checks, "_log_levels", too_many)
        result = checks.check_type_counting(np.random.default_rng([3, 3]), 2)
        assert not result.passed
        assert result.worst == 1.0
