import dataclasses

import pytest

import qht
from qht import config, exponents


def test_tolerances_must_be_positive():
    for value in (0.0, -1e-9):
        with pytest.raises(ValueError):
            qht.ToleranceConfig(cluster_rel_tol=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tolerances_must_be_finite(value):
    # every comparison with NaN is false, so a NaN tolerance would merge
    # every level and keep no eigenvalue instead of failing
    with pytest.raises(ValueError, match="finite"):
        qht.ToleranceConfig(cluster_rel_tol=value)


def test_defaults_are_valid():
    tol = qht.ToleranceConfig()
    assert tol.strict is True
    assert tol.cluster_rel_tol == 1e-10


def test_pair_settings_are_the_only_settable_values():
    assert [f.name for f in dataclasses.fields(qht.ToleranceConfig)] == [
        "cluster_rel_tol",
        "strict",
    ]
    assert not hasattr(qht, "OptimizerConfig")
    assert (config.PSD_TOL, config.SUPPORT_CUTOFF) == (1e-10, 1e-12)
    assert (config.HERMITIAN_TOL, config.TRACE_TOL) == (1e-10, 1e-10)
    assert (exponents.GRID_POINTS, exponents.NEWTON_STEPS) == (2001, 60)
    assert exponents.BISECTION_WIDTH == 1e-11
