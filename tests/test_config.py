import pytest

import qht


def test_tolerances_must_be_positive():
    for field in (
        "cluster_rel_tol",
        "psd_tol",
        "support_cutoff",
        "hermitian_tol",
        "trace_tol",
    ):
        with pytest.raises(ValueError):
            qht.ToleranceConfig(**{field: 0.0})
        with pytest.raises(ValueError):
            qht.ToleranceConfig(**{field: -1e-9})


def test_defaults_are_valid():
    tol = qht.ToleranceConfig()
    assert tol.strict is True
    assert tol.cluster_rel_tol == 1e-10


def test_optimizer_validation():
    with pytest.raises(ValueError):
        qht.OptimizerConfig(grid_points=2)
    with pytest.raises(ValueError):
        qht.OptimizerConfig(refine_iterations=0)
    with pytest.raises(ValueError):
        qht.OptimizerConfig(bisection_tol=0.0)
    assert qht.OptimizerConfig().grid_points == 2001
