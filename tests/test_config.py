import inspect

import numpy as np

import qht
from qht import config, exponents


def test_no_settable_values():
    for name in ("ToleranceConfig", "DEFAULT_TOL", "SingularInStrictMode", "OptimizerConfig"):
        assert not hasattr(qht, name), name
    assert not hasattr(qht.HypothesisPair(np.eye(2) / 2.0, np.diag([0.9, 0.1])), "tol")
    assert config.CLUSTER_REL_TOL == 1e-10
    assert (config.PSD_TOL, config.SUPPORT_CUTOFF) == (1e-10, 1e-12)
    assert (config.HERMITIAN_TOL, config.TRACE_TOL) == (1e-10, 1e-10)
    assert (exponents.GRID_POINTS, exponents.NEWTON_STEPS) == (2001, 60)


def test_no_public_callable_takes_a_tolerance():
    # every threshold is a fixed constant, so no function or class of the
    # package takes a parameter named tol
    checked = set()
    for name, obj in vars(qht).items():
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception types take *args, with no signature to read
            continue
        assert "tol" not in params, name
        checked.add(name)
    assert {"HypothesisPair", "matrix_power", "load_pair", "preset_pair", "random_pair"} <= checked
