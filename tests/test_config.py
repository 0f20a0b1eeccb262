import dataclasses
import inspect

import qht
from qht import config, exponents


def test_defaults_are_valid():
    tol = qht.ToleranceConfig()
    assert tol.strict is True


def test_pair_settings_are_the_only_settable_values():
    assert [f.name for f in dataclasses.fields(qht.ToleranceConfig)] == ["strict"]
    assert not hasattr(qht, "OptimizerConfig")
    assert config.CLUSTER_REL_TOL == 1e-10
    assert (config.PSD_TOL, config.SUPPORT_CUTOFF) == (1e-10, 1e-12)
    assert (config.HERMITIAN_TOL, config.TRACE_TOL) == (1e-10, 1e-10)
    assert (exponents.GRID_POINTS, exponents.NEWTON_STEPS) == (2001, 60)


def test_tolerance_parameters_carry_only_the_pair_settings():
    # a function's tolerance parameter, where it has one, is a
    # ToleranceConfig: the clustering tolerance is fixed, not a parameter
    carriers = set()
    for name, fn in vars(qht).items():
        if inspect.isfunction(fn):
            for param in inspect.signature(fn).parameters.values():
                if "tol" in param.name:
                    assert param.default is qht.DEFAULT_TOL, f"{name}({param.name})"
                    carriers.add(name)
    assert "matrix_power" in carriers and "eigendecompose" not in carriers
