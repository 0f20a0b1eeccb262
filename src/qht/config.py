"""The settable numerical configuration and the fixed tolerances and budget."""

import math
import sys
from dataclasses import dataclass

# The one dense budget on d^n, a fixed constant checked by
# ``operators.check_dense_budget``: ``tensor_power`` checks its own n, and
# every finite-n entry point checks the largest n of its range before any
# work.  Dense eigensolves grow cubically.  4096 admits qubits to n = 12
# and qutrits to n = 7; ``qht finite-n --preset qubit-generic --n-max 12``
# takes 3.6 s and 147 MiB on a 2-core Xeon with OpenBLAS, and a seeded
# qutrit at ``--n-max 7``, whose key residual is a dense eigensolve,
# 14-15 s and 565 MiB.
MAX_TENSOR_DIM = 4096

# Slack allowed below zero when testing positive semidefiniteness.
PSD_TOL = 1e-10
# Eigenvalues at or below SUPPORT_CUTOFF * max_eigenvalue are treated as
# zero when taking inverse powers or logarithms.
SUPPORT_CUTOFF = 1e-12
# Validation slack for Hermitian symmetry and unit trace.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
# Roundoff margin of the strict positivity {X > 0}, relative to the
# spectral norm of X: computed eigenvalues within it of zero carry no sign.
POSITIVITY_ROUNDOFF = 16 * sys.float_info.epsilon


@dataclass(frozen=True)
class ToleranceConfig:
    """The numerical settings a computation takes, carried by its pair.

    cluster_rel_tol
        Eigenvalues of a Hermitian operator whose consecutive gap is below
        ``cluster_rel_tol * spectral_norm`` are merged into one distinct
        eigenvalue; the eigenvalue count v(A) and all pinching blocks are
        defined on these clusters.  The finite-n tests group the sigma_n
        levels and keep block eigenvalues by the same value.
    strict
        When True (default), inverse powers and logarithms reject
        rank-deficient input instead of silently restricting to the support.
        Use :meth:`qht.pairs.HypothesisPair.smoothed` to mix in a multiple
        of the identity when rank-deficient states must be handled.

    Every other threshold is a fixed constant: ``PSD_TOL``,
    ``SUPPORT_CUTOFF``, ``HERMITIAN_TOL`` and ``TRACE_TOL`` here, the
    idempotency slack ``qht.finite_n.PROJ_TOL`` of test operators, and the
    grid, Newton and bisection settings of :mod:`qht.exponents`.
    """

    cluster_rel_tol: float = 1e-10
    strict: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.cluster_rel_tol) and self.cluster_rel_tol > 0.0):
            raise ValueError(
                f"cluster_rel_tol must be finite and strictly positive, got {self.cluster_rel_tol!r}"
            )


DEFAULT_TOL = ToleranceConfig()
