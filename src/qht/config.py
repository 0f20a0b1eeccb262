"""Numerical tolerances, optimizer settings and global budgets."""

from dataclasses import dataclass

# The one dense budget on d^n, a fixed constant checked by
# ``operators.check_dense_budget``: ``tensor_power`` checks its own n, and
# every finite-n entry point checks the largest n of its range before any
# work.  Dense eigensolves grow cubically.  4096 admits qubits to n = 12
# and qutrits to n = 7; ``qht finite-n --preset qubit-generic --n-max 11``
# takes 15-17 s and 514 MiB on a 2-core Xeon with OpenBLAS, n = 12 over a
# minute.
MAX_TENSOR_DIM = 4096


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds controlling validation, clustering and support decisions.

    cluster_rel_tol
        Eigenvalues of a Hermitian operator whose consecutive gap is below
        ``cluster_rel_tol * spectral_norm`` are merged into one distinct
        eigenvalue; the eigenvalue count v(A) and all pinching blocks are
        defined on these clusters.
    psd_tol
        Slack allowed below zero when testing positive semidefiniteness.
    support_cutoff
        Eigenvalues at or below ``support_cutoff * max_eigenvalue`` are
        treated as zero when taking inverse powers or logarithms.
    hermitian_tol, trace_tol
        Validation slack for Hermitian symmetry and unit trace.
    strict
        When True (default), inverse powers and logarithms reject
        rank-deficient input instead of silently restricting to the support.
        Use :meth:`qht.pairs.HypothesisPair.smoothed` to mix in a multiple
        of the identity when rank-deficient states must be handled.

    The idempotency slack of test operators is not a field here: it is the
    fixed constant ``qht.finite_n.PROJ_TOL``.
    """

    cluster_rel_tol: float = 1e-10
    psd_tol: float = 1e-10
    support_cutoff: float = 1e-12
    hermitian_tol: float = 1e-10
    trace_tol: float = 1e-10
    strict: bool = True

    def __post_init__(self):
        for name in (
            "cluster_rel_tol",
            "psd_tol",
            "support_cutoff",
            "hermitian_tol",
            "trace_tol",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the one-dimensional maximizations and the rate solver.

    grid_points
        Points of the s-grid scanned before refinement.
    refine_iterations
        Cap on the safeguarded Newton steps that refine the grid argmax.
    bisection_tol
        Accuracy of the rate-parameter bisection in the threshold a; the
        bracket narrows to a tenth of it, and at least to 1e-11.
    """

    grid_points: int = 2001
    refine_iterations: int = 60
    bisection_tol: float = 1e-10

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if self.refine_iterations < 1:
            raise ValueError("refine_iterations must be at least 1")
        if self.bisection_tol <= 0.0:
            raise ValueError("bisection_tol must be strictly positive")


DEFAULT_TOL = ToleranceConfig()
DEFAULT_OPT = OptimizerConfig()
