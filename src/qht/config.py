"""The fixed tolerances and budget: nothing here is a setting.

The other fixed values are the idempotency slack ``qht.checks.PROJ_TOL``
of the dense reference tests and the grid and Newton settings
``GRID_POINTS`` and ``NEWTON_STEPS`` of :mod:`qht.exponents`, shared by
every maximization over s.  The quantities that need full support reject a rank-deficient state
where they are computed; :meth:`qht.pairs.HypothesisPair.smoothed` mixes in
a multiple of the identity first.
"""

import sys

# The one budget: the length of the n-fold spectrum a path builds, checked
# by ``operators.check_budget`` before any work.  Dense operators and the
# plain test of ``conjecture_probe`` hold d^n to it; ``finite_n._sweep``
# the rows of its blocks at the largest n: d^n, or (n + 2)^2 // 4 for the
# qubit spin blocks.  4096 admits qutrits to n = 7 and qubit sweeps to
# n = 126.  On a shared 2-core Xeon with OpenBLAS 0.3.31 on 2 threads, ``qht
# finite-n --preset qubit-generic --n-max 126`` takes 2.6 to 3.1 s and 55 MiB;
# a seeded qutrit at ``--n-max 7`` takes 3.8 to 4.4 s and 336 MiB in
# ``finite-n`` and 14 to 22 s and 503 MiB in ``conjecture``.
MAX_TENSOR_DIM = 4096

# Slack allowed below zero when testing positive semidefiniteness.
PSD_TOL = 1e-10
# Eigenvalues closer than CLUSTER_REL_TOL times the spectral norm merge into
# one distinct eigenvalue, so v(A) and every pinching block keep their
# exact-arithmetic values under roundoff.  The finite-n tests group the
# sigma_n log levels and take their keep margin by the same value.
CLUSTER_REL_TOL = 1e-10
# Eigenvalues at or below SUPPORT_CUTOFF * max_eigenvalue count as zero: an
# inverse power or a logarithm rejects an operator that has one.
SUPPORT_CUTOFF = 1e-12
# Validation slack for Hermitian symmetry and unit trace.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
# Roundoff margin of the strict positivity {X > 0}, relative to the
# spectral norm of X: computed eigenvalues within it of zero carry no sign.
POSITIVITY_ROUNDOFF = 16 * sys.float_info.epsilon
# Default thresholds a of a finite-n table, as fractions of the relative entropy.
THRESHOLD_FRACTIONS = (0.25, 0.5, 0.75, 0.9)

