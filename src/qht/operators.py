"""Hermitian spectral calculus, pinching, projections and inequality residuals.

All operators are plain complex numpy arrays.  Functions validate their
inputs against the declared invariants and raise the typed errors from
:mod:`qht.errors`; nothing here mutates its arguments.
"""

from dataclasses import dataclass

import numpy as np

from .config import (
    DEFAULT_TOL,
    HERMITIAN_TOL,
    MAX_TENSOR_DIM,
    POSITIVITY_ROUNDOFF,
    PSD_TOL,
    SUPPORT_CUTOFF,
    ToleranceConfig,
)
from .errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    NegativeSpectrum,
    NonHermitianInput,
    NotPositiveSemidefinite,
    SingularInStrictMode,
)


def as_complex_matrix(M) -> np.ndarray:
    """Coerce to a square complex array, raising DimensionMismatch otherwise."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_part(M) -> np.ndarray:
    A = as_complex_matrix(M)
    return (A + A.conj().T) / 2.0


def _require_symmetric(A: np.ndarray, scale: float) -> None:
    asym = np.abs(A - A.conj().T).max() if A.size else 0.0
    if asym > HERMITIAN_TOL * scale:
        raise NonHermitianInput(
            f"max |M - M*| = {asym:.3e} exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}"
        )


def check_hermitian(M) -> np.ndarray:
    """Validate Hermitian symmetry of ``M`` relative to its spectral norm."""
    A = as_complex_matrix(M)
    _require_symmetric(A, 1.0 + (np.linalg.norm(A, 2) if A.size else 0.0))
    return A


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigensystem of a Hermitian operator.

    ``vectors`` holds orthonormal eigenvectors as columns, grouped into
    consecutive blocks: the first ``sizes[0]`` columns span the eigenspace of
    ``eigenvalues[0]``, the next ``sizes[1]`` that of ``eigenvalues[1]``, and
    so on, with the distinct eigenvalues in strictly increasing order.  The
    number of clusters is the eigenvalue count v(A) used by the pinching
    inequality, and every spectral function, pinching included, is computed
    from these blocks.  ``cluster_tol`` is the absolute merge threshold of
    :func:`eigendecompose` on gaps between consecutive eigenvalues.
    """

    eigenvalues: np.ndarray  # shape (v,)
    vectors: np.ndarray  # shape (d, d)
    sizes: np.ndarray  # shape (v,), columns per cluster
    cluster_tol: float

    @property
    def v(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def projections(self) -> np.ndarray:
        """Stack of the v eigenprojectors, shape (v, d, d), built on each access.

        For tests and diagnostics; the library works on the column blocks.
        """
        blocks = np.split(self.vectors, np.cumsum(self.sizes)[:-1], axis=1)
        return np.stack([B @ B.conj().T for B in blocks])

    def reconstruct(self) -> np.ndarray:
        return _spectral_sum(self, self.eigenvalues)


def _spectral_sum(dec: SpectralDecomposition, f) -> np.ndarray:
    """The operator with value ``f[i]`` on the i-th eigenspace of ``dec``."""
    V = dec.vectors
    return (V * np.repeat(f, dec.sizes)) @ V.conj().T


def eigendecompose(H, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator into gap-clustered eigenspaces.

    Raw eigenvalues whose consecutive gap is below
    ``cluster_rel_tol * spectral_norm`` merge into a single cluster whose
    eigenspace is spanned by the corresponding eigenvectors.  Tensor powers
    produce numerically coincident eigenvalues, and merging them is what
    keeps v(A) at its exact-arithmetic value.  Hermitian symmetry is
    checked as in :func:`check_hermitian`, but scaled by ``1 + max|w|`` over
    the eigenvalues w of the Hermitian part instead of a separate 2-norm.
    """
    A = as_complex_matrix(H)
    w, V = np.linalg.eigh(hermitian_part(A))
    means, sizes, thr, norm = _gap_clusters(w, tol)
    _require_symmetric(A, 1.0 + norm)
    return SpectralDecomposition(
        eigenvalues=means, vectors=V, sizes=sizes, cluster_tol=thr
    )


def _gap_clusters(w: np.ndarray, tol: ToleranceConfig):
    """Clusters of the ascending eigenvalues ``w`` as :func:`eigendecompose` merges them.

    Returns ``(means, sizes, threshold, norm)``: the cluster means, the
    number of consecutive eigenvalues in each, the merge threshold
    ``cluster_rel_tol * norm`` and the norm ``max |w|``.
    """
    norm = np.abs(w).max() if w.size else 0.0
    thr = tol.cluster_rel_tol * norm
    means, sizes = _cluster_means(w, np.flatnonzero(np.diff(w) > thr) + 1)
    return means, sizes, thr, norm


def _cluster_means(w: np.ndarray, breaks: np.ndarray):
    """Means and sizes of the runs of ``w`` that start at 0 and at each of ``breaks``.

    A single eigenvalue is its own mean, so only runs of two or more are
    averaged.
    """
    starts = np.concatenate(([0], breaks))
    sizes = np.diff(np.concatenate((starts, [len(w)])))
    if not w.size:
        return np.array([np.nan]), sizes
    means = w[starts]
    for i in np.flatnonzero(sizes > 1):
        means[i] = w[starts[i] : starts[i] + sizes[i]].mean()
    return means, sizes


def block_diagonal(A: np.ndarray, sizes) -> np.ndarray:
    """``A`` with every entry outside the consecutive diagonal blocks zeroed.

    The blocks are ``sizes[0]`` rows and columns, then ``sizes[1]``, and so
    on: the clusters of a SpectralDecomposition, in the basis of its vectors.
    """
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    return np.where(cluster[:, None] == cluster[None, :], A, 0.0)


def pinch(reference: SpectralDecomposition, B) -> np.ndarray:
    """Apply the pinching map of ``reference`` to ``B``: sum of E_i B E_i.

    In the eigenbasis of the reference this keeps the diagonal blocks of
    ``B`` and zeroes the rest.  The result commutes with the reference
    operator and has the same trace as ``B``; for ``B`` commuting with the
    reference it is ``B`` itself.
    """
    A = as_complex_matrix(B)
    if A.shape[0] != reference.dim:
        raise DimensionMismatch(
            f"operator dimension {A.shape[0]} != reference dimension {reference.dim}"
        )
    V = reference.vectors
    return V @ block_diagonal(V.conj().T @ A @ V, reference.sizes) @ V.conj().T


def positive_projection(X, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the strictly positive eigenspaces of Hermitian ``X``.

    Eigenvalues are kept by the rule of :func:`strictly_positive`; Hermitian
    symmetry is checked as in :func:`eigendecompose`.
    """
    A = as_complex_matrix(X)
    w, V = np.linalg.eigh(hermitian_part(A))
    _require_symmetric(A, 1.0 + (np.abs(w).max() if w.size else 0.0))
    return (V * strictly_positive(w, tol).astype(float)) @ V.conj().T


def strictly_positive(w, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Which of the ascending eigenvalues ``w`` of a Hermitian X lie in {X > 0}.

    Multiplicities are repeated entries.  The margin is
    ``max(cluster_rel_tol * max(w_max, 0), POSITIVITY_ROUNDOFF * max|w|)``:
    relative to the top of the spectrum, so that for X = A - B with A, B >= 0
    it scales with the positive part and not with B, which can be larger by
    many orders of magnitude, and never below the roundoff of an eigensolve
    of X.  Eigenvalues merge where consecutive gaps are within the margin,
    and a merged cluster counts as positive when its mean exceeds it, so the
    kept eigenvalues are a top segment of ``w``.
    """
    w = np.asarray(w, dtype=float)
    if not w.size:
        return np.zeros(0, dtype=bool)
    margin = max(
        tol.cluster_rel_tol * max(w[-1], 0.0), POSITIVITY_ROUNDOFF * np.abs(w).max()
    )
    means, sizes = _cluster_means(w, np.flatnonzero(np.diff(w) > margin) + 1)
    return np.repeat(means > margin, sizes)


def matrix_power(H, t: float, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Functional-calculus power of a Hermitian operator.

    Integer ``t >= 0`` works on any Hermitian input.  Fractional or negative
    ``t`` requires a positive semidefinite operator; eigenvalues within
    ``PSD_TOL`` of zero are floored at zero first.  For ``t < 0`` the
    operator must have full support: in strict mode a cluster at or below
    ``SUPPORT_CUTOFF * max_eigenvalue`` raises, otherwise it is excluded
    (inverse on the support).  ``t == 0`` returns the support projection.
    """
    dec = eigendecompose(H, tol)
    w = dec.eigenvalues.copy()
    norm = np.abs(w).max() if w.size else 0.0
    fractional = not float(t).is_integer()
    if (t < 0 or fractional) and w.min() < -PSD_TOL * norm:
        raise NegativeSpectrum(
            f"matrix_power with t={t} needs a PSD operator; min eigenvalue {w.min():.3e}"
        )
    if t < 0 or fractional:
        w = np.clip(w, 0.0, None)

    if t == 0:
        f = (np.abs(w) > SUPPORT_CUTOFF * norm).astype(float)
    elif t < 0:
        small = w <= SUPPORT_CUTOFF * w.max()
        if small.any() and tol.strict:
            raise SingularInStrictMode(
                f"negative power t={t} of a rank-deficient operator in strict mode"
            )
        f = np.zeros_like(w)
        f[~small] = w[~small] ** t
    else:
        f = w**t
    return _spectral_sum(dec, f)


def check_dense_budget(dim: int, n: int) -> None:
    """Raise DimensionBudgetExceeded unless ``dim**n`` is within ``MAX_TENSOR_DIM``."""
    if dim**n > MAX_TENSOR_DIM:
        raise DimensionBudgetExceeded(f"dim {dim}^{n} exceeds budget {MAX_TENSOR_DIM}")


def tensor_power(A, n: int) -> np.ndarray:
    """n-fold Kronecker power of a square operator, within the dense budget."""
    M = as_complex_matrix(A)
    if n < 1 or int(n) != n:
        raise ValueError(f"tensor power order must be a positive integer, got {n}")
    check_dense_budget(M.shape[0], n)
    out = np.array([[1.0 + 0.0j]])
    for _ in range(int(n)):
        out = np.kron(out, M)
    return out


def min_eigenvalue(X, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest clustered eigenvalue; X >= 0 iff this is >= -PSD_TOL * norm."""
    dec = eigendecompose(X, tol)
    return float(dec.eigenvalues[0])


def key_inequality_residual(
    rho_n, sigma_n_decomp: SpectralDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Signed residual of the pinching inequality rho <= v * pinch(rho).

    Returns the smallest eigenvalue of ``v * pinch(rho_n) - rho_n`` for the
    pinching defined by ``sigma_n_decomp``; nonnegative (within tolerance)
    for every density operator and every projective measurement.
    """
    R = as_complex_matrix(rho_n)
    if R.shape[0] != sigma_n_decomp.dim:
        raise DimensionMismatch(
            f"state dimension {R.shape[0]} != PVM dimension {sigma_n_decomp.dim}"
        )
    residual = sigma_n_decomp.v * pinch(sigma_n_decomp, R) - R
    return min_eigenvalue(residual, tol)


def operator_convexity_gap(A, X, Y, t: float) -> np.ndarray:
    """Gap matrix of the operator convexity of X -> X* A X for PSD ``A``.

    Returns ``t X*AX + (1-t) Y*AY - Z*AZ`` with ``Z = tX + (1-t)Y``, which
    equals ``t(1-t) (X-Y)* A (X-Y)`` identically and is therefore PSD.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    A = check_hermitian(A)
    wA = np.linalg.eigvalsh(hermitian_part(A))
    norm = np.abs(wA).max() if wA.size else 0.0
    if wA.min() < -PSD_TOL * norm:
        raise NotPositiveSemidefinite(
            f"weight operator has min eigenvalue {wA.min():.3e}"
        )
    X = as_complex_matrix(X)
    Y = as_complex_matrix(Y)
    if X.shape != A.shape or Y.shape != A.shape:
        raise DimensionMismatch("A, X, Y must share one dimension")
    Z = t * X + (1.0 - t) * Y
    gap = (
        t * (X.conj().T @ A @ X)
        + (1.0 - t) * (Y.conj().T @ A @ Y)
        - Z.conj().T @ A @ Z
    )
    return hermitian_part(gap)
