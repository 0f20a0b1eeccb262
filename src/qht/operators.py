"""Hermitian spectral calculus, pinching, projections and inequality residuals.

All operators are plain complex numpy arrays.  Functions validate their
inputs against the declared invariants and raise the typed errors from
:mod:`qht.errors`; nothing here mutates its arguments.
"""

from dataclasses import dataclass

import numpy as np

from .config import (
    CLUSTER_REL_TOL,
    HERMITIAN_TOL,
    MAX_TENSOR_DIM,
    POSITIVITY_ROUNDOFF,
    PSD_TOL,
    SUPPORT_CUTOFF,
)
from .errors import (
    DimensionBudgetExceeded,
    DimensionMismatch,
    NegativeSpectrum,
    NonHermitianInput,
    NotPositiveSemidefinite,
    SingularInput,
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
    """``M`` as a matrix, its symmetry held to :func:`hermitian_eigh`'s rule."""
    return hermitian_eigh(M)[0]


def hermitian_eigh(M):
    """``(A, w, V)``: ``M`` as a matrix A and the ``eigh`` of its Hermitian part.

    A's symmetry is held to ``HERMITIAN_TOL * (1 + max|w|)``.
    """
    A = as_complex_matrix(M)
    w, V = np.linalg.eigh(hermitian_part(A))
    _require_symmetric(A, 1.0 + (np.abs(w).max() if w.size else 0.0))
    return A, w, V


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigensystem of a Hermitian operator.

    ``vectors`` holds orthonormal eigenvectors as columns, grouped into
    consecutive blocks: the first ``sizes[0]`` columns span the eigenspace of
    ``eigenvalues[0]``, the next ``sizes[1]`` that of ``eigenvalues[1]``, and
    so on, with the distinct eigenvalues in strictly increasing order.  The
    number of clusters is the eigenvalue count v(A) used by the pinching
    inequality, and every spectral function, pinching included, is computed
    from these blocks.
    """

    eigenvalues: np.ndarray  # shape (v,)
    vectors: np.ndarray  # shape (d, d)
    sizes: np.ndarray  # shape (v,), columns per cluster

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


def eigendecompose(H) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator into gap-clustered eigenspaces.

    Raw eigenvalues whose consecutive gap is below
    ``CLUSTER_REL_TOL * spectral_norm`` merge into a single cluster whose
    eigenspace is spanned by the corresponding eigenvectors.  Tensor powers
    produce numerically coincident eigenvalues, and merging them is what
    keeps v(A) at its exact-arithmetic value.  Hermitian symmetry is
    checked by :func:`hermitian_eigh`.
    """
    _, w, V = hermitian_eigh(H)
    means, sizes, _ = _gap_clusters(w)
    return SpectralDecomposition(eigenvalues=means, vectors=V, sizes=sizes)


def _gap_clusters(w: np.ndarray, gap=None, m=None):
    """Clusters of the ascending eigenvalues ``w``: the library's one clustering rule.

    Returns ``(means, sizes, norm)``: the cluster means, the number of
    consecutive eigenvalues in each and the norm ``max |w|``.  Consecutive
    eigenvalues merge where their gap is at most ``gap``, by default
    ``CLUSTER_REL_TOL * norm`` as :func:`eigendecompose` merges them.  Entry
    i stands for ``m[i]`` equal eigenvalues (default 1), and a cluster's
    mean is ``(w * m).sum() / m.sum()`` with numpy's pairwise sums: with
    ``m = 1`` the plain ``.mean()``, and a single eigenvalue its own mean.
    """
    norm = np.abs(w).max() if w.size else 0.0
    gap = CLUSTER_REL_TOL * norm if gap is None else gap
    starts = np.concatenate(([0], np.flatnonzero(np.diff(w) > gap) + 1))
    sizes = np.diff(np.concatenate((starts, [len(w)])))
    if not w.size:
        return np.array([np.nan]), sizes, norm
    m = np.ones(len(w)) if m is None else np.asarray(m, dtype=float)
    wm = w * m
    means = wm[starts] / m[starts]
    for i in np.flatnonzero(sizes > 1):
        run = slice(starts[i], starts[i] + sizes[i])
        means[i] = wm[run].sum() / m[run].sum()
    return means, sizes, norm


def block_diagonal(A: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``A`` with entry (i, j) zeroed unless rows i and j carry the same label.

    ``labels`` holds one label per row: for a SpectralDecomposition in the
    basis of its vectors, the index of each row's cluster.
    """
    return np.where(labels[:, None] == labels[None, :], A, 0.0)


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
    V, sizes = reference.vectors, reference.sizes
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    return V @ block_diagonal(V.conj().T @ A @ V, cluster) @ V.conj().T


def positive_projection(X) -> np.ndarray:
    """Projector onto the strictly positive eigenspaces of Hermitian ``X``.

    Eigenvalues are kept by the rule of :func:`strictly_positive`; Hermitian
    symmetry is checked by :func:`hermitian_eigh`.
    """
    _, w, V = hermitian_eigh(X)
    return (V * strictly_positive(w).astype(float)) @ V.conj().T


def strictly_positive(w, m=None) -> np.ndarray:
    """Which of the ascending eigenvalues ``w`` of a Hermitian X lie in {X > 0}.

    Entry i stands for ``m[i]`` equal eigenvalues (default 1).  The margin
    is ``max(CLUSTER_REL_TOL * max(w_max, 0), POSITIVITY_ROUNDOFF * max|w|)``:
    relative to the top of the spectrum, so that for X = A - B with A, B >= 0
    it scales with the positive part and not with B, which can be larger by
    many orders of magnitude, and never below the roundoff of an eigensolve
    of X.  Eigenvalues merge where consecutive gaps are within the margin
    (:func:`_gap_clusters`), and a merged cluster counts as positive when
    its multiplicity-weighted mean exceeds it, so the kept eigenvalues are a
    top segment of ``w``.
    """
    w = np.asarray(w, dtype=float)
    if not w.size:
        return np.zeros(0, dtype=bool)
    margin = max(CLUSTER_REL_TOL * max(w[-1], 0.0), POSITIVITY_ROUNDOFF * np.abs(w).max())
    means, sizes, _ = _gap_clusters(w, margin, m)
    return np.repeat(means > margin, sizes)


def matrix_power(H, t: float) -> np.ndarray:
    """Functional-calculus power of a Hermitian operator.

    Integer ``t >= 0`` works on any Hermitian input.  Fractional or negative
    ``t`` requires a positive semidefinite operator; eigenvalues within
    ``PSD_TOL`` of zero are floored at zero first.  For ``t < 0`` the
    operator must have full support: a cluster at or below
    ``SUPPORT_CUTOFF * max_eigenvalue`` raises SingularInput, and no
    inverse on the support is taken.  ``t == 0`` returns the support
    projection.
    """
    return _spectral_power(eigendecompose(H), t)


def _spectral_power(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """:func:`matrix_power` of the operator that ``dec`` decomposes, with its validations."""
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
    elif t < 0 and w.min() <= SUPPORT_CUTOFF * w.max():
        raise SingularInput(f"negative power t={t} of a rank-deficient operator")
    else:
        f = w**t
    return _spectral_sum(dec, f)


def check_budget(length: int, what: str) -> None:
    """Raise DimensionBudgetExceeded unless the n-fold ``length`` is within ``MAX_TENSOR_DIM``."""
    if length > MAX_TENSOR_DIM:
        raise DimensionBudgetExceeded(f"{what} exceeds budget {MAX_TENSOR_DIM}")


def check_dense_budget(dim: int, n: int) -> None:
    """:func:`check_budget` on the ``dim**n`` rows of an n-fold dense operator."""
    check_budget(dim**n, f"dim {dim}^{n}")


def check_blocklength(n) -> int:
    """``n`` as an int; ValueError unless it is an integer (numpy's too) of at least 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"blocklength must be a positive integer, got {n!r}")
    return int(n)


def tensor_power(A, n: int) -> np.ndarray:
    """n-fold Kronecker power of a square operator, within the dense budget."""
    M = as_complex_matrix(A)
    n = check_blocklength(n)
    check_dense_budget(M.shape[0], n)
    out = M.copy()  # n = 1 must not hand back the caller's array
    for _ in range(n - 1):
        # np.kron bit for bit: entry (i j, k l) is out[i, k] * M[j, l]
        out = (out[:, None, :, None] * M[None, :, None, :]).reshape(len(out) * len(M), -1)
    return out


def min_eigenvalue(X) -> float:
    """Smallest clustered eigenvalue; X >= 0 iff this is >= -PSD_TOL * norm.

    The eigenvalues are clustered and the symmetry checked as by
    :func:`eigendecompose`, but no eigenvectors are computed.
    """
    A = as_complex_matrix(X)
    means, _, norm = _gap_clusters(np.linalg.eigvalsh(hermitian_part(A)))
    _require_symmetric(A, 1.0 + norm)
    return float(means[0])


def key_inequality_residual(rho_n, sigma_n_decomp: SpectralDecomposition) -> float:
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
    return min_eigenvalue(residual)


def operator_convexity_gap(A, X, Y, t: float) -> np.ndarray:
    """Gap matrix of the operator convexity of X -> X* A X for PSD ``A``.

    Returns ``t X*AX + (1-t) Y*AY - Z*AZ`` with ``Z = tX + (1-t)Y``, which
    equals ``t(1-t) (X-Y)* A (X-Y)`` identically and is therefore PSD.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    A, wA, _ = hermitian_eigh(A)
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
