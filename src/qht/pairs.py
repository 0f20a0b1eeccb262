"""Validated hypothesis pairs, state constructors and named presets."""

from __future__ import annotations

import numpy as np

from .config import PSD_TOL, SUPPORT_CUTOFF, TRACE_TOL
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotPositiveSemidefinite,
    ParseError,
    SingularInput,
)
from .operators import hermitian_eigh


def _density_eig(M):
    """A validated density operator and its eigensystem ``(clip(w, 0), V)``.

    One :func:`qht.operators.hermitian_eigh` checks, in this order, Hermitian
    symmetry, positivity within ``PSD_TOL`` and unit trace; a 0 x 0 matrix
    is no state and raises DimensionMismatch.
    """
    A, w, V = hermitian_eigh(M)
    if not w.size:
        raise DimensionMismatch("a state needs dimension at least 1, got 0")
    if w.min() < -PSD_TOL:
        raise NotPositiveSemidefinite(f"min eigenvalue {w.min():.3e}")
    tr = np.trace(A).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation("trace", f"trace is {float(tr)!r}, expected 1")
    return A, (np.clip(w, 0.0, None), V)


def check_density(M) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD within tolerance, unit trace."""
    return _density_eig(M)[0]


class HypothesisPair:
    """A validated pair (rho, sigma) of equal-dimension density operators.

    rho is the null hypothesis, sigma the alternative.  A pair takes no
    setting, and any two valid states make one, rank-deficient ones
    included.  A quantity that takes an inverse power or a logarithm of the
    states (psi_bar and the scans over it, the relative entropy, the psi
    derivatives, the plain test at n a > 700) calls
    :meth:`assert_invertible` where it is computed.  ``rho_eig`` and
    ``sigma_eig`` are the eigensystems ``(w, V)`` of the one eigensolve that
    validates each state; eigenvalues within ``PSD_TOL`` below zero are
    floored at zero.  ``rho_in_sigma_basis`` is ``X = V* rho V``, which the
    psi_bar terms and every finite-n block read.  One scan per exponent
    kernel of :mod:`qht.exponents` (psi and psi_bar) and the relative
    entropy are cached on the pair too and freed with it.
    """

    def __init__(self, rho, sigma):
        self.rho, self.rho_eig = _density_eig(rho)
        self.sigma, self.sigma_eig = _density_eig(sigma)
        if self.rho.shape != self.sigma.shape:
            raise DimensionMismatch(
                f"rho has dimension {self.rho.shape[0]}, sigma {self.sigma.shape[0]}"
            )
        _, V = self.sigma_eig
        self.rho_in_sigma_basis = V.conj().T @ self.rho @ V
        self.dim = self.rho.shape[0]
        self._exponent_cache = {}

    def assert_invertible(self, context: str) -> None:
        """Raise SingularInput unless both states have full support."""
        (p, _), (q, _) = self.rho_eig, self.sigma_eig
        ratio = min(p.min() / p.max(), q.min() / q.max())
        if ratio <= SUPPORT_CUTOFF:
            raise SingularInput(
                f"{context} requires positive definite states; "
                f"smallest relative eigenvalue is {ratio:.3e}"
            )

    def smoothed(self, delta: float) -> HypothesisPair:
        """Mix both states with delta * I/d to guarantee full rank."""
        if not 0.0 < delta < 1.0:
            raise ValueError(f"smoothing delta must lie in (0, 1), got {delta}")
        eye = np.eye(self.dim) / self.dim
        return HypothesisPair(
            (1.0 - delta) * self.rho + delta * eye,
            (1.0 - delta) * self.sigma + delta * eye,
        )

    def __repr__(self):
        return f"HypothesisPair(dim={self.dim})"


# Weight of the mixture with I/d (random states) or added to every entry
# (random distributions) that keeps the random constructors at full rank.
RANDOM_FLOOR = 1e-6


def complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A dim x dim standard complex normal matrix, real part drawn first."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw G G*/Tr[G G*] from a standard complex normal G, floored to full rank."""
    G = complex_gaussian(rng, dim)
    W = G @ G.conj().T
    rho = W / np.trace(W).real
    return (1.0 - RANDOM_FLOOR) * rho + RANDOM_FLOOR * np.eye(dim) / dim


def random_pair(seed, dim: int = 2) -> HypothesisPair:
    """Deterministic random full-rank pair; ``seed`` is an int or a Generator."""
    rng = np.random.default_rng(seed)
    return HypothesisPair(random_density(rng, dim), random_density(rng, dim))


def random_diagonal_pair(seed, dim: int = 2) -> HypothesisPair:
    """Deterministic commuting pair built from two random distributions."""
    rng = np.random.default_rng(seed)
    p = rng.random(dim) + RANDOM_FLOOR
    q = rng.random(dim) + RANDOM_FLOOR
    return HypothesisPair(np.diag(p / p.sum()), np.diag(q / q.sum()))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a complex Gaussian."""
    G = complex_gaussian(rng, dim)
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _preset_identical():
    rho = np.diag([0.6, 0.4]).astype(complex)
    return rho, rho.copy()


def _preset_commuting_1():
    return np.diag([0.5, 0.5]).astype(complex), np.diag([0.9, 0.1]).astype(complex)


def _preset_qubit_generic():
    rho = np.array([[0.70, 0.10 + 0.10j], [0.10 - 0.10j, 0.30]])
    sigma = np.array([[0.40, -0.15j], [0.15j, 0.60]])
    return rho, sigma


def _preset_qubit_skewed():
    # Strongly separated, mildly rotated pair: relative entropy ~ 16 nats,
    # so the finite-n error bounds decay visibly already at n <= 8.
    rho = np.array([[0.9999999, 0.0], [0.0, 1.0e-7]], dtype=complex)
    sigma = np.array([[2.0e-7, 3.0e-4], [3.0e-4, 0.9999998]], dtype=complex)
    return rho, sigma


PRESETS = {
    "identical": _preset_identical,
    "commuting-1": _preset_commuting_1,
    "qubit-generic": _preset_qubit_generic,
    "qubit-skewed": _preset_qubit_skewed,
}


def preset_pair(name: str) -> HypothesisPair:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ParseError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    rho, sigma = builder()
    return HypothesisPair(rho, sigma)
