"""Error-exponent functions for a hypothesis pair.

Two families are implemented.  ``psi_bar`` is the exponent of the pinched
trace functional ``-log Tr[rho sigma^{s/2} rho^{-s} sigma^{s/2}]`` whose
Legendre-type transform ``phi_bar`` governs the finite-blocklength bounds;
``psi``/``phi`` are the plain (unpinched) counterparts built from
``-log Tr[rho^{1-s} sigma^s]``.  ``hoeffding_rate`` converts ``psi_bar``
into the achievable trade-off exponent for the second-kind error under an
exponential constraint on the first kind, and ``classical_psi`` /
``classical_hoeffding`` are the scalar reductions for distributions.

Every exponent is ``-log Re sum_k c_k exp(s r_k)``, evaluated by one kernel
over terms built from the eigenbases ``rho = sum_i p_i |u_i><u_i|`` and
``sigma = sum_j q_j |v_j><v_j|``: for psi ``c_ij = |<u_i|v_j>|^2 p_i`` and
``r_ij = log q_j - log p_i`` (the classical exponent is the diagonal case),
for psi_bar ``c_ijk = X_kj C_ji conj(C_ki)`` and
``r_ijk = (log q_j + log q_k)/2 - log p_i`` with ``C = V* U``, ``X = V* rho V``.
Terms with p_i = 0 or q_j = 0 are dropped for every s, so ``rho^0`` and
``sigma^0`` act as support projectors.  ``classical_psi`` keeps its own
convention (q(x) = 0 at s = 0 contributes p(x)) and does not use the kernel.

The kernel is one ``_Scan`` per set of terms: it evaluates the exponent
on any s, and every maximization over s (``phi``, ``phi_bar``, the rate
objective and the finite-n envelopes) is one of its methods.  It scans
one grid of [0, 1] and refines the grid argmax by safeguarded Newton
steps on the closed-form first and second derivatives, read from one
product of its 6 x K moment table with ``e^{s r}``.  The rate parameter
a_r with ``phi_bar(a_r) = r`` takes no search of its own: phi_bar(a) >= r
holds exactly when ``a <= (psi_bar(s) - r) / s`` for some s in (0, 1], so
``a_r = max_s (psi_bar(s) - r) / s = u(r) - r``, the rate objective's
maximum u(r) minus r.  The settings are fixed: ``GRID_POINTS`` grid
points and at most ``NEWTON_STEPS`` Newton steps per maximization.  A
pair's two kernels, one scan each for psi and psi_bar, and its relative
entropy are cached on the pair and freed with it; every function here
that takes a pair reads them from there, ``psi_derivatives`` included.
"""

import functools
import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonpositiveRate,
    RateTooSmallWarning,
    SingularInput,
)
from .pairs import HypothesisPair

_IMAG_RESIDUE = 1e-10

# Points of every s-grid scanned before refinement.
GRID_POINTS = 2001
# Cap on the safeguarded Newton steps that refine a grid argmax.
NEWTON_STEPS = 60

# A Newton step no longer than this (s lies in [0, 1]) ends the refinement.
_STEP_ROUNDOFF = 4.0 * np.finfo(float).eps


def _real_trace(values: np.ndarray, context: str) -> np.ndarray:
    scale = 1.0 + np.abs(values.real)
    bad = np.abs(values.imag) > _IMAG_RESIDUE * scale
    if bad.any():
        worst = np.abs(values.imag).max()
        raise ArithmeticError(f"{context}: imaginary residue {worst:.3e} too large")
    return values.real


def _check_s(s) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if (s < 0.0).any() or (s > 1.0).any():
        raise ValueError("s must lie in [0, 1]")
    return s


def _plain_terms(W, p, q):
    """Terms of ``sum_ij W_ij p_i^{1-s} q_j^s``, dropping p_i = 0 and q_j = 0."""
    keep = (p[:, None] > 0.0) & (q[None, :] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.log(q)[None, :] - np.log(p)[:, None]
    return (W * p[:, None])[keep], r[keep]


def _psi_terms(pair: HypothesisPair):
    p, U = pair.rho_eig
    q, V = pair.sigma_eig
    return _plain_terms(np.abs(U.conj().T @ V) ** 2, p, q)


def _psi_bar_terms(pair: HypothesisPair):
    """Terms of ``Tr[rho sigma^{s/2} rho^{-s} sigma^{s/2}]``; needs full support."""
    pair.assert_invertible("psi_bar")
    p, U = pair.rho_eig
    q, V = pair.sigma_eig
    C = V.conj().T @ U
    T = np.einsum("kj,ji,ki->ijk", pair.rho_in_sigma_basis, C, C.conj())
    half_log_q = np.log(q) / 2.0
    r = half_log_q[None, :, None] + half_log_q[None, None, :] - np.log(p)[:, None, None]
    return T.ravel(), r.ravel()


_TERMS = {"psi": _psi_terms, "psi_bar": _psi_bar_terms}


def _cached(pair: HypothesisPair, key, build):
    """``build()``, once per pair and key; a build that raises stores nothing."""
    cache = pair._exponent_cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _scan(pair: HypothesisPair, name: str) -> "_Scan":
    """The pair's cached kernel ``name`` ("psi" or "psi_bar")."""
    return _cached(pair, name, lambda: _Scan(_TERMS[name](pair), name))


def psi_bar_values(pair: HypothesisPair, s) -> np.ndarray:
    """Vectorized pinched exponent over an array of s values in [0, 1]."""
    s = _check_s(s)
    return _scan(pair, "psi_bar").at(s)


def psi_values(pair: HypothesisPair, s) -> np.ndarray:
    """Vectorized plain exponent -log Tr[rho^{1-s} sigma^s] over s in [0, 1]."""
    return _scan(pair, "psi").at(_check_s(s))


def psi_bar(pair: HypothesisPair, s: float) -> float:
    return float(psi_bar_values(pair, s)[0])


def psi(pair: HypothesisPair, s: float) -> float:
    return float(psi_values(pair, s)[0])


def _dense_relative_entropy(pair: HypothesisPair) -> float:
    # matrix logs, not the kernel: check_derivatives compares this with psi'(0)
    pair.assert_invertible("relative_entropy")
    (p, U), (q, V) = pair.rho_eig, pair.sigma_eig
    log_ratio = (U * np.log(p)) @ U.conj().T - (V * np.log(q)) @ V.conj().T
    value = np.trace(pair.rho @ log_ratio)
    return float(_real_trace(np.atleast_1d(value), "relative entropy")[0])


def relative_entropy(pair: HypothesisPair) -> float:
    """Quantum relative entropy Tr[rho (log rho - log sigma)], once per pair."""
    return _cached(pair, "relative_entropy", lambda: _dense_relative_entropy(pair))


def psi_derivatives(pair: HypothesisPair, s: float) -> tuple[float, float]:
    """First and second derivative of psi at s.

    With the kernel terms of psi and the tilted weights
    ``w_k = c_k e^{s r_k} / sum_k c_k e^{s r_k}``, ``psi'(s) = -sum_k w_k r_k``
    and ``psi''(s) = -sum_k w_k (r_k + psi'(s))^2``; the latter is minus a
    variance, so ``psi'' < 0`` whenever rho != sigma.
    """
    s = float(_check_s(s)[0])
    pair.assert_invertible("psi_derivatives")
    _, d1, d2 = _scan(pair, "psi").point(s)
    return d1, d2


class _Scan:
    """The kernel ``E(s) = -log Re sum_k c_k exp(s r_k)`` of one set of terms.

    It keeps the exponents r, the grid ``linspace(0, 1, GRID_POINTS)`` that
    every maximization scans, and the real 6 x K moment table of Re and
    then Im of ``c_k r_k^j``, j = 0, 1, 2, whose rows 0 and 3 are the
    weights c.  The grid and its values are made at the first maximization,
    so a kernel that is only evaluated at given s (:func:`psi_bar_values`)
    or read at single points (:func:`psi_derivatives`) costs its table alone.
    """

    def __init__(self, terms, name: str):
        c, r = terms
        weighted = (c, c * r, c * r * r)
        self.r = r
        self.name = name
        self.table = np.array([w.real for w in weighted] + [w.imag for w in weighted])
        self.real = not self.table[3].any()

    def at(self, s: np.ndarray) -> np.ndarray:
        """E at each entry of s; real weights (``real``) take no imaginary product."""
        E = np.outer(s, self.r)
        np.exp(E, out=E)
        tr = E @ self.table[0]
        if not self.real:
            # two real products: a complex product would first copy E at twice its size
            tr = _real_trace(tr + 1j * (E @ self.table[3]), f"{self.name} trace")
        if (tr <= 0.0).any():
            raise ArithmeticError(f"{self.name} trace is not positive")
        return -np.log(tr)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, GRID_POINTS)

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.at(self.grid)

    def point(self, s: float) -> tuple[float, float, float]:
        """E and its s-derivatives E', E'' at one s.

        From the moments ``m_j = Re sum_k c_k r_k^j e^{s r_k}``, j = 0, 1, 2:
        ``E = -log m_0``, ``E' = -m_1 / m_0`` and ``E'' = E'^2 - m_2 / m_0``.
        All six real and imaginary parts are one product ``table @ e^{s r}``.
        The imaginary residue of each moment is held to
        :func:`_real_trace`'s rule.
        """
        moments = (self.table @ np.exp(s * self.r)).tolist()
        real, imag = moments[:3], moments[3:]
        if any(abs(i) > _IMAG_RESIDUE * (1.0 + abs(m)) for m, i in zip(real, imag)):
            worst = max(map(abs, imag))
            raise ArithmeticError(f"{self.name} trace: imaginary residue {worst:.3e} too large")
        m0, m1, m2 = real
        if m0 <= 0.0:
            raise ArithmeticError(f"{self.name} trace is not positive")
        d1 = -m1 / m0
        return -math.log(m0), d1, d1 * d1 - m2 / m0

    def maximize(self, vals: np.ndarray, lift):
        """Grid argmax of ``vals`` (the objective on the grid), refined by Newton.

        ``lift(s, E, E1, E2)`` turns the kernel moments at s into the objective
        and its first two s-derivatives.  Newton steps on the slope start at the
        grid argmax k and stay inside the bracket ``[grid[k-1], grid[k+1]]``,
        which shrinks to the side the slope points to; where the curvature is
        not negative or a step would leave the bracket, the step bisects it
        instead.  The refinement stops when a step falls to roundoff or after
        ``NEWTON_STEPS`` steps.  Returns ``(s, value, k)`` for the best probed
        point: the grid point wins unless strictly beaten, and ties go to the
        smaller s.  Where the maximum is flat, roundoff in its values fixes the
        returned s only to about the square root of machine epsilon.
        """
        grid = self.grid
        k = int(np.argmax(vals))
        lo = float(grid[max(k - 1, 0)])
        hi = float(grid[min(k + 1, len(grid) - 1)])
        best_x, best_v = float(grid[k]), float(vals[k])
        x = best_x
        _, d1, d2 = lift(x, *self.point(x))
        for _ in range(NEWTON_STEPS):
            if d1 > 0.0:
                lo = x
            elif d1 < 0.0:
                hi = x
            else:
                break
            newton = -d1 / d2 if d2 < 0.0 else math.inf
            if abs(newton) <= _STEP_ROUNDOFF:
                break
            step = x + newton
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - x) <= _STEP_ROUNDOFF:
                break
            x = step
            v, d1, d2 = lift(x, *self.point(x))
            if v > best_v or (v == best_v and x < best_x):
                best_x, best_v = x, v
        return best_x, best_v, k

    def transform(self, a: float) -> tuple[float, float]:
        """``(max over s in [0, 1] of E(s) - a s, argmax)``."""

        def lift(s, v, d1, d2):
            return v - a * s, d1 - a, d2

        s_star, value, _ = self.maximize(self.values - a * self.grid, lift)
        return value, s_star

    def rate(self, r: float) -> float:
        """max over s in (0, 1] of ``h(s) = (E(s) - (1-s) r) / s``.

        ``h' = (E' + r - h) / s`` and ``h'' = (E'' - 2 h') / s``.  The grid
        point s = 0, where h divides by zero, is masked out of the scan.
        Near s = 0, h tends to ``(E(0) - r) / s``, so a rate at or below
        ``E(0) = -log Tr rho`` (zero but for roundoff) has no finite
        maximum and raises :class:`NonpositiveRate`, as does r <= 0.
        """
        if r <= 0.0:
            raise NonpositiveRate(f"rate must be positive, got {r}")
        floor = float(self.values[0])
        if r <= floor:
            raise NonpositiveRate(
                f"rate must exceed {floor!r}, the {self.name} exponent at s = 0 "
                f"(-log Tr rho, zero but for roundoff), got {r}"
            )

        def lift(s, E, E1, E2):
            h = (E - (1.0 - s) * r) / s
            h1 = (E1 + r - h) / s
            return h, h1, (E2 - 2.0 * h1) / s

        grid = self.grid
        vals = self.values - (1.0 - grid) * r
        vals[1:] /= grid[1:]
        vals[0] = -math.inf
        _, value, k = self.maximize(vals, lift)
        if k == 1:
            warnings.warn(
                f"rate objective peaked at the first positive grid point s = {grid[1]:g}; "
                "the requested rate may be too small to resolve",
                RateTooSmallWarning,
                stacklevel=3,
            )
        return value


def phi_bar(pair: HypothesisPair, a: float) -> tuple[float, float]:
    """max over s in [0, 1] of psi_bar(s) - a s, with the maximizing s.

    psi_bar is not concave: it can be convex in places (near s = 1 on some
    pairs), so the maximizing s can jump as a moves.  A dense grid scan
    therefore runs first, and safeguarded Newton steps only refine the
    winning bracket.  Ties break toward smaller s.
    """
    return _scan(pair, "psi_bar").transform(float(a))


def phi(pair: HypothesisPair, a: float) -> tuple[float, float]:
    """max over s in [0, 1] of psi(s) - a s, with the maximizing s.

    psi'' < 0 makes the objective strictly concave; it takes the same grid
    scan and Newton refinement as :func:`phi_bar`.
    """
    return _scan(pair, "psi").transform(float(a))


def hoeffding_rate(pair: HypothesisPair, r: float) -> float:
    """Achievable second-kind exponent under the first-kind constraint e^{-nr}.

    The maximum u(r) of ``(psi_bar(s) - (1-s) r) / s`` over s in (0, 1],
    from the pair's psi_bar scan; u(r) - r is the threshold a_r of
    :func:`solve_rate_parameter`.  Raises :class:`NonpositiveRate` for r at
    or below ``psi_bar(0) = -log Tr rho``.
    """
    return _scan(pair, "psi_bar").rate(float(r))


def solve_rate_parameter(pair: HypothesisPair, r: float) -> float:
    """The threshold a_r with phi_bar(a_r) = r: the rate objective's maximum minus r.

    phi_bar(a) >= r holds exactly when ``a <= (psi_bar(s) - r) / s`` for
    some s in (0, 1], and ``(psi_bar(s) - r) / s`` is the rate objective
    ``(psi_bar(s) - (1-s) r) / s`` minus r.  So ``a_r = u(r) - r`` with
    u(r) the maximum that :func:`hoeffding_rate` returns, read from the
    same scan; it raises and warns where :func:`hoeffding_rate` does.
    """
    r = float(r)
    return _scan(pair, "psi_bar").rate(r) - r


def check_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"expected a 1-D distribution, got shape {p.shape}")
    if (p < 0.0).any():
        raise InvariantViolation("probability", f"negative entry {float(p.min())!r}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise InvariantViolation("normalization", f"sum is {float(p.sum())!r}")
    return p


def _check_distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = check_distribution(p)
    q = check_distribution(q)
    if p.shape != q.shape:
        raise DimensionMismatch("distributions must have equal support size")
    return p, q


def classical_psi(p, q, s: float) -> float:
    """The sum ``Psi(s) = sum_x p(x)^{1-s} q(x)^s`` (not its negative log).

    Terms with p(x) = 0 contribute nothing for every s in [0, 1].
    """
    p, q = _check_distributions(p, q)
    s = float(_check_s(s)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p ** (1.0 - s) * q**s, 0.0)
    return float(terms.sum())


def classical_hoeffding(p, q, r: float) -> float:
    """Classical trade-off exponent for distributions with full common support.

    Maximizes ``(E(s) - (1-s) r) / s`` over s in (0, 1], where
    ``E(s) = -log sum_x p(x)^{1-s} q(x)^s`` is the exponent associated
    with Psi; on commuting (diagonal) quantum pairs this coincides with
    :func:`hoeffding_rate`.
    """
    p, q = _check_distributions(p, q)
    if p.min() <= 0.0 or q.min() <= 0.0:
        raise SingularInput("classical_hoeffding requires full common support")
    terms = _plain_terms(np.eye(p.size), p, q)
    return _Scan(terms, "classical").rate(float(r))
