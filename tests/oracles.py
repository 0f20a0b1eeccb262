"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library: scalar eigenvalue-weight sums (psi) and dense matrix-power
products (psi_bar) evaluated in mpmath for the exponent functions and their
finite differences, brute-force grid scans for the one-dimensional
maximizations, the rate-parameter bisection with every probe run in full
on a grid built for the one call, qubit plain-test errors from spin blocks whose entries
are string-pair counts, and pinched-test errors from the sigma_n levels
of the index types, both diagonalized in mpmath.
"""

import itertools

import mpmath as mp
import numpy as np

from qht.config import POSITIVITY_ROUNDOFF
from qht.errors import BracketFailure
from qht.exponents import _psi_bar_terms, _transform, relative_entropy


def weight_form(pair):
    """Overlap weights and spectra: psi(s) = -log sum_ij W_ij p_i^{1-s} q_j^s."""
    p, U = pair.rho_eig
    q, V = pair.sigma_eig
    W = np.abs(U.conj().T @ V) ** 2
    return W, p, q


def psi_scalar_mp(pair, s, dps=40):
    """The plain exponent from the scalar weight form at high precision."""
    W, p, q = weight_form(pair)
    with mp.workdps(dps):
        tot = mp.mpf(0)
        for i in range(pair.dim):
            for j in range(pair.dim):
                tot += (
                    mp.mpf(float(W[i, j]))
                    * mp.mpf(float(p[i])) ** (1 - s)
                    * mp.mpf(float(q[j])) ** s
                )
        return -mp.log(tot)


def _mp_matrix(M):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in M])


def _mp_power(eig, t):
    """``X^t`` from the float64 eigensystem of X, in mpmath arithmetic."""
    w, U = eig
    Um = _mp_matrix(U)
    D = mp.diag([mp.mpf(float(x)) ** t for x in w])
    return Um * D * Um.transpose_conj()


def psi_bar_matrix_mp(pair, s, dps=40):
    """The pinched exponent as a dense mpmath product of matrix powers."""
    with mp.workdps(dps):
        half = _mp_power(pair.sigma_eig, s / 2)
        prod = _mp_matrix(pair.rho) * half * _mp_power(pair.rho_eig, -s) * half
        return -mp.log(mp.re(sum(prod[i, i] for i in range(pair.dim))))


def psi_fd_mp(pair, s, h=1e-5, dps=40, exponent=psi_scalar_mp):
    """Central finite differences of an exponent, free of float64 roundoff."""
    with mp.workdps(dps):
        sh, hh = mp.mpf(s), mp.mpf(h)
        up = exponent(pair, sh + hh, dps)
        mid = exponent(pair, sh, dps)
        down = exponent(pair, sh - hh, dps)
        d1 = (up - down) / (2 * hh)
        d2 = (up - 2 * mid + down) / hh**2
        return float(d1), float(d2)


def classical_exponent(p, q, s):
    return -np.log((p[:, None] ** (1.0 - s) * q[:, None] ** s).sum(axis=0))


def grid_max_phi(p, q, a, points=1_000_001):
    """Brute-force maximum of the classical exponent minus a*s on [0, 1]."""
    s = np.linspace(0.0, 1.0, points)
    return float((classical_exponent(np.asarray(p), np.asarray(q), s) - a * s).max())


def brute_force_grid(values, lo, points=100_000, chunks=10):
    """A vectorized function sampled on ``points`` grid points of [lo, 1].

    Returns the grid and the samples; the function is called chunk by chunk
    to keep its intermediate arrays small.
    """
    s = np.linspace(lo, 1.0, points)
    return s, np.concatenate([values(part) for part in np.array_split(s, chunks)])


def grid_max_hoeffding(p, q, r, points=1_000_000):
    """Brute-force maximum of (E(s) - (1-s) r)/s on (0, 1]."""
    s = np.linspace(1e-6, 1.0, points)
    vals = (classical_exponent(np.asarray(p), np.asarray(q), s) - (1.0 - s) * r) / s
    return float(vals.max())


def reference_rate_parameter(pair, r):
    """a_r with phi_bar(a_r) = r, bisected on an uncached psi_bar grid.

    The bracket-and-bisect loop of ``solve_rate_parameter`` as it was before
    the per-pair cache: every probe takes the full Newton refinement.
    """
    transform = _transform(_psi_bar_terms(pair), "psi_bar")

    def value(a):
        return transform(a)[0]

    a_hi = relative_entropy(pair) + 1.0
    step = 1.0
    while value(a_hi) > r:
        a_hi += step
        step *= 2.0
        if a_hi > 1e6:
            raise BracketFailure("upper bracket exceeded 1e6")
    a_lo = -1.0
    while value(a_lo) < r:
        a_lo *= 2.0
        if a_lo < -1e6:
            raise BracketFailure("lower bracket exceeded -1e6")
    for _ in range(200):
        if a_hi - a_lo <= 1e-11:
            break
        mid = 0.5 * (a_lo + a_hi)
        if value(mid) >= r:
            a_lo = mid
        else:
            a_hi = mid
    return 0.5 * (a_lo + a_hi)


def _mp_sym_power(X, N):
    """``Sym^N(X)`` of a 2 x 2 mpmath matrix from the string-pair count.

    Entry (j, k) is ``<D_j| X^{(x)N} |D_k>`` for normalized Dicke states:
    the pairs of N-bit strings with j and k ones that share l ones occur
    ``N! / (l! (j-l)! (k-l)! (N-j-k+l)!)`` times, each with product
    ``x11^l x10^(j-l) x01^(k-l) x00^(N-j-k+l)``.
    """
    f = mp.factorial
    S = mp.matrix(N + 1, N + 1)
    for j in range(N + 1):
        for k in range(N + 1):
            tot = mp.mpc(0)
            for l in range(max(0, j + k - N), min(j, k) + 1):
                count = f(N) / (f(l) * f(j - l) * f(k - l) * f(N - j - k + l))
                tot += (
                    count
                    * X[1, 1] ** l
                    * X[1, 0] ** (j - l)
                    * X[0, 1] ** (k - l)
                    * X[0, 0] ** (N - j - k + l)
                )
            S[j, k] = tot / mp.sqrt(mp.binomial(N, j) * mp.binomial(N, k))
    return S


def plain_test_errors_mp(pair, n, a, cluster_rel_tol=1e-10, dps=30):
    """alpha and beta of {rho_n > e^{na} sigma_n} for a qubit pair, in mpmath.

    sigma is diagonalized in mpmath, and ``rho_n - e^{na} sigma_n`` is split
    into the blocks ``det(X)^t Sym^{n-2t}(X) - e^{na} det(Q)^t Sym^{n-2t}(Q)``
    of multiplicity ``C(n,t) - C(n,t-1)``, with ``X = V* rho V`` and
    ``Q = diag(q)``.  Positivity follows ``strictly_positive``: with the
    margin ``max(cluster_rel_tol * max(w_max, 0), POSITIVITY_ROUNDOFF * max|w|)``
    the eigenvalues of all blocks, with multiplicity, merge where a gap is
    at most the margin, and a merged cluster counts as positive when its
    mean exceeds it.  Returns floats.
    """
    with mp.workdps(dps):
        q, V = mp.eighe(_mp_matrix(pair.sigma))
        X = V.transpose_conj() * _mp_matrix(pair.rho) * V
        Q = mp.diag(q)
        thr = mp.exp(n * mp.mpf(a))
        blocks, spectrum = [], []
        for t in range(n // 2 + 1):
            mult = mp.binomial(n, t) - (mp.binomial(n, t - 1) if t else 0)
            R = mp.det(X) ** t * _mp_sym_power(X, n - 2 * t)
            S = mp.det(Q) ** t * _mp_sym_power(Q, n - 2 * t)
            w, U = mp.eighe(R - thr * S)
            blocks.append((mult, R, S, U))
            spectrum += [(x, len(blocks) - 1, i) for i, x in enumerate(w)]
        spectrum.sort()
        cut = max(
            cluster_rel_tol * max(spectrum[-1][0], 0),
            POSITIVITY_ROUNDOFF * max(abs(x) for x, _, _ in spectrum),
        )
        clusters = [[spectrum[0]]]
        for prev, entry in zip(spectrum, spectrum[1:]):
            if entry[0] - prev[0] > cut:
                clusters.append([])
            clusters[-1].append(entry)
        alpha = beta = mp.mpf(0)
        for cluster in clusters:
            weight = sum(blocks[b][0] for _, b, _ in cluster)
            positive = sum(blocks[b][0] * x for x, b, _ in cluster) / weight > cut
            for _, b, i in cluster:
                mult, R, S, U = blocks[b]
                u = U[:, i]
                if positive:
                    beta += mult * mp.re((u.transpose_conj() * S * u)[0])
                else:
                    alpha += mult * mp.re((u.transpose_conj() * R * u)[0])
        return float(alpha), float(beta)


def pinched_test_errors_mp(pair, n, a, dps=60):
    """alpha and beta of the pinched test {pinch(rho_n) > e^{na} sigma_n}, in mpmath.

    sigma is diagonalized in mpmath.  The n-fold index strings are grouped
    by type (how often each eigenvalue index occurs), and types whose
    weights ``prod_j q_j^{k_j}`` agree to half the working precision share
    one level of sigma_n.  A level's block of ``X^{(x)n}``, ``X = V* rho V``,
    has entries ``prod_i X[s_i, t_i]`` over its strings and is diagonalized
    in mpmath; an eigenvalue w is in the test when ``w > e^{na} q`` strictly,
    with q the level's weight.  alpha sums the eigenvalues left out and beta
    weights each kept one with q.  Returns floats.
    """
    with mp.workdps(dps):
        q, V = mp.eighe(_mp_matrix(pair.sigma))
        X = V.transpose_conj() * _mp_matrix(pair.rho) * V
        types = {}
        for s in itertools.product(range(pair.dim), repeat=n):
            types.setdefault(tuple(sorted(s)), []).append(s)
        weighted = sorted((mp.fprod(q[i] for i in t), strings) for t, strings in types.items())
        levels = [[weighted[0][0], list(weighted[0][1])]]
        for weight, strings in weighted[1:]:
            if weight - levels[-1][0] > mp.mpf(10) ** (-dps // 2) * weight:
                levels.append([weight, []])
            levels[-1][1].extend(strings)
        thr = mp.exp(n * mp.mpf(a))
        alpha = beta = mp.mpf(0)
        for weight, strings in levels:
            block = mp.matrix(len(strings), len(strings))
            for j, s in enumerate(strings):
                for k, t in enumerate(strings):
                    block[j, k] = mp.fprod(X[s[i], t[i]] for i in range(n))
            w, _ = mp.eighe(block)
            for x in w:
                if x > thr * weight:
                    beta += weight
                else:
                    alpha += x
        return float(alpha), float(beta)
