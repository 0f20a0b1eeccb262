"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library: scalar eigenvalue-weight sums (psi) and dense matrix-power
products (psi_bar) evaluated in mpmath for the exponent functions and their
finite differences, the kernel's value and derivatives at one s from
complex sums over the terms, brute-force grid scans for the one-dimensional
maximizations, the rate-parameter bisection with every probe run in full
on a grid built for the one call, qubit plain-test errors from spin blocks whose entries
are string-pair counts, plain-test errors of any dimension from a dense
eigensolve of ``rho_n - e^{na} sigma_n``, and pinched-test errors from the
sigma_n levels of the index types, all diagonalized in mpmath.

The pinched test's keep rule and error sums over levels that hold their
spectrum repeated once per copy of its block, with one prefix sum per
level, are the per-level loop that ``qht.finite_n`` replaced by one pass
over its flat spectrum with multiplicities, kept as its reference.  So are
the finite-n constructions it replaced by per-sweep tables and one-step
reads: the level split that solves every sub-block by its own ``eigh``
(with the pinched test assembled from its eigenvectors, as
``build_pinched_test`` did before it became a dense reference of its own),
the qubit spin blocks with ``Sym^N`` and the powers of q rebuilt per N
and per n and their row logs summed over weight strings, and the plain
test's keep rule over the block spectra repeated to all d^n eigenvalues.

The table writers at the end are the cell-by-cell CSV writer, with text
cells quoted by the ``csv`` module, and the ``json.dumps(indent=2)`` JSON
writer that ``qht.serialization`` replaced, kept as the byte-for-byte
reference for its column-wise writers, with the per-sample curve payload
the command line used to build.
"""

import csv
import dataclasses
import io
import itertools
import json
import math

import mpmath as mp
import numpy as np

from qht import finite_n
from qht.config import CLUSTER_REL_TOL, POSITIVITY_ROUNDOFF
from qht.exponents import _IMAG_RESIDUE, _psi_bar_terms, _Scan, relative_entropy
from qht.finite_n import (
    ErrorProbabilities,
    TestOperator,
    _levels,
    _row_logs,
    _running_powers,
    _Spectrum,
    _tensor_block,
)
from qht.operators import hermitian_part, strictly_positive, tensor_power


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


def complex_sum_point(terms, s, name):
    """The kernel value E and its s-derivatives E', E'' at one s, from complex sums.

    ``qht.exponents._Scan.point`` as it was before its moment table: the
    moments ``sum_k c_k r_k^j e^{s r_k}`` are summed in complex arithmetic.
    """
    c, r = terms
    w = c * np.exp(s * r)
    wr = w * r
    moments = (w.sum(), wr.sum(), wr @ r)
    for m in moments:
        if abs(m.imag) > _IMAG_RESIDUE * (1.0 + abs(m.real)):
            worst = max(abs(x.imag) for x in moments)
            raise ArithmeticError(f"{name} trace: imaginary residue {worst:.3e} too large")
    m0, m1, m2 = (float(m.real) for m in moments)
    if m0 <= 0.0:
        raise ArithmeticError(f"{name} trace is not positive")
    d1 = -m1 / m0
    return -math.log(m0), d1, d1 * d1 - m2 / m0


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


class ReferenceBracketFailure(ArithmeticError):
    """The reference bisection could not bracket the requested value."""


def reference_rate_parameter(pair, r):
    """a_r with phi_bar(a_r) = r, bisected on an uncached psi_bar grid.

    The bracket-and-bisect root search that ``solve_rate_parameter`` ran
    before it read a_r off the rate objective's maximum: every probe takes
    the full Newton refinement, and the bracket narrows to width 1e-11.
    """
    transform = _Scan(_psi_bar_terms(pair), "psi_bar").transform

    def value(a):
        return transform(a)[0]

    a_hi = relative_entropy(pair) + 1.0
    step = 1.0
    while value(a_hi) > r:
        a_hi += step
        step *= 2.0
        if a_hi > 1e6:
            raise ReferenceBracketFailure("upper bracket exceeded 1e6")
    a_lo = -1.0
    while value(a_lo) < r:
        a_lo *= 2.0
        if a_lo < -1e6:
            raise ReferenceBracketFailure("lower bracket exceeded -1e6")
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


def _mp_positive(spectrum, cluster_rel_tol):
    """Split eigenvalues by the rule of ``strictly_positive``, in mpmath.

    ``spectrum`` holds ``(w, mult, key)`` entries, eigenvalue w with
    multiplicity mult.  With the margin
    ``max(cluster_rel_tol * max(w_max, 0), POSITIVITY_ROUNDOFF * max|w|)``
    the sorted eigenvalues merge where a gap is at most the margin, and a
    merged cluster counts as positive when its mean, with multiplicities,
    exceeds it.  Yields ``(positive, mult, key)``.
    """
    spectrum = sorted(spectrum, key=lambda entry: entry[0])
    cut = max(
        cluster_rel_tol * max(spectrum[-1][0], 0),
        POSITIVITY_ROUNDOFF * max(abs(x) for x, _, _ in spectrum),
    )
    clusters = [[spectrum[0]]]
    for prev, entry in zip(spectrum, spectrum[1:]):
        if entry[0] - prev[0] > cut:
            clusters.append([])
        clusters[-1].append(entry)
    for cluster in clusters:
        weight = sum(m for _, m, _ in cluster)
        positive = sum(m * x for x, m, _ in cluster) / weight > cut
        for _, m, key in cluster:
            yield positive, m, key


def _mp_errors(spectrum, cluster_rel_tol):
    """alpha and beta from ``(w, mult, (A, B, u))`` entries, as floats.

    alpha sums ``mult * u* A u`` over the eigenvectors u left out and beta
    ``mult * u* B u`` over those kept (:func:`_mp_positive`).
    """
    alpha = beta = mp.mpf(0)
    for positive, mult, (A, B, u) in _mp_positive(spectrum, cluster_rel_tol):
        if positive:
            beta += mult * mp.re((u.transpose_conj() * B * u)[0])
        else:
            alpha += mult * mp.re((u.transpose_conj() * A * u)[0])
    return float(alpha), float(beta)


def plain_test_errors_mp(pair, n, a, cluster_rel_tol=1e-10, dps=30):
    """alpha and beta of {rho_n > e^{na} sigma_n} for a qubit pair, in mpmath.

    sigma is diagonalized in mpmath, and ``rho_n - e^{na} sigma_n`` is split
    into the blocks ``det(X)^t Sym^{n-2t}(X) - e^{na} det(Q)^t Sym^{n-2t}(Q)``
    of multiplicity ``C(n,t) - C(n,t-1)``, with ``X = V* rho V`` and
    ``Q = diag(q)``.  Positivity over the eigenvalues of all blocks, with
    multiplicity, follows ``strictly_positive`` (:func:`_mp_positive`).
    Returns floats.
    """
    with mp.workdps(dps):
        q, V = mp.eighe(_mp_matrix(pair.sigma))
        X = V.transpose_conj() * _mp_matrix(pair.rho) * V
        Q = mp.diag(q)
        thr = mp.exp(n * mp.mpf(a))
        spectrum = []
        for t in range(n // 2 + 1):
            mult = mp.binomial(n, t) - (mp.binomial(n, t - 1) if t else 0)
            R = mp.det(X) ** t * _mp_sym_power(X, n - 2 * t)
            S = mp.det(Q) ** t * _mp_sym_power(Q, n - 2 * t)
            w, U = mp.eighe(R - thr * S)
            spectrum += [(x, mult, (R, S, U[:, i])) for i, x in enumerate(w)]
        return _mp_errors(spectrum, cluster_rel_tol)


def _mp_kron(A, B):
    K = mp.matrix(A.rows * B.rows, A.cols * B.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            for k in range(B.rows):
                for l in range(B.cols):
                    K[i * B.rows + k, j * B.cols + l] = A[i, j] * B[k, l]
    return K


def dense_plain_test_errors_mp(pair, n, a, cluster_rel_tol=1e-10, dps=50):
    """alpha and beta of {rho_n > e^{na} sigma_n} for a pair of any dimension, in mpmath.

    ``rho_n`` and ``sigma_n`` are Kronecker powers formed in mpmath, and
    ``rho_n - e^{na} sigma_n`` is diagonalized densely, without sigma's
    eigenbasis or any block structure.  Positivity follows
    ``strictly_positive`` (:func:`_mp_positive`).  Returns floats.
    """
    with mp.workdps(dps):
        rho, sigma = _mp_matrix(pair.rho), _mp_matrix(pair.sigma)
        rho_n, sigma_n = rho, sigma
        for _ in range(n - 1):
            rho_n, sigma_n = _mp_kron(rho_n, rho), _mp_kron(sigma_n, sigma)
        w, U = mp.eighe(rho_n - mp.exp(n * mp.mpf(a)) * sigma_n)
        spectrum = [(x, 1, (rho_n, sigma_n, U[:, i])) for i, x in enumerate(w)]
        return _mp_errors(spectrum, cluster_rel_tol)


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


# The pinched test over repeated level spectra, as qht.finite_n had it.


@dataclasses.dataclass(frozen=True)
class _Level:
    log_weight: float
    eigenvalues: np.ndarray  # ascending, with multiplicities


def repeated_levels(spectrum):
    """The levels of a flat ``finite_n._Spectrum``, each eigenvalue repeated its multiplicity."""
    levels = []
    for k, log_weight in enumerate(spectrum.log_weights.tolist()):
        at = spectrum.level == k
        levels.append(_Level(log_weight, np.repeat(spectrum.w[at], spectrum.m[at].astype(int))))
    return levels


def _kept(level: _Level, n: int, a: float, cluster_rel_tol: float) -> int:
    """Where the pinched test at threshold ``a`` starts in a level's block spectrum.

    The keep rule: a block eigenvalue w is in the test when it exceeds the
    threshold ``thr = e^{na}`` times the level's weight by the relative
    margin ``w > thr * (1 + cluster_rel_tol)``, so a level whose
    eigenvalues all sit near thr, as for rho = sigma, keeps nothing.  The
    spectrum ascends, so the kept eigenvalues are ``eigenvalues[cut:]``
    for the returned cut.  Above log 2 the threshold exceeds the block's
    norm, at most 1, and nothing is kept.
    """
    w = level.eigenvalues
    log_thr = n * a + level.log_weight
    if log_thr > math.log(2.0):
        return len(w)
    thr = math.exp(log_thr)
    return len(w) - int(np.count_nonzero(w > thr * (1.0 + cluster_rel_tol)))


def _pinched_errors(levels, n: int, a: float, cluster_rel_tol: float) -> ErrorProbabilities:
    """alpha and beta of the pinched test at threshold ``a`` from the levels.

    alpha sums the block eigenvalues left out; beta weights each kept
    direction with its sigma_n eigenvalue, exact even where a dense trace
    underflows.
    """
    cuts = [_kept(lev, n, a, cluster_rel_tol) for lev in levels]
    alpha = sum(float(lev.eigenvalues[:cut].sum()) for lev, cut in zip(levels, cuts))
    beta = sum(
        math.exp(lev.log_weight) * (len(lev.eigenvalues) - cut)
        for lev, cut in zip(levels, cuts)
        if cut < len(lev.eigenvalues) and math.isfinite(lev.log_weight)
    )
    return ErrorProbabilities(alpha=alpha, beta=float(beta), n=n, a=a)


def level_kept_counts(levels, n, a, cluster_rel_tol):
    """How many eigenvalues, with multiplicity, each level keeps at threshold ``a``."""
    return [len(lev.eigenvalues) - _kept(lev, n, a, cluster_rel_tol) for lev in levels]


# The finite-n constructions of per-sub-block, per-N and per-repeat work,
# as qht.finite_n had them.


def level_split(blocks, cluster_rel_tol):
    """``(spectrum, levels, vectors)`` of the sweep blocks, each sub-block solved by ``eigh``.

    Every level's log weight comes from a dict of its distinct logs with
    exact int counts; every sub-block, one row or more, is gathered and
    solved on its own, and its rows and eigenvectors kept.
    """
    logs = np.concatenate([b[2] for b in blocks])
    order, sizes = _levels(logs, cluster_rel_tol)
    label = np.empty(len(order), dtype=int)
    label[order] = np.repeat(np.arange(len(sizes)), sizes)
    ends = np.cumsum(sizes)[:-1].tolist()
    counts = [m for m, _, row_logs, _ in blocks for _ in row_logs]
    ranked = list(zip(logs[order].tolist(), [counts[i] for i in order.tolist()]))
    log_weights = []
    for start, end in zip([0, *ends], [*ends, len(ranked)]):
        distinct = {}
        for x, c in ranked[start:end]:
            distinct[x] = distinct.get(x, 0) + c
        x, c = np.array(list(distinct)), np.array(list(distinct.values()), dtype=float)
        log_weights.append(x[0] if len(x) == 1 else (x * c).sum() / c.sum())
    levels = np.split(label, np.cumsum([len(b[2]) for b in blocks])[:-1])
    level, m, w, vectors = [], [], [], []
    for (mult, R, row_logs, _), same in zip(blocks, levels):
        local = np.argsort(row_logs, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(same[local])) + 1).tolist(), len(local)]
        for idx in (local[i:j] for i, j in zip(cuts, cuts[1:])):
            values, U = np.linalg.eigh(hermitian_part(R[np.ix_(idx, idx)]))
            level.append(same[idx])
            m.append(np.full(len(idx), float(mult)))
            w.append(values)
            vectors.append((idx, U))
    level, m, w = (np.concatenate(x) for x in (level, m, w))
    by_level = np.lexsort((w, np.arange(len(sizes), dtype=float)[level]))
    spectrum = _Spectrum(np.array(log_weights), level[by_level], w[by_level], m[by_level])
    return spectrum, levels, vectors


def level_pinched_test(pair, n, a):
    """The pinched test ``W W*`` from the kept eigenvectors of :func:`level_split`.

    W holds, for each sigma_n level of ``M = (V* rho V)^{(x)n}`` (one
    sub-block each), the top eigenvectors its keep rule takes, in the
    columns of ``V^{(x)n}``.  The levels are the log-levels of the sweeps,
    so the test holds where ``eigendecompose(sigma_n)`` would merge them.
    """
    spectrum, _, vectors = level_split(_tensor_block(pair, n), CLUSTER_REL_TOL)
    (keep,) = finite_n._kept(spectrum, n, [a])
    kept = np.bincount(spectrum.level[keep], minlength=len(vectors)).tolist()
    Vn = tensor_power(pair.sigma_eig[1], n)
    W = np.hstack([Vn[:, idx] @ U[:, len(U) - k :] for (idx, U), k in zip(vectors, kept)])
    return TestOperator(operator=W @ W.conj().T, n=n, a=a)


def sym_power(X, N):
    """``Sym^N(X)`` column by column, from running powers and a binomial table of its own."""
    binom = np.array([[math.comb(m, i) for i in range(N + 1)] for m in range(N + 1)], float)
    p00, p10, p01, p11 = (_running_powers(x, N) for x in X.ravel(order="F"))
    S = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        first = binom[N - k, : N - k + 1] * p00[N - k :: -1] * p10[: N - k + 1]
        second = binom[k, : k + 1] * p01[k::-1] * p11[: k + 1]
        S[:, k] = np.convolve(first, second)
    row = binom[N, : N + 1]
    return S * np.sqrt(row[None, :] / row[:, None])


def spin_blocks(pair, n):
    """The qubit spin blocks ``(m, R, logs, s)`` at n, every table built for this n alone."""
    q, _ = pair.sigma_eig
    X = pair.rho_in_sigma_basis
    det_x = complex(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])
    det_q = complex(q[0] * q[1])
    p0, p1 = (_running_powers(x, n) for x in q)
    logs = _row_logs(q, np.triu(np.ones((n, n + 1), dtype=int), 1))
    blocks = []
    for t in range(n // 2 + 1):
        N = n - 2 * t
        m = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
        s = (det_q**t * (p0[N::-1] * p1[: N + 1])).real
        blocks.append((m, det_x**t * sym_power(X, N), logs[t : N + t + 1], s))
    return blocks


def plain_errors(pair, n, a, blocks):
    """The plain test's errors with ``strictly_positive`` on the d^n repeated eigenvalues."""
    if n * a > 700.0:
        pair.assert_invertible("plain test with n*a > 700")
        alpha = sum(m * np.trace(R).real for m, R, _, _ in blocks)
        return ErrorProbabilities(alpha=float(alpha), beta=0.0, n=n, a=a)
    thr = math.exp(n * a)
    eigs = [np.linalg.eigh(hermitian_part(R - thr * np.diag(s))) for _, R, _, s in blocks]
    spectrum = np.sort(
        np.concatenate([np.repeat(w, m) for (m, *_), (w, _) in zip(blocks, eigs)])
    )
    kept_values = spectrum[strictly_positive(spectrum)]
    cut = kept_values[0] if kept_values.size else math.inf
    alpha = beta = 0.0
    for (m, R, _, s), (w, U) in zip(blocks, eigs):
        kept = w >= cut
        out = U[:, ~kept]
        alpha += m * float(np.einsum("ki,ki->", out.conj(), R @ out).real)
        beta += m * float((s @ np.abs(U[:, kept]) ** 2).sum())
    return ErrorProbabilities(alpha=alpha, beta=beta, n=n, a=a)


# Table writers, as qht.serialization and qht.cli had them.


def _text(x: str) -> str:
    """A text cell as the csv module writes it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf).writerow([x, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return _text(x)
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def _jnum(x):
    # strict JSON has no Infinity or NaN literal
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "-inf" if x < 0 else "inf"


def _cells(row, names):
    if dataclasses.is_dataclass(row):
        return [getattr(row, name) for name in names]
    if isinstance(row, dict):
        return [row[name] for name in names]
    return list(row)


def table_to_csv(columns, rows) -> str:
    """CSV table: a header line, then one line per row.

    ``columns`` is a record dataclass, whose field names in order are the
    header, or a sequence of column names.  A row is a record, a dict keyed
    by the column names or a sequence in column order.
    """
    if dataclasses.is_dataclass(columns):
        columns = [f.name for f in dataclasses.fields(columns)]
    lines = [",".join(columns)]
    for row in rows:
        cells = _cells(row, columns)
        lines.append(",".join(str(x) if isinstance(x, int) else _fmt(x) for x in cells))
    return "\n".join(lines) + "\n"


def _plain(obj):
    if isinstance(obj, float):
        return _jnum(obj)
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def payload_to_json(obj) -> str:
    """Indented JSON of records (as field dicts), dicts, lists and scalars."""
    return json.dumps(_plain(obj), indent=2) + "\n"


_SAMPLE_COLUMNS = ("param", "value", "argmax_s")


def _curve_payload(parameter_name, params, values, argmax_s) -> dict:
    """A curve as its parameter name and one sample dict per grid point."""
    argmax = [None] * len(params) if argmax_s is None else argmax_s
    rows = zip(params, values, argmax)
    samples = [dict(zip(_SAMPLE_COLUMNS, row)) for row in rows]
    return {"parameter_name": parameter_name, "samples": samples}
