"""Exact finite-n tests, error probabilities and bound reports.

The projection test built from the pinched state commutes with the n-fold
alternative state, so its construction and both error probabilities are
evaluated blockwise in the tensor-product eigenbasis of ``sigma^{(x) n}``
with each threshold formed in log space.  That is identical to projecting
``pinch(rho_n) - e^{na} sigma_n`` onto its positive part in exact
arithmetic, but it stays accurate when ``e^{na}`` spans hundreds of orders
of magnitude, which a dense eigensolve of the difference cannot do.

rho_n has one representation for every finite-n quantity: in sigma's
eigenbasis, as blocks ``(m, R, logs, s)`` whose rows each carry their
sigma_n log-eigenvalue, each block standing for ``m`` equal copies.
:func:`_sweep` alone validates a sweep's blocklengths, checks the budget
``MAX_TENSOR_DIM`` on the number of rows it builds and picks the blocks:
qubit spin blocks, of size at most n + 1, from tables (``Sym^N``, powers
of q, row logs) built once per sweep, else ``M = (V* rho V)^{(x)n}`` as
one block.  :func:`_level_split` clusters the row logs into the levels of
sigma_n (each a union of whole types, so never dependent on the order of
the tensor factors) and cuts the blocks on them, solving only sub-blocks
of two rows or more.  The sub-block eigenvalues with their
multiplicities, one flat :class:`_Spectrum` per n, are the one
representation of the pinched test: :func:`_kept` is its keep rule and
:func:`_pinched_errors` reads the errors of every threshold of one n off
it in one pass.  The key residual of :func:`verify_bounds` (whose rows
:func:`stein_trace` reads, without it) and the plain test
{rho_n > e^{na} sigma_n} of :func:`conjecture_probe` run on the same
blocks.  Multiplicities are exact ints in the blocks and floats in every
array; no sweep expands a block m times.  The plain test stays on the
dense budget.  Every entry point clusters at the fixed
``CLUSTER_REL_TOL``.  No sweep forms a test operator: the dense
:func:`build_pinched_test` (``pinch`` and ``positive_projection``, nothing
of the level path) and :func:`build_plain_test`, with the traces of
:func:`error_probabilities`, are the independent references, for small n,
moderate n a and levels both clustering rules cut alike.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import CLUSTER_REL_TOL
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonHermitianInput,
    RateAboveDivergence,
)
from .exponents import phi, phi_bar, relative_entropy
from .operators import (
    _gap_clusters,
    block_diagonal,
    check_blocklength,
    check_budget,
    check_dense_budget,
    eigendecompose,
    _positivity_margin,
    hermitian_part,
    pinch,
    positive_projection,
    tensor_power,
)
from .pairs import HypothesisPair

# Slack for the Hermitian symmetry and idempotency of a test operator.
PROJ_TOL = 1e-9


@dataclass(frozen=True)
class ErrorProbabilities:
    """First- and second-kind error probabilities of one test."""

    alpha: float
    beta: float
    n: int
    a: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise InvariantViolation("probability", f"{name} = {value!r}")


@dataclass(frozen=True)
class TestOperator:
    """A two-outcome test 0 <= A <= I on the n-fold space.

    Both constructions here produce projections; idempotency within
    ``PROJ_TOL`` is validated at creation, which also pins the spectrum to
    a neighborhood of {0, 1}.
    """

    operator: np.ndarray
    n: int
    a: float

    def __post_init__(self):
        A = self.operator
        if np.abs(A - A.conj().T).max() > PROJ_TOL:
            raise NonHermitianInput("test operator is not Hermitian")
        gap = np.linalg.norm(A @ A - A)
        if gap > PROJ_TOL * max(1.0, np.linalg.norm(A)):
            raise InvariantViolation("projection", f"||A^2 - A|| = {gap:.3e}")

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class BoundReport:
    """Exact errors of the pinched test next to their proven envelopes."""

    n: int
    a: float
    alpha: float
    alpha_bound: float
    beta: float
    beta_bound: float
    key_residual: float
    v_sigma_n: int
    type_bound: int


@dataclass(frozen=True)
class SteinPoint:
    """One blocklength of the vanishing-alpha trace at fixed threshold a."""

    n: int
    a: float
    alpha: float
    alpha_bound: float
    beta: float
    log_beta_rate: float
    log_beta_envelope: float


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    a: float
    alpha: float
    log_alpha_rate: float
    alpha_conjecture: float
    beta: float
    log_beta_rate: float
    beta_conjecture: float


@dataclass(frozen=True)
class ConjectureReport:
    """Plain-test rate table against the plain-exponent targets.

    The comparison columns are the proven rates -phi(a) and -(phi(a)+a)
    (see :func:`conjecture_probe`); nothing here asserts them.
    """

    label: str
    a: float
    phi_value: float
    rows: tuple[ConjectureRow, ...]


@dataclass(frozen=True)
class _Spectrum:
    """The log weights of the sigma_n levels and the spectrum of pinch(rho_n) on them."""

    log_weights: np.ndarray  # shape (v,)
    level: np.ndarray  # for each sub-block eigenvalue: its level,
    w: np.ndarray  # its value, ascending within the level,
    m: np.ndarray  # and the integer multiplicity of its block, as a float


def _digit_logs(eigenvalues) -> np.ndarray:
    """The logs of sigma's eigenvalues, ``-inf`` for a zero one."""
    with np.errstate(divide="ignore"):
        return np.where(eigenvalues > 0.0, np.log(eigenvalues), -np.inf)


def _row_logs(eigenvalues, strings) -> np.ndarray:
    """The sigma_n log-eigenvalue of each index string, a column of ``strings`` (n, k).

    Digit logs are summed in sorted digit order, so the strings of one type
    get bitwise-equal logs, along axis 0 of a C-contiguous gather: one digit
    row at a time (numpy sums an F-ordered one pairwise, which can differ in
    the last bit).  Zero eigenvalues give ``-inf`` logs.
    """
    # stable: the sort kernel of the argsorts below, no other to page in
    strings = np.sort(np.ascontiguousarray(strings), axis=0, kind="stable")
    return _digit_logs(eigenvalues)[strings].sum(axis=0)


def _levels(logs, cluster_rel_tol: float):
    """A stable argsort of the row logs ``logs`` and the size of each level along it.

    A level starts where a log exceeds the first log of the current level
    by more than ``cluster_rel_tol`` (the library passes
    ``CLUSTER_REL_TOL``); ``-inf`` logs form one level.  Over
    :func:`_row_logs` a level is a union of whole types, whatever the order
    of the tensor factors, and over all d^n strings there are v(sigma_n).
    """
    order = np.argsort(logs, kind="stable")
    ranked = logs[order].tolist()
    sizes = []
    start = 0
    for i in range(1, len(ranked) + 1):
        if i == len(ranked) or ranked[i] > ranked[start] + cluster_rel_tol:
            sizes.append(i - start)
            start = i
    return order, sizes


def _level_split(blocks, cluster_rel_tol: float):
    """The :class:`_Spectrum` of the :func:`_sweep` blocks and each block's row levels.

    The blocks' row logs are cut into levels by :func:`_levels`.  A level of
    one type (first and last sorted log equal) weighs that log; any other
    the count-weighted mean ``(x * c).sum() / c.sum()`` of its distinct
    logs x, ascending, with exact int counts c.  Spin blocks and the tensor
    block give the same logs and counts, so the same bits.  A block's rows
    in one level, ordered by log, form a sub-block of pinch(rho_n), solved
    by ``eigh``; a 1 x 1 one, as every qubit level of one weight gives, is
    read off the real diagonal, which is what ``eigh`` returns, bit for
    bit.  The row levels are for :func:`_key_residual`.
    """
    logs = np.concatenate([b[2] for b in blocks])
    order, sizes = _levels(logs, cluster_rel_tol)
    label = np.empty(len(order), dtype=int)
    label[order] = np.repeat(np.arange(len(sizes)), sizes)
    ranked = logs[order]
    ends = np.cumsum(sizes)
    log_weights = ranked[ends - sizes]
    mixed = np.flatnonzero(ranked[ends - 1] != log_weights).tolist()
    # exact int counts, past 2^53 at n = 126; a level is all -inf (singular sigma) or all finite
    counts = [m for m, _, row_logs, _ in blocks for _ in row_logs] if mixed else []
    for k in mixed:
        distinct = {}
        run = slice(ends[k] - sizes[k], ends[k])
        for x, i in zip(ranked[run].tolist(), order[run].tolist()):
            distinct[x] = distinct.get(x, 0) + counts[i]
        x, c = np.array(list(distinct)), np.array(list(distinct.values()), dtype=float)
        log_weights[k] = (x * c).sum() / c.sum()
    lengths = [len(b[2]) for b in blocks]
    first = np.cumsum([0, *lengths])
    levels = np.split(label, first[1:-1])
    block = np.repeat(np.arange(len(blocks), dtype=float), lengths)
    # stable: each block's rows by log, ties in row order, which fixes each sub-block's eigh bits
    rows = np.lexsort((logs, block))
    level = label[rows]
    w = np.concatenate([b[1].diagonal() for b in blocks]).real[rows]
    cuts = np.flatnonzero((np.diff(level) != 0) | (np.diff(block) != 0)) + 1
    bounds = np.concatenate(([0], cuts, [len(rows)]))
    solve = np.flatnonzero(np.diff(bounds) > 1)
    for i, j in zip(bounds[solve].tolist(), bounds[solve + 1].tolist()):
        k = int(block[i])
        idx = rows[i:j] - first[k]
        # eigh, not eigvalsh: the two LAPACK drivers can differ in the last bit
        w[i:j] = np.linalg.eigh(hermitian_part(blocks[k][1][np.ix_(idx, idx)]))[0]
    m = np.repeat([float(b[0]) for b in blocks], lengths)
    # stable, all float: a first int sort or int-float cast pages in 64-128 KiB of numpy
    by_level = np.lexsort((w, np.arange(len(sizes), dtype=float)[level]))
    spectrum = _Spectrum(log_weights, level[by_level], w[by_level], m[by_level])
    return spectrum, levels


def _kept(spectrum, n: int, a_grid) -> np.ndarray:
    """Which entries of ``spectrum`` the pinched test keeps, one row per threshold of ``a_grid``.

    The keep rule: a block eigenvalue w is in the test when it exceeds the
    threshold ``thr = e^{na}`` times its level's weight by the relative
    margin ``w > thr * (1 + CLUSTER_REL_TOL)``, so a level whose eigenvalues
    all sit near thr, as for rho = sigma, keeps nothing.  Above log 2 the
    threshold exceeds the block's norm, at most 1, and nothing is kept.
    Thresholds are scalar ``math.exp``, as numpy's may differ in the last
    bit.
    """
    log_thr = (n * np.asarray(a_grid, dtype=float)[:, None] + spectrum.log_weights).tolist()
    thr = [math.exp(x) if x <= math.log(2.0) else math.inf for row in log_thr for x in row]
    thr = np.array(thr).reshape(len(log_thr), len(spectrum.log_weights))
    return spectrum.w > (thr * (1.0 + CLUSTER_REL_TOL))[:, spectrum.level]


def _pinched_errors(spectrum, n: int, a_grid) -> list[ErrorProbabilities]:
    """alpha and beta of the pinched test at each threshold of ``a_grid``, in one pass.

    alpha sums ``m w`` over the entries left out; beta weights each level's
    kept count (one ``bincount`` for all thresholds) with its sigma_n
    eigenvalue, exact even where a dense trace underflows.
    """
    keep = _kept(spectrum, n, a_grid)
    v = len(spectrum.log_weights)
    labels = spectrum.level + v * np.arange(len(keep))[:, None]
    counts = np.bincount(labels.ravel(), np.where(keep, spectrum.m, 0.0).ravel(), len(keep) * v)
    mw = spectrum.m * spectrum.w
    # the level eigenvalues of sigma_n, 0.0 on its kernel
    weights = [math.exp(lw) for lw in spectrum.log_weights.tolist()]
    errors = []
    for a, kept, row in zip(a_grid, keep, counts.reshape(len(keep), v).tolist()):
        beta = float(sum(q * c for q, c in zip(weights, row) if c))
        errors.append(ErrorProbabilities(alpha=float(mw[~kept].sum()), beta=beta, n=n, a=a))
    return errors


def build_pinched_test(pair: HypothesisPair, n: int, a: float) -> TestOperator:
    """Projection onto the positive part of pinch(rho_n) - e^{na} sigma_n, formed densely.

    The reference for the level path: dense tensor powers, ``pinch`` over
    ``eigendecompose(sigma_n)`` and ``positive_projection``, nothing of
    :func:`_level_split` or :func:`_kept`.  It holds for small n (d^n within
    the dense budget), moderate n a (the eigensolve's roundoff scales with
    ``e^{na} sigma_n``; ``e^{na}`` overflows above n a ~ 709) and sigma_n
    levels both clustering rules cut alike.  ``eigendecompose`` merges
    consecutive gaps up to ``CLUSTER_REL_TOL * ||sigma_n||``, :func:`_levels`
    logs within ``CLUSTER_REL_TOL`` of a level's first: on ``qubit-skewed``
    the first merges the levels below 1e-10 from n = 3 (dense alpha 0.4 %
    off at a = 0.1 D); on sigma = diag(0.5 +- 7.5e-12) it makes one level to
    n = 6, the second two from n = 4, of about four weights each, and alpha
    differs by 2.5e-3 at n = 4, up to 0.14 at n = 5 (a in {0.25, 0.5, 0.9} D).
    """
    a = float(a)
    rho_n = tensor_power(pair.rho, n)  # validates n and the budget first
    sigma_n = tensor_power(pair.sigma, n)
    X = pinch(eigendecompose(sigma_n), rho_n) - math.exp(n * a) * sigma_n
    return TestOperator(operator=positive_projection(X), n=n, a=a)


def build_plain_test(pair: HypothesisPair, n: int, a: float) -> TestOperator:
    """Projection onto the positive part of rho_n - e^{na} sigma_n, unpinched."""
    a = float(a)
    check_dense_budget(pair.dim, check_blocklength(n))
    if n * a > 700.0:
        # e^{na} overflows; the scaled alternative dominates everywhere on
        # its support, which is everything for an invertible pair.
        pair.assert_invertible("plain test with n*a > 700")
        operator = np.zeros((pair.dim**n, pair.dim**n), dtype=complex)
        return TestOperator(operator=operator, n=n, a=a)
    rho_n = tensor_power(pair.rho, n)
    sigma_n = tensor_power(pair.sigma, n)
    X = rho_n - math.exp(n * a) * sigma_n
    return TestOperator(operator=positive_projection(X), n=n, a=a)


def error_probabilities(pair: HypothesisPair, test: TestOperator) -> ErrorProbabilities:
    """alpha = Tr[rho_n (I - A)] and beta = Tr[sigma_n A] for one test, as dense traces."""
    if test.dim != pair.dim**test.n:
        raise DimensionMismatch(f"test dimension {test.dim} != {pair.dim}^{test.n}")
    rho_n = tensor_power(pair.rho, test.n)
    sigma_n = tensor_power(pair.sigma, test.n)
    # Tr[B A] as the elementwise sum of B and A^T: O(D^2), no D x D product
    alpha = np.trace(rho_n) - np.einsum("ij,ji->", rho_n, test.operator)
    beta = np.einsum("ij,ji->", sigma_n, test.operator)
    if max(abs(alpha.imag), abs(beta.imag)) > 1e-12:
        raise ArithmeticError("error probabilities have imaginary residue")
    return ErrorProbabilities(alpha=float(alpha.real), beta=float(beta.real), n=test.n, a=test.a)


def _key_residual(v: int, levels, blocks) -> float:
    """Smallest eigenvalue of ``v pinch(rho_n) - rho_n``, clustered as by ``min_eigenvalue``.

    In sigma's eigenbasis this is ``v blockdiag(M) - M`` over the levels,
    ``M = (V* rho V)^{(x)n}``, with ``v`` levels.  Each row of a block of
    :func:`_sweep` lies in one level, as ``levels`` gives it, so the
    residual is the direct sum of ``v blockdiag(R) - R``, each repeated
    ``m`` times.  Repeats add only zero gaps and leave ``max |w|`` as it
    is, so the clustering rule runs on each eigenvalue once, and the
    smallest cluster's mean weights each eigenvalue by its ``m``.
    """
    w, m = [], []
    for (mult, R, _, _), same in zip(blocks, levels):
        # in place, bit for bit v * block_diagonal(R, same) - R
        B = block_diagonal(R, same)
        B *= v
        B -= R
        w.append(np.linalg.eigvalsh(hermitian_part(B)))
        m.append(np.full(len(R), float(mult)))
    w, m = np.concatenate(w), np.concatenate(m)
    # the stable argsort of _levels: a first use of another numpy sort
    # kernel maps its code pages, about 0.1 MiB of resident memory
    order = np.argsort(w, kind="stable")
    _, sizes, _ = _gap_clusters(w[order])
    bottom = order[: sizes[0]]
    # pairwise as .mean(), so with m = 1 the bits of the unweighted mean
    return float((w[bottom] * m[bottom]).sum() / m[bottom].sum())


def verify_bounds(pair: HypothesisPair, n_range, a_grid) -> list[BoundReport]:
    """Exact errors, envelopes, pinching residual and eigenvalue counts.

    One report per (n, a); the envelopes come from the same phi_bar value
    per threshold, all read off the pair's cached psi_bar grid.  The
    spectrum of each n (:func:`_level_split`) gives the errors of every
    threshold and v(sigma_n), and shares the :func:`_sweep` blocks with
    :func:`_key_residual`; no test operator is built.
    """
    return _bound_reports(pair, n_range, a_grid, key=True)


def _bound_reports(pair: HypothesisPair, n_range, a_grid, key: bool) -> list[BoundReport]:
    """The :func:`verify_bounds` reports; without ``key`` their key residual is nan."""
    sweep = _sweep(pair, n_range)
    a_grid = [float(a) for a in a_grid]
    phis = {a: phi_bar(pair, a)[0] for a in a_grid}
    reports = []
    for n, blocks in sweep:
        spectrum, levels = _level_split(blocks, CLUSTER_REL_TOL)
        v = len(spectrum.log_weights)
        residual = _key_residual(v, levels, blocks) if key else math.nan
        pref = int((n + 1) ** pair.dim)
        for a, ep in zip(a_grid, _pinched_errors(spectrum, n, a_grid)):
            reports.append(
                BoundReport(
                    n=n,
                    a=a,
                    alpha=ep.alpha,
                    alpha_bound=pref * math.exp(-n * phis[a]),
                    beta=ep.beta,
                    beta_bound=pref * math.exp(-n * (phis[a] + a)),
                    key_residual=residual,
                    v_sigma_n=v,
                    type_bound=pref,
                )
            )
    return reports


def _log_rate(x: float, n: int) -> float:
    """``(1/n) log x``, or ``-inf`` where the error x is 0."""
    return math.log(x) / n if x > 0.0 else -math.inf


def stein_trace(pair: HypothesisPair, a: float, n_max: int) -> list[SteinPoint]:
    """Errors of the pinched test for n = 1..n_max at fixed a below D.

    Reports alpha next to its envelope (n+1)^d e^{-n phi_bar(a)}, which
    decays since phi_bar(a) > 0 below the relative entropy, and the beta
    rate (1/n) log beta next to -a + (d/n) log(n+1), read off the
    :func:`verify_bounds` rows at ``a``, whose sweep checks the budget,
    without their key residual.
    """
    n_max = check_blocklength(n_max)
    a = float(a)
    div = relative_entropy(pair)
    if a >= div:
        raise RateAboveDivergence(f"a = {a} is not below D = {div}")
    return [
        SteinPoint(
            n=r.n,
            a=a,
            alpha=r.alpha,
            alpha_bound=r.alpha_bound,
            beta=r.beta,
            log_beta_rate=_log_rate(r.beta, r.n),
            log_beta_envelope=-a + (pair.dim / r.n) * math.log(r.n + 1.0),
        )
        for r in _bound_reports(pair, range(1, n_max + 1), [a], key=False)
    ]


def _running_powers(x, N: int) -> np.ndarray:
    """``[1, x, x^2, ..., x^N]`` as complex running products, never ``x**k``."""
    return np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(N, x))))


def _sym_powers(X: np.ndarray, N: int) -> list:
    """``[Sym^0(X), ..., Sym^N(X)]`` of a 2 x 2 matrix in the normalized Dicke basis.

    Basis vector k of ``Sym^M`` is the normalized symmetric sum of the
    M-qubit strings with k ones, so ``X^{(x)M}`` maps it into the span of
    the others.  Column k is the coefficient vector of
    ``(x00 + x10 z)^{M-k} (x01 + x11 z)^k`` in powers of z, one convolution,
    with entry j rescaled by ``sqrt(C(M,k)/C(M,j))``.  Powers are running
    products (:func:`_running_powers`), whose prefixes are the shorter ones
    bit for bit, so ``Sym^M`` does not depend on N.
    """
    binom = np.array([[math.comb(M, i) for i in range(N + 1)] for M in range(N + 1)], float)
    p00, p10, p01, p11 = (_running_powers(x, N) for x in X.ravel(order="F"))
    j = np.arange(N + 1)
    back = np.maximum(j[:, None] - j, 0)
    # row M: C(M, i) a^(M-i) b^i, the coefficients of (a + b z)^M; zero above the diagonal
    first = binom * p00[back] * p10
    second = binom * p01[back] * p11
    syms = []
    for M in range(N + 1):
        S = np.empty((M + 1, M + 1), dtype=complex)
        for k in range(M + 1):
            S[:, k] = np.convolve(first[M - k, : M - k + 1], second[k, : k + 1])
        row = binom[M, : M + 1]
        syms.append(S * np.sqrt(row[None, :] / row[:, None]))
    return syms


def _weight_logs(q: np.ndarray, N: int) -> np.ndarray:
    """``L[n, w]``, the sigma_n log of a weight-w string at length n, for w <= n <= N.

    Bit for bit :func:`_row_logs`: ``n - w`` copies of ``log q0``, then
    ``w`` of ``log q1``, added one at a time, as row n - w of running sums.
    """
    log0, log1 = _digit_logs(q)
    table = np.full((N + 1, N + 1), log1)
    table[:, 0] = np.cumsum(np.concatenate(([0.0], np.full(N, log0))))
    table = np.cumsum(table, axis=1)
    j = np.arange(N + 1)
    return table[np.maximum(j[:, None] - j, 0), j]


def _spin_blocks(pair: HypothesisPair, n_range):
    """``(n, blocks)`` of a qubit pair for each n of ``n_range``, blocks ``(m, R, logs, s)``.

    ``M = X^{(x)n}``, ``X = V* rho V`` (``pair.rho_in_sigma_basis``), is, by
    a unitary commuting with sigma_n, the direct sum of
    ``R = det(X)^t Sym^{n-2t}(X)``, each repeated
    ``m = C(n,t) - C(n,t-1)`` times.  Row j, weight j + t, has the log
    ``logs[j]`` of the string of that weight and sigma_n eigenvalue
    ``s[j]``, from running products bit for bit the diagonal of
    ``det(Q)^t Sym^{n-2t}(Q)``.  Its tables are built once, at the largest
    n, and sliced for each n.
    """
    n_top = max(n_range, default=0)
    q, _ = pair.sigma_eig
    X = pair.rho_in_sigma_basis
    det_x = complex(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])
    det_q = complex(q[0] * q[1])
    syms = _sym_powers(X, n_top)
    p0, p1 = (_running_powers(x, n_top) for x in q)
    logs = _weight_logs(q, n_top)
    for n in n_range:
        blocks = []
        for t in range(n // 2 + 1):
            N = n - 2 * t
            m = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
            s = (det_q**t * (p0[N::-1] * p1[: N + 1])).real
            blocks.append((m, det_x**t * syms[N], logs[n, t : N + t + 1], s))
        yield n, blocks


def _tensor_block(pair: HypothesisPair, n: int) -> list:
    """``M = (V* rho V)^{(x)n}`` as the one block, its rows the tensor positions in order."""
    M = tensor_power(pair.rho_in_sigma_basis, n)  # validates n and the budget first
    q = pair.sigma_eig[0]
    # np.kron bit for bit, 10x faster
    s = reduce(np.multiply.outer, [q] * n).ravel()
    return [(1, M, _row_logs(q, np.indices((pair.dim,) * n).reshape(n, pair.dim**n)), s)]


def _sweep(pair: HypothesisPair, n_range):
    """``(n, blocks)`` for each n of ``n_range``, built one n at a time.

    On the call, not at the first ``next``, it validates every n and
    checks the budget on the rows the largest builds, the length of its
    spectrum: the d^n rows of :func:`_tensor_block`, or for a qubit the
    ``(n + 2)**2 // 4`` rows of :func:`_spin_blocks`.
    """
    n_range = [check_blocklength(n) for n in n_range]
    n_top = max(n_range, default=0)
    if pair.dim != 2:
        check_dense_budget(pair.dim, n_top)
        return ((n, _tensor_block(pair, n)) for n in n_range)
    # sum_t (n - 2t + 1) rows
    rows = (n_top + 2) ** 2 // 4
    check_budget(rows, f"spectrum length {rows} (spin blocks at n = {n_top})")
    return _spin_blocks(pair, n_range)


def _plain_errors(pair: HypothesisPair, n: int, a: float, blocks) -> ErrorProbabilities:
    """Errors of the plain test {rho_n > e^{na} sigma_n} from the :func:`_sweep` blocks.

    ``rho_n - e^{na} sigma_n`` is unitarily the direct sum of the blocks
    ``R - e^{na} diag(s)``, each repeated ``m`` times.  An eigenvalue is
    kept by the rule of :func:`strictly_positive` applied to all d^n of
    them, so up to roundoff the test is that of :func:`build_plain_test`;
    repeats add only zero gaps, so it runs on each block eigenvalue once,
    weighted by its ``m`` in the cluster means.  ``alpha`` sums ``u* R u``
    over the eigenvectors u left out and ``beta`` sums ``s |u|^2`` over
    those kept, each weighted by ``m``.
    """
    if n * a > 700.0:
        # as in build_plain_test: e^{na} overflows and the test is empty
        pair.assert_invertible("plain test with n*a > 700")
        alpha = sum(m * np.trace(R).real for m, R, _, _ in blocks)
        return ErrorProbabilities(alpha=float(alpha), beta=0.0, n=n, a=a)
    thr = math.exp(n * a)
    eigs = [np.linalg.eigh(hermitian_part(R - thr * np.diag(s))) for _, R, _, s in blocks]
    spectrum = np.concatenate([w for w, _ in eigs])
    copies = np.repeat([float(b[0]) for b in blocks], [len(b[3]) for b in blocks])
    order = np.argsort(spectrum, kind="stable")
    spectrum, copies = spectrum[order], copies[order]
    margin = _positivity_margin(spectrum)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(spectrum) > margin) + 1))
    means = np.add.reduceat(spectrum * copies, starts) / np.add.reduceat(copies, starts)
    # kept clusters are a top segment of the sorted spectrum, so the test
    # keeps exactly the eigenvalues from the smallest kept one up
    kept = np.flatnonzero(means > margin)
    cut = spectrum[starts[kept[0]]] if kept.size else math.inf
    alpha = beta = 0.0
    for (m, R, _, s), (w, U) in zip(blocks, eigs):
        kept = w >= cut
        out = U[:, ~kept]
        # two operands: a three-operand einsum runs as a naive loop
        alpha += m * float(np.einsum("ki,ki->", out.conj(), R @ out).real)
        beta += m * float((s @ np.abs(U[:, kept]) ** 2).sum())
    return ErrorProbabilities(alpha=alpha, beta=beta, n=n, a=a)


def conjecture_probe(pair: HypothesisPair, n_range, a: float) -> ConjectureReport:
    """Rate table for the plain test against the plain-exponent bounds.

    The targets are theorems: for P = {rho_n > e^{na} sigma_n}, Audenaert
    et al., PRL 98, 160501 (2007), give alpha_n <= e^{-n phi(a)} and
    beta_n <= e^{-n(phi(a)+a)} at every n, with no prefactor.  The report
    keeps its EXPERIMENTAL label and asserts nothing.

    The errors are those of :func:`_plain_errors` on the :func:`_sweep`
    blocks of each n; no test operator is built.  The range is held to the
    dense budget, d^n.
    """
    n_range = [check_blocklength(n) for n in n_range]
    check_dense_budget(pair.dim, max(n_range, default=0))
    sweep = _sweep(pair, n_range)
    a = float(a)
    value, _ = phi(pair, a)
    rows = []
    for n, blocks in sweep:
        ep = _plain_errors(pair, n, a, blocks)
        rows.append(
            ConjectureRow(
                n=n,
                a=a,
                alpha=ep.alpha,
                log_alpha_rate=_log_rate(ep.alpha, n),
                alpha_conjecture=-value,
                beta=ep.beta,
                log_beta_rate=_log_rate(ep.beta, n),
                beta_conjecture=-(value + a),
            )
        )
    return ConjectureReport(
        label="EXPERIMENTAL", a=a, phi_value=value, rows=tuple(rows)
    )
