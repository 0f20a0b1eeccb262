"""Exact finite-n tests, error probabilities and bound reports.

The projection test built from the pinched state commutes with the n-fold
alternative state, so its construction and both error probabilities are
evaluated blockwise in the tensor-product eigenbasis of ``sigma^{(x) n}``
with each threshold formed in log space.  That is identical to projecting
``pinch(rho_n) - e^{na} sigma_n`` onto its positive part in exact
arithmetic, but it stays accurate when ``e^{na}`` spans hundreds of orders
of magnitude, which a dense eigensolve of the difference cannot do.

The levels of ``sigma_n`` (its eigenvalues grouped by their log), each
with its tensor-product positions and the eigenpairs of its block of
rho_n, are the one representation of the pinched test: :func:`_kept`
keeps the block eigenvalues above the level's threshold by a relative
margin, a top segment of each block spectrum, and the errors
(:func:`_pinched_errors`), v(sigma_n) and the key residual are sums and
blocks over the levels, derived once per n.  Each level's block is built
from its positions alone, so the n-fold rho_n is never formed for them.
Only :func:`build_pinched_test` forms the dense operator.  Every entry
point reads its clustering tolerance from ``pair.tol`` and checks the
dense budget ``MAX_TENSOR_DIM`` for the largest n it is asked for before
any work.

Qubits use the Schur-Weyl decomposition of the n-fold space:
``A^{(x)n}`` of a 2 x 2 matrix is unitarily the direct sum of the spin
blocks ``det(A)^t Sym^{n-2t}(A)``, each of size at most n + 1 and repeated
``C(n,t) - C(n,t-1)`` times, by the same unitary for every A.  The key
residual of :func:`verify_bounds` and the plain test
{rho_n > e^{na} sigma_n} of :func:`conjecture_probe` are evaluated on
these blocks, with each ``Sym^N`` built once per call, so the qubit paths
form no d^n x d^n matrix.  Other dimensions form ``(V* rho V)^{(x)n}`` for
the key residual and use the dense :func:`build_plain_test`, which stays
the independent cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ToleranceConfig
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonHermitianInput,
    RateAboveDivergence,
)
from .exponents import _pair_transform, phi, phi_bar, relative_entropy
from .operators import (
    _gap_clusters,
    block_diagonal,
    check_dense_budget,
    hermitian_part,
    min_eigenvalue,
    positive_projection,
    strictly_positive,
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
    a neighborhood of {0, 1}.  ``errors`` holds the exact errors of a
    pinched test, read off its sigma_n levels, and is None for a test
    whose errors are dense traces.
    """

    operator: np.ndarray
    n: int
    a: float
    errors: ErrorProbabilities | None = None

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
class _Level:
    log_weight: float
    positions: np.ndarray  # tensor-product indices of the level's basis vectors
    eigenvalues: np.ndarray  # ascending
    vectors: np.ndarray  # k x k block eigenvectors over those positions


def _log_levels(eigenvalues, n: int, cluster_rel_tol: float):
    """Levels of the n-fold products of ``eigenvalues``, grouped by their log.

    Returns ``(logq, order, sizes)``: the logs of all ``len(eigenvalues)**n``
    products in tensor-product index order, a stable argsort of them, and
    the number of consecutive ``order`` entries in each level.  A level
    starts where a log exceeds the first log of the current level by more
    than ``cluster_rel_tol``; zero eigenvalues give ``-inf`` logs, which
    form one level.  ``len(sizes)`` is the eigenvalue count v(sigma_n).
    """
    with np.errstate(divide="ignore"):
        loglam = np.where(eigenvalues > 0.0, np.log(eigenvalues), -np.inf)
    logq = np.zeros(1)
    for _ in range(n):
        logq = (logq[:, None] + loglam[None, :]).ravel()
    order = np.argsort(logq, kind="stable")
    ranked = logq[order].tolist()
    sizes = []
    start = 0
    for i in range(1, len(ranked) + 1):
        if i == len(ranked) or ranked[i] > ranked[start] + cluster_rel_tol:
            sizes.append(i - start)
            start = i
    return logq, order, sizes


def _sigma_basis(pair: HypothesisPair):
    """``X = V* rho V`` and ``Q = diag(q)``: rho and sigma in sigma's eigenbasis."""
    q, V = pair.sigma_eig
    return V.conj().T @ pair.rho @ V, np.diag(q).astype(complex)


def _tensor_block(X: np.ndarray, n: int, positions: np.ndarray) -> np.ndarray:
    """Rows and columns ``positions`` of ``X^{(x)n}``, without forming it.

    Entry (i, j) is the running product over the n tensor factors, most
    significant first, of X at the digits of positions i and j.  That is the
    order in which :func:`tensor_power` multiplies, so the block equals the
    slice of ``tensor_power(X, n)`` bit for bit.
    """
    block = np.ones((len(positions), len(positions)), dtype=complex)
    for digits in np.unravel_index(positions, (len(X),) * n):
        # np.multiply, not ``*``: numpy may reuse the temporary right operand
        # of ``*`` and swap the factors, and its fused complex multiply
        # rounds X * block differently from block * X
        block = np.multiply(block, X[np.ix_(digits, digits)])
    return block


def _level_data(pair: HypothesisPair, n: int) -> list[_Level]:
    """Eigenvalue levels of sigma_n with the diagonalized blocks of pinch(rho_n).

    The levels are those of :func:`_log_levels` at the pair's
    ``cluster_rel_tol``, so numerically coincident eigenvalue products
    always share one.  Per level it returns its log weight, its positions
    (the columns of ``V^{(x)n}`` it spans) and the eigenpairs of its block
    of ``M = (V* rho V)^{(x)n}``, rho_n in sigma's eigenbasis.  Each block
    is built from its positions alone (:func:`_tensor_block`), so ``M`` is
    never formed and the blocks equal its slices bit for bit.  The dimension
    budget is checked before any work; nothing is cached.
    """
    check_dense_budget(pair.dim, n)
    logq, order, sizes = _log_levels(pair.sigma_eig[0], n, pair.tol.cluster_rel_tol)
    X, _ = _sigma_basis(pair)
    levels = []
    start = 0
    for size in sizes:
        positions = order[start : start + size]
        w, U = np.linalg.eigh(hermitian_part(_tensor_block(X, n, positions)))
        # a level is all -inf (singular sigma) or all finite
        levels.append(_Level(float(logq[positions].mean()), positions, w, U))
        start += size
    return levels


def _kept(level: _Level, n: int, a: float, tol: ToleranceConfig) -> int:
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
    return len(w) - int(np.count_nonzero(w > thr * (1.0 + tol.cluster_rel_tol)))


def _pinched_errors(levels, n: int, a: float, tol: ToleranceConfig) -> ErrorProbabilities:
    """alpha and beta of the pinched test at threshold ``a`` from the levels.

    alpha sums the block eigenvalues left out; beta weights each kept
    direction with its sigma_n eigenvalue, exact even where a dense trace
    underflows.
    """
    cuts = [_kept(lev, n, a, tol) for lev in levels]
    alpha = sum(float(lev.eigenvalues[:cut].sum()) for lev, cut in zip(levels, cuts))
    beta = sum(
        math.exp(lev.log_weight) * (len(lev.eigenvalues) - cut)
        for lev, cut in zip(levels, cuts)
        if cut < len(lev.eigenvalues) and math.isfinite(lev.log_weight)
    )
    return ErrorProbabilities(alpha=alpha, beta=float(beta), n=n, a=a)


def build_pinched_test(pair: HypothesisPair, n: int, a: float) -> TestOperator:
    """Projection onto the positive part of pinch(rho_n) - e^{na} sigma_n.

    Within each sigma_n eigenvalue level the difference is the pinched
    block minus a scalar threshold, so the positive part is read off the
    block spectrum by the keep rule of :func:`_kept`: block eigenvalues
    within a relative margin of the threshold stay outside, matching the
    strict inequality of the positive projection.  The operator is ``W W*``
    with W the kept block eigenvectors in the columns of ``V^{(x)n}``, so
    it commutes with sigma_n by construction; its ``errors`` are the level
    sums of :func:`_pinched_errors`.
    """
    a = float(a)
    levels = _level_data(pair, n)
    Vn = tensor_power(pair.sigma_eig[1], n)
    # contiguous copies of the kept vectors: matmul rounds a strided operand
    # differently, and verify prints roundoff-level residuals of this test
    W = np.hstack([
        Vn[:, lev.positions] @ lev.vectors[:, _kept(lev, n, a, pair.tol) :].copy()
        for lev in levels
    ])
    errors = _pinched_errors(levels, n, a, pair.tol)
    return TestOperator(operator=W @ W.conj().T, n=n, a=a, errors=errors)


def build_plain_test(pair: HypothesisPair, n: int, a: float) -> TestOperator:
    """Projection onto the positive part of rho_n - e^{na} sigma_n, unpinched."""
    a = float(a)
    check_dense_budget(pair.dim, n)
    if n * a > 700.0:
        # e^{na} overflows; the scaled alternative dominates everywhere on
        # its support, which is everything for an invertible pair.
        pair.assert_invertible("plain test with n*a > 700")
        operator = np.zeros((pair.dim**n, pair.dim**n), dtype=complex)
        return TestOperator(operator=operator, n=n, a=a)
    rho_n = tensor_power(pair.rho, n)
    sigma_n = tensor_power(pair.sigma, n)
    X = rho_n - math.exp(n * a) * sigma_n
    return TestOperator(operator=positive_projection(X, pair.tol), n=n, a=a)


def error_probabilities(pair: HypothesisPair, test: TestOperator) -> ErrorProbabilities:
    """alpha = Tr[rho_n (I - A)] and beta = Tr[sigma_n A] for one test.

    A test that carries its ``errors`` (a pinched test, whose errors are
    the level sums threshold sweeps use) returns them as they are; other
    tests are evaluated by dense traces.
    """
    if test.dim != pair.dim**test.n:
        raise DimensionMismatch(
            f"test dimension {test.dim} != {pair.dim}^{test.n}"
        )
    if test.errors is not None:
        return test.errors
    rho_n = tensor_power(pair.rho, test.n)
    sigma_n = tensor_power(pair.sigma, test.n)
    # Tr[B A] as the elementwise sum of B and A^T: O(D^2), no D x D product
    alpha = np.trace(rho_n) - np.einsum("ij,ji->", rho_n, test.operator)
    beta = np.einsum("ij,ji->", sigma_n, test.operator)
    if max(abs(alpha.imag), abs(beta.imag)) > 1e-12:
        raise ArithmeticError("error probabilities have imaginary residue")
    return ErrorProbabilities(
        alpha=float(alpha.real), beta=float(beta.real), n=test.n, a=test.a
    )


def _weight_levels(levels, n: int):
    """The level of each Hamming weight k = 0..n of a qubit sigma_n's positions.

    None when the strings of one weight lie in two levels, which only a
    level boundary within roundoff of that weight's log weight can cause.
    """
    label = np.full(n + 1, -1)
    for i, lev in enumerate(levels):
        weights = sum(np.unravel_index(lev.positions, (2,) * n))
        if (label[weights] >= 0).any():
            return None
        label[weights] = i
    return label


def _key_residual(pair: HypothesisPair, n: int, levels, syms) -> float:
    """Smallest eigenvalue of ``v pinch(rho_n) - rho_n``, clustered as by :func:`min_eigenvalue`.

    In sigma's eigenbasis this is ``v blockdiag(M) - M`` over the levels, with
    ``M = (V* rho V)^{(x)n}``.  For a qubit pair whose levels are unions of
    Hamming weights it is unitarily the direct sum over t of
    ``v blockdiag(R_t) - R_t``, each repeated ``m_t`` times, with ``R_t`` the
    spin blocks of :func:`_spin_blocks` (``syms`` their ``Sym^N`` table):
    weight k meets block t in Dicke index k - t, so the pinching keeps the
    entries of ``R_t`` whose two indices have weights in one level.  The
    clustering rule then runs on that spectrum with multiplicities, and no
    D x D matrix is formed.  Otherwise ``M`` is formed in level order.
    """
    v = len(levels)
    X, _ = _sigma_basis(pair)
    label = _weight_levels(levels, n) if pair.dim == 2 else None
    if label is None:
        order = np.concatenate([lev.positions for lev in levels])
        M = tensor_power(X, n)[np.ix_(order, order)]
        sizes = [len(lev.positions) for lev in levels]
        return min_eigenvalue(v * block_diagonal(M, sizes) - M, pair.tol)
    spectrum = []
    for t, (m, R) in enumerate(_spin_blocks(X, n, syms)):
        same = label[t : n - t + 1]
        B = v * np.where(same[:, None] == same[None, :], R, 0.0) - R
        spectrum.append(np.repeat(np.linalg.eigvalsh(hermitian_part(B)), m))
    spectrum = np.concatenate(spectrum)
    # the stable argsort of _log_levels: a first use of another numpy sort
    # kernel maps its code pages, about 0.1 MiB of resident memory
    means, _, _, _ = _gap_clusters(spectrum[np.argsort(spectrum, kind="stable")], pair.tol)
    return float(means[0])


def verify_bounds(pair: HypothesisPair, n_range, a_grid) -> list[BoundReport]:
    """Exact errors, envelopes, pinching residual and eigenvalue counts.

    One report per (n, a); the envelopes come from the same phi_bar value
    per threshold, all read off the pair's cached psi_bar grid.  The
    sigma_n levels are derived once per n, and the errors of every
    threshold, v(sigma_n) and the pinching residual all come from them; no
    test operator is built.  The residual is that of :func:`_key_residual`:
    from the spin blocks for qubits, with ``Sym^N(V* rho V)`` built once
    per N for the whole range, so no d^n x d^n matrix is formed, and from
    the dense ``v blockdiag(M) - M`` otherwise.  The dense budget is checked
    for the largest n before any work.
    """
    n_range = list(n_range)
    n_top = max(n_range, default=0)
    check_dense_budget(pair.dim, n_top)
    transform = _pair_transform(pair, "psi_bar")
    phis = {float(a): transform(float(a))[0] for a in a_grid}
    syms = _sym_table(_sigma_basis(pair)[0], n_top) if pair.dim == 2 else None
    reports = []
    for n in n_range:
        levels = _level_data(pair, n)
        key = _key_residual(pair, n, levels, syms)
        pref = int((n + 1) ** pair.dim)
        for a in a_grid:
            a = float(a)
            ep = _pinched_errors(levels, n, a, pair.tol)
            reports.append(
                BoundReport(
                    n=int(n),
                    a=a,
                    alpha=ep.alpha,
                    alpha_bound=pref * math.exp(-n * phis[a]),
                    beta=ep.beta,
                    beta_bound=pref * math.exp(-n * (phis[a] + a)),
                    key_residual=key,
                    v_sigma_n=len(levels),
                    type_bound=pref,
                )
            )
    return reports


def stein_trace(pair: HypothesisPair, a: float, n_max: int) -> list[SteinPoint]:
    """Errors of the pinched test for n = 1..n_max at fixed a below D.

    Reports alpha next to its envelope (n+1)^d e^{-n phi_bar(a)}, which
    decays since phi_bar(a) > 0 below the relative entropy, and the beta
    rate (1/n) log beta next to -a + (d/n) log(n+1).  The dense budget is
    checked for n_max before any work.
    """
    check_dense_budget(pair.dim, int(n_max))
    a = float(a)
    div = relative_entropy(pair)
    if a >= div:
        raise RateAboveDivergence(f"a = {a} is not below D = {div}")
    value, _ = phi_bar(pair, a)
    points = []
    for n in range(1, int(n_max) + 1):
        levels = _level_data(pair, n)
        ep = _pinched_errors(levels, n, a, pair.tol)
        rate = math.log(ep.beta) / n if ep.beta > 0.0 else -math.inf
        points.append(
            SteinPoint(
                n=n,
                a=a,
                alpha=ep.alpha,
                alpha_bound=(n + 1) ** pair.dim * math.exp(-n * value),
                beta=ep.beta,
                log_beta_rate=rate,
                log_beta_envelope=-a + (pair.dim / n) * math.log(n + 1.0),
            )
        )
    return points


def _sym_power(X: np.ndarray, N: int) -> np.ndarray:
    """``Sym^N(X)`` of a 2 x 2 matrix in the normalized Dicke basis.

    Basis vector k is the normalized symmetric sum of the N-qubit strings
    with k ones, so ``X^{(x)N}`` maps it into the span of the others.
    Column k is the coefficient vector of
    ``(x00 + x10 z)^{N-k} (x01 + x11 z)^k`` in powers of z, one convolution,
    with entry j rescaled by ``sqrt(C(N,k)/C(N,j))``.  Powers are running
    products, so equal inputs give bitwise equal blocks.
    """

    def powers(x):
        return np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(N, x))))

    p00, p10, p01, p11 = (powers(X[i, j]) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    binom = np.array([[math.comb(m, i) for i in range(N + 1)] for m in range(N + 1)], float)
    S = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        first = binom[N - k, : N - k + 1] * p00[N - k :: -1] * p10[: N - k + 1]
        second = binom[k, : k + 1] * p01[k::-1] * p11[: k + 1]
        S[:, k] = np.convolve(first, second)
    return S * np.sqrt(binom[N][None, :] / binom[N][:, None])


def _sym_table(X: np.ndarray, n_max: int) -> list[np.ndarray]:
    """``Sym^N(X)`` for N = 0..n_max, built once for a whole range of n."""
    return [_sym_power(X, N) for N in range(n_max + 1)]


def _spin_blocks(X: np.ndarray, n: int, syms):
    """``X^{(x)n}`` of a 2 x 2 matrix as its Schur-Weyl blocks.

    Yields ``(m_t, det(X)^t Sym^{n-2t}(X))`` for t = 0..n//2, where the block
    appears ``m_t = C(n,t) - C(n,t-1)`` times in ``X^{(x)n}`` up to a unitary
    that depends on n alone; ``syms`` is the :func:`_sym_table` of X.  The
    determinant is the 2 x 2 formula, so equal inputs give bitwise equal
    blocks.
    """
    det = complex(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])
    for t in range(n // 2 + 1):
        mult = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
        yield mult, det**t * syms[n - 2 * t]


def _plain_errors_spin_blocks(
    pair: HypothesisPair, n: int, a: float, sym_x, sym_q
) -> ErrorProbabilities:
    """Errors of the plain test {rho_n > e^{na} sigma_n} for a qubit pair.

    In sigma's eigenbasis, with ``X = V* rho V`` and ``Q = diag(q)``, the
    difference ``rho_n - e^{na} sigma_n`` is unitarily the direct sum over t
    of ``R_t - e^{na} S_t`` (``R_t``, ``S_t`` the spin blocks of X and Q),
    each repeated ``m_t`` times; ``sym_x`` and ``sym_q`` are the
    :func:`_sym_table` of X and Q.  An eigenvalue is kept by the rule of
    :func:`strictly_positive` applied to all 2^n of them, so up to
    roundoff the test is that of :func:`build_plain_test`; ``alpha`` sums
    ``u* R_t u`` over the eigenvectors u left out and ``beta`` sums
    ``u* S_t u`` over those kept, each weighted by ``m_t``.  The work is
    O(n^4) plus a sort of the 2^n eigenvalues, with no 2^n x 2^n matrix.
    """
    check_dense_budget(pair.dim, n)
    X, Q = _sigma_basis(pair)
    blocks = [
        (m, R, S)
        for (m, R), (_, S) in zip(_spin_blocks(X, n, sym_x), _spin_blocks(Q, n, sym_q))
    ]
    if n * a > 700.0:
        # as in build_plain_test: e^{na} overflows and the test is empty
        pair.assert_invertible("plain test with n*a > 700")
        alpha = sum(m * np.trace(R).real for m, R, _ in blocks)
        return ErrorProbabilities(alpha=float(alpha), beta=0.0, n=n, a=a)
    thr = math.exp(n * a)
    eigs = [np.linalg.eigh(hermitian_part(R - thr * S)) for _, R, S in blocks]
    spectrum = np.sort(
        np.concatenate([np.repeat(w, m) for (m, _, _), (w, _) in zip(blocks, eigs)])
    )
    # kept clusters are a top segment of the sorted spectrum, so the test
    # keeps exactly the eigenvalues from the smallest kept one up
    kept_values = spectrum[strictly_positive(spectrum, pair.tol)]
    cut = kept_values[0] if kept_values.size else math.inf
    alpha = beta = 0.0
    for (m, R, S), (w, U) in zip(blocks, eigs):
        kept = w >= cut
        out = U[:, ~kept]
        alpha += m * float(np.einsum("ki,kl,li->", out.conj(), R, out).real)
        beta += m * float((S.diagonal().real @ np.abs(U[:, kept]) ** 2).sum())
    return ErrorProbabilities(alpha=alpha, beta=beta, n=n, a=a)


def conjecture_probe(pair: HypothesisPair, n_range, a: float) -> ConjectureReport:
    """Rate table for the plain test against the plain-exponent bounds.

    The targets are theorems: for P = {rho_n > e^{na} sigma_n}, Audenaert
    et al., PRL 98, 160501 (2007), give alpha_n <= e^{-n phi(a)} and
    beta_n <= e^{-n(phi(a)+a)} at every n, with no prefactor.  The report
    keeps its EXPERIMENTAL label and asserts nothing.

    Qubit pairs are evaluated from the spin blocks of the n-fold space
    (:func:`_plain_errors_spin_blocks`), with ``Sym^N`` of both states
    built once per N for the whole range and no 2^n x 2^n matrix; other
    dimensions build the dense test.  The path depends on ``pair.dim``
    alone, and both keep the positivity rule of :func:`strictly_positive`
    and the ``n a > 700`` guard.  The dense budget is checked for the
    largest n before any work.
    """
    n_range = [int(n) for n in n_range]
    n_top = max(n_range, default=0)
    check_dense_budget(pair.dim, n_top)
    a = float(a)
    value, _ = phi(pair, a)
    if pair.dim == 2:
        sym_x, sym_q = (_sym_table(Y, n_top) for Y in _sigma_basis(pair))
    rows = []
    for n in n_range:
        if pair.dim == 2:
            ep = _plain_errors_spin_blocks(pair, n, a, sym_x, sym_q)
        else:
            ep = error_probabilities(pair, build_plain_test(pair, n, a))
        la = math.log(ep.alpha) / n if ep.alpha > 0.0 else -math.inf
        lb = math.log(ep.beta) / n if ep.beta > 0.0 else -math.inf
        rows.append(
            ConjectureRow(
                n=n,
                a=a,
                alpha=ep.alpha,
                log_alpha_rate=la,
                alpha_conjecture=-value,
                beta=ep.beta,
                log_beta_rate=lb,
                beta_conjecture=-(value + a),
            )
        )
    return ConjectureReport(
        label="EXPERIMENTAL", a=a, phi_value=value, rows=tuple(rows)
    )
