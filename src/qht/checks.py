"""The invariant suite behind the ``verify`` command.

Each check exercises one proven property on deterministic seeded inputs
and reports the worst signed residual it saw; a check passes when that
residual stays inside the stated tolerance.  The suite is the library's
self-test: it covers the pinching identities, the key operator
inequality, the eigenvalue-count bound, the ordering and shape of the
exponent functions, derivative consistency, the finite-n envelopes and
the classical reductions.  The derivative check compares against a
40-digit reference psi computed with the standard library's ``decimal``
module (:func:`decimal_psi`).

The finite-n sweep rows (``finite-n``'s numbers) meet dense references
that share no code with them, at n <= 3 and a below the relative entropy:
``alpha + Tr[rho_n A] = 1`` and ``beta = Tr[sigma_n A]`` for the dense
pinched test A (:func:`check_test_structure`) and, on commuting pairs,
for the dense plain test (:func:`check_commuting_tests_coincide`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import CLUSTER_REL_TOL, THRESHOLD_FRACTIONS
from .exponents import (
    classical_hoeffding,
    hoeffding_rate,
    phi,
    phi_bar,
    psi,
    psi_bar,
    psi_bar_values,
    psi_derivatives,
    psi_values,
    relative_entropy,
    solve_rate_parameter,
)
from .finite_n import (
    _bound_reports,
    _level_split,
    _levels,
    _pinched_errors,
    _row_logs,
    _sweep,
    build_pinched_test,
    build_plain_test,
    error_probabilities,
    verify_bounds,
)
from .operators import (
    _spectral_power,
    eigendecompose,
    hermitian_part,
    key_inequality_residual,
    min_eigenvalue,
    operator_convexity_gap,
    pinch,
    tensor_power,
)
from .pairs import (
    HypothesisPair,
    complex_gaussian,
    random_density,
    random_diagonal_pair,
    random_pair,
    random_unitary,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            text += f" {self.detail}"
        return text


def check_pinching_commutation(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 5))
        A = hermitian_part(complex_gaussian(rng, dim))
        B = hermitian_part(complex_gaussian(rng, dim))
        dec = eigendecompose(A)
        P = pinch(dec, B)
        comm = np.linalg.norm(P @ A - A @ P, 2)
        scale = np.linalg.norm(A, 2) * np.linalg.norm(B, 2)
        worst = max(worst, comm / scale)
    return CheckResult("pinching commutation", worst <= 1e-9, worst, 1e-9)


def check_pinching_trace_identity(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 5))
        A = hermitian_part(complex_gaussian(rng, dim))
        B = hermitian_part(complex_gaussian(rng, dim))
        C = A @ A @ A - 2.0 * A + 0.7 * np.eye(dim)  # commutes with A
        dec = eigendecompose(A)
        gap = abs(np.trace(B @ C) - np.trace(pinch(dec, B) @ C))
        worst = max(worst, float(gap))
    return CheckResult("pinching trace identity", worst <= 1e-9, worst, 1e-9)


def check_key_inequality(rng, n_samples, n_max) -> CheckResult:
    worst = math.inf
    for _ in range(n_samples):
        pair = random_pair(rng)
        for n in range(1, min(n_max, 4) + 1):
            rho_n = tensor_power(pair.rho, n)
            dec = eigendecompose(tensor_power(pair.sigma, n))
            worst = min(worst, key_inequality_residual(rho_n, dec))
    return CheckResult("key operator inequality", worst >= -1e-9, worst, -1e-9)


def check_type_counting(rng, n_samples) -> CheckResult:
    """Type counting: v(sigma^{(x)n}) <= C(n+d-1, d-1) <= (n+1)^d.

    Every eigenvalue of sigma^{(x)n} is a product prod_j q_j^{k_j} of the
    single-copy eigenvalues q_j, fixed by the type (k_1, ..., k_d) of its
    index string, so there are at most C(n+d-1, d-1) distinct ones.  v is
    counted from the sigma_n log-levels of :mod:`qht.finite_n`, as
    ``finite-n`` counts it, for n = 1..6 on seeded qubit and qutrit states.
    Where ``dim**n <= 64`` a dense eigendecompose of the tensor power is
    the independent path, and the margin takes the larger of the two
    counts.
    """
    worst = 0
    ok = True
    for _ in range(n_samples):
        dim = int(rng.integers(2, 4))
        sigma = random_density(rng, dim)
        lam = np.clip(np.linalg.eigvalsh(hermitian_part(sigma)), 0.0, None)
        for n in range(1, 7):
            strings = np.indices((dim,) * n).reshape(n, dim**n)
            v = len(_levels(_row_logs(lam, strings), CLUSTER_REL_TOL)[1])
            if dim**n <= 64:
                v = max(v, eigendecompose(tensor_power(sigma, n)).v)
            margin = v - (n + 1) ** dim
            worst = max(worst, margin)
            ok = ok and margin <= 0
    return CheckResult("eigenvalue count vs (n+1)^d", ok, float(worst), 0.0)


def check_operator_monotonicity(rng, n_samples) -> CheckResult:
    worst = math.inf
    for _ in range(n_samples):
        pair = random_pair(rng)
        for n in (1, 2, 3):
            rho_n = tensor_power(pair.rho, n)
            dec = eigendecompose(tensor_power(pair.sigma, n))
            # matrix_power's eigendecompose, once per n instead of once per s
            rho_dec = eigendecompose(rho_n)
            pinched_dec = eigendecompose(pinch(dec, rho_n))
            for s in (0.25, 0.5, 1.0):
                gap = dec.v**s * _spectral_power(rho_dec, -s) - _spectral_power(pinched_dec, -s)
                worst = min(worst, min_eigenvalue(gap))
    return CheckResult("inverse-power domination", worst >= -1e-8, worst, -1e-8)


def check_spectral_roundtrip(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 6))
        H = hermitian_part(complex_gaussian(rng, dim))
        dec = eigendecompose(H)
        err = np.linalg.norm(dec.reconstruct() - H, 2) / np.linalg.norm(H, 2)
        worst = max(worst, float(err))
    return CheckResult("spectral round-trip", worst <= 1e-10, worst, 1e-10)


def check_operator_convexity(rng, n_samples) -> CheckResult:
    worst_eig = math.inf
    worst_gap = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 4))
        G = complex_gaussian(rng, dim)
        A = G @ G.conj().T
        X = complex_gaussian(rng, dim)
        Y = complex_gaussian(rng, dim)
        t = float(rng.random())
        gap = operator_convexity_gap(A, X, Y, t)
        closed = t * (1.0 - t) * (X - Y).conj().T @ A @ (X - Y)
        worst_eig = min(worst_eig, min_eigenvalue(gap))
        worst_gap = max(worst_gap, float(np.abs(gap - closed).max()))
    passed = worst_eig >= -1e-10 and worst_gap <= 1e-10
    return CheckResult(
        "operator convexity closed form",
        passed,
        worst_eig,
        -1e-10,
        detail=f"max entrywise gap {worst_gap:.3e}",
    )


def check_exponent_order(rng, n_samples) -> CheckResult:
    s_grid = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        gap = psi_bar_values(pair, s_grid) - psi_values(pair, s_grid)
        worst = max(worst, float(gap.max()))
        div = relative_entropy(pair)
        for a in np.linspace(-0.5, div + 0.5, 9):
            worst = max(worst, phi_bar(pair, a)[0] - phi(pair, a)[0])
    return CheckResult("pinched below plain exponent", worst <= 1e-9, worst, 1e-9)


def check_phi_bar_shape(rng, n_samples) -> CheckResult:
    worst = 0.0
    detail = ""
    for _ in range(n_samples):
        pair = random_pair(rng)
        div = relative_entropy(pair)
        grid = np.linspace(-1.0, div + 1.0, 9)
        vals = np.array([phi_bar(pair, a)[0] for a in grid])
        # monotone nonincreasing
        worst = max(worst, float(np.diff(vals).max()))
        # midpoint convexity
        for i in range(len(grid) - 2):
            mid = phi_bar(pair, 0.5 * (grid[i] + grid[i + 2]))[0]
            worst = max(worst, mid - 0.5 * (vals[i] + vals[i + 2]))
        # vanishes above the divergence, grows without bound below
        worst = max(worst, abs(phi_bar(pair, div + 1.0)[0]))
        if phi_bar(pair, -1000.0)[0] < 100.0:
            detail = "phi_bar(-1000) < 100"
            worst = max(worst, 1.0)
        if phi_bar(pair, div - 1e-6)[0] <= 0.0:
            detail = "phi_bar not positive below the divergence"
            worst = max(worst, 1.0)
    return CheckResult("phi_bar shape", worst <= 1e-9, worst, 1e-9, detail)


# Significant digits of the derivative check's reference psi.
PSI_REFERENCE_DIGITS = 40


def _reference_context():
    # decimal is imported here, so only a run of the derivative check loads it
    import decimal

    return decimal.localcontext(decimal.Context(prec=PSI_REFERENCE_DIGITS))


def decimal_psi(pair):
    """The reference psi of ``pair`` at 40 digits, as a function of a Decimal s.

    psi(s) = -ln sum_ij |<u_i|v_j>|^2 p_i^(1-s) q_j^s over the eigensystems
    (p, U) of rho and (q, V) of sigma, in stdlib ``decimal`` with every
    operation rounded to ``PSI_REFERENCE_DIGITS``, whatever the caller's
    context.  Each power is exp(t ln x), with ln p and ln q taken once here.
    Form s itself at ``PSI_REFERENCE_DIGITS`` too.
    """
    from decimal import Decimal

    p, U = pair.rho_eig
    q, V = pair.sigma_eig
    W = np.abs(U.conj().T @ V) ** 2
    weights = [[Decimal(float(x)) for x in row] for row in W]
    with _reference_context():
        ln_p = [Decimal(float(x)).ln() for x in p]
        ln_q = [Decimal(float(x)).ln() for x in q]

    def psi(s):
        with _reference_context():
            P = [((1 - s) * x).exp() for x in ln_p]
            Q = [(s * x).exp() for x in ln_q]
            tot = sum(w * Pi * Qj for Pi, row in zip(P, weights) for Qj, w in zip(Q, row))
            return -tot.ln()

    return psi


def check_derivatives(rng, n_samples) -> CheckResult:
    """psi' and psi'' against central differences of :func:`decimal_psi`.

    The 40-digit reference uses stdlib ``decimal``, so the differences at
    h = 1e-5 keep about 30 digits and the residual is the float path's.
    """
    from decimal import Decimal

    worst = 0.0
    h = 1e-5
    for _ in range(n_samples):
        pair = random_pair(rng)
        psi_hp = decimal_psi(pair)
        with _reference_context():
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                d1, d2 = psi_derivatives(pair, s)
                sh = Decimal(s)
                hh = Decimal(h)
                up, mid, down = psi_hp(sh + hh), psi_hp(sh), psi_hp(sh - hh)
                fd1 = float((up - down) / (2 * hh))
                fd2 = float((up - 2 * mid + down) / hh**2)
                worst = max(worst, abs(d1 - fd1) / max(abs(fd1), 1e-30))
                worst = max(worst, abs(d2 - fd2) / max(abs(fd2), 1e-30))
                if d2 > -1e-12:
                    worst = max(worst, 1.0)
        gap0 = abs(psi_derivatives(pair, 0.0)[0] - relative_entropy(pair))
        worst = max(worst, gap0)
    return CheckResult("derivative consistency", worst <= 1e-6, worst, 1e-6)


def check_rate_consistency(rng, n_samples) -> CheckResult:
    """The duality of the Hoeffding bound's two faces: phi_bar(a_r) = r, u(r) = r + a_r.

    phi_bar(a) >= r exactly when ``a <= (psi_bar(s) - r) / s`` for some s in
    (0, 1], so the threshold a_r is the rate objective's maximum u(r) minus
    r.  ``solve_rate_parameter`` computes it that way, which makes the
    second residual zero by construction; the first compares the transform's
    maximization over s (``phi_bar``) against the rate objective's.
    """
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        for r in (0.01, 0.1, 0.5):
            a_r = solve_rate_parameter(pair, r)
            worst = max(worst, abs(phi_bar(pair, a_r)[0] - r) * 10.0)
            worst = max(worst, abs(hoeffding_rate(pair, r) - (r + a_r)))
    return CheckResult("rate-parameter consistency", worst <= 1e-7, worst, 1e-7)


def check_commuting_reduction(rng, n_samples) -> CheckResult:
    s_grid = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for _ in range(n_samples):
        pair = random_diagonal_pair(rng)
        p = np.diag(pair.rho).real
        q = np.diag(pair.sigma).real
        gap = np.abs(psi_bar_values(pair, s_grid) - psi_values(pair, s_grid))
        worst = max(worst, float(gap.max()) * 0.1)
        for r in (0.01, 0.1, 0.3):
            cls = classical_hoeffding(p, q, r)
            worst = max(worst, abs(hoeffding_rate(pair, r) - cls))
    return CheckResult("commuting-case reduction", worst <= 1e-9, worst, 1e-9)


def check_unitary_invariance(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        U = random_unitary(rng, pair.dim)
        rotated = HypothesisPair(U @ pair.rho @ U.conj().T, U @ pair.sigma @ U.conj().T)
        for s in (0.2, 0.7):
            worst = max(worst, abs(psi_bar(pair, s) - psi_bar(rotated, s)))
            worst = max(worst, abs(psi(pair, s) - psi(rotated, s)))
        div = relative_entropy(pair)
        for a in (0.3 * div, 0.8 * div):
            worst = max(worst, abs(phi_bar(pair, a)[0] - phi_bar(rotated, a)[0]))
            worst = max(worst, abs(phi(pair, a)[0] - phi(rotated, a)[0]))
        worst = max(worst, abs(hoeffding_rate(pair, 0.1) - hoeffding_rate(rotated, 0.1)))
    return CheckResult("unitary invariance", worst <= 1e-9, worst, 1e-9)


def check_finite_n_bounds(rng, n_samples, n_max) -> CheckResult:
    """Exact pinched-test errors against (n+1)^d e^{-n phi_bar(a)} envelopes."""
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        div = relative_entropy(pair)
        a_grid = [f * div for f in THRESHOLD_FRACTIONS]
        for r in verify_bounds(pair, range(1, n_max + 1), a_grid):
            worst = max(worst, r.alpha - r.alpha_bound, r.beta - r.beta_bound)
    return CheckResult("finite-n envelopes", worst <= 1e-12, worst, 1e-12)


def check_test_structure(rng, n_samples, n_max) -> CheckResult:
    worst = 0.0
    worst_mass = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        div = relative_entropy(pair)
        a = 0.5 * div
        for r in _bound_reports(pair, range(1, min(n_max, 3) + 1), [a], key=False):
            A = build_pinched_test(pair, r.n, a).operator
            sigma_n = tensor_power(pair.sigma, r.n)
            worst = max(worst, float(np.linalg.norm(A @ A - A, 2)))
            worst = max(worst, float(np.linalg.norm(A @ sigma_n - sigma_n @ A, 2)))
            rho_n = tensor_power(pair.rho, r.n)
            mass = r.alpha + np.trace(rho_n @ A).real
            worst_mass = max(worst_mass, abs(mass - 1.0), abs(r.beta - np.trace(sigma_n @ A).real))
    passed = worst <= 1e-9 and worst_mass <= 1e-12
    return CheckResult(
        "test projections and mass",
        passed,
        worst,
        1e-9,
        detail=f"mass defect {worst_mass:.3e} (tol 1e-12)",
    )


def check_commuting_tests_coincide(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        pair = random_diagonal_pair(rng)
        div = relative_entropy(pair)
        for r in _bound_reports(pair, (1, 2, 3), (0.3 * div, 0.8 * div), key=False):
            pinched = build_pinched_test(pair, r.n, r.a)
            plain = build_plain_test(pair, r.n, r.a)
            ep = error_probabilities(pair, plain)
            gap = np.abs(pinched.operator - plain.operator).max()
            worst = max(worst, float(gap), abs(r.alpha - ep.alpha), abs(r.beta - ep.beta))
    return CheckResult("pinched equals plain when commuting", worst <= 1e-10, worst, 1e-10)


def check_error_monotonicity(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        div = relative_entropy(pair)
        grid = np.linspace(0.1 * div, 1.2 * div, 6)
        for n, blocks in _sweep(pair, (1, 2)):
            spectrum, _ = _level_split(blocks, CLUSTER_REL_TOL)
            eps = _pinched_errors(spectrum, n, grid)
            alphas = np.array([e.alpha for e in eps])
            betas = np.array([e.beta for e in eps])
            worst = max(worst, float((-np.diff(alphas)).max()))
            worst = max(worst, float(np.diff(betas).max()))
    return CheckResult("error monotonicity in a", worst <= 1e-12, worst, 1e-12)


def run_all_checks(seed: int = 0, pairs: int = 10, n_max: int = 4) -> list[CheckResult]:
    """Run the whole suite on seeded deterministic inputs."""
    results = []
    specs = [
        (check_pinching_commutation, (pairs,)),
        (check_pinching_trace_identity, (pairs,)),
        (check_key_inequality, (pairs, n_max)),
        (check_type_counting, (min(pairs, 5),)),
        (check_operator_monotonicity, (min(pairs, 5),)),
        (check_spectral_roundtrip, (pairs,)),
        (check_operator_convexity, (pairs,)),
        (check_exponent_order, (pairs,)),
        (check_phi_bar_shape, (min(pairs, 5),)),
        (check_derivatives, (min(pairs, 5),)),
        (check_rate_consistency, (min(pairs, 5),)),
        (check_commuting_reduction, (min(pairs, 5),)),
        (check_unitary_invariance, (min(pairs, 5),)),
        (check_finite_n_bounds, (min(pairs, 5), n_max)),
        (check_test_structure, (min(pairs, 5), n_max)),
        (check_commuting_tests_coincide, (min(pairs, 5),)),
        (check_error_monotonicity, (min(pairs, 5),)),
    ]
    for fn, extra in specs:
        rng = np.random.default_rng([seed, len(results)])
        results.append(fn(rng, *extra))
    return results
