"""The invariant suite behind the ``verify`` command.

Each check exercises one proven property on deterministic seeded inputs
and reports the worst signed residual it saw; a check passes when that
residual stays inside the stated tolerance.  The suite is the library's
self-test: it covers the pinching identities, the key operator
inequality, the eigenvalue-count bound, the ordering and shape of the
exponent functions, derivative consistency, the finite-n envelopes and
the classical reductions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
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
    _level_data,
    _log_levels,
    _pinched_errors,
    build_pinched_test,
    build_plain_test,
    error_probabilities,
    verify_bounds,
)
from .operators import (
    eigendecompose,
    hermitian_part,
    key_inequality_residual,
    matrix_power,
    min_eigenvalue,
    operator_convexity_gap,
    pinch,
    tensor_power,
)
from .pairs import (
    HypothesisPair,
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


def _random_hermitian(rng, dim):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(G)


def check_pinching_commutation(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 5))
        A = _random_hermitian(rng, dim)
        B = _random_hermitian(rng, dim)
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
        A = _random_hermitian(rng, dim)
        B = _random_hermitian(rng, dim)
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
            v = len(_log_levels(lam, n, DEFAULT_TOL.cluster_rel_tol)[2])
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
            pinched = pinch(dec, rho_n)
            for s in (0.25, 0.5, 1.0):
                gap = dec.v**s * matrix_power(rho_n, -s) - matrix_power(pinched, -s)
                worst = min(worst, min_eigenvalue(gap))
    return CheckResult("inverse-power domination", worst >= -1e-8, worst, -1e-8)


def check_spectral_roundtrip(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 6))
        H = _random_hermitian(rng, dim)
        dec = eigendecompose(H)
        err = np.linalg.norm(dec.reconstruct() - H, 2) / np.linalg.norm(H, 2)
        worst = max(worst, float(err))
    return CheckResult("spectral round-trip", worst <= 1e-10, worst, 1e-10)


def check_operator_convexity(rng, n_samples) -> CheckResult:
    worst_eig = math.inf
    worst_gap = 0.0
    for _ in range(n_samples):
        dim = int(rng.integers(2, 4))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = G @ G.conj().T
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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


def check_derivatives(rng, n_samples) -> CheckResult:
    import mpmath as mp

    worst = 0.0
    h = 1e-5
    for _ in range(n_samples):
        pair = random_pair(rng)
        p, U = pair.rho_eig
        q, V = pair.sigma_eig
        W = np.abs(U.conj().T @ V) ** 2

        def psi_hp(s):
            P = [mp.mpf(float(x)) ** (1 - s) for x in p]
            Q = [mp.mpf(float(x)) ** s for x in q]
            tot = mp.mpf(0)
            for i in range(pair.dim):
                for j in range(pair.dim):
                    tot += mp.mpf(float(W[i, j])) * P[i] * Q[j]
            return -mp.log(tot)

        with mp.workdps(40):
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                d1, d2 = psi_derivatives(pair, s)
                sh = mp.mpf(s)
                hh = mp.mpf(h)
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
        rotated = HypothesisPair(
            U @ pair.rho @ U.conj().T, U @ pair.sigma @ U.conj().T, pair.tol
        )
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
        a_grid = (0.25 * div, 0.5 * div, 0.75 * div, 0.9 * div)
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
        for n in range(1, min(n_max, 3) + 1):
            test = build_pinched_test(pair, n, a)
            A = test.operator
            sigma_n = tensor_power(pair.sigma, n)
            worst = max(worst, float(np.linalg.norm(A @ A - A, 2)))
            worst = max(worst, float(np.linalg.norm(A @ sigma_n - sigma_n @ A, 2)))
            ep = error_probabilities(pair, test)
            rho_n = tensor_power(pair.rho, n)
            mass = ep.alpha + float(np.trace(rho_n @ A).real)
            worst_mass = max(worst_mass, abs(mass - 1.0))
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
        for n in (1, 2, 3):
            for a in (0.3 * div, 0.8 * div):
                pinched = build_pinched_test(pair, n, a)
                plain = build_plain_test(pair, n, a)
                gap = np.abs(pinched.operator - plain.operator).max()
                worst = max(worst, float(gap))
    return CheckResult("pinched equals plain when commuting", worst <= 1e-10, worst, 1e-10)


def check_error_monotonicity(rng, n_samples) -> CheckResult:
    worst = 0.0
    for _ in range(n_samples):
        pair = random_pair(rng)
        div = relative_entropy(pair)
        grid = np.linspace(0.1 * div, 1.2 * div, 6)
        for n in (1, 2):
            levels = _level_data(pair, n)
            eps = [_pinched_errors(levels, n, a, pair.tol) for a in grid]
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
