"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and enforces its runtime budget where one is stated.
"""

import math
import time

import numpy as np

import qht

from conftest import seeded_diagonal_pairs, seeded_pairs
from oracles import psi_fd_mp

S_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)


def report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] {name} ({elapsed:.2f}s){extra}")
    assert ok, f"{name}{extra}"


def test_criterion_1_commuting_case_equivalence():
    start = time.perf_counter()
    worst_psi = 0.0
    worst_rate = 0.0
    for pair in seeded_diagonal_pairs(10, start=100):
        gap = np.abs(qht.psi_bar_values(pair, S_GRID) - qht.psi_values(pair, S_GRID))
        worst_psi = max(worst_psi, float(gap.max()))
        p = np.diag(pair.rho).real
        q = np.diag(pair.sigma).real
        for r in (0.01, 0.05, 0.1, 0.3):
            quantum = qht.hoeffding_rate(pair, r)
            classical = qht.classical_hoeffding(p, q, r)
            worst_rate = max(worst_rate, abs(quantum - classical))
    elapsed = time.perf_counter() - start
    ok = worst_psi <= 1e-10 and worst_rate <= 1e-9 and elapsed < 5.0
    report(
        "criterion 1: commuting-case equivalence",
        ok,
        elapsed,
        f"|psi_bar-psi|={worst_psi:.2e} |u-classical|={worst_rate:.2e}",
    )


def test_criterion_2_exponent_ordering():
    start = time.perf_counter()
    worst_psi = -math.inf
    worst_phi = -math.inf
    for pair in seeded_pairs(20, start=200):
        gap = qht.psi_bar_values(pair, S_GRID) - qht.psi_values(pair, S_GRID)
        worst_psi = max(worst_psi, float(gap.max()))
        div = qht.relative_entropy(pair)
        for a in np.linspace(-0.5, div + 0.5, 21):
            worst_phi = max(worst_phi, qht.phi_bar(pair, a)[0] - qht.phi(pair, a)[0])
    elapsed = time.perf_counter() - start
    ok = worst_psi <= 1e-9 and worst_phi <= 1e-9 and elapsed < 10.0
    report(
        "criterion 2: pinched below plain ordering",
        ok,
        elapsed,
        f"max(psi_bar-psi)={worst_psi:.2e} max(phi_bar-phi)={worst_phi:.2e}",
    )


def test_criterion_3_finite_n_envelopes():
    start = time.perf_counter()
    worst = -math.inf
    cases = 0
    for pair in seeded_pairs(10, start=300):
        div = qht.relative_entropy(pair)
        a_grid = [0.25 * div, 0.5 * div, 0.75 * div, 0.9 * div]
        reports = qht.verify_bounds(pair, range(1, 7), a_grid)
        for r in reports:
            worst = max(worst, r.alpha - r.alpha_bound, r.beta - r.beta_bound)
            cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    report(
        "criterion 3: finite-n error envelopes",
        ok,
        elapsed,
        f"{cases} cases, worst excess {worst:.2e}",
    )


def test_criterion_4_key_inequality_and_counts():
    start = time.perf_counter()
    worst_residual = math.inf
    counts_ok = True
    for pair in seeded_pairs(10, start=300):
        for n in range(1, 5):
            rho_n = qht.tensor_power(pair.rho, n)
            dec = qht.eigendecompose(qht.tensor_power(pair.sigma, n))
            worst_residual = min(
                worst_residual, qht.key_inequality_residual(rho_n, dec)
            )
            counts_ok = counts_ok and dec.v <= (n + 1) ** 2
            sigma_eigs = pair.sigma_eig[0]
            if np.diff(sigma_eigs).min() > 1e-6:  # nondegenerate qubit state
                counts_ok = counts_ok and dec.v == n + 1
    elapsed = time.perf_counter() - start
    ok = worst_residual >= -1e-9 and counts_ok and elapsed < 30.0
    report(
        "criterion 4: key operator inequality and eigenvalue counts",
        ok,
        elapsed,
        f"min residual {worst_residual:.2e}",
    )


def test_criterion_5_derivative_correctness():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_d0 = 0.0
    concave = True
    for pair in seeded_pairs(10, start=500):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            d1, d2 = qht.psi_derivatives(pair, s)
            fd1, fd2 = psi_fd_mp(pair, s, h=1e-5)
            worst_rel = max(worst_rel, abs(d1 - fd1) / abs(fd1))
            worst_rel = max(worst_rel, abs(d2 - fd2) / abs(fd2))
            concave = concave and d2 < 0.0
        worst_d0 = max(
            worst_d0,
            abs(qht.psi_derivatives(pair, 0.0)[0] - qht.relative_entropy(pair)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and worst_d0 <= 1e-8 and concave
    report(
        "criterion 5: derivative correctness",
        ok,
        elapsed,
        f"worst FD rel err {worst_rel:.2e}, slope-at-0 err {worst_d0:.2e}",
    )


def test_criterion_6_rate_parameter_consistency():
    start = time.perf_counter()
    worst_root = 0.0
    worst_identity = 0.0
    for pair in seeded_pairs(10, start=600):
        for r in (0.01, 0.1, 0.5):
            a_r = qht.solve_rate_parameter(pair, r)
            worst_root = max(worst_root, abs(qht.phi_bar(pair, a_r)[0] - r))
            worst_identity = max(
                worst_identity, abs(qht.hoeffding_rate(pair, r) - (r + a_r))
            )
    elapsed = time.perf_counter() - start
    ok = worst_root <= 1e-8 and worst_identity <= 1e-7
    report(
        "criterion 6: rate-parameter consistency",
        ok,
        elapsed,
        f"|phi_bar(a_r)-r|={worst_root:.2e} |u-(r+a_r)|={worst_identity:.2e}",
    )


def test_criterion_7_stein_direct_trend():
    start = time.perf_counter()
    pair = qht.preset_pair("qubit-skewed")
    a = 0.9 * qht.relative_entropy(pair)
    points = qht.stein_trace(pair, a, 8)
    alpha_ok = all(p.alpha <= p.alpha_bound + 1e-12 for p in points)
    envelope_halves = points[7].alpha_bound < 0.5 * points[0].alpha_bound
    beta_ok = all(p.log_beta_rate <= p.log_beta_envelope + 1e-12 for p in points)
    elapsed = time.perf_counter() - start
    ok = alpha_ok and envelope_halves and beta_ok and elapsed < 120.0
    report(
        "criterion 7: vanishing-alpha trend at fixed threshold",
        ok,
        elapsed,
        f"envelope(8)/envelope(1)={points[7].alpha_bound / points[0].alpha_bound:.3f}",
    )


def test_criterion_8_operator_inequality_suite():
    start = time.perf_counter()
    worst_eig = math.inf
    worst_form = 0.0
    worst_comm = 0.0
    worst_trace = 0.0
    rng = np.random.default_rng(800)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = G @ G.conj().T
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = float(rng.random())
        gap = qht.operator_convexity_gap(A, X, Y, t)
        closed = t * (1.0 - t) * (X - Y).conj().T @ A @ (X - Y)
        worst_eig = min(worst_eig, qht.min_eigenvalue(gap))
        worst_form = max(worst_form, float(np.abs(gap - closed).max()))
        H = (G + G.conj().T) / 2.0
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        B = (B + B.conj().T) / 2.0
        dec = qht.eigendecompose(H)
        P = qht.pinch(dec, B)
        scale = np.linalg.norm(H, 2) * np.linalg.norm(B, 2)
        worst_comm = max(
            worst_comm, float(np.linalg.norm(P @ H - H @ P, 2)) / scale
        )
        C = H @ H @ H - 2.0 * H + 0.7 * np.eye(dim)
        worst_trace = max(
            worst_trace, float(abs(np.trace(B @ C) - np.trace(P @ C)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_eig >= -1e-10
        and worst_form <= 1e-10
        and worst_comm <= 1e-9
        and worst_trace <= 1e-9
    )
    report(
        "criterion 8: operator convexity and pinching identities",
        ok,
        elapsed,
        f"min eig {worst_eig:.2e}, closed-form gap {worst_form:.2e}",
    )


def test_criterion_9_conjecture_probe_runs():
    start = time.perf_counter()
    pair = qht.preset_pair("qubit-generic")
    a = 0.5 * qht.relative_entropy(pair)
    probe = qht.conjecture_probe(pair, range(1, 7), a)
    from qht.finite_n import ConjectureRow
    from qht.serialization import records, table_to_csv

    table = table_to_csv(records(ConjectureRow, probe.rows))
    elapsed = time.perf_counter() - start
    ok = (
        probe.label == "EXPERIMENTAL"
        and len(probe.rows) == 6
        and table.count("\n") == 7
    )
    report(
        "criterion 9: plain-test probe emits EXPERIMENTAL table (no assertion)",
        ok,
        elapsed,
    )
