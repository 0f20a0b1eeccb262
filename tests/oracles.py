"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library: scalar eigenvalue-weight sums (psi) and dense matrix-power
products (psi_bar) evaluated in mpmath for the exponent functions and their
finite differences, and brute-force grid scans for the one-dimensional
maximizations.
"""

import mpmath as mp
import numpy as np


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
