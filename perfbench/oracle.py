"""Output gate: checks each op's outputs against proven facts.

The oracle is independent of the library: it parses the CSV/JSON the CLI
wrote and recomputes what it needs from the generated input matrices with
plain numpy.  Each check returns a list of problems; an empty list passes.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

# Default a-grid of `qht finite-n`: four thresholds per blocklength.
FINITE_N_THRESHOLDS = 4


def psi_weight_form(rho: np.ndarray, sigma: np.ndarray, s: float) -> float:
    """psi(s) = -log sum_ij W_ij p_i^{1-s} q_j^s with W_ij = |<u_i|v_j>|^2."""
    p, U = np.linalg.eigh(rho)
    q, V = np.linalg.eigh(sigma)
    W = np.abs(U.conj().T @ V) ** 2
    return float(-np.log(np.einsum("ij,i,j->", W, p ** (1.0 - s), q**s)))


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_psi(pair, pairs_s, problems, where):
    rho, sigma = pair
    for s, psi_bar, psi in pairs_s:
        if psi_bar > psi + 1e-9:
            problems.append(f"{where}: psi_bar {psi_bar!r} > psi {psi!r} at s={s!r}")
        ref = psi_weight_form(rho, sigma, s)
        if abs(psi - ref) > 1e-9 * max(1.0, abs(ref)):
            problems.append(f"{where}: psi {psi!r} != weight form {ref!r} at s={s!r}")


def check_exponents(stdout: str, out: Path, pair) -> list[str]:
    lines = stdout.splitlines()
    start = lines.index("s,psi_bar,psi") + 1
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[start:]]
    problems = [] if rows else ["exponents: no rows"]
    _check_psi(pair, rows, problems, "exponents")
    return problems


def check_curves(stdout: str, out: Path, pair) -> list[str]:
    curves = {}
    for name in ("psi_bar", "psi", "phi_bar", "phi"):
        rows = _rows((out / f"{name}.csv").read_text(encoding="utf-8"))
        curves[name] = [(float(r["param"]), float(r["value"])) for r in rows]
    problems = []
    s_rows = [(s, pb, p) for (s, pb), (_, p) in zip(curves["psi_bar"], curves["psi"])]
    _check_psi(pair, s_rows, problems, "curves")
    # psi_bar <= psi pointwise, so its transform phi_bar <= phi as well.
    for (a, pb), (_, p) in zip(curves["phi_bar"], curves["phi"]):
        if pb > p + 1e-9:
            problems.append(f"curves: phi_bar {pb!r} > phi {p!r} at a={a!r}")
    if not s_rows or not curves["phi"]:
        problems.append("curves: empty curve")
    return problems


def check_hoeffding(stdout: str, out: Path, pair) -> list[str]:
    rows = _rows((out / "hoeffding.csv").read_text(encoding="utf-8"))
    problems = [] if rows else ["hoeffding: no rows"]
    for row in rows:
        r, u, a_r = float(row["r"]), float(row["u"]), float(row["a_r"])
        if abs(u - (r + a_r)) > 1e-7:
            problems.append(f"hoeffding: u(r) {u!r} != r + a_r {r + a_r!r} at r={r!r}")
    return problems


def check_finite_n(stdout: str, out: Path, n_max: int) -> list[str]:
    rows = _rows((out / "bound_report.csv").read_text(encoding="utf-8"))
    problems = []
    if len(rows) != n_max * FINITE_N_THRESHOLDS:
        problems.append(f"finite-n: {len(rows)} rows, expected {n_max * FINITE_N_THRESHOLDS}")
    for row in rows:
        at = f"n={row['n']} a={row['a']}"
        if float(row["alpha"]) > float(row["alpha_bound"]) + 1e-12:
            problems.append(f"finite-n: alpha above its envelope at {at}")
        if float(row["beta"]) > float(row["beta_bound"]) + 1e-12:
            problems.append(f"finite-n: beta above its envelope at {at}")
        if float(row["key_residual"]) < -1e-9:
            problems.append(f"finite-n: pinching residual {row['key_residual']} at {at}")
        if int(row["v_sigma_n"]) > int(row["type_bound"]):
            problems.append(f"finite-n: v(sigma_n) above (n+1)^d at {at}")
    return problems


def check_conjecture(stdout: str, out: Path) -> list[str]:
    """Plain test against Audenaert et al., PRL 98, 160501 (2007).

    Tr[A(I-P)] + Tr[BP] <= Tr[A^{1-s} B^s] for P = {A > B}, with A = rho_n
    and B = e^{na} sigma_n, gives alpha_n <= e^{-n phi(a)} and
    beta_n <= e^{-n(phi(a)+a)}.  The reported phi value is psi at a probed
    s minus a s, so the bound holds for it too.
    """
    reports = sorted(out.glob("conjecture_a_*.json"))
    problems = [] if reports else ["conjecture: no report"]
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        phi_a, a = report["phi_value"], report["a"]
        if not report["rows"]:
            problems.append(f"conjecture: {path.name} has no rows")
        for row in report["rows"]:
            n = row["n"]
            if row["alpha"] > math.exp(-n * phi_a) + 1e-12:
                problems.append(f"conjecture: alpha above e^(-n phi(a)) at n={n} a={a!r}")
            if row["beta"] > math.exp(-n * (phi_a + a)) + 1e-12:
                problems.append(f"conjecture: beta above e^(-n(phi(a)+a)) at n={n} a={a!r}")
    return problems


def check(op, exit_code: int, stdout: str, out: Path, pairs: dict) -> list[str]:
    """All problems with one op's outputs; verify passes on exit code 0."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    pair = pairs.get(op.pair)
    if op.kind == "exponents":
        return check_exponents(stdout, out, pair)
    if op.kind == "curves":
        return check_curves(stdout, out, pair)
    if op.kind == "hoeffding":
        return check_hoeffding(stdout, out, pair)
    if op.kind == "finite-n":
        return check_finite_n(stdout, out, op.n_max)
    if op.kind == "conjecture":
        return check_conjecture(stdout, out)
    if op.kind == "verify":
        return []
    return [f"no gate for op kind {op.kind!r}"]
