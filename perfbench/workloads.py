"""Seeded inputs and the fixed op list of each workload.

An op is one ``qht`` subcommand invocation, given as its argv.  Ops that
accept ``--out`` get a fresh output directory from the runner, so the
``cli`` and ``serialization`` layers run as a user runs them.  Pairs are
generated here with numpy and written as JSON files in the README schema;
the library only ever sees those files and its own presets.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    kind: str  # the subcommand, which selects the output gate
    pair: str | None = None  # generated input file name, for the gate oracle
    n_max: int | None = None
    takes_out: bool = True


WORKLOADS = ("exponent-sweep", "finite-n-ladder", "verify-suite")


def _density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """G G*/Tr, mixed with 1e-3 I/d so both states stay well inside full rank."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    W = G @ G.conj().T
    W = (W + W.conj().T) / 2.0
    rho = W / np.trace(W).real
    return (1.0 - 1e-3) * rho + 1e-3 * np.eye(dim) / dim


def _diagonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = rng.random(dim) + 0.05
    return np.diag(p / p.sum()).astype(complex)


def _matrix_json(M: np.ndarray) -> dict:
    return {"dim": int(M.shape[0]), "re": M.real.tolist(), "im": M.imag.tolist()}


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    def log(M):
        w, U = np.linalg.eigh(M)
        return (U * np.log(w)) @ U.conj().T

    return float(np.trace(rho @ (log(rho) - log(sigma))).real)


def a_grid(pair, points: int = 26) -> str:
    """``--grid-a`` for the CLI's default a-range, -0.5 to D + 0.5, with fewer points.

    One token with ``=``, because argparse reads a separate ``-0.5:...`` as an option.
    """
    hi = relative_entropy(*pair) + 0.5
    return f"--grid-a=-0.5:{hi!r}:{(hi + 0.5) / (points - 1)!r}"


def write_pairs(seed: int, directory: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Write the seeded pair files and return their matrices by file name."""
    rng = np.random.default_rng([seed, 0x9E37])
    pairs = {f"generic{d}.json": (_density(rng, d), _density(rng, d)) for d in (2, 3, 4)}
    pairs["diagonal3.json"] = (_diagonal(rng, 3), _diagonal(rng, 3))
    directory.mkdir(parents=True, exist_ok=True)
    for name, (rho, sigma) in pairs.items():
        payload = {"rho": _matrix_json(rho), "sigma": _matrix_json(sigma)}
        (directory / name).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return pairs


def _type_counting_dims(verify_seed: int, samples: int) -> list[int]:
    """The dimensions ``qht.checks.check_type_counting`` draws for a seed.

    That check draws ``dim`` in {2, 3} per sample from
    ``default_rng([seed, 3])`` and then two dim x dim normal arrays.  A qutrit
    sample runs the D = 729 eigendecompose, about a second and a quarter of a
    GiB, so the number of qutrit samples sets the suite's time and memory.
    """
    rng = np.random.default_rng([verify_seed, 3])
    dims = []
    for _ in range(samples):
        dim = int(rng.integers(2, 4))
        rng.standard_normal((dim, dim))
        rng.standard_normal((dim, dim))
        dims.append(dim)
    return dims


VERIFY_PAIRS = 2
VERIFY_N_MAX = 3
VERIFY_SEEDS = 2


def verify_seeds(seed: int) -> list[int]:
    """Seeded verify seeds, each with exactly one qutrit type-counting sample.

    Fixing that count keeps every run's work and peak memory comparable
    across benchmark seeds; the seeds themselves still vary with ``seed``.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    chosen = []
    while len(chosen) < VERIFY_SEEDS:
        candidate = int(rng.integers(0, 2**31))
        # run_all_checks gives check_type_counting min(pairs, 5) samples
        if _type_counting_dims(candidate, min(VERIFY_PAIRS, 5)).count(3) == 1:
            chosen.append(candidate)
    return chosen


def build_ops(workload: str, seed: int, input_dir: Path, pairs: dict) -> list[Op]:
    """The fixed op list of one workload for one seed."""
    if workload == "exponent-sweep":
        ops = []
        for name in ("generic2.json", "generic3.json", "generic4.json", "diagonal3.json"):
            src = ("--input", (input_dir / name).as_posix())
            stem = name[:-5]
            ops += [
                Op(f"exponents:{stem}", ("exponents",) + src, "exponents", name),
                Op(
                    f"curves:{stem}",
                    ("curves",) + src + (a_grid(pairs[name]),),
                    "curves",
                    name,
                ),
                Op(
                    f"hoeffding:{stem}",
                    ("hoeffding",) + src + ("--grid-r", "0.1:0.3:0.2"),
                    "hoeffding",
                    name,
                ),
            ]
        return ops
    if workload == "finite-n-ladder":
        qubit = ("--input", (input_dir / "generic2.json").as_posix())
        qutrit = ("--input", (input_dir / "generic3.json").as_posix())
        return [
            Op("finite-n:generic2", ("finite-n",) + qubit + ("--n-max", "7"), "finite-n", n_max=7),
            Op(
                "finite-n:qubit-skewed",
                ("finite-n", "--preset", "qubit-skewed", "--n-max", "6"),
                "finite-n",
                n_max=6,
            ),
            Op("finite-n:generic3", ("finite-n",) + qutrit + ("--n-max", "4"), "finite-n", n_max=4),
            Op("conjecture:generic2", ("conjecture",) + qubit + ("--n-max", "8"), "conjecture"),
            Op(
                "conjecture:qubit-generic",
                ("conjecture", "--preset", "qubit-generic", "--n-max", "8"),
                "conjecture",
            ),
        ]
    if workload == "verify-suite":
        return [
            Op(
                f"verify:{s}",
                (
                    "verify",
                    "--seed",
                    str(s),
                    "--pairs",
                    str(VERIFY_PAIRS),
                    "--n-max",
                    str(VERIFY_N_MAX),
                ),
                "verify",
                takes_out=False,
            )
            for s in verify_seeds(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
