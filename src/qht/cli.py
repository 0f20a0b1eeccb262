"""Command-line front end.

Subcommands: ``exponents`` (point values), ``curves`` (CSV/JSON sweeps of
the four exponent functions), ``hoeffding`` (trade-off rate over an
r-grid), ``finite-n`` (exact error/bound table), ``verify`` (invariant
suite, exit 1 on failure) and ``conjecture`` (plain-test probe, labeled
EXPERIMENTAL).  All but ``verify`` load a pair from ``--input FILE`` (read
as a file whatever its name) or ``--preset NAME`` (default
``qubit-generic``).  Each of them reads the relative entropy or psi_bar,
which need full support, before it prints anything, so a rank-deficient
state is rejected there, exit 2, unless ``--smooth [DELTA]`` mixes both
states with ``DELTA * I/d`` (default 1e-6).  A grid that is not strictly
increasing is a usage error at parse time.  Exit codes: 0 success, 1
failed verification, 2 usage or validation errors (an escalated
``RateTooSmallWarning`` among them), 141 when stdout closes early (128 +
SIGPIPE).  Identical invocations produce byte-identical files.
``main(argv)`` may be called any number of times in one process; each call
gives the same bytes as a separate invocation with the same argv.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import serialization as ser
from .checks import run_all_checks
from .config import THRESHOLD_FRACTIONS
from .errors import QhtError, RateTooSmallWarning
from .exponents import (
    hoeffding_rate,
    phi,
    phi_bar,
    psi_bar_values,
    psi_values,
    relative_entropy,
)
from .finite_n import BoundReport, ConjectureRow, conjecture_probe, verify_bounds
from .pairs import PRESETS, preset_pair

# Most points a grid flag takes; the largest default grid has 101.
MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:step' into an inclusive, strictly increasing grid: the one grid check.

    A step below the float spacing rounds neighbouring points to one value.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid entries must be numbers: {spec!r}")
    if not np.isfinite((lo, hi, step)).all():
        raise argparse.ArgumentTypeError(f"grid entries must be finite: {spec!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need hi >= lo and step > 0: {spec!r}")
    steps = (hi - lo) / step  # inf where hi - lo overflows, so test it before round()
    if steps >= MAX_GRID_POINTS or round(steps) + 1 > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid has more than {MAX_GRID_POINTS} points: {spec!r}")
    grid = lo + step * np.arange(round(steps) + 1)
    grid = grid[grid <= hi + 1e-12 * max(1.0, abs(hi))]
    if (np.diff(grid) <= 0.0).any():
        raise argparse.ArgumentTypeError(f"grid points must be strictly increasing: {spec!r}")
    return grid


def _positive_int(text: str) -> int:
    """Parse a count of at least 1; a run over no pairs or blocklengths checks nothing."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group()
    src.add_argument("--input", type=Path, help="JSON file with rho and sigma matrices")
    src.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named pair (default: qubit-generic)",
    )
    sub.add_argument("--out", help="output directory for CSV/JSON files")
    sub.add_argument(
        "--smooth", nargs="?", const=1e-6, type=float, metavar="DELTA",
        help="mix states with DELTA * I/d (default 1e-6); without it rank deficiency is an error",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared after it.

    Sharing is safe because every default is a scalar or a string, and
    argparse converts string defaults afresh on each parse, so no parse sees
    another's grid arrays.
    """
    parser = argparse.ArgumentParser(
        prog="qht",
        description="Error exponents and finite-n bounds for quantum hypothesis testing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("exponents", help="print exponent values at chosen s")
    _add_common(p)
    p.add_argument("--grid-s", type=_parse_grid, default="0:1:0.1")

    p = commands.add_parser("curves", help="sweep the four exponent functions")
    _add_common(p)
    p.add_argument("--grid-s", type=_parse_grid, default="0:1:0.01")
    p.add_argument("--grid-a", type=_parse_grid, default=None)

    p = commands.add_parser("hoeffding", help="trade-off rate over an r-grid")
    _add_common(p)
    p.add_argument("--grid-r", type=_parse_grid, default="0.01:0.5:0.01")

    p = commands.add_parser("finite-n", help="exact finite-n errors and envelopes")
    _add_common(p)
    p.add_argument("--n-max", type=_positive_int, default=4)
    p.add_argument("--grid-a", type=_parse_grid, default=None)

    p = commands.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=_positive_int, default=10)
    p.add_argument("--n-max", type=_positive_int, default=4)

    p = commands.add_parser("conjecture", help="plain-test probe (EXPERIMENTAL)")
    _add_common(p)
    p.add_argument("--n-max", type=_positive_int, help="default: largest n <= 6 with d^n <= 729")
    p.add_argument("--grid-a", type=_parse_grid, default=None)

    return parser


def _load(args):
    if args.input is None:
        pair = preset_pair(args.preset or "qubit-generic")
    else:
        pair = ser.load_pair(args.input)
    return pair if args.smooth is None else pair.smoothed(args.smooth)


def _cannot_write(path, exc: OSError) -> ValueError:
    return ValueError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _make_out_dir(out_dir: str | None) -> None:
    """Create ``--out`` once, before any work, so an unusable path prints no table."""
    if out_dir is None:
        return
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(out_dir, exc) from exc


def _write_table(out_dir: str | None, stem: str, table: ser.Table, payload=None) -> str:
    """Return ``table`` as CSV; under ``--out`` also write it as ``stem.csv`` and ``stem.json``.

    The JSON is ``payload`` (the table itself by default), which holds the
    table.  Each format is rendered once, the JSON only under ``--out``,
    which ``main`` has already created.
    """
    csv_text = ser.table_to_csv(table)
    if out_dir is not None:
        json_text = ser.payload_to_json(table if payload is None else payload)
        for name, text in ((f"{stem}.csv", csv_text), (f"{stem}.json", json_text)):
            path = Path(out_dir) / name
            try:
                path.write_bytes(text.encode("utf-8"))
            except OSError as exc:
                raise _cannot_write(path, exc) from exc
    return csv_text


def _cmd_exponents(args) -> int:
    pair = _load(args)
    grid = args.grid_s
    div = relative_entropy(pair)
    # every column before the first line, so a grid outside [0, 1] prints nothing
    columns = [grid.tolist(), psi_bar_values(pair, grid).tolist(), psi_values(pair, grid).tolist()]
    print(f"dim = {pair.dim}")
    print(f"relative_entropy = {ser.format_cell(div)}")
    table = ser.Table(("s", "psi_bar", "psi"), columns)
    sys.stdout.write(_write_table(args.out, "exponents", table))
    return 0


def _cmd_curves(args) -> int:
    pair = _load(args)
    div = relative_entropy(pair)
    a_grid = args.grid_a if args.grid_a is not None else np.linspace(-0.5, div + 0.5, 101)
    s, a = args.grid_s.tolist(), a_grid.tolist()
    # phi_bar and phi give (value, argmax_s) at each a; every curve before any file
    curves = {
        "psi_bar": ("s", [s, psi_bar_values(pair, args.grid_s).tolist(), [None] * len(s)]),
        "psi": ("s", [s, psi_values(pair, args.grid_s).tolist(), [None] * len(s)]),
        "phi_bar": ("a", [a, *map(list, zip(*[phi_bar(pair, x) for x in a]))]),
        "phi": ("a", [a, *map(list, zip(*[phi(pair, x) for x in a]))]),
    }
    for name, (parameter_name, columns) in curves.items():
        table = ser.Table(("param", "value", "argmax_s"), columns)
        payload = {"parameter_name": parameter_name, "samples": table}
        csv_text = _write_table(args.out, name, table, payload)
        if args.out is None:
            sys.stdout.write(f"# {name}\n" + csv_text)
    if args.out is not None:
        print(f"wrote psi_bar/psi/phi_bar/phi curves to {args.out}")
    return 0


def _cmd_hoeffding(args) -> int:
    pair = _load(args)
    rates = args.grid_r.tolist()
    # the threshold a_r is the rate objective's maximum u(r) minus r
    u = [hoeffding_rate(pair, r) for r in rates]
    table = ser.Table(("r", "u", "a_r"), [rates, u, [u_r - r for u_r, r in zip(u, rates)]])
    sys.stdout.write(_write_table(args.out, "hoeffding", table))
    return 0


def _cmd_finite_n(args) -> int:
    pair = _load(args)
    div = relative_entropy(pair)
    a_grid = args.grid_a if args.grid_a is not None else np.array(THRESHOLD_FRACTIONS) * div
    reports = verify_bounds(pair, range(1, args.n_max + 1), a_grid)
    sys.stdout.write(_write_table(args.out, "bound_report", ser.records(BoundReport, reports)))
    return 0


def _cmd_verify(args) -> int:
    results = run_all_checks(seed=args.seed, pairs=args.pairs, n_max=args.n_max)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_conjecture(args) -> int:
    pair = _load(args)
    n_max = args.n_max or max(n for n in range(1, 7) if n == 1 or pair.dim**n <= 729)
    div = relative_entropy(pair)
    a_grid = args.grid_a if args.grid_a is not None else np.array([0.5 * div])
    print("# EXPERIMENTAL: the rate targets below are proven upper bounds for the plain")
    print("# test (Audenaert et al., PRL 98, 160501, 2007); this table asserts nothing.")
    for a in a_grid:
        report = conjecture_probe(pair, range(1, n_max + 1), float(a))
        stem = f"conjecture_a_{ser.format_cell(float(a))}"
        table = ser.records(ConjectureRow, report.rows)
        payload = dict(vars(report), rows=table)
        sys.stdout.write(_write_table(args.out, stem, table, payload))
    return 0


_DISPATCH = {
    "exponents": _cmd_exponents,
    "curves": _cmd_curves,
    "hoeffding": _cmd_hoeffding,
    "finite-n": _cmd_finite_n,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _make_out_dir(getattr(args, "out", None))  # verify takes no --out
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout drains to devnull so the exit flush prints nothing; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (QhtError, ValueError, RateTooSmallWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
