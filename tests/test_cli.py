import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qht
from qht import serialization as ser
from qht.cli import MAX_GRID_POINTS, _parse_grid, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def fresh_run(argv, flags=()):
    """``python FLAGS -m qht ARGV`` with this checkout's sources, in a new interpreter."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "qht", *argv],
        capture_output=True,
        text=True,
        env=checkout_env(),
        timeout=60,
        check=False,
    )


def read_files(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestGridParsing:
    def test_inclusive_grid(self):
        grid = _parse_grid("0:1:0.25")
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_malformed(self):
        import argparse

        for bad in ("0:1", "a:b:c", "1:0:0.1", "0:1:0", "0:inf:0.1", "-inf:1:0.1",
                    "0:1:inf", "nan:1:0.1"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_grid(bad)
        # steps below the float spacing round neighbouring points to one value
        for bad in ("0.5:0.5000000000000001:1e-17", "1e16:1.0000000000000004e16:1"):
            with pytest.raises(argparse.ArgumentTypeError, match="strictly increasing"):
                _parse_grid(bad)

    def test_point_cap(self):
        import argparse

        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        for bad in (f"0:{MAX_GRID_POINTS}:1", "-1e308:1e308:1", "0:1e12:1", "0:1:1e-320"):
            with pytest.raises(argparse.ArgumentTypeError, match="more than"):
                _parse_grid(bad)

    @pytest.mark.parametrize("grid", ["-1e308:1e308:1", "0:1e12:1"])
    def test_too_many_points_is_a_usage_error(self, grid):
        # hi - lo overflowing and a grid too large to allocate both exit 2
        # with one error line, before any array is formed
        done = fresh_run(["exponents", f"--grid-s={grid}"])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert errors == [
            f"qht exponents: error: argument --grid-s: grid has more than "
            f"{MAX_GRID_POINTS} points: {grid!r}"
        ]


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # psi_bar at 10001 points prints far more than a pipe buffer holds, so
    # the process is still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "qht", "curves", "--grid-s", "0:1:0.0001"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    try:
        assert proc.stdout.readline() == b"# psi_bar\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert err == b""


# Each table command on small grids, the stems of the files it writes under
# --out in the order it prints them, and the key of the JSON mirror that holds
# the rows (None where the mirror is the list of rows itself).
TABLE_COMMANDS = [
    (["exponents", "--grid-s", "0:1:0.25"], ["exponents"], None),
    (
        ["curves", "--grid-s", "0:1:0.25", "--grid-a=-0.5:0.5:0.25"],
        ["psi_bar", "psi", "phi_bar", "phi"],
        "samples",
    ),
    (["hoeffding", "--grid-r", "0.05:0.2:0.05"], ["hoeffding"], None),
    (["finite-n", "--n-max", "2"], ["bound_report"], None),
    (
        ["conjecture", "--preset", "identical", "--n-max", "2", "--grid-a=-0.5:0:0.5"],
        ["conjecture_a_-0.5", "conjecture_a_0"],
        "rows",
    ),
]


def csv_cell(text: str):
    """A CSV cell as its JSON mirror holds it: empty as null, inf and nan as text, else a number."""
    if text == "":
        return None
    if text in ("inf", "-inf", "nan"):
        return text
    return float(text)


class TestExponentsCommand:
    def test_identical_preset_reports_zero(self, capsys):
        code, out, _ = run(capsys, "exponents", "--preset", "identical", "--grid-s", "0:1:0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dim = 2"
        assert float(lines[1].split("=")[1]) == pytest.approx(0.0, abs=1e-12)
        for row in lines[3:]:
            _, pb, pp = row.split(",")
            assert abs(float(pb)) <= 1e-12
            assert abs(float(pp)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(qht.PRESETS))
    def test_input_named_like_a_preset_is_read(self, capsys, tmp_path, monkeypatch, name):
        pair = qht.random_pair(5, 2)
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(ser.pair_to_json(pair), encoding="utf-8")
        code, out, _ = run(capsys, "exponents", "--input", name)
        assert code == 0
        expected = ser.format_cell(qht.relative_entropy(pair))
        assert out.splitlines()[1] == f"relative_entropy = {expected}"

    def test_default_grid(self, capsys):
        # argparse applies the grid type to string defaults too
        assert isinstance(build_parser().parse_args(["exponents"]).grid_s, np.ndarray)
        code, out, _ = run(capsys, "exponents", "--preset", "qubit-generic")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[2] == "s,psi_bar,psi"
        s_values = [float(row.split(",")[0]) for row in lines[3:]]
        assert s_values == pytest.approx([0.1 * k for k in range(11)], abs=1e-15)

    @pytest.mark.parametrize(
        "argv,stems,key", TABLE_COMMANDS, ids=[argv[0] for argv, _, _ in TABLE_COMMANDS]
    )
    def test_out_writes_the_printed_table(self, capsys, tmp_path, argv, stems, key):
        _, plain, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        names = sorted(f"{stem}.{suffix}" for stem in stems for suffix in ("csv", "json"))
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        tables = [(tmp_path / f"{stem}.csv").read_text(encoding="utf-8") for stem in stems]
        if argv[0] == "curves":
            # with --out, curves prints where it wrote its tables instead of them
            assert plain == "".join(f"# {stem}\n{text}" for stem, text in zip(stems, tables))
            assert out == f"wrote psi_bar/psi/phi_bar/phi curves to {tmp_path}\n"
        else:
            assert out == plain
            assert out.endswith("".join(tables))
        for stem, text in zip(stems, tables):
            mirror = json.loads((tmp_path / f"{stem}.json").read_text(encoding="utf-8"))
            rows = mirror if key is None else mirror[key]
            header, *lines = text.splitlines()
            assert len(rows) == len(lines) > 0
            for row, line in zip(rows, lines):
                assert list(row) == header.split(",")
                assert list(row.values()) == [csv_cell(cell) for cell in line.split(",")]

    def test_module_entry_point(self, capsys):
        # python -m qht runs the same command line as main()
        argv = ["exponents", "--preset", "commuting-1", "--grid-s", "0:1:0.5"]
        done = fresh_run(argv)
        code, out, _ = run(capsys, *argv)
        assert done.returncode == code == 0
        assert done.stdout == out


# In one process, calls whose options differ from the call before, a usage
# error and --help, each followed by a valid call.  The last argv repeats the
# first.  The flag says whether the call also gets --out.
SHARED_PARSER_SEQUENCE = [
    (["exponents", "--grid-s", "0:1:0.5"], True),
    (["exponents"], True),
    (["curves", "--smooth", "1e-3"], True),
    (["curves"], True),
    (["exponents", "--input", "f", "--preset", "identical"], False),
    (["hoeffding", "--grid-r", "0.1:0.3:0.1"], True),
    (["--help"], False),
    (["exponents", "--grid-s", "0:1:0.5"], True),
]


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_invocations(self, capsys, monkeypatch, tmp_path):
        # the help text wraps at the terminal width, which COLUMNS fixes for both sides
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        out_dir = tmp_path / "out"
        fresh = {}
        for argv, takes_out in SHARED_PARSER_SEQUENCE:
            argv = argv + (["--out", str(out_dir)] if takes_out else [])
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            files = read_files(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            if tuple(argv) not in fresh:
                done = fresh_run(argv)
                fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr, read_files(out_dir))
                shutil.rmtree(out_dir, ignore_errors=True)
            assert (code, captured.out, captured.err, files) == fresh[tuple(argv)], argv
        assert [code for code, *_ in fresh.values()] == [0, 0, 0, 0, 2, 0, 0]
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()


# Runs in a fresh interpreter and reports which optional imports each step loaded.
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
import qht.cli

def heavy():
    return sorted(name for name in ("decimal", "mpmath", "numpy.random") if name in sys.modules)

seen = {"import": heavy()}
layers = sorted(name for name in sys.modules if name.startswith("qht."))
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(qht.cli.main(["exponents"]))
    seen["exponents"] = heavy()
    codes.append(qht.cli.main(["verify", "--pairs", "1", "--n-max", "1"]))
    seen["verify"] = heavy()
print(json.dumps({"seen": seen, "layers": layers, "codes": codes}))
"""


class TestImportFootprint:
    def test_fresh_process_loads_only_what_the_run_uses(self):
        # numpy.random and decimal load only for verify's random draws and its
        # derivative check, and mpmath never; every layer module that
        # perfbench/spans.py wraps is loaded by import qht.cli
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["codes"] == [0, 0]
        assert report["seen"]["import"] == []
        assert report["seen"]["exponents"] == []
        assert "mpmath" not in report["seen"]["verify"]
        layers = ("checks", "cli", "exponents", "finite_n", "operators", "pairs", "serialization")
        assert {f"qht.{layer}" for layer in layers} <= set(report["layers"])


class TestCurvesCommand:
    def test_commuting_columns_coincide(self, capsys, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, _ = run(
            capsys,
            "curves",
            "--preset",
            "commuting-1",
            "--grid-s",
            "0:1:0.01",
            "--grid-a",
            "0:0.4:0.1",
            "--out",
            str(out_dir),
        )
        assert code == 0
        pb = (out_dir / "psi_bar.csv").read_text().strip().split("\n")[1:]
        pp = (out_dir / "psi.csv").read_text().strip().split("\n")[1:]
        assert len(pb) == 101
        for row_bar, row_plain in zip(pb, pp):
            v1 = float(row_bar.split(",")[1])
            v2 = float(row_plain.split(",")[1])
            assert abs(v1 - v2) <= 1e-10
        for name in ("psi_bar", "psi", "phi_bar", "phi"):
            assert (out_dir / f"{name}.csv").exists()
            assert (out_dir / f"{name}.json").exists()

    def test_deterministic_output(self, capsys, tmp_path):
        args = ["curves", "--preset", "qubit-generic", "--grid-s", "0:1:0.1",
                "--grid-a", "0:0.3:0.1"]
        dir_one = tmp_path / "one"
        dir_two = tmp_path / "two"
        assert run(capsys, *args, "--out", str(dir_one))[0] == 0
        assert run(capsys, *args, "--out", str(dir_two))[0] == 0
        for name in ("psi_bar.csv", "psi.csv", "phi_bar.csv", "phi.csv",
                     "psi_bar.json", "phi.json"):
            assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()


class TestHoeffdingCommand:
    def test_table_consistency(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "hoeffding",
            "--preset",
            "qubit-generic",
            "--grid-r",
            "0.05:0.15:0.05",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "r,u,a_r"
        for row in rows[1:]:
            r, u, a_r = (float(x) for x in row.split(","))
            assert u == pytest.approx(r + a_r, abs=1e-7)
        assert (tmp_path / "hoeffding.csv").exists()
        payload = json.loads((tmp_path / "hoeffding.json").read_text())
        assert len(payload) == len(rows) - 1


class TestFiniteNCommand:
    def test_bound_table(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "finite-n",
            "--preset",
            "qubit-generic",
            "--n-max",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("n,a,alpha")
        assert len(rows) == 1 + 3 * 4  # default grid: four fractions of D
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[2]) <= float(fields[3]) + 1e-12
            assert float(fields[4]) <= float(fields[5]) + 1e-12
        assert (tmp_path / "bound_report.csv").read_text() == out


# stdout of `qht verify --seed 3 --pairs 5 --n-max 3`: the verdicts and
# worst margins do not depend on how a check counts or solves
VERIFY_SEED3_PAIRS5_NMAX3 = """\
[PASS] pinching commutation: worst 5.525e-16 (tol 1.0e-09)
[PASS] pinching trace identity: worst 1.971e-14 (tol 1.0e-09)
[PASS] key operator inequality: worst 9.101e-04 (tol -1.0e-09)
[PASS] eigenvalue count vs (n+1)^d: worst 0.000e+00 (tol 0.0e+00)
[PASS] inverse-power domination: worst 1.395e-02 (tol -1.0e-08)
[PASS] spectral round-trip: worst 6.685e-16 (tol 1.0e-10)
[PASS] operator convexity closed form: worst 5.347e-02 (tol -1.0e-10) max entrywise gap 9.058e-15
[PASS] pinched below plain exponent: worst 5.551e-16 (tol 1.0e-09)
[PASS] phi_bar shape: worst 8.882e-16 (tol 1.0e-09)
[PASS] derivative consistency: worst 6.139e-10 (tol 1.0e-06)
[PASS] rate-parameter consistency: worst 2.220e-15 (tol 1.0e-07)
[PASS] commuting-case reduction: worst 0.000e+00 (tol 1.0e-09)
[PASS] unitary invariance: worst 2.439e-15 (tol 1.0e-09)
[PASS] finite-n envelopes: worst 0.000e+00 (tol 1.0e-12)
[PASS] test projections and mass: worst 1.519e-15 (tol 1.0e-09) mass defect 5.551e-16 (tol 1e-12)
[PASS] pinched equals plain when commuting: worst 1.110e-16 (tol 1.0e-10)
[PASS] error monotonicity in a: worst 0.000e+00 (tol 1.0e-12)
17/17 checks passed
"""


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "3", "--pairs", "2", "--n-max", "2")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_pinned_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "3", "--pairs", "5", "--n-max", "3")
        assert code == 0
        assert out == VERIFY_SEED3_PAIRS5_NMAX3

    def test_seeded_output_deterministic(self, capsys):
        args = ("verify", "--seed", "5", "--pairs", "2", "--n-max", "2")
        code_one, out_one, _ = run(capsys, *args)
        code_two, out_two, _ = run(capsys, *args)
        assert code_one == code_two == 0
        assert out_one == out_two

    def test_full_property_suite(self, capsys):
        # the documented full run: 20 pairs, tensor powers to n = 4
        code, out, _ = run(
            capsys, "verify", "--seed", "7", "--pairs", "20", "--n-max", "4"
        )
        assert code == 0
        assert "17/17 checks passed" in out


class TestConjectureCommand:
    def test_experimental_banner(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--preset", "qubit-generic", "--n-max", "2"
        )
        assert code == 0
        assert out.splitlines()[:2] == [
            "# EXPERIMENTAL: the rate targets below are proven upper bounds for the plain",
            "# test (Audenaert et al., PRL 98, 160501, 2007); this table asserts nothing.",
        ]
        assert "log_alpha_rate" in out


    @pytest.mark.parametrize("dim,n_max", [(2, 6), (3, 6), (4, 4), (5, 4), (6, 3), (28, 1)])
    def test_default_n_max_keeps_d_to_the_n_within_729(self, capsys, tmp_path, dim, n_max):
        # the largest n <= 6 with d^n <= 3^6, the largest default block for
        # d <= 3, worked out from the loaded pair; an explicit --n-max is
        # taken as given
        path = tmp_path / "pair.json"
        path.write_text(qht.pair_to_json(qht.random_pair(0, dim)), encoding="utf-8")
        code, out, _ = run(capsys, "conjecture", "--input", str(path))
        assert code == 0
        assert [int(row.split(",")[0]) for row in out.splitlines()[3:]] == list(range(1, n_max + 1))
        code, explicit, _ = run(capsys, "conjecture", "--input", str(path), "--n-max", str(n_max))
        assert explicit == out
        if dim == 4:
            code, out, _ = run(capsys, "conjecture", "--input", str(path), "--n-max", "5")
            assert code == 0
            assert len(out.splitlines()[3:]) == 5


class TestErrorPaths:
    def test_invalid_pair_file_names_invariant(self, capsys, tmp_path):
        from qht import serialization as ser

        payload = {
            "rho": ser.matrix_to_dict(np.diag([0.5, 0.49])),
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "exponents", "--input", str(path))
        assert code == 2
        assert "InvariantViolation(trace)" in err

    def test_non_hermitian_named(self, capsys, tmp_path):
        payload = {
            "rho": {"dim": 2, "re": [[0.5, 0.3], [0.0, 0.5]], "im": [[0, 0], [0, 0]]},
            "sigma": {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]},
        }
        path = tmp_path / "nonherm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "exponents", "--input", str(path))
        assert code == 2
        assert "hermitian" in err

    # '' is the path of the working directory, a directory, not a call for the default pair
    @pytest.mark.parametrize("name", ["/nonexistent.json", ""], ids=["missing", "empty"])
    def test_missing_file(self, capsys, name):
        code, out, err = run(capsys, "exponents", "--input", name)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: cannot read ")

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["exponents", "curves", "hoeffding", "finite-n", "conjecture"])
    @pytest.mark.parametrize(
        "rho,sigma",
        [
            (np.diag([1.0, 0.0]), np.diag([0.5, 0.5])),
            (np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0])),
        ],
        ids=["singular-rho", "singular-sigma"],
    )
    def test_rank_deficient_input_needs_smooth(self, capsys, tmp_path, command, rho, sigma):
        # every table command reads the relative entropy or psi_bar, which
        # need full support, before it prints or writes anything
        path = tmp_path / "singular.json"
        path.write_text(ser.pair_to_json(qht.HypothesisPair(rho, sigma)), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, command, "--input", str(path), "--out", str(out_dir))
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "requires positive definite states" in line
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []
        smooth_code, smooth_out, _ = run(capsys, command, "--input", str(path), "--smooth", "1e-6")
        assert smooth_code == 0 and smooth_out
        # a bare --smooth takes the default delta, 1e-6
        assert run(capsys, command, "--input", str(path), "--smooth") == (0, smooth_out, "")

    # there is no strict mode to set, and --smooth takes its delta itself
    @pytest.mark.parametrize(
        "flags,unrecognized",
        [
            ("--strict", "--strict"),
            ("--smoothing-delta 0.5", "--smoothing-delta 0.5"),
            ("--smooth --smoothing-delta 0.5", "--smoothing-delta 0.5"),
        ],
        ids=["strict", "smoothing-delta", "smooth-smoothing-delta"],
    )
    def test_removed_mode_flags_are_usage_errors(self, capsys, monkeypatch, flags, unrecognized):
        monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--preset", "qubit-generic", *flags.split()])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [usage, line] = captured.err.splitlines()
        assert usage.startswith("usage: qht ")
        assert line == f"qht: error: unrecognized arguments: {unrecognized}"

    @pytest.mark.parametrize(
        "command,value",
        [
            ("exponents", "0.5"),
            ("curves", "0.5"),
            ("hoeffding", "0.5"),
            ("finite-n", "1.0"),
            ("conjecture", "0.5"),
        ],
    )
    def test_tol_cluster_rejected_where_nothing_clusters(self, capsys, command, value):
        # the clustering tolerance is the fixed CLUSTER_REL_TOL: no command
        # sets it, the two whose tests cluster eigenvalues included
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol-cluster", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"qht: error: unrecognized arguments: --tol-cluster {value}"
        ]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("verify", "--pairs", "0"),
            ("verify", "--pairs", "-1"),
            ("verify", "--n-max", "0"),
            ("finite-n", "--n-max", "0"),
            ("conjecture", "--n-max", "0"),
            ("conjecture", "--n-max", "two"),
        ],
        ids=lambda part: part.removeprefix("--"),
    )
    def test_counts_below_one_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}" in captured.err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("exponents", "--grid-s", "0:inf:0.1"),
            ("curves", "--grid-a", "-inf:1:0.1"),
            ("hoeffding", "--grid-r", "0.1:inf:0.1"),
        ],
        ids=lambda part: part.removeprefix("--"),
    )
    def test_non_finite_grid_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"qht {command}: error: argument {flag}: grid entries must be finite: {value!r}"
        ]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("exponents", "--grid-s", "0.5:0.5000000000000001:1e-17"),
            ("curves", "--grid-a", "0.5:0.5000000000000001:1e-17"),
            ("hoeffding", "--grid-r", "1e16:1.0000000000000004e16:1"),
            ("finite-n", "--grid-a", "1e16:1.0000000000000004e16:1"),
            ("conjecture", "--grid-a", "1e16:1.0000000000000004e16:1"),
        ],
        ids=lambda part: part.removeprefix("--"),
    )
    def test_collapsed_grid_rejected(self, capsys, tmp_path, command, flag, value):
        # a step below the float spacing repeats points; the parse rejects the
        # grid before --out is made, so no table is printed and no file written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"qht {command}: error: argument {flag}: grid points must be strictly increasing: {value!r}"
        ]
        assert not out.exists()  # no psi_bar.csv from curves, nor any other file

    @pytest.mark.parametrize("grid", ["-0.1:1:0.1", "0:1.5:0.5"])
    def test_s_outside_unit_interval_prints_nothing(self, capsys, grid):
        code, out, err = run(capsys, "exponents", f"--grid-s={grid}")
        assert code == 2
        assert out == ""
        assert err == "error: s must lie in [0, 1]\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_unusable_out_rejected_before_any_work(self, capsys, tmp_path, sub):
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / sub if sub else afile
        code, stdout, err = run(capsys, "exponents", "--out", str(out))
        assert code == 2
        assert stdout == ""
        reason = "Not a directory" if sub else "File exists"
        assert err == f"error: cannot write {str(out)!r}: {reason}\n"
        assert afile.read_text(encoding="utf-8") == "kept\n"

    def test_failed_write_is_a_usage_error(self, capsys, tmp_path):
        (tmp_path / "exponents.csv").mkdir()
        code, _, err = run(capsys, "exponents", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: cannot write {str(tmp_path / 'exponents.csv')!r}: ")
        assert len(err.splitlines()) == 1

    def test_out_exists_before_validation(self, capsys, tmp_path):
        out = tmp_path / "made"
        code, _, err = run(capsys, "exponents", "--smooth", "2", "--out", str(out))
        assert code == 2
        assert err == "error: smoothing delta must lie in (0, 1), got 2.0\n"
        assert out.is_dir() and not any(out.iterdir())

    def test_rate_below_the_value_at_zero_rejected(self, capsys):
        # psi_bar(0) = -log Tr rho is 6.7e-16 on qubit-generic in floats: no a_r
        # exists below it, and the rate objective has no finite maximum
        code, out, err = run(capsys, "hoeffding", "--preset", "qubit-generic",
                             "--grid-r", "1e-17:1e-17:1")
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: rate must exceed ")
        assert line.endswith("got 1e-17")

    def test_each_rate_warning_prints_once(self):
        # u(r) comes from one maximization per r, and a_r = u(r) - r from no other
        done = fresh_run(["hoeffding", "--preset", "qubit-generic", "--grid-r", "1e-9:3e-9:1e-9"])
        assert done.returncode == 0
        warned = [line for line in done.stderr.splitlines() if "RateTooSmallWarning" in line]
        assert len(warned) == 1

    def test_escalated_rate_warning_is_a_usage_error(self, capsys):
        # under -W error the warning is raised; exit 1 is kept for a failed verification
        argv = ["hoeffding", "--preset", "qubit-generic", "--grid-r", "1e-9:3e-9:1e-9"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        done = fresh_run(argv, flags=["-W", "error"])
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: rate objective peaked at the first positive grid point")

    def test_over_budget_range_rejected_before_any_blocklength(self, capsys):
        code, out, err = run(capsys, "finite-n", "--preset", "qubit-generic", "--n-max", "127")
        assert code == 2
        assert out == ""
        assert err == "error: spectrum length 4160 (spin blocks at n = 127) exceeds budget 4096\n"
        # the plain test repeats the spin-block spectra to 2^n eigenvalues
        code, _, err = run(capsys, "conjecture", "--preset", "qubit-generic", "--n-max", "13")
        assert code == 2
        assert err == "error: dim 2^13 exceeds budget 4096\n"
