import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qht
from qht import serialization as ser
from qht.cli import _parse_grid, build_parser, main
from qht.finite_n import ConjectureRow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_inclusive_grid(self):
        grid = _parse_grid("0:1:0.25")
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_malformed(self):
        import argparse

        for bad in ("0:1", "a:b:c", "1:0:0.1", "0:1:0"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_grid(bad)


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

    def test_default_grid(self, capsys):
        # argparse applies the grid type to string defaults too
        assert isinstance(build_parser().parse_args(["exponents"]).grid_s, np.ndarray)
        code, out, _ = run(capsys, "exponents", "--preset", "qubit-generic")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[2] == "s,psi_bar,psi"
        s_values = [float(row.split(",")[0]) for row in lines[3:]]
        assert s_values == pytest.approx([0.1 * k for k in range(11)], abs=1e-15)


    def test_module_entry_point(self, capsys):
        # python -m qht runs the same command line as main()
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        argv = ["exponents", "--preset", "commuting-1", "--grid-s", "0:1:0.5"]
        done = subprocess.run(
            [sys.executable, "-m", "qht", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=False,
        )
        code, out, _ = run(capsys, *argv)
        assert done.returncode == code == 0
        assert done.stdout == out


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
[PASS] rate-parameter consistency: worst 4.007e-11 (tol 1.0e-07)
[PASS] commuting-case reduction: worst 0.000e+00 (tol 1.0e-09)
[PASS] unitary invariance: worst 2.279e-15 (tol 1.0e-09)
[PASS] finite-n envelopes: worst 0.000e+00 (tol 1.0e-12)
[PASS] test projections and mass: worst 1.855e-15 (tol 1.0e-09) mass defect 1.332e-15 (tol 1e-12)
[PASS] pinched equals plain when commuting: worst 0.000e+00 (tol 1.0e-10)
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

    def test_tol_cluster_reaches_the_probe(self, capsys):
        argv = ["conjecture", "--preset", "qubit-generic", "--n-max", "4"]
        code, default, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--tol-cluster", "0.5")
        assert code == 0
        assert out != default
        pair = qht.preset_pair("qubit-generic", qht.ToleranceConfig(cluster_rel_tol=0.5))
        report = qht.conjecture_probe(pair, range(1, 5), 0.5 * qht.relative_entropy(pair))
        assert out.splitlines(keepends=True)[2:] == ser.table_to_csv(
            ConjectureRow, report.rows
        ).splitlines(keepends=True)


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "exponents", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_smooth_mode_accepts_singular_input(self, capsys, tmp_path):
        from qht import serialization as ser

        payload = {
            "rho": ser.matrix_to_dict(np.diag([1.0, 0.0])),
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        strict_code, _, _ = run(capsys, "exponents", "--input", str(path))
        assert strict_code == 2
        smooth_code, out, _ = run(
            capsys, "exponents", "--input", str(path), "--smooth",
            "--smoothing-delta", "1e-6",
        )
        assert smooth_code == 0
        assert "relative_entropy" in out

    def test_smoothing_delta_needs_smooth(self, capsys):
        code, out, err = run(
            capsys, "exponents", "--preset", "qubit-generic", "--smoothing-delta", "0.5"
        )
        assert code == 2
        assert out == ""
        assert "--smooth" in err

    @pytest.mark.parametrize("command", ["exponents", "curves", "hoeffding"])
    def test_tol_cluster_rejected_where_nothing_clusters(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol-cluster", "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("command", ["finite-n", "conjecture"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_cluster_rejected(self, capsys, command, value):
        code, out, err = run(capsys, command, "--n-max", "2", "--tol-cluster", value)
        assert code == 2
        assert out == ""
        assert "finite and strictly positive" in err

    def test_over_budget_range_rejected_before_any_blocklength(self, capsys):
        code, out, err = run(capsys, "finite-n", "--preset", "qubit-generic", "--n-max", "13")
        assert code == 2
        assert out == ""
        assert err == "error: dim 2^13 exceeds budget 4096\n"
