import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qht
from qht import serialization as ser
from qht.cli import main
from qht.finite_n import BoundReport, ConjectureReport, ConjectureRow, SteinPoint


class TestMatrixExchange:
    def test_dict_roundtrip(self):
        M = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        out = ser.matrix_from_dict(ser.matrix_to_dict(M))
        np.testing.assert_array_equal(out, M)

    def test_malformed_rejected(self):
        with pytest.raises(qht.ParseError):
            ser.matrix_from_dict({"dim": 2, "re": [[1.0]]})
        with pytest.raises(qht.ParseError):
            ser.matrix_from_dict([1, 2, 3])
        with pytest.raises(qht.ParseError):
            ser.matrix_from_dict({"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]})


# A pair file with sigma = I/2; the slots are rho's dim, re[0][0] and im[0][1], as JSON text.
PAIR_TEXT = (
    '{"rho": {"dim": %s, "re": [[%s, 0], [0, 0.5]], "im": [[0, %s], [0, 0]]}, '
    '"sigma": {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}}'
)


class TestMatrixValidation:
    """Malformed pair files are ParseErrors, raised while parsing, before any eigensolve."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entries(self, literal):
        for text in (PAIR_TEXT % (2, literal, 0), PAIR_TEXT % (2, 0.5, literal)):
            with pytest.raises(qht.ParseError, match="entries must be finite"):
                qht.pair_from_json(text)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(qht.ParseError, match="dim must be an integer"):
            qht.pair_from_json(PAIR_TEXT % (json.dumps(dim), 0.5, 0))

    @pytest.mark.parametrize("entry", ["0.5", True, None, [0.5], 10**400])
    def test_entries_must_be_numbers(self, entry):
        with pytest.raises(qht.ParseError, match="must be numbers|malformed"):
            qht.pair_from_json(PAIR_TEXT % (2, json.dumps(entry), 0))

    def test_ints_and_floats_accepted(self):
        pair = qht.pair_from_json(PAIR_TEXT % (2, 0.5, 0))
        np.testing.assert_array_equal(pair.rho, np.eye(2) / 2)

    def test_no_eigensolve_before_the_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve on unparsed input")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for text in (PAIR_TEXT % (2, "NaN", 0), PAIR_TEXT % (2.5, 0.5, 0), PAIR_TEXT % (2, '"0.5"', 0)):
            with pytest.raises(qht.ParseError):
                qht.pair_from_json(text)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_cli_exit_2_under_warnings_as_errors(self, tmp_path, literal):
        path = tmp_path / "pair.json"
        path.write_text(PAIR_TEXT % (2, literal, 0), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qht", "exponents", "--input", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
            check=False,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == 'error: matrix "re" entries must be finite\n'


class TestPairRoundtrip:
    def test_exponents_preserved_exactly(self, generic):
        text = qht.pair_to_json(generic)
        loaded = qht.pair_from_json(text)
        # entries survive the JSON round trip bit for bit, so values do too
        for s in (0.2, 0.5, 0.8):
            assert abs(qht.psi_bar(loaded, s) - qht.psi_bar(generic, s)) <= 1e-12
            assert abs(qht.psi(loaded, s) - qht.psi(generic, s)) <= 1e-12
        assert abs(
            qht.relative_entropy(loaded) - qht.relative_entropy(generic)
        ) <= 1e-12

    def test_missing_keys(self):
        with pytest.raises(qht.ParseError):
            qht.pair_from_json(json.dumps({"rho": ser.matrix_to_dict(np.eye(2) / 2)}))

    def test_invalid_json(self):
        with pytest.raises(qht.ParseError):
            qht.pair_from_json("{not json")

    def test_trace_violation_on_load(self):
        payload = {
            "rho": ser.matrix_to_dict(np.diag([0.5, 0.49])),
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        with pytest.raises(qht.InvariantViolation) as err:
            qht.pair_from_json(json.dumps(payload))
        assert err.value.check == "trace"

    def test_non_hermitian_on_load(self):
        payload = {
            "rho": {"dim": 2, "re": [[0.5, 0.3], [0.0, 0.5]], "im": [[0, 0], [0, 0]]},
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        with pytest.raises(qht.NonHermitianInput) as err:
            qht.pair_from_json(json.dumps(payload))
        assert err.value.check == "hermitian"


class TestLoadPair:
    def test_presets(self):
        pair = qht.preset_pair("commuting-1")
        assert pair.dim == 2
        np.testing.assert_allclose(pair.rho, np.diag([0.5, 0.5]))
        assert np.abs(pair.rho @ pair.sigma - pair.sigma @ pair.rho).max() <= 1e-15

    def test_unknown_preset(self, tmp_path, monkeypatch):
        # load_pair reads files only: a preset's name with no such file is an error
        monkeypatch.chdir(tmp_path)
        for name in ("no-such-preset", "commuting-1"):
            with pytest.raises(qht.ParseError, match="cannot read"):
                qht.load_pair(name)
        with pytest.raises(qht.ParseError, match="unknown preset"):
            qht.preset_pair("no-such-preset")

    @pytest.mark.parametrize("name", ["pair.json", "identical"])
    def test_file_roundtrip(self, tmp_path, monkeypatch, generic, name):
        # a str or path-like is read as a file, even where its name is a preset's
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.write_text(qht.pair_to_json(generic), encoding="utf-8")
        for source in (str(path), path, Path(name), name):
            loaded = qht.load_pair(source)
            np.testing.assert_array_equal(loaded.rho, generic.rho)

    def test_smoothing_applied(self, tmp_path):
        payload = {
            "rho": ser.matrix_to_dict(np.diag([1.0, 0.0])),
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        pair = qht.load_pair(str(path)).smoothed(1e-6)
        assert qht.relative_entropy(pair) > 0.0


class TestCurveExport:
    """The curve tables ``qht curves`` writes, read back from its files."""

    def curve_files(self, tmp_path, *grids):
        argv = ["curves", "--preset", "qubit-generic", *grids, "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tmp_path

    def test_csv_shape_and_precision(self, generic, tmp_path):
        out = self.curve_files(tmp_path, "--grid-s", "0:1:0.25", "--grid-a", "0:0.1:0.1")
        values = qht.psi_bar_values(generic, np.linspace(0.0, 1.0, 5))
        text = (out / "psi_bar.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "param,value,argmax_s"
        assert len(lines) == 6
        # psi curves carry no argmax column values
        assert lines[1].endswith(",")
        # 17 significant digits survive a float round trip
        value = float(lines[2].split(",")[1])
        assert value == pytest.approx(float(values[1]), abs=0.0)

    def test_phi_curve_has_argmax(self, tmp_path):
        out = self.curve_files(tmp_path, "--grid-s", "0:1:0.5", "--grid-a=-0.1:0.3:0.1")
        rows = (out / "phi_bar.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
        assert len(rows) == 5
        assert all(len(r.split(",")) == 3 and r.split(",")[2] != "" for r in rows)

    def test_json_mirror(self, tmp_path):
        out = self.curve_files(tmp_path, "--grid-s", "0:1:0.5", "--grid-a=-0.1:0.3:0.2")
        payload = json.loads((out / "psi.json").read_text(encoding="utf-8"))
        assert payload["parameter_name"] == "s"
        payload = json.loads((out / "phi.json").read_text(encoding="utf-8"))
        assert payload["parameter_name"] == "a"
        assert len(payload["samples"]) == 3
        sample = payload["samples"][0]
        assert set(sample) == {"param", "value", "argmax_s"}

    def samples(self, out, name):
        payload = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        rows = payload["samples"]
        return payload["parameter_name"], *(np.array([r[k] for r in rows]) for k in oracles._SAMPLE_COLUMNS)

    def test_psi_bar_starts_at_origin(self, tmp_path):
        name, params, values, argmax = self.samples(self.curve_files(tmp_path), "psi_bar")
        assert name == "s"
        assert params[0] == 0.0
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert argmax.tolist() == [None] * len(params)

    def test_phi_bar_nonincreasing_with_argmax(self, tmp_path):
        out = self.curve_files(tmp_path, "--grid-a=-0.2:0.5:0.05")
        name, params, values, argmax = self.samples(out, "phi_bar")
        assert name == "a"
        assert len(params) == 15
        assert (np.diff(values) <= 1e-9).all()
        assert ((argmax >= 0.0) & (argmax <= 1.0)).all()

    def test_psi_bar_below_psi_pointwise(self, tmp_path):
        out = self.curve_files(tmp_path, "--grid-s", "0:1:0.05")
        _, s_low, low, _ = self.samples(out, "psi_bar")
        _, s_high, high, _ = self.samples(out, "psi")
        assert np.array_equal(s_low, s_high)
        assert (low <= high + 1e-9).all()

    def test_out_of_range_grid_writes_no_file(self, tmp_path, capsys):
        # every curve is computed before the first file, so a bad s leaves none
        out = tmp_path / "out"
        assert main(["curves", "--grid-s=-0.1:1:0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: s must lie in [0, 1]\n"
        assert list(out.iterdir()) == []

    def test_curve_columns_have_equal_length(self, tmp_path):
        out = self.curve_files(tmp_path, "--grid-s", "0:1:0.25", "--grid-a=-0.1:0.3:0.1")
        for name, count in (("psi_bar", 5), ("psi", 5), ("phi_bar", 5), ("phi", 5)):
            columns = self.samples(out, name)[1:]
            assert [len(column) for column in columns] == [count] * 3
            rows = (out / f"{name}.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
            assert [len(row.split(",")) for row in rows] == [3] * count

    def test_curve_parameter_is_s_or_a(self, tmp_path):
        # psi curves are sampled over s, the transforms over a; nothing over r
        out = self.curve_files(tmp_path)
        names = {name: self.samples(out, name)[0] for name in ("psi_bar", "psi", "phi_bar", "phi")}
        assert names == {"psi_bar": "s", "psi": "s", "phi_bar": "a", "phi": "a"}

    def test_negative_zero_normalized(self):
        assert ser.format_cell(-0.0) == "0"


class TestReportExports:
    def test_bound_report_csv_columns(self, generic):
        table = ser.records(BoundReport, qht.verify_bounds(generic, [1, 2], [0.1]))
        header = ser.table_to_csv(table).split("\n", 1)[0]
        assert header == "n,a,alpha,alpha_bound,beta,beta_bound,key_residual,v_sigma_n,type_bound"
        payload = json.loads(ser.payload_to_json(table))
        assert len(payload) == 2
        assert payload[0]["n"] == 1

    def test_stein_export(self, generic):
        table = ser.records(SteinPoint, qht.stein_trace(generic, 0.1, 3))
        text = ser.table_to_csv(table)
        assert text.startswith("n,a,alpha,alpha_bound,beta,log_beta_rate,log_beta_envelope")
        payload = json.loads(ser.payload_to_json(table))
        assert [row["n"] for row in payload] == [1, 2, 3]

    def test_conjecture_export_handles_infinities(self, identical):
        report = qht.conjecture_probe(identical, [1, 2], -0.5)
        table = ser.records(ConjectureRow, report.rows)
        assert "-inf" in ser.table_to_csv(table)
        payload = json.loads(ser.payload_to_json(dict(vars(report), rows=table)))
        assert payload["label"] == "EXPERIMENTAL"
        assert payload["rows"][0]["log_alpha_rate"] == "-inf"

    def test_nan_written_as_nan(self):
        # the JSON mirror of a CSV row says nan where the CSV does, not inf
        table = ser.Table(("x", "y", "z"), [[math.nan], [math.inf], [-math.inf]])
        assert ser.table_to_csv(table) == "x,y,z\nnan,inf,-inf\n"
        assert json.loads(ser.payload_to_json(table)) == [{"x": "nan", "y": "inf", "z": "-inf"}]

    def test_hoeffding_table(self):
        text = ser.table_to_csv(ser.Table(("r", "u", "a_r"), [[0.1], [0.2], [0.1]]))
        assert text == "r,u,a_r\n0.10000000000000001,0.20000000000000001,0.10000000000000001\n"

    def test_text_column_reads_back(self):
        labels = ["0.7", "foo", "a,b", 'say "hi"', "two\nlines", ""]
        xs = [0.5 * k for k in range(len(labels))]
        table = ser.Table(("label", "x"), [labels, xs])
        text = ser.table_to_csv(table)
        assert text.startswith('label,x\n0.7,0\nfoo,0.5\n"a,b",1\n"say ""hi""",1.5\n')
        back = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [row["label"] for row in back] == labels
        assert [float(row["x"]) for row in back] == xs
        assert [row["label"] for row in json.loads(ser.payload_to_json(table))] == labels


CURVE_COLUMNS = ("param", "value", "argmax_s")


class TestPinnedFormats:
    """Writer output for hand-built tables, compared byte for byte.

    A table of records writes the same JSON as the list of records it was
    gathered from.
    """

    def test_bound_report(self):
        report = BoundReport(
            n=2,
            a=0.1,
            alpha=0.012345678901234568,
            alpha_bound=9.0 * math.exp(-0.2),
            beta=-0.0,
            beta_bound=1e-300,
            key_residual=3.5e-15,
            v_sigma_n=3,
            type_bound=9,
        )
        table = ser.records(BoundReport, [report])
        assert ser.table_to_csv(table) == (
            "n,a,alpha,alpha_bound,beta,beta_bound,key_residual,v_sigma_n,type_bound\n"
            "2,0.10000000000000001,0.012345678901234568,7.3685767777018363,0,1e-300,"
            "3.5000000000000001e-15,3,9\n"
        )
        assert ser.payload_to_json(table) == ser.payload_to_json([report]) == (
            "[\n"
            "  {\n"
            '    "n": 2,\n'
            '    "a": 0.1,\n'
            '    "alpha": 0.012345678901234568,\n'
            '    "alpha_bound": 7.368576777701836,\n'
            '    "beta": -0.0,\n'
            '    "beta_bound": 1e-300,\n'
            '    "key_residual": 3.5e-15,\n'
            '    "v_sigma_n": 3,\n'
            '    "type_bound": 9\n'
            "  }\n"
            "]\n"
        )

    def test_conjecture_report_infinities_and_negative_zero(self):
        rows = tuple(
            ConjectureRow(
                n=n,
                a=-0.5,
                alpha=0.0,
                log_alpha_rate=-math.inf,
                alpha_conjecture=-0.0,
                beta=beta,
                log_beta_rate=rate,
                beta_conjecture=0.5,
            )
            for n, beta, rate in ((1, 1.0, 0.0), (2, 0.25, -math.log(2.0)))
        )
        report = ConjectureReport(label="EXPERIMENTAL", a=-0.5, phi_value=-0.0, rows=rows)
        table = ser.records(ConjectureRow, report.rows)
        assert ser.table_to_csv(table) == (
            "n,a,alpha,log_alpha_rate,alpha_conjecture,beta,log_beta_rate,beta_conjecture\n"
            "1,-0.5,0,-inf,0,1,0,0.5\n"
            "2,-0.5,0,-inf,0,0.25,-0.69314718055994529,0.5\n"
        )
        row_json = (
            "    {{\n"
            '      "n": {n},\n'
            '      "a": -0.5,\n'
            '      "alpha": 0.0,\n'
            '      "log_alpha_rate": "-inf",\n'
            '      "alpha_conjecture": -0.0,\n'
            '      "beta": {beta},\n'
            '      "log_beta_rate": {rate},\n'
            '      "beta_conjecture": 0.5\n'
            "    }}"
        )
        as_written = dict(vars(report), rows=table)
        assert ser.payload_to_json(as_written) == ser.payload_to_json(report) == (
            "{\n"
            '  "label": "EXPERIMENTAL",\n'
            '  "a": -0.5,\n'
            '  "phi_value": -0.0,\n'
            '  "rows": [\n'
            + row_json.format(n=1, beta="1.0", rate="0.0")
            + ",\n"
            + row_json.format(n=2, beta="0.25", rate="-0.6931471805599453")
            + "\n  ]\n}\n"
        )

    def test_stein_point(self):
        point = SteinPoint(
            n=3,
            a=0.2,
            alpha=0.05,
            alpha_bound=16 * math.exp(-0.3),
            beta=0.0,
            log_beta_rate=-math.inf,
            log_beta_envelope=-0.2 + (2 / 3) * math.log(4.0),
        )
        table = ser.records(SteinPoint, [point])
        assert ser.table_to_csv(table) == (
            "n,a,alpha,alpha_bound,beta,log_beta_rate,log_beta_envelope\n"
            "3,0.20000000000000001,0.050000000000000003,11.853091530907486,0,-inf,"
            "0.72419624074659361\n"
        )
        assert ser.payload_to_json(table) == ser.payload_to_json([point]) == (
            "[\n"
            "  {\n"
            '    "n": 3,\n'
            '    "a": 0.2,\n'
            '    "alpha": 0.05,\n'
            '    "alpha_bound": 11.853091530907486,\n'
            '    "beta": 0.0,\n'
            '    "log_beta_rate": "-inf",\n'
            '    "log_beta_envelope": 0.7241962407465936\n'
            "  }\n"
            "]\n"
        )

    def test_psi_curve_without_argmax(self):
        table = ser.Table(CURVE_COLUMNS, [[0.0, 0.5, 1.0], [-0.0, 1 / 3, 0.0], [None] * 3])
        assert ser.table_to_csv(table) == (
            "param,value,argmax_s\n0,0,\n0.5,0.33333333333333331,\n1,0,\n"
        )
        sample = '    {{\n      "param": {p},\n      "value": {v},\n      "argmax_s": null\n    }}'
        assert ser.payload_to_json({"parameter_name": "s", "samples": table}) == (
            '{\n  "parameter_name": "s",\n  "samples": [\n'
            + ",\n".join(
                sample.format(p=p, v=v)
                for p, v in (("0.0", "-0.0"), ("0.5", "0.3333333333333333"), ("1.0", "0.0"))
            )
            + "\n  ]\n}\n"
        )

    def test_phi_curve_with_argmax(self):
        table = ser.Table(CURVE_COLUMNS, [[-0.5, 0.0, 0.25], [0.0, 0.1, 2 / 3], [1.0, 0.5, 0.0]])
        assert ser.table_to_csv(table) == (
            "param,value,argmax_s\n"
            "-0.5,0,1\n"
            "0,0.10000000000000001,0.5\n"
            "0.25,0.66666666666666663,0\n"
        )
        sample = '    {{\n      "param": {p},\n      "value": {v},\n      "argmax_s": {m}\n    }}'
        assert ser.payload_to_json({"parameter_name": "a", "samples": table}) == (
            '{\n  "parameter_name": "a",\n  "samples": [\n'
            + ",\n".join(
                sample.format(p=p, v=v, m=m)
                for p, v, m in (
                    ("-0.5", "0.0", "1.0"),
                    ("0.0", "0.1", "0.5"),
                    ("0.25", "0.6666666666666666", "0.0"),
                )
            )
            + "\n  ]\n}\n"
        )

    def test_hoeffding_row(self):
        table = ser.Table(("r", "u", "a_r"), [[0.1], [0.2], [0.1]])
        assert ser.table_to_csv(table) == (
            "r,u,a_r\n0.10000000000000001,0.20000000000000001,0.10000000000000001\n"
        )
        assert ser.payload_to_json(table) == (
            '[\n  {\n    "r": 0.1,\n    "u": 0.2,\n    "a_r": 0.1\n  }\n]\n'
        )


# Cells the writers take: floats at every edge, numpy float64, ints, bools,
# None and strings (the CSV writer reads a string as a float, as it always did).
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
TEXT = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "naïve ∞ 🙂", "100%", "%s%%", "", "1.5", "-inf"]),
    st.text(max_size=8),
)
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    TEXT,
)
# a column is all floats, all float64, all ints, all None or any mix
COLUMN_CELLS = st.sampled_from([FLOATS, FLOATS.map(np.float64), st.integers(), st.none(), SCALARS])


@dataclasses.dataclass(frozen=True)
class Triple:
    x: object
    y: object
    z: object


@st.composite
def tables(draw, numeric=False):
    """(columns, rows) with one row kind: records, dicts keyed by the columns or sequences."""
    kind = draw(st.sampled_from(["record", "dict", "tuple", "list"]))
    names = ["x", "y", "z"] if kind == "record" else draw(st.lists(TEXT, max_size=4, unique=True))
    count = draw(st.integers(0, 6))
    columns = []
    for _ in names:
        cells = FLOATS if numeric else draw(COLUMN_CELLS)
        columns.append(draw(st.lists(cells, min_size=count, max_size=count)))
    rows = list(zip(*columns))  # a table without columns has no rows
    if kind == "record":
        return Triple, [Triple(*row) for row in rows]
    if kind == "dict":
        return names, [dict(zip(names, row)) for row in rows]
    return names, [list(row) if kind == "list" else row for row in rows]


@st.composite
def conjecture_reports(draw):
    rows = draw(st.lists(st.tuples(st.integers(1, 12), *[SCALARS] * 7), max_size=5))
    return ConjectureReport(
        label=draw(TEXT),
        a=draw(SCALARS),
        phi_value=draw(FLOATS),
        rows=tuple(ConjectureRow(*row) for row in rows),
    )


@st.composite
def curves(draw):
    count = draw(st.integers(0, 8))
    params = np.cumsum(draw(st.lists(st.floats(0.001, 10.0), min_size=count, max_size=count)))
    params = params - draw(st.floats(-5.0, 5.0))
    values = np.array(draw(st.lists(FLOATS, min_size=count, max_size=count)), dtype=float)
    argmax = None
    if draw(st.booleans()):
        argmax = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)))
    return draw(st.sampled_from(["s", "a"])), params, values, argmax


def payloads():
    """The shapes the JSON writer serves, and nestings that defeat the column path."""
    cell_lists = st.lists(SCALARS, max_size=4)
    leaves = st.one_of(SCALARS, cell_lists)
    nested = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(TEXT, inner, max_size=3),
            st.tuples(inner, inner),
        ),
        max_leaves=12,
    )
    curve_wrappers = st.builds(
        lambda name, samples: {"parameter_name": name, "samples": samples},
        st.sampled_from(["s", "a"]),
        tables().map(lambda table: [dict(zip("pvm", row)) for row in zip(*columns_of(*table))]),
    )
    return st.one_of(
        tables().map(lambda table: table[1]),
        conjecture_reports(),
        curve_wrappers,
        nested,
        # records of one shape, some with a container in a field
        st.lists(st.builds(Triple, leaves, leaves, SCALARS), min_size=1, max_size=4),
        st.lists(st.fixed_dictionaries({"k": SCALARS, "v": leaves}), min_size=1, max_size=4),
        st.lists(st.one_of(st.builds(Triple, SCALARS, SCALARS, SCALARS), st.dictionaries(TEXT, SCALARS)), max_size=4),
    )


def columns_of(columns, rows):
    """The cells of a generated table, column by column."""
    if columns is Triple:
        return [[row.x for row in rows], [row.y for row in rows], [row.z for row in rows]]
    if rows and isinstance(rows[0], dict):
        return [[row[name] for row in rows] for name in columns]
    return [list(column) for column in zip(*rows)]


def same_outcome(new, old, *args):
    """``new(*args)`` returns what ``old(*args)`` returns, or raises the same error type."""
    try:
        expected = old(*args)
    except Exception as exc:  # noqa: BLE001 - the reference decides which errors are expected
        with pytest.raises(type(exc)):
            new(*args)
    else:
        assert new(*args) == expected


def as_table(columns, rows) -> ser.Table:
    """A generated table as the writers take it: records by ``records``, other rows by column."""
    if dataclasses.is_dataclass(columns):
        return ser.records(columns, rows)
    return ser.Table(columns, columns_of(columns, rows))


def csv_of(columns, rows) -> str:
    return ser.table_to_csv(as_table(columns, rows))


def row_objects(table: ser.Table) -> list[dict]:
    """The rows of ``table`` as dicts keyed by its names, as the reference writes them."""
    return [dict(zip(table.names, row)) for row in zip(*table.columns)]


class TestWritersMatchReference:
    """The column-wise writers against the cell-by-cell ones they replaced (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_csv(self, table):
        same_outcome(csv_of, oracles.table_to_csv, *table)

    @settings(max_examples=200, deadline=None)
    @given(tables(numeric=True))
    def test_numeric_csv(self, table):
        assert csv_of(*table) == oracles.table_to_csv(*table)

    @settings(max_examples=300, deadline=None)
    @given(payloads())
    def test_json(self, payload):
        assert ser.payload_to_json(payload) == oracles.payload_to_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(tables(), st.booleans())
    def test_table_json(self, table, wrapped):
        # a table is a list of row objects, alone or as a curve's samples
        table = as_table(*table)
        reference = row_objects(table)
        if wrapped:
            table, reference = ({"parameter_name": "s", "samples": x} for x in (table, reference))
        assert ser.payload_to_json(table) == oracles.payload_to_json(reference)

    @settings(max_examples=100, deadline=None)
    @given(conjecture_reports())
    def test_conjecture_report(self, report):
        expected = oracles.payload_to_json(report)
        table = ser.records(ConjectureRow, report.rows)
        assert ser.payload_to_json(dict(vars(report), rows=table)) == expected
        assert ser.payload_to_json(report) == expected
        same_outcome(csv_of, oracles.table_to_csv, ConjectureRow, report.rows)

    @settings(max_examples=100, deadline=None)
    @given(curves())
    def test_curve(self, curve):
        payload = oracles._curve_payload(*curve)
        table = as_table(oracles._SAMPLE_COLUMNS, payload["samples"])
        written = {"parameter_name": curve[0], "samples": table}
        assert ser.payload_to_json(written) == oracles.payload_to_json(payload)
        reference = oracles.table_to_csv(oracles._SAMPLE_COLUMNS, payload["samples"])
        assert ser.table_to_csv(table) == reference

    def test_edge_cells(self):
        rows = [dict(zip("ab", (x, np.float64(x)))) for x in EDGE_FLOATS] + [{"a": None, "b": 7}]
        table = as_table(("a", "b"), rows)
        assert ser.table_to_csv(table) == oracles.table_to_csv(("a", "b"), rows)
        assert ser.payload_to_json(table) == oracles.payload_to_json(rows)
        assert ser.payload_to_json(rows) == oracles.payload_to_json(rows)

    def test_column_path_decisions(self):
        # each of the first five cases steers one choice between a column's
        # one-pass format and cell-by-cell; the rest are lists of rows that
        # no table holds, written by the recursive path
        floats = [0.5, -0.0, 5e-324, 1.7976931348623157e308]
        cases = [
            [{"x": x} for x in floats],  # all finite floats: one format per column
            [{"x": x} for x in floats + [math.inf, math.nan]],  # non-finite: cell by cell
            [{"x": np.float64(x)} for x in floats],
            [{"x": None, "y": True}, {"x": None, "y": False}],  # all-None column, bools
            [{"100%": 1, '"q"': "%s"}],  # keys and text that carry % and quotes
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # same keys, other order
            [{"a": [1.5]}, {"a": [2.5]}],  # a container in a field
            [Triple(1, 2, 3), {"x": 1, "y": 2, "z": 3}],  # two kinds of record
        ]
        for rows in cases:
            assert ser.payload_to_json(rows) == oracles.payload_to_json(rows)
        for rows in cases[:5]:
            columns = list(rows[0])
            table = as_table(columns, rows)
            assert ser.payload_to_json(table) == oracles.payload_to_json(rows)
            assert ser.table_to_csv(table) == oracles.table_to_csv(columns, rows)

    def test_empty_tables(self):
        for columns in (BoundReport, ("a", "b"), ()):
            table = as_table(columns, [])
            assert ser.table_to_csv(table) == oracles.table_to_csv(columns, [])
            assert ser.payload_to_json(table) == oracles.payload_to_json([])
        for payload in ([], (), {}, [{}], [{}, {}], {"rows": []}):
            assert ser.payload_to_json(payload) == oracles.payload_to_json(payload)

    def test_unserializable_cell_raises_as_json_does(self):
        for cell in (np.float32(0.5), np.int64(3), object()):
            with pytest.raises(TypeError):
                oracles.payload_to_json([{"x": cell}])
            with pytest.raises(TypeError):
                ser.payload_to_json([{"x": cell}])
            with pytest.raises(TypeError):
                ser.payload_to_json(ser.Table(("x",), [[cell]]))

    def test_format_cell_is_the_csv_cell(self):
        for x in EDGE_FLOATS + [None, 3, True, np.float64(-0.0), 0.1, "2.5"]:
            assert ser.format_cell(x) == (str(x) if isinstance(x, int) else oracles._fmt(x))
