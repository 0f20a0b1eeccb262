import json
import math

import numpy as np
import pytest

import qht
from qht import serialization as ser
from qht.cli import _SAMPLE_COLUMNS, _curve_payload
from qht.exponents import ExponentCurve
from qht.finite_n import BoundReport, ConjectureReport, ConjectureRow, SteinPoint


def curve_csv(curve):
    return ser.table_to_csv(_SAMPLE_COLUMNS, _curve_payload(curve)["samples"])


def curve_json(curve):
    return ser.payload_to_json(_curve_payload(curve))


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
        pair = qht.load_pair("commuting-1")
        assert pair.dim == 2
        np.testing.assert_allclose(pair.rho, np.diag([0.5, 0.5]))
        assert np.abs(pair.rho @ pair.sigma - pair.sigma @ pair.rho).max() <= 1e-15

    def test_unknown_preset(self):
        with pytest.raises(qht.ParseError):
            qht.load_pair("no-such-preset")

    def test_file_roundtrip(self, tmp_path, generic):
        path = tmp_path / "pair.json"
        path.write_text(qht.pair_to_json(generic), encoding="utf-8")
        loaded = qht.load_pair(str(path))
        np.testing.assert_array_equal(loaded.rho, generic.rho)

    def test_smoothing_applied(self, tmp_path):
        payload = {
            "rho": ser.matrix_to_dict(np.diag([1.0, 0.0])),
            "sigma": ser.matrix_to_dict(np.diag([0.5, 0.5])),
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        tol = qht.ToleranceConfig(strict=False)
        pair = qht.load_pair(str(path), tol, smoothing_delta=1e-6)
        assert qht.relative_entropy(pair) > 0.0


class TestCurveExport:
    def test_csv_shape_and_precision(self, generic):
        curve = qht.sweep_curve(generic, "psi_bar", np.linspace(0.0, 1.0, 5))
        text = curve_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "param,value,argmax_s"
        assert len(lines) == 6
        # psi curves carry no argmax column values
        assert lines[1].endswith(",")
        # 17 significant digits survive a float round trip
        value = float(lines[2].split(",")[1])
        assert value == pytest.approx(float(curve.values[1]), abs=0.0)

    def test_phi_curve_has_argmax(self, generic):
        curve = qht.sweep_curve(generic, "phi_bar", np.linspace(-0.1, 0.3, 5))
        rows = curve_csv(curve).strip().split("\n")[1:]
        assert all(len(r.split(",")) == 3 and r.split(",")[2] != "" for r in rows)

    def test_json_mirror(self, generic):
        curve = qht.sweep_curve(generic, "phi", np.linspace(-0.1, 0.3, 3))
        payload = json.loads(curve_json(curve))
        assert payload["parameter_name"] == "a"
        assert len(payload["samples"]) == 3
        sample = payload["samples"][0]
        assert set(sample) == {"param", "value", "argmax_s"}

    def test_negative_zero_normalized(self):
        assert ser._fmt(-0.0) == "0"


class TestReportExports:
    def test_bound_report_csv_columns(self, generic):
        reports = qht.verify_bounds(generic, [1, 2], [0.1])
        text = ser.table_to_csv(BoundReport, reports)
        header = text.split("\n", 1)[0]
        assert header == "n,a,alpha,alpha_bound,beta,beta_bound,key_residual,v_sigma_n,type_bound"
        payload = json.loads(ser.payload_to_json(reports))
        assert len(payload) == 2
        assert payload[0]["n"] == 1

    def test_stein_export(self, generic):
        points = qht.stein_trace(generic, 0.1, 3)
        text = ser.table_to_csv(SteinPoint, points)
        assert text.startswith("n,a,alpha,alpha_bound,beta,log_beta_rate,log_beta_envelope")
        payload = json.loads(ser.payload_to_json(points))
        assert [row["n"] for row in payload] == [1, 2, 3]

    def test_conjecture_export_handles_infinities(self, identical):
        report = qht.conjecture_probe(identical, [1, 2], -0.5)
        text = ser.table_to_csv(ConjectureRow, report.rows)
        assert "-inf" in text
        payload = json.loads(ser.payload_to_json(report))
        assert payload["label"] == "EXPERIMENTAL"
        assert payload["rows"][0]["log_alpha_rate"] == "-inf"

    def test_nan_written_as_nan(self):
        # the JSON mirror of a CSV row says nan where the CSV does, not inf
        rows = [{"x": float("nan"), "y": float("inf"), "z": float("-inf")}]
        assert ser.table_to_csv(("x", "y", "z"), rows) == "x,y,z\nnan,inf,-inf\n"
        assert json.loads(ser.payload_to_json(rows)) == [{"x": "nan", "y": "inf", "z": "-inf"}]

    def test_hoeffding_table(self):
        text = ser.table_to_csv(("r", "u", "a_r"), [(0.1, 0.2, 0.1)])
        assert text == "r,u,a_r\n0.10000000000000001,0.20000000000000001,0.10000000000000001\n"


class TestPinnedFormats:
    """Writer output for hand-built records, compared byte for byte."""

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
        assert ser.table_to_csv(BoundReport, [report]) == (
            "n,a,alpha,alpha_bound,beta,beta_bound,key_residual,v_sigma_n,type_bound\n"
            "2,0.10000000000000001,0.012345678901234568,7.3685767777018363,0,1e-300,"
            "3.5000000000000001e-15,3,9\n"
        )
        assert ser.payload_to_json([report]) == (
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
        assert ser.table_to_csv(ConjectureRow, report.rows) == (
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
        assert ser.payload_to_json(report) == (
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
        assert ser.table_to_csv(SteinPoint, [point]) == (
            "n,a,alpha,alpha_bound,beta,log_beta_rate,log_beta_envelope\n"
            "3,0.20000000000000001,0.050000000000000003,11.853091530907486,0,-inf,"
            "0.72419624074659361\n"
        )
        assert ser.payload_to_json([point]) == (
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
        curve = ExponentCurve("s", np.array([0.0, 0.5, 1.0]), np.array([-0.0, 1 / 3, 0.0]))
        assert curve_csv(curve) == (
            "param,value,argmax_s\n0,0,\n0.5,0.33333333333333331,\n1,0,\n"
        )
        sample = '    {{\n      "param": {p},\n      "value": {v},\n      "argmax_s": null\n    }}'
        assert curve_json(curve) == (
            '{\n  "parameter_name": "s",\n  "samples": [\n'
            + ",\n".join(
                sample.format(p=p, v=v)
                for p, v in (("0.0", "-0.0"), ("0.5", "0.3333333333333333"), ("1.0", "0.0"))
            )
            + "\n  ]\n}\n"
        )

    def test_phi_curve_with_argmax(self):
        curve = ExponentCurve(
            "a",
            np.array([-0.5, 0.0, 0.25]),
            np.array([0.0, 0.1, 2 / 3]),
            np.array([1.0, 0.5, 0.0]),
        )
        assert curve_csv(curve) == (
            "param,value,argmax_s\n"
            "-0.5,0,1\n"
            "0,0.10000000000000001,0.5\n"
            "0.25,0.66666666666666663,0\n"
        )
        sample = '    {{\n      "param": {p},\n      "value": {v},\n      "argmax_s": {m}\n    }}'
        assert curve_json(curve) == (
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
        row = {"r": 0.1, "u": 0.2, "a_r": 0.1}
        assert ser.table_to_csv(("r", "u", "a_r"), [row]) == (
            "r,u,a_r\n0.10000000000000001,0.20000000000000001,0.10000000000000001\n"
        )
        assert ser.payload_to_json([row]) == (
            '[\n  {\n    "r": 0.1,\n    "u": 0.2,\n    "a_r": 0.1\n  }\n]\n'
        )
