"""File formats: the JSON matrix exchange schema and CSV/JSON table exports.

A matrix travels as ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major entries and is validated against the Hermitian invariant on
load.  Every result table goes through two writers.  ``table_to_csv``
writes a header of column names, which for a record table are its
dataclass's field names in order, then one line per row: ints as
``str``, floats at 17 significant digits with ``-0.0`` written as ``0``,
infinities as ``inf``/``-inf``, NaN as ``nan`` and None as an empty cell.
``payload_to_json`` writes records as dicts of their fields (recursing
into tuples and lists), keeps ``-0.0`` and writes non-finite floats as the
strings ``"inf"``/``"-inf"``/``"nan"``, since strict JSON has no literal for
them.
Identical inputs produce byte-identical outputs.
"""

import dataclasses
import json
import math

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ParseError
from .pairs import HypothesisPair, PRESETS, preset_pair


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def _jnum(x):
    # strict JSON has no Infinity or NaN literal
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "-inf" if x < 0 else "inf"


def matrix_to_dict(M) -> dict:
    A = np.asarray(M, dtype=complex)
    return {
        "dim": int(A.shape[0]),
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a matrix object, got {type(obj).__name__}")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(
            f"matrix entries must be {dim}x{dim}, got {re.shape} and {im.shape}"
        )
    return re + 1j * im


def pair_to_json(pair: HypothesisPair) -> str:
    payload = {
        "rho": matrix_to_dict(pair.rho),
        "sigma": matrix_to_dict(pair.sigma),
    }
    return json.dumps(payload, indent=2) + "\n"


def pair_from_json(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> HypothesisPair:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "rho" not in payload or "sigma" not in payload:
        raise ParseError('pair files need top-level "rho" and "sigma" matrices')
    rho = matrix_from_dict(payload["rho"])
    sigma = matrix_from_dict(payload["sigma"])
    return HypothesisPair(rho, sigma, tol)


def load_pair(
    path_or_preset: str,
    tol: ToleranceConfig = DEFAULT_TOL,
    smoothing_delta: float | None = None,
) -> HypothesisPair:
    """Load a pair from a preset name or a JSON file, optionally smoothed."""
    if path_or_preset in PRESETS:
        pair = preset_pair(path_or_preset, tol)
    else:
        try:
            with open(path_or_preset, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path_or_preset!r}: {exc}") from exc
        pair = pair_from_json(text, tol)
    if smoothing_delta is not None:
        pair = pair.smoothed(smoothing_delta)
    return pair


def _cells(row, names):
    if dataclasses.is_dataclass(row):
        return [getattr(row, name) for name in names]
    if isinstance(row, dict):
        return [row[name] for name in names]
    return list(row)


def table_to_csv(columns, rows) -> str:
    """CSV table: a header line, then one line per row.

    ``columns`` is a record dataclass, whose field names in order are the
    header, or a sequence of column names.  A row is a record, a dict keyed
    by the column names or a sequence in column order.
    """
    if dataclasses.is_dataclass(columns):
        columns = [f.name for f in dataclasses.fields(columns)]
    lines = [",".join(columns)]
    for row in rows:
        cells = _cells(row, columns)
        lines.append(",".join(str(x) if isinstance(x, int) else _fmt(x) for x in cells))
    return "\n".join(lines) + "\n"


def _plain(obj):
    if isinstance(obj, float):
        return _jnum(obj)
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def payload_to_json(obj) -> str:
    """Indented JSON of records (as field dicts), dicts, lists and scalars."""
    return json.dumps(_plain(obj), indent=2) + "\n"
