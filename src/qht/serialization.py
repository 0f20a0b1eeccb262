"""File formats: the JSON matrix exchange schema and CSV/JSON table exports.

A matrix travels as ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major entries.  On load ``dim`` must be an int and every entry a finite
JSON number; the matrix is then validated against the Hermitian invariant.

A result table is a list of records (dataclass instances or dicts) or of
rows in column order.  ``table_to_csv`` writes a header of column names,
which for a record table are its dataclass's field names in order, then one
line per row, each cell as ``format_cell`` writes it: ints as ``str``,
text verbatim (quoted by the ``csv`` module's rules where it must be),
floats at 17 significant digits with ``-0.0`` written as ``0``, infinities
as ``inf``/``-inf``, NaN as ``nan`` and None as an empty cell.
``payload_to_json`` writes records as objects of their fields (recursing
into dicts, tuples and lists) laid out as ``json.dumps(obj, indent=2)`` lays
them out; it keeps ``-0.0`` and writes non-finite floats as the strings
``"inf"``/``"-inf"``/``"nan"``, since strict JSON has no literal for them.
An exponent curve goes straight from its arrays to ``curve_to_csv`` and
``curve_to_json``, as a table with the columns ``param, value, argmax_s``.

Both writers work a column at a time.  A table's cells are gathered into
columns once; each column is formatted in one pass chosen by the types of
its cells, and the whole table is filled into one row template by a single
``%``.  Only the small objects around a table (a report's header fields, a
curve's parameter name) take the recursive path.  JSON is not written with
``json.dumps(indent=...)``: CPython's C encoder serves only ``indent=None``,
so an indented dump formats every value in the pure-Python encoder.
Identical inputs produce byte-identical outputs.
"""

import dataclasses
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ParseError
from .pairs import HypothesisPair, PRESETS, preset_pair


def format_cell(x) -> str:
    """One CSV cell: None empty, an int as ``str``, text verbatim, anything else as a float.

    Text that holds a comma, a double quote or a line break is quoted as the
    ``csv`` module quotes it, with each quote doubled.  Floats take 17
    significant digits, ``-0.0`` reads ``0`` and non-finite values ``inf``,
    ``-inf`` and ``nan``.
    """
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        if any(ch in x for ch in ',"\r\n'):
            return '"%s"' % x.replace('"', '""')
        return x
    return "%.17g" % (float(x) + 0.0)


def matrix_to_dict(M) -> dict:
    A = np.asarray(M, dtype=complex)
    return {
        "dim": int(A.shape[0]),
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def _entries(obj: dict, part: str) -> np.ndarray:
    """The real array of one entry list; each entry must be a finite JSON number."""
    cells = np.asarray(obj[part], dtype=object)
    if not all(type(x) in (int, float) for x in cells.flat):
        raise ParseError(f'matrix "{part}" entries must be numbers')
    values = cells.astype(float)
    if not np.isfinite(values).all():
        raise ParseError(f'matrix "{part}" entries must be finite')
    return values


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a matrix object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        if type(dim) is not int:
            raise ParseError(f"matrix dim must be an integer, got {dim!r}")
        re = _entries(obj, "re")
        im = _entries(obj, "im")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    return _json(payload) + "\n"


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


class _Rows:
    """A table held column by column: ``columns[j][i]`` is cell j of row i."""

    __slots__ = ("names", "columns", "count")

    def __init__(self, names, columns: list[list], count: int):
        self.names, self.columns, self.count = names, columns, count


def _table(names, rows) -> _Rows:
    """Gather ``rows`` (all records, all dicts or all sequences) into columns."""
    rows = list(rows)
    if not rows:
        columns = []
    elif dataclasses.is_dataclass(rows[0]):
        columns = [list(map(attrgetter(name), rows)) for name in names]
    elif isinstance(rows[0], dict):
        columns = [list(map(itemgetter(name), rows)) for name in names]
    else:
        columns = [list(column) for column in zip(*rows, strict=True)]
    return _Rows(names, columns, len(rows))


def _fill(template: str, columns) -> str:
    """``template`` filled row after row by one ``%``.

    A column that is None is written as a literal in the template.
    """
    cells = zip(*[column for column in columns if column is not None])
    return template % tuple(chain.from_iterable(cells))


_NONE = {type(None)}


def _csv_column(cells) -> tuple[str, list | None]:
    """The row-template field and the values of one CSV column."""
    kinds = set(map(type, cells))
    if kinds == _NONE:
        return "", None
    if all(issubclass(kind, float) for kind in kinds):
        return "%.17g", [x + 0.0 for x in cells]
    return "%s", list(map(format_cell, cells))


def _csv(table: _Rows) -> str:
    specs, values = zip(*map(_csv_column, table.columns)) if table.columns else ((), ())
    line = ",".join(specs) + "\n"
    return ",".join(table.names) + "\n" + _fill(line * table.count, values)


def table_to_csv(columns, rows) -> str:
    """CSV table: a header line, then one line per row.

    ``columns`` is a record dataclass, whose field names in order are the
    header, or a sequence of column names.  The rows are all records, all
    dicts keyed by the column names or all sequences in column order.
    """
    if dataclasses.is_dataclass(columns):
        columns = [f.name for f in dataclasses.fields(columns)]
    return _csv(_table(columns, rows))


def _json_scalar(x) -> str:
    """A JSON value that holds no other, with non-finite floats as strings."""
    if isinstance(x, str):
        return _json_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        x = float(x)
        if math.isfinite(x):
            return repr(x)
        return '"nan"' if math.isnan(x) else '"-inf"' if x < 0 else '"inf"'
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_column(cells) -> tuple[str, list | None]:
    """The row-template field and the values of one JSON column."""
    kinds = set(map(type, cells))
    if kinds == _NONE:
        return "null", None
    if all(issubclass(kind, float) for kind in kinds):
        values = cells if kinds == {float} else list(map(float, cells))
        if all(map(math.isfinite, values)):
            return "%r", values
    return "%s", list(map(_json_scalar, cells))


def _json_rows(table: _Rows, indent: str) -> str:
    """A list of flat records, as one template filled by one ``%``."""
    if not table.count:
        return "[]"
    inner = indent + "  "
    if table.names:
        specs, values = zip(*map(_json_column, table.columns))
        keys = (_json_str(name).replace("%", "%%") for name in table.names)
        fields = ",".join(f"\n{inner}  {key}: {spec}" for key, spec in zip(keys, specs))
        record = f"{{{fields}\n{inner}}}"
    else:
        record, values = "{}", ()
    template = f"[\n{inner}" + f",\n{inner}".join([record] * table.count) + f"\n{indent}]"
    return _fill(template, values)


_SCALARS = (str, int, float, type(None))


def _records(items) -> _Rows | None:
    """``items`` as columns if they are records of one shape, else None.

    Records of one shape are instances of one dataclass, or dicts with the
    same keys in the same order, whose fields hold no containers.
    """
    kind = type(items[0])
    if len(set(map(type, items))) != 1:
        return None
    if issubclass(kind, dict):
        names = list(items[0])
        if any(list(item) != names for item in items):
            return None
    elif issubclass(kind, (float, list, tuple)) or not dataclasses.is_dataclass(kind):
        return None
    else:
        names = [f.name for f in dataclasses.fields(kind)]
    table = _table(names, items)
    for column in table.columns:
        if not all(issubclass(t, _SCALARS) for t in set(map(type, column))):
            return None
    return table


def _json(obj, indent: str = "") -> str:
    """``obj`` as JSON, laid out as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    if isinstance(obj, _Rows):
        return _json_rows(obj, indent)
    if isinstance(obj, float):
        return _json_scalar(obj)
    if isinstance(obj, dict):
        members = obj.items()
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        table = _records(obj)
        if table is not None:
            return _json_rows(table, indent)
        inner = indent + "  "
        return f"[\n{inner}" + f",\n{inner}".join([_json(x, inner) for x in obj]) + f"\n{indent}]"
    elif dataclasses.is_dataclass(obj):
        members = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    else:
        return _json_scalar(obj)
    if not members:
        return "{}"
    inner = indent + "  "
    lines = [f"{_json_str(key)}: {_json(value, inner)}" for key, value in members]
    return f"{{\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}}}"


def payload_to_json(obj) -> str:
    """Indented JSON of records (as field dicts), dicts, lists and scalars."""
    return _json(obj) + "\n"


_CURVE_COLUMNS = ("param", "value", "argmax_s")


def _curve_table(curve) -> _Rows:
    """A curve's arrays as the columns ``param, value, argmax_s``."""
    count = len(curve.params)
    argmax = [None] * count if curve.argmax_s is None else np.asarray(curve.argmax_s).tolist()
    columns = [np.asarray(curve.params).tolist(), np.asarray(curve.values).tolist(), argmax]
    return _Rows(_CURVE_COLUMNS, columns, count)


def curve_to_csv(curve) -> str:
    """CSV of an ``ExponentCurve``: ``param,value,argmax_s``, argmax empty without one."""
    return _csv(_curve_table(curve))


def curve_to_json(curve) -> str:
    """JSON of an ``ExponentCurve``: ``{"parameter_name", "samples": [...]}``."""
    samples = _curve_table(curve)
    return _json({"parameter_name": curve.parameter_name, "samples": samples}) + "\n"
