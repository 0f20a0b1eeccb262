"""File formats: the JSON matrix exchange schema and CSV/JSON table exports.

A matrix travels as ``{"dim": d, "re": [[...]], "im": [[...]]}`` with
row-major entries.  On load ``dim`` must be an int and every entry a finite
JSON number; the matrix is then validated against the Hermitian invariant.

A result table is one :class:`Table`: its column names and its cells,
column by column.  A producer gathers its cells into columns once: from
arrays by ``.tolist()``, from lists as they are, or from dataclass records
by :func:`records`, whose names are the dataclass's field names in order.
``table_to_csv`` writes a header of the names, then one line per row, each
cell as ``format_cell`` writes it: ints as ``str``, text verbatim (quoted
by the ``csv`` module's rules where it must be), floats at 17 significant
digits with ``-0.0`` written as ``0``, infinities as ``inf``/``-inf``, NaN
as ``nan`` and None as an empty cell.  ``payload_to_json`` writes a table
as a list of row objects keyed by its names, and recurses into the dicts,
records, tuples and lists around one (a curve's ``{"parameter_name",
"samples": table}``, a report's fields with ``"rows": table``, a pair
file), laid out as ``json.dumps(obj, indent=2)`` lays them out; it keeps
``-0.0`` and writes non-finite floats as the strings
``"inf"``/``"-inf"``/``"nan"``, since strict JSON has no literal for them.

Both writers format a table a column at a time: each column in one pass
chosen by the types of its cells, and the whole table filled into one row
template by a single ``%``.  Only the small objects around a table take the
recursive path.  JSON is not written with ``json.dumps(indent=...)``:
CPython's C encoder serves only ``indent=None``, so an indented dump
formats every value in the pure-Python encoder.  Identical inputs produce
byte-identical outputs.
"""

import dataclasses
import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

import numpy as np

from .errors import ParseError
from .pairs import HypothesisPair


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


def pair_from_json(text: str) -> HypothesisPair:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "rho" not in payload or "sigma" not in payload:
        raise ParseError('pair files need top-level "rho" and "sigma" matrices')
    rho = matrix_from_dict(payload["rho"])
    sigma = matrix_from_dict(payload["sigma"])
    return HypothesisPair(rho, sigma)


def load_pair(path: str | os.PathLike) -> HypothesisPair:
    """Load a pair from the JSON file at ``path``, whatever its name."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {str(path)!r}: {exc}") from exc
    return pair_from_json(text)


class Table:
    """A result table held column by column: ``columns[j][i]`` is cell j of row i.

    ``names`` are the column names in order: the CSV header and the keys of
    each JSON row object.  Every column holds one cell per row.
    """

    __slots__ = ("names", "columns", "count")

    def __init__(self, names, columns: list[list]):
        self.names, self.columns = names, columns
        self.count = len(columns[0]) if columns else 0


def records(kind, rows) -> Table:
    """The records ``rows``, instances of the dataclass ``kind``, as a table of its fields."""
    names = [f.name for f in dataclasses.fields(kind)]
    return Table(names, [list(map(attrgetter(name), rows)) for name in names])


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


def table_to_csv(table: Table) -> str:
    """CSV of ``table``: a header line of its names, then one line per row."""
    specs, values = zip(*map(_csv_column, table.columns)) if table.columns else ((), ())
    line = ",".join(specs) + "\n"
    return ",".join(table.names) + "\n" + _fill(line * table.count, values)


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


def _json_rows(table: Table, indent: str) -> str:
    """A table as a list of row objects, one template filled by one ``%``."""
    if not table.count:
        return "[]"
    inner = indent + "  "
    specs, values = zip(*map(_json_column, table.columns))
    keys = (_json_str(name).replace("%", "%%") for name in table.names)
    fields = ",".join(f"\n{inner}  {key}: {spec}" for key, spec in zip(keys, specs))
    record = f"{{{fields}\n{inner}}}"
    template = f"[\n{inner}" + f",\n{inner}".join([record] * table.count) + f"\n{indent}]"
    return _fill(template, values)


def _json(obj, indent: str = "") -> str:
    """``obj`` as JSON, laid out as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    if isinstance(obj, Table):
        return _json_rows(obj, indent)
    if isinstance(obj, float):
        return _json_scalar(obj)
    if isinstance(obj, dict):
        members = obj.items()
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
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
    """Indented JSON of a :class:`Table` (a list of row objects), records, dicts, lists and scalars.

    A record other than a table is an object of its dataclass fields.
    """
    return _json(obj) + "\n"
