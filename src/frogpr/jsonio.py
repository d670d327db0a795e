"""Deterministic JSON files for signals and measurements.

Numbers are written with 17 significant digits and keys in a fixed order, so
identical data produces byte-identical files. A 64-bit float reads back
exactly, apart from negative zero: -0.0 is written as -0, which JSON reads
back as the integer 0. That text is kept so that files written before stay
byte-identical. Schemas:

    signal:       { "N": int, "values": [[re, im], ...],
                    "spectrum": [[re, im], ...] }   (spectrum optional)
    measurements: { "N": int, "L": int, "entries": [[k, m, value], ...] }
                  with entries ascending by (k, m).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .frog import FrogMeasurements, FrogParams
from .spectral import as_signal

__all__ = [
    "dumps_canonical",
    "save_signal",
    "load_signal",
    "save_measurements",
    "load_measurements",
]

_INF = math.inf


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


class _Rows:
    """Rows of numbers for dumps_canonical, one per line, each made by one
    %-format call of template (as "[%d, %.17g]") on the Python numbers of
    tolist(), which gives the text of _fmt_number. Columns are 1-D arrays
    of one length; the first number in file order that is not finite is
    refused with the error of _fmt_number.
    """

    def __init__(self, template: str, *columns: np.ndarray):
        finite = [np.isfinite(col) for col in columns]
        if not all(f.all() for f in finite):
            i, j = min((int(f.argmin()), j) for j, f in enumerate(finite) if not f.all())
            raise ValueError(f"cannot serialize non-finite number {float(columns[j][i])!r}")
        self.template, self.columns = template, columns

    def render(self, indent: int) -> str:
        # Formatted as they are joined: a list of all row strings, held while
        # dumps_canonical copies the document, raised peak RSS by 1-3 MB.
        if not len(self.columns[0]):
            return "[]"
        inner = "  " * (indent + 1)
        lines = map(self.template.__mod__, zip(*(col.tolist() for col in self.columns)))
        return f"[\n{inner}" + f",\n{inner}".join(lines) + f"\n{'  ' * indent}]"


def _render(obj, indent: int) -> str:
    if isinstance(obj, _Rows):
        return obj.render(indent)
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(_is_scalar(x) for x in obj):
            return "[" + ", ".join(_render(x, 0) for x in obj) + "]"
        rows = [f"{inner}{_render(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt_number(obj)


def dumps_canonical(obj) -> str:
    """Render a JSON document with fixed key order and 17-digit floats."""
    return _render(obj, 0) + "\n"


def _complex_rows(values: np.ndarray) -> _Rows:
    return _Rows("[%.17g, %.17g]", values.real, values.imag)


def save_signal(path, values, spectrum=None) -> None:
    values = as_signal(values)
    doc = {"N": int(values.size), "values": _complex_rows(values)}
    if spectrum is not None:
        spectrum = as_signal(spectrum)
        if spectrum.size != values.size:
            raise ValueError("spectrum length differs from signal length")
        doc["spectrum"] = _complex_rows(spectrum)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(doc))


def _float(x, what: str, idx: int) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"'{what}'[{idx}] holds an integer too large for a float") from None


def _parse_pairs(raw, n: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError(f"'{what}' must be a list of {n} [re, im] pairs")
    out = []
    for idx, pair in enumerate(raw):
        # Finite floats, as the writer makes them, first: the full checks
        # below are slow. NaN fails both comparisons.
        if type(pair) is list and len(pair) == 2:
            re, im = pair
            if type(re) is float and type(im) is float and -_INF < re < _INF and -_INF < im < _INF:
                out.append(complex(re, im))
                continue
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair)
        ):
            raise ValueError(f"'{what}'[{idx}] is not a [re, im] number pair")
        value = complex(_float(pair[0], what, idx), _float(pair[1], what, idx))
        # json reads NaN and Infinity as numbers.
        if not cmath.isfinite(value):
            raise ValueError(f"'{what}'[{idx}] holds a number that is not finite")
        out.append(value)
    return np.array(out, dtype=complex)


def load_signal(path) -> np.ndarray:
    """Signal values from a signal JSON file (the spectrum field is checked
    for shape when present but not returned; callers re-derive it)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("signal file must hold a JSON object")
    unknown = set(doc) - {"N", "values", "spectrum"}
    if unknown:
        raise ValueError(f"signal file has unknown keys {sorted(unknown)}")
    n = doc.get("N")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("signal file needs an integer 'N' >= 2")
    values = _parse_pairs(doc.get("values"), n, "values")
    if "spectrum" in doc:
        _parse_pairs(doc["spectrum"], n, "spectrum")
    return values


def save_measurements(path, measurements: FrogMeasurements) -> None:
    k, m = np.nonzero(~np.isnan(measurements.grid))
    doc = {
        "N": int(measurements.params.N),
        "L": int(measurements.params.L),
        "entries": _Rows("[%d, %d, %.17g]", k, m, measurements.grid[k, m]),
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(doc))


def load_measurements(path) -> FrogMeasurements:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("measurement file must hold a JSON object")
    unknown = set(doc) - {"N", "L", "entries"}
    if unknown:
        raise ValueError(f"measurement file has unknown keys {sorted(unknown)}")
    n, l = doc.get("N"), doc.get("L")
    for name, val in (("N", n), ("L", l)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"measurement file needs an integer '{name}'")
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ValueError("'entries' must be a list of [k, m, value] triples")
    meas = FrogMeasurements(FrogParams(n, l))
    grid = meas.grid
    rows, cols = grid.shape
    for idx, row in enumerate(raw):
        # A new entry on the grid with a float value, as the writer makes
        # them, goes straight into the grid: the full checks below are slow.
        if type(row) is list and len(row) == 3:
            k, m, value = row
            if (
                type(k) is type(m) is int
                and type(value) is float
                and 0 <= k < rows
                and 0 <= m < cols
                and 0.0 <= value < _INF
                and math.isnan(grid.item(k, m))
            ):
                grid[k, m] = value
                continue
        # In this order: a triple, a new index, a value that fits a float,
        # then the container's checks of the index and the value.
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in row)
            or not all(isinstance(c, int) for c in row[:2])
        ):
            raise ValueError(f"'entries'[{idx}] is not a [k, m, value] triple")
        key = (row[0], row[1])
        if key in meas:
            raise ValueError(f"'entries'[{idx}] repeats index {key}")
        meas[key] = _float(row[2], "entries", idx)
    return meas
