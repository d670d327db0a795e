"""Deterministic JSON files for signals and measurements.

Both kinds have one fixed layout, which one writer makes: the integer header
fields in order, then one or two tables with a row per line, each row made
by one %-format call. Numbers are written with 17 significant digits and
keys in a fixed order, so identical data produces byte-identical files. A
64-bit float reads back exactly, apart from negative zero: -0.0 is written
as -0, which JSON reads back as the integer 0. That text is kept so that
files written before stay byte-identical. Schemas:

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
    "save_signal",
    "load_signal",
    "save_measurements",
    "load_measurements",
]

_INF = math.inf


def _write(path, header: dict, tables: dict) -> None:
    """Write the integer header fields in order, then the tables, each row by
    one %-format call of its template (as "[%d, %.17g]") on the Python
    numbers of tolist(). A table is (template, *columns), 1-D arrays of one
    length. The first number in file order that is not finite is refused
    before the file is opened; each table goes to the file as it is joined.
    """
    for _, *columns in tables.values():
        finite = [np.isfinite(col) for col in columns]
        if not all(f.all() for f in finite):
            i, j = min((int(f.argmin()), j) for j, f in enumerate(finite) if not f.all())
            raise ValueError(f"cannot serialize non-finite number {float(columns[j][i])!r}")
    fields = [f'  "{key}": {int(value)}' for key, value in header.items()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(fields))
        for key, (template, *columns) in tables.items():
            rows = ",\n    ".join(map(template.__mod__, zip(*(col.tolist() for col in columns))))
            fh.write(f',\n  "{key}": [')
            if rows:
                fh.writelines(("\n    ", rows, "\n  "))
            fh.write("]")
        fh.write("\n}\n")


def _complex_rows(values: np.ndarray) -> tuple:
    return ("[%.17g, %.17g]", values.real, values.imag)


def save_signal(path, values, spectrum=None) -> None:
    values = as_signal(values)
    tables = {"values": _complex_rows(values)}
    if spectrum is not None:
        spectrum = as_signal(spectrum)
        if spectrum.size != values.size:
            raise ValueError("spectrum length differs from signal length")
        tables["spectrum"] = _complex_rows(spectrum)
    _write(path, {"N": values.size}, tables)


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
    params = measurements.params
    _write(
        path,
        {"N": params.N, "L": params.L},
        {"entries": ("[%d, %d, %.17g]", k, m, measurements.grid[k, m])},
    )


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
