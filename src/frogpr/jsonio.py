"""Deterministic JSON files for signals and measurements.

Numbers are written with 17 significant digits (round-trip exact for 64-bit
floats) and keys in a fixed order, so identical data produces byte-identical
files. Schemas:

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


def _render(obj, indent: int) -> str:
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


def _complex_pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def save_signal(path, values, spectrum=None) -> None:
    values = as_signal(values)
    doc = {"N": int(values.size), "values": _complex_pairs(values)}
    if spectrum is not None:
        spectrum = as_signal(spectrum)
        if spectrum.size != values.size:
            raise ValueError("spectrum length differs from signal length")
        doc["spectrum"] = _complex_pairs(spectrum)
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
    out = np.empty(n, dtype=complex)
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair)
        ):
            raise ValueError(f"'{what}'[{idx}] is not a [re, im] number pair")
        out[idx] = complex(_float(pair[0], what, idx), _float(pair[1], what, idx))
        # json reads NaN and Infinity as numbers.
        if not cmath.isfinite(out[idx]):
            raise ValueError(f"'{what}'[{idx}] holds a number that is not finite")
    return out


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
        "entries": list(zip(k.tolist(), m.tolist(), measurements.grid[k, m].tolist())),
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
    for idx, row in enumerate(raw):
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
