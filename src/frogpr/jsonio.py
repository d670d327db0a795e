"""Deterministic JSON files for signals and measurements.

Both kinds have one fixed layout, which one writer makes: the integer header
fields in order, then one or two tables with a row per line, each block of
rows made by one %-format call. Numbers are written with 17 significant
digits and keys in a fixed order, so identical data produces byte-identical
files. A 64-bit float reads back exactly, apart from negative zero: -0.0 is
written as -0, which JSON reads back as the integer 0. That text is kept so
that files written before stay byte-identical.

The readers check a table in passes over its rows and columns (types,
lengths, then array tests of range, finiteness, sign and repeats) and walk
it entry by entry only when a pass finds a fault, to name the first faulty
entry. A measurement file in the writer's layout is read a block of rows at
a time: its header lines are parsed alone, and its table is cut at row
breaks into blocks of about _BLOCK rows, each parsed by one json.loads and
typed by the column passes into arrays; the array tests run once on the
joined table. So only one block's Python objects are alive at a time,
where a parse of the whole document holds a Python list for every row.
Any other text, an empty table, and any file a block's parse or a pass
refuses are read as one document, the only path that raises, so every
error and its message are the same for either path. A signal file's
tables are N rows and are read as one document. Schemas:

    signal:       { "N": int, "values": [[re, im], ...],
                    "spectrum": [[re, im], ...] }   (spectrum optional)
    measurements: { "N": int, "L": int, "entries": [[k, m, value], ...] }
                  with entries ascending by (k, m).
"""

from __future__ import annotations

import cmath
import json

import numpy as np

from .frog import FrogMeasurements, FrogParams, _check_entries, _entry, _index_rows
from .spectral import as_signal

__all__ = [
    "save_signal",
    "load_signal",
    "save_measurements",
    "load_measurements",
]

# Rows per format call of the writer: a call for a whole table holds all its
# text and numbers at once, which raises the peak memory of a large file.
_BLOCK = 4096
_NUMBERS = {int, float}
# The layout around a table: its key, the break before each row (the first row
# drops its comma), and the close of a non-empty table, then of the document.
_TABLE_OPEN, _ROW_BREAK, _TABLE_CLOSE, _DOC_CLOSE = ',\n  "{}": [', ",\n    ", "\n  ]", "\n}\n"


def _write(path, header: dict, tables: dict) -> None:
    """Write the integer header fields in order, then the tables. A table is
    (template, *columns): a row template (as "[%d, %.17g]") and 1-D arrays
    of one length. Each block of up to _BLOCK rows is one %-format call of
    the template repeated, on the block's Python numbers from tolist(),
    interleaved row by row. Callers refuse the numbers that are not finite.
    """
    fields = [f'  "{key}": {int(value)}' for key, value in header.items()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(fields))
        for key, (template, *columns) in tables.items():
            fh.write(_TABLE_OPEN.format(key))
            size, width = columns[0].size, len(columns)
            row = _ROW_BREAK + template
            for lo in range(0, size, _BLOCK):
                values = [None] * (width * min(_BLOCK, size - lo))
                for j, col in enumerate(columns):
                    values[j::width] = col[lo : lo + _BLOCK].tolist()
                text = (row * (len(values) // width)) % tuple(values)
                # The first row of a table follows the bracket without a comma.
                fh.write(text[1:] if lo == 0 else text)
            fh.write(_TABLE_CLOSE if size else "]")
        fh.write(_DOC_CLOSE)


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


def _columns(raw: list, width: int):
    """The columns of raw as tuples, with the set of types in each, when raw
    is a non-empty list of lists of `width` items; None otherwise."""
    if raw and set(map(type, raw)) == {list} and set(map(len, raw)) == {width}:
        columns = tuple(zip(*raw))
        return columns, [set(map(type, col)) for col in columns]
    return None


def _pairs(raw: list, n: int) -> np.ndarray | None:
    """raw as n complex numbers when every pair holds two finite numbers; None
    when a pass over its columns finds a fault."""
    found = _columns(raw, 2)
    if found is None or not all(kinds <= _NUMBERS for kinds in found[1]):
        return None
    values = np.empty(n, dtype=complex)
    try:
        values.real, values.imag = (np.fromiter(col, float, n) for col in found[0])
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_pairs(raw, n: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ValueError(f"'{what}' must be a list of {n} [re, im] pairs")
    values = _pairs(raw, n)
    if values is not None:
        return values
    # A pass found a fault; this loop names the first faulty pair. Every
    # fault a pass finds is one of these, so the loop always raises.
    for idx, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pair)
        ):
            raise ValueError(f"'{what}'[{idx}] is not a [re, im] number pair")
        # json reads NaN and Infinity as numbers.
        if not cmath.isfinite(complex(_float(pair[0], what, idx), _float(pair[1], what, idx))):
            raise ValueError(f"'{what}'[{idx}] holds a number that is not finite")


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
    """Write the measured entries; a set holds only finite values >= 0, which
    load_measurements reads back."""
    params = measurements.params
    _write(
        path,
        {"N": params.N, "L": params.L},
        {"entries": ("[%d, %d, %.17g]", *measurements.rows.T, measurements.values)},
    )


def _triples(raw: list) -> tuple[np.ndarray, np.ndarray] | None:
    """raw's indices as an int64 (n, 2) array and its values as floats, when raw is a
    non-empty list of [int, int, number] rows; None when a pass over its columns finds a
    fault."""
    found = _columns(raw, 3)
    if found is None:
        return None
    (ks, ms, vs), (k_kinds, m_kinds, v_kinds) = found
    if not (k_kinds == m_kinds == {int} and v_kinds <= _NUMBERS):
        return None
    return np.array((ks, ms), np.int64).T, np.fromiter(vs, float, len(raw))


def _entries(blocks, params: FrogParams) -> FrogMeasurements | None:
    """The measurements of the rows of blocks, lists of rows in file order, when every row
    is a new index on the grid with a finite value >= 0; None when a block fails to parse or
    a pass over its columns finds a fault. The rows of one block at a time are alive."""
    parts = []
    try:
        # map drops each block once it is typed, before the next one is parsed.
        for part in map(_triples, blocks):
            if part is None:
                return None
            parts.append(part)
        indices, values = map(np.concatenate, zip(*parts))
        rows = _index_rows(indices, (params.N, params.r))
        _check_entries(rows, values)  # the one check of values read from outside
        meas = FrogMeasurements.__new__(FrogMeasurements)._store(params, rows, values)
    except (OverflowError, RecursionError, ValueError):
        return None
    # A repeated index leaves fewer measured entries than rows.
    return meas if len(meas) == len(rows) else None


# A measurement file's table as _write lays it out: the text before its first row, through
# that row's newline; the text that starts every later row; and the text after the last row.
_ENTRIES_OPEN = _TABLE_OPEN.format("entries") + _ROW_BREAK[1]
_ROW_START, _ENTRIES_CLOSE = _ROW_BREAK + "[", _TABLE_CLOSE + _DOC_CLOSE


def _row_blocks(text: str, start: int, stop: int):
    """The rows of text[start:stop], one per line as _write writes them, as lists of about
    _BLOCK rows: each block is cut at a row break and read by one json.loads."""
    size = (stop - start) * _BLOCK // (text.count("\n", start, stop) + 1)
    while start < stop:
        cut = text.find(_ROW_START, start + size, stop)
        cut = stop if cut < 0 else cut
        yield json.loads("[" + text[start:cut] + "]")
        start = cut + 1


def _read_blocks(text: str) -> FrogMeasurements | None:
    """The set in text of _write's layout with a non-empty table, read a block of rows at a
    time; None for any other text, and for one a parse or a pass refuses."""
    head = text.find(_ENTRIES_OPEN)
    start, stop = head + len(_ENTRIES_OPEN), len(text) - len(_ENTRIES_CLOSE)
    if head < 0 or not (text.startswith(_ROW_START[2:], start) and text.endswith(_ENTRIES_CLOSE)):
        return None
    try:
        # The header's lines, closed after an empty table.
        header = json.loads(text[:start] + "]}")
        if list(header) != ["N", "L", "entries"]:
            return None
        params = FrogParams(header["N"], header["L"])
    except (RecursionError, ValueError):
        return None
    return _entries(_row_blocks(text, start, stop), params)


def _read_whole(text: str) -> FrogMeasurements:
    """The set in text, parsed as one document; ValueError (json's JSONDecodeError for
    text that is not JSON) names the first fault."""
    doc = json.loads(text)
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
    params = FrogParams(n, l)
    meas = _entries([raw], params)
    if meas is not None:
        return meas
    # A pass found a fault (or the list is empty); this loop names the first
    # faulty entry. In this order: a triple, a new index, a value that fits a
    # float, then the container's checks of the index and the value.
    entries = {}
    for idx, row in enumerate(raw):
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in row)
            or not all(isinstance(c, int) for c in row[:2])
        ):
            raise ValueError(f"'entries'[{idx}] is not a [k, m, value] triple")
        key = (row[0], row[1])
        if key in entries:
            raise ValueError(f"'entries'[{idx}] repeats index {key}")
        entries[key] = _float(row[2], "entries", idx)
        _entry(key, entries[key], (params.N, params.r))
    return FrogMeasurements(params, entries)


def load_measurements(path) -> FrogMeasurements:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    meas = _read_blocks(text)
    # Any other text, and every fault, takes the whole document: only that path raises.
    return _read_whole(text) if meas is None else meas
