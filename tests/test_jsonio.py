"""Deterministic JSON serialization of signals and measurements."""

import hashlib
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from frogpr import (
    FrogMeasurements,
    FrogParams,
    dft,
    frog_measurements_time,
    load_measurements,
    load_signal,
    plan_indices,
    random_analytic_signal,
    recover,
    save_measurements,
    save_signal,
)
from frogpr.jsonio import _BLOCK
from oracles import file_text


def test_signal_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(701)
    z = random_analytic_signal(12, rng)
    path = tmp_path / "sig.json"
    save_signal(path, z, dft(z))
    assert_array_equal(load_signal(path), z)


def test_signal_round_trip_awkward_floats(tmp_path):
    z = np.array(
        [
            complex(np.pi, 1.0 / 3.0),
            complex(1e-300, -5e300),
            complex(5e-324, -0.0),
            complex(-1.0000000000000002, 1e16 + 1.0),
        ]
    )
    path = tmp_path / "awkward.json"
    save_signal(path, z)
    assert_array_equal(load_signal(path), z)


def test_signal_files_are_byte_identical(tmp_path):
    rng = np.random.default_rng(702)
    z = random_analytic_signal(8, rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_signal(p1, z, dft(z))
    save_signal(p2, z.copy(), dft(z).copy())
    assert p1.read_bytes() == p2.read_bytes()


def test_save_signal_rejects_mismatched_spectrum(tmp_path):
    with pytest.raises(ValueError):
        save_signal(tmp_path / "x.json", np.ones(4), np.ones(6))


def test_load_signal_validates_schema(tmp_path):
    def load_doc(doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return load_signal(path)

    with pytest.raises(ValueError, match="object"):
        load_doc([1, 2, 3])
    with pytest.raises(ValueError, match="unknown keys"):
        load_doc({"N": 2, "values": [[0, 0], [0, 0]], "extra": 1})
    with pytest.raises(ValueError, match="'N'"):
        load_doc({"N": "4", "values": []})
    with pytest.raises(ValueError, match="'N'"):
        load_doc({"N": True, "values": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError, match="pairs"):
        load_doc({"N": 3, "values": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError, match="pair"):
        load_doc({"N": 2, "values": [[0, 0], [0, "x"]]})
    with pytest.raises(ValueError, match="pair"):
        load_doc({"N": 2, "values": [[0, 0], [0, True]]})
    with pytest.raises(ValueError, match="spectrum"):
        load_doc({"N": 2, "values": [[0, 0], [0, 0]], "spectrum": [[0, 0]]})
    # json reads NaN and Infinity, and an integer can be too large for a float.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"'values'\[1\] holds a number that is not finite"):
            load_doc({"N": 2, "values": [[0, 0], [bad, 0]]})
    with pytest.raises(ValueError, match=r"'values'\[0\] holds an integer too large"):
        load_doc({"N": 2, "values": [[0, 10**400], [0, 0]]})
    with pytest.raises(ValueError, match=r"'spectrum'\[1\] holds an integer too large"):
        load_doc({"N": 2, "values": [[0, 0], [0, 0]], "spectrum": [[0, 0], [-(10**400), 0]]})


def test_measurements_round_trip(tmp_path):
    rng = np.random.default_rng(703)
    params = FrogParams(12, 5)
    meas = frog_measurements_time(random_analytic_signal(12, rng), params)
    path = tmp_path / "meas.json"
    save_measurements(path, meas)
    back = load_measurements(path)
    assert back.params == params
    assert back.entries == meas.entries


def test_measurement_file_entries_are_sorted(tmp_path):
    params = FrogParams(8, 3)
    meas = FrogMeasurements(params, {(5, 1): 2.0, (0, 0): 1.0, (5, 0): 3.0})
    path = tmp_path / "meas.json"
    save_measurements(path, meas)
    doc = json.loads(path.read_text())
    assert [row[:2] for row in doc["entries"]] == [[0, 0], [5, 0], [5, 1]]


def test_load_measurements_validates_schema(tmp_path):
    def load_doc(doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return load_measurements(path)

    with pytest.raises(ValueError, match="object"):
        load_doc([])
    with pytest.raises(ValueError, match="unknown keys"):
        load_doc({"N": 8, "L": 1, "entries": [], "noise": 0})
    with pytest.raises(ValueError, match="'L'"):
        load_doc({"N": 8, "L": 1.5, "entries": []})
    with pytest.raises(ValueError, match="list"):
        load_doc({"N": 8, "L": 1, "entries": {}})
    with pytest.raises(ValueError, match="triple"):
        load_doc({"N": 8, "L": 1, "entries": [[0, 0]]})
    with pytest.raises(ValueError, match="triple"):
        load_doc({"N": 8, "L": 1, "entries": [[0, 0.5, 1.0]]})
    with pytest.raises(ValueError, match="triple"):
        load_doc({"N": 8, "L": 1, "entries": [[True, 0, 1.0]]})
    with pytest.raises(ValueError, match="repeats"):
        load_doc({"N": 8, "L": 1, "entries": [[0, 0, 1.0], [0, 0, 2.0]]})
    # Grid/positivity validation comes from the measurement container.
    with pytest.raises(ValueError, match="invalid value"):
        load_doc({"N": 8, "L": 1, "entries": [[0, 0, -1.0]]})
    with pytest.raises(ValueError, match="outside grid"):
        load_doc({"N": 8, "L": 1, "entries": [[9, 0, 1.0]]})
    with pytest.raises(ValueError, match=r"'entries'\[1\] holds an integer too large"):
        load_doc({"N": 8, "L": 1, "entries": [[0, 0, 1.0], [1, 0, 10**400]]})


def test_signal_file_golden_text(tmp_path):
    # 1e16 + 1 is 1e16 in a double; -0.0 is written as -0 and reads back
    # as the integer 0.
    z = np.array(
        [
            complex(-0.0, 5e-324),
            complex(1e16 + 1, 0.1 + 0.2),
            complex(-1.0000000000000002, 2.0),
        ]
    )
    path = tmp_path / "sig.json"
    save_signal(path, z)
    assert path.read_text() == (
        "{\n"
        '  "N": 3,\n'
        '  "values": [\n'
        "    [-0, 4.9406564584124654e-324],\n"
        "    [10000000000000000, 0.30000000000000004],\n"
        "    [-1.0000000000000002, 2]\n"
        "  ]\n"
        "}\n"
    )
    back = load_signal(path)
    assert_array_equal(back, z)
    assert np.signbit(z[0].real) and not np.signbit(back[0].real)


def test_measurement_file_golden_text(tmp_path):
    meas = FrogMeasurements(FrogParams(8, 3), {(0, 0): 0.0, (1, 2): 3.0, (7, 0): 1e-320})
    path = tmp_path / "meas.json"
    save_measurements(path, meas)
    assert path.read_text() == (
        "{\n"
        '  "N": 8,\n'
        '  "L": 3,\n'
        '  "entries": [\n'
        "    [0, 0, 0],\n"
        "    [1, 2, 3],\n"
        "    [7, 0, 9.9998886718268301e-321]\n"
        "  ]\n"
        "}\n"
    )
    save_measurements(path, FrogMeasurements(FrogParams(8, 3)))
    assert path.read_text() == '{\n  "N": 8,\n  "L": 3,\n  "entries": []\n}\n'


def test_full_grid_file_bytes_are_pinned(tmp_path):
    # Values over the whole double range, zero and subnormals included, made
    # with ldexp so that they are the same on every platform.
    rng = np.random.default_rng(1211)
    params = FrogParams(256, 11)
    meas = FrogMeasurements(params)
    shape = meas.grid.shape
    meas.grid[:] = np.ldexp(rng.random(shape), rng.integers(-1074, 1000, shape))
    path = tmp_path / "grid.json"
    save_measurements(path, meas)
    data = path.read_bytes()
    assert len(data) == 237089
    assert hashlib.sha256(data).hexdigest() == (
        "2126108f8ad1b13c774f78d37d054c78ce485bfff4c14833042db1e8132a4cc2"
    )


@pytest.mark.parametrize("n, l", [(16, 3), (64, 11), (256, 11)])
def test_measurement_round_trip_is_bitwise(tmp_path, n, l):
    params = FrogParams(n, l)
    z = random_analytic_signal(n, np.random.default_rng(704 + n))
    path = tmp_path / "meas.json"
    for indices in (None, plan_indices(params).pairs()):
        meas = frog_measurements_time(z, params, indices)
        save_measurements(path, meas)
        back = load_measurements(path)
        assert back.params == params
        # NaN marks the entries that are absent, at the same positions.
        assert back.grid.tobytes() == meas.grid.tobytes()


def test_signal_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "sig.json"
    for n in (2, 16, 256, 1024):
        z = random_analytic_signal(n, np.random.default_rng(705 + n))
        save_signal(path, z, dft(z))
        back = load_signal(path)
        assert back.dtype == np.complex128 and back.tobytes() == z.tobytes()


def _load_text(tmp_path, loader, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return loader(path)


def test_an_empty_entry_list_loads_as_an_empty_set(tmp_path):
    meas = _load_text(tmp_path, load_measurements, {"N": 16, "L": 3, "entries": []})
    assert meas.params == FrogParams(16, 3) and len(meas) == 0
    # recover names the first five planned entries it misses.
    missing = re.escape("measurements missing required entries [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]")
    with pytest.raises(ValueError, match=f"^{missing}$"):
        recover(meas)


def test_measurement_reader_names_the_first_faulty_row(tmp_path):
    # A NaN value in row 1 and a string in row 3.
    entries = [[0, 0, 1.0], [1, 0, float("nan")], [2, 0, 1.0], [3, 0, "x"]]
    with pytest.raises(ValueError, match=re.escape("entry (1, 0) has invalid value nan")):
        _load_text(tmp_path, load_measurements, {"N": 8, "L": 3, "entries": entries})
    # A repeated index in row 2 and a negative value in row 4.
    entries = [[0, 0, 1.0], [1, 0, 1.0], [0, 0, 2.0], [3, 0, 1.0], [4, 1, -1.0]]
    with pytest.raises(ValueError, match=re.escape("'entries'[2] repeats index (0, 0)")):
        _load_text(tmp_path, load_measurements, {"N": 8, "L": 3, "entries": entries})


def test_signal_reader_names_the_first_faulty_row(tmp_path):
    # A NaN in row 1 and a string in row 3.
    values = [[0.5, 1.0], [float("nan"), 0.0], [1.0, 1.0], [1.0, "x"]]
    with pytest.raises(ValueError, match=re.escape("'values'[1] holds a number that is not finite")):
        _load_text(tmp_path, load_signal, {"N": 4, "values": values})
    # An integer too large for a float in row 2 and a bool in row 4.
    values = [[0.5, 1.0], [0.5, -1.0], [10**400, 0.0], [1.0, 1.0], [True, 1.0]]
    with pytest.raises(ValueError, match=re.escape("'values'[2] holds an integer too large")):
        _load_text(tmp_path, load_signal, {"N": 5, "values": values})
    # The spectrum is checked row by row too: infinity in row 1, None in row 3.
    values = [[0.5, 1.0], [0.5, -1.0], [2.0, 0.0], [1.0, 1.0]]
    spectrum = [[0.5, 1.0], [1.0, float("inf")], [-0.0, 0.0], [1.0, None]]
    with pytest.raises(ValueError, match=re.escape("'spectrum'[1] holds a number that is not")):
        _load_text(tmp_path, load_signal, {"N": 4, "values": values, "spectrum": spectrum})


def test_save_measurements_refuses_non_finite_values(tmp_path):
    meas = FrogMeasurements(FrogParams(8, 3), {(0, 0): 1.0, (2, 1): 2.0, (5, 0): 3.0})
    path = tmp_path / "meas.json"
    save_measurements(path, meas)
    before = path.read_bytes()
    # The grid can be written directly; the first bad value in file order
    # is named as load_measurements names it, and the file is left as it was.
    meas.grid[5, 0] = -np.inf
    meas.grid[2, 1] = np.inf
    message = re.escape("entry (2, 1) has invalid value inf")
    with pytest.raises(ValueError, match=f"^{message}$"):
        save_measurements(path, meas)
    assert path.read_bytes() == before
    entries = [[0, 0, 1.0], [2, 1, float("inf")], [5, 0, -float("inf")]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _load_text(tmp_path, load_measurements, {"N": 8, "L": 3, "entries": entries})


def test_save_signal_refuses_non_finite_values(tmp_path):
    # Values and spectrum are both refused before a file is made.
    path = tmp_path / "sig.json"
    for bad in (np.nan, np.inf):
        z = np.array([1.0, complex(2.0, bad), 3.0])
        with pytest.raises(ValueError, match="signal contains non-finite values"):
            save_signal(path, z)
        with pytest.raises(ValueError, match="signal contains non-finite values"):
            save_signal(path, np.ones(3), z)
    assert not path.exists()


def test_save_measurements_refuses_a_negative_entry(tmp_path):
    # The grid can be written directly; the first negative entry in (k, m)
    # order is refused as load_measurements would refuse it, and no file
    # is made.
    meas = FrogMeasurements(FrogParams(8, 3), {(0, 0): 1.0, (1, 0): 2.0, (2, 1): 3.0})
    meas.grid[2, 1] = -2.0
    meas.grid[1, 0] = -1.0
    path = tmp_path / "meas.json"
    message = re.escape("entry (1, 0) has invalid value -1.0")
    with pytest.raises(ValueError, match=f"^{message}$"):
        save_measurements(path, meas)
    assert not path.exists()
    entries = [[0, 0, 1.0], [1, 0, -1.0], [2, 1, -2.0]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _load_text(tmp_path, load_measurements, {"N": 8, "L": 3, "entries": entries})
    # An infinite value is named by the same rule: first in (k, m) order.
    meas.grid[2, 1] = np.inf
    with pytest.raises(ValueError, match=f"^{message}$"):
        save_measurements(path, meas)
    meas.grid[0, 0] = np.inf
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) has invalid value inf$"):
        save_measurements(path, meas)
    assert not path.exists()


# Numbers whose text is awkward: signed zero, the smallest subnormal, the
# extremes, integer-valued floats and a float that prints 17 digits.
AWKWARD = (-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 1e16, 0.1)


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_writer_matches_a_row_by_row_writer_across_blocks(tmp_path, size):
    rng = np.random.default_rng(706 + size)
    path = tmp_path / "file.json"
    # Entries in the first `size` grid cells, in (k, m) order; a measured
    # value is >= 0, so only the non-negative awkward numbers go in.
    meas = FrogMeasurements(FrogParams(8200, 2050))
    values = np.ldexp(rng.random(size), rng.integers(-1074, 1000, size))
    values[::5] = np.resize([x for x in AWKWARD if not x < 0], values[::5].size)
    meas.grid.flat[:size] = values
    save_measurements(path, meas)
    k, m = np.nonzero(~np.isnan(meas.grid))
    expected = file_text({"N": 8200, "L": 2050}, {"entries": ("[%d, %d, %.17g]", k, m, values)})
    assert path.read_bytes() == expected.encode("ascii")
    # A signal has at least two values.
    n = max(size, 2)
    z = np.ldexp(rng.random(n) - 0.5, rng.integers(-1074, 1000, n)) + 1j * np.resize(AWKWARD, n)
    save_signal(path, z, z[::-1])
    expected = file_text(
        {"N": n},
        {
            "values": ("[%.17g, %.17g]", z.real, z.imag),
            "spectrum": ("[%.17g, %.17g]", z[::-1].real, z[::-1].imag),
        },
    )
    assert path.read_bytes() == expected.encode("ascii")


def test_writer_matches_a_row_by_row_writer_on_a_full_grid(tmp_path):
    params = FrogParams(1024, 31)
    meas = frog_measurements_time(random_analytic_signal(1024, np.random.default_rng(707)), params)
    path = tmp_path / "grid.json"
    save_measurements(path, meas)
    k, m = np.nonzero(~np.isnan(meas.grid))
    expected = file_text({"N": 1024, "L": 31}, {"entries": ("[%d, %d, %.17g]", k, m, meas.grid[k, m])})
    assert path.read_bytes() == expected.encode("ascii")


# A 5,000-row table of each kind, with one faulty row first, in the middle
# or last. Each fault, with the message the reader names it by: its row i,
# the (k, m) the row had, and the faulty row itself.
_TRIPLE = "'entries'[{i}] is not a [k, m, value] triple"
MEASUREMENT_FAULTS = {
    "not a list": (lambda k, m: {"k": k}, _TRIPLE),
    "wrong length": (lambda k, m: [k, m], _TRIPLE),
    "bool index": (lambda k, m: [True, m, 1.0], _TRIPLE),
    "float index": (lambda k, m: [float(k), m, 1.0], _TRIPLE),
    "string": (lambda k, m: [k, m, "1.0"], _TRIPLE),
    "10**400": (lambda k, m: [k, m, 10**400], "'entries'[{i}] holds an integer too large for a float"),
    "NaN": (lambda k, m: [k, m, float("nan")], "entry ({k}, {m}) has invalid value nan"),
    "Infinity": (lambda k, m: [k, m, float("inf")], "entry ({k}, {m}) has invalid value inf"),
    "negative value": (lambda k, m: [k, m, -1.0], "entry ({k}, {m}) has invalid value -1.0"),
    "index off the grid": (lambda k, m: [2500, m, 1.0], "entry index (2500, {m}) outside grid 2500x2"),
    # The index of the row before.
    "repeated index": (
        lambda k, m: [k, 0, 1.0] if m else [k - 1, 1, 1.0],
        "'entries'[{i}] repeats index ({row[0]}, {row[1]})",
    ),
}


@pytest.mark.parametrize("kind", sorted(MEASUREMENT_FAULTS))
def test_measurement_reader_names_a_fault_anywhere_in_a_large_table(tmp_path, kind):
    fault, message = MEASUREMENT_FAULTS[kind]
    # (2500, 1250) has r = 2: the 5,000 rows fill the grid.
    for i in (1 if kind == "repeated index" else 0, 2500, 4999):
        entries = [[j // 2, j % 2, 0.5 + j] for j in range(5000)]
        k, m = entries[i][:2]
        entries[i] = row = fault(k, m)
        text = message.format(i=i, k=k, m=m, row=row)
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            _load_text(tmp_path, load_measurements, {"N": 2500, "L": 1250, "entries": entries})


_PAIR = "'{what}'[{i}] is not a [re, im] number pair"
_NOT_FINITE = "'{what}'[{i}] holds a number that is not finite"
# The faults a pair of numbers can have; a float or a negative number is a
# valid part, and a signal has no index to repeat or to place off a grid.
SIGNAL_FAULTS = {
    "not a list": (lambda re_, im: {"re": re_}, _PAIR),
    "wrong length": (lambda re_, im: [re_], _PAIR),
    "bool": (lambda re_, im: [re_, True], _PAIR),
    "string": (lambda re_, im: ["1.0", im], _PAIR),
    "10**400": (lambda re_, im: [re_, -(10**400)], "'{what}'[{i}] holds an integer too large for a float"),
    "NaN": (lambda re_, im: [float("nan"), im], _NOT_FINITE),
    "Infinity": (lambda re_, im: [re_, float("inf")], _NOT_FINITE),
}


@pytest.mark.parametrize("kind", sorted(SIGNAL_FAULTS))
def test_signal_reader_names_a_fault_anywhere_in_a_large_table(tmp_path, kind):
    fault, message = SIGNAL_FAULTS[kind]
    for what in ("values", "spectrum"):
        for i in (0, 2500, 4999):
            pairs = [[0.5 * j, -0.25 * j] for j in range(5000)]
            faulty = [list(p) for p in pairs]
            faulty[i] = fault(*faulty[i])
            doc = {"N": 5000, "values": pairs, "spectrum": pairs, what: faulty}
            text = message.format(what=what, i=i)
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                _load_text(tmp_path, load_signal, doc)
