"""Deterministic JSON serialization of signals and measurements."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from frogpr import (
    FrogParams,
    dft,
    frog_measurements_time,
    load_measurements,
    load_signal,
    random_analytic_signal,
    save_measurements,
    save_signal,
)
from frogpr.jsonio import dumps_canonical


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
    from frogpr import FrogMeasurements

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


def test_dumps_canonical_formatting():
    doc = {"b": 1.5, "a": [1, 2, 3], "flag": True, "name": "x", "none": None}
    text = dumps_canonical(doc)
    # Insertion order, inline scalar lists, trailing newline.
    assert text.index('"b"') < text.index('"a"')
    assert "[1, 2, 3]" in text
    assert "true" in text and "null" in text
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_dumps_canonical_17_digit_round_trip():
    values = [np.pi, 1.0 / 3.0, 1e-300, 5e300, 0.1 + 0.2]
    text = dumps_canonical({"v": values})
    assert json.loads(text)["v"] == values


def test_dumps_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical({"v": float("inf")})
    with pytest.raises(ValueError):
        dumps_canonical({"v": float("nan")})
