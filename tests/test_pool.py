"""The outcome pool of tools/pool.py: its inputs, their outcomes, and the comparison."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import frogpr

_spec = importlib.util.spec_from_file_location(
    "pool", Path(__file__).resolve().parent.parent / "tools" / "pool.py"
)
pool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pool)


@pytest.fixture(scope="module")
def inputs():
    return {name: rest for name, *rest in pool.build(frogpr)}


def test_the_pool_is_built_from_fixed_seeds(inputs):
    again = pool.build(frogpr)
    assert [name for name, *_ in again] == list(inputs)
    for name, n, l, grid, tol in again:
        assert inputs[name][:2] == [n, l] and inputs[name][3] == tol
        np.testing.assert_array_equal(grid, inputs[name][2])


# Result bytes depend on numpy and BLAS; the class of these outcomes does not.
@pytest.mark.parametrize(
    "name,cls",
    [
        ("exact/plan/16x3/seed0", "recovered"),
        ("exact/full/64x11/seed1", "recovered"),
        ("noise/plan/16x3/1e-09/seed0/tol1e-06", "recovered"),
        ("dropped/plan/16x3/seed0", "ValueError"),
        ("dropped/full/64x11/seed1", "ValueError"),
        ("corrupt/full/16x3/seed0", "InconsistentMeasurementsError at verify"),
    ],
)
def test_outcome_classes_of_a_small_subset(inputs, name, cls):
    assert pool.label(pool.outcome(frogpr, *inputs[name])) == cls


def test_moved_inputs_and_counts_per_class():
    ok = {"class": "recovered", "bytes": "ab", "residual": "1e-16"}
    a1 = {"class": "InconsistentMeasurementsError", "message": "m", "stage": "A1",
          "residual": "inf", "tol": "None"}
    before = {"x": ok, "y": a1, "z": a1}
    after = {"x": ok, "y": dict(a1, stage=4), "z": dict(ok, bytes="cd")}
    assert pool.moved(before, after) == ["y", "z"]
    assert pool.moved(before, before) == []
    assert pool.counts(before, after) == [
        ("InconsistentMeasurementsError at A1", "2", "0"),
        ("InconsistentMeasurementsError at tail", "0", "1"),
        ("recovered", "1", "2"),
    ]


def test_a_move_counts_under_the_first_group_that_differs():
    ok = {"class": "recovered", "bytes": "ab", "residual": "1e-16"}
    verify = {"class": "InconsistentMeasurementsError", "message": "verification residual 2e-06",
              "stage": "verify", "residual": "2e-06", "tol": "1e-06"}
    before = {"a": ok, "b": ok, "c": verify, "d": verify, "e": ok}
    after = {
        "a": dict(ok, residual="2e-16"),
        "b": dict(ok, bytes="cd", residual="2e-16"),
        "c": dict(verify, residual="3e-06"),
        "d": dict(verify, message="verification residual 3e-06", residual="3e-06"),
        "e": verify,
    }
    names = pool.moved(before, after)
    assert [pool.what_moved(before[n], after[n]) for n in names] == [
        "residual only", "result bytes", "residual only", "message", "class or stage",
    ]
    assert pool.summary(before, after, names) == (
        "class or stage 1, message 1, result bytes 1, tol 0, residual only 2"
    )
