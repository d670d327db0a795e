"""The outcome pool of tools/pool.py: its inputs, their outcomes, and the comparison."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import frogpr
from frogpr import cli
from frogpr.analytic import random_analytic_signal
from frogpr.selftest import _generic_even_signal

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


@pytest.fixture(scope="module")
def drawn():
    return pool.draws()


def test_the_draws_are_named_and_made_from_fixed_seeds(drawn):
    assert len(drawn) == 1600
    assert list(drawn)[:2] == ["draw/12/seed0", "draw/12/seed1"]
    assert list(drawn)[1400:1402] == ["draw/generic/12/seed0", "draw/generic/16/seed1"]
    assert {out["class"] for out in drawn.values()} == {"drawn"}
    z = random_analytic_signal(1024, np.random.default_rng([1024, 5]))
    assert drawn["draw/1024/seed5"]["bytes"] == hashlib.sha256(z.tobytes()).hexdigest()
    z = _generic_even_signal(64, np.random.default_rng(199))
    assert drawn["draw/generic/64/seed199"]["bytes"] == hashlib.sha256(z.tobytes()).hexdigest()
    assert pool.draws() == drawn


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return pool.readme_files(tmp_path_factory.mktemp("readme"))


def test_the_readme_files_are_named_and_written_alike(written, tmp_path):
    assert list(written) == [
        "readme/sig.json", "readme/meas.json", "readme/grid.json", "readme/rec.json",
        "readme/recg.json", "readme/sig64.json", "readme/meas64.json", "readme/rec64.json",
    ]
    assert {out["class"] for out in written.values()} == {"written"}
    # The README's files up to the measurements, as tests/test_cli.py pins them.
    assert [written[f"readme/{name}"]["bytes"][:12] for name in ("sig.json", "meas.json", "grid.json")] == [
        "0fca9d758801", "d3ad857a73f6", "66bb838c2617",
    ]
    assert pool.readme_files(tmp_path) == written


def test_a_draw_that_moves_one_bit_moves_its_result_bytes(drawn, monkeypatch):
    at_1024 = []

    def flipped(n, rng):
        # The first draw at N = 1024 moves in the last bit of z_0's real part.
        z = random_analytic_signal(n, rng)
        if n == 1024 and not at_1024:
            at_1024.append(n)
            z.view(np.uint64)[0] ^= 1
        return z

    monkeypatch.setattr(frogpr.analytic, "random_analytic_signal", flipped)
    after = pool.draws()
    names = pool.moved(drawn, after)
    assert names == ["draw/1024/seed0"]
    assert pool.summary(drawn, after, names) == (
        "class or stage 0, message 0, result bytes 1, tol 0, residual only 0"
    )


def test_a_cli_writer_that_moves_one_byte_moves_its_result_bytes(written, monkeypatch, tmp_path):
    save = cli.save_measurements

    def moved_byte(path, meas):
        # The last newline becomes a space, which a reader skips alike.
        save(path, meas)
        text = Path(path).read_bytes()
        Path(path).write_bytes(text[:-1] + b" ")

    monkeypatch.setattr(cli, "save_measurements", moved_byte)
    after = pool.readme_files(tmp_path)
    names = pool.moved(written, after)
    assert names == ["readme/meas.json", "readme/grid.json", "readme/meas64.json"]
    assert pool.summary(written, after, names) == (
        "class or stage 0, message 0, result bytes 3, tol 0, residual only 0"
    )
