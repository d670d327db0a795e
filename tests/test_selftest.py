"""Criteria can still fail: under a wrong convention for the analytic
companion or for the non-integer translation, no input that rounds to the
printed one reproduces the worked example's references (criterion 1), a
corrupted index plan is refused (criterion 6), also under python -O, and
every other criterion fails when the one library call it relies on is
broken. run_criterion alone judges and reports."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import frogpr
import frogpr.analytic
import frogpr.circles
import frogpr.selftest
from frogpr import DegenerateSignalError, FrogParams, MeasurementIndexPlan, plan_indices
from frogpr.selftest import _validate_plan, format_line, run_criterion
from frogpr.spectral import dft, idft


def _undoubled_companion(x):
    """Keeps the nonnegative-frequency half without doubling it."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    gain = np.zeros(n)
    gain[: n // 2 + 1] = 1.0
    return idft(dft(x) * gain)


def _nyquist_split_translate(z, gamma):
    """Symmetric-frequency translation: the Nyquist coefficient of an even
    length is split over +-N/2 and so scaled by cos(pi gamma)."""
    n = z.size
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    phases = np.exp(2j * np.pi * freqs * (gamma / n))
    if n % 2 == 0:
        phases[n // 2] = np.cos(np.pi * gamma)
    return idft(dft(z) * phases)


@pytest.mark.parametrize(
    "module, name, wrong, broken",
    [
        (frogpr.analytic, "make_analytic", _undoubled_companion, "does not round"),
        (frogpr.selftest, "translate", _nyquist_split_translate, "> 5e-4"),
    ],
)
def test_criterion_1_fails_under_a_wrong_convention(
    monkeypatch, module, name, wrong, broken
):
    monkeypatch.setattr(module, name, wrong)
    result = run_criterion(1)
    assert not result.passed
    assert broken in result.details, format_line(result)


def _refuse(*args, **kwargs):
    raise DegenerateSignalError("planted refusal", stage="A1")


_solve_three_circles = frogpr.circles.solve_three_circles


@pytest.mark.parametrize(
    "number, target, broken, first, count",
    [
        (2, "frogpr.selftest.recover", _refuse, "(12,1) trial 0: planted refusal", 500),
        (
            3, "frogpr.selftest.apply_element", lambda g, z: 2 * z,
            "even signal 0 (8,1): relative deviation 1.50e+01 > 1e-8", 50,
        ),
        (
            4, "frogpr.selftest.translate", lambda z, gamma: z,
            "trial 0 (8,1): largest relative change 0.00e+00 <= 1e-3", 100,
        ),
        (
            5, "frogpr.circles.solve_three_circles", lambda *a: _solve_three_circles(*a) + 1e-6,
            "three-circle trial 0: error", 1000,
        ),
        (7, "frogpr.selftest.verify_solution", lambda s, m: 0.5, "trial 0 true: residual 5.00e-01", 400),
        (
            8, "frogpr.selftest.even_l_infeasibility_probe", lambda m, a, t: False,
            "trial 0: coefficient", 100,
        ),
    ],
)
def test_a_criterion_fails_naming_its_problems(monkeypatch, number, target, broken, first, count):
    # Each criterion with its one library call broken: run_criterion reports
    # the first five problems, their count, and the measured line.
    monkeypatch.setattr(target, broken)
    result = run_criterion(number)
    assert not result.passed
    assert result.details.startswith(first), format_line(result)
    problems, measured = result.details.split(f" ({count} in all) [")
    assert len(problems.split("; ")) == 5 and measured.endswith("]"), format_line(result)


def test_a_failure_lists_every_problem_up_to_five(monkeypatch):
    checks = [
        ("none", lambda: ([], "measured")),
        ("two", lambda: (["a", "b"], "measured")),
        ("six", lambda: (list("abcdef"), "measured")),
    ]
    monkeypatch.setattr(frogpr.selftest, "CRITERIA", checks)
    assert [(r.passed, r.details) for r in map(run_criterion, (1, 2, 3))] == [
        (True, "measured"),
        (False, "a; b [measured]"),
        (False, "a; b; c; d; e (6 in all) [measured]"),
    ]


# Five zero k = 2 delays and no stage rows k >= 4.
CORRUPTED_ROWS = [(0, 0), (0, 1), (1, 0)] + [(2, 0)] * 5 + [(3, 0), (3, 1)]


def test_criterion_6_fails_on_a_corrupted_plan(monkeypatch):
    rows = np.array(CORRUPTED_ROWS)
    monkeypatch.setattr(frogpr.selftest, "plan_indices", lambda p: MeasurementIndexPlan(p, rows))
    result = run_criterion(6)
    assert not result.passed
    assert "rows have shape (10, 2)" in result.details, format_line(result)
    # A plan of the right shape and order with one inadmissible delay: at
    # (16, 3), delay 4 of row 2 has w^(2 * 4) = -1.
    params = FrogParams(16, 3)
    bad = plan_indices(params).rows.copy()
    assert bad[7].tolist() == [2, 5]
    bad[7, 1] = 4
    with pytest.raises(ValueError, match=r"row 2 delay 4: 1 \+ w\^\(ki\) = 0"):
        _validate_plan(MeasurementIndexPlan(params, bad))


def test_criterion_6_fails_on_a_corrupted_plan_under_python_O():
    # python -O strips assert statements, so the plan checks must not be
    # written with them.
    script = textwrap.dedent(
        f"""
        import numpy as np
        import frogpr.selftest
        from frogpr import MeasurementIndexPlan
        rows = np.array({CORRUPTED_ROWS!r})
        frogpr.selftest.plan_indices = lambda p: MeasurementIndexPlan(p, rows)
        print(__debug__, frogpr.selftest.run_criterion(6).passed)
        """
    )
    src = os.path.dirname(os.path.dirname(frogpr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
