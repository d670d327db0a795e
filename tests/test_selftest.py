"""Criteria can still fail: under a wrong convention for the analytic
companion or for the non-integer translation, no input that rounds to the
printed one reproduces the worked example's references (criterion 1), and a
corrupted index plan is refused (criterion 6), also under python -O."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import frogpr
import frogpr.analytic
import frogpr.selftest
from frogpr import FrogParams, MeasurementIndexPlan, plan_indices
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
