"""Analytic-companion construction and the spectral membership test."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frogpr import dft, is_analytic, make_analytic, random_analytic_signal

# Four-sample reference input used across the worked-example tests. Its
# expected spectrum is derived here by independent closed-form sums, not by
# another FFT: for the analytic companion of a length-4 real signal,
#   s_0 = x_0 + x_1 + x_2 + x_3          (real)
#   s_1 = 2 [(x_0 - x_2) + i (x_3 - x_1)]
#   s_2 = x_0 - x_1 + x_2 - x_3          (real)
#   s_3 = 0
X4 = np.array([0.3252, -0.7549, 1.3703, -1.7115])


def _expected_spectrum_4(x):
    return np.array(
        [
            x[0] + x[1] + x[2] + x[3],
            2.0 * ((x[0] - x[2]) + 1j * (x[3] - x[1])),
            x[0] - x[1] + x[2] - x[3],
            0.0,
        ]
    )


def test_worked_example_analytic_extension():
    z = make_analytic(X4)
    s = dft(z)
    assert_allclose(z.real, X4, rtol=0, atol=1e-14)
    assert_allclose(s, _expected_spectrum_4(X4), rtol=0, atol=1e-14)
    # The 4-decimal published rendering of the same quantities is ~1e-4 away,
    # which pins the sign and scaling conventions.
    printed_z = np.array(
        [0.3252 - 0.4783j, -0.7549 - 0.5226j, 1.3703 + 0.4783j, -1.7115 + 0.5226j]
    )
    printed_s = np.array([-0.7710, -2.0902 - 1.9132j, 4.1619, 0.0])
    assert np.abs(z - printed_z).max() < 1.0e-4
    assert np.abs(s - printed_s).max() < 1.1e-4


def test_make_analytic_real_part_reproduces_input():
    rng = np.random.default_rng(201)
    for n in (2, 4, 5, 7, 16, 33):
        x = rng.standard_normal(n)
        z = make_analytic(x)
        assert_allclose(z.real, x, rtol=0, atol=1e-12)


def test_make_analytic_real_and_imaginary_parts_are_orthogonal():
    rng = np.random.default_rng(202)
    for n in (4, 8, 9, 20, 27):
        z = make_analytic(rng.standard_normal(n))
        scale = np.linalg.norm(z.real) * np.linalg.norm(z.imag) + 1e-30
        assert abs(np.dot(z.real, z.imag)) / scale < 1e-10


def test_make_analytic_spectrum_has_analytic_support():
    rng = np.random.default_rng(203)
    for n in (4, 6, 9, 16, 21):
        s = dft(make_analytic(rng.standard_normal(n)))
        report = is_analytic(s)
        assert report.is_analytic
        # Explicitly: upper half vanishes, boundary coefficients are real.
        top = s[n // 2 + 1 :] if n % 2 == 0 else s[(n - 1) // 2 + 1 :]
        assert np.abs(top).max() < 1e-12 * np.abs(s).max()
        assert abs(s[0].imag) < 1e-12 * np.abs(s).max()
        if n % 2 == 0:
            assert abs(s[n // 2].imag) < 1e-12 * np.abs(s).max()


def test_make_analytic_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_analytic(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        make_analytic([1.0])
    # A complex input is refused, not cut to its real part with a warning.
    with pytest.raises(ValueError, match="expected a real signal, got dtype complex128"):
        make_analytic(np.array([1.0, 2.0j, 3.0, 4.0]))


def test_is_analytic_flags_violations_with_magnitude():
    rng = np.random.default_rng(204)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = dft(z)  # generic spectrum: full support
    report = is_analytic(s)
    assert not report.is_analytic
    assert report.max_violation > 0.1
    # The reported violation is the worst offender among the constrained
    # coefficients.
    expected = max(np.abs(s[5:]).max(), abs(s[0].imag), abs(s[4].imag))
    assert_allclose(report.max_violation, expected, rtol=1e-12)


def test_is_analytic_tolerance_is_relative():
    # A violation counts above 1e-9 of the largest modulus, at any scale.
    for scale in (1e-12, 1.0, 1e12):
        assert is_analytic(scale * np.array([1.0, 1.0, 0.0, 1e-10j])).is_analytic
        assert not is_analytic(scale * np.array([1.0, 1.0, 0.0, 1e-8j])).is_analytic


def test_is_analytic_boundary_reality_is_checked():
    # Support is fine but the Nyquist coefficient is not real.
    s = np.array([2.0 + 0j, 1.0 + 1j, 0.5j, 0.0])
    report = is_analytic(s)
    assert not report.is_analytic
    assert_allclose(report.max_violation, 0.5, rtol=1e-12)


def test_random_analytic_signal_is_seeded_and_analytic():
    a = random_analytic_signal(16, np.random.default_rng(42))
    b = random_analytic_signal(16, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    s = dft(a)
    assert is_analytic(s).is_analytic
    # The rejection floor keeps the leading coefficients usable.
    assert min(abs(s[0]), abs(s[1])) >= 1e-6 * np.abs(s).max()


def test_random_analytic_signal_rejects_short_lengths():
    with pytest.raises(ValueError):
        random_analytic_signal(1, np.random.default_rng(0))
