"""DFT conventions and input coercion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frogpr import as_signal, dft, idft
from oracles import direct_dft


def test_as_signal_coerces_lists_to_complex128():
    z = as_signal([1, 2.5, 3 - 1j])
    assert z.dtype == np.complex128
    assert z.shape == (3,)
    assert z[2] == 3 - 1j


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),  # not 1-D
        [1.0],  # too short
        [1.0, np.nan],  # non-finite
        [1.0, np.inf],
    ],
)
def test_as_signal_rejects_invalid_input(bad):
    with pytest.raises(ValueError):
        as_signal(bad)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(101)
    for n in range(2, 18):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(dft(z), direct_dft(z), rtol=0, atol=1e-11 * n)


def test_idft_inverts_dft():
    rng = np.random.default_rng(102)
    for n in (2, 3, 8, 13, 64):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_allclose(idft(dft(z)), z, rtol=0, atol=1e-12)
        assert_allclose(dft(idft(z)), z, rtol=0, atol=1e-12)


def test_parseval_with_unnormalized_forward():
    rng = np.random.default_rng(103)
    for n in (4, 9, 32):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = dft(z)
        lhs = np.sum(np.abs(s) ** 2)
        rhs = n * np.sum(np.abs(z) ** 2)
        assert_allclose(lhs, rhs, rtol=1e-12)

