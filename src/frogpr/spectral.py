"""DFT conventions and input coercion.

Conventions used throughout the library:

    forward   s_k = sum_{n=0}^{N-1} z_n exp(-2i pi k n / N)      (unnormalized)
    inverse   z_n = (1/N) sum_{k=0}^{N-1} s_k exp(+2i pi k n / N)

so ``idft(dft(z)) == z`` and Parseval reads ``sum |s_k|^2 == N sum |z_n|^2``.
Signals and spectra are 1-D complex ndarrays of length N >= 2, with indices
understood N-periodically wherever a shifted index appears.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_signal", "dft", "idft"]


def as_signal(values) -> np.ndarray:
    """Coerce to a 1-D complex128 array of length >= 2 with finite entries."""
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {z.shape}")
    if z.size < 2:
        raise ValueError(f"signal length must be >= 2, got {z.size}")
    if not np.isfinite(z).all():
        raise ValueError("signal contains non-finite values")
    return z


def dft(z) -> np.ndarray:
    """Unnormalized forward DFT, s_k = sum_n z_n e^{-2i pi kn/N}."""
    return np.fft.fft(as_signal(z))


def idft(s) -> np.ndarray:
    """Inverse DFT with the 1/N factor, z_n = (1/N) sum_k s_k e^{2i pi kn/N}."""
    return np.fft.ifft(as_signal(s))

