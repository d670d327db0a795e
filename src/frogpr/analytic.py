"""Discrete analytic signals: construction and the spectral membership test.

A length-N signal z is analytic when its spectrum is supported on the
nonnegative-frequency half and the boundary coefficients are real:

    N even:  s = (s_0, s_1, ..., s_{N/2}, 0, ..., 0),  s_0 and s_{N/2} real
    N odd:   s = (s_0, s_1, ..., s_{(N-1)/2}, 0, ..., 0),  s_0 real

``make_analytic`` builds the analytic companion of a real signal by doubling
the positive frequencies (keeping the DC and, for even N, Nyquist terms), so
that Re(z) reproduces the input and Re(z), Im(z) are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import as_signal, dft, idft

__all__ = [
    "AnalyticityReport",
    "make_analytic",
    "is_analytic",
    "random_analytic_signal",
]


@dataclass(frozen=True)
class AnalyticityReport:
    """Outcome of the spectral analyticity test.

    max_violation is the worst offender: the largest modulus among
    coefficients required to vanish, or the largest |imag| among coefficients
    required to be real, whichever is bigger.
    """

    is_analytic: bool
    max_violation: float


def _spectral_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (required-zero, required-real) for length n."""
    if n % 2 == 0:
        zero = np.arange(n // 2 + 1, n)
        real = np.array([0, n // 2])
    else:
        zero = np.arange((n - 1) // 2 + 1, n)
        real = np.array([0])
    return zero, real


def make_analytic(x) -> np.ndarray:
    """Analytic companion of a real signal (doubled positive frequencies)."""
    if np.iscomplexobj(x):
        raise ValueError(f"expected a real signal, got dtype {np.asarray(x).dtype}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"expected a real 1-D signal of length >= 2, got shape {x.shape}")
    zero, real = _spectral_masks(x.size)
    gain = np.full(x.size, 2.0)
    gain[zero] = 0.0
    gain[real] = 1.0
    return idft(dft(x) * gain)


def is_analytic(s) -> AnalyticityReport:
    """Test spectrum s against the analytic support/reality pattern.

    A violation counts when it exceeds 1e-9 of the largest coefficient modulus.
    """
    s = as_signal(s)
    tol = 1e-9 * float(np.abs(s).max())
    zero_idx, real_idx = _spectral_masks(s.size)
    zero_viol = float(np.abs(s[zero_idx]).max()) if zero_idx.size else 0.0
    real_viol = float(np.abs(s[real_idx].imag).max())
    worst = max(zero_viol, real_viol)
    return AnalyticityReport(is_analytic=bool(worst <= tol), max_violation=worst)


def random_analytic_signal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic analytic signal: analytic companion of a standard-normal draw.

    Draws are rejected (probability ~0) while |s_0| or |s_1| falls below
    1e-6 max|s_k|, so the nonvanishing conditions the recovery stages
    divide by hold numerically.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    while True:
        z = make_analytic(rng.standard_normal(n))
        s = dft(z)
        if min(abs(s[0]), abs(s[1])) >= 1e-6 * np.abs(s).max():
            return z
