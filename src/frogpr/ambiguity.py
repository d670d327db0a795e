"""Symmetry transforms that FROG intensities cannot distinguish.

For even-length analytic signals the ambiguity group is finite: sign flips
{+1, -1} x integer cyclic translations Z_N x {identity, reflection}, i.e.
4N elements. Every group word reduces to the normal form

    g(z) = rotation_sign * translate(reflect^b(z), l)

because reflect o translate_l = translate_{-l} o reflect and the sign
commutes with everything. ``equivalent_up_to_group`` searches that normal
form: an FFT cross-correlation shortlists the candidates, and the exact
residual decides among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .spectral import as_signal, dft, idft

__all__ = [
    "GroupElement",
    "EquivalenceReport",
    "rotate",
    "translate",
    "reflect",
    "apply_element",
    "group_elements",
    "equivalent_up_to_group",
]


@dataclass(frozen=True)
class GroupElement:
    """One ambiguity-group element in normal form (reflect, then shift, then sign)."""

    rotation_sign: int  # +1 or -1
    translation: int  # integer shift in [0, N)
    reflected: bool


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    best_element: GroupElement
    residual: float


def rotate(z, theta: float) -> np.ndarray:
    """Multiply the whole signal by the unit phase e^{i theta}; theta must be finite."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return as_signal(z) * np.exp(1j * theta)


def translate(z, gamma: float) -> np.ndarray:
    """Shift by gamma samples, defined spectrally for arbitrary real gamma.

    Coefficient k is multiplied by e^{2i pi k gamma / N}; for integer gamma
    this is the exact cyclic shift z[n] -> z[n + gamma]; gamma must be finite.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    z = as_signal(z)
    n = z.size
    phases = np.exp(2j * np.pi * np.arange(n) * (gamma / n))
    return idft(dft(z) * phases)


def reflect(z) -> np.ndarray:
    """Time-reversed conjugate, result[n] = conj(z[(-n) mod N]).

    Spectrally this conjugates every DFT coefficient in place.
    """
    z = as_signal(z)
    return np.conj(z[-np.arange(z.size)])


def apply_element(g: GroupElement, z) -> np.ndarray:
    """Apply a group element in its normal form (exact: no FFT round trip)."""
    z = as_signal(z)
    if g.reflected:
        z = reflect(z)
    # integer translation z[n] -> z[n + l] is a cyclic roll by -l
    return g.rotation_sign * np.roll(z, -g.translation)


def group_elements(n: int) -> Iterator[GroupElement]:
    """All 4N elements in lexicographic (rotation_sign, translation, reflected) order."""
    for sign in (-1, 1):
        for shift in range(n):
            for refl in (False, True):
                yield GroupElement(sign, shift, refl)


def _distance(rows: np.ndarray, g: GroupElement) -> float:
    """||g(z) - w|| for rows = [z, reflect(z), w]: one take of the stack, no roll."""
    n = rows.shape[1]
    moved = rows.take((np.arange(n) + g.translation) % n + n * g.reflected)
    return float(np.linalg.norm(g.rotation_sign * moved - rows[2]))


def equivalent_up_to_group(z, w, tol: float = 1e-6) -> EquivalenceReport:
    """Minimize ||g(z) - w|| / max(||z||, ||w||) over the 4N-element group.

    ||sign roll(z_b, -l) - w||^2 = ||z||^2 + ||w||^2 - 2 sign c_b[l], where
    c_b[l] = Re sum_n z_b[n + l] conj(w[n]) is one FFT cross-correlation per
    reflection flag b, so one pass estimates all 4N squared distances: one
    forward FFT of the stack [z, reflect(z), w] and one inverse. The
    expansion cancels near zero, so it only shortlists: every element whose
    estimate is within 64 N eps (||z||^2 + ||w||^2) of the least one. The
    exact residual of each shortlisted element, read from the stack by
    index, then picks the minimizer.
    Ties in the residual are broken by the elements' lexicographic order, so
    the reported minimizer is deterministic. Two zero signals are equivalent
    (residual 0); a zero signal never matches a nonzero one. Both signals are
    first scaled by one exact power of two that brings the larger peak
    modulus into [1/2, 1), so the norms neither overflow nor underflow and
    the residual is the same at every scale. tol must be finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    z = as_signal(z)
    w = as_signal(w)
    n = z.size
    if n != w.size:
        raise ValueError(f"length mismatch: {n} vs {w.size}")
    zw = np.array([z, w])
    peak = float(np.abs(zw).max())
    if peak == 0.0:
        return EquivalenceReport(True, GroupElement(-1, 0, False), 0.0)
    # One exact power of two scales both, on their float64 view.
    z, w = np.ldexp(zw.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
    norm_z, norm_w = float(np.linalg.norm(z)), float(np.linalg.norm(w))
    scale = max(norm_z, norm_w)
    total = norm_z * norm_z + norm_w * norm_w

    # estimate[sign, l, b], laid out in the lexicographic order of the
    # elements (sign -1 first, then shift, then unreflected first), which is
    # also the order of the shortlist's flat indices.
    rows = np.array([z, np.conj(z[-np.arange(n)]), w])
    spectra = np.fft.fft(rows)
    corr = np.fft.ifft(spectra[:2] * spectra[2].conj()).real.T
    estimate = total - 2.0 * np.array([-corr, corr])
    margin = 64 * n * np.finfo(float).eps * total
    shortlist = np.flatnonzero(estimate <= estimate.min() + margin).tolist()

    def scored(index: int) -> tuple[float, GroupElement]:
        s, rest = divmod(index, 2 * n)
        g = GroupElement(2 * s - 1, rest // 2, bool(rest % 2))
        return _distance(rows, g) / scale, g

    # Each element is scored once; min keeps the first of equal residuals,
    # the lexicographically least.
    best_res, best = min(map(scored, shortlist), key=lambda pair: pair[0])
    return EquivalenceReport(bool(best_res <= tol), best, best_res)
