"""Direct-summation reference implementations used as oracles by the tests.

Everything here is written as the definitions read, with explicit loops and
no FFTs, so the library's fast paths are checked against independent code
rather than against themselves. The exception is the pair exp_grid_freq and
exp_row_dw: they evaluate every unit root by np.exp, in the library's order
of operations, so the library's table lookups are pinned bitwise.
"""

import itertools

import numpy as np


def direct_dft(z):
    """O(N^2) unnormalized forward DFT straight from the definition."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = sum(z[j] * np.exp(-2j * np.pi * k * j / n) for j in range(n))
    return out


def direct_frog_grid(z, L):
    """O(N^3) measurement grid |sum_n z_n z_{n+mL} e^{-2i pi kn/N}|^2."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    r = -(-n // L)
    out = np.empty((n, r))
    for m in range(r):
        for k in range(n):
            acc = 0.0 + 0.0j
            for idx in range(n):
                acc += z[idx] * z[(idx + m * L) % n] * np.exp(-2j * np.pi * k * idx / n)
            out[k, m] = abs(acc) ** 2
    return out


def exp_unit_roots(exps, n):
    """e^{2i pi e/N} for an integer array of exponents e, each by np.exp."""
    return np.exp(2j * np.pi * np.asarray(exps) / n)


def exp_grid_freq(s, L):
    """The grid of frogpr.frog_measurements_freq(s, params), its delay modulation by np.exp."""
    s = np.asarray(s, dtype=complex)
    n = s.size
    r = -(-n // L)
    exps = (np.arange(n)[None, :] * (L * np.arange(r)[:, None])) % n
    modulated = s[None, :] * exp_unit_roots(exps, n)
    rows = np.fft.ifft(np.fft.fft(modulated, axis=1) * np.fft.fft(s)[None, :], axis=1)
    return (np.abs(rows / n) ** 2).T


def full_grid_residual(spectrum, measurements):
    """verify_solution's residual over exp_grid_freq's full grid, every measured entry.

    The largest |grid - stored| where an entry is stored, relative to the
    largest stored value (1 when there is none).
    """
    stored = measurements.grid
    deviation = np.abs(exp_grid_freq(spectrum, measurements.params.L) - stored)
    dev = float(np.max(deviation, where=~np.isnan(stored), initial=0.0))
    return dev / (float(np.fmax.reduce(stored, axis=None, initial=0.0)) or 1.0)


def exp_row_dw(rows, n, L):
    """(w^{lm} + w^{(k-l)m}) / N over l = 0..max k for rows (k, m), 0 where l > k."""
    k, m = np.asarray(rows).T
    l = np.arange(k.max() + 1)
    step = ((m * L) % n)[:, None]
    mirror = k[:, None] - l
    dw = exp_unit_roots((l * step) % n, n) + exp_unit_roots((mirror * step) % n, n)
    dw /= n
    dw[mirror < 0] = 0.0
    return dw


def polish_residual_and_jacobian(tv, rows, target, n, L):
    """f = |y^_{k,m}|^2 - target and df/d[Re s_0, Im s_0, Re s_1, ...], row by row.

    y^_{k,m} = (1/N) sum_{l=0}^{k} s_l s_{k-l} w^{lm} with w = e^{2i pi L/N},
    for the active coefficients tv = s_0 .. s_{K-1} and rows (k, m), k < K.
    """
    tv = np.asarray(tv, dtype=complex)
    width = tv.size
    fvec = np.empty(len(rows))
    jac = np.zeros((len(rows), 2 * width))
    for row, (k, m) in enumerate(rows):
        dy = np.zeros(width, dtype=complex)
        l = np.arange(k + 1)
        w = np.exp(2j * np.pi * ((l * ((m * L) % n)) % n) / n)
        y = np.sum(tv[l] * tv[k - l] * w) / n
        # d y / d s_j = s_{k-j} (w^{jm} + w^{(k-j)m}) / N for j <= k.
        dy[: k + 1] = tv[k - l] * (w + w[::-1]) / n
        fvec[row] = (y * y.conjugate()).real - target[row]
        grad = y.conjugate() * dy
        jac[row, 0::2] = 2.0 * grad.real
        jac[row, 1::2] = -2.0 * grad.imag
    return fvec, jac


def row_circle(measurements, t, k, m, z0):
    """Row k, delay m, as a circle |s_k + offset| = radius, returned as (offset, radius).

    offset = sum_{l=1}^{k-1} s_l s_{k-l} w^{lm} / (s_0 (1 + w^{km})) reads
    t[0 .. k-1]; radius = N |y^_{k,m}| / (z0 |1 + w^{km}|).
    """
    params = measurements.params
    n = params.N
    l = np.arange(1, k)
    wvec = np.exp(2j * np.pi * ((l * ((m * params.L) % n)) % n) / n)
    middle = np.sum(t[1:k] * t[k - 1:0:-1] * wvec)
    denom = 1.0 + params.w_pow(k * m)
    offset = middle / (t[0] * denom)
    radius = n * np.sqrt(measurements[k, m]) / (z0 * abs(denom))
    return complex(offset), float(radius)


def offset_v(params, i):
    """Row-2 offset over t1^2 / t0: w^i / (1 + w^{2i}) = 1 / (2 cos phi), phi = 2 pi (iL mod N)/N."""
    phi = 2.0 * np.pi * ((i * params.L) % params.N) / params.N
    return 1.0 / (2.0 * np.cos(phi))


def offset_u(params, i):
    """Row-3 offset over t1 t2 / t0: (w^i + w^{2i}) / (1 + w^{3i}) = cos(phi/2) / cos(3 phi/2)."""
    phi = 2.0 * np.pi * ((i * params.L) % params.N) / params.N
    return np.cos(phi / 2.0) / np.cos(3.0 * phi / 2.0)


def exhaustive_equivalence(z, w, tol):
    """Equivalence search over all 4N group elements, one exact residual each.

    The same scaling, residual and lexicographic tie order as
    frogpr.equivalent_up_to_group, without the FFT shortlist.
    """
    from frogpr.ambiguity import EquivalenceReport, GroupElement, apply_element, group_elements

    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    peak = max(float(np.abs(z).max()), float(np.abs(w).max()))
    if peak == 0.0:
        return EquivalenceReport(True, GroupElement(-1, 0, False), 0.0)
    shift = -int(np.frexp(peak)[1])
    z = np.ldexp(z.real, shift) + 1j * np.ldexp(z.imag, shift)
    w = np.ldexp(w.real, shift) + 1j * np.ldexp(w.imag, shift)
    scale = max(float(np.linalg.norm(z)), float(np.linalg.norm(w)))

    def residual(g):
        return float(np.linalg.norm(apply_element(g, z) - w)) / scale

    best = min(group_elements(z.size), key=residual)
    best_res = residual(best)
    return EquivalenceReport(bool(best_res <= tol), best, best_res)


def lstsq_step(jac, fvec):
    """Minimum-norm least-squares Gauss-Newton step, by SVD: jac step ~ -fvec."""
    step, *_ = np.linalg.lstsq(jac, -fvec, rcond=None)
    return step


def scan_plan_rows(params, k_max):
    """The rows k <= k_max of frogpr.plan_indices, by a scan of every delay of every row.

    Row k >= 2 takes delay 0, then the first admissible delays (four at
    k = 2, one at k = 3), where stage k needs w^{km} != -1 and stages 2
    and 3 also w^{(k-1)m} != 1. A row k >= 4 takes the first pair of
    admissible delays, in itertools.combinations order, with
    w^{k(a+b)} != 1, and the first two admissible delays when there is none.
    """
    from frogpr.frog import _pow_is_minus_one, _pow_is_one

    n, l, r = params.N, params.L, params.r
    rows = [(0, 0), (0, 1), (1, 0)]
    for k in range(2, k_max + 1):
        adm = [
            m
            for m in range(1, r)
            if not _pow_is_minus_one(m * l, n, k) and not (k <= 3 and _pow_is_one(m * l, n, k - 1))
        ]
        size = {2: 4, 3: 1}.get(k, 2)
        assert len(adm) >= size, (n, l, k)
        chosen = adm[:size]
        if k >= 4:
            for a, b in itertools.combinations(adm, 2):
                if not _pow_is_one((a + b) * l, n, k):
                    chosen = (a, b)
                    break
        rows += [(k, m) for m in (0, *chosen)]
    return np.array(rows)


def file_text(header, tables):
    """The text of a frogpr signal or measurement file, one %-format call per row.

    header: the integer fields in order; tables: name -> (row template,
    *columns), as frogpr.jsonio writes them.
    """
    fields = [f'  "{key}": {int(value)}' for key, value in header.items()]
    for key, (template, *columns) in tables.items():
        rows = [template % row for row in zip(*(col.tolist() for col in columns))]
        body = "\n    " + ",\n    ".join(rows) + "\n  " if rows else ""
        fields.append(f'  "{key}": [{body}]')
    return "{\n" + ",\n".join(fields) + "\n}\n"
