"""[N, L]-FROG measurement synthesis and measurement-index planning.

The measurement of a length-N signal z at frequency k and delay step m is

    |y^_{k,m}|^2,   y^_{k,m} = sum_{n=0}^{N-1} z_n z_{n+mL} e^{-2i pi kn/N},

with N-periodic indexing, k in [0, N) and m in [0, r), r = ceil(N/L).
Expanding both factors in DFT coefficients gives the equivalent
frequency-domain form

    y^_{k,m} = (1/N) sum_{l=0}^{N-1} s_l s_{(k-l) mod N} w^{lm},

where s = dft(z) and w = e^{2i pi L / N} is the phase advance per delay
step (equal to e^{2i pi / r} exactly when L divides N). All solver algebra
in this package is phrased in powers of that w. Every power is read from
one table of the N-th roots of unity, FrogParams.unit_roots, at an exponent
reduced exactly in integers, so unit-circle identities hold to machine
precision.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedGeometryError
from .spectral import as_signal

__all__ = [
    "FrogParams",
    "FrogMeasurements",
    "MeasurementIndexPlan",
    "plan_indices",
    "frog_measurements_time",
    "frog_measurements_freq",
]


def _is_index(i) -> bool:
    """An int or numpy integer; bool is an int subclass but no index."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _grid_index(key, shape: tuple[int, int]) -> tuple[int, int]:
    """key as (k, m) in Python ints; ValueError unless it is a pair on the grid.

    The one index rule of lookup, assignment and synthesis: a pair of ints
    or numpy integers (no bools) with 0 <= k < N and 0 <= m < r.
    """
    try:
        k, m = key
    except (TypeError, ValueError):
        raise ValueError(f"entry index {key!r} is not a pair of integers") from None
    # Exact ints first: the isinstance test is slow.
    if type(k) is not int or type(m) is not int:
        if not (_is_index(k) and _is_index(m)):
            raise ValueError(f"entry index ({k!r}, {m!r}) is not a pair of integers")
        k, m = int(k), int(m)
    n, r = shape
    if not (0 <= k < n and 0 <= m < r):
        raise ValueError(f"entry index ({k}, {m}) outside grid {n}x{r}")
    return k, m


@dataclass(frozen=True)
class FrogParams:
    """Measurement geometry: signal length N and delay stride L.

    Derived quantities: r = ceil(N/L) delay steps, and the table unit_roots
    of the N-th roots of unity, from which every power of the per-step
    phase factor w = e^{2i pi L/N} is read.
    Forward synthesis accepts any integers N >= 2, 1 <= L <= N; the plan's
    and recovery's domains are stated by plan_violations and recovery_violations.
    """

    N: int
    L: int

    def __post_init__(self):
        for name in ("N", "L"):
            value = getattr(self, name)
            if not _is_index(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.L <= self.N:
            raise ValueError(f"L must be in [1, N={self.N}], got {self.L}")

    @functools.cached_property
    def r(self) -> int:
        return -(-self.N // self.L)

    @functools.cached_property
    def unit_roots(self) -> np.ndarray:
        """Read-only unit_roots[j] = e^{2i pi j/N}, j = 0..N-1, built on first use."""
        roots = np.exp(2j * np.pi * np.arange(self.N) / self.N)
        roots.flags.writeable = False
        return roots

    def w_pow(self, j: int) -> complex:
        """w^j with the exponent reduced exactly: unit_roots[jL mod N]."""
        return complex(self.unit_roots[(j * self.L) % self.N])

    def plan_violations(self) -> list[str]:
        """Reasons plan_indices has no plan for this geometry: N odd, N < 8, r < 5."""
        problems = []
        if self.N % 2 != 0:
            problems.append(f"N={self.N} is odd (recovery handles even lengths)")
        if self.N < 8:
            problems.append(f"N={self.N} < 8 (need N/2 >= 4 solver stages)")
        if self.r < 5:
            problems.append(f"r=ceil(N/L)={self.r} < 5 (too few delay steps to plan)")
        return problems

    def recovery_violations(self) -> list[str]:
        """Reasons this geometry is outside recovery's domain: plan_violations, L even, N = 6L."""
        problems = self.plan_violations()
        if self.L % 2 == 0:
            problems.append(
                f"L={self.L} is even (delay phases satisfy w^(N/2) = +1, so the "
                "measurements cannot separate the two boundary coefficients and "
                "recovery is infeasible; see even_l_infeasibility_probe)"
            )
        if self.N == 6 * self.L:
            problems.append(
                f"N={self.N} = 6L (w is a primitive 6th root of unity, so at every "
                "stage k = 3 mod 6 the admissible delays are 0, 2, 4 and rows "
                "(k, 2), (k, 4) are the same circle; the stage solve is singular)"
            )
        return problems


class FrogMeasurements(Mapping):
    """The measured |y^_{k,m}|^2 of one geometry, as a mapping (k, m) -> value.

    A set is its entries: rows, a read-only integer (n, 2) array of the
    measured pairs sorted by (k, m), each once (the form of plan.rows), and
    values, the float array aligned with it; a full set's values.reshape(N, r)
    is its grid. Items of `entries` are stored as by `meas[k, m] = value`,
    which refuses a pair off the grid or a value that is not a finite real
    >= 0, and overwrites a pair in place or inserts it in order.
    """

    def __init__(self, params: FrogParams, entries=()):
        entries = dict(entries)
        rows = [_entry(key, value, (params.N, params.r)) for key, value in entries.items()]
        self._store(params, rows, [*entries.values()])

    def _store(self, params: FrogParams, rows, values) -> FrogMeasurements:
        """Hold the checked entries rows[i] -> values[i] sorted by (k, m), rows as a copy and
        a repeated pair once (its first value); sorted, unique rows (plan.rows) take one pass."""
        if params.N >= 2**63:
            raise ValueError(f"N={params.N} exceeds the int64 index range")
        rows, values = np.array(rows, np.int64).reshape(-1, 2), np.asarray(values, float)
        keys = _ranks(params, rows)
        if not (keys[1:] > keys[:-1]).all():
            first = np.unique(keys, return_index=True)[1]
            rows, values = rows[first], values[first]
        rows.flags.writeable = False
        self.params, self.rows, self.values, self._key_list = params, rows, values, None
        return self

    entries = property(lambda self: self)  # the set itself, as the (k, m) -> value mapping

    def _find(self, k: int, m: int) -> tuple[int, bool]:
        """Where (k, m) is in rows and whether it is there, by its rank."""
        rank = k * self.params.r + m
        if self._key_list is None:  # bisect on a list: numpy's cost per call is 4x the search
            self._key_list = _ranks(self.params, self.rows).tolist()
        i = bisect.bisect_left(self._key_list, rank)
        return i, i < len(self._key_list) and self._key_list[i] == rank

    def _positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each pair of an (n, 2) array on the grid is in rows, and whether it is there."""
        ranks, keys = _ranks(self.params, rows), _ranks(self.params, self.rows)
        at = keys.searchsorted(ranks)
        # take clips a rank past the last key onto that key, which differs from it.
        return at, (keys.take(at, mode="clip") == ranks) if keys.size else np.zeros(at.shape, bool)

    def __setitem__(self, key, value) -> None:
        k, m = _entry(key, value, (self.params.N, self.params.r))
        i, found = self._find(k, m)
        if found:
            self.values[i] = value
        else:
            self._store(self.params, np.vstack([self.rows, (k, m)]), np.append(self.values, value))

    def __getitem__(self, key) -> float:
        # Mapping's `in` and `get` call this: any key but a measured pair raises KeyError.
        try:
            i, found = self._find(*_grid_index(key, (self.params.N, self.params.r)))
        except ValueError:
            raise KeyError(key) from None
        if not found:
            raise KeyError(key)
        return self.values.item(i)

    def __iter__(self):
        return zip(*self.rows.T.tolist())

    def __len__(self) -> int:
        return self.values.size

    def check_values(self) -> float:
        """The largest value, 0.0 for none; ValueError names the first entry, in (k, m) order,
        that is negative, infinite or NaN, which values, being public, can hold."""
        return _checked_max(self.rows, self.values)

    def is_full_grid(self) -> bool:
        return len(self) == self.params.N * self.params.r


def _checked_max(rows: np.ndarray, values: np.ndarray) -> float:
    """The largest of values, 0.0 for none; ValueError names the first rows[i], in rows' order,
    whose values[i] is negative, infinite or NaN."""
    top = float(values.max(initial=0.0))  # NaN if one is
    if not (values.min(initial=0.0) >= 0 and top < math.inf):
        i = np.flatnonzero(~((values >= 0) & (values < np.inf)))[0]
        k, m = rows[i].tolist()
        raise ValueError(f"entry ({k}, {m}) has invalid value {values.item(i)!r}")
    return top


def _ranks(params: FrogParams, rows: np.ndarray) -> np.ndarray:
    """k r + m of each row (k, m), its place in (k, m) order: int64 while N r fits, else ints."""
    k, m = rows.T
    return k.astype(np.int64 if params.N * params.r < 2**63 else object) * params.r + m


def _entry(key, value, shape: tuple[int, int]) -> tuple[int, int]:
    """key as (k, m) by _grid_index; ValueError unless value is a finite real >= 0."""
    k, m = _grid_index(key, shape)
    # A str, None, a complex or an array is refused like a negative value.
    if not (isinstance(value, numbers.Real) and value >= 0 and math.isfinite(value)):
        raise ValueError(f"entry ({k}, {m}) has invalid value {value!r}")
    return k, m


def _time_rows(z, params: FrogParams, r: int) -> np.ndarray:
    """|y^_{k,m}|^2 for m < r from the time-domain product form, shape (N, r)."""
    z = as_signal(z)
    n = params.N
    if z.size != n:
        raise ValueError(f"signal length {z.size} != params.N {n}")
    shifted = z[(np.arange(n)[None, :] + params.L * np.arange(r)[:, None]) % n]
    rows = np.fft.fft(z[None, :] * shifted, axis=1)  # rows[m, k] = y^_{k,m}
    return (np.abs(rows) ** 2).T


def _freq_rows(s, params: FrogParams, r: int) -> np.ndarray:
    """|y^_{k,m}|^2 for m < r from the spectrum via circular convolution, shape (N, r)."""
    s = as_signal(s)
    n = params.N
    if s.size != n:
        raise ValueError(f"spectrum length {s.size} != params.N {n}")
    exps = (np.arange(n)[None, :] * (params.L * np.arange(r)[:, None])) % n
    modulated = s[None, :] * params.unit_roots[exps]
    rows = np.fft.ifft(np.fft.fft(modulated, axis=1) * np.fft.fft(s)[None, :], axis=1)
    return (np.abs(rows / n) ** 2).T


def _index_rows(indices, shape: tuple[int, int]) -> np.ndarray:
    """indices (every pair for None) as an integer (n, 2) array, checked as _grid_index checks a
    pair: an integer (n, 2) array by array tests, returned as it is; anything else, or an array
    that fails them, pair by pair, naming the first pair refused."""
    n, r = shape
    if indices is None:
        return np.indices((n, r)).reshape(2, -1).T
    if isinstance(indices, np.ndarray):
        if indices.dtype.kind in "iu" and indices.ndim == 2 and indices.shape[1] == 2:
            ks, ms = indices.T
            if not indices.size or (indices.min() >= 0 and ks.max() < n and ms.max() < r):
                return indices
        indices = indices.tolist()
    pairs = itertools.chain.from_iterable([_grid_index(index, shape) for index in indices])
    return np.fromiter(pairs, np.int64).reshape(-1, 2)


def _gather(rows_of, x, params: FrogParams, rows: np.ndarray) -> np.ndarray:
    """x's entries at the pairs of an (n, 2) array, rows_of(x, params, r)[k, m] with r the
    delays needed; ValueError names the first, in rows' order, that overflowed to inf or NaN."""
    ks, ms = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        values = rows_of(x, params, int(ms.max()) + 1 if len(ms) else 0)[ks, ms]
    _checked_max(rows, values)
    return values


def _collect(rows_of, x, params: FrogParams, indices) -> FrogMeasurements:
    """x's entries at indices (all when None, in (k, m) order) by _gather."""
    rows = _index_rows(indices, (params.N, params.r))
    values = _gather(rows_of, x, params, rows)
    return FrogMeasurements.__new__(FrogMeasurements)._store(params, rows, values)


def frog_measurements_time(z, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements |y^_{k,m}|^2 from the time-domain definition.

    indices: optional iterable of (k, m) pairs; the full N x r grid when
    omitted. Only delays up to the largest requested one are computed. An
    entry that overflows is refused with ValueError naming the first, and
    its overflow is not warned about first.
    """
    return _collect(_time_rows, z, params, indices)


def frog_measurements_freq(s, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements from the spectrum; agrees with frog_measurements_time(idft(s))."""
    return _collect(_freq_rows, s, params, indices)


# --- exact admissibility predicates -----------------------------------------
#
# Solver stages divide by 1 + w^{km} and compare the real offsets
# v_m = w^m/(1 + w^{2m}) and u_m = (w^m + w^{2m})/(1 + w^{3m}) against their
# m = 0 values. Whether such unit-circle expressions degenerate is a question
# about rational angles, decided here by integer congruences on the exponent
# (for u = e^{2i pi a/q}: u^p = 1 iff pa = 0 mod q; u^p = -1 iff 2pa = q
# mod 2q). Fractions are compared in cross-multiplied form, so a vanishing
# denominator never poisons the test:
#     v_m = 1/2  <=>  (w^m - 1)^2 = 0          <=>  w^m = 1
#     u_m = 1    <=>  (1 - w^m)(1 - w^{2m}) = 0 <=>  w^m = 1 or w^{2m} = 1


def _pow_is_one(num, den: int, p):
    """e^{2i pi num/den} raised to p equals 1 (elementwise for integer arrays)."""
    return (p * num) % den == 0


def _pow_is_minus_one(num, den: int, p):
    """e^{2i pi num/den} raised to p equals -1 (elementwise for integer arrays)."""
    return (2 * p * num - den) % (2 * den) == 0


class RowExpansion(NamedTuple):
    """The rows (k_r, m_r) with k_r >= 1 of a (k, m)-sorted row array, in coefficients.

    y^_{k_r,m_r} = (1/N) sum_l s_l s_{k_r - l} w^{l m_r} = (1/2) sum_l s_l
    s_{mirror} dw over l = 0..max k_r, with these, which depend on the rows
    alone and not on any measured value:

    starts: starts[j], for j = 0 .. max k_r + 1, is the first expanded row
            with k_r >= j (their count for j = max k_r + 1).
    mirror: k_r - l, the index of the partner coefficient s_{k_r - l}; int32.
    dw:     (w^{l m_r} + w^{(k_r - l) m_r}) / N.

    Entries with l > k_r are 0 in mirror and dw. Both are read-only.
    """

    starts: tuple[int, ...]
    mirror: np.ndarray
    dw: np.ndarray


def expand_rows(params: FrogParams, rows: np.ndarray) -> RowExpansion:
    """The RowExpansion of a (k, m)-sorted selection of plan rows that has a row k >= 1."""
    n = params.N
    k, m = rows[rows[:, 0].searchsorted(1) :].T
    l = np.arange(k[-1] + 1)
    # l m L mod N, once per delay m and gathered by each row's delay. The
    # partner's exponent (k - l) m L is the same residue as the difference
    # of two of these, which lies in (-N, N) and reads unit_roots through
    # negative indexing.
    exps = np.multiply.outer(np.arange(m.max() + 1) * params.L % n, l)
    exps %= n
    exps = exps[m]
    roots = params.unit_roots
    dw = roots[exps]
    k_exps = exps[np.arange(k.size), k]  # k m L mod N of each row
    np.subtract(k_exps[:, None], exps, out=exps)
    dw += roots[exps]
    # What dividing the complex array by N computes, on its float64 view.
    parts = dw.view(np.float64)
    parts *= 1.0 / n
    mirror = np.subtract.outer(k, l, dtype=np.int32)
    dead = mirror < 0
    dw[dead] = 0.0
    mirror[dead] = 0
    mirror.flags.writeable = dw.flags.writeable = False
    starts = tuple(np.searchsorted(k, np.arange(l.size + 1)).tolist())
    return RowExpansion(starts, mirror, dw)


@dataclass(frozen=True, eq=False)
class MeasurementIndexPlan:
    """The 3N/2 + 1 measurement indices (k, m) consumed by the recovery pipeline.

    rows: read-only integer array of shape (3N/2 + 1, 2), sorted by (k, m).
    Row k = 0 holds delays 0 and 1, row k = 1 delay 0, row k = 2 the five
    delays of the stage-2 circle family, row k = 3 the two of the stage-3
    pair, and each row k = 4..N/2 the three of its three-circle solve;
    every row k >= 2 starts at delay 0. A reader takes slices of rows:
    delays(k) for one row, a mask on rows[:, 0] for a range of rows. Plans
    compare by identity; compare their rows with np.array_equal.

    expansion is expand_rows of the rows, which every recovery through the
    plan reads; the plan builds it on first use and keeps it, about 1 MB at
    (256, 11) and 63 MB at (2048, 31).
    """

    params: FrogParams
    rows: np.ndarray

    @functools.cached_property
    def expansion(self) -> RowExpansion:
        """expand_rows of the plan's rows, built on first use."""
        return expand_rows(self.params, self.rows)

    def delays(self, k: int) -> np.ndarray:
        """The sorted delays m of row k, a read-only view of rows."""
        lo, hi = self.rows[:, 0].searchsorted((k, k + 1))
        return self.rows[lo:hi, 1]

    def pairs(self) -> list[tuple[int, int]]:
        """The rows as (k, m) tuples of Python ints, sorted by (k, m)."""
        return list(map(tuple, self.rows.tolist()))


def plan_indices(params: FrogParams) -> MeasurementIndexPlan:
    """Deterministic admissible index plan (smallest indices first).

    Raises UnsupportedGeometryError listing params.plan_violations(). Rows
    k = 0 and k = 1 are fixed; each row k >= 2 takes delay 0 and then the
    smallest admissible delays, decided by integer congruences, and the
    pair of a row k >= 4 additionally prefers non-conjugate phases. A row
    k = 2 or 3 with too few admissible delays would contradict the
    existence guarantee for r >= 5 and signals an implementation bug.
    """
    violations = params.plan_violations()
    if violations:
        raise UnsupportedGeometryError("; ".join(violations))
    n, l, r = params.N, params.L, params.r
    m = np.arange(1, r)
    phase = m * l % n  # w^m = e^{2i pi phase/N}
    rows = [(0, 0), (0, 1), (1, 0)]
    # Stage k divides by 1 + w^{km}; the k = 2 five-circle family and the
    # k = 3 pair also need w^{pm} != 1 for 0 < p < k, that is
    # w^{(k-1)m} != 1, since w^m = 1 implies w^{2m} = 1.
    for k, size in ((2, 4), (3, 1)):
        adm = m[~_pow_is_minus_one(phase, n, k) & ~_pow_is_one(phase, n, k - 1)]
        if adm.size < size:  # pragma: no cover - unreachable for admissible geometries
            raise RuntimeError(f"too few admissible delays for row k={k} (N={n}, L={l}, r={r})")
        rows += [(k, 0), *((k, d) for d in adm[:size].tolist())]

    # A row k >= 4 takes the first pair (a, b) of admissible delays, in
    # itertools.combinations order, whose phases w^{ka}, w^{kb} are not
    # conjugate (w^{k(a+b)} != 1), so the two non-zero-delay circles cannot
    # be structurally mirrored. When every pair is conjugate (at k = N/2
    # with r = 6, say) it falls back to the smallest pair and leaves genuine
    # degeneracy to the solver's collinearity check. Delays 1..5 decide:
    # with d = kL mod N, delay m has x_m = kmL mod N = x_1 + (m - 1)d, is
    # admissible unless x_m = N/2, and pairs with a when x_a + x_m != 0 mod
    # N. Two delays in a row are never both inadmissible (that needs d = 0,
    # and then none is), so the first admissible delay a is 1 or 2 and the
    # next at most 4. If a pairs with none of a + 1, a + 2, a + 3, their x
    # are each N/2 or -x_a, so two are equal: d = 0 or 2d = 0, and either
    # way every admissible x is x_a with 2 x_a = 0, so every pair is
    # conjugate. (At r = 5 with a = 2 only a + 1 and a + 2 exist, and then
    # so do only two admissible delays.)
    k = np.arange(4, n // 2 + 1)[:, None]
    near = phase[:5]
    adm = ~_pow_is_minus_one(near, n, k)
    a = adm.argmax(axis=1)
    later = adm & (np.arange(near.size) > a[:, None])
    mates = later & ~_pow_is_one(near[a][:, None] + near, n, k)
    b = np.where(mates.any(axis=1), mates.argmax(axis=1), later.argmax(axis=1))
    tail = np.zeros((a.size, 3, 2), dtype=np.int64)
    tail[:, :, 0] = k
    tail[:, 1, 1], tail[:, 2, 1] = m[a], m[b]
    # Built in (k, m) order, as readers that slice rows by k need.
    rows = np.concatenate([np.array(rows), tail.reshape(-1, 2)])
    rows.flags.writeable = False
    return MeasurementIndexPlan(params, rows)
