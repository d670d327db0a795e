"""[N, L]-FROG measurement synthesis and measurement-index planning.

The measurement of a length-N signal z at frequency k and delay step m is

    |y^_{k,m}|^2,   y^_{k,m} = sum_{n=0}^{N-1} z_n z_{n+mL} e^{-2i pi kn/N},

with N-periodic indexing, k in [0, N) and m in [0, r), r = ceil(N/L).
This is the one forward map: synthesis from a signal, from a spectrum
(through its idft) and the recovery's verification all take the FFT of the
products z_n z_{n+mL}. Expanding both factors in DFT coefficients gives the
equivalent frequency-domain form

    y^_{k,m} = (1/N) sum_{l=0}^{N-1} s_l s_{(k-l) mod N} w^{lm},

where s = dft(z) and w = e^{2i pi L / N} is the phase advance per delay
step (equal to e^{2i pi / r} exactly when L divides N). The solver's algebra
is phrased in powers of that w, each evaluated at an exponent reduced
exactly in integers; the admissibility predicates below decide its
degeneracies by integer congruences.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

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

    Derived quantity: r = ceil(N/L) delay steps; the per-step phase factor
    is w = e^{2i pi L/N}. A geometry holds no array.
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
    values, the read-only float array aligned with it; a full set's
    values.reshape(N, r) is its grid. Every value is a finite real >= 0,
    checked once where the set is built: the constructor, the syntheses and
    the loader refuse any other, and so does `meas[k, m] = value`, which
    rebuilds the set with new arrays, so arrays a reader holds never change.
    params, rows and values are read-only properties: only _store sets the
    fields under them.
    """

    params = property(lambda self: self._params)
    rows = property(lambda self: self._rows)
    values = property(lambda self: self._values)

    def __init__(self, params: FrogParams, entries=()):
        entries = dict(entries)
        rows = [_entry(key, value, (params.N, params.r)) for key, value in entries.items()]
        self._store(params, rows, [*entries.values()])

    def _store(self, params: FrogParams, rows, values) -> FrogMeasurements:
        """Hold the checked entries rows[i] -> values[i] sorted by (k, m), read-only, rows as a
        copy and a repeated pair once (its first value); sorted, unique rows (plan.rows) take
        one pass."""
        if params.N >= 2**63:
            raise ValueError(f"N={params.N} exceeds the int64 index range")
        rows, values = np.array(rows, np.int64).reshape(-1, 2), np.asarray(values, float)
        keys = _ranks(params, rows)
        if not (keys[1:] > keys[:-1]).all():
            first = np.unique(keys, return_index=True)[1]
            rows, values = rows[first], values[first]
        rows.flags.writeable = values.flags.writeable = False
        self._params, self._rows, self._values, self._key_list = params, rows, values, None
        return self

    entries = property(lambda self: self)  # the set itself, as the (k, m) -> value mapping

    def _positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each pair of an (n, 2) array on the grid is in rows, and whether it is there."""
        ranks, keys = _ranks(self._params, rows), _ranks(self._params, self._rows)
        at = keys.searchsorted(ranks)
        # take clips a rank past the last key onto that key, which differs from it.
        return at, (keys.take(at, mode="clip") == ranks) if keys.size else np.zeros(at.shape, bool)

    def __setitem__(self, key, value) -> None:
        # The new pair goes first, so _store's keep-first dedup drops the old one.
        params = self._params
        k, m = _entry(key, value, (params.N, params.r))
        self._store(params, np.vstack([(k, m), self._rows]), np.append(value, self._values))

    def __getitem__(self, key) -> float:
        # Mapping's `in` and `get` call this: any key but a measured pair raises KeyError.
        n, r = self._params.N, self._params.r
        # A pair of exact ints skips _grid_index, whose pair and type tests it passes; the
        # range test stays, since an off-grid pair can have a measured pair's rank.
        if type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int:
            k, m = key
            if not (0 <= k < n and 0 <= m < r):
                raise KeyError(key)
        else:
            try:
                k, m = _grid_index(key, (n, r))
            except ValueError:
                raise KeyError(key) from None
        if self._key_list is None:  # bisect on a list: numpy's cost per call is 4x the search
            self._key_list = _ranks(self._params, self._rows).tolist()
        rank = k * r + m
        i = bisect.bisect_left(self._key_list, rank)
        if i == len(self._key_list) or self._key_list[i] != rank:
            raise KeyError(key)
        return self._values.item(i)

    def __iter__(self):
        return zip(*self._rows.T.tolist())

    def __len__(self) -> int:
        return self._values.size

    def is_full_grid(self) -> bool:
        return len(self) == self._params.N * self._params.r


def _check_entries(rows: np.ndarray, values: np.ndarray) -> None:
    """ValueError names the first rows[i], in rows' order, whose values[i] is negative, infinite
    or NaN."""
    # A NaN makes the min NaN, which fails >= 0.
    if not (values.min(initial=0.0) >= 0 and values.max(initial=0.0) < math.inf):
        i = np.flatnonzero(~((values >= 0) & (values < np.inf)))[0]
        k, m = rows[i].tolist()
        raise ValueError(f"entry ({k}, {m}) has invalid value {values.item(i)!r}")


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


def _sized(x, params: FrogParams, what: str) -> np.ndarray:
    """x by as_signal; ValueError naming what unless its length is params.N."""
    x = as_signal(x)
    if x.size != params.N:
        raise ValueError(f"{what} length {x.size} != params.N {params.N}")
    return x


def _time_rows(z: np.ndarray, params: FrogParams, r: int) -> np.ndarray:
    """|y^_{k,m}|^2 for m < r of a _sized signal from the time-domain product form, shape (N, r)."""
    n = params.N
    shifted = z[(np.arange(n)[None, :] + params.L * np.arange(r)[:, None]) % n]
    rows = np.fft.fft(z[None, :] * shifted, axis=1)  # rows[m, k] = y^_{k,m}
    return (np.abs(rows) ** 2).T


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


def _gather(z: np.ndarray, params: FrogParams, rows: np.ndarray) -> np.ndarray:
    """The entries of a signal z at the pairs of an (n, 2) array, _time_rows(z, params, r)[k, m]
    with r the delays needed; ValueError names the first, in rows' order, that overflowed to
    inf or NaN."""
    ks, ms = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        values = _time_rows(z, params, int(ms.max()) + 1 if len(ms) else 0)[ks, ms]
    _check_entries(rows, values)
    return values


def _collect(z: np.ndarray, params: FrogParams, rows: np.ndarray) -> FrogMeasurements:
    """The set of a signal z's entries at the pairs of an _index_rows array, by _gather."""
    return FrogMeasurements.__new__(FrogMeasurements)._store(params, rows, _gather(z, params, rows))


def frog_measurements_time(z, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements |y^_{k,m}|^2 from the time-domain definition.

    indices: optional iterable of (k, m) pairs; the full N x r grid when
    omitted. Only delays up to the largest requested one are computed. An
    entry that overflows is refused with ValueError naming the first, and
    its overflow is not warned about first. indices are checked before z.
    """
    rows = _index_rows(indices, (params.N, params.r))
    return _collect(_sized(z, params, "signal"), params, rows)


def frog_measurements_freq(s, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements of the spectrum s: frog_measurements_time(idft(s)), its indices checked
    before s and s refused as a "spectrum"."""
    rows = _index_rows(indices, (params.N, params.r))
    return _collect(np.fft.ifft(_sized(s, params, "spectrum")), params, rows)


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
    """

    params: FrogParams
    rows: np.ndarray

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
    return _plan(params, params.N // 2)


def _plan(params: FrogParams, last: int) -> MeasurementIndexPlan:
    """The rows k <= last (2 <= last <= N/2) of plan_indices(params), in O(last) work and memory."""
    violations = params.plan_violations()
    if violations:
        raise UnsupportedGeometryError("; ".join(violations))
    n, l, r = params.N, params.L, params.r
    # Every row reads delays 1..5 at most. With L < N/4 (r >= 5), delay m
    # fails row k = 2's tests below only when 2mL is N/2 or 3N/2, or mL is
    # N; two of 1..5 failing would need L = N/6 or N/8 from the first and
    # L = N/5 from the second, and none of those makes a second one fail.
    # Row k = 3 passes delay 1 or 2.
    m = np.arange(1, min(r, 6))
    # w^m = e^{2i pi phase/N}, from Python ints. Every product the tests
    # below form is under N^2, so phase is int64 while that fits and exact
    # Python ints beyond it, as in _ranks.
    phase = np.array([d * l % n for d in m.tolist()], np.int64 if n * n < 2**63 else object)
    rows = [(0, 0), (0, 1), (1, 0)]
    # Stage k divides by 1 + w^{km}; the k = 2 five-circle family and the
    # k = 3 pair also need w^{pm} != 1 for 0 < p < k, that is
    # w^{(k-1)m} != 1, since w^m = 1 implies w^{2m} = 1.
    for k, size in ((2, 4), (3, 1))[: last - 1]:  # the rows k = 2, 3 up to last
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
    k = np.arange(4, last + 1)[:, None]
    adm = ~_pow_is_minus_one(phase, n, k)
    a = adm.argmax(axis=1)
    later = adm & (np.arange(phase.size) > a[:, None])
    mates = later & ~_pow_is_one(phase[a][:, None] + phase, n, k)
    b = np.where(mates.any(axis=1), mates.argmax(axis=1), later.argmax(axis=1))
    tail = np.zeros((a.size, 3, 2), dtype=np.int64)
    tail[:, :, 0] = k
    tail[:, 1, 1], tail[:, 2, 1] = m[a], m[b]
    # Built in (k, m) order, as readers that slice rows by k need.
    rows = np.concatenate([np.array(rows), tail.reshape(-1, 2)])
    rows.flags.writeable = False
    return MeasurementIndexPlan(params, rows)
