"""[N, L]-FROG measurement synthesis and measurement-index planning.

The measurement of a length-N signal z at frequency k and delay step m is

    |y^_{k,m}|^2,   y^_{k,m} = sum_{n=0}^{N-1} z_n z_{n+mL} e^{-2i pi kn/N},

with N-periodic indexing, k in [0, N) and m in [0, r), r = ceil(N/L).
Expanding both factors in DFT coefficients gives the equivalent
frequency-domain form

    y^_{k,m} = (1/N) sum_{l=0}^{N-1} s_l s_{(k-l) mod N} w^{lm},

where s = dft(z) and w = e^{2i pi L / N} is the phase advance per delay
step (equal to e^{2i pi / r} exactly when L divides N). All solver algebra
in this package is phrased in powers of that w, which are evaluated through
exact integer reduction of the exponent so unit-circle identities hold to
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import as_signal

__all__ = [
    "FrogParams",
    "FrogMeasurements",
    "MeasurementIndexPlan",
    "plan_indices",
    "frog_grid_time",
    "frog_grid_freq",
    "frog_measurements_time",
    "frog_measurements_freq",
]


@dataclass(frozen=True)
class FrogParams:
    """Measurement geometry: signal length N and delay stride L.

    Derived quantities: r = ceil(N/L) delay steps, and the per-step phase
    factor w = e^{2i pi L/N} appearing in the frequency-domain form.
    Forward synthesis accepts any N >= 2, 1 <= L <= N; the recovery
    pipeline additionally needs N even >= 8, L odd, and r >= 5.
    """

    N: int
    L: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.L <= self.N:
            raise ValueError(f"L must be in [1, N={self.N}], got {self.L}")

    @property
    def r(self) -> int:
        return -(-self.N // self.L)

    @property
    def w(self) -> complex:
        return self.w_pow(1)

    def w_pow(self, j: int) -> complex:
        """w^j with the exponent reduced exactly: e^{2i pi (jL mod N)/N}."""
        return complex(np.exp(2j * np.pi * ((j * self.L) % self.N) / self.N))

    def recovery_violations(self) -> list[str]:
        """Reasons this geometry is outside the recovery pipeline's domain."""
        problems = []
        if self.N % 2 != 0:
            problems.append(f"N={self.N} is odd (recovery handles even lengths)")
        if self.N < 8:
            problems.append(f"N={self.N} < 8 (need N/2 >= 4 solver stages)")
        if self.L % 2 == 0:
            problems.append(
                f"L={self.L} is even (delay phases satisfy w^(N/2) = +1, so the "
                "measurements cannot separate the two boundary coefficients and "
                "recovery is infeasible; see even_l_infeasibility_probe)"
            )
        if self.r < 5:
            problems.append(f"r=ceil(N/L)={self.r} < 5 (too few delay steps to plan)")
        return problems


@dataclass
class FrogMeasurements:
    """Map (k, m) -> |y^_{k,m}|^2 for one measurement geometry."""

    params: FrogParams
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        n, r = self.params.N, self.params.r
        for (k, m), val in self.entries.items():
            if not (0 <= k < n and 0 <= m < r):
                raise ValueError(f"entry index ({k}, {m}) outside grid {n}x{r}")
            if not (val >= 0 and math.isfinite(val)):
                raise ValueError(f"entry ({k}, {m}) has invalid value {val!r}")

    def value(self, k: int, m: int) -> float:
        return self.entries[(k, m)]

    def magnitude(self, k: int, m: int) -> float:
        """|y^_{k,m}| (the solvers consume magnitudes, not squares)."""
        return math.sqrt(self.entries[(k, m)])

    def max_value(self) -> float:
        return max(self.entries.values(), default=0.0)

    def is_full_grid(self) -> bool:
        return len(self.entries) == self.params.N * self.params.r

    def require(self, pairs) -> None:
        """Raise ValueError naming the first absent (k, m) pairs, if any."""
        missing = [p for p in pairs if p not in self.entries]
        if missing:
            raise ValueError(f"measurements missing required entries {missing[:5]}")

    def subset(self, pairs) -> "FrogMeasurements":
        """Restriction to the given (k, m) pairs (all must be present)."""
        self.require(pairs)
        return FrogMeasurements(self.params, {p: self.entries[p] for p in pairs})

    def as_grid(self) -> np.ndarray:
        """Full grid as an (N, r) array indexed [k, m]."""
        if not self.is_full_grid():
            raise ValueError("measurement set does not cover the full grid")
        n, r = self.params.N, self.params.r
        g = np.empty((n, r))
        for (k, m), val in self.entries.items():
            g[k, m] = val
        return g


def frog_grid_time(z, params: FrogParams) -> np.ndarray:
    """Full measurement grid from the time-domain product form, shape (N, r)."""
    z = as_signal(z)
    n, r = params.N, params.r
    if z.size != n:
        raise ValueError(f"signal length {z.size} != params.N {n}")
    shifted = z[(np.arange(n)[None, :] + params.L * np.arange(r)[:, None]) % n]
    rows = np.fft.fft(z[None, :] * shifted, axis=1)  # rows[m, k] = y^_{k,m}
    return (np.abs(rows) ** 2).T


def frog_grid_freq(s, params: FrogParams) -> np.ndarray:
    """Full measurement grid from the spectrum via circular convolution, (N, r)."""
    s = as_signal(s)
    n, r = params.N, params.r
    if s.size != n:
        raise ValueError(f"spectrum length {s.size} != params.N {n}")
    exps = (np.arange(n)[None, :] * (params.L * np.arange(r)[:, None])) % n
    modulated = s[None, :] * np.exp(2j * np.pi * exps / n)
    rows = np.fft.ifft(np.fft.fft(modulated, axis=1) * np.fft.fft(s)[None, :], axis=1)
    return (np.abs(rows / n) ** 2).T


def _collect(grid: np.ndarray, params: FrogParams, indices) -> FrogMeasurements:
    if indices is None:
        entries = {
            (k, m): float(grid[k, m])
            for k in range(params.N)
            for m in range(params.r)
        }
    else:
        entries = {}
        for k, m in indices:
            entries[(int(k), int(m))] = float(grid[k, m])
    return FrogMeasurements(params, entries)


def frog_measurements_time(z, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements |y^_{k,m}|^2 from the time-domain definition.

    indices: optional iterable of (k, m) pairs; the full N x r grid when
    omitted.
    """
    return _collect(frog_grid_time(z, params), params, indices)


def frog_measurements_freq(s, params: FrogParams, indices=None) -> FrogMeasurements:
    """Measurements from the spectrum; agrees with frog_measurements_time(idft(s))."""
    return _collect(frog_grid_freq(s, params), params, indices)


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


def _pow_is_one(num: int, den: int, p: int) -> bool:
    """e^{2i pi num/den} raised to p equals 1."""
    return (p * num) % den == 0


def _pow_is_minus_one(num: int, den: int, p: int) -> bool:
    """e^{2i pi num/den} raised to p equals -1."""
    return (2 * p * num - den) % (2 * den) == 0


@dataclass(frozen=True)
class MeasurementIndexPlan:
    """The 3N/2 + 1 measurement indices consumed by the recovery pipeline.

    base: fixed pairs (0,0), (0,1), (1,0), (3,0).
    i2:   five delay indices for the stage-2 five-circle system (first is 0).
    i3:   one extra delay index for the stage-3 pair.
    ik:   for each k in 4..N/2, three delay indices for the three-circle solve
          (first is 0).
    """

    params: FrogParams
    i2: tuple[int, int, int, int, int]
    i3: int
    ik: dict[int, tuple[int, int, int]]

    @property
    def base(self) -> tuple[tuple[int, int], ...]:
        return ((0, 0), (0, 1), (1, 0), (3, 0))

    def pairs(self) -> list[tuple[int, int]]:
        """All (k, m) pairs of the plan, sorted by (k, m)."""
        out = list(self.base)
        out += [(2, q) for q in self.i2]
        out.append((3, self.i3))
        for k, triple in self.ik.items():
            out += [(k, p) for p in triple]
        return sorted(out)

    @property
    def measurement_count(self) -> int:
        return len(self.pairs())


def plan_indices(params: FrogParams) -> MeasurementIndexPlan:
    """Deterministic admissible index plan (smallest indices first).

    Preconditions: r >= 5, N even, N/2 >= 4. Scans delay indices upward and
    takes the first admissible values; the leading index of the i2 and ik
    families is pinned to 0. The ik pair additionally prefers non-conjugate
    phases (see the loop below). Exhausting a scan would contradict the
    existence guarantee for r >= 5 and signals an implementation bug.
    """
    n, l, r = params.N, params.L, params.r
    if n % 2 != 0 or n // 2 < 4:
        raise ValueError(f"index planning needs even N with N/2 >= 4, got N={n}")
    if r < 5:
        raise ValueError(f"index planning needs r >= 5, got r={r}")

    def fail(what: str):  # pragma: no cover - unreachable for admissible geometries
        raise RuntimeError(f"index scan exhausted for {what} (N={n}, L={l}, r={r})")

    i2 = [0]
    for m in range(1, r):
        if len(i2) == 5:
            break
        if not _pow_is_minus_one(m * l, n, 2) and not _pow_is_one(m * l, n, 1):
            i2.append(m)
    if len(i2) != 5:
        fail("the stage-2 five-circle family")

    i3 = None
    for m in range(1, r):
        if (
            not _pow_is_minus_one(m * l, n, 3)
            and not _pow_is_one(m * l, n, 1)
            and not _pow_is_one(m * l, n, 2)
        ):
            i3 = m
            break
    if i3 is None:
        fail("the stage-3 pair index")

    ik: dict[int, tuple[int, int, int]] = {}
    for k in range(4, n // 2 + 1):
        adm = [m for m in range(1, r) if not _pow_is_minus_one(m * l, n, k)]
        if len(adm) < 2:
            fail(f"the stage-{k} circle family")
        # Prefer a pair whose phases w^{ka}, w^{kb} are not conjugate
        # (w^{k(a+b)} != 1), so the two non-zero-delay circles cannot be
        # structurally mirrored. At k = N/2 with r = 6 every admissible pair
        # is conjugate; fall back to the smallest pair and leave genuine
        # degeneracy to the solver's collinearity check.
        pair = None
        for ai in range(len(adm)):
            for bi in range(ai + 1, len(adm)):
                if not _pow_is_one((adm[ai] + adm[bi]) * l, n, k):
                    pair = (adm[ai], adm[bi])
                    break
            if pair is not None:
                break
        if pair is None:
            pair = (adm[0], adm[1])
        ik[k] = (0, pair[0], pair[1])

    plan = MeasurementIndexPlan(params, tuple(i2), i3, ik)
    expected = 3 * n // 2 + 1
    if len(set(plan.pairs())) != expected:
        raise RuntimeError(
            f"plan cardinality {len(set(plan.pairs()))} != {expected} (N={n}, L={l})"
        )
    return plan
