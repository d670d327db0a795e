"""Three-stage recovery of an even-length analytic signal from FROG data.

For analytic z of even length N the spectrum is supported on 0..N/2 with
real boundary entries, so the frequency-domain form of the measurements has
no wrapped products in rows k = 1..N/2 and each row constrains one new
coefficient through circles |s_k + offset| = radius. Recovery proceeds:

  A1  recover_z0:  |s_0| from the k = 0 row (which mixes only s_0^2 and
      s_{N/2}^2); of its two roots, A1 takes the one whose k = 2 pair solve
      comes nearest to all five planned k = 2 circles.
  A2  recover_tail: s_1 .. s_{N/2} sequentially; k = 2 and k = 3 are
      two-circle solves with a conjugate / candidate-pair branch that k = 4
      disambiguates, later stages are three-circle solves. Each stage is
      followed by a least-squares polish, which stops the stages' roundoff
      from compounding: stage k polishes its last 16 coefficients against
      the rows that involve them, and every 16th stage and the last stage
      polish all coefficients solved so far against all rows. Each stage
      gathers those rows once, with s_k = 0: the rows k_r = k give its
      circles, setting the solved s_k changes only them, and the polish
      starts from the same block. From k = 31 on, a window s_lo .. s_k has
      2 lo > k, so no row pairs two of its coefficients and its rows are
      affine in it: the polish scores each candidate by a matrix-vector
      update of that block. Every polish forms its Jacobian only for a
      step it takes.
  A3  recover:     run A2 once with s_0 = +|s_0|, translate s_{N/2} onto
      the positive real axis, and verify the result against every
      supplied measurement, planned or not.
      The s_0 < 0 start needs no run of its own: reflection followed by
      rotation by pi and translation by N/2 (s_k -> (-1)^(k+1) conj(s_k))
      maps A2's start (+|s_0|, s_1) to (-|s_0|, s_1), keeps every
      measurement and keeps A2's Im s_2 >= 0 choice, so the second start
      would reach an equivalent spectrum or fail alike.

The expansion of the planned rows k >= 1 in coefficients, partner indices
k - l and unit-root sums (w^{lm} + w^{(k-l)m}) / N, depends on the plan
alone, so the plan builds it once and keeps it (MeasurementIndexPlan.
expansion). recover and the even-L probe first run _scaled on one plan,
once: it looks the plan's rows up in the measurement set, scales their
values and keeps them in one row table with the expansion. That table is
all A1, the tail and the even-L probe read; they gather their rows from
it, once per stage.

All of this assumes L odd (so the per-step phase satisfies w^{N/2} = -1 and
the k = 0 row separates the two boundary coefficients). For even L that row
degenerates and even_l_infeasibility_probe demonstrates the resulting
unsolvability with the same k = 2 test A1 uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circles import solve_three_circles, solve_two_circles_real
from .errors import (
    DegenerateSignalError,
    InconsistentMeasurementsError,
    NoSolutionError,
    SingularConfigurationError,
    UnsupportedGeometryError,
)
from .frog import (
    FrogMeasurements,
    MeasurementIndexPlan,
    RowExpansion,
    _freq_rows,
    _gather,
    plan_indices,
)
from .spectral import as_signal, idft

__all__ = [
    "RecoveryResult",
    "recover",
    "verify_solution",
    "even_l_infeasibility_probe",
]


# Stage-acceptance threshold inside the sequential tail solve. Even on exact
# measurements a raw stage solve carries its inputs' roundoff through the
# stage's conditioning, so this only needs to separate numerical drift from
# the wrong stage-3 candidate or corrupted measurements, both of which sit
# orders of magnitude above it. Accuracy is not its job: each stage is
# followed by a Gauss-Newton polish, and the final verification enforces the
# caller's tol.
_STAGE_TOL = 1e-2

# The even-L probe's bound on a trial pair's k = 2 misfit: a trial within it
# of all five k = 2 circles counts as feasible.
_PROBE_TOL = 1e-6

# Iteration limit of each stage's Gauss-Newton polish.
_POLISH_MAX_ITER = 10

# Stage k polishes only s_{k+1-W} .. s_k against the rows that involve them,
# about 3W rows whatever k is; every W-th stage and the last stage polish
# s_0 .. s_k against all rows, resetting the drift of the held prefix. That
# divides the polish's O(N^4) cost per recovery by about W. A window never
# starts at s_1 (stage W is full), so it either moves every coefficient or
# holds s_0 and s_1, and with them the gauge, fixed.
_POLISH_WINDOW = 16

# Coefficients below this, relative to the measurement-implied coefficient
# scale, count as vanishing: the solver stages divide by them, so such inputs
# are rejected as degenerate rather than amplified into garbage.
_GENERICITY_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered signal, its spectrum, and its verification residual."""

    signal: np.ndarray
    spectrum: np.ndarray
    verification_residual: float


def _check_positive(name: str, value: float) -> None:
    """ValueError naming the argument unless it is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class _StageRows:
    """Stage k's rows lo <= k_r <= k of the row table, gathered once over l <= k.

    The one gather of a stage: it is taken at s_0 .. s_{k-1} with s_k = 0,
    so its last rows (k_r = k) hold the part y of y^_{k,m} that does not
    involve s_k, which enters as s_k t0 (1 + w^{km}) / N through the l = 0
    column of dw. offsets reads the stage's circles off those rows; settle
    puts the solved s_k in, which changes only those rows; the polish then
    starts from the block. Every row k_r < k has a zero dw entry at l = k,
    so it is the same at s_k = 0 as at the solved s_k.

    tv:     s_0 .. s_k, with s_k = 0 until settle.
    y, dy:  _row_values of the rows at tv.
    own:    the first row with k_r = k.
    edge:   dw[own:, 0], the weight of s_k t0 in those rows.
    rim:    the table's slice of those rows, where their radii are.
    """

    __slots__ = ("target", "mirror", "dw", "lo", "own", "edge", "rim", "tv", "y", "dy")

    def __init__(self, tables: _RowTables, t: np.ndarray, k: int, lo: int):
        self.target, self.mirror, self.dw = tables.stage(k, lo)
        self.lo = lo
        starts = tables.expansion.starts
        self.own, self.rim = starts[k] - starts[lo], slice(starts[k], starts[k + 1])
        self.edge = self.dw[self.own :, 0]
        self.tv = np.zeros(k + 1, dtype=complex)
        self.tv[:k] = t[:k]
        self.y, self.dy = _row_values(self.tv, self.mirror, self.dw)

    def offsets(self) -> np.ndarray:
        """The rows k_r = k as circles |s_k + offset| = radius in the unknown s_k.

        Their radii are _radii of the table over rim.
        """
        return self.y[self.own :] / (self.tv[0] * self.edge)

    def settle(self, z: complex) -> None:
        """Set s_k = z: the rows k_r = k get dy[:, 0] = z edge and their y again."""
        own = self.own
        self.tv[-1] = z
        np.multiply(z, self.edge, out=self.dy[own:, 0])
        self.y[own:] = 0.5 * (self.dy[own:] @ self.tv)

    def point(self, radii: list[float]) -> tuple[complex, float]:
        """The three-circle point of the stage's circles, and its circle residual."""
        offset, radius = self.offsets().tolist(), radii[self.rim]
        z = solve_three_circles(*offset, *radius)
        return z, _circle_residual(z, offset, radius)

    def pair(self, radii: list[float], m: complex) -> tuple[complex, complex]:
        """The stage's pair solve along m; both candidates lie on its first two circles."""
        k = self.tv.size - 1
        offset, radius = self.offsets(), radii[self.rim]
        try:
            cands = _pair_solve(offset, radius, m)
        except NoSolutionError as exc:
            raise InconsistentMeasurementsError(f"stage k={k}: {exc}", stage=k) from exc
        offset, radius = offset[:2].tolist(), radius[:2]
        res = max(_circle_residual(z, offset, radius) for z in cands)
        if res > _STAGE_TOL:
            raise InconsistentMeasurementsError(
                f"stage k={k}: two-circle candidate misses a circle by {res:.3e}",
                stage=k, residual=res, tol=_STAGE_TOL,
            )
        return cands


def _radii(tables: _RowTables, z0: float, rows: slice = slice(None)) -> list[float]:
    """The circle radii sqrt(target) / (z0 |dw[:, 0]|) of the table's rows, all by default.

    A radius depends on its row and the A1 modulus z0 only (not on |t[0]|,
    which the polish may have moved in its last bits), so the tail computes
    all of them at once, as the Python floats the solvers take; A1 computes
    the five of the k = 2 rows it scores a root on.
    """
    return (np.sqrt(tables.target[rows]) / (z0 * np.abs(tables.expansion.dw[rows, 0]))).tolist()


def _circle_residual(z: complex, offset, radius) -> float:
    """Largest |distance-to-center - radius| over the circles, relative to 1 + radius.

    On Python scalars: a stage has two to five circles, where numpy's
    per-call cost outweighs the arithmetic.
    """
    return max(abs(abs(z + v) - n) / (1.0 + n) for v, n in zip(offset, radius))


def _pair_solve(
    offset: np.ndarray, radius: list[float], m: complex
) -> tuple[complex, complex]:
    """Two-circle solve on the first two circles, whose offsets are real multiples of m."""
    # Python scalars: the solvers' scalar arithmetic is several times slower
    # on numpy scalars.
    v1, v2 = (offset[:2] / m).real.tolist()
    n1, n2 = radius[:2]
    return solve_two_circles_real(v1, v2, m, n1, n2)


def _row2_scale(t: np.ndarray, floor: float) -> complex:
    """t1^2 / t0, the scale m of the k = 2 pair solve.

    All k = 2 offsets are real multiples 1 / (2 cos phi) of t1^2 / t0 (t0
    real), so the s_2 candidates are a two-circle solve along that line.
    Raises DegenerateSignalError at stage "A1" when |t1| is at the floor,
    where that scale vanishes. A1 scores every root it returns, so the tail never raises it.
    """
    if abs(t[1]) <= floor:
        raise DegenerateSignalError(
            "second spectral coefficient vanishes; the stage solves degenerate",
            stage="A1",
        )
    # Python complex division by a real divides each part exactly; numpy's
    # multiplies by the reciprocal, which would move the last bit.
    t1 = complex(t[1])
    return t1 * t1 / t[0].real


def _row2_misfit(tables: _RowTables, t: np.ndarray, z0: float) -> float:
    """A1's k = 2 test: the least residual of a pair candidate on all five k = 2 circles.

    inf when the pair solve has no candidates.
    """
    stage = _StageRows(tables, t, 2, 2)
    offset, radius = stage.offsets(), _radii(tables, z0, stage.rim)
    try:
        cands = _pair_solve(offset, radius, _row2_scale(t, tables.floor))
    except NoSolutionError:
        return math.inf
    offset = offset.tolist()
    return min(_circle_residual(z, offset, radius) for z in cands)


def recover_z0(tables: _RowTables) -> float:
    """|s_0| from the k = 0 row, disambiguated on the k = 2 row.

    The k = 0 row gives max(|s_0|, |s_{N/2}|) = sqrt(N (|y^_{0,0}| +
    |y^_{0,1}|) / 2) and the other boundary modulus from the difference.
    Each distinct root above the floor (larger first; equal moduli are one
    root) is taken as s_0 with s_1 = N |y^_{1,0}| / (2 root) and scored by
    _row2_misfit: only for the true root does the k = 2 pair solve give a
    point on all five planned k = 2 circles, so A1 returns the root with
    the least misfit, the larger on a tie, and no threshold decides it.
    Raises DegenerateSignalError when the boundary coefficients vanish or
    s_1 sits at the floor, and InconsistentMeasurementsError, with residual
    inf, when no root's pair solve has candidates; both carry stage "A1".
    tables, what _scaled made of the planned rows, is all A1 reads: the
    k = 0 values, s_1 and the k = 2 circles.
    """
    n = tables.n
    floor = tables.floor
    mag00, mag01 = map(math.sqrt, tables.row0)
    big = math.sqrt(n * (mag00 + mag01) / 2.0)
    if big <= floor:
        raise DegenerateSignalError(
            "both boundary spectral coefficients are at the noise floor", stage="A1"
        )
    small = math.sqrt(n * max(mag00 - mag01, 0.0) / 2.0)
    misfits = {
        root: _row2_misfit(tables, np.array([root, tables.s1(root)]), root)
        for root in dict.fromkeys((big, small))
        if root > floor
    }
    root = min(misfits, key=misfits.get)
    if misfits[root] == math.inf:
        raise InconsistentMeasurementsError(
            "no boundary-modulus root admits a second-row pair solve",
            stage="A1", residual=math.inf,
        )
    return root


def recover_tail(tables: _RowTables, z0: float) -> np.ndarray:
    """Spectrum s with s_0 = z0 and s_1 .. s_{N/2} solved row by row.

    s_1 is pinned real non-negative (spending the continuous translation
    freedom), the k = 2 conjugate pair is resolved to the non-negative
    imaginary branch (spending the reflection freedom), and the k = 3
    candidate pair is kept until the k = 4 three-circle solve rejects the
    spurious one. Every stage's point is checked on its circles within
    _STAGE_TOL. After each stage the last _POLISH_WINDOW coefficients are
    re-polished against the rows that involve them, and at every
    _POLISH_WINDOW-th stage and the last stage all coefficients solved so
    far against all rows consumed so far, so stage roundoff never
    compounds. Each polished stage gathers the rows of its polish once
    (_StageRows): their rows k_r = k give the stage's circles, and the
    polish starts from the same block once s_k is in; stage 3, which has
    no polish, gathers its own rows, and each k = 4 candidate its own
    block, the kept one's serving the polish. A refusal carries the stage
    k and, for a circle miss, its residual and _STAGE_TOL. Returns the
    full length-N spectrum (upper half zero). tables, as in recover_z0, and
    its root z0 are all the tail reads.
    """
    n = tables.n
    half = n // 2
    t = np.zeros(n, dtype=complex)
    t[0] = z0
    t[1] = tables.s1(z0)

    radii = _radii(tables, z0)

    def rows(k: int) -> _StageRows:
        """Stage k's rows: those of its polish, whose window starts at lo."""
        full = k % _POLISH_WINDOW == 0 or k == half
        return _StageRows(tables, t, k, 0 if full else max(0, k + 1 - _POLISH_WINDOW))

    # k = 2: two circles with real offsets along t1^2 / t[0]; conjugate pair.
    stage = rows(2)
    cands = stage.pair(radii, _row2_scale(t, tables.floor))
    stage.settle(cands[0] if cands[0].imag >= 0 else cands[1])
    _polish_coefficients(t, stage, tables.scale)
    if abs(t[2]) <= tables.floor:
        raise DegenerateSignalError(
            "third spectral coefficient vanishes; the stage-3 scale degenerates", stage=3
        )

    # k = 3: two circles whose offsets are real multiples cos(phi/2) /
    # cos(3 phi/2) of t1 t2 / t0; both candidates go to the k = 4 referee.
    # Stage 3 has no polish, so it gathers its own rows only.
    c3_cands = _StageRows(tables, t, 3, 3).pair(radii, t[1] * t[2] / t[0])

    # k = 4 disambiguates: only the true stage-3 candidate extends, and the
    # rows gathered for it serve the polish.
    outcomes = []
    misses = []
    for cand in c3_cands:
        t[3] = cand
        stage = rows(4)
        try:
            z4, res = stage.point(radii)
        except SingularConfigurationError:
            continue
        if res <= _STAGE_TOL:
            outcomes.append((res, cand, z4, stage))
        else:
            misses.append(res)
    if not outcomes:
        if not misses:
            raise DegenerateSignalError(
                "stage k=4 circle centers are collinear for both stage-3 candidates",
                stage=4,
            )
        raise InconsistentMeasurementsError(
            "stage k=4 rejects both stage-3 candidates",
            stage=4, residual=min(misses), tol=_STAGE_TOL,
        )
    _, t[3], z4, stage = min(outcomes, key=lambda o: o[0])
    stage.settle(z4)
    _polish_coefficients(t, stage, tables.scale)

    for k in range(5, half + 1):
        stage = rows(k)
        try:
            z, res = stage.point(radii)
        except SingularConfigurationError as exc:
            raise DegenerateSignalError(f"stage k={k}: {exc}", stage=k) from exc
        if res > _STAGE_TOL:
            raise InconsistentMeasurementsError(
                f"stage k={k} residual {res:.3e} exceeds the stage tolerance",
                stage=k, residual=res, tol=_STAGE_TOL,
            )
        stage.settle(z)
        _polish_coefficients(t, stage, tables.scale)
    return t


class _RowTables(NamedTuple):
    """One recovery's values of an expansion's rows (k_r, m_r), sorted by (k, m).

    expansion is the rows' RowExpansion, held by reference and shared by
    every table of the same rows; the rest is one recovery's. The expanded
    rows have k_r >= 1, and the first is (1, 0). Each is written out over
    l = 0..max k_r; entries with l > k_r are zero, so the rows lo <= k_r <= k
    are one run of rows and stage(k, lo) slices that run over columns [:k + 1].

    n:      the signal length N.
    row0:   the k = 0 rows' values [|y^_{0,0}|^2, |y^_{0,1}|^2] A1 reads, or [].
    target: the measured |y^_{k_r,m_r}|^2 of the expanded rows.
    scale:  the largest value, k = 0 rows included (1 when there is none).
    floor:  the coefficient floor. Coefficients scale like sqrt(N * |y^|),
            so below the relative genericity floor at that scale a
            spectral coefficient counts as zero.
    """

    expansion: RowExpansion
    n: int
    row0: list[float]
    target: np.ndarray
    scale: float
    floor: float

    def stage(self, k_active: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """target, mirror and dw of the rows lo <= k_r <= k_active, over l <= k_active."""
        starts, mirror, dw = self.expansion
        rows, width = slice(starts[lo], starts[k_active + 1]), k_active + 1
        return self.target[rows], mirror[rows, :width], dw[rows, :width]

    def s1(self, z0: float) -> float:
        """|s_1| = N |y^_{1,0}| / (2 z0) for the leading modulus z0."""
        return self.n * math.sqrt(self.target[0]) / (2.0 * z0)


def _scaled(measurements: FrogMeasurements, plan: MeasurementIndexPlan) -> tuple[_RowTables, int]:
    """The row table of the plan's rows, their values divided by 2^(4e), and e.

    ValueError names the first supplied entry that is negative, infinite or
    NaN (check_values), then the first five planned pairs the set lacks,
    before plan.expansion is read. The values are quartic in the spectrum,
    so dividing them by 2^(4e) divides it by 2^e; e puts the largest in
    [1, 16), so the solvers' absolute floors see the same numbers at every scale.
    """
    measurements.check_values()
    at, found = measurements._positions(plan.rows)
    if not found.all():
        missing = list(map(tuple, plan.rows[~found][:5].tolist()))
        raise ValueError(f"measurements missing required entries {missing}")
    values = measurements.values[at]
    e = (math.frexp(values.max())[1] - 1) // 4
    values = np.ldexp(values, -4 * e)
    n, top = measurements.params.N, float(values.max(initial=0.0))
    floor = _GENERICITY_FLOOR * math.sqrt(n * math.sqrt(top))
    expansion = plan.expansion
    first = len(plan.rows) - len(expansion.dw)  # the k = 0 rows, which are not expanded
    return _RowTables(expansion, n, values[:first].tolist(), values[first:], top or 1.0, floor), e


def _row_values(
    tv: np.ndarray, mirror: np.ndarray, dw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """y^ over the rows and the gathered block dy = d y^ / d s.

    dy[r, l] = d y^_r / d s_l = s_{k_r - l} dw[r, l], and swapping l with
    k_r - l shows sum_l s_l dy[r, l] = 2 y^_r, so y^ needs no second table.
    """
    # take converts the int32 mirror to intp in one pass, twice as fast as
    # tv[mirror]; the polish frees a block before the next is gathered,
    # so that temporary raises no peak.
    dy = tv.take(mirror)
    dy *= dw
    return 0.5 * (dy @ tv), dy


def _jacobian(y: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d|y^|^2 / d[Re s_l, Im s_l, ...] over dy's columns, [Re, Im] interleaved.

    With f = |y^|^2 real, df / d Re s_l - i df / d Im s_l = 2 y^ conj(dy),
    returned as its float64 view. out = dy overwrites the gathered block,
    so the two never take memory at once.
    """
    jac = np.conjugate(dy, out=out)
    jac *= (2.0 * y)[:, None]
    return jac.view(np.float64)


def _gauss_newton_step(jac: np.ndarray, fvec: np.ndarray, lo: int) -> np.ndarray:
    """Gauss-Newton step for jac step = -fvec over the window s_lo .. s_k.

    Rows 1..N/2 are invariant under global rotation and continuous
    translation, so over the full window (lo = 0) the Jacobian's null space
    is span{i s, i l s_l}. With s_0 and s_1 real and nonzero, the Im s_0
    and Im s_1 columns (1 and 3) hold all of it: zeroing them, with 1 on
    their diagonal of jac^T jac, leaves a full-rank system with the same
    column space, so jac step is the least-squares prediction and the gauge
    entries of the step are exactly 0. A window with lo >= 2 holds s_0 and
    s_1 fixed and has no null space. The system is solved through its
    normal equations (Golub & Van Loan, Matrix Computations, 5.3). Raises
    numpy.linalg.LinAlgError when they are singular. Zeroes jac's gauge
    columns in place when lo = 0.
    """
    if lo == 0:
        jac[:, 1] = jac[:, 3] = 0.0
    gram = jac.T @ jac
    if lo == 0:
        gram[1, 1] = gram[3, 3] = 1.0
    return np.linalg.solve(gram, jac.T @ -fvec)


def _polish_coefficients(spectrum: np.ndarray, rows: _StageRows, scale: float) -> None:
    """Gauss-Newton polish of s_lo .. s_k against the stage's rows lo <= k_r <= k.

    A raw stage solve inherits the roundoff of every earlier stage through
    its conditioning, and that error compounds fast enough to derail the
    later stages of larger systems even on exact measurements. Re-solving
    the squared-magnitude system after each stage resets the coefficients
    to least-squares accuracy, so every stage starts from machine-accurate
    inputs. A row k_r < lo involves only s_0 .. s_{k_r}, which the polish
    holds fixed, so only the rows k_r >= lo take part; lo = 1 would split
    the gauge and is not a window recover_tail uses.

    The k = 0 rows are deliberately excluded even when k = N/2: they hold
    only in the analytic gauge (s_{N/2} real), while the staged iterate
    pins s_1 real instead and reaches the analytic gauge only through the
    final translation normalization. Polishing against rows 1..k keeps the
    iterate consistent with the gauge it actually lives in; the k = 0 rows
    already contributed |s_0| through the A1 root choice and are checked by
    the final verification.

    Each iteration linearizes |y^_{k,m}|^2 in the real and imaginary parts
    of the window's coefficients and takes the step of _gauss_newton_step,
    so s_0 and s_1 stay exactly real. Step halving keeps the iteration
    monotone: a step is taken only when it lowers the largest residual over
    the window's rows, so the result is never worse than the input.
    Singular normal equations count as a step that does not lower it; the
    iteration stops once that residual is within 1e-15 scale.

    The polish starts from the stage's one gather, rows (settled at the
    solved s_k), and consumes it; the Jacobian is formed from the gathered
    block only where a step is taken. When 2 lo > k, every window
    coefficient's partner s_{k_r - l} has k_r - l < lo and is held, so the
    rows are affine in the window: y^ = y^_0 + dy[:, lo:] (s - s_0) with
    dy[:, lo:] fixed, and a candidate is scored by that update. Every other
    polish gathers each candidate afresh. Writes s_0 .. s_k into
    spectrum[:k + 1].
    """
    target, mirror, dw, lo = rows.target, rows.mirror, rows.dw, rows.lo
    tv, y, dy = rows.tv, rows.y, rows.dy
    # The polish takes the block over, so that its dy is freed once a fresh
    # gather replaces it.
    rows.y = rows.dy = None
    affine = 2 * lo > tv.size - 1
    fvec = (y * y.conjugate()).real - target
    err = float(np.abs(fvec).max())
    for _ in range(_POLISH_MAX_ITER):
        if err <= 1e-15 * scale:
            break
        # A polish that is not affine gathers every candidate afresh: a full
        # one's Jacobian may overwrite dy, and neither stays alive beside the
        # next gather.
        jac = _jacobian(y, dy[:, lo:], out=dy if lo == 0 else None)
        try:
            step = _gauss_newton_step(jac, fvec, lo).view(np.complex128)
        except np.linalg.LinAlgError:
            break
        del jac
        if not affine:
            dy = None
        improved = False
        damp = 1.0
        for _ in range(4):
            cand = tv.copy()
            cand[lo:] += damp * step
            if affine:
                cand_y = y + dy[:, lo:] @ (damp * step)
            else:
                cand_y, dy = _row_values(cand, mirror, dw)
            cand_f = (cand_y * cand_y.conjugate()).real - target
            cand_err = float(np.abs(cand_f).max())
            if cand_err < err:
                tv, y, fvec, err = cand, cand_y, cand_f, cand_err
                improved = True
                break
            damp *= 0.5
        if not improved:
            break
    spectrum[: tv.size] = tv


def _normalize_gauge(spectrum: np.ndarray) -> np.ndarray:
    """Pin the continuous translation so that s_{N/2} is real >= 0.

    Multiplies s_k by e^{-i (2k/N) phase(s_{N/2})}, a real translation of
    the underlying signal; rows 1..N/2 of the measurements are invariant and
    the k = 0 row regains its defining form with both boundary entries real.
    The tail's s_0 is already real and positive, since its polish steps
    never move Im s_0.
    """
    s = np.asarray(spectrum, dtype=complex)
    n = s.size
    phase = float(np.angle(s[n // 2]))
    return s * np.exp(-1j * phase * 2.0 * np.arange(n) / n)


def verify_solution(spectrum, measurements: FrogMeasurements) -> float:
    """Largest deviation of the spectrum's measurements from the stored ones.

    Deviations are absolute differences of |y^|^2 values, reported relative
    to the largest stored value (so the residual is scale-invariant).
    Only the stored entries are evaluated, over the delays up to the last
    one measured. Raises ValueError for a spectrum of the wrong length, no
    measurements, a stored value that is negative, infinite or NaN
    (check_values), or a spectrum whose value at a stored entry overflows:
    the first such entry in (k, m) order is named as synthesis names it,
    "entry (k, m) has invalid value inf", without numpy's warnings.
    """
    s = as_signal(spectrum)
    params = measurements.params
    if s.size != params.N:
        raise ValueError(f"spectrum length {s.size} != params.N {params.N}")
    if not len(measurements):
        raise ValueError("no measurements to verify the spectrum against")
    top = measurements.check_values()
    # Both are finite and >= 0, so their difference is finite.
    computed = _gather(_freq_rows, s, params, measurements.rows)
    dev = float(np.abs(computed - measurements.values).max())
    # A Python division: a deviation far above tiny stored values is inf
    # without a warning.
    return dev / (top or 1.0)


def recover(
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan | None = None,
    *,
    tol: float = 1e-6,
) -> RecoveryResult:
    """Full pipeline: A1 root choice, A2 tail from s_0 > 0, A3 verification.

    Solves from the planned 3N/2 + 1 entries (which must all be present)
    and verifies the result against every supplied entry, so an entry off
    the plan that the spectrum does not reproduce is refused. The result
    has s_0 > 0 (see the module docstring for why the s_0 < 0 start is not
    run) and is returned when its verification residual (relative to the
    largest measurement) is within tol. tol bounds only that verification:
    A1 takes the root of least misfit (see recover_z0). Raises ValueError
    for a tol that is not finite and > 0 (checked first), then
    UnsupportedGeometryError, a ValueError too, for a geometry outside the
    recovery domain (FrogParams.recovery_violations), and ValueError for a
    plan for another geometry, a supplied entry that is negative, infinite
    or NaN, or missing planned entries (before the plan's expansion is
    built); propagates DegenerateSignalError and InconsistentMeasurementsError
    from A1 and the tail; and raises InconsistentMeasurementsError with stage
    "verify" when the verification residual exceeds tol. Their stage, residual and tol fields
    say where recovery stopped and by how much. Measurements scaled by
    2^(4j) give the spectrum scaled by exactly 2^j.
    """
    _check_positive("tol", tol)
    params = measurements.params
    violations = params.recovery_violations()
    if violations:
        raise UnsupportedGeometryError("; ".join(violations))
    if plan is None:
        plan = plan_indices(params)
    if plan.params != params:
        raise ValueError(f"plan is for {plan.params} but the measurements are for {params}")
    tables, e = _scaled(measurements, plan)
    z0 = recover_z0(tables)
    spectrum = _normalize_gauge(recover_tail(tables, z0))
    # Scaled on the float64 view, which keeps the sign of a zero part. The
    # power of two is exact, so on the planned entries the residual is the
    # scaled one's.
    spectrum = np.ldexp(spectrum.view(np.float64), e).view(np.complex128)
    residual = verify_solution(spectrum, measurements)
    if not residual <= tol:  # a NaN residual is refused too
        raise InconsistentMeasurementsError(
            f"verification residual {residual:.3e} > {tol:.1e}",
            stage="verify", residual=residual, tol=tol,
        )
    return RecoveryResult(idft(spectrum), spectrum, residual)


def even_l_infeasibility_probe(
    measurements: FrogMeasurements,
    alpha: float,
    theta: float,
) -> bool:
    """True when no s_2 is consistent with the k = 2 row for the trial pair.

    For even L the k = 0 row cannot separate the boundary coefficients, so
    A1 has no root test; this probe shows what goes wrong downstream. It
    posits s_0 = alpha (real, nonzero) and s_1 = N |y^_{1,0}| / (2 |alpha|)
    * e^{i theta} and runs A1's k = 2 test on that pair: does the pair solve
    give a point on all five planned k = 2 circles? For alpha = +-(true s_0)
    it does for every theta; generic other trials are infeasible, which is
    exactly the ambiguity recovery cannot resolve. Membership is within
    _PROBE_TOL relative to 1 + radius. The k = 1 and k = 2 rows are scaled
    by _scaled, as in recover, and alpha with them, so the verdict does not
    depend on the scale of the input. Only the plan's rows k = 1, 2 are
    expanded, not the whole plan. Raises ValueError for odd L, a non-finite
    alpha or theta, a supplied entry that is negative, infinite or NaN, missing
    rows, or an alpha that overflows when scaled; UnsupportedGeometryError for
    a geometry plan_indices refuses; and DegenerateSignalError when the scaled
    alpha or the trial |s_1| sits at the coefficient floor.
    """
    params = measurements.params
    if params.L % 2 != 0:
        raise ValueError(f"probe applies to even delay strides, got L={params.L}")
    for name, value in (("alpha", alpha), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    rows = plan_indices(params).rows
    sub = MeasurementIndexPlan(params, rows[np.isin(rows[:, 0], (1, 2))])
    tables, e = _scaled(measurements, sub)
    try:
        alpha = math.ldexp(alpha, -e)
    except OverflowError:
        raise ValueError(f"alpha {alpha!r} overflows at the measurements' scale") from None
    if abs(alpha) <= tables.floor:
        raise DegenerateSignalError("trial leading coefficient is at the noise floor", stage="A1")
    t = np.array([alpha, tables.s1(abs(alpha)) * complex(math.cos(theta), math.sin(theta))])
    return not _row2_misfit(tables, t, abs(alpha)) <= _PROBE_TOL
