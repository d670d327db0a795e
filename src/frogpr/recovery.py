"""Three-stage recovery of an even-length analytic signal from FROG data.

For analytic z of even length N the spectrum is supported on 0..N/2 with
real boundary entries, so the frequency-domain form of the measurements has
no wrapped products in rows k = 1..N/2 and each row constrains one new
coefficient through circles |s_k + offset| = radius. Recovery proceeds:

  A1  recover_z0:  |s_0| from the k = 0 row (which mixes only s_0^2 and
      s_{N/2}^2); of its two roots, A1 takes the one whose k = 2 pair solve
      comes nearest to all five planned k = 2 circles. _row2_misfit scores
      a root on the tail's own stage-2 block and solves its pair, and A1
      hands the chosen root's block, radii and pair to the tail.
  A2  recover_tail: s_1 .. s_{N/2} sequentially; k = 2 (A1's pair) and
      k = 3 are two-circle solves with a conjugate / candidate-pair branch,
      and k = 4 keeps the stage-3 candidate whose point misses its circles
      least, as A1 keeps its root; later stages are three-circle solves.
      Each pair is solved once. Each stage is followed by a least-squares
      polish, which stops the stages' roundoff from compounding: stage k
      polishes its last 16 coefficients against the rows that involve
      them, and every 16th stage and the last stage polish all
      coefficients solved so far against all rows. Each stage
      gathers those rows once, with s_k = 0 (stage 2's is A1's): the rows
      k_r = k give its circles, setting the solved s_k changes only them,
      and the stage polishes the same block. From k = 31 on, a window
      s_lo .. s_k has 2 lo > k, so no row pairs two of its coefficients
      and its rows are affine in it: the polish scores each candidate by a
      matrix-vector update of that block. Every polish forms its Jacobian
      only for a step it takes.
  A3  recover:     run A2 once with s_0 = +|s_0|, translate s_{N/2} onto
      the positive real axis, and verify the signal it returns, the
      spectrum's one idft, against every supplied measurement, planned or
      not, by the time-domain definition the syntheses use.
      The s_0 < 0 start needs no run of its own: reflection followed by
      rotation by pi and translation by N/2 (s_k -> (-1)^(k+1) conj(s_k))
      maps A2's start (+|s_0|, s_1) to (-|s_0|, s_1), keeps every
      measurement and keeps A2's Im s_2 >= 0 choice, so the second start
      would reach an equivalent spectrum or fail alike.

A plan is its rows. Their expansion in coefficients, the rows k >= 1 as
partner indices k - l and unit-root sums (w^{lm} + w^{(k-l)m}) / N,
depends on the plan alone, so the first recovery through a plan builds it
(_expand) and later ones share it until the plan is freed. recover and the
even-L probe first run _scaled on one plan, once: it looks the plan's rows
up in the measurement set, scales their values and puts them in one row
table beside the expansion. That table is all A1, the tail and the even-L
probe read; they gather their rows from it, once per stage.

All of this assumes L odd (so the per-step phase satisfies w^{N/2} = -1 and
the k = 0 row separates the two boundary coefficients). For even L that row
degenerates and even_l_infeasibility_probe demonstrates the resulting
unsolvability with A1's k = 2 test, _row2_misfit.
"""

from __future__ import annotations

import math
import weakref
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
    FrogParams,
    MeasurementIndexPlan,
    _gather,
    _plan,
    _sized,
)

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

# The k = 2 pair solve divides by the gap between its two circles' multiples
# 1 / (2 cos phi_m). The multiples it computes carry a roundoff of about 2
# units in the last place each, so a gap below 2^10 units (2^-42 of the
# larger) is known to less than 0.5% and, below a few units, not at all: at
# such a geometry the pair's answer would hang on the values' last bits.
_ROW2_RESOLUTION = 2.0**-42

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
    column of dw. offsets reads the stage's circles off those rows (point
    and pair solve them, check_pair judges a pair's candidates); settle
    puts the solved s_k in, which changes only those rows; polish then
    works on the block in place. Every row k_r < k has a zero dw entry at
    l = k, so it is the same at s_k = 0 as at the solved s_k.

    tv:     s_0 .. s_k, with s_k = 0 until settle.
    y, dy:  _row_values of the rows at tv; None once polish has run.
    own:    the first row with k_r = k.
    edge:   dw[own:, 0], the weight of s_k t0 in those rows.
    rim:    the table's slice of those rows, where their radii are.
    """

    __slots__ = ("target", "mirror", "dw", "lo", "own", "edge", "rim", "tv", "y", "dy")

    def __init__(self, tables: _RowTables, t: np.ndarray, k: int, lo: int):
        self.target, self.mirror, self.dw = tables.stage(k, lo)
        self.lo = lo
        starts = tables.starts
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
        """The two-circle solve of the stage's first two circles, whose offsets are real
        multiples of m; NoSolutionError when they do not meet."""
        # Python scalars: the solvers' scalar arithmetic is several times
        # slower on numpy scalars.
        v1, v2 = (self.offsets()[:2] / m).real.tolist()
        n1, n2 = radii[self.rim][:2]
        return solve_two_circles_real(v1, v2, m, n1, n2)

    def check_pair(self, radii: list[float], cands: tuple[complex, complex]) -> None:
        """InconsistentMeasurementsError unless both candidates of pair lie on its two circles
        within _STAGE_TOL; before settle, while the rows k_r = k are at s_k = 0."""
        k = self.tv.size - 1
        offset, radius = self.offsets()[:2].tolist(), radii[self.rim][:2]
        res = max(_circle_residual(z, offset, radius) for z in cands)
        if res > _STAGE_TOL:
            raise InconsistentMeasurementsError(
                f"stage k={k}: two-circle candidate misses a circle by {res:.3e}",
                stage=k, residual=res, tol=_STAGE_TOL,
            )

    def polish(self, spectrum: np.ndarray, scale: float) -> None:
        """Gauss-Newton polish of s_lo .. s_k against the stage's rows lo <= k_r <= k.

        A raw stage solve inherits the roundoff of every earlier stage
        through its conditioning, and that error compounds fast enough to
        derail the later stages of larger systems even on exact
        measurements. Re-solving the squared-magnitude system after each
        stage resets the coefficients to least-squares accuracy, so every
        stage starts from machine-accurate inputs. A row k_r < lo involves
        only s_0 .. s_{k_r}, which the polish holds fixed, so only the rows
        k_r >= lo take part; lo = 1 would split the gauge and is not a
        window recover_tail uses.

        The k = 0 rows are deliberately excluded even when k = N/2: they
        hold only in the analytic gauge (s_{N/2} real), while the staged
        iterate pins s_1 real instead and reaches the analytic gauge only
        through the final translation normalization. Polishing against rows
        1..k keeps the iterate consistent with the gauge it actually lives
        in; the k = 0 rows already contributed |s_0| through the A1 root
        choice and are checked by the final verification.

        Each iteration linearizes |y^_{k,m}|^2 in the real and imaginary
        parts of the window's coefficients and takes the step of
        _gauss_newton_step, so s_0 and s_1 stay exactly real. Step halving
        keeps the iteration monotone: a step is taken only when it lowers
        the largest residual over the window's rows, so the result is never
        worse than the input. Singular normal equations count as a step that
        does not lower it; the iteration stops once that residual is within
        1e-15 scale.

        It works on the block in place, settled at the solved s_k, and
        forms the Jacobian only where it takes a step. When 2 lo > k, every
        window coefficient's partner s_{k_r - l} has k_r - l < lo and is
        held, so the rows are affine in the window: y^ = y^_0 + dy[:, lo:]
        (s - s_0) with dy[:, lo:] fixed, and a candidate is scored by that
        update. Every other polish gathers each candidate afresh. Writes
        s_0 .. s_k into spectrum[:k + 1] and drops y and dy, so that the
        block is freed before the next stage gathers its own.
        """
        lo, affine = self.lo, 2 * self.lo > self.tv.size - 1
        fvec = (self.y * self.y.conjugate()).real - self.target
        err = float(np.abs(fvec).max())
        for _ in range(_POLISH_MAX_ITER):
            if err <= 1e-15 * scale:
                break
            # A polish that is not affine gathers every candidate afresh: a
            # full one's Jacobian may overwrite dy, and neither stays alive
            # beside the next gather.
            jac = _jacobian(self.y, self.dy[:, lo:], out=self.dy if lo == 0 else None)
            try:
                step = _gauss_newton_step(jac, fvec, lo).view(np.complex128)
            except np.linalg.LinAlgError:
                break
            del jac
            if not affine:
                self.dy = None
            improved = False
            damp = 1.0
            for _ in range(4):
                cand = self.tv.copy()
                cand[lo:] += damp * step
                if affine:
                    cand_y = self.y + self.dy[:, lo:] @ (damp * step)
                else:
                    cand_y, self.dy = _row_values(cand, self.mirror, self.dw)
                cand_f = (cand_y * cand_y.conjugate()).real - self.target
                cand_err = float(np.abs(cand_f).max())
                if cand_err < err:
                    self.tv, self.y, fvec, err = cand, cand_y, cand_f, cand_err
                    improved = True
                    break
                damp *= 0.5
            if not improved:
                break
        spectrum[: self.tv.size] = self.tv
        self.y = self.dy = None


def _radii(tables: _RowTables, z0) -> list:
    """The circle radii sqrt(target) / (z0 |dw[:, 0]|) of the table's rows.

    A radius depends on its row and the A1 modulus z0 only (not on |t[0]|,
    which the polish may have moved in its last bits), so A1 computes all
    of them at once for every root it scores, z0 a column of the roots and
    one list per root, as the Python floats the solvers take; the tail
    reads the chosen root's. Each radius is the same elementwise expression
    for a column as for one root.
    """
    return (np.sqrt(tables.target) / (z0 * np.abs(tables.dw[:, 0]))).tolist()


def _circle_residual(z: complex, offset, radius) -> float:
    """Largest |distance-to-center - radius| over the circles, relative to 1 + radius.

    On Python scalars: a stage has two to five circles, where numpy's
    per-call cost outweighs the arithmetic.
    """
    return max(abs(abs(z + v) - n) / (1.0 + n) for v, n in zip(offset, radius))


def _row2_scale(t: np.ndarray, floor: float) -> complex:
    """t1^2 / t0, the scale m of the k = 2 pair solve.

    All k = 2 offsets are real multiples 1 / (2 cos phi) of t1^2 / t0 (t0
    real), so the s_2 candidates are a two-circle solve along that line.
    Raises DegenerateSignalError at stage "A1" when |t1| is at the floor,
    where that scale vanishes. Only _row2_misfit, A1's and the even-L
    probe's test, takes it; the tail solves no stage-2 pair, so it never
    raises it.
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


def _row2_misfit(
    tables: _RowTables, s_0: float, s_1: complex, radii: list[float]
) -> tuple[float, _StageRows, list[float], tuple[complex, ...]]:
    """The k = 2 test of A1 and the even-L probe: how near the pair solve of (s_0, s_1)
    comes to all five k = 2 circles, with radii the _radii at |s_0|.

    First, from the geometry alone, the pair's two multiples v = 1 / (2 cos
    phi_m) = dw[r, 1] / (2 dw[r, 0]) must differ by _ROW2_RESOLUTION of the
    larger; a geometry whose delay phases do not resolve that far (a huge
    N) is refused with DegenerateSignalError at stage "A1". Then it gathers
    the stage-2 block (rows 1 <= k_r <= 2, lo = 0) at (s_0, s_1) and
    solves the pair on the block's first two circles. Returns the least
    residual of a candidate on all five, inf when the pair solve has none,
    with the block, the radii and the candidates (none then): what the
    tail's stage 2 reads. A pair the solver still calls singular raises
    DegenerateSignalError with stage "A1" and the solver's message.
    """
    first = tables.starts[2]
    (a0, a1), (b0, b1) = tables.dw[first : first + 2, :2].tolist()
    va, vb = (0.5 * a1 / a0).real, (0.5 * b1 / b0).real
    gap = abs(va - vb) / max(abs(va), abs(vb))
    if not gap >= _ROW2_RESOLUTION:
        raise DegenerateSignalError(
            f"stage k=2: the pair's multiples 1/(2 cos phi) differ by {gap:.1e} of the "
            f"larger, below 2^-42: the delay phases at N={tables.n} do not resolve in float64",
            stage="A1",
        )
    stage = _StageRows(tables, np.array([s_0, s_1]), 2, 0)
    try:
        cands = stage.pair(radii, _row2_scale(stage.tv, tables.floor))
    except NoSolutionError:
        cands = ()
    except SingularConfigurationError as exc:
        raise DegenerateSignalError(f"stage k=2: {exc}", stage="A1") from exc
    offset, radius = stage.offsets().tolist(), radii[stage.rim]
    misfit = min((_circle_residual(z, offset, radius) for z in cands), default=math.inf)
    return misfit, stage, radii, cands


def recover_z0(tables: _RowTables) -> tuple[_StageRows, list[float], tuple[complex, ...]]:
    """|s_0| from the k = 0 row, disambiguated on the k = 2 row, as the tail's start.

    The k = 0 row gives max(|s_0|, |s_{N/2}|) = sqrt(N (|y^_{0,0}| +
    |y^_{0,1}|) / 2) and the other boundary modulus from the difference.
    Each distinct root above the floor (larger first; equal moduli are one
    root) is taken as s_0 with s_1 = N |y^_{1,0}| / (2 root), and scored by
    _row2_misfit, which gathers the tail's stage-2 block (rows 1 <= k_r <=
    2, lo = 0) and solves its pair: only for the true root does the k = 2
    pair solve give a point on all five planned k = 2 circles, so A1 takes
    the root with the least misfit, the larger on a tie, and no threshold
    decides it. It returns that root's block, whose tv[0] is the root,
    radii and pair candidates: the tail's start, so the pair is solved once.
    One pass takes the radii of every root.
    Raises DegenerateSignalError when the boundary coefficients vanish, s_1
    sits at the floor or the k = 2 pair's multiples do not resolve, and
    InconsistentMeasurementsError, with residual inf, when no root's pair
    solve has candidates; both carry stage "A1".
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
    roots = [root for root in dict.fromkeys((big, small)) if root > floor]
    scored = [
        _row2_misfit(tables, root, tables.s1(root), radii)
        for root, radii in zip(roots, _radii(tables, np.array(roots)[:, None]))
    ]
    misfit, stage, radii, cands = min(scored, key=lambda score: score[0])
    if misfit == math.inf:
        raise InconsistentMeasurementsError(
            "no boundary-modulus root admits a second-row pair solve",
            stage="A1", residual=math.inf,
        )
    return stage, radii, cands


def recover_tail(
    tables: _RowTables, stage: _StageRows, radii: list[float], cands: tuple[complex, ...]
) -> np.ndarray:
    """Spectrum s with s_0 = z0 and s_1 .. s_{N/2} solved row by row, from A1's start.

    s_1 is pinned real non-negative (spending the continuous translation
    freedom), the k = 2 conjugate pair is resolved to the non-negative
    imaginary branch (spending the reflection freedom), and of the k = 3
    candidate pair, k = 4 keeps the one whose three-circle point misses its
    circles least (inf for collinear centers), as A1 keeps its root. Every
    stage's point is checked on its circles within _STAGE_TOL, A1's k = 2
    candidates included. After each stage the last _POLISH_WINDOW
    coefficients are re-polished against the rows that involve them, and
    at every _POLISH_WINDOW-th stage and the last stage all coefficients
    solved so far against all rows consumed so far, so stage roundoff
    never compounds. Each polished stage gathers the rows of its polish once
    (_StageRows): their rows k_r = k give the stage's circles, and the
    stage polishes the same block once s_k is in; stage 3, which has no
    polish, gathers its own rows, and each k = 4 candidate its own block,
    the kept one's being polished. A refusal carries the stage k and, for
    a circle miss, its residual and _STAGE_TOL. Returns the full length-N
    spectrum (upper half zero). tables, as in recover_z0, and A1's stage-2
    block, radii and pair candidates, at z0 = stage.tv[0], are all the tail
    reads; it solves no stage-2 pair.
    """
    n = tables.n
    half = n // 2
    t = np.zeros(n, dtype=complex)
    t[:2] = stage.tv[:2]

    def rows(k: int) -> _StageRows:
        """Stage k's rows: those of its polish, whose window starts at lo."""
        full = k % _POLISH_WINDOW == 0 or k == half
        return _StageRows(tables, t, k, 0 if full else max(0, k + 1 - _POLISH_WINDOW))

    # k = 2: A1's block (lo = 0, as rows(2) has it) and pair, whose
    # candidates form a conjugate pair.
    stage.check_pair(radii, cands)
    stage.settle(cands[0] if cands[0].imag >= 0 else cands[1])
    stage.polish(t, tables.scale)
    if abs(t[2]) <= tables.floor:
        raise DegenerateSignalError(
            "third spectral coefficient vanishes; the stage-3 scale degenerates", stage=3
        )

    # k = 3: two circles whose offsets are real multiples cos(phi/2) /
    # cos(3 phi/2) of t1 t2 / t0; both candidates go to the k = 4 referee.
    # Stage 3 has no polish, so it gathers its own rows only.
    stage = _StageRows(tables, t, 3, 3)
    try:
        cands = stage.pair(radii, t[1] * t[2] / t[0])
    except NoSolutionError as exc:
        raise InconsistentMeasurementsError(f"stage k=3: {exc}", stage=3) from exc
    stage.check_pair(radii, cands)

    # k = 4 disambiguates: only the true stage-3 candidate extends, so the
    # tail keeps the one whose point misses its circles least (inf for
    # collinear centers), as A1 keeps its root, and the rows gathered for
    # it serve the polish.
    scored = []
    for cand in cands:
        t[3] = cand
        stage = rows(4)
        try:
            z4, res = stage.point(radii)
        except SingularConfigurationError:
            z4, res, stage = None, math.inf, None
        scored.append((res, cand, z4, stage))
    res, t[3], z4, stage = min(scored, key=lambda score: score[0])
    if stage is None:
        raise DegenerateSignalError(
            "stage k=4 circle centers are collinear for both stage-3 candidates", stage=4
        )
    if res > _STAGE_TOL:
        raise InconsistentMeasurementsError(
            "stage k=4 rejects both stage-3 candidates",
            stage=4, residual=res, tol=_STAGE_TOL,
        )
    stage.settle(z4)
    stage.polish(t, tables.scale)

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
        stage.polish(t, tables.scale)
    return t


class _RowTables(NamedTuple):
    """One recovery's table of a plan's rows (k_r, m_r) with k_r >= 1, sorted by (k, m).

    y^_{k_r,m_r} = (1/N) sum_l s_l s_{k_r - l} w^{l m_r} = (1/2) sum_l s_l
    s_{mirror} dw over l = 0..max k_r. starts, mirror and dw depend on the
    rows alone (_expand) and are the plan's; the rest is one recovery's.
    The first row is (1, 0). Entries with l > k_r are zero, so the rows
    lo <= k_r <= k are one run and stage(k, lo) slices it over [:k + 1].

    starts: starts[j], for j = 0 .. max k_r + 1, is the first row with
            k_r >= j (the row count for j = max k_r + 1).
    mirror: k_r - l, the index of the partner coefficient s_{k_r - l}; int32.
    dw:     (w^{l m_r} + w^{(k_r - l) m_r}) / N.
    n:      the signal length N.
    row0:   the k = 0 rows' values [|y^_{0,0}|^2, |y^_{0,1}|^2] A1 reads, or [].
    target: the measured |y^_{k_r,m_r}|^2 of the rows.
    scale:  the largest value, k = 0 rows included (1 when there is none).
    floor:  the coefficient floor. Coefficients scale like sqrt(N * |y^|),
            so below the relative genericity floor at that scale a
            spectral coefficient counts as zero.
    """

    starts: tuple[int, ...]
    mirror: np.ndarray
    dw: np.ndarray
    n: int
    row0: list[float]
    target: np.ndarray
    scale: float
    floor: float

    def stage(self, k_active: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """target, mirror and dw of the rows lo <= k_r <= k_active, over l <= k_active."""
        rows, width = slice(self.starts[lo], self.starts[k_active + 1]), k_active + 1
        return self.target[rows], self.mirror[rows, :width], self.dw[rows, :width]

    def s1(self, z0: float) -> float:
        """|s_1| = N |y^_{1,0}| / (2 z0) for the leading modulus z0."""
        return self.n * math.sqrt(self.target[0]) / (2.0 * z0)


def _expand(params: FrogParams, rows: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """starts, mirror and dw (see _RowTables) of the rows k >= 1 of (k, m)-sorted plan rows,
    mirror and dw read-only.

    Only the roots the rows read are evaluated: w^{lm} = e^{2i pi (l (m L mod N)
    mod N)/N} for each delay m up to the largest and each l up to the largest
    k, the exponent reduced exactly in integers (as _plan reduces its own). A
    row (k, m) gathers them at (m, l) and at its partner (m, k - l).
    """
    n = params.N
    k, m = rows[rows[:, 0].searchsorted(1) :].T
    l = np.arange(k[-1] + 1)
    # m L mod N per delay, then l (m L mod N) mod N: int64 while N max k fits.
    steps = [d * params.L % n for d in range(m.max() + 1)]
    steps = np.array(steps, np.int64 if n * int(l[-1]) < 2**63 else object)
    roots = np.exp(2j * np.pi * (np.multiply.outer(steps, l) % n).astype(np.int64) / n).ravel()
    # Row (k, m) reads w^{lm} at m (max k + 1) + l of the flat table and the
    # partner's w^{(k-l)m} at m (max k + 1) + k - l, clipped to its own w^0
    # where l > k (entries zeroed below).
    first = (m * l.size)[:, None]
    at = first + l
    dw = roots[at]
    np.subtract(first + k[:, None], l, out=at)
    np.maximum(at, first, out=at)
    dw += roots[at]
    # What dividing the complex array by N computes, on its float64 view.
    parts = dw.view(np.float64)
    parts *= 1.0 / n
    # mirror is built after the gathers and their temporaries: built before
    # them, it left glibc's heap so that each (256, 11) recovery's polish
    # blocks took twice the minor page faults (422 -> 841) and 10% longer.
    mirror = np.subtract.outer(k, l, dtype=np.int32)
    dead = mirror < 0
    dw[dead] = 0.0
    mirror[dead] = 0
    mirror.flags.writeable = dw.flags.writeable = False
    return tuple(np.searchsorted(k, np.arange(l.size + 1)).tolist()), mirror, dw


# _expand of each plan's rows, built on the first recovery through the plan,
# shared by later ones, and freed with the plan.
_EXPANSIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _scaled(measurements: FrogMeasurements, plan: MeasurementIndexPlan) -> tuple[_RowTables, int]:
    """The row table of the plan's rows, their values divided by 2^(4e), and e.

    ValueError names the first five planned pairs the set lacks, before the
    plan's rows are expanded. The values are quartic in the spectrum, so
    dividing them by 2^(4e) divides it by 2^e; e puts the largest in
    [1, 16), so the solvers' absolute floors see the same numbers at every
    scale.
    """
    at, found = measurements._positions(plan.rows)
    if not found.all():
        missing = list(map(tuple, plan.rows[~found][:5].tolist()))
        raise ValueError(f"measurements missing required entries {missing}")
    values = measurements.values[at]
    e = (math.frexp(values.max())[1] - 1) // 4
    values = np.ldexp(values, -4 * e)
    n, top = measurements.params.N, float(values.max(initial=0.0))
    floor = _GENERICITY_FLOOR * math.sqrt(n * math.sqrt(top))
    expansion = _EXPANSIONS.get(plan)
    if expansion is None:
        expansion = _EXPANSIONS[plan] = _expand(plan.params, plan.rows)
    first = len(plan.rows) - len(expansion[2])  # the k = 0 rows, which are not expanded
    row0, target = values[:first].tolist(), values[first:]
    return _RowTables(*expansion, n, row0, target, top or 1.0, floor), e


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
    to the largest stored value (so the residual is scale-invariant). The
    spectrum's measurements are those of its idft, by the time-domain
    definition, as frog_measurements_freq synthesizes them. Only the stored
    entries are evaluated, over the delays up to the last one measured.
    Raises ValueError for a spectrum of the wrong length, no measurements,
    or a spectrum whose value at a stored entry overflows: the first such
    entry in (k, m) order is named as synthesis names it, "entry (k, m) has
    invalid value inf", without numpy's warnings.
    """
    return _verified(spectrum, measurements)[1]


def _verified(spectrum, measurements: FrogMeasurements) -> tuple[np.ndarray, float]:
    """The spectrum's idft and verify_solution's residual, from one inverse transform."""
    params = measurements.params
    s = _sized(spectrum, params, "spectrum")
    if not len(measurements):
        raise ValueError("no measurements to verify the spectrum against")
    z = np.fft.ifft(s)
    top = float(measurements.values.max())
    # Both are finite and >= 0 (a set's values from where it was built), so
    # their difference is finite.
    dev = float(np.abs(_gather(z, params, measurements.rows) - measurements.values).max())
    # A Python division: a deviation far above tiny stored values is inf
    # without a warning.
    return z, dev / (top or 1.0)


def _check_rows(plan: MeasurementIndexPlan) -> None:
    """ValueError naming the first row, or the row count, where plan differs from
    plan_indices(plan.params)."""
    got, want = plan.pairs(), _plan(plan.params, plan.params.N // 2).pairs()
    for i, (row, planned) in enumerate(zip(got, want)):
        if row != planned:
            raise ValueError(f"plan row {i} is {row}, but plan_indices has {planned}")
    if len(got) != len(want):
        raise ValueError(f"plan has {len(got)} rows, but plan_indices has {len(want)}")


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
    plan for another geometry, a plan whose rows are not plan_indices(params)'s
    (checked until the plan's first recovery), or missing planned entries
    (before the plan's rows are expanded; given no plan, recover plans only
    the rows that name them for a set smaller than a plan); propagates
    DegenerateSignalError and InconsistentMeasurementsError from A1 and the
    tail; and raises InconsistentMeasurementsError with stage "verify" when
    the verification residual exceeds tol. Their stage, residual and tol
    fields say where recovery stopped and by how much. Measurements scaled
    by 2^(4j) give the spectrum scaled by exactly 2^j.
    """
    _check_positive("tol", tol)
    params = measurements.params
    violations = params.recovery_violations()
    if violations:
        raise UnsupportedGeometryError("; ".join(violations))
    if plan is None:
        # A set smaller than the plan lacks a planned pair, and the rows
        # k <= n + 4 hold 3n + 13 planned pairs, so the first five it lacks
        # are among them: a refusal plans no more rows than that. A set of
        # n > 3N/2 entries gets the whole plan, since then n + 4 > N/2.
        plan = _plan(params, min(params.N // 2, len(measurements) + 4))
    elif plan.params != params:
        raise ValueError(f"plan is for {plan.params} but the measurements are for {params}")
    elif plan not in _EXPANSIONS:  # a plan is checked until its first recovery expands it
        _check_rows(plan)
    tables, e = _scaled(measurements, plan)
    spectrum = _normalize_gauge(recover_tail(tables, *recover_z0(tables)))
    # Scaled on the float64 view, which keeps the sign of a zero part. The
    # power of two is exact, so on the planned entries the residual is the
    # scaled one's.
    spectrum = np.ldexp(spectrum.view(np.float64), e).view(np.complex128)
    signal, residual = _verified(spectrum, measurements)
    if not residual <= tol:  # a NaN residual is refused too
        raise InconsistentMeasurementsError(
            f"verification residual {residual:.3e} > {tol:.1e}",
            stage="verify", residual=residual, tol=tol,
        )
    return RecoveryResult(signal, spectrum, residual)


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
    it does for every theta. Other trials read infeasible only at small N,
    since their misfit falls about as the square of the k = 2 circles'
    spread 1 - cos(2 pi L / N): at L = 2, on exact data, the trial
    0.8 s_0 read infeasible in 20/20 draws at N = 64, 18/20 at 256, 6/20
    at 1024 and 0/20 from 4096 up; acceptance criterion 8 draws N <= 32
    only. Membership is within _PROBE_TOL relative to 1 + radius. The
    k = 1 and k = 2 rows are scaled by _scaled, as in recover, and alpha
    with them, so the verdict does not depend on the scale of the input.
    Only the plan's rows k <= 2 are planned and its rows k = 1, 2
    expanded, not the whole plan. Raises
    ValueError for odd L, a non-finite alpha or theta, missing rows, or an
    alpha that overflows when scaled; UnsupportedGeometryError for a
    geometry plan_indices refuses; and DegenerateSignalError when the scaled
    alpha or the trial |s_1| sits at the coefficient floor, or when the
    multiples 1 / (2 cos phi_m) of the pair solve's two k = 2 circles do not
    resolve in float64 (at a huge N, whose small delays' phases round
    alike), from the geometry alone, before the pair is solved.
    """
    params = measurements.params
    if params.L % 2 != 0:
        raise ValueError(f"probe applies to even delay strides, got L={params.L}")
    for name, value in (("alpha", alpha), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    rows = _plan(params, 2).rows
    tables, e = _scaled(measurements, MeasurementIndexPlan(params, rows[rows[:, 0] >= 1]))
    try:
        alpha = math.ldexp(alpha, -e)
    except OverflowError:
        raise ValueError(f"alpha {alpha!r} overflows at the measurements' scale") from None
    if abs(alpha) <= tables.floor:
        raise DegenerateSignalError("trial leading coefficient is at the noise floor", stage="A1")
    s_1 = tables.s1(abs(alpha)) * complex(math.cos(theta), math.sin(theta))
    return not _row2_misfit(tables, alpha, s_1, _radii(tables, abs(alpha)))[0] <= _PROBE_TOL
