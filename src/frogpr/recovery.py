"""Three-stage recovery of an even-length analytic signal from FROG data.

For analytic z of even length N the spectrum is supported on 0..N/2 with
real boundary entries, so the frequency-domain form of the measurements has
no wrapped products in rows k = 1..N/2 and each row constrains one new
coefficient through circles |s_k + offset| = radius. Recovery proceeds:

  A1  recover_z0:  |s_0| from the k = 0 row (which mixes only s_0^2 and
      s_{N/2}^2); the right root is the one whose k = 2 pair solve lands on
      all five planned k = 2 circles.
  A2  recover_tail: s_1 .. s_{N/2} sequentially; k = 2 and k = 3 are
      two-circle solves with a conjugate / candidate-pair branch that k = 4
      disambiguates, later stages are three-circle solves. Every stage reads
      its circles off the same builder, _row_circle. Each stage is
      followed by a least-squares polish of everything solved so far, which
      stops the stages' roundoff from compounding.
  A3  recover:     run A2 on both signs of s_0, normalize the gauge
      freedoms, and verify the winner against every measurement it consumed.

All of this assumes L odd (so the per-step phase satisfies w^{N/2} = -1 and
the k = 0 row separates the two boundary coefficients). For even L that row
degenerates and even_l_infeasibility_probe demonstrates the resulting
unsolvability with the same k = 2 test A1 uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circles import Circle, solve_three_circles, solve_two_circles_real
from .errors import (
    DegenerateSignalError,
    InconsistentMeasurementsError,
    NoSolutionError,
    SingularConfigurationError,
)
from .frog import FrogMeasurements, MeasurementIndexPlan, frog_grid_freq, plan_indices
from .spectral import as_signal, idft

__all__ = [
    "RecoveryConfig",
    "RecoveryResult",
    "recover_z0",
    "recover_tail",
    "recover",
    "verify_solution",
    "even_l_infeasibility_probe",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Tolerances for the recovery pipeline.

    feasibility_tol: acceptance threshold for circle-system membership,
        relative to 1 + radius.
    residual_tol: acceptance threshold for the final verification residual,
        relative to the largest consumed measurement value.
    genericity_floor: coefficients (relative to the measurement-implied
        coefficient scale) below this are treated as vanishing; the solver
        stages divide by them, so such inputs are rejected as degenerate
        rather than amplified into garbage.
    """

    feasibility_tol: float = 1e-6
    residual_tol: float = 1e-6
    genericity_floor: float = 1e-9


# Stage-acceptance threshold inside the sequential tail solve. Even on exact
# measurements a raw stage solve carries its inputs' roundoff through the
# stage's conditioning, so this only needs to separate numerical drift from
# the wrong stage-3 candidate or corrupted measurements, both of which sit
# orders of magnitude above it. Accuracy is not its job: each stage is
# followed by a Gauss-Newton polish of all coefficients solved so far, and
# the final verification enforces config.residual_tol.
_STAGE_TOL = 1e-2


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered signal, its spectrum, and how the run concluded."""

    signal: np.ndarray
    spectrum: np.ndarray
    sign_branch: int
    verification_residual: float


def _coefficient_floor(measurements: FrogMeasurements, config: RecoveryConfig) -> float:
    """Absolute threshold below which a spectral coefficient counts as zero.

    Coefficients scale like sqrt(N * |y^|), so the floor is the configured
    relative floor at that scale.
    """
    s_max = math.sqrt(measurements.max_value())
    return config.genericity_floor * math.sqrt(measurements.params.N * s_max)


def _offset_v(params, i: int) -> float:
    """v_i = w^i / (1 + w^{2i}) = 1 / (2 cos phi), phi = 2 pi (iL mod N)/N."""
    phi = 2.0 * np.pi * ((i * params.L) % params.N) / params.N
    return 1.0 / (2.0 * math.cos(phi))


def _offset_u(params, i: int) -> float:
    """u_i = (w^i + w^{2i}) / (1 + w^{3i}) = cos(phi/2) / cos(3 phi/2)."""
    phi = 2.0 * np.pi * ((i * params.L) % params.N) / params.N
    return math.cos(phi / 2.0) / math.cos(3.0 * phi / 2.0)


def _row_circle(
    measurements: FrogMeasurements, t: np.ndarray, k: int, m: int, z0: float
) -> Circle:
    """Row k, delay m, as a circle |s_k + offset| = radius in the unknown s_k.

    offset = sum_{l=1}^{k-1} s_l s_{k-l} w^{lm} / (s_0 (1 + w^{km})) reads
    t[0 .. k-1]; radius = N |y^_{k,m}| / (z0 |1 + w^{km}|) uses the A1
    modulus z0, not |t[0]|, which the polish may have moved in its last bits.
    """
    params = measurements.params
    n = params.N
    l = np.arange(1, k)
    wvec = np.exp(2j * np.pi * ((l * ((m * params.L) % n)) % n) / n)
    middle = np.sum(t[1:k] * t[k - 1:0:-1] * wvec)
    denom = 1.0 + params.w_pow(k * m)
    offset = middle / (t[0] * denom)
    radius = n * measurements.magnitude(k, m) / (z0 * abs(denom))
    return Circle(complex(offset), float(radius))


def _row2_pair(
    plan: MeasurementIndexPlan,
    t: np.ndarray,
    circles: list[Circle],
    floor: float,
    tol: float | None,
) -> tuple[complex, complex]:
    """Candidates for s_2 from circles[0], circles[1]: row 2 at plan.i2[:2].

    All k = 2 centers are real multiples v_i of t1^2 / t0 (t0 real), so the
    pair is a two-circle solve along that line, non-negative branch first.
    Raises DegenerateSignalError when |t1| is at the floor, where that scale
    vanishes and the solve says nothing.
    """
    if abs(t[1]) <= floor:
        raise DegenerateSignalError(
            "second spectral coefficient vanishes; the stage solves degenerate"
        )
    # Python complex division by a real divides each part exactly; numpy's
    # multiplies by the reciprocal, which would move the last bit.
    t1 = complex(t[1])
    return solve_two_circles_real(
        _offset_v(plan.params, plan.i2[0]),
        _offset_v(plan.params, plan.i2[1]),
        t1 * t1 / t[0].real,
        circles[0].radius,
        circles[1].radius,
        tol=tol,
    )


def _row2_feasible(
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan,
    t: np.ndarray,
    z0: float,
    floor: float,
    tol: float,
) -> bool:
    """Whether a k = 2 pair candidate lies on all five planned k = 2 circles."""
    circles = [_row_circle(measurements, t, 2, i, z0) for i in plan.i2]
    try:
        cands = _row2_pair(plan, t, circles, floor, tol=None)
    except NoSolutionError:
        return False
    return any(all(c.residual(z) <= tol for c in circles) for z in cands)


def recover_z0(
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan,
    config: RecoveryConfig | None = None,
) -> float:
    """|s_0| from the k = 0 row, disambiguated on the k = 2 row.

    The k = 0 row gives max(|s_0|, |s_{N/2}|) = sqrt(N (|y^_{0,0}| +
    |y^_{0,1}|) / 2) and the other boundary modulus from the difference.
    When the two are separated, each root in turn (larger first) is taken as
    s_0 with s_1 = N |y^_{1,0}| / (2 root); only for the true root does the
    k = 2 pair solve give a point on all five planned k = 2 circles. Raises
    DegenerateSignalError when the boundary coefficients vanish or s_1 sits
    at the floor, InconsistentMeasurementsError when neither root passes.
    """
    config = config or RecoveryConfig()
    measurements.require(
        [(0, 0), (0, 1), (1, 0)] + [(2, i) for i in plan.i2]
    )
    n = measurements.params.N
    floor = _coefficient_floor(measurements, config)

    mag00 = measurements.magnitude(0, 0)
    mag01 = measurements.magnitude(0, 1)
    big = math.sqrt(n * (mag00 + mag01) / 2.0)
    if big <= floor:
        raise DegenerateSignalError(
            "both boundary spectral coefficients are at the noise floor"
        )
    if mag01 <= config.feasibility_tol * mag00:
        # Boundary moduli coincide; either root works and they are equal.
        return big
    small = math.sqrt(n * max(mag00 - mag01, 0.0) / 2.0)

    for root in (big, small):
        if root <= floor:
            break
        t = np.array([root, n * measurements.magnitude(1, 0) / (2.0 * root)])
        if _row2_feasible(measurements, plan, t, root, floor, config.feasibility_tol):
            return root
    raise InconsistentMeasurementsError(
        "neither boundary-modulus root admits a consistent second-row circle system"
    )


def recover_tail(
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan,
    z0: float,
    sign: int,
    config: RecoveryConfig | None = None,
) -> np.ndarray:
    """Spectrum s with s_0 = sign * z0 and s_1 .. s_{N/2} solved row by row.

    s_1 is pinned real non-negative (spending the continuous translation
    freedom), the k = 2 conjugate pair is resolved to the non-negative
    imaginary branch (spending the reflection freedom), and the k = 3
    candidate pair is kept until the k = 4 three-circle solve rejects the
    spurious one. After each stage all coefficients solved so far are
    re-polished against the rows consumed so far, so stage roundoff never
    compounds. Returns the full length-N spectrum (upper half zero).
    """
    config = config or RecoveryConfig()
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if not z0 > 0:
        raise ValueError(f"z0 must be positive, got {z0!r}")
    params = measurements.params
    n, half = params.N, params.N // 2
    measurements.require(plan.pairs())
    floor = _coefficient_floor(measurements, config)
    if z0 <= floor:
        raise DegenerateSignalError("leading spectral coefficient is at the noise floor")

    t = np.zeros(n, dtype=complex)
    t[0] = sign * z0
    t[1] = n * measurements.magnitude(1, 0) / (2.0 * z0)

    def stage_point(k: int) -> tuple[complex, float]:
        circles = [_row_circle(measurements, t, k, m, z0) for m in plan.ik[k]]
        z = solve_three_circles(
            circles[0].offset,
            circles[1].offset,
            circles[2].offset,
            circles[0].radius,
            circles[1].radius,
            circles[2].radius,
            tol=None,
        )
        return z, max(c.residual(z) for c in circles)

    # k = 2: two circles with real offsets along t1^2 / t[0]; conjugate pair.
    circles = [_row_circle(measurements, t, 2, i, z0) for i in plan.i2[:2]]
    try:
        cands = _row2_pair(plan, t, circles, floor, _STAGE_TOL)
    except NoSolutionError as exc:
        raise InconsistentMeasurementsError(f"stage k=2: {exc}") from exc
    t[2] = cands[0] if cands[0].imag >= 0 else cands[1]
    t = _polish_coefficients(t, 2, measurements, plan)
    if abs(t[2]) <= floor:
        raise DegenerateSignalError(
            "third spectral coefficient vanishes; the stage-3 scale degenerates"
        )

    # k = 3: two circles along t1 t2 / t0; both candidates go to the k = 4
    # referee.
    try:
        c3_cands = solve_two_circles_real(
            1.0,
            _offset_u(params, plan.i3),
            t[1] * t[2] / t[0],
            _row_circle(measurements, t, 3, 0, z0).radius,
            _row_circle(measurements, t, 3, plan.i3, z0).radius,
            tol=_STAGE_TOL,
        )
    except NoSolutionError as exc:
        raise InconsistentMeasurementsError(f"stage k=3: {exc}") from exc

    # k = 4 disambiguates: only the true stage-3 candidate extends.
    outcomes = []
    singular = 0
    for cand in c3_cands:
        t[3] = cand
        try:
            z4, res = stage_point(4)
        except SingularConfigurationError:
            singular += 1
            continue
        if res <= _STAGE_TOL:
            outcomes.append((res, cand, z4))
    if not outcomes:
        if singular == len(c3_cands):
            raise DegenerateSignalError(
                "stage k=4 circle centers are collinear for both stage-3 candidates"
            )
        raise InconsistentMeasurementsError(
            "stage k=4 rejects both stage-3 candidates"
        )
    _, t[3], t[4] = min(outcomes, key=lambda o: o[0])
    t = _polish_coefficients(t, 4, measurements, plan)

    for k in range(5, half + 1):
        try:
            z, res = stage_point(k)
        except SingularConfigurationError as exc:
            raise DegenerateSignalError(f"stage k={k}: {exc}") from exc
        if res > _STAGE_TOL:
            raise InconsistentMeasurementsError(
                f"stage k={k} residual {res:.3e} exceeds the stage tolerance"
            )
        t[k] = z
        t = _polish_coefficients(t, k, measurements, plan)
    return t


def _polish_coefficients(
    spectrum: np.ndarray,
    k_active: int,
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan,
    max_iter: int = 10,
) -> np.ndarray:
    """Gauss-Newton polish of s_0 .. s_{k_active} against plan rows <= k_active.

    A raw stage solve inherits the roundoff of every earlier stage through
    its conditioning, and that error compounds fast enough to derail the
    later stages of larger systems even on exact measurements. Re-solving
    the squared-magnitude system over the rows available so far after each
    stage resets the coefficients to least-squares accuracy, so every stage
    starts from machine-accurate inputs.

    The k = 0 rows are deliberately excluded even when k_active = N/2: they
    hold only in the analytic gauge (s_{N/2} real), while the staged iterate
    pins s_1 real instead and reaches the analytic gauge only through the
    final translation normalization. Polishing against rows 1..k_active
    keeps the iterate consistent with the gauge it actually lives in; the
    k = 0 rows already contributed |s_0| through the A1 root choice and are
    checked by the final verification.

    Each iteration linearizes |y^_{k,m}|^2 in the real and imaginary parts
    of the active coefficients and takes the minimum-norm least-squares step
    (rows 1..N/2 are invariant under global rotation and under continuous
    translation, so the Jacobian is rank-deficient by the gauge dimension).
    Step halving keeps the iteration monotone and the best iterate is
    returned, so the result is never worse than the input.
    """
    params = measurements.params
    n = params.N
    rows = [(k, m) for (k, m) in plan.pairs() if 1 <= k <= k_active]
    target = np.array([measurements.value(k, m) for (k, m) in rows])
    scale = measurements.max_value() or 1.0
    width = k_active + 1

    def residual_and_jacobian(tv: np.ndarray):
        fvec = np.empty(len(rows))
        jac = np.zeros((len(rows), 2 * width))
        for row, (k, m) in enumerate(rows):
            dy = np.zeros(width, dtype=complex)
            l = np.arange(k + 1)
            w = np.exp(2j * np.pi * ((l * ((m * params.L) % n)) % n) / n)
            y = np.sum(tv[l] * tv[k - l] * w) / n
            # d y / d s_j = s_{k-j} (w^{jm} + w^{(k-j)m}) / N for j <= k.
            dy[: k + 1] = tv[k - l] * (w + w[::-1]) / n
            fvec[row] = (y * y.conjugate()).real - target[row]
            grad = y.conjugate() * dy
            jac[row, 0::2] = 2.0 * grad.real
            jac[row, 1::2] = -2.0 * grad.imag
        return fvec, jac

    tv = np.asarray(spectrum, dtype=complex)[:width].copy()
    fvec, jac = residual_and_jacobian(tv)
    err = float(np.abs(fvec).max())
    best_tv, best_err = tv.copy(), err
    for _ in range(max_iter):
        if best_err <= 1e-15 * scale:
            break
        step, *_ = np.linalg.lstsq(jac, -fvec, rcond=None)
        step = step[0::2] + 1j * step[1::2]
        improved = False
        damp = 1.0
        for _ in range(4):
            cand = tv + damp * step
            cand_f, cand_j = residual_and_jacobian(cand)
            cand_err = float(np.abs(cand_f).max())
            if cand_err < err:
                tv, fvec, jac, err = cand, cand_f, cand_j, cand_err
                improved = True
                break
            damp *= 0.5
        if not improved:
            break
        if err < best_err:
            best_tv, best_err = tv.copy(), err
    out = np.array(spectrum, dtype=complex, copy=True)
    out[:width] = best_tv
    return out


def _normalize_gauge(spectrum: np.ndarray, sign: int) -> np.ndarray:
    """Pin the two continuous measurement invariances to canonical phases.

    First rotates the whole spectrum so s_0 sits exactly on the real axis
    with the branch's sign (a global rotation; measurements are invariant,
    and the polish can leak a ~1e-15 phase). Then multiplies s_k by
    e^{-i (2k/N) phase(s_{N/2})}, a real translation of the underlying
    signal, leaving s_{N/2} real >= 0; rows 1..N/2 of the measurements are
    invariant and the k = 0 row regains its defining form with both boundary
    entries real.
    """
    s = np.asarray(spectrum, dtype=complex)
    n = s.size
    lead = sign * s[0]
    if lead != 0:
        s = s * (abs(lead) / lead)
    phase = float(np.angle(s[n // 2]))
    return s * np.exp(-1j * phase * 2.0 * np.arange(n) / n)


def verify_solution(spectrum, measurements: FrogMeasurements) -> float:
    """Largest deviation of the spectrum's measurements from the stored ones.

    Deviations are absolute differences of |y^|^2 values, reported relative
    to the largest stored value (so the residual is scale-invariant).
    """
    s = as_signal(spectrum)
    params = measurements.params
    if s.size != params.N:
        raise ValueError(f"spectrum length {s.size} != params.N {params.N}")
    grid = frog_grid_freq(s, params)
    scale = measurements.max_value()
    if scale <= 0.0:
        scale = 1.0
    dev = max(
        abs(grid[k, m] - val) for (k, m), val in measurements.entries.items()
    )
    return float(dev / scale)


def recover(
    measurements: FrogMeasurements,
    plan: MeasurementIndexPlan | None = None,
    config: RecoveryConfig | None = None,
) -> RecoveryResult:
    """Full pipeline: A1 root choice, A2 tail on both signs, A3 verification.

    Consumes exactly the planned 3N/2 + 1 entries (which must all be
    present). The positive sign branch is tried first; a branch wins by
    pushing the verification residual under config.residual_tol. Raises
    ValueError for geometries outside the recovery domain (odd N, even L,
    r < 5, N < 8) or missing entries; propagates DegenerateSignalError; and
    raises InconsistentMeasurementsError when no branch verifies.
    """
    config = config or RecoveryConfig()
    params = measurements.params
    violations = params.recovery_violations()
    if violations:
        raise ValueError("; ".join(violations))
    if plan is None:
        plan = plan_indices(params)
    sub = measurements.subset(plan.pairs())

    z0 = recover_z0(sub, plan, config)
    failures = []
    for sign in (1, -1):
        try:
            tail = recover_tail(sub, plan, z0, sign, config)
        except InconsistentMeasurementsError as exc:
            failures.append(f"sign {sign:+d}: {exc}")
            continue
        s_norm = _normalize_gauge(tail, sign)
        residual = verify_solution(s_norm, sub)
        if residual <= config.residual_tol:
            return RecoveryResult(
                signal=idft(s_norm),
                spectrum=s_norm,
                sign_branch=sign,
                verification_residual=residual,
            )
        failures.append(
            f"sign {sign:+d}: verification residual {residual:.3e} "
            f"> {config.residual_tol:.1e}"
        )
    raise InconsistentMeasurementsError(
        "recovery failed on both sign branches: " + " | ".join(failures)
    )


def even_l_infeasibility_probe(
    measurements: FrogMeasurements,
    alpha: float,
    theta: float,
    config: RecoveryConfig | None = None,
) -> bool:
    """True when no s_2 is consistent with the k = 2 row for the trial pair.

    For even L the k = 0 row cannot separate the boundary coefficients, so
    A1 has no root test; this probe shows what goes wrong downstream. It
    posits s_0 = alpha (real, nonzero) and s_1 = N |y^_{1,0}| / (2 |alpha|)
    * e^{i theta} and runs A1's k = 2 test on that pair: does the pair solve
    give a point on all five planned k = 2 circles? For alpha = +-(true s_0)
    it does for every theta; generic other trials are infeasible, which is
    exactly the ambiguity recovery cannot resolve. Raises
    DegenerateSignalError when alpha = 0 or the trial |s_1| sits at the
    floor.
    """
    config = config or RecoveryConfig()
    params = measurements.params
    if params.L % 2 != 0:
        raise ValueError(f"probe applies to even delay strides, got L={params.L}")
    if alpha == 0:
        raise DegenerateSignalError("trial leading coefficient must be nonzero")
    plan = plan_indices(params)
    measurements.require([(1, 0)] + [(2, i) for i in plan.i2])

    mu = params.N * measurements.magnitude(1, 0) / (2.0 * abs(alpha))
    t = np.array([alpha, mu * complex(math.cos(theta), math.sin(theta))])
    floor = _coefficient_floor(measurements, config)
    return not _row2_feasible(
        measurements, plan, t, abs(alpha), floor, config.feasibility_tol
    )
