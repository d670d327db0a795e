"""Acceptance suite: eight desk-scale criteria, shared by the CLI and tests.

Each criterion is a check that returns (passed, details): a pass flag and a
one-line account of what was measured. CRITERIA holds them as (name, check)
in order, so a criterion's number is its position, and run_criterion times
one into a CriterionResult. Seeds are fixed, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ambiguity import apply_element, equivalent_up_to_group, group_elements, translate
from .analytic import random_analytic_signal
from .errors import FrogprError
from .frog import (
    FrogParams,
    frog_measurements_time,
    plan_indices,
    _pow_is_minus_one,
    _pow_is_one,
)
from .recovery import even_l_infeasibility_probe, recover, verify_solution
from .spectral import dft

__all__ = ["CriterionResult", "run_criterion", "run_all", "format_line", "CRITERIA"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float


def format_line(res: CriterionResult) -> str:
    word = "PASS" if res.passed else "FAIL"
    return f"criterion {res.number} {word} {res.name} ({res.elapsed_s:.2f}s): {res.details}"


def _generic_even_signal(n, rng, floor0=0.1, floor1=0.1, floor2=0.05, gap=0.05):
    """Analytic signal whose spectrum keeps the recovery pipeline generic:
    boundary and early coefficients bounded away from zero relative to the
    largest one, and the two boundary moduli separated."""
    while True:
        z = random_analytic_signal(n, rng)
        mods = np.abs(dft(z))
        scale = mods.max()
        if (
            mods[0] >= floor0 * scale
            and mods[n // 2] >= floor0 * scale
            and mods[1] >= floor1 * scale
            and mods[2] >= floor2 * scale
            and abs(mods[0] - mods[n // 2]) >= gap * scale
        ):
            return z


def example_reproduction() -> tuple[bool, str]:
    """Worked four-sample example: analytic extension, spectrum, translation
    by 2/pi, and the (0, 0) measurement of both signals against the
    4-decimal reference values.

    The printed inputs are rounded to 4 decimals, and the outputs move by up
    to ~4e-3 across that rounding box, so the inputs are not taken as exact.
    An input x* is fitted to the six references from the printed x; the
    example is reproduced when x* rounds to the printed x (every component
    within 5e-5) and the six values computed at x* are each within 5e-4 of
    their references, in under a millisecond (best of 5 warm runs)."""
    from .analytic import make_analytic

    x = np.array([0.3252, -0.7549, 1.3703, -1.7115])
    params = FrogParams(4, 1)
    refs = np.array(
        [-0.7710, complex(-2.0902, -1.9132), 4.1619, 0.0, 20.0614, 17.9335]
    )
    names = [f"spectrum[{k}]" for k in range(4)]
    names += ["entry(0,0)", "translated entry(0,0)"]

    def compute(xv):
        """The six example values: spectrum, then both (0, 0) entries."""
        z = make_analytic(xv)
        y00 = [frog_measurements_time(v, params)[0, 0] for v in (z, translate(z, 2.0 / np.pi))]
        return np.append(dft(z), y00)

    def residual(xv):
        d = compute(xv) - refs
        return np.concatenate([d.real, d.imag])

    # Five Gauss-Newton steps on a central-difference Jacobian.
    x_fit, h = x.copy(), 1e-6
    for _ in range(5):
        jac = np.column_stack(
            [residual(x_fit + e) - residual(x_fit - e) for e in np.eye(4) * h]
        ) / (2.0 * h)
        x_fit = x_fit + np.linalg.lstsq(jac, -residual(x_fit), rcond=None)[0]
    offset = float(np.abs(x_fit - x).max())

    compute(x_fit)  # warm the FFT plan/caches before timing
    core_elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        values = compute(x_fit)
        core_elapsed = min(core_elapsed, time.perf_counter() - t0)

    devs = np.abs(values - refs)
    worst = int(np.argmax(devs))
    in_box = offset <= 5e-5
    failing = [(name, dev) for name, dev in zip(names, devs) if dev > 5e-4]
    runtime_ok = core_elapsed < 1e-3

    passed = in_box and not failing and runtime_ok
    measured = (
        f"fitted input max|x*-x|={offset:.2e}, worst {names[worst]} deviates "
        f"{devs[worst]:.2e}, core runtime {core_elapsed * 1e3:.3f}ms"
    )
    if passed:
        details = (
            f"all 6 values within 5e-4 from an input that rounds to the "
            f"printed one ({measured})"
        )
    else:
        parts = []
        if not in_box:
            parts.append("fitted input does not round to the printed one (> 5e-5)")
        parts += [f"{name} deviates {dev:.2e} > 5e-4" for name, dev in failing]
        if not runtime_ok:
            parts.append(f"core runtime {core_elapsed * 1e3:.3f}ms >= 1ms")
        details = "; ".join(parts) + f" [{measured}]"
    return passed, details


def end_to_end_recovery() -> tuple[bool, str]:
    """End-to-end: 100 generic signals per configuration recover to a
    group-equivalent signal with equivalence and verification residuals
    below 1e-6, from exactly 3N/2 + 1 measurements, in under 30 s."""
    start = time.perf_counter()
    configs = [(12, 1), (16, 3), (20, 3), (32, 5), (64, 11)]
    trials = 100
    rng = np.random.default_rng(20260201)
    failures: list[str] = []
    worst_eq = 0.0
    worst_ver = 0.0
    total = 0
    for n, l in configs:
        params = FrogParams(n, l)
        plan = plan_indices(params)
        for trial in range(trials):
            total += 1
            z = _generic_even_signal(n, rng)
            meas = frog_measurements_time(z, params, indices=plan.rows)
            if len(meas) != 3 * n // 2 + 1:
                failures.append(f"({n},{l}) trial {trial}: plan cardinality")
                continue
            try:
                rec = recover(meas, plan)
            except FrogprError as exc:
                failures.append(f"({n},{l}) trial {trial}: {exc}")
                continue
            report = equivalent_up_to_group(rec.signal, z, tol=1e-6)
            worst_eq = max(worst_eq, report.residual)
            worst_ver = max(worst_ver, rec.verification_residual)
            if not report.equivalent or report.residual >= 1e-6:
                failures.append(
                    f"({n},{l}) trial {trial}: equivalence residual {report.residual:.2e}"
                )
            elif rec.verification_residual >= 1e-6:
                failures.append(
                    f"({n},{l}) trial {trial}: verification residual "
                    f"{rec.verification_residual:.2e}"
                )
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 30.0
    passed = not failures and in_budget
    if passed:
        details = (
            f"{total}/{total} recoveries group-equivalent (worst equivalence "
            f"residual {worst_eq:.2e}, worst verification {worst_ver:.2e}) "
            f"in {elapsed:.1f}s"
        )
    else:
        details = f"{len(failures)} failures"
        if failures:
            details += f" (first: {failures[0]})"
        if not in_budget:
            details += f"; elapsed {elapsed:.1f}s >= 30s"
    return passed, details


def ambiguity_invariance() -> tuple[bool, str]:
    """Invariance: all 4N group elements preserve every full-grid entry for
    50 even-length signals; arbitrary real translations do for 50
    odd-length signals; both within 1e-8 relative to the grid maximum."""
    rng = np.random.default_rng(20260202)
    strides = [1, 3, 5]

    def group_variants(z):
        return (apply_element(g, z) for g in group_elements(z.size))

    def translations(z):
        return (translate(z, float(rng.uniform(0.0, z.size))) for _ in range(10))

    def worst_deviation(sizes, variants):
        worst = 0.0
        for idx in range(50):
            params = FrogParams(sizes[idx % len(sizes)], strides[idx % len(strides)])
            z = random_analytic_signal(params.N, rng)
            grid = frog_measurements_time(z, params).values
            gmax = grid.max()
            for zv in variants(z):
                dev = np.abs(frog_measurements_time(zv, params).values - grid).max()
                worst = max(worst, dev / gmax)
        return worst

    worst_even = worst_deviation([8, 10, 12, 16, 20, 24, 32], group_variants)
    worst_odd = worst_deviation([9, 11, 13, 15, 17, 19], translations)
    passed = worst_even <= 1e-8 and worst_odd <= 1e-8
    details = (
        f"worst relative deviation {worst_even:.2e} over 4N elements x 50 even "
        f"signals, {worst_odd:.2e} over 10 real translations x 50 odd signals"
    )
    return passed, details


def translation_sensitivity() -> tuple[bool, str]:
    """Sensitivity: a non-integer translation of an even-length signal with
    nonvanishing boundary coefficient changes some grid entry by more than
    1e-3 relative to that entry in at least 99 of 100 trials (the same
    behavior as the worked four-point example, whose (0,0) entry moves by
    about ten percent of itself)."""
    rng = np.random.default_rng(20260203)
    sizes = [8, 12, 16, 20, 24]
    strides = [1, 3]
    hits = 0
    smallest = math.inf
    for idx in range(100):
        n = sizes[idx % len(sizes)]
        l = strides[idx % len(strides)]
        params = FrogParams(n, l)
        z = _generic_even_signal(n, rng, floor1=0.0, floor2=0.0, gap=0.0)
        grid = frog_measurements_time(z, params).values
        zt = translate(z, gamma=float(rng.uniform(0.1, 0.9)))
        moved = frog_measurements_time(zt, params).values
        # Per-entry relative change; entries below the noise floor cannot
        # contribute (rows k >= 1 differ only by roundoff).
        denom = np.maximum(np.maximum(grid, moved), 1e-9 * grid.max())
        rel = float((np.abs(moved - grid) / denom).max())
        smallest = min(smallest, rel)
        if rel > 1e-3:
            hits += 1
    passed = hits >= 99
    details = (
        f"{hits}/100 translations changed an entry by > 1e-3 of itself "
        f"(smallest observed change {smallest:.2e})"
    )
    return passed, details


def solver_oracles() -> tuple[bool, str]:
    """Solver oracles: 1000 planted instances per solver recover the planted
    point (or its predicted partner) within 1e-8; the real-scale pair is
    exactly conjugate and the complex-scale pair is conjugate after dividing
    out the scale (to complex-division rounding, a few ulp)."""
    from .circles import solve_three_circles, solve_two_circles_real

    rng = np.random.default_rng(20260204)
    failures: list[str] = []
    worst = 0.0

    def cplx():
        return complex(rng.standard_normal(), rng.standard_normal())

    for trial in range(1000):
        z = cplx()
        while True:
            v1, v2, v3 = cplx(), cplx(), cplx()
            d13 = v1 - v3
            if abs(d13) > 0.1 and abs(((v1 - v2) / d13).imag) > 1e-3:
                break
        got = solve_three_circles(
            v1, v2, v3, abs(z + v1), abs(z + v2), abs(z + v3)
        )
        err = abs(got - z) / max(1.0, abs(z))
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(f"three-circle trial {trial}: error {err:.2e}")

    def real_scale():
        return float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))

    def complex_scale():
        m = cplx()
        while abs(m) < 0.3:
            m = cplx()
        return m

    for kind, scale in (("real-scale", real_scale), ("complex-scale", complex_scale)):
        for trial in range(1000):
            m = scale()
            v1 = float(rng.standard_normal())
            v2 = v1 + float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
            w = complex(rng.standard_normal(), rng.uniform(0.1, 2.0))
            z = m * w
            cands = solve_two_circles_real(
                v1, v2, m, abs(z + m * v1), abs(z + m * v2)
            )
            err = min(abs(c - z) for c in cands) / max(1.0, abs(z))
            worst = max(worst, err)
            if err > 1e-8:
                failures.append(f"{kind} trial {trial}: error {err:.2e}")
            if isinstance(m, float):
                if cands[0].conjugate() != cands[1]:
                    failures.append(f"{kind} trial {trial}: pair not exactly conjugate")
                continue
            # The pair is m times an exactly conjugate pair by construction,
            # but recovering that pair divides by m, and complex
            # multiply-then-divide round trips carry up to ~2 eps of rounding
            # (measured); 4 eps of headroom is the rounding floor of the
            # check itself, not a solver tolerance.
            u0, u1 = cands[0] / m, cands[1] / m
            if abs(u0.conjugate() - u1) > 4.0 * _EPS * max(abs(u0), abs(u1)):
                failures.append(f"{kind} trial {trial}: pair/m not conjugate")

    passed = not failures
    details = (
        f"3000 planted instances, worst relative error {worst:.2e}"
        if passed
        else f"{len(failures)} failures (first: {failures[0]})"
    )
    return passed, details


def _check(cond: bool, message: str, *args) -> None:
    """ValueError(message.format(*args)) unless cond; unlike assert, it runs under python -O."""
    if not cond:
        raise ValueError(message.format(*args))


def _validate_plan(plan) -> None:
    """ValueError naming the first admissibility condition the plan breaks."""
    params = plan.params
    n, l, r = params.N, params.L, params.r
    rows = plan.rows
    _check(rows.shape == (3 * n // 2 + 1, 2), "rows have shape {}", rows.shape)
    ks, ms = rows.T
    _check(((0 <= ks) & (ks <= n // 2) & (0 <= ms) & (ms < r)).all(), "row off the grid")
    _check((np.diff(ks * r + ms) > 0).all(), "rows not distinct and sorted by (k, m)")
    _check(plan.delays(0).tolist() == [0, 1] and plan.delays(1).tolist() == [0], "rows k < 2")
    for k in range(2, n // 2 + 1):
        delays = plan.delays(k).tolist()
        size = {2: 5, 3: 2}.get(k, 3)
        _check(len(delays) == size and delays[0] == 0, "row {} has delays {}", k, delays)
        for i in delays:
            # Every stage divides by 1 + w^{ki}; exact and numeric tests agree.
            ok = not _pow_is_minus_one(i * l, n, k) and abs(1.0 + params.w_pow(k * i)) > 1e-9
            _check(ok, "row {} delay {}: 1 + w^(ki) = 0", k, i)
            if k in (2, 3) and i > 0:
                # The k = 2 and k = 3 pair offsets need w^{pi} != 1 for 0 < p < k.
                for p in range(1, k):
                    ok = not _pow_is_one(i * l, n, p) and abs(params.w_pow(p * i) - 1.0) > 1e-9
                    _check(ok, "row {} delay {}: w^({}i) = 1", k, i, p)
        if k < 4:
            continue
        # The chosen pair must be non-conjugate (w^{k(a+b)} != 1) unless no
        # admissible pair is; re-derive the admissible set to confirm.
        adm = [m for m in range(1, r) if not _pow_is_minus_one(m * l, n, k)]
        pairs = itertools.combinations(adm, 2)
        any_nonconj = any(not _pow_is_one((x + y) * l, n, k) for x, y in pairs)
        a, b = delays[1:]
        if any_nonconj:
            _check(not _pow_is_one((a + b) * l, n, k), "row {} pair ({}, {}) conjugate", k, a, b)
        else:
            _check([a, b] == adm[:2], "row {} fallback ({}, {}) not minimal", k, a, b)


def index_plan_validity() -> tuple[bool, str]:
    """Index plans for every admissible geometry with N <= 128 and r in
    5..64 satisfy all exact admissibility congruences and have 3N/2 + 1
    distinct entries; every r in 5..64 is exercised."""
    covered: set[int] = set()
    count = 0
    failures: list[str] = []
    for n in range(8, 129, 2):
        for l in range(1, n + 1):
            params = FrogParams(n, l)
            r = params.r
            if not 5 <= r <= 64:
                continue
            try:
                plan = plan_indices(params)
                _validate_plan(plan)
            except (RuntimeError, ValueError) as exc:
                failures.append(f"(N={n}, L={l}): {exc}")
                continue
            covered.add(r)
            count += 1
    missing = set(range(5, 65)) - covered
    passed = not failures and not missing
    if passed:
        details = f"{count} plans validated, r coverage {min(covered)}..{max(covered)}"
    else:
        details = f"{len(failures)} invalid plans"
        if failures:
            details += f" (first: {failures[0]})"
        if missing:
            details += f"; r values never exercised: {sorted(missing)}"
    return passed, details


def modulus_rigidity() -> tuple[bool, str]:
    """Rigidity: swapping the two boundary moduli of a generic spectrum
    pushes the verification residual above 1e-3 in 100/100 trials, while
    the true spectrum and its group variants stay below 1e-8."""
    rng = np.random.default_rng(20260205)
    sizes = [8, 10, 12, 16, 20, 24]
    strides = [1, 3, 5]
    swap_misses: list[str] = []
    variant_misses: list[str] = []
    smallest_swap = math.inf
    worst_variant = 0.0
    for idx in range(100):
        n = sizes[idx % len(sizes)]
        l = strides[idx % len(strides)]
        params = FrogParams(n, l)
        z = _generic_even_signal(
            n, rng, floor0=0.05, floor1=0.05, floor2=0.0, gap=0.05
        )
        s = dft(z)
        meas = frog_measurements_time(z, params)
        half = n // 2
        pattern = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        for tag, variant in (
            ("true", s),
            ("conjugate", np.conj(s)),
            ("negated", -s),
            ("half-translate", s * pattern),
        ):
            res = verify_solution(variant, meas)
            worst_variant = max(worst_variant, res)
            if res >= 1e-8:
                variant_misses.append(f"trial {idx} {tag}: residual {res:.2e}")
        swapped = s.copy()
        swapped[0] = math.copysign(abs(s[half]), s[0].real)
        swapped[half] = math.copysign(abs(s[0]), s[half].real)
        res = verify_solution(swapped, meas)
        smallest_swap = min(smallest_swap, res)
        if res <= 1e-3:
            swap_misses.append(f"trial {idx}: swapped residual {res:.2e}")
    passed = not swap_misses and not variant_misses
    if passed:
        details = (
            f"100/100 swapped spectra rejected (smallest residual "
            f"{smallest_swap:.2e}); group variants all below 1e-8 "
            f"(worst {worst_variant:.2e})"
        )
    else:
        details = "; ".join((swap_misses + variant_misses)[:2])
    return passed, details


def even_stride_infeasibility() -> tuple[bool, str]:
    """Even-stride probe: with L even, a trial leading coefficient away from
    +-(the true one) leaves the five-circle system infeasible in >= 99/100
    trials, while the true value (either sign, any phase) stays feasible."""
    rng = np.random.default_rng(20260206)
    configs = [(12, 2), (16, 2), (20, 2), (20, 4), (24, 4), (32, 6)]
    infeasible = 0
    feasible_misses: list[str] = []
    for idx in range(100):
        n, l = configs[idx % len(configs)]
        params = FrogParams(n, l)
        plan = plan_indices(params)
        z = _generic_even_signal(
            n, rng, floor0=0.05, floor1=0.05, floor2=0.0, gap=0.0
        )
        s0 = float(dft(z)[0].real)
        k = plan.rows[:, 0]
        meas = frog_measurements_time(z, params, indices=plan.rows[(k == 1) | (k == 2)])
        while True:
            c = float(rng.uniform(-1.5, 1.5))
            if 0.05 <= abs(c) and abs(abs(c) - 1.0) > 0.0105:
                break
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        if even_l_infeasibility_probe(meas, c * s0, theta):
            infeasible += 1
        for alpha in (s0, -s0):
            if even_l_infeasibility_probe(meas, alpha, theta):
                feasible_misses.append(
                    f"trial {idx}: alpha={alpha:+.3f} wrongly infeasible"
                )
    passed = infeasible >= 99 and not feasible_misses
    details = (
        f"{infeasible}/100 generic trial coefficients infeasible; true "
        f"coefficient feasible under both signs in all trials"
        if passed
        else f"{infeasible}/100 infeasible; "
        + (feasible_misses[0] if feasible_misses else "")
    )
    return passed, details


CRITERIA = [
    (check.__name__.replace("_", "-"), check)
    for check in (
        example_reproduction,
        end_to_end_recovery,
        ambiguity_invariance,
        translation_sensitivity,
        solver_oracles,
        index_plan_validity,
        modulus_rigidity,
        even_stride_infeasibility,
    )
]


def run_criterion(number: int) -> CriterionResult:
    """Criterion `number`, counted from 1, timed."""
    name, check = CRITERIA[number - 1]
    start = time.perf_counter()
    passed, details = check()
    return CriterionResult(number, name, passed, details, time.perf_counter() - start)


def run_all() -> list[CriterionResult]:
    return [run_criterion(number) for number in range(1, len(CRITERIA) + 1)]
