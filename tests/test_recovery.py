"""Recovery pipeline: root choice, sequential tail, verification, probe."""

import gc
import math
import re
import timeit
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from frogpr import frog, recovery
from frogpr import (
    DegenerateSignalError,
    FrogMeasurements,
    FrogprError,
    FrogParams,
    InconsistentMeasurementsError,
    MeasurementIndexPlan,
    NoSolutionError,
    SingularConfigurationError,
    UnsupportedGeometryError,
    dft,
    equivalent_up_to_group,
    even_l_infeasibility_probe,
    frog_measurements_freq,
    frog_measurements_time,
    idft,
    is_analytic,
    plan_indices,
    random_analytic_signal,
    recover,
    verify_solution,
)
from frogpr.frog import _plan
from frogpr.selftest import _generic_even_signal
from oracles import direct_frog_grid, full_grid_residual


def _generic(n, rng, floor=0.1, gap=0.05):
    """Analytic signal whose spectrum satisfies the genericity hypotheses
    with margin: leading coefficients bounded away from zero and the two
    boundary moduli separated."""
    while True:
        z = random_analytic_signal(n, rng)
        mods = np.abs(dft(z))
        scale = mods.max()
        if (
            min(mods[0], mods[1], mods[n // 2]) >= floor * scale
            and mods[2] >= 0.5 * floor * scale
            and abs(mods[0] - mods[n // 2]) >= gap * scale
        ):
            return z


def _analytic_spectrum(n, rng, s0, shalf):
    """Spectrum with prescribed real boundary entries and generic middle."""
    while True:
        mid = rng.standard_normal(n // 2 - 1) + 1j * rng.standard_normal(n // 2 - 1)
        if np.abs(mid[:2]).min() >= 0.4:
            break
    s = np.zeros(n, dtype=complex)
    s[0] = s0
    s[n // 2] = shalf
    s[1 : n // 2] = mid
    return s


def _planned_measurements(s, params):
    plan = plan_indices(params)
    return frog_measurements_freq(s, params, plan.pairs()), plan


def _tail(meas, plan):
    """The tail's spectrum from A1's root, at the scale recover solves at.

    Returns it with the scaled row table and the exponent e of its 2^(4e)
    divisor: the staged iterate before the final translation and rescale.
    """
    tables, e = recovery._scaled(meas, plan)
    return recovery.recover_tail(tables, *recovery.recover_z0(tables)), tables, e


# --- full pipeline -------------------------------------------------------------


def test_recover_round_trips_generic_signals():
    rng = np.random.default_rng(601)
    cases = [(12, 1), (12, 1), (16, 3), (16, 3), (20, 3), (32, 5)]
    signals = [(n, l, _generic(n, rng)) for n, l in cases]
    # The negated signal has s_0 < 0; recovery runs only from s_0 > 0 and
    # still reaches it up to the ambiguity group.
    n, l, z = signals[2]
    signals.append((n, l, z if dft(z)[0].real < 0 else -z))
    for n, l, z in signals:
        params = FrogParams(n, l)
        plan = plan_indices(params)
        meas = frog_measurements_time(z, params, indices=plan.pairs())
        assert len(meas.entries) == 3 * n // 2 + 1
        rec = recover(meas, plan)
        report = equivalent_up_to_group(rec.signal, z, tol=1e-8)
        assert report.equivalent and report.residual < 1e-8
        assert rec.verification_residual < 1e-9
        assert rec.spectrum[0].real > 0


def test_recover_output_is_normalized_and_self_consistent():
    rng = np.random.default_rng(602)
    params = FrogParams(16, 3)
    z = _generic(16, rng)
    rec = recover(frog_measurements_time(z, params, plan_indices(params).pairs()))
    s = rec.spectrum
    assert is_analytic(s).is_analytic
    assert_allclose(rec.signal, idft(s), rtol=0, atol=1e-14 * np.abs(s).max())
    # Gauge pinning: s_0 exactly on the positive real axis, s_{N/2} rotated
    # onto the non-negative real axis.
    assert s[0].imag == 0
    assert s[0].real > 0
    assert not hasattr(rec, "sign_branch")
    assert s[8].real >= 0.0
    assert abs(s[8].imag) < 1e-10 * np.abs(s).max()


@pytest.mark.parametrize("n,l,seed", [(256, 11, 621), (512, 31, 622)])
def test_recover_round_trips_large_signals(n, l, seed):
    params = FrogParams(n, l)
    plan = plan_indices(params)
    z = _generic(n, np.random.default_rng(seed))
    rec = recover(frog_measurements_time(z, params, plan.pairs()), plan)
    report = equivalent_up_to_group(rec.signal, z, tol=1e-6)
    assert report.equivalent and report.residual < 1e-6
    assert rec.verification_residual < 1e-6


def _ldexp(x, j):
    """x * 2^j, exactly and with the sign of every zero part kept."""
    x = np.asarray(x)
    return np.ldexp(x.view(np.float64), j).view(x.dtype)


@pytest.mark.parametrize("n,l,seed", [(16, 3, 641), (64, 11, 642)])
def test_recover_does_not_depend_on_the_scale_of_its_input(n, l, seed):
    # Measurements scaled by 2^(4j) give the spectrum scaled by exactly 2^j,
    # and a signal far from unit scale recovers without a warning (pytest
    # turns them into errors): the stages see the same numbers either way.
    params = FrogParams(n, l)
    plan = plan_indices(params)
    z = _generic_even_signal(n, np.random.default_rng(seed))
    meas = frog_measurements_time(z, params, plan.rows)
    rec = recover(meas, plan)
    for j in (-50, -7, 3, 60):
        scaled = FrogMeasurements(params, zip(meas, _ldexp(meas.values, 4 * j).tolist()))
        out = recover(scaled, plan)
        assert out.spectrum.tobytes() == _ldexp(rec.spectrum, j).tobytes()
        assert out.signal.tobytes() == _ldexp(rec.signal, j).tobytes()
        assert out.verification_residual == rec.verification_residual
    for factor in (1e-8, 1e50):
        out = recover(frog_measurements_time(factor * z, params, plan.rows), plan)
        report = equivalent_up_to_group(out.signal, factor * z, tol=1e-6)
        assert report.equivalent and report.residual < 1e-9


def test_recover_builds_one_row_table(monkeypatch):
    # One scaled preparation per recovery: A1 and the tail read one table,
    # which holds the expansion of the plan's rows itself.
    build = recovery._scaled
    built = []

    def counted(*args):
        built.append((args, build(*args)))
        return built[-1][1]

    monkeypatch.setattr(recovery, "_scaled", counted)
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    z = _generic(20, np.random.default_rng(643))
    recover(frog_measurements_time(z, params), plan)
    assert len(built) == 1
    (_, used), (tables, _) = built[0]
    assert used is plan and tables[:3] == recovery._EXPANSIONS[plan]
    fields = ("starts", "mirror", "dw", "n", "row0", "target", "scale", "floor")
    assert tables._fields == fields


def test_row_table_scale_counts_the_k0_rows():
    # The k = 0 values are no expanded rows, but the scale and the floor are
    # taken over them too: here they are the largest planned values.
    s = _analytic_spectrum(16, np.random.default_rng(645), s0=30.0, shalf=20.0)
    meas, plan = _planned_measurements(s, FrogParams(16, 3))
    tables, e = recovery._scaled(meas, plan)
    values = np.ldexp(np.array([meas[p] for p in plan.pairs()]), -4 * e)
    assert 1 <= values.max() < 16
    assert tables.n == 16
    assert tables.row0 == values[:2].tolist()
    assert tables.target.tobytes() == values[2:].tobytes()
    assert tables.scale == values.max() > tables.target.max()
    assert tables.floor == recovery._GENERICITY_FLOOR * np.sqrt(16 * np.sqrt(values.max()))


@pytest.mark.parametrize("n,l", [(12, 2), (20, 4), (64, 8)])
def test_a_table_of_the_probes_rows_reads_exactly_those_rows(n, l):
    # A table is built for any (k, m)-sorted row set from one call: here the
    # probe's rows k = 1, 2, which have no k = 0 rows. It reads their values
    # and nothing else, and its stages slice them.
    params = FrogParams(n, l)
    rows = plan_indices(params).rows
    rows = rows[np.isin(rows[:, 0], (1, 2))]
    z = _generic_even_signal(n, np.random.default_rng(654))
    meas = frog_measurements_time(z, params, rows)
    sub = MeasurementIndexPlan(params, rows)
    tables, e = recovery._scaled(meas, sub)
    assert sub.rows is rows
    values = np.ldexp(meas.values, -4 * e)
    assert tables.row0 == []
    assert tables.target.tobytes() == values.tobytes()
    assert tables.scale == values.max()
    assert tables.stage(1)[0].tobytes() == values[:1].tobytes()
    assert tables.stage(2, 2)[0].tobytes() == values[1:].tobytes()
    assert tables.starts == (0, 0, 1, rows.shape[0])
    # Entries off those rows are not read; one of them may not be absent.
    full = frog_measurements_time(z, params)
    assert recovery._scaled(full, sub)[0].target.tobytes() == values.tobytes()
    short = frog_measurements_time(z, params, rows[:-1])
    with pytest.raises(ValueError, match=rf"missing required entries \[\(2, {rows[-1, 1]}\)\]"):
        recovery._scaled(short, sub)


def test_recover_builds_no_measurement_set(monkeypatch):
    # The row table is the recovery's only input: no scaled copy of the
    # measurements is made on the way to it.
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(20, np.random.default_rng(644)), params, plan.rows)
    init = FrogMeasurements.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FrogMeasurements, "__init__", counted)
    assert recover(meas, plan).verification_residual < 1e-9
    assert built == []


def _count_expansions(monkeypatch):
    """The rows of every _expand call, for a plan or for the probe."""
    expand = recovery._expand
    built = []

    def counted(params, rows):
        built.append(rows)
        return expand(params, rows)

    monkeypatch.setattr(recovery, "_expand", counted)
    return built


def test_a_plan_expands_its_rows_once(monkeypatch):
    # The expansion depends on the plan alone: three recoveries through one
    # plan build it once, and each attaches its own values to it.
    built = _count_expansions(monkeypatch)
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    rng = np.random.default_rng(646)
    for _ in range(3):
        z = _generic(20, rng)
        rec = recover(frog_measurements_time(z, params, plan.rows), plan)
        assert equivalent_up_to_group(rec.signal, z, tol=1e-8).equivalent
    assert len(built) == 1 and built[0] is plan.rows


def test_a_plans_table_is_built_once_and_freed_with_the_plan(monkeypatch):
    # The recovery keeps a plan's expansion while the plan lives: three
    # recoveries share one, and dropping the plan frees it.
    built = _count_expansions(monkeypatch)
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    rng = np.random.default_rng(656)
    for _ in range(3):
        recover(frog_measurements_time(_generic(20, rng), params, plan.rows), plan)
    assert len(built) == 1
    dw = weakref.ref(recovery._EXPANSIONS[plan][2])
    key = weakref.ref(plan)
    del plan
    gc.collect()
    assert key() is None and dw() is None
    assert len(recovery._EXPANSIONS) == 0


def test_a1_gathers_stage_2_once_per_root_and_the_tail_never(monkeypatch):
    # A1 scores each root on the tail's own stage-2 block and hands the
    # chosen one over: two roots give two stage-2 gathers, not three.
    gather = recovery._StageRows.__init__
    stages = []

    def counted(self, tables, t, k, lo):
        stages.append((k, lo))
        gather(self, tables, t, k, lo)

    monkeypatch.setattr(recovery._StageRows, "__init__", counted)
    params = FrogParams(20, 3)
    z = _generic(20, np.random.default_rng(657))
    recover(frog_measurements_time(z, params, plan_indices(params).rows))
    assert stages.count((2, 0)) == 2 and [k for k, _ in stages].count(2) == 2


@pytest.mark.parametrize("n,l,seed", [(20, 3, 647), (64, 11, 648), (256, 11, 649)])
def test_a_reused_plan_recovers_what_a_fresh_plan_does(n, l, seed):
    # Nothing a recovery measures stays on the plan: recovering several
    # signals in turn through one plan gives, byte for byte, what a fresh
    # plan and recover's own plan give for each.
    params = FrogParams(n, l)
    plan = plan_indices(params)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        meas = frog_measurements_time(_generic(n, rng), params, plan.rows)
        reused = recover(meas, plan)
        for out in (recover(meas, plan_indices(params)), recover(meas)):
            assert out.spectrum.tobytes() == reused.spectrum.tobytes()
            assert out.signal.tobytes() == reused.signal.tobytes()
            assert out.verification_residual == reused.verification_residual


def test_probe_expands_only_its_rows(monkeypatch):
    # The probe reads the rows k = 1, 2 and expands only those: never the
    # whole plan, whose table grows as N^2.
    built = _count_expansions(monkeypatch)
    params = FrogParams(20, 4)
    z = _generic_even_signal(20, np.random.default_rng(650))
    even_l_infeasibility_probe(frog_measurements_time(z, params), float(dft(z)[0].real), 0.3)
    assert len(built) == 1
    assert set(built[0][:, 0].tolist()) == {1, 2}


@pytest.mark.parametrize("n,l", [(12, 2), (20, 4), (32, 6), (2048, 32)])
def test_probe_plans_and_expands_the_plans_first_rows(monkeypatch, n, l):
    # The probe reads rows k = 1, 2 of plan_indices and expands exactly
    # those, from a measurement set that holds nothing else.
    params = FrogParams(n, l)
    rows = plan_indices(params).rows
    rows = rows[(rows[:, 0] >= 1) & (rows[:, 0] <= 2)]
    z = _generic_even_signal(n, np.random.default_rng(651))
    meas = frog_measurements_time(z, params, rows)
    built = _count_expansions(monkeypatch)
    even_l_infeasibility_probe(meas, float(dft(z)[0].real), 0.3)
    assert len(built) == 1
    assert_array_equal(built[0], rows)


@pytest.mark.parametrize(
    "n,l,reason",
    [
        (15, 1, "N=15 is odd (recovery handles even lengths)"),
        (16, 4, "r=ceil(N/L)=4 < 5 (too few delay steps to plan)"),
        (16, 2, "L=2 is even (delay phases satisfy w^(N/2) = +1"),
        (18, 3, "N=18 = 6L (w is a primitive 6th root of unity"),
    ],
    ids=["odd-n", "r-below-5", "even-l", "six-l"],
)
def test_recover_refuses_an_unsupported_geometry_with_its_reason(n, l, reason):
    # recover refuses before it reads an entry, with one error that is both
    # a FrogprError and, for callers that catch it, a ValueError; the plan
    # refuses the geometries without a plan (odd N, r < 5) alike.
    params = FrogParams(n, l)
    with pytest.raises(UnsupportedGeometryError) as info:
        recover(FrogMeasurements(params))
    assert str(info.value).startswith(reason)
    assert isinstance(info.value, FrogprError) and isinstance(info.value, ValueError)
    if params.plan_violations():
        with pytest.raises(UnsupportedGeometryError, match=re.escape(reason)):
            plan_indices(params)
    else:
        assert len(plan_indices(params).rows) == 3 * n // 2 + 1


@pytest.mark.parametrize("n,l", [(12, 4), (9, 2), (6, 2)])
def test_probe_refuses_an_unplannable_geometry_as_the_plan_does(n, l):
    params = FrogParams(n, l)
    with pytest.raises(ValueError) as planned:
        plan_indices(params)
    with pytest.raises(ValueError) as probed:
        even_l_infeasibility_probe(FrogMeasurements(params), 1.0, 0.3)
    assert str(probed.value) == str(planned.value)


def _outcome(meas, plan, z):
    """Error class of a recovery, or None and its equivalence verdict."""
    try:
        rec = recover(meas, plan)
    except FrogprError as exc:
        return type(exc), None
    return None, equivalent_up_to_group(rec.signal, z, tol=1e-6).equivalent


@pytest.mark.parametrize("n,l,seeds", [(64, 11, 4), (128, 9, 3), (256, 11, 2)])
def test_windowed_polish_keeps_the_full_polish_outcomes(n, l, seeds, monkeypatch):
    # A window of N/2 + 1 makes every stage's polish full. Criterion 2's
    # sampler (_generic) and the uncurated one, on exact data and with
    # per-entry relative noise, must end alike under both schedules: the
    # same error class, or success with the same equivalence verdict. Noisy
    # inputs whose stage residual lands within a few times _STAGE_TOL can
    # end differently (9 of 1,440 exact and noisy inputs at these three
    # geometries, all at noise 1e-9 or 1e-7, in a wider run).
    params = FrogParams(n, l)
    plan = plan_indices(params)
    rng = np.random.default_rng(900 + n)
    inputs = []
    for _ in range(seeds):
        for z in (_generic(n, rng), random_analytic_signal(n, rng)):
            exact = frog_measurements_time(z, params, plan.pairs())
            inputs.append((z, exact))
            for sigma in (1e-9, 1e-7):
                noise = 1 + sigma * rng.standard_normal(len(exact.entries))
                entries = dict(zip(exact.entries, np.abs(exact.values * noise)))
                inputs.append((z, FrogMeasurements(params, entries)))
    windowed = [_outcome(meas, plan, z) for z, meas in inputs]
    monkeypatch.setattr(recovery, "_POLISH_WINDOW", n // 2 + 1)
    full = [_outcome(meas, plan, z) for z, meas in inputs]
    assert windowed == full
    assert (None, True) in windowed


def test_recover_consumes_only_planned_entries():
    rng = np.random.default_rng(603)
    params = FrogParams(12, 1)
    z = _generic(12, rng)
    full = frog_measurements_time(z, params)
    planned = frog_measurements_time(z, params, plan_indices(params).pairs())
    rec_full = recover(full)
    rec_planned = recover(planned)
    assert_array_equal(rec_full.signal, rec_planned.signal)
    assert_array_equal(rec_full.spectrum, rec_planned.spectrum)
    # The full grid is verified on every entry, the plan on its own.
    assert rec_full.verification_residual <= 1e-9
    assert rec_planned.verification_residual <= 1e-9


def test_recover_verifies_every_supplied_entry():
    # The stages solve from the plan, but an entry off the plan that the
    # solution does not reproduce is refused, not returned verified.
    params = FrogParams(16, 3)
    z = _generic_even_signal(16, np.random.default_rng(612))
    grid = frog_measurements_time(z, params)
    assert [0, 2] not in plan_indices(params).rows.tolist()
    grid[0, 2] = 100.0 * grid[0, 2] + 5.0
    with pytest.raises(InconsistentMeasurementsError, match="verification residual"):
        recover(grid)


def test_recover_handles_negative_leading_coefficient():
    rng = np.random.default_rng(604)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=-1.7, shalf=0.6)
    meas, plan = _planned_measurements(s, params)
    rec = recover(meas, plan)
    assert rec.verification_residual < 1e-9
    report = equivalent_up_to_group(rec.signal, idft(s), tol=1e-7)
    assert report.equivalent


def test_recover_rejects_out_of_domain_geometries():
    rng = np.random.default_rng(605)
    with pytest.raises(ValueError, match="odd"):
        recover(frog_measurements_time(random_analytic_signal(9, rng), FrogParams(9, 1)))
    with pytest.raises(ValueError, match="even"):
        recover(frog_measurements_time(random_analytic_signal(12, rng), FrogParams(12, 2)))
    with pytest.raises(ValueError, match="r=ceil"):
        recover(frog_measurements_time(random_analytic_signal(12, rng), FrogParams(12, 5)))
    with pytest.raises(ValueError, match="< 8"):
        recover(frog_measurements_time(random_analytic_signal(4, rng), FrogParams(4, 1)))


def test_recover_refuses_six_l_geometries():
    # For N = 6L the plan exists, but at stage k = N/2 (k = 3 mod 6) the
    # three planned rows hold only two distinct circles, so every signal
    # would fail there; the geometry is refused up front instead.
    rng = np.random.default_rng(611)
    for n, l in ((18, 3), (30, 5)):
        params = FrogParams(n, l)
        plan = plan_indices(params)
        z = random_analytic_signal(n, rng)
        meas = frog_measurements_time(z, params, plan.pairs())
        with pytest.raises(ValueError, match="6L"):
            recover(meas, plan)


def test_recover_requires_all_planned_entries():
    rng = np.random.default_rng(606)
    params = FrogParams(12, 1)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(12, rng), params, plan.pairs())
    removed = dict(meas.entries)
    removed.pop(plan.pairs()[-1])
    from frogpr import FrogMeasurements

    with pytest.raises(ValueError, match="missing"):
        recover(FrogMeasurements(params, removed), plan)


@pytest.mark.parametrize(
    "key,value",
    [((5, 0), -1.0), ((5, 0), float("inf")), ((5, 0), float("-inf")), ((0, 2), float("inf"))],
)
def test_an_invalid_grid_entry_is_refused_by_name(key, value):
    # A set checks its values where it is built and holds them read-only,
    # so an invalid value, planned ((5, 0)) or not ((0, 2)), is refused by
    # name before recover or verify_solution could read it, instead of
    # warning or blaming the signal, and the set is left as it was.
    params = FrogParams(20, 3)
    z = _generic(20, np.random.default_rng(651))
    meas = frog_measurements_time(z, params)
    values = meas.values
    message = f"^entry \\({key[0]}, {key[1]}\\) has invalid value {value!r}$"
    with pytest.raises(ValueError, match=message):
        meas[key] = value
    with pytest.raises(ValueError, match=message):
        FrogMeasurements(params, {**meas, key: value})
    # A full set's values.reshape(N, r) is its grid, read-only too.
    with pytest.raises(ValueError, match="read-only"):
        values.reshape(20, -1)[key] = value
    assert meas.values is values
    assert recover(meas).verification_residual < 1e-9
    assert verify_solution(dft(z), meas) < 1e-9


def test_the_first_invalid_entry_is_named_and_an_absent_one_is_skipped():
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    z = _generic(20, np.random.default_rng(652))
    full = frog_measurements_time(z, params)
    # The entries are in (k, m) order, and the first invalid one is named.
    with pytest.raises(ValueError, match=r"^entry \(5, 4\) has invalid value inf$"):
        FrogMeasurements(params, {**full, (9, 1): -2.0, (5, 4): float("inf")})
    # An entry not measured is absent from the set: off the plan it is
    # skipped, on the plan it is a missing entry.
    meas = FrogMeasurements(params, {key: v for key, v in full.items() if key != (0, 2)})
    assert recover(meas, plan).verification_residual < 1e-9
    meas = FrogMeasurements(params, {key: v for key, v in meas.items() if key != (5, 0)})
    with pytest.raises(ValueError, match=r"missing required entries \[\(5, 0\)\]"):
        recover(meas, plan)


@pytest.mark.parametrize("key,value", [((5, 0), float("nan")), ((2, 1), -1.0)])
def test_an_invalid_value_cannot_be_planted_for_recover_or_the_probe(key, value):
    # NaN is not "not measured" but an invalid value. recover,
    # verify_solution and the even-L probe do not check a set's values
    # again: a set's values are read-only, and assignment names an invalid
    # one and leaves the set as it was, so they read what was checked.
    message = f"^entry \\({key[0]}, {key[1]}\\) has invalid value {value!r}$"
    for l in (3, 4):
        params = FrogParams(20, l)
        z = _generic_even_signal(20, np.random.default_rng(656))
        meas = frog_measurements_time(z, params)
        with pytest.raises(ValueError, match="read-only"):
            meas.values.reshape(20, -1)[key] = value
        with pytest.raises(ValueError, match=message):
            meas[key] = value
        assert verify_solution(dft(z), meas) < 1e-9
        if l % 2:
            assert recover(meas).verification_residual < 1e-9
        else:
            assert not even_l_infeasibility_probe(meas, float(dft(z)[0].real), 0.3)


def test_recover_refuses_a_set_without_the_plan_before_expanding_it():
    # The planned entries are looked up before the plan's expansion is
    # built: an empty (2048, 1) set is refused within a few hundred kB
    # (building the expansion first peaked at 160 MB traced).
    params = FrogParams(2048, 1)
    plan = plan_indices(params)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^measurements missing required entries \[\(0, 0\), "):
            recover(FrogMeasurements(params), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
    assert plan not in recovery._EXPANSIONS


@pytest.mark.parametrize("n", [2_000_000, 2**40, 2**62, 2**63 - 2])
def test_recover_plans_only_the_rows_that_name_a_small_sets_gaps(n):
    # An empty set lacks every planned pair; recover plans only the rows
    # that hold the first five, so a huge geometry is refused by name
    # within a few MB (the whole plan of (2e6, 1) took 178 MB traced, and
    # that of (2^40, 1) raised MemoryError). From 2^62 on the planner's
    # congruences are exact Python ints (int64 raised OverflowError).
    params = FrogParams(n, 1)
    meas = FrogMeasurements(params)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            recover(meas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "measurements missing required entries [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]"
    )
    assert peak < 5e6, peak


@pytest.mark.parametrize("n,l", [(20, 3), (64, 11), (256, 11), (2048, 31)])
def test_a_set_smaller_than_the_plan_names_the_plans_first_gaps(n, l):
    # Rows k <= n + 4 hold the first five pairs a set of n entries lacks:
    # recover names the same ones as the whole plan does.
    params = FrogParams(n, l)
    plan = plan_indices(params)
    z = _generic_even_signal(n, np.random.default_rng(658))
    rng = np.random.default_rng(n)
    for size in (0, 1, 7, len(plan.rows) // 2, len(plan.rows) - 1):
        keep = np.sort(rng.choice(len(plan.rows), size, replace=False))
        meas = frog_measurements_time(z, params, plan.rows[keep])
        with pytest.raises(ValueError) as own:
            recover(meas)
        with pytest.raises(ValueError) as whole:
            recover(meas, plan)
        assert str(own.value) == str(whole.value)


def test_probe_plans_only_its_rows():
    # The probe plans rows k <= 2 alone: an empty (2e6, 2) set is refused
    # within a few MB (the whole plan took 162 MB), and so is an empty
    # (2^62, 2) set, whose congruences pass int64 (OverflowError there).
    for n in (2_000_000, 2**62):
        meas = FrogMeasurements(FrogParams(n, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^measurements missing required entries \[\(1, 0\), "):
                even_l_infeasibility_probe(meas, 1.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, (n, peak)


def _probe_sets(n, seeds=range(3)):
    """Sets of the (n, 2) probe's 8 planned rows, values uniform in [0.5, 2) per seed."""
    params = FrogParams(n, 2)
    rows = list(map(tuple, _plan(params, 2).rows.tolist()))
    for seed in seeds:
        values = np.random.default_rng(seed).uniform(0.5, 2, len(rows))
        yield FrogMeasurements(params, dict(zip(rows, values.tolist())))


def test_probe_refuses_a_geometry_whose_row_2_multiples_do_not_resolve():
    # At (2^30, 2) and (2^40, 2) the pair's multiples 1/(2 cos phi_m), at
    # phases of a few 2^-30 turns, both round to 1/2 in the row table. The
    # answer hung on the values' last bits: of these three sets, two
    # refused a singular pair and one returned True. The probe now refuses
    # each from the geometry, before the pair solve. The row table
    # evaluates only the roots its rows read (a table of all N roots raised
    # an 8 TiB MemoryError), within a few MB.
    for n in (2**30, 2**40):
        for meas in _probe_sets(n):
            tracemalloc.start()
            try:
                with pytest.raises(DegenerateSignalError) as info:
                    even_l_infeasibility_probe(meas, 1.0, 0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == (
                "stage k=2: the pair's multiples 1/(2 cos phi) differ by 0.0e+00 of the larger, "
                f"below 2^-42: the delay phases at N={n} do not resolve in float64"
            )
            assert (info.value.stage, info.value.residual, info.value.tol) == ("A1", None, None)
            assert info.value.__cause__ is None
            assert peak < 5e6, peak


def test_the_row_2_resolution_rule_is_decided_by_the_geometry():
    # At L = 2 the pair's delays are 0 and 1, whose multiples differ by
    # 1 - cos(4 pi / N) of the larger, about 8 pi^2 / N^2: 3.2e5 units in
    # the last place at 2^20 and 1,263 at 2^24, which keep their verdicts
    # on every set, and 316 at 2^25, the first power of two refused.
    for n in (2**20, 2**24):
        for meas in _probe_sets(n):
            assert even_l_infeasibility_probe(meas, 1.0, 0.3) is True
    for meas in _probe_sets(2**25):
        with pytest.raises(DegenerateSignalError, match=r"differ by 7\.0e-14 of the larger, below 2\^-42"):
            even_l_infeasibility_probe(meas, 1.0, 0.3)


def test_a_set_past_2_61_is_refused_for_the_rows_the_exact_plan_names():
    # At this geometry int64 products wrapped and planned (4, 5) for the
    # exact plan's (4, 4): a set holding the planned rows k <= 3 lacks row 4
    # as the exact plan has it.
    params = FrogParams(2864162437687989112, 358020304710998639)
    rows = _plan(params, 3).rows
    meas = FrogMeasurements(params, dict.fromkeys(map(tuple, rows.tolist()), 1.0))
    with pytest.raises(ValueError) as info:
        recover(meas)
    assert str(info.value) == "measurements missing required entries [(4, 0), (4, 2), (4, 4), (5, 0), (5, 1)]"


def test_verify_solution_on_a_sparse_set_reads_only_its_entries():
    # The (4096, 1) plan-only set holds 6,145 of 16.8 M grid entries:
    # verify_solution evaluates delays 0..5 and gathers those entries, in
    # a few ms and about a MB (scanning a dense grid took 56 ms).
    params = FrogParams(4096, 1)
    z = random_analytic_signal(4096, np.random.default_rng(657))
    meas = frog_measurements_time(z, params, plan_indices(params).rows)
    s = dft(z)
    tracemalloc.start()
    try:
        residual = verify_solution(s, meas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    assert peak < 5e6, peak
    seconds = min(timeit.repeat(lambda: verify_solution(s, meas), number=1, repeat=5))
    assert seconds < 0.02, seconds


def test_recover_refuses_a_plan_for_another_geometry():
    rng = np.random.default_rng(621)
    params = FrogParams(16, 3)
    meas = frog_measurements_time(_generic(16, rng), params)
    other = plan_indices(FrogParams(20, 3))
    match = r"plan is for FrogParams\(N=20, L=3\).*FrogParams\(N=16, L=3\)"
    with pytest.raises(ValueError, match=match):
        recover(meas, other)


# At (16, 3), row 5 holds delays 0, 1 and 2.
_PLAN_ROWS = plan_indices(FrogParams(16, 3)).rows


@pytest.mark.parametrize(
    "rows, message",
    [
        (_PLAN_ROWS[(_PLAN_ROWS != (5, 1)).any(axis=1)], "plan row 14 is (5, 2), but plan_indices has (5, 1)"),
        (np.insert(_PLAN_ROWS, 16, (5, 3), axis=0), "plan row 16 is (5, 3), but plan_indices has (6, 0)"),
        (_PLAN_ROWS[_PLAN_ROWS[:, 0] > 0], "plan row 0 is (1, 0), but plan_indices has (0, 0)"),
        (_PLAN_ROWS[::-1], "plan row 0 is (8, 4), but plan_indices has (0, 0)"),
        (np.empty((0, 2), np.int64), "plan has 0 rows, but plan_indices has 25"),
    ],
    ids=["row-5-1-dropped", "extra-5-3", "k0-dropped", "reversed", "no-rows"],
)
def test_recover_refuses_a_plan_that_is_not_the_geometrys(rows, message):
    # A hand-built plan used to crash inside the stages: a TypeError from
    # solve_three_circles, a failed unpacking, an IndexError, or a reduction
    # over no rows.
    params = FrogParams(16, 3)
    meas = frog_measurements_time(random_analytic_signal(16, np.random.default_rng(1)), params)
    with pytest.raises(ValueError) as info:
        recover(meas, MeasurementIndexPlan(params, rows))
    assert str(info.value) == message


def test_a_plan_is_checked_until_its_first_recovery(monkeypatch):
    params = FrogParams(16, 3)
    meas = frog_measurements_time(random_analytic_signal(16, np.random.default_rng(1)), params)
    plan = MeasurementIndexPlan(params, plan_indices(params).rows.copy())
    checked = []
    monkeypatch.setattr(recovery, "_check_rows", checked.append)
    for _ in range(3):
        recover(meas, plan)
    recover(meas)
    assert checked == [plan]


def test_recovery_tolerance_must_be_finite_and_positive():
    rng = np.random.default_rng(622)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            recover(meas, plan, tol=bad)
    assert recover(meas, plan, tol=1e-9).verification_residual <= 1e-9


def test_recover_checks_tol_before_reading_the_measurements(monkeypatch):
    # A bad tol is reported even when a planned entry is missing, and
    # before any row table is built.
    rng = np.random.default_rng(623)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.rows[:-1])
    monkeypatch.setattr(recovery, "_scaled", lambda *args: pytest.fail("_scaled ran"))
    with pytest.raises(ValueError, match="^tol must be finite and positive, got -1.0$"):
        recover(meas, plan, tol=-1.0)


@pytest.mark.parametrize("stage", [2, 3])
def test_pair_stage_checks_candidates_on_their_circles(monkeypatch, stage):
    # The circle solvers are pure geometry; recover_tail judges their
    # candidates. Planting a pair that misses its circles must be caught.
    # A1 makes the stage-2 pair solve the tail checks, so the solver is
    # planted before A1 runs; at stage 3 it turns bad once A1 is done.
    rng = np.random.default_rng(623)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    tables, _ = recovery._scaled(meas, plan)
    solve = recovery.solve_two_circles_real
    bad = [stage == 2]

    def planted(*args):
        cands = solve(*args)
        if not bad[0]:
            return cands
        shift = 1.0 + abs(cands[0])
        return cands[0] + shift, cands[1] + shift

    monkeypatch.setattr(recovery, "solve_two_circles_real", planted)
    start = recovery.recover_z0(tables)
    bad[0] = True
    with pytest.raises(
        InconsistentMeasurementsError,
        match=f"stage k={stage}: two-circle candidate misses a circle by",
    ) as info:
        recovery.recover_tail(tables, *start)
    assert (info.value.stage, info.value.tol) == (stage, recovery._STAGE_TOL)
    assert info.value.residual > info.value.tol


def test_a_recovery_solves_each_pair_once(monkeypatch):
    # A1 solves the stage-2 pair of each root it scores and hands the
    # chosen one's candidates to the tail, which solves only stage 3's:
    # two roots make three two-circle solves, not four. One pass takes the
    # radii of both roots, each list with the bytes of its root's own pass.
    solve, radii = recovery.solve_two_circles_real, recovery._radii
    solves, roots = [], []

    def counted(*args):
        solves.append(args)
        return solve(*args)

    def scored(tables, z0):
        roots.append(z0)
        lists = radii(tables, z0)
        assert lists == [radii(tables, float(root)) for root in z0[:, 0]]
        return lists

    monkeypatch.setattr(recovery, "solve_two_circles_real", counted)
    monkeypatch.setattr(recovery, "_radii", scored)
    params = FrogParams(16, 3)
    z = _generic(16, np.random.default_rng(623))
    recover(frog_measurements_time(z, params, plan_indices(params).rows))
    assert len(solves) == 3
    assert len(roots) == 1 and roots[0].shape == (2, 1)


@pytest.mark.parametrize("singular", [False, True])
def test_stage_4_refuses_when_no_stage_3_candidate_extends(monkeypatch, singular):
    # The k = 4 referee is the first three-circle solve. A point far off its
    # circles for both candidates is a rejection with the smaller miss;
    # collinear centers for both are a degenerate signal.
    rng = np.random.default_rng(623)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    solve = recovery.solve_three_circles
    misses = []

    def planted(*args):
        if singular:
            raise SingularConfigurationError("planted")
        z = solve(*args) + 10.0 * (1.0 + abs(args[0]))
        offset, radius = args[:3], args[3:]
        misses.append(recovery._circle_residual(z, offset, radius))
        return z

    monkeypatch.setattr(recovery, "solve_three_circles", planted)
    if singular:
        with pytest.raises(DegenerateSignalError) as info:
            recover(meas, plan)
        message = "stage k=4 circle centers are collinear for both stage-3 candidates"
        assert str(info.value) == message
        assert (info.value.stage, info.value.residual, info.value.tol) == (4, None, None)
    else:
        with pytest.raises(InconsistentMeasurementsError) as info:
            recover(meas, plan)
        assert str(info.value) == "stage k=4 rejects both stage-3 candidates"
        assert len(misses) == 2
        assert (info.value.stage, info.value.tol) == (4, recovery._STAGE_TOL)
        assert info.value.residual == min(misses) > recovery._STAGE_TOL


def test_recover_flags_corrupted_measurements(monkeypatch):
    rng = np.random.default_rng(607)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    from frogpr import FrogMeasurements

    # A late-stage row: the stage solve (or the final verification) must
    # reject rather than return a wrong signal.
    late = dict(meas.entries)
    key = (7, int(plan.delays(7)[1]))
    late[key] = late[key] * 2.5
    with pytest.raises(InconsistentMeasurementsError, match=r"^stage k="):
        recover(FrogMeasurements(params, late), plan)

    # A spectrum that misses the measurements is refused by A3 itself, a
    # NaN residual included.
    from frogpr import recovery

    for residual, text in ((1.0, r"1\.000e\+00"), (float("nan"), "nan")):
        with monkeypatch.context() as patch:
            patch.setattr(recovery, "_verified", lambda s, m, r=residual: (np.fft.ifft(s), r))
            with pytest.raises(
                InconsistentMeasurementsError,
                match=rf"^verification residual {text} > 1\.0e-06$",
            ):
                recover(meas, plan)

    # A boundary row: breaks the root disambiguation itself.
    early = dict(meas.entries)
    early[(0, 0)] = early[(0, 0)] * 4.0
    with pytest.raises(InconsistentMeasurementsError):
        recover(FrogMeasurements(params, early), plan)


def test_a_refused_stage_entry_names_its_stage_residual_and_tol():
    rng = np.random.default_rng(607)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    key = (7, int(plan.delays(7)[1]))
    meas[key] = 2.5 * meas[key]
    with pytest.raises(InconsistentMeasurementsError) as info:
        recover(meas, plan)
    exc = info.value
    assert (exc.stage, exc.tol) == (7, recovery._STAGE_TOL)
    assert exc.residual == pytest.approx(0.2082, rel=1e-3)
    assert str(exc) == f"stage k=7 residual {exc.residual:.3e} exceeds the stage tolerance"


def test_a_refused_off_plan_entry_names_the_verification():
    params = FrogParams(16, 3)
    z = _generic_even_signal(16, np.random.default_rng(612))
    grid = frog_measurements_time(z, params)
    grid[0, 2] = 100.0 * grid[0, 2] + 5.0
    with pytest.raises(InconsistentMeasurementsError) as info:
        recover(grid, tol=1e-6)
    exc = info.value
    assert (exc.stage, exc.tol) == ("verify", 1e-6)
    assert exc.residual == pytest.approx(0.9905, rel=1e-3)
    assert str(exc) == f"verification residual {exc.residual:.3e} > 1.0e-06"


def test_a_refused_root_choice_names_a1_and_its_least_misfit():
    # A1 refuses only when no root's pair solve has candidates, so its least
    # misfit is inf; no tol took part in the choice.
    rng = np.random.default_rng(607)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    meas[0, 0] = 4.0 * meas[0, 0]
    with pytest.raises(InconsistentMeasurementsError) as info:
        recover(meas, plan, tol=1e-6)
    exc = info.value
    assert (exc.stage, exc.residual, exc.tol) == ("A1", math.inf, None)
    assert str(exc) == "no boundary-modulus root admits a second-row pair solve"


@pytest.mark.parametrize(
    "s0,shalf,stage",
    # A1 scores every root on the k = 2 row, so it meets s_1 = 0 first,
    # whether the boundary moduli are separated or equal.
    [(2.0, 0.8, "A1"), (1.3, -1.3, "A1")],
)
def test_a_vanishing_second_coefficient_names_the_stage_that_meets_it(s0, shalf, stage):
    rng = np.random.default_rng(613)
    s = _analytic_spectrum(12, rng, s0=s0, shalf=shalf)
    s[1] = 0.0
    meas, plan = _planned_measurements(s, FrogParams(12, 1))
    with pytest.raises(DegenerateSignalError) as info:
        recover(meas, plan)
    exc = info.value
    assert (exc.stage, exc.residual, exc.tol) == (stage, None, None)
    assert str(exc) == "second spectral coefficient vanishes; the stage solves degenerate"


@pytest.mark.parametrize(
    "shalf,key",
    # Equal boundary moduli: A1's one root meets the corrupted k = 2 row,
    # whose circles do not meet, so A1 has no candidate and refuses.
    # Separated ones: A1 takes the true root on the exact k = 2 row, and
    # stage 3 meets the corrupted one.
    [(-1.3, (2, 0)), (0.6, (3, 0))],
)
def test_a_pair_solve_whose_circles_do_not_meet_names_its_stage(shalf, key):
    s = _analytic_spectrum(12, np.random.default_rng(614), s0=1.3, shalf=shalf)
    meas, plan = _planned_measurements(s, FrogParams(12, 1))
    meas[key] = 1e4 * meas[key]
    with pytest.raises(InconsistentMeasurementsError) as info:
        recover(meas, plan)
    exc, k = info.value, key[0]
    if k == 2:
        assert (exc.stage, exc.residual, exc.tol) == ("A1", math.inf, None)
        assert str(exc) == "no boundary-modulus root admits a second-row pair solve"
    else:
        assert isinstance(exc.__cause__, NoSolutionError)
        assert (exc.stage, exc.residual, exc.tol) == (k, None, None)
        assert str(exc).startswith(f"stage k={k}: circles do not intersect")


def test_a1_refuses_without_trying_a_smaller_root_at_the_floor(monkeypatch):
    # Equal k = 0 magnitudes make the smaller boundary modulus 0: A1 scores
    # only the larger root, and refuses when its pair solve has no
    # candidates.
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, np.random.default_rng(615)), params, plan.rows)
    meas[0, 1] = meas[0, 0]
    misfit = recovery._row2_misfit
    tried = []

    def spy(tables, s_0, s_1, radii):
        tried.append(misfit(tables, s_0, s_1, radii))
        return tried[-1]

    monkeypatch.setattr(recovery, "_row2_misfit", spy)
    with pytest.raises(InconsistentMeasurementsError) as info:
        recover(meas, plan)
    exc = info.value
    assert [score[0] for score in tried] == [math.inf]
    assert (exc.stage, exc.residual, exc.tol) == ("A1", math.inf, None)


@pytest.mark.parametrize("k", [5, 6])
def test_collinear_centers_at_a_later_stage_name_it(k):
    # Stage k's centers are real combinations of the products s_l s_{k-l},
    # 0 < l < k, over s_0: when all of them are real multiples of one
    # complex number, the centers lie on a line through the origin.
    s = _analytic_spectrum(16, np.random.default_rng(616), s0=1.3, shalf=0.6)
    if k == 5:
        s[4] = 0.7 * s[2] * s[3] / s[1]
    else:
        s[4], s[5] = 0.7 * s[3] ** 2 / s[2], 0.9 * s[3] ** 2 / s[1]
    meas, plan = _planned_measurements(s, FrogParams(16, 3))
    with pytest.raises(DegenerateSignalError) as info:
        recover(meas, plan)
    exc = info.value
    assert isinstance(exc.__cause__, SingularConfigurationError)
    assert (exc.stage, exc.residual, exc.tol) == (k, None, None)
    assert str(exc) == f"stage k={k}: circle centers are collinear; the linear system is singular"


# --- leading-coefficient root choice -------------------------------------------


def test_recover_z0_picks_correct_root_both_orderings():
    rng = np.random.default_rng(608)
    params = FrogParams(12, 1)
    for s0, shalf in ((2.0, 0.7), (0.7, 2.0), (-1.4, 0.5)):
        s = _analytic_spectrum(12, rng, s0=s0, shalf=shalf)
        meas, plan = _planned_measurements(s, params)
        got = recover(meas, plan).spectrum[0]
        assert got.imag == 0
        assert_allclose(got.real, abs(s0), rtol=1e-9)


def test_recover_z0_equal_boundary_moduli_returns_common_value():
    rng = np.random.default_rng(609)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=1.3, shalf=-1.3)
    meas, plan = _planned_measurements(s, params)
    spectrum = recover(meas, plan).spectrum
    assert_allclose(spectrum[[0, 6]].real, [1.3, 1.3], rtol=1e-9)


def test_a1_scores_one_root_when_the_boundary_moduli_are_equal(monkeypatch):
    # An exact zero |y^_{0,1}|^2 makes the two roots the same number, which
    # A1 scores once.
    s = _analytic_spectrum(12, np.random.default_rng(609), s0=1.3, shalf=-1.3)
    meas, plan = _planned_measurements(s, FrogParams(12, 1))
    meas[0, 1] = 0.0
    misfit = recovery._row2_misfit
    roots = []

    def spy(tables, s_0, s_1, radii):
        roots.append(s_0)
        return misfit(tables, s_0, s_1, radii)

    monkeypatch.setattr(recovery, "_row2_misfit", spy)
    spectrum = recover(meas, plan).spectrum
    assert len(roots) == 1
    assert_allclose(spectrum[[0, 6]].real, [1.3, 1.3], rtol=1e-9)


@pytest.mark.parametrize("seed", [2, 4])
def test_a1_takes_the_least_misfit_root_on_noisy_plan_data(seed):
    # Noise of 1e-7 on the planned entries leaves the true root's k = 2
    # misfit near 1e-5: the root of least misfit is still the true one, and
    # the tail and the verification accept the result at the default tol.
    # The root does not depend on tol, so a looser tol gives the same bytes.
    rng = np.random.default_rng(seed)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    z = _generic_even_signal(16, rng)
    exact = frog_measurements_time(z, params, plan.rows)
    noise = rng.standard_normal((16, params.r))  # one draw per grid entry
    noisy = exact.values * (1.0 + 1e-7 * noise[tuple(exact.rows.T)])
    meas = FrogMeasurements(params, dict(zip(exact, noisy)))
    rec = recover(meas, plan)
    assert rec.verification_residual <= 1e-6
    assert equivalent_up_to_group(rec.signal, z, tol=1e-5).equivalent
    assert recover(meas, plan, tol=1e-2).spectrum.tobytes() == rec.spectrum.tobytes()


def test_recover_z0_degenerate_boundary_raises():
    rng = np.random.default_rng(610)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=0.0, shalf=0.0)
    meas, plan = _planned_measurements(s, params)
    # Forward synthesis leaves ~1e-32 of roundoff in the analytically-zero
    # k = 0 rows; clamping them to the exact zeros an ideal source would
    # report exercises the documented degenerate-signal refusal.
    from frogpr import FrogMeasurements

    clamped = dict(meas.entries)
    clamped[(0, 0)] = 0.0
    clamped[(0, 1)] = 0.0
    with pytest.raises(DegenerateSignalError, match="boundary"):
        recover(FrogMeasurements(params, clamped), plan)
    # The unclamped roundoff-level rows must still end in an honest refusal,
    # never a silently wrong root.
    from frogpr import FrogprError

    with pytest.raises(FrogprError):
        recover(meas, plan)


# --- sequential tail solve ------------------------------------------------------


def test_recover_tail_solves_all_upper_rows():
    rng = np.random.default_rng(611)
    params = FrogParams(16, 3)
    z = _generic(16, rng)
    s_true = dft(z)
    plan = plan_indices(params)
    meas = frog_measurements_time(z, params, plan.pairs())
    t, tables, e = _tail(meas, plan)
    z0 = np.ldexp(abs(s_true[0]), -e)
    assert t.shape == (16,)
    assert np.all(t[9:] == 0)
    # Pinned gauge of the staged iterate: s_0 on the positive real axis,
    # s_1 real non-negative.
    assert abs(t[0] - z0) < 1e-9 * z0
    assert t[1].real >= 0 and abs(t[1].imag) < 1e-9 * abs(t[1])
    # Every consumed row with k >= 1 is reproduced (the k = 0 rows pin the
    # remaining translation freedom and are only met after normalization).
    grid = frog_measurements_freq(t, params).values.reshape(16, -1)
    rows = plan.rows[plan.rows[:, 0] >= 1]
    assert tables.target.size == rows.shape[0]
    deviation = np.abs(grid[rows[:, 0], rows[:, 1]] - tables.target)
    assert np.all(deviation < 1e-8 * tables.scale)


def test_recover_tail_keeps_its_gauge_exactly():
    # The polish never steps in Im s_0 or Im s_1, so the tail's pinned gauge
    # (s_0 = z0 real, s_1 real) holds to the last bit, not only to roundoff.
    rng = np.random.default_rng(612)
    params = FrogParams(64, 11)
    plan = plan_indices(params)
    for _ in range(5):
        z = _generic(64, rng)
        meas = frog_measurements_time(z, params, plan.pairs())
        t, _, _ = _tail(meas, plan)
        assert t[0].imag == 0 and t[1].imag == 0


def test_recover_tail_degenerate_second_coefficient_raises():
    rng = np.random.default_rng(613)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[1] = 0.0
    meas, plan = _planned_measurements(s, params)
    # A1's k = 2 pair solve scales by s_1^2 / s_0 and says nothing at s_1 = 0,
    # so A1 refuses before the tail runs.
    with pytest.raises(DegenerateSignalError, match="^second spectral coefficient vanishes"):
        recover(meas, plan)


def test_recover_tail_degenerate_third_coefficient_raises():
    rng = np.random.default_rng(614)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[2] = 0.0
    meas, plan = _planned_measurements(s, params)
    with pytest.raises(DegenerateSignalError, match="^third spectral coefficient vanishes"):
        recover(meas, plan)


# --- verification ----------------------------------------------------------------


def test_verify_solution_accepts_truth_and_group_variants():
    rng = np.random.default_rng(615)
    params = FrogParams(12, 3)
    z = _generic(12, rng)
    s = dft(z)
    meas = frog_measurements_time(z, params)
    alternating = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    for variant in (s, np.conj(s), -s, s * alternating):
        assert verify_solution(variant, meas) < 1e-10


def test_verify_solution_grows_with_perturbation():
    rng = np.random.default_rng(616)
    params = FrogParams(12, 3)
    z = _generic(12, rng)
    s = dft(z)
    meas = frog_measurements_time(z, params)
    bent = s.copy()
    bent[3] += 0.05 * np.abs(s).max()
    assert verify_solution(bent, meas) > 1e-4


def test_verify_solution_length_mismatch_raises():
    rng = np.random.default_rng(617)
    params = FrogParams(12, 3)
    meas = frog_measurements_time(random_analytic_signal(12, rng), params)
    with pytest.raises(ValueError):
        verify_solution(np.ones(10), meas)


def test_a_recovery_checks_its_spectrum_once_and_batches_its_transforms(monkeypatch):
    # verify_solution checks the spectrum once, by _sized, takes its idft
    # and makes one forward FFT call over the delays' products; recover
    # verifies the signal it returns, so it makes one inverse transform.
    from frogpr import frog

    params = FrogParams(20, 3)
    z = _generic_even_signal(20, np.random.default_rng(657))
    meas = frog_measurements_time(z, params, plan_indices(params).rows)
    s = dft(z)
    calls = []

    def counting(name, f):
        def counted(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        monkeypatch.setattr(name, counted)

    counting("frogpr.frog.as_signal", frog.as_signal)
    counting("numpy.fft.fft", np.fft.fft)
    counting("numpy.fft.ifft", np.fft.ifft)
    residual = verify_solution(s, meas)
    assert calls == ["frogpr.frog.as_signal", "numpy.fft.ifft", "numpy.fft.fft"]
    calls.clear()
    result = recover(meas)
    assert calls == ["frogpr.frog.as_signal", "numpy.fft.ifft", "numpy.fft.fft"]
    assert residual < 1e-12 and result.verification_residual < 1e-12
    assert result.signal.tobytes() == np.fft.ifft(result.spectrum).tobytes()
    assert result.verification_residual == verify_solution(result.spectrum, meas)


@pytest.mark.parametrize("n,l", [(12, 1), (16, 3), (64, 11), (256, 11)])
def test_verification_residual_is_bytewise_the_full_grids(n, l, monkeypatch):
    # verify_solution evaluates the grid only up to the last measured delay
    # (a plan from N = 64 on reads delays 0..4 alone); its residual has the
    # bytes of one taken over the full grid, for the
    # exact spectrum and a bent one, on a plan-only set, the full grid, and
    # sets with a large off-plan delay.
    params = FrogParams(n, l)
    r = params.r
    rows = plan_indices(params).rows
    z = _generic_even_signal(n, np.random.default_rng(655))
    s = dft(z)
    bent = s.copy()
    bent[3] += 1e-3 * np.abs(s).max()
    time_rows = frog._time_rows
    evaluated = []

    def counted(z, params, r):
        evaluated.append(r)
        return time_rows(z, params, r)

    monkeypatch.setattr(frog, "_time_rows", counted)
    for indices, delays in (
        (rows, 5 if n >= 64 else rows[:, 1].max() + 1),
        (None, r),
        (np.concatenate([rows, [[n - 1, r - 1]]]), r),
        ([(1, 0), (5, r - 2)], r - 1),
    ):
        meas = frog_measurements_time(z, params, indices)
        for spectrum in (s, bent):
            evaluated.clear()
            residual = verify_solution(spectrum, meas)
            assert residual.hex() == full_grid_residual(spectrum, meas).hex()
            assert evaluated == [delays]


def test_verify_solution_without_measurements_raises():
    params = FrogParams(12, 3)
    with pytest.raises(ValueError, match="no measurements"):
        verify_solution(np.ones(12), FrogMeasurements(params))


@pytest.mark.parametrize("factor", [1e100, 1e160])
def test_verify_solution_refuses_a_spectrum_whose_grid_overflows(factor):
    # Refused as synthesis refuses it, naming the first stored entry: its
    # value overflows to inf, as the FFT of the time-domain products does.
    z = _generic(16, np.random.default_rng(621))
    params = FrogParams(16, 3)
    meas = frog_measurements_time(z, params, plan_indices(params).rows)
    value = {1e100: "inf", 1e160: "inf"}[factor]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^entry \(0, 0\) has invalid value {value}$"):
            verify_solution(factor * dft(z), meas)


@pytest.mark.parametrize("n,l", [(8, 1), (12, 5), (16, 3), (20, 3)])
def test_verify_solution_is_the_direct_sum_of_the_definition(n, l):
    # Against a full grid summed term by term from the time-domain
    # definition, the exact spectrum verifies to roundoff, and a spectrum
    # bent at s_3 has the direct sum's residual within 1e-14. The bent
    # spectrum's signal is z + (delta / N) e^{2i pi 3n/N}, by linearity.
    params = FrogParams(n, l)
    z = _generic(n, np.random.default_rng(659 + n))
    grid = direct_frog_grid(z, l)
    meas = FrogMeasurements(params, {(k, m): grid[k, m] for k in range(n) for m in range(params.r)})
    s = dft(z)
    delta = 1e-3 * np.abs(s).max()
    bent = s.copy()
    bent[3] += delta
    bent_z = z + delta / n * np.exp(2j * np.pi * 3 * np.arange(n) / n)
    direct = np.abs(direct_frog_grid(bent_z, l) - grid).max() / grid.max()
    assert verify_solution(s, meas) <= 1e-14
    assert abs(verify_solution(bent, meas) - direct) <= 1e-14


def test_verify_solution_keeps_the_residual_of_a_finite_grid():
    # The residual is the same double as the plain expression's, also when
    # it is inf because the stored values are tiny, then without a warning.
    rng = np.random.default_rng(622)
    params = FrogParams(16, 3)
    z = _generic(16, rng)
    for meas in (
        frog_measurements_time(z, params),
        frog_measurements_time(z, params, plan_indices(params).rows),
        FrogMeasurements(params, {(0, 0): 5e-324, (3, 1): 0.0}),
    ):
        for s in (dft(z), dft(z) * 1e60, dft(_generic(16, rng))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                grid = frog_measurements_freq(s, params).values.reshape(16, -1)
                dev = np.max(np.abs(grid[tuple(meas.rows.T)] - meas.values))
                expected = float(dev / meas.values.max())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert verify_solution(s, meas) == expected


# --- even-stride infeasibility probe ----------------------------------------------


def test_probe_feasible_at_true_coefficient_infeasible_elsewhere():
    rng = np.random.default_rng(618)
    params = FrogParams(12, 2)
    z = _generic(12, rng)
    meas = frog_measurements_time(z, params)
    s0 = float(dft(z)[0].real)
    for theta in (0.0, 0.9, 2.2, 5.1):
        assert not even_l_infeasibility_probe(meas, s0, theta)
        assert not even_l_infeasibility_probe(meas, -s0, theta)
    for factor in (1.37, 0.42, -1.61, -0.55):
        assert even_l_infeasibility_probe(meas, factor * s0, 0.9)


def test_probe_validates_inputs():
    rng = np.random.default_rng(619)
    odd_meas = frog_measurements_time(_generic(12, rng), FrogParams(12, 1))
    with pytest.raises(ValueError, match="even"):
        even_l_infeasibility_probe(odd_meas, 1.0, 0.0)
    even_meas = frog_measurements_time(_generic(12, rng), FrogParams(12, 2))
    with pytest.raises(DegenerateSignalError):
        even_l_infeasibility_probe(even_meas, 0.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            even_l_infeasibility_probe(even_meas, bad, 0.0)
        with pytest.raises(ValueError, match="theta"):
            even_l_infeasibility_probe(even_meas, 1.0, bad)
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[1] = 0.0
    no_s1 = frog_measurements_freq(s, FrogParams(12, 2))
    with pytest.raises(DegenerateSignalError, match="second"):
        even_l_infeasibility_probe(no_s1, 2.0, 0.3)


@pytest.mark.parametrize("n,l,seed", [(12, 2, 631), (16, 2, 632), (20, 2, 633), (32, 6, 634)])
def test_probe_verdicts_do_not_depend_on_the_scale_of_the_input(n, l, seed):
    # The probe scales its rows by a power of two as recover does, and the
    # trial alpha with them, so a scaled signal and trial get the verdicts
    # of the unscaled ones.
    params = FrogParams(n, l)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        z = _generic_even_signal(n, rng, floor0=0.05, floor1=0.05, floor2=0.0, gap=0.0)
        s0 = float(dft(z)[0].real)
        trials = [(c * s0, theta) for c in (1.0, -1.0, 0.5, 0.8, 1.3) for theta in (0.3, 2.0, 4.4)]

        def verdicts(f):
            meas = frog_measurements_time(f * z, params)
            return [even_l_infeasibility_probe(meas, f * alpha, theta) for alpha, theta in trials]

        unit = verdicts(1.0)
        assert not any(unit[:6])  # alpha = +-s_0 is feasible at every phase
        for f in (1e-8, 1e-12, 1e30):
            assert verdicts(f) == unit, f


def test_probe_refuses_a_trial_out_of_range_at_the_measurements_scale():
    z = _generic_even_signal(16, np.random.default_rng(635))
    params = FrogParams(16, 2)
    huge = frog_measurements_time(1e30 * z, params)
    for alpha in (1e-300, 5e-324):
        with pytest.raises(DegenerateSignalError, match="trial leading coefficient"):
            even_l_infeasibility_probe(huge, alpha, 0.3)
    tiny = frog_measurements_time(1e-30 * z, params)
    with pytest.raises(ValueError, match="alpha 1e\\+300 overflows"):
        even_l_infeasibility_probe(tiny, 1e300, 0.3)


def test_probe_requires_its_rows():
    rng = np.random.default_rng(620)
    params = FrogParams(12, 2)
    meas = frog_measurements_time(_generic(12, rng), params, indices=[(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="missing"):
        even_l_infeasibility_probe(meas, 1.0, 0.0)
