"""Measurement synthesis, geometry parameters, and index planning."""

import cmath
import fractions
import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frogpr import (
    FrogMeasurements,
    FrogParams,
    FrogprError,
    InconsistentMeasurementsError,
    UnsupportedGeometryError,
    dft,
    frog,
    frog_measurements_freq,
    frog_measurements_time,
    load_measurements,
    make_analytic,
    plan_indices,
    random_analytic_signal,
    recover,
    save_measurements,
    translate,
)
from frogpr.frog import _plan, _pow_is_minus_one, _pow_is_one
from frogpr.recovery import _expand
from frogpr.selftest import _generic_even_signal
from oracles import direct_frog_grid, exp_row_dw, fft_grid_freq, scan_plan_rows

# Frozen values of the worked four-sample example (inputs printed to four
# decimals; outputs computed exactly from them, pinned at full precision).
X4 = np.array([0.3252, -0.7549, 1.3703, -1.7115])
Y00 = 20.06076561727441
Y00_TRANSLATED = 17.93296315944882


def test_params_validation_and_derived_quantities():
    p = FrogParams(16, 3)
    assert p.r == 6  # ceil(16/3)
    assert FrogParams(12, 1).r == 12
    assert FrogParams(12, 12).r == 1
    with pytest.raises(ValueError):
        FrogParams(1, 1)
    with pytest.raises(ValueError):
        FrogParams(8, 0)
    with pytest.raises(ValueError):
        FrogParams(8, 9)


def test_params_refuse_non_integer_geometry():
    # A float or bool geometry used to be built (r = 6.0, or L = 1 from
    # True) and failed later, in the synthesis's indexing.
    cases = ((16.0, 3, "N"), (16, 3.0, "L"), (16, True, "L"), (np.True_, 3, "N"), ("16", 3, "N"))
    for n, l, field in cases:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            FrogParams(n, l)
    # Python and numpy integers stay accepted.
    assert FrogParams(np.int64(16), np.int32(3)).r == FrogParams(16, 3).r == 6


def test_params_phase_factor_is_exact():
    # The row table evaluates each power of w = e^{2i pi L/N} at its
    # exponent reduced exactly in integers: a whole turn is exactly 1, and
    # delays whose m L agree mod N give the same bits. At (12, 3), w = i.
    params = FrogParams(12, 3)
    rows = np.array([(1, 0), (4, 1), (8, 1), (8, 5)])
    _, _, dw = _expand(params, rows)
    # (w^0 + w^0) / N, and (w^{4m} + w^0) / N with 4 m L = 12 m.
    assert dw[0, 0] == dw[0, 1] == dw[1, 0] == dw[1, 4] == dw[2, 4] == 2 * (1 / 12)
    assert dw[2].tobytes() == dw[3].tobytes()  # 5 L = 15 = L mod 12
    # (w + w^3) / N = (i - i) / N and (w^2 + w^6) / N = -2 / N, to roundoff.
    assert abs(dw[1, 1]) < 1e-16 and abs(dw[2, 2] + 2 / 12) < 1e-16
    # The geometry holds no array, before or after the expansion.
    assert vars(params).keys() <= {"N", "L", "r"}


@pytest.mark.parametrize("n,l", [(12, 1), (16, 3), (20, 4), (64, 11), (256, 11)])
def test_params_are_geometry_and_the_row_table_reads_reduced_roots(n, l):
    # No root table lives on the geometry: synthesis, planning and the row
    # table leave only N, L and r on it. Each entry of the row table is
    # (w^{lm} + w^{(k-l)m}) / N, its exponents reduced exactly, within
    # roundoff of the scalar libm's roots (numpy divides the complex
    # argument by N through 1/N, which at (12, 1) puts a root 1.4e-15 from
    # the true one).
    params = FrogParams(n, l)
    z = _generic_even_signal(n, np.random.default_rng(n))
    frog_measurements_time(z, params)
    frog_measurements_freq(dft(z), params)
    rows = plan_indices(params).rows[2:]
    starts, mirror, dw = _expand(params, rows)
    assert vars(params).keys() == {"N", "L", "r"}
    for (k, m), row, partners in zip(rows.tolist(), dw.tolist(), mirror.tolist()):
        for j, entry in enumerate(row):
            if j > k:
                assert entry == 0 and partners[j] == 0
                continue
            assert partners[j] == k - j
            roots = [cmath.exp(2j * cmath.pi * (e * m * l % n) / n) for e in (j, k - j)]
            assert abs(entry - sum(roots) / n) < 4e-15 / n


@pytest.mark.parametrize("n,l", [(16, 3), (20, 4), (64, 11), (256, 11)])
def test_unit_root_gathers_match_direct_exp(n, l):
    # The row table evaluates only the roots its rows read and gathers
    # them by delay; its bytes are what evaluating each root by np.exp
    # gives. The spectrum's synthesis is the time-domain one of its idft.
    # A full set's values, in (k, m) order, are its grid.
    params = FrogParams(n, l)
    s = dft(_generic_even_signal(n, np.random.default_rng(n + l)))
    assert frog_measurements_freq(s, params).values.tobytes() == fft_grid_freq(s, l).tobytes()
    rows = plan_indices(params).rows
    rows = rows[rows[:, 0] >= 1]
    assert _expand(params, rows)[2].tobytes() == exp_row_dw(rows, n, l).tobytes()


@pytest.mark.parametrize(
    "n,l",
    [(12, 1), (16, 3), (20, 3), (20, 4), (32, 5), (64, 11), (100, 7), (128, 9), (256, 11), (512, 31), (1024, 31)],
)
def test_row_expansion_is_bytewise_the_direct_expression(n, l):
    # The recovery's _expand evaluates the roots of each delay once, gathers
    # them by (m, l) and by the partner (m, k - l), and scales on the
    # float64 view; the bytes are those of the row-by-row expression.
    params = FrogParams(n, l)
    rows = plan_indices(params).rows
    k = rows[2:, 0]
    mirror = np.maximum(np.subtract.outer(k, np.arange(k[-1] + 1)), 0).astype(np.int32)
    dw = exp_row_dw(rows[2:], n, l)
    starts, got_mirror, got_dw = _expand(params, rows)
    assert got_mirror.dtype == np.int32
    assert got_mirror.tobytes() == mirror.tobytes()
    assert got_dw.tobytes() == dw.tobytes()
    # The two k = 0 rows come first and are not expanded.
    assert len(rows) - len(dw) == 2
    assert starts == tuple(np.searchsorted(k, np.arange(n // 2 + 2)).tolist())


@pytest.mark.parametrize("n,l", [(2**40, 2), (2**62, 3), (2**62 + 2**61, 2**60 + 2)])
def test_row_expansion_reduces_huge_exponents_exactly(n, l):
    # Past N max k >= 2^63 the products l (m L mod N) leave int64; the row
    # table forms them in Python ints, as the planner does, and evaluates
    # the same roots as exponents reduced one by one.
    rows = np.array([(1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 5)])
    _, _, dw = _expand(FrogParams(n, l), rows)

    def root(e):
        return np.exp(2j * np.pi * np.int64(e % n) / n)

    for (k, m), row in zip(rows.tolist(), dw):
        step = m * l % n
        want = [(root(j * step) + root((k - j) * step)) / n for j in range(k + 1)]
        assert np.abs(row[: k + 1] - want).max() < 1e-16 / n, (k, m)
        assert not row[k + 1 :].any()


def test_a_plan_is_its_rows_and_their_expansion_is_read_only():
    # A plan holds its geometry and its rows, nothing the recovery derives
    # from them; the recovery's expansion of the rows is read-only.
    params = FrogParams(20, 3)
    plan = plan_indices(params)
    assert vars(plan).keys() == {"params", "rows"}
    _, mirror, dw = _expand(params, plan.rows)
    for array in (plan.rows, mirror, dw):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_params_recovery_violations():
    assert FrogParams(12, 1).recovery_violations() == []
    assert any("odd" in v for v in FrogParams(9, 1).recovery_violations())
    assert any("< 8" in v for v in FrogParams(6, 1).recovery_violations())
    assert any("even" in v for v in FrogParams(12, 2).recovery_violations())
    assert any("r=" in v for v in FrogParams(12, 5).recovery_violations())
    # N = 6L: every stage k = 3 mod 6 has two coincident circles.
    for n, l in ((18, 3), (30, 5), (42, 7), (54, 9), (66, 11)):
        assert [v for v in FrogParams(n, l).recovery_violations() if "6L" in v], (n, l)
    for n, l in ((14, 3), (16, 3), (20, 3), (64, 11)):
        assert FrogParams(n, l).recovery_violations() == [], (n, l)


def test_recovery_violations_are_the_plan_violations_then_l_and_6l():
    # The plan's domain is stated once: recovery's reasons are the plan's,
    # in the same order and words, followed by even L and then N = 6L.
    assert FrogParams(9, 1).plan_violations() == ["N=9 is odd (recovery handles even lengths)"]
    assert FrogParams(16, 2).plan_violations() == FrogParams(18, 3).plan_violations() == []
    for n, l in ((9, 2), (6, 2), (12, 4), (16, 4), (18, 3), (24, 4), (12, 1), (7, 7)):
        params = FrogParams(n, l)
        plan, recovery = params.plan_violations(), params.recovery_violations()
        assert recovery[: len(plan)] == plan, (n, l)
        rest = recovery[len(plan) :]
        assert len(rest) == (l % 2 == 0) + (n == 6 * l), (n, l)
        if l % 2 == 0:
            assert rest[0].startswith(f"L={l} is even"), (n, l)
        if n == 6 * l:
            assert rest[-1].startswith(f"N={n} = 6L"), (n, l)


def test_grid_matches_direct_summation():
    rng = np.random.default_rng(401)
    for n, l in ((4, 1), (5, 2), (8, 3), (9, 4), (12, 5)):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        grid = frog_measurements_time(z, FrogParams(n, l)).values.reshape(n, -1)
        ref = direct_frog_grid(z, l)
        assert grid.shape == ref.shape
        assert_allclose(grid, ref, rtol=0, atol=1e-10 * max(1.0, ref.max()))


def test_time_and_frequency_forms_agree():
    rng = np.random.default_rng(402)
    for n, l in ((8, 1), (12, 5), (16, 3), (20, 7), (15, 4)):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        params = FrogParams(n, l)
        gt = frog_measurements_time(z, params).values
        gf = frog_measurements_freq(dft(z), params).values
        assert_allclose(gf, gt, rtol=0, atol=1e-10 * max(1.0, gt.max()))


def test_worked_example_measurement_entries():
    params = FrogParams(4, 1)
    z = make_analytic(X4)
    grid = frog_measurements_time(z, params)
    assert_allclose(grid[0, 0], Y00, rtol=1e-12)
    moved = frog_measurements_time(translate(z, 2.0 / np.pi), params)
    assert_allclose(moved[0, 0], Y00_TRANSLATED, rtol=1e-12)
    # Both sit ~1e-3 from the published 4-decimal renderings (the reference
    # inputs are themselves rounded), which pins the conventions.
    assert abs(grid[0, 0] - 20.0614) < 1.1e-3
    assert abs(moved[0, 0] - 17.9335) < 1.1e-3


def test_measurement_collection_full_and_subset():
    rng = np.random.default_rng(403)
    params = FrogParams(12, 5)
    z = random_analytic_signal(12, rng)
    full = frog_measurements_time(z, params)
    assert full.is_full_grid()
    assert len(full.entries) == params.N * params.r
    assert max(full[key] for key in full.entries) == full.values.max()

    some = [(0, 0), (1, 1), (5, 2)]
    sub = frog_measurements_time(z, params, indices=some)
    assert sorted(sub.entries) == sorted(some)
    assert not sub.is_full_grid()
    assert sub[5, 2] == full[5, 2]
    with pytest.raises(ValueError):
        frog_measurements_time(z, params, indices=[(0, 0), (99, 0)])


def test_measurements_from_spectrum_match_time_domain():
    rng = np.random.default_rng(404)
    z = random_analytic_signal(16, rng)
    params = FrogParams(16, 3)
    a = frog_measurements_time(z, params)
    b = frog_measurements_freq(dft(z), params)
    assert a.entries.keys() == b.entries.keys()
    scale = a.values.max()
    for key, val in a.entries.items():
        assert abs(val - b.entries[key]) < 1e-10 * scale


def test_measurements_validate_entries():
    params = FrogParams(8, 3)
    with pytest.raises(ValueError):
        FrogMeasurements(params, {(8, 0): 1.0})  # k out of range
    with pytest.raises(ValueError):
        FrogMeasurements(params, {(0, 3): 1.0})  # m out of range (r = 3)
    with pytest.raises(ValueError):
        FrogMeasurements(params, {(0, 0): -1.0})
    with pytest.raises(ValueError):
        FrogMeasurements(params, {(0, 0): float("nan")})
    # Index keys must be integers: a float or a bool is refused, not left
    # for numpy to trip over when the entries are read.
    for bad in ((1.5, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError, match="not a pair of integers"):
            FrogMeasurements(params, {bad: 1.0})
    assert FrogMeasurements(params, {(np.int64(1), np.int32(0)): 1.0})[1, 0] == 1.0
    # Synthesis checks the requested indices before it reads the grid.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(135))
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        for bad in ((-1, 0), (99, 0), (1, 6)):
            with pytest.raises(ValueError, match=r"outside grid 16x6"):
                synthesize(x, params, [(0, 0), bad])
        # Non-pairs, non-integers and non-numbers are refused, and a bool is
        # not read as 0 or 1.
        for bad in (
            5, (1, 2, 3), (1.5, 0), (1, 0.5), ("1", 0), (None, 0), (1, None), (True, 0),
            (1, np.False_),
        ):
            with pytest.raises(ValueError, match="not a pair of integers"):
                synthesize(x, params, [(0, 0), bad])


def test_measurements_write_through_the_mapping():
    params = FrogParams(16, 3)
    z = _generic_even_signal(16, np.random.default_rng(136))
    pairs = plan_indices(params).pairs()
    meas = frog_measurements_time(z, params, pairs)
    assert recover(meas).verification_residual < 1e-9
    # A value planted through `entries`, as the benchmark's corrupted-entry
    # check does, reaches the values that recovery reads. The set is rebuilt
    # with new arrays: arrays a reader already holds keep their values.
    key = next(p for p in pairs if p[0] == 2 and p[1] > 0)
    before, rows, values = meas[key], meas.rows, meas.values
    held = values.copy()
    meas.entries[key] *= 1.5
    assert meas.rows is not rows and meas.values is not values
    assert values.tobytes() == held.tobytes()
    np.testing.assert_array_equal(meas.rows, rows)
    assert meas.values[pairs.index(key)] == meas[key] == 1.5 * before
    assert list(meas) == pairs
    with pytest.raises(InconsistentMeasurementsError):
        recover(meas)
    # Assignment keeps the constructor's checks and leaves the set as it was.
    rows, values = meas.rows, meas.values.copy()
    for key, value, message in (
        ((1.5, 0), 1.0, "not a pair of integers"),
        ((True, 0), 1.0, "not a pair of integers"),
        ((16, 0), 1.0, "outside grid 16x6"),
        ((0, -1), 1.0, "outside grid 16x6"),
        ((0, 0), -1.0, "invalid value"),
        ((0, 0), float("inf"), "invalid value"),
        # Every value that is not a real number gets the same ValueError,
        # not a TypeError or numpy's ambiguous truth value.
        ((0, 0), "1.0", "invalid value"),
        ((0, 0), None, "invalid value"),
        ((0, 0), 1.0 + 0.0j, "invalid value"),
        ((0, 0), np.array([1.0, 2.0]), "invalid value"),
    ):
        with pytest.raises(ValueError, match=message):
            meas[key] = value
    assert meas.rows is rows
    np.testing.assert_array_equal(meas.values, values)
    # A new pair is inserted in (k, m) order.
    meas[15, 4] = fractions.Fraction(1, 4)
    assert list(meas) == sorted([*pairs, (15, 4)]) and meas[15, 4] == 0.25
    assert meas.values.dtype == np.float64
    assert not meas.rows.flags.writeable and meas.values.size == len(pairs) + 1
    empty = frog_measurements_time(z, params, [])
    assert len(empty) == 0 and list(empty) == [] and empty.rows.shape == (0, 2)
    # Membership treats a pair off the integer grid as absent.
    assert (0, 0) in meas and (15, 5) not in meas
    for key in ((1.5, 0), (True, 0), (-1, 0), (16, 0), (10**400, 0), (0, 2**63), 5, "ab"):
        assert key not in meas
    with pytest.raises(KeyError):
        meas[1.5, 0]


@pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
def test_every_construction_path_makes_a_read_only_set_of_checked_values(bad, tmp_path, monkeypatch):
    # A set's values are checked once, where it is built, and its arrays are
    # read-only, so no reader meets a value that was not checked: each path
    # refuses a value that is negative, infinite or NaN by name.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(144))
    pairs = plan_indices(params).pairs()
    synthesized = frog_measurements_time(z, params, pairs)
    entries = dict(synthesized)
    path = tmp_path / "meas.json"
    save_measurements(path, synthesized)
    assigned = FrogMeasurements(params, entries)
    assigned[5, 0] = 0.5
    for meas in (
        FrogMeasurements(params, entries),
        synthesized,
        frog_measurements_freq(dft(z), params, pairs),
        load_measurements(path),
        assigned,
    ):
        for array in (meas.rows, meas.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
    message = rf"^entry \(5, 0\) has invalid value {bad!r}$"
    with pytest.raises(ValueError, match=message):
        FrogMeasurements(params, {**entries, (5, 0): bad})
    values = assigned.values
    with pytest.raises(ValueError, match=message):
        assigned[5, 0] = bad
    assert assigned.values is values and assigned[5, 0] == 0.5
    doc = json.loads(path.read_text())
    next(entry for entry in doc["entries"] if entry[:2] == [5, 0])[2] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_measurements(path)

    def planting(rows_of):
        def planted(x, params, r):
            grid = rows_of(x, params, r)
            grid[5, 0] = bad
            return grid

        return planted

    # Both syntheses take the time-domain rows, of z and of the spectrum's idft.
    monkeypatch.setattr(frog, "_time_rows", planting(frog._time_rows))
    with pytest.raises(ValueError, match=message):
        frog_measurements_time(z, params, pairs)
    with pytest.raises(ValueError, match=message):
        frog_measurements_freq(dft(z), params, pairs)


def test_lookup_agrees_with_membership_on_odd_keys():
    # One index rule: a key that assignment and synthesis take is found by
    # lookup unless it was not measured, and a key they refuse, with one
    # message, is absent.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(137))
    full = frog_measurements_time(z, params)
    grid = full.values.reshape(16, 6)
    gap = (4, 2)
    meas = FrogMeasurements(params, {key: value for key, value in full.items() if key != gap})
    pair, outside = "not a pair of integers", "outside grid 16x6"
    keys = (
        ([2, 1], None),
        (np.array([2, 1]), None),
        (np.array([15, 5], dtype=np.int32), None),
        ((np.int64(2), np.int32(1)), None),
        ((np.uint8(0), 0), None),
        ([np.int16(3), 4], None),
        (gap, None),
        (list(gap), None),
        ((True, 0), pair),
        ([0, False], pair),
        ((np.True_, 1), pair),
        ((1.0, 0), pair),
        ((2.0, 1), pair),
        ([2, 1.0], pair),
        (np.array([2.0, 1.0]), pair),
        (np.array([2, 1, 0]), pair),
        (np.array([[2, 1]]), pair),
        (np.array([[2.0, 1.0]]), pair),
        ([2], pair),
        (5, pair),
        ("ab", pair),
        (None, pair),
        ((-1, 0), outside),
        ([0, -1], outside),
        (np.array([-1, -1]), outside),
        ((16, 0), outside),
        ([0, 6], outside),
        (np.array([99, 0]), outside),
        ((10**400, 0), outside),
        ((0, 2**63), outside),
    )
    written = FrogMeasurements(params)
    for key, message in keys:
        if message is None:
            k, m = int(key[0]), int(key[1])
            if (k, m) == gap:
                assert key not in meas
                with pytest.raises(KeyError):
                    meas[key]
            else:
                assert key in meas
                assert meas[key] == grid[k, m]
                assert type(meas[key]) is float
            written[key] = 1.0
            assert written[k, m] == 1.0
            assert frog_measurements_time(z, params, [key])[k, m] == grid[k, m]
            continue
        assert key not in meas
        with pytest.raises(KeyError):
            meas[key]
        with pytest.raises(ValueError, match=message):
            written[key] = 1.0
        with pytest.raises(ValueError, match=message):
            frog_measurements_time(z, params, [(0, 0), key])
    # Nothing refused was written: only the five distinct pairs above.
    assert sorted(written) == [(0, 0), (2, 1), (3, 4), (4, 2), (15, 5)]


def test_an_exact_int_pair_is_looked_up_without_the_pair_check(monkeypatch):
    # meas[k, m] with a tuple of two exact ints goes straight to the search,
    # without _grid_index; a pair off the grid is absent, also one whose
    # rank k r + m is a measured pair's. Any other key still goes through
    # _grid_index, and assignment refuses an off-grid pair with its message.
    params = FrogParams(16, 3)  # r = 6
    meas = FrogMeasurements(params, {(0, 0): 1.0, (2, 0): 2.0, (3, 5): 3.0})
    checked = []
    grid_index = frog._grid_index

    def counted(key, shape):
        checked.append(key)
        return grid_index(key, shape)

    monkeypatch.setattr(frog, "_grid_index", counted)
    assert meas[2, 0] == 2.0 and meas[3, 5] == 3.0 and (0, 0) in meas
    # (1, 6), (0, 12) and (-1, 18) have the rank of (2, 0); (4, -1) that of (3, 5).
    for key in ((1, 6), (0, 12), (-1, 18), (4, -1), (16, 0), (10**400, 0), (0, 2**63), (1, 0)):
        assert key not in meas
        with pytest.raises(KeyError):
            meas[key]
    assert checked == []
    for key, value in (((np.int64(2), 0), 2.0), ([3, np.int8(5)], 3.0)):
        assert meas[key] == value
    for key in ((True, 0), (2.0, 0), (2, 0, 0), 12):
        with pytest.raises(KeyError):
            meas[key]
    assert len(checked) == 6
    for key in ((1, 6), (-1, 18)):
        with pytest.raises(ValueError, match="outside grid 16x6"):
            meas[key] = 1.0


def test_a_set_cannot_be_rebound():
    # params, rows and values are read-only properties: rebinding one would
    # bypass the value check and leave lookup's search list stale.
    params = FrogParams(16, 3)
    meas = FrogMeasurements(params, {(0, 0): 1.0, (2, 1): 2.0})
    assert meas[0, 0] == 1.0
    for name, value in (
        ("values", np.array([np.nan, -1.0])),
        ("rows", np.array([[1, 0], [3, 1]])),
        ("params", FrogParams(16, 5)),
    ):
        with pytest.raises(AttributeError):
            setattr(meas, name, value)
    assert meas[0, 0] == 1.0 and (1, 0) not in meas and list(meas) == [(0, 0), (2, 1)]
    assert meas.values.tolist() == [1.0, 2.0] and meas.params is params


def test_synthesis_reads_plan_rows_as_pairs():
    params = FrogParams(64, 11)
    z = random_analytic_signal(64, np.random.default_rng(138))
    plan = plan_indices(params)
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        from_rows = synthesize(x, params, plan.rows)
        from_pairs = synthesize(x, params, plan.pairs())
        assert list(from_rows) == plan.pairs()
        assert from_rows.rows.tobytes() == from_pairs.rows.tobytes() == plan.rows.tobytes()
        assert from_rows.values.tobytes() == from_pairs.values.tobytes()


def test_synthesis_refuses_overflow_without_warning():
    # The squared magnitudes of a signal this large overflow; synthesis
    # refuses them, and numpy's overflow warning is not raised first.
    params = FrogParams(16, 3)
    z = 1e77 * random_analytic_signal(16, np.random.default_rng(139))
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        for indices in (None, plan_indices(params).rows):
            with pytest.raises(ValueError, match="has invalid value inf"):
                synthesize(x, params, indices)


def test_synthesis_names_the_first_overflowing_entry():
    # Scaled so that only the largest entries overflow: the one named is the
    # first of them in (k, m) order for the full grid, and in their own
    # order for indices. Each entry synthesized alone says whether it does.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(143))
    z = z * (1e308 / frog_measurements_time(z, params).values.max()) ** 0.25 * 1.2
    over = []
    for key in np.ndindex(params.N, params.r):
        try:
            frog_measurements_time(z, params, [key])
        except ValueError as exc:
            assert str(exc) == f"entry {key} has invalid value inf"
            over.append(list(key))
    assert 1 <= len(over) < params.N * params.r // 2
    for indices, (k, m) in ((None, over[0]), ([(0, 0), *over[::-1]], over[-1])):
        with pytest.raises(ValueError, match=rf"^entry \({k}, {m}\) has invalid value inf$"):
            frog_measurements_time(z, params, indices)


def test_grid_rejects_length_mismatch():
    with pytest.raises(ValueError, match="signal length 6 != params.N 8"):
        frog_measurements_time(np.ones(6), FrogParams(8, 1))
    with pytest.raises(ValueError, match="spectrum length 6 != params.N 8"):
        frog_measurements_freq(np.ones(6), FrogParams(8, 1))


def test_constraint_checks_match_numeric_predicates():
    # _pow_is_one / _pow_is_minus_one decide w^p = +-1 for w = e^{2i pi m/r}
    # by integer congruences; they must agree with the numeric roots.
    for r in range(1, 25):
        for m in range(r):
            for p in (1, 2, 3):
                wp = np.exp(2j * np.pi * ((p * m) % r) / r)
                assert _pow_is_one(m, r, p) == (abs(wp - 1.0) < 1e-9)
                assert _pow_is_minus_one(m, r, p) == (abs(wp + 1.0) < 1e-9)


def test_plan_has_expected_cardinality_and_shape():
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    pairs = plan.pairs()
    assert len(plan.rows) == 3 * 16 // 2 + 1 == 25
    assert len(pairs) == len(set(pairs)) == 25
    assert pairs == sorted(pairs)
    for base_pair in ((0, 0), (0, 1), (1, 0), (3, 0)):
        assert base_pair in pairs
    i2 = plan.delays(2).tolist()
    assert i2[0] == 0
    assert i2 == sorted(set(i2))
    assert sorted({k for k, _ in pairs if k >= 4}) == list(range(4, 9))
    for k in range(4, 9):
        assert plan.delays(k)[0] == 0
    # One read-only array; pairs() hands out Python ints.
    assert plan.rows.shape == (25, 2) and not plan.rows.flags.writeable
    with pytest.raises(ValueError):
        plan.rows[0, 0] = 1
    assert all(type(k) is int and type(m) is int for k, m in pairs)


# The plans of two geometries, written out. At (16, 3) row k = 2 skips
# delay 4 (w^8 = -1), row k = 4 the conjugate pair (1, 3), and row k = 8
# takes the conjugate fallback (0, 2, 4); at (64, 11) row k = 16 skips the
# conjugate pair (1, 3) and row k = 32 takes the fallback (0, 2, 4).
GOLDEN_PLANS = {
    (16, 3): [
        (0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 5), (3, 0),
        (3, 1), (4, 0), (4, 1), (4, 4), (5, 0), (5, 1), (5, 2), (6, 0), (6, 1),
        (6, 2), (7, 0), (7, 1), (7, 2), (8, 0), (8, 2), (8, 4),
    ],
    (64, 11): [(0, 0), (0, 1), (1, 0)]
    + [(2, m) for m in range(5)]
    + [(3, 0), (3, 1)]
    + [
        (k, m)
        for k in range(4, 33)
        for m in {16: (0, 1, 4), 32: (0, 2, 4)}.get(k, (0, 1, 2))
    ],
}


@pytest.mark.parametrize("n,l", sorted(GOLDEN_PLANS))
def test_plan_indices_golden(n, l):
    plan = plan_indices(FrogParams(n, l))
    assert plan.pairs() == GOLDEN_PLANS[n, l]
    assert plan.rows.tolist() == [list(p) for p in GOLDEN_PLANS[n, l]]


def test_plan_indices_satisfy_admissibility():
    for n, l in ((12, 1), (16, 3), (20, 3), (32, 5), (64, 11), (12, 2), (24, 4)):
        params = FrogParams(n, l)
        plan = plan_indices(params)

        def w(j):
            """w^j = e^{2i pi jL/N}, its exponent reduced exactly."""
            return cmath.exp(2j * cmath.pi * (j * l % n) / n)

        for i in plan.delays(2).tolist():
            assert abs(1.0 + w(2 * i)) > 1e-9
            if i > 0:
                assert abs(w(i) - 1.0) > 1e-9
        i3 = int(plan.delays(3)[1])
        assert abs(1.0 + w(3 * i3)) > 1e-9
        assert abs(w(i3) - 1.0) > 1e-9
        assert abs(w(2 * i3) - 1.0) > 1e-9
        for k in range(4, n // 2 + 1):
            for i in plan.delays(k).tolist():
                assert abs(1.0 + w(k * i)) > 1e-9
        assert len(plan.rows) == 3 * n // 2 + 1


def test_plan_indices_is_deterministic():
    a = plan_indices(FrogParams(20, 3))
    b = plan_indices(FrogParams(20, 3))
    assert np.array_equal(a.rows, b.rows)


def test_plan_indices_rejects_out_of_domain_geometry():
    # The refusal lists FrogParams.plan_violations and is a FrogprError that
    # callers catching ValueError still catch.
    odd = "N=9 is odd (recovery handles even lengths)"
    r3 = "r=ceil(N/L)=3 < 5 (too few delay steps to plan)"
    for n, l, reasons in (
        (15, 1, ["N=15 is odd (recovery handles even lengths)"]),
        (6, 1, ["N=6 < 8 (need N/2 >= 4 solver stages)"]),
        (16, 4, ["r=ceil(N/L)=4 < 5 (too few delay steps to plan)"]),
        (9, 3, [odd, r3]),
    ):
        with pytest.raises(UnsupportedGeometryError) as info:
            plan_indices(FrogParams(n, l))
        assert str(info.value) == "; ".join(reasons)
        assert isinstance(info.value, FrogprError) and isinstance(info.value, ValueError)


def test_plan_rows_match_the_delay_scan_at_every_small_geometry():
    # Every even N from 8 to 256 and every stride: the array-built plan is
    # the scan's, and a geometry with r < 5 is refused with its reason.
    for n in range(8, 257, 2):
        for l in range(1, n + 1):
            params = FrogParams(n, l)
            if params.r < 5:
                with pytest.raises(UnsupportedGeometryError, match=rf"^r=ceil\(N/L\)={params.r} < 5 "):
                    plan_indices(params)
                continue
            rows = plan_indices(params).rows
            assert rows.dtype == np.int64 and not rows.flags.writeable
            assert np.array_equal(rows, scan_plan_rows(params, n // 2)), (n, l)


@pytest.mark.parametrize("n,l", [(512, 31), (1024, 31), (1024, 32), (2048, 31)])
def test_plan_rows_match_the_delay_scan_at_large_geometries(n, l):
    params = FrogParams(n, l)
    assert np.array_equal(plan_indices(params).rows, scan_plan_rows(params, n // 2))


@pytest.mark.parametrize(
    "n,l",
    [
        (2864162437687989112, 358020304710998639),
        (3572207652575618872, 446525956571952359),
        (2**62, 1),
        (2**63 - 2, 1),
        (2**63 - 2, 1844674407370955161),
    ],
)
def test_plan_rows_match_an_exact_scan_where_their_congruences_pass_int64(n, l):
    # The planner's products reach N^2: past 2^63 they are Python ints, so
    # the plan is exact (int64 planned (4, 5) and (8, 3) at the first
    # geometry, row 6's delay 3 at the second, and raised OverflowError from
    # N = 2^62 on). The scan covers delays 1..64, the planner's 1..5.
    params = FrogParams(n, l)
    assert np.array_equal(_plan(params, 8).rows, scan_plan_rows(params, 8, delays=64))


def test_plan_row_skips_a_conjugate_pair_and_falls_back_when_all_are():
    # (12, 1), k = 4: delays 1 and 2 are conjugate (w^{4 * 3} = 1), so the
    # row takes the later pair (1, 3).
    params = FrogParams(12, 1)
    assert _pow_is_one(1 + 2, 12, 4) and not _pow_is_one(1 + 3, 12, 4)
    assert plan_indices(params).delays(4).tolist() == [0, 1, 3]
    assert np.array_equal(plan_indices(params).rows, scan_plan_rows(params, 6))
    # (8, 1), k = 4: the admissible delays are 2, 4 and 6 and every pair of
    # them is conjugate, so the row falls back to the smallest pair.
    params = FrogParams(8, 1)
    admissible = [m for m in range(1, 8) if not _pow_is_minus_one(m, 8, 4)]
    assert admissible == [2, 4, 6]
    assert all(_pow_is_one(a + b, 8, 4) for a in admissible for b in admissible)
    assert plan_indices(params).delays(4).tolist() == [0, 2, 4]
    assert np.array_equal(plan_indices(params).rows, scan_plan_rows(params, 4))


def test_synthesis_refuses_bad_indices_in_lists_and_arrays():
    # The array tests of a list of int pairs and of an integer array refuse
    # what the pair-by-pair check refuses, with its message for the first
    # refused pair.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(140))
    pair, outside = "not a pair of integers", "outside grid 16x6"
    cases = (
        ([(0, 0), (True, 0), (99, 0)], re.escape("entry index (True, 0) is ") + pair),
        ([[0, 0], [0, 1.0]], re.escape("entry index (0, 1.0) is ") + pair),
        ([(0, 0), (-1, 0)], re.escape("entry index (-1, 0) ") + outside),
        ([[0, 0], [16, 0], [1.5, 0]], re.escape("entry index (16, 0) ") + outside),
        ([(0, 0), (0, 6)], re.escape("entry index (0, 6) ") + outside),
        ([(0, 0), (10**400, 0)], outside),
        (np.array([[0, 0], [1, 0]], dtype=bool), re.escape("entry index (False, False) is ") + pair),
        (np.array([[0, 0], [1.0, 0]]), re.escape("entry index (0.0, 0.0) is ") + pair),
        (np.array([[0, 0], [-1, 0], [99, 0]]), re.escape("entry index (-1, 0) ") + outside),
        (np.array([[0, 0], [16, 0]], dtype=np.uint8), re.escape("entry index (16, 0) ") + outside),
        (np.array([[0, 0], [1, 6]], dtype=np.int32), re.escape("entry index (1, 6) ") + outside),
        (np.array([[0, 0], [2**64 - 1, 0]], dtype=np.uint64), outside),
        (np.array([[0, 0, 0]]), pair),
    )
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        for indices, message in cases:
            with pytest.raises(ValueError, match=message):
                synthesize(x, params, indices)
        # Accepted forms give the same entries.
        full = synthesize(x, params)
        for indices in (
            [(0, 0), (15, 5)], [[0, 0], [15, 5]], np.array([[0, 0], [15, 5]], dtype=np.uint8),
            np.array([[0, 0], [15, 5]], dtype=np.int32), ((0, 0), (15, 5)),
            np.array([[15, 5], [0, 0]], dtype=np.uint64),
        ):
            meas = synthesize(x, params, indices)
            assert list(meas) == [(0, 0), (15, 5)]
            assert meas[15, 5] == full[15, 5]


@pytest.mark.parametrize("n,l", [(12, 1), (20, 3), (64, 11), (256, 11)])
def test_a_list_of_pairs_synthesizes_the_bytes_of_the_array_form(n, l):
    # A list or tuple of int pairs becomes one array after passes over its
    # columns; the set it gives has the bytes of the set of the plan's rows,
    # in any order and with lists or tuples as pairs.
    params = FrogParams(n, l)
    z = random_analytic_signal(n, np.random.default_rng(148 + n))
    rows = plan_indices(params).rows
    pairs = rows.tolist()
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        want = synthesize(x, params, rows)
        for indices in (
            pairs,
            [tuple(pair) for pair in pairs],
            tuple(map(tuple, pairs)),
            pairs[::-1],
            [*map(tuple, pairs[::2]), *pairs[1::2]],
        ):
            got = synthesize(x, params, indices)
            assert got.rows.tobytes() == want.rows.tobytes()
            assert got.values.tobytes() == want.values.tobytes()


def test_a_list_of_pairs_is_accepted_or_refused_as_pair_by_pair():
    # The passes over a list's columns take only lists or tuples of two
    # exact ints on the grid; anything else is walked pair by pair, which
    # accepts numpy integers and refuses the first bad pair by name.
    params = FrogParams(16, 3)
    z = random_analytic_signal(16, np.random.default_rng(147))
    pair, outside = "is not a pair of integers", "outside grid 16x6"
    refused = (
        ([(0, 0), (True, 1)], f"entry index (True, 1) {pair}"),
        ([(0, 0), [1, False]], f"entry index (1, False) {pair}"),
        ([(0, 0), (np.True_, 1)], f"entry index ({np.True_!r}, 1) {pair}"),
        ([(0, 0), (2, 1.0)], f"entry index (2, 1.0) {pair}"),
        ([(0, 0), (2**70, 1)], f"entry index (1180591620717411303424, 1) {outside}"),
        ([(0, 0), (1, -(2**70))], f"entry index (1, -1180591620717411303424) {outside}"),
        ([(0, 0), (16, 0)], f"entry index (16, 0) {outside}"),
        ([(3, 1), (0, 6)], f"entry index (0, 6) {outside}"),
        ([(3, 1), (-1, 0)], f"entry index (-1, 0) {outside}"),
        ([(0, 0), (1, 2, 3)], f"entry index (1, 2, 3) {pair}"),
        ([(0, 0), (1,)], f"entry index (1,) {pair}"),
        ([(0, 0), 5], f"entry index 5 {pair}"),
        ([(0, 0), "ab"], f"entry index ('a', 'b') {pair}"),
        ([(0, 0), None], f"entry index None {pair}"),
        ((3, 4), f"entry index 3 {pair}"),
    )
    accepted = (
        ([(0, 0), (np.int64(2), 1)], [[0, 0], [2, 1]]),
        ([(np.int32(3), np.uint8(4)), (0, 0)], [[0, 0], [3, 4]]),
        ([np.array([2, 1]), (0, 0)], [[0, 0], [2, 1]]),
        ([(2, 1), (2, 1), (0, 0)], [[0, 0], [2, 1]]),
        (((15, 5), [0, 0]), [[0, 0], [15, 5]]),
        ([], []),
        ((), []),
    )
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        for indices, message in refused:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                synthesize(x, params, indices)
        for indices, rows in accepted:
            meas = synthesize(x, params, indices)
            want = synthesize(x, params, np.array(rows, np.int64).reshape(-1, 2))
            assert meas.rows.tolist() == rows
            assert meas.values.tobytes() == want.values.tobytes()


def _index_sets(params):
    """Index sets of one geometry: the plan's rows (or, when it has no plan,
    a few small delays), the full grid (None), the plan with a large
    off-plan delay, and a large delay alone."""
    n, r = params.N, params.r
    try:
        rows = plan_indices(params).rows
    except ValueError:
        rows = np.array([[0, 0], [1, 0], [n - 1, min(1, r - 1)]])
    return [rows, None, np.concatenate([rows, [[n - 1, r - 1], [1, r // 2]]]), [(3 % n, r - 1)]]


@pytest.mark.parametrize(
    "n,l",
    [(8, 1), (9, 2), (12, 1), (15, 4), (16, 3), (20, 4), (64, 11), (256, 11), (1024, 1), (1024, 31)],
)
def test_synthesized_entries_are_bytewise_the_full_grids(n, l):
    # Synthesis computes only the delays up to the largest requested one;
    # it keeps the requested pairs, sorted by (k, m), each with the bytes of
    # the full grid's entry, and no other.
    params = FrogParams(n, l)
    z = random_analytic_signal(n, np.random.default_rng(141 + n))
    s = dft(z)
    for synthesize, x, full in (
        (frog_measurements_time, z, frog_measurements_time(z, params).values.reshape(n, -1)),
        (frog_measurements_freq, s, fft_grid_freq(s, l)),
    ):
        for indices in _index_sets(params):
            if indices is None:
                rows = np.argwhere(np.ones(full.shape, bool))
            else:
                rows = np.unique(np.asarray(indices), axis=0)
            meas = synthesize(x, params, indices)
            assert meas.rows.tobytes() == rows.astype(np.int64).tobytes()
            assert meas.values.tobytes() == full[tuple(rows.T)].tobytes()


def test_planned_synthesis_at_4096_computes_only_the_planned_delays():
    # The plan of (4096, 1) reads delays 0..5 of a 4096-delay grid, and the
    # set keeps its 6,145 entries only: nothing of the grid's 16.8 M entries
    # is allocated (the whole grid would take several hundred MB).
    params = FrogParams(4096, 1)
    rows = plan_indices(params).rows
    z = random_analytic_signal(4096, np.random.default_rng(142))
    for synthesize, x in ((frog_measurements_time, z), (frog_measurements_freq, dft(z))):
        tracemalloc.start()
        try:
            meas = synthesize(x, params, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(meas) == 6145
        assert peak < 5e6, peak
        del meas


def test_a_full_set_retains_its_rows_and_values_only():
    # A full (1024, 31) set of 34,816 entries holds rows, 557 kB, and values,
    # 279 kB; a stored array of their ranks took another 279 kB.
    params = FrogParams(1024, 31)
    z = random_analytic_signal(1024, np.random.default_rng(143))
    tracemalloc.start()
    try:
        meas = frog_measurements_time(z, params)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(meas) == 34816
    assert retained <= 0.9e6, retained
