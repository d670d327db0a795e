"""Measurement synthesis, geometry parameters, and index planning."""

import cmath
import fractions
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
    frog_measurements_freq,
    frog_measurements_time,
    make_analytic,
    plan_indices,
    random_analytic_signal,
    recover,
    translate,
)
from frogpr.frog import _pow_is_minus_one, _pow_is_one, expand_rows
from frogpr.selftest import _generic_even_signal
from oracles import direct_frog_grid, exp_grid_freq, exp_row_dw, scan_plan_rows

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
    p = FrogParams(16, 3)
    assert p.w_pow(0) == 1.0
    # Exponent reduction is integer-exact, so the period is exact too.
    assert p.w_pow(16) == 1.0
    assert p.w_pow(19) == p.w_pow(3)
    assert abs(p.w_pow(1) - np.exp(2j * np.pi * 3 / 16)) < 1e-15
    # When L divides N the phase factor is the r-th root of unity: i for r = 4.
    q = FrogParams(12, 3)
    assert abs(q.w_pow(1) - 1j) < 1e-15
    assert q.w_pow(5) == q.w_pow(1)


@pytest.mark.parametrize("n,l", [(12, 1), (16, 3), (20, 4), (64, 11), (256, 11)])
def test_w_pow_reads_the_read_only_unit_root_table(n, l):
    params = FrogParams(n, l)
    roots = params.unit_roots
    assert roots.shape == (n,) and roots is params.unit_roots
    for j in range(-n, 2 * n):
        wj = params.w_pow(j)
        assert wj == roots[(j * l) % n]
        # e^{2i pi jL/N}, its exponent reduced exactly, from the scalar libm.
        # The table keeps the bits the grid has always used: numpy divides
        # the complex argument by N through 1/N, which at (12, 1) puts an
        # entry 1.4e-15 from the true root (scalar division: 5e-16).
        assert abs(wj - cmath.exp(2j * cmath.pi * ((j * l) % n) / n)) < 2e-15
    assert not roots.flags.writeable
    with pytest.raises(ValueError):
        roots[0] = 0.0


@pytest.mark.parametrize("n,l", [(16, 3), (20, 4), (64, 11), (256, 11)])
def test_unit_root_gathers_match_direct_exp(n, l):
    # The synthesis and the row table read their unit roots off the table;
    # both are bitwise what evaluating each root by np.exp gives. A full
    # set's values, in (k, m) order, are its grid.
    params = FrogParams(n, l)
    s = dft(_generic_even_signal(n, np.random.default_rng(n + l)))
    assert frog_measurements_freq(s, params).values.tobytes() == exp_grid_freq(s, l).tobytes()
    rows = plan_indices(params).rows
    rows = rows[rows[:, 0] >= 1]
    assert expand_rows(params, rows).dw.tobytes() == exp_row_dw(rows, n, l).tobytes()


def _expansion_reference(params, rows):
    """mirror and dw of a plan's rows k >= 1 as first written: exponents reduced row by row."""
    n = params.N
    k, m = rows[rows[:, 0] >= 1].T
    step = (m * params.L % n)[:, None]
    l = np.arange(k[-1] + 1)
    mirror = k[:, None] - l
    dw = params.unit_roots[l * step % n] + params.unit_roots[mirror * step % n]
    dw /= n
    dw[mirror < 0] = 0.0
    mirror[mirror < 0] = 0
    return mirror.astype(np.int32), dw


@pytest.mark.parametrize(
    "n,l",
    [(12, 1), (16, 3), (20, 3), (20, 4), (32, 5), (64, 11), (100, 7), (128, 9), (256, 11), (512, 31), (1024, 31)],
)
def test_row_expansion_is_bytewise_the_direct_expression(n, l):
    # expand_rows reduces l m L mod N once per delay and reads the partner
    # term through negative indexing, and scales on the float64 view; the
    # bytes are those of the row-by-row expression.
    params = FrogParams(n, l)
    rows = plan_indices(params).rows
    mirror, dw = _expansion_reference(params, rows)
    expansion = expand_rows(params, rows)
    assert expansion.mirror.dtype == np.int32
    assert expansion.mirror.tobytes() == mirror.tobytes()
    assert expansion.dw.tobytes() == dw.tobytes()
    # The two k = 0 rows come first and are not expanded.
    assert len(rows) - len(dw) == 2
    k = rows[2:, 0]
    assert expansion.starts == tuple(np.searchsorted(k, np.arange(n // 2 + 2)).tolist())


def test_plan_keeps_one_read_only_row_expansion():
    plan = plan_indices(FrogParams(20, 3))
    expansion = plan.expansion
    assert plan.expansion is expansion
    # The rows are the plan's; the expansion holds only what they expand to.
    assert expansion._fields == ("starts", "mirror", "dw")
    for array in (expansion.mirror, expansion.dw):
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
    assert full.check_values() == max(full[key] for key in full.entries) == full.values.max()

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
    scale = a.check_values()
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
    # check does, reaches the values that recovery reads, in place.
    key = next(p for p in pairs if p[0] == 2 and p[1] > 0)
    before, rows, values = meas[key], meas.rows, meas.values
    meas.entries[key] *= 1.5
    assert meas.rows is rows and meas.values is values
    assert values[pairs.index(key)] == meas[key] == 1.5 * before
    with pytest.raises(InconsistentMeasurementsError):
        recover(meas)
    # Assignment keeps the constructor's checks and leaves the set as it was.
    values = values.copy()
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
        for i in plan.delays(2).tolist():
            assert abs(1.0 + params.w_pow(2 * i)) > 1e-9
            if i > 0:
                assert abs(params.w_pow(i) - 1.0) > 1e-9
        i3 = int(plan.delays(3)[1])
        assert abs(1.0 + params.w_pow(3 * i3)) > 1e-9
        assert abs(params.w_pow(i3) - 1.0) > 1e-9
        assert abs(params.w_pow(2 * i3) - 1.0) > 1e-9
        for k in range(4, n // 2 + 1):
            for i in plan.delays(k).tolist():
                assert abs(1.0 + params.w_pow(k * i)) > 1e-9
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
        (frog_measurements_freq, s, exp_grid_freq(s, l)),
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
