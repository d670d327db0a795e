"""Measurement synthesis, geometry parameters, and index planning."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frogpr import (
    FrogMeasurements,
    FrogParams,
    dft,
    frog_grid_freq,
    frog_grid_time,
    frog_measurements_freq,
    frog_measurements_time,
    make_analytic,
    plan_indices,
    random_analytic_signal,
    root_of_unity,
    translate,
)
from frogpr.frog import _pow_is_minus_one, _pow_is_one
from oracles import direct_frog_grid

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


def test_params_phase_factor_is_exact():
    p = FrogParams(16, 3)
    assert p.w_pow(0) == 1.0
    # Exponent reduction is integer-exact, so the period is exact too.
    assert p.w_pow(16) == 1.0
    assert p.w_pow(19) == p.w_pow(3)
    assert abs(p.w - np.exp(2j * np.pi * 3 / 16)) < 1e-15
    # When L divides N the phase factor is the r-th root of unity.
    q = FrogParams(12, 3)
    assert q.w_pow(1) == root_of_unity(q.r, 1)
    assert q.w_pow(5) == root_of_unity(q.r, 5)


def test_params_recovery_violations():
    assert FrogParams(12, 1).recovery_violations() == []
    assert any("odd" in v for v in FrogParams(9, 1).recovery_violations())
    assert any("< 8" in v for v in FrogParams(6, 1).recovery_violations())
    assert any("even" in v for v in FrogParams(12, 2).recovery_violations())
    assert any("r=" in v for v in FrogParams(12, 5).recovery_violations())


def test_grid_matches_direct_summation():
    rng = np.random.default_rng(401)
    for n, l in ((4, 1), (5, 2), (8, 3), (9, 4), (12, 5)):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        grid = frog_grid_time(z, FrogParams(n, l))
        ref = direct_frog_grid(z, l)
        assert grid.shape == ref.shape
        assert_allclose(grid, ref, rtol=0, atol=1e-10 * max(1.0, ref.max()))


def test_time_and_frequency_forms_agree():
    rng = np.random.default_rng(402)
    for n, l in ((8, 1), (12, 5), (16, 3), (20, 7), (15, 4)):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        params = FrogParams(n, l)
        gt = frog_grid_time(z, params)
        gf = frog_grid_freq(dft(z), params)
        assert_allclose(gf, gt, rtol=0, atol=1e-10 * max(1.0, gt.max()))


def test_worked_example_measurement_entries():
    params = FrogParams(4, 1)
    z = make_analytic(X4)
    grid = frog_grid_time(z, params)
    assert_allclose(grid[0, 0], Y00, rtol=1e-12)
    moved = frog_grid_time(translate(z, 2.0 / np.pi), params)
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
    assert_allclose(full.as_grid(), frog_grid_time(z, params), rtol=1e-14)
    assert full.max_value() == max(full.entries.values())

    some = [(0, 0), (1, 1), (5, 2)]
    sub = frog_measurements_time(z, params, indices=some)
    assert sorted(sub.entries) == sorted(some)
    assert not sub.is_full_grid()
    assert sub.value(5, 2) == full.value(5, 2)
    assert_allclose(sub.magnitude(5, 2), np.sqrt(full.value(5, 2)), rtol=1e-15)
    with pytest.raises(ValueError):
        sub.as_grid()
    with pytest.raises(ValueError):
        full.subset([(0, 0), (99, 0)])


def test_measurements_from_spectrum_match_time_domain():
    rng = np.random.default_rng(404)
    z = random_analytic_signal(16, rng)
    params = FrogParams(16, 3)
    a = frog_measurements_time(z, params)
    b = frog_measurements_freq(dft(z), params)
    assert a.entries.keys() == b.entries.keys()
    scale = a.max_value()
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


def test_grid_rejects_length_mismatch():
    with pytest.raises(ValueError):
        frog_grid_time(np.ones(6), FrogParams(8, 1))
    with pytest.raises(ValueError):
        frog_grid_freq(np.ones(6), FrogParams(8, 1))


def test_constraint_checks_match_numeric_predicates():
    # _pow_is_one / _pow_is_minus_one decide w^p = +-1 for w = e^{2i pi m/r}
    # by integer congruences; they must agree with the numeric roots.
    for r in range(1, 25):
        for m in range(r):
            for p in (1, 2, 3):
                wp = root_of_unity(r, p * m)
                assert _pow_is_one(m, r, p) == (abs(wp - 1.0) < 1e-9)
                assert _pow_is_minus_one(m, r, p) == (abs(wp + 1.0) < 1e-9)


def test_plan_has_expected_cardinality_and_shape():
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    pairs = plan.pairs()
    assert plan.measurement_count == 3 * 16 // 2 + 1 == 25
    assert len(pairs) == len(set(pairs)) == 25
    assert pairs == sorted(pairs)
    for base_pair in ((0, 0), (0, 1), (1, 0), (3, 0)):
        assert base_pair in pairs
    assert plan.i2[0] == 0
    assert list(plan.i2) == sorted(set(plan.i2))
    assert sorted(plan.ik) == list(range(4, 9))
    for triple in plan.ik.values():
        assert triple[0] == 0


def test_plan_indices_satisfy_admissibility():
    for n, l in ((12, 1), (16, 3), (20, 3), (32, 5), (64, 11), (12, 2), (24, 4)):
        params = FrogParams(n, l)
        plan = plan_indices(params)
        for i in plan.i2:
            assert abs(1.0 + params.w_pow(2 * i)) > 1e-9
            if i > 0:
                assert abs(params.w_pow(i) - 1.0) > 1e-9
        assert abs(1.0 + params.w_pow(3 * plan.i3)) > 1e-9
        assert abs(params.w_pow(plan.i3) - 1.0) > 1e-9
        assert abs(params.w_pow(2 * plan.i3) - 1.0) > 1e-9
        for k, triple in plan.ik.items():
            for i in triple:
                assert abs(1.0 + params.w_pow(k * i)) > 1e-9
        assert plan.measurement_count == 3 * n // 2 + 1


def test_plan_indices_is_deterministic():
    a = plan_indices(FrogParams(20, 3))
    b = plan_indices(FrogParams(20, 3))
    assert a.i2 == b.i2 and a.i3 == b.i3 and a.ik == b.ik


def test_plan_indices_rejects_out_of_domain_geometry():
    with pytest.raises(ValueError):
        plan_indices(FrogParams(15, 1))  # odd N
    with pytest.raises(ValueError):
        plan_indices(FrogParams(6, 1))  # N/2 < 4
    with pytest.raises(ValueError):
        plan_indices(FrogParams(16, 4))  # r = 4 < 5
