"""Recovery pipeline: root choice, sequential tail, verification, probe."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from frogpr import (
    DegenerateSignalError,
    FrogParams,
    InconsistentMeasurementsError,
    dft,
    equivalent_up_to_group,
    even_l_infeasibility_probe,
    frog_grid_freq,
    frog_measurements_freq,
    frog_measurements_time,
    idft,
    is_analytic,
    plan_indices,
    random_analytic_signal,
    recover,
    recover_tail,
    recover_z0,
    verify_solution,
)


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


# --- full pipeline -------------------------------------------------------------


def test_recover_round_trips_generic_signals():
    rng = np.random.default_rng(601)
    cases = [(12, 1), (12, 1), (16, 3), (16, 3), (20, 3), (32, 5)]
    for n, l in cases:
        params = FrogParams(n, l)
        plan = plan_indices(params)
        z = _generic(n, rng)
        meas = frog_measurements_time(z, params, indices=plan.pairs())
        assert len(meas.entries) == 3 * n // 2 + 1
        rec = recover(meas, plan)
        report = equivalent_up_to_group(rec.signal, z, tol=1e-8)
        assert report.equivalent and report.residual < 1e-8
        assert rec.verification_residual < 1e-9
        assert rec.sign_branch in (1, -1)


def test_recover_output_is_normalized_and_self_consistent():
    rng = np.random.default_rng(602)
    params = FrogParams(16, 3)
    z = _generic(16, rng)
    rec = recover(frog_measurements_time(z, params, plan_indices(params).pairs()))
    s = rec.spectrum
    assert is_analytic(s).is_analytic
    assert_allclose(rec.signal, idft(s), rtol=0, atol=1e-14 * np.abs(s).max())
    # Gauge pinning: s_0 exactly on the real axis with the reported sign,
    # s_{N/2} rotated onto the non-negative real axis.
    assert abs(s[0].imag) < 1e-12 * abs(s[0])
    assert np.sign(s[0].real) == rec.sign_branch
    assert s[8].real >= 0.0
    assert abs(s[8].imag) < 1e-10 * np.abs(s).max()


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
    assert rec_full.verification_residual == rec_planned.verification_residual


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


def test_recover_flags_corrupted_measurements():
    rng = np.random.default_rng(607)
    params = FrogParams(16, 3)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(16, rng), params, plan.pairs())
    from frogpr import FrogMeasurements

    # A late-stage row: the stage solve (or the final verification) must
    # reject rather than return a wrong signal.
    late = dict(meas.entries)
    key = (7, plan.ik[7][1])
    late[key] = late[key] * 2.5
    with pytest.raises(InconsistentMeasurementsError):
        recover(FrogMeasurements(params, late), plan)

    # A boundary row: breaks the root disambiguation itself.
    early = dict(meas.entries)
    early[(0, 0)] = early[(0, 0)] * 4.0
    with pytest.raises(InconsistentMeasurementsError):
        recover(FrogMeasurements(params, early), plan)


# --- leading-coefficient root choice -------------------------------------------


def test_recover_z0_picks_correct_root_both_orderings():
    rng = np.random.default_rng(608)
    params = FrogParams(12, 1)
    for s0, shalf in ((2.0, 0.7), (0.7, 2.0), (-1.4, 0.5)):
        s = _analytic_spectrum(12, rng, s0=s0, shalf=shalf)
        meas, plan = _planned_measurements(s, params)
        got = recover_z0(meas, plan)
        assert_allclose(got, abs(s0), rtol=1e-9)


def test_recover_z0_equal_boundary_moduli_returns_common_value():
    rng = np.random.default_rng(609)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=1.3, shalf=-1.3)
    meas, plan = _planned_measurements(s, params)
    assert_allclose(recover_z0(meas, plan), 1.3, rtol=1e-9)


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
    with pytest.raises(DegenerateSignalError):
        recover_z0(FrogMeasurements(params, clamped), plan)
    # The unclamped roundoff-level rows must still end in an honest refusal,
    # never a silently wrong root.
    from frogpr import FrogprError

    with pytest.raises(FrogprError):
        recover_z0(meas, plan)


# --- sequential tail solve ------------------------------------------------------


def test_recover_tail_solves_all_upper_rows():
    rng = np.random.default_rng(611)
    params = FrogParams(16, 3)
    z = _generic(16, rng)
    s_true = dft(z)
    plan = plan_indices(params)
    meas = frog_measurements_time(z, params, plan.pairs())
    z0 = abs(s_true[0])
    sign = 1 if s_true[0].real > 0 else -1
    t = recover_tail(meas, plan, z0, sign)
    assert t.shape == (16,)
    assert np.all(t[9:] == 0)
    # Pinned gauge of the staged iterate: s_0 on the chosen real branch,
    # s_1 real non-negative.
    assert abs(t[0] - sign * z0) < 1e-9 * z0
    assert t[1].real >= 0 and abs(t[1].imag) < 1e-9 * abs(t[1])
    # Every consumed row with k >= 1 is reproduced (the k = 0 rows pin the
    # remaining translation freedom and are only met after normalization).
    grid = frog_grid_freq(t, params)
    scale = meas.max_value()
    for (k, m), val in meas.entries.items():
        if k >= 1:
            assert abs(grid[k, m] - val) < 1e-8 * scale


def test_recover_tail_validates_arguments():
    rng = np.random.default_rng(612)
    params = FrogParams(12, 1)
    plan = plan_indices(params)
    meas = frog_measurements_time(_generic(12, rng), params, plan.pairs())
    with pytest.raises(ValueError, match="sign"):
        recover_tail(meas, plan, 1.0, 2)
    with pytest.raises(ValueError, match="positive"):
        recover_tail(meas, plan, -1.0, 1)
    with pytest.raises(ValueError, match="positive"):
        recover_tail(meas, plan, 0.0, 1)


def test_recover_tail_degenerate_second_coefficient_raises():
    rng = np.random.default_rng(613)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[1] = 0.0
    meas, plan = _planned_measurements(s, params)
    with pytest.raises(DegenerateSignalError, match="second"):
        recover_tail(meas, plan, 2.0, 1)
    # A1's k = 2 pair solve scales by s_1^2 / s_0 and says nothing at s_1 = 0,
    # so A1 refuses too, and recover() reports the same refusal.
    with pytest.raises(DegenerateSignalError, match="second"):
        recover_z0(meas, plan)
    with pytest.raises(DegenerateSignalError, match="second"):
        recover(meas, plan)


def test_recover_tail_degenerate_third_coefficient_raises():
    rng = np.random.default_rng(614)
    params = FrogParams(12, 1)
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[2] = 0.0
    meas, plan = _planned_measurements(s, params)
    with pytest.raises(DegenerateSignalError, match="third"):
        recover_tail(meas, plan, 2.0, 1)


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
    s = _analytic_spectrum(12, rng, s0=2.0, shalf=0.8)
    s[1] = 0.0
    no_s1 = frog_measurements_freq(s, FrogParams(12, 2))
    with pytest.raises(DegenerateSignalError, match="second"):
        even_l_infeasibility_probe(no_s1, 2.0, 0.3)


def test_probe_requires_its_rows():
    rng = np.random.default_rng(620)
    params = FrogParams(12, 2)
    meas = frog_measurements_time(_generic(12, rng), params, indices=[(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="missing"):
        even_l_infeasibility_probe(meas, 1.0, 0.0)
