"""Row tables: each stage's one gather, its circles, and the table-driven Gauss-Newton polish."""

import warnings

import numpy as np
import pytest

from frogpr import (
    FrogMeasurements,
    FrogParams,
    dft,
    equivalent_up_to_group,
    frog_measurements_time,
    idft,
    plan_indices,
    random_analytic_signal,
    recover,
    recovery,
)
from frogpr.recovery import (
    _POLISH_WINDOW,
    _StageRows,
    _gauss_newton_step,
    _jacobian,
    _radii,
    _row_values,
    _scaled,
)
from oracles import lstsq_step, offset_u, offset_v, polish_residual_and_jacobian, row_circle

GEOMETRIES = [(12, 1), (20, 3), (64, 11)]
CASES = [(n, l, k) for n, l in GEOMETRIES for k in sorted({2, 4, n // 2})]


def _setup(n, l, seed):
    params = FrogParams(n, l)
    plan = plan_indices(params)
    z = random_analytic_signal(n, np.random.default_rng(seed))
    meas = frog_measurements_time(z, params, plan.pairs())
    return plan, meas, dft(z)


def _tail_setup(n, l, seed):
    """_setup at the scale the tail solves at, and the tail's row table.

    The measurements are divided by 2^(4e) and the spectrum by 2^e, with e
    the exponent _scaled finds, so the table _scaled builds of them holds
    their planned values as they are, and the spectrum reproduces them.
    """
    plan, meas, s = _setup(n, l, seed)
    _, e = _scaled(meas, plan.rows)
    meas = FrogMeasurements(meas.params, dict(zip(meas, np.ldexp(meas.values, -4 * e))))
    tables, again = _scaled(meas, plan.rows)
    assert again == 0
    return plan, meas, np.ldexp(s.view(np.float64), -e).view(np.complex128), tables


def _polish(spectrum, k_active, tables, lo=0):
    """The stage polish as recover_tail runs it: gather at s_k = 0, set s_k, polish."""
    rows = _StageRows(tables, spectrum, k_active, lo)
    rows.settle(spectrum[k_active])
    out = spectrum.copy()
    rows.polish(out, tables.scale)
    return out


def _random_coefficients(width, rng):
    return rng.standard_normal(width) + 1j * rng.standard_normal(width)


def _residual_and_jacobian(tv, target, mirror, dw, lo=0):
    """f = |y^|^2 - target over the rows, and its Jacobian over s_lo, s_lo+1, ..."""
    y, dy = _row_values(tv, mirror, dw)
    return (y * y.conjugate()).real - target, _jacobian(y, dy[:, lo:])


@pytest.mark.parametrize("n,l,k_active", CASES)
def test_tables_match_row_oracle(n, l, k_active):
    plan, meas, _, tables = _tail_setup(n, l, 1000 + n + k_active)
    target, mirror, dw = tables.stage(k_active)
    rows = [(k, m) for (k, m) in plan.pairs() if 1 <= k <= k_active]
    ref_target = np.array([meas[k, m] for (k, m) in rows])
    np.testing.assert_array_equal(target, ref_target)

    tv = _random_coefficients(k_active + 1, np.random.default_rng(n * k_active))
    fvec, jac = _residual_and_jacobian(tv, target, mirror, dw)
    ref_f, ref_jac = polish_residual_and_jacobian(tv, rows, ref_target, n, l)
    assert jac.shape == ref_jac.shape == (len(rows), 2 * (k_active + 1))
    # The sums run in another order, so agreement is to roundoff, relative
    # to the largest |y^|^2 (or target) and the largest Jacobian entry.
    f_scale = max(np.abs(ref_f + ref_target).max(), ref_target.max())
    assert np.abs(fvec - ref_f).max() <= 1e-13 * f_scale
    assert np.abs(jac - ref_jac).max() <= 1e-13 * np.abs(ref_jac).max()


@pytest.mark.parametrize("n,l,k_active", CASES)
def test_jacobian_matches_central_differences(n, l, k_active):
    target, mirror, dw = _tail_setup(n, l, 2000 + n + k_active)[3].stage(k_active)
    tv = _random_coefficients(k_active + 1, np.random.default_rng(7 * n + k_active))
    _, jac = _residual_and_jacobian(tv, target, mirror, dw)

    # Differencing |y^|^2 alone (zero target) keeps the targets' size out
    # of the roundoff: f is a quartic in the coefficients, so the error is
    # O(h^2) truncation plus O(eps / h) roundoff, both far below 1e-7.
    h = 1e-5
    zero = np.zeros_like(target)
    numeric = np.empty_like(jac)
    for col in range(jac.shape[1]):
        delta = np.zeros(tv.size, dtype=complex)
        delta[col // 2] = h if col % 2 == 0 else 1j * h
        f_plus, _ = _residual_and_jacobian(tv + delta, zero, mirror, dw)
        f_minus, _ = _residual_and_jacobian(tv - delta, zero, mirror, dw)
        numeric[:, col] = (f_plus - f_minus) / (2 * h)
    assert np.abs(jac - numeric).max() <= 1e-7 * np.abs(jac).max()


@pytest.mark.parametrize(
    "n,l,k_active,lo",
    # The full polish (id n-l-k) and one window of the kind recover_tail
    # uses (id n-l-k-lo<start>).
    [
        pytest.param(n, l, k, lo, id=f"{n}-{l}-{k}" + (f"-lo{lo}" if lo else ""))
        for n, l, k in CASES
        for lo in (0, max(2, k + 1 - _POLISH_WINDOW))
    ],
)
@pytest.mark.parametrize("seed", range(5))
def test_polish_converges_from_a_perturbed_exact_spectrum(n, l, k_active, lo, seed):
    _, _, s, tables = _tail_setup(n, l, 3000 + 10 * seed + n)
    stage = tables.stage(k_active, lo)
    width = k_active + 1
    rng = np.random.default_rng(seed)
    start = s.copy()
    start[lo:width] += 1e-6 * np.abs(s).max() * _random_coefficients(width - lo, rng)

    def err(spectrum):
        fvec, _ = _residual_and_jacobian(spectrum[:width], *stage)
        return np.abs(fvec).max()

    out = _polish(start, k_active, tables, lo)
    # Only the window moves: the held prefix and the unsolved tail come
    # back bitwise unchanged.
    np.testing.assert_array_equal(out[:lo], start[:lo])
    np.testing.assert_array_equal(out[width:], start[width:])
    assert err(out) <= err(start)
    assert err(out) <= 1e-12 * tables.scale


@pytest.mark.parametrize("n,l", GEOMETRIES)
def test_row_circles_match_row_oracle(n, l):
    plan, meas, s, tables = _tail_setup(n, l, 4000 + n)
    rng = np.random.default_rng(n)
    t = s[: n // 2 + 1] + 1e-2 * np.abs(s).max() * _random_coefficients(n // 2 + 1, rng)
    z0 = abs(s[0])
    # Every stage of the tail solve's table; A1 and the even-L probe read
    # its k = 2 rows.
    radii = _radii(tables, z0)
    for k in range(2, n // 2 + 1):
        stage = _StageRows(tables, t, k, k)
        offset, radius = stage.offsets(), radii[stage.rim]
        ms = plan.delays(k).tolist()
        ref = np.array([row_circle(meas, t, k, m, z0) for m in ms])
        radius = np.array(radius)
        assert offset.shape == radius.shape == (len(ms),)
        # Both sums run over the same terms in another order; agreement is
        # to roundoff relative to the largest offset and radius of the row.
        scale = max(np.abs(ref[:, 0]).max(), ref[:, 1].real.max())
        assert np.abs(offset - ref[:, 0]).max() <= 1e-13 * scale, k
        assert np.abs(radius - ref[:, 1].real).max() <= 1e-13 * ref[:, 1].real.max(), k


@pytest.mark.parametrize("n,l", GEOMETRIES)
def test_pair_offsets_are_real_multiples_of_the_pair_scale(n, l):
    plan, _, _, tables = _tail_setup(n, l, 5000 + n)
    rng = np.random.default_rng(5 * n)
    t = _random_coefficients(4, rng)
    t[0] = abs(t[0])
    offset2 = _StageRows(tables, t, 2, 2).offsets()
    v = offset2 / (t[1] * t[1] / t[0])
    ref_v = [offset_v(plan.params, i) for i in plan.delays(2).tolist()]
    np.testing.assert_allclose(v.real, ref_v, rtol=1e-13)
    assert np.abs(v.imag).max() <= 1e-13 * np.abs(v).max()
    offset3 = _StageRows(tables, t, 3, 3).offsets()
    u = offset3 / (t[1] * t[2] / t[0])
    ref_u = [offset_u(plan.params, i) for i in plan.delays(3).tolist()]
    np.testing.assert_allclose(u.real, ref_u, rtol=1e-13)
    assert np.abs(u.imag).max() <= 1e-13 * np.abs(u).max()


@pytest.mark.parametrize("seed", range(3))
def test_gauge_fixed_step_makes_the_least_squares_prediction(seed):
    _, _, s, tables = _tail_setup(64, 11, 6000 + seed)
    # The tail's gauge: s_0 real (rotation), then s_1 real (translation).
    s = s * (abs(s[0]) / s[0])
    s = s * np.exp(-1j * np.angle(s[1]) * np.arange(64))
    k_active, width = 20, 21
    rng = np.random.default_rng(seed)
    tv = s[:width] + 1e-6 * np.abs(s).max() * _random_coefficients(width, rng)
    tv[:2] = tv[:2].real
    fvec, jac = _residual_and_jacobian(tv, *tables.stage(k_active))
    # The full window: the step zeroes the Im s_0 and Im s_1 columns of the
    # Jacobian it is handed, so it gets a copy.
    step = _gauss_newton_step(jac.copy(), fvec, 0)
    ref = jac @ lstsq_step(jac, fvec)
    assert np.linalg.norm(jac @ step - ref) <= 1e-8 * np.linalg.norm(ref)
    assert step[1] == 0 and step[3] == 0


def test_polish_stops_on_singular_normal_equations():
    # At an all-zero spectrum prefix the Jacobian vanishes, so the normal
    # equations are singular: the polish keeps its input and warns about
    # nothing.
    tables = _tail_setup(20, 3, 7000)[3]
    start = np.zeros(20, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _polish(start, 6, tables)
    np.testing.assert_array_equal(out, start)


def _affine_misses(n, l, k_active, seed, factors):
    """How far the window's rows at x + t delta miss y + A t delta, per t in factors.

    The window is recover_tail's, lo = k_active + 1 - _POLISH_WINDOW, and A
    is dy[:, lo:] at x, the exact spectrum; each miss is relative to the
    largest fresh row value.
    """
    _, _, s, tables = _tail_setup(n, l, seed)
    lo = k_active + 1 - _POLISH_WINDOW
    _, mirror, dw = tables.stage(k_active, lo)
    x = s[: k_active + 1]
    y, dy = _row_values(x, mirror, dw)
    rng = np.random.default_rng(n)
    delta = 1e-3 * np.abs(s).max() * _random_coefficients(k_active + 1 - lo, rng)
    misses = []
    for t in factors:
        moved = x.copy()
        moved[lo:] += t * delta
        fresh, _ = _row_values(moved, mirror, dw)
        misses.append(np.abs(fresh - (y + dy[:, lo:] @ (t * delta))).max() / np.abs(fresh).max())
    return misses


@pytest.mark.parametrize(
    "n,l,k_active", [(64, 11, 31), (256, 11, 31), (256, 11, 47), (256, 11, 100), (256, 11, 127)]
)
def test_window_rows_are_affine_when_no_row_pairs_two_window_coefficients(n, l, k_active):
    # With 2 lo > k every partner s_{k_r - l} of a window coefficient is
    # held, so the window's rows move exactly by A delta.
    assert 2 * (k_active + 1 - _POLISH_WINDOW) > k_active
    assert _affine_misses(n, l, k_active, 8000 + k_active, [1.0])[0] <= 1e-13


@pytest.mark.parametrize("n,l", [(64, 11), (256, 11)])
def test_window_rows_are_not_affine_once_a_row_pairs_a_window_coefficient(n, l):
    # At k = 30 the window starts at lo = 15 (2 lo = k): the k_r = 30 rows
    # hold s_15^2, so the affine prediction misses by a term quadratic in
    # delta, and halving delta quarters it.
    misses = _affine_misses(n, l, 30, 8100, [1.0, 0.5])
    assert misses[0] > 1e-9
    assert misses[0] / misses[1] == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("seed", range(3))
def test_every_polish_of_a_recovery_is_monotone_under_a_fresh_evaluation(seed, monkeypatch):
    # The affine windows keep y^ by updates, not by fresh gathers; a fresh
    # evaluation must confirm every polish, and the coefficients outside
    # its window come back bitwise.
    plan, meas, _ = _setup(256, 11, 8200 + seed)
    polish = recovery._StageRows.polish
    affine = []

    def fresh_err(coefficients, rows):
        y, _ = _row_values(coefficients, rows.mirror, rows.dw)
        return np.abs((y * y.conjugate()).real - rows.target).max()

    def checked(rows, spectrum, scale):
        k_active, lo = rows.tv.size - 1, rows.lo
        # The stage's rows were gathered at the spectrum it hands over.
        np.testing.assert_array_equal(rows.tv[:k_active], spectrum[:k_active])
        start, held = rows.tv.copy(), spectrum.copy()
        before = fresh_err(start, rows)
        polish(rows, spectrum, scale)
        after = fresh_err(spectrum[: k_active + 1], rows)
        assert after <= before + 1e-15 * scale, (k_active, lo)
        np.testing.assert_array_equal(spectrum[:lo], held[:lo])
        np.testing.assert_array_equal(spectrum[k_active + 1 :], held[k_active + 1 :])
        affine.append(2 * lo > k_active)

    monkeypatch.setattr(recovery._StageRows, "polish", checked)
    recover(meas, plan)
    # Stages 2, 4 .. 128: 8 full polishes, 14 fresh windows, 91 affine ones.
    assert len(affine) == 126 and sum(affine) == 91


@pytest.mark.parametrize(
    "n,l,k", [(64, 11, 31), (256, 11, 5), (256, 11, 16), (256, 11, 100), (256, 11, 128)]
)
def test_stage_rows_equal_a_fresh_gather_bitwise(n, l, k):
    # One gather serves a stage's circles and its polish; both must see
    # exactly what a gather of their own rows would give.
    _, _, s, tables = _tail_setup(n, l, 8300 + k)
    z0 = abs(s[0])
    t = s * (z0 / s[0])
    full = k % _POLISH_WINDOW == 0 or k == n // 2
    lo = 0 if full else max(0, k + 1 - _POLISH_WINDOW)
    rows = _StageRows(tables, t, k, lo)

    # Before s_k is set: the circles are those of the rows k alone at s_k = 0.
    target, mirror, dw = tables.stage(k, k)
    tv = t[: k + 1].copy()
    tv[k] = 0
    y, _ = _row_values(tv, mirror, dw)
    np.testing.assert_array_equal(rows.y[rows.own :], y)
    offset, radius = rows.offsets(), _radii(tables, z0)[rows.rim]
    np.testing.assert_array_equal(offset, y / (t[0] * dw[:, 0]))
    np.testing.assert_array_equal(radius, np.sqrt(target) / (z0 * np.abs(dw[:, 0])))

    # After: the block is a fresh gather of the rows lo..k at s_0 .. s_k.
    rows.settle(t[k])
    y, dy = _row_values(t[: k + 1], *tables.stage(k, lo)[1:])
    np.testing.assert_array_equal(rows.tv, t[: k + 1])
    np.testing.assert_array_equal(rows.y, y)
    np.testing.assert_array_equal(rows.dy, dy)


@pytest.mark.parametrize("n,l", [(20, 3), (32, 5), (48, 7)])
def test_recovered_spectrum_bytes_below_the_affine_windows(n, l):
    # No window is affine below N = 64, so these recoveries take the
    # fresh-gather path and form the Jacobian per step. Their last bits hang
    # on the BLAS kernel, so what is pinned is what holds on any machine:
    # one spectrum per input, whether the plan's row table is built or
    # shared, a plan is made afresh, or the full grid is supplied, and an
    # equivalent of the true signal.
    params = FrogParams(n, l)
    for seed in range(3):
        plan, meas, _ = _setup(n, l, seed)
        z = random_analytic_signal(n, np.random.default_rng(seed))
        spectra = {
            recover(meas, plan).spectrum.tobytes(),
            recover(meas, plan).spectrum.tobytes(),
            recover(meas, plan_indices(params)).spectrum.tobytes(),
            recover(frog_measurements_time(z, params), plan).spectrum.tobytes(),
        }
        assert len(spectra) == 1, seed
        signal = idft(np.frombuffer(spectra.pop(), np.complex128))
        assert equivalent_up_to_group(signal, z, tol=1e-11).equivalent, seed
