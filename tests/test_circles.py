"""Closed-form circle-intersection solvers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frogpr import (
    NoSolutionError,
    SingularConfigurationError,
    solve_three_circles,
    solve_two_circles_real,
)
from frogpr.recovery import _circle_residual

EPS = float(np.finfo(float).eps)


def _rng_complex(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


# --- three circles ------------------------------------------------------------


def test_three_circles_symmetric_exact_case():
    # |z + 1| = |z + i| = |z - 1| = 1 has the unique solution z = 0.
    z = solve_three_circles(1.0, 1j, -1.0, 1.0, 1.0, 1.0)
    assert abs(z) < 1e-14


def test_three_circles_recovers_planted_points():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(300):
        z = _rng_complex(rng)
        while True:
            v1, v2, v3 = (_rng_complex(rng) for _ in range(3))
            d12, d13 = v1 - v2, v1 - v3
            det = d12.real * d13.imag - d12.imag * d13.real
            if abs(det) > 1e-2:  # keep the sweep well-conditioned
                break
        got = solve_three_circles(v1, v2, v3, abs(z + v1), abs(z + v2), abs(z + v3))
        worst = max(worst, abs(got - z) / max(1.0, abs(z)))
    assert worst < 1e-9


def test_three_circles_collinear_centers_raise():
    with pytest.raises(SingularConfigurationError):
        solve_three_circles(1.0, 2.0, 3.0, 1.0, 1.0, 1.0)
    # Collinear but not axis-aligned.
    d = 1.0 + 2.0j
    with pytest.raises(SingularConfigurationError):
        solve_three_circles(0.0, d, 2.5 * d, 1.0, 1.5, 2.0)


def test_three_circles_coincident_centers_read_as_singular():
    # A roundoff-sized difference vector must not slip past the collinearity
    # test: with two offsets equal (or equal to an ulp) the linear system has
    # no information in one direction.
    with pytest.raises(SingularConfigurationError):
        solve_three_circles(1.0 + 1.0j, 1.0 + 1.0j, 2.0 - 1.0j, 1.0, 1.0, 2.0)
    jitter = 1.0 + 1e-14
    with pytest.raises(SingularConfigurationError):
        solve_three_circles(1.0 + 1.0j, jitter + 1.0j, 2.0 - 1.0j, 1.0, 1.0, 2.0)


def test_three_circles_inconsistent_radii_leave_membership_to_the_caller():
    # No point lies on all three circles. The solver is pure geometry and
    # returns the linear system's point, -2 - 2i; the membership residual is
    # what flags it: |z + 1| = |z + i| = sqrt(5) against radius 1.
    z = solve_three_circles(1.0, 1j, -1.0, 1.0, 1.0, 3.0)
    assert z == -2.0 - 2.0j
    offset, radius = np.array([1.0, 1j, -1.0]), np.array([1.0, 1.0, 3.0])
    assert_allclose(_circle_residual(z, offset, radius), (np.sqrt(5) - 1) / 2, rtol=1e-12)


# --- two circles, centers on a real line through the origin -------------------


def test_two_circles_real_worked_instance():
    # Planted z = 2 (1 + 2i) on circles centered at 0 and -2 (m = 2).
    z = 2.0 * (1.0 + 2.0j)
    cands = solve_two_circles_real(0.0, 1.0, 2.0, abs(z), abs(z + 2.0))
    assert_allclose(cands[0], z, rtol=1e-12)
    assert_allclose(cands[1], z.conjugate(), rtol=1e-12)


def test_two_circles_real_pair_is_exactly_conjugate_for_real_scale():
    rng = np.random.default_rng(502)
    for _ in range(200):
        m = float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0]))
        v1 = float(rng.standard_normal())
        v2 = v1 + float(rng.uniform(0.3, 2.0))
        z = m * complex(rng.standard_normal(), rng.uniform(0.1, 2.0))
        cands = solve_two_circles_real(v1, v2, m, abs(z + m * v1), abs(z + m * v2))
        assert cands[0].conjugate() == cands[1]  # bitwise, by construction
        assert min(abs(c - z) for c in cands) < 1e-9 * max(1.0, abs(z))


def test_two_circles_real_orders_nonnegative_branch_first():
    z = 1.0 + 3.0j
    cands = solve_two_circles_real(0.0, 1.0, 1.0, abs(z), abs(z + 1.0))
    assert cands[0].imag >= 0.0 >= cands[1].imag


def test_two_circles_real_tangency_collapses_to_double_point():
    # z on the line of centers: tangent circles, one double intersection.
    cands = solve_two_circles_real(0.0, 1.0, 1.0, 3.0, 4.0)
    assert cands[0] == cands[1] == 3.0 + 0.0j


def test_two_circles_real_clamps_roundoff_tangency():
    # Slightly infeasible radii (discriminant ~ -1e-15) are clamped to exact
    # tangency instead of raising.
    n1 = 1.0 - 5e-16
    cands = solve_two_circles_real(0.0, 1.0, 1.0, n1, 2.0)
    assert cands[0] == cands[1]
    assert abs(cands[0].real - 1.0) < 1e-16 + 4 * EPS


def test_two_circles_real_disjoint_circles_raise():
    with pytest.raises(NoSolutionError):
        solve_two_circles_real(0.0, 1.0, 1.0, 0.5, 2.0)


def test_two_circles_real_singular_configurations_raise():
    with pytest.raises(SingularConfigurationError):
        solve_two_circles_real(0.0, 1.0, 0.0, 1.0, 1.0)  # m = 0
    with pytest.raises(SingularConfigurationError):
        solve_two_circles_real(0.7, 0.7, 1.0, 1.0, 1.0)  # v1 = v2


def test_two_circles_scaled_worked_instance():
    # m = i, offsets 0 and 1, planted z = i (2 + 3i) = -3 + 2i; the partner
    # is i (2 - 3i) = 3 + 2i.
    z = 1j * (2.0 + 3.0j)
    cands = solve_two_circles_real(0.0, 1.0, 1j, abs(z), abs(z + 1j))
    assert_allclose(cands[0], -3.0 + 2.0j, rtol=0, atol=1e-12)
    assert_allclose(cands[1], 3.0 + 2.0j, rtol=0, atol=1e-12)


def test_two_circles_scaled_pair_is_m_times_conjugate_pair():
    rng = np.random.default_rng(503)
    for _ in range(200):
        m = _rng_complex(rng)
        while abs(m) < 0.3:
            m = _rng_complex(rng)
        v1 = float(rng.standard_normal())
        v2 = v1 + float(rng.uniform(0.3, 2.0))
        z = m * complex(rng.standard_normal(), rng.uniform(0.1, 2.0))
        cands = solve_two_circles_real(v1, v2, m, abs(z + m * v1), abs(z + m * v2))
        assert min(abs(c - z) for c in cands) < 1e-9 * max(1.0, abs(z))
        # The pair is m times a conjugate pair; dividing m back out is a
        # multiply-then-divide round trip, exact only to a few ulp.
        u0, u1 = cands[0] / m, cands[1] / m
        assert abs(u0.conjugate() - u1) <= 4 * EPS * max(abs(u0), abs(u1))


def test_circle_residual_normalization():
    offset, radius = np.array([0.0 + 0.0j]), np.array([3.0])
    assert_allclose(_circle_residual(3.0 + 0.0j, offset, radius), 0.0, atol=1e-15)
    assert_allclose(_circle_residual(4.0 + 0.0j, offset, radius), 1.0 / 4.0, rtol=1e-12)
    # Over several circles the worst one counts, each relative to its own radius.
    offset, radius = np.array([0.0, -2.0 + 0.0j]), np.array([3.0, 1.0])
    assert_allclose(_circle_residual(4.0 + 0.0j, offset, radius), 1.0 / 2.0, rtol=1e-12)
