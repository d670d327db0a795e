"""Closed-form intersection of circles |z + v| = n in the complex plane.

Each recovery stage reduces one spectral coefficient to a point common to a
small family of such circles, with centers -v and radii n derived from the
measurements and previously recovered coefficients. Three circles with
non-collinear centers meet in at most one point and the 2x2 linear system
below solves for it directly. Two circles whose centers lie on one line
through the origin meet in a pair of candidates, mirror images across that
line.

The solvers are pure geometry: they refuse only systems without an answer
(collinear centers, circles that do not meet). Whether a returned point
lies on its circles is judged by the recovery stages, with one residual.
"""

from __future__ import annotations

import math

from .errors import NoSolutionError, SingularConfigurationError

__all__ = [
    "solve_three_circles",
    "solve_two_circles_real",
]

# Collinearity threshold for three-circle center geometry: below this the
# linear system loses a digit count no measurement noise model here survives.
_SINGULAR_TOL = 1e-12


def solve_three_circles(
    v1: complex,
    v2: complex,
    v3: complex,
    n1: float,
    n2: float,
    n3: float,
) -> complex:
    """Unique point on |z + v_j| = n_j, j = 1, 2, 3, for non-collinear centers.

    Subtracting pairs of squared equations leaves a linear system in
    (Re z, Im z). Raises SingularConfigurationError when the centers are
    (nearly) collinear — including the degenerate cases of coincident
    centers, where the difference vectors themselves vanish — judged by
    |Im(conj(v1-v2) (v1-v3))| < 1e-12 at the squared scale of the center
    spread. This is pure geometry: for radii that no point meets, it still
    returns the solution of the linear system, and judging whether that
    point lies on the circles is the caller's job.
    """
    d12, d13 = complex(v1 - v2), complex(v1 - v3)
    # det = Im(conj(d12) d13) vanishes exactly when the centers are collinear.
    # The threshold is homogeneous of degree two in the center spread so that
    # a roundoff-sized difference vector (coincident centers) reads as
    # singular rather than dividing the test by noise.
    det = d12.real * d13.imag - d12.imag * d13.real
    if abs(det) < _SINGULAR_TOL * max(abs(d12), abs(d13), 1.0) ** 2:
        raise SingularConfigurationError(
            "circle centers are collinear; the linear system is singular"
        )
    # Differencing |z|^2 + 2 Re(conj(v_j) z) + |v_j|^2 = n_j^2 leaves
    #   2 (Re d1j * a + Im d1j * b) = g_j,  z = a + i b.
    g1 = (n1 * n1 - n2 * n2) - (abs(v1) ** 2 - abs(v2) ** 2)
    g2 = (n1 * n1 - n3 * n3) - (abs(v1) ** 2 - abs(v3) ** 2)
    a = (g1 * d13.imag - g2 * d12.imag) / (2.0 * det)
    b = (g2 * d12.real - g1 * d13.real) / (2.0 * det)
    return complex(a, b)


def solve_two_circles_real(
    v1: float,
    v2: float,
    m: complex,
    n1: float,
    n2: float,
) -> tuple[complex, complex]:
    """Intersection of |z + m v_1| = n_1 and |z + m v_2| = n_2, v_j real.

    Both centers -m v_j lie on the line through 0 and m, so writing
    z = m (a + i b) with a, b real splits the system: the along-m component
    is fixed by the radius difference,

        a = (n1^2 - n2^2) / (2 |m|^2 (v1 - v2)) - (v1 + v2) / 2,

    and the orthogonal one by Pythagoras, b^2 = n1^2/|m|^2 - (a + v1)^2.
    A slightly negative b^2 (within -1e-12 at the scale of the squared
    scaled radii) is clamped to exact tangency. Returns the two candidates
    m (a + i b), m (a - i b), non-negative-b first; they coincide at
    tangency. Raises SingularConfigurationError when m = 0 or v1 = v2, and
    NoSolutionError when b^2 is genuinely negative (the circles do not
    meet). Membership of the candidates is the caller's to judge.
    """
    if m == 0 or v1 == v2:
        raise SingularConfigurationError(
            "two-circle system needs m != 0 and distinct real offsets"
        )
    mm = abs(m) ** 2
    # Component of z along -m direction: project |z + m v|^2 = n^2 onto m.
    # With z = m (a + i b):  |m|^2 ((a + v)^2 + b^2) = n^2.
    a = (n1 * n1 - n2 * n2) / (2.0 * mm * (v1 - v2)) - (v1 + v2) / 2.0
    disc = n1 * n1 / mm - (a + v1) ** 2
    scale = max(1.0, n1 * n1 / mm, n2 * n2 / mm)
    if disc < -_SINGULAR_TOL * scale:
        raise NoSolutionError(
            f"circles do not intersect (discriminant {disc:.3e} at scale {scale:.3e})"
        )
    b = math.sqrt(max(disc, 0.0))
    return m * complex(a, b), m * complex(a, -b)
