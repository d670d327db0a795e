"""Ambiguity-group transforms and the FFT-shortlisted equivalence search."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from frogpr import (
    FrogParams,
    GroupElement,
    apply_element,
    dft,
    equivalent_up_to_group,
    frog_measurements_time,
    group_elements,
    random_analytic_signal,
    reflect,
    rotate,
    translate,
)
from oracles import exhaustive_equivalence


def _signal(n, seed):
    return random_analytic_signal(n, np.random.default_rng(seed))


def test_rotate_is_a_global_phase():
    z = _signal(10, 301)
    w = rotate(z, 0.7)
    assert_allclose(np.abs(w), np.abs(z), rtol=1e-14)
    assert_allclose(rotate(w, -0.7), z, rtol=0, atol=1e-14)
    assert_array_equal(rotate(z, 0.0), z)


def test_transforms_refuse_a_non_finite_scalar():
    # Refused by name before any arithmetic: no all-NaN signal, no numpy
    # warning, and no blame on the signal.
    z = _signal(10, 306)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"^theta must be finite, got"):
            rotate(z, bad)
        with pytest.raises(ValueError, match=r"^gamma must be finite, got"):
            translate(z, bad)


def test_translate_integer_is_exact_cyclic_shift():
    z = _signal(12, 302)
    for g in (0, 1, 5, 11):
        assert_allclose(translate(z, float(g)), np.roll(z, -g), rtol=0, atol=1e-12)


def test_translate_composes_additively():
    z = _signal(9, 303)
    a, b = 0.37, 1.91
    assert_allclose(
        translate(translate(z, a), b), translate(z, a + b), rtol=0, atol=1e-12
    )


def test_translate_preserves_norm():
    z = _signal(14, 304)
    for gamma in (0.25, 0.5, 3.7):
        assert_allclose(
            np.linalg.norm(translate(z, gamma)), np.linalg.norm(z), rtol=1e-12
        )


def test_reflect_definition_and_involution():
    z = _signal(11, 305)
    n = z.size
    expected = np.array([np.conj(z[(-k) % n]) for k in range(n)])
    assert_array_equal(reflect(z), expected)
    assert_array_equal(reflect(reflect(z)), z)


def test_reflect_conjugates_the_spectrum():
    z = _signal(8, 306)
    assert_allclose(dft(reflect(z)), np.conj(dft(z)), rtol=0, atol=1e-12)


def test_reflect_translate_commutation_to_normal_form():
    # reflect(shift-by-l) == shift-by-(-l)(reflect): the identity that lets
    # every group word collapse to sign * shift * reflect^b.
    z = _signal(10, 307)
    for l in (1, 3, 7):
        assert_array_equal(reflect(np.roll(z, -l)), np.roll(reflect(z), l))


def test_group_elements_enumeration():
    els = list(group_elements(6))
    assert len(els) == 4 * 6
    assert len(set(els)) == 4 * 6
    keys = [(g.rotation_sign, g.translation, g.reflected) for g in els]
    assert keys == sorted(keys)
    assert els[0] == GroupElement(-1, 0, False)


def test_group_elements_act_distinctly_on_generic_signals():
    z = _signal(8, 308)
    images = [tuple(np.round(apply_element(g, z), 12)) for g in group_elements(8)]
    assert len(set(images)) == 4 * 8


def test_apply_element_matches_primitive_composition():
    z = _signal(12, 309)
    for g in group_elements(12):
        base = reflect(z) if g.reflected else z
        expected = g.rotation_sign * np.roll(base, -g.translation)
        assert_array_equal(apply_element(g, z), expected)


def test_group_elements_preserve_the_measurements_at_a_6l_geometry():
    # N = 6L is outside recovery's domain, not the forward map's; criterion
    # 3's sweep has no such geometry.
    z = _signal(18, 318)
    params = FrogParams(18, 3)
    grid = frog_measurements_time(z, params).values
    for g in group_elements(18):
        dev = np.abs(frog_measurements_time(apply_element(g, z), params).values - grid).max()
        assert dev <= 1e-8 * grid.max(), g


def test_equivalence_recovers_planted_elements():
    z = _signal(10, 310)
    for g in (
        GroupElement(1, 0, False),
        GroupElement(-1, 3, False),
        GroupElement(1, 7, True),
        GroupElement(-1, 9, True),
    ):
        # The search applies candidates to its first argument, so planting
        # g on the second argument makes g itself the unique zero-residual
        # minimizer (generic signals have trivial stabilizer).
        report = equivalent_up_to_group(z, apply_element(g, z), tol=1e-8)
        assert report.equivalent
        assert report.residual < 1e-13
        assert report.best_element == g


def test_equivalence_rejects_non_group_transforms():
    z = _signal(10, 311)
    report = equivalent_up_to_group(rotate(z, 0.7), z, tol=1e-6)
    assert not report.equivalent
    assert report.residual > 1e-2
    report = equivalent_up_to_group(translate(z, 0.5), z, tol=1e-6)
    assert not report.equivalent


def test_equivalence_rejects_unrelated_signals():
    report = equivalent_up_to_group(_signal(10, 312), _signal(10, 313), tol=1e-6)
    assert not report.equivalent
    assert report.residual > 0.1


def test_equivalence_tie_break_is_deterministic():
    # A constant signal is fixed by every translation; the reported
    # minimizer must be the lexicographically first one.
    z = np.full(6, 1.0 + 0.5j)
    report = equivalent_up_to_group(z, z.copy(), tol=1e-9)
    assert report.equivalent
    assert report.best_element == GroupElement(1, 0, False)


def test_equivalence_zero_signal_edge_cases():
    zero = np.zeros(5, dtype=complex)
    assert equivalent_up_to_group(zero, zero, tol=1e-9).equivalent
    report = equivalent_up_to_group(zero, np.ones(5), tol=1e-9)
    assert not report.equivalent
    assert report.residual == 1.0


def test_equivalence_holds_at_extreme_scales():
    # Norms of these signals underflow (1e-170) or overflow (1e200) in
    # float64; the search must still tell different signals apart, find
    # planted elements, and warn about nothing.
    a, b = _signal(8, 314), _signal(8, 315)
    g = GroupElement(-1, 5, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-170, 1e170, 1e200):
            report = equivalent_up_to_group(scale * a, scale * b, tol=1e-6)
            assert not report.equivalent and report.residual > 0.1, scale
            report = equivalent_up_to_group(scale * a, scale * apply_element(g, a), tol=1e-6)
            assert report.equivalent and report.best_element == g, scale
            assert report.residual < 1e-13, scale


def test_equivalence_report_is_invariant_under_power_of_two_scaling():
    a, b = _signal(8, 316), _signal(8, 317)
    b_near = apply_element(GroupElement(1, 2, False), a) + 1e-9 * b
    for w in (b, b_near):
        ref = equivalent_up_to_group(a, w, tol=1e-6)
        for k in (-600, -40, 40, 600):
            scale = 2.0**k
            assert equivalent_up_to_group(scale * a, scale * w, tol=1e-6) == ref, k


def test_equivalence_length_mismatch_raises():
    with pytest.raises(ValueError):
        equivalent_up_to_group(np.ones(4), np.ones(6))


def test_equivalence_tolerance_must_be_finite_and_nonnegative():
    z = _signal(8, 331)
    assert equivalent_up_to_group(z, z.copy(), tol=0.0).residual == 0.0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            equivalent_up_to_group(z, z.copy(), tol=bad)


def _oracle_cases(n, seed):
    """(z, w) pairs: unrelated, exact and perturbed group images, constant
    signals (every translation ties), and a group image at the 1e-200 scale."""
    rng = np.random.default_rng(seed)
    a, b = _signal(n, seed), _signal(n, seed + 1)
    g = GroupElement(int(rng.choice([-1, 1])), int(rng.integers(n)), bool(rng.integers(2)))
    image = apply_element(g, a)
    return [
        (a, b),
        (a, image),
        (a, image + 1e-9 * b),
        (a, image + 1e-3 * b),
        (np.full(n, 1.0 + 0.5j), np.full(n, 1.0 + 0.5j)),
        (np.full(n, 2.0), np.full(n, -2.0)),
        (1e-200 * a, 1e-200 * image),
    ]


@pytest.mark.parametrize("n", [8, 12, 16, 64, 256])
@pytest.mark.parametrize("seed", [340, 350])
def test_equivalence_matches_the_exhaustive_search(n, seed):
    for case, (z, w) in enumerate(_oracle_cases(n, seed)):
        for tol in (1e-6, 0.5):
            report = equivalent_up_to_group(z, w, tol=tol)
            ref = exhaustive_equivalence(z, w, tol)
            assert report.best_element == ref.best_element, case
            assert report.residual == ref.residual, case
            assert report.equivalent == ref.equivalent, case


@pytest.mark.parametrize("n", [8, 64])
def test_equivalence_scores_each_shortlisted_element_once(n, monkeypatch):
    # The winner's residual is the one its scoring found, not computed
    # again; constant signals shortlist every translation, and ties still
    # go to the lexicographically least element.
    from frogpr import ambiguity

    apply = ambiguity.apply_element
    scored = []

    def counted(g, z):
        scored.append(g)
        return apply(g, z)

    monkeypatch.setattr(ambiguity, "apply_element", counted)
    for case, (z, w) in enumerate(_oracle_cases(n, 360)):
        scored.clear()
        report = equivalent_up_to_group(z, w, tol=1e-6)
        assert len(scored) == len(set(scored)) >= 1, case
        assert scored == sorted(scored, key=lambda g: (g.rotation_sign, g.translation, g.reflected))
        assert report == exhaustive_equivalence(z, w, 1e-6), case
