"""Classification of sublevel regions U_q = {q(x, y, 1) < 0}."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import from_poly, is_nowhere_negative
from flatconic.quadform import QForm3, canonical_scale, lift
from flatconic.subconic import (
    DegenerateConfiguration,
    SubconicKind,
    classify,
    conic_through_five,
    contains,
    strip_direction,
    subconic,
)

DISC = from_poly(1, 0, 1, 0, 0, -1)              # x^2 + y^2 < 1
STRIP = from_poly(0, 0, 1, 0, -1, 0)             # 0 < y < 1
HALF = from_poly(0, 0, 0, 0, 1, 0)               # y < 0
PARABOLA = from_poly(1, 0, 0, 0, -1, 0)          # y > x^2
HYPERBOLA = from_poly(1, 0, -1, 0, 0, -1)
EMPTY = from_poly(1, 0, 1, 0, 0, 1)


@pytest.mark.parametrize("q,kind,sig3,sig2", [
    (DISC, SubconicKind.ELLIPSE_INTERIOR, (2, 1, 0), (2, 0, 0)),
    (STRIP, SubconicKind.STRIP, (1, 1, 1), (1, 0, 1)),
    (HALF, SubconicKind.HALF_PLANE, (1, 1, 1), (0, 0, 2)),
    (PARABOLA, SubconicKind.PARABOLA_INTERIOR, (2, 1, 0), (1, 0, 1)),
])
def test_classification_table(q, kind, sig3, sig2):
    c = classify(q)
    assert c.kind is kind
    assert c.signature == sig3
    assert c.signature_restriction == sig2


def test_strip_signature_has_an_indefinite_three_by_three_part():
    # the full Gram of a strip is (1,1,1), not (2,1,0): the two boundary
    # lines pair to a rank-2 form
    assert classify(STRIP).signature == (1, 1, 1)


@pytest.mark.parametrize("q", [HYPERBOLA, EMPTY, from_poly(0, 0, 1, 0, 0, 0)])
def test_non_convex_or_empty_regions_are_other(q):
    assert classify(q).kind is SubconicKind.OTHER


def test_classification_is_scale_invariant_exact():
    for q in (DISC, STRIP, HALF, PARABOLA, HYPERBOLA):
        for c in (F(1, 7), 3, F(12, 5)):
            assert classify(q.scaled(c)).kind is classify(q).kind


coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(st.tuples(coef, coef, coef, coef, coef, coef), st.sampled_from([F(1, 3), F(2), F(9, 7)]))
def test_kind_is_invariant_under_positive_scaling(coeffs, c):
    q = from_poly(*coeffs)
    assert classify(q.scaled(c)).kind is classify(q).kind


@settings(max_examples=60, deadline=None)
@given(st.tuples(coef, coef, coef, coef, coef, coef))
@example((F(1, 2), F(2), F(2), F(0), F(0), F(-1)))  # strip 1/2 (x + 2y)^2 < 1
def test_bounded_regions_are_exactly_the_ellipse_interiors(coeffs):
    q = from_poly(*coeffs)
    kind = classify(q).kind
    if kind is SubconicKind.ELLIPSE_INTERIOR:
        assert oracles.region_is_bounded([float(v) for v in coeffs])
    elif kind in (SubconicKind.STRIP, SubconicKind.HALF_PLANE,
                  SubconicKind.PARABOLA_INTERIOR):
        assert not oracles.region_is_bounded([float(v) for v in coeffs])


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.floats(min_value=-4, max_value=4)] * 6))
@example((1.0, 0.0, 1.0, 0.0, 0.0, -1e-12))
@example((0.1, 0.2, 0.1, 0.0, 0.0, -1.0))
def test_float_coefficients_classify_like_their_exact_twins(coeffs):
    # a float is taken at its exact binary value: no tolerance band
    twin = from_poly(*(F(v) for v in coeffs))
    assert classify(from_poly(*coeffs)) == classify(twin)


def test_a_tiny_float_radius_is_still_an_ellipse():
    tiny = from_poly(1.0, 0, 1.0, 0, 0, -1e-12)
    assert classify(tiny).kind is SubconicKind.ELLIPSE_INTERIOR


def test_contains_reports_sides():
    assert contains(DISC, (0, 0)) == -1
    assert contains(DISC, (1, 0)) == 0
    assert contains(DISC, (2, 0)) == 1
    s = subconic(DISC)
    assert (0, 0) in s and (3, 3) not in s


def test_strip_direction_exact_primitive():
    assert strip_direction(STRIP) == (1, 0)
    vertical = from_poly(1, 0, 0, -1, 0, 0)          # 0 < x < 1
    assert strip_direction(vertical) == (0, 1)
    diagonal = from_poly(1, -2, 1, 1, -1, 0)         # between y=x and y=x-1
    assert strip_direction(diagonal) == (1, 1)


def test_strip_direction_rejects_non_strips():
    with pytest.raises(ValueError):
        strip_direction(DISC)


RATIONALS = st.fractions(-6, 6, max_denominator=9)


@st.composite
def restrictions(draw):
    """Forms whose restriction is rank 1 (u ⊗ u up to scale, u horizontal
    included), arbitrary (mostly rank 2), or zero; the linear part is
    arbitrary."""
    rank = draw(st.sampled_from((0, 1, 1, 2)))
    if rank == 1:
        u0, u1 = draw(RATIONALS), draw(RATIONALS)
        k = draw(RATIONALS.filter(bool))
        if not (u0 or u1):
            u0 = 1
        a11, a12, a22 = k * u0 * u0, k * u0 * u1, k * u1 * u1
    elif rank == 2:
        a11, a12, a22 = draw(RATIONALS), draw(RATIONALS), draw(RATIONALS)
    else:
        a11 = a12 = a22 = 0
    rest = [draw(RATIONALS) for _ in range(3)]
    return QForm3(a11, a22, rest[0], a12, rest[1], rest[2])


@settings(max_examples=200, deadline=None)
@example(QForm3(0, 3, -1, 0, 0, 2))          # a11 = a12 = 0
@example(QForm3(0, 0, 1, 0, 1, 0))           # zero restriction
@example(QForm3(1, 1, -1, 0, 0, 0))          # rank 2
@given(restrictions())
def test_strip_direction_matches_the_reference(q):
    try:
        ref = oracles.reference_strip_direction(q)
    except ValueError:
        with pytest.raises(ValueError, match="not a strip"):
            strip_direction(q)
        return
    assert strip_direction(q) == ref


def test_conic_through_five_recovers_a_circle():
    pts = [(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4)]
    s = conic_through_five(pts)
    assert s.kind is SubconicKind.ELLIPSE_INTERIOR
    want = canonical_scale(from_poly(1, 0, 1, 0, 0, -25))
    assert canonical_scale(s.form).coeffs() == want.coeffs()
    # cross-check against the SVD oracle
    a, b, c, d, e, f = oracles.conic_through(pts)
    for p in pts:
        x, y = float(p[0]), float(p[1])
        assert abs(a * x * x + b * x * y + c * y * y + d * x + e * y + f) < 1e-9


def test_conic_through_five_degenerate_inputs():
    with pytest.raises(DegenerateConfiguration):
        conic_through_five([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    with pytest.raises(DegenerateConfiguration):
        conic_through_five([(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        conic_through_five([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_three_collinear_points_still_give_a_line_pair():
    # parallel pair y(y-1): the sublevel region is the strip between the lines
    s = conic_through_five([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    assert s.kind is SubconicKind.STRIP
    for p in [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]:
        assert s.form(lift(p)) == 0
    # crossing pair xy: opposite quadrants, not a convex region
    s2 = conic_through_five([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
    assert s2.kind is SubconicKind.OTHER


def test_is_nowhere_negative():
    assert is_nowhere_negative(EMPTY)
    assert is_nowhere_negative(from_poly(1, 0, 0, 0, 0, 0))
    assert not is_nowhere_negative(DISC)
    assert not is_nowhere_negative(STRIP)
