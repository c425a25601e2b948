"""Tests for ternary quadratic forms, pencils, and natural bases."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (CollinearTripleError, combine, degenerate_members,
                     from_poly, natural_basis, pencil_coefficients)
from flatconic.quadform import (
    QForm3,
    canonical_scale,
    forms_vanishing_on,
    lift,
    signature,
    signature_restriction,
    transform_by_affine,
)

UNIT_CIRCLE = from_poly(1, 0, 1, 0, 0, -1)


def test_lift():
    assert lift((F(1, 2), -3)) == (F(1, 2), -3, 1)


def test_from_poly_evaluates_the_polynomial():
    q = from_poly(2, -3, F(1, 2), 1, 0, -7)
    x, y = F(3), F(-2)
    expected = 2 * x * x - 3 * x * y + F(1, 2) * y * y + x - 7
    assert q(lift((x, y))) == expected


def test_pair_polarizes_call():
    q = from_poly(1, 1, 1, 1, 1, 1)
    v, w = (1, 2, 3), (F(-1), F(1, 3), 2)
    assert 2 * q.pair(v, w) == q([a + b for a, b in zip(v, w)]) - q(v) - q(w)


def test_combine_is_linear():
    q = combine([(2, UNIT_CIRCLE), (F(-1, 2), from_poly(0, 0, 0, 1, 0, 0))])
    assert q.coeffs() == (2, 2, -2, 0, F(-1, 4), 0)


def test_signature_of_circle():
    assert signature(UNIT_CIRCLE) == (2, 1, 0)
    assert signature_restriction(UNIT_CIRCLE) == (2, 0, 0)


@pytest.mark.parametrize("k,pts", [
    (1, [(0, 0)]),
    (2, [(0, 0), (1, 0)]),
    (3, [(0, 0), (1, 0), (0, 1)]),
    (4, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    (5, [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), 2)]),
])
def test_vanishing_dimension_drops_by_one_per_point(k, pts):
    basis = forms_vanishing_on([lift(p) for p in pts])
    assert len(basis) == 6 - k
    for q in basis:
        for p in pts:
            assert q(lift(p)) == 0
    # agrees with the floating nullity oracle
    assert oracles.vanishing_dim(pts) == 6 - k


def test_four_collinear_points_do_not_impose_independent_conditions():
    pts = [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert len(forms_vanishing_on([lift(p) for p in pts])) == 3
    assert oracles.vanishing_dim(pts) == 3


def test_more_than_five_points_rejected():
    pts = [lift((i, i * i)) for i in range(6)]
    with pytest.raises(ValueError):
        forms_vanishing_on(pts)


coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def no_three_collinear(pts):
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (x1, y1), (x2, y2), (x3, y3) = pts[i], pts[j], pts[k]
                if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) == 0:
                    return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=5, unique=True))
def test_general_position_dimension_property(pts):
    if not no_three_collinear(pts):
        return
    basis = forms_vanishing_on([lift(p) for p in pts])
    assert len(basis) == 6 - len(pts)


def test_natural_basis_vanishes_on_triple_and_spans_line_pairs():
    Z = [(0, 0), (2, 0), (0, 2)]
    nb = natural_basis(Z)
    assert len(nb.forms) == 3
    for q in nb.forms:
        for p in Z:
            assert q(lift(p)) == 0
        # each member is a pair of lines (rank <= 2)
        assert signature(q)[0] + signature(q)[1] <= 2


def test_natural_basis_collinear_rejected():
    with pytest.raises(CollinearTripleError):
        natural_basis([(0, 0), (1, 1), (3, 3)])


def test_degenerate_members_of_a_pencil():
    Z = [(-1, 0), (1, 0), (0, 1), (0, -1)]
    qs = degenerate_members(Z)
    assert len(qs) == 3
    for q in qs:
        for p in Z:
            assert q(lift(p)) == 0
        negs = signature(q)
        assert negs[0] + negs[1] <= 2


def test_pencil_coefficients_reproduce_the_form():
    Z = [(0, 0), (1, 0), (0, 1)]
    nb = natural_basis(Z)
    q = combine([(F(2), nb.forms[0]), (F(-1, 3), nb.forms[1]), (F(5), nb.forms[2])])
    coeffs = pencil_coefficients(q, nb)
    redo = combine(list(zip(coeffs, nb.forms)))
    assert canonical_scale(redo).coeffs() == canonical_scale(q).coeffs()


def test_canonical_scale_is_scale_invariant():
    q = from_poly(3, 1, 2, -1, 0, -9)
    for c in (F(7, 3), F(1, 5), 11):
        assert canonical_scale(q.scaled(c)).coeffs() == canonical_scale(q).coeffs()


def test_canonical_scale_prefers_negative_somewhere():
    # positive definite input gets flipped so the sublevel set is nonempty
    q = from_poly(1, 0, 1, 0, 0, 1)
    n_pos, n_neg, _ = signature(canonical_scale(q))
    assert n_neg > 0


def test_transform_by_affine_image_semantics():
    g = ((1, 1), (0, 1))
    tau = (F(1, 2), -2)
    q2 = transform_by_affine(UNIT_CIRCLE, g, tau)
    for p in [(0, 0), (F(1, 2), F(1, 3)), (1, 0), (2, 2)]:
        gx = (g[0][0] * p[0] + g[0][1] * p[1] + tau[0],
              g[1][0] * p[0] + g[1][1] * p[1] + tau[1])
        assert q2(lift(gx)) == UNIT_CIRCLE(lift(p))


def test_transform_by_affine_rejects_singular():
    with pytest.raises(ValueError):
        transform_by_affine(UNIT_CIRCLE, ((1, 2), (2, 4)), (0, 0))


def test_transform_by_affine_composes():
    g1, t1 = ((2, 0), (0, 1)), (1, 0)
    g2, t2 = ((1, 1), (0, 1)), (0, F(1, 3))
    q1 = transform_by_affine(transform_by_affine(UNIT_CIRCLE, g1, t1), g2, t2)
    comp = ((g2[0][0] * g1[0][0] + g2[0][1] * g1[1][0],
             g2[0][0] * g1[0][1] + g2[0][1] * g1[1][1]),
            (g2[1][0] * g1[0][0] + g2[1][1] * g1[1][0],
             g2[1][0] * g1[0][1] + g2[1][1] * g1[1][1]))
    tau = (g2[0][0] * t1[0] + g2[0][1] * t1[1] + t2[0],
           g2[1][0] * t1[0] + g2[1][1] * t1[1] + t2[1])
    q2 = transform_by_affine(UNIT_CIRCLE, comp, tau)
    assert canonical_scale(q1).coeffs() == canonical_scale(q2).coeffs()


RATIONALS = st.fractions(-6, 6, max_denominator=9)
# int coefficients too: the image form must still hold only Fractions
FORMS = st.builds(QForm3, *([st.one_of(st.integers(-6, 6), RATIONALS)] * 6))


@st.composite
def invertible_maps(draw):
    g = ((draw(RATIONALS), draw(RATIONALS)), (draw(RATIONALS), draw(RATIONALS)))
    if g[0][0] * g[1][1] == g[0][1] * g[1][0]:
        # a singular draw becomes an invertible map of either sign
        g = ((draw(st.sampled_from((1, -1))), g[0][1]), (0, 1))
    return g


@settings(max_examples=200, deadline=None)
@given(FORMS, invertible_maps(), st.tuples(RATIONALS, RATIONALS))
def test_transform_by_affine_matches_the_reference(q, g, tau):
    got = transform_by_affine(q, g, tau)
    ref = oracles.reference_transform_by_affine(q, g, tau)
    assert got == ref
    assert repr(got) == repr(ref)


NONCOLLINEAR = st.lists(st.tuples(RATIONALS, RATIONALS), min_size=3,
                        max_size=3, unique=True).filter(
    lambda Z: (Z[1][0] - Z[0][0]) * (Z[2][1] - Z[0][1])
    != (Z[1][1] - Z[0][1]) * (Z[2][0] - Z[0][0]))


@settings(max_examples=100, deadline=None)
@given(NONCOLLINEAR, st.tuples(RATIONALS, RATIONALS, RATIONALS), FORMS)
def test_pencil_coefficients_recover_the_combination(Z, c, off):
    nb = natural_basis(Z)
    q = combine(zip(c, nb.forms))
    assert pencil_coefficients(q, nb) == c
    # a form off the pencil is nonzero at some point of the triple
    if any(off(lift(p)) != 0 for p in Z):
        with pytest.raises(ValueError, match="not in the pencil"):
            pencil_coefficients(combine([(1, q), (1, off)]), nb)
