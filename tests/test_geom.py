"""Rotation flow, quadruple forms, homothety classes, and the half-plane map."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import from_poly
from flatconic.geom import HPoint, INFINITY, class_key, h_point, mobius
from flatconic.lemma import (
    Config,
    check_geometric_lemma,
    normalize_ellipse,
    oriented_bisector,
    q_rotation,
    quadruple_form,
    rotation_angle,
)
from flatconic.quadform import transform_by_affine

I2 = ((1, 0), (0, 1))
DISC = from_poly(1, 0, 1, 0, 0, -1)
HEX = from_poly(1, 1, 1, 0, 0, -1)


def mat(rows):
    return np.array([[float(v) for v in r] for r in rows])


def test_rotation_preserves_the_form_and_orientation():
    qbar = ((2, 1), (1, 3))
    A = mat(qbar)
    for theta in (0.3, 1.7, 4.4):
        E = mat(q_rotation(qbar, theta))
        assert np.allclose(E.T @ A @ E, A, atol=1e-12)
        assert abs(np.linalg.det(E) - 1) < 1e-12


def test_rotation_group_law_and_period():
    qbar = ((3, -1), (-1, 2))
    E1, E2 = mat(q_rotation(qbar, 0.9)), mat(q_rotation(qbar, 2.2))
    assert np.allclose(E1 @ E2, mat(q_rotation(qbar, 3.1)), atol=1e-12)
    assert np.allclose(mat(q_rotation(qbar, 2 * math.pi)), np.eye(2), atol=1e-12)


angle = st.floats(min_value=0.05, max_value=6.2)


@settings(max_examples=50, deadline=None)
@given(angle, angle)
def test_rotation_group_law_property(a, b):
    qbar = ((5, 2), (2, 4))
    lhs = mat(q_rotation(qbar, a)) @ mat(q_rotation(qbar, b))
    rhs = mat(q_rotation(qbar, (a + b) % (2 * math.pi)))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_rotation_flow_runs_clockwise_on_the_circle():
    # e(pi/2) carries (1,0) to (0,-1): the flow orientation is clockwise
    E = mat(q_rotation(I2, math.pi / 2))
    assert np.allclose(E @ np.array([1, 0]), np.array([0, -1]), atol=1e-12)
    assert abs(rotation_angle(I2, (1, 0), (0, -1)) - math.pi / 2) < 1e-9
    assert abs(rotation_angle(I2, (1, 0), (0, 1)) - 3 * math.pi / 2) < 1e-9


def test_rotation_angle_moves_points_along_the_flow():
    qbar = ((1, 0), (0, 4))
    theta = rotation_angle(qbar, (1, 0), (0, F(1, 2)))
    assert abs(theta - 3 * math.pi / 2) < 1e-9
    E = mat(q_rotation(qbar, theta))
    assert np.allclose(E @ np.array([1, 0]), np.array([0, 0.5]), atol=1e-9)


def test_oriented_bisector_is_antisymmetric():
    b1 = oriented_bisector(I2, (1, 0), (0, 1))
    b2 = oriented_bisector(I2, (0, 1), (1, 0))
    assert np.allclose(np.array(b1), -np.array(b2), atol=1e-12)


def clockwise_circle_points(ts):
    return [(math.cos(-t), math.sin(-t)) for t in ts]


def test_quadruple_form_eigenline_memberships():
    Q = clockwise_circle_points((0.0, 1.0, 2.5, 4.0))
    qf = quadruple_form(I2, Q)
    assert np.allclose(qf.angles, (0.0, 1.0, 2.5, 4.0), atol=1e-9)
    ux, uy = qf.u_Q
    nx, ny = qf.negative_line
    assert abs(ux * ny - uy * nx) / math.hypot(ux, uy) < 1e-9
    v01 = oriented_bisector(I2, Q[0], Q[1])
    v23 = oriented_bisector(I2, Q[2], Q[3])
    d = (v23[0] - v01[0], v23[1] - v01[1])
    px, py = qf.positive_line
    assert abs(d[0] * py - d[1] * px) / math.hypot(*d) < 1e-9


def test_quadruple_form_rejects_misordered_points():
    Q = clockwise_circle_points((0.0, 1.0, 2.5, 4.0))
    with pytest.raises(ValueError, match="ordering"):
        quadruple_form(I2, [Q[0], Q[2], Q[1], Q[3]])
    with pytest.raises(ValueError, match="distinct"):
        quadruple_form(I2, [Q[0], Q[0], Q[1], Q[2]])


def test_normalize_ellipse_puts_the_boundary_on_a_unit_level_set():
    # (x-3)^2 + 4(y+1)^2 = 5
    q = from_poly(1, 0, 4, -6, 8, 8)
    t, lam, qbar = normalize_ellipse(q)
    assert np.allclose(t, (-3.0, 1.0), atol=1e-12)
    for s in (0.3, 2.0, 5.5):
        z = (3 + math.sqrt(5) * math.cos(s), -1 + math.sqrt(5) / 2 * math.sin(s))
        w = (lam * (z[0] + t[0]), lam * (z[1] + t[1]))
        val = (qbar[0][0] * w[0] ** 2 + 2 * qbar[0][1] * w[0] * w[1]
               + qbar[1][1] * w[1] ** 2)
        assert abs(val - 1) < 1e-9


def test_normalize_is_idempotent_on_the_disc():
    t, lam, qbar = normalize_ellipse(DISC)
    assert np.allclose(t, (0.0, 0.0), atol=1e-12)
    assert abs(lam - 1.0) < 1e-12
    assert np.allclose(mat(qbar), np.eye(2), atol=1e-12)


def test_homothety_class_kinds():
    assert class_key(DISC) == ("ellipse", 0, 1)
    assert not h_point(DISC).ideal
    strip = from_poly(0, 0, 1, 0, -1, 0)
    assert class_key(strip) == ("strip", 1, 0)
    assert h_point(strip) == HPoint(True, INFINITY)
    half_plane = from_poly(0, 0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        class_key(half_plane)
    with pytest.raises(ValueError):
        h_point(half_plane)


def test_class_key_is_exact_and_translation_invariant():
    assert class_key(HEX) == ("ellipse", F(1, 2), F(1))
    shifted = transform_by_affine(HEX, I2, (F(5), F(-7)))
    assert class_key(shifted) == class_key(HEX)
    assert class_key(HEX.scaled(F(7, 2))) == class_key(HEX)
    assert class_key(from_poly(1, -2, 1, 1, -1, 0)) == ("strip", 1, 1)


def test_h_point_values():
    assert h_point(DISC) == HPoint(False, (0, 1))
    assert h_point(from_poly(1, 0, 4, 0, 0, -1)) == HPoint(False, (0, 4))
    assert h_point(HEX) == HPoint(False, (F(-1, 2), F(3, 4)))
    horiz = h_point(from_poly(0, 0, 1, 0, -1, 0))
    assert horiz.ideal and horiz.value == INFINITY
    diag = h_point(from_poly(1, -2, 1, 1, -1, 0))
    assert diag.ideal and diag.value == 1


def test_h_point_is_equivariant_for_the_linear_action():
    g = ((1, 1), (0, 1))
    sheared = transform_by_affine(HEX, g, (0, 0))
    assert mobius(g, h_point(HEX)) == h_point(sheared)


def test_h_points_print_correctly_rounded():
    # Gram [[1, 2/3], [2/3, 4/3]]: -2/3 + i sqrt(8/9)
    assert str(h_point(from_poly(1, F(4, 3), F(4, 3), 0, 0, -1))) == \
        "-0.6666666666666666+0.9428090415820634i"
    assert str(h_point(HEX)) == "-0.5+0.8660254037844386i"
    assert str(h_point(DISC)) == "0.0+1.0i"
    assert str(HPoint(True, F(-3, 2))) == "-3/2"
    assert str(HPoint(True, INFINITY)) == "inf"


def _rounding_interval(y: float) -> tuple:
    """The reals that round to the float y > 0, as exact Fraction bounds."""
    lo = (F(y) + F(math.nextafter(y, 0))) / 2
    hi = (F(y) + F(math.nextafter(y, math.inf))) / 2
    return lo, hi


@settings(max_examples=200, deadline=None)
@given(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 9),
       st.fractions(F(1, 10 ** 12), 10 ** 12, max_denominator=10 ** 12))
@example(F(-2, 3), F(8, 9))
@example(F(0), F(1, 3))
def test_printed_h_point_is_the_nearest_float(x, y2):
    text = str(HPoint(False, (x, y2)))
    assert text.endswith("i")
    real, imag = text[:-1].rsplit("+", 1)
    assert float(real) == float(x)
    y = float(imag)
    lo, hi = _rounding_interval(y)
    assert lo * lo <= y2 <= hi * hi
    assert HPoint(False, (x, y2)).as_complex() == complex(float(x), y)


def test_mobius_exact_on_rational_ideal_points():
    T = ((1, 1), (0, 1))
    S = ((0, -1), (1, 0))
    z = mobius(T, HPoint(True, F(1, 2)))
    assert z.ideal and z.value == F(3, 2)
    assert mobius(S, HPoint(True, INFINITY)).value == 0
    assert mobius(S, HPoint(True, F(0))).value == INFINITY
    assert mobius(S, HPoint(False, (0, 1))) == HPoint(False, (0, 1))
    assert mobius(T, HPoint(False, (F(-1, 2), F(3, 4)))) == \
        HPoint(False, (F(1, 2), F(3, 4)))


def chord_strip(p, q):
    a = p[1] - q[1]
    b = q[0] - p[0]
    c = -(a * p[0] + b * p[1])
    return from_poly(a * a, 2 * a * b, b * b, 2 * a * c - a, 2 * b * c - b, c * c - c)


def circle_config(transform=None):
    """Five clockwise circle points with chord strips on nonsuccessive pairs."""
    pts = clockwise_circle_points((0.2, 1.1, 2.3, 3.6, 5.0))
    ell = DISC
    if transform is not None:
        g, tau = transform
        pts = [(g[0][0] * x + g[0][1] * y + tau[0],
                g[1][0] * x + g[1][1] * y + tau[1]) for x, y in pts]
        ell = transform_by_affine(ell, g, tau)
    pairs = {}
    for i in range(5):
        for j in range(i + 1, 5):
            if (j - i) % 5 not in (1, 4):
                pairs[(i, j)] = chord_strip(pts[i], pts[j])
    return Config(ell, tuple(pts), pairs)


BETA = {i: i for i in range(5)}


def test_lemma_accepts_translates_and_dilates():
    A = circle_config()
    assert check_geometric_lemma(A, A, BETA).ok
    assert check_geometric_lemma(A, circle_config((I2, (2.5, -1.0))), BETA).ok
    assert check_geometric_lemma(
        A, circle_config((((3, 0), (0, 3)), (0.5, 0.25))), BETA).ok


def test_lemma_rejects_a_rotated_copy():
    A = circle_config()
    th = math.radians(7)
    R = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
    report = check_geometric_lemma(A, circle_config((R, (0, 0))), BETA)
    assert not report.ok
    assert report.failures
    assert max(report.parallel_residuals) > 0.05


def test_lemma_rejects_a_nonconjugating_beta():
    A = circle_config()
    bad = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
    assert not check_geometric_lemma(A, A, bad).ok
