"""Affine recovery, windowed Veech membership, and tessellation output."""

import functools
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from flatconic import veech
from flatconic.cellcomplex import build_complex, matching_from_affine, rigid_conics
from flatconic.geom import INFINITY, class_key, h_point, mobius
from flatconic.models import l_shape, square_torus, two_marked_torus
from flatconic.quadform import transform_by_affine
from flatconic.subconic import SubconicKind
from flatconic.surface import develop, dist2
from flatconic.veech import (
    discover_affine,
    psi_of_quadruple,
    reconstruct,
    tessellate,
    veech_check,
)

T = ((1, 1), (0, 1))
S = ((0, -1), (1, 0))
SEED = ((0, 0), (0, 1), (1, 0))


def apply(g, tau, p):
    return (g[0][0] * p[0] + g[0][1] * p[1] + tau[0],
            g[1][0] * p[0] + g[1][1] * p[1] + tau[1])


QUAD = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_psi_recovers_an_affine_map_exactly():
    g, tau = ((2, 1), (1, 1)), (F(1, 3), F(-2))
    cand = psi_of_quadruple(QUAD, [apply(g, tau, p) for p in QUAD])
    assert cand.linear == ((F(2), F(1)), (F(1), F(1)))
    assert cand.homothety == 1
    assert cand.translation == (F(1, 3), F(-2))
    sheared = psi_of_quadruple(QUAD, [apply(T, (0, 0), p) for p in QUAD])
    assert sheared.linear == T
    assert {type(x) for x in (*sheared.linear[0], *sheared.linear[1],
                              sheared.homothety, *sheared.translation)} == {F}


def test_psi_factors_out_the_homothety():
    g, tau = ((2, 1), (1, 1)), (F(1, 3), F(-2))
    doubled = [(2 * x, 2 * y) for x, y in (apply(g, tau, p) for p in QUAD)]
    cand = psi_of_quadruple(QUAD, doubled)
    assert cand.homothety == 2
    assert cand.linear == ((F(2), F(1)), (F(1), F(1)))
    assert cand.translation == (F(2, 3), F(-4))


def test_psi_rejects_bad_quadruples():
    with pytest.raises(ValueError, match="collinear"):
        psi_of_quadruple([(0, 0), (1, 0), (2, 0), (1, 1)],
                         [(0, 0), (1, 0), (2, 0), (1, 1)])
    bad = [apply(T, (0, 0), p) for p in QUAD]
    bad[3] = (bad[3][0] + 1, bad[3][1])
    with pytest.raises(ValueError, match="fourth point"):
        psi_of_quadruple(QUAD, bad)
    with pytest.raises(ValueError, match="orientation-reversing"):
        psi_of_quadruple(QUAD, [(x, -y) for x, y in QUAD])


@pytest.fixture(scope="module")
def torus_chart():
    return develop(square_torus(), radius=6)


@pytest.fixture(scope="module")
def torus_conics(torus_chart):
    return rigid_conics(torus_chart)


@pytest.fixture(scope="module")
def window_a(torus_chart):
    return build_complex(torus_chart, SEED, budget=12)


@pytest.fixture(scope="module")
def window_b_sheared():
    sheared = square_torus().mapped(T)
    return build_complex(develop(sheared), ((0, 0), (1, 1), (0, 1)), budget=20)


def test_reconstruct_recovers_the_shear(window_a, window_b_sheared):
    phi = matching_from_affine(window_a, window_b_sheared, T, (0, 0))
    rec = reconstruct(window_a, window_b_sheared, phi)
    assert rec.linear == ((F(1), F(1)), (F(0), F(1)))
    assert rec.homothety == 1
    assert rec.translation == (F(0), F(0))


def test_reconstruct_identity(window_a):
    phi = matching_from_affine(window_a, window_a, ((1, 0), (0, 1)), (0, 0))
    rec = reconstruct(window_a, window_a, phi)
    assert rec.linear == ((F(1), F(0)), (F(0), F(1)))
    assert rec.homothety == 1 and rec.translation == (F(0), F(0))


def test_discover_affine_prefers_the_presented_map():
    A = build_complex(develop(square_torus(), radius=6), SEED, budget=6)
    B = build_complex(develop(square_torus().mapped(T)),
                      ((0, 0), (1, 1), (0, 1)), budget=10)
    rec, phi = discover_affine(A, B)
    assert rec.linear == ((F(1), F(1)), (F(0), F(1)))
    assert rec.homothety == 1
    assert rec.translation == (F(0), F(0))
    assert phi.faces


def test_discover_affine_meets_candidates_in_sorted_order(monkeypatch):
    # ties between certified maps are broken by the order of discovery:
    # pairs of 1-cells in sorted (A, B) order, each sending the A 1-cell onto
    # the 4 cyclic rotations of the B 1-cell in sorted order of the images
    A = build_complex(develop(square_torus(), radius=2), budget=3)
    B = build_complex(develop(square_torus().mapped(T), radius=2), budget=5)
    calls = []

    def record(Z, Zp):
        if sys._getframe(1).f_code.co_name == "discover_affine":
            calls.append((tuple(Z), tuple(sorted(Zp)), tuple(Zp)))
        return psi_of_quadruple(Z, Zp)

    monkeypatch.setattr(veech, "psi_of_quadruple", record)
    rec, _ = discover_affine(A, B)
    assert rec.linear == T and rec.translation == (0, 0)
    assert calls == sorted(calls)
    pairs = Counter((qa, qb) for qa, qb, _ in calls)
    assert set(pairs) == {(qa, qb) for qa in A.edges for qb in B.edges}
    assert set(pairs.values()) == {4}


def test_shear_is_a_member_in_window(torus_chart, torus_conics):
    v = veech_check(square_torus(), T, chart=torus_chart, conics=torus_conics)
    assert v.is_member
    assert str(v) == "member-in-window (R=6)"
    assert v.translation is not None


def test_rotation_is_a_member_in_window(torus_chart, torus_conics):
    v = veech_check(square_torus(), S, chart=torus_chart, conics=torus_conics)
    assert v.is_member


def test_half_shear_is_rejected(torus_chart, torus_conics):
    half = ((1, F(1, 2)), (0, 1))
    v = veech_check(square_torus(), half, chart=torus_chart, conics=torus_conics)
    assert v.verdict == "rejected"
    assert not v.is_member


def test_non_unimodular_matrices_are_refused():
    with pytest.raises(ValueError, match="determinant"):
        veech_check(square_torus(), ((2, 0), (0, 1)))


def test_tessellation_structure(window_a):
    tess = tessellate(window_a)
    assert len(tess.faces) == len(window_a.cells) == 12
    ids = [f.id for f in tess.faces]
    assert len(set(ids)) == 12
    for f in tess.faces:
        assert len(f.vertices) == 3
        for hp in f.vertices:
            assert hp.ideal  # torus strips only: every corner is ideal
    assert len(tess.vertex_points) == len(window_a.vertices)


def test_tessellation_farey_triples(window_a):
    # each face's three ideal points are pairwise Farey neighbors
    tess = tessellate(window_a)
    for f in tess.faces:
        vals = []
        for hp in f.vertices:
            if hp.value == INFINITY:
                vals.append((F(1), F(0)))
            else:
                fr = F(hp.value)
                vals.append((fr.numerator, fr.denominator))
        for i in range(3):
            for j in range(i + 1, 3):
                (p, q), (r, s) = vals[i], vals[j]
                assert abs(p * s - q * r) == 1


def test_tessellation_edges_use_face_corners(window_a):
    tess = tessellate(window_a)
    corner_pairs = set()
    for f in tess.faces:
        vs = [str(v) for v in f.vertices]
        for i in range(3):
            corner_pairs.add(frozenset((vs[i], vs[(i + 1) % 3])))
    for _, (a, b) in tess.edges:
        assert frozenset((str(a), str(b))) in corner_pairs


# ---------------------------------------------------------------------------
# the hoisted conic-class test against the reference check in oracles.py

VERDICT_STRATA = {
    "torus-R3": (square_torus(), 3),
    "marked-third-R2": (two_marked_torus(marked=(F(1, 3), F(1, 3))), 2),
    "L-R3": (l_shape(), 3),
    "L-R4": (l_shape(), 4),
}
VERDICT_MATRICES = (T, S, ((1, 2), (0, 1)), ((2, 1), (1, 1)),
                    ((1, F(1, 2)), (0, 1)))


@pytest.mark.parametrize("stratum", sorted(VERDICT_STRATA))
def test_veech_verdicts_match_the_reference(stratum):
    surface, radius = VERDICT_STRATA[stratum]
    chart = develop(surface, None, radius)
    conics = rigid_conics(chart)
    details = []
    for g in VERDICT_MATRICES:
        got = veech_check(surface, g, radius, chart=chart, conics=conics)
        ref = oracles.reference_veech_check(surface, g, radius, chart=chart,
                                            conics=conics)
        assert got == ref
        details.append(got.detail)
    if stratum == "L-R4":
        # S passes the cone-point test and fails the class test
        assert "maps to an unseen homothety class" in details[1]


@pytest.mark.parametrize("g, norm2, radius",
                         [(S, 1, F(3, 2)), (((2, 0), (0, F(1, 2))), 4, 3)])
def test_the_safe_sub_window_is_closed(g, norm2, radius):
    # ||g||^2 is rational for both maps; from the base (1/2, 0) the cone
    # point (2, 0) lies exactly on the safe circle of radius R/||g|| = 3/2
    chart = develop(square_torus(), ("p0", (F(1, 2), 0)), radius)
    d2 = [dist2(p.position, chart.base) * norm2 for p in chart.window_points]
    assert radius ** 2 in d2
    verdict = veech_check(square_torus(), g, radius, chart=chart,
                          conics=rigid_conics(chart))
    assert verdict.checked_points == sum(d <= radius ** 2 for d in d2)


@functools.cache
def _rigid_pool():
    return [u for surface, radius in (
                (two_marked_torus(marked=(F(1, 3), F(1, 5))), 2),
                (square_torus(), 3), (l_shape(), 3), (oracles.stretched_l(), 2))
            for u in rigid_conics(develop(surface, None, radius))]


# ellipses and strips in equal measure; the pool is built on first draw
RIGID_FORMS = st.one_of(*(
    st.deferred(lambda k=k: st.sampled_from(
        [u.subconic.form for u in _rigid_pool() if u.kind is k]))
    for k in (SubconicKind.ELLIPSE_INTERIOR, SubconicKind.STRIP)))
SL2Z_SMALL = [((a, b), (c, d)) for a in range(-3, 4) for b in range(-3, 4)
              for c in range(-3, 4) for d in range(-3, 4) if a * d - b * c == 1]


@settings(max_examples=60, deadline=None)
@given(RIGID_FORMS, st.sampled_from(SL2Z_SMALL),
       st.tuples(st.fractions(-5, 5, max_denominator=12),
                 st.fractions(-5, 5, max_denominator=12)))
def test_image_class_does_not_depend_on_the_translation(q, g, tau):
    assert class_key(transform_by_affine(q, g, tau)) == \
        class_key(transform_by_affine(q, g, (0, 0)))


@settings(max_examples=60, deadline=None)
@given(RIGID_FORMS, st.sampled_from(SL2Z_SMALL))
def test_h_point_is_exactly_equivariant(q, g):
    assert mobius(g, h_point(q)) == h_point(transform_by_affine(q, g, (0, 0)))
