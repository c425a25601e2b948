"""Affine recovery, exact Veech membership, and tessellation output."""

import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import positions

from flatconic import veech
from flatconic.cellcomplex import (build_complex, frontier_bijection,
                                   matching_from_affine, rigid_conics)
from flatconic.geom import INFINITY, class_key, h_point, mobius
from flatconic.models import l_shape, square_torus, two_marked_torus
from flatconic.quadform import QForm3, canonical_scale, transform_by_affine
from flatconic.subconic import SubconicKind
from flatconic.surface import develop, parse_surface
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
STOCK = Path(__file__).resolve().parent.parent / "surfaces"


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


def test_shear_is_a_member_in_window():
    v = veech_check(square_torus(), T)
    assert v.is_member
    assert str(v) == "member-in-window (R=6)"
    assert v.translation is not None


def test_rotation_is_a_member_in_window():
    v = veech_check(square_torus(), S)
    assert v.is_member


def test_half_shear_is_rejected():
    half = ((1, F(1, 2)), (0, 1))
    v = veech_check(square_torus(), half)
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
# membership against the ground truth of oracles.py (lattice, marked points,
# origami), on the whole surface: no radius changes a verdict

TRUTH_SURFACES = {
    ("torus",): square_torus(),
    ("sheared",): square_torus().mapped(T),
    ("L",): l_shape(),
    **{("tm", m): two_marked_torus(marked=m)
       for m in ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 4)),
                 (F(1, 3), F(1, 5)), (F(2, 5), F(1, 5)))},
}
# every word of length <= 4 in T, T^-1 and S, and two non-integral matrices
TRUTH_MATRICES = [oracles.word_matrix("".join(w)) for n in range(5)
                  for w in itertools.product("TtS", repeat=n)]
TRUTH_MATRICES += [((1, F(1, 2)), (0, 1)), ((2, 0), (0, F(1, 2)))]


@pytest.mark.parametrize("spec", sorted(TRUTH_SURFACES, key=str),
                         ids=lambda spec: "-".join(map(str, [spec[0], *(
                             spec[1] if len(spec) > 1 else ())])))
def test_veech_verdicts_match_the_ground_truth(spec):
    surface = TRUTH_SURFACES[spec]
    members = 0
    for g in TRUTH_MATRICES:
        v = veech_check(surface, g, 2)
        assert v.is_member == oracles.member(spec, g), (g, v.detail)
        assert v.verdict in ("member-in-window", "rejected")
        assert (v.translation is None) == (v.sides is None) == \
            (not v.is_member)
        members += v.is_member
    assert 0 < members < len(TRUTH_MATRICES)


def test_the_stretched_l_has_only_the_tenth_power_of_t():
    # cylinders of modulus 5/2 (bottom) and 2 (top): T^k fixes both only
    # for k in 10 Z
    surface = oracles.stretched_l()
    got = [k for k in range(1, 13)
           if veech_check(surface, ((1, k), (0, 1)), 3).is_member]
    assert got == [10]


def test_a_member_verdict_certifies_a_side_bijection():
    from flatconic.delaunay import delaunay
    g = S
    v = veech_check(l_shape(), g, 4)
    assert v.is_member and sorted(v.sides) == list(range(len(v.sides)))
    a, b = delaunay(l_shape().mapped(g)), delaunay(l_shape())
    assert [b.vectors[j] for j in v.sides] == list(a.vectors)
    assert all(v.sides[a.nxt[i]] == b.nxt[v.sides[i]] and
               v.sides[a.glued[i]] == b.glued[v.sides[i]]
               for i in range(len(v.sides)))


def test_a_rejection_names_the_first_mismatch():
    v = veech_check(l_shape(), T, 3)
    assert v.verdict == "rejected" and v.translation is None
    assert v.detail == (
        "the Delaunay decompositions of g S (first) and S (second) differ: "
        "with side 0 (1, 0) sent onto side 1, the next side of side 4 "
        "(0, -1) does not match")


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


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


# rational det-1 matrices, as veech_check receives them: diag(k, 1/k) w and
# [[1, p/q], [0, 1]] w for w in SL(2, Z)
RATIONAL_SL2 = st.one_of(
    st.sampled_from(SL2Z_SMALL),
    st.builds(lambda k, w: _matmul(((k, 0), (0, 1 / k)), w),
              st.fractions(F(1, 5), 5, max_denominator=5),
              st.sampled_from(SL2Z_SMALL)),
    st.builds(lambda t, w: _matmul(((1, t), (0, 1)), w),
              st.fractions(-3, 3, max_denominator=7),
              st.sampled_from(SL2Z_SMALL)))


@settings(max_examples=120, deadline=None)
@example(QForm3(1, 1, -1, 0, 0, 0), ((2, 0), (0, F(1, 2))))
# a horizontal strip, at infinity, moved by a non-integral rational g
@example(QForm3(0, 1, 0, 0, 0, F(-1, 2)), ((F(1, 2), 0), (2, 2)))
@given(RIGID_FORMS, RATIONAL_SL2)
def test_h_point_is_exactly_equivariant(q, g):
    assert mobius(g, h_point(q)) == h_point(transform_by_affine(q, g, (0, 0)))


# ---------------------------------------------------------------------------
# affine vetting on lattice keys against the Fraction reference in oracles.py

WORDS = [((1, 0), (0, 1)), T, ((1, -1), (0, 1)), S]
WORDS += [tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                      for j in range(2)) for i in range(2))
          for a in WORDS[1:] for b in WORDS[1:]]
# sources whose windows have frame denominators above 1
SOURCES = {
    "marked-1/3-1/5": two_marked_torus(marked=(F(1, 3), F(1, 5))),
    "marked-1/2-1/4": two_marked_torus(marked=(F(1, 2), F(1, 4))),
    "marked-1/3-1/3": two_marked_torus(marked=(F(1, 3), F(1, 3))),
    "half-sheared": square_torus().mapped(((1, F(1, 2)), (0, 1))),
    "stretched-l": oracles.stretched_l(),
}


@functools.cache
def _window(source, word, factor, radius, budget):
    surface = SOURCES[source]
    if word is not None:
        surface = surface.mapped(tuple(tuple(factor * x for x in row)
                                       for row in word))
    return build_complex(develop(surface, None, radius), budget=budget)


@st.composite
def window_pairs(draw):
    """(source, word, factor): A is the source's window at R2, budget 3, and
    B the window of the source mapped by factor * word at R 2 * factor,
    budget 5."""
    return (draw(st.sampled_from(sorted(SOURCES))), draw(st.sampled_from(WORDS)),
            draw(st.sampled_from([1, 2])))


def _windows(case):
    source, word, factor = case
    return (_window(source, None, 1, 2, 3),
            _window(source, word, factor, 2 * factor, 5))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("raises", str(e))


def _raised(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] == "raises"


def _on_positions(A, B):
    """The windows A and B on positions, for the references."""
    return positions(A, A.chart.surface.scale), \
        positions(B, B.chart.surface.scale)


def _map_positions(d, A, B):
    """A map from A's lattice keys to B's, on positions."""
    la, lb = A.chart.surface.scale, B.chart.surface.scale
    return {positions(k, la): positions(v, lb) for k, v in d.items()}


@settings(max_examples=12, deadline=None)
@given(window_pairs())
@example(("marked-1/2-1/4", ((1, 0), (0, 1)), 2))
@example(("marked-1/3-1/5", T, 1))
@example(("half-sheared", ((1, -1), (1, 0)), 1))
def test_discover_affine_matches_the_fraction_reference(case):
    A, B = _windows(case)
    got = _outcome(discover_affine, A, B)
    ref = _outcome(oracles.reference_discover_affine, *_on_positions(A, B))
    if _raised(got) or _raised(ref):
        assert got == ref
    else:
        (rec, phi), (ref_rec, ref_phi) = got, ref
        assert (rec.g, rec.translation) == (ref_rec.g, ref_rec.translation)
        assert all(type(x) is F for x in (*rec.g[0], *rec.g[1],
                                          *rec.translation))
        faces, edges, vertices = (_map_positions(m, A, B) for m in (
            phi.faces, phi.edges, phi.vertices))
        assert (faces, edges, vertices) == \
            (ref_phi.faces, ref_phi.edges, ref_phi.vertices)
        assert list(faces) == list(ref_phi.faces)
        assert list(edges) == list(ref_phi.edges)


@st.composite
def affine_cases(draw):
    """A window pair and a map (g, tau): the map that made B, a random
    unimodular map times 1 or 2, or a shear by 1/2; tau zero, the difference
    of two window positions, or a random rational whose images mostly leave
    B's int frame."""
    case = draw(window_pairs())
    A, B = _windows(case)
    _, word, factor = case
    kind = draw(st.sampled_from(["true", "random", "half-shear"]))
    if kind == "true":
        g = tuple(tuple(factor * x for x in row) for row in word)
    elif kind == "random":
        k = draw(st.sampled_from([1, 2]))
        g = tuple(tuple(k * x for x in row)
                  for row in draw(st.sampled_from(SL2Z_SMALL)))
    else:
        g = ((1, F(1, 2)), (0, 1))
    shift = draw(st.sampled_from(["zero", "positions", "random"]))
    if shift == "zero":
        tau = (0, 0)
    elif shift == "positions":
        PA, PB = _on_positions(A, B)
        pa = draw(st.sampled_from(sorted({p for k in PA.cells for p in k})))
        pb = draw(st.sampled_from(sorted({p for k in PB.cells for p in k})))
        gp = apply(g, (0, 0), pa)
        tau = (pb[0] - gp[0], pb[1] - gp[1])
    else:
        tau = draw(st.tuples(st.fractions(-2, 2, max_denominator=8),
                             st.fractions(-2, 2, max_denominator=8)))
    return case, g, tau


@settings(max_examples=60, deadline=None)
@given(affine_cases())
@example(((("marked-1/2-1/4", ((1, 0), (0, 1)), 1)), ((1, 0), (0, 1)),
          (F(1, 8), 0)))
@example(((("marked-1/2-1/4", ((1, 0), (0, 1)), 2)), ((2, 0), (0, 2)),
          (0, 0)))
@example(((("marked-1/3-1/5", ((0, -1), (1, 0)), 1)), ((0, -1), (1, 0)),
          (0, 0)))
# both raise at the same cone point only when the pair search seeds in
# sorted order, not in the hash order of int or Fraction pairs
@example(((("marked-1/3-1/3", ((1, -1), (0, 1)), 1)), ((1, -1), (0, 1)),
          (0, 0)))
def test_matching_and_reconstruct_match_the_fraction_reference(case):
    window_case, g, tau = case
    A, B = _windows(window_case)
    PA, PB = _on_positions(A, B)
    phi = _outcome(matching_from_affine, A, B, g, tau)
    ref = _outcome(oracles.reference_matching_from_affine, PA, PB, g, tau)
    if _raised(phi) or _raised(ref):
        assert phi == ref
        return
    assert tuple(_map_positions(m, A, B)
                 for m in (phi.faces, phi.edges, phi.vertices)) == \
        (ref.faces, ref.edges, ref.vertices)
    beta = _outcome(frontier_bijection, A, B, phi)
    assert (beta if _raised(beta) else _map_positions(beta, A, B)) == \
        _outcome(oracles.reference_frontier_bijection, PA, PB, ref)
    assert _outcome(reconstruct, A, B, phi) == \
        _outcome(oracles.reference_reconstruct, PA, PB, ref)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_view_forms_are_primitive_with_a_positive_leading_entry(source):
    # the lattice form each rigid conic keeps, by which vertices match
    window = _window(source, None, 1, 2, 3)
    L = window.chart.surface.scale
    assert L > 1
    for key, U in window.vertices.items():
        assert key == U.key()
        form = U.form.coeffs()
        assert all(type(c) is int for c in form)
        assert math.gcd(*form) == 1
        assert next(c for c in form if c) > 0
        # the same class as the position form read at (X, Y, L)
        q = U.subconic.form
        framed = QForm3(q.a11, q.a22, L * L * q.a33, q.a12, L * q.a13,
                        L * q.a23)
        assert canonical_scale(QForm3(*form)) == canonical_scale(framed)


def test_discover_affine_meets_candidates_in_sorted_order_off_the_lattice(
        monkeypatch):
    # as above, on windows whose positions have denominator 4
    source = two_marked_torus(marked=(F(1, 2), F(1, 4)))
    A = build_complex(develop(source, radius=2), budget=3)
    B = build_complex(develop(source.mapped(T), radius=2), budget=5)
    assert A.chart.surface.scale == B.chart.surface.scale == 4
    calls = []

    def record(Z, Zp):
        if sys._getframe(1).f_code.co_name == "discover_affine":
            calls.append((tuple(Z), tuple(sorted(Zp)), tuple(Zp)))
        return psi_of_quadruple(Z, Zp)

    monkeypatch.setattr(veech, "psi_of_quadruple", record)
    discover_affine(A, B)
    assert calls == sorted(calls)
    pairs = Counter((qa, qb) for qa, qb, _ in calls)
    assert set(pairs) == {(qa, qb) for qa in A.edges for qb in B.edges}
    assert len(pairs) == len(A.edges) * len(B.edges)
    assert set(pairs.values()) == {4}


@pytest.mark.xfail(strict=True, reason="a strip clipped to the window lacks "
                   "the point that supports a side of a re-based 2-cell")
def test_marked_torus_edges_lie_on_their_endpoint_conics_at_radius_2():
    # the side of the cell {(-1/2,1/4), (0,0), (1,0)} supported by
    # (-3/2,1/4) has an endpoint strip whose boundary, clipped to the R2
    # window, lacks that point (2.007 from the base)
    surface = parse_surface((STOCK / "two_marked_torus.tsurf").read_text())
    A = build_complex(develop(surface, radius=2), budget=4)
    B = build_complex(develop(surface, radius=2), budget=6)
    for window in (A, B):
        for q, rec in window.edges.items():
            for v in rec["endpoints"]:
                assert set(q) <= set(window.vertices[v].boundary_points())
    identity = ((1, 0), (0, 1))
    rec = reconstruct(A, B, matching_from_affine(A, B, identity, (0, 0)))
    assert rec.g == identity and rec.translation == (0, 0)
