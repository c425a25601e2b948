"""Rigid conics, two-cells, links, window complexes, and cell matchings."""

import dataclasses
import functools
import json
import math
import numbers
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (_on_lattice, _strip_form, from_poly, natural_basis,
                     positions, realizable_quadruple, realizable_triple)

from flatconic import cellcomplex
from flatconic.cellcomplex import (
    CellMatching,
    NotRealizable,
    WindowTooSmall,
    _strip_rigid,
    _window_zeros,
    build_complex,
    complex_to_json,
    default_seed,
    feasible_region,
    follows,
    frontier_bijection,
    link,
    matching_from_affine,
    rigid_conics,
    two_cell,
)
from flatconic.linalg import convex_hull_ccw, cross
from flatconic.models import square_torus, two_marked_torus
from flatconic.quadform import QForm3, canonical_scale, ellipse_center
from flatconic.subconic import SubconicKind, classify, contains
from flatconic.surface import (Chart, SurfaceError, develop, dist2,
                               parse_surface, rebase, subconic_fits,
                               to_lattice, to_position)

SEED = ((0, 0), (0, 1), (1, 0))


@pytest.fixture(scope="module")
def torus_chart():
    return develop(square_torus(), radius=6)


@pytest.fixture(scope="module")
def marked_chart():
    tm = two_marked_torus(marked=(F(1, 2), F(1, 4)))
    return develop(tm, base=("t0", (F(1, 4), F(1, 12))), radius=2)


@pytest.fixture(scope="module")
def torus_window(torus_chart):
    return build_complex(torus_chart, SEED, budget=30)


@pytest.fixture(scope="module")
def marked_rigid(marked_chart):
    return rigid_conics(marked_chart)


def test_default_seed_is_the_nearest_realizable_triple(torus_chart):
    assert default_seed(torus_chart) == SEED


def test_seed_cell_is_the_central_triangle(torus_chart):
    cell = two_cell(torus_chart, SEED)
    assert cell.complete
    assert cell.polygon == ((0, F(1, 2), F(1, 2)),
                            (F(1, 2), 0, F(1, 2)),
                            (F(1, 2), F(1, 2), 0))
    assert all(c is not None and c.kind is SubconicKind.STRIP
               for c in cell.vertex_conics)


def test_vertex_conics_vanish_on_their_triple(torus_chart):
    cell = two_cell(torus_chart, SEED)
    for conic in cell.vertex_conics:
        for z in cell.triple:
            assert contains(conic.subconic.form, z) == 0


def test_realizable_triple_checks(torus_chart):
    assert realizable_triple(torus_chart, SEED)
    assert not realizable_triple(torus_chart, ((0, 0), (1, 0), (2, 0)))
    assert not realizable_triple(torus_chart, ((0, 0), (5, 0), (0, 5)))
    # a cone point inside the triangle kills it
    assert not realizable_triple(torus_chart, ((0, 0), (3, 1), (1, 3)))


def test_a_cone_point_at_the_centroid_is_not_realizable():
    # the centroid (0, 0) is a cone point strictly inside the triangle, so
    # the chart cannot be re-based there, and the triple is still decided
    chart = develop(square_torus(), radius=3)
    triple = ((1, 1), (0, -1), (-1, 0))
    assert realizable_triple(chart, triple) is False
    assert realizable_quadruple(chart, triple + ((2, 2),)) is False
    with pytest.raises(NotRealizable, match="strictly inside"):
        feasible_region(chart, triple)


def test_unit_square_is_a_realizable_quadruple(torus_chart):
    assert realizable_quadruple(torus_chart, ((0, 0), (1, 0), (1, 1), (0, 1)))


def test_collinear_triples_are_not_realizable(torus_chart):
    with pytest.raises(NotRealizable, match="collinear"):
        two_cell(torus_chart, ((0, 0), (1, 0), (2, 0)))


def test_two_cell_outside_the_window_is_rejected(torus_chart):
    with pytest.raises(NotRealizable):
        two_cell(torus_chart, ((0, 0), (5, 0), (0, 5)))


def test_torus_window_counts(torus_window):
    assert len(torus_window.cells) == 30
    assert len(torus_window.edges) == 53
    assert len(torus_window.vertices) == 23
    assert not torus_window.exhausted
    assert all(v.kind is SubconicKind.STRIP
               for v in torus_window.vertices.values())


def test_torus_cells_are_unimodular_triangles(torus_window):
    for key in torus_window.cells:
        (x1, y1), (x2, y2), (x3, y3) = key
        det = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        assert abs(det) == 1


def test_window_edges_connect_cells(torus_window):
    # the 2-cells form one connected component through shared 1-cells
    adj = {k: set() for k in torus_window.cells}
    for rec in torus_window.edges.values():
        names = rec["cells"]
        for a in names:
            for b in names:
                if a != b and a in adj and b in adj:
                    adj[a].add(b)
    start = next(iter(sorted(adj)))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    assert seen == set(adj)


def test_strip_successors_advance_by_the_direction(torus_window):
    saw_low, saw_high = False, False
    for v in torus_window.vertices.values():
        succ = v.successor()
        if succ.get((F(0), F(0))) == (F(1), F(0)):
            saw_low = True
        if succ.get((F(1), F(0))) == (F(0), F(0)):
            saw_high = True
        # along each boundary line the step is a constant vector
        for line in v.boundary:
            steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(line, line[1:])}
            assert len(steps) <= 1
    assert saw_low and saw_high


def test_budget_one_keeps_only_the_seed(torus_chart):
    w = build_complex(torus_chart, SEED, budget=1)
    assert len(w.cells) == 1 and not w.exhausted
    assert len(w.edges) == 3 and len(w.vertices) == 3


def test_tiny_window_exhausts():
    ch = develop(square_torus(), radius=F(5, 4))
    w = build_complex(ch, SEED, budget=500)
    assert w.exhausted
    assert len(w.cells) == 4


def test_serialization_is_deterministic(torus_chart, torus_window):
    js = complex_to_json(torus_window)
    again = build_complex(develop(square_torus(), radius=6), SEED, budget=30)
    assert complex_to_json(again) == js
    doc = json.loads(js)
    assert sorted(doc.keys()) == ["edges", "faces", "vertices", "window"]
    assert len(doc["faces"]) == 30
    assert len(doc["vertices"]) == 23
    assert {v["kind"] for v in doc["vertices"]} == {"strip"}


def test_marked_torus_finds_ellipses(marked_rigid):
    rig = marked_rigid
    ells = [u for u in rig if u.kind is SubconicKind.ELLIPSE_INTERIOR]
    strips = [u for u in rig if u.kind is SubconicKind.STRIP]
    assert len(ells) == 32
    assert len(strips) == 83
    unt = [u for u in ells if not u.truncated]
    assert Counter(len(u.boundary) for u in unt) == {5: 14, 6: 13}


def test_first_marked_ellipse_frozen_values(marked_rigid):
    u = [u for u in marked_rigid
         if u.kind is SubconicKind.ELLIPSE_INTERIOR][0]
    assert canonical_scale(u.subconic.form).coeffs() == (
        F(1), F(4, 3), F(2), F(2, 3), F(3, 2), F(4, 3))
    # on the lattice Z^2 / 4
    assert u.boundary == ((-6, -3), (-4, -4), (-2, -3), (-4, 0), (-6, 1))
    assert positions(u.boundary, 4) == ((F(-3, 2), F(-3, 4)), (F(-1), F(-1)),
                                        (F(-1, 2), F(-3, 4)), (F(-1), F(0)),
                                        (F(-3, 2), F(1, 4)))
    assert not u.truncated


def test_ellipse_boundary_points_lie_on_the_conic(marked_rigid):
    for u in marked_rigid:
        if u.kind is not SubconicKind.ELLIPSE_INTERIOR:
            continue
        for z in u.boundary:
            assert contains(u.form, z) == 0
            assert contains(u.subconic.form, to_position(z, u.scale)) == 0


def untruncated(rig, n):
    for u in rig:
        if (u.kind is SubconicKind.ELLIPSE_INTERIOR and not u.truncated
                and len(u.boundary) == n):
            return u
    raise AssertionError(f"no untruncated ellipse with {n} boundary points")


def test_link_of_a_five_point_ellipse(marked_rigid):
    L = link(untruncated(marked_rigid, 5))
    assert len(L.vertices) == 5          # n(n-3)/2 for n=5
    assert len(L.edges) == 10
    assert all(L.undirected_degree(v) == 4 for v in L.vertices)


def test_link_of_a_six_point_ellipse(marked_rigid):
    L = link(untruncated(marked_rigid, 6))
    assert len(L.vertices) == 9          # n(n-3)/2 for n=6
    assert all(L.undirected_degree(v) == 4 for v in L.vertices)


def test_follows_is_the_directed_step(marked_rigid):
    six = untruncated(marked_rigid, 6)
    cyc = six.boundary

    def quad(idxs):
        return tuple(sorted(cyc[i % 6] for i in idxs))

    q1, q2, q3 = quad((0, 1, 2, 3)), quad((1, 2, 3, 4)), quad((2, 3, 4, 5))
    assert follows(six, q1, q2) and follows(six, q2, q3)
    assert not follows(six, q2, q1)
    with pytest.raises(ValueError, match="share a triple"):
        follows(six, q1, q3)
    with pytest.raises(ValueError, match="not realizable"):
        follows(six, q1, quad((1, 2, 3, 5)))


def test_identity_matching_and_bijection(torus_chart):
    A = build_complex(torus_chart, SEED, budget=12)
    phi = matching_from_affine(A, A, ((1, 0), (0, 1)), (0, 0))
    assert len(phi.faces) == 12
    assert all(k == v for k, v in phi.faces.items())
    assert all(k == v for k, v in phi.edges.items())
    assert all(k == v for k, v in phi.vertices.items())
    beta = frontier_bijection(A, A, phi)
    assert beta and all(k == v for k, v in beta.items())


def test_shear_matching_transports_cone_points(torus_chart):
    A = build_complex(torus_chart, SEED, budget=12)
    T = ((1, 1), (0, 1))
    B = build_complex(develop(square_torus().mapped(T)),
                      ((0, 0), (1, 1), (0, 1)), budget=20)
    phi = matching_from_affine(A, B, T, (0, 0))
    assert len(phi.faces) == 6
    assert len(phi.vertices) == 11
    beta = frontier_bijection(A, B, phi)
    assert len(beta) == 68
    assert all(v == (k[0] + k[1], k[1]) for k, v in beta.items())


def test_matching_rejects_maps_with_no_common_cells(torus_chart):
    A = build_complex(torus_chart, SEED, budget=12)
    with pytest.raises(ValueError, match="matches no cells"):
        matching_from_affine(A, A, ((1, F(1, 2)), (0, 1)), (0, 0))
    with pytest.raises(ValueError, match="matches no cells"):
        matching_from_affine(A, A, ((1, 0), (0, 1)), (F(1, 3), 0))


def test_frontier_bijection_rejects_non_injective_matchings(torus_chart):
    A = build_complex(torus_chart, SEED, budget=12)
    phi = matching_from_affine(A, A, ((1, 0), (0, 1)), (0, 0))
    faces = dict(phi.faces)
    keys = sorted(faces)
    faces[keys[0]] = faces[keys[1]]
    bad = CellMatching(faces, dict(phi.edges), dict(phi.vertices))
    with pytest.raises(ValueError, match="not injective"):
        frontier_bijection(A, A, bad)
    # the same edit made in place on the matching's own dictionary
    phi.faces[keys[0]] = phi.faces[keys[1]]
    with pytest.raises(ValueError, match="not injective"):
        frontier_bijection(A, A, phi)


# ---------------------------------------------------------------------------
# the integer-frame rigid conics against the Fraction reference in oracles.py

STOCK = {path.stem: parse_surface(path.read_text())
         for path in sorted((Path(__file__).resolve().parent.parent
                             / "surfaces").glob("*.tsurf"))}


def rigid_surface(spec):
    if spec[0] == "stock":
        return STOCK[spec[1]]
    if spec[0] == "marked":
        return two_marked_torus(marked=spec[1])
    return oracles.stretched_l()


@st.composite
def rigid_cases(draw):
    """(surface spec, base or None, radius): a stock model at R2-R4 from a
    base of denominator <= 8, a two-marked torus with marked point of
    denominators 3-5 at R3/2, or the stretched L at R2."""
    family = draw(st.sampled_from(["stock", "marked", "stretched_l"]))
    if family == "marked":
        m = tuple(draw(st.builds(F, st.integers(1, 4), st.integers(3, 5))
                       .filter(lambda f: f < 1 and f.denominator >= 3))
              for _ in range(2))
        return ("marked", m), None, F(3, 2)
    if family == "stretched_l":
        return ("stretched_l",), None, F(2)
    name = draw(st.sampled_from(sorted(STOCK)))
    pid, verts = draw(st.sampled_from(STOCK[name].polygons))
    x = draw(st.fractions(min(v[0] for v in verts), max(v[0] for v in verts),
                          max_denominator=8))
    y = draw(st.fractions(min(v[1] for v in verts), max(v[1] for v in verts),
                          max_denominator=8))
    assume((x, y) not in verts
           and oracles.reference_point_in_polygon((x, y), verts) >= 0)
    # the stock two-marked torus has rigid ellipses: beyond R2 its 5-cliques
    # take the reference minutes
    radii = [2] if name == "two_marked_torus" else [2, 3, 4]
    return ("stock", name), (pid, (x, y)), F(draw(st.sampled_from(radii)))


@settings(max_examples=6, deadline=None)
@given(rigid_cases())
@example((("marked", (F(1, 3), F(1, 5))), None, F(2)))
@example((("stock", "torus"), None, F(6)))
def test_integer_frame_rigid_conics_match_the_fraction_reference(case):
    spec, base, radius = case
    chart = develop(rigid_surface(spec), base, radius)
    got = positions(rigid_conics(chart), chart.surface.scale)
    ref = oracles.reference_rigid_conics(chart)
    assert [(u.kind, u.subconic.form, u.boundary, u.truncated) for u in got] \
        == [(u.kind, u.subconic.form, u.boundary, u.truncated) for u in ref]
    assert repr(got) == repr(ref)


def _numbers(obj):
    """Every number inside a result: dataclass fields, a chart's fields,
    containers, dict keys and values."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, Chart):
        for name in Chart._FIELDS:
            yield from _numbers(getattr(obj, name))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(k)
            yield from _numbers(v)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, numbers.Number) and not isinstance(obj, bool):
        yield obj


@pytest.mark.parametrize("name", ["torus_chart", "marked_chart"])
def test_complex_and_rigid_conics_hold_only_ints_and_fractions(name, request):
    # strips on the torus, strips and ellipses on the marked torus
    chart = request.getfixturevalue(name)
    window = build_complex(chart, default_seed(chart), budget=6)
    conics = rigid_conics(chart)
    assert conics and window.vertices
    assert {type(x) for x in _numbers((window, conics))} <= {int, F}


# ---------------------------------------------------------------------------
# int constraints, homogeneous clipping and int window scans against the
# Fraction reference in oracles.py

@functools.lru_cache(maxsize=None)
def cached_chart(spec, base, radius):
    return develop(rigid_surface(spec), base, radius)


@st.composite
def chart_cases(draw):
    """(surface spec, base or None, radius): a stock model from a base of
    denominator <= 8, a two-marked torus with marked point of denominators
    2-5, or the stretched L, at R2 or R3."""
    family = draw(st.sampled_from(["stock", "marked", "stretched_l"]))
    radius = F(draw(st.sampled_from([2, 3])))
    if family == "marked":
        m = tuple(draw(st.builds(F, st.integers(1, 4), st.integers(2, 5))
                       .filter(lambda f: f < 1)) for _ in range(2))
        return ("marked", m), None, radius
    if family == "stretched_l":
        return ("stretched_l",), None, radius
    name = draw(st.sampled_from(sorted(STOCK)))
    pid, verts = draw(st.sampled_from(STOCK[name].polygons))
    x = draw(st.fractions(min(v[0] for v in verts), max(v[0] for v in verts),
                          max_denominator=8))
    y = draw(st.fractions(min(v[1] for v in verts), max(v[1] for v in verts),
                          max_denominator=8))
    assume((x, y) not in verts
           and oracles.reference_point_in_polygon((x, y), verts) >= 0)
    return ("stock", name), (pid, (x, y)), radius


@st.composite
def point_cases(draw, k):
    """A chart case and k distinct visible points among the ten nearest the
    base, no three collinear."""
    spec, base, radius = draw(chart_cases())
    chart = cached_chart(spec, base, radius)
    near = sorted((p.position for p in chart.points),
                  key=lambda p: (dist2(p, chart.base), p))[:10]
    assume(len(near) >= k)
    pts = draw(st.lists(st.sampled_from(near), min_size=k, max_size=k,
                        unique=True))
    assume(all(cross(*t) != 0 for t in combinations(pts, 3)))
    return spec, base, radius, tuple(pts)


def _region_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NotRealizable, WindowTooSmall) as e:
        return (type(e).__name__, str(e))


def _homogeneous(t1, t2):
    W = math.lcm(F(t1).denominator, F(t2).denominator)
    return int(t1 * W), int(t2 * W), W


def _reference_region(chart, Z, equality=None):
    """`reference_feasible_region` on the positions of lattice points, read
    back as `two_cell` reads a region: its triple and sources on the
    lattice, its vertices as homogeneous ints."""
    L = chart.surface.scale
    ref = oracles.reference_feasible_region(
        chart, positions(list(Z), L),
        None if equality is None else positions(tuple(equality), L))
    return dataclasses.replace(
        ref, vertices=[_homogeneous(t1, t2) for t1, t2 in ref.polygon],
        triple=tuple(to_lattice(p, L) for p in ref.triple),
        constraints=[(a, b, c, to_lattice(w, L))
                     for a, b, c, w in ref.constraints])


def _reference_two_cell(chart, Z):
    # `two_cell` building its cell on the reference region
    with mock.patch.object(cellcomplex, "feasible_region", _reference_region):
        return _region_outcome(two_cell, chart, Z)


def _positive_multiple(row, ref) -> bool:
    ratios = {F(u) / v for u, v in zip(row, ref) if v != 0}
    return (all(u == 0 for u, v in zip(row, ref) if v == 0)
            and len(ratios) == 1 and ratios.pop() > 0)


@settings(max_examples=40, deadline=None)
@given(point_cases(3))
@example((("stock", "torus"), None, F(6), SEED))
# (1, 0) lies on a side of the triangle, not strictly inside it
@example((("stock", "torus"), None, F(3), ((0, 0), (2, 0), (0, 2))))
# the centroid (1/2, 1/2) is the marked point: no chart is based there
@example((("marked", (F(1, 2), F(1, 2))), None, F(2),
          ((F(1, 2), F(-1, 2)), (F(0), F(1)), (F(1), F(1)))))
def test_int_two_cells_match_the_fraction_reference(case):
    spec, base, radius, Z = case
    chart = cached_chart(spec, base, radius)
    L = chart.surface.scale
    Z = tuple(to_lattice(p, L) for p in Z)
    got = _region_outcome(feasible_region, chart, Z)
    ref = _region_outcome(oracles.reference_feasible_region, chart,
                          positions(Z, L))
    if got[0] != "ok" or ref[0] != "ok":
        assert got == ref
    else:
        got, ref = got[1], ref[1]
        assert (got.polygon, got.chart, positions(got.triple, L)) == \
            (ref.polygon, ref.chart, ref.triple)
        assert repr(got.polygon) == repr(ref.polygon)
        assert [(F(X, W), F(Y, W)) for X, Y, W in got.vertices] == got.polygon
        assert all(W > 0 and math.gcd(X, Y, W) == 1 for X, Y, W in got.vertices)
        assert [positions(c[3], L) for c in got.constraints] == \
            [c[3] for c in ref.constraints]
        assert all(type(x) is int
                   for c in got.constraints for x in (*c[:3], *c[3]))
        assert all(_positive_multiple(c[:3], r[:3])
                   for c, r in zip(got.constraints, ref.constraints))
    cell, ref_cell = _region_outcome(two_cell, chart, Z), _reference_two_cell(chart, Z)
    assert cell == ref_cell
    assert repr(cell) == repr(ref_cell)


@settings(max_examples=40, deadline=None)
@given(point_cases(4))
@example((("stock", "torus"), None, F(6), ((0, 0), (1, 0), (1, 1), (0, 1))))
@example((("marked", (F(1, 3), F(1, 3))), None, F(2),
          ((F(-1), F(0)), (F(-2, 3), F(1, 3)), (F(0), F(0)), (F(1, 3), F(1, 3)))))
# the centroid of the first three points is the cone point (0, 0)
@example((("stock", "l_shape"), ("p0", (F(1, 2), F(1, 2))), F(2),
          ((F(1), F(0)), (F(-1), F(1)), (F(0), F(-1)), (F(0), F(0)))))
def test_realizable_quadruples_match_the_fraction_reference(case):
    # `equality` clipping: every triple of the quadruple is cut to the line
    # through the fourth point
    spec, base, radius, Z4 = case
    chart = cached_chart(spec, base, radius)
    Z4 = [to_lattice(p, chart.surface.scale) for p in Z4]
    with mock.patch.object(cellcomplex, "feasible_region", _reference_region):
        ref = _region_outcome(realizable_quadruple, chart, Z4)
    assert _region_outcome(realizable_quadruple, chart, Z4) == ref


RIGID_CASES = ((("marked", (F(1, 3), F(1, 3))), None, F(2)),
               (("marked", (F(1, 3), F(1, 5))), None, F(2)),
               (("stock", "two_marked_torus"), None, F(2)))


@functools.lru_cache(maxsize=None)
def cached_ellipses(case):
    return tuple(u.subconic.form for u in rigid_conics(cached_chart(*case))
                 if u.kind is SubconicKind.ELLIPSE_INTERIOR)


@st.composite
def window_scan_cases(draw):
    """(chart case, form, recentre): an ellipse of `rigid_conics`, or an
    ellipse through one of the six visible cone points nearest the base,
    centred within 1/2 of the base;
    with recentre set the chart is re-based at the centre, as
    `_ellipse_rigid` does."""
    if draw(st.booleans()):
        case = draw(st.sampled_from(RIGID_CASES))
        forms = cached_ellipses(case)
        assume(forms)
        q = draw(st.sampled_from(forms))
    else:
        case = draw(chart_cases())
        chart = cached_chart(*case)
        p = draw(st.sampled_from(sorted(
            chart.points, key=lambda p: (dist2(p.position, chart.base),
                                         p.position))[:6]))
        offset = st.fractions(F(-1, 2), F(1, 2), max_denominator=12)
        c = (chart.base[0] + draw(offset), chart.base[1] + draw(offset))
        m11 = draw(st.fractions(F(1, 4), 4, max_denominator=6))
        m22 = draw(st.fractions(F(1, 4), 4, max_denominator=6))
        m12 = draw(st.fractions(-2, 2, max_denominator=6))
        assume(m11 * m22 > m12 * m12)

        def m(u):
            return m11 * u[0] * u[0] + 2 * m12 * u[0] * u[1] + m22 * u[1] * u[1]

        k = m((p.position[0] - c[0], p.position[1] - c[1]))
        assume(k > 0)
        q = QForm3(m11, m22, m(c) - k, m12, -(m11 * c[0] + m12 * c[1]),
                   -(m12 * c[0] + m22 * c[1]))
    return case, q, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(window_scan_cases())
# the chart lists a cone point at its own base (see CHANGES): the ray from
# the base to it has alpha = 0, and the circle of radius 1/20 about
# (21/10, 1/10) beside it fits
@example(((("stretched_l",), ("p0", (F(2), F(0))), F(4)),
          from_poly(1, 0, 1, F(-21, 5), F(-1, 5), F(1767, 400)), False))
def test_int_window_scans_match_the_fraction_reference(case):
    chart_case, q, recentre = case
    chart = cached_chart(*chart_case)
    zeros = _window_zeros(chart, _on_lattice(q, chart.surface.scale))
    window = chart.window_points
    assert (None if zeros is None else [window[k].position for k in zeros]) \
        == oracles.reference_window_zeros(chart, q)
    if recentre:
        try:
            chart = rebase(chart, ellipse_center(q))
        except SurfaceError:
            return
    assert subconic_fits(chart, q) is oracles.reference_subconic_fits(chart, q)


# ---------------------------------------------------------------------------
# the strip builder against the Fraction reference in oracles.py

@functools.lru_cache(maxsize=None)
def cached_strip_vertices(case):
    """(triple, form) for every vertex of a budget-4 window's cells whose
    form classifies as a strip."""
    chart = cached_chart(*case)
    try:
        window = build_complex(chart, budget=4)
    except (NotRealizable, WindowTooSmall):
        return ()
    scale = chart.surface.scale
    return tuple((positions(key, scale), form)
                 for key, cell in sorted(window.cells.items())
                 for t1, t2, _ in cell.polygon
                 if classify(form := oracles._form_at(
                     natural_basis(positions(cell.triple, scale)), t1,
                     t2)).kind is SubconicKind.STRIP)


@st.composite
def strip_cases(draw):
    """(chart case, re-base point or None, form, whether the form must give
    None): a strip vertex form of a 2-cell, or the `_strip_form` of two
    levels along the direction of two window points, which must give None
    when a level lies between them; the chart as developed, or re-based at
    the centroid of a cell's triple."""
    case = draw(chart_cases())
    vertices = cached_strip_vertices(case)
    assume(vertices)
    triple, q = draw(st.sampled_from(vertices))
    centre = None
    if draw(st.booleans()):
        centre = (sum(p[0] for p in triple) / 3, sum(p[1] for p in triple) / 3)
    if not draw(st.booleans()):
        return case, centre, q, False
    window = [p.position for p in cached_chart(*case).window_points]
    a, b = draw(st.lists(st.sampled_from(window), min_size=2, max_size=2,
                         unique=True))
    d = oracles._ref_primitive((b[0] - a[0], b[1] - a[1]))
    normal = (-d[1], d[0])
    levels = sorted({normal[0] * x + normal[1] * y for x, y in window})
    i = draw(st.integers(0, len(levels) - 2))
    j = draw(st.integers(i + 1, len(levels) - 1))
    return case, centre, _strip_form(normal, levels[i], levels[j]), j > i + 1


@settings(max_examples=40, deadline=None)
@given(strip_cases())
@example(((("stock", "torus"), None, F(3)), None,
          _strip_form((0, 1), F(0), F(1)), False))
@example(((("stock", "torus"), None, F(3)), (F(1, 3), F(1, 3)),
          _strip_form((0, 1), F(0), F(2)), True))
# consecutive levels, the lower holding one window point: None
@example(((("stock", "torus"), None, F(3)), None,
          _strip_form((-1, 2), F(-6), F(-5)), False))
@example(((("stretched_l",), None, F(2)), (F(1, 2), F(1, 3)),
          _strip_form((-1, 0), F(1, 2), F(1)), False))
def test_strips_match_the_fraction_reference(case):
    chart_case, centre, q, must_be_none = case
    chart = cached_chart(*chart_case)
    if centre is not None:
        chart = rebase(chart, centre)
    scale = chart.surface.scale
    got = positions(_strip_rigid(chart, _on_lattice(q, scale)), scale)
    ref = oracles.reference_strip_rigid(chart, q)
    assert got == ref
    assert repr(got) == repr(ref)
    if must_be_none:
        assert got is None


# ---------------------------------------------------------------------------
# the lattice vertex forms of `two_cell` against the Fraction pencil member

VERTEX_FORM_CASES = [("stock", name) for name in sorted(STOCK)] + [
    ("marked", (F(1, 3), F(1, 5))), ("stretched_l",)]


@pytest.mark.parametrize("spec", VERTEX_FORM_CASES, ids=str)
@pytest.mark.parametrize("radius", [2, 3])
def test_lattice_vertex_forms_match_the_fraction_pencil(spec, radius):
    # every vertex and side midpoint of every cell of a budget-6 window: the
    # lattice form classifies as the Fraction form does, and mapped to
    # positions it has the same canonical scale
    chart = cached_chart(spec, None, F(radius))
    scale = chart.surface.scale
    window = build_complex(chart, budget=6)
    checked = 0
    for cell in window.cells.values():
        basis = cellcomplex._lattice_basis(cell.triple)
        fraction_basis = natural_basis(positions(cell.triple, scale))
        verts = [(t1, t2) for t1, t2, _ in cell.polygon]
        points = verts + [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                          for a, b in zip(verts, verts[1:] + verts[:1])]
        for t1, t2 in points:
            lattice = cellcomplex._vertex_form(basis, *_homogeneous(t1, t2))
            assert all(type(c) is int for c in lattice.coeffs())
            ref = oracles._form_at(fraction_basis, t1, t2)
            assert classify(lattice) == classify(ref)
            on_positions = cellcomplex._on_positions(lattice, scale)
            assert canonical_scale(on_positions) == canonical_scale(ref)
            assert repr(canonical_scale(on_positions)) == \
                repr(canonical_scale(ref))
            checked += 1
    assert checked >= 3 * len(window.cells)


# ---------------------------------------------------------------------------
# lattice points end to end: every point inside a window is an int pair, and
# its position is the one the Fraction references find

COVERAGE_CASES = [("stock", name) for name in sorted(STOCK)] + [
    ("marked", (F(1, 3), F(1, 5)))]


def _is_point(p) -> bool:
    return type(p) is tuple and len(p) == 2 and all(type(c) is int for c in p)


@pytest.mark.parametrize("spec", COVERAGE_CASES, ids=str)
@pytest.mark.parametrize("radius", [2, 3])
def test_window_points_are_lattice_ints_at_the_reference_positions(spec,
                                                                   radius):
    chart = cached_chart(spec, None, F(radius))
    L = chart.surface.scale
    window = build_complex(chart, budget=6)
    keys = [*window.cells, *window.edges, *window.vertices, window.seed]
    assert all(_is_point(p) for key in keys for p in key)
    for key, cell in window.cells.items():
        assert key == cell.key() and all(_is_point(p) for p in cell.triple)
        # the triple and the supporter of each side, where the reference
        # region puts them
        ref = oracles.reference_feasible_region(chart,
                                                positions(cell.triple, L))
        assert ref.triple == positions(cell.triple, L)
        sources = {w for *_, w in ref.constraints}
        for quad in cell.edge_quadruples:
            if quad is not None:
                assert all(_is_point(p) for p in quad)
                (supporter,) = set(quad) - set(cell.triple)
                assert positions(supporter, L) in sources
    for key, U in window.vertices.items():
        assert key == U.key()
        assert all(_is_point(p) for p in U.boundary_points())
        # the boundary is the zero set of the position form on the window
        if U.kind is SubconicKind.STRIP:
            assert oracles.reference_strip_rigid(chart, U.subconic.form) \
                == positions(U, L)
        else:
            zeros = oracles.reference_window_zeros(chart, U.subconic.form)
            assert tuple(convex_hull_ccw(zeros)) == positions(U.boundary, L)
