"""Surface descriptions, validation, and developing-map windows."""

import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import from_poly
from flatconic.cellcomplex import build_complex
from flatconic.models import l_shape, square_torus, two_marked_torus
from flatconic.quadform import ellipse_center
from flatconic.subconic import (DegenerateConfiguration, SubconicKind,
                                conic_through_five)
from flatconic.surface import (
    Chart,
    Fit,
    SurfaceError,
    default_base,
    develop,
    dist2,
    locate,
    parse_surface,
    rebase,
    subconic_fits,
    surface_to_json,
    validate_surface,
)

SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
TORUS_GLUE = [(("p0", 0), ("p0", 2)), (("p0", 1), ("p0", 3))]


def test_square_torus_has_one_cone_class_of_angle_two_pi():
    t = square_torus()
    assert [pid for pid, _ in t.polygons] == ["p0"]
    assert t.cone_angles == {"c0": 1}
    assert set(t.cone_class.values()) == {"c0"}


def test_two_marked_torus_splits_the_square_and_adds_a_class():
    tm = two_marked_torus(marked=(F(1, 2), F(1, 4)))
    assert [pid for pid, _ in tm.polygons] == ["t0", "t1", "t2", "t3"]
    assert tm.cone_angles == {"c0": 1, "c1": 1}


def test_l_shape_cone_angle_is_six_pi():
    assert l_shape().cone_angles == {"c0": 3}
    # a straight corner, at (1, 0), and unequal squares
    assert oracles.stretched_l().cone_angles == {"c0": 3}


def test_validation_rejects_unglued_edges():
    with pytest.raises(SurfaceError, match="unglued"):
        validate_surface((("p0", SQUARE),), [(("p0", 0), ("p0", 2))])


def test_validation_rejects_mismatched_edge_vectors():
    rect = (("p0", ((0, 0), (2, 0), (2, 1), (0, 1))),)
    with pytest.raises(SurfaceError, match="not opposite"):
        validate_surface(rect, [(("p0", 0), ("p0", 1)), (("p0", 2), ("p0", 3))])


def test_validation_rejects_clockwise_polygons():
    cw = (("p0", ((0, 0), (0, 1), (1, 1), (1, 0))),)
    with pytest.raises(SurfaceError, match="counterclockwise"):
        validate_surface(cw, TORUS_GLUE)


def test_validation_rejects_duplicate_ids():
    dup = (("p0", SQUARE), ("p0", tuple((x + 2, y) for x, y in SQUARE)))
    with pytest.raises(SurfaceError, match="duplicate"):
        validate_surface(dup, TORUS_GLUE)


def test_json_roundtrip_is_stable():
    for s in (square_torus(), two_marked_torus(marked=(F(1, 2), F(1, 4))), l_shape()):
        txt = surface_to_json(s)
        again = parse_surface(txt)
        assert again == s
        assert surface_to_json(again) == txt


def test_parse_rejects_malformed_text():
    with pytest.raises(SurfaceError):
        parse_surface("{not json")
    with pytest.raises(SurfaceError):
        parse_surface("{}")


def test_default_base_is_the_centroid_of_the_first_polygon():
    assert default_base(square_torus()) == ("p0", (F(1, 2), F(1, 2)))


def test_develop_radius_one_sees_the_four_corners():
    ch = develop(square_torus(), radius=1)
    assert sorted(d.position for d in ch.points) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert ch.occluded == ()
    assert all(d.cone_id == "c0" for d in ch.points)


def test_develop_radius_six_window_and_occlusion():
    ch = develop(square_torus(), radius=6)
    assert len(ch.points) == 92
    assert len(ch.occluded) == 20
    # (-4, -1) sits on the base ray through the nearer lattice point (-1, 0)
    occ = {d.position for d in ch.occluded}
    assert (F(-4), F(-1)) in occ
    assert (F(-1), F(0)) not in occ
    # every window point keeps distance <= radius from the base
    for d in list(ch.points) + list(ch.occluded):
        dx = d.position[0] - ch.base[0]
        dy = d.position[1] - ch.base[1]
        assert dx * dx + dy * dy <= 36


def test_develop_paths_record_edge_crossings():
    ch = develop(square_torus(), radius=2)
    far = {d.position: d for d in ch.points}
    assert far[(F(1), F(0))].path == () or far[(F(1), F(0))].path[0][0] == "p0"
    # a point two squares away needs at least one crossing
    assert any(len(d.path) >= 1 for d in ch.points)


def test_develop_rejects_bad_bases_and_radius():
    t = square_torus()
    with pytest.raises(SurfaceError, match="cone point"):
        develop(t, base=("p0", (0, 0)))
    with pytest.raises(SurfaceError, match="not inside"):
        develop(t, base=("p0", (3, 3)))
    with pytest.raises(SurfaceError, match="radius"):
        develop(t, radius=0)


def test_locate_and_rebase():
    t = square_torus()
    ch = develop(t, radius=3)
    assert locate(ch, (F(1, 2), F(1, 2))) == ("p0", (F(1, 2), F(1, 2)))
    moved = rebase(ch, (F(1, 4), F(1, 4)), radius=2)
    assert moved.base == (F(1, 4), F(1, 4))
    assert {d.position for d in moved.points} <= {
        p for p in ((x, y) for x in range(-2, 4) for y in range(-2, 4))}


def test_mapped_shears_vertices_and_keeps_gluings():
    sheared = square_torus().mapped(((1, 1), (0, 1)))
    assert sheared.polygon("p0") == ((0, 0), (1, 0), (2, 1), (1, 1))
    assert sheared.gluings == square_torus().gluings
    with pytest.raises(SurfaceError, match="orientation"):
        square_torus().mapped(((1, 0), (0, -1)))


def test_scaled_multiplies_coordinates():
    doubled = square_torus().scaled(2)
    assert doubled.polygon("p0") == ((0, 0), (2, 0), (2, 2), (0, 2))


# ---------------------------------------------------------------------------
# the integer-frame kernel against the Fraction reference in oracles.py

STOCK = Path(__file__).resolve().parent.parent / "surfaces"
UNFOLDED = {path.stem: parse_surface(path.read_text())
            for path in sorted(STOCK.glob("*.tsurf"))}
UNFOLDED["stretched_l"] = oracles.stretched_l()
UNFOLDED["marked_third_fifth"] = two_marked_torus(marked=(F(1, 3), F(1, 5)))


# ---------------------------------------------------------------------------
# the surface's one lattice

LATTICE_SURFACES = dict(UNFOLDED)
LATTICE_SURFACES["mapped_l"] = l_shape().mapped(((2, F(1, 3)), (F(1, 7), 1)))


@pytest.mark.parametrize("name", sorted(LATTICE_SURFACES))
def test_every_chart_and_window_lies_on_the_surface_lattice(name):
    surface = LATTICE_SURFACES[name]
    L = surface.scale
    assert L == math.lcm(*(F(c).denominator for _, verts in surface.polygons
                           for v in verts for c in v))
    charts = [develop(surface, radius=3)]
    if name == "stretched_l":
        # lists a cone point at its own base
        charts.append(develop(surface, ("p0", (2, 0)), 4))
    for chart in list(charts):
        # halfway to the nearest cone point: inside the window and on no
        # cone point
        near = min(chart.points, key=lambda p: (dist2(p.position, chart.base),
                                                p.position)).position
        charts.append(rebase(chart, ((chart.base[0] + near[0]) / 2,
                                     (chart.base[1] + near[1]) / 2)))
    for chart in charts:
        assert chart.lattice == tuple((p.position[0] * L, p.position[1] * L)
                                      for p in chart.window_points)
        assert all(type(c) is int for P in chart.lattice for c in P)
        assert all(L % F(c).denominator == 0
                   for pl in chart.placements for c in pl.translation)
    window = build_complex(charts[0], budget=6)
    assert window.cells
    keys = [k for keys in (window.cells, window.edges, window.vertices)
            for k in keys]
    assert all(L % F(c).denominator == 0 for k in keys for p in k for c in p)


@st.composite
def unfolding_cases(draw):
    """(surface name, base, radius, probe offsets from the base)."""
    name = draw(st.sampled_from(sorted(UNFOLDED)))
    pid, verts = draw(st.sampled_from(UNFOLDED[name].polygons))
    xs, ys = [v[0] for v in verts], [v[1] for v in verts]
    x = draw(st.fractions(min(xs), max(xs), max_denominator=7))
    y = draw(st.fractions(min(ys), max(ys), max_denominator=7))
    assume((x, y) not in verts
           and oracles.reference_point_in_polygon((x, y), verts) >= 0)
    radius = draw(st.sampled_from([F(2), F(7, 2), F(4)]))
    offset = st.fractions(-radius, radius, max_denominator=7)
    probes = draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=3))
    return name, (pid, (x, y)), radius, probes


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SurfaceError as e:
        return ("error", str(e))


@settings(max_examples=40, deadline=None)
@given(unfolding_cases())
@example(("stretched_l", ("p0", (2, 0)), F(4), [(F(1, 2), F(1, 3))]))
@example(("torus", ("p0", (0.375, 0.625)), 3.5, [(F(-1, 3), F(2, 7))]))
def test_integer_frame_unfolding_matches_the_fraction_reference(case):
    name, base, radius, probes = case
    surface = UNFOLDED[name]
    chart = develop(surface, base, radius)
    ref = oracles.reference_develop(surface, base, radius)
    assert chart.points == ref.points
    assert chart.occluded == ref.occluded
    assert chart.placements == ref.placements
    assert chart == ref
    assert isinstance(chart.radius, F) and all(isinstance(c, F) for c in chart.base)
    # the probes, plus a cone point (boundary of several placements)
    positions = [(chart.base[0] + dx, chart.base[1] + dy) for dx, dy in probes]
    positions += [p.position for p in chart.points[:1]]
    for pos in positions:
        assert _outcome(locate, chart, pos) == \
            _outcome(oracles.reference_locate, ref, pos)
        assert _outcome(rebase, chart, pos, F(2)) == \
            _outcome(oracles.reference_rebase, ref, pos, F(2))


@st.composite
def rebase_chains(draw):
    """(surface name, base, radius, steps): a chart and two or three
    re-bases in a row, each at an offset from the previous chart's base and
    with its own radius."""
    name, base, radius, _ = draw(unfolding_cases())
    offset = st.fractions(-2, 2, max_denominator=7)
    steps = draw(st.lists(st.tuples(st.tuples(offset, offset),
                                    st.sampled_from([F(2), F(5, 2), F(3)])),
                          min_size=2, max_size=3))
    return name, base, radius, steps


@settings(max_examples=25, deadline=None)
@given(rebase_chains())
# a re-base onto an edge of a re-based chart (a boundary placement), then
# onward
@example(("torus", ("p0", (F(1, 2), F(1, 3))), F(3),
          [((F(1, 3), F(1, 5)), F(3)), ((F(-1, 3), F(-8, 15)), F(2)),
           ((F(1, 2), F(1, 2)), F(2))]))
@example(("stretched_l", ("p0", (2, 0)), F(4),
          [((F(1, 2), F(1, 3)), F(3)), ((F(-1, 7), F(2, 7)), F(5, 2))]))
@example(("marked_third_fifth", ("t0", (F(1, 2), F(1, 10))), F(3),
          [((F(3, 7), F(-1, 7)), F(3)), ((F(-5, 7), F(2, 7)), F(2))]))
def test_chains_of_rebases_match_the_fraction_reference(case):
    # each chart of the chain is re-based from the previous one, so `locate`
    # and `rebase` read the int frame of a re-based chart
    name, base, radius, steps = case
    chart = develop(UNFOLDED[name], base, radius)
    ref = oracles.reference_develop(UNFOLDED[name], base, radius)
    for (dx, dy), step_radius in steps:
        pos = (chart.base[0] + dx, chart.base[1] + dy)
        got = _outcome(locate, chart, pos)
        want = _outcome(oracles.reference_locate, ref, pos)
        assert got == want
        assert repr(got) == repr(want)
        got = _outcome(rebase, chart, pos, step_radius)
        want = _outcome(oracles.reference_rebase, ref, pos, step_radius)
        assert got == want
        assert repr(got) == repr(want)
        if got[0] != "ok":
            return
        chart, ref = got[1], want[1]
        assert chart.lattice == ref.lattice


# ---------------------------------------------------------------------------
# the exact window bound of subconic_fits against the float reference

def _ellipse(center, a2, b2):
    """The form of (x - cx)^2/a2 + (y - cy)^2/b2 - 1, negative inside."""
    cx, cy = center
    return from_poly(F(1) / a2, 0, F(1) / b2, -2 * cx / a2, -2 * cy / b2,
                     cx * cx / a2 + cy * cy / b2 - 1)


def _shifted(chart, dx):
    return (chart.base[0] + dx, chart.base[1])


TIE_CHART = develop(two_marked_torus(), radius=1)
WIDE_CHART = develop(two_marked_torus(), radius=3)


@st.composite
def ellipse_window_cases(draw):
    """(chart, form): a two-marked-torus chart and the ellipse through five
    of its window points, the chart based where it was developed or, as in
    `rigid_conics`, re-based at the ellipse centre."""
    m = (F(draw(st.integers(1, 4)), 5), F(draw(st.integers(1, 4)), 5))
    radius = draw(st.sampled_from([F(3, 2), F(2), F(5, 2)]))
    chart = develop(two_marked_torus(marked=m), radius=radius)
    pts = [p.position for p in chart.window_points]
    picks = draw(st.lists(st.sampled_from(pts), min_size=5, max_size=5,
                          unique=True))
    try:
        U = conic_through_five(picks)
    except DegenerateConfiguration:
        U = None
    assume(U is not None and U.kind is SubconicKind.ELLIPSE_INTERIOR)
    if draw(st.booleans()):
        try:
            chart = rebase(chart, ellipse_center(U.form))
        except SurfaceError:
            assume(False)
    return chart, U.form


@settings(max_examples=80, deadline=None)
@given(ellipse_window_cases())
@example((TIE_CHART, _ellipse(TIE_CHART.base, 1, 1)))
@example((TIE_CHART, _ellipse(_shifted(TIE_CHART, F(1, 2)), F(1, 4), F(1, 4))))
@example((TIE_CHART, _ellipse(_shifted(TIE_CHART, 3), F(1, 16), F(1, 16))))
@example((WIDE_CHART, _ellipse(_shifted(WIDE_CHART, 1), 4, 1)))
def test_exact_window_bound_matches_the_float_reference(case):
    # the first two circles reach exactly R = 1, and the ellipse
    # x^2/4 + y^2 < 1 centred one unit right of the base reaches exactly
    # R = 3 (distance 1 plus semi-major axis 2): no test may certify them.
    # The small circle three units away is wholly outside the window.
    chart, q = case
    within = subconic_fits(chart, q) is not Fit.INCONCLUSIVE
    assert within == oracles.reference_ellipse_within(q, chart.base,
                                                      chart.radius)
