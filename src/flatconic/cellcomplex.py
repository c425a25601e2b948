"""The windowed cell complex of subconics meeting at least three cone points.

Vertices are rigid conics (ellipses through >= 5 cone points with empty
interior, and maximal strips), 1-cells are realizable quadruples, 2-cells are
realizable triples. Every cone point of every chart lies on the surface's
one integer lattice Z^2 / `surface.scale` (`Chart.lattice`), and inside the
complex a point is its lattice int pair, the position times the scale: the
boundaries and successor maps of rigid conics, the triples and 1-cells of
2-cells, the keys of a window's cells, edges and vertices, and the keys of a
cell matching and a frontier bijection. A positive scaling keeps the
lexicographic order, so every key sorts as its positions do. Points become
Fraction positions only through `surface.to_position`, in `complex_to_json`,
`_face_id` and error messages.

For a triple Z the 2-cell is computed exactly in the T-plane of its natural
pencil basis: every other cone point z contributes the linear constraint
q_t(z) >= 0, and the feasible polygon is cut out of the unit simplex by
Sutherland-Hodgman clipping. The constraints come from the int barycentric
coordinates of z on the lattice of a chart re-based at the centroid, a
positive multiple of each, and the clipped polygon keeps its vertices as
homogeneous int triples until it is returned.

Conics are lattice forms: int forms Q in the lattice coordinates (X, Y, 1).
The pencil members a 2-cell classifies (its interior sample, side midpoints
and vertices) are built from the int basis D_i = -2 Lambda_{i+1}
Lambda_{i+2} of the triple's int barycentric coordinates (`_lattice_basis`);
up to the congruence diag(scale, scale, 1), Q is a positive multiple of the
Fraction pencil member, so it has the same class, zeros and signs. A rigid
conic keeps its lattice form as a primitive int class (`_form_class`), and
its position form (`RigidConic.subconic`) is derived only for output. Only
`_ellipse_rigid` maps a form to positions before that (`_on_positions`), for
its centre and window certificate.

The chord graph of `rigid_conics` keys each pair by the signed primitive int
ray from one point to the other, so a chord is an edge iff its far end is
the nearest window point on that ray. A 5-clique of the chord graph is
solved for its conic only when its points are in strictly convex position
and their pentagon holds no window point; both tests are exact, since the
boundary points of an ellipse are in strictly convex position and a point
strictly inside their hull is strictly inside the ellipse. Every strip is
built by `_strip` from consecutive int levels along its normal.

Two windows are matched under an affine map on their lattice keys: the map
is carried to ints between the two lattices, and forms are matched by their
lattice classes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .geom import h_point
from .linalg import (clear_denominators, common_denominator, convex_hull_ccw,
                     cross, dot2, fraction_str, primitive, scaled_int)
from .quadform import QForm3, canonical_scale, congruent, ellipse_center
from .subconic import (Subconic, SubconicKind, classify, conic_through_five,
                       strip_direction)
from .surface import (Chart, Fit, SurfaceError, rebase, subconic_fits,
                      to_position)

Point = tuple[int, int]       # a lattice point: a position times the scale


class NotRealizable(ValueError):
    """The queried set is certifiably not the cone-point set of a subconic."""


class WindowTooSmall(ValueError):
    """The window cannot decide the query; a larger radius may."""


def _key(points) -> tuple:
    return tuple(sorted(points))


def _shown(points, scale: int) -> tuple:
    """Lattice points as positions, for messages."""
    return tuple(to_position(p, scale) for p in points)


# ---------------------------------------------------------------------------
# rigid conics

@dataclass(frozen=True)
class RigidConic:
    form: QForm3             # the lattice form's class (`_form_class`)
    kind: SubconicKind
    # lattice points. Ellipses: one counterclockwise cyclic tuple; strips:
    # two tuples, one per boundary line, each in successor (advance) order
    boundary: tuple
    truncated: bool
    scale: int               # the lattice is Z^2 / scale

    @cached_property
    def subconic(self) -> Subconic:
        """The conic on positions, for output: the form x -> form(scale x,
        scale y, 1) in `canonical_scale`."""
        return Subconic(canonical_scale(_on_positions(self.form, self.scale)),
                        self.kind)

    def boundary_points(self) -> tuple[Point, ...]:
        if self.kind is SubconicKind.ELLIPSE_INTERIOR:
            return self.boundary
        return tuple(self.boundary[0]) + tuple(self.boundary[1])

    def key(self) -> tuple:
        """The sorted boundary points; sorted once per conic."""
        return self._key

    @cached_property
    def _key(self) -> tuple:
        return _key(self.boundary_points())

    def successor(self) -> dict:
        """The next-point-along-the-boundary map (partial at window ends).
        Built once per conic and shared: callers must not modify it."""
        return self._successor

    @cached_property
    def _successor(self) -> dict:
        succ = {}
        if self.kind is SubconicKind.ELLIPSE_INTERIOR:
            cyc = self.boundary
            for i, p in enumerate(cyc):
                succ[p] = cyc[(i + 1) % len(cyc)]
        else:
            for line in self.boundary:
                for a, b in zip(line, line[1:]):
                    succ[a] = b
        return succ

    def predecessor(self) -> dict:
        """The inverse of `successor`, built once per conic and shared."""
        return self._predecessor

    @cached_property
    def _predecessor(self) -> dict:
        return {b: a for a, b in self._successor.items()}


def _window_zeros(chart: Chart, q: QForm3) -> Optional[list[int]]:
    """The indices into `chart.window_points` where the lattice form q
    vanishes, or None if q is negative at a window point, occluded ones
    included. q is evaluated at (X, Y, 1) for each `Chart.lattice` point."""
    zeros = []
    for k, (X, Y) in enumerate(chart.lattice):
        s = q((X, Y, 1))
        if s < 0:
            return None
        if s == 0:
            zeros.append(k)
    return zeros


def _form_class(coeffs) -> tuple:
    """The primitive int vector of a nonzero int form, with its first nonzero
    coefficient positive. For an indefinite form, such as every rigid conic's,
    this is exactly the class `canonical_scale` picks."""
    g = math.gcd(*coeffs)
    if next(c for c in coeffs if c) < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def _on_positions(q: QForm3, scale: int) -> QForm3:
    """The position form of a lattice form: x -> q(scale x, scale y, 1),
    the congruence by diag(scale, scale, 1)."""
    return QForm3(*congruent(q.coeffs(), ((scale, 0), (0, scale)), (0, 0), 1))


def _ellipse_rigid(chart: Chart, q: QForm3) -> Optional[RigidConic]:
    """Extend an ellipse's lattice form to its full windowed rigid conic, or
    reject.

    Checks >= 5 boundary cone points, empty interior, and the immersion
    certificate from a chart re-based at the ellipse center. Boundary and
    interior tests run over every developed point of the window (occluded
    ones included), so the result does not depend on the chart's base. Only
    a form that passes the scan goes to positions, for its centre and the
    certificate.
    """
    zeros = _window_zeros(chart, q)
    if zeros is None or len(zeros) < 5:
        return None
    scale = chart.surface.scale
    qp = _on_positions(q, scale)
    fit = subconic_fits(rebase(chart, ellipse_center(qp)), qp)
    if fit is Fit.NO:
        return None
    cyc = convex_hull_ccw([chart.lattice[k] for k in zeros])
    if len(cyc) != len(zeros):
        return None  # boundary points of an ellipse are in convex position
    return RigidConic(QForm3(*_form_class(q.coeffs())),
                      SubconicKind.ELLIPSE_INTERIOR, tuple(cyc),
                      fit is not Fit.YES, scale)


def _strip_rigid(chart: Chart, q: QForm3) -> Optional[RigidConic]:
    """Windowed maximal strip through the zero set of a strip's lattice form
    q, or None unless q >= 0 on the window and vanishes on exactly two
    lattice levels with >= 2 points each (then q is a positive multiple of
    `_strip`'s on the lattice)."""
    d = strip_direction(q)
    zeros = _window_zeros(chart, q)
    if zeros is None:
        return None
    levels = _levels(chart, d, zeros)
    if len(levels) != 2 or any(len(ks) < 2 for _, ks in levels):
        return None
    return _strip(chart, d, *levels)


def _levels(chart: Chart, d: tuple, indices) -> list:
    """(level, window indices) per lattice level along the normal of d."""
    normal = (-d[1], d[0])
    levels: dict = {}
    for k in indices:
        levels.setdefault(dot2(normal, chart.lattice[k]), []).append(k)
    return sorted(levels.items())


def _strip(chart: Chart, d: tuple, lower: tuple, upper: tuple) -> RigidConic:
    """The truncated strip between the `_levels` buckets lower = (lo, low)
    and upper = (hi, high), lo < hi, of the canonical primitive direction d.
    Its form 2 (l - lo)(l - hi), l = nx X + ny Y the normal functional, is
    negative exactly between the lines; its successor advances +d on the low
    line and -d on the high one, so (advance, inward normal) is positively
    oriented."""
    ints = chart.lattice
    (lo, low), (hi, high) = lower, upper
    low, high = (sorted(ks, key=lambda k: dot2(d, ints[k]))
                 for ks in (low, high))
    nx, ny = -d[1], d[0]
    form = _form_class((2 * nx * nx, 2 * ny * ny, 2 * lo * hi, 2 * nx * ny,
                        -(lo + hi) * nx, -(lo + hi) * ny))
    return RigidConic(QForm3(*form), SubconicKind.STRIP,
                      (tuple(ints[k] for k in low),
                       tuple(ints[k] for k in reversed(high))),
                      True, chart.surface.scale)


def rigid_conics(chart: Chart) -> list[RigidConic]:
    """All windowed rigid conics: empty-interior ellipses through >= 5 cone
    points (that fit the chart) and maximal strips with 2+2 boundary points.

    Runs on the surface's lattice (`Chart.lattice`): every point is an int
    pair, its position times the surface's scale.

    Ellipses come from a clique search over the chord graph of the visible
    points. An occluded point can block a chord too, and a cone point strictly
    inside a chord would be strictly inside the ellipse. For each visible a
    the nearest window point on each signed primitive int ray from a is kept;
    (a, b) is an edge iff b is that nearest point, i.e. iff no window point
    lies strictly inside the segment ab. A 5-clique reaches the five-point
    solve only if its points are in strictly convex position and no window
    point lies strictly inside their pentagon. Both tests are exact: the
    boundary points of an ellipse are in strictly convex position, and a point
    strictly inside their hull is strictly inside the ellipse, which
    `_ellipse_rigid` rejects.

    Strips are swept per canonical primitive direction d of the pair
    differences: window points are bucketed by their int level along the
    normal, and each pair of consecutive levels holding >= 2 points each is
    a maximal strip. No point lies strictly between consecutive levels and
    the zero set is exactly the two buckets, so `_strip` builds it from them
    directly. Each five-point solve runs on lattice points, so its form is
    the lattice form once cleared of denominators.
    """
    ints = chart.lattice
    n = len(chart.frame.points)  # the visible points lead the lattice
    found: dict[tuple, RigidConic] = {}

    # --- ellipses: clique search over the chord graph
    adj = [0] * n
    for i in range(n):
        ax, ay = ints[i]
        nearest: dict = {}       # ray -> (L1 distance, index)
        for j, (bx, by) in enumerate(ints):
            if j != i:
                dx, dy = bx - ax, by - ay
                ray = primitive(dx, dy)
                far = abs(dx) + abs(dy)
                if ray not in nearest or far < nearest[ray][0]:
                    nearest[ray] = (far, j)
        for _, j in nearest.values():
            if j < n:
                adj[i] |= 1 << j

    def grow(clique: list[int], allowed: int, start: int):
        if len(clique) == 5:
            hull = convex_hull_ccw([ints[i] for i in clique])
            if len(hull) < 5 or not _empty_pentagon(hull, ints):
                return
            try:
                cand = conic_through_five([ints[i] for i in clique])
            except ValueError:
                return
            if cand.kind is not SubconicKind.ELLIPSE_INTERIOR:
                return
            rigid = _ellipse_rigid(
                chart, QForm3(*clear_denominators(cand.form.coeffs())))
            if rigid is not None:
                found.setdefault(rigid.key(), rigid)
            return
        m = allowed >> start
        i = start
        while m:
            if m & 1:
                grow(clique + [i], allowed & adj[i], i + 1)
            m >>= 1
            i += 1

    grow([], (1 << n) - 1, 0)

    # --- strips: sweep every canonical primitive direction spanned by point
    # pairs (occluded points count: a strip boundary line sees every
    # developed point of the window)
    directions = set()
    for i, (ax, ay) in enumerate(ints):
        for bx, by in ints[i + 1:]:
            dx, dy = primitive(bx - ax, by - ay)
            if dy < 0 or (dy == 0 and dx < 0):
                dx, dy = -dx, -dy
            directions.add((dx, dy))
    for d in sorted(directions):
        levels = _levels(chart, d, range(len(ints)))
        for low, high in zip(levels, levels[1:]):
            if len(low[1]) >= 2 and len(high[1]) >= 2:
                rigid = _strip(chart, d, low, high)
                found.setdefault(rigid.key(), rigid)
    return [found[k] for k in sorted(found)]


def _empty_pentagon(hull: list, points: list) -> bool:
    """No point strictly inside the counterclockwise int polygon `hull`."""
    edges = [(a[1] - b[1], b[0] - a[0], a[0] * b[1] - a[1] * b[0])
             for a, b in zip(hull, hull[1:] + hull[:1])]
    return not any(all(u * x + v * y + w > 0 for u, v, w in edges)
                   for x, y in points)


# ---------------------------------------------------------------------------
# 2-cells

# the facets t1 >= 0, t2 >= 0, t3 >= 0 of the unit simplex, as (a, b, c)
SIMPLEX_FACETS = ((1, 0, 0), (0, 1, 0), (-1, -1, 1))


def _clip(poly: list, a: int, b: int, c: int) -> list:
    """Keep the part of a convex polygon with a*t1 + b*t2 + c >= 0 (exact).

    Vertices are homogeneous int triples (X, Y, W) for (t1, t2) = (X, Y)/W,
    with W > 0 and reduced by their gcd, so equal points are equal triples.
    The value v = aX + bY + cW has the sign of the constraint, and a side pq
    with values of opposite signs crosses the line at vp*q - vq*p.
    """
    if not poly:
        return []
    out = []
    vals = [a * X + b * Y + c * W for X, Y, W in poly]
    for i, p in enumerate(poly):
        j = (i + 1) % len(poly)
        vp, vq = vals[i], vals[j]
        if vp >= 0:
            out.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            q = poly[j]
            X, Y, W = (vp * u - vq * v for u, v in zip(q, p))
            g = math.gcd(X, Y, W) if W > 0 else -math.gcd(X, Y, W)
            out.append((X // g, Y // g, W // g))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


@dataclass
class FeasibleRegion:
    polygon: list                 # (t1, t2) vertices, CCW from lex-min
    vertices: list                # the same vertices as int (X, Y, W), W > 0
    chart: Chart                  # rebased at the triple's centroid
    constraints: list             # (a, b, c, source point), a, b, c ints
    triple: tuple                 # lattice points, counterclockwise


def _barycentric(triple) -> list:
    """The int lines Lambda_k = (u, v, c) of a counterclockwise lattice
    triple P: Lambda_k(X, Y) = uX + vY + c = cross(P_{k+1}, P_{k+2},
    (X, Y)). Each is the barycentric coordinate lambda_k times the same
    positive int, twice the lattice area of the triangle."""
    sides = []
    for k in range(3):
        (x1, y1), (x2, y2) = triple[(k + 1) % 3], triple[(k + 2) % 3]
        sides.append((y1 - y2, x2 - x1, x1 * y2 - x2 * y1))
    return sides


def feasible_region(chart: Chart, Z,
                    equality: Optional[Point] = None) -> FeasibleRegion:
    """Clip the T-plane simplex by every cone-point constraint.

    Z is a triple of lattice points (`Chart.lattice`). Re-bases the chart at
    the triangle centroid so the visibility region is the right one for
    subconics containing the triangle. With `equality` set, the region is
    further cut to the line q_t(equality) = 0.

    Runs on ints. The basis form d_i is -lambda_j lambda_k, lambda being the
    barycentric coordinates of the counterclockwise triple (j, k the two
    indices after i). On the lattice, `_barycentric`'s Lambda_k(w) is an int
    and a positive multiple of lambda_k(w), the same multiple for every w.
    So each constraint (a, b, c) = (d1 - d3, d2 - d3, d3)(w) is an int
    multiple of the rational one by a positive factor, and the clipped
    polygon and its T-plane coordinates do not change. A cone point is
    strictly inside the triangle iff its three Lambdas are positive.
    """
    Z = [tuple(p) for p in Z]
    if len(Z) != 3 or len(set(Z)) != 3:
        raise ValueError("need 3 distinct points")
    L = chart.surface.scale
    sx, sy = Z[0][0] + Z[1][0] + Z[2][0], Z[0][1] + Z[1][1] + Z[2][1]
    orient = cross(Z[0], Z[1], Z[2])
    if orient == 0:
        raise NotRealizable(f"collinear triple {list(_shown(Z, L))}")
    centroid = to_position((sx, sy), 3 * L)
    try:
        ch = rebase(chart, centroid)
    except SurfaceError as exc:
        # the centroid lies strictly inside the triangle
        if sx % 3 == sy % 3 == 0 and (sx // 3, sy // 3) in chart.lattice:
            raise NotRealizable(f"cone point {centroid} lies strictly inside "
                                f"the triangle {list(_shown(Z, L))}") from exc
        raise WindowTooSmall(f"cannot re-base at the centroid of "
                             f"{list(_shown(Z, L))}: {exc}") from exc
    visible = ch.lattice[:len(ch.frame.points)]
    vis_set = set(visible)
    for z in Z:
        if z not in vis_set:
            raise NotRealizable(f"{to_position(z, L)} is not a visible cone "
                                "point of the re-based chart")
    ccw = tuple(Z if orient > 0 else (Z[0], Z[2], Z[1]))
    sides = _barycentric(ccw)
    zset = set(Z)
    eq = tuple(equality) if equality is not None else None
    rows = []
    for w in visible:
        if w in zset:
            continue
        X, Y = w
        l0, l1, l2 = (u * X + v * Y + c for u, v, c in sides)
        if w != eq and l0 > 0 and l1 > 0 and l2 > 0:
            raise NotRealizable(
                f"cone point {to_position(w, L)} lies strictly inside the "
                f"triangle {list(_shown(Z, L))}")
        # (d1 - d3, d2 - d3, d3) with d_i = -Lambda_{i+1} Lambda_{i+2}
        rows.append((l1 * (l0 - l2), l0 * (l1 - l2), -l0 * l1, w))
    poly = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    constraints = []
    for a, b, c, w in rows:
        if a == 0 and b == 0 and c == 0:
            continue
        constraints.append((a, b, c, w))
        if w == eq:
            poly = _clip(poly, -a, -b, -c)
        poly = _clip(poly, a, b, c)
        if not poly:
            break
    if eq is not None and eq not in vis_set:
        raise NotRealizable(f"{to_position(eq, L)} is not a visible cone "
                            "point")
    # the hull runs on the vertices over one common W, as ints
    M = math.lcm(*(W for _, _, W in poly))
    points = {(X * (M // W), Y * (M // W)): (X, Y, W) for X, Y, W in poly}
    order = list(points)
    if len(order) >= 3:
        order = convex_hull_ccw(order)
    vertices = [points[P] for P in order]
    return FeasibleRegion([(Fraction(X, W), Fraction(Y, W))
                           for X, Y, W in vertices], vertices, ch,
                          constraints, ccw)


def _area2(poly) -> Fraction:
    return sum(poly[i][0] * poly[(i + 1) % len(poly)][1]
               - poly[(i + 1) % len(poly)][0] * poly[i][1]
               for i in range(len(poly)))


def _lattice_basis(triple) -> list:
    """The basis forms D_i = -2 Lambda_{i+1} Lambda_{i+2} of the pencil
    through a counterclockwise lattice triple, as int coefficients
    (`_barycentric`). D_i is the natural basis form d_i = -lambda_{i+1}
    lambda_{i+2} on the lattice times one positive int, the same for every
    i; the 2 clears the halves of the off-diagonal Gram entries."""
    forms = []
    sides = _barycentric(triple)
    for i in range(3):
        (u1, v1, c1), (u2, v2, c2) = sides[(i + 1) % 3], sides[(i + 2) % 3]
        forms.append((-2 * u1 * u2, -2 * v1 * v2, -2 * c1 * c2,
                      -(u1 * v2 + v1 * u2), -(u1 * c2 + c1 * u2),
                      -(v1 * c2 + c1 * v2)))
    return forms


def _vertex_form(basis: list, X, Y, W) -> QForm3:
    """The lattice form X D_0 + Y D_1 + (W - X - Y) D_2 at the T-plane point
    (X, Y) / W, W > 0: a positive multiple of the pencil member there."""
    Z = W - X - Y
    return QForm3(*(X * a + Y * b + Z * c for a, b, c in zip(*basis)))


@dataclass
class TwoCell:
    triple: tuple                    # lattice points, counterclockwise
    polygon: tuple                   # T-plane vertices (t1, t2, t3), CCW
    vertex_conics: tuple             # RigidConic or None per polygon vertex
    edge_quadruples: tuple           # sorted 4-point keys per polygon side
    complete: bool
    flags: tuple                     # human-readable truncation notes

    def key(self) -> tuple:
        return _key(self.triple)


def two_cell(chart: Chart, Z) -> TwoCell:
    """The 2-cell of a realizable triple of lattice points, as an exact
    convex T-plane polygon.

    Every polygon side is supported by one extra cone point (its quadruple is
    the side's 1-cell); every polygon vertex is classified as a rigid conic.
    Raises NotRealizable when the feasible set has no interior; incomplete
    certificates (window effects) are reported through flags, not errors.

    The sample, side-midpoint and vertex forms are lattice forms
    (`_vertex_form` on `_lattice_basis`) at homogeneous T-plane points, so
    they are ints; classifying one needs no positions, and only an ellipse
    vertex goes to positions (`_ellipse_rigid`).
    """
    region = feasible_region(chart, Z)
    poly = region.polygon
    if len(poly) < 3 or _area2(poly) <= 0:
        raise NotRealizable(
            f"triple {_shown(Z, chart.surface.scale)} has no 2-dimensional "
            "family of subconics (feasible region has empty interior)")
    basis = _lattice_basis(region.triple)
    hverts = region.vertices
    flags = []
    # sample the interior, at the mean of the vertices: must be an honest
    # ellipse, otherwise the window constraints were too sparse to pin the
    # elliptic region
    M = math.lcm(*(W for _, _, W in hverts))
    sample = classify(_vertex_form(
        basis, sum(X * (M // W) for X, _, W in hverts),
        sum(Y * (M // W) for _, Y, W in hverts), len(hverts) * M))
    if sample.kind is not SubconicKind.ELLIPSE_INTERIOR:
        raise WindowTooSmall(
            f"interior sample of the feasible polygon for "
            f"{_shown(Z, chart.surface.scale)} is "
            f"{sample.kind.value}; enlarge the window")

    n = len(poly)
    edge_quads = []
    for i in range(n):
        (pX, pY, pW), (qX, qY, qW) = hverts[i], hverts[(i + 1) % n]

        def on_side(a, b, c):
            return (a * pX + b * pY + c * pW == 0
                    and a * qX + b * qY + c * qW == 0)

        supporters = [w for (a, b, c, w) in region.constraints
                      if on_side(a, b, c)]
        on_facet = any(on_side(*facet) for facet in SIMPLEX_FACETS)
        if on_facet:
            flags.append(f"side {i} lies on the simplex boundary")
            edge_quads.append(None)
            continue
        if not supporters:
            raise WindowTooSmall(
                f"side {i} of the cell of {_shown(Z, chart.surface.scale)} "
                "is unsupported")
        if len(supporters) > 1:
            flags.append(f"side {i} supported by {len(supporters)} cone points")
        mid = classify(_vertex_form(basis, pX * qW + qX * pW,
                                    pY * qW + qY * pW, 2 * pW * qW))
        if mid.kind is not SubconicKind.ELLIPSE_INTERIOR:
            flags.append(f"side {i} midpoint is {mid.kind.value}")
        edge_quads.append(_key(region.triple + (supporters[0],)))

    vertex_conics = []
    for i, (X, Y, W) in enumerate(hverts):
        form = _vertex_form(basis, X, Y, W)
        kind = classify(form).kind
        rigid = None
        # vertex data is computed against the chart as given (not the
        # rebased one used for the constraints), so the same conic gets the
        # same windowed boundary from every cell that touches it
        if kind is SubconicKind.STRIP:
            rigid = _strip_rigid(chart, form)
            if rigid is None:
                flags.append(f"vertex {i}: strip data incomplete in window")
        elif kind is SubconicKind.ELLIPSE_INTERIOR:
            rigid = _ellipse_rigid(chart, form)
            if rigid is None:
                flags.append(f"vertex {i}: ellipse certificate failed in window")
            elif rigid.truncated:
                flags.append(f"vertex {i}: ellipse reaches the window edge")
        else:
            flags.append(f"vertex {i}: form classifies as {kind.value}")
        vertex_conics.append(rigid)

    complete = not flags or all("supported by" in f for f in flags)
    polygon3 = tuple((t1, t2, 1 - t1 - t2) for (t1, t2) in poly)
    return TwoCell(region.triple, polygon3, tuple(vertex_conics),
                   tuple(edge_quads), complete, tuple(flags))


def _anchor_reps(succ: dict, quad: set) -> list:
    """Ordered anchor pairs (x, y) with quad = {x, s(x)} | {y, s(y)}, s the
    successor map `succ`."""
    reps = []
    for x in sorted(quad):
        sx = succ.get(x)
        if sx is None or sx not in quad or sx == x:
            continue
        rest = quad - {x, sx}
        if len(rest) != 2:
            continue
        u, v = sorted(rest)
        if succ.get(u) == v:
            reps.append((x, u))
        if succ.get(v) == u:
            reps.append((x, v))
    return reps


def _is_consecutive(U: RigidConic, quad: set):
    succ = U.successor()
    for x in quad:
        if (succ.get(x) in quad
                and succ.get(succ.get(x)) in quad
                and succ.get(succ.get(succ.get(x))) in quad):
            chain = {x, succ[x], succ[succ[x]], succ[succ[succ[x]]]}
            if chain == quad and len(chain) == 4:
                return x
    return None


def follows(U: RigidConic, Zq1, Zq2) -> bool:
    """Does the 1-cell Zq2 follow Zq1 in the link of U?

    Single-anchor advance for any pair of 1-cells, plus the whole-quadruple
    shift between consecutive ones.
    """
    q1 = set(tuple(p) for p in Zq1)
    q2 = set(tuple(p) for p in Zq2)
    bd = set(U.boundary_points())
    if not (q1 <= bd and q2 <= bd) or len(q1) != 4 or len(q2) != 4:
        raise ValueError("quadruples must lie on the boundary of U")
    if len(q1 & q2) != 3:
        raise ValueError("quadruples do not share a triple")
    shared = q1 & q2
    succ = U.successor()
    if not _anchor_reps(succ, q1) or not _anchor_reps(succ, q2):
        raise ValueError("not realizable quadruples of U")
    if not any(succ.get(a) in shared for a in shared):
        raise ValueError("shared triple contains no successor-adjacent pair")
    for x, y in _anchor_reps(succ, q1):
        sy = succ.get(y)
        s2y = succ.get(sy) if sy is not None else None
        if sy is None or s2y is None:
            continue
        advanced = {x, succ[x], sy, s2y}
        if len(advanced) == 4 and advanced == q2:
            return True
    x1 = _is_consecutive(U, q1)
    if x1 is not None and _is_consecutive(U, q2) is not None:
        if {succ[p] for p in q1 if p in succ} == q2 and all(p in succ for p in q1):
            return True
    return False


@dataclass(frozen=True)
class Link:
    """Directed graph on the 1-cells at a rigid conic."""
    conic: RigidConic
    vertices: tuple          # sorted quadruple keys
    edges: tuple             # (from_key, to_key): second follows first

    def undirected_degree(self, v) -> int:
        return sum(1 for a, b in self.edges if a == v or b == v)


def link(U: RigidConic) -> Link:
    quads = []
    succ = U.successor()
    if U.kind is SubconicKind.ELLIPSE_INTERIOR:
        cyc = U.boundary
        n = len(cyc)
        for i in range(n):
            for j in range(i + 1, n):
                d = (j - i) % n
                if d in (1, n - 1):
                    continue
                quad = {cyc[i], succ[cyc[i]], cyc[j], succ[cyc[j]]}
                if len(quad) == 4:
                    quads.append(_key(quad))
    else:
        pairs0 = list(zip(U.boundary[0], U.boundary[0][1:]))
        pairs1 = list(zip(U.boundary[1], U.boundary[1][1:]))
        for a in pairs0:
            for b in pairs1:
                quads.append(_key(set(a) | set(b)))
    quads = sorted(set(quads))
    edges = []
    for qa, qb in combinations(quads, 2):
        if len(set(qa) & set(qb)) != 3:
            continue
        if follows(U, qa, qb):
            edges.append((qa, qb))
        if follows(U, qb, qa):
            edges.append((qb, qa))
    return Link(U, tuple(quads), tuple(edges))


# ---------------------------------------------------------------------------
# the windowed complex

@dataclass
class CellComplexWindow:
    chart: Chart
    cells: dict          # triple key -> TwoCell
    edges: dict          # quadruple key -> {"cells": [...], "endpoints": set}
    vertices: dict       # rigid key -> RigidConic
    seed: tuple
    budget: int
    exhausted: bool      # True when no frontier remained within the budget


def build_complex(chart: Chart, seed=None,
                  budget: int = 20) -> CellComplexWindow:
    """Breadth-first exploration of 2-cells from a seed triple of lattice
    points.

    Crossing a boundary 1-cell leads to the other realizable triples inside
    its quadruple. The frontier is expanded in canonical key order, so the
    result is deterministic for a given chart, seed and budget. With seed
    None the seed is `default_seed`'s triple, and the cell its scan built is
    the first cell.
    """
    if seed is None:
        seed, first = _default_seed_cell(chart)
    else:
        first = two_cell(chart, seed)  # raises NotRealizable for bad seeds
    seed_key = _key(seed)
    cells = {seed_key: first}
    edges: dict = {}
    vertices: dict = {}
    _absorb(first, edges, vertices)
    frontier = [seed_key]
    exhausted = False
    while len(cells) < budget:
        next_frontier = []
        for cell_key in frontier:
            cell = cells[cell_key]
            for quad in cell.edge_quadruples:
                if quad is None:
                    continue
                for triple in combinations(quad, 3):
                    if triple in cells:     # a sorted quad gives sorted keys
                        continue
                    try:
                        new = two_cell(chart, triple)
                    except (NotRealizable, WindowTooSmall):
                        continue
                    cells[triple] = new
                    _absorb(new, edges, vertices)
                    next_frontier.append(triple)
                    if len(cells) >= budget:
                        break
                if len(cells) >= budget:
                    break
            if len(cells) >= budget:
                break
        if not next_frontier:
            exhausted = True
            break
        frontier = sorted(next_frontier)
    for quad, rec in edges.items():
        rec["cells"] = sorted(set(rec["cells"]))
    return CellComplexWindow(chart, cells, edges, vertices, seed_key, budget,
                             exhausted)


def default_seed(chart: Chart) -> tuple:
    """The first realizable triple among the visible points nearest the base.

    Candidates are lattice points, scanned in (distance, position) order
    over the eight nearest, so the choice is deterministic for a given chart.
    """
    return _default_seed_cell(chart)[0]


def _default_seed_cell(chart: Chart) -> tuple:
    """`default_seed`'s triple, in scan order, and its 2-cell. A visible
    entry of the chart's int frame is its offset from the base, so it sorts
    by distance as its position does."""
    frame = chart.frame
    near = sorted((x * x + y * y, P)
                  for (x, y, _, _), P in zip(frame.points, chart.lattice))
    for triple in combinations([P for _, P in near[:8]], 3):
        try:
            return triple, two_cell(chart, triple)
        except (NotRealizable, WindowTooSmall):
            continue
    raise NotRealizable("no realizable triple among the points nearest "
                        "the base")


def _absorb(cell: TwoCell, edges: dict, vertices: dict) -> None:
    n = len(cell.polygon)
    for i, quad in enumerate(cell.edge_quadruples):
        if quad is None:
            continue
        va = cell.vertex_conics[i]
        vb = cell.vertex_conics[(i + 1) % n]
        rec = edges.setdefault(quad, {"cells": [], "endpoints": set()})
        rec["cells"].append(cell.key())
        for v in (va, vb):
            if v is not None:
                rec["endpoints"].add(v.key())
                vertices.setdefault(v.key(), v)


# ---------------------------------------------------------------------------
# matching two windows
#
# Keys are lattice points of each window's surface. Between the lattices
# Z^2 / L_A and Z^2 / L_B an affine map of positions is an affine map of ints
# over one common denominator, and a rigid conic's image is matched by its
# lattice form class.

@dataclass
class CellMatching:
    """Dictionaries from A-side keys to B-side keys (faces by triple,
    edges by quadruple, vertices by rigid-conic boundary key), all on the
    lattices of the two windows."""
    faces: dict
    edges: dict
    vertices: dict


def matching_from_affine(A: CellComplexWindow, B: CellComplexWindow,
                         g, tau=(0, 0)) -> CellMatching:
    """The matching induced by z -> g z + tau on the cells of A that land
    in B.

    Faces and edges are matched by image keys; those whose image lies
    outside B's window are left unmatched. Vertices are matched by their
    transformed forms, because the windowed boundary of a truncated conic
    depends on the window shape and two charts rarely clip it identically.
    Raises when no face or no edge matches.

    g and tau act on positions. Between the lattices the map is
    P -> (G P + t) / den with (G, t) / den = (L_B / L_A g, L_B tau), each
    distinct A point is mapped once, and a key with a non-integral image
    point matches nothing. Forms go through the lifted inverse
    (den adj G, -adj G t; 0, det G), a nonzero multiple of the inverse of
    (G, t; 0, den), which keeps the class.
    """
    la, lb = A.chart.surface.scale, B.chart.surface.scale
    vals = [*g[0], *g[1], *tau]
    D = common_denominator(vals)
    a, b, c, d, t0, t1 = (scaled_int(v, D) for v in vals)
    a, b, c, d = (x * lb for x in (a, b, c, d))
    t0, t1, den = t0 * la * lb, t1 * la * lb, D * la
    images = {}
    for keys in (A.cells, A.edges):
        for key in keys:
            for X, Y in key:
                if (X, Y) not in images:
                    u, v = a * X + b * Y + t0, c * X + d * Y + t1
                    images[X, Y] = (u // den, v // den) \
                        if u % den == 0 and v % den == 0 else None

    def image_key(key):
        pts = [images[P] for P in key]
        return None if None in pts else tuple(sorted(pts))

    faces = {k: ik for k in A.cells if (ik := image_key(k)) in B.cells}
    edges = {k: ik for k in A.edges if (ik := image_key(k)) in B.edges}
    if not faces or not edges:
        raise ValueError("affine map matches no cells between the windows")
    # a matched face is a noncollinear image triple, so det G != 0
    M = ((den * d, -den * b), (-den * c, den * a))
    shift = (b * t1 - d * t0, c * t0 - a * t1)
    by_form = {U.form.coeffs(): k for k, U in B.vertices.items()}
    vertices = {}
    for k, U in A.vertices.items():
        ik = by_form.get(_form_class(congruent(U.form.coeffs(), M, shift,
                                               a * d - b * c)))
        if ik is not None:
            vertices[k] = ik
    return CellMatching(faces, edges, vertices)


def _check_phi(A: CellComplexWindow, B: CellComplexWindow,
               phi: CellMatching) -> None:
    """Incidence and orientation of a cell matching; raises naming the first
    violated cell."""
    faces, edges, vertices = phi.faces, phi.edges, phi.vertices
    if len(set(faces.values())) != len(faces) \
            or len(set(edges.values())) != len(edges) \
            or len(set(vertices.values())) != len(vertices):
        raise ValueError("matching is not injective")
    for fkey, fkey2 in faces.items():
        cyc = [edges.get(q) if q is not None else None
               for q in A.cells[fkey].edge_quadruples]
        target = list(B.cells[fkey2].edge_quadruples)
        name = _shown(fkey, A.chart.surface.scale)
        if len(cyc) != len(target):
            raise ValueError(f"face {name}: side counts differ under the "
                             "matching")
        known = [q for q in cyc if q is not None]
        if any(q not in target for q in known):
            raise ValueError(f"face {name}: matched edges are not incident "
                             "to the matched face")
        rotations = [target[i:] + target[:i] for i in range(len(target))]
        if not any(all(c is None or c == t[i] for i, c in enumerate(cyc))
                   for t in rotations):
            rev = target[::-1]
            reflections = [rev[i:] + rev[:i] for i in range(len(rev))]
            if any(all(c is None or c == t[i] for i, c in enumerate(cyc))
                   for t in reflections):
                raise ValueError(f"face {name}: matching reverses the "
                                 "boundary orientation")
            raise ValueError(f"face {name}: boundary cycles do not "
                             "correspond")


def _name(U: RigidConic) -> tuple:
    """A rigid conic's key as positions, for messages."""
    return _shown(U.key(), U.scale)


def _pairs(U: RigidConic, quad) -> frozenset:
    """The unique partition of the 1-cell quad on the boundary of U into
    successor-adjacent pairs."""
    succ = U.successor()
    reps = _anchor_reps(succ, set(quad))
    if not reps:
        raise ValueError(f"{_shown(quad, U.scale)} is not a 1-cell of "
                         f"{_name(U)}")
    return frozenset((x, succ[x]) for x in reps[0])


class _Ambiguous(ValueError):
    """A vertex's 1-cells alone cannot pin the pair correspondence yet."""


def frontier_bijection(A: CellComplexWindow, B: CellComplexWindow,
                       phi: CellMatching) -> dict:
    """The cone-point bijection induced by an orientation-preserving cell
    matching: on each matched rigid conic the matched 1-cells determine how
    successor-adjacent pairs correspond, and successor conjugation extends
    the assignment along the boundary.

    Vertices whose own 1-cells leave the orientation ambiguous (a single
    matched edge on a symmetric strip does) are deferred until cone points
    shared with already-resolved conics pin them down.

    Returns {A lattice point -> B lattice point} on all boundary points the
    matching reaches, certified to satisfy beta(s(x)) = s'(beta(x)) and to
    agree across conics sharing cone points.
    """
    _check_phi(A, B, phi)
    la = A.chart.surface.scale
    incident: dict = {}          # conic key -> its 1-cells, in sorted order
    for q in sorted(A.edges):
        for v in A.edges[q]["endpoints"]:
            incident.setdefault(v, []).append(q)
    jobs = {}
    for vkey, vkey2 in sorted(phi.vertices.items()):
        U, U2 = A.vertices[vkey], B.vertices[vkey2]
        if U.kind is not U2.kind:
            raise ValueError(f"vertex {_name(U)}: kinds differ under the "
                             "matching")
        constraints = []
        for q in incident.get(vkey, ()):
            q2 = phi.edges.get(q)
            if q2 is None:
                continue
            if vkey2 not in B.edges[q2]["endpoints"]:
                raise ValueError(f"edge {_shown(q, la)}: image not incident "
                                 "to image vertex")
            constraints.append((_pairs(U, q), _pairs(U2, q2)))
        if constraints:
            jobs[vkey] = (U, U2, constraints)

    beta: dict = {}

    def merge(local):
        for x, x2 in local.items():
            if beta.setdefault(x, x2) != x2:
                raise ValueError(f"matching is inconsistent at cone point "
                                 f"{to_position(x, la)}")

    pending = sorted(jobs)
    final = False
    while pending:
        progressed = False
        deferred = []
        for vkey in pending:
            U, U2, constraints = jobs[vkey]
            try:
                pairmap = _resolve_pairs(constraints, U, U2, beta, final)
            except _Ambiguous:
                deferred.append(vkey)
                continue
            local = {}
            for (x, sx), (x2, sx2) in pairmap.items():
                local[x] = x2
                local[sx] = sx2
            _extend_by_conjugation(U, U2, local)
            merge(local)
            progressed = True
        if not deferred:
            break
        if not progressed:
            if final:
                raise ValueError(f"orientation on {_shown(deferred[0], la)} "
                                 "cannot be certified")
            final = True
        pending = deferred

    for q, q2 in phi.edges.items():
        if all(p in beta for p in q):
            if _key(beta[p] for p in q) != q2:
                raise ValueError(f"edge {_shown(q, la)}: bijection disagrees "
                                 "with the matched quadruple")
    return beta


def _resolve_pairs(constraints, U: RigidConic, U2: RigidConic,
                   hints: dict, final: bool) -> dict:
    """Assign each successor pair of U appearing in the constraints to a
    pair of U2. Shared pairs between 1-cells pin the correspondence; cone
    points already mapped elsewhere (hints) break remaining ties; with
    final=True an isolated 1-cell falls back to whichever orientation the
    conjugation certifies."""
    pairmap: dict = {}
    pending = list(constraints)
    progress = True
    while progress:
        progress = False
        remaining = []
        for pa, pb in pending:
            known = [p for p in pa if p in pairmap]
            if len(known) == 2:
                if {pairmap[p] for p in pa} != set(pb):
                    raise ValueError("pair images conflict between 1-cells")
                progress = True
                continue
            if len(known) == 1:
                (other_a,) = [p for p in pa if p not in pairmap]
                used = pairmap[known[0]]
                if used not in pb:
                    raise ValueError("pair images conflict between 1-cells")
                (other_b,) = [p for p in pb if p != used]
                pairmap[other_a] = other_b
                progress = True
                continue
            seeded = False
            for pa2, pb2 in pending:
                if pa2 is pa or len(pa & pa2) != 1:
                    continue
                shared_b = pb & pb2
                if len(shared_b) == 1:
                    (sa,) = pa & pa2
                    (sb,) = shared_b
                    pairmap[sa] = sb
                    seeded = progress = True
                    break
            if not seeded:
                for (x, sx) in sorted(pa):
                    hx = hints.get(x), hints.get(sx)
                    matches = [p2 for p2 in pb if p2[0] == hx[0] or p2[1] == hx[1]]
                    if len(matches) == 1:
                        pairmap[(x, sx)] = matches[0]
                        seeded = progress = True
                        break
            if not seeded:
                remaining.append((pa, pb))
        pending = remaining
    if pending and not final:
        raise _Ambiguous("unresolved 1-cells remain")
    for pa, pb in pending:
        for flip in (False, True):
            la, lb = sorted(pa), sorted(pb)
            trial = dict(pairmap)
            trial[la[0]] = lb[1] if flip else lb[0]
            trial[la[1]] = lb[0] if flip else lb[1]
            local = {}
            for (x, sx), (x2, sx2) in trial.items():
                local[x] = x2
                local[sx] = sx2
            try:
                _extend_by_conjugation(U, U2, dict(local))
            except ValueError:
                continue
            pairmap = trial
            break
        else:
            raise ValueError(f"1-cell orientation on {_name(U)} cannot be "
                             "certified either way")
    return pairmap


def _extend_by_conjugation(U: RigidConic, U2: RigidConic,
                           local: dict) -> None:
    """Grow beta along successor orbits (both directions) and certify
    beta(s(x)) = s'(beta(x)) wherever both sides are defined. Mutates and
    validates `local`."""
    succ, succ2 = U.successor(), U2.successor()
    frontier = list(local)
    while frontier:
        x = frontier.pop()
        x2 = local[x]
        for step, step2 in ((succ, succ2),
                            (U.predecessor(), U2.predecessor())):
            nxt = step.get(x)
            if nxt is None:
                continue
            nxt2 = step2.get(x2)
            if nxt in local:
                if local[nxt] != (nxt2 if nxt2 is not None else local[nxt]):
                    raise ValueError(f"successor conjugation fails at "
                                     f"{to_position(x, U.scale)} on "
                                     f"{_name(U)}")
                continue
            if nxt2 is None:
                continue
            local[nxt] = nxt2
            frontier.append(nxt)
    if len(set(local.values())) != len(local):
        raise ValueError(f"bijection collapses points on {_name(U)}")
    for x, x2 in local.items():
        sx = succ.get(x)
        if sx is not None and sx in local and succ2.get(x2) != local[sx]:
            raise ValueError(f"successor conjugation fails at "
                             f"{to_position(x, U.scale)} on {_name(U)}")


# ---------------------------------------------------------------------------
# serialization

def _pos_json(p, scale: int) -> list:
    return [fraction_str(c) for c in to_position(p, scale)]


def complex_to_json(window: CellComplexWindow) -> str:
    L = window.chart.surface.scale
    verts = []
    vertex_ids = {}
    for i, key in enumerate(sorted(window.vertices)):
        U = window.vertices[key]
        vertex_ids[key] = f"v{i}"
        entry = {
            "id": f"v{i}",
            "kind": U.kind.value,
            "form": [fraction_str(c) for c in U.subconic.form.coeffs()],
            "truncated": U.truncated,
        }
        if U.kind is SubconicKind.ELLIPSE_INTERIOR:
            entry["boundary"] = [_pos_json(p, L) for p in U.boundary]
        else:
            entry["boundary"] = [[_pos_json(p, L) for p in line]
                                 for line in U.boundary]
        entry["h_point"] = str(h_point(U.subconic))
        verts.append(entry)
    edges = []
    for key in sorted(window.edges):
        rec = window.edges[key]
        edges.append({
            "quadruple": [_pos_json(p, L) for p in key],
            "cells": [_face_id(k, L) for k in rec["cells"]],
            "endpoints": sorted(vertex_ids.get(v, "?") for v in rec["endpoints"]),
        })
    faces = []
    for key in sorted(window.cells):
        cell = window.cells[key]
        faces.append({
            "id": _face_id(key, L),
            "triple": [_pos_json(p, L) for p in cell.triple],
            "polygon_t": [[fraction_str(t) for t in v] for v in cell.polygon],
            "edges": [None if q is None else [_pos_json(p, L) for p in q]
                      for q in cell.edge_quadruples],
            "complete": cell.complete,
            "flags": list(cell.flags),
        })
    doc = {
        "window": {
            "base": [fraction_str(c) for c in window.chart.base],
            "radius": fraction_str(window.chart.radius),
            "seed": [_pos_json(p, L) for p in window.seed],
            "budget": window.budget,
            "exhausted": window.exhausted,
        },
        "vertices": verts,
        "edges": edges,
        "faces": faces,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _face_id(key, scale: int) -> str:
    return ";".join(f"{fraction_str(x)},{fraction_str(y)}"
                    for x, y in _shown(key, scale))
