"""Translation surfaces from glued polygons, and windowed developing maps.

A surface is a list of counterclockwise polygons plus edge gluings by
translation. `develop` unfolds the surface around a base point into the
plane, keeps the cone-point images within a radius window, and filters them
down to the star-convex visibility region (a cone point blocks the open ray
strictly beyond itself).

Everything here is exact. Parsing makes every file number a Fraction, and
polygons and gluings hold Fractions. Cone angles are counted on directions
by exact orientation tests, and the immersion certificate `subconic_fits`
decides its window bound by squaring out the square roots and scans the
visible points on ints. A cone point or placement translation is a vertex
plus a sum of edge vectors, so it lies on the surface's lattice
Z^2 / `SurfaceDesc.scale` (`Chart.lattice`). The cell complex keys every
cone point by its int lattice point, and `to_lattice` and `to_position`
are the one conversion between a position and its lattice point. The
unfolding (`develop`, `locate`, and so `rebase`) runs on that lattice
refined by the base point (or the located position) and translated to it:
its search, window, visibility and point-in-polygon tests are exact int
arithmetic.

A chart keeps that int frame (`_Frame`: the scale L, the base times L, and
the int points, occluded points and placements). Its `points`, `occluded`
and `placements` become Fractions only when first read, with the values,
order, `==` and `repr` of the Fraction unfolding. `rebase` is `locate` plus
`develop` at the located point, moved by the int offset (position - local
point) * L, so no point or placement is rebuilt; `Chart.lattice`, `locate`
and `subconic_fits` read the int frame.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import (Scalar, clear_denominators, common_denominator, cross,
                     fraction_str, primitive, scaled_int, sign_of)
from .quadform import QForm3, congruent, ellipse_center, lift

Point = tuple[Scalar, Scalar]


class SurfaceError(ValueError):
    """Structured validation failure naming the offending element."""


def _to_scalar(value) -> Scalar:
    if isinstance(value, str):
        if "/" in value:
            num, den = value.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(value)
    if isinstance(value, bool):
        raise SurfaceError(f"not a coordinate: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value of the literal
    raise SurfaceError(f"not a coordinate: {value!r}")


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def dist2(a: Point, b: Point) -> Scalar:
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx * dx + dy * dy


@dataclass(frozen=True)
class SurfaceDesc:
    polygons: tuple[tuple[str, tuple[Point, ...]], ...]
    gluings: dict  # (poly_id, edge) -> (poly_id, edge), symmetric
    cone_class: dict  # (poly_id, corner index) -> class label "c0", "c1", ...
    cone_angles: dict  # class label -> integer k (total angle 2*pi*k)

    @cached_property
    def scale(self) -> int:
        """The LCD of the vertex coordinates: charts lie on Z^2 / scale."""
        return common_denominator(c for _, verts in self.polygons
                                  for v in verts for c in v)

    def polygon(self, pid: str) -> tuple[Point, ...]:
        for qid, verts in self.polygons:
            if qid == pid:
                return verts
        raise KeyError(pid)

    def scaled(self, factor: Scalar) -> "SurfaceDesc":
        polys = tuple((pid, tuple((factor * x, factor * y) for x, y in verts))
                      for pid, verts in self.polygons)
        return SurfaceDesc(polys, self.gluings, self.cone_class, self.cone_angles)

    def mapped(self, g) -> "SurfaceDesc":
        """Apply a linear map (rows) to every vertex; gluings survive as is."""
        (a, b), (c, d) = g
        if sign_of(a * d - b * c) <= 0:
            raise SurfaceError("linear map must be orientation preserving")
        polys = tuple((pid, tuple((a * x + b * y, c * x + d * y) for x, y in verts))
                      for pid, verts in self.polygons)
        return validate_surface(polys, self.gluings)


def _passes_east(start: Point, end: Point) -> bool:
    """Does the counterclockwise sweep from direction `start` to direction
    `end` reach the +x direction, `end` included and `start` not?

    That is, angle(end) < angle(start) for angles in [0, 2pi), compared
    exactly: first by half-plane (the lower one holds angles in [pi, 2pi)),
    then within a half-plane by the sign of the cross product.
    """
    def lower(v):
        return v[1] < 0 or (v[1] == 0 and v[0] < 0)

    if lower(start) != lower(end):
        return lower(start)
    return cross((0, 0), end, start) > 0


def validate_surface(polygons, gluings_pairs) -> SurfaceDesc:
    """Check all gluing invariants and compute cone classes/angles.

    `polygons`: iterable of (id, vertex tuple); `gluings_pairs`: either a
    symmetric dict or an iterable of ((pid, e), (qid, f)) pairs.
    """
    polys = tuple((pid, tuple((v[0], v[1]) for v in verts))
                  for pid, verts in polygons)
    ids = [pid for pid, _ in polys]
    if len(set(ids)) != len(ids):
        raise SurfaceError("duplicate polygon ids")
    verts_of = dict(polys)
    for pid, verts in polys:
        if len(verts) < 3:
            raise SurfaceError(f"polygon {pid} has fewer than 3 vertices")
        if len(set(verts)) != len(verts):
            raise SurfaceError(f"polygon {pid} repeats a vertex")
        area2 = sum(verts[i][0] * verts[(i + 1) % len(verts)][1]
                    - verts[(i + 1) % len(verts)][0] * verts[i][1]
                    for i in range(len(verts)))
        if sign_of(area2) <= 0:
            raise SurfaceError(f"polygon {pid} is not counterclockwise")

    glue: dict = {}
    if isinstance(gluings_pairs, dict):
        pairs = set()
        for k, v in gluings_pairs.items():
            pairs.add((min(k, v), max(k, v)))
        gluings_pairs = sorted(pairs)
    for a, b in gluings_pairs:
        a = (a[0], int(a[1]))
        b = (b[0], int(b[1]))
        for side in (a, b):
            if side[0] not in verts_of:
                raise SurfaceError(f"gluing references unknown polygon {side[0]}")
            if not 0 <= side[1] < len(verts_of[side[0]]):
                raise SurfaceError(f"gluing references bad edge index {side}")
            if side in glue:
                raise SurfaceError(f"edge {side} glued more than once")
        if a == b:
            raise SurfaceError(f"edge {a} glued to itself")
        va, vb = verts_of[a[0]], verts_of[b[0]]
        ea = _sub(va[(a[1] + 1) % len(va)], va[a[1]])
        eb = _sub(vb[(b[1] + 1) % len(vb)], vb[b[1]])
        if ea[0] + eb[0] != 0 or ea[1] + eb[1] != 0:
            raise SurfaceError(
                f"gluing {a}~{b}: edge vectors {ea} and {eb} are not opposite "
                "(translation gluings need parallel, equal, reversed edges)")
        glue[a] = b
        glue[b] = a
    for pid, verts in polys:
        for e in range(len(verts)):
            if (pid, e) not in glue:
                raise SurfaceError(f"edge ({pid}, {e}) is unglued")

    # corner cycles: crossing the outgoing edge e of corner (p, e) lands on
    # the corner after the matched edge. A corner's interior is the
    # counterclockwise sweep from its outgoing edge to its reversed incoming
    # edge, and each corner's sweep ends where the next one in the cycle
    # starts; so the sweeps tile k full turns, and exactly k of them pass the
    # +x direction.
    cone_class: dict = {}
    cone_angles: dict = {}
    corners = [(pid, i) for pid, verts in polys for i in range(len(verts))]
    label = 0
    for start in corners:
        if start in cone_class:
            continue
        name = f"c{label}"
        label += 1
        k = 0
        cur = start
        while True:
            cone_class[cur] = name
            pid, i = cur
            verts = verts_of[pid]
            n = len(verts)
            incoming = _sub(verts[i], verts[(i - 1) % n])
            outgoing = _sub(verts[(i + 1) % n], verts[i])
            k += _passes_east(outgoing, (-incoming[0], -incoming[1]))
            q, j = glue[(pid, i)]
            cur = (q, (j + 1) % len(verts_of[q]))
            if cur == start:
                break
        cone_angles[name] = k
    return SurfaceDesc(polys, glue, cone_class, cone_angles)


def parse_surface(text: str) -> SurfaceDesc:
    """Parse the JSON surface document and validate it.

    Format: {"polygons": [{"id": str, "vertices": [[x, y], ...]}, ...],
             "gluings": [{"a": [id, edgeIdx], "b": [id, edgeIdx]}, ...]}
    with numbers given as JSON numbers or exact "p/q" strings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SurfaceError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or "polygons" not in doc or "gluings" not in doc:
        raise SurfaceError("document must have 'polygons' and 'gluings'")
    polys = []
    for entry in doc["polygons"]:
        try:
            pid = entry["id"]
            verts = tuple((_to_scalar(v[0]), _to_scalar(v[1]))
                          for v in entry["vertices"])
        except (KeyError, TypeError, IndexError, ValueError,
                ZeroDivisionError, OverflowError) as e:
            raise SurfaceError(f"bad polygon entry {entry!r}: {e}") from None
        polys.append((pid, verts))
    pairs = []
    for entry in doc["gluings"]:
        try:
            pairs.append(((entry["a"][0], int(entry["a"][1])),
                          (entry["b"][0], int(entry["b"][1]))))
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as e:
            raise SurfaceError(f"bad gluing entry {entry!r}: {e}") from None
    return validate_surface(polys, pairs)


def surface_to_json(desc: SurfaceDesc) -> str:
    polys = [{"id": pid,
              "vertices": [[fraction_str(x), fraction_str(y)] for x, y in verts]}
             for pid, verts in desc.polygons]
    seen = set()
    gl = []
    for a in sorted(desc.gluings):
        b = desc.gluings[a]
        if (b, a) in seen:
            continue
        seen.add((a, b))
        gl.append({"a": [a[0], a[1]], "b": [b[0], b[1]]})
    return json.dumps({"polygons": polys, "gluings": gl},
                      indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# point-in-polygon and the radius window (exact, division-free)

def _origin_side(verts: Sequence[Point]) -> int:
    """+1 if the origin is strictly inside the polygon, 0 on its boundary, -1
    outside. Exact crossing count, so non-convex polygons are fine."""
    inside = False
    ax, ay = verts[-1]
    for bx, by in verts:
        c = bx * ay - ax * by  # a x b, up to sign: zero iff origin on line ab
        if c == 0 and (min(ax, bx) <= 0 <= max(ax, bx)
                       and min(ay, by) <= 0 <= max(ay, by)):
            return 0
        if (ay > 0) != (by > 0) and ((c < 0) if by > ay else (c > 0)):
            inside = not inside
        ax, ay = bx, by
    return 1 if inside else -1


def point_in_polygon(point: Point, verts: Sequence[Point]) -> int:
    """+1 strictly inside, 0 on the boundary, -1 outside. Exact crossing count."""
    return _origin_side([_sub(v, point) for v in verts])


def _comes_within(verts: Sequence[Point], rn: Scalar, rd: Scalar) -> bool:
    """Does the closed polygon come within distance sqrt(rn/rd) of the origin?

    Vertices are given relative to the centre. An edge a->b (vector e) is
    within reach when its nearest point is: a or b at the ends, else the
    foot of the perpendicular, at squared distance (a x b)^2 / |e|^2.
    """
    ax, ay = verts[-1]
    for bx, by in verts:
        ex, ey = bx - ax, by - ay
        t = -(ax * ex + ay * ey)  # (origin - a) . e
        if t <= 0:
            near = (ax * ax + ay * ay) * rd <= rn
        elif t >= ex * ex + ey * ey:
            near = (bx * bx + by * by) * rd <= rn
        else:
            c = ax * by - ay * bx
            near = c * c * rd <= rn * (ex * ex + ey * ey)
        if near:
            return True
        ax, ay = bx, by
    return _origin_side(verts) > 0


def _frame_scale(surface: SurfaceDesc, origin: Point) -> int:
    """The least int L clearing `origin` and the surface's lattice."""
    return math.lcm(surface.scale, *(c.as_integer_ratio()[1] for c in origin))


def _frame(surface: SurfaceDesc, origin: Point):
    """The int frame (L, ints): L = `_frame_scale`, ints each polygon's
    vertices as int pairs (v - origin) * L."""
    L = _frame_scale(surface, origin)
    ox, oy = (scaled_int(c, L) for c in origin)
    return L, {pid: [(scaled_int(x, L) - ox, scaled_int(y, L) - oy)
                     for x, y in verts]
               for pid, verts in surface.polygons}


# ---------------------------------------------------------------------------
# developing

@dataclass(frozen=True)
class DevPoint:
    position: Point
    cone_id: str
    path: tuple  # edge-crossing word: ((poly_id, edge), ...) from the base placement


@dataclass(frozen=True)
class Placement:
    poly_id: str
    translation: Point
    path: tuple


@dataclass(frozen=True)
class _Frame:
    """The int frame a chart was developed in. A visible or occluded entry
    (x, y, cone_id, path) is at the position (x + ox, y + oy) / L, a placement
    (poly_id, tx, ty, path) has the translation (tx + sx, ty + sy) / L, and
    `origin` = (ox, oy), `shift` = (sx, sy). L clears the surface's lattice
    and the base, and `origin` is the base times L."""
    L: int
    origin: tuple
    shift: tuple
    points: tuple
    occluded: tuple
    placements: tuple


class Chart:
    """A developed window: the base, its locator (polygon id, local point),
    the radius, the visible cone points sorted by position, the in-window
    points hidden behind others, and the placements of the unfolding.

    `develop` and `rebase` keep the chart in the int frame it was developed
    in (`_Frame`); `points`, `occluded` and `placements` become Fractions on
    first read. A chart built from those three directly (as the reference
    unfolding in the tests does) derives its frame from them instead. Either
    way `==` and `repr` read the Fraction fields.
    """

    _FIELDS = ("surface", "base", "base_locator", "radius", "points",
               "occluded", "placements")

    def __init__(self, surface: SurfaceDesc, base: Point, base_locator: tuple,
                 radius: Scalar, points: tuple, occluded: tuple,
                 placements: tuple):
        self.surface, self.base = surface, base
        self.base_locator, self.radius = base_locator, radius
        self.__dict__.update(points=points, occluded=occluded,
                             placements=placements)

    @classmethod
    def _in_frame(cls, surface: SurfaceDesc, base: Point, base_locator: tuple,
                  radius: Scalar, frame: _Frame) -> "Chart":
        chart = cls.__new__(cls)
        chart.surface, chart.base = surface, base
        chart.base_locator, chart.radius = base_locator, radius
        chart.frame = frame
        return chart

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "Chart({})".format(", ".join(
            f"{name}={value!r}" for name, value in zip(self._FIELDS,
                                                       self._fields())))

    @cached_property
    def frame(self) -> _Frame:
        L = _frame_scale(self.surface, self.base)
        ox, oy = (scaled_int(c, L) for c in self.base)

        def entries(points):
            return tuple((scaled_int(p.position[0], L) - ox,
                          scaled_int(p.position[1], L) - oy, p.cone_id, p.path)
                         for p in points)

        return _Frame(L, (ox, oy), (0, 0), entries(self.points),
                      entries(self.occluded),
                      tuple((pl.poly_id, *(scaled_int(c, L)
                                           for c in pl.translation), pl.path)
                            for pl in self.placements))

    def _dev_points(self, entries) -> tuple:
        L, (ox, oy) = self.frame.L, self.frame.origin
        return tuple(DevPoint((Fraction(x + ox, L), Fraction(y + oy, L)),
                              cone, path) for x, y, cone, path in entries)

    @cached_property
    def points(self) -> tuple[DevPoint, ...]:
        """The visible cone points, sorted by position."""
        return self._dev_points(self.frame.points)

    @cached_property
    def occluded(self) -> tuple[DevPoint, ...]:
        """The in-window points hidden behind others, sorted by position."""
        return self._dev_points(self.frame.occluded)

    @cached_property
    def placements(self) -> tuple[Placement, ...]:
        L, (sx, sy) = self.frame.L, self.frame.shift
        return tuple(Placement(pid, (Fraction(tx + sx, L), Fraction(ty + sy, L)),
                               path)
                     for pid, tx, ty, path in self.frame.placements)

    @property
    def window_points(self) -> tuple[DevPoint, ...]:
        """Every cone point in the window: the visible ones, then the occluded."""
        return self.points + self.occluded

    @cached_property
    def lattice(self) -> tuple[tuple[int, int], ...]:
        """Each window point's position times `surface.scale`, as ints."""
        frame = self.frame
        m = frame.L // self.surface.scale
        ox, oy = frame.origin
        return tuple(((x + ox) // m, (y + oy) // m)
                     for x, y, _, _ in frame.points + frame.occluded)


def to_lattice(position: Point, scale: int) -> tuple[int, int]:
    """The lattice point of a position on Z^2 / scale: the position times
    scale, as ints. Raises ValueError for a position off that lattice."""
    x, y = (Fraction(c) * scale for c in position)
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"{fraction_str(position[0])},"
                         f"{fraction_str(position[1])} is not on the "
                         f"lattice Z^2/{scale}")
    return (x.numerator, y.numerator)


def to_position(point: tuple[int, int], scale: int) -> Point:
    """The position of a lattice point on Z^2 / scale, as Fractions."""
    return (Fraction(point[0], scale), Fraction(point[1], scale))


def default_base(surface: SurfaceDesc) -> tuple:
    """(first polygon id, its area centroid) — deterministic and interior."""
    pid, verts = surface.polygons[0]
    n = len(verts)
    a2 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a2 += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (pid, (cx / (3 * a2), cy / (3 * a2)))


def develop(surface: SurfaceDesc, base=None, radius: Scalar = 6) -> Chart:
    """Unfold the surface around `base` and return the visibility-filtered chart.

    `base` is (polygon_id, point) with the point inside the polygon (edge
    interiors are fine, vertices are cone points and not allowed); None picks
    the first polygon's centroid. Cone points within `radius` of the base are
    collected; a point is kept only if no other collected point lies strictly
    between it and the base on the same ray. The base point and radius are
    taken as exact Fractions (floats by their binary value).

    The unfolding runs in the integer frame of the base (`_frame`): placements
    are keyed on integer translations, the window test is exact on ints, and
    a cone point is visible iff it is the nearest on its primitive integer ray
    from the base. The chart keeps that frame (`_Frame`).
    """
    if base is None:
        base = default_base(surface)
    pid0, local = base
    local = (Fraction(local[0]), Fraction(local[1]))
    radius = Fraction(radius)
    try:
        verts0 = surface.polygon(pid0)
    except KeyError:
        raise SurfaceError(f"base polygon {pid0!r} is not a polygon of the "
                           "surface") from None
    if local in verts0:
        raise SurfaceError(f"base point {local} is a cone point")
    if point_in_polygon(local, verts0) < 0:
        raise SurfaceError(f"base point {local} is not inside polygon {pid0}")
    if radius <= 0:
        raise SurfaceError("radius must be positive")

    L, ints = _frame(surface, local)
    r2 = (radius * L) ** 2
    rn, rd = r2.numerator, r2.denominator
    # hops[p][e] = (q, dx, dy): crossing edge e of p places q shifted by (dx, dy)
    hops: dict = {}
    for pid, verts in ints.items():
        hops[pid] = []
        for e, (x, y) in enumerate(verts):
            q, f = surface.gluings[(pid, e)]
            qx, qy = ints[q][(f + 1) % len(ints[q])]
            hops[pid].append((q, x - qx, y - qy))
    cones = {pid: [surface.cone_class[(pid, i)] for i in range(len(verts))]
             for pid, verts in ints.items()}

    queue = deque([(pid0, 0, 0, ())])
    seen = {(pid0, 0, 0)}
    placements = []
    raw: dict[tuple[int, int], tuple] = {}  # frame position -> (cone_id, path)
    while queue:
        item = pid, tx, ty, path = queue.popleft()
        placements.append(item)
        for (x, y), cone in zip(ints[pid], cones[pid]):
            x += tx
            y += ty
            if (x, y) not in raw and (x * x + y * y) * rd <= rn:
                raw[(x, y)] = (cone, path)
        for e, (q, dx, dy) in enumerate(hops[pid]):
            key = (q, tx + dx, ty + dy)
            if key in seen:
                continue
            _, ux, uy = key
            if not _comes_within([(x + ux, y + uy) for x, y in ints[q]], rn, rd):
                continue
            seen.add(key)
            queue.append((q, ux, uy, path + ((pid, e),)))

    # nearest first; a point is visible iff no nearer point shares its ray.
    # A point at the base itself (another sheet's vertex) is on no ray: it
    # gets the key (0, 0), is visible and blocks nothing.
    rays = set()
    visible: list = []
    occluded: list = []
    for x, y in sorted(raw, key=lambda p: (p[0] * p[0] + p[1] * p[1], p)):
        ray = primitive(x, y)
        (occluded if ray in rays else visible).append((x, y, *raw[(x, y)]))
        rays.add(ray)

    origin = tuple(scaled_int(c, L) for c in local)
    frame = _Frame(L, origin, (0, 0), tuple(sorted(visible)),
                   tuple(sorted(occluded)), tuple(placements))
    return Chart._in_frame(surface, local, (pid0, local), radius, frame)


def locate(chart: Chart, position: Point):
    """Base locator (polygon_id, local point) for a developed-plane position.

    Prefers a placement containing the position strictly; falls back to a
    boundary placement. Raises if the position is outside every placement.
    Runs in the integer frame of the position: the placement translations
    lie on the lattice, so its L clears them too, and they are read from the
    chart's int frame.
    """
    L, ints = _frame(chart.surface, position)
    frame = chart.frame
    m, n = frame.L // chart.surface.scale, L // chart.surface.scale
    (sx, sy), (px, py) = frame.shift, (scaled_int(c, L) for c in position)
    boundary = None
    for pid, tx, ty, _ in frame.placements:
        tx, ty = (tx + sx) // m * n, (ty + sy) // m * n
        side = _origin_side([(x + tx, y + ty) for x, y in ints[pid]])
        if side > 0:
            return (pid, (Fraction(px - tx, L), Fraction(py - ty, L)))
        if side == 0 and boundary is None:
            boundary = (pid, (Fraction(px - tx, L), Fraction(py - ty, L)))
    if boundary is not None:
        return boundary
    raise SurfaceError(f"position {position} is outside the developed window")


def rebase(chart: Chart, position: Point, radius: Scalar = None) -> Chart:
    """Develop a fresh chart based at a (developed-plane) position.

    The new chart's coordinates are translated so that the given position
    keeps its developed coordinates (placement translations are aligned).
    The fresh unfolding is kept in its int frame, moved by the int offset
    (position - local point) * L: no point or placement is rebuilt.
    """
    pid, local = locate(chart, position)
    fresh = develop(chart.surface, (pid, local),
                    chart.radius if radius is None else radius)
    # fresh coordinates place `pid` at translation 0; shift back
    frame = fresh.frame
    L, (ox, oy) = frame.L, frame.origin
    px, py = (scaled_int(c, L) for c in position)
    return Chart._in_frame(
        fresh.surface, (Fraction(px, L), Fraction(py, L)), fresh.base_locator,
        fresh.radius, dataclasses.replace(frame, origin=(px, py),
                                          shift=(px - ox, py - oy)))


# ---------------------------------------------------------------------------
# immersion certificates

class Fit(enum.Enum):
    YES = "fits"
    NO = "does-not-fit"
    INCONCLUSIVE = "inconclusive"


def _int_form(q: QForm3, origin: Point) -> QForm3:
    """q moved to `origin` and cleared of denominators: the int form
    u -> k q(origin + u) for some k > 0.

    In an int frame of scale L around the origin, the point origin + (X, Y)/L
    has q-value of the sign of this form at (X, Y, L), since the form is
    homogeneous of degree 2 and k L^2 > 0.
    """
    return QForm3(*clear_denominators(
        congruent(q.coeffs(), ((1, 0), (0, 1)), origin, 1)))


def _meets_beyond(alpha, beta, gamma) -> bool:
    """Is g(t) = alpha t^2 + beta t + gamma <= 0 for some t > 1? Exact case
    analysis; the answer does not change when all three scale by one
    positive factor."""
    sa = sign_of(alpha)
    if sa < 0:
        return True
    if sa > 0:
        tstar_num, tstar_den = -beta, 2 * alpha  # t* = -beta / 2 alpha
        if tstar_num > tstar_den:  # t* > 1
            return 4 * alpha * gamma - beta * beta <= 0
        return alpha + beta + gamma < 0  # g(1) < 0
    sb = sign_of(beta)
    if sb < 0:
        return True
    if sb > 0:
        return beta + gamma < 0
    return gamma <= 0


def subconic_fits(chart: Chart, q: QForm3) -> Fit:
    """Certify that the ellipse {q < 0} develops injectively: closed region
    inside the chart's visibility region, open region free of cone points.

    The window can only certify an ellipse that the conservative bound
    |centre - base| + semi-major axis < R keeps inside it; any other ellipse
    is INCONCLUSIVE. The bound is decided exactly, in Fractions. With the
    restriction [[a, b], [b, c]], kappa = -q(centre), t = a + c,
    delta = ac - b^2, D = t^2 - 4 delta and k = kappa / (2 delta), the
    squared semi-major axis is k t + k sqrt(D), and with d = |centre - base|^2
    the bound holds iff d < R^2 and R^2 + d - k t > k sqrt(D) + 2 R sqrt(d),
    which squaring twice turns into the rational tests below.

    The point scan reads the chart's int frame (`Chart.frame`): each
    visible point is base + (X, Y)/L for its int entry (X, Y), and q moved
    to the base (`_int_form`) gives the values alpha,
    beta, gamma of q along the ray base + t (X, Y)/L as ints, all scaled by
    one positive factor. A point fails the certificate
    when q is negative there (g(1) < 0) or when {q <= 0} meets its ray
    strictly beyond it (`_meets_beyond`).
    """
    (a, b), (_, c) = q.gram_restriction()
    center = ellipse_center(q)
    d = dist2(center, chart.base)
    t, delta = a + c, a * c - b * b
    D = t * t - 4 * delta
    k = -q(lift(center)) / (2 * delta)
    r2 = chart.radius ** 2
    x = r2 + d - k * t
    y = x * x - k * k * D - 4 * r2 * d
    if not (d < r2 and x > 0 and y > 0 and y * y > 16 * k * k * r2 * D * d):
        return Fit.INCONCLUSIVE
    L = chart.frame.L
    qi = _int_form(q, chart.base)
    gamma = qi.a33 * L * L
    for X, Y, _, _ in chart.frame.points:
        alpha = qi((X, Y, 0))
        beta = 2 * L * (qi.a13 * X + qi.a23 * Y)
        if alpha + beta + gamma < 0 or _meets_beyond(alpha, beta, gamma):
            return Fit.NO
    return Fit.YES
