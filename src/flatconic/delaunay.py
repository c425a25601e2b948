"""Delaunay decompositions of translation surfaces, and the translation
isomorphisms between them.

The marked points of a surface are its polygon vertices. Its Delaunay
decomposition into cells inscribed in empty circles is canonical: it depends
only on the surface, not on the polygons it was given by. Over the round
class i of the hyperbolic plane it is the fibre of `h_point`, and an affine
map with derivative g carries it onto the decomposition of the image, so g
is in the Veech group of S exactly when the decompositions of g S and of S
differ by a translation.

Everything is exact and runs on ints. A decomposition is read in an int
frame: coordinates times `scale`, which a caller comparing two surfaces
takes as a common multiple of their `SurfaceDesc.scale`. Each polygon is
ear-clipped into triangles, edges are flipped by the int incircle
determinant until every edge is locally Delaunay, and triangles that share a
circumcircle (incircle zero across their edge) are merged into one cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .linalg import cross, scaled_int
from .surface import SurfaceDesc


@dataclass(frozen=True)
class Decomposition:
    """The sides of the cells of a Delaunay decomposition, cell after cell,
    each cell counterclockwise.

    Side i starts at `starts[i]` and runs along `vectors[i]` (int pairs, in
    the frame of `scale`); `nxt[i]` is the next side of its cell and
    `glued[i]` the side of the neighbouring cell glued to it (the reversed
    vector). Start points are the corners as developed from their polygons,
    so only their differences along a cell mean anything on the surface.
    """
    scale: int
    starts: tuple
    vectors: tuple
    nxt: tuple
    glued: tuple

    @property
    def cells(self) -> int:
        return sum(1 for i in range(len(self.nxt)) if self.nxt[i] < i)


class NotIsomorphic(ValueError):
    """No translation carries one decomposition onto the other; the message
    names the first mismatch."""


def _incircle(b, c, d) -> int:
    """Positive when d lies strictly inside the circle through the origin, b
    and c (counterclockwise), zero on it, negative outside."""
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    d2 = d[0] * d[0] + d[1] * d[1]
    return -(b[0] * (c[1] * d2 - c2 * d[1])
             - b[1] * (c[0] * d2 - c2 * d[0])
             + b2 * (c[0] * d[1] - c[1] * d[0]))


def _triangulate(surface: SurfaceDesc, scale: int):
    """Ear-clip every polygon: (corners, opp), with corners[t] the three int
    corners of triangle t counterclockwise and opp[3 t + k] the half-edge
    glued to side k of t (from corner k to corner k + 1)."""
    corners: list = []
    opp: list = []
    edge_of = {}                        # (pid, e) -> half-edge
    for pid, verts in surface.polygons:
        # the remaining polygon: (corner, handle of the side leaving it); a
        # handle is a polygon edge (pid, e) or the half-edge a clipped
        # diagonal is glued to
        ring = [((scaled_int(x, scale), scaled_int(y, scale)), (pid, e))
                for e, (x, y) in enumerate(verts)]
        while True:
            if len(ring) == 3:
                ear = 1
            else:
                ear = next((i for i in range(len(ring))
                            if _is_ear(ring, i)), None)
                if ear is None:
                    raise ValueError(f"polygon {pid} has no ear: it is not "
                                     "a simple polygon")
            n = len(ring)
            (a, ha), (b, hb), (c, hc) = (ring[(ear - 1) % n], ring[ear],
                                         ring[(ear + 1) % n])
            t = len(corners)
            corners.append((a, b, c))
            opp.extend((None, None, None))
            sides = (ha, hb, hc) if n == 3 else (ha, hb, None)
            for k, h in enumerate(sides):
                if isinstance(h, int):          # a diagonal clipped earlier
                    opp[3 * t + k], opp[h] = h, 3 * t + k
                elif h is not None:
                    edge_of[h] = 3 * t + k
            if n == 3:
                break
            # the diagonal c -> a closes the ear; the ring keeps a -> c
            ring[(ear - 1) % n] = (a, 3 * t + 2)
            del ring[ear]
    for side, other in surface.gluings.items():
        opp[edge_of[side]] = edge_of[other]
    return corners, opp


def _is_ear(ring, i) -> bool:
    """A strictly convex corner whose closed triangle holds no other corner
    of the remaining polygon."""
    n = len(ring)
    a, b, c = ring[(i - 1) % n][0], ring[i][0], ring[(i + 1) % n][0]
    if cross(a, b, c) <= 0:
        return False
    for j in range(n):
        if (j - i) % n in (0, 1, n - 1):
            continue
        p = ring[j][0]
        if cross(a, b, p) >= 0 and cross(b, c, p) >= 0 and cross(c, a, p) >= 0:
            return False
    return True


def _across(corners, opp, h) -> int:
    """The incircle sign of half-edge h: positive when the corner across it
    lies strictly inside the circumcircle of its triangle."""
    t, k = divmod(h, 3)
    u, m = divmod(opp[h], 3)
    A, B, C = corners[t][k], corners[t][(k + 1) % 3], corners[t][(k + 2) % 3]
    A2, D2 = corners[u][(m + 1) % 3], corners[u][(m + 2) % 3]
    return _incircle((B[0] - A[0], B[1] - A[1]), (C[0] - A[0], C[1] - A[1]),
                     (D2[0] - A2[0], D2[1] - A2[1]))


def _flip(corners, opp, h) -> tuple:
    """Replace the diagonal h of its quadrilateral by the other one, the new
    triangles developed in the frame of h's triangle; returns the four
    half-edges around the quadrilateral."""
    t, k = divmod(h, 3)
    u, m = divmod(opp[h], 3)
    A, B, C = corners[t][k], corners[t][(k + 1) % 3], corners[t][(k + 2) % 3]
    A2, D2 = corners[u][(m + 1) % 3], corners[u][(m + 2) % 3]
    D = (A[0] + D2[0] - A2[0], A[1] + D2[1] - A2[1])
    # t becomes (C, A, D) and u becomes (D, B, C)
    moved = {3 * t + (k + 2) % 3: 3 * t, 3 * u + (m + 1) % 3: 3 * t + 1,
             3 * u + (m + 2) % 3: 3 * u, 3 * t + (k + 1) % 3: 3 * u + 1}
    partners = {old: opp[old] for old in moved}
    corners[t] = (C, A, D)
    corners[u] = (D, B, C)
    for old, new in moved.items():
        other = moved.get(partners[old], partners[old])
        opp[new], opp[other] = other, new
    opp[3 * t + 2], opp[3 * u + 2] = 3 * u + 2, 3 * t + 2
    return (3 * t, 3 * t + 1, 3 * u, 3 * u + 1)


def delaunay(surface: SurfaceDesc, scale: int = None) -> Decomposition:
    """The Delaunay decomposition of the surface, read in the int frame of
    `scale` (default `surface.scale`, which must divide it)."""
    scale = surface.scale if scale is None else scale
    corners, opp = _triangulate(surface, scale)
    stack = list(range(len(opp)))
    while stack:
        h = stack.pop()
        if _across(corners, opp, h) > 0:
            stack.extend(_flip(corners, opp, h))
    inner = [_across(corners, opp, h) == 0 for h in range(len(opp))]
    index = {}                          # boundary half-edge -> side
    starts, vectors, nxt = [], [], []
    for h in range(len(opp)):
        if inner[h] or h in index:
            continue
        first = len(starts)
        while h not in index:
            t, k = divmod(h, 3)
            a, b = corners[t][k], corners[t][(k + 1) % 3]
            index[h] = len(starts)
            starts.append(a)
            vectors.append((b[0] - a[0], b[1] - a[1]))
            nxt.append(len(starts))
            # the next side leaves b: walk across inner edges around b
            h = 3 * t + (k + 1) % 3
            while inner[h]:
                u, m = divmod(opp[h], 3)
                h = 3 * u + (m + 1) % 3
        nxt[-1] = first
    glued = [0] * len(starts)
    for h, i in index.items():
        glued[i] = index[opp[h]]
    return Decomposition(scale, tuple(starts), tuple(vectors), tuple(nxt),
                         tuple(glued))


def isomorphism(a: Decomposition, b: Decomposition) -> tuple:
    """The translation isomorphism from a onto b, as the side of b that each
    side of a goes to; raises NotIsomorphic naming the first mismatch.

    The multisets of side vectors must agree. Then the first side of
    a not yet mapped is sent to each free side of b with its vector in turn,
    and the map is propagated along next-in-cell and glued sides, which
    reaches the whole component; it must keep vectors and be injective.
    Isomorphic components are interchangeable, so the first component that
    fits can be kept.
    """
    if a.scale != b.scale:
        raise ValueError("decompositions are read in different frames")
    count_a, count_b = Counter(a.vectors), Counter(b.vectors)
    if count_a != count_b:
        v = min((count_a - count_b) + (count_b - count_a))
        raise NotIsomorphic(
            f"side {_show(v, a.scale)} occurs {count_a[v]} times in the "
            f"first and {count_b[v]} times in the second")
    image: dict = {}
    taken: set = set()
    for x0, v in enumerate(a.vectors):
        if x0 in image:
            continue
        first = None
        for y0 in (y for y, w in enumerate(b.vectors)
                   if w == v and y not in taken):
            try:
                part = _propagate(a, b, x0, y0, taken)
            except NotIsomorphic as e:
                first = first or e
                continue
            image.update(part)
            taken.update(part.values())
            break
        else:
            raise first
    return tuple(image[x] for x in range(len(a.vectors)))


def _propagate(a, b, x0, y0, taken) -> dict:
    """Side x0 of a sent onto side y0 of b, extended along next-in-cell and
    glued sides over x0's component, avoiding the sides of b already
    taken."""
    image = {x0: y0}
    used = {y0}
    todo = [x0]
    while todo:
        x = todo.pop()
        y = image[x]
        for fx, fy, how in ((a.nxt[x], b.nxt[y], "next"),
                            (a.glued[x], b.glued[y], "glued")):
            if fx in image:
                ok = image[fx] == fy
            else:
                ok = (fy not in used and fy not in taken
                      and a.vectors[fx] == b.vectors[fy])
                image[fx] = fy
                used.add(fy)
                todo.append(fx)
            if not ok:
                raise NotIsomorphic(
                    f"with side {x0} {_show(a.vectors[x0], a.scale)} sent "
                    f"onto side {y0}, the {how} side of side {x} "
                    f"{_show(a.vectors[x], a.scale)} does not match")
    return image


def _show(v, scale) -> str:
    return "({}, {})".format(*(Fraction(c, scale) for c in v))
