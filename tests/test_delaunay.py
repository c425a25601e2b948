"""Delaunay decompositions: empty inscribed cells, independence of the
polygons a surface is given by, and translation isomorphisms."""

import math
from fractions import Fraction as F

import pytest

import oracles
from flatconic.delaunay import NotIsomorphic, delaunay, isomorphism
from flatconic.linalg import cross
from flatconic.models import l_shape, square_torus, two_marked_torus
from flatconic.surface import validate_surface

SURFACES = {
    "torus": square_torus(),
    "sheared": square_torus().mapped(((1, 1), (0, 1))),
    "skewed": square_torus().mapped(((3, 5), (1, 2))),
    "L": l_shape(),
    "L-stretched": oracles.stretched_l(),
    "L-sheared": l_shape().mapped(((1, F(1, 3)), (0, 1))),
    "marked-1/3-1/5": two_marked_torus(marked=(F(1, 3), F(1, 5))),
    "marked-2/5-1/5-skewed": two_marked_torus(
        marked=(F(2, 5), F(1, 5))).mapped(((2, 1), (3, 2))),
}


def _incircle(a, b, c, d):
    """Positive when d lies strictly inside the circle through a, b, c
    (counterclockwise)."""
    rows = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    m = [(x, y, x * x + y * y) for x, y in rows]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _cells(dec):
    """Each cell as its list of sides, counterclockwise."""
    seen, cells = set(), []
    for i in range(len(dec.vectors)):
        if i in seen:
            continue
        cell = [i]
        while dec.nxt[cell[-1]] != i:
            cell.append(dec.nxt[cell[-1]])
        seen |= set(cell)
        cells.append(cell)
    return cells


def _corners(dec, cell, origin=(0, 0)):
    out = [origin]
    for i in cell[:-1]:
        v = dec.vectors[i]
        out.append((out[-1][0] + v[0], out[-1][1] + v[1]))
    return out


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_cells_are_empty_convex_polygons_inscribed_in_circles(name):
    surface = SURFACES[name]
    dec = delaunay(surface)
    cells = _cells(dec)
    assert len(cells) == dec.cells
    cell_of = {i: cell for cell in cells for i in cell}
    area2 = 0
    for cell in cells:
        pts = _corners(dec, cell)
        n = len(pts)
        assert sum(dec.vectors[i][0] for i in cell) == 0
        assert sum(dec.vectors[i][1] for i in cell) == 0
        assert all(cross(pts[k], pts[(k + 1) % n], pts[(k + 2) % n]) > 0
                   for k in range(n))
        assert all(_incircle(*pts[:3], p) == 0 for p in pts[3:])
        area2 += sum(cross((0, 0), pts[k], pts[(k + 1) % n]) for k in range(n))
        # across each side, the neighbouring cell's other corners lie
        # strictly outside the circle: equal circles would be one cell
        for k, i in enumerate(cell):
            j = dec.glued[i]
            assert dec.vectors[j] == tuple(-c for c in dec.vectors[i])
            other = cell_of[j]
            rot = other.index(j)
            other = other[rot:] + other[:rot]
            # side j runs from pts[k + 1] to pts[k]
            theirs = _corners(dec, other, pts[(k + 1) % n])
            assert theirs[1] == pts[k]
            assert all(_incircle(*pts[:3], p) < 0 for p in theirs[2:])
    # the cells tile the surface
    assert F(area2, dec.scale ** 2) == sum(
        sum(cross((0, 0), v[k], v[(k + 1) % len(v)]) for k in range(len(v)))
        for _, v in surface.polygons)


def _three_squares():
    """The L of `models.l_shape` cut into its three unit squares."""
    def square(x, y):
        return tuple((F(x + dx), F(y + dy))
                     for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1)))
    # sides 0 bottom, 1 right, 2 top, 3 left
    gluings = [(("s0", 1), ("s1", 3)), (("s0", 2), ("s2", 0)),
               (("s0", 0), ("s2", 2)), (("s1", 0), ("s1", 2)),
               (("s1", 1), ("s0", 3)), (("s2", 1), ("s2", 3))]
    return validate_surface([("s0", square(0, 0)), ("s1", square(1, 0)),
                             ("s2", square(0, 1))], gluings)


def _halved_square():
    """The (1/2, 1/2) two-marked torus as two triangles of the unit square
    with the marked point a 180 degree corner of each. The first corner of
    the first triangle is convex, but its closed triangle holds the marked
    point on the diagonal, so it is no ear."""
    h = F(1, 2)
    lower = ((F(1), F(0)), (F(1), F(1)), (h, h), (F(0), F(0)))
    upper = ((F(0), F(0)), (h, h), (F(1), F(1)), (F(0), F(1)))
    # lower: 0 right, 1 and 2 the diagonal, 3 bottom; upper: 0 and 1 the
    # diagonal, 2 top, 3 left
    gluings = [(("a", 0), ("b", 3)), (("a", 1), ("b", 1)),
               (("a", 2), ("b", 0)), (("a", 3), ("b", 2))]
    return validate_surface([("a", lower), ("b", upper)], gluings)


@pytest.mark.parametrize("a, b", [
    (two_marked_torus(), _halved_square()),
    (square_torus(), square_torus().mapped(((1, 1), (0, 1)))),
    (square_torus(), square_torus().mapped(((3, 5), (1, 2)))),
    (l_shape(), _three_squares()),
    (l_shape(), l_shape().mapped(((0, -1), (1, 0)))),
])
def test_the_decomposition_does_not_depend_on_the_polygons(a, b):
    L = math.lcm(a.scale, b.scale)
    da, db = delaunay(a, L), delaunay(b, L)
    sides = isomorphism(da, db)
    assert sorted(sides) == list(range(len(sides)))
    assert [db.vectors[j] for j in sides] == list(da.vectors)
    assert sorted(isomorphism(db, da)) == list(range(len(sides)))


def test_isomorphism_names_the_first_mismatch():
    # the L and its shear have the same side vectors, glued otherwise
    a, b = l_shape(), l_shape().mapped(((1, 1), (0, 1)))
    with pytest.raises(NotIsomorphic, match="next side of side 4 .* does not "
                       "match"):
        isomorphism(delaunay(a), delaunay(b))
    marked = two_marked_torus(marked=(F(1, 3), F(1, 3)))
    with pytest.raises(NotIsomorphic, match=r"side \(-2/3, -2/3\) occurs 1 "
                       "times in the first and 0 times in the second"):
        isomorphism(delaunay(marked), delaunay(marked.mapped(((0, -1), (1, 0)))))
    with pytest.raises(ValueError, match="different frames"):
        isomorphism(delaunay(square_torus()),
                    delaunay(square_torus(), 2))


def _union(*surfaces):
    """The disjoint union, polygon ids prefixed by the summand's index."""
    polygons, gluings = [], {}
    for n, s in enumerate(surfaces):
        polygons += [(f"{n}{pid}", verts) for pid, verts in s.polygons]
        gluings.update({(f"{n}{p}", e): (f"{n}{q}", f)
                        for (p, e), (q, f) in s.gluings.items()})
    return validate_surface(polygons, gluings)


def test_components_are_matched_one_by_one():
    torus, ell = square_torus(), l_shape()
    x = _union(torus, ell, torus)
    sides = isomorphism(delaunay(x), delaunay(_union(ell, torus, torus)))
    assert sorted(sides) == list(range(len(sides)))
    rotated = x.mapped(((0, -1), (1, 0)))
    assert sorted(isomorphism(delaunay(rotated), delaunay(x))) == \
        list(range(len(sides)))
    with pytest.raises(NotIsomorphic, match="does not match"):
        isomorphism(delaunay(x.mapped(((1, 1), (0, 1)))), delaunay(x))
