"""Affine reconstruction between explored windows, exact Veech-group
membership, and the hyperbolic tessellation of a cell complex.

Everything that decides a verdict is exact. An affine map keeps its rational
matrix, and its homothety sqrt(det g) is taken as a rational only when det g
is a rational square. The windows of `cellcomplex` key every cone point by
its int lattice point, so `discover_affine` proposes each candidate as a map
between the two lattices, solved on ints (`psi_of_quadruple`), and vets it
on the lattice keys; the g and translation it returns act on positions.
`veech_check` needs no window: g is in the Veech group iff the Delaunay
decompositions of g S and S are isomorphic by a translation
(`flatconic.delaunay`), which is decided on the whole surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cellcomplex import (CellComplexWindow, CellMatching, _face_id,
                          _shown, frontier_bijection, matching_from_affine)
from .delaunay import NotIsomorphic, delaunay, isomorphism
from .geom import h_point
from .linalg import apply_affine, convex_hull_ccw
from .surface import SurfaceDesc, SurfaceError


@dataclass(frozen=True)
class AffineCandidate:
    """The affine map z -> g z + translation, with g = homothety * linear,
    homothety = sqrt(det g) > 0 and linear unimodular.

    `g` and `translation` hold exact rationals. `homothety` and `linear` are
    the rational factors when det g is a rational square, and None when the
    homothety is irrational.
    """
    g: tuple               # 2x2 rows, det > 0
    translation: tuple

    @property
    def det(self) -> Fraction:
        (a, b), (c, d) = self.g
        return Fraction(a * d - b * c)

    @property
    def homothety(self) -> Optional[Fraction]:
        det = self.det
        root = Fraction(math.isqrt(det.numerator), math.isqrt(det.denominator))
        return root if root * root == det else None

    @property
    def linear(self) -> Optional[tuple]:
        h = self.homothety
        if h is None:
            return None
        return tuple(tuple(x / h for x in row) for row in self.g)

    def apply(self, p):
        return apply_affine(self.g, self.translation, p)


def psi_of_quadruple(Z, Zp) -> AffineCandidate:
    """The unique affine map sending the first three points of Z to those of
    Zp, checked for orientation and for consistency on the fourth point.

    Exact on ints and Fractions alike: g = N adj(M) / det M for the
    difference matrices M and N. On lattice points, as `discover_affine`
    passes them, everything is int until g and the translation become
    Fractions.
    """
    Z = [tuple(p) for p in Z]
    Zp = [tuple(p) for p in Zp]
    if len(Z) != 4 or len(Zp) != 4:
        raise ValueError("need two quadruples")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = Z
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = Zp
    m00, m01 = x1 - x0, x2 - x0
    m10, m11 = y1 - y0, y2 - y0
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("source triple is collinear")
    n00, n01 = u1 - u0, u2 - u0
    n10, n11 = v1 - v0, v2 - v0
    # g = N M^-1 = G / det
    G = ((n00 * m11 - n01 * m10, -n00 * m01 + n01 * m00),
         (n10 * m11 - n11 * m10, -n10 * m01 + n11 * m00))
    if G[0][0] * G[1][1] - G[0][1] * G[1][0] <= 0:   # det^2 det g
        raise ValueError("map is orientation-reversing or degenerate")
    # the translation is (det u0 - G x0) / det; the fourth point maps to
    # (G (x3 - x0) + det u0) / det
    image = (G[0][0] * (x3 - x0) + G[0][1] * (y3 - y0),
             G[1][0] * (x3 - x0) + G[1][1] * (y3 - y0))
    if image != (det * (u3 - u0), det * (v3 - v0)):
        image = (Fraction(image[0] + det * u0, det),
                 Fraction(image[1] + det * v0, det))
        raise ValueError(
            f"fourth point is inconsistent: {Z[3]} maps to {image}, "
            f"expected {Zp[3]}")
    g = tuple(tuple(Fraction(x, det) for x in row) for row in G)
    tau = (Fraction(det * u0 - G[0][0] * x0 - G[0][1] * y0, det),
           Fraction(det * v0 - G[1][0] * x0 - G[1][1] * y0, det))
    return AffineCandidate(g, tau)


def _position_map(c: AffineCandidate, A: CellComplexWindow,
                  B: CellComplexWindow) -> AffineCandidate:
    """The map of positions of the map c from A's lattice to B's: with
    P = L_A p and Q = L_B q, Q = G P + t is q = (L_A / L_B) G p + t / L_B."""
    la, lb = A.chart.surface.scale, B.chart.surface.scale
    return AffineCandidate(
        tuple(tuple(Fraction(x.numerator * la, x.denominator * lb)
                    for x in row) for row in c.g),
        tuple(Fraction(t.numerator, t.denominator * lb)
              for t in c.translation))


def reconstruct(A: CellComplexWindow, B: CellComplexWindow,
                phi: CellMatching) -> AffineCandidate:
    """Recover the common affine map underlying a cell matching: the frontier
    bijection gives matched cone points, every matched 1-cell determines the
    map on its quadruple, and all of them must agree. The map is solved
    between the lattices of A and B and returned on positions."""
    beta = frontier_bijection(A, B, phi)
    la, lb = A.chart.surface.scale, B.chart.surface.scale
    candidate = None
    witness = None
    for q in sorted(phi.edges):
        if not all(p in beta for p in q):
            continue
        image = [beta[p] for p in q]
        try:
            c = psi_of_quadruple(q, image)
        except ValueError:
            # it fails alike on positions, which the message names
            Z = _shown(q, la)
            try:
                psi_of_quadruple(Z, _shown(image, lb))
            except ValueError as e:
                raise ValueError(f"1-cell {Z} admits no affine map: "
                                 f"{e}") from None
            raise
        if candidate is None:
            candidate, witness = c, q
        elif c != candidate:
            raise ValueError(
                f"1-cells {_shown(witness, la)} and {_shown(q, la)} determine "
                f"different affine maps ({_position_map(candidate, A, B).g} "
                f"vs {_position_map(c, A, B).g})")
    if candidate is None:
        raise ValueError("no matched 1-cell has a fully matched quadruple")
    return _position_map(candidate, A, B)


def discover_affine(A: CellComplexWindow, B: CellComplexWindow):
    """Search for an affine map carrying window A onto window B.

    A 1-cell quadruple is strictly convex (on an ellipse, or 2 + 2 points on
    two parallel lines), and an orientation-preserving affine map keeps its
    counterclockwise order. So each A 1-cell is sent onto the 4 cyclic
    rotations of each B 1-cell only, in the order a search over all 24
    orderings would meet them. Each candidate is solved on the lattice keys
    of the two windows and vetted by matching the whole windows and
    reconstructing. Among the certified maps the one with the smallest
    translation (then smallest entries) is returned, together with its
    matching. Raises when nothing certifies.
    """
    b_edges = [convex_hull_ccw(qb) for qb in sorted(B.edges)]
    tried = set()
    certified = []
    for qa in sorted(A.edges):
        ccw = convex_hull_ccw(qa)
        at = [ccw.index(p) for p in qa]
        for ccw_b in b_edges:
            n = len(ccw_b)
            shifts = sorted(range(n), key=lambda k: [ccw_b[(i + k) % n]
                                                     for i in at])
            for k in shifts:
                perm = [ccw_b[(i + k) % n] for i in at]
                try:
                    cand = psi_of_quadruple(list(qa), perm)
                except ValueError:
                    continue
                # keyed by int pairs: hashing a Fraction is dear
                key = tuple((x.numerator, x.denominator) for x in (
                    *cand.g[0], *cand.g[1], *cand.translation))
                if key in tried:
                    continue
                tried.add(key)
                cand = _position_map(cand, A, B)
                try:
                    phi = matching_from_affine(A, B, cand.g, cand.translation)
                    rec = reconstruct(A, B, phi)
                except ValueError:
                    continue
                certified.append((rec, phi))
    if not certified:
        raise ValueError("no affine correspondence between the windows "
                         "certifies")

    def presentation_grade(rec) -> int:
        # 0: carries A's polygons to B's vertex-for-vertex in listed order,
        # 1: carries them onto the same vertex sets, 2: neither.
        sa, sb = A.chart.surface, B.chart.surface
        if len(sa.polygons) != len(sb.polygons):
            return 2
        targets = dict(sb.polygons)
        ordered = True
        for pid, verts in sa.polygons:
            if pid not in targets:
                return 2
            image = tuple(rec.apply(v) for v in verts)
            if image != targets[pid]:
                ordered = False
                # the vertices of a polygon are distinct
                if len(image) != len(targets[pid]) or any(
                        v not in targets[pid] for v in image):
                    return 2
        return 0 if ordered else 1

    def size(entry):
        # the entries of linear = g / sqrt(det g) are compared through
        # x |x| = sign(x) x^2, which is rational and strictly increasing
        rec, phi = entry
        t0, t1 = rec.translation
        det = rec.det
        entries = [x for row in rec.g for x in row]
        return (presentation_grade(rec), -len(phi.faces),
                t0 * t0 + t1 * t1, sum(x * x for x in entries) / det,
                tuple(x * abs(x) / det for x in entries), rec.translation)

    certified.sort(key=size)
    return certified[0]


# ---------------------------------------------------------------------------
# membership in the Veech group, decided on the whole surface

@dataclass
class VeechVerdict:
    verdict: str                 # member-in-window | rejected
    radius: object
    translation: Optional[tuple]
    detail: str
    sides: Optional[tuple] = None    # members: the Delaunay side map

    def __str__(self):
        return f"{self.verdict} (R={self.radius})"

    @property
    def is_member(self) -> bool:
        return self.verdict == "member-in-window"


def veech_check(surface: SurfaceDesc, g, radius=6) -> VeechVerdict:
    """Exact membership test for a matrix g of determinant 1.

    g is in the Veech group of the surface iff the Delaunay decompositions
    of g S and of S differ by a translation, which `delaunay.isomorphism`
    decides on the whole surface, in the int frame of lcm(S.scale,
    gS.scale). A member verdict carries the isomorphism as its certificate:
    `sides[i]` is the side of S's decomposition that side i of g S's goes
    to, and `translation` carries side 0 of g S's, as developed, onto its
    image. A rejection's detail names the first mismatch. The radius is only
    checked to be positive and echoed in the verdict line.
    """
    g = ((Fraction(g[0][0]), Fraction(g[0][1])),
         (Fraction(g[1][0]), Fraction(g[1][1])))
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if det != 1:
        raise ValueError(f"matrix must have determinant 1, got {det}")
    if radius <= 0:
        raise SurfaceError("radius must be positive")
    image = surface.mapped(g)
    scale = math.lcm(surface.scale, image.scale)
    a, b = delaunay(image, scale), delaunay(surface, scale)
    try:
        sides = isomorphism(a, b)
    except NotIsomorphic as e:
        return VeechVerdict("rejected", radius, None,
                            f"the Delaunay decompositions of g S (first) "
                            f"and S (second) differ: {e}")
    tau = tuple(Fraction(q - p, scale)
                for p, q in zip(a.starts[0], b.starts[sides[0]]))
    return VeechVerdict("member-in-window", radius, tau,
                        f"a translation carries the {a.cells} Delaunay cells "
                        f"of g S onto those of S, side for side "
                        f"({len(sides)} sides)", sides)


# ---------------------------------------------------------------------------
# tessellation

@dataclass
class TessFace:
    id: str                # the cell's triple as positions
    triple: tuple          # lattice points
    vertices: tuple        # HPoint or None per polygon corner
    truncated: bool


@dataclass
class Tessellation:
    """The image of a complex window in the hyperbolic plane: one h-point
    per rigid conic, one geodesic arc per 1-cell, faces labelled by their
    source cells (combinatorially the same complex)."""
    faces: list
    edges: list            # (edge quadruple key, endpoint HPoints)
    vertex_points: dict    # rigid key -> HPoint


def tessellate(window: CellComplexWindow) -> Tessellation:
    L = window.chart.surface.scale
    vertex_points = {}
    for key, U in sorted(window.vertices.items()):
        vertex_points[key] = h_point(U.subconic)
    faces = []
    for fkey in sorted(window.cells):
        cell = window.cells[fkey]
        hps = []
        truncated = False
        for U in cell.vertex_conics:
            if U is None:
                hps.append(None)
                continue
            hps.append(vertex_points[U.key()])
            truncated = truncated or U.truncated
        faces.append(TessFace(_face_id(fkey, L), cell.triple, tuple(hps),
                              truncated))
    edges = []
    for ekey in sorted(window.edges):
        rec = window.edges[ekey]
        ends = tuple(vertex_points[v] for v in sorted(rec["endpoints"]))
        edges.append((ekey, ends))
    return Tessellation(faces, edges, vertex_points)
