"""Independent oracles used to cross-check the geometric machinery.

Everything here goes through numpy least-squares / SVD on the raw monomial
matrix rather than the package's pencil arithmetic, so agreement between the
two routes is meaningful evidence. The reference unfolding, rigid conics and
strips, 2-cell constraints and clipping, window scans and affine vetting are
the plain Fraction implementations that the integer-frame `develop`,
`rigid_conics`, `_strip_rigid`, `feasible_region`, `_window_zeros` and
`subconic_fits`, and `matching_from_affine`, `frontier_bijection`,
`reconstruct` and `discover_affine`, must match exactly. They read affine
images and strip directions from their own `reference_transform_by_affine`
(the 3x3 congruence summed entry by entry) and `reference_strip_direction` (a
nullspace), not from the package.

The complex keys every cone point by its int lattice point (a position
times the surface's scale); the references stay on Fraction positions. They
read and are compared with the package's lattice objects through one
conversion, `positions`.

Veech-group membership has its ground truth at the end, from lattice
arithmetic and the SL(2,Z) action on origamis, never from flatconic. Pencil
and signature helpers that no pipeline code needs live here too, with their
tests, and so does the Fraction route to pencil members and realizability
(`from_poly`, `_form_at`, `realizable_triple`, `realizable_quadruple`) that
the lattice forms of `two_cell` replaced.
"""

import dataclasses
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np


def positions(obj, scale):
    """obj with every lattice point in it (a pair of ints) as its Fraction
    position, the point divided by `scale`: through containers, dict keys
    and dataclass fields. A `RigidConic` becomes the rigid conic on
    positions: scale 1, holding its position form. A chart is kept as is.
    For a map between two windows, convert its keys and values apart."""
    from flatconic.cellcomplex import RigidConic
    if type(obj) is tuple and len(obj) == 2 and all(type(c) is int
                                                    for c in obj):
        return (Fraction(obj[0], scale), Fraction(obj[1], scale))
    if isinstance(obj, RigidConic):
        return RigidConic(obj.subconic.form, obj.kind,
                          positions(obj.boundary, scale), obj.truncated, 1)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(obj, **{
            f.name: positions(getattr(obj, f.name), scale)
            for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return {positions(k, scale): positions(v, scale)
                for k, v in obj.items()}
    if isinstance(obj, (tuple, list, set, frozenset)):
        return type(obj)(positions(v, scale) for v in obj)
    return obj


def _on_lattice(q, scale):
    """The lattice form of a position form: an int form Q with
    Q(X, Y, 1) = k q(X / scale, Y / scale, 1) for some k > 0."""
    from flatconic.linalg import clear_denominators
    from flatconic.quadform import QForm3, congruent
    return QForm3(*clear_denominators(
        congruent(q.coeffs(), ((1, 0), (0, 1)), (0, 0), scale)))


def _strip_form(normal, lo, hi):
    """(nx*x + ny*y - lo)(nx*x + ny*y - hi) for an int normal, in
    `canonical_scale`: divided by its leading coefficient nx², or ny² when
    nx = 0. The form has signature (1, 1, 1), so no sign flip applies."""
    from flatconic.quadform import QForm3
    nx, ny = normal
    lead = nx * nx or ny * ny
    return QForm3(Fraction(nx * nx, lead), Fraction(ny * ny, lead),
                  lo * hi / lead, Fraction(nx * ny, lead),
                  -(lo + hi) * nx / (2 * lead), -(lo + hi) * ny / (2 * lead))


def conic_row(p):
    x, y = float(p[0]), float(p[1])
    return [x * x, x * y, y * y, x, y, 1.0]


def vanishing_dim(points) -> int:
    """Dimension of the space of conic coefficient vectors vanishing on the
    given points (6 monomials)."""
    if not points:
        return 6
    m = np.array([conic_row(p) for p in points], dtype=float)
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return 6 - rank


def conic_through(points):
    """Coefficient vector (a, b, c, d, e, f) of the unique conic through the
    points, or None if the solution is not 1-dimensional."""
    m = np.array([conic_row(p) for p in points], dtype=float)
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    if 6 - rank != 1:
        return None
    return vt[-1]


def is_real_ellipse(coeffs, tol=1e-9):
    """Does ax^2+bxy+cy^2+dx+ey+f = 0 cut out a real ellipse? Returns the
    coefficient vector normalized so the interior is negative, or None."""
    a, b, c, d, e, f = (float(t) for t in coeffs)
    det2 = a * c - b * b / 4.0
    if det2 <= tol:
        return None
    # center: gradient zero
    cx, cy = np.linalg.solve([[2 * a, b], [b, 2 * c]], [-d, -e])
    val = a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f
    if a * val >= -tol:          # imaginary or degenerate (point) ellipse
        return None
    if val > 0:                  # normalize: interior negative
        return tuple(-t for t in (a, b, c, d, e, f))
    return (a, b, c, d, e, f)


def eval_conic(coeffs, p):
    a, b, c, d, e, f = coeffs
    x, y = float(p[0]), float(p[1])
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def exhaustive_rigid_ellipses(points, blockers=None, tol=1e-7):
    """All ellipses through >= 5 of `points` with no blocker strictly inside.

    Brute force over every 5-subset; returns a set of frozensets of boundary
    points (members of points/blockers on the zero set). `blockers` defaults
    to `points` and is the set that must stay outside the open interior.
    """
    pts = list(points)
    blk = list(blockers) if blockers is not None else pts
    found = {}
    for sub in combinations(range(len(pts)), 5):
        coeffs = conic_through([pts[i] for i in sub])
        if coeffs is None:
            continue
        ell = is_real_ellipse(coeffs)
        if ell is None:
            continue
        vals = [eval_conic(ell, p) for p in blk]
        if any(v < -tol for v in vals):
            continue
        boundary = frozenset(tuple(p) for p, v in zip(blk, vals)
                             if abs(v) <= tol)
        if len(boundary) >= 5:
            found[boundary] = ell
    return found


def region_is_bounded(coeffs, span=1000.0, samples=64):
    """Sample test: is {q < 0} bounded? Checks a large circle of directions
    at `span` for negative values, then the null and negative eigen-directions
    of the quadratic part (numpy `eigh`), which a thin strip or parabola may
    hide between the sampled directions. Along a null direction the probe
    also starts from the minimum of q across it, so strips away from the
    origin are found."""
    a, b, c, d, e, f = (float(t) for t in coeffs)

    def q(x, y):
        return a * x * x + b * x * y + c * y * y + d * x + e * y + f

    for k in range(samples):
        t = 2.0 * np.pi * k / samples
        if q(span * np.cos(t), span * np.sin(t)) < 0:
            return False
    w, v = np.linalg.eigh(np.array([[a, b / 2.0], [b / 2.0, c]]))
    small = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    for i in range(2):
        if w[i] > small:
            continue
        u, n, wn = v[:, i], v[:, 1 - i], w[1 - i]
        starts = [np.zeros(2)]
        if wn > small:
            starts.append(-(d * n[0] + e * n[1]) / (2.0 * wn) * n)
        for s0 in starts:
            for sgn in (1.0, -1.0):
                x, y = s0 + sgn * span * u
                if q(x, y) < 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# reference unfolding: the straightforward Fraction implementation of
# `surface.develop`, `locate` and `rebase`, kept to check the integer-frame
# kernel against. Same BFS, same window test, O(n^2) visibility filter.

def _ref_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _ref_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ref_dist2(a, b):
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx * dx + dy * dy


def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_on_segment(p, a, b):
    if _ref_cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def reference_point_in_polygon(point, verts) -> int:
    """+1 strictly inside, 0 on the boundary, -1 outside (crossing count)."""
    n = len(verts)
    for i in range(n):
        if _ref_on_segment(point, verts[i], verts[(i + 1) % n]):
            return 0
    inside = False
    px, py = point
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if (ay > py) != (by > py):
            t = (px - ax) * (by - ay) - (bx - ax) * (py - ay)
            if (by > ay and t < 0) or (by < ay and t > 0):
                inside = not inside
    return 1 if inside else -1


def _ref_segment_dist2(p, a, b):
    ab = _ref_sub(b, a)
    ap = _ref_sub(p, a)
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    t = ap[0] * ab[0] + ap[1] * ab[1]
    if t <= 0:
        return _ref_dist2(p, a)
    if t >= denom:
        return _ref_dist2(p, b)
    proj = (a[0] + ab[0] * t / denom, a[1] + ab[1] * t / denom)
    return _ref_dist2(p, proj)


def _ref_polygon_dist2(p, verts):
    if reference_point_in_polygon(p, verts) >= 0:
        return 0
    return min(_ref_segment_dist2(p, verts[i], verts[(i + 1) % len(verts)])
               for i in range(len(verts)))


def reference_ellipse_within(q, base, radius) -> bool:
    """The float window bound that `surface.subconic_fits` once used: centre
    distance plus semi-major axis (from numpy `eigvalsh`) below the radius,
    less a relative slack of 1e-12 that absorbs rounding at exact ties."""
    import math
    from flatconic.quadform import ellipse_center, lift
    (a, b), (_, c) = q.gram_restriction()
    center = ellipse_center(q)
    kappa = -q(lift(center))
    eig = np.linalg.eigvalsh(np.array([[float(a), float(b)],
                                       [float(b), float(c)]]))
    major = math.sqrt(max(float(kappa), 0.0) / float(eig[0]))
    reach = math.sqrt(float((center[0] - base[0]) ** 2
                            + (center[1] - base[1]) ** 2)) + major
    return reach < float(radius) * (1 - 1e-12)


def stretched_l():
    """The L of unequal squares, with the gluings of `models.l_shape`."""
    from flatconic.models import l_shape
    from flatconic.surface import validate_surface
    F = Fraction
    return validate_surface(
        [("p0", ((F(0), F(0)), (F(1), F(0)), (F(5, 2), F(0)), (F(5, 2), F(1)),
                 (F(1), F(1)), (F(1), F(3, 2)), (F(0), F(3, 2)), (F(0), F(1))))],
        l_shape().gluings)


def reference_develop(surface, base=None, radius=6):
    from flatconic.surface import (Chart, DevPoint, Placement, SurfaceError,
                                   default_base)
    if base is None:
        base = default_base(surface)
    pid0, local = base
    verts0 = surface.polygon(pid0)
    if any(local[0] == v[0] and local[1] == v[1] for v in verts0):
        raise SurfaceError(f"base point {local} is a cone point")
    if reference_point_in_polygon(local, verts0) < 0:
        raise SurfaceError(f"base point {local} is not inside polygon {pid0}")
    if radius <= 0:
        raise SurfaceError("radius must be positive")
    base_pos = (local[0], local[1])
    r2 = radius * radius

    start = Placement(pid0, (Fraction(0), Fraction(0)), ())
    queue = deque([start])
    seen = {(pid0, start.translation)}
    placements = []
    raw = {}
    while queue:
        pl = queue.popleft()
        verts = surface.polygon(pl.poly_id)
        placed = [_ref_add(v, pl.translation) for v in verts]
        placements.append(pl)
        for i, pos in enumerate(placed):
            if _ref_dist2(pos, base_pos) <= r2 and pos not in raw:
                raw[pos] = DevPoint(pos, surface.cone_class[(pl.poly_id, i)],
                                    pl.path)
        for e in range(len(verts)):
            q, f = surface.gluings[(pl.poly_id, e)]
            qverts = surface.polygon(q)
            tau = _ref_add(pl.translation,
                           _ref_sub(verts[e], qverts[(f + 1) % len(qverts)]))
            key = (q, tau)
            if key in seen:
                continue
            qplaced = [_ref_add(v, tau) for v in qverts]
            if _ref_polygon_dist2(base_pos, qplaced) > r2:
                continue
            seen.add(key)
            queue.append(Placement(q, tau, pl.path + ((pl.poly_id, e),)))

    candidates = sorted(raw.values(),
                        key=lambda d: (_ref_dist2(d.position, base_pos),
                                       d.position[0], d.position[1]))
    visible, occluded = [], []
    for cand in candidates:
        blocked = False
        for keep in visible:
            u = _ref_sub(keep.position, base_pos)
            w = _ref_sub(cand.position, base_pos)
            if (_ref_cross(base_pos, keep.position, cand.position) == 0
                    and u[0] * w[0] + u[1] * w[1] > 0
                    and _ref_dist2(keep.position, base_pos)
                    < _ref_dist2(cand.position, base_pos)):
                blocked = True
                break
        (occluded if blocked else visible).append(cand)
    visible.sort(key=lambda d: d.position)
    occluded.sort(key=lambda d: d.position)
    return Chart(surface, base_pos, base, radius, tuple(visible),
                 tuple(occluded), tuple(placements))


def reference_locate(chart, position):
    from flatconic.surface import SurfaceError
    boundary = None
    for pl in chart.placements:
        verts = [_ref_add(v, pl.translation)
                 for v in chart.surface.polygon(pl.poly_id)]
        side = reference_point_in_polygon(position, verts)
        if side > 0:
            return (pl.poly_id, _ref_sub(position, pl.translation))
        if side == 0 and boundary is None:
            boundary = (pl.poly_id, _ref_sub(position, pl.translation))
    if boundary is not None:
        return boundary
    raise SurfaceError(f"position {position} is outside the developed window")


def reference_rebase(chart, position, radius=None):
    from flatconic.surface import Chart, DevPoint, Placement
    pid, local = reference_locate(chart, position)
    fresh = reference_develop(chart.surface, (pid, local),
                              chart.radius if radius is None else radius)
    shift = _ref_sub(position, local)
    if shift == (0, 0):
        return fresh
    pts = tuple(DevPoint(_ref_add(p.position, shift), p.cone_id, p.path)
                for p in fresh.points)
    occ = tuple(DevPoint(_ref_add(p.position, shift), p.cone_id, p.path)
                for p in fresh.occluded)
    pls = tuple(Placement(p.poly_id, _ref_add(p.translation, shift), p.path)
                for p in fresh.placements)
    return Chart(fresh.surface, _ref_add(fresh.base, shift),
                 fresh.base_locator, fresh.radius, pts, occ, pls)


# ---------------------------------------------------------------------------
# reference rigid conics: the Fraction implementation that the integer-frame
# `cellcomplex.rigid_conics` must match exactly. O(n^2 m) chord blocking, one
# conic_through_five solve per chord-visible 5-clique, and
# `reference_strip_rigid` on every swept strip.

def _ref_segment_blocked(points, a, b) -> bool:
    """Is some cone point strictly between a and b on the segment?"""
    from flatconic.linalg import cross, dot2, sign_of
    from flatconic.surface import dist2
    for w in points:
        if w == a or w == b:
            continue
        if sign_of(cross(a, b, w)) != 0:
            continue
        if (sign_of(dot2((w[0] - a[0], w[1] - a[1]),
                         (b[0] - a[0], b[1] - a[1]))) > 0
                and dist2(a, w) < dist2(a, b)):
            return True
    return False


def _ref_primitive(d) -> tuple:
    import math
    fx, fy = Fraction(d[0]), Fraction(d[1])
    den = fx.denominator * fy.denominator // math.gcd(fx.denominator, fy.denominator)
    p, q = int(fx * den), int(fy * den)
    g = math.gcd(p, q)
    if g:
        p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def reference_transform_by_affine(q, g, tau):
    """Form of the image region x in g U + tau: the 3x3 congruence by the
    lifted inverse, summed entry by entry over Fractions."""
    from flatconic.quadform import QForm3
    (a, b), (c, d) = ((Fraction(x) for x in row) for row in g)
    tau = (Fraction(tau[0]), Fraction(tau[1]))
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular linear part")
    inv = ((d / det, -b / det), (-c / det, a / det))
    # lifted inverse M sends x̂ to (g^{-1}(x - tau), 1); new Gram is M^T A M
    m = ((inv[0][0], inv[0][1], -(inv[0][0] * tau[0] + inv[0][1] * tau[1])),
         (inv[1][0], inv[1][1], -(inv[1][0] * tau[0] + inv[1][1] * tau[1])),
         (0, 0, 1))
    A = q.gram()

    def entry(i, j):
        return sum(m[r][i] * A[r][s] * m[s][j] for r in range(3) for s in range(3))

    return QForm3(entry(0, 0), entry(1, 1), entry(2, 2),
                  entry(0, 1), entry(0, 2), entry(1, 2))


def reference_strip_direction(q):
    """Primitive direction of a strip's boundary lines, read from the
    nullspace of its restriction; second coordinate positive, or first
    positive when horizontal."""
    from flatconic.linalg import common_denominator, nullspace, primitive
    ker = nullspace(q.gram_restriction(), 2)
    if len(ker) != 1:
        raise ValueError("form is not a strip (direction kernel is not a line)")
    u, v = ker[0]
    den = common_denominator((u, v))
    p, r = primitive(int(u * den), int(v * den))
    if r < 0 or (r == 0 and p < 0):
        p, r = -p, -r
    return (p, r)


def reference_strip_rigid(chart, q):
    """Windowed maximal strip through the zero set of q, on positions: the
    Fraction code that `cellcomplex._strip_rigid` must match, on
    `positions`."""
    from flatconic.cellcomplex import RigidConic
    from flatconic.linalg import dot2
    from flatconic.quadform import canonical_scale
    from flatconic.subconic import subconic
    direction = reference_strip_direction(q)
    normal = (-direction[1], direction[0])
    zeros = reference_window_zeros(chart, q)
    if zeros is None:
        return None
    levels = sorted({dot2(normal, z) for z in zeros})
    if len(levels) != 2:
        return None
    lines = []
    for i, level in enumerate(levels):
        pts = [z for z in zeros if dot2(normal, z) == level]
        if len(pts) < 2:
            return None
        # successor advances so that (advance, inward normal) is positively
        # oriented: +direction on the low line, -direction on the high line
        pts.sort(key=lambda z: dot2(direction, z))
        if i == 1:
            pts.reverse()
        lines.append(tuple(pts))
    strip = subconic(canonical_scale(q))
    return RigidConic(strip.form, strip.kind, (lines[0], lines[1]), True, 1)


def reference_rigid_conics(chart):
    """The rigid conics on positions (see `positions`)."""
    from flatconic.cellcomplex import _ellipse_rigid
    from flatconic.linalg import dot2
    from flatconic.subconic import SubconicKind, conic_through_five
    pts = [p.position for p in chart.points]
    blockers = [p.position for p in chart.window_points]
    n = len(pts)
    scale = chart.surface.scale
    found = {}

    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not _ref_segment_blocked(blockers, pts[i], pts[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    def grow(clique, allowed, start):
        if len(clique) == 5:
            five = [pts[i] for i in clique]
            try:
                cand = conic_through_five(five)
            except ValueError:
                return
            if cand.kind is not SubconicKind.ELLIPSE_INTERIOR:
                return
            rigid = _ellipse_rigid(chart, _on_lattice(cand.form, scale))
            if rigid is not None:
                rigid = positions(rigid, scale)
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

    directions = set()
    for i in range(len(blockers)):
        for j in range(i + 1, len(blockers)):
            d = (blockers[j][0] - blockers[i][0], blockers[j][1] - blockers[i][1])
            directions.add(_ref_primitive(d))
    for d in sorted(directions):
        normal = (-d[1], d[0])
        levels = {}
        for p in blockers:
            levels.setdefault(dot2(normal, p), []).append(p)
        order = sorted(levels)
        for lo, hi in zip(order, order[1:]):
            if len(levels[lo]) < 2 or len(levels[hi]) < 2:
                continue
            rigid = reference_strip_rigid(chart, _strip_form(normal, lo, hi))
            if rigid is not None:
                found.setdefault(rigid.key(), rigid)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# reference 2-cell constraints, clipping and window scans: the Fraction code
# that the int constraints and homogeneous clipping of
# `cellcomplex.feasible_region`, the int `cellcomplex._window_zeros` and the
# int point scan of `surface.subconic_fits` must match. The reference region
# lists its vertices as (t1, t2, 1), so `two_cell` can build a cell on it.

def reference_clip(poly, a, b, c):
    """Keep the part of a convex polygon with a*t1 + b*t2 + c >= 0 (exact)."""
    if not poly:
        return []
    out = []
    vals = [a * p[0] + b * p[1] + c for p in poly]
    for i, p in enumerate(poly):
        j = (i + 1) % len(poly)
        vp, vq = vals[i], vals[j]
        if vp >= 0:
            out.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            t = vp / (vp - vq)
            q = poly[j]
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def reference_constraint(basis, z):
    """Linear form in (t1, t2) equal to q_t(z) after t3 = 1 - t1 - t2."""
    from flatconic.quadform import lift
    vals = [d(lift(z)) for d in basis.forms]
    return (vals[0] - vals[2], vals[1] - vals[2], vals[2])


def reference_feasible_region(chart, Z, equality=None):
    from flatconic.cellcomplex import (FeasibleRegion, NotRealizable,
                                       WindowTooSmall)
    from flatconic.linalg import convex_hull_ccw, cross, sign_of
    from flatconic.surface import SurfaceError, rebase
    Z = [tuple(p) for p in Z]
    if len(Z) != 3 or len(set(Z)) != 3:
        raise ValueError("need 3 distinct points")
    centroid = (sum(Fraction(p[0]) for p in Z) / 3,
                sum(Fraction(p[1]) for p in Z) / 3)
    if sign_of(cross(Z[0], Z[1], Z[2])) == 0:
        raise NotRealizable(f"collinear triple {Z}")
    try:
        ch = rebase(chart, centroid)
    except SurfaceError as exc:
        # the centroid lies strictly inside the triangle
        if any(p.position == centroid for p in chart.window_points):
            raise NotRealizable(f"cone point {centroid} lies strictly inside "
                                f"the triangle {Z}") from exc
        raise WindowTooSmall(
            f"cannot re-base at the centroid of {Z}: {exc}") from exc
    visible = [p.position for p in ch.points]
    vis_set = set(visible)
    for z in Z:
        if z not in vis_set:
            raise NotRealizable(
                f"{z} is not a visible cone point of the re-based chart")
    basis = natural_basis(Z)
    ccw = basis.ordering
    for w in visible:
        if w in (set(Z) | ({tuple(equality)} if equality else set())):
            continue
        if all(sign_of(cross(ccw[i], ccw[(i + 1) % 3], w)) > 0 for i in range(3)):
            raise NotRealizable(
                f"cone point {w} lies strictly inside the triangle {Z}")
    poly = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1))]
    constraints = []
    zset = set(Z)
    for w in visible:
        if w in zset:
            continue
        a, b, c = reference_constraint(basis, w)
        if a == 0 and b == 0 and c == 0:
            continue
        constraints.append((a, b, c, w))
        if equality is not None and w == tuple(equality):
            poly = reference_clip(poly, -a, -b, -c)
        poly = reference_clip(poly, a, b, c)
        if not poly:
            break
    if equality is not None and tuple(equality) not in vis_set:
        raise NotRealizable(f"{equality} is not a visible cone point")
    if poly:
        poly = convex_hull_ccw(poly) if len(poly) >= 3 else poly
    return FeasibleRegion(poly, [(t1, t2, 1) for t1, t2 in poly], ch,
                          constraints, ccw)


def reference_window_zeros(chart, q):
    from flatconic.linalg import sign_of
    from flatconic.quadform import lift
    zeros = []
    for p in chart.window_points:
        s = sign_of(q(lift(p.position)))
        if s < 0:
            return None
        if s == 0:
            zeros.append(p.position)
    return zeros


def reference_ray_meets_sublevel(q, base, through):
    """Does {q <= 0} meet the open ray from `base` through `through`, strictly
    beyond `through`? Exact quadratic case analysis in the ray parameter."""
    from flatconic.linalg import sign_of
    from flatconic.quadform import lift
    d = _ref_sub(through, base)
    alpha = q((d[0], d[1], 0))
    beta = 2 * q.pair(lift(base), (d[0], d[1], 0))
    gamma = q(lift(base))
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


def reference_subconic_fits(chart, q):
    from flatconic.quadform import ellipse_center, lift
    from flatconic.surface import Fit, dist2
    (a, b), (_, c) = q.gram_restriction()
    center = ellipse_center(q)
    d = dist2(center, chart.base)
    t, delta = a + c, a * c - b * b
    D = t * t - 4 * delta
    beta = -q(lift(center)) / (2 * delta)
    r2 = chart.radius ** 2
    x = r2 + d - beta * t
    y = x * x - beta * beta * D - 4 * r2 * d
    if not (d < r2 and x > 0 and y > 0
            and y * y > 16 * beta * beta * r2 * D * d):
        return Fit.INCONCLUSIVE
    for p in chart.points:
        if q(lift(p.position)) < 0:
            return Fit.NO
    for p in chart.points:
        if reference_ray_meets_sublevel(q, chart.base, p.position):
            return Fit.NO
    return Fit.YES


# ---------------------------------------------------------------------------
# reference affine vetting: the Fraction code that the lattice keys of
# `cellcomplex.matching_from_affine` and `frontier_bijection`, and
# `veech.psi_of_quadruple`, `reconstruct` and `discover_affine`, must match.
# Windows are the package's own, on `positions`; every position stays a
# Fraction here.

def _ref_pos_key(positions):
    return tuple(sorted((p[0], p[1]) for p in positions))


def _ref_successor(U):
    from flatconic.subconic import SubconicKind
    succ = {}
    if U.kind is SubconicKind.ELLIPSE_INTERIOR:
        cyc = U.boundary
        for i, p in enumerate(cyc):
            succ[p] = cyc[(i + 1) % len(cyc)]
    else:
        for line in U.boundary:
            for a, b in zip(line, line[1:]):
                succ[a] = b
    return succ


def reference_matching_from_affine(A, B, g, tau=(0, 0)):
    from flatconic.cellcomplex import CellMatching
    from flatconic.linalg import apply_affine
    from flatconic.quadform import canonical_scale

    def image_key(key):
        return _ref_pos_key([apply_affine(g, tau, p) for p in key])

    faces, edges, vertices = {}, {}, {}
    for key in A.cells:
        ik = image_key(key)
        if ik in B.cells:
            faces[key] = ik
    for key in A.edges:
        ik = image_key(key)
        if ik in B.edges:
            edges[key] = ik
    if not faces or not edges:
        raise ValueError("affine map matches no cells between the windows")
    by_form = {canonical_scale(U.subconic.form).coeffs(): key
               for key, U in B.vertices.items()}
    for key, U in A.vertices.items():
        q2 = reference_transform_by_affine(U.subconic.form, g, tau)
        ik = by_form.get(canonical_scale(q2).coeffs())
        if ik is not None:
            vertices[key] = ik
    return CellMatching(faces, edges, vertices)


def _ref_anchor_reps(U, quad):
    succ = _ref_successor(U)
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


def _ref_successor_pairs(U, quad):
    reps = _ref_anchor_reps(U, set(quad))
    if not reps:
        raise ValueError(f"{tuple(quad)} is not a 1-cell of {U.key()}")
    x, y = reps[0]
    succ = _ref_successor(U)
    return frozenset([(x, succ[x]), (y, succ[y])])


def _ref_check_phi(A, B, phi):
    if len(set(phi.faces.values())) != len(phi.faces) \
            or len(set(phi.edges.values())) != len(phi.edges) \
            or len(set(phi.vertices.values())) != len(phi.vertices):
        raise ValueError("matching is not injective")
    for fkey, fkey2 in phi.faces.items():
        cell, cell2 = A.cells[fkey], B.cells[fkey2]
        cyc = [phi.edges.get(q) if q is not None else None
               for q in cell.edge_quadruples]
        target = list(cell2.edge_quadruples)
        if len(cyc) != len(target):
            raise ValueError(f"face {fkey}: side counts differ under the matching")
        known = [q for q in cyc if q is not None]
        if any(q not in target for q in known):
            raise ValueError(f"face {fkey}: matched edges are not incident "
                             "to the matched face")
        rotations = [target[i:] + target[:i] for i in range(len(target))]
        if not any(all(c is None or c == t[i] for i, c in enumerate(cyc))
                   for t in rotations):
            rev = target[::-1]
            reflections = [rev[i:] + rev[:i] for i in range(len(rev))]
            if any(all(c is None or c == t[i] for i, c in enumerate(cyc))
                   for t in reflections):
                raise ValueError(f"face {fkey}: matching reverses the boundary "
                                 "orientation")
            raise ValueError(f"face {fkey}: boundary cycles do not correspond")


class _RefAmbiguous(ValueError):
    pass


def reference_frontier_bijection(A, B, phi):
    _ref_check_phi(A, B, phi)
    jobs = {}
    for vkey, vkey2 in sorted(phi.vertices.items()):
        U, U2 = A.vertices[vkey], B.vertices[vkey2]
        if U.kind is not U2.kind:
            raise ValueError(f"vertex {vkey}: kinds differ under the matching")
        constraints = []
        for q, rec in sorted(A.edges.items()):
            if vkey not in rec["endpoints"] or q not in phi.edges:
                continue
            q2 = phi.edges[q]
            if vkey2 not in B.edges[q2]["endpoints"]:
                raise ValueError(f"edge {q}: image not incident to image vertex")
            constraints.append((_ref_successor_pairs(U, q),
                                _ref_successor_pairs(U2, q2)))
        if constraints:
            jobs[vkey] = (U, U2, constraints)

    beta = {}

    def merge(local):
        for x, x2 in local.items():
            if beta.setdefault(x, x2) != x2:
                raise ValueError(f"matching is inconsistent at cone point {x}")

    pending = sorted(jobs)
    final = False
    while pending:
        progressed = False
        deferred = []
        for vkey in pending:
            U, U2, constraints = jobs[vkey]
            try:
                pairmap = _ref_resolve_pairs(constraints, U, U2, beta, final)
            except _RefAmbiguous:
                deferred.append(vkey)
                continue
            local = {}
            for (x, sx), (x2, sx2) in pairmap.items():
                local[x] = x2
                local[sx] = sx2
            _ref_extend_by_conjugation(U, U2, local)
            merge(local)
            progressed = True
        if not deferred:
            break
        if not progressed:
            if final:
                raise ValueError(
                    f"orientation on {deferred[0]} cannot be certified")
            final = True
        pending = deferred

    for q, q2 in phi.edges.items():
        if all(p in beta for p in q):
            if _ref_pos_key([beta[p] for p in q]) != q2:
                raise ValueError(f"edge {q}: bijection disagrees with the "
                                 "matched quadruple")
    return beta


def _ref_resolve_pairs(constraints, U, U2, hints, final):
    pairmap = {}
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
        raise _RefAmbiguous("unresolved 1-cells remain")
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
                _ref_extend_by_conjugation(U, U2, dict(local))
            except ValueError:
                continue
            pairmap = trial
            break
        else:
            raise ValueError(f"1-cell orientation on {U.key()} cannot be "
                             "certified either way")
    return pairmap


def _ref_extend_by_conjugation(U, U2, local):
    succ, succ2 = _ref_successor(U), _ref_successor(U2)
    pred = {b: a for a, b in succ.items()}
    pred2 = {b: a for a, b in succ2.items()}
    frontier = list(local)
    while frontier:
        x = frontier.pop()
        x2 = local[x]
        for step, step2 in ((succ, succ2), (pred, pred2)):
            nxt = step.get(x)
            if nxt is None:
                continue
            nxt2 = step2.get(x2)
            if nxt in local:
                if local[nxt] != (nxt2 if nxt2 is not None else local[nxt]):
                    raise ValueError(
                        f"successor conjugation fails at {x} on {U.key()}")
                continue
            if nxt2 is None:
                continue
            local[nxt] = nxt2
            frontier.append(nxt)
    if len(set(local.values())) != len(local):
        raise ValueError(f"bijection collapses points on {U.key()}")
    for x, x2 in local.items():
        sx = succ.get(x)
        if sx is not None and sx in local and succ2.get(x2) != local[sx]:
            raise ValueError(f"successor conjugation fails at {x} on {U.key()}")


def reference_psi_of_quadruple(Z, Zp):
    from flatconic.veech import AffineCandidate
    Z = [tuple(p) for p in Z]
    Zp = [tuple(p) for p in Zp]
    if len(Z) != 4 or len(Zp) != 4:
        raise ValueError("need two quadruples")
    (x0, y0), (x1, y1), (x2, y2) = Z[0], Z[1], Z[2]
    m00, m01 = x1 - x0, x2 - x0
    m10, m11 = y1 - y0, y2 - y0
    det = Fraction(m00 * m11 - m01 * m10)
    if det == 0:
        raise ValueError("source triple is collinear")
    (u0, v0), (u1, v1), (u2, v2) = Zp[0], Zp[1], Zp[2]
    n00, n01 = u1 - u0, u2 - u0
    n10, n11 = v1 - v0, v2 - v0
    g = ((n00 * m11 - n01 * m10) / det, (-n00 * m01 + n01 * m00) / det), \
        ((n10 * m11 - n11 * m10) / det, (-n10 * m01 + n11 * m00) / det)
    gdet = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if gdet <= 0:
        raise ValueError("map is orientation-reversing or degenerate")
    tau = (u0 - g[0][0] * x0 - g[0][1] * y0, v0 - g[1][0] * x0 - g[1][1] * y0)
    x3, y3 = Z[3]
    image = (g[0][0] * x3 + g[0][1] * y3 + tau[0],
             g[1][0] * x3 + g[1][1] * y3 + tau[1])
    if image != Zp[3]:
        raise ValueError(
            f"fourth point is inconsistent: {Z[3]} maps to {image}, "
            f"expected {Zp[3]}")
    return AffineCandidate(g, tau)


def reference_reconstruct(A, B, phi):
    beta = reference_frontier_bijection(A, B, phi)
    candidate = None
    witness = None
    for q in sorted(phi.edges):
        if not all(p in beta for p in q):
            continue
        try:
            c = reference_psi_of_quadruple(list(q), [beta[p] for p in q])
        except ValueError as e:
            raise ValueError(f"1-cell {q} admits no affine map: {e}") from None
        if candidate is None:
            candidate, witness = c, q
        elif c != candidate:
            raise ValueError(
                f"1-cells {witness} and {q} determine different affine maps "
                f"({candidate.g} vs {c.g})")
    if candidate is None:
        raise ValueError("no matched 1-cell has a fully matched quadruple")
    return candidate


def reference_discover_affine(A, B):
    from flatconic.linalg import convex_hull_ccw
    b_edges = [(qb, convex_hull_ccw(qb)) for qb in sorted(B.edges)]
    tried = set()
    certified = []
    for qa in sorted(A.edges):
        ccw = convex_hull_ccw(qa)
        for qb, ccw_b in b_edges:
            images = sorted(
                tuple(dict(zip(ccw, ccw_b[k:] + ccw_b[:k]))[p] for p in qa)
                for k in range(len(ccw_b)))
            for perm in images:
                try:
                    cand = reference_psi_of_quadruple(list(qa), list(perm))
                except ValueError:
                    continue
                if cand in tried:
                    continue
                tried.add(cand)
                try:
                    phi = reference_matching_from_affine(A, B, cand.g,
                                                         cand.translation)
                    rec = reference_reconstruct(A, B, phi)
                except ValueError:
                    continue
                certified.append((rec, phi))
    if not certified:
        raise ValueError("no affine correspondence between the windows "
                         "certifies")

    def presentation_grade(rec):
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
                if frozenset(image) != frozenset(targets[pid]):
                    return 2
        return 0 if ordered else 1

    def size(entry):
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
# Veech-group ground truth, with no flatconic call: the lattice for the tori,
# g.m = +m or -m mod Z^2 for the two-marked tori, and the SL(2,Z) action on
# the L as an origami.

T = ((1, 1), (0, 1))
T_INV = ((1, -1), (0, 1))
S = ((0, -1), (1, 0))
LETTERS = {"T": T, "t": T_INV, "S": S}


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def word_matrix(word: str):
    """The product of the letters T, t (= T^-1) and S, left to right."""
    g = ((1, 0), (0, 1))
    for ch in word:
        g = mat_mul(g, LETTERS[ch])
    return g


def is_sl2z(g) -> bool:
    entries = [Fraction(x) for row in g for x in row]
    return (all(x.denominator == 1 for x in entries)
            and entries[0] * entries[3] - entries[1] * entries[2] == 1)


def torus_member(g) -> bool:
    """Square or sheared torus: both have period lattice Z^2, Gamma = SL(2,Z)."""
    return is_sl2z(g)


def _mod1(x) -> Fraction:
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def marked_class(g, m) -> tuple:
    """g.m mod Z^2 up to sign: the coset of g in SL(2,Z) / Gamma."""
    p = (_mod1(g[0][0] * m[0] + g[0][1] * m[1]),
         _mod1(g[1][0] * m[0] + g[1][1] * m[1]))
    q = (_mod1(-p[0]), _mod1(-p[1]))
    return min(p, q)


def two_marked_member(g, m) -> bool:
    """Torus with marked points 0 and m: g is affine iff it permutes the
    two marked points, i.e. g.m = +m or -m mod Z^2."""
    return is_sl2z(g) and marked_class(g, m) == marked_class(((1, 0), (0, 1)), m)


# the L as an origami: squares 0 = [0,1]^2, 1 = right of 0, 2 = above 0. h
# sends a square to its right neighbour, v to the one above: ((0 1), (0 2))
# in zero-based labels, ((1 2), (1 3)) in Schmithuesen's (2004) notation
L_ORIGAMI = ((1, 0, 2), (2, 1, 0))


def _compose(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _canonical(o):
    from itertools import permutations
    h, v = o
    best = None
    for sigma in permutations(range(len(h))):
        si = _inverse(sigma)
        cand = (_compose(sigma, _compose(h, si)), _compose(sigma, _compose(v, si)))
        if best is None or cand < best:
            best = cand
    return best


def _act_letter(letter, o):
    h, v = o
    if letter == "T":       # shear right: new up-neighbour is v after h^-1
        return (h, _compose(v, _inverse(h)))
    if letter == "t":
        return (h, _compose(v, h))
    if letter == "S":       # rotate by +90 degrees
        return (_inverse(v), h)
    raise ValueError(letter)


def sl2z_word(g) -> str:
    """Letters T, t, S whose left-to-right product is g (Euclid on the
    first column)."""
    if not is_sl2z(g):
        raise ValueError(f"{g} is not in SL(2,Z)")
    (a, b), (c, d) = ((int(g[0][0]), int(g[0][1])), (int(g[1][0]), int(g[1][1])))
    word = []
    while c != 0:
        q = a // c
        word.append(("T" if q > 0 else "t") * abs(q) + "S")
        # M <- S^-1 T^-q M
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    if a == -1:             # -T^-b = S S T^-b
        word.append("SS")
        b = -b
    word.append(("T" if b > 0 else "t") * abs(b))
    return "".join(word)


def origami_class(g, origami=L_ORIGAMI) -> tuple:
    """The isomorphism class of g.origami; g is in Gamma iff it is the
    class of the origami itself."""
    o = origami
    for letter in reversed(sl2z_word(g)):
        o = _act_letter(letter, o)
    return _canonical(o)


def l_member(g) -> bool:
    return is_sl2z(g) and origami_class(g) == _canonical(L_ORIGAMI)


def member(surface: tuple, g) -> bool:
    """Truth for a surface spec ("torus" | "sheared" | "L" | ("tm", m))."""
    kind = surface[0]
    if kind in ("torus", "sheared"):
        return torus_member(g)
    if kind == "L":
        return l_member(g)
    if kind == "tm":
        return two_marked_member(g, surface[1])
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# pencil and signature helpers that no pipeline code calls, moved here from
# `quadform` and `subconic` with their tests

def degenerate_members(F):
    """The three line-pair members of the pencil through a planar quadruple.

    One per partition of the four points into two pairs; requires general
    position (no three collinear).
    """
    from flatconic.linalg import cross, sign_of
    from flatconic.quadform import canonical_scale, lift
    if len(F) != 4:
        raise ValueError("expected 4 points")
    pts = [(Fraction(x), Fraction(y)) for x, y in F]
    for i in range(4):
        others = [pts[j] for j in range(4) if j != i]
        if sign_of(cross(*others)) == 0:
            raise ValueError(f"three collinear points among {pts}")
    lifts = [lift(p) for p in pts]
    out = []
    for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        out.append(canonical_scale(
            _product_form(_line_through(lifts[a], lifts[b]),
                          _line_through(lifts[c], lifts[d]))))
    return out


def pencil_coefficients(q, basis):
    """Write q = sum c_i d_i in the natural basis of a pencil.

    The kernel of the 6x4 system [d1 d2 d3 | -q] holds (c, 1) up to scale.
    Raises ValueError if q is not in the span of the basis.
    """
    from flatconic.linalg import nullspace
    cols = [d.coeffs() for d in basis.forms] + [[-v for v in q.coeffs()]]
    ker = nullspace([[col[i] for col in cols] for i in range(6)], 4)
    if not ker:
        raise ValueError("form is not in the pencil of the triple")
    if len(ker) > 1 or ker[0][3] == 0:
        raise ValueError("pencil basis is degenerate")
    *c, t = ker[0]
    return tuple(x / t for x in c)


def is_nowhere_negative(q) -> bool:
    """True iff q >= 0 on all of 3-space, i.e. U_q is certainly empty."""
    from flatconic.quadform import signature
    n_pos, n_neg, n_zero = signature(q)
    return n_neg == 0


# ---------------------------------------------------------------------------
# the Fraction route to pencil members and realizability, which the lattice
# forms of `cellcomplex.two_cell` replaced: the natural basis, combinations
# and `_form_at`, and the realizability tests; moved here from `quadform` and
# `cellcomplex` with their tests

def combine(pairs):
    """The combination sum c q of (c, q) pairs, coefficient by coefficient."""
    from flatconic.quadform import QForm3
    acc = [0, 0, 0, 0, 0, 0]
    for c, q in pairs:
        for i, v in enumerate(q.coeffs()):
            acc[i] = acc[i] + c * v
    return QForm3(*acc)


def _line_through(u, v):
    """Coefficient vector of the linear form vanishing on span(u, v)."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _product_form(n, m):
    """The quadratic form (n·x)(m·x)."""
    from flatconic.quadform import QForm3
    half = Fraction(1, 2)
    return QForm3(n[0] * m[0], n[1] * m[1], n[2] * m[2],
                  half * (n[0] * m[1] + n[1] * m[0]),
                  half * (n[0] * m[2] + n[2] * m[0]),
                  half * (n[1] * m[2] + n[2] * m[1]))


class CollinearTripleError(ValueError):
    pass


@dataclass(frozen=True)
class NaturalBasis:
    """The three line-pair forms d_i spanning the pencil through a triple.

    `ordering` is the positively oriented cyclic order of the source points;
    d_i is degenerate with ordering[i]'s lift in its radical and is negative
    on the open triangle.
    """
    d1: object
    d2: object
    d3: object
    ordering: tuple

    @property
    def forms(self) -> tuple:
        return (self.d1, self.d2, self.d3)


def natural_basis(Z) -> NaturalBasis:
    """Natural basis of the pencil of conics through a noncollinear triple,
    in positions and Fractions: the reference of `cellcomplex._lattice_basis`.

    d_i = -eta_ij * eta_ik where eta_ij is the linear form vanishing on the
    line through points i and j, normalized to 1 at the third point. That
    normalization makes each d_i negative on the open triangle, and the
    (counterclockwise) input order of the points fixes the basis order.
    """
    from flatconic.linalg import cross, sign_of
    from flatconic.quadform import lift
    if len(Z) != 3:
        raise ValueError("natural_basis expects exactly 3 points")
    pts = [(Fraction(x), Fraction(y)) for x, y in Z]
    orient = sign_of(cross(pts[0], pts[1], pts[2]))
    if orient == 0:
        raise CollinearTripleError(f"collinear triple {pts}")
    if orient < 0:
        pts = [pts[0], pts[2], pts[1]]
    lifts = [lift(p) for p in pts]

    def eta(i, j, k):
        n = _line_through(lifts[i], lifts[j])
        c = n[0] * lifts[k][0] + n[1] * lifts[k][1] + n[2] * lifts[k][2]
        # c != 0 because the triple is noncollinear
        return tuple(v / c for v in n)

    ds = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ds.append(_product_form(eta(i, j, k), eta(i, k, j)).scaled(-1))
    return NaturalBasis(ds[0], ds[1], ds[2], tuple(pts))


def from_poly(A, B, C, D, E, F):
    """Form of the polynomial A x² + B xy + C y² + D x + E y + F."""
    from flatconic.quadform import QForm3
    return QForm3(A, C, F, Fraction(B) / 2, Fraction(D) / 2, Fraction(E) / 2)


def _form_at(basis, t1, t2):
    """The pencil member t1 d1 + t2 d2 + (1 - t1 - t2) d3 of a natural basis,
    in positions and Fractions."""
    return combine([(t1, basis.d1), (t2, basis.d2), (1 - t1 - t2, basis.d3)])


def realizable_triple(chart, Z) -> bool:
    """Feasibility route: is the lattice triple Z exactly the cone-point set
    of some subconic with a 2-dimensional family certifying the 2-cell?"""
    from flatconic import cellcomplex
    try:
        cellcomplex.two_cell(chart, Z)
        return True
    except cellcomplex.NotRealizable:
        return False


def realizable_quadruple(chart, Z4) -> bool:
    """Feasibility route: the pencil through the 4 lattice points cuts the
    feasible region in a nondegenerate segment with an ellipse interior
    sample."""
    from flatconic import cellcomplex
    from flatconic.linalg import cross, sign_of
    from flatconic.subconic import SubconicKind, classify
    from flatconic.surface import dist2
    Z4 = [tuple(p) for p in Z4]
    if len(set(Z4)) != 4:
        return False
    for triple in combinations(Z4, 3):
        rest = next(p for p in Z4 if p not in triple)
        if sign_of(cross(*triple)) == 0:
            continue
        try:
            region = cellcomplex.feasible_region(chart, list(triple),
                                                 equality=rest)
        except cellcomplex.NotRealizable:
            return False
        pts = region.polygon
        if len(pts) < 2:
            return False
        ends = max(((dist2(a, b), (a, b)) for a, b in combinations(pts, 2)),
                   default=(0, None))
        if ends[1] is None or ends[0] == 0:
            return False
        (a, b) = ends[1]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        basis = natural_basis(positions(region.triple, chart.surface.scale))
        kind = classify(_form_at(basis, mid[0], mid[1])).kind
        return kind is SubconicKind.ELLIPSE_INTERIOR
    return False
