"""End-to-end acceptance checks, each with an explicit wall-clock budget.

Every test builds its own data inside the timed region so the stated bound
covers the whole computation, not just the final assertion.
"""

import math
import random
import time
from fractions import Fraction as F

import oracles
from oracles import from_poly
from flatconic.cellcomplex import (
    build_complex,
    link,
    matching_from_affine,
    rigid_conics,
)
from flatconic.geom import INFINITY, h_point, mobius
from flatconic.lemma import (
    Config,
    check_geometric_lemma,
    normalize_ellipse,
    oriented_bisector,
    q_rotation,
    quadruple_form,
)
from flatconic.models import square_torus, two_marked_torus
from flatconic.quadform import (
    canonical_scale,
    forms_vanishing_on,
    lift,
    transform_by_affine,
)
from flatconic.subconic import SubconicKind, classify, conic_through_five
from flatconic.surface import develop, dist2
from flatconic.veech import reconstruct, tessellate, veech_check

T = ((1, 1), (0, 1))
S = ((0, -1), (1, 0))
SEED = ((0, 0), (0, 1), (1, 0))
I2 = ((1, 0), (0, 1))


def collinear(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def test_vanishing_dimension_on_random_rational_sets():
    t0 = time.monotonic()
    rng = random.Random(140001)
    checked = 0
    while checked < 200:
        k = rng.randint(1, 5)
        pts = []
        while len(pts) < k:
            p = (F(rng.randint(-20, 20), rng.randint(1, 6)),
                 F(rng.randint(-20, 20), rng.randint(1, 6)))
            if p in pts:
                continue
            if any(collinear(a, b, p) for i, a in enumerate(pts)
                   for b in pts[i + 1:]):
                continue
            pts.append(p)
        basis = forms_vanishing_on([lift(p) for p in pts])
        assert len(basis) == 6 - k
        assert oracles.vanishing_dim(pts) == 6 - k
        checked += 1
    assert checked == 200
    assert time.monotonic() - t0 < 1.0


def test_classification_table_and_scale_consistency():
    t0 = time.monotonic()
    table = [
        (from_poly(1, 0, 1, 0, 0, -1), SubconicKind.ELLIPSE_INTERIOR,
         (2, 1, 0), (2, 0, 0)),
        (from_poly(0, 0, 1, 0, -1, 0), SubconicKind.STRIP,
         (1, 1, 1), (1, 0, 1)),
        (from_poly(0, 0, 0, 0, 1, 0), SubconicKind.HALF_PLANE,
         (1, 1, 1), (0, 0, 2)),
        (from_poly(1, 0, 0, 0, -1, 0), SubconicKind.PARABOLA_INTERIOR,
         (2, 1, 0), (1, 0, 1)),
    ]
    for q, kind, sig3, sig2 in table:
        c = classify(q)
        assert c.kind is kind
        assert c.signature == sig3
        assert c.signature_restriction == sig2

    rng = random.Random(140002)
    exact_scales = (F(3), F(7, 5), F(1, 8))
    float_scales = (2.0, 0.5, 0.25)  # powers of two: no rounding
    done = 0
    while done < 1000:
        if done % 2 == 0:
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(6)]
            scales = exact_scales
        else:
            coeffs = [rng.randint(-9, 9) * 0.25 for _ in range(6)]
            scales = float_scales
        if not any(coeffs):
            continue
        q = from_poly(*coeffs)
        c = classify(q)
        for s in scales:
            cs = classify(q.scaled(s))
            assert cs.kind is c.kind
            assert cs.signature == c.signature
            assert cs.signature_restriction == c.signature_restriction
        # a negative scale complements the region and swaps the signature
        neg = classify(q.scaled(scales[0] * -1))
        p, n, z = c.signature
        assert neg.signature == (n, p, z)
        done += 1
    assert time.monotonic() - t0 < 1.0


def test_square_torus_window_is_all_strips_with_farey_faces():
    t0 = time.monotonic()
    chart = develop(square_torus(), radius=6)
    window = build_complex(chart, SEED, budget=30)

    # no rigid ellipse exists: exhaustive 5-subset search over the points
    # within distance 3 of the base, blocked by every developed point
    blockers = ([tuple(p.position) for p in chart.points]
                + [tuple(p.position) for p in chart.occluded])
    near = [p for p in blockers if dist2(p, chart.base) <= 9]
    assert len(near) == 32 and len(blockers) == 112
    assert oracles.exhaustive_rigid_ellipses(near, blockers=blockers) == {}

    for key, cell in window.cells.items():
        (x1, y1), (x2, y2), (x3, y3) = key
        det = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
        assert abs(det) == 1
        assert len(cell.vertex_conics) == 3
        assert all(v.kind is SubconicKind.STRIP for v in cell.vertex_conics)
        corners = []
        for v in cell.vertex_conics:
            hp = h_point(v.subconic.form)
            assert hp.ideal
            if hp.value == INFINITY:
                corners.append((F(1), F(0)))
            else:
                fr = F(hp.value)
                corners.append((fr.numerator, fr.denominator))
        for i in range(3):
            for j in range(i + 1, 3):
                (p, q), (r, s) = corners[i], corners[j]
                assert abs(p * s - q * r) == 1
    assert time.monotonic() - t0 < 60.0


def consecutive_on(succ, quad):
    qs = set(quad)
    for x in quad:
        run, y = 1, x
        while run < 4:
            y = succ.get(y)
            if y is None or y not in qs:
                break
            run += 1
        if run == 4:
            return True
    return False


def test_marked_torus_ellipse_links():
    t0 = time.monotonic()
    tm = two_marked_torus(marked=(F(1, 2), F(1, 4)))
    chart = develop(tm, base=("t0", (F(1, 4), F(1, 12))), radius=2)

    # the oracle agrees that this window carries rigid ellipses, and finds
    # exactly the boundaries the pencil route reports
    pts = [tuple(p.position) for p in chart.points]
    found = oracles.exhaustive_rigid_ellipses(pts, blockers=pts)
    assert len(found) >= 1

    rig = rigid_conics(chart)
    ells = [u for u in rig if u.kind is SubconicKind.ELLIPSE_INTERIOR]
    pkg_keys = {frozenset(tuple(map(float, z))
                          for z in oracles.positions(u.boundary, u.scale))
                for u in ells}
    ora_keys = {frozenset(tuple(map(float, z)) for z in k) for k in found}
    assert pkg_keys == ora_keys

    for U in ells:
        n = len(U.boundary)
        L = link(U)
        assert len(L.vertices) == n * (n - 3) // 2
        assert all(L.undirected_degree(v) == 4 for v in L.vertices)

        directed = set(L.edges)
        und = {frozenset(e) for e in L.edges}
        nbrs = {v: {u for u in L.vertices
                    if frozenset((v, u)) in und} for v in L.vertices}
        succ = U.successor()
        for v in L.vertices:
            if not consecutive_on(succ, v):
                continue
            patterned = 0
            ns = sorted(nbrs[v])
            for i, a in enumerate(ns):
                for b in ns[i + 1:]:
                    if frozenset((a, b)) not in und:
                        continue
                    source = (v, a) in directed and (v, b) in directed
                    sink = (a, v) in directed and (b, v) in directed
                    if source or sink:
                        patterned += 1
            assert patterned == 2
    assert time.monotonic() - t0 < 120.0


def test_horizontal_cylinder_link_is_a_grid():
    t0 = time.monotonic()
    chart = develop(square_torus(), radius=4)
    target = canonical_scale(from_poly(0, 0, 1, 0, -1, 0))  # 0 < y < 1
    strips = [u for u in rigid_conics(chart)
              if u.kind is SubconicKind.STRIP
              and canonical_scale(u.subconic.form).coeffs() == target.coeffs()]
    assert len(strips) == 1
    U = strips[0]
    assert [len(line) for line in U.boundary] == [8, 8]

    L = link(U)
    pairs0 = list(zip(U.boundary[0], U.boundary[0][1:]))
    pairs1 = list(zip(U.boundary[1], U.boundary[1][1:]))

    def node(i, j):
        return tuple(sorted(set(pairs0[i]) | set(pairs1[j])))

    nodes = {node(i, j) for i in range(7) for j in range(7)}
    assert set(L.vertices) == nodes and len(nodes) == 49

    grid = set()
    for i in range(7):
        for j in range(7):
            if i + 1 < 7:
                grid.add(frozenset((node(i, j), node(i + 1, j))))
            if j + 1 < 7:
                grid.add(frozenset((node(i, j), node(i, j + 1))))
    assert {frozenset(e) for e in L.edges} == grid
    assert len(grid) == 84
    assert time.monotonic() - t0 < 10.0


def test_vertex_conics_match_five_point_reconstruction():
    t0 = time.monotonic()
    chart = develop(square_torus(), radius=6)
    window = build_complex(chart, SEED, budget=10)
    checked = 0
    for cell in window.cells.values():
        for v in cell.vertex_conics:
            if v.kind is SubconicKind.ELLIPSE_INTERIOR:
                pts = list(v.boundary[:5])
            else:
                l0, l1 = v.boundary
                if len(l0) >= 3 and len(l1) >= 2:
                    pts = list(l0[:3]) + list(l1[:2])
                else:
                    pts = list(l1[:3]) + list(l0[:2])
            got = conic_through_five(pts)
            assert (canonical_scale(got.form).coeffs()
                    == canonical_scale(v.subconic.form).coeffs())
            checked += 1
    assert checked == 30
    assert time.monotonic() - t0 < 30.0


def chord_strip(p, q):
    a = p[1] - q[1]
    b = q[0] - p[0]
    c = -(a * p[0] + b * p[1])
    return from_poly(a * a, 2 * a * b, b * b, 2 * a * c - a, 2 * b * c - b,
                     c * c - c)


def circle_config(transform=None):
    pts = [(math.cos(-t), math.sin(-t)) for t in (0.2, 1.1, 2.3, 3.6, 5.0)]
    ell = from_poly(1, 0, 1, 0, 0, -1)
    if transform is not None:
        g, tau = transform
        pts = [(g[0][0] * x + g[0][1] * y + tau[0],
                g[1][0] * x + g[1][1] * y + tau[1]) for x, y in pts]
        ell = transform_by_affine(ell, g, tau)
    pairs = {}
    for i in range(5):
        for j in range(i + 1, 5):
            if (j - i) % 5 not in (1, 4):
                pairs[(i, j)] = chord_strip(pts[i], pts[j])
    return Config(ell, tuple(pts), pairs)


def test_quadruple_eigenlines_normalization_and_lemma():
    t0 = time.monotonic()
    rng = random.Random(140007)

    made = 0
    while made < 100:
        a, c = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        b = rng.uniform(-1.0, 1.0)
        if b * b >= a * c - 1e-3:
            continue
        qbar = ((a, b), (b, c))
        x0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(x0[0]) + abs(x0[1]) < 0.1:
            continue
        ths = sorted(rng.uniform(0.05, 2 * math.pi - 0.05) for _ in range(3))
        gaps = (ths[0], ths[1] - ths[0], ths[2] - ths[1],
                2 * math.pi - ths[2])
        if min(gaps) < 0.05:
            continue
        pts = [x0]
        for th in ths:
            E = q_rotation(qbar, th)
            pts.append((E[0][0] * x0[0] + E[0][1] * x0[1],
                        E[1][0] * x0[0] + E[1][1] * x0[1]))
        qf = quadruple_form(qbar, pts)
        ux, uy = qf.u_Q
        nx, ny = qf.negative_line
        assert (abs(ux * ny - uy * nx)
                / math.hypot(ux, uy) / math.hypot(nx, ny)) < 1e-9
        v01 = oriented_bisector(qbar, pts[0], pts[1])
        v23 = oriented_bisector(qbar, pts[2], pts[3])
        d = (v23[0] - v01[0], v23[1] - v01[1])
        px, py = qf.positive_line
        assert (abs(d[0] * py - d[1] * px)
                / math.hypot(*d) / math.hypot(px, py)) < 1e-9
        made += 1

    disc = from_poly(1, 0, 1, 0, 0, -1)
    for _ in range(100):
        while True:
            g = ((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                 (rng.uniform(-3, 3), rng.uniform(-3, 3)))
            if abs(g[0][0] * g[1][1] - g[0][1] * g[1][0]) > 0.2:
                break
        tau = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = transform_by_affine(disc, g, tau)
        t, lam, qb = normalize_ellipse(q)
        for s in (0.1, 1.9, 3.3, 5.1):
            z = (g[0][0] * math.cos(s) + g[0][1] * math.sin(s) + tau[0],
                 g[1][0] * math.cos(s) + g[1][1] * math.sin(s) + tau[1])
            w = (lam * (z[0] + t[0]), lam * (z[1] + t[1]))
            val = (qb[0][0] * w[0] ** 2 + 2 * qb[0][1] * w[0] * w[1]
                   + qb[1][1] * w[1] ** 2)
            assert abs(val - 1) < 1e-9

    beta = {i: i for i in range(5)}
    A = circle_config()
    assert check_geometric_lemma(A, circle_config((I2, (2.5, -1.0))), beta).ok
    assert check_geometric_lemma(
        A, circle_config((((3, 0), (0, 3)), (0.5, 0.25))), beta).ok
    th = math.radians(7)
    R = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
    report = check_geometric_lemma(A, circle_config((R, (0, 0))), beta)
    assert not report.ok and report.failures
    assert time.monotonic() - t0 < 10.0


def test_window_membership_for_the_torus_generators():
    t0 = time.monotonic()
    torus = square_torus()
    assert veech_check(torus, T).is_member
    assert veech_check(torus, S).is_member
    half = ((1, F(1, 2)), (0, 1))
    v = veech_check(torus, half)
    assert v.verdict == "rejected" and not v.is_member
    assert time.monotonic() - t0 < 30.0


def test_reconstruct_recovers_the_shear_and_scales_the_homothety():
    t0 = time.monotonic()
    torus = square_torus()
    A = build_complex(develop(torus, radius=6), SEED, budget=12)
    B = build_complex(develop(torus.mapped(T)), ((0, 0), (1, 1), (0, 1)),
                      budget=20)
    phi = matching_from_affine(A, B, T, (0, 0))
    rec = reconstruct(A, B, phi)
    assert rec.linear == ((F(1), F(1)), (F(0), F(1)))
    assert rec.homothety == 1
    assert rec.translation == (F(0), F(0))

    big = torus.mapped(T).scaled(2)
    B2 = build_complex(develop(big, radius=12), ((0, 0), (2, 2), (0, 2)),
                       budget=20)
    phi2 = matching_from_affine(A, B2, ((2, 2), (0, 2)), (0, 0))
    rec2 = reconstruct(A, B2, phi2)
    assert rec2.linear == ((F(1), F(1)), (F(0), F(1)))
    assert rec2.homothety == 2
    assert rec2.translation == (F(0), F(0))
    assert time.monotonic() - t0 < 60.0


def test_tessellations_are_equivariant_under_the_shear():
    t0 = time.monotonic()
    torus = square_torus()
    A = build_complex(develop(torus, radius=6), SEED, budget=20)
    B = build_complex(develop(torus.mapped(T)), ((0, 0), (1, 1), (0, 1)),
                      budget=20)
    phi = matching_from_affine(A, B, T, (0, 0))
    assert len(phi.faces) == 11 and len(phi.vertices) == 13

    tessA, tessB = tessellate(A), tessellate(B)
    facesA = {f.id: f for f in tessA.faces}
    facesB = {f.id: f for f in tessB.faces}

    def fid(key):
        return ";".join(",".join(str(c) for c in p) for p in key)

    for ka, kb in phi.faces.items():
        fa, fb = facesA[fid(ka)], facesB[fid(kb)]
        assert fa.truncated == fb.truncated
        mapped = sorted(str(mobius(T, v)) for v in fa.vertices)
        assert mapped == sorted(str(v) for v in fb.vertices)
    for ka, kb in phi.vertices.items():
        assert mobius(T, tessA.vertex_points[ka]) == tessB.vertex_points[kb]
    assert time.monotonic() - t0 < 60.0
