"""SVG rendering of hyperbolic tessellations.

Geodesics are drawn as exact circular arcs: half-circles orthogonal to the
real axis in the upper half-plane, or arcs orthogonal to the unit circle in
the Poincaré disc. Ideal vertices sit on the boundary; vertical geodesics to
infinity are clipped at a horizon line. The disc model is a post-transform of
the same data under z -> (z - i)/(z + i).
"""

from __future__ import annotations

import math

from .geom import INFINITY, HPoint

FILL_PLAIN = "#cfe3f5"
FILL_TRUNCATED = "#f2d0c0"
STROKE = "#27415c"


def _num(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _as_xy(p: HPoint) -> tuple:
    """Half-plane coordinates (x, y); infinity maps to None."""
    if p.ideal and p.value == INFINITY:
        return None
    z = p.as_complex()
    return (z.real, z.imag)


def _cayley(p: HPoint) -> tuple:
    xy = _as_xy(p)
    return (1.0, 0.0) if xy is None else _cayley_xy(xy)


def _geodesic_mid(a: tuple, b: tuple) -> tuple:
    """Any interior point of the half-plane geodesic from a to b (either may
    be None for infinity); used to pin disc arcs through three points."""
    if a is None and b is None:
        raise ValueError("geodesic needs a finite endpoint")
    if a is None or b is None:
        x, y = b if a is None else a
        return (x, max(y, 1.0) * 2.0)
    (x1, y1), (x2, y2) = a, b
    if abs(x1 - x2) < 1e-12:
        lo, hi = sorted((y1, y2))
        return (x1, math.sqrt(lo * hi) if lo > 0 else hi / 2.0 or 1.0)
    c = ((x1 * x1 + y1 * y1) - (x2 * x2 + y2 * y2)) / (2.0 * (x1 - x2))
    r = math.hypot(x1 - c, y1)
    t1 = math.atan2(y1, x1 - c)
    t2 = math.atan2(y2, x2 - c)
    tm = (t1 + t2) / 2.0
    return (c + r * math.cos(tm), r * math.sin(tm))


class _Canvas:
    def __init__(self, width, height, wx0, wy0, wx1, wy1):
        self.width = width
        self.height = height
        self.sx = width / (wx1 - wx0)
        self.sy = height / (wy1 - wy0)
        self.wx0, self.wy1 = wx0, wy1

    def to_svg(self, p: tuple) -> tuple:
        return ((p[0] - self.wx0) * self.sx, (self.wy1 - p[1]) * self.sy)

    def fmt(self, p: tuple) -> str:
        x, y = self.to_svg(p)
        return f"{_num(x)} {_num(y)}"


def _arc_to(canvas: _Canvas, z1: tuple, z2: tuple) -> str:
    """Path commands continuing from z1 to z2 along the half-plane geodesic."""
    (x1, y1), (x2, y2) = z1, z2
    if abs(x1 - x2) < 1e-12:
        return f"L {canvas.fmt(z2)}"
    c = ((x1 * x1 + y1 * y1) - (x2 * x2 + y2 * y2)) / (2.0 * (x1 - x2))
    r = math.hypot(x1 - c, y1) * canvas.sx
    sweep = 1 if x1 < x2 else 0
    return f"A {_num(r)} {_num(r)} 0 0 {sweep} {canvas.fmt(z2)}"


def _halfplane_path(canvas: _Canvas, corners: list, horizon: float) -> str:
    """Closed path through HPoint corners; vertical rays to infinity are cut
    at the horizon and joined along it."""
    pts = [_as_xy(p) for p in corners]
    n = len(pts)
    cmds = []
    pen = None
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a is None and b is None:
            continue
        if a is None:                       # descend from the horizon to b
            start = (b[0], horizon)
            if pen is None:
                cmds.append(f"M {canvas.fmt(start)}")
            else:
                cmds.append(f"L {canvas.fmt(start)}")
            cmds.append(f"L {canvas.fmt(b)}")
            pen = b
            continue
        if pen is None:
            cmds.append(f"M {canvas.fmt(a)}")
            pen = a
        elif max(abs(pen[0] - a[0]), abs(pen[1] - a[1])) > 1e-12:
            cmds.append(f"L {canvas.fmt(a)}")
            pen = a
        if b is None:                       # ascend to the horizon
            top = (a[0], horizon)
            cmds.append(f"L {canvas.fmt(top)}")
            pen = top
        else:
            cmds.append(_arc_to(canvas, a, b))
            pen = b
    if not cmds:
        return ""
    return " ".join(cmds) + " Z"


def _disc_arc_to(canvas: _Canvas, w1: tuple, wm: tuple, w2: tuple) -> str:
    ax, ay = w1
    mx, my = wm
    bx, by = w2
    d = 2.0 * ((ax - bx) * (my - by) - (ay - by) * (mx - bx))
    if abs(d) < 1e-12:                      # diameter: a straight chord
        return f"L {canvas.fmt(w2)}"
    ka = ax * ax + ay * ay
    km = mx * mx + my * my
    kb = bx * bx + by * by
    cx = ((ka - kb) * (my - by) - (ay - by) * (km - kb)) / d
    cy = ((ax - bx) * (km - kb) - (ka - kb) * (mx - bx)) / d
    r = math.hypot(ax - cx, ay - cy) * canvas.sx
    t1 = math.atan2(ay - cy, ax - cx)
    tm = math.atan2(my - cy, mx - cx)
    t2 = math.atan2(by - cy, bx - cx)
    dm = (tm - t1) % (2.0 * math.pi)
    d2 = (t2 - t1) % (2.0 * math.pi)
    ccw = dm < d2
    span = d2 if ccw else 2.0 * math.pi - d2
    large = 1 if span > math.pi else 0
    sweep = 0 if ccw else 1
    return f"A {_num(r)} {_num(r)} 0 {large} {sweep} {canvas.fmt(w2)}"


def _disc_path(canvas: _Canvas, corners: list) -> str:
    pts = [_as_xy(p) for p in corners]
    ws = [_cayley(p) for p in corners]
    n = len(ws)
    cmds = [f"M {canvas.fmt(ws[0])}"]
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        wm = _cayley_xy(_geodesic_mid(a, b))
        cmds.append(_disc_arc_to(canvas, ws[i], wm, ws[(i + 1) % n]))
    return " ".join(cmds) + " Z"


def _cayley_xy(p: tuple) -> tuple:
    z = complex(p[0], p[1])
    w = (z - 1j) / (z + 1j)
    return (w.real, w.imag)


def render_svg(tess, model: str = "halfplane", horizon: float = 4.0,
               width: int = 720) -> str:
    """Render a Tessellation as an SVG document string.

    model "halfplane" draws in the upper half-plane with ideal vertices on
    the real axis and a horizon cut; model "disc" applies the Cayley
    transform and draws inside the unit circle.
    """
    if model not in ("halfplane", "disc"):
        raise ValueError(f"unknown model {model!r}")
    faces = sorted(tess.faces, key=lambda f: f.id)
    corner_lists = []
    for f in faces:
        corners = [p for p in f.vertices if p is not None]
        if len(corners) >= 2:
            corner_lists.append((f, corners))

    if model == "disc":
        canvas = _Canvas(width, width, -1.1, -1.1, 1.1, 1.1)
        body = [f'<circle cx="{_num(canvas.to_svg((0, 0))[0])}" '
                f'cy="{_num(canvas.to_svg((0, 0))[1])}" '
                f'r="{_num(canvas.sx)}" fill="none" stroke="{STROKE}"/>']
        for f, corners in corner_lists:
            d = _disc_path(canvas, corners)
            fill = FILL_TRUNCATED if f.truncated else FILL_PLAIN
            body.append(f'<path class="face" id="{_xml(f.id)}" d="{d}" '
                        f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>')
        for p in sorted(tess.vertex_points.values(), key=str):
            wx, wy = canvas.to_svg(_cayley(p))
            body.append(f'<circle class="vertex" cx="{_num(wx)}" '
                        f'cy="{_num(wy)}" r="2.5" fill="{STROKE}"/>')
        height = width
    else:
        xs = []
        for f, corners in corner_lists:
            for p in corners:
                xy = _as_xy(p)
                if xy is not None:
                    xs.append(xy[0])
        if not xs:
            xs = [0.0]
        wx0, wx1 = min(xs) - 0.6, max(xs) + 0.6
        height = int(round(width * (horizon + 0.3) / (wx1 - wx0)))
        canvas = _Canvas(width, height, wx0, -0.3, wx1, horizon)
        body = [f'<line x1="0" y1="{_num(canvas.to_svg((0, 0))[1])}" '
                f'x2="{width}" y2="{_num(canvas.to_svg((0, 0))[1])}" '
                f'stroke="{STROKE}" stroke-width="1"/>']
        for f, corners in corner_lists:
            d = _halfplane_path(canvas, corners, horizon)
            if not d:
                continue
            fill = FILL_TRUNCATED if f.truncated else FILL_PLAIN
            body.append(f'<path class="face" id="{_xml(f.id)}" d="{d}" '
                        f'fill="{fill}" stroke="{STROKE}" stroke-width="1"/>')
        for p in sorted(tess.vertex_points.values(), key=str):
            xy = _as_xy(p)
            if xy is None:
                continue
            wx, wy = canvas.to_svg(xy)
            body.append(f'<circle class="vertex" cx="{_num(wx)}" '
                        f'cy="{_num(wy)}" r="2.5" fill="{STROKE}"/>')
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
