"""Exact oracles for the benchmark: Veech-group membership of the stock
surfaces, and consistency checks of every CLI output.

Nothing here calls flatconic: the truth comes from lattice arithmetic and
from the SL(2,Z) action on origamis, so a wrong verdict of the program
cannot be confirmed by the same code that produced it.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import permutations

F = Fraction

T = ((1, 1), (0, 1))
T_INV = ((1, -1), (0, 1))
S = ((0, -1), (1, 0))
LETTERS = {"T": T, "t": T_INV, "S": S}


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_inv(g):
    (a, b), (c, d) = g
    det = F(a * d - b * c)
    return ((d / det, -b / det), (-c / det, a / det))


def word_matrix(word: str):
    """The product of the letters T, t (= T^-1) and S, left to right."""
    g = ((1, 0), (0, 1))
    for ch in word:
        g = mat_mul(g, LETTERS[ch])
    return g


def _det(g):
    return F(g[0][0]) * F(g[1][1]) - F(g[0][1]) * F(g[1][0])


def is_sl2z(g) -> bool:
    return (all(F(x).denominator == 1 for row in g for x in row)
            and _det(g) == 1)


# ---------------------------------------------------------------------------
# tori

def torus_member(g) -> bool:
    """Square or sheared torus: both have period lattice Z^2, Gamma = SL(2,Z)."""
    return is_sl2z(g)


def _mod1(x) -> Fraction:
    x = F(x)
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


# ---------------------------------------------------------------------------
# the L as an origami: squares 0 = [0,1]^2, 1 = right of 0, 2 = above 0.
# h sends a square to its right neighbour, v to the one above: ((0 1), (0 2))
# in zero-based labels, ((1 2), (1 3)) in Schmithuesen's (2004) notation.

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
# output checks; each returns None when the output is consistent, else a
# one-line reason

def _frac(text: str) -> Fraction:
    return Fraction(text)


def _roundtrip(text: str):
    doc = json.loads(text)
    if json.dumps(doc, indent=1, sort_keys=True) + "\n" != text:
        raise ValueError("JSON does not round-trip byte for byte")
    return doc


def _form_value(coeffs, p) -> Fraction:
    a11, a22, a33, a12, a13, a23 = (_frac(c) for c in coeffs)
    x, y = _frac(p[0]), _frac(p[1])
    return (a11 * x * x + a22 * y * y + a33
            + 2 * (a12 * x * y + a13 * x + a23 * y))


def check_complex_json(text: str, budget: int):
    try:
        doc = _roundtrip(text)
    except ValueError as e:
        return str(e)
    verts = {v["id"]: v for v in doc["vertices"]}
    if len(verts) != len(doc["vertices"]):
        return "duplicate vertex ids"
    faces = {f["id"]: f for f in doc["faces"]}
    if len(faces) != len(doc["faces"]) or not 1 <= len(faces) <= budget:
        return f"{len(doc['faces'])} faces for budget {budget}"
    for v in doc["vertices"]:
        pts = v["boundary"] if v["kind"] == "ellipse-interior" else \
            [p for line in v["boundary"] for p in line]
        if any(_form_value(v["form"], p) != 0 for p in pts):
            return f"vertex {v['id']} form does not vanish on its boundary"
    edges = {}
    for e in doc["edges"]:
        key = tuple(tuple(p) for p in e["quadruple"])
        edges[key] = e
        # the cells at a 1-cell are those of the triples inside its
        # quadruple, so at most four (the link of a strip is a grid)
        if not 1 <= len(e["cells"]) <= 4:
            return f"1-cell {key} borders {len(e['cells'])} cells"
        for c in e["cells"]:
            if c not in faces or \
                    not {tuple(p) for p in faces[c]["triple"]} <= set(key):
                return f"1-cell {key} borders cell {c} outside its quadruple"
        for vid in e["endpoints"]:
            if vid not in verts:
                return f"1-cell {key} ends at unknown vertex {vid}"
            if any(_form_value(verts[vid]["form"], p) != 0 for p in key):
                return f"vertex {vid} does not pass through 1-cell {key}"
    for f in doc["faces"]:
        if len(f["edges"]) != len(f["polygon_t"]):
            return f"cell {f['id']} has mismatched sides"
        triple = {tuple(p) for p in f["triple"]}
        for q in f["edges"]:
            if q is None:
                continue
            key = tuple(tuple(p) for p in q)
            if key not in edges or f["id"] not in edges[key]["cells"]:
                return f"cell {f['id']} side {key} is not a 1-cell bordering it"
            if not triple <= set(key):
                return f"cell {f['id']} side {key} misses its triple"
    return None


def check_tessellation_json(text: str, budget: int):
    try:
        doc = _roundtrip(text)
    except ValueError as e:
        return str(e)
    ids = [f["id"] for f in doc["faces"]]
    if len(set(ids)) != len(ids) or not 1 <= len(ids) <= budget:
        return f"{len(ids)} faces for budget {budget}"
    points = set(doc["vertices"].values())
    for f in doc["faces"]:
        if any(p is not None and p not in points for p in f["vertices"]):
            return f"face {f['id']} has a vertex outside the vertex list"
    return None


_SVG_LINE = re.compile(r"^(\S+): (\d+) faces, (\d+) vertices \((halfplane|disc)\)\n$")


def check_tessellation_svg(stdout: str, svg_name: str, svg_text: str,
                           model: str, budget: int):
    m = _SVG_LINE.match(stdout)
    if not m or m.group(1) != svg_name or m.group(4) != model:
        return f"unexpected summary line {stdout!r}"
    nfaces, nverts = int(m.group(2)), int(m.group(3))
    if not 1 <= nfaces <= budget:
        return f"{nfaces} faces for budget {budget}"
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as e:
        return f"SVG does not parse: {e}"
    if not root.tag.endswith("svg"):
        return "root element is not svg"
    paths = [el for el in root.iter() if el.get("class") == "face"]
    dots = [el for el in root.iter() if el.get("class") == "vertex"]
    if len(paths) > nfaces or len({p.get("id") for p in paths}) != len(paths):
        return f"{len(paths)} face paths for {nfaces} faces"
    if len(dots) > nverts or (model == "disc" and len(dots) != nverts):
        return f"{len(dots)} vertex marks for {nverts} vertices"
    return None


_VERDICT = re.compile(r"^(member-in-window|rejected|inconclusive) \(R=(\S+)\)\n$")


def judge_veech(stdout: str, rc: int, surface, g, radius):
    """(status, reason): status is answered, failed or neither."""
    if rc == 3 and stdout == "":
        return "neither", None      # infeasible window, reported on stderr
    m = _VERDICT.match(stdout)
    if not m or m.group(2) != str(Fraction(radius)):
        return "failed", f"unexpected verdict line {stdout!r}"
    verdict = m.group(1)
    if verdict == "inconclusive":
        return ("neither", None) if rc == 3 else ("failed", f"exit {rc}")
    if rc != 0:
        return "failed", f"exit {rc} for a definite verdict"
    truth = member(surface, g)
    if truth != (verdict == "member-in-window"):
        return "failed", (f"{verdict} but g is {'' if truth else 'not '}"
                          f"in the Veech group")
    return "answered", None


_REBUILD = re.compile(
    r"^\[\[(\S+),(\S+)\],\[(\S+),(\S+)\]\]\n"
    r"homothety: (\S+)\n"
    r"translation: \((\S+),(\S+)\)\n"
    r"matched: (\d+) faces, (\d+) edges, (\d+) vertices\n$")


def judge_rebuild(stdout: str, source, g):
    """The recovered map z -> L z + t must be an affine map from the source
    onto g(source): L in g Gamma, homothety 1, and t carrying the source's
    cone points onto the target's."""
    m = _REBUILD.match(stdout)
    if not m:
        return "failed", f"unexpected output {stdout!r}"
    a, b, c, d, h, t0, t1 = (_frac(x) for x in m.groups()[:7])
    lin = ((a, b), (c, d))
    if h != 1 or int(m.group(8)) < 1:
        return "failed", f"homothety {h}, {m.group(8)} faces matched"
    k = mat_mul(mat_inv(g), lin)
    if not member(source, k):
        return "failed", f"g^-1 L = {k} is not in the source's Veech group"
    # cone points: Z^2, plus Z^2 + m on the two-marked torus; the target's
    # are their images under g, and g preserves Z^2
    marks = [(F(0), F(0))] + ([source[1]] if source[0] == "tm" else [])
    target = {marked_point(g, p) for p in marks}
    images = {marked_point(lin, p, (t0, t1)) for p in marks}
    if images != target:
        return "failed", f"translation ({t0},{t1}) misses the cone points"
    return "answered", None


def marked_point(g, p, t=(0, 0)) -> tuple:
    return (_mod1(g[0][0] * p[0] + g[0][1] * p[1] + t[0]),
            _mod1(g[1][0] * p[0] + g[1][1] * p[1] + t[1]))
