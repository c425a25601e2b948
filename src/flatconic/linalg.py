"""Small exact linear algebra used by the form and complex machinery.

Everything here is dimension-agnostic but only ever sees tiny matrices
(rows of length 6 for conic constraint systems, 2x2 and 3x3 Gram blocks).
Arithmetic is exact: rows and Gram blocks are scaled to Python ints by the
common denominator of their entries, and results come back as Fractions. A
float input is taken at its exact binary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction | float


def sign_of(x: Scalar) -> int:
    """Exact sign as -1/0/+1."""
    return (x > 0) - (x < 0)


def common_denominator(values: Iterable[Scalar]) -> int:
    """Least common denominator of the scalars (floats taken exactly)."""
    return math.lcm(*(v.as_integer_ratio()[1] for v in values))


def scaled_int(x: Scalar, L: int) -> int:
    """x * L for an x whose denominator divides L."""
    n, d = x.as_integer_ratio()
    return n * (L // d)


def primitive(x: int, y: int) -> tuple[int, int]:
    """The int vector divided by its gcd: the signed primitive vector of its
    ray. (0, 0) stays (0, 0)."""
    g = math.gcd(x, y) or 1
    return (x // g, y // g)


def fraction_str(x: Scalar) -> str:
    """An exact rational as "n" or "n/d"."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def clear_denominators(row: Sequence[Scalar]) -> list[int]:
    """The row times the least common denominator of its entries, as ints."""
    ratios = [v.as_integer_ratio() for v in row]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios]


def nullspace(rows: Sequence[Sequence[Scalar]],
              width: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : R v = 0} for the given constraint rows, as Fractions.

    Fraction-free (Bareiss) elimination with full pivoting on the rows
    cleared of denominators.
    """
    mat = [clear_denominators(r) for r in rows if any(r)]
    if not mat:
        return [tuple(Fraction(int(i == j)) for j in range(width)) for i in range(width)]
    m = len(mat)
    col_order = list(range(width))
    prev_pivot = 1
    pivots = 0
    for k in range(min(m, width)):
        # full pivoting: largest absolute entry in the remaining block
        best = None
        for i in range(k, m):
            for j in range(k, width):
                v = abs(mat[i][col_order[j]])
                if v and (best is None or v > best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        mat[k], mat[pi] = mat[pi], mat[k]
        col_order[k], col_order[pj] = col_order[pj], col_order[k]
        pc = col_order[k]
        for i in range(k + 1, m):
            for j in range(k + 1, width):
                c = col_order[j]
                mat[i][c] = (mat[i][c] * mat[k][pc] - mat[i][pc] * mat[k][c]) // prev_pivot
            mat[i][pc] = 0
        prev_pivot = mat[k][pc]
        pivots += 1

    # back-substitute one basis vector per free column
    basis = []
    free_cols = col_order[pivots:]
    for fc in free_cols:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for k in range(pivots - 1, -1, -1):
            pc = col_order[k]
            s = Fraction(0)
            for j in range(k + 1, width):
                c = col_order[j]
                if vec[c]:
                    s += Fraction(mat[k][c]) * vec[c]
            vec[pc] = -s / Fraction(mat[k][pc])
        basis.append(tuple(vec))
    return basis


def real_rooted_signs(coeffs: Sequence[Scalar]) -> tuple[int, int, int]:
    """(positive, negative, zero) root counts of a real-rooted polynomial.

    `coeffs` are highest-degree first. Uses Descartes' rule, which is exact
    when all roots are real (characteristic polynomials of symmetric
    matrices).
    """
    sig = [sign_of(c) for c in coeffs]
    n_zero = 0
    while sig and sig[-1] == 0:
        sig.pop()
        n_zero += 1
    if not sig:
        # identically zero polynomial: callers treat degree as all-zero roots
        return (0, 0, n_zero)
    seq = [s for s in sig if s != 0]
    n_pos = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    n_neg = (len(sig) - 1) - n_pos
    return (n_pos, n_neg, n_zero)


def symmetric_signature(gram: Sequence[Sequence[Scalar]]) -> tuple[int, int, int]:
    """Sylvester signature (n+, n-, n0) of a 2x2 or 3x3 symmetric matrix.

    The matrix is scaled to ints by the common denominator of its entries (a
    positive scale keeps the signs); its characteristic polynomial has only
    real roots, which Descartes' rule counts exactly.
    """
    n = len(gram)
    if n == 2:
        a, b, c = clear_denominators((gram[0][0], gram[0][1], gram[1][1]))
        # char poly x^2 - (a+c) x + (ac - b^2)
        return real_rooted_signs([1, -(a + c), a * c - b * b])
    if n == 3:
        # [[a, b, c], [b, d, e], [c, e, f]]
        a, b, c, d, e, f = clear_denominators(
            (gram[0][0], gram[0][1], gram[0][2],
             gram[1][1], gram[1][2], gram[2][2]))
        tr = a + d + f
        minors = a * d - b * b + a * f - c * c + d * f - e * e
        det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
        return real_rooted_signs([1, -tr, minors, -det])
    raise ValueError(f"unsupported dimension {n}")


def cross(o, a, b) -> Scalar:
    """z-component of (a-o) x (b-o); the standard orientation predicate."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot2(a, b) -> Scalar:
    return a[0] * b[0] + a[1] * b[1]


def apply_affine(g, tau, p):
    """The image g p + tau of the point p under the affine map (g, tau)."""
    return (g[0][0] * p[0] + g[0][1] * p[1] + tau[0],
            g[1][0] * p[0] + g[1][1] * p[1] + tau[1])


def convex_hull_ccw(points):
    """Monotone chain over exact coordinates; returns hull CCW, no duplicates.

    Collinear points interior to hull edges are dropped.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and sign_of(cross(lower[-2], lower[-1], p)) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and sign_of(cross(upper[-2], upper[-1], p)) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
