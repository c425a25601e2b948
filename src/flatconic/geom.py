"""Homothety classes of rigid conics and their points in the hyperbolic plane.

`class_key` is the one invariant of a conic's homothety class: an exact
rational key. `h_point` derives from it, injectively, the class's point of
the closed upper half-plane, and `mobius` moves such points by a rational
matrix g exactly as g moves the classes (`h_point` is equivariant).
Both are exact: an interior point keeps its rational real part and the
rational square of its imaginary part, and is rounded once, when printed or
drawn. The float metric layer of the ellipse lemma lives in
`flatconic.lemma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .quadform import QForm3
from .subconic import Subconic, SubconicKind, classify, strip_direction


def class_key(U: Union[Subconic, QForm3]):
    """Exact rational invariant of the homothety class: strips by primitive
    direction, ellipses by the restriction matrix up to positive scale."""
    q = U.form if isinstance(U, Subconic) else U
    kind = (U.kind if isinstance(U, Subconic) else classify(q).kind)
    if kind is SubconicKind.STRIP:
        return ("strip", *strip_direction(q))
    if kind is SubconicKind.ELLIPSE_INTERIOR:
        (a, b), (_, c) = q.gram_restriction()
        return ("ellipse", Fraction(b) / Fraction(a), Fraction(c) / Fraction(a))
    raise ValueError(f"no homothety class for kind {kind.value}")


INFINITY = math.inf


def _sqrt_float(r: Fraction) -> float:
    """The float nearest to sqrt(r) for a rational r >= 0.

    The integer square root s of r 4^k, with k chosen so that s has at least
    56 bits (round to odd needs the float's 53 plus 2), gets its last bit set
    when it is inexact; the one rounding of the int division s / 2^k is then
    the correct one.
    """
    n, d = r.numerator, r.denominator
    k = max(0, (112 + d.bit_length() - n.bit_length()) // 2)
    s = math.isqrt((n << 2 * k) // d)
    if s * s * d != n << 2 * k:
        s |= 1
    return s / (1 << k)


@dataclass(frozen=True)
class HPoint:
    """A point of the upper half-plane, or an ideal boundary point.

    An ideal point's value is a Fraction or INFINITY. The interior point
    x + iy has value (x, y^2), both rational.
    """
    ideal: bool
    value: object

    def __str__(self):
        if self.ideal:
            return "inf" if self.value == INFINITY else str(self.value)
        z = self.as_complex()
        return f"{z.real}+{z.imag}i"

    def as_complex(self) -> complex:
        """The nearest floats: the one float view of the point."""
        if self.ideal:
            return complex(float(self.value), 0.0)
        x, y2 = self.value
        return complex(float(x), _sqrt_float(Fraction(y2)))


def h_point(U: Union[Subconic, QForm3]) -> HPoint:
    """Embed the homothety class of U in the closed upper half-plane.

    The ellipse class ("ellipse", B, C), a restriction [[1, B], [B, C]] up
    to scale, lands at -B + i sqrt(C - B^2); the strip class ("strip", p, q)
    lands at the ideal point p/q (horizontal strips at infinity, vertical at
    0). The embedding is equivariant for the Mobius action of the linear
    part.
    """
    key = class_key(U)
    if key[0] == "strip":
        _, p, q = key
        return HPoint(True, INFINITY if q == 0 else Fraction(p, q))
    _, b, c = key
    return HPoint(False, (-b, c - b * b))


def mobius(g, z: HPoint) -> HPoint:
    """Act by (a z + b)/(c z + d) for g = [[a, b], [c, d]] with det g > 0,
    fixing the ideal boundary setwise; exact for rational g.

    With D = (cx + d)^2 + c^2 y^2, the image of x + iy has real part
    ((ax + b)(cx + d) + ac y^2)/D and squared imaginary part det^2 y^2/D^2.
    """
    (a, b), (c, d) = g[0], g[1]
    if not z.ideal:
        x, y2 = z.value
        u = c * x + d
        den = Fraction(u * u + c * c * y2)
        det = a * d - b * c
        return HPoint(False, (((a * x + b) * u + a * c * y2) / den,
                              det * det * y2 / (den * den)))
    if z.value == INFINITY:
        return HPoint(True, INFINITY if c == 0 else Fraction(a, 1) / c)
    num, den = a * z.value + b, c * z.value + d
    return HPoint(True, INFINITY if den == 0 else num / den)
