"""Classification of the planar regions cut out by quadratic forms.

For a form q on 3-space, the region of interest is

    U_q = { x in R^2 : q(x, y, 1) < 0 }.

The pair (signature of q, signature of the restriction q̲ to the direction
plane z = 0) decides the shape of U_q among the cases we track:

    (2,1) & (2,0)  ellipse interior
    (1,1) & (1,0)  strip between two parallel lines
    (1,1) & (0,0)  open half-plane
    (2,1) & (1,0)  parabola interior

everything else is lumped into OTHER (empty regions, line complements,
hyperbola sides, the whole plane, ...). Both signatures are exact, so the
classification is too; a float coefficient is taken at its exact binary
value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Scalar, clear_denominators, primitive, sign_of
from .quadform import (QForm3, canonical_scale, forms_vanishing_on, lift,
                       signature, signature_restriction)


class SubconicKind(enum.Enum):
    ELLIPSE_INTERIOR = "ellipse-interior"
    STRIP = "strip"
    HALF_PLANE = "half-plane"
    PARABOLA_INTERIOR = "parabola-interior"
    OTHER = "other"


_KIND_TABLE = {
    ((2, 1), (2, 0)): SubconicKind.ELLIPSE_INTERIOR,
    ((1, 1), (1, 0)): SubconicKind.STRIP,
    ((1, 1), (0, 0)): SubconicKind.HALF_PLANE,
    ((2, 1), (1, 0)): SubconicKind.PARABOLA_INTERIOR,
}


@dataclass(frozen=True)
class Classification:
    kind: SubconicKind
    signature: tuple[int, int, int]
    signature_restriction: tuple[int, int, int]


@dataclass(frozen=True)
class Subconic:
    """A form tagged with the shape of its sublevel region."""
    form: QForm3
    kind: SubconicKind

    def __contains__(self, point) -> bool:
        return contains(self.form, point) < 0


def classify(q: QForm3) -> Classification:
    """Classify U_q from the two signatures."""
    sig3 = signature(q)
    sig2 = signature_restriction(q)
    kind = _KIND_TABLE.get((sig3[:2], sig2[:2]), SubconicKind.OTHER)
    return Classification(kind, sig3, sig2)


def subconic(q: QForm3) -> Subconic:
    return Subconic(q, classify(q).kind)


def contains(q: QForm3 | Subconic, point: Sequence[Scalar]) -> int:
    """Side of a planar point: -1 inside U_q, 0 on the boundary, +1 outside."""
    form = q.form if isinstance(q, Subconic) else q
    return sign_of(form(lift((Fraction(point[0]), Fraction(point[1])))))


class DegenerateConfiguration(ValueError):
    pass


def conic_through_five(points: Sequence[Sequence[Scalar]]) -> Subconic:
    """The unique conic through five points, canonically scaled and classified.

    Raises DegenerateConfiguration when the solution space is not a line
    (repeated points, or 4+ collinear points leaving extra freedom). Exactly
    three collinear points still pin a unique line-pair conic, which is
    returned with its (degenerate) classification.
    """
    if len(points) != 5:
        raise ValueError("need exactly 5 points")
    space = forms_vanishing_on([lift(p) for p in points])
    if len(space) != 1:
        raise DegenerateConfiguration(
            f"conic through {points} is not unique (solution dim {len(space)})")
    return subconic(canonical_scale(space[0]))


def strip_direction(q: QForm3) -> tuple[int, int]:
    """Direction of the boundary lines of a strip (kernel of q̲), canonical sign.

    A primitive integer vector with second coordinate positive, or first
    positive when the direction is horizontal. On ints, a nonzero rank-1
    restriction [[a, b], [b, c]] (ac = b^2) has its kernel spanned by
    (b, -a), or by (c, -b) when a = b = 0.
    """
    (a, b), (_, c) = q.gram_restriction()
    a, b, c = clear_denominators((a, b, c))
    if a * c != b * b or not (a or b or c):
        raise ValueError("form is not a strip (direction kernel is not a line)")
    p, r = primitive(*((b, -a) if a or b else (c, -b)))
    if r < 0 or (r == 0 and p < 0):
        p, r = -p, -r
    return (p, r)

