"""Quadratic forms on 3-space: signatures, constraint nullspaces, congruences.

A form is stored by the six entries of its symmetric Gram matrix

    A = [[a11, a12, a13],
         [a12, a22, a23],
         [a13, a23, a33]],        q(v) = v A v^T,

so the xy / xz / yz *polynomial* coefficients are twice the stored entries.
Every operation is exact over the rationals: signatures, scalings and
affine images are computed on ints and Fractions, and a float input is
taken at its exact binary value. The natural basis of a pencil
through a triple lives on the lattice, in `cellcomplex._lattice_basis`.

`congruent` is the one form congruence: K^T A K for an affine K = (M, s;
0, w), on ints or Fractions. Affine images (`transform_by_affine`), forms
moved to a new origin, and forms carried between the int frames of two
windows all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Scalar, nullspace, symmetric_signature

Vec3 = tuple[Scalar, Scalar, Scalar]


def lift(p: Sequence[Scalar]) -> Vec3:
    """x̂ = (x, y, 1) for a planar point."""
    return (p[0], p[1], 1)


@dataclass(frozen=True)
class QForm3:
    a11: Scalar
    a22: Scalar
    a33: Scalar
    a12: Scalar
    a13: Scalar
    a23: Scalar

    def coeffs(self) -> tuple[Scalar, ...]:
        return (self.a11, self.a22, self.a33, self.a12, self.a13, self.a23)

    def gram(self):
        return ((self.a11, self.a12, self.a13),
                (self.a12, self.a22, self.a23),
                (self.a13, self.a23, self.a33))

    def gram_restriction(self):
        """Gram block of q̲, the restriction to the (x, y, 0) plane."""
        return ((self.a11, self.a12), (self.a12, self.a22))

    def __call__(self, v: Sequence[Scalar]) -> Scalar:
        x, y, z = v
        return (self.a11 * x * x + self.a22 * y * y + self.a33 * z * z
                + 2 * (self.a12 * x * y + self.a13 * x * z + self.a23 * y * z))

    def pair(self, v: Sequence[Scalar], w: Sequence[Scalar]) -> Scalar:
        """The symmetric bilinear form q(v, w)."""
        return (self.a11 * v[0] * w[0] + self.a22 * v[1] * w[1] + self.a33 * v[2] * w[2]
                + self.a12 * (v[0] * w[1] + v[1] * w[0])
                + self.a13 * (v[0] * w[2] + v[2] * w[0])
                + self.a23 * (v[1] * w[2] + v[2] * w[1]))

    def scaled(self, c: Scalar) -> "QForm3":
        return QForm3(*(c * v for v in self.coeffs()))


def signature(q: QForm3) -> tuple[int, int, int]:
    """(n+, n-, n0) of q on 3-space."""
    return symmetric_signature(q.gram())


def signature_restriction(q: QForm3) -> tuple[int, int, int]:
    """(n+, n-, n0) of q̲ on the direction plane."""
    return symmetric_signature(q.gram_restriction())


def _evaluation_row(v: Vec3) -> tuple[Scalar, ...]:
    x, y, z = (Fraction(c) for c in v)
    return (x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z)


def forms_vanishing_on(points: Sequence[Vec3]) -> list[QForm3]:
    """Basis of the space of forms vanishing on the given lifted points.

    For ≤5 points in general position the dimension is exactly 6 - n;
    degenerate configurations simply return the larger space (callers that
    care about general position check the dimension).
    """
    if len(points) > 5:
        raise ValueError("at most 5 point constraints are supported")
    rows = [_evaluation_row(v) for v in points]
    return [QForm3(*v) for v in nullspace(rows, 6)]


def canonical_scale(q: QForm3) -> QForm3:
    """Deterministic representative of the positive-scaling class of q.

    Leading nonzero coefficient (in field order) becomes ±1, with the sign
    chosen so the form is negative somewhere whenever possible: a positive
    semidefinite normalization is flipped.
    """
    lead = next((c for c in q.coeffs() if c != 0), None)
    if lead is None:
        return q
    lead = Fraction(lead)
    scaled = QForm3(*(Fraction(c) / lead for c in q.coeffs()))
    n_pos, n_neg, _ = signature(scaled)
    if n_neg == 0 and n_pos > 0:
        scaled = scaled.scaled(-1)
    return scaled


def ellipse_center(q: QForm3) -> tuple[Fraction, Fraction]:
    """Centre of the conic of q: the solution c of q̲ c = -(a13, a23).

    Raises ZeroDivisionError when q̲ is singular (no unique centre).
    """
    a, b, c, d, e = (Fraction(v) for v in (q.a11, q.a12, q.a22, q.a13, q.a23))
    det = a * c - b * b
    return ((b * e - c * d) / det, (b * d - a * e) / det)


def congruent(coeffs, M, s, w) -> tuple:
    """The coefficients of K^T A K for K = (M, s; 0, w), A the symmetric
    matrix of `coeffs` (in `QForm3.coeffs()` order): the form x -> q(K x).
    Generic over ints and Fractions."""
    a11, a22, a33, a12, a13, a23 = coeffs
    (m00, m01), (m10, m11) = M
    s0, s1 = s
    p00, p10 = a11 * m00 + a12 * m10, a12 * m00 + a22 * m10   # A M
    p01, p11 = a11 * m01 + a12 * m11, a12 * m01 + a22 * m11
    u0 = a11 * s0 + a12 * s1 + w * a13                        # A s + w b
    u1 = a12 * s0 + a22 * s1 + w * a23
    return (m00 * p00 + m10 * p10, m01 * p01 + m11 * p11,
            s0 * u0 + s1 * u1 + w * (a13 * s0 + a23 * s1 + w * a33),
            m00 * p01 + m10 * p11, m00 * u0 + m10 * u1, m01 * u0 + m11 * u1)


def transform_by_affine(q: QForm3, g, tau) -> QForm3:
    """Form of the image region: x in g·U + tau  iff  (new form)(x̂) < 0.

    g is a 2x2 invertible matrix (rows), tau a 2-vector. Exact over
    rationals: the congruence by the lifted inverse (g^-1, -g^-1 tau; 0, 1),
    which sends x̂ to (g^-1(x - tau), 1). Its entries are Fractions, so
    every image coefficient is a Fraction.
    """
    (a, b), (c, d) = ((Fraction(x) for x in row) for row in g)
    t0, t1 = Fraction(tau[0]), Fraction(tau[1])
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular linear part")
    inv = ((d / det, -b / det), (-c / det, a / det))
    shift = (-(inv[0][0] * t0 + inv[0][1] * t1),
             -(inv[1][0] * t0 + inv[1][1] * t1))
    return QForm3(*congruent(q.coeffs(), inv, shift, 1))
