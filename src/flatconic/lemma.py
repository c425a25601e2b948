"""The float metric layer of the ellipse lemma: rotation flow, oriented
bisectors, quadruple forms, normalization, and the chord-parallelism check.

Angles, eigenvectors and normalizations are irrational, so they are computed
in floats with numpy and compared within ANGLE_TOL. They verify the lemma's
identities on float configurations and feed nothing exact: the rest of the
package runs on rationals and the standard library, and this is the only
module that imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .quadform import QForm3
from .subconic import _KIND_TABLE, SubconicKind, classify

Mat2 = tuple[tuple[float, float], tuple[float, float]]

ANGLE_TOL = 1e-9


def _as_matrix(qbar) -> np.ndarray:
    if isinstance(qbar, QForm3):
        return np.array(qbar.gram_restriction(), dtype=float)
    return np.array(qbar, dtype=float)


def _chol(A: np.ndarray) -> np.ndarray:
    """Upper-triangular L with L^T L = A; errors unless positive definite."""
    if A[0][0] <= 0 or np.linalg.det(A) <= 0:
        raise ValueError("form is not positive definite")
    a, b, c = A[0][0], A[0][1], A[1][1]
    l11 = math.sqrt(a)
    l12 = b / l11
    l22 = math.sqrt(c - l12 * l12)
    return np.array([[l11, l12], [0.0, l22]])


def q_rotation(qbar, theta: float) -> Mat2:
    """The rotation by theta preserving the positive-definite form: L^-1 R L
    with L^T L = qbar and R the standard rotation matrix.

    Matrices act on column vectors; for the identity form this returns
    [[cos t, sin t], [-sin t, cos t]] itself.
    """
    A = _as_matrix(qbar)
    L = _chol(A)
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, s], [-s, c]])
    M = np.linalg.solve(L, R @ L)
    return ((M[0][0], M[0][1]), (M[1][0], M[1][1]))


def _apply(M, v):
    return (M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1])


def _q_value(A, v) -> float:
    return float(v[0] * (A[0][0] * v[0] + A[0][1] * v[1])
                 + v[1] * (A[1][0] * v[0] + A[1][1] * v[1]))


def _q_pair(A, v, w) -> float:
    return float(v[0] * (A[0][0] * w[0] + A[0][1] * w[1])
                 + v[1] * (A[1][0] * w[0] + A[1][1] * w[1]))


def rotation_angle(qbar, x, y, tol: float = ANGLE_TOL) -> float:
    """First t > 0 with e(t)x = y; requires equal qbar-values."""
    A = _as_matrix(qbar)
    qx, qy = _q_value(A, x), _q_value(A, y)
    if qx <= 0 or abs(qx - qy) > tol * max(1.0, abs(qx)):
        raise ValueError("points do not lie on a common level circle")
    L = _chol(A)
    xs, ys = L @ np.array(x, dtype=float), L @ np.array(y, dtype=float)
    # e(t) rotates L-coordinates by the displayed matrix, i.e. the angle
    # decreases in the usual atan2 sense
    phi = math.atan2(xs[0] * ys[1] - xs[1] * ys[0], xs[0] * ys[0] + xs[1] * ys[1])
    return (-phi) % (2 * math.pi)


def oriented_bisector(qbar, x, y, tol: float = ANGLE_TOL):
    """v_xy = e(theta/2) x for the first positive theta taking x to y."""
    if tuple(x) == tuple(y):
        raise ValueError("bisector needs distinct points")
    theta = rotation_angle(qbar, x, y, tol)
    return _apply(q_rotation(qbar, theta / 2), x)


@dataclass
class QuadrupleForm:
    q_Q: Mat2
    positive_line: tuple[float, float]   # L+ basis vector
    negative_line: tuple[float, float]   # L- basis vector
    u_Q: tuple[float, float]
    angles: tuple[float, float, float, float]


def quadruple_form(qbar, Q: Sequence, tol: float = ANGLE_TOL) -> QuadrupleForm:
    """q_Q(v) = -alpha_{x0x1}(v) alpha_{x2x3}(v) with alpha the qbar-dual of
    the oriented bisector, its eigenlines relative to qbar, and the average
    direction u_Q = e((t0+t1+t2+t3)/4) x0.
    """
    if len(Q) != 4 or len({tuple(p) for p in Q}) != 4:
        raise ValueError("need 4 distinct points")
    A = _as_matrix(qbar)
    x0 = Q[0]
    angles = [0.0]
    for p in Q[1:]:
        angles.append(rotation_angle(qbar, x0, p, tol))
    if not (angles[0] < angles[1] < angles[2] < angles[3]):
        raise ValueError(f"ordering {angles} is not compatible with the rotation flow")
    v01 = oriented_bisector(qbar, Q[0], Q[1], tol)
    v23 = oriented_bisector(qbar, Q[2], Q[3], tol)
    u = np.array([_q_pair(A, (1, 0), v01), _q_pair(A, (0, 1), v01)])
    w = np.array([_q_pair(A, (1, 0), v23), _q_pair(A, (0, 1), v23)])
    M = -(np.outer(u, w) + np.outer(w, u)) / 2
    # eigenlines of q_Q relative to qbar (ascending eigenvalues): with
    # A = L^T L, M v = lam A v iff (L^-T M L^-1)(L v) = lam (L v)
    Linv = np.linalg.inv(_chol(A))
    _, U = np.linalg.eigh(Linv.T @ M @ Linv)
    vecs = Linv @ U
    neg = tuple(vecs[:, 0])
    pos = tuple(vecs[:, 1])
    u_Q = _apply(q_rotation(qbar, sum(angles) / 4), x0)
    return QuadrupleForm(((M[0][0], M[0][1]), (M[1][0], M[1][1])),
                         pos, neg, u_Q, tuple(angles))


def _float_shape(q: QForm3) -> tuple[SubconicKind, Optional[float]]:
    """Kind of {q < 0} and, for strips, the direction angle in [0, pi), for a
    form with float coefficients, from numpy eigenpairs banded by ANGLE_TOL.

    The float lemma configurations need the band: rounding leaves the
    restriction of a float strip only nearly singular, which the exact
    classification would call an ellipse or a hyperbola.
    """
    def eig_signature(gram):
        w, v = np.linalg.eigh(np.array(gram, dtype=float))
        band = ANGLE_TOL * max(1.0, float(np.max(np.abs(w))))
        return (int(np.sum(w > band)), int(np.sum(w < -band))), w, v

    sig3, _, _ = eig_signature(q.gram())
    sig2, w, v = eig_signature(q.gram_restriction())
    kind = _KIND_TABLE.get((sig3, sig2), SubconicKind.OTHER)
    if kind is not SubconicKind.STRIP:
        return kind, None
    k = int(np.argmin(np.abs(w)))   # the null direction of the restriction
    return kind, math.atan2(v[1][k], v[0][k]) % math.pi


def normalize_ellipse(q: QForm3):
    """Translation t, scale lam, and restricted form so that the boundary of
    {q < 0} maps onto {qbar = 1} under z -> lam (z + t). Forms with float
    coefficients are classified by `_float_shape`, exact ones exactly."""
    floats = any(isinstance(c, float) for c in q.coeffs())
    kind = _float_shape(q)[0] if floats else classify(q).kind
    if kind is not SubconicKind.ELLIPSE_INTERIOR:
        raise ValueError(f"normalize_ellipse expects an ellipse interior, got {kind.value}")
    A = np.array(q.gram(), dtype=float)
    Abar = A[:2, :2]
    a_vec = A[:2, 2]
    t = np.linalg.solve(Abar, a_vec)        # a . Abar^-1 (symmetric)
    kappa = -np.linalg.det(A) / np.linalg.det(Abar)
    lam = kappa ** -0.5
    return (t[0], t[1]), lam, ((Abar[0][0], Abar[0][1]), (Abar[1][0], Abar[1][1]))


@dataclass
class Config:
    """A configuration about an ellipse: boundary points in rotation-flow
    order and, for each nonsuccessive pair, the subconic meeting the boundary
    exactly in Z(x, y)."""
    ellipse: QForm3
    points: tuple                     # cyclic, ordered compatibly with e
    pairs: dict                       # (i, j) index pair -> QForm3 of U_{x,y}

    def successor(self, i: int) -> int:
        return (i + 1) % len(self.points)


@dataclass
class LemmaReport:
    ok: bool
    parallel_residuals: tuple
    alternating_residuals: tuple
    failures: tuple

    def __bool__(self):
        return self.ok


def _normalized_points(cfg: Config):
    t, lam, qbar = normalize_ellipse(cfg.ellipse)
    return [(lam * (float(p[0]) + t[0]), lam * (float(p[1]) + t[1]))
            for p in cfg.points], qbar


def _unit_class(qbar) -> np.ndarray:
    A = np.array(qbar, dtype=float)
    return A / math.sqrt(np.linalg.det(A))


def check_geometric_lemma(A: Config, B: Config, beta, tol: float = ANGLE_TOL
                          ) -> LemmaReport:
    """Verify chord parallelism: for each x, the chord (x, s(x)) of A is
    parallel to (beta(x), s(beta(x))) of B.

    beta maps indices of A.points to indices of B.points and must conjugate
    the successor maps. The intermediate check reports, per point, the
    alternating sum of the five quadruple angle-averages around x, which
    collapses to the bisector angle (theta0+theta1)/2 and must agree between
    the two configurations.
    """
    failures = []
    n = len(A.points)
    if len(B.points) != n or n < 5:
        return LemmaReport(False, (), (), ("point counts differ or are below five",))
    for i in range(n):
        if beta[A.successor(i)] != B.successor(beta[i]):
            failures.append(f"beta does not conjugate successors at index {i}")
    clsA = _unit_class(np.array(A.ellipse.gram_restriction(), dtype=float))
    clsB = _unit_class(np.array(B.ellipse.gram_restriction(), dtype=float))
    if not np.allclose(clsA, clsB, atol=1e-9):
        failures.append("[U_A] != [U_B]")
    for (i, j), form in A.pairs.items():
        mate = B.pairs.get((beta[i], beta[j])) or B.pairs.get((beta[j], beta[i]))
        if mate is None:
            failures.append(f"no matched subconic for pair {(i, j)}")
            continue
        kind_a, angle_a = _float_shape(form)
        kind_b, angle_b = _float_shape(mate)
        if kind_a != kind_b:
            failures.append(f"pair {(i, j)}: kinds differ")
        elif kind_a is SubconicKind.ELLIPSE_INTERIOR:
            if not np.allclose(_unit_class(form.gram_restriction()),
                               _unit_class(mate.gram_restriction()), atol=1e-7):
                failures.append(f"pair {(i, j)}: homothety classes differ")
        elif kind_a is not SubconicKind.STRIP:
            raise ValueError(f"no homothety class for kind {kind_a.value}")
        else:
            gap = abs(angle_a - angle_b) % math.pi
            if min(gap, math.pi - gap) > 1e-7:
                failures.append(f"pair {(i, j)}: strip directions differ")

    ptsA, qbarA = _normalized_points(A)
    ptsB, qbarB = _normalized_points(B)

    def five_term_sum(pts, qbar, idx, succ):
        ref = pts[(idx - 2) % n]
        th = {k: (0.0 if k == -2 else rotation_angle(qbar, ref, pts[(idx + k) % n], tol))
              for k in range(-2, 4)}
        quads = [(-2, -1, 0, 1), (-2, -1, 1, 2), (0, 1, 2, 3), (-1, 0, 2, 3),
                 (-1, 0, 1, 2)]
        avgs = [sum(th[k] for k in ks) / 4 for ks in quads]
        return avgs[0] - avgs[1] + avgs[2] - avgs[3] + avgs[4]

    parallel = []
    alternating = []
    for i in range(n):
        j = A.successor(i)
        dA = (float(A.points[j][0]) - float(A.points[i][0]),
              float(A.points[j][1]) - float(A.points[i][1]))
        bi, bj = beta[i], beta[j]
        dB = (float(B.points[bj][0]) - float(B.points[bi][0]),
              float(B.points[bj][1]) - float(B.points[bi][1]))
        na = math.hypot(*dA)
        nb = math.hypot(*dB)
        parallel.append(abs(dA[0] * dB[1] - dA[1] * dB[0]) / (na * nb))
        sa = five_term_sum(ptsA, qbarA, i, A.successor)
        sb = five_term_sum(ptsB, qbarB, beta[i], B.successor)
        gap = abs(sa - sb) % (2 * math.pi)
        alternating.append(min(gap, 2 * math.pi - gap))
    bad = failures + [f"chord at index {i} deviates by {r:.3e}"
                      for i, r in enumerate(parallel) if r > tol]
    return LemmaReport(not bad, tuple(parallel), tuple(alternating), tuple(bad))
