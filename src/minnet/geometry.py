"""Vector geometry shared by every solver: distances, angles, Fermat points.

All operations accept coordinates in any ambient dimension d >= 2.  Length
comparisons elsewhere in the package are relative and scaled by an instance
diameter; angle comparisons are absolute in radians.  The tolerances live in
:class:`ToleranceConfig` so that callers can tighten or relax them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_point",
    "distance",
    "angle_at",
    "fermat_point",
    "fermat_point_triples",
    "dist_point_to_segment",
    "point_segment_distances",
]

_COS_120 = -0.5  # cos(2*pi/3); a vertex with angle >= 2*pi/3 absorbs the Fermat point


class GeometryError(ValueError):
    """Invalid geometric input: bad dimension, non-finite or degenerate data."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the package.

    eps_len       relative length tolerance (scaled by instance diameter)
    eps_angle     absolute angle tolerance in radians
    eps_tie       relative tolerance under which two lengths count as equal
    coverage_eps  absolute slack admitted when testing coverage constraints
    """

    eps_len: float = 1e-9
    eps_angle: float = 1e-6
    eps_tie: float = 1e-7
    coverage_eps: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("eps_len", "eps_angle", "eps_tie", "coverage_eps"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be strictly positive")
        if self.eps_tie < self.eps_len:
            raise ValueError("eps_tie must be >= eps_len")


DEFAULT_TOL = ToleranceConfig()


def as_point(p) -> np.ndarray:
    """Validate and return a finite 1-d coordinate vector with d >= 2."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise GeometryError(f"point must be a 1-d vector with d >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("point has non-finite coordinates")
    return arr


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = as_point(a), as_point(b)
    if pa.shape != pb.shape:
        raise GeometryError(f"dimension mismatch: {pa.shape[0]} vs {pb.shape[0]}")
    return pa, pb


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    pa, pb = _pair(a, b)
    return float(np.linalg.norm(pa - pb))


def angle_at(v, a, b) -> float:
    """Angle at vertex ``v`` between the rays v->a and v->b, in [0, pi]."""
    pv, pa = _pair(v, a)
    pv2, pb = _pair(v, b)
    if pv.shape != pv2.shape:
        raise GeometryError("dimension mismatch between rays")
    u, w = pa - pv, pb - pv
    nu, nw = np.linalg.norm(u), np.linalg.norm(w)
    if nu == 0.0 or nw == 0.0:
        raise GeometryError("degenerate ray: endpoints must differ from the vertex")
    # Kahan's formula: stable for angles near 0 and near pi, unlike plain acos.
    x = u * nw
    y = w * nu
    return float(2.0 * np.arctan2(np.linalg.norm(x - y), np.linalg.norm(x + y)))


def fermat_point(a, b, c, tol: ToleranceConfig = DEFAULT_TOL, max_iters: int = 20000) -> np.ndarray:
    """Point minimizing ``|x-a| + |x-b| + |x-c|``.

    If one triangle angle is at least 2*pi/3 the minimizer is that vertex;
    otherwise it is the interior point seeing all three sides under 2*pi/3.
    Validates the three points and evaluates the closed form of
    :func:`fermat_point_triples`; ``tol`` and ``max_iters`` are accepted for
    compatibility and have no effect.
    """
    pts = [as_point(p) for p in (a, b, c)]
    if not pts[0].shape == pts[1].shape == pts[2].shape:
        raise GeometryError("fermat_point requires three points of equal dimension")
    return fermat_point_triples(np.stack(pts)[None])[0]


def fermat_point_triples(triples: np.ndarray) -> np.ndarray:
    """Vectorized exact Fermat points for a batch of point triples.

    ``triples`` has shape (B, 3, d).  Returns an array of shape (B, d).  Uses
    the classical construction: when every angle is below 2*pi/3 the minimizer
    is the intersection, inside the triangle's affine span, of the lines
    joining each vertex to the apex of the equilateral triangle erected on the
    opposite side.  Closed form, so degenerate collapses land exactly on a
    vertex instead of creeping toward it.
    """
    P = np.asarray(triples, dtype=float)
    if P.ndim != 3 or P.shape[1] != 3:
        raise GeometryError(f"expected shape (B, 3, d), got {P.shape}")
    A, B, C = P[:, 0], P[:, 1], P[:, 2]
    out = np.empty_like(A)

    ab = B - A
    ac = C - A
    bc = C - B
    dab = np.linalg.norm(ab, axis=1)
    dac = np.linalg.norm(ac, axis=1)
    dbc = np.linalg.norm(bc, axis=1)
    scale = np.maximum(np.maximum(dab, dac), dbc)

    done = np.zeros(len(P), dtype=bool)

    all_same = scale == 0.0
    out[all_same] = A[all_same]
    done |= all_same

    tiny = 1e-14 * np.where(scale == 0.0, 1.0, scale)
    for mask_d, val in ((dab <= tiny, A), (dac <= tiny, A), (dbc <= tiny, B)):
        m = mask_d & ~done
        out[m] = val[m]
        done |= m

    # Vertex cases: dot products against cos(2*pi/3), no acos required.
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_a = np.einsum("ij,ij->i", ab, ac) / (dab * dac)
        cos_b = -np.einsum("ij,ij->i", ab, bc) / (dab * dbc)
        cos_c = np.einsum("ij,ij->i", ac, bc) / (dac * dbc)
    for cos_v, val in ((cos_a, A), (cos_b, B), (cos_c, C)):
        m = (cos_v <= _COS_120) & ~done
        out[m] = val[m]
        done |= m

    idx = np.flatnonzero(~done)
    if idx.size == 0:
        return out

    a3, b3, c3 = A[idx], B[idx], C[idx]
    e1 = (b3 - a3) / dab[idx, None]
    w = c3 - a3
    comp1 = np.einsum("ij,ij->i", w, e1)
    h = w - comp1[:, None] * e1
    hn = np.linalg.norm(h, axis=1)
    # Collinearity implies a straight angle, which the vertex cases absorb;
    # anything left here has hn > 0, but guard the division regardless.
    hn = np.where(hn == 0.0, 1.0, hn)
    e2 = h / hn[:, None]

    # 2-d coordinates in the triangle's own plane.
    a2 = np.zeros((len(idx), 2))
    b2 = np.stack([dab[idx], np.zeros(len(idx))], axis=1)
    c2 = np.stack([comp1, np.linalg.norm(h, axis=1)], axis=1)

    sqrt3_2 = np.sqrt(3.0) / 2.0

    def _apex(p, q, opposite):
        mid = 0.5 * (p + q)
        seg = q - p
        perp = np.stack([-seg[:, 1], seg[:, 0]], axis=1)
        side = np.einsum("ij,ij->i", perp, opposite - mid)
        sign = np.where(side > 0.0, -1.0, 1.0)
        return mid + sign[:, None] * sqrt3_2 * perp

    apex_a = _apex(b2, c2, a2)  # equilateral on BC, opposite A
    apex_b = _apex(a2, c2, b2)  # equilateral on AC, opposite B

    d1 = apex_a - a2
    d2 = apex_b - b2
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    det = np.where(det == 0.0, 1.0, det)
    rhs = b2 - a2
    t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
    f2 = a2 + t[:, None] * d1

    out[idx] = a3 + f2[:, 0, None] * e1 + f2[:, 1, None] * e2
    return out


def dist_point_to_segment(p, s0, s1) -> float:
    """Distance from point ``p`` to the closed segment [s0, s1]."""
    pp, p0 = _pair(p, s0)
    pp2, p1 = _pair(p, s1)
    if p0.shape != p1.shape or pp.shape != pp2.shape:
        raise GeometryError("dimension mismatch in dist_point_to_segment")
    v = p1 - p0
    den = float(v @ v)
    if den == 0.0:
        return float(np.linalg.norm(pp - p0))
    t = float(np.clip((pp - p0) @ v / den, 0.0, 1.0))
    return float(np.linalg.norm(pp - (p0 + t * v)))


def _closest_points(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped segment parameters (...) and closest points (..., d).

    ``pts``, ``a`` and ``b`` broadcast against each other over their leading
    axes: ``pts[:, None]`` against ``a[None]`` gives the dense (S, E) table,
    equal-length gathered rows give one pair per row, and each pair rounds
    the same either way.  The closest point of ``pts`` on segment ``[a, b]``
    is ``a + t * (b - a)``; a zero-length segment gets t = 0.
    """
    v = b - a
    den = np.einsum("...d,...d->...", v, v)
    safe = np.where(den == 0.0, 1.0, den)
    t = np.einsum("...d,...d->...", pts - a, v) / safe
    t = np.clip(np.where(den == 0.0, 0.0, t), 0.0, 1.0)
    return t, a + t[..., None] * v


def point_segment_distances(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Distance matrix between ``points`` (S, d) and segments (E, d)/(E, d).

    Returns shape (S, E), every point against every segment.  Callers that
    only need each point's nearest segment on a large network use
    ``mdm._closest_on_network``, which prunes the pairs first.
    """
    pts = np.asarray(points, dtype=float)[:, None, :]
    a = np.asarray(seg_a, dtype=float)[None]
    _, closest = _closest_points(pts, a, np.asarray(seg_b, dtype=float)[None])
    return np.linalg.norm(pts - closest, axis=2)
