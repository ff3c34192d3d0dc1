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
_SQRT3_2 = np.sqrt(3.0) / 2.0


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


def _check_extent(pts: np.ndarray) -> None:
    """Raise unless the squared extent of ``pts`` (n, d) is a normal float or 0.

    Relative tolerances and lengths scale with it; outside that range they
    overflow or underflow.
    """
    with np.errstate(over="ignore", under="ignore"):
        spread = np.ptp(pts, axis=0)
        extent2 = float((spread**2).sum())
    if spread.any() and not np.finfo(float).tiny <= extent2 < np.inf:
        raise GeometryError(
            f"terminal extent {spread.max():.3g} is out of range: its square must be a normal float"
        )


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    pa, pb = as_point(a), as_point(b)
    if pa.shape != pb.shape:
        raise GeometryError(f"dimension mismatch: {pa.shape[0]} vs {pb.shape[0]}")
    return pa, pb


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    pa, pb = _pair(a, b)
    return float(np.linalg.norm(pa - pb))


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded exactly as numpy's 1-d ``u @ w``."""
    return (u[..., None, :] @ w[..., :, None])[..., 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    """Row-wise lengths, rounded exactly as ``np.linalg.norm`` of one row."""
    return np.sqrt(_dot(u, u))


def _angles(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] between the rays in rows of ``u`` and ``w`` (..., d).

    The one angle kernel.  Kahan's formula is stable for angles near 0 and
    near pi, unlike plain acos, and symmetric in ``u`` and ``w`` bit for bit.
    """
    nu, nw = _norm(u)[..., None], _norm(w)[..., None]
    if not (nu.all() and nw.all()):
        raise GeometryError("degenerate ray: endpoints must differ from the vertex")
    x, y = u * nw, w * nu
    return 2.0 * np.arctan2(_norm(x - y), _norm(x + y))


def angle_at(v, a, b) -> float:
    """Angle at vertex ``v`` between the rays v->a and v->b, in [0, pi]."""
    pv, pa = _pair(v, a)
    pv2, pb = _pair(v, b)
    if pv.shape != pv2.shape:
        raise GeometryError("dimension mismatch between rays")
    return float(_angles(pa - pv, pb - pv))


def fermat_point(a, b, c) -> np.ndarray:
    """Point minimizing ``|x-a| + |x-b| + |x-c|``.

    If one triangle angle is at least 2*pi/3 the minimizer is that vertex;
    otherwise it is the interior point seeing all three sides under 2*pi/3.
    Validates the three points and evaluates the closed form of
    :func:`fermat_point_triples`.
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
    ab = B - A
    ac = C - A
    bc = C - B
    dab = np.linalg.norm(ab, axis=1)
    dac = np.linalg.norm(ac, axis=1)
    dbc = np.linalg.norm(bc, axis=1)
    tiny = 1e-14 * np.maximum(np.maximum(dab, dac), dbc)

    # Vertex cases in precedence order: a side of (relative) length 0 puts
    # the minimizer on its endpoint, then an angle >= 2*pi/3 at A, B or C,
    # tested by dot products against cos(2*pi/3), no acos required.  Every
    # row also takes the interior construction below; np.where keeps the
    # vertex where one applies, so no row is gathered or scattered.
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_a = np.einsum("ij,ij->i", ab, ac) / (dab * dac)
        cos_b = -np.einsum("ij,ij->i", ab, bc) / (dab * dbc)
        cos_c = np.einsum("ij,ij->i", ac, bc) / (dac * dbc)
        at_a = (dab <= tiny) | (dac <= tiny) | ((dbc > tiny) & (cos_a <= _COS_120))
        at_b = ~at_a & ((dbc <= tiny) | (cos_b <= _COS_120))
        at_c = ~at_a & ~at_b & (cos_c <= _COS_120)

        # 2-d coordinates in the triangle's own plane: A = (0, 0),
        # B = (dab, 0), C = (cx, cy) with cy >= 0.
        e1 = ab / dab[:, None]
        cx = np.einsum("ij,ij->i", ac, e1)
        h = ac - cx[:, None] * e1
        cy = np.linalg.norm(h, axis=1)
        # Collinearity implies a straight angle, which the vertex cases
        # absorb; guard the division regardless.
        e2 = h / np.where(cy == 0.0, 1.0, cy)[:, None]

        # d1 runs from A to the apex of the equilateral triangle erected on
        # BC away from A, d2 from B to the one on AC away from B; the Fermat
        # point is where the two lines meet, F = A + t * d1.
        px, py = -cy, cx - dab
        mx, my = 0.5 * (dab + cx), 0.5 * cy
        s = np.where(px * mx + py * my < 0.0, -_SQRT3_2, _SQRT3_2)
        d1x, d1y = mx + s * px, my + s * py
        qx, qy = -cy, cx
        nx, ny = 0.5 * cx, 0.5 * cy
        s = np.where(qx * (dab - nx) - qy * ny > 0.0, -_SQRT3_2, _SQRT3_2)
        d2x, d2y = nx + s * qx - dab, ny + s * qy
        det = d1x * d2y - d1y * d2x
        t = dab * d2y / np.where(det == 0.0, 1.0, det)
        inner = A + (t * d1x)[:, None] * e1 + (t * d1y)[:, None] * e2

    vertex = at_a | at_b | at_c
    pick = P[np.arange(len(P)), at_b + 2 * at_c]
    return np.where(vertex[:, None], pick, inner)


def dist_point_to_segment(p, s0, s1) -> float:
    """Distance from point ``p`` to the closed segment [s0, s1]."""
    pp, p0 = _pair(p, s0)
    pp2, p1 = _pair(p, s1)
    if p0.shape != p1.shape or pp.shape != pp2.shape:
        raise GeometryError("dimension mismatch in dist_point_to_segment")
    return float(np.linalg.norm(pp - _closest_points(pp, p0, p1)[1]))


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
