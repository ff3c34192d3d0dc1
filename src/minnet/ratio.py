"""Minimum spanning trees and Steiner-ratio experiments.

The ratio convention here is steiner length / MST length, which lies in
(0, 1] because the MST is itself a spanning competitor.  Includes generators
for the regular simplex and the d-sausage (face-to-face glued simplices),
plus a caterpillar-restricted relaxation that keeps sausage experiments
honest at sizes where full enumeration is off the table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .geometry import DEFAULT_TOL, GeometryError, ToleranceConfig, _check_extent
from .steiner import relax_topology, solve_exact
from .topology import Topology

__all__ = [
    "MstResult",
    "mst",
    "steiner_ratio",
    "simplex_points",
    "sausage_points",
    "caterpillar_topology",
    "caterpillar_ratio",
]


@dataclass
class MstResult:
    edges: list[tuple[int, int]]
    length: float


def mst(points) -> MstResult:
    """Exact Euclidean minimum spanning tree (Prim, ties broken by index).

    The frontier is a heap keyed ``(dist, vertex)``, so the first minimal
    index wins a tie; a source changes only on strict improvement.  Prim's
    loop walks each new tree vertex's candidate neighbours as plain Python
    lists.  In d = 2 and 3 the candidate edges are Delaunay edges, which is
    exact: a point inside the closed diametral ball of a shortest cut edge
    uv would be closer than |uv| to both u and v, so it would give a shorter
    cut edge on either side of the cut.  So uv is an edge of every Delaunay
    triangulation, and Prim picks the same vertex and source as over all
    pairs.  Duplicates join their first copy by zero-length edges.  A 3-d
    set that Qhull rejects or only partly triangulates, but that lies in a
    plane up to rounding (every point within 1e-12 of the set's extent of
    its least-squares plane), takes the Delaunay edges of its coordinates
    in an orthonormal basis of that plane: the argument above holds inside
    the plane, and the distances stay the 3-d ones.  When Qhull cannot
    triangulate a set whose lexicographic order is monotone in every
    coordinate, as in every exactly collinear set, the candidates are
    consecutive points of that order: for i < j < k, each coordinate of
    p_j - p_i is at most that of p_k - p_i in size, and smaller in one, so
    a shortest cut edge never skips a point.  Other dimensions, and other
    sets Qhull cannot triangulate (too few distinct points), take all pairs
    as candidates, each row cut with numpy to the points it brings closer.
    The squared extent of the set must be a normal float, as for the
    solvers' terminals, unless every point coincides.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise GeometryError(f"mst needs >= 2 points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("mst needs finite coordinates")
    _check_extent(pts)
    n = pts.shape[0]
    csr = _candidate_rows(pts)
    if csr is None:
        closest = np.full(n, np.inf)  # mirrors best below

        def row(v):
            closest[v] = -np.inf
            dist = np.linalg.norm(pts - pts[v], axis=1)
            w = np.flatnonzero(dist < closest)
            closest[w] = dist[w]
            return zip(closest[w].tolist(), w.tolist())

    else:
        nbr, dist, ptr = (a.tolist() for a in csr)

        def row(v):
            return zip(dist[ptr[v] : ptr[v + 1]], nbr[ptr[v] : ptr[v + 1]])

    best = [np.inf] * n
    src = [0] * n
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    edges: list[tuple[int, int]] = []
    total = 0.0
    v = 0
    for _ in range(n - 1):
        best[v] = -np.inf  # in the tree: never improved again
        for dw, w in row(v):
            if dw < best[w]:  # strict: keep earlier source
                best[w], src[w] = dw, v
                push(heap, (dw, w))
        while True:
            dv, v = pop(heap)
            if dv == best[v]:  # skip stale and in-tree entries
                break
        edges.append((src[v], v))
        total += dv
    return MstResult(edges=edges, length=total)


def _candidate_rows(pts: np.ndarray):
    """CSR candidates ``(nbr, dist, ptr)``, v's in ``[ptr[v], ptr[v + 1])``; None: all pairs."""
    n, d = pts.shape
    if d not in (2, 3):
        return None
    uniq, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    if len(uniq) <= d + 1:
        return None
    pairs = _delaunay_pairs(uniq)
    if pairs is None and d == 3:  # a plane's points, in an orthonormal basis of it
        centred = uniq - uniq.mean(axis=0)
        basis = np.linalg.svd(centred, full_matrices=False)[2]
        if np.abs(centred @ basis[2]).max() <= 1e-12 * np.linalg.norm(centred, axis=1).max():
            pairs = _delaunay_pairs(centred @ basis[:2].T)
    if pairs is None:
        step = np.diff(uniq, axis=0)  # np.unique sorts lexicographically
        if not np.all((step >= 0.0).all(axis=0) | (step <= 0.0).all(axis=0)):
            return None
        pairs = np.arange(len(uniq) - 1), np.arange(1, len(uniq))
    u, w = pairs
    rep = first[inverse.reshape(-1)]
    dup = np.flatnonzero(rep != np.arange(n))
    u = np.concatenate([first[u], rep[dup]])
    w = np.concatenate([first[w], dup])
    src, nbr = np.divmod(np.unique(np.concatenate([u * n + w, w * n + u])), n)
    dist = np.linalg.norm(pts[nbr] - pts[src], axis=1)
    return nbr, dist, np.searchsorted(src, np.arange(n + 1))


def _delaunay_pairs(pts: np.ndarray):
    """Edge ends (u, w) of a Delaunay triangulation, or None if Qhull fails or drops points."""
    try:
        tri = Delaunay(pts)
    except QhullError:
        return None
    if len(tri.coplanar):
        return None
    a, b = np.triu_indices(pts.shape[1] + 1, 1)
    return tri.simplices[:, a].ravel(), tri.simplices[:, b].ravel()


def steiner_ratio(points, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """solve_exact length over MST length, in (0, 1]."""
    mst_len = mst(points).length
    if mst_len == 0.0:
        raise GeometryError("steiner ratio is undefined: all terminals coincide")
    return solve_exact(points, tol=tol).tree.length / mst_len


def simplex_points(d: int) -> np.ndarray:
    """The d+1 vertices of a regular unit-edge simplex in R^d.

    Built one vertex at a time: each new vertex sits above the centroid of
    the previous face at the height that restores unit edges.
    """
    if d < 2:
        raise GeometryError(f"simplex needs dimension >= 2, got {d}")
    pts = np.zeros((d + 1, d))
    pts[1, 0] = 1.0
    for k in range(2, d + 1):
        centroid = pts[:k].mean(axis=0)
        # |centroid - vertex| is the circumradius sqrt((k-1)/(2k)) of the
        # regular (k-1)-simplex, so the new height closes all edges to 1.
        height = np.sqrt(1.0 - (k - 1) / (2.0 * k))
        pts[k] = centroid
        pts[k, k - 1] = height
    return pts


def sausage_points(d: int, n: int) -> np.ndarray:
    """n points of the d-sausage: regular simplices glued face to face.

    Starting from the unit regular simplex, each new point is the reflection
    of the oldest vertex of the current simplex through the centroid of its
    other d vertices (for a regular simplex that centroid is the foot of the
    altitude, so the point reflection equals the mirror image through the
    shared face).
    """
    if d not in (2, 3):
        raise GeometryError(f"sausage supports d in {{2, 3}}, got {d}")
    if n < d + 1:
        raise GeometryError(f"sausage needs at least d+1 = {d + 1} points, got {n}")
    pts = np.zeros((n, d))
    pts[: d + 1] = simplex_points(d)
    for i in range(d + 1, n):
        face = pts[i - d : i]
        oldest = pts[i - d - 1]
        pts[i] = 2.0 * face.mean(axis=0) - oldest
    return pts


def caterpillar_topology(n: int) -> Topology:
    """The path-like full topology following terminal order.

    Branch nodes form a path; the first and last take two consecutive
    terminals each and every interior one takes the next terminal.  For
    sausage-like elongated configurations this is the conjectured optimal
    family.
    """
    if n < 3:
        raise GeometryError(f"caterpillar needs >= 3 terminals, got {n}")
    if n == 3:
        return Topology(3, 1, ((0, 3), (1, 3), (2, 3)))
    m = n - 2
    edges = [(0, n), (1, n)]
    for i in range(m - 1):
        edges.append((n + i, n + i + 1))
    for i in range(1, m - 1):
        edges.append((i + 1, n + i))
    edges.append((n - 2, n + m - 1))
    edges.append((n - 1, n + m - 1))
    return Topology(n, m, tuple(sorted(edges)))


def caterpillar_ratio(points, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Restricted-topology Steiner ratio over the order-following caterpillar.

    An upper bound on the true ratio: only one topology is relaxed, so this
    scales far beyond full enumeration.  Callers should order the points the
    way the configuration is built (sausages already are).
    """
    pts = np.asarray(points, dtype=float)
    tree = relax_topology(pts, caterpillar_topology(pts.shape[0]), tol=tol)
    return tree.length / mst(pts).length
