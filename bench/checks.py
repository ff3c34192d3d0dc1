"""Output checks written against numpy and scipy only, never against minnet.

Every check returns ``None`` when the output is correct and otherwise the
short name of the first check that failed, so the harness can record which
property an op violated.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError, cKDTree

MIN_BRANCH_ANGLE = 2.0 * np.pi / 3.0
ANGLE_SLACK = 1e-5          # radians below 2*pi/3 still accepted at a branch
LENGTH_REL = 1e-9           # reported vs recomputed length
MST_REL = 1e-9              # a Steiner tree may not exceed the MST by more
DEGENERATE_REL = 1e-6       # edges shorter than this times the diameter are contracted
COVERAGE_EPS = 1e-6         # minnet's documented default coverage_eps
CONTINUUM_SAMPLES = 100_000  # boundary samples of the dense coverage check
DENSIFY_STEP = 0.05         # network densification step, as a fraction of r


# ---------------------------------------------------------------------------
# reference quantities


def diameter(points: np.ndarray) -> float:
    """Bounding-box diagonal: within sqrt(d) of the true diameter."""
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def mst_length(points) -> float:
    """Euclidean MST length from scipy.sparse.csgraph.

    Large sets use the Delaunay graph, which contains a Euclidean MST in any
    dimension; small or degenerate sets use the complete graph.  Coincident
    points are merged first (they add zero length, and csgraph reads a zero
    weight as a missing edge).
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n, d = pts.shape
    if n < 2:
        return 0.0
    if n > 64:
        try:
            simplices = Delaunay(pts).simplices
        except QhullError:
            simplices = None
        if simplices is not None:
            k = simplices.shape[1]
            iu = np.triu_indices(k, 1)
            pairs = np.sort(
                np.stack([simplices[:, iu[0]], simplices[:, iu[1]]], axis=-1).reshape(-1, 2),
                axis=1,
            )
            pairs = np.unique(pairs, axis=0)
            w = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
            graph = coo_matrix((w, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
            return float(minimum_spanning_tree(graph).sum())
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return float(minimum_spanning_tree(np.triu(dist)).sum())


def circle_boundary(R: float, n: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n) / n
    return R * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def stadium_boundary(R: float, L: float, n: int) -> np.ndarray:
    """Arc-length-uniform samples of the boundary of the R-neighbourhood of
    the segment [(-L/2, 0), (L/2, 0)]."""
    perimeter = 2.0 * np.pi * R + 2.0 * L
    s = perimeter * np.arange(n) / n
    cap = np.pi * R
    out = np.empty((n, 2))
    # Walk: right cap (-pi/2 .. pi/2), top side, left cap, bottom side.
    right = s < cap
    th = -np.pi / 2.0 + s[right] / R
    out[right] = np.stack([L / 2.0 + R * np.cos(th), R * np.sin(th)], axis=1)
    top = (s >= cap) & (s < cap + L)
    out[top] = np.stack([L / 2.0 - (s[top] - cap), np.full(top.sum(), R)], axis=1)
    left = (s >= cap + L) & (s < 2.0 * cap + L)
    th = np.pi / 2.0 + (s[left] - cap - L) / R
    out[left] = np.stack([-L / 2.0 + R * np.cos(th), R * np.sin(th)], axis=1)
    bottom = s >= 2.0 * cap + L
    out[bottom] = np.stack(
        [-L / 2.0 + (s[bottom] - 2.0 * cap - L), np.full(bottom.sum(), -R)], axis=1
    )
    return out


def polygon_boundary(vertices: np.ndarray, n: int) -> np.ndarray:
    closed = np.vstack([vertices, vertices[:1]])
    seg = np.diff(closed, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(seg, axis=1))])
    s = cum[-1] * np.arange(n) / n
    idx = np.searchsorted(cum, s, side="right") - 1
    frac = (s - cum[idx]) / (cum[idx + 1] - cum[idx])
    return closed[idx] + frac[:, None] * seg[idx]


def polygon_perimeter(vertices: np.ndarray) -> float:
    closed = np.vstack([vertices, vertices[:1]])
    return float(np.linalg.norm(np.diff(closed, axis=0), axis=1).sum())


# ---------------------------------------------------------------------------
# Steiner trees


def edge_lengths(coords: np.ndarray, edges: np.ndarray) -> np.ndarray:
    if len(edges) == 0:
        return np.zeros(0)
    return np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)


def _is_spanning_tree(n_vertices: int, edges: np.ndarray) -> bool:
    if len(edges) != n_vertices - 1:
        return False
    if n_vertices == 1:
        return True
    graph = coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n_vertices, n_vertices)
    )
    n_comp, _ = connected_components(graph, directed=False)
    return n_comp == 1


def _contract(coords: np.ndarray, edges: np.ndarray):
    """(short-edge mask, cluster count, cluster label per vertex) after
    contracting edges shorter than DEGENERATE_REL times the diameter."""
    n = len(coords)
    short = edge_lengths(coords, edges) <= DEGENERATE_REL * max(diameter(coords), 1e-300)
    graph = coo_matrix(
        (np.ones(int(short.sum())), (edges[short, 0], edges[short, 1])), shape=(n, n)
    )
    n_lab, label = connected_components(graph, directed=False)
    return short, n_lab, label


def min_branch_angle(coords: np.ndarray, edges: np.ndarray) -> float:
    """Smallest angle between two edges at a vertex, after contracting edges
    shorter than DEGENERATE_REL times the diameter (a collapsed Steiner point
    has no direction of its own)."""
    short, _, label = _contract(coords, edges)
    best = np.pi
    directions: dict[int, list[np.ndarray]] = {}
    for (u, v), is_short in zip(edges, short):
        if is_short:
            continue
        vec = coords[v] - coords[u]
        unit = vec / np.linalg.norm(vec)
        directions.setdefault(int(label[u]), []).append(unit)
        directions.setdefault(int(label[v]), []).append(-unit)
    for units in directions.values():
        if len(units) < 2:
            continue
        U = np.asarray(units)
        cos = np.clip(U @ U.T, -1.0, 1.0)
        iu = np.triu_indices(len(U), 1)
        best = min(best, float(np.arccos(cos[iu].max())))
    return best


def check_steiner(
    coords,
    edges,
    terminals,
    reported_length: float,
    mst_len: float,
    *,
    exact: bool = False,
    below_mst: bool = True,
) -> str | None:
    """Tree spanning every terminal, length consistent, no longer than the
    MST (unless ``below_mst`` is False, for a fixed topology), and for exact
    solutions every branch angle at least 2*pi/3 - ANGLE_SLACK."""
    coords = np.asarray(coords, dtype=float)
    terminals = np.asarray(terminals, dtype=float)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = len(terminals)
    if len(coords) < n or not np.array_equal(coords[:n], terminals):
        return "terminals"
    if edges.size and (edges.min() < 0 or edges.max() >= len(coords)):
        return "tree"
    if not _is_spanning_tree(len(coords), edges):
        return "tree"
    length = float(edge_lengths(coords, edges).sum())
    if not abs(reported_length - length) <= LENGTH_REL * max(length, 1e-300):
        return "length"
    if below_mst and length > mst_len * (1.0 + MST_REL):
        return "above_mst"
    if exact and min_branch_angle(coords, edges) < MIN_BRANCH_ANGLE - ANGLE_SLACK:
        return "angles"
    return None


# ---------------------------------------------------------------------------
# ball statistics


def _sphere_roots(p, q, center, radius):
    """Parameters s of |p + s (q - p) - center| = radius per segment (NaN if none)."""
    v = q - p
    w = p - center
    a = np.einsum("ij,ij->i", v, v)
    b = 2.0 * np.einsum("ij,ij->i", w, v)
    c = np.einsum("ij,ij->i", w, w) - radius * radius
    disc = b * b - 4.0 * a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        lo = (-b - sq) / (2.0 * a)
        hi = (-b + sq) / (2.0 * a)
    return a, lo, hi


def length_in_ball(coords, edges, center, radius) -> float:
    p, q = coords[edges[:, 0]], coords[edges[:, 1]]
    a, lo, hi = _sphere_roots(p, q, center, radius)
    lo = np.clip(np.nan_to_num(lo, nan=1.0), 0.0, 1.0)
    hi = np.clip(np.nan_to_num(hi, nan=0.0), 0.0, 1.0)
    return float((np.maximum(hi - lo, 0.0) * np.sqrt(a)).sum())


def crossing_bounds(coords, edges, center, radius) -> tuple[int, int]:
    """(clean crossings, every root near the segment) of the sphere.

    A clean crossing is a transversal root well inside its segment; any
    correct count (after merging a vertex that sits on the sphere, or a
    grazing double root) lies between the two numbers.
    """
    p, q = coords[edges[:, 0]], coords[edges[:, 1]]
    a, lo, hi = _sphere_roots(p, q, center, radius)
    roots = np.concatenate([lo, hi])
    gap = np.concatenate([hi - lo, hi - lo]) * np.sqrt(np.concatenate([a, a]))
    margin = 1e-6
    inside = (roots > margin) & (roots < 1.0 - margin) & (gap > 1e-6 * radius)
    near = (roots >= -margin) & (roots <= 1.0 + margin)
    return int(inside.sum()), int(near.sum())


def branching_bounds(coords, edges, center, radius) -> tuple[int, int]:
    """(certain, possible) branch points strictly inside the ball.

    Certain: clusters (edges below DEGENERATE_REL contracted) of degree >= 3
    well inside.  Possible: single vertices of degree >= 3 near or inside.
    """
    scale = max(diameter(coords), 1e-300)
    deg = np.bincount(edges.ravel(), minlength=len(coords))
    dist = np.linalg.norm(coords - center, axis=1)
    hi = int(((deg >= 3) & (dist < radius + 1e-6 * scale)).sum())
    short, n_lab, label = _contract(coords, edges)
    long_edges = edges[~short]
    cdeg = np.bincount(label[long_edges].ravel(), minlength=n_lab)
    far = np.full(n_lab, -np.inf)
    np.maximum.at(far, label, dist)
    lo = int(((cdeg >= 3) & (far < radius - 1e-6 * scale)).sum())
    return lo, hi


# ---------------------------------------------------------------------------
# coverage


def _densify(vertices: np.ndarray, edges: np.ndarray, step: float):
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    k = np.maximum(1, np.ceil(np.linalg.norm(b - a, axis=1) / step).astype(int))
    seg_id = np.repeat(np.arange(len(edges)), k + 1)
    offs = np.concatenate([np.arange(m + 1) / m for m in k])
    pts = a[seg_id] + offs[:, None] * (b - a)[seg_id]
    return pts, seg_id


def _segment_distances(points, a, b) -> np.ndarray:
    """Row-wise distance from points[i] to the segment [a[i], b[i]]."""
    v = b - a
    den = np.einsum("ij,ij->i", v, v)
    t = np.einsum("ij,ij->i", points - a, v) / np.where(den == 0.0, 1.0, den)
    return np.linalg.norm(points - (a + np.clip(t, 0.0, 1.0)[:, None] * v), axis=1)


def network_distances(samples, vertices, edges, r: float, tol: float = 0.0) -> np.ndarray:
    """Distance from each sample to a straight-edge network, exact wherever
    it exceeds r + tol and otherwise an upper bound no larger than r + tol.

    No sample-by-edge matrix is built.  The network is densified at spacing
    DENSIFY_STEP * r into a cKDTree; the edges of each sample's nearest
    densified points give an upper bound, and only samples whose bound
    exceeds r + tol are measured against every edge, in small chunks.
    """
    samples = np.asarray(samples, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return cKDTree(vertices).query(samples)[0]
    pts, seg_id = _densify(vertices, edges, DENSIFY_STEP * r)
    k = min(4, len(pts))
    _, near = cKDTree(pts).query(samples, k=k)
    near = near.reshape(len(samples), k)
    best = np.full(len(samples), np.inf)
    for j in range(k):
        e = edges[seg_id[near[:, j]]]
        best = np.minimum(best, _segment_distances(samples, vertices[e[:, 0]], vertices[e[:, 1]]))
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    open_idx = np.flatnonzero(best > r + tol)
    chunk = max(1, 2_000_000 // len(edges))
    for lo in range(0, len(open_idx), chunk):
        idx = open_idx[lo : lo + chunk]
        p = np.repeat(samples[idx], len(edges), axis=0)
        d = _segment_distances(p, np.tile(a, (len(idx), 1)), np.tile(b, (len(idx), 1)))
        best[idx] = d.reshape(len(idx), len(edges)).min(axis=1)
    return best


def coverage_defect(samples, vertices, edges, r: float, tol: float = 0.0) -> float:
    """Largest distance from a sample to the network, minus r (exact when
    above tol, otherwise an upper bound no larger than tol)."""
    return float(network_distances(samples, vertices, edges, r, tol).max() - r)


def check_coverage(
    samples, vertices, edges, r: float, reported_length: float, scale: float
) -> str | None:
    """Network length consistent and every sample within r + coverage_eps*scale.

    For a continuum, ``samples`` are CONTINUUM_SAMPLES arc-length-uniform
    points at spacing h; the distance to the network is 1-Lipschitz along
    the boundary, so the true defect exceeds the sampled one by at most h/2
    (1.9e-4 r on the circle of radius 6).  A reported hole is always real.
    """
    vertices = np.asarray(vertices, dtype=float)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    length = float(edge_lengths(vertices, edges).sum())
    if not abs(reported_length - length) <= LENGTH_REL * max(length, 1e-300):
        return "length"
    tol = COVERAGE_EPS * scale
    if coverage_defect(samples, vertices, edges, r, tol) > tol:
        return "dense_coverage"
    return None
