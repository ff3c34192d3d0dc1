"""Maximal-distance minimizers: shortest networks whose r-neighborhood covers
a given compact set M.

Three solver flavors live here.  ``horseshoe_circle``/``horseshoe_stadium``
build the shortest member of the one-parameter parallel-curve-with-gap
family, whose gap has a closed form.  ``solve_mdm_finite`` handles finite
M: a Steiner tree whose terminals are the r-balls around the given points,
relaxed over every full topology by the exact Steiner solver's pipeline
(``steiner._relax_batch``) with each leaf free in its ball.
``solve_mdm_numeric`` is a penalty method over a sampled M with topology
surgery between epochs; it is the hammer for sets with no usable structure.

Distances from M to a candidate network are always exact point-to-segment
computations; arcs become polylines only at output time, with chord error
small enough (< 1e-7 of the radius) to be invisible at the coverage
tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import depth_first_order
from scipy.spatial import cKDTree

from .geometry import (
    DEFAULT_TOL,
    ToleranceConfig,
    _closest_points,
    _norm,
    angle_at,
    fermat_point,
)
from .steiner import _contract, _full_colours, _labels, _relax_batch, _vertex_angles, instance_scale
from .topology import _full_topology_arrays

__all__ = [
    "MdmError",
    "CompactSetDescriptor",
    "MdmNetwork",
    "CoverageReport",
    "EnergeticSet",
    "MdmReport",
    "NumericConfig",
    "NumericResult",
    "sample_compact",
    "coverage_check",
    "horseshoe_circle",
    "horseshoe_stadium",
    "stadium_competitor",
    "solve_mdm_finite",
    "solve_mdm_numeric",
    "energetic_points",
    "verify_mdm",
    "resample_path_network",
]

# Polyline discretization step for arcs, in radians.  Chord sagitta is
# radius * step^2 / 8 ~ 8e-8 * radius, comfortably below coverage tolerances,
# and the relative length deficit step^2/24 is ~3e-8.
_ARC_STEP = 8e-4

# Half-width of the energetic detection band as a fraction of r; |xy| = r is
# measure-zero so a band is required numerically.
_ENERGETIC_BAND = 1e-3

# Samples per block of the closest-point search.  A sample has a few dozen
# candidate pairs, so a block's arrays stay at a few hundred thousand pairs
# however many samples there are.
_CLOSEST_BLOCK = 4096

# The penalty weight starts at _MU0 / diameter and grows by _MU_GROWTH per
# epoch, in the numeric solver and in the stadium competitor alike.  Each
# numeric epoch is one _lbfgs run of at most _ITERS_PER_EPOCH steps that
# keeps the last _LBFGS_MEMORY step pairs; the competitor runs
# _COMPETITOR_EPOCHS epochs, each one L-BFGS-B run stopped by the
# _COMPETITOR_* tests below.
_MU0 = 10.0
_MU_GROWTH = 4.0
_ITERS_PER_EPOCH = 150
_LBFGS_MEMORY = 10
_COMPETITOR_EPOCHS = 12
_COMPETITOR_OPTIONS = {"maxiter": 150, "ftol": 1e-15, "gtol": 1e-12}

# The competitor starts from its motif and from _COMPETITOR_EXTRA_STARTS
# copies jittered by _COMPETITOR_JITTER * r * N(0, 1), seed 0: from the
# motif alone L-BFGS-B can settle in a slightly longer local minimum.
_COMPETITOR_EXTRA_STARTS = 2
_COMPETITOR_JITTER = 0.02


class MdmError(ValueError):
    """Invalid descriptor, infeasible parameters, or failed feasibility."""


# ---------------------------------------------------------------------------
# Descriptors and basic types


@dataclass(frozen=True)
class CompactSetDescriptor:
    """A compact set M: a circle, a stadium curve, a polygon boundary, or an
    explicit point list (``points`` for finite M, ``samples`` for a
    pre-sampled continuum)."""

    kind: str
    radius: float = 0.0
    seg_len: float = 0.0
    pts: np.ndarray | None = None

    @staticmethod
    def circle(radius: float) -> "CompactSetDescriptor":
        if radius <= 0:
            raise MdmError(f"circle radius must be positive, got {radius}")
        return CompactSetDescriptor("circle", radius=float(radius))

    @staticmethod
    def stadium(radius: float, seg_len: float) -> "CompactSetDescriptor":
        if radius <= 0 or seg_len < 0:
            raise MdmError(f"stadium needs R > 0, seg_len >= 0, got {radius}, {seg_len}")
        return CompactSetDescriptor("stadium", radius=float(radius), seg_len=float(seg_len))

    @staticmethod
    def polygon(vertices) -> "CompactSetDescriptor":
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise MdmError(f"polygon needs >= 3 planar vertices, got shape {v.shape}")
        return CompactSetDescriptor("polygon", pts=v)

    @staticmethod
    def points(pts) -> "CompactSetDescriptor":
        p = np.asarray(pts, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1:
            raise MdmError(f"points descriptor needs >= 1 point, got shape {p.shape}")
        return CompactSetDescriptor("points", pts=p)

    @staticmethod
    def samples(pts) -> "CompactSetDescriptor":
        p = np.asarray(pts, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1:
            raise MdmError(f"samples descriptor needs >= 1 point, got shape {p.shape}")
        return CompactSetDescriptor("samples", pts=p)

    def diameter(self) -> float:
        if self.kind == "circle":
            return 2.0 * self.radius
        if self.kind == "stadium":
            return 2.0 * self.radius + self.seg_len
        return instance_scale(self.pts)


@dataclass
class MdmNetwork:
    """Straight-segment network: vertex coordinates plus index-pair edges.

    ``edges`` may be any (E, 2) integral pairs.  They are validated once into
    the read-only (E, 2) int64 ``edge_array`` that the solvers and reports
    read; ``edges`` then holds the same pairs as Python int tuples."""

    vertices: np.ndarray
    edges: list[tuple[int, int]]
    length: float | None = None
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        raw = np.asarray(self.edges)
        if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
            raise MdmError(f"edges must be index pairs, got shape {raw.shape}")
        raw = raw.reshape(-1, 2)  # an empty list comes in as float
        e = raw.astype(np.int64)
        n = len(self.vertices)
        for bad, why in (
            ((e != raw).any(axis=1), "has a non-integral index"),  # the cast truncates
            (((e < 0) | (e >= n)).any(axis=1), f"out of range for {n} vertices"),
        ):
            if bad.any():
                u, v = raw[np.argmax(bad)].tolist()
                raise MdmError(f"edge ({u}, {v}) {why}")
        e.setflags(write=False)
        self.edge_array = e
        self.edges = list(map(tuple, e.tolist()))
        if self.length is None:
            # A running total in edge order, rounded as a Python sum would.
            lens = _norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]]) if len(e) else [0.0]
            self.length = float(np.cumsum(lens)[-1])

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices[self.edge_array[:, 0]], self.vertices[self.edge_array[:, 1]]


@dataclass
class CoverageReport:
    max_defect: float
    worst_point: np.ndarray
    covered: bool


@dataclass
class EnergeticSet:
    """Pairs (x on the network, witness y in M) with |xy| ~ r."""

    points: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class MdmReport:
    """What ``verify_mdm`` measures.  ``vertex_angles`` pairs each vertex of
    degree >= 2 after contraction, in vertex-id order, with the smallest
    angle between two of its neighbours."""

    has_cycle: bool
    n_components: int
    segment_count: int
    bound_ok: bool
    min_angle: float
    vertex_angles: list[tuple[int, float]]


# ---------------------------------------------------------------------------
# Sampling and coverage


def sample_compact(desc: CompactSetDescriptor, density: int) -> np.ndarray:
    """Deterministic arc-length-uniform boundary samples.

    ``density`` is the total sample count for the continuum kinds; point
    lists pass through unchanged.  Coverage users want density around
    40 * diameter / r so the inter-sample slack stays negligible.
    """
    density = int(density)
    if density < 1:
        raise MdmError(f"density must be >= 1, got {density}")
    if desc.kind in ("points", "samples"):
        return desc.pts.copy()
    if desc.kind == "circle":
        ang = 2.0 * np.pi * np.arange(density) / density
        return desc.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if desc.kind == "stadium":
        return _stadium_boundary(desc.radius, desc.seg_len, density)
    if desc.kind == "polygon":
        v = desc.pts
        closed = np.vstack([v, v[:1]])
        seg = np.diff(closed, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        s = cum[-1] * np.arange(density) / density
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
        frac = (s - cum[idx]) / np.where(seg_len[idx] == 0.0, 1.0, seg_len[idx])
        return closed[idx] + frac[:, None] * seg[idx]
    raise MdmError(f"unknown descriptor kind {desc.kind!r}")


def _stadium_boundary(R: float, L: float, density: int) -> np.ndarray:
    """Walk the stadium boundary CCW starting at (L/2 + R, 0)."""
    P = 2.0 * np.pi * R + 2.0 * L
    s = P * np.arange(density) / density
    b1 = np.pi * R / 2.0          # end of right cap, upper quarter
    b2 = b1 + L                   # end of top side
    b3 = b2 + np.pi * R           # end of left cap
    b4 = b3 + L                   # end of bottom side
    # piece: 0 right cap (upper), 1 top side, 2 left cap, 3 bottom side,
    # 4 right cap (lower).
    piece = np.searchsorted([b1, b2, b3, b4], s, side="right")
    th = np.select(
        [piece == 0, piece == 2],
        [s / R, np.pi / 2.0 + (s - b2) / R],
        3.0 * np.pi / 2.0 + (s - b4) / R,
    )
    cx = np.where(piece == 2, -L / 2.0, L / 2.0)
    x = np.select(
        [piece == 1, piece == 3],
        [L / 2.0 - (s - b1), -L / 2.0 + (s - b3)],
        cx + R * np.cos(th),
    )
    y = np.select([piece == 1, piece == 3], [np.full(density, R), np.full(density, -R)], R * np.sin(th))
    return np.stack([x, y], axis=1)


def coverage_check(
    net: MdmNetwork, m_samples, r: float, tol: ToleranceConfig = DEFAULT_TOL
) -> CoverageReport:
    """Signed worst coverage defect of M-samples against the network.

    ``covered`` compares the defect against coverage_eps at the scale of M
    (bounding diameter, floored at r so single-point sets behave).
    """
    samples = np.asarray(m_samples, dtype=float)
    return _coverage_report(net, samples, _closest_on_network(net, samples)[0], r, tol)


def _coverage_report(net: MdmNetwork, samples, d, r: float, tol: ToleranceConfig) -> CoverageReport:
    """``coverage_check`` given each sample's distance ``d`` to the network."""
    if r <= 0:
        raise MdmError(f"r must be positive, got {r}")
    if len(net.vertices) == 0:
        raise MdmError("coverage_check needs a nonempty network")
    worst = int(np.argmax(d))
    defect = float(d[worst] - r)
    scale = max(instance_scale(samples), r)
    return CoverageReport(
        max_defect=defect,
        worst_point=samples[worst].copy(),
        covered=bool(defect <= tol.coverage_eps * scale),
    )


# ---------------------------------------------------------------------------
# Horseshoes: parallel curve with a coverage-closing gap


def _gapped_parallel(rho: float, L: float, w: float):
    """Pieces of the parallel curve with a gap of arc-length half-width w
    centered on the right cap apex, the gap inside that cap (w <= pi rho / 2
    on a stadium).  Returns (arcs, segs, A, d): A is the upper gap endpoint
    and d the unit tangent pointing into the gap; the lower endpoint is the
    mirror image.
    """
    phi = w / rho
    cR = np.array([L / 2.0, 0.0])
    A = cR + rho * np.array([np.cos(phi), np.sin(phi)])
    d = np.array([np.sin(phi), -np.cos(phi)])
    if L == 0.0:
        return [(cR, rho, phi, 2.0 * np.pi - phi)], [], A, d
    cL = np.array([-L / 2.0, 0.0])
    arcs = [
        (cR, rho, phi, np.pi / 2.0),
        (cL, rho, np.pi / 2.0, 3.0 * np.pi / 2.0),
        (cR, rho, 3.0 * np.pi / 2.0, 2.0 * np.pi - phi),
    ]
    segs = [
        (np.array([L / 2.0, rho]), np.array([-L / 2.0, rho])),
        (np.array([-L / 2.0, -rho]), np.array([L / 2.0, -rho])),
    ]
    return arcs, segs, A, d


def _arc_points(c, rho, a0, a1) -> np.ndarray:
    steps = max(2, int(ceil(abs(a1 - a0) / _ARC_STEP)) + 1)
    ang = np.linspace(a0, a1, steps)
    return c + rho * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _chain_network(runs: list[np.ndarray]) -> MdmNetwork:
    """Concatenate point runs into one open polyline, merging shared joints.

    A point merges into the last kept point when it lies within 1e-12 of it
    (relative).  Compared with its predecessor, that is decided array-wide
    wherever the predecessor was kept; only points right after a merged one
    are decided again, in order.
    """
    P = np.concatenate([np.atleast_2d(run) for run in runs]).astype(float)
    tol = 1e-12 * (1.0 + _norm(P))
    keep = np.ones(len(P), dtype=bool)
    keep[1:] = _norm(P[1:] - P[:-1]) > tol[1:]
    i = 1
    while True:
        merged = np.flatnonzero(~keep[i - 1 : -1])
        if not merged.size:
            break
        i += int(merged[0])
        last = int(np.flatnonzero(keep[:i])[-1])
        keep[i] = _norm(P[i] - P[last]) > tol[i]
        i += 1
    n = int(keep.sum())
    return MdmNetwork(P[keep], np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def _horseshoe_family(R: float, r: float, L: float) -> tuple[MdmNetwork, float]:
    """Shortest member of the gapped-parallel-curve family, in closed form.

    A gap of half-width w in the parallel curve at distance rho = R - r
    leaves one boundary interval uncovered, symmetric about the apex
    (L/2 + R, 0), and two tangent segments close it.  The tangent from the
    upper gap endpoint A along d reaches a point P once its length is at
    least t_P - sqrt(reach^2 - h_P^2), where t_P = (P - A).d and h_P is the
    signed offset of P from the tangent line.  For P on the cap at angle u
    past A, seen from the cap centre, that is
    R sin u - sqrt(reach^2 - (R cos u - rho)^2), which grows with u because
    reach > r; so the apex, at u = w / rho, needs the most, and the lower
    tangent mirrors the upper one.  With h = R cos u - rho the family's
    length P - 2w + 2 (R sin u - sqrt(reach^2 - h^2)) has derivative
    (2h / rho) (1 - R sin u / sqrt(reach^2 - h^2)) in w, and the tangents
    are positive exactly where R sin u > sqrt(reach^2 - h^2).  So the length
    falls while h > 0 and rises after: the shortest member has h = 0, that
    is u* = arccos(rho / R) and w* = rho u*.  Each tangent points at the
    apex and stops reach short of it, with length R sin u* - reach.  As
    u* < pi / 2 the gap stays inside a stadium's cap; a wider gap only
    trades straight side for tangent.  The reach keeps the relative slack
    of 1e-9 that boundary points on the covered stretch need.  Only for
    R < r (1 + 1e-9) do the tangents vanish at u*; the member returned then
    exceeds the family's minimum by less than 1e-8 r.
    """
    if r <= 0 or R <= r:
        raise MdmError(f"horseshoe needs R > r > 0, got R={R}, r={r}")
    rho = R - r
    reach = r * (1.0 + 1e-9)
    u = float(np.arccos(rho / R))
    ell = max(R * np.sin(u) - reach, 0.0)
    arcs, segs, A, d = _gapped_parallel(rho, L, rho * u)
    runs = [_arc_points(*arcs[0])]
    for (_, end), arc in zip(segs, arcs[1:]):
        runs += [end[None], _arc_points(*arc)]
    if ell > 0.0:
        tip = A + ell * d
        runs = [tip[None], *runs, (tip * [1.0, -1.0])[None]]  # the lower tangent's end mirrors it
    net = _chain_network(runs)
    return net, net.length


def horseshoe_circle(R: float, r: float) -> tuple[MdmNetwork, float]:
    """Minimal member of the arc-plus-tangent-segments family covering the
    circle of radius R with r-balls."""
    return _horseshoe_family(float(R), float(r), 0.0)


def horseshoe_stadium(R: float, r: float, seg_len: float) -> tuple[MdmNetwork, float]:
    """Parallel-curve horseshoe for the stadium boundary (R-neighborhood of a
    segment of length seg_len); seg_len=0 degenerates to the circle case."""
    if seg_len < 0:
        raise MdmError(f"seg_len must be >= 0, got {seg_len}")
    return _horseshoe_family(float(R), float(r), float(seg_len))


# ---------------------------------------------------------------------------
# Stadium competitor: path + stem + two arms, optimized under coverage


def _competitor_vertices(theta: np.ndarray) -> np.ndarray:
    xa, ya, xp, yp, y_apex, ys, xt, yt = theta
    return np.array(
        [
            [-xa, ya],
            [-xp, yp],
            [0.0, y_apex],
            [xp, yp],
            [xa, ya],
            [0.0, ys],
            [-xt, yt],
            [xt, yt],
        ]
    )


_COMPETITOR_EDGES = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (5, 7)])
# The vertices are linear in theta: V.ravel() == _COMPETITOR_BASIS @ theta.
_COMPETITOR_BASIS = np.stack([_competitor_vertices(e).ravel() for e in np.eye(8)], axis=1)


def _competitor_penalty(theta, samples, r, mu) -> tuple[float, np.ndarray]:
    """Penalty objective of the competitor at theta and its theta-gradient,
    both from one nearest-edge table."""
    V = _competitor_vertices(theta)
    f, table = _penalty_objective(V, _COMPETITOR_EDGES, samples, r, mu)
    g = _penalty_gradient(V, _COMPETITOR_EDGES, table, r, mu)
    return f, _COMPETITOR_BASIS.T @ g.ravel()


def _competitor_inits(R: float, r: float, L: float) -> list[np.ndarray]:
    """The motif start, then its seeded jittered copies."""
    rho = R - r
    if R < 2.0 * r:
        # Dipped-T motif: the path runs at height rho (touching the top
        # straight at distance r) and its ends bend below the axis so their
        # balls pick up the lower cap flanks; the stem drops through the
        # middle and the lower fork stays short, covering the bottom straight
        # around the axis.  Empirically the best basin for tight radii.
        motif = np.array(
            [
                L / 2.0 + rho,
                -(rho + 0.2 * r),
                L / 2.0 + rho,
                rho,
                rho,
                -(R - 0.5 * r),
                0.05 * r,
                -(R - 0.5 * r) - 0.02 * r,
            ]
        )
    else:
        # Wrap-with-gap motif for wide annuli: the path hugs an inflated
        # parallel curve from one shoulder of the top gap, around the
        # bottom, to the other shoulder (corner radii chosen so each chord
        # stays within r of the boundary); the stem rises through the
        # interior and the arms run just under the top straight to close
        # the gap.
        v = rho / np.cos(np.deg2rad(45.0))
        phi_a, phi_p = np.deg2rad(65.0), np.deg2rad(-25.0)
        xa = L / 2.0 + v * np.cos(phi_a)
        ya = v * np.sin(phi_a)
        xp = L / 2.0 + v * np.cos(phi_p)
        yp = v * np.sin(phi_p)
        motif = np.array([xa, ya, xp, yp, -v, rho, L / 2.0 + 0.31 * R, rho + 0.25 * r])
    rng = np.random.default_rng(0)
    jitter = _COMPETITOR_JITTER * r * rng.normal(size=(_COMPETITOR_EXTRA_STARTS, len(motif)))
    return [motif, *(motif + jitter)]


def stadium_competitor(
    R: float, r: float, seg_len: float, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[MdmNetwork, float]:
    """Best feasible network with the path/stem/arms topology.

    Eight mirror-symmetric degrees of freedom.  Each penalty epoch is one
    L-BFGS-B run on the penalized length with its exact gradient, then the
    penalty weight grows; the shortest epoch result that covers is kept,
    over the motif start and its jittered copies.  The penalty radius is
    shrunk by half the boundary sample spacing (plus the chord-to-arc
    bulge), which makes coverage of the sample set imply coverage of the
    whole boundary -- otherwise the descent happily digs holes that thread
    exactly between samples.  Raises MdmError if feasibility is never
    reached.
    """
    R, r, L = float(R), float(r), float(seg_len)
    if r <= 0 or R <= r or L < 0:
        raise MdmError(f"competitor needs R > r > 0, seg_len >= 0, got {R}, {r}, {L}")
    desc = CompactSetDescriptor.stadium(R, L) if L > 0 else CompactSetDescriptor.circle(R)
    diam = desc.diameter()
    n_pen = int(ceil(400.0 * diam / r))
    samples = sample_compact(desc, n_pen)
    loop = np.vstack([samples, samples[:1]])
    spacing = float(np.linalg.norm(np.diff(loop, axis=0), axis=1).max())
    # Any boundary point lies within spacing/2 of a sample along the curve,
    # and the arc bulges at most spacing^2/(8R) off the chord between two
    # samples, so holding the samples at r_eff holds the continuum at r.
    slack = 0.5 * spacing + spacing * spacing / (8.0 * R) + 1e-7 * diam
    r_eff = r - slack
    gate = sample_compact(desc, 3 * n_pen + 17)

    from scipy.optimize import minimize

    best_feasible: tuple[float, np.ndarray] | None = None
    for theta in _competitor_inits(R, r, L):
        mu = _MU0 / diam
        for _ in range(_COMPETITOR_EPOCHS):
            theta = minimize(
                _competitor_penalty, theta, args=(samples, r_eff, mu),
                method="L-BFGS-B", jac=True, options=_COMPETITOR_OPTIONS,
            ).x
            V = _competitor_vertices(theta)
            net = MdmNetwork(V, _COMPETITOR_EDGES)
            # Only the shrunken radius held at every penalty sample certifies
            # the continuum; the gate check alone can miss narrow holes.
            d_pen = _nearest_edges(V, _COMPETITOR_EDGES, samples)[0]
            if float(d_pen.max()) <= r_eff + 1e-7 * diam:
                rep = coverage_check(net, gate, r, tol)
                if rep.covered and (
                    best_feasible is None or net.length < best_feasible[0]
                ):
                    best_feasible = (net.length, theta.copy())
            mu *= _MU_GROWTH
    if best_feasible is None:
        raise MdmError(
            f"stadium competitor failed to reach coverage for R={R}, r={r}, seg_len={L}"
        )
    net = MdmNetwork(_competitor_vertices(best_feasible[1]), _COMPETITOR_EDGES)
    return net, net.length


# ---------------------------------------------------------------------------
# Finite M: attachment points on spheres, full-topology enumeration


def _miniball(P: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact smallest enclosing ball of a small point set (brute force over
    boundary-support subsets, fine for the solver's tiny cluster sizes)."""
    P = np.asarray(P, dtype=float)
    m, d = P.shape
    if m == 1:
        return P[0].copy(), 0.0
    scale = max(instance_scale(P), 1e-300)
    best: tuple[float, np.ndarray] | None = None
    for k in range(2, min(m, d + 1) + 1):
        for idx in combinations(range(m), k):
            S = P[list(idx)]
            # Circumcenter within the affine hull of S.
            A = 2.0 * (S[1:] - S[0])
            b = np.einsum("ij,ij->i", S[1:], S[1:]) - np.dot(S[0], S[0])
            c, *_ = np.linalg.lstsq(A, b, rcond=None)
            rad = np.linalg.norm(P - c, axis=1).max()
            if best is None or rad < best[0] - 1e-15 * scale:
                if np.linalg.norm(S[0] - c) >= rad - 1e-9 * scale:
                    best = (rad, c)
    assert best is not None
    return best[1], float(best[0])


def _merge_terminals(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster points whose r-balls share a common point into fat terminals.

    Returns centers and slack radii: touching the ball of slack radius around
    a center is sufficient to cover every clustered point.  Overlapping balls
    with no common point stay unmerged — still sound, possibly suboptimal.
    """
    i, j = np.triu_indices(len(pts), 1)
    lab = _labels(len(pts), np.column_stack([i, j])[np.linalg.norm(pts[i] - pts[j], axis=1) <= 2.0 * r])
    centers, radii = [], []
    for members in (np.flatnonzero(lab == root) for root in np.unique(lab)):
        cluster = pts[members]
        c, rad = _miniball(cluster)
        if rad <= r:
            centers.append(c)
            radii.append(r - rad)
        else:
            for i in members:
                centers.append(pts[i])
                radii.append(r)
    return np.array(centers), np.array(radii)


def solve_mdm_finite(
    points, r: float, tol: ToleranceConfig = DEFAULT_TOL
) -> MdmNetwork:
    """Shortest network touching the r-ball of every given point.

    Enumerates full topologies over the effective terminals (ball clusters
    with a common point collapse to one fat terminal) and relaxes them as
    one batch through the exact solver's pipeline, :func:`steiner._relax_batch`,
    each terminal a ball: sweeps, the duality-gap bound, and the Newton
    finisher on the leaf-eliminated length until no uncertified topology can
    beat the shortest.  ``tol`` sets that certificate: ``eps_len`` times the
    centres' diameter, and ``eps_tie`` for pruning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise MdmError(f"need at least one point, got shape {pts.shape}")
    if r <= 0:
        raise MdmError(f"r must be positive, got {r}")
    centers, radii = _merge_terminals(pts, float(r))
    k = len(centers)
    if k == 1:
        return MdmNetwork(centers[:1].copy(), [])
    if k == 2:
        c1, c2 = centers
        gap = np.linalg.norm(c2 - c1)
        if gap <= radii[0] + radii[1]:
            p = c1 + (c2 - c1) * (radii[0] / max(radii[0] + radii[1], 1e-300))
            return MdmNetwork(np.array([p]), [])
        u = (c2 - c1) / gap
        return MdmNetwork(np.array([c1 + radii[0] * u, c2 - radii[1] * u]), [(0, 1)])

    nb, edg = _full_topology_arrays(k)
    X, lengths, *_ = _relax_batch(centers, nb, edg, tol, radii=radii, colour=_full_colours(k))
    best = int(np.argmin(lengths))
    return MdmNetwork(X[best].copy(), edg[best])


# ---------------------------------------------------------------------------
# Numeric solver: penalty descent + topology surgery


@dataclass
class NumericConfig:
    max_epochs: int = 12
    density: int | None = None


@dataclass
class NumericResult:
    network: MdmNetwork
    covered: bool
    max_defect: float
    epochs: int
    objective_trace: list[float] = field(default_factory=list)
    epoch_marks: list[int] = field(default_factory=list)


def _default_density(desc: CompactSetDescriptor, r: float) -> int:
    """Boundary sample count the numeric solver uses when none is given:
    40 samples per r of diameter, and 8 for a set of zero diameter."""
    return int(ceil(40.0 * desc.diameter() / r)) or 8


def _nearest_edges(V, ends, samples):
    """Each sample's nearest edge, from one dense (sample, edge) table.

    Returns the distance, the first nearest edge, that edge's clipped
    parameter ``t`` and the offset from its closest point to the sample.
    The penalty objective, its gradient and topology surgery all read this
    one table.
    """
    t, closest = _closest_points(samples[:, None], V[ends[:, 0]][None], V[ends[:, 1]][None])
    dvec = samples[:, None, :] - closest
    dist = np.linalg.norm(dvec, axis=2)
    j = np.argmin(dist, axis=1)
    s_idx = np.arange(len(samples))
    return dist[s_idx, j], j, t[s_idx, j], dvec[s_idx, j]


def _penalty_objective(V, ends, samples, r, mu):
    """Length + mu * sum(max(0, dist - r)^2), and the nearest-edge table."""
    table = _nearest_edges(V, ends, samples)
    length = float(np.linalg.norm(V[ends[:, 0]] - V[ends[:, 1]], axis=1).sum())
    viol = np.maximum(table[0] - r, 0.0)
    return length + mu * float((viol * viol).sum()), table


def _penalty_gradient(V, ends, table, r, mu):
    """Gradient of the penalty objective at V, whose nearest-edge table is given."""
    g = np.zeros_like(V)
    e0, e1 = ends[:, 0], ends[:, 1]
    seg = V[e0] - V[e1]
    lens = np.linalg.norm(seg, axis=1)
    u = seg / np.where(lens == 0.0, 1.0, lens)[:, None]
    np.add.at(g, e0, u)
    np.add.at(g, e1, -u)
    dj, j, t, dvec = table
    active = dj > r
    if np.any(active):
        j_act = j[active]
        w = dvec[active] / dj[active][:, None]
        coef = 2.0 * mu * (dj[active] - r)
        tj = t[active]
        np.add.at(g, e0[j_act], -coef[:, None] * (1.0 - tj)[:, None] * w)
        np.add.at(g, e1[j_act], -coef[:, None] * tj[:, None] * w)
    return g


def _lbfgs(fun, grad, x, max_iters):
    """Minimize from ``x`` by two-loop L-BFGS (Liu & Nocedal, Math.
    Programming 45 (1989) 503-528) with Armijo backtracking.

    ``fun(x)`` returns the value and a table that ``grad(x, table)`` reads.
    A step halves up to 40 times from the unit quasi-Newton step; when no
    halving passes, or that direction does not descend, the memory is
    dropped and the search repeats from the unit steepest step.  The run
    stops after ``max_iters`` steps, at a gradient norm <= 1e-12, when no
    steepest halving passes, or when a step would not strictly lower the
    value.  Returns the last iterate, its table and the values at the start
    and after each step.
    """
    f, table = fun(x)
    g, values = grad(x, table), [f]
    pairs = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    while len(values) <= max_iters and np.linalg.norm(g) > 1e-12:
        q, alphas = g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * np.vdot(s, q))
            q = q - alphas[-1] * y
        if pairs:  # the initial inverse Hessian is (s.y / y.y) I, newest pair
            s, y, rho = pairs[-1]
            q = q / (rho * np.vdot(y, y))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q = q + (a - rho * np.vdot(y, q)) * s
        slope, t = -float(np.vdot(g, q)), 1.0
        for _ in range(40 if slope < 0.0 else 0):
            trial = x - t * q
            f_new, trial_table = fun(trial)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            if not pairs:
                break
            pairs.clear()
            continue
        if not f_new < f:
            break
        g_new = grad(trial, trial_table)
        s, y = trial - x, g_new - g
        sy = float(np.vdot(s, y))
        # A pair without positive curvature would spoil the inverse Hessian.
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        else:
            pairs.clear()
        x, f, table, g = trial, f_new, trial_table, g_new
        values.append(f)
    return x, table, values


def _topology_surgery(V, E, samples, r, tol, scale, table):
    """Between-epoch moves: split edges near violated samples, merge nearly
    coincident vertices, break sharp degree-2 corners with a Fermat vertex.
    ``E`` is the (E, 2) edge array and ``table`` the nearest-edge table of
    (V, E); returns the new vertices and edge array."""
    V = V.copy()
    E = E.copy()
    dmin, nearest = table[0], table[1]
    split_done: set[int] = set()
    order = np.argsort(-dmin)
    for s in order:
        if dmin[s] <= r:
            break
        ei = int(nearest[s])
        if ei in split_done:
            continue
        u, v = E[ei].tolist()
        seg = V[v] - V[u]
        den = float(seg @ seg)
        if den == 0.0:
            continue
        t = float(np.clip((samples[s] - V[u]) @ seg / den, 0.0, 1.0))
        if not 0.02 < t < 0.98:
            continue
        w = V[u] + t * seg
        V = np.vstack([V, w])
        E[ei, 1] = len(V) - 1
        E = np.vstack([E, (len(V) - 1, v)])
        split_done.add(ei)

    # Merge vertices that collapsed onto each other, then drop parallel edges.
    thresh = tol.eps_len * scale
    V, pairs = _contract(V, E, thresh)
    E = list(dict.fromkeys((min(u, v), max(u, v)) for u, v in pairs.tolist()))

    # Fermat-split sharp corners at degree-2 vertices.  Each vertex lists its
    # neighbours in edge order; a split drops the corner's two edges and
    # appends three to the new vertex, so each list keeps that order.
    nbrs = [[] for _ in range(len(V))]
    for u, v in E:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for vtx in range(len(V)):
        if len(nbrs[vtx]) != 2:
            continue
        n1, n2 = nbrs[vtx]
        if np.linalg.norm(V[n1] - V[vtx]) <= thresh or np.linalg.norm(V[n2] - V[vtx]) <= thresh:
            continue
        ang = angle_at(V[vtx], V[n1], V[n2])
        if ang >= 2.0 * np.pi / 3.0 - tol.eps_angle:
            continue
        f = fermat_point(V[n1], V[vtx], V[n2])
        if np.linalg.norm(f - V[vtx]) <= thresh:
            continue
        V = np.vstack([V, f])
        s = len(V) - 1
        E = [e for e in E if e not in ((vtx, n1), (n1, vtx), (vtx, n2), (n2, vtx))]
        E.extend([(n1, s), (n2, s), (vtx, s)])
        for w in (n1, n2):
            nbrs[w] = [x for x in nbrs[w] if x != vtx] + [s]
        nbrs[vtx] = [s]
        nbrs.append([n1, n2, vtx])
    return V, np.array(E, dtype=np.int64).reshape(-1, 2)


def solve_mdm_numeric(
    desc: CompactSetDescriptor,
    r: float,
    init: MdmNetwork,
    config: NumericConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> NumericResult:
    """Penalty-method local solver over a sampled compact set.

    Minimizes length + mu * sum(max(0, dist - r)^2), escalating mu each
    epoch and applying topology surgery in between.  An epoch is one
    ``_lbfgs`` run, which ends at its step cap or as soon as a step no
    longer strictly lowers the objective, so the objective decreases
    within an epoch.  Each iterate's dense sample-to-edge table is built
    once, by the objective: the accepted trial's table feeds the next
    gradient and, at the end of an epoch, the surgery.  If coverage is
    still not met after the last epoch the best iterate is returned with
    ``covered=False`` rather than raising.
    """
    if r <= 0:
        raise MdmError(f"r must be positive, got {r}")
    cfg = config or NumericConfig()
    diam = max(desc.diameter(), 2.0 * r)
    samples = sample_compact(desc, cfg.density or _default_density(desc, r))
    scale = max(instance_scale(samples), r)
    mu = _MU0 / diam
    V = init.vertices.copy()
    E = init.edge_array
    trace: list[float] = []
    marks: list[int] = []
    # A network with no edges gives the penalty nothing to move.
    for _ in range(cfg.max_epochs if len(E) else 0):
        V, table, values = _lbfgs(
            lambda X: _penalty_objective(X, E, samples, r, mu),
            lambda X, tab: _penalty_gradient(X, E, tab, r, mu),
            V,
            _ITERS_PER_EPOCH,
        )
        trace.extend(values)
        marks.append(len(trace))
        if coverage_check(MdmNetwork(V, E), samples, r, tol).covered:
            break
        V, E = _topology_surgery(V, E, samples, r, tol, scale, table)
        mu *= _MU_GROWTH
    net = MdmNetwork(V.copy(), E)
    rep = coverage_check(net, samples, r, tol)
    return NumericResult(
        network=net,
        covered=rep.covered,
        max_defect=rep.max_defect,
        epochs=len(marks),
        objective_trace=trace,
        epoch_marks=marks,
    )


# ---------------------------------------------------------------------------
# Energetic points and verification


def _closest_on_network(net: MdmNetwork, samples: np.ndarray):
    """Distances and closest network points for each sample.

    Equal, bit for bit, to the dense search over every (sample, edge) pair
    that keeps the first minimal edge and then takes the nearest vertex where
    it is strictly closer.  Candidates per sample are the long edges (longer
    than four median edges, at most the 32 longest) and every other edge
    incident to one of its K nearest vertices.  Certificate: a segment whose
    endpoints both lie at least D from y lies at least sqrt(D^2 - l^2/4)
    from y, for l its length.  So with d_K the distance to the K-th nearest
    vertex and l_max the longest short edge, no edge or vertex left out can
    come within sqrt(d_K^2 - l_max^2/4) of y; a sample whose best candidate
    is below that bound (less a rounding margin) has its answer.  K starts
    at 8; the rest are searched again with 4K neighbours, and at K = vertex
    count every edge is a candidate.
    """
    samples = np.asarray(samples, dtype=float)
    V = net.vertices
    S, n = len(samples), len(V)
    best_d = np.full(S, np.inf)
    best_p = np.zeros((S, V.shape[1]))
    if S == 0 or n == 0:
        return best_d, best_p
    ends = net.edge_array
    a, b = V[ends[:, 0]], V[ends[:, 1]]
    lens = np.linalg.norm(b - a, axis=1)
    cut = 4.0 * float(np.median(lens)) if len(lens) else 0.0
    if len(lens) > 32:
        cut = max(cut, float(np.sort(lens)[-33]))
    long_ids = np.flatnonzero(lens > cut)
    short = np.flatnonzero(lens <= cut)
    half = 0.5 * float(lens[short].max(initial=0.0))
    # Incident short edges of each vertex, CSR by vertex.
    inc_v = ends[short].ravel()
    order = np.argsort(inc_v, kind="stable")
    inc_e = np.repeat(short, 2)[order]
    inc_ptr = np.searchsorted(inc_v[order], np.arange(n + 1))
    deg = np.diff(inc_ptr)
    margin = 1e-12 * (np.abs(V).max() + np.abs(samples).max())
    tree = cKDTree(V)
    # Blocks of samples bound the candidate arrays; every step is per sample,
    # so the blocking changes no bit.
    for lo in range(0, S, _CLOSEST_BLOCK):
        todo = np.arange(lo, min(lo + _CLOSEST_BLOCK, S))
        k = 8
        while todo.size:
            kk = min(k, n)
            ys = samples[todo]
            dk, nn = tree.query(ys, k=kk)
            dk, nn = dk.reshape(len(todo), kk), nn.reshape(len(todo), kk)
            # Candidate (sample, edge) pairs: incident short edges, then long ones.
            cnt = deg[nn].ravel()
            rows = np.repeat(np.repeat(np.arange(len(todo)), kk), cnt)
            first = np.repeat(inc_ptr[nn].ravel() - np.cumsum(cnt) + cnt, cnt)
            cols = inc_e[first + np.arange(len(rows))]
            rows = np.concatenate([rows, np.repeat(np.arange(len(todo)), len(long_ids))])
            cols = np.concatenate([cols, np.tile(long_ids, len(todo))])
            d_e = np.full(len(todo), np.inf)
            p_e = np.zeros_like(ys)
            if rows.size:
                # Rows grouped, edges ascending within a row.
                order = np.argsort(rows * len(lens) + cols)
                rows, cols = rows[order], cols[order]
                y = ys[rows]
                _, cp = _closest_points(y, a[cols], b[cols])
                dist = np.linalg.norm(y - cp, axis=1)
                # The first minimal edge of each row.
                start = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
                count = np.diff(np.r_[start, len(rows)])
                pick = np.flatnonzero(dist == np.repeat(np.minimum.reduceat(dist, start), count))
                pick = pick[np.r_[True, rows[pick][1:] != rows[pick][:-1]]]
                d_e[rows[pick]] = dist[pick]
                p_e[rows[pick]] = cp[pick]
            # Nearest of the K vertices, the lowest index among exact ties.
            nn = np.sort(nn, axis=1)
            dv = np.linalg.norm(ys[:, None, :] - V[nn], axis=2)
            jv = dv.argmin(axis=1)
            dvm = dv[np.arange(len(todo)), jv]
            closer = dvm < d_e
            d_e[closer] = dvm[closer]
            p_e[closer] = V[nn[closer, jv[closer]]]
            bound = np.sqrt(np.maximum(dk[:, -1] ** 2 - half * half, 0.0)) - margin
            done = d_e <= (np.inf if kk == n else bound)
            best_d[todo[done]] = d_e[done]
            best_p[todo[done]] = p_e[done]
            todo = todo[~done]
            k = 4 * kk
    return best_d, best_p


def energetic_points(
    net: MdmNetwork,
    m_samples,
    r: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> EnergeticSet:
    """Network points realizing distance ~ r to some witness in M.

    A sample y is a witness when its distance to the network lies in
    [r - _ENERGETIC_BAND*r, r + coverage slack]; the nearest network point
    x is then energetic.  Nearby x's are deduplicated.
    """
    samples = np.asarray(m_samples, dtype=float)
    X, idx = _energetic(net, samples, *_closest_on_network(net, samples), r, tol)
    return EnergeticSet(points=list(zip(X, samples[idx])))


def _energetic(net: MdmNetwork, samples, d, p, r: float, tol: ToleranceConfig):
    """``energetic_points`` given each sample's distance ``d`` to the network
    and closest point ``p``: the kept points and their witnesses' indices."""
    scale = max(instance_scale(samples), r)
    lo = r - _ENERGETIC_BAND * r
    hi = r + tol.coverage_eps * scale
    keep = (d >= lo) & (d <= hi)
    dedupe = tol.eps_len * max(instance_scale(net.vertices), r)
    idx = np.flatnonzero(keep)
    X = p[idx]
    kept = np.ones(len(idx), dtype=bool)
    # Greedy in sample order: a point goes when an earlier kept one lies
    # within the dedupe radius.  Only points with an earlier neighbour need
    # the sequential pass.
    i, j = cKDTree(X).query_pairs(dedupe * (1.0 + 1e-9), output_type="ndarray").T
    near = _norm(X[j] - X[i]) <= dedupe
    i, j = i[near], j[near]
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    starts = np.flatnonzero(np.r_[True, j[1:] != j[:-1]]) if len(j) else j
    for later, earlier in zip(j[starts], np.split(i, starts[1:])):
        kept[later] = not kept[earlier].any()
    return X[kept], idx[kept]


def verify_mdm(
    net: MdmNetwork, m_count: int, tol: ToleranceConfig = DEFAULT_TOL
) -> MdmReport:
    """Structural report: cycles, merged segment count against 2#M - 3, and
    the angle spectrum at branch/corner vertices.

    Segment counting contracts edges of negligible length, then merges
    collinear runs through degree-2 vertices (angle within eps_angle of pi).
    A long edge with both ends in one contracted cluster counts toward
    ``has_cycle`` but has no angle and no segment.
    """
    V = net.vertices
    scale = max(instance_scale(V), 1e-300)
    thresh = tol.eps_len * scale

    e = net.edge_array
    # A graph is a forest iff |E| = |V| - #components (parallel edges and
    # loops, zero-length ones included, count as cycles).
    n_components = len(np.unique(_labels(len(V), e)))
    has_cycle = len(e) > len(V) - n_components
    short = _norm(V[e[:, 0]] - V[e[:, 1]]) <= thresh
    rep = _labels(len(V), e[short])
    # Long edges between representatives; one inside a cluster is a loop,
    # which closes a cycle but has no angle.
    degree, smallest, arcs = _vertex_angles(V, rep[e[~short]])
    branch = np.flatnonzero(degree >= 2)
    # A straight degree-2 vertex joins its two edges into one segment.
    start = np.cumsum(degree) - degree
    two = start[(degree == 2) & (smallest >= np.pi - tol.eps_angle)]
    straight = np.column_stack([arcs[two, 2], arcs[two + 1, 2]])
    segment_count = len(np.unique(_labels(len(arcs) // 2, straight)))
    return MdmReport(
        has_cycle=has_cycle,
        n_components=n_components,
        segment_count=segment_count,
        bound_ok=segment_count <= 2 * m_count - 3,
        min_angle=float(smallest.min(initial=np.pi)),
        vertex_angles=list(zip(branch.tolist(), smallest[branch].tolist())),
    )


def resample_path_network(net: MdmNetwork, n_vertices: int) -> MdmNetwork:
    """Uniform arc-length resampling of an open-chain network, every
    coordinate, walked from its lower-numbered end.

    Used to coarsen fine horseshoe polylines into workable inits for the
    numeric solver; endpoints are preserved exactly.
    """
    if n_vertices < 2:
        raise MdmError(f"need at least 2 vertices, got {n_vertices}")
    e, n = net.edge_array, len(net.vertices)
    degree = np.bincount(e.ravel(), minlength=n)
    ends = np.flatnonzero(degree == 1)
    graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    order = depth_first_order(graph, ends[0], directed=False, return_predecessors=False) if len(ends) else []
    if len(ends) != 2 or degree.max() > 2 or len(order) != n:
        raise MdmError("resample_path_network needs an open chain through every vertex")
    pts = net.vertices[order]
    seg = np.diff(pts, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(seg, axis=1))])
    s = cum[-1] * np.arange(n_vertices) / (n_vertices - 1)
    new = np.column_stack([np.interp(s, cum, col) for col in pts.T])
    return MdmNetwork(new, np.column_stack([np.arange(n_vertices - 1), np.arange(1, n_vertices)]))
