"""Maximal-distance minimizers: shortest networks whose r-neighborhood covers
a given compact set M.

Three solver flavors live here.  ``horseshoe_circle``/``horseshoe_stadium``
build the one-parameter parallel-curve-with-gap family analytically and
minimize over the gap.  ``solve_mdm_finite`` handles finite M exactly in
spirit: it relaxes every full topology with the Steiner solver's sweep
driver (``steiner._gs_sweeps``), its leaves free in the balls around the
given points and its branch nodes at exact Fermat points.
``solve_mdm_numeric`` is a penalty method over a sampled M with topology
surgery between epochs; it is the hammer for sets with no usable structure.

Distances from M to a candidate network are always exact point-to-segment
computations; arcs become polylines only at output time, with chord error
small enough (< 1e-7 of the radius) to be invisible at the coverage
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    ToleranceConfig,
    _closest_points,
    angle_at,
    fermat_point,
)
from .steiner import (
    _contract,
    _gs_sweeps,
    _harmonic_init,
    _labels,
    _norm,
    _tables,
    _total_lengths,
    instance_scale,
)
from .topology import enumerate_full_topologies

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
    "GAP_EVALUATIONS",
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

# The horseshoe gap search: a coarse grid, then golden-section steps.  It
# evaluates GAP_EVALUATIONS widths: the grid, two starting golden points,
# one per step and the final pick.
_GAP_GRID = 33
_GOLDEN_STEPS = 70
GAP_EVALUATIONS = _GAP_GRID + 2 + _GOLDEN_STEPS + 1

# Half-width of the energetic detection band as a fraction of r; |xy| = r is
# measure-zero so a band is required numerically.
_ENERGETIC_BAND = 1e-3

# Samples per block of the closest-point search.  A sample has a few dozen
# candidate pairs, so a block's arrays stay at a few hundred thousand pairs
# however many samples there are.
_CLOSEST_BLOCK = 4096

# The penalty weight starts at _MU0 / diameter and grows by _MU_GROWTH per
# epoch, in the numeric solver and in the stadium competitor alike.  The
# numeric solver takes at most _ITERS_PER_EPOCH Armijo steps per epoch; the
# competitor runs _COMPETITOR_EPOCHS epochs, each one L-BFGS-B run stopped
# by the _COMPETITOR_* tests below.
_MU0 = 10.0
_MU_GROWTH = 4.0
_ITERS_PER_EPOCH = 150
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
    """Straight-segment network: vertex coordinates plus index-pair edges."""

    vertices: np.ndarray
    edges: list[tuple[int, int]]
    length: float | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.edges = [(int(u), int(v)) for u, v in self.edges]
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(((e < 0) | (e >= len(self.vertices))).any(axis=1))
        if bad.size:
            u, v = self.edges[bad[0]]
            raise MdmError(f"edge ({u}, {v}) out of range for {len(self.vertices)} vertices")
        if self.length is None:
            # A running total in edge order, rounded as a Python sum would.
            lens = _norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]]) if len(e) else [0.0]
            self.length = float(np.cumsum(lens)[-1])

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.edges:
            return self.vertices[:0], self.vertices[:0]
        e = np.asarray(self.edges)
        return self.vertices[e[:, 0]], self.vertices[e[:, 1]]


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
    if r <= 0:
        raise MdmError(f"r must be positive, got {r}")
    if len(net.vertices) == 0:
        raise MdmError("coverage_check needs a nonempty network")
    d = _closest_on_network(net, samples)[0]
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
    centered on the right cap apex.  Returns (arcs, segs, A, d): A is the
    upper gap endpoint and d the unit tangent pointing into the gap; the
    lower endpoint is the mirror image.
    """
    if L == 0.0:
        phi = w / rho
        arcs = [(np.zeros(2), rho, phi, 2.0 * np.pi - phi)]
        segs = []
        A = rho * np.array([np.cos(phi), np.sin(phi)])
        d = np.array([np.sin(phi), -np.cos(phi)])
        return arcs, segs, A, d
    cR = np.array([L / 2.0, 0.0])
    cL = np.array([-L / 2.0, 0.0])
    cap = rho * np.pi / 2.0
    if w <= cap:
        phi = w / rho
        arcs = [
            (cR, rho, phi, np.pi / 2.0),
            (cL, rho, np.pi / 2.0, 3.0 * np.pi / 2.0),
            (cR, rho, 3.0 * np.pi / 2.0, 2.0 * np.pi - phi),
        ]
        segs = [
            (np.array([L / 2.0, rho]), np.array([-L / 2.0, rho])),
            (np.array([-L / 2.0, -rho]), np.array([L / 2.0, -rho])),
        ]
        A = cR + rho * np.array([np.cos(phi), np.sin(phi)])
        d = np.array([np.sin(phi), -np.cos(phi)])
        return arcs, segs, A, d
    t = w - cap
    arcs = [(cL, rho, np.pi / 2.0, 3.0 * np.pi / 2.0)]
    segs = [
        (np.array([L / 2.0 - t, rho]), np.array([-L / 2.0, rho])),
        (np.array([-L / 2.0, -rho]), np.array([L / 2.0 - t, -rho])),
    ]
    A = np.array([L / 2.0 - t, rho])
    d = np.array([1.0, 0.0])
    return arcs, segs, A, d


def _mirror(p: np.ndarray) -> np.ndarray:
    return np.array([p[0], -p[1]])


def _tangent_length(R: float, r: float, L: float, w: float) -> float | None:
    """Shortest tangent segments that close a gap of half-width w; None if
    no length does.

    The gapped parallel curve at distance rho = R - r leaves one boundary
    interval uncovered, symmetric about the apex (L/2 + R, 0).  The tangent
    from the upper gap endpoint A along d reaches a point P once its length
    is at least f(P) = t_P - sqrt(reach^2 - h_P^2), where t_P = (P - A).d
    and h_P is the signed offset of P from the tangent line; no length
    reaches P when |h_P| > reach.  For P on the cap at angle u past A,
    seen from the cap centre, f = R sin u - sqrt(reach^2 - (R cos u - rho)^2)
    and df/du > 0 exactly when (R - reach) cos u < rho, which holds for
    every u because reach > r.  So the bound grows away from A, the lower
    tangent mirrors it, and the apex (u = w / rho) needs the most.  Once the
    gap has eaten the whole stadium cap (w > pi rho / 2) the tangent runs
    along the top side and the bound grows by the extra half-width.  The
    reach keeps the relative slack of 1e-9 that boundary points on the
    covered stretch need.
    """
    rho = R - r
    reach = r * (1.0 + 1e-9)
    cap = np.pi * rho / 2.0 if L > 0.0 else np.inf
    u = min(w, cap) / rho
    h = R * np.cos(u) - rho
    if h < -reach:
        return None
    ell = max(w - cap, 0.0) + R * np.sin(u) - np.sqrt(reach * reach - h * h)
    return max(float(ell), 0.0)


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
    vertices = P[keep]
    return MdmNetwork(vertices, [(i, i + 1) for i in range(len(vertices) - 1)])


def _emit_horseshoe(rho: float, L: float, w: float, ell: float) -> MdmNetwork:
    arcs, segs, A, d = _gapped_parallel(rho, L, w)
    runs: list[np.ndarray] = []
    if ell > 0.0:
        runs.append(np.array([A + ell * d]))
    if L == 0.0:
        runs.append(_arc_points(*arcs[0]))
    elif len(arcs) == 3:
        runs.append(_arc_points(*arcs[0]))
        runs.append(np.array([segs[0][1]]))
        runs.append(_arc_points(*arcs[1]))
        runs.append(np.array([segs[1][1]]))
        runs.append(_arc_points(*arcs[2]))
    else:
        runs.append(np.array([segs[0][0], segs[0][1]]))
        runs.append(_arc_points(*arcs[0]))
        runs.append(np.array([segs[1][1]]))
    if ell > 0.0:
        runs.append(np.array([_mirror(A + ell * d)]))
    return _chain_network(runs)


def _horseshoe_family(R: float, r: float, L: float) -> tuple[MdmNetwork, float]:
    if r <= 0 or R <= r:
        raise MdmError(f"horseshoe needs R > r > 0, got R={R}, r={r}")
    rho = R - r
    perimeter = 2.0 * np.pi * rho + 2.0 * L
    w_max = np.pi * rho if L == 0.0 else np.pi * rho / 2.0 + L

    def total(w: float) -> tuple[float, float]:
        ell = _tangent_length(R, r, L, w)
        if ell is None:
            return np.inf, np.nan
        return perimeter - 2.0 * w + 2.0 * ell, ell

    # Coarse grid guards against flat/infeasible tails, golden refines.
    grid = np.linspace(0.0, w_max, _GAP_GRID)
    vals = [total(w)[0] for w in grid]
    k = int(np.argmin(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = total(x1)[0], total(x2)[0]
    for _ in range(_GOLDEN_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = total(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = total(x2)[0]
    w_best = x1 if f1 <= f2 else x2
    length, ell = total(w_best)
    if not np.isfinite(length):
        raise MdmError("horseshoe gap search found no feasible member")
    net = _emit_horseshoe(rho, L, w_best, ell)
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
    n = len(pts)
    close = [(i, j) for i in range(n) for j in range(i + 1, n)]
    close = [(i, j) for i, j in close if np.linalg.norm(pts[i] - pts[j]) <= 2.0 * r]
    centers, radii = [], []
    lab = _labels(n, close)
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
    one batch with :func:`steiner._gs_sweeps`, whose leaves move to the
    nearest point of their ball and whose branch nodes move to exact Fermat
    points.  A topology leaves the batch once a sweep moves none of its
    nodes by more than 1e-12 of the scale, or after 3000 sweeps; nothing
    certifies the winner yet.  Sweeps can stall where a branch node lands
    on a leaf that sits on its sphere, though the optimum wants the branch
    node inside the ball: the result is then not optimal.  On the
    benchmark's n = 6 set (r = 1) it returns 11.98341 where a valid network
    of length 11.56315 exists, 3.6 % shorter; on the acceptance suite's
    seeded n = 3-6 draws it is up to 1.05 % above a leaf-eliminated
    reference.  ``tol`` is accepted for a uniform solver signature and has
    no effect.
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

    topologies = enumerate_full_topologies(k)
    nb, edg = _tables(topologies, k)
    T = len(topologies)
    tnbr = np.empty((T, k), dtype=np.int64)
    for t, topo in enumerate(topologies):
        for i in range(k):
            tnbr[t, i] = topo.neighbors(i)[0]

    scale = max(instance_scale(centers), 2.0 * r)
    d = centers.shape[1]
    X = np.empty((T, 2 * k - 2, d))
    centroid = centers.mean(axis=0)
    v0 = centroid[None] - centers
    n0 = np.linalg.norm(v0, axis=1)
    u0 = v0 / np.where(n0 == 0.0, 1.0, n0)[:, None]
    X[:, :k] = (centers + radii[:, None] * u0)[None]
    X[:, k:] = _harmonic_init(X[0, :k], nb)

    move_target = max(1e-12 * scale, 1e-300)
    _gs_sweeps(X, nb, k, move_target, 3000, balls=(centers, radii, tnbr))
    best = int(np.argmin(_total_lengths(X, edg)))
    return MdmNetwork(X[best].copy(), [tuple(e) for e in edg[best]])


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


def _adjacency(n_vertices: int, edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in range(n_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _topology_surgery(V, E, samples, r, tol, scale, table):
    """Between-epoch moves: split edges near violated samples, merge nearly
    coincident vertices, break sharp degree-2 corners with a Fermat vertex.
    ``table`` is the nearest-edge table of (V, E)."""
    V = V.copy()
    E = list(E)
    dmin, nearest = table[0], table[1]
    split_done: set[int] = set()
    order = np.argsort(-dmin)
    for s in order:
        if dmin[s] <= r:
            break
        ei = int(nearest[s])
        if ei in split_done:
            continue
        u, v = E[ei]
        seg = V[v] - V[u]
        den = float(seg @ seg)
        if den == 0.0:
            continue
        t = float(np.clip((samples[s] - V[u]) @ seg / den, 0.0, 1.0))
        if not 0.02 < t < 0.98:
            continue
        w = V[u] + t * seg
        V = np.vstack([V, w])
        E[ei] = (u, len(V) - 1)
        E.append((len(V) - 1, v))
        split_done.add(ei)

    # Merge vertices that collapsed onto each other, then drop parallel edges.
    thresh = tol.eps_len * scale
    V, pairs = _contract(V, E, thresh)
    E = list(dict.fromkeys((min(u, v), max(u, v)) for u, v in pairs.tolist()))

    # Fermat-split sharp corners at degree-2 vertices.
    adj = _adjacency(len(V), E)
    for vtx in range(len(V)):
        if len(adj[vtx]) != 2:
            continue
        n1, n2 = adj[vtx]
        if (
            np.linalg.norm(V[n1] - V[vtx]) <= thresh
            or np.linalg.norm(V[n2] - V[vtx]) <= thresh
        ):
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
        adj = _adjacency(len(V), E)
    return V, E


def solve_mdm_numeric(
    desc: CompactSetDescriptor,
    r: float,
    init: MdmNetwork,
    config: NumericConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> NumericResult:
    """Penalty-method local solver over a sampled compact set.

    Minimizes length + mu * sum(max(0, dist - r)^2) by Armijo gradient steps,
    escalating mu each epoch and applying topology surgery in between.  The
    objective is non-increasing within an epoch.  Each iterate's dense
    sample-to-edge table is built once, by the objective: the accepted
    Armijo trial's table feeds the next gradient and, at the end of an
    epoch, the surgery.  If coverage is still not met after the last epoch
    the best iterate is returned with ``covered=False`` rather than raising.
    """
    if r <= 0:
        raise MdmError(f"r must be positive, got {r}")
    cfg = config or NumericConfig()
    diam = max(desc.diameter(), 2.0 * r)
    samples = sample_compact(desc, cfg.density or _default_density(desc, r))
    scale = max(instance_scale(samples), r)
    mu = _MU0 / diam
    V = init.vertices.copy()
    E = list(init.edges)
    trace: list[float] = []
    marks: list[int] = []
    step = 0.1 * diam
    epochs_run = 0
    # A network with no edges gives the penalty nothing to move.
    for epoch in range(cfg.max_epochs if E else 0):
        epochs_run = epoch + 1
        ends = np.asarray(E, dtype=np.int64).reshape(-1, 2)
        f, table = _penalty_objective(V, ends, samples, r, mu)
        trace.append(f)
        for _ in range(_ITERS_PER_EPOCH):
            g = _penalty_gradient(V, ends, table, r, mu)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 1e-12:
                break
            s = step
            for _ in range(40):
                trial = V - s * g
                f_new, trial_table = _penalty_objective(trial, ends, samples, r, mu)
                if f_new <= f - 1e-4 * s * gnorm * gnorm:
                    break
                s *= 0.5
            else:
                break
            V, f, table = trial, f_new, trial_table
            trace.append(f)
            step = min(s * 2.0, 0.1 * diam)
        marks.append(len(trace))
        net = MdmNetwork(V.copy(), list(E))
        rep = coverage_check(net, samples, r, tol)
        if rep.covered:
            break
        V, E = _topology_surgery(V, E, samples, r, tol, scale, table)
        mu *= _MU_GROWTH
    net = MdmNetwork(V.copy(), list(E))
    rep = coverage_check(net, samples, r, tol)
    return NumericResult(
        network=net,
        covered=rep.covered,
        max_defect=rep.max_defect,
        epochs=epochs_run,
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
    ends = np.asarray(net.edges, dtype=np.int64).reshape(-1, 2)
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
    band: float = _ENERGETIC_BAND,
) -> EnergeticSet:
    """Network points realizing distance ~ r to some witness in M.

    A sample y is a witness when its distance to the network lies in
    [r - band*r, r + coverage slack]; the nearest network point x is then
    energetic.  Nearby x's are deduplicated.
    """
    samples = np.asarray(m_samples, dtype=float)
    d, p = _closest_on_network(net, samples)
    scale = max(instance_scale(samples), r)
    lo = r - band * r
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
    return EnergeticSet(points=[(X[m].copy(), samples[idx[m]].copy()) for m in np.flatnonzero(kept)])


def verify_mdm(
    net: MdmNetwork, m_count: int, tol: ToleranceConfig = DEFAULT_TOL
) -> MdmReport:
    """Structural report: cycles, merged segment count against 2#M - 3, and
    the angle spectrum at branch/corner vertices.

    Segment counting contracts edges of negligible length, then merges
    collinear runs through degree-2 vertices (angle within eps_angle of pi).
    """
    V = net.vertices
    scale = max(instance_scale(V), 1e-300)
    thresh = tol.eps_len * scale

    e = np.asarray(net.edges, dtype=np.int64).reshape(-1, 2)
    # A graph is a forest iff |E| = |V| - #components (parallel edges and
    # loops, zero-length ones included, count as cycles).
    n_components = len(np.unique(_labels(len(V), e)))
    has_cycle = len(e) > len(V) - n_components
    short = _norm(V[e[:, 0]] - V[e[:, 1]]) <= thresh
    rep = _labels(len(V), e[short])
    # Each long edge between representatives, the first of parallel copies.
    q = rep[e[~short]]
    first = np.unique(np.sort(q, axis=1), axis=0, return_index=True)[1]
    quotient_edges = q[np.sort(first)]
    m = len(quotient_edges)

    # Incidences in insertion order (u then v of each edge); a stable sort
    # groups them per vertex, and vertices keep their first appearance.
    inc_v = quotient_edges.ravel()
    order = np.argsort(inc_v, kind="stable")
    nbr = quotient_edges[:, ::-1].ravel()[order]
    eid = np.repeat(np.arange(m), 2)[order]
    vtx, start, deg = np.unique(inc_v[order], return_index=True, return_counts=True)
    branch = np.flatnonzero(deg >= 2)
    branch = branch[np.argsort(order[start[branch]])]
    triples = []  # (centre, ray end a, ray end b, group) per pair of rays
    for k in np.unique(deg[branch]):
        g = branch[deg[branch] == k]
        ia, ib = np.triu_indices(k, 1)
        slots = start[g][:, None]
        triples.append([np.repeat(vtx[g], len(ia)), nbr[slots + ia].ravel(), nbr[slots + ib].ravel(), np.repeat(g, len(ia))])
    vmin = np.full(len(vtx), np.inf)
    if triples:
        c, ea, eb, owner = (np.concatenate(col) for col in zip(*triples))
        u, w = V[ea] - V[c], V[eb] - V[c]
        nu, nw = _norm(u), _norm(w)
        if np.any((nu == 0.0) | (nw == 0.0)):
            raise GeometryError("degenerate ray: endpoints must differ from the vertex")
        # Kahan's formula, rounded as angle_at rounds it.
        x, y = u * nw[:, None], w * nu[:, None]
        np.minimum.at(vmin, owner, 2.0 * np.arctan2(_norm(x - y), _norm(x + y)))
    angles = [(int(vtx[g]), float(vmin[g])) for g in branch]
    two = start[deg == 2]
    flat = vmin[deg == 2] >= np.pi - tol.eps_angle
    straight = np.column_stack([eid[two[flat]], eid[two[flat] + 1]])
    segment_count = len(np.unique(_labels(len(quotient_edges), straight)))
    min_angle = min((a for _, a in angles), default=float(np.pi))
    return MdmReport(
        has_cycle=has_cycle,
        n_components=n_components,
        segment_count=segment_count,
        bound_ok=segment_count <= 2 * m_count - 3,
        min_angle=min_angle,
        vertex_angles=angles,
    )


def resample_path_network(net: MdmNetwork, n_vertices: int) -> MdmNetwork:
    """Uniform arc-length resampling of an open-chain network.

    Used to coarsen fine horseshoe polylines into workable inits for the
    numeric solver; endpoints are preserved exactly.
    """
    if n_vertices < 2:
        raise MdmError(f"need at least 2 vertices, got {n_vertices}")
    adj = _adjacency(len(net.vertices), net.edges)
    ends = [v for v, nb in adj.items() if len(nb) == 1]
    if len(ends) != 2 or any(len(nb) > 2 for nb in adj.values()):
        raise MdmError("resample_path_network needs an open chain")
    order = [min(ends)]
    prev = -1
    while True:
        nxt = [x for x in adj[order[-1]] if x != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    pts = net.vertices[order]
    if len(order) != len(net.vertices):
        raise MdmError("chain does not visit every vertex")
    seg = np.diff(pts, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(seg, axis=1))])
    s = cum[-1] * np.arange(n_vertices) / (n_vertices - 1)
    x = np.interp(s, cum, pts[:, 0])
    y = np.interp(s, cum, pts[:, 1])
    new = np.stack([x, y], axis=1)
    return MdmNetwork(new, [(i, i + 1) for i in range(n_vertices - 1)])
