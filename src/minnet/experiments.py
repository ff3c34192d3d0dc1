"""Instance generators, a scalable heuristic solver, and the study harness.

The generators cover the point families the length studies need: seeded
uniform clouds, hexagonal-lattice clips of the unit square, the zigzag strip,
and nested homothety rings in R^3.  ``heuristic_steiner`` upgrades a minimum
spanning tree by local Fermat-point insertion so that instances far beyond
exact-solver range still get a decent upper bound; it batches a round's
insertions into waves of points whose lower-index neighbours have finished,
which build the tree a point-by-point scan builds, bit for bit, with one
Fermat-kernel call per wave.  ``fit_power_law`` extracts
growth exponents, and ``run_suite`` turns row descriptions into a
deterministic CSV table.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .geometry import fermat_point_triples
from .ratio import caterpillar_topology, mst
from .steiner import EmbeddedTree, _relax_forest, instance_scale, relax_topology, solve_exact
from .topology import Topology

SQRT3 = float(np.sqrt(3.0))

#: Scale factor used for homothety instances when the caller does not pick one.
DEFAULT_LAMBDA = 0.3

# Fermat insertion fires when two incident edges meet below 2*pi/3, i.e. the
# cosine of their angle exceeds -1/2 (with a hair of slack against touching
# the exactly-optimal 2*pi/3 configuration).
_COS_GATE = -0.5 + 1e-9
_MAX_ROUNDS = 40
_RELAX_SWEEPS = 250


class ExperimentError(ValueError):
    """Invalid generator or suite parameters."""


# ---------------------------------------------------------------------------
# instance generators


def random_instance(n: int, seed: int, bounds=None, dim: int = 2) -> np.ndarray:
    """``n`` i.i.d. uniform points in an axis-aligned box (unit square default).

    ``bounds`` is a sequence of per-axis ``(lo, hi)`` pairs and overrides
    ``dim``.  The generator is seeded, so the same seed always reproduces the
    same cloud.
    """
    if n < 1:
        raise ExperimentError(f"random_instance needs n >= 1, got {n}")
    if bounds is None:
        bounds = [(0.0, 1.0)] * dim
    box = np.asarray(bounds, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 1] <= box[:, 0]):
        raise ExperimentError("bounds must be (lo, hi) pairs with hi > lo")
    rng = np.random.default_rng(seed)
    return box[:, 0] + rng.random((n, box.shape[0])) * (box[:, 1] - box[:, 0])


def _hex_layout(a: float, x0: float, y0: float):
    """Row y-coordinates, x-offsets, and per-row counts for one lattice clip."""
    step = a * (SQRT3 / 2.0)
    n_rows = int(np.floor((1.0 - y0) / step + 1e-12)) + 1
    j = np.arange(n_rows)
    ys = y0 + j * step
    offs = np.mod(x0 + (j % 2) * (0.5 * a), a)
    counts = np.floor((1.0 - offs) / a + 1e-12).astype(int) + 1
    return ys, offs, counts


def hex_lattice_instance(n_target: int) -> np.ndarray:
    """Triangular-lattice points clipped to the unit square, ~``n_target`` many.

    Spacing and lattice origin are tuned by a deterministic scan so the
    clipped count lands within 5% of the target (closest achievable wins;
    the origin phases make awkward counts reachable).
    """
    if n_target < 3:
        raise ExperimentError(f"hex_lattice_instance needs n_target >= 3, got {n_target}")
    # One lattice point owns a rhombus of area a^2 * sqrt(3)/2.
    a0 = float(np.sqrt(2.0 / (SQRT3 * n_target)))
    best = None
    for m in np.linspace(0.55, 1.8, 301):
        a = a0 * float(m)
        step = a * (SQRT3 / 2.0)
        for px in range(8):
            for py in range(8):
                _, _, counts = _hex_layout(a, a * px / 8.0, step * py / 8.0)
                err = abs(int(counts.sum()) - n_target)
                if best is None or err < best[0]:
                    best = (err, a, a * px / 8.0, step * py / 8.0)
                if best[0] == 0:
                    break
            if best[0] == 0:
                break
        if best[0] == 0:
            break
    if best[0] > 0.05 * n_target:
        raise ExperimentError(
            f"no lattice spacing puts the count within 5% of {n_target}"
        )
    _, a, x0, y0 = best
    ys, offs, counts = _hex_layout(a, x0, y0)
    rows = [
        np.column_stack([off + a * np.arange(c), np.full(c, y)])
        for y, off, c in zip(ys, offs, counts)
    ]
    return np.vstack(rows)


def zigzag_instance(n: int) -> np.ndarray:
    """First ``n`` points of (0, 0), (1, sqrt(3)), (2, 0), (3, sqrt(3)), ...

    Consecutive points are always at distance 2; the whole set sits in a
    (n-1) x sqrt(3) rectangle.
    """
    if n < 2:
        raise ExperimentError(f"zigzag_instance needs n >= 2, got {n}")
    i = np.arange(n, dtype=float)
    return np.column_stack([i, (np.arange(n) % 2) * SQRT3])


def homothety_instance(n_gon: int, lam: float = DEFAULT_LAMBDA, k_max: int = 1) -> np.ndarray:
    """Nested scaled copies f^k(Q), k = 0..k_max, of a regular polygon in R^3.

    Q is the regular ``n_gon`` of circumradius 1 in the plane x = 1, centered
    at (1, 0, 0); f scales every coordinate by ``lam`` about the origin.
    """
    if n_gon < 3:
        raise ExperimentError(f"homothety_instance needs n_gon >= 3, got {n_gon}")
    if not 0.0 < lam < 1.0:
        raise ExperimentError(f"lam must be in (0, 1), got {lam}")
    if k_max < 0:
        raise ExperimentError(f"k_max must be >= 0, got {k_max}")
    ang = 2.0 * np.pi * np.arange(n_gon) / n_gon
    base = np.column_stack([np.ones(n_gon), np.cos(ang), np.sin(ang)])
    return np.vstack([base * lam**k for k in range(k_max + 1)])


# ---------------------------------------------------------------------------
# heuristic upper-bound solver


def heuristic_steiner(points) -> EmbeddedTree:
    """MST upper bound improved by local Fermat-point insertion.

    Wherever two tree edges meet at an input point below 2*pi/3, reroute them
    through the Fermat point of the three endpoints involved; then relax the
    branch points with ``steiner._relax_forest``, and repeat for at most 40
    rounds.  It runs the exact solver's Gauss-Seidel Fermat sweeps
    (``steiner._gs_sweeps``, at most 250 per round, until no point moves by
    more than 1e-9 of the scale).  After a round's first sweep, only branch
    points with a neighbour that moved by more than that at its last update
    are recomputed: the closed-form kernel would hand any other point its
    own coordinates back bit for bit, so the skip is exact for the
    iteration.  A round still moving after 40 sweeps has crawlers, clusters
    of branch points a hair apart; the points that moved in its last sweep
    are finished by the exact solver's Newton finisher, their other
    neighbours fixed, and the sweeps resume.  Where sweeping settles within
    40 sweeps, the tree differs from the one full sweeps give by about 1e-9
    of the scale; where it crawls, the round ends sooner and, on the
    benchmark's trees, shorter than sweeping to the cap.  Every step
    shortens the tree, so the result never exceeds the spanning tree it
    starts from.
    ``converged`` means that the last round inserted nothing and its
    relaxation settled before the 250-sweep cap.

    A round's insertions are those of a scan over the input points in index
    order: while a point keeps two or more neighbours, it inserts at the pair
    of them with the narrowest angle (neighbours sorted by node id, the first
    pair wins ties) until the angle gate or the gain test stops it.  The scan
    runs in waves.  Each wave takes every pending point that has no pending
    lower-index input-point neighbour, with one Gram product per degree class
    and one ``fermat_point_triples`` call.  An insertion at v rewires only v,
    its pair and the new node; it never joins two input points and moves no
    coordinate.  So v's decisions read only its own neighbours, which no
    point but v and its input-point neighbours changes: the lower-index ones
    have finished and the higher-index ones wait for v.  The waves therefore
    make the scan's insertions.  The round ends by renumbering its new nodes
    into the scan's creation order, so the tree, its trace and ``converged``
    are the scan's, bit for bit.

    The tree is a padded (2n - 2, K) neighbour table plus a degree array, K
    the larger of 3 and the spanning tree's largest degree.  A wave sorts its
    ready rows with one ``argsort`` and rewires its insertions with one
    scatter; a round's renumbering is one permutation of the table.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ExperimentError(f"heuristic_steiner needs >= 2 points, got shape {pts.shape}")
    n, d = pts.shape
    base = mst(pts)
    if n == 2:
        topo = Topology(2, 0, ((0, 1),))
        return EmbeddedTree(topo, pts, np.empty((0, d)), base.length, True, (base.length,))

    scale = instance_scale(pts)
    gain_tol = 1e-12 * scale
    # Each insertion lowers one input point's degree by one and never raises
    # another, so at most n - 2 branch points ever appear, and no node
    # outgrows the spanning tree's largest degree or 3.
    coords = np.vstack([pts, np.empty((n - 2, d))])
    n_nodes = n
    ends = np.array(base.edges, dtype=np.intp)
    ends = np.concatenate([ends, ends[:, ::-1]])
    u, w = ends[np.argsort(ends[:, 0])].T
    deg = np.bincount(u, minlength=2 * n - 2)
    # Row u of the table holds u's neighbours in some deg[u] of its slots, -1 in the rest.
    tab = np.full((2 * n - 2, max(3, int(deg.max()))), -1)
    tab[u, np.arange(len(u)) - np.searchsorted(u, u)] = w
    # Neighbour sort key: the node id, except that a node inserted this round
    # at input point v as its c-th insertion gets 2n + v*n + c, the scan's
    # creation order, until the round ends and renumbers it.  The last entry
    # sorts the table's free slots (-1) after every node.
    key = np.append(np.arange(2 * n - 2), np.iinfo(np.intp).max)

    trace = [base.length]
    converged = False
    for _ in range(_MAX_ROUNDS):
        n0 = n_nodes
        pending = deg[:n] >= 2
        # Input-point pairs (lo, hi) joined at the round start: insertions
        # only remove such edges, so this superset is enough to order the waves.
        lo, c = np.nonzero((tab[:n] > np.arange(n)[:, None]) & (tab[:n] < n))
        hi = tab[lo, c]
        both = pending[lo] & pending[hi]
        lo, hi = lo[both], hi[both]
        chain = np.zeros(n, dtype=np.intp)
        while pending.any():
            # A point waits while a lower-index input-point neighbour is pending.
            blocked = np.zeros(n, dtype=bool)
            blocked[hi[pending[lo]]] = True
            ready = np.flatnonzero(pending & ~blocked)
            pending[ready] = False
            rows = tab[ready]
            rows = np.take_along_axis(rows, np.argsort(key[rows], axis=1), axis=1)
            deg_ready = deg[ready]
            picks = []
            for k in np.unique(deg_ready).tolist():
                at = np.flatnonzero(deg_ready == k)
                vs, nb = ready[at], rows[at, :k]
                vec = coords[nb] - coords[vs][:, None]
                nrm = np.linalg.norm(vec, axis=2)
                unit = vec / np.maximum(nrm, 1e-300)[:, :, None]
                gram = unit @ unit.transpose(0, 2, 1)
                iu, ju = np.triu_indices(k, 1)
                cos = gram[:, iu, ju]
                j = np.argmax(cos, axis=1)
                r = np.flatnonzero(cos[np.arange(len(vs)), j] > _COS_GATE)
                ia, ib = iu[j[r]], ju[j[r]]
                picks.append((vs[r], nb[r, ia], nb[r, ib], nrm[r, ia] + nrm[r, ib]))
            v, a, b, span = (np.concatenate(x) for x in zip(*picks))
            if v.size == 0:
                continue
            tri = np.stack([a, b, v], axis=1)
            s = fermat_point_triples(coords[tri])
            star = np.linalg.norm(coords[tri] - s[:, None], axis=2).sum(axis=1)
            keep = span - star > gain_tol
            v, a, b, tri = v[keep], a[keep], b[keep], tri[keep]
            new = np.arange(n_nodes, n_nodes + len(v))
            n_nodes += len(v)
            coords[new] = s[keep]
            key[new] = 2 * n + v * n + chain[v]
            chain[v] += 1
            # Reroute v-a and v-b through the new node; the slots are found
            # before any is written, and no two insertions share one.
            va, vb, av, bv = (
                np.argmax(tab[x] == y[:, None], axis=1) for x, y in ((v, a), (v, b), (a, v), (b, v))
            )
            tab[v, va], tab[v, vb], tab[a, av], tab[b, bv] = new, -1, new, new
            tab[new, :3] = tri
            deg[v] -= 1
            deg[new] = 3
            pending[v] = deg[v] >= 2

        # Give the round's new nodes the ids the scan would have given them.
        order = n0 + np.argsort(key[n0:n_nodes])
        ren = np.append(np.arange(2 * n - 2), -1)  # ren[-1] keeps free slots free
        ren[order] = np.arange(n0, n_nodes)
        tab = ren[tab]
        tab[n0:n_nodes] = tab[order]
        coords[n0:n_nodes] = coords[order]
        key[n0:n_nodes] = np.arange(n0, n_nodes)

        settled = True
        if n_nodes > n:
            nb = np.sort(tab[n:n_nodes, :3], axis=1)
            settled = _relax_forest(coords, nb, n, 1e-9 * scale, _RELAX_SWEEPS, scale) < _RELAX_SWEEPS
        # The edges (u, w), u < w, in sorted order.
        srt = np.sort(tab[:n_nodes], axis=1)
        u, c = np.nonzero(srt > np.arange(n_nodes)[:, None])
        w = srt[u, c]
        trace.append(float(np.linalg.norm(coords[u] - coords[w], axis=1).sum()))
        if n_nodes == n0 and settled:
            converged = True
            break

    topo = Topology(n, n_nodes - n, tuple(zip(u.tolist(), w.tolist())))
    return EmbeddedTree(topo, pts, coords[n:n_nodes].copy(), trace[-1], converged, tuple(trace))


# ---------------------------------------------------------------------------
# power-law fitting


def fit_power_law(rows) -> tuple[float, float, float]:
    """Fit mean_length ~ beta * N**exponent; returns (beta, exponent, r_squared).

    Least squares on (log N, log mean_length).  Constant data fits exactly
    with exponent 0 and is reported with r_squared = 1.
    """
    data = np.asarray(list(rows), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ExperimentError("fit_power_law needs (N, mean_length) pairs")
    if len(np.unique(data[:, 0])) < 3:
        raise ExperimentError("fit_power_law needs >= 3 distinct N values")
    if np.any(data <= 0.0) or not np.all(np.isfinite(data)):
        raise ExperimentError("fit_power_law needs positive finite N and lengths")
    x, y = np.log(data[:, 0]), np.log(data[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-28 else 1.0 - float((resid**2).sum()) / ss_tot
    return float(np.exp(intercept)), float(slope), float(r2)


# ---------------------------------------------------------------------------
# suite harness


@dataclass
class ExperimentRun:
    """One generator -> solver -> normalization row of a study."""

    instance_id: str
    generator: str
    seed: int
    N: int
    d: int
    solver: str
    length: float
    normalized: float
    wall_time_ms: float
    norm_rule: str = ""
    error: str = ""


CSV_COLUMNS = (
    "instance_id",
    "generator",
    "seed",
    "N",
    "d",
    "solver",
    "length",
    "normalized",
    "wall_time_ms",
)

_SOLVERS = ("exact", "heuristic", "restricted")


def _make_instance(gen: str, row: dict, seed: int) -> tuple[np.ndarray, str]:
    if gen == "random":
        n, dim = int(row["n"]), int(row.get("dim", 2))
        return random_instance(n, seed, dim=dim), f"random(n={n},dim={dim})"
    if gen == "lattice":
        n = int(row["n"])
        return hex_lattice_instance(n), f"lattice(n={n})"
    if gen == "zigzag":
        n = int(row["n"])
        return zigzag_instance(n), f"zigzag(n={n})"
    if gen == "homothety":
        n_gon = int(row["n_gon"])
        lam = float(row.get("lam", DEFAULT_LAMBDA))
        k_max = int(row.get("k_max", 1))
        label = f"homothety(n_gon={n_gon},lam={lam:g},k_max={k_max})"
        return homothety_instance(n_gon, lam, k_max), label
    raise ExperimentError(f"unknown generator {gen!r}")


def _solve_length(pts: np.ndarray, solver: str) -> float:
    if solver == "exact":
        return float(solve_exact(pts).tree.length)
    if solver == "heuristic":
        return float(heuristic_steiner(pts).length)
    if solver == "restricted":
        return float(relax_topology(pts, caterpillar_topology(pts.shape[0])).length)
    raise ExperimentError(f"unknown solver {solver!r}")


def _normalize(gen: str, length: float, n_pts: int, d: int) -> tuple[float, str]:
    # Random-model rows follow the N^((d-1)/d) growth law; lattice / strip
    # rows are area-based worst-case studies, normalized by sqrt(N * area).
    if gen in ("random", "homothety"):
        return length / n_pts ** ((d - 1) / d), "length/N^((d-1)/d)"
    area = SQRT3 * (n_pts - 1) if gen == "zigzag" else 1.0
    return length / float(np.sqrt(n_pts * area)), "length/sqrt(N*area)"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(runs: list[ExperimentRun], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in runs:
            w.writerow(
                [
                    r.instance_id,
                    r.generator,
                    r.seed,
                    r.N,
                    r.d,
                    r.solver,
                    _fmt(r.length),
                    _fmt(r.normalized),
                    f"{r.wall_time_ms:.3f}",
                ]
            )


def run_suite(rows, csv_path=None) -> list[ExperimentRun]:
    """Generate -> solve -> normalize each row; emit a CSV when asked.

    Rows are dicts with ``generator`` (random | lattice | zigzag | homothety),
    ``solver`` (exact | heuristic | restricted), ``seed`` (random instances),
    and the generator's size parameters (``n``, or ``n_gon``/``lam``/``k_max``).
    A failing row records its error and the suite keeps going.  Output is
    sorted by instance_id; all CSV columns are deterministic under fixed seeds
    except the measured wall_time_ms.
    """
    runs: list[ExperimentRun] = []
    for row in rows:
        gen = str(row.get("generator", ""))
        solver = str(row.get("solver", ""))
        seed = int(row.get("seed", 0))
        t0 = time.perf_counter()
        try:
            if solver not in _SOLVERS:
                raise ExperimentError(f"unknown solver {solver!r}")
            pts, label = _make_instance(gen, row, seed)
            length = _solve_length(pts, solver)
            n_pts, d = pts.shape
            normalized, rule = _normalize(gen, length, n_pts, d)
            err = ""
        except Exception as exc:  # per-row failure: record it, keep going
            label = gen or "?"
            n_pts, d = int(row.get("n", row.get("n_gon", 0)) or 0), 0
            length = normalized = float("nan")
            rule, err = "", f"{type(exc).__name__}: {exc}"
        wall = (time.perf_counter() - t0) * 1e3
        rid = f"{label}-{solver}-s{seed:08d}"
        runs.append(
            ExperimentRun(rid, label, seed, n_pts, d, solver, length, normalized, wall, rule, err)
        )
    runs.sort(key=lambda r: r.instance_id)
    if csv_path is not None:
        _write_csv(runs, csv_path)
    return runs
