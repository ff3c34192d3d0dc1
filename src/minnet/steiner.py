"""Exact Euclidean Steiner tree solver over full-topology enumeration.

The geometric optimum for a *fixed* topology is found by block-coordinate
descent: each branch node moves to the exact Fermat point of its three
current neighbors (closed form, so degenerate collapses land exactly on a
vertex).  :func:`_gs_sweeps` moves each of two colour classes of branch
nodes with one batched kernel call, which is node-by-node Gauss-Seidel, and
recomputes only nodes with a neighbour that moved since their last update.
Total length is convex in the branch coordinates, and each node update is
the exact block minimizer, so the sweep never increases length.  The exact
solver, the heuristic and ``mdm.solve_mdm_finite`` all relax through it.

One certificate decides both convergence and pruning: the weak-duality
bound of :func:`_lower_bounds`, LB <= L* for the topology's optimal length
L*, built from edge vectors in the unit ball with no divergence at the
branch nodes.  A topology is ``converged`` when its length L is certified
within ``eps_len * scale`` of its own optimum (L - LB <= eps_len * scale),
and pruned when LB exceeds the shortest embedding found by more than the
tie tolerance ``eps_tie``.

Coordinate descent stalls where coincident branch nodes want to translate
as a block, and crawls where short edges couple branch nodes stiffly.  One
finisher handles both: damped Newton on the smoothed length
sum_e sqrt(l_e^2 + eps^2) over all branch nodes, batched over the
uncertified topologies, with eps driven toward machine scale.  It never
lengthens a topology, so monotonicity holds.  The finisher runs only on
topologies near the running minimum; far-from-minimal stalls keep an honest
``converged=False`` and a length that is a slight overestimate (upper bound)
of their true optimum.

:func:`solve_exact` sweeps all full topologies as one batch (they share the
same array shapes for a given terminal count), and each topology retires
from the batch on its own: once a sweep moves none of its branch nodes, or
once its lower bound prunes it.  No topology is dropped on a guess, so the
winner and every cominimal topology are always fully relaxed; cominimal
topologies are reported within a relative tie tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    ToleranceConfig,
    fermat_point_triples,
)
from .topology import Topology, enumerate_full_topologies

__all__ = [
    "EmbeddedTree",
    "TreeReport",
    "CrossingReport",
    "SolveResult",
    "relax_topology",
    "solve_exact",
    "verify_tree",
    "count_crossings",
    "count_branching_in_ball",
    "length_in_ball",
]

MIN_BRANCH_ANGLE = 2.0 * np.pi / 3.0
_DUAL_ROUNDS = 5  # clip-and-project rounds of the dual certificate
_WEIGHT_FLOOR = 1e-3  # shortest edge a dual weight sees, in units of degen


def _as_terminal_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 2:
        raise GeometryError(f"terminals must have shape (n >= 2, d >= 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("terminals contain non-finite coordinates")
    # Relative tolerances and edge weights scale with the extent, so its
    # square must be a normal float unless every terminal coincides.
    with np.errstate(over="ignore", under="ignore"):
        spread = np.ptp(pts, axis=0)
        extent2 = float((spread**2).sum())
    if spread.any() and not np.finfo(float).tiny <= extent2 < np.inf:
        raise GeometryError(
            f"terminal extent {spread.max():.3g} is out of range: its square must be a normal float"
        )
    return pts


def instance_scale(points: np.ndarray) -> float:
    """Diameter of a point set (bounding-box diagonal for large sets).

    Relative tolerances everywhere in the solver are multiples of this scale.
    The bbox diagonal is within sqrt(d) of the true diameter, which is plenty
    for tolerance scaling, and avoids the quadratic pairwise pass.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 512:
        return float(pdist(pts).max(initial=0.0))
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


@dataclass
class EmbeddedTree:
    """A topology together with concrete coordinates for every node."""

    topology: Topology
    terminals: np.ndarray
    steiner: np.ndarray  # shape (n_steiner, d)
    length: float
    converged: bool = True
    length_trace: tuple[float, ...] = ()

    def coords(self) -> np.ndarray:
        if self.topology.n_steiner == 0:
            return np.asarray(self.terminals, dtype=float)
        return np.vstack([self.terminals, self.steiner])

    def segments(self) -> np.ndarray:
        """Edge endpoints as an array of shape (n_edges, 2, d)."""
        c = self.coords()
        e = np.asarray(self.topology.edges, dtype=int)
        return np.stack([c[e[:, 0]], c[e[:, 1]]], axis=1)

    def scale(self) -> float:
        return instance_scale(self.terminals)


@dataclass
class SolveResult:
    """Winner, cominimal topologies and per-topology accounting.

    Every topology is either converged (its length certified within
    ``eps_len * scale`` of its own optimum by the duality gap), certified
    non-minimal by the same lower bound (``n_pruned``), or neither
    (``n_unconverged``).  ``sweeps`` counts the batched Gauss-Seidel sweeps
    of the main phase, and ``gap`` is the winner's length minus its lower
    bound.
    """

    tree: EmbeddedTree
    cominimal: list[Topology]
    n_topologies: int
    n_unconverged: int
    n_pruned: int = 0
    sweeps: int = 0
    gap: float = 0.0


@dataclass
class TreeReport:
    length: float
    is_tree: bool
    max_degree: int
    min_angle: float | None
    n_degenerate_edges: int
    degenerate_edges: tuple[tuple[int, int], ...]
    angles_ok: bool


@dataclass
class CrossingReport:
    count: int
    degenerate: bool
    points: np.ndarray  # (k, d) intersection points


# ---------------------------------------------------------------------------
# fixed-topology relaxation (batched)


def _tables(topologies: list[Topology], n: int) -> tuple[np.ndarray, np.ndarray]:
    s = n - 2
    T = len(topologies)
    nb = np.empty((T, s, 3), dtype=np.int64)
    edg = np.empty((T, 2 * n - 3, 2), dtype=np.int64)
    for t, topo in enumerate(topologies):
        for i in range(s):
            nb[t, i] = topo.neighbors(n + i)
        edg[t] = topo.edges
    return nb, edg


def _harmonic_init(terminals: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Place each branch node at the average of its neighbors (linear solve).

    This 'rubber band' embedding is unique, keeps symmetric instances
    symmetric, and never produces coincident starting points for
    non-degenerate terminal sets, which matters because the Fermat update of
    three points with a coincident pair sticks to that pair.
    """
    n, d = terminals.shape
    T, s, _ = nb.shape
    lap = np.zeros((T, s, s))
    rhs = np.zeros((T, s, d))
    lap[:, np.arange(s), np.arange(s)] = 3.0
    t, i, k = np.nonzero(nb >= n)
    np.add.at(lap, (t, i, nb[t, i, k] - n), -1.0)
    t, i, k = np.nonzero(nb < n)  # add.at sums each node's terminals in k order
    np.add.at(rhs, (t, i), terminals[nb[t, i, k]])
    return np.linalg.solve(lap, rhs)


def _edge_lengths(X: np.ndarray, edg: np.ndarray) -> np.ndarray:
    t_idx = np.arange(X.shape[0])[:, None]
    seg = X[t_idx, edg[:, :, 0]] - X[t_idx, edg[:, :, 1]]
    return np.linalg.norm(seg, axis=2)


def _total_lengths(X: np.ndarray, edg: np.ndarray) -> np.ndarray:
    return _edge_lengths(X, edg).sum(axis=1)


def _lower_bounds(X, nb, edg, n: int, degen: float) -> np.ndarray:
    """Certified lower bound on each topology's optimal length, from embedding X.

    Weak duality for a sum of norms (the dual of Xue & Ye, SIAM J. Optim. 7,
    1997): with D_e = x_a - x_b for edge e = (a, b) and any edge vectors
    |u_e| <= 1, ``L >= sum_e u_e . D_e`` for every embedding, and if u has no
    divergence at the branch nodes the right side involves the terminals
    only, so it bounds the optimum L*.  u starts from the unit edge vectors
    (0 on edges of length <= ``degen``); each round removes the divergence at
    the branch nodes with one weighted-Laplacian solve, w_e = 1 / l_e floored
    at ``_WEIGHT_FLOOR * degen`` so that short edges take the corrections,
    and clips every u_e to the unit ball.  One last solve follows, then u is
    divided by its largest |u_e|.  At a non-degenerate optimum u is the unit
    vectors and the bound equals L.  The divergence r_i that rounding leaves
    at branch node i is bounded over the terminals' convex hull, where an
    optimal embedding lies: ``L* >= sum_e u_e . D_e + sum_i min_t r_i.(p_t - x_i)``.
    The bound reads the topology from ``edg`` alone; ``nb`` is not used.
    """
    T, m, _ = X.shape
    s = m - n
    e_idx = np.arange(edg.shape[1])
    t_idx = np.arange(T)[:, None]
    delta = X[t_idx, edg[..., 0]] - X[t_idx, edg[..., 1]]
    ell = np.linalg.norm(delta, axis=2)
    u = np.where((ell > degen)[..., None], delta / np.maximum(ell, degen)[..., None], 0.0)
    w = 1.0 / np.maximum(ell, _WEIGHT_FLOOR * degen)[..., None]
    # Signed incidence of the branch nodes; terminal ends go to a dropped row s.
    B = np.zeros((T, s + 1, edg.shape[1]))
    B[t_idx, np.where(edg[..., 0] >= n, edg[..., 0] - n, s), e_idx] = 1.0
    B[t_idx, np.where(edg[..., 1] >= n, edg[..., 1] - n, s), e_idx] = -1.0
    B = B[:, :s]
    Bt = B.transpose(0, 2, 1)
    lap = B @ (w * Bt)
    for k in range(_DUAL_ROUNDS + 1):
        u += w * (Bt @ np.linalg.solve(lap, -(B @ u)))
        if k < _DUAL_ROUNDS:
            u /= np.maximum(np.linalg.norm(u, axis=2), 1.0)[..., None]
    u /= np.linalg.norm(u, axis=2).max(axis=1)[:, None, None]
    # min over the hull of r_i . (y_i - x_i) is attained at a terminal.
    drop = np.einsum("tsd,tsnd->tsn", B @ u, X[:, None, :n, :] - X[:, n:, None, :]).min(axis=2)
    return (u * delta).sum(axis=(1, 2)) + drop.sum(axis=1)


def _colour_classes(nb: np.ndarray, n: int) -> np.ndarray:
    """(T, s) boolean colour of each branch node; no edge joins two of one colour.

    In the double cover of the branch forest (v and v + m per node, u-(v + m)
    and (u + m)-v per edge) each tree splits in two; colour 0 is the half
    holding the tree's smallest node, where ``label[v] < label[v + m]``.
    """
    T, s, _ = nb.shape
    m = T * s
    t, i, k = np.nonzero(nb >= n)
    a, b = t * s + i, t * s + nb[t, i, k] - n
    lab = _labels(2 * m, np.column_stack([np.r_[a, a + m], np.r_[b + m, b]]))
    return (lab[:m] > lab[m:]).reshape(T, s)


def _gs_sweeps(
    X: np.ndarray,
    nb: np.ndarray,
    n: int,
    move_target: float,
    max_sweeps: int,
    edg: np.ndarray | None = None,
    trace: list | None = None,
    certify: tuple[np.ndarray, float, float] | None = None,
    balls: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> int:
    """In-place Gauss-Seidel Fermat sweeps over a shrinking batch; returns sweeps run.

    A sweep moves the branch nodes of colour 0 (:func:`_colour_classes`) to
    their Fermat points with one kernel call, then those of colour 1.  No
    edge joins two nodes of one colour, so the class update is node-by-node
    Gauss-Seidel: each node lands on the exact minimizer of its three edges
    with its neighbours fixed, and length never increases.

    Only nodes that can move are recomputed.  A node is *stirred* when it
    moved by more than ``move_target`` at its last update and its
    neighbours have not been redone since.  The first sweep recomputes
    every branch node; after it, a class pass recomputes only the nodes
    with a stirred neighbour, then clears the other class's flags (it has
    just read them) and flags its own nodes that moved.  A class with no
    such node makes no kernel call.  Skipping is exact for the iteration:
    the kernel is closed-form and works row by row, so a node whose three
    neighbours stood still gets its own coordinates back bit for bit.  With
    ``move_target`` 0 the sweeps equal full sweeps exactly; otherwise the
    embedding differs from theirs by about ``move_target``.

    A topology leaves the batch after its first sweep that moves no node by
    more than ``move_target``, so its embedding does not depend on how
    slowly the others settle.  Given ``certify = (pruned, degen, eps_tie)``
    and ``edg``, every 10 sweeps a still-moving topology also leaves, with
    ``pruned`` set, once its certified lower bound exceeds the incumbent
    (the shortest embedding seen in the batch) by ``eps_tie``.

    Given ``balls = (centers, radii, leaf_nbr)``, the first n nodes are not
    fixed terminals but leaves free in the balls B(centers[i], radii[i]):
    each sweep starts by moving every leaf to the point of its ball nearest
    its one neighbour ``leaf_nbr[t, i]``, the exact block minimizer for a
    leaf.  Those moves count toward retirement like the others, and a leaf
    is stirred by its own move in each sweep.
    """
    act = np.arange(len(nb))
    colour = _colour_classes(nb, n)
    Xa, nba = X, nb
    stirred = np.zeros((len(nb), X.shape[1]), dtype=bool)
    if certify is not None:
        pruned, degen, eps_tie = certify
        best = _total_lengths(X, edg)
    if balls is not None:
        centers, radii, leaf_nbr = balls
    sweeps = 0
    classes = None
    while sweeps < max_sweeps and len(act):
        if classes is None:  # (row, column, neighbours) of each colour class
            split = [np.nonzero(colour[act] == c) for c in (False, True)]
            classes = [(rows, n + i, nba[rows, i]) for rows, i in split if len(rows)]
        keep = np.zeros(len(act), dtype=bool)
        if balls is not None:
            v = Xa[np.arange(len(act))[:, None], leaf_nbr[act]] - centers
            dist = np.linalg.norm(v, axis=2)
            reach = np.minimum(dist, radii) / np.where(dist == 0.0, 1.0, dist)
            new = centers + reach[..., None] * v
            stirred[:, :n] = np.linalg.norm(new - Xa[:, :n], axis=2) > move_target
            keep = stirred[:, :n].any(axis=1)
            Xa[:, :n] = new
        for rows, cols, nbrs in classes:
            if sweeps:
                due = stirred[rows[:, None], nbrs].any(axis=1)
                rows, cols, nbrs = rows[due], cols[due], nbrs[due]
                stirred[:, n:] = False
                if not len(rows):
                    continue
            new = fermat_point_triples(Xa[rows[:, None], nbrs])
            moved = np.linalg.norm(new - Xa[rows, cols], axis=1) > move_target
            Xa[rows, cols] = new
            stirred[rows, cols] = moved
            keep[rows[moved]] = True
        sweeps += 1
        if trace is not None and edg is not None:
            if Xa is not X:
                X[act] = Xa
            trace.append(_total_lengths(X, edg))
        if certify is not None and sweeps % 10 == 0:
            best[act] = _total_lengths(Xa, edg[act])
            cutoff = best.min() * (1.0 + eps_tie)
            far = np.flatnonzero(keep & (best[act] > cutoff))
            if len(far):
                dead = far[_lower_bounds(Xa[far], nba[far], edg[act[far]], n, degen) > cutoff]
                pruned[act[dead]] = True
                keep[dead] = False
        if not keep.all() and sweeps < max_sweeps:
            if Xa is not X:
                X[act] = Xa
            if certify is not None:
                best[act[~keep]] = _total_lengths(Xa[~keep], edg[act[~keep]])
            act = act[keep]
            Xa, nba, stirred = X[act], nb[act], stirred[keep]
            classes = None
    if Xa is not X:
        X[act] = Xa
    return sweeps


def _labels(m: int, pairs) -> np.ndarray:
    """Component of each node ``0..m-1`` under ``pairs``, named by its smallest node.

    The one connected-components helper: labels ordered like their first
    member give stable tie-breaks whatever the pair order.
    """
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(m, m))
    comp = connected_components(graph, directed=False)[1]
    return np.unique(comp, return_index=True)[1][comp]


def _cluster_roots(T: int, m: int, t, a, b) -> np.ndarray:
    """(T, m) smallest node of each node's cluster, node pairs (a, b) of topology t joined."""
    offset = np.arange(T) * m
    pairs = np.column_stack([a + offset[t], b + offset[t]])
    return _labels(T * m, pairs).reshape(T, m) - offset[:, None]


def _newton_finish(X, edg, n: int, rows: np.ndarray, scale: float, degen: float) -> None:
    """Damped Newton on the smoothed length of the topologies in ``rows``, in place.

    Coordinate descent stalls where coincident branch nodes want to move as
    a block, and crawls where short edges couple branch nodes stiffly.  Both
    are finished by Newton's method on sum_e sqrt(l_e^2 + eps^2) over all
    branch nodes at once, which is smooth and strictly convex for eps > 0,
    so zero-length edges need no special case.  The Hessian is assembled
    from the edge blocks (I - u u^T) / l_eps with u = e / l_eps, and each
    topology's step is halved until its smoothed length does not grow.  eps
    steps from 1e-3 down to 1e-14 of the instance scale.  The iterate with
    the shortest true length (the latest one on a tie) is kept, so no
    topology gets longer.  The smoothed optimum leaves collapsed nodes about
    eps apart, so each cluster of nodes joined by edges <= ``degen`` is then
    snapped onto its first terminal, or onto its mean if it holds none,
    wherever that does not lengthen the topology.
    """
    Y = X[rows]
    F, _, d = Y.shape
    s = n - 2
    ends = edg[rows]
    f_idx = np.arange(F)[:, None]
    # Row of each edge end among the branch nodes; terminals share a dropped row s.
    a, b = np.moveaxis(np.where(ends >= n, ends - n, s), 2, 0)

    def segments(Z):
        return Z[f_idx, ends[..., 0]] - Z[f_idx, ends[..., 1]]

    def smoothed(Z, eps2):
        return np.sqrt((segments(Z) ** 2).sum(axis=2) + eps2).sum(axis=1)

    best, best_len = Y.copy(), _total_lengths(Y, ends)
    for k in range(3, 15):
        eps2 = (10.0**-k * scale) ** 2
        fval = smoothed(Y, eps2)
        for _ in range(30):
            seg = segments(Y)
            ell = np.sqrt((seg**2).sum(axis=2) + eps2)
            u = seg / ell[..., None]
            g = np.zeros((F, s + 1, d))
            np.add.at(g, (f_idx, a), u)
            np.add.at(g, (f_idx, b), -u)
            P = (np.eye(d) - u[..., :, None] * u[..., None, :]) / ell[..., None, None]
            H = np.zeros((F, s + 1, s + 1, d, d))
            for i, j, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                np.add.at(H, (f_idx, i, j), sign * P)
            H = H[:, :s, :s].transpose(0, 1, 3, 2, 4).reshape(F, s * d, s * d)
            try:
                step = np.linalg.solve(H, -g[:, :s].reshape(F, s * d, 1)).reshape(F, s, d)
            except np.linalg.LinAlgError:
                break
            if np.abs(step).max() <= 1e-16 * scale:
                break
            t = np.ones(F)
            pending = np.ones(F, dtype=bool)
            for _ in range(50):
                trial = Y.copy()
                trial[:, n:] += t[:, None, None] * step
                ftrial = smoothed(trial, eps2)
                take = pending & (ftrial <= fval)
                Y[take], fval[take] = trial[take], ftrial[take]
                pending &= ~take
                if not pending.any():
                    break
                t[pending] *= 0.5
            if pending.all():
                break
            cur = _total_lengths(Y, ends)
            better = cur <= best_len
            best[better], best_len[better] = Y[better], cur[better]
    m = n + s
    f, e = np.nonzero(np.linalg.norm(segments(best), axis=2) <= degen)
    root = _cluster_roots(F, m, f, ends[f, e, 0], ends[f, e, 1])
    flat = (root + f_idx * m).ravel()
    mean = np.zeros((F * m, d))
    np.add.at(mean, flat, best.reshape(-1, d))
    mean /= np.bincount(flat, minlength=F * m).clip(1)[:, None]
    snap = best.copy()
    snap[:, n:] = np.where((root < n)[..., None], best[f_idx, root], mean[flat].reshape(F, m, d))[:, n:]
    better = _total_lengths(snap, ends) <= best_len
    best[better] = snap[better]
    X[rows] = best


def _relax_batch(
    terminals: np.ndarray,
    topologies: list[Topology],
    tol: ToleranceConfig,
    max_sweeps: int,
    record_trace: bool = False,
):
    """Relax every topology of one batch.

    Returns (X, lengths, converged, gaps, traces, pruned, sweeps).  ``gaps``
    is each length minus its :func:`_lower_bounds` value, taken after the
    sweeps and again after the finisher; ``converged`` means the gap is at
    most ``eps_len * scale``, so the length is certified within that of the
    topology's optimum.  ``pruned`` marks unconverged topologies whose lower
    bound exceeds the shortest length by more than ``eps_tie``.
    """
    n, d = terminals.shape
    s = n - 2
    T = len(topologies)
    nb, edg = _tables(topologies, n)
    scale = instance_scale(terminals)
    X = np.empty((T, n + s, d))
    X[:, :n] = terminals[None]
    pruned = np.zeros(T, dtype=bool)
    if scale == 0.0:
        X[:, n:] = terminals[0]
        lengths = np.zeros(T)
        return X, lengths, np.ones(T, dtype=bool), np.zeros(T), [np.zeros(T)], pruned, 0

    X[:, n:] = _harmonic_init(terminals, nb)
    trace: list | None = [] if record_trace else None
    move_target = 1e-12 * scale
    degen = max(tol.eps_len * scale, 1e-300)

    sweeps = _gs_sweeps(
        X, nb, n, move_target, max_sweeps, edg, trace, (pruned, degen, tol.eps_tie)
    )
    lengths = _total_lengths(X, edg)
    lb = _lower_bounds(X, nb, edg, n, degen)
    # Only topologies near the current best length matter downstream, so
    # the finisher skips far-from-minimal ones and certified non-minimal
    # ones; those keep an honest converged=False.
    near = lengths <= lengths.min() * (1.0 + 1e-3)
    flagged = np.flatnonzero((lengths - lb > tol.eps_len * scale) & ~pruned & near)
    if len(flagged):
        _newton_finish(X, edg, n, flagged, scale, degen)
        lengths = _total_lengths(X, edg)
        lb[flagged] = _lower_bounds(X[flagged], nb[flagged], edg[flagged], n, degen)
    gaps = lengths - lb
    converged = gaps <= tol.eps_len * scale
    pruned = (pruned | (lb > lengths.min() * (1.0 + tol.eps_tie))) & ~converged
    if trace is not None and (not trace or np.any(trace[-1] != lengths)):
        trace.append(lengths)  # the finisher runs outside the sweep loop
    traces = trace if record_trace else None
    return X, lengths, converged, gaps, traces, pruned, sweeps


def relax_topology(
    terminals,
    topology: Topology,
    tol: ToleranceConfig = DEFAULT_TOL,
    max_sweeps: int = 3000,
) -> EmbeddedTree:
    """Optimal embedding of one full topology (terminals fixed, branches free)."""
    pts = _as_terminal_array(terminals)
    n = pts.shape[0]
    if topology.n_terminals != n:
        raise GeometryError(
            f"topology expects {topology.n_terminals} terminals, got {n}"
        )
    if not topology.is_full():
        raise GeometryError("relax_topology requires a full topology")
    if n == 2:
        length = float(np.linalg.norm(pts[0] - pts[1]))
        return EmbeddedTree(topology, pts, np.empty((0, pts.shape[1])), length, True, (length,))
    X, lengths, converged, _, traces, _, _ = _relax_batch(
        pts, [topology], tol, max_sweeps, record_trace=True
    )
    trace = tuple(float(t[0]) for t in traces) if traces else ()
    return EmbeddedTree(
        topology, pts, X[0, n:].copy(), float(lengths[0]), bool(converged[0]), trace
    )


# ---------------------------------------------------------------------------
# exact solve over all topologies


def _nondegenerate_segments(coords, edges, degen):
    segs = []
    for u, v in edges:
        if np.linalg.norm(coords[u] - coords[v]) > degen:
            segs.append((coords[u], coords[v]))
    return segs


def _same_embedding(segs_a, segs_b, tol_d) -> bool:
    if len(segs_a) != len(segs_b):
        return False
    used = [False] * len(segs_b)
    for pa, qa in segs_a:
        hit = False
        for j, (pb, qb) in enumerate(segs_b):
            if used[j]:
                continue
            direct = max(np.linalg.norm(pa - pb), np.linalg.norm(qa - qb))
            flipped = max(np.linalg.norm(pa - qb), np.linalg.norm(qa - pb))
            if min(direct, flipped) <= tol_d:
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True


def solve_exact(
    terminals,
    tol: ToleranceConfig = DEFAULT_TOL,
    n_max: int = 9,
    max_sweeps: int = 3000,
) -> SolveResult:
    """Shortest terminal-spanning network by exhaustion over full topologies.

    Non-full optima are reached through degenerate (zero-length) edges of
    full topologies, so exhausting full topologies is exhaustive, period.
    Cominimal topologies -- distinct topologies within ``eps_tie`` (relative)
    of the optimal length -- are reported after merging any whose embeddings
    coincide pointwise (two topologies degenerating to the same tree).
    """
    pts = _as_terminal_array(terminals)
    n, d = pts.shape
    if n == 2:
        topo = Topology(2, 0, ((0, 1),))
        length = float(np.linalg.norm(pts[0] - pts[1]))
        tree = EmbeddedTree(topo, pts, np.empty((0, d)), length, True, (length,))
        return SolveResult(tree, [topo], 1, 0)

    topologies = enumerate_full_topologies(n, n_max=n_max)
    X, lengths, converged, gaps, _, pruned, sweeps = _relax_batch(pts, topologies, tol, max_sweeps)
    scale = instance_scale(pts)

    best = int(np.argmin(lengths))
    best_tree = EmbeddedTree(
        topologies[best],
        pts,
        X[best, n:].copy(),
        float(lengths[best]),
        bool(converged[best]),
    )

    l_min = float(lengths[best])
    tie = l_min * tol.eps_tie + 1e-300
    near = [
        t
        for t in np.flatnonzero(lengths <= l_min + tie)
        if converged[t] or t == best
    ]
    degen = tol.eps_len * scale
    merge_tol = 1e-6 * scale if scale > 0 else 1e-12
    reps: list[int] = []
    rep_segs: list[list] = []
    for t in sorted(near, key=lambda t: (lengths[t], t)):
        segs = _nondegenerate_segments(X[t], topologies[t].edges, degen)
        if any(_same_embedding(segs, rs, merge_tol) for rs in rep_segs):
            continue
        reps.append(t)
        rep_segs.append(segs)
    cominimal = [topologies[t] for t in reps]
    n_pruned = int(pruned.sum())
    n_unconverged = int((~converged).sum()) - n_pruned
    return SolveResult(
        best_tree, cominimal, len(topologies), n_unconverged, n_pruned, sweeps, float(gaps[best])
    )


# ---------------------------------------------------------------------------
# verification and ball-local measurements


def _contract(coords: np.ndarray, edges, degen: float):
    """Merge endpoints of degenerate edges; returns (positions, (k, 2) edge pairs).

    Each surviving vertex is the mean of its merged cluster.  Surviving edges
    keep one entry per original edge whose endpoints landed in different
    clusters (a tree stays a tree under edge contraction).
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    short = np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1) <= degen
    index_of = np.unique(_labels(len(coords), e[short]), return_inverse=True)[1]
    positions = np.zeros((index_of.max() + 1, coords.shape[1]))
    np.add.at(positions, index_of, coords)
    positions /= np.bincount(index_of)[:, None]
    pairs = index_of[e]
    return positions, pairs[pairs[:, 0] != pairs[:, 1]]


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded exactly as numpy's 1-d ``u @ w``."""
    return (u[..., None, :] @ w[..., :, None])[..., 0, 0]


def _norm(u: np.ndarray) -> np.ndarray:
    """Row-wise lengths, rounded exactly as ``np.linalg.norm`` of one row."""
    return np.sqrt(_dot(u, u))


def _segment_sphere(seg: np.ndarray, center: np.ndarray, radius: float):
    """Per segment p + s v: (v, a, b, disc, sorted roots) of |p + s v - center| = radius."""
    v = seg[:, 1] - seg[:, 0]
    w = seg[:, 0] - center
    a = _dot(v, v)
    b = 2.0 * _dot(w, v)
    disc = b * b - 4.0 * a * (_dot(w, w) - radius * radius)
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(disc)
        roots = np.stack([(-b - sq) / (2 * a), (-b + sq) / (2 * a)], axis=1)
    return v, a, b, disc, roots


def verify_tree(tree: EmbeddedTree, tol: ToleranceConfig = DEFAULT_TOL) -> TreeReport:
    """Structural and angle report after contracting degenerate edges.

    Array-wide over all edges.  Angles are taken between every two distinct
    neighbours of every contracted vertex with Kahan's formula, as in
    ``geometry.angle_at``.
    """
    coords = tree.coords()
    degen = tol.eps_len * tree.scale()
    e = np.asarray(tree.topology.edges, dtype=np.int64).reshape(-1, 2)
    lens = _norm(coords[e[:, 0]] - coords[e[:, 1]])
    degenerate = tuple(map(tuple, e[lens <= degen].tolist()))
    positions, pairs = _contract(coords, e, degen)

    v_count = len(positions)
    # Connected with v - 1 edges is a tree; no parallel edges can remain.
    is_tree = len(pairs) == v_count - 1 and not _labels(v_count, pairs).any()
    links = np.unique(np.sort(pairs, axis=1), axis=0)  # parallel edges once
    max_degree = int(np.bincount(links.ravel(), minlength=v_count).max())

    # Both directions of every link, grouped by vertex; pairs of neighbours
    # of one vertex sit `gap` places apart for some gap < max_degree.
    arcs = np.concatenate([links, links[:, ::-1]])
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    triples = [
        np.column_stack([arcs[:-gap, 0], arcs[:-gap, 1], arcs[gap:, 1]])[arcs[:-gap, 0] == arcs[gap:, 0]]
        for gap in range(1, max_degree)
    ]
    min_angle = None
    if triples:
        v, a, b = np.concatenate(triples).T
        u, w = positions[a] - positions[v], positions[b] - positions[v]
        nu, nw = _norm(u)[:, None], _norm(w)[:, None]
        if not (nu.all() and nw.all()):
            raise GeometryError("degenerate ray: endpoints must differ from the vertex")
        x, y = u * nw, w * nu
        min_angle = float((2.0 * np.arctan2(_norm(x - y), _norm(x + y))).min())
    angles_ok = min_angle is None or min_angle >= MIN_BRANCH_ANGLE - tol.eps_angle
    return TreeReport(
        length=float(sum(lens.tolist())),  # in edge order
        is_tree=is_tree,
        max_degree=max_degree,
        min_angle=min_angle,
        n_degenerate_edges=len(degenerate),
        degenerate_edges=degenerate,
        angles_ok=angles_ok,
    )


def count_crossings(
    tree: EmbeddedTree,
    center,
    r: float,
    t: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CrossingReport:
    """Intersection count of the tree with the sphere of radius t*r about center.

    Tangential touches contribute a single point; intersection points shared
    by two edges (a vertex sitting on the sphere) are deduplicated by
    location, the first in edge order kept.  When an edge runs within
    ``coverage_eps`` of the sphere without cleanly crossing it -- so that an
    infinitesimal wiggle would change the count -- the report carries a
    ``degenerate`` flag.  The roots of all edges are taken at once.
    """
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    x = np.asarray(center, dtype=float)
    radius = t * r
    flag_eps = tol.coverage_eps
    seg = tree.segments()
    v, a, b, disc, roots = _segment_sphere(seg, x, radius)
    hit = ((a > 0.0) & (disc >= 0.0))[:, None] & (roots >= 0.0) & (roots <= 1.0)
    # Near-double root: a grazing pass that a perturbation could turn into
    # zero or one hit.
    grazing = hit.all(axis=1) & ((roots[:, 1] - roots[:, 0]) * np.sqrt(a) <= flag_eps)
    hit[grazing, 1] = False
    with np.errstate(invalid="ignore", divide="ignore"):
        s_star = np.where(a > 0.0, np.clip(-b / (2.0 * a), 0.0, 1.0), 0.0)
    approach = np.abs(_norm(seg[:, 0] - x + s_star[:, None] * v) - radius)
    on_sphere = np.abs(_norm(seg - x) - radius) <= flag_eps
    lone = ~hit.any(axis=1) & (approach <= flag_eps)  # no hit, but grazes the sphere
    degenerate = bool(grazing.any() or lone.any() or on_sphere.any())
    pts = (seg[:, None, 0] + roots[..., None] * v[:, None])[hit]
    # Deduplicate by location (vertex-on-sphere shared by adjacent edges).
    keep = np.ones(len(pts), dtype=bool)
    close = cKDTree(pts).query_pairs(1e-9 * max(radius, 1.0), output_type="ndarray")
    for i, j in close[np.lexsort(close.T)].tolist():
        if keep[i]:
            keep[j] = False
    return CrossingReport(count=int(keep.sum()), degenerate=degenerate, points=pts[keep])


def length_in_ball(tree: EmbeddedTree, center, r: float, t: float) -> float:
    """Exact length of the tree inside the closed ball of radius t*r, all edges at once."""
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    _, a, _, disc, roots = _segment_sphere(tree.segments(), np.asarray(center, dtype=float), t * r)
    chord = np.minimum(roots[:, 1], 1.0) - np.maximum(roots[:, 0], 0.0)
    inside = (a > 0.0) & (disc > 0.0) & (chord > 0.0)
    return float(sum((chord[inside] * np.sqrt(a[inside])).tolist()))  # in edge order


def count_branching_in_ball(
    tree: EmbeddedTree,
    center,
    r: float,
    t: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> int:
    """Branch points (contracted degree >= 3, one bincount) strictly inside B(center, t*r)."""
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    positions, pairs = _contract(tree.coords(), tree.topology.edges, tol.eps_len * tree.scale())
    degree = np.bincount(pairs.ravel(), minlength=len(positions))
    inside = np.linalg.norm(positions - np.asarray(center, dtype=float), axis=1) < t * r
    return int(((degree >= 3) & inside).sum())
