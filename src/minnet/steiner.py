"""Exact Euclidean Steiner tree solver over full-topology enumeration.

The geometric optimum for a *fixed* topology is found by block-coordinate
descent: each branch node moves to the exact Fermat point of its three
current neighbors (closed form, so degenerate collapses land exactly on a
vertex).  :func:`_gs_sweeps` moves each of two colour classes of branch
nodes with one batched kernel call, which is node-by-node Gauss-Seidel, and
recomputes only nodes with a neighbour that moved since their last update.
Total length is convex in the branch coordinates, and each node update is
the exact block minimizer, so the sweep never increases length.  The exact
solver and the heuristic relax through it.  :func:`_relax_batch` (sweeps,
certificate, finisher) relaxes point terminals and the balls of
``mdm.solve_mdm_finite``, each leaf free in its ball, alike.
:func:`_relax_forest` relaxes one heuristic tree: the same sweeps, with the
same finisher on the branch nodes still moving every 40 sweeps.

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
uncertified topologies, with eps driven toward machine scale.  Each eps
level ends when every topology's Newton decrement reaches the round-off
floor of its smoothed length, and backtracking starts near the last
accepted step.  It never lengthens a topology, so monotonicity holds.
With point terminals the finisher runs only near the running minimum: at
its finest eps level at the sweeps' pruning checkpoints, on topologies with
a small duality gap, then fully on those the sweeps leave uncertified.
Far-from-minimal stalls keep an honest ``converged=False`` and a length
that is a slight overestimate (upper bound) of their true optimum.  With
ball terminals it runs after the sweeps on every topology whose bound can
still beat the shortest length.

:func:`solve_exact` first bounds every full topology at its harmonic start,
against the shorter of the terminals' minimum spanning tree and the shortest
harmonic embedding: both are lengths of real trees, so a topology whose
bound exceeds that cutoff by ``eps_tie`` is certified non-minimal without a
sweep (the first step of Smith's branch-and-bound, *Algorithmica* 7, 1992).
It sweeps the survivors as one batch (they share the same array shapes for
a given terminal count), and each topology retires from the batch on its
own: once a sweep moves none of its branch nodes, or once its lower bound
prunes it.  No topology is dropped on a guess, so the winner and every
cominimal topology are always fully relaxed; cominimal topologies are
reported within a relative tie tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    ToleranceConfig,
    _angles,
    _check_extent,
    _dot,
    _norm,
    fermat_point_triples,
)
from .topology import Topology, _branch_neighbours, _full_topology_arrays, _topologies, count_full_topologies

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
_BOUND_BLOCK = 4096  # topologies per dense incidence in _lower_bounds
_MAX_SWEEPS = 3000  # sweep cap of one batch relaxation
# Sweeps between the pruning checkpoints of _gs_sweeps.  The few survivors of
# solve_exact's start pass are checked every 4, so the checkpoint finish settles
# the near-best early; single topologies, ball terminals and batches under
# _START_PASS_MIN keep the 10 they were tuned at.
_CHECKPOINT, _CHECKPOINT_SURVIVORS = 10, 4
# Sweep cap with ball terminals: Newton finishes every topology whose bound can
# win, and past a few dozen sweeps a leaf and a branch node on its sphere crawl.
_BALL_SWEEPS = 50
_EPS_LEVELS = range(3, 15)  # the finisher's smoothing levels, eps = 10^-k * scale
# Sweeps of one tree before the nodes still moving are finished by Newton.
_FINISH_AFTER = 40
# Gates of the checkpoint finish in _gs_sweeps.  Without the gap gate, relax_topology on
# the 3-d n = 32 caterpillar of corpus draw 32a takes 44-61 ms instead of 27 ms (2-CPU box).
_FINISH_NEAR, _FINISH_GAP = 1e-3, 1e-2  # relative to the best length; times scale
# Fewest topologies for which solve_exact bounds them all at their harmonic start.
# That pass can cut nothing at n = 3, cost more than it saved at n = 4 and saved
# nothing measurable at n = 5 (1, 3 and 15 topologies; 2-CPU box).
_START_PASS_MIN = 105


def _as_terminal_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 2:
        raise GeometryError(f"terminals must have shape (n >= 2, d >= 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("terminals contain non-finite coordinates")
    _check_extent(pts)
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
        e = self.topology.edge_array
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
    of the main phase, ``gap`` is the winner's length minus its lower
    bound, and ``newton_steps`` counts the finisher's Newton steps.
    """

    tree: EmbeddedTree
    cominimal: list[Topology]
    n_topologies: int
    n_unconverged: int
    n_pruned: int = 0
    sweeps: int = 0
    gap: float = 0.0
    newton_steps: int = 0


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


def _total_lengths(X: np.ndarray, edg: np.ndarray) -> np.ndarray:
    t_idx = np.arange(X.shape[0])[:, None]
    return np.linalg.norm(X[t_idx, edg[:, :, 0]] - X[t_idx, edg[:, :, 1]], axis=2).sum(axis=1)


def _lower_bounds(X, edg, n: int, degen: float, balls=None, rounds: int = _DUAL_ROUNDS) -> np.ndarray:
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

    ``rounds`` sets the number of clip rounds (``_DUAL_ROUNDS`` by default).
    Any number gives a sound bound; one round costs about half as much and
    is usually looser, which suits a first pass over many rows.

    Given ``balls`` as for :func:`_gs_sweeps`, leaf t is free in B(c_t, rho_t):
    its part x_t . div_t is at least c_t . div_t - rho_t |div_t|, and the hull
    term becomes min_t r_i . (c_t - x_i) - rho_t |r_i|.  For fixed terminals,
    c_t = x_t and rho_t = 0, both extra terms are exactly 0.0 and are skipped.
    Each row's arithmetic is its own, so blocks of ``_BOUND_BLOCK`` rows give
    the same bounds bit for bit and cap the dense (T, m, E) incidence.
    """
    T, m, _ = X.shape
    if T > _BOUND_BLOCK:
        cut = range(_BOUND_BLOCK, T, _BOUND_BLOCK)
        parts = zip(np.split(X, cut), np.split(edg, cut))
        return np.concatenate([_lower_bounds(x, e, n, degen, balls, rounds) for x, e in parts])
    e_idx = np.arange(edg.shape[1])
    t_idx = np.arange(T)[:, None]
    delta = X[t_idx, edg[..., 0]] - X[t_idx, edg[..., 1]]
    ell = np.linalg.norm(delta, axis=2)
    u = np.where((ell > degen)[..., None], delta / np.maximum(ell, degen)[..., None], 0.0)
    w = 1.0 / np.maximum(ell, _WEIGHT_FLOOR * degen)[..., None]
    # Signed incidence of every node; B holds the branch rows.
    full = np.zeros((T, m, edg.shape[1]))
    full[t_idx, edg[..., 0], e_idx] = 1.0
    full[t_idx, edg[..., 1], e_idx] = -1.0
    B = full[:, n:]
    Bt = B.transpose(0, 2, 1)
    lap = B @ (w * Bt)
    for k in range(rounds + 1):
        u += w * (Bt @ np.linalg.solve(lap, -(B @ u)))
        if k < rounds:
            u /= np.maximum(np.linalg.norm(u, axis=2), 1.0)[..., None]
    u /= np.linalg.norm(u, axis=2).max(axis=1)[:, None, None]
    r = B @ u
    centers = X[:, :n] if balls is None else np.broadcast_to(balls[0], X[:, :n].shape)
    # min over the hull of r_i . (y_i - x_i) is attained at a terminal.
    drop = np.einsum("tsd,tsnd->tsn", r, centers[:, None] - X[:, n:, None, :])
    if balls is None:
        return (u * delta).sum(axis=(1, 2)) + drop.min(axis=2).sum(axis=1)
    div = full[:, :n] @ u
    leaf = (div * (centers - X[:, :n])).sum(axis=2) - balls[1] * np.linalg.norm(div, axis=2)
    drop = (drop - balls[1] * np.linalg.norm(r, axis=2)[..., None]).min(axis=2)
    return (u * delta).sum(axis=(1, 2)) + drop.sum(axis=1) + leaf.sum(axis=1)


def _nearest_in_balls(Y: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The point of each ball B(centers[i], radii[i]) nearest ``Y[..., i, :]``."""
    v = Y - centers
    dist = np.linalg.norm(v, axis=-1)
    return centers + (np.minimum(dist, radii) / np.where(dist == 0.0, 1.0, dist))[..., None] * v


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


class _FullColours:
    """Colour classes of the full topologies on n terminals, each row coloured on first use.

    ``colours[rows]`` is :func:`_colour_classes` of those rows of
    ``_full_topology_arrays(n)``, computed once per process.  Filled lazily:
    colouring all 135 135 rows at n = 9 costs more time and peak memory than
    the few rows a solve sweeps.
    """

    def __init__(self, n: int):
        self.n = n
        self.table = np.zeros((count_full_topologies(n), n - 2), dtype=bool)
        self.filled = np.zeros(len(self.table), dtype=bool)

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        todo = rows[~self.filled[rows]]
        if len(todo):
            self.table[todo] = _colour_classes(_full_topology_arrays(self.n, self.n)[0][todo], self.n)
            self.filled[todo] = True
        return self.table[rows]


_full_colours = cache(_FullColours)  # the per-n colour memo


def _gs_sweeps(
    X: np.ndarray,
    nb: np.ndarray,
    n: int,
    colour: np.ndarray,
    move_target: float,
    max_sweeps: int,
    edg: np.ndarray | None = None,
    trace: list | None = None,
    certify: tuple | None = None,
    balls: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> int:
    """In-place Gauss-Seidel Fermat sweeps over a shrinking batch; returns sweeps run.

    A sweep moves the branch nodes of colour 0 (``colour``, the
    :func:`_colour_classes` of ``nb``) to their Fermat points with one
    kernel call, then those of colour 1.  No edge joins two nodes of one
    colour, so the class update is node-by-node Gauss-Seidel: each node
    lands on the exact minimizer of its three edges with its neighbours
    fixed, and length never increases.

    Only nodes that can move are recomputed.  A node is *stirred* when it
    moved by more than ``move_target`` at its last update and its neighbours
    have not been redone since.  A topology's first sweep, and its first
    after a Newton finish, recompute every branch node; otherwise a class
    pass recomputes only the nodes with a stirred neighbour, then clears the
    other class's flags (it has just read them) and flags its own nodes that
    moved.  A class with no such node makes no kernel call.  Skipping is
    exact: the kernel is closed-form and works row by row, so a node whose
    three neighbours stood still gets its own coordinates back bit for bit.
    With ``move_target`` 0 the sweeps equal full sweeps exactly; otherwise
    the embedding differs from theirs by about ``move_target``.

    A topology leaves the batch after its first sweep that moves no node by
    more than ``move_target``, so without ``certify`` its embedding does
    not depend on how slowly the others settle.  Given ``certify = (bounds,
    degen, eps_tie, scale, steps, every)`` and ``edg``, every ``every``
    sweeps (a checkpoint) a still-moving topology also leaves once its
    certified lower bound exceeds the incumbent (the shortest embedding seen
    in the batch) by ``eps_tie``, that bound written to ``bounds`` (NaN
    elsewhere).  With point terminals, those within ``_FINISH_NEAR`` of the
    incumbent and ``_FINISH_GAP * scale`` of their bound then get
    :func:`_newton_finish`'s finest eps level, kept where it shortens them,
    and its step count goes to ``steps``.  A topology whose finish tied (did
    not shorten it) is not finished again at later checkpoints.

    Given ``balls = (centers, radii, leaf_nbr)``, the first n nodes are not
    fixed terminals but leaves free in the balls B(centers[i], radii[i]):
    each sweep starts by moving every leaf to the point of its ball nearest
    its one neighbour ``leaf_nbr[t, i]``, the exact block minimizer for a
    leaf.  Those moves count toward retirement like the others, and a leaf
    is stirred by its own move in each sweep.
    """
    act = np.arange(len(nb))
    Xa, nba = X, nb
    stirred = np.zeros((len(nb), X.shape[1]), dtype=bool)
    fresh = np.zeros(len(nb), dtype=bool)  # just finished: recompute every node
    tied = np.zeros(len(nb), dtype=bool)  # last finish tied: not finished again
    if certify is not None:
        bounds, degen, eps_tie, scale, steps, every = certify
        best = _total_lengths(X, edg)
    sweeps = 0
    classes = None
    while sweeps < max_sweeps and len(act):
        if classes is None:  # (row, column, neighbours) of each colour class
            split = [np.nonzero(colour[act] == c) for c in (False, True)]
            classes = [(rows, n + i, nba[rows, i]) for rows, i in split if len(rows)]
        keep = np.zeros(len(act), dtype=bool)
        if balls is not None:
            new = _nearest_in_balls(Xa[np.arange(len(act))[:, None], balls[2][act]], *balls[:2])
            stirred[:, :n] = np.linalg.norm(new - Xa[:, :n], axis=2) > move_target
            keep = stirred[:, :n].any(axis=1)
            Xa[:, :n] = new
        for rows, cols, nbrs in classes:
            if sweeps:
                due = fresh[rows] | stirred[rows[:, None], nbrs].any(axis=1)
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
        fresh[:] = False
        if trace is not None and edg is not None:
            if Xa is not X:
                X[act] = Xa
            trace.append(_total_lengths(X, edg))
        if certify is not None and sweeps % every == 0:
            best[act] = _total_lengths(Xa, edg[act])
            cutoff = best.min() * (1.0 + eps_tie)
            rows = np.flatnonzero(keep)
            lb = _lower_bounds(Xa[rows], edg[act[rows]], n, degen, balls)
            dead = lb > cutoff
            bounds[act[rows[dead]]] = lb[dead]
            keep[rows[dead]] = False
            near = ~dead & ~tied[rows] & (best[act[rows]] - lb <= _FINISH_GAP * scale)
            near = rows[near & (best[act[rows]] <= best.min() * (1.0 + _FINISH_NEAR))]
            if balls is None and len(near):
                before = Xa[near]
                steps.append(_newton_finish(Xa, edg[act], n, near, scale, degen, levels=_EPS_LEVELS[-1:]))
                # A tie, moved along a flat direction, would be swept back and finished again.
                tie = _total_lengths(Xa[near], edg[act[near]]) >= best[act[near]]
                Xa[near[tie]] = before[tie]
                tied[near[tie]] = True
                fresh[near[~tie]] = True
        if not keep.all() and sweeps < max_sweeps:
            if Xa is not X:
                X[act] = Xa
            if certify is not None:
                best[act[~keep]] = _total_lengths(Xa[~keep], edg[act[~keep]])
            act = act[keep]
            Xa, nba, stirred, fresh, tied = X[act], nb[act], stirred[keep], fresh[keep], tied[keep]
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


def _newton_finish(
    X, edg, n: int, rows: np.ndarray, scale: float, degen: float, balls=None, levels=_EPS_LEVELS
) -> int:
    """Damped Newton on the smoothed length of the topologies in ``rows``, in place.

    Coordinate descent stalls where coincident branch nodes want to move as
    a block, and crawls where short edges couple branch nodes stiffly.  Both
    are finished by Newton's method on sum_e sqrt(l_e^2 + eps^2) over all
    branch nodes at once, which is smooth and strictly convex for eps > 0,
    so zero-length edges need no special case.  The Hessian is assembled
    from the edge blocks (I - u u^T) / l_eps with u = e / l_eps.  Each
    topology's step is halved, from min(1, 4 t) for its last accepted step t
    at this eps (1 at first), until its smoothed length f does not grow.  A
    topology whose Newton decrement -g . step is at most 1e-15 f, about 4 ulp
    of f, takes no step, and an eps level ends once none is left.  eps steps
    through ``levels``, by default from 1e-3 down to 1e-14 of the instance
    scale; a warm start near the optimum takes the last level only.
    The iterate with the shortest true length (the latest one on a tie) is
    kept, so no topology gets longer.  The smoothed optimum leaves collapsed
    nodes about eps apart, so each cluster of nodes joined by edges <=
    ``degen`` is then snapped onto its first terminal, or onto its mean if
    it holds none, wherever that does not lengthen the topology.  Returns
    the number of Newton steps taken, one Hessian solve each.

    Given ``balls`` as for :func:`_gs_sweeps`, each iterate's leaves sit at
    the points of their balls B(c, rho) nearest their branch nodes y, so a leaf
    edge is sqrt(max(0, q - rho)^2 + eps^2), q = |y - c|, with Hessian block
    eps^2 / l^3 along w = (y - c) / q and max(0, q - rho) / (q l) across it.
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

    def place(Z):
        if balls is not None:
            Z[:, :n] = _nearest_in_balls(Z[f_idx, balls[2][rows]], balls[0], balls[1])
        return Z

    def smoothed(Z, eps2):
        return np.sqrt((segments(Z) ** 2).sum(axis=2) + eps2).sum(axis=1)

    best, best_len = place(Y).copy(), _total_lengths(Y, ends)
    steps = 0
    for k in levels:
        eps2 = (10.0**-k * scale) ** 2
        fval = smoothed(Y, eps2)
        t_last = np.ones(F)
        for _ in range(30):
            steps += 1
            seg = segments(Y)
            ell = np.sqrt((seg**2).sum(axis=2) + eps2)
            u = seg / ell[..., None]
            g = np.zeros((F, s + 1, d))
            np.add.at(g, (f_idx, a), u)
            np.add.at(g, (f_idx, b), -u)
            P = (np.eye(d) - u[..., :, None] * u[..., None, :]) / ell[..., None, None]
            if balls is not None:
                e = segments(np.concatenate([np.broadcast_to(balls[0], (F, n, d)), Y[:, n:]], axis=1))
                q = np.linalg.norm(e, axis=2)[..., None, None]
                q1 = np.where(q > 0.0, q, 1.0)
                w = e[..., :, None] * e[..., None, :] / (q1 * q1)
                across = np.where(q > 0.0, np.linalg.norm(seg, axis=2)[..., None, None] / q1, 1.0)
                P = (across * (np.eye(d) - w) + eps2 / ell[..., None, None] ** 2 * w) / ell[..., None, None]
            H = np.zeros((F, s + 1, s + 1, d, d))
            for i, j, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                np.add.at(H, (f_idx, i, j), sign * P)
            H = H[:, :s, :s].transpose(0, 1, 3, 2, 4).reshape(F, s * d, s * d)
            try:
                step = np.linalg.solve(H, -g[:, :s].reshape(F, s * d, 1)).reshape(F, s, d)
            except np.linalg.LinAlgError:
                break
            active = -(g[:, :s] * step).sum(axis=(1, 2)) > 1e-15 * fval
            if not active.any():
                break
            t = np.minimum(1.0, 4.0 * t_last)
            pending = active.copy()
            f_prev = fval.copy()
            for _ in range(50):
                trial = Y.copy()
                trial[:, n:] += t[:, None, None] * step
                ftrial = smoothed(place(trial), eps2)
                take = pending & (ftrial <= fval)
                Y[take], fval[take], t_last[take] = trial[take], ftrial[take], t[take]
                pending &= ~take
                if not pending.any():
                    break
                t[pending] *= 0.5
            # With balls, a step that no longer shortens ends this eps: without
            # this stop criterion 08 runs twice the steps, 10 s instead of 5 s.
            if (pending == active).all() or (balls is not None and not (fval < f_prev).any()):
                break
            cur = _total_lengths(Y, ends)
            better = cur <= best_len
            best[better], best_len[better] = Y[better], cur[better]
    m = n + s
    f, e = np.nonzero(np.linalg.norm(segments(best), axis=2) <= degen)
    if len(f):  # with no edge <= degen every cluster is one node, and the snap is void
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
    return steps


def _relax_batch(
    terminals: np.ndarray,
    nb: np.ndarray,
    edg: np.ndarray,
    tol: ToleranceConfig,
    record_trace: bool = False,
    radii: np.ndarray | None = None,
    incumbent: float | None = None,
    colour=None,
):
    """Relax the full topologies ``nb``, ``edg`` (as ``topology._full_topology_arrays`` builds).

    Returns (X, lengths, converged, gaps, traces, pruned, sweeps,
    newton_steps).  ``gaps`` is each length minus its :func:`_lower_bounds`
    value: the one that pruned it, else one taken after the sweeps and the
    finisher.  ``converged`` means the gap is at most ``eps_len * scale``, so
    the length is certified within that of the topology's optimum.
    ``pruned`` marks unconverged topologies whose lower bound exceeds the
    shortest length by more than ``eps_tie``.  ``newton_steps`` sums the
    finisher's steps in and after the sweeps (:func:`_gs_sweeps`).

    Given ``radii``, terminal i is the ball B(terminals[i], radii[i]), and
    uncertified topologies are finished one at a time, lowest bound first,
    while a bound is within ``eps_tie`` of the shortest length.

    Given ``incumbent``, the length of a tree on the terminals, every
    topology is first bounded at its harmonic start (1 dual round, then 5 on
    the survivors) against min(``incumbent``, shortest harmonic length) times
    ``1 + eps_tie``.  The rows cut keep that embedding and bound; only the
    others are swept, with a checkpoint every ``_CHECKPOINT_SURVIVORS``
    sweeps instead of ``_CHECKPOINT``, and every checkpoint's shortest
    length is still the one the whole batch would reach.

    ``colour[rows]`` gives the :func:`_colour_classes` of rows of ``nb``,
    as ``_full_colours(n)`` does for ``_full_topology_arrays(n)``; without
    it the swept rows are coloured here.
    """
    n, d = terminals.shape
    s = n - 2
    T = len(edg)
    scale = instance_scale(terminals)
    X = np.empty((T, n + s, d))
    X[:, :n] = terminals[None]
    if scale == 0.0:
        X[:, n:] = terminals[0]
        lengths = np.zeros(T)
        return X, lengths, np.ones(T, dtype=bool), np.zeros(T), [np.zeros(T)], np.zeros(T, dtype=bool), 0, 0

    X[:, n:] = _harmonic_init(terminals, nb)
    trace: list | None = [] if record_trace else None
    move_target = 1e-12 * scale
    degen = max(tol.eps_len * scale, 1e-300)
    balls = None
    if radii is not None:  # terminal i ends one edge: the first n sorted ends are 0..n-1
        first = edg.reshape(T, -1).argsort(axis=1)[:, :n]
        balls = (terminals, radii, np.take_along_axis(edg[..., ::-1].reshape(T, -1), first, axis=1))

    cap = _MAX_SWEEPS if balls is None else _BALL_SWEEPS
    lb, steps = np.full(T, np.nan), []
    live = np.arange(T)
    every = _CHECKPOINT
    if incumbent is not None:
        every = _CHECKPOINT_SURVIVORS
        cutoff = min(incumbent, _total_lengths(X, edg).min()) * (1.0 + tol.eps_tie)
        for rounds in (1, _DUAL_ROUNDS):
            bound = _lower_bounds(X[live], edg[live], n, degen, rounds=rounds)
            cut = bound > cutoff
            lb[live[cut]] = bound[cut]
            live = live[~cut]
    Xl, lbl = X[live], lb[live]
    certify = (lbl, degen, tol.eps_tie, scale, steps, every)
    colour = _colour_classes(nb[live], n) if colour is None else colour[live]
    sweeps = _gs_sweeps(Xl, nb[live], n, colour, move_target, cap, edg[live], trace, certify, balls)
    X[live], lb[live] = Xl, lbl
    pruned = ~np.isnan(lb)  # these carry the bound that pruned them
    lengths = _total_lengths(X, edg)
    lb[~pruned] = _lower_bounds(X[~pruned], edg[~pruned], n, degen, balls)
    open_ = (lengths - lb > tol.eps_len * scale) & ~pruned
    newton_steps = sum(steps)
    if balls is None:
        # Only topologies near the current best length matter downstream, so
        # the finisher skips far-from-minimal ones and certified non-minimal
        # ones; those keep an honest converged=False.
        flagged = np.flatnonzero(open_ & (lengths <= lengths.min() * (1.0 + _FINISH_NEAR)))
        if len(flagged):
            newton_steps += _newton_finish(X, edg, n, flagged, scale, degen)
            lengths[flagged] = _total_lengths(X[flagged], edg[flagged])
            lb[flagged] = _lower_bounds(X[flagged], edg[flagged], n, degen)
    else:
        while (due := np.flatnonzero(open_ & (lb <= lengths.min() * (1.0 + tol.eps_tie)))).size:
            row = due[[np.argmin(lb[due])]]
            newton_steps += _newton_finish(X, edg, n, row, scale, degen, balls)
            lengths[row] = _total_lengths(X[row], edg[row])
            lb[row] = _lower_bounds(X[row], edg[row], n, degen, balls)
            open_[row] = False
    gaps = lengths - lb
    converged = gaps <= tol.eps_len * scale
    pruned = (pruned | (lb > lengths.min() * (1.0 + tol.eps_tie))) & ~converged
    if trace is not None and (not trace or np.any(trace[-1] != lengths)):
        trace.append(lengths)  # the last finisher runs after the sweep loop
    return X, lengths, converged, gaps, trace, pruned, sweeps, newton_steps


def _relax_forest(
    X: np.ndarray, nb: np.ndarray, n: int, move_target: float, max_sweeps: int, scale: float
) -> int:
    """Relax the branch nodes of one tree in place; returns the sweeps run.

    X holds the nodes (fixed points first, then the branch nodes, each of
    degree 3 with neighbours ``nb``; rows past them are ignored).  The
    sweeps are :func:`_gs_sweeps` with ``move_target``, at most
    ``max_sweeps`` in all.  A tree still moving after ``_FINISH_AFTER``
    sweeps has crawlers: clusters of branch nodes a hair apart that the
    sweeps move by tiny steps.  Its *movers*, the branch nodes that moved by
    more than ``move_target`` in that last sweep, are then finished by
    :func:`_newton_finish`, and the sweeps resume; every ``_FINISH_AFTER``
    sweeps the movers are finished again, until the tree settles or
    ``max_sweeps`` run.  A component of k movers
    (:func:`_labels`), with its k + 2 fixed neighbours copied in as leaves,
    is a full topology, so the finisher runs on it unchanged, batched over
    the components of each size.  The movers sit within about 1e-8 of the
    scale of their optimum, so it starts at its finest eps level.  It never
    lengthens a component, and the rest of the tree stays fixed, so the tree
    does not get longer.
    """
    s = len(nb)
    mate = np.where(nb >= n, nb - n, 0)
    degen = max(DEFAULT_TOL.eps_len * scale, 1e-300)
    colour = _colour_classes(nb[None], n)  # one colouring for every resume
    sweeps = 0
    while True:
        cap = min(_FINISH_AFTER - 1, max_sweeps - sweeps)
        run = _gs_sweeps(X[None], nb[None], n, colour, move_target, cap)
        sweeps += run
        if run < cap or sweeps == max_sweeps:
            return sweeps
        before = X[n : n + s].copy()
        sweeps += _gs_sweeps(X[None], nb[None], n, colour, move_target, 1)
        moving = np.linalg.norm(X[n : n + s] - before, axis=1) > move_target
        if not moving.any() or sweeps == max_sweeps:
            return sweeps
        # Each mover's component of movers, its members in node order.
        i, c = np.nonzero(moving[:, None] & (nb >= n) & moving[mate])
        lab = _labels(s, np.column_stack([i, mate[i, c]]))
        movers = np.flatnonzero(moving)
        movers = movers[np.argsort(lab[movers], kind="stable")]
        lab = lab[movers]
        starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        size = np.diff(np.r_[starts, len(movers)])
        slot = np.full(len(X), -1)  # each mover's place in its component
        slot[n + movers] = np.arange(len(movers)) - np.repeat(starts, size)
        for k in np.unique(size).tolist():
            members = movers[starts[size == k][:, None] + np.arange(k)]  # (F, k)
            F = len(members)
            nbr = nb[members]
            local = slot[nbr]
            j = np.broadcast_to(np.arange(k)[:, None], nbr.shape)
            # The k + 2 ends outside a component are distinct: the tree has no
            # cycle.  They become leaves 0..k+1, the members nodes k+2..2k+1.
            outer = local < 0
            inner = local > j  # each edge inside once
            leaf = np.broadcast_to(np.arange(-k - 2, 0), (F, k + 2))
            a = np.concatenate([leaf, j[inner].reshape(F, k - 1)], axis=1)
            b = np.concatenate([j[outer].reshape(F, k + 2), local[inner].reshape(F, k - 1)], axis=1)
            Y = np.concatenate([X[nbr[outer].reshape(F, k + 2)], X[n + members]], axis=1)
            edg = np.stack([a, b], axis=2) + k + 2
            _newton_finish(Y, edg, k + 2, np.arange(F), scale, degen, levels=_EPS_LEVELS[-1:])
            X[n + members] = Y[:, k + 2 :]


def relax_topology(
    terminals,
    topology: Topology,
    tol: ToleranceConfig = DEFAULT_TOL,
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
    edg = topology.edge_array[None]
    nb = _branch_neighbours(edg, n)
    X, lengths, converged, _, traces, *_ = _relax_batch(pts, nb, edg, tol, record_trace=True)
    trace = tuple(float(t[0]) for t in traces) if traces else ()
    return EmbeddedTree(
        topology, pts, X[0, n:].copy(), float(lengths[0]), bool(converged[0]), trace
    )


# ---------------------------------------------------------------------------
# exact solve over all topologies


def _nondegenerate_segments(coords, edges, degen):
    return [(coords[u], coords[v]) for u, v in edges if np.linalg.norm(coords[u] - coords[v]) > degen]


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

    nb, edg = _full_topology_arrays(n, n_max)
    span = None
    if len(edg) >= _START_PASS_MIN:
        # A spanning tree of the terminals is a real tree (scipy drops the zero
        # distances of duplicates, which only lengthens it), so it bounds the optimum.
        span = float(minimum_spanning_tree(squareform(pdist(pts))).sum())
    X, lengths, converged, gaps, _, pruned, sweeps, newton_steps = _relax_batch(
        pts, nb, edg, tol, incumbent=span, colour=_full_colours(n)
    )
    scale = instance_scale(pts)

    best = int(np.argmin(lengths))
    l_min = float(lengths[best])
    tie = l_min * tol.eps_tie + 1e-300
    near = [t for t in np.flatnonzero(lengths <= l_min + tie) if converged[t] or t == best]
    degen = tol.eps_len * scale
    merge_tol = 1e-6 * scale if scale > 0 else 1e-12
    reps, rep_segs = [], []
    for t in sorted(near, key=lambda t: (lengths[t], t)):
        segs = _nondegenerate_segments(X[t], edg[t].tolist(), degen)
        if any(_same_embedding(segs, rs, merge_tol) for rs in rep_segs):
            continue
        reps.append(t)
        rep_segs.append(segs)
    # Only these become Topology objects; the winner sorts first (argmin takes a tie's first).
    cominimal = _topologies(edg[reps], n)
    best_tree = EmbeddedTree(cominimal[0], pts, X[best, n:].copy(), l_min, bool(converged[best]))
    n_pruned = int(pruned.sum())
    n_unconverged = int((~converged).sum()) - n_pruned
    return SolveResult(
        best_tree, cominimal, len(edg), n_unconverged, n_pruned, sweeps, float(gaps[best]), newton_steps
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


def _vertex_angles(P: np.ndarray, pairs: np.ndarray):
    """The one neighbour-pair scan: (degree, smallest angle, arcs) per vertex.

    ``pairs`` (k, 2) joins vertices of ``P``; loops are dropped and parallel
    copies count as one link.  ``arcs`` (2m, 3) lists (vertex, neighbour,
    link id) for both directions of each of the m links, sorted by vertex
    and then neighbour, so the neighbours of one vertex are consecutive
    rows.  A vertex of degree below 2 has smallest angle inf.
    """
    n = len(P)
    lo, hi = np.sort(pairs, axis=1).T
    lo, hi = np.divmod(np.unique((lo * n + hi)[lo != hi]), n)
    ids = np.arange(len(lo))
    arcs = np.column_stack([np.r_[lo, hi], np.r_[hi, lo], np.r_[ids, ids]])
    arcs = arcs[np.argsort(arcs[:, 0] * n + arcs[:, 1])]
    degree = np.bincount(arcs[:, 0], minlength=n)
    # Two neighbours of one vertex sit `gap` rows apart for some gap < degree.
    triples = [
        np.column_stack([arcs[:-gap, 0], arcs[:-gap, 1], arcs[gap:, 1]])[arcs[:-gap, 0] == arcs[gap:, 0]]
        for gap in range(1, degree.max(initial=0))
    ]
    smallest = np.full(n, np.inf)
    if triples:
        v, a, b = np.concatenate(triples).T
        np.minimum.at(smallest, v, _angles(P[a] - P[v], P[b] - P[v]))
    return degree, smallest, arcs


def verify_tree(tree: EmbeddedTree, tol: ToleranceConfig = DEFAULT_TOL) -> TreeReport:
    """Structural and angle report after contracting degenerate edges.

    Array-wide over all edges.  Angles are taken between every two distinct
    neighbours of every contracted vertex by :func:`_vertex_angles`, through
    the angle kernel of ``geometry.angle_at``.
    """
    coords = tree.coords()
    degen = tol.eps_len * tree.scale()
    e = tree.topology.edge_array
    lens = _norm(coords[e[:, 0]] - coords[e[:, 1]])
    degenerate = tuple(map(tuple, e[lens <= degen].tolist()))
    positions, pairs = _contract(coords, e, degen)

    v_count = len(positions)
    # Connected with v - 1 edges is a tree; no parallel edges can remain.
    is_tree = len(pairs) == v_count - 1 and not _labels(v_count, pairs).any()
    degree, smallest, _ = _vertex_angles(positions, pairs)
    max_degree = int(degree.max())
    min_angle = float(smallest.min()) if max_degree >= 2 else None
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
    positions, pairs = _contract(tree.coords(), tree.topology.edge_array, tol.eps_len * tree.scale())
    degree = np.bincount(pairs.ravel(), minlength=len(positions))
    inside = np.linalg.norm(positions - np.asarray(center, dtype=float), axis=1) < t * r
    return int(((degree >= 3) & inside).sum())
