"""Exact Euclidean Steiner tree solver over full-topology enumeration.

The geometric optimum for a *fixed* topology is found by block-coordinate
descent: each branch node moves to the exact Fermat point of its three
current neighbors (closed form, so degenerate collapses land exactly on a
vertex).  Total length is convex in the branch coordinates, and each block
update is the exact block minimizer, so the sweep never increases length.

Coordinate descent stalls in two ways, both detected by a first-order
stationarity check and rescued while preserving monotonicity: coincident
branch nodes that want to translate as a block get exact joint moves to the
geometric median of their outside neighbors, and stiffly coupled short edges
that make the sweeps crawl get finished by damped Newton on the contracted
tree.  Rescue effort is spent only on topologies near the running minimum;
far-from-minimal stalls keep an honest ``converged=False`` and a length that
is a slight overestimate (upper bound) of their true optimum.

:func:`solve_exact` sweeps all full topologies as one batch (they share the
same array shapes for a given terminal count), and each topology retires
from the batch on its own: once a sweep moves none of its branch nodes, or
once a certified lower bound on its optimum (convexity plus the terminals'
convex hull, see :func:`_lower_bounds`) exceeds the shortest embedding found
by more than the tie tolerance.  No topology is dropped on a guess, so the
winner and every cominimal topology are always fully relaxed; cominimal
topologies are reported within a relative tie tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    ToleranceConfig,
    angle_at,
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


def _as_terminal_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 2:
        raise GeometryError(f"terminals must have shape (n >= 2, d >= 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("terminals contain non-finite coordinates")
    return pts


def instance_scale(points: np.ndarray) -> float:
    """Diameter of a point set (bounding-box diagonal for large sets).

    Relative tolerances everywhere in the solver are multiples of this scale.
    The bbox diagonal is within sqrt(d) of the true diameter, which is plenty
    for tolerance scaling, and avoids the quadratic pairwise pass.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 512:
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())
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

    Every topology is either stationary (converged), certified non-minimal
    by a lower bound (``n_pruned``), or neither (``n_unconverged``).
    ``sweeps`` counts the batched Gauss-Seidel sweeps of the main phase.
    """

    tree: EmbeddedTree
    cominimal: list[Topology]
    n_topologies: int
    n_unconverged: int
    n_pruned: int = 0
    sweeps: int = 0


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
    for i in range(s):
        for k in range(3):
            j = nb[:, i, k]
            steiner_rows = np.flatnonzero(j >= n)
            lap[steiner_rows, i, j[steiner_rows] - n] -= 1.0
            term_rows = np.flatnonzero(j < n)
            rhs[term_rows, i] += terminals[j[term_rows]]
    return np.linalg.solve(lap, rhs)


def _edge_lengths(X: np.ndarray, edg: np.ndarray) -> np.ndarray:
    t_idx = np.arange(X.shape[0])[:, None]
    seg = X[t_idx, edg[:, :, 0]] - X[t_idx, edg[:, :, 1]]
    return np.linalg.norm(seg, axis=2)


def _total_lengths(X: np.ndarray, edg: np.ndarray) -> np.ndarray:
    return _edge_lengths(X, edg).sum(axis=1)


def _lower_bounds(X, nb, edg, n: int, degen: float) -> np.ndarray:
    """Certified lower bound on each topology's optimal length, from embedding X.

    Length L is convex in the branch nodes y, and L(y) >= G(y) for the
    linear minorant built from one multiplier per edge: the unit edge vector
    for an edge longer than ``degen``, and for a shorter edge a vector in the
    unit ball (the one that best cancels its endpoints' resultants, clipped),
    which makes G(x) >= L(x) - 2 l_e per short edge.  G has gradient g_i at
    branch node i, and an optimal embedding lies in the terminals' convex
    hull, so ``L* >= L(x) - 2 sum_short l_e + sum_i min_t g_i.(p_t - x_i)``.
    The last sum is at least ``-sum_i |g_i| R_i`` with R_i the distance from
    x_i to its farthest terminal.
    """
    vec, lens = _unit_vectors(X, nb, n)
    short = lens <= degen
    with np.errstate(invalid="ignore", divide="ignore"):
        units = np.where(short[..., None], 0.0, vec / lens[..., None])
    r = -units.sum(axis=2)  # (T, s, d) resultant of the long edges
    k = np.maximum(short.sum(axis=2), 1)[..., None]
    share = r / k  # what each short edge at a node should cancel
    T = X.shape[0]
    other = share[np.arange(T)[:, None, None], np.maximum(nb - n, 0)]
    lam = np.where((nb >= n)[..., None], 0.5 * (other - share[:, :, None]), -share[:, :, None])
    lam /= np.maximum(np.linalg.norm(lam, axis=3), 1.0)[..., None]
    g = r + np.where(short[..., None], lam, 0.0).sum(axis=2)
    # min over the hull of g_i . (y_i - x_i) is attained at a terminal.
    drop = np.einsum("tsd,tsnd->tsn", g, X[:, None, :n, :] - X[:, n:, None, :]).min(axis=2)
    charge = 2.0 * np.where(short, np.where(nb >= n, 0.5, 1.0) * lens, 0.0).sum(axis=(1, 2))
    return _total_lengths(X, edg) + drop.sum(axis=1) - charge


def _gs_sweeps(
    X: np.ndarray,
    nb: np.ndarray,
    n: int,
    move_target: float,
    max_sweeps: int,
    edg: np.ndarray | None = None,
    trace: list | None = None,
    certify: tuple[np.ndarray, float, float] | None = None,
    rows: np.ndarray | None = None,
) -> int:
    """In-place Gauss-Seidel Fermat sweeps over a shrinking batch; returns sweeps run.

    A topology leaves the batch after its first sweep that moves no branch
    node by more than ``move_target``, so its embedding does not depend on
    how slowly the others settle.  Given ``certify = (pruned, degen,
    eps_tie)`` and ``edg``, every 10 sweeps a still-moving topology also
    leaves, with ``pruned`` set, once its certified lower bound exceeds the
    incumbent (the shortest embedding seen in the batch) by ``eps_tie``.
    ``rows`` restricts the sweeps to those topologies.
    """
    T, s, _ = nb.shape
    act = np.arange(T) if rows is None else np.asarray(rows)
    Xa, nba = (X, nb) if rows is None else (X[act], nb[act])
    if certify is not None:
        pruned, degen, eps_tie = certify
        best = _total_lengths(X, edg)
    sweeps = 0
    while sweeps < max_sweeps and len(act):
        t_idx = np.arange(len(act))[:, None]
        move = np.zeros(len(act))
        for i in range(s):
            triples = Xa[t_idx, nba[:, i, :]]
            new = fermat_point_triples(triples)
            np.maximum(move, np.linalg.norm(new - Xa[:, n + i], axis=1), out=move)
            Xa[:, n + i] = new
        sweeps += 1
        keep = move > move_target
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
            Xa, nba = X[act], nb[act]
    if Xa is not X:
        X[act] = Xa
    return sweeps


def _unit_vectors(X, nb, n):
    """Edge vectors and lengths from each branch node to its 3 neighbors."""
    T = X.shape[0]
    t_idx = np.arange(T)[:, None, None]
    nbr_pos = X[t_idx, nb]  # (T, s, 3, d)
    vec = nbr_pos - X[:, n:, None, :]
    lens = np.linalg.norm(vec, axis=3)
    return vec, lens


def _groups(m: int, pairs) -> list[list[int]]:
    """Connected components of nodes ``0..m-1`` joined by ``pairs``.

    Members are listed in increasing order and components in the order of
    their first member, whatever the union order, so tie-breaks that follow
    list order are stable.
    """
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(m):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _short_pairs(lens: np.ndarray, nb: np.ndarray, n: int, degen: float):
    """(branch node, neighbor) pairs of one topology joined by an edge <= degen."""
    i, k = np.nonzero(lens <= degen)
    return zip((n + i).tolist(), nb[i, k].tolist())


def _connected_subsets(nodes: list[int], adj: dict[int, set[int]]) -> list[list[int]]:
    """All nonempty subsets of ``nodes`` that are connected under ``adj``."""
    out = []
    m = len(nodes)
    for mask in range(1, 1 << m):
        subset = [nodes[i] for i in range(m) if mask >> i & 1]
        if len(subset) == 1:
            out.append(subset)
            continue
        inset = set(subset)
        stack, seen = [subset[0]], {subset[0]}
        while stack:
            for w in adj[stack.pop()]:
                if w in inset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(subset):
            out.append(subset)
    return out


def _cluster_subsets(members: list[int], nbi, lens, n: int, degen: float):
    """Connected subsets S of a coincidence cluster's branch nodes.

    Yields ``(S, ext, cut)``: ``ext`` holds, per node of S, the (node row,
    slot) pairs of its edges leaving the cluster, and ``cut`` counts the
    zero-length edges a joint move of S would stretch (edges to the rest of
    the cluster, coincident terminals included).
    """
    member_set = set(members)
    steiner_members = [v for v in members if v >= n]
    inner_adj: dict[int, set[int]] = {v: set() for v in steiner_members}
    ext_of: dict[int, list[tuple[int, int]]] = {v: [] for v in steiner_members}
    term_edges = dict.fromkeys(steiner_members, 0)
    for v in steiner_members:
        i = v - n
        for k in range(3):
            w = int(nbi[i, k])
            if w in member_set and lens[i, k] <= degen:
                if w >= n:
                    inner_adj[v].add(w)
                else:
                    term_edges[v] += 1
            else:
                ext_of[v].append((i, k))
    for subset in _connected_subsets(steiner_members, inner_adj):
        sub = set(subset)
        cut = sum(term_edges[v] + sum(1 for w in inner_adj[v] if w not in sub) for v in subset)
        yield subset, [ext_of[v] for v in subset], cut


def _geometric_median(anchors: np.ndarray, scale: float, iters: int = 100) -> np.ndarray:
    """Point minimizing the summed distances to ``anchors``.

    Weiszfeld iterations get close, then damped Newton steps finish the job;
    Weiszfeld alone crawls when the minimizer sits near (but not on) an
    anchor, and downstream stationarity checks need the resultant to vanish
    to near machine precision.
    """
    y = anchors.mean(axis=0)
    for _ in range(iters):
        d = np.linalg.norm(anchors - y, axis=1)
        hit = d <= 1e-14 * scale
        if hit.any():
            rest = anchors[~hit]
            if rest.size == 0:
                return y
            u = rest - y
            pull = (u / np.linalg.norm(u, axis=1)[:, None]).sum(axis=0)
            if np.linalg.norm(pull) <= hit.sum():
                return y
            # Not optimal at the anchor: step off it and keep iterating.
            y = y + (1e-10 * scale) * pull / np.linalg.norm(pull)
            continue
        w = 1.0 / d
        y_new = (anchors * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(y_new - y) <= 1e-13 * scale:
            break
        y = y_new
    dim = anchors.shape[1]
    fval = np.linalg.norm(anchors - y, axis=1).sum()
    for _ in range(60):
        diff = anchors - y
        d = np.linalg.norm(diff, axis=1)
        if d.min() <= 1e-13 * scale:
            break
        u = diff / d[:, None]
        g = -u.sum(axis=0)
        if np.linalg.norm(g) <= 1e-13:
            break
        H = (np.eye(dim)[None] - u[:, :, None] * u[:, None, :]) / d[:, None, None]
        try:
            step = np.linalg.solve(H.sum(axis=0), -g)
        except np.linalg.LinAlgError:
            break
        trial = y + step
        ftrial = np.linalg.norm(anchors - trial, axis=1).sum()
        halvings = 0
        while ftrial > fval and halvings < 40:
            step *= 0.5
            trial = y + step
            ftrial = np.linalg.norm(anchors - trial, axis=1).sum()
            halvings += 1
        if ftrial > fval:
            break
        y, fval = trial, ftrial
    return y


def _cluster_pass(Xi, nbi, n: int, scale: float, degen: float) -> bool:
    """Best joint move of coincident branch nodes; True if anything moved.

    Per-node sweeps leave every branch node at the Fermat point of its own
    neighbors, but nodes collapsed onto one point can still admit a joint
    translation that no single-node update finds.  The exact block update
    for a connected subset S of a coincidence cluster moves S to the
    geometric median of everything it is tied to: its neighbors outside the
    cluster, plus one copy of the cluster point per zero-length edge the
    move would stretch.
    """
    lens = np.linalg.norm(Xi[nbi] - Xi[n:, None, :], axis=2)
    clusters = _groups(n + nbi.shape[0], _short_pairs(lens, nbi, n, degen))

    # Gate moves on the stationarity violation (external pull minus the number
    # of zero edges a move would stretch), not on the measured length gain:
    # near the block optimum the gain is quadratic in the remaining error and
    # drowns in float noise long before the pull condition is met.
    best_viol = 1e-9
    best_move: tuple[list[int], np.ndarray, np.ndarray] | None = None
    for members in clusters:
        if len(members) < 2 or members[-1] < n:
            continue
        p = Xi[next(v for v in members if v >= n)]
        for subset, ext, cut in _cluster_subsets(members, nbi, lens, n, degen):
            anchors = [Xi[nbi[i, k]] for slots in ext for i, k in slots]
            if not anchors:
                continue
            A_ext = np.asarray(anchors)
            u = A_ext - p
            u /= np.linalg.norm(u, axis=1)[:, None]
            viol = np.linalg.norm(u.sum(axis=0)) - cut
            if viol > best_viol:
                best_viol = viol
                A = np.vstack([A_ext] + [p[None]] * cut) if cut else A_ext
                best_move = (subset, A, p)
    if best_move is None:
        return False
    subset, A, p = best_move
    y = _geometric_median(A, scale)
    if np.linalg.norm(y - p) <= 1e-16 * scale:
        return False
    for v in subset:
        Xi[v] = y
    return True


def _newton_polish(Xi, nbi, n: int, scale: float, degen: float) -> None:
    """Damped Newton on the contracted tree of one topology, in place.

    Coordinate descent crawls when short edges couple branch nodes stiffly, so
    finish with Newton: every pure-branch coincidence cluster is contracted to
    a single variable, nondegenerate branch nodes stay their own variables,
    and clusters pinned to a terminal are frozen (the cluster conditions own
    those).  The contracted length is smooth in these variables, Newton
    converges in a handful of steps, and backtracking keeps it monotone.
    """
    s, d = nbi.shape[0], Xi.shape[1]
    lens = np.linalg.norm(Xi[nbi] - Xi[n:, None, :], axis=2)
    var_members: list[list[int]] = []
    var_of: dict[int, int] = {}
    for members in _groups(n + s, _short_pairs(lens, nbi, n, degen)):
        steiner_members = [v for v in members if v >= n]
        if not steiner_members or len(steiner_members) < len(members):
            continue  # no branch nodes, or pinned onto a terminal
        for v in steiner_members:
            var_of[v] = len(var_members)
        var_members.append(steiner_members)
    nvar = len(var_members)
    if nvar == 0:
        return

    # Contracted edges (a, b, anchor, wt): ``b`` is a variable index or None
    # with ``anchor`` the fixed endpoint; steiner-steiner edges appear in both
    # rows and get half weight each.
    cedges: list[tuple[int, int | None, int, float]] = []
    for i in range(s):
        a = var_of.get(n + i)
        if a is None:
            continue
        for k in range(3):
            w = int(nbi[i, k])
            b = var_of.get(w)
            if b == a:
                continue  # internal zero edge of the cluster
            wt = 0.5 if b is not None else 1.0
            cedges.append((a, b, w, wt))

    Y = np.array([Xi[mem[0]] for mem in var_members])

    def state(Yc):
        f = 0.0
        ls = np.empty(len(cedges))
        for e, (a, b, w, wt) in enumerate(cedges):
            pos_b = Yc[b] if b is not None else Xi[w]
            ls[e] = np.linalg.norm(Yc[a] - pos_b)
            f += wt * ls[e]
        return ls, f

    ls, fval = state(Y)
    if ls.min() <= degen:
        return
    for _ in range(60):
        g = np.zeros((nvar, d))
        H = np.zeros((nvar * d, nvar * d))
        for e, (a, b, w, wt) in enumerate(cedges):
            pos_b = Y[b] if b is not None else Xi[w]
            vec = Y[a] - pos_b
            u = vec / ls[e]
            g[a] += wt * u
            P = wt * (np.eye(d) - np.outer(u, u)) / ls[e]
            H[a * d : (a + 1) * d, a * d : (a + 1) * d] += P
            if b is not None:
                g[b] -= wt * u
                H[b * d : (b + 1) * d, b * d : (b + 1) * d] += P
                H[a * d : (a + 1) * d, b * d : (b + 1) * d] -= P
                H[b * d : (b + 1) * d, a * d : (a + 1) * d] -= P
        if np.linalg.norm(g, axis=1).max() <= 1e-13:
            break
        try:
            step = np.linalg.solve(H, -g.reshape(-1)).reshape(nvar, d)
        except np.linalg.LinAlgError:
            break
        tls, tf = state(Y + step)
        halvings = 0
        while (tls.min() <= degen or tf > fval) and halvings < 40:
            step *= 0.5
            tls, tf = state(Y + step)
            halvings += 1
        if tf > fval or tls.min() <= degen:
            break
        Y = Y + step
        ls, fval = tls, tf
    for j, mem in enumerate(var_members):
        for v in mem:
            Xi[v] = Y[j]


def _stationarity_ok(X, nb, n, scale, tol: ToleranceConfig) -> np.ndarray:
    """First-order optimality per topology, honoring degenerate collapses.

    Non-degenerate branch nodes need their three unit edge vectors to cancel.
    Nodes joined by (numerically) zero edges form coincidence clusters, and a
    cluster is stationary iff no connected subset S of its branch nodes can
    move: the resultant of S's external unit vectors must not exceed the
    number of zero-length edges such a move would stretch (edges from S to
    the rest of the cluster, including edges to coincident terminals, each
    resist with unit strength).
    """
    T, s, _ = nb.shape
    vec, lens = _unit_vectors(X, nb, n)
    degen = max(tol.eps_len * scale, 1e-300)
    res_tol = 10.0 * tol.eps_len
    ok = np.ones(T, dtype=bool)

    nondeg_node = (lens > degen).all(axis=2)  # (T, s)
    with np.errstate(invalid="ignore", divide="ignore"):
        units = vec / np.where(lens[..., None] == 0.0, 1.0, lens[..., None])
    resid = np.linalg.norm(units.sum(axis=2), axis=2)  # (T, s)
    ok &= ~np.any(nondeg_node & (resid > res_tol), axis=1)

    # Topologies with degenerate edges get a per-topology cluster analysis.
    has_degen = np.flatnonzero(~nondeg_node.all(axis=1))
    d = X.shape[2]
    for t in has_degen:
        for members in _groups(n + s, _short_pairs(lens[t], nb[t], n, degen)):
            if len(members) < 2 or not ok[t]:
                continue
            for _, ext, cap in _cluster_subsets(members, nb[t], lens[t], n, degen):
                res = [sum((units[t, i, k] for i, k in slots), np.zeros(d)) for slots in ext]
                if np.linalg.norm(sum(res, np.zeros(d))) > cap + res_tol:
                    ok[t] = False
                    break
    return ok


def _smoothed_polish(X, nb, edg, n, idx, scale, rounds=4, iters=200):
    """Gradient descent on sum(sqrt(|e|^2 + eps^2)) for the flagged topologies.

    The smoothed length is convex and differentiable, so plain descent with a
    per-topology adaptive step escapes coordinate-descent stalls at coincident
    branch points.  eps shrinks geometrically toward machine scale.
    """
    if len(idx) == 0:
        return
    Xf = X[idx].copy()
    edgf = edg[idx]
    nbf = nb[idx]
    F = len(idx)
    f_idx = np.arange(F)[:, None]
    s = nbf.shape[1]

    def smoothed(Xc, eps2):
        seg = Xc[f_idx, edgf[:, :, 0]] - Xc[f_idx, edgf[:, :, 1]]
        return np.sqrt((seg**2).sum(axis=2) + eps2).sum(axis=1)

    def grad(Xc, eps2):
        seg = Xc[f_idx, edgf[:, :, 0]] - Xc[f_idx, edgf[:, :, 1]]
        L = np.sqrt((seg**2).sum(axis=2) + eps2)
        G = seg / L[..., None]
        g = np.zeros_like(Xc)
        np.add.at(g, (f_idx, edgf[:, :, 0]), G)
        np.add.at(g, (f_idx, edgf[:, :, 1]), -G)
        g[:, :n] = 0.0
        return g

    before = _total_lengths(Xf, edgf)
    best = Xf.copy()
    best_len = before.copy()
    for r in range(rounds):
        eps2 = (scale * 10.0 ** (-(4 + 2 * r))) ** 2
        alpha = np.full(F, 0.05 * scale)
        fval = smoothed(Xf, eps2)
        for _ in range(iters):
            g = grad(Xf, eps2)
            gnorm = np.linalg.norm(g.reshape(F, -1), axis=1)
            if gnorm.max() < 1e-14:
                break
            trial = Xf - (alpha / np.maximum(gnorm, 1e-300))[:, None, None] * g
            ftrial = smoothed(trial, eps2)
            accept = ftrial < fval
            Xf[accept] = trial[accept]
            fval[accept] = ftrial[accept]
            alpha[accept] *= 1.2
            alpha[~accept] *= 0.5
            if alpha.max() < 1e-16 * scale:
                break
        cur = _total_lengths(Xf, edgf)
        better = cur < best_len
        best[better] = Xf[better]
        best_len[better] = cur[better]
    # Never let the polish lose ground on true length.
    improved = best_len <= before
    X[idx[improved]] = best[improved]


def _relax_batch(
    terminals: np.ndarray,
    topologies: list[Topology],
    tol: ToleranceConfig,
    max_sweeps: int,
    record_trace: bool = False,
):
    """Relax every topology of one batch.

    Returns (X, lengths, converged, traces, pruned, sweeps), where ``pruned``
    marks non-stationary topologies certified non-minimal by a lower bound.
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
        return X, lengths, np.ones(T, dtype=bool), [np.zeros(T)], pruned, 0

    X[:, n:] = _harmonic_init(terminals, nb)
    trace: list | None = [] if record_trace else None
    move_target = 1e-12 * scale
    degen = max(tol.eps_len * scale, 1e-300)

    sweeps = _gs_sweeps(
        X, nb, n, move_target, max_sweeps, edg, trace, (pruned, degen, tol.eps_tie)
    )
    ok = _stationarity_ok(X, nb, n, scale, tol)
    def near_min(flags: np.ndarray) -> np.ndarray:
        # Only topologies near the current best length matter downstream, so
        # the expensive rescue phases skip far-from-minimal stalls and
        # certified non-minimal ones; those keep an honest converged=False.
        lens_now = _total_lengths(X, edg)
        return flags & ~pruned & (lens_now <= lens_now.min() * (1.0 + 1e-3))

    if not ok.all() and near_min(~ok).any():
        # Stalled topologies near the minimum get rescued: joint median moves
        # unstick coincident branch-node groups (per-node sweeps cannot
        # translate a collapsed pair), then Newton on the contracted tree
        # finishes the stiff slow crawls that coordinate descent cannot.
        for _ in range(3):
            flagged = np.flatnonzero(near_min(~ok))
            if len(flagged) == 0:
                break
            for _ in range(25):
                movers = [
                    f for f in flagged if _cluster_pass(X[f], nb[f], n, scale, degen)
                ]
                if not movers:
                    break
                _gs_sweeps(X, nb, n, move_target, 200, rows=movers)
            for f in flagged:
                _newton_polish(X[f], nb[f], n, scale, degen)
            _gs_sweeps(X, nb, n, move_target, 200, rows=flagged)
            ok = _stationarity_ok(X, nb, n, scale, tol)
    if not ok.all() and near_min(~ok).any():
        flagged = np.flatnonzero(near_min(~ok))
        _smoothed_polish(X, nb, edg, n, flagged, scale)
        _gs_sweeps(X, nb, n, move_target, max(200, max_sweeps // 4), rows=flagged)
        ok = _stationarity_ok(X, nb, n, scale, tol)

    lengths = _total_lengths(X, edg)
    rest = np.flatnonzero(~ok & ~pruned)
    if len(rest):
        cutoff = lengths.min() * (1.0 + tol.eps_tie)
        pruned[rest] = _lower_bounds(X[rest], nb[rest], edg[rest], n, degen) > cutoff
    pruned &= ~ok
    if trace is not None and (not trace or np.any(trace[-1] != lengths)):
        trace.append(lengths)  # rescue phases run outside the sweep loop
    traces = trace if record_trace else None
    return X, lengths, ok, traces, pruned, sweeps


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
    X, lengths, converged, traces, _, _ = _relax_batch(
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
    X, lengths, converged, _, pruned, sweeps = _relax_batch(pts, topologies, tol, max_sweeps)
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
    seen_keys: set[str] = set()
    for t in sorted(near, key=lambda t: (lengths[t], t)):
        key = topologies[t].canonical_key()
        if key in seen_keys:
            continue
        segs = _nondegenerate_segments(X[t], topologies[t].edges, degen)
        if any(_same_embedding(segs, rs, merge_tol) for rs in rep_segs):
            seen_keys.add(key)
            continue
        seen_keys.add(key)
        reps.append(t)
        rep_segs.append(segs)
    cominimal = [topologies[t] for t in reps]
    n_pruned = int(pruned.sum())
    n_unconverged = int((~converged).sum()) - n_pruned
    return SolveResult(best_tree, cominimal, len(topologies), n_unconverged, n_pruned, sweeps)


# ---------------------------------------------------------------------------
# verification and ball-local measurements


def _contract(coords: np.ndarray, edges, degen: float):
    """Merge endpoints of degenerate edges; returns (positions, edge pairs).

    Each surviving vertex is the mean of its merged cluster.  Surviving edges
    keep one entry per original edge whose endpoints landed in different
    clusters (a tree stays a tree under edge contraction).
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    short = np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1) <= degen
    clusters = _groups(len(coords), e[short].tolist())
    index_of = np.empty(len(coords), dtype=np.int64)
    index_of[[v for members in clusters for v in members]] = np.repeat(
        np.arange(len(clusters)), [len(members) for members in clusters]
    )
    positions = coords[[members[0] for members in clusters]]
    for new_idx, members in enumerate(clusters):
        if len(members) > 1:
            positions[new_idx] = coords[members].mean(axis=0)
    ru, rv = index_of[e[:, 0]], index_of[e[:, 1]]
    cut = ru != rv
    return positions, list(zip(ru[cut].tolist(), rv[cut].tolist()))


def verify_tree(tree: EmbeddedTree, tol: ToleranceConfig = DEFAULT_TOL) -> TreeReport:
    """Structural and angle report after contracting degenerate edges."""
    coords = tree.coords()
    scale = tree.scale()
    degen = tol.eps_len * scale
    edge_list = list(tree.topology.edges)
    degenerate = tuple(
        (u, v) for u, v in edge_list if np.linalg.norm(coords[u] - coords[v]) <= degen
    )
    positions, new_edges = _contract(coords, edge_list, degen)

    length = float(
        sum(np.linalg.norm(coords[u] - coords[v]) for u, v in edge_list)
    )
    v_count = len(positions)
    adjacency: dict[int, set[int]] = {i: set() for i in range(v_count)}
    multi = False
    for u, v in new_edges:
        if v in adjacency[u]:
            multi = True
        adjacency[u].add(v)
        adjacency[v].add(u)
    connected = len(_groups(v_count, new_edges)) == 1
    is_tree = (len(new_edges) == v_count - 1) and connected and not multi

    max_degree = max((len(a) for a in adjacency.values()), default=0)
    min_angle = None
    for v, nbrs in adjacency.items():
        nb_list = sorted(nbrs)
        for i in range(len(nb_list)):
            for j in range(i + 1, len(nb_list)):
                ang = angle_at(positions[v], positions[nb_list[i]], positions[nb_list[j]])
                if min_angle is None or ang < min_angle:
                    min_angle = ang
    angles_ok = min_angle is None or min_angle >= MIN_BRANCH_ANGLE - tol.eps_angle
    return TreeReport(
        length=length,
        is_tree=is_tree,
        max_degree=max_degree,
        min_angle=min_angle,
        n_degenerate_edges=len(degenerate),
        degenerate_edges=degenerate,
        angles_ok=angles_ok,
    )


def _sphere_hits(p, q, center, radius):
    """Roots s in [0, 1] of |p + s(q-p) - center| = radius, plus approach data."""
    v = q - p
    a = float(v @ v)
    w = p - center
    if a == 0.0:
        return [], float(abs(np.linalg.norm(w) - radius)), None
    b = 2.0 * float(w @ v)
    c = float(w @ w) - radius * radius
    disc = b * b - 4.0 * a * c
    s_star = min(1.0, max(0.0, -b / (2.0 * a)))
    approach = abs(float(np.linalg.norm(w + s_star * v)) - radius)
    if disc < 0.0:
        return [], approach, None
    sq = np.sqrt(disc)
    roots = sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
    hits = [s for s in roots if 0.0 <= s <= 1.0]
    gap = roots[1] - roots[0]
    return hits, approach, gap


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
    location.  When an edge runs within ``coverage_eps`` of the sphere
    without cleanly crossing it -- so that an infinitesimal wiggle would
    change the count -- the report carries a ``degenerate`` flag.
    """
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    x = np.asarray(center, dtype=float)
    radius = t * r
    flag_eps = tol.coverage_eps
    pts: list[np.ndarray] = []
    degenerate = False
    for seg in tree.segments():
        p, q = seg
        hits, approach, gap = _sphere_hits(p, q, x, radius)
        if len(hits) == 2 and gap is not None:
            # Near-double root: a grazing pass that a perturbation could
            # turn into zero or one hit.
            if gap * np.linalg.norm(q - p) <= flag_eps:
                hits = hits[:1]
                degenerate = True
        if not hits and approach <= flag_eps:
            degenerate = True
        for s in hits:
            pts.append(p + s * (q - p))
        for endpoint in (p, q):
            d_end = abs(float(np.linalg.norm(endpoint - x)) - radius)
            if d_end <= flag_eps:
                degenerate = True
    # Deduplicate by location (vertex-on-sphere shared by adjacent edges).
    dedup: list[np.ndarray] = []
    dedup_tol = 1e-9 * max(radius, 1.0)
    for point in pts:
        if not any(np.linalg.norm(point - other) <= dedup_tol for other in dedup):
            dedup.append(point)
    arr = np.asarray(dedup) if dedup else np.empty((0, x.shape[0]))
    return CrossingReport(count=len(dedup), degenerate=degenerate, points=arr)


def length_in_ball(tree: EmbeddedTree, center, r: float, t: float) -> float:
    """Exact length of the tree inside the closed ball of radius t*r."""
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    x = np.asarray(center, dtype=float)
    radius = t * r
    total = 0.0
    for seg in tree.segments():
        p, q = seg
        v = q - p
        a = float(v @ v)
        if a == 0.0:
            continue
        w = p - x
        b = 2.0 * float(w @ v)
        c = float(w @ w) - radius * radius
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            continue
        sq = np.sqrt(disc)
        lo = max(0.0, (-b - sq) / (2 * a))
        hi = min(1.0, (-b + sq) / (2 * a))
        if hi > lo:
            total += (hi - lo) * np.sqrt(a)
    return float(total)


def count_branching_in_ball(
    tree: EmbeddedTree,
    center,
    r: float,
    t: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> int:
    """Branch points (degree >= 3 after contraction) strictly inside B(center, t*r)."""
    if not (r > 0.0 and 0.0 < t):
        raise GeometryError("need r > 0 and t > 0")
    x = np.asarray(center, dtype=float)
    radius = t * r
    coords = tree.coords()
    degen = tol.eps_len * tree.scale()
    positions, new_edges = _contract(coords, list(tree.topology.edges), degen)
    degree = np.zeros(len(positions), dtype=int)
    for u, v in new_edges:
        degree[u] += 1
        degree[v] += 1
    inside = np.linalg.norm(positions - x, axis=1) < radius
    return int(((degree >= 3) & inside).sum())
