"""Combinatorial tree topologies for terminal-spanning networks.

A *full* topology on n >= 3 terminals has n - 2 branch (Steiner) nodes, every
terminal of degree 1 and every branch node of degree 3.  Nodes are indexed
0..n-1 for terminals and n..2n-3 for branch nodes.  Terminals are labeled;
branch nodes are interchangeable, which is what :func:`canonical_key`
quotients out.

The solvers take all full topologies as arrays from :func:`_full_topology_arrays`;
:func:`enumerate_full_topologies` wraps its rows in validated objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import factorial

import numpy as np

__all__ = [
    "Topology",
    "TopologyError",
    "count_full_topologies",
    "enumerate_full_topologies",
    "canonical_key",
]


class TopologyError(ValueError):
    """Structurally invalid topology or out-of-range terminal count."""


@dataclass(frozen=True)
class Topology:
    """An abstract tree on labeled terminals plus unlabeled branch nodes."""

    n_terminals: int
    n_steiner: int
    edges: tuple[tuple[int, int], ...]
    _adj: dict = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        n, s = self.n_terminals, self.n_steiner
        if n < 2 or s < 0:
            raise TopologyError("need at least two terminals and n_steiner >= 0")
        total = n + s
        seen = set()
        adj = {i: [] for i in range(total)}
        for u, v in self.edges:
            if not (0 <= u < total and 0 <= v < total) or u == v:
                raise TopologyError(f"bad edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            try:
                adj[u].append(v)
                adj[v].append(u)
            except KeyError:  # in range, but no node has this index
                raise TopologyError(f"edge ({u}, {v}) has a non-integral index") from None
        if len(self.edges) != total - 1:
            raise TopologyError("a tree on k nodes needs exactly k - 1 edges")
        # Connectivity: walk from node 0.
        stack, visited = [0], {0}
        while stack:
            for w in adj[stack.pop()]:
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        if len(visited) != total:
            raise TopologyError("edge set is not connected")
        object.__setattr__(self, "_adj", {k: tuple(v) for k, v in adj.items()})

    @property
    def n_nodes(self) -> int:
        return self.n_terminals + self.n_steiner

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (E, 2) int64 array, built on first use.

        Lazy because most enumerated topologies never ask for it; the ball
        statistics ask on every query.
        """
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e.setflags(write=False)
        return e

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def is_full(self) -> bool:
        """True when every terminal has degree 1 and every branch node degree 3."""
        if self.n_terminals >= 3 and self.n_steiner != self.n_terminals - 2:
            return False
        ok_t = all(self.degree(i) == 1 for i in range(self.n_terminals))
        ok_s = all(self.degree(i) == 3 for i in range(self.n_terminals, self.n_nodes))
        return ok_t and ok_s

    def canonical_key(self) -> str:
        return canonical_key(self)


def count_full_topologies(n: int) -> int:
    """Number of full topologies on n labeled terminals: (2n-4)! / (2^(n-2) (n-2)!).

    Equals the double factorial (2n-5)!! = 1, 3, 15, 105, ... for n = 3, 4, 5, 6.
    """
    if n < 2:
        raise TopologyError("need n >= 2 terminals")
    if n == 2:
        return 1
    return factorial(2 * n - 4) // (2 ** (n - 2) * factorial(n - 2))


def _branch_neighbours(edg: np.ndarray, n: int) -> np.ndarray:
    """(T, n - 2, 3) neighbours of branch node n + i of each full topology in ``edg``.

    One stable argsort groups the edge ends by node in edge order, as
    :meth:`Topology.neighbors` lists them; the first n are the terminals'.
    """
    ends = edg.reshape(len(edg), -1)
    order = ends.argsort(axis=1, kind="stable")[:, n:]
    return np.take_along_axis(ends, order ^ 1, axis=1).reshape(len(edg), n - 2, 3)


def _full_topology_arrays(n: int, n_max: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """(nb, edg): the (T, n - 2, 3) :func:`_branch_neighbours` and (T, 2n - 3, 2)
    edges of all full topologies on n terminals, read-only.

    ``n_max`` guards against runaway enumeration: the count grows as
    (2n-5)!!.  It is checked on every call; the arrays are built once per n
    (:func:`_grown`) and shared by every later call.
    """
    if n < 2:
        raise TopologyError("need n >= 2 terminals")
    if n > n_max:
        raise TopologyError(
            f"n = {n} exceeds n_max = {n_max}; {count_full_topologies(n)} topologies"
        )
    return _grown(n)


@cache
def _grown(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-n memo of :func:`_full_topology_arrays`, which checks n first.

    The unique topology on 3 terminals grows one terminal at a time:
    terminal k splits edge i of topology t through a fresh branch node
    2k - 1, old branch nodes shifted up by one, into row t (2k - 3) + i, with
    one gather per level.  Every full topology arises exactly once.
    """
    edg = np.array([[[0, 1]]]) if n == 2 else np.array([[[0, 3], [1, 3], [2, 3]]])
    for k in range(3, n):
        T, E, _ = edg.shape
        ends = np.where(edg < k, edg, edg + 1).reshape(T, 2 * E)
        ends = np.concatenate([ends, np.broadcast_to([2 * k - 1, k], (T, 2))], axis=1)
        # Edge i (ends 2i, 2i + 1) becomes (u, w), (w, v), (w, k); w and k
        # sit at columns c and c + 1.
        c = 2 * E
        split = [[*range(2 * i), 2 * i, c, c, 2 * i + 1, c, c + 1, *range(2 * i + 2, c)] for i in range(E)]
        edg = ends[:, split].reshape(T * E, E + 2, 2)
    nb = _branch_neighbours(edg, n)
    nb.setflags(write=False)
    edg.setflags(write=False)
    return nb, edg


def _topologies(edg: np.ndarray, n: int) -> list[Topology]:
    """Validated :class:`Topology` objects for the rows of a full-topology edge array."""
    return [Topology(n, n - 2, tuple(map(tuple, e))) for e in edg.tolist()]


def enumerate_full_topologies(n: int, n_max: int = 9) -> list[Topology]:
    """All full topologies on n labeled terminals, in the deterministic order
    of :func:`_full_topology_arrays`, which raises when n exceeds ``n_max``."""
    return _topologies(_full_topology_arrays(n, n_max)[1], n)


def canonical_key(topo: Topology) -> str:
    """Canonical string identifying a topology up to branch-node relabeling.

    Terminal labels are fixed; branch nodes are anonymous.  The tree is rooted
    at terminal 0.  A branch node is encoded as its sorted child encodings in
    parentheses, a terminal as ``t{v}``, followed by the same parentheses
    when it has children.  The key is ``t0:`` and the root's sorted child
    encodings, comma-separated.  So any two topologies that differ only by a
    permutation of branch indices map to the same key and structurally
    distinct ones map to different keys.  The encodings are built children
    first along a breadth-first order, with no recursion, so deep trees work.
    """
    parent, order = {0: -1}, [0]
    for v in order:  # grows while it is walked
        for w in topo.neighbors(v):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    codes: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order[1:]):  # children before parents
        code = "(" + ",".join(sorted(codes[v])) + ")"
        if v < topo.n_terminals:
            code = f"t{v}{code}" if codes[v] else f"t{v}"
        codes[parent[v]].append(code)
    return "t0:" + ",".join(sorted(codes[0]))
