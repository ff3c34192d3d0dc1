import hashlib
import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minnet.ratio import caterpillar_topology
from minnet.topology import (
    Topology,
    TopologyError,
    _full_topology_arrays,
    canonical_key,
    count_full_topologies,
    enumerate_full_topologies,
)


def _grown_edge_lists(n):
    """Reference enumeration: the edge tuples grown one terminal at a time.

    Terminal k splits each edge (u, v) of each topology, in order, into
    (u, w), (w, v), (w, k) through a fresh branch node w = 2k - 1, after the
    old branch nodes shift up by one.
    """
    if n == 2:
        return [((0, 1),)]
    current = [((0, 3), (1, 3), (2, 3))]
    for k in range(3, n):
        grown = []
        for edges in current:
            shifted = tuple((u if u < k else u + 1, v if v < k else v + 1) for u, v in edges)
            w = 2 * k - 1
            for i, (u, v) in enumerate(shifted):
                grown.append(shifted[:i] + ((u, w), (w, v), (w, k)) + shifted[i + 1 :])
        current = grown
    return current


def _prufer_to_edges(seq, total):
    degree = [1] * total
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(total) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tuple(edges)


def _brute_force_keys(n):
    """Independent enumeration: decode every Prüfer sequence on 2n-2 nodes and
    keep the trees with the right degree profile."""
    s = n - 2
    total = n + s
    keys = set()
    for seq in itertools.product(range(total), repeat=total - 2):
        deg = [1] * total
        for x in seq:
            deg[x] += 1
        if any(deg[i] != 1 for i in range(n)):
            continue
        if any(deg[i] != 3 for i in range(n, total)):
            continue
        keys.add(canonical_key(Topology(n, s, _prufer_to_edges(seq, total))))
    return keys


class TestCounting:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (3, 1), (4, 3), (5, 15), (6, 105), (7, 945), (8, 10395), (9, 135135)],
    )
    def test_closed_form(self, n, expected):
        assert count_full_topologies(n) == expected

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            count_full_topologies(1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_enumeration_matches_count(self, n):
        topos = enumerate_full_topologies(n)
        assert len(topos) == count_full_topologies(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_enumeration_matches_prufer_brute_force(self, n):
        enumerated = {canonical_key(t) for t in enumerate_full_topologies(n)}
        assert enumerated == _brute_force_keys(n)

    def test_nmax_guard(self):
        with pytest.raises(TopologyError):
            enumerate_full_topologies(10, n_max=9)


class TestArrays:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_edges_match_the_grown_tuples_in_order(self, n):
        _, edg = _full_topology_arrays(n)
        assert edg.dtype == np.int64
        assert edg.tolist() == [[list(e) for e in edges] for edges in _grown_edge_lists(n)]
        assert [t.edges for t in enumerate_full_topologies(n)] == _grown_edge_lists(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_neighbours_match_topology_neighbors(self, n):
        nb, edg = _full_topology_arrays(n)
        assert nb.shape == (len(edg), n - 2, 3)
        topos = [Topology(n, n - 2, edges) for edges in _grown_edge_lists(n)]
        assert nb.tolist() == [[list(t.neighbors(n + i)) for i in range(n - 2)] for t in topos]

    def test_nmax_guard_message(self):
        with pytest.raises(TopologyError, match=r"^n = 10 exceeds n_max = 9; 2027025 topologies$"):
            _full_topology_arrays(10)

    def test_memo_is_shared_and_read_only(self):
        nb, edg = _full_topology_arrays(6)
        again = _full_topology_arrays(6, n_max=7)
        assert again[0] is nb and again[1] is edg
        for table in (nb, edg, edg[3]):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_nmax_guard_runs_before_the_memo(self):
        _full_topology_arrays(9)
        with pytest.raises(TopologyError, match=r"^n = 9 exceeds n_max = 8; 135135 topologies$"):
            _full_topology_arrays(9, n_max=8)
        with pytest.raises(TopologyError, match=r"^n = 10 exceeds n_max = 9; 2027025 topologies$"):
            enumerate_full_topologies(10)


class TestStructure:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_enumerated_are_full(self, n):
        for topo in enumerate_full_topologies(n):
            assert topo.is_full()
            assert topo.n_steiner == n - 2
            assert len(topo.edges) == 2 * n - 3

    def test_keys_are_distinct(self):
        for n in (3, 4, 5, 6, 7, 8):
            topos = enumerate_full_topologies(n)
            keys = {canonical_key(t) for t in topos}
            assert len(keys) == len(topos)

    def test_deterministic_order(self):
        a = enumerate_full_topologies(6)
        b = enumerate_full_topologies(6)
        assert [t.edges for t in a] == [t.edges for t in b]

    def test_two_terminal_case(self):
        (t,) = enumerate_full_topologies(2)
        assert t.edges == ((0, 1),)
        assert t.n_steiner == 0

    def test_four_terminal_pairings(self):
        # The three topologies on 4 terminals pair {0,1}/{2,3}, {0,2}/{1,3},
        # {0,3}/{1,2} across the two branch nodes.
        pairings = set()
        for topo in enumerate_full_topologies(4):
            partner = next(
                v for v in topo.neighbors(topo.neighbors(0)[0]) if v < 4 and v != 0
            )
            pairings.add(partner)
        assert pairings == {1, 2, 3}

    def test_edge_array_is_built_once_on_demand(self):
        topo = enumerate_full_topologies(5)[7]
        assert "edge_array" not in vars(topo)  # enumeration builds none
        e = topo.edge_array
        assert e.dtype == np.int64 and e.shape == (7, 2)
        assert list(map(tuple, e.tolist())) == list(topo.edges)
        assert topo.edge_array is e
        assert not e.flags.writeable  # shared by every caller


class TestValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            Topology(4, 2, ((0, 4), (1, 4), (4, 2), (3, 5), (5, 5)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, 1, ((0, 3), (3, 0), (1, 3)))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, 1, ((0, 3), (1, 3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, 1, ((0, 3), (1, 3), (2, 7)))

    def test_non_integral_index_rejected(self):
        with pytest.raises(TopologyError, match=r"^edge \(2\.5, 3\) has a non-integral index$"):
            Topology(3, 1, ((0, 3), (1, 3), (2.5, 3)))


class TestCanonicalKey:
    def test_invariant_under_steiner_relabel(self):
        # Swap the two branch nodes (4 <-> 5) of a 4-terminal topology.
        t1 = Topology(4, 2, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
        t2 = Topology(4, 2, ((0, 5), (1, 5), (5, 4), (2, 4), (3, 4)))
        assert canonical_key(t1) == canonical_key(t2)

    def test_distinguishes_terminal_pairings(self):
        t1 = Topology(4, 2, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
        t2 = Topology(4, 2, ((0, 4), (2, 4), (4, 5), (1, 5), (3, 5)))
        assert canonical_key(t1) != canonical_key(t2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_key_stable_under_edge_order(self, seed):
        import random

        rng = random.Random(seed)
        base = enumerate_full_topologies(5)[seed % 15]
        edges = list(base.edges)
        rng.shuffle(edges)
        shuffled = Topology(5, 3, tuple(edges))
        assert canonical_key(shuffled) == canonical_key(base)

    def test_full_topology_keys_are_frozen(self):
        # One digest over the keys of every full topology on 2 to 8 terminals,
        # in enumeration order, one key a line.
        digest = hashlib.sha256()
        for n in range(2, 9):
            for t in enumerate_full_topologies(n):
                digest.update(canonical_key(t).encode() + b"\n")
        assert digest.hexdigest() == "939034f9c7f4c13a2cf22361286078359a81c42fe946047624bf5db45ef8c392"

    def test_deep_tree_needs_no_recursion(self):
        key = canonical_key(caterpillar_topology(600))
        assert key.startswith("t0:((((") and key.count("(") == 598

    def test_terminal_with_children_keeps_its_subtree(self):
        p1 = Topology(4, 0, ((0, 1), (1, 2), (2, 3)))
        p2 = Topology(4, 0, ((0, 1), (1, 3), (3, 2)))
        assert canonical_key(p1) == "t0:t1(t2(t3))"
        assert canonical_key(p2) == "t0:t1(t3(t2))"

    def test_root_degree_does_not_hide_a_branch_node(self):
        # Terminal 0 joined to 1 and 2 directly, and through one branch node.
        direct = Topology(3, 0, ((0, 1), (0, 2)))
        star = Topology(3, 1, ((0, 3), (1, 3), (2, 3)))
        assert canonical_key(direct) == "t0:t1,t2"
        assert canonical_key(star) == "t0:(t1,t2)"

    def test_keys_separate_exactly_the_branch_relabelings(self):
        # Every tree on 4 terminals and 2 branch nodes: two trees share a key
        # exactly when swapping the branch labels maps one onto the other.
        swap = {4: 5, 5: 4}
        orbits = {}
        for seq in itertools.product(range(6), repeat=4):
            edges = _prufer_to_edges(seq, 6)
            tree = frozenset(map(frozenset, edges))
            swapped = frozenset(frozenset(swap.get(x, x) for x in e) for e in edges)
            orbits.setdefault(canonical_key(Topology(4, 2, edges)), set()).add(frozenset((tree, swapped)))
        assert all(len(found) == 1 for found in orbits.values())
        assert len(set().union(*orbits.values())) == len(orbits)
