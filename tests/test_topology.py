import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minnet.topology import (
    Topology,
    TopologyError,
    canonical_key,
    count_full_topologies,
    enumerate_full_topologies,
)


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
