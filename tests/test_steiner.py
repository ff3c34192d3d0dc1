import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from minnet import experiments, steiner, topology
from minnet.experiments import heuristic_steiner, hex_lattice_instance, random_instance
from minnet.geometry import (
    DEFAULT_TOL,
    GeometryError,
    ToleranceConfig,
    angle_at,
    fermat_point_triples,
)
from minnet.mdm import solve_mdm_finite
from minnet.ratio import caterpillar_topology
from minnet.steiner import (
    EmbeddedTree,
    TreeReport,
    _colour_classes,
    _gs_sweeps,
    _harmonic_init,
    _lower_bounds,
    _relax_forest,
    instance_scale,
    count_branching_in_ball,
    count_crossings,
    length_in_ball,
    relax_topology,
    solve_exact,
    verify_tree,
)
from minnet.topology import Topology, _branch_neighbours, _full_topology_arrays, enumerate_full_topologies

MIN_ANGLE = 2.0 * math.pi / 3.0

# Closed-form optima, re-derived by hand and cross-checked against a
# multistart BFGS oracle on the smoothed length (worst oracle gap 1e-8).
EQUILATERAL_LENGTH = math.sqrt(3.0)  # side-1 triangle through the centroid
SQUARE_LENGTH = 1.0 + math.sqrt(3.0)
SQUARE_BRANCH_OFFSET = 1.0 / (2.0 * math.sqrt(3.0))  # 0.2886751345948129
RIGHT_ISOCELES_LENGTH = 1.9318516525781366  # == sqrt(2 + sqrt(3))

# A 4-terminal cross with two branch points placed so the five segments cut
# the half-radius circle (r = 2, t = 1/2) in exactly six transversal points.
SIX_CROSSING_TERMINALS = np.array(
    [
        (-1.937607863137521, 0.4956569062442783),
        (0.49362601332867106, 1.9381262494907918),
        (1.937607863137521, 0.4956569062442783),
        (0.49362601332867106, -1.9381262494907916),
    ]
)
SIX_CROSSING_BRANCHES = np.array(
    [
        (0.26533726635090726, 1.0860188945264015),
        (1.0844055936219945, 0.26700927381097483),
    ]
)
SIX_CROSSING_TOPOLOGY = Topology(4, 2, ((0, 4), (4, 1), (4, 5), (5, 2), (5, 3)))


def six_crossing_tree() -> EmbeddedTree:
    coords = np.vstack([SIX_CROSSING_TERMINALS, SIX_CROSSING_BRANCHES])
    length = sum(
        float(np.linalg.norm(coords[u] - coords[v]))
        for u, v in SIX_CROSSING_TOPOLOGY.edges
    )
    return EmbeddedTree(
        SIX_CROSSING_TOPOLOGY,
        SIX_CROSSING_TERMINALS,
        SIX_CROSSING_BRANCHES,
        length,
        True,
    )


def mst_length(pts: np.ndarray) -> float:
    dense = squareform(pdist(pts))
    return float(minimum_spanning_tree(dense).sum())


def smoothed_multistart_oracle(pts: np.ndarray, rng, starts: int = 5) -> float:
    """Independent optimum: BFGS on sum(sqrt(|e|^2 + eps^2)), all topologies."""
    n = pts.shape[0]
    best = np.inf
    eps2 = 1e-24
    for topo in enumerate_full_topologies(n):
        edges = topo.edges

        def f(x):
            pos = np.vstack([pts, x.reshape(-1, 2)])
            return sum(
                np.sqrt(((pos[u] - pos[v]) ** 2).sum() + eps2) for u, v in edges
            )

        for _ in range(starts):
            x0 = (pts.mean(axis=0) + rng.normal(0.0, 0.3, (n - 2, 2))).ravel()
            res = minimize(f, x0, method="BFGS", options={"maxiter": 400, "gtol": 1e-12})
            best = min(best, float(res.fun))
    return best


class TestFrozenOptima:
    def test_equilateral_triangle(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
        res = solve_exact(pts)
        assert res.tree.converged
        assert res.tree.length == pytest.approx(EQUILATERAL_LENGTH, abs=1e-12)
        assert len(res.cominimal) == 1
        centroid = np.mean(pts, axis=0)
        assert np.linalg.norm(res.tree.steiner[0] - centroid) < 1e-9

    def test_unit_square_two_cominimal(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert res.tree.length == pytest.approx(SQUARE_LENGTH, abs=1e-9)
        assert len(res.cominimal) == 2
        assert res.tree.converged

    def test_unit_square_branch_positions(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        ys = np.sort(res.tree.steiner[:, 1])
        xs = np.sort(res.tree.steiner[:, 0])
        lo, hi = SQUARE_BRANCH_OFFSET, 1.0 - SQUARE_BRANCH_OFFSET
        on_vertical = np.allclose(xs, [0.5, 0.5], atol=1e-7) and np.allclose(
            ys, [lo, hi], atol=1e-7
        )
        on_horizontal = np.allclose(ys, [0.5, 0.5], atol=1e-7) and np.allclose(
            xs, [lo, hi], atol=1e-7
        )
        assert on_vertical or on_horizontal

    def test_right_isoceles(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert res.tree.length == pytest.approx(RIGHT_ISOCELES_LENGTH, abs=1e-12)

    def test_two_terminals(self):
        res = solve_exact([(0.0, 0.0), (3.0, 4.0)])
        assert res.tree.length == pytest.approx(5.0)
        assert len(res.cominimal) == 1

    def test_obtuse_triangle_collapses(self):
        # Fermat point sits on the obtuse vertex; the branch node must land
        # there exactly and the tree degenerates to the two short sides.
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)]
        res = solve_exact(pts)
        expected = 2.0 * math.hypot(0.5, 0.05)
        assert res.tree.length == pytest.approx(expected, abs=1e-12)
        report = verify_tree(res.tree)
        assert report.n_degenerate_edges == 1


class TestRelaxTopology:
    def test_trace_monotone(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (5, 2))
        topo = enumerate_full_topologies(5)[4]
        tree = relax_topology(pts, topo)
        trace = np.asarray(tree.length_trace)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] == pytest.approx(tree.length, rel=1e-12)

    def test_collapsed_pair_regression(self):
        # This instance/topology pair stalls plain coordinate descent with two
        # coincident branch nodes whose joint pull is ~0.53: only a joint
        # translation (the Newton finisher moves all nodes at once) reaches
        # stationarity.
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, (5, 2))
        topo = enumerate_full_topologies(5)[7]
        tree = relax_topology(pts, topo)
        assert tree.converged
        assert tree.length == pytest.approx(1.3774683053299097, abs=1e-9)

    def test_stiff_coupling_regression(self):
        # Short edges couple the branch nodes so stiffly that sweeps crawl;
        # the Newton finisher must certify these.
        rng = np.random.default_rng(123)
        found = 0
        for _ in range(10):
            n = int(rng.integers(3, 8))
            pts = rng.uniform(0.0, 1.0, (n, 2))
            topos = enumerate_full_topologies(n)
            for k in rng.choice(len(topos), size=min(3, len(topos)), replace=False):
                tree = relax_topology(pts, topos[int(k)])
                assert tree.converged, (n, int(k))
                found += 1
        assert found > 0

    def test_deep_collapsed_cluster(self):
        # All six branch nodes of this caterpillar collapse into one point
        # through five zero-length edges, so the optimum is a star of the
        # eight terminals; only a joint move of the whole cluster reaches it.
        pts = np.random.default_rng(5).uniform(0.0, 1.0, (8, 3))
        tree = relax_topology(pts, caterpillar_topology(8))
        assert tree.converged
        assert verify_tree(tree).n_degenerate_edges == 5
        assert tree.length == pytest.approx(4.026095101419909, rel=1e-12)

    def test_collapsed_branch_nodes_coincide_exactly(self):
        # The smoothed Newton optimum leaves collapsed branch nodes ~1e-14 of
        # the scale apart; the finisher snaps each cluster onto one point.
        rng = np.random.default_rng(36)
        collapsed = []
        for n in range(8, 13):
            for _ in range(7):
                pts = rng.random((n, 3))
                tree = relax_topology(pts, caterpillar_topology(n))
                coords, degen = tree.coords(), DEFAULT_TOL.eps_len * instance_scale(pts)
                for u, v in tree.topology.edges:
                    gap = float(np.linalg.norm(coords[u] - coords[v]))
                    if u >= n and v >= n and gap <= degen:
                        collapsed.append(gap)
        assert len(collapsed) == 123
        assert all(gap == 0.0 for gap in collapsed)

    def test_rejects_wrong_terminal_count(self):
        topo = enumerate_full_topologies(4)[0]
        with pytest.raises(GeometryError):
            relax_topology([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], topo)

    def test_rejects_non_full_topology(self):
        path = Topology(3, 0, ((0, 1), (1, 2)))
        with pytest.raises(GeometryError):
            relax_topology([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], path)


class TestSolveExactInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 6))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        ours = solve_exact(pts).tree.length
        oracle = smoothed_multistart_oracle(pts, rng)
        # Exhaustion can only do better than a sampled optimizer, and the
        # oracle pins us from below up to its own convergence slack.
        assert ours <= oracle + 1e-7
        assert ours >= oracle - 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_bounded_by_mst_and_diameter(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 7))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        res = solve_exact(pts)
        mst = mst_length(pts)
        diam = max(pdist(pts))
        assert res.tree.length <= mst + 1e-9
        # Gilbert-Pollak bound, proven for terminal counts this small.
        assert res.tree.length >= (math.sqrt(3.0) / 2.0) * mst - 1e-9
        assert res.tree.length >= diam - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_winner_angles_and_degrees(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 7))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        res = solve_exact(pts)
        assert res.tree.converged
        report = verify_tree(res.tree)
        assert report.is_tree
        assert report.max_degree <= 3
        if report.min_angle is not None:
            assert report.min_angle >= MIN_ANGLE - 1e-5

    def test_three_dimensional_instance(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, (4, 3))
        res = solve_exact(pts)
        assert res.tree.converged
        assert res.tree.length <= mst_length(pts) + 1e-9
        report = verify_tree(res.tree)
        if report.min_angle is not None:
            assert report.min_angle >= MIN_ANGLE - 1e-5

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, (5, 2))
        base = solve_exact(pts).tree.length
        theta = 0.77
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = pts @ rot.T + np.array([13.0, -4.5])
        assert solve_exact(moved).tree.length == pytest.approx(base, rel=1e-9)
        assert solve_exact(3.0 * pts).tree.length == pytest.approx(3.0 * base, rel=1e-9)

    def test_counts_topologies(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert res.n_topologies == 3

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10.0, 10.0, allow_nan=False),
                st.floats(-10.0, 10.0, allow_nan=False),
            ),
            min_size=3,
            max_size=5,
            unique=True,
        )
    )
    def test_never_beats_collinear_floor(self, points):
        pts = np.asarray(points, dtype=float)
        # Hypothesis draws spreads like 1e-294, whose square underflows; the
        # solver rejects those by design (its extent rule), so check that.
        if not (np.ptp(pts, axis=0) ** 2).sum() >= np.finfo(float).tiny:
            with pytest.raises(GeometryError, match="extent"):
                solve_exact(pts)
            return
        res = solve_exact(pts)
        assert res.tree.length <= mst_length(pts) + 1e-9
        assert res.tree.length >= max(pdist(pts)) - 1e-9


def _tables(topologies, n: int):
    """(nb, edg) of a list of full topologies, the arrays ``_relax_batch`` takes."""
    edg = np.stack([topo.edge_array for topo in topologies])
    return _branch_neighbours(edg, n), edg


def _embeddings_after(pts: np.ndarray, topologies, sweeps: int):
    """Branch-node embeddings after ``sweeps`` Fermat sweeps from the harmonic start."""
    n = len(pts)
    nb, edg = _tables(topologies, n)
    X = np.empty((len(topologies), 2 * n - 2, pts.shape[1]))
    X[:, :n] = pts
    X[:, n:] = _harmonic_init(pts, nb)
    _gs_sweeps(X, nb, n, _colour_classes(nb, n), 0.0, sweeps)
    return X, nb, edg


def _full_sweeps(X, nb, n, colour, move_target, max_sweeps, edg=None, trace=None, certify=None, balls=None):
    """Reference sweep driver: every sweep recomputes every branch node.

    ``_gs_sweeps`` without its active set, with the same retirement, trace,
    certificate, checkpoint interval, checkpoint finish (not repeated after
    a tie) and ball-leaf rules; a topology's largest move decides whether it
    stays in the batch.
    """
    act = np.arange(len(nb))
    tied = np.zeros(len(nb), dtype=bool)
    if certify is not None:
        bounds, degen, eps_tie, scale, steps, every = certify
        best = steiner._total_lengths(X, edg)
    sweeps = 0
    while sweeps < max_sweeps and len(act):
        Xa, nba = X[act], nb[act]
        move = np.zeros(len(act))
        if balls is not None:
            centers, radii, leaf_nbr = balls
            v = Xa[np.arange(len(act))[:, None], leaf_nbr[act]] - centers
            dist = np.linalg.norm(v, axis=2)
            reach = np.minimum(dist, radii) / np.where(dist == 0.0, 1.0, dist)
            new = centers + reach[..., None] * v
            move = np.linalg.norm(new - Xa[:, :n], axis=2).max(axis=1)
            Xa[:, :n] = new
        for c in (False, True):
            rows, i = np.nonzero(colour[act] == c)
            if len(rows):
                new = fermat_point_triples(Xa[rows[:, None], nba[rows, i]])
                np.maximum.at(move, rows, np.linalg.norm(new - Xa[rows, n + i], axis=1))
                Xa[rows, n + i] = new
        X[act] = Xa
        sweeps += 1
        keep = move > move_target
        if trace is not None and edg is not None:
            trace.append(steiner._total_lengths(X, edg))
        if certify is not None and sweeps % every == 0:
            best[act] = steiner._total_lengths(Xa, edg[act])
            cutoff = best.min() * (1.0 + eps_tie)
            far = np.flatnonzero(keep & (best[act] > cutoff))
            if len(far):
                lb = _lower_bounds(Xa[far], edg[act[far]], n, degen, balls)
                dead = lb > cutoff
                bounds[act[far[dead]]] = lb[dead]
                keep[far[dead]] = False
            near = np.flatnonzero(keep & ~tied[act] & (best[act] <= best.min() * (1.0 + steiner._FINISH_NEAR)))
            if balls is None and len(near):
                lb = _lower_bounds(Xa[near], edg[act[near]], n, degen)
                near = near[best[act[near]] - lb <= steiner._FINISH_GAP * scale]
                if len(near):
                    Y = Xa.copy()
                    levels = steiner._EPS_LEVELS[-1:]
                    steps.append(steiner._newton_finish(Y, edg[act], n, near, scale, degen, levels=levels))
                    shorter = steiner._total_lengths(Y[near], edg[act[near]]) < best[act[near]]
                    X[act[near[shorter]]] = Y[near[shorter]]
                    tied[act[near[~shorter]]] = True
        if not keep.all() and sweeps < max_sweeps:
            if certify is not None:
                best[act[~keep]] = steiner._total_lengths(Xa[~keep], edg[act[~keep]])
            act = act[keep]
    return sweeps


def _bound_instances():
    rng = np.random.default_rng(2024)
    out = [
        pytest.param(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), id="square"),
        pytest.param(
            np.column_stack([np.arange(6.0), (np.arange(6) % 2) * math.sqrt(3.0)]), id="zigzag6"
        ),
        pytest.param(
            np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.2), (0.3, 0.9)]), id="coincident_pair"
        ),
        pytest.param(
            np.array([(0.0, 0.0), (1.0, 0.5), (2.5, 1.25), (3.0, 1.5), (4.0, 2.0)]), id="collinear"
        ),
    ]
    for n in (4, 5, 6, 7):
        for d in (2, 3):
            out.append(pytest.param(rng.uniform(0.0, 1.0, (n, d)), id=f"uniform_n{n}_d{d}"))
    # A terminal pair 1e-10 apart collapses a branch node onto it, and a
    # hexagon jittered by 1e-7 has many near-optimal topologies with short
    # edges; both leave edges the bound must handle below degen.
    for n, d in ((5, 2), (4, 3)):
        pts = rng.uniform(0.0, 1.0, (n, d))
        pts[1] = pts[0] + 1e-10 * rng.standard_normal(d)
        out.append(pytest.param(pts, id=f"pair_1e-10_d{d}"))
    out.append(pytest.param(_jittered_ngon(rng, 6, 3), id="jittered_hexagon"))
    return out


def _jittered_ngon(rng, n: int, d: int) -> np.ndarray:
    """Radius-1 regular n-gon in the first two coordinates, jittered by 1e-7."""
    angle = 2.0 * math.pi * np.arange(n) / n
    pts = np.zeros((n, d))
    pts[:, 0], pts[:, 1] = np.cos(angle), np.sin(angle)
    return pts + 1e-7 * rng.standard_normal((n, d))


def _degenerate_stream(seed: int, count: int):
    """Seeded mix of jittered n-gons, sets with a pair 1e-10 apart and uniform sets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d, kind = int(rng.integers(3, 7)), int(rng.integers(2, 4)), int(rng.integers(0, 3))
        if kind == 0:
            yield _jittered_ngon(rng, n, d)
            continue
        pts = rng.random((n, d))
        if kind == 1:
            pts[1] = pts[0] + 1e-10 * rng.standard_normal(d)
        yield pts


class TestLowerBound:
    """The certificate that lets solve_exact retire topologies must be sound."""

    @pytest.mark.parametrize("pts", _bound_instances())
    def test_bound_never_exceeds_relaxed_length(self, pts):
        n = len(pts)
        topologies = enumerate_full_topologies(n)
        if n >= 6:
            # Relaxing hundreds of topologies one at a time is slow; a seeded
            # sample keeps every instance while bounding the run time.
            pick = np.random.default_rng(n).choice(len(topologies), 12, replace=False)
            topologies = [topologies[int(k)] for k in pick]
        ref = np.array([relax_topology(pts, topo).length for topo in topologies])
        scale = instance_scale(pts)
        degen = DEFAULT_TOL.eps_len * scale
        for sweeps in (1, 5, 20, 200):
            X, nb, edg = _embeddings_after(pts, topologies, sweeps)
            lb = _lower_bounds(X, edg, n, degen)
            assert np.all(lb <= ref + 1e-12 * scale), (sweeps, (lb - ref).max())

    @pytest.mark.parametrize("radius", [None, 0.05])
    def test_blocks_equal_one_call_bit_for_bit(self, radius, monkeypatch):
        # All 10 395 topologies of n = 8, in blocks of 1000 (the last one
        # short) and in one call.
        pts = np.random.default_rng(8).uniform(0.0, 1.0, (8, 2))
        X, _, edg = _embeddings_after(pts, enumerate_full_topologies(8), 3)
        balls = None if radius is None else (pts, np.full(8, radius), None)
        degen = DEFAULT_TOL.eps_len * instance_scale(pts)
        monkeypatch.setattr(steiner, "_BOUND_BLOCK", len(X))
        whole = _lower_bounds(X, edg, 8, degen, balls)
        monkeypatch.setattr(steiner, "_BOUND_BLOCK", 1000)
        assert np.array_equal(_lower_bounds(X, edg, 8, degen, balls), whole)

    def test_bound_is_tight_at_the_optimum(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
        topologies = enumerate_full_topologies(3)
        X, nb, edg = _embeddings_after(pts, topologies, 50)
        lb = _lower_bounds(X, edg, 3, 1e-9)
        assert lb[0] == pytest.approx(EQUILATERAL_LENGTH, abs=1e-12)

    def test_bound_is_tight_at_a_collapsed_branch(self):
        # The obtuse corner holds more than 120 degrees, so the branch node
        # collapses onto it and one edge has length zero.
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)])
        X, nb, edg = _embeddings_after(pts, enumerate_full_topologies(3), 50)
        scale = instance_scale(pts)
        assert np.array_equal(X[0, 3], pts[2])
        lb = _lower_bounds(X, edg, 3, DEFAULT_TOL.eps_len * scale)
        gap = steiner._total_lengths(X, edg)[0] - lb[0]
        assert 0.0 <= gap <= DEFAULT_TOL.eps_len * scale

    def test_winners_certified_on_degenerate_stream(self):
        # Jittered n-gons, pairs 1e-10 apart and uniform sets: every winner's
        # bound stays below its length, and the duality gap certifies every
        # winner within eps_len * scale.
        unconverged = set()
        for i, pts in enumerate(_degenerate_stream(7, 300)):
            res = solve_exact(pts)
            assert res.gap >= -1e-12 * instance_scale(pts), i
            assert res.sweeps < steiner._MAX_SWEEPS, i
            if not res.tree.converged:
                unconverged.add(i)
        assert unconverged == set()

    @pytest.mark.parametrize("n,d,seed", [(5, 2, 31), (5, 3, 32), (6, 2, 33)])
    def test_solve_exact_matches_best_single_relaxation(self, n, d, seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, d))
        best = min(relax_topology(pts, topo).length for topo in enumerate_full_topologies(n))
        assert solve_exact(pts).tree.length == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize(
        "pts",
        [
            pytest.param(np.random.default_rng(7).uniform(0.0, 1.0, (7, 2)), id="uniform_n7"),
            pytest.param(_jittered_ngon(np.random.default_rng(6), 6, 2), id="jittered_hexagon"),
        ],
    )
    def test_gaps_are_fresh_bounds(self, pts):
        # A pruned topology keeps the bound that pruned it, the others are
        # bounded after the sweeps: either way the bound of its final embedding.
        n = len(pts)
        nb, edg = _full_topology_arrays(n, 9)
        X, lengths, _, gaps, _, pruned, *_ = steiner._relax_batch(pts, nb, edg, DEFAULT_TOL)
        assert pruned.any() and not pruned.all()
        fresh = _lower_bounds(X, edg, n, DEFAULT_TOL.eps_len * instance_scale(pts))
        assert np.array_equal(lengths - gaps, fresh)

    def test_sweeps_do_not_depend_on_batch(self):
        # A topology leaves the batch when it settles, so its embedding is the
        # one it gets when swept alone, bit for bit.  With a radius, the
        # leaves are free in balls around the points, as in solve_mdm_finite.
        pts = np.random.default_rng(8).uniform(0.0, 1.0, (5, 2))
        target = 1e-12 * instance_scale(pts)
        topologies = enumerate_full_topologies(5)

        def swept(topos, radius):
            X, nb, _ = _embeddings_after(pts, topos, 0)
            balls = None
            if radius is not None:
                leaf_nbr = np.array([[topo.neighbors(i)[0] for i in range(5)] for topo in topos])
                balls = (pts, np.full(5, radius), leaf_nbr)
            _gs_sweeps(X, nb, 5, _colour_classes(nb, 5), target, 3000, balls=balls)
            return X

        for radius in (None, 0.05):
            together = swept(topologies, radius)
            for t in range(len(topologies)):
                assert np.array_equal(swept(topologies[t : t + 1], radius)[0], together[t])


class TestColourClasses:
    """A sweep moves two colour classes, each with one batched Fermat call."""

    def _assert_proper(self, nb: np.ndarray, n: int) -> np.ndarray:
        colour = _colour_classes(nb, n)
        assert colour.shape == nb.shape[:2] and colour.dtype == bool
        # Every branch node sits in exactly one class, and no branch-branch
        # edge stays inside a class.
        zero, one = np.nonzero(~colour), np.nonzero(colour)
        assert len(zero[0]) + len(one[0]) == colour.size
        t, i, k = np.nonzero(nb >= n)
        assert len(t) > 0
        assert np.all(colour[t, i] != colour[t, nb[t, i, k] - n])
        return colour

    def test_all_topologies_of_seven_terminals(self):
        nb, _ = _tables(enumerate_full_topologies(7), 7)
        assert len(nb) == 945
        self._assert_proper(nb, 7)

    def test_caterpillar(self):
        nb, _ = _tables([caterpillar_topology(40)], 40)
        colour = self._assert_proper(nb, 40)
        assert np.array_equal(colour[0], np.arange(38) % 2 == 1)

    def test_heuristic_branch_forest(self):
        n = 128
        tree = heuristic_steiner(random_instance(n, 2))
        topo = tree.topology
        nb = np.array([topo.neighbors(n + i) for i in range(topo.n_steiner)])[None]
        self._assert_proper(nb, n)
        # The branch nodes form a forest of several trees, isolated nodes
        # included, not one tree.
        t, i, k = np.nonzero(nb >= n)
        assert len(t) < 2 * (topo.n_steiner - 1)

    def test_two_kernel_calls_per_sweep(self, monkeypatch):
        calls = []

        def counting(triples):
            calls.append(len(triples))
            return fermat_point_triples(triples)

        pts = np.random.default_rng(40).uniform(0.0, 1.0, (40, 2))
        X, nb, _ = _embeddings_after(pts, [caterpillar_topology(40)], 0)
        Y = X.copy()
        _full_sweeps(Y, nb, 40, _colour_classes(nb, 40), 0.0, 5)
        # The nodes due in full sweeps: all in the first sweep, then those
        # with a neighbour whose last update changed it.
        colour, Z = _colour_classes(nb, 40)[0], X[0].copy()
        changed, due = np.zeros(78, dtype=bool), 0
        for sweep in range(5):
            for c in (False, True):
                idx = 40 + np.flatnonzero(colour == c)
                due += len(idx) if sweep == 0 else changed[nb[0, idx - 40]].any(axis=1).sum()
                new = fermat_point_triples(Z[nb[0, idx - 40]])
                changed[idx] = (new != Z[idx]).any(axis=1)
                Z[idx] = new
        monkeypatch.setattr(steiner, "fermat_point_triples", counting)
        _gs_sweeps(X, nb, 40, _colour_classes(nb, 40), 0.0, 5)
        # At most one call per class and sweep; the active set sends only the
        # due nodes, fewer than the 38 a full sweep moves, and lands on the
        # full sweeps' embedding bit for bit.
        assert len(calls) <= 10
        assert sum(calls) == due < 5 * 38
        assert np.array_equal(X, Y) and np.array_equal(X[0], Z)

    def test_class_update_is_node_by_node_gauss_seidel(self):
        # Moving a class at once equals moving its nodes one at a time, class
        # 0 first, bit for bit.
        pts = np.random.default_rng(9).uniform(0.0, 1.0, (7, 3))
        topologies = enumerate_full_topologies(7)[::50]
        X, nb, _ = _embeddings_after(pts, topologies, 0)
        colour = _colour_classes(nb, 7)
        Y = X.copy()
        _gs_sweeps(X, nb, 7, colour, 0.0, 3)
        for _ in range(3):
            for t in range(len(topologies)):
                for c in (False, True):
                    for i in np.flatnonzero(colour[t] == c):
                        Y[t, 7 + i] = fermat_point_triples(Y[t, nb[t, i]][None])[0]
        assert np.array_equal(X, Y)


def _dense_scale_oracle(pts: np.ndarray) -> float:
    """The n x n x d pairwise formula that instance_scale used for small sets."""
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


class TestInstanceScale:
    def test_matches_dense_formula_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n, d = int(rng.integers(1, 80)), int(rng.integers(2, 5))
            pts = rng.uniform(-10.0, 10.0, (n, d))
            if rng.random() < 0.3:
                pts = np.round(pts, int(rng.integers(0, 3)))
            if rng.random() < 0.3:
                pts[rng.integers(0, n, n // 2)] = pts[0]  # duplicates
            assert instance_scale(pts) == _dense_scale_oracle(pts)

    def test_large_sets_use_the_bounding_box(self):
        pts = np.random.default_rng(42).uniform(0.0, 1.0, (513, 3))
        assert instance_scale(pts) == float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


class TestSolveAccounting:
    def test_counts_partition_topologies(self):
        pts = np.column_stack([np.arange(6.0), (np.arange(6) % 2) * math.sqrt(3.0)])
        res = solve_exact(pts)
        assert res.n_topologies == 105
        assert res.n_pruned > 0
        assert res.n_pruned + res.n_unconverged <= res.n_topologies
        assert 0 < res.sweeps <= 3000

    def test_square_needs_no_pruning(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert res.n_pruned == 0 and res.n_unconverged == 0
        assert res.sweeps >= 1

    def test_coincident_terminals_run_no_sweeps(self):
        res = solve_exact([(0.5, 0.5)] * 4)
        assert res.tree.length == 0.0
        assert (res.sweeps, res.n_pruned, res.n_unconverged, res.newton_steps) == (0, 0, 0, 0)


class TestVerifyTree:
    def test_square_report(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        report = verify_tree(res.tree)
        assert report.is_tree
        assert report.angles_ok
        assert report.max_degree == 3
        assert report.n_degenerate_edges == 0
        assert report.length == pytest.approx(SQUARE_LENGTH, abs=1e-9)

    def test_degenerate_contraction(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)]
        report = verify_tree(solve_exact(pts).tree)
        assert report.is_tree
        assert report.n_degenerate_edges == 1
        assert report.degenerate_edges
        # After contraction the branch sits on the obtuse corner, whose angle
        # is wide enough that the tripod law still holds.
        assert report.angles_ok


class TestCountCrossings:
    def test_six_crossing_fixture(self):
        report = count_crossings(six_crossing_tree(), (0.0, 0.0), 2.0, 0.5)
        assert report.count == 6
        assert not report.degenerate
        assert report.points.shape == (6, 2)
        radii = np.linalg.norm(report.points, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-9)

    def test_segment_through_center(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo, np.array([(-3.0, 0.0), (3.0, 0.0)]), np.empty((0, 2)), 6.0, True
        )
        report = count_crossings(tree, (0.0, 0.0), 2.0, 0.5)
        assert report.count == 2
        assert not report.degenerate

    def test_tangent_counts_once_and_flags(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo, np.array([(-3.0, 1.0), (3.0, 1.0)]), np.empty((0, 2)), 6.0, True
        )
        report = count_crossings(tree, (0.0, 0.0), 2.0, 0.5)
        assert report.count == 1
        assert report.degenerate

    def test_near_miss_flags(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo,
            np.array([(-3.0, 1.0 + 1e-12), (3.0, 1.0 + 1e-12)]),
            np.empty((0, 2)),
            6.0,
            True,
        )
        report = count_crossings(tree, (0.0, 0.0), 2.0, 0.5)
        assert report.degenerate

    def test_endpoint_on_sphere_flags(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo, np.array([(1.0, 0.0), (3.0, 0.0)]), np.empty((0, 2)), 2.0, True
        )
        report = count_crossings(tree, (0.0, 0.0), 2.0, 0.5)
        assert report.degenerate

    def test_shared_branch_point_crossing_deduped(self):
        # Two edges meeting exactly on the sphere would each report the hit;
        # the report must count the location once (and flag the touch).
        topo = Topology(3, 1, ((0, 3), (1, 3), (2, 3)))
        terms = np.array([(2.0, 0.0), (-2.0, 1.5), (-2.0, -1.5)])
        branch = np.array([(1.0, 0.0)])
        coords = np.vstack([terms, branch])
        length = sum(
            float(np.linalg.norm(coords[u] - coords[v])) for u, v in topo.edges
        )
        tree = EmbeddedTree(topo, terms, branch, length, True)
        report = count_crossings(tree, (0.0, 0.0), 2.0, 0.5)
        locations = {tuple(np.round(p, 9)) for p in report.points}
        assert len(locations) == report.count


class TestLengthInBall:
    def test_whole_tree_inside(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        r = math.sqrt(0.5)
        got = length_in_ball(res.tree, (0.5, 0.5), r, 1.0)
        assert got == pytest.approx(res.tree.length, abs=1e-12)

    def test_chord_clipping_exact(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo, np.array([(-5.0, 1.0), (5.0, 1.0)]), np.empty((0, 2)), 10.0, True
        )
        # chord of the radius-2 circle at height 1: length 2*sqrt(3)
        got = length_in_ball(tree, (0.0, 0.0), 4.0, 0.5)
        assert got == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)

    def test_disjoint_segment(self):
        topo = Topology(2, 0, ((0, 1),))
        tree = EmbeddedTree(
            topo, np.array([(10.0, 10.0), (11.0, 10.0)]), np.empty((0, 2)), 1.0, True
        )
        assert length_in_ball(tree, (0.0, 0.0), 2.0, 0.5) == 0.0

    def test_monte_carlo_agreement(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        tree = res.tree
        center = np.array([0.5, 0.5])
        r = math.sqrt(0.5)
        got = length_in_ball(tree, center, r, 0.5)
        rng = np.random.default_rng(1)
        coords = tree.coords()
        total = 0.0
        for u, v in tree.topology.edges:
            p, q = coords[u], coords[v]
            ts = rng.uniform(0.0, 1.0, 150_000)
            samples = p[None] + ts[:, None] * (q - p)[None]
            frac = (np.linalg.norm(samples - center, axis=1) <= 0.5 * r).mean()
            total += frac * float(np.linalg.norm(q - p))
        assert got == pytest.approx(total, abs=3e-3)


class TestCountBranchingInBall:
    def test_square_has_two(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        r = math.sqrt(0.5)
        assert count_branching_in_ball(res.tree, (0.5, 0.5), r, 1.0) == 2

    def test_equilateral_has_one(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
        res = solve_exact(pts)
        center = np.mean(pts, axis=0)
        assert count_branching_in_ball(res.tree, center, 1.0, 0.5) == 1

    def test_excludes_outside_branches(self):
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        # A tiny ball around one branch point sees exactly that one.
        b = res.tree.steiner[0]
        assert count_branching_in_ball(res.tree, b, 0.05, 0.5) == 1

    def test_collapsed_cluster_counts_once(self):
        # The obtuse triangle's branch point collapses onto the middle
        # terminal; after contraction its degree is 2, so no branching.
        res = solve_exact([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)])
        assert count_branching_in_ball(res.tree, (0.5, 0.05), 0.5, 0.9) == 0


# ---------------------------------------------------------------------------
# per-edge oracles for the array-wide verification and ball statistics


def _oracle_contract(coords, edges, degen):
    parent = list(range(len(coords)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    short = np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1) <= degen
    for (u, v), z in zip(e.tolist(), short):
        if z and find(u) != find(v):
            parent[find(u)] = find(v)
    clusters = {}
    for v in range(len(coords)):
        clusters.setdefault(find(v), []).append(v)
    groups = list(clusters.values())
    index_of = {v: i for i, members in enumerate(groups) for v in members}
    positions = np.array([coords[members].mean(axis=0) for members in groups])
    pairs = [(index_of[u], index_of[v]) for u, v in e.tolist() if index_of[u] != index_of[v]]
    return positions, pairs


def oracle_verify_tree(tree, tol=DEFAULT_TOL):
    coords = tree.coords()
    degen = tol.eps_len * tree.scale()
    edge_list = list(tree.topology.edges)
    degenerate = tuple(
        (u, v) for u, v in edge_list if np.linalg.norm(coords[u] - coords[v]) <= degen
    )
    positions, new_edges = _oracle_contract(coords, edge_list, degen)
    length = float(sum(np.linalg.norm(coords[u] - coords[v]) for u, v in edge_list))
    adjacency = {i: set() for i in range(len(positions))}
    multi = False
    for u, v in new_edges:
        multi |= v in adjacency[u]
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    connected = len(seen) == len(positions)
    is_tree = len(new_edges) == len(positions) - 1 and connected and not multi
    min_angle = None
    for v, nbrs in adjacency.items():
        nb_list = sorted(nbrs)
        for i in range(len(nb_list)):
            for j in range(i + 1, len(nb_list)):
                ang = angle_at(positions[v], positions[nb_list[i]], positions[nb_list[j]])
                if min_angle is None or ang < min_angle:
                    min_angle = ang
    return TreeReport(
        length=length,
        is_tree=is_tree,
        max_degree=max((len(a) for a in adjacency.values()), default=0),
        min_angle=min_angle,
        n_degenerate_edges=len(degenerate),
        degenerate_edges=degenerate,
        angles_ok=min_angle is None or min_angle >= MIN_ANGLE - tol.eps_angle,
    )


def _oracle_sphere_hits(p, q, center, radius):
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
    return [s for s in roots if 0.0 <= s <= 1.0], approach, roots[1] - roots[0]


def oracle_count_crossings(tree, center, r, t, tol=DEFAULT_TOL):
    x = np.asarray(center, dtype=float)
    radius = t * r
    pts, degenerate = [], False
    for p, q in tree.segments():
        hits, approach, gap = _oracle_sphere_hits(p, q, x, radius)
        if len(hits) == 2 and gap * np.linalg.norm(q - p) <= tol.coverage_eps:
            hits = hits[:1]
            degenerate = True
        if not hits and approach <= tol.coverage_eps:
            degenerate = True
        pts.extend(p + s * (q - p) for s in hits)
        for endpoint in (p, q):
            if abs(float(np.linalg.norm(endpoint - x)) - radius) <= tol.coverage_eps:
                degenerate = True
    dedup = []
    for point in pts:
        if not any(np.linalg.norm(point - other) <= 1e-9 * max(radius, 1.0) for other in dedup):
            dedup.append(point)
    arr = np.asarray(dedup) if dedup else np.empty((0, x.shape[0]))
    return len(dedup), degenerate, arr


def oracle_length_in_ball(tree, center, r, t):
    x = np.asarray(center, dtype=float)
    radius = t * r
    total = 0.0
    for p, q in tree.segments():
        v = q - p
        a = float(v @ v)
        if a == 0.0:
            continue
        w = p - x
        b = 2.0 * float(w @ v)
        disc = b * b - 4.0 * a * (float(w @ w) - radius * radius)
        if disc <= 0.0:
            continue
        sq = np.sqrt(disc)
        lo = max(0.0, (-b - sq) / (2 * a))
        hi = min(1.0, (-b + sq) / (2 * a))
        if hi > lo:
            total += (hi - lo) * np.sqrt(a)
    return float(total)


def oracle_count_branching(tree, center, r, t, tol=DEFAULT_TOL):
    degen = tol.eps_len * tree.scale()
    positions, new_edges = _oracle_contract(tree.coords(), tree.topology.edges, degen)
    degree = np.zeros(len(positions), dtype=int)
    for u, v in new_edges:
        degree[u] += 1
        degree[v] += 1
    inside = np.linalg.norm(positions - np.asarray(center, dtype=float), axis=1) < t * r
    return int(((degree >= 3) & inside).sum())


def _segment_tree(terminals, edges=((0, 1),), branches=None):
    terms = np.asarray(terminals, dtype=float)
    branch = np.empty((0, terms.shape[1])) if branches is None else np.asarray(branches, dtype=float)
    topo = Topology(len(terms), len(branch), tuple(edges))
    coords = np.vstack([terms, branch])
    length = sum(float(np.linalg.norm(coords[u] - coords[v])) for u, v in edges)
    return EmbeddedTree(topo, terms, branch, length, True)


ORACLE_FIXTURES = {
    "six_crossing": six_crossing_tree(),
    "tangent": _segment_tree([(-3.0, 1.0), (3.0, 1.0)]),
    "near_miss": _segment_tree([(-3.0, 1.0 + 1e-12), (3.0, 1.0 + 1e-12)]),
    "grazing_chord": _segment_tree([(-3.0, 1.0 - 1e-14), (3.0, 1.0 - 1e-14)]),
    "endpoint_on_sphere": _segment_tree([(1.0, 0.0), (3.0, 0.0)]),
    "shared_branch_point": _segment_tree(
        [(2.0, 0.0), (-2.0, 1.5), (-2.0, -1.5)], ((0, 3), (1, 3), (2, 3)), [(1.0, 0.0)]
    ),
    "point_segment": _segment_tree([(0.5, 0.0), (0.5, 0.0)]),
    "collapsed_duplicate": _segment_tree(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.5)], ((0, 1), (1, 2), (0, 3))
    ),
}


def _heuristic_trees():
    rng = np.random.default_rng(77)
    return {
        "uniform2d": heuristic_steiner(rng.random((300, 2))),
        "uniform3d": heuristic_steiner(rng.random((200, 3))),
        "hex": heuristic_steiner(hex_lattice_instance(250)),
        "collapsed": relax_topology(rng.random((8, 3)), caterpillar_topology(8)),
    }


@pytest.fixture(scope="module")
def heuristic_trees():
    return _heuristic_trees()


def _assert_ball_stats_match(tree, center, r, t):
    got = count_crossings(tree, center, r, t)
    count, degenerate, points = oracle_count_crossings(tree, center, r, t)
    assert (got.count, got.degenerate) == (count, degenerate)
    assert got.points.shape == points.shape
    np.testing.assert_allclose(got.points, points, rtol=0.0, atol=1e-12 * max(r * t, 1.0))
    ref = oracle_length_in_ball(tree, center, r, t)
    assert length_in_ball(tree, center, r, t) == pytest.approx(ref, rel=1e-12, abs=1e-300)
    assert count_branching_in_ball(tree, center, r, t) == oracle_count_branching(tree, center, r, t)


def _assert_reports_match(got, ref):
    assert got.length == pytest.approx(ref.length, rel=1e-12)
    assert (got.is_tree, got.max_degree, got.angles_ok) == (ref.is_tree, ref.max_degree, ref.angles_ok)
    assert (got.n_degenerate_edges, got.degenerate_edges) == (ref.n_degenerate_edges, ref.degenerate_edges)
    if ref.min_angle is None:
        assert got.min_angle is None
    else:
        assert got.min_angle == ref.min_angle


class TestArrayKernelsMatchPerEdgeOracles:
    @pytest.mark.parametrize("name", sorted(ORACLE_FIXTURES))
    def test_fixture_ball_stats(self, name):
        tree = ORACLE_FIXTURES[name]
        for t in (0.25, 0.5, 0.75, 1.0):
            _assert_ball_stats_match(tree, (0.0, 0.0), 2.0, t)

    @pytest.mark.parametrize("name", sorted(ORACLE_FIXTURES))
    def test_fixture_verify_tree(self, name):
        tree = ORACLE_FIXTURES[name]
        _assert_reports_match(verify_tree(tree), oracle_verify_tree(tree))

    @pytest.mark.parametrize("name", ["uniform2d", "uniform3d", "hex", "collapsed"])
    def test_heuristic_tree_ball_stats(self, heuristic_trees, name):
        tree = heuristic_trees[name]
        pts = tree.terminals
        rng = np.random.default_rng(len(pts))
        spacing = float(np.median(np.sort(np.linalg.norm(pts[:, None] - pts[None], axis=2), axis=1)[:, 1]))
        for _ in range(4):
            x = pts[rng.integers(len(pts))] + rng.uniform(-1.0, 1.0, pts.shape[1]) * spacing
            r = float(np.linalg.norm(pts - x, axis=1).min())
            for t in (0.25, 0.5, 0.75, 2.0, 6.0):
                _assert_ball_stats_match(tree, x, r, t)

    @pytest.mark.parametrize("name", ["uniform2d", "uniform3d", "hex", "collapsed"])
    def test_heuristic_tree_verify(self, heuristic_trees, name):
        tree = heuristic_trees[name]
        _assert_reports_match(verify_tree(tree), oracle_verify_tree(tree))

    def test_degenerate_contraction_matches(self):
        tree = solve_exact([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)]).tree
        _assert_reports_match(verify_tree(tree), oracle_verify_tree(tree))
        _assert_ball_stats_match(tree, (0.5, 0.05), 0.5, 0.9)


class TestActiveSet:
    """``_gs_sweeps`` recomputes only nodes with a moved neighbour."""

    @pytest.mark.parametrize("radius", [None, 0.05])
    def test_equals_full_sweeps_at_zero_target(self, radius):
        pts = np.random.default_rng(11).uniform(0.0, 1.0, (6, 2))
        topologies = enumerate_full_topologies(6)
        X, nb, _ = _embeddings_after(pts, topologies, 0)
        balls = None
        if radius is not None:
            leaf_nbr = np.array([[topo.neighbors(i)[0] for i in range(6)] for topo in topologies])
            balls = (pts, np.full(6, radius), leaf_nbr)
        Y = X.copy()
        colour = _colour_classes(nb, 6)
        assert _gs_sweeps(X, nb, 6, colour, 0.0, 60, balls=balls) == _full_sweeps(Y, nb, 6, colour, 0.0, 60, balls=balls)
        assert np.array_equal(X, Y)

    @pytest.mark.parametrize(
        "pts",
        [
            pytest.param(hex_lattice_instance(250), id="hex250"),
            pytest.param(random_instance(512, 5), id="uniform2d_512"),
            pytest.param(random_instance(512, 6, dim=3), id="uniform3d_512"),
        ],
    )
    def test_heuristic_matches_full_sweeps(self, pts, monkeypatch):
        length = heuristic_steiner(pts).length
        monkeypatch.setattr(steiner, "_gs_sweeps", _full_sweeps)  # the sweeps _relax_forest runs
        assert length == pytest.approx(heuristic_steiner(pts).length, rel=1e-9)

    @pytest.mark.parametrize("n,d,seed", [(6, 2, 61), (6, 3, 62), (7, 2, 71), (7, 3, 72)])
    def test_solve_exact_matches_full_sweeps(self, n, d, seed, monkeypatch):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, d))
        length = solve_exact(pts).tree.length
        monkeypatch.setattr(steiner, "_gs_sweeps", _full_sweeps)
        assert length == pytest.approx(solve_exact(pts).tree.length, rel=1e-9)

    @pytest.mark.parametrize("n,seed", [(5, 51), (5, 52), (6, 61), (6, 62)])
    def test_finite_solver_matches_full_sweeps(self, n, seed, monkeypatch):
        pts = np.random.default_rng(seed).uniform(0.0, 8.0, (n, 2))
        length = solve_mdm_finite(pts, 1.0).length
        monkeypatch.setattr(steiner, "_gs_sweeps", _full_sweeps)
        assert length == pytest.approx(solve_mdm_finite(pts, 1.0).length, rel=1e-9)


def _branch_length(X, nb, n):
    """Length of the edges at the branch nodes X[n:], the only ones that move."""
    i = np.repeat(np.arange(len(nb)), 3)
    j = nb.ravel()
    return float((np.linalg.norm(X[n + i] - X[j], axis=1) * np.where(j >= n, 0.5, 1.0)).sum())


def _capped_round(pts):
    """Arguments of the first heuristic round whose plain sweeps run to the cap."""
    calls = []
    relax = experiments._relax_forest

    def record(X, *args):
        calls.append((X.copy(), *args))
        return relax(X, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_relax_forest", record)
        heuristic_steiner(pts)
    for X, nb, n, move_target, cap, scale in calls:
        if _gs_sweeps(X.copy()[None], nb[None], n, _colour_classes(nb[None], n), move_target, cap) == cap:
            return X, nb, n, move_target, cap, scale
    raise AssertionError("no round sweeps to the cap")


class TestCrawlerFinish:
    """``_relax_forest`` finishes what still moves after 40 sweeps with Newton."""

    @pytest.fixture(scope="class")
    def capped(self):
        # Round 5 of hex_lattice_instance(250): plain sweeps run to the
        # 250-sweep cap, and 40 sweeps leave movers.
        return _capped_round(hex_lattice_instance(250))

    def test_ends_before_the_cap(self, capped):
        X, nb, n, move_target, cap, scale = capped
        assert _relax_forest(X.copy(), nb, n, move_target, cap, scale) < cap

    def test_no_longer_than_plain_sweeps(self, capped):
        X, nb, n, move_target, cap, scale = capped
        plain, finished = X.copy(), X.copy()
        _gs_sweeps(plain[None], nb[None], n, _colour_classes(nb[None], n), move_target, cap)
        _relax_forest(finished, nb, n, move_target, cap, scale)
        assert _branch_length(finished, nb, n) <= _branch_length(plain, nb, n) * (1.0 + 1e-12)

    def test_no_round_of_hex250_reaches_the_cap(self, monkeypatch):
        # Its seventh round swept to the cap while the movers were finished
        # only once; finishing them every 40 sweeps settles it.
        runs = []
        relax = experiments._relax_forest

        def record(X, nb, n, move_target, cap, scale):
            runs.append((relax(X, nb, n, move_target, cap, scale), cap))
            return runs[-1][0]

        monkeypatch.setattr(experiments, "_relax_forest", record)
        heuristic_steiner(hex_lattice_instance(250))
        assert len(runs) >= 7 and all(sweeps < cap for sweeps, cap in runs), runs

    def test_finish_never_lengthens(self, capped, monkeypatch):
        X, nb, n, move_target, cap, scale = capped
        seen = []

        def sweeps(Y, *args):
            seen.append(Y[0].copy())
            done = _gs_sweeps(Y, *args)
            seen.append(Y[0].copy())
            return done

        monkeypatch.setattr(steiner, "_gs_sweeps", sweeps)
        _relax_forest(X.copy(), nb, n, move_target, cap, scale)
        # Sweeps, one sweep that finds the movers, the finish, sweeps again.
        assert len(seen) == 6
        before, after = seen[3], seen[4]
        assert not np.array_equal(before, after)
        assert _branch_length(after, nb, n) <= _branch_length(before, nb, n)


class TestNewtonFinish:
    """The finisher stops on its Newton decrement at the round-off floor."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The step count of every finisher call."""
        steps = []
        finish = steiner._newton_finish

        def record(*args, **kwargs):
            steps.append(finish(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(steiner, "_newton_finish", record)
        return steps

    def test_caterpillar_stops_at_the_floor(self, steps):
        # A 3-d n = 32 caterpillar whose finisher used to run 278 Newton
        # steps, 153 of them at the round-off floor without shortening.
        pts = np.random.default_rng(6).random((32, 3))
        tree = relax_topology(pts, caterpillar_topology(32))
        assert len(steps) == 1 and steps[0] <= 139, steps
        assert tree.converged
        assert tree.length == pytest.approx(14.334826889977045, rel=1e-13)

    def test_solve_exact_sums_the_steps(self, steps):
        # A terminal pair 1e-8 apart leaves the winner for the finisher.
        res = solve_exact([(0.2, 0.3), (0.2 + 1e-8, 0.3), (0.3, 0.9), (0.7, 0.85), (0.4, 0.0)])
        assert res.tree.converged
        assert steps and res.newton_steps == sum(steps) > 0


class TestCheckpointFinish:
    """Near-best topologies still moving at a pruning checkpoint get Newton's finest level."""

    @pytest.mark.parametrize(
        "pts,max_sweeps,length,gap",
        [
            # Sweeps before the checkpoint finish: 95, 132 and 53.  The
            # lengths and gaps are those of the winners then.
            pytest.param(experiments.zigzag_instance(6), 30, 8.717797887081346, 1.4143353155304794e-11, id="zigzag6"),
            pytest.param(experiments.zigzag_instance(7), 20, 10.392304845413264, 6.31636964953941e-11, id="zigzag7"),
            pytest.param(
                np.random.default_rng(1).uniform(0.0, 1.0, (6, 2)), 25, 1.8059093611434938, 1.907141111701094e-12,
                id="uniform_n6",
            ),
        ],
    )
    def test_fewer_sweeps_same_winner(self, pts, max_sweeps, length, gap):
        res = solve_exact(pts)
        assert res.tree.converged
        assert res.sweeps <= max_sweeps
        assert res.tree.length == pytest.approx(length, rel=1e-14)
        assert res.gap <= gap

    def test_checkpoint_steps_are_counted(self, monkeypatch):
        # zigzag6 needs no finish after its sweeps: every step is taken at a checkpoint.
        calls = []
        finish = steiner._newton_finish

        def record(*args, **kwargs):
            calls.append((kwargs.get("levels"), finish(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(steiner, "_newton_finish", record)
        res = solve_exact(experiments.zigzag_instance(6))
        assert calls and all(levels == steiner._EPS_LEVELS[-1:] for levels, _ in calls)
        assert res.newton_steps == sum(steps for _, steps in calls) > 0

    def test_a_tie_is_not_kept(self):
        # Instance 275 of the stream: its winner has a branch node 2e-8 from a
        # terminal.  A finish that kept its equal-length iterate moved it by
        # 4e-10 at every checkpoint, and the sweeps, which moved it back, ran
        # to the 3000-sweep cap; without the checkpoint finish it takes 64.
        pts = next(itertools.islice(_degenerate_stream(7, 300), 275, None))
        res = solve_exact(pts)
        assert res.tree.converged
        assert res.sweeps <= 64

    def test_a_tied_finish_is_not_repeated(self, monkeypatch):
        # A topology (known by its edges) whose checkpoint finish tied is not
        # finished at a later checkpoint of the same solve.
        calls = []
        finish = steiner._newton_finish

        def record(X, edg, n, rows, *args, **kwargs):
            before = steiner._total_lengths(X[rows], edg[rows])
            steps = finish(X, edg, n, rows, *args, **kwargs)
            if kwargs.get("levels") == steiner._EPS_LEVELS[-1:]:
                tied = steiner._total_lengths(X[rows], edg[rows]) >= before
                calls[-1].append([(edg[r].tobytes(), bool(t)) for r, t in zip(rows.tolist(), tied)])
            return steps

        monkeypatch.setattr(steiner, "_newton_finish", record)
        ties = 0
        for pts in itertools.islice(_degenerate_stream(7, 300), 260, 300):
            calls.append([])
            solve_exact(pts)
            done = set()
            for checkpoint in calls[-1]:
                assert not done & {key for key, _ in checkpoint}
                done |= {key for key, tied in checkpoint if tied}
            ties += len(done)
        assert ties > 0

    @pytest.mark.parametrize(
        "solve,every",
        [
            pytest.param(lambda pts: solve_exact(pts[:6]), steiner._CHECKPOINT_SURVIVORS, id="exact_n6"),
            pytest.param(lambda pts: solve_exact(pts[:5]), steiner._CHECKPOINT, id="exact_n5"),
            pytest.param(lambda pts: relax_topology(pts, caterpillar_topology(7)), steiner._CHECKPOINT, id="single"),
            pytest.param(lambda pts: solve_mdm_finite(8.0 * pts[:5], 1.0), steiner._CHECKPOINT, id="balls"),
        ],
    )
    def test_interval_follows_the_start_pass(self, solve, every, monkeypatch):
        # Only the survivors of solve_exact's start pass are checked every 4 sweeps.
        seen = []
        sweeps = steiner._gs_sweeps

        def record(*args, **kwargs):
            seen.append(args[8][-1])
            return sweeps(*args, **kwargs)

        monkeypatch.setattr(steiner, "_gs_sweeps", record)
        solve(np.random.default_rng(4).uniform(0.0, 1.0, (7, 2)))
        assert seen == [every]



class TestStartPass:
    """solve_exact bounds every topology at its harmonic start and sweeps only the survivors."""

    def test_one_round_bound_at_the_start_is_sound(self):
        pts = np.random.default_rng(66).uniform(0.0, 1.0, (6, 2))
        topologies = enumerate_full_topologies(6)
        ref = np.array([relax_topology(pts, topo).length for topo in topologies])
        X, _, edg = _embeddings_after(pts, topologies, 0)
        scale = instance_scale(pts)
        lb = _lower_bounds(X, edg, 6, DEFAULT_TOL.eps_len * scale, rounds=1)
        assert len(lb) == 105
        assert np.all(lb <= ref + 1e-12 * scale), (lb - ref).max()

    def test_crawlers_of_corpus_8b_are_cut_at_the_start(self):
        # Two crawlers, 2 % and 21 % above the minimum, used to sweep to the
        # 3000-sweep cap; their harmonic-start bounds already exceed the cutoff.
        pts = np.random.default_rng([20251118, 8, 2, 98]).random((8, 2))
        res = solve_exact(pts)
        assert res.n_topologies == 10395
        assert res.sweeps <= 200
        assert res.tree.converged
        assert res.tree.length == pytest.approx(1.4689517145604931, rel=1e-15)

    @pytest.mark.parametrize(
        "pts",
        [
            pytest.param([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.5, 0.8), (1.0, 0.0), (0.2, 0.9)], id="duplicated"),
            pytest.param([(0.0, 0.0), (1.0, 0.5), (2.5, 1.25), (3.0, 1.5), (4.0, 2.0), (0.5, 0.25)], id="collinear"),
        ],
    )
    def test_degenerate_sets_keep_their_winners(self, pts):
        # The winner of the full batch relaxed from the start, as _relax_batch
        # does without a cutoff, is solve_exact's winner bit for bit.
        pts = np.array(pts)
        nb, edg = _full_topology_arrays(6, 9)
        _, lengths, *_ = steiner._relax_batch(pts, nb, edg, DEFAULT_TOL)
        res = solve_exact(pts)
        assert res.n_topologies == 105
        assert res.tree.length == lengths.min()
        assert res.tree.topology.edges == tuple(map(tuple, edg[np.argmin(lengths)].tolist()))


class TestPerNMemo:
    """Full-topology arrays and their colour classes are built once per terminal count."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_lazy_colours_equal_colour_classes(self, n):
        nb, _ = _full_topology_arrays(n)
        whole = _colour_classes(nb, n)
        colours = steiner._FullColours(n)
        # Overlapping requests in a shuffled order: each row is coloured once
        # and reads back the same.
        order = np.random.default_rng(n).permutation(len(nb))
        for part in np.array_split(np.r_[order, order[: len(order) // 2]], 7):
            assert np.array_equal(colours[part], whole[part])
        assert colours.filled.all()
        assert np.array_equal(colours.table, whole)

    @pytest.mark.parametrize(
        "pts",
        [
            pytest.param(np.random.default_rng(61).uniform(0.0, 1.0, (6, 2)), id="uniform_n6_d2"),
            pytest.param(np.random.default_rng(72).uniform(0.0, 1.0, (7, 3)), id="uniform_n7_d3"),
            pytest.param(_jittered_ngon(np.random.default_rng(6), 6, 2), id="jittered_hexagon"),
        ],
    )
    def test_cold_and_warm_solves_are_identical(self, pts):
        topology._grown.cache_clear()
        steiner._full_colours.cache_clear()
        cold = solve_exact(pts)
        n = len(pts)
        # The cold call coloured only the rows it swept.
        assert 0 < steiner._full_colours(n).filled.sum() < len(_full_topology_arrays(n)[1])
        warm = solve_exact(pts)
        assert warm.tree.length == cold.tree.length
        assert np.array_equal(warm.tree.steiner, cold.tree.steiner)
        assert [t.edges for t in warm.cominimal] == [t.edges for t in cold.cominimal]
        for field in ("gap", "sweeps", "newton_steps", "n_pruned", "n_unconverged"):
            assert getattr(warm, field) == getattr(cold, field), field
