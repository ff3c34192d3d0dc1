import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from minnet.geometry import DEFAULT_TOL, _closest_points, angle_at, point_segment_distances
from minnet.mdm import (
    CompactSetDescriptor,
    MdmError,
    MdmNetwork,
    NumericConfig,
    coverage_check,
    energetic_points,
    horseshoe_circle,
    horseshoe_stadium,
    resample_path_network,
    sample_compact,
    solve_mdm_finite,
    solve_mdm_numeric,
    stadium_competitor,
    verify_mdm,
)
from minnet import mdm
from minnet.mdm import _closest_on_network, _gapped_parallel, _tangent_length
from minnet.ratio import mst
from minnet.steiner import instance_scale, solve_exact

TOL = DEFAULT_TOL

# Frozen outputs of the construction + 1-D gap search; the coverage oracle
# (dense boundary samples against exact segment distances) validates each
# value independently of the search that produced it.
HORSESHOE_R6_LENGTH = 30.192319998510747
HORSESHOE_STADIUM_R6_LENGTH = 34.192319998722  # circle value + both straights

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def _circle_samples(radius, n=720):
    ang = 2.0 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


class TestSampleCompact:
    def test_circle_density_four_hits_quarter_turns(self):
        pts = sample_compact(CompactSetDescriptor.circle(2.0), 4)
        expected = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
        assert np.allclose(pts, expected, atol=1e-12)

    def test_stadium_samples_lie_on_boundary(self):
        R, L = 1.5, 2.0
        pts = sample_compact(CompactSetDescriptor.stadium(R, L), 400)
        # distance from the core segment [(-1,0),(1,0)] must be exactly R
        x = np.clip(pts[:, 0], -L / 2.0, L / 2.0)
        d = np.hypot(pts[:, 0] - x, pts[:, 1])
        assert np.allclose(d, R, atol=1e-9)

    @pytest.mark.parametrize("density", [200, 320, 400, 560, 800, 1600])
    @pytest.mark.parametrize("R, L", [(1.5, 2.0), (3.0, 2.0), (6.0, 2.0)])
    def test_stadium_matches_piecewise_walk(self, R, L, density):
        # The walk one sample at a time, piece by piece, is the reference.
        s = (2.0 * np.pi * R + 2.0 * L) * np.arange(density) / density
        b1 = np.pi * R / 2.0
        b2, b3 = b1 + L, b1 + L + np.pi * R
        b4 = b3 + L
        ref = np.empty((density, 2))
        for i, si in enumerate(s):
            if si < b1:
                ref[i] = (L / 2.0 + R * np.cos(si / R), R * np.sin(si / R))
            elif si < b2:
                ref[i] = (L / 2.0 - (si - b1), R)
            elif si < b3:
                th = np.pi / 2.0 + (si - b2) / R
                ref[i] = (-L / 2.0 + R * np.cos(th), R * np.sin(th))
            elif si < b4:
                ref[i] = (-L / 2.0 + (si - b3), -R)
            else:
                th = 3.0 * np.pi / 2.0 + (si - b4) / R
                ref[i] = (L / 2.0 + R * np.cos(th), R * np.sin(th))
        assert np.array_equal(sample_compact(CompactSetDescriptor.stadium(R, L), density), ref)

    def test_polygon_sampling_is_arclength_uniform(self):
        square = CompactSetDescriptor.polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        pts = sample_compact(square, 8)
        assert pts.shape == (8, 2)
        gaps = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        assert np.allclose(gaps, 0.5, atol=1e-12)

    def test_point_list_passes_through(self):
        pts = sample_compact(CompactSetDescriptor.points(TRIANGLE), 99)
        assert np.array_equal(pts, TRIANGLE)

    def test_rejects_nonpositive_density(self):
        with pytest.raises(MdmError):
            sample_compact(CompactSetDescriptor.circle(1.0), 0)


class TestCoverageCheck:
    def test_origin_covers_circle_at_full_radius(self):
        net = MdmNetwork(np.zeros((1, 2)), [])
        rep = coverage_check(net, _circle_samples(3.0), 3.0, TOL)
        assert rep.covered
        assert abs(rep.max_defect) <= 1e-12

    def test_origin_misses_circle_at_half_radius(self):
        net = MdmNetwork(np.zeros((1, 2)), [])
        rep = coverage_check(net, _circle_samples(3.0), 1.5, TOL)
        assert not rep.covered
        assert rep.max_defect == pytest.approx(1.5, abs=1e-12)
        assert np.linalg.norm(rep.worst_point) == pytest.approx(3.0, abs=1e-12)

    def test_worst_point_is_a_sample(self):
        net = MdmNetwork(np.array([[0.25, 0.0]]), [])
        samples = _circle_samples(1.0, n=17)
        rep = coverage_check(net, samples, 0.5, TOL)
        assert any(np.allclose(rep.worst_point, s) for s in samples)


class TestHorseshoeCircle:
    def test_beats_full_parallel_circle(self):
        net, length = horseshoe_circle(6.0, 1.0)
        assert length < 2.0 * np.pi * 5.0
        assert length == pytest.approx(HORSESHOE_R6_LENGTH, rel=1e-9)

    def test_covers_dense_boundary(self):
        net, _ = horseshoe_circle(6.0, 1.0)
        rep = coverage_check(net, _circle_samples(6.0, 1440), 1.0, TOL)
        assert rep.covered
        assert rep.max_defect <= 1e-6 * 6.0

    def test_small_radius_still_feasible(self):
        net, length = horseshoe_circle(2.0, 1.0)
        rep = coverage_check(net, _circle_samples(2.0), 1.0, TOL)
        assert rep.covered
        assert length < 2.0 * np.pi * 1.0

    def test_rejects_r_not_less_than_big_radius(self):
        with pytest.raises(MdmError):
            horseshoe_circle(1.0, 1.0)


class TestHorseshoeStadium:
    def test_zero_segment_degenerates_to_circle(self):
        _, circ = horseshoe_circle(2.5, 1.0)
        _, stad = horseshoe_stadium(2.5, 1.0, 0.0)
        assert stad == pytest.approx(circ, abs=1e-9)

    def test_r6_covers(self):
        net, length = horseshoe_stadium(6.0, 1.0, 2.0)
        samples = sample_compact(CompactSetDescriptor.stadium(6.0, 2.0), 1600)
        rep = coverage_check(net, samples, 1.0, TOL)
        assert rep.covered
        assert length == pytest.approx(HORSESHOE_STADIUM_R6_LENGTH, rel=1e-9)

    def test_tight_radius_covers(self):
        net, _ = horseshoe_stadium(1.5, 1.0, 2.0)
        samples = sample_compact(CompactSetDescriptor.stadium(1.5, 2.0), 800)
        rep = coverage_check(net, samples, 1.0, TOL)
        assert rep.covered

    def test_rejects_negative_segment(self):
        with pytest.raises(MdmError):
            horseshoe_stadium(2.0, 1.0, -1.0)


def _arc_distances(pts, arcs):
    best = np.full(len(pts), np.inf)
    for c, rho, a0, a1 in arcs:
        v = pts - c
        ang = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * np.pi)
        d = np.where((ang >= a0) & (ang <= a1), np.abs(np.linalg.norm(v, axis=1) - rho), np.inf)
        for t in (a0, a1):
            d = np.minimum(d, np.linalg.norm(pts - (c + rho * np.array([np.cos(t), np.sin(t)])), axis=1))
        best = np.minimum(best, d)
    return best


def _bisected_tangent_length(R, r, L, w, samples):
    """The sampled search: 90 bisection steps on the tangent length."""
    arcs, segs, A, d = _gapped_parallel(R - r, L, w)
    reach = r * (1.0 + 1e-9)
    base = _arc_distances(samples, arcs)
    if segs:
        a, b = np.array([s[0] for s in segs]), np.array([s[1] for s in segs])
        base = np.minimum(base, point_segment_distances(samples, a, b).min(axis=1))
    # Samples the fixed pieces cover stay covered whatever the tangents do.
    open_pts = samples[base > reach]
    flip = np.array([1.0, -1.0])

    def reached(pts, ell):
        if ell <= 0.0:
            return np.zeros(len(pts), dtype=bool)
        end = A + ell * d
        dist = point_segment_distances(pts, np.array([A, A * flip]), np.array([end, end * flip]))
        return dist.min(axis=1) <= reach

    if reached(open_pts, 0.0).all():
        return 0.0
    # A longer tangent still reaches what a shorter one did, and every later
    # trial length is at least the last one that failed: drop what it reached.
    hi = r
    while not (ok := reached(open_pts, hi)).all():
        open_pts = open_pts[~ok]
        hi *= 2.0
        if hi > 64.0 * (R + L + r):
            return None
    lo = 0.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        ok = reached(open_pts, mid)
        if ok.all():
            hi = mid
        else:
            lo, open_pts = mid, open_pts[~ok]
    return hi


class TestTangentLength:
    def test_closed_form_matches_sampled_bisection(self):
        r = 1.0
        infeasible = past_cap = 0
        for R in (1.5, 2.0, 3.0, 6.0):
            for L in (0.0, 2.0):
                rho = R - r
                desc = CompactSetDescriptor.stadium(R, L) if L else CompactSetDescriptor.circle(R)
                samples = sample_compact(desc, 100_000)
                w_max = np.pi * rho if L == 0.0 else np.pi * rho / 2.0 + L
                for frac in (0.01, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99):
                    w = frac * w_max
                    got = _tangent_length(R, r, L, w)
                    ref = _bisected_tangent_length(R, r, L, w, samples)
                    assert (got is None) == (ref is None), (R, L, w, got, ref)
                    if got is None:
                        infeasible += 1
                    else:
                        assert abs(got - ref) <= 1e-9 * r, (R, L, w, got, ref)
                    past_cap += L > 0.0 and w > np.pi * rho / 2.0
        assert infeasible >= 5 and past_cap >= 5


class TestHorseshoeDenseCoverage:
    @pytest.mark.parametrize("R, L", [(2.0, 0.0), (6.0, 0.0), (1.5, 2.0), (3.0, 2.0), (6.0, 2.0)])
    def test_covers_1e5_boundary_samples(self, R, L):
        if L:
            net, _ = horseshoe_stadium(R, 1.0, L)
            desc = CompactSetDescriptor.stadium(R, L)
        else:
            net, _ = horseshoe_circle(R, 1.0)
            desc = CompactSetDescriptor.circle(R)
        rep = coverage_check(net, sample_compact(desc, 100_000), 1.0, TOL)
        assert rep.covered
        assert rep.max_defect <= TOL.coverage_eps * desc.diameter()


def _dense_closest(net, samples):
    """Every (sample, edge) pair: first minimal edge, then a strictly closer vertex."""
    S = len(samples)
    best_d = np.full(S, np.inf)
    best_p = np.zeros((S, net.vertices.shape[1]))
    a, b = net.segment_arrays()
    rows = np.arange(S)
    if len(a):
        _, closest = _closest_points(samples[:, None], a[None], b[None])
        dist = np.linalg.norm(samples[:, None, :] - closest, axis=2)
        j = dist.argmin(axis=1)
        best_d, best_p = dist[rows, j], closest[rows, j]
    dv = np.linalg.norm(samples[:, None, :] - net.vertices[None], axis=2)
    jv = dv.argmin(axis=1)
    closer = dv[rows, jv] < best_d
    best_d[closer] = dv[rows, jv][closer]
    best_p[closer] = net.vertices[jv[closer]]
    return best_d, best_p


def _closest_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for d in (2, 3):
        V = rng.uniform(-4.0, 4.0, size=(60, d))
        V = np.vstack([V, V[:5], V[10:11] + 1e-13])  # duplicates and a near-duplicate
        edges = [(i, int(rng.integers(0, i))) for i in range(1, 50)]  # a random tree
        edges += [(0, 59), (1, 58), (2, 57)]  # long chords
        edges += [(3, 60), (4, 4), (10, 65)]  # zero-length edges
        # vertices 50..56 stay isolated
        V[57:60] *= 6.0
        samples = np.vstack([
            rng.uniform(-30.0, 30.0, size=(300, d)),
            rng.uniform(-4.0, 4.0, size=(300, d)),
            V,  # samples sitting on vertices
            0.5 * (V[[e[0] for e in edges]] + V[[e[1] for e in edges]]),
        ])
        cases[f"tree{d}d"] = (MdmNetwork(V, edges), samples)
        few = rng.uniform(-1.0, 1.0, size=(5, d))
        cases[f"few{d}d"] = (MdmNetwork(few, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), samples)
        cases[f"edgeless{d}d"] = (MdmNetwork(V, []), samples)
        cases[f"single{d}d"] = (MdmNetwork(V[:1], []), samples[:50])
    # A polyline whose edge lengths span four decades forces re-queries.
    t = np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-3.0, 0.0, size=400)])
    curve = np.column_stack([np.cos(t / t[-1] * 5.0), np.sin(t / t[-1] * 5.0)]) * (1.0 + 0.1 * np.sin(t))[:, None]
    ring = np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 2000)), np.sin(np.linspace(0, 2 * np.pi, 2000))])
    cases["uneven"] = (MdmNetwork(curve, [(i, i + 1) for i in range(400)]), np.vstack([1.1 * ring, 0.3 * ring, curve]))
    hs, _ = horseshoe_stadium(3.0, 1.0, 2.0)
    cases["horseshoe"] = (hs, sample_compact(CompactSetDescriptor.stadium(3.0, 2.0), 1441))
    return cases


CLOSEST_CASES = _closest_cases()


class TestClosestOnNetwork:
    # The tree and uneven cases search again past K = 8, the tree cases up
    # to every vertex.
    @pytest.mark.parametrize("name", sorted(CLOSEST_CASES))
    def test_bitwise_equal_to_dense_search(self, name):
        net, samples = CLOSEST_CASES[name]
        d, p = _closest_on_network(net, samples)
        d_ref, p_ref = _dense_closest(net, samples)
        assert np.array_equal(d, d_ref)
        assert np.array_equal(p, p_ref)

    @pytest.mark.parametrize("name", ["tree2d", "uneven", "horseshoe"])
    def test_small_sample_blocks_change_nothing(self, name, monkeypatch):
        net, samples = CLOSEST_CASES[name]
        monkeypatch.setattr(mdm, "_CLOSEST_BLOCK", 7)
        d, p = _closest_on_network(net, samples)
        d_ref, p_ref = _dense_closest(net, samples)
        assert np.array_equal(d, d_ref)
        assert np.array_equal(p, p_ref)


class TestStadiumCompetitor:
    def test_returns_feasible_network(self):
        net, length = stadium_competitor(1.5, 1.0, 2.0, TOL)
        samples = sample_compact(CompactSetDescriptor.stadium(1.5, 2.0), 800)
        rep = coverage_check(net, samples, 1.0, TOL)
        assert rep.covered
        assert length == pytest.approx(net.length, rel=1e-12)

    def test_wide_radius_cannot_beat_horseshoe(self):
        # the parallel-curve construction is optimal for wide stadiums, so the
        # path-and-fork family must come out at least as long
        _, hs = horseshoe_stadium(6.0, 1.0, 2.0)
        _, comp = stadium_competitor(6.0, 1.0, 2.0, TOL)
        assert comp >= hs - 1e-6


class TestCompetitorPenalty:
    def test_theta_gradient_matches_central_differences(self):
        R, r, L = 1.5, 1.0, 2.0
        desc = CompactSetDescriptor.stadium(R, L)
        samples = sample_compact(desc, 800)
        rng = np.random.default_rng(3)
        theta = mdm._competitor_inits(R, r, L)[0] + 0.05 * r * rng.normal(size=8)
        mu = mdm._MU0 / desc.diameter()
        f, g = mdm._competitor_penalty(theta, samples, r, mu)
        V = mdm._competitor_vertices(theta)
        dist = mdm._penalty_objective(V, mdm._COMPETITOR_EDGES, samples, r, mu)[1][0]
        assert (dist > r).any()
        h = 1e-6
        fd = [
            (mdm._competitor_penalty(theta + h * e, samples, r, mu)[0]
             - mdm._competitor_penalty(theta - h * e, samples, r, mu)[0]) / (2.0 * h)
            for e in np.eye(8)
        ]
        np.testing.assert_allclose(g, fd, rtol=1e-6)


class TestSolveMdmFinite:
    def test_two_far_points_leave_a_segment(self):
        net = solve_mdm_finite(np.array([[0.0, 0.0], [5.0, 0.0]]), 1.0, TOL)
        assert net.length == pytest.approx(3.0, abs=1e-9)
        xs = np.sort(net.vertices[:, 0])
        assert np.allclose(xs, [1.0, 4.0], atol=1e-9)

    def test_two_close_points_need_nothing(self):
        net = solve_mdm_finite(np.array([[0.0, 0.0], [1.5, 0.0]]), 1.0, TOL)
        assert net.length == 0.0

    def test_equilateral_tripod_saves_r_per_arm(self):
        net = solve_mdm_finite(TRIANGLE, 0.1, TOL)
        assert net.length == pytest.approx(math.sqrt(3.0) - 0.3, abs=1e-6)

    def test_square_with_tiny_balls_approaches_steiner_tree(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        steiner = solve_exact(square, TOL).tree.length
        for r in (0.1, 0.05, 0.025):
            net = solve_mdm_finite(square, r, TOL)
            assert steiner - 4.0 * r <= net.length + 1e-9
            assert net.length <= steiner
        # shrinking balls squeeze the network toward the Steiner length
        gap = [abs(solve_mdm_finite(square, r, TOL).length - (steiner - 4.0 * r))
               for r in (0.1, 0.05)]
        assert gap[1] <= gap[0] + 1e-12

    def test_output_covers_every_terminal(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 4.0, size=(5, 2))
        net = solve_mdm_finite(pts, 0.2, TOL)
        rep = coverage_check(net, pts, 0.2, TOL)
        assert rep.covered

    def test_winner_meets_first_order_conditions(self):
        # Separated points keep one ball per point.  Each leaf is the point
        # of its ball nearest its neighbour; each branch node with three
        # non-degenerate edges sees unit vectors that cancel.
        pts = np.random.default_rng(4).uniform(0.0, 4.0, size=(5, 2))
        r = 0.3 * float(pdist(pts).min()) / 2.0
        net = solve_mdm_finite(pts, r, TOL)
        scale = max(instance_scale(pts), 2.0 * r)
        edges = np.array(net.edges)
        for i, c in enumerate(pts):
            (u, v), = edges[(edges == i).any(axis=1)]
            w = net.vertices[u + v - i] - c
            nearest = c + min(1.0, r / np.linalg.norm(w)) * w
            assert np.linalg.norm(net.vertices[i] - nearest) <= TOL.eps_len * scale
        checked = 0
        for j in range(len(pts), len(net.vertices)):
            ends = edges[(edges == j).any(axis=1)]
            vec = net.vertices[ends.sum(axis=1) - j] - net.vertices[j]
            lens = np.linalg.norm(vec, axis=1)
            if len(vec) == 3 and (lens > TOL.eps_len * scale).all():
                assert np.linalg.norm((vec / lens[:, None]).sum(axis=0)) <= 10.0 * TOL.eps_len
                checked += 1
        assert checked >= 1

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_length_sandwiched_by_steiner_tree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        pts = rng.uniform(0.0, 3.0, size=(n, 2))
        r = 0.05
        if mst(pts).edges and min(
            np.linalg.norm(pts[u] - pts[v]) for u, v in mst(pts).edges
        ) <= 2.5 * r:
            return  # merged-ball regime tested elsewhere
        net = solve_mdm_finite(pts, r, TOL)
        steiner = solve_exact(pts, TOL).tree.length
        assert net.length <= steiner + 1e-9
        assert net.length >= steiner - n * r - 1e-9
        rep = verify_mdm(net, n, TOL)
        assert rep.bound_ok and not rep.has_cycle


def _dense_objective(V, E, samples, r, mu):
    """The penalty objective from the dense distance matrix."""
    a = V[[e[0] for e in E]]
    b = V[[e[1] for e in E]]
    length = float(np.linalg.norm(a - b, axis=1).sum())
    dmin = point_segment_distances(samples, a, b).min(axis=1)
    viol = np.maximum(dmin - r, 0.0)
    return length + mu * float((viol * viol).sum()), dmin


def _dense_gradient(V, E, samples, r, mu):
    """The penalty gradient from its own dense closest-point table."""
    g = np.zeros_like(V)
    e0 = np.array([e[0] for e in E])
    e1 = np.array([e[1] for e in E])
    a, b = V[e0], V[e1]
    seg = a - b
    lens = np.linalg.norm(seg, axis=1)
    u = seg / np.where(lens == 0.0, 1.0, lens)[:, None]
    np.add.at(g, e0, u)
    np.add.at(g, e1, -u)
    t, closest = _closest_points(samples[:, None], a[None], b[None])
    dvec = samples[:, None, :] - closest
    dist = np.linalg.norm(dvec, axis=2)
    j = np.argmin(dist, axis=1)
    s_idx = np.arange(len(samples))
    dj = dist[s_idx, j]
    active = dj > r
    s_act, j_act = s_idx[active], j[active]
    w = dvec[s_act, j_act] / dj[active][:, None]
    coef = 2.0 * mu * (dj[active] - r)
    tj = t[s_act, j_act]
    np.add.at(g, e0[j_act], -coef[:, None] * (1.0 - tj)[:, None] * w)
    np.add.at(g, e1[j_act], -coef[:, None] * tj[:, None] * w)
    return g


def _penalty_cases():
    rng = np.random.default_rng(44)
    cases = []
    for d in (2, 3):
        V = rng.uniform(-3.0, 3.0, size=(12, d))
        V[11] = V[4]  # edge (4, 11) has zero length
        E = [(i, int(rng.integers(0, i))) for i in range(1, 11)] + [(4, 11)]
        samples = rng.uniform(-5.0, 5.0, size=(200, d))
        cases.append((V, E, samples, 1.0))
    # The origin sits at distance 1 from both edges; the first listed wins.
    V = np.array([[-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    samples = np.array([[0.0, 0.0], [0.0, 3.0], [2.0, -2.0]])
    cases.append((V, [(2, 3), (0, 1)], samples, 0.5))
    # Every sample covered: only the length term is left.
    cases.append((V, [(0, 1), (1, 3), (3, 2)], samples, 10.0))
    return cases


class TestPenaltyTable:
    """One nearest-edge table feeds the objective, gradient and surgery."""

    @pytest.mark.parametrize("case", range(4))
    def test_objective_and_gradient_match_dense_formulas(self, case):
        V, E, samples, r = _penalty_cases()[case]
        ends = np.array(E)
        mu = 3.7
        f, table = mdm._penalty_objective(V, ends, samples, r, mu)
        f_ref, dmin = _dense_objective(V, E, samples, r, mu)
        assert f == f_ref
        assert np.array_equal(table[0], dmin)
        g = mdm._penalty_gradient(V, ends, table, r, mu)
        assert np.array_equal(g, _dense_gradient(V, E, samples, r, mu))

    def test_first_of_equidistant_edges_wins(self):
        V, E, samples, r = _penalty_cases()[2]
        dist, j, t, dvec = mdm._nearest_edges(V, np.array(E), samples)
        assert dist[0] == 1.0 and j[0] == 0 and t[0] == 0.5
        assert np.array_equal(dvec[0], [0.0, 1.0])

    def test_no_active_sample_leaves_length_gradient(self):
        V, E, samples, r = _penalty_cases()[3]
        ends = np.array(E)
        f, table = mdm._penalty_objective(V, ends, samples, r, 5.0)
        assert (table[0] <= r).all()
        assert f == float(np.linalg.norm(V[ends[:, 0]] - V[ends[:, 1]], axis=1).sum())
        g0 = mdm._penalty_gradient(V, ends, table, r, 0.0)
        assert np.array_equal(mdm._penalty_gradient(V, ends, table, r, 5.0), g0)


class TestSolveMdmNumeric:
    def test_recovers_horseshoe_from_perturbed_start(self):
        R = 3.0
        hs, hs_len = horseshoe_circle(R, 1.0)
        coarse = resample_path_network(hs, 36)
        rng = np.random.default_rng(5)
        init = MdmNetwork(
            coarse.vertices + 0.05 * rng.standard_normal(coarse.vertices.shape),
            coarse.edges,
        )
        res = solve_mdm_numeric(
            CompactSetDescriptor.circle(R), 1.0, init, NumericConfig(density=240), TOL
        )
        assert res.covered
        assert abs(res.network.length - hs_len) <= 0.01 * hs_len

    def test_objective_descends_within_each_epoch(self):
        R = 3.0
        hs, _ = horseshoe_circle(R, 1.0)
        coarse = resample_path_network(hs, 24)
        rng = np.random.default_rng(9)
        init = MdmNetwork(
            coarse.vertices + 0.05 * rng.standard_normal(coarse.vertices.shape),
            coarse.edges,
        )
        res = solve_mdm_numeric(
            CompactSetDescriptor.circle(R), 1.0, init,
            NumericConfig(max_epochs=4, density=200), TOL,
        )
        trace, marks = res.objective_trace, res.epoch_marks
        assert marks and len(trace) >= len(marks)
        spans = zip(marks, marks[1:] + [len(trace)])
        for start, end in spans:
            for i in range(start, end - 1):
                assert trace[i + 1] <= trace[i] + 1e-12

    def test_agrees_with_finite_solver_on_triangle(self):
        r = 0.1
        fin = solve_mdm_finite(TRIANGLE, r, TOL)
        c = TRIANGLE.mean(axis=0)
        verts = np.vstack([c + 0.3 * (p - c) for p in TRIANGLE] + [c])
        init = MdmNetwork(verts, [(0, 3), (1, 3), (2, 3)])
        res = solve_mdm_numeric(
            CompactSetDescriptor.points(TRIANGLE), r, init, NumericConfig(), TOL
        )
        assert res.covered
        assert abs(res.network.length - fin.length) <= 0.01 * fin.length


    def test_edgeless_network_returns_with_its_verdict(self):
        desc = CompactSetDescriptor.samples([[0.5, 0.5]])
        init = MdmNetwork(np.array([[0.5, 0.5]]), [])
        res = solve_mdm_numeric(desc, 1.0, init, NumericConfig(), TOL)
        assert res.covered
        assert res.network.length == 0.0
        assert res.epochs == 0


class TestEnergeticPoints:
    def test_two_ball_segment_has_energetic_endpoints(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        net = solve_mdm_finite(pts, 1.0, TOL)
        es = energetic_points(net, pts, 1.0, TOL)
        xs = sorted(float(x[0]) for x, _ in es.points)
        assert xs == pytest.approx([1.0, 4.0], abs=1e-9)
        for x, w in es.points:
            assert np.linalg.norm(x - w) == pytest.approx(1.0, abs=1e-6)

    def test_horseshoe_arc_is_energetic(self):
        net, _ = horseshoe_circle(6.0, 1.0)
        es = energetic_points(net, _circle_samples(6.0, 1440), 1.0, TOL)
        assert len(es.points) > 300
        X = np.array([x for x, _ in es.points])
        W = np.array([w for _, w in es.points])
        assert np.allclose(np.linalg.norm(W, axis=1), 6.0, atol=1e-9)
        radii = np.linalg.norm(X, axis=1)
        on_arc = np.abs(radii - 5.0) < 1e-6
        assert on_arc.mean() > 0.9


    def test_dedupe_keeps_first_come_points(self):
        # Many witnesses share the segment's endpoints as nearest points; the
        # greedy rule keeps the first of each cluster, in sample order.
        net = MdmNetwork(np.array([[0.0, 0.0], [4.0, 0.0]]), [(0, 1)])
        rng = np.random.default_rng(5)
        ang = rng.uniform(0.0, 2.0 * np.pi, 400)
        ends = np.where(rng.random(400) < 0.5, 0.0, 4.0)
        samples = np.column_stack([ends + np.cos(ang), np.sin(ang)])
        es = energetic_points(net, samples, 1.0, TOL)
        d, p = _closest_on_network(net, samples)
        radius = TOL.eps_len * 4.0
        ref = []
        for i in np.flatnonzero((d >= 1.0 - 1e-3) & (d <= 1.0 + TOL.coverage_eps * instance_scale(samples))):
            if not any(np.linalg.norm(p[i] - q) <= radius for q, _ in ref):
                ref.append((p[i], samples[i]))
        assert len(es.points) == len(ref) < 400
        for (x, y), (xr, yr) in zip(es.points, ref):
            assert np.array_equal(x, xr) and np.array_equal(y, yr)


class TestVerifyMdm:
    def test_angles_match_angle_at(self):
        rng = np.random.default_rng(9)
        V = rng.uniform(0.0, 3.0, size=(40, 2))
        edges = [(i, int(rng.integers(0, i))) for i in range(1, 40)] + [(5, 7), (7, 5)]
        rep = verify_mdm(MdmNetwork(V, edges), 40, TOL)
        adj = {}
        for u, v in dict.fromkeys((min(u, v), max(u, v)) for u, v in edges):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        ref = [
            (vtx, min(angle_at(V[vtx], V[a], V[b]) for i, a in enumerate(nb) for b in nb[i + 1:]))
            for vtx, nb in adj.items()
            if len(nb) >= 2
        ]
        assert sorted(rep.vertex_angles) == sorted(ref)
        assert rep.min_angle == min(a for _, a in ref)

    def test_single_segment(self):
        net = MdmNetwork(np.array([[0.0, 0.0], [2.0, 0.0]]), [(0, 1)])
        rep = verify_mdm(net, 2, TOL)
        assert rep.segment_count == 1
        assert rep.bound_ok and not rep.has_cycle
        assert rep.n_components == 1

    def test_tripod_counts_three_segments(self):
        net = solve_mdm_finite(TRIANGLE, 0.1, TOL)
        rep = verify_mdm(net, 3, TOL)
        assert rep.segment_count == 3
        assert rep.bound_ok
        assert rep.min_angle == pytest.approx(2.0 * np.pi / 3.0, abs=1e-6)

    def test_collinear_chain_merges_to_one_segment(self):
        net = MdmNetwork(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
            [(0, 1), (1, 2), (2, 3)],
        )
        rep = verify_mdm(net, 2, TOL)
        assert rep.segment_count == 1

    def test_loop_detected(self):
        net = MdmNetwork(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        rep = verify_mdm(net, 4, TOL)
        assert rep.has_cycle

    def test_zero_length_edge_between_same_spot_is_cycle_free(self):
        net = MdmNetwork(np.array([[0.0, 0.0], [2.0, 0.0]]), [(0, 1), (0, 1)])
        rep = verify_mdm(net, 2, TOL)
        assert rep.has_cycle  # duplicated positive-length edge closes a loop


class TestResamplePath:
    def test_preserves_endpoints_and_length(self):
        net = MdmNetwork(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), [(0, 1), (1, 2)]
        )
        out = resample_path_network(net, 9)
        assert len(out.vertices) == 9
        assert np.allclose(out.vertices[0], [0.0, 0.0])
        assert np.allclose(out.vertices[-1], [1.0, 1.0])
        assert out.length == pytest.approx(net.length, rel=1e-9)

    def test_rejects_branching_networks(self):
        tripod = solve_mdm_finite(TRIANGLE, 0.1, TOL)
        with pytest.raises(MdmError):
            resample_path_network(tripod, 10)
