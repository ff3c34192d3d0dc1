import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from minnet.geometry import DEFAULT_TOL
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
        net, length = horseshoe_circle(6.0, 1.0, TOL)
        assert length < 2.0 * np.pi * 5.0
        assert length == pytest.approx(HORSESHOE_R6_LENGTH, rel=1e-9)

    def test_covers_dense_boundary(self):
        net, _ = horseshoe_circle(6.0, 1.0, TOL)
        rep = coverage_check(net, _circle_samples(6.0, 1440), 1.0, TOL)
        assert rep.covered
        assert rep.max_defect <= 1e-6 * 6.0

    def test_small_radius_still_feasible(self):
        net, length = horseshoe_circle(2.0, 1.0, TOL)
        rep = coverage_check(net, _circle_samples(2.0), 1.0, TOL)
        assert rep.covered
        assert length < 2.0 * np.pi * 1.0

    def test_rejects_r_not_less_than_big_radius(self):
        with pytest.raises(MdmError):
            horseshoe_circle(1.0, 1.0, TOL)


class TestHorseshoeStadium:
    def test_zero_segment_degenerates_to_circle(self):
        _, circ = horseshoe_circle(2.5, 1.0, TOL)
        _, stad = horseshoe_stadium(2.5, 1.0, 0.0, TOL)
        assert stad == pytest.approx(circ, abs=1e-9)

    def test_r6_covers(self):
        net, length = horseshoe_stadium(6.0, 1.0, 2.0, TOL)
        samples = sample_compact(CompactSetDescriptor.stadium(6.0, 2.0), 1600)
        rep = coverage_check(net, samples, 1.0, TOL)
        assert rep.covered
        assert length == pytest.approx(HORSESHOE_STADIUM_R6_LENGTH, rel=1e-9)

    def test_tight_radius_covers(self):
        net, _ = horseshoe_stadium(1.5, 1.0, 2.0, TOL)
        samples = sample_compact(CompactSetDescriptor.stadium(1.5, 2.0), 800)
        rep = coverage_check(net, samples, 1.0, TOL)
        assert rep.covered

    def test_rejects_negative_segment(self):
        with pytest.raises(MdmError):
            horseshoe_stadium(2.0, 1.0, -1.0, TOL)


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
        _, hs = horseshoe_stadium(6.0, 1.0, 2.0, TOL)
        _, comp = stadium_competitor(6.0, 1.0, 2.0, TOL)
        assert comp >= hs - 1e-6


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


class TestSolveMdmNumeric:
    def test_recovers_horseshoe_from_perturbed_start(self):
        R = 3.0
        hs, hs_len = horseshoe_circle(R, 1.0, TOL)
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
        hs, _ = horseshoe_circle(R, 1.0, TOL)
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
        net, _ = horseshoe_circle(6.0, 1.0, TOL)
        es = energetic_points(net, _circle_samples(6.0, 1440), 1.0, TOL)
        assert len(es.points) > 300
        X = np.array([x for x, _ in es.points])
        W = np.array([w for _, w in es.points])
        assert np.allclose(np.linalg.norm(W, axis=1), 6.0, atol=1e-9)
        radii = np.linalg.norm(X, axis=1)
        on_arc = np.abs(radii - 5.0) < 1e-6
        assert on_arc.mean() > 0.9


class TestVerifyMdm:
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
