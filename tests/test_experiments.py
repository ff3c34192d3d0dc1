"""Tests for the instance generators, heuristic solver, and suite harness."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minnet.experiments import (
    _COS_GATE,
    _MAX_ROUNDS,
    _RELAX_SWEEPS,
    CSV_COLUMNS,
    ExperimentError,
    fit_power_law,
    heuristic_steiner,
    hex_lattice_instance,
    homothety_instance,
    random_instance,
    run_suite,
    zigzag_instance,
)
from minnet.geometry import fermat_point_triples
from minnet.ratio import mst
from minnet.steiner import _relax_forest, instance_scale, solve_exact, verify_tree

SQRT3 = math.sqrt(3.0)


class TestRandomInstance:
    def test_same_seed_same_points(self):
        assert np.array_equal(random_instance(50, 7), random_instance(50, 7))

    def test_different_seed_differs(self):
        assert not np.array_equal(random_instance(50, 7), random_instance(50, 8))

    def test_single_point_in_unit_square(self):
        p = random_instance(1, 3)
        assert p.shape == (1, 2)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_custom_bounds(self):
        p = random_instance(200, 11, bounds=[(2, 3), (-1, 0), (5, 6)])
        assert p.shape == (200, 3)
        assert np.all(p >= [2, -1, 5]) and np.all(p <= [3, 0, 6])

    def test_dim_keyword(self):
        assert random_instance(4, 0, dim=3).shape == (4, 3)

    def test_empirical_mean_near_center(self):
        p = random_instance(1000, 123)
        assert np.all(np.abs(p.mean(axis=0) - 0.5) < 0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ExperimentError):
            random_instance(0, 1)
        with pytest.raises(ExperimentError):
            random_instance(5, 1, bounds=[(1, 1)])


class TestHexLattice:
    def test_count_band_at_1024(self):
        assert 973 <= len(hex_lattice_instance(1024)) <= 1075

    def test_tiny_target(self):
        assert len(hex_lattice_instance(3)) == 3

    def test_interior_points_have_six_equidistant_neighbors(self):
        pts = hex_lattice_instance(80)
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        a = dist.min()
        margin = 1.5 * a
        interior = np.all((pts >= margin) & (pts <= 1.0 - margin), axis=1)
        assert interior.sum() > 5
        for i in np.flatnonzero(interior):
            nn = dist[i][dist[i] <= a * (1.0 + 1e-9)]
            assert len(nn) == 6
            assert np.all(np.abs(nn - a) <= 1e-12)

    def test_rejects_small_target(self):
        with pytest.raises(ExperimentError):
            hex_lattice_instance(2)


class TestZigzag:
    def test_first_points(self):
        assert np.array_equal(zigzag_instance(2), [[0.0, 0.0], [1.0, SQRT3]])
        assert np.array_equal(
            zigzag_instance(3), [[0.0, 0.0], [1.0, SQRT3], [2.0, 0.0]]
        )

    def test_consecutive_distance_is_two(self):
        pts = zigzag_instance(9)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.all(np.abs(gaps - 2.0) <= 1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(ExperimentError):
            zigzag_instance(1)


class TestHomothety:
    def test_base_ring_radius(self):
        pts = homothety_instance(5, 0.3, 0)
        assert pts.shape == (5, 3)
        assert np.all(np.abs(np.linalg.norm(pts, axis=1) - math.sqrt(2.0)) <= 1e-12)
        assert np.all(pts[:, 0] == 1.0)

    def test_first_image_is_scaled_base(self):
        pts = homothety_instance(4, 0.3, 2)
        assert pts.shape == (12, 3)
        assert np.array_equal(pts[4:8], pts[:4] * 0.3)

    def test_similar_triangles(self):
        pts = homothety_instance(3, 0.3, 2)
        assert pts.shape == (9, 3)
        side = np.linalg.norm(pts[0] - pts[1])
        for k in (1, 2):
            ring = pts[3 * k : 3 * k + 3]
            got = np.linalg.norm(ring[0] - ring[1])
            assert abs(got - side * 0.3**k) <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ExperimentError):
            homothety_instance(2, 0.3, 1)
        with pytest.raises(ExperimentError):
            homothety_instance(3, 1.0, 1)
        with pytest.raises(ExperimentError):
            homothety_instance(3, 0.0, 1)
        with pytest.raises(ExperimentError):
            homothety_instance(3, 0.3, -1)


class TestHeuristicSteiner:
    def test_two_points_is_the_segment(self):
        tree = heuristic_steiner([[0.0, 0.0], [3.0, 4.0]])
        assert tree.length == pytest.approx(5.0, abs=1e-12)
        assert tree.topology.n_steiner == 0
        assert tree.converged

    def test_equilateral_reaches_exact(self):
        tri = np.array([[0, 0], [1, 0], [0.5, SQRT3 / 2]], dtype=float)
        tree = heuristic_steiner(tri)
        assert abs(tree.length - SQRT3) <= 1e-6
        assert tree.topology.n_steiner == 1

    def test_square_reaches_exact(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        tree = heuristic_steiner(sq)
        assert abs(tree.length - (1.0 + SQRT3)) <= 1e-6

    def test_sandwiched_between_exact_and_mst(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            pts = random_instance(int(rng.integers(4, 8)), seed)
            tree = heuristic_steiner(pts)
            exact = solve_exact(pts).tree.length
            upper = mst(pts).length
            assert exact - 1e-7 <= tree.length <= upper + 1e-12

    def test_output_is_a_tree(self):
        pts = random_instance(40, 5)
        tree = heuristic_steiner(pts)
        report = verify_tree(tree)
        assert report.is_tree
        assert tree.length <= mst(pts).length + 1e-12

    def test_trace_starts_at_mst_and_never_rises(self):
        pts = random_instance(30, 9)
        tree = heuristic_steiner(pts)
        trace = np.array(tree.length_trace)
        assert trace[0] == pytest.approx(mst(pts).length, abs=1e-12)
        assert np.all(np.diff(trace) <= 1e-12)

    @pytest.mark.parametrize("seed", [2, 7, 9, 10])
    def test_converges_before_the_round_cap(self, seed):
        # Each round relaxes with Gauss-Seidel sweeps until they settle, so
        # these clouds stop once no insertion fires, well inside 40 rounds.
        tree = heuristic_steiner(random_instance(128, seed))
        assert tree.converged
        assert len(tree.length_trace) - 1 < 40

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 10_000))
    def test_never_beats_nothing_never_exceeds_mst(self, n, seed):
        pts = random_instance(n, seed)
        tree = heuristic_steiner(pts)
        assert 0.0 < tree.length <= mst(pts).length + 1e-12
        assert verify_tree(tree).is_tree

    def test_rejects_single_point(self):
        with pytest.raises(ExperimentError):
            heuristic_steiner([[0.0, 0.0]])


def _sequential_heuristic(points):
    """Reference: the heuristic's per-vertex insertion scan, one point at a time.

    Returns (edges, steiner, length_trace, converged) for n >= 3 points.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    base = mst(pts)
    scale = instance_scale(pts)
    gain_tol = 1e-12 * scale
    coords = np.vstack([pts, np.empty((n - 2, d))])
    n_nodes = n
    adj = [set() for _ in range(2 * n - 2)]
    edges = set()

    def _add(u, v):
        edges.add((min(u, v), max(u, v)))
        adj[u].add(v)
        adj[v].add(u)

    def _drop(u, v):
        edges.discard((min(u, v), max(u, v)))
        adj[u].discard(v)
        adj[v].discard(u)

    for u, v in base.edges:
        _add(u, v)
    trace = [base.length]
    converged = False
    for _ in range(_MAX_ROUNDS):
        inserted = 0
        for v in range(n):
            while len(adj[v]) >= 2:
                nb = sorted(adj[v])
                vec = coords[nb] - coords[v]
                nrm = np.linalg.norm(vec, axis=1)
                unit = vec / np.maximum(nrm, 1e-300)[:, None]
                gram = unit @ unit.T
                iu = np.triu_indices(len(nb), 1)
                k = int(np.argmax(gram[iu]))
                if gram[iu][k] <= _COS_GATE:
                    break
                ai, bi = nb[iu[0][k]], nb[iu[1][k]]
                s = fermat_point_triples(coords[None, [ai, bi, v]])[0]
                star = float(np.linalg.norm(coords[[ai, bi, v]] - s, axis=1).sum())
                if nrm[iu[0][k]] + nrm[iu[1][k]] - star <= gain_tol:
                    break
                si = n_nodes
                coords[si] = s
                _drop(ai, v)
                _drop(bi, v)
                _add(ai, si)
                _add(bi, si)
                _add(v, si)
                n_nodes += 1
                inserted += 1
        settled = True
        if n_nodes > n:
            nb = np.array([sorted(adj[i]) for i in range(n, n_nodes)], dtype=int)
            settled = _relax_forest(coords, nb, n, 1e-9 * scale, _RELAX_SWEEPS, scale) < _RELAX_SWEEPS
        e = np.array(sorted(edges), dtype=int)
        trace.append(float(np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1).sum()))
        if inserted == 0 and settled:
            converged = True
            break
    return tuple(sorted(edges)), coords[n:n_nodes].copy(), tuple(trace), converged


def _scan_cases():
    cases = {f"uniform{dim}d_{n}": random_instance(n, 100 * dim + n, dim=dim)
             for dim in (2, 3, 4) for n in (3, 5, 9, 40, 150)}
    # Draws the size of the benchmark's large instances.
    for dim in (2, 3):
        cases[f"uniform{dim}d_1024"] = random_instance(1024, 100 * dim + 1024, dim=dim)
    cases["hex250"] = hex_lattice_instance(250)
    cases["hex1024"] = hex_lattice_instance(1024)
    g = np.arange(9.0)
    cases["grid9"] = np.array([(x, y) for x in g for y in g])  # many exact ties
    p = random_instance(50, 3)
    cases["duplicates"] = np.vstack([p, p[:15], p[:4]])
    cases["collinear"] = np.column_stack([np.arange(120.0), 2.0 * np.arange(120.0)])
    cases["homothety"] = homothety_instance(6, 0.3, 2)
    return cases


SCAN_CASES = _scan_cases()


class TestWavesMatchSequentialScan:
    # heuristic_steiner batches each round's insertions into waves; the tree
    # must be the one the point-by-point scan builds, bit for bit.
    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_bit_identical_to_the_scan(self, name):
        pts = SCAN_CASES[name]
        tree = heuristic_steiner(pts)
        edges, steiner, trace, converged = _sequential_heuristic(pts)
        assert tree.topology.edges == edges
        assert np.array_equal(tree.steiner, steiner)
        assert tree.length_trace == trace
        assert tree.converged == converged


class TestFitPowerLaw:
    def test_exact_square_root_law(self):
        rows = [(n, 2.0 * math.sqrt(n)) for n in (10, 40, 100, 1000)]
        beta, expo, r2 = fit_power_law(rows)
        assert abs(beta - 2.0) <= 1e-9
        assert abs(expo - 0.5) <= 1e-9
        assert abs(r2 - 1.0) <= 1e-9

    def test_constant_data_has_zero_exponent(self):
        beta, expo, r2 = fit_power_law([(8, 5.0), (16, 5.0), (32, 5.0)])
        assert abs(expo) <= 1e-12
        assert beta == pytest.approx(5.0, abs=1e-9)
        assert r2 == 1.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ExperimentError):
            fit_power_law([(8, 1.0), (8, 2.0), (16, 3.0)])
        with pytest.raises(ExperimentError):
            fit_power_law([(8, 1.0), (16, 0.0), (32, 2.0)])
        with pytest.raises(ExperimentError):
            fit_power_law([(-8, 1.0), (16, 1.0), (32, 2.0)])


class TestRunSuite:
    def test_empty_spec(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_suite([], csv_path=out) == []
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_zigzag_ratio_structure(self):
        rows = [{"generator": "zigzag", "n": n, "solver": "exact"} for n in range(3, 8)]
        runs = run_suite(rows)
        ratios = {r.N: r.length / (SQRT3 * (r.N - 1)) for r in runs}
        assert all(v >= 1.0 - 1e-9 for v in ratios.values())
        # Odd counts split into glued equilateral triangles and are exactly
        # extremal; even counts sit strictly above and sink toward 1.
        for n in (3, 5, 7):
            assert ratios[n] == pytest.approx(1.0, abs=1e-9)
        assert ratios[4] > ratios[6] > 1.0 + 1e-6

    def test_failures_recorded_suite_continues(self):
        runs = run_suite(
            [
                {"generator": "nope", "n": 3, "solver": "exact"},
                {"generator": "zigzag", "n": 3, "solver": "exact"},
                {"generator": "zigzag", "n": 3, "solver": "wat"},
            ]
        )
        assert len(runs) == 3
        good = [r for r in runs if not r.error]
        bad = [r for r in runs if r.error]
        assert len(good) == 1 and len(bad) == 2
        assert all(math.isnan(r.length) for r in bad)
        assert "nope" in bad[0].error or "nope" in bad[1].error

    def test_restricted_solver_on_zigzag(self):
        runs = run_suite(
            [
                {"generator": "zigzag", "n": 4, "solver": "restricted"},
                {"generator": "zigzag", "n": 4, "solver": "exact"},
            ]
        )
        by = {r.solver: r.length for r in runs}
        assert by["restricted"] == pytest.approx(by["exact"], abs=1e-6)

    def test_deterministic_and_sorted_csv(self, tmp_path):
        rows = [
            {"generator": "random", "n": 12, "seed": 4, "solver": "heuristic"},
            {"generator": "zigzag", "n": 4, "solver": "exact"},
            {"generator": "homothety", "n_gon": 3, "lam": 0.3, "k_max": 1,
             "solver": "heuristic"},
            {"generator": "lattice", "n": 16, "solver": "heuristic"},
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        runs_a = run_suite(rows, csv_path=out_a)
        runs_b = run_suite(rows, csv_path=out_b)
        ids = [r.instance_id for r in runs_a]
        assert ids == sorted(ids)
        for ra, rb in zip(runs_a, runs_b):
            assert ra.instance_id == rb.instance_id
            assert ra.length == rb.length
            assert ra.normalized == rb.normalized

        with open(out_a, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == list(CSV_COLUMNS)
        assert len(table) == len(rows) + 1
        for rec in table[1:]:
            float(rec[6])  # length parses with '.' decimal
            float(rec[7])

    def test_lattice_normalized_exceeds_random(self):
        lattice = run_suite(
            [{"generator": "lattice", "n": 1024, "solver": "heuristic"}]
        )[0]
        randoms = run_suite(
            [
                {"generator": "random", "n": 1024, "seed": s, "solver": "heuristic"}
                for s in (0, 1, 2)
            ]
        )
        # The lattice is the expensive family: its tree costs ~0.93-0.98 per
        # sqrt(N) while uniform clouds come in around 0.65.
        assert 0.90 <= lattice.normalized <= 1.08
        for r in randoms:
            assert lattice.normalized > r.normalized

    def test_lattice_spanning_tree_constant(self):
        # The spanning-tree length of the lattice clip approaches
        # (4/3)^(1/4) = 1.0746 per sqrt(N); the fermat-improved tree must
        # come in below it.
        pts = hex_lattice_instance(1024)
        m = mst(pts).length / math.sqrt(len(pts))
        assert abs(m - (4.0 / 3.0) ** 0.25) <= 0.02
        assert heuristic_steiner(pts).length / math.sqrt(len(pts)) < m
