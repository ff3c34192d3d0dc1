"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import run
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _circumscribed(radius: float, m: int):
    """Closed m-gon whose edges touch the circle of the given radius."""
    ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    verts = radius / np.cos(np.pi / m) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return verts, [(i, (i + 1) % m) for i in range(m)]


def _length(verts, edges) -> float:
    return float(checks.edge_lengths(np.asarray(verts), np.asarray(edges)).sum())


class TestNegativeControls:
    R, r = 3.0, 1.0

    def test_covering_network_passes(self):
        verts, edges = _circumscribed(self.R - self.r, 64)
        samples = checks.circle_boundary(self.R, checks.CONTINUUM_SAMPLES)
        assert checks.check_coverage(samples, verts, edges, self.r, _length(verts, edges), 2 * self.R) is None

    def test_network_with_hole_fails(self):
        verts, edges = _circumscribed(self.R - 1.1 * self.r, 64)
        samples = checks.circle_boundary(self.R, checks.CONTINUUM_SAMPLES)
        defect = checks.coverage_defect(samples, verts, edges, self.r)
        assert defect == pytest.approx(0.1 * self.r, rel=1e-6)
        failed = checks.check_coverage(samples, verts, edges, self.r, _length(verts, edges), 2 * self.R)
        assert failed == "dense_coverage"

    def test_tree_missing_a_terminal_fails(self):
        terminals = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        coords = np.vstack([terminals, [[0.5, 0.5]]])
        edges = [(0, 4), (1, 4), (2, 4)]
        mst = checks.mst_length(terminals)
        assert checks.check_steiner(coords, edges, terminals, _length(coords, edges), mst) == "tree"
        edges.append((3, 4))
        assert checks.check_steiner(coords, edges, terminals, _length(coords, edges), mst) is None

    def test_wrong_length_and_long_tree_fail(self):
        terminals = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        path = [(0, 1), (1, 2)]
        assert checks.check_steiner(terminals, path, terminals, 2.0 + 1e-6, 2.0) == "length"
        detour = [(0, 2), (2, 1)]
        assert checks.check_steiner(terminals, detour, terminals, 3.0, 2.0) == "above_mst"

    def test_unsteiner_angle_fails_exact_check(self):
        terminals = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        coords = np.vstack([terminals, [[1.0, 0.2]]])
        edges = [(0, 3), (1, 3), (2, 3)]
        length = _length(coords, edges)
        assert checks.check_steiner(coords, edges, terminals, length, 10.0, exact=True) == "angles"
        assert checks.check_steiner(coords, edges, terminals, length, 10.0) is None


class TestReferenceQuantities:
    def test_network_distances_match_brute_force(self):
        rng = np.random.default_rng(0)
        verts = rng.uniform(-2, 2, (30, 2))
        edges = np.array([(i, i + 1) for i in range(29)])
        samples = rng.uniform(-3, 3, (500, 2))
        a, b = verts[edges[:, 0]], verts[edges[:, 1]]
        brute = np.array([
            checks._segment_distances(np.repeat(p[None], len(a), 0), a, b).min() for p in samples
        ])
        got = checks.network_distances(samples, verts, edges, 0.3, tol=-np.inf)
        assert np.allclose(got, brute, rtol=0, atol=1e-12)

    def test_delaunay_mst_matches_complete_graph(self):
        pts = np.random.default_rng(1).random((300, 3))
        dense = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        from scipy.sparse.csgraph import minimum_spanning_tree

        assert checks.mst_length(pts) == pytest.approx(minimum_spanning_tree(np.triu(dense)).sum(), rel=1e-12)

    def test_boundaries_lie_on_their_curves(self):
        st = checks.stadium_boundary(3.0, 2.0, 1000)
        seg_x = np.clip(st[:, 0], -1.0, 1.0)
        assert np.allclose(np.hypot(st[:, 0] - seg_x, st[:, 1]), 3.0)
        hexagon = 3.0 * np.stack([np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3)], 1)
        assert checks.polygon_perimeter(hexagon) == pytest.approx(18.0)


class TestMetricNames:
    NAME = re.compile(r"[A-Za-z0-9_.-]+")

    def test_every_metric_is_named_and_has_a_unit(self):
        metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        for m in metrics:
            assert self.NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert len({m["name"] for m in metrics}) == len(metrics)

    def test_printed_metrics_match_benchmark_json(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.per_layer_metrics()


def test_tracer_wraps_every_binding_and_restores_it():
    mn = run.import_minnet()
    original = mn.steiner.fermat_point_triples
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mn.steiner.fermat_point_triples is not original
        assert mn.experiments.fermat_point_triples is mn.steiner.fermat_point_triples
        mn.solve_exact(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]))
    finally:
        tracer.uninstall()
    assert mn.steiner.fermat_point_triples is original
    m = tracer.metrics()
    assert m["steiner.solve_exact.calls"] == 1 and m["geometry.fermat_point_triples.calls"] >= 1
    top = [s for s in tracer.spans if s.parent < 0]
    assert len(top) == 1 and m["trace.top_spans_s"] == pytest.approx(top[0].end - top[0].start)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(m["trace.top_spans_s"])


def test_reference_time_scales_wall_time_by_mean_probe_speed():
    probe = hostspeed.SpeedProbe()
    probe.times = [float(t) for t in range(8)]
    probe.probe_s = [2.0 * hostspeed.PROBE_REF_S] * 4 + [hostspeed.PROBE_REF_S] * 4
    # Samples 0..7 in [0, 7]: half at half speed.
    assert probe.ref_seconds(0.0, 7.0) == pytest.approx(7.0 * 0.75)
    # Samples 3..7: one of five at half speed.
    assert probe.ref_seconds(2.5, 7.0) == pytest.approx(4.5 * 0.9)
    # No sample inside: it borrows the nearest MIN_SAMPLES, 1..5, three of them slow.
    assert probe.ref_seconds(3.2, 3.3) == pytest.approx(0.1 * (3 * 0.5 + 2 * 1.0) / 5)
