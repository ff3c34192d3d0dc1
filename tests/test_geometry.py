import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minnet.geometry import (
    GeometryError,
    ToleranceConfig,
    angle_at,
    dist_point_to_segment,
    distance,
    fermat_point,
    fermat_point_triples,
    point_segment_distances,
)

# Frozen against a Nelder-Mead multistart oracle on |x-a|+|x-b|+|x-c|
# (see the derivation notes in the test body below).
RIGHT_ISOCELES_FERMAT = (0.21132486540518708, 0.21132486540518708)
RIGHT_ISOCELES_TOTAL = 1.9318516525781366  # == sqrt(2 + sqrt(3))


def coords(dim=3):
    return st.lists(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=dim,
        max_size=dim,
    )


def _masked_fermat_triples(P: np.ndarray) -> np.ndarray:
    """The Fermat kernel as it was written before its single np.where form.

    Seven vertex cases assigned through ``out``/``done`` masks in precedence
    order, then the equilateral-apex construction on the remaining rows only.
    """
    A, B, C = P[:, 0], P[:, 1], P[:, 2]
    out = np.empty_like(A)
    ab, ac, bc = B - A, C - A, C - B
    dab = np.linalg.norm(ab, axis=1)
    dac = np.linalg.norm(ac, axis=1)
    dbc = np.linalg.norm(bc, axis=1)
    scale = np.maximum(np.maximum(dab, dac), dbc)
    done = np.zeros(len(P), dtype=bool)
    all_same = scale == 0.0
    out[all_same] = A[all_same]
    done |= all_same
    tiny = 1e-14 * np.where(scale == 0.0, 1.0, scale)
    for mask_d, val in ((dab <= tiny, A), (dac <= tiny, A), (dbc <= tiny, B)):
        m = mask_d & ~done
        out[m] = val[m]
        done |= m
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_a = np.einsum("ij,ij->i", ab, ac) / (dab * dac)
        cos_b = -np.einsum("ij,ij->i", ab, bc) / (dab * dbc)
        cos_c = np.einsum("ij,ij->i", ac, bc) / (dac * dbc)
    for cos_v, val in ((cos_a, A), (cos_b, B), (cos_c, C)):
        m = (cos_v <= -0.5) & ~done
        out[m] = val[m]
        done |= m
    idx = np.flatnonzero(~done)
    if idx.size == 0:
        return out
    a3, b3, c3 = A[idx], B[idx], C[idx]
    e1 = (b3 - a3) / dab[idx, None]
    w = c3 - a3
    comp1 = np.einsum("ij,ij->i", w, e1)
    h = w - comp1[:, None] * e1
    hn = np.linalg.norm(h, axis=1)
    hn = np.where(hn == 0.0, 1.0, hn)
    e2 = h / hn[:, None]
    a2 = np.zeros((len(idx), 2))
    b2 = np.stack([dab[idx], np.zeros(len(idx))], axis=1)
    c2 = np.stack([comp1, np.linalg.norm(h, axis=1)], axis=1)

    def apex(p, q, opposite):
        mid = 0.5 * (p + q)
        seg = q - p
        perp = np.stack([-seg[:, 1], seg[:, 0]], axis=1)
        side = np.einsum("ij,ij->i", perp, opposite - mid)
        sign = np.where(side > 0.0, -1.0, 1.0)
        return mid + sign[:, None] * (np.sqrt(3.0) / 2.0) * perp

    d1 = apex(b2, c2, a2) - a2
    d2 = apex(a2, c2, b2) - b2
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    det = np.where(det == 0.0, 1.0, det)
    rhs = b2 - a2
    t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
    f2 = a2 + t[:, None] * d1
    out[idx] = a3 + f2[:, 0, None] * e1 + f2[:, 1, None] * e2
    return out


def _degenerate_triples(rng, count: int, dim: int) -> np.ndarray:
    """Gaussian triples, most of them bent into a degenerate case."""
    P = rng.normal(size=(count, 3, dim))
    kind = rng.integers(0, 8, count)
    P[kind == 1, 1] = P[kind == 1, 0]  # coincident pair
    P[kind == 2, 2] = P[kind == 2, 1]
    near = kind == 3  # a pair 1e-15 apart
    P[near, 1] = P[near, 0] + 1e-15 * rng.normal(size=(near.sum(), dim))
    line = kind == 4  # collinear, the third point on either side or between
    t = rng.uniform(-2.0, 2.0, line.sum())[:, None]
    P[line, 2] = P[line, 0] + t * (P[line, 1] - P[line, 0])
    P[kind == 5] = 0.0
    P[kind == 6] = np.round(P[kind == 6])  # small integers: exact zeros and ties
    P[kind == 7, :, -1] = 0.0  # flat in the last axis
    return P


class TestDistanceAndAngle:
    def test_distance_basic(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_distance_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            distance([0.0, 0.0], [1.0, 1.0, 1.0])

    def test_distance_rejects_nan(self):
        with pytest.raises(GeometryError):
            distance([0.0, float("nan")], [1.0, 1.0])

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(GeometryError):
            distance([0.0], [1.0])

    def test_angle_right(self):
        assert angle_at([0, 0], [1, 0], [0, 1]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_angle_straight(self):
        assert angle_at([0, 0], [1, 0], [-1, 0]) == pytest.approx(math.pi, abs=1e-12)

    def test_angle_tiny_is_stable(self):
        # acos-based formulas lose digits here; the atan2 form does not.
        a = angle_at([0.0, 0.0], [1.0, 0.0], [1.0, 1e-9])
        assert a == pytest.approx(1e-9, rel=1e-6)

    def test_angle_degenerate_ray(self):
        with pytest.raises(GeometryError):
            angle_at([1.0, 2.0], [1.0, 2.0], [3.0, 4.0])

    @given(coords(), coords(), coords())
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    @given(coords(), coords())
    @settings(max_examples=60)
    def test_distance_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)


class TestToleranceConfig:
    def test_defaults_valid(self):
        tol = ToleranceConfig()
        assert tol.eps_tie >= tol.eps_len

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_len=0.0)

    def test_rejects_tie_below_len(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_len=1e-6, eps_tie=1e-9)


class TestFermatPoint:
    def test_equilateral_gives_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        f = fermat_point(*pts)
        np.testing.assert_allclose(f, [0.5, math.sqrt(3) / 6], atol=1e-12)
        total = sum(np.linalg.norm(f - p) for p in pts)
        assert total == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_right_isoceles_frozen_value(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = fermat_point(*pts)
        np.testing.assert_allclose(f, RIGHT_ISOCELES_FERMAT, atol=1e-10)
        total = sum(np.linalg.norm(f - p) for p in pts)
        assert total == pytest.approx(RIGHT_ISOCELES_TOTAL, abs=1e-12)

    def test_obtuse_vertex_absorbs(self):
        # Angle at the origin is 150 degrees: the vertex is the minimizer.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-math.sqrt(3) / 2, 0.5]])
        f = fermat_point(*pts)
        np.testing.assert_allclose(f, [0.0, 0.0], atol=1e-9)

    def test_exactly_120_is_vertex(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-0.5, math.sqrt(3) / 2]])
        f = fermat_point(*pts)
        np.testing.assert_allclose(f, [0.0, 0.0], atol=1e-9)

    def test_coincident_pair(self):
        f = fermat_point([1.0, 1.0], [1.0, 1.0], [5.0, 5.0])
        np.testing.assert_allclose(f, [1.0, 1.0])

    def test_works_in_3d(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        f = fermat_point(*pts)
        # Minimizer lies in the affine span and beats the centroid.
        fobj = lambda x: sum(np.linalg.norm(x - p) for p in pts)
        assert fobj(f) < fobj(pts.mean(axis=0)) + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interior_angles_are_120(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        f = fermat_point(*pts)
        if min(np.linalg.norm(f - p) for p in pts) < 1e-7:
            return  # vertex case: no interior angle condition
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            assert angle_at(f, pts[i], pts[j]) == pytest.approx(2 * math.pi / 3, abs=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_beaten_by_vertices_or_centroid(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        pts = rng.uniform(-5.0, 5.0, (3, dim))
        f = fermat_point(*pts)
        fobj = lambda x: sum(np.linalg.norm(x - p) for p in pts)
        best_other = min(fobj(p) for p in [pts[0], pts[1], pts[2], pts.mean(axis=0)])
        assert fobj(f) <= best_other + 1e-9


class TestFermatTriplesBatch:
    """The closed-form batch kernel, against fermat_point and the optimality conditions."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_weiszfeld(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        triples = rng.uniform(-2.0, 2.0, (8, 3, dim))
        batch = fermat_point_triples(triples)
        for k in range(8):
            single = fermat_point(*triples[k])
            assert np.linalg.norm(batch[k] - single) < 1e-8

    # Seeds whose draws hold a vertex angle within 0.02 degrees of 120, where
    # an iterative solver stops short of the optimum.
    @example(369)
    @example(1685)
    @example(2158)
    @example(2694)
    @example(23691)
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_first_order_oracle(self, seed):
        # Independent of either code path: at an interior point the three
        # unit vectors cancel; at a vertex the angle is at least 2*pi/3, so
        # the pull of the other two points has resultant at most 1.
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        triples = rng.uniform(-2.0, 2.0, (8, 3, dim))
        batch = fermat_point_triples(triples)
        for k, pts in enumerate(triples):
            for f in (batch[k], fermat_point(*pts)):
                at = [i for i in range(3) if np.array_equal(f, pts[i])]
                if not at:
                    units = (pts - f) / np.linalg.norm(pts - f, axis=1)[:, None]
                    assert np.linalg.norm(units.sum(axis=0)) <= 1e-9
                    continue
                v, o1, o2 = at[0], *(i for i in range(3) if i != at[0])
                assert angle_at(pts[v], pts[o1], pts[o2]) >= 2 * math.pi / 3 - 1e-9
                pull = sum((pts[i] - pts[v]) / np.linalg.norm(pts[i] - pts[v]) for i in (o1, o2))
                assert np.linalg.norm(pull) <= 1.0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bit_identical_to_masked_kernel(self, dim):
        P = _degenerate_triples(np.random.default_rng(100 + dim), 60000, dim)
        new, old = fermat_point_triples(P), _masked_fermat_triples(P)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))

    def test_vertex_snap_is_exact(self):
        pts = np.array([[[0.0, 0.0], [1.0, 0.0], [-1.0, 0.1]]])
        f = fermat_point_triples(pts)[0]
        assert f[0] == 0.0 and f[1] == 0.0  # exact, not approximate

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            fermat_point_triples(np.zeros((4, 2, 2)))


class TestPointSegment:
    def test_projection_inside(self):
        assert dist_point_to_segment([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_clamps_to_endpoint(self):
        assert dist_point_to_segment([5.0, 0.0], [-1.0, 0.0], [1.0, 0.0]) == 4.0

    def test_degenerate_segment(self):
        assert dist_point_to_segment([3.0, 4.0], [0.0, 0.0], [0.0, 0.0]) == 5.0

    @given(coords(2), coords(2), coords(2))
    @settings(max_examples=60)
    def test_never_exceeds_endpoint_distance(self, p, a, b):
        d = dist_point_to_segment(p, a, b)
        assert d <= min(distance(p, a), distance(p, b)) + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matrix_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, (5, 2))
        a = rng.uniform(-3, 3, (4, 2))
        b = rng.uniform(-3, 3, (4, 2))
        mat = point_segment_distances(pts, a, b)
        for i in range(5):
            for j in range(4):
                assert mat[i, j] == pytest.approx(
                    dist_point_to_segment(pts[i], a[j], b[j]), abs=1e-12
                )
