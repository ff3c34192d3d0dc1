"""The three workloads: seeded inputs, the ops of one round, and their checks.

The cost of minnet's iterative solvers is chaotic in the input: solve_exact
on 20 uniform n = 6 draws took 0.3-6 s, and one n = 6 instance took 2.1-3.5 s
under five rotations, because sweeps stop when the last topology settles.
Fresh draws per seed would make a run's time depend more on its seed than
on the code.  So the instances of those solvers come from a fixed uniform
corpus drawn once from CORPUS_SEED, and the run seed only mirrors them and
scales them by a power of two (``mirror``), which changes the coordinates
but not the rounding of any operation.  Inputs whose cost is stable -- the
unit square, the CLI instance, ball centres, the probes -- get a full seeded
similarity or fresh draws.  Lengths are compared through ratios that every
similarity preserves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable
from xml.etree import ElementTree

import numpy as np
from scipy.spatial import cKDTree

import checks

CORPUS_SEED = 20251118
SQRT3 = float(np.sqrt(3.0))


@dataclass
class Op:
    """One timed call into minnet and the check of what it returned.

    ``check`` returns (name of the failed check or None, length ratio or
    None); it runs outside the timed region.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, float | None]]


@dataclass
class Workload:
    ops: list[Op]
    probes: Callable[[], list[Op]]  # known-defect probes, built and run only when traced
    warmup: Callable[[], Any]


# ---------------------------------------------------------------------------
# inputs


def corpus_points(tag: str, n: int, d: int) -> np.ndarray:
    """Uniform points in the unit cube, fixed for the life of the benchmark."""
    key = [CORPUS_SEED, n, d, sum(map(ord, tag))]
    return np.random.default_rng(key).random((n, d))


def rotation(d: int, rng) -> np.ndarray:
    if d == 2:
        a = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def similarity(points: np.ndarray, rng, scale: bool = True) -> tuple[np.ndarray, float]:
    """Seeded rotation about the centroid, scale in [0.5, 2] and shift."""
    d = points.shape[1]
    s = rng.uniform(0.5, 2.0) if scale else 1.0
    c = points.mean(axis=0)
    moved = (points - c) @ rotation(d, rng).T * s + c + rng.uniform(-1.0, 1.0, d)
    return moved, s


def mirror(points: np.ndarray, rng, scale: bool = True) -> np.ndarray:
    """Seeded axis reflections and a scale 2**k, k in [-3, 3]: exact in
    floating point, so the solver does the same arithmetic up to sign."""
    signs = rng.choice([-1.0, 1.0], points.shape[1])
    return points * signs * (2.0 ** int(rng.integers(-3, 4)) if scale else 1.0)


def zigzag(n: int) -> np.ndarray:
    i = np.arange(n, dtype=float)
    return np.column_stack([i, (np.arange(n) % 2) * SQRT3])


def sausage3(n: int) -> np.ndarray:
    """Regular unit tetrahedra glued face to face (the 3-d sausage)."""
    pts = np.zeros((n, 3))
    pts[1] = [1.0, 0.0, 0.0]
    pts[2] = [0.5, SQRT3 / 2.0, 0.0]
    pts[3] = [0.5, SQRT3 / 6.0, np.sqrt(2.0 / 3.0)]
    for i in range(4, n):
        pts[i] = 2.0 * pts[i - 3 : i].mean(axis=0) - pts[i - 4]
    return pts


def separated_points(tag: str, n: int, box: float, gap: float) -> np.ndarray:
    """Corpus points in [0, box]^2 with pairwise distance above ``gap``."""
    rng = np.random.default_rng([CORPUS_SEED, n, sum(map(ord, tag))])
    pts: list[np.ndarray] = []
    while len(pts) < n:
        p = rng.uniform(0.0, box, 2)
        if all(np.linalg.norm(p - q) > gap for q in pts):
            pts.append(p)
    return np.array(pts)


# ---------------------------------------------------------------------------
# CLI plumbing


def cli(mn, argv: list[str]) -> tuple[int, str, str]:
    """Run ``minnet.cli.cli_dispatch`` in-process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mn.cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def svg_edge_count(path: str) -> int:
    root = ElementTree.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    return sum(1 for el in root.iter(f"{ns}path") if el.get("class") == "edge")


# ---------------------------------------------------------------------------
# exact


def exact(mn, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []

    def solve_op(name, pts, expect=None):
        mst = checks.mst_length(pts)

        def check(res):
            tree = res.tree
            if not tree.converged:
                return "converged", None
            failed = checks.check_steiner(
                tree.coords(), tree.topology.edges, pts, tree.length, mst, exact=True
            )
            if failed is None and expect is not None:
                failed = expect(res)
            return failed, tree.length / mst

        ops.append(Op(name, lambda: mn.solve_exact(pts), check))

    square, s = similarity(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), rng)

    def square_expect(res, s=s):
        if abs(res.tree.length - s * (1.0 + SQRT3)) > 1e-9 * s:
            return "square_length"
        return None if len(res.cominimal) == 2 else "cominimal"

    solve_op("solve_exact.square", square, square_expect)
    solve_op("solve_exact.zigzag6", mirror(zigzag(6), rng))
    # The first corpus draws whose solve takes 1-3 s on a 2-CPU Xeon box.
    # Eight ops of similar length put the round's median op among them.
    for tag, d in (("b", 2), ("d", 2), ("e", 2), ("k", 2), ("a", 3), ("c", 3), ("d", 3), ("h", 3)):
        solve_op(f"solve_exact.uniform{d}d_n6{tag}", mirror(corpus_points(tag, 6, d), rng))
    solve_op("solve_exact.uniform2d_n7a", mirror(corpus_points("a", 7, 2), rng))

    cli_pts = similarity(corpus_points("cli", 5, 2), rng)[0]
    cli_in = write_json(
        os.path.join(workdir, "steiner5.json"),
        {"schema_version": "1", "dim": 2, "problem": "steiner", "terminals": cli_pts.tolist()},
    )
    cli_out = os.path.join(workdir, "steiner5.result.json")
    cli_mst = checks.mst_length(cli_pts)

    def check_cli_solve(ret):
        code = ret[0]
        if code != 0:
            return f"exit_{code}", None
        res = read_json(cli_out)
        tree = res["tree"]
        if not res["solver"]["converged"]:
            return "converged", None
        failed = checks.check_steiner(
            np.array(tree["vertices"]), tree["edges"], cli_pts, res["length"], cli_mst, exact=True
        )
        return failed, res["length"] / cli_mst

    ops.append(
        Op(
            "cli.steiner_solve",
            lambda: cli(mn, ["steiner", "solve", "--in", cli_in, "--out", cli_out]),
            check_cli_solve,
        )
    )

    # Coincident terminals: the ratio is 0/0.  A correct CLI either prints a
    # ratio in [0, 1] or exits 3 with a one-line error.
    point = rng.random(2)
    coin_in = write_json(
        os.path.join(workdir, "coincident.json"),
        {"schema_version": "1", "dim": 2, "problem": "steiner", "terminals": [point.tolist()] * 4},
    )

    def check_ratio(ret):
        code, out, err = ret
        if code == 3 and len(err.strip().splitlines()) == 1:
            return None, None
        if code != 0:
            return f"exit_{code}", None
        value = float(out.strip())
        return (None if 0.0 <= value <= 1.0 else "ratio_range"), None

    probes = [Op("cli.steiner_ratio_coincident", lambda: cli(mn, ["steiner", "ratio", "--in", coin_in]), check_ratio)]
    warm = rng.random((4, 2))
    return Workload(ops, lambda: probes, lambda: mn.solve_exact(warm))


# ---------------------------------------------------------------------------
# large


BALL_CENTERS = 3
BALL_TS = (0.25, 0.5, 0.75)


def large(mn, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    trees: dict[str, Any] = {}

    def heuristic_op(tag, pts):
        mst = checks.mst_length(pts)

        def run():
            trees[tag] = None
            trees[tag] = mn.heuristic_steiner(pts)
            return trees[tag]

        # The heuristic's converged flag only says whether its insertion
        # loop settled within its round cap; it is counted in the trace.
        def check(tree):
            failed = checks.check_steiner(tree.coords(), tree.topology.edges, pts, tree.length, mst)
            return failed, tree.length / mst

        ops.append(Op(f"heuristic_steiner.{tag}", run, check))

    def ball_op(tag, pts):
        # Criterion-13 balls: centred near a terminal, with radius the
        # distance to the nearest terminal, so they hold no terminal.
        kd = cKDTree(pts)
        spacing = np.median(kd.query(pts, k=2)[0][:, 1])
        picks = rng.choice(len(pts), BALL_CENTERS, replace=False)
        centers = pts[picks] + rng.uniform(-1.0, 1.0, (BALL_CENTERS, pts.shape[1])) * spacing
        radii = kd.query(centers)[0]

        def run():
            tree = trees[tag]
            if tree is None:
                return None
            report = mn.verify_tree(tree)
            stats = [
                (
                    x,
                    r * t,
                    mn.count_branching_in_ball(tree, x, r, t),
                    mn.length_in_ball(tree, x, r, t),
                    mn.count_crossings(tree, x, r, t),
                )
                for x, r in zip(centers, radii)
                for t in BALL_TS
            ]
            return tree, report, stats

        def check(out):
            if out is None:
                return "no_tree", None
            tree, report, stats = out
            coords = tree.coords()
            edges = np.asarray(tree.topology.edges, dtype=np.int64)
            length = float(checks.edge_lengths(coords, edges).sum())
            if not report.is_tree:
                return "verify_tree", None
            if abs(report.length - length) > checks.LENGTH_REL * length:
                return "verify_length", None
            for x, radius, n_branch, in_ball, crossing in stats:
                lo, hi = checks.branching_bounds(coords, edges, x, radius)
                if not lo <= n_branch <= hi:
                    return "branching", None
                ref = checks.length_in_ball(coords, edges, x, radius)
                if abs(in_ball - ref) > 1e-9 * max(ref, radius):
                    return "length_in_ball", None
                lo, hi = checks.crossing_bounds(coords, edges, x, radius)
                if not lo <= crossing.count <= hi:
                    return "crossings", None
            return None, None

        ops.append(Op(f"ball_sweep.{tag}", run, check))

    instances = {
        "uniform2d_4096": corpus_points("a", 4096, 2),
        "uniform2d_1024": corpus_points("a", 1024, 2),
        "uniform3d_1024": corpus_points("a", 1024, 3),
        "hex_1024": mn.hex_lattice_instance(1024),
    }
    instances = {tag: mirror(pts, rng) for tag, pts in instances.items()}
    for tag, pts in instances.items():
        heuristic_op(tag, pts)
    for tag, pts in instances.items():
        ball_op(tag, pts)

    def relax_op(tag, pts):
        mst = checks.mst_length(pts)

        def check(tree):
            if not tree.converged:
                return "converged", None
            failed = checks.check_steiner(
                tree.coords(), tree.topology.edges, pts, tree.length, mst, below_mst=False
            )
            return failed, tree.length / mst

        n = len(pts)
        ops.append(Op(f"relax_topology.{tag}", lambda: mn.relax_topology(pts, mn.caterpillar_topology(n)), check))

    relax_op("sausage3d_n40", mirror(sausage3(40), rng))
    relax_op("uniform3d_n32", mirror(corpus_points("a", 32, 3), rng))
    warm = rng.random((64, 2))
    return Workload(ops, lambda: [], lambda: mn.heuristic_steiner(warm))


# ---------------------------------------------------------------------------
# coverage


def coverage(mn, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops: list[Op] = []
    n_dense = checks.CONTINUUM_SAMPLES

    def horseshoe_op(tag, descriptor, samples, perimeter, r=1.0):
        src = write_json(
            os.path.join(workdir, f"{tag}.json"),
            {"schema_version": "1", "dim": 2, "problem": "mdm", "descriptor": descriptor, "r": r},
        )
        res_path = os.path.join(workdir, f"{tag}.result.json")
        svg_path = os.path.join(workdir, f"{tag}.svg")
        scale = checks.diameter(samples)

        def run():
            return (
                cli(mn, ["mdm", "horseshoe", "--in", src, "--out", res_path])[0],
                cli(mn, ["render", "--in", res_path, "--out", svg_path])[0],
            )

        def check(codes):
            if codes != (0, 0):
                return f"exit_{codes[0]}_{codes[1]}", None
            res = read_json(res_path)
            net = res["network"]
            if not res["report"]["covered"]:
                return "covered", None
            failed = checks.check_coverage(samples, net["vertices"], net["edges"], r, res["length"], scale)
            if failed is None and svg_edge_count(svg_path) != len(net["edges"]):
                failed = "svg_edges"
            return failed, res["length"] / perimeter

        ops.append(Op(f"cli.horseshoe_{tag}", run, check))

    horseshoe_op(
        "circle6", {"kind": "circle", "radius": 6.0},
        checks.circle_boundary(6.0, n_dense), 2.0 * np.pi * 6.0,
    )
    horseshoe_op(
        "stadium3_2", {"kind": "stadium", "radius": 3.0, "seg_len": 2.0},
        checks.stadium_boundary(3.0, 2.0, n_dense), 2.0 * np.pi * 3.0 + 4.0,
    )

    def finite_check(pts, r):
        mst = checks.mst_length(pts)
        scale = max(checks.diameter(pts), r)

        def check(net):
            failed = checks.check_coverage(pts, net.vertices, net.edges, r, net.length, scale)
            return failed, net.length / mst

        return check

    # Penalty solver on a finite set: here its samples are the whole set, so
    # its coverage claim is checkable exactly.  Its path is chaotic in the
    # input, so the points and the jittered star it starts from come from the
    # corpus and are only mirrored.
    num_pts = separated_points("numeric", 8, 10.0, 2.5)
    c = num_pts.mean(axis=0)
    star = np.vstack([c + 0.5 * (num_pts - c), c])
    star += np.random.default_rng([CORPUS_SEED, 8]).normal(scale=0.05, size=star.shape)
    num_pts, star = np.split(mirror(np.vstack([num_pts, star]), rng, scale=False), [len(num_pts)])
    num_init = mn.MdmNetwork(star, [(i, len(num_pts)) for i in range(len(num_pts))])
    num_desc = mn.CompactSetDescriptor.points(num_pts)
    num_check = finite_check(num_pts, 1.0)

    def check_numeric(out):
        if not out.covered:
            return "covered", None
        return num_check(out.network)

    ops.append(Op("solve_mdm_numeric.points8", lambda: mn.solve_mdm_numeric(num_desc, 1.0, num_init), check_numeric))

    for n in (5, 6):
        pts = mirror(separated_points("finite", n, 8.0, 2.5), rng, scale=False)
        ops.append(Op(f"solve_mdm_finite.n{n}", lambda pts=pts: mn.solve_mdm_finite(pts, 1.0), finite_check(pts, 1.0)))

    # Known-defect probes: both solvers certify coverage only at their own
    # samples, and the dense check finds holes between them.
    def probes() -> list[Op]:
        hs3 = mn.resample_path_network(mn.horseshoe_circle(3.0, 1.0)[0], 120)
        jitter = hs3.vertices + 0.1 * rng.standard_normal(hs3.vertices.shape)
        init3 = mn.MdmNetwork(jitter, hs3.edges)
        circle3 = checks.circle_boundary(3.0, n_dense)

        def check_numeric3(out):
            if not out.covered:
                return "covered", None
            net = out.network
            return checks.check_coverage(circle3, net.vertices, net.edges, 1.0, net.length, 6.0), None

        angle = rng.uniform(0.0, np.pi / 3.0) + np.arange(6) * np.pi / 3.0
        hexagon = 3.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        hex_in = write_json(
            os.path.join(workdir, "hexagon.json"),
            {"schema_version": "1", "dim": 2, "problem": "mdm",
             "descriptor": {"kind": "polygon", "vertices": hexagon.tolist()}, "r": 1.0},
        )
        hex_out = os.path.join(workdir, "hexagon.result.json")
        hex_seed = str(int(rng.integers(0, 2**31)))
        hex_samples = checks.polygon_boundary(hexagon, n_dense)

        def check_hexagon(ret):
            if ret[0] != 0:
                return f"exit_{ret[0]}", None
            res = read_json(hex_out)
            net = res["network"]
            return checks.check_coverage(hex_samples, net["vertices"], net["edges"], 1.0, res["length"], 6.0), None

        return [
            Op(
                "solve_mdm_numeric.circle3",
                lambda: mn.solve_mdm_numeric(mn.CompactSetDescriptor.circle(3.0), 1.0, init3, mn.NumericConfig(density=120)),
                check_numeric3,
            ),
            Op(
                "cli.mdm_solve_hexagon",
                lambda: cli(mn, ["mdm", "solve", "--in", hex_in, "--out", hex_out, "--seed", hex_seed]),
                check_hexagon,
            ),
        ]

    warm_net = mn.MdmNetwork(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])
    warm_samples = checks.circle_boundary(1.0, 64)
    return Workload(ops, probes, lambda: mn.coverage_check(warm_net, warm_samples, 1.0))


WORKLOADS = {"exact": exact, "large": large, "coverage": coverage}
