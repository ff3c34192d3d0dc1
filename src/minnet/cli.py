"""Command-line entry points.

Subcommands::

    minnet steiner solve   --in inst.json [--out result.json] [--nmax K]
    minnet steiner count   --n 6
    minnet steiner ratio   --in inst.json
    minnet mdm solve       --in inst.json [--out result.json] [--density N] [--seed S]
    minnet mdm horseshoe   --in inst.json [--out result.json]
    minnet mdm competitor  --in inst.json [--out result.json]
    minnet exp run         --in rows.json [--csv runs.csv] [--out runs.json] [--seed S]
    minnet render          --in result.json [--out figure.svg] [--project]

Exit codes: 0 success, 2 usage (unknown subcommand/flag), 3 invalid input,
4 solver failed to converge (a partial result with ``converged: false`` is
still written when one exists).  Errors are a single ``minnet: error: ...``
line on stderr.  ``--tol`` (or the MINNET_TOL environment variable) sets the
length-tolerance scale; the other tolerances follow the default profile.
Everything runs offline on local files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from math import ceil

import numpy as np

from .experiments import run_suite
from .geometry import DEFAULT_TOL, ToleranceConfig
from .io import (
    SCHEMA_VERSION,
    InstanceFile,
    IoError,
    ResultFile,
    canonical_json,
    instance_digest,
    parse_instance,
    parse_result,
    serialize_result,
)
from .mdm import (
    _closest_on_network,
    _coverage_report,
    _default_density,
    _energetic,
    MdmError,
    MdmNetwork,
    NumericConfig,
    horseshoe_stadium,
    resample_path_network,
    sample_compact,
    solve_mdm_finite,
    solve_mdm_numeric,
    stadium_competitor,
    verify_mdm,
)
from .ratio import steiner_ratio
from .steiner import solve_exact, verify_tree
from .svg import render_svg
from .topology import count_full_topologies

TOL_ENV_VAR = "MINNET_TOL"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_UNCONVERGED = 4


class _Unconverged(Exception):
    """Solver finished without meeting its convergence/feasibility target."""


def tolerance_profile(scale: float) -> ToleranceConfig:
    """Tolerance family indexed by the length scale; profile(1e-9) is the default."""
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0:
        raise IoError(f"tolerance scale must be a positive finite number, got {scale!r}")

    def x(factor: float) -> float:
        return float(f"{factor * scale:.12g}")  # drop binary dust: profile(1e-9) == default

    return ToleranceConfig(eps_len=scale, eps_angle=x(1e3), eps_tie=x(1e2), coverage_eps=x(1e3))


def _tolerance(args) -> ToleranceConfig:
    if getattr(args, "tol", None) is not None:
        return tolerance_profile(args.tol)
    env = os.environ.get(TOL_ENV_VAR)
    if env is None:
        return DEFAULT_TOL
    try:
        scale = float(env)
    except ValueError:
        raise IoError(f"environment variable {TOL_ENV_VAR}: expected a number, got {env!r}") from None
    return tolerance_profile(scale)


# ---------------------------------------------------------------------------
# small IO helpers


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_instance(args, expect: str) -> InstanceFile:
    inst = parse_instance(_read_bytes(args.infile))
    if inst.problem != expect:
        raise IoError(f"field 'problem': this subcommand needs a {expect!r} instance, got {inst.problem!r}")
    return inst


def _emit_result(args, result: ResultFile) -> None:
    """Result JSON to --out (then length to stdout) or to stdout itself."""
    data = serialize_result(result).decode("utf-8") + "\n"
    if getattr(args, "out", None):
        _write_text(args.out, data)
        print(f"{result.length:.17g}")
    else:
        sys.stdout.write(data)


# ---------------------------------------------------------------------------
# steiner


def _cmd_steiner_solve(args) -> int:
    tol = _tolerance(args)
    inst = _load_instance(args, "steiner")
    t0 = time.perf_counter()
    res = solve_exact(inst.terminals, tol=tol, n_max=args.nmax)
    wall = time.perf_counter() - t0
    tree = res.tree
    rep = verify_tree(tree, tol)
    result = ResultFile(
        SCHEMA_VERSION,
        instance_digest(inst),
        "steiner",
        inst.dim,
        tree.length,
        tree.coords(),
        tree.topology.edge_array,
        n_terminals=int(inst.terminals.shape[0]),
        report={
            "is_tree": rep.is_tree,
            "max_degree": rep.max_degree,
            "min_angle": rep.min_angle,
            "angles_ok": rep.angles_ok,
            "n_degenerate_edges": rep.n_degenerate_edges,
        },
        solver={
            "name": "exact",
            "converged": tree.converged,
            "iterations": res.sweeps,
            "newton_steps": res.newton_steps,
            "n_topologies": res.n_topologies,
            "n_unconverged": res.n_unconverged,
            "n_pruned": res.n_pruned,
            "gap": res.gap,
            "wall_time_s": wall,
            "tolerances": asdict(tol),
        },
    )
    _emit_result(args, result)
    if not tree.converged:
        raise _Unconverged("tree relaxation did not converge; partial result written")
    return EXIT_OK


def _cmd_steiner_count(args) -> int:
    print(count_full_topologies(args.n))
    return EXIT_OK


def _cmd_steiner_ratio(args) -> int:
    tol = _tolerance(args)
    inst = _load_instance(args, "steiner")
    print(f"{steiner_ratio(inst.terminals, tol):.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mdm


def _gate_samples(desc, r: float, n: int | None = None) -> np.ndarray:
    if desc.kind in ("points", "samples"):
        return desc.pts
    return sample_compact(desc, n or max(64, int(ceil(40.0 * desc.diameter() / r))))


def _initial_network(desc, r: float, seed: int | None) -> MdmNetwork:
    """Starting network for the numeric solver.

    Circles and stadiums start from the arc-plus-tangents family, resampled
    to a manageable vertex count; other boundaries start from an open chain
    of boundary samples pulled distance r toward the centroid.  A seed adds
    a small jitter so ties between symmetric local minima can be broken.
    """
    diam = max(desc.diameter(), 2.0 * r)
    if desc.kind in ("circle", "stadium") and desc.radius > r:  # a circle's seg_len is 0.0
        net = horseshoe_stadium(desc.radius, r, desc.seg_len)[0]
        net = resample_path_network(net, max(24, min(120, int(6.0 * diam / r))))
    else:
        ring = sample_compact(desc, 48) if desc.kind not in ("points", "samples") else desc.pts
        c = ring.mean(axis=0)
        rel = ring - c
        dist = np.linalg.norm(rel, axis=1)
        pull = np.minimum(r, dist) / np.where(dist == 0.0, 1.0, dist)
        chain = ring - pull[:, None] * rel
        net = MdmNetwork(chain, np.column_stack([np.arange(len(chain) - 1), np.arange(1, len(chain))]))
    if seed is not None:
        rng = np.random.default_rng(seed)
        v = net.vertices + rng.normal(scale=5e-3 * diam, size=net.vertices.shape)
        net = MdmNetwork(v, net.edge_array)
    return net


def _mdm_result(
    inst, net: MdmNetwork, tol: ToleranceConfig, solver: dict, gate_n: int | None = None
) -> ResultFile:
    desc, r = inst.descriptor, inst.r
    gate = _gate_samples(desc, r, gate_n)
    # One closest-point pass serves both the coverage verdict and the
    # energetic points.
    d, p = _closest_on_network(net, gate)
    cov = _coverage_report(net, gate, d, r, tol)
    rep = verify_mdm(net, len(gate), tol)
    report = {
        "covered": cov.covered,
        "max_defect": cov.max_defect,
        "has_cycle": rep.has_cycle,
        "n_components": rep.n_components,
        "segment_count": rep.segment_count,
        "min_angle": rep.min_angle,
        "energetic": _energetic(net, gate, d, p, r, tol)[0],
    }
    if desc.kind == "points":
        report["segment_bound_ok"] = rep.bound_ok
    return ResultFile(
        SCHEMA_VERSION,
        instance_digest(inst),
        "mdm",
        inst.dim,
        float(net.length),
        net.vertices,
        net.edge_array,
        r=r,
        report=report,
        solver=solver,
    )


def _finish_mdm(
    args, inst, net: MdmNetwork, tol: ToleranceConfig, solver: dict, t0: float, gate_n: int | None = None
) -> int:
    """Write an mdm subcommand's result; exit 4 when the report finds a hole.

    Whatever the solver's stopping rule, ``converged`` is the report's
    coverage verdict.
    """
    solver["wall_time_s"] = time.perf_counter() - t0
    solver["tolerances"] = asdict(tol)
    result = _mdm_result(inst, net, tol, solver, gate_n)
    result.solver["converged"] = result.report["covered"]
    _emit_result(args, result)
    if not result.report["covered"]:
        raise _Unconverged("coverage defect above tolerance; partial result written")
    return EXIT_OK


def _cmd_mdm_solve(args) -> int:
    tol = _tolerance(args)
    inst = _load_instance(args, "mdm")
    desc, r = inst.descriptor, inst.r
    t0 = time.perf_counter()
    if desc.kind == "points":
        net = solve_mdm_finite(desc.pts, r, tol)
        return _finish_mdm(args, inst, net, tol, {"name": "finite"}, t0)
    init = _initial_network(desc, r, args.seed)
    cfg = NumericConfig(density=args.density) if args.density else None
    out = solve_mdm_numeric(desc, r, init, config=cfg, tol=tol)
    solver = {
        "name": "numeric",
        # The trace holds each epoch's starting value and one value per step.
        "iterations": len(out.objective_trace) - out.epochs,
        "epochs": out.epochs,
        "max_defect": out.max_defect,
    }
    # The report judges coverage at the sampling the solver worked with.
    gate_n = args.density or _default_density(desc, r)
    return _finish_mdm(args, inst, out.network, tol, solver, t0, gate_n)


def _require_round_boundary(inst) -> tuple[float, float, float]:
    desc = inst.descriptor
    if desc.kind in ("circle", "stadium"):  # a circle's seg_len is 0.0
        return desc.radius, inst.r, desc.seg_len
    raise IoError(
        f"field 'descriptor.kind': this subcommand needs a circle or stadium boundary, got {desc.kind!r}"
    )


def _cmd_mdm_horseshoe(args) -> int:
    tol = _tolerance(args)
    inst = _load_instance(args, "mdm")
    R, r, L = _require_round_boundary(inst)
    t0 = time.perf_counter()
    net, _ = horseshoe_stadium(R, r, L)
    return _finish_mdm(args, inst, net, tol, {"name": "horseshoe"}, t0)


def _cmd_mdm_competitor(args) -> int:
    tol = _tolerance(args)
    inst = _load_instance(args, "mdm")
    R, r, L = _require_round_boundary(inst)
    if R <= r:
        raise IoError(f"field 'r': competitor needs R > r, got R={R:g}, r={r:g}")
    t0 = time.perf_counter()
    try:
        net, _ = stadium_competitor(R, r, L, tol)
    except MdmError as exc:
        raise _Unconverged(str(exc)) from None
    return _finish_mdm(args, inst, net, tol, {"name": "competitor"}, t0)


# ---------------------------------------------------------------------------
# experiments and rendering


def _cmd_exp_run(args) -> int:
    try:
        obj = json.loads(_read_bytes(args.infile).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoError(f"row file: not valid JSON: {exc}") from None
    rows = obj.get("rows") if isinstance(obj, dict) else obj
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise IoError("row file: expected a list of row objects (or {'rows': [...]})")
    if args.seed is not None:
        rows = [{**row, "seed": row.get("seed", args.seed)} for row in rows]
    runs = run_suite(rows, csv_path=args.csv)
    if args.out:
        payload = [asdict(run) for run in runs]
        _write_text(args.out, canonical_json(payload).decode("utf-8") + "\n")
    failed = sum(1 for run in runs if run.error)
    print(f"{len(runs)} runs, {failed} failed")
    return EXIT_OK


def _cmd_render(args) -> int:
    result = parse_result(_read_bytes(args.infile))
    _write_text(args.out, render_svg(result, project=args.project))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_common(p, *, infile=True, out=True, tol=True) -> None:
    if infile:
        p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    if out:
        p.add_argument("--out", default=None, metavar="FILE")
    if tol:
        p.add_argument("--tol", type=float, default=None, metavar="SCALE")


@functools.cache  # argparse keeps no state between parses, so one tree serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("steiner", help="Euclidean Steiner trees")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    p = st_sub.add_parser("solve", help="exact solve over all full topologies")
    _add_common(p)
    p.add_argument("--nmax", type=int, default=9, help="largest terminal count accepted")
    p.set_defaults(func=_cmd_steiner_solve)
    p = st_sub.add_parser("count", help="number of full topologies on n terminals")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_steiner_count)
    p = st_sub.add_parser("ratio", help="Steiner length over spanning length")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_steiner_ratio)

    md = sub.add_parser("mdm", help="maximal-distance minimizers")
    md_sub = md.add_subparsers(dest="subcommand", required=True)
    p = md_sub.add_parser("solve", help="solve a coverage instance")
    _add_common(p)
    p.add_argument("--density", type=int, default=None, help="boundary sample count")
    p.add_argument("--seed", type=int, default=None, help="jitter the initial network")
    p.set_defaults(func=_cmd_mdm_solve)
    p = md_sub.add_parser("horseshoe", help="arc-plus-tangents construction")
    _add_common(p)
    p.set_defaults(func=_cmd_mdm_horseshoe)
    p = md_sub.add_parser("competitor", help="path/stem/arms alternative network")
    _add_common(p)
    p.set_defaults(func=_cmd_mdm_competitor)

    ex = sub.add_parser("exp", help="experiment suites")
    ex_sub = ex.add_subparsers(dest="subcommand", required=True)
    p = ex_sub.add_parser("run", help="run a suite of generator/solver rows")
    _add_common(p, tol=False)
    p.add_argument("--csv", default=None, metavar="FILE")
    p.add_argument("--seed", type=int, default=None, help="default seed for rows without one")
    p.set_defaults(func=_cmd_exp_run)

    p = sub.add_parser("render", help="result file to SVG")
    _add_common(p, tol=False)
    p.add_argument("--project", action="store_true", help="orthographic projection for 3-d results")
    p.set_defaults(func=_cmd_render)
    return parser


def cli_dispatch(argv) -> int:
    """Parse argv (no program name) and run one subcommand; returns exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse already printed usage / message
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else EXIT_USAGE)
    try:
        return args.func(args)
    except _Unconverged as exc:
        print(f"minnet: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_UNCONVERGED
    except (ValueError, OSError) as exc:
        print(f"minnet: error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
