"""Command-line behavior: exit codes, outputs, digests, tolerance profile."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minnet.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_USAGE,
    TOL_ENV_VAR,
    _gate_samples,
    _initial_network,
    _mdm_result,
    cli_dispatch,
    tolerance_profile,
)
from minnet.geometry import DEFAULT_TOL
from minnet.io import instance_digest, parse_instance, parse_result
from minnet.mdm import (
    CompactSetDescriptor,
    MdmError,
    MdmNetwork,
    NumericConfig,
    NumericResult,
    coverage_check,
    energetic_points,
    horseshoe_circle,
    horseshoe_stadium,
    solve_mdm_finite,
    solve_mdm_numeric,
)
from minnet.steiner import solve_exact

HORSESHOE_R6_LENGTH = 30.192319998510747  # independently cross-checked elsewhere

SQUARE = {"dim": 2, "problem": "steiner", "terminals": [[0, 0], [1, 0], [1, 1], [0, 1]]}
TETRA = {
    "dim": 3,
    "problem": "steiner",
    "terminals": [[0, 0, 0], [1, 0, 0], [0.5, 0.9, 0], [0.5, 0.3, 0.8]],
}
MDM_POINTS = {
    "dim": 2,
    "problem": "mdm",
    "descriptor": {"kind": "points", "points": [[0, 0], [4, 0], [2, 3]]},
    "r": 0.5,
}
MDM_CIRCLE6 = {
    "dim": 2,
    "problem": "mdm",
    "descriptor": {"kind": "circle", "radius": 6.0},
    "r": 1.0,
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _err_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l]
    assert len(lines) == 1 and lines[0].startswith("minnet: error: ")
    return lines[0]


class TestToleranceProfile:
    def test_default_scale_reproduces_default_config(self):
        assert tolerance_profile(1e-9) == DEFAULT_TOL

    def test_profile_scales_all_members(self):
        tol = tolerance_profile(1e-7)
        assert tol.eps_len == 1e-7
        assert tol.eps_angle == 1e-4
        assert tol.eps_tie == 1e-5
        assert tol.coverage_eps == 1e-4

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            tolerance_profile(0.0)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["steiner", "frobnicate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["steiner", "count", "--n", "4", "--wat"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_input(self, capsys):
        assert cli_dispatch(["steiner", "solve"]) == EXIT_USAGE
        capsys.readouterr()

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        # A valid command, a usage error, then another subcommand in one
        # process: each exits and prints exactly as in a fresh process.
        inst = _write(tmp_path, "square.json", SQUARE)
        calls = (
            (["steiner", "count", "--n", "6"], EXIT_OK),
            (["steiner", "frobnicate"], EXIT_USAGE),
            (["steiner", "ratio", "--in", inst], EXIT_OK),
        )
        for argv, expected in calls:
            code = cli_dispatch(argv)
            got = capsys.readouterr()
            fresh = _run_cli(argv)
            assert code == expected
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestSteinerCommands:
    def test_count_six_terminals(self, capsys):
        assert cli_dispatch(["steiner", "count", "--n", "6"]) == EXIT_OK
        assert capsys.readouterr().out == "105\n"

    def test_count_validates_n(self, capsys):
        assert cli_dispatch(["steiner", "count", "--n", "1"]) == EXIT_INVALID
        _err_line(capsys)

    def test_solve_square_result_file(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        res = parse_result(open(out, "rb").read())
        assert abs(res.length - (1.0 + math.sqrt(3.0))) <= 1e-6
        assert printed == res.length  # 17 significant digits => exact echo
        assert res.n_terminals == 4 and len(res.vertices) == 6
        assert res.report["is_tree"] and res.report["angles_ok"]
        assert res.solver["converged"] is True

    def test_result_digest_binds_to_instance(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        out = str(tmp_path / "result.json")
        cli_dispatch(["steiner", "solve", "--in", inst, "--out", out])
        capsys.readouterr()
        res = parse_result(open(out, "rb").read())
        assert res.instance_digest == instance_digest(parse_instance(open(inst, "rb").read()))

    def test_solve_writes_json_to_stdout_without_out(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        assert cli_dispatch(["steiner", "solve", "--in", inst]) == EXIT_OK
        res = parse_result(capsys.readouterr().out.encode())
        assert abs(res.length - (1.0 + math.sqrt(3.0))) <= 1e-6

    def test_solve_respects_nmax_budget(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--nmax", "3"]) == EXIT_INVALID
        _err_line(capsys)

    def test_ratio_square(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        assert cli_dispatch(["steiner", "ratio", "--in", inst]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - (1.0 + math.sqrt(3.0)) / 3.0) <= 1e-9
        assert len(out.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_solve_reports_sweeps_and_pruning(self, tmp_path, capsys):
        zigzag = [[float(i), (i % 2) * math.sqrt(3.0)] for i in range(6)]
        inst = _write(tmp_path, "zigzag.json", {"dim": 2, "problem": "steiner", "terminals": zigzag})
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        solver = parse_result(open(out, "rb").read()).solver
        assert solver["n_topologies"] == 105
        assert solver["iterations"] > 0
        assert solver["n_pruned"] > 0
        assert solver["n_pruned"] + solver["n_unconverged"] <= solver["n_topologies"]

    def test_solve_reports_the_winners_gap(self, tmp_path, capsys):
        pts = np.random.default_rng(5).uniform(0.0, 1.0, (5, 2))
        inst = _write(tmp_path, "five.json", {"dim": 2, "problem": "steiner", "terminals": pts.tolist()})
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        solver = parse_result(open(out, "rb").read()).solver
        scale = float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=2)))
        assert solver["converged"] is True
        assert solver["gap"] <= DEFAULT_TOL.eps_len * scale

    def test_solve_reports_newton_steps(self, tmp_path, capsys):
        # A terminal pair 1e-8 apart leaves the winner for the Newton finisher.
        pts = [[0.2, 0.3], [0.2 + 1e-8, 0.3], [0.3, 0.9], [0.7, 0.85], [0.4, 0.0]]
        inst = _write(tmp_path, "pair.json", {"dim": 2, "problem": "steiner", "terminals": pts})
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        steps = parse_result(open(out, "rb").read()).solver["newton_steps"]
        assert isinstance(steps, int) and steps >= 0
        assert steps == solve_exact(pts).newton_steps

    def test_ratio_coincident_terminals_exits_invalid(self, tmp_path, capsys):
        coincident = {"dim": 2, "problem": "steiner", "terminals": [[0.25, 0.5]] * 4}
        inst = _write(tmp_path, "coincident.json", coincident)
        assert cli_dispatch(["steiner", "ratio", "--in", inst]) == EXIT_INVALID
        assert "coincide" in _err_line(capsys)

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_ratio_extent_out_of_float_range_exits_invalid(self, tmp_path, capsys, size):
        # Every distance overflows (the spanning tree found no edge) or
        # underflows (the set looked coincident) unless the extent is checked.
        terms = (np.random.default_rng(0).random((5, 2)) * size).tolist()
        inst = _write(tmp_path, "far.json", {"dim": 2, "problem": "steiner", "terminals": terms})
        assert cli_dispatch(["steiner", "ratio", "--in", inst]) == EXIT_INVALID
        assert "extent" in _err_line(capsys)

    def test_solve_rejects_mdm_instance(self, tmp_path, capsys):
        inst = _write(tmp_path, "pts.json", MDM_POINTS)
        assert cli_dispatch(["steiner", "solve", "--in", inst]) == EXIT_INVALID
        assert "steiner" in _err_line(capsys)


class TestValidationExitCodes:
    def test_missing_file(self, capsys):
        assert cli_dispatch(["steiner", "solve", "--in", "/nonexistent.json"]) == EXIT_INVALID
        _err_line(capsys)

    def test_mdm_missing_r(self, tmp_path, capsys):
        bad = {k: v for k, v in MDM_CIRCLE6.items() if k != "r"}
        inst = _write(tmp_path, "bad.json", bad)
        assert cli_dispatch(["mdm", "solve", "--in", inst]) == EXIT_INVALID
        assert "'r'" in _err_line(capsys)

    def test_mixed_terminal_dimensions(self, tmp_path, capsys):
        bad = dict(SQUARE, terminals=[[0, 0], [1, 0, 5], [1, 1]])
        inst = _write(tmp_path, "bad.json", bad)
        assert cli_dispatch(["steiner", "solve", "--in", inst]) == EXIT_INVALID
        assert "dimension mismatch" in _err_line(capsys)

    def test_competitor_needs_round_boundary(self, tmp_path, capsys):
        inst = _write(tmp_path, "pts.json", MDM_POINTS)
        assert cli_dispatch(["mdm", "competitor", "--in", inst]) == EXIT_INVALID
        assert "circle or stadium" in _err_line(capsys)

    def test_negative_tol_flag(self, tmp_path, capsys):
        inst = _write(tmp_path, "square.json", SQUARE)
        argv = ["steiner", "solve", "--in", inst, "--tol=-1e-9"]
        assert cli_dispatch(argv) == EXIT_INVALID
        _err_line(capsys)

    def test_bad_tolerance_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "not-a-number")
        inst = _write(tmp_path, "square.json", SQUARE)
        assert cli_dispatch(["steiner", "solve", "--in", inst]) == EXIT_INVALID
        assert TOL_ENV_VAR in _err_line(capsys)


class TestTolerancePlumbing:
    def test_env_sets_profile(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "1e-7")
        inst = _write(tmp_path, "square.json", SQUARE)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        tols = parse_result(open(out, "rb").read()).solver["tolerances"]
        assert tols["eps_len"] == 1e-7 and tols["coverage_eps"] == 1e-4

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(TOL_ENV_VAR, "1e-7")
        inst = _write(tmp_path, "square.json", SQUARE)
        out = str(tmp_path / "r.json")
        argv = ["steiner", "solve", "--in", inst, "--out", out, "--tol", "1e-8"]
        assert cli_dispatch(argv) == EXIT_OK
        capsys.readouterr()
        assert parse_result(open(out, "rb").read()).solver["tolerances"]["eps_len"] == 1e-8


class TestMdmCommands:
    def test_finite_solve(self, tmp_path, capsys):
        inst = _write(tmp_path, "pts.json", MDM_POINTS)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["mdm", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        res = parse_result(open(out, "rb").read())
        assert res.r == 0.5
        assert res.report["covered"] is True
        assert res.report["segment_bound_ok"] is True
        assert res.solver["name"] == "finite"
        assert res.length > 0

    def test_horseshoe_circle_length(self, tmp_path, capsys):
        inst = _write(tmp_path, "c6.json", MDM_CIRCLE6)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["mdm", "horseshoe", "--in", inst, "--out", out]) == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        res = parse_result(open(out, "rb").read())
        assert abs(res.length - HORSESHOE_R6_LENGTH) <= 1e-9
        assert printed == res.length
        assert res.report["covered"] is True
        assert len(res.report["energetic"]) > 0
        # The gap is closed-form: no search, so no iteration count.
        assert res.solver["converged"] is True
        assert "iterations" not in res.solver

    def test_numeric_solve_small_circle(self, tmp_path, capsys):
        inst = _write(
            tmp_path,
            "c.json",
            dict(MDM_CIRCLE6, descriptor={"kind": "circle", "radius": 1.2}, r=0.5),
        )
        out = str(tmp_path / "r.json")
        argv = ["mdm", "solve", "--in", inst, "--out", out, "--density", "96", "--seed", "1"]
        assert cli_dispatch(argv) == EXIT_OK
        capsys.readouterr()
        res = parse_result(open(out, "rb").read())
        assert res.report["covered"] is True
        assert res.solver["name"] == "numeric"
        assert 0 < res.length < 2.0 * math.pi * 1.2
        desc = CompactSetDescriptor.circle(1.2)
        direct = solve_mdm_numeric(
            desc, 0.5, _initial_network(desc, 0.5, 1), NumericConfig(density=96), DEFAULT_TOL
        )
        # Each epoch's first trace value is its start, not a step.
        steps = len(direct.objective_trace) - direct.epochs
        assert 0 < steps < len(direct.objective_trace)
        assert res.solver["iterations"] == steps
        assert res.solver["epochs"] == direct.epochs

    def test_one_point_samples_solve(self, tmp_path, capsys):
        inst = _write(
            tmp_path,
            "one.json",
            dict(MDM_CIRCLE6, descriptor={"kind": "samples", "points": [[0.5, 0.5]]}),
        )
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["mdm", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        res = parse_result(open(out, "rb").read())
        assert res.length == 0.0
        assert res.report["covered"] is True
        assert res.solver["converged"] is True

    def test_unconverged_numeric_writes_partial_and_exits_4(
        self, tmp_path, capsys, monkeypatch
    ):
        stub = NumericResult(
            network=MdmNetwork(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)]),
            covered=False,
            max_defect=4.5,
            epochs=12,
        )
        monkeypatch.setattr("minnet.cli.solve_mdm_numeric", lambda *a, **k: stub)
        inst = _write(tmp_path, "c6.json", MDM_CIRCLE6)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["mdm", "solve", "--in", inst, "--out", out]) == EXIT_UNCONVERGED
        res = parse_result(open(out, "rb").read())
        assert res.solver["converged"] is False
        assert res.report["covered"] is False
        assert "partial result written" in _err_line(capsys)

    def test_competitor_failure_exits_4_without_result(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise MdmError("feasibility was never reached")

        monkeypatch.setattr("minnet.cli.stadium_competitor", boom)
        inst = _write(tmp_path, "c6.json", MDM_CIRCLE6)
        out = str(tmp_path / "r.json")
        argv = ["mdm", "competitor", "--in", inst, "--out", out]
        assert cli_dispatch(argv) == EXIT_UNCONVERGED
        assert not (tmp_path / "r.json").exists()
        _err_line(capsys)

    def test_competitor_result_flow(self, tmp_path, capsys, monkeypatch):
        from minnet.mdm import horseshoe_circle

        net, length = horseshoe_circle(6.0, 1.0)
        monkeypatch.setattr("minnet.cli.stadium_competitor", lambda *a, **k: (net, length))
        inst = _write(tmp_path, "c6.json", MDM_CIRCLE6)
        out = str(tmp_path / "r.json")
        assert cli_dispatch(["mdm", "competitor", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        res = parse_result(open(out, "rb").read())
        assert res.solver["name"] == "competitor"
        assert res.report["covered"] is True

    def test_competitor_reports_coverage_and_exits_4_when_uncovered(self, tmp_path, capsys, monkeypatch):
        from minnet.mdm import horseshoe_circle

        inst = _write(tmp_path, "c6.json", MDM_CIRCLE6)
        out = str(tmp_path / "r.json")
        argv = ["mdm", "competitor", "--in", inst, "--out", out]
        net, length = horseshoe_circle(6.0, 1.0)
        monkeypatch.setattr("minnet.cli.stadium_competitor", lambda *a, **k: (net, length))
        assert cli_dispatch(argv) == EXIT_OK
        capsys.readouterr()
        assert parse_result(open(out, "rb").read()).solver["converged"] is True
        stub = MdmNetwork(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])
        monkeypatch.setattr("minnet.cli.stadium_competitor", lambda *a, **k: (stub, stub.length))
        assert cli_dispatch(argv) == EXIT_UNCONVERGED
        res = parse_result(open(out, "rb").read())
        assert res.solver["converged"] is False
        assert res.report["covered"] is False
        assert "partial result written" in _err_line(capsys)

    def test_competitor_requires_R_above_r(self, tmp_path, capsys):
        inst = _write(tmp_path, "c.json", dict(MDM_CIRCLE6, r=7.0))
        assert cli_dispatch(["mdm", "competitor", "--in", inst]) == EXIT_INVALID
        assert "R > r" in _err_line(capsys)


class TestExpRun:
    ROWS = [
        {"generator": "zigzag", "n": 3, "solver": "exact"},
        {"generator": "random", "n": 5, "solver": "heuristic", "seed": 7},
    ]

    def test_runs_suite_with_csv_and_json(self, tmp_path, capsys):
        rows = _write(tmp_path, "rows.json", self.ROWS)
        csv_path = str(tmp_path / "runs.csv")
        out = str(tmp_path / "runs.json")
        argv = ["exp", "run", "--in", rows, "--csv", csv_path, "--out", out]
        assert cli_dispatch(argv) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2 runs, 0 failed"
        header = open(csv_path).readline().strip()
        assert header == "instance_id,generator,seed,N,d,solver,length,normalized,wall_time_ms"
        payload = json.loads(open(out).read())
        assert len(payload) == 2
        assert all(run["norm_rule"] for run in payload)

    def test_rows_wrapper_object_accepted(self, tmp_path, capsys):
        rows = _write(tmp_path, "rows.json", {"rows": self.ROWS[:1]})
        assert cli_dispatch(["exp", "run", "--in", rows]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1 runs, 0 failed"

    def test_failing_row_recorded_not_fatal(self, tmp_path, capsys):
        rows = _write(tmp_path, "rows.json", self.ROWS + [{"generator": "nope", "solver": "exact"}])
        out = str(tmp_path / "runs.json")
        assert cli_dispatch(["exp", "run", "--in", rows, "--out", out]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "3 runs, 1 failed"
        failed = [r for r in json.loads(open(out).read()) if r["error"]]
        assert len(failed) == 1 and "nope" in failed[0]["error"]

    def test_seed_flag_fills_missing_seeds(self, tmp_path, capsys):
        rows = _write(tmp_path, "rows.json", [{"generator": "random", "n": 4, "solver": "exact"}])
        out = str(tmp_path / "runs.json")
        assert cli_dispatch(["exp", "run", "--in", rows, "--out", out, "--seed", "5"]) == EXIT_OK
        capsys.readouterr()
        assert "s00000005" in json.loads(open(out).read())[0]["instance_id"]

    def test_rows_must_be_a_list(self, tmp_path, capsys):
        rows = _write(tmp_path, "rows.json", {"rows": "zigzag"})
        assert cli_dispatch(["exp", "run", "--in", rows]) == EXIT_INVALID
        _err_line(capsys)


def _one_pass_case(kind):
    """An mdm instance and a network for it, each kind a different descriptor."""
    if kind == "circle":
        return MDM_CIRCLE6, horseshoe_circle(6.0, 1.0)[0]
    if kind == "stadium":
        obj = dict(MDM_CIRCLE6, descriptor={"kind": "stadium", "radius": 3.0, "seg_len": 2.0})
        return obj, horseshoe_stadium(3.0, 1.0, 2.0)[0]
    if kind == "points":
        return MDM_POINTS, solve_mdm_finite(np.array(MDM_POINTS["descriptor"]["points"], dtype=float), 0.5)
    hexagon = [[3.0 * math.cos(a), 3.0 * math.sin(a)] for a in np.arange(6) * math.pi / 3.0]
    obj = dict(MDM_CIRCLE6, descriptor={"kind": "polygon", "vertices": hexagon})
    desc = CompactSetDescriptor.polygon(np.array(hexagon))
    return obj, _initial_network(desc, 1.0, 3)


class TestOnePassReport:
    @pytest.mark.parametrize("kind", ["circle", "stadium", "points", "polygon"])
    def test_report_matches_separate_calls(self, kind):
        # The report shares one closest-point pass between the coverage
        # verdict and the energetic points; each must read as if computed
        # alone.
        obj, net = _one_pass_case(kind)
        inst = parse_instance(json.dumps(obj).encode())
        report = _mdm_result(inst, net, DEFAULT_TOL, {}).report
        gate = _gate_samples(inst.descriptor, inst.r)
        cov = coverage_check(net, gate, inst.r, DEFAULT_TOL)
        ener = energetic_points(net, gate, inst.r, DEFAULT_TOL)
        assert report["covered"] is cov.covered
        assert report["max_defect"] == cov.max_defect
        expected = np.array([x for x, _ in ener.points]).reshape(-1, 2)
        assert len(expected) > 0
        assert np.array_equal(np.asarray(report["energetic"]).reshape(-1, 2), expected)


class TestRender:
    def _solved_square(self, tmp_path, capsys) -> str:
        inst = _write(tmp_path, "square.json", SQUARE)
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        return out

    def test_square_svg_counts(self, tmp_path, capsys):
        res = self._solved_square(tmp_path, capsys)
        svg_path = str(tmp_path / "fig.svg")
        assert cli_dispatch(["render", "--in", res, "--out", svg_path]) == EXIT_OK
        svg = open(svg_path).read()
        assert svg.count("<circle") == 6 and svg.count("<path") == 5

    def test_render_deterministic_bytes(self, tmp_path, capsys):
        res = self._solved_square(tmp_path, capsys)
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        cli_dispatch(["render", "--in", res, "--out", a])
        cli_dispatch(["render", "--in", res, "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_render_to_stdout(self, tmp_path, capsys):
        res = self._solved_square(tmp_path, capsys)
        assert cli_dispatch(["render", "--in", res]) == EXIT_OK
        assert capsys.readouterr().out.startswith("<?xml")

    @pytest.mark.parametrize(
        "problem,path,value,field",
        [
            ("mdm", ("report", "energetic"), 5, "report.energetic"),
            ("mdm", ("report", "energetic"), [[1]], "report.energetic[0]"),
            ("mdm", ("report", "energetic"), [[None, 1]], "report.energetic[0]"),
            ("mdm", ("report", "energetic"), [[1.0, 2.0], "x"], "report.energetic[1]"),
            ("steiner", ("tree", "topology"), 5, "tree.topology"),
            ("steiner", ("tree", "topology", "n_terminals"), True, "tree.topology.n_terminals"),
        ],
    )
    def test_malformed_result_exits_invalid(self, tmp_path, capsys, problem, path, value, field):
        if problem == "mdm":
            inst = _write(tmp_path, "pts.json", MDM_POINTS)
            res = str(tmp_path / "result.json")
            assert cli_dispatch(["mdm", "solve", "--in", inst, "--out", res]) == EXIT_OK
            capsys.readouterr()
        else:
            res = self._solved_square(tmp_path, capsys)
        obj = json.loads(open(res).read())
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = _write(tmp_path, "bad.json", obj)
        assert cli_dispatch(["render", "--in", bad, "--out", str(tmp_path / "fig.svg")]) == EXIT_INVALID
        assert f"field '{field}'" in _err_line(capsys)

    def test_3d_needs_projection_flag(self, tmp_path, capsys):
        inst = _write(tmp_path, "tetra.json", TETRA)
        out = str(tmp_path / "result.json")
        assert cli_dispatch(["steiner", "solve", "--in", inst, "--out", out]) == EXIT_OK
        capsys.readouterr()
        svg_path = str(tmp_path / "fig.svg")
        assert cli_dispatch(["render", "--in", out, "--out", svg_path]) == EXIT_INVALID
        assert "project" in _err_line(capsys)
        assert cli_dispatch(["render", "--in", out, "--out", svg_path, "--project"]) == EXIT_OK
        assert "orthographic projection" in open(svg_path).read()


DEGENERATE_TERMINALS = {
    "collinear": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.5, 1.75]],
    "duplicated": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.8], [1.0, 0.0]],
    "coplanar3d": [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.4, 0.3, 1.0]],
    "two": [[0.0, 0.0], [3.0, 4.0]],
}

# exp run builds its own points: two terminals, a coplanar 3-d ring, a
# three-point lattice clip, and a one-point row that must fail on its own.
DEGENERATE_ROWS = [
    {"generator": "random", "n": 2, "solver": "heuristic", "seed": 3},
    {"generator": "zigzag", "n": 2, "solver": "heuristic"},
    {"generator": "homothety", "n_gon": 6, "k_max": 0, "solver": "heuristic"},
    {"generator": "lattice", "n": 3, "solver": "heuristic"},
    {"generator": "random", "n": 1, "solver": "heuristic"},
]


def _run_cli(argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "minnet.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )


def _assert_documented_exit(proc):
    assert proc.returncode in (EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_UNCONVERGED), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode != EXIT_OK:
        lines = [l for l in proc.stderr.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("minnet: error: ")


class TestImportFootprint:
    def test_import_leaves_scipy_optimize_out(self):
        # scipy.optimize loads only inside the stadium competitor, so plain
        # imports stay quick and small.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, minnet, minnet.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestDegenerateInputs:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TERMINALS))
    @pytest.mark.parametrize("command", ["ratio", "solve"])
    def test_steiner_commands(self, tmp_path, name, command):
        terms = DEGENERATE_TERMINALS[name]
        inst = _write(tmp_path, "inst.json", {"dim": len(terms[0]), "problem": "steiner", "terminals": terms})
        _assert_documented_exit(_run_cli(["steiner", command, "--in", inst]))

    @pytest.mark.parametrize("size", [1e300, 1e-300])
    def test_solve_rejects_extent_out_of_float_range(self, tmp_path, size):
        # Three distinct points whose squared extent overflows or underflows.
        terms = [[0.0, 0.0], [size, 0.0], [0.0, size]]
        inst = _write(tmp_path, "inst.json", {"dim": 2, "problem": "steiner", "terminals": terms})
        proc = _run_cli(["steiner", "solve", "--in", inst])
        _assert_documented_exit(proc)
        assert proc.returncode == EXIT_INVALID

    def test_exp_run_heuristic_rows(self, tmp_path):
        rows = _write(tmp_path, "rows.json", DEGENERATE_ROWS)
        out = str(tmp_path / "runs.json")
        proc = _run_cli(["exp", "run", "--in", rows, "--out", out])
        _assert_documented_exit(proc)
        assert proc.returncode == EXIT_OK
        errors = [run["error"] for run in json.loads(open(out).read())]
        assert sum(bool(e) for e in errors) == 1
