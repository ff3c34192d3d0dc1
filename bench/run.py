"""minnet benchmark: one workload per process, one op at a time, closed loop.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

A run sets the workload up SETUP_REPEATS times, then repeats its round of
ops until ``--seconds`` have passed (at least one round), checking every
op's output with the benchmark's own code.  Times are wall times converted
to seconds at a fixed reference host speed by ``hostspeed.SpeedProbe``,
which samples the host's speed all through the run; the raw wall times are
in the info line.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The line
before it records the machine, versions, seed and every op's outcome.

With ``--trace 1`` the run measures one untraced and one traced round on
the same inputs, then builds and runs the workload's known-defect probes
once.  minnet is imported from ``src/`` next to this directory; without it
the run exits 1 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "solve_s": "s",
    "op_p50_s": "s",
    "length_ratio": "1",
    "pass_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_minnet():
    """minnet from this checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import minnet
        import minnet.cli  # noqa: F401  (the CLI ops call minnet.cli.cli_dispatch)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import minnet from {src}: {exc}") from None
    if not Path(minnet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: minnet resolved to {minnet.__file__}, not {src}")
    return minnet


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_round(ops, round_no: int, tracer=None) -> list[dict]:
    """Run each op once, timing only the call, then check its output."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = f"{round_no}:{op.name}"
        t0 = time.perf_counter()
        try:
            out = op.run()
            failed = None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out, failed = None, f"raised:{type(exc).__name__}"
        t1 = time.perf_counter()
        ratio = None
        if failed is None:
            try:
                failed, ratio = op.check(out)
            except Exception as exc:  # malformed output counts against the op
                failed = f"check_raised:{type(exc).__name__}"
        results.append(
            {"op": op.name, "round": round_no, "t0": t0, "t1": t1, "wall_s": t1 - t0, "failed": failed, "ratio": ratio}
        )
    return results


def run_rounds(ops, seconds: float) -> list[list[dict]]:
    """One round, then more while the next one, if it takes as long as the
    last, still ends within ``seconds``."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(run_round(ops, len(rounds)))
        now = time.perf_counter()
        if (now - t0) + (now - start) > seconds:
            return rounds


def at_ref_speed(rounds, speed) -> None:
    """Give every op its time at the reference speed, ``s``.  Run after the
    rounds, so that short ops can borrow the samples taken after them."""
    for r in (r for rnd in rounds for r in rnd):
        r["s"] = speed.ref_seconds(r["t0"], r["t1"])


def round_seconds(rounds, key: str = "s") -> float:
    return statistics.median(sum(r[key] for r in rnd) for rnd in rounds)


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    flat = [r for rnd in rounds for r in rnd]
    ratios = [r["ratio"] for r in flat if r["failed"] is None and r["ratio"] is not None]
    passed = sum(r["failed"] is None for r in flat)
    return {
        "solve_s": round_seconds(rounds),
        "op_p50_s": statistics.median(r["s"] for r in flat),
        "length_ratio": math.exp(statistics.fmean(math.log(x) for x in ratios)) if ratios else 0.0,
        "pass_frac": passed / len(flat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def op_summary(rounds) -> list[dict]:
    by_op: dict[str, list[dict]] = {}
    for r in (r for rnd in rounds for r in rnd):
        by_op.setdefault(r["op"], []).append(r)
    return [
        {
            "op": name,
            "median_s": statistics.median(r["s"] for r in rs),
            "median_wall_s": statistics.median(r["wall_s"] for r in rs),
            "ratio": rs[-1]["ratio"],
            "failed": sorted({r["failed"] for r in rs if r["failed"]}),
        }
        for name, rs in by_op.items()
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    # One caller and no extra threads: BLAS pools run single-threaded unless
    # the caller's environment says otherwise.
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    import hostspeed

    speed = hostspeed.SpeedProbe()
    speed.start()
    try:
        return measure(args, speed)
    finally:
        speed.stop()


def measure(args, speed) -> int:
    mn = import_minnet()
    import numpy as np
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    t_imported = time.perf_counter()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        # Set-up is measured SETUP_REPEATS times on the same seed; the last
        # set-up's inputs are the ones the run measures.
        spans = [(T_START, t_imported)]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](mn, args.seed, workdir)
            wl.warmup()
            spans.append((t0, time.perf_counter()))
        import_s, *setups = (speed.ref_seconds(t0, t1) for t0, t1 in spans)
        setup_s = import_s + statistics.median(setups)

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "import_s": import_s,
            "setup_repeats_s": setups,
            "wall_setup_s": (t_imported - T_START) + statistics.median(t1 - t0 for t0, t1 in spans[1:]),
        }

        if args.trace == 0:
            rounds = run_rounds(wl.ops, args.seconds)
            at_ref_speed(rounds, speed)
            metrics = end_to_end(rounds, setup_s)
            units = END_TO_END
        else:
            # One untraced and one traced round on the same inputs, so every
            # per-layer count is per round whatever the speed of the code.
            rounds = [run_round(wl.ops, 0)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = [run_round(wl.ops, 1, tracer)]
            finally:
                tracer.uninstall()
            probes = run_round(wl.probes(), 0)
            at_ref_speed(rounds + traced, speed)
            metrics = tracer.metrics()
            # Wall time, so that it compares with the spans.
            metrics["trace.solve_s"] = round_seconds(traced, "wall_s")
            metrics["trace.overhead_s"] = round_seconds(traced) - round_seconds(rounds)
            metrics["trace.span_cost_s"] = metrics["trace.spans"] * tracing.span_cost_s()
            metrics["ops.count"] = sum(len(rnd) for rnd in rounds + traced)
            metrics["probes.failed"] = sum(p["failed"] is not None for p in probes)
            info["untraced_wall_s"] = round_seconds(rounds, "wall_s")
            info["probes"] = [{k: p[k] for k in ("op", "wall_s", "failed")} for p in probes]
            info["spans_by_op"] = tracer.by_op()
            rounds = rounds + traced
            units = tracing.per_layer_metrics()

        flat = [r for rnd in rounds for r in rnd]
        failed = sum(r["failed"] is not None for r in flat)
        info.update(
            wall_solve_s=round_seconds(rounds, "wall_s"),
            host_speed=speed.summary(),
            rounds=len(rounds),
            ops_per_round=len(wl.ops),
            op_count=len(flat),
            ops=op_summary(rounds),
        )
        print(json.dumps({"info": info}))
        result = {
            "correct": failed == 0,
            "attempted": len(flat),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
