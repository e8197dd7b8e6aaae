"""One benchmark process: set up, signal READY, run passes, write the result.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread
and ``src`` on ``PYTHONPATH``.  The parent times set-up from process start to
the ``READY`` line on stdout; everything else goes to the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import peachsim

    if not Path(peachsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"peachsim imported from {peachsim.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Context, crossover_table, step_times

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())["tables"]
        ctx = Context(args.workload, args.seed, outdir, reference)
        workload.setup(ctx)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            tracer.install(peachsim)
            ctx.tracer = tracer
            tracer.enabled = True
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(workload.run_pass(ctx, len(passes)))
        if tracer is not None:
            tracer.enabled = False

        fastest, per_pass = step_times(passes, min)
        medians, _ = step_times(passes, statistics.median)
        result = {
            "run_s": sum(fastest[key] * per_pass[key] for key in fastest),
            "run_s_median_steps": sum(medians[key] * per_pass[key] for key in medians),
            "points": workload.points(fastest),
            "pass_wall_s": [sum(seconds for _, seconds in p.steps) for p in passes],
            "step_fastest": fastest,
            "step_medians": medians,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "failures": [f for p in passes for f in p.failures],
            "info": [p.info for p in passes],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if args.workload == "stream-epoch":
            result["crossover"] = crossover_table(fastest)
        if tracer is not None:
            from tracer import summarize

            result["layers"] = summarize(tracer, len(passes))
            traces = scratch / "traces"
            traces.mkdir(exist_ok=True)
            trace_path = traces / f"{tracer.run_id}.json"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        with open(args.result, "w") as handle:
            json.dump(result, handle)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
