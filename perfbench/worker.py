"""One benchmark process: import hlip, write the seeded inputs, run and check the ops.

Started by run.py in a fresh interpreter.  It prints "ready" on stdout
once its inputs are written (run.py times set-up up to that line), then
runs the ops and writes its result as JSON to --result.  With --setup-only
it stops after "ready"; with --spans it records spans into that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length; sets the op count from the workload's nominal op time")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path, help="trace: span file to write")
    ap.add_argument("--untraced-pass", action="store_true",
                    help="trace: time the ops once untraced first, for the tracing overhead")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--h", type=float, default=0.25, help="grid spacing of the baseline cloud")
    return ap.parse_args(argv)


def _run_ops(workload, inputs, tracer=None) -> list[dict]:
    """Time each op, then check it outside the timed region."""
    records = []
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = str(i)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out, error = workload.op(inp), ""
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        if tracer is not None:
            tracer.op = "check"
        ok, digest = False, ""
        if not error:
            try:
                ok, error, digest = workload.check(inp, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append(
            {"seed": inp["seed"], "s": elapsed, "cpu_s": cpu, "ok": ok, "error": error, "digest": digest}
        )
    return records


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "hlip" / "__init__.py").is_file():
        print(f"error: no hlip sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import hlip

    if Path(hlip.__file__).resolve().parent != (src / "hlip").resolve():
        print(f"error: imported hlip from {hlip.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload == "baseline":
        workload = workloads.Baseline(args.h)
    else:
        workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        n_ops = round(args.seconds / workload.nominal_op_s)
        if args.untraced_pass:
            n_ops //= 2  # the ops run twice, so a traced run lasts about as long as an untraced one
        n_ops = max(1, n_ops)
        inputs = workload.setup(workloads.op_seeds(args.seed, n_ops), workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        untraced = None
        if tracer is not None and args.untraced_pass:
            tracer.uninstall()
            untraced = _run_ops(workload, inputs)
            tracer.install()
        records = _run_ops(workload, inputs, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ops": records,
        "wall_s": sum(r["s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nodes": getattr(workload, "nodes", None),
        "env": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
    }
    if untraced is not None:
        result["untraced_ops"] = untraced
        result["untraced_wall_s"] = sum(r["s"] for r in untraced)
    if tracer is not None:
        tracer.write(args.spans)
    args.result.write_text(json.dumps(result, indent=1), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
