"""hlip benchmark: run one workload in fresh single-threaded processes and print its metrics.

    python3 perfbench/run.py --workload pipeline_cluster --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --baseline [--h 0.25]

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json (wall_s, setup_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics from a span-recording run.  --baseline is a one-off
traced run of the ROADMAP baseline cloud that prints the baseline table's
stage columns from its span file.  Run records and span files go to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import baseline_table, expectation_errors, layer_metrics
from tracer import read_spans
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; setup_s is their median
DEADLINE_S = 175.0  # a run must end within 180 s
BASELINE_DEADLINE_S = 1800.0

SINGLE_THREAD = dict.fromkeys(THREAD_VARS, "1")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return the seconds from spawn to its "ready" line, and the process."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not become ready (exit code {proc.returncode})")
    return setup_s, proc


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path.name}")
    return json.loads(path.read_text(encoding="ascii"))


def _metrics_as_declared(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with the unit BENCHMARK.json gives it."""
    got, want = set(values), {m["name"] for m in declared}
    if got != want:
        raise BenchError(f"metric set differs from BENCHMARK.json: {sorted(got ^ want)}")
    out = {}
    for m in declared:
        v = values[m["name"]]
        if v["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {v['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up samples, the measured worker, checks; returns the result line."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    result_path, spans_path = OUT / f"{tag}.result.json", OUT / f"{tag}.spans.csv"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(OUT)]
    setup_samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, proc = _spawn([*base, "--setup-only"], deadline)
            _finish(proc, deadline)
            setup_samples.append(setup_s)
    extra = ["--spans", str(spans_path), "--untraced-pass"] if trace else []
    setup_s, proc = _spawn([*base, "--result", str(result_path), *extra], deadline)
    setup_samples.append(setup_s)
    _finish(proc, deadline)
    res = json.loads(result_path.read_text(encoding="ascii"))

    ops = res["ops"]
    failed = sum(not r["ok"] for r in ops)
    errors = [f"op {i}: {r['error']}" for i, r in enumerate(ops) if not r["ok"]]
    if trace:
        spans = read_spans(spans_path)
        values = layer_metrics(spans, res["wall_s"] - res["untraced_wall_s"])
        errors += expectation_errors(name, spans, values)
        untraced_digests = [r["digest"] for r in res["untraced_ops"]]
        if untraced_digests != [r["digest"] for r in ops]:
            errors.append("tracing changed the op outputs (digests differ)")
        metrics = _metrics_as_declared(values, spec["per_layer"])
    else:
        values = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        metrics = _metrics_as_declared(values, spec["end_to_end"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": res["env"], "setup_samples_s": setup_samples, "ops": ops,
        "failed_frac": failed / len(ops), "errors": errors, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    result_path.unlink()
    return {
        "record": record,
        "line": {"correct": not errors, "attempted": len(ops), "failed": failed, "metrics": metrics},
    }


def _print_run(run: dict) -> None:
    rec = run["record"]
    print(f"env {json.dumps(rec['env'], sort_keys=True)}")
    for i, op in enumerate(rec["ops"]):
        state = "ok  " if op["ok"] else "FAIL"
        print(f"op {i} seed {op['seed']} {state} {op['s']:.3f} s digest {op['digest']} {op['error']}")
    for err in rec["errors"]:
        print(f"error: {err}")
    print(f"{rec['workload']}: ops {len(rec['ops'])}  failed_frac {rec['failed_frac']:.4g} (ratio)")
    if not rec["trace"]:
        for name, m in rec["metrics"].items():
            print(f"{rec['workload']}: {name} {m['value']:.6g} ({m['unit']})")


def _baseline(h: float) -> int:
    deadline = time.monotonic() + BASELINE_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    spans_path, result_path = OUT / f"baseline-h{h:g}.spans.csv", OUT / f"baseline-h{h:g}.result.json"
    args = ["--workload", "baseline", "--seed", "0", "--seconds", "1", "--h", str(h),
            "--workdir", str(OUT), "--result", str(result_path), "--spans", str(spans_path)]
    _, proc = _spawn(args, deadline)
    _finish(proc, deadline)
    res = json.loads(result_path.read_text(encoding="ascii"))
    spans = read_spans(spans_path)
    errors = [r["error"] for r in res["ops"] if not r["ok"]]
    errors += expectation_errors("baseline", spans, layer_metrics(spans, 0.0))
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    print(f"peak_rss_mb {res['peak_rss_mb']:.1f}  digest {res['ops'][0]['digest']}")
    print(f"span file {spans_path.relative_to(ROOT)}")
    print(baseline_table(spans, h, res["nodes"]))
    for err in errors:
        print(f"error: {err}")
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="one-off traced ROADMAP baseline run")
    ap.add_argument("--h", type=float, default=0.25, help="grid spacing of the baseline cloud")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "hlip" / "__init__.py").is_file():
            raise BenchError(f"no hlip sources under {ROOT / 'src'}")
        spec = _load_spec()
        if args.baseline:
            return _baseline(args.h)
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
        runs = [run_workload(spec, n, args.seed, args.seconds, bool(args.trace)) for n in chosen]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        _print_run(run)
    if len(runs) == 1:
        print(json.dumps(runs[0]["line"]))
    else:
        print(json.dumps({run["record"]["workload"]: run["line"] for run in runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
