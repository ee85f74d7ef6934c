"""Alternating parent/change benchmark pairs, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --label NAME \\
        [--workloads W[@SEED] ...] [--pairs 10] [--seconds 30]

Each revision's committed files are unpacked with `git archive` into a
temporary directory of their own, and every run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
there.  The two sides alternate which goes first from pair to pair.
`W@SEED` runs workload W at another seed (a held-out seed); plain `W`
uses seed 0, and no --workloads means every workload of BENCHMARK.json.

BENCH_<label>.json, written at the repository root, holds both
revisions, each side's src line count (`wc -l src/hlip/*.py`), the
machine, per workload a two-process throughput reading
taken just before its first pair (about 2 when two cores are free),
every run's end-to-end metrics and per-op digests, and per metric each
side's median and quartiles, the parent's interquartile range, the
change's wins and the pair ratios.  A metric whose medians differ by no
more than that range is unresolved.  Each metric also gets two verdicts
(every end-to-end metric of BENCHMARK.json is better lower): `gain`, when
at least ten pairs ran, the change's median is lower, resolved, and lower
in at least nine tenths of the pairs (ties count for neither side); and
`worse_than_bound`, when the change's median exceeds the parent's by more
than the metric's BENCHMARK.json `bound`, read as a fraction of the
parent's median (the 25% of wall_s).  The script exits 1 when a run
reports `correct: false`, when an op failed, when run.py itself failed,
or when the per-op digests differ between runs; the file is written
anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# a CPU-bound loop: sha256 over argv[1] blocks of 64 KiB; 16,384 blocks
# (1 GiB) take about one second on a 2-core Intel Xeon box
_SPIN = ("import hashlib, sys\nh, b = hashlib.sha256(), bytes(1 << 16)\n"
         "for _ in range(int(sys.argv[1])): h.update(b)")
_SPIN_BLOCKS = 1 << 14


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(sha: str, dest: Path) -> None:
    """The committed files of one revision, as the benchmark builds from them."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(checkout: Path) -> int:
    """`wc -l src/hlip/*.py` of one checkout: the newlines of its modules."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "hlip").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` run: its result line, per-op digests and worker env."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="ascii"))
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "digests": [op["digest"][:16] for op in record["ops"]],
        "errors": record["errors"],
        "env": record["env"],
    }


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def bounds() -> dict:
    """{metric: bound} of the end-to-end metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(pairs: list[dict], bound: dict | None = None) -> dict:
    """The section of one workload: summary per metric, verdicts and runs.

    Each pair is {"first": side, "parent": run, "change": run} with runs
    as run_once returns them; `bound` maps a metric to its bound (a
    metric without one has worse_than_bound None).
    """
    bound = bound or {}
    runs = [pair[side] for pair in pairs for side in SIDES]
    ok = [r for r in runs if "error" not in r]
    section = {
        "summary": {},
        "digests_equal": len({tuple(r["digests"]) for r in ok}) == 1 and len(ok) == len(runs),
        "all_correct_no_failed_ops": len(ok) == len(runs)
        and all(r["correct"] and r["failed"] == 0 for r in ok),
        "attempted_per_run": sorted({r["attempted"] for r in ok}),
        "per_op_digests_16": sorted({tuple(r["digests"]) for r in ok}),
        "errors": sorted({e for r in runs for e in r.get("errors", [r.get("error")]) if e}),
        "runs": [
            {"first": p["first"], **{s: p[s].get("metrics", p[s]) for s in SIDES}} for p in pairs
        ],
    }
    whole = [p for p in pairs if all("error" not in p[s] for s in SIDES)]
    for name in whole[0]["parent"]["metrics"] if whole else ():
        vals = {s: [p[s]["metrics"][name] for p in whole] for s in SIDES}
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"])]
        side = {s: _quartiles(vals[s]) for s in SIDES}
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        parent, change = side["parent"]["median"], side["change"]["median"]
        # a shift of the median within the parent's own spread tells nothing
        resolved = abs(change - parent) > iqr
        lower = sum(r < 1.0 for r in ratios)
        section["summary"][name] = {
            **side,
            "parent_iqr": round(iqr, 4),
            "resolved": resolved,
            "median_ratio": round(change / parent, 4),
            "change_lower_in_pairs": lower,
            "change_higher_in_pairs": sum(r > 1.0 for r in ratios),
            "pairs": len(ratios),
            "pair_ratios": [round(r, 4) for r in ratios],
            "gain": (change < parent and resolved
                     and len(ratios) >= 10 and 10 * lower >= 9 * len(ratios)),
            "worse_than_bound": (
                change > parent * (1.0 + bound[name]) if name in bound else None
            ),
        }
    return section


def verdict_line(key: str, name: str, m: dict) -> str:
    """One metric's printed verdict, from its summary entry."""
    line = (f"{key}: {name} change/parent median {m['median_ratio']}, "
            f"lower in {m['change_lower_in_pairs']} of {m['pairs']} pairs")
    if not m["resolved"]:
        line += f"; unresolved: the medians differ by no more than the parent IQR {m['parent_iqr']}"
    return line


def gain_line(key: str, name: str, m: dict) -> str:
    """One metric's printed gain and bound verdicts, from its summary entry."""
    yes = {True: "yes", False: "no", None: "no bound"}
    return f"{key}: {name} gain {yes[m['gain']]}, worse than its bound {yes[m['worse_than_bound']]}"


def _spin_s(procs: int, blocks: int) -> float:
    """Wall time of `procs` processes that each run _SPIN over `blocks` blocks at once."""
    start = time.perf_counter()
    running = [subprocess.Popen([sys.executable, "-c", _SPIN, str(blocks)]) for _ in range(procs)]
    if any([p.wait() for p in running]):
        raise RuntimeError("the CPU-bound loop failed")
    return time.perf_counter() - start


def two_process_throughput(blocks: int = _SPIN_BLOCKS) -> float:
    """Throughput of two processes over one: the wall time of _SPIN over
    `blocks` blocks in one process, divided by that of the same blocks split
    over two.  About 2 when two cores are free, about 1 on one core."""
    return _spin_s(1, blocks) / _spin_s(2, blocks // 2)


def _machine(env: dict | None) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cpu": cpu, "cpus": os.cpu_count(), "affinity_cpus": affinity,
            "python": platform.python_version(), "os": platform.system(),
            "env_reported_by_worker": env}


def run_workload(
    dirs: dict, key: str, pairs: int, seconds: float, bound: dict | None = None
) -> tuple[dict, list[dict]]:
    """One workload's section and its pairs.  The two-process throughput
    is read just before the first pair, so it says whether two cores were
    free next to these runs; the pairs alternate which side goes first."""
    workload, _, seed = key.partition("@")
    seed = int(seed or 0)
    throughput = round(two_process_throughput(), 3)
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for s in order:
            pair[s] = run_once(dirs[s], workload, seed, seconds)
        runs.append(pair)
        print(f"{key} pair {i + 1}/{pairs}: "
              + "  ".join(f"{s} {pair[s].get('metrics', pair[s])}" for s in SIDES), flush=True)
    return {"seed": seed, "two_process_throughput": throughput, **summarize(runs, bound)}, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", required=True, help="revision of the change side")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="*", help="W or W@SEED; every workload by default")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    shas = {s: _git("rev-parse", "--verify", f"{getattr(args, s)}^{{commit}}") for s in SIDES}
    names = args.workloads or [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    out = {
        "label": args.label,
        "revisions": shas,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
        "--trace 0, each side in its own directory unpacked with git archive; "
        "the pairs alternate which side runs first",
        "src_lines": None,
        "machine": None,
        "workloads": {},
    }
    bad = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            _unpack(shas[s], dirs[s])
        out["src_lines"] = {s: src_lines(dirs[s]) for s in SIDES}
        for key in names:
            section, pairs = run_workload(dirs, key, args.pairs, args.seconds, bounds())
            out["workloads"][key] = section
            if out["machine"] is None:
                out["machine"] = _machine(next((p[s]["env"] for p in pairs for s in SIDES
                                                if "env" in p[s]), None))
            if not (section["all_correct_no_failed_ops"] and section["digests_equal"]):
                bad.append(key)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    for key, section in out["workloads"].items():
        for name, m in section["summary"].items():
            print(verdict_line(key, name, m))
            print(gain_line(key, name, m))
    verdict = f"FAILED: {', '.join(bad)}" if bad else "all runs correct, digests equal"
    print(f"wrote {path.name}; {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
