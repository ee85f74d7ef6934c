"""Warm in-process timings of the maximal functions' three hot calls.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/time_maximal.py \\
        [--rounds 7] [--workers N] [--against REV]

It times, each over --rounds warm repeats:

- `disk_lemma`: the 50 `disk_maximal` calls `check_disk_lemma` makes in
  `hlip verify --seed 0`, recorded from one such run;
- `truncate_disk`: `truncate`'s `disk_maximal` call on the h = 0.2
  baseline cloud (`corrupted_cluster_cloud(default_grid(2, 0.2), 0.02,
  eps=0.05, displacement=0.3)` with the default `PipelineConfig`);
- `ball_constants`: the battery's three `estimate_ball_constants` calls
  (the fields eps * y_1, eps = 1e-3, 1e-2, 1e-1, on its φ-lemma grid).

With --against, the package of revision REV (unpacked with `git archive`
into a temporary directory and imported under another name) runs in the
same process, and the two alternate call by call, which side goes first
flipping each round; so a drift in the machine's speed hits both alike.
--workers sets `core._WORKERS` on every side (default: as the package
picks it).  It prints one JSON line: per side and call the fastest and
the median seconds and a sha256 digest of the outputs, so equal digests
show the two sides agree bit for bit, and the change/against ratio of
the medians.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load(rev: str, tmp: str):
    """The hlip package of revision rev, imported as hlip_against."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/hlip"],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    pkg = Path(tmp) / "src" / "hlip"
    spec = importlib.util.spec_from_file_location(
        "hlip_against", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["hlip_against"] = mod
    spec.loader.exec_module(mod)
    return mod


def _recorded(run, module, name):
    """The (args, kwargs) of every call to module.name while run() runs."""
    calls, fn = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    setattr(module, name, record)
    try:
        run()
    finally:
        setattr(module, name, fn)
    return calls


def _cases(pkg) -> dict:
    """name -> a call without arguments that returns a list of arrays."""
    mods = ("approx", "cli", "generators", "graph", "maximal")
    approx, cli, generators, graph, maximal = (
        importlib.import_module(f"{pkg.__name__}.{m}") for m in mods
    )

    disk = []
    check_disk_lemma = maximal.check_disk_lemma

    def check(*args, **kwargs):
        out = []
        run = lambda: out.append(check_disk_lemma(*args, **kwargs))
        disk.extend(_recorded(run, maximal, "disk_maximal"))
        return out[0]

    maximal.check_disk_lemma = check
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--seed", "0"]) == 0
    finally:
        maximal.check_disk_lemma = check_disk_lemma

    spec = generators.default_grid(2, 0.2)
    cloud = generators.corrupted_cluster_cloud(spec, 0.02, eps=0.05, displacement=0.3)
    cfg = approx.PipelineConfig()
    phi = approx.lipschitz_approximation(cloud, spec, cfg).phi
    trunc = _recorded(lambda: approx.truncate(cloud, phi, cfg), maximal, "disk_maximal")

    vspec = graph.GridSpec.centered(2, 0.5, 0.1)
    fields = [
        graph.GridFunction.from_callable(vspec, lambda w, e=e: e * w[:, 1])
        for e in (1e-3, 1e-2, 1e-1)
    ]
    return {
        "disk_lemma": lambda: [maximal.disk_maximal(*a, **kw) for a, kw in disk],
        "truncate_disk": lambda: [maximal.disk_maximal(*a, **kw) for a, kw in trunc],
        "ball_constants": lambda: [maximal.estimate_ball_constants(f) for f in fields],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--against", default=None, help="a revision to alternate with")
    args = parser.parse_args(argv)
    import hlip

    with tempfile.TemporaryDirectory() as tmp:
        pkgs = {"change": hlip}
        if args.against is not None:
            pkgs["against"] = _load(args.against, tmp)
        cases = {side: _cases(pkg) for side, pkg in pkgs.items()}
        if args.workers is not None:
            for pkg in pkgs.values():
                importlib.import_module(f"{pkg.__name__}.core")._WORKERS = args.workers
        times = {side: {name: [] for name in cases[side]} for side in pkgs}
        digests = {side: {} for side in pkgs}
        for r in range(args.rounds):
            for name in cases["change"]:
                for side in list(pkgs)[:: 1 if r % 2 == 0 else -1]:
                    start = time.perf_counter()
                    out = cases[side][name]()
                    times[side][name].append(time.perf_counter() - start)
                    digest = hashlib.sha256(b"".join(np.asarray(v, dtype=float).tobytes() for v in out))
                    digests[side][name] = digest.hexdigest()[:16]
    line = {"rounds": args.rounds, "workers": args.workers}
    for side in pkgs:
        line[side] = {
            name: {"min_s": min(ts), "median_s": statistics.median(ts), "digest": digests[side][name]}
            for name, ts in times[side].items()
        }
    if "against" in pkgs:
        line["against_rev"] = args.against
        line["median_ratio"] = {
            name: line["change"][name]["median_s"] / line["against"][name]["median_s"]
            for name in cases["change"]
        }
        line["bitwise_equal"] = digests["change"] == digests["against"]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
