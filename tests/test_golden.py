"""Golden reports: `hlip approx` and `hlip truncate` results pinned per cloud.

Each tests/golden/<kind>.json holds the `results` blocks of

    hlip gen <kind> --h 0.5 --seed 7 [params] --out d
    hlip approx d/<kind>.cloud --seed 7 --out d
    hlip truncate d/<kind>.cloud --seed 7 --out d

under the keys "approx" and "truncate".  At h = 0.5 these clouds give a
zero symmetric difference and keep the whole disk, so each
tests/golden/cut-<name>.json pins the same two blocks on the h = 0.3 grid,
plus `corollary_report`, the selected index set and the nearest-sample
distance of every kept cell.  There the truncation cut fires for the
clusters displaced by 0.3, and the symmetric difference is nonzero for the
cluster displaced by 1.0 (off-graph cloud mass) and the patch of radius 0.9
(uncovered graph mass, coincidence residual above tau).  Each
tests/golden/verify-seed-<S>.json holds the `results` block of

    hlip verify --seed S --cases 5 --balls 10

the lemma battery (the c_L estimate behind the phi lemma, the sandwich
inclusions, the Vitali cover).  A refactor must leave them as they are:
floats agree to 1e-12 relative, everything else is equal.

tests/golden/baseline-h0.2.json pins `corollary_report` bit for bit on
the baseline cloud, corrupted_cluster_cloud(default_grid(2, 0.2), 0.02,
eps=0.05, displacement=0.3) under the default PipelineConfig: its report
hash, and a sha256 of the bits of each intermediate array in pipeline
order.  At h = 0.2 the searches that prune all-pairs passes (selection,
the nearest-sample distances, the disk maximal function's columns) drop
most of their pairs, which the h = 0.3 grid is too narrow to show.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import numpy as np

from hlip import approx, fileio, generators, maximal
from hlip.cli import main

GOLDEN = Path(__file__).parent / "golden"

CLOUDS = {
    "flat": [],
    "linear": ["--eps", "0.05"],
    "corrupted-cluster": ["--mass", "0.02", "--eps", "0.05", "--displacement", "0.3"],
}

CUT_CLOUDS = {
    "cluster-0.02": ["corrupted-cluster", "--mass", "0.02", "--eps", "0.05", "--displacement", "0.3"],
    "cluster-0.05": ["corrupted-cluster", "--mass", "0.05", "--eps", "0.05", "--displacement", "0.3"],
    "cluster-0.02-far": ["corrupted-cluster", "--mass", "0.02", "--eps", "0.05", "--displacement", "1.0"],
    "deleted-patch": ["deleted-patch", "--eps", "0.05", "--radius", "0.4"],
    "deleted-patch-0.9": ["deleted-patch", "--eps", "0.05", "--radius", "0.9"],
}


def _mismatches(want, got, path="results"):
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=1e-12) else [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(want, got))
        return [m for i, (a, b) in pairs for m in _mismatches(a, b, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("kind", sorted(CLOUDS))
def test_golden_reports(tmp_path, kind):
    golden = json.loads((GOLDEN / f"{kind}.json").read_text(encoding="ascii"))
    argv = ["--seed", "7", "--out", str(tmp_path)]
    assert main(["gen", kind, "--h", "0.5", *CLOUDS[kind], *argv]) == 0
    for cmd in ("approx", "truncate"):
        assert main([cmd, str(tmp_path / f"{kind}.cloud"), *argv]) == 0
        got = fileio.read_report(tmp_path / f"{cmd}_report.json")["results"]
        assert _mismatches(golden[cmd], got, cmd) == []


def cut_record(workdir, name):
    """The pinned blocks of tests/golden/cut-<name>.json, computed afresh."""
    kind = CUT_CLOUDS[name][0]
    argv = ["--seed", "7", "--out", str(workdir)]
    assert main(["gen", *CUT_CLOUDS[name], "--h", "0.3", *argv]) == 0
    path = workdir / f"{kind}.cloud"
    record = {}
    for cmd in ("approx", "truncate"):
        assert main([cmd, str(path), *argv]) == 0
        record[cmd] = fileio.read_report(workdir / f"{cmd}_report.json")["results"]
    cloud = fileio.read_cloud(path)
    g = cloud.meta["grid"]
    spec = approx.GridSpec(g["n"], tuple(g["origin"]), g["h"], tuple(g["counts"]))
    cfg = approx.PipelineConfig(seed=7)
    res = approx.lipschitz_approximation(cloud, spec, cfg)
    kept = approx.truncate(cloud, res.phi, cfg).k_mask
    record["corollary"] = approx.corollary_report(cloud, spec, cfg)
    record["m0"] = res.m0.tolist()
    record["kept_cell_min_dist"] = res.symdiff.cell_min_dist[kept].tolist()
    record["kept_cells"] = np.flatnonzero(kept).tolist()
    # the JSON round trip gives plain floats and ints, as the golden file holds
    return json.loads(json.dumps(record))


@pytest.mark.parametrize("seed", [0, 5])
def test_golden_verify_reports(tmp_path, seed):
    golden = json.loads((GOLDEN / f"verify-seed-{seed}.json").read_text(encoding="ascii"))
    argv = ["verify", "--seed", str(seed), "--cases", "5", "--balls", "10", "--out", str(tmp_path)]
    assert main(argv) == 0
    got = fileio.read_report(tmp_path / "verify_report.json")["results"]
    assert _mismatches(golden, got, "verify") == []


@pytest.mark.parametrize("name", sorted(CUT_CLOUDS))
def test_golden_cut_reports(tmp_path, name):
    golden = json.loads((GOLDEN / f"cut-{name}.json").read_text(encoding="ascii"))
    assert _mismatches(golden, cut_record(tmp_path, name), name) == []


def _bits(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def baseline_record() -> dict:
    """The record of tests/golden/baseline-h0.2.json, computed afresh from
    one `corollary_report` call whose stages are wrapped to hash what they
    return."""
    spec = generators.default_grid(2, 0.2)
    cloud = generators.corrupted_cluster_cloud(spec, 0.02, eps=0.05, displacement=0.3)
    stages = []

    def record(module, name, labels, bits):
        """Wrap module.name to hash each call's result under the next label."""
        fn, calls = getattr(module, name), iter(labels)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stages.append([next(calls, name), bits(out, *args, **kwargs)])
            return out

        mp.setattr(module, name, wrapped)

    def above(fld, *args, _exact_above, **kwargs):
        keep = np.flatnonzero(fld > _exact_above)
        return _bits(keep.astype(np.int64)) + _bits(fld[keep])

    with pytest.MonkeyPatch.context() as mp:
        record(approx, "select_m0", ["m0"], lambda m0, *a: _bits(m0.astype(np.int64)))
        record(approx, "_extend", ["phi", "refit"], lambda out, *a: _bits(out[0].flat))
        record(approx, "sym_diff_measure", ["cell_min_dist", "refit_cell_min_dist"],
               lambda rep, *a, **k: _bits(rep.cell_min_dist))
        record(maximal, "disk_maximal", ["disk_maximal_above_eta"], above)
        record(approx, "truncate", ["k_mask"], lambda res, *a: _bits(res.k_mask))
        report = approx.corollary_report(cloud, spec, approx.PipelineConfig())
    return {
        "digest": fileio.report_hash(report),
        "m0_count": report["m0_count"],
        "kept_cells": report["kept_cells"],
        "extension_iterations": report["extension_iterations"],
        "stages": stages,
    }


def test_golden_baseline_h02_is_bit_for_bit():
    golden = json.loads((GOLDEN / "baseline-h0.2.json").read_text(encoding="ascii"))
    got = baseline_record()
    # the first stage that moved names where the bits changed
    for want, have in zip(golden["stages"], got["stages"]):
        assert have == want, f"stage {want[0]} moved"
    assert _mismatches(golden, got, "baseline") == []
