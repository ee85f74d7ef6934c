"""Golden reports: `hlip approx` and `hlip truncate` results pinned per cloud.

Each tests/golden/<kind>.json holds the `results` blocks of

    hlip gen <kind> --h 0.5 --seed 7 [params] --out d
    hlip approx d/<kind>.cloud --seed 7 --out d
    hlip truncate d/<kind>.cloud --seed 7 --out d

under the keys "approx" and "truncate".  A refactor must leave them as they
are: floats agree to 1e-12 relative, everything else is equal.
"""

import json
import math
from pathlib import Path

import pytest

from hlip import fileio
from hlip.cli import main

GOLDEN = Path(__file__).parent / "golden"

CLOUDS = {
    "flat": [],
    "linear": ["--eps", "0.05"],
    "corrupted-cluster": ["--mass", "0.02", "--eps", "0.05", "--displacement", "0.3"],
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
