"""The benchmark workloads: seeded inputs, one unit of user work, its check.

Each workload turns the run seed into per-op seeds, writes its inputs in
`setup`, runs one op per input in `op` and judges the op's output in
`check`, which returns (passed, reason, digest).  The digest is
`fileio.report_hash` of the op's report, so two sets of runs can be
compared for identical outputs.  hlip receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from hlip import approx, cli, fileio, generators, optimize
from hlip.graph import GridSpec


def op_seeds(seed: int, n_ops: int) -> list[int]:
    """Independent 63-bit seeds for the ops of one run."""
    seq = np.random.SeedSequence(seed)
    return [int(s.generate_state(2, np.uint64)[0] >> np.uint64(1)) for s in seq.spawn(n_ops)]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _printed_hash(text: str) -> str | None:
    for line in reversed(text.splitlines()):
        if line.startswith("report hash "):
            return line.split()[-1]
    return None


def _spec_from_meta(meta: dict) -> GridSpec:
    g = meta["grid"]
    return GridSpec(int(g["n"]), tuple(g["origin"]), float(g["h"]), tuple(g["counts"]))


class PipelineCluster:
    """read_cloud + corollary_report on a seeded corrupted-cluster cloud."""

    name = "pipeline_cluster"
    nominal_op_s = 9.0
    h = 0.3
    displacement = 0.3

    def setup(self, seeds: list[int], workdir: Path) -> list[dict]:
        spec = generators.default_grid(2, self.h)
        inputs = []
        for i, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            # centre inside the unit disk of W, so the cluster lands in the analysed region
            centre = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.25, 0.25, 1)])
            mass = float(rng.uniform(0.01, 0.03))
            eps = float(rng.uniform(0.03, 0.07))
            cloud = generators.corrupted_cluster_cloud(
                spec, mass, eps=eps, center=tuple(centre), displacement=self.displacement, seed=s
            )
            path = workdir / f"op{i}.cloud"
            fileio.write_cloud(path, cloud)
            inputs.append({"seed": s, "path": path})
        return inputs

    def op(self, inp: dict):
        cloud = fileio.read_cloud(inp["path"])
        return approx.corollary_report(cloud, _spec_from_meta(cloud.meta))

    def check(self, inp: dict, report: dict) -> tuple[bool, str, str]:
        digest = fileio.report_hash(report)
        if report["degenerate"]:
            return False, "degenerate report", digest
        spec = _spec_from_meta(fileio.read_cloud(inp["path"]).meta)
        tau = approx.PipelineConfig().resolved_tau(spec)
        numbers = [report["excess_outer"], report["coincidence_residual"]]
        for q in report["quantities"].values():
            numbers += [q["value"], q["ratio"]]
        if not all(math.isfinite(v) for v in numbers):
            return False, "non-finite quantity", digest
        lip = report["quantities"]["lip_graph"]["value"]
        if lip > 1.0:
            return False, f"lip_graph {lip:.6g} > 1", digest
        if report["coincidence_residual"] > tau:
            return False, f"coincidence residual {report['coincidence_residual']:.6g} > tau", digest
        return True, "", digest


class LemmaBattery:
    """`hlip verify --seed S` at its default suite sizes, in process."""

    name = "lemma_battery"
    nominal_op_s = 33.0

    def setup(self, seeds: list[int], workdir: Path) -> list[dict]:
        return [{"seed": s, "argv": ["verify", "--seed", str(s)]} for s in seeds]

    def op(self, inp: dict):
        return _run_cli(inp["argv"])

    def check(self, inp: dict, out) -> tuple[bool, str, str]:
        code, text = out
        digest = _printed_hash(text) or ""
        rows = [ln.split()[:2] for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        if code != 0:
            return False, f"exit code {code}", digest
        if not digest:
            return False, "no report hash printed", digest
        if not rows or any(tag != "PASS" for tag, _ in rows):
            failed = [check for tag, check in rows if tag != "PASS"]
            return False, f"check rows failed: {failed or 'none printed'}", digest
        return True, "", digest


class MinimizeH01:
    """`hlip minimize --h 0.1 --height 0.4 --noise 0.05 --seed S --out DIR` in process."""

    name = "minimize_h01"
    nominal_op_s = 6.5
    height = 0.4

    def setup(self, seeds: list[int], workdir: Path) -> list[dict]:
        inputs = []
        for i, s in enumerate(seeds):
            out = workdir / f"op{i}"
            out.mkdir()
            argv = ["minimize", "--h", "0.1", "--height", str(self.height), "--noise", "0.05"]
            inputs.append({"seed": s, "out": out, "argv": argv + ["--seed", str(s), "--out", str(out)]})
        return inputs

    def op(self, inp: dict):
        return _run_cli(inp["argv"])

    def check(self, inp: dict, out) -> tuple[bool, str, str]:
        code, text = out
        digest = _printed_hash(text) or ""
        if code != 0:
            return False, f"exit code {code}", digest
        report = fileio.read_report(inp["out"] / "minimize_report.json")
        if report.get("hash") != digest or fileio.report_hash(report) != digest:
            return False, "written report does not match its hash", digest
        res = report["results"]
        if not (res["converged"] and res["trace_monotone"]):
            return False, "descent not converged or energy trace not monotone", digest
        grid_path = inp["out"] / "phi.grid"
        phi = fileio.read_grid(grid_path)
        copy = inp["out"] / "phi.copy.grid"
        fileio.write_grid(copy, phi)
        if copy.read_bytes() != grid_path.read_bytes():
            return False, "phi.grid does not read back equal", digest
        if phi.spec != generators.default_grid(2, 0.1):
            return False, "phi.grid has the wrong grid", digest
        rim = phi.spec.boundary_mask(optimize.STENCIL_REACH)
        if not np.all(phi.values[rim] == self.height):
            return False, "Dirichlet data changed on the rim", digest
        energy = optimize.energy(phi)
        if not math.isclose(energy, res["energy"], rel_tol=1e-12):
            return False, f"read-back energy {energy!r} != reported {res['energy']!r}", digest
        return True, "", digest


class Baseline(PipelineCluster):
    """The ROADMAP baseline cloud: one fixed corrupted cluster, h = 0.25 by default."""

    name = "baseline"

    def __init__(self, h: float = 0.25):
        self.h = h
        self.nodes = generators.default_grid(2, h).size

    def setup(self, seeds: list[int], workdir: Path) -> list[dict]:
        spec = generators.default_grid(2, self.h)
        cloud = generators.corrupted_cluster_cloud(spec, 0.02, eps=0.05, displacement=0.3)
        path = workdir / "op0.cloud"
        fileio.write_cloud(path, cloud)
        return [{"seed": 0, "path": path}]


WORKLOADS = {w.name: w for w in (PipelineCluster(), LemmaBattery(), MinimizeH01())}
