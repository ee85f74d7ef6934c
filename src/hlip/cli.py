"""Command line driver: constants, instance generation, pipelines, verification.

Every command assembles a report dict whose canonical JSON hash skips the
wall-time field, so reruns with the same seed compare equal.  Artifact
paths never enter a report (two runs in different directories must hash
identically); they go to stdout instead.

Exit codes: 0 success, 1 precondition failure (bad flags, unreadable
inputs or unwritable outputs, unknown kinds), 2 a mathematical failure
(a verification suite reported a failure, or the extension fixed point
did not converge).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import approx, core, fileio, generators, maximal, surface
from .approx import PipelineConfig
from .graph import (
    ExtensionConvergenceError,
    GridFunction,
    GridSpec,
    extension_constant,
    lipschitz_estimate,
)
from .optimize import STENCIL_REACH, dirichlet_problem, solve
from .surface import BoundaryCloud

__all__ = ["PreconditionError", "main"]


class PreconditionError(ValueError):
    """Bad input or configuration; maps to exit code 1."""


def _ineq(check: str, lhs: float, rhs: float) -> dict:
    return {
        "check": check,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "slack": float(rhs - lhs),
        "passed": bool(lhs <= rhs),
    }


def _empirical(value) -> dict:
    return {"value": value, "label": "empirical"}


def _out_dir(args: argparse.Namespace, default: str | None = None) -> Path | None:
    target = args.out if args.out is not None else default
    if target is None:
        return None
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise PreconditionError(f"generator kind {args.kind!r} needs --{key}")
    return value


def _read_cloud(args: argparse.Namespace) -> BoundaryCloud:
    path = Path(args.cloud)
    if not path.exists():
        raise PreconditionError(f"no such cloud file: {path}")
    cloud = fileio.read_cloud(path)
    args.n = cloud.n  # the cloud commands take no --n: the report records the cloud's
    return cloud


def _cloud_spec(cloud: BoundaryCloud, h: float | None) -> GridSpec:
    meta = cloud.meta.get("grid")
    if meta is not None:
        try:
            return GridSpec(
                int(meta["n"]),
                tuple(float(v) for v in meta["origin"]),
                float(meta["h"]),
                tuple(int(c) for c in meta["counts"]),
            )
        except KeyError as exc:
            raise PreconditionError(f"cloud grid provenance lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed cloud grid provenance: {exc}") from None
    if h is None:
        raise PreconditionError("cloud carries no grid provenance; pass --h to pick one")
    return generators.default_grid(cloud.n, h)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    data: dict = {}
    if args.config is not None:
        p = Path(args.config)
        if not p.exists():
            raise PreconditionError(f"no such config file: {p}")
        data = json.loads(p.read_text(encoding="ascii"))
        if not isinstance(data, dict):
            raise PreconditionError("config file must hold a JSON object")
    data.setdefault("seed", args.seed)
    try:
        return PipelineConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed pipeline config: {exc}") from None


# ---------------------------------------------------------------- commands


def cmd_constants(args: argparse.Namespace) -> tuple[dict, int]:
    kappa, delta, om_low, om_high = core.constants(args.n)
    table = []
    for k in range(1, 11):
        big_l = k / 100.0
        m = extension_constant(big_l)
        table.append(dict(_ineq(f"M({big_l:.2f}) <= 2L", m, 2.0 * big_l), L=big_l, M=m))
    results = {
        "n": args.n,
        "kappa": kappa,
        "delta": delta,
        f"omega_{2 * args.n - 1}": om_low,
        f"omega_{2 * args.n + 1}": om_high,
        "extension_table": _empirical(table),
    }
    print(f"n = {args.n}")
    print(f"kappa_{args.n} = {kappa:.15g}   (vertical-plane perimeter of the unit cylinder)")
    print(f"delta({args.n}) = {delta:.15g}   (spherical-to-cylindrical measure ratio)")
    print(f"omega_{2 * args.n - 1} = {om_low:.15g}, omega_{2 * args.n + 1} = {om_high:.15g}")
    print("extension constant M(L) against the 2L budget (empirical):")
    for row in table:
        tag = "pass" if row["passed"] else "FAIL"
        print(f"  L={row['L']:.2f}  M={row['M']:.6f}  2L={row['rhs']:.2f}  {tag}")
    return results, 0


_GEN_KINDS = ("flat", "linear", "solver", "corrupted-cluster", "deleted-patch")


def _make_cloud(args: argparse.Namespace, spec: GridSpec) -> BoundaryCloud:
    kind, stride, orientation = args.kind, args.stride, args.orientation
    if kind == "flat":
        return generators.flat_cloud(spec, stride=stride, orientation=orientation)
    if kind == "linear":
        return generators.linear_cloud(
            spec, _require(args, "eps"), stride=stride, orientation=orientation
        )
    if kind == "solver":
        eps = _require(args, "eps")
        return generators.solver_cloud(
            spec,
            lambda w: eps * w[:, spec.n - 1],
            seed=args.seed,
            stride=stride,
            orientation=orientation,
        )
    if kind == "corrupted-cluster":
        return generators.corrupted_cluster_cloud(
            spec,
            _require(args, "mass"),
            eps=args.eps or 0.0,
            displacement=args.displacement,
            seed=args.seed,
            stride=stride,
            orientation=orientation,
        )
    if kind == "deleted-patch":
        return generators.deleted_patch_cloud(
            spec,
            _require(args, "radius"),
            eps=args.eps or 0.0,
            stride=stride,
            orientation=orientation,
        )
    raise PreconditionError(f"unknown generator kind {kind!r}; expected one of {_GEN_KINDS}")


def cmd_gen(args: argparse.Namespace) -> tuple[dict, int]:
    spec = generators.default_grid(args.n, args.h)
    cloud = _make_cloud(args, spec)
    dest = _out_dir(args, default=".") / f"{args.kind}.cloud"
    fileio.write_cloud(dest, cloud)
    results = {
        "kind": args.kind,
        "count": len(cloud),
        "total_weight": float(np.sum(cloud.weights)),
        "meta": cloud.meta,
    }
    print(f"wrote {len(cloud)} samples to {dest}")
    return results, 0


def cmd_minimize(args: argparse.Namespace) -> tuple[dict, int]:
    spec = generators.default_grid(args.n, args.h)
    eps, height, noise = args.eps, args.height, args.noise
    if not noise >= 0.0:
        raise PreconditionError(f"noise must be a stddev >= 0, got {noise}")
    if min(spec.counts) <= 2 * STENCIL_REACH:
        raise PreconditionError(
            f"grid {spec.counts} has no free nodes: its {STENCIL_REACH} fixed rim layers "
            f"cover it; pick a smaller --h"
        )
    init = None
    if noise > 0.0:
        rng = np.random.default_rng(args.seed)

        def init(nodes: np.ndarray) -> np.ndarray:
            # called once per block in node order, so the blocks' draws
            # are one draw of a normal per node, in node order
            return height + noise * rng.standard_normal(len(nodes))

    problem = dirichlet_problem(spec, lambda w: height + eps * w[:, spec.n - 1], init=init)
    try:
        report = solve(problem, tol=args.tol, max_iter=args.max_iter)
    except FloatingPointError as exc:
        raise PreconditionError(str(exc)) from None
    trace = np.asarray(report.energy_trace)
    results = {
        "energy": float(trace[-1]),
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "line_search_failed": bool(report.line_search_failed),
        "calibration_gap": report.calibration_gap,
        "trace_monotone": bool(np.all(np.diff(trace) <= 0.0)),
        "datum": {"eps": eps, "height": height, "noise": noise},
    }
    dest = _out_dir(args)
    if dest is not None:
        fileio.write_grid(dest / "phi.grid", report.phi)
        print(f"wrote minimizer to {dest / 'phi.grid'}")
    state = "converged" if report.converged else "NOT converged"
    print(
        f"{state} after {report.iterations} iterations; energy {trace[-1]:.12g}, "
        f"calibration gap {report.calibration_gap:.3e}"
    )
    return results, 0


def cmd_excess(args: argparse.Namespace) -> tuple[dict, int]:
    cloud = _read_cloud(args)
    center = args.center
    if center is not None:
        center = np.asarray([float(v) for v in center.split(",")], dtype=float)
        if center.shape != (2 * cloud.n + 1,) or not np.all(np.isfinite(center)):
            raise PreconditionError(f"center needs {2 * cloud.n + 1} finite comma-separated entries")
    scales = tuple(float(s) for s in args.scales.split(","))
    if not all(0 < s < math.inf for s in scales):
        raise PreconditionError(f"scales must be finite and positive, got {args.scales!r}")
    rows = []
    for rep in surface.excess_profile(cloud, center, scales, args.orientation):
        rows.append(
            {
                "radius": rep.radius,
                "excess": rep.excess,
                "mass": rep.mass,
                "count": rep.count,
            }
        )
        print(f"r={rep.radius:<8g} excess={rep.excess:.12g}  ({rep.count} samples)")
    results = {"scales": rows, "orientation": args.orientation, "meta": cloud.meta}
    return results, 0


def _symdiff_results(sym) -> dict:
    return {
        "cloud_mass": sym.cloud_mass,
        "graph_mass": sym.graph_mass,
        "total": sym.total,
        "spherical": sym.spherical,
        "tau": sym.tau,
    }


def _empty_selection_cause(cloud, pcfg) -> str:
    """Why selection kept no sample: one heavier than the continuum mass kappa
    s^Q of the smallest scan cylinder means the scan scales do not resolve the grid."""
    s, hom = min(pcfg.scales), 2 * cloud.n + 1
    heavy = float(np.median(cloud.weights)) / (core.constants(cloud.n)[0] * s**hom)
    if heavy > 1.0:
        return (
            f"selection is empty at delta1={pcfg.delta1}: a sample's weight is {heavy:.3g}x "
            f"the mass kappa s^{hom} of the smallest scan cylinder (s = {s:g}); "
            "use larger scales in --config or a finer --h"
        )
    return f"selection is empty at delta1={pcfg.delta1}; the cloud is too far from flat"


def cmd_approx(args: argparse.Namespace) -> tuple[dict, int]:
    cloud = _read_cloud(args)
    spec = _cloud_spec(cloud, args.h)
    pcfg = _pipeline_config(args)
    result = approx.lipschitz_approximation(cloud, spec, pcfg)
    results = {
        "config": pcfg.to_dict(),
        "m0_count": int(len(result.m0)),
        "sample_count": len(cloud),
        "sup_abs": result.sup_abs,
        "lip_estimate": result.lip_estimate,
        "l2_gradient": result.l2_gradient,
        "m0_matched": bool(result.m0_matched),
        "degenerate": bool(result.degenerate),
        "meta": cloud.meta,
    }
    if result.symdiff is not None:
        results["symdiff"] = _symdiff_results(result.symdiff)
    dest = _out_dir(args)
    if dest is not None:
        fileio.write_grid(dest / "phi_hat.grid", result.phi)
        print(f"wrote approximation to {dest / 'phi_hat.grid'}")
    print(
        f"selected {results['m0_count']}/{len(cloud)} samples; "
        f"Lip {result.lip_estimate:.6g}, energy {result.l2_gradient:.6g}"
        + (f", symdiff {result.symdiff.total:.6g}" if result.symdiff is not None else "")
    )
    if result.degenerate:
        print(f"warning: {_empty_selection_cause(cloud, pcfg)}", file=sys.stderr)
    return results, 0


def cmd_truncate(args: argparse.Namespace) -> tuple[dict, int]:
    cloud = _read_cloud(args)
    spec = _cloud_spec(cloud, args.h)
    pcfg = _pipeline_config(args)
    result = approx.lipschitz_approximation(cloud, spec, pcfg)
    if result.degenerate:
        raise PreconditionError(_empty_selection_cause(cloud, pcfg))
    trunc = approx.truncate(cloud, result.phi, pcfg)
    e = trunc.excess_outer
    results = {
        "config": pcfg.to_dict(),
        "excess_outer": e,
        "eta": trunc.eta,
        "theta": trunc.theta,
        "k_cells": int(np.count_nonzero(trunc.k_mask)),
        "d1_cells": int(np.count_nonzero(trunc.d1_mask)),
        "outside_measure": trunc.outside_measure,
        "lip_on_k": trunc.lip_on_k,
        "lip_certified": trunc.lip_certified,
        "coincidence_residual": trunc.coincidence_residual,
        "coincidence_ok": bool(trunc.coincidence_ok),
        "mu_total": trunc.mu_total,
        "maximal_scale": trunc.maximal_scale,
        "trivial": bool(trunc.trivial),
        "lip_over_theta": _empirical(trunc.lip_on_k / trunc.theta if trunc.theta > 0 else 0.0),
        "outside_over_power": _empirical(
            trunc.outside_measure / e ** (1.0 - 2.0 * pcfg.alpha) if e > 0 else 0.0
        ),
        "meta": cloud.meta,
    }
    dest = _out_dir(args)
    if dest is not None:
        mask = GridFunction(spec, trunc.k_mask.reshape(spec.counts).astype(float))
        fileio.write_grid(dest / "k_mask.grid", mask)
        fileio.write_grid(dest / "phi_hat.grid", result.phi)
        print(f"wrote kept-region mask to {dest / 'k_mask.grid'}")
    print(
        f"kept {results['k_cells']}/{results['d1_cells']} disk cells; "
        f"Lip on K {trunc.lip_on_k:.6g} (certified {trunc.lip_certified:.6g}, "
        f"c_L {trunc.phi_lemma_path}), "
        f"measure lost {trunc.outside_measure:.6g}"
    )
    return results, 0


# ---------------------------------------------------------- verify battery


def _sparse_measure(spec: GridSpec, rng, atoms: int, total: float):
    masses = np.zeros(spec.size)
    idx = rng.choice(spec.size, size=atoms, replace=False)
    w = rng.random(atoms)
    masses[idx] = total * w / w.sum()
    return maximal.DiscreteMeasure(spec, masses.reshape(spec.counts))


def _vitali_exact(centers: np.ndarray, radii: np.ndarray) -> bool:
    sel, asg = maximal.vitali_5r(centers, radii)
    # every pair of selected balls in one elementwise call
    i, j = (sel[t] for t in np.triu_indices(len(sel), 1))
    if np.any(core.w_dinf(centers[i], centers[j]) < radii[i] + radii[j]):
        return False
    if not np.all(np.isin(asg, sel)):
        return False
    d = core.w_dinf(centers[asg], centers)
    return bool(np.all(d + radii <= 5.0 * radii[asg] + 1e-12))


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    cases, balls = args.cases, args.balls
    if cases < 1 or balls < 1:
        raise PreconditionError("suite sizes must be positive")
    rng = np.random.default_rng(args.seed)
    kappa = core.constants(2)[0]
    rows: list[dict] = []

    vspec = GridSpec.centered(2, 0.5, 0.1)
    fails = 0
    for _ in range(cases):
        a = rng.normal(size=3) * 0.3
        k = rng.integers(1, 4, size=(3, 4))
        phase = rng.random(3) * 2 * np.pi
        fld = GridFunction.from_callable(
            vspec,
            lambda w, a=a, k=k, ph=phase: sum(a[j] * np.sin(w @ k[j] + ph[j]) for j in range(3)),
        )
        fails += not approx.check_bv(fld)["passed"]
    rows.append({"check": "bv_random_fields", "cases": cases, "failures": fails, "passed": fails == 0})

    rep = approx.check_bv(GridFunction.from_callable(vspec, lambda w: 0.05 * w[:, 1]))
    rows.append(_ineq("bv_tight_on_constant_gradient", abs(rep["rhs"] - rep["lhs"]), 1e-9 * rep["rhs"]))

    fails = vacuous = 0
    worst = 0.0
    for i in range(cases):
        mu = _sparse_measure(vspec, rng, atoms=1 + i % 6, total=0.002 + 1e-4 * i)
        theta = mu.total() / kappa * rng.uniform(1.05, 3.0)
        drep = maximal.check_disk_lemma(mu, 5.0, theta, 0.6)
        fails += not (drep.hypothesis_ok and drep.passed)
        if drep.lhs > 0 and drep.rhs > 0:
            worst = max(worst, drep.lhs / drep.rhs)
        else:
            vacuous += 1
    rows.append(
        {
            "check": "disk_lemma",
            "cases": cases,
            "failures": fails,
            "vacuous": vacuous,
            "slack": drep.slack,
            "worst_ratio": _empirical(worst),
            "passed": fails == 0 and vacuous < cases,
        }
    )

    ratios = []
    for eps in (1e-3, 1e-2, 1e-1):
        fld = GridFunction.from_callable(vspec, lambda w, e=eps: e * w[:, 1])
        rep = maximal.check_phi_lemma(
            fld, s=0.45, theta=2 * eps, pair_budget=4000, seed=args.seed,
            c_hat_l=maximal.estimate_ball_constants(fld),
        )
        ratios.append(rep["ratio"])
    rows.append(
        {
            "check": "phi_lemma_constant",
            "ratios": _empirical(ratios),
            "lhs": max(ratios),
            "rhs": 1.0,
            "passed": 0.0 < min(ratios) and max(ratios) <= 1.0 and max(ratios) / min(ratios) < 1.5,
        }
    )

    pspec = GridSpec.centered(2, 0.7, 0.1)
    pvals = []
    ok = True
    for eps in (1e-3, 3e-3, 1e-2):
        fld = GridFunction.from_callable(pspec, lambda w, e=eps: e * w[:, 1])
        prep = maximal.check_poincare(fld, np.zeros(4), 0.25)
        ok = ok and not prep["violation_candidate"] and math.isfinite(prep["ratio"])
        pvals.append(prep["ratio"])
    rows.append(
        {
            "check": "poincare_ratio",
            "ratios": _empirical(pvals),
            "passed": ok and 0.0 < min(pvals) and max(pvals) / min(pvals) < 1.02,
        }
    )

    f05 = GridFunction.from_callable(pspec, lambda w: 0.05 * w[:, 1])
    nodes = pspec.nodes()
    pool = np.flatnonzero(core.box(nodes) < 0.3)
    lip05 = lipschitz_estimate(f05)
    fails = 0
    for _ in range(balls):
        x = nodes[rng.choice(pool)]
        r = float(rng.uniform(0.1, 0.25))
        srep = approx.check_sandwich(f05, x, r, 0.4, lip=lip05)
        fails += not (srep["passed"] and srep["c_admissible"])
    rows.append({"check": "sandwich_inclusions", "cases": balls, "failures": fails, "passed": fails == 0})

    fails = 0
    for _ in range(balls):
        m = int(rng.integers(2, 60))
        centers = rng.uniform(-1.0, 1.0, size=(m, 4))
        centers[:, 3] *= 0.5
        radii = rng.uniform(0.05, 0.6, size=m)
        fails += not _vitali_exact(centers, radii)
    rows.append({"check": "vitali_5r", "cases": balls, "failures": fails, "passed": fails == 0})

    hspec = GridSpec.centered(2, 1.0, 0.1)
    tilt = GridFunction.from_callable(hspec, lambda w: 0.1 * w[:, 1])
    hrep = surface.height_bound_ratio(tilt, 0.5)  # the tilted graph's cloud, streamed
    rows.append(
        {
            "check": "height_bound_ratio",
            "ratio": _empirical(hrep["ratio"]),
            "sup_height": hrep["sup_height"],
            "excess_at_outer": hrep["excess_at_outer"],
            "passed": 0.0 < hrep["ratio"] < math.inf,
        }
    )

    passed = all(row["passed"] for row in rows)
    for row in rows:
        tag = "PASS" if row["passed"] else "FAIL"
        detail = ""
        if "lhs" in row:
            detail = f"  lhs={row['lhs']:.6g} rhs={row['rhs']:.6g}"
        elif "failures" in row:
            detail = f"  {row['cases'] - row['failures']}/{row['cases']}"
        print(f"{tag} {row['check']}{detail}")
    results = {"checks": rows, "passed": passed}
    return results, 0 if passed else 2


# ----------------------------------------------------------------- driver


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for verification
    # failures here, so remap to the precondition code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="directory for reports and artifacts")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    dim = _Parser(add_help=False, parents=[common])
    dim.add_argument("--n", type=int, default=2, help="Heisenberg dimension (>= 2)")

    ap = _Parser(prog="hlip", description="intrinsic Lipschitz approximation toolkit")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser("constants", parents=[dim], help="closed-form and empirical constants")

    p = sub.add_parser("gen", parents=[dim], help="write a synthetic boundary cloud")
    p.add_argument("kind", help=" | ".join(_GEN_KINDS))
    p.add_argument("--h", type=float, default=0.1, help="grid spacing")
    p.add_argument("--eps", type=float, default=None, help="graph slope along y_1")
    p.add_argument("--mass", type=float, default=None, help="corrupted cluster weight")
    p.add_argument("--displacement", type=float, default=1.0, help="cluster height offset")
    p.add_argument("--radius", type=float, default=None, help="deleted patch radius")
    p.add_argument("--stride", type=int, default=1, help="sample every k-th node")
    p.add_argument("--orientation", type=int, default=1, choices=(1, -1))

    p = sub.add_parser("minimize", parents=[dim], help="solve a graph Dirichlet problem")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.0, help="boundary datum slope along y_1")
    p.add_argument("--height", type=float, default=0.0, help="boundary datum constant part")
    p.add_argument("--noise", type=float, default=0.0, help="stddev of the random start")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=5000)

    p = sub.add_parser("excess", parents=[common], help="cylindrical excess of a cloud")
    p.add_argument("cloud", help="cloud file")
    p.add_argument("--scales", default="0.25,0.5,1.0", help="comma-separated radii")
    p.add_argument("--center", default=None, help="comma-separated cylinder center")
    p.add_argument("--orientation", type=int, default=1, choices=(1, -1))

    for name, text in (
        ("approx", "run the approximation pipeline"),
        ("truncate", "approximation plus maximal truncation"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("cloud", help="cloud file")
        p.add_argument("--h", type=float, default=None, help="grid spacing if the cloud has no provenance")
        p.add_argument("--config", default=None, help="JSON file of pipeline thresholds")

    p = sub.add_parser("verify", parents=[common], help="run the lemma battery")
    p.add_argument("--cases", type=int, default=50, help="random fields / measures per suite")
    p.add_argument("--balls", type=int, default=100, help="random (x, r) and Vitali families")
    # the randomized battery is pinned to n=2, which its report records: the
    # grids are sized for it and every lemma is dimension-uniform anyway
    p.set_defaults(n=2)

    return ap


_COMMANDS = {
    "constants": cmd_constants,
    "gen": cmd_gen,
    "minimize": cmd_minimize,
    "excess": cmd_excess,
    "approx": cmd_approx,
    "truncate": cmd_truncate,
    "verify": cmd_verify,
}

# the report's config block records n and seed apart and never a path
_UNREPORTED = ("command", "out", "seed", "n", "cloud", "config")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if getattr(args, "n", 2) < 2:  # a cloud command's n is the cloud's
            raise PreconditionError(
                f"the construction needs n >= 2 (H^1 lacks the x_2 direction "
                f"the selection argument pivots on), got n={args.n}"
            )
        if not 0 <= args.seed < 2**64:
            raise PreconditionError(f"seed must fit in 64 bits, got {args.seed}")
        results, code = _COMMANDS[args.command](args)
        report = {
            "command": args.command,
            "config": {
                "n": args.n,
                "seed": args.seed,
                "params": {k: v for k, v in vars(args).items() if k not in _UNREPORTED},
            },
            "results": results,
            "wall_time_s": time.perf_counter() - start,
        }
        report["hash"] = fileio.report_hash(report)
        dest = _out_dir(args)
        if dest is not None:
            path = dest / f"{args.command}_report.json"
            fileio.write_report(path, report)
            print(f"wrote report to {path}")
    except (approx.LipContractError, ExtensionConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, OSError, ValueError) as exc:
        # OSError: an input that cannot be read or an output, the report
        # included, that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"report hash {report['hash']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
