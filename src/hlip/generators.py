"""Instance generators for the approximation pipelines.

Every generator emits a BoundaryCloud sampled from an intrinsic graph,
with provenance in cloud.meta (kind, grid geometry, parameters, seed)
so that files written from the cloud identify how it was built.  All
randomness is routed through a seeded Generator; the same seed yields
the same cloud bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import core
from .graph import GridFunction, GridSpec
from .optimize import dirichlet_problem, solve
from .surface import BoundaryCloud, sample_graph_boundary

__all__ = [
    "default_grid",
    "flat_cloud",
    "linear_cloud",
    "solver_cloud",
    "corrupted_cluster_cloud",
    "deleted_patch_cloud",
]


def default_grid(n: int = 2, h: float = 0.1) -> GridSpec:
    """Reference sampling window: unit box in the spatial axes, taller
    in the last axis so homogeneous balls of radius ~1 fit untruncated."""
    half = (1.0,) * (2 * n - 1) + (1.5,)
    return GridSpec.centered(n, half, h)


def _grid_meta(spec: GridSpec) -> dict:
    return {
        "n": spec.n,
        "h": spec.h,
        "origin": list(spec.origin),
        "counts": list(spec.counts),
    }


def _finish(
    cloud: BoundaryCloud, spec: GridSpec, kind: str, params: dict, seed: int | None
) -> BoundaryCloud:
    meta = dict(cloud.meta)
    meta.update({"kind": kind, "grid": _grid_meta(spec), "params": params, "seed": seed})
    return BoundaryCloud(cloud.n, cloud.points, cloud.normals, cloud.weights, meta)


def flat_cloud(spec: GridSpec, stride: int = 1, orientation: int = 1) -> BoundaryCloud:
    f = GridFunction.constant(spec, 0.0)
    cloud = sample_graph_boundary(f, stride=stride, orientation=orientation)
    cloud = _finish(cloud, spec, "flat", {"stride": stride, "orientation": orientation}, None)
    cloud.meta["minimality"] = {"lambda": 0.0, "r0": 1.0}
    return cloud


def linear_cloud(
    spec: GridSpec, eps: float, stride: int = 1, orientation: int = 1
) -> BoundaryCloud:
    """Graph of eps * y_1; vertical planes are calibrated minimizers."""
    f = GridFunction.from_callable(spec, lambda w: eps * w[:, spec.n - 1])
    cloud = sample_graph_boundary(f, stride=stride, orientation=orientation)
    cloud = _finish(
        cloud, spec, "linear", {"eps": eps, "stride": stride, "orientation": orientation}, None
    )
    cloud.meta["minimality"] = {"lambda": 0.0, "r0": 1.0}
    return cloud


def solver_cloud(
    spec: GridSpec,
    data,
    seed: int = 0,
    stride: int = 1,
    orientation: int = 1,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> BoundaryCloud:
    """Sample the boundary of a solved graph Dirichlet problem.

    `data` is the boundary datum (callable on W nodes or a constant).
    The seed only tags provenance: the solve itself is deterministic.
    """
    problem = dirichlet_problem(spec, data)
    report = solve(problem, tol=tol, max_iter=max_iter)
    cloud = sample_graph_boundary(report.phi, stride=stride, orientation=orientation)
    cloud = _finish(
        cloud,
        spec,
        "solver",
        {
            "stride": stride,
            "orientation": orientation,
            "tol": tol,
            "iterations": report.iterations,
            "converged": bool(report.converged),
            "calibration_gap": report.calibration_gap,
        },
        seed,
    )
    return cloud


def _nearest_mass_indices(cloud: BoundaryCloud, center_w: np.ndarray, mass: float) -> np.ndarray:
    """Smallest set of samples around center_w (nested in the quasi-distance
    ordering) whose weight reaches `mass`."""
    d = core.w_dinf(center_w[None, :], cloud.projections())
    order = np.argsort(d, kind="stable")
    cum = np.cumsum(cloud.weights[order])
    if mass > cum[-1]:
        raise ValueError(f"cluster mass {mass} exceeds total cloud mass {cum[-1]:.6g}")
    k = int(np.searchsorted(cum, mass)) + 1
    return order[: min(k, len(order))]


def corrupted_cluster_cloud(
    spec: GridSpec,
    mass: float,
    eps: float = 0.0,
    center: tuple | None = None,
    displacement: float = 1.0,
    flip_normals: bool = True,
    stride: int = 1,
    orientation: int = 1,
    seed: int = 0,
) -> BoundaryCloud:
    """Graph cloud with one corrupted cluster of prescribed total weight.

    Samples nearest the cluster center (in the W quasi-distance, nested so
    growing `mass` only adds samples) are lifted by `displacement` along
    the graph direction and, by default, have their normals flipped to the
    inward horizontal direction.  Flipping injects defect 2 per unit
    weight into the excess; the displacement controls whether matching
    against the recovered graph can absorb the cluster.
    """
    if not 0 < mass < math.inf:
        raise ValueError(f"cluster mass must be finite and positive, got {mass}")
    base = linear_cloud(spec, eps, stride=stride, orientation=orientation)
    center_w = np.zeros(2 * spec.n) if center is None else np.asarray(center, dtype=float)
    bad = _nearest_mass_indices(base, center_w, mass)

    pts = base.points.copy()
    nrm = base.normals.copy()
    w, heights = core.proj(pts[bad])
    pts[bad] = core.graph_points(w, heights + displacement)
    if flip_normals:
        nrm[bad] = 0.0
        nrm[bad, 0] = -1.0
    params = {
        "mass": mass,
        "eps": eps,
        "center": list(center_w),
        "displacement": displacement,
        "flip_normals": flip_normals,
        "stride": stride,
        "orientation": orientation,
    }
    cloud = BoundaryCloud(spec.n, pts, nrm, base.weights)
    cloud = _finish(cloud, spec, "corrupted-cluster", params, seed)
    cloud.meta.update(
        cluster_mass=float(np.sum(base.weights[bad])),
        cluster_count=int(len(bad)),
        cluster_indices=[int(i) for i in bad],
    )
    return cloud


def deleted_patch_cloud(
    spec: GridSpec,
    radius: float,
    eps: float = 0.0,
    center: tuple | None = None,
    stride: int = 1,
    orientation: int = 1,
) -> BoundaryCloud:
    """Graph cloud with every sample over a quasi-ball patch removed."""
    if not 0 < radius < math.inf:
        raise ValueError(f"patch radius must be finite and positive, got {radius}")
    base = linear_cloud(spec, eps, stride=stride, orientation=orientation)
    center_w = np.zeros(2 * spec.n) if center is None else np.asarray(center, dtype=float)
    d = core.w_dinf(center_w[None, :], base.projections())
    keep = d >= radius
    if not np.any(keep):
        raise ValueError("patch deletes the whole cloud")
    params = {
        "radius": radius,
        "eps": eps,
        "center": list(center_w),
        "stride": stride,
        "orientation": orientation,
    }
    cloud = _finish(base.subset(keep), spec, "deleted-patch", params, None)
    # a cloud with a hole bounds no minimizer: linear_cloud's witness goes
    del cloud.meta["minimality"]
    cloud.meta.update(
        deleted_mass=float(np.sum(base.weights[~keep])), deleted_count=int(np.sum(~keep))
    )
    return cloud
