"""Sampled boundaries, horizontal perimeter, and cylindrical excess.

A boundary cloud is a weighted sample of a surface in H^n: points carry a
horizontal unit normal on the frame (X_1..X_n, Y_1..Y_n) and a perimeter
mass.  Graph clouds are produced by midpoint quadrature of the area
formula, so total weight over a region reproduces the H-perimeter exactly.
The excess over a cylinder measures the L^2 defect of the normal from a
fixed horizontal direction and is invariant under intrinsic dilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .graph import GridFunction, GridSpec, intrinsic_gradient

__all__ = [
    "BoundaryCloud",
    "ExcessReport",
    "epigraph_normal",
    "hperimeter",
    "disk_mask",
    "cylinder_mask",
    "sample_graph_boundary",
    "dilate_cloud",
    "excess_cloud",
    "excess_profile",
    "height_bound_ratio",
]


@dataclass
class BoundaryCloud:
    """Weighted boundary samples with horizontal unit normals."""

    n: int
    points: np.ndarray  # (N, 2n+1)
    normals: np.ndarray  # (N, 2n)
    weights: np.ndarray  # (N,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        self.normals = np.asarray(self.normals, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        N = len(self.points)
        if N == 0:
            raise ValueError("empty cloud")
        if self.points.shape != (N, 2 * self.n + 1) or self.normals.shape != (N, 2 * self.n):
            raise ValueError("cloud array shapes inconsistent with n")
        if self.weights.shape != (N,):
            raise ValueError("weights must be one per sample")
        if not (
            np.all(np.isfinite(self.points))
            and np.all(np.isfinite(self.normals))
            and np.all(np.isfinite(self.weights))
        ):
            raise ValueError("cloud data must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        lens = np.linalg.norm(self.normals, axis=1)
        if np.max(np.abs(lens - 1.0)) > 1e-9:
            raise ValueError("normals must be unit vectors")
        wit = self.meta.get("minimality")
        if wit is not None:
            try:
                product = float(wit["lambda"]) * float(wit["r0"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed minimality witness: {exc!r}") from None
            if product > 1.0 + 1e-12:
                raise ValueError("minimality witness must satisfy lambda * r0 <= 1")

    def __len__(self) -> int:
        return len(self.weights)

    def subset(self, idx: np.ndarray) -> "BoundaryCloud":
        return BoundaryCloud(
            self.n, self.points[idx], self.normals[idx], self.weights[idx], dict(self.meta)
        )

    @property
    def heights(self) -> np.ndarray:
        return self.points[:, 0]

    def projections(self) -> np.ndarray:
        w, _ = core.proj(self.points)
        return w


@dataclass(frozen=True)
class ExcessReport:
    center: tuple[float, ...]
    radius: float
    excess: float
    mass: float
    count: int
    orientation: int


def epigraph_normal(f: GridFunction, orientation: int = 1) -> np.ndarray:
    """Unit horizontal normal of the subgraph boundary, one row per node.

    nu = orientation * (1, -grad) / sqrt(1 + |grad|^2) with the Burgers
    component of the gradient sitting in the Y_1 slot of the frame.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    n = f.spec.n
    g = intrinsic_gradient(f).at_flat()  # (N, 2n-1)
    denom = np.sqrt(1.0 + np.sum(g**2, axis=1))
    nu = np.empty((len(g), 2 * n))
    nu[:, 0] = 1.0
    nu[:, 1:] = -g
    nu *= orientation / denom[:, None]
    return nu


def _region_mask(f: GridFunction, region) -> np.ndarray:
    if region is None:
        return np.ones(f.spec.size, dtype=bool)
    if callable(region):
        return np.asarray(region(f.spec.nodes()), dtype=bool)
    mask = np.asarray(region, dtype=bool).ravel()
    if mask.size != f.spec.size:
        raise ValueError("region mask size does not match grid")
    return mask


def disk_mask(spec: GridSpec, r: float) -> np.ndarray:
    """Cells whose center lies in the disk D_r about the origin."""
    if r <= 0:
        raise ValueError(f"disk radius must be positive, got {r}")
    return core.box(spec.nodes()) < r


def cylinder_mask(cloud: BoundaryCloud, center: np.ndarray, r: float) -> np.ndarray:
    """Samples of the cloud lying in the open cylinder C_r(center)."""
    if r <= 0:
        raise ValueError(f"cylinder radius must be positive, got {r}")
    return core.cylnorm(core.mul(core.inv(center), cloud.points)) < r


def hperimeter(f: GridFunction, region=None) -> float:
    """Midpoint-rule H-perimeter of the graph over a region of W."""
    mask = _region_mask(f, region)
    area = np.sqrt(1.0 + intrinsic_gradient(f).norm_sq()).ravel()
    return float(np.sum(area[mask]) * f.spec.cell_volume)


def sample_graph_boundary(
    f: GridFunction,
    region=None,
    stride: int = 1,
    orientation: int = 1,
    meta: dict | None = None,
) -> BoundaryCloud:
    """Boundary cloud of the graph: one sample per selected cell.

    With stride s the sublattice cell volume (s h)^{2n} enters the weights;
    at stride 1 the total weight equals hperimeter(f, region) exactly.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    spec = f.spec
    mask = _region_mask(f, region).reshape(spec.counts)
    sub = np.zeros(spec.counts, dtype=bool)
    sub[tuple(slice(None, None, stride) for _ in range(2 * spec.n))] = True
    sel = (mask & sub).ravel()
    if not np.any(sel):
        raise ValueError("no cells selected for sampling")
    pts = f.graph()[sel]
    nrm = epigraph_normal(f, orientation)[sel]
    area = np.sqrt(1.0 + intrinsic_gradient(f).norm_sq()).ravel()[sel]
    wgt = area * (stride * spec.h) ** (2 * spec.n)
    info = {"kind": "graph", "h": spec.h, "stride": stride, "orientation": orientation}
    if meta:
        info.update(meta)
    return BoundaryCloud(spec.n, pts, nrm, wgt, info)


def dilate_cloud(lam: float, cloud: BoundaryCloud) -> BoundaryCloud:
    """Push the cloud through delta_lam; perimeter mass scales by lam^(2n+1)."""
    if lam <= 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return BoundaryCloud(
        cloud.n,
        core.dilate_arr(lam, cloud.points),
        cloud.normals.copy(),
        cloud.weights * lam ** (2 * cloud.n + 1),
        dict(cloud.meta),
    )


def excess_cloud(
    cloud: BoundaryCloud,
    center: np.ndarray | None = None,
    r: float = 1.0,
    orientation: int = 1,
) -> ExcessReport:
    """Cylindrical excess e(center, r) = r^-(2n+1) * sum w (1 - <nu, nu_0>).

    nu_0 = orientation * X_1; the summand is |nu - nu_0|^2 / 2 for unit
    normals.  Samples outside C_r(center) do not contribute.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    if center is None:
        center = np.zeros(2 * cloud.n + 1)
    inside = cylinder_mask(cloud, center, r)
    defect = 1.0 - orientation * cloud.normals[inside, 0]
    mass = float(np.sum(cloud.weights[inside]))
    e = float(np.sum(cloud.weights[inside] * defect) / r ** (2 * cloud.n + 1))
    return ExcessReport(
        center=tuple(np.asarray(center, dtype=float)),
        radius=float(r),
        excess=e,
        mass=mass,
        count=int(np.count_nonzero(inside)),
        orientation=orientation,
    )


def excess_profile(
    cloud: BoundaryCloud,
    center: np.ndarray | None = None,
    scales: tuple[float, ...] = (0.25, 0.5, 1.0),
    orientation: int = 1,
) -> list[ExcessReport]:
    return [excess_cloud(cloud, center, s, orientation) for s in sorted(scales)]


def height_bound_ratio(
    cloud: BoundaryCloud,
    r0: float,
    orientation: int = 1,
) -> dict:
    """Ratio sup{|h|/r0 over C_r0} / e(16 r0)^(1/(2(2n+1))).

    Returns the pieces as a dict; by convention the ratio is 0 when the
    cylinder holds no height, and inf when the excess vanishes under a
    nonzero height (the bound degenerates in that direction).
    """
    if r0 <= 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    inside = cylinder_mask(cloud, np.zeros(2 * cloud.n + 1), r0)
    sup_h = float(np.max(np.abs(cloud.heights[inside]))) if np.any(inside) else 0.0
    rep = excess_cloud(cloud, None, 16.0 * r0, orientation)
    power = 1.0 / (2 * (2 * cloud.n + 1))
    if sup_h == 0.0:
        ratio = 0.0
    elif rep.excess <= 0.0:
        ratio = float("inf")
    else:
        ratio = (sup_h / r0) / rep.excess**power
    return {
        "sup_height": sup_h,
        "r0": float(r0),
        "excess_at_outer": rep.excess,
        "outer_radius": 16.0 * r0,
        "ratio": ratio,
    }
