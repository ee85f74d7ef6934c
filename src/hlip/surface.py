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
from .graph import GridFunction, GridSpec, _area, _node_block, _slab_planes, intrinsic_gradient

__all__ = [
    "BoundaryCloud",
    "ExcessReport",
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
    radius: float
    excess: float
    mass: float
    count: int


def _graph_blocks(f: GridFunction, orientation: int, sel=None, stride: int = 1):
    """(points, normals, weights) of the graph's samples at the nodes in sel
    (all by default), in node order, in blocks of at most one
    core._row_blocks block.  nu = orientation * (1, -grad) / area, the
    Burgers component in the Y_1 slot of the frame; the weight is the area
    element sqrt(1 + |grad|^2) times (stride h)^(2n).

    One intrinsic_gradient pass runs per graph._slab_planes x_2-slab of
    whole axis-0 rows, into that generator's four slab planes of at most
    _BLOCK_BYTES each, area element included; the slab's samples follow
    before the next slab's pass.  So no array of the whole grid is built
    but the caller's.  Each block's node coordinates come by slice, and
    then its sel rows.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    spec, n = f.spec, f.spec.n
    vals, cell = f.flat, (stride * spec.h) ** (2 * n)
    row = spec.size // spec.counts[0]
    for box, planes in _slab_planes(spec):
        slab = box[0]
        k, base = slab.stop - slab.start, slab.start * row
        intrinsic_gradient(f, box, planes)
        c, area = planes[0].reshape(2 * n - 1, -1), planes[3].reshape(-1)
        for loc in core._row_blocks(k * row, 2 * n + 1):
            rows = slice(base + loc.start, base + loc.stop)
            w, z = _node_block(spec, rows), vals[rows]
            if sel is not None:
                keep = sel[rows]
                w, z, loc = w[keep], z[keep], loc.start + np.flatnonzero(keep)
            g, a = c[:, loc], area[loc]
            nu = np.column_stack((np.ones(len(a)), -g.T)) * (orientation / a)[:, None]
            yield core.graph_points(w, z), nu, a * cell


def disk_mask(spec: GridSpec, r: float) -> np.ndarray:
    """Cells whose center lies in the disk D_r about the origin."""
    if r <= 0:
        raise ValueError(f"disk radius must be positive, got {r}")
    return core.box(spec.nodes()) < r


def _cyl_norm(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    return core.cylnorm(core.mul(core.inv(center), points))


def cylinder_mask(cloud: BoundaryCloud, center: np.ndarray, r: float) -> np.ndarray:
    """Samples of the cloud lying in the open cylinder C_r(center)."""
    if r <= 0:
        raise ValueError(f"cylinder radius must be positive, got {r}")
    inside = np.empty(len(cloud), dtype=bool)
    for blk in core._row_blocks(len(cloud), 2 * cloud.n + 1):
        inside[blk] = _cyl_norm(cloud.points[blk], center) < r
    return inside


def hperimeter(f: GridFunction, region: np.ndarray | None = None) -> float:
    """Midpoint-rule H-perimeter of the graph over the nodes of a region mask
    of W (the whole grid without one)."""
    area = _area(f).ravel()
    if region is not None:
        region = np.asarray(region, dtype=bool).ravel()
        if region.size != f.spec.size:
            raise ValueError("region mask size does not match grid")
        area = area[region]
    return float(np.sum(area) * f.spec.cell_volume)


def sample_graph_boundary(
    f: GridFunction,
    stride: int = 1,
    orientation: int = 1,
) -> BoundaryCloud:
    """Boundary cloud of the graph: one sample per cell of the stride sublattice.

    With stride s the sublattice cell volume (s h)^{2n} enters the weights;
    at stride 1 the total weight equals hperimeter(f) exactly.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    spec = f.spec
    sel = np.zeros(spec.counts, dtype=bool)
    sel[tuple(slice(None, None, stride) for _ in range(2 * spec.n))] = True
    sel = sel.ravel()
    count = np.count_nonzero(sel)
    pts, nrm, wgt = np.empty((count, 2 * spec.n + 1)), np.empty((count, 2 * spec.n)), np.empty(count)
    i = 0
    for p, nu, w in _graph_blocks(f, orientation, sel, stride):
        pts[i : i + len(w)], nrm[i : i + len(w)], wgt[i : i + len(w)] = p, nu, w
        i += len(w)
    info = {"kind": "graph", "h": spec.h, "stride": stride, "orientation": orientation}
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
    return ExcessReport(radius=float(r), excess=e, mass=mass, count=int(np.count_nonzero(inside)))


def excess_profile(
    cloud: BoundaryCloud,
    center: np.ndarray | None = None,
    scales: tuple[float, ...] = (0.25, 0.5, 1.0),
    orientation: int = 1,
) -> list[ExcessReport]:
    return [excess_cloud(cloud, center, s, orientation) for s in sorted(scales)]


def height_bound_ratio(f: GridFunction, r0: float, orientation: int = 1) -> dict:
    """Ratio sup{|h|/r0 over C_r0} / e(16 r0)^(1/(2(2n+1))) of f's graph.

    Returns the pieces as a dict; by convention the ratio is 0 when the
    cylinder holds no height, and inf when the excess vanishes under a
    nonzero height (the bound degenerates in that direction).  The graph's
    cloud at stride 1 is streamed from f without the cloud: the C_16r0
    summands w (1 - <nu, nu_0>) go into one compact buffer in sample
    order, so its one np.sum is excess_cloud's on that cloud, bit for bit.
    """
    if orientation not in (1, -1) or r0 <= 0:
        raise ValueError(f"need orientation +1 or -1 and r0 > 0, got {orientation}, {r0}")
    n = f.spec.n
    origin, outer, sup_h, k = np.zeros(2 * n + 1), 16.0 * r0, 0.0, 0
    terms = np.empty(f.spec.size)
    for pts, nu, w in _graph_blocks(f, orientation):
        norm = _cyl_norm(pts, origin)
        sup_h = max(sup_h, float(np.max(np.abs(pts[norm < r0, 0]), initial=0.0)))
        inside = norm < outer
        m = k + np.count_nonzero(inside)
        np.multiply(w[inside], 1.0 - orientation * nu[inside, 0], out=terms[k:m])
        k = m
    excess = float(np.sum(terms[:k]) / outer ** (2 * n + 1))
    if sup_h == 0.0:
        ratio = 0.0
    elif excess <= 0.0:
        ratio = float("inf")
    else:
        ratio = (sup_h / r0) / excess ** (1.0 / (2 * (2 * n + 1)))
    return {
        "sup_height": sup_h,
        "r0": float(r0),
        "excess_at_outer": excess,
        "outer_radius": outer,
        "ratio": ratio,
    }
