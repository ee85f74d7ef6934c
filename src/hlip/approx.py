"""Excess-threshold graph approximation and maximal truncation.

Two pipelines on top of the boundary-cloud and grid machinery.  The first
selects samples whose cylindrical excess stays small across a set of scan
scales, deposits their heights on the hyperplane grid, and extends to an
intrinsic Lipschitz graph; it reports the symmetric-difference mass and
the horizontal energy of the result.  The second builds the defect
measure of that approximation, truncates along a superlevel set of its
maximal function, and estimates the improved Lipschitz constant on the
kept region.  Checkers for the supporting inequalities (BV bound, ball
sandwiches) live here as well.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import core, maximal
from .graph import (
    ConeViolationError,
    ExtensionReport,
    GridFunction,
    GridSpec,
    _area,
    _cone_ratio,
    _graph_point,
    _sym_dist,
    extend_lipschitz,
    extension_constant,
    intrinsic_gradient,
    lipschitz_estimate,
)
from .maximal import DiscreteMeasure, PhiLemmaError, check_phi_lemma
from .surface import BoundaryCloud, disk_mask, excess_cloud

log = logging.getLogger("hlip.approx")


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds and scale layout shared by both pipelines."""

    delta1: float = 0.1
    scales: tuple[float, ...] = (0.25, 0.5, 1.0)
    outer_scale: float = 2.0
    inner_radius: float = 1.0
    tau: float | None = None  # match tolerance; None means 2h of the grid
    orientation: int = 1
    alpha: float = 0.25
    gamma2: float = 1.0
    maximal_scale: float | None = None  # None means outer_scale / 4
    eta_override: float | None = None
    extension_policy: str = "measured"  # "measured" or "fixed"
    extension_l: float = 0.05
    pair_budget: int = 20000
    seed: int = 0

    def __post_init__(self) -> None:
        # written `not 0 < x < inf`, so that NaN fails each test
        if not 0 < self.delta1 < math.inf:
            raise ValueError(f"delta1 must be positive and finite, got {self.delta1}")
        if len(self.scales) == 0 or not all(0 < s < math.inf for s in self.scales):
            raise ValueError("scale set must be nonempty, positive and finite")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0 < self.outer_scale < math.inf and 0 < self.inner_radius < math.inf):
            raise ValueError("scales must be positive and finite")
        if self.maximal_scale is not None and not 0 < self.maximal_scale < math.inf:
            raise ValueError(f"maximal_scale must be positive and finite, got {self.maximal_scale}")
        if self.eta_override is not None and not math.isfinite(self.eta_override):
            raise ValueError(f"eta_override must be finite, got {self.eta_override}")
        if self.extension_policy not in ("measured", "fixed"):
            raise ValueError(f"unknown extension policy {self.extension_policy!r}")
        if not 0 < self.extension_l < math.inf:
            raise ValueError("extension_l must be positive and finite")
        if not 0 < self.gamma2 < math.inf:
            raise ValueError(f"gamma2 must be positive and finite, got {self.gamma2}")
        # bool is an int, but true is no count and no seed
        if type(self.pair_budget) is not int or self.pair_budget < 1:
            raise ValueError(f"pair_budget must be an integer >= 1, got {self.pair_budget!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    def resolved_tau(self, spec: GridSpec) -> float:
        return 2.0 * spec.h if self.tau is None else self.tau

    def resolved_maximal_scale(self) -> float:
        return self.outer_scale / 4.0 if self.maximal_scale is None else self.maximal_scale

    def to_dict(self) -> dict:
        return {**asdict(self), "scales": list(self.scales)}

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        kwargs = dict(data)
        if "scales" in kwargs:
            kwargs["scales"] = tuple(kwargs["scales"])
        return cls(**kwargs)


@dataclass
class SymDiffReport:
    """Masses of the two halves of the cloud/graph symmetric difference.

    Sample arrays are kept so the defect measure can reuse the matching
    instead of recomputing the pairwise distances.
    """

    cloud_mass: float
    graph_mass: float
    total: float
    spherical: float
    tau: float
    sample_in_region: np.ndarray
    sample_matched: np.ndarray
    cell_region: np.ndarray
    cell_matched: np.ndarray
    cell_min_dist: np.ndarray


class LipContractError(ValueError):
    """The output graph of the pipeline is not 1-Lipschitz."""


@dataclass
class ApproxResult:
    """Output of the selection/extension pipeline.

    symdiff, l2_gradient and m0_matched measure how well phi fits the
    cloud over the inner disk: the symmetric difference (a nearest-distance
    pass), the energy there, and whether every selected sample lies on the
    graph.  Each is computed on its first read, because the truncation and
    the corollary read none of them.  fit_inputs holds (cloud, tau, disk
    mask) for that; None, as for the degenerate zero graph, gives no
    symmetric difference, zero energy and no match.
    """

    phi: GridFunction
    m0: np.ndarray
    sup_abs: float
    lip_estimate: float
    degenerate: bool = False
    fit_inputs: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.lip_estimate > 1.0 + 1e-9:
            raise LipContractError(
                f"output graph violates the unit Lipschitz contract: {self.lip_estimate:.6g}"
            )

    @functools.cached_property
    def symdiff(self) -> SymDiffReport | None:
        if self.fit_inputs is None:
            return None
        cloud, tau, d1 = self.fit_inputs
        return sym_diff_measure(cloud, self.phi, tau, region=d1)

    @functools.cached_property
    def l2_gradient(self) -> float:
        if self.fit_inputs is None:
            return 0.0
        g2 = intrinsic_gradient(self.phi).norm_sq().ravel()
        return float(np.sum(g2[self.fit_inputs[2]]) * self.phi.spec.cell_volume)

    @functools.cached_property
    def m0_matched(self) -> bool:
        if self.fit_inputs is None:
            return False
        cloud, tau = self.fit_inputs[:2]
        gap = np.abs(cloud.heights[self.m0] - self.phi.interp(cloud.projections()[self.m0]))
        return bool(np.all(gap <= _height_threshold(self.phi.spec, tau)))


@dataclass
class TruncationResult:
    """Kept region and certificates of the maximal truncation.

    phi_lemma_path names the c_L behind lip_certified: "estimated" from
    sampled balls, "pinned" to 1 after the estimate failed, or "none"
    when the lemma did not run (trivial truncation) or failed.
    symdiff is the match of the cloud and the graph over the support of
    the defect measure, from which the measure was built.
    """

    k_mask: np.ndarray
    d1_mask: np.ndarray
    symdiff: SymDiffReport
    outside_measure: float
    lip_on_k: float
    lip_certified: float
    coincidence_residual: float
    coincidence_ok: bool
    eta: float
    theta: float
    excess_outer: float
    mu_total: float
    maximal_scale: float
    trivial: bool
    phi_lemma_path: str

    def __post_init__(self) -> None:
        if np.any(self.k_mask & ~self.d1_mask):
            raise ValueError("kept region must stay inside the unit disk")


def _excess_above(
    cloud: BoundaryCloud,
    centers: np.ndarray,
    scales: tuple[float, ...],
    orientation: int,
    delta1: float,
) -> np.ndarray:
    """max(0, max over scales of excess_cloud(cloud, center, s, orientation))
    at each center wherever that exceeds delta1, bit for bit; elsewhere a
    value in [0, delta1].

    Centers are taken in groups, by their cell of width min(scales) on
    x_2..x_n, y_1..y_n.  The cylinder norm bounds every coordinate
    difference but t's (see core's box search), so the cylinders of radius
    s from a group hold only samples inside the group's box padded by s.
    Defect weights are nonnegative up to rounding, so a scale whose box
    holds positive defect mass at most delta1 s^q keeps every center of
    the group within delta1 and is skipped there.  The other scales are
    evaluated on the samples in the box of the largest of them: each
    excess is np.sum of the in-cylinder defect terms in sample order,
    divided by s^q, which is the expression excess_cloud evaluates.  The
    cylinder tests agree with excess_cloud's for n <= 3, where the fused
    kernels equal their broadcast formulas (see core's kernel comment).

    Each block's in-cylinder terms at a live scale are gathered row by
    row, each row's in sample order, and summed with one
    np.sum(..., axis=1) per distinct row length, over C rows that each
    hold one row's terms: numpy sums each such row as np.sum of that row
    alone (tests/test_approx.py pins it).
    """
    q = 2 * cloud.n + 1
    defect = cloud.weights * (1.0 - orientation * cloud.normals[:, 0])
    # the samples sorted on x_2, in column-major order for the box tests
    by_x2 = np.argsort(cloud.points[:, 1], kind="stable")
    sorted_pts = np.asfortranarray(cloud.points[by_x2])
    positive = np.maximum(defect[by_x2], 0.0)
    cols = [1, 0, *range(2, 2 * cloud.n)]

    out = np.zeros(len(centers))
    for rows in core._groups(centers, range(1, 2 * cloud.n), min(scales)):
        lo, hi = centers[rows].min(axis=0), centers[rows].max(axis=0)
        box = {s: core._in_box(sorted_pts, cols, lo - s * (1.0 + 1e-9), hi + s * (1.0 + 1e-9))
               for s in scales}
        live = [s for s in scales
                if np.sum(positive[box[s]]) > delta1 * float(s) ** q * (1.0 - 1e-9)]
        if not live:
            continue
        # in sample order, so that each row sums its terms as excess_cloud does
        cand = np.sort(by_x2[box[max(live)]])
        terms = defect[cand]
        # column-major, so the kernels read each coordinate contiguously
        pts = np.asfortranarray(cloud.points[cand])
        for blk in core._row_blocks(rows.size, cand.size):
            c = centers[rows[blk]]
            # cylinder norm of the relative point without forming the product
            dist = np.maximum(
                core.pi_rel_norm(c[:, None, :], pts[None, :, :]),
                np.abs(pts[None, :, 0] - c[:, None, 0]),
            )
            for s in live:
                inside = dist < s
                count = np.count_nonzero(inside, axis=1)
                vals = np.broadcast_to(terms, inside.shape)[inside]  # row-major: rows in order
                start = np.cumsum(count) - count
                # lengths of the nonempty rows (np.unique would import numpy.ma);
                # an empty row sums to 0, which out already holds
                for length in np.flatnonzero(np.bincount(count)[1:]) + 1:
                    k = np.flatnonzero(count == length)
                    sums = np.sum(vals[start[k, None] + np.arange(length)], axis=1)
                    np.maximum.at(out, rows[blk][k], sums / float(s) ** q)
    return out


def select_m0(cloud: BoundaryCloud, spec: GridSpec, config: PipelineConfig) -> np.ndarray:
    """Indices of the samples spec.locate puts on the grid whose sup-excess
    over the scan scales stays below delta1; the cylinders hold the whole
    cloud's mass."""
    on_grid = np.flatnonzero(spec.locate(cloud.projections())[1])
    centers = cloud.points[on_grid]
    e = _excess_above(cloud, centers, config.scales, config.orientation, config.delta1)
    return on_grid[e <= config.delta1]


def heights_on_projection(
    cloud: BoundaryCloud,
    m0: np.ndarray,
    spec: GridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Partial grid data from the selected samples.

    Each sample deposits its height at the cell of its projection; cells
    hit several times resolve to the weighted median, which is stable
    under duplicated samples and ignores stray heights with small weight.
    """
    m0 = np.asarray(m0, dtype=int)
    if m0.size == 0:
        return np.empty(0, dtype=int), np.empty(0)
    w = cloud.projections()[m0]
    flat, inside = spec.locate(w)
    flat, h, wt = flat[inside], cloud.heights[m0][inside], cloud.weights[m0][inside]
    if flat.size == 0:
        return np.empty(0, dtype=int), np.empty(0)
    order = np.lexsort((h, flat))
    flat, h, wt = flat[order], h[order], wt[order]
    cells, starts = np.unique(flat, return_index=True)
    bounds = np.append(starts, len(flat))
    # a cell hit once takes its sample's height, whatever the weight's sign
    values = h[starts]
    for k in np.flatnonzero(np.diff(bounds) > 1):
        hs = h[bounds[k] : bounds[k + 1]]
        ws = wt[bounds[k] : bounds[k + 1]]
        tot = float(np.sum(ws))
        if tot == 0.0:
            values[k] = float(np.median(hs))
            continue
        j = int(np.searchsorted(np.cumsum(ws), 0.5 * tot))
        values[k] = hs[min(j, len(hs) - 1)]
    return cells, values


def _extend(
    spec: GridSpec,
    cells: np.ndarray,
    values: np.ndarray,
    config: PipelineConfig,
) -> tuple[GridFunction, ExtensionReport]:
    """Extend with cone slope l_ver: the data's measured cone ratio, or
    the fixed extension_l, which the data must then satisfy."""
    fixed = config.extension_policy == "fixed"
    ratio, (i, j) = _cone_ratio(spec.nodes()[cells], values)
    # tiny floor only: a fixed floor would pin the cone slope of the
    # fill region and break proportionality for shallow data
    l_ver = config.extension_l if fixed else max(ratio, 1e-9)
    if l_ver > 1.0 + 1e-9:
        raise ValueError(
            f"selected data has cone ratio {l_ver:.4g} > 1; lower delta1 or the scan scales"
        )
    if fixed and ratio > l_ver * (1.0 + 1e-9):
        raise ConeViolationError(
            f"partial data has cone ratio {ratio:.6g} > L = {l_ver:.6g} (pair {i}, {j})"
        )
    # the cone opening of the extension is what bounds the output slope,
    # so cap it at the unit contract; clamping preserves the data's sup
    m_const = min(extension_constant(l_ver), 1.0)
    sup_bound = float(np.max(np.abs(values)))
    return extend_lipschitz(spec, cells, values, m_const=m_const, sup_bound=sup_bound)


def _nearest_dinf(targets: np.ndarray, points: np.ndarray, width: float) -> np.ndarray:
    """min over points of dinf(target, point) for each target, bit for bit.

    Targets are taken in groups, by their cell of width `width` on
    x_2..x_n, y_1..y_n, and search the points inside the group's box padded
    by r.  dinf bounds every spatial coordinate difference (see core's box
    search), so a point outside that box lies more than r from each target
    of the group, and a target whose best distance is at most r is
    settled; the minimum over a superset of the minimizers is the exact
    minimum.  The others search again with r the larger of r + width and
    their largest best distance.  The first r is width / 2: nearly every
    graph point on a cloud's own grid has a sample that close, and the box
    of a group of one node's graph points then holds one node layer in each
    of x_2..x_n, y_1..y_n, where a pad of one width holds three.
    """
    n = points.shape[-1] // 2
    by_x2 = np.argsort(points[:, 1], kind="stable")
    sorted_pts = np.asfortranarray(points[by_x2])
    cols = [1, 0, *range(2, 2 * n)]
    best = np.full(len(targets), np.inf)
    for rows in core._groups(targets, range(1, 2 * n), width):
        r = 0.5 * width
        while rows.size:
            pad = r * (1.0 + 1e-9)
            lo, hi = targets[rows].min(axis=0) - pad, targets[rows].max(axis=0) + pad
            cand = by_x2[core._in_box(sorted_pts, cols, lo, hi)]
            # column-major, so the kernel reads each coordinate contiguously
            pts = np.asfortranarray(points[cand])
            for blk in core._row_blocks(rows.size, cand.size):
                d = core.dinf(targets[rows[blk], None, :], pts[None, :, :])
                best[rows[blk]] = np.min(d, axis=1, initial=np.inf)
            if cand.size == len(points):
                break
            rows = rows[best[rows] > r * (1.0 - 1e-9)]
            far = np.max(best[rows], initial=0.0)
            r = r + width if math.isinf(far) else max(r + width, far)
    return best


def _height_threshold(spec: GridSpec, tau: float) -> float:
    """The height gap within which a sample matches the graph: tau with one
    homogeneous cell diameter of slack."""
    return tau * (1.0 + maximal.cell_diameter(spec))


def sym_diff_measure(
    cloud: BoundaryCloud,
    f: GridFunction,
    tau: float,
    region: np.ndarray,
    known: tuple[GridFunction, SymDiffReport] | None = None,
) -> SymDiffReport:
    """Two-sided symmetric difference between the cloud and the graph.

    A sample counts as off-graph when its height differs from the graph
    by more than tau (with one homogeneous cell diameter of slack); a
    region cell counts as off-cloud when no sample lies within tau of its
    graph point.  Masses are the perimeter weights on the cloud side and
    the area-formula mass on the graph side.

    `known` = (g, report of this cloud against g on f's grid) reuses the
    report's cell distances: a cell of both regions where f has g's bits
    has g's graph point there, so the same nearest distance, and only the
    other cells take the nearest-distance pass.  The bits are compared,
    not the values, because -0.0 and 0.0 give different graph points.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    spec = f.spec
    region = np.asarray(region, dtype=bool).ravel()
    proj = cloud.projections()
    flat, inside = spec.locate(proj)
    sample_in_region = inside & region[flat]
    threshold = _height_threshold(spec, tau)
    sample_matched = np.zeros(len(cloud), dtype=bool)
    if np.any(sample_in_region):
        sel = np.flatnonzero(sample_in_region)
        gap = np.abs(cloud.heights[sel] - f.interp(proj[sel]))
        sample_matched[sel] = gap <= threshold
    cloud_mass = float(np.sum(cloud.weights[sample_in_region & ~sample_matched]))

    cell_min_dist = np.full(spec.size, np.inf)
    todo = region
    if known is not None:
        g, rep = known
        same = region & rep.cell_region & (f.flat.view(np.int64) == g.flat.view(np.int64))
        cell_min_dist[same] = rep.cell_min_dist[same]
        todo = region & ~same
    cells = np.flatnonzero(todo)
    targets = core.graph_points(spec.nodes()[cells], f.flat[cells])
    cell_min_dist[cells] = _nearest_dinf(targets, cloud.points, spec.h)
    cell_matched = cell_min_dist <= tau
    area = _area(f).ravel()
    off_cells = region & ~cell_matched
    graph_mass = float(np.sum(area[off_cells]) * spec.cell_volume)

    total = cloud_mass + graph_mass
    delta = core.constants(spec.n)[1]
    return SymDiffReport(
        cloud_mass=cloud_mass,
        graph_mass=graph_mass,
        total=total,
        spherical=total / delta,
        tau=tau,
        sample_in_region=sample_in_region,
        sample_matched=sample_matched,
        cell_region=region,
        cell_matched=cell_matched,
        cell_min_dist=cell_min_dist,
    )


def lipschitz_approximation(
    cloud: BoundaryCloud,
    spec: GridSpec,
    config: PipelineConfig | None = None,
) -> ApproxResult:
    """Select, deposit, extend; the fit measures come on first read.

    With no admissible sample the result is the zero graph flagged
    degenerate rather than an error.
    """
    config = PipelineConfig() if config is None else config
    m0 = select_m0(cloud, spec, config)
    if m0.size == 0:
        zero = GridFunction.constant(spec, 0.0)
        return ApproxResult(phi=zero, m0=m0, sup_abs=0.0, lip_estimate=0.0, degenerate=True)
    cells, values = heights_on_projection(cloud, m0, spec)
    f, _ = _extend(spec, cells, values, config)
    return ApproxResult(
        phi=f,
        m0=m0,
        sup_abs=float(np.max(np.abs(f.flat))),
        lip_estimate=lipschitz_estimate(f, pair_budget=config.pair_budget, seed=config.seed),
        fit_inputs=(cloud, config.resolved_tau(spec), disk_mask(spec, config.inner_radius)),
    )


def build_mu(
    cloud: BoundaryCloud,
    f: GridFunction,
    sym: SymDiffReport,
    orientation: int,
) -> DiscreteMeasure:
    """Defect measure of the approximation, on the match `sym` of cloud and f.

    Matched samples contribute twice their weighted normal defect at the
    cell of their projection; region cells not matched by any sample
    contribute the graph density |grad|^2 / sqrt(1 + |grad|^2).  Zero
    exactly when the cloud is the graph of f with aligned normals.
    """
    spec = f.spec
    masses = np.zeros(spec.size)
    take = sym.sample_in_region & sym.sample_matched
    if np.any(take):
        flat, inside = spec.locate(cloud.projections()[take])
        defect = 2.0 * cloud.weights[take] * (1.0 - orientation * cloud.normals[take, 0])
        np.add.at(masses, flat[inside], defect[inside])
    g2 = intrinsic_gradient(f).norm_sq().ravel()
    off = sym.cell_region & ~sym.cell_matched
    masses[off] += g2[off] / np.sqrt(1.0 + g2[off]) * spec.cell_volume
    return DiscreteMeasure(spec, masses.reshape(spec.counts))


def truncate(
    cloud: BoundaryCloud,
    f: GridFunction,
    config: PipelineConfig | None = None,
) -> TruncationResult:
    """Cut the unit disk down to the small-defect region K.

    K keeps the cells where the maximal function of the defect measure
    stays below eta = excess^(2 alpha).  Reports the measure lost, the
    pair-sampled Lipschitz constant on K, and the off-superlevel bound
    theta * (lemma ratio) at theta = excess^alpha.
    """
    config = PipelineConfig() if config is None else config
    spec = f.spec
    tau = config.resolved_tau(spec)
    s = config.resolved_maximal_scale()
    e_outer = excess_cloud(cloud, None, config.outer_scale, config.orientation).excess
    d1 = disk_mask(spec, config.inner_radius)
    support = core.box(spec.nodes()) < 4.0 * s - 1e-12
    sym = sym_diff_measure(cloud, f, tau, region=support)
    mu = build_mu(cloud, f, sym, config.orientation)

    trivial = e_outer <= 0.0
    if trivial:
        eta = math.inf
        theta = 0.0
        k_mask = d1.copy()
    else:
        eta = e_outer ** (2.0 * config.alpha) if config.eta_override is None else config.eta_override
        theta = e_outer**config.alpha
        fld = maximal.disk_maximal(mu, s, centers=np.flatnonzero(d1), _exact_above=eta)
        k_mask = d1 & ~(fld > eta)
    outside = float(np.count_nonzero(d1 & ~k_mask)) * spec.cell_volume

    k_idx = np.flatnonzero(k_mask)
    lip_on_k = (
        lipschitz_estimate(f, pair_budget=config.pair_budget, seed=config.seed, subset=k_idx)
        if k_idx.size >= 2
        else 0.0
    )
    path = "none"
    if trivial or theta <= 0.0:
        lip_certified = 0.0
    else:
        try:
            c_l, path = maximal.estimate_ball_constants(f), "estimated"
        except PhiLemmaError as exc:
            log.info("phi lemma: c_L estimate failed (%s); c_L pinned to 1", exc)
            c_l, path = 1.0, "pinned"
        try:
            rep = check_phi_lemma(
                f, s=s, theta=theta, gamma2=config.gamma2,
                pair_budget=config.pair_budget, seed=config.seed, c_hat_l=c_l,
            )
            lip_certified = rep["ratio"] * theta
        except PhiLemmaError as exc:
            log.warning("phi lemma failed with c_L = %r (%s); no certificate", c_l, exc)
            lip_certified, path = math.inf, "none"

    dists = sym.cell_min_dist[k_idx]
    residual = float(np.max(dists[np.isfinite(dists)], initial=0.0))
    return TruncationResult(
        k_mask=k_mask,
        d1_mask=d1,
        symdiff=sym,
        outside_measure=outside,
        lip_on_k=lip_on_k,
        lip_certified=lip_certified,
        coincidence_residual=residual,
        coincidence_ok=bool(residual <= tau * (1.0 + 1e-12)),
        eta=eta,
        theta=theta,
        excess_outer=e_outer,
        mu_total=mu.total(),
        maximal_scale=s,
        trivial=trivial,
        phi_lemma_path=path,
    )


def check_bv(f: GridFunction) -> dict:
    """Cauchy-Schwarz bound on the total variation of the gradient.

    (int |grad|)^2 <= sqrt(1 + sup |grad|^2) * |grid| * int |grad|^2 / sqrt(1 + |grad|^2),
    all over the grid.  Equality for constant gradients.
    """
    spec = f.spec
    g2 = intrinsic_gradient(f).norm_sq().ravel()
    V = spec.cell_volume
    lhs = float(np.sum(np.sqrt(g2)) * V) ** 2
    rhs = (
        math.sqrt(1.0 + float(np.max(g2, initial=0.0)))
        * (spec.size * V)
        * float(np.sum(g2 / np.sqrt(1.0 + g2)) * V)
    )
    return {
        "lhs": lhs,
        "rhs": rhs,
        "passed": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-300),
        "slack": rhs - lhs,
    }


def check_sandwich(
    f: GridFunction,
    x: np.ndarray,
    r: float,
    C: float,
    lip: float | None = None,
) -> dict:
    """Inclusion tests between graph balls, projected metric balls, disks.

    Checks U_phi(x, Cr) inside proj(B_r(Phi(x)) cap graph) inside U_phi(x, r)
    on the grid cells, plus the disk comparison with the inflated radius
    R = r + 2 sqrt(sup|phi|) sqrt(r).  C above 1/(1 + Lip) is allowed but
    flagged inadmissible; the inclusions are then expected to fail.

    The symmetrized graph distance of two graph points exceeds their
    ambient quasi-distance by at most the factor 1 + Lip/2 (the height
    difference twists the vertical part), so the outer graph ball carries
    that slack; it vanishes for flat graphs.  `lip` is that Lipschitz
    estimate; pass lipschitz_estimate(f) to reuse it across many balls on
    one graph, or leave it None to have it computed here.
    """
    if r <= 0 or C <= 0:
        raise ValueError("radius and ratio must be positive")
    spec = f.spec
    x = np.asarray(x, dtype=float)
    if lip is None:
        lip = lipschitz_estimate(f)
    # every result below depends only on the nodes of the balls and disks
    # of radius r or Cr (the counts, the exit flag and the left side of
    # each inclusion), and every distance is at least each spatial W
    # coordinate difference (see core's box search): so only the nodes in
    # that box around x are measured; in flat order they are sorted on x_2
    nodes = spec.nodes()
    reach = max(C * r, r) * (1.0 + 1e-9)
    near = core._in_box(nodes, range(2 * spec.n - 1), x - reach, x + reach)
    # one graph-distance row from x serves every graph ball below
    px, pnear = _graph_point(f, x), core.graph_points(nodes[near], f.flat[near])
    d = _sym_dist(px, pnear)
    inner, outer = d < C * r, d < r
    r_slack = r * (1.0 + 0.5 * lip) + 1e-12
    outer_slack = outer if lip == 0.0 else d < r_slack
    ball_proj = core.dinf(px, pnear) < r

    sup_h = float(np.max(np.abs(f.flat)))
    R = r + 2.0 * math.sqrt(sup_h) * math.sqrt(r)
    # one W-distance row serves both disks
    dw = core.w_dinf(x, nodes[near])
    disk_r, disk_big = dw < r, dw < R
    graph_ball_big = d < R

    incl = {
        "graph_ball_in_projection": bool(np.all(~inner | ball_proj)),
        "projection_in_graph_ball": bool(np.all(~ball_proj | outer_slack)),
        "graph_ball_in_disk": bool(np.all(~outer | disk_big)),
        "disk_in_graph_ball": bool(np.all(~disk_r | graph_ball_big)),
    }
    return {
        **incl,
        "passed": all(incl.values()),
        "c_admissible": bool(C < 1.0 / (1.0 + lip)),
        "lip_estimate": lip,
        "R": R,
        "ball_exits_grid": bool(np.any((inner | outer) & spec.boundary_mask().ravel()[near])),
        "counts": {
            "inner": int(np.count_nonzero(inner)),
            "projection": int(np.count_nonzero(ball_proj)),
            "outer": int(np.count_nonzero(outer)),
        },
    }


def corollary_report(
    cloud: BoundaryCloud,
    spec: GridSpec,
    config: PipelineConfig | None = None,
) -> dict:
    """Full pipeline record: approximate, truncate, re-extend from K.

    The five output quantities each carry the excess power from their
    continuum bound and the empirical ratio value / excess^power; the
    constants in front are unknown, so only the ratios are reported.
    """
    config = PipelineConfig() if config is None else config
    res = lipschitz_approximation(cloud, spec, config)
    if res.degenerate:
        return {"degenerate": True, "config": config.to_dict()}
    trunc = truncate(cloud, res.phi, config)
    k_idx = np.flatnonzero(trunc.k_mask)
    if k_idx.size == 0:
        refit, ext = GridFunction.constant(spec, 0.0), None
    else:
        refit, ext = _extend(spec, k_idx, res.phi.flat[k_idx], config)
    tau = config.resolved_tau(spec)
    # the refit keeps phi's bits on K and often elsewhere: those cells keep
    # truncate's nearest distances
    sym = sym_diff_measure(cloud, refit, tau, region=trunc.d1_mask, known=(res.phi, trunc.symdiff))
    g2 = intrinsic_gradient(refit).norm_sq().ravel()
    l2 = float(np.sum(g2[trunc.d1_mask]) * spec.cell_volume)
    lip = lipschitz_estimate(refit, pair_budget=config.pair_budget, seed=config.seed)
    e = trunc.excess_outer

    def quantity(value: float, power: float) -> dict:
        ratio = 0.0 if e <= 0.0 else value / e**power  # a NaN excess gives NaN
        return {"value": value, "excess_power": power, "ratio": ratio}

    sym_power = 1.0 - 2.0 * config.alpha
    quantities = {
        "symdiff_spherical": quantity(sym.spherical, sym_power),
        "l2_gradient": quantity(l2, 1.0),
        "outside_measure": quantity(trunc.outside_measure, sym_power),
        "lip_graph": quantity(lip, config.alpha),
        "sup_height": quantity(float(np.max(np.abs(refit.flat))), 1.0 / (2.0 * (2 * spec.n + 1))),
    }
    return {
        "degenerate": False,
        "excess_outer": e,
        "alpha": config.alpha,
        "quantities": quantities,
        "empirical": True,
        "m0_count": int(res.m0.size),
        "kept_cells": int(k_idx.size),
        "coincidence_residual": trunc.coincidence_residual,
        "extension_iterations": None if ext is None else ext.iterations,
        "config": config.to_dict(),
    }
