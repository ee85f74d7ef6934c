"""Local maximal functions, their lemmas, and covering arguments.

Two maximal operators act on cell measures over W: one over group-
translated disks D_r(x) = x * D_r normalized by kappa_n r^{2n+1}, and one
over graph-distance balls U_phi(x, r) normalized by their own discrete
measure.  The continuum sup over radii is replaced by a geometric ladder
with ratio 1.1 starting at one cell width; the lemma checks carry 5%
slack for that discretization.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .graph import (
    GridFunction,
    GridSpec,
    _graph_point,
    _sym_dist,
    intrinsic_gradient,
    lipschitz_estimate,
    phi_ball,
)

__all__ = [
    "LADDER_RATIO",
    "PhiLemmaError",
    "cell_diameter",
    "DiscreteMeasure",
    "DiskLemmaReport",
    "radius_ladder",
    "disk_maximal",
    "check_disk_lemma",
    "vitali_5r",
    "measure_from_gradient",
    "phi_maximal",
    "check_phi_lemma",
    "check_poincare",
    "estimate_ball_constants",
]

LADDER_RATIO = 1.1
# relative slack of the disk lemma check, for the discrete radius ladder
_DISK_LEMMA_SLACK = 0.05
# Lipschitz bound of the small-slope regime phi_maximal requires; the
# continuous theory fixes no numeric value for it
_SMALL_SLOPE_LIP = 0.2
# outer ball factor C2 = 2 gamma2 of the Poincare check, at gamma2 = 1
_POINCARE_C2 = 2.0

log = logging.getLogger("hlip.maximal")


class PhiLemmaError(ValueError):
    """check_phi_lemma cannot certify on this graph: it is too steep for the
    small-slope regime, every ball sampled for c_L left the grid, or no
    pair lies off the superlevel set."""


def cell_diameter(spec: GridSpec) -> float:
    """Homogeneous diameter of one grid cell, ignoring the group twist.

    The t side of length h alone spans sqrt(h) in the box quasi-norm, so
    for h < 1 this dominates the spatial diagonal; radii below this value
    cannot be resolved by cell counting.
    """
    return max(math.sqrt(2 * spec.n - 1) * spec.h, math.sqrt(spec.h))


@dataclass
class DiscreteMeasure:
    """Nonnegative mass per grid cell of W."""

    spec: GridSpec
    masses: np.ndarray

    def __post_init__(self) -> None:
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != self.spec.counts:
            raise ValueError("masses must have the grid's shape, one entry per cell")
        if not np.all(np.isfinite(self.masses)) or np.any(self.masses < 0):
            raise ValueError("masses must be finite and nonnegative")

    @property
    def flat(self) -> np.ndarray:
        return self.masses.ravel()

    def total(self) -> float:
        return float(np.sum(self.masses))


def radius_ladder(r_min: float, r_max: float) -> np.ndarray:
    """Geometric rungs r_min * LADDER_RATIO^k strictly below r_max."""
    if r_min <= 0:
        raise ValueError("need r_min > 0")
    if r_max <= r_min:
        return np.empty(0)
    k = int(math.floor(math.log(r_max / r_min) / math.log(LADDER_RATIO))) + 1
    rungs = r_min * LADDER_RATIO ** np.arange(k + 1)
    return rungs[rungs < r_max]


def _ladder_bins(dist: np.ndarray, rungs: np.ndarray) -> np.ndarray:
    """Rung-major ladder bins of dist, a (support, centres) plane: centre i
    of nc owns bins i, i + nc, .., i + nr*nc.  searchsorted ('right') counts
    rungs <= d, i.e. indexes the first rung strictly containing the point;
    nr is the overflow bin (never inside).  The bins keep dist's layout.
    """
    c_order = dist.flags.c_contiguous
    bins = np.searchsorted(rungs, dist if c_order else dist.T, side="right")
    bins = bins if c_order else bins.T
    bins *= dist.shape[1]
    bins += np.arange(dist.shape[1])
    return bins


def _ladder_masses(bins: np.ndarray, nr: int, masses: np.ndarray | None = None) -> np.ndarray:
    """Cumulative mass per rung: out[k, i] = sum of masses within rungs[k] of centre i.

    bins come from _ladder_bins over nr rungs; membership is strict
    (d < r).  Without masses each point counts 1 (integer counts).
    masses broadcast against bins; passed as a plane of bins' shape and
    layout (a block's plane), they are not copied.  bincount adds each bin
    in memory order, which takes a centre's support columns in order in
    either layout, so the sums are sequential, and the cumulative sum runs
    in place one rung at a time, np.cumsum's order.
    """
    nc, order = bins.shape[1], "C" if bins.flags.c_contiguous else "F"
    if masses is not None:
        masses = np.broadcast_to(masses, bins.shape).ravel(order)
    acc = np.bincount(bins.ravel(order), weights=masses, minlength=(nr + 1) * nc)
    acc = acc.reshape(nr + 1, nc)[:nr]
    for k in range(1, nr):
        acc[k] += acc[k - 1]
    return acc


def _cut_ladder(
    kernel, k: int, x: np.ndarray, pts: np.ndarray, rungs: np.ndarray, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kernel(x_i, pts_j) as a (support, centres) plane on a block's k arena
    planes; the rungs up to the first that holds every support column, the
    bins on them, and the cumulative masses per rung (_ladder_masses).

    The plane runs along its longer axis: kernel(x[None], pts[:, None])
    with at least as many centres as support columns (x Fortran-ordered),
    else kernel(x[:, None], pts[None]).T (pts Fortran-ordered); the kernels
    are elementwise, so the entries have the same bits either way.  From
    the cut rung on, every ball of a centre holds all of its columns, so
    its mass stays the same while its normalization (kappa r^Q, or the
    count of points it holds) does not fall: no later rung can raise a
    ratio.  The masses go into the kernel's spent first plane.
    """
    ns, nc = pts.shape[0], x.shape[0]
    planes = core._planes(k, (ns, nc) if nc >= ns else (nc, ns))
    if nc >= ns:
        dist, plane = kernel(x[None], pts[:, None], planes=planes), planes[0]
    else:
        dist, plane = kernel(x[:, None], pts[None], planes=planes).T, planes[0].T
    r = rungs[: np.searchsorted(rungs, dist.max(), side="right") + 1]
    bins = _ladder_bins(dist, r)
    np.copyto(plane, masses[:, None])
    return r, bins, _ladder_masses(bins, r.size, plane)


def disk_maximal(
    mu: DiscreteMeasure,
    s: float,
    centers: np.ndarray | None = None,
    _exact_above: float = -math.inf,
) -> np.ndarray:
    """Local maximal function sup_{0 < r < 4s - |x|} mu(D_r(x)) / (k r^Q)
    at the centers (all cells by default), one value per cell.

    Disks are group translates x * D_r; the measure must be supported in
    D_{4s}.  Cells off centers, and cells with no admissible radius, get
    value 0.  A block's ladder is cut as _cut_ladder says.

    Values are exact where they exceed _exact_above = thr, elsewhere in
    [0, thr].  No disk holds more than mu's total mass, so no rung at or
    above R* = (mu_total / (k thr))^(1/Q) scores above thr: those rungs are
    dropped, and a block keeps only the support columns that can lie within
    w_dinf < R* of one of its centers, in support order.  Every column it
    drops lies beyond every rung it keeps, and each bin's bincount sum runs
    over the same columns in the same order, so every kept rung's ratio has
    the full ladder's bits.  A thr that is not positive and finite runs the
    full ladder.
    """
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    spec = mu.spec
    nodes = spec.nodes()
    supp = np.flatnonzero(mu.flat > 0)
    if supp.size and np.max(core.box(nodes[supp])) >= 4 * s:
        raise ValueError("measure must be supported in D_{4s}")
    kappa = core.constants(spec.n)[0]
    hom = 2 * spec.n + 1
    rungs = radius_ladder(cell_diameter(spec), 4 * s)
    reach = math.inf  # of the columns' filter; inf keeps every column
    if supp.size and 0 < _exact_above < math.inf:
        # the margin covers a sum of spec.size nonnegative masses, the
        # normalization, the division and the root
        total = mu.total() * (1 + 4 * (spec.size + 4) * np.finfo(float).eps)
        reach = (total / (kappa * _exact_above)) ** (1 / hom) * (1 + 1e-9)
        rungs = rungs[rungs < reach]
    eval_idx = np.arange(spec.size) if centers is None else np.asarray(centers)
    values = np.zeros(spec.size)
    if supp.size and rungs.size:
        norm = kappa * rungs**hom
        sup_nodes = np.asfortranarray(nodes[supp])  # contiguous columns: see core's pair kernels
        sup_mass = mu.flat[supp]

        def block(blk):
            idx = eval_idx[blk]
            x = np.asfortranarray(nodes[idx])  # contiguous columns: see _cut_ladder
            cols = slice(None) if reach == math.inf else _within_reach(x, sup_nodes, reach)
            # taken from the transpose, so that pts keeps contiguous columns
            pts, mass = sup_nodes.T[:, cols].T, sup_mass[cols]
            if not mass.size:
                return  # no support within R*: every value stays 0
            r, _, ratios = _cut_ladder(core.w_dinf, 3, x, pts, rungs, mass)
            ratios /= norm[: r.size, None]
            np.copyto(ratios, 0.0, where=r[:, None] >= 4 * s - core.box(x))
            values[idx] = np.max(ratios, axis=0, initial=0.0)

        # a block's ladder tables are up to rungs.size + 1 columns wide
        core._map_blocks(block, core._row_blocks(eval_idx.size, max(supp.size, rungs.size + 1)))
    return values


def _within_reach(x: np.ndarray, points: np.ndarray, reach: float) -> np.ndarray:
    """The indices, in order, of the W points (sorted on their first
    coordinate, as grid nodes in flat order are) that can lie within
    w_dinf < reach of some row of x (Fortran-ordered: one pass per column).

    w_dinf(a, b) is at least every spatial |b_k - a_k| and sqrt(|t_b - t_a
    - 2 omega(a, b)|), with |omega(a, b)| <= sum over the twisted pairs of
    |a_y| |b_x - a_x| + |a_x| |b_y - a_y| < reach * sum (|a_x| + |a_y|),
    and that sum is at most the lever, its largest value on the rows' box.
    So such a point lies within reach of the rows' box in every spatial
    column, and its t within reach^2 + 2 reach lever of their t range.  The
    1e-9 margin absorbs the rounding, as in core's box search.
    """
    n = x.shape[-1] // 2
    twisted = [*range(n - 1), *range(n, 2 * n - 1)]
    lo, hi = x.min(axis=0), x.max(axis=0)
    lever = float(np.sum(np.maximum(np.abs(lo[twisted]), np.abs(hi[twisted]))))
    pad = np.full(2 * n, reach)
    pad[-1] = reach * reach + 2.0 * reach * lever
    pad *= 1 + 1e-9
    return core._in_box(points, range(2 * n), lo - pad, hi + pad)


@dataclass(frozen=True)
class DiskLemmaReport:
    lhs: float
    rhs: float
    slack: float
    hypothesis_ok: bool
    passed: bool


def check_disk_lemma(
    mu: DiscreteMeasure,
    s: float,
    theta: float,
    r: float,
) -> DiskLemmaReport:
    """Superlevel-measure bound for the disk maximal function.

    lhs = L^{2n}(J_theta cap D_r), rhs = (5^Q/theta) mu(J_{theta/2^Q} cap
    D_{r+s/5}); requires r <= 3s and the smallness hypothesis
    mu(D_{4s}) <= (theta/5^Q) kappa s^Q, reported separately when it fails.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if r > 3 * s:
        raise ValueError(f"need r <= 3s, got r={r}, s={s}")
    spec = mu.spec
    hom = 2 * spec.n + 1
    kappa = core.constants(spec.n)[0]
    hypothesis_ok = bool(mu.total() <= (theta / 5**hom) * kappa * s**hom)
    # theta / 2^Q is the lowest level read below
    fld = disk_maximal(mu, s, _exact_above=theta / 2**hom)
    box = core.box(spec.nodes())
    lhs = float(np.count_nonzero((fld > theta) & (box < r))) * spec.cell_volume
    j_small = fld > theta / 2**hom
    rhs = (5**hom / theta) * float(np.sum(mu.flat[j_small & (box < r + s / 5)]))
    passed = bool(hypothesis_ok and lhs <= rhs * (1 + _DISK_LEMMA_SLACK))
    return DiskLemmaReport(lhs, rhs, _DISK_LEMMA_SLACK, hypothesis_ok, passed)


def vitali_5r(
    centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy 5r covering selection on d_inf balls in W.

    Returns (selected indices, assignment) where assignment[i] names the
    selected ball whose 5-times enlargement contains ball i.  Selection is
    by descending radius, ties by input order; disjointness of open balls
    means center distance >= r_i + r_j.

    The distances come in the row blocks of core._row_blocks(m, m) taken
    along that order: one w_dinf call puts a block's balls against every
    ball up to the block's end, and each ball reads its row before its own
    position where `chosen` marks a ball selected so far.  w_dinf is
    elementwise, so every distance is the one a call per ball would give.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if len(centers) != len(radii) or len(radii) == 0:
        raise ValueError("need matching nonempty centers and radii")
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    order = np.argsort(-radii, kind="stable")
    c, r = centers[order], radii[order]
    chosen = np.zeros(order.size, dtype=bool)  # by position in the order
    assignment = np.full(len(radii), -1, dtype=int)
    for blk in core._row_blocks(order.size, order.size):
        d = core.w_dinf(c[blk, None, :], c[None, : blk.stop, :])
        meets = d < r[blk, None] + r[None, : blk.stop]
        for k, p in enumerate(range(blk.start, blk.stop)):
            # the first hit is the earliest selected ball; it is at least
            # as large, so its 5-enlargement contains this one
            hit = np.flatnonzero(meets[k, :p] & chosen[:p])
            chosen[p] = not hit.size
            assignment[order[p]] = order[hit[0] if hit.size else p]
    return order[chosen], assignment


def measure_from_gradient(f: GridFunction) -> DiscreteMeasure:
    """d mu_phi = |grad^phi phi| dL^{2n} as a cell measure."""
    return DiscreteMeasure(f.spec, intrinsic_gradient(f).norm() * f.spec.cell_volume)


def phi_maximal(
    f: GridFunction,
    mu_phi: DiscreteMeasure,
    s: float,
    gamma2: float = 1.0,
    *,
    c_hat_l: float,
    centers: np.ndarray | None = None,
    _exact_above: float = -math.inf,
) -> np.ndarray:
    """Maximal function of mu_phi over graph-distance balls at the centers
    (all cells by default), one value per cell, 0 off centers.

    Radii run over the ladder below r_phi(x, s) = (rho / c_L) s - d_phi(x, 0)
    with rho = 64 gamma2 + 2 and c_L = c_hat_l, the caller's quasi-ball
    constant (estimate_ball_constants(f), or 1 where that cannot be
    estimated).  A graph whose sampled Lipschitz constant exceeds
    _SMALL_SLOPE_LIP is outside the small-slope regime and raises before
    c_L is read.

    A block's ladder is cut as _cut_ladder says.

    Values are exact where they exceed _exact_above, elsewhere in [0,
    _exact_above]: every ratio is a ball's mean density, so the ladder is
    skipped when the largest density is at most _exact_above.
    """
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    if mu_phi.spec != f.spec:
        raise ValueError("measure and graph must share a grid")
    lip = lipschitz_estimate(f)
    if lip > _SMALL_SLOPE_LIP:
        raise PhiLemmaError(
            f"graph too steep for the small-slope regime: {lip:.3g} > {_SMALL_SLOPE_LIP:.3g}"
        )
    rho = 64.0 * gamma2 + 2.0
    spec = f.spec
    rungs = radius_ladder(cell_diameter(spec), (rho / c_hat_l) * s)
    eval_idx = np.arange(spec.size) if centers is None else np.asarray(centers)
    values = np.zeros(spec.size)
    mflat = mu_phi.flat
    # the margin covers a sum of spec.size nonnegative masses and two divisions
    bound = float(np.max(mflat) / spec.cell_volume * (1 + 4 * spec.size * np.finfo(float).eps))
    decided = bound <= _exact_above
    log.debug("phi_maximal: the %s decides (density bound %r, threshold %r)",
              "density bound" if decided else "ladder", bound, _exact_above)
    if rungs.size and not decided:
        pall = np.asfortranarray(f.graph())  # contiguous columns: see core's pair kernels
        d_origin = _sym_dist(_graph_point(f, np.zeros(2 * spec.n)), pall)
        def block(blk):
            idx = eval_idx[blk]
            r, bins, ratios = _cut_ladder(_sym_dist, 4, pall[idx], pall, rungs, mflat)
            # a rung that holds no point holds no mass either, so its
            # ratio 0 / max(count, 1) is the 0 an empty ball scores
            count = _ladder_masses(bins, r.size)
            ratios /= np.maximum(count, 1, out=count)
            ratios /= spec.cell_volume
            caps = (rho / c_hat_l) * s - d_origin[idx]
            np.copyto(ratios, 0.0, where=r[:, None] >= caps)
            values[idx] = np.max(ratios, axis=0, initial=0.0)

        core._map_blocks(block, core._row_blocks(eval_idx.size, max(spec.size, rungs.size + 1)))
    return values


def check_phi_lemma(
    f: GridFunction,
    s: float,
    theta: float,
    gamma2: float = 1.0,
    pair_budget: int = 20000,
    seed: int = 0,
    *,
    c_hat_l: float,
) -> dict:
    """Empirical constant in the off-superlevel Lipschitz bound.

    Over pairs outside J_theta = {[mu_phi] > theta} within U_phi(0, s),
    returns max |phi(x) - phi(y)| / (theta d_phi(x, y)).  c_hat_l is
    phi_maximal's quasi-ball constant.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    in_ball, _ = phi_ball(f, np.zeros(2 * f.spec.n), s)
    fld = phi_maximal(
        f,
        measure_from_gradient(f),
        s,
        gamma2=gamma2,
        c_hat_l=c_hat_l,
        centers=np.flatnonzero(in_ball),
        _exact_above=theta,
    )
    good = np.flatnonzero(in_ball & ~(fld > theta))
    if good.size < 2:
        raise PhiLemmaError("no pairs available off the superlevel set")
    nodes = f.spec.nodes()[good]
    vals = f.flat[good]
    rng = np.random.default_rng(seed)
    i = rng.integers(0, good.size, size=pair_budget)
    j = rng.integers(0, good.size, size=pair_budget)
    keep = i != j
    i, j = i[keep], j[keep]
    pi_ = core.graph_points(nodes[i], vals[i])
    pj = core.graph_points(nodes[j], vals[j])
    d = _sym_dist(pi_, pj)
    ok = d > 1e-15
    ratio = float(np.max(np.abs(vals[i[ok]] - vals[j[ok]]) / (theta * d[ok]), initial=0.0))
    return {
        "ratio": ratio,
        "theta": theta,
        "s": s,
        "pairs": int(np.count_nonzero(ok)),
        "off_level_cells": int(good.size),
    }


def check_poincare(f: GridFunction, x: np.ndarray, r: float) -> dict:
    """Empirical ratio of the phi-ball Poincare inequality at (x, r).

    ratio = int_{U(x,r)} |phi - mean| / (r int_{U(x, C2 r)} |grad|)
    with C2 = _POINCARE_C2.  Both balls must stay inside the grid.
    """
    x = np.asarray(x, dtype=float)
    inner, exits_inner = phi_ball(f, x, r)
    outer, exits_outer = phi_ball(f, x, _POINCARE_C2 * r)
    if exits_inner or exits_outer:
        raise ValueError("phi-ball leaves the grid; shrink r or recentre")
    if not np.any(inner):
        raise ValueError("empty inner ball")
    V = f.spec.cell_volume
    vals = f.flat[inner]
    num = float(np.sum(np.abs(vals - np.mean(vals)))) * V
    grad = intrinsic_gradient(f).norm().ravel()
    den = r * float(np.sum(grad[outer])) * V
    violation = den == 0.0 and num > 1e-14
    return {
        "ratio": 0.0 if num <= 1e-14 else (math.inf if den == 0.0 else num / den),
        "numerator": num,
        "denominator": den,
        "c2": _POINCARE_C2,
        "r": r,
        "violation_candidate": violation,
    }


def estimate_ball_constants(
    f: GridFunction,
    samples: int = 50,
    seed: int = 0,
    r_bounds: tuple[float, float] | None = None,
) -> float:
    """Sampled quasi-triangle constant c_L of d_phi, floored at 1.

    Balls U_phi(x, r) are drawn until `samples` of them stay inside the
    grid, or 20 * samples were drawn; raises if every one left it.  A ball
    leaves the grid exactly when its centre lies closer than r to a
    boundary node, so each drawn centre costs a row against the boundary
    nodes within r_bounds[1] of it on the spatial columns.  (A ball inside
    holds its own centre node, within rounding, so none that counts is
    empty.)  The triple sample of c_L follows the draws.

    No draw depends on a distance, so the balls are drawn in chunks of
    `samples - used` (within the 20 * samples cap): exactly the draws a
    one-ball-at-a-time loop makes before it could next stop.  Each chunk
    then takes its new centres' boundary rows in one block loop.
    """
    spec = f.spec
    nodes = spec.nodes()
    if r_bounds is None:
        spatial = min(c * spec.h for c in spec.counts[:-1]) / 2.0
        r_hi = 0.5 * min(spatial, math.sqrt(spec.counts[-1] * spec.h / 2.0))
        r_bounds = (2 * spec.h, max(2.5 * spec.h, r_hi))
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~spec.boundary_mask(1).ravel())
    # bias centers toward the middle so balls of the requested size fit
    interior = interior[np.argsort(core.box(nodes[interior]), kind="stable")]
    interior = interior[: max(1, interior.size // 3)]
    px = np.asfortranarray(f.graph())  # contiguous columns: see core's pair kernels
    px_boundary = np.asfortranarray(px[spec.boundary_mask().ravel()])
    # graph points of every candidate centre from one interpolation
    centres = core.graph_points(nodes[interior], f.interp(nodes[interior]))
    # each candidate centre's distance to its nearest boundary node within reach2 (inf
    # if none), NaN until drawn: a pair's _sym_dist is at least the root of its squared
    # difference on columns 1..2n-1, so one at or beyond reach2 cannot make edge < radius
    edge = np.full(interior.size, np.nan)
    reach2 = (r_bounds[1] * (1 + 1e-9)) ** 2
    log_lo, log_hi = math.log(r_bounds[0]), math.log(r_bounds[1])
    used, drawn = 0, 0
    while used < samples and drawn < 20 * samples:
        k = min(samples - used, 20 * samples - drawn)
        drawn += k
        rows, radii = np.empty(k, dtype=int), np.empty(k)
        for j in range(k):
            rows[j] = rng.integers(interior.size)
            radii[j] = math.exp(rng.uniform(log_lo, log_hi))
        fresh = np.unique(rows[np.isnan(edge[rows])])

        def block(blk):
            own, pc = fresh[blk], centres[fresh[blk]]
            z2, sq = core._planes(2, (own.size, px_boundary.shape[0]))
            z2.fill(0.0)
            for c in range(1, 2 * spec.n):
                z2 += np.square(np.subtract(px_boundary[:, c], pc[:, c, None], out=sq), out=sq)
            i, j = np.divmod(np.flatnonzero(z2 < reach2), px_boundary.shape[0])
            edge[own] = math.inf
            np.minimum.at(edge, own[i], _sym_dist(pc[i], px_boundary[j]))

        core._map_blocks(block, core._row_blocks(fresh.size, px_boundary.shape[0]))
        used += int(np.count_nonzero(edge[rows] >= radii))
    if used == 0:
        raise PhiLemmaError("every sampled ball left the grid; shrink r_bounds")
    trip = rng.integers(0, spec.size, size=(samples, 3))
    d = lambda a, b: _sym_dist(px[a], px[b])
    dxy, dxz, dzy = d(trip[:, 0], trip[:, 1]), d(trip[:, 0], trip[:, 2]), d(trip[:, 2], trip[:, 1])
    ok = dxz + dzy > 1e-15
    return float(np.max(dxy[ok] / (dxz + dzy)[ok], initial=1.0))
