"""Dirichlet minimization of the intrinsic graph area functional.

The energy is the midpoint-rule H-perimeter of a graph over W.  Its
discrete gradient is exact for the discretization, including the
chain-rule term from the Burgers component where phi multiplies its own
t-derivative.  That coupling makes the energy non-convex, so descent
certifies quality through the calibration gap energy - L^{2n}(region),
which vanishes only on graphs with zero intrinsic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    GridFunction,
    GridSpec,
    IntrinsicGradient,
    _map_slabs,
    _norm_sq_into,
    _sl,
    _slab,
    _twice_coordinates,
    intrinsic_gradient,
)
from .surface import _region_mask

__all__ = [
    "STENCIL_REACH",
    "DirichletProblem",
    "SolveReport",
    "dirichlet_problem",
    "energy",
    "energy_gradient",
    "solve",
    "gradient_check",
]

# one-sided second-order edge stencils read three node layers
STENCIL_REACH = 3
# sufficient-decrease constant of the line search, and its step halvings
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def _adjoint_axis(u: np.ndarray, axis: int, h: float, out: np.ndarray, rows: slice) -> np.ndarray:
    """Rows `rows` of the adjoint of the second-order np.gradient stencil along one axis.

    Written into out[rows], so a caller can reuse one scratch array, with
    the same operations in the same order on every element as on the whole
    array.  `rows` is a slice of axis 0 with explicit bounds; along axis 0
    the adjoint reads u's neighbour rows outside it.  Returns out[rows].
    """
    nd = u.ndim
    rows_out = out[rows]
    u, out, a, b = _slab(u, out, axis, rows)
    size = u.shape[axis]
    rows_out.fill(0.0)
    lo, hi = max(a, 2), min(b, size - 2)
    out[_sl(nd, axis, slice(lo, b))] += u[_sl(nd, axis, slice(lo - 1, b - 1))]
    out[_sl(nd, axis, slice(a, hi))] -= u[_sl(nd, axis, slice(a + 1, hi + 1))]
    for j, i, c in ((0, 0, -3.0), (1, 0, 4.0), (2, 0, -1.0),
                    (-1, -1, 3.0), (-2, -1, -4.0), (-3, -1, 1.0)):
        if a <= j % size < b:
            out[_sl(nd, axis, j)] += c * u[_sl(nd, axis, i)]
    rows_out /= 2.0 * h
    return rows_out


@dataclass
class _Iterate(GridFunction):
    """Descent point that keeps the stencil pass of its energy evaluation.

    `energy` stores (intrinsic gradient, area element) here and
    `energy_gradient` takes it, writing into its buffers, so each point of
    the descent costs one stencil pass.
    """

    stencils: tuple[IntrinsicGradient, np.ndarray] | None = field(default=None, repr=False)


def _stencil_pass(f: GridFunction) -> tuple[IntrinsicGradient, np.ndarray]:
    """Intrinsic gradient of f and its area element sqrt(1 + |grad phi|^2)."""
    grad = intrinsic_gradient(f)
    comps = grad.components
    area, sq = np.empty(f.spec.counts), np.empty(f.spec.counts)

    def block(rows: slice) -> None:
        a = _norm_sq_into(comps[:, rows], area[rows], sq[rows])
        a += 1.0
        np.sqrt(a, out=a)

    _map_slabs(block, f.spec)
    return grad, area


def energy(f: GridFunction, region=None) -> float:
    """Area of the graph over the region; always >= L^{2n}(region).

    Equal to surface.hperimeter(f, region) bit for bit.
    """
    stencils = _stencil_pass(f)
    if isinstance(f, _Iterate):
        f.stencils = stencils
    area = stencils[1].ravel()
    if region is not None:
        area = area[_region_mask(f, region)]
    return float(np.sum(area) * f.spec.cell_volume)


def energy_gradient(f: GridFunction, region=None) -> np.ndarray:
    """Exact nodal derivative of the discretized energy, flat layout."""
    spec = f.spec
    n, h, V = spec.n, spec.h, spec.cell_volume
    t_ax = 2 * n - 1
    stencils = f.stencils if isinstance(f, _Iterate) else None
    if stencils is None:
        stencils = _stencil_pass(f)
    else:
        f.stencils = None  # its buffers are overwritten below
    G, area = stencils
    dt = G.dt
    # W = G * (V / area), written over G, on every row before any adjoint:
    # the axis-0 adjoint of W[0] reads the neighbour rows of a slab
    W = G.components
    mask = None if region is None else _region_mask(f, region).reshape(spec.counts)

    def scale(rows: slice) -> None:
        w = W[:, rows]
        w *= np.divide(V, area[rows], out=area[rows])
        if mask is not None:
            w *= mask[rows]

    _map_slabs(scale, spec)
    grad = np.zeros(spec.counts)
    adj = np.empty(spec.counts)
    tmp = np.empty(spec.counts)
    ys, xs = _twice_coordinates(spec, n), _twice_coordinates(spec, 0)

    def adjoints(rows: slice) -> None:
        g, t = grad[rows], tmp[rows]
        for i in range(2, n + 1):
            wx = W[i - 2]
            g += _adjoint_axis(wx, i - 2, h, adj, rows)
            np.multiply(ys[i - 2][rows], wx[rows], out=t)
            g += _adjoint_axis(tmp, t_ax, h, adj, rows)
        wb = W[n - 1]
        g += _adjoint_axis(wb, n - 1, h, adj, rows)
        np.multiply(4.0, dt[rows], out=t)
        g -= np.multiply(t, wb[rows], out=t)
        np.multiply(f.values[rows], wb[rows], out=t)
        g -= np.multiply(4.0, _adjoint_axis(tmp, t_ax, h, adj, rows), out=adj[rows])
        for i in range(2, n + 1):
            wy = W[n + i - 2]
            g += _adjoint_axis(wy, n + i - 2, h, adj, rows)
            np.multiply(xs[i - 2][rows], wy[rows], out=t)
            g -= _adjoint_axis(tmp, t_ax, h, adj, rows)

    _map_slabs(adjoints, spec)
    return grad.ravel()


def _exterior_reach(region: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Nodes touched by interior stencils of cells outside the region."""
    ext = ~region.reshape(counts)
    touched = ext.copy()
    nd = ext.ndim
    for ax in range(nd):
        touched[_sl(nd, ax, slice(None, -1))] |= ext[_sl(nd, ax, slice(1, None))]
        touched[_sl(nd, ax, slice(1, None))] |= ext[_sl(nd, ax, slice(None, -1))]
    return touched


@dataclass
class DirichletProblem:
    """Fixed boundary values on the mask, free nodes elsewhere."""

    initial: GridFunction
    region: np.ndarray | None = None

    def __post_init__(self) -> None:
        mask = self.initial.dirichlet_mask
        if mask is None:
            raise ValueError("initial guess must carry a dirichlet mask")
        spec = self.initial.spec
        if np.any(spec.boundary_mask(STENCIL_REACH) & ~mask):
            raise ValueError(
                f"dirichlet mask must cover {STENCIL_REACH} layers at the grid edge"
            )
        if self.region is not None:
            self.region = np.asarray(self.region, dtype=bool).ravel()
            if self.region.size != spec.size:
                raise ValueError("region mask size does not match grid")
            reach = _exterior_reach(self.region, spec.counts)
            if np.any(reach & ~mask):
                raise ValueError("dirichlet mask must cover stencil reach of exterior cells")

    @property
    def spec(self) -> GridSpec:
        return self.initial.spec

    def region_measure(self) -> float:
        count = self.spec.size if self.region is None else int(np.count_nonzero(self.region))
        return count * self.spec.cell_volume


def dirichlet_problem(
    spec: GridSpec,
    data,
    init=None,
    layers: int = STENCIL_REACH,
    region=None,
) -> DirichletProblem:
    """Assemble a problem: `data` fixes the mask, `init` seeds free nodes.

    The mask is grown to cover the stencil reach of cells outside the
    region, so the assembled problem always satisfies the invariants.
    """
    if layers < STENCIL_REACH:
        raise ValueError(f"need at least {STENCIL_REACH} boundary layers, got {layers}")
    nodes = spec.nodes()
    vals = np.asarray(data(nodes) if callable(data) else np.full(spec.size, float(data)))
    vals = vals.reshape(spec.counts).copy()
    mask = spec.boundary_mask(layers)
    region_flat = None
    if region is not None:
        region_flat = _region_mask(GridFunction(spec, vals), region)
        mask = mask | _exterior_reach(region_flat, spec.counts)
    if init is not None:
        seed = np.asarray(init(nodes), dtype=float).reshape(spec.counts)
        vals[~mask] = seed[~mask]
    return DirichletProblem(GridFunction(spec, vals, dirichlet_mask=mask), region=region_flat)


@dataclass
class SolveReport:
    phi: GridFunction
    energy_trace: np.ndarray
    gradient_trace: np.ndarray
    iterations: int
    converged: bool
    line_search_failed: bool
    calibration_gap: float

    def __post_init__(self) -> None:
        self.energy_trace = np.asarray(self.energy_trace, dtype=float)
        self.gradient_trace = np.asarray(self.gradient_trace, dtype=float)
        if np.any(np.diff(self.energy_trace) > 0):
            raise ValueError("energy trace must be non-increasing")


def solve(
    problem: DirichletProblem,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> SolveReport:
    """Projected gradient descent with Barzilai-Borwein steps and backtracking.

    The first step, and any step whose BB quotient is unusable, falls
    back to twice the last accepted step (1 / max(|g|_inf, 1) before any).
    Accepted steps satisfy the sufficient-decrease condition, so the energy
    trace is non-increasing.  A failed line search stops early and reports
    the last iterate with converged=False.
    """
    spec = problem.spec
    region = problem.region
    mask = problem.initial.dirichlet_mask
    fixed = mask.ravel()

    def masked_grad(point: _Iterate) -> np.ndarray:
        g = energy_gradient(point, region)
        g[fixed] = 0.0
        return g

    x = problem.initial.values.ravel().copy()
    point = _Iterate(spec, x.reshape(spec.counts))
    e = energy(point, region)
    g = masked_grad(point)
    e_trace = [e]
    g_trace = [float(np.max(np.abs(g)))]
    prev_x = prev_g = None
    last_alpha = None
    iterations = 0
    ls_failed = False

    while iterations < max_iter and g_trace[-1] > tol:
        alpha = None
        if prev_x is not None:
            s = x - prev_x
            y = g - prev_g
            sy = float(s @ y)
            if sy > 1e-300:
                alpha = float(s @ s) / sy
        if alpha is None or not np.isfinite(alpha) or alpha <= 0:
            alpha = 2.0 * last_alpha if last_alpha else 1.0 / max(g_trace[-1], 1.0)
        gg = float(g @ g)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = x - alpha * g
            # rebinding drops the previous candidate's stencil pass first
            point = _Iterate(spec, cand.reshape(spec.counts))
            ec = energy(point, region)
            if ec <= e - _ARMIJO * alpha * gg:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            ls_failed = True
            break
        prev_x, prev_g = x, g
        x, e, last_alpha = cand, ec, alpha
        g = masked_grad(point)
        e_trace.append(e)
        g_trace.append(float(np.max(np.abs(g))))
        iterations += 1

    return SolveReport(
        phi=GridFunction(spec, x.reshape(spec.counts), dirichlet_mask=mask),
        energy_trace=np.asarray(e_trace),
        gradient_trace=np.asarray(g_trace),
        iterations=iterations,
        converged=g_trace[-1] <= tol,
        line_search_failed=ls_failed,
        calibration_gap=e - problem.region_measure(),
    )


def _local_area_sum(spec: GridSpec, vals: np.ndarray, box: tuple, region_shaped) -> float:
    S = np.sqrt(1.0 + intrinsic_gradient(GridFunction(spec, vals)).norm_sq())
    if region_shaped is not None:
        S = np.where(region_shaped, S, 0.0)
    return float(np.sum(S[box]))


def gradient_check(
    f: GridFunction,
    num_nodes: int = 100,
    step: float = 1e-6,
    seed: int = 0,
    region=None,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Differences are summed over the stencil neighborhood of each probed
    node only; outside it the area integrand does not change, so this is
    the same difference without the cancellation noise of the full sum.
    """
    spec = f.spec
    g = energy_gradient(f, region)
    region_shaped = None
    if region is not None:
        region_shaped = _region_mask(f, region).reshape(spec.counts)
    interior = np.flatnonzero(~spec.boundary_mask(STENCIL_REACH).ravel())
    if interior.size == 0:
        raise ValueError("grid has no interior nodes to probe")
    rng = np.random.default_rng(seed)
    probes = rng.choice(interior, size=min(num_nodes, interior.size), replace=False)
    # floor the denominator at the gradient scale: near-zero entries are
    # compared in absolute terms, not as ill-conditioned ratios
    scale = float(np.max(np.abs(g)))
    worst = 0.0
    for j in probes:
        idx = np.unravel_index(j, spec.counts)
        eps = step * max(1.0, abs(f.values[idx]))
        box = tuple(
            slice(max(0, i - 2), min(c, i + 3)) for i, c in zip(idx, spec.counts)
        )
        vp = f.values.copy()
        vp[idx] += eps
        vm = f.values.copy()
        vm[idx] -= eps
        fd = (
            _local_area_sum(spec, vp, box, region_shaped)
            - _local_area_sum(spec, vm, box, region_shaped)
        ) * spec.cell_volume / (2.0 * eps)
        denom = max(abs(g[j]), abs(fd), scale)
        if denom > 1e-14:
            worst = max(worst, abs(g[j] - fd) / denom)
    return worst
